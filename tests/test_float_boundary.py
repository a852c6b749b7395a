"""The float boundary: rationals reach floats through one power-of-two scale.

Every Cheeger, spectral and Poincare constant depends only on ratios of the
measure, so multiplying every mass and conductance by one constant changes
none of them.  By a power of two the float layers must give the same bits;
by a power of ten each entry rounds differently, so exact sides and verdicts
must agree and float sides agree to 1e-12.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

import helpers
from mexp import (
    GraphFamily,
    auxiliary_walk,
    delta_operator,
    family_report,
    from_conductance,
    lambda_operator,
    optimal_lp_constant,
    spectrum,
)
from mexp.families import make_cycle, probability_counting_measure, product_segment, random_regular
from mexp.inequalities import (
    verify_cheeger_sandwich,
    verify_gap_controls,
    verify_lp_poincare,
    verify_measured_sandwich,
    verify_poincare_to_cheeger,
)
from mexp.rationals import InputError, scaled_floats


class TestScaledFloats:
    def test_shift_is_zero_inside_the_window(self):
        values = [Fraction(1, 3), Fraction(2) ** 255, Fraction(0), 7, Fraction(1, 10**300)]
        floats, shift = scaled_floats(values)
        assert shift == 0
        assert floats.tolist() == [float(v) for v in values]

    @pytest.mark.parametrize("scale", [Fraction(10) ** 310, Fraction(1, 10**400), Fraction(2) ** 257, Fraction(2) ** -257])
    def test_shift_is_even_and_brings_the_largest_near_one(self, scale):
        values = [scale * Fraction(5, 3), scale, Fraction(0), scale / 2**900]
        floats, shift = scaled_floats(values)
        assert shift % 2 == 0 and 0.25 < floats.max() < 4
        assert floats.tolist() == [float(v / Fraction(2) ** shift) for v in values]

    def test_positive_value_below_the_limit_is_refused(self):
        with pytest.raises(InputError, match=r"float range.*2\^-1000"):
            scaled_floats([Fraction(2) ** 1100, Fraction(1)])
        with pytest.raises(InputError, match=r"float range.*2\^-1000"):
            scaled_floats([Fraction(1), Fraction(1, 2**1001)])
        assert scaled_floats([Fraction(2) ** 1100, Fraction(2) ** 101, Fraction(0)])[1] == 1100


def scaled_twin(walk, factor):
    """The walk with every mass and every conductance multiplied by factor."""
    graph = walk.graph.with_measure([m * factor for m in walk.graph.measure])
    return from_conductance(graph, {e: a * factor for e, a in walk.a.items()})


def results(walk):
    """Every float-layer result that the scale must not move."""
    graph = walk.graph
    estimate = optimal_lp_constant(walk, 3.0, restarts=8, seed=1)
    return {
        "delta": spectrum(delta_operator(walk)),
        "lambda": spectrum(lambda_operator(graph)),
        "cheeger-sandwich": verify_cheeger_sandwich(walk),
        "measured-sandwich": verify_measured_sandwich(graph),
        "gap-controls": verify_gap_controls(graph),
        "poincare-to-cheeger": verify_poincare_to_cheeger(graph),
        "lp-poincare": [verify_lp_poincare(walk, p, trials=50, seed=2) for p in (1.5, 2.0, 3.0)],
        "estimate": estimate.estimate,
        "rows": family_report(GraphFamily((graph,)), Fraction(1, 10)).rows,
    }


def assert_close(got, want, rel):
    """got == want, except that floats, and float reprs, may differ by rel (and by
    rel absolutely, for a kernel eigenvalue)."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        got, want = vars(got), vars(want)
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_close(got[key], want[key], rel)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w, rel)
    elif rel and (isinstance(want, float) or isinstance(want, str) and got != want):
        assert float(got) == pytest.approx(float(want), rel=rel, abs=rel)
    else:
        assert type(got) is type(want) and got == want


def c6():
    return auxiliary_walk(make_cycle(6))


def random_walk():
    return helpers.rand_walk(random.Random("scaled-twin"), 8, 10)


def product():
    base = random_regular(10, 3, random.Random(90_900), probability_counting_measure(10))
    return auxiliary_walk(product_segment(base, 1))


class TestScaledTwins:
    @pytest.mark.parametrize("build", [c6, random_walk, product])
    def test_twin_results_match(self, build):
        walk = build()
        want = results(walk)
        for factor, rel in [
            (Fraction(2) ** 1100, 0.0),
            (Fraction(2) ** -1100, 0.0),
            (Fraction(10) ** 400, 1e-12),
            (Fraction(10) ** -400, 1e-12),
        ]:
            assert_close(results(scaled_twin(walk, factor)), want, rel)

    def test_spectrum_fields_carry_the_scale_exactly(self):
        walk = c6()
        op, twin = delta_operator(walk), delta_operator(scaled_twin(walk, Fraction(2) ** 1100))
        ratio = op.mass_diagonal / twin.mass_diagonal
        assert np.all(ratio == ratio[0]) and np.log2(ratio[0]) % 2 == 0
        assert np.array_equal(op.stiffness, twin.stiffness * ratio[0])
