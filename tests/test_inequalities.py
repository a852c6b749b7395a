import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import helpers
import oracles
from mexp import (
    InputError,
    MeasuredGraph,
    VertexSubset,
    auxiliary_walk,
    cheeger_conductance,
    cheeger_vertex,
    delta_gap,
    distance_gap_bound,
    from_conductance,
    heat_kernel_measure,
    measured_gap,
    verify_cheeger_sandwich,
    verify_coarea,
    verify_gap_controls,
    verify_lp_poincare,
    verify_measured_sandwich,
    verify_poincare_to_cheeger,
)
from mexp import cheeger, inequalities, poincare, spectral
from mexp.cli import main
from mexp.graphs import diameter, dump_graph
from mexp.inequalities import THEOREMS
from mexp.families import make_complete, make_cycle
from mexp.poincare import cp_formula
from mexp.rationals import format_rational


def k2():
    return MeasuredGraph.build(2, [(0, 1)], [1, 1])


class TestCheegerSandwich:
    def test_cycle_auxiliary_walk(self):
        report = verify_cheeger_sandwich(auxiliary_walk(make_cycle(6)))
        assert report.holds
        assert report.inputs["cheeger"] == "1/3"
        lower, upper = report.checks
        assert lower.lhs == pytest.approx(1 / 18)
        assert lower.rhs == pytest.approx(0.5, abs=1e-9)
        assert upper.rhs == pytest.approx(2 / 3)

    def test_rational_side_is_exact(self):
        lower = verify_cheeger_sandwich(auxiliary_walk(make_cycle(6))).checks[0]
        assert lower.lhs == Fraction(1, 18)  # c^2/2, not its float

    def test_k2_upper_equality(self):
        report = verify_cheeger_sandwich(auxiliary_walk(k2()))
        assert report.holds
        upper = report.checks[1]
        assert upper.lhs == pytest.approx(2.0, abs=1e-9)  # gap
        assert upper.rhs == pytest.approx(2.0)  # 2c
        assert abs(upper.slack) <= 1e-9

    def test_random_walks_hold(self):
        rng = random.Random(1)
        for i in range(30):
            walk = helpers.rand_walk(rng, 3, 10, auxiliary_of_random_measure=i % 2 == 0)
            report = verify_cheeger_sandwich(walk)
            assert report.holds, report.as_dict()

    def test_lower_bound_with_auxiliary_heat_kernel_measure(self):
        # the lower bound survives replacing mu by any full-support constraint
        rng = random.Random(2)
        checked = 0
        while checked < 15:
            walk = helpers.rand_walk(rng, 3, 9)
            g = walk.graph
            k = 2 * diameter(g)
            m = heat_kernel_measure(g, rng.randrange(g.n), k)
            if any(x == 0 for x in m):
                continue  # bipartite parity can empty half the support
            c = cheeger_conductance(walk, list(m)).value
            assert float(c * c / 2) <= delta_gap(walk) + 1e-8
            checked += 1


class TestMeasuredSandwich:
    def test_cycle_counting(self):
        report = verify_measured_sandwich(make_cycle(6))
        assert report.holds
        assert report.inputs["cheeger"] == "2/3"
        lower, upper = report.checks
        assert lower.lhs == pytest.approx(1 / 18)
        assert lower.rhs == pytest.approx(2.0, abs=1e-9)
        assert upper.rhs == pytest.approx(16 / 3)

    def test_k2_upper_equality(self):
        report = verify_measured_sandwich(k2())
        assert report.holds
        upper = report.checks[1]
        assert upper.lhs == pytest.approx(4.0, abs=1e-9)
        assert upper.rhs == pytest.approx(4.0)

    def test_random_measured_graphs_hold(self):
        rng = random.Random(3)
        for _ in range(30):
            g = helpers.rand_connected(rng, 3, 10, measured=True)
            assert verify_measured_sandwich(g).holds

    @pytest.mark.parametrize(
        "verify",
        [verify_measured_sandwich, verify_gap_controls, verify_poincare_to_cheeger],
        ids=["measured-sandwich", "gap-controls", "poincare-to-cheeger"],
    )
    def test_partial_support_rejected(self, verify):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 0])
        with pytest.raises(InputError, match="full support"):
            verify(g)


class TestGapControls:
    def test_k2_equality_both_sides(self):
        report = verify_gap_controls(k2())
        assert report.holds
        lower, upper = report.checks
        assert lower.lhs == pytest.approx(4.0, abs=1e-9)
        assert upper.rhs == pytest.approx(4.0, abs=1e-9)

    def test_cycle_counting(self):
        report = verify_gap_controls(make_cycle(6))
        assert report.holds
        lower, upper = report.checks
        assert lower.lhs == pytest.approx(0.5, abs=1e-9)  # s(1+s)/K gap' = gap'
        assert lower.rhs == pytest.approx(2.0, abs=1e-9)
        assert upper.rhs == pytest.approx(4.0, abs=1e-9)  # K^2(1+s)/s^2 gap'

    def test_random_hold(self):
        rng = random.Random(4)
        for _ in range(30):
            g = helpers.rand_connected(rng, 3, 10, measured=True)
            assert verify_gap_controls(g).holds


class TestDistanceBound:
    def test_cycle_singletons(self):
        g = make_cycle(6)
        walk = from_conductance(g, {e: Fraction(2) for e in g.edges})
        report = distance_gap_bound(
            walk, VertexSubset.from_indices(6, [0]), VertexSubset.from_indices(6, [3])
        )
        assert report.holds
        check = report.checks[0]
        assert check.lhs == pytest.approx(4.5, abs=1e-8)  # gap 0.5 times rho^2 = 9
        assert check.rhs == pytest.approx(6.0)
        assert report.inputs["distance"] == 3

    def test_k2_complement_equality(self):
        walk = from_conductance(k2(), {(0, 1): Fraction(1)})
        report = distance_gap_bound(
            walk, VertexSubset.from_indices(2, [0]), VertexSubset.from_indices(2, [1])
        )
        assert report.holds
        check = report.checks[0]
        assert check.lhs == pytest.approx(2.0, abs=1e-9)
        assert check.rhs == pytest.approx(2.0)

    @pytest.mark.parametrize("set_a, set_b", [
        (VertexSubset(2, 0b01), VertexSubset(2, 0b10)),
        (VertexSubset(6, 0b010000), VertexSubset(6, 0b100000)),
    ], ids=["smaller", "larger"])
    def test_subsets_of_another_size_are_bad_input(self, set_a, set_b):
        walk = auxiliary_walk(make_cycle(4))
        with pytest.raises(InputError, match="does not fit a graph on 4 vertices"):
            distance_gap_bound(walk, set_a, set_b)

    def test_complementary_halves_reduce_to_cut_bound(self):
        # with B the complement and mu(A) <= mu(V)/2, the bound collapses to
        # a(cut A) >= gap/2 mu(A)
        rng = random.Random(5)
        for _ in range(20):
            walk = helpers.rand_walk(rng, 3, 9)
            g = walk.graph
            mask = rng.randrange(1, (1 << g.n) - 1)
            a = VertexSubset(g.n, mask)
            b = VertexSubset(g.n, ((1 << g.n) - 1) & ~mask)
            assert distance_gap_bound(walk, a, b).holds
            mu_a = sum((walk.mu[v] for v in a.indices()), Fraction(0))
            if 2 * mu_a > walk.total_mu:
                a, b = b, a
                mu_a = walk.total_mu - mu_a
            cut = sum(
                (walk.a[e] for e in g.edges if (e[0] in a) != (e[1] in a)), Fraction(0)
            )
            assert float(cut) >= delta_gap(walk) / 2 * float(mu_a) - 1e-8

    def test_random_triples_hold(self):
        rng = random.Random(6)
        for _ in range(30):
            walk = helpers.rand_walk(rng, 3, 10)
            n = walk.graph.n
            vertices = list(range(n))
            rng.shuffle(vertices)
            cut_a = rng.randrange(1, n)
            cut_b = rng.randrange(cut_a + 1, n + 1)
            a = VertexSubset.from_indices(n, vertices[:cut_a])
            b = VertexSubset.from_indices(n, vertices[cut_a:cut_b])
            report = distance_gap_bound(walk, a, b)
            assert report.holds
            # (1/mu(A) + 1/mu(B)) (a(E) - a(E_A) - a(E_B)), edge by edge
            mu_a = sum((walk.mu[v] for v in a.indices()), Fraction(0))
            mu_b = sum((walk.mu[v] for v in b.indices()), Fraction(0))
            total = internal_a = internal_b = Fraction(0)
            for (u, v), weight in walk.a.items():
                total += weight
                if u in a and v in a:
                    internal_a += weight
                if u in b and v in b:
                    internal_b += weight
            expected = (1 / mu_a + 1 / mu_b) * (total - internal_a - internal_b)
            assert Fraction(report.inputs["rhs"]) == expected

    def test_overlap_rejected(self):
        walk = auxiliary_walk(make_cycle(4))
        s = VertexSubset.from_indices(4, [0, 1])
        with pytest.raises(ValueError, match="disjoint"):
            distance_gap_bound(walk, s, VertexSubset.from_indices(4, [1, 2]))
        with pytest.raises(ValueError, match="nonempty"):
            distance_gap_bound(walk, s, VertexSubset(4, 0))


class TestPoincareToCheeger:
    def test_cycle_counting(self):
        report = verify_poincare_to_cheeger(make_cycle(6))
        assert report.holds
        check = report.checks[0]
        assert check.lhs == pytest.approx(0.25, abs=1e-9)  # gap 2 falls to 1/4
        assert check.rhs == pytest.approx(2 / 3)

    def test_k2_equality(self):
        report = verify_poincare_to_cheeger(k2())
        assert report.holds
        check = report.checks[0]
        assert check.lhs == pytest.approx(1.0, abs=1e-9)
        assert check.rhs == pytest.approx(1.0)

    def test_random_hold(self):
        rng = random.Random(7)
        for _ in range(30):
            g = helpers.rand_connected(rng, 3, 10, measured=True)
            assert verify_poincare_to_cheeger(g).holds


class TestPartialSupport:
    def test_refused_before_the_enumeration(self, monkeypatch, tmp_path, capsys):
        # an isolated vertex of mass 0 touches no edge, so s is defined (1)
        # and only the full-support test refuses the graph before the enumeration
        def unreachable(*args):
            raise AssertionError("the enumeration ran for a measure without full support")

        monkeypatch.setattr(cheeger, "_minimize_ratio", unreachable)
        graph = MeasuredGraph.build(7, make_cycle(6).edges, [1] * 6 + [0])
        assert graph.ratio_bound == 1 and not graph.full_support
        for verifier in (verify_measured_sandwich, verify_poincare_to_cheeger):
            with pytest.raises(InputError, match="lacks full support"):
                verifier(graph)
        path = tmp_path / "c6-plus-null.json"
        path.write_text(dump_graph(graph), encoding="utf-8")
        for theorem in ("measured-sandwich", "poincare-to-cheeger"):
            assert main(["verify", "--input", str(path), "--theorem", theorem]) == 2
            out = capsys.readouterr()
            assert out.out == "" and "lacks full support" in out.err and "Traceback" not in out.err


class TestSuiteVerifiers:
    def test_coarea_report(self):
        report = verify_coarea(auxiliary_walk(make_cycle(6)), trials=50, seed=0)
        assert report.holds and report.inputs["mismatches"] == 0

    def test_lp_poincare_report(self):
        rng = random.Random(8)
        for p in (1.0, 2.0, 3.0):
            walk = helpers.rand_walk(rng, 3, 9)
            report = verify_lp_poincare(walk, p, trials=100, seed=1)
            assert report.holds, report.as_dict()

    def test_reports_serialize(self):
        import json

        from mexp.cli import _jsonable

        report = verify_measured_sandwich(make_cycle(5))
        text = json.dumps(_jsonable(report))
        assert "measured-sandwich" in text


# each theorem's inputs keys, in the order its report lists them
INPUT_KEYS = {
    "cheeger-sandwich": ["n", "cheeger", "witness", "gap", "tolerance"],
    "measured-sandwich": ["n", "cheeger", "s", "K", "gap", "tolerance"],
    "gap-controls": ["n", "s", "K", "gap", "aux_gap", "tolerance"],
    "distance-bound": ["n", "set_a", "set_b", "distance", "gap", "rhs", "tolerance"],
    "poincare-to-cheeger": ["n", "cheeger", "s", "K", "gap", "tolerance"],
    "coarea": ["n", "trials", "seed", "mismatches"],
    "lp-poincare": ["n", "p", "cheeger", "c_p", "min_ratio", "trials", "seed", "tolerance"],
    "auxiliary-walk": ["n", "cheeger", "s", "K"],
}


class TestReportInputs:
    def test_inputs_follow_one_rendering_rule(self):
        # rationals as "p/q", computed floats as their repr, the given p and
        # tolerance as given, counts as ints and labels as lists
        assert sorted(INPUT_KEYS) == sorted(THEOREMS)
        rng = random.Random(26)
        for i in range(40):
            walk = helpers.rand_walk(rng, 3, 8, auxiliary_of_random_measure=i % 2 == 1)
            graph, n = walk.graph, walk.graph.n
            given = {
                "p": (1.0, 1.5, 2, 3.0)[i % 4],
                "trials": 5,
                "seed": i,
                "cap": 20,
                "tol": (0, 1e-8)[i // 2 % 2],
                "set_a": VertexSubset.from_indices(n, [0]),
                "set_b": VertexSubset.from_indices(n, [n - 1]),
            }
            cheegers = (cheeger_vertex(graph).value, cheeger_conductance(walk, walk.mu).value)
            gaps = (measured_gap(graph), delta_gap(walk))
            aux_gap = delta_gap(auxiliary_walk(graph))
            for name, (verifier, on_walk, names) in THEOREMS.items():
                report = verifier(walk if on_walk else graph, **{key: given[key] for key in names})
                assert list(report.inputs) == INPUT_KEYS[name]
                side = report.checks[0]
                used = {
                    "cheeger": cheegers[on_walk],
                    "s": graph.ratio_bound,
                    "rhs": side.rhs,
                    "gap": gaps[on_walk],
                    "aux_gap": aux_gap,
                    "c_p": side.lhs,
                    "min_ratio": side.rhs,
                }
                for key, value in report.inputs.items():
                    if key in ("p", "tolerance"):
                        assert value is given["tol" if key == "tolerance" else key], (name, key)
                    elif key in ("cheeger", "s", "rhs"):
                        assert type(value) is str and Fraction(value) == used[key], (name, key)
                    elif key in ("gap", "aux_gap", "c_p", "min_ratio"):
                        assert type(value) is str and float(value) == used[key], (name, key)
                        assert type(used[key]) is float and value == repr(used[key]), (name, key)
                    else:
                        assert type(value) in (int, list), (name, key)


class TestTrialVerifiers:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_bad_input(self, trials):
        walk = auxiliary_walk(make_cycle(6))
        with pytest.raises(InputError, match="at least one trial"):
            verify_coarea(walk, trials=trials)
        with pytest.raises(InputError, match="at least one trial"):
            verify_lp_poincare(walk, 2.0, trials=trials)

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    def test_bad_p_refused_before_the_enumeration(self, monkeypatch, p):
        def unreachable(*args):
            raise AssertionError("the enumeration ran for a bad p")

        monkeypatch.setattr(cheeger, "_minimize_ratio", unreachable)
        with pytest.raises(InputError, match="finite number of at least 1"):
            verify_lp_poincare(auxiliary_walk(make_cycle(6)), p, trials=5)

    def test_lp_batch_matches_per_trial_loop(self):
        rng = random.Random(90)
        for i in range(110):
            walk = helpers.rand_walk(rng, 3, 8)
            c = oracles.brute_cheeger_conductance(walk, walk.mu)
            for p in (1.0, 1.5, 2.0, 3.0):
                report = verify_lp_poincare(walk, p, trials=100, seed=i)
                worst, holds = oracles.per_trial_lp_poincare(walk, p, cp_formula(float(c), p), 100, i)
                assert report.inputs["cheeger"] == format_rational(c)
                assert float(report.inputs["min_ratio"]) == pytest.approx(worst, rel=1e-15, abs=0)
                assert report.holds == holds

    def test_coarea_batch_matches_per_trial_loop(self, monkeypatch):
        # the batch tests the functions the seeded words give entry by entry, as
        # F = 420 f, and each trial's sides are the Fraction reference's over 420^2 * scale
        batches = []

        def recorded(walk, rows):
            batches.append((rows, spectral._coarea_sides(walk, rows)))
            return batches[-1][1]

        monkeypatch.setattr(inequalities, "_coarea_sides", recorded)
        rng = random.Random(92)
        for seed in range(21):
            walk = helpers.rand_walk(rng, 2, 12)
            report = verify_coarea(walk, trials=30, seed=seed)
            rows, (direct, level_sum) = batches.pop()
            assert len(rows) == 30 and not batches
            den = 420 * 420 * walk.integer_conductances[1]
            mismatches = 0
            for row, d, s, f in zip(rows, direct, level_sum, oracles.seeded_coarea_rows(seed, 30, walk.graph.n)):
                assert [Fraction(int(x), 420) for x in row] == f
                sides = oracles.coarea_sides(walk, f)
                assert (Fraction(int(d), den), Fraction(int(s), den)) == sides
                mismatches += sides[0] != sides[1]
            assert report.inputs == {"n": walk.graph.n, "trials": 30, "seed": seed, "mismatches": mismatches}
            assert report.holds == (mismatches == 0) and report.checks[0].lhs == mismatches

    def test_coarea_counts_every_non_constant_trial_under_a_wrong_cut(self, monkeypatch):
        # one more unit of cut weight per level adds max(f)^2 - min(f)^2 to a
        # trial's level sum, which is zero only when the trial is constant
        cut = spectral._level_cut
        monkeypatch.setattr(spectral, "_level_cut", lambda edges, values, level: cut(edges, values, level) + 1)
        rng = random.Random(93)
        constant = 0
        for seed in range(20):
            walk = helpers.rand_walk(rng, 2, 3)
            report = verify_coarea(walk, trials=40, seed=seed)
            rows = oracles.seeded_coarea_rows(seed, 40, walk.graph.n)
            flat = sum(len(set(f)) == 1 for f in rows)
            assert report.inputs["mismatches"] == 40 - flat and not report.holds
            constant += flat
        assert constant >= 5  # 19 of the 800 trials are constant

    @pytest.mark.parametrize("n", [40, 100])
    def test_coarea_blocks_bound_the_cut_tensor(self, n):
        # 200 trials on K40 (780 edges, 39 levels a row): the whole (trials,
        # levels, edges) cut tensor at once peaks near 55 MB, blocks of 2^16
        # entries (2 rows) at about 1 MB; K100 takes one row per block
        walk = auxiliary_walk(make_complete(n))
        tracemalloc.start()
        try:
            report = verify_coarea(walk, trials=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.holds
        assert peak < 12 << 20, peak

    def test_constant_rows_are_dropped(self, monkeypatch):
        # a coarse rng makes whole rows constant; they have no pair energy.  Each
        # 16-byte entry is all zeros or all ones, so an entry takes one of two values
        class Coarse(random.Random):
            def randbytes(self, k):
                return b"".join(bytes([255 * self.randrange(2)]) * 16 for _ in range(k // 16))

        monkeypatch.setattr(random, "Random", Coarse)
        rng = Coarse(91)
        constant = 0
        for i in range(20):
            walk = helpers.rand_walk(rng, 2, 3)
            report = verify_lp_poincare(walk, 2.0, trials=8, seed=i)
            rows = oracles.seeded_gaussian_rows(i, 8, walk.graph.n)
            constant += sum(max(f) == min(f) for f in rows)
            floor = float(report.inputs["c_p"])
            worst, holds = oracles.per_trial_lp_poincare(walk, 2.0, floor, 8, i)
            assert float(report.inputs["min_ratio"]) == pytest.approx(worst, rel=1e-15, abs=0)
            assert report.holds == holds
        assert constant >= 20


class TestSeededRows:
    """The map from one call's random.Random(seed).randbytes to its trial rows."""

    def test_gaussian_entries_are_finite_and_standard(self):
        # 10^5 entries: mean and variance within about 5 standard errors
        z = np.concatenate([poincare._gaussian_rows(seed, 1000, 10).ravel() for seed in range(10)])
        assert z.size == 10**5 and np.isfinite(z).all()
        assert abs(z.mean()) < 0.016 and abs(z.var() - 1.0) < 0.025

    def test_the_all_zero_word_gives_a_finite_row(self, monkeypatch):
        # u = 2^-53 is the smallest uniform: no log(0), so no RuntimeWarning
        monkeypatch.setattr(random.Random, "randbytes", lambda self, k: bytes(k))
        (row,) = poincare._gaussian_rows(0, 1, 6)
        assert row.tolist() == [math.sqrt(-2.0 * math.log(2.0**-53)) * math.cos(2.0 * math.pi * 2.0**-53)] * 6
        report = verify_lp_poincare(auxiliary_walk(make_cycle(6)), 1.5, trials=3)  # every row constant, all dropped
        assert report.holds and report.inputs["min_ratio"] == "inf"

    def test_coarea_entries_cover_every_numerator_and_denominator(self, monkeypatch):
        # F = a * (420 // d) with a = w1 mod 16 and d = 1 + w2 mod 7, for each
        # entry's word pair; all 112 pairs (a, d) occur in 20,000 entries
        batches = []

        def recorded(walk, rows):
            batches.append(np.asarray(rows).ravel())
            return spectral._coarea_sides(walk, rows)

        monkeypatch.setattr(inequalities, "_coarea_sides", recorded)
        verify_coarea(auxiliary_walk(make_cycle(10)), trials=2000, seed=29)
        (entries,) = batches
        pairs = [(w1 % 16, 1 + w2 % 7) for w1, w2 in oracles.seeded_word_pairs(29, 20000)]
        assert [int(x) for x in entries] == [a * (420 // d) for a, d in pairs]
        assert set(pairs) == {(a, d) for a in range(16) for d in range(1, 8)}

    def test_no_numpy_random(self):
        # the rows come from the random module's bytes: numpy.random is never imported
        script = (
            "import sys, mexp\n"
            "from mexp.families import make_cycle\n"
            "walk = mexp.auxiliary_walk(make_cycle(6))\n"
            "mexp.verify_coarea(walk, seed=-3)\n"
            "mexp.verify_lp_poincare(walk, 1.5, seed=-3)\n"
            "mexp.optimal_lp_constant(walk, 3.0, restarts=8, seed=-3)\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(inequalities.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
