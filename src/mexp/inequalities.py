"""One verifier per named expansion inequality, and one table of them.

Each verifier recomputes its inputs from scratch, evaluates both sides, and
reports a verdict.  Sides are kept exact: a Cheeger value or a bound built
from it is a Fraction, a count is an int, and only a side that involves a
spectral gap, an energy or c_p is a float.  Every bound lhs <= rhs is
decided as lhs <= rhs + tol, and Python compares a Fraction with a float
exactly, so tol matters only where a side is a float: there the slack only
ever helps a check pass, excusing float noise and with it any true
violation smaller than tol.  Two verifiers decide exactly with no slack:
coarea compares its level-set identity in integers over one common
denominator, all trials in one array pass (int64 when sum(A) * max(F)^2 <
2^63 bounds every sum, else Python ints; each level set's cut summed on its
own), and the auxiliary-walk verifier compares counts and rationals.  Both
trial verifiers need at least one trial, and draw all their trials from one
random.Random(seed).randbytes call, two uint64 words per entry
(poincare._seeded_words).  A seed tests other functions than the per-entry
randrange and gauss draws of earlier releases did, but no verdict can
differ: c_p is a proved bound and co-area an identity.  Each verifier passes
the values it read to _report, the one place that renders a report's inputs
for a bit-for-bit replay.

THEOREMS maps each theorem name to its verifier, whether the verifier
takes the walk (True) or the graph (False), and the keyword options it
reads; the CLI takes its --theorem choices and its dispatch from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cheeger import DEFAULT_CAP, cheeger_conductance, cheeger_vertex
from .graphs import MeasuredGraph, VertexSubset, bfs_distances
from .poincare import _check_exponent, _energies, _gaussian_rows, _seeded_words, _walk_arrays, cp_formula
from .rationals import InputError, format_rational
from .spectral import _coarea_sides, delta_gap, measured_gap
from .walks import ReversibleWalk, auxiliary_walk

DEFAULT_TOLERANCE = 1e-8
DEFAULT_TRIALS = 200


@dataclass(frozen=True)
class BoundCheck:
    """One inequality lhs <= rhs; a rational side stays a Fraction."""

    label: str
    lhs: Fraction | int | float
    rhs: Fraction | int | float
    slack: Fraction | int | float
    holds: bool


@dataclass(frozen=True)
class InequalityReport:
    name: str
    holds: bool
    checks: tuple[BoundCheck, ...]
    inputs: dict

    def as_dict(self) -> dict:
        """A shallow dict of the fields, kept only because perfbench/workloads.py
        calls it; it goes with the next benchmark change."""
        return dict(vars(self))


def _check(label: str, lhs: Fraction | float, rhs: Fraction | float, tol: float) -> BoundCheck:
    return BoundCheck(label=label, lhs=lhs, rhs=rhs, slack=rhs - lhs, holds=lhs <= rhs + tol)


def _report(name: str, checks: Sequence[BoundCheck], **inputs) -> InequalityReport:
    """The verdict on the checks, with the inputs rendered so that they replay
    bit for bit: a Fraction as "p/q", a computed float as its repr, and the
    given p and tolerance, ints and label lists as they are."""
    for key, value in inputs.items():
        if isinstance(value, (Fraction, float)) and key not in ("p", "tolerance"):
            inputs[key] = format_rational(value) if isinstance(value, Fraction) else repr(value)
    return InequalityReport(
        name=name,
        checks=tuple(checks),
        holds=all(c.holds for c in checks),
        inputs=inputs,
    )


def _ratio_data(graph: MeasuredGraph) -> tuple[Fraction, int]:
    """The measure-ratio bound s and the valency bound K of a graph with full support."""
    if not graph.full_support:
        raise InputError("measure-ratio bound undefined: measure lacks full support")
    return graph.ratio_bound, graph.max_valency


def verify_cheeger_sandwich(
    walk: ReversibleWalk, cap: int = DEFAULT_CAP, tol: float = DEFAULT_TOLERANCE
) -> InequalityReport:
    """c^2/2 <= gap <= 2c for the conductance Cheeger constant in mu itself."""
    cert = cheeger_conductance(walk, constraint=walk.mu, cap=cap)
    c = cert.value
    gap = delta_gap(walk)
    checks = (
        _check("c^2/2 <= gap", c * c / 2, gap, tol),
        _check("gap <= 2c", gap, 2 * c, tol),
    )
    witness = [walk.graph.labels[v] for v in cert.witness.indices()]
    return _report("cheeger-sandwich", checks, n=walk.graph.n, cheeger=c, witness=witness, gap=gap, tolerance=tol)


def verify_measured_sandwich(
    graph: MeasuredGraph, cap: int = DEFAULT_CAP, tol: float = DEFAULT_TOLERANCE
) -> InequalityReport:
    """c^2 s^3 (1+s) / (2 K^3) <= gap <= 2 (1+s) K c / s for a full-support graph."""
    s, big_k = _ratio_data(graph)
    cert = cheeger_vertex(graph, cap=cap)
    c = cert.value
    gap = measured_gap(graph)
    lower = c * c * s ** 3 * (1 + s) / (2 * big_k ** 3)
    upper = 2 * (1 + s) * big_k * c / s
    checks = (
        _check("c^2 s^3 (1+s) / (2 K^3) <= gap", lower, gap, tol),
        _check("gap <= 2 (1+s) K c / s", gap, upper, tol),
    )
    return _report("measured-sandwich", checks, n=graph.n, cheeger=c, s=s, K=big_k, gap=gap, tolerance=tol)


def verify_gap_controls(graph: MeasuredGraph, tol: float = DEFAULT_TOLERANCE) -> InequalityReport:
    """s(1+s)/K * gap' <= gap <= K^2 (1+s)/s^2 * gap', relating the measured
    gap to the auxiliary walk's Laplacian gap."""
    s, big_k = _ratio_data(graph)
    gap = measured_gap(graph)
    aux_gap = delta_gap(auxiliary_walk(graph))
    lower = float(s * (1 + s) / big_k) * aux_gap
    upper = float(big_k ** 2 * (1 + s) / (s * s)) * aux_gap
    checks = (
        _check("s(1+s)/K * gap' <= gap", lower, gap, tol),
        _check("gap <= K^2(1+s)/s^2 * gap'", gap, upper, tol),
    )
    return _report("gap-controls", checks, n=graph.n, s=s, K=big_k, gap=gap, aux_gap=aux_gap, tolerance=tol)


def distance_gap_bound(
    walk: ReversibleWalk,
    set_a: VertexSubset,
    set_b: VertexSubset,
    tol: float = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """gap * d(A,B)^2 <= (1/mu(A) + 1/mu(B)) * (a(E) - a(E_A) - a(E_B))."""
    graph = walk.graph
    a_members, b_members = graph.members(set_a), graph.members(set_b)
    if set_a.mask == 0 or set_b.mask == 0:
        raise InputError("both subsets must be nonempty")
    if set_a.mask & set_b.mask:
        raise InputError("subsets must be disjoint")
    if not graph.connected:
        raise InputError("distance bound needs a connected graph")
    dist = bfs_distances(graph, a_members)
    rho = min(dist[v] for v in b_members)
    mu_a = sum((walk.mu[v] for v in a_members), Fraction(0))
    mu_b = sum((walk.mu[v] for v in b_members), Fraction(0))
    between = sum(
        (a for (u, v), a in walk.a.items() if not (u in set_a and v in set_a or u in set_b and v in set_b)),
        Fraction(0),
    )
    rhs = (1 / mu_a + 1 / mu_b) * between
    gap = delta_gap(walk)
    lhs = gap * rho * rho
    checks = (_check("gap * d(A,B)^2 <= (1/mu(A)+1/mu(B)) a(E - E_A - E_B)", lhs, rhs, tol),)
    return _report(
        "distance-bound",
        checks,
        n=graph.n,
        set_a=[graph.labels[v] for v in a_members],
        set_b=[graph.labels[v] for v in b_members],
        distance=int(rho),
        gap=gap,
        rhs=rhs,
        tolerance=tol,
    )


def poincare_cheeger_floor(s: Fraction, big_k: int, gap: float) -> float:
    """The Cheeger lower bound s * gap / (2 (1+s) K) from a measured gap."""
    return float(s / (2 * (1 + s) * big_k)) * gap


def verify_poincare_to_cheeger(
    graph: MeasuredGraph, cap: int = DEFAULT_CAP, tol: float = DEFAULT_TOLERANCE
) -> InequalityReport:
    """cheeger >= s * gap / (2 (1+s) K) for a full-support measured graph."""
    s, big_k = _ratio_data(graph)
    c = cheeger_vertex(graph, cap=cap).value
    gap = measured_gap(graph)
    floor = poincare_cheeger_floor(s, big_k, gap)
    checks = (_check("s gap / (2(1+s)K) <= cheeger", floor, c, tol),)
    return _report("poincare-to-cheeger", checks, n=graph.n, cheeger=c, s=s, K=big_k, gap=gap, tolerance=tol)


def verify_auxiliary_walk(graph: MeasuredGraph, cap: int = DEFAULT_CAP) -> InequalityReport:
    """The auxiliary walk's four conditions on a bounded-ratio measured graph,
    decided exactly: a(u,v) = m(u) + m(v) on every edge; a(u,v) > 0 exactly
    on edges; s/(K(1+s)) mu(u) <= m(u) <= mu(u)/(1+s) for all u; and the
    conductance Cheeger constant in m is at least c s / K."""
    walk = auxiliary_walk(graph)  # refuses a measure without full support, so s is defined
    s, big_k = _ratio_data(graph)
    m = graph.measure
    lo = s / (big_k * (1 + s))
    hi = 1 / (1 + s)
    c = cheeger_vertex(graph, cap=cap).value
    mismatched = sum(walk.a[(u, v)] != m[u] + m[v] for u, v in graph.edges)
    unsupported = len(set(walk.a) ^ set(graph.edges)) + sum(a <= 0 for a in walk.a.values())
    outside = sum(not lo * walk.mu[u] <= m[u] <= hi * walk.mu[u] for u in range(graph.n))
    checks = (
        _check("mismatched edge conductances == 0", mismatched, 0, 0),
        _check("support mismatches == 0", unsupported, 0, 0),
        _check("vertices outside the measure sandwich == 0", outside, 0, 0),
        _check("c s / K <= conductance cheeger", c * s / big_k, cheeger_conductance(walk, m, cap=cap).value, 0),
    )
    return _report("auxiliary-walk", checks, n=graph.n, cheeger=c, s=s, K=big_k)


def _check_trials(trials: int):
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")


def verify_coarea(walk: ReversibleWalk, trials: int = DEFAULT_TRIALS, seed: int = 0) -> InequalityReport:
    """Exact level-set identity on seeded random nonnegative rational functions, all trials
    in one batch of F = 420 f (420 = lcm(1..7)).  Each entry's words (w1, w2) of
    poincare._seeded_words give F = (w1 mod 16) * (420 // (1 + w2 mod 7)):
    f = randrange(0, 16) / randrange(1, 8) up to a 2^-61 bias."""
    _check_trials(trials)
    words = _seeded_words(seed, trials, walk.graph.n)
    rows = (words[..., 0] & 15) * (420 // (1 + words[..., 1] % 7))
    direct, level_sum = _coarea_sides(walk, rows)
    mismatches = int(np.count_nonzero(direct != level_sum))
    checks = (_check("level-set identity mismatches == 0", mismatches, 0, 0),)
    return _report("coarea", checks, n=walk.graph.n, trials=trials, seed=seed, mismatches=mismatches)


def verify_lp_poincare(
    walk: ReversibleWalk,
    p: float,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
    tol: float = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """Every random test function satisfies energy ratio >= c_p(cheeger, p): the trials are
    the rows of poincare._gaussian_rows(seed, trials, n), the constant ones left out."""
    _check_trials(trials)
    _check_exponent(p)
    c = cheeger_conductance(walk, constraint=walk.mu, cap=cap).value
    floor = cp_formula(float(c), p)
    n = walk.graph.n
    rows = _gaussian_rows(seed, trials, n)
    rows = rows[rows.max(axis=1) != rows.min(axis=1)]
    edge, pair = _energies(_walk_arrays(walk), rows, p)
    worst = float((edge / pair).min(initial=math.inf))
    checks = (_check("c_p <= min energy ratio", floor, worst, tol),)
    return _report(
        "lp-poincare", checks, n=n, p=p, cheeger=c, c_p=floor, min_ratio=worst, trials=trials, seed=seed, tolerance=tol
    )


THEOREMS = {
    "cheeger-sandwich": (verify_cheeger_sandwich, True, ("cap", "tol")),
    "measured-sandwich": (verify_measured_sandwich, False, ("cap", "tol")),
    "gap-controls": (verify_gap_controls, False, ("tol",)),
    "distance-bound": (distance_gap_bound, True, ("set_a", "set_b", "tol")),
    "poincare-to-cheeger": (verify_poincare_to_cheeger, False, ("cap", "tol")),
    "coarea": (verify_coarea, True, ("trials", "seed")),
    "lp-poincare": (verify_lp_poincare, True, ("p", "trials", "seed", "cap", "tol")),
    "auxiliary-walk": (verify_auxiliary_walk, False, ("cap",)),
}
