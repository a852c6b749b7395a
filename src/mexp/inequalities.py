"""One verifier per named expansion inequality.

Each verifier recomputes its inputs from scratch, evaluates both sides, and
reports a verdict.  Tolerance policy: every bound lhs <= rhs is decided in
floats as lhs <= rhs + tol, an exact rational side (a Cheeger value or a
bound built from it) being converted to float first.  The slack only ever
helps a check pass: it excuses float noise, and with it any true violation
smaller than tol.  Two verifiers decide exactly: coarea compares its
level-set identity in integers over one common denominator, and the
auxiliary-walk verifier compares rationals only.  Both trial verifiers need
at least one trial.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cheeger import DEFAULT_CAP, cheeger_conductance, cheeger_vertex
from .graphs import GraphStats, MeasuredGraph, VertexSubset, bfs_distances, stats
from .poincare import _energies, _walk_arrays, cp_formula
from .rationals import InputError, format_rational
from .spectral import coarea_check, delta_gap, measured_gap
from .walks import ReversibleWalk, auxiliary_walk

DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class BoundCheck:
    """One inequality lhs <= rhs, evaluated with favorable-only slack."""

    label: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


@dataclass(frozen=True)
class InequalityReport:
    name: str
    checks: tuple[BoundCheck, ...]
    holds: bool
    inputs: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "checks": [
                {
                    "label": c.label,
                    "lhs": repr(c.lhs),
                    "rhs": repr(c.rhs),
                    "slack": repr(c.slack),
                    "holds": c.holds,
                }
                for c in self.checks
            ],
            "inputs": self.inputs,
        }


def _check(label: str, lhs: float, rhs: float, tol: float) -> BoundCheck:
    return BoundCheck(label=label, lhs=lhs, rhs=rhs, slack=rhs - lhs, holds=lhs <= rhs + tol)


def _report(name: str, checks: Sequence[BoundCheck], inputs: dict) -> InequalityReport:
    return InequalityReport(
        name=name,
        checks=tuple(checks),
        holds=all(c.holds for c in checks),
        inputs=inputs,
    )


def _ratio_data(graph: MeasuredGraph) -> tuple[Fraction, int]:
    """The measure-ratio bound s and the valency bound K of a graph."""
    st = stats(graph)
    if st.ratio_bound is None:
        raise InputError("measure-ratio bound undefined: measure lacks full support")
    return st.ratio_bound, st.max_valency


def verify_cheeger_sandwich(
    walk: ReversibleWalk, cap: int = DEFAULT_CAP, tol: float = DEFAULT_TOLERANCE
) -> InequalityReport:
    """c^2/2 <= gap <= 2c for the conductance Cheeger constant in mu itself."""
    cert = cheeger_conductance(walk, constraint=walk.mu, cap=cap)
    c = cert.value
    gap = delta_gap(walk)
    checks = (
        _check("c^2/2 <= gap", float(c * c / 2), gap, tol),
        _check("gap <= 2c", gap, float(2 * c), tol),
    )
    return _report(
        "cheeger-sandwich",
        checks,
        {
            "n": walk.graph.n,
            "cheeger": format_rational(c),
            "witness": [walk.graph.labels[v] for v in cert.witness.indices()],
            "gap": repr(gap),
            "tolerance": tol,
        },
    )


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
        _check("c^2 s^3 (1+s) / (2 K^3) <= gap", float(lower), gap, tol),
        _check("gap <= 2 (1+s) K c / s", gap, float(upper), tol),
    )
    return _report(
        "measured-sandwich",
        checks,
        {
            "n": graph.n,
            "cheeger": format_rational(c),
            "s": format_rational(s),
            "K": big_k,
            "gap": repr(gap),
            "tolerance": tol,
        },
    )


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
    return _report(
        "gap-controls",
        checks,
        {
            "n": graph.n,
            "s": format_rational(s),
            "K": big_k,
            "gap": repr(gap),
            "aux_gap": repr(aux_gap),
            "tolerance": tol,
        },
    )


def distance_gap_bound(
    walk: ReversibleWalk,
    set_a: VertexSubset,
    set_b: VertexSubset,
    tol: float = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """gap * d(A,B)^2 <= (1/mu(A) + 1/mu(B)) * (a(E) - a(E_A) - a(E_B))."""
    graph = walk.graph
    if set_a.mask == 0 or set_b.mask == 0:
        raise InputError("both subsets must be nonempty")
    if set_a.mask & set_b.mask:
        raise InputError("subsets must be disjoint")
    if not graph.connected:
        raise InputError("distance bound needs a connected graph")
    dist = bfs_distances(graph, set_a.indices())
    rho = min(dist[v] for v in set_b.indices())
    mu_a = sum((walk.mu[v] for v in set_a.indices()), Fraction(0))
    mu_b = sum((walk.mu[v] for v in set_b.indices()), Fraction(0))
    between = sum(
        (a for (u, v), a in walk.a.items() if not (u in set_a and v in set_a or u in set_b and v in set_b)),
        Fraction(0),
    )
    rhs = (1 / mu_a + 1 / mu_b) * between
    gap = delta_gap(walk)
    lhs = gap * rho * rho
    checks = (_check("gap * d(A,B)^2 <= (1/mu(A)+1/mu(B)) a(E - E_A - E_B)", lhs, float(rhs), tol),)
    return _report(
        "distance-bound",
        checks,
        {
            "n": graph.n,
            "set_a": [graph.labels[v] for v in set_a.indices()],
            "set_b": [graph.labels[v] for v in set_b.indices()],
            "distance": int(rho),
            "gap": repr(gap),
            "rhs": format_rational(rhs),
            "tolerance": tol,
        },
    )


def verify_poincare_to_cheeger(
    graph: MeasuredGraph, cap: int = DEFAULT_CAP, tol: float = DEFAULT_TOLERANCE
) -> InequalityReport:
    """cheeger >= s * gap / (2 (1+s) K) for a full-support measured graph."""
    s, big_k = _ratio_data(graph)
    c = cheeger_vertex(graph, cap=cap).value
    gap = measured_gap(graph)
    floor = float(s / (2 * (1 + s) * big_k)) * gap
    checks = (_check("s gap / (2(1+s)K) <= cheeger", floor, float(c), tol),)
    return _report(
        "poincare-to-cheeger",
        checks,
        {
            "n": graph.n,
            "cheeger": format_rational(c),
            "s": format_rational(s),
            "K": big_k,
            "gap": repr(gap),
            "tolerance": tol,
        },
    )


@dataclass(frozen=True)
class AuxiliaryWalkReport:
    """Exact verification of the defining and derived properties of the
    auxiliary walk on a bounded-ratio measured graph.

    conductance_matches   a(u,v) = m(u) + m(v) on every edge
    support_matches       r(u,v) > 0 exactly on edges
    measure_sandwich      s/(K(1+s)) mu(u) <= m(u) <= mu(u)/(1+s) for all u
    cheeger_bound_holds   conductance Cheeger constant >= c s / K
    """

    conductance_matches: bool
    support_matches: bool
    measure_sandwich: bool
    cheeger_bound_holds: bool
    conductance_cheeger: Fraction
    cheeger_floor: Fraction
    vertex_cheeger: Fraction
    graph_stats: GraphStats

    @property
    def all_hold(self) -> bool:
        return (
            self.conductance_matches
            and self.support_matches
            and self.measure_sandwich
            and self.cheeger_bound_holds
        )


def verify_auxiliary_walk(graph: MeasuredGraph, cap: int = DEFAULT_CAP) -> AuxiliaryWalkReport:
    """Check the four auxiliary-walk conditions in exact rational arithmetic."""
    walk = auxiliary_walk(graph)  # refuses a measure without full support, so s is defined
    st = stats(graph)
    s, big_k = st.ratio_bound, st.max_valency

    conductance_matches = all(
        walk.a[(u, v)] == graph.measure[u] + graph.measure[v] for u, v in graph.edges
    )
    support_matches = set(walk.a) == set(graph.edges) and all(v > 0 for v in walk.a.values())
    lo = s / (big_k * (1 + s))
    hi = Fraction(1, 1) / (1 + s)
    measure_sandwich = all(
        lo * walk.mu[u] <= graph.measure[u] <= hi * walk.mu[u] for u in range(graph.n)
    )
    vertex_cert = cheeger_vertex(graph, cap=cap)
    cond_cert = cheeger_conductance(walk, graph.measure, cap=cap)
    floor = vertex_cert.value * s / big_k
    return AuxiliaryWalkReport(
        conductance_matches=conductance_matches,
        support_matches=support_matches,
        measure_sandwich=measure_sandwich,
        cheeger_bound_holds=cond_cert.value >= floor,
        conductance_cheeger=cond_cert.value,
        cheeger_floor=floor,
        vertex_cheeger=vertex_cert.value,
        graph_stats=st,
    )


def _check_trials(trials: int):
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")


def verify_coarea(walk: ReversibleWalk, trials: int = 100, seed: int = 0) -> InequalityReport:
    """Exact level-set identity on seeded random nonnegative rational functions."""
    _check_trials(trials)
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        f = [Fraction(rng.randrange(0, 16), rng.randrange(1, 8)) for _ in range(walk.graph.n)]
        if not coarea_check(walk, f).equal:
            mismatches += 1
    checks = (_check("level-set identity mismatches == 0", float(mismatches), 0.0, 0.0),)
    return _report(
        "coarea",
        checks,
        {"n": walk.graph.n, "trials": trials, "seed": seed, "mismatches": mismatches},
    )


def verify_lp_poincare(
    walk: ReversibleWalk,
    p: float,
    trials: int = 200,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
    tol: float = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """Every random test function satisfies energy ratio >= c_p(cheeger, p)."""
    _check_trials(trials)
    c = cheeger_conductance(walk, constraint=walk.mu, cap=cap).value
    floor = cp_formula(float(c), p)
    rng = random.Random(seed)
    n = walk.graph.n
    draws = ([rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(trials))
    rows = np.array([f for f in draws if max(f) != min(f)]).reshape(-1, n)
    edge, pair = _energies(*_walk_arrays(walk), rows, p)
    worst = float((edge / pair).min(initial=math.inf))
    checks = (_check("c_p <= min energy ratio", floor, worst, tol),)
    return _report(
        "lp-poincare",
        checks,
        {
            "n": n,
            "p": p,
            "cheeger": format_rational(c),
            "c_p": repr(floor),
            "min_ratio": repr(worst),
            "trials": trials,
            "seed": seed,
            "tolerance": tol,
        },
    )
