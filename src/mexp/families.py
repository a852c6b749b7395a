"""Graph and measure families: generators, sequence-level verdicts, and the
generalised-expander certificate.

Finite families cannot certify limit statements, so the verdicts here are
worded as "consistent with" or "inconsistent with" the limiting property;
per-member invariants are exact and reproducible from the member graph alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cheeger import (
    DEFAULT_CAP,
    ExactModeInfeasible,
    NoFeasibleSubset,
    cheeger_vertex,
)
from .graphs import MeasuredGraph, VertexSubset, measure_of
from .inequalities import poincare_cheeger_floor
from .poincare import _check_exponent, kappa_constant
from .rationals import InputError, scaled_integers
from .spectral import measured_gap


# -- measures ----------------------------------------------------------------


def counting_measure(n: int) -> list[Fraction]:
    return [Fraction(1)] * n


def probability_counting_measure(n: int) -> list[Fraction]:
    return [Fraction(1, n)] * n


def random_positive_measure(n: int, rng: random.Random):
    """Full-support rational measure with numerators and denominators in 1..9."""
    return [_random_rational(rng) for _ in range(n)]


def random_conductance(graph: MeasuredGraph, rng: random.Random):
    """Random positive rational conductance on the edges of a graph, with
    numerators and denominators in 1..9."""
    return {e: _random_rational(rng) for e in graph.edges}


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, 10), rng.randrange(1, 10))


# -- generators ----------------------------------------------------------------


def make_cycle(n: int, measure=None) -> MeasuredGraph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    edges = [(v, (v + 1) % n) for v in range(n)]
    return MeasuredGraph.build(n, edges, measure or counting_measure(n))


def make_complete(n: int, measure=None) -> MeasuredGraph:
    if n < 1:
        raise InputError("a complete graph needs at least one vertex")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return MeasuredGraph.build(n, edges, measure or counting_measure(n))


def make_hypercube(dim: int, measure=None) -> MeasuredGraph:
    if dim < 1:
        raise InputError("hypercube dimension must be at least 1")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return MeasuredGraph.build(n, edges, measure or counting_measure(n))


def random_regular(n: int, k: int, rng: random.Random, measure=None) -> MeasuredGraph:
    """Random connected k-regular graph by the configuration model.

    Pairings with loops or repeated edges are rejected and redrawn, as are
    disconnected outcomes.  Once 500 pairings are rejected (dense degrees
    make simple pairings rare), a connected circulant k-regular graph
    (offsets 1..k/2, plus the diameter chords for odd k) is randomized by
    seeded double-edge swaps that keep it simple and connected.
    """
    if n * k % 2 != 0 or not 0 < k < n or (k == 1 and n > 2):
        raise InputError(f"no connected {k}-regular graph on {n} vertices")
    points = [v for v in range(n) for _ in range(k)]
    for _ in range(500):
        stubs = points.copy()
        rng.shuffle(stubs)
        edges = _simple_pairing(stubs)
        if edges is not None:
            graph = MeasuredGraph.build(n, sorted(edges), measure or counting_measure(n))
            if graph.connected:
                return graph
    offsets = [*range(1, k // 2 + 1)] + ([n // 2] if k % 2 else [])
    adj = [{(v + j) % n for j in offsets} | {(v - j) % n for j in offsets} for v in range(n)]
    edges = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    for _ in range(10 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if a == c or b == d or c in adj[a] or d in adj[b]:
            continue
        swap = ((a, b), (c, d), (a, c), (b, d))  # ab, cd out; ac, bd in
        _toggle(adj, swap)
        # every vertex still reaches one of a, b, c, d, so a ~ b keeps it connected
        if _reaches(adj, a, b):
            edges[i], edges[j] = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        else:
            _toggle(adj, swap)
    return MeasuredGraph.build(n, sorted(edges), measure or counting_measure(n))


def _simple_pairing(stubs: list[int]) -> set[tuple[int, int]] | None:
    """Edges of the pairing (stubs[0], stubs[1]), (stubs[2], stubs[3]), ...,
    or None at its first loop or repeated pair."""
    edges = set()
    for u, v in zip(stubs[::2], stubs[1::2]):
        edge = (u, v) if u < v else (v, u)
        if u == v or edge in edges:
            return None
        edges.add(edge)
    return edges


def _toggle(adj: list[set[int]], pairs) -> None:
    for u, v in pairs:
        adj[u] ^= {v}
        adj[v] ^= {u}


def _reaches(adj: list[set[int]], source: int, target: int) -> bool:
    seen, stack = {source}, [source]
    while stack:
        for w in adj[stack.pop()] - seen:
            if w == target:
                return True
            seen.add(w)
            stack.append(w)
    return False


def random_connected_graph(
    n: int, rng: random.Random, extra_edges: float = 0.3, measure=None
) -> MeasuredGraph:
    """Random connected graph: a random spanning tree plus Bernoulli extras."""
    if n < 1:
        raise InputError("need at least one vertex")
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(0, i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edges:
                edges.add((u, v))
    return MeasuredGraph.build(n, sorted(edges), measure or counting_measure(n))


# -- constructions -------------------------------------------------------------


def product_segment(graph: MeasuredGraph, levels: int) -> MeasuredGraph:
    """Product of a probability-measured graph with the path 0..levels.

    Vertices are (v, i); edges join (v,i)~(w,i) for v~w and (v,i)~(v,i+1);
    the measure of (v, i) is 2^-i m(v), so each level halves in mass.
    levels = 0 returns a copy of the base graph.
    """
    if graph.total_measure != 1:
        raise InputError("base measure must be a probability measure (total 1)")
    if levels < 0:
        raise InputError("levels must be nonnegative")
    n = graph.n
    edges = []
    measure = []
    labels = []
    for i in range(levels + 1):
        off = i * n
        for u, v in graph.edges:
            edges.append((off + u, off + v))
        if i > 0:
            for v in range(n):
                edges.append((off - n + v, off + v))
        weight = Fraction(1, 2 ** i)
        for v in range(n):
            measure.append(graph.measure[v] * weight)
            labels.append(f"{graph.labels[v]}|{i}")
    return MeasuredGraph.build((levels + 1) * n, edges, measure, labels=labels)


def full_support_perturbation(
    graph: MeasuredGraph, bad_set: VertexSubset, n: int
) -> tuple[Fraction, ...]:
    """Spread mass mu(A)/n uniformly over the measure's zero set.

    Input: a probability measure with proper support and a bad set A inside
    the support with 0 < mu(A) <= 1/2.  Output: the full-support probability
    measure that keeps (1 - mu(A)/n) of each supported point's mass.
    """
    if graph.total_measure != 1:
        raise InputError("measure must be a probability measure (total 1)")
    if n < 1:
        raise InputError("n must be a positive integer")
    holes = graph.measure.count(0)
    if not holes:
        raise InputError("measure already has full support; nothing to perturb")
    if any(graph.measure[v] == 0 for v in graph.members(bad_set)):
        raise InputError("bad set must lie inside the support")
    mass = measure_of(graph, bad_set)
    if not 0 < mass <= Fraction(1, 2):
        raise InputError(f"bad set needs 0 < mu(A) <= 1/2, got {mass}")
    shift = mass / n
    return tuple((1 - shift) * m if m > 0 else shift / holes for m in graph.measure)


# -- family reports ------------------------------------------------------------


@dataclass(frozen=True)
class GraphFamily:
    members: tuple[MeasuredGraph, ...]

    def __post_init__(self):
        if not self.members:
            raise InputError("a family needs at least one member")


@dataclass(frozen=True)
class FamilyRow:
    index: int
    size: int
    cheeger: Fraction | None
    gap: float | None
    max_valency: int
    ratio_bound: Fraction | None
    peak_fraction: Fraction
    error: str | None = None


@dataclass(frozen=True)
class FamilyReport:
    rows: tuple[FamilyRow, ...]
    threshold: Fraction
    uniform_valency: int
    ratio_floor: Fraction | None
    ghostly_verdict: str
    expander_verdict: bool | None
    partial: bool


def family_report(family: GraphFamily, threshold, cap: int = DEFAULT_CAP) -> FamilyReport:
    """Per-member invariants plus finite-family verdicts.

    expander_verdict is False when an exact member is below the threshold,
    else None when the family is partial (some member exceeded the
    enumeration cap or has no feasible subset), else True; the ghostly
    verdict only reports whether the peak-mass sequence is trending the
    right way, never the limit itself.
    """
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise InputError("expansion threshold must be positive")

    rows = tuple(_member_row(index, graph, cap) for index, graph in enumerate(family.members))

    gammas = [r.peak_fraction for r in rows]
    partial = any(r.error is not None for r in rows)
    below = any(r.cheeger is not None and r.cheeger < threshold for r in rows)
    verdict = False if below else None if partial else True
    ratios = [r.ratio_bound for r in rows]
    return FamilyReport(
        rows=rows,
        threshold=threshold,
        uniform_valency=max(r.max_valency for r in rows),
        ratio_floor=None if any(x is None for x in ratios) else min(ratios),
        ghostly_verdict=_ghostly_verdict(gammas),
        expander_verdict=verdict,
        partial=partial,
    )


def _member_row(index: int, graph: MeasuredGraph, cap: int) -> FamilyRow:
    """One member's invariants; where the engine refuses, its message stands in for the Cheeger value."""
    try:
        cheeger, error = cheeger_vertex(graph, cap=cap).value, None
    except (ExactModeInfeasible, NoFeasibleSubset) as exc:
        cheeger, error = None, str(exc)
    # a single vertex has no positive eigenvalue, and no feasible subset either
    gap = measured_gap(graph) if graph.full_support and graph.connected and graph.n > 1 else None
    return FamilyRow(index, graph.n, cheeger, gap, graph.max_valency, graph.ratio_bound, graph.peak_fraction, error)


def _ghostly_verdict(gammas: Sequence[Fraction]) -> str:
    """Finite-prefix trend test on the peak-mass fractions.

    Consistent means the tail (second half) is strictly decreasing and the
    last value is below the first; a constant or growing sequence is
    inconsistent.  A limit can of course not be certified either way.
    """
    if len(gammas) < 2:
        return "inconsistent with ghostly (too short to trend)"
    tail = gammas[len(gammas) // 2 :]
    if len(tail) < 2:
        tail = gammas[-2:]
    decreasing = all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    if decreasing and gammas[-1] < gammas[0]:
        return "consistent with ghostly"
    return "inconsistent with ghostly"


# -- generalised-expander certificate -------------------------------------------


@dataclass(frozen=True)
class RhoTable:
    """Nondecreasing modulus tabulated at integer distances 0, 1, 2, ...

    Distances past the end of the table take the final value.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise InputError("rho table needs at least one value")
        if not all(v >= 0 for v in self.values):  # NaN fails too
            raise InputError("rho table values must be nonnegative")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise InputError("rho table must be nondecreasing")

    def __call__(self, distance) -> float:
        idx = min(int(distance), len(self.values) - 1)
        return self.values[idx]


@dataclass(frozen=True)
class TestMapResult:
    name: str
    accepted: bool
    energy: float | None
    violating_pair: tuple[int, int] | None


@dataclass(frozen=True)
class CertificateRow:
    index: int
    size: int
    gamma: Fraction
    skipped: str | None = None
    cutoff: float | None = None
    pair_measure: dict | None = None
    off_diagonal_mass: Fraction | None = None
    symmetric: bool | None = None
    probability: bool | None = None
    supported_off_cutoff: bool | None = None
    max_tested_energy: float | None = None
    test_maps: tuple[TestMapResult, ...] = ()
    untested: bool = True


@dataclass(frozen=True)
class GeneralisedCertificate:
    rows: tuple[CertificateRow, ...]
    p: float
    kappa: float
    max_valency: int
    ratio_floor: Fraction
    cheeger_floor: float
    cheeger_sources: tuple[str, ...]
    energy_bound: float
    untested: bool


def generalised_certificate(
    family: GraphFamily,
    p: float,
    rho_plus: RhoTable | None = None,
    test_maps: Sequence[Sequence[Sequence[float]]] | None = None,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
) -> GeneralisedCertificate:
    """Symmetric far-off-diagonal pair measures witnessing uniform p-energy
    bounds for modulus-controlled maps.

    Members must be connected with full support; every reported quantity
    depends only on ratios of each member's measure.  Per member with peak
    mass fraction gamma < 1/8 the cutoff is log_K(1/(8 gamma)) (K the family
    valency bound) and the pair measure m(x)m(y) is restricted to pairs
    farther apart than the cutoff and renormalized; members with
    gamma >= 1/8 are skipped and reported.
    Each member's test maps are the supplied ones, n rows of coordinates of one
    nonzero length, then four seeded default maps scaled to touch the modulus
    (see _default_test_maps).  A map is accepted only if it obeys the modulus
    pairwise, and accepted maps are checked against the uniform energy bound
    8 kappa.  A row with no accepted map (skipped members included) is
    untested, and so is the certificate when every row is.

    Exact and float parts: the pair measure (Fractions) and the off-diagonal
    mass (a Fraction) come from integer pair weights m(x)m(y) scaled by the
    common denominator, with the cutoff decided exactly per distance; the
    symmetric, probability and off-cutoff flags are then read off the
    emitted pair measure itself, in Fractions; the cutoff value, the modulus
    checks and the energies are float.

    The family Cheeger floor entering kappa is exact where the enumeration
    engine answers and the spectral-gap lower bound s*gap/(2(1+s)K) where it
    refuses; any lower bound on the true floor yields a larger, valid kappa.
    """
    _check_exponent(p)
    members = family.members
    for i, graph in enumerate(members):
        if not graph.connected:
            raise InputError(f"member {i} is not connected")
        if not graph.full_support:
            raise InputError(f"member {i} lacks full support")
        if graph.n == 1:
            raise InputError(f"member {i} has a single vertex: no subset is feasible")

    member_rows = [_member_row(index, graph, cap) for index, graph in enumerate(members)]
    big_k = max(r.max_valency for r in member_rows)
    s_floor = min(r.ratio_bound for r in member_rows)
    c_floor = min(
        float(r.cheeger) if r.cheeger is not None else poincare_cheeger_floor(r.ratio_bound, r.max_valency, r.gap)
        for r in member_rows
    )
    sources = tuple("exact" if r.cheeger is not None else "spectral-bound" for r in member_rows)

    kappa = kappa_constant(big_k, float(s_floor), c_floor, p, 1.0 if rho_plus is None else float(rho_plus(1)))

    rng = random.Random(seed)
    rows = []
    for index, (graph, member) in enumerate(zip(members, member_rows)):
        gamma = member.peak_fraction
        if 8 * gamma >= 1:
            skipped = f"peak mass {gamma} >= 1/8: cutoff would be nonpositive"
            rows.append(CertificateRow(index, graph.n, gamma, skipped=skipped))
            continue
        n = graph.n
        dist = np.array(graph.distances, dtype=np.intp)
        by_distance = range(dist.max() + 1)
        # d > cutoff  <=>  8 gamma K^d > 1, decided exactly once per distance
        beyond = np.array([8 * gamma * big_k ** d > 1 for d in by_distance])[dist]
        rho = np.array([float(d if rho_plus is None else rho_plus(d)) for d in by_distance])[dist]  # default: identity

        scaled, _ = scaled_integers(graph.measure)
        far = _pair_weights(scaled, beyond)
        far_sum = int(far.sum())
        xs, ys = np.nonzero(far)
        far_weights = far[xs, ys].tolist()
        as_fraction = {w: Fraction(w, far_sum) for w in set(far_weights)}  # one per distinct weight
        nu = dict(zip(zip(xs.tolist(), ys.tolist()), map(as_fraction.__getitem__, far_weights)))
        nu_float = np.array([w / far_sum for w in far_weights])  # correctly rounded, as float(Fraction)

        supplied = test_maps[index] if test_maps is not None and index < len(test_maps) else ()
        maps = [(f"supplied-{j}", _supplied_map(fmap, n)) for j, fmap in enumerate(supplied)]
        results = []
        for name, values in maps + _default_test_maps(graph, rho, p, rng):
            powers, pair = _pair_test(values, rho, p)
            energy = None if pair else float(powers[xs, ys] @ nu_float)
            results.append(TestMapResult(name, pair is None, energy, pair))
        rows.append(
            CertificateRow(
                index,
                n,
                gamma,
                cutoff=math.log(1.0 / (8.0 * float(gamma))) / math.log(big_k),
                pair_measure=nu,
                off_diagonal_mass=Fraction(far_sum, sum(scaled) ** 2),
                symmetric=nu == {(y, x): w for (x, y), w in nu.items()},
                probability=_is_probability(nu.values()),
                supported_off_cutoff=all(map(beyond.item, nu)),
                max_tested_energy=max((t.energy for t in results if t.accepted), default=None),
                test_maps=tuple(results),
                untested=not any(t.accepted for t in results),
            )
        )
    return GeneralisedCertificate(tuple(rows), float(p), kappa, big_k, s_floor, c_floor, sources, 8.0 * kappa,
                                  all(r.untested for r in rows))


def _is_probability(values) -> bool:
    """Whether nonnegative Fractions sum to exactly 1, summed in integers."""
    scaled, scale = scaled_integers(values)
    return all(v >= 0 for v in scaled) and sum(scaled) == scale


def _pair_weights(scaled, beyond) -> np.ndarray:
    """Integer pair weights m(x) m(y) on the pairs beyond the cutoff, 0 elsewhere."""
    weights = np.array(scaled, dtype=object)
    return np.where(beyond, np.outer(weights, weights), 0)


def _supplied_map(fmap, n: int) -> np.ndarray:
    values = [[float(x) for x in row] for row in fmap]
    if len(values) != n or not values[0] or any(len(row) != len(values[0]) for row in values):
        raise InputError(f"a test map needs {n} rows of one nonzero length")
    return np.array(values)


def _pair_test(values, rho, p):
    """|f(x) - f(y)|_p^p per pair, and the first pair x < y (row-major) farther apart than rho + 1e-9, or None."""
    powers = sum(np.abs(col[:, None] - col[None, :]) ** p for col in values.T)
    violations = np.flatnonzero(np.triu(powers ** (1.0 / p) > rho + 1e-9, 1))
    return powers, divmod(int(violations[0]), len(values)) if violations.size else None


def _default_test_maps(graph, rho, p, rng):
    """Distance maps from two seeded roots, then cone maps with one and two
    coordinates, each x -> min over s in S of g(s) + rho(d(x, s)) / max rho
    (McShane's extension), S a seeded set of max(1, n // 4) vertices and g
    uniform in [0, 1), all read off rho, the (n, n) table of the modulus at each distance.
    Each map is scaled by c = min over pairs with f(x) != f(y) of rho / |f(x) - f(y)|_p, stepped
    down until it passes _pair_test, and stays as built where c is 0 (rho(1) = 0) or undefined."""
    n = graph.n
    maps = [(f"distance-from-{graph.labels[r]}", rho[r][:, None]) for r in (rng.randrange(n), rng.randrange(n))]
    for dims in (1, 2):  # cones of rho / max rho stay below 2 at any modulus; the scale c restores the size
        cones = [(rho[sites] / (rho.max() or 1.0) + np.array([rng.random() for _ in sites])[:, None]).min(axis=0)
                 for sites in (rng.sample(range(n), max(1, n // 4)) for _ in range(dims))]
        maps.append((f"cone-{dims - 1}", np.column_stack(cones)))
    scaled = []
    for name, values in maps:
        # each pair's norm at its own scale, top (sum (|d| / top)^p)^(1/p), so no p-th power overflows
        gaps = np.abs(values.T[:, :, None] - values.T[:, None, :])  # (coordinates, n, n)
        top = gaps.max(axis=0)
        norms = top * ((gaps / np.where(top > 0, top, 1.0)) ** p).sum(axis=0) ** (1.0 / p)
        with np.errstate(over="ignore"):  # a ratio past the float range is inf, so never the minimum
            c = (rho[norms > 0] / norms[norms > 0]).min(initial=np.inf)
        shrink = 2.0**-52  # c (1 - 2^-52) is at least one ulp below c; the 53rd doubling gives c = 0
        while 0 < c < np.inf and _pair_test(c * values, rho, p)[1]:
            c, shrink = c * (1 - shrink), 2 * shrink
        scaled.append((name, c * values if 0 < c < np.inf else values))
    return scaled
