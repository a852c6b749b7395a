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
from .graphs import MeasuredGraph, VertexSubset, diameter, stats
from .poincare import kappa_constant
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


def generate(kind: str, measure: str = "counting", seed: int = 0, **params) -> MeasuredGraph:
    """Named test-instance factory; deterministic given the seed.

    kind: cycle(n) | complete(n) | hypercube(d) | random_regular(n, k)
    measure: counting | rationals (seeded positive rationals)
    """
    def need(name: str) -> int:
        value = params.get(name)
        if value is None:
            raise InputError(f"generator {kind!r} needs parameter {name}")
        return int(value)

    rng = random.Random(seed)
    if kind == "cycle":
        graph = make_cycle(need("n"))
    elif kind == "complete":
        graph = make_complete(need("n"))
    elif kind == "hypercube":
        graph = make_hypercube(need("d"))
    elif kind == "random_regular":
        graph = random_regular(need("n"), need("k"), rng)
    else:
        raise InputError(f"unknown generator kind {kind!r}")
    if measure == "counting":
        return graph
    if measure == "rationals":
        return graph.with_measure(random_positive_measure(graph.n, rng))
    raise InputError(f"unknown measure kind {measure!r}")


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
    if bad_set.mask & ~graph.support_mask:
        raise InputError("bad set must lie inside the support")
    mass = sum((graph.measure[v] for v in bad_set.indices()), Fraction(0))
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

    expander_verdict is None (partial) when some member exceeded the
    enumeration cap; the ghostly verdict only reports whether the peak-mass
    sequence is trending the right way, never the limit itself.
    """
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise InputError("expansion threshold must be positive")

    def row(item) -> FamilyRow:
        index, graph = item
        st = stats(graph)
        cheeger = None
        gap = None
        error = None
        try:
            cheeger = cheeger_vertex(graph, cap=cap).value
        except (ExactModeInfeasible, NoFeasibleSubset) as exc:
            error = str(exc)
        if st.full_support and st.connected:
            gap = measured_gap(graph)
        return FamilyRow(
            index=index,
            size=graph.n,
            cheeger=cheeger,
            gap=gap,
            max_valency=st.max_valency,
            ratio_bound=st.ratio_bound,
            peak_fraction=st.peak_fraction,
            error=error,
        )

    rows = tuple(row(item) for item in enumerate(family.members))

    gammas = [r.peak_fraction for r in rows]
    partial = any(r.error is not None for r in rows)
    known = [r.cheeger for r in rows if r.cheeger is not None]
    if partial:
        verdict = None if all(c >= threshold for c in known) else False
    else:
        verdict = all(c >= threshold for c in known)
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

    @classmethod
    def identity(cls, up_to: int) -> "RhoTable":
        return cls(tuple(float(d) for d in range(up_to + 1)))


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

    Members must be connected with full support; measures are rescaled to
    probability internally.  Per member with peak mass gamma < 1/8 the cutoff
    is log_K(1/(8 gamma)) (K the family valency bound) and the pair measure
    m(x)m(y) is restricted to pairs farther apart than the cutoff and
    renormalized; members with gamma >= 1/8 are skipped and reported.
    Supplied test maps are vectors of coordinates per vertex, n rows of one
    nonzero length; each map is accepted only if it obeys the modulus
    pairwise, and accepted maps are checked against the uniform energy bound
    8 kappa.  A row with no accepted map (skipped members included) is
    untested, and so is the certificate when every row is.

    Exact and float parts: the pair measure (Fractions), the off-diagonal
    mass (a Fraction) and the symmetric, probability and off-cutoff flags
    come from integer pair weights m(x)m(y) scaled by the common denominator,
    with the cutoff decided exactly per distance; the cutoff value, the
    modulus checks and the energies are float.

    The family Cheeger floor entering kappa uses exact enumeration up to the
    cap and the spectral-gap lower bound s*gap/(2(1+s)K) beyond it; any lower
    bound on the true Cheeger floor yields a larger, still valid kappa.
    """
    if not p >= 1:  # NaN fails too
        raise InputError("p must be at least 1")
    members = []
    for i, graph in enumerate(family.members):
        if not graph.connected:
            raise InputError(f"member {i} is not connected")
        if any(m == 0 for m in graph.measure):
            raise InputError(f"member {i} lacks full support")
        total = graph.total_measure
        members.append(graph if total == 1 else graph.with_measure([m / total for m in graph.measure]))

    member_stats = [stats(g) for g in members]
    big_k = max(st.max_valency for st in member_stats)
    s_floor = min(st.ratio_bound for st in member_stats)
    cheegers: list[float] = []
    sources: list[str] = []
    for graph, st in zip(members, member_stats):
        if graph.n <= cap:
            cheegers.append(float(cheeger_vertex(graph, cap=cap).value))
            sources.append("exact")
        else:
            s = st.ratio_bound
            cheegers.append(float(s / (2 * (1 + s) * st.max_valency)) * measured_gap(graph))
            sources.append("spectral-bound")
    c_floor = min(cheegers)

    diameters = [diameter(g) for g in members]
    if rho_plus is None:
        rho_plus = RhoTable.identity(max(max(diameters), 1))
    kappa = kappa_constant(big_k, float(s_floor), c_floor, p, float(rho_plus(1)))

    rng = random.Random(seed)
    rows = []
    for index, graph in enumerate(members):
        gamma = max(graph.measure)
        if 8 * gamma >= 1:
            skipped = f"peak mass {gamma} >= 1/8: cutoff would be nonpositive"
            rows.append(CertificateRow(index, graph.n, gamma, skipped=skipped))
            continue
        n = graph.n
        dist = np.array(graph.distances, dtype=np.intp)
        by_distance = range(diameters[index] + 1)
        # d > cutoff  <=>  8 gamma K^d > 1, decided exactly once per distance
        beyond = np.array([8 * gamma * big_k ** d > 1 for d in by_distance])[dist]
        rho = np.array([float(rho_plus(d)) for d in by_distance])[dist]

        scaled, scale = scaled_integers(graph.measure)
        weights = np.array(scaled, dtype=object)
        far = np.where(beyond, np.outer(weights, weights), 0)
        far_sum = int(far.sum())
        xs, ys = np.nonzero(far)
        far_weights = far[xs, ys].tolist()
        nu = dict(zip(zip(xs.tolist(), ys.tolist()), (Fraction(w, far_sum) for w in far_weights)))
        nu_float = np.array([w / far_sum for w in far_weights])  # correctly rounded, as float(Fraction)

        supplied = test_maps[index] if test_maps is not None and index < len(test_maps) else ()
        maps = [(f"supplied-{j}", _supplied_map(fmap, n)) for j, fmap in enumerate(supplied)]
        results = []
        for name, values in maps + _default_test_maps(graph, rho, p, rng):
            powers = sum(np.abs(col[:, None] - col[None, :]) ** p for col in values.T)
            violations = np.flatnonzero(np.triu(powers ** (1.0 / p) > rho + 1e-9, 1))
            if violations.size:
                results.append(TestMapResult(name, False, None, divmod(int(violations[0]), n)))
            else:
                results.append(TestMapResult(name, True, float(powers[xs, ys] @ nu_float), None))
        rows.append(
            CertificateRow(
                index,
                n,
                gamma,
                cutoff=math.log(1.0 / (8.0 * float(gamma))) / math.log(big_k),
                pair_measure=nu,
                off_diagonal_mass=Fraction(far_sum, scale * scale),
                symmetric=bool((far == far.T).all()),
                probability=far_sum > 0,  # nu = far / far_sum then sums to exactly 1
                supported_off_cutoff=bool(beyond[xs, ys].all()),
                max_tested_energy=max((t.energy for t in results if t.accepted), default=None),
                test_maps=tuple(results),
                untested=not any(t.accepted for t in results),
            )
        )
    return GeneralisedCertificate(tuple(rows), float(p), kappa, big_k, s_floor, c_floor, tuple(sources), 8.0 * kappa,
                                  all(r.untested for r in rows))


def _supplied_map(fmap, n: int) -> np.ndarray:
    values = [[float(x) for x in row] for row in fmap]
    if len(values) != n or not values[0] or any(len(row) != len(values[0]) for row in values):
        raise InputError(f"a test map needs {n} rows of one nonzero length")
    return np.array(values)


def _default_test_maps(graph, rho, p, rng):
    """Distance coordinates from two seeded roots plus two greedily extended
    random maps staying inside the modulus envelope; rho is the (n, n) table
    of the modulus at each pair's distance."""
    maps = []
    n = graph.n
    for _ in range(2):
        root = rng.randrange(n)
        maps.append((f"distance-from-{graph.labels[root]}", rho[root][:, None]))
    for dims in (1, 2):
        scale = dims ** (-1.0 / p)
        coords = np.zeros((n, dims))
        order = list(range(n))
        rng.shuffle(order)
        for d in range(dims):
            # order[0] stays at 0; each later vertex lands inside the band the
            # already placed ones allow, or at its midpoint if it is empty
            for t in range(1, n):
                x, placed = order[t], order[:t]
                lo = (coords[placed, d] - scale * rho[x, placed]).max()
                hi = (coords[placed, d] + scale * rho[x, placed]).min()
                coords[x, d] = (lo + hi) / 2.0 if lo > hi else lo + rng.random() * (hi - lo)
        maps.append((f"greedy-{dims - 1}", coords))
    return maps
