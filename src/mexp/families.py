"""Graph and measure families: generators, sequence-level verdicts, and the
generalised-expander certificate.

Finite families cannot certify limit statements, so the verdicts here are
worded as "consistent with" or "inconsistent with" the limiting property;
per-member invariants are exact and reproducible from the member graph alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .cheeger import (
    DEFAULT_CAP,
    ExactModeInfeasible,
    NoFeasibleSubset,
    cheeger_vertex,
)
from .graphs import MeasuredGraph, VertexSubset, diameter, stats
from .poincare import kappa_constant
from .rationals import InputError
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


def make_star(leaves: int, measure=None) -> MeasuredGraph:
    """Star with center 0 and the given number of leaves."""
    if leaves < 1:
        raise InputError("a star needs at least one leaf")
    n = leaves + 1
    edges = [(0, v) for v in range(1, n)]
    return MeasuredGraph.build(n, edges, measure or counting_measure(n))


def make_hypercube(dim: int, measure=None) -> MeasuredGraph:
    if dim < 1:
        raise InputError("hypercube dimension must be at least 1")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return MeasuredGraph.build(n, edges, measure or counting_measure(n))


def random_regular(n: int, k: int, rng: random.Random, measure=None) -> MeasuredGraph:
    """Random k-regular graph by the configuration model.

    Pairings with loops or repeated edges are rejected and redrawn, as are
    disconnected outcomes; 500 rejected pairings raise.
    """
    if n * k % 2 != 0 or not 0 < k < n:
        raise InputError(f"no {k}-regular graph on {n} vertices")
    for _ in range(500):
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        graph = MeasuredGraph.build(n, sorted(edges), measure or counting_measure(n))
        if graph.connected:
            return graph
    raise RuntimeError(f"configuration model rejected 500 pairings for n={n}, k={k}")


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
    support = [v for v in range(graph.n) if graph.measure[v] > 0]
    holes = [v for v in range(graph.n) if graph.measure[v] == 0]
    if not holes:
        raise InputError("measure already has full support; nothing to perturb")
    support_mask = graph.support_mask
    if bad_set.mask & ~support_mask:
        raise InputError("bad set must lie inside the support")
    mass = sum((graph.measure[v] for v in bad_set.indices()), Fraction(0))
    if not 0 < mass <= Fraction(1, 2):
        raise InputError(f"bad set needs 0 < mu(A) <= 1/2, got {mass}")
    shift = mass / n
    fill = shift / len(holes)
    out = []
    for v in range(graph.n):
        if graph.measure[v] > 0:
            out.append((1 - shift) * graph.measure[v])
        else:
            out.append(fill)
    return tuple(out)


# -- family reports ------------------------------------------------------------


@dataclass(frozen=True)
class GraphFamily:
    members: tuple[MeasuredGraph, ...]
    provenance: dict = field(default_factory=dict)

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
    skipped: str | None
    cutoff: float | None
    pair_measure: dict | None
    off_diagonal_mass: Fraction | None
    symmetric: bool | None
    probability: bool | None
    supported_off_cutoff: bool | None
    kappa: float
    max_tested_energy: float | None
    test_maps: tuple[TestMapResult, ...]


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


def generalised_certificate(
    family: GraphFamily,
    p: float,
    rho_plus: RhoTable | Callable | None = None,
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
    Supplied test maps are vectors of coordinates per vertex; each map is
    accepted only if it obeys the modulus pairwise, and accepted maps are
    checked against the uniform energy bound 8 kappa.

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
            gap = measured_gap(graph)
            s = st.ratio_bound
            cheegers.append(float(s / (2 * (1 + s) * st.max_valency)) * gap)
            sources.append("spectral-bound")
    c_floor = min(cheegers)

    diameters = [diameter(g) for g in members]
    if rho_plus is None:
        rho_plus = RhoTable.identity(max(max(diameters), 1))
    rho1 = float(rho_plus(1))
    kappa = kappa_constant(big_k, float(s_floor), c_floor, p, rho1)
    bound = 8.0 * kappa

    rng = random.Random(seed)
    rows = []
    for index, graph in enumerate(members):
        gamma = max(graph.measure)
        if 8 * gamma >= 1:
            rows.append(
                CertificateRow(
                    index=index,
                    size=graph.n,
                    gamma=gamma,
                    skipped=f"peak mass {gamma} >= 1/8: cutoff would be nonpositive",
                    cutoff=None,
                    pair_measure=None,
                    off_diagonal_mass=None,
                    symmetric=None,
                    probability=None,
                    supported_off_cutoff=None,
                    kappa=kappa,
                    max_tested_energy=None,
                    test_maps=(),
                )
            )
            continue
        cutoff = math.log(1.0 / (8.0 * float(gamma))) / math.log(big_k)
        dist = graph.distances
        # d > cutoff  <=>  8 gamma K^d > 1, decided exactly once per distance
        beyond = [8 * gamma * big_k ** d > 1 for d in range(diameters[index] + 1)]

        near_mass = Fraction(0)
        for x in range(graph.n):
            for y in range(graph.n):
                if not beyond[dist[x][y]]:
                    near_mass += graph.measure[x] * graph.measure[y]
        off_mass = 1 - near_mass
        nu: dict[tuple[int, int], Fraction] = {}
        for x in range(graph.n):
            for y in range(graph.n):
                if beyond[dist[x][y]]:
                    nu[(x, y)] = graph.measure[x] * graph.measure[y] / off_mass
        symmetric = all(nu.get((y, x)) == v for (x, y), v in nu.items())
        probability = sum(nu.values(), Fraction(0)) == 1
        supported = all(beyond[dist[x][y]] for (x, y) in nu)

        maps = []
        if test_maps is not None and index < len(test_maps):
            for j, fmap in enumerate(test_maps[index]):
                maps.append((f"supplied-{j}", [[float(x) for x in row] for row in fmap]))
        maps.extend(_default_test_maps(graph, dist, rho_plus, p, rng))
        results = []
        max_energy = None
        for name, values in maps:
            violation = _modulus_violation(values, dist, rho_plus, p)
            if violation is not None:
                results.append(TestMapResult(name=name, accepted=False, energy=None, violating_pair=violation))
                continue
            energy = 0.0
            for (x, y), w in nu.items():
                energy += _lp_distance(values[x], values[y], p) ** p * float(w)
            max_energy = energy if max_energy is None else max(max_energy, energy)
            results.append(TestMapResult(name=name, accepted=True, energy=energy, violating_pair=None))
        rows.append(
            CertificateRow(
                index=index,
                size=graph.n,
                gamma=gamma,
                skipped=None,
                cutoff=cutoff,
                pair_measure=nu,
                off_diagonal_mass=off_mass,
                symmetric=symmetric,
                probability=probability,
                supported_off_cutoff=supported,
                kappa=kappa,
                max_tested_energy=max_energy,
                test_maps=tuple(results),
            )
        )
    return GeneralisedCertificate(
        rows=tuple(rows),
        p=float(p),
        kappa=kappa,
        max_valency=big_k,
        ratio_floor=s_floor,
        cheeger_floor=c_floor,
        cheeger_sources=tuple(sources),
        energy_bound=bound,
    )


def _lp_distance(x: Sequence[float], y: Sequence[float], p: float) -> float:
    return sum(abs(a - b) ** p for a, b in zip(x, y)) ** (1.0 / p)


def _modulus_violation(values, dist, rho_plus, p: float):
    n = len(values)
    for x in range(n):
        for y in range(x + 1, n):
            if _lp_distance(values[x], values[y], p) > rho_plus(dist[x][y]) + 1e-9:
                return (x, y)
    return None


def _default_test_maps(graph, dist, rho_plus, p, rng):
    """Distance coordinates from two seeded roots plus two greedily extended
    random maps staying inside the modulus envelope."""
    maps = []
    n = graph.n
    for i in range(2):
        root = rng.randrange(n)
        maps.append((f"distance-from-{graph.labels[root]}", [[rho_plus(dist[root][v])] for v in range(n)]))
    for i in range(2):
        dims = 1 + (i % 2)
        scale = dims ** (-1.0 / p)
        coords = [[0.0] * dims for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        for d in range(dims):
            assigned: list[int] = []
            for x in order:
                if not assigned:
                    coords[x][d] = 0.0
                else:
                    lo = max(coords[y][d] - scale * rho_plus(dist[x][y]) for y in assigned)
                    hi = min(coords[y][d] + scale * rho_plus(dist[x][y]) for y in assigned)
                    coords[x][d] = (lo + hi) / 2.0 if lo > hi else lo + rng.random() * (hi - lo)
                assigned.append(x)
        maps.append((f"greedy-{i}", coords))
    return maps
