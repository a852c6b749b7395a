"""Independent brute-force oracles.

Everything here recomputes quantities straight from their definitions with
sets, loops, and Fractions; no bitmask tricks, no shared code with the
implementations under test, and no numpy except in the per-trial Lp
Poincare loop and the fixed-budget optimizer at the end, a reference copy
of the batched gradient loop.  The seeded trial functions are re-derived
entry by entry from random.Random(seed).randbytes with struct and math.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np


def subsets(vertices):
    verts = list(vertices)
    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            yield frozenset(combo)


def boundary_set(graph, inside: frozenset) -> frozenset:
    out = set()
    for v in range(graph.n):
        if v in inside:
            continue
        if any(w in inside for w in graph.neighbors[v]):
            out.add(v)
    return frozenset(out)


def set_measure(graph, vs) -> Fraction:
    return sum((graph.measure[v] for v in vs), Fraction(0))


def brute_cheeger_vertex(graph):
    """(value, minimizing sets) by checking every subset."""
    total = graph.total_measure
    best = None
    witnesses = []
    for inside in subsets(range(graph.n)):
        mass = set_measure(graph, inside)
        if not (0 < mass <= total / 2):
            continue
        ratio = set_measure(graph, boundary_set(graph, inside)) / mass
        if best is None or ratio < best:
            best = ratio
            witnesses = [inside]
        elif ratio == best:
            witnesses.append(inside)
    return best, witnesses


def brute_cheeger_conductance(walk, constraint):
    return brute_conductance_minimizers(walk, constraint)[0]


def brute_conductance_minimizers(walk, constraint):
    """(value, minimizing sets) of a(cut A)/mu(A) over 0 < constraint(A) <= total/2."""
    graph = walk.graph
    total = sum(constraint, Fraction(0))
    best = None
    witnesses = []
    for inside in subsets(range(graph.n)):
        mass = sum((constraint[v] for v in inside), Fraction(0))
        if not (0 < mass <= total / 2):
            continue
        cut = Fraction(0)
        for (u, v), a in walk.a.items():
            if (u in inside) != (v in inside):
                cut += a
        mu_mass = sum((walk.mu[v] for v in inside), Fraction(0))
        ratio = cut / mu_mass
        if best is None or ratio < best:
            best = ratio
            witnesses = [inside]
        elif ratio == best:
            witnesses.append(inside)
    return best, witnesses


def brute_distances(graph):
    """All-pairs hop distances by Floyd-Warshall."""
    inf = math.inf
    dist = [[0 if i == j else inf for j in range(graph.n)] for i in range(graph.n)]
    for u in range(graph.n):
        for v in graph.neighbors[u]:
            dist[u][v] = 1
    for k in range(graph.n):
        for i in range(graph.n):
            for j in range(graph.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def brute_components(graph):
    """Component label of each vertex: the classes of finite Floyd-Warshall
    distance, numbered 0, 1, ... in order of their first vertex."""
    dist = brute_distances(graph)
    labels = [-1] * graph.n
    count = 0
    for v in range(graph.n):
        if labels[v] < 0:
            for u in range(graph.n):
                if dist[v][u] < math.inf:
                    labels[u] = count
            count += 1
    return labels


def brute_profile_value(graph, alpha: Fraction, radius: int):
    """Exact min of m(annulus_R A)/m(A) over alpha m(V) <= m(A) <= m(V)/2."""
    return brute_profile_minimizers(graph, alpha, radius)[0]


def brute_profile_minimizers(graph, alpha: Fraction, radius: int):
    """(value, minimizing sets) of the profile at (alpha, radius)."""
    dist = brute_distances(graph)
    total = graph.total_measure
    best = None
    witnesses = []
    for inside in subsets(range(graph.n)):
        mass = set_measure(graph, inside)
        if not (alpha * total <= mass <= total / 2) or mass == 0:
            continue
        annulus = {
            v
            for v in range(graph.n)
            if v not in inside and any(dist[v][u] <= radius for u in inside)
        }
        ratio = set_measure(graph, annulus) / mass
        if best is None or ratio < best:
            best = ratio
            witnesses = [inside]
        elif ratio == best:
            witnesses.append(inside)
    return best, witnesses


def smallest_mask(witnesses) -> int:
    """The least bitmask among a list of vertex sets."""
    return min(sum(1 << v for v in inside) for inside in witnesses)


def brute_heat_kernel(graph, x0: int, steps: int):
    """Dense rational matrix power applied to the point mass."""
    n = graph.n
    kernel = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        deg = len(graph.neighbors[u])
        for v in graph.neighbors[u]:
            kernel[u][v] = Fraction(1, deg)
    vec = [Fraction(0)] * n
    vec[x0] = Fraction(1)
    for _ in range(steps):
        vec = [sum((vec[u] * kernel[u][v] for u in range(n)), Fraction(0)) for v in range(n)]
    return tuple(vec)


def induced_subgraph(graph, vertices):
    """The graph on the given vertices with every edge among them and the
    measure restricted, built as a fresh MeasuredGraph."""
    from mexp import MeasuredGraph

    keep = sorted(vertices)
    new = {v: i for i, v in enumerate(keep)}
    edges = [(new[u], new[v]) for u in keep for v in graph.neighbors[u] if v in new and u < v]
    return MeasuredGraph.build(len(keep), edges, [graph.measure[v] for v in keep])


def rayleigh(op, f) -> float:
    """Quadratic-form ratio (f' L f) / (f' D f) of a pencil by explicit loops."""
    n = len(f)
    top = sum(float(f[u]) * op.stiffness[u][v] * float(f[v]) for u in range(n) for v in range(n))
    return top / sum(op.mass_diagonal[u] * float(f[u]) ** 2 for u in range(n))


def cycle_gap(n: int) -> float:
    """Spectral gap of the simple walk on an n-cycle: 1 - cos(2 pi / n)."""
    return 1.0 - math.cos(2.0 * math.pi / n)


def cycle_eigenvector(n: int, mode: int):
    """f(j) = cos(2 pi mode j / n), an eigenvector of the cycle walk Laplacian."""
    return [math.cos(2.0 * math.pi * mode * j / n) for j in range(n)]


def seeded_word_pairs(seed, count: int):
    """The first `count` pairs (w1, w2) of little-endian uint64 words of
    random.Random(seed).randbytes(16 * count), unpacked one pair at a time."""
    data = random.Random(seed).randbytes(16 * count)
    return [struct.unpack_from("<QQ", data, 16 * j) for j in range(count)]


def seeded_gaussian_rows(seed, rows: int, n: int):
    """rows lists of n Box-Muller normals, one entry per word pair: the 53-bit
    uniforms u = ((w >> 11) + 1) / 2^53 in (0, 1], z = sqrt(-2 ln u1) cos(2 pi u2)."""
    z = []
    for w1, w2 in seeded_word_pairs(seed, rows * n):
        u1, u2 = ((w1 >> 11) + 1) * 2.0**-53, ((w2 >> 11) + 1) * 2.0**-53
        z.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    return [z[i * n : (i + 1) * n] for i in range(rows)]


def seeded_coarea_rows(seed, rows: int, n: int):
    """rows lists of n Fractions f = (w1 mod 16) / (1 + w2 mod 7), one entry per word pair."""
    f = [Fraction(w1 % 16, 1 + w2 % 7) for w1, w2 in seeded_word_pairs(seed, rows * n)]
    return [f[i * n : (i + 1) * n] for i in range(rows)]


def coarea_sides(walk, f):
    """(direct, level_sum) of the level-set identity in Fractions: direct edge
    by edge over walk.a, level_sum one level set {f >= beta_i} at a time."""
    values = [Fraction(x) for x in f]
    direct = Fraction(0)
    for (u, v), a in walk.a.items():
        direct += abs(values[u] ** 2 - values[v] ** 2) * a
    betas = sorted(set(values))
    level_sum = Fraction(0)
    for i in range(1, len(betas)):
        cut = Fraction(0)
        for (u, v), a in walk.a.items():
            if (values[u] >= betas[i]) != (values[v] >= betas[i]):
                cut += a
        level_sum += cut * (betas[i] ** 2 - betas[i - 1] ** 2)
    return direct, level_sum


def brute_edge_energy(walk, f, p: float) -> float:
    """Ordered-pair edge energy by explicit loops over both orientations."""
    total = 0.0
    for (u, v), a in walk.a.items():
        total += abs(f[u] - f[v]) ** p * float(a)
        total += abs(f[v] - f[u]) ** p * float(a)
    return total


def brute_pair_energy(weights, total_weight, f, p: float) -> float:
    """Ordered-pair energy sum_{u,v} |f(u)-f(v)|^p w(u)w(v)/w(V)."""
    n = len(f)
    total = 0.0
    for u in range(n):
        for v in range(n):
            total += abs(f[u] - f[v]) ** p * float(weights[u]) * float(weights[v])
    return total / float(total_weight)


def _lp_distance(x, y, p: float) -> float:
    """Lp distance between two coordinate vectors."""
    return sum(abs(a - b) ** p for a, b in zip(x, y)) ** (1.0 / p)


def _modulus_violation(values, dist, rho_plus, p: float):
    """First pair x < y in row-major order whose Lp distance exceeds the
    modulus at their distance by more than 1e-9, or None."""
    n = len(values)
    for x in range(n):
        for y in range(x + 1, n):
            if _lp_distance(values[x], values[y], p) > rho_plus(dist[x][y]) + 1e-9:
                return (x, y)
    return None


def unscaled_default_maps(graph, rho_plus, rng):
    """The certificate's four default maps before scaling, value by value and
    in its draw order: distance maps from two roots, then cone maps with one
    and two coordinates, x -> min over s in S of g(s) + rho(d(x, s))."""
    n, dist = graph.n, brute_distances(graph)
    top = max(rho_plus(d) for row in dist for d in row)
    maps = [[[rho_plus(dist[root][x])] for x in range(n)] for root in (rng.randrange(n), rng.randrange(n))]
    for dims in (1, 2):
        coords = []
        for _ in range(dims):
            sites = rng.sample(range(n), max(1, n // 4))
            offsets = [top * rng.random() for _ in sites]
            coords.append([min(g + rho_plus(dist[x][s]) for s, g in zip(sites, offsets)) for x in range(n)])
        maps.append([list(row) for row in zip(*coords)])
    return maps


def brute_certificate_energy(values, nu, p: float) -> float:
    """sum over the pair measure of |f(x) - f(y)|_p^p nu(x, y), pair by pair."""
    return sum(_lp_distance(values[x], values[y], p) ** p * float(w) for (x, y), w in nu.items())


# -- fixed-budget Lp optimizer ---------------------------------------------------


def _lp_phi_prime(x, p: float, eps: float):
    if eps > 0.0:
        return p * x * (x * x + eps * eps) ** ((p - 2.0) / 2.0)
    if p == 2.0:
        return 2.0 * x
    return p * np.sign(x) * np.abs(x) ** (p - 1.0)


def lp_energies(arrays, F, p: float, eps: float):
    """Edge and pair energy of each row of F (smoothed when eps > 0)."""
    eu, ev, aw, pairw = arrays
    d = F[:, eu] - F[:, ev]
    diff = F[:, :, None] - F[:, None, :]
    if eps > 0.0:
        mag, mag2 = np.sqrt(d * d + eps * eps), np.sqrt(diff * diff + eps * eps)
    else:
        mag, mag2 = np.abs(d), np.abs(diff)
    return 2.0 * (aw * mag**p).sum(axis=1), (pairw * mag2**p).sum(axis=(1, 2))


def lp_walk_arrays(walk):
    """Edge ends, conductances and mu(u)mu(v)/mu(V) of a walk as arrays."""
    edges = walk.graph.edges
    mu = np.array([float(m) for m in walk.mu])
    return (
        np.array([u for u, _ in edges], dtype=np.intp),
        np.array([v for _, v in edges], dtype=np.intp),
        np.array([float(walk.a[e]) for e in edges]),
        np.outer(mu, mu) / float(walk.total_mu),
    )


def lp_ratio_gradient(arrays, F, p: float, eps: float, edge, pair):
    """Gradient of edge/pair energy for each row of F; the edge part is
    scattered edge by edge with np.add.at."""
    eu, ev, aw, pairw = arrays
    t = 2.0 * aw * _lp_phi_prime(F[:, eu] - F[:, ev], p, eps)
    grad_edge = np.zeros_like(F)
    np.add.at(grad_edge, (slice(None), eu), t)
    np.subtract.at(grad_edge, (slice(None), ev), t)
    diff = F[:, :, None] - F[:, None, :]
    grad_pair = 2.0 * np.einsum("ruv,uv->ru", _lp_phi_prime(diff, p, eps), pairw)
    return (grad_edge * pair[:, None] - edge[:, None] * grad_pair) / (pair * pair)[:, None]


def _lp_project(F):
    out = F - F.mean(axis=1, keepdims=True)
    norms = np.sqrt((out * out).sum(axis=1, keepdims=True))
    fallback = np.zeros_like(out)
    fallback[:, 0] = 1.0
    fallback = fallback - fallback.mean(axis=1, keepdims=True)
    fallback /= np.sqrt((fallback * fallback).sum(axis=1, keepdims=True))
    bad = norms < 1e-12
    return np.where(bad, fallback, out / np.where(bad, 1.0, norms))


def fixed_budget_lp_constant(walk, p: float, restarts: int = 64, seed: int = 0, iters: int = 800):
    """(estimate, minimizer) after exactly `iters` steps of multi-start
    projected gradient descent, with no early stop: the same starts, steps,
    smoothing (eps = 1e-9 for p < 2) and acceptance as mexp's optimizer."""
    n = walk.graph.n
    arrays = lp_walk_arrays(walk)
    eps = 1e-9 if p < 2 else 0.0
    F = _lp_project(np.array(seeded_gaussian_rows(seed, restarts, n)))
    edge, pair = lp_energies(arrays, F, p, eps)
    ratio = edge / pair
    eta = np.full(restarts, 0.1)
    for _ in range(iters):
        grad = lp_ratio_gradient(arrays, F, p, eps, edge, pair)
        tangent = grad - (grad * F).sum(axis=1, keepdims=True) * F
        tangent = tangent - tangent.mean(axis=1, keepdims=True)
        cand = _lp_project(F - eta[:, None] * tangent)
        cand_edge, cand_pair = lp_energies(arrays, cand, p, eps)
        cand_ratio = cand_edge / cand_pair
        accept = np.isfinite(cand_ratio) & (cand_ratio < ratio - 1e-15 * np.abs(ratio))
        F = np.where(accept[:, None], cand, F)
        ratio = np.where(accept, cand_ratio, ratio)
        edge = np.where(accept, cand_edge, edge)
        pair = np.where(accept, cand_pair, pair)
        eta = np.clip(np.where(accept, eta * 1.25, eta * 0.5), 1e-18, 1e3)
    final_edge, final_pair = lp_energies(arrays, F, p, 0.0)
    final_ratio = final_edge / final_pair
    best = int(np.argmin(final_ratio))
    return float(final_ratio[best]), tuple(float(x) for x in F[best])


def per_trial_lp_poincare(walk, p: float, floor: float, trials: int, seed: int, tol: float = 1e-8):
    """(min energy ratio, holds) of the Lp Poincare check one trial at a
    time: the rows of seeded_gaussian_rows in order, constant rows skipped,
    holds meaning floor <= min ratio + tol."""
    arrays = lp_walk_arrays(walk)
    worst = math.inf
    for f in seeded_gaussian_rows(seed, trials, walk.graph.n):
        if max(f) == min(f):
            continue
        edge, pair = lp_energies(arrays, np.array([f]), p, 0.0)
        worst = min(worst, float(edge[0]) / float(pair[0]))
    return worst, floor <= worst + tol
