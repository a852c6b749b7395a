"""Independent references for checking the outputs of mexp.

Nothing in this module calls mexp.  Cheeger values come from exhaustive
enumeration of every vertex subset in Python integer arithmetic (no floats,
no numpy, no code shared with mexp's engine); spectra come from LAPACK
(numpy.linalg.eigvalsh) or from closed forms; energies from explicit loops.
Graphs are read only through their plain data: n, edges, measure, and a
walk's conductance map.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np

_FLOAT53 = 1 << 53
_INT64 = 1 << 62


def scaled(values) -> list[int]:
    """Clear the denominators of a list of rationals with their lcm."""
    values = [Fraction(v) for v in values]
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    return [int(v * scale) for v in values]


def width(bound: int) -> str:
    """Integer width the scaled sums need: float53, int64 or bigint."""
    if bound < _FLOAT53:
        return "float53"
    if bound < _INT64:
        return "int64"
    return "bigint"


def vertex_width(measure) -> str:
    return width(sum(scaled(measure)))


def conductance_width(weights, constraint) -> str:
    """Width for the conductance flavor: mu(V) is twice the edge weight."""
    return width(max(sum(scaled(constraint)), 2 * sum(scaled(weights))))


def neighbor_masks(n: int, edges) -> list[int]:
    out = [0] * n
    for u, v in edges:
        out[u] |= 1 << v
        out[v] |= 1 << u
    return out


def ball_masks(n: int, edges, radius: int) -> list[int]:
    """Closed radius-balls as bitmasks, by breadth-first search."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in range(n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if dist[x] == radius:
                continue
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        out.append(sum(1 << x for x in dist))
    return out


def _subset_sums(values) -> list:
    table = [0] * (1 << len(values))
    for mask in range(1, len(table)):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask & (mask - 1)] + values[low]
    return table


def _subset_unions(masks) -> list[int]:
    table = [0] * (1 << len(masks))
    for mask in range(1, len(table)):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask & (mask - 1)] | masks[low]
    return table


def min_boundary_ratio(masses, reach, feas_lo: int = 1):
    """Exact min of m(reach(A) minus A) / m(A) over feas_lo <= m(A) <= m(V)/2.

    masses are integers; reach[v] is a bitmask.  Returns (num, den, mask)
    with the smallest mask among the minimizers, or None.  The subsets are
    split into a low and a high half of the vertices so that the tables
    stay at 2^(n/2) entries.
    """
    n = len(masses)
    cap = sum(masses) // 2
    feas_lo = max(feas_lo, 1)
    if feas_lo > cap:
        return None
    h = n // 2
    lomask = (1 << h) - 1
    m_lo, m_hi = _subset_sums(masses[:h]), _subset_sums(masses[h:])
    r_lo, r_hi = _subset_unions(reach[:h]), _subset_unions(reach[h:])
    best_num = best_den = best_mask = None
    for hi in range(len(m_hi)):
        mh, rh, base = m_hi[hi], r_hi[hi], hi << h
        for lo in range(len(m_lo)):
            m = mh + m_lo[lo]
            if m < feas_lo or m > cap:
                continue
            mask = base | lo
            b = (rh | r_lo[lo]) & ~mask
            num = m_lo[b & lomask] + m_hi[b >> h]
            if best_num is None or num * best_den < best_num * m:
                best_num, best_den, best_mask = num, m, mask
    return None if best_num is None else (best_num, best_den, best_mask)


def min_cut_ratio(n: int, weighted_edges, constraint):
    """Exact min of a(cut A) / mu(A) over 0 < c(A) <= c(V)/2, ties to the
    smallest mask; weighted_edges are (u, v, integer weight) and constraint
    holds integers.  Returns (num, den, mask) or None."""
    mu = [0] * n
    for u, v, w in weighted_edges:
        mu[u] += w
        mu[v] += w
    cap = sum(constraint) // 2
    h = n // 2
    lo_edges = [(u, v, w) for u, v, w in weighted_edges if u < h and v < h]
    hi_edges = [(u - h, v - h, w) for u, v, w in weighted_edges if u >= h and v >= h]
    cross = [(min(u, v), max(u, v) - h, w) for u, v, w in weighted_edges if (u < h) != (v < h)]

    def internal(k, edges):
        table = [0] * (1 << k)
        for mask in range(1, 1 << k):
            low = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            add = 0
            for a, b, w in edges:
                if (a == low and rest >> b & 1) or (b == low and rest >> a & 1):
                    add += w
            table[mask] = table[rest] + add
        return table

    c_lo, c_hi = _subset_sums(constraint[:h]), _subset_sums(constraint[h:])
    v_lo, v_hi = _subset_sums(mu[:h]), _subset_sums(mu[h:])
    i_lo, i_hi = internal(h, lo_edges), internal(n - h, hi_edges)
    best_num = best_den = best_mask = None
    for hi in range(len(c_hi)):
        into = [0] * h  # weight from each low vertex into the high part of A
        for a, b, w in cross:
            if hi >> b & 1:
                into[a] += w
        x_lo = _subset_sums(into)
        ch, vh, ih, base = c_hi[hi], v_hi[hi], i_hi[hi], hi << h
        for lo in range(len(c_lo)):
            c = ch + c_lo[lo]
            if c == 0 or c > cap:
                continue
            vol = vh + v_lo[lo]
            cut = vol - 2 * (ih + i_lo[lo] + x_lo[lo])
            if best_num is None or cut * best_den < best_num * vol:
                best_num, best_den, best_mask = cut, vol, base | lo
    return None if best_num is None else (best_num, best_den, best_mask)


def cheeger_vertex(n: int, edges, measure):
    """(value, witness mask) of the vertex-measured Cheeger constant."""
    found = min_boundary_ratio(scaled(measure), neighbor_masks(n, edges))
    return None if found is None else (Fraction(found[0], found[1]), found[2])


def cheeger_conductance(n: int, conductance: dict, constraint):
    """(value, witness mask) of min a(cut A)/mu(A) with feasibility in constraint."""
    keys = sorted(conductance)
    weights = scaled([conductance[k] for k in keys])
    found = min_cut_ratio(n, [(u, v, w) for (u, v), w in zip(keys, weights)], scaled(constraint))
    return None if found is None else (Fraction(found[0], found[1]), found[2])


def profile(n: int, edges, measure, alphas, radii) -> dict:
    """{(alpha, radius): exact minimum or None} of the (alpha, R) profile."""
    masses = scaled(measure)
    total = sum(masses)
    out = {}
    for radius in radii:
        reach = ball_masks(n, edges, radius)
        for alpha in alphas:
            alpha = Fraction(alpha)
            lo = -((-alpha.numerator * total) // alpha.denominator)
            found = min_boundary_ratio(masses, reach, max(1, lo))
            out[(alpha, radius)] = None if found is None else Fraction(found[0], found[1])
    return out


# -- witness checks ------------------------------------------------------------


def vertex_witness_problem(n: int, edges, measure, mask: int, value: Fraction):
    """None when the witness is feasible and its exact ratio equals value."""
    measure = [Fraction(m) for m in measure]
    inside = {v for v in range(n) if mask >> v & 1}
    mass = sum((measure[v] for v in inside), Fraction(0))
    if not 0 < mass <= sum(measure) / 2:
        return f"witness {sorted(inside)} infeasible (mass {mass})"
    boundary = {v for u, w in edges for v in (u, w) if v not in inside and (u in inside or w in inside)}
    ratio = sum((measure[v] for v in boundary), Fraction(0)) / mass
    if ratio != value:
        return f"witness ratio {ratio} != reported {value}"
    return None


def cut_witness_problem(n: int, conductance: dict, constraint, mask: int, value: Fraction):
    constraint = [Fraction(c) for c in constraint]
    inside = {v for v in range(n) if mask >> v & 1}
    mass = sum((constraint[v] for v in inside), Fraction(0))
    if not 0 < mass <= sum(constraint) / 2:
        return f"witness {sorted(inside)} infeasible (mass {mass})"
    cut = sum((a for (u, v), a in conductance.items() if (u in inside) != (v in inside)), Fraction(0))
    vol = sum((a for (u, v), a in conductance.items() for x in (u, v) if x in inside), Fraction(0))
    if cut / vol != value:
        return f"witness ratio {cut / vol} != reported {value}"
    return None


# -- spectra and energies ------------------------------------------------------


def delta_eigenvalues(n: int, conductance: dict) -> np.ndarray:
    """Walk-Laplacian spectrum of a conductance, by LAPACK."""
    stiff = np.zeros((n, n))
    mass = np.zeros(n)
    for (u, v), a in conductance.items():
        stiff[u, v] = stiff[v, u] = -float(a)
        mass[u] += float(a)
        mass[v] += float(a)
    stiff[np.diag_indices(n)] = mass
    return _pencil_eigenvalues(stiff, mass)


def lambda_eigenvalues(n: int, edges, measure) -> np.ndarray:
    """Spectrum of the measured-graph pencil (conductance m(u) + m(v)), by LAPACK."""
    stiff = np.zeros((n, n))
    for u, v in edges:
        w = float(Fraction(measure[u]) + Fraction(measure[v]))
        stiff[u, v] = stiff[v, u] = -w
        stiff[u, u] += w
        stiff[v, v] += w
    return _pencil_eigenvalues(stiff, np.array([float(m) for m in measure]))


def _pencil_eigenvalues(stiff, mass) -> np.ndarray:
    inv = 1.0 / np.sqrt(mass)
    return np.linalg.eigvalsh(stiff * np.outer(inv, inv))


def gap(eigenvalues, zero: float = 1e-9) -> float:
    return float(min(x for x in eigenvalues if x >= zero))


def cycle_walk_spectrum(n: int) -> np.ndarray:
    return np.sort([1.0 - math.cos(2.0 * math.pi * k / n) for k in range(n)])


def hypercube_walk_spectrum(d: int) -> np.ndarray:
    return np.sort([2.0 * k / d for k in range(d + 1) for _ in range(math.comb(d, k))])


def lp_ratio(n: int, conductance: dict, f, p: float) -> float:
    """Ordered-pair edge energy over pair energy mu(u)mu(v)/mu(V), by loops."""
    mu = [0.0] * n
    edge = 0.0
    for (u, v), a in conductance.items():
        mu[u] += float(a)
        mu[v] += float(a)
        edge += 2.0 * float(a) * abs(f[u] - f[v]) ** p
    total = sum(mu)
    pair = sum(abs(f[u] - f[v]) ** p * mu[u] * mu[v] for u in range(n) for v in range(n)) / total
    return edge / pair


def cp_lower_bound(c: float, p: float) -> float:
    """The explicit Poincare constant c_p from a Cheeger constant c (the
    paper's formula: c^2/2 below p = 2, a power of 4c^2/(p^2 2^(1+2/p)) above)."""
    if p < 2:
        return c * c / 2.0
    return (4.0 * c * c / (p * p * 2.0 ** (1.0 + 2.0 / p))) ** (p / 2.0) / 2.0 ** (p + 1.0)
