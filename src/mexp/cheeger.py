"""Exact Cheeger constants by exhaustive subset enumeration.

Two flavors are computed, both as exact rationals with a witness subset:

  vertex-measured   min m(boundary A) / m(A)        over 0 < m(A) <= m(V)/2
  conductance       min a(edge cut A) / mu(A)       over 0 < m(A) <= m(V)/2

plus the (alpha, R) expansion profile that replaces the one-hop boundary by
the radius-R annulus and restricts to alpha * m(V) <= m(A).

Enumeration strategy: measures are cleared of denominators once, then every
subset mask is evaluated in vectorized numpy blocks using half-mask lookup
tables.  Ratios are compared in float64 (division is monotone, so the exact
minimum is always among the float minima) and the surviving candidates are
settled with exact integer cross-multiplication.  There is no approximate
fallback: graphs beyond the cap raise ExactModeInfeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .graphs import MeasuredGraph, VertexSubset, bfs_distances, diameter
from .rationals import scaled_integers

if TYPE_CHECKING:  # pragma: no cover
    from .walks import ReversibleWalk

DEFAULT_CAP = 22
_BLOCK_BITS = 20


class ExactModeInfeasible(RuntimeError):
    """The vertex count exceeds the exact-enumeration cap."""


class NoFeasibleSubset(ValueError):
    """No subset satisfies 0 < m(A) <= m(V)/2 (plus any profile lower bound)."""


@dataclass(frozen=True)
class CheegerCertificate:
    value: Fraction
    witness: VertexSubset
    flavor: str


@dataclass(frozen=True)
class AsymptoticProfile:
    """Exact expansion profile: values[(alpha, R)] is the minimum of
    m(annulus_R A)/m(A) over alpha*m(V) <= m(A) <= m(V)/2, or None when no
    subset is feasible for that alpha."""

    alphas: tuple[Fraction, ...]
    radii: tuple[int, ...]
    values: dict

    def value(self, alpha, radius: int):
        return self.values[(Fraction(alpha), radius)]


_HARD_CAP = 48  # 2^48 subsets is already years of enumeration; also keeps masks in int64


def _check_cap(n: int, cap: int):
    if n > min(cap, _HARD_CAP):
        raise ExactModeInfeasible(
            f"exact mode infeasible: {n} vertices exceed the enumeration cap "
            f"{min(cap, _HARD_CAP)} (2^{n} subsets); raise the cap only if the "
            f"runtime is acceptable"
        )


def cheeger_vertex(graph: MeasuredGraph, cap: int = DEFAULT_CAP) -> CheegerCertificate:
    """Vertex-measured Cheeger constant with a minimizing witness.

    The value is positive exactly when the full subgraph on the support of
    the measure is connected.  Ties between witnesses break toward the
    smallest bitmask.
    """
    _check_cap(graph.n, cap)
    masses, _ = scaled_integers(graph.measure)
    best = _minimize_ratio(
        graph.n,
        feas=masses,
        feas_lo=1,
        den=masses,
        reach=graph.neighbor_masks,
        boundary_masses=masses,
    )
    if best is None:
        raise NoFeasibleSubset("no subset satisfies 0 < m(A) <= m(V)/2")
    num, den, mask = best
    return CheegerCertificate(Fraction(num, den), VertexSubset(graph.n, mask), "vertex-measured")


def cheeger_conductance(
    walk: "ReversibleWalk",
    constraint: Sequence[Fraction] | None = None,
    cap: int = DEFAULT_CAP,
) -> CheegerCertificate:
    """Conductance Cheeger constant min a(cut A)/mu(A), feasibility in the
    constraint measure (defaults to mu itself)."""
    graph = walk.graph
    _check_cap(graph.n, cap)
    edges = graph.edges
    weights, _ = scaled_integers([walk.a[e] for e in edges])
    # mu is the vertex marginal of a, so the same scale makes it integral
    mu_scaled = [0] * graph.n
    for (u, v), w in zip(edges, weights):
        mu_scaled[u] += w
        mu_scaled[v] += w
    m = walk.mu if constraint is None else [Fraction(x) for x in constraint]
    if len(m) != graph.n:
        raise ValueError(f"constraint measure has {len(m)} entries for {graph.n} vertices")
    feas, _ = scaled_integers(m)
    if sum(feas) <= 0:
        raise ValueError("constraint measure must have positive total")
    best = _minimize_ratio(
        graph.n,
        feas=feas,
        feas_lo=1,
        den=mu_scaled,
        cut_edges=edges,
        cut_weights=weights,
    )
    if best is None:
        raise NoFeasibleSubset("no subset satisfies 0 < m(A) <= m(V)/2")
    num, den, mask = best
    return CheegerCertificate(Fraction(num, den), VertexSubset(graph.n, mask), "conductance")


def asymptotic_profile(
    graph: MeasuredGraph,
    alphas: Sequence,
    cap: int = DEFAULT_CAP,
    radii: Sequence[int] | None = None,
) -> AsymptoticProfile:
    """Exact (alpha, R) expansion table for R = 1..diameter by default."""
    if not graph.connected:
        raise ValueError("asymptotic profile requires a connected graph")
    _check_cap(graph.n, cap)
    alphas = tuple(Fraction(a) for a in alphas)
    for a in alphas:
        if not 0 < a <= Fraction(1, 2):
            raise ValueError(f"alpha {a} outside (0, 1/2]")
    if radii is None:
        radii = tuple(range(1, max(diameter(graph), 1) + 1))
    else:
        radii = tuple(int(r) for r in radii)
        if any(r < 1 for r in radii):
            raise ValueError("radii must be >= 1")
    masses, _ = scaled_integers(graph.measure)
    total = sum(masses)
    values = {}
    for radius in radii:
        reach = _ball_masks(graph, radius)
        for alpha in alphas:
            lo = -((-alpha.numerator * total) // alpha.denominator)  # ceil(alpha * total)
            best = _minimize_ratio(
                graph.n,
                feas=masses,
                feas_lo=max(1, lo),
                den=masses,
                reach=reach,
                boundary_masses=masses,
            )
            values[(alpha, radius)] = None if best is None else Fraction(best[0], best[1])
    return AsymptoticProfile(alphas=alphas, radii=radii, values=values)


def _ball_masks(graph: MeasuredGraph, radius: int) -> list[int]:
    """Bitmask of the closed radius-ball around each vertex."""
    out = []
    for v in range(graph.n):
        dist = bfs_distances(graph, (v,))
        mask = 0
        for w in range(graph.n):
            if dist[w] <= radius:
                mask |= 1 << w
        out.append(mask)
    return out


# -- enumeration engine ------------------------------------------------------


def _minimize_ratio(
    n: int,
    feas: Sequence[int],
    feas_lo: int,
    den: Sequence[int],
    reach: Sequence[int] | None = None,
    boundary_masses: Sequence[int] | None = None,
    cut_edges: Sequence[tuple[int, int]] | None = None,
    cut_weights: Sequence[int] | None = None,
):
    """Minimize numerator(A)/den(A) over masks A with feas_lo <= feas(A) <= feas(V)//2.

    numerator(A) is either the boundary-measure sum (reach + boundary_masses)
    or the weighted edge cut (cut_edges + cut_weights).  Returns exact
    (num, den, mask) with the smallest mask among exact minimizers, or None.
    """
    total = sum(feas)
    feas_hi = total // 2  # 2*m(A) <= total  <=>  m(A) <= floor(total/2)
    if feas_lo > feas_hi:
        return None

    h = (n + 1) // 2
    lomask = (1 << h) - 1
    full = (1 << n) - 1

    bound = max(total, sum(den), sum(boundary_masses or [0]), sum(cut_weights or [0]))
    mass_dtype = np.int64 if bound < (1 << 62) else object

    flo, fhi = _mass_tables(n, h, feas, mass_dtype)
    dlo, dhi = _mass_tables(n, h, den, mass_dtype)
    if reach is not None:
        rlo, rhi = _or_tables(n, h, reach)
        blo, bhi = _mass_tables(n, h, boundary_masses, mass_dtype)

    best = None  # (num, den, mask) as Python ints
    block = 1 << min(n, _BLOCK_BITS)
    for start in range(0, 1 << n, block):
        masks = np.arange(start, min(start + block, 1 << n), dtype=np.int64)
        lo = masks & lomask
        hi = masks >> h
        fm = flo[lo] + fhi[hi]
        feasible = (fm >= feas_lo) & (fm <= feas_hi)
        if not feasible.any():
            continue
        dm = dlo[lo] + dhi[hi]
        if reach is not None:
            union = rlo[lo] | rhi[hi]
            bnd = union & ~masks & full
            num = blo[bnd & lomask] + bhi[bnd >> h]
        else:
            num = np.zeros(masks.shape, dtype=mass_dtype)
            for (u, v), w in zip(cut_edges, cut_weights):
                num = num + w * ((masks >> u ^ masks >> v) & 1)
        valid = feasible & (dm > 0)
        if not valid.any():
            continue
        ratio = np.where(valid, num, 1) / np.where(valid, dm, 1)
        ratio = np.where(valid, ratio, np.inf)
        block_min = ratio.min()
        if block_min == np.inf:
            continue
        for i in np.nonzero(ratio == block_min)[0]:
            cand = (int(num[i]), int(dm[i]), int(masks[i]))
            if best is None:
                best = cand
                continue
            lhs = cand[0] * best[1]
            rhs = best[0] * cand[1]
            if lhs < rhs or (lhs == rhs and cand[2] < best[2]):
                best = cand
    return best


def _mass_tables(n: int, h: int, masses: Sequence[int], dtype):
    """Subset-sum lookup tables for the low h bits and the high n-h bits."""
    lo = np.zeros(1 << h, dtype=dtype)
    idx = np.arange(1 << h, dtype=np.int64)
    for b in range(h):
        lo[(idx >> b & 1) == 1] += masses[b]
    hi_bits = n - h
    hi = np.zeros(1 << hi_bits, dtype=dtype)
    idx = np.arange(1 << hi_bits, dtype=np.int64)
    for b in range(hi_bits):
        hi[(idx >> b & 1) == 1] += masses[h + b]
    return lo, hi


def _or_tables(n: int, h: int, reach: Sequence[int]):
    """Union-of-reach lookup tables (bitwise OR over the set bits)."""
    lo = np.zeros(1 << h, dtype=np.int64)
    idx = np.arange(1 << h, dtype=np.int64)
    for b in range(h):
        sel = (idx >> b & 1) == 1
        lo[sel] |= reach[b]
    hi_bits = n - h
    hi = np.zeros(1 << hi_bits, dtype=np.int64)
    idx = np.arange(1 << hi_bits, dtype=np.int64)
    for b in range(hi_bits):
        sel = (idx >> b & 1) == 1
        hi[sel] |= reach[h + b]
    return lo, hi
