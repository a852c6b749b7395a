"""Exact Cheeger constants by subset enumeration with exact pruning.

Two flavors are computed, both as exact rationals with a witness subset:

  vertex-measured   min m(boundary A) / m(A)        over 0 < m(A) <= m(V)/2
  conductance       min a(edge cut A) / mu(A)       over 0 < m(A) <= m(V)/2

plus the (alpha, R) expansion profile that replaces the one-hop boundary by
the radius-R annulus and restricts to alpha * m(V) <= m(A).

Enumeration strategy: measures are cleared of denominators once.  A subset
mask splits into a column (its low ceil(n/2) bits) and a row H (the rest),
and every sum over A is a column-table lookup plus a row-table lookup;
blocks of rows are crossed with all columns and only the feasible entries
are evaluated.  The cut of A is vol(A) - 2 a(E(A)), where the internal
weight is two table lookups plus one matrix product per block for the edges
between the halves.  Sums stay exact: float64 while the scaled totals are
below 2^53, int64 below 2^62, Python ints beyond.  When the conductance
constraint is mu itself, feasibility is tested on vol, a multiple of mu.

Pruning.  Graphs whose rows fit in one block (n <= _BLOCK_BITS) are
enumerated whole.  Past that, every row H gets a lower bound on the ratio of
all masks in it, numerator over the largest denominator the row allows:

  vertex, profile   m(reach(H) in the row half, minus H) / min(m(H) + m(low half), m(V)/2)
  conductance       a(E(H, row half minus H)) / (vol(H) + vol(low half)), capped by
                    vol(V)/2 when the constraint is mu

where reach is the one-hop (radius-R for the profile) neighbourhood.  The
row-half vertices that H reaches but does not contain lie in the boundary,
and the edges from H to the rest of the row half lie in the cut, whatever
the column.  A row whose own mass exceeds the upper limit, or whose mass
with the whole low half stays below the lower limit, holds no feasible mask
and gets an infinite bound; a row whose largest denominator is 0 gets 0.
The vertices are first relabelled by ascending m (mu for conductance), so
that the heaviest form the row half and the bounds are tight.  Rows are
then visited in ascending float bound, and the scan stops at the first
block whose first bound exceeds the running minimum times the margin below.
The skip is exact by the same argument as the ranking: the bound is the
float of an exact rational, rounded like any candidate ratio, so a bound
beyond the margin lies above the incumbent exactly, and so do the bounds of
all later rows and every ratio in them.  A bound equal to the incumbent
never exceeds it, so rows that hold ties are visited.

Ratios are ranked by float64 num/den, which is not exact on every path.  On
the int64 path num and den are rounded to float before the division, so a
float ratio lies within a factor (1+u)^2/(1-u) of the true one (u = 2^-53)
and two distinct rationals can swap order.  Every candidate whose float
ratio lies within a relative margin of 1 + 2^-48, which exceeds
((1+u)/(1-u))^3, of the running minimum is therefore settled by exact
integer cross-multiplication; nothing outside the margin can be a minimizer
or tie with one.  On the float64 and Python-int paths the float ratio is
correctly rounded, hence monotone in the true ratio, so the margin only
admits near-ties; on the Python-int path the ratios and bounds are ranked
scaled by a common power of two that keeps them within float range.  Exact
ties break toward the smallest mask in the original labels, compared
explicitly, so neither the relabelling nor the visit order can change the
witness.  There is no approximate fallback: graphs beyond the cap raise
ExactModeInfeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import MeasuredGraph, VertexSubset, diameter
from .rationals import InputError, scaled_integers
from .walks import ReversibleWalk

DEFAULT_CAP = 22
_BLOCK_BITS = 16


class ExactModeInfeasible(InputError):
    """The vertex count exceeds the exact-enumeration cap."""


class NoFeasibleSubset(InputError):
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
    total = sum(masses)
    halves = _Halves(graph.n, total, masses)
    tables = halves.sums(masses)
    best = _minimize_ratio(halves, 1, total // 2, tables, None, *_boundary(halves, tables, graph.neighbor_masks))
    if best is None:
        raise NoFeasibleSubset("no subset satisfies 0 < m(A) <= m(V)/2")
    num, den, mask = best
    return CheegerCertificate(Fraction(num, den), VertexSubset(graph.n, mask), "vertex-measured")


def cheeger_conductance(
    walk: ReversibleWalk,
    constraint: Sequence[Fraction] | None = None,
    cap: int = DEFAULT_CAP,
) -> CheegerCertificate:
    """Conductance Cheeger constant min a(cut A)/mu(A), feasibility in the
    constraint measure (defaults to mu itself)."""
    graph = walk.graph
    _check_cap(graph.n, cap)
    weights, _ = walk.integer_conductances
    m = walk.mu if constraint is None else tuple(map(Fraction, constraint))
    if len(m) != graph.n:
        raise InputError(f"constraint measure has {len(m)} entries for {graph.n} vertices")
    # feasibility in mu itself is tested on vol, a multiple of mu, which is then den
    scaled = None if m == walk.mu else scaled_integers(m)[0]
    total = 2 * sum(weights) if scaled is None else sum(scaled)
    if total <= 0:
        raise InputError("constraint measure must have positive total")
    halves = _Halves(graph.n, max(total, 2 * sum(weights)), walk.mu)
    vol, numerator, row_num = _cut(halves, graph.n, graph.edges, weights)
    feas, den = (vol, None) if scaled is None else (halves.sums(scaled), vol)
    best = _minimize_ratio(halves, 1, total // 2, feas, den, numerator, row_num)
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
        raise InputError("asymptotic profile requires a connected graph")
    _check_cap(graph.n, cap)
    alphas = tuple(Fraction(a) for a in alphas)
    for a in alphas:
        if not 0 < a <= Fraction(1, 2):
            raise InputError(f"alpha {a} outside (0, 1/2]")
    if radii is None:
        radii = tuple(range(1, max(diameter(graph), 1) + 1))
    else:
        radii = tuple(int(r) for r in radii)
        if any(r < 1 for r in radii):
            raise InputError("radii must be >= 1")
    masses, _ = scaled_integers(graph.measure)
    total = sum(masses)
    halves = _Halves(graph.n, total, masses)
    tables = halves.sums(masses)
    values = {}
    for radius in radii:
        boundary = _boundary(halves, tables, _ball_masks(graph, radius))
        for alpha in alphas:
            lo = -((-alpha.numerator * total) // alpha.denominator)  # ceil(alpha * total)
            best = _minimize_ratio(halves, max(1, lo), total // 2, tables, None, *boundary)
            values[(alpha, radius)] = None if best is None else Fraction(best[0], best[1])
    return AsymptoticProfile(alphas=alphas, radii=radii, values=values)


def _ball_masks(graph: MeasuredGraph, radius: int) -> list[int]:
    """Bitmask of the closed radius-ball around each vertex."""
    return [sum(1 << w for w, d in enumerate(dist) if d <= radius) for dist in graph.distances]


# -- enumeration engine ------------------------------------------------------

_MARGIN = 1.0 + 2.0**-48  # exceeds ((1+u)/(1-u))^3, u = 2^-53: see the module docstring


class _Halves:
    """Bit matrices of the column and row halves of an n-vertex mask, in the
    narrowest dtype that keeps sums up to bound exact.

    When the rows span more than one block, the vertices are relabelled in
    ascending weight, so that the heaviest form the row half; the tables are
    then built in the new labels and `original` maps a mask back."""

    def __init__(self, n: int, bound: int, weight):
        self.h = (n + 1) // 2
        self.dtype = np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 62 else object
        # ratios are at most bound; ranking num / (den << shift) keeps them finite
        self.shift = max(0, bound.bit_length() - 1000)
        self.bits = [((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) for k in (self.h, n - self.h)]
        self.xs = [b.astype(self.dtype) for b in self.bits]
        self.order = sorted(range(n), key=weight.__getitem__) if n > _BLOCK_BITS else None
        if self.order is not None:
            self.position = sorted(range(n), key=self.order.__getitem__)

    def relabelled(self, values):
        """Per-vertex values in the engine's labels."""
        return values if self.order is None else [values[v] for v in self.order]

    def original(self, mask: int) -> int:
        """An engine-label mask in the original labels."""
        return mask if self.order is None else _map_bits(mask, self.order)

    def sums(self, values):
        """(column table, row table) of subset sums of per-vertex values."""
        v = np.array(self.relabelled(values), dtype=self.dtype)
        return self.xs[0] @ v[: self.h], self.xs[1] @ v[self.h :]

    def unions(self, masks):
        """Column and row tables of the union of per-vertex masks, each split
        into its column bits and its row bits."""
        if self.order is not None:
            masks = [_map_bits(mask, self.position) for mask in self.relabelled(masks)]
        m = np.array(masks, dtype=np.int64)
        col = np.bitwise_or.reduce(self.bits[0] * m[: self.h], axis=1)
        row = np.bitwise_or.reduce(self.bits[1] * m[self.h :], axis=1)
        low = (1 << self.h) - 1
        return col & low, col >> self.h, row & low, row >> self.h

    def ratio(self, num, den):
        """Float ranking of num / den, scaled by 2^-shift."""
        return np.asarray(num / (den << self.shift if self.shift else den), dtype=np.float64)


def _map_bits(mask: int, target) -> int:
    """The mask with bit i moved to bit target[i]."""
    return sum(1 << t for i, t in enumerate(target) if mask >> i & 1)


def _minimize_ratio(halves: _Halves, feas_lo: int, feas_hi: int, feas, den, numerator, row_num):
    """Minimize numerator/den over masks A with feas_lo <= feas(A) <= feas_hi.

    feas and den are (column, row) table pairs (den None: den is feas);
    numerator(rows, r, c, den) evaluates at the entries (r, c) of the block
    of row indices `rows`; row_num() gives, per row j, a lower bound on the
    numerator of every mask in row j, and is called only when rows are
    pruned.  Returns exact (num, den, mask) with the smallest original-label
    mask among the exact minimizers, or None."""
    if feas_lo > feas_hi:
        return None
    h = halves.h
    low = (1 << h) - 1
    flo, fhi = feas
    step = max(1, (1 << _BLOCK_BITS) >> h)
    visit, bound = np.arange(fhi.size), None
    if halves.order is not None:
        bound = _row_bounds(halves, feas_lo, feas_hi, feas, den, row_num)
        visit = np.argsort(bound, kind="stable")
        bound = bound[visit]
    best, best_ratio = None, np.inf
    for k in range(0, fhi.size, step):
        if bound is not None and bound[k] > best_ratio * _MARGIN:
            break  # every later row is bounded above the incumbent
        rows = visit[k : k + step]
        fm = fhi[rows, None] + flo
        idx = np.flatnonzero((fm >= feas_lo) & (fm <= feas_hi))
        if not idx.size:
            continue
        r, c = idx >> h, idx & low
        d = fm.ravel()[idx] if den is None else den[0][c] + den[1][rows[r]]
        num = numerator(rows, r, c, d)
        ratio = halves.ratio(num, d)
        for i in np.flatnonzero(ratio <= min(ratio.min(), best_ratio) * _MARGIN).tolist():
            cand = int(num[i]), int(d[i])
            if best is not None:
                lhs, rhs = cand[0] * best[1], best[0] * cand[1]
                if lhs > rhs:
                    continue
            mask = halves.original(int(rows[r[i]]) << h | int(c[i]))
            if best is None or lhs < rhs or mask < best[2]:
                best, best_ratio = (*cand, mask), ratio[i]
    return best


def _row_bounds(halves: _Halves, feas_lo: int, feas_hi: int, feas, den, row_num):
    """Float lower bound on the ratio over each row: row_num over the largest
    den in the row, capped by feas_hi when den is feas; 0 where that largest
    den is 0, and inf on rows with no feasible mask."""
    flo, fhi = feas
    dlo, dhi = feas if den is None else den
    dmax = dhi + dlo[-1]
    if den is None:
        dmax = np.minimum(dmax, feas_hi)
    positive = dmax > 0
    bound = np.zeros(fhi.size)
    bound[positive] = halves.ratio(row_num()[positive], dmax[positive])
    bound[(fhi > feas_hi) | (fhi + flo[-1] < feas_lo)] = np.inf
    return bound


def _boundary(halves: _Halves, tables, reach):
    """Numerator m(reach(A) minus A): the union of the per-vertex reach masks
    over A, less A, looked up in the mass tables; and its row bound, the
    mass of the row half's part of reach(H) minus H."""
    col_lo, col_hi, row_lo, row_hi = halves.unions(reach)
    mlo, mhi = tables

    def numerator(rows, r, c, den):
        j = rows[r]
        return mlo[(col_lo[c] | row_lo[j]) & ~c] + mhi[(col_hi[c] | row_hi[j]) & ~j]

    return numerator, lambda: mhi[row_hi & ~np.arange(row_hi.size)]


def _cut(halves: _Halves, n: int, edges, weights):
    """Denominator tables of vol(A) = mu(A), with mu the vertex marginal of
    the weights, and the numerator a(cut A) = vol(A) - 2 a(E(A)).  The
    internal weight a(E(A)) is a column-table lookup plus a row-table lookup
    plus the weight between the two halves, one matrix product per block of
    rows.  The row bound is a(E(H, row half minus H))."""
    h = halves.h
    if halves.order is not None:
        edges = [sorted((halves.position[u], halves.position[v])) for u, v in edges]
    upper = np.zeros((n, n), dtype=halves.dtype)
    for (u, v), w in zip(edges, weights):
        upper[u, v] = w  # u < v
    sym = upper + upper.T
    deg = sym.sum(axis=1)
    xlo, xhi = halves.xs
    vol = xlo @ deg[:h], xhi @ deg[h:]
    inner_lo = ((xlo @ upper[:h, :h]) * xlo).sum(axis=1)
    inner_hi = ((xhi @ upper[h:, h:]) * xhi).sum(axis=1)
    across = (xlo @ upper[:h, h:]).T.copy()

    def numerator(rows, r, c, den):
        cross = xhi[rows] @ across
        return den - 2 * (inner_lo[c] + inner_hi[rows[r]] + cross[r, c])

    return vol, numerator, lambda: xhi @ sym[h:, h:].sum(axis=1) - 2 * inner_hi
