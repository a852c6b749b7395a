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
are evaluated.  The cut of A is summed from nonnegative terms only: the cut
inside the column half, the cut inside the row half, and the weight between
the halves, [1 - x_H, x_H] @ [P; Q] for one matrix product per block, where
P[c] is the weight from the column set c to each row-half vertex and Q[c] =
P[c'] with c' the rest of the column half.  When the conductance constraint
is mu itself, feasibility is tested on vol, a multiple of mu.

Widths and shadows.  The exact tables are float64 while the scaled totals
are below 2^53, int64 below 2^62 and Python ints beyond; each width is the
faster path on a stored benchmark slot.  The block loop runs on float64
shadows: below 2^62 the exact table itself, beyond it exact * 2^-shift,
correctly rounded, with the shift that keeps every entry below 2^1000.  No
block-sized array of Python ints is formed; only band entries and
candidates are looked up in the exact tables.  With u = 2^-53 a shadow sum
of two entries lies within (1+u)^2 of the exact one, so the float decides
feasibility outside a relative band of 2^-50 around each limit, and the
entries inside the band are checked exactly.  Ratios are ranked by float
num/den, and every candidate within the relative margin 1 + 2^-46 of the
least float ratio so far is kept.  The margin exceeds F^2, with F the
ratio's worst error: the conductance cross term sums n - h correctly rounded
entries of P or Q, so F = ((1+u)/(1-u))^(n-h+2) < 1 + 2^-47 for n <= 48, and
the other ratios err less.  So nothing outside the margin can be a minimizer
or tie with one.  Below 2^53 every sum is exact and the ratio correctly
rounded, so there is no band and the margin only admits near-ties.  Beyond
2^1000 a shadow below 2^-1000 (subnormal entries arise once the scaled total
exceeds about 2^2022) carries no relative bound: a candidate whose num, den
or ratio is that small is always settled exactly, and such a row gets bound
0.  A quotient that rounds to inf exceeded the largest float, so the margin
argument ranks it above any finite incumbent.  Settlement gathers the exact
num and den of the candidates alone and compares them in one pass by
Python-int cross-multiplication; exact ties break toward the smallest mask
in the original labels, all mapped back at once, so neither the relabelling
nor the visit order can change the witness.

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
with the whole low half stays below the lower limit, by more than the band,
holds no feasible mask and gets an infinite bound; a row whose largest
denominator is 0 gets 0.  The vertices are first relabelled by ascending m
(mu for conductance), so that the heaviest form the row half and the
bounds are tight.  Rows are then visited in ascending float bound, and the
scan stops at the first block whose first bound exceeds the least float
ratio so far times the margin.  The bound is built from shadows within
((1+u)/(1-u))^4 of the exact one, and the margin exceeds that times F, so
a bound beyond it lies above that ratio exactly, and so do the bounds of
all later rows and every ratio in them; rows that hold ties are visited.
There is no approximate fallback: graphs beyond the cap raise
ExactModeInfeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    if n > _HARD_CAP and cap >= _HARD_CAP:
        raise ExactModeInfeasible(
            f"exact mode infeasible: {n} vertices exceed the engine's own limit of "
            f"{_HARD_CAP} vertices (2^{n} subsets), which no cap raises"
        )
    if n > cap:
        raise ExactModeInfeasible(
            f"exact mode infeasible: {n} vertices exceed the enumeration cap "
            f"{cap} (2^{n} subsets); raise the cap only if the runtime is acceptable"
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
    constraint measure (defaults to mu itself), which must be nonnegative."""
    graph = walk.graph
    _check_cap(graph.n, cap)
    weights, _ = walk.integer_conductances
    m = walk.mu if constraint is None else tuple(v if type(v) is Fraction else Fraction(v) for v in constraint)
    if len(m) != graph.n:
        raise InputError(f"constraint measure has {len(m)} entries for {graph.n} vertices")
    # feasibility in mu itself is tested on vol, a multiple of mu, which is then den
    scaled = None if m == walk.mu else scaled_integers(m)[0]
    if scaled is not None and min(scaled) < 0:
        raise InputError("constraint measure must be nonnegative")
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
    """Exact (alpha, R) expansion table for R = 1..diameter by default; only
    those default radii need a connected graph."""
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

_MARGIN = 1.0 + 2.0**-46  # exceeds ((1+u)/(1-u))^52, u = 2^-53: see the module docstring
_BAND = 2.0**-50  # relative width of the feasibility band around the limits
_TINY = 2.0**-1000  # below this a shadow carries no relative error bound


class _Halves:
    """Bit matrices of the column and row halves of an n-vertex mask, the
    narrowest exact dtype that keeps sums up to bound exact, and the scale of
    the float64 shadow tables.

    When the rows span more than one block, the vertices are relabelled in
    ascending weight, so that the heaviest form the row half; the tables are
    then built in the new labels and `original` maps masks back."""

    def __init__(self, n: int, bound: int, weight):
        self.h = (n + 1) // 2
        self.dtype = np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 62 else object
        # shadows are exact * 2^-shift, which keeps every table entry below 2^1000
        self.shift = max(0, bound.bit_length() - 1000)
        self.rounded = self.dtype is not np.float64  # ratios (and conductance shadows) round
        self.eps = _BAND if self.dtype is object else 0.0
        self.tiny = _TINY if self.shift else 0.0
        self.bits = [_bit_table(k) for k in (self.h, n - self.h)]
        self.xs = None if self.dtype is object else [_bit_table(k, self.dtype) for k in (self.h, n - self.h)]
        self.order = sorted(range(n), key=weight.__getitem__) if n > _BLOCK_BITS else None
        if self.order is not None:
            self.position = sorted(range(n), key=self.order.__getitem__)

    def relabelled(self, values):
        """Per-vertex values in the engine's labels."""
        return values if self.order is None else [values[v] for v in self.order]

    def original(self, masks):
        """Engine-label masks in the original labels."""
        return masks if self.order is None else _map_bits(masks, self.order)

    def shadow(self, exact):
        """The float64 table of exact * 2^-shift, correctly rounded; below 2^62
        it is the exact table itself."""
        if self.dtype is not object:
            return exact
        if self.shift:
            exact = exact / (1 << self.shift)  # Python-int true division rounds correctly
        return np.asarray(exact, dtype=np.float64)

    def limits(self, lo: int, hi: int):
        """Float limits (lo_in, hi_in, lo_out, hi_out): a shadow sum inside
        [lo_in, hi_in] lies in [lo, hi] exactly, one outside [lo_out, hi_out]
        does not, and only the exact sum decides the band between them."""
        if not self.eps:
            return lo, hi, lo, hi
        lo, hi = lo / (1 << self.shift), hi / (1 << self.shift)
        e, t = self.eps, self.tiny
        return lo * (1 + e) + t, hi * (1 - e) - t, lo * (1 - e) - t, hi * (1 + e) + t

    def sums(self, values):
        """(exact, shadow) pairs of (column table, row table) of subset sums of
        per-vertex values."""
        return self.tables(np.asarray(self.relabelled(values), dtype=self.dtype))

    def tables(self, v):
        """sums of per-vertex values given in the engine's labels."""
        exact = self.subset_sums(0, v[: self.h]), self.subset_sums(1, v[self.h :])
        return exact, (self.shadow(exact[0]), self.shadow(exact[1]))

    def subset_sums(self, half: int, values):
        """Exact table t with t[S] the sum of values[i] over the bits i of S,
        for the column (half 0) or row (half 1) bits; values may be rows, and
        then so is each entry.  Python ints are summed by doubling, one
        vectorized addition per vertex."""
        v = np.asarray(values, dtype=self.dtype)
        if self.xs is not None:
            return self.xs[half] @ v
        t = np.zeros((1 << len(v),) + v.shape[1:], dtype=object)
        for i in range(len(v)):
            t[1 << i : 2 << i] = t[: 1 << i] + v[i]
        return t

    def unions(self, masks):
        """Column and row tables of the union of per-vertex masks, each split
        into its column bits and its row bits."""
        if self.order is not None:
            masks = _map_bits(self.relabelled(masks), self.position)
        m = np.asarray(masks, dtype=np.int64)
        col = np.bitwise_or.reduce(self.bits[0] * m[: self.h], axis=1)
        row = np.bitwise_or.reduce(self.bits[1] * m[self.h :], axis=1)
        low = (1 << self.h) - 1
        return col & low, col >> self.h, row & low, row >> self.h


@lru_cache(maxsize=None)
def _bit_table(k: int, dtype=np.int64, sides: bool = False):
    """The 2^k x k table whose row S holds the bits of S, or with sides the
    2^k x 2k table [1 - bits, bits]; read-only and shared between calls."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    if sides:
        bits = np.concatenate((1 - bits, bits), axis=1)
    bits = bits.astype(dtype)
    bits.flags.writeable = False
    return bits


def _map_bits(masks, target):
    """The masks with bit i moved to bit target[i]."""
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(len(target))) & 1
    return bits @ (np.int64(1) << np.asarray(target, dtype=np.int64))


def _minimize_ratio(halves: _Halves, feas_lo: int, feas_hi: int, feas, den, numerator, row_num):
    """Minimize numerator/den over masks A with feas_lo <= feas(A) <= feas_hi.

    feas and den are (exact, shadow) table pairs from _Halves.sums (den None:
    den is feas); numerator(rows, r, c, exact) evaluates at the entries (r, c)
    of the block of row indices `rows`, from the shadows or, with exact true,
    from the exact tables; row_num() gives, per row j, a shadow lower bound on
    the numerator of every mask in row j, and is called only when rows are
    pruned.  Returns exact (num, den, mask) with the smallest original-label
    mask among the exact minimizers, or None."""
    if feas_lo > feas_hi:
        return None
    h = halves.h
    low = (1 << h) - 1
    (flo_x, fhi_x), (flo, fhi) = feas
    (dlo_x, dhi_x), (dlo, dhi) = feas if den is None else den
    lo_in, hi_in, lo_out, hi_out = halves.limits(feas_lo, feas_hi)
    step = max(1, (1 << _BLOCK_BITS) >> h)
    visit, bound = np.arange(fhi.size), None
    if halves.order is not None:
        # row bound: row_num over the row's largest den, capped by feas_hi when den is feas; 0 where
        # that den is 0 or has no error bound, inf on rows with no feasible mask beyond the band
        dmax = dhi + dlo[-1]
        if den is None:
            dmax = np.minimum(dmax, feas_hi / (1 << halves.shift))
        with np.errstate(all="ignore"):
            bound, unsure = _ranked(halves, row_num(), dmax)
        bound[dmax <= 0 if unsure is None else unsure] = 0.0
        bound[(fhi > hi_out) | (fhi + flo[-1] < lo_out)] = np.inf
        visit = np.argsort(bound, kind="stable")
        bound = bound[visit]
    best, found = np.inf, []
    for k in range(0, fhi.size, step):
        if bound is not None and bound[k] > best * _MARGIN:
            break  # every later row is bounded above the incumbent
        rows = visit[k : k + step]
        fm = fhi[rows, None] + flo
        idx = np.flatnonzero((fm >= lo_out) & (fm <= hi_out))
        if halves.eps:  # inside the band only the exact sums decide
            f = fm.ravel()[idx]
            inside = (f >= lo_in) & (f <= hi_in)
            band = np.flatnonzero(~inside)
            if band.size:
                b = idx[band]
                exact = flo_x[b & low] + fhi_x[rows[b >> h]]
                inside[band] = (exact >= feas_lo) & (exact <= feas_hi)
                idx = idx[inside]
        if not idx.size:
            continue
        r, c = idx >> h, idx & low
        d = fm.ravel()[idx] if den is None else dlo[c] + dhi[rows[r]]
        num = numerator(rows, r, c, False)
        ratio, unsure = _ranked(halves, num, d)
        best = min(best, (ratio if unsure is None else np.where(unsure, np.inf, ratio)).min())
        if unsure is not None:  # kept with ratio -1: settled exactly, never the incumbent
            ratio[unsure] = -1.0
        keep = np.flatnonzero(ratio <= best * _MARGIN)
        found.append((rows[r[keep]] << h | c[keep], ratio[keep], num[keep], d[keep]))
    if not found:
        return None
    mask, ratio, num, d = found[0]
    if len(found) > 1:  # drop the candidates of blocks whose minimum has since been beaten
        mask, ratio, num, d = map(np.concatenate, zip(*found))
        keep = ratio <= best * _MARGIN
        mask, num, d = mask[keep], num[keep], d[keep]
    if halves.rounded:  # the candidates' exact terms, from the exact tables
        rows, cols = mask >> h, mask & low
        num, d = numerator(rows, np.arange(mask.size), cols, True), dlo_x[cols] + dhi_x[rows]
    return _settle(num, d, halves.original(mask))


def _ranked(halves: _Halves, num, den):
    """Float ratios num/den of the shadows, and the mask of those whose num, den
    or ratio is below tiny and so has no error bound (None below 2^1000)."""
    if not halves.tiny:
        return num / den, None
    with np.errstate(all="ignore"):
        ratio = num / den
    return ratio, (np.minimum(num, den) < halves.tiny) | ~(ratio >= halves.tiny)


def _settle(num, den, mask):
    """(num, den, mask) of the exact minimum of num/den over the candidates,
    ties to the smallest mask: one pass over them as Python ints, each
    compared with the least so far by cross-multiplication."""
    candidates = zip(map(int, num.tolist()), map(int, den.tolist()), mask.tolist())
    best_num, best_den, best_mask = next(candidates)
    for n, d, m in candidates:
        lhs, rhs = n * best_den, best_num * d
        if lhs < rhs or lhs == rhs and m < best_mask:
            best_num, best_den, best_mask = n, d, m
    return best_num, best_den, best_mask


def _boundary(halves: _Halves, tables, reach):
    """Numerator m(reach(A) minus A): the union of the per-vertex reach masks
    over A, less A, looked up in the mass tables; and its row bound, the
    mass of the row half's part of reach(H) minus H."""
    col_lo, col_hi, row_lo, row_hi = halves.unions(reach)

    def numerator(rows, r, c, exact):
        mlo, mhi = tables[0] if exact else tables[1]
        j = rows[r]
        return mlo[(col_lo[c] | row_lo[j]) & ~c] + mhi[(col_hi[c] | row_hi[j]) & ~j]

    return numerator, lambda: tables[1][1][row_hi & ~np.arange(row_hi.size)]


def _cut(halves: _Halves, n: int, edges, weights):
    """Tables of vol(A) = mu(A), with mu the vertex marginal of the weights,
    and the numerator a(cut A), summed from nonnegative terms only: the cut
    inside the column half, the cut inside the row half, and the edges
    between the halves, [1 - x, x] @ [P; Q] per block of rows with P the
    weight from the column set to each row-half vertex and Q the weight from
    the rest of the column half.  A candidate's exact cut sums the same terms
    from the exact tables, over its row's bits.  The row bound is the cut
    inside the row half, a(E(H, row half minus H))."""
    h = halves.h
    if halves.order is not None:
        edges = [(halves.position[u], halves.position[v]) for u, v in edges]
    sym = np.zeros((n, n), dtype=halves.dtype)
    for (u, v), w in zip(edges, weights):
        sym[u, v] = sym[v, u] = w
    vol = halves.tables(sym.sum(axis=1))
    low = (1 << h) - 1
    outside = _bit_table(h, sides=True)[:, :h], _bit_table(n - h, sides=True)[:, : n - h]
    weight_to = halves.subset_sums(0, sym[:h])  # [c, v]: the weight from the column set c to v
    across = weight_to[:, h:]
    cut = (weight_to[:, :h] * outside[0]).sum(axis=1), (halves.subset_sums(1, sym[h:, h:]) * outside[1]).sum(1)
    cut_s = halves.shadow(cut[0]), halves.shadow(cut[1])
    p = np.asarray(halves.shadow(across), dtype=np.float64)
    pq = np.concatenate((p, p[::-1]), axis=1).T  # p[low ^ c]: the weight from the column half minus c
    select = _bit_table(n - h, np.float64, True)
    xhi = halves.bits[1]

    def numerator(rows, r, c, exact):
        j = rows[r]
        if exact:
            x = xhi[j]
            return cut[0][c] + cut[1][j] + ((1 - x) * across[c] + x * across[c ^ low]).sum(axis=1)
        return cut_s[0][c] + cut_s[1][j] + (select[rows] @ pq)[r, c]

    return vol, numerator, lambda: cut_s[1]
