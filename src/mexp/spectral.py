"""Graph Laplacians as symmetric pencils, spectral gaps, and the co-area identity.

Two operators are built, both as a pencil (stiffness L, diagonal mass D)
where L is the weighted graph Laplacian of an edge weight w:
L[u,v] = -w(u,v) and L[u,u] = sum_v w(u,v).

  delta (walk Laplacian on l2(V; mu)):
      weight the conductance a, mass mu (so L[u,u] = mu(u)).  L f = lam D f
      is the eigenproblem of f(v) - sum_u f(u) r(v,u); the spectrum lies in
      [0, 2].

  lambda (measured-graph operator on l2(V; m)):
      weight the conductance m(u) + m(v), mass m: the delta pencil of the
      auxiliary walk with its mass mu replaced by m.  Its smallest positive
      eigenvalue is the best constant lam in
      sum_{u~v} |f(u)-f(v)|^2 (m(u)+m(v)) >= 2 lam sum |f|^2 m
      over functions with sum f(v) m(v) = 0.

The pencil is reduced by D^(-1/2) conjugation and diagonalized with LAPACK's
symmetric eigensolver (numpy.linalg.eigh).  The rationals become floats once,
in rationals.scaled_floats, whose power-of-two scale moves no eigenvalue; the
co-area check below stays exact, in integers over one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import MeasuredGraph
from .rationals import InputError, scaled_floats, scaled_integers
from .walks import ReversibleWalk, _auxiliary_conductance


@dataclass(frozen=True)
class SelfAdjointOperator:
    """Symmetric pencil (stiffness, diagonal mass) of a graph operator, both maybe times 2^-shift (scaled_floats).

    components is the number of connected components of the weighted graph;
    with positive weights it is exactly the dimension of the kernel.
    """

    stiffness: np.ndarray
    mass_diagonal: np.ndarray
    components: int

    @property
    def n(self) -> int:
        return self.stiffness.shape[0]


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues, the spectral gap, and the kernel dimension.

    zero_multiplicity is the number of connected components of the
    underlying graph, taken from the graph and not read off the computed
    eigenvalues; gap is the eigenvalue that follows the kernel (None if there
    is none), however small it is.
    """

    eigenvalues: tuple[float, ...]
    gap: float | None
    zero_multiplicity: int


def delta_operator(walk: ReversibleWalk) -> SelfAdjointOperator:
    """Pencil representing the walk Laplacian on l2(V; mu)."""
    edges = walk.graph.edges
    return _pencil(walk.graph.n, edges, [walk.a[e] for e in edges], walk.mu, walk.graph.component_count)


def lambda_operator(graph: MeasuredGraph) -> SelfAdjointOperator:
    """Pencil whose smallest positive eigenvalue is the measured spectral gap."""
    weights = _auxiliary_conductance(graph)
    if not graph.connected:
        raise InputError("the measured spectral gap is defined for connected graphs")
    return _pencil(graph.n, graph.edges, weights, graph.measure, 1)


def _pencil(n: int, edges, weights, mass, components: int) -> SelfAdjointOperator:
    """Weighted graph Laplacian of the edge weights, diagonal the row sums,
    with the given diagonal mass and the graph's component count."""
    scaled, _ = scaled_floats([*weights, *mass])
    u, v = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    stiff = np.zeros((n, n))
    stiff[u, v] = stiff[v, u] = -scaled[: len(weights)]
    stiff[np.diag_indices(n)] = -stiff.sum(axis=1)
    return SelfAdjointOperator(stiff, scaled[len(weights) :], components)


def eigenpairs(op: SelfAdjointOperator):
    """Eigenvalues (ascending) and pencil eigenvectors of (stiffness, mass).

    The pencil is symmetrized as M = D^(-1/2) L D^(-1/2), exactly symmetric
    since L is and float products commute; eigenvectors are mapped back by
    D^(-1/2) so that L v = lam D v.
    """
    d = op.mass_diagonal
    if np.any(d <= 0):
        raise InputError("mass diagonal must be strictly positive")
    inv_sqrt = 1.0 / np.sqrt(d)
    sym = op.stiffness * np.outer(inv_sqrt, inv_sqrt)
    w, u = np.linalg.eigh(sym)
    vecs = inv_sqrt[:, None] * u
    return w, vecs


def spectrum(op: SelfAdjointOperator) -> SpectralResult:
    """Full eigenvalue list of the pencil with gap and kernel multiplicity."""
    w, _ = eigenpairs(op)
    # w is ascending and the kernel has one dimension per component, so the
    # gap is eigenvalue number k
    k = op.components
    return SpectralResult(
        eigenvalues=tuple(w.tolist()),
        gap=float(w[k]) if k < len(w) else None,
        zero_multiplicity=k,
    )


@dataclass(frozen=True)
class CoareaReport:
    """Exact decomposition of the squared-difference edge energy into level sets.

    direct      sum over edges of |f(u)^2 - f(v)^2| * a(u,v)
    level_sum   sum over level sets L_i = {f >= beta_i} of
                a(cut L_i) * (beta_i^2 - beta_{i-1}^2)
    equal       exact comparison of the two integer numerators; always True
    """

    direct: Fraction
    level_sum: Fraction
    equal: bool


def coarea_check(walk: ReversibleWalk, f: Sequence) -> CoareaReport:
    """Verify the level-set decomposition for a nonnegative rational function.

    Both sides are exact integers over one common denominator q^2 * scale,
    f = F/q (q the lcm of its denominators) and a = A/scale (walk.integer_conductances),
    from _coarea_sides on the one row F: int64 when sum(A) * max(F)^2 < 2^63 bounds
    every term and partial sum, else Python ints.  Each level set's cut is
    summed on its own, so the comparison is not vacuous.
    """
    big_f, q = scaled_integers(f)
    if len(big_f) != walk.graph.n:
        raise InputError(f"function has {len(big_f)} entries for {walk.graph.n} vertices")
    for v, x in enumerate(big_f):
        if x < 0:
            raise InputError(f"entry {v} is negative ({Fraction(x, q)}); the identity needs f >= 0")
    direct, level_sum = (int(side[0]) for side in _coarea_sides(walk, [big_f]))
    den = q * q * walk.integer_conductances[1]
    return CoareaReport(Fraction(direct, den), Fraction(level_sum, den), direct == level_sum)


_BLOCK_ENTRIES = 1 << 16  # entries of one block's (rows, levels, edges) cut tensor; a block has at least one row


def _coarea_sides(walk: ReversibleWalk, rows):
    """The integer sides of CoareaReport for each row F of nonnegative integers (lists or an
    integer array), in blocks of rows: the levels beta_i are the sorted row, where equal
    neighbours weigh beta_i^2 - beta_{i-1}^2 = 0, and each level's cut comes
    from _level_cut on its own."""
    weights, _ = walk.integer_conductances
    big_f = np.asarray(rows)
    big_f = big_f.astype(np.int64 if sum(weights) * int(big_f.max()) ** 2 < 1 << 63 else object)
    u, v = np.array(walk.graph.edges, dtype=np.intp).T
    edges = (u, v, np.array(weights, dtype=big_f.dtype))
    step = max(1, _BLOCK_ENTRIES // ((big_f.shape[1] - 1) * len(u)))
    direct, level_sum = [], []
    for start in range(0, len(big_f), step):
        block = big_f[start : start + step]
        betas = np.sort(block, axis=1)
        direct.append(np.abs(block[:, u] ** 2 - block[:, v] ** 2) @ edges[2])
        weight = betas[:, 1:] ** 2 - betas[:, :-1] ** 2
        level_sum.append((_level_cut(edges, block, betas[:, 1:]) * weight).sum(axis=1))
    return np.concatenate(direct), np.concatenate(level_sum)


def _level_cut(edges, values, level):
    """Weight of the edges (u, v, A) with exactly one end in {values >= level}, per row and level."""
    u, v, a = edges
    return ((values[:, None, u] >= level[..., None]) != (values[:, None, v] >= level[..., None])) @ a


def delta_gap(walk: ReversibleWalk) -> float:
    """Spectral gap of the walk Laplacian of a connected graph; it exists,
    since mu > 0 leaves no isolated vertex, so n >= 2."""
    if not walk.graph.connected:
        raise InputError("the walk's spectral gap is defined for connected graphs")
    return spectrum(delta_operator(walk)).gap


def measured_gap(graph: MeasuredGraph) -> float:
    """Measured spectral gap: smallest positive eigenvalue of the lambda pencil."""
    result = spectrum(lambda_operator(graph))
    if result.gap is None:
        raise InputError("measured-gap pencil has no positive eigenvalue")
    return result.gap
