"""Lp Poincare energies, explicit lower-bound constants, and numerical search
for the optimal constant.

Conventions: every inequality here sums over ordered pairs on both sides,
  sum_{u~v} |f(u)-f(v)|^p a(u,v)  >=  c_p sum_{u,v} |f(u)-f(v)|^p mu(u)mu(v)/mu(V)
so the edge-sum form is obtained by halving the left side.  This removes the
classic factor-of-two ambiguity; tests cross-check both conventions.  Both
sides, their gradients and Hessians are read off one pair form: the pairs
u < v, each weighted by 2 a(u,v) and by 2 mu(u)mu(v)/mu(V) (see _arrays).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import MeasuredGraph
from .rationals import InputError, scaled_floats
from .spectral import delta_operator, eigenpairs
from .walks import ReversibleWalk, _auxiliary_conductance

_SMOOTHING_EPS = 1e-9
_STALL_WINDOW = 20
_STALL_RTOL = 1e-12
_BATCH_STEPS = 100


@dataclass(frozen=True)
class PoincareEstimate:
    """Best energy ratio found by optimal_lp_constant.

    The estimate equals the unsmoothed ratio at the minimizer, an upper bound
    on the true constant; the ratio is even, so the minimizer is signed to
    make its first largest-magnitude entry positive.  `converged` means the
    Newton stop test fired before the iteration cap; `gradient_norm` is the
    projected gradient norm there; `iterations` counts batch and Newton steps.
    """

    p: float
    estimate: float
    minimizer: tuple[float, ...]
    restarts: int
    converged: bool
    gradient_norm: float
    iterations: int


def cp_formula(c: float, p: float) -> float:
    """Explicit Poincare constant obtained from a positive Cheeger constant c.

    Piecewise in p: c^2/2 on [1, 2), and
    (4c^2 / (p^2 2^(1+2/p)))^(p/2) / 2^(p+1) for p >= 2.
    """
    if c <= 0:
        raise InputError("Cheeger constant must be positive")
    _check_exponent(p)
    if p < 2:
        value = c * c / 2.0
    elif p >= 1023.0:
        raise InputError(f"c_p at p = {p!r} is beyond the float range: 2^(p+1) overflows")
    else:
        base = 4.0 * c * c / (p * p * 2.0 ** (1.0 + 2.0 / p))
        try:
            value = base ** (p / 2.0) / 2.0 ** (p + 1.0)
        except OverflowError:
            raise InputError(f"c_p at p = {p!r} is beyond the float range: base^(p/2) overflows") from None
    if value == 0.0:
        raise InputError(f"c_p at p = {p!r} is beyond the float range: it underflows to 0.0")
    return value


def kappa_constant(max_valency: int, s: float, c: float, p: float, rho_plus_at_1: float) -> float:
    """Uniform p-energy bound rho(1)^p K (1+s) / (s c_p) for Lipschitz maps
    out of a bounded-ratio measured graph with Cheeger constant c."""
    if max_valency <= 0 or not 0 < s <= 1:
        raise InputError("need valency bound >= 1 and s in (0, 1]")
    if rho_plus_at_1 < 0:
        raise InputError("rho_plus(1) must be nonnegative")
    with np.errstate(over="ignore"):  # rho(1)^p past the largest float is inf, refused below
        kappa = float(np.float64(rho_plus_at_1) ** p * max_valency * (1.0 + s) / (s * cp_formula(c, p)))
    if kappa == np.inf:
        raise InputError(f"kappa at p = {p!r} is beyond the float range: it overflows to infinity")
    return kappa


def _check_exponent(p: float) -> None:
    if not 1 <= p < np.inf:  # NaN fails too
        raise InputError(f"p must be a finite number of at least 1, not {p!r}")


# -- energies ---------------------------------------------------------------


def _walk_arrays(walk: ReversibleWalk):
    """The pair form of a walk's energies (see _arrays)."""
    return _arrays(walk.graph, [walk.a[e] for e in walk.graph.edges], walk.mu, walk.total_mu)[0]


def _arrays(graph: MeasuredGraph, edge_weights, weights, total):
    """Pair form of both energies, and the shift: pairs u < v in triu order and their weights
    2 a(u, v) (0 off the edges) and 2 mu(u)mu(v)/mu(V) as two columns, both times 2^-shift."""
    iu, iv, index, _ = _pairs(graph.n)
    x, shift = scaled_floats([*edge_weights, *weights, total])
    w = x[len(edge_weights) : -1]
    pair_weights = np.column_stack([np.zeros(len(iu)), w[iu] * w[iv] / x[-1]])
    pair_weights[index[tuple(np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T)], 0] = x[: len(edge_weights)]
    return (iu, iv, 2.0 * pair_weights), shift


def _energies(form, F: np.ndarray, p: float, eps: float = 0.0):
    """Ordered-pair edge and pair energy of each row of F, from one power per pair
    u < v of d = F[:, u] - F[:, v]: |d|^p (d * d would overflow at half d's float
    range), or (d^2 + eps^2)^(p/2) when eps > 0, where the pair energy leaves out the
    constant diagonal terms mu(u)^2 eps^p / mu(V), about 1e-14 of it at p = 1.5."""
    iu, iv, weights = form
    d = F[:, iu] - F[:, iv]
    return (((d * d + eps * eps) ** (p / 2.0) if eps > 0.0 else np.abs(d) ** p) @ weights).T


def _in_range(edge: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Where both energies lie within 1e-150..1e150, the range that keeps the ratio gradient finite."""
    return (np.minimum(edge, pair) > 1e-150) & (np.maximum(edge, pair) < 1e150)


def lp_energy_pair(walk: ReversibleWalk, f: Sequence[float], p: float) -> tuple[float, float]:
    """(edge energy, pair energy) of a single function, ordered-pair convention."""
    return _walk_energies(walk, f, p)[:2]


def lp_energy_ratio(walk: ReversibleWalk, f: Sequence[float], p: float) -> float:
    """Ratio of the edge energy to the pair energy; errors on constant f."""
    return _ratio(*_walk_energies(walk, f, p)[2:])


@dataclass(frozen=True)
class MeasuredEnergyCheck:
    lhs: float
    rhs: float
    ratio: float


def measured_lp_check(graph: MeasuredGraph, f: Sequence[float], p: float) -> MeasuredEnergyCheck:
    """Both sides of the measured Lp inequality: edge energy against the pair
    form taken in the vertex measure m (not in the stationary measure)."""
    if not graph.full_support:
        raise InputError(f"vertex {graph.labels[graph.measure.index(0)]!r} has zero measure")
    aw = _auxiliary_conductance(graph)
    lhs, rhs, edge, pair = _function_energies(graph, aw, graph.measure, graph.total_measure, f, p)
    return MeasuredEnergyCheck(lhs=lhs, rhs=rhs, ratio=_ratio(edge, pair))


def _walk_energies(walk: ReversibleWalk, f: Sequence[float], p: float):
    return _function_energies(walk.graph, [walk.a[e] for e in walk.graph.edges], walk.mu, walk.total_mu, f, p)


def _function_energies(graph, edge_weights, weights, total, f: Sequence[float], p: float) -> tuple[float, ...]:
    """Edge and pair energy of one function (inf or 0.0 past the float range),
    then both times 2^-shift, the scale near 1 at which ratios are taken."""
    _check_exponent(p)
    vec = np.asarray(f, dtype=float)
    if vec.shape != (graph.n,):
        raise InputError(f"function length {vec.shape} does not match {graph.n} vertices")
    form, shift = _arrays(graph, edge_weights, weights, total)
    (edge,), (pair,) = _energies(form, vec[None, :], p)
    with np.errstate(over="ignore"):
        return float(np.ldexp(edge, shift)), float(np.ldexp(pair, shift)), float(edge), float(pair)


def _ratio(edge: float, pair: float) -> float:
    if pair == 0.0:
        raise InputError("constant function: pair energy vanishes")
    return edge / pair


# -- optimizer ----------------------------------------------------------------


def optimal_lp_constant(
    walk: ReversibleWalk, p: float, restarts: int = 64, seed: int = 0, max_iters: int = 800
) -> PoincareEstimate:
    """Multi-start projected gradient descent on the Lp energy ratio, then
    Newton steps on the best restart.

    The batch, `restarts` seeded Gaussian rows and the delta-pencil
    eigenvector of the first nonzero eigenvalue (the optimum at p = 2), takes
    backtracked steps in lockstep: 100, or fewer once its best ratio falls by
    at most 1e-12 times itself over 20.  Newton steps use the Hessian on the
    tangent space of the sphere orthogonal to the constants: a Newton step
    along positive curvature, the batch's gradient step elsewhere, halved
    until the ratio falls.  They stop, reporting `converged`, once no halved
    step lowers the ratio or one lowers it by at most 1e-14 times itself;
    max_iters caps both phases.  For p < 2 both descend a smoothed ratio
    (eps = 1e-9); the estimate is the unsmoothed ratio at the final point.
    """
    _check_exponent(p)
    n = walk.graph.n
    if n < 2 or not walk.graph.connected:
        raise InputError("optimal constant search needs a connected graph on at least two vertices")
    if restarts < 1:
        raise InputError("need at least one restart")
    form = _walk_arrays(walk)
    eps = _SMOOTHING_EPS if p < 2 else 0.0
    rng = random.Random(seed)
    start = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(restarts)]
    F = _project(np.array([*start, eigenpairs(delta_operator(walk))[1][:, 1]]))
    with np.errstate(all="ignore"):  # at an extreme p no start row's energies are in range
        edge, pair = _energies(form, F, p, eps)
        ratio = edge / pair
    eta = np.full(len(F), 0.1)
    history, iterations = [ratio.min()], 0
    valid = _in_range(edge, pair)  # with no start row in range the batch is skipped
    while valid.any() and iterations < min(_BATCH_STEPS, max_iters):
        grad = _ratio_gradient(form, F, p, eps, edge, pair)
        tangent = grad - (grad * F).sum(axis=1, keepdims=True) * F
        tangent = tangent - tangent.mean(axis=1, keepdims=True)
        iterations += 1
        cand = _project(F - eta[:, None] * tangent)
        cand_edge, cand_pair = _energies(form, cand, p, eps)
        cand_ratio = cand_edge / cand_pair
        accept = np.isfinite(cand_ratio) & (cand_ratio < ratio - 1e-15 * np.abs(ratio))
        F = np.where(accept[:, None], cand, F)
        ratio = np.where(accept, cand_ratio, ratio)
        edge, pair = np.where(accept, cand_edge, edge), np.where(accept, cand_pair, pair)
        eta = np.clip(np.where(accept, eta * 1.25, eta * 0.5), 1e-18, 1e3)
        history.append(ratio.min())
        if iterations >= _STALL_WINDOW and history[-1 - _STALL_WINDOW] - history[-1] <= _STALL_RTOL * history[-1]:
            break
    valid = _in_range(edge, pair)
    best = np.argmin(np.where(valid, ratio, np.inf), keepdims=True)
    if not valid[best[0]]:
        raise InputError(f"at p = {p!r} the energies leave the float range the search needs, 1e-150 to 1e150")
    f, edge, pair, converged = F[best], edge[best], pair[best], False
    backtrack = np.append(0.5 ** np.arange(40), 0.0)  # Newton step factors; the last one stays put
    while True:
        grad = _ratio_gradient(form, f, p, eps, edge, pair)[0]
        proj = np.eye(n) - 1.0 / n - np.outer(f, f)
        tangent = proj @ grad
        if converged or iterations >= max_iters:
            break
        iterations += 1
        hess = _ratio_hessian(form, f[0], p, eps, edge[0], pair[0], grad)
        curvature, basis = np.linalg.eigh(np.einsum("ij,jk,kl->il", proj, hess, proj))
        step = basis.T @ tangent / np.where(curvature > 1e-12 * np.abs(curvature).max(), curvature, 1.0 / eta[best])
        cand = _project(f - backtrack[:, None] * (basis @ step))
        cand_edge, cand_pair = _energies(form, cand, p, eps)
        ratio, cand_ratio = edge[0] / pair[0], cand_edge / cand_pair
        fell = _in_range(cand_edge, cand_pair) & (cand_ratio < ratio - 1e-15 * ratio)
        k = np.append(np.flatnonzero(fell), -1)[:1]
        converged = ratio - cand_ratio[k[0]] <= 1e-14 * ratio
        f, edge, pair = cand[k], cand_edge[k], cand_pair[k]
    final_edge, final_pair = _energies(form, f, p, 0.0)
    return PoincareEstimate(
        p=float(p),
        estimate=float(final_edge[0] / final_pair[0]),
        minimizer=tuple(float(x) for x in f[0] * np.sign(f[0, np.abs(f[0]).argmax()])),
        restarts=restarts,
        converged=bool(converged),
        gradient_norm=float(np.sqrt(tangent @ tangent)),
        iterations=iterations,
    )


def _project(F: np.ndarray) -> np.ndarray:
    """Remove the constant component and normalize each row.  No row is
    constant: the starts are continuous draws, and every step adds a vector
    orthogonal to its row."""
    out = F - F.mean(axis=1, keepdims=True)
    return out / np.sqrt((out * out).sum(axis=1, keepdims=True))


def _ratio_gradient(form, F, p, eps, edge, pair):
    """Gradient of r = E/P for each row of F, given its energies: per pair
    phi'(d) = p d (d^2 + eps^2)^((p-2)/2) times (w_E P - E w_P) / P^2, laid out
    as an antisymmetric (n, n) matrix and summed along its rows (see _pairs).
    Needs eps > 0 or p >= 2: otherwise the power is infinite at d = 0."""
    iu, iv, weights = form
    d = F[:, iu] - F[:, iv]
    mix = (pair[:, None] * weights[:, 0] - edge[:, None] * weights[:, 1]) / (pair * pair)[:, None]
    _, _, index, sign = _pairs(F.shape[1])
    return np.einsum("rxy,xy->rx", (p * d * (d * d + eps * eps) ** ((p - 2.0) / 2.0) * mix)[:, index], sign)


def _ratio_hessian(form, f, p, eps, edge, pair, grad):
    """Hessian (H_E - r H_P - dP grad^T - grad dP^T) / P of r = E/P at one
    point f, given E, P and the ratio gradient there; H_E - r H_P is the
    Laplacian diag(W 1) - W of the pair weights W = phi''(d) (w_E - r w_P)."""
    iu, iv, weights = form
    d = f[iu] - f[iv]
    s = d * d + eps * eps
    if eps > 0.0:
        second = p * s ** (p / 2.0 - 2.0) * ((p - 1.0) * d * d + eps * eps)
    else:  # the smoothed form would be inf * 0 at d = 0
        second = p * (p - 1.0) * s ** (p / 2.0 - 1.0)
    w_edge, w_pair = weights.T
    _, _, index, sign = _pairs(len(f))
    W = (second * (w_edge - edge / pair * w_pair))[index] * np.abs(sign)
    cross = np.outer(np.einsum("xy,xy->x", (p * d * s ** (p / 2.0 - 1.0) * w_pair)[index], sign), grad)
    return (np.diag(W.sum(axis=1)) - W - cross - cross.T) / pair


@functools.lru_cache(maxsize=4)
def _pairs(n: int):
    """Pairs u < v in triu order, then the index of the pair {x, y} at [x, y] (0 at x = y) and the sign
    of y - x there: they lay per-pair values out as an (n, n) matrix, O(n^2) where an incidence is O(n^3)."""
    iu, iv = np.triu_indices(n, 1)
    index = np.zeros((n, n), dtype=np.intp)
    index[iu, iv] = index[iv, iu] = np.arange(len(iu))
    return iu, iv, index, np.sign(np.arange(n) - np.arange(n)[:, None]).astype(float)
