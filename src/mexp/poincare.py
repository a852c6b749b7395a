"""Lp Poincare energies, explicit lower-bound constants, and numerical search
for the optimal constant.

Conventions: every inequality here sums over ordered pairs on both sides,
  sum_{u~v} |f(u)-f(v)|^p a(u,v)  >=  c_p sum_{u,v} |f(u)-f(v)|^p mu(u)mu(v)/mu(V)
so the edge-sum form is obtained by halving the left side.  This removes the
classic factor-of-two ambiguity; tests cross-check both conventions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import MeasuredGraph
from .rationals import InputError
from .walks import ReversibleWalk

_SMOOTHING_EPS = 1e-9
_STALL_WINDOW = 20
_STALL_RTOL = 1e-12


@dataclass(frozen=True)
class PoincareEstimate:
    """Best energy ratio found by multi-start projected gradient descent.

    The estimate always equals the unsmoothed ratio at the reported
    minimizer, so it is an upper bound on the true optimal constant.
    `converged` means the stall test stopped the search before the
    iteration cap; `gradient_norm` is the projected gradient norm of the
    best restart at the final point, and `iterations` the steps taken.
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
    if not p >= 1:  # NaN fails too
        raise InputError("p must be at least 1")
    if p < 2:
        return c * c / 2.0
    base = 4.0 * c * c / (p * p * 2.0 ** (1.0 + 2.0 / p))
    return base ** (p / 2.0) / 2.0 ** (p + 1.0)


def kappa_constant(max_valency: int, s: float, c: float, p: float, rho_plus_at_1: float) -> float:
    """Uniform p-energy bound rho(1)^p K (1+s) / (s c_p) for Lipschitz maps
    out of a bounded-ratio measured graph with Cheeger constant c."""
    if max_valency <= 0 or not 0 < s <= 1:
        raise InputError("need valency bound >= 1 and s in (0, 1]")
    if rho_plus_at_1 < 0:
        raise InputError("rho_plus(1) must be nonnegative")
    return rho_plus_at_1 ** p * max_valency * (1.0 + s) / (s * cp_formula(c, p))


# -- energies ---------------------------------------------------------------


def _walk_arrays(walk: ReversibleWalk):
    """Edge ends, conductances and the pair weights mu(u)mu(v)/mu(V) of a walk."""
    return _arrays(walk.graph, [walk.a[e] for e in walk.graph.edges], walk.mu, walk.total_mu)


def _arrays(graph: MeasuredGraph, edge_weights, weights, total):
    eu = np.array([u for u, _ in graph.edges], dtype=np.intp)
    ev = np.array([v for _, v in graph.edges], dtype=np.intp)
    w = np.array([float(x) for x in weights])
    return eu, ev, np.array([float(x) for x in edge_weights]), np.outer(w, w) / float(total)


def _energies(eu, ev, aw, pairw, F: np.ndarray, p: float, eps: float = 0.0):
    """Ordered-pair edge energy and pair energy for a batch F of row vectors."""
    edge = 2.0 * (aw * _magnitude(F[:, eu] - F[:, ev], eps) ** p).sum(axis=1)
    pair = (pairw * _magnitude(F[:, :, None] - F[:, None, :], eps) ** p).sum(axis=(1, 2))
    return edge, pair


def _magnitude(x: np.ndarray, eps: float) -> np.ndarray:
    """|x|, or its smoothing sqrt(x^2 + eps^2) when eps > 0."""
    return np.sqrt(x * x + eps * eps) if eps > 0.0 else np.abs(x)


def lp_energy_pair(walk: ReversibleWalk, f: Sequence[float], p: float) -> tuple[float, float]:
    """(edge energy, pair energy) of a single function, ordered-pair convention."""
    return _function_energies(_walk_arrays(walk), walk.graph.n, f, p)


def lp_energy_ratio(walk: ReversibleWalk, f: Sequence[float], p: float) -> float:
    """Ratio of the edge energy to the pair energy; errors on constant f."""
    edge, pair = lp_energy_pair(walk, f, p)
    if pair == 0.0:
        raise InputError("constant function: pair energy vanishes")
    return edge / pair


@dataclass(frozen=True)
class MeasuredEnergyCheck:
    lhs: float
    rhs: float
    ratio: float


def measured_lp_check(graph: MeasuredGraph, f: Sequence[float], p: float) -> MeasuredEnergyCheck:
    """Both sides of the measured Lp inequality: edge energy against the pair
    form taken in the vertex measure m (not in the stationary measure)."""
    if 0 in graph.measure:
        raise InputError(f"vertex {graph.labels[graph.measure.index(0)]!r} has zero measure")
    aw = [graph.measure[u] + graph.measure[v] for u, v in graph.edges]
    lhs, rhs = _function_energies(_arrays(graph, aw, graph.measure, graph.total_measure), graph.n, f, p)
    if rhs == 0.0:
        raise InputError("constant function: pair energy vanishes")
    return MeasuredEnergyCheck(lhs=lhs, rhs=rhs, ratio=lhs / rhs)


def _function_energies(arrays, n: int, f: Sequence[float], p: float) -> tuple[float, float]:
    if not p >= 1:  # NaN fails too
        raise InputError("p must be at least 1")
    vec = np.asarray(f, dtype=float)
    if vec.shape != (n,):
        raise InputError(f"function length {vec.shape} does not match {n} vertices")
    edge, pair = _energies(*arrays, vec[None, :], p)
    return float(edge[0]), float(pair[0])


# -- optimizer ----------------------------------------------------------------


def optimal_lp_constant(
    walk: ReversibleWalk,
    p: float,
    restarts: int = 64,
    seed: int = 0,
    max_iters: int = 800,
) -> PoincareEstimate:
    """Multi-start projected gradient descent on the Lp energy ratio.

    All restarts run in lockstep as a batch; steps come from backtracking
    (halve on failure, grow on success).  For p < 2 the optimizer descends a
    smoothed ratio (|x| ~ sqrt(x^2 + eps^2), eps = 1e-9).  The search stops
    when the best (smoothed) ratio over the batch has fallen by at most
    1e-12 times itself over the last 20 iterations, which reports
    `converged`, or after max_iters iterations.  The reported estimate is
    always the unsmoothed ratio at the final point, which keeps it a true
    upper bound on the optimal constant.  Deterministic given the seed.
    """
    if not p >= 1:  # NaN fails too
        raise InputError("p must be at least 1")
    if not walk.graph.connected:
        raise InputError("optimal constant search needs a connected graph")
    if restarts < 1:
        raise InputError("need at least one restart")
    n = walk.graph.n
    eu, ev, aw, pairw = _walk_arrays(walk)
    # the edge part of the ratio gradient is one product t @ incidence
    vertices = np.arange(n)
    incidence = (eu[:, None] == vertices).astype(float) - (ev[:, None] == vertices)
    arrays = (eu, ev, aw, pairw, incidence)
    eps = _SMOOTHING_EPS if p < 2 else 0.0
    rng = random.Random(seed)
    start = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(restarts)])
    F = _project(start)
    edge, pair = _energies(eu, ev, aw, pairw, F, p, eps)
    ratio = edge / pair
    eta = np.full(restarts, 0.1)
    history = [ratio.min()]
    iterations, converged = 0, False
    while True:
        grad = _ratio_gradient(arrays, F, p, eps, edge, pair)
        tangent = grad - (grad * F).sum(axis=1, keepdims=True) * F
        tangent = tangent - tangent.mean(axis=1, keepdims=True)
        if converged or iterations >= max_iters:
            break
        iterations += 1
        cand = _project(F - eta[:, None] * tangent)
        cand_edge, cand_pair = _energies(eu, ev, aw, pairw, cand, p, eps)
        cand_ratio = cand_edge / cand_pair
        accept = np.isfinite(cand_ratio) & (cand_ratio < ratio - 1e-15 * np.abs(ratio))
        F = np.where(accept[:, None], cand, F)
        ratio = np.where(accept, cand_ratio, ratio)
        edge = np.where(accept, cand_edge, edge)
        pair = np.where(accept, cand_pair, pair)
        eta = np.clip(np.where(accept, eta * 1.25, eta * 0.5), 1e-18, 1e3)
        history.append(ratio.min())
        fall = history[-1 - _STALL_WINDOW] - history[-1] if iterations >= _STALL_WINDOW else np.inf
        converged = bool(fall <= _STALL_RTOL * history[-1])
    grad_norm = np.sqrt((tangent * tangent).sum(axis=1))
    final_edge, final_pair = _energies(eu, ev, aw, pairw, F, p, 0.0)
    final_ratio = final_edge / final_pair
    best = int(np.argmin(final_ratio))
    return PoincareEstimate(
        p=float(p),
        estimate=float(final_ratio[best]),
        minimizer=tuple(float(x) for x in F[best]),
        restarts=restarts,
        converged=converged,
        gradient_norm=float(grad_norm[best]),
        iterations=iterations,
    )


def _project(F: np.ndarray) -> np.ndarray:
    """Remove the constant component and normalize each row."""
    out = F - F.mean(axis=1, keepdims=True)
    norms = np.sqrt((out * out).sum(axis=1, keepdims=True))
    bad = norms < 1e-12
    if not bad.any():
        return out / norms
    fallback = np.zeros_like(out)
    fallback[:, 0] = 1.0
    fallback = fallback - fallback.mean(axis=1, keepdims=True)
    fallback /= np.sqrt((fallback * fallback).sum(axis=1, keepdims=True))
    return np.where(bad, fallback, out / np.where(bad, 1.0, norms))


def _phi_prime(x: np.ndarray, p: float, eps: float) -> np.ndarray:
    if eps > 0.0:
        sq = x * x + eps * eps
        return p * x * sq ** ((p - 2.0) / 2.0)
    if p == 2.0:
        return 2.0 * x
    return p * np.sign(x) * np.abs(x) ** (p - 1.0)


def _ratio_gradient(arrays, F, p, eps, edge, pair):
    eu, ev, aw, pairw, incidence = arrays
    t = 2.0 * aw * _phi_prime(F[:, eu] - F[:, ev], p, eps)
    grad_edge = t @ incidence
    diff = F[:, :, None] - F[:, None, :]
    grad_pair = 2.0 * np.einsum("ruv,uv->ru", _phi_prime(diff, p, eps), pairw)
    return (grad_edge * pair[:, None] - edge[:, None] * grad_pair) / (pair * pair)[:, None]

