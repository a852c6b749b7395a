"""Reversible random walks on measured graphs.

A walk is stored by its symmetric positive edge conductance a; the stationary
measure mu(u) = sum_v a(u,v) and the kernel r(u,v) = a(u,v)/mu(u) are derived
views.  Detailed balance mu(u) r(u,v) = a(u,v) = a(v,u) = mu(v) r(v,u) and
unit row sums then hold identically in rational arithmetic.  This module
holds the walk's data and its constructors only; the checks on it, the
auxiliary-walk conditions included, live in inequalities.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .graphs import MeasuredGraph
from .rationals import InputError, scaled_integers


class WalkError(InputError):
    """Conductance data does not define a reversible walk on the graph."""


@dataclass(frozen=True)
class ReversibleWalk:
    """Reversible random walk given by a conductance on the edges of a graph.

    a maps each edge (u, v) with u < v to a positive rational; mu is the
    per-vertex sum of incident conductances.
    """

    graph: MeasuredGraph
    a: Mapping[tuple[int, int], Fraction]
    mu: tuple[Fraction, ...]

    def r(self, u: int, v: int) -> Fraction:
        """Transition kernel r(u, v) = a(u, v) / mu(u), zero off the edges."""
        return self.a.get((u, v) if u < v else (v, u), Fraction(0)) / self.mu[u]

    @cached_property
    def total_mu(self) -> Fraction:
        return sum(self.mu, Fraction(0))

    @cached_property
    def integer_conductances(self) -> tuple[tuple[int, ...], int]:
        """(A, scale): a(e) == A[i] / scale for the i-th edge e of graph.edges."""
        scaled, scale = scaled_integers([self.a[e] for e in self.graph.edges])
        return tuple(scaled), scale


def from_conductance(graph: MeasuredGraph, a: Mapping) -> ReversibleWalk:
    """Build the reversible walk with the given edge conductance.

    a is a mapping from edge pairs (either orientation) to rationals.  It
    must be defined and positive exactly on the edges of the graph; a vertex
    with no incident conductance would have mu = 0 and is rejected.
    """
    values: dict[tuple[int, int], Fraction] = {}
    for (u, v), val in a.items():
        canon = (u, v) if u < v else (v, u)
        if canon in values and values[canon] != Fraction(val):
            raise WalkError(f"conflicting conductance for edge {canon}")
        values[canon] = Fraction(val)
    edge_set = set(graph.edges)
    for key in values:
        if key not in edge_set:
            raise WalkError(f"conductance given for non-edge {key}")
    for e in graph.edges:
        if e not in values:
            raise WalkError(f"missing conductance for edge {e}")
        if values[e] <= 0:
            raise WalkError(f"conductance on edge {e} must be positive, got {values[e]}")
    mu = [Fraction(0)] * graph.n
    for (u, v), val in values.items():
        mu[u] += val
        mu[v] += val
    for v, m in enumerate(mu):
        if m == 0:
            raise WalkError(f"vertex {graph.labels[v]!r} is isolated (mu = 0)")
    return ReversibleWalk(graph=graph, a=values, mu=tuple(mu))


def auxiliary_walk(graph: MeasuredGraph) -> ReversibleWalk:
    """The canonical walk of a full-support measured graph: a(u,v) = m(u) + m(v).

    For the counting measure this is the simple walk with mu = 2 * valency.
    """
    if not graph.full_support:
        raise WalkError("auxiliary walk needs a measure with full support")
    if not graph.connected:
        raise WalkError("auxiliary walk needs a connected graph")
    return from_conductance(graph, dict(zip(graph.edges, _auxiliary_conductance(graph))))


def _auxiliary_conductance(graph: MeasuredGraph) -> list[Fraction]:
    """The auxiliary walk's conductance m(u) + m(v), in graph.edges order."""
    return [graph.measure[u] + graph.measure[v] for u, v in graph.edges]


def heat_kernel_measure(graph: MeasuredGraph, x0: int, k: int) -> tuple[Fraction, ...]:
    """Distribution of the simple random walk (uniform over neighbors) after
    k steps from x0, as an exact probability vector."""
    if not 0 <= x0 < graph.n:
        raise InputError(f"vertex {x0} out of range 0..{graph.n - 1}")
    if k < 0:
        raise InputError("step count must be nonnegative")
    if not graph.connected:
        raise WalkError("heat kernel measure needs a connected graph")
    p = [Fraction(0)] * graph.n
    p[x0] = Fraction(1)
    for _ in range(k):
        if graph.n == 1:
            break  # a single vertex has nowhere to go
        nxt = [Fraction(0)] * graph.n
        for u in range(graph.n):
            if p[u] == 0:
                continue
            share = p[u] / graph.degree(u)
            for w in graph.neighbors[u]:
                nxt[w] += share
        p = nxt
    return tuple(p)
