"""Shared instance generators for the test suite; deterministic via random.Random."""

from __future__ import annotations

import random
from fractions import Fraction

from mexp import MeasuredGraph, from_conductance
from mexp.families import (
    random_connected_graph,
    random_conductance,
    random_positive_measure,
)


def rand_connected(rng: random.Random, n_lo=3, n_hi=12, measured=False) -> MeasuredGraph:
    n = rng.randrange(n_lo, n_hi + 1)
    graph = random_connected_graph(n, rng)
    if measured:
        return graph.with_measure(random_positive_measure(n, rng))
    return graph


def rand_walk(rng: random.Random, n_lo=3, n_hi=12, auxiliary_of_random_measure=False):
    graph = rand_connected(rng, n_lo, n_hi, measured=auxiliary_of_random_measure)
    if auxiliary_of_random_measure:
        from mexp import auxiliary_walk

        return auxiliary_walk(graph)
    return from_conductance(graph, random_conductance(graph, rng))


# Mersenne primes 2^k - 1 and eight more primes from 998244353 up to 10^30 + 57
LARGE_PRIMES = tuple((1 << k) - 1 for k in (31, 61, 89, 107, 127, 521, 607, 1279)) + (
    998_244_353,
    1_000_000_007,
    1_000_000_009,
    4_294_967_291,
    1_000_000_000_039,
    18_446_744_073_709_551_557,
    (1 << 127) + 45,
    10**30 + 57,
)


def bigint_walk(rng: random.Random, n_lo=3, n_hi=6):
    """Walk whose conductances have distinct large prime denominators, built
    from a dict whose keys are shuffled and partly reversed, so that its
    order differs from graph.edges."""
    graph = rand_connected(rng, n_lo, n_hi)
    dens = rng.sample(LARGE_PRIMES, len(graph.edges))
    keys = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
    conductance = {key: Fraction(rng.randrange(1, 1 << 80), d) for key, d in zip(keys, dens)}
    rng.shuffle(keys)
    return from_conductance(graph, {key: conductance[key] for key in keys})


def rand_sparse_measure(rng: random.Random, n: int, zero_prob=0.35):
    """Nonnegative measure with some zeroed vertices, never all zero."""
    while True:
        m = [
            Fraction(0)
            if rng.random() < zero_prob
            else Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            for _ in range(n)
        ]
        if any(m):
            return m


def possibly_disconnected(rng: random.Random, parts_hi=3, part_n_hi=6) -> MeasuredGraph:
    """Disjoint union of a few random connected blobs (no isolated vertices)."""
    parts = rng.randrange(1, parts_hi + 1)
    edges = []
    measure = []
    offset = 0
    for _ in range(parts):
        n = rng.randrange(2, part_n_hi + 1)
        blob = random_connected_graph(n, rng)
        edges.extend((offset + u, offset + v) for u, v in blob.edges)
        measure.extend([Fraction(1)] * n)
        offset += n
    return MeasuredGraph.build(offset, edges, measure)
