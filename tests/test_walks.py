import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from mexp import (
    MeasuredGraph,
    WalkError,
    auxiliary_walk,
    cheeger_conductance,
    from_conductance,
    heat_kernel_measure,
    verify_auxiliary_walk,
)
from mexp.families import make_cycle, random_regular
from mexp.graphs import vertex_boundary


def k2(m0=1, m1=1):
    return MeasuredGraph.build(2, [(0, 1)], [m0, m1])


class TestFromConductance:
    def test_single_edge(self):
        w = from_conductance(k2(), {(0, 1): 1})
        assert w.mu == (1, 1)
        assert w.r(0, 1) == 1 and w.r(1, 0) == 1

    def test_cycle_constant_two(self):
        g = make_cycle(6)
        w = from_conductance(g, {e: Fraction(2) for e in g.edges})
        assert all(m == 4 for m in w.mu)
        assert all(w.r(u, v) == Fraction(1, 2) for u, v in g.edges)

    def test_star_unit(self):
        g = MeasuredGraph.build(4, [(0, 1), (0, 2), (0, 3)], [1, 1, 1, 1])  # star, center 0
        w = from_conductance(g, {e: 1 for e in g.edges})
        assert w.mu[0] == 3
        assert w.mu[1] == w.mu[2] == w.mu[3] == 1
        assert w.r(1, 0) == 1
        assert w.r(0, 1) == Fraction(1, 3)

    def test_missing_edge_rejected(self):
        g = make_cycle(4)
        partial = {e: Fraction(1) for e in g.edges[:-1]}
        with pytest.raises(WalkError, match="missing conductance"):
            from_conductance(g, partial)

    def test_nonpositive_rejected(self):
        with pytest.raises(WalkError, match="must be positive"):
            from_conductance(k2(), {(0, 1): 0})

    def test_non_edge_rejected(self):
        g = make_cycle(4)
        bad = {e: Fraction(1) for e in g.edges}
        bad[(0, 2)] = Fraction(1)
        with pytest.raises(WalkError, match="non-edge"):
            from_conductance(g, bad)

    def test_detailed_balance_and_row_sums_exact(self):
        rng = random.Random(3)
        for _ in range(25):
            w = helpers.rand_walk(rng, 2, 9)
            g = w.graph
            for u, v in g.edges:
                assert w.mu[u] * w.r(u, v) == w.mu[v] * w.r(v, u)
            for u in range(g.n):
                assert sum((w.r(u, v) for v in g.neighbors[u]), Fraction(0)) == 1
            assert set(w.a) == set(g.edges)


def _digest_and_bigint_walks():
    """Builders of the ACCEPT-11 sandwich digest walks and of bigint walks."""
    builders = [
        lambda i=i: helpers.rand_walk(random.Random(10_000 + i), 3, 12, auxiliary_of_random_measure=True)
        for i in range(25)
    ]
    return builders + [lambda i=i: helpers.bigint_walk(random.Random(500 + i)) for i in range(5)]


class TestIntegerConductances:
    def test_scaled_conductance_in_edge_order(self):
        for build in _digest_and_bigint_walks():
            walk = build()
            weights, scale = walk.integer_conductances
            assert [Fraction(w, scale) for w in weights] == [walk.a[e] for e in walk.graph.edges]
            assert scale == math.lcm(*(a.denominator for a in walk.a.values()))

    def test_cached_read_changes_no_certificate(self):
        for build in _digest_and_bigint_walks():
            fresh, read = build(), build()
            read.integer_conductances
            expected, got = cheeger_conductance(fresh), cheeger_conductance(read)
            assert (got.value, got.witness.mask) == (expected.value, expected.witness.mask)
            # and the certificate is the exact optimum
            value, witnesses = oracles.brute_conductance_minimizers(fresh, fresh.mu)
            assert got.value == value and got.witness.mask == oracles.smallest_mask(witnesses)


class TestAuxiliaryWalk:
    def test_regular_graph_counting_measure(self):
        g = random_regular(10, 3, random.Random(7))
        w = auxiliary_walk(g)
        assert all(m == 6 for m in w.mu)  # twice the valency
        assert all(w.r(u, v) == Fraction(1, 3) for u, v in g.edges)

    def test_k2_uneven(self):
        w = auxiliary_walk(k2(1, 3))
        assert w.a[(0, 1)] == 4
        assert w.mu == (4, 4)
        assert w.r(0, 1) == 1 and w.r(1, 0) == 1

    def test_cycle_counting(self):
        w = auxiliary_walk(make_cycle(6))
        assert all(a == 2 for a in w.a.values())
        assert all(m == 4 for m in w.mu)

    def test_matches_explicit_construction_field_by_field(self):
        rng = random.Random(5)
        for _ in range(10):
            g = helpers.rand_connected(rng, 2, 9, measured=True)
            direct = from_conductance(g, {(u, v): g.measure[u] + g.measure[v] for u, v in g.edges})
            aux = auxiliary_walk(g)
            assert aux.a == direct.a and aux.mu == direct.mu and aux.graph is direct.graph is g

    def test_zero_measure_vertex_rejected(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 0])
        with pytest.raises(WalkError, match="full support"):
            auxiliary_walk(g)

    def test_disconnected_rejected(self):
        g = MeasuredGraph.build(4, [(0, 1), (2, 3)], [1, 1, 1, 1])
        with pytest.raises(WalkError, match="connected"):
            auxiliary_walk(g)

    def test_cut_area_below_boundary_measure(self):
        # a(cut A) <= mu(vertex boundary A) for every subset, exactly
        rng = random.Random(9)
        for _ in range(8):
            w = helpers.rand_walk(rng, 2, 8)
            g = w.graph
            for mask in range(1 << g.n):
                from mexp import VertexSubset

                a = VertexSubset(g.n, mask)
                cut = sum(
                    (w.a[e] for e in g.edges if (mask >> e[0] & 1) != (mask >> e[1] & 1)),
                    Fraction(0),
                )
                vb = vertex_boundary(g, a)
                assert cut <= sum((w.mu[v] for v in vb.indices()), Fraction(0))


class TestAuxiliaryConditions:
    def test_cycle_counting_measure(self):
        g = make_cycle(6)
        report = verify_auxiliary_walk(g)
        conductances, support, sandwich, bound = report.checks
        assert conductances.lhs == 0 and conductances.holds
        assert support.lhs == 0 and support.holds
        assert sandwich.lhs == 0 and sandwich.holds  # mu/4 <= m <= mu/2 reads 1 <= 1 <= 2
        assert bound.rhs == Fraction(1, 3)  # the conductance Cheeger constant
        assert bound.lhs == Fraction(1, 3)  # equality case c s / K
        assert bound.holds and report.holds

    def test_k2_counting(self):
        report = verify_auxiliary_walk(k2())
        assert report.holds
        assert report.inputs["cheeger"] == "1"

    def test_random_instances_hold(self):
        rng = random.Random(21)
        for _ in range(25):
            g = helpers.rand_connected(rng, 2, 9, measured=True)
            assert verify_auxiliary_walk(g).holds


class TestHeatKernel:
    def test_zero_steps_is_point_mass(self):
        g = make_cycle(5)
        p = heat_kernel_measure(g, 2, 0)
        assert p[2] == 1 and sum(p) == 1

    def test_c4_two_steps(self):
        g = make_cycle(4)
        assert heat_kernel_measure(g, 0, 2) == (Fraction(1, 2), 0, Fraction(1, 2), 0)

    def test_k2_parity(self):
        assert heat_kernel_measure(k2(), 0, 3) == (0, 1)

    def test_matches_matrix_power_oracle(self):
        rng = random.Random(13)
        for _ in range(15):
            g = helpers.rand_connected(rng, 2, 8)
            x0 = rng.randrange(g.n)
            k = rng.randrange(0, 7)
            mine = heat_kernel_measure(g, x0, k)
            assert mine == oracles.brute_heat_kernel(g, x0, k)
            assert sum(mine) == 1

    def test_disconnected_rejected(self):
        g = MeasuredGraph.build(4, [(0, 1), (2, 3)], [1, 1, 1, 1])
        with pytest.raises(WalkError, match="connected"):
            heat_kernel_measure(g, 0, 1)
