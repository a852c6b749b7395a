import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from mexp import (
    GraphFamily,
    MeasuredGraph,
    RhoTable,
    VertexSubset,
    cheeger_vertex,
    family_report,
    full_support_perturbation,
    generalised_certificate,
    generate,
    heat_kernel_measure,
    product_segment,
)
from mexp.families import (
    make_cycle,
    make_hypercube,
    probability_counting_measure,
    random_regular,
)
from mexp.graphs import hop_distance, measure_of, stats, vertex_boundary


class TestGenerate:
    def test_cycle(self):
        g = generate("cycle", n=6)
        assert g.n == 6 and all(g.degree(v) == 2 for v in range(6))

    def test_complete(self):
        g = generate("complete", n=4)
        assert cheeger_vertex(g).value == 1

    def test_hypercube(self):
        g = generate("hypercube", d=3)
        assert g.n == 8 and all(g.degree(v) == 3 for v in range(8))
        assert hop_distance(g, 0, 7) == 3

    def test_random_regular_connected(self):
        g = generate("random_regular", n=10, k=3, seed=7)
        assert g.n == 10 and all(g.degree(v) == 3 for v in range(10))
        assert g.connected

    def test_random_regular_deterministic(self):
        a = generate("random_regular", n=12, k=3, seed=5)
        b = generate("random_regular", n=12, k=3, seed=5)
        assert a.edges == b.edges

    def test_infeasible_degree(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, random.Random(0))

    def test_rational_measure(self):
        g = generate("cycle", measure="rationals", seed=3, n=5)
        assert all(m > 0 for m in g.measure)
        assert g.measure != tuple([Fraction(1)] * 5)


class TestProductSegment:
    def test_k2_gives_square(self):
        base = MeasuredGraph.build(2, [(0, 1)], [Fraction(1, 2), Fraction(1, 2)])
        prod = product_segment(base, 1)
        assert prod.n == 4
        assert all(prod.degree(v) == 2 for v in range(4))
        assert prod.connected
        assert prod.measure == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        )
        assert prod.total_measure == Fraction(3, 2)

    def test_zero_levels_is_base(self):
        base = make_cycle(5, probability_counting_measure(5))
        prod = product_segment(base, 0)
        assert prod.n == base.n and prod.edges == base.edges
        assert prod.measure == base.measure

    def test_level_masses_halve(self):
        base = make_cycle(4, probability_counting_measure(4))
        prod = product_segment(base, 2)
        level2 = sum(prod.measure[8:12], Fraction(0))
        assert level2 == Fraction(1, 4)

    def test_non_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            product_segment(make_cycle(4), 1)


class TestPerturbation:
    def test_worked_example(self):
        g = MeasuredGraph.build(
            3, [(0, 1), (1, 2)], [Fraction(1, 2), Fraction(1, 2), Fraction(0)]
        )
        out = full_support_perturbation(g, VertexSubset.from_indices(3, [0]), 2)
        assert out == (Fraction(3, 8), Fraction(3, 8), Fraction(1, 4))

    def test_mass_is_preserved_exactly(self):
        rng = random.Random(1)
        for _ in range(20):
            g, bad, n = _random_perturbation_instance(rng)
            out = full_support_perturbation(g, bad, n)
            assert sum(out, Fraction(0)) == 1
            assert all(m > 0 for m in out)

    def test_boundary_ratio_bound_exact(self):
        rng = random.Random(2)
        for _ in range(30):
            g, bad, n = _random_perturbation_instance(rng)
            out = full_support_perturbation(g, bad, n)
            mass = measure_of(g, bad)
            boundary = vertex_boundary(g, bad)
            old_ratio = measure_of(g, boundary) / mass
            perturbed = g.with_measure(out)
            new_ratio = measure_of(perturbed, boundary) / measure_of(perturbed, bad)
            assert new_ratio <= 2 * old_ratio + Fraction(1, 1) / (n - mass)

    def test_full_support_input_rejected(self):
        g = make_cycle(4, probability_counting_measure(4))
        with pytest.raises(ValueError, match="full support"):
            full_support_perturbation(g, VertexSubset.from_indices(4, [0]), 1)

    def test_oversized_bad_set_rejected(self):
        g = MeasuredGraph.build(
            3, [(0, 1), (1, 2)], [Fraction(3, 4), Fraction(1, 4), Fraction(0)]
        )
        with pytest.raises(ValueError, match="1/2"):
            full_support_perturbation(g, VertexSubset.from_indices(3, [0]), 2)


def _random_perturbation_instance(rng):
    from mexp.families import random_connected_graph

    while True:
        n_vertices = rng.randrange(4, 10)
        g = random_connected_graph(n_vertices, rng)
        weights = [Fraction(rng.randrange(0, 5)) for _ in range(n_vertices)]
        if not any(w == 0 for w in weights) or not any(w > 0 for w in weights):
            continue
        total = sum(weights)
        m = [w / total for w in weights]
        graph = g.with_measure(m)
        support = [v for v in range(n_vertices) if m[v] > 0]
        rng.shuffle(support)
        for size in range(1, len(support) + 1):
            bad = VertexSubset.from_indices(n_vertices, support[:size])
            mass = measure_of(graph, bad)
            if 0 < mass <= Fraction(1, 2):
                return graph, bad, rng.randrange(1, 6)
        # no prefix fits in half the mass, draw again


class TestFamilyReport:
    def test_constant_family_not_ghostly(self):
        member = make_cycle(6)
        report = family_report(GraphFamily(members=(member,) * 4), Fraction(1, 10))
        assert report.ghostly_verdict == "inconsistent with ghostly"
        assert report.expander_verdict is True
        assert not report.partial

    def test_growing_cycles(self):
        members = tuple(make_cycle(n) for n in range(4, 15, 2))
        report = family_report(GraphFamily(members=members), Fraction(1, 3))
        for row, n in zip(report.rows, range(4, 15, 2)):
            assert row.cheeger == Fraction(4, n)
            assert row.peak_fraction == Fraction(1, n)
        assert report.ghostly_verdict == "consistent with ghostly"
        assert report.expander_verdict is False  # 2/7 < 1/3
        better = family_report(GraphFamily(members=members), Fraction(1, 5))
        assert better.expander_verdict is True

    def test_cap_exceeded_marks_partial(self):
        members = (make_cycle(6), make_cycle(12))
        report = family_report(GraphFamily(members=members), Fraction(1, 10), cap=8)
        assert report.partial
        assert report.rows[1].cheeger is None and report.rows[1].error
        assert report.expander_verdict is None

    def test_rows_reproducible(self):
        rng = random.Random(3)
        members = tuple(helpers.rand_connected(rng, 4, 9, measured=True) for _ in range(4))
        report = family_report(GraphFamily(members=members), Fraction(1, 100))
        for row, g in zip(report.rows, members):
            assert row.cheeger == cheeger_vertex(g).value
            assert row.max_valency == stats(g).max_valency

    def test_heat_kernel_family_runs(self):
        # growing bases with heat-kernel measures: gamma should shrink
        members = []
        for n in (8, 12, 16):
            base = make_cycle(n)
            k = n  # past the diameter, support is everything for even steps
            m = heat_kernel_measure(base, 0, k)
            if any(x == 0 for x in m):
                m = heat_kernel_measure(base, 0, k + 1)
            members.append(base.with_measure(list(m)))
        report = family_report(GraphFamily(members=tuple(members)), Fraction(1, 100))
        gammas = [row.peak_fraction for row in report.rows]
        assert gammas[-1] < gammas[0]


class TestCertificate:
    def test_cycle64_matches_hand_cutoff(self):
        g = make_cycle(64, probability_counting_measure(64))
        cert = generalised_certificate(GraphFamily(members=(g,)), p=2.0, seed=0)
        row = cert.rows[0]
        assert row.skipped is None
        assert row.cutoff == pytest.approx(3.0)  # log_2(64/8)
        assert cert.cheeger_sources == ("spectral-bound",)
        # distance 3 pairs stay inside the cutoff, distance 4 pairs are out
        assert (0, 3) not in row.pair_measure
        assert (0, 4) in row.pair_measure
        assert row.symmetric and row.probability and row.supported_off_cutoff
        assert row.off_diagonal_mass >= Fraction(1, 8)

    def test_small_regular_family_checks(self):
        rng = random.Random(9)
        members = tuple(
            random_regular(n, 3, rng, probability_counting_measure(n)) for n in (10, 12, 16)
        )
        for p in (1.0, 2.0):
            cert = generalised_certificate(GraphFamily(members=members), p=p, seed=1)
            assert cert.cheeger_sources == ("exact",) * 3
            for row in cert.rows:
                assert row.skipped is None
                assert row.symmetric and row.probability and row.supported_off_cutoff
                assert sum(row.pair_measure.values(), Fraction(0)) == 1
                assert row.off_diagonal_mass >= Fraction(1, 8)
                accepted = [t for t in row.test_maps if t.accepted]
                assert accepted, "default builder should produce accepted maps"
                assert all(t.energy <= cert.energy_bound + 1e-9 for t in accepted)

    @staticmethod
    def brute_pair_measure(graph, big_k):
        # per-pair rebuild: keep (x, y) iff 8 gamma K^d(x, y) > 1
        m = [x / graph.total_measure for x in graph.measure]
        gamma = max(m)
        dist = oracles.brute_distances(graph)
        far = {(x, y) for x in range(graph.n) for y in range(graph.n) if 8 * gamma * big_k ** dist[x][y] > 1}
        off_mass = 1 - sum(
            (m[x] * m[y] for x in range(graph.n) for y in range(graph.n) if (x, y) not in far),
            Fraction(0),
        )
        return {(x, y): m[x] * m[y] / off_mass for x, y in far}, off_mass

    def test_pair_measure_matches_brute_rebuild(self):
        rng = random.Random(21)
        families = [
            # K = 2 and gamma = 1/16 put 8 gamma K^d exactly at 1 for d = 1
            (make_cycle(16, probability_counting_measure(16)),),
            tuple(random_regular(n, 3, rng, probability_counting_measure(n)) for n in (10, 14)),
            tuple(make_cycle(n, [Fraction(rng.randrange(1, 3)) for _ in range(n)]) for n in (24, 40, 64)),
        ]
        certs = [generalised_certificate(GraphFamily(members=members), p=2.0) for members in families]
        for members, cert in zip(families, certs):
            for graph, row in zip(members, cert.rows):
                assert row.skipped is None
                nu, off_mass = self.brute_pair_measure(graph, cert.max_valency)
                assert row.pair_measure == nu
                assert row.off_diagonal_mass == off_mass
                assert row.symmetric and row.probability and row.supported_off_cutoff
        c16 = certs[0].rows[0]
        assert (0, 1) not in c16.pair_measure and (0, 2) in c16.pair_measure
        assert c16.off_diagonal_mass == Fraction(13, 16)

    def test_small_member_is_skipped(self):
        g = make_cycle(4, probability_counting_measure(4))  # gamma = 1/4 >= 1/8
        cert = generalised_certificate(GraphFamily(members=(g,)), p=2.0)
        assert cert.rows[0].skipped is not None

    def test_modulus_violating_map_rejected(self):
        g = make_cycle(16, probability_counting_measure(16))
        wild = [[100.0 * v] for v in range(16)]
        cert = generalised_certificate(
            GraphFamily(members=(g,)), p=2.0, test_maps=[[wild]], seed=0
        )
        supplied = [t for t in cert.rows[0].test_maps if t.name.startswith("supplied")]
        assert supplied and not supplied[0].accepted
        assert supplied[0].violating_pair is not None

    def test_rho_table_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            RhoTable((0.0, 2.0, 1.0))
        table = RhoTable((0.0, 1.0, 4.0))
        assert table(0) == 0.0 and table(2) == 4.0 and table(99) == 4.0

    def test_disconnected_member_rejected(self):
        bad = MeasuredGraph.build(4, [(0, 1), (2, 3)], [Fraction(1, 4)] * 4)
        with pytest.raises(ValueError, match="connected"):
            generalised_certificate(GraphFamily(members=(bad,)), p=2.0)
