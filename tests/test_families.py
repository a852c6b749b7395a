import math
import random
from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from mexp import (
    GraphFamily,
    InputError,
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
from mexp import cheeger, families
from mexp.graphs import measure_of, vertex_boundary


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
        assert g.distances[0][7] == 3

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

    def test_no_connected_one_regular_graph(self):
        assert random_regular(2, 1, random.Random(0)).edges == ((0, 1),)
        with pytest.raises(InputError, match="connected 1-regular"):
            random_regular(4, 1, random.Random(0))

    @pytest.mark.parametrize("k", [6, 10, 11])
    def test_dense_degrees_are_built(self, k):
        # simple pairings are rare at these degrees, so the swap construction runs
        graphs = [random_regular(12, k, random.Random(seed)) for seed in range(k, k + 5)]
        for g in graphs:
            assert g.connected and all(g.degree(v) == k for v in range(12))
            assert len(set(g.edges)) == 6 * k and all(u < v for u, v in g.edges)
        if k < 11:  # K12 is the only 11-regular graph on 12 vertices
            assert len({g.edges for g in graphs}) > 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_swaps_keep_sparse_graphs_connected(self, k):
        class Unshuffled(random.Random):
            def shuffle(self, x):  # stubs stay sorted, so every pairing has a loop
                pass

        for seed in range(5):
            g = random_regular(30, k, Unshuffled(seed))
            assert g.connected and all(g.degree(v) == k for v in range(30))

    def test_pairing_output_is_unchanged(self):
        # the k = 3 recipes of the stored benchmark references depend on it
        assert random_regular(20, 3, random.Random(4000)).edges == (
            (0, 10), (0, 15), (0, 19), (1, 2), (1, 5), (1, 8), (2, 9), (2, 14), (3, 6), (3, 10),
            (3, 14), (4, 6), (4, 16), (4, 17), (5, 11), (5, 15), (6, 12), (7, 10), (7, 16), (7, 18),
            (8, 15), (8, 17), (9, 16), (9, 19), (11, 12), (11, 13), (12, 18), (13, 17), (13, 18), (14, 19),
        )  # fmt: skip

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

    def test_bad_set_of_another_size_is_bad_input(self):
        g = MeasuredGraph.build(
            3, [(0, 1), (1, 2)], [Fraction(1, 2), Fraction(1, 2), Fraction(0)]
        )
        with pytest.raises(InputError, match="does not fit a graph on 3 vertices"):
            full_support_perturbation(g, VertexSubset(6, 0b110000), 2)

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
        # C6's exact value 2/3 is below 1, which decides the partial family
        assert family_report(GraphFamily(members=members), 1, cap=8).expander_verdict is False

    def test_rows_reproducible(self):
        rng = random.Random(3)
        members = tuple(helpers.rand_connected(rng, 4, 9, measured=True) for _ in range(4))
        report = family_report(GraphFamily(members=members), Fraction(1, 100))
        for row, g in zip(report.rows, members):
            assert row.cheeger == cheeger_vertex(g).value
            assert row.max_valency == g.max_valency

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

    @pytest.mark.parametrize(
        "bad",
        [[[0.0]] * 3, [[0.0]] + [[0.0, 1.0]] * 15, [[]] * 16],
        ids=["three-rows", "ragged", "empty-rows"],
    )
    def test_malformed_supplied_map_rejected(self, bad):
        g = make_cycle(16, probability_counting_measure(16))
        with pytest.raises(InputError, match="16 rows"):
            generalised_certificate(GraphFamily(members=(g,)), p=2.0, test_maps=[[bad]])

    def test_rho_table_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            RhoTable((0.0, 2.0, 1.0))
        table = RhoTable((0.0, 1.0, 4.0))
        assert table(0) == 0.0 and table(2) == 4.0 and table(99) == 4.0

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    def test_bad_p_refused_before_the_enumeration(self, monkeypatch, p):
        def unreachable(*args):
            raise AssertionError("the enumeration ran for a bad p")

        monkeypatch.setattr(cheeger, "_minimize_ratio", unreachable)
        g = make_cycle(16, probability_counting_measure(16))
        with pytest.raises(InputError, match="finite number of at least 1"):
            generalised_certificate(GraphFamily(members=(g,)), p=p)

    def test_disconnected_member_rejected(self):
        bad = MeasuredGraph.build(4, [(0, 1), (2, 3)], [Fraction(1, 4)] * 4)
        with pytest.raises(ValueError, match="connected"):
            generalised_certificate(GraphFamily(members=(bad,)), p=2.0)


def _oracle_families():
    rng = random.Random(4321)
    regular = [random_regular(n, 3, rng) for n in (10, 20, 32)]
    return {
        "regular-counting": (regular, 2.0),
        "regular-probability": ([g.with_measure(probability_counting_measure(g.n)) for g in regular], 2.0),
        "regular-random": (
            [g.with_measure([Fraction(rng.randrange(3, 6), rng.randrange(3, 6)) for _ in range(g.n)]) for g in regular],
            2.0,
        ),
        # C4 has peak mass 1/4 and is skipped
        "cycles": ([make_cycle(4, probability_counting_measure(4)), make_cycle(16)], 1.5),
        "c64": ([make_cycle(64)], 3.0),
    }


# Default test maps per member as (name, energy) at seed 5, in the order the
# certificate draws them; each energy is also checked pair by pair against
# oracles.brute_certificate_energy below.  None marks a skipped member.
# Counting and probability-counting measures normalize to the same member, so
# they share one entry.
_PINNED_DEFAULT_MAPS = {
    "regular/identity": [
        [("distance-from-9", 2.1333333333333333), ("distance-from-4", 1.7999999999999998), ("cone-0", 1.4222222222222223), ("cone-1", 1.8574353590796635)],
        [("distance-from-7", 4.73157894736842), ("distance-from-0", 3.426315789473684), ("cone-0", 0.9949668424993198), ("cone-1", 1.8279193418531272)],
        [("distance-from-0", 5.446428571428571), ("distance-from-21", 4.071428571428571), ("cone-0", 2.2020814959383763), ("cone-1", 2.432362602470109)],
    ],
    "regular/table": [
        [("distance-from-9", 0.5653333333333334), ("distance-from-4", 0.5342222222222222), ("cone-0", 0.5398226435131849), ("cone-1", 0.5978702451709911)],
        [("distance-from-7", 0.36442105263157865), ("distance-from-0", 0.358736842105263), ("cone-0", 0.47178356139124017), ("cone-1", 0.47306939469900083)],
        [("distance-from-0", 0.2618303571428571), ("distance-from-21", 0.26200892857142855), ("cone-0", 0.5932104455909101), ("cone-1", 0.4444753314422316)],
    ],
    "regular-random/identity": [
        None,
        [("distance-from-19", 3.26277685103093), ("distance-from-8", 3.5964281262299242), ("cone-0", 1.3095141292146495), ("cone-1", 1.793274077980761)],
        [("distance-from-10", 5.579451634279923), ("distance-from-18", 4.611446781140976), ("cone-0", 3.6566452894171206), ("cone-1", 1.81829484191074)],
    ],
    "regular-random/table": [
        None,
        [("distance-from-19", 0.44399748167632397), ("distance-from-8", 0.3543702159903749), ("cone-0", 0.4640493915842597), ("cone-1", 0.45104253847215575)],
        [("distance-from-10", 0.33658861363946435), ("distance-from-18", 0.236582552088409), ("cone-0", 0.45007810045594), ("cone-1", 0.5146807762409178)],
    ],
    "cycles/identity": [
        None,
        [("distance-from-8", 6.348589802494223), ("distance-from-11", 6.3485898024942236), ("cone-0", 6.348589802494223), ("cone-1", 4.378536496783627)],
    ],
    "cycles/table": [
        None,
        [("distance-from-8", 0.41765939597542123), ("distance-from-11", 0.41765939597542134), ("cone-0", 0.4287898790343502), ("cone-1", 0.6466523429251337)],
    ],
    "c64/identity": [
        [("distance-from-32", 3689.9956140350882), ("distance-from-45", 3689.995614035088), ("cone-0", 236.9767495983799), ("cone-1", 363.2175071701553)],
    ],
    "c64/table": [
        [("distance-from-32", 0.17545997807017544), ("distance-from-45", 0.17545997807017544), ("cone-0", 0.5317225353593167), ("cone-1", 0.7157053308505952)],
    ],
}  # fmt: skip


@pytest.mark.parametrize("table", ["identity", "table"])
@pytest.mark.parametrize("name", list(_oracle_families()))
def test_certificate_matches_pair_by_pair_oracle(name, table):
    members, p = _oracle_families()[name]
    rho_plus = None if table == "identity" else RhoTable((0, 1, 1.5, 1.7))
    rng = random.Random(77)
    supplied = [
        [
            [[0.5 * rng.random(), 0.5 * rng.random()] for _ in range(g.n)],  # inside every modulus here
            [[3.0 * rng.random()] for _ in range(g.n)],  # violates it
        ]
        for g in members
    ]
    cert = generalised_certificate(GraphFamily(members=tuple(members)), p, rho_plus=rho_plus, test_maps=supplied, seed=5)
    oracle_rho = (lambda d: float(d)) if rho_plus is None else rho_plus
    pinned = _PINNED_DEFAULT_MAPS[f"{name.replace('-counting', '').replace('-probability', '')}/{table}"]
    default_rng = random.Random(5)  # the certificate's seed, drawn member by member past the skipped ones
    for graph, maps, row, expected in zip(members, supplied, cert.rows, pinned, strict=True):
        if expected is None:
            assert row.skipped is not None and row.test_maps == () and row.pair_measure is None
            continue
        nu, off_mass = TestCertificate.brute_pair_measure(graph, cert.max_valency)
        assert row.pair_measure == nu and row.off_diagonal_mass == off_mass
        assert all(type(x) is int and type(y) is int for x, y in row.pair_measure)
        assert row.symmetric is True and row.probability is True and row.supported_off_cutoff is True
        dist = oracles.brute_distances(graph)
        rho = np.array([[oracle_rho(d) for d in by_y] for by_y in dist])
        defaults = [values.tolist() for _, values in families._default_test_maps(graph, rho, p, default_rng)]
        results = row.test_maps
        assert [t.name for t in results] == ["supplied-0", "supplied-1"] + [e[0] for e in expected]
        for values, result in zip(maps + defaults, results, strict=True):
            violation = oracles._modulus_violation(values, dist, oracle_rho, p)
            assert result.accepted == (violation is None) and result.violating_pair == violation
            if violation is None:
                assert result.energy == pytest.approx(oracles.brute_certificate_energy(values, nu, p), rel=1e-12)
        assert results[0].accepted and not results[1].accepted
        for (_, pin), result in zip(expected, results[2:]):
            assert result.accepted and result.energy == pytest.approx(pin, rel=1e-12)
        energies = [t.energy for t in results if t.accepted]
        assert row.max_tested_energy == max(energies)


def _default_map_graphs():
    """The oracle families' distinct graphs; default maps read no measure."""
    families_ = _oracle_families()
    return [g for name in ("regular-counting", "cycles", "c64") for g in families_[name][0]]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize(
    "modulus", [None, (0, 1, 1.5, 1.7), (0, 1, 10), (0, 1e12, 1e13)], ids=["identity", "concave", "steep", "huge"]
)
def test_default_maps_touch_the_modulus(modulus, p):
    oracle_rho = (lambda d: float(d)) if modulus is None else RhoTable(modulus)
    for graph in _default_map_graphs():
        dist = oracles.brute_distances(graph)
        rho = np.array([[oracle_rho(d) for d in by_y] for by_y in dist])
        maps = families._default_test_maps(graph, rho, p, random.Random(3))
        built = oracles.unscaled_default_maps(graph, oracle_rho, random.Random(3))
        assert [name.split("-")[0] for name, _ in maps] == ["distance", "distance", "cone", "cone"]
        for (name, values), unscaled in zip(maps, map(np.array, built), strict=True):
            top = np.abs(unscaled).argmax()
            assert values == pytest.approx(values.flat[top] / unscaled.flat[top] * unscaled, rel=1e-14), name
            f = values.tolist()
            assert oracles._modulus_violation(f, dist, oracle_rho, p) is None, name
            stretch = max(
                oracles._lp_distance(f[x], f[y], p) / oracle_rho(dist[x][y])
                for x in range(graph.n)
                for y in range(x + 1, graph.n)
            )
            assert stretch == pytest.approx(1.0, rel=1e-12), name
            if modulus is None and name.startswith("distance"):
                assert np.array_equal(values, unscaled)  # it touches the identity modulus as built: scale 1


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_default_maps_stay_as_built_where_rho_vanishes_at_one(p):
    oracle_rho = RhoTable((0, 0, 1))
    for graph in _default_map_graphs():
        dist = oracles.brute_distances(graph)
        rho = np.array([[oracle_rho(d) for d in by_y] for by_y in dist])
        maps = families._default_test_maps(graph, rho, p, random.Random(3))
        built = oracles.unscaled_default_maps(graph, oracle_rho, random.Random(3))
        for (name, values), unscaled in zip(maps, built, strict=True):
            assert values.tolist() == unscaled, name
            assert oracles._modulus_violation(unscaled, dist, oracle_rho, p) is not None, name
