import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from mexp import (
    ExactModeInfeasible,
    MeasuredGraph,
    NoFeasibleSubset,
    VertexSubset,
    asymptotic_profile,
    auxiliary_walk,
    cheeger_conductance,
    cheeger_vertex,
    from_conductance,
)
from mexp import cheeger
from mexp.families import make_complete, make_cycle, make_hypercube, random_connected_graph
from mexp.graphs import measure_of, vertex_boundary
from mexp.rationals import InputError, scaled_integers


def profile_minimizer(graph, alpha, radius):
    """(value, mask) of the profile at (alpha, radius) from the enumeration
    engine that asymptotic_profile runs, which keeps the witness; None when
    no subset is feasible."""
    masses, _ = scaled_integers(graph.measure)
    total = sum(masses)
    halves = cheeger._Halves(graph.n, total, masses)
    tables = halves.sums(masses)
    boundary = cheeger._boundary(halves, tables, cheeger._ball_masks(graph, radius))
    best = cheeger._minimize_ratio(halves, max(1, math.ceil(alpha * total)), total // 2, tables, None, *boundary)
    return None if best is None else (Fraction(best[0], best[1]), best[2])


def k4_times_k2():
    """Cartesian product K4 x K2: vertex 2i + s is (i, s)."""
    edges = [(2 * i + s, 2 * j + s) for i in range(4) for j in range(i + 1, 4) for s in (0, 1)]
    edges += [(2 * i, 2 * i + 1) for i in range(4)]
    return MeasuredGraph.build(8, edges, [1] * 8)


class TestVertexFlavor:
    def test_cycle_six(self):
        cert = cheeger_vertex(make_cycle(6))
        assert cert.value == Fraction(2, 3)
        assert cert.witness.indices() == [0, 1, 2]
        assert cert.flavor == "vertex-measured"

    def test_k2(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 1])
        assert cheeger_vertex(g).value == 1

    def test_k4_pair_witness(self):
        cert = cheeger_vertex(make_complete(4))
        assert cert.value == 1
        assert cert.witness.indices() == [0, 1]

    def test_witness_is_feasible_and_attains_value(self):
        rng = random.Random(2)
        for _ in range(40):
            g = helpers.rand_connected(rng, 2, 10, measured=True)
            cert = cheeger_vertex(g)
            mass = measure_of(g, cert.witness)
            assert 0 < mass <= g.total_measure / 2
            attained = measure_of(g, vertex_boundary(g, cert.witness)) / mass
            assert attained == cert.value

    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(30):
            g = helpers.rand_connected(rng, 2, 9, measured=True)
            value, witnesses = oracles.brute_cheeger_vertex(g)
            cert = cheeger_vertex(g)
            assert cert.value == value
            assert frozenset(cert.witness.indices()) in witnesses

    def test_scale_invariance(self):
        rng = random.Random(6)
        for _ in range(15):
            g = helpers.rand_connected(rng, 2, 9, measured=True)
            scaled = g.with_measure([m * Fraction(7, 3) for m in g.measure])
            assert cheeger_vertex(g).value == cheeger_vertex(scaled).value

    def test_positive_iff_support_subgraph_connected(self):
        rng = random.Random(8)
        checked = 0
        while checked < 40:
            base = random_connected_graph(rng.randrange(3, 10), rng)
            m = helpers.rand_sparse_measure(rng, base.n)
            g = base.with_measure(m)
            support = VertexSubset.from_indices(g.n, [v for v in range(g.n) if m[v] > 0])
            try:
                value = cheeger_vertex(g).value
            except NoFeasibleSubset:
                continue
            assert (value > 0) == oracles.induced_subgraph(g, support.indices()).connected
            checked += 1

    def test_support_restriction_equivalence(self):
        rng = random.Random(10)
        checked = 0
        while checked < 30:
            base = random_connected_graph(rng.randrange(3, 10), rng)
            m = helpers.rand_sparse_measure(rng, base.n)
            g = base.with_measure(m)
            support = VertexSubset.from_indices(g.n, [v for v in range(g.n) if m[v] > 0])
            restricted = oracles.induced_subgraph(g, support.indices())
            try:
                whole = cheeger_vertex(g).value
                inner = cheeger_vertex(restricted).value
            except NoFeasibleSubset:
                continue
            assert whole == inner
            checked += 1

    def test_cap_is_enforced(self):
        g = make_cycle(12)
        with pytest.raises(ExactModeInfeasible, match="exact mode infeasible"):
            cheeger_vertex(g, cap=10)

    def test_no_feasible_subset(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 0])
        with pytest.raises(NoFeasibleSubset):
            cheeger_vertex(g)

    def test_tie_breaks_toward_smallest_mask(self):
        # P3 counting: both end singletons attain 1; vertex 0 wins
        g = MeasuredGraph.build(3, [(0, 1), (1, 2)], [1, 1, 1])
        cert = cheeger_vertex(g)
        assert cert.value == 1
        assert cert.witness.indices() == [0]

    def test_huge_denominators_fall_back_exactly(self):
        # masses whose common denominator overflows int64 take the bigint path
        rng = random.Random(24)
        big = 2 ** 41
        for _ in range(5):
            base = random_connected_graph(5, rng)
            m = [
                Fraction(rng.randrange(1, 9), rng.choice([big - 1, big + 1, big + 3]))
                for _ in range(5)
            ]
            g = base.with_measure(m)
            value, witnesses = oracles.brute_cheeger_vertex(g)
            cert = cheeger_vertex(g)
            assert cert.value == value
            assert frozenset(cert.witness.indices()) in witnesses


class TestConductanceFlavor:
    def test_cycle_auxiliary(self):
        g = make_cycle(6)
        cert = cheeger_conductance(auxiliary_walk(g), g.measure)
        assert cert.value == Fraction(1, 3)  # cut area 4 over mu(A) = 12
        assert cert.witness.indices() == [0, 1, 2]
        assert cert.flavor == "conductance"

    def test_k2_auxiliary(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 1])
        cert = cheeger_conductance(auxiliary_walk(g), g.measure)
        assert cert.value == 1  # cut 2 over mu 2

    def test_constraint_mu_matches_uniform_case(self):
        g = make_cycle(6)
        walk = auxiliary_walk(g)
        assert cheeger_conductance(walk, walk.mu).value == Fraction(1, 3)

    def test_default_constraint_is_mu(self):
        for seed in range(200):
            w = helpers.rand_walk(random.Random(seed), 3, 8)
            default, explicit = cheeger_conductance(w), cheeger_conductance(w, w.mu)
            assert (default.value, default.witness) == (explicit.value, explicit.witness)

    def test_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(25):
            w = helpers.rand_walk(rng, 2, 9)
            cert = cheeger_conductance(w, w.graph.measure)
            assert cert.value == oracles.brute_cheeger_conductance(w, list(w.graph.measure))

    def test_below_vertex_cheeger_in_mu(self):
        # cut-area constant never exceeds the vertex constant taken in mu
        rng = random.Random(16)
        for _ in range(25):
            w = helpers.rand_walk(rng, 2, 10)
            with_mu = w.graph.with_measure(w.mu)
            assert cheeger_conductance(w, w.mu).value <= cheeger_vertex(with_mu).value

    def test_no_feasible_subset_reported(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 1])
        walk = auxiliary_walk(g)
        with pytest.raises(NoFeasibleSubset, match="no subset"):
            cheeger_conductance(walk, [Fraction(1), Fraction(0)])

    @pytest.mark.parametrize("n", [4, 17])
    def test_negative_constraint_is_rejected(self, n):
        # past 16 vertices the row bounds also assume nonnegative sums
        graph = MeasuredGraph.build(n, [(v, v + 1) for v in range(n - 1)], [1] * n)
        constraint = [1] * n
        constraint[1] = -1
        with pytest.raises(InputError, match="nonnegative"):
            cheeger_conductance(auxiliary_walk(graph), constraint)


class TestAsymptoticProfile:
    def test_cycle_half_alpha(self):
        prof = asymptotic_profile(make_cycle(6), [Fraction(1, 2)], radii=[1])
        assert prof.value(Fraction(1, 2), 1) == Fraction(2, 3)

    def test_cycle_small_alpha_includes_singletons(self):
        prof = asymptotic_profile(make_cycle(6), [Fraction(1, 6)], radii=[1])
        assert prof.value(Fraction(1, 6), 1) == Fraction(2, 3)

    def test_diameter_saturation_bound(self):
        rng = random.Random(18)
        for _ in range(10):
            g = helpers.rand_connected(rng, 3, 8)
            prof = asymptotic_profile(g, [Fraction(1, 4)])
            assert prof.value(Fraction(1, 4), prof.radii[-1]) >= 1

    def test_monotone_in_radius_and_alpha(self):
        rng = random.Random(20)
        alphas = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]
        for _ in range(10):
            g = helpers.rand_connected(rng, 3, 9, measured=True)
            prof = asymptotic_profile(g, alphas)
            for alpha in alphas:
                column = [prof.value(alpha, r) for r in prof.radii]
                column = [c for c in column if c is not None]
                assert all(a <= b for a, b in zip(column, column[1:]))
            for r in prof.radii:
                row = [prof.value(a, r) for a in alphas]
                pairs = [(x, y) for x, y in zip(row, row[1:]) if x is not None and y is not None]
                assert all(x <= y for x, y in pairs)

    def test_matches_brute_force(self):
        rng = random.Random(22)
        for _ in range(10):
            g = helpers.rand_connected(rng, 3, 8, measured=True)
            alpha = Fraction(rng.randrange(1, 4), 8)
            prof = asymptotic_profile(g, [alpha], radii=[1, 2])
            for radius in (1, 2):
                assert prof.value(alpha, radius) == oracles.brute_profile_value(g, alpha, radius)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            asymptotic_profile(make_cycle(4), [Fraction(3, 4)])


class TestExactOrdering:
    """Scaled totals in [2^53, 2^62) take the int64 path, where float ratios
    can misorder; totals past 2^62 take the Python-int path."""

    def test_int64_float_ordering_repro(self):
        g = MeasuredGraph.build(
            5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)], [2**55 + d for d in (10, 6, 1, 10, 4)]
        )
        cert = cheeger_vertex(g)
        assert cert.value == Fraction(18014398509481987, 18014398509481989)
        value, witnesses = oracles.brute_cheeger_vertex(g)
        assert cert.value == value
        assert cert.witness.mask == oracles.smallest_mask(witnesses)

    def test_int64_sweep_matches_brute_force(self):
        rng = random.Random(0)
        alpha = Fraction(1, 4)
        for i in range(240):
            n = 4 + i % 4
            masses = [2**55 + rng.randrange(16) for _ in range(n)]
            g = random_connected_graph(n, rng, extra_edges=0.2, measure=masses)
            flavor = i % 3
            if flavor == 0:
                cert = cheeger_vertex(g)
                value, witnesses = oracles.brute_cheeger_vertex(g)
            elif flavor == 1:
                walk = auxiliary_walk(g)
                cert = cheeger_conductance(walk, g.measure)
                value, witnesses = oracles.brute_conductance_minimizers(walk, list(g.measure))
            else:
                prof = asymptotic_profile(g, [alpha], radii=[1, 2])
                for radius in (1, 2):
                    expected = oracles.brute_profile_value(g, alpha, radius)
                    assert prof.value(alpha, radius) == expected, (i, radius)
                continue
            assert cert.value == value, i
            assert cert.witness.mask == oracles.smallest_mask(witnesses), i

    def test_conductance_with_huge_weights(self):
        # distinct Mersenne-prime denominators: one scaled conductance alone
        # exceeds int64
        rng = random.Random(3)
        primes = [2**k - 1 for k in (13, 17, 19, 31, 61, 89, 107, 127)]
        for n in range(4, 9):
            base = random_connected_graph(n, rng, extra_edges=0.3)
            g = base.with_measure([Fraction(rng.randrange(1, 50), p) for p in primes[:n]])
            walk = auxiliary_walk(g)
            cert = cheeger_conductance(walk, g.measure)
            value, witnesses = oracles.brute_conductance_minimizers(walk, list(g.measure))
            assert cert.value == value
            assert cert.witness.mask == oracles.smallest_mask(witnesses)


    def test_ratios_beyond_float_range(self):
        # boundary-to-mass ratios near 10^500 cannot be held by a float
        tiny = Fraction(1, 10**400)
        for m in ([1, 10**400, 1], [3, 10**500, 1, 10**499, 7], [tiny, 1, 1, tiny]):
            g = MeasuredGraph.build(len(m), [(v, v + 1) for v in range(len(m) - 1)], m)
            cert = cheeger_vertex(g)
            value, witnesses = oracles.brute_cheeger_vertex(g)
            assert (cert.value, cert.witness.mask) == (value, oracles.smallest_mask(witnesses))
            walk = auxiliary_walk(g)
            assert cheeger_conductance(walk, g.measure).value == oracles.brute_cheeger_conductance(walk, m)
            alpha = Fraction(1, 4)
            profile = asymptotic_profile(g, [alpha], radii=[1])
            assert profile.value(alpha, 1) == oracles.brute_profile_value(g, alpha, 1)


class TestTieRule:
    """Vertex-transitive graphs with counting measure have many exact ties,
    spread over several row blocks; the smallest mask must win."""

    GRAPHS = {"C8": lambda: make_cycle(8), "Q3": lambda: make_hypercube(3), "K4xK2": k4_times_k2}

    @pytest.fixture(params=sorted(GRAPHS))
    def graph(self, request, monkeypatch):
        monkeypatch.setattr(cheeger, "_BLOCK_BITS", 0)  # one row per block
        return self.GRAPHS[request.param]()

    def test_vertex(self, graph):
        cert = cheeger_vertex(graph)
        value, witnesses = oracles.brute_cheeger_vertex(graph)
        assert len(witnesses) > 1
        assert (cert.value, cert.witness.mask) == (value, oracles.smallest_mask(witnesses))

    def test_conductance(self, graph):
        walk = auxiliary_walk(graph)
        cert = cheeger_conductance(walk)
        value, witnesses = oracles.brute_conductance_minimizers(walk, list(walk.mu))
        assert len(witnesses) > 1
        assert (cert.value, cert.witness.mask) == (value, oracles.smallest_mask(witnesses))

    def test_profile(self, graph):
        for alpha in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            for radius in (1, 2):
                value, witnesses = oracles.brute_profile_minimizers(graph, alpha, radius)
                assert profile_minimizer(graph, alpha, radius) == (value, oracles.smallest_mask(witnesses))
                assert asymptotic_profile(graph, [alpha], radii=[radius]).value(alpha, radius) == value


def width_graph(rng, n, width):
    """Random connected graph whose scaled masses take the float53, int64 or
    bigint path; "shifted" masses span 10^310, so that ratios are ranked
    scaled by a power of two, and "subnormal" masses span 10^700, so that
    many shadows are 0 or subnormal and carry no error bound."""
    if width == "float53":
        masses = [Fraction(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(n)]
    elif width == "int64":
        masses = [rng.randrange(1 << 53, 1 << 54) for _ in range(n)]
    else:
        masses = [Fraction(rng.randrange(1, 50), helpers.LARGE_PRIMES[v % 4]) for v in range(n)]
        power = {"shifted": 310, "subnormal": 700}.get(width, 0)
        masses = [m * 10 ** (power * (v % 3 == 0)) for v, m in enumerate(masses)]
    return random_connected_graph(n, rng, extra_edges=0.2, measure=masses)


def minimizers(graph, flavor):
    """(value, witness mask) of every minimization the flavor runs."""
    if flavor == "vertex":
        cert = cheeger_vertex(graph, cap=graph.n)
        return [(cert.value, cert.witness.mask)]
    if flavor == "conductance":
        walk = auxiliary_walk(graph)
        certs = [cheeger_conductance(walk, constraint, cap=graph.n) for constraint in (None, graph.measure)]
        return [(cert.value, cert.witness.mask) for cert in certs]
    return [profile_minimizer(graph, alpha, radius) for alpha in (Fraction(1, 8), Fraction(1, 4)) for radius in (1, 2)]


class TestRowPruning:
    """Past _BLOCK_BITS vertices the engine relabels the heaviest vertices
    into the row half, visits rows in ascending bound and stops at the first
    block bounded above the incumbent; the one-block engine (_BLOCK_BITS
    raised) visits every mask in ascending order."""

    @pytest.mark.parametrize("flavor", ["vertex", "conductance", "profile"])
    @pytest.mark.parametrize("width, n", [("float53", 20), ("float53", 19), ("int64", 19), ("int64", 20), ("bigint", 17), ("bigint", 18), ("shifted", 17), ("subnormal", 17)])
    def test_matches_one_block_engine(self, monkeypatch, width, n, flavor):
        graph = width_graph(random.Random(f"{width}-{n}-{flavor}"), n, width)
        pruned = minimizers(graph, flavor)
        monkeypatch.setattr(cheeger, "_BLOCK_BITS", 40)
        assert minimizers(graph, flavor) == pruned

    @pytest.mark.parametrize("flavor", ["vertex", "conductance", "profile"])
    def test_ties_settle_on_original_masks(self, monkeypatch, flavor):
        # C18 with masses alternating 1, 2: the heavy vertices are relabelled
        # into the row half and the rotations by two are exact ties
        graph = make_cycle(18).with_measure([1 + v % 2 for v in range(18)])
        pruned = minimizers(graph, flavor)
        monkeypatch.setattr(cheeger, "_BLOCK_BITS", 40)
        assert minimizers(graph, flavor) == pruned

    def test_rows_bounded_above_the_optimum_are_skipped(self, monkeypatch):
        visited = []
        boundary = cheeger._boundary

        def counting(halves, tables, reach):
            numerator, row_num = boundary(halves, tables, reach)

            def counted(rows, r, c, den):
                visited.append(rows.size)
                return numerator(rows, r, c, den)

            return counted, row_num

        monkeypatch.setattr(cheeger, "_boundary", counting)
        graph = width_graph(random.Random(5), 20, "float53")
        pruned = cheeger_vertex(graph)
        assert sum(visited) < 2 ** 10 // 2  # of 2^10 rows: 3 blocks of 64 here, 10 unpruned
        monkeypatch.setattr(cheeger, "_BLOCK_BITS", 40)
        assert cheeger_vertex(graph) == pruned


TWIN_SCALE = Fraction(helpers.LARGE_PRIMES[4], helpers.LARGE_PRIMES[2])  # (2^127 - 1) / (2^89 - 1)


class TestWidthTwins:
    """Every mass (and so every auxiliary conductance) scaled by a common
    ratio of large primes moves a float53 or int64 graph onto the Python-int
    path; Cheeger values are scale-invariant, so value and witness must be
    the original's.  Near-uniform masses 2^55 + d put thousands of ratios
    within the ranking margin of each other."""

    @pytest.mark.parametrize("flavor", ["vertex", "conductance", "profile"])
    @pytest.mark.parametrize("width", ["float53", "near-uniform"])
    @pytest.mark.parametrize("n", [12, 17, 20])
    def test_twin_matches_original(self, n, width, flavor):
        rng = random.Random(f"twin-{n}-{width}-{flavor}")
        if width == "float53":
            graph = width_graph(rng, n, "float53")
        else:
            masses = [2**55 + rng.randrange(16) for _ in range(n)]
            graph = random_connected_graph(n, rng, extra_edges=0.2, measure=masses)
        twin = graph.with_measure([m * TWIN_SCALE for m in graph.measure])
        assert sum(scaled_integers(twin.measure)[0]) >= 1 << 62
        assert minimizers(twin, flavor) == minimizers(graph, flavor)


def assert_matches_oracles(graph, walk=None):
    """Every flavor's value and witness against the brute-force oracles:
    vertex; conductance of walk (default: the auxiliary walk) in mu and in
    the graph's measure; the profile at alpha 1/8 and 1/4, radius 1 and 2."""
    value, witnesses = oracles.brute_cheeger_vertex(graph)
    cert = cheeger_vertex(graph)
    assert (cert.value, cert.witness.mask) == (value, oracles.smallest_mask(witnesses))
    walk = walk or auxiliary_walk(graph)
    for constraint in (list(walk.mu), list(graph.measure)):
        value, witnesses = oracles.brute_conductance_minimizers(walk, constraint)
        cert = cheeger_conductance(walk, constraint)
        assert (cert.value, cert.witness.mask) == (value, oracles.smallest_mask(witnesses))
    for alpha in (Fraction(1, 8), Fraction(1, 4)):
        for radius in (1, 2):
            value, witnesses = oracles.brute_profile_minimizers(graph, alpha, radius)
            expected = None if value is None else (value, oracles.smallest_mask(witnesses))
            assert profile_minimizer(graph, alpha, radius) == expected


class TestShadowFilter:
    """On the Python-int path feasibility and ranking run on float64
    shadows, and only what the floats cannot decide is settled exactly."""

    BIG = 3**70  # about 2^111: shadows of neighbouring integers coincide

    def test_feasibility_band(self):
        x = self.BIG
        # odd total: {0, 1} weighs m(V)/2 + 1/2, infeasible, with the least
        # ratio; {2, 3} and {0} weigh exactly floor(m(V)/2)
        assert_matches_oracles(MeasuredGraph.build(4, [(0, 1), (1, 2), (2, 3)], [x + 1, 1, 1, x]))
        # complementary halves of exactly equal mass
        assert_matches_oracles(MeasuredGraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [x, 2 * x + 1, x, 2 * x + 1]))
        rng = random.Random(7)
        for n in (6, 8, 10):
            weights = [rng.randrange(1, 4) for _ in range(n // 2)] * 2
            masses = [w * x + rng.choice((-1, 0, 0, 1)) for w in weights]
            assert_matches_oracles(random_connected_graph(n, rng, extra_edges=0.3, measure=masses))

    def test_near_ties_below_float_resolution(self):
        # ratios that differ in the 70th bit
        rng = random.Random(11)
        for i in range(45):
            n = 4 + i % 5
            masses = [2**70 + rng.randrange(16) for _ in range(n)]
            assert_matches_oracles(random_connected_graph(n, rng, extra_edges=0.2, measure=masses))

    def test_subnormal_shadows(self):
        # masses spanning 10^700 scale the shadows by 2^-1326 or so: the
        # 10^83 masses land among the subnormals and the unit masses on 0;
        # on the path {0} (shadow 0 / 0) ties {3} at ratio 1 with the
        # smaller mask
        assert_matches_oracles(MeasuredGraph.build(4, [(0, 1), (1, 2), (2, 3)], [1, 1, 10**700, 10**700]))
        rng = random.Random(13)
        scales = (1, 10**83, 10**700)
        for i in range(12):
            n = 4 + i % 5
            masses = [rng.randrange(1, 9) * scales[(v + i) % 3] for v in range(n)]
            assert_matches_oracles(random_connected_graph(n, rng, extra_edges=0.3, measure=masses))

    def test_conductance_cut_far_below_volume(self):
        # two K4s joined by bridges 10^-33 as heavy: the optimal cut is about
        # 1e-35 of the volume, where vol - 2 a(E(A)) would cancel in floats
        rng = random.Random(17)
        for _ in range(4):
            label = rng.sample(range(8), 8)
            clusters = [(u, v) for side in (0, 4) for u in range(side, side + 4) for v in range(u + 1, side + 4)]
            bridges = rng.sample([(u, v) for u in range(4) for v in range(4, 8)], 2)
            heavy = Fraction(self.BIG, helpers.LARGE_PRIMES[3])
            conductance = {(label[u], label[v]): rng.randrange(1, 9) * heavy for u, v in clusters}
            conductance.update({(label[u], label[v]): Fraction(rng.randrange(1, 3), self.BIG) for u, v in bridges})
            graph = MeasuredGraph.build(8, list(conductance), [rng.randrange(1, 5) for _ in range(8)])
            walk = from_conductance(graph, conductance)
            cert = cheeger_conductance(walk)
            assert cert.value < Fraction(1, 10**12)
            assert_matches_oracles(graph, walk)
