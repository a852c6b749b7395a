import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from mexp import (
    GraphFormatError,
    InputError,
    MeasuredGraph,
    VertexSubset,
    diameter,
    dump_graph,
    load_conductance,
    load_graph,
    measure_of,
    vertex_boundary,
)
from mexp.families import make_complete, make_cycle
from mexp.graphs import bfs_distances


K2_DOC = '{"vertices":[{"id":0,"m":"1"},{"id":1,"m":"1"}],"edges":[[0,1]]}'


def subset(graph, *vs):
    return VertexSubset.from_indices(graph.n, vs)


class TestLoad:
    def test_minimal_document(self):
        g = load_graph(K2_DOC)
        assert g.n == 2
        assert g.edges == ((0, 1),)
        assert g.measure == (Fraction(1), Fraction(1))
        assert g.connected

    def test_unknown_vertex_in_edge(self):
        doc = '{"vertices":[{"id":0,"m":"1"},{"id":1,"m":"1"}],"edges":[[0,5]]}'
        with pytest.raises(GraphFormatError, match="unknown vertex"):
            load_graph(doc)

    def test_all_zero_measures(self):
        doc = '{"vertices":[{"id":0,"m":"0"},{"id":1,"m":"0"}],"edges":[[0,1]]}'
        with pytest.raises(GraphFormatError, match="total measure must be positive"):
            load_graph(doc)

    def test_negative_measure(self):
        doc = '{"vertices":[{"id":0,"m":"-1/2"},{"id":1,"m":"1"}],"edges":[]}'
        with pytest.raises(GraphFormatError, match="negative measure"):
            load_graph(doc)

    def test_duplicate_edge_rejected(self):
        doc = '{"vertices":[{"id":0,"m":"1"},{"id":1,"m":"1"}],"edges":[[0,1],[1,0]]}'
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            load_graph(doc)

    def test_loop_rejected(self):
        doc = '{"vertices":[{"id":0,"m":"1"}],"edges":[[0,0]]}'
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(doc)

    def test_float_measure_rejected(self):
        doc = '{"vertices":[{"id":0,"m":0.5},{"id":1,"m":"1"}],"edges":[[0,1]]}'
        with pytest.raises(GraphFormatError, match="floats are not accepted"):
            load_graph(doc)

    def test_garbage_rejected(self):
        with pytest.raises(GraphFormatError, match="not valid JSON"):
            load_graph("{nope")

    def test_labels_are_mapped_and_kept(self):
        doc = '{"vertices":[{"id":"a","m":"1/3"},{"id":"b","m":"2"}],"edges":[["a","b"]]}'
        g = load_graph(doc)
        assert g.labels == ("a", "b")
        assert g.measure[g.index_of("a")] == Fraction(1, 3)

    def test_roundtrip(self):
        g = load_graph(K2_DOC)
        cond = {(0, 1): Fraction(3, 7)}
        text = dump_graph(g, cond)
        g2 = load_graph(text)
        assert g2.edges == g.edges and g2.measure == g.measure
        assert load_conductance(text, g2) == cond

    def test_conductance_section_optional(self):
        assert load_conductance(K2_DOC, load_graph(K2_DOC)) is None

    def test_build_rejects_label_count(self):
        with pytest.raises(GraphFormatError, match="1 labels for 3 vertices"):
            MeasuredGraph.build(3, [(0, 1), (1, 2)], [1, 1, 1], labels=["a"])

    def test_build_rejects_duplicate_labels(self):
        with pytest.raises(GraphFormatError, match="duplicate vertex label"):
            MeasuredGraph.build(3, [(0, 1), (1, 2)], [1, 1, 1], labels=["a", "a", "b"])
        # labels match by JSON type and value, so 1 and "1" are distinct
        assert MeasuredGraph.build(2, [(0, 1)], [1, 1], labels=[1, "1"]).labels == (1, "1")
        with pytest.raises(GraphFormatError, match="hashable"):
            MeasuredGraph.build(2, [(0, 1)], [1, 1], labels=[[0], [1]])


class TestMetric:
    def test_cycle_distance(self):
        g = make_cycle(6)
        assert g.distances[0][3] == 3
        assert g.distances[0][5] == 1

    def test_identity(self):
        g = make_cycle(5)
        assert all(g.distances[v][v] == 0 for v in range(5))

    def test_disconnected_pair_is_infinite(self):
        g = MeasuredGraph.build(4, [(0, 1), (2, 3)], [1, 1, 1, 1])
        assert g.distances[0][3] == math.inf

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_metric_axioms_by_exhaustion(self, seed):
        rng = random.Random(seed)
        g = helpers.rand_connected(rng, 2, 10)
        dist = oracles.brute_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert g.distances[u][v] == dist[u][v]
                assert dist[u][v] == dist[v][u]
                assert (dist[u][v] == 0) == (u == v)
                for w in range(g.n):
                    assert dist[u][w] <= dist[u][v] + dist[v][w]

    def test_distance_table_matches_single_source_bfs(self):
        rng = random.Random(5)
        graphs = [helpers.rand_connected(rng, 2, 12) for _ in range(20)]
        graphs += [helpers.possibly_disconnected(rng) for _ in range(20)]
        assert any(not g.connected for g in graphs)
        for g in graphs:
            assert len(g.distances) == g.n
            for v in range(g.n):
                assert g.distances[v] == tuple(bfs_distances(g, (v,)))
            assert g.connected == all(math.inf not in row for row in g.distances)
            if g.connected:
                assert diameter(g) == max(max(row) for row in oracles.brute_distances(g))

    def test_components_match_finite_distance_classes(self):
        rng = random.Random(6)
        graphs = [helpers.possibly_disconnected(rng) for _ in range(20)] + [MeasuredGraph.build(1, [], [1])]
        for _ in range(20):  # blobs and isolated vertices, their vertices shuffled
            blobs = helpers.possibly_disconnected(rng)
            n = blobs.n + rng.randrange(1, 4)
            order = rng.sample(range(n), n)
            graphs.append(MeasuredGraph.build(n, [(order[u], order[v]) for u, v in blobs.edges], [1] * n))
        assert any(g.connected for g in graphs) and any(not g.connected for g in graphs)
        for g in graphs:
            labels = oracles.brute_components(g)
            assert list(g._component_of) == labels
            assert g.component_count == max(labels) + 1
            assert g.connected == (max(labels) == 0)


class TestBoundaries:
    def test_cycle_vertex_boundary(self):
        g = make_cycle(6)
        assert vertex_boundary(g, subset(g, 0, 1, 2)).indices() == [3, 5]

    def test_full_set_has_empty_boundary(self):
        g = make_cycle(6)
        assert vertex_boundary(g, VertexSubset(g.n, (1 << g.n) - 1)).mask == 0

    def test_complete_graph_singleton(self):
        g = make_complete(4)
        assert vertex_boundary(g, subset(g, 0)).indices() == [1, 2, 3]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_boundary_invariants(self, seed):
        rng = random.Random(seed)
        g = helpers.rand_connected(rng, 2, 10)
        a = VertexSubset(g.n, rng.randrange(0, 1 << g.n))
        vb = vertex_boundary(g, a)
        assert vb.mask & a.mask == 0
        rest = ((1 << g.n) - 1) & ~a.mask
        crossing = [(u, v) for u, v in g.edges if (a.mask >> u & 1) != (a.mask >> v & 1)]
        assert crossing == [(u, v) for u, v in g.edges if (rest >> u & 1) != (rest >> v & 1)]
        assert set(vb.indices()) == oracles.boundary_set(g, frozenset(a.indices()))

    @pytest.mark.parametrize("entry", [measure_of, vertex_boundary])
    def test_subset_of_another_size_is_bad_input(self, entry):
        g = make_cycle(4)
        with pytest.raises(InputError, match="does not fit a graph on 4 vertices"):
            entry(g, VertexSubset(6, 0b110000))


class TestStats:
    def test_cycle_counting(self):
        g = make_cycle(6)
        assert g.max_valency == 2
        assert g.ratio_bound == 1
        assert g.peak_fraction == Fraction(1, 6)
        assert g.connected and g.full_support

    def test_k2_uneven(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 3])
        assert g.ratio_bound == Fraction(1, 3)

    def test_zero_endpoint_makes_ratio_absent(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 0])
        assert g.ratio_bound is None
        assert not g.full_support

    def test_ratio_bound_is_extremal(self):
        rng = random.Random(11)
        for _ in range(30):
            g = helpers.rand_connected(rng, 2, 9, measured=True)
            s = g.ratio_bound
            ratios = [
                min(Fraction(g.measure[u], g.measure[v]), Fraction(g.measure[v], g.measure[u]))
                for u, v in g.edges
            ]
            assert all(s * g.measure[v] <= g.measure[u] <= g.measure[v] / s for u, v in g.edges)
            assert s == min(ratios)

    def test_facts_match_definitions(self):
        rng = random.Random(22)
        for _ in range(30):
            g = helpers.rand_connected(rng, 2, 9, measured=True)
            # an isolated vertex of mass zero: no edge sees it, so s is unchanged
            # while the support is no longer full
            h = MeasuredGraph.build(g.n + 1, g.edges, [*g.measure, 0])
            for graph in (g, h):
                m = graph.measure
                assert graph.max_valency == max(graph.degree(v) for v in range(graph.n))
                assert graph.peak_fraction == max(m) / sum(m)
                assert graph.full_support == all(mv > 0 for mv in m)
                assert graph.ratio_bound == min(
                    min(Fraction(m[u], m[v]), Fraction(m[v], m[u])) for u, v in graph.edges
                )
            assert g.full_support and not h.full_support
            assert h.ratio_bound == g.ratio_bound
            # with_measure builds a new graph, whose facts come from its own measure
            flat = g.with_measure([1] * g.n)
            assert flat.ratio_bound == 1 and flat.peak_fraction == Fraction(1, g.n)
            hole = g.with_measure([0, *g.measure[1:]])
            assert hole.ratio_bound is None and not hole.full_support
        lone = MeasuredGraph.build(2, [], [1, 0])
        assert lone.ratio_bound == 1 and not lone.full_support


class TestSubsetType:
    def test_out_of_range_mask(self):
        with pytest.raises(ValueError):
            VertexSubset(3, 1 << 3)

    def test_membership_and_len(self):
        s = VertexSubset.from_indices(5, [0, 3])
        assert 0 in s and 3 in s and 1 not in s
        assert len(s) == 2

    def test_generated_json_is_loadable(self):
        g = make_cycle(5)
        doc = json.loads(dump_graph(g))
        assert len(doc["vertices"]) == 5 and len(doc["edges"]) == 5
