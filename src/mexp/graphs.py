"""Measured graphs: data model, metric and boundary primitives, structural stats.

A measured graph is a finite simple undirected graph together with a
nonnegative rational measure on its vertices.  Vertices are dense integers
0..n-1 internally; arbitrary input labels are kept for reporting.

Everything here is exact: measures are fractions.Fraction and boundary
computations never touch floating point.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .rationals import InputError, RationalFormatError, format_rational, parse_rational


class GraphFormatError(InputError):
    """An input document violates the graph file schema."""


@dataclass(frozen=True)
class VertexSubset:
    """A subset of 0..n-1 stored as a bitmask (bit v set iff v is a member)."""

    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise InputError(f"mask {self.mask:#x} not a subset of 0..{self.n - 1}")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VertexSubset":
        mask = 0
        for v in indices:
            if not 0 <= v < n:
                raise InputError(f"vertex {v} out of range 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    def indices(self) -> list[int]:
        return [v for v in range(self.n) if self.mask >> v & 1]

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")


@dataclass(frozen=True)
class GraphStats:
    """Structural statistics of a measured graph.

    max_valency      largest vertex degree
    ratio_bound      largest s with s*m(v) <= m(u) <= m(v)/s across every edge,
                     1 for edge-constant measures, None when an edge endpoint
                     has measure zero
    peak_fraction    max_v m(v) / m(V)
    connected        BFS reachability of the whole vertex set
    full_support     every vertex has positive measure
    """

    max_valency: int
    ratio_bound: Fraction | None
    peak_fraction: Fraction
    connected: bool
    full_support: bool


@dataclass(frozen=True)
class MeasuredGraph:
    """Finite simple undirected graph with a nonnegative rational vertex measure.

    Immutable after construction; all derived views are cached and safe to
    share across threads.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    measure: tuple[Fraction, ...]
    labels: tuple

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]], measure: Sequence, labels=None) -> "MeasuredGraph":
        """Validate and construct.  Edges are unordered pairs of vertex indices."""
        if n <= 0:
            raise GraphFormatError("graph needs at least one vertex")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"unknown vertex in edge [{u},{v}]")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u} is not allowed")
            if v in adj[u]:
                raise GraphFormatError(f"duplicate edge [{u},{v}]")
            adj[u].add(v)
            adj[v].add(u)
        m = tuple(Fraction(x) for x in measure)
        if len(m) != n:
            raise GraphFormatError(f"measure has {len(m)} entries for {n} vertices")
        for v, mv in enumerate(m):
            if mv < 0:
                raise GraphFormatError(f"vertex {v}: negative measure {mv}")
        if sum(m) <= 0:
            raise GraphFormatError("total measure must be positive")
        labels = tuple(range(n) if labels is None else labels)
        if len(labels) != n:
            raise GraphFormatError(f"{len(labels)} labels for {n} vertices")
        try:
            distinct = len({(type(label), label) for label in labels})  # matched by JSON type and value
        except TypeError:
            raise GraphFormatError("vertex labels must be hashable") from None
        if distinct != n:
            raise GraphFormatError("duplicate vertex label")
        return cls(n=n, neighbors=tuple(tuple(sorted(s)) for s in adj), measure=m, labels=labels)

    # -- derived views -----------------------------------------------------

    @cached_property
    def total_measure(self) -> Fraction:
        return sum(self.measure, Fraction(0))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) with u < v, sorted."""
        return tuple((u, v) for u in range(self.n) for v in self.neighbors[u] if u < v)

    @cached_property
    def connected(self) -> bool:
        return len(self._component_of) > 0 and max(self._component_of) == 0

    @cached_property
    def _component_of(self) -> tuple[int, ...]:
        comp = [-1] * self.n
        c = 0
        for start in range(self.n):
            if comp[start] >= 0:
                continue
            comp[start] = c
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self.neighbors[u]:
                    if comp[w] < 0:
                        comp[w] = c
                        queue.append(w)
            c += 1
        return tuple(comp)

    @property
    def component_count(self) -> int:
        return max(self._component_of) + 1

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = []
        for u in range(self.n):
            m = 0
            for w in self.neighbors[u]:
                m |= 1 << w
            masks.append(m)
        return tuple(masks)

    @cached_property
    def distances(self) -> tuple[tuple[int | float, ...], ...]:
        """All-pairs hop distances, one BFS per vertex; math.inf across
        components."""
        return tuple(tuple(bfs_distances(self, (v,))) for v in range(self.n))

    @cached_property
    def support_mask(self) -> int:
        m = 0
        for v, mv in enumerate(self.measure):
            if mv > 0:
                m |= 1 << v
        return m

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @cached_property
    def _index(self) -> dict:
        return {(type(label), label): v for v, label in enumerate(self.labels)}

    def index_of(self, label, where: str = "label") -> int:
        """Vertex of a label, matched by JSON type and value as in documents."""
        return _lookup(self._index, label, where)

    def with_measure(self, measure: Sequence) -> "MeasuredGraph":
        """Same graph, different measure (validated)."""
        return MeasuredGraph.build(self.n, self.edges, measure, labels=self.labels)


# -- loading ---------------------------------------------------------------


def load_graph(document) -> MeasuredGraph:
    """Parse and validate a graph document.

    Accepts a JSON string or an already-decoded dict matching
      {"vertices": [{"id": <label>, "m": "p/q" | "int"}...],
       "edges": [[<label>, <label>], ...],
       "conductance": [[<label>, <label>, "p/q"], ...]}   (optional)
    """
    doc = _decode(document)
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise GraphFormatError("document needs a nonempty \"vertices\" array")
    labels = []
    measure = []
    index = {}
    for i, entry in enumerate(vertices):
        if not isinstance(entry, dict) or "id" not in entry or "m" not in entry:
            raise GraphFormatError(f"vertices[{i}]: expected an object with \"id\" and \"m\"")
        label = entry["id"]
        if isinstance(label, (dict, list)):
            raise GraphFormatError(f"vertices[{i}]: label must be a scalar")
        key = (type(label), label)
        if key in index:
            raise GraphFormatError(f"vertices[{i}]: duplicate vertex id {label!r}")
        index[key] = i
        try:
            mv = parse_rational(entry["m"], where=f"vertices[{i}].m")
        except RationalFormatError as exc:
            raise GraphFormatError(str(exc)) from None
        if mv < 0:
            raise GraphFormatError(f"vertices[{i}]: negative measure {entry['m']!r}")
        labels.append(label)
        measure.append(mv)
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError("\"edges\" must be an array of pairs")
    edges = []
    for i, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise GraphFormatError(f"edges[{i}]: expected a pair [u, v]")
        edges.append(tuple(_lookup(index, label, f"edges[{i}]") for label in pair))
    return MeasuredGraph.build(len(labels), edges, measure, labels=labels)


def load_conductance(document, graph: MeasuredGraph) -> dict[tuple[int, int], Fraction] | None:
    """Extract the optional "conductance" array, keyed by (u, v) with u < v.

    Returns None when the document has no conductance section.  Coverage and
    positivity are checked by the walk constructor, not here.
    """
    doc = _decode(document)
    raw = doc.get("conductance")
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise GraphFormatError("\"conductance\" must be an array of [u, v, value] triples")
    out: dict[tuple[int, int], Fraction] = {}
    for i, triple in enumerate(raw):
        if not isinstance(triple, list) or len(triple) != 3:
            raise GraphFormatError(f"conductance[{i}]: expected [u, v, value]")
        u, v = (graph.index_of(label, f"conductance[{i}]") for label in triple[:2])
        if u == v:
            raise GraphFormatError(f"conductance[{i}]: loop entry at {triple[0]!r}")
        key = (min(u, v), max(u, v))
        if key in out:
            raise GraphFormatError(f"conductance[{i}]: duplicate entry for edge {triple[:2]!r}")
        try:
            out[key] = parse_rational(triple[2], where=f"conductance[{i}]")
        except RationalFormatError as exc:
            raise GraphFormatError(str(exc)) from None
    return out


def dump_graph(graph: MeasuredGraph, conductance: dict[tuple[int, int], Fraction] | None = None) -> str:
    """Serialize back to the JSON interchange format."""
    doc = {
        "vertices": [
            {"id": graph.labels[v], "m": format_rational(graph.measure[v])}
            for v in range(graph.n)
        ],
        "edges": [[graph.labels[u], graph.labels[v]] for u, v in graph.edges],
    }
    if conductance is not None:
        doc["conductance"] = [
            [graph.labels[u], graph.labels[v], format_rational(a)]
            for (u, v), a in sorted(conductance.items())
        ]
    return json.dumps(doc, indent=2)


def _lookup(index: dict, label, where: str) -> int:
    """Vertex of a label, matched by JSON type and value, so that true is not
    1 and 2.0 is not 2."""
    try:
        return index[type(label), label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise GraphFormatError(f"{where}: unknown vertex {label!r}") from None


def _decode(document):
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"not valid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be a JSON object")
    return doc


# -- metric and boundaries -------------------------------------------------


def bfs_distances(graph: MeasuredGraph, sources: Iterable[int]) -> list[int | float]:
    """BFS layers from a set of sources; unreachable vertices get math.inf."""
    dist: list[int | float] = [math.inf] * graph.n
    queue = deque()
    for s in sources:
        dist[s] = 0
        queue.append(s)
    while queue:
        x = queue.popleft()
        for w in graph.neighbors[x]:
            if dist[w] == math.inf:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def diameter(graph: MeasuredGraph) -> int:
    """Largest hop distance; requires a connected graph."""
    if not graph.connected:
        raise InputError("diameter requires a connected graph")
    return int(max(max(row) for row in graph.distances))


def vertex_boundary(graph: MeasuredGraph, subset: VertexSubset) -> VertexSubset:
    """Vertices outside the subset adjacent to some member."""
    reach = 0
    mask = subset.mask
    for v in range(graph.n):
        if mask >> v & 1:
            reach |= graph.neighbor_masks[v]
    return VertexSubset(graph.n, reach & ~mask)


def r_boundary(graph: MeasuredGraph, subset: VertexSubset, radius: int) -> VertexSubset:
    """Vertices outside the subset at hop distance between 1 and radius of it.

    At radius 1 this coincides with vertex_boundary.
    """
    if radius < 1:
        raise InputError("radius must be at least 1")
    if subset.mask == 0:
        return VertexSubset(graph.n, 0)
    dist = bfs_distances(graph, subset.indices())
    mask = 0
    for v in range(graph.n):
        if 0 < dist[v] <= radius:
            mask |= 1 << v
    return VertexSubset(graph.n, mask)


def measure_of(graph: MeasuredGraph, subset: VertexSubset) -> Fraction:
    total = Fraction(0)
    mask = subset.mask
    for v in range(graph.n):
        if mask >> v & 1:
            total += graph.measure[v]
    return total


def stats(graph: MeasuredGraph) -> GraphStats:
    """Valency bound, measure-ratio bound, peak measure fraction, flags."""
    max_valency = max((graph.degree(v) for v in range(graph.n)), default=0)
    ratio: Fraction | None = Fraction(1)
    for u, v in graph.edges:
        mu, mv = graph.measure[u], graph.measure[v]
        if mu == 0 or mv == 0:
            ratio = None
            break
        edge_ratio = min(Fraction(mu, mv), Fraction(mv, mu))
        if edge_ratio < ratio:
            ratio = edge_ratio
    peak = max(graph.measure) / graph.total_measure
    return GraphStats(
        max_valency=max_valency,
        ratio_bound=ratio,
        peak_fraction=peak,
        connected=graph.connected,
        full_support=all(mv > 0 for mv in graph.measure),
    )
