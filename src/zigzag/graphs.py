"""Finite simple graphs, darts, vertex maps, coverings, and boundaries."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Union

import numpy as np

AtomId = Union[int, str]
# A vertex id is an atom or a pair of vertex ids.  Product graphs nest pairs.
VertexId = Union[AtomId, tuple]
# Edges are stored with endpoints in canonical order.
Edge = tuple


def is_vertex_id(value) -> bool:
    """True if value is a legal vertex id (atom or recursive pair)."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, str)):
        return True
    if isinstance(value, tuple) and len(value) == 2:
        return is_vertex_id(value[0]) and is_vertex_id(value[1])
    return False


def vertex_key(v: VertexId):
    """Canonical sort key: ints, then strings, then pairs (lexicographic)."""
    if isinstance(v, tuple):
        return (2, vertex_key(v[0]), vertex_key(v[1]))
    if isinstance(v, str):
        return (1, v)
    return (0, v)


def format_vertex(v: VertexId) -> str:
    if isinstance(v, tuple):
        return f"({format_vertex(v[0])},{format_vertex(v[1])})"
    return str(v)


def make_edge(u: VertexId, v: VertexId) -> Edge:
    """Unordered edge as a canonically ordered pair. Loops are rejected."""
    if u == v:
        raise ValueError(f"loop edge at {format_vertex(u)} not allowed in a simple graph")
    try:  # native comparison, where defined, agrees with vertex_key
        return (u, v) if u < v else (v, u)
    except TypeError:  # the ids differ in kind somewhere (int vs str)
        return (u, v) if vertex_key(u) < vertex_key(v) else (v, u)


def edge_key(e: Edge):
    return (vertex_key(e[0]), vertex_key(e[1]))


class Dart(NamedTuple):
    """One of the two (vertex, edge) incidences of an edge."""

    vertex: VertexId
    edge: Edge

    @property
    def other_end(self) -> VertexId:
        u, v = self.edge
        return v if self.vertex == u else u


def dart_key(d: Dart):
    return (vertex_key(d.vertex), edge_key(d.edge))


@dataclass(frozen=True)
class Graph:
    """Immutable finite simple undirected graph.

    Vertices and edges are canonicalized on construction: ids validated,
    duplicates dropped, edge endpoints added to the vertex set.  The ids are
    ranked by one `vertex_key` sort, and every stored order (vertices, edge
    endpoints, edges, adjacency, darts) is rank order, which equals the
    `vertex_key` / `edge_key` / `dart_key` order; so is the cached array of
    edge-endpoint ranks that the spectral layer reads.  Equality is structural.
    """

    vertices: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        first: dict = {}  # distinct id -> the first object given for it

        def stored(x):
            # Only the stored object itself skips validation: True == 1 but is no id.
            try:
                w = first.get(x)
            except TypeError:  # unhashable
                return None
            return first.setdefault(x, x) if w is x or is_vertex_id(x) else None

        for v in self.vertices:
            if stored(v) is None:
                raise ValueError(f"invalid vertex id: {v!r}")
        pairs = []
        for e in self.edges:
            u, v = e
            pair = stored(u), stored(v)
            if None in pair:
                raise ValueError(f"invalid edge endpoints: {e!r}")
            if pair[0] is pair[1]:
                raise ValueError(f"loop edge at {format_vertex(u)} not allowed in a simple graph")
            pairs.append(pair)

        verts = tuple(sorted(first, key=vertex_key))
        rank, n = {v: r for r, v in enumerate(verts)}, len(verts)
        codes = {min(ru, rv) * n + max(ru, rv) for ru, rv in ((rank[u], rank[v]) for u, v in pairs)}
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple((verts[c // n], verts[c % n]) for c in sorted(codes)))
        object.__setattr__(self, "_rank", rank)  # not a field: equality stays structural

    def _edge(self, u: VertexId, v: VertexId) -> Edge:
        """The pair {u, v} of vertices of this graph, endpoints in rank order."""
        return (u, v) if self._rank[u] < self._rank[v] else (v, u)

    @cached_property
    def _edge_ranks(self) -> np.ndarray:
        ranks = np.array([(self._rank[u], self._rank[v]) for u, v in self.edges], dtype=np.intp).reshape(-1, 2)
        ranks.flags.writeable = False
        return ranks

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> dict:
        # Edges are in (rank, rank) order, so lower neighbours come first, each list sorted.
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(ns) for v, ns in adj.items()}

    @cached_property
    def _darts(self) -> tuple:
        # As for adjacency, darts at a vertex come in rank order of their other end.
        at = {v: [] for v in self.vertices}
        for e in self.edges:
            for x in e:
                at[x].append(Dart(x, e))
        return tuple(d for ds in at.values() for d in ds)

    def neighbors(self, v: VertexId) -> tuple:
        if v not in self.adjacency:
            raise ValueError(f"vertex {format_vertex(v)} not in graph")
        return self.adjacency[v]

    def degree(self, v: VertexId) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: VertexId) -> bool:
        return v in self.adjacency

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        ru, rv = self._rank.get(u), self._rank.get(v)
        return None not in (ru, rv) and ru != rv and ((u, v) if ru < rv else (v, u)) in self.edge_set

    def incident_edges(self, v: VertexId) -> tuple:
        return tuple(self._edge(v, w) for w in self.neighbors(v))

    def induced_subgraph(self, subset: Iterable[VertexId]) -> "Graph":
        sub = set(subset)
        missing = sub - set(self.vertices)
        if missing:
            raise ValueError(f"vertices not in graph: {sorted(missing, key=vertex_key)}")
        kept = tuple(e for e in self.edges if e[0] in sub and e[1] in sub)
        return Graph(tuple(sub), kept)

    def is_regular(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        degrees = {len(ns) for ns in self.adjacency.values()}
        return degrees.pop() if len(degrees) == 1 else None

    def max_degree(self) -> int:
        return max((len(ns) for ns in self.adjacency.values()), default=0)


def darts(g: Graph) -> tuple:
    """All (vertex, edge) incidences of g, two per edge, in canonical order."""
    return g._darts


@dataclass(frozen=True, eq=False)
class VertexMap:
    """Total function between the vertex sets of two graphs."""

    domain: Graph
    codomain: Graph
    mapping: Mapping

    def __post_init__(self):
        got = dict(self.mapping)
        dom = set(self.domain.vertices)
        if set(got) != dom:
            extra = sorted(set(got) - dom, key=vertex_key)
            missing = sorted(dom - set(got), key=vertex_key)
            raise ValueError(f"map not total on domain (missing {missing}, extra {extra})")
        bad = [v for v in got.values() if not self.codomain.has_vertex(v)]
        if bad:
            raise ValueError(f"map image leaves codomain: {sorted(set(bad), key=vertex_key)}")
        ordered = {v: got[v] for v in self.domain.vertices}
        object.__setattr__(self, "mapping", MappingProxyType(ordered))

    @cached_property
    def _is_morphism(self) -> bool:
        has_edge, mp = self.codomain.has_edge, self.mapping
        return all(has_edge(mp[u], mp[v]) for u, v in self.domain.edges)

    def __call__(self, v: VertexId) -> VertexId:
        return self.mapping[v]

    def __eq__(self, other):
        if not isinstance(other, VertexMap):
            return NotImplemented
        return (self.domain, self.codomain, self.mapping) == (other.domain, other.codomain, other.mapping)

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple(self.mapping.items())))


def identity_map(g: Graph) -> VertexMap:
    return VertexMap(g, g, {v: v for v in g.vertices})


def compose(outer: VertexMap, inner: VertexMap) -> VertexMap:
    if inner.codomain != outer.domain:
        raise ValueError("maps not composable: codomain of inner differs from domain of outer")
    return VertexMap(inner.domain, outer.codomain, {v: outer(inner(v)) for v in inner.domain.vertices})


def is_graph_morphism(m: VertexMap) -> bool:
    """True iff adjacency is preserved.

    The codomain is simple, so a morphism may never identify two adjacent
    vertices: the image of an edge must again be an edge, never a loop.
    Maps and graphs are immutable, so the verdict is computed once per map.
    """
    return m._is_morphism


def induced_dart_map(m: VertexMap):
    """The dart-level map sending (u, {u,v}) to (m(u), {m(u), m(v)})."""
    if not is_graph_morphism(m):
        raise ValueError("dart map is only induced by a graph morphism")
    mp, edge = m.mapping, m.codomain._edge

    def dmap(d: Dart) -> Dart:
        u, v = d.edge
        x = mp[d.vertex]
        return Dart(x, edge(x, mp[v] if d.vertex == u else mp[u]))

    return dmap


def is_isomorphism(m: VertexMap) -> bool:
    """True iff m is a bijective morphism whose inverse is a morphism."""
    try:
        return is_graph_morphism(m) and is_graph_morphism(inverse_map(m))
    except ValueError:  # not a bijection
        return False


def inverse_map(m: VertexMap) -> VertexMap:
    values = list(m.mapping.values())
    if len(set(values)) != len(values) or set(values) != set(m.codomain.vertices):
        raise ValueError("map is not a bijection onto the codomain vertices")
    return VertexMap(m.codomain, m.domain, {w: v for v, w in m.mapping.items()})


def is_covering_map(m: VertexMap) -> bool:
    """True iff m is a morphism restricting to a bijection on every neighborhood."""
    if not is_graph_morphism(m):
        return False
    for x in m.domain.vertices:
        images = [m(y) for y in m.domain.neighbors(x)]
        if len(set(images)) != len(images) or set(images) != set(m.codomain.neighbors(m(x))):
            return False
    return True


@dataclass(frozen=True)
class CoverCheck:
    """Outcome of a combinatorial-cover check.

    index is the common edge-fiber count when the check succeeds; otherwise
    violation names the failed condition and witness pins down where.
    """

    index: int | None
    violation: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.index is not None


def check_combinatorial_cover(m: VertexMap) -> CoverCheck:
    """Check the two combinatorial-covering conditions by enumeration.

    Condition one: every codomain edge has the same positive number of
    preimage edges.  Condition two: vertices in a common fiber see every
    adjacent fiber through equally many edges.  A codomain without edges
    is conventionally a cover of index 1 (both conditions are vacuous).
    """
    if not is_graph_morphism(m):
        return CoverCheck(None, "not-a-morphism", None)
    mp, cod = m.mapping, m.codomain
    fiber_edges = Counter(cod._edge(mp[x], mp[y]) for x, y in m.domain.edges)

    index = None
    for e in cod.edges:
        count = fiber_edges[e]
        if count == 0:
            return CoverCheck(None, "empty-edge-fiber", (e,))
        if index is None:
            index = count
        elif count != index:
            first = next(d for d in cod.edges if fiber_edges[d] == index)
            return CoverCheck(None, "unequal-edge-fibers", (first, index, e, count))
    if index is None:
        index = 1

    # How often each domain vertex sees each fiber, counted once per vertex.
    sees = {x: Counter(mp[y] for y in ns) for x, ns in m.domain.adjacency.items()}
    fibers: dict = {}
    for x in m.domain.vertices:
        fibers.setdefault(mp[x], []).append(x)
    for u, fiber in fibers.items():
        first = fiber[0]
        for v in cod.neighbors(u):
            for x in fiber[1:]:
                if sees[x][v] != sees[first][v]:
                    return CoverCheck(None, "unequal-neighborhood-fibers", (first, x, v))
    return CoverCheck(index)


def is_combinatorial_cover(m: VertexMap) -> bool:
    return bool(check_combinatorial_cover(m))


def boundary(subset: Iterable[VertexId], g: Graph) -> tuple:
    """Edges of g with exactly one endpoint in the subset."""
    sub = set(subset)
    missing = sub - set(g.vertices)
    if missing:
        raise ValueError(f"vertices not in graph: {sorted(missing, key=vertex_key)}")
    return tuple(e for e in g.edges if (e[0] in sub) != (e[1] in sub))


def isoperimetric_ratio(subset: Iterable[VertexId], g: Graph) -> Fraction:
    """Boundary size over subset size, as an exact rational."""
    sub = set(subset)
    if not sub:
        raise ValueError("isoperimetric ratio of the empty set is undefined")
    return Fraction(len(boundary(sub, g)), len(sub))


def is_connected(g: Graph) -> bool:
    if len(g.vertices) <= 1:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def disjoint_union(a: Graph, b: Graph, tags: tuple = (0, 1)) -> Graph:
    """Disjoint union with vertices tagged as pairs (tag, original id)."""
    verts = [(tags[0], v) for v in a.vertices] + [(tags[1], v) for v in b.vertices]
    edges = [((tags[0], u), (tags[0], v)) for u, v in a.edges]
    edges += [((tags[1], u), (tags[1], v)) for u, v in b.edges]
    return Graph(tuple(verts), tuple(edges))
