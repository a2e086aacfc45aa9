"""Finite simple graphs, darts, vertex maps, coverings, and boundaries."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
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


class _Decoded:
    """A dataclass field that instances may store in another form: when it is not
    in the instance's dict, its value is built by the named method on first read
    and then kept there.  On the class it reads as the field's default, if any.
    (A `__getattr__` fallback would do the same, but slow every attribute read.)"""

    def __init__(self, method: str, *default):
        self.method, self.default = method, default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            if not self.default:
                raise AttributeError(self.name)  # a field without a default
            return self.default[0]
        obj.__dict__[self.name] = value = getattr(obj, self.method)()
        return value


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable finite simple undirected graph.

    Vertices and edges are canonicalized on construction: ids validated,
    duplicates dropped, edge endpoints added to the vertex set.  The ids are
    ranked by one `vertex_key` sort, and every stored order (vertices, edge
    endpoints, edges, adjacency, darts) is rank order, which equals the
    `vertex_key` / `edge_key` / `dart_key` order; so is the stored array of
    edge-endpoint ranks that the other layers read.  `edges` is decoded from
    it when first read and then kept; equality and hashing read the vertices
    and the array.  Graphs that the construction makes from ids it has
    already checked (the product and the projection's image) come in through
    `_from_ranks` and skip this re-validation; both store through `_store`.
    """

    vertices: tuple = ()
    edges: tuple = _Decoded("_edge_ids", ())

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
        ends = []
        for e in self.edges:
            u, v = e
            pair = stored(u), stored(v)
            if None in pair:
                raise ValueError(f"invalid edge endpoints: {e!r}")
            if pair[0] is pair[1]:
                raise ValueError(f"loop edge at {format_vertex(u)} not allowed in a simple graph")
            ends += pair

        verts = tuple(sorted(first, key=vertex_key))
        rank, n = {v: r for r, v in enumerate(verts)}, len(verts)
        ends = np.fromiter(map(rank.__getitem__, ends), np.intp, len(ends)).reshape(-1, 2)
        self._store(verts, rank, *np.divmod(_distinct(ends.min(axis=1) * n + ends.max(axis=1)), n))

    @classmethod
    def _from_ranks(cls, vertices: tuple, src: np.ndarray, dst: np.ndarray) -> "Graph":
        """The graph on valid ids given in key order, with edges the sorted,
        distinct rank pairs src < dst: stored as given, nothing re-checked."""
        return object.__new__(cls)._store(vertices, dict(zip(vertices, range(len(vertices)))), src, dst)

    def _store(self, vertices: tuple, rank: dict, src: np.ndarray, dst: np.ndarray) -> "Graph":
        ranks = np.stack((src, dst), axis=1).astype(np.intp, copy=False)
        ranks.flags.writeable = False
        self.__dict__.pop("edges", None)  # given edges are decoded again from the ranks, when read
        self.__dict__.update(vertices=vertices, _rank=rank, _edge_ranks=ranks)
        return self

    def _on_ranks(self, keep: np.ndarray, edges: np.ndarray) -> "Graph":
        """The graph on the vertices of the increasing ranks keep and the edges
        among them given as rows of `_edge_ranks`, renumbered in rank order."""
        src, dst = np.searchsorted(keep, edges).T
        return Graph._from_ranks(tuple(map(self.vertices.__getitem__, keep.tolist())), src, dst)

    def _edge_ids(self) -> tuple:
        end, (src, dst) = self.vertices.__getitem__, self._edge_ranks.T.tolist()
        return tuple(zip(map(end, src), map(end, dst)))

    def __eq__(self, other):
        if self is other:  # skips comparing the arrays, which may be long
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and np.array_equal(self._edge_ranks, other._edge_ranks)

    def __hash__(self):
        return hash((self.vertices, self._edge_ranks.tobytes()))

    def _edge(self, u: VertexId, v: VertexId) -> Edge:
        """The pair {u, v} of vertices of this graph, endpoints in rank order."""
        return (u, v) if self._rank[u] < self._rank[v] else (v, u)

    @cached_property
    def _degrees(self) -> np.ndarray:
        return np.bincount(self._edge_ranks.ravel(), minlength=len(self.vertices))

    @cached_property
    def _edge_codes(self) -> np.ndarray:
        """rank(u)·|V| + rank(v) for every edge (u, v), increasing, then |V|², a code no pair has."""
        return np.append(self._edge_ranks @ (len(self.vertices), 1), len(self.vertices) ** 2)

    def _dart_order(self) -> np.ndarray:
        """The darts in dart order, as positions in the flattened E×2 array of edge ends."""
        ends = self._edge_ranks
        return np.argsort(ends.ravel() * len(self.vertices) + ends[:, ::-1].ravel())

    @cached_property
    def _csr(self) -> tuple:
        """Neighbour index (indptr, indices): indices[indptr[r]:indptr[r + 1]] are r's neighbour ranks, in order."""
        return np.concatenate(([0], np.cumsum(self._degrees))), self._edge_ranks[:, ::-1].ravel()[self._dart_order()]

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> dict:
        ns = map(self.vertices.__getitem__, self._csr[1].tolist())
        return {v: tuple(islice(ns, d)) for v, d in zip(self.vertices, self._degrees.tolist())}

    @cached_property
    def _darts(self) -> tuple:
        # As for adjacency, darts at a vertex come in rank order of their other end.
        order = self._dart_order()
        ends = map(self.vertices.__getitem__, self._edge_ranks.ravel()[order].tolist())
        return tuple(map(Dart, ends, map(self.edges.__getitem__, (order // 2).tolist())))

    def neighbors(self, v: VertexId) -> tuple:
        if v not in self.adjacency:
            raise ValueError(f"vertex {format_vertex(v)} not in graph")
        return self.adjacency[v]

    def degree(self, v: VertexId) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._rank

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        ru, rv = self._rank.get(u), self._rank.get(v)
        return None not in (ru, rv) and ru != rv and ((u, v) if ru < rv else (v, u)) in self.edge_set

    def incident_edges(self, v: VertexId) -> tuple:
        return tuple(self._edge(v, w) for w in self.neighbors(v))

    def induced_subgraph(self, subset: Iterable[VertexId]) -> "Graph":
        sub = set(subset)
        missing = sub - self._rank.keys()
        if missing:
            raise ValueError(f"vertices not in graph: {sorted(missing, key=vertex_key)}")
        invalid = [v for v in sub if not is_vertex_id(v)]  # True == 1 but is no id
        if invalid:
            raise ValueError(f"invalid vertex id: {invalid[0]!r}")
        kept = np.zeros(len(self.vertices), bool)
        kept[list(map(self._rank.__getitem__, sub))] = True
        return self._on_ranks(np.flatnonzero(kept), self._edge_ranks[kept[self._edge_ranks].all(axis=1)])

    def is_regular(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        degrees = _distinct(self._degrees)
        return int(degrees[0]) if degrees.size == 1 else None

    def max_degree(self) -> int:
        return int(self._degrees.max(initial=0))


def _distinct(a: np.ndarray) -> np.ndarray:
    """The values of a, each once, in increasing order."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[r], starts[r] + 1, ..., starts[r] + lengths[r] - 1 for every r in turn."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def darts(g: Graph) -> tuple:
    """All (vertex, edge) incidences of g, two per edge, in canonical order."""
    return g._darts


@dataclass(frozen=True, eq=False)
class VertexMap:
    """Total function between the vertex sets of two graphs, stored as the codomain
    rank of every domain vertex's image; `mapping` is decoded from it when first read."""

    domain: Graph
    codomain: Graph
    mapping: Mapping = _Decoded("_image_ids")

    def __post_init__(self):
        got = dict(self.__dict__.pop("mapping"))  # decoded again from the ranks, in domain order, when read
        dom = set(self.domain.vertices)
        if set(got) != dom:
            extra = sorted(set(got) - dom, key=vertex_key)
            missing = sorted(dom - set(got), key=vertex_key)
            raise ValueError(f"map not total on domain (missing {missing}, extra {extra})")
        bad = [v for v in got.values() if not self.codomain.has_vertex(v)]
        if bad:
            raise ValueError(f"map image leaves codomain: {sorted(set(bad), key=vertex_key)}")
        ranks = map(self.codomain._rank.__getitem__, map(got.__getitem__, self.domain.vertices))
        self.__dict__.update(_image_ranks=np.fromiter(ranks, np.intp, len(dom)))

    @classmethod
    def _from_ranks(cls, domain: Graph, codomain: Graph, image_ranks: np.ndarray) -> "VertexMap":
        """The map sending domain rank r to codomain rank image_ranks[r] (np.intp): nothing re-checked."""
        m = object.__new__(cls)
        m.__dict__.update(domain=domain, codomain=codomain, _image_ranks=image_ranks)
        return m

    def _image_ids(self) -> Mapping:
        images = map(self.codomain.vertices.__getitem__, self._image_ranks.tolist())
        return MappingProxyType(dict(zip(self.domain.vertices, images)))

    @cached_property
    def _edge_images(self) -> np.ndarray | None:
        """Index of each domain edge's image among the codomain edges; None if some image is no edge."""
        n, img, known = len(self.codomain.vertices), self._image_ranks, self.codomain._edge_codes
        a, b = img[self.domain._edge_ranks.T]
        codes = np.minimum(a, b) * n + np.maximum(a, b)
        at = np.searchsorted(known, codes)
        return at if (known[at] == codes).all() else None

    def __call__(self, v: VertexId) -> VertexId:
        return self.mapping[v]

    def __eq__(self, other):
        if not isinstance(other, VertexMap):
            return NotImplemented
        same_graphs = (self.domain, self.codomain) == (other.domain, other.codomain)
        return same_graphs and np.array_equal(self._image_ranks, other._image_ranks)

    def __hash__(self):
        return hash((self.domain, self.codomain, self._image_ranks.tobytes()))


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
    return m._edge_images is not None


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
    # Neighbours go to neighbours, so: equal degrees, and no vertex sees a vertex twice.
    (x, y), img, n = m.domain._edge_ranks.T, m._image_ranks, len(m.codomain.vertices)
    seen = np.concatenate((x * n + img[y], y * n + img[x]))
    return np.array_equal(m.domain._degrees, m.codomain._degrees[img]) and _distinct(seen).size == seen.size


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
    """Check the two combinatorial-covering conditions by counting over edges and darts.

    Condition one: every codomain edge has the same positive number of
    preimage edges.  Condition two: vertices in a common fiber see every
    adjacent fiber through equally many edges.  A codomain without edges
    is conventionally a cover of index 1 (both conditions are vacuous).
    """
    if not is_graph_morphism(m):
        return CoverCheck(None, "not-a-morphism", None)
    dom, cod, img, at = m.domain, m.codomain, m._image_ranks, m._edge_images
    counts = np.bincount(at, minlength=len(cod._edge_ranks))
    odd = np.flatnonzero((counts == 0) | (counts != counts[:1]))
    if odd.size:
        e, count = cod.edges[odd[0]], int(counts[odd[0]])
        if count == 0:
            return CoverCheck(None, "empty-edge-fiber", (e,))
        return CoverCheck(None, "unequal-edge-fibers", (cod.edges[0], int(counts[0]), e, count))
    # Condition two: how often each domain vertex x sees each neighbour v of its image, counted over the
    # darts (x, y) with img(y) = v, in slots listing the pairs (x, v) in order; v's position among img(x)'s
    # neighbours, read at the image edge's end img(x), gives the slot.
    order, deg = cod._dart_order(), cod._degrees[img]
    nth = np.empty_like(order)  # per edge end, flattened: the position of the other end among its neighbours
    nth[order] = _runs(np.zeros_like(cod._degrees), cod._degrees)
    (x, y), start = dom._edge_ranks.T, np.cumsum(deg) - deg
    end = 2 * at + (img[x] > img[y])  # the end of the image edge that x goes to
    seen = np.bincount(np.concatenate((start[x] + nth[end], start[y] + nth[end ^ 1])), minlength=deg.sum())
    xs = np.repeat(np.arange(img.size), deg)
    _, first_at, fiber = np.unique(img, return_index=True, return_inverse=True)
    first = first_at[fiber]
    bad = np.flatnonzero(seen != seen[np.arange(seen.size) + (start[first] - start)[xs]])  # vs. the fiber's first
    if bad.size:  # report the first by fiber, then neighbour, then vertex
        (indptr, nbrs), xb = cod._csr, xs[bad]
        vb = nbrs[indptr[img[xb]] + bad - start[xb]]
        k = np.lexsort((xb, vb, first[xb]))[0]
        witness = (dom.vertices[first[xb[k]]], dom.vertices[xb[k]], cod.vertices[vb[k]])
        return CoverCheck(None, "unequal-neighborhood-fibers", witness)
    return CoverCheck(int(counts[0]) if counts.size else 1)


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
