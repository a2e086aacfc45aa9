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

    Vertices and edges are canonicalized on construction: ids validated, duplicates dropped, edge endpoints added to
    the vertex set.  The ids are ranked by one `vertex_key` sort, and every stored order (vertices, edge endpoints,
    edges, adjacency, darts) is rank order, which equals the `vertex_key` / `edge_key` / `dart_key` order; so is the
    stored array of edge-endpoint ranks that the other layers read, kept with the vertex count.  Graphs that the
    construction makes from ids it has already checked come in through `_from_ranks` and skip this re-validation;
    both store through `_store`.  `edges` is decoded from the array when first read and then kept, and so are the
    vertex ids and the id -> rank dict of a product or a subgraph, which keeps only how to decode them (`_ids`): a
    product its base and label graphs, a subgraph its parent's id tuple or, of an undecoded parent, what those
    decode from; never the parent graph itself.  Equality and hashing read the ids too.
    """

    vertices: tuple = _Decoded("_vertex_ids", ())
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
        self._store(n, *np.divmod(_distinct(ends.min(axis=1) * n + ends.max(axis=1)), n), vertices=verts, _rank=rank)

    @classmethod
    def _from_ranks(cls, vertices, src: np.ndarray, dst: np.ndarray, *parents) -> "Graph":
        """The graph on valid ids given in key order, with edges the sorted, distinct rank pairs src < dst: stored as
        given, nothing re-checked.  With parents, vertices are increasing ranks, the ids decoded from them when read:
        ranks into one parent, a tuple of ids, or codes rank(u)·|V(h)| + rank(i) of the pairs (u, i) of graphs g, h."""
        ids = {"_ids": (*parents, vertices)} if parents else {"vertices": vertices}
        return object.__new__(cls)._store(len(vertices), src, dst, **ids)

    def _store(self, n: int, src: np.ndarray, dst: np.ndarray, **ids) -> "Graph":
        ranks = np.stack((src, dst), axis=1).astype(np.intp, copy=False)
        ranks.flags.writeable = False
        self.__dict__.pop("edges", None)  # given edges are decoded again from the ranks, when read
        self.__dict__.update(_order=n, _edge_ranks=ranks, **ids)
        return self

    def _vertex_ids(self) -> tuple:
        *parents, ranks = self._ids
        if len(parents) == 1:
            return tuple(map(parents[0].__getitem__, ranks.tolist()))
        (g, h), (u, i) = parents, np.divmod(ranks, parents[1]._order)
        return tuple(zip(map(g.vertices.__getitem__, u.tolist()), map(h.vertices.__getitem__, i.tolist())))

    @cached_property
    def _rank(self) -> dict:
        return dict(zip(self.vertices, range(self._order)))

    def _on_ranks(self, keep: np.ndarray, edges: np.ndarray) -> "Graph":
        """The graph on the vertices of the increasing ranks keep and the edges among them given as rows of
        `_edge_ranks`, renumbered in rank order; it keeps for its ids this graph's, or what they decode from."""
        src, dst = np.searchsorted(keep, edges).T
        *parents, ranks = self._ids if "vertices" not in vars(self) else (self.vertices, np.arange(self._order))
        return Graph._from_ranks(ranks[keep], src, dst, *parents)

    def _edge_ids(self, rows=slice(None)) -> tuple:
        end, (src, dst) = self.vertices.__getitem__, self._edge_ranks[rows].T.tolist()
        return tuple(zip(map(end, src), map(end, dst)))

    def __eq__(self, other):
        if self is other:  # skips comparing the arrays, which may be long
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._edge_ranks, other._edge_ranks) and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.vertices, self._edge_ranks.tobytes()))

    def _edge(self, u: VertexId, v: VertexId) -> Edge:
        """The pair {u, v} of vertices of this graph, endpoints in rank order."""
        return (u, v) if self._rank[u] < self._rank[v] else (v, u)

    @cached_property
    def _degrees(self) -> np.ndarray:
        return np.bincount(self._edge_ranks.ravel(), minlength=self._order)

    @cached_property
    def _isolated_free(self) -> bool:
        return bool(self._degrees.all())

    @cached_property
    def _components(self) -> tuple:
        """Each rank's component, named by its least rank (its root), and its parity: that of the length of the path
        from the root that one breadth-first search in Python over the neighbour index takes, O(|V| + |E|)."""
        indptr, nbrs = (x.tolist() for x in self._csr)
        root, parity = [-1] * self._order, [False] * self._order
        for r in range(len(root)):
            if root[r] < 0:
                root[r], todo = r, [r]
                for x in todo:  # todo grows as it is read
                    for y in nbrs[indptr[x]:indptr[x + 1]]:
                        if root[y] < 0:
                            root[y], parity[y] = r, not parity[x]
                            todo.append(y)
        return np.array(root, np.intp), np.array(parity, bool)

    @cached_property
    def _sides(self) -> tuple | None:
        """A 2-colouring as each rank's place in side 0's ranks then side 1's, each side in rank order, and the size
        p of side 0 (so rank r is on side 1 iff place[r] >= p), with each component's root (so every isolated
        vertex) on side 0: the sides are the parities; None if an edge joins two ranks of one parity (an odd cycle)."""
        side = self._components[1]
        if np.equal(*side[self._edge_ranks.T]).any():
            return None
        return np.argsort(np.argsort(side, kind="stable")), side.size - np.count_nonzero(side)

    @cached_property
    def _edge_codes(self) -> np.ndarray:
        """rank(u)·|V| + rank(v) for every edge (u, v), increasing."""
        return self._edge_ranks @ (self._order, 1)

    def _dart_order(self) -> np.ndarray:
        """The darts in dart order, as positions in the flattened E×2 array of edge ends."""
        ends = self._edge_ranks
        return np.argsort(ends.ravel() * self._order + ends[:, ::-1].ravel())

    @cached_property
    def _csr(self) -> tuple:
        """Neighbour index (indptr, indices): indices[indptr[r]:indptr[r + 1]] are r's neighbour ranks, in order."""
        return np.concatenate(([0], np.cumsum(self._degrees))), self._edge_ranks[:, ::-1].ravel()[self._dart_order()]

    def _around(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """w[k]·|V| + y for every neighbour rank y of each rank x[k], in order, for each k in turn."""
        (indptr, nbrs), d = self._csr, self._degrees[x]
        return np.repeat(w, d) * self._order + nbrs[_runs(indptr[x], d)]

    def _find_edges(self, x, y) -> tuple:
        """The index of the edge {x[k], y[k]} of ranks among the edges, for each k, and whether there is one."""
        return _lookup(self._edge_codes, np.minimum(x, y) * self._order + np.maximum(x, y))

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
        if v not in self._rank:
            raise ValueError(f"vertex {format_vertex(v)} not in graph")
        (indptr, nbrs), r = self._csr, self._rank[v]
        return tuple(map(self.vertices.__getitem__, nbrs[indptr[r]:indptr[r + 1]].tolist()))

    def degree(self, v: VertexId) -> int:
        if v not in self._rank:
            raise ValueError(f"vertex {format_vertex(v)} not in graph")
        return int(self._degrees[self._rank[v]])

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._rank

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        ru, rv = self._rank.get(u, -1), self._rank.get(v, -1)  # u = v gives a loop's code, which no edge has
        return min(ru, rv) >= 0 and bool(self._find_edges(ru, rv)[1])

    def incident_edges(self, v: VertexId) -> tuple:
        return tuple(self._edge(v, w) for w in self.neighbors(v))

    def induced_subgraph(self, subset: Iterable[VertexId]) -> "Graph":
        return self._induced(subset)[0]

    def _induced(self, subset: Iterable[VertexId]) -> tuple:
        """`induced_subgraph`, and the mask of the rows of `_edge_ranks` it keeps, in the same order."""
        sub = set(subset)
        missing = sub - self._rank.keys()
        if missing:
            raise ValueError(f"vertices not in graph: {sorted(missing, key=vertex_key)}")
        invalid = [v for v in sub if not is_vertex_id(v)]  # True == 1 but is no id
        if invalid:
            raise ValueError(f"invalid vertex id: {invalid[0]!r}")
        kept = np.zeros(self._order, bool)
        kept[list(map(self._rank.__getitem__, sub))] = True
        rows = kept[self._edge_ranks].all(axis=1)
        return self._on_ranks(np.flatnonzero(kept), self._edge_ranks[rows]), rows

    def _cut(self, ranks: np.ndarray) -> np.ndarray:
        """The mask of the edges with exactly one end among the vertices of these ranks (np.intp), in edge order."""
        inside = np.bincount(ranks, minlength=self._order).astype(bool)
        return np.not_equal(*inside[self._edge_ranks.T])

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


def _lookup(known: np.ndarray, codes) -> tuple:
    """The position of each code in the increasing array known, and whether the code is found there."""
    at = np.searchsorted(known, codes)
    return at, (known.take(at, mode="clip") == codes) if known.size else np.zeros(np.shape(at), bool)


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[r], starts[r] + 1, ..., starts[r] + lengths[r] - 1 for every r in turn."""
    runs = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    runs += np.arange(runs.size)  # in place: two full-length arrays, not three
    return runs


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
    def _from_ranks(cls, domain: Graph, codomain: Graph, image_ranks: np.ndarray, *edge_images) -> "VertexMap":
        """Domain rank r to codomain rank image_ranks[r] (np.intp), with `_edge_images` if known: nothing re-checked."""
        m = object.__new__(cls)
        m.__dict__.update(domain=domain, codomain=codomain, _image_ranks=image_ranks)
        m.__dict__.update(zip(("_edge_images",), edge_images))
        return m

    def _image_ids(self) -> Mapping:
        images = map(self.codomain.vertices.__getitem__, self._image_ranks.tolist())
        return MappingProxyType(dict(zip(self.domain.vertices, images)))

    @cached_property
    def _edge_images(self) -> np.ndarray | None:
        """Each domain edge's image, oriented: the end of its image edge that its first end goes to, as a place
        among the codomain's edge ends flattened, 2·(image edge index) + (1 where the image's ends are stored the
        other way round); halved, the image edge's index.  None if some image is no edge."""
        a, b = self._image_ranks[self.domain._edge_ranks.T]
        at, found = self.codomain._find_edges(a, b)
        return 2 * at + (a > b) if found.all() else None

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
    return VertexMap._from_ranks(g, g, np.arange(g._order, dtype=np.intp))


def compose(outer: VertexMap, inner: VertexMap) -> VertexMap:
    if inner.codomain != outer.domain:
        raise ValueError("maps not composable: codomain of inner differs from domain of outer")
    return VertexMap._from_ranks(inner.domain, outer.codomain, outer._image_ranks[inner._image_ranks])


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
    return lambda d: Dart(mp[d.vertex], edge(mp[d.vertex], mp[d.other_end]))


def satisfies_neighbor_reflecting(psi: VertexMap) -> bool:
    """Vertex-surjective, and adjacency holds upstairs exactly when it holds
    on the images: h ~ h' iff psi(h) ~ psi(h'), over all vertex pairs.

    Counted in O(|V| + |E|): a morphism sends the domain's edges to distinct pairs among the
    |fiber(a)|·|fiber(b)| pairs over the codomain edges ab, so it reflects adjacency iff it has as many edges."""
    sizes = np.bincount(psi._image_ranks, minlength=psi.codomain._order)
    pairs = int(np.multiply(*sizes[psi.codomain._edge_ranks.T]).sum())
    return bool(sizes.all()) and is_graph_morphism(psi) and pairs == len(psi.domain._edge_ranks)


def is_isomorphism(m: VertexMap) -> bool:
    """True iff m is a bijective morphism whose inverse is a morphism: a neighbour-reflecting map of equal orders."""
    return m.domain._order == m.codomain._order and satisfies_neighbor_reflecting(m)


def inverse_map(m: VertexMap) -> VertexMap:
    if not (np.bincount(m._image_ranks, minlength=m.codomain._order) == 1).all():
        raise ValueError("map is not a bijection onto the codomain vertices")
    return VertexMap._from_ranks(m.codomain, m.domain, np.argsort(m._image_ranks))


def is_covering_map(m: VertexMap) -> bool:
    """True iff m is a morphism restricting to a bijection on every neighborhood."""
    if not is_graph_morphism(m):
        return False
    # Neighbours go to neighbours, so: equal degrees, and no vertex sees a vertex twice.
    (x, y), img, n = m.domain._edge_ranks.T, m._image_ranks, m.codomain._order
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
    dom, cod, img, end = m.domain, m.codomain, m._image_ranks, m._edge_images
    counts = np.bincount(end >> 1, minlength=len(cod._edge_ranks))
    odd = np.flatnonzero((counts == 0) | (counts != counts[:1]))
    if odd.size:
        e, count = cod.edges[odd[0]], int(counts[odd[0]])
        if count == 0:
            return CoverCheck(None, "empty-edge-fiber", (e,))
        return CoverCheck(None, "unequal-edge-fibers", (cod.edges[0], int(counts[0]), e, count))
    # Condition two: how often each domain vertex x sees each neighbour v of its image, counted over the
    # darts (x, y) with img(y) = v, in slots listing the pairs (x, v) in order; v's position among img(x)'s
    # neighbours, read at the image edge's end that x goes to, gives the slot.
    order, deg = cod._dart_order(), cod._degrees[img]
    nth = np.empty_like(order)  # per edge end, flattened: the position of the other end among its neighbours
    nth[order] = _runs(np.zeros_like(cod._degrees), cod._degrees)
    (x, y), start = dom._edge_ranks.T, np.cumsum(deg) - deg
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


def _square_cover(m: VertexMap, k: int) -> tuple:
    """Whether counts prove m a combinatorial cover of index k^2 (k >= 1), and the counts, for a refusal to name:
    m is a morphism, every fiber has k vertices and every image edge k^2 preimage edges.  The domain is simple and
    each preimage of an image edge joins its two end fibers, so those are all k·k pairs of the two fibers; each
    vertex sees every fiber next to its own through k edges, and both cover conditions hold (the fiber argument
    of Reingold, Vadhan and Wigderson, Ann. Math. 2002, §3)."""
    if not is_graph_morphism(m):
        return False, "not a graph morphism"
    counts = _distinct(np.bincount(m._edge_images >> 1, minlength=len(m.codomain._edge_ranks))).tolist()
    fibers = _distinct(np.bincount(m._image_ranks, minlength=m.codomain._order)).tolist()
    cover = f"cover index {counts[0]}" if len(counts) == 1 else f"edge fiber sizes {counts}"
    return counts in ([], [k * k]) and fibers in ([], [k]), f"{cover}, fiber sizes {fibers}"


def boundary(subset: Iterable[VertexId], g: Graph) -> tuple:
    """Edges of g with exactly one endpoint in the subset."""
    sub = set(subset)
    missing = sub - g._rank.keys()
    if missing:
        raise ValueError(f"vertices not in graph: {sorted(missing, key=vertex_key)}")
    return g._edge_ids(g._cut(np.fromiter(map(g._rank.__getitem__, sub), np.intp, len(sub))))


def isoperimetric_ratio(subset: Iterable[VertexId], g: Graph) -> Fraction:
    """Boundary size over subset size, as an exact rational."""
    sub = set(subset)
    if not sub:
        raise ValueError("isoperimetric ratio of the empty set is undefined")
    return Fraction(len(boundary(sub, g)), len(sub))


def is_connected(g: Graph) -> bool:
    return not g._components[0].any()


def disjoint_union(a: Graph, b: Graph, tags: tuple = (0, 1)) -> Graph:
    """Disjoint union with vertices tagged as pairs (tag, original id)."""
    verts = tuple([(tags[0], v) for v in a.vertices] + [(tags[1], v) for v in b.vertices])
    ends = np.concatenate((a._edge_ranks, b._edge_ranks + a._order)).tolist()
    return Graph(verts, tuple((verts[x], verts[y]) for x, y in ends))
