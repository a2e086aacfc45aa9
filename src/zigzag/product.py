"""The generalized zig-zag product and the maps it induces.

The product of a labeled graph has one vertex (u, i) for every base vertex u
and label-graph vertex i adjacent to the label of some dart at u, and one
edge {(u,i),(v,j)} for every base edge {u,v} whose two dart labels are
adjacent to i and j respectively.  Every product edge remembers its base
edge and the two label-graph edges that witnessed it; these tags are
derived from the labeling's rank array, and kept as a dict only once read.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graphs import (
    Edge,
    Graph,
    VertexMap,
    _Decoded,
    _distinct,
    _lookup,
    _runs,
    _square_cover,
    check_combinatorial_cover,
    format_vertex,
    identity_map,
    is_connected,
    is_covering_map,
    is_graph_morphism,
    is_isomorphism,
    satisfies_neighbor_reflecting,
    vertex_key,
)
from .labeling import (
    HLabeling,
    LabeledMorphism,
    image_valency,
    is_locally_constant,
    is_strict_morphism,
    is_weak_morphism,
    matching_label_neighborhoods,
    pullback_labeling,
    pushforward_labeling,
)


class EdgeTag(NamedTuple):
    """Provenance of a product edge.

    base_edge is the base edge that produced it; h_lo and h_hi are the
    label-graph edges joining each endpoint's second coordinate to the label
    of the corresponding dart, ordered to match the canonical order of the
    product edge's endpoints.
    """

    base_edge: Edge
    h_lo: Edge
    h_hi: Edge


@dataclass(frozen=True, eq=False)
class ZigZagGraph:
    """A zig-zag product together with its construction data.  `edge_tags`,
    a read-only product edge -> EdgeTag dict in edge order, is built from the
    labeling's ranks when first read and then kept (library code reads
    `_tag_ranks`); tags given explicitly must equal it.
    `_vertex_codes` holds rank(u)·|V(H)| + rank(i) for every product vertex (u, i), increasing."""

    product: Graph
    base: Graph
    labels: Graph
    labeling: HLabeling
    edge_tags: Mapping = _Decoded("_tag_dict")

    def __post_init__(self):
        if (self.labeling.base, self.labeling.labels) != (self.base, self.labels):
            raise ValueError("labeling does not tie the given base and label graphs")
        g, h, vs = self.base._rank, self.labels._rank, self.product.vertices
        for p in vs:
            if not (isinstance(p, tuple) and p[0] in g and p[1] in h):
                raise ValueError(f"product vertex {format_vertex(p)} is not a (base vertex, label vertex) pair")
        stated = self.__dict__.pop("edge_tags")
        self.__dict__.update(_vertex_codes=np.fromiter((g[u] * len(h) + h[i] for u, i in vs), np.intp, len(vs)))
        try:  # each edge over a base edge, and its tag the one the labeling gives
            same = self._base_edges is not None and dict(stated) == self.edge_tags
        except (TypeError, ValueError):
            same = False
        if not same:
            raise ValueError("edge tags must cover exactly the product edges, as the labeling gives them")

    @classmethod
    def _from_ranks(cls, product: Graph, a: HLabeling, codes: np.ndarray, *base_edges) -> "ZigZagGraph":
        """A product made by `zigzag_product`, with these vertex codes (and `_base_edges`): nothing re-checked."""
        z = object.__new__(cls)
        z.__dict__.update(product=product, base=a.base, labels=a.labels, labeling=a, _vertex_codes=codes)
        z.__dict__.update(zip(("_base_edges",), base_edges))
        return z

    def _tag_dict(self) -> Mapping:
        b, *ends = (x.tolist() for x in self._tag_ranks())
        lo_a, lo_b, hi_a, hi_b = (map(self.labels.vertices.__getitem__, x) for x in ends)
        tags = map(EdgeTag, map(self.base.edges.__getitem__, b), zip(lo_a, lo_b), zip(hi_a, hi_b))
        return MappingProxyType(dict(zip(self.product.edges, tags)))

    def _tag_ranks(self) -> list:
        """For every product edge (u,i)(v,j), in order: the index of its base edge uv, and the label
        ranks of the ends of {i, a(u,uv)} and of {j, a(v,uv)}, each pair in rank order."""
        i, j = self._vertex_codes[self.product._edge_ranks.T] % self.labels._order
        b = self._base_edges
        lab = np.take(self.labeling._label_ranks, b, axis=0)
        return [b] + [end(x, y) for x, y in ((i, lab[:, 0]), (j, lab[:, 1])) for end in (np.minimum, np.maximum)]

    @cached_property
    def _base_edges(self) -> np.ndarray | None:
        """The index of every product edge's base edge, in order: kept by `zigzag_product`, else looked up
        by code; None if some product edge lies over no base edge."""
        u, v = self._base_ranks[self.product._edge_ranks.T]
        at, found = self.base._find_edges(u, v)
        return at if found.all() else None

    @cached_property
    def _base_ranks(self) -> np.ndarray:
        """The base rank of every product vertex (u, i): nondecreasing."""
        return self._vertex_codes // self.labels._order

    @cached_property
    def _fiber_starts(self) -> np.ndarray:
        """The first product rank above each base vertex with a fiber, increasing."""
        return np.flatnonzero(np.diff(self._base_ranks, prepend=-1))

    def __eq__(self, other):
        if not isinstance(other, ZigZagGraph):
            return NotImplemented
        # The labeling ties the base and label graphs, and the edge tags are derived from it and the product.
        return self.product == other.product and self.labeling == other.labeling


def zigzag_product(g: Graph, h: Graph, a: HLabeling) -> ZigZagGraph:
    """Build the product of (g, a) with label graph h.

    Vertices: (u, i) whenever some dart at u carries a label adjacent to i.
    Edges: {(u,i),(v,j)} whenever the base edge {u,v} has its label at u
    adjacent to i and its label at v adjacent to j.  If every used label is
    isolated in h the product is legally empty.
    """
    if a.base != g:
        raise ValueError("labeling does not belong to the given base graph")
    if a.labels != h:
        raise ValueError("labeling does not map into the given label graph")

    # Product vertex (u, i) is coded rank(u)·|V(h)| + rank(i), so codes sort as the ids do.
    # The label ranks upcast with the intp edge ends.
    nh, deg, ends, lab = h._order, h._degrees, g._edge_ranks, a._label_ranks
    u, lbl = np.divmod(_distinct(ends.ravel() * nh + lab.ravel()), nh)  # (u, label of a dart at u), each once
    codes = _distinct(h._around(u, lbl))
    # Per base edge uv: the ranks of (u, i) for i ~ a(u, uv), and of (v, j) for j ~ a(v, uv), each increasing,
    # searched once per edge end; the product edges gather them below.
    src, dst = (np.searchsorted(codes, h._around(w, x)) for w, x in zip(ends.T, lab.T))
    du, dv = deg[lab[:, 0]], deg[lab[:, 1]]
    # The edges {(u, i), (v, j)} in order: each (u, i) by rank, then by base edge (a stable sort), with every (v, j).
    at = np.argsort(src, kind="stable")
    e = np.repeat(np.arange(len(ends)), du)[at]
    k = dv[e]
    src, dst = np.repeat(src[at], k), dst[_runs((np.cumsum(dv) - dv)[e], k)]
    return ZigZagGraph._from_ranks(Graph._from_ranks(codes, src, dst, g, h), a, codes, np.repeat(e, k))


def product_valency_check(z: ZigZagGraph) -> bool:
    """Degree of (u,i) must equal the sum of val(label at v) over base
    neighbors v of u whose label at u is adjacent to i."""
    deg, lab = z.labels._degrees, z.labeling._label_ranks
    at, other = lab.ravel(), lab[:, ::-1].ravel()  # per dart: the label at its vertex, and at the other end
    # Each dart (u, uv) adds deg(label at v) to every (u, i) with i ~ label at u.
    codes, weights = z.labels._around(z.base._edge_ranks.ravel(), at), np.repeat(deg[other], deg[at])
    pos, hit = _lookup(z._vertex_codes, codes)  # a vertex the product lacks must be expected with degree 0
    expected = np.bincount(pos[hit], weights[hit], minlength=len(z._vertex_codes))
    return not weights[~hit].any() and np.array_equal(expected, z.product._degrees)


def product_edge_count_check(z: ZigZagGraph) -> bool:
    """Product edge count must equal the sum over base edges of the product
    of the two dart-label valencies."""
    deg, lab = z.labels._degrees, z.labeling._label_ranks
    return len(z.product._edge_ranks) == int((deg[lab[:, 0]] * deg[lab[:, 1]]).sum())


def section_subgraphs(z: ZigZagGraph):
    """Enumerate the k^|V(base)| embedded copies of the base graph.

    For a locally constant labeling with constant image valency k, choosing
    one product vertex above each base vertex induces a subgraph isomorphic
    to the base via the first coordinate.  Yields (choice, subgraph) pairs
    and verifies the isomorphism for each.
    """
    if not is_locally_constant(z.labeling):
        raise ValueError("sections need a locally constant labeling")
    image_valency(z.labeling)
    if not is_connected(z.base):
        raise ValueError("sections need a connected base graph")

    # With one (u, i) above each base vertex u, ranks are the base's: a copy of the base has its edge ranks.
    (indptr, nbrs), base_vs = z.labels._csr, z.base.vertices
    choices = [nbrs[indptr[r]:indptr[r + 1]].tolist() for r in z.labeling._vertex_ranks.tolist()]
    for picks in itertools.product(*choices):
        choice = dict(zip(base_vs, map(z.labels.vertices.__getitem__, picks)))
        section = z.product.induced_subgraph(choice.items())
        if not np.array_equal(section._edge_ranks, z.base._edge_ranks):
            raise RuntimeError(f"section {choice} is not a copy of the base graph")
        yield choice, section


def projection(z: ZigZagGraph) -> VertexMap:
    """First-coordinate projection onto its image inside the base.

    The image subgraph carries exactly the base vertices and edges that some
    product vertex or edge lies above; with no degenerate labels this is the
    whole base graph.  The edges hit are those whose two dart labels both
    have neighbours in the label graph.  The map is made from the base
    ranks of the product vertices and its edge images from the product's
    base edges; `mapping` is decoded when first read.
    """
    base, image, over, at, starts = z.base, z.base, z._base_ranks, z._base_edges, z._fiber_starts
    # Every product edge's first and second ends lie over its base edge's first and second ends, one gather per
    # column: so no edge's image is reversed, and its first end goes to its image's first end.
    if at is None or not all(np.array_equal(over[x], base._edge_ranks[at, k])
                             for k, x in enumerate(z.product._edge_ranks.T)):
        raise RuntimeError("projection failed to be a graph morphism")
    hit = z.labels._degrees[z.labeling._label_ranks].all(axis=1)
    if starts.size < base._order or not hit.all():  # renumbered through the kept vertices and edges
        image = base._on_ranks(over[starts], base._edge_ranks[hit])
        over, at = np.searchsorted(over[starts], over), (np.cumsum(hit) - 1)[at]
    return VertexMap._from_ranks(z.product, image, over, 2 * at)


def _admission(phi: VertexMap, psi: VertexMap, z1: ZigZagGraph, z2: ZigZagGraph) -> LabeledMorphism:
    if phi.domain != z1.base or phi.codomain != z2.base:
        raise ValueError("phi must map the first base graph to the second")
    if psi.domain != z1.labels or psi.codomain != z2.labels:
        raise ValueError("psi must map the first label graph to the second")
    if not is_graph_morphism(phi):
        raise ValueError("phi is not a graph morphism")
    if not is_graph_morphism(psi):
        raise ValueError("psi is not a graph morphism")
    pushed = pushforward_labeling(z1.labeling, psi)
    return LabeledMorphism(phi, pushed, z2.labeling)


def _pair_map(phi: VertexMap, psi: VertexMap, z1: ZigZagGraph, z2: ZigZagGraph) -> VertexMap:
    """(u, i) -> (phi(u), psi(i)) between the products: each image coded as in z2, found among z2's vertex codes."""
    u, i = np.divmod(z1._vertex_codes, z1.labels._order)
    codes = phi._image_ranks[u] * z2.labels._order + psi._image_ranks[i]
    at, found = _lookup(z2._vertex_codes, codes)
    missing = np.flatnonzero(~found)
    if missing.size:
        v = z1.product.vertices[missing[0]]
        raise RuntimeError(f"image {format_vertex((phi(v[0]), psi(v[1])))} of {format_vertex(v)} is not a "
                           "product vertex; the admission preconditions cannot have held")
    f = VertexMap._from_ranks(z1.product, z2.product, at)
    if not is_graph_morphism(f):
        raise RuntimeError("induced pair map failed to be a graph morphism")
    return f


def induced_product_map(phi: VertexMap, psi: VertexMap, z1: ZigZagGraph, z2: ZigZagGraph) -> VertexMap:
    """The map (u,i) -> (phi(u), psi(i)) between two products.

    Admitted when phi is a strict labeled morphism after pushing the first
    labeling through psi, or a weak one with psi neighbor-reflecting.  The
    returned map is verified to be a graph morphism.
    """
    lm = _admission(phi, psi, z1, z2)
    strict = is_strict_morphism(lm)
    weak = is_weak_morphism(lm) and satisfies_neighbor_reflecting(psi)
    if not (strict or weak):
        raise ValueError("pair is admitted by neither the strict nor the weak route")
    return _pair_map(phi, psi, z1, z2)


def is_product_isomorphism(phi: VertexMap, psi: VertexMap, z1: ZigZagGraph, z2: ZigZagGraph) -> bool:
    """Whether isomorphisms of the factors induce an isomorphism of products.

    True when phi is strict after pushforward, or when corresponding dart
    labels have identical neighborhoods (the bidirectional weak condition).
    Both routes are verified on the actual products before returning True.
    """
    lm = _admission(phi, psi, z1, z2)
    if not is_isomorphism(phi) or not is_isomorphism(psi):
        raise ValueError("both factor maps must be graph isomorphisms")
    if not (is_strict_morphism(lm) or matching_label_neighborhoods(lm)):
        return False
    if not is_isomorphism(_pair_map(phi, psi, z1, z2)):
        raise RuntimeError("induced map is not an isomorphism despite admissible factors")
    return True


def lift_pair(f: VertexMap, gmap: Mapping, z: ZigZagGraph) -> VertexMap:
    """Combine a morphism into the base with a vertex labeling choice into a
    morphism into the product: w -> (f(w), gmap[w]).

    Requires gmap[w] adjacent in the label graph to the label of the image
    dart, for every dart (w, e) of the domain.
    """
    if f.codomain != z.base:
        raise ValueError("first map must land in the product's base graph")
    if not is_graph_morphism(f):
        raise ValueError("first map must be a graph morphism")
    dom, nh = f.domain, z.labels._order
    missing = set(dom.vertices) - set(gmap)
    if missing:
        raise ValueError(f"choice map misses vertices: {sorted(missing, key=vertex_key)}")
    choice = np.fromiter((z.labels._rank.get(gmap[w], -1) for w in dom.vertices), np.intp, dom._order)
    if (choice < 0).any():
        bad = [w for w, c in zip(dom.vertices, choice.tolist()) if c < 0]
        raise ValueError(f"choice map leaves the label graph at: {sorted(bad, key=vertex_key)}")
    # Dart order runs through the domain vertices in turn: the choice at each dart's vertex, the label of its image.
    lab = pullback_labeling(z.labeling, f)._dart_ranks()
    adjacent = z.labels._find_edges(np.repeat(choice, dom._degrees), lab)[1]
    if not adjacent.all():
        k = np.argmin(adjacent)  # the first dart whose choice fails
        d, lbl = dom._darts[k], z.labels.vertices[lab[k]]
        raise ValueError(
            f"adjacency precondition fails at dart {d}: choice {format_vertex(gmap[d.vertex])} "
            f"is not adjacent to label {format_vertex(lbl)}"
        )
    at, found = _lookup(z._vertex_codes, f._image_ranks * nh + choice)
    if not found.all():
        w = dom.vertices[np.argmin(found)]
        img = (f(w), gmap[w])
        raise ValueError(f"image {format_vertex(img)} of isolated vertex {format_vertex(w)} is not in the product")
    lifted = VertexMap._from_ranks(dom, z.product, at)
    if not is_graph_morphism(lifted):
        raise RuntimeError("lifted pair failed to be a graph morphism")
    return lifted


def _lift(p: VertexMap, z: ZigZagGraph) -> tuple:
    """The labeling pulled back along p, its product, and (x,i) -> (p(x), i) onto z's product."""
    beta = pullback_labeling(z.labeling, p)
    lifted = zigzag_product(p.domain, z.labels, beta)
    return beta, lifted, _pair_map(p, identity_map(z.labels), lifted, z)


@dataclass(frozen=True, eq=False)
class CoveringLift:
    """A covering of the base lifted to a covering of the products."""

    beta: HLabeling
    lifted: ZigZagGraph
    phat: VertexMap
    verified: bool


def lift_covering(p: VertexMap, z: ZigZagGraph) -> CoveringLift:
    """Lift a covering of the base to the products: (x,i) -> (p(x), i).

    The pulled-back labeling makes the lifted map a covering again; this is
    re-verified on the finite instance rather than assumed.
    """
    if p.codomain != z.base:
        raise ValueError("covering must land in the product's base graph")
    if not is_covering_map(p):
        raise ValueError("map is not a covering map")
    beta, lifted, phat = _lift(p, z)
    verified = is_covering_map(phat)
    if not verified:
        raise RuntimeError("lifted map failed the covering check; construction bug")
    return CoveringLift(beta, lifted, phat, verified)


@dataclass(frozen=True, eq=False)
class CombinatorialLift:
    """A combinatorial covering of the base lifted to the products."""

    beta: HLabeling
    lifted: ZigZagGraph
    phat: VertexMap
    index: int


def lift_combinatorial_cover(p: VertexMap, z: ZigZagGraph) -> CombinatorialLift:
    """Lift a combinatorial cover to the products, preserving the index."""
    if p.codomain != z.base:
        raise ValueError("cover must land in the product's base graph")
    base_check = check_combinatorial_cover(p)
    if not base_check:
        raise ValueError(
            f"map is not a combinatorial cover: {base_check.violation} at {base_check.witness}"
        )
    beta, lifted, phat = _lift(p, z)
    res = check_combinatorial_cover(phat)
    if not res:
        raise RuntimeError(f"lifted map failed the cover check ({res.violation} at {res.witness})")
    if len(z.product._edge_ranks) and res.index != base_check.index:
        raise RuntimeError(f"lifted index {res.index} differs from base index {base_check.index}")
    return CombinatorialLift(beta, lifted, phat, res.index)


def pi_combinatorial_cover_check(z: ZigZagGraph) -> int:
    """Verify that the projection is a combinatorial cover of index n^2, where n is the constant
    image valency of the labeling: every fiber has n vertices and every image edge n^2 preimages."""
    if not is_locally_constant(z.labeling):
        raise ValueError("projection cover check needs a locally constant labeling")
    n = image_valency(z.labeling)
    proved, counts = _square_cover(projection(z), n)
    if not proved:
        raise RuntimeError(f"projection is not a combinatorial cover of index {n * n}: {counts}")
    return n * n
