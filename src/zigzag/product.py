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
    _runs,
    check_combinatorial_cover,
    format_vertex,
    is_connected,
    is_covering_map,
    is_graph_morphism,
    is_isomorphism,
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
    satisfies_neighbor_reflecting,
    vertex_labels,
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
        u, v = self._base_ranks[self.product._edge_ranks.T]
        try:  # every product edge lies over a base edge, and its tag is the one the labeling gives
            same = np.isin(u * len(g) + v, self.base._edge_codes).all() and dict(stated) == self.edge_tags
        except (TypeError, ValueError):
            same = False
        if not same:
            raise ValueError("edge tags must cover exactly the product edges, as the labeling gives them")

    @classmethod
    def _from_ranks(cls, product: Graph, a: HLabeling, codes: np.ndarray) -> "ZigZagGraph":
        """The product of a labeling with these vertex codes, made by `zigzag_product`: nothing re-checked."""
        z = object.__new__(cls)
        z.__dict__.update(product=product, base=a.base, labels=a.labels, labeling=a, _vertex_codes=codes)
        return z

    def _tag_dict(self) -> Mapping:
        b, *ends = (x.tolist() for x in self._tag_ranks())
        lo_a, lo_b, hi_a, hi_b = (map(self.labels.vertices.__getitem__, x) for x in ends)
        tags = map(EdgeTag, map(self.base.edges.__getitem__, b), zip(lo_a, lo_b), zip(hi_a, hi_b))
        return MappingProxyType(dict(zip(self.product.edges, tags)))

    def _tag_ranks(self) -> list:
        """For every product edge (u,i)(v,j), in order: the index of its base edge uv, and the label
        ranks of the ends of {i, a(u,uv)} and of {j, a(v,uv)}, each pair in rank order."""
        (u, v), (i, j) = np.divmod(self._vertex_codes[self.product._edge_ranks.T], len(self.labels.vertices))
        b = np.searchsorted(self.base._edge_codes, u * len(self.base.vertices) + v)  # u < v
        lab = np.take(self.labeling._label_ranks, b, axis=0)
        return [b] + [end(x, y) for x, y in ((i, lab[:, 0]), (j, lab[:, 1])) for end in (np.minimum, np.maximum)]

    @cached_property
    def _base_ranks(self) -> np.ndarray:
        """The base rank of every product vertex (u, i): nondecreasing."""
        return self._vertex_codes // len(self.labels.vertices)

    def __eq__(self, other):
        if not isinstance(other, ZigZagGraph):
            return NotImplemented
        # The edge tags are derived from the product, label graph and labeling compared here.
        return (
            self.product == other.product
            and self.base == other.base
            and self.labels == other.labels
            and self.labeling == other.labeling
        )


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
    nh, (indptr, nbrs), deg = len(h.vertices), h._csr, h._degrees
    ends, lab = g._edge_ranks, a._label_ranks
    u, lbl = np.divmod(_distinct(ends.ravel() * nh + lab.ravel()), nh)  # (u, label of a dart at u), each once
    codes = _distinct(np.repeat(u, deg[lbl]) * nh + nbrs[_runs(indptr[lbl], deg[lbl])])
    # Per base edge uv: the ranks of (u, i) for i ~ a(u, uv), and of (v, j) for j ~ a(v, uv), each increasing,
    # searched once per edge end; the product edges gather them below.
    du, dv = deg[lab[:, 0]], deg[lab[:, 1]]
    src, dst = (np.repeat(w, d) * nh + nbrs[_runs(indptr[x], d)] for w, x, d in zip(ends.T, lab.T, (du, dv)))
    src, dst = np.searchsorted(codes, src), np.searchsorted(codes, dst)
    # The edges {(u, i), (v, j)} in order: each (u, i) by rank, then by base edge (a stable sort), with every (v, j).
    at = np.argsort(src, kind="stable")
    e = np.repeat(np.arange(len(ends)), du)[at]
    src, dst = np.repeat(src[at], dv[e]), dst[_runs((np.cumsum(dv) - dv)[e], dv[e])]
    first, second = np.divmod(codes, nh)
    verts = tuple(zip(map(g.vertices.__getitem__, first.tolist()), map(h.vertices.__getitem__, second.tolist())))
    return ZigZagGraph._from_ranks(Graph._from_ranks(verts, src, dst), a, codes)


def product_valency_check(z: ZigZagGraph) -> bool:
    """Degree of (u,i) must equal the sum of val(label at v) over base
    neighbors v of u whose label at u is adjacent to i."""
    (indptr, nbrs), deg, nh = z.labels._csr, z.labels._degrees, len(z.labels.vertices)
    lab = z.labeling._label_ranks
    at, other = lab.ravel(), lab[:, ::-1].ravel()  # per dart: the label at its vertex, and at the other end
    # Each dart (u, uv) adds deg(label at v) to every (u, i) with i ~ label at u.
    codes = np.repeat(z.base._edge_ranks.ravel(), deg[at]) * nh + nbrs[_runs(indptr[at], deg[at])]
    weights = np.repeat(deg[other], deg[at])
    known = np.append(z._vertex_codes, len(z.base.vertices) * nh)  # increasing, and ends in a code no vertex has
    pos = np.searchsorted(known, codes)
    hit = known[pos] == codes  # a vertex the product lacks must be expected with degree 0
    expected = np.bincount(pos[hit], weights[hit], minlength=known.size)[:-1]
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

    per_vertex = vertex_labels(z.labeling)
    choices = {u: z.labels.neighbors(per_vertex[u]) for u in z.base.vertices}
    base_vs = z.base.vertices
    for picks in itertools.product(*(choices[u] for u in base_vs)):
        choice = dict(zip(base_vs, picks))
        chosen = [(u, choice[u]) for u in base_vs]
        section = z.product.induced_subgraph(chosen)
        expected = {((u, choice[u]), (v, choice[v])) for u, v in z.base.edges}
        if set(section.edges) != expected:
            raise RuntimeError(f"section {choice} is not a copy of the base graph")
        yield choice, section


def projection(z: ZigZagGraph) -> VertexMap:
    """First-coordinate projection onto its image inside the base.

    The image subgraph carries exactly the base vertices and edges that some
    product vertex or edge lies above; with no degenerate labels this is the
    whole base graph.  The edges hit are those whose two dart labels both
    have neighbours in the label graph.  The map is made from the base
    ranks of the product vertices; `mapping` is decoded when first read.
    """
    base, image, over, keep = z.base, z.base, z._base_ranks, _distinct(z._base_ranks)
    hit = z.labels._degrees[z.labeling._label_ranks].all(axis=1)
    if keep.size < len(base.vertices) or not hit.all():
        image = base._on_ranks(keep, base._edge_ranks[hit])
        over = np.searchsorted(keep, over)
    pi = VertexMap._from_ranks(z.product, image, over)
    if not is_graph_morphism(pi):
        raise RuntimeError("projection failed to be a graph morphism")
    return pi


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
    mapping = {}
    for u, i in z1.product.vertices:
        img = (phi(u), psi(i))
        if not z2.product.has_vertex(img):
            raise RuntimeError(
                f"image {format_vertex(img)} of {format_vertex((u, i))} is not a product vertex; "
                "the admission preconditions cannot have held"
            )
        mapping[(u, i)] = img
    f = VertexMap(z1.product, z2.product, mapping)
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
    missing = set(f.domain.vertices) - set(gmap)
    if missing:
        raise ValueError(f"choice map misses vertices: {sorted(missing, key=vertex_key)}")
    bad = [w for w in f.domain.vertices if not z.labels.has_vertex(gmap[w])]
    if bad:
        raise ValueError(f"choice map leaves the label graph at: {sorted(bad, key=vertex_key)}")

    labels = map(z.labels.vertices.__getitem__, pullback_labeling(z.labeling, f)._dart_ranks().tolist())
    for d, lbl in zip(f.domain._darts, labels):  # the label of each image dart
        if not z.labels.has_edge(gmap[d.vertex], lbl):
            raise ValueError(
                f"adjacency precondition fails at dart {d}: choice {format_vertex(gmap[d.vertex])} "
                f"is not adjacent to label {format_vertex(lbl)}"
            )

    mapping = {}
    for w in f.domain.vertices:
        img = (f(w), gmap[w])
        if not z.product.has_vertex(img):
            raise ValueError(f"image {format_vertex(img)} of isolated vertex {format_vertex(w)} is not in the product")
        mapping[w] = img
    lifted = VertexMap(f.domain, z.product, mapping)
    if not is_graph_morphism(lifted):
        raise RuntimeError("lifted pair failed to be a graph morphism")
    return lifted


def _lift(p: VertexMap, z: ZigZagGraph) -> tuple:
    """The labeling pulled back along p, its product, and (x,i) -> (p(x), i) onto z's product."""
    beta = pullback_labeling(z.labeling, p)
    lifted = zigzag_product(p.domain, z.labels, beta)
    return beta, lifted, VertexMap(lifted.product, z.product, {(x, i): (p(x), i) for x, i in lifted.product.vertices})


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
    """Verify that the projection is a combinatorial cover of index n^2,
    where n is the constant image valency of the labeling."""
    if not is_locally_constant(z.labeling):
        raise ValueError("projection cover check needs a locally constant labeling")
    n = image_valency(z.labeling)
    res = check_combinatorial_cover(projection(z))
    if not res:
        raise RuntimeError(f"projection failed the cover check ({res.violation} at {res.witness})")
    if res.index != n * n:
        raise RuntimeError(f"projection cover index {res.index}, expected {n * n}")
    return res.index
