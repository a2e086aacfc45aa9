"""The generalized zig-zag product and the maps it induces.

The product of a labeled graph has one vertex (u, i) for every base vertex u
and label-graph vertex i adjacent to the label of some dart at u, and one
edge {(u,i),(v,j)} for every base edge {u,v} whose two dart labels are
adjacent to i and j respectively.  Every product edge remembers its base
edge and the two label-graph edges that witnessed it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .graphs import (
    Dart,
    Edge,
    Graph,
    VertexMap,
    check_combinatorial_cover,
    darts,
    format_vertex,
    induced_dart_map,
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
    """A zig-zag product together with its construction data."""

    product: Graph
    base: Graph
    labels: Graph
    labeling: HLabeling
    edge_tags: Mapping

    def __post_init__(self):
        tags = dict(self.edge_tags)
        if set(tags) != set(self.product.edges):
            raise ValueError("edge tags must cover exactly the product edges")
        ordered = {e: tags[e] for e in self.product.edges}
        object.__setattr__(self, "edge_tags", MappingProxyType(ordered))

    def __eq__(self, other):
        if not isinstance(other, ZigZagGraph):
            return NotImplemented
        return (
            self.product == other.product
            and self.base == other.base
            and self.labels == other.labels
            and self.labeling == other.labeling
            and self.edge_tags == other.edge_tags
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

    # (u, label) -> [((u, i), {i, label}) for each i ~ label], one object per product vertex.
    nodes = {}
    for d, lbl in a.mapping.items():
        if (d.vertex, lbl) not in nodes:
            nodes[d.vertex, lbl] = [((d.vertex, i), h._edge(i, lbl)) for i in h.adjacency[lbl]]

    # Base edges (u, v) have rank(u) < rank(v), so (u, i) < (v, j) for all i, j.
    tags = {}
    for e in g.edges:
        u, v = e
        ends_v = nodes[v, a(Dart(v, e))]
        for p, eps_u in nodes[u, a(Dart(u, e))]:
            for q, eps_v in ends_v:
                tags[p, q] = EdgeTag(e, eps_u, eps_v)
    prod = Graph(tuple(p for ends in nodes.values() for p, _ in ends), tuple(tags))
    return ZigZagGraph(prod, g, h, a, tags)


def product_valency_check(z: ZigZagGraph) -> bool:
    """Degree of (u,i) must equal the sum of val(label at v) over base
    neighbors v of u whose label at u is adjacent to i."""
    h = z.labels
    for u, i in z.product.vertices:
        expected = 0
        for v in z.base.neighbors(u):
            e = z.base._edge(u, v)
            if h.has_edge(z.labeling(Dart(u, e)), i):
                expected += h.degree(z.labeling(Dart(v, e)))
        if z.product.degree((u, i)) != expected:
            return False
    return True


def product_edge_count_check(z: ZigZagGraph) -> bool:
    """Product edge count must equal the sum over base edges of the product
    of the two dart-label valencies."""
    h = z.labels
    expected = 0
    for e in z.base.edges:
        u, v = e
        expected += h.degree(z.labeling(Dart(u, e))) * h.degree(z.labeling(Dart(v, e)))
    return len(z.product.edges) == expected


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
    whole base graph.
    """
    first = {u for u, _ in z.product.vertices}
    hit_edges = {tag.base_edge for tag in z.edge_tags.values()}
    image = Graph(tuple(first), tuple(hit_edges))
    pi = VertexMap(z.product, image, {(u, i): u for u, i in z.product.vertices})
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
    f = _pair_map(phi, psi, z1, z2)
    values = list(f.mapping.values())
    if len(set(values)) != len(values) or set(values) != set(z2.product.vertices):
        raise RuntimeError("induced map is not a bijection despite admissible factors")
    back = VertexMap(z2.product, z1.product, {w: v for v, w in f.mapping.items()})
    if not is_graph_morphism(back):
        raise RuntimeError("inverse of the induced map is not a graph morphism")
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

    dmap = induced_dart_map(f)
    for d in darts(f.domain):
        lbl = z.labeling(dmap(d))
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
    beta = pullback_labeling(z.labeling, p)
    lifted = zigzag_product(p.domain, z.labels, beta)
    phat = VertexMap(
        lifted.product, z.product, {(x, i): (p(x), i) for x, i in lifted.product.vertices}
    )
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
    beta = pullback_labeling(z.labeling, p)
    lifted = zigzag_product(p.domain, z.labels, beta)
    phat = VertexMap(
        lifted.product, z.product, {(x, i): (p(x), i) for x, i in lifted.product.vertices}
    )
    res = check_combinatorial_cover(phat)
    if not res:
        raise RuntimeError(f"lifted map failed the cover check ({res.violation} at {res.witness})")
    if z.product.edges and res.index != base_check.index:
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
