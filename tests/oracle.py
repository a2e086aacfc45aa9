"""Brute-force references for the product construction and the cover check.

The product oracle filters all of V(G) x V(H) and all candidate vertex pairs
by the literal membership rules, using nothing from the construction under
test.  The cover oracle recounts neighbour fibers once per (vertex, adjacent
fiber) pair, the enumeration the library's one-pass check replaces.  The
matrix oracles fill dense matrices edge by edge through a vertex -> index
dict, and the residual multiplies by the dense adjacency: the loops that the
library's edge-array fills and O(E) residual replace.  The document oracles
build each JSON document as a tree of lists and dicts, for `canonical_dumps`
to lay out: the layout the library's writers render straight from the objects.
The labeling oracles store what the library derives: the pullback,
pushforward and restriction build one dict entry per dart (through the dart
map, the label map, and the darts of the induced subgraph), and the product
builds and stores an EdgeTag for every edge, from which the projection's
image is read.  The
rank-array paths have loop references too: the morphism verdict asks
`has_edge` once per domain edge, the covering check compares neighbour
sets vertex by vertex, the valency check counts expected degrees per dart
in a Counter, spectrum containment takes a minimum over the whole bigger
spectrum per eigenvalue, eigenvector lift and descent walk the product
vertices one at a time, and the image valency is a set of `degree` reads
over the labels in use.
"""

import math
from collections import Counter
from itertools import combinations

import numpy as np

from zigzag.graphs import (
    CoverCheck,
    Dart,
    Graph,
    VertexMap,
    darts,
    induced_dart_map,
    is_graph_morphism,
    make_edge,
    vertex_key,
)
from zigzag.labeling import HLabeling, ImageValencyError, image_valency
from zigzag.product import EdgeTag
from zigzag.spectral import RESIDUAL_TOL, EigenPair, ZeroCertificate


def h_neighbors(h, x):
    out = set()
    for p, q in h.edges:
        if p == x:
            out.add(q)
        elif q == x:
            out.add(p)
    return out


def brute_force_zigzag(g, h, a):
    """Return (vertex set, edge set) of the product by exhaustive filtering."""
    verts = set()
    for u in g.vertices:
        for i in h.vertices:
            for e in g.edges:
                if u in e and i in h_neighbors(h, a(Dart(u, e))):
                    verts.add((u, i))
                    break

    edges = set()
    for (u, i), (v, j) in combinations(sorted(verts, key=vertex_key), 2):
        for e in g.edges:
            if {u, v} == set(e):
                if i in h_neighbors(h, a(Dart(u, e))) and j in h_neighbors(h, a(Dart(v, e))):
                    edges.add(make_edge((u, i), (v, j)))
    return verts, edges


def pullback_labeling(a, m):
    """Precompose with the dart map: one dict entry per domain dart."""
    if m.codomain != a.base:
        raise ValueError("pullback needs a map into the labeled graph")
    dmap = induced_dart_map(m)
    return HLabeling(m.domain, a.labels, {d: a(dmap(d)) for d in darts(m.domain)})


def pushforward_labeling(a, psi):
    """Postcompose the labels: one dict entry per dart."""
    if psi.domain != a.labels:
        raise ValueError("pushforward needs a map out of the label graph")
    if not is_graph_morphism(psi):
        raise ValueError("pushforward along a non-morphism")
    return HLabeling(a.base, psi.codomain, {d: psi(h) for d, h in a.mapping.items()})


def restrict_labeling(a, subset):
    """Restrict to the induced subgraph: one dict entry per dart of it, read from the labeling."""
    sub = a.base.induced_subgraph(subset)
    return HLabeling(sub, a.labels, {d: a(d) for d in darts(sub)})


def zigzag_edge_tags(g, h, a):
    """(product vertices, {product edge: EdgeTag}) with every tag built and stored."""
    nodes = {}  # (u, label) -> [((u, i), {i, label}) for each i ~ label]
    for d, lbl in a.mapping.items():
        if (d.vertex, lbl) not in nodes:
            nodes[d.vertex, lbl] = [((d.vertex, i), make_edge(i, lbl)) for i in h.neighbors(lbl)]
    tags = {}
    for e in g.edges:
        u, v = e
        for p, eps_u in nodes[u, a(Dart(u, e))]:
            for q, eps_v in nodes[v, a(Dart(v, e))]:
                tags[p, q] = EdgeTag(e, eps_u, eps_v)
    return [p for ends in nodes.values() for p, _ in ends], tags


def product_valency_check(z):
    """Expected degrees counted per dart into a Counter, compared through the product's adjacency."""
    adj, expected = z.labels.adjacency, Counter()
    for u, v in z.base.edges:
        lu, lv = z.labeling(Dart(u, (u, v))), z.labeling(Dart(v, (u, v)))
        expected.update({(u, i): len(adj[lv]) for i in adj[lu]})
        expected.update({(v, j): len(adj[lu]) for j in adj[lv]})
    return all(len(ns) == expected[p] for p, ns in z.product.adjacency.items())


def projection_image(vertices, tags):
    """The base vertices and the base edges that some product vertex or edge lies above."""
    return Graph(tuple({u for u, _ in vertices}), tuple({t.base_edge for t in tags.values()}))


def is_graph_morphism(m):
    """Every domain edge goes to an edge: one has_edge per domain edge."""
    return all(m.codomain.has_edge(m(u), m(v)) for u, v in m.domain.edges)


def is_covering_map(m):
    """A morphism whose every neighbourhood goes bijectively onto the image's, one vertex at a time."""
    if not is_graph_morphism(m):
        return False
    for x in m.domain.vertices:
        images = [m(y) for y in m.domain.neighbors(x)]
        if len(set(images)) != len(images) or set(images) != set(m.codomain.neighbors(m(x))):
            return False
    return True


def check_combinatorial_cover(m: VertexMap) -> CoverCheck:
    """Check the two combinatorial-covering conditions by enumeration.

    Condition one: every codomain edge has the same positive number of
    preimage edges.  Condition two: vertices in a common fiber see every
    adjacent fiber through equally many edges.  A codomain without edges
    is conventionally a cover of index 1 (both conditions are vacuous).
    """
    if not is_graph_morphism(m):
        return CoverCheck(None, "not-a-morphism", None)

    fiber_edges = {e: 0 for e in m.codomain.edges}
    for x, y in m.domain.edges:
        img = make_edge(m(x), m(y))
        fiber_edges[img] += 1

    index = None
    for e in m.codomain.edges:
        count = fiber_edges[e]
        if count == 0:
            return CoverCheck(None, "empty-edge-fiber", (e,))
        if index is None:
            index = count
        elif count != index:
            first = next(d for d in m.codomain.edges if fiber_edges[d] == index)
            return CoverCheck(None, "unequal-edge-fibers", (first, index, e, count))
    if index is None:
        index = 1

    fibers: dict = {}
    for x in m.domain.vertices:
        fibers.setdefault(m(x), []).append(x)
    for u, fiber in fibers.items():
        for v in m.codomain.neighbors(u):
            counts = {x: sum(1 for y in m.domain.neighbors(x) if m(y) == v) for x in fiber}
            first = fiber[0]
            for x in fiber[1:]:
                if counts[x] != counts[first]:
                    return CoverCheck(None, "unequal-neighborhood-fibers", (first, x, v))
    return CoverCheck(index)


def adjacency_matrix(g):
    index = {v: k for k, v in enumerate(g.vertices)}
    mat = np.zeros((len(g.vertices), len(g.vertices)))
    for u, v in g.edges:
        mat[index[u], index[v]] = 1.0
        mat[index[v], index[u]] = 1.0
    return mat


def normalized_laplacian_matrix(g):
    isolated = [v for v in g.vertices if g.degree(v) == 0]
    if isolated:
        raise ValueError(f"normalized Laplacian undefined with isolated vertices: {isolated[:3]}")
    index = {v: k for k, v in enumerate(g.vertices)}
    mat = np.eye(len(g.vertices))
    for u, v in g.edges:
        w = -1.0 / math.sqrt(g.degree(u) * g.degree(v))
        mat[index[u], index[v]] = w
        mat[index[v], index[u]] = w
    return mat


def has_odd_cycle(g):
    """True iff no 2-colouring exists: a breadth-first search from every uncoloured vertex meets an edge
    whose ends got the same colour."""
    colour = {}
    for root in g.vertices:
        if root in colour:
            continue
        colour[root], queue = 0, [root]
        for u in queue:
            for w in g.neighbors(u):
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return True
    return False


def dense_residual(g, value, vec):
    """max |A·vec - value·vec| with the dense adjacency."""
    return np.max(np.abs(adjacency_matrix(g) @ vec - value * vec))


def spectrum_contained(small, big, tol):
    """Each eigenvalue of small within tol of the nearest of big, by a minimum over all of big."""
    return not any(min(abs(x - y) for y in big.eigenvalues) > tol for x in small.eigenvalues)


def lifted_vector(vector, z):
    """The base vector copied to every fiber, through a rank list built per call."""
    rank = {u: k for k, u in enumerate(z.base.vertices)}
    return vector[[rank[u] for u, _ in z.product.vertices]]


def descend_eigenvector(ep, z):
    """Fiber values grouped per base vertex, one product vertex at a time."""
    n = image_valency(z.labeling)
    if abs(ep.value) <= RESIDUAL_TOL:
        return ZeroCertificate(ep.value)
    fibers: dict = {}
    for (u, _), x in zip(z.product.vertices, ep.vector):
        fibers.setdefault(u, []).append(x)
    for u, vals in fibers.items():
        if max(vals) - min(vals) > RESIDUAL_TOL:
            raise RuntimeError(f"eigenvector with eigenvalue {ep.value:.6g} is not fiber-constant above {u}")
    f = np.array([fibers[u][0] if u in fibers else 0.0 for u in z.base.vertices])
    return EigenPair(z.base, ep.value / n, f)


def image_valency_by_degrees(a):
    """The common valency of the labels in use, from one `degree` call per label in the image."""
    if not len(a.base.edges):
        raise ImageValencyError("labeling has empty image: base graph has no darts")
    valencies = tuple(sorted({a.labels.degree(h) for h in a.image}))
    if valencies == (0,):
        raise ImageValencyError("labels in use are isolated in the label graph", valencies)
    if 0 in valencies or len(valencies) != 1:
        raise ImageValencyError(f"labels in use have valencies {valencies}, expected one positive value", valencies)
    return valencies[0]


def _id(v):
    return [_id(v[0]), _id(v[1])] if isinstance(v, tuple) else v


def graph_to_obj(g):
    return {"vertices": [_id(v) for v in g.vertices], "edges": [_id(e) for e in g.edges]}


def labeling_to_obj(a):
    return {
        "base": graph_to_obj(a.base),
        "labels": graph_to_obj(a.labels),
        "map": [{"vertex": _id(d.vertex), "edge": _id(d.edge), "label": _id(h)} for d, h in a.mapping.items()],
    }


def vertex_map_to_obj(m):
    return {
        "domain": graph_to_obj(m.domain),
        "codomain": graph_to_obj(m.codomain),
        "map": [[_id(v), _id(w)] for v, w in m.mapping.items()],
    }


def product_to_obj(z):
    tags = [
        {"edge": _id(e), "base_edge": _id(t.base_edge), "h_lo": _id(t.h_lo), "h_hi": _id(t.h_hi)}
        for e, t in z.edge_tags.items()
    ]
    obj = {"base": graph_to_obj(z.base), "labels": graph_to_obj(z.labels)}
    obj["labeling"] = labeling_to_obj(z.labeling)["map"]
    obj.update(graph_to_obj(z.product))
    obj["edge_tags"] = tags
    return obj
