"""Fixture corpus and randomized instance builders shared across the tests."""

import random

from zigzag.generators import complete, cycle, hypercube, path
from zigzag.graphs import Dart, Graph, VertexMap, darts
from zigzag.labeling import HLabeling, constant_labeling, vertex_labeling

K2 = complete(2)
P3 = path(3)
C3 = cycle(3)
C4 = cycle(4)
C6 = cycle(6)
K4 = complete(4)


def mod_map(big, small, n):
    """The map i -> i mod n, from a graph on 0..k·n-1 (a cycle, say) onto one on 0..n-1."""
    return VertexMap(big, small, {i: i % n for i in big.vertices})


def bijective_labeling(g, h):
    """Label the darts at each vertex bijectively by the label vertices.

    Needs every base degree to equal the number of label vertices; both are
    walked in canonical order, which keeps the assignment deterministic.
    """
    mapping = {}
    for u in g.vertices:
        edges = g.incident_edges(u)
        if len(edges) != len(h.vertices):
            raise ValueError(f"degree {len(edges)} at {u} != {len(h.vertices)} label vertices")
        for e, lbl in zip(edges, h.vertices):
            mapping[Dart(u, e)] = lbl
    return HLabeling(g, h, mapping)


def worked_fixtures():
    """The hand-checked instances used throughout the suite."""
    out = [
        ("k2_k2", K2, K2, constant_labeling(K2, K2, 0)),
        ("c3_p3", C3, P3, constant_labeling(C3, P3, 1)),
        ("c4_p3", C4, P3, constant_labeling(C4, P3, 1)),
        ("c6_p3", C6, P3, constant_labeling(C6, P3, 1)),
        ("p3_p3_mixed", P3, P3, vertex_labeling(P3, P3, {0: 0, 1: 1, 2: 2})),
        ("c3_k2_bij", C3, K2, bijective_labeling(C3, K2)),
        ("k4_c3_bij", K4, C3, bijective_labeling(K4, C3)),
        ("q3_p3", hypercube(3), P3, constant_labeling(hypercube(3), P3, 1)),
    ]
    return out


# Pool of label graphs paired with an equal-valency vertex class to draw
# locally constant labels from.
CONSTANT_VALENCY_POOL = [
    (K2, (0, 1)),
    (C3, (0, 1, 2)),
    (C4, (0, 1, 2, 3)),
    (cycle(5), (0, 1, 2, 3, 4)),
    (K4, (0, 1, 2, 3)),
    (P3, (1,)),
    (path(4), (1, 2)),
    (hypercube(2), ("00", "01", "10", "11")),
]


def random_graph(rng: random.Random, n_min=1, n_max=12, p=0.35) -> Graph:
    n = rng.randint(n_min, n_max)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return Graph(tuple(range(n)), tuple(edges))


def random_connected_graph(rng: random.Random, n_min=3, n_max=8, extra=0.25) -> Graph:
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.add((i, j))
    return Graph(tuple(range(n)), tuple(edges))


def random_dart_labeling(rng: random.Random, g: Graph, h: Graph) -> HLabeling:
    return HLabeling(g, h, {d: rng.choice(h.vertices) for d in darts(g)})


def random_constant_valency_instance(rng: random.Random):
    """A connected base with a locally constant, constant-valency labeling."""
    h, cls = rng.choice(CONSTANT_VALENCY_POOL)
    g = random_connected_graph(rng)
    per_vertex = {u: rng.choice(cls) for u in g.vertices}
    return g, h, vertex_labeling(g, h, per_vertex)
