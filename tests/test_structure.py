"""Structural questions on the rank arrays: adjacency and degree, connectivity,
boundaries, composition and inversion, isomorphism, neighbour reflection, the
labeled-morphism verdicts, lifted pairs and the DOT text.  Each must give what
the id-dict loop it replaced gives (`oracle`): the same verdict or result, or
an error of the same type and text; and none may build the id views."""

from fractions import Fraction
from itertools import combinations

from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from conftest import labeled_instances_of_both_forms, small_graphs, vertex_maps_into
from helpers import C3, C4, K2
from test_graphs import MAPS_INTO_MIXED, VERTEX_IDS, mixed_graphs, vertex_maps
from zigzag.generators import cycle, path
from zigzag.graphs import (
    Graph,
    VertexMap,
    boundary,
    compose,
    darts,
    disjoint_union,
    identity_map,
    inverse_map,
    is_connected,
    is_graph_morphism,
    is_isomorphism,
    isoperimetric_ratio,
    make_edge,
)
from zigzag.io import graph_to_dot
from zigzag.labeling import (
    HLabeling,
    LabeledMorphism,
    constant_labeling,
    is_strict_morphism,
    is_weak_morphism,
    matching_label_neighborhoods,
    pullback_labeling,
    satisfies_neighbor_reflecting,
)
from zigzag.product import lift_pair, zigzag_product

ANY_GRAPH = st.one_of(small_graphs(), mixed_graphs())


def outcome(f, *args):
    """What f(*args) returns, or the type and text of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


class TestGraphQuestions:
    @given(ANY_GRAPH, st.data())
    def test_adjacency_and_degree(self, g, data):
        probes = list(g.vertices) + data.draw(st.lists(VERTEX_IDS, max_size=2))
        for u, v in combinations(probes, 2):
            assert g.has_edge(u, v) == g.has_edge(v, u) == oracle.adjacent(g, u, v)
        for v in probes:
            assert g.has_edge(v, v) is False
            assert outcome(g.degree, v) == outcome(lambda x: len(g.neighbors(x)), v)

    @given(ANY_GRAPH, st.data())
    @example(disjoint_union(C3, C3), None)
    @example(disjoint_union(path(4), Graph((0, 1), ())), None)
    @example(Graph(), None)
    @example(Graph((0,), ()), None)
    def test_connectivity_boundary_and_dot(self, g, data):
        assert is_connected(g) == oracle.is_connected(g)
        assert graph_to_dot(g) == oracle.graph_to_dot(g) and graph_to_dot(g, "H") == oracle.graph_to_dot(g, "H")
        subsets = [list(g.vertices), list(g.vertices[::2]), []]
        if data is not None:
            subsets.append(data.draw(st.lists(st.one_of(st.sampled_from(g.vertices), VERTEX_IDS) if g.vertices
                                              else VERTEX_IDS, max_size=5)))
        for subset in subsets:
            got = outcome(boundary, subset, g)
            assert got == outcome(oracle.boundary, subset, g)
            if subset and not (got and isinstance(got[0], type)):  # a boundary, not a refusal
                assert isoperimetric_ratio(subset, g) == Fraction(len(got), len(set(subset)))

    def test_dot_quotes_every_id(self):
        ids = Graph(("a\\", 'b"', ("c", 0), "d"), (("a\\", 'b"'),))
        want = ["graph G {", '  "d";', '  "(c,0)";', '  "a\\\\" -- "b\\"";', "}"]
        assert graph_to_dot(ids) == oracle.graph_to_dot(ids) == "\n".join(want) + "\n"


@st.composite
def relabelings(draw):
    """A map from a graph onto a graph on the same ids: a permutation, with the image of every edge as the
    codomain's edges, give or take one; or, now and then, a permutation with two vertices folded together."""
    g = draw(ANY_GRAPH)
    vs = g.vertices
    image = dict(zip(vs, draw(st.permutations(vs))))
    edges = {make_edge(image[u], image[v]) for u, v in g.edges}
    change = draw(st.sampled_from(["none", "add", "drop", "fold"]))
    pairs = sorted(set(combinations(vs, 2)) - edges, key=str)
    if change == "add" and pairs:
        edges.add(draw(st.sampled_from(pairs)))
    if change == "drop" and edges:
        edges.discard(draw(st.sampled_from(sorted(edges, key=str))))
    if change == "fold" and len(vs) > 1:
        x, y = draw(st.lists(st.sampled_from(vs), min_size=2, max_size=2, unique=True))
        image[x] = image[y]
    return VertexMap(g, Graph(vs, tuple(edges)), image)


class TestMapQuestions:
    @given(st.one_of(relabelings(), vertex_maps(), MAPS_INTO_MIXED))
    @example(VertexMap(C4, K2, {0: 0, 2: 0, 1: 1, 3: 1}))  # the antipodal quotient reflects adjacency
    @example(VertexMap(cycle(6), C3, {i: i % 3 for i in range(6)}))  # 0 and 3 are far apart, their images not
    @example(VertexMap(K2, Graph((0, 1, 2), ((0, 1),)), {0: 0, 1: 1}))  # not onto
    @example(VertexMap(Graph(), Graph(), {}))
    def test_inverse_isomorphism_and_reflection(self, m):
        assert outcome(inverse_map, m) == outcome(oracle.inverse_map, m)
        assert is_isomorphism(m) == oracle.is_isomorphism(m)
        assert satisfies_neighbor_reflecting(m) == oracle.satisfies_neighbor_reflecting(m)

    @given(st.one_of(relabelings(), vertex_maps()), st.data())
    def test_compose(self, inner, data):
        target = data.draw(small_graphs(min_vertices=1, max_vertices=4))
        images = {v: data.draw(st.sampled_from(target.vertices)) for v in inner.codomain.vertices}
        for outer in (VertexMap(inner.codomain, target, images), identity_map(inner.codomain), identity_map(target)):
            assert outcome(compose, outer, inner) == outcome(oracle.compose, outer, inner)


class TestLabeledQuestions:
    @given(st.data())
    def test_labeled_morphism_verdicts(self, data):
        g, h, b = data.draw(labeled_instances_of_both_forms())
        m = data.draw(vertex_maps_into(g)) if g.vertices and data.draw(st.booleans()) else identity_map(g)
        pulled = dict(pullback_labeling(b, m).mapping)  # strict, until some darts are relabeled
        for d in darts(m.domain):  # mostly by a label whose neighbours include the old one's: weak, not strict
            if data.draw(st.integers(0, 3)) == 0:
                wider = [x for x in h.vertices if set(h.neighbors(pulled[d])) <= set(h.neighbors(x))]
                pulled[d] = data.draw(st.one_of(st.sampled_from(h.vertices), st.sampled_from(wider)))
        labels = h if data.draw(st.integers(0, 7)) else Graph(h.vertices + (len(h.vertices),), ())
        lm = LabeledMorphism(m, HLabeling(m.domain, labels, pulled), b)
        for ours, ref in ((is_strict_morphism, oracle.is_strict_morphism), (is_weak_morphism, oracle.is_weak_morphism),
                          (matching_label_neighborhoods, oracle.matching_label_neighborhoods)):
            assert outcome(ours, lm) == outcome(ref, lm)

    @given(st.data())
    def test_lift_pair(self, data):
        g, h, a = data.draw(labeled_instances_of_both_forms())
        z = zigzag_product(g, h, a)
        kind = data.draw(st.integers(0, 9))
        if kind == 0:
            f = identity_map(h)  # into another graph, unless h is g
        elif kind == 1 and len(g.vertices) > 1:
            f = data.draw(vertex_maps_into(g, morphism=False))
        else:
            f = data.draw(vertex_maps_into(g)) if g.vertices else identity_map(g)
        labels = pullback_labeling(a, f).mapping if f.codomain == g and is_graph_morphism(f) else {}
        choice = {}
        for w in f.domain.vertices:  # mostly a neighbour of the label of some dart at w's image
            near = sorted({y for d, lbl in labels.items() if d.vertex == w for y in h.neighbors(lbl)})
            options = [st.sampled_from(h.vertices), st.just("absent")] + ([st.sampled_from(near)] * 4 if near else [])
            choice[w] = data.draw(st.one_of(options))
        if choice and data.draw(st.integers(0, 9)) == 0:
            del choice[data.draw(st.sampled_from(sorted(choice, key=str)))]
        assert outcome(lift_pair, f, choice, z) == outcome(oracle.lift_pair, f, choice, z)


def test_structural_questions_build_no_id_view():
    """The structural questions read the rank arrays: no graph they touch builds its edge tuple, edge set,
    adjacency dict or darts, and no map they make decodes its dict."""
    g, h, c4 = cycle(12), path(3), cycle(4)
    z = zigzag_product(g, h, constant_labeling(g, h, 1))
    rotation = VertexMap(g, g, {i: (i + 1) % 12 for i in g.vertices})
    fold = VertexMap(g, c4, {i: i % 4 for i in g.vertices})
    section = lift_pair(identity_map(g), dict.fromkeys(g.vertices, 0), z)
    made = [compose(rotation, rotation), inverse_map(rotation), section]
    answers = (
        g.has_edge(0, 1), g.has_edge(0, 2), g.degree(5), is_connected(g), boundary([0, 1, 2], g),
        is_isomorphism(rotation), is_isomorphism(fold), satisfies_neighbor_reflecting(identity_map(g)),
        satisfies_neighbor_reflecting(fold), graph_to_dot(g).count("--"),
    )
    assert answers == (True, False, 2, True, ((0, 11), (2, 3)), True, False, True, False, 12)
    views = {"edges", "edge_set", "adjacency", "_darts"}
    for graph in (g, h, c4, z.product):
        assert not views & vars(graph).keys(), sorted(views & vars(graph).keys())
    assert not any("mapping" in vars(m) for m in [rotation, fold, *made])
    assert [m(0) for m in made] == [2, 11, (0, 0)]
