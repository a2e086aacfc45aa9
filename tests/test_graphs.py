from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from conftest import small_graphs, vertex_maps_into
from helpers import mod_map
from zigzag import generators
from zigzag.generators import cayley_cyclic, complete, cycle, generate, hypercube, path
from zigzag.graphs import (
    Dart,
    Graph,
    VertexMap,
    boundary,
    check_combinatorial_cover,
    compose,
    darts,
    dart_key,
    disjoint_union,
    edge_key,
    identity_map,
    induced_dart_map,
    inverse_map,
    is_combinatorial_cover,
    is_connected,
    is_covering_map,
    is_graph_morphism,
    is_isomorphism,
    isoperimetric_ratio,
    make_edge,
    vertex_key,
)
from zigzag.spectral import RESIDUAL_TOL, EigenPair, _residual, adjacency_matrix, normalized_laplacian_matrix

K2 = complete(2)
C3 = cycle(3)
C4 = cycle(4)
C6 = cycle(6)


class TestGraphConstruction:
    def test_canonicalization_dedupes_and_sorts(self):
        g = Graph((3, 1, 1, 2), ((3, 1), (1, 3), (2, 3)))
        assert g.vertices == (1, 2, 3)
        assert g.edges == ((1, 3), (2, 3))

    def test_edge_endpoints_join_vertex_set(self):
        g = Graph((), (("a", "b"),))
        assert g.vertices == ("a", "b")

    def test_loops_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph((), ((1, 1),))

    def test_bool_ids_rejected(self):
        with pytest.raises(ValueError):
            Graph((True,), ())

    def test_mixed_atom_order(self):
        g = Graph((("x", 1), "a", 2, 0), ())
        assert g.vertices == (0, 2, "a", ("x", 1))

    def test_neighbors_and_degree(self):
        assert C4.neighbors(0) == (1, 3)
        assert C4.degree(0) == 2
        with pytest.raises(ValueError, match="not in graph"):
            C4.neighbors(9)

    def test_induced_subgraph(self):
        sub = C4.induced_subgraph({0, 1, 2})
        assert sub.edges == ((0, 1), (1, 2))
        with pytest.raises(ValueError):
            C4.induced_subgraph({0, 7})

    def test_is_regular(self):
        assert C4.is_regular() == 2
        assert path(3).is_regular() is None
        assert Graph((0,), ()).is_regular() == 0
        assert Graph().is_regular() is None


class TestDarts:
    def test_single_edge(self):
        g = Graph((), (("a", "b"),))
        assert set(darts(g)) == {Dart("a", ("a", "b")), Dart("b", ("a", "b"))}

    def test_edgeless(self):
        assert darts(Graph((0, 1, 2), ())) == ()

    def test_c4_has_eight(self):
        assert len(darts(C4)) == 8

    @given(small_graphs())
    def test_count_is_twice_edges(self, g):
        assert len(darts(g)) == 2 * len(g.edges)

    @given(small_graphs())
    def test_handshake(self, g):
        assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


class TestMorphisms:
    def test_identity(self):
        assert is_graph_morphism(identity_map(C4))

    def test_cycle_quotient(self):
        assert is_graph_morphism(mod_map(C6, C3, 3))

    def test_constant_map_rejected(self):
        m = VertexMap(C4, K2, {v: 0 for v in C4.vertices})
        assert not is_graph_morphism(m)

    def test_totality_enforced(self):
        with pytest.raises(ValueError, match="not total"):
            VertexMap(C4, C4, {0: 0})
        with pytest.raises(ValueError, match="codomain"):
            VertexMap(K2, K2, {0: 5, 1: 0})

    def test_induced_dart_map(self):
        dmap = induced_dart_map(mod_map(C6, C3, 3))
        assert dmap(Dart(4, (4, 5))) == Dart(1, (1, 2))
        ident = induced_dart_map(identity_map(C4))
        for d in darts(C4):
            assert ident(d) == d
        swap = VertexMap(K2, K2, {0: 1, 1: 0})
        assert induced_dart_map(swap)(Dart(0, (0, 1))) == Dart(1, (0, 1))

    def test_induced_dart_map_rejects_non_morphism(self):
        m = VertexMap(C4, K2, {v: 0 for v in C4.vertices})
        with pytest.raises(ValueError):
            induced_dart_map(m)

    def test_compose_and_inverse(self):
        m1 = mod_map(C6, C3, 3)
        assert compose(identity_map(C3), m1) == m1
        rot = VertexMap(C3, C3, {0: 1, 1: 2, 2: 0})
        assert is_isomorphism(rot)
        assert compose(inverse_map(rot), rot) == identity_map(C3)
        assert not is_isomorphism(m1)


class TestCoveringMaps:
    def test_cycle_cover(self):
        assert is_covering_map(mod_map(C6, C3, 3))

    def test_identity_covers(self):
        for g in (C3, C4, path(5), hypercube(3)):
            assert is_covering_map(identity_map(g))

    def test_fold_is_not_a_cover(self):
        p3 = path(3)
        fold = VertexMap(p3, K2, {0: 0, 1: 1, 2: 0})
        assert is_graph_morphism(fold)
        assert not is_covering_map(fold)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cyclic_covers_brute_force(self, n, k):
        p = mod_map(cycle(k * n), cycle(n), n)
        assert is_covering_map(p)
        res = check_combinatorial_cover(p)
        assert res and res.index == k


class TestCombinatorialCovers:
    def test_cycle_quotient_index(self):
        res = check_combinatorial_cover(mod_map(C6, C3, 3))
        assert res.index == 2

    def test_identity_index(self):
        assert check_combinatorial_cover(identity_map(C4)).index == 1

    def test_two_triangles_onto_one(self):
        two = disjoint_union(C3, C3)
        m = VertexMap(two, C3, {(t, v): v for t, v in two.vertices})
        res = check_combinatorial_cover(m)
        assert res.index == 2

    def test_violation_reports_witness(self):
        # One triangle plus a pendant copy of one edge: edge fibers differ.
        g = Graph((), ((0, 1), (1, 2), (0, 2), (3, 4)))
        m = VertexMap(g, C3, {0: 0, 1: 1, 2: 2, 3: 0, 4: 1})
        res = check_combinatorial_cover(m)
        assert not res
        assert res.violation == "unequal-edge-fibers"
        assert res.witness is not None
        assert not is_combinatorial_cover(m)

    def test_non_morphism_reported(self):
        m = VertexMap(C4, K2, {v: 0 for v in C4.vertices})
        res = check_combinatorial_cover(m)
        assert res.violation == "not-a-morphism"

    def test_neighborhood_fiber_violation(self):
        # Fold a path onto an edge: the two endpoints of the fiber over 0
        # see the fiber over 1 once each, but the middle sees it twice.
        p5 = path(5)
        m = VertexMap(p5, K2, {i: i % 2 for i in range(5)})
        res = check_combinatorial_cover(m)
        assert not res
        assert res.violation == "unequal-neighborhood-fibers"


class TestBoundary:
    def test_whole_and_empty(self):
        assert boundary(set(C4.vertices), C4) == ()
        assert boundary(set(), C4) == ()

    def test_adjacent_pair_in_c4(self):
        assert len(boundary({0, 1}, C4)) == 2

    def test_subset_validated(self):
        with pytest.raises(ValueError):
            boundary({9}, C4)

    @given(small_graphs())
    def test_complement_symmetry(self, g):
        half = set(g.vertices[: len(g.vertices) // 2])
        rest = set(g.vertices) - half
        assert boundary(half, g) == boundary(rest, g)


class TestIsoperimetricRatio:
    def test_whole_graph_is_zero(self):
        assert isoperimetric_ratio(set(C4.vertices), C4) == 0

    def test_single_vertex_in_c4(self):
        assert isoperimetric_ratio({0}, C4) == Fraction(2, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_path_prefix(self, k):
        assert isoperimetric_ratio(set(range(k)), path(5)) == Fraction(1, k)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            isoperimetric_ratio(set(), C4)


class TestGenerators:
    def test_cycle4(self):
        assert C4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_cayley_equals_cycle(self):
        assert cayley_cyclic(6, {1, 5}) == C6

    def test_complete2(self):
        assert K2.edges == ((0, 1),)

    def test_hypercube(self):
        q3 = hypercube(3)
        assert len(q3.vertices) == 8
        assert len(q3.edges) == 12
        assert q3.is_regular() == 3
        assert "000" in q3.vertices

    def test_param_validation(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cayley_cyclic(6, {0, 1, 5})
        with pytest.raises(ValueError, match="negation"):
            cayley_cyclic(6, {1})

    @pytest.mark.parametrize("kind, params", [
        ("cycle", (5,)), ("path", (1,)), ("path", (4,)), ("complete", (1,)), ("complete", (5,)),
        ("hypercube", (1,)), ("hypercube", (4,)), ("cayley_cyclic", (1,)), ("cayley_cyclic", (2, 1)),
        ("cayley_cyclic", (8, 1, 7)), ("cayley_cyclic", (8, 4)), ("cayley_cyclic", (6, 1, 2, 3, 4, 5)),
    ])
    def test_size_guard_predicts_vertices_plus_edges(self, monkeypatch, kind, params):
        g = generate(kind, params)
        monkeypatch.setattr(generators, "_MAX_SIZE", len(g.vertices) + len(g.edges))
        assert generate(kind, params) == g
        monkeypatch.setattr(generators, "_MAX_SIZE", len(g.vertices) + len(g.edges) - 1)
        with pytest.raises(ValueError, match=f"more than {generators._MAX_SIZE} vertices plus edges"):
            generate(kind, params)

    def test_size_guard_limit(self):
        assert generators._MAX_SIZE == 2**22
        with pytest.raises(ValueError, match="cycle 2097153 would have more than 4194304 vertices plus edges"):
            cycle(2**21 + 1)
        with pytest.raises(ValueError):
            generate("moebius", [5])

    @pytest.mark.parametrize("n,gens", [(5, {1, 4}), (8, {1, 7, 4}), (7, {2, 5, 3, 4})])
    def test_cayley_regular(self, n, gens):
        g = cayley_cyclic(n, gens)
        assert g.is_regular() == len({s % n for s in gens})

    def test_generate_dispatch(self):
        assert generate("cycle", [4]) == C4
        assert generate("cayley_cyclic", [6, 1, 5]) == C6


class TestConnectivity:
    def test_connected_cases(self):
        assert is_connected(C6)
        assert is_connected(Graph((0,), ()))
        assert is_connected(Graph())
        assert not is_connected(disjoint_union(C3, C3))


@given(small_graphs())
def test_vertex_order_is_total(g):
    keys = [vertex_key(v) for v in g.vertices]
    assert keys == sorted(keys)


def test_make_edge_orders_endpoints():
    assert make_edge("b", "a") == ("a", "b")
    assert make_edge((1, 0), 5) == (5, (1, 0))


# Ids of every kind: ints, strings that look numeric or are digits only in
# Unicode, and nested pairs of unequal depth whose sides mix kinds.
ATOMS = st.one_of(
    st.integers(-3, 12), st.sampled_from(["01", "1", "-0", "²", "007", "a", ""]), st.text(max_size=2)
)
VERTEX_IDS = st.recursive(ATOMS, lambda inner: st.tuples(inner, inner), max_leaves=5)


@st.composite
def mixed_graphs(draw, max_vertices=8):
    vs = draw(st.lists(VERTEX_IDS, max_size=max_vertices, unique=True))
    pairs = list(combinations(vs, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    # Hand the edges over in random orientation and the vertices in random order.
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    return Graph(tuple(draw(st.permutations(vs))), tuple(edges))


@st.composite
def vertex_maps(draw):
    """Maps from mixed-id graphs into small graphs, mostly morphisms."""
    cod = draw(small_graphs(min_vertices=1, max_vertices=4))
    names = draw(st.lists(VERTEX_IDS, min_size=1, max_size=10, unique=True))
    image = {x: draw(st.sampled_from(cod.vertices)) for x in names}
    fitting = [(x, y) for x, y in combinations(names, 2) if cod.has_edge(image[x], image[y])]
    if fitting and draw(st.booleans()):
        edges = draw(st.lists(st.sampled_from(fitting), unique=True))
    else:
        edges = list(fitting)  # a fiberwise complete lift: a cover when the fibers are equal
    if len(names) > 1 and draw(st.integers(0, 4)) == 0:
        edges.append(draw(st.sampled_from(list(combinations(names, 2)))))
    return VertexMap(Graph(tuple(names), tuple(edges)), cod, image)


class TestRankOrder:
    @given(mixed_graphs())
    def test_stored_orders_are_the_key_orders(self, g):
        assert list(g.vertices) == sorted(set(g.vertices), key=vertex_key)
        assert list(g.edges) == sorted(set(g.edges), key=edge_key)
        assert all(vertex_key(u) < vertex_key(v) for u, v in g.edges)
        for v in g.vertices:
            assert list(g.adjacency[v]) == sorted(g.adjacency[v], key=vertex_key)
        every = [Dart(x, e) for e in g.edges for x in e]
        assert list(darts(g)) == sorted(every, key=dart_key)

    @given(mixed_graphs())
    def test_make_edge_and_has_edge_follow_the_key_order(self, g):
        for u, v in combinations(g.vertices, 2):
            lo, hi = sorted((u, v), key=vertex_key)
            assert make_edge(v, u) == make_edge(u, v) == (lo, hi)
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((lo, hi) in g.edge_set)

    def test_equal_ids_of_another_type_rejected(self):
        with pytest.raises(ValueError, match="invalid vertex id"):
            Graph((1, True), ())
        with pytest.raises(ValueError, match="invalid edge endpoints"):
            Graph(((1, 1), 2), (((1, True), 2),))


class TestDecodedIds:
    """A graph's edge tuple and a map's dict are decoded from the rank arrays
    when first read; equality and hashing compare the arrays."""

    @given(mixed_graphs())
    def test_validated_and_rank_built_graphs_agree(self, g):
        vs, es = g.vertices, g.edges
        made = Graph._from_ranks(vs, *g._edge_ranks.T)
        checked = Graph(vs, es)
        assert "edges" not in vars(made) and "edges" not in vars(checked)
        assert made == checked == g and hash(made) == hash(checked) == hash(g)
        assert made.edges == checked.edges == es and made.edges is made.edges
        assert "edges" in vars(made)
        if es:
            assert Graph(vs, es[1:]) != g
        assert Graph(vs[::-1], es) == g and g != (vs, es)

    @given(vertex_maps())
    def test_rank_built_maps_agree(self, m):
        made = VertexMap._from_ranks(m.domain, m.codomain, m._image_ranks)
        assert "mapping" not in vars(made) and "mapping" not in vars(m)
        assert made == m and hash(made) == hash(m)
        assert list(made.mapping.items()) == list(m.mapping.items()) and made.mapping is made.mapping
        assert [made(v) for v in m.domain.vertices] == [m(v) for v in m.domain.vertices]

    def test_same_arrays_over_other_ids_differ(self):
        assert Graph((0, 1), ((0, 1),)) != Graph(("a", "b"), (("a", "b"),))
        assert VertexMap(K2, K2, {0: 0, 1: 1}) != VertexMap(K2, K2, {0: 1, 1: 0})
        assert VertexMap(K2, K2, {0: 0, 1: 1}) != VertexMap(K2, Graph((0, 1, 2), ((0, 1),)), {0: 0, 1: 1})

    def test_unknown_attributes_still_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'edge'"):
            C4.edge
        with pytest.raises(AttributeError, match="no attribute 'maping'"):
            identity_map(C4).maping


class TestRankBuiltSubgraphs:
    """Induced subgraphs are renumbered from the graph's own rank arrays, and
    degree reads use the degree array, never the adjacency dict."""

    MIXED = Graph(
        (0, "a", 1, (0, "a"), ((1, 2), "b")),
        ((0, "a"), (1, "a"), ("a", (0, "a")), (0, ((1, 2), "b")), ((0, "a"), ((1, 2), "b"))),
    )

    def _agrees(self, g, subset):
        sub = g.induced_subgraph(subset)
        want = Graph(tuple(subset), tuple(e for e in g.edges if e[0] in subset and e[1] in subset))
        assert sub == want and hash(sub) == hash(want)
        assert sub.vertices == want.vertices and sub.edges == want.edges

    @given(mixed_graphs(), st.data())
    def test_induced_subgraph_equals_the_validated_one(self, g, data):
        self._agrees(g, data.draw(st.lists(st.sampled_from(g.vertices), unique=True)) if g.vertices else [])

    @pytest.mark.parametrize(
        "subset", [[], [0, "a"], ["a", (0, "a"), ((1, 2), "b")], [((1, 2), "b"), 1, 0], list(MIXED.vertices)]
    )
    def test_induced_subgraph_of_mixed_and_nested_ids(self, subset):
        self._agrees(self.MIXED, subset)

    def test_induced_subgraph_refuses_missing_and_invalid_ids(self):
        with pytest.raises(ValueError, match=r"^vertices not in graph: \[7, 'z', \(0, 'b'\)\]$"):
            self.MIXED.induced_subgraph({"z", 0, 7, (0, "b")})
        with pytest.raises(ValueError, match=r"^invalid vertex id: True$"):
            self.MIXED.induced_subgraph({True, "a"})
        with pytest.raises(ValueError, match=r"^invalid vertex id: \(0\.0, 'a'\)$"):
            self.MIXED.induced_subgraph([(0.0, "a")])

    @given(mixed_graphs())
    def test_degree_reads_agree_with_the_adjacency_lists(self, g):
        regular, top = g.is_regular(), g.max_degree()
        assert "adjacency" not in vars(g)
        degrees = [len(ns) for ns in g.adjacency.values()]
        assert regular == (degrees[0] if len(set(degrees)) == 1 else None)
        assert top == max(degrees, default=0) and type(top) is int
        assert regular is None or type(regular) is int


class TestTwoColouring:
    """`Graph._sides` 2-colours a graph over its edge array exactly when no odd cycle forbids it."""

    @given(st.one_of(small_graphs(), mixed_graphs()))
    @example(disjoint_union(C4, C3))
    @example(disjoint_union(disjoint_union(K2, K2), disjoint_union(path(4), Graph((0, 1), ()))))
    @example(path(40))
    @example(Graph())
    def test_sides_exist_exactly_without_an_odd_cycle(self, g):
        sides, want = g._sides, oracle.sides(g)
        assert (sides is None) == (want is None) == oracle.has_odd_cycle(g)
        if sides is not None:
            assert sides[0].tolist() == want[0] and sides[1] == want[1]  # the colouring the search over ids gives
            (place, p), n = sides, len(g.vertices)
            assert place.dtype == np.intp and sorted(place.tolist()) == list(range(n))
            side = place >= p
            assert all(side[g._rank[u]] != side[g._rank[v]] for u, v in g.edges)
            assert not side[g._degrees == 0].any()  # isolated vertices on side 0
            for part in (~side, side):  # each side in rank order
                assert np.all(np.diff(place[part]) == 1)


class TestEdgeArrayMatrices:
    @given(mixed_graphs())
    def test_matrices_equal_the_dict_loop_fills(self, g):
        assert np.array_equal(adjacency_matrix(g), oracle.adjacency_matrix(g))
        try:
            want = oracle.normalized_laplacian_matrix(g)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                normalized_laplacian_matrix(g)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(normalized_laplacian_matrix(g), want)

    def test_a_broken_regular_identity_is_refused(self):
        # A regular degree array that is not the edges' own (d = 2|E|/|V| = 2): the weights -1/3 are not -1/d.
        g = cycle(5)
        g.__dict__["_degrees"] = np.full(5, 3)
        with pytest.raises(RuntimeError, match="^regular-graph Laplacian identity I - A/d violated$"):
            normalized_laplacian_matrix(g)

    @given(mixed_graphs(max_vertices=7).filter(lambda g: g.vertices), st.data())
    # Both routes of the edge residual: no isolated vertex, then one at the first, a middle and the last rank.
    @example(cycle(5), None)
    @example(Graph((0, 1, 2, 3), ((1, 2), (2, 3), (1, 3))), None)
    @example(Graph((0, 1, 2, 3, 4), ((0, 1), (0, 3), (3, 4), (1, 4))), None)
    @example(Graph((0, 1, 2, 3), ((0, 1), (1, 2), (0, 2))), None)
    def test_edge_residual_and_eigenpair_verdicts_match_the_dense_ones(self, g, data):
        n = len(g.vertices)
        assert g._isolated_free == all(g.degree(v) for v in g.vertices)
        values, vectors = np.linalg.eigh(oracle.adjacency_matrix(g))
        if data is None:  # an explicit example: every eigenpair, and fixed noise
            ks, noise = range(n), np.cos(np.arange(n))
        else:
            ks = [data.draw(st.integers(0, n - 1))]
            noise = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
        for k in ks:
            for value, vec in ((values[k], vectors[:, k]), (values[k] + 1e-3, vectors[:, k]), (values[k], noise)):
                norm = np.linalg.norm(vec)
                if norm <= RESIDUAL_TOL:
                    with pytest.raises(ValueError, match="zero"):
                        EigenPair(g, value, vec)
                    continue
                dense = oracle.dense_residual(g, value, vec / norm)
                assert abs(_residual(g, value, vec / norm) - dense) <= 1e-12
                try:
                    EigenPair(g, value, vec)
                    accepted = True
                except ValueError as exc:
                    assert "residual" in str(exc)
                    accepted = False
                assert accepted == (dense <= RESIDUAL_TOL)


@given(vertex_maps())
# Two vertices of the fiber over 0 see the fiber over 1 more often than the
# first one does: the witness is the earlier of the two.
@example(VertexMap(Graph((), ((0, 1), (2, 1), (2, 3), (4, 3), (4, 5))), K2, {i: i % 2 for i in range(6)}))
def test_cover_check_agrees_with_enumeration(m):
    edges = {frozenset(e) for e in m.codomain.edges}
    assert is_graph_morphism(m) == all(frozenset((m(u), m(v))) in edges for u, v in m.domain.edges)
    got, want = check_combinatorial_cover(m), oracle.check_combinatorial_cover(m)
    assert (got.index, got.violation, got.witness) == (want.index, want.violation, want.witness)


MAPS_INTO_MIXED = st.tuples(st.one_of(mixed_graphs(), small_graphs()).filter(lambda g: g.vertices), st.booleans()).flatmap(
    lambda c: vertex_maps_into(c[0], morphism=c[1])
)
# Over vertex 1 of P3, vertex 1 sees 2 once too often and vertex 2 sees 0 once too often:
# the witness is the first by fiber, then by neighbour, then by vertex.
TWO_FAULTS = Graph((), ((0, 10), (0, 20), (1, 11), (1, 21), (1, 22), (2, 12), (2, 13), (2, 23)))
TWO_FAULTS_MAP = VertexMap(TWO_FAULTS, path(3), {v: (1, 0, 2)[v // 10] for v in TWO_FAULTS.vertices})


@given(MAPS_INTO_MIXED)
@example(VertexMap(Graph((), ((0, 1),)), K2, {0: 0, 1: 0}))  # an edge collapsed to a vertex
@example(VertexMap(cycle(4), cycle(4), {0: 0, 1: 1, 2: 0, 3: 1}))  # degrees agree, yet 0 sees 1 twice
@example(TWO_FAULTS_MAP)
def test_morphism_cover_and_covering_verdicts_match_the_loops(m):
    """Maps into mixed-id graphs, with collapsed edges and non-edges among the images."""
    assert is_graph_morphism(m) == oracle.is_graph_morphism(m)
    assert is_covering_map(m) == oracle.is_covering_map(m)
    got, want = check_combinatorial_cover(m), oracle.check_combinatorial_cover(m)
    assert (got.index, got.violation, got.witness) == (want.index, want.violation, want.witness)


def test_neighbourhood_witness_order():
    assert check_combinatorial_cover(TWO_FAULTS_MAP).witness == (0, 2, 0)
