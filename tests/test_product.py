import gc
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import constant_valency_instances, labeled_instances, labeled_instances_of_both_forms
from helpers import C3, C4, C6, CONSTANT_VALENCY_POOL, K2, P3, mod_map, random_dart_labeling, worked_fixtures
from oracle import brute_force_zigzag
from test_graphs import mixed_graphs
from test_io import mixed_labeled_instances
from zigzag import io, product
from zigzag.generators import cycle, hypercube
from zigzag.graphs import (
    Dart,
    Graph,
    VertexMap,
    check_combinatorial_cover,
    compose,
    darts,
    format_vertex,
    identity_map,
    is_covering_map,
    is_graph_morphism,
    make_edge,
)
from zigzag.labeling import (
    HLabeling,
    constant_labeling,
    image_valency,
    is_locally_constant,
    pullback_labeling,
    pushforward_labeling,
    vertex_labeling,
)
from zigzag.product import (
    EdgeTag,
    ZigZagGraph,
    induced_product_map,
    is_product_isomorphism,
    lift_combinatorial_cover,
    lift_covering,
    lift_pair,
    pi_combinatorial_cover_check,
    product_edge_count_check,
    product_valency_check,
    projection,
    section_subgraphs,
    zigzag_product,
)
from zigzag.spectral import adjacency_eigenpairs, descend_eigenvector, lift_eigenvector
from zigzag.tower import build_tower, folner_product_check, tower_spectrum_check


def c4p3():
    a = constant_labeling(C4, P3, 1)
    return zigzag_product(C4, P3, a)


def k2k2():
    a = constant_labeling(K2, K2, 0)
    return zigzag_product(K2, K2, a)


class TestConstruction:
    def test_k2_k2_is_a_single_edge(self):
        z = k2k2()
        assert z.product.vertices == ((0, 1), (1, 1))
        assert z.product.edges == (((0, 1), (1, 1)),)

    def test_c4_p3_shape(self):
        z = c4p3()
        assert len(z.product.vertices) == 8
        assert len(z.product.edges) == 16
        assert z.product.is_regular() == 4
        assert {i for _, i in z.product.vertices} == {0, 2}

    def test_mixed_path_labeling_gives_four_edges(self):
        a = vertex_labeling(P3, P3, {0: 0, 1: 1, 2: 2})
        z = zigzag_product(P3, P3, a)
        assert len(z.product.edges) == 4
        assert z.product == cycle_like(z.product)

    def test_labeling_mismatch_rejected(self):
        a = constant_labeling(C4, P3, 1)
        with pytest.raises(ValueError):
            zigzag_product(C6, P3, a)
        with pytest.raises(ValueError):
            zigzag_product(C4, C3, a)

    def test_isolated_labels_give_empty_product(self):
        h = Graph((0, 1), ())
        z = zigzag_product(K2, h, constant_labeling(K2, h, 0))
        assert z.product == Graph()
        assert product_valency_check(z)
        assert product_edge_count_check(z)

    def test_edge_tags_record_witnesses(self):
        z = c4p3()
        for e, tag in z.edge_tags.items():
            (u, i), (v, j) = e
            assert tag.base_edge == make_edge(u, v)
            assert tag.h_lo == make_edge(i, z.labeling(Dart(u, tag.base_edge)))
            assert tag.h_hi == make_edge(j, z.labeling(Dart(v, tag.base_edge)))
            assert tag.h_lo in P3.edge_set and tag.h_hi in P3.edge_set


@st.composite
def mixed_vertex_labeled_instances(draw):
    """A mixed-id base with one label per vertex, from a label graph that may have isolated vertices."""
    g = draw(mixed_graphs(max_vertices=6))
    h = draw(st.one_of(mixed_graphs(max_vertices=4), st.sampled_from([h for h, _ in CONSTANT_VALENCY_POOL])))
    assume(h.vertices or not g.edges)
    return g, h, vertex_labeling(g, h, {v: draw(st.sampled_from(h.vertices)) for v in g.vertices if g.adjacency[v]})


def assert_as_validated(g):
    """g holds what the validating constructor makes of its vertices and edges."""
    want = Graph(g.vertices, g.edges)
    assert (g.vertices, g.edges, g._rank) == (want.vertices, want.edges, want._rank)
    assert list(g._rank) == list(want._rank)
    assert g._edge_ranks.dtype == np.intp and not g._edge_ranks.flags.writeable
    assert np.array_equal(g._edge_ranks, want._edge_ranks)


EDGELESS = Graph((0, "a", (1, 2)), ())
ISOLATED_LABEL = Graph((0, 1, 2), ((0, 1),))


class TestRankArrayConstruction:
    """The product and the projection's image are made from rank arrays and
    stored unchecked; they must hold what the validating constructor makes."""

    @given(st.one_of(labeled_instances_of_both_forms(), mixed_labeled_instances(), mixed_vertex_labeled_instances()))
    @example((EDGELESS, Graph(), HLabeling(EDGELESS, Graph(), {})))
    @example((EDGELESS, K2, HLabeling(EDGELESS, K2, {})))
    @example((C4, ISOLATED_LABEL, vertex_labeling(C4, ISOLATED_LABEL, {0: 2, 1: 0, 2: 2, 3: 1})))
    @example((C4, ISOLATED_LABEL, constant_labeling(C4, ISOLATED_LABEL, 2)))
    # Every vertex has a fiber, but the edge {0, 1} carries the isolated label at 0: the image misses it.
    @example((C3, ISOLATED_LABEL, HLabeling(C3, ISOLATED_LABEL, {d: 2 if d == (0, (0, 1)) else 0 for d in darts(C3)})))
    def test_product_and_image_equal_the_validated_graphs_and_the_oracle(self, inst):
        g, h, a = inst
        z = zigzag_product(g, h, a)
        assert_as_validated(z.product)
        verts, edges = brute_force_zigzag(g, h, a)
        assert set(z.product.vertices) == verts and set(z.product.edges) == edges
        _, tags = oracle.zigzag_edge_tags(g, h, a)
        pi, image = projection(z), oracle.projection_image(verts, tags)
        assert pi.codomain == image
        if image == g:
            assert pi.codomain is g
        else:
            assert_as_validated(pi.codomain)

    @given(labeled_instances_of_both_forms())
    @example((C4, ISOLATED_LABEL, vertex_labeling(C4, ISOLATED_LABEL, {0: 2, 1: 0, 2: 2, 3: 1})))
    @example((C3, ISOLATED_LABEL, HLabeling(C3, ISOLATED_LABEL, {d: 2 if d == (0, (0, 1)) else 0 for d in darts(C3)})))
    def test_base_edges_and_edge_images_equal_the_searched_ones(self, inst):
        # The construction keeps every product edge's base edge; the projection's edge images are read from it,
        # renumbered where isolated labels shrink the image.  Both must equal what a search of the codes finds.
        g, h, a = inst
        z = zigzag_product(g, h, a)
        rebuilt = io.loads_product(io.dumps_product(z))
        assert np.array_equal(z._base_edges, ZigZagGraph._base_edges.func(rebuilt))
        assert np.array_equal(z._base_edges, ZigZagGraph(z.product, g, h, a, z.edge_tags)._base_edges)
        pi = projection(z)
        searched = VertexMap._from_ranks(z.product, pi.codomain, pi._image_ranks)._edge_images
        assert searched is not None and np.array_equal(pi._edge_images, searched)

    def test_ids_are_shared_with_the_factors(self):
        z = c4p3()
        assert all(u is C4.vertices[C4._rank[u]] and i is P3.vertices[P3._rank[i]] for u, i in z.product.vertices)
        assert all(p is z.product.vertices[z.product._rank[p]] for e in z.product.edges for p in e)


class TestDerivedEdgeTags:
    """Edge tags are derived from the labeling; they must match the tags the
    construction used to build and store, read in bulk or one at a time."""

    @given(labeled_instances_of_both_forms())
    def test_tags_and_projection_match_the_stored_oracle(self, inst):
        g, h, a = inst
        z = zigzag_product(g, h, a)
        verts, tags = oracle.zigzag_edge_tags(g, h, a)
        assert set(z.product.vertices) == set(verts)
        assert list(z.edge_tags) == list(z.product.edges) and len(z.edge_tags) == len(tags)
        assert list(z.edge_tags.items()) == [(e, tags[e]) for e in z.product.edges]
        assert list(z.edge_tags.values()) == [tags[e] for e in z.product.edges]
        assert all(z.edge_tags[e] == t and type(z.edge_tags[e]) is EdgeTag for e, t in tags.items())
        pi = projection(z)
        assert pi.codomain == oracle.projection_image(verts, tags)
        assert dict(pi.mapping) == {p: p[0] for p in z.product.vertices}

    def test_non_edges_raise_key_error(self):
        z = c4p3()
        for e in [((0, 0), (2, 0)), ((1, 0), (0, 0)), (0, 1), "e"]:
            with pytest.raises(KeyError):
                z.edge_tags[e]

    @given(labeled_instances_of_both_forms(), st.data())
    def test_explicit_tags_checked_by_value(self, inst, data):
        g, h, a = inst
        z = zigzag_product(g, h, a)
        _, tags = oracle.zigzag_edge_tags(g, h, a)
        assert ZigZagGraph(z.product, g, h, a, tags) == z
        assume(tags)
        e = data.draw(st.sampled_from(sorted(tags, key=repr)))
        t = tags[e]
        wrong = data.draw(st.sampled_from([
            t._replace(base_edge=t.base_edge[::-1]),
            t._replace(h_lo=t.h_lo[::-1]),
            t._replace(h_lo=t.h_hi, h_hi=t.h_lo),
        ]))
        assume(wrong != t)
        with pytest.raises(ValueError, match="as the labeling gives them"):
            ZigZagGraph(z.product, g, h, a, {**tags, e: wrong})
        with pytest.raises(ValueError, match="cover exactly the product edges"):
            ZigZagGraph(z.product, g, h, a, {k: v for k, v in tags.items() if k != e})


class TestDerivedDicts:
    """`HLabeling.mapping` and `ZigZagGraph.edge_tags` are read-only dicts built
    when first read; the library's own paths read the rank arrays instead."""

    def test_hot_paths_build_neither_dict(self, monkeypatch):
        kinds, made = (HLabeling, ZigZagGraph), []  # made: (kind, holds a built dict) per new instance
        before = {id(x) for x in gc.get_objects() if isinstance(x, kinds)}

        def note(x):
            if id(x) not in before:
                made.append((type(x), "mapping" in vars(x) or "edge_tags" in vars(x)))

        for kind in kinds:  # instances freed on the way are seen as they go
            monkeypatch.setattr(kind, "__del__", note, raising=False)
        build = build_tower(C4, P3, constant_labeling(C4, P3, 1), 6)
        report = tower_spectrum_check(build)
        g, h = hypercube(3), cycle(6)
        z = io.loads_product(io.dumps_product(zigzag_product(g, h, constant_labeling(g, h, 0))))
        index = pi_combinatorial_cover_check(z)
        folner = folner_product_check(g, h, z.labeling, [g.vertices[:2], g.vertices[:5]])
        pairs = [ep for ep in adjacency_eigenpairs(g) if abs(ep.value) > 1e-6]
        back = [descend_eigenvector(lift_eigenvector(ep, z), z) for ep in pairs]
        assert report.all_ok and index == 4 and folner.all_ok and len(back) == len(pairs) == 8
        for x in gc.get_objects():
            if isinstance(x, kinds):
                note(x)
        assert all(sum(kind is k for k, _ in made) >= 10 for kind in kinds)
        assert not any(built for _, built in made)

    def test_dicts_are_read_only(self):
        z = c4p3()
        d, e = darts(C4)[0], z.product.edges[0]
        with pytest.raises(TypeError):
            z.labeling.mapping[d] = 0
        with pytest.raises(TypeError):
            z.edge_tags[e] = z.edge_tags[e]
        assert z.labeling.mapping[d] == 1 and z.labeling.mapping is z.labeling.mapping
        assert z.edge_tags is z.edge_tags


def without_edge(z, e):
    """z with the product edge e taken out of its product graph (and its tag)."""
    kept = tuple(x for x in z.product.edges if x != e)
    return ZigZagGraph(Graph(z.product.vertices, kept), z.base, z.labels, z.labeling, {x: z.edge_tags[x] for x in kept})


def cycle_like(g):
    # A 4-cycle on whatever the vertices are; used for the mixed P3 product.
    assert len(g.vertices) == 4 and len(g.edges) == 4 and g.is_regular() == 2
    return g


class TestOracleEquality:
    @pytest.mark.parametrize("name,g,h,a", worked_fixtures())
    def test_worked_fixtures(self, name, g, h, a):
        z = zigzag_product(g, h, a)
        verts, edges = brute_force_zigzag(g, h, a)
        assert set(z.product.vertices) == verts
        assert set(z.product.edges) == edges

    @given(labeled_instances())
    @settings(max_examples=60)
    def test_random_instances(self, inst):
        g, h, a = inst
        z = zigzag_product(g, h, a)
        verts, edges = brute_force_zigzag(g, h, a)
        assert set(z.product.vertices) == verts
        assert set(z.product.edges) == edges


class TestCountingLemmas:
    @pytest.mark.parametrize("name,g,h,a", worked_fixtures())
    def test_valency_formula(self, name, g, h, a):
        assert product_valency_check(zigzag_product(g, h, a))

    @pytest.mark.parametrize("name,g,h,a", worked_fixtures())
    def test_edge_count_formula(self, name, g, h, a):
        assert product_edge_count_check(zigzag_product(g, h, a))

    def test_c4_p3_degrees_explicitly(self):
        z = c4p3()
        assert all(z.product.degree(v) == 4 for v in z.product.vertices)

    def test_mixed_path_degrees(self):
        # Center vertices see val(0)+val(2)=2; the end vertices see val(1)=2.
        a = vertex_labeling(P3, P3, {0: 0, 1: 1, 2: 2})
        z = zigzag_product(P3, P3, a)
        assert z.product.degree((1, 0)) == P3.degree(0) + P3.degree(2)
        assert z.product.degree((1, 2)) == P3.degree(0) + P3.degree(2)
        assert z.product.degree((0, 1)) == P3.degree(1)
        assert z.product.degree((2, 1)) == P3.degree(1)

    @given(labeled_instances())
    @settings(max_examples=40)
    def test_lemmas_on_random_instances(self, inst):
        g, h, a = inst
        z = zigzag_product(g, h, a)
        assert product_valency_check(z)
        assert product_edge_count_check(z)

    @given(labeled_instances_of_both_forms())
    @example((P3, Graph((0, 1, 2), ((0, 1),)), vertex_labeling(P3, Graph((0, 1, 2), ((0, 1),)), {0: 2, 1: 0, 2: 2})))
    @example((C3, K2, HLabeling(C3, K2, {d: k % 2 for k, d in enumerate(darts(C3))})))
    def test_valency_check_agrees_with_the_loop(self, inst):
        z = zigzag_product(*inst)
        assert product_valency_check(z) is oracle.product_valency_check(z) is True

    @pytest.mark.parametrize("name,g,h,a", worked_fixtures())
    def test_valency_check_refuses_a_product_missing_an_edge(self, name, g, h, a):
        z = zigzag_product(g, h, a)
        for cut in (without_edge(z, z.product.edges[0]), without_edge(z, z.product.edges[-1])):
            assert product_valency_check(cut) is oracle.product_valency_check(cut) is False

    def test_valency_check_passes_a_product_missing_an_isolated_vertex(self):
        # (1, 1) lies over darts whose other ends carry the isolated label 2: it is expected with degree 0.
        h = Graph((0, 1, 2), ((0, 1),))
        a = vertex_labeling(P3, h, {0: 2, 1: 0, 2: 2})
        z = zigzag_product(P3, h, a)
        assert z.product.vertices == ((1, 1),)
        cut = ZigZagGraph(Graph(), P3, h, a, {})
        assert product_valency_check(cut) is oracle.product_valency_check(cut) is True

    @given(labeled_instances_of_both_forms(), st.data())
    def test_valency_check_refuses_a_random_product_missing_an_edge(self, inst, data):
        z = zigzag_product(*inst)
        assume(z.product.edges)
        cut = without_edge(z, data.draw(st.sampled_from(z.product.edges)))
        assert product_valency_check(cut) is oracle.product_valency_check(cut) is False

    @given(constant_valency_instances())
    @settings(max_examples=30)
    def test_regular_base_gives_regular_product(self, inst):
        g, h, a = inst
        d = g.is_regular()
        if d is None or d == 0:
            return
        n = image_valency(a)
        z = zigzag_product(g, h, a)
        assert z.product.is_regular() == d * n


class TestExplicitProducts:
    """A product given explicitly must be made of (base vertex, label vertex)
    pairs, and the valency check must see a vertex of positive expected degree
    that it lacks."""

    @pytest.mark.parametrize("vertices", [((0, 0),), (), ((0, 0), (1, 1))])
    def test_valency_check_refuses_a_product_missing_a_vertex_of_positive_degree(self, vertices):
        # The product over K2 labeled 0 in K2 is the edge {(0,1), (1,1)}; each end is expected with degree 1.
        a = constant_labeling(K2, K2, 0)
        z = ZigZagGraph(Graph(vertices, ()), K2, K2, a, {})
        assert product_valency_check(z) is False
        assert product_edge_count_check(z) is False

    @given(labeled_instances_of_both_forms(), st.data())
    def test_valency_check_refuses_a_random_product_missing_a_vertex(self, inst, data):
        z = zigzag_product(*inst)
        assume(z.product.edges)
        p = data.draw(st.sampled_from([v for v in z.product.vertices if z.product.degree(v)]))
        kept = tuple(e for e in z.product.edges if p not in e)
        vs = tuple(v for v in z.product.vertices if v != p)
        cut = ZigZagGraph(Graph(vs, kept), z.base, z.labels, z.labeling, {e: z.edge_tags[e] for e in kept})
        assert product_valency_check(cut) is False

    @pytest.mark.parametrize("vertex", [7, "x", (0, 5), (5, 0), ("0", 1), ((0, 1), 1), (0, (1, 0))])
    def test_a_product_vertex_that_is_no_pair_of_the_factors_is_refused(self, vertex):
        a = constant_labeling(K2, K2, 0)
        text = f"product vertex {format_vertex(vertex)} is not a (base vertex, label vertex) pair"
        with pytest.raises(ValueError, match=re.escape(text)):
            ZigZagGraph(Graph((vertex,), ()), K2, K2, a, {})
        with pytest.raises(ValueError, match=re.escape(text)):
            ZigZagGraph(Graph(((0, 1), (1, 1), vertex), (((0, 1), (1, 1)),)), K2, K2, a, k2k2().edge_tags)

    @pytest.mark.parametrize("edge", [((0, 0), (2, 0)), ((0, 0), (0, 2))])
    def test_a_product_edge_over_no_base_edge_is_refused_whatever_its_tag(self, edge):
        # {0, 2} is no edge of C4, and a fiber holds no edge; the tag names the base edge {0, 3} with the right labels.
        z = c4p3()
        tags = {**z.edge_tags, edge: EdgeTag((0, 3), (0, 1), make_edge(edge[1][1], 1))}
        with pytest.raises(ValueError, match="cover exactly the product edges"):
            ZigZagGraph(Graph(z.product.vertices, tuple(tags)), C4, P3, z.labeling, tags)

    def test_a_labeling_of_other_graphs_is_refused(self):
        z = c4p3()
        with pytest.raises(ValueError, match="labeling does not tie the given base and label graphs"):
            ZigZagGraph(z.product, C4, P3, constant_labeling(C4, C3, 1), z.edge_tags)
        with pytest.raises(ValueError, match="labeling does not tie the given base and label graphs"):
            ZigZagGraph(z.product, C4, P3, constant_labeling(C6, P3, 1), z.edge_tags)


class TestSections:
    def test_k2_k2_single_section(self):
        z = k2k2()
        sections = list(section_subgraphs(z))
        assert len(sections) == 1
        assert sections[0][1] == z.product

    def test_c4_p3_has_sixteen(self):
        z = c4p3()
        sections = list(section_subgraphs(z))
        assert len(sections) == 16
        for choice, sub in sections:
            assert len(sub.vertices) == 4
            assert sub.is_regular() == 2

    def test_requires_constant_valency(self):
        a = vertex_labeling(P3, P3, {0: 0, 1: 1, 2: 2})
        z = zigzag_product(P3, P3, a)
        with pytest.raises(ValueError):
            list(section_subgraphs(z))

    def test_requires_connected_base(self):
        two = Graph((), ((0, 1), (2, 3)))
        z = zigzag_product(two, P3, constant_labeling(two, P3, 1))
        with pytest.raises(ValueError, match="connected"):
            list(section_subgraphs(z))

    def test_projection_undoes_every_section(self):
        z = c4p3()
        pi = projection(z)
        for choice, sub in section_subgraphs(z):
            embed = lift_pair(identity_map(C4), choice, z)
            assert compose(pi, embed) == identity_map(C4)


class TestProjection:
    def test_is_morphism_onto_base(self):
        for name, g, h, a in worked_fixtures():
            z = zigzag_product(g, h, a)
            pi = projection(z)
            assert is_graph_morphism(pi)
            assert pi.codomain == g

    def test_fibers_of_c4_p3(self):
        z = c4p3()
        pi = projection(z)
        fibers = {}
        for v in z.product.vertices:
            fibers.setdefault(pi(v), []).append(v)
        assert all(len(f) == 2 for f in fibers.values())

    def test_image_shrinks_when_a_label_is_isolated(self):
        # Vertex 2's label is isolated, so nothing lies above the far end.
        h = Graph((0, 1, 2), ((0, 1),))
        a = vertex_labeling(P3, h, {0: 0, 1: 0, 2: 2})
        z = zigzag_product(P3, h, a)
        pi = projection(z)
        assert set(pi.codomain.vertices) == {0, 1}
        assert pi.codomain.edges == ((0, 1),)


def dict_lift(p, lifted, z):
    """The lifted map (x, i) -> (p(x), i) as an id dict: the oracle for the rank-built one."""
    return VertexMap(lifted.product, z.product, {(x, i): (p(x), i) for x, i in lifted.product.vertices})


def dict_pair_map(phi, psi, z1, z2):
    """The induced map (u, i) -> (phi(u), psi(i)) as an id dict: the oracle for the rank-built one."""
    return VertexMap(z1.product, z2.product, {(u, i): (phi(u), psi(i)) for u, i in z1.product.vertices})


def folded_cube_cover(d):
    """Q_d onto the folded cube, each bitstring and its complement made one: a double cover for d >= 3."""
    q = hypercube(d)
    fold = {x: x if x[0] == "0" else x.translate(str.maketrans("01", "10")) for x in q.vertices}
    folded = Graph(tuple(set(fold.values())), tuple((fold[x], fold[y]) for x, y in q.edges))
    return VertexMap(q, folded, fold)


def covers_with_labelings():
    """(p, z): covers onto a product's base (cyclic, and hypercube double covers), with constant
    and seeded random labelings."""
    rng, out = random.Random(2002), []
    for p in (mod_map(cycle(6), C3, 3), mod_map(cycle(12), C4, 4), mod_map(cycle(15), cycle(5), 5),
              folded_cube_cover(3), folded_cube_cover(4)):
        base = p.codomain
        out.append((p, zigzag_product(base, P3, constant_labeling(base, P3, 1))))
        for h in (P3, C4, K2):
            out.append((p, zigzag_product(base, h, random_dart_labeling(rng, base, h))))
    return out


class TestRankBuiltMaps:
    """The lifted and induced maps, built from rank arrays, equal the same maps built as id dicts."""

    @pytest.mark.parametrize("p, z", covers_with_labelings())
    def test_lifted_and_induced_maps_equal_the_dict_maps(self, p, z):
        assert is_covering_map(p)
        lift = lift_covering(p, z)
        assert lift.phat == dict_lift(p, lift.lifted, z)
        comb = lift_combinatorial_cover(p, z)
        assert comb.phat == lift.phat and comb.index == check_combinatorial_cover(p).index
        ident = identity_map(z.labels)
        assert induced_product_map(p, ident, lift.lifted, z) == dict_pair_map(p, ident, lift.lifted, z)

    def test_a_combinatorial_cover_with_uneven_fibers_lifts_to_the_dict_map(self):
        star = Graph(tuple(range(5)), tuple((0, v) for v in range(1, 5)))  # K_{1,4} -> K2, index 4
        p = VertexMap(star, K2, {0: 0, 1: 1, 2: 1, 3: 1, 4: 1})
        z = zigzag_product(K2, P3, constant_labeling(K2, P3, 1))
        lift = lift_combinatorial_cover(p, z)
        assert lift.index == 4 and lift.phat == dict_lift(p, lift.lifted, z)

    @pytest.mark.parametrize("seed", range(4))
    def test_label_automorphisms_induce_the_dict_map(self, seed):
        rng = random.Random(seed)
        g = cycle(rng.choice((4, 5, 6)))
        a = random_dart_labeling(rng, g, C4)
        for shift, sign in ((1, 1), (0, -1), (3, -1)):
            psi = VertexMap(C4, C4, {i: (shift + sign * i) % 4 for i in C4.vertices})
            z1, z2 = zigzag_product(g, C4, a), zigzag_product(g, C4, pushforward_labeling(a, psi))
            phi = identity_map(g)
            assert induced_product_map(phi, psi, z1, z2) == dict_pair_map(phi, psi, z1, z2)

    def test_a_weak_pair_induces_the_dict_map(self):
        psi = VertexMap(C4, P3, {0: 0, 1: 1, 2: 2, 3: 1})
        z1 = zigzag_product(K2, C4, constant_labeling(K2, C4, 0))
        z2 = zigzag_product(K2, P3, constant_labeling(K2, P3, 2))
        f = induced_product_map(identity_map(K2), psi, z1, z2)
        assert f == dict_pair_map(identity_map(K2), psi, z1, z2)

    def test_identity_maps_equal_and_hash_as_the_dict_maps(self):
        mixed = zigzag_product(P3, P3, vertex_labeling(P3, P3, {0: 0, 1: 1, 2: 2})).product
        for g in (Graph(), C4, hypercube(3), mixed):
            ident, oracle_map = identity_map(g), VertexMap(g, g, {v: v for v in g.vertices})
            assert ident == oracle_map and hash(ident) == hash(oracle_map)
            assert ident.mapping == oracle_map.mapping

    def test_a_missing_image_is_named(self, monkeypatch):
        # Vertex 2 carries label 0, so (2, 1) lies above it; the target, labeled 1 throughout, has no (3, 1).
        z1 = zigzag_product(C4, P3, vertex_labeling(C4, P3, {0: 1, 1: 1, 2: 0, 3: 1}))
        z2 = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        monkeypatch.setattr(product, "is_strict_morphism", lambda lm: True)  # admit the pair anyway
        rotate = VertexMap(C4, C4, {u: (u + 1) % 4 for u in C4.vertices})
        want = "image (3,1) of (2,1) is not a product vertex; the admission preconditions cannot have held"
        with pytest.raises(RuntimeError, match=f"^{re.escape(want)}$"):
            induced_product_map(rotate, identity_map(P3), z1, z2)


class TestInducedProductMap:
    def test_identity_pair(self):
        z = c4p3()
        f = induced_product_map(identity_map(C4), identity_map(P3), z, z)
        assert f == identity_map(z.product)

    def test_cover_pair_equals_lifted_covering(self):
        a = constant_labeling(C3, P3, 1)
        z = zigzag_product(C3, P3, a)
        p = mod_map(C6, C3, 3)
        lift = lift_covering(p, z)
        f = induced_product_map(p, identity_map(P3), lift.lifted, z)
        assert f == lift.phat

    def test_functoriality_along_the_cover_chain(self):
        a3 = constant_labeling(C3, P3, 1)
        z3 = zigzag_product(C3, P3, a3)
        p63 = mod_map(C6, C3, 3)
        a6 = pullback_labeling(a3, p63)
        z6 = zigzag_product(C6, P3, a6)
        c12 = cycle(12)
        p126 = mod_map(c12, C6, 6)
        a12 = pullback_labeling(a6, p126)
        z12 = zigzag_product(c12, P3, a12)

        f1 = induced_product_map(p126, identity_map(P3), z12, z6)
        f2 = induced_product_map(p63, identity_map(P3), z6, z3)
        direct = induced_product_map(compose(p63, p126), identity_map(P3), z12, z3)
        assert compose(f2, f1) == direct

    def test_edge_tags_map_by_the_formula(self):
        a3 = constant_labeling(C3, P3, 1)
        z3 = zigzag_product(C3, P3, a3)
        p = mod_map(C6, C3, 3)
        a6 = pullback_labeling(a3, p)
        z6 = zigzag_product(C6, P3, a6)
        f = induced_product_map(p, identity_map(P3), z6, z3)
        for e, tag in z6.edge_tags.items():
            img = make_edge(f(e[0]), f(e[1]))
            img_tag = z3.edge_tags[img]
            assert img_tag.base_edge == make_edge(p(tag.base_edge[0]), p(tag.base_edge[1]))
            assert {img_tag.h_lo, img_tag.h_hi} == {tag.h_lo, tag.h_hi}

    def test_weak_route_admission(self):
        # psi folds one 4-cycle vertex onto the opposite path end; it is
        # surjective and adjacency-reflecting.  The pushed labels 0 and the
        # target labels 2 differ but share the neighborhood {1}, so the pair
        # is admitted weakly though not strictly.
        psi = VertexMap(C4, P3, {0: 0, 1: 1, 2: 2, 3: 1})
        z1 = zigzag_product(K2, C4, constant_labeling(K2, C4, 0))
        z2 = zigzag_product(K2, P3, constant_labeling(K2, P3, 2))
        f = induced_product_map(identity_map(K2), psi, z1, z2)
        assert is_graph_morphism(f)
        assert set(f.mapping.values()) == {(0, 1), (1, 1)}
        assert len(z1.product.edges) == 4 and len(z2.product.edges) == 1

    def test_inadmissible_pair_rejected(self):
        za = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        zb = zigzag_product(C4, P3, constant_labeling(C4, P3, 0))
        with pytest.raises(ValueError, match="neither"):
            induced_product_map(identity_map(C4), identity_map(P3), za, zb)


class TestProductIsomorphism:
    def test_identity_pair(self):
        z = c4p3()
        assert is_product_isomorphism(identity_map(C4), identity_map(P3), z, z)

    def test_label_automorphism_relabel(self):
        a1 = vertex_labeling(P3, P3, {0: 0, 1: 1, 2: 2})
        a2 = vertex_labeling(P3, P3, {0: 2, 1: 1, 2: 0})
        z1 = zigzag_product(P3, P3, a1)
        z2 = zigzag_product(P3, P3, a2)
        reverse = VertexMap(P3, P3, {0: 2, 1: 1, 2: 0})
        assert is_product_isomorphism(identity_map(P3), reverse, z1, z2)

    def test_bidirectional_route_without_strictness(self):
        # The two path ends have the same neighborhood, so swapping them is
        # admitted by the neighborhood route even though labels differ.
        a1 = vertex_labeling(K2, P3, {0: 0, 1: 2})
        a2 = vertex_labeling(K2, P3, {0: 2, 1: 0})
        z1 = zigzag_product(K2, P3, a1)
        z2 = zigzag_product(K2, P3, a2)
        assert is_product_isomorphism(identity_map(K2), identity_map(P3), z1, z2)

    def test_incompatible_relabel_refused(self):
        z1 = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        z2 = zigzag_product(C4, P3, constant_labeling(C4, P3, 0))
        assert not is_product_isomorphism(identity_map(C4), identity_map(P3), z1, z2)

    def test_non_isomorphism_inputs_rejected(self):
        a3 = constant_labeling(C3, P3, 1)
        z3 = zigzag_product(C3, P3, a3)
        a6 = pullback_labeling(a3, mod_map(C6, C3, 3))
        z6 = zigzag_product(C6, P3, a6)
        with pytest.raises(ValueError, match="isomorphisms"):
            is_product_isomorphism(mod_map(C6, C3, 3), identity_map(P3), z6, z3)


class TestLiftPair:
    def test_section_choice_embeds(self):
        z = c4p3()
        gmap = {u: 0 for u in C4.vertices}
        embed = lift_pair(identity_map(C4), gmap, z)
        assert is_graph_morphism(embed)
        assert set(embed.mapping.values()) == {(u, 0) for u in C4.vertices}

    def test_k2_identity_like(self):
        z = k2k2()
        embed = lift_pair(identity_map(K2), {0: 1, 1: 1}, z)
        assert embed.mapping == {0: (0, 1), 1: (1, 1)}

    def test_adjacency_violation_names_the_dart(self):
        z = c4p3()
        gmap = {u: 0 for u in C4.vertices}
        gmap[2] = 1
        with pytest.raises(ValueError, match="dart"):
            lift_pair(identity_map(C4), gmap, z)


class TestLiftCovering:
    def test_identity_cover(self):
        z = c4p3()
        lift = lift_covering(identity_map(C4), z)
        assert lift.phat == identity_map(z.product)
        assert lift.verified

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
    def test_cyclic_covers(self, n, k):
        base = cycle(n)
        a = constant_labeling(base, P3, 1)
        z = zigzag_product(base, P3, a)
        p = mod_map(cycle(k * n), base, n)
        lift = lift_covering(p, z)
        assert lift.verified
        assert is_covering_map(lift.phat)
        assert len(lift.lifted.product.edges) == k * len(z.product.edges)

    def test_c8_over_c4_edge_counts(self):
        z = c4p3()
        lift = lift_covering(mod_map(cycle(8), C4, 4), z)
        assert len(z.product.edges) == 16
        assert len(lift.lifted.product.edges) == 32

    def test_non_cover_rejected(self):
        z = zigzag_product(K2, P3, constant_labeling(K2, P3, 1))
        fold = VertexMap(P3, K2, {0: 0, 1: 1, 2: 0})
        with pytest.raises(ValueError, match="covering"):
            lift_covering(fold, z)


class TestLiftCombinatorialCover:
    def test_identity_has_index_one(self):
        z = c4p3()
        lift = lift_combinatorial_cover(identity_map(C4), z)
        assert lift.index == 1

    def test_cycle_quotient_keeps_index_two(self):
        a = constant_labeling(C3, P3, 1)
        z = zigzag_product(C3, P3, a)
        lift = lift_combinatorial_cover(mod_map(C6, C3, 3), z)
        assert lift.index == 2
        assert check_combinatorial_cover(lift.phat).index == 2

    def test_non_cover_rejected(self):
        z = c4p3()
        g = Graph((), ((0, 1), (1, 2), (0, 2), (3, 4)))
        m = VertexMap(g, C3, {0: 0, 1: 1, 2: 2, 3: 0, 4: 1})
        z3 = zigzag_product(C3, P3, constant_labeling(C3, P3, 1))
        with pytest.raises(ValueError, match="combinatorial"):
            lift_combinatorial_cover(m, z3)


class TestPiCombinatorialCover:
    def test_k2_k2(self):
        assert pi_combinatorial_cover_check(k2k2()) == 1

    def test_c4_p3(self):
        assert pi_combinatorial_cover_check(c4p3()) == 4

    def test_c6_p3(self):
        a = constant_labeling(C6, P3, 1)
        assert pi_combinatorial_cover_check(zigzag_product(C6, P3, a)) == 4

    def test_requires_locally_constant(self):
        a = random_dart_labeling(random.Random(3), C4, P3)
        while is_locally_constant(a):
            a = random_dart_labeling(random.Random(4), C4, P3)
        z = zigzag_product(C4, P3, a)
        with pytest.raises(ValueError):
            pi_combinatorial_cover_check(z)

    @given(constant_valency_instances())
    @settings(max_examples=30)
    def test_index_is_valency_squared(self, inst):
        g, h, a = inst
        n = image_valency(a)
        z = zigzag_product(g, h, a)
        assert pi_combinatorial_cover_check(z) == check_combinatorial_cover(projection(z)).index == n * n

    @given(constant_valency_instances(), st.data())
    @settings(max_examples=30)
    def test_edited_products_are_refused_by_both_checks(self, inst, data):
        z = zigzag_product(*inst)
        cut = without_edge(z, data.draw(st.sampled_from(z.product.edges)))
        assert not check_combinatorial_cover(projection(cut))
        with pytest.raises(RuntimeError, match="^projection is not a combinatorial cover of index"):
            pi_combinatorial_cover_check(cut)
        # Every pair above a base edge is an edge already, so an added edge lies above no base edge.
        pairs = [(x, y) for x, y in combinations(z.product.vertices, 2) if not z.product.has_edge(x, y)]
        assume(pairs)
        grown = Graph(z.product.vertices, z.product.edges + (data.draw(st.sampled_from(pairs)),))
        added = ZigZagGraph._from_ranks(grown, z.labeling, z._vertex_codes)
        first = VertexMap(grown, z.base, {v: v[0] for v in grown.vertices})
        assert check_combinatorial_cover(first).violation == "not-a-morphism"
        with pytest.raises(RuntimeError, match="^projection failed to be a graph morphism$"):
            pi_combinatorial_cover_check(added)
