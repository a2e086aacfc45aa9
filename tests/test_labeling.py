import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
from conftest import (
    constant_valency_instances,
    labeled_instances,
    labeled_instances_of_both_forms,
    small_graphs,
    vertex_maps_into,
)
from helpers import C3, C4, C6, K2, P3, mod_map, random_dart_labeling
from zigzag import io
from zigzag.generators import cycle, path
from zigzag.graphs import Dart, Graph, VertexMap, darts, disjoint_union, identity_map, make_edge
from zigzag.labeling import (
    HLabeling,
    ImageValencyError,
    LabeledMorphism,
    constant_labeling,
    image_valency,
    is_locally_constant,
    is_strict_morphism,
    is_weak_morphism,
    matching_label_neighborhoods,
    pullback_labeling,
    pushforward_labeling,
    restrict_labeling,
    satisfies_neighbor_reflecting,
    vertex_labeling,
    vertex_labels,
)
from zigzag.product import product_edge_count_check, product_valency_check, zigzag_product
from test_graphs import mixed_graphs

import random


@st.composite
def mixed_labeled_instances(draw):
    """Dart labelings of graphs with mixed ids (ints, strings, nested pairs)."""
    g, h = draw(mixed_graphs(max_vertices=7)), draw(small_graphs(min_vertices=1, max_vertices=4))
    return g, h, HLabeling(g, h, {d: draw(st.sampled_from(h.vertices)) for d in darts(g)})


class TestHLabeling:
    def test_must_cover_all_darts(self):
        with pytest.raises(ValueError, match="every dart"):
            HLabeling(C4, P3, {})

    def test_extra_darts_rejected(self):
        extra = {d: 1 for d in darts(C4)} | {Dart(0, (0, 2)): 1}
        with pytest.raises(ValueError, match=r"every dart exactly \(missing \[\], extra \[Dart\(vertex=0, edge=\(0, 2\)\)\]\)"):
            HLabeling(C4, P3, extra)

    def test_labels_must_exist(self):
        with pytest.raises(ValueError, match="outside"):
            HLabeling(K2, P3, {d: 99 for d in darts(K2)})

    def test_lookup(self):
        a = constant_labeling(C4, P3, 1)
        assert a(Dart(0, (0, 1))) == 1
        assert a.label(0, (1, 0)) == 1
        assert a.image == {1}


class TestLocallyConstant:
    def test_constant_labeling(self):
        assert is_locally_constant(constant_labeling(C4, P3, 1))

    def test_one_dart_per_vertex_is_vacuous(self):
        a = HLabeling(K2, P3, {Dart(0, (0, 1)): 0, Dart(1, (0, 1)): 2})
        assert is_locally_constant(a)

    def test_direct_violation(self):
        p3 = P3
        a = HLabeling(
            p3,
            P3,
            {
                Dart(0, (0, 1)): 1,
                Dart(1, (0, 1)): 0,
                Dart(1, (1, 2)): 2,
                Dart(2, (1, 2)): 1,
            },
        )
        assert not is_locally_constant(a)


class TestImageValency:
    def test_center_of_path(self):
        assert image_valency(constant_labeling(K2, P3, 1)) == 2

    def test_isolated_label_rejected(self):
        h = Graph((0, 1, 2), ((0, 1),))
        with pytest.raises(ImageValencyError):
            image_valency(constant_labeling(K2, h, 2))

    def test_mixed_valencies_listed(self):
        a = HLabeling(K2, P3, {Dart(0, (0, 1)): 0, Dart(1, (0, 1)): 1})
        with pytest.raises(ImageValencyError) as exc:
            image_valency(a)
        assert exc.value.valencies == (1, 2)

    def test_edgeless_base_rejected(self):
        a = HLabeling(Graph((0, 1), ()), P3, {})
        with pytest.raises(ImageValencyError, match="no darts"):
            image_valency(a)


def valency_outcome(f, a):
    try:
        return f(a)
    except ImageValencyError as exc:
        return type(exc), str(exc), exc.valencies


class TestImageValencyMatchesTheDegreeReads:
    """The valencies read once per labeling from the label ranks give the
    per-label `degree` rule's answer, error class, message and valencies."""

    @given(st.one_of(labeled_instances(), constant_valency_instances()))
    def test_drawn_labelings(self, inst):
        a = inst[2]
        want = valency_outcome(oracle.image_valency_by_degrees, a)
        assert valency_outcome(image_valency, a) == want
        assert valency_outcome(image_valency, a) == want  # again, from the kept valencies

    @pytest.mark.parametrize(
        "labels, want",
        [
            ({0: 0, 1: 2}, 1),
            ({0: 1, 1: 1}, 2),
            (
                {0: 0, 1: 1},
                (ImageValencyError, "labels in use have valencies (1, 2), expected one positive value", (1, 2)),
            ),
            ({0: 3, 1: 3}, (ImageValencyError, "labels in use are isolated in the label graph", (0,))),
            (
                {0: 3, 1: 1},
                (ImageValencyError, "labels in use have valencies (0, 2), expected one positive value", (0, 2)),
            ),
        ],
    )
    def test_mixed_and_isolated_labels(self, labels, want):
        h = Graph((0, 1, 2, 3), ((0, 1), (1, 2)))  # P3 and an isolated label 3
        a = vertex_labeling(K2, h, labels)
        assert valency_outcome(image_valency, a) == valency_outcome(oracle.image_valency_by_degrees, a) == want


class TestPullback:
    def test_identity_is_noop(self):
        a = constant_labeling(C4, P3, 1)
        assert pullback_labeling(a, identity_map(C4)) == a

    def test_cycle_cover_stays_constant(self):
        a = constant_labeling(C3, P3, 1)
        b = pullback_labeling(a, mod_map(C6, C3, 3))
        assert b == constant_labeling(C6, P3, 1)

    def test_values_follow_the_dart_map(self):
        rng = random.Random(7)
        a = random_dart_labeling(rng, C3, P3)
        b = pullback_labeling(a, mod_map(C6, C3, 3))
        assert b(Dart(4, (4, 5))) == a(Dart(1, (1, 2)))

    def test_rejects_non_morphism(self):
        a = constant_labeling(K2, P3, 1)
        bad = VertexMap(C4, K2, {v: 0 for v in C4.vertices})
        with pytest.raises(ValueError):
            pullback_labeling(a, bad)

    @given(constant_valency_instances())
    def test_preserves_local_constancy_and_valency(self, inst):
        g, h, a = inst
        n = image_valency(a)
        doubled = disjoint_union(g, g)
        p = VertexMap(doubled, g, {(t, v): v for t, v in doubled.vertices})
        b = pullback_labeling(a, p)
        assert is_locally_constant(b)
        assert image_valency(b) == n


class TestStoredForms:
    """Every labeling is stored one way, as the label ranks at the two ends of
    each base edge; a labeling given per dart, in any order, or per vertex
    reads the same in every way."""

    @given(labeled_instances_of_both_forms())
    def test_per_dart_and_per_vertex_construction_agree(self, inst):
        g, h, a = inst
        given_forms = [HLabeling(g, h, dict(reversed(list(a.mapping.items()))))]
        if is_locally_constant(a):
            given_forms.append(vertex_labeling(g, h, vertex_labels(a)))
        items = [(d, a(d)) for d in darts(g)]
        for b in given_forms:
            assert b == a and hash(b) == hash(a)
            assert list(b.mapping.items()) == list(a.mapping.items()) == items
            assert list(b.mapping.values()) == [x for _, x in items]
            assert list(b.mapping) == list(darts(g)) and len(b.mapping) == len(items)
            assert all(b.mapping[tuple(d)] == x for d, x in items)
            assert is_locally_constant(b) == is_locally_constant(a)

    @given(labeled_instances_of_both_forms())
    def test_non_darts_raise_key_error(self, inst):
        g, h, a = inst
        strays = [5, "x", (0,), (0, 1, 2), Dart(0, (0, 99)), Dart("v", (0, 1))]
        strays += [Dart(w, e) for e in g.edges[:2] for w in g.vertices if w not in e][:3]
        for d in strays:
            with pytest.raises(KeyError):
                a.mapping[d]
            assert d not in a.mapping

    def test_dict_built_locally_constant_labeling_is_stored_per_vertex(self):
        a = HLabeling(C4, P3, {d: 1 for d in darts(C4)})
        assert a.mapping.__class__ is constant_labeling(C4, P3, 1).mapping.__class__
        assert a == constant_labeling(C4, P3, 1) and hash(a) == hash(constant_labeling(C4, P3, 1))

    def test_vertex_labeling_needs_every_non_isolated_vertex(self):
        g = Graph((0, 1, 2), ((0, 1),))
        assert vertex_labeling(g, P3, {0: 1, 1: 1}) == constant_labeling(g, P3, 1)
        with pytest.raises(KeyError):
            vertex_labeling(g, P3, {0: 1, 2: 1})
        with pytest.raises(ValueError, match="outside the label graph"):
            vertex_labeling(g, P3, {0: 1, 1: 9})

    @given(st.data())
    def test_pullback_matches_the_per_dart_oracle(self, data):
        g, h, a = data.draw(labeled_instances_of_both_forms())
        m = data.draw(vertex_maps_into(g))
        b, want = pullback_labeling(a, m), oracle.pullback_labeling(a, m)
        assert b == want and hash(b) == hash(want)
        assert list(b.mapping.items()) == list(want.mapping.items())
        assert is_locally_constant(b) == is_locally_constant(want)

    @given(st.data())
    def test_pullback_refuses_a_non_morphism(self, data):
        g, h, a = data.draw(labeled_instances_of_both_forms())
        m = data.draw(vertex_maps_into(g, morphism=False))
        with pytest.raises(ValueError):
            oracle.pullback_labeling(a, m)
        with pytest.raises(ValueError, match="graph morphism"):
            pullback_labeling(a, m)

    def test_pullback_refuses_a_map_into_another_base(self):
        a = constant_labeling(C4, P3, 1)
        with pytest.raises(ValueError, match="map into the labeled graph"):
            pullback_labeling(a, identity_map(C3))


@st.composite
def label_maps_out_of(draw, h, morphism=True):
    """A vertex map out of h into a graph on range(len(h.vertices)) holding the image
    of every edge of h, plus random edges; with morphism=False, one image edge is left
    out of the codomain (or an edge collapses), so the map is no morphism."""
    n, f = len(h.vertices), {}
    for x in h.vertices:  # a colouring: adjacent vertices get distinct images
        taken = {f[y] for y in h.neighbors(x) if y in f}
        f[x] = draw(st.sampled_from([c for c in range(n) if c not in taken] if morphism else range(n)))
    images = {make_edge(f[x], f[y]) for x, y in h.edges if f[x] != f[y]}
    pairs = list(itertools.combinations(range(n), 2))
    extra = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    edges = images | extra
    if not morphism:
        assume(images or any(f[x] == f[y] for x, y in h.edges))
        if images and not any(f[x] == f[y] for x, y in h.edges):
            edges -= {draw(st.sampled_from(sorted(images)))}
    return VertexMap(h, Graph(tuple(range(n)), tuple(edges)), f)


ISOLATED_VERTICES = (
    Graph((0, 1, 2, 3, 4), ((1, 2), (2, 3))),
    Graph((0, 1, 2), ((0, 1), (0, 2), (1, 2))),
    Graph((0, 1, 2), ((0, 1),)),
)


class TestTransformsMatchThePerDartReferences:
    """Pushforward, restriction and pullback read and write label-rank arrays;
    they must give the labelings the per-dart dict references build."""

    @staticmethod
    def assert_same(b, want):
        assert b == want and hash(b) == hash(want)
        assert list(b.mapping.items()) == list(want.mapping.items())
        assert is_locally_constant(b) == is_locally_constant(want)

    @given(st.data())
    def test_pushforward(self, data):
        g, h, a = data.draw(labeled_instances_of_both_forms())
        psi = data.draw(label_maps_out_of(h))
        self.assert_same(pushforward_labeling(a, psi), oracle.pushforward_labeling(a, psi))

    def test_pushforward_over_isolated_vertices(self):
        g, h = ISOLATED_VERTICES[0], ISOLATED_VERTICES[2]  # 0 and 4 isolated in the base, 2 in the labels
        psi = VertexMap(h, P3, {0: 0, 1: 1, 2: 2})
        for a in (vertex_labeling(g, h, {1: 2, 2: 0, 3: 2}), random_dart_labeling(random.Random(5), g, h)):
            self.assert_same(pushforward_labeling(a, psi), oracle.pushforward_labeling(a, psi))

    @given(st.data())
    def test_restriction(self, data):
        g, h, a = data.draw(labeled_instances_of_both_forms())
        subset = data.draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
        self.assert_same(restrict_labeling(a, subset), oracle.restrict_labeling(a, subset))

    @given(st.data())
    def test_restriction_equals_the_pullback_along_the_inclusion(self, data):
        # The former route, kept as the oracle: pull back along the identity map of the induced subgraph.
        g, h, a = data.draw(st.one_of(labeled_instances_of_both_forms(), mixed_labeled_instances()))
        subset = data.draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
        sub = g.induced_subgraph(subset)
        inclusion = VertexMap(sub, g, {v: v for v in sub.vertices})
        self.assert_same(restrict_labeling(a, subset), pullback_labeling(a, inclusion))

    @pytest.mark.parametrize("subset", [(), (0,), (0, 1, 2), (1, 2, 3), (0, 1, 2, 3, 4), (2, 4)])
    def test_restriction_keeps_isolated_vertices(self, subset):
        g, h = ISOLATED_VERTICES[0], ISOLATED_VERTICES[1]
        for a in (vertex_labeling(g, h, {1: 0, 2: 1, 3: 2}), random_dart_labeling(random.Random(5), g, h)):
            b = restrict_labeling(a, subset)
            self.assert_same(b, oracle.restrict_labeling(a, subset))
            assert b.base.vertices == tuple(sorted(subset))

    @given(st.data())
    def test_non_morphisms_get_the_same_error_text(self, data):
        g, h, a = data.draw(labeled_instances_of_both_forms())
        psi = data.draw(label_maps_out_of(h, morphism=False))
        with pytest.raises(ValueError) as want:
            oracle.pushforward_labeling(a, psi)
        with pytest.raises(ValueError, match="^pushforward along a non-morphism$") as got:
            pushforward_labeling(a, psi)
        assert str(got.value) == str(want.value)
        m = data.draw(vertex_maps_into(g, morphism=False))
        with pytest.raises(ValueError) as want:
            oracle.pullback_labeling(a, m)
        with pytest.raises(ValueError, match="^dart map is only induced by a graph morphism$") as got:
            pullback_labeling(a, m)
        assert str(got.value) == str(want.value)

    def test_maps_from_another_graph_get_the_same_error_text(self):
        a = constant_labeling(C4, P3, 1)
        for ours, ref, arg in (
            (pushforward_labeling, oracle.pushforward_labeling, identity_map(K2)),
            (restrict_labeling, oracle.restrict_labeling, {0, 9}),
        ):
            with pytest.raises(ValueError) as want:
                ref(a, arg)
            with pytest.raises(ValueError) as got:
                ours(a, arg)
            assert str(got.value) == str(want.value)


class TestDartLookup:
    """Single darts are looked up by their edge's position among the base edges."""

    @given(labeled_instances_of_both_forms())
    def test_pairs_that_are_no_stored_edge_raise_key_error(self, inst):
        g, h, a = inst
        non_edges = [(u, v) for u, v in itertools.combinations(g.vertices, 2) if not g.has_edge(u, v)]
        strays = [Dart(x, e) for e in non_edges for x in e]
        strays += [Dart(x, (v, u)) for u, v in g.edges for x in (u, v)]  # an edge with its ends swapped
        for d in strays:
            with pytest.raises(KeyError):
                a(d)
            assert d not in a.mapping

    @given(labeled_instances_of_both_forms())
    def test_every_dart_reads_its_own_label(self, inst):
        g, h, a = inst
        items = list(a.mapping.items())
        assert [a(d) for d, _ in items] == [x for _, x in items]
        assert [a.label(d.vertex, d.edge[::-1]) for d, _ in items] == [x for _, x in items]


class TestPushforward:
    def test_identity_is_noop(self):
        a = constant_labeling(C4, P3, 1)
        assert pushforward_labeling(a, identity_map(P3)) == a

    def test_collapse_path_to_edge(self):
        psi = VertexMap(P3, K2, {0: 0, 1: 1, 2: 0})
        a = constant_labeling(C4, P3, 1)
        assert pushforward_labeling(a, psi) == constant_labeling(C4, K2, 1)

    def test_then_pullback_along_identity(self):
        psi = VertexMap(P3, K2, {0: 0, 1: 1, 2: 0})
        a = constant_labeling(C4, P3, 1)
        pushed = pushforward_labeling(a, psi)
        assert pullback_labeling(pushed, identity_map(C4)) == pushed


class TestRestrict:
    def test_full_subset_is_noop(self):
        a = constant_labeling(C4, P3, 1)
        assert restrict_labeling(a, C4.vertices) == a

    def test_single_vertex_gives_empty(self):
        a = constant_labeling(C4, P3, 1)
        assert restrict_labeling(a, {0}).mapping == {}

    def test_arc_of_c4(self):
        a = constant_labeling(C4, P3, 1)
        r = restrict_labeling(a, {0, 1, 2})
        assert len(r.mapping) == 4
        assert r.base.edges == ((0, 1), (1, 2))

    def test_subset_validated(self):
        a = constant_labeling(C4, P3, 1)
        with pytest.raises(ValueError):
            restrict_labeling(a, {0, 9})


class TestStrictAndWeak:
    def test_identity_is_strict(self):
        a = constant_labeling(C4, P3, 1)
        lm = LabeledMorphism(identity_map(C4), a, a)
        assert is_strict_morphism(lm)
        assert is_weak_morphism(lm)

    def test_pullback_makes_cover_strict(self):
        a = constant_labeling(C3, P3, 1)
        p = mod_map(C6, C3, 3)
        lm = LabeledMorphism(p, pullback_labeling(a, p), a)
        assert is_strict_morphism(lm)

    def test_single_dart_change_breaks_strict(self):
        a = constant_labeling(C4, P3, 1)
        mapping = dict(a.mapping)
        first = next(iter(mapping))
        mapping[first] = 0
        b = HLabeling(C4, P3, mapping)
        lm = LabeledMorphism(identity_map(C4), a, b)
        assert not is_strict_morphism(lm)

    def test_weak_by_neighborhood_containment(self):
        # In the path a-b-c the ends have equal neighborhoods {b}.
        ends_to_ends = LabeledMorphism(
            identity_map(C4), constant_labeling(C4, P3, 0), constant_labeling(C4, P3, 2)
        )
        assert is_weak_morphism(ends_to_ends)
        assert not is_strict_morphism(ends_to_ends)
        assert matching_label_neighborhoods(ends_to_ends)

    def test_weak_fails_when_containment_fails(self):
        center_to_end = LabeledMorphism(
            identity_map(C4), constant_labeling(C4, P3, 1), constant_labeling(C4, P3, 0)
        )
        assert not is_weak_morphism(center_to_end)
        assert not matching_label_neighborhoods(center_to_end)

    def test_label_graphs_must_agree(self):
        lm = LabeledMorphism(
            identity_map(C4), constant_labeling(C4, P3, 1), constant_labeling(C4, C3, 1)
        )
        with pytest.raises(ValueError, match="same label graph"):
            is_strict_morphism(lm)
        with pytest.raises(ValueError, match="same label graph"):
            is_weak_morphism(lm)

    @given(labeled_instances(max_g=5, max_h=4))
    def test_strict_implies_weak(self, inst):
        g, h, a = inst
        lm = LabeledMorphism(identity_map(g), a, a)
        assert is_strict_morphism(lm)
        assert is_weak_morphism(lm)

    @given(labeled_instances(max_g=4, max_h=4), labeled_instances(max_g=4, max_h=4))
    def test_strict_implies_weak_randomized(self, inst1, inst2):
        g, h, a = inst1
        _, _, b = inst2
        if b.base != g or b.labels != h:
            return
        lm = LabeledMorphism(identity_map(g), a, b)
        assert (not is_strict_morphism(lm)) or is_weak_morphism(lm)


class TestNeighborReflecting:
    def test_identity(self):
        assert satisfies_neighbor_reflecting(identity_map(P3))

    def test_cycle_quotient_fails(self):
        # 0 and 2 are non-adjacent in the 6-cycle but their images 0 and 2
        # are adjacent in the triangle.
        assert not satisfies_neighbor_reflecting(mod_map(C6, C3, 3))

    def test_fold_of_disjoint_copies_fails_across_copies(self):
        # The fold preserves adjacency inside each copy, but a cross-copy
        # pair maps to an adjacent pair while being non-adjacent upstairs,
        # so the biconditional fails.
        two = disjoint_union(P3, P3)
        fold = VertexMap(two, P3, {(t, v): v for t, v in two.vertices})
        assert not satisfies_neighbor_reflecting(fold)

    def test_antipodal_quotient_of_c4(self):
        psi = VertexMap(C4, K2, {0: 0, 2: 0, 1: 1, 3: 1})
        assert satisfies_neighbor_reflecting(psi)

    def test_surjectivity_required(self):
        h = Graph((0, 1, 2), ((0, 1),))
        psi = VertexMap(K2, h, {0: 0, 1: 1})
        assert not satisfies_neighbor_reflecting(psi)

    def test_pushforward_preserves_weak_morphisms(self):
        # Executable form of the induced-functor condition: a weak morphism
        # stays weak after pushing both labelings through a surjective,
        # adjacency-reflecting label map.
        psi = VertexMap(C4, K2, {0: 0, 2: 0, 1: 1, 3: 1})
        assert satisfies_neighbor_reflecting(psi)
        src = constant_labeling(C6, C4, 0)
        tgt = constant_labeling(C6, C4, 2)
        lm = LabeledMorphism(identity_map(C6), src, tgt)
        assert is_weak_morphism(lm)
        pushed = LabeledMorphism(
            identity_map(C6), pushforward_labeling(src, psi), pushforward_labeling(tgt, psi)
        )
        assert is_weak_morphism(pushed)

    @given(labeled_instances(max_g=4, max_h=4))
    def test_pushforward_preserves_weak_morphisms_randomized(self, inst):
        g, h, a = inst
        psi_pairs = []
        if h == C4:
            psi_pairs.append(VertexMap(C4, K2, {0: 0, 2: 0, 1: 1, 3: 1}))
        psi_pairs.append(identity_map(h))
        for psi in psi_pairs:
            lm = LabeledMorphism(identity_map(g), a, a)
            assert is_weak_morphism(lm)
            pushed = LabeledMorphism(
                identity_map(g), pushforward_labeling(a, psi), pushforward_labeling(a, psi)
            )
            assert is_weak_morphism(pushed)


class TestStoredRankDtype:
    """Label ranks are stored in the smallest unsigned dtype that holds every
    rank of the label graph; products read them as before."""

    # SHA-256 of the product documents of C6 labeled dart by dart, as the writer
    # of the intp-rank labelings rendered them.
    DIGESTS = {
        3: "4668b7bbceb351e765a98fe7247e59c104873f0b5d1cbc9f45dc2fe074b5ed95",
        300: "2fa4408947fac7bf32ddfba3967aefaf65d5486aa2ec0c96b66903ebc5dbfe76",
    }

    @pytest.mark.parametrize("h, dtype", [(P3, np.uint8), (cycle(300), np.uint16)])
    def test_dtype_follows_the_label_count_and_products_are_unchanged(self, h, dtype):
        labels = {d: h.vertices[(7 * k) % len(h.vertices)] for k, d in enumerate(darts(C6))}
        a = HLabeling(C6, h, labels)
        b = HLabeling._from_ranks(C6, h, a._label_ranks.astype(np.int64))
        for x in (a, b, pullback_labeling(a, identity_map(C6)), constant_labeling(C6, h, h.vertices[-1])):
            assert x._label_ranks.dtype == dtype and not x._label_ranks.flags.writeable
        assert a == b and hash(a) == hash(b) and dict(a.mapping) == labels
        z = zigzag_product(C6, h, a)
        text = io.dumps_product(z)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGESTS[len(h.vertices)]
        verts, edges = oracle.brute_force_zigzag(C6, h, a)
        assert set(z.product.vertices) == verts and set(z.product.edges) == edges
        assert product_valency_check(z) and product_edge_count_check(z)
        assert io.dumps_product(io.loads_product(text)) == text

    def test_rank_arithmetic_does_not_wrap(self):
        # 255 is the top uint8 rank: codes and tag ends computed from it must not wrap around.
        h = path(256)
        a = constant_labeling(K2, h, 254)
        z = zigzag_product(K2, h, a)
        assert a._label_ranks.dtype == np.uint8
        assert z.product.vertices == ((0, 253), (0, 255), (1, 253), (1, 255))
        assert {t.h_lo for t in z.edge_tags.values()} == {(253, 254), (254, 255)}


class TestVertexLabeling:
    def test_builds_locally_constant(self):
        a = vertex_labeling(P3, P3, {0: 0, 1: 1, 2: 2})
        assert is_locally_constant(a)
        assert a(Dart(1, (0, 1))) == 1
        assert a(Dart(1, (1, 2))) == 1


class TestCachedTables:
    @given(labeled_instances())
    def test_tables_agree_with_a_fresh_walk(self, inst):
        g, h, a = inst
        at: dict = {}
        for d in darts(g):
            at.setdefault(d.vertex, set()).add(a(d))
        constant = all(len(labels) == 1 for labels in at.values())
        for _ in range(2):  # the second round reads the cached tables
            assert is_locally_constant(a) == constant
            if constant:
                table = vertex_labels(a)
                assert table == {v: next(iter(labels)) for v, labels in at.items()}
                assert list(table) == [v for v in g.vertices if g.degree(v)]
            else:
                with pytest.raises(ValueError, match="not locally constant"):
                    vertex_labels(a)
            image = set().union(*at.values())
            assert a.image == image
            valencies = {h.degree(x) for x in image}
            if len(valencies) == 1 and 0 not in valencies:
                assert image_valency(a) == valencies.pop()
            else:
                with pytest.raises(ImageValencyError):
                    image_valency(a)

    def test_vertex_labels_hands_out_a_copy(self):
        a = vertex_labeling(C4, P3, {0: 0, 1: 1, 2: 2, 3: 1})
        table = vertex_labels(a)
        table[0] = 2
        del table[3]
        assert vertex_labels(a) == {0: 0, 1: 1, 2: 2, 3: 1}
