from dataclasses import replace
from fractions import Fraction

import pytest

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_instances_of_both_forms
from helpers import C3, C4, K2, K4, P3, random_dart_labeling
from zigzag.generators import cayley_cyclic, complete, cycle, hypercube, path
from zigzag.graphs import (
    Graph,
    VertexMap,
    boundary,
    check_combinatorial_cover,
    compose,
    identity_map,
    is_graph_morphism,
    vertex_key,
)
from zigzag.labeling import constant_labeling, image_valency, is_locally_constant, restrict_labeling, vertex_labeling
from zigzag.spectral import (
    MATCH_TOL,
    RESIDUAL_TOL,
    SpectrumReport,
    adjacency_eigenpairs,
    adjacency_spectrum,
    lift_eigenvector,
    multisets_match,
    normalized_laplacian_spectrum,
)
from zigzag.product import ZigZagGraph, projection, zigzag_product
from zigzag import io, tower
from zigzag.tower import (
    FolnerReport,
    FolnerStep,
    TowerConfig,
    build_tower,
    folner_product_check,
    tower_spectrum_check,
)

import random


def c4_tower(depth, **kw):
    a = constant_labeling(C4, P3, 1)
    return build_tower(C4, P3, a, depth, TowerConfig(**kw) if kw else TowerConfig())


class TestBuildTower:
    def test_k2_tower_is_a_fixed_point(self):
        a = constant_labeling(K2, K2, 0)
        build = build_tower(K2, K2, a, 3)
        assert [len(lv.graph.vertices) for lv in build.levels] == [2, 2, 2]
        assert all(lv.spectrum.rho == pytest.approx(1) for lv in build.levels)
        assert build.valency == 1

    def test_c4_tower_sizes(self):
        build = c4_tower(3)
        assert [len(lv.graph.vertices) for lv in build.levels] == [4, 8, 16]
        assert [len(lv.graph.edges) for lv in build.levels] == [4, 16, 64]
        assert not build.truncated

    def test_depth_one(self):
        build = c4_tower(1)
        assert len(build.levels) == 1
        assert build.levels[0].pi is None
        assert build.levels[0].cover_index is None

    def test_level_invariants(self):
        build = c4_tower(3)
        for lv in build.levels:
            assert is_locally_constant(lv.labeling)
            assert image_valency(lv.labeling) == 2
        for lv in build.levels[1:]:
            assert lv.cover_index == 4
            assert lv.pi.domain == lv.graph

    def test_budget_truncation(self):
        build = c4_tower(5, budget=20)
        assert build.truncated
        assert len(build.levels) == 3
        assert build.requested_depth == 5

    @pytest.mark.parametrize("g, h, label", [(C4, P3, 1), (cycle(5), K2, 0), (C3, cycle(4), 2)])
    def test_budget_stops_where_building_then_counting_did(self, g, h, label, monkeypatch):
        # The budget is checked before each product is built, from the labels;
        # it must stop exactly where building the level and counting it did.
        a = constant_labeling(g, h, label)
        full = [len(lv.graph.vertices) for lv in build_tower(g, h, a, 5, TowerConfig(budget=10**9)).levels]
        built = []
        monkeypatch.setattr(tower, "zigzag_product", lambda *args: built.append(args) or zigzag_product(*args))
        for budget in sorted({1, *full, *(n - 1 for n in full), *(n + 1 for n in full)}):
            built.clear()
            build = build_tower(g, h, a, 5, TowerConfig(budget=budget))
            kept = 1 + next((k for k, n in enumerate(full[1:]) if n > budget), len(full) - 1)
            assert [len(lv.graph.vertices) for lv in build.levels] == full[:kept]
            assert build.truncated == (kept < 5)
            assert len(built) == kept - 1  # the refused level is never built

    def test_spectral_cap_skips_eigensolve(self, monkeypatch):
        # The cap bounds level 1's eigensolve only: levels 2 and 3 (8 and 16 vertices) inherit within it,
        # and over it nothing is eigensolved and no level reports spectra.
        assert all(lv.spectrum and lv.laplacian for lv in c4_tower(3, spectral_cap=4).levels)
        for name in ("eigvalsh", "svd"):  # C4 is bipartite: its block would go to svd
            monkeypatch.setattr(np.linalg, name, lambda *args, **kw: pytest.fail("eigensolved over the cap"))
        assert all(lv.spectrum is lv.laplacian is None for lv in c4_tower(3, spectral_cap=3).levels)

    def test_rejects_bad_labelings(self):
        rng = random.Random(5)
        a = random_dart_labeling(rng, C4, P3)
        while is_locally_constant(a):
            a = random_dart_labeling(rng, C4, P3)
        with pytest.raises(ValueError, match="locally constant"):
            build_tower(C4, P3, a, 2)
        with pytest.raises(ValueError, match="depth"):
            c4_tower(0)

    def test_composed_projections_reach_level_one(self):
        build = c4_tower(4)
        down = identity_map(build.levels[0].graph)
        for lv in build.levels[1:]:
            down = compose(down, lv.pi)
            assert is_graph_morphism(lv.pi)
        assert down.domain == build.levels[-1].graph
        assert down.codomain == build.levels[0].graph
        assert is_graph_morphism(down)


class TestTowerSpectrumCheck:
    def test_c4_tower_report(self):
        build = c4_tower(4)
        report = tower_spectrum_check(build)
        assert report.all_ok
        assert [s.gap for s in report.levels] == pytest.approx([2, 4, 8, 16])
        for pair in report.pairs:
            assert pair.scaling == "pass"
            assert pair.containment == "pass"
            assert pair.gap == "pass"

    def test_k2_tower_constant_spectrum(self):
        a = constant_labeling(K2, K2, 0)
        report = tower_spectrum_check(build_tower(K2, K2, a, 3))
        assert report.all_ok
        for pair in report.pairs:
            assert pair.scaling == "pass"
            # K2 has no second eigenvalue modulus, so no gap to compare.
            assert pair.gap == "skipped"

    def test_skipped_verdicts_above_cap(self):
        # Level 1 over the cap: every pair reads skipped.  Within it, so does none, whatever the level sizes.
        for cap, verdict in ((3, "skipped"), (4, "pass")):
            report = tower_spectrum_check(c4_tower(3, spectral_cap=cap))
            assert [(p.scaling, p.containment, p.gap) for p in report.pairs] == [(verdict,) * 3] * 2
            assert report.all_ok and all(s.spectra_skipped == (verdict == "skipped") for s in report.levels)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            tower_spectrum_check(c4_tower(1))

    def test_eigenpair_chain_lift(self):
        build = c4_tower(4)
        for ep in adjacency_eigenpairs(C4):
            if abs(ep.value) < 1e-6:
                continue
            carried = ep
            for lv in build.levels[:-1]:
                z = zigzag_product(lv.graph, P3, lv.labeling)
                carried = lift_eigenvector(carried, z)
            assert carried.value == pytest.approx(8 * ep.value, abs=RESIDUAL_TOL)


class TestArrayNativeLevels:
    """A tower level's ids are decoded only when read, and its Laplacian spectrum
    is derived from level 1's eigensolve: 1 - λ/d on a d-regular tower."""

    def test_no_ids_are_decoded_on_the_tower_path(self):
        build = c4_tower(6)
        assert tower._tower_report(build).all_ok
        for lv in build.levels[1:]:
            assert "edges" not in vars(lv.graph)
            assert "mapping" not in vars(lv.pi)

    def test_spent_caches_are_dropped(self):
        build = c4_tower(6)
        assert all("_edge_codes" not in vars(lv.graph) for lv in build.levels[:-1])
        assert all("_edge_images" not in vars(lv.pi) for lv in build.levels[1:])
        assert all(is_graph_morphism(lv.pi) for lv in build.levels[1:])  # rebuilt when read again

    @pytest.mark.parametrize("g", [C4, cycle(5), hypercube(3)])
    def test_derived_laplacian_matches_the_dense_route(self, g):
        build = build_tower(g, P3, constant_labeling(g, P3, 1), 6)
        for lv in build.levels:
            assert lv.graph.is_regular()
            dense = normalized_laplacian_spectrum(lv.graph)
            assert multisets_match(lv.laplacian.eigenvalues, dense.eigenvalues, MATCH_TOL)
            assert lv.laplacian.operator == dense.operator

    @pytest.mark.parametrize("g, h, label", [(path(5), P3, 1), (path(4), K4, 0)])
    def test_inherited_non_regular_laplacian_matches_the_dense_route(self, g, h, label):
        # 1 - mu, mu the nonzero spectrum of level 1's normalized adjacency, padded with ones.
        build = build_tower(g, h, constant_labeling(g, h, label), 5)
        for lv in build.levels:
            assert lv.graph.is_regular() is None
            dense = normalized_laplacian_spectrum(lv.graph)
            assert multisets_match(lv.laplacian.eigenvalues, dense.eigenvalues, MATCH_TOL)
            assert _printed(lv.laplacian) == _printed(dense)
        report = tower_spectrum_check(build)
        assert [(p.scaling, p.containment, p.gap) for p in report.pairs] == [("pass", "pass", "pass")] * 4


def _printed(s):
    """rho, lambda2 and gap as the tower report prints them."""
    return [None if x is None else io._sig12(x) for x in (s.rho, s.lambda2, s.gap)]


def _edited_product(edit):
    """A stand-in for `zigzag_product` whose product edge ranks pass through edit first."""
    def build(g, h, a):
        z = zigzag_product(g, h, a)
        src, dst = edit(z.product._edge_ranks).T
        return ZigZagGraph._from_ranks(Graph._from_ranks(z.product.vertices, src, dst), a, z._vertex_codes)
    return build


# K4 minus an edge, with three isolated vertices: level 1's Laplacian is undefined, the ones above are not.
K4_MINUS_EDGE_AND_3 = Graph(tuple(range(7)), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))


class TestCertifiedSpectra:
    """Above level 1 a level's spectra are inherited from level 1's through the certified
    projections; the dense eigensolve of every level is the independent check."""

    # Every level up to 8 within the cost of a dense check: C5/K4 (m = 3) has 1 215 vertices at
    # level 6 and 3 645 at level 7.
    @pytest.mark.parametrize(
        "g, h, label, depth",
        [(C4, P3, 1, 8), (hypercube(3), P3, 1, 8), (cycle(5), K4, 0, 6), (path(5), P3, 1, 8),
         (K4_MINUS_EDGE_AND_3, P3, 1, 8)],
    )
    def test_certified_spectra_match_the_dense_route(self, g, h, label, depth):
        build = build_tower(g, h, constant_labeling(g, h, label), depth)
        assert len(build.levels) == depth
        top = len(build.levels[-1].graph.vertices)
        assert depth == 8 or build.valency * top > TowerConfig().spectral_cap  # no level up to 8 left out
        for lv in build.levels:
            dense = adjacency_spectrum(lv.graph)
            assert multisets_match(lv.spectrum.eigenvalues, dense.eigenvalues, MATCH_TOL)
            assert _printed(lv.spectrum) == _printed(dense)
            if not lv.graph._degrees.all():
                assert lv.index == 1 and lv.laplacian is None
                continue
            laplacian = normalized_laplacian_spectrum(lv.graph)
            assert multisets_match(lv.laplacian.eigenvalues, laplacian.eigenvalues, MATCH_TOL)
            assert _printed(lv.laplacian) == _printed(laplacian)

    # The certificate beside the general cover check, on every level up to 8 (C5/K4: up to 6, 295 245 edges).
    @pytest.mark.parametrize(
        "g, h, label, depth", [(C4, P3, 1, 8), (hypercube(3), P3, 1, 8), (path(5), P3, 1, 8), (cycle(5), K4, 0, 6)]
    )
    def test_certificate_agrees_with_the_general_cover_check(self, g, h, label, depth):
        build = build_tower(g, h, constant_labeling(g, h, label), depth)
        m = build.valency
        for lo, hi in zip(build.levels, build.levels[1:]):
            assert check_combinatorial_cover(hi.pi).index == hi.cover_index == m * m
            tower._certify(hi.pi, lo.graph, m)

    def test_uneven_fibers_are_refused(self):
        # K_{1,4} -> K2 is a combinatorial cover of index 4 = 2^2, but its fibers have 1 and 4 vertices.
        star = Graph(tuple(range(5)), tuple((0, v) for v in range(1, 5)))
        pi = VertexMap(star, K2, {0: 0, 1: 1, 2: 1, 3: 1, 4: 1})
        assert check_combinatorial_cover(pi).index == 4
        with pytest.raises(RuntimeError, match=r"cover index 4, fiber sizes \[1, 4\], 1 of the 1 edges"):
            tower._certify(pi, K2, 2)

    def test_an_image_missing_an_edge_below_is_refused(self):
        pi = identity_map(K2)  # a cover of index 1 with fibers of 1 vertex, but P3 has a second edge
        tower._certify(pi, K2, 1)
        with pytest.raises(RuntimeError, match=r"fiber sizes \[1\], 1 of the 2 edges below carried"):
            tower._certify(pi, P3, 1)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda ranks: ranks[1:],  # one edge of the first base edge's fiber dropped
            lambda ranks: np.unique(np.vstack((ranks, [[0, 4]])), axis=0),  # (0, 0)-(2, 0) over the non-edge 0-2
        ],
        ids=["dropped", "added"],
    )
    def test_an_edited_product_is_refused(self, edit, monkeypatch):
        monkeypatch.setattr(tower, "zigzag_product", _edited_product(edit))
        with pytest.raises(RuntimeError, match="not certified|graph morphism"):
            c4_tower(3)

    def test_swapped_base_edges_are_refused(self):
        z = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        b = z._base_edges.copy()
        b[[0, -1]] = b[[-1, 0]]
        assert b[0] != b[-1]
        z.__dict__["_base_edges"] = b
        with pytest.raises(RuntimeError, match="projection failed to be a graph morphism"):
            projection(z)

    def test_a_level_one_over_the_cap_leaves_every_level_without_spectra(self):
        # The isolated vertices of level 1 are dropped, so levels 2 and 3 (K2 again, m = 1) are smaller,
        # but only level 1 is eigensolved: over the cap no level reports spectra, within it they inherit.
        g = Graph(tuple(range(6)), ((0, 1),))
        a = constant_labeling(g, K2, 0)
        build = build_tower(g, K2, a, 3, TowerConfig(spectral_cap=4))
        assert [len(lv.graph.vertices) for lv in build.levels] == [6, 2, 2]
        assert all(lv.spectrum is lv.laplacian is None for lv in build.levels)
        build = build_tower(g, K2, a, 3, TowerConfig(spectral_cap=6))
        assert [lv.spectrum.eigenvalues for lv in build.levels] == [(1.0, 0.0, 0.0, 0.0, 0.0, -1.0)] + [(1.0, -1.0)] * 2
        assert [lv.laplacian and lv.laplacian.eigenvalues for lv in build.levels] == [None] + [(2.0, 0.0)] * 2

    @pytest.mark.parametrize("g, calls, size", [(C4, 1, 2), (path(5), 2, 5), (cycle(5), 1, 5)])
    def test_eigensolves_per_tower(self, g, calls, size, monkeypatch):
        # Level 1 only: its adjacency, and for a non-regular level 1 its normalized adjacency; a bipartite
        # level 1 (C4, P5) is solved on the twin quotient of its p×q biadjacency block, one row or column per
        # class of twins: C4's opposite vertices are twins, so 1 + 1; P5 has none, so all 5 vertices.
        sizes, eigvalsh, svd = [], np.linalg.eigvalsh, np.linalg.svd
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: sizes.append(len(mat)) or eigvalsh(mat))
        monkeypatch.setattr(np.linalg, "svd", lambda mat, **kw: sizes.append(sum(mat.shape)) or svd(mat, **kw))
        build = build_tower(g, P3, constant_labeling(g, P3, 1), 10)
        assert all(lv.spectrum and lv.laplacian for lv in build.levels)
        assert sizes == [size] * calls

    def test_relative_tolerance_past_the_old_cap(self):
        # C5/K4 (m = 3): level 7 has 3 645 vertices and rho = 2·3^6 = 1 458, so the pair checks
        # allow 1e-6·rho; a shift of half that passes and one of twice that fails.
        g = cycle(5)
        build = build_tower(g, K4, constant_labeling(g, K4, 0), 7)
        top = build.levels[-1]
        assert len(top.graph.vertices) == 3645 > TowerConfig().spectral_cap
        assert [(p.scaling, p.containment, p.gap) for p in tower_spectrum_check(build).pairs] == [("pass",) * 3] * 6
        tol = MATCH_TOL * top.spectrum.rho
        for at, verdicts in ((0, ("fail", "fail")), (1, ("fail", "pass"))):  # rho, then a value below lambda2
            for shift, verdict in ((tol / 2, ("pass", "pass")), (2 * tol, verdicts)):
                values = np.array(top.spectrum.eigenvalues)
                values[at] += shift
                shifted = replace(top, spectrum=SpectrumReport.from_values(values, "adjacency"))
                pair = tower_spectrum_check(replace(build, levels=build.levels[:-1] + (shifted,))).pairs[-1]
                assert (pair.scaling, pair.gap) == verdict


class TestEdgeLimit:
    """The next level's edge count is predicted from the labels and refused above `_MAX_EDGES`."""

    @pytest.mark.parametrize("g, h, label", [(C4, P3, 1), (cycle(5), K4, 0), (path(5), P3, 1)])
    def test_limit_refuses_exactly_the_levels_above_it(self, g, h, label, monkeypatch):
        a = constant_labeling(g, h, label)
        edges = [len(lv.graph._edge_ranks) for lv in build_tower(g, h, a, 4).levels]
        built = []
        monkeypatch.setattr(tower, "zigzag_product", lambda *args: built.append(args) or zigzag_product(*args))
        for k in (2, 3, 4):
            monkeypatch.setattr(tower, "_MAX_EDGES", edges[k - 1])
            assert len(build_tower(g, h, a, k).levels) == k  # a level of exactly the limit is built
            monkeypatch.setattr(tower, "_MAX_EDGES", edges[k - 1] - 1)
            built.clear()
            refusal = f"tower level {k} would have {edges[k - 1]} edges, over the limit of {edges[k - 1] - 1}"
            with pytest.raises(ValueError, match=refusal):
                build_tower(g, h, a, 4)
            assert len(built) == k - 2  # the refused level is never built

    def test_the_vertex_budget_still_truncates_first(self, monkeypatch):
        monkeypatch.setattr(tower, "_MAX_EDGES", 64)
        build = c4_tower(5, budget=20)  # level 4 has 32 vertices and 256 edges
        assert build.truncated and len(build.levels) == 3

    def test_level_12_of_c4_p3_is_at_the_limit(self):
        # C4/P3 level k has 4^k edges, counted exactly (above), so level 12 is built and 13 refused.
        assert [len(lv.graph._edge_ranks) for lv in c4_tower(4).levels] == [4**k for k in range(1, 5)]
        assert tower._MAX_EDGES == 4**12


class TestFolner:
    def test_whole_graph_has_no_boundary(self):
        a = constant_labeling(C4, P3, 1)
        report = folner_product_check(C4, P3, a, [list(C4.vertices)])
        step = report.steps[0]
        assert step.boundary_size == 0
        assert step.product_boundary_size == 0
        assert step.bound_ok

    def test_arcs_of_c12(self):
        g = cycle(12)
        a = constant_labeling(g, P3, 1)
        report = folner_product_check(g, P3, a, [range(3), range(6), range(9)])
        assert report.max_label_degree == 2
        ratios = [s.ratio for s in report.steps]
        assert ratios == [Fraction(2, 3), Fraction(2, 6), Fraction(2, 9)]
        for s in report.steps:
            assert s.product_boundary_size <= 4 * s.boundary_size
        product_ratios = [s.product_ratio for s in report.steps]
        assert product_ratios == sorted(product_ratios, reverse=True)

    def test_single_vertex_subset_is_vacuous(self):
        a = constant_labeling(C4, P3, 1)
        report = folner_product_check(C4, P3, a, [[0], [0, 1, 2, 3]])
        first = report.steps[0]
        assert first.product_size == 0
        assert first.product_ratio is None
        assert first.bound_ok

    def test_non_nested_chain_rejected(self):
        a = constant_labeling(C4, P3, 1)
        with pytest.raises(ValueError, match="nested"):
            folner_product_check(C4, P3, a, [[0, 1], [2, 3]])

    def test_empty_subset_rejected(self):
        a = constant_labeling(C4, P3, 1)
        with pytest.raises(ValueError, match="nonempty"):
            folner_product_check(C4, P3, a, [[]])

    def test_boundary_counts_live_in_the_full_product(self):
        g = cycle(6)
        a = constant_labeling(g, P3, 1)
        report = folner_product_check(g, P3, a, [range(3)])
        step = report.steps[0]
        # Two base boundary edges, each carrying 4 product edges.
        assert step.boundary_size == 2
        assert step.product_boundary_size == 8
        assert step.bound == 8


def folner_by_ids(g, h, a, chain):
    """The Folner check as it was written on vertex ids: every boundary by `graphs.boundary`, every
    restricted product as the set of its vertices, tested against the full product's."""
    z = zigzag_product(g, h, a)
    product_vertices, d_max, steps = set(z.product.vertices), h.max_degree(), []
    for f in chain:
        f = tuple(sorted(set(f), key=vertex_key))
        bd = boundary(f, g)
        sub = restrict_labeling(a, f)
        pv = set(zigzag_product(sub.base, h, sub).product.vertices)
        assert pv <= product_vertices
        pbd, bound = boundary(pv, z.product), d_max * d_max * len(bd)
        ratio = Fraction(len(pbd), len(pv)) if pv else None
        steps.append(FolnerStep(f, len(f), len(bd), Fraction(len(bd), len(f)), len(pv), len(pbd), ratio, bound,
                                len(pbd) <= bound))
    return FolnerReport(d_max, tuple(steps))


def assert_same_report(got, want):
    assert (got.max_label_degree, got.steps) == (want.max_label_degree, want.steps)


@st.composite
def nested_chains(draw, g):
    """Nonempty nested subsets of g's vertices: prefixes of one drawn order, of nondecreasing sizes."""
    order = draw(st.permutations(g.vertices))
    sizes = draw(st.lists(st.integers(1, len(order)), min_size=1, max_size=4))
    return [order[:k] for k in sorted(sizes)]


def _seeded_instances():
    # Per-vertex labels drawn from a seed.  Q5's labels are C6 vertices 0 and 1 only, so the label
    # vertices 3 and 4 (neighbours of neither) are in no product vertex.
    rng, circulant, q5 = random.Random(18), cayley_cyclic(64, [1, -1, 5, -5]), hypercube(5)
    k4, c6 = complete(4), cycle(6)
    a = vertex_labeling(circulant, k4, {u: rng.randrange(4) for u in circulant.vertices})
    b = vertex_labeling(q5, c6, {u: rng.randrange(2) for u in q5.vertices})
    return {"C(64; 1, 5) with K4 labels": (circulant, k4, a), "Q5 with C6 labels 0 and 1": (q5, c6, b)}


SEEDED = _seeded_instances()


class TestFolnerAgainstIds:
    """Every step of the check counted on rank masks equals the one the id-set algorithm gives."""

    @pytest.mark.parametrize("name", SEEDED)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_seeded_labelings(self, name, data):
        g, h, a = SEEDED[name]
        chain = data.draw(nested_chains(g))
        assert_same_report(folner_product_check(g, h, a, chain), folner_by_ids(g, h, a, chain))

    def test_seeded_labelings_leave_label_vertices_unused(self):
        g, h, a = SEEDED["Q5 with C6 labels 0 and 1"]
        z = zigzag_product(g, h, a)
        assert {i for _, i in z.product.vertices} == {0, 1, 2, 5}
        report = folner_product_check(g, h, a, [g.vertices[:8], g.vertices])
        assert [s.product_size for s in report.steps] == [16, 64]

    @given(data=st.data(), instance=labeled_instances_of_both_forms())
    def test_drawn_labelings(self, data, instance):
        g, h, a = instance
        if g.vertices:
            chain = data.draw(nested_chains(g))
            assert_same_report(folner_product_check(g, h, a, chain), folner_by_ids(g, h, a, chain))

    @settings(max_examples=20)
    @given(data=st.data())
    def test_nested_ids(self, data):
        level2 = c4_tower(2).levels[1]
        g, a = level2.graph, level2.labeling
        chain = data.draw(nested_chains(g))
        assert_same_report(folner_product_check(g, P3, a, chain), folner_by_ids(g, P3, a, chain))

    @pytest.mark.parametrize(
        "chain, message",
        [
            ([[0, 9]], "vertices not in graph: [9]"),
            ([[0], [0, "x", 7]], "vertices not in graph: [7, 'x']"),
            ([[True, 2]], "invalid vertex id: True"),
            ([[0, 1], [2, 3]], "chain is not nested: each subset must contain the previous one"),
            ([[0, 1], [True]], "chain is not nested: each subset must contain the previous one"),
            ([[]], "chain subsets must be nonempty"),
            ([[0], []], "chain subsets must be nonempty"),
        ],
    )
    def test_refusals(self, chain, message):
        with pytest.raises(ValueError) as exc:
            folner_product_check(C4, P3, constant_labeling(C4, P3, 1), chain)
        assert str(exc.value) == message
