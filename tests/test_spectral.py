import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import constant_valency_instances, small_graphs
from helpers import (
    C3,
    C4,
    C6,
    CONSTANT_VALENCY_POOL,
    K2,
    K4,
    P3,
    bijective_labeling,
    mod_map,
    random_constant_valency_instance,
    worked_fixtures,
)
from zigzag.generators import cayley_cyclic, cycle, hypercube, path
from zigzag.graphs import Graph, VertexMap, identity_map
from test_graphs import mixed_graphs
from zigzag.labeling import HLabeling, constant_labeling, image_valency, vertex_labeling
from zigzag import spectral
from zigzag.product import zigzag_product
from zigzag.spectral import (
    DENSE_BYTES,
    MATCH_TOL,
    RESIDUAL_TOL,
    EigenPair,
    SpectrumReport,
    ZeroCertificate,
    _residuals,
    adjacency_eigenpairs,
    adjacency_matrix,
    adjacency_spectrum,
    cover_radius_check,
    descend_eigenvector,
    laplacian_containment_check,
    lift_eigenvector,
    multisets_match,
    nonzero_eigenvalues,
    normalized_laplacian_matrix,
    normalized_laplacian_spectrum,
    normalized_radius,
    radius_comparison_check,
    spectrum_contained,
)


def c4p3():
    return zigzag_product(C4, P3, constant_labeling(C4, P3, 1))


class TestAdjacencySpectrum:
    def test_k2(self):
        r = adjacency_spectrum(K2)
        assert np.allclose(r.eigenvalues, [1, -1], atol=MATCH_TOL)
        assert r.rho == pytest.approx(1)
        assert r.lambda2 is None
        assert r.gap is None

    def test_c4(self):
        r = adjacency_spectrum(C4)
        assert np.allclose(r.eigenvalues, [2, 0, 0, -2], atol=MATCH_TOL)
        assert r.lambda2 == pytest.approx(0, abs=MATCH_TOL)
        assert r.gap == pytest.approx(2, abs=MATCH_TOL)

    def test_c4_p3_product(self):
        r = adjacency_spectrum(c4p3().product)
        assert np.allclose(r.eigenvalues, [4, 0, 0, 0, 0, 0, 0, -4], atol=MATCH_TOL)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            adjacency_spectrum(Graph())

    @given(small_graphs(min_vertices=1))
    @settings(max_examples=40)
    def test_trace_identities(self, g):
        vals = adjacency_spectrum(g).eigenvalues
        assert abs(sum(vals)) <= 1e-9 * max(1, len(vals))
        assert abs(sum(x * x for x in vals) - 2 * len(g.edges)) <= 1e-9 * max(1, 2 * len(g.edges))


class TestNormalizedLaplacian:
    def test_k2(self):
        r = normalized_laplacian_spectrum(K2)
        assert np.allclose(r.eigenvalues, [2, 0], atol=MATCH_TOL)

    def test_c4(self):
        r = normalized_laplacian_spectrum(C4)
        assert np.allclose(r.eigenvalues, [2, 1, 1, 0], atol=MATCH_TOL)

    def test_isolated_vertex_rejected(self):
        g = Graph((0, 1, 2), ((0, 1),))  # bipartite: refused before its block is built
        with pytest.raises(ValueError, match=r"^normalized Laplacian undefined with isolated vertices: \[2\]$"):
            normalized_laplacian_spectrum(g)

    @pytest.mark.parametrize("g", [C3, C4, C6, K4, cycle(5)])
    def test_regular_identity(self, g):
        d = g.is_regular()
        adj = adjacency_spectrum(g).eigenvalues
        lap = normalized_laplacian_spectrum(g).eigenvalues
        expected = sorted((1 - x / d for x in adj), reverse=True)
        assert np.allclose(lap, expected, atol=MATCH_TOL)

    @given(small_graphs(min_vertices=2).filter(lambda g: g.edges and all(g.degree(v) > 0 for v in g.vertices)))
    @settings(max_examples=40)
    def test_range_and_kernel(self, g):
        vals = normalized_laplacian_spectrum(g).eigenvalues
        assert all(-MATCH_TOL <= x <= 2 + MATCH_TOL for x in vals)
        assert min(vals) == pytest.approx(0, abs=MATCH_TOL)


class TestDenseLimit:
    """A dense n×n operator over DENSE_BYTES is refused with ValueError before anything is allocated."""

    def test_cycle_just_over_the_limit_is_refused_unallocated(self, monkeypatch):
        n = math.isqrt(DENSE_BYTES // 8) + 1
        assert 8 * (n - 1) ** 2 <= DENSE_BYTES < 8 * n * n
        g = cycle(n)
        for name in ("zeros", "eye", "empty", "ones", "full"):
            monkeypatch.setattr(np, name, lambda *args, **kw: pytest.fail(f"allocated {args}"))
        for dense in (adjacency_matrix, normalized_laplacian_matrix, adjacency_spectrum,
                      normalized_laplacian_spectrum, adjacency_eigenpairs):
            with pytest.raises(ValueError, match=f"dense {n}x{n} matrix takes {8 * n * n} bytes, over the limit"):
                dense(g)
        assert "_sides" not in vars(g)  # the cycle is bipartite, but the guard comes before its colouring

    def test_the_limit_itself_is_allowed(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_BYTES", 8 * 5 * 5)
        assert adjacency_spectrum(cycle(5)).rho == pytest.approx(2)
        g = cycle(6)  # bipartite: its 3x3 block would fit, but the bound is the n×n one
        with pytest.raises(ValueError, match="dense 6x6 matrix takes 288 bytes, over the limit of 200"):
            normalized_laplacian_spectrum(g)
        assert "_sides" not in vars(g)


class TestEigenPairs:
    def test_bogus_pair_rejected(self):
        with pytest.raises(ValueError, match="residual"):
            EigenPair(C4, 1.5, np.ones(4))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            EigenPair(C4, 2.0, np.zeros(4))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "value, vector, message",
        [
            (2.0, np.full(4, np.nan), "^eigenvector is numerically zero$"),
            (2.0, np.array([1.0, 1.0, 1.0, np.nan]), "^eigenvector is numerically zero$"),
            (float("nan"), np.ones(4), "^residual nan exceeds tolerance; not an eigenpair$"),
            (float("inf"), np.ones(4), "^residual inf exceeds tolerance; not an eigenpair$"),
            (2.0, np.full(4, np.inf), "^residual nan exceeds tolerance; not an eigenpair$"),
            (2.0, np.array([1.0, 1.0, 1.0, np.inf]), "^residual nan exceeds tolerance; not an eigenpair$"),
        ],
    )
    def test_non_finite_pair_rejected(self, value, vector, message):
        # Every comparison with NaN is false, so each test must be one a NaN fails.
        with pytest.raises(ValueError, match=message):
            EigenPair(cycle(4), value, vector)

    def test_full_decomposition_verified(self):
        pairs = adjacency_eigenpairs(C6)
        assert len(pairs) == 6
        values = [p.value for p in pairs]
        assert values == sorted(values, reverse=True)
        for p in pairs:
            assert np.linalg.norm(p.vector) == pytest.approx(1)

    def test_sign_convention(self):
        for p in adjacency_eigenpairs(K4):
            lead = next(x for x in p.vector if abs(x) > 1e-12)
            assert lead > 0

    @pytest.mark.parametrize("lead", [(0.0, 0.0), (1e-12, -1e-12), (-1e-12, 5e-13), (-3e-13, 0.0)])
    def test_entries_of_modulus_at_most_1e12_leave_the_sign_to_the_next(self, lead):
        # Vertices 0 and 1 are isolated, so every eigenvector of the edge 2-3 is 0 there; entries of
        # modulus at most 1e-12 put there must not decide the sign, on either path.
        g = Graph(tuple(range(4)), ((2, 3),))
        for p in adjacency_eigenpairs(g):
            if p.value:
                assert p.vector[:2].tolist() == [0.0, 0.0] and p.vector[2] > 0
                for sign in (1.0, -1.0):
                    vec = sign * p.vector
                    vec[:2] = lead
                    got = EigenPair(g, p.value, vec).vector
                    assert np.array_equal(np.sign(got[2:]), np.sign(p.vector[2:]))
                    assert np.array_equal(np.sign(got[:2]), sign * np.sign(lead))

    def test_component_reads_the_rank_and_names_a_missing_vertex(self):
        p = adjacency_eigenpairs(c4p3().product)[0]
        assert [p.component(v) for v in p.graph.vertices] == p.vector.tolist()
        for missing, name in ((7, "7"), ((0, 3), "(0,3)"), ("0", "0")):
            with pytest.raises(ValueError, match=rf"^vertex {re.escape(name)} not in graph$"):
                p.component(missing)


def leading_entry(vec):
    return next(x for x in vec if abs(x) > 1e-12)


@st.composite
def odd_cycle_graphs(draw):
    """Small graphs with an odd cycle on drawn vertices, and any other edges: never bipartite."""
    g = draw(small_graphs(min_vertices=3))
    k = draw(st.sampled_from([k for k in (3, 5, 7) if k <= len(g.vertices)]))
    ring = draw(st.permutations(g.vertices))[:k]
    return Graph(g.vertices, g.edges + tuple(zip(ring, ring[1:] + ring[:1])))


@st.composite
def bipartite_graphs(draw, max_side=6):
    """Graphs on p + q vertices whose sides interleave in rank order, with any edges across:
    unbalanced sides, isolated vertices, several components, no edges, and K_{p,q}."""
    p = draw(st.integers(0, max_side))
    q = draw(st.integers(0 if p else 1, max_side))  # at least one vertex
    order = draw(st.permutations(range(p + q)))
    pairs = [(x, y) for x in order[:p] for y in order[p:]]
    edges = pairs if draw(st.booleans()) else draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(tuple(range(p + q)), tuple(edges))


def complete_bipartite(p, q):
    return Graph(tuple(range(p + q)), tuple((x, y) for x in range(p) for y in range(p, p + q)))


class TestBatchedEigenpairs:
    """adjacency_eigenpairs verifies the whole decomposition in one pass and
    gives the pairs the per-pair constructor gives, column by column: on a graph
    with an odd cycle those of `eigh`, on a bipartite one those of the block's `svd`."""

    @given(odd_cycle_graphs())
    @example(C3)
    @example(Graph((0, 1, 2, 3), ((0, 1), (1, 2), (0, 2))))
    @example(Graph((0, 1, 2, 3, 4, 5, 6), ((0, 1), (1, 2), (0, 2), (4, 5))))
    @example(Graph((0, 1, 2, 3, 4), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))))
    def test_batched_pairs_equal_per_pair_pairs(self, g):
        assert g._sides is None
        mat = adjacency_matrix(g)
        values, vectors = np.linalg.eigh(mat)
        single = [EigenPair(g, float(values[k]), vectors[:, k]) for k in reversed(range(len(values)))]
        batch = adjacency_eigenpairs(g)
        assert [p.value for p in batch] == [p.value for p in single]
        for p, q in zip(batch, single):
            assert np.abs(p.vector - q.vector).max() <= 1e-15
            assert leading_entry(p.vector) > 0 and leading_entry(q.vector) > 0
            assert not p.vector.flags.writeable
        rows = np.array([p.vector for p in batch])
        for r, p in zip(_residuals(mat, values[::-1], rows), batch):
            assert abs(r - oracle.dense_residual(g, p.value, p.vector)) <= 1e-12

    @given(bipartite_graphs())
    @example(Graph((0,), ()))
    @example(Graph((0, 1, 2, 3), ()))
    @example(Graph((0, 1, 2, 3, 4), ((0, 1), (2, 3))))
    @example(Graph((0, 1, 2, 3), ((0, 1), (1, 2))))
    @example(complete_bipartite(2, 5))
    def test_block_pairs_equal_per_pair_pairs(self, g):
        assert g._sides is not None
        batch = adjacency_eigenpairs(g)
        single = [EigenPair(g, p.value, p.vector) for p in batch]
        for p, q in zip(batch, single):
            assert np.abs(p.vector - q.vector).max() <= 1e-15
            assert leading_entry(p.vector) > 0
            assert not p.vector.flags.writeable
        values = [p.value for p in batch]
        assert values == sorted(values, reverse=True)
        block, place, _ = spectral._matrix(g)
        rows = np.array([p.vector for p in batch])[:, np.argsort(place)]  # in side order, as the block's
        for r, p in zip(_residuals(block, np.array(values), rows, block=True), batch):
            assert abs(r - oracle.dense_residual(g, p.value, p.vector)) <= 1e-12

    @given(st.one_of(odd_cycle_graphs(), bipartite_graphs()), st.data())
    def test_scaled_vectors_normalize_then_sign_fix_to_the_batch_pairs(self, g, data):
        # Any c != 0, a sign flip or a scale far from 1, gives back the batch pair: the norm is taken first.
        scale = st.floats(1e-8, 1e12) | st.sampled_from([1e-8, 1e12])
        for p in adjacency_eigenpairs(g):
            c = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(scale)
            q = EigenPair(g, p.value, c * p.vector)
            assert np.array_equal(np.sign(q.vector), np.sign(p.vector))
            assert np.abs(q.vector - p.vector).max() <= 1e-15

    def test_vectors_are_rows_of_one_matrix(self, g=hypercube(3)):
        batch = adjacency_eigenpairs(g)
        whole, n = batch[0].vector.base, len(g.vertices)
        assert whole.flags.c_contiguous and not whole.flags.writeable and whole.shape == (n, n)
        assert all(p.vector.base is whole and np.shares_memory(p.vector, whole[k]) for k, p in enumerate(batch))

    def test_dense_route_vectors_are_rows_of_one_matrix(self):
        self.test_vectors_are_rows_of_one_matrix(cycle(9))

    CORRUPTIONS = pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda x: x + np.random.default_rng(0).normal(scale=1e-6, size=x.size),
                "^residual .* exceeds tolerance; not an eigenpair$",
            ),
            (lambda x: 0.0 * x, "^eigenvector is numerically zero$"),
        ],
        ids=["noise", "zero"],
    )

    @CORRUPTIONS
    def test_corrupted_column_refused(self, monkeypatch, corrupt, message):
        eigh = np.linalg.eigh

        def corrupted(mat):
            values, vectors = eigh(mat)
            vectors[:, 3] = corrupt(vectors[:, 3])
            return values, vectors

        monkeypatch.setattr("zigzag.spectral.np.linalg.eigh", corrupted)
        with pytest.raises(ValueError, match=message):
            adjacency_eigenpairs(cycle(9))

    @CORRUPTIONS
    def test_corrupted_singular_vectors_refused(self, monkeypatch, corrupt, message):
        svd = np.linalg.svd

        def corrupted(block, *args, **kw):
            left, s, right = svd(block, *args, **kw)
            left[:, 1], right[1] = corrupt(left[:, 1]), corrupt(right[1])  # both halves of the pairs of ±σ_1
            return left, s, right

        monkeypatch.setattr("zigzag.spectral.np.linalg.svd", corrupted)
        with pytest.raises(ValueError, match=message):
            adjacency_eigenpairs(hypercube(3))

    @pytest.mark.parametrize("change", ["edge dropped", "non-edge added"])
    def test_matrix_other_than_the_adjacency_refused(self, monkeypatch, change):
        matrix = spectral._matrix

        def altered(g, *args):
            mat, place, at = matrix(g, *args)
            u, v = (0, 1) if change == "edge dropped" else (0, 4)  # 0-1 is an edge of C9, 0-4 is not
            mat[u, v] = mat[v, u] = 1.0 - mat[u, v]
            return mat, place, at

        monkeypatch.setattr("zigzag.spectral._matrix", altered)
        with pytest.raises(RuntimeError, match="^dense matrix is not the adjacency of the graph's edges$"):
            adjacency_eigenpairs(cycle(9))

    @pytest.mark.parametrize("change", ["edge dropped", "non-edge added", "edge weighted 2"])
    def test_block_other_than_the_biadjacency_refused(self, monkeypatch, change):
        matrix = spectral._matrix

        def altered(g, *args):
            block, place, at = matrix(g, *args)
            # Q3's sides are the even and the odd vertices, 000 and 001 adjacent, 000 and 111 not.
            x, y = place[0], place[1 if change != "non-edge added" else 7] - block.shape[0]
            block[x, y] = {"edge dropped": 0.0, "non-edge added": 1.0, "edge weighted 2": 2.0}[change]
            return block, place, at

        monkeypatch.setattr("zigzag.spectral._matrix", altered)
        with pytest.raises(RuntimeError, match="^dense matrix is not the adjacency of the graph's edges$"):
            adjacency_eigenpairs(hypercube(3))


def dense_laplacian_values(g):
    deg = oracle.adjacency_matrix(g).sum(axis=1)
    return np.linalg.eigvalsh(np.eye(len(deg)) - oracle.adjacency_matrix(g) / np.sqrt(np.outer(deg, deg)))[::-1]


class TestBipartiteBlock:
    """A bipartite graph is eigensolved on its biadjacency block; `eigvalsh` and `eigh` of the full
    matrix are the oracle."""

    @given(bipartite_graphs())
    @example(Graph((0,), ()))
    @example(Graph((0, 1, 2, 3), ()))
    @example(complete_bipartite(1, 6))
    @example(complete_bipartite(3, 3))
    @example(complete_bipartite(2, 5))
    def test_spectra_match_the_full_eigensolve(self, g):
        got, want = adjacency_spectrum(g).eigenvalues, np.linalg.eigvalsh(oracle.adjacency_matrix(g))[::-1]
        assert np.abs(np.array(got) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        if g._degrees.all():
            got, want = normalized_laplacian_spectrum(g).eigenvalues, dense_laplacian_values(g)
            assert np.abs(np.array(got) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @given(bipartite_graphs())
    @example(Graph((0,), ()))
    @example(Graph((0, 1, 2, 3), ()))
    @example(Graph((0, 1, 2, 3, 4), ((0, 1), (2, 3))))
    @example(complete_bipartite(2, 5))
    @example(complete_bipartite(5, 2))
    def test_eigenvectors_are_orthonormal_with_small_residuals(self, g):
        pairs = adjacency_eigenpairs(g)
        rows = np.array([p.vector for p in pairs])
        assert np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-12
        assert max(oracle.dense_residual(g, p.value, p.vector) for p in pairs) <= RESIDUAL_TOL
        want = np.linalg.eigvalsh(oracle.adjacency_matrix(g))[::-1]
        assert np.abs(np.array([p.value for p in pairs]) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_sides_interleaved_in_rank_order(self):
        # P5 with extra isolated vertices 5 and 6: sides {0, 2, 4, 5, 6} and {1, 3}, a 5x2 block.
        g = Graph(tuple(range(7)), ((0, 1), (1, 2), (2, 3), (3, 4)))
        block, place, _ = spectral._matrix(g)
        assert block.shape == (5, 2) and place.tolist() == [0, 5, 1, 6, 2, 3, 4]
        assert adjacency_spectrum(g).eigenvalues == pytest.approx([math.sqrt(3), 1, 0, 0, 0, -1, -math.sqrt(3)])

    @pytest.mark.parametrize("g", [hypercube(3), complete_bipartite(2, 3), cycle(6), Graph((0, 1, 2), ()), K2])
    def test_bipartite_graphs_call_only_svd(self, g, monkeypatch):
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        adjacency_spectrum(g), adjacency_eigenpairs(g)
        if g._degrees.all():
            normalized_laplacian_spectrum(g)

    @pytest.mark.parametrize("g", [C3, cycle(5), K4, Graph((0, 1, 2, 3, 4), ((0, 1), (1, 2), (0, 2), (3, 4)))])
    def test_odd_cycles_never_call_svd(self, g, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: pytest.fail("svd called"))
        adjacency_spectrum(g), adjacency_eigenpairs(g)
        if g._degrees.all():
            normalized_laplacian_spectrum(g)

    def test_a_broken_regular_identity_is_refused_on_the_block(self):
        g = cycle(6)
        g.__dict__["_degrees"] = np.full(6, 3)  # not the edges' own degrees: the weights 1/3 are not 1/d = 1/2
        with pytest.raises(RuntimeError, match="^regular-graph Laplacian identity I - A/d violated$"):
            normalized_laplacian_spectrum(g)


class TestLiftEigenvector:
    def test_k2_k2_value_preserved(self):
        z = zigzag_product(K2, K2, constant_labeling(K2, K2, 0))
        top = adjacency_eigenpairs(K2)[0]
        lifted = lift_eigenvector(top, z)
        assert lifted.value == pytest.approx(1)

    def test_c4_p3_doubles_values(self):
        z = c4p3()
        for ep in adjacency_eigenpairs(C4):
            lifted = lift_eigenvector(ep, z)
            assert lifted.value == pytest.approx(2 * ep.value, abs=RESIDUAL_TOL)

    def test_fiber_structure_of_lifted_vector(self):
        z = c4p3()
        ep = adjacency_eigenpairs(C4)[0]
        lifted = lift_eigenvector(ep, z)
        idx = {v: k for k, v in enumerate(z.product.vertices)}
        for (u, i) in z.product.vertices:
            for (w, j) in z.product.vertices:
                if u == w:
                    assert lifted.vector[idx[(u, i)]] == pytest.approx(lifted.vector[idx[(w, j)]])

    def test_wrong_graph_rejected(self):
        z = c4p3()
        ep = adjacency_eigenpairs(C6)[0]
        with pytest.raises(ValueError):
            lift_eigenvector(ep, z)

    def test_non_locally_constant_rejected(self):
        a = bijective_labeling(C3, K2)
        z = zigzag_product(C3, K2, a)
        ep = adjacency_eigenpairs(C3)[0]
        with pytest.raises(ValueError, match="locally constant"):
            lift_eigenvector(ep, z)


class TestDescendEigenvector:
    def test_round_trip_on_c4(self):
        z = c4p3()
        for ep in adjacency_eigenpairs(C4):
            if abs(ep.value) <= MATCH_TOL:
                continue
            back = descend_eigenvector(lift_eigenvector(ep, z), z)
            assert back.value == pytest.approx(ep.value, abs=RESIDUAL_TOL)
            assert np.allclose(back.vector, ep.vector, atol=RESIDUAL_TOL)

    def test_zero_certificate(self):
        z = c4p3()
        zero = next(p for p in adjacency_eigenpairs(z.product) if abs(p.value) < MATCH_TOL)
        out = descend_eigenvector(zero, z)
        assert isinstance(out, ZeroCertificate)

    def test_k2_k2_negative_value(self):
        z = zigzag_product(K2, K2, constant_labeling(K2, K2, 0))
        bottom = adjacency_eigenpairs(z.product)[-1]
        out = descend_eigenvector(bottom, z)
        assert out.value == pytest.approx(-1)

    def test_every_nonzero_product_eigenvalue_descends(self):
        z = zigzag_product(C6, P3, constant_labeling(C6, P3, 1))
        for ep in adjacency_eigenpairs(z.product):
            out = descend_eigenvector(ep, z)
            if isinstance(out, ZeroCertificate):
                continue
            assert out.value == pytest.approx(ep.value / 2, abs=RESIDUAL_TOL)


@st.composite
def mixed_constant_valency_instances(draw):
    """Locally constant labelings of constant valency on mixed-id bases."""
    g = draw(mixed_graphs(max_vertices=6).filter(lambda g: g.edges))
    h, cls = draw(st.sampled_from(CONSTANT_VALENCY_POOL))
    return g, h, vertex_labeling(g, h, {u: draw(st.sampled_from(cls)) for u in g.vertices})


def outcome(f, *args):
    """What f(*args) returns, an eigenpair as its value and vector, or what it raises."""
    try:
        out = f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return (out.value, tuple(out.vector)) if isinstance(out, EigenPair) else out


class TestTransportMatchesTheLoops:
    """Lift and descent through the product's base-rank array agree with the
    per-vertex loops, on eigenpairs and on vectors that are no eigenvectors."""

    @given(st.one_of(constant_valency_instances(), mixed_constant_valency_instances()))
    def test_lift(self, inst):
        g, h, a = inst
        z, n = zigzag_product(g, h, a), image_valency(a)
        for ep in adjacency_eigenpairs(g):
            fhat = oracle.lifted_vector(ep.vector, z)
            if abs(np.linalg.norm(fhat) - np.sqrt(n)) > RESIDUAL_TOL:
                with pytest.raises(ValueError, match="lifted norm"):
                    lift_eigenvector(ep, z)
            else:
                assert outcome(lift_eigenvector, ep, z) == outcome(EigenPair, z.product, n * ep.value, fhat)

    @given(st.one_of(constant_valency_instances(), mixed_constant_valency_instances()), st.data())
    def test_descent(self, inst, data):
        g, h, a = inst
        z = zigzag_product(g, h, a)
        size, values = len(z.product.vertices), st.sampled_from([0.0, 0.5, -1.0, 2.0])
        per_base = np.array(data.draw(st.lists(values, min_size=len(g.vertices), max_size=len(g.vertices))))
        per_product = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
        vec = per_base[z._base_ranks] if data.draw(st.booleans()) else per_product  # fiber-constant or not
        at = data.draw(st.integers(0, size - 1))
        vec[at] += data.draw(st.sampled_from([0.0, RESIDUAL_TOL / 2, 1e-3]))
        value = data.draw(st.sampled_from([1.0, -2.0, RESIDUAL_TOL / 2]))
        stand_in = SimpleNamespace(graph=z.product, value=value, vector=vec)  # not checked as an eigenpair
        assert outcome(descend_eigenvector, stand_in, z) == outcome(oracle.descend_eigenvector, stand_in, z)
        for ep in adjacency_eigenpairs(z.product):
            assert outcome(descend_eigenvector, ep, z) == outcome(oracle.descend_eigenvector, ep, z)

    def test_witness_names_the_first_fiber_that_is_not_constant(self):
        z = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        vec = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 3.0, 1.0])  # fibers over 1 and 3 split
        stand_in = SimpleNamespace(graph=z.product, value=2.0, vector=vec)
        with pytest.raises(RuntimeError, match="^eigenvector with eigenvalue 2 is not fiber-constant above 1$"):
            descend_eigenvector(stand_in, z)


def report(values) -> SpectrumReport:
    return SpectrumReport("adjacency", tuple(values), 0.0, None, None)


EIGHTHS = st.integers(-24, 24).map(lambda k: k / 8)


@given(
    st.lists(st.one_of(EIGHTHS, st.floats(-3, 3)), max_size=8),
    st.lists(st.one_of(EIGHTHS, st.floats(-3, 3)), min_size=1, max_size=8),
    st.sampled_from([MATCH_TOL, 0.125, 0.25, 0.5]),
    st.data(),
)
@example([0.25, -0.25], [0.0], 0.25, None)
@example([0.375], [0.0, 0.75], 0.25, None)
def test_containment_matches_the_pairwise_minimum(xs, ys, tol, data):
    """Values exactly tol from their nearest neighbour count as contained, by both."""
    if data is not None:  # eighths, so that y ± tol is exact
        ys = ys + data.draw(st.lists(EIGHTHS, max_size=3))
        xs = xs + [y + data.draw(st.sampled_from([-tol, 0.0, tol])) for y in data.draw(st.lists(st.sampled_from(ys), max_size=4))]
    small, big = report(xs), report(data.draw(st.permutations(ys)) if data is not None else ys)
    assert spectrum_contained(small, big, tol) == oracle.spectrum_contained(small, big, tol)


class TestNormalizedRadius:
    def test_values(self):
        assert normalized_radius(K2, 1) == pytest.approx(1)
        assert normalized_radius(C4, 2) == pytest.approx(1)
        assert normalized_radius(c4p3().product, 4) == pytest.approx(1)

    def test_regularity_checked(self):
        with pytest.raises(ValueError, match="regular"):
            normalized_radius(path(3), 2)

    @pytest.mark.parametrize(
        "g", [C3, cycle(10), hypercube(1), hypercube(4), cayley_cyclic(12, (1, 5, 7, 11)), cayley_cyclic(12, (3, 9))]
    )
    def test_exact_radius_matches_the_dense_one_with_no_matrix_built(self, g, monkeypatch):
        # A·1 = d·1 and every row of A sums to d, so rho(A) = d on any d-regular graph, connected or not.
        d = g.is_regular()
        dense = np.abs(np.linalg.eigvalsh(oracle.adjacency_matrix(g))).max() / d
        monkeypatch.setattr(spectral, "_matrix", lambda *args, **kw: pytest.fail("a matrix was built"))
        assert normalized_radius(g, d) == 1.0
        assert abs(normalized_radius(g, d) - dense) <= MATCH_TOL


class TestRadiusComparison:
    def test_c3_with_k2(self):
        assert radius_comparison_check(C3, K2, bijective_labeling(C3, K2))

    def test_k4_with_c3(self):
        assert radius_comparison_check(K4, C3, bijective_labeling(K4, C3))

    def test_non_bijective_labeling_named(self):
        a = constant_labeling(C3, K2, 0)
        with pytest.raises(ValueError, match="bijection"):
            radius_comparison_check(C3, K2, a)

    def test_bijection_read_from_the_rank_array(self):
        q3 = hypercube(3)
        a = bijective_labeling(q3, C3)
        assert radius_comparison_check(q3, C3, a)
        assert "mapping" not in vars(a)

    def test_degree_reads_build_no_adjacency(self, monkeypatch):
        products = []

        def product(*args):
            products.append(zigzag_product(*args))
            return products[-1]

        monkeypatch.setattr("zigzag.spectral.zigzag_product", product)
        a, q3 = bijective_labeling(hypercube(3), C3), hypercube(3)  # the helper reads its graph's adjacency
        assert radius_comparison_check(q3, C3, a)
        assert len(products) == 1
        assert "adjacency" not in vars(products[0].product) and "adjacency" not in vars(q3)

    def test_first_vertex_with_repeated_labels_named(self):
        q3 = hypercube(3)
        labels = dict(bijective_labeling(q3, C3).mapping)
        d = next(d for d in labels if d.vertex == "011")
        labels[d] = next(x for x in C3.vertices if x != labels[d])
        with pytest.raises(ValueError, match="^dart labels at 011 are not a bijection onto the label vertices$"):
            radius_comparison_check(q3, C3, HLabeling(q3, C3, labels))

    def test_labeling_into_another_label_graph(self):
        # Labels with other ids are no bijection onto the label vertices; labels with the same
        # ids in a graph with other edges pass that test and are refused by the product.  A
        # labeling of another base is refused first.
        other_ids = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
        with pytest.raises(ValueError, match="^dart labels at 0 are not a bijection onto the label vertices$"):
            radius_comparison_check(K4, C3, bijective_labeling(K4, other_ids))
        with pytest.raises(ValueError, match="^labeling does not map into the given label graph$"):
            radius_comparison_check(K4, C3, bijective_labeling(K4, P3))
        with pytest.raises(ValueError, match="^labeling does not belong to the given base graph$"):
            radius_comparison_check(K4, C3, bijective_labeling(C4, K2))

    def test_bijection_refused_before_the_product_is_built(self, monkeypatch):
        monkeypatch.setattr("zigzag.spectral.zigzag_product", None)  # calling it would raise TypeError
        with pytest.raises(ValueError, match="bijection"):
            radius_comparison_check(C3, K2, constant_labeling(C3, K2, 0))

    def test_vertex_count_hypothesis_named(self):
        # C4 is 2-regular but the label triangle has 3 vertices, not 2.
        a = constant_labeling(C4, C3, 1)
        with pytest.raises(ValueError, match="vertices"):
            radius_comparison_check(C4, C3, a)


class TestCoverRadius:
    def test_identity_cover(self):
        assert cover_radius_check(identity_map(C4), c4p3())

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 3)])
    def test_cyclic_covers(self, n, k):
        base = cycle(n)
        z = zigzag_product(base, P3, constant_labeling(base, P3, 1))
        assert cover_radius_check(mod_map(cycle(k * n), base, n), z)

    def test_radii_agree_for_connected_regular_covers(self):
        z = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        lifted = zigzag_product(cycle(8), P3, constant_labeling(cycle(8), P3, 1))
        assert adjacency_spectrum(z.product).rho == pytest.approx(
            adjacency_spectrum(lifted.product).rho
        )


class TestLaplacianContainment:
    def test_identity(self):
        assert laplacian_containment_check(identity_map(C4), c4p3())

    def test_c6_over_c3(self):
        z = zigzag_product(C3, P3, constant_labeling(C3, P3, 1))
        assert laplacian_containment_check(mod_map(C6, C3, 3), z)

    def test_expected_values_for_c3_c6(self):
        z3 = zigzag_product(C3, P3, constant_labeling(C3, P3, 1))
        z6 = zigzag_product(C6, P3, constant_labeling(C6, P3, 1))
        small = normalized_laplacian_spectrum(z3.product)
        big = normalized_laplacian_spectrum(z6.product)
        assert np.allclose(small.eigenvalues, [1.5, 1.5, 1, 1, 1, 0], atol=MATCH_TOL)
        assert spectrum_contained(small, big)

    def test_non_cover_rejected(self):
        z = zigzag_product(C3, P3, constant_labeling(C3, P3, 1))
        g = Graph((), ((0, 1), (1, 2), (0, 2), (3, 4)))
        m = VertexMap(g, C3, {0: 0, 1: 1, 2: 2, 3: 0, 4: 1})
        with pytest.raises(ValueError):
            laplacian_containment_check(m, z)


class TestSpectrumScaling:
    def test_nonzero_cut_scales_with_rho(self):
        # The cut is MATCH_TOL·max(1, rho): 1e-4 is noise beside rho = 4 096 (C4/P3 level 12), not beside 1.
        big = SpectrumReport.from_values(np.array([4096, 1e-4, 0, -4096]), "adjacency")
        small = SpectrumReport.from_values(np.array([1, 1e-4, -1]), "adjacency")
        assert nonzero_eigenvalues(big) == (4096.0, -4096.0)
        assert nonzero_eigenvalues(small) == (1.0, 1e-4, -1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonzero_spectrum_scales_by_valency(self, seed):
        rng = random.Random(1000 + seed)
        g, h, a = random_constant_valency_instance(rng)
        z = zigzag_product(g, h, a)
        if len(z.product.vertices) > 40 or not z.product.vertices:
            return
        n = image_valency(a)
        base = nonzero_eigenvalues(adjacency_spectrum(g))
        prod = nonzero_eigenvalues(adjacency_spectrum(z.product))
        assert multisets_match([n * x for x in base], prod)

    def test_gap_scales_when_defined(self):
        z = zigzag_product(C6, P3, constant_labeling(C6, P3, 1))
        base = adjacency_spectrum(C6)
        prod = adjacency_spectrum(z.product)
        assert prod.gap == pytest.approx(2 * base.gap, abs=MATCH_TOL)

    def test_product_can_gain_a_gap(self):
        # K2 alone has no second modulus; the product acquires zeros.
        z = zigzag_product(K2, P3, constant_labeling(K2, P3, 1))
        assert adjacency_spectrum(K2).lambda2 is None
        assert adjacency_spectrum(z.product).lambda2 == pytest.approx(0, abs=MATCH_TOL)

    @given(constant_valency_instances(max_g=5))
    @settings(max_examples=25)
    def test_scaling_property(self, inst):
        g, h, a = inst
        z = zigzag_product(g, h, a)
        if len(z.product.vertices) > 40 or not z.product.vertices:
            return
        n = image_valency(a)
        base = nonzero_eigenvalues(adjacency_spectrum(g))
        prod = nonzero_eigenvalues(adjacency_spectrum(z.product))
        assert multisets_match([n * x for x in base], prod)


def test_spectra_of_worked_fixture_products_are_real_symmetric():
    for name, g, h, a in worked_fixtures():
        z = zigzag_product(g, h, a)
        if not z.product.vertices:
            continue
        mat = adjacency_matrix(z.product)
        assert np.array_equal(mat, mat.T)
        report = adjacency_spectrum(z.product)
        assert len(report.eigenvalues) == len(z.product.vertices)
        assert report.rho == pytest.approx(max(abs(x) for x in report.eigenvalues))
