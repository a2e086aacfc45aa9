"""Vertex ids on demand: a product, a projection's image or an induced subgraph keeps
its vertex count and how to decode its ids, and decodes them (and the id -> rank
dict) only when first read.  No check or writer on the construction path reads
them; once decoded they, the ranks and the edges equal those of the graph built
from ids; and an undecoded graph pickles, copies, compares and hashes as its
decoded twin.  Generators build their rank arrays directly, and a vertex's
neighbours are read from the neighbour index, never from the adjacency dict."""

import copy
import gc
import pickle
import weakref
from contextlib import contextmanager

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from conftest import constant_valency_instances, labeled_instances_of_both_forms, small_graphs
from test_graphs import VERTEX_IDS, mixed_graphs
from test_io import mixed_labeled_instances
from zigzag import generators, io
from zigzag.generators import cayley_cyclic, complete, cycle, hypercube, path
from zigzag.graphs import Graph, format_vertex, make_edge
from zigzag.labeling import constant_labeling
from zigzag.product import (
    pi_combinatorial_cover_check,
    product_edge_count_check,
    product_valency_check,
    projection,
    zigzag_product,
)
from zigzag.tower import build_tower, folner_product_check

ID_VIEWS = ("vertices", "_rank")


def undecoded(g: Graph) -> bool:
    return not set(ID_VIEWS) & vars(g).keys()


def eager_twin(g: Graph) -> Graph:
    """The graph of the same ids and edges, through the validating constructor."""
    return Graph(g.vertices, g.edges)


@contextmanager
def decoding():
    """The graphs whose ids are decoded within the block, in order."""
    seen, decode = [], Graph._vertex_ids
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Graph, "_vertex_ids", lambda g: seen.append(g) or decode(g))
        yield seen


class TestGeneratorsFromRanks:
    """Each generator's rank-built graph equals the one `Graph(ids, edges)` validates and ranks."""

    @staticmethod
    def by_ids(ids, edges):
        return Graph(tuple(ids), tuple(edges))

    @given(st.integers(3, 64))
    def test_cycle(self, n):
        assert cycle(n) == self.by_ids(range(n), ((i, (i + 1) % n) for i in range(n)))

    @given(st.integers(1, 64))
    def test_path_and_complete(self, n):
        assert path(n) == self.by_ids(range(n), ((i, i + 1) for i in range(n - 1)))
        assert complete(n) == self.by_ids(range(n), ((i, j) for i in range(n) for j in range(i + 1, n)))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube(self, d):
        ids = [format(i, f"0{d}b") for i in range(2**d)]
        edges = ((ids[i], ids[i | 1 << b]) for i in range(2**d) for b in range(d) if not i >> b & 1)
        assert hypercube(d) == self.by_ids(ids, edges)

    @given(st.integers(1, 64), st.data())
    def test_cayley_cyclic(self, n, data):
        half = data.draw(st.sets(st.integers(1, n // 2))) if n > 1 else set()
        gens = half | {n - s for s in half}
        assert cayley_cyclic(n, gens) == self.by_ids(range(n), ((i, (i + s) % n) for i in range(n) for s in gens))

    @pytest.mark.parametrize("g", [cycle(7), path(1), complete(5), hypercube(3), cayley_cyclic(12, [1, 11, 6])])
    def test_edges_and_ranks_decode_as_validated(self, g):
        twin = eager_twin(g)
        assert g.edges == twin.edges and g._rank == twin._rank and hash(g) == hash(twin)

    def test_size_guard_refuses_before_building(self, monkeypatch):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} reached for a refused size")

        monkeypatch.setattr(generators, "np", NoArrays())
        for build, arg in ((cycle, 2**21 + 1), (path, 2**21 + 1), (complete, 2897), (hypercube, 19)):
            with pytest.raises(ValueError, match="vertices plus edges"):
                build(arg)
        with pytest.raises(ValueError, match="vertices plus edges"):
            cayley_cyclic(2**21, [1, -1, 2, -2])


class TestNeighboursFromTheIndex:
    @given(st.one_of(small_graphs(), mixed_graphs()), st.lists(VERTEX_IDS, max_size=2))
    def test_neighbours_and_incident_edges_match_the_edge_set(self, g, probes):
        for v in g.vertices:
            want = tuple(sorted((w for w in g.vertices if oracle.adjacent(g, v, w)), key=g._rank.__getitem__))
            assert g.neighbors(v) == want
            assert g.incident_edges(v) == tuple(make_edge(v, w) for w in want)
        for v in probes:
            if not g.has_vertex(v):
                for ask in (g.neighbors, g.incident_edges):
                    with pytest.raises(ValueError) as exc:
                        ask(v)
                    assert str(exc.value) == f"vertex {format_vertex(v)} not in graph"
        assert "adjacency" not in vars(g)


class TestProductsDecodeIdsOnDemand:
    @given(constant_valency_instances())
    def test_checks_and_writer_read_no_ids(self, instance):
        g, h, a = instance
        z = zigzag_product(g, h, a)
        pi = projection(z)
        assert product_edge_count_check(z) and product_valency_check(z)
        pi_combinatorial_cover_check(z)
        text = io.dumps_product(z)
        assert undecoded(z.product)
        assert pi.codomain is g or undecoded(pi.codomain)
        with decoding() as decodes:
            assert io.dumps_product(io.loads_product(text)) == text
        assert decodes == []

    @given(constant_valency_instances(), st.data())
    def test_folner_decodes_no_product_or_subgraph(self, instance, data):
        g, h, a = instance
        order = data.draw(st.permutations(g.vertices))
        sizes = sorted(data.draw(st.lists(st.integers(1, len(order)), min_size=1, max_size=3)))
        with decoding() as decodes:
            report = folner_product_check(g, h, a, [order[:k] for k in sizes])
        assert decodes == []
        assert [s.subset for s in report.steps] == [tuple(sorted(order[:k], key=g._rank.__getitem__)) for k in sizes]

    def test_tower_levels_decode_no_ids(self):
        c4, p3 = cycle(4), path(3)
        with decoding() as decodes:
            build = build_tower(c4, p3, constant_labeling(c4, p3, 1), 4)
        assert decodes == [] and all(undecoded(lv.graph) for lv in build.levels[1:])

    @given(st.one_of(labeled_instances_of_both_forms(), mixed_labeled_instances()))
    def test_decoded_ids_ranks_and_edges_are_the_eager_routes(self, instance):
        g, h, a = instance
        z = zigzag_product(g, h, a)
        verts, edges = oracle.brute_force_zigzag(g, h, a)
        twin = Graph(tuple(verts), tuple(edges))
        assert undecoded(z.product) and z.product == twin
        assert z.product.vertices == twin.vertices and z.product._rank == twin._rank
        assert z.product.edges == twin.edges and hash(z.product) == hash(twin)

    @given(mixed_graphs(), st.data())
    def test_subgraph_ids_and_ranks_are_the_eager_routes(self, g, data):
        subset = data.draw(st.lists(st.sampled_from(g.vertices), unique=True)) if g.vertices else []
        sub = g.induced_subgraph(subset)
        want = Graph(tuple(subset), tuple(e for e in g.edges if e[0] in subset and e[1] in subset))
        assert undecoded(sub) and sub._order == len(want.vertices)
        assert sub._rank == want._rank and sub.vertices == want.vertices and sub.edges == want.edges

    @given(constant_valency_instances(), st.data())
    def test_subgraph_of_an_undecoded_product_decodes_as_the_eager_route(self, instance, data):
        g, h, a = instance
        lazy, eager = zigzag_product(g, h, a).product, eager_twin(zigzag_product(g, h, a).product)
        keep = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=lazy._order, max_size=lazy._order)))
        rows = np.isin(lazy._edge_ranks, keep).all(axis=1)
        sub = lazy._on_ranks(keep, lazy._edge_ranks[rows])
        subsub = sub._on_ranks(np.arange(1, sub._order), sub._edge_ranks[(sub._edge_ranks > 0).all(axis=1)])
        assert undecoded(lazy) and undecoded(sub) and undecoded(subsub)
        want = eager.induced_subgraph(eager.vertices[r] for r in keep.tolist())
        assert sub == want and sub.vertices == want.vertices and sub.edges == want.edges
        assert subsub == want.induced_subgraph(want.vertices[1:]) and undecoded(lazy)


class TestSubgraphsHoldNoParent:
    """A subgraph keeps what its ids decode from, never the parent graph with its arrays and caches."""

    def test_a_subgraph_of_a_base_graph(self):
        g = cycle(1000)
        sub, parent = g.induced_subgraph([5, 6, 7, 900]), weakref.ref(g)
        del g
        gc.collect()
        assert parent() is None and sub.vertices == (5, 6, 7, 900) and sub.edges == ((5, 6), (6, 7))

    def test_a_subgraph_of_an_undecoded_product(self):
        c4, p3 = cycle(4), path(3)
        z = zigzag_product(c4, p3, constant_labeling(c4, p3, 1))
        sub, product = z.product._on_ranks(np.array([0, 1, 2]), np.empty((0, 2), np.intp)), weakref.ref(z.product)
        del z
        gc.collect()
        assert product() is None and undecoded(sub) and sub.vertices == ((0, 0), (0, 2), (1, 0))


class TestUndecodedGraphsAreValues:
    """An undecoded graph survives pickle and deepcopy undecoded, and equals and hashes as its decoded twin."""

    @staticmethod
    def graphs(instance):
        """A product, a subgraph of a product and a subgraph of the base, none decoded."""
        g, h, a = instance
        z = zigzag_product(g, h, a)
        sub = z.product.induced_subgraph(z.product.vertices[::2])  # decodes this product, not the subgraph
        return zigzag_product(g, h, a).product, sub, g.induced_subgraph(g.vertices[1:])

    @given(st.one_of(labeled_instances_of_both_forms(), mixed_labeled_instances()))
    def test_pickle_and_deepcopy(self, instance):
        for lazy, decoded in zip(self.graphs(instance), self.graphs(instance)):
            eager_twin(decoded)  # decodes it
            assert not undecoded(decoded)
            for made in (pickle.loads(pickle.dumps(lazy)), copy.deepcopy(lazy)):
                assert undecoded(made) and undecoded(lazy)
                assert made == decoded and decoded == made and hash(made) == hash(decoded)
                assert made.vertices == decoded.vertices and made.edges == decoded.edges
                assert made._rank == decoded._rank
