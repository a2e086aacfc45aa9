import itertools

from hypothesis import assume, settings
from hypothesis import strategies as st

from zigzag.graphs import Graph, VertexMap, darts
from zigzag.labeling import HLabeling, vertex_labeling

from helpers import CONSTANT_VALENCY_POOL

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@st.composite
def small_graphs(draw, min_vertices=0, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(tuple(range(n)), tuple(edges))


@st.composite
def labeled_instances(draw, max_g=6, max_h=5):
    """Arbitrary (base, labels, labeling) triples, labels not constrained."""
    g = draw(small_graphs(max_vertices=max_g))
    n = draw(st.integers(1, max_h))
    pairs = list(itertools.combinations(range(n), 2))
    hedges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    h = Graph(tuple(range(n)), tuple(hedges))
    mapping = {d: draw(st.sampled_from(h.vertices)) for d in darts(g)}
    return g, h, HLabeling(g, h, mapping)


@st.composite
def constant_valency_instances(draw, max_g=6):
    """Locally constant labelings whose used labels share one valency."""
    g = draw(small_graphs(min_vertices=2, max_vertices=max_g).filter(lambda gr: gr.edges))
    h, cls = draw(st.sampled_from(CONSTANT_VALENCY_POOL))
    per_vertex = {u: draw(st.sampled_from(cls)) for u in g.vertices}
    return g, h, vertex_labeling(g, h, per_vertex)


@st.composite
def labeled_instances_of_both_forms(draw):
    """Labelings given per dart (mostly not locally constant) or per vertex (locally constant)."""
    return draw(st.one_of(labeled_instances(), constant_valency_instances()))


@st.composite
def vertex_maps_into(draw, g, max_domain=7, morphism=True):
    """A vertex map into g whose domain edges are drawn among the pairs the map
    sends to edges of g (a morphism), or, with morphism=False, that also has
    one edge sent to a non-edge."""
    n = draw(st.integers(0 if morphism else 2, max_domain)) if g.vertices else 0
    f = [draw(st.sampled_from(g.vertices)) for _ in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    good = [(x, y) for x, y in pairs if g.has_edge(f[x], f[y])]
    edges = draw(st.lists(st.sampled_from(good), unique=True)) if good else []
    if not morphism:
        bad = [(x, y) for x, y in pairs if not g.has_edge(f[x], f[y])]
        assume(bad)
        edges.append(draw(st.sampled_from(bad)))
    return VertexMap(Graph(tuple(range(n)), tuple(edges)), g, dict(enumerate(f)))
