"""Labelings of graph darts by vertices of a label graph, and their morphisms."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .graphs import (
    Dart,
    Graph,
    VertexId,
    VertexMap,
    darts,
    format_vertex,
    induced_dart_map,
    is_graph_morphism,
    make_edge,
    vertex_key,
)


@dataclass(frozen=True, eq=False)
class HLabeling:
    """Assignment of a label-graph vertex to every dart of a base graph."""

    base: Graph
    labels: Graph
    mapping: Mapping

    def __post_init__(self):
        got, expected = self.mapping, darts(self.base)
        ordered = {d: got[d] for d in expected if d in got}
        if not len(got) == len(ordered) == len(expected):
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            raise ValueError(f"labeling must cover every dart exactly (missing {missing}, extra {extra})")
        bad = [h for h in ordered.values() if not self.labels.has_vertex(h)]
        if bad:
            raise ValueError(f"labels outside the label graph: {sorted(set(bad), key=vertex_key)}")
        object.__setattr__(self, "mapping", MappingProxyType(ordered))

    def __call__(self, dart: Dart) -> VertexId:
        return self.mapping[dart]

    def label(self, vertex: VertexId, edge) -> VertexId:
        return self.mapping[Dart(vertex, make_edge(*edge))]

    @cached_property
    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    @cached_property
    def _vertex_labels(self) -> dict | None:
        """Vertex -> label table, or None when some vertex has two labels."""
        table: dict = {}
        for d, h in self.mapping.items():
            if table.setdefault(d.vertex, h) != h:
                return None
        return table

    def __eq__(self, other):
        if not isinstance(other, HLabeling):
            return NotImplemented
        return (self.base, self.labels, self.mapping) == (other.base, other.labels, other.mapping)

    def __hash__(self):
        return hash((self.base, self.labels, tuple(self.mapping.items())))


def constant_labeling(base: Graph, labels: Graph, h: VertexId) -> HLabeling:
    if not labels.has_vertex(h):
        raise ValueError(f"label {format_vertex(h)} not in the label graph")
    return HLabeling(base, labels, {d: h for d in darts(base)})


def vertex_labeling(base: Graph, labels: Graph, per_vertex: Mapping) -> HLabeling:
    """Locally constant labeling from a per-vertex label table."""
    return HLabeling(base, labels, {d: per_vertex[d.vertex] for d in darts(base)})


def is_locally_constant(a: HLabeling) -> bool:
    """True iff all darts at any one vertex share a label."""
    return a._vertex_labels is not None


def vertex_labels(a: HLabeling) -> dict:
    """Vertex -> label table of a locally constant labeling."""
    if not is_locally_constant(a):
        raise ValueError("labeling is not locally constant")
    return dict(a._vertex_labels)


class ImageValencyError(ValueError):
    """Raised when the labels in use do not share one positive valency."""

    def __init__(self, message: str, valencies: tuple = ()):
        super().__init__(message)
        self.valencies = valencies


def image_valency(a: HLabeling) -> int:
    """The common label-graph valency of every label in use.

    Fails when the base has no darts, when distinct valencies occur, or when
    an isolated label vertex (valency 0) is used; the spectral descent step
    divides by this number, so zero is never a legal answer.
    """
    if not a.mapping:
        raise ImageValencyError("labeling has empty image: base graph has no darts")
    valencies = tuple(sorted({a.labels.degree(h) for h in a.image}))
    if valencies == (0,):
        raise ImageValencyError("labels in use are isolated in the label graph", valencies)
    if 0 in valencies or len(valencies) != 1:
        raise ImageValencyError(f"labels in use have valencies {valencies}, expected one positive value", valencies)
    return valencies[0]


def pullback_labeling(a: HLabeling, m: VertexMap) -> HLabeling:
    """Precompose a labeling with the dart map of a morphism into its base."""
    if m.codomain != a.base:
        raise ValueError("pullback needs a map into the labeled graph")
    dmap = induced_dart_map(m)
    return HLabeling(m.domain, a.labels, {d: a(dmap(d)) for d in darts(m.domain)})


def pushforward_labeling(a: HLabeling, psi: VertexMap) -> HLabeling:
    """Postcompose the labels with a morphism of label graphs."""
    if psi.domain != a.labels:
        raise ValueError("pushforward needs a map out of the label graph")
    if not is_graph_morphism(psi):
        raise ValueError("pushforward along a non-morphism")
    return HLabeling(a.base, psi.codomain, {d: psi(h) for d, h in a.mapping.items()})


def restrict_labeling(a: HLabeling, subset: Iterable[VertexId]) -> HLabeling:
    """Restriction to the subgraph induced on a vertex subset."""
    sub = a.base.induced_subgraph(subset)
    return HLabeling(sub, a.labels, {d: a(d) for d in darts(sub)})


@dataclass(frozen=True, eq=False)
class LabeledMorphism:
    """A graph morphism between the bases of two labeled graphs."""

    map: VertexMap
    source: HLabeling
    target: HLabeling

    def __post_init__(self):
        if self.map.domain != self.source.base or self.map.codomain != self.target.base:
            raise ValueError("map endpoints do not match the labeled graphs")
        if not is_graph_morphism(self.map):
            raise ValueError("underlying vertex map is not a graph morphism")


def _require_same_labels(lm: LabeledMorphism) -> None:
    if lm.source.labels != lm.target.labels:
        raise ValueError("labeled morphism check needs both labelings in the same label graph")


def is_strict_morphism(lm: LabeledMorphism) -> bool:
    """True iff the target labeling pulled through the dart map equals the source."""
    _require_same_labels(lm)
    dmap = induced_dart_map(lm.map)
    return all(lm.target(dmap(d)) == h for d, h in lm.source.mapping.items())


def is_weak_morphism(lm: LabeledMorphism) -> bool:
    """Commutation up to adjacency: every neighbor of a source label is a
    neighbor of the corresponding target label."""
    _require_same_labels(lm)
    h = lm.source.labels
    dmap = induced_dart_map(lm.map)
    for d, lbl in lm.source.mapping.items():
        target_lbl = lm.target(dmap(d))
        if not set(h.neighbors(lbl)) <= set(h.neighbors(target_lbl)):
            return False
    return True


def matching_label_neighborhoods(lm: LabeledMorphism) -> bool:
    """Bidirectional form of the weak condition: label neighborhoods agree."""
    _require_same_labels(lm)
    h = lm.source.labels
    dmap = induced_dart_map(lm.map)
    for d, lbl in lm.source.mapping.items():
        if set(h.neighbors(lbl)) != set(h.neighbors(lm.target(dmap(d)))):
            return False
    return True


def satisfies_neighbor_reflecting(psi: VertexMap) -> bool:
    """Vertex-surjective, and adjacency holds upstairs exactly when it holds
    on the images: h ~ h' iff psi(h) ~ psi(h'), over all vertex pairs."""
    if set(psi.mapping.values()) != set(psi.codomain.vertices):
        return False
    vs = psi.domain.vertices
    for i, h in enumerate(vs):
        for hp in vs[i + 1 :]:
            if psi.domain.has_edge(h, hp) != psi.codomain.has_edge(psi(h), psi(hp)):
                return False
    return True
