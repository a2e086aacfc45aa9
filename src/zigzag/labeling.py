"""Labelings of graph darts by vertices of a label graph, and their morphisms."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .graphs import (
    Dart,
    Graph,
    VertexId,
    VertexMap,
    _Decoded,
    _distinct,
    darts,
    format_vertex,
    is_graph_morphism,
    make_edge,
    satisfies_neighbor_reflecting,  # a property of maps, still importable from here
    vertex_key,
)


def _ranks(labels: Graph, given: list) -> np.ndarray:
    """The ranks of the given labels in the label graph; a label outside it is refused."""
    bad = [h for h in given if h not in labels._rank]
    if bad:
        raise ValueError(f"labels outside the label graph: {sorted(set(bad), key=vertex_key)}")
    return np.fromiter(map(labels._rank.__getitem__, given), np.intp, len(given))


def _per_edge(base: Graph, at_darts: np.ndarray) -> np.ndarray:
    """Values given at the darts of base, in dart order, as an E×2 array in edge order."""
    flat = np.empty(2 * len(base._edge_ranks), np.intp)
    flat[base._dart_order()] = at_darts
    return flat.reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class HLabeling:
    """Assignment of a label-graph vertex to every dart of a base graph.

    Stored as the label ranks at the first and at the second end of every
    base edge (an E×2 array in edge order, of the smallest unsigned dtype
    that holds every rank of the label graph, so arithmetic on it upcasts
    first); the vertex table, the image, equality and hashing are derived
    from it.  `mapping`, a read-only dart -> label dict in dart order, is
    built from it when first read and then kept; library code reads the
    array.  Labelings derived from others come in through `_from_ranks`,
    unchecked.
    """

    base: Graph
    labels: Graph
    mapping: Mapping = _Decoded("_dart_labels")

    def __post_init__(self):
        got, expected = self.mapping, darts(self.base)
        given = [got[d] for d in expected if d in got]
        if not len(got) == len(given) == len(expected):
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            raise ValueError(f"labeling must cover every dart exactly (missing {missing}, extra {extra})")
        self._store(_per_edge(self.base, _ranks(self.labels, given)))

    @classmethod
    def _from_ranks(cls, base: Graph, labels: Graph, lab: np.ndarray) -> "HLabeling":
        """The labeling with label ranks lab (E×2, any integer type) at each base edge's ends: nothing re-checked."""
        a = object.__new__(cls)
        a.__dict__.update(base=base, labels=labels)
        return a._store(lab)

    def _store(self, lab: np.ndarray) -> "HLabeling":
        lab = lab.astype(np.min_scalar_type(max(len(self.labels.vertices) - 1, 0)), copy=False)
        lab.flags.writeable = False
        self.__dict__.pop("mapping", None)  # a given mapping is rebuilt from the ranks, in dart order
        self.__dict__.update(_label_ranks=lab)
        return self

    def _dart_labels(self) -> Mapping:
        labels = map(self.labels.vertices.__getitem__, self._dart_ranks().tolist())
        return MappingProxyType(dict(zip(self.base._darts, labels)))

    def _dart_ranks(self) -> np.ndarray:
        """The label rank at every dart of the base, in dart order."""
        return self._label_ranks.ravel()[self.base._dart_order()]

    def __call__(self, dart: Dart) -> VertexId:
        return self.mapping[dart]

    def label(self, vertex: VertexId, edge) -> VertexId:
        return self.mapping[Dart(vertex, make_edge(*edge))]

    @cached_property
    def image(self) -> frozenset:
        return frozenset(map(self.labels.vertices.__getitem__, _distinct(self._label_ranks.ravel()).tolist()))

    @cached_property
    def _vertex_ranks(self) -> np.ndarray | None:
        """The label rank of every base vertex (-1 at an isolated one); None if two darts at a vertex differ."""
        ends, lab = self.base._edge_ranks, self._label_ranks
        per_vertex = np.full(len(self.base.vertices), -1, np.intp)
        per_vertex[ends] = lab
        return per_vertex if np.array_equal(per_vertex[ends], lab) else None

    @cached_property
    def _image_valencies(self) -> tuple:
        """The distinct label-graph valencies of the labels in use (marked by one scatter, not sorted), increasing."""
        used = np.zeros(len(self.labels.vertices), bool)
        used[self._label_ranks] = True
        return tuple(_distinct(self.labels._degrees[used]).tolist())

    def __eq__(self, other):
        if not isinstance(other, HLabeling):
            return NotImplemented
        same_graphs = (self.base, self.labels) == (other.base, other.labels)
        return same_graphs and np.array_equal(self._label_ranks, other._label_ranks)

    def __hash__(self):
        return hash((self.base, self.labels, self._label_ranks.tobytes()))


def constant_labeling(base: Graph, labels: Graph, h: VertexId) -> HLabeling:
    if not labels.has_vertex(h):
        raise ValueError(f"label {format_vertex(h)} not in the label graph")
    return HLabeling._from_ranks(base, labels, np.full((len(base._edge_ranks), 2), labels._rank[h], np.intp))


def vertex_labeling(base: Graph, labels: Graph, per_vertex: Mapping) -> HLabeling:
    """Locally constant labeling from a per-vertex label table (isolated vertices may be left out)."""
    used, ranks = base._degrees > 0, np.zeros(len(base.vertices), np.intp)
    ranks[used] = _ranks(labels, [per_vertex[v] for v, d in zip(base.vertices, used.tolist()) if d])
    return HLabeling._from_ranks(base, labels, ranks[base._edge_ranks])


def is_locally_constant(a: HLabeling) -> bool:
    """True iff all darts at any one vertex share a label."""
    return a._vertex_ranks is not None


def vertex_labels(a: HLabeling) -> dict:
    """Vertex -> label table of a locally constant labeling."""
    if not is_locally_constant(a):
        raise ValueError("labeling is not locally constant")
    return {v: a.labels.vertices[r] for v, r in zip(a.base.vertices, a._vertex_ranks.tolist()) if r >= 0}


class ImageValencyError(ValueError):
    """Raised when the labels in use do not share one positive valency."""

    def __init__(self, message: str, valencies: tuple = ()):
        super().__init__(message)
        self.valencies = valencies


def image_valency(a: HLabeling) -> int:
    """The common label-graph valency of every label in use.

    Read from the valencies the labeling keeps.  Fails when the base has no darts, when distinct
    valencies occur, or when an isolated label vertex (valency 0) is used; the spectral descent
    step divides by this number, so zero is never a legal answer.
    """
    if not len(a.base._edge_ranks):
        raise ImageValencyError("labeling has empty image: base graph has no darts")
    valencies = a._image_valencies
    if valencies == (0,):
        raise ImageValencyError("labels in use are isolated in the label graph", valencies)
    if 0 in valencies or len(valencies) != 1:
        raise ImageValencyError(f"labels in use have valencies {valencies}, expected one positive value", valencies)
    return valencies[0]


def pullback_labeling(a: HLabeling, m: VertexMap) -> HLabeling:
    """Precompose a labeling with the dart map of a morphism into its base."""
    if m.codomain != a.base:
        raise ValueError("pullback needs a map into the labeled graph")
    if not is_graph_morphism(m):
        raise ValueError("dart map is only induced by a graph morphism")
    # The label at a domain edge's first end sits at the end of its image edge that the first end goes to,
    # the one at its second end at the other; lab is flat, two entries per edge, as the image's ends are.
    end, lab = m._edge_images, a._label_ranks.ravel()
    return HLabeling._from_ranks(m.domain, a.labels, np.stack((lab[end], lab[end ^ 1]), axis=1))


def pushforward_labeling(a: HLabeling, psi: VertexMap) -> HLabeling:
    """Postcompose the labels with a morphism of label graphs."""
    if psi.domain != a.labels:
        raise ValueError("pushforward needs a map out of the label graph")
    if not is_graph_morphism(psi):
        raise ValueError("pushforward along a non-morphism")
    return HLabeling._from_ranks(a.base, psi.codomain, psi._image_ranks[a._label_ranks])


def restrict_labeling(a: HLabeling, subset: Iterable[VertexId]) -> HLabeling:
    """Restriction to the subgraph induced on a vertex subset (the pullback along its inclusion): its edges' rows."""
    sub, rows = a.base._induced(subset)
    return HLabeling._from_ranks(sub, a.labels, np.compress(rows, a._label_ranks, axis=0))


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


def _label_pairs(lm: LabeledMorphism) -> np.ndarray:
    """The distinct (source label, target label of the image dart) pairs over the source darts, as two rank arrays."""
    if lm.source.labels != lm.target.labels:
        raise ValueError("labeled morphism check needs both labelings in the same label graph")
    pulled, n = pullback_labeling(lm.target, lm.map)._label_ranks, len(lm.source.labels.vertices)
    return np.divmod(_distinct(lm.source._label_ranks.ravel().astype(np.intp) * n + pulled.ravel()), n)


def _neighbours_within(labels: Graph, s: np.ndarray, t: np.ndarray) -> bool:
    """Whether every neighbour of each label rank s[k] is a neighbour of t[k]."""
    return bool(labels._find_edges(*np.divmod(labels._around(t, s), len(labels.vertices)))[1].all())


def is_strict_morphism(lm: LabeledMorphism) -> bool:
    """True iff the target labeling pulled through the dart map equals the source."""
    return np.array_equal(*_label_pairs(lm))


def is_weak_morphism(lm: LabeledMorphism) -> bool:
    """Commutation up to adjacency: every neighbor of a source label is a
    neighbor of the corresponding target label."""
    return _neighbours_within(lm.source.labels, *_label_pairs(lm))


def matching_label_neighborhoods(lm: LabeledMorphism) -> bool:
    """Bidirectional form of the weak condition: label neighborhoods agree."""
    s, t = _label_pairs(lm)
    return _neighbours_within(lm.source.labels, s, t) and _neighbours_within(lm.source.labels, t, s)
