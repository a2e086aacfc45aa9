"""Labelings of graph darts by vertices of a label graph, and their morphisms."""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

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


class _Derived(Mapping):
    """A read-only mapping whose values are computed from other data;
    `items()` and `values()` iterate `_items()`, a bulk walk."""

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self):
        return self._mapping._items()


class _Values(ValuesView):
    def __iter__(self):
        return (x for _, x in self._mapping._items())


class _DartLabels(_Derived):
    """Dart -> label view of a table with one label per non-isolated vertex, in dart order."""

    def __init__(self, base: Graph, table: dict):
        self._base, self._table = base, table

    def __getitem__(self, dart):
        if isinstance(dart, tuple) and len(dart) == 2 and dart[1] in self._base.edge_set and dart[0] in dart[1]:
            return self._table[dart[0]]
        raise KeyError(dart)

    def __iter__(self):  # the darts are built only when walked
        return iter(self._base._darts)

    def __len__(self):
        return 2 * len(self._base.edges)

    def _items(self):
        t = self._table
        return ((d, t[d[0]]) for d in self._base._darts)


@dataclass(frozen=True, eq=False)
class HLabeling:
    """Assignment of a label-graph vertex to every dart of a base graph.

    A locally constant labeling is stored as one label per non-isolated base
    vertex, `mapping` being a read-only view of it over the darts; any other
    as one entry per dart.  Equality and hashing do not depend on the form given.
    """

    base: Graph
    labels: Graph
    mapping: Mapping

    def __post_init__(self):
        got = self.mapping
        if isinstance(got, _DartLabels) and got._base is self.base:
            table = got._table  # one label per non-isolated vertex, by construction
        else:
            expected = darts(self.base)
            ordered = {d: got[d] for d in expected if d in got}
            if not len(got) == len(ordered) == len(expected):
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                raise ValueError(f"labeling must cover every dart exactly (missing {missing}, extra {extra})")
            table = {d.vertex: h for d, h in ordered.items()}
            if any(table[d.vertex] != h for d, h in ordered.items()):
                table = None
        stored = ordered if table is None else table
        bad = [h for h in stored.values() if not self.labels.has_vertex(h)]
        if bad:
            raise ValueError(f"labels outside the label graph: {sorted(set(bad), key=vertex_key)}")
        object.__setattr__(self, "mapping", MappingProxyType(ordered) if table is None else _DartLabels(self.base, table))
        object.__setattr__(self, "_vertex_labels", table)  # None when some vertex has two labels
        object.__setattr__(self, "_stored", stored)

    def __call__(self, dart: Dart) -> VertexId:
        return self.mapping[dart]

    def label(self, vertex: VertexId, edge) -> VertexId:
        return self.mapping[Dart(vertex, make_edge(*edge))]

    @cached_property
    def image(self) -> frozenset:
        return frozenset(self._stored.values())

    def _edge_labels(self):
        """(edge, label at its first end, label at its second end) for every base edge, in order."""
        t, mp = self._vertex_labels, self.mapping
        if t is not None:
            return ((e, t[e[0]], t[e[1]]) for e in self.base.edges)
        return ((e, mp[Dart(e[0], e)], mp[Dart(e[1], e)]) for e in self.base.edges)

    def _label_ranks(self) -> np.ndarray:
        """Label ranks at the first and second end of every base edge, in edge order (E×2)."""
        rank, t, base = self.labels._rank, self._vertex_labels, self.base
        if t is None:
            return np.array([(rank[lu], rank[lv]) for _, lu, lv in self._edge_labels()], np.intp).reshape(-1, 2)
        per_vertex = np.fromiter((rank[t[v]] if v in t else 0 for v in base.vertices), np.intp, len(base.vertices))
        return per_vertex[base._edge_ranks]

    def __eq__(self, other):
        if not isinstance(other, HLabeling):
            return NotImplemented
        # A labeling has one stored form, and the two forms of one base never store equal dicts.
        return (self.base, self.labels, self._stored) == (other.base, other.labels, other._stored)

    def __hash__(self):
        return hash((self.base, self.labels, tuple(self._stored.items())))


def constant_labeling(base: Graph, labels: Graph, h: VertexId) -> HLabeling:
    if not labels.has_vertex(h):
        raise ValueError(f"label {format_vertex(h)} not in the label graph")
    return vertex_labeling(base, labels, dict.fromkeys(base.vertices, h))


def vertex_labeling(base: Graph, labels: Graph, per_vertex: Mapping) -> HLabeling:
    """Locally constant labeling from a per-vertex label table (isolated vertices may be left out)."""
    table = {v: per_vertex[v] for v, d in zip(base.vertices, base._degrees.tolist()) if d}
    return HLabeling(base, labels, _DartLabels(base, table))


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
    dmap, t = induced_dart_map(m), a._vertex_labels  # refuses a non-morphism
    if t is not None:  # a morphism sends every non-isolated vertex to one
        return vertex_labeling(m.domain, a.labels, {v: t[x] for v, x in m.mapping.items() if x in t})
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


def _label_pairs(lm: LabeledMorphism):
    """(source label, target label of the image dart) for every source dart."""
    if lm.source.labels != lm.target.labels:
        raise ValueError("labeled morphism check needs both labelings in the same label graph")
    return zip(lm.source.mapping.values(), pullback_labeling(lm.target, lm.map).mapping.values())


def is_strict_morphism(lm: LabeledMorphism) -> bool:
    """True iff the target labeling pulled through the dart map equals the source."""
    return all(s == t for s, t in _label_pairs(lm))


def is_weak_morphism(lm: LabeledMorphism) -> bool:
    """Commutation up to adjacency: every neighbor of a source label is a
    neighbor of the corresponding target label."""
    nb = lm.source.labels.neighbors
    return all(set(nb(s)) <= set(nb(t)) for s, t in _label_pairs(lm))


def matching_label_neighborhoods(lm: LabeledMorphism) -> bool:
    """Bidirectional form of the weak condition: label neighborhoods agree."""
    nb = lm.source.labels.neighbors
    return all(set(nb(s)) == set(nb(t)) for s, t in _label_pairs(lm))


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
