"""Interchange formats: edge-list text, JSON documents, DOT export.

All writers emit canonical output (canonical vertex and edge order, fixed
key order, trailing newline), so serialization round-trips are byte-exact.
Graph, labeling, vertex-map and product documents are written from rank
arrays in the layout `canonical_dumps` gives their trees.  The id texts of
a graph of atoms are rendered once per document (of others, once per
depth), each part an item repeats (a product vertex's pair, a base or label
edge) once from those, and `_rows` gathers the parts by rank into rows of
pieces: one piece list per document, joined once.  The canonical product
loader reads only a document's graphs and labels, and accepts it only if
the product they make renders to the same text; any other is decoded.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import asdict
from functools import cached_property, partial
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .graphs import Dart, Graph, VertexId, VertexMap, format_vertex, make_edge, vertex_key
from .labeling import HLabeling, _per_edge, _ranks
from .product import EdgeTag, ZigZagGraph, zigzag_product
from .spectral import SpectrumReport
from .tower import FolnerReport, TowerReport

_INT_TOKEN = re.compile(r"-?\d+")
_HOLE = "\0"  # a row template's place for a column's text: encode_basestring escapes it, so no JSON text has it


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _pair(depth: int, a, b, x=slice(None), y=slice(None), after: str = ""):
    """The text of the list [a, b] at this depth from the texts of a and b one deeper, then after; of object
    arrays of texts, those of the lists [a[x], b[y]], each array's constants added before it is gathered."""
    inner = "\n" + "  " * (depth + 1)
    return (("[" + inner) + a + ("," + inner))[x] + (b + ("\n" + "  " * depth + "]" + after))[y]


def _rows(depth: int, template: str, *columns: np.ndarray) -> list:
    """The pieces of the JSON list at this depth of an item per row of the columns (equally long object arrays of
    texts): the template with its holes filled by the row's texts; nonempty constants and columns in one array."""
    if not len(columns[0]):
        return ["[]"]
    indent, (head, *consts) = "\n" + "  " * (depth + 1), template.split(_HOLE)
    slots = ["," + indent + head] + [x for c, const in zip(columns, consts) for x in ((c, const) if const else (c,))]
    pieces = np.empty(len(columns[0]) * len(slots) + 1, object)
    rows = pieces[:-1].reshape(-1, len(slots))
    for k, slot in enumerate(slots):  # slot by slot: faster than one strided copy of them all
        rows[:, k] = slot
    rows[0, 0], pieces[-1] = "[" + indent + head, "\n" + "  " * depth + "]"
    return pieces.tolist()


def _gather(depth: int, template: str, *columns: tuple) -> list:
    """The pieces of the JSON list at this depth of the template's items, each column a pair (texts, index): the
    texts, an object array or a function rendering one that ends in a given constant, are rendered once with the
    constant after their hole, then gathered by index into rows."""
    head, *consts = template.split(_HOLE)
    texts = ((t(c) if callable(t) else t + c)[x] for (t, x), c in zip(columns, consts))
    return _rows(depth, head + len(columns) * _HOLE, *texts)


def _object(depth: int, **fields: list) -> list:
    """The pieces of the JSON object at this depth, its fields' pieces spliced in; at depth 0, a document."""
    pieces, indent = ["{"], "\n" + "  " * (depth + 1)
    for key, value in fields.items():
        pieces.append(f'{indent}"{key}": ')
        pieces += value  # in place: splicing through a temporary list copies, and faults in, each long list again
        pieces.append(",")
    pieces[-1] = "\n" + "  " * depth + ("}" if depth else "}\n")
    return pieces


class _Texts(dict):
    """Texts of ids at one depth, each rendered once: a pair from its parts' one deeper, an atom as json.dumps does."""

    def __init__(self, depth: int, arrays: dict | None = None):  # starts empty, as dict.__new__ leaves it
        self.depth, self.arrays = depth, {} if arrays is None else arrays

    @cached_property
    def deeper(self) -> _Texts:
        return _Texts(self.depth + 1, self.arrays)

    def __missing__(self, v) -> str:
        self[v] = text = (_pair(self.depth, self.deeper[v[0]], self.deeper[v[1]]) if isinstance(v, tuple)
                          else encode_basestring(v) if isinstance(v, str) else int.__repr__(v))
        return text

    def of(self, g: Graph) -> np.ndarray:
        """The texts of g's vertices by rank, one array at every depth if its ids are atoms (its last is no pair, as
        pairs sort last), ints then strings each by one map.  By id: a render's graphs outlive it, so none is reused."""
        vs = g.vertices
        key = (id(g), self.depth if vs and isinstance(vs[-1], tuple) else None)
        if key not in self.arrays:  # the k ints, then the strings (and the pairs, keyed by depth)
            k = bisect_left(vs, True, key=lambda v: not isinstance(v, int))
            rest = map(encode_basestring if key[1] is None else self.__getitem__, vs[k:])
            self.arrays[key] = np.array([*map(int.__repr__, vs[:k]), *rest], object)
        return self.arrays[key]


def _graph_text(g: Graph, texts: _Texts) -> list:
    """The pieces of the graph as an object two levels above the depth of texts."""
    d, (src, dst) = texts.depth - 2, g._edge_ranks.T
    edges = _gather(d + 1, _pair(d + 2, _HOLE, _HOLE), (texts.deeper.of(g), src), (texts.deeper.of(g), dst))
    return _object(d, vertices=_rows(d + 1, _HOLE, texts.of(g)), edges=edges)


def _labeling_fields(a: HLabeling, key: str) -> tuple:
    """The fields of a labeling's document, with its (vertex, edge, label) entries under key, and the
    texts of ids at depth 3 (and deeper) and of the base's edges at depth 3, which a product document's tags read."""
    texts, order, ends = _Texts(3), a.base._dart_order(), a.base._edge_ranks
    entry = "".join(_object(2, vertex=[_HOLE], edge=[_HOLE], label=[_HOLE]))  # a row template, joined here
    edge = _pair(3, texts.deeper.of(a.base), texts.deeper.of(a.base), *ends.T)
    entries = _gather(1, entry, (texts.of(a.base), ends.ravel()[order]), (edge, order // 2),
                      (texts.of(a.labels), a._dart_ranks()))
    return {"base": _graph_text(a.base, texts), "labels": _graph_text(a.labels, texts), key: entries}, texts, edge


def _fields(obj, kind: str, *keys: str, optional: bool = False) -> list:
    """The values under keys of a kind of document (an object); optional keys default to empty lists."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} must be an object, not {obj!r:.80}")
    for k in keys:
        if k not in obj and not optional:
            raise ValueError(f"{kind} has no {k!r}")
        if k in ("vertices", "edges", "map", "labeling", "edge_tags") and not isinstance(obj.get(k, []), list):
            raise ValueError(f"{kind} {k!r} must be a list, not {obj[k]!r:.80}")
    return [obj.get(k, []) for k in keys]


def _once(items, kind: str, key: str, what: str) -> tuple:
    """The items as a tuple, refusing any that is listed twice."""
    items = tuple(items)
    if len(set(items)) != len(items):
        seen: set = set()
        twice = next(x for x in items if x in seen or seen.add(x))
        raise ValueError(f"{kind} {key!r} lists the {what} {format_vertex(twice)} twice")
    return items


def _from_text(text: str, build, *args):
    """build(the JSON value of text, *args); a document nested too deeply
    for Python's recursion limit is refused as malformed."""
    try:
        return build(json.loads(text), *args)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


# vertex ids


def vertex_to_obj(v: VertexId):
    if isinstance(v, tuple):
        return [vertex_to_obj(v[0]), vertex_to_obj(v[1])]
    return v


def vertex_from_obj(obj) -> VertexId:
    if isinstance(obj, bool):
        raise ValueError(f"invalid vertex id in JSON: {obj!r}")
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, list) and len(obj) == 2:
        return (vertex_from_obj(obj[0]), vertex_from_obj(obj[1]))
    raise ValueError(f"invalid vertex id in JSON: {obj!r}")


def edge_to_obj(e):
    return [vertex_to_obj(e[0]), vertex_to_obj(e[1])]


def edge_from_obj(obj):
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"invalid edge in JSON: {obj!r}")
    return make_edge(vertex_from_obj(obj[0]), vertex_from_obj(obj[1]))


# graphs


def graph_to_obj(g: Graph) -> dict:
    return json.loads(dumps_graph(g))


def graph_from_obj(obj) -> Graph:
    kind = "graph JSON"
    verts, edges = _fields(obj, kind, "vertices", "edges", optional=True)
    return Graph(_once(map(vertex_from_obj, verts), kind, "vertices", "vertex"),
                 _once(map(edge_from_obj, edges), kind, "edges", "edge"))


def _ranked_graph(obj) -> Graph:
    """The graph of a document listing its ids in strictly increasing key order and its edges as increasing
    rank pairs, read straight into ranks; any other document is refused (ValueError, KeyError or TypeError).
    Edge ends are ranked as one flat list, by value alone if every id is a JSON int or string (an end true or
    1.0 reads as 1), and an edge of three ends shifts the rest: only for a caller that compares its rendering."""
    verts, edges = _fields(obj, "graph JSON", "vertices", "edges", optional=True)
    if not all(type(v) in (int, str) for v in verts):  # nested ids are decoded, and so is every edge end
        verts, edges = list(map(vertex_from_obj, verts)), [list(map(vertex_from_obj, e)) for e in edges]
    keys, rank = list(map(vertex_key, verts)), dict(zip(verts, range(len(verts))))
    ends = np.array([rank[x] for e in edges for x in e], np.intp).reshape(-1, 2)
    if sorted(set(keys)) != keys or (np.diff(ends) <= 0).any() or (np.diff(ends @ (len(verts), 1)) <= 0).any():
        raise ValueError("graph JSON is not in canonical order")
    return Graph._from_ranks(tuple(verts), *ends.T)


def dumps_graph(g: Graph) -> str:
    return "".join(_graph_text(g, _Texts(2)))


def loads_graph(text: str) -> Graph:
    return _from_text(text, graph_from_obj)


# edge-list text: one edge per line, two whitespace-separated atom tokens


def _atom_token(v: VertexId) -> str:
    if isinstance(v, tuple):
        raise ValueError("edge-list format supports atom vertex ids only; use JSON for pairs")
    tok = str(v)
    if not tok or any(c.isspace() for c in tok) or tok.startswith("#"):
        raise ValueError(f"atom {v!r} cannot be written as an edge-list token")
    if isinstance(v, str) and _parse_token(tok) != v:
        raise ValueError(
            f"string atom {v!r} would read back as an integer token; use the JSON format"
        )
    return tok


def _parse_token(tok: str) -> VertexId:
    # Only canonical decimals become ints, so string atoms like "01" survive.
    if _INT_TOKEN.fullmatch(tok) and str(int(tok)) == tok:
        return int(tok)
    return tok


def write_edge_list(g: Graph) -> str:
    lines = [f"{_atom_token(u)} {_atom_token(v)}" for u, v in g.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def read_edge_list(text: str) -> Graph:
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge-list line {lineno}: expected two tokens, got {len(parts)}")
        edges.append((_parse_token(parts[0]), _parse_token(parts[1])))
    return Graph((), tuple(edges))


def read_graph_text(text: str) -> Graph:
    """Sniff JSON vs edge-list by the first non-space character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return loads_graph(text)
    return read_edge_list(text)


def load_graph_file(path) -> Graph:
    return read_graph_text(Path(path).read_text(encoding="utf-8"))


# DOT export (write-only)


def graph_to_dot(g: Graph, name: str = "G") -> str:
    ids = ['"' + format_vertex(v).replace("\\", "\\\\").replace('"', '\\"') + '"' for v in g.vertices]
    lines = [f"graph {name} {{", *(f"  {ids[r]};" for r in np.flatnonzero(g._degrees == 0).tolist())]
    lines += [f"  {ids[x]} -- {ids[y]};" for x, y in g._edge_ranks.tolist()]
    return "\n".join(lines) + "\n}\n"


# references: a graph value in a larger document is inline or a file path


def _ref_to_graph(obj, base_dir) -> Graph:
    if isinstance(obj, str):
        path = Path(obj)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return load_graph_file(path)
    return graph_from_obj(obj)


# labelings


def labeling_to_obj(a: HLabeling) -> dict:
    return json.loads(dumps_labeling(a))


def _labeling(obj, kind: str, key: str, base_dir) -> HLabeling:
    """The labeling of a kind of document: its base, labels, and the entries under key."""
    base, labels, entries = _fields(obj, kind, "base", "labels", key)
    base, labels, mapping = _ref_to_graph(base, base_dir), _ref_to_graph(labels, base_dir), {}
    try:
        for entry in entries:
            d = Dart(vertex_from_obj(entry["vertex"]), edge_from_obj(entry["edge"]))
            if d in mapping:
                dart = f"({format_vertex(d.vertex)}, {format_vertex(d.edge)})"
                raise ValueError(f"{kind} {key!r} lists the dart {dart} twice")
            mapping[d] = vertex_from_obj(entry["label"])
    except (KeyError, TypeError):
        _fields(entry, f"{kind} {key!r} entry", "vertex", "edge", "label")  # raises, naming the fault
        raise
    return HLabeling(base, labels, mapping)


def labeling_from_obj(obj, base_dir=None) -> HLabeling:
    return _labeling(obj, "labeling JSON", "map", base_dir)


def dumps_labeling(a: HLabeling) -> str:
    return "".join(_object(0, **_labeling_fields(a, "map")[0]))


def loads_labeling(text: str, base_dir=None) -> HLabeling:
    return _from_text(text, labeling_from_obj, base_dir)


def load_labeling_file(path) -> HLabeling:
    path = Path(path)
    return loads_labeling(path.read_text(encoding="utf-8"), base_dir=path.parent)


# vertex maps


def vertex_map_to_obj(m: VertexMap) -> dict:
    return json.loads(dumps_vertex_map(m))


def vertex_map_from_obj(obj, base_dir=None, domain: Graph | None = None, codomain: Graph | None = None) -> VertexMap:
    (pairs,) = _fields(obj, "vertex-map JSON", "map")
    if domain is None:
        if "domain" not in obj:
            raise ValueError("vertex-map JSON carries no domain and none was supplied")
        domain = _ref_to_graph(obj["domain"], base_dir)
    if codomain is None:
        if "codomain" not in obj:
            raise ValueError("vertex-map JSON carries no codomain and none was supplied")
        codomain = _ref_to_graph(obj["codomain"], base_dir)
    mapping = {}
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"invalid map entry: {pair!r}")
        v = vertex_from_obj(pair[0])
        if v in mapping:
            raise ValueError(f"vertex-map JSON 'map' lists vertex {format_vertex(v)} twice")
        mapping[v] = vertex_from_obj(pair[1])
    return VertexMap(domain, codomain, mapping)


def dumps_vertex_map(m: VertexMap) -> str:
    texts, pair = _Texts(3), _pair(2, _HOLE, _HOLE)
    pairs = _gather(1, pair, (texts.of(m.domain), slice(None)), (texts.of(m.codomain), m._image_ranks))
    return "".join(_object(0, domain=_graph_text(m.domain, texts), codomain=_graph_text(m.codomain, texts), map=pairs))


def load_vertex_map_file(path, domain: Graph | None = None, codomain: Graph | None = None) -> VertexMap:
    path = Path(path)
    return _from_text(path.read_text(encoding="utf-8"), vertex_map_from_obj, path.parent, domain, codomain)


# products


def product_to_obj(z: ZigZagGraph) -> dict:
    return json.loads(dumps_product(z))


def product_from_obj(obj, base_dir=None) -> ZigZagGraph:
    kind = "product JSON"
    labeling = _labeling(obj, kind, "labeling", base_dir)
    verts, edges, tags = _fields(obj, kind, "vertices", "edges", "edge_tags")
    rebuilt = zigzag_product(labeling.base, labeling.labels, labeling)

    verts = _once(map(vertex_from_obj, verts), kind, "vertices", "vertex")
    if Graph(verts, _once(map(edge_from_obj, edges), kind, "edges", "edge")) != rebuilt.product:
        raise ValueError("product JSON is inconsistent with its own base and labeling")
    stated_tags = {}
    try:
        for entry in tags:
            e, tag = edge_from_obj(entry["edge"]), (entry["base_edge"], entry["h_lo"], entry["h_hi"])
            if e in stated_tags:
                raise ValueError(f"{kind} 'edge_tags' lists the edge {format_vertex(e)} twice")
            stated_tags[e] = EdgeTag(*map(edge_from_obj, tag))
    except (KeyError, TypeError):
        _fields(entry, f"{kind} 'edge_tags' entry", "edge", "base_edge", "h_lo", "h_hi")
        raise
    if stated_tags != rebuilt.edge_tags:
        raise ValueError("product JSON edge tags are inconsistent with the construction")
    return rebuilt


def dumps_product(z: ZigZagGraph) -> str:
    fields, texts, base_edge = _labeling_fields(z.labeling, "labeling")
    # A product vertex (u, i) is written at depth 2 (vertices), 3 (edges) and 4 (tags) from u's and i's texts by rank.
    nh, t4 = z.labels._order, texts.deeper
    u, i = np.divmod(z._vertex_codes, nh)
    at2, at3, at4 = (partial(_pair, t.depth - 1, t.of(z.base), t.of(z.labels), u, i) for t in (texts, t4, t4.deeper))
    (src, dst), (b, *label_ends) = z.product._edge_ranks.T, z._tag_ranks()
    # A tag gathers its ends' pairs, its base edge and its label edges, each base edge rendered once and each
    # label pair (lo, hi) in use once, the last two indexed by one `unique` over the (h_lo, h_hi) pairs.
    pairs, at = np.unique(np.concatenate(label_ends[0::2]) * nh + np.concatenate(label_ends[1::2]), return_inverse=True)
    label_edge, (lo, hi) = _pair(3, t4.of(z.labels), t4.of(z.labels), *np.divmod(pairs, nh)), np.split(at, 2)
    tag = "".join(_object(2, edge=[_pair(3, _HOLE, _HOLE)], base_edge=[_HOLE], h_lo=[_HOLE], h_hi=[_HOLE]))
    edge_tags = _gather(1, tag, (at4, src), (at4, dst), (base_edge, b), (label_edge, lo), (label_edge, hi))
    edges = _gather(1, _pair(2, _HOLE, _HOLE), (at3, src), (at3, dst))
    return "".join(_object(0, **fields, vertices=_rows(1, _HOLE, at2()), edges=edges, edge_tags=edge_tags))


# The keys a canonical product document opens with, each written before its value, and a one-line label.
_CANONICAL_KEYS = ('{\n  "base": ', ',\n  "labels": ', ',\n  "labeling": ')
_LABEL = re.compile(r'"label": ([^\[\n].*)')
_DECODE = json.JSONDecoder().raw_decode


def _canonical_product(text: str) -> ZigZagGraph | None:
    """The product of a document that is the canonical rendering of its own
    base, label graph and labeling, checked by rendering that product again;
    None for any other document."""
    graphs, at = [], 0
    try:
        for key in _CANONICAL_KEYS:
            if not text.startswith(key, at):
                return None
            at += len(key)
            if len(graphs) < 2:  # the base, then the label graph
                value, at = _DECODE(text, at)
                graphs.append(value)
        # The labeling ends at the first such line, which no JSON string can hold (none holds a raw newline).
        end = text.find(',\n  "vertices": [', at)
        if end < 0:  # without the product's lists, nothing need be built
            return None
        base, labels = map(_ranked_graph, graphs)  # a graph given by path is refused
        # Only the labels are read, in the base's dart order: the rendering checks the darts stated beside them.
        # One-line labels, one per dart, are read by one decode; any other labeling is decoded whole.
        found = _LABEL.findall(text, at, end)
        given = (json.loads("[" + ",".join(found) + "]") if len(found) == 2 * len(base._edge_ranks)
                 else [vertex_from_obj(x["label"]) for x in _DECODE(text, at)[0]])
        lab = _per_edge(base, _ranks(labels, given))
    except (RecursionError, ValueError, KeyError, TypeError):
        return None
    z = zigzag_product(base, labels, HLabeling._from_ranks(base, labels, lab))
    return z if dumps_product(z) == text else None


def loads_product(text: str, base_dir=None) -> ZigZagGraph:
    """The product a document states.  A document byte-identical to the
    canonical rendering is checked by rendering it again; any other is
    decoded and compared structurally (`product_from_obj`).  Both routes
    accept and refuse the same documents."""
    return _canonical_product(text) or _from_text(text, product_from_obj, base_dir)


def load_product_file(path) -> ZigZagGraph:
    path = Path(path)
    return loads_product(path.read_text(encoding="utf-8"), base_dir=path.parent)


# reports


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def spectrum_to_obj(r: SpectrumReport) -> dict:
    obj = {
        "operator": r.operator,
        "eigenvalues": [_sig12(x) for x in r.eigenvalues],
        "rho": _sig12(r.rho),
    }
    if r.lambda2 is not None:
        obj["lambda2"] = _sig12(r.lambda2)
    if r.gap is not None:
        obj["gap"] = _sig12(r.gap)
    return obj


def dumps_spectrum(r: SpectrumReport) -> str:
    return canonical_dumps(spectrum_to_obj(r))


def tower_report_to_obj(r: TowerReport) -> dict:
    return {
        "valency": r.valency,
        "levels": [
            {
                "level": s.index,
                "vertices": s.vertices,
                "edges": s.edges,
                "rho": None if s.rho is None else _sig12(s.rho),
                "lambda2": None if s.lambda2 is None else _sig12(s.lambda2),
                "gap": None if s.gap is None else _sig12(s.gap),
                "cover_index": s.cover_index,
                "spectra_skipped": s.spectra_skipped,
            }
            for s in r.levels
        ],
        "pairs": [asdict(p) for p in r.pairs],
        "all_ok": r.all_ok,
    }


def folner_report_to_obj(r: FolnerReport) -> dict:
    return {
        "max_label_degree": r.max_label_degree,
        "steps": [
            {
                "subset": [vertex_to_obj(v) for v in s.subset],
                "size": s.size,
                "boundary": s.boundary_size,
                "ratio": str(s.ratio),
                "product_size": s.product_size,
                "product_boundary": s.product_boundary_size,
                "product_ratio": None if s.product_ratio is None else str(s.product_ratio),
                "bound": s.bound,
                "bound_ok": s.bound_ok,
            }
            for s in r.steps
        ],
        "all_ok": r.all_ok,
    }
