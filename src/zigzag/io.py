"""Interchange formats: edge-list text, JSON documents, DOT export.

All writers emit canonical output (vertices and edges in canonical order,
fixed key order, trailing newline) so that serialization round-trips are
byte-exact.  The graph, labeling, vertex-map and product documents are
written from the objects' rank arrays, in the layout `canonical_dumps`
gives their JSON trees: each id is rendered once per depth into an object
array indexed by rank, and one row writer (`_rows`) gathers those texts
into columns and joins them with the constant text between them.  The
product loader checks a document in that layout by rendering the product
it re-derives and comparing the texts; any other document is decoded and
compared structurally.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .graphs import Dart, Graph, VertexId, VertexMap, format_vertex, make_edge
from .labeling import HLabeling, _per_edge, _ranks
from .product import EdgeTag, ZigZagGraph, zigzag_product
from .spectral import SpectrumReport
from .tower import FolnerReport, TowerReport

_INT_TOKEN = re.compile(r"-?\d+")
_HOLE = "\0"  # a row template's place for a column's text: encode_basestring escapes it, so no JSON text has it


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _pair(depth: int, a, b):
    """The text of the list [a, b] at this depth from the texts of a and b one deeper (strs or object arrays)."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + a + ("," + inner) + b + ("\n" + "  " * depth + "]")


def _rows(depth: int, template: str, *columns: np.ndarray, brackets="[]") -> str:
    """The JSON list (or object) at this depth of one item per row of the columns, equally long object
    arrays of texts: the template, an item's text, with its holes filled by the row's texts.  The
    constants, separators folded in, and the columns are interleaved in one object array for one join."""
    if not len(columns[0]):
        return brackets[0] + brackets[1]
    indent, consts = "\n" + "  " * (depth + 1), template.split(_HOLE)
    rows = np.empty((len(columns[0]), 2 * len(columns) + 1), object)
    rows[:, 0], rows[0, 0] = "," + indent + consts[0], brackets[0] + indent + consts[0]
    for k, column in enumerate(columns):  # column by column: faster than one strided copy of them all
        rows[:, 2 * k + 1], rows[:, 2 * k + 2] = column, consts[k + 1]
    rows[-1, -1] += "\n" + "  " * depth + brackets[1]
    return "".join(rows.ravel().tolist())


def _object(depth: int, **fields: str) -> str:
    """The JSON object at this depth of the fields' texts; at depth 0, a document, with its final newline."""
    keys, values = np.array(list(fields), object), np.array(list(fields.values()), object)
    return _rows(depth, f'"{_HOLE}": {_HOLE}', keys, values, brackets="{}" if depth else ("{", "}\n"))


class _Texts(dict):
    """Texts of vertex ids at one depth, each rendered once; a pair from the texts of its parts one deeper."""

    def __init__(self, depth: int):  # starts empty, as dict.__new__ leaves it
        self.depth = depth

    @cached_property
    def deeper(self) -> _Texts:
        return _Texts(self.depth + 1)

    def __missing__(self, v) -> str:
        if isinstance(v, tuple):
            self[v] = text = _pair(self.depth, self.deeper[v[0]], self.deeper[v[1]])
        else:  # an atom, as json.dumps writes it
            self[v] = text = encode_basestring(v) if isinstance(v, str) else int.__repr__(v)
        return text

    def of(self, g: Graph) -> np.ndarray:  # the texts of g's vertices, indexed by rank
        return np.array([self[v] for v in g.vertices], object)


def _graph_text(g: Graph, texts: _Texts) -> str:
    """The graph as an object two levels above the depth of texts."""
    d, ends, (src, dst) = texts.depth - 2, texts.deeper.of(g), g._edge_ranks.T
    edges = _rows(d + 1, _pair(d + 2, _HOLE, _HOLE), ends[src], ends[dst])
    return _object(d, vertices=_rows(d + 1, _HOLE, texts.of(g)), edges=edges)


def _labeling_fields(a: HLabeling, key: str) -> tuple:
    """The fields of a labeling's document, with its (vertex, edge, label) entries under key, and the
    texts of ids at depth 3 (and deeper), which the rest of a product document reads too."""
    texts, order, ends = _Texts(3), a.base._dart_order(), a.base._edge_ranks
    base3, base4, (u, v) = texts.of(a.base), texts.deeper.of(a.base), np.take(ends, order // 2, axis=0).T
    entry = _object(2, vertex=_HOLE, edge=_pair(3, _HOLE, _HOLE), label=_HOLE)
    entries = _rows(1, entry, base3[ends.ravel()[order]], base4[u], base4[v], texts.of(a.labels)[a._dart_ranks()])
    return {"base": _graph_text(a.base, texts), "labels": _graph_text(a.labels, texts), key: entries}, texts


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


def dumps_graph(g: Graph) -> str:
    return _graph_text(g, _Texts(2))


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


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_id(v: VertexId) -> str:
    return _dot_quote(format_vertex(v))


def graph_to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    degree_zero = [v for v in g.vertices if g.degree(v) == 0]
    for v in degree_zero:
        lines.append(f"  {_dot_id(v)};")
    for u, v in g.edges:
        lines.append(f"  {_dot_id(u)} -- {_dot_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    return _object(0, **_labeling_fields(a, "map")[0])


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
    texts = _Texts(3)
    pairs = _rows(1, _pair(2, _HOLE, _HOLE), texts.of(m.domain), texts.of(m.codomain)[m._image_ranks])
    return _object(0, domain=_graph_text(m.domain, texts), codomain=_graph_text(m.codomain, texts), map=pairs)


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
    fields, texts = _labeling_fields(z.labeling, "labeling")
    # A product vertex (u, i) is written at depth 2 (vertices), 3 (edges) and 4 (tag edges), each time from
    # the texts of u and i one deeper, gathered by rank; the edges and tags gather those by rank in turn.
    u, i = np.divmod(z._vertex_codes, len(z.labels.vertices))
    at = [(t.of(z.base)[u], t.of(z.labels)[i]) for t in (texts, texts.deeper, texts.deeper.deeper)]
    at3, at4, pair = _pair(3, *at[1]), _pair(4, *at[2]), _pair(2, _HOLE, _HOLE)
    (src, dst), (b, *label_ends) = z.product._edge_ranks.T, z._tag_ranks()
    # A tag's base edge and label edges are written from the ranks of their ends, as ids at depth 4.
    ends = [texts.deeper.of(z.base)[x] for x in np.take(z.base._edge_ranks, b, axis=0).T]
    ends += [texts.deeper.of(z.labels)[x] for x in label_ends]
    tag = _object(2, **dict.fromkeys(("edge", "base_edge", "h_lo", "h_hi"), _pair(3, _HOLE, _HOLE)))
    return _object(0, **fields, vertices=_rows(1, pair, *at[0]), edges=_rows(1, pair, at3[src], at3[dst]),
                   edge_tags=_rows(1, tag, at4[src], at4[dst], *ends))


# The keys a canonical product document opens with, each written before its value.
_CANONICAL_KEYS = ('{\n  "base": ', ',\n  "labels": ', ',\n  "labeling": ')
_DECODE = json.JSONDecoder().raw_decode


def _canonical_product(text: str) -> ZigZagGraph | None:
    """The product of a document that is the canonical rendering of its own
    base, label graph and labeling, checked by rendering that product again;
    None for any other document."""
    values, at = [], 0
    try:
        for key in _CANONICAL_KEYS:
            if not text.startswith(key, at):
                return None
            value, at = _DECODE(text, at + len(key))
            values.append(value)
        if not text.startswith(',\n  "vertices": [', at):  # without the product's lists, nothing need be built
            return None
        base, labels = graph_from_obj(values[0]), graph_from_obj(values[1])  # a graph given by path is refused
        # Only the labels are read, in the base's dart order: the rendering checks the darts stated beside them.
        lab = _per_edge(base, _ranks(labels, [vertex_from_obj(x["label"]) for x in values[2]]))
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
