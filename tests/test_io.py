import gc
import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import labeled_instances, labeled_instances_of_both_forms, small_graphs
from helpers import C3, C4, C6, K2, K4, P3, random_dart_labeling, worked_fixtures
from test_graphs import mixed_graphs, vertex_maps
from zigzag import io
from zigzag.generators import cayley_cyclic, complete, cycle, hypercube, path
from zigzag.graphs import Dart, Graph, VertexMap, darts, identity_map
from zigzag.labeling import (
    HLabeling,
    constant_labeling,
    is_locally_constant,
    pullback_labeling,
    restrict_labeling,
    vertex_labeling,
    vertex_labels,
)
from zigzag.product import lift_covering, projection, zigzag_product
from zigzag.spectral import adjacency_spectrum
from zigzag.tower import build_tower, folner_product_check, tower_spectrum_check


class TestGraphJson:
    def test_round_trip_fixtures(self):
        for g in (C3, C4, C6, K2, P3, hypercube(3), Graph((0, "a", (1, "b")), ())):
            text = io.dumps_graph(g)
            again = io.loads_graph(text)
            assert again == g
            assert io.dumps_graph(again) == text

    @given(small_graphs())
    @settings(max_examples=40)
    def test_round_trip_random(self, g):
        assert io.loads_graph(io.dumps_graph(g)) == g

    def test_pair_vertices_nest(self):
        g = Graph((((0, 1), 2),), ())
        obj = io.graph_to_obj(g)
        assert obj["vertices"] == [[[0, 1], 2]]
        assert io.graph_from_obj(obj) == g

    def test_vertices_emitted_in_canonical_order(self):
        obj = io.graph_to_obj(Graph((5, 1, "z", "a"), ()))
        assert obj["vertices"] == [1, 5, "a", "z"]

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            io.graph_from_obj({"vertices": [1.5], "edges": []})
        with pytest.raises(ValueError):
            io.graph_from_obj({"vertices": [True], "edges": []})
        with pytest.raises(ValueError):
            io.graph_from_obj({"vertices": [[1, 2, 3]], "edges": []})


class TestEdgeList:
    def test_round_trip(self):
        text = io.write_edge_list(C4)
        assert io.read_edge_list(text) == C4
        assert io.write_edge_list(io.read_edge_list(text)) == text

    def test_comments_and_blanks_skipped(self):
        g = io.read_edge_list("# a square\n\n0 1\n1 2\n2 3\n0 3\n")
        assert g == C4

    def test_string_atoms_survive(self):
        # "01" is not a canonical decimal, so it stays a string.
        g = io.read_edge_list("01 1\n")
        assert g.vertices == (1, "01")
        assert io.read_edge_list(io.write_edge_list(g)) == g

    def test_ambiguous_string_atoms_refused(self):
        # Bare tokens cannot distinguish the string "100" from the int 100;
        # the writer refuses rather than corrupt.  JSON is the lossless
        # format for such graphs.
        q3 = hypercube(3)
        with pytest.raises(ValueError, match="integer token"):
            io.write_edge_list(q3)
        assert io.loads_graph(io.dumps_graph(q3)) == q3

    def test_leading_zero_strings_round_trip(self):
        g = Graph((), (("00", "01"), ("01", "011")))
        assert io.read_edge_list(io.write_edge_list(g)) == g

    def test_pair_vertices_rejected(self):
        g = Graph((), (((0, 1), (1, 1)),))
        with pytest.raises(ValueError, match="atom"):
            io.write_edge_list(g)

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            io.read_edge_list("0 1\n0 1 2\n")

    def test_sniffing(self):
        assert io.read_graph_text(io.dumps_graph(C4)) == C4
        assert io.read_graph_text(io.write_edge_list(C4)) == C4


class TestDot:
    def test_deterministic_and_complete(self):
        g = Graph((9,), ((0, 1), (1, 2)))
        out = io.graph_to_dot(g)
        assert out == io.graph_to_dot(g)
        assert '"9";' in out
        assert '"0" -- "1";' in out
        assert out.startswith("graph G {")

    def test_pair_ids_quoted(self):
        z = zigzag_product(K2, K2, constant_labeling(K2, K2, 0))
        out = io.graph_to_dot(z.product)
        assert '"(0,1)" -- "(1,1)";' in out


class TestLabelingJson:
    def test_round_trip_inline(self):
        a = constant_labeling(C4, P3, 1)
        text = io.dumps_labeling(a)
        again = io.loads_labeling(text)
        assert again == a
        assert io.dumps_labeling(again) == text

    def test_path_references(self, tmp_path):
        (tmp_path / "base.json").write_text(io.dumps_graph(C4), encoding="utf-8")
        (tmp_path / "labels.json").write_text(io.dumps_graph(P3), encoding="utf-8")
        a = constant_labeling(C4, P3, 1)
        obj = io.labeling_to_obj(a)
        obj["base"] = "base.json"
        obj["labels"] = "labels.json"
        doc = tmp_path / "labeling.json"
        doc.write_text(io.canonical_dumps(obj), encoding="utf-8")
        assert io.load_labeling_file(doc) == a

    def test_dart_entries_in_canonical_order(self):
        a = constant_labeling(C4, P3, 1)
        entries = io.labeling_to_obj(a)["map"]
        keys = [(e["vertex"], tuple(e["edge"])) for e in entries]
        assert keys == sorted(keys)


class TestVertexMapJson:
    def test_round_trip(self):
        m = VertexMap(C6, C3, {i: i % 3 for i in C6.vertices})
        text = io.dumps_vertex_map(m)
        again = io.vertex_map_from_obj(json.loads(text))
        assert again == m
        assert io.dumps_vertex_map(again) == text

    def test_supplied_endpoints_override(self):
        m = identity_map(C4)
        obj = {"map": [[v, v] for v in C4.vertices]}
        again = io.vertex_map_from_obj(obj, domain=C4, codomain=C4)
        assert again == m
        with pytest.raises(ValueError, match="domain"):
            io.vertex_map_from_obj(obj)


class TestProductJson:
    @pytest.mark.parametrize("name,g,h,a", worked_fixtures())
    def test_round_trip(self, name, g, h, a):
        z = zigzag_product(g, h, a)
        text = io.dumps_product(z)
        again = io.loads_product(text)
        assert again == z
        assert io.dumps_product(again) == text

    def test_tampered_document_rejected(self):
        z = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        obj = io.product_to_obj(z)
        obj["edges"] = obj["edges"][:-1]
        with pytest.raises(ValueError, match="inconsistent"):
            io.product_from_obj(obj)


class TestSpectrumJson:
    def test_fields_and_digits(self):
        obj = io.spectrum_to_obj(adjacency_spectrum(C4))
        assert obj["operator"] == "adjacency"
        assert obj["rho"] == 2
        assert len(obj["eigenvalues"]) == 4
        assert "lambda2" in obj and "gap" in obj

    def test_absent_lambda2_omitted(self):
        obj = io.spectrum_to_obj(adjacency_spectrum(K2))
        assert "lambda2" not in obj and "gap" not in obj

    def test_twelve_significant_digits(self):
        assert io._sig12(1 / 3) == 0.333333333333
        assert io._sig12(2.0000000000001) == 2.0


class TestReportJson:
    def test_tower_report_serializes(self):
        a = constant_labeling(C4, P3, 1)
        report = tower_spectrum_check(build_tower(C4, P3, a, 3))
        obj = io.tower_report_to_obj(report)
        text = io.canonical_dumps(obj)
        assert json.loads(text)["all_ok"] is True
        assert [lv["vertices"] for lv in obj["levels"]] == [4, 8, 16]

    def test_folner_report_serializes(self):
        g = cycle(12)
        a = constant_labeling(g, P3, 1)
        report = folner_product_check(g, P3, a, [range(3), range(6)])
        obj = io.folner_report_to_obj(report)
        assert obj["all_ok"] is True
        assert obj["steps"][0]["ratio"] == "2/3"


class TestPullbackSerialization:
    def test_labeling_of_cover_round_trips(self):
        a = constant_labeling(C3, P3, 1)
        p = VertexMap(C6, C3, {i: i % 3 for i in C6.vertices})
        b = pullback_labeling(a, p)
        assert io.loads_labeling(io.dumps_labeling(b)) == b


# Ids whose text needs escaping or is not ASCII: a quote, a backslash, control
# characters, non-ASCII and non-BMP text, and nested pairs of unequal depth.
AWKWARD = ('"', "\\", "\x00\x1f\n\t\x7f", "é", "𝔾", " ", ("é", ('"', 0)), (("\\", 1), -2), 7)
AWKWARD_G = Graph((), tuple(zip(AWKWARD, AWKWARD[1:])))
AWKWARD_H = Graph((), (("é", "𝔾"), ("𝔾", ("é", ('"', 0))), (0, "é")))
AWKWARD_A = HLabeling(AWKWARD_G, AWKWARD_H, {d: AWKWARD_H.vertices[k % 4] for k, d in enumerate(darts(AWKWARD_G))})


@st.composite
def mixed_labeled_instances(draw):
    """A mixed-id base and label graph with an arbitrary labeling."""
    g = draw(mixed_graphs(max_vertices=6))
    h = draw(mixed_graphs(max_vertices=4).filter(lambda h: h.vertices))
    return g, h, HLabeling(g, h, {d: draw(st.sampled_from(h.vertices)) for d in darts(g)})


class TestWritersKeepTheTreeLayout:
    """Each writer's text equals canonical_dumps of the document as a tree."""

    @given(mixed_graphs())
    @example(Graph())
    @example(Graph(AWKWARD, ()))
    @example(AWKWARD_G)
    def test_graph(self, g):
        assert io.dumps_graph(g) == io.canonical_dumps(oracle.graph_to_obj(g))
        assert io.graph_to_obj(g) == oracle.graph_to_obj(g)

    @given(vertex_maps())
    @example(VertexMap(Graph(AWKWARD, ()), AWKWARD_H, {v: "𝔾" for v in AWKWARD}))
    def test_vertex_map(self, m):
        assert io.dumps_vertex_map(m) == io.canonical_dumps(oracle.vertex_map_to_obj(m))
        assert io.vertex_map_to_obj(m) == oracle.vertex_map_to_obj(m)

    @given(st.one_of(labeled_instances(), mixed_labeled_instances()))
    @example((Graph(), AWKWARD_H, HLabeling(Graph(), AWKWARD_H, {})))
    @example((Graph(AWKWARD, ()), AWKWARD_H, HLabeling(Graph(AWKWARD, ()), AWKWARD_H, {})))
    @example((AWKWARD_G, AWKWARD_H, AWKWARD_A))
    def test_labeling_and_product(self, instance):
        g, h, a = instance
        z = zigzag_product(g, h, a)
        assert io.dumps_labeling(a) == io.canonical_dumps(oracle.labeling_to_obj(a))
        assert io.labeling_to_obj(a) == oracle.labeling_to_obj(a)
        text = io.dumps_product(z)
        assert text == io.canonical_dumps(oracle.product_to_obj(z))
        assert io.product_to_obj(z) == oracle.product_to_obj(z)
        assert io.loads_product(text) == z


# The product document of one base edge {0, 'q"x'} labeled 1 and 'é' over the
# label edge {1, 'é'}, as the tree writer laid it out.
PINNED_PRODUCT = r"""{
  "base": {
    "vertices": [
      0,
      "q\"x"
    ],
    "edges": [
      [
        0,
        "q\"x"
      ]
    ]
  },
  "labels": {
    "vertices": [
      1,
      "é"
    ],
    "edges": [
      [
        1,
        "é"
      ]
    ]
  },
  "labeling": [
    {
      "vertex": 0,
      "edge": [
        0,
        "q\"x"
      ],
      "label": 1
    },
    {
      "vertex": "q\"x",
      "edge": [
        0,
        "q\"x"
      ],
      "label": "é"
    }
  ],
  "vertices": [
    [
      0,
      "é"
    ],
    [
      "q\"x",
      1
    ]
  ],
  "edges": [
    [
      [
        0,
        "é"
      ],
      [
        "q\"x",
        1
      ]
    ]
  ],
  "edge_tags": [
    {
      "edge": [
        [
          0,
          "é"
        ],
        [
          "q\"x",
          1
        ]
      ],
      "base_edge": [
        0,
        "q\"x"
      ],
      "h_lo": [
        1,
        "é"
      ],
      "h_hi": [
        1,
        "é"
      ]
    }
  ]
}
"""


def test_pinned_product_document():
    g, h = Graph((), ((0, 'q"x'),)), Graph((), ((1, "é"),))
    e = g.edges[0]
    z = zigzag_product(g, h, HLabeling(g, h, {Dart(0, e): 1, Dart('q"x', e): "é"}))
    assert io.dumps_product(z) == PINNED_PRODUCT
    assert io.loads_product(PINNED_PRODUCT) == z


def _labeling_obj():
    return oracle.labeling_to_obj(constant_labeling(C4, P3, 1))


def _product_obj():
    return oracle.product_to_obj(zigzag_product(C4, P3, constant_labeling(C4, P3, 1)))


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"vertices": 5}', "graph JSON 'vertices' must be a list, not 5"),
            ('{"edges": "01"}', "graph JSON 'edges' must be a list, not '01'"),
            ("[0, 1]", "graph JSON must be an object, not [0, 1]"),
        ],
    )
    def test_graph(self, text, message):
        with pytest.raises(ValueError) as exc:
            io.loads_graph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda obj: obj.clear(), "labeling JSON has no 'base'"),
            (lambda obj: obj.update(map=[5]), "labeling JSON 'map' entry must be an object, not 5"),
            (lambda obj: obj["map"][1].pop("label"), "labeling JSON 'map' entry has no 'label'"),
            (lambda obj: obj.update(map={}), "labeling JSON 'map' must be a list, not {}"),
        ],
    )
    def test_labeling(self, change, message):
        obj = _labeling_obj()
        change(obj)
        with pytest.raises(ValueError) as exc:
            io.loads_labeling(json.dumps(obj))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda obj: obj.pop("vertices"), "product JSON has no 'vertices'"),
            (lambda obj: obj["labeling"].append([0]), "product JSON 'labeling' entry must be an object, not [0]"),
            (lambda obj: obj["edge_tags"][3].pop("h_lo"), "product JSON 'edge_tags' entry has no 'h_lo'"),
            (lambda obj: obj.update(edge_tags=None), "product JSON 'edge_tags' must be a list, not None"),
        ],
    )
    def test_product(self, change, message):
        obj = _product_obj()
        change(obj)
        with pytest.raises(ValueError) as exc:
            io.loads_product(json.dumps(obj))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"domain": oracle.graph_to_obj(K2)}, "vertex-map JSON has no 'map'"),
            ({"map": 0}, "vertex-map JSON 'map' must be a list, not 0"),
            ("map", "vertex-map JSON must be an object, not 'map'"),
        ],
    )
    def test_vertex_map(self, obj, message):
        with pytest.raises(ValueError) as exc:
            io.vertex_map_from_obj(obj, domain=K2, codomain=K2)
        assert str(exc.value) == message


class TestRepeatedEntries:
    """A dart or vertex listed twice is refused, not settled by its last entry."""

    def test_labeling_dart(self):
        obj = _labeling_obj()
        first = obj["map"][0]
        assert (first["vertex"], first["edge"]) == (0, [0, 1])
        obj["map"] = [dict(first, label=2)] + obj["map"]
        with pytest.raises(ValueError, match=r"labeling JSON 'map' lists the dart \(0, \(0,1\)\) twice"):
            io.loads_labeling(json.dumps(obj))

    def test_product_labeling_dart(self):
        obj = _product_obj()
        obj["labeling"].append(dict(obj["labeling"][-1]))
        with pytest.raises(ValueError, match=r"product JSON 'labeling' lists the dart \(3, \(2,3\)\) twice"):
            io.loads_product(json.dumps(obj))

    def test_vertex_map_vertex(self):
        obj = {"domain": oracle.graph_to_obj(K2), "codomain": oracle.graph_to_obj(K2), "map": [[0, 1], [0, 0], [1, 1]]}
        with pytest.raises(ValueError, match="vertex-map JSON 'map' lists vertex 0 twice"):
            io.vertex_map_from_obj(obj)

    def test_graph_vertex(self):
        with pytest.raises(ValueError, match="graph JSON 'vertices' lists the vertex 1 twice"):
            io.loads_graph('{"vertices": [0, 1, 1], "edges": []}')

    def test_graph_edge(self):
        with pytest.raises(ValueError, match=r"graph JSON 'edges' lists the edge \(0,1\) twice"):
            io.loads_graph('{"vertices": [0, 1], "edges": [[0, 1], [1, 0]]}')

    def test_product_vertex_and_edge(self):
        obj = _product_obj()
        obj["vertices"].append(obj["vertices"][2])
        with pytest.raises(ValueError, match=r"product JSON 'vertices' lists the vertex \(1,0\) twice"):
            io.loads_product(json.dumps(obj))
        obj = _product_obj()
        obj["edges"].insert(0, obj["edges"][0][::-1])
        with pytest.raises(ValueError, match=r"product JSON 'edges' lists the edge \(\(0,0\),\(1,0\)\) twice"):
            io.loads_product(json.dumps(obj))

    def test_product_edge_tag(self):
        # The first entry's h_hi [0, 2] is not even an edge of P3; the second is right.
        obj = _product_obj()
        first = obj["edge_tags"][0]
        assert first["edge"] == [[0, 0], [1, 0]]
        obj["edge_tags"].insert(0, dict(first, h_hi=[0, 2]))
        with pytest.raises(ValueError, match=r"product JSON 'edge_tags' lists the edge \(\(0,0\),\(1,0\)\) twice"):
            io.loads_product(json.dumps(obj))


# A well-formed pair id 3000 deep: refused for its depth alone, whether json.loads
# or the id decoding reaches the recursion limit first.
DEEP = "[" * 3000 + "0" + ", 1]" * 3000


class TestDeepNesting:
    """Documents nested beyond Python's recursion limit are malformed input:
    every loader raises ValueError, not RecursionError."""

    def _docs(self):
        graph = '{"vertices": [' + DEEP + "]}"
        labeling = json.dumps(_labeling_obj())
        labeling = labeling.replace('"label": 1', '"label": ' + DEEP, 1)
        assert DEEP in labeling
        product = json.dumps(_product_obj()).replace('"vertices": [', '"vertices": [' + DEEP + ", ", 1)
        vmap = json.dumps({"domain": oracle.graph_to_obj(K2), "codomain": oracle.graph_to_obj(K2), "map": [[0, DEEP]]})
        return graph, labeling, product, vmap.replace('"' + DEEP + '"', DEEP)

    def test_text_loaders(self):
        graph, labeling, product, _ = self._docs()
        for load, text in [(io.loads_graph, graph), (io.read_graph_text, graph),
                           (io.loads_labeling, labeling), (io.loads_product, product)]:
            with pytest.raises(ValueError, match="nested too deeply"):
                load(text)

    def test_file_loaders(self, tmp_path):
        graph, labeling, product, vmap = self._docs()
        for load, text in [(io.load_graph_file, graph), (io.load_labeling_file, labeling),
                           (io.load_product_file, product), (io.load_vertex_map_file, vmap)]:
            path = tmp_path / "deep.json"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match="nested too deeply"):
                load(path)

    def test_deep_but_legal_ids_still_load(self):
        v = "[" * 200 + "0" + ", 1]" * 200
        g = io.loads_graph('{"vertices": [' + v + "]}")
        assert len(g.vertices) == 1 and io.loads_graph(io.dumps_graph(g)) == g


def _c4p3_text():
    return io.dumps_product(zigzag_product(C4, P3, constant_labeling(C4, P3, 1)))


def _relaid(change):
    """A text transform: change applied to the document's tree, laid out canonically again."""
    def relaid(text):
        obj = json.loads(text)
        change(obj)
        return io.canonical_dumps(obj)
    return relaid


def _swap_h_lo_and_h_hi(obj):
    tag = next(t for t in obj["edge_tags"] if t["h_lo"] != t["h_hi"])
    tag["h_lo"], tag["h_hi"] = tag["h_hi"], tag["h_lo"]


PRODUCT_VERTICES = '\n  "vertices": [\n    [\n      0,'
BASE_VERTICES = '"base": {\n    "vertices": [\n      0,'


class TestLoaderEquivalence:
    """Restated product documents load to the same product as the canonical
    text, and faulty ones are refused with the same message, whether or not
    they keep the canonical layout."""

    @pytest.mark.parametrize("name,g,h,a", worked_fixtures())
    def test_restated_documents_load_equal(self, name, g, h, a, tmp_path):
        z = zigzag_product(g, h, a)
        text, rng = io.dumps_product(z), random.Random(name)

        def restated(change):
            obj = json.loads(text)
            change(obj)
            return json.dumps(obj)

        docs = [
            text,
            text + "\n",
            restated(lambda obj: rng.shuffle(obj["vertices"])),
            restated(lambda obj: obj["edges"][len(obj["edges"]) // 2].reverse()),
            restated(lambda obj: rng.shuffle(obj["edge_tags"])),
            restated(lambda obj: obj["edge_tags"][0]["h_lo"].reverse()),
            json.dumps(json.loads(text), separators=(",", ":")),
            io.canonical_dumps(dict(json.loads(text), note="an extra key")),
        ]
        for doc in docs:
            assert io.loads_product(doc) == z
        (tmp_path / "base.json").write_text(io.dumps_graph(g), encoding="utf-8")
        by_path = restated(lambda obj: obj.update(base="base.json"))
        assert io.loads_product(by_path, base_dir=tmp_path) == z
        (tmp_path / "z.json").write_text(by_path, encoding="utf-8")
        assert io.load_product_file(tmp_path / "z.json") == z

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda t: t.replace(PRODUCT_VERTICES, PRODUCT_VERTICES.replace("0,", "true,"), 1),
             "invalid vertex id in JSON: True"),
            (lambda t: t.replace(PRODUCT_VERTICES, PRODUCT_VERTICES.replace("0,", "1.0,"), 1),
             "invalid vertex id in JSON: 1.0"),
            (lambda t: t.replace(BASE_VERTICES, BASE_VERTICES.replace("0,", "true,"), 1),
             "invalid vertex id in JSON: True"),
            (lambda t: t.replace('"label": 1', '"label": 1.0', 1), "invalid vertex id in JSON: 1.0"),
            (_relaid(lambda obj: obj["edges"].pop(3)), "product JSON is inconsistent with its own base and labeling"),
            (_relaid(_swap_h_lo_and_h_hi), "product JSON edge tags are inconsistent with the construction"),
            (lambda t: t + "x", "Extra data: line 694 column 1 (char 7240)"),
            (lambda t: t[:t.index(',\n  "vertices": ')] + "\n}\n", "product JSON has no 'vertices'"),
        ],
    )
    def test_faulty_canonical_documents_refused(self, change, message):
        text = _c4p3_text()
        doc = change(text)
        assert doc != text
        with pytest.raises(ValueError) as exc:
            io.loads_product(doc)
        assert str(exc.value) == message

    def test_deep_base_in_canonical_layout(self):
        doc = _c4p3_text().replace(BASE_VERTICES, BASE_VERTICES.replace("0,", DEEP + ","), 1)
        assert DEEP in doc
        with pytest.raises(ValueError) as exc:
            io.loads_product(doc)
        assert str(exc.value) == "JSON document nested too deeply"


class TestCanonicalRoute:
    """The canonical route takes exactly the canonical texts, and agrees with the structural one."""

    @given(st.one_of(labeled_instances_of_both_forms(), mixed_labeled_instances()))
    @example((AWKWARD_G, AWKWARD_H, AWKWARD_A))
    def test_canonical_texts_take_it(self, instance):
        z = zigzag_product(*instance)
        text = io.dumps_product(z)
        assert io._canonical_product(text) == io.product_from_obj(json.loads(text)) == z

    @pytest.mark.parametrize("name,g,h,a", worked_fixtures())
    def test_other_texts_do_not(self, name, g, h, a):
        text = io.dumps_product(zigzag_product(g, h, a))
        obj = json.loads(text)
        for doc in (text + "\n", " " + text, json.dumps(obj), io.canonical_dumps(dict(obj, base="base.json")),
                    io.canonical_dumps({**obj, "vertices": obj["vertices"][::-1]})):
            assert io._canonical_product(doc) is None


def _pinned_products():
    mixed_g = Graph((), ((0, "a"), ("a", 1), (1, "b"), ("b", 0)))
    mixed_h = Graph((), ((0, "x"), ("x", 1), (1, "é")))
    z1 = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
    isolated = Graph((0, 1, 2), ((0, 1),))
    edgeless = Graph((0, "a"), ())
    return {
        "mixed ids": zigzag_product(mixed_g, mixed_h, constant_labeling(mixed_g, mixed_h, "x")),
        "mixed labels": zigzag_product(mixed_g, mixed_h,
                                       vertex_labeling(mixed_g, mixed_h, {0: "x", "a": 1, 1: 0, "b": "é"})),
        "nested ids": zigzag_product(z1.product, P3, constant_labeling(z1.product, P3, 1)),
        "per dart": zigzag_product(C6, K4, random_dart_labeling(random.Random(8), C6, K4)),
        "hypercube": zigzag_product(hypercube(4), complete(3), constant_labeling(hypercube(4), complete(3), 0)),
        "edgeless product": zigzag_product(P3, isolated, vertex_labeling(P3, isolated, {0: 2, 1: 0, 2: 2})),
        "edgeless base": zigzag_product(edgeless, P3, constant_labeling(edgeless, P3, 1)),
    }


# SHA-256 of each product document above, as the writer that walked the
# edge-tag view one nested-tuple tag at a time rendered it.
PINNED_DIGESTS = {
    "mixed ids": "9b018d462586d7afe6be92b6175bca669c9f34de5f8cb6b50754a3536c8e8960",
    "mixed labels": "b37b18b2c5f3e48f16333fbf5d757c598dbeb0579891b8b17638a6c439c4b251",
    "nested ids": "3a2b5f18fa595f02ec1f3ba9f40341a47f9df10b262e50c181521be7442d1b40",
    "per dart": "f6964ead9b9cdf71aa89284a9d8541fad2989acb0e637d7300305f01d3f70f0c",
    "hypercube": "1eec540a15495dbb0d252075ba038d988e4a34267caf2f7909c1fb0870625164",
    "edgeless product": "d50ee51339d272054abc3a8b696df5b3ec4bd0d7c806940ea33bfb1be050f7a3",
    "edgeless base": "b513a354ece41537b0e790d3127304739bf87aa745947e3dc277ec80048ad180",
}


def test_pinned_product_renderings():
    products = _pinned_products()
    assert products.keys() == PINNED_DIGESTS.keys()
    for name, z in products.items():
        text = io.dumps_product(z)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_DIGESTS[name], name
        assert text == io.canonical_dumps(oracle.product_to_obj(z)), name
        assert io.loads_product(text) == z, name


def _benchmark_scale_products():
    # The sizes of the benchmark's two products, with seeded per-vertex labels.
    rng, circulant, q8 = random.Random(14), cayley_cyclic(512, [1, -1, 5, -5]), hypercube(8)
    k4, c6 = complete(4), cycle(6)
    a = vertex_labeling(circulant, k4, {u: rng.randrange(4) for u in circulant.vertices})
    b = vertex_labeling(q8, c6, {u: rng.randrange(6) for u in q8.vertices})
    return {
        "C(512; 1, 5) with K4 labels": zigzag_product(circulant, k4, a),
        "Q8 with C6 labels": zigzag_product(q8, c6, b),
    }


# SHA-256 of each product document above (9 216 and 4 096 edges), as the
# writer that rendered every product vertex with a % format wrote it.
BENCHMARK_SCALE_DIGESTS = {
    "C(512; 1, 5) with K4 labels": "ce6325b265f399d426270306008827b754ad9c5fc8c0b74a48747b83dd47de01",
    "Q8 with C6 labels": "9b5c6c391abebbabb10674365e08ea64fd034c5d873f49e2145fa36e07ef86e2",
}


def test_pinned_renderings_at_benchmark_scale():
    products = _benchmark_scale_products()
    assert [len(z.product._edge_ranks) for z in products.values()] == [9216, 4096]
    for name, z in products.items():
        text = io.dumps_product(z)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BENCHMARK_SCALE_DIGESTS[name], name
        assert io.loads_product(text) == z, name


def _constructed():
    """Products, labelings and maps that the construction makes from rank arrays, on fresh graphs."""
    c4, c8, p3, k3, q3 = cycle(4), cycle(8), path(3), complete(3), hypercube(3)
    z = zigzag_product(c4, p3, constant_labeling(c4, p3, 1))
    level = build_tower(c4, p3, constant_labeling(c4, p3, 1), 2).levels[-1]
    lift = lift_covering(VertexMap(c8, c4, {v: v % 4 for v in c8.vertices}), z)
    per_vertex = zigzag_product(q3, k3, vertex_labeling(q3, k3, {v: v.count("1") % 3 for v in q3.vertices}))
    return {"constant": z, "tower level": zigzag_product(level.graph, p3, level.labeling),
            "pulled back": lift.lifted, "per vertex": per_vertex}


@pytest.mark.parametrize("name", ["constant", "tower level", "pulled back", "per vertex"])
def test_writers_read_ranks_not_ids(name):
    z = _constructed()[name]
    pi = projection(z)
    texts = io.dumps_product(z), io.dumps_labeling(z.labeling), io.dumps_vertex_map(pi)
    assert "edges" not in vars(z.product)
    assert "edge_tags" not in vars(z)
    assert "mapping" not in vars(z.labeling) and "mapping" not in vars(pi)
    # The documents are still the trees of the objects.
    assert texts[0] == io.canonical_dumps(oracle.product_to_obj(z))
    assert texts[1] == io.canonical_dumps(oracle.labeling_to_obj(z.labeling))
    assert texts[2] == io.canonical_dumps(oracle.vertex_map_to_obj(pi))


def test_labelings_and_products_leave_no_reference_cycles():
    # The labeling and edge-tag views hold the graphs and arrays they read, not
    # their owner, so everything here is freed by reference counting alone.
    def work():
        g, h = hypercube(3), cycle(4)
        for a in (constant_labeling(g, h, 0), random_dart_labeling(random.Random(11), g, h)):
            z = zigzag_product(g, h, a)
            text = io.dumps_product(z)
            for back in (io.loads_product(text), io.product_from_obj(json.loads(text))):
                assert back == z and dict(back.edge_tags.items()) == dict(z.edge_tags.items())
            assert io.loads_labeling(io.dumps_labeling(a)) == a
            r = restrict_labeling(a, g.vertices[:5])
            zr = zigzag_product(r.base, h, r)
            assert list(zr.edge_tags.values()) and list(r.mapping.items()) and r.image
            if is_locally_constant(a):
                assert set(vertex_labels(a).values()) == {0}

    work()  # first calls may fill caches that live on
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()
