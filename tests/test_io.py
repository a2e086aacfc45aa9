import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import labeled_instances, small_graphs
from helpers import C3, C4, C6, K2, P3, worked_fixtures
from test_graphs import mixed_graphs, vertex_maps
from zigzag import io
from zigzag.generators import cycle, hypercube, path
from zigzag.graphs import Dart, Graph, VertexMap, darts, identity_map
from zigzag.labeling import HLabeling, constant_labeling, pullback_labeling
from zigzag.product import zigzag_product
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
