import io as std_io
import json

import pytest

from helpers import C3, C4, C6, P3
from zigzag import io
from zigzag.cli import run
from zigzag.graphs import VertexMap
from zigzag.labeling import constant_labeling
from zigzag.product import zigzag_product


def invoke(argv, capsys, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", std_io.StringIO(stdin))
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_canonical_json(self, capsys, tmp_path):
        target = tmp_path / "c4.json"
        code, out, err = invoke(["gen", "cycle", "4", "-o", str(target)], capsys)
        assert code == 0
        assert io.load_graph_file(target) == C4

    def test_file_and_stdout_agree(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        invoke(["gen", "cayley_cyclic", "8", "1", "7", "-o", str(target)], capsys)
        code, out, _ = invoke(["gen", "cayley_cyclic", "8", "1", "7"], capsys)
        assert code == 0
        assert out == target.read_text(encoding="utf-8")

    def test_bad_params_exit_2(self, capsys):
        code, _, err = invoke(["gen", "cycle", "2"], capsys)
        assert code == 2
        assert "error" in err

    def test_unknown_kind_exit_2(self, capsys):
        code, _, _ = invoke(["gen", "moebius", "5"], capsys)
        assert code == 2


class TestSpectrum:
    def test_c4_human_output(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["spectrum", "-g", "-"], capsys, stdin=io.dumps_graph(C4), monkeypatch=monkeypatch
        )
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("eigenvalues: 2 ")
        assert first.endswith(" -2")
        assert "gap: 2" in out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "c6.json"
        path.write_text(io.dumps_graph(C6), encoding="utf-8")
        code, out, _ = invoke(["spectrum", "-g", str(path), "--normalized", "--json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["operator"] == "normalized_laplacian"
        assert obj["rho"] == 2

    def test_edge_list_input(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["spectrum", "-g", "-"], capsys, stdin="0 1\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert out.splitlines()[0] == "eigenvalues: 1 -1"

    def test_empty_graph_exit_2(self, capsys, monkeypatch):
        code, _, err = invoke(
            ["spectrum", "-g", "-"], capsys, stdin="{}", monkeypatch=monkeypatch
        )
        assert code == 2


class TestProduct:
    def test_constant_labeling_pipeline(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        hpath = tmp_path / "h.json"
        gpath.write_text(io.dumps_graph(C4), encoding="utf-8")
        hpath.write_text(io.dumps_graph(P3), encoding="utf-8")
        out_path = tmp_path / "z.json"
        code, _, _ = invoke(
            ["product", "-g", str(gpath), "-H", str(hpath), "--constant", "1", "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        z = io.load_product_file(out_path)
        assert len(z.product.vertices) == 8

    def test_labeling_file(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        hpath = tmp_path / "h.json"
        lpath = tmp_path / "l.json"
        gpath.write_text(io.dumps_graph(C3), encoding="utf-8")
        hpath.write_text(io.dumps_graph(P3), encoding="utf-8")
        lpath.write_text(io.dumps_labeling(constant_labeling(C3, P3, 1)), encoding="utf-8")
        code, out, err = invoke(
            ["product", "-g", str(gpath), "-H", str(hpath), "-l", str(lpath)], capsys
        )
        assert code == 0
        assert json.loads(out)["vertices"]

    def test_missing_labeling_exit_2(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(io.dumps_graph(C3), encoding="utf-8")
        code, _, err = invoke(["product", "-g", str(gpath), "-H", str(gpath)], capsys)
        assert code == 2
        assert "labeling" in err


class TestCheck:
    def _write_cover(self, tmp_path):
        m = VertexMap(C6, C3, {i: i % 3 for i in C6.vertices})
        path = tmp_path / "map.json"
        path.write_text(io.dumps_vertex_map(m), encoding="utf-8")
        return path

    def test_cover_ok(self, capsys, tmp_path):
        path = self._write_cover(tmp_path)
        code, out, _ = invoke(["check", "cover", "--map", str(path)], capsys)
        assert code == 0
        assert "covering map" in out

    def test_comb_cover_index(self, capsys, tmp_path):
        path = self._write_cover(tmp_path)
        code, out, _ = invoke(["check", "comb-cover", "--map", str(path)], capsys)
        assert code == 0
        assert "index 2" in out

    def test_failed_check_exit_1(self, capsys, tmp_path):
        fold = VertexMap(P3, C3, {0: 0, 1: 1, 2: 0})
        path = tmp_path / "fold.json"
        path.write_text(io.dumps_vertex_map(fold), encoding="utf-8")
        code, _, err = invoke(["check", "cover", "--map", str(path)], capsys)
        assert code == 1
        assert "not a covering map" in err

    def test_pi_check(self, capsys, tmp_path):
        z = zigzag_product(C4, P3, constant_labeling(C4, P3, 1))
        path = tmp_path / "z.json"
        path.write_text(io.dumps_product(z), encoding="utf-8")
        code, out, _ = invoke(["check", "pi", "-p", str(path)], capsys)
        assert code == 0
        assert "index 4" in out

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = invoke(["check", "cover"], capsys)
        assert code == 2
        code, _, _ = invoke(["check", "pi"], capsys)
        assert code == 2


class TestLiftCover:
    def test_writes_artifacts(self, capsys, tmp_path):
        z = zigzag_product(C3, P3, constant_labeling(C3, P3, 1))
        zpath = tmp_path / "z.json"
        zpath.write_text(io.dumps_product(z), encoding="utf-8")
        p = VertexMap(C6, C3, {i: i % 3 for i in C6.vertices})
        ppath = tmp_path / "p.json"
        ppath.write_text(io.dumps_vertex_map(p), encoding="utf-8")
        out_dir = tmp_path / "lifted"
        code, out, _ = invoke(
            ["lift", "cover", "-p", str(ppath), "-z", str(zpath), "-o", str(out_dir)], capsys
        )
        assert code == 0
        lifted = io.load_product_file(out_dir / "product.json")
        assert len(lifted.product.edges) == 2 * len(z.product.edges)
        assert (out_dir / "labeling.json").exists()
        assert (out_dir / "covering.json").exists()


class TestTower:
    def test_table_and_report(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        hpath = tmp_path / "h.json"
        gpath.write_text(io.dumps_graph(C4), encoding="utf-8")
        hpath.write_text(io.dumps_graph(P3), encoding="utf-8")
        report = tmp_path / "report.json"
        code, out, _ = invoke(
            [
                "tower",
                "-g", str(gpath),
                "-H", str(hpath),
                "--constant", "1",
                "--depth", "3",
                "--report", str(report),
            ],
            capsys,
        )
        assert code == 0
        assert "level" in out
        assert "scaling pass" in out
        obj = json.loads(report.read_text(encoding="utf-8"))
        assert obj["all_ok"] is True
        assert [lv["gap"] for lv in obj["levels"]] == [2, 4, 8]


class TestFolner:
    def test_chain_run(self, capsys, tmp_path):
        g = io.dumps_graph(C6)
        gpath = tmp_path / "g.json"
        hpath = tmp_path / "h.json"
        cpath = tmp_path / "chain.json"
        gpath.write_text(g, encoding="utf-8")
        hpath.write_text(io.dumps_graph(P3), encoding="utf-8")
        cpath.write_text(json.dumps([[0, 1], [0, 1, 2, 3]]), encoding="utf-8")
        code, out, _ = invoke(
            [
                "folner",
                "-g", str(gpath),
                "-H", str(hpath),
                "--constant", "1",
                "--chain", str(cpath),
            ],
            capsys,
        )
        assert code == 0
        assert "yes" in out

    def test_bad_chain_exit_2(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        hpath = tmp_path / "h.json"
        cpath = tmp_path / "chain.json"
        gpath.write_text(io.dumps_graph(C6), encoding="utf-8")
        hpath.write_text(io.dumps_graph(P3), encoding="utf-8")
        cpath.write_text(json.dumps([[0, 1], [4, 5]]), encoding="utf-8")
        code, _, err = invoke(
            ["folner", "-g", str(gpath), "-H", str(hpath), "--constant", "1", "--chain", str(cpath)],
            capsys,
        )
        assert code == 2
        assert "nested" in err


class TestExport:
    def test_dot(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(io.dumps_graph(C3), encoding="utf-8")
        code, out, _ = invoke(["export", "--dot", "-g", str(gpath)], capsys)
        assert code == 0
        assert out.startswith("graph G {")
        assert '"0" -- "1";' in out


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        code, _, _ = invoke([], capsys)
        assert code == 2

    def test_unreadable_file_exit_2(self, capsys):
        code, _, err = invoke(["spectrum", "-g", "/nonexistent/graph.json"], capsys)
        assert code == 2
        assert "cannot read" in err


class TestInputRules:
    def _write(self, tmp_path, name, graph_obj):
        path = tmp_path / name
        path.write_text(json.dumps(graph_obj), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_non_positive_budget_exit_2(self, capsys, tmp_path, budget):
        g = self._write(tmp_path, "g.json", io.graph_to_obj(C4))
        h = self._write(tmp_path, "h.json", io.graph_to_obj(P3))
        code, out, err = invoke(
            ["tower", "-g", g, "-H", h, "--constant", "1", "--depth", "3", "--budget", budget], capsys
        )
        assert code == 2
        assert err.startswith("error:") and "budget" in err
        assert "truncated" not in out

    @pytest.mark.parametrize("label", ["²", "007"])
    def test_digit_like_labels_stay_strings(self, capsys, tmp_path, label):
        # "²" is a digit to str.isdigit but no decimal; "007" is not canonical.
        g = self._write(tmp_path, "g.json", io.graph_to_obj(C3))
        labels = {"vertices": ["²", "007", 7], "edges": [["²", "007"], ["007", 7]]}
        h = self._write(tmp_path, "h.json", labels)
        code, out, err = invoke(["product", "-g", g, "-H", h, "--constant", label], capsys)
        assert code == 0, err
        assert {entry["label"] for entry in json.loads(out)["labeling"]} == {label}

    def test_stdin_for_two_inputs_exit_2(self, capsys, monkeypatch):
        code, out, err = invoke(
            ["product", "-g", "-", "-H", "-", "--constant", "1"],
            capsys,
            stdin=io.dumps_graph(C4),
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert err.startswith("error:") and "stdin" in err and "-g, -H" in err
        assert out == ""
