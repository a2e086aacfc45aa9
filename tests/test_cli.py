import io as std_io
import json
import time

import pytest

from helpers import C3, C4, C6, K4, P3
from zigzag import io
from zigzag.cli import _fmt, build_parser, run
from zigzag.generators import cycle, hypercube
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

    @pytest.mark.parametrize("argv", [["hypercube", "40"], ["complete", "100000"], ["cycle", "1000000000"]])
    def test_oversized_graph_exits_2_before_building(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(["gen", *argv], capsys)
        assert time.perf_counter() - start < 5
        assert code == 2 and not out
        want = f"{' '.join(argv)} would have more than 4194304 vertices plus edges"
        assert err == f"error: bad generator parameters: {want}\n"

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

    def test_c4_float_noise_reads_zero(self, capsys, monkeypatch):
        code, out, _ = invoke(["spectrum", "-g", "-"], capsys, stdin=io.dumps_graph(C4), monkeypatch=monkeypatch)
        assert code == 0
        assert "lambda2: 0\n" in out
        assert out.splitlines()[0] == "eigenvalues: 2 0 0 -2"
        code, out, _ = invoke(["spectrum", "-g", "-", "--json"], capsys, stdin=io.dumps_graph(C4), monkeypatch=monkeypatch)
        assert code == 0
        assert '"lambda2": 0.0,' in out
        assert json.loads(out)["eigenvalues"] == [2.0, 0.0, 0.0, -2.0]

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

    def test_labeling_file_repeating_a_dart_exit_2(self, capsys, tmp_path):
        gpath, hpath, lpath = tmp_path / "g.json", tmp_path / "h.json", tmp_path / "l.json"
        gpath.write_text(io.dumps_graph(C3), encoding="utf-8")
        hpath.write_text(io.dumps_graph(P3), encoding="utf-8")
        obj = io.labeling_to_obj(constant_labeling(C3, P3, 1))
        obj["map"].insert(0, dict(obj["map"][0], label=2))
        lpath.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(["product", "-g", str(gpath), "-H", str(hpath), "-l", str(lpath)], capsys)
        assert code == 2
        assert err.startswith(f"error: bad labeling input {lpath}:") and "twice" in err
        assert out == ""

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

    def test_pi_check_of_a_product_repeating_a_tag_exit_2(self, capsys, tmp_path):
        obj = json.loads(io.dumps_product(zigzag_product(C4, P3, constant_labeling(C4, P3, 1))))
        obj["edge_tags"].insert(0, dict(obj["edge_tags"][0], h_hi=[0, 2]))
        path = tmp_path / "z.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(["check", "pi", "-p", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad product input") and "'edge_tags' lists the edge ((0,0),(1,0)) twice" in err

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = invoke(["check", "cover"], capsys)
        assert code == 2
        code, _, _ = invoke(["check", "pi"], capsys)
        assert code == 2


class TestLiftCover:
    def _write_inputs(self, tmp_path):
        z = zigzag_product(C3, P3, constant_labeling(C3, P3, 1))
        zpath = tmp_path / "z.json"
        zpath.write_text(io.dumps_product(z), encoding="utf-8")
        p = VertexMap(C6, C3, {i: i % 3 for i in C6.vertices})
        ppath = tmp_path / "p.json"
        ppath.write_text(io.dumps_vertex_map(p), encoding="utf-8")
        return z, zpath, ppath

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

    @pytest.mark.parametrize("flag", ["-p", "-z"])
    def test_either_input_from_stdin(self, capsys, monkeypatch, tmp_path, flag):
        _, zpath, ppath = self._write_inputs(tmp_path)
        paths = {"-p": str(ppath), "-z": str(zpath)}
        stdin = (ppath if flag == "-p" else zpath).read_text(encoding="utf-8")
        paths[flag] = "-"
        code, out, err = invoke(
            ["lift", "cover", "-p", paths["-p"], "-z", paths["-z"]], capsys, stdin=stdin, monkeypatch=monkeypatch
        )
        assert code == 0, err
        assert out.startswith("lifted covering verified: 12 vertices")

    def test_output_naming_a_file_exit_2(self, capsys, tmp_path):
        _, zpath, ppath = self._write_inputs(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code, _, err = invoke(["lift", "cover", "-p", str(ppath), "-z", str(zpath), "-o", str(taken)], capsys)
        assert code == 2
        assert err.startswith("error: cannot write")


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

    def _argv(self, tmp_path, *extra):
        gpath = tmp_path / "g.json"
        hpath = tmp_path / "h.json"
        gpath.write_text(io.dumps_graph(C4), encoding="utf-8")
        hpath.write_text(io.dumps_graph(P3), encoding="utf-8")
        return ["tower", "-g", str(gpath), "-H", str(hpath), "--constant", "1", *extra]

    def test_one_level_json(self, capsys, tmp_path):
        code, out, err = invoke(self._argv(tmp_path, "--depth", "1", "--json"), capsys)
        assert code == 0, err
        obj = json.loads(out)
        assert [lv["level"] for lv in obj["levels"]] == [1]
        assert obj["pairs"] == [] and obj["all_ok"] is True
        assert '"lambda2": 0.0,' in out

    def test_one_level_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = invoke(self._argv(tmp_path, "--depth", "1", "--report", str(report)), capsys)
        assert code == 0
        assert out.splitlines()[1].split() == ["1", "4", "4", "2", "0", "2", "-"]
        obj = json.loads(report.read_text(encoding="utf-8"))
        assert len(obj["levels"]) == 1 and obj["pairs"] == []

    @pytest.mark.parametrize("budget, levels", [("20", 3), ("5", 1)])
    def test_truncated_json_keeps_stdout_one_document(self, capsys, tmp_path, budget, levels):
        code, out, err = invoke(self._argv(tmp_path, "--depth", "5", "--budget", budget, "--json"), capsys)
        assert code == 0
        assert len(json.loads(out)["levels"]) == levels
        assert err == f"truncated: vertex budget {budget} reached before depth 5\n"


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

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["lift", "cover", "-p", "-", "--product", "-"], "-p, --product"),
            (["check", "comb-cover", "--map", "-", "--to", "-"], "--map, --to"),
        ],
    )
    def test_stdin_twice_names_the_flags_as_typed(self, capsys, monkeypatch, argv, flags):
        code, out, err = invoke(argv, capsys, stdin="{}", monkeypatch=monkeypatch)
        assert code == 2
        assert err.startswith("error:") and err.rstrip().endswith(f"got {flags}")
        assert out == ""

    @pytest.mark.parametrize("what, verdict", [("cover", "a covering map"), ("comb-cover", "index 2")])
    def test_map_from_stdin(self, capsys, monkeypatch, what, verdict):
        m = VertexMap(C6, C3, {i: i % 3 for i in C6.vertices})
        code, out, err = invoke(
            ["check", what, "--map", "-"], capsys, stdin=io.dumps_vertex_map(m), monkeypatch=monkeypatch
        )
        assert code == 0, err
        assert verdict in out

    def test_deeply_nested_graph_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"vertices": [' + "[" * 3000 + "0" + "]" * 3000 + "]}", encoding="utf-8")
        code, _, err = invoke(["spectrum", "-g", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: bad graph input")

    @pytest.mark.parametrize("what", ["labeling", "map"])
    def test_reference_to_a_missing_graph_exit_2(self, capsys, tmp_path, what):
        g = self._write(tmp_path, "g.json", io.graph_to_obj(C3))
        if what == "labeling":
            obj = {"base": "g.json", "labels": "nowhere.json", "map": []}
            argv = ["product", "-g", g, "-H", g, "-l"]
        else:
            obj = {"domain": "nowhere.json", "codomain": "g.json", "map": []}
            argv = ["check", "cover", "--map"]
        path = self._write(tmp_path, f"{what}.json", obj)
        code, out, err = invoke(argv + [path], capsys)
        assert code == 2
        assert err.startswith(f"error: bad {what} input {path}:") and "nowhere.json" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["spectrum", "-g", "-", "-g", "-"], None),
            (["product", "-g", "-", "-g", "G", "-H", "-", "--constant", "1"], None),
            (["product", "-g", "-", "-H", "G", "-H", "-", "--constant", "1"], "-g, -H"),
            (["product", "-H", "-", "-g", "G", "--labels", "-", "-g", "-", "--constant", "1"], "--labels, -g"),
        ],
    )
    def test_stdin_rule_reads_the_last_value_of_each_flag(self, capsys, monkeypatch, tmp_path, argv, flags):
        g = self._write(tmp_path, "g.json", io.graph_to_obj(C4))
        argv = [g if x == "G" else x for x in argv]
        code, out, err = invoke(argv, capsys, stdin=io.dumps_graph(C4), monkeypatch=monkeypatch)
        if flags is None:
            assert code == 0, err
        else:
            assert code == 2 and err.rstrip().endswith(f"got {flags}")
            assert out == ""


class TestOnePath:
    """The table and --json print one report object; the grammar is built once
    per process and a usage error leaves it usable."""

    def _files(self, tmp_path, **graphs):
        for name, g in graphs.items():
            (tmp_path / f"{name}.json").write_text(io.dumps_graph(g), encoding="utf-8")
        return [str(tmp_path / f"{name}.json") for name in graphs]

    def _both(self, capsys, argv):
        """The table and the --json document of one command."""
        code, table, err = invoke(argv, capsys)
        assert code == 0, err
        code, text, err = invoke([*argv, "--json"], capsys)
        assert code == 0, err
        return table.splitlines(), json.loads(text)

    @pytest.mark.parametrize("g", [C4, hypercube(5)], ids=["C4", "Q5"])
    @pytest.mark.parametrize("normalized", [[], ["--normalized"]])
    def test_spectrum_table_cells_are_the_json_values(self, capsys, tmp_path, g, normalized):
        (path,) = self._files(tmp_path, g=g)
        lines, obj = self._both(capsys, ["spectrum", "-g", path, *normalized])
        assert lines[0].split()[1:] == [_fmt(x) for x in obj["eigenvalues"]]
        assert lines[1:] == [f"{key}: {_fmt(obj.get(key))}" for key in ("rho", "lambda2", "gap")]

    @pytest.mark.parametrize("budget", ["100000", "20"])
    def test_tower_table_cells_are_the_json_values(self, capsys, tmp_path, budget):
        g, h = self._files(tmp_path, c4=C4, p3=P3)
        argv = ["tower", "-g", g, "-H", h, "--constant", "1", "--depth", "4", "--budget", budget]
        lines, obj = self._both(capsys, argv)
        levels, pairs = obj["levels"], obj["pairs"]
        keys = ("level", "vertices", "edges", "rho", "lambda2", "gap", "cover_index")
        assert lines[0].split() == ["level", "|V|", "|E|", "rho", "lambda2", "gap", "cover-index"]
        assert [row.split() for row in lines[1 : 1 + len(levels)]] == [[_fmt(lv[k]) for k in keys] for lv in levels]
        rest = lines[1 + len(levels) :]
        if budget == "20":
            assert len(levels) == 3 and rest.pop(0) == "truncated: vertex budget 20 reached before depth 4"
        assert rest == [
            f"levels {p['lower']}->{p['upper']}: scaling {p['scaling']}, containment {p['containment']}, gap {p['gap']}"
            for p in pairs
        ]

    def test_folner_table_cells_are_the_json_values(self, capsys, tmp_path):
        g, h = self._files(tmp_path, c24=cycle(24), k4=K4)
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps([[0, 1], [0, 1, 2, 3], list(range(8))]), encoding="utf-8")
        lines, obj = self._both(capsys, ["folner", "-g", g, "-H", h, "--constant", "0", "--chain", str(chain)])
        keys = ("size", "boundary", "ratio", "product_size", "product_boundary", "bound", "bound_ok")
        assert [row.split() for row in lines[1:]] == [[_fmt(s[k]) for k in keys] for s in obj["steps"]]
        assert len(lines) == 4 and lines[1].split()[-1] == "yes"

    def test_usage_errors_leave_the_grammar_usable(self, capsys, tmp_path):
        (path,) = self._files(tmp_path, c4=C4)
        before = invoke(["spectrum", "-g", path], capsys)
        assert invoke(["check", "pi"], capsys)[0] == 2
        code, out, err = invoke(["frobnicate"], capsys)
        assert code == 2 and not out and "invalid choice: 'frobnicate'" in err
        assert invoke(["spectrum", "-g", path], capsys) == before and before[0] == 0
        assert build_parser() is build_parser()

    def test_two_tower_runs_print_the_same_bytes(self, capsys, tmp_path):
        g, h = self._files(tmp_path, c4=C4, p3=P3)
        argv = ["tower", "-g", g, "-H", h, "--constant", "1", "--depth", "4"]
        first = invoke(argv, capsys)
        assert first[0] == 0 and invoke(argv, capsys) == first

    @pytest.mark.parametrize(
        "command", [[], ["gen"], ["product"], ["spectrum"], ["check"], ["lift"], ["lift", "cover"],
                    ["tower"], ["folner"], ["export"]],
    )
    def test_help_exits_0(self, capsys, command):
        code, out, err = invoke([*command, "--help"], capsys)
        assert code == 0 and not err
        assert out.startswith(" ".join(["usage: zigzag", *command]))
