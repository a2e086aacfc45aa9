"""Command-line surface: generation, products, spectra, covers, towers.

Exit codes: 0 success, 1 a checked theorem-property failed on the input,
2 usage or input errors.  `-` means stdin/stdout for any graph argument.
Everything is deterministic; the ZZ_SEED environment variable is reserved
and currently unused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io
from .generators import KINDS, generate
from .graphs import Graph, check_combinatorial_cover, is_covering_map
from .labeling import constant_labeling, HLabeling
from .product import pi_combinatorial_cover_check, lift_covering, zigzag_product
from .spectral import adjacency_spectrum, normalized_laplacian_spectrum
from .tower import TowerConfig, build_tower, folner_product_check, tower_spectrum_check

OK, CHECK_FAILED, USAGE = 0, 1, 2
# Arguments that read stdin when given as "-", by parser dest.
STDIN_ARGS = {"graph": "-g", "labels": "-H", "labeling": "-l", "chain": "--chain", "product": "-p",
              "source": "--from", "target": "--to"}


class InputError(Exception):
    pass


class CheckFailed(Exception):
    pass


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        return Path(spec).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {spec}: {exc}") from exc


def _write_text(spec: str | None, text: str) -> None:
    if spec is None or spec == "-":
        sys.stdout.write(text)
        return
    try:
        Path(spec).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {spec}: {exc}") from exc


def _load_graph(spec: str) -> Graph:
    try:
        return io.read_graph_text(_read_text(spec))
    except (ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"bad graph input {spec}: {exc}") from exc


def _load_labeling(args, g: Graph, h: Graph) -> HLabeling:
    if getattr(args, "constant", None) is not None:
        try:
            return constant_labeling(g, h, io._parse_token(args.constant))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if getattr(args, "labeling", None) is None:
        raise InputError("a labeling is required: pass -l FILE or --constant LABEL")
    try:
        if args.labeling == "-":
            a = io.loads_labeling(sys.stdin.read())
        else:
            a = io.load_labeling_file(args.labeling)
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        raise InputError(f"bad labeling input: {exc}") from exc
    if a.base != g:
        raise InputError("labeling base graph differs from the -g graph")
    if a.labels != h:
        raise InputError("labeling label graph differs from the -H graph")
    return a


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _print_table(rows: list[list[str]]) -> None:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def cmd_gen(args) -> int:
    try:
        g = generate(args.kind, args.params)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad generator parameters: {exc}") from exc
    _write_text(args.output, io.dumps_graph(g))
    return OK


def cmd_product(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.labels)
    a = _load_labeling(args, g, h)
    z = zigzag_product(g, h, a)
    _write_text(args.output, io.dumps_product(z))
    return OK


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    try:
        report = normalized_laplacian_spectrum(g) if args.normalized else adjacency_spectrum(g)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.json:
        _write_text(None, io.dumps_spectrum(report))
    else:
        print("eigenvalues:", " ".join(_fmt(x) for x in report.eigenvalues))
        print("rho:", _fmt(report.rho))
        print("lambda2:", _fmt(report.lambda2))
        print("gap:", _fmt(report.gap))
    return OK


def cmd_check(args) -> int:
    if args.what == "pi":
        try:
            z = io.load_product_file(args.product) if args.product != "-" else io.loads_product(sys.stdin.read())
        except (ValueError, json.JSONDecodeError, OSError) as exc:
            raise InputError(f"bad product input: {exc}") from exc
        try:
            index = pi_combinatorial_cover_check(z)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        except RuntimeError as exc:
            raise CheckFailed(str(exc)) from exc
        print(f"projection is a combinatorial cover of index {index}")
        return OK

    domain = _load_graph(args.source) if args.source else None
    codomain = _load_graph(args.target) if args.target else None
    try:
        m = io.load_vertex_map_file(args.map, domain=domain, codomain=codomain)
    except (ValueError, json.JSONDecodeError, OSError, KeyError) as exc:
        raise InputError(f"bad map input: {exc}") from exc

    if args.what == "cover":
        if is_covering_map(m):
            print("map is a covering map")
            return OK
        raise CheckFailed("map is not a covering map")
    res = check_combinatorial_cover(m)
    if res:
        print(f"map is a combinatorial cover of index {res.index}")
        return OK
    witness = "" if res.witness is None else f" at {res.witness}"
    raise CheckFailed(f"map is not a combinatorial cover: {res.violation}{witness}")


def cmd_lift_cover(args) -> int:
    try:
        z = io.load_product_file(args.product)
        p = io.load_vertex_map_file(args.map, codomain=z.base)
    except (ValueError, json.JSONDecodeError, OSError, KeyError) as exc:
        raise InputError(f"bad input: {exc}") from exc
    try:
        lift = lift_covering(p, z)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "labeling.json").write_text(io.dumps_labeling(lift.beta), encoding="utf-8")
        (out / "product.json").write_text(io.dumps_product(lift.lifted), encoding="utf-8")
        (out / "covering.json").write_text(io.dumps_vertex_map(lift.phat), encoding="utf-8")
    print(
        f"lifted covering verified: {len(lift.lifted.product.vertices)} vertices, "
        f"{len(lift.lifted.product.edges)} edges over {len(z.product.vertices)}/{len(z.product.edges)}"
    )
    return OK


def cmd_tower(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.labels)
    a = _load_labeling(args, g, h)
    try:
        build = build_tower(g, h, a, args.depth, TowerConfig(budget=args.budget))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = tower_spectrum_check(build) if len(build.levels) >= 2 else None

    if args.json and report is not None:
        _write_text(None, io.canonical_dumps(io.tower_report_to_obj(report)))
        if args.report:
            _write_text(args.report, io.canonical_dumps(io.tower_report_to_obj(report)))
        if not report.all_ok:
            raise CheckFailed("a tower spectral verdict failed")
        return OK

    rows = [["level", "|V|", "|E|", "rho", "lambda2", "gap", "cover-index"]]
    for lv in build.levels:
        rows.append(
            [
                str(lv.index),
                str(len(lv.graph.vertices)),
                str(len(lv.graph.edges)),
                _fmt(lv.spectrum.rho if lv.spectrum else None),
                _fmt(lv.spectrum.lambda2 if lv.spectrum else None),
                _fmt(lv.spectrum.gap if lv.spectrum else None),
                _fmt(lv.cover_index),
            ]
        )
    _print_table(rows)
    if build.truncated:
        print(f"truncated: vertex budget {args.budget} reached before depth {args.depth}")
    if report is not None:
        for p in report.pairs:
            print(
                f"levels {p.lower}->{p.upper}: scaling {p.scaling}, "
                f"containment {p.containment}, gap {p.gap}"
            )
        if args.report:
            _write_text(args.report, io.canonical_dumps(io.tower_report_to_obj(report)))
        if not report.all_ok:
            raise CheckFailed("a tower spectral verdict failed")
    return OK


def cmd_folner(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.labels)
    a = _load_labeling(args, g, h)
    try:
        chain_obj = json.loads(_read_text(args.chain))
        chain = [[io.vertex_from_obj(v) for v in f] for f in chain_obj]
    except (ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"bad chain input: {exc}") from exc
    try:
        report = folner_product_check(g, h, a, chain)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    if args.json:
        _write_text(None, io.canonical_dumps(io.folner_report_to_obj(report)))
    else:
        rows = [["|F|", "|bd F|", "ratio", "|FxH|", "|bd FxH|", "bound", "ok"]]
        for s in report.steps:
            rows.append(
                [
                    str(s.size),
                    str(s.boundary_size),
                    str(s.ratio),
                    str(s.product_size),
                    str(s.product_boundary_size),
                    str(s.bound),
                    "yes" if s.bound_ok else "NO",
                ]
            )
        _print_table(rows)
    if not report.all_ok:
        raise CheckFailed("boundary bound violated for some subset")
    return OK


def cmd_export(args) -> int:
    if not args.dot:
        raise InputError("export currently supports only --dot")
    g = _load_graph(args.graph)
    _write_text(args.output, io.graph_to_dot(g))
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zigzag", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("product", help="build a zig-zag product")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-H", "--labels", required=True)
    p.add_argument("-l", "--labeling")
    p.add_argument("--constant", help="use the constant labeling with this label")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("spectrum", help="print a spectrum report")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="verify covering properties")
    p.add_argument("what", choices=("cover", "comb-cover", "pi"))
    p.add_argument("--map", help="vertex-map JSON file")
    p.add_argument("--from", dest="source", help="domain graph file")
    p.add_argument("--to", dest="target", help="codomain graph file")
    p.add_argument("-p", "--product", help="product JSON file (for: check pi)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lift", help="lift maps to products")
    lift_sub = p.add_subparsers(dest="lift_what", required=True)
    q = lift_sub.add_parser("cover", help="lift a covering map to the products")
    q.add_argument("-p", "--map", required=True, help="covering map JSON file")
    q.add_argument("-z", "--product", required=True, help="product JSON file")
    q.add_argument("-o", "--output", help="directory for the lifted artifacts")
    q.set_defaults(func=cmd_lift_cover)

    p = sub.add_parser("tower", help="build an iterated product tower")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-H", "--labels", required=True)
    p.add_argument("-l", "--labeling")
    p.add_argument("--constant")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("folner", help="boundary ratios of a nested chain in the product")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-H", "--labels", required=True)
    p.add_argument("-l", "--labeling")
    p.add_argument("--constant")
    p.add_argument("--chain", required=True, help="JSON array of vertex-id arrays")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_folner)

    p = sub.add_parser("export", help="export a graph for visualization")
    p.add_argument("--dot", action="store_true")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        from_stdin = [flag for dest, flag in STDIN_ARGS.items() if getattr(args, dest, None) == "-"]
        if len(from_stdin) > 1:
            raise InputError(f"only one input can be read from stdin ('-'), got {', '.join(from_stdin)}")
        if args.command == "check" and args.what != "pi" and not args.map:
            raise InputError("check cover/comb-cover needs --map FILE")
        if args.command == "check" and args.what == "pi" and not args.product:
            raise InputError("check pi needs -p PRODUCT")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
