"""Command-line surface: generation, products, spectra, covers, towers.

Exit codes: 0 success, 1 a checked theorem-property failed on the input,
2 usage, input or any other errors.  `-` means stdin for every input argument, at
most once per invocation, and stdout for `-o`.  Everything is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import io
from .generators import KINDS, generate
from .graphs import Graph, check_combinatorial_cover, is_covering_map
from .labeling import constant_labeling, HLabeling
from .product import pi_combinatorial_cover_check, lift_covering, zigzag_product
from .spectral import adjacency_spectrum, normalized_laplacian_spectrum
from .tower import TowerConfig, _tower_report, build_tower, folner_product_check

OK, CHECK_FAILED, USAGE = 0, 1, 2


class InputError(Exception):
    pass


class CheckFailed(Exception):
    pass


class _Input(argparse.Action):
    """An input argument; when its last value given is `-` (stdin), the flag
    it was given under, as typed, is recorded in `stdin_flags`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        flags = dict(getattr(namespace, "stdin_flags", {}))
        flags.pop(self.dest, None)
        if values == "-":
            flags[self.dest] = option_string
        namespace.stdin_flags = flags


def _read_input(spec: str, what: str, parse):
    """parse(text, base_dir) of an input argument, where base_dir resolves the
    relative references inside it: the file's directory, or the working
    directory for stdin."""
    path = None if spec == "-" else Path(spec)
    try:
        text = sys.stdin.read() if path is None else path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {spec}: {exc}") from exc
    try:
        return parse(text, Path() if path is None else path.parent)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InputError(f"bad {what} input {spec}: {exc}") from exc


def _write_text(spec: str | Path | None, text: str) -> None:
    if spec is None or spec == "-":
        sys.stdout.write(text)
        return
    try:
        Path(spec).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {spec}: {exc}") from exc


def _load_graph(spec: str) -> Graph:
    return _read_input(spec, "graph", lambda text, _: io.read_graph_text(text))


def _load_labeled(args) -> tuple[Graph, Graph, HLabeling]:
    """The -g graph, the -H graph and the labeling (-l or --constant) of a labeled-input command."""
    g, h = _load_graph(args.graph), _load_graph(args.labels)
    if args.constant is not None:
        try:
            return g, h, constant_labeling(g, h, io._parse_token(args.constant))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if args.labeling is None:
        raise InputError("a labeling is required: pass -l FILE or --constant LABEL")
    a = _read_input(args.labeling, "labeling", io.loads_labeling)
    if a.base != g:
        raise InputError("labeling base graph differs from the -g graph")
    if a.labels != h:
        raise InputError("labeling label graph differs from the -H graph")
    return g, h, a


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "NO"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _print_table(header: tuple, records: list, keys: tuple) -> None:
    """One row per report record: the values under keys, below the header."""
    rows = [header, *([_fmt(r[k]) for k in keys] for r in records)]
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
    z = zigzag_product(*_load_labeled(args))
    _write_text(args.output, io.dumps_product(z))
    return OK


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    try:
        obj = io.spectrum_to_obj(normalized_laplacian_spectrum(g) if args.normalized else adjacency_spectrum(g))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.json:
        _write_text(None, io.canonical_dumps(obj))
    else:
        print("eigenvalues:", " ".join(map(_fmt, obj["eigenvalues"])))
        for key in ("rho", "lambda2", "gap"):
            print(f"{key}:", _fmt(obj.get(key)))
    return OK


def _load_map(spec: str, domain: Graph | None, codomain: Graph | None):
    return _read_input(spec, "map", lambda text, base: io.vertex_map_from_obj(json.loads(text), base, domain, codomain))


def cmd_check(args) -> int:
    if args.what == "pi":
        z = _read_input(args.product, "product", io.loads_product)
        try:
            index = pi_combinatorial_cover_check(z)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        print(f"projection is a combinatorial cover of index {index}")
        return OK

    domain = _load_graph(args.source) if args.source else None
    codomain = _load_graph(args.target) if args.target else None
    m = _load_map(args.map, domain, codomain)

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
    z = _read_input(args.product, "product", io.loads_product)
    p = _load_map(args.map, None, z.base)
    try:
        lift = lift_covering(p, z)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc
    if args.output:
        out = Path(args.output)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
        _write_text(out / "labeling.json", io.dumps_labeling(lift.beta))
        _write_text(out / "product.json", io.dumps_product(lift.lifted))
        _write_text(out / "covering.json", io.dumps_vertex_map(lift.phat))
    print(
        f"lifted covering verified: {lift.lifted.product._order} vertices, "
        f"{len(lift.lifted.product._edge_ranks)} edges over {z.product._order}/{len(z.product._edge_ranks)}"
    )
    return OK


def cmd_tower(args) -> int:
    g, h, a = _load_labeled(args)
    try:
        build = build_tower(g, h, a, args.depth, TowerConfig(budget=args.budget))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    obj = io.tower_report_to_obj(_tower_report(build))
    text = io.canonical_dumps(obj)
    note = f"truncated: vertex budget {args.budget} reached before depth {args.depth}"
    if args.json:
        _write_text(None, text)
        if build.truncated:
            print(note, file=sys.stderr)
    else:
        keys = ("level", "vertices", "edges", "rho", "lambda2", "gap", "cover_index")
        _print_table(("level", "|V|", "|E|", "rho", "lambda2", "gap", "cover-index"), obj["levels"], keys)
        if build.truncated:
            print(note)
        for p in obj["pairs"]:
            print("levels {lower}->{upper}: scaling {scaling}, containment {containment}, gap {gap}".format(**p))
    if args.report:
        _write_text(args.report, text)
    if not obj["all_ok"]:
        raise CheckFailed("a tower spectral verdict failed")
    return OK


def cmd_folner(args) -> int:
    g, h, a = _load_labeled(args)
    chain = _read_input(
        args.chain, "chain", lambda text, _: [[io.vertex_from_obj(v) for v in f] for f in json.loads(text)]
    )
    try:
        obj = io.folner_report_to_obj(folner_product_check(g, h, a, chain))
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    if args.json:
        _write_text(None, io.canonical_dumps(obj))
    else:
        keys = ("size", "boundary", "ratio", "product_size", "product_boundary", "bound", "bound_ok")
        _print_table(("|F|", "|bd F|", "ratio", "|FxH|", "|bd FxH|", "bound", "ok"), obj["steps"], keys)
    if not obj["all_ok"]:
        raise CheckFailed("boundary bound violated for some subset")
    return OK


def cmd_export(args) -> int:
    if not args.dot:
        raise InputError("export currently supports only --dot")
    g = _load_graph(args.graph)
    _write_text(args.output, io.graph_to_dot(g))
    return OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar, built on first use and then shared by every `run` in the process."""
    ap = argparse.ArgumentParser(prog="zigzag", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    labeled = argparse.ArgumentParser(add_help=False)  # the inputs of product, tower and folner
    labeled.add_argument("-g", "--graph", required=True, action=_Input)
    labeled.add_argument("-H", "--labels", required=True, action=_Input)
    labeled.add_argument("-l", "--labeling", action=_Input)
    labeled.add_argument("--constant", help="use the constant labeling with this label")

    p = sub.add_parser("gen", help="generate a named graph")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("product", parents=[labeled], help="build a zig-zag product")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("spectrum", help="print a spectrum report")
    p.add_argument("-g", "--graph", required=True, action=_Input)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="verify covering properties")
    p.add_argument("what", choices=("cover", "comb-cover", "pi"))
    p.add_argument("--map", action=_Input, help="vertex-map JSON file")
    p.add_argument("--from", dest="source", action=_Input, help="domain graph file")
    p.add_argument("--to", dest="target", action=_Input, help="codomain graph file")
    p.add_argument("-p", "--product", action=_Input, help="product JSON file (for: check pi)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lift", help="lift maps to products")
    lift_sub = p.add_subparsers(dest="lift_what", required=True)
    q = lift_sub.add_parser("cover", help="lift a covering map to the products")
    q.add_argument("-p", "--map", required=True, action=_Input, help="covering map JSON file")
    q.add_argument("-z", "--product", required=True, action=_Input, help="product JSON file")
    q.add_argument("-o", "--output", help="directory for the lifted artifacts")
    q.set_defaults(func=cmd_lift_cover)

    p = sub.add_parser("tower", parents=[labeled], help="build an iterated product tower")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("folner", parents=[labeled], help="boundary ratios of a nested chain in the product")
    p.add_argument("--chain", required=True, action=_Input, help="JSON array of vertex-id arrays")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_folner)

    p = sub.add_parser("export", help="export a graph for visualization")
    p.add_argument("--dot", action="store_true")
    p.add_argument("-g", "--graph", required=True, action=_Input)
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
        from_stdin = list(getattr(args, "stdin_flags", {}).values())
        if len(from_stdin) > 1:
            raise InputError(f"only one input can be read from stdin ('-'), got {', '.join(from_stdin)}")
        if args.command == "check" and args.what != "pi" and not args.map:
            raise InputError("check cover/comb-cover needs --map FILE")
        if args.command == "check" and args.what == "pi" and not args.product:
            raise InputError("check pi needs -p PRODUCT")
        return args.func(args)
    except (InputError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (CheckFailed, RuntimeError) as exc:  # a RuntimeError is a self-check of the library failing
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except Exception as exc:  # any other fault: one line (a repr escapes newlines), no traceback
        print(f"error: {exc!r}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
