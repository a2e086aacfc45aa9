"""Spans around calls into the zigzag modules, recorded from outside the program.

`Tracer.install()` replaces every public function of every `zigzag.*`
module, in every `zigzag` namespace that binds it, with a wrapper that
records a span; `uninstall()` puts the originals back.  A
`from .graphs import darts` copies the binding, so wrapping
`zigzag.graphs.darts` alone would miss the calls made from `labeling`.

Spans are kept in memory as (name, start, end, parent, unit) and written
out once, at the end of the run.  Two self times are kept per span: `self`
is the span minus all its child spans, `layer` is the span minus the child
spans of other layers (time in its own layer, same-layer callees included).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from zigzag.spectral import ZeroCertificate

LAYERS = ("cli", "io", "tower", "product", "labeling", "graphs", "spectral", "generators")

# Per-element helpers run millions of times per unit; spans around them
# would cost more than the work they measure.
SKIP = frozenset({
    "is_vertex_id", "vertex_key", "format_vertex", "make_edge", "edge_key", "dart_key",
    "vertex_to_obj", "vertex_from_obj", "edge_to_obj", "edge_from_obj",
})

# io functions taking document text, and those returning it.  Bytes are
# counted at the outermost io call only, so nested readers and writers
# are not counted twice.
TEXT_IN = frozenset({"read_graph_text", "read_edge_list", "loads_graph", "loads_labeling", "loads_product"})
TEXT_OUT = frozenset({
    "canonical_dumps", "dumps_graph", "dumps_labeling", "dumps_vertex_map", "dumps_product",
    "dumps_spectrum", "write_edge_list", "graph_to_dot",
})


def _descended(result) -> dict:
    if isinstance(result, ZeroCertificate):
        return {"spectral.zero_certificates": 1}
    return {"spectral.eigenpairs_verified": 1}


def _verdicts(report) -> dict:
    verdicts = [v for p in report.pairs for v in (p.scaling, p.containment, p.gap)]
    return {"tower.verdicts": len(verdicts), "tower.verdicts_decided": sum(v != "skipped" for v in verdicts)}


# Counters derived from a call's result, by span name.
COUNTERS = {
    "product.zigzag_product": lambda z: {"product.edges_built": len(z.product.edges)},
    "labeling.pullback_labeling": lambda a: {"labeling.darts_labeled": len(a.mapping)},
    "tower.build_tower": lambda b: {"tower.levels_built": len(b.levels)},
    "tower.tower_spectrum_check": _verdicts,
    "spectral.adjacency_eigenpairs": lambda pairs: {"spectral.eigenpairs_verified": len(pairs)},
    "spectral.lift_eigenvector": lambda ep: {"spectral.eigenpairs_verified": 1},
    "spectral.descend_eigenvector": _descended,
}


class Tracer:
    def __init__(self):
        self.unit = "setup"
        # name, layer, start, end, parent index, unit, self seconds, layer-self seconds
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list = []
        self._io_depth = 0
        self._bindings: list = []

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers: dict = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "zigzag" and not modname.startswith("zigzag."):
                continue
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_") or obj.__name__ in SKIP:
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("zigzag.") or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                setattr(mod, attr, wrappers[id(obj)])
                self._bindings.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._bindings):
            setattr(mod, attr, obj)
        self._bindings.clear()

    def _wrap(self, func, layer: str):
        name = f"{layer}.{func.__name__}"
        stack, spans, counter = self._stack, self.spans, COUNTERS.get(name)
        text_in, text_out = func.__name__ in TEXT_IN, func.__name__ in TEXT_OUT

        @functools.wraps(func)
        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            outer_io = layer == "io" and self._io_depth == 0
            self._io_depth += layer == "io"
            # frame: span index, layer, time in child spans, layer-self time of same-layer children
            frame = [index, layer, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._io_depth -= layer == "io"
                parent = stack[-1] if stack else None
                own = (end - start) - frame[2]
                in_layer = own + frame[3]
                if parent is not None:
                    parent[2] += end - start
                    if parent[1] == layer:
                        parent[3] += in_layer
                spans[index] = (name, layer, start, end, parent[0] if parent else None, self.unit, own, in_layer)
            counts = self.counts[self.unit]
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] += value
            if outer_io and text_in and args and isinstance(args[0], str):
                counts["io.bytes_read"] += len(args[0].encode("utf-8"))
            if outer_io and text_out and isinstance(result, str):
                counts["io.bytes_written"] += len(result.encode("utf-8"))
            return result

        return span

    def unit_metrics(self) -> dict:
        """Per unit id: seconds and calls per span name, self seconds per layer, counters."""
        out: dict = defaultdict(lambda: defaultdict(int))
        for name, layer, _, _, _, unit, own, in_layer in self.spans:
            m = out[unit]
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += in_layer
            m[f"{layer}.self_s"] += own
        for unit, counts in self.counts.items():
            out[unit].update(counts)
        return out

    def write(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, _, start, end, parent, unit, _, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "unit": unit}) + "\n")


def layer_metrics(tracer: Tracer, unit_seconds: dict, overhead: float, wanted) -> dict:
    """Per-layer metric values: medians over the traced units (wall seconds
    by unit id), setup-only metrics from the traced set-up, and the given
    tracing overhead."""
    per_unit = tracer.unit_metrics()
    setup = per_unit.get("setup", {})
    units = list(unit_seconds)
    for u in units:
        m = per_unit[u]
        for layer in LAYERS:
            m[f"{layer}.share"] = m[f"{layer}.self_s"] / unit_seconds[u]
        decided, total = m["tower.verdicts_decided"], m["tower.verdicts"]
        m["tower.verdicts_decided_ratio"] = decided / total if total else 0.0
    values = {}
    for name in wanted:
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name.startswith("setup."):
            values[name] = setup.get(name.removeprefix("setup."), 0)
        else:
            values[name] = statistics.median(per_unit[u].get(name, 0) for u in units)
    return values
