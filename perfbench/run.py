#!/usr/bin/env python3
"""Benchmark of the zigzag library on three verified workloads.

Run from the repository root:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --self-test

One run sets up one workload from the seed, then runs units for the given
seconds, one at a time in this process.  Every unit is checked against
closed-form answers (see workloads.py); a unit that raises or mismatches
counts as failed and the run goes on.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, its times in reference seconds (see
probe()) with the raw wall times printed beside them; with --trace 1 it
alternates untraced and traced units and reports the per-layer metrics,
with the tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Per-run records and spans go to
.bench_build/perfbench/.
"""

import time

T0 = time.perf_counter()  # set-up time is counted from here, before numpy or zigzag load

import os  # noqa: E402

# One BLAS thread, pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
NAMES = ("tower", "flat_products", "spectral_transport")
# Set-ups per run: this process and SETUP_REPEATS fresh ones; setup_s is their median.
SETUP_REPEATS = 6
TAIL_BEYOND = 10
# Sets the scale of reference seconds only: about the probe's time on the
# 2-CPU Xeon VM (Python 3.11) the benchmark was defined on, when its host
# was quiet, so that reference seconds read close to wall seconds there.
PROBE_REF_S = 0.028


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed right now.

    On a shared host the speed of this process's CPU swings by up to 1.8x
    for tens of seconds at a time.  Each unit's and each set-up's wall time
    is rescaled by PROBE_REF_S over the probe time taken beside it
    ("reference seconds"), which cancels most of that swing; the raw wall
    times are reported beside them.
    """
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return time.perf_counter() - start


def tail(samples: list) -> tuple:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile); with TAIL_BEYOND samples or fewer, the minimum."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def import_program():
    """Import zigzag from this checkout's sources, then the workloads that call it."""
    if not (SRC / "zigzag" / "__init__.py").is_file():
        raise SystemExit(f"error: no zigzag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zigzag

    if Path(zigzag.__file__).resolve().parent != SRC / "zigzag":
        raise SystemExit(f"error: imported zigzag from {zigzag.__file__}, not from {SRC}")
    import workloads

    return workloads


def run_unit(wl) -> tuple:
    """One unit: (seconds spent in the program, mean probe seconds just
    before and after, passed its checks)."""
    gc.collect()  # every unit starts from a collected heap
    before = probe()
    start = time.perf_counter()
    try:
        result = wl.unit()
        seconds = time.perf_counter() - start
        wl.check(result)
        ok = True
    except Exception:  # a failed unit is counted, and the run goes on
        seconds = time.perf_counter() - start
        print(f"unit failed:\n{traceback.format_exc()}", file=sys.stderr)
        ok = False
    return seconds, (before + probe()) / 2, ok


def fresh_setups(args) -> list:
    """(set-up seconds, probe seconds) of SETUP_REPEATS fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, speed = proc.stdout.split()[-2:]
        out.append((float(seconds), float(speed)))
    return out


def measure(args, spec: dict, workdir: Path) -> dict:
    workloads = import_program()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    finally:
        if tracer:
            tracer.uninstall()
    own_setup = (time.perf_counter() - T0, (probe() + probe()) / 2)
    if args.setup_only:
        print(*own_setup)
        return {}
    setups = [own_setup] + (fresh_setups(args) if tracer is None else [])

    times, ref_times, probes, traced, failed = [], [], [], set(), 0
    min_units = 1 if tracer is None else 2  # a traced run needs one unit each way
    start = time.perf_counter()
    # A unit starts only if a typical one would end within the run.
    while len(times) < min_units or time.perf_counter() - start + statistics.median(times) <= args.seconds:
        traced_unit = tracer is not None and len(times) % 2 == 1
        if traced_unit:
            tracer.unit = len(times)
            tracer.install()
        try:
            seconds, speed, ok = run_unit(wl)
        finally:
            if traced_unit:
                tracer.uninstall()
        if traced_unit:
            traced.add(len(times))
        times.append(seconds)
        probes.append(speed)
        ref_times.append(seconds * PROBE_REF_S / speed)
        failed += not ok
    measured = time.perf_counter() - start

    plain = [i for i in range(len(times)) if i not in traced]
    ok_units = len(times) - failed
    wall_tail, pct = tail([times[i] for i in plain])
    ref_tail, _ = tail([ref_times[i] for i in plain])
    # Recorded and printed beside the metrics: the tail, which with fewer
    # than twenty units is no tail and too noisy to bound, and the raw
    # wall-clock figures.
    extra = {
        "unit_ref_s.tail": ref_tail,
        "unit_s.p50": statistics.median(times[i] for i in plain),
        "unit_s.tail": wall_tail,
        "items_per_s": wl.items * ok_units / sum(times),
        "probe_s.p50": statistics.median(probes),
        "setup_s": statistics.median(seconds for seconds, _ in setups),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": len(times), "failed": failed, "fail_rate": failed / len(times),
        "measured_s": measured, "unit_s": times, "probe_s": probes, "traced_units": sorted(traced),
        "setups_s": setups, "tail_percentile": pct, "tail_samples": len(plain),
        "items_per_unit": wl.items, "item": wl.item, "sizes": wl.sizes, "extra": extra,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(seconds * PROBE_REF_S / speed for seconds, _ in setups),
            "unit_ref_s.p50": statistics.median(ref_times),
            "items_per_ref_s": wl.items * ok_units / sum(ref_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        overhead = (statistics.median(ref_times[i] for i in traced)
                    - statistics.median(ref_times[i] for i in plain))
        metrics = spans.layer_metrics(tracer, {i: times[i] for i in traced}, overhead,
                                      [m["name"] for m in wanted])
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", T0)
    record["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return record


def report(record: dict) -> None:
    tag = "trace" if record["trace"] else "plain"
    (OUT / f"{record['workload']}-seed{record['seed']}-{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"workload {record['workload']}  seed {record['seed']}  units {record['attempted']}  "
          f"failed {record['failed']}  fail_rate {record['fail_rate']:.3g} (of {record['attempted']} attempted)")
    print(f"  per unit: {record['items_per_unit']} {record['item']}; sizes {json.dumps(record['sizes'])}")
    notes = {
        "setup_s": f"median of {len(record['setups_s'])} set-ups",
        "items_per_ref_s": record["item"],
    }
    for name, m in record["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {m['value']:<14.6g} {m['unit']}{note}")
    print(f"  tail (p{record['tail_percentile']:.1f} of {record['tail_samples']} units) and raw wall clock: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["extra"].items()))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


def run_all(args) -> int:
    """Each workload in its own fresh process; their results, then all of them as one JSON line."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def self_test(seed: int, workdir: Path) -> int:
    """A wrong expected value must turn a unit into a failure; the right one must not."""
    workloads = import_program()
    bad = 0
    for name in NAMES:
        wl = workloads.WORKLOADS[name](seed, workdir)
        key, wrong = workloads.WRONG[name]
        right = wl.expected[key]
        wl.expected[key] = wrong
        *_, ok_wrong = run_unit(wl)
        wl.expected[key] = right
        *_, ok_right = run_unit(wl)
        passed = not ok_wrong and ok_right
        bad += not passed
        print(f"self-test {name}: expected {key}={wrong!r} {'failed' if not ok_wrong else 'PASSED'}, "
              f"{key}={right!r} {'passed' if ok_right else 'FAILED'}: {'ok' if passed else 'WRONG'}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that a wrong answer counts as a failure")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if args.self_test:
            return self_test(args.seed, workdir)
        record = measure(args, spec, workdir)
        if record:
            report(record)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
