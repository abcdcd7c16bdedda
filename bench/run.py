"""Run one workload of the latinplex benchmark and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run it from the root of a latinplex checkout: the code under test is
src/latinplex.  Inputs come from the seed.  The run sets up several times in
fresh interpreters (setup_s), warms up, then runs closed-loop passes over
the workload's query list until --seconds is used, checking every answer
after each pass.  Times are scaled to a reference machine speed by the
probes of speed.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
records the seed, the machine, sample counts and any failures.  A traced
run also writes its spans to bench/out/trace-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_QUERIES = 100  # so that p90 has at least ten samples beyond it
MEASURE_LIMIT_S = 120.0  # no pass starts after this many seconds of a run, so it ends within 180 s
PROCESS_REPEATS = 5

TIMED_CALLS = (
    "plexes.enumerate_transversals", "plexes.max_disjoint_transversals",
    "plexes.find_orthogonal_mate", "plexes.find_kplex", "plexes.find_near_transversal",
    "plexes.find_quasi_transversal", "plexes.max_disjoint_quasi_transversals",
    "lsgraph.gamma_k_exact", "lsgraph.build_graph", "lsgraph.is_k_dominating",
    "core.LatinSquare", "core.load_square_text", "core.gen",
    "constructions.build", "constructions.verify_certificate", "constructions.json",
)
FOUND_FRAC = ("plexes.find_kplex", "plexes.find_near_transversal",
              "plexes.find_quasi_transversal", "plexes.max_disjoint_quasi_transversals")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, as BENCHMARK.json lists them."""
    spec = []
    for call in TIMED_CALLS:
        spec += [(f"{call}.self_s", "s", "lower"), (f"{call}.calls", "count", "higher")]
        if call in FOUND_FRAC:
            spec.append((f"{call}.found_frac", "ratio", "higher"))
    spec += [
        ("plexes.enumerate_transversals.transversals", "count", "higher"),
        ("plexes.check.self_s", "s", "lower"),
        ("plexes.check.calls", "count", "higher"),
        ("constructions.json.bytes", "B", "lower"),
        ("constructions.build.formula_frac", "ratio", "higher"),
        ("cli.process_s", "s", "lower"),
        ("cli.interp_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.calls", "count", "higher"),
        ("cli.stdout_bytes", "B", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return spec


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Measurement:
    def __init__(self):
        self.pass_s: list[float] = []  # sum of the scaled latencies of each pass
        self.latency_s: list[float] = []  # scaled
        self.raw_pass_s: list[float] = []  # the same, unscaled
        self.raw_latency_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []


def measure(workload, tracer, budget_s: float, min_queries: int, out: Measurement,
            stop_at: float) -> None:
    """Closed-loop passes until the budget would be exceeded (and at least
    `min_queries` queries and one pass are done), or the clock passes
    `stop_at`.  Answers are checked after each pass, outside the timed
    region."""
    start = perf_counter()
    with workload.speed_probe() as probes:
        while True:
            results = []
            # every pass starts from a collected heap; garbage a pass leaves in
            # reference cycles still counts toward its peak memory
            gc.collect()
            probes.sample()
            for query in workload.queries:
                if probes.due():
                    probes.sample()
                tracer.query = query.qid
                t0 = perf_counter()
                try:
                    result, error = tracer.call("query", query.run, tracer), None
                except Exception as exc:  # an unexpected exception is a failed query
                    result, error = None, f"{type(exc).__name__}: {exc}"
                results.append((query, result, error, t0, perf_counter()))
            probes.sample()
            raw, scaled = zip(*(probes.scale(t0, t1) for _, _, _, t0, t1 in results))
            out.pass_s.append(sum(scaled))
            out.latency_s += scaled
            out.raw_pass_s.append(sum(raw))
            out.raw_latency_s += raw
            for query, result, error, _, _ in results:
                out.attempted += 1
                if error is None:
                    try:
                        error = query.check(result)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error:
                    out.failures.append(f"{query.qid}: {error}")
            elapsed = perf_counter() - start
            done = len(out.latency_s) >= min_queries
            if perf_counter() > stop_at or (done and elapsed + median(out.raw_pass_s) > budget_s):
                return


def setup_times(args) -> list[float]:
    """Wall time of fresh interpreters that import latinplex, build the
    corpus and warm up, then exit; scaled by the probes run around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # children inherit it: probes see their CPU
    try:
        for _ in range(SETUP_REPEATS):
            before = speed.probe()
            t0 = perf_counter()
            subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
            elapsed = perf_counter() - t0
            times.append(elapsed * 2 * speed.PROBE_REF_S / (before + speed.probe()))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def layer_metrics(tracer, traced: Measurement, untraced: Measurement, workload) -> dict:
    """Per-layer numbers per traced pass, derived from the spans."""
    passes = len(traced.pass_s)
    self_s, calls, durations = tracer.self_times()
    counters = tracer.counters
    values = {}
    for call in TIMED_CALLS + ("plexes.check",):
        values[f"{call}.self_s"] = self_s.get(call, 0.0) / passes
        values[f"{call}.calls"] = calls[call] / passes
    for call in FOUND_FRAC:
        values[f"{call}.found_frac"] = (
            counters[f"{call}.found"] / calls[call] if calls[call] else 0.0)
    values["plexes.enumerate_transversals.transversals"] = (
        counters["plexes.enumerate_transversals.transversals"] / passes)
    values["constructions.json.bytes"] = counters["constructions.json.bytes"] / passes
    builds = calls["constructions.build"]
    values["constructions.build.formula_frac"] = (
        counters["constructions.build.formula"] / builds if builds else 0.0)
    values["cli.process_s"] = median(durations["cli.process"]) if calls["cli.process"] else 0.0
    values["cli.interp_s"], values["cli.import_s"] = (
        workload.process_baseline(PROCESS_REPEATS) if hasattr(workload, "process_baseline")
        else (0.0, 0.0))
    values["cli.calls"] = calls["cli.process"] / passes
    values["cli.stdout_bytes"] = counters["cli.stdout_bytes"] / passes
    values["trace.overhead_frac"] = median(traced.pass_s) / median(untraced.pass_s) - 1
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "latinplex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "witness", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "latinplex" / "__init__.py").is_file():
        print(f"error: no latinplex sources at {SRC}; run from a latinplex checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import latinplex
    if Path(latinplex.__file__).resolve().parent != (SRC / "latinplex").resolve():
        print(f"error: imported latinplex from {latinplex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.setup_only:
        workload = workloads.make(args.workload, args.seed)
        try:
            for query in workload.warmup:
                query.run(spans.NullTracer())
        finally:
            workload.close()
        return 0

    stop_at = perf_counter() + MEASURE_LIMIT_S
    setup = setup_times(args)
    workload = workloads.make(args.workload, args.seed)
    t0 = perf_counter()
    untraced, traced = Measurement(), Measurement()
    try:
        for query in workload.warmup:
            query.run(spans.NullTracer())
        if args.trace:
            tracer = spans.Tracer()
            measure(workload, spans.NullTracer(), args.seconds / 2, 0, untraced, stop_at)
            measure(workload, tracer, args.seconds / 2, 0, traced, stop_at)
            metrics = layer_metrics(tracer, traced, untraced, workload)
            (BENCH / "out").mkdir(exist_ok=True)
            tracer.write(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl", t0)
        else:
            measure(workload, spans.NullTracer(), args.seconds, MIN_QUERIES, untraced, stop_at)
            lat = untraced.latency_s
            values = {
                "wall_s": (median(untraced.pass_s), "s"),
                "query_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
                "query_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
                "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
                "setup_s": (median(setup), "s"),
            }
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    finally:
        workload.close()

    attempted = untraced.attempted + traced.attempted
    failures = untraced.failures + traced.failures
    n_lat = len(untraced.latency_s)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        **code_identity(),
        "samples": {"passes": len(untraced.pass_s), "traced_passes": len(traced.pass_s),
                    "queries": n_lat, "beyond_p90": n_lat - math.ceil(0.9 * n_lat),
                    "setup_runs": len(setup), "peak_rss_mb": 1},
        "unscaled": {
            "wall_s": median(untraced.raw_pass_s),
            "query_p50_ms": percentile(untraced.raw_latency_s, 0.5) * 1e3,
            "query_p90_ms": percentile(untraced.raw_latency_s, 0.9) * 1e3,
        },
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "expected_sources": sorted(workload.expected.used),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
