"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Run from the repository root; it takes a few minutes.  It checks that:
every workload runs with and without tracing; each prints exactly the
metrics BENCHMARK.json names, with their units; no query fails; the
per-layer list in run.py matches BENCHMARK.json; and that, in a directory
holding only BENCHMARK.json and the benchmark's files, the benchmark exits
with an error and prints no result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          stdin=subprocess.DEVNULL)


def check_result(workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace={trace}: exit {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        info = json.loads(done.stdout.splitlines()[-2])["info"]
        fail(f"{workload} trace={trace}: failures {info['failures']}")
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(want))}")
    print(f"ok   {workload} trace={trace}: {result['attempted']} queries, all correct")


def check_without_sources() -> None:
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        done = run(bare, SPEC["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout:
            fail("the benchmark ran without the latinplex sources")
    print("ok   refuses to run without the latinplex sources")


def main() -> None:
    sys.path.insert(0, str(BENCH))
    import run as bench_run

    names = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    if names != bench_run.per_layer_spec():
        fail("per_layer in BENCHMARK.json differs from run.per_layer_spec()")
    check_without_sources()
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(workload["name"], trace)


if __name__ == "__main__":
    main()
