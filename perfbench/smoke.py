"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at toy size, untraced and traced, and checks the result
schema: the final line's keys, every metric of BENCHMARK.json with its unit,
and the README's per-workload metrics.  Then it plants a wrong report value
and a nonzero exit and requires each to raise error_rate and fail the run,
and requires a directory holding only BENCHMARK.json and perfbench/ to fail
without printing a result.  Exits nonzero on the first problem list that is
not empty.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
WORKLOADS = ("tables", "transient", "cli")
# README metric names per workload, with units
README_METRICS = {
    "tables": {"tables_cells_per_s": "cells/s"},
    "transient": {"rhea_steps_per_s": "steps/s",
                  "timedep_steps_per_s": "steps/s", "cv_s": "s"},
    "cli": {"cli_cmd_s.p50": "s", "cli_pass_s": "s"},
}
COMMON_METRICS = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
INJECTIONS = (("tables", "report"), ("tables", "exit"),
              ("transient", "report"), ("cli", "report"), ("cli", "exit"))


def run(cwd: Path, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED),
         "--seconds", "1", "--toy", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        line = None
    return proc.returncode, line, proc


def result_file(workload: str, trace: int) -> dict:
    path = (ROOT / ".perfbench_work" / "results"
            / f"{workload}-seed{SEED}-trace{trace}-toy.json")
    return json.loads(path.read_text())


def check_schema(workload, trace, rc, line, bench, problems):
    where = f"{workload} trace={trace}"
    if rc != 0 or line is None:
        problems.append(f"{where}: exit {rc}, final line {line!r}")
        return
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: final line keys {sorted(line)}")
    if not (line["correct"] is True and line["failed"] == 0
            and isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append(f"{where}: not a clean run: {line}")
    declared = bench["per_layer" if trace else "end_to_end"]
    if set(line["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = line["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or isinstance(value, bool) \
                or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {got}")
    result = result_file(workload, trace)
    if trace:
        if not result.get("counts_repeat"):
            problems.append(f"{where}: counts differ between traced passes")
        return
    wanted = {**COMMON_METRICS, **README_METRICS[workload]}
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not got.get("n"):
            problems.append(f"{where}: README metric {name} = {got}")
    if result["metrics"]["error_rate"]["value"] != 0:
        problems.append(f"{where}: error_rate is not 0")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, line, _ = run(ROOT, "--workload", workload,
                              "--trace", str(trace))
            check_schema(workload, trace, rc, line, bench, problems)
            print(f"smoke: {workload} trace={trace}: exit {rc}", flush=True)

    for workload, kind in INJECTIONS:
        rc, line, _ = run(ROOT, "--workload", workload, "--inject", kind)
        rate = result_file(workload, 0)["metrics"]["error_rate"]["value"]
        caught = (rc != 0 and line is not None and line["correct"] is False
                  and line["failed"] >= 1 and rate > 0)
        print(f"smoke: inject {kind} into {workload}: exit {rc}, "
              f"error_rate {rate:.3g}", flush=True)
        if not caught:
            problems.append(f"inject {kind} into {workload} not caught: "
                            f"exit {rc}, {line}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, line, _ = run(bare, "--workload", "tables")
    print(f"smoke: without src/: exit {rc}", flush=True)
    if rc == 0 or line is not None:
        problems.append(f"without src/: exit {rc}, printed {line}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: PASS" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
