"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  This process uses only the standard
library: it times set-up (process start until the worker has its inputs)
in SETUP_SAMPLES fresh worker processes, lets the last one measure the
workload, prints every metric by name with its unit, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every operation passed its checks.

`--workload all` runs every workload in turn and prints all their metrics.
`--record` re-records `expected.json` (the outputs the checks compare
against) from the current `src/`; `--toy` selects the smoke-test sizes and
`--inject` plants a wrong output or a nonzero exit to prove the checks fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tables", "transient", "cli")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 175.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # one BLAS thread: a second one spins between calls and slows the
    # measuring thread on a 2-CPU host
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.setdefault(var, "1")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def start_worker(argv: list[str], log, deadline: float):
    """Start a worker in its own session; a timer kills the whole session
    (the worker and any subprocess it started) at the deadline."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")] + argv,
        stdout=subprocess.PIPE, stderr=log, env=worker_env(), cwd=ROOT,
        text=True, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    timer.daemon = True
    timer.start()
    return proc, timer


def run_worker(argv, work: Path, deadline: float, setup_only=False):
    """Run one worker; returns (set-up seconds or None, exit code)."""
    with open(work / "worker.log", "a") as log:
        t0 = time.perf_counter()
        proc, timer = start_worker(argv + (["--setup-only"] if setup_only
                                           else []), log, deadline)
        setup_s = None
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    setup_s = time.perf_counter() - t0
                    break
            proc.stdout.read()
        except BaseException:  # SIGTERM or Ctrl-C: no worker outlives us
            timer.function()
            raise
        finally:
            timer.cancel()
            rc = proc.wait()
    return setup_s, rc


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, workload: str) -> dict | None:
    """Measure one workload; returns the full result, or None if the worker
    failed to produce one."""
    suffix = "-toy" if args.toy else ""
    work = ROOT / ".perfbench_work" / f"{workload}{suffix}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(work)]
    argv += ["--toy"] if args.toy else []
    argv += ["--inject", args.inject] if args.inject else []
    argv += ["--record"] if args.record else []
    setups = []
    if not args.trace and not args.record:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, rc = run_worker(argv, work, deadline, setup_only=True)
            if rc != 0 or setup_s is None:
                break
            setups.append(setup_s)
    setup_s, rc = run_worker(argv, work, deadline)
    if setup_s is not None:
        setups.append(setup_s)
    result_path = work / "result.json"
    if rc != 0 or len(setups) < (1 if args.trace or args.record
                                 else SETUP_SAMPLES) \
            or not result_path.exists():
        log = (work / "worker.log").read_text()[-4000:]
        print(f"perfbench: {workload} worker failed (exit {rc})\n{log}",
              file=sys.stderr)
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_samples_s"] = setups
    if setups:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s", "n": len(setups)}
    return result


def summarize(args, workload: str, result: dict, bench: dict) -> dict:
    """Print the workload's metrics; return the final-line summary."""
    ops = [o for p in result["passes"] for o in p["ops"]]
    failures = [(o["name"], e) for o in ops for e in o["errors"]]
    failed = sum(1 for o in ops if o["errors"])
    plain = sum(1 for p in result["passes"] if not p["traced"])
    print(f"perfbench {workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(result['passes'])} passes ({plain} untraced), "
          f"{len(ops)} operations, {failed} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {fmt(m['value']):>14s} {m['unit']:8s} "
              f"n={m['n']}")
    if args.trace:
        for name, value in result["per_layer"].items():
            print(f"  {name:36s} {fmt(value):>14s}")
        if not result["counts_repeat"]:
            print("  warning: counts differ between traced passes")
    for name, err in failures[:20]:
        print(f"perfbench {workload}: {name}: {err}", file=sys.stderr)

    if args.trace:
        wanted = {m["name"]: (result["per_layer"][m["name"]], m["unit"])
                  for m in bench["per_layer"]}
    else:
        wanted = {}
        for m in bench["end_to_end"]:
            got = result["metrics"][m["name"]]
            if got["unit"] != m["unit"]:
                raise SystemExit(f"{m['name']}: unit {got['unit']} "
                                 f"!= {m['unit']}")
            wanted[m["name"]] = (got["value"], m["unit"])
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in wanted.items()}}


def record(args) -> int:
    """Rewrite expected.json from one pass of every workload and size."""
    expected = {}
    for toy in (True, False):
        args.toy = toy
        mode = "toy" if toy else "full"
        expected[mode] = {}
        for workload in WORKLOADS:
            result = run_one(args, workload)
            if result is None:
                return 1
            errors = [e for p in result["passes"] for o in p["ops"]
                      for e in o["errors"]]
            if errors:
                print(f"perfbench: not recording {workload}: {errors[:5]}",
                      file=sys.stderr)
                return 1
            expected[mode][workload] = result["recorded"]
    with open(BENCH / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--inject", choices=("report", "exit"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dunking" / "__init__.py").is_file():
        print(f"perfbench: no src/dunking under {ROOT}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.record:
        args.seconds = 0.0
        return record(args)
    if args.workload is None:
        ap.error("--workload is required")
    bench = load_benchmark()
    results_dir = ROOT / ".perfbench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_one(args, workload)
        if result is None:
            return 1
        summary = summarize(args, workload, result, bench)
        name = f"{workload}-seed{args.seed}-trace{args.trace}" \
            f"{'-toy' if args.toy else ''}.json"
        with open(results_dir / name, "w") as fh:
            json.dump({**result, "summary": summary}, fh, indent=1)
        line["correct"] &= summary["correct"]
        line["attempted"] += summary["attempted"]
        line["failed"] += summary["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        line["metrics"].update({prefix + k: v
                                for k, v in summary["metrics"].items()})
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
