"""One benchmark workload in one process; started by `run.py`.

The worker imports `dunking` from the checkout's `src/`, builds the
workload's inputs from the seed, prints READY (the parent times set-up from
process start to that line), then runs closed-loop passes for the requested
number of seconds and writes `result.json` into its work directory.

Every operation is checked: an operation fails when it raises, exits
nonzero, or produces an output that disagrees with an independent truth or
with the values recorded in `expected.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# Problem sizes.  "full" is the benchmark; "toy" keeps the same code paths
# at a size the smoke test can run in seconds.
SIZES = {
    "full": dict(tables_levels=6, rhea_level=6, rhea_steps=2000,
                 rhea_snapshots=50, timedep_level=3, timedep_steps=8000,
                 cli_phi_level=5, cli_rhe_level=4, cli_tables_levels=4,
                 cli_samples=2000, cli_points=20000, cli_series=200001),
    "toy": dict(tables_levels=3, rhea_level=3, rhea_steps=400,
                rhea_snapshots=20, timedep_level=2, timedep_steps=400,
                cli_phi_level=3, cli_rhe_level=3, cli_tables_levels=2,
                cli_samples=50, cli_points=2000, cli_series=20001),
}
REL_TOL = 1e-9           # against values recorded in expected.json
GEOMETRY_TOL = 0.02      # acceptance test 01
ETA_TOL_PHI = 0.03      # acceptance test 02: phi, phi_ub, phi_ub_est
ETA_TOL_OTHER = 0.02    # acceptance test 02: delta_eta, variance
STOP_AFTER_S = 150.0     # never start a pass after this much run time


class Op:
    """One checked operation: its wall time, work done and failures."""

    def __init__(self, name: str):
        self.name = name
        self.wall_s = 0.0
        self.work = 0
        self.errors: list[str] = []
        self.obs: dict[str, object] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@contextlib.contextmanager
def timed(op: Op):
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:  # counted as a failed operation, run goes on
        op.errors.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        op.wall_s = time.perf_counter() - t0


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(b), 1e-300)


def compare_recorded(op: Op, expected: dict | None) -> None:
    """Check every value recorded for this operation at the baseline."""
    if expected is None:
        return
    for key, want in expected.items():
        if key not in op.obs:
            op.errors.append(f"{key}: missing from output")
            continue
        got = op.obs[key]
        if isinstance(want, float) and not isinstance(got, str):
            op.check(rel_close(float(got), want, REL_TOL),
                     f"{key}: {got!r} != recorded {want!r}")
        else:
            op.check(got == want, f"{key}: {got!r} != recorded {want!r}")


def read_report(path: Path) -> dict:
    """Parse a `key = value` report; numbers become floats."""
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


@contextlib.contextmanager
def quiet():
    """Swallow what the library prints, so only the benchmark's lines show."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        yield


# ----------------------------------------------------------------- tables

class Tables:
    """`dunking tables --levels 6` in-process: mesh, fem, eigen, budget."""

    def __init__(self, args, size, work: Path):
        from dunking import cli
        self.cli = cli
        self.levels = size["tables_levels"]
        self.out = work / "tables_out"
        self.reference = load_reference()
        self.first_bytes = None

    def warmup(self):
        with quiet():
            self.cli.main(["tables", "--levels", "2",
                           "--output-dir", str(self.out)])

    def run_pass(self, inject):
        op = Op("tables")
        levels = "x" if inject == "exit" else str(self.levels)
        with timed(op):
            with quiet():
                rc = self.cli.main(["tables", "--levels", levels,
                                    "--output-dir", str(self.out)])
        op.check(rc == 0, f"tables exited {rc}")
        if rc != 0:
            return [op]
        data = (self.out / "tables.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        op.work = len(rows)
        if self.first_bytes is None:
            self.first_bytes = data
        op.check(data == self.first_bytes, "tables.csv differs between passes")
        op.check(len(rows) == len(self.reference) == 92,
                 f"{len(rows)} cells, reference has {len(self.reference)}")
        for row in rows:
            key = "/".join((row["table"], row["shape"], row["variation"],
                            row["quantity"]))
            comp = float(row["computed"])
            op.obs["cell:" + key] = comp
            if self.levels == 6:
                ref = self.reference.get(key)
                if ref is None:
                    op.errors.append(f"{key}: not a reference cell")
                    continue
                ok, tol = reference_ok(key, row["shape"], row["quantity"],
                                       comp, ref)
                op.check(ok, f"{key}: {comp!r} vs reference {ref!r} "
                             f"(tol {tol})")
        return [op]


def load_reference() -> dict:
    """The bundled reference cells, read directly from the package data."""
    path = SRC / "dunking" / "data" / "reference_constants.csv"
    with open(path) as fh:
        return {"/".join((r["table"], r["shape"], r["variation"],
                          r["quantity"])): float(r["value"])
                for r in csv.DictReader(fh)}


def reference_ok(key, shape, quantity, comp, ref):
    """Tolerances of acceptance tests 01 and 02 (level-6 meshes)."""
    if abs(ref) <= 1e-12:
        return abs(comp - ref) < 1e-10, 1e-10
    if key.startswith("geometry_constants"):
        tol = GEOMETRY_TOL
        if shape == "disk" and quantity in ("phi111", "gamma_over_lambda"):
            tol = 0.01
    else:
        tol = ETA_TOL_PHI if quantity in ("phi", "phi_ub", "phi_ub_est") \
            else ETA_TOL_OTHER
    return abs(comp - ref) / abs(ref) < tol, tol


# -------------------------------------------------------------- transient

class Transient:
    """One pass: autonomous BDF2 on the level-6 disk, the CV of its
    snapshots, then time-dependent BDF2 on the level-3 disk.  The two solves
    use `rhe._march` in opposite ways: factor once, and factor every step."""

    PERIOD = 0.025

    def __init__(self, args, size, work: Path):
        from dunking import budget, fem, mesh, rhe
        self.rhe = rhe
        # autonomous: step eta, B = 0.01 gamma
        self.rhea_steps = size["rhea_steps"]
        self.snapshots = size["rhea_snapshots"]
        self.mesh = mesh.generate_canonical("disk", size["rhea_level"])
        self.fields = fem.FieldSet.from_constants(self.mesh)
        self.fields.eta = fem.eta_variation(self.mesh, "step")
        self.gamma = mesh.geometry_stats(self.mesh).gamma
        self.B = 0.01 * self.gamma
        phi = budget.solve_phi(self.mesh, self.fields).phi
        self.lumping_bound = phi * self.B / (self.gamma * math.e)
        # time-dependent: g(t) = 1 + 0.5 sin(2 pi t / PERIOD), t_f = 3/(B gamma)
        self.td_steps = size["timedep_steps"]
        self.td_mesh = mesh.generate_canonical("disk", size["timedep_level"])
        self.td_fields = fem.FieldSet.from_constants(self.td_mesh)
        gs = mesh.geometry_stats(self.td_mesh)
        self.td_B = 0.01 * gs.gamma
        self.t_f = 3.0 / (self.td_B * gs.gamma)
        self.td_reference = rhe.solve_rhea(
            self.td_mesh, self.td_fields,
            rhe.RobinCoefficient(self.td_B, eta=self.td_fields.eta),
            t_f=self.t_f, steps=self.td_steps, max_snapshots=0)
        tt = np.linspace(0.0, self.t_f, 200001)
        l1l1 = gs.perimeter * np.trapezoid(
            np.abs(0.5 * np.sin(2 * np.pi * tt / self.PERIOD)), tt)
        self.temporal = budget.assemble_budget(
            self.td_B, self.td_B, gs.gamma, 1.0,
            temporal_inputs=(gs.area, l1l1)).temporal

    def solve_rhea(self, steps):
        robin = self.rhe.RobinCoefficient(self.B, eta=self.fields.eta)
        return self.rhe.solve_rhea(self.mesh, self.fields, robin, steps=steps,
                                   max_snapshots=self.snapshots)

    def solve_timedep(self, steps):
        robin = self.rhe.RobinCoefficient(
            self.td_B, eta=self.td_fields.eta,
            time_scale=lambda t: 1.0 + 0.5 * math.sin(2 * math.pi * t
                                                      / self.PERIOD))
        return self.rhe.solve_rhe_timedep(self.td_mesh, self.td_fields, robin,
                                          t_f=self.t_f, steps=steps,
                                          max_snapshots=0)

    def warmup(self):
        sol = self.solve_rhea(200)
        self.rhe.coefficient_of_variation(sol, self.mesh)
        self.solve_timedep(self.td_steps // 8)

    def run_pass(self, inject):
        return self.rhea_ops() + [self.timedep_op()]

    def rhea_ops(self):
        op = Op("solve_rhea")
        sol = None
        with timed(op):
            sol = self.solve_rhea(self.rhea_steps)
        op.work = self.rhea_steps
        if sol is None:
            return [op]
        snaps = sol.snapshots
        op.check(len(sol.u_avg) == self.rhea_steps + 1, "wrong number of steps")
        op.check(snaps.min() >= -1e-8 and snaps.max() <= 1.0 + 1e-8,
                 f"maximum principle violated: [{snaps.min()}, {snaps.max()}]")
        gap = float(np.max(np.abs(
            sol.u_avg - np.exp(-self.gamma * self.B * sol.times))))
        op.check(gap <= self.lumping_bound,
                 f"lumping bound violated: gap {gap} > {self.lumping_bound}")
        op.obs.update(u_avg_final=float(sol.u_avg[-1]),
                      lumping_ratio=gap / self.lumping_bound)
        cv_op = Op("coefficient_of_variation")
        cv = None
        with timed(cv_op):
            cv = self.rhe.coefficient_of_variation(sol, self.mesh)
        if cv is not None:
            cv_op.check(len(cv) == len(snaps) and bool(np.all(np.isfinite(cv)))
                        and bool(np.all(cv >= 0.0)), "CV not finite/nonnegative")
            cv_op.obs.update(cv_final=float(cv[-1]), cv_max=float(cv.max()))
        return [op, cv_op]

    def timedep_op(self):
        op = Op("solve_rhe_timedep")
        sol = None
        with timed(op):
            sol = self.solve_timedep(self.td_steps)
        op.work = self.td_steps
        if sol is None:
            return op
        u = sol.u_avg
        op.check(len(u) == self.td_steps + 1 and bool(np.all(np.isfinite(u)))
                 and u.min() >= -1e-8 and u.max() <= 1.0 + 1e-8,
                 "u_avg not finite or outside [0, 1]")
        gap = float(np.max(np.abs(u - self.td_reference.u_avg)))
        op.check(gap <= self.temporal,
                 f"gap {gap} to the autonomous reference exceeds the "
                 f"temporal term {self.temporal}")
        op.obs.update(u_avg_final=float(u[-1]), gap_to_autonomous=gap)
        return op


# -------------------------------------------------------------------- cli

SERIES_META = dict(Re=100.0, Pr=0.71, r1=0.5, r2=2.0)
SERIES_PERIODS = 100.0  # series length in shedding periods t_vs
LEARN_PR = 0.71


def generate_cli_inputs(seed: int, size: dict, inputs: Path) -> dict:
    """Seeded input files for learn-q, fit-shape and steady-state.

    Returns the generating truths the reports are checked against.
    """
    from dunking import correlations
    rng = np.random.default_rng(seed)
    inputs.mkdir(parents=True, exist_ok=True)

    # learn-q: Re log-uniform on [1e1, 1e4], q log-uniform on [10^-0.5, 10^0.7]
    n = size["cli_samples"]
    Re = 10.0 ** rng.uniform(1.0, 4.0, n)
    q = 10.0 ** rng.uniform(-0.5, 0.7, n)
    cb = correlations.get_correlation("churchill_bernstein")
    with open(inputs / "samples.csv", "w") as fh:
        fh.write("Re,Nu\n")
        for r, qq in zip(Re, q):
            nu, _ = correlations.transform_correlation(cb, qq, r, LEARN_PR)
            fh.write(f"{r:.17g},{nu:.17g}\n")
    order = np.argsort(Re)
    x = np.log(Re[order])
    avg_q = float(np.sum(0.5 * (q[order][1:] + q[order][:-1]) * np.diff(x))
                  / (x[-1] - x[0]))

    # fit-shape: uniform-area spheroid surface, a = 5, b = 1, theta = 30 deg
    a, b, theta = 5.0, 1.0, 30.0
    pts = np.empty((0, 3))
    while len(pts) < size["cli_points"]:
        g = rng.standard_normal((4 * size["cli_points"], 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        w = np.sqrt(b * b * g[:, 0] ** 2 + a * a * (1.0 - g[:, 0] ** 2)) / a
        pts = np.vstack([pts, g[rng.random(len(g)) < w] * [a, b, b]])
    pts = pts[:size["cli_points"]]
    t = math.radians(theta)
    rot = np.array([[math.cos(t), -math.sin(t), 0.0],
                    [math.sin(t), math.cos(t), 0.0], [0.0, 0.0, 1.0]])
    np.savetxt(inputs / "points.csv", pts @ rot.T, delimiter=",",
               header="x,y,z", comments="", fmt="%.17g")

    # steady-state: a drift of 1% per shedding period with 0.1% noise
    f_vs = 0.2 * SERIES_META["r2"] / SERIES_META["r1"] * SERIES_META["Re"] \
        * SERIES_META["Pr"]
    t_vs = 1.0 / f_vs
    ts = np.linspace(0.0, SERIES_PERIODS * t_vs, size["cli_series"])
    nu = 10.0 * (1.0 + 0.01 * ts / t_vs) \
        * (1.0 + 1e-3 * rng.standard_normal(len(ts)))
    with open(inputs / "series.csv", "w") as fh:
        for key, val in SERIES_META.items():
            fh.write(f"# {key} = {val}\n")
        fh.write("t,nu\n")
        np.savetxt(fh, np.column_stack([ts, nu]), delimiter=",", fmt="%.17g")

    return {"q": q.tolist(), "average_q": avg_q, "s": a / b, "theta": theta}


# Independent truths: the README worked numbers (acceptance tests 06, 07)
# and the Churchill-Bernstein formula evaluated here.
def churchill_bernstein(Re, Pr):
    lam = 0.62 * math.sqrt(Re) * Pr ** (1 / 3) / (1 + (0.4 / Pr) ** (2 / 3)) ** 0.25
    return 0.3 + lam * (1 + (Re / 282000.0) ** 0.625) ** 0.8


def cli_commands(size: dict, inputs: Path) -> list[tuple[str, list[str]]]:
    return [
        ("bounds", ["bounds", "--B", "0.0680", "--B-est", "0.0678",
                    "--gamma", "4", "--phi", "1.1053"]),
        ("lcm", ["lcm", "--B", "0.0678", "--gamma", "4", "--r1", "1.0",
                 "--r2", "0.822", "--Re", "143", "--Pr", "0.71"]),
        ("correlate", ["correlate", "--name", "churchill_bernstein",
                       "--Re", "4000", "--Pr", "0.71", "--r2", "0.05"]),
        ("phi", ["phi", "--shape", "disk", "--eta", "sinusoidal",
                 "--levels", str(size["cli_phi_level"])]),
        ("rhe", ["rhe", "--shape", "square", "--levels",
                 str(size["cli_rhe_level"]), "--B", "0.04"]),
        ("tables", ["tables", "--levels", str(size["cli_tables_levels"])]),
        ("learn-q", ["learn-q", "--correlation", "churchill_bernstein",
                     "--samples", str(inputs / "samples.csv"),
                     "--Pr", str(LEARN_PR)]),
        ("fit-shape", ["fit-shape", "--points", str(inputs / "points.csv")]),
        ("steady-state", ["steady-state", "--series",
                          str(inputs / "series.csv")]),
    ]


# report fields that depend on the seeded inputs; checked against truths
SEEDED_FIELDS = {
    "learn-q": ("average_q_log",),
    "fit-shape": ("s", "theta_deg", "semi_axis", "equatorial_axis",
                  "axis_x", "axis_y", "axis_z"),
}


def check_cli_report(op: Op, cmd: str, rep: dict, out: Path,
                     truth: dict) -> None:
    """Compare a report with independent truths; keep the rest as
    observations for the recorded-value check."""
    seeded = SEEDED_FIELDS.get(cmd, ())
    op.obs.update({k: v for k, v in rep.items() if k not in seeded})

    def num(key):
        val = rep.get(key)
        if not isinstance(val, float) or not math.isfinite(val):
            op.errors.append(f"{cmd}: {key} missing or not finite: {val!r}")
            return math.nan
        return val

    if cmd == "bounds":
        op.check(abs(num("biot") - 0.001082) < 1e-6, "bounds: biot term")
        op.check(abs(num("lumping") - 0.006912) < 1e-5, "bounds: lumping term")
    elif cmd == "lcm":
        op.check(abs(num("tau") - 3.688) < 1e-3, "lcm: tau != 3.688")
        op.check(abs(num("time_scale_ratio") - 307.0) <= 1.0,
                 "lcm: time-scale ratio != 307")
    elif cmd == "correlate":
        nu = churchill_bernstein(4000.0, 0.71)
        op.check(rel_close(num("Nu"), nu, 1e-12), f"correlate: Nu != {nu}")
        op.check(rel_close(num("B"), 0.05 * nu, 1e-12), "correlate: B != r2 Nu")
    elif cmd == "phi":
        op.check(0 < num("phi") <= num("phi_ub"), "phi: not in (0, phi_ub]")
    elif cmd == "rhe":
        op.check(num("max_lcm_gap") <= num("lumping_bound"),
                 "rhe: lumping bound violated")
    elif cmd == "tables":
        op.check(rep.get("n_cells") == 92.0, "tables: n_cells != 92")
    elif cmd == "learn-q":
        q = np.loadtxt(out / "learned_q.csv", delimiter=",", skiprows=1,
                       ndmin=2)[:, 3]
        want = np.asarray(truth["q"])
        op.check(len(q) == len(want) and bool(np.all(np.abs(q - want) < 1e-6)),
                 "learn-q: learned q differs from the generating q by >= 1e-6")
        op.check(rel_close(num("average_q_log"), truth["average_q"], 1e-6),
                 "learn-q: average_q_log differs from the generating average")
    elif cmd == "fit-shape":
        op.check(abs(num("s") - truth["s"]) / truth["s"] < 0.02,
                 "fit-shape: s not within 2%")
        op.check(abs(num("theta_deg") - truth["theta"]) < 1.0,
                 "fit-shape: theta not within 1 degree")
    elif cmd == "steady-state":
        op.check(rep.get("converged") == "false",
                 "steady-state: drifting series reported converged")


class Cli:
    """The nine subcommands through `cli.main(argv)`, in a fixed order.

    In-process, like the other workloads: the import is paid once, in
    set-up, and measured there (`setup_s`) and by `cli.import_s`.
    """

    def __init__(self, args, size, work: Path):
        from dunking import cli
        self.cli = cli
        self.out = work / "cli_out"
        self.inputs = work / "inputs"
        self.truth = generate_cli_inputs(args.seed, size, self.inputs)
        self.commands = cli_commands(size, self.inputs)

    def run_cmd(self, argv, outdir: Path, op: Op) -> int:
        t0 = time.perf_counter()
        try:
            with quiet():
                rc = self.cli.main(argv + ["--output-dir", str(outdir)])
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        op.wall_s = time.perf_counter() - t0
        return rc

    def warmup(self):
        self.run_pass(None)

    def run_pass(self, inject):
        ops = []
        for i, (cmd, argv) in enumerate(self.commands):
            op = Op(cmd)
            op.work = 1
            outdir = self.out / cmd
            outdir.mkdir(parents=True, exist_ok=True)
            for old in outdir.iterdir():
                old.unlink()
            if inject == "exit" and i == 0:
                argv = argv + ["--phi", "not-a-number"]
            try:
                rc = self.run_cmd(argv, outdir, op)
                op.check(rc == 0, f"{cmd} exited {rc}")
                if rc == 0:
                    rep = read_report(
                        outdir / f"{cmd.replace('-', '_')}_report.txt")
                    check_cli_report(op, cmd, rep, outdir, self.truth)
            except Exception as exc:
                op.errors.append(f"raised {type(exc).__name__}: {exc}")
            ops.append(op)
        return ops


WORKLOADS = {"tables": Tables, "transient": Transient, "cli": Cli}


# ------------------------------------------------------------ measurement

def import_probe() -> tuple[float, int]:
    """Fresh-interpreter `import dunking.cli`: seconds, modules imported."""
    code = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); "
            "import dunking.cli; "
            "print(time.perf_counter() - t, len(sys.modules) - n)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    secs, mods = out.split()
    return float(secs), int(mods)


def median(xs):
    return statistics.median(xs) if xs else 0.0


@contextlib.contextmanager
def cpu_rotation(period_s: float = 0.25):
    """Move the calling thread to the next allowed CPU every period_s.

    On a shared host one CPU can run slower than another for tens of
    seconds; a pass that sat on one CPU would report that CPU's speed.
    Rotating makes every pass sample all CPUs alike.  Only this thread
    moves: BLAS threads and subprocesses keep every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        k = 0
        while not stop.wait(period_s):
            k += 1
            os.sched_setaffinity(tid, {cpus[k % len(cpus)]})

    rotator = threading.Thread(target=rotate, daemon=True)
    if len(cpus) > 1:
        os.sched_setaffinity(tid, {cpus[0]})
        rotator.start()
    try:
        yield
    finally:
        if rotator.is_alive():
            stop.set()
            rotator.join()
        os.sched_setaffinity(tid, cpus)


def measure(wl, args, expected, deadline_s):
    """Closed loop: passes until the time is up (at least two).  A pass
    starts only if it is expected to end less than half a pass late."""
    passes, traced_layers, traced_walls, spans = [], [], [], []
    recorded = {}
    t_begin = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t_begin
        late = elapsed + 0.5 * passes[-1]["wall_s"] if passes else elapsed
        if k >= 2 and (late >= deadline_s or elapsed >= STOP_AFTER_S):
            break
        traced = bool(args.trace) and k % 2 == 1
        inject = args.inject if k == 0 else None
        gc.collect()
        tracer = None
        if traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = wl.run_pass(inject)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        for op in ops:
            if inject == "report" and op is ops[0] and op.obs:
                key = sorted(op.obs)[0]
                if isinstance(op.obs[key], float):
                    op.obs[key] += 1e-6 * max(abs(op.obs[key]), 1.0)
                else:
                    op.obs[key] = f"{op.obs[key]}-perturbed"
            if args.record:
                recorded.setdefault(op.name, dict(op.obs))
            else:
                compare_recorded(op, expected.get(op.name))
        passes.append({"wall_s": wall, "traced": traced, "ops": [
            {"name": o.name, "wall_s": o.wall_s, "work": o.work,
             "errors": o.errors} for o in ops]})
        if tracer is not None:
            from tracer import layer_metrics
            traced_layers.append(layer_metrics(tracer))
            traced_walls.append(wall)
            spans.append((tracer.names, tracer.arrays()))
        k += 1
    return passes, traced_layers, traced_walls, spans, recorded


def end_to_end(workload: str, passes: list) -> dict:
    """End-to-end metrics from the untraced passes, with sample counts."""
    plain = [p for p in passes if not p["traced"]]
    ops = [o for p in plain for o in p["ops"]]

    def metric(value, unit, n):
        return {"value": value, "unit": unit, "n": n}

    rates = []
    for p in plain:
        busy = sum(o["wall_s"] for o in p["ops"] if o["work"])
        if busy > 0:
            rates.append(sum(o["work"] for o in p["ops"]) / busy)
    op_s = [o["wall_s"] for o in ops]

    def per_op(name):
        return [o for o in ops if o["name"] == name]

    # One latency per kind of operation (its median), combined by geometric
    # mean: every kind weighs the same, whatever its size, and a pooled
    # median would jump between kinds whose latencies are close.
    kinds = dict.fromkeys(o["name"] for o in ops)
    op_medians = [median([o["wall_s"] for o in per_op(k)]) for k in kinds]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for p in passes for o in p["ops"] if o["errors"])
    attempted = sum(len(p["ops"]) for p in passes)
    out = {"work_per_s": metric(median(rates), "1/s", len(rates)),
           "op_s.geomean": metric(statistics.geometric_mean(op_medians), "s",
                                  len(op_s)),
           "peak_rss_mb": metric(rss, "MB", 1),
           "error_rate": metric(failed / attempted, "ratio", attempted)}

    # the numbers under the names used in the benchmark's README
    if workload == "tables":
        out["tables_cells_per_s"] = metric(median(rates), "cells/s",
                                           len(rates))
    elif workload == "transient":
        for name, key in (("solve_rhea", "rhea_steps_per_s"),
                          ("solve_rhe_timedep", "timedep_steps_per_s")):
            r = [o["work"] / o["wall_s"] for o in per_op(name)]
            out[key] = metric(median(r), "steps/s", len(r))
        cv = [o["wall_s"] for o in per_op("coefficient_of_variation")]
        out["cv_s"] = metric(median(cv), "s", len(cv))
    else:
        out["cli_cmd_s.p50"] = metric(median(op_s), "s", len(op_s))
        out["cli_pass_s"] = metric(median([p["wall_s"] for p in plain]), "s",
                                   len(plain))
        for name in kinds:
            walls = [o["wall_s"] for o in per_op(name)]
            out[f"cli_cmd_s.{name}"] = metric(median(walls), "s", len(walls))
    return out


def traced_summary(passes, layers, traced_walls, probes) -> dict:
    """Per-layer metrics: medians of times, counts from the first traced
    pass (they must repeat), import probes and the tracing overhead."""
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    per_layer = {}
    for key, first in layers[0].items():
        per_layer[key] = first if isinstance(first, int) \
            else median([lay[key] for lay in layers])
    per_layer["cli.import_s"] = median([p[0] for p in probes])
    per_layer["cli.modules_imported"] = probes[0][1]
    per_layer["trace.overhead_frac"] = \
        median(traced_walls) / median(untraced) - 1.0
    repeat = all(lay[k] == v for lay in layers
                 for k, v in layers[0].items() if isinstance(v, int))
    return {"per_layer": per_layer, "per_layer_passes": layers,
            "counts_repeat": repeat and len({p[1] for p in probes}) == 1}


def provenance(args, size) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy without the dict form
        blas = {}
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env=env).stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "dunking").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return {
        "seed": args.seed,
        "mode": "toy" if args.toy else "full",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k in (
                           "OMP_PROC_BIND", "OPENBLAS_CORETYPE")},
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "problem_sizes": problem_sizes(args.workload, size),
    }


def problem_sizes(workload: str, size: dict) -> list[dict]:
    """nv and stiffness nnz of every mesh the workload uses."""
    from dunking import fem, mesh
    shapes = ("disk", "square", "equilateral_triangle", "cross")
    used = {
        "tables": [(s, size["tables_levels"]) for s in shapes],
        "transient": [("disk", size["rhea_level"]),
                      ("disk", size["timedep_level"])],
        "cli": [("disk", size["cli_phi_level"]),
                ("square", size["cli_rhe_level"])]
        + [(s, size["cli_tables_levels"]) for s in shapes],
    }[workload]
    out = []
    for shape, level in used:
        m = mesh.generate_canonical(shape, level)
        forms = fem.assemble_forms(m, fem.FieldSet.from_constants(m))
        out.append({"shape": shape, "level": level, "nv": m.num_vertices,
                    "nnz": int(forms.A0.nnz)})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--inject", choices=("report", "exit"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    import dunking
    if Path(dunking.__file__).resolve().parent != SRC / "dunking":
        print(f"dunking imported from {dunking.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = Path(args.workdir)
    size = SIZES["toy" if args.toy else "full"]
    wl = WORKLOADS[args.workload](args, size, work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    expected = {}
    if not args.record:
        with open(BENCH / "expected.json") as fh:
            expected = json.load(fh)["toy" if args.toy else "full"][args.workload]
    wl.warmup()
    probes = []
    if args.trace:
        probes = [import_probe() for _ in range(3)]
    with cpu_rotation():
        passes, layers, traced_walls, spans, recorded = measure(
            wl, args, expected, args.seconds)

    result = {"workload": args.workload, "seed": args.seed,
              "passes": passes, "recorded": recorded,
              "metrics": end_to_end(args.workload, passes)}
    if args.trace:
        result.update(traced_summary(passes, layers, traced_walls, probes))
        np.savez_compressed(
            work / "spans.npz",
            **{f"pass{i}_{k}": v for i, (names, arr) in enumerate(spans)
               for k, v in {"names": np.array(names), **arr}.items()})
    result["provenance"] = provenance(args, size)
    with open(work / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
