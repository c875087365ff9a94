"""Command-line entry point wiring the toolkit into reproducible runs.

Every subcommand reads an optional flat `key = value` config file, lets
explicit flags override it, emits plain-text reports plus plot-ready CSVs,
and, once it has run, writes a manifest echoing the fully resolved
configuration (a refused run leaves none).  All
floating-point output uses 12 significant digits so regression diffs are
meaningful; reruns with identical configuration are bit-identical.

Exit codes: 0 success, 2 configuration error, 3 numeric failure or out of
memory, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

# budget, fem, mesh, rhe and lengthscale are imported by the subcommands
# that use them: importing this module loads no scipy, and neither do
# bounds, lcm, correlate, steady-state, learn-q and fit-shape
from . import correlations as corr_mod
from . import lcm as lcm_mod
from . import series as series_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "DUNKING_OUTPUT_DIR"

# (least, most) of the size and time options, checked before anything is
# allocated; a `command name` key overrides `name`.  A canonical mesh has ~4x
# the vertices of the level below (~340 000 on the cross at level 8), and a
# million steps or points write a CSV of tens of megabytes.  The solver holds
# every stored snapshot (34 MB per thousand on the disk at level 6), and
# --snapshots writes one file each.  rhe starts BDF2 with an Euler step.
RANGES = {"levels": (1, 8), "steps": (1, 1_000_000), "n": (1, 1_000_000),
          "max_snapshots": (1, 10_000), "t_f": (0, math.inf),
          "rhe steps": (2, 1_000_000)}

# Which option needs which, checked on the options given (as flags or in the
# config file) before the defaults are filled in.  In a row (flags, kind,
# *targets) each space-separated flag (or the command) needs one of the
# targets, or cannot be combined with any; `--flag value` needs that value.
NEEDS, EXCLUDES = "needs", "cannot be combined with"
RULES = {
    "bounds": [
        ("--volume", NEEDS, "--eta-l1l1"), ("--eta-l1l1", NEEDS, "--volume"),
        ("--gamma-over-lambda", NEEDS, "--var-eta"),
        ("--var-eta", NEEDS, "--gamma-over-lambda"),
        ("--gamma-sq-over-mu", NEEDS, "--var-sigma"),
        ("--var-sigma", NEEDS, "--gamma-sq-over-mu"),
        ("--gamma-over-lambda --var-eta --gamma-sq-over-mu --var-sigma",
         NEEDS, "--phi111")],
    "lcm": [
        ("--solid", NEEDS, "--fluid"), ("--fluid", NEEDS, "--solid"),
        ("--Re", NEEDS, "--Pr"), ("--Pr", NEEDS, "--Re"),
        ("--Re", NEEDS, "--r1", "--solid"), ("--Re", NEEDS, "--r2", "--solid"),
        ("--r1 --r2 --solid", NEEDS, "--Re")],
    "learn-q": [
        ("learn-q", NEEDS, "--samples", "--Re", "--surrogate"),
        ("--Re --Nu", EXCLUDES, "--samples"),
        ("--Re", NEEDS, "--Nu"), ("--Nu", NEEDS, "--Re"),
        ("--Re", NEEDS, "--Pr"), ("--Pr", NEEDS, "--samples", "--Re"),
        ("--re-transition", NEEDS, "--correlation flat_plate_turbulent"),
        ("--eval-s", NEEDS, "--eval-theta"),
        ("--eval-theta", NEEDS, "--eval-s"),
        ("--eval-s --eval-theta", NEEDS, "--surrogate")],
    "fit-shape": [
        ("fit-shape", NEEDS, "--points", "--generate"),
        ("--points", EXCLUDES, "--generate"),
        ("--a --b --theta", NEEDS, "--generate spheroid"),
        ("--lx --ly --lz", NEEDS, "--generate cuboid"),
        ("--n --seed", NEEDS, "--generate")],
    "correlate": [("--re-transition", NEEDS, "--name flat_plate_turbulent")],
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


# --------------------------------------------------------- option plumbing

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _to_bool(s: str) -> bool:
    s = s.strip().lower()
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {s!r}")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _name(flag: str) -> str:
    return flag[2:].replace("-", "_")


def check_options(command, given: dict) -> None:
    """Refuse given options that break RANGES or RULES, naming each flag."""
    errors = []
    for name in filter(RANGES.__contains__, given):
        least, most = RANGES.get(f"{command} {name}", RANGES[name])
        v = given[name]
        bound = (f"at most {most}" if v > most else f"at least {least}"
                 if v < least else None if math.isfinite(v) else "finite")
        if bound:
            errors.append(f"{_flag(name)} must be {bound}")

    def holds(target):
        flag, _, value = target.partition(" ")
        v = given.get(_name(flag))
        return v is not None and (not value or v == value)

    for flags, kind, *targets in RULES.get(command, ()):
        if any(map(holds, targets)) != (kind == NEEDS):
            errors += [f"{flag} {kind} {' or '.join(targets)}"
                       for flag in flags.split()
                       if flag == command or _name(flag) in given]
    if errors:
        raise ConfigError("; ".join(errors))


# Options, keyed by flag, as add_argument keywords; the option's name (its
# config key and manifest entry) is the flag's dest, `--B-est` -> `B_est`.
GLOBAL_OPTS = {
    "--output-dir": dict(help="output directory (default: "
                         f"${OUTPUT_DIR_ENV} or the working directory)"),
    "--config": dict(help="flat key = value config file; flags win"),
}

_CONFIG_PARSER = _Parser(add_help=False)
_CONFIG_PARSER.add_argument("--config")


def read_config(path) -> dict:
    """Flat `key = value` file; `#` starts a comment; keys use underscores
    or dashes interchangeably."""
    out = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key = value")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _with_config(argv: list) -> list:
    """argv with the --config file's entries inserted as `--key=value`
    tokens right after the command name: the flags come later and win."""
    path = _CONFIG_PARSER.parse_known_args(argv[1:])[0].config
    if path is None or argv[0] not in COMMANDS:
        return argv
    known = {*GLOBAL_OPTS, *COMMANDS[argv[0]][1]}
    tokens = []
    for key, val in read_config(path).items():
        if _flag(key) not in known:  # exactly: argparse takes `lev` for levels
            raise ConfigError(f"unknown config key: {key}")
        tokens.append(f"{_flag(key)}={val}")
    return [argv[0], *tokens, *argv[1:]]


def _outdir(cfg) -> str:
    path = cfg["output_dir"]
    os.makedirs(path, exist_ok=True)
    return path


def write_manifest(cfg, command) -> None:
    path = os.path.join(_outdir(cfg), f"{command}_manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"command = {command}\n")
        for key in sorted(cfg.keys() - {"config"}):
            fh.write(f"{key} = {_fmt(cfg[key])}\n")


def write_report(cfg, command, rows) -> None:
    path = os.path.join(_outdir(cfg), f"{command.replace('-', '_')}_report.txt")
    with open(path, "w") as fh:
        for key, val in rows:
            fh.write(f"{key} = {_fmt(val)}\n")
    for key, val in rows:
        print(f"{key} = {_fmt(val)}")


# ------------------------------------------------------------ subcommands

def _canonical_setup(shape, levels, eta_kind):
    from . import budget as budget_mod
    from . import fem
    from . import mesh as mesh_mod
    if (shape not in budget_mod.SHAPES
            and shape not in mesh_mod.CANONICAL_SHAPES):
        raise ConfigError(f"unknown shape {shape!r}; choose from "
                          f"{budget_mod.SHAPES}")
    if eta_kind not in fem.ETA_VARIATIONS:
        raise ConfigError(f"unknown eta variation {eta_kind!r}; choose from "
                          f"{fem.ETA_VARIATIONS}")
    msh = budget_mod.canonical_mesh(shape, levels)
    fields = fem.FieldSet.from_constants(msh)
    fields.eta = fem.eta_variation(msh, eta_kind)
    return msh, fields


PHI_OPTS = {
    "--shape": dict(required=True, help="disk | square | triangle | cross"),
    "--eta": dict(default="constant", help="boundary variation: constant | "
                  "linear | sinusoidal | step"),
    "--levels": dict(type=int, default=4, help="mesh refinement level"),
}


def cmd_phi(cfg):
    from . import budget as budget_mod
    msh, fields = _canonical_setup(cfg["shape"], cfg["levels"], cfg["eta"])
    sc = budget_mod.shape_constants(msh, [fields.eta])
    ub = sc.bounds[0]
    rows = [("shape", cfg["shape"]), ("eta", cfg["eta"]),
            ("levels", cfg["levels"]), ("gamma", sc.gamma),
            ("phi", sc.phi[0]), ("phi111", sc.phi111),
            ("gamma_sq_over_mu", sc.stability.gamma_sq_over_mu),
            ("gamma_over_lambda", sc.stability.gamma_over_lambda),
            ("var_eta", ub.var_eta), ("delta_eta", ub.delta_eta),
            ("phi_ub", ub.bound), ("phi_ub_est", sc.phi_ub_est)]
    write_report(cfg, "phi", rows)


BOUNDS_OPTS = {
    "--B": dict(type=float, required=True, help="true Biot number"),
    "--B-est": dict(type=float, required=True, help="estimated Biot number"),
    "--gamma": dict(type=float, required=True, help="surface-to-volume ratio"),
    "--phi": dict(type=float, required=True, help="sensitivity coefficient"),
    "--volume": dict(type=float, help="domain volume (temporal term)"),
    "--eta-l1l1": dict(type=float, help="||eta - eta_bar||_{L1(L1)}"),
    "--phi111": dict(type=float, help="uniform-field phi, enables phi_ub"),
    "--gamma-over-lambda": dict(type=float),
    "--gamma-sq-over-mu": dict(type=float),
    "--var-eta": dict(type=float, default=0.0),
    "--var-sigma": dict(type=float, default=0.0),
}


def cmd_bounds(cfg):
    from . import budget as budget_mod
    temporal = None if cfg["volume"] is None else (cfg["volume"],
                                                    cfg["eta_l1l1"])
    bud = budget_mod.assemble_budget(cfg["B"], cfg["B_est"], cfg["gamma"],
                                     cfg["phi"], temporal_inputs=temporal,
                                     phi_provenance="supplied")
    rows = budget_mod.budget_report_rows(bud)
    if cfg["phi111"] is not None:
        phi_ub = budget_mod.phi_bound(
            cfg["phi111"], cfg["gamma_sq_over_mu"] or 0.0, cfg["var_sigma"],
            cfg["gamma_over_lambda"] or 0.0, cfg["var_eta"])
        bud_ub = budget_mod.assemble_budget(cfg["B"], cfg["B_est"],
                                            cfg["gamma"], phi_ub,
                                            temporal_inputs=temporal,
                                            phi_provenance="phi_ub")
        rows += [("phi_ub", phi_ub), ("lumping_ub", bud_ub.lumping),
                 ("total_ub", bud_ub.total)]
    write_report(cfg, "bounds", rows)


RHE_OPTS = {
    "--shape": dict(required=True), "--levels": dict(type=int, default=4),
    "--B": dict(type=float, required=True, help="Biot number"),
    "--eta": dict(default="constant"),
    "--t-f": dict(type=float, help="final time (default 3/(B*gamma))"),
    "--steps": dict(type=int, default=2000),
    "--max-snapshots": dict(type=int, default=200),
    "--snapshots": dict(type=_to_bool, default=False,
                        help="also write solution snapshots"),
}


def cmd_rhe(cfg):
    from . import budget as budget_mod
    from . import mesh as mesh_mod
    from . import rhe as rhe_mod
    msh, fields = _canonical_setup(cfg["shape"], cfg["levels"], cfg["eta"])
    gs = mesh_mod.geometry_stats(msh)
    robin = rhe_mod.RobinCoefficient(cfg["B"], eta=fields.eta)
    sol = rhe_mod.solve_rhea(msh, fields, robin, t_f=cfg["t_f"],
                             steps=cfg["steps"],
                             max_snapshots=cfg["max_snapshots"])
    outdir = _outdir(cfg)
    sol.write_series(os.path.join(outdir, "rhe_series.csv"))
    if cfg["snapshots"]:
        sol.write_snapshots(os.path.join(outdir, "rhe_snapshot_{:08.4f}.csv"))
    lumped = lcm_mod.lcm_evaluate(lcm_mod.LumpedModel(cfg["B"], gs.gamma), sol.times)
    gap = float(np.max(np.abs(sol.u_avg - lumped)))
    bud = budget_mod.assemble_budget(cfg["B"], cfg["B"], gs.gamma,
                                     budget_mod.solve_phi(msh, fields).phi)
    cv = rhe_mod.coefficient_of_variation(sol, msh)
    np.savetxt(os.path.join(outdir, "rhe_cv.csv"),
               np.column_stack([sol.snapshot_times, cv]), fmt="%.17g",
               delimiter=",", header="t,cv", comments="")
    rows = [("shape", cfg["shape"]), ("eta", cfg["eta"]),
            ("levels", cfg["levels"]), ("B", cfg["B"]), ("gamma", gs.gamma),
            ("t_f", float(sol.times[-1])), ("steps", cfg["steps"]),
            ("u_avg_final", float(sol.u_avg[-1])),
            ("u_min", float(sol.u_avg.min())),
            ("cv_final", float(cv[-1])),
            ("max_lcm_gap", gap),
            ("lumping_bound", bud.lumping)]
    write_report(cfg, "rhe", rows)


LCM_OPTS = {
    "--B": dict(type=float, required=True),
    "--gamma": dict(type=float, required=True),
    "--t-f": dict(type=float, help="final time (default 3*tau)"),
    "--steps": dict(type=int, default=200),
    "--solid": dict(help="solid material name for r1, r2 lookup"),
    "--fluid": dict(help="fluid material name for r1, r2 lookup"),
    "--Re": dict(type=float), "--Pr": dict(type=float),
    "--r1": dict(type=float), "--r2": dict(type=float),
}


def cmd_lcm(cfg):
    model = lcm_mod.LumpedModel(cfg["B"], cfg["gamma"])
    rows = [("B", cfg["B"]), ("gamma", cfg["gamma"]), ("tau", model.tau_eq)]
    r1, r2 = cfg["r1"], cfg["r2"]
    if cfg["solid"] is not None:
        tr1, tr2 = corr_mod.property_ratios(cfg["solid"], cfg["fluid"])
        r1 = tr1 if r1 is None else r1
        r2 = tr2 if r2 is None else r2
        rows += [("solid", cfg["solid"]), ("fluid", cfg["fluid"])]
    if cfg["Re"] is not None:
        ts = lcm_mod.time_scales(r1, r2, cfg["Re"], cfg["Pr"], cfg["B"],
                                 cfg["gamma"])
        rows += [("r1", r1), ("r2", r2), ("Re", cfg["Re"]), ("Pr", cfg["Pr"]),
                 ("tau_conv", ts.tau_conv), ("time_scale_ratio", ts.ratio)]
    t_f = cfg["t_f"]
    if t_f is None:
        t_f = 3.0 * model.tau_eq if math.isfinite(model.tau_eq) else 1.0
    times = np.linspace(0.0, t_f, cfg["steps"] + 1)
    vals = lcm_mod.lcm_evaluate(model, times)
    np.savetxt(os.path.join(_outdir(cfg), "lcm_series.csv"),
               np.column_stack([times, vals]), fmt="%.17g", delimiter=",",
               header="t,u_lumped", comments="")
    write_report(cfg, "lcm", rows)


LEARNQ_OPTS = {
    "--correlation": dict(required=True, choices=corr_mod.CORRELATION_NAMES),
    "--samples": dict(help="CSV Re,Nu[,Pr] of observed pairs"),
    "--Re": dict(type=float), "--Nu": dict(type=float),
    "--Pr": dict(type=float, help="Prandtl number, with --Re or with a "
                 "samples file that has no Pr column"),
    "--re-transition": dict(type=float,
                            default=corr_mod.RE_TRANSITION_DEFAULT),
    "--surrogate": dict(help="CSV s,theta_deg,q to assemble and validate "
                        "the bilinear surrogate"),
    "--eval-s": dict(type=float), "--eval-theta": dict(type=float),
}


def cmd_learn_q(cfg):
    from . import lengthscale as ls_mod
    corr = corr_mod.get_correlation(cfg["correlation"],
                                    Re_tr=cfg["re_transition"])
    rows = [("correlation", cfg["correlation"])]
    if cfg["samples"] is not None:
        _, data = series_mod.read_table(cfg["samples"], "re,", None)
        if not 2 <= data.shape[1] <= 3:
            raise ConfigError(f"{cfg['samples']}: samples CSV needs columns "
                              f"Re,Nu[,Pr], not {data.shape[1]}")
        if (data.shape[1] > 2) == (cfg["Pr"] is not None):  # not in RULES
            raise ConfigError("--Pr is needed if and only if the samples "
                              "file has no Pr column")
        Res, Nus = data[:, 0], data[:, 1]
        Prs = data[:, 2] if data.shape[1] > 2 else np.full(len(data), cfg["Pr"])
        qs = ls_mod.solve_q(corr, Res, Nus, Prs)
        np.savetxt(os.path.join(_outdir(cfg), "learned_q.csv"),
                   np.column_stack([Res, Nus, Prs, qs]), fmt="%.17g",
                   delimiter=",", header="Re,Nu,Pr,q", comments="")
        rows.append(("n_samples", len(qs)))
        if len(qs) >= 2:
            rows.append(("average_q_log", ls_mod.average_q_log(zip(Res, qs))))
        else:
            rows.append(("q", float(qs[0])))
    elif cfg["Re"] is not None:
        q = float(ls_mod.solve_q(corr, cfg["Re"], cfg["Nu"], cfg["Pr"])[0])
        rows += [("Re", cfg["Re"]), ("Nu", cfg["Nu"]), ("Pr", cfg["Pr"]),
                 ("q", q)]
    if cfg["surrogate"] is not None:
        model = ls_mod.LengthScaleModel.from_csv(cfg["surrogate"])
        model.to_csv(os.path.join(_outdir(cfg), "surrogate.csv"))
        rows += [("surrogate_ns", len(model.log10_s)),
                 ("surrogate_ntheta", len(model.theta_deg))]
        if cfg["eval_s"] is not None:
            rows.append(("surrogate_q",
                         model.evaluate(cfg["eval_s"], cfg["eval_theta"])))
    write_report(cfg, "learn-q", rows)


FITSHAPE_OPTS = {
    "--points": dict(help="CSV x,y,z surface point cloud"),
    "--generate": dict(choices=("spheroid", "sphere", "cuboid"),
                       help="sample a synthetic cloud of --n points"),
    "--a": dict(type=float, default=1.0, help="spheroid symmetry semi-axis"),
    "--b": dict(type=float, default=1.0, help="spheroid equatorial semi-axis"),
    "--theta": dict(type=float, default=0.0, help="angle of attack, degrees"),
    "--lx": dict(type=float, default=1.0),
    "--ly": dict(type=float, default=1.0),
    "--lz": dict(type=float, default=1.0),
    "--n": dict(type=int, default=500, help="number of sampled points"),
    "--seed": dict(type=int, default=0, help="RNG seed of the sampled cloud"),
}


def cmd_fit_shape(cfg):
    from . import lengthscale as ls_mod
    kind = cfg["generate"]
    if kind is None:
        _, pts = series_mod.read_table(cfg["points"], "x,", None)
    else:
        if kind == "cuboid":
            pts = ls_mod.sample_cuboid_surface(cfg["lx"], cfg["ly"],
                                               cfg["lz"], cfg["n"],
                                               seed=cfg["seed"])
        else:  # a sphere takes the defaults a = b = 1, theta = 0
            pts = ls_mod.sample_spheroid_surface(cfg["a"], cfg["b"], cfg["n"],
                                                 theta_deg=cfg["theta"],
                                                 seed=cfg["seed"])
        np.savetxt(os.path.join(_outdir(cfg), "fit_points.csv"), pts,
                   fmt="%.17g", delimiter=",", header="x,y,z", comments="")
    fit = ls_mod.fit_spheroid(pts)
    rows = [("n_points", len(pts)), ("s", fit.s),
            ("theta_deg", fit.theta_deg),
            ("semi_axis", fit.semi_axis),
            ("equatorial_axis", fit.equatorial_axis),
            ("axis_x", float(fit.axis[0])), ("axis_y", float(fit.axis[1])),
            ("axis_z", float(fit.axis[2])),
            ("theta_meaningful", fit.theta_meaningful)]
    write_report(cfg, "fit-shape", rows)


STEADY_OPTS = {
    "--series": dict(required=True, help="CSV t,nu with optional "
                     "`# key = value` metadata lines"),
    "--St": dict(type=float, default=0.2, help="Strouhal number"),
    "--Re": dict(type=float), "--Pr": dict(type=float),
    "--r1": dict(type=float), "--r2": dict(type=float),
    "--initial-window": dict(type=float, default=5.0,
                             help="initial window, units of t_vs"),
    "--step-size": dict(type=float, default=0.5),
    "--growth": dict(type=float, default=0.05),
    "--activation": dict(type=float, default=7.5),
    "--threshold": dict(type=float, default=1.0e-3),
}


def cmd_steady_state(cfg):
    overrides = {k: cfg[k] for k in ("Re", "Pr", "r1", "r2")
                 if cfg[k] is not None}
    ser = series_mod.read_series(cfg["series"], **overrides)
    rep = series_mod.steady_state_detect(
        ser, St=cfg["St"], initial_window=cfg["initial_window"],
        step_size=cfg["step_size"], growth=cfg["growth"],
        activation=cfg["activation"], threshold=cfg["threshold"])
    series_mod.write_report(rep, os.path.join(_outdir(cfg),
                                              "steady_state_windows.csv"))
    rows = [("t_vs", rep.t_vs), ("converged", rep.converged),
            ("n_windows", len(rep.history))]
    if rep.converged:
        rows += [("t_f", rep.t_f), ("nu_stavg", rep.nu_stavg)]
    write_report(cfg, "steady-state", rows)


CORRELATE_OPTS = {
    "--name": dict(required=True, choices=corr_mod.CORRELATION_NAMES),
    "--Re": dict(type=float, required=True),
    "--Pr": dict(type=float, required=True),
    "--re-transition": dict(type=float,
                            default=corr_mod.RE_TRANSITION_DEFAULT),
    "--q": dict(type=float, help="length-scale ratio: evaluate the "
                "transformed correlation"),
    "--r2": dict(type=float, help="conductivity ratio: also report Biot"),
    "--strict": dict(type=_to_bool, default=False,
                     help="error when outside the validity range"),
}


def cmd_correlate(cfg):
    corr = corr_mod.get_correlation(cfg["name"], Re_tr=cfg["re_transition"])
    if cfg["q"] is not None:
        Nu, ok = corr_mod.transform_correlation(corr, cfg["q"], cfg["Re"],
                                                cfg["Pr"],
                                                strict=cfg["strict"])
    else:
        Nu, ok = corr_mod.eval_correlation(corr, cfg["Re"], cfg["Pr"],
                                           strict=cfg["strict"])
    rows = [("name", cfg["name"]), ("Re", cfg["Re"]), ("Pr", cfg["Pr"])]
    if cfg["q"] is not None:
        rows.append(("q", cfg["q"]))
    rows += [("Nu", Nu), ("in_range", ok)]
    if cfg["r2"] is not None:
        rows.append(("B", corr_mod.biot_from_nusselt(cfg["r2"], Nu)))
    write_report(cfg, "correlate", rows)


TABLES_OPTS = {"--levels": dict(type=int, default=6,
                               help="mesh refinement level")}


def cmd_tables(cfg):
    from . import budget as budget_mod
    rows = budget_mod.reproduce_tables(cfg["levels"])
    path = os.path.join(_outdir(cfg), "tables.csv")
    with open(path, "w") as fh:
        fh.write("table,shape,variation,quantity,reference,computed,"
                 "rel_error\n")
        for table, shape, variation, quantity, ref, comp, err in rows:
            fh.write(f"{table},{shape},{variation},{quantity},"
                     f"{ref:.12g},{comp:.12g},{err:.12g}\n")
    worst = {}
    for table, _, _, _, _, _, err in rows:
        worst[table] = max(worst.get(table, 0.0), err)
    report = [("levels", cfg["levels"]), ("n_cells", len(rows))]
    report += [(f"max_rel_error_{t}", worst[t]) for t in sorted(worst)]
    write_report(cfg, "tables", report)


COMMANDS = {
    "phi": (cmd_phi, PHI_OPTS,
            "sensitivity coefficient and bound constants for a shape"),
    "bounds": (cmd_bounds, BOUNDS_OPTS,
               "a priori error budget from scalar inputs"),
    "rhe": (cmd_rhe, RHE_OPTS,
            "transient Robin-boundary solve with lumped-model comparison"),
    "lcm": (cmd_lcm, LCM_OPTS,
            "lumped cooling curve and time-scale separation"),
    "learn-q": (cmd_learn_q, LEARNQ_OPTS,
                "length-scale ratios from observed Nusselt data"),
    "fit-shape": (cmd_fit_shape, FITSHAPE_OPTS,
                  "equivalent-spheroid fit of a surface point cloud"),
    "steady-state": (cmd_steady_state, STEADY_OPTS,
                     "sliding-window stationarity detection"),
    "correlate": (cmd_correlate, CORRELATE_OPTS,
                  "evaluate an empirical Nusselt correlation"),
    "tables": (cmd_tables, TABLES_OPTS,
               "regenerate all bundled reference tables with errors"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dunking",
        description="Lumped-capacitance error bounds and learned length "
                    "scales for convective cooling problems.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, opts, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in {**GLOBAL_OPTS, **opts}.items():
            # defaults come after check_options, which sees what was given
            p.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        given = vars(build_parser().parse_args(_with_config(argv)))
        command = given.pop("command")
        if command is None:
            build_parser().print_help()
            return EXIT_CONFIG
        check_options(command, given)
        given.setdefault("output_dir", os.environ.get(OUTPUT_DIR_ENV, "."))
        cfg = {_name(flag): kwargs.get("default") for flag, kwargs
               in {**GLOBAL_OPTS, **COMMANDS[command][1]}.items()} | given
        COMMANDS[command][0](cfg)
        write_manifest(cfg, command)
    # numeric first: np.linalg.LinAlgError is a ValueError
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
