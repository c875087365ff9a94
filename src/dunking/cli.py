"""Command-line entry point wiring the toolkit into reproducible runs.

Every subcommand reads an optional flat `key = value` config file, lets
explicit flags override it, writes a manifest echoing the fully resolved
configuration, and emits plain-text reports plus plot-ready CSVs.  All
floating-point output uses 12 significant digits so regression diffs are
meaningful; reruns with identical configuration are bit-identical.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import budget as budget_mod
from . import correlations as corr_mod
from . import fem
from . import lcm as lcm_mod
from . import lengthscale as ls_mod
from . import mesh as mesh_mod
from . import rhe as rhe_mod
from . import series as series_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "DUNKING_OUTPUT_DIR"

# Upper bounds on the size flags, checked before anything is allocated.  A
# canonical mesh has ~4x the vertices of the level below (the cross at level
# 8 has ~340 000), and a million steps or points already write a CSV of
# tens of megabytes.
MAX_LEVELS = 8
MAX_STEPS = 1_000_000
MAX_POINTS = 1_000_000


class ConfigError(Exception):
    pass


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
    raise ValueError(f"not a boolean: {s!r}")


class Opt:
    def __init__(self, name, typ=float, default=None, required=False, help="",
                 most=None):
        self.name = name
        self.typ = typ
        self.default = default
        self.required = required
        self.help = help
        self.most = most

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")

    def convert(self, raw):
        if raw is None:
            return None
        if isinstance(raw, str):
            try:
                if self.typ is bool:
                    return _to_bool(raw)
                return self.typ(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {self.name}: {raw!r}") from exc
        return raw


GLOBAL_OPTS = [
    Opt("output_dir", str, None, help="output directory (default: "
        f"${OUTPUT_DIR_ENV} or the working directory)"),
    Opt("config", str, None, help="flat key = value config file; flags win"),
    Opt("seed", int, 0, help="RNG seed for sampling subcommands"),
]


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


def resolve_options(args, opts) -> dict:
    """Merge defaults < config file < explicit flags."""
    cfg = read_config(args.config) if args.config else {}
    known = {o.name for o in opts} | {o.name for o in GLOBAL_OPTS}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
    resolved = {}
    for opt in list(GLOBAL_OPTS) + list(opts):
        raw = getattr(args, opt.name, None)
        if raw is None and opt.name in cfg:
            raw = cfg[opt.name]
        value = opt.convert(raw)
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigError(f"missing required option {opt.flag}")
        if opt.most is not None and value is not None and value > opt.most:
            raise ConfigError(f"{opt.flag} must be at most {opt.most}")
        resolved[opt.name] = value
    if resolved["output_dir"] is None:
        resolved["output_dir"] = os.environ.get(OUTPUT_DIR_ENV, ".")
    return resolved


def _outdir(cfg) -> str:
    path = cfg["output_dir"]
    os.makedirs(path, exist_ok=True)
    return path


def write_manifest(cfg, command) -> None:
    path = os.path.join(_outdir(cfg), f"{command}_manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"command = {command}\n")
        for key in sorted(cfg):
            if key == "config":
                continue
            fh.write(f"{key} = {_fmt(cfg[key])}\n")


def write_report(cfg, command, rows) -> str:
    path = os.path.join(_outdir(cfg), f"{command.replace('-', '_')}_report.txt")
    with open(path, "w") as fh:
        for key, val in rows:
            fh.write(f"{key} = {_fmt(val)}\n")
    for key, val in rows:
        print(f"{key} = {_fmt(val)}")
    return path


# ------------------------------------------------------------ subcommands

def _canonical_setup(shape, levels, eta_kind):
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


PHI_OPTS = [
    Opt("shape", str, required=True, help="disk | square | triangle | cross"),
    Opt("eta", str, "constant", help="boundary variation: constant | linear "
        "| sinusoidal | step"),
    Opt("levels", int, 4, help="mesh refinement level", most=MAX_LEVELS),
]


def cmd_phi(cfg):
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


BOUNDS_OPTS = [
    Opt("B", float, required=True, help="true Biot number"),
    Opt("B_est", float, required=True, help="estimated Biot number"),
    Opt("gamma", float, required=True, help="surface-to-volume ratio"),
    Opt("phi", float, required=True, help="sensitivity coefficient"),
    Opt("volume", float, None, help="domain volume (temporal term)"),
    Opt("eta_l1l1", float, None, help="||eta - eta_bar||_{L1(L1)}"),
    Opt("phi111", float, None, help="uniform-field phi, enables phi_ub"),
    Opt("gamma_over_lambda", float, None),
    Opt("gamma_sq_over_mu", float, None),
    Opt("var_eta", float, 0.0), Opt("var_sigma", float, 0.0),
]


def cmd_bounds(cfg):
    temporal = None
    if cfg["volume"] is not None or cfg["eta_l1l1"] is not None:
        if cfg["volume"] is None or cfg["eta_l1l1"] is None:
            raise ConfigError("--volume and --eta-l1l1 must be given together")
        temporal = (cfg["volume"], cfg["eta_l1l1"])
    bud = budget_mod.assemble_budget(cfg["B"], cfg["B_est"], cfg["gamma"],
                                     cfg["phi"], temporal_inputs=temporal,
                                     phi_provenance="supplied")
    rows = budget_mod.budget_report_rows(bud)
    if cfg["phi111"] is not None:
        if cfg["var_sigma"] and cfg["gamma_sq_over_mu"] is None:
            raise ConfigError("--gamma-sq-over-mu required with --var-sigma")
        if cfg["var_eta"] and cfg["gamma_over_lambda"] is None:
            raise ConfigError("--gamma-over-lambda required with --var-eta")
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


RHE_OPTS = [
    Opt("shape", str, required=True), Opt("levels", int, 4, most=MAX_LEVELS),
    Opt("B", float, required=True, help="Biot number"),
    Opt("eta", str, "constant"),
    Opt("t_f", float, None, help="final time (default 3/(B*gamma))"),
    Opt("steps", int, 2000, most=MAX_STEPS), Opt("max_snapshots", int, 200),
    Opt("snapshots", bool, False, help="also write solution snapshots"),
]


def cmd_rhe(cfg):
    if cfg["max_snapshots"] < 1:
        raise ConfigError("--max-snapshots must be at least 1")
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


LCM_OPTS = [
    Opt("B", float, required=True), Opt("gamma", float, required=True),
    Opt("t_f", float, None, help="final time (default 3*tau)"),
    Opt("steps", int, 200, most=MAX_STEPS),
    Opt("solid", str, None, help="solid material name for r1, r2 lookup"),
    Opt("fluid", str, None, help="fluid material name for r1, r2 lookup"),
    Opt("Re", float, None), Opt("Pr", float, None),
    Opt("r1", float, None), Opt("r2", float, None),
]


def cmd_lcm(cfg):
    model = lcm_mod.LumpedModel(cfg["B"], cfg["gamma"])
    rows = [("B", cfg["B"]), ("gamma", cfg["gamma"]), ("tau", model.tau_eq)]
    r1, r2 = cfg["r1"], cfg["r2"]
    if cfg["solid"] is not None and cfg["fluid"] is not None:
        tr1, tr2 = corr_mod.property_ratios(cfg["solid"], cfg["fluid"])
        r1 = tr1 if r1 is None else r1
        r2 = tr2 if r2 is None else r2
        rows += [("solid", cfg["solid"]), ("fluid", cfg["fluid"])]
    if None not in (r1, r2, cfg["Re"], cfg["Pr"]):
        ts = lcm_mod.time_scales(r1, r2, cfg["Re"], cfg["Pr"], cfg["B"],
                                 cfg["gamma"])
        rows += [("r1", r1), ("r2", r2), ("Re", cfg["Re"]), ("Pr", cfg["Pr"]),
                 ("tau_conv", ts.tau_conv), ("time_scale_ratio", ts.ratio)]
    t_f = cfg["t_f"]
    if t_f is None:
        t_f = 3.0 * model.tau_eq if math.isfinite(model.tau_eq) else 1.0
    if not math.isfinite(t_f):
        raise ConfigError("time must be finite")
    if cfg["steps"] < 1:
        raise ConfigError("--steps must be at least 1")
    times = np.linspace(0.0, t_f, cfg["steps"] + 1)
    vals = lcm_mod.lcm_evaluate(model, times)
    np.savetxt(os.path.join(_outdir(cfg), "lcm_series.csv"),
               np.column_stack([times, vals]), fmt="%.17g", delimiter=",",
               header="t,u_lumped", comments="")
    write_report(cfg, "lcm", rows)


LEARNQ_OPTS = [
    Opt("correlation", str, required=True,
        help="|".join(corr_mod.CORRELATION_NAMES)),
    Opt("samples", str, None, help="CSV Re,Nu[,Pr] of observed pairs"),
    Opt("Re", float, None), Opt("Nu", float, None),
    Opt("Pr", float, None, help="Prandtl number (used when the samples "
        "file has no Pr column)"),
    Opt("re_transition", float, corr_mod.RE_TRANSITION_DEFAULT),
    Opt("surrogate", str, None, help="CSV s,theta_deg,q to assemble and "
        "validate the bilinear surrogate"),
    Opt("eval_s", float, None), Opt("eval_theta", float, None),
]


def cmd_learn_q(cfg):
    corr = corr_mod.get_correlation(cfg["correlation"],
                                    Re_tr=cfg["re_transition"])
    rows = [("correlation", cfg["correlation"])]
    outdir = _outdir(cfg)
    if cfg["samples"] is not None:
        data = np.loadtxt(cfg["samples"], delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] < 2:
            raise ConfigError("samples CSV needs columns Re,Nu[,Pr]")
        if data.shape[1] < 3 and cfg["Pr"] is None:
            raise ConfigError("--Pr required when the samples file "
                              "has no Pr column")
        Res, Nus = data[:, 0], data[:, 1]
        Prs = data[:, 2] if data.shape[1] > 2 else np.full(len(data), cfg["Pr"])
        qs = ls_mod.solve_q(corr, Res, Nus, Prs)
        np.savetxt(os.path.join(outdir, "learned_q.csv"),
                   np.column_stack([Res, Nus, Prs, qs]), fmt="%.17g",
                   delimiter=",", header="Re,Nu,Pr,q", comments="")
        rows.append(("n_samples", len(qs)))
        if len(qs) >= 2:
            rows.append(("average_q_log", ls_mod.average_q_log(zip(Res, qs))))
        else:
            rows.append(("q", float(qs[0])))
    elif cfg["Re"] is not None and cfg["Nu"] is not None:
        if cfg["Pr"] is None:
            raise ConfigError("--Pr is required")
        q = float(ls_mod.solve_q(corr, cfg["Re"], cfg["Nu"], cfg["Pr"])[0])
        rows += [("Re", cfg["Re"]), ("Nu", cfg["Nu"]), ("Pr", cfg["Pr"]),
                 ("q", q)]
    elif cfg["surrogate"] is None:
        raise ConfigError("provide --samples, or --Re with --Nu, "
                          "or --surrogate")
    if cfg["surrogate"] is not None:
        triples = np.loadtxt(cfg["surrogate"], delimiter=",", skiprows=1,
                             ndmin=2)
        model = ls_mod.build_surrogate([tuple(r[:3]) for r in triples])
        model.to_csv(os.path.join(outdir, "surrogate.csv"))
        rows += [("surrogate_ns", len(model.log10_s)),
                 ("surrogate_ntheta", len(model.theta_deg))]
        if cfg["eval_s"] is not None and cfg["eval_theta"] is not None:
            rows.append(("surrogate_q",
                         model.evaluate(cfg["eval_s"], cfg["eval_theta"])))
    write_report(cfg, "learn-q", rows)


FITSHAPE_OPTS = [
    Opt("points", str, None, help="CSV x,y,z surface point cloud"),
    Opt("generate", str, None, help="spheroid | sphere | cuboid: sample a "
        "synthetic cloud instead of reading --points"),
    Opt("a", float, 1.0, help="symmetry semi-axis (generate spheroid)"),
    Opt("b", float, 1.0, help="equatorial semi-axis (generate spheroid)"),
    Opt("theta", float, 0.0, help="angle of attack in degrees (generate)"),
    Opt("lx", float, 1.0), Opt("ly", float, 1.0), Opt("lz", float, 1.0),
    Opt("n", int, 500, help="number of sampled points (generate)",
        most=MAX_POINTS),
]


def cmd_fit_shape(cfg):
    if cfg["generate"] is not None:
        kind = cfg["generate"]
        if kind == "spheroid":
            pts = ls_mod.sample_spheroid_surface(cfg["a"], cfg["b"], cfg["n"],
                                                 theta_deg=cfg["theta"],
                                                 seed=cfg["seed"])
        elif kind == "sphere":
            pts = ls_mod.sample_sphere_surface(cfg["n"], seed=cfg["seed"])
        elif kind == "cuboid":
            pts = ls_mod.sample_cuboid_surface(cfg["lx"], cfg["ly"],
                                               cfg["lz"], cfg["n"],
                                               seed=cfg["seed"])
        else:
            raise ConfigError(f"unknown --generate kind {kind!r}")
        np.savetxt(os.path.join(_outdir(cfg), "fit_points.csv"), pts,
                   fmt="%.17g", delimiter=",", header="x,y,z", comments="")
    elif cfg["points"] is not None:
        pts = np.loadtxt(cfg["points"], delimiter=",", skiprows=1, ndmin=2)
    else:
        raise ConfigError("provide --points or --generate")
    fit = ls_mod.fit_spheroid(pts)
    rows = [("n_points", len(pts)), ("s", fit.s),
            ("theta_deg", fit.theta_deg),
            ("semi_axis", fit.semi_axis),
            ("equatorial_axis", fit.equatorial_axis),
            ("axis_x", float(fit.axis[0])), ("axis_y", float(fit.axis[1])),
            ("axis_z", float(fit.axis[2])),
            ("theta_meaningful", fit.theta_meaningful)]
    write_report(cfg, "fit-shape", rows)


STEADY_OPTS = [
    Opt("series", str, required=True, help="CSV t,nu with optional "
        "`# key = value` metadata lines"),
    Opt("St", float, 0.2, help="Strouhal number"),
    Opt("Re", float, None), Opt("Pr", float, None),
    Opt("r1", float, None), Opt("r2", float, None),
    Opt("initial_window", float, 5.0, help="initial window, units of t_vs"),
    Opt("step_size", float, 0.5), Opt("growth", float, 0.05),
    Opt("activation", float, 7.5), Opt("threshold", float, 1.0e-3),
]


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


CORRELATE_OPTS = [
    Opt("name", str, required=True, help="|".join(corr_mod.CORRELATION_NAMES)),
    Opt("Re", float, required=True), Opt("Pr", float, required=True),
    Opt("re_transition", float, corr_mod.RE_TRANSITION_DEFAULT),
    Opt("q", float, None, help="length-scale ratio: evaluate the "
        "transformed correlation"),
    Opt("r2", float, None, help="conductivity ratio: also report Biot"),
    Opt("strict", bool, False, help="error when outside the validity range"),
]


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


TABLES_OPTS = [Opt("levels", int, 6, help="mesh refinement level",
                   most=MAX_LEVELS)]


def cmd_tables(cfg):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunking",
        description="Lumped-capacitance error bounds and learned length "
                    "scales for convective cooling problems.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, opts, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in list(GLOBAL_OPTS) + list(opts):
            p.add_argument(opt.flag, dest=opt.name, default=None,
                           metavar=opt.name.upper(), help=opt.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    runner, opts, _ = COMMANDS[args.command]
    try:
        cfg = resolve_options(args, opts)
        write_manifest(cfg, args.command)
        runner(cfg)
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
