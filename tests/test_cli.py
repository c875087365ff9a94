"""Command-line driver: option handling, artifacts, exit codes."""
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from dunking import cli, eigen, lcm, lengthscale, rhe, series
from dunking import correlations as corr


def _report(outdir, command):
    path = outdir / f"{command.replace('-', '_')}_report.txt"
    rows = {}
    for line in path.read_text().splitlines():
        key, val = line.split(" = ", 1)
        rows[key] = val
    return rows


def run(tmp_path, command, *argv):
    return cli.main([command, "--output-dir", str(tmp_path), *argv]), tmp_path


SERIES_META = "# Re = 100\n# Pr = 0.71\n# r1 = 0.5\n# r2 = 2.0\nt,nu\n"


def _cloud(seed):
    pts = lengthscale.sample_spheroid_surface(2.0, 1.0, 50, seed=seed)
    return "x,y,z\n" + "".join(f"{x:.17g},{y:.17g},{z:.17g}\n"
                               for x, y, z in pts)


# Input files that argvs name by placeholder; `_inputs` writes them
INPUTS = {
    "SERIES": SERIES_META + "".join(f"{k / 100},7.25\n" for k in range(101)),
    "SERIES2": SERIES_META + "".join(f"{k / 100},7.5\n" for k in range(101)),
    # relative changes between windows ~6e-5 exp(-t): below the default
    # threshold at the default activation, above 1e-6 to the end
    "DECAY": SERIES_META + "".join(
        f"{k / 100},{7.25 + 0.05 * math.exp(-k / 100)!r}\n"
        for k in range(101)),
    "GRID": "s,theta_deg,q\n1,0,1\n1,90,2\n4,0,1.5\n4,90,2.5\n",
    "GRID2": "s,theta_deg,q\n1,0,1\n1,90,3\n4,0,1.5\n4,90,2.5\n",
    "SAMPLES": "Re,Nu\n50,5\n150,8\n450,13\n",
    "SAMPLES2": "Re,Nu\n50,5\n150,9\n450,13\n",
    "SAMPLES_PR": "Re,Nu,Pr\n100,5,0.71\n",
    "SAMPLES_JUNK": "Re,Nu,Pr,junk\n100,5,0.71,1\n",
    "GRID_JUNK": "s,theta_deg,q,junk\n1,0,1,0\n1,90,2,0\n4,0,1.5,0\n"
                 "4,90,2.5,0\n",
    "POINTS": _cloud(3),
    "POINTS2": _cloud(4),
}


def _inputs(tmp_path, argv):
    """argv with each INPUTS placeholder replaced by the path of its file,
    written to tmp_path."""
    out = []
    for arg in argv:
        if arg in INPUTS:
            path = tmp_path / f"{arg.lower()}.csv"
            path.write_text(INPUTS[arg])
            arg = str(path)
        out.append(arg)
    return out


# ------------------------------------------------------------ happy paths

def test_phi_command(tmp_path):
    code, out = run(tmp_path, "phi", "--shape", "disk", "--levels", "4")
    assert code == 0
    rows = _report(out, "phi")
    assert abs(float(rows["phi"]) - 0.5) < 0.01
    assert abs(float(rows["gamma"]) - 2.0) < 0.01
    assert float(rows["var_eta"]) == 0.0
    assert (out / "phi_manifest.txt").exists()


def test_bounds_command_worked_example(tmp_path):
    code, out = run(tmp_path, "bounds", "--B", "0.0680", "--B-est", "0.0678",
                    "--gamma", "4.0", "--phi", "1.1053")
    assert code == 0
    rows = _report(out, "bounds")
    assert abs(float(rows["biot"]) - 0.001082) < 1e-6
    assert abs(float(rows["lumping"]) - 0.006912) < 1e-5


def test_lcm_command_worked_example(tmp_path):
    code, out = run(tmp_path, "lcm", "--B", "0.0678", "--gamma", "4.0",
                    "--r1", "1.0", "--r2", "0.8220",
                    "--Re", "143.0", "--Pr", "0.71")
    assert code == 0
    rows = _report(out, "lcm")
    assert abs(float(rows["tau"]) - 3.688) < 1e-3
    assert abs(float(rows["time_scale_ratio"]) - 307.7) < 0.1
    curve = np.loadtxt(out / "lcm_series.csv", delimiter=",", skiprows=1)
    assert curve[0, 1] == 1.0
    assert np.all(np.diff(curve[:, 1]) < 0.0)


def test_correlate_command(tmp_path):
    code, out = run(tmp_path, "correlate", "--name", "ranz_marshall",
                    "--Re", "0.0", "--Pr", "0.71", "--r2", "0.05")
    assert code == 0
    rows = _report(out, "correlate")
    assert float(rows["Nu"]) == 2.0
    assert float(rows["B"]) == 0.1
    assert rows["in_range"] == "true"


def test_rhe_command_writes_series(tmp_path):
    code, out = run(tmp_path, "rhe", "--shape", "square", "--levels", "3",
                    "--B", "0.04", "--steps", "300")
    assert code == 0
    rows = _report(out, "rhe")
    assert float(rows["u_avg_final"]) < 1.0
    data = np.loadtxt(out / "rhe_series.csv", delimiter=",", skiprows=1)
    assert data.shape == (301, 2)
    assert data[0, 1] == 1.0
    # lumped-model gap stays under the a priori estimate in this regime
    assert float(rows["max_lcm_gap"]) <= 1.05 * float(rows["lumping_bound"])


def test_learn_q_single_sample(tmp_path):
    rm = corr.get_correlation("ranz_marshall")
    nu, _ = corr.transform_correlation(rm, 1.44, 250.0, 0.71)
    code, out = run(tmp_path, "learn-q", "--correlation", "ranz_marshall",
                    "--Re", "250.0", "--Nu", f"{nu:.17g}", "--Pr", "0.71")
    assert code == 0
    rows = _report(out, "learn_q")
    assert abs(float(rows["q"]) - 1.44) < 1e-6


def test_learn_q_samples_csv(tmp_path):
    rm = corr.get_correlation("ranz_marshall")
    lines = ["Re,Nu"]
    for re in (50.0, 150.0, 450.0):
        nu, _ = corr.transform_correlation(rm, 2.0, re, 0.71)
        lines.append(f"{re},{nu:.17g}")
    src = tmp_path / "samples.csv"
    src.write_text("\n".join(lines) + "\n")
    code, out = run(tmp_path, "learn-q", "--correlation", "ranz_marshall",
                    "--samples", str(src), "--Pr", "0.71")
    assert code == 0
    rows = _report(out, "learn_q")
    assert abs(float(rows["average_q_log"]) - 2.0) < 1e-6
    learned = np.loadtxt(out / "learned_q.csv", delimiter=",", skiprows=1)
    assert learned.shape == (3, 4)   # Re, Nu, Pr, q
    assert np.allclose(learned[:, 3], 2.0, atol=1e-6)


def test_fit_shape_generated_spheroid(tmp_path):
    code, out = run(tmp_path, "fit-shape", "--generate", "spheroid",
                    "--a", "5.0", "--b", "1.0", "--theta", "30.0",
                    "--n", "500", "--seed", "11")
    assert code == 0
    rows = _report(out, "fit_shape")
    assert abs(float(rows["s"]) - 5.0) < 0.25
    assert abs(float(rows["theta_deg"]) - 30.0) < 2.0
    assert rows["theta_meaningful"] == "true"
    cloud = np.loadtxt(out / "fit_points.csv", delimiter=",", skiprows=1)
    assert cloud.shape == (500, 3)


def test_steady_state_command(tmp_path):
    t_vs = 1.0 / (0.2 * (2.0 / 0.5) * 100.0 * 0.71)
    t = np.linspace(0.0, 20.0 * t_vs, 3001)
    src = tmp_path / "series.csv"
    lines = ["# Re = 100", "# Pr = 0.71", "# r1 = 0.5", "# r2 = 2.0", "t,nu"]
    lines += [f"{ti:.17g},7.25" for ti in t]
    src.write_text("\n".join(lines) + "\n")
    code, out = run(tmp_path, "steady-state", "--series", str(src))
    assert code == 0
    rows = _report(out, "steady_state")
    assert rows["converged"] == "true"
    assert abs(float(rows["t_f"]) - 8.0 * t_vs) < 1e-9
    assert abs(float(rows["nu_stavg"]) - 7.25) < 1e-9
    assert (out / "steady_state_windows.csv").exists()


# Run in order in one fresh interpreter; the scipy modules loaded so far are
# recorded after each run.  phi comes last: it solves on a mesh, so it must
# load scipy, which shows that the check can see it.
_SCIPY_PROBE = """
import json, sys
from dunking import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    loaded.append([rc, sorted(m for m in sys.modules
                              if m.partition(".")[0] == "scipy")])
print(json.dumps(loaded))
"""


def test_scalar_commands_import_no_scipy(tmp_path):
    series_csv = tmp_path / "series.csv"
    series_csv.write_text(SERIES_META + "".join(f"{k / 100},7.25\n"
                                                for k in range(101)))
    samples = tmp_path / "samples.csv"
    samples.write_text("Re,Nu\n50,5\n150,8\n450,13\n")
    grid = tmp_path / "grid.csv"
    grid.write_text("s,theta_deg,q\n1,0,1\n1,90,2\n4,0,1.5\n4,90,2.5\n")
    points = tmp_path / "points.csv"
    np.savetxt(points, lengthscale.sample_spheroid_surface(3.0, 1.0, 300,
                                                           seed=5),
               delimiter=",", header="x,y,z", comments="")
    runs = [
        ["bounds", "--B", "0.068", "--B-est", "0.0678", "--gamma", "4",
         "--phi", "1.1"],
        ["lcm", "--B", "0.0678", "--gamma", "4", "--r1", "1", "--r2",
         "0.822", "--Re", "143", "--Pr", "0.71"],
        ["correlate", "--name", "churchill_bernstein", "--Re", "100",
         "--Pr", "0.71"],
        ["steady-state", "--series", str(series_csv)],
        ["learn-q", "--correlation", "churchill_bernstein", "--samples",
         str(samples), "--Pr", "0.71"],
        ["learn-q", "--correlation", "ranz_marshall", "--surrogate",
         str(grid), "--eval-s", "2", "--eval-theta", "30"],
        ["fit-shape", "--points", str(points)],
        ["fit-shape", "--generate", "spheroid", "--a", "3", "--b", "1",
         "--theta", "30", "--n", "300"],
        ["phi", "--shape", "disk", "--levels", "2"],
    ]
    runs = [argv + ["--output-dir", str(tmp_path / str(i))]
            for i, argv in enumerate(runs)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           json.dumps(runs)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for argv, (rc, scipy_modules) in zip(runs[:-1], loaded):
        assert rc == 0, argv
        assert scipy_modules == [], argv
    assert loaded[-1][0] == 0
    assert "scipy.sparse.linalg" in loaded[-1][1]


def test_tables_command_small_level(tmp_path):
    code, out = run(tmp_path, "tables", "--levels", "3")
    assert code == 0
    rows = _report(out, "tables")
    assert float(rows["max_rel_error_geometry_constants"]) < 0.2
    text = (out / "tables.csv").read_text().splitlines()
    assert text[0] == "table,shape,variation,quantity,reference,computed,rel_error"
    assert len(text) == 93


# ---------------------------------------------------- options and errors

def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shape = disk\nlevels = 3\neta = sinusoidal\n")
    code, out = run(tmp_path, "phi", "--config", str(cfgfile),
                    "--shape", "square")
    assert code == 0
    manifest = (out / "phi_manifest.txt").read_text()
    assert "shape = square\n" in manifest       # flag beats config
    assert "levels = 3\n" in manifest
    assert "eta = sinusoidal\n" in manifest


def test_required_options_from_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("name = flat_plate_turbulent\nRe = 1e6\nPr = 0.71\n"
                       "re-transition = 1e5  # dashes or underscores\n"
                       "strict = yes\n")
    code, out = run(tmp_path, "correlate", "--config", str(cfgfile))
    assert code == 0
    manifest = (out / "correlate_manifest.txt").read_text()
    assert "name = flat_plate_turbulent\n" in manifest
    assert "re_transition = 100000\n" in manifest
    assert "strict = true\n" in manifest


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shape = disk\nshapes = square\n")
    code, _ = run(tmp_path, "phi", "--config", str(cfgfile))
    assert code == 2


@pytest.mark.parametrize("command,argv,text,message", [
    ("phi", ("--shape", "disk"), "levels = 12\n",
     "--levels must be at most 8"),
    ("bounds", ("--B-est", "0.1", "--gamma", "4", "--phi", "1"),
     "B = tiny\n", "argument --B: invalid float value: 'tiny'"),
    ("correlate", ("--name", "ranz_marshall", "--Re", "10", "--Pr", "0.71"),
     "strict = maybe\n", "argument --strict: not a boolean: 'maybe'"),
    ("phi", ("--shape", "disk"), "lev = 2\n", "unknown config key: lev"),
    ("phi", ("--shape", "disk"), "kappa = 1\n", "unknown config key: kappa"),
], ids=["over-bound", "bad-float", "bad-bool", "abbreviated-key",
        "unknown-key"])
def test_config_file_is_checked_like_flags(tmp_path, capsys, command, argv,
                                           text, message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    out = tmp_path / "out"
    code = cli.main([command, "--output-dir", str(out), "--config",
                     str(cfgfile), *argv])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()  # refused before any output


BOUNDS_SCALARS = ("--B", "0.068", "--B-est", "0.0678", "--gamma", "4",
                  "--phi", "1.1")
LCM = ("lcm", "--B", "0.05", "--gamma", "2")
LEARN_Q = ("learn-q", "--correlation", "ranz_marshall")
FIT = ("fit-shape",)

# Per test: case -> (argv, the refusal, which names each offending flag)
REFUSALS = {
    "paired": {
        "solid-alone": ((*LCM, "--solid", "copper"),
                        "--solid needs --fluid; --solid needs --Re"),
        "fluid-alone": ((*LCM, "--fluid", "air"), "--fluid needs --solid"),
        "eval-s-alone": ((*LEARN_Q, "--surrogate", "GRID", "--eval-s", "2"),
                         "--eval-s needs --eval-theta"),
        "eval-theta-alone": ((*LEARN_Q, "--surrogate", "GRID",
                              "--eval-theta", "30"),
                             "--eval-theta needs --eval-s"),
        "volume-alone": (("bounds", *BOUNDS_SCALARS, "--volume", "1"),
                         "--volume needs --eta-l1l1")},
    "time-scales": {
        "Re-alone": ((*LCM, "--Re", "100"),
                     "--Re needs --Pr; --Re needs --r1 or --solid; "
                     "--Re needs --r2 or --solid"),
        "no-Pr": ((*LCM, "--r1", "1", "--r2", "0.822", "--Re", "143"),
                  "--Re needs --Pr"),
        "materials-alone": ((*LCM, "--solid", "aluminum", "--fluid", "air"),
                            "--solid needs --Re"),
        "materials-no-Re": ((*LCM, "--solid", "aluminum", "--fluid", "air",
                             "--Pr", "0.71"),
                            "--Pr needs --Re; --solid needs --Re")},
    "phi-ub": {
        "eta-terms": (("bounds", *BOUNDS_SCALARS, "--var-eta", "0.3",
                       "--gamma-over-lambda", "2"),
                      "--gamma-over-lambda needs --phi111; "
                      "--var-eta needs --phi111"),
        "mu-alone": (("bounds", *BOUNDS_SCALARS, "--gamma-sq-over-mu", "3"),
                     "--gamma-sq-over-mu needs --var-sigma; "
                     "--gamma-sq-over-mu needs --phi111"),
        "var-sigma-alone": (("bounds", *BOUNDS_SCALARS, "--var-sigma", "0.1"),
                            "--var-sigma needs --gamma-sq-over-mu; "
                            "--var-sigma needs --phi111")},
    "cloud-source": {
        "both": ((*FIT, "--points", "POINTS", "--generate", "sphere"),
                 "--points cannot be combined with --generate"),
        "neither": (FIT, "fit-shape needs --points or --generate")},
    "cloud-options": {
        "spheroid-options-on-sphere": (
            (*FIT, "--generate", "sphere", "--a", "3", "--theta", "40"),
            "--a needs --generate spheroid; "
            "--theta needs --generate spheroid"),
        "spheroid-option-on-cuboid": (
            (*FIT, "--generate", "cuboid", "--b", "2"),
            "--b needs --generate spheroid"),
        "cuboid-options-on-spheroid": (
            (*FIT, "--generate", "spheroid", "--lx", "2", "--lz", "0.5"),
            "--lx needs --generate cuboid; --lz needs --generate cuboid"),
        "cuboid-option-on-sphere": (
            (*FIT, "--generate", "sphere", "--ly", "3"),
            "--ly needs --generate cuboid"),
        "n-with-points": ((*FIT, "--points", "POINTS", "--n", "7"),
                          "--n needs --generate"),
        "n-and-a-with-points": (
            (*FIT, "--points", "POINTS", "--n", "500", "--a", "3"),
            "--a needs --generate spheroid; --n needs --generate"),
        "seed-with-points": ((*FIT, "--points", "POINTS", "--seed", "3"),
                             "--seed needs --generate")},
    "samples": {
        "Re-Nu": ((*LEARN_Q, "--samples", "SAMPLES_PR", "--Re", "100", "--Nu",
                   "5"),
                  "--Re cannot be combined with --samples; "
                  "--Nu cannot be combined with --samples; --Re needs --Pr"),
        "Nu": ((*LEARN_Q, "--samples", "SAMPLES_PR", "--Nu", "5"),
               "--Nu cannot be combined with --samples; --Nu needs --Re")},
    "surrogate": {
        "eval": ((*LEARN_Q, "--Re", "100", "--Nu", "5", "--Pr", "0.71",
                  "--eval-s", "2", "--eval-theta", "30"),
                 "--eval-s needs --surrogate; "
                 "--eval-theta needs --surrogate")},
    "more": {
        "var-eta-zero": (("bounds", *BOUNDS_SCALARS, "--var-eta", "0"),
                         "--var-eta needs --gamma-over-lambda; "
                         "--var-eta needs --phi111"),
        "ratio-without-var-eta": (
            ("bounds", *BOUNDS_SCALARS, "--phi111", "0.5",
             "--gamma-over-lambda", "2"),
            "--gamma-over-lambda needs --var-eta"),
        "ratio-without-var-sigma": (
            ("bounds", *BOUNDS_SCALARS, "--phi111", "0.5",
             "--gamma-sq-over-mu", "2"),
            "--gamma-sq-over-mu needs --var-sigma"),
        "surrogate-Re": ((*LEARN_Q, "--surrogate", "GRID", "--Re", "100"),
                         "--Re needs --Nu; --Re needs --Pr"),
        "surrogate-Nu": ((*LEARN_Q, "--surrogate", "GRID", "--Nu", "5"),
                         "--Nu needs --Re"),
        "surrogate-Pr": ((*LEARN_Q, "--surrogate", "GRID", "--Pr", "0.5"),
                         "--Pr needs --samples or --Re"),
        "samples-Pr-column-and-Pr": (
            (*LEARN_Q, "--samples", "SAMPLES_PR", "--Pr", "0.5"),
            "--Pr is needed if and only if the samples file has no Pr column"),
        "learn-q-no-input": (LEARN_Q,
                             "learn-q needs --samples or --Re or --surrogate"),
        "learn-q-re-transition": (
            (*LEARN_Q, "--Re", "100", "--Nu", "5", "--Pr", "0.71",
             "--re-transition", "1e5"),
            "--re-transition needs --correlation flat_plate_turbulent"),
        "correlate-re-transition": (
            ("correlate", "--name", "ranz_marshall", "--Re", "100", "--Pr",
             "0.71", "--re-transition", "1e5"),
            "--re-transition needs --name flat_plate_turbulent"),
        **{f"{command}-levels-0": ((command, *base, "--levels", "0"),
                                   "--levels must be at least 1")
           for command, base in (("phi", ("--shape", "disk")), ("tables", ()),
                                 ("rhe", ("--shape", "disk", "--B", "0.1")))},
        "rhe-steps-1": (
            ("rhe", "--shape", "disk", "--B", "0.1", "--steps", "1"),
            "--steps must be at least 2"),
        "rhe-max-snapshots-0": (
            ("rhe", "--shape", "square", "--B", "0.04", "--max-snapshots",
             "0"),
            "--max-snapshots must be at least 1"),
        "lcm-t-f-nan": ((*LCM, "--t-f", "nan"), "--t-f must be finite"),
        "lcm-t-f-negative": ((*LCM, "--t-f", "-1"),
                             "--t-f must be at least 0")},
}

def _refused(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code, _ = run(out, *_inputs(tmp_path, argv))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", REFUSALS["paired"])
def test_paired_options_are_all_or_none(tmp_path, capsys, case):
    _refused(tmp_path, capsys, *REFUSALS["paired"][case])


@pytest.mark.parametrize("case", REFUSALS["time-scales"])
def test_lcm_time_scale_inputs_are_all_or_none(tmp_path, capsys, case):
    _refused(tmp_path, capsys, *REFUSALS["time-scales"][case])


@pytest.mark.parametrize("case", REFUSALS["phi-ub"])
def test_bounds_phi_ub_inputs_need_phi111(tmp_path, capsys, case):
    _refused(tmp_path, capsys, *REFUSALS["phi-ub"][case])


@pytest.mark.parametrize("case", REFUSALS["cloud-source"])
def test_fit_shape_takes_points_or_generate(tmp_path, capsys, case):
    _refused(tmp_path, capsys, *REFUSALS["cloud-source"][case])


@pytest.mark.parametrize("case", REFUSALS["cloud-options"])
def test_fit_shape_refuses_options_its_cloud_ignores(tmp_path, capsys, case):
    _refused(tmp_path, capsys, *REFUSALS["cloud-options"][case])


@pytest.mark.parametrize("case", REFUSALS["samples"])
def test_learn_q_samples_refuse_re_nu(tmp_path, capsys, case):
    _refused(tmp_path, capsys, *REFUSALS["samples"][case])


def test_surrogate_evaluation_needs_surrogate(tmp_path, capsys):
    _refused(tmp_path, capsys, *REFUSALS["surrogate"]["eval"])


@pytest.mark.parametrize("case", REFUSALS["more"])
def test_option_rules_refuse_and_name_each_flag(tmp_path, capsys, case):
    _refused(tmp_path, capsys, *REFUSALS["more"][case])


@pytest.mark.parametrize("argv", [
    ("lcm", "--B", "0.05", "--gamma", "2", "--Re", "100"),
    ("bounds", *BOUNDS_SCALARS, "--phi111", "0.5", "--var-sigma", "0.1"),
], ids=["lcm-partial-time-scales", "bounds-var-sigma-without-mu"])
def test_refused_command_leaves_no_manifest(tmp_path, argv):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert list(out.iterdir()) == []


def test_fit_shape_refuses_ignored_options_from_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("generate = sphere\nlx = 2\n")
    code, out = run(tmp_path / "out", "fit-shape", "--config", str(cfgfile))
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: --lx needs --generate cuboid\n"
    assert not out.exists()


def test_help_lists_every_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in cli.COMMANDS)
    for command, (_, opts, _) in cli.COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        missing = [flag for flag in (*cli.GLOBAL_OPTS, *opts)
                   if f"{flag} " not in text]
        assert missing == [], command


def test_missing_required_option(tmp_path):
    code, _ = run(tmp_path, "phi")
    assert code == 2


def test_unknown_shape_is_config_error(tmp_path):
    code, _ = run(tmp_path, "phi", "--shape", "hexagon")
    assert code == 2


def test_bad_numeric_value_is_config_error(tmp_path):
    code, _ = run(tmp_path, "bounds", "--B", "tiny", "--B-est", "0.1",
                  "--gamma", "4", "--phi", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("bounds", "--B", "nan", "--B-est", "0.1", "--gamma", "4", "--phi", "1"),
    ("bounds", "--B", "0.1", "--B-est", "0.1", "--gamma", "inf", "--phi", "1"),
    ("lcm", "--B", "nan", "--gamma", "4"),
    ("correlate", "--name", "ranz_marshall", "--Re", "inf", "--Pr", "0.71"),
    ("correlate", "--name", "ranz_marshall", "--Re", "100", "--Pr", "0.71",
     "--r2", "nan"),
    ("fit-shape", "--generate", "spheroid", "--a", "nan", "--b", "1"),
    ("fit-shape", "--generate", "cuboid", "--lx", "inf"),
    ("learn-q", "--correlation", "ranz_marshall", "--Re", "100", "--Nu",
     "nan", "--Pr", "0.71"),
    ("lcm", "--B", "0.05", "--gamma", "2", "--t-f", "nan"),
    *[("lcm", "--B", "0.05", "--gamma", "2", "--r1", "1", "--r2", "1",
       "--Re", "100", "--Pr", "0.71", flag, value)
      for flag in ("--Re", "--Pr", "--r1", "--r2") for value in ("nan", "inf")],
    *[(*command, "flat_plate_turbulent", "--Re", "1e6", "--Pr", "0.7",
       "--re-transition", value)
      for command in (("correlate", "--name"),
                      ("learn-q", "--Nu", "1e3", "--correlation"))
      for value in ("nan", "inf")],
    *[("steady-state", "--series", "SERIES", flag, value)
      for flag, value in (("--Re", "nan"), ("--St", "nan"), ("--St", "inf"),
                          ("--r1", "inf"), ("--step-size", "nan"),
                          ("--step-size", "0"), ("--step-size", "-1"),
                          ("--initial-window", "nan"), ("--threshold", "nan"),
                          ("--growth", "nan"), ("--activation", "nan"))],
])
def test_nonfinite_scalars_are_config_errors(tmp_path, argv):
    # a well-formed series: every steady-state failure is the flag's
    src = tmp_path / "series.csv"
    src.write_text(SERIES_META + "".join(f"{k / 100},7.25\n"
                                         for k in range(101)))
    code, _ = run(tmp_path, *[str(src) if a == "SERIES" else a for a in argv])
    assert code == 2


@pytest.mark.parametrize("argv,code,message", [
    (("lcm", "--B", "0.05", "--gamma", "2", "--t-f", "inf"), 2,
     "config error: --t-f must be finite"),
    (("lcm", "--B", "0.05", "--gamma", "2", "--steps", "0"), 2,
     "config error: --steps must be at least 1"),
    (("fit-shape", "--generate", "spheroid", "--n", "-5"), 2,
     "config error: --n must be at least 1"),
    (("fit-shape", "--generate", "cuboid", "--n", "0"), 2,
     "config error: --n must be at least 1"),
    (("learn-q", "--correlation", "churchill_bernstein", "--Re", "1e300",
      "--Nu", "5", "--Pr", "0.71"), 3,
     "numeric failure: no interior minimum for churchill_bernstein at Re=1e+300"),
    *[(("correlate", "--name", "ranz_marshall", "--Re", "100", "--Pr", "0.7",
        "--q", value), 2,
       f"config error: q must be finite and positive, got {value}")
      for value in ("nan", "inf")],
    (("learn-q", "--correlation", "ranz_marshall", "--samples",
      "SAMPLES_JUNK"), 2, "config error: SAMPLES_JUNK: samples CSV needs "
     "columns Re,Nu[,Pr], not 4"),
    (("learn-q", "--correlation", "ranz_marshall", "--surrogate",
      "GRID_JUNK"), 2, "config error: GRID_JUNK: surrogate CSV needs "
     "columns s,theta_deg,q, not 4"),
], ids=["lcm-t-f-inf", "lcm-steps-0", "spheroid-n-negative", "cuboid-n-0",
        "learn-q-overflow", "correlate-q-nan", "correlate-q-inf",
        "samples-4-columns", "surrogate-4-columns"])
def test_rejected_input_prints_only_its_error_line(tmp_path, capsys, argv,
                                                   code, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        args = _inputs(tmp_path, argv)
        got, _ = run(tmp_path, *args)
    assert got == code
    assert [str(w.message) for w in caught] == []
    for name, path in zip(argv, args):  # a placeholder names its file
        if name in INPUTS:
            message = message.replace(name, path)
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err


def test_window_schedule_cap_is_config_error(tmp_path, capsys):
    src = tmp_path / "series.csv"
    src.write_text(SERIES_META + "".join(f"{k / 100},7.25\n"
                                         for k in range(101)))
    code, _ = run(tmp_path, "steady-state", "--series", str(src),
                  "--step-size", "1e-20")
    assert code == 2
    assert "more than 100000 windows" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag,bound", [
    (("lcm", "--B", "0.05", "--gamma", "2", "--steps", "1000000000000"),
     "--steps", cli.RANGES["steps"][1]),
    (("rhe", "--shape", "disk", "--B", "0.1", "--steps", "1000000000000"),
     "--steps", cli.RANGES["rhe steps"][1]),
    (("fit-shape", "--generate", "sphere", "--n", "1000000000000"),
     "--n", cli.RANGES["n"][1]),
    (("phi", "--shape", "disk", "--levels", "12"), "--levels",
     cli.RANGES["levels"][1]),
    (("rhe", "--shape", "disk", "--B", "0.1", "--levels", "12"), "--levels",
     cli.RANGES["levels"][1]),
    (("tables", "--levels", "12"), "--levels", cli.RANGES["levels"][1]),
    (("rhe", "--shape", "disk", "--B", "0.1", "--max-snapshots",
      "1000000000000"), "--max-snapshots", cli.RANGES["max_snapshots"][1]),
], ids=["lcm-steps", "rhe-steps", "fit-shape-n", "phi-levels", "rhe-levels",
        "tables-levels", "rhe-max-snapshots"])
def test_size_flags_are_bounded(tmp_path, capsys, argv, flag, bound):
    start = time.perf_counter()
    code, _ = run(tmp_path, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == \
        f"config error: {flag} must be at most {bound}\n"
    assert list(tmp_path.iterdir()) == []  # refused before any output


# Per command, base argvs that reach each of its float options; a flag a
# base does not name is appended to the first base.  correlate runs without
# --r2, so that its report shows the correlation's own Nu.
BOUNDARY_BASES = {
    "bounds": [["--B", "0.068", "--B-est", "0.0678", "--gamma", "4", "--phi",
                "1.1", "--volume", "1", "--eta-l1l1", "0.1", "--phi111",
                "0.5", "--gamma-over-lambda", "2", "--gamma-sq-over-mu", "1",
                "--var-eta", "0.1", "--var-sigma", "0.1"]],
    "rhe": [["--shape", "square", "--levels", "1", "--B", "0.04", "--t-f",
             "1", "--steps", "20", "--max-snapshots", "5"]],
    "lcm": [["--B", "0.0678", "--gamma", "4", "--t-f", "1", "--steps", "10",
             "--r1", "1", "--r2", "0.822", "--Re", "143", "--Pr", "0.71"]],
    "learn-q": [["--correlation", "flat_plate_turbulent", "--Re", "1e6",
                 "--Nu", "1e3", "--Pr", "0.7", "--surrogate", "GRID",
                 "--eval-s", "2", "--eval-theta", "30"]],
    "fit-shape": [["--generate", "spheroid", "--a", "2", "--b", "1",
                   "--theta", "30", "--n", "50"],
                  ["--generate", "cuboid", "--lx", "2", "--ly", "1", "--lz",
                   "1", "--n", "50"]],
    "steady-state": [["--series", "SERIES"]],
    "correlate": [["--name", "flat_plate_turbulent", "--Re", "1e6", "--Pr",
                   "0.7"]],
}


def _boundary_cases():
    for command, (_, opts, _) in cli.COMMANDS.items():
        for flag, kwargs in opts.items():
            if kwargs.get("type") is float:
                bases = BOUNDARY_BASES[command]
                base = next((b for b in bases if flag in b), bases[0])
                for value in ("nan", "inf"):
                    yield pytest.param(command, base, f"{flag}={value}",
                                       id=f"{command}{flag}={value}")


@pytest.mark.parametrize("command,base,flag", _boundary_cases())
def test_nonfinite_flag_never_reported(tmp_path, command, base, flag):
    """Every float option, set to nan or inf, either fails the run or
    leaves only finite numbers in the report."""
    code, out = run(tmp_path, command, *_inputs(tmp_path, base), flag)
    if code == 0:
        for key, val in _report(out, command).items():
            try:
                number = float(val)
            except ValueError:
                continue
            assert math.isfinite(number), f"{key} = {val}"


# Per command, valid base argvs; the BOUNDARY_BASES reach the effect of
# options that need others.  The correlate bases are out of their validity
# range, so that --strict refuses them, and the DECAY series converges in a
# way that --activation and --threshold move.
CHANGE_BASES = {
    "phi": [["--shape", "disk", "--levels", "2"]],
    "bounds": [list(BOUNDS_SCALARS), [*BOUNDS_SCALARS, "--phi111", "0.5"],
               *BOUNDARY_BASES["bounds"]],
    "rhe": BOUNDARY_BASES["rhe"],
    "lcm": [["--B", "0.0678", "--gamma", "4"],
            ["--B", "0.0678", "--gamma", "4", "--solid", "aluminum", "--fluid",
             "air", "--Re", "143", "--Pr", "0.71"], *BOUNDARY_BASES["lcm"]],
    "learn-q": [[*LEARN_Q[1:], "--samples", "SAMPLES", "--Pr", "0.71"],
                [*LEARN_Q[1:], "--surrogate", "GRID"],
                [*LEARN_Q[1:], "--Re", "100", "--Nu", "5", "--Pr", "0.71"],
                *BOUNDARY_BASES["learn-q"]],
    "fit-shape": [["--points", "POINTS"],
                  ["--generate", "sphere", "--n", "50"],
                  *BOUNDARY_BASES["fit-shape"]],
    "steady-state": [["--series", "DECAY"]],
    "correlate": [["--name", "ranz_marshall", "--Re", "2e4", "--Pr", "0.71"],
                  ["--name", "flat_plate_turbulent", "--Re", "1e5", "--Pr",
                   "0.7"]],
    "tables": [["--levels", "1"]],
}
# Per command, a value of each option other than its default
OTHER_VALUES = {
    "phi": {"--shape": "square", "--eta": "linear", "--levels": "3"},
    "bounds": {"--B": "0.07", "--B-est": "0.07", "--gamma": "3",
               "--phi": "1.2", "--volume": "2", "--eta-l1l1": "0.2",
               "--phi111": "0.6", "--gamma-over-lambda": "3",
               "--gamma-sq-over-mu": "2", "--var-eta": "0.2",
               "--var-sigma": "0.2"},
    "rhe": {"--shape": "disk", "--levels": "2", "--B": "0.05",
            "--eta": "linear", "--t-f": "2", "--steps": "30",
            "--max-snapshots": "3", "--snapshots": "true"},
    "lcm": {"--B": "0.05", "--gamma": "3", "--t-f": "2", "--steps": "20",
            "--solid": "stainless_steel", "--fluid": "water", "--Re": "200",
            "--Pr": "0.8", "--r1": "2", "--r2": "0.5"},
    "learn-q": {"--correlation": "churchill_bernstein",
                "--samples": "SAMPLES2", "--Re": "2e6", "--Nu": "2e3",
                "--Pr": "0.8", "--re-transition": "1e5",
                "--surrogate": "GRID2", "--eval-s": "3", "--eval-theta": "45"},
    "fit-shape": {"--points": "POINTS2", "--generate": "cuboid", "--a": "3",
                  "--b": "2", "--theta": "45", "--lx": "3", "--ly": "2",
                  "--lz": "2", "--n": "60", "--seed": "1"},
    "steady-state": {"--series": "SERIES2", "--St": "0.3", "--Re": "150",
                     "--Pr": "0.8", "--r1": "0.6", "--r2": "2.5",
                     "--initial-window": "4", "--step-size": "0.25",
                     "--growth": "0.1", "--activation": "20",
                     "--threshold": "1e-6"},
    "correlate": {"--name": "churchill_bernstein", "--Re": "200",
                  "--Pr": "0.8", "--re-transition": "1e5", "--q": "2",
                  "--r2": "0.05", "--strict": "true"},
    "tables": {"--levels": "2"},
}


def _outputs(out):
    """Every file a run wrote but its manifest, which echoes the options."""
    return {p.name: p.read_bytes() for p in out.iterdir()
            if not p.name.endswith("_manifest.txt")}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_option_changes_the_output_or_is_refused(tmp_path, command):
    """Each option, set to another value on each base, is refused (exit 2,
    no output) or changes the report, a CSV or the set of files."""
    opts = cli.COMMANDS[command][1]
    assert OTHER_VALUES[command].keys() == opts.keys()
    inert = []
    for i, base in enumerate(CHANGE_BASES[command]):
        own = dict(zip(base[::2], base[1::2]))
        base = _inputs(tmp_path, base)
        code, out = run(tmp_path / f"{i}", command, *base)
        assert code == 0, base
        before = _outputs(out)
        for flag, value in OTHER_VALUES[command].items():
            if own.get(flag) == value:  # the base's own value changes nothing
                continue
            out = tmp_path / f"{i}{flag}"
            code, _ = run(out, command, *base,
                          *_inputs(tmp_path, [flag, value]))
            if not (code == 2 and not out.exists()
                    or code == 0 and _outputs(out) != before):
                inert.append((base, flag, code))
    assert inert == []


@pytest.mark.parametrize("command,flag,text,message", [
    ("steady-state", "--series",
     SERIES_META + "0,7.25\nnan,7.25\n1,7.25\n", "non-finite time stamp nan"),
    ("steady-state", "--series",
     SERIES_META.replace("100", "nan") + "0,7.25\n1,7.25\n",
     "Re must be finite and positive"),
    ("steady-state", "--series", SERIES_META, "the series has no samples"),
    ("fit-shape", "--points",
     "x,y,z\n" + "".join(f"{np.cos(k)},{np.sin(k)},{0.1 * k}\n"
                         for k in range(11)) + "1,nan,0\n",
     "points must be finite, got nan at index (11, 1)"),
], ids=["series-nan-time", "series-nan-Re", "series-no-rows",
        "points-nan-coordinate"])
def test_nonfinite_file_inputs_are_config_errors(tmp_path, capsys, command,
                                                 flag, text, message):
    src = tmp_path / "input.csv"
    src.write_text(text)
    code, _ = run(tmp_path, command, flag, str(src))
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,text,message", [
    ("fit-shape", "--points", "x,y,z\n# c\n1,2,3\n1,2\n",
     "line 4: the number of columns changed from 3 to 2"),
    ("fit-shape", "--points", "x,y,z\n1,2,3\n4,5,6,7\n",
     "line 3: the number of columns changed from 3 to 4"),
    ("learn-q", "--samples", "Re,Nu\n10,2\n\n100,abc\n",
     "line 4: could not convert string 'abc'"),
    ("learn-q", "--surrogate", "s,theta_deg,q\n1,0,1\n1,90\n",
     "line 3: the number of columns changed from 3 to 2"),
], ids=["points-short-row", "points-long-row", "samples-bad-value",
        "surrogate-short-row"])
def test_malformed_table_rows_name_file_and_line(tmp_path, capsys, command,
                                                 flag, text, message):
    src = tmp_path / "input.csv"
    src.write_text(text)
    extra = {"--samples": ("--correlation", "ranz_marshall", "--Pr", "0.71"),
             "--surrogate": ("--correlation", "ranz_marshall")}.get(flag, ())
    code, _ = run(tmp_path, command, flag, str(src), *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {src}: {message}"), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("header", ["x,y,z\n", "X, Y, Z\n", ""],
                         ids=["header", "spaced-header", "headerless"])
def test_point_file_rows_are_all_read(tmp_path, header):
    src = tmp_path / "points.csv"
    src.write_text(header + "".join(f"{np.cos(k)},{np.sin(k)},{0.1 * k}\n"
                                    for k in range(11)))
    code, out = run(tmp_path, "fit-shape", "--points", str(src))
    assert code == 0
    assert _report(out, "fit-shape")["n_points"] == "11"


# SERIES_META takes file lines 1-5, so the first row is line 6
@pytest.mark.parametrize("rows,message", [
    (b"0,7.25\n5\n", "line 7: invalid column index 1"),
    (b"0,7.25\n1,abc\n", "line 7: could not convert string 'abc'"),
    (b"0,7.25\nfoo,2\n", "line 7: could not convert string 'foo'"),
    (b"# note = caf\xe9\n0,7.25\n",
     "line 6: 'utf-8' codec can't decode byte 0xe9 in position 12"),
    (b"0,7.25\n\n# c\n1,2 # x\n3,4,5\n\n1,2\xff\n",
     "line 12: 'utf-8' codec can't decode byte 0xff in position 3"),
    (b"0,1\r\n\r\n2,x\r\n", "line 8: could not convert string 'x'"),
], ids=["one-field", "bad-value", "bad-stamp", "non-utf8-metadata",
        "non-utf8-row-after-cut-lines", "crlf"])
def test_malformed_series_rows_are_config_errors(tmp_path, capsys, rows,
                                                  message):
    src = tmp_path / "input.csv"
    src.write_bytes(SERIES_META.encode() + rows)
    code, _ = run(tmp_path, "steady-state", "--series", str(src))
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {src}: " in err and message in err


def _long_series(eol, line, bad):
    """SERIES_META and 200 000 rows, one in 10 000 a comment, joined by
    `eol`, with file line `line` replaced by `bad`."""
    rows = [b"# %d" % k if k % 10_000 == 0 else b"%d,7.25" % k
            for k in range(200_000)]
    lines = SERIES_META.encode().splitlines() + rows
    lines[line - 1] = bad
    return eol.join(lines) + eol


@pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("line,bad,message", [
    (150_000, b"149994,7.2x5",
     "line 150000: could not convert string '7.2x5' to float64, column 2."),
    (123_457, b"123451,7.2\xff5",
     "line 123457: 'utf-8' codec can't decode byte 0xff in position 10: "
     "invalid start byte"),
], ids=["bad-value", "non-utf8"])
def test_long_series_errors_name_the_file_line(tmp_path, capsys, eol, line,
                                               bad, message):
    src = tmp_path / "input.csv"
    src.write_bytes(_long_series(eol, line, bad))
    code, _ = run(tmp_path, "steady-state", "--series", str(src))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {src}: {message}\n"


def test_two_column_surrogate_is_config_error(tmp_path, capsys):
    src = tmp_path / "grid.csv"
    src.write_text("s,theta_deg\n1,0\n4,90\n")
    code, _ = run(tmp_path, "learn-q", "--correlation", "ranz_marshall",
                  "--surrogate", str(src))
    assert code == 2
    assert "surrogate CSV needs columns s,theta_deg,q" in capsys.readouterr().err


def test_negative_variance_in_bounds_is_named(tmp_path, capsys):
    code, _ = run(tmp_path, "bounds", "--B", "0.05", "--B-est", "0.05",
                  "--gamma", "4", "--phi", "1", "--phi111", "0.5",
                  "--gamma-over-lambda", "2", "--var-eta", "-1")
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: var_eta must be finite and nonnegative, got -1.0\n"


@pytest.mark.parametrize("exc", [
    np.linalg.LinAlgError("singular pencil"),
    ArpackNoConvergence("ARPACK did not converge", np.empty(0),
                        np.empty((0, 0))),
])
def test_eigensolver_failure_is_numeric_error(tmp_path, monkeypatch, capsys,
                                              exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(eigen.spla, "eigsh", fail)
    code, _ = run(tmp_path, "phi", "--shape", "disk", "--levels", "2")
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 8.00 EiB"),
     "out of memory: Unable to allocate 8.00 EiB"),
    (MemoryError(), "out of memory: allocation failed"),
])
def test_out_of_memory_is_numeric_exit(tmp_path, monkeypatch, capsys, exc,
                                       message):
    def fail(cfg):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "lcm", (fail, *cli.COMMANDS["lcm"][1:]))
    code, _ = run(tmp_path, "lcm", "--B", "0.05", "--gamma", "2")
    assert code == 3
    assert capsys.readouterr().err == message + "\n"


def test_seed_is_only_a_fit_shape_option(tmp_path, capsys):
    code, _ = run(tmp_path / "out", "phi", "--shape", "disk", "--seed", "3")
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: unrecognized arguments: --seed 3\n"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shape = disk\nseed = 3\n")
    code, _ = run(tmp_path / "out", "phi", "--config", str(cfgfile))
    assert code == 2
    assert capsys.readouterr().err == "config error: unknown config key: seed\n"
    assert not (tmp_path / "out").exists()


def test_phi_has_no_coefficient_options(tmp_path, capsys):
    code, _ = run(tmp_path, "phi", "--shape", "disk", "--kappa", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shape = disk\nkappa = 1\n")
    code, _ = run(tmp_path, "phi", "--config", str(cfgfile))
    assert code == 2


def test_nonfinite_biot_is_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "rhe", "--shape", "disk", "--levels", "3",
                    "--B", "nan")
    assert code == 2
    assert "B must be finite and nonnegative, got nan" in capsys.readouterr().err
    assert not (out / "rhe_series.csv").exists()


def test_rhe_refuses_a_t_f_at_which_the_field_underflows(tmp_path, capsys):
    code, _ = run(tmp_path, "rhe", "--shape", "disk", "--levels", "2",
                  "--B", "0.1", "--t-f", "1e300")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_f = 1e+300 at B = 0.1: ") and \
        "underflows" in err, err
    assert list(tmp_path.iterdir()) == []  # no manifest, no CSV


def test_rhe_writes_one_snapshot_file_per_cv_row(tmp_path):
    # 41 snapshots 2.5e-5 apart: four decimals gave 11 distinct names
    code, out = run(tmp_path, "rhe", "--shape", "disk", "--levels", "2",
                    "--B", "0.1", "--t-f", "0.001", "--steps", "200",
                    "--max-snapshots", "50", "--snapshots", "true")
    assert code == 0
    cv = np.loadtxt(out / "rhe_cv.csv", delimiter=",", skiprows=1)
    files = sorted(out.glob("rhe_snapshot_*.csv"))
    assert len(files) == len(cv) == 41
    assert {p.name for p in files} == {f"rhe_snapshot_{t:.12g}.csv"
                                       for t in cv[:, 0]}


def test_rhe_refuses_a_nonfinite_cv_before_writing(tmp_path, capsys):
    # lambda_1 dt > 1/2: BDF2 oscillates and the mean field goes negative
    code, _ = run(tmp_path, "rhe", "--shape", "disk", "--levels", "2",
                  "--B", "1", "--t-f", "10", "--steps", "10")
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: the coefficient of variation at t = 3 is nan")
    assert list(tmp_path.iterdir()) == []


def test_rhe_rejects_zero_snapshots_before_solving(tmp_path, capsys):
    code, out = run(tmp_path, "rhe", "--shape", "square", "--levels", "3",
                    "--B", "0.04", "--max-snapshots", "0")
    assert code == 2
    assert "--max-snapshots" in capsys.readouterr().err
    assert not (out / "rhe_series.csv").exists()


def test_unreachable_inversion_is_numeric_error(tmp_path):
    code, _ = run(tmp_path, "learn-q", "--correlation",
                  "churchill_bernstein", "--Re", "1.0", "--Nu", "1e9",
                  "--Pr", "0.71")
    assert code == 3


def test_unwritable_output_dir_is_io_error(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    code = cli.main(["phi", "--output-dir", str(blocker), "--shape", "disk",
                     "--levels", "3"])
    assert code == 4


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code = cli.main(["correlate", "--name", "ranz_marshall",
                     "--Re", "10", "--Pr", "0.71"])
    assert code == 0
    assert (tmp_path / "correlate_report.txt").exists()


def test_reruns_are_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for sub in (a, b):
        code = cli.main(["phi", "--output-dir", str(sub), "--shape",
                         "triangle", "--eta", "sinusoidal", "--levels", "4"])
        assert code == 0
    # reports are byte-identical; manifests echo the (distinct) output dirs
    assert (a / "phi_report.txt").read_bytes() == (b / "phi_report.txt").read_bytes()
    first = (a / "phi_manifest.txt").read_bytes()
    code = cli.main(["phi", "--output-dir", str(a), "--shape", "triangle",
                     "--eta", "sinusoidal", "--levels", "4"])
    assert code == 0
    assert (a / "phi_manifest.txt").read_bytes() == first


def test_manifest_lists_resolved_options_sorted(tmp_path):
    code, out = run(tmp_path, "lcm", "--B", "0.1", "--gamma", "2.0")
    assert code == 0
    lines = (out / "lcm_manifest.txt").read_text().splitlines()
    assert lines[0] == "lcm = command" or lines[0] == "command = lcm"
    keys = [ln.split(" = ")[0] for ln in lines[1:]]
    assert keys == sorted(keys)
    assert "config" not in keys


@pytest.mark.parametrize("argv,expected", [
    (("rhe", "--shape", "square", "--B", "0.04"),
     "command = rhe\nB = 0.04\neta = constant\nlevels = 4\n"
     "max_snapshots = 200\noutput_dir = {out}\nshape = square\n"
     "snapshots = false\nsteps = 2000\nt_f = None\n"),
    (("correlate", "--name", "ranz_marshall", "--Re", "100", "--Pr", "0.71"),
     "command = correlate\nPr = 0.71\nRe = 100\nname = ranz_marshall\n"
     "output_dir = {out}\nq = None\nr2 = None\nre_transition = 500000\n"
     "strict = false\n"),
    (("fit-shape", "--generate", "sphere", "--n", "50"),
     "command = fit-shape\na = 1\nb = 1\ngenerate = sphere\nlx = 1\nly = 1\n"
     "lz = 1\nn = 50\noutput_dir = {out}\npoints = None\nseed = 0\n"
     "theta = 0\n"),
], ids=["rhe", "correlate", "fit-shape"])
def test_default_manifest_text(tmp_path, argv, expected):
    """Every default (bool, None, int, float) is echoed in its own format."""
    code, out = run(tmp_path, *argv)
    assert code == 0
    assert (out / f"{argv[0]}_manifest.txt").read_text() == \
        expected.format(out=out)


def test_no_command_prints_help():
    assert cli.main([]) == 2


# ------------------------------------------------------------ CSV formats
#
# Each writer gets three rows; its file must match the literal below: a
# header row (after any `# key = value` lines), then `%.17g` columns.

def _cli_csv(tmp_path, name, *argv):
    code, out = run(tmp_path, *argv)
    assert code == 0
    return out / name


def _lcm_series(tmp_path, monkeypatch):
    monkeypatch.setattr(lcm, "lcm_evaluate",
                        lambda model, t: np.array([1.0, 0.1, 1e-310]))
    return _cli_csv(tmp_path, "lcm_series.csv", "lcm", "--B", "0.1",
                    "--gamma", "2", "--t-f", "1", "--steps", "2")


def _rhe_cv(tmp_path, monkeypatch):
    t = np.array([0.0, 0.5, 1.0])
    sol = rhe.TransientSolution(t, np.ones(3), snapshot_times=t,
                                snapshots=np.ones((3, 1)))
    monkeypatch.setattr(rhe, "solve_rhea", lambda *a, **k: sol)
    monkeypatch.setattr(rhe, "coefficient_of_variation",
                        lambda sol, mesh: np.array([0.0, 1.0 / 3.0, 2.5]))
    return _cli_csv(tmp_path, "rhe_cv.csv", "rhe", "--shape", "square",
                    "--levels", "1", "--B", "0.1")


def _learned_q(tmp_path, monkeypatch):
    q = {10.0: 0.5, 100.0: 1.0 / 3.0, 1000.0: 2.0}
    monkeypatch.setattr(lengthscale, "solve_q",
                        lambda corr, Re, Nu, Pr: np.array([q[r] for r in Re]))
    src = tmp_path / "samples.csv"
    src.write_text("Re,Nu\n10,2\n100,5.5\n1000,20\n")
    return _cli_csv(tmp_path, "learned_q.csv", "learn-q", "--correlation",
                    "ranz_marshall", "--samples", str(src), "--Pr", "0.71")


def _fit_points(tmp_path, monkeypatch):
    pts = np.array([[1.0, 0.0, -0.0], [0.1, 1.0 / 3.0, 1e300],
                    [-1.5, 2.0, 3.0]])
    fit = lengthscale.SpheroidFit(1.0, 0.0, 1.0, 1.0, np.array([1.0, 0, 0]),
                                  False)
    monkeypatch.setattr(lengthscale, "sample_spheroid_surface",
                        lambda a, b, n, theta_deg, seed: pts)
    monkeypatch.setattr(lengthscale, "fit_spheroid", lambda points: fit)
    return _cli_csv(tmp_path, "fit_points.csv", "fit-shape", "--generate",
                    "sphere")


def _transient_series(tmp_path, monkeypatch):
    rhe.TransientSolution(np.array([0.0, 0.5, 1.0]),
                          np.array([1.0, 0.1, 1e-310])).write_series(
        tmp_path / "out.csv")
    return tmp_path / "out.csv"


def _surrogate(tmp_path, monkeypatch):
    lengthscale.LengthScaleModel([-1.0, 0.0, 0.5], [30.0],
                                 [[0.5], [1.0 / 3.0], [2.0]]).to_csv(
        tmp_path / "out.csv")
    return tmp_path / "out.csv"


def _nusselt_series(tmp_path, monkeypatch):
    ser = series.NusseltSeries([0.0, 0.5, 1.0], [1.0, 0.1, 1e-310], Re=100.0,
                               length_scale="diameter")
    series.write_series(ser, tmp_path / "out.csv")
    return tmp_path / "out.csv"


def _steady_state_report(tmp_path, monkeypatch):
    hist = np.array([[0, 0.5, 0.5, 1.0, np.nan], [1, 1.0, 0.55, 0.1, np.nan],
                     [2, 1.5, 0.6, 1.0 / 3.0, 1e-310]])
    rep = series.SteadyStateReport(
        t_vs=0.1, converged=True, t_f=1.0 / 3.0, nu_stavg=2.5, history=hist,
        initial_window=0.5, step_size=0.05, growth=0.005,
        activation_time=0.75, threshold=1e-3)
    series.write_report(rep, tmp_path / "out.csv")
    return tmp_path / "out.csv"


@pytest.mark.parametrize("writer,expected", [
    (_lcm_series, "t,u_lumped\n0,1\n0.5,0.10000000000000001\n"
                  "1,9.9999999999999694e-311\n"),
    (_rhe_cv, "t,cv\n0,0\n0.5,0.33333333333333331\n1,2.5\n"),
    (_learned_q, "Re,Nu,Pr,q\n10,2,0.70999999999999996,0.5\n"
                 "100,5.5,0.70999999999999996,0.33333333333333331\n"
                 "1000,20,0.70999999999999996,2\n"),
    (_fit_points, "x,y,z\n1,0,-0\n"
                  "0.10000000000000001,0.33333333333333331,"
                  "1.0000000000000001e+300\n-1.5,2,3\n"),
    (_transient_series, "t,u_avg\n0,1\n0.5,0.10000000000000001\n"
                        "1,9.9999999999999694e-311\n"),
    (_surrogate, "s,theta_deg,q\n0.10000000000000001,30,0.5\n"
                 "1,30,0.33333333333333331\n3.1622776601683795,30,2\n"),
    (_nusselt_series, "# Re = 100.0\n# length_scale = diameter\nt,nu\n"
                      "0,1\n0.5,0.10000000000000001\n"
                      "1,9.9999999999999694e-311\n"),
    (_steady_state_report,
     "# t_vs = 0.10000000000000001\n# converged = True\n"
     "# t_f = 0.33333333333333331\n# nu_stavg = 2.5\n"
     "step,window_end,width,avg,criterion\n0,0.5,0.5,1,nan\n"
     "1,1,0.55000000000000004,0.10000000000000001,nan\n"
     "2,1.5,0.59999999999999998,0.33333333333333331,"
     "9.9999999999999694e-311\n"),
], ids=lambda v: v.__name__.lstrip("_") if callable(v) else None)
def test_csv_writer_bytes(tmp_path, monkeypatch, writer, expected):
    path = writer(tmp_path, monkeypatch)
    assert path.read_bytes() == expected.encode()
