"""Command-line driver: option handling, artifacts, exit codes."""
import math
import time
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from dunking import cli, eigen, lengthscale, rhe, series
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
    cfgfile.write_text("shape = disk\nlevels = 3\nseed = 5\n")
    code, out = run(tmp_path, "phi", "--config", str(cfgfile),
                    "--shape", "square")
    assert code == 0
    manifest = (out / "phi_manifest.txt").read_text()
    assert "shape = square\n" in manifest       # flag beats config
    assert "levels = 3\n" in manifest
    assert "seed = 5\n" in manifest


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shape = disk\nshapes = square\n")
    code, _ = run(tmp_path, "phi", "--config", str(cfgfile))
    assert code == 2


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


SERIES_META = "# Re = 100\n# Pr = 0.71\n# r1 = 0.5\n# r2 = 2.0\nt,nu\n"


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
     "config error: time must be finite"),
    (("lcm", "--B", "0.05", "--gamma", "2", "--steps", "0"), 2,
     "config error: --steps must be at least 1"),
    (("fit-shape", "--generate", "spheroid", "--n", "-5"), 2,
     "config error: n must be at least 1, got -5"),
    (("fit-shape", "--generate", "cuboid", "--n", "0"), 2,
     "config error: n must be at least 1, got 0"),
    (("learn-q", "--correlation", "churchill_bernstein", "--Re", "1e300",
      "--Nu", "5", "--Pr", "0.71"), 3,
     "numeric failure: no interior minimum for churchill_bernstein at Re=1e+300"),
], ids=["lcm-t-f-inf", "lcm-steps-0", "spheroid-n-negative", "cuboid-n-0",
        "learn-q-overflow"])
def test_rejected_input_prints_only_its_error_line(tmp_path, capsys, argv,
                                                   code, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _ = run(tmp_path, *argv)
    assert got == code
    assert [str(w.message) for w in caught] == []
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
     "--steps", cli.MAX_STEPS),
    (("rhe", "--shape", "disk", "--B", "0.1", "--steps", "1000000000000"),
     "--steps", cli.MAX_STEPS),
    (("fit-shape", "--generate", "sphere", "--n", "1000000000000"),
     "--n", cli.MAX_POINTS),
    (("phi", "--shape", "disk", "--levels", "12"), "--levels",
     cli.MAX_LEVELS),
    (("rhe", "--shape", "disk", "--B", "0.1", "--levels", "12"), "--levels",
     cli.MAX_LEVELS),
    (("tables", "--levels", "12"), "--levels", cli.MAX_LEVELS),
], ids=["lcm-steps", "rhe-steps", "fit-shape-n", "phi-levels", "rhe-levels",
        "tables-levels"])
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
        for opt in opts:
            if opt.typ is float:
                bases = BOUNDARY_BASES[command]
                base = next((b for b in bases if opt.flag in b), bases[0])
                for value in ("nan", "inf"):
                    yield pytest.param(command, base, f"{opt.flag}={value}",
                                       id=f"{command}{opt.flag}={value}")


@pytest.mark.parametrize("command,base,flag", _boundary_cases())
def test_nonfinite_flag_never_reported(tmp_path, command, base, flag):
    """Every float option, set to nan or inf, either fails the run or
    leaves only finite numbers in the report."""
    files = {"SERIES": ("series.csv", SERIES_META + "".join(
                 f"{k / 100},7.25\n" for k in range(101))),
             "GRID": ("grid.csv", "s,theta_deg,q\n1,0,1\n1,90,2\n"
                                  "4,0,1.5\n4,90,2.5\n")}
    argv = []
    for arg in base:
        if arg in files:
            name, text = files[arg]
            (tmp_path / name).write_text(text)
            arg = str(tmp_path / name)
        argv.append(arg)
    code, out = run(tmp_path, command, *argv, flag)
    if code == 0:
        for key, val in _report(out, command).items():
            try:
                number = float(val)
            except ValueError:
                continue
            assert math.isfinite(number), f"{key} = {val}"


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
     "point 11 has a non-finite coordinate"),
], ids=["series-nan-time", "series-nan-Re", "series-no-rows",
        "points-nan-coordinate"])
def test_nonfinite_file_inputs_are_config_errors(tmp_path, capsys, command,
                                                 flag, text, message):
    src = tmp_path / "input.csv"
    src.write_text(text)
    code, _ = run(tmp_path, command, flag, str(src))
    assert code == 2
    assert message in capsys.readouterr().err


def test_negative_variance_in_bounds_is_named(tmp_path, capsys):
    code, _ = run(tmp_path, "bounds", "--B", "0.05", "--B-est", "0.05",
                  "--gamma", "4", "--phi", "1", "--phi111", "0.5",
                  "--gamma-over-lambda", "2", "--var-eta", "-1")
    assert code == 2
    assert "variances must be nonnegative" in capsys.readouterr().err


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


def test_phi_has_no_coefficient_options(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "phi", "--shape", "disk", "--kappa", "2")
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shape = disk\nkappa = 1\n")
    code, _ = run(tmp_path, "phi", "--config", str(cfgfile))
    assert code == 2


def test_nonfinite_biot_is_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "rhe", "--shape", "disk", "--levels", "3",
                    "--B", "nan")
    assert code == 2
    assert "Biot number" in capsys.readouterr().err
    assert not (out / "rhe_series.csv").exists()


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
    monkeypatch.setattr(cli.lcm_mod, "lcm_evaluate",
                        lambda model, t: np.array([1.0, 0.1, 1e-310]))
    return _cli_csv(tmp_path, "lcm_series.csv", "lcm", "--B", "0.1",
                    "--gamma", "2", "--t-f", "1", "--steps", "2")


def _rhe_cv(tmp_path, monkeypatch):
    t = np.array([0.0, 0.5, 1.0])
    sol = rhe.TransientSolution(t, np.ones(3), snapshot_times=t,
                                snapshots=np.ones((3, 1)))
    monkeypatch.setattr(cli.rhe_mod, "solve_rhea", lambda *a, **k: sol)
    monkeypatch.setattr(cli.rhe_mod, "coefficient_of_variation",
                        lambda sol, mesh: np.array([0.0, 1.0 / 3.0, 2.5]))
    return _cli_csv(tmp_path, "rhe_cv.csv", "rhe", "--shape", "square",
                    "--levels", "1", "--B", "0.1")


def _learned_q(tmp_path, monkeypatch):
    q = {10.0: 0.5, 100.0: 1.0 / 3.0, 1000.0: 2.0}
    monkeypatch.setattr(cli.ls_mod, "solve_q",
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
    monkeypatch.setattr(cli.ls_mod, "sample_sphere_surface",
                        lambda n, seed: pts)
    monkeypatch.setattr(cli.ls_mod, "fit_spheroid", lambda points: fit)
    return _cli_csv(tmp_path, "fit_points.csv", "fit-shape", "--generate",
                    "sphere")


def _transient_series(tmp_path, monkeypatch):
    rhe.TransientSolution(np.array([0.0, 0.5, 1.0]),
                          np.array([1.0, 0.1, 1e-310])).write_series(
        tmp_path / "out.csv")
    return tmp_path / "out.csv"


def _eigenpairs(tmp_path, monkeypatch):
    eigen.write_eigenpairs(tmp_path / "out.csv",
                           [eigen.EigenPair(v, None) for v in (1.0, 0.1, 1e300)])
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


def _eta_profile(tmp_path, monkeypatch):
    prof = series.EtaProfile(np.array([0.0, 0.5, 1.0]),
                             np.array([1.0, 0.1, 1.0 / 3.0]), variance=0.0,
                             periodic=True, period=1.5)
    series.write_profile(prof, tmp_path / "out.csv")
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
    (_eigenpairs, "index,lambda\n0,1\n1,0.10000000000000001\n"
                  "2,1.0000000000000001e+300\n"),
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
    (_eta_profile, "# periodic=true\ncoord,eta\n0,1\n"
                   "0.5,0.10000000000000001\n1,0.33333333333333331\n"),
], ids=lambda v: v.__name__.lstrip("_") if callable(v) else None)
def test_csv_writer_bytes(tmp_path, monkeypatch, writer, expected):
    path = writer(tmp_path, monkeypatch)
    assert path.read_bytes() == expected.encode()
