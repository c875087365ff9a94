"""Nusselt time series, steady-state detection, boundary profiles."""
import math

import numpy as np
import pytest

from dunking import series


META = dict(Re=100.0, Pr=0.71, r1=0.5, r2=2.0)


def _tvs():
    return series.vortex_frequency(0.2, META["r1"], META["r2"],
                                   META["Re"], META["Pr"])[1]


def test_vortex_frequency():
    f, t = series.vortex_frequency(0.2, 0.5, 2.0, 100.0, 0.71)
    assert abs(f - 56.8) < 1e-12
    assert abs(f * t - 1.0) < 1e-15
    with pytest.raises(ValueError):
        series.vortex_frequency(0.2, -0.5, 2.0, 100.0, 0.71)
    with pytest.raises(ValueError):
        series.vortex_frequency(0.0, 0.5, 2.0, 100.0, 0.71)


def test_series_validation():
    with pytest.raises(ValueError):
        series.NusseltSeries([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        series.NusseltSeries([0.0, 1.0], [1.0, np.nan])
    with pytest.raises(ValueError):
        series.NusseltSeries([[0.0, 1.0]], [[1.0, 2.0]])


def test_constant_series_converges_at_earliest_armed_window():
    t_vs = _tvs()
    t = np.linspace(0.0, 20.0 * t_vs, 4001)
    ser = series.NusseltSeries(t, np.full_like(t, 7.0), **META)
    rep = series.steady_state_detect(ser)
    assert rep.converged
    # first armed check: five window averages collected AND window end
    # strictly beyond the activation time
    assert abs(rep.t_f - 8.0 * t_vs) < 1e-9 * t_vs
    assert abs(rep.nu_stavg - 7.0) < 1e-12
    hist = rep.history
    assert hist.shape == (7, 5)
    ks = np.arange(7)
    assert np.allclose(hist[:, 1], (5.0 + 0.5 * ks) * t_vs, rtol=1e-12)
    assert np.allclose(hist[:, 2], (5.0 + 0.05 * ks) * t_vs, rtol=1e-12)
    assert np.isnan(hist[:6, 4]).all()
    assert hist[6, 4] < 1e-15


def test_decaying_series_converges_to_plateau():
    t_vs = _tvs()
    t = np.linspace(0.0, 25.0 * t_vs, 6001)
    nu = 10.0 + 8.0 * np.exp(-t / t_vs)
    rep = series.steady_state_detect(series.NusseltSeries(t, nu, **META))
    assert rep.converged
    assert abs(rep.t_f - 11.0 * t_vs) < 1e-9 * t_vs
    assert abs(rep.nu_stavg - 10.0) < 0.05 * 10.0


def test_drifting_series_never_converges():
    t_vs = _tvs()
    t = np.linspace(0.0, 25.0 * t_vs, 6001)
    nu = 10.0 * (1.0 + 0.01 * t / t_vs)   # 1% drift per shedding period
    rep = series.steady_state_detect(series.NusseltSeries(t, nu, **META))
    assert not rep.converged
    assert rep.t_f is None and rep.nu_stavg is None
    assert rep.history.shape == (41, 5)   # every window fit, none passed


def test_short_series_reports_not_converged():
    t_vs = _tvs()
    t = np.linspace(0.0, 3.0 * t_vs, 500)
    rep = series.steady_state_detect(
        series.NusseltSeries(t, np.full_like(t, 4.0), **META))
    assert not rep.converged
    assert rep.history.shape == (0, 5)


def test_detection_is_invariant_under_time_rescaling():
    # same signal as a function of t/t_vs must convert at the same
    # multiple of t_vs whatever the physical parameters are
    reps = []
    for meta in (META, dict(Re=5000.0, Pr=6.66, r1=1.7, r2=0.0025)):
        t_vs = series.vortex_frequency(0.2, meta["r1"], meta["r2"],
                                       meta["Re"], meta["Pr"])[1]
        t = np.linspace(0.0, 20.0 * t_vs, 4001)
        nu = 3.0 + np.exp(-2.0 * t / t_vs)
        reps.append(series.steady_state_detect(
            series.NusseltSeries(t, nu, **meta)))
        reps[-1].t_f /= t_vs
    assert reps[0].converged and reps[1].converged
    assert abs(reps[0].t_f - reps[1].t_f) < 1e-9


def test_schedule_is_configurable():
    t_vs = _tvs()
    t = np.linspace(0.0, 20.0 * t_vs, 4001)
    ser = series.NusseltSeries(t, np.full_like(t, 7.0), **META)
    rep = series.steady_state_detect(ser, initial_window=2.0, step_size=1.0,
                                     growth=0.1, activation=3.0,
                                     threshold=1e-2)
    assert rep.converged
    assert abs(rep.t_f - 6.0 * t_vs) < 1e-9 * t_vs   # k = 4: fifth window
    assert abs(rep.initial_window - 2.0 * t_vs) < 1e-12
    assert abs(rep.step_size - 1.0 * t_vs) < 1e-12
    assert abs(rep.activation_time - 3.0 * t_vs) < 1e-12
    assert rep.threshold == 1e-2


def test_detection_requires_metadata():
    t = np.linspace(0.0, 1.0, 100)
    ser = series.NusseltSeries(t, np.ones_like(t), Re=100.0, Pr=0.71)
    with pytest.raises(ValueError):
        series.steady_state_detect(ser)


def test_series_roundtrip(tmp_path):
    t = np.linspace(0.0, 2.0, 37)
    ser = series.NusseltSeries(t, 5.0 + np.sin(t), length_scale="diameter",
                               **META)
    p = tmp_path / "series.csv"
    series.write_series(ser, p)
    back = series.read_series(p)
    assert np.array_equal(back.times, ser.times)
    assert np.array_equal(back.nu_avg, ser.nu_avg)
    assert back.Re == 100.0 and back.Pr == 0.71
    assert back.r1 == 0.5 and back.r2 == 2.0
    assert back.length_scale == "diameter"
    # keyword arguments override file metadata
    assert series.read_series(p, Re=250.0).Re == 250.0


def test_duplicate_time_stamps_keep_last(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("# Re = 10\nt,nu\n0,1\n1,2\n1,9\n2,3\n")
    with pytest.warns(UserWarning):
        ser = series.read_series(p, Pr=0.71, r1=1.0, r2=1.0)
    assert np.array_equal(ser.times, [0.0, 1.0, 2.0])
    assert ser.nu_avg[1] == 9.0


def test_report_file(tmp_path):
    t_vs = _tvs()
    t = np.linspace(0.0, 20.0 * t_vs, 4001)
    rep = series.steady_state_detect(
        series.NusseltSeries(t, np.full_like(t, 7.0), **META))
    p = tmp_path / "report.csv"
    series.write_report(rep, p)
    text = p.read_text()
    assert "# converged = True" in text
    assert f"# t_f = {rep.t_f:.17g}" in text
    assert text.count("\n") == 4 + 1 + len(rep.history)


# ------------------------------------------------------------- profiles

def test_constant_profile():
    prof = series.eta_profile_stats([0.0, 1.0, 3.0], [2.5, 2.5, 2.5])
    assert np.allclose(prof.eta, 1.0)
    assert prof.variance == 0.0


def test_jump_profile_via_repeated_coordinate():
    # equal arcs at 0 and 2 with a genuine jump: variance exactly one
    prof = series.eta_profile_stats([0.0, 1.0, 1.0, 2.0],
                                    [0.0, 0.0, 2.0, 2.0])
    assert prof.variance == 1.0


def test_two_level_profile_on_circle():
    # half the circle at 0, half at 2, sampled between the jumps: the
    # two crossing segments knock the variance just below one
    n = 1000
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    vals = np.where(np.sin(th) >= 0.0, 2.0, 0.0)
    prof = series.eta_profile_stats(th, vals, periodic=True)
    assert abs(prof.period - 2.0 * np.pi) < 1e-12
    assert abs(np.mean(prof.eta) - 1.0) < 1e-12   # mean folds to exactly 1
    assert abs(prof.variance - (1.0 - (4.0 / 3.0) / n)) < 1e-12


def test_smooth_profile_variance():
    th = np.linspace(0.0, 2.0 * np.pi, 2001)[:-1]
    vals = 1.0 + 0.5 * np.sin(th)
    prof = series.eta_profile_stats(th, vals, periodic=True,
                                    period=2.0 * np.pi)
    assert abs(prof.variance - 0.125) < 1e-4


def test_profile_scale_invariance():
    th = np.linspace(0.0, 2.0 * np.pi, 201)[:-1]
    vals = 1.0 + 0.5 * np.sin(th)
    a = series.eta_profile_stats(th, vals, periodic=True, period=2 * np.pi)
    b = series.eta_profile_stats(th, 7.0 * vals, periodic=True,
                                 period=2 * np.pi)
    assert abs(a.variance - b.variance) < 1e-14
    assert np.allclose(a.eta, b.eta, rtol=1e-14)


def test_profile_errors():
    with pytest.raises(ValueError):
        series.eta_profile_stats([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        series.eta_profile_stats([0.0], [1.0])
    with pytest.raises(ValueError):
        series.eta_profile_stats([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        series.eta_profile_stats([0.0, 0.0], [1.0, 2.0])   # zero length
    with pytest.raises(ValueError):
        series.eta_profile_stats([0.0, 0.0], [1.0, 2.0], periodic=True)
    with pytest.raises(ValueError):
        series.eta_profile_stats([0.0, 1.0, 2.0], [1.0, 1.0, 1.0],
                                 periodic=True, period=1.5)


@pytest.mark.parametrize("coords,values,message", [
    ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], "sample 1 has a non-finite value"),
    ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0], "sample 1 has a non-finite coordinate"),
])
def test_profile_rejects_nonfinite_samples(coords, values, message):
    with pytest.raises(ValueError, match=message):
        series.eta_profile_stats(coords, values)


def test_profile_roundtrip(tmp_path):
    th = np.linspace(0.0, 2.0 * np.pi, 65)[:-1]
    prof = series.eta_profile_stats(th, 1.0 + 0.3 * np.cos(th),
                                    periodic=True)
    p = tmp_path / "profile.csv"
    series.write_profile(prof, p)
    back = series.read_profile(p)
    assert back.periodic
    assert np.allclose(back.eta, prof.eta, rtol=1e-14)
    assert abs(back.variance - prof.variance) < 1e-14
