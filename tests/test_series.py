"""Nusselt time series, steady-state detection, boundary profiles."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    with pytest.raises(ValueError, match="the series has no samples"):
        series.NusseltSeries([], [])
    with pytest.raises(ValueError, match="matching 1D arrays"):
        series.NusseltSeries(0.0, 1.0)


def test_series_stores_contiguous_columns():
    a = np.column_stack([np.linspace(0.0, 1.0, 11), np.ones(11)])
    ser = series.NusseltSeries(a[:, 0], a[:, 1])
    assert ser.times.flags.c_contiguous and ser.nu_avg.flags.c_contiguous
    assert np.array_equal(ser.times, a[:, 0])


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


@pytest.mark.parametrize("meta,kwargs,message", [
    ({"Re": np.nan}, {}, "Re must be finite and positive, got nan"),
    ({"r1": np.inf}, {}, "r1 must be finite and positive, got inf"),
    ({"r2": -1.0}, {}, "r2 must be finite and positive"),
    ({"Pr": 0.0}, {}, "Pr must be finite and positive"),
    ({}, {"St": np.nan}, "St must be finite and positive"),
    ({}, {"St": np.inf}, "St must be finite and positive"),
    ({"Re": 1e200, "Pr": 1e200}, {}, "shedding frequency inf is out of range"),
    ({}, {"initial_window": np.nan}, "initial_window must be finite and positive"),
    ({}, {"initial_window": 0.0}, "initial_window must be finite and positive"),
    ({}, {"step_size": np.nan}, "step_size must be finite and positive"),
    ({}, {"step_size": 0.0}, "step_size must be finite and positive"),
    ({}, {"step_size": -1.0}, "step_size must be finite and positive"),
    ({}, {"threshold": np.nan}, "threshold must be finite and positive"),
    ({}, {"threshold": 0.0}, "threshold must be finite and positive"),
    ({}, {"growth": np.nan}, "growth must be finite and nonnegative"),
    ({}, {"growth": -0.05}, "growth must be finite and nonnegative"),
    ({}, {"activation": np.nan}, "activation must be finite and nonnegative"),
    ({}, {"activation": np.inf}, "activation must be finite and nonnegative"),
])
def test_detection_rejects_out_of_domain_inputs(meta, kwargs, message):
    t = np.linspace(0.0, 1.0, 11)
    ser = series.NusseltSeries(t, np.ones_like(t), **{**META, **meta})
    with pytest.raises(ValueError, match=message):
        series.steady_state_detect(ser, **kwargs)


def test_detection_accepts_zero_growth_and_activation():
    t_vs = _tvs()
    t = np.linspace(0.0, 20.0 * t_vs, 4001)
    rep = series.steady_state_detect(
        series.NusseltSeries(t, np.full_like(t, 7.0), **META),
        growth=0.0, activation=0.0)
    assert rep.converged
    assert abs(rep.t_f - 7.0 * t_vs) < 1e-9 * t_vs   # k = 4: fifth window


def _loop_history(ser, St=0.2, initial_window=5.0, step_size=0.5,
                  growth=0.05, activation=7.5, threshold=1.0e-3):
    """The one-window-at-a-time loop steady_state_detect replaced: its
    history, kept as the reference."""
    _, t_vs = series.vortex_frequency(St, ser.r1, ser.r2, ser.Re, ser.Pr)
    t_end = ser.times[-1]
    hist, averages, k = [], [], 0
    while True:
        window_end = (initial_window + k * step_size) * t_vs
        width = (initial_window + k * growth) * t_vs
        if window_end > t_end + 1e-12 * max(t_end, 1.0):
            break
        avg = series._window_average(ser.times, ser.nu_avg,
                                     window_end - width, window_end)
        averages.append(avg)
        crit = math.nan
        if len(averages) >= 5 and window_end > activation * t_vs:
            a = averages[-5:]
            crit = sum(abs(a[i + 1] - a[i]) / abs(a[i]) for i in range(4)) / 4.0
        hist.append((k, window_end, width, avg, crit))
        if not math.isnan(crit) and crit < threshold:
            break
        k += 1
    return np.array(hist) if hist else np.empty((0, 5))


@given(kind=st.sampled_from(["drift", "decay", "noise"]),
       seed=st.integers(0, 2**16),
       periods=st.floats(2.0, 30.0),
       initial_window=st.floats(0.5, 8.0),
       step_size=st.floats(0.05, 2.0),
       growth=st.floats(0.0, 0.5),
       activation=st.floats(0.0, 12.0),
       threshold=st.floats(1e-5, 1e-1))
def test_history_matches_window_loop(kind, seed, periods, **schedule):
    t_vs = _tvs()
    t = np.linspace(0.0, periods * t_vs, 1001)
    nu = {"drift": 10.0 * (1.0 + 0.01 * t / t_vs),
          "decay": 10.0 + 8.0 * np.exp(-t / t_vs),
          "noise": 10.0 * (1.0 + 1e-3 * np.random.default_rng(seed)
                           .standard_normal(len(t)))}[kind]
    ser = series.NusseltSeries(t, nu, **META)
    rep = series.steady_state_detect(ser, **schedule)
    hist = _loop_history(ser, **schedule)
    assert np.array_equal(rep.history, hist, equal_nan=True)
    assert rep.converged == (len(hist) > 0 and hist[-1, 4] < schedule["threshold"])
    if rep.converged:
        assert (rep.t_f, rep.nu_stavg) == (hist[-1, 1], hist[-1, 3])


def test_window_schedule_is_capped(monkeypatch):
    t_vs = _tvs()
    t = np.linspace(0.0, 10.0 * t_vs, 101)
    ser = series.NusseltSeries(t, 10.0 * (1.0 + 0.01 * t / t_vs), **META)
    # windows end at (5 + k/2) t_vs for k = 0..10: eleven windows
    monkeypatch.setattr(series, "MAX_WINDOWS", 11)
    assert len(series.steady_state_detect(ser).history) == 11
    monkeypatch.setattr(series, "MAX_WINDOWS", 10)
    with pytest.raises(ValueError, match="more than 10 windows"):
        series.steady_state_detect(ser)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="more than 100000 windows"):
        series.steady_state_detect(ser, step_size=1e-20)


def test_zero_window_average_is_numeric_error():
    t = np.linspace(0.0, 20.0 * _tvs(), 201)
    with pytest.raises(ArithmeticError):
        series.steady_state_detect(
            series.NusseltSeries(t, np.zeros_like(t), **META))


def _masked_window_average(times, values, t0, t1):
    # the full-series mask the slice bounds replace
    inside = (times > t0) & (times < t1)
    ts = np.concatenate([[t0], times[inside], [t1]])
    vs = np.concatenate([[np.interp(t0, times, values)], values[inside],
                         [np.interp(t1, times, values)]])
    return float(np.trapezoid(vs, ts) / (t1 - t0))


def test_window_average_matches_masked_reference(rng):
    times = np.cumsum(rng.uniform(0.1, 1.0, 200))
    values = rng.normal(5.0, 1.0, 200)
    # window ends on samples, between samples and beyond both ends
    ends = np.concatenate([times[[0, 5, 50, 199]], rng.uniform(-5, 120, 40)])
    for t0 in ends:
        for t1 in ends[ends > t0]:
            assert (series._window_average(times, values, t0, t1)
                    == _masked_window_average(times, values, t0, t1))


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
    p.write_text("# Re = 10\nt,nu\n2,3\n1,2\n0,1\n1,9\n2,4\n1,5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ser = series.read_series(p, Pr=0.71, r1=1.0, r2=1.0)
    assert [str(w.message) for w in caught] == [
        "duplicated time stamps: 3; keeping the last value of each"]
    assert np.array_equal(ser.times, [0.0, 1.0, 2.0])
    assert np.array_equal(ser.nu_avg, [1.0, 5.0, 4.0])


@pytest.mark.parametrize("text", [
    "t,nu\n# Re = 10\n0,1\n1,2.5\n",                  # metadata after the header
    "# Re = 10\nT,NU\n0,1\n1,2.5\n",                  # upper-case header
    "# Re = 10\r\nt,nu\r\n0,1\r\n1,2.5\r\n",          # CRLF line endings
    "  # Re=10  \n\n t,nu\n0, 1 ,extra\n\n1,2.5 # note\n",  # spacing, blanks
    "# Re = 10\rt,nu\r0,1\r1,2.5\r",                 # lone-CR line endings
    "#Re=10\nt,nu\n0,1\n1,2.5\n",                     # no spaces
], ids=["meta-after-header", "upper-case-header", "crlf", "spacing",
        "lone-cr", "no-spaces"])
def test_read_series_layouts(tmp_path, text):
    p = tmp_path / "series.csv"
    p.write_bytes(text.encode())
    ser = series.read_series(p)
    assert ser.Re == 10.0
    assert np.array_equal(ser.times, [0.0, 1.0])
    assert np.array_equal(ser.nu_avg, [1.0, 2.5])


def test_read_series_cuts_lines_deep_in_the_file(tmp_path):
    # the reader checks lines only in batches that may hold one to cut;
    # these sit ~300 KB into the file
    k = np.arange(30_000)
    rows = [f"{i},{i % 7}\n" for i in k]
    rows[20_000:20_000] = ["# Re = 42.5\n", "  T,NU\n", "\n", "\t# note\n"]
    p = tmp_path / "series.csv"
    p.write_text("".join(rows))
    ser = series.read_series(p)
    assert ser.Re == 42.5
    assert np.array_equal(ser.times, k)
    assert np.array_equal(ser.nu_avg, k % 7)


def test_read_series_memory_is_bounded(tmp_path):
    """The reader's peak allocation stays within 3 times the arrays it
    returns, whatever the file size."""
    t = np.linspace(0.0, 50.0, 50_001)
    p = tmp_path / "series.csv"
    series.write_series(series.NusseltSeries(t, 7.0 + np.sin(t), **META), p)
    tracemalloc.start()
    try:
        ser = series.read_series(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ser.times) == 50_001
    assert peak <= 3 * (ser.times.nbytes + ser.nu_avg.nbytes)


def _reference_read_series(path):
    """The line-by-line parser `read_series` replaced."""
    meta, dedup = {}, {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    k, v = line[1:].split("=", 1)
                    meta[k.strip()] = v.strip()
                continue
            if line.lower().startswith("t,"):
                continue
            t_s, nu_s = line.split(",")[:2]
            dedup[float(t_s)] = float(nu_s)
    ts = np.array(sorted(dedup))
    return meta, ts, np.array([dedup[t] for t in ts])


@given(rows=st.lists(st.tuples(st.integers(-20, 20),
                               st.floats(-1e6, 1e6, allow_nan=False)),
                     min_size=1, max_size=30),
       header_at=st.integers(0, 30), scale=st.sampled_from([1.0, 0.1, 1e-9]))
def test_read_series_matches_line_parser(tmp_path_factory, rows, header_at,
                                         scale):
    lines = [f"{k * scale!r},{nu!r}" for k, nu in rows]
    lines.insert(min(header_at, len(lines)), "t,nu")
    lines.insert(header_at % (len(lines) + 1), "# Re = 42.5")
    p = tmp_path_factory.mktemp("series") / "s.csv"
    p.write_text("\n".join(lines) + "\n")
    meta, ts, nus = _reference_read_series(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ser = series.read_series(p)
    assert meta == {"Re": "42.5"} and ser.Re == 42.5
    assert np.array_equal(ser.times, ts)
    assert np.array_equal(ser.nu_avg, nus)


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
