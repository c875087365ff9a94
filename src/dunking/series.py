"""Nusselt time-series ingestion, steady-state detection, boundary profiles.

Takes spatially averaged Nusselt series (from external flow solves or
experiments), detects statistical steady state with a growing sliding
window keyed to the vortex-shedding period, and normalizes boundary
heat-transfer profiles into mean-1 variation functions with variances.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import re
import warnings

import numpy as np


# ------------------------------------------------------------- series

@dataclasses.dataclass
class NusseltSeries:
    times: np.ndarray
    nu_avg: np.ndarray
    Re: float | None = None
    Pr: float | None = None
    r1: float | None = None
    r2: float | None = None
    length_scale: str | None = None

    def __post_init__(self):
        # C order: steady_state_detect walks each column whole
        self.times = np.asarray(self.times, dtype=float, order="C")
        self.nu_avg = np.asarray(self.nu_avg, dtype=float, order="C")
        if self.times.ndim != 1 or self.times.shape != self.nu_avg.shape:
            raise ValueError("times and nu_avg must be matching 1D arrays")
        if self.times.size == 0:
            raise ValueError("the series has no samples")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times contains non-finite values")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.nu_avg)):
            raise ValueError("nu_avg contains non-finite values")


_META_LINE = re.compile(r"[ \t]*#[ \t]*(\w+)[ \t]*=[ \t]*(.*?)[ \t]*\n?")


def read_table(path, header: str, usecols):
    """(metadata, body) of a numeric UTF-8 CSV (LF, CRLF or lone-CR line
    ends), streamed into one loadtxt call.  Blank lines, comments
    (`# key = value` is metadata) and lines starting with `header` (a word,
    any case) are cut, the rest are rows.  The `usecols` columns (all when
    None) form the 2-D body; errors name `path` and the 1-based file line."""
    meta, undecodable, read, rest = {}, {}, 0, iter(())

    def batches(fh):
        # ~64 KiB of lines at a time; a cut line is made empty, which loadtxt
        # skips but counts
        nonlocal read, rest
        while batch := fh.readlines(1 << 16):
            # an ASCII line starting with one of "+,-./0-9" is never cut
            if min(batch) < "+" or max(batch) >= ":" or \
                    not all(map(str.isascii, batch)):
                for k, line in enumerate(batch):
                    if not line.isascii():  # undecodable bytes come escaped
                        try:
                            line.rstrip("\n").encode(
                                errors="surrogateescape").decode()
                        except UnicodeDecodeError as exc:
                            undecodable[read + k + 1] = exc
                            batch[k] = "?\n"  # a row loadtxt rejects
                            continue
                    head = line.lstrip(" \t")
                    if (head[:1] in ("", "\n", "#")
                            or head[:len(header)].lower() == header):
                        if match := _META_LINE.fullmatch(line):
                            meta[match[1]] = match[2]
                        batch[k] = "\n"
            read += len(batch)
            rest = iter(batch)
            yield rest

    with open(path, encoding="utf-8", errors="surrogateescape") as fh, \
            warnings.catch_warnings():
        # an empty body is for the caller to reject
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            body = np.loadtxt(itertools.chain.from_iterable(batches(fh)),
                              delimiter=",", comments="#", usecols=usecols,
                              ndmin=2)
        except ValueError as exc:
            # loadtxt pulls one line at a time: the failing line is the last
            # one it took from the batch `rest` iterates
            line_no = read - operator.length_hint(rest)
            msg = re.sub(r" at row \d+|; use `usecols`.*", "",
                         str(undecodable.get(line_no, exc)))
            raise ValueError(f"{path}: line {line_no}: {msg}") from exc
    return meta, body


def read_series(path, **metadata) -> NusseltSeries:
    """Load a `t,nu` CSV.  Lines `# key = value` supply metadata defaults;
    keyword arguments override.  Duplicated time stamps keep the last value
    (with a warning)."""
    meta, body = read_table(path, "t,", (0, 1))
    t, nu = body.T
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{path}: non-finite time stamp {t[~np.isfinite(t)][0]}")
    if not np.all(t[1:] > t[:-1]):
        # unique over the reversed stamps keeps each stamp's last occurrence
        ts, first = np.unique(t[::-1], return_index=True)
        if len(ts) < len(t):
            warnings.warn(f"duplicated time stamps: {len(t) - len(ts)}; "
                          "keeping the last value of each")
        t, nu = ts, nu[::-1][first]
    kwargs = {key: float(meta[key]) for key in ("Re", "Pr", "r1", "r2")
              if key in meta}
    if "length_scale" in meta:
        kwargs["length_scale"] = meta["length_scale"]
    return NusseltSeries(t, nu, **{**kwargs, **metadata})


def write_series(series: NusseltSeries, path) -> None:
    meta = [f"# {key} = {getattr(series, key)}"
            for key in ("Re", "Pr", "r1", "r2", "length_scale")
            if getattr(series, key) is not None]
    np.savetxt(path, np.column_stack([series.times, series.nu_avg]),
               fmt="%.17g", delimiter=",", header="\n".join(meta + ["t,nu"]),
               comments="")


def vortex_frequency(St: float, r1: float, r2: float, Re: float, Pr: float):
    """(f_vs, t_vs): shedding frequency in solid-diffusive time units.

    f_vs = St * (r2/r1) * Re * Pr, the Strouhal estimate carried into the
    nondimensionalization; t_vs = 1/f_vs is the oscillation period.
    """
    for name, v in (("St", St), ("r1", r1), ("r2", r2), ("Re", Re), ("Pr", Pr)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    f_vs = St * (r2 / r1) * Re * Pr
    if not 0 < f_vs < math.inf:
        raise ValueError(f"shedding frequency {f_vs} is out of range")
    return f_vs, 1.0 / f_vs


MAX_WINDOWS = 100_000


@dataclasses.dataclass
class SteadyStateReport:
    t_vs: float
    converged: bool
    t_f: float | None
    nu_stavg: float | None
    history: np.ndarray   # columns: step, window_end, width, avg, criterion
    # schedule actually used (exposed for inspection/configuration)
    initial_window: float
    step_size: float
    growth: float
    activation_time: float
    threshold: float


def _window_averages(times, values, t0, t1):
    """Means over the windows [t0, t1] of the piecewise-linear series, held
    at its end values outside the samples, as differences of one cumulative
    trapezoid closed by the partial segment up to each end."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1])
                                           * np.diff(times))])

    def integral(x):
        j = np.clip(np.searchsorted(times, x, "right") - 1, 0, len(times) - 1)
        return cum[j] + (x - times[j]) * 0.5 * (values[j] + np.interp(x, times, values))

    return (integral(t1) - integral(t0)) / (t1 - t0)


def steady_state_detect(series: NusseltSeries, St: float = 0.2,
                        initial_window: float = 5.0, step_size: float = 0.5,
                        growth: float = 0.05, activation: float = 7.5,
                        threshold: float = 1.0e-3) -> SteadyStateReport:
    """Sliding-window stationarity detection for a Nusselt series.

    Schedule (all lengths in units of the shedding period t_vs): the first
    window spans [0, initial_window]; each step advances the window end by
    step_size while the width grows by `growth`; the convergence test --
    mean of the four consecutive relative changes among the last five
    window averages below `threshold` -- is armed only once the window end
    passes `activation`.  A series too short to converge yields a
    not-converged report rather than an error; a schedule of more than
    MAX_WINDOWS windows is rejected before any window is averaged.
    """
    if None in (series.Re, series.Pr, series.r1, series.r2):
        raise ValueError("series metadata (Re, Pr, r1, r2) is required")
    for name, v in (("initial_window", initial_window),
                    ("step_size", step_size), ("threshold", threshold)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    for name, v in (("growth", growth), ("activation", activation)):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    _, t_vs = vortex_frequency(St, series.r1, series.r2, series.Re, series.Pr)

    k = np.arange(MAX_WINDOWS + 1)
    ends = (initial_window + k * step_size) * t_vs
    inside = ends <= series.times[-1] + 1e-12 * max(series.times[-1], 1.0)
    if inside.all():
        raise ValueError(f"the window schedule has more than {MAX_WINDOWS} "
                         "windows; use a larger step_size")
    count = np.argmin(inside)  # the first window that ends past the series
    k, ends = k[:count].copy(), ends[:count].copy()  # copies: the unused schedule is freed
    widths = (initial_window + k * growth) * t_vs
    avg = _window_averages(series.times, series.nu_avg, ends - widths, ends)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(np.diff(avg)) / np.abs(avg[:-1])
    crit = np.full(len(k), np.nan)
    crit[4:] = (rel[:-3] + rel[1:-2] + rel[2:-1] + rel[3:]) / 4.0
    armed = ends > activation * t_vs
    crit[~armed] = np.nan
    hits = np.flatnonzero(crit < threshold)
    n = hits[0] + 1 if hits.size else len(k)
    if not np.isfinite(crit[4:n][armed[4:n]]).all():
        raise FloatingPointError("a relative change of the window averages "
                                 "is not finite (a zero or infinite average)")
    t_f, nu_stavg = (float(ends[n - 1]), float(avg[n - 1])) if hits.size else (None, None)
    return SteadyStateReport(
        t_vs=t_vs, converged=bool(hits.size), t_f=t_f, nu_stavg=nu_stavg,
        history=np.column_stack([k, ends, widths, avg, crit])[:n],
        initial_window=initial_window * t_vs, step_size=step_size * t_vs,
        growth=growth * t_vs, activation_time=activation * t_vs,
        threshold=threshold)


def write_report(report: SteadyStateReport, path) -> None:
    meta = [f"# t_vs = {report.t_vs:.17g}",
            f"# converged = {report.converged}"]
    if report.converged:
        meta += [f"# t_f = {report.t_f:.17g}",
                 f"# nu_stavg = {report.nu_stavg:.17g}"]
    np.savetxt(path, report.history, fmt=["%d"] + ["%.17g"] * 4,
               delimiter=",", comments="",
               header="\n".join(meta + ["step,window_end,width,avg,criterion"]))


# ------------------------------------------------------------ profiles

@dataclasses.dataclass
class EtaProfile:
    coords: np.ndarray     # arc-length (or angle) coordinates, ascending
    eta: np.ndarray        # normalized variation, perimeter mean 1
    variance: float        # mean of (eta - 1)^2 over the boundary
    periodic: bool
    period: float | None = None


def _segments(coords, values, periodic, period):
    """(lengths, left values, right values) of the linear segments,
    including the wrap-around segment for periodic profiles."""
    h = np.diff(coords)
    if np.any(h < 0):
        raise ValueError("coordinates must be nondecreasing")
    a = values[:-1]
    b = values[1:]
    if periodic:
        if period is None:
            pos = h[h > 0]
            if len(pos) == 0:
                raise ValueError("cannot infer the period from coincident points")
            period = float(coords[-1] - coords[0] + np.median(pos))
        elif not 0 < period < math.inf:
            raise ValueError(f"period must be finite and positive, got {period}")
        wrap = period - (coords[-1] - coords[0])
        if wrap < -1e-12 * period:
            raise ValueError("period shorter than the coordinate span")
        h = np.append(h, max(wrap, 0.0))
        a = np.append(a, values[-1])
        b = np.append(b, values[0])
    return h, a, b, period


def piecewise_linear_mean(h, a, b) -> float:
    """Length-weighted mean of a function linear on each segment, exact;
    segment i has length h[i] and end values a[i], b[i]."""
    if not np.all(np.isfinite(h) & (h >= 0)):
        raise ValueError("h (segment lengths) must be finite and nonnegative")
    return float((h * (a + b) / 2.0).sum() / h.sum())


def piecewise_linear_variance(h, a, b, mean: float) -> float:
    """Length-weighted mean of (f/mean - 1)^2 for the same f, exact."""
    ea = a / mean - 1.0
    eb = b / mean - 1.0
    # exact integral of the squared linear interpolant on each segment
    return float((h * (ea * ea + ea * eb + eb * eb) / 3.0).sum() / h.sum())


def eta_profile_stats(coords, values, periodic: bool = False,
                      period: float | None = None) -> EtaProfile:
    """Normalize a boundary heat-transfer profile to mean 1 and compute
    its variance, integrating the piecewise-linear interpolant exactly.

    Repeated coordinates represent genuine jumps (zero-length segments);
    for periodic profiles the closing segment runs from the last sample
    back to the first, its length inferred from the median spacing unless
    `period` is given.
    """
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    if coords.ndim != 1 or coords.shape != values.shape or len(coords) < 2:
        raise ValueError("need matching 1D coords/values with >= 2 samples")
    for what, arr in (("coordinate", coords), ("value", values)):
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"profile sample {bad} has a non-finite {what}")
    if np.any(values < 0):
        raise ValueError("profile values must be nonnegative")
    h, a, b, period = _segments(coords, values, periodic, period)
    if h.sum() <= 0:
        raise ValueError("profile has zero total length")
    mean = piecewise_linear_mean(h, a, b)
    if mean <= 0:
        raise ValueError("profile mean must be positive")
    var = piecewise_linear_variance(h, a, b, mean)
    return EtaProfile(coords=coords, eta=values / mean, variance=var,
                      periodic=periodic, period=period if periodic else None)
