"""Learning length-scale ratios q from (geometry, Re, Nu) data.

Pipeline: invert a reference correlation for q at each (Re, Nu) sample
(``solve_q``: closed form for Ranz-Marshall, a golden-section search over
all samples at once for any other), average over Reynolds number in log space,
assemble a piecewise-bilinear surrogate q(s, theta) over the aspect-ratio /
angle-of-attack grid, and fit an equivalent spheroid to a surface point
cloud to query the surrogate for shapes outside the trained family.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .correlations import Correlation
from .series import read_table

Q_SEARCH_RANGE = (1.0e-4, 1.0e4)
LOG_Q_TOL = 1.0e-10
WIDTH_CHUNK = 1 << 17   # projections _widths holds at once: 1 MiB, inside L2


class LearningError(RuntimeError):
    """Raised when the pointwise inversion cannot bracket a minimum."""


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi, tol):
    """Plain golden-section minimization over all entries at once.  Interval
    shrinkage ignores f, which makes it immune to the sqrt(eps) floor of
    parabolic steps, and from one [lo, hi] every width passes tol at the same
    step (18.42 G^54 = 1.02e-10 is 2 % above LOG_Q_TOL): no entry needs a mask."""
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while np.max(hi - lo, initial=0.0) > tol:
        left = f1 <= f2
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        x = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fx = f(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    return 0.5 * (lo + hi)


def solve_q(corr: Correlation, Re, Nu, Pr) -> np.ndarray:
    """Length-scale ratios minimizing [Nu - q^{-1} corr(q Re, Pr)]^2, one per
    sample of the broadcast 1-D arrays (Re, Nu, Pr).

    Searched over q in [1e-4, 1e4] (golden-section search on log q over all
    samples at once, tolerance 1e-10).  For ``corr.name == "ranz_marshall"``
    the quadratic in sqrt(q),  Nu x^2 - 0.6 sqrt(Re) Pr^(1/3) x - 2 = 0,
    gives the answer in closed form instead.
    """
    Re, Nu, Pr = np.broadcast_arrays(*np.atleast_1d(Re, Nu, Pr))
    if not all(np.all((0 < v) & (v < np.inf)) for v in (Re, Nu, Pr)):
        raise ValueError("Re, Nu, Pr must all be finite and positive")
    if corr.name == "ranz_marshall":
        c = 0.6 * np.sqrt(Re) * Pr ** (1.0 / 3.0)
        x = (c + np.sqrt(c * c + 8.0 * Nu)) / (2.0 * Nu)
        return x * x
    if np.any(Re > np.finfo(float).max / Q_SEARCH_RANGE[1]):
        raise ValueError("q Re must be finite over the whole search range")

    def objective(log_q):
        q = np.exp(log_q)
        # an overflowed square is inf, which the interior check rejects
        with np.errstate(over="ignore"):
            return (Nu - corr.evaluator(q * Re, Pr) / q) ** 2

    lo, hi = math.log(Q_SEARCH_RANGE[0]), math.log(Q_SEARCH_RANGE[1])
    L = _golden_min(objective, lo, hi, LOG_Q_TOL)
    # three-point check, h = 1e-6: each minimum interior and truly bracketed
    f0 = objective(L)
    bad = np.flatnonzero((L - lo < 100 * LOG_Q_TOL) | (hi - L < 100 * LOG_Q_TOL)
                         | (f0 > objective(L - 1e-6) + 1e-30)
                         | (f0 > objective(L + 1e-6) + 1e-30))
    if bad.size:
        i = bad[0]
        raise LearningError(
            f"no interior minimum for {corr.name} at Re={Re[i]:g}, "
            f"Nu={Nu[i]:g}, Pr={Pr[i]:g}: log q = {L[i]:.6g} with "
            f"objective {f0[i]:.3e} on [{lo:.3g}, {hi:.3g}]")
    # a scalar exp per element: the array exp can differ in the last bit
    return np.array([math.exp(x) for x in L])


def average_q_log(samples) -> float:
    """Trapezoidal average of q over log Re (samples: iterable of (Re, q))."""
    Re, q = np.array(list(samples), dtype=float).reshape(-1, 2).T
    if len(Re) < 2:
        raise ValueError("need at least 2 samples to average")
    if not np.all((Re > 0) & (Re < np.inf)):
        raise ValueError("Re values must be finite and positive")
    if not np.all((q > 0) & (q < np.inf)):
        raise ValueError("q values must be finite and positive")
    order = np.argsort(Re)
    Re, q = Re[order], q[order]
    if np.any(np.diff(Re) == 0):
        raise ValueError("duplicate Re values")
    x = np.log(Re)
    return float(np.trapezoid(q, x) / (x[-1] - x[0]))


# ---------------------------------------------------------- surrogate

@dataclasses.dataclass
class LengthScaleModel:
    """Bilinear q(log10 s, theta) interpolant on a rectangular grid."""
    log10_s: np.ndarray     # (ns,) strictly increasing
    theta_deg: np.ndarray   # (nt,) strictly increasing
    q: np.ndarray           # (ns, nt), all positive

    def __post_init__(self):
        self.log10_s = np.asarray(self.log10_s, dtype=float)
        self.theta_deg = np.asarray(self.theta_deg, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        for name, axis in (("log10_s", self.log10_s), ("theta_deg", self.theta_deg)):
            if not (np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0)):
                raise ValueError(f"{name} must be finite and strictly increasing")
        if self.q.shape != (len(self.log10_s), len(self.theta_deg)):
            raise ValueError("q grid shape does not match the axes")
        if not np.all((self.q > 0) & (self.q < np.inf)):
            raise ValueError("q must be finite and positive")

    def evaluate(self, s: float, theta_deg: float) -> float:
        if s <= 0:
            raise ValueError("aspect ratio must be positive")
        return float(self._at(np.array([math.log10(s)]),
                              np.array([theta_deg], dtype=float))[0])

    def _at(self, log10_s: np.ndarray, theta_deg: np.ndarray) -> np.ndarray:
        """q at each (log10 s, theta) pair.  The four corner terms are
        rounded and summed in the order scipy's RegularGridInterpolator
        uses, so the values equal its linear ones bit for bit."""
        i, i1, x = _cell(self.log10_s, log10_s, "log10(s)")
        j, j1, y = _cell(self.theta_deg, theta_deg, "theta")
        q = self.q
        return (q[i, j] * (1 - x) * (1 - y) + q[i, j1] * (1 - x) * y
                + q[i1, j] * x * (1 - y) + q[i1, j1] * x * y)

    def to_csv(self, path) -> None:
        # a scalar power per element: the array power can differ in the last bit
        s = np.repeat([10.0 ** ls for ls in self.log10_s], len(self.theta_deg))
        theta = np.tile(self.theta_deg, len(self.log10_s))
        np.savetxt(path, np.column_stack([s, theta, self.q.ravel()]), fmt="%.17g",
                   delimiter=",", header="s,theta_deg,q", comments="")

    @staticmethod
    def from_csv(path) -> "LengthScaleModel":
        _, rows = read_table(path, "s,", None)
        if len(rows) and rows.shape[1] != 3:
            raise ValueError(f"{path}: surrogate CSV needs columns s,theta_deg,q,"
                             f" not {rows.shape[1]}")
        return build_surrogate(rows)


def _cell(axis: np.ndarray, a: np.ndarray, name: str):
    """(i, i + 1, offset in [0, 1]) of the grid cell [axis[i], axis[i + 1]]
    holding each a; the top node belongs to the last cell.  A one-point axis
    is one cell of width 0: both indices 0, offset 0."""
    if not np.all((axis[0] <= a) & (a <= axis[-1])):  # NaN fails too
        raise ValueError(f"{name} outside the surrogate grid "
                         f"[{axis[0]:g}, {axis[-1]:g}]")
    i = np.clip(np.searchsorted(axis, a, "right") - 1, 0, max(len(axis) - 2, 0))
    i1 = np.minimum(i + 1, len(axis) - 1)
    width = axis[i1] - axis[i]
    return i, i1, (a - axis[i]) / np.where(width > 0, width, 1.0)


def build_surrogate(per_geometry) -> LengthScaleModel:
    """Assemble the bilinear surrogate from (s, theta_deg, q) triples.

    The points must fill a complete rectangular grid in (log10 s, theta);
    any missing combinations are reported.  Duplicated points must agree.
    """
    triples = [(float(s), float(t), float(q)) for s, t, q in per_geometry]
    if not triples:
        raise ValueError("no points supplied")
    s_vals = np.unique([round(math.log10(s), 12) for s, _, _ in triples])
    t_vals = np.unique([round(t, 12) for _, t, _ in triples])
    grid = np.full((len(s_vals), len(t_vals)), np.nan)
    for s, t, q in triples:
        i = int(np.searchsorted(s_vals, round(math.log10(s), 12)))
        j = int(np.searchsorted(t_vals, round(t, 12)))
        if not np.isnan(grid[i, j]) and abs(grid[i, j] - q) > 1e-12 * abs(q):
            raise ValueError(f"conflicting q at s={s:g}, theta={t:g}")
        grid[i, j] = q
    if np.isnan(grid).any():
        missing = [(f"{10.0**s_vals[i]:g}", f"{t_vals[j]:g}")
                   for i, j in zip(*np.nonzero(np.isnan(grid)))]
        raise ValueError(f"incomplete grid; missing (s, theta) points: {missing}")
    return LengthScaleModel(s_vals, t_vals, grid)


# ------------------------------------------------------- spheroid fit

@dataclasses.dataclass
class SpheroidFit:
    s: float                 # aspect ratio, >1 prolate, <1 oblate
    theta_deg: float         # angle of attack in [0, 90]
    semi_axis: float         # distinguished (symmetry) semi-axis a
    equatorial_axis: float   # repeated semi-axis b
    axis: np.ndarray         # unit symmetry-axis direction
    theta_meaningful: bool   # False for near-spherical fits


def _widths(Xt: np.ndarray, dirs: np.ndarray):
    """Widths max(x . n) - min(x . n) of the cloud Xt, a coordinate-major
    (3, npts) array, along each direction: dirs of shape (3,) gives a scalar,
    (3, k) one width per column.  Points are taken in chunks with a running
    max and min, so at most WIDTH_CHUNK projections exist at once.  einsum on
    this layout rounds every projection as (x0 n0 + x1 n1) + x2 n2 whatever
    the chunk or k (a BLAS matmul need not), so the widths do not depend on
    the chunking.  That holds for C-ordered dirs only: on a Fortran-ordered
    or strided one einsum may sum in another order and runs ~4x slower, so
    dirs is made contiguous first."""
    dirs = np.ascontiguousarray(dirs)
    step = max(1, WIDTH_CHUNK // (dirs.size // 3))
    hi = np.full(dirs.shape[1:], -np.inf)
    lo = np.full(dirs.shape[1:], np.inf)
    for start in range(0, Xt.shape[1], step):
        p = np.einsum("ji,j...->i...", Xt[:, start:start + step], dirs)
        hi = np.maximum(hi, p.max(axis=0))
        lo = np.minimum(lo, p.min(axis=0))
    return hi - lo


def _scan_directions() -> np.ndarray:
    """The coarse scan's 46 x 90 hemisphere grid as a (3, 4140) array."""
    th = np.linspace(0.0, np.pi / 2, 46)
    ph = np.linspace(0.0, 2 * np.pi, 91)[:-1]
    T, P = np.meshgrid(th, ph, indexing="ij")
    return np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P),
                     np.cos(T)]).reshape(3, -1)


def _coarse_direction(Xt: np.ndarray) -> np.ndarray:
    """The scan direction of least width, dirs[:, argmin(_widths(Xt, dirs))]
    bit for bit, without projecting every point on every direction.

    _widths rounds each projection the same whatever the point subset, so
    over a subset the max is <= the full max and the min >= the full min,
    and as rounding is monotone the subset's width is a lower bound of the
    full width.  The widths of a ~1024-point strided subsample bound all
    directions; best is the full width where that bound is least.  The
    exhaustive argmin and every direction tied with it have lower <= full
    <= best, so the first least full width among the candidates
    lower <= best is at the exhaustive index.  On an elongated cloud a few
    hundred of the 4140 directions are candidates (5:1 prolate, 20 000
    points: ~160 -> ~15 ms on a 2-core host); on a sphere nearly all are,
    and the scan costs one subsample pass more than the exhaustive one.
    """
    dirs = _scan_directions()
    sub = np.ascontiguousarray(Xt[:, ::max(1, Xt.shape[1] // 1024)])
    lower = _widths(sub, dirs)
    best = _widths(Xt, dirs[:, int(np.argmin(lower))])
    cand = np.flatnonzero(lower <= best)
    return dirs[:, cand[int(np.argmin(_widths(Xt, dirs[:, cand])))]]


class _BudgetSpent(Exception):
    """_nelder_mead's objective has been called its maximum number of times."""


def _nelder_mead(func, x0, xatol, fatol):
    """(x, func(x)) at the minimum of func found by the Nelder-Mead simplex
    method (Nelder & Mead 1965) from x0, stopped once the simplex spans at
    most xatol in every coordinate and fatol in func.

    This is scipy 1.17.1's minimize(method="Nelder-Mead") at its defaults,
    with the same arithmetic in the same order, so x and func(x) match it
    bit for bit: coefficients 1, 2, 0.5 and 0.5; a first simplex that
    scales each coordinate of x0 by 1.05 (0.00025 for a zero one); an
    argsort of the vertices after the first evaluations and after every
    step; func called on a copy of x.  It stops after 200 n evaluations for
    n = len(x0), cutting short the step under way.  scipy's cap of 200 n
    steps never binds first, since n + 1 evaluations come before step 1.
    """
    n = len(x0)
    maxfev = 200 * n
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0 else 0.00025
    fsim = np.empty(n + 1)
    calls = 0

    def f(x):
        nonlocal calls
        if calls == maxfev:
            raise _BudgetSpent
        calls += 1
        return func(x.copy())

    def sort():
        i = np.argsort(fsim)
        sim[:], fsim[:] = sim[i], fsim[i]

    for k in range(n + 1):
        fsim[k] = f(sim[k])
    sort()
    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = sim[:-1].sum(axis=0) / n
            xr = 2 * xbar - sim[-1]  # reflect the worst vertex
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]  # expand
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]  # contract outside
                    fxc = f(xc)
                    keep = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]  # contract inside
                    fxc = f(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sort()
    return sim[0], np.min(fsim)


def _min_width(Xt: np.ndarray):
    """Global minimum width of the cloud over all directions.

    Coarse hemisphere scan followed by a simplex polish (_nelder_mead, which
    matches scipy's Nelder-Mead bit for bit); the width function is
    piecewise smooth in the direction, so this localizes the minimum
    sharply for convex clouds.  The scan prunes directions by exact lower
    bounds and starts the polish where the exhaustive scan would (see
    _coarse_direction; a sphere prunes none and pays one subsample pass).
    """
    x, fun = _nelder_mead(lambda v: _widths(Xt, v / np.linalg.norm(v)),
                          _coarse_direction(Xt), xatol=1e-5, fatol=1e-12)
    return float(fun), x / np.linalg.norm(x)


def fit_spheroid(points) -> SpheroidFit:
    """Fit an equivalent spheroid to a 3D surface point cloud.

    Principal directions come from the covariance eigendecomposition; the
    larger eigenvalue gap decides prolate vs oblate.  Axis scales are taken
    from extents: the symmetry semi-axis from the projection range, the
    equatorial semi-axis from the cloud's minimum directional width (these
    coincide with a and b exactly for densely sampled spheroids).  theta is
    the angle between the symmetry axis and the x (flow) axis projected
    into the x-y plane, folded into [0, 90] degrees.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError("expected an (n, 3) point array")
    if len(X) < 10:
        raise ValueError("need at least 10 points")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} has a non-finite coordinate: "
                         f"{X[bad[0]].tolist()}")
    X = X - X.mean(axis=0)
    w, V = np.linalg.eigh(X.T @ X / len(X))
    if w[0] < 1e-10 * max(w[2], 1e-300):
        raise ValueError("degenerate covariance: points are (nearly) coplanar")

    prolate = (w[2] - w[1]) > (w[1] - w[0])
    Xt = np.ascontiguousarray(X.T)
    mw, mdir = _min_width(Xt)
    if prolate:
        axis = V[:, 2]
        a = float(_widths(Xt, axis)) / 2.0
        b = mw / 2.0
    else:
        # oblate: the thinnest direction is the symmetry axis itself
        axis = mdir
        a = mw / 2.0
        e1 = np.cross(axis, [1.0, 0.0, 0.0])
        if np.linalg.norm(e1) < 1e-8:
            e1 = np.cross(axis, [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(axis, e1)
        phis = np.linspace(0.0, np.pi, 181)[:-1]
        ring = np.outer(e1, np.cos(phis)) + np.outer(e2, np.sin(phis))
        b = float(_widths(Xt, ring).mean()) / 2.0

    s = a / b
    planar = math.hypot(axis[0], axis[1])
    theta = math.degrees(math.atan2(abs(axis[1]), abs(axis[0]))) if planar > 1e-8 else 0.0
    meaningful = abs(s - 1.0) >= 0.05 and planar > 1e-8
    return SpheroidFit(s=s, theta_deg=theta, semi_axis=a, equatorial_axis=b,
                       axis=axis, theta_meaningful=meaningful)


# -------------------------------------------------- sampling fixtures

def _check_sample_count(n) -> None:
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be at least 1 and a finite integer, got {n}")


def sample_spheroid_surface(a: float, b: float, n: int = 500,
                            theta_deg: float = 0.0, seed=None) -> np.ndarray:
    """Uniform-area sample of the spheroid with semi-axes (a, b, b).

    Rejection sampling: map uniform sphere directions through diag(a, b, b)
    and accept with probability proportional to the local area stretch
    |cof(T) n| = b sqrt(b^2 n_x^2 + a^2 (1 - n_x^2)).  The cloud is rotated
    by theta_deg about the z axis (angle of attack).
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("semi-axes must be finite and positive")
    if not math.isfinite(theta_deg):
        raise ValueError("angle of attack must be finite")
    _check_sample_count(n)
    rng = np.random.default_rng(seed)
    wmax = b * max(a, b)
    pts = []
    have = 0
    while have < n:
        m = 4 * (n - have) + 64
        g = rng.standard_normal((m, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        wgt = b * np.sqrt(b * b * g[:, 0] ** 2 + a * a * (1.0 - g[:, 0] ** 2))
        acc = g[rng.random(m) < wgt / wmax] * np.array([a, b, b])
        pts.append(acc)
        have += len(acc)
    cloud = np.vstack(pts)[:n]
    t = math.radians(theta_deg)
    R = np.array([[math.cos(t), -math.sin(t), 0.0],
                  [math.sin(t), math.cos(t), 0.0],
                  [0.0, 0.0, 1.0]])
    return cloud @ R.T


def sample_cuboid_surface(lx: float, ly: float, lz: float, n: int = 500,
                          seed=None) -> np.ndarray:
    """Uniform-area sample of the box surface, stratified by face."""
    if not all(0 < v < math.inf for v in (lx, ly, lz)):
        raise ValueError("edge lengths must be finite and positive")
    _check_sample_count(n)
    rng = np.random.default_rng(seed)
    dims = np.array([lx, ly, lz])
    areas = np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])
    quota = n * areas / areas.sum()
    counts = np.floor(quota).astype(int)
    for i in np.argsort(-(quota - counts)):
        if counts.sum() >= n:
            break
        counts[i] += 1
    pts = []
    for face, c in enumerate(counts):
        ax = face // 2
        sgn = 1.0 if face % 2 == 0 else -1.0
        p = np.zeros((c, 3))
        p[:, ax] = sgn * dims[ax] / 2.0
        o = [k for k in range(3) if k != ax]
        p[:, o[0]] = (rng.random(c) - 0.5) * dims[o[0]]
        p[:, o[1]] = (rng.random(c) - 0.5) * dims[o[1]]
        pts.append(p)
    return np.vstack(pts)
