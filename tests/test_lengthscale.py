"""Learned length scales: pointwise inversion, surrogate grid, spheroid fit."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dunking import correlations as corr
from dunking import lengthscale as ls


RM = corr.get_correlation("ranz_marshall")
CB = corr.get_correlation("churchill_bernstein")
# Ranz-Marshall under another name: solve_q searches it instead of taking the
# closed form, which gives the search a reference with a known answer
RM_SEARCHED = dataclasses.replace(RM, name="ranz_marshall_searched")


# ----------------------------------------------------- pointwise inversion

def _forward(c, q, Re, Pr=0.71):
    nu, _ = corr.transform_correlation(c, q, Re, Pr)
    return nu


@pytest.mark.parametrize("q_true", [0.2, 1.0, 1.44, 6.0])
@pytest.mark.parametrize("Re", [30.0, 400.0, 5000.0])
def test_recovers_generating_ratio(q_true, Re):
    nu = _forward(RM, q_true, Re)
    q = ls.solve_q(RM, Re, nu, 0.71)[0]
    assert abs(q - q_true) < 1e-6 * q_true


def test_closed_form_agrees_with_search():
    for Re in (50.0, 900.0):
        nu = _forward(RM, 2.3, Re)
        qc = ls.solve_q(RM, Re, nu, 0.71)[0]
        qg = ls.solve_q(RM_SEARCHED, Re, nu, 0.71)[0]
        assert abs(qc - qg) < 1e-8 * qc


def test_search_works_for_cylinder_correlation():
    nu = _forward(CB, 0.7, 2000.0)
    q = ls.solve_q(CB, 2000.0, nu, 0.71)[0]
    assert abs(q - 0.7) < 1e-6


def test_unreachable_sample_raises_with_diagnostics():
    with pytest.raises(ls.LearningError) as ei:
        ls.solve_q(CB, 1.0, 1.0e9, 0.71)
    msg = str(ei.value)
    assert "Re=1" in msg and "churchill_bernstein" in msg


def test_batch_names_its_unreachable_sample():
    Re = np.array([50.0, 800.0, 1.0, 3000.0])
    Nu = np.array([_forward(CB, 0.7, r) for r in Re])
    Nu[2] = 1.0e9
    with pytest.raises(ls.LearningError, match="at Re=1, Nu=1e[+]09, Pr=0.71:"):
        ls.solve_q(CB, Re, Nu, 0.71)


def test_batch_is_validated_before_solving():
    # the unreachable first sample would raise LearningError if solved first
    with pytest.raises(ValueError,
                       match="^Nu must be finite and positive, got nan at index 1"):
        ls.solve_q(CB, [1.0, 10.0], [1.0e9, np.nan], 0.71)
    with pytest.raises(ValueError, match="^Re must be finite and positive and at most"):
        ls.solve_q(CB, 1.0e305, 5.0, 0.71)    # q Re overflows at q = 1e4


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_dip_beside_the_settled_minimum_is_rejected(side):
    # objective |log q - c| + 1, less 0.5 in a notch 1e-6 to one side of c:
    # too narrow for a golden-section point, caught by the L -/+ 1e-6 check
    c = 0.3

    def notched(notch):
        def evaluator(x, Pr):
            L = np.log(x)
            f = np.abs(L - c) + 1.0 - notch * (np.abs(L - c - side * 1e-6) < 1e-8)
            return x * (1.0 - np.sqrt(f))
        return corr.Correlation("notched", evaluator, (0.0, math.inf),
                                (0.0, math.inf), "diameter")

    q = ls.solve_q(notched(0.0), 1.0, 1.0, 0.71)[0]
    assert abs(math.log(q) - c) < 1e-8
    with pytest.raises(ls.LearningError, match="no interior minimum for notched"):
        ls.solve_q(notched(0.5), 1.0, 1.0, 0.71)


def test_sample_validation():
    for c in (RM, CB):   # closed form and search
        with pytest.raises(ValueError, match="^Re must be finite and positive"):
            ls.solve_q(c, -1.0, 2.0, 0.71)
        with pytest.raises(ValueError, match="^Nu must be finite and positive"):
            ls.solve_q(c, 1.0, 0.0, 0.71)


def test_log_average():
    # constant q averages to itself regardless of spacing
    avg = ls.average_q_log([(10.0, 3.0), (100.0, 3.0), (250.0, 3.0)])
    assert abs(avg - 3.0) < 1e-14
    # linear in log Re: average is the midpoint value
    pts = [(10.0 ** k, float(k)) for k in range(1, 6)]
    assert abs(ls.average_q_log(pts) - 3.0) < 1e-12
    with pytest.raises(ValueError):
        ls.average_q_log([(10.0, 1.0)])
    with pytest.raises(ValueError):
        ls.average_q_log([(10.0, 1.0), (10.0, 2.0)])
    with pytest.raises(ValueError):
        ls.average_q_log([(-5.0, 1.0), (10.0, 2.0)])


# ------------------------------------------------------------- surrogate

def _grid_triples():
    out = []
    for s in (0.1, 1.0, 10.0):
        for t in (0.0, 45.0, 90.0):
            out.append((s, t, 1.0 + 0.3 * math.log10(s) ** 2 + t / 100.0))
    return out


def test_surrogate_exact_at_nodes():
    model = ls.build_surrogate(_grid_triples())
    for s, t, q in _grid_triples():
        assert abs(model.evaluate(s, t) - q) < 1e-13


def test_surrogate_bilinear_cell_center():
    model = ls.build_surrogate(_grid_triples())
    vals = {(s, t): q for s, t, q in _grid_triples()}
    center = model.evaluate(10.0 ** 0.5, 67.5)   # midpoint of upper-right cell
    expect = (vals[(1.0, 45.0)] + vals[(1.0, 90.0)]
              + vals[(10.0, 45.0)] + vals[(10.0, 90.0)]) / 4.0
    assert abs(center - expect) < 1e-12


def test_surrogate_refuses_extrapolation():
    model = ls.build_surrogate(_grid_triples())
    with pytest.raises(ValueError):
        model.evaluate(100.0, 45.0)
    with pytest.raises(ValueError):
        model.evaluate(1.0, -5.0)
    with pytest.raises(ValueError):
        model.evaluate(-2.0, 45.0)


def test_surrogate_equals_scipy_bilinear():
    # scipy's interpolator is the oracle here only; the library uses numpy
    from scipy.interpolate import RegularGridInterpolator
    rng = np.random.default_rng(20261018)
    xs = np.cumsum(rng.uniform(0.05, 1.0, 7)) - 2.0   # irregular log10 s
    ts = np.cumsum(rng.uniform(1.0, 25.0, 6))         # irregular theta
    q = rng.uniform(0.1, 3.0, (len(xs), len(ts)))
    model = ls.LengthScaleModel(xs, ts, q)
    oracle = RegularGridInterpolator((xs, ts), q)
    # every node (the upper corner among them), a point inside every cell
    # edge, then interior points
    xs_mid = xs[:-1] + rng.random(len(xs) - 1) * np.diff(xs)
    ts_mid = ts[:-1] + rng.random(len(ts) - 1) * np.diff(ts)
    pairs = [np.meshgrid(xs, ts), np.meshgrid(xs, ts_mid),
             np.meshgrid(xs_mid, ts),
             [rng.uniform(xs[0], xs[-1], 10_000),
              rng.uniform(ts[0], ts[-1], 10_000)]]
    a = np.concatenate([p[0].ravel() for p in pairs])
    t = np.concatenate([p[1].ravel() for p in pairs])
    assert np.array_equal(model._at(a, t), oracle(np.column_stack([a, t])))
    for s, th in zip(10.0 ** a[-100:], t[-100:]):
        assert model.evaluate(s, th) == oracle([[math.log10(s), th]])[0]
    # a one-point axis interpolates along the other
    line = ls.LengthScaleModel(xs, ts[:1], q[:, :1])
    assert np.array_equal(
        line._at(a[-100:], np.full(100, ts[0])),
        RegularGridInterpolator((xs, ts[:1]), q[:, :1])(
            np.column_stack([a[-100:], np.full(100, ts[0])])))
    for s, th, message in [
            (10.0 ** (xs[-1] + 1e-9), ts[0], "outside the surrogate grid"),
            (10.0 ** xs[0], ts[-1] + 1, "outside the surrogate grid"),
            (math.nan, ts[0], "^s must be finite and positive"),
            (10.0 ** xs[0], math.nan, "^theta_deg must be finite"),
            (math.inf, ts[0], "^s must be finite and positive")]:
        with pytest.raises(ValueError, match=message):
            model.evaluate(s, th)


def test_surrogate_reports_missing_grid_points():
    triples = [t for t in _grid_triples() if not (t[0] == 10.0 and t[1] == 90.0)]
    with pytest.raises(ValueError) as ei:
        ls.build_surrogate(triples)
    assert "('10', '90')" in str(ei.value)


def test_surrogate_duplicate_handling():
    triples = _grid_triples()
    ls.build_surrogate(triples + [triples[0]])          # consistent duplicate ok
    s, t, q = triples[0]
    with pytest.raises(ValueError):
        ls.build_surrogate(triples + [(s, t, q + 1.0)])


def test_surrogate_csv_roundtrip(tmp_path):
    model = ls.build_surrogate(_grid_triples())
    p = tmp_path / "surrogate.csv"
    model.to_csv(p)
    back = ls.LengthScaleModel.from_csv(p)
    assert np.allclose(back.q, model.q, rtol=1e-14)
    assert abs(back.evaluate(2.0, 30.0) - model.evaluate(2.0, 30.0)) < 1e-12


def test_surrogate_csv_needs_three_columns(tmp_path):
    p = tmp_path / "surrogate.csv"
    p.write_text("s,theta_deg\n1,0\n2,45\n")
    with pytest.raises(ValueError, match="s,theta_deg,q"):
        ls.LengthScaleModel.from_csv(p)


# ------------------------------------------------------------ spheroid fit

def _dense_widths(Xt, D):
    # the unchunked form of _widths' arithmetic on the same coordinate-major
    # cloud; a BLAS matmul can round a row differently in another product size
    P = np.einsum("ji,jk->ik", Xt, D)
    return P.max(axis=0) - P.min(axis=0)


def _coordinate_major(X):
    return np.ascontiguousarray(X.T)


def _unit_dirs(rng, k):
    D = rng.standard_normal((3, k))
    return D / np.linalg.norm(D, axis=0)


@pytest.mark.parametrize("k,chunks", [(1, 1), (180, 1), (180, 3), (4140, 1),
                                      (4140, 3)])
@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "across"])
def test_widths_match_dense_reduction_at_chunk_boundaries(k, chunks, extra):
    # n one below, at and one past a whole number of point chunks
    rng = np.random.default_rng(k)
    n = chunks * (ls.WIDTH_CHUNK // k) + extra
    Xt = _coordinate_major(rng.standard_normal((n, 3)) * [5.0, 1.0, 0.5])
    D = _unit_dirs(rng, k)
    ref = _dense_widths(Xt, D)
    # einsum sums a Fortran-ordered or strided dirs in another order
    wide = np.zeros((3, 2 * k))
    wide[:, ::2] = D
    layouts = {"C": D, "fortran": np.asfortranarray(D),
               "fancy": wide[:, np.arange(0, 2 * k, 2)], "strided": wide[:, ::2]}
    for name, dirs in layouts.items():
        assert ls._widths(Xt, dirs).tolist() == ref.tolist(), name
    if k == 1:
        # one strided column, as fit_spheroid passes an eigenvector V[:, 2]
        assert ls._widths(Xt, D[:, 0]) == ls._widths(Xt, wide[:, 0]) == ref[0]


def test_fit_is_pinned_bit_for_bit():
    # fit_spheroid's outputs on one seeded cloud, recorded before the
    # coarse scan was pruned; the pruned scan picks the same start
    pts = ls.sample_spheroid_surface(5.0, 1.0, n=20000, theta_deg=30.0, seed=1)
    fit = ls.fit_spheroid(pts)
    hexes = [fit.s, fit.theta_deg, fit.semi_axis, fit.equatorial_axis,
             *fit.axis.tolist()]
    assert [float.hex(v) for v in hexes] == [
        "0x1.401abb9f18f94p+2", "0x1.ddccf01344b93p+4",
        "0x1.3ff37a5f69732p+2", "0x1.ffc136727e0eep-1",
        "-0x1.bc0497698ef40p-1", "-0x1.fddef08702390p-2",
        "-0x1.ce1a105d131fap-16"]
    assert fit.theta_meaningful


def test_fit_memory_is_bounded():
    # the dense hemisphere scan held 20 000 x 4140 projections (~632 MB)
    pts = ls.sample_spheroid_surface(5.0, 1.0, n=20000, theta_deg=30.0, seed=1)
    tracemalloc.start()
    try:
        fit = ls.fit_spheroid(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(fit.s - 5.0) < 0.05
    assert peak <= 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def _assert_nelder_mead_matches_scipy(func, x0, xatol, fatol):
    """Asserts _nelder_mead's x and fun carry scipy's bits, with as many
    calls of func, and returns that count."""
    # scipy is the oracle here only; the library carries its own simplex
    from scipy.optimize import minimize
    calls = []
    x, fun = ls._nelder_mead(lambda v: calls.append(v) or func(v), x0,
                             xatol, fatol)
    ref = minimize(func, x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": fatol})
    assert x.tobytes() == ref.x.tobytes()
    assert float(fun).hex() == float(ref.fun).hex()
    assert len(calls) == ref.nfev
    return len(calls)


def _zero_only_at(x0):
    # 0 at x0 and 1 elsewhere: no reflection or contraction ever improves
    # on the worst vertex, so every step ends in a shrink towards x0
    return lambda v: 0.0 if v.tolist() == list(x0) else 1.0


def test_nelder_mead_shrinks_like_scipy():
    # the first simplex spans 0.05; 13 shrinks bring it under xatol
    x0 = np.ones(3)
    calls = _assert_nelder_mead_matches_scipy(_zero_only_at(x0), x0,
                                              xatol=1e-5, fatol=1.0)
    assert calls == 4 + 13 * 5   # reflect, contract, shrink 3 vertices


# n + 1 calls build the first simplex and each step takes n + 2: 600 calls
# end 1 call into step 120 (its reflection), 800 end 3 calls into step 133,
# inside its shrink
@pytest.mark.parametrize("n", [3, 4], ids=["cut-after-reflection",
                                           "cut-inside-shrink"])
def test_nelder_mead_stops_after_200n_calls_like_scipy(n):
    # the values 0 and 1 never agree to fatol, and no vertex shrinks onto
    # x0 = 0 within the budget (0.00025 / 2^133 is far above the smallest
    # subnormal)
    x0 = np.zeros(n)
    calls = _assert_nelder_mead_matches_scipy(_zero_only_at(x0), x0,
                                              xatol=1e-5, fatol=0.5)
    assert calls == 200 * n


def test_prolate_fit_recovers_shape_and_attack_angle():
    pts = ls.sample_spheroid_surface(5.0, 1.0, n=500, theta_deg=30.0, seed=11)
    fit = ls.fit_spheroid(pts)
    assert abs(fit.s - 5.0) < 0.25
    assert abs(fit.theta_deg - 30.0) < 2.0
    assert abs(fit.semi_axis - 5.0) < 0.25
    assert abs(fit.equatorial_axis - 1.0) < 0.05
    assert fit.theta_meaningful


def test_oblate_fit():
    pts = ls.sample_spheroid_surface(0.2, 1.0, n=800, seed=3)
    fit = ls.fit_spheroid(pts)
    assert abs(fit.s - 0.2) < 0.05
    assert fit.s < 1.0
    assert fit.theta_meaningful


def test_sphere_fit_has_no_meaningful_angle():
    pts = ls.sample_spheroid_surface(1.0, 1.0, n=600, seed=7)
    fit = ls.fit_spheroid(pts)
    assert abs(fit.s - 1.0) < 0.05
    assert not fit.theta_meaningful


def test_elongated_box_fit():
    pts = ls.sample_cuboid_surface(6.25, 1.0, 1.0, n=500, seed=11)
    fit = ls.fit_spheroid(pts)
    assert 5.9 < fit.s < 6.6
    assert fit.theta_deg < 2.0


def test_fit_input_validation():
    rng = np.random.default_rng(0)
    flat = np.column_stack([rng.random(50), rng.random(50), np.zeros(50)])
    with pytest.raises(ValueError):
        ls.fit_spheroid(flat)
    with pytest.raises(ValueError):
        ls.fit_spheroid(rng.random((5, 3)))
    with pytest.raises(ValueError):
        ls.fit_spheroid(rng.random((20, 2)))


def test_samplers_deterministic_and_on_surface():
    a = ls.sample_spheroid_surface(2.0, 0.5, n=200, seed=42)
    b = ls.sample_spheroid_surface(2.0, 0.5, n=200, seed=42)
    assert a.shape == (200, 3)
    assert np.array_equal(a, b)
    r = (a[:, 0] / 2.0) ** 2 + (a[:, 1] / 0.5) ** 2 + (a[:, 2] / 0.5) ** 2
    assert np.max(np.abs(r - 1.0)) < 1e-12

    c = ls.sample_cuboid_surface(1.0, 2.0, 3.0, n=150, seed=1)
    assert c.shape == (150, 3)
    dims = np.array([1.0, 2.0, 3.0])
    inside = np.abs(c) <= dims / 2.0 + 1e-12
    assert inside.all()
    on_face = np.isclose(np.abs(c), dims / 2.0).any(axis=1)
    assert on_face.all()
    with pytest.raises(ValueError):
        ls.sample_spheroid_surface(-1.0, 1.0)
    with pytest.raises(ValueError):
        ls.sample_cuboid_surface(1.0, 0.0, 1.0)
    for n in (0, -5):
        with pytest.raises(ValueError, match="^n must be finite and a positive integer"):
            ls.sample_spheroid_surface(2.0, 0.5, n=n)
        with pytest.raises(ValueError, match="^n must be finite and a positive integer"):
            ls.sample_cuboid_surface(1.0, 2.0, 3.0, n=n)


def _scalar_log_q(c, Re, Nu, Pr):
    """The one-sample golden-section search that solve_q replaced, through
    the scalar correlation transform: log q."""
    def f(x):
        nu_hat, _ = corr.transform_correlation(c, math.exp(x), Re, Pr)
        return (Nu - nu_hat) ** 2

    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = math.log(ls.Q_SEARCH_RANGE[0]), math.log(ls.Q_SEARCH_RANGE[1])
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > ls.LOG_Q_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def test_batch_search_is_bit_identical_to_scalar_search():
    # seeded churchill_bernstein samples with Re and q log-uniform: every q
    # must carry the bits the one-sample search gives
    rng = np.random.default_rng(1)
    Re = 10.0 ** rng.uniform(1.0, 4.0, 200)
    Nu = np.array([_forward(CB, q, r) for q, r in
                   zip(10.0 ** rng.uniform(-0.5, 0.7, 200), Re)])
    ref = [math.exp(_scalar_log_q(CB, r, n, 0.71)) for r, n in zip(Re, Nu)]
    assert ls.solve_q(CB, Re, Nu, 0.71).tolist() == ref


try:
    from hypothesis import example, given, strategies as st

    # log10 of the native Reynolds number q Re, inside each validity range
    LOG_RE = {"churchill_bernstein": (1.0, 6.0), "flat_plate_laminar": (1.0, 5.0),
              "flat_plate_turbulent": (6.0, 8.0)}

    @given(st.sampled_from(sorted(LOG_RE)),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=1, max_size=6),
           st.floats(min_value=0.7, max_value=50.0))
    def test_batch_search_matches_scalar_search(name, points, Pr):
        c = corr.get_correlation(name)
        lo, hi = LOG_RE[name]
        q = np.array([10.0 ** v for _, v in points])
        Re = np.array([10.0 ** (lo + u * (hi - lo)) for u, _ in points]) / q
        Nu = np.array([_forward(c, qq, r, Pr) for qq, r in zip(q, Re)])
        log_q = np.log(ls.solve_q(c, Re, Nu, Pr))
        ref = [_scalar_log_q(c, r, n, Pr) for r, n in zip(Re, Nu)]
        assert np.all(np.abs(log_q - ref) <= ls.LOG_Q_TOL)

    @given(st.integers(1, 1200), st.integers(1, 4500), st.integers(0, 2 ** 32))
    @example(n=383, k=3364, seed=0)   # one matmul width differed in the last bit
    def test_widths_match_dense_reduction(n, k, seed):
        rng = np.random.default_rng(seed)
        Xt = _coordinate_major(rng.standard_normal((n, 3)))
        D = _unit_dirs(rng, k)
        assert ls._widths(Xt, D).tolist() == _dense_widths(Xt, D).tolist()

    def _cloud(kind, s, n, seed, rotate):
        rng = np.random.default_rng(seed)
        if kind == "spheroid":
            X = ls.sample_spheroid_surface(s, 1.0, n, seed=rng)
        elif kind == "cuboid":
            X = ls.sample_cuboid_surface(2.0 * s, 2.0, 2.0, n, seed=rng)
        else:
            X = rng.standard_normal((n, 3)) * [s, 1.0, 1.0]
        if rotate:
            X = X @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return _coordinate_major(X - X.mean(axis=0))

    # n below and above 2048, where the subsample stride passes 1, and
    # n % stride == 1; unrotated cubes and spheres tie many directions
    @given(st.sampled_from(["spheroid", "cuboid", "gaussian"]),
           st.one_of(st.just(1.0), st.floats(0.2, 5.0)),
           st.integers(10, 5000), st.integers(0, 2 ** 32 - 1), st.booleans())
    @example(kind="cuboid", s=1.0, n=2049, seed=0, rotate=False)
    @example(kind="spheroid", s=1.0, n=4097, seed=1, rotate=False)
    @example(kind="spheroid", s=5.0, n=20000, seed=2, rotate=True)
    @example(kind="spheroid", s=0.2, n=3000, seed=3, rotate=True)
    def test_coarse_direction_is_exhaustive_argmin(kind, s, n, seed, rotate):
        Xt = _cloud(kind, s, n, seed, rotate)
        dirs = ls._scan_directions()
        ref = dirs[:, int(np.argmin(ls._widths(Xt, dirs)))]
        assert ls._coarse_direction(Xt).tolist() == ref.tolist()

    # the polish _min_width runs, from the start it takes
    @given(st.sampled_from(["spheroid", "cuboid"]), st.floats(0.2, 5.0),
           st.integers(10, 3000), st.integers(0, 2 ** 32 - 1), st.booleans())
    @example(kind="spheroid", s=5.0, n=20000, seed=2, rotate=True)
    @example(kind="cuboid", s=1.0, n=2049, seed=0, rotate=False)
    def test_nelder_mead_matches_scipy(kind, s, n, seed, rotate):
        Xt = _cloud(kind, s, n, seed, rotate)
        _assert_nelder_mead_matches_scipy(
            lambda v: ls._widths(Xt, v / np.linalg.norm(v)),
            ls._coarse_direction(Xt), xatol=1e-5, fatol=1e-12)

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=10.0, max_value=8000.0),
           st.floats(min_value=0.1, max_value=50.0))
    def test_inversion_scale_consistency(q_true, Re, c):
        # rescaling the data (Re, Nu) -> (c Re, c Nu) divides the ratio by c
        nu = _forward(RM, q_true, Re)
        base = ls.solve_q(RM, Re, nu, 0.71)[0]
        scaled = ls.solve_q(RM, c * Re, c * nu, 0.71)[0]
        assert abs(scaled - base / c) < 1e-9 * max(base / c, 1.0)
except ImportError:      # pragma: no cover
    pass
