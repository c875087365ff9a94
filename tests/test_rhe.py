import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from dunking import budget, eigen, fem, mesh, rhe

from conftest import fields_with_eta, uniform_fields


def test_zero_biot_stays_at_one(disk4):
    f = uniform_fields(disk4)
    sol = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(0.0, eta=f.eta),
                         t_f=1.0, steps=50)
    assert np.max(np.abs(sol.u_avg - 1.0)) < 1e-13
    assert sol.u_avg[0] == 1.0


def test_initial_value_and_monotone_decay(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    sol = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(0.05 * gs.gamma,
                                                        eta=f.eta))
    assert sol.u_avg[0] == 1.0
    assert np.all(np.diff(sol.u_avg) < 0)
    assert abs(sol.times[-1] - 3.0 / (0.05 * gs.gamma * gs.gamma)) < 1e-12


def test_maximum_principle_on_fixtures():
    for shape, kind in (("disk", "constant"), ("disk", "step"),
                        ("square", "linear")):
        m = mesh.generate_canonical(shape, 4)
        f = fields_with_eta(m, kind)
        gs = mesh.geometry_stats(m)
        sol = rhe.solve_rhea(m, f, rhe.RobinCoefficient(0.02 * gs.gamma,
                                                        eta=f.eta),
                             steps=500, max_snapshots=501)
        assert len(sol.snapshots) == 501  # every step
        for snap in sol.snapshots:
            assert snap.min() >= -1e-8 and snap.max() <= 1.0 + 1e-8


def _bdf2_orders(solve, m, f, robin, t_f, fine_steps):
    """Observed orders of u_avg(t_f) at 100, 200, 400 steps vs a fine run."""
    fine = solve(m, f, robin, t_f=t_f, steps=fine_steps).u_avg[-1]
    errs = np.array([abs(solve(m, f, robin, t_f=t_f, steps=n).u_avg[-1] - fine)
                     for n in (100, 200, 400)])
    return np.log2(errs[:-1] / errs[1:])


def test_bdf2_second_order(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    B = 0.05 * gs.gamma
    t_f = 1.0 / (B * gs.gamma)
    robin = rhe.RobinCoefficient(B, eta=f.eta)
    assert np.all(_bdf2_orders(rhe.solve_rhea, disk4, f, robin, t_f, 1600)
                  > 1.9)


def test_lumping_gap_against_sensitivity_bound(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    B = 1e-3 * gs.gamma
    sol = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(B, eta=f.eta))
    gap = np.max(np.abs(sol.u_avg - np.exp(-B * gs.gamma * sol.times)))
    phi = budget.solve_phi(disk4, f).phi
    assert gap <= 1.05 * phi * B / (gs.gamma * np.e)


def test_time_dependent_constant_matches_autonomous(disk4, monkeypatch):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    B = 0.02 * gs.gamma
    t_f = 1.0 / (B * gs.gamma)
    for budget in (rhe.DENSE_BUDGET, 0):  # dense steps, then sparse steps
        monkeypatch.setattr(rhe, "DENSE_BUDGET", budget)
        auto = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(B, eta=f.eta),
                              t_f=t_f, steps=200)
        tdep = rhe.solve_rhe_timedep(
            disk4, f,
            rhe.RobinCoefficient(B, eta=f.eta, time_scale=lambda t: 1.0),
            t_f=t_f, steps=200)
        assert np.array_equal(auto.u_avg, tdep.u_avg)


@pytest.mark.parametrize("shape,level", [("disk", 3), ("square", 4)])
@pytest.mark.parametrize("oscillating", [False, True],
                         ids=["autonomous", "oscillating"])
def test_dense_steps_match_sparse_steps(monkeypatch, shape, level,
                                        oscillating):
    m = mesh.generate_canonical(shape, level)
    f = fields_with_eta(m, "step")
    gs = mesh.geometry_stats(m)
    B = 0.05 * gs.gamma
    t_f = 1.0 / (B * gs.gamma)
    scale = None
    if oscillating:
        scale = lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t / (0.1 * t_f))
    robin = rhe.RobinCoefficient(B, eta=f.eta, time_scale=scale)
    solve = lambda: rhe._march(m, f, robin, t_f, 400, 401)
    dense = solve()
    monkeypatch.setattr(rhe, "DENSE_BUDGET", 0)
    sparse = solve()
    assert np.max(np.abs(dense.u_avg - sparse.u_avg)) <= 1e-13
    assert np.max(np.abs(dense.snapshots - sparse.snapshots)) <= 1e-13


@pytest.mark.parametrize("level,per_step", [(3, False), (4, False),
                                            (5, True)])
def test_superlu_solves_per_step_only_above_dense_budget(monkeypatch, level,
                                                         per_step):
    solves = []
    splu = spla.splu

    class CountingLU:
        def __init__(self, A):
            self.lu = splu(A)

        def solve(self, rhs):
            solves.append(rhs.shape)
            return self.lu.solve(rhs)

    monkeypatch.setattr(spla, "splu", CountingLU)
    m = mesh.generate_canonical("disk", level)
    f = uniform_fields(m)
    robin = rhe.RobinCoefficient(
        0.1, eta=f.eta, time_scale=lambda t: 1.0 + 0.5 * np.sin(40.0 * t))
    rhe.solve_rhe_timedep(m, f, robin, t_f=1.0, steps=20, max_snapshots=0)
    # two per step: the K1 solve and its boundary correction
    assert (len(solves) >= 2 * 19) == per_step


def _stepwise_reference(m, f, B, g, t_f, steps):
    """u_avg of BDF2 with the implicit matrix factored anew at every step."""
    forms = fem.assemble_forms(m, f)
    A1 = fem.boundary_mass(m, f.eta)
    M = forms.M.tocsc()
    area = forms.c.sum()
    dt = t_f / steps
    times = np.linspace(0.0, t_f, steps + 1)
    K = lambda t: (forms.A0 + B * g(t) * A1).tocsc()
    u_prev = np.ones(m.num_vertices)
    u = spla.splu(M / dt + K(times[1])).solve(M @ u_prev / dt)
    u_avg = [1.0, forms.c @ u / area]
    for t in times[2:]:
        rhs = M @ (2.0 * u - 0.5 * u_prev) / dt
        u_prev, u = u, spla.splu(1.5 * M / dt + K(t)).solve(rhs)
        u_avg.append(forms.c @ u / area)
    return np.array(u_avg)


@pytest.fixture(scope="module")
def disk3():
    return mesh.generate_canonical("disk", 3)


@settings(max_examples=10)  # each example factors 200 matrices
@given(st.floats(0.0, 0.9), st.floats(0.01, 1.0))
def test_timedep_matches_stepwise_factorization(disk3, amplitude, period):
    f = uniform_fields(disk3)
    gs = mesh.geometry_stats(disk3)
    B = 0.05 * gs.gamma
    t_f = 1.0 / (B * gs.gamma)
    g = lambda t: 1.0 + amplitude * np.sin(2 * np.pi * t / (period * t_f))
    sol = rhe.solve_rhe_timedep(
        disk3, f, rhe.RobinCoefficient(B, eta=f.eta, time_scale=g),
        t_f=t_f, steps=200, max_snapshots=0)
    ref = _stepwise_reference(disk3, f, B, g, t_f, 200)
    assert np.max(np.abs(sol.u_avg - ref)) <= 1e-12


def test_timedep_bdf2_second_order(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    B = 0.05 * gs.gamma
    t_f = 1.0 / (B * gs.gamma)
    robin = rhe.RobinCoefficient(
        B, eta=f.eta,
        time_scale=lambda t: 1.0 + 0.5 * np.sin(4 * np.pi * t / t_f))
    assert np.all(_bdf2_orders(rhe.solve_rhe_timedep, disk4, f, robin, t_f,
                               3200) > 1.9)


def test_oscillating_conductance_reduces_with_period(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    B = 0.01 * gs.gamma
    t_f = 0.5 / (B * gs.gamma)
    gaps = []
    for eps in (0.2, 0.1):
        g = lambda t, eps=eps: 1.0 + 0.5 * np.sin(2 * np.pi * t / eps)
        steps = int(40 * t_f / eps)
        sol = rhe.solve_rhe_timedep(
            disk4, f, rhe.RobinCoefficient(B, eta=f.eta, time_scale=g),
            t_f=t_f, steps=steps)
        ref = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(B, eta=f.eta),
                             t_f=t_f, steps=steps)
        gaps.append(np.max(np.abs(sol.u_avg - ref.u_avg)))
    assert gaps[1] < gaps[0]


def test_robin_coefficient_validation(disk4):
    eta = uniform_fields(disk4).eta
    with pytest.raises(ValueError):
        rhe.RobinCoefficient(-0.1, eta=eta)
    for bad_B in (np.nan, np.inf):
        with pytest.raises(ValueError):
            rhe.RobinCoefficient(bad_B, eta=eta)
    with pytest.raises(ValueError):
        rhe.RobinCoefficient(0.1)  # no variation style at all
    with pytest.raises(TypeError):  # tabulated eta(t) is not supported
        rhe.RobinCoefficient(0.1, eta=eta, eta_table=(np.array([0.0, 1.0]),
                                                      np.ones((2, 1, 2))))
    robin = rhe.RobinCoefficient(0.1, eta=eta)
    assert robin.autonomous
    assert not rhe.RobinCoefficient(0.1, eta=eta,
                                    time_scale=lambda t: 1.0).autonomous


def test_solver_input_validation(disk4):
    f = uniform_fields(disk4)
    bad = f.eta.copy()
    bad[0] = -0.5
    with pytest.raises(ValueError):
        rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(0.1, eta=bad))
    with pytest.raises(ValueError):
        # unnormalized boundary mean
        rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(0.1, eta=2 * f.eta))
    with pytest.raises(ValueError):
        # no horizon available when B = 0
        rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(0.0, eta=f.eta))


def test_timedep_input_validation(disk4):
    f = uniform_fields(disk4)
    bad = f.eta.copy()
    bad[0] = -0.5

    def solve(eta=f.eta, scale=lambda t: 1.0, t_f=1.0):
        return rhe.solve_rhe_timedep(
            disk4, f, rhe.RobinCoefficient(0.1, eta=eta, time_scale=scale),
            t_f=t_f, steps=10)

    with pytest.raises(ValueError, match="eta must be nonnegative"):
        solve(eta=bad)
    with pytest.raises(ValueError, match="perimeter mean 1"):
        solve(eta=2 * f.eta)
    for t_f in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="t_f"):
            solve(t_f=t_f)
    for scale in (lambda t: np.nan, lambda t: np.inf,
                  lambda t: 1.0 - 2.0 * (t > 0.5)):
        with pytest.raises(ValueError, match="time scale"):
            solve(scale=scale)


def test_snapshot_budget(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    sol = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(0.05 * gs.gamma,
                                                        eta=f.eta),
                         steps=1000, max_snapshots=20)
    assert len(sol.snapshots) <= 20
    assert sol.snapshot_times[0] == 0.0
    assert abs(sol.snapshot_times[-1] - sol.times[-1]) < 1e-12


def test_series_io(tmp_path, disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    sol = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(0.05 * gs.gamma,
                                                        eta=f.eta),
                         steps=100)
    p = tmp_path / "series.csv"
    sol.write_series(p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], sol.times)
    assert np.array_equal(data[:, 1], sol.u_avg)
    pattern = str(tmp_path / "snap_{:010.6f}.csv")
    sol.write_snapshots(pattern)
    first = pattern.format(sol.snapshot_times[0])
    vals = np.loadtxt(first, delimiter=",", skiprows=1)
    assert np.allclose(vals, sol.snapshots[0])


def test_spectral_reconstruction_matches_stepper(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    B = 1e-2 * gs.gamma
    forms = fem.assemble_forms(disk4, f)
    K = forms.A0 + B * fem.boundary_mass(disk4, f.eta)
    pairs = eigen.generalized_eigs(K, forms.M, 25)
    sol = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(B, eta=f.eta))
    late = sol.times >= 0.01
    rec = rhe.spectral_reconstruction(pairs, forms.c, sol.times[late])
    assert np.max(np.abs(rec.u_avg - sol.u_avg[late])) < 1e-4
    assert rec.mass <= 1.0 + 1e-12


def test_spectral_mass_grows_with_pairs(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    forms = fem.assemble_forms(disk4, f)
    K = forms.A0 + 0.02 * gs.gamma * fem.boundary_mass(disk4, f.eta)
    pairs = eigen.generalized_eigs(K, forms.M, 12)
    m1 = rhe.spectral_reconstruction(pairs[:4], forms.c, [0.0]).mass
    m2 = rhe.spectral_reconstruction(pairs, forms.c, [0.0]).mass
    assert 0.0 < m1 <= m2 <= 1.0 + 1e-12


def test_coefficient_of_variation(disk4):
    f = uniform_fields(disk4)
    gs = mesh.geometry_stats(disk4)
    B = 0.05 * gs.gamma
    sol = rhe.solve_rhea(disk4, f, rhe.RobinCoefficient(B, eta=f.eta),
                         steps=400)
    cv = rhe.coefficient_of_variation(sol, disk4)
    assert cv[0] < 1e-12          # uniform initial state
    assert np.all(np.isfinite(cv))
    assert cv.max() < 1.0
    # synthetic negative-mean snapshot reports NaN
    fake = rhe.TransientSolution(times=sol.times, u_avg=sol.u_avg,
                                 snapshot_times=np.array([0.0]),
                                 snapshots=[-np.ones(disk4.num_vertices)])
    assert np.isnan(rhe.coefficient_of_variation(fake, disk4)[0])
