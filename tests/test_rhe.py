import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._eigen.arpack import arpack
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp

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


@functools.cache
def _mesh_with_longest_edge(shape, level):
    m = mesh.generate_canonical(shape, level)
    tri = m.vertices[m.triangles]
    return m, np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2).max()


@given(shape=st.sampled_from(["disk", "square", "cross"]),
       level=st.integers(2, 3), biot=st.floats(1e-3, 1.0),
       frac=st.floats(0.0, 1.0))
def test_maximum_principle_where_dt_resolves_the_mesh(shape, level, biot,
                                                      frac):
    """0 <= u <= 1 at every step once dt >= h^2/2 (h the longest edge),
    over the default three lumped time constants.  Consistent-mass BDF2
    overshoots 1 below that: sampled over these meshes, the last overshoot
    came at dt = 0.25 h^2 (cross L3), and it reached 5e-2 (square L2)."""
    m, h = _mesh_with_longest_edge(shape, level)
    f = uniform_fields(m)
    gamma = mesh.geometry_stats(m).gamma
    t_f = 3.0 / (biot * gamma * gamma)
    most = min(2000, int(t_f / (0.5 * h * h)))  # steps with dt >= h^2/2
    assume(most >= 2)
    steps = 2 + int(frac * (most - 2))
    sol = rhe.solve_rhea(m, f, rhe.RobinCoefficient(biot * gamma, eta=f.eta),
                         steps=steps, max_snapshots=steps + 1)
    assert sol.snapshots.min() >= -1e-8
    assert sol.snapshots.max() <= 1.0 + 1e-8


def test_small_steps_overshoot_one(disk3):
    """The bound above does not hold for every dt: disk L3, B = 0.05 gamma,
    dt = 0.054 h^2."""
    f = uniform_fields(disk3)
    gamma = mesh.geometry_stats(disk3).gamma
    sol = rhe.solve_rhea(disk3, f, rhe.RobinCoefficient(0.05 * gamma,
                                                        eta=f.eta),
                         steps=3000, max_snapshots=3001)
    assert 5e-4 < sol.snapshots.max() - 1.0 < 2e-3


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
@pytest.mark.parametrize("schedule", ["autonomous", "oscillating", "switched"])
def test_dense_steps_match_sparse_steps(monkeypatch, shape, level, schedule):
    m = mesh.generate_canonical(shape, level)
    f = fields_with_eta(m, "step")
    gs = mesh.geometry_stats(m)
    B = 0.05 * gs.gamma
    t_f = 1.0 / (B * gs.gamma)
    scale = None
    if schedule == "oscillating":
        scale = lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t / (0.1 * t_f))
    elif schedule == "switched":  # uncorrected steps, then corrected ones
        scale = lambda t: 1.0 if t < 0.5 * t_f else 1.5
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
        def __init__(self, A, **kw):
            self.lu = splu(A, **kw)

        def solve(self, rhs, **kw):
            solves.append(rhs.shape)
            return self.lu.solve(rhs, **kw)

    monkeypatch.setattr(spla, "splu", CountingLU)
    m = mesh.generate_canonical("disk", level)
    f = uniform_fields(m)
    robin = rhe.RobinCoefficient(
        0.1, eta=f.eta, time_scale=lambda t: 1.0 + 0.5 * np.sin(40.0 * t))
    rhe.solve_rhe_timedep(m, f, robin, t_f=1.0, steps=20, max_snapshots=0)
    # two per step: the K1 solve and its boundary correction
    assert (len(solves) >= 2 * 19) == per_step


def test_every_factorization_uses_the_spd_recipe(monkeypatch, disk3):
    calls = []
    splu = spla.splu

    def recording(A, **kw):
        calls.append(kw)
        return splu(A, **kw)

    monkeypatch.setattr(spla, "splu", recording)
    # ARPACK imported splu by name, for the shift-inverts it factors itself
    monkeypatch.setattr(arpack, "splu", recording)
    budget.shape_constants(disk3, [])
    f = fields_with_eta(disk3, "step")
    robin = rhe.RobinCoefficient(0.1, eta=f.eta)
    varying = rhe.RobinCoefficient(0.1, eta=f.eta,
                                   time_scale=lambda t: 1.0 + t)
    for limit in (rhe.DENSE_BUDGET, 0):  # the dense and the sparse branch
        monkeypatch.setattr(rhe, "DENSE_BUDGET", limit)
        rhe.solve_rhea(disk3, f, robin, t_f=1.0, steps=10)
        rhe.solve_rhe_timedep(disk3, f, varying, t_f=1.0, steps=10)
    gamma = mesh.geometry_stats(disk3).gamma
    budget.lambda1_expansion_check(disk3, uniform_fields(disk3),
                                   np.array([1.0, 2.0, 4.0]) * 1e-3 * gamma)
    # the constrained factor, two per march, then one per Biot sample
    assert len(calls) == 1 + 4 * 2 + 3
    recipe = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  relax=1, panel_size=1, options={"SymmetricMode": True})
    assert calls == [recipe] * len(calls)


def test_vectors_take_the_transposed_solve_and_blocks_do_not(monkeypatch,
                                                             disk3):
    solves = []
    splu = spla.splu

    class RecordingLU:
        def __init__(self, A, **kw):
            self.lu = splu(A, **kw)

        def solve(self, rhs, **kw):
            solves.append((rhs.ndim, kw))
            return self.lu.solve(rhs, **kw)

    monkeypatch.setattr(spla, "splu", RecordingLU)
    budget.shape_constants(disk3, [])
    f = fields_with_eta(disk3, "step")
    monkeypatch.setattr(rhe, "DENSE_BUDGET", 0)
    rhe.solve_rhea(disk3, f, rhe.RobinCoefficient(0.1, eta=f.eta),
                   t_f=1.0, steps=10)
    rhe.solve_rhe_timedep(disk3, f, rhe.RobinCoefficient(
        0.1, eta=f.eta, time_scale=lambda t: 1.0 + t), t_f=1.0, steps=10)
    assert {ndim for ndim, _ in solves} == {1, 2}
    for ndim, kw in solves:
        assert kw == ({"trans": "T"} if ndim == 1 else {})


def test_transposed_solve_matches_the_default_one(disk5):
    # K1 = 1.5 M/dt + A0 + B A1 is symmetric, so both paths solve K1 x = b
    f = fields_with_eta(disk5, "step")
    forms = fem.assemble_forms(disk5, f)
    lu = fem.factor_spd(1.5 * forms.M / 1e-3 + forms.A0 + 0.1 * forms.A1)
    b = np.random.default_rng(0).standard_normal(forms.n)
    x = lu.solve(b)
    assert np.max(np.abs(fem._solve_spd(lu, b) - x)) <= 1e-14 * np.max(np.abs(x))


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


@pytest.fixture(scope="module")
def radau_disk2():
    """u_avg on a 4001-point grid over [0, 1] of the semi-discrete ODE
    M u' = -(A0 + B g(t) A1) u on disk L2 (25 nodes), g(t) = 1 + 0.5
    sin(2 pi t / 0.2), integrated by scipy's Radau: an oracle that shares
    the assembled forms with the BDF2 stepper but none of its time stepping."""
    m = mesh.generate_canonical("disk", 2)
    f = uniform_fields(m)
    B = 0.01 * mesh.geometry_stats(m).gamma
    g = lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t / 0.2)
    forms = fem.assemble_forms(m, f)
    Minv = np.linalg.inv(forms.M.toarray())
    P0, P1 = Minv @ forms.A0.toarray(), Minv @ forms.A1.toarray()
    jac = lambda t, u: -(P0 + B * g(t) * P1)
    ode = solve_ivp(lambda t, u: jac(t, u) @ u, (0.0, 1.0),
                    np.ones(m.num_vertices), method="Radau", jac=jac,
                    rtol=1e-11, atol=1e-13, t_eval=np.linspace(0.0, 1.0, 4001))
    assert ode.success
    robin = rhe.RobinCoefficient(B, eta=f.eta, time_scale=g)
    return m, f, robin, forms.c @ ode.y / forms.c.sum()


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_timedep_converges_to_radau_oracle(monkeypatch, radau_disk2, dense):
    m, f, robin, ref = radau_disk2
    if not dense:
        monkeypatch.setattr(rhe, "DENSE_BUDGET", 0)
    errs = []
    for steps in (1000, 2000, 4000):
        sol = rhe.solve_rhe_timedep(m, f, robin, t_f=1.0, steps=steps)
        errs.append(np.max(np.abs(sol.u_avg - ref[::4000 // steps])))
    # measured 4.8e-7, 1.2e-7, 3.0e-8 on both branches; a stepper that
    # ignores g(t) after its first step is off by ~1e-3
    assert errs[0] <= 1e-6
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((orders > 1.9) & (orders < 2.1)), orders


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


@pytest.mark.parametrize("steps", [2, 3, 7, 10, 1000, 1001])
def test_snapshot_slots_fit_the_budget(steps):
    for max_snapshots in [1, 2, 3, 4, 5, 9, 20, steps, steps + 1, steps + 5]:
        slots = rhe._snapshot_slots(steps, max_snapshots)
        assert 1 <= len(slots) <= max_snapshots
        assert np.all(np.diff(slots) > 0)
        assert slots[-1] == steps
        assert slots[0] == (0 if max_snapshots > 1 else steps)
    assert len(rhe._snapshot_slots(steps, 0)) == 0


def test_single_snapshot_is_the_final_field(disk3):
    f = uniform_fields(disk3)
    robin = rhe.RobinCoefficient(0.1, eta=f.eta)
    one = rhe.solve_rhea(disk3, f, robin, t_f=1.0, steps=10, max_snapshots=1)
    every = rhe.solve_rhea(disk3, f, robin, t_f=1.0, steps=10,
                           max_snapshots=11)
    assert one.snapshot_times.tolist() == [1.0]
    assert np.array_equal(one.snapshots, every.snapshots[-1:])


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
    pairs = eigen.generalized_eigs(K, forms.M, 25, fem.factor_spd(K))
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
    pairs = eigen.generalized_eigs(K, forms.M, 12, fem.factor_spd(K))
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


def _two_pass_cv(m, u):
    """sqrt(int (u - u_m)^2 / |Omega|) / u_m, summed triangle by triangle:
    int_T f^2 = |T| (sum f_i^2 + sum_{i<j} f_i f_j) / 6 for linear f."""
    a = m.triangle_areas()
    v = u[m.triangles]
    mean = (a @ v.sum(axis=1)) / (3.0 * a.sum())
    d = v - mean
    sq = (d * d).sum(axis=1) + (d * np.roll(d, 1, axis=1)).sum(axis=1)
    return np.sqrt((a @ sq) / (6.0 * a.sum())) / mean


@pytest.mark.parametrize("shape,level", [("disk", 3), ("disk", 4), ("square", 3)])
@pytest.mark.parametrize("B", [1e-6, 1e-8])
def test_coefficient_of_variation_at_small_biot(shape, level, B):
    """The one-pass int u^2 - u_m^2 cancels for these near-uniform fields
    (0 instead of 1.4e-9 on the level-4 disk at B = 1e-8)."""
    m = mesh.generate_canonical(shape, level)
    f = uniform_fields(m)
    sol = rhe.solve_rhea(m, f, rhe.RobinCoefficient(B, eta=f.eta))
    cv = rhe.coefficient_of_variation(sol, m)
    ref = np.array([_two_pass_cv(m, u) for u in sol.snapshots])
    assert cv[0] < 1e-12
    assert np.allclose(cv[1:], ref[1:], rtol=1e-6, atol=0)


def test_coefficient_of_variation_reuses_the_unit_mass_matrix(disk4):
    f = uniform_fields(disk4)
    robin = rhe.RobinCoefficient(0.1, eta=f.eta)
    sol = rhe.solve_rhea(disk4, f, robin, t_f=1.0, steps=50)
    ones = np.ones(disk4.num_triangles)
    assert (sol.unit_mass != fem.mass_matrix(disk4, ones)).nnz == 0
    rebuilt = dataclasses.replace(sol, unit_mass=None)
    assert np.array_equal(rhe.coefficient_of_variation(sol, disk4),
                          rhe.coefficient_of_variation(rebuilt, disk4))
    weighted = f.replace(sigma=np.where(np.arange(len(ones)) % 2, 0.5, 1.5))
    assert rhe.solve_rhea(disk4, weighted, robin, t_f=1.0,
                          steps=50).unit_mass is None
