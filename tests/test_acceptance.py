"""Acceptance suite: thirteen numbered end-to-end checks.

Each test prints a single `[criterion NN] name: PASS|FAIL` line (visible
with `pytest -s` or in the captured output) and then asserts, so a plain
`pytest` run reports one verdict per criterion.
"""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import solve_banded

from dunking import budget, correlations, fem, lcm
from dunking import lengthscale as ls
from dunking import mesh as mesh_mod
from dunking import rhe, series

from conftest import fields_with_eta, uniform_fields


def _verdict(num, name, ok):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def tables6():
    return budget.reproduce_tables(levels=6)


def _row_ok(row, tol_rel):
    _, _, _, _, ref, _, err = row
    if abs(ref) <= 1e-12:
        return err < 1e-10          # err column is absolute for zero refs
    return err < tol_rel


def test_01_geometry_constants(tables6):
    geo = [r for r in tables6 if r[0] == "geometry_constants"]
    ok = len(geo) == 12 and all(_row_ok(r, 0.02) for r in geo)
    anchors = {r[3]: r for r in geo if r[1] == "disk"}
    ok = ok and anchors["phi111"][6] < 0.01
    ok = ok and anchors["gamma_over_lambda"][6] < 0.01
    assert _verdict(1, "geometry constants", ok)


def test_02_nonuniform_eta_tables(tables6):
    eta = [r for r in tables6 if r[0] == "eta_table"]
    ok = len(eta) == 80
    for row in eta:
        tol = 0.03 if row[3] in ("phi", "phi_ub", "phi_ub_est") else 0.02
        ok = ok and _row_ok(row, tol)
    assert _verdict(2, "phi for nonuniform boundary variation", ok)


def _lumping_ratios(msh, fields, eta, gamma, phi):
    out = []
    for x in (1e-3, 1e-2, 1e-1):
        B = x * gamma
        sol = rhe.solve_rhea(msh, fields, rhe.RobinCoefficient(B, eta=eta),
                             steps=4000, max_snapshots=0)
        gap = np.max(np.abs(sol.u_avg - np.exp(-gamma * B * sol.times)))
        out.append(float(gap / (phi * B / (gamma * math.e))))
    return out


def test_03_lumping_bound_sharpness(disk5):
    gamma = mesh_mod.geometry_stats(disk5).gamma
    ok = True
    for kind in ("constant", "linear"):
        fields = fields_with_eta(disk5, kind)
        phi = budget.solve_phi(disk5, fields).phi
        r = _lumping_ratios(disk5, fields, fields.eta, gamma, phi)
        # asymptotically sharp at the smallest Biot number; a sliver above
        # one there is spatial discretization error, not a bound violation
        ok = ok and 0.8 <= r[0] <= 1.05
        ok = ok and r[1] <= 1.0 and r[2] <= 1.0
    assert _verdict(3, "lumping bound sharpness (small Biot)", ok)


def test_04_heterogeneous_bound_on_layered_cross(cross4):
    gs = mesh_mod.geometry_stats(cross4)
    cent_y = cross4.vertices[cross4.triangles].mean(axis=1)[:, 1]
    fields = uniform_fields(cross4)
    fields.sigma = np.where(cent_y < 0.0, 2.0 / 3.0, 4.0 / 3.0)
    areas = cross4.triangle_areas()
    frac_lo = areas[fields.sigma < 1.0].sum() / areas.sum()
    var_sigma = budget.composite_sigma_variance(
        [frac_lo, 1.0 - frac_lo], [2.0 / 3.0, 4.0 / 3.0])
    ok = abs(var_sigma - 1.0 / 9.0) < 1e-14

    phi = budget.solve_phi(cross4, fields).phi
    phi111 = budget.solve_phi(cross4, uniform_fields(cross4)).phi
    stab = budget.shape_constants(cross4, []).stability
    ub = budget.phi_upper_bound(cross4, fields, stab, phi111,
                                var_sigma=var_sigma, var_eta=0.0)
    ok = ok and phi <= ub.bound
    r = _lumping_ratios(cross4, fields, fields.eta, gs.gamma, phi)
    ok = ok and all(ri <= 1.0 for ri in r)
    assert _verdict(4, "heterogeneous bound on layered cross", ok)


def test_05_eigenvalue_expansion_coefficients(disk5, cross4):
    ok = True
    for msh in (disk5, cross4):
        gamma = mesh_mod.geometry_stats(msh).gamma
        fields = uniform_fields(msh)
        lin, quad = budget.lambda1_expansion_check(
            msh, fields, np.array([1.0, 2.0, 4.0, 8.0]) * 1e-4 * gamma)
        phi = budget.solve_phi(msh, fields).phi
        ok = ok and abs(lin - gamma) / gamma < 0.01
        ok = ok and abs(quad - phi) / phi < 0.05
    assert _verdict(5, "small-Biot eigenvalue expansion", ok)


def test_06_worked_cylinder_budget():
    bud = budget.assemble_budget(B=0.0680, B_est=0.0678, gamma=4.0,
                                 phi_used=1.1053)
    ok = abs(bud.biot - 0.001082) < 1e-6
    ok = ok and abs(bud.lumping - 0.006912) < 1e-5
    phi_ub = (math.sqrt(0.5) + math.sqrt(2.0 * 0.316)) ** 2
    ok = ok and abs(phi_ub - 2.257) / 2.257 < 0.02
    assert _verdict(6, "worked cylinder error budget", ok)


def test_07_lumped_time_constant_and_ratio():
    model = lcm.LumpedModel(B=0.0678, gamma=4.0)
    ok = abs(model.tau_eq - 3.688) < 1e-3
    ts = lcm.time_scales(r1=1.0, r2=0.8220, Re=143.0, Pr=0.71,
                         B=0.0678, gamma=4.0)
    ok = ok and abs(ts.ratio - 307.0) <= 1.0
    assert _verdict(7, "lumped time constant and scale ratio", ok)


def test_08_time_homogenization():
    disk3 = mesh_mod.generate_canonical("disk", 3)
    fields = uniform_fields(disk3)
    gs = mesh_mod.geometry_stats(disk3)
    B = 1e-2 * gs.gamma
    t_f = 3.0 / (B * gs.gamma)
    gaps = {}
    ok = True
    for eps in (0.2, 0.025):
        steps = max(2000, int(40.0 * t_f / eps))
        ref = rhe.solve_rhea(disk3, fields,
                             rhe.RobinCoefficient(B, eta=fields.eta),
                             t_f=t_f, steps=steps, max_snapshots=0)
        osc = rhe.solve_rhe_timedep(
            disk3, fields,
            rhe.RobinCoefficient(
                B, eta=fields.eta,
                time_scale=lambda t, e=eps: 1.0 + 0.5 * math.sin(2 * math.pi * t / e)),
            t_f=t_f, steps=steps, max_snapshots=0)
        gaps[eps] = float(np.max(np.abs(osc.u_avg - ref.u_avg)))
        tt = np.linspace(0.0, t_f, 200001)
        l1l1 = gs.perimeter * np.trapezoid(
            np.abs(0.5 * np.sin(2 * np.pi * tt / eps)), tt)
        bud = budget.assemble_budget(B, B, gs.gamma, 1.0,
                                     temporal_inputs=(gs.area, l1l1))
        ok = ok and bud.temporal >= gaps[eps]
    ok = ok and gaps[0.2] / gaps[0.025] >= 2.0
    assert _verdict(8, "temporal homogenization of the boundary load", ok)


def _fd_two_domain(r1, r2, targets):
    """1D two-domain contact problem on a graded control-volume grid,
    backward Euler with a geometrically growing step."""
    t_max = max(targets)
    h_fine, n_fine = 4e-6, 1500

    def graded(L):
        hs = [h_fine] * n_fine
        x, h = h_fine * n_fine, h_fine
        while x < L:
            h *= 1.06
            hs.append(h)
            x += h
        return np.array(hs)

    h_s = graded(8.0 * math.sqrt(t_max))[::-1]
    h_f = graded(8.0 * math.sqrt(max(1.0, r2 / r1) * t_max))
    h = np.concatenate([h_s, h_f])
    ns = len(h_s)
    k = np.concatenate([np.ones(ns), np.full(len(h_f), r2)])
    cap = np.concatenate([np.ones(ns), np.full(len(h_f), r1)]) * h
    g = 1.0 / (h[:-1] / (2.0 * k[:-1]) + h[1:] / (2.0 * k[1:]))
    u = np.concatenate([np.ones(ns), np.zeros(len(h_f))])

    t, dt, out = 0.0, 1e-10, {}
    for target in sorted(targets):
        while t < target - 1e-18:
            step = min(dt, target - t)
            diag = cap / step
            diag[:-1] += g
            diag[1:] += g
            upper = np.concatenate([[0.0], -g])
            lower = np.concatenate([-g, [0.0]])
            u = solve_banded((1, 1), np.vstack([upper, diag, lower]),
                             cap / step * u)
            t += step
            dt *= 1.05
        w_s, w_f = 2.0 / h[ns - 1], 2.0 * r2 / h[ns]
        u_if = (w_s * u[ns - 1] + w_f * u[ns]) / (w_s + w_f)
        q = g[ns - 1] * (u[ns - 1] - u[ns])
        out[target] = (u_if, q / (r2 * u_if))
    return out


def test_09_short_time_asymptotics():
    targets = (1e-6, 1e-5, 1e-4)
    worst = 0.0
    for r1 in (0.01, 1.0):
        for r2 in (0.01, 1.0):
            oracle = _fd_two_domain(r1, r2, targets)
            for t in targets:
                ui, nu = budget.short_time_asymptotics(r1, r2, t)
                ui_o, nu_o = oracle[t]
                worst = max(worst, abs(ui_o - ui) / ui, abs(nu_o - nu) / nu)
    assert _verdict(9, "short-time contact asymptotics", worst < 0.02)


def test_10_length_scale_learning():
    rm = correlations.get_correlation("ranz_marshall")
    # the same correlation under another name takes the search, not the
    # closed form
    searched = dataclasses.replace(rm, name="ranz_marshall_searched")
    ok = True
    for q_true in (0.3, 1.44, 5.0):
        for Re in (40.0, 300.0, 2500.0):
            nu, _ = correlations.transform_correlation(rm, q_true, Re, 0.71)
            qc = ls.solve_q(rm, Re, nu, 0.71)[0]
            qg = ls.solve_q(searched, Re, nu, 0.71)[0]   # golden section
            ok = ok and abs(qc - q_true) < 1e-6 and abs(qc - qg) < 1e-8 * qc
    # recovery carried through the surrogate grid nodes
    triples = []
    for s in (0.5, 1.0, 2.0):
        for th in (0.0, 45.0, 90.0):
            q_true = 0.8 + 0.4 * math.log10(s) ** 2 + th / 300.0
            nu, _ = correlations.transform_correlation(rm, q_true, 200.0, 0.71)
            q_hat = ls.solve_q(rm, 200.0, nu, 0.71)[0]
            triples.append((s, th, q_hat, q_true))
    model = ls.build_surrogate([(s, th, q) for s, th, q, _ in triples])
    for s, th, _, q_true in triples:
        ok = ok and abs(model.evaluate(s, th) - q_true) < 1e-6
    assert _verdict(10, "length-scale ratio learning", ok)


def test_11_shape_fit():
    prolate = ls.fit_spheroid(
        ls.sample_spheroid_surface(5.0, 1.0, n=500, theta_deg=30.0, seed=11))
    ok = abs(prolate.s - 5.0) / 5.0 < 0.02
    ok = ok and abs(prolate.theta_deg - 30.0) < 1.0
    oblate = ls.fit_spheroid(
        ls.sample_spheroid_surface(0.2, 1.0, n=500, theta_deg=45.0, seed=11))
    ok = ok and abs(oblate.s - 0.2) / 0.2 < 0.02
    ok = ok and abs(oblate.theta_deg - 45.0) < 1.0
    box = ls.fit_spheroid(
        ls.sample_cuboid_surface(6.25, 1.0, 1.0, n=500, seed=11))
    ok = ok and abs(box.s - 6.24) / 6.24 < 0.03
    assert _verdict(11, "equivalent-spheroid point-cloud fit", ok)


def test_12_steady_state_detector():
    meta = dict(Re=100.0, Pr=0.71, r1=0.5, r2=2.0)
    t_vs = series.vortex_frequency(0.2, meta["r1"], meta["r2"],
                                   meta["Re"], meta["Pr"])[1]
    t = np.linspace(0.0, 25.0 * t_vs, 6001)

    flat = series.steady_state_detect(
        series.NusseltSeries(t, np.full_like(t, 7.0), **meta))
    ok = flat.converged and abs(flat.t_f - 8.0 * t_vs) < 1e-9 * t_vs
    ok = ok and abs(flat.nu_stavg - 7.0) < 1e-12

    decay = series.steady_state_detect(series.NusseltSeries(
        t, 10.0 + 8.0 * np.exp(-t / t_vs), **meta))
    ok = ok and decay.converged and abs(decay.nu_stavg - 10.0) < 0.05 * 10.0

    drift = series.steady_state_detect(series.NusseltSeries(
        t, 10.0 * (1.0 + 0.01 * t / t_vs), **meta))
    ok = ok and not drift.converged

    # schedule read back from the emitted window history
    hist = flat.history
    ok = ok and abs(hist[0, 1] - 5.0 * t_vs) < 1e-12       # initial window
    ok = ok and np.allclose(np.diff(hist[:, 1]), 0.5 * t_vs, rtol=1e-9)
    ok = ok and np.allclose(np.diff(hist[:, 2]), 0.05 * t_vs, rtol=1e-9)
    armed = hist[np.isfinite(hist[:, 4])]
    ok = ok and len(armed) > 0 and armed[0, 1] > 7.5 * t_vs
    ok = ok and flat.threshold == 1.0e-3
    assert _verdict(12, "steady-state detector behavior and schedule", ok)


def test_13_solver_hygiene(disk4, square4, cross4, disk5):
    ok = True
    # maximum principle on every transient fixture
    for msh in (disk4, square4, cross4):
        gamma = mesh_mod.geometry_stats(msh).gamma
        for kind in ("constant", "step"):
            fields = fields_with_eta(msh, kind)
            sol = rhe.solve_rhea(msh, fields,
                                 rhe.RobinCoefficient(1e-2 * gamma,
                                                      eta=fields.eta),
                                 steps=400, max_snapshots=50)
            ok = ok and sol.snapshots.min() >= -1e-8
            ok = ok and sol.snapshots.max() <= 1.0 + 1e-8

    # second-order convergence of the time stepper, measured by halving
    disk3 = mesh_mod.generate_canonical("disk", 3)
    f3 = uniform_fields(disk3)
    gs3 = mesh_mod.geometry_stats(disk3)
    rc = rhe.RobinCoefficient(0.02 * gs3.gamma, eta=f3.eta)
    t_f = 1.0 / (0.02 * gs3.gamma ** 2)
    ref = rhe.solve_rhea(disk3, f3, rc, t_f=t_f, steps=6400,
                         max_snapshots=0).u_avg[-1]
    errs = [abs(rhe.solve_rhea(disk3, f3, rc, t_f=t_f, steps=n,
                               max_snapshots=0).u_avg[-1] - ref)
            for n in (100, 200)]
    ok = ok and math.log2(errs[0] / errs[1]) >= 1.9

    # spectral mass balance: thirty contributing pairs carry the average
    f5 = uniform_fields(disk5)
    gs5 = mesh_mod.geometry_stats(disk5)
    forms = fem.assemble_forms(disk5, f5)
    K = (forms.A0 + 1e-2 * gs5.gamma
         * fem.boundary_mass(disk5, f5.eta)).toarray()
    _, V = sla.eigh(K, forms.M.toarray())
    masses = (forms.c @ V) ** 2 / forms.c.sum()
    top30 = np.sort(masses)[::-1][:30].sum()
    ok = ok and abs(top30 - 1.0) < 1e-8
    assert _verdict(13, "solver hygiene", ok)
