import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from dunking import budget, eigen, fem, mesh

from conftest import fields_with_eta, uniform_fields

PHI_UNIFORM = {"disk": 0.5, "square": 2.0 / 3.0, "cross": 0.8353507069}


@pytest.mark.parametrize("shape,exact", sorted(PHI_UNIFORM.items()))
def test_phi_uniform_fields(shape, exact):
    m = mesh.generate_canonical(shape, 5)
    phi = budget.solve_phi(m, uniform_fields(m)).phi
    assert abs(phi - exact) / exact < 0.01


def test_phi_triangle_uniform():
    m = mesh.generate_canonical("equilateral_triangle", 6)
    phi = budget.solve_phi(m, uniform_fields(m)).phi
    assert abs(phi - 1.0) < 0.01


def test_phi_requires_normalized_eta(disk4):
    f = uniform_fields(disk4)
    f.eta = 2.0 * f.eta
    with pytest.raises(ValueError):
        budget.solve_phi(disk4, f)


def test_phi_digest_tracks_inputs(disk4):
    r1 = budget.solve_phi(disk4, uniform_fields(disk4))
    r2 = budget.solve_phi(disk4, fields_with_eta(disk4, "linear"))
    assert r1.inputs_digest != r2.inputs_digest


def test_phi_upper_bound_formula(disk4):
    f = fields_with_eta(disk4, "linear")
    sc = budget.shape_constants(disk4, []).stability
    phi111 = budget.solve_phi(disk4, uniform_fields(disk4)).phi
    ub = budget.phi_upper_bound(disk4, f, sc, phi111)
    expect = (math.sqrt(phi111) + math.sqrt(ub.delta_sigma)
              + math.sqrt(ub.delta_eta)) ** 2
    assert abs(ub.bound - expect) < 1e-12
    assert abs(ub.delta_eta - sc.gamma_over_lambda * ub.var_eta) < 1e-12
    # uniform sigma contributes nothing
    assert ub.delta_sigma < 1e-13
    # the bound dominates the actual phi
    phi = budget.solve_phi(disk4, f).phi
    assert phi <= ub.bound


def test_phi_upper_bound_supplied_variances(disk4):
    sc = budget.shape_constants(disk4, []).stability
    ub = budget.phi_upper_bound(disk4, uniform_fields(disk4), sc, 0.5,
                                var_sigma=0.0, var_eta=0.316)
    expect = (math.sqrt(0.5) + math.sqrt(sc.gamma_over_lambda * 0.316)) ** 2
    assert abs(ub.bound - expect) < 1e-12


def test_shape_constants_match_separate_solves(disk4):
    etas = [fem.eta_variation(disk4, v) for v in fem.ETA_VARIATIONS]
    sc = budget.shape_constants(disk4, etas)
    forms = fem.assemble_forms(disk4, uniform_fields(disk4))
    stab = eigen.constrained_stability(
        fem.factor_constrained(forms.A0, forms.c), forms.M, forms.A1,
        mesh.geometry_stats(disk4).gamma)
    assert sc.gamma == mesh.geometry_stats(disk4).gamma
    assert sc.phi111 == budget.solve_phi(disk4, uniform_fields(disk4)).phi
    assert sc.stability == stab
    for kind, phi, ub in zip(fem.ETA_VARIATIONS, sc.phi, sc.bounds):
        f = fields_with_eta(disk4, kind)
        assert phi == budget.solve_phi(disk4, f).phi
        assert ub == budget.phi_upper_bound(disk4, f, stab, sc.phi111)


@pytest.fixture(scope="module")
def level3_meshes():
    return {s: budget.canonical_mesh(s, 3) for s in budget.SHAPES}


@given(shape=st.sampled_from(budget.SHAPES), data=st.data())
def test_phi_positive_and_below_bound_for_random_eta(level3_meshes, shape,
                                                     data):
    m = level3_meshes[shape]
    eta = data.draw(arrays(float, (m.num_boundary_edges, 2),
                           elements=st.floats(0.0, 10.0)))
    assume(fem.boundary_mean(m, eta) > 1e-3)
    eta = eta / fem.boundary_mean(m, eta)
    sc = budget.shape_constants(m, [eta])
    # equality holds for constant eta, where the bound's sqrt-then-square
    # of phi111 may round one ulp low
    assert 0.0 < sc.phi[0] <= sc.bounds[0].bound * (1.0 + 1e-12)


def test_composite_sigma_variance_layered():
    v = budget.composite_sigma_variance([0.5, 0.5], [2 / 3, 4 / 3])
    assert abs(v - 1.0 / 9.0) < 1e-15
    assert budget.composite_sigma_variance([0.3, 0.7], [1.0, 1.0]) == 0.0


@given(st.floats(0.05, 0.95), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_composite_sigma_variance_nonnegative(f1, a, b):
    v = budget.composite_sigma_variance([f1, 1.0 - f1], [a, b])
    assert v >= 0.0


def test_budget_worked_example():
    bud = budget.assemble_budget(B=0.0680, B_est=0.0678, gamma=4.0,
                                 phi_used=1.1053)
    assert abs(bud.biot - 0.001082) < 1e-6
    assert abs(bud.lumping - 0.006912) < 1e-5
    assert abs(bud.total - (bud.biot + bud.lumping)) < 1e-15
    assert not bud.temporal_present and bud.temporal is None
    assert not bud.asymptotic_regime


def test_budget_upper_bound_composition():
    phi_ub = (math.sqrt(0.5) + math.sqrt(2.0 * 0.316)) ** 2
    assert abs(phi_ub - 2.257) / 2.257 < 0.02
    bud = budget.assemble_budget(0.0680, 0.0678, 4.0, phi_ub,
                                 phi_provenance="phi_ub")
    assert bud.phi_provenance == "phi_ub"
    assert bud.lumping > 0.006912  # ub-based budget is more conservative


def test_budget_temporal_term():
    bud = budget.assemble_budget(0.02, 0.02, 2.0, 0.5,
                                 temporal_inputs=(np.pi, 1.3))
    assert abs(bud.temporal - math.sqrt(2 * 0.02 / np.pi * 1.3)) < 1e-15
    assert abs(bud.total - (bud.lumping + bud.temporal)) < 1e-15


def test_budget_validation():
    assert budget.assemble_budget(0.1, 0.1, 2.0, 0.5).biot == 0.0
    with pytest.raises(ValueError):
        budget.assemble_budget(0.1, 0.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        budget.assemble_budget(0.1, 0.1, -1.0, 0.5)
    with pytest.raises(ValueError):
        budget.assemble_budget(0.1, 0.1, 2.0, 0.5,
                               temporal_inputs=(-1.0, 1.0))


def test_budget_report_rows_format():
    rows = dict(budget.budget_report_rows(
        budget.assemble_budget(0.0680, 0.0678, 4.0, 1.1053)))
    assert float(rows["lumping"]) == pytest.approx(0.006912, abs=1e-5)
    assert rows["phi_provenance"] == "phi"
    assert rows["asymptotic_regime"] == "false"


def test_lambda1_expansion_disk(disk4):
    gs = mesh.geometry_stats(disk4)
    f = uniform_fields(disk4)
    B = np.array([1e-4, 2e-4, 4e-4, 8e-4]) * gs.gamma
    lin, quad = budget.lambda1_expansion_check(disk4, f, B)
    phi = budget.solve_phi(disk4, f).phi
    assert abs(lin - gs.gamma) / gs.gamma < 0.01
    assert abs(quad - phi) / phi < 0.05


def test_short_time_closed_forms():
    u, nu = budget.short_time_asymptotics(1.0, 1.0, 1e-5)
    assert abs(u - 0.5) < 1e-15
    assert abs(nu - 1.0 / math.sqrt(math.pi * 1e-5)) < 1e-9
    # interface temperature depends on r1*r2 only
    u2, _ = budget.short_time_asymptotics(0.25, 4.0, 1e-5)
    assert abs(u2 - 0.5) < 1e-15
    # Nu scales like sqrt(r1/r2)
    _, nu3 = budget.short_time_asymptotics(4.0, 1.0, 1e-5)
    assert abs(nu3 - 2.0 * nu) < 1e-9
    with pytest.raises(ValueError):
        budget.short_time_asymptotics(0.0, 1.0, 1e-5)
    with pytest.raises(ValueError):
        budget.short_time_asymptotics(1.0, 1.0, 0.0)
