import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st
from scipy.optimize import brentq
from scipy.special import jvp

from dunking import budget, eigen, fem, mesh

from conftest import uniform_fields


def _dense_reference(m, k):
    forms = fem.assemble_forms(m, uniform_fields(m))
    w, _ = sla.eigh(forms.A0.toarray(), forms.M.toarray())
    return np.sort(w)[:k]


def test_generalized_eigs_match_dense():
    m = mesh.generate_canonical("disk", 3)
    forms = fem.assemble_forms(m, uniform_fields(m))
    pairs = eigen.generalized_eigs(forms.A0, forms.M, 8)
    ref = _dense_reference(m, 8)
    got = np.array([p.value for p in pairs])
    assert np.allclose(got, ref, rtol=1e-8, atol=1e-10)


def test_eigenvectors_mass_orthonormal():
    m = mesh.generate_canonical("disk", 3)
    forms = fem.assemble_forms(m, uniform_fields(m))
    pairs = eigen.generalized_eigs(forms.A0, forms.M, 6)
    V = np.column_stack([p.vector for p in pairs])
    G = V.T @ (forms.M @ V)
    assert np.max(np.abs(G - np.eye(6))) < 1e-8
    for p in pairs:
        r = forms.A0 @ p.vector - p.value * (forms.M @ p.vector)
        assert np.linalg.norm(r) < 1e-7 * max(1.0, abs(p.value))


def test_constrained_eigs_skip_the_constant():
    m = mesh.generate_canonical("square", 3)
    forms = fem.assemble_forms(m, uniform_fields(m))
    op = fem.factor_constrained(forms.A0, forms.c)
    pairs = eigen.generalized_eigs(forms.A0, forms.M, 3, constraint=op)
    # with the mean-zero constraint the zero eigenvalue disappears
    assert pairs[0].value > 1.0
    for p in pairs:
        assert abs(forms.c @ p.vector) < 1e-8


def test_disk_neumann_eigenvalue_bessel_oracle(disk5):
    """mu = first nonzero Neumann eigenvalue of the unit disk.

    Oracle: mu = (x*)^2 with x* the first positive root of J1'(x),
    computed independently by bracketed root finding.
    """
    x_star = brentq(lambda x: jvp(1, x, 1), 1.5, 2.5, xtol=1e-12)
    mu_exact = x_star ** 2
    sc = budget.shape_constants(disk5, []).stability
    assert abs(sc.mu - mu_exact) / mu_exact < 0.01
    gs = mesh.geometry_stats(disk5)
    assert abs(sc.gamma_sq_over_mu - gs.gamma ** 2 / sc.mu) < 1e-12


def test_disk_steklov_eigenvalue_exact(disk5):
    # first nonzero Steklov eigenvalue of the unit disk is 1/R = 1
    sc = budget.shape_constants(disk5, []).stability
    assert abs(sc.lambda_steklov - 1.0) < 0.01
    assert abs(sc.gamma_over_lambda - 2.0) < 0.02


def test_stability_constants_square(square4):
    # square side L: mu = (pi/L)^2, lambda = smallest positive Steklov value
    sc = budget.shape_constants(square4, []).stability
    assert abs(sc.mu - np.pi ** 2) / np.pi ** 2 < 0.01
    # reference ratio from the bundled constant table
    assert abs(sc.gamma_sq_over_mu - 1.6211389) < 0.02


def test_more_pairs_than_rank_rejected():
    m = mesh.generate_canonical("disk", 1)
    forms = fem.assemble_forms(m, uniform_fields(m))
    with pytest.raises(ValueError):
        eigen.generalized_eigs(forms.A0, forms.M, forms.M.shape[0] + 5)


def _constrained_dense(forms, Mrhs, k):
    # the pencil restricted to an orthonormal basis Q of c-perp; there A0 is
    # definite, so the singular boundary mass is taken as the inverse pencil
    Q = sla.null_space(forms.c[None, :])
    A = Q.T @ forms.A0.toarray() @ Q
    B = Q.T @ Mrhs.toarray() @ Q
    theta = sla.eigh(B, A, eigvals_only=True)
    return np.sort(1.0 / theta[::-1][:k])


@pytest.fixture(scope="module")
def level3_operators():
    out = {}
    for shape in budget.SHAPES:
        m = budget.canonical_mesh(shape, 3)
        forms = fem.assemble_forms(m, uniform_fields(m))
        out[shape] = forms, fem.factor_constrained(forms.A0, forms.c)
    return out


@pytest.mark.parametrize("shape,k,rtol", [
    *[pytest.param(s, 3, 1e-10, id=s) for s in ("square", "cross")],
    # the single pair that mu and Lambda use
    *[pytest.param(s, 1, 1e-11, id=f"{s}-k1") for s in budget.SHAPES],
])
@pytest.mark.parametrize("rhs", ["M", "A1"])
def test_constrained_eigs_match_dense_on_c_perp(level3_operators, shape, k,
                                                rtol, rhs):
    forms, op = level3_operators[shape]
    Mrhs = getattr(forms, rhs)
    pairs = eigen.generalized_eigs(forms.A0, Mrhs, k, constraint=op)
    got = np.array([p.value for p in pairs])
    assert np.allclose(got, _constrained_dense(forms, Mrhs, k), rtol=rtol,
                       atol=0.0)


class _CountingLU:
    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, x, **kw):
        self.solves += 1
        return self.lu.solve(x, **kw)


@pytest.mark.parametrize("shape", budget.SHAPES)
@pytest.mark.parametrize("rhs", ["M", "A1"])
def test_constrained_first_pair_solve_count(level3_operators, shape, rhs):
    # one pair converges within ARPACK's first short Lanczos pass; the
    # count includes the starting-vector solve
    forms, op = level3_operators[shape]
    counted = dataclasses.replace(op, lu=_CountingLU(op.lu))
    eigen.generalized_eigs(forms.A0, getattr(forms, rhs), 1,
                           constraint=counted)
    assert 0 < counted.lu.solves <= 20


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("shape", budget.SHAPES)
def test_constrained_first_pair_on_coarse_meshes(shape, levels):
    # coarse boundary masses leave fewer nonzero modes than the Lanczos
    # basis; the basis is capped at that count
    m = budget.canonical_mesh(shape, levels)
    forms = fem.assemble_forms(m, uniform_fields(m))
    op = fem.factor_constrained(forms.A0, forms.c)
    for Mrhs in (forms.M, forms.A1):
        pair, = eigen.generalized_eigs(forms.A0, Mrhs, 1, constraint=op)
        assert pair.value > 0
        assert abs(forms.c @ pair.vector) < 1e-8


def test_constrained_k_at_available_spectrum_rejected():
    m = mesh.generate_canonical("disk", 1)
    forms = fem.assemble_forms(m, uniform_fields(m))
    op = fem.factor_constrained(forms.A0, forms.c)
    avail = min(forms.n, m.num_boundary_edges) - 1
    with pytest.raises(ValueError, match="constrained spectrum"):
        eigen.generalized_eigs(forms.A0, forms.A1, avail, constraint=op)
    eigen.generalized_eigs(forms.A0, forms.A1, avail - 1, constraint=op)


@pytest.fixture(scope="module")
def level3_constants():
    out = {}
    for shape in mesh.CANONICAL_SHAPES:
        m = mesh.generate_canonical(shape, 3)
        out[shape] = (m, budget.shape_constants(m, []).stability,
                      mesh.geometry_stats(m))
    return out


@given(theta=st.floats(0.0, 2 * np.pi), log10_s=st.floats(-3.0, 3.0),
       t_norm=st.floats(0.0, 100.0), t_angle=st.floats(0.0, 2 * np.pi))
def test_stability_ratios_invariant_under_similarity(level3_constants, theta,
                                                     log10_s, t_norm, t_angle):
    # v -> s R v + t: gamma^2/mu and gamma/Lambda are scale- and
    # rigid-motion-invariant, gamma scales as 1/s and the diameter as s
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    s = 10.0 ** log10_s
    t = t_norm * np.array([np.cos(t_angle), np.sin(t_angle)])
    for m, sc, gs in level3_constants.values():
        moved = dataclasses.replace(m, vertices=s * m.vertices @ rot.T + t)
        sc2 = budget.shape_constants(moved, []).stability
        gs2 = mesh.geometry_stats(moved)
        assert sc2.gamma_sq_over_mu == pytest.approx(sc.gamma_sq_over_mu, rel=1e-9)
        assert sc2.gamma_over_lambda == pytest.approx(sc.gamma_over_lambda, rel=1e-9)
        assert gs2.gamma * s == pytest.approx(gs.gamma, rel=1e-9)
        assert gs2.diameter / s == pytest.approx(gs.diameter, rel=1e-9)
