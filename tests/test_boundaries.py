"""Public library functions refuse non-finite or out-of-domain input and
name the parameter."""
import math

import numpy as np
import pytest

from dunking import budget, fem, mesh, rhe, series
from dunking import correlations as corr
from dunking import lengthscale as ls

nan, inf = math.nan, math.inf


def march_with_eta(value):
    """An autonomous march on the level-1 disk with one eta value replaced."""
    m = mesh.generate_canonical("disk", 1)
    f = fem.FieldSet.from_constants(m)
    eta = f.eta.copy()
    eta[0, 0] = value
    return rhe.solve_rhea(m, f, rhe.RobinCoefficient(0.1, eta=eta),
                          t_f=1.0, steps=2)


def phi_with(name, value):
    """solve_phi on the level-1 disk with one entry of a unit field replaced."""
    m = mesh.generate_canonical("disk", 1)
    f = fem.FieldSet.from_constants(m)
    field = getattr(f, name).copy()
    field.flat[0] = value
    return budget.solve_phi(m, f.replace(**{name: field}))


def expansion_check(*samples):
    """lambda1_expansion_check on the level-1 disk, samples in units of gamma."""
    m = mesh.generate_canonical("disk", 1)
    gamma = mesh.geometry_stats(m).gamma
    return budget.lambda1_expansion_check(m, fem.FieldSet.from_constants(m),
                                          np.array(samples) * gamma)


CASES = {
    "composite-fractions-nan": (budget.composite_sigma_variance, ([nan, 1], [1, 2]), "fractions"),
    "composite-fractions-inf": (budget.composite_sigma_variance, ([inf, 1], [1, 2]), "fractions"),
    "composite-rho_c-nan": (budget.composite_sigma_variance, ([0.5, 0.5], [nan, 2]), "rho_c"),
    "composite-rho_c-inf": (budget.composite_sigma_variance, ([0.5, 0.5], [1, inf]), "rho_c"),
    "short-time-r1-nan": (budget.short_time_asymptotics, (nan, 1, [0.1]), "r1"),
    "short-time-r2-inf": (budget.short_time_asymptotics, (1, inf, [0.1]), "r2"),
    "short-time-t-nan": (budget.short_time_asymptotics, (1, 1, [0.1, nan]), "t"),
    "short-time-t-inf": (budget.short_time_asymptotics, (1, 1, inf), "t"),
    "average-q-Re-nan": (ls.average_q_log, ([(nan, 1), (10, 2)],), "Re"),
    "average-q-Re-inf": (ls.average_q_log, ([(10, 1), (inf, 2)],), "Re"),
    "average-q-q-nan": (ls.average_q_log, ([(1, nan), (10, 2)],), "q"),
    "average-q-q-inf": (ls.average_q_log, ([(1, 1), (10, -inf)],), "q"),
    **{f"transform-q-{q}": (corr.transform_correlation,
                            (corr.get_correlation("ranz_marshall"), q, 50.0, 0.71), "q")
       for q in (nan, inf, 0.0, -1.0)},
    "sphere-D-nan": (corr.Shape.sphere, (nan,), "D"),
    "sphere-D-inf": (corr.Shape.sphere, (inf,), "D"),
    "spheroid-a-nan": (corr.Shape.spheroid, (nan, 1), "a"),
    "spheroid-b-inf": (corr.Shape.spheroid, (1, inf), "b"),
    "cuboid-ly-nan": (corr.Shape.cuboid, (1, nan, 1), "ly"),
    "cuboid-lz-inf": (corr.Shape.cuboid, (1, 1, inf), "lz"),
    "cylinder-D-nan": (corr.Shape.cylinder, (nan, 1), "D"),
    "cylinder-L-inf": (corr.Shape.cylinder, (1, inf), "L"),
    "surrogate-log10_s-nan": (ls.LengthScaleModel, ([0, nan], [30], [[1], [1]]), "log10_s"),
    "surrogate-theta_deg-nan": (ls.LengthScaleModel, ([0], [nan, 30], [[1, 1]]), "theta_deg"),
    "surrogate-q-nan": (ls.LengthScaleModel, ([0, 1], [30], [[1], [nan]]), "q"),
    **{f"phi-bound-{name}-{v}": (budget.phi_bound,
                                 tuple(v if k == i else 0.5 for k in range(5)), name)
       for i, name in enumerate(("phi111", "gamma_sq_over_mu", "var_sigma",
                                 "gamma_over_lambda", "var_eta"))
       for v in (nan, inf)},
    **{f"budget-{name}-{v}": (budget.assemble_budget,
                              tuple(v if k == i else 0.5 for k in range(4)), name)
       for i, name in enumerate(("B", "B_est", "gamma", "phi_used"))
       for v in (nan, inf)},
    "budget-volume-inf": (budget.assemble_budget, (0.1, 0.1, 2, 0.5, (inf, 1)), "volume"),
    "budget-norm-nan": (budget.assemble_budget, (0.1, 0.1, 2, 0.5, (1, nan)), "norm"),
    "rhea-eta-nan": (march_with_eta, (nan,), "eta"),
    "rhea-eta-inf": (march_with_eta, (inf,), "eta"),
    "spheroid-sample-n-nan": (ls.sample_spheroid_surface, (2, 1, nan), "n"),
    "cuboid-sample-n-inf": (ls.sample_cuboid_surface, (1, 1, 1, inf), "n"),
    "spheroid-sample-n-fraction": (ls.sample_spheroid_surface, (2, 1, 2.5), "n"),
    "cuboid-sample-n-fraction": (ls.sample_cuboid_surface, (1, 1, 1, 2.5), "n"),
    **{f"eta-profile-period-{v}": (series.eta_profile_stats,
                                   ([0, 1, 2], [1, 2, 1], True, v), "period")
       for v in (nan, inf)},
    **{f"phi-{name}-{v}": (phi_with, (name, v), name)
       for name, bad in (("kappa", (nan, inf, 0.0, -1.0)),
                         ("sigma", (nan, inf, 0.0, -1.0)),
                         ("eta", (nan, inf, -1.0)))
       for v in bad},
    "expansion-B-nan": (expansion_check, (nan, 1e-4, 2e-4), "B_samples"),
    "expansion-B-negative": (expansion_check, (-1e-3, 1e-4, 2e-4), "B_samples"),
    "expansion-B-zero": (expansion_check, (0.0, 0.0, 0.0), "B_samples"),
    "expansion-B-equal": (expansion_check, (1e-4, 1e-4, 1e-4), "B_samples"),
    "expansion-B-two-distinct": (expansion_check, (1e-4, 1e-4, 2e-4), "B_samples"),
    "piecewise-mean-h-nan": (series.piecewise_linear_mean,
                             (np.array([1.0, nan]), np.ones(2), np.ones(2)), "h"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_is_named(case):
    func, args, name = CASES[case]
    with pytest.raises(ValueError, match=f"^{name} .*finite"):
        func(*args)


def march_on_disk1(B, t_f, scale=None, steps=2000):
    m = mesh.generate_canonical("disk", 1)
    f = fem.FieldSet.from_constants(m)
    robin = rhe.RobinCoefficient(B, eta=f.eta, time_scale=scale)
    return rhe._march(m, f, robin, t_f, steps, 0)


# On this disk (an octagon, gamma = 2.17) the field falls to 5e-291 by
# t_f = 3000 at B = 0.1 and underflows by 5000.  B = 0 at t_f = 1e300
# leaves the exact mean 1 at 0: 1.5 M/dt vanishes beside A0 in K1.
@pytest.mark.parametrize("B,t_f,scale,steps", [
    (0.1, 5000.0, None, 2000), (0.1, 2500.0, lambda t: 2.0, 2000),
    (1e-3, 1e6, None, 2000), (0.1, 1e300, None, 20), (0.0, 1e300, None, 2000),
], ids=["B-0.1", "g-2", "B-1e-3", "t_f-1e300", "B-0-t_f-1e300"])
def test_march_refuses_a_field_that_underflows(B, t_f, scale, steps):
    with pytest.raises(ValueError, match=r"^t_f = .* at B = .*underflows"):
        march_on_disk1(B, t_f, scale, steps)


# B gamma t_f = 866 at B = 100, t_f = 4, but lambda_1 stays below the
# Dirichlet limit (near j_01^2 = 5.78), so the field stays above 1e-13
@pytest.mark.parametrize("B,t_f,scale", [
    (100.0, 4.0, None), (0.1, 3000.0, None), (0.1, 5000.0, lambda t: 0.5),
    (0.0, 1000.0, None), (0.0, 1000.0, lambda t: 1e300),
], ids=["B-100", "B-0.1", "g-0.5", "B-0", "B-0-g-1e300"])
def test_march_accepts_a_field_that_does_not_underflow(B, t_f, scale):
    u_avg = march_on_disk1(B, t_f, scale).u_avg
    assert u_avg[-1] >= np.finfo(float).tiny
