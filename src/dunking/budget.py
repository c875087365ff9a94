"""Lumping-error coefficient phi, its computable upper bound, and the
a-priori error budget for replacing the Robin-boundary conduction problem
with the single-exponential lumped model.

The budget decomposes the total approximation error into three parts:

* a temporal-averaging term, sqrt((2B/|Omega|) * ||eta - eta_bar||_L1L1),
  present only when time-resolved boundary data is available;
* a lumping term phi*B/(gamma*e), first order in B, where phi is the
  kappa-weighted gradient energy of the first-eigenvalue sensitivity
  field; and
* a Biot-estimation term |B - B_est|/(B*e), first order in the relative
  error of the Biot estimate.

phi itself requires solving one linear mean-constrained Poisson-type
problem; when the detailed coefficient fields are unknown, the computable
bound (sqrt(phi(1,1,1)) + sqrt(delta_sigma) + sqrt(delta_eta))^2 needs
only the two field variances and the geometric stability eigenvalues.

On a unit-coefficient body, phi(1,1,1), mu, Lambda and every phi(eta) come
from one operator, the mean-constrained stiffness; ``shape_constants``
factors it once per mesh, and ``reproduce_tables`` recomputes the bundled
reference tables from it.

The finite-element layers (mesh, fem, eigen) and the scipy they load are
imported inside the functions that solve on a mesh, so the scalar budget
(``assemble_budget``, ``phi_bound``, ``budget_report_rows``,
``short_time_asymptotics``) costs no scipy import.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from ._checks import _require

if TYPE_CHECKING:
    from .eigen import StabilityConstants
    from .fem import ConstrainedOperator, FieldSet
    from .mesh import GeometryStats, Mesh2D

SHAPES = ("disk", "square", "triangle", "cross")
# table row names -> canonical mesh generator names
_MESH_SHAPE = {"triangle": "equilateral_triangle"}


# ------------------------------------------------------------------- phi

@dataclass
class PhiResult:
    phi: float
    sensitivity_field: np.ndarray
    inputs_digest: str


def _digest(mesh: Mesh2D, fields: FieldSet) -> str:
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.triangles, fields.kappa, fields.sigma,
                fields.eta):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def solve_phi(mesh: Mesh2D, fields: FieldSet) -> PhiResult:
    """Sensitivity coefficient phi = a0(psi, psi; kappa).

    psi solves  a0(psi, v; kappa) = |Omega|^(-1/2) * L(v)  over the
    sigma-mean-zero space, with the linear form

        L(v) = gamma * int_Omega sigma v - int_bnd eta_bar v.

    Both terms of L are kept so that compatibility L(1) = gamma*|Omega| -
    |bnd| * mean(eta_bar) = 0 holds exactly for normalized fields; a
    compatibility failure therefore signals an unnormalized eta_bar.
    """
    from .fem import assemble_forms, factor_constrained
    from .mesh import geometry_stats
    forms = assemble_forms(mesh, fields)
    op = factor_constrained(forms.A0, forms.c)
    phi, psi = _phi(mesh, op, geometry_stats(mesh), fields.eta)
    return PhiResult(phi=phi, sensitivity_field=psi,
                     inputs_digest=_digest(mesh, fields))


def _phi(mesh: Mesh2D, op: ConstrainedOperator, gs: GeometryStats,
         eta: np.ndarray) -> tuple[float, np.ndarray]:
    """(phi, psi) for one eta on the factored constrained stiffness."""
    from .fem import boundary_load, solve_constrained
    rhs = gs.gamma * op.c - boundary_load(mesh, eta)
    rhs /= np.sqrt(gs.area)
    psi = solve_constrained(op, rhs).u
    return float(psi @ (op.A @ psi)), psi


# ----------------------------------------------------------- upper bound

@dataclass
class PhiUpperBound:
    phi111: float
    delta_sigma: float
    delta_eta: float
    var_sigma: float
    var_eta: float
    bound: float


def phi_bound(phi111: float, gamma_sq_over_mu: float, var_sigma: float,
              gamma_over_lambda: float, var_eta: float) -> float:
    """(sqrt(phi111) + sqrt(gamma^2/mu * var_sigma)
    + sqrt(gamma/Lambda * var_eta))^2, the computable bound on phi."""
    _require("nonnegative", phi111=phi111, gamma_sq_over_mu=gamma_sq_over_mu,
             var_sigma=var_sigma, gamma_over_lambda=gamma_over_lambda,
             var_eta=var_eta)
    return (math.sqrt(phi111) + math.sqrt(gamma_sq_over_mu * var_sigma)
            + math.sqrt(gamma_over_lambda * var_eta)) ** 2


def phi_upper_bound(mesh: Mesh2D, fields: FieldSet,
                    stability: StabilityConstants, phi111: float,
                    var_sigma: float | None = None,
                    var_eta: float | None = None) -> PhiUpperBound:
    """(sqrt(phi111) + sqrt(delta_sigma) + sqrt(delta_eta))^2.

    Variances are measured from the fields by area/perimeter-weighted
    quadrature unless supplied externally (e.g. from the composite-material
    formula or an assumed worst case).
    """
    from .fem import boundary_variance, volume_variance
    if var_sigma is None:
        var_sigma = volume_variance(mesh, fields.sigma)
    if var_eta is None:
        var_eta = boundary_variance(mesh, fields.eta)
    bound = phi_bound(phi111, stability.gamma_sq_over_mu, var_sigma,
                      stability.gamma_over_lambda, var_eta)
    return PhiUpperBound(phi111=phi111,
                         delta_sigma=stability.gamma_sq_over_mu * var_sigma,
                         delta_eta=stability.gamma_over_lambda * var_eta,
                         var_sigma=var_sigma, var_eta=var_eta, bound=bound)


def composite_sigma_variance(fractions, rho_c) -> float:
    """Variance of sigma for an n-phase composite of known volume fractions.

    sum_i v_i * ((rho c)_i / sum_j v_j (rho c)_j - 1)^2
    """
    v = np.asarray(fractions, dtype=float)
    rc = np.asarray(rho_c, dtype=float)
    if v.shape != rc.shape:
        raise ValueError("fractions and rho_c must have matching lengths")
    _require("positive", fractions=v, rho_c=rc)
    if abs(v.sum() - 1.0) > 1e-12:
        raise ValueError(f"fractions must sum to 1, got {v.sum()!r}")
    avg = float(v @ rc)
    return float(v @ (rc / avg - 1.0) ** 2)


# ------------------------------------------------- per-shape constants

@dataclass
class ShapeConstants:
    """The phi bound's ingredients on one unit-kappa, unit-sigma body."""
    gamma: float
    phi111: float
    stability: StabilityConstants
    phi: list[float]             # one per eta, in the order given
    bounds: list[PhiUpperBound]  # one per eta, in the order given
    phi_ub_est: float            # the bound at unit eta variance


def shape_constants(mesh: Mesh2D, etas) -> ShapeConstants:
    """gamma, phi111, mu, Lambda and each eta's phi and phi_ub.

    kappa and sigma are 1; each eta must be normalized (perimeter mean 1).
    One assembly, one geometry pass and one factorization of the
    mean-constrained stiffness serve every solve and both eigenvalues.
    """
    from .eigen import constrained_stability
    from .fem import FieldSet, assemble_forms, factor_constrained
    from .mesh import geometry_stats
    uniform = FieldSet.from_constants(mesh)
    forms = assemble_forms(mesh, uniform)
    gs = geometry_stats(mesh)
    op = factor_constrained(forms.A0, forms.c)
    phi111 = _phi(mesh, op, gs, uniform.eta)[0]
    stab = constrained_stability(op, forms.M, forms.A1, gs.gamma)
    phis, bounds = [], []
    for eta in etas:
        phis.append(_phi(mesh, op, gs, eta)[0])
        bounds.append(phi_upper_bound(mesh, uniform.replace(eta=eta), stab,
                                      phi111))
    ub_est = phi_bound(phi111, stab.gamma_sq_over_mu, 0.0,
                       stab.gamma_over_lambda, 1.0)
    return ShapeConstants(gamma=gs.gamma, phi111=phi111, stability=stab,
                          phi=phis, bounds=bounds, phi_ub_est=ub_est)


# -------------------------------------------------------- reference tables

def canonical_mesh(shape: str, levels: int) -> Mesh2D:
    """Canonical mesh of a table shape name (or a mesh generator name)."""
    from .mesh import generate_canonical
    return generate_canonical(_MESH_SHAPE.get(shape, shape), levels)


def load_reference_constants() -> dict:
    """Bundled reference values keyed (table, shape, variation, quantity)."""
    out = {}
    text = (resources.files("dunking.data") / "reference_constants.csv")
    with text.open() as fh:
        next(fh)
        for line in fh:
            table, shape, variation, quantity, value = line.strip().split(",")
            out[(table, shape, variation, quantity)] = float(value)
    return out


def reproduce_tables(levels: int = 4) -> list[tuple]:
    """Recompute every bundled reference cell at the given refinement.

    Returns rows (table, shape, variation, quantity, reference, computed,
    rel_error); for reference values below 1e-12 the absolute error is
    reported in the rel_error column.
    """
    refs = load_reference_constants()
    rows = []
    for shape in SHAPES:
        rows += _shape_table_rows(refs, shape, levels)
    return rows


def _shape_table_rows(refs: dict, shape: str, levels: int) -> list[tuple]:
    # one shape per call, so its mesh and factor are freed before the next
    from .fem import ETA_VARIATIONS, eta_variation
    msh = canonical_mesh(shape, levels)
    sc = shape_constants(msh, [eta_variation(msh, v) for v in ETA_VARIATIONS])
    cells = [("geometry_constants", "", "phi111", sc.phi111),
             ("geometry_constants", "", "gamma_sq_over_mu",
              sc.stability.gamma_sq_over_mu),
             ("geometry_constants", "", "gamma_over_lambda",
              sc.stability.gamma_over_lambda)]
    for variation, phi, ub in zip(ETA_VARIATIONS, sc.phi, sc.bounds):
        cells += [("eta_table", variation, "phi", phi),
                  ("eta_table", variation, "phi_ub", ub.bound),
                  ("eta_table", variation, "phi_ub_est", sc.phi_ub_est),
                  ("eta_table", variation, "delta_eta", ub.delta_eta),
                  ("eta_table", variation, "variance", ub.var_eta)]
    rows = []
    for table, variation, quantity, computed in cells:
        ref = refs[(table, shape, variation, quantity)]
        err = abs(computed - ref) / abs(ref) if abs(ref) > 1e-12 \
            else abs(computed - ref)
        rows.append((table, shape, variation, quantity, ref, computed, err))
    return rows


# ------------------------------------------------------------ the budget

@dataclass
class ErrorBudget:
    lumping: float
    biot: float
    temporal: float | None
    total: float
    b_used: float
    gamma: float
    phi_used: float
    phi_provenance: str      # "phi" | "phi_ub" | "supplied"
    temporal_present: bool
    asymptotic_regime: bool  # True when B/gamma > 0.1: O(B^2) remainders
    #                          of the first-order terms are not negligible


def assemble_budget(B: float, B_est: float, gamma: float, phi_used: float,
                    temporal_inputs: tuple[float, float] | None = None,
                    phi_provenance: str = "phi") -> ErrorBudget:
    """Combine the three first-order error terms.

    temporal_inputs, when given, is (volume, norm) = (|Omega|,
    ||eta - eta_bar||_{L1(L1)}) and activates the temporal term
    sqrt((2B/|Omega|)*norm).
    """
    _require("nonnegative", B=B, B_est=B_est)
    _require("positive", gamma=gamma, phi_used=phi_used)
    if B == B_est:
        biot = 0.0
    elif B_est == 0.0 or B == 0.0:
        raise ValueError("relative Biot error undefined for a zero value")
    else:
        biot = abs(B - B_est) / (B * np.e)
    lumping = phi_used * B / (gamma * np.e)
    temporal = None
    if temporal_inputs is not None:
        volume, norm = temporal_inputs
        _require("positive", volume=volume)
        _require("nonnegative", norm=norm)
        temporal = float(np.sqrt(2.0 * B / volume * norm))
    total = lumping + biot + (temporal or 0.0)
    return ErrorBudget(lumping=float(lumping), biot=float(biot),
                       temporal=temporal, total=float(total), b_used=B,
                       gamma=gamma, phi_used=phi_used,
                       phi_provenance=phi_provenance,
                       temporal_present=temporal is not None,
                       asymptotic_regime=bool(B / gamma > 0.1))


def budget_report_rows(budget: ErrorBudget) -> list[tuple[str, str]]:
    """Budget as (field, value) text rows for reports and CSV export."""
    rows = [("lumping", f"{budget.lumping:.12g}"),
            ("biot", f"{budget.biot:.12g}")]
    if budget.temporal_present:
        rows.append(("temporal", f"{budget.temporal:.12g}"))
    rows += [("total", f"{budget.total:.12g}"),
             ("B", f"{budget.b_used:.12g}"),
             ("gamma", f"{budget.gamma:.12g}"),
             ("phi_used", f"{budget.phi_used:.12g}"),
             ("phi_provenance", budget.phi_provenance),
             ("asymptotic_regime", str(budget.asymptotic_regime).lower())]
    return rows


# ---------------------------------------------------- consistency checks

def lambda1_expansion_check(mesh: Mesh2D, fields: FieldSet,
                            B_samples) -> tuple[float, float]:
    """Fit lambda_1(B) = a*B + b*B^2 and return (a, -b).

    The fitted linear coefficient should match gamma and the negated
    quadratic one should match phi; the fit has no intercept because
    lambda_1(0) = 0 exactly.  A sample B > 0 makes A0 + B*A1 SPD.
    """
    from .eigen import generalized_eigs
    from .fem import assemble_forms, factor_spd
    from .mesh import geometry_stats
    Bs = np.asarray(B_samples, dtype=float)
    # at most 0.1 gamma: the small-Biot regime
    _require("positive", most=0.1 * geometry_stats(mesh).gamma, B_samples=Bs)
    if Bs.ndim != 1 or np.unique(Bs).size < 3:
        raise ValueError("B_samples must be a 1-D array of at least 3 "
                         f"distinct finite values, got {Bs}")
    forms = assemble_forms(mesh, fields)
    lams = []
    for B in Bs:
        A = forms.A0 + B * forms.A1
        lams.append(generalized_eigs(A, forms.M, 1, factor_spd(A))[0].value)
    design = np.column_stack([Bs, Bs ** 2])
    coef, *_ = np.linalg.lstsq(design, np.asarray(lams), rcond=None)
    return float(coef[0]), float(-coef[1])


# ------------------------------------------------------------ short time

def short_time_asymptotics(r1: float, r2: float, t) -> tuple[float, np.ndarray]:
    """Initial-contact behavior of the dunked body.

    At leading order the interface temperature is constant,
    u = 1/(1 + sqrt(r1*r2)), and the Nusselt number follows the
    one-dimensional similarity decay Nu = sqrt(r1/r2)/sqrt(pi*t).
    """
    t = np.asarray(t, dtype=float)
    _require("positive", r1=r1, r2=r2, t=t)
    u_interface = 1.0 / (1.0 + np.sqrt(r1 * r2))
    nu = np.sqrt(r1 / r2) / np.sqrt(np.pi * t)
    if nu.ndim == 0:
        nu = float(nu)
    return u_interface, nu
