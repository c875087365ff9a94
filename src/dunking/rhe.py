"""Transient Robin heat equation: BDF2 time stepping and spectral form.

Integrates  sigma u_t - div(kappa grad u) = 0  with the Robin boundary
condition  kappa du/dn + B g(t) eta u = 0  and initial state u = 1, producing
the weighted average temperature

    u_avg(t) = (1/|Omega|) int_Omega sigma u(t)

as the quantity of interest.  Autonomous (g = 1) and time-dependent solves
share one stepper that factors its matrix once; a step with g(t) != 1
corrects the factored solve on the boundary nodes, where the Robin term
lives (a Woodbury update, exact up to rounding).  On small meshes, where a
SuperLU call costs far more than its arithmetic, the stepper applies the
factored operators as dense matrices built once (see DENSE_BUDGET).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .mesh import Mesh2D, geometry_stats
from .fem import (FieldSet, assemble_forms, boundary_mean, factor_spd,
                  mass_matrix, _solve_spd)
from .eigen import EigenPair

# Largest n (n + nb) (n nodes, nb boundary nodes) for which _march steps with
# dense operators.  A time-dependent step costs one (n + nb) x n matvec
# with the stacked [G; W P G], plus the n x nb correction when s != 0.
# Measured per step against the `factor_spd` solves, with one vector
# through the transposed path (2 cores, one BLAS thread; uniform eta;
# autonomous / time-dependent; medians of 8 rounds, two runs), dense is
# 3.2-3.4 / 3.6-3.7x faster on the level-3 disk, 1.5-1.9 / 1.8-2.5x on the
# level-4 disk and square (n (n + nb) = 102 017) and 1.07-1.16 /
# 1.13-1.23x at cross level 3 (171 585); dense is 2.8-3.4 / 1.8-1.9x
# slower at the triangle's level 5 (518 241).  The budget stays below the
# break-even by a margin for host drift.  The stacked operator holds
# n (n + nb) doubles, at most 1 MiB at the budget, plus ZV's n nb.
DENSE_BUDGET = 1 << 17

# Boundary columns per SuperLU solve when _march forms C = P K1^-1 P^T above
# the dense budget: the n x COLUMN_BLOCK right-hand side is its peak.
COLUMN_BLOCK = 64


@dataclass
class RobinCoefficient:
    """Biot number with its boundary variation.

    eta is the static edgewise field (perimeter mean 1).  Without a
    time_scale the problem is autonomous; with one the conductance is the
    separable B g(t) eta(x), g >= 0.
    """
    B: float
    eta: np.ndarray | None = None
    time_scale: Callable[[float], float] | None = None

    def __post_init__(self):
        if not np.isfinite(self.B) or self.B < 0:
            raise ValueError("Biot number must be finite and nonnegative")
        if self.eta is None:
            raise ValueError("a boundary variation is required")

    @property
    def autonomous(self) -> bool:
        return self.time_scale is None


@dataclass
class TransientSolution:
    times: np.ndarray
    u_avg: np.ndarray
    snapshot_times: np.ndarray | None = None
    snapshots: np.ndarray | None = None  # (len(snapshot_times), n) nodal fields
    unit_mass: sp.csr_matrix | None = None  # the march's M when sigma = 1

    def write_series(self, path) -> None:
        np.savetxt(path, np.column_stack([self.times, self.u_avg]),
                   fmt="%.17g", delimiter=",", header="t,u_avg", comments="")

    def write_snapshots(self, path_pattern: str) -> None:
        """One nodal-value file per stored time; pattern receives the time."""
        if self.snapshots is None:
            raise ValueError("no snapshots stored")
        for t, snap in zip(self.snapshot_times, self.snapshots):
            np.savetxt(path_pattern.format(t), snap,
                       header="u", comments="", fmt="%.17g")


def _snapshot_slots(steps: int, max_snapshots: int) -> np.ndarray:
    """Up to max_snapshots ascending steps that end at `steps`, nearly
    equispaced from step 0; a budget of one keeps only the last step."""
    if max_snapshots <= 0:
        return np.array([], dtype=int)
    if max_snapshots == 1:
        return np.array([steps])
    every = int(np.ceil(steps / (max_snapshots - 1)))
    slots = np.arange(0, steps + 1, every)
    if slots[-1] != steps:
        slots = np.append(slots, steps)
    return slots


def solve_rhea(mesh: Mesh2D, fields: FieldSet, robin: RobinCoefficient,
               t_f: float | None = None, steps: int = 2000,
               max_snapshots: int = 200) -> TransientSolution:
    """Autonomous solve; BDF2 after one backward-Euler startup step.

    t_f defaults to three lumped time constants 3/(B*gamma).  u_avg is
    recorded at every step and up to max_snapshots nodal fields are kept at
    (nearly) equispaced steps, the last one always; max_snapshots = 1 keeps
    only the final field.
    """
    if not robin.autonomous:
        raise ValueError("solve_rhea requires a static boundary variation")
    if t_f is None:
        if robin.B == 0:
            raise ValueError("t_f must be given when B = 0")
        t_f = 3.0 / (robin.B * geometry_stats(mesh).gamma)
    return _march(mesh, fields, robin, t_f, steps, max_snapshots)


def solve_rhe_timedep(mesh: Mesh2D, fields: FieldSet, robin: RobinCoefficient,
                      t_f: float, steps: int = 2000,
                      max_snapshots: int = 200) -> TransientSolution:
    """Separable variation B g(t) eta, g finite and nonnegative at every step
    time; with g = 1 the result equals solve_rhea's bit for bit."""
    return _march(mesh, fields, robin, t_f, steps, max_snapshots)


def _march(mesh, fields, robin, t_f, steps, max_snapshots):
    """BDF2 after one backward-Euler step for  M u' + (A0 + B g(t) A1) u = 0.

    The startup matrix M/dt + A0 + B g(t_1) A1 and K1 = 1.5 M/dt + A0 + B A1
    are SPD and factored once each by `factor_spd`.  A step with
    s = B (g(t) - 1) != 0 corrects y = K1^-1 rhs on the boundary nodes b
    carrying A1 = P^T A1_bb P (Woodbury):  u = y - K1^-1 P^T w,
    (I + s A1_bb C) w = s A1_bb y_b,
    C = P K1^-1 P^T.  The pencil (C A1_bb C, C) has C-orthonormal
    eigenvectors V with A1_bb C V = V diag(lam), so
    w = V diag(s / (1 + s lam)) W y_b  for W = V^T C A1_bb;
    1 + s lam > 0 because K1 + s A1 is SPD for every g >= 0.

    The step operators are chosen once, before the loop.  When
    n (n + nb) <= DENSE_BUDGET they are dense.  An autonomous step is
    y = G (2u - u_prev/2)  with G = K1^-1 M/dt, one n x n matvec.  A
    time-dependent march stacks W P G under G, so one (n + nb) x n matvec
    gives y and W y_b together; a step with s != 0 then subtracts
    ZV (W y_b / (1/s + lam)), ZV = K1^-1 P^T V, one n x nb matvec.  Above
    the budget a step makes one SuperLU solve, and a second for the
    correction, with W y_b formed from y.  The two agree to rounding
    (~1e-13 after thousands of steps).
    """
    if steps < 2:
        raise ValueError("need at least 2 time steps")
    if not np.isfinite(t_f) or t_f <= 0:
        raise ValueError("t_f must be finite and positive")
    eta = np.asarray(robin.eta, dtype=float)
    if not np.all(np.isfinite(eta) & (eta >= 0)):
        raise ValueError("eta must be nonnegative and finite")
    if abs(boundary_mean(mesh, eta) - 1.0) > 1e-8:
        raise ValueError("static eta must have perimeter mean 1")
    times = np.linspace(0.0, t_f, steps + 1)
    g = np.ones(steps + 1) if robin.time_scale is None else \
        np.array([float(robin.time_scale(t)) for t in times.tolist()])
    bad = np.flatnonzero(~(np.isfinite(g) & (g >= 0)))
    if bad.size:
        raise ValueError("time scale must be finite and nonnegative; "
                         f"g({times[bad[0]]:.17g}) = {g[bad[0]]}")

    n = mesh.num_vertices
    dt = t_f / steps
    forms = assemble_forms(mesh, fields.replace(eta=eta))
    M = forms.M  # symmetric: its CSR matvec gives the CSC one's bits
    c = forms.c
    area = c.sum()  # = int sigma = |Omega| for normalized fields
    A1 = forms.A1
    K = forms.A0 + robin.B * A1
    s = robin.B * (g - 1.0)
    # the backward-Euler startup step; its factor is freed before K1's is built
    u_prev = np.ones(n)
    K_be = K if s[1] == 0.0 else forms.A0 + (robin.B * g[1]) * A1
    u = _solve_spd(factor_spd(M / dt + K_be), M @ u_prev / dt)
    del K_be
    lu = factor_spd(1.5 * M / dt + K)
    bnd = np.unique(A1.nonzero()[0])
    nb = len(bnd)
    dense = n * (n + nb) <= DENSE_BUDGET
    # The loop passes the BDF2 history 2u - u_prev/2 halved, u - u_prev/4,
    # one vector op fewer, and both branches double it back: above the
    # subnormal range a power of two scales exactly, so no bit moves.
    if dense:
        G = 2.0 * lu.solve((M / dt).toarray())
    if np.any(s[2:]):
        A_bb = A1[bnd][:, bnd].toarray()
        # Z = K1^-1 P^T by column blocks, of which the sparse branch keeps
        # only the boundary rows C; the dense branch solves all at once
        width = nb if dense else COLUMN_BLOCK
        C = np.empty((nb, nb))
        for j in range(0, nb, width):
            E = np.zeros((n, min(width, nb - j)))
            E[bnd[j:j + width], np.arange(E.shape[1])] = 1.0
            Z = lu.solve(E)
            C[:, j:j + width] = Z[bnd]
        C = 0.5 * (C + C.T)
        lam, V = sla.eigh(C @ A_bb @ C, C)
        W = V.T @ C @ A_bb
        if dense:
            # W P G under G: one matvec gives y and W y_b together
            G = np.vstack([G, W @ G[bnd]])
            project = lambda z: z[n:]
            correct = (Z @ V).__matmul__
        else:
            project = lambda z: W @ z[bnd]
            r = np.zeros(n)  # P^T V w; zero off the boundary nodes

            def correct(w):
                r[bnd] = V @ w
                return _solve_spd(lu, r)
        del E, Z  # freed before the steps allocate their snapshots
    if dense:
        implicit = G.__matmul__
    else:
        implicit = lambda v: _solve_spd(lu, M @ v / (0.5 * dt))

    slots = _snapshot_slots(steps, max_snapshots)
    row = {k: i for i, k in enumerate(slots.tolist())}
    u_avg = np.empty(steps + 1)
    u_avg[0] = 1.0  # exact: the initial field is identically one
    # allocated once both factors are built and the startup factor is freed
    snaps = np.empty((len(slots), n))
    if 0 in row:
        snaps[row[0]] = 1.0
    for k, sk in enumerate(s.tolist()[1:], start=1):
        if k > 1:
            z = implicit(u - 0.25 * u_prev)
            y = z[:n]
            if sk != 0.0:  # s / (1 + s lam) = 1 / (1/s + lam)
                y -= correct(project(z) / (1.0 / sk + lam))
            u_prev, u = u, y
        u_avg[k] = c @ u
        if k in row:
            snaps[row[k]] = u
    u_avg[1:] /= area
    # lambda_1(B) <= B gamma: only the computed field shows an underflow
    if abs(u_avg[-1]) < np.finfo(float).tiny:
        raise ValueError(f"t_f = {t_f:.6g} at B = {robin.B:.6g}: the mean field at t_f, "
                         f"{u_avg[-1]:.3g}, underflows the smallest normal double")
    unit = np.all(fields.sigma == 1.0)
    return TransientSolution(times=times, u_avg=u_avg,
                             snapshot_times=times[slots], snapshots=snaps,
                             unit_mass=forms.M if unit else None)


# ------------------------------------------------------- spectral route

@dataclass
class SpectralReconstruction:
    u_avg: np.ndarray
    mass: float       # captured Parseval mass, = u_avg(0); 1 when complete


def spectral_reconstruction(eigenpairs: list[EigenPair], sigma_weights: np.ndarray,
                            t_grid) -> SpectralReconstruction:
    """u_avg(t) = sum_j m_j exp(-lambda_j t), truncated at the given pairs.

    m_j = (c . psi_j)^2/|Omega| with c the sigma-weighted volume form;
    |Omega| = sum(c).  The captured mass sum_j m_j equals 1 exactly when
    the pairs span everything the initial state excites (Parseval).
    """
    if not eigenpairs:
        raise ValueError("need at least one eigenpair")
    c = np.asarray(sigma_weights, dtype=float)
    area = c.sum()
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    lams = np.array([p.value for p in eigenpairs])
    masses = np.array([(c @ p.vector) ** 2 / area for p in eigenpairs])
    u = np.exp(-np.outer(t, lams)) @ masses
    return SpectralReconstruction(u_avg=u, mass=float(masses.sum()))


def coefficient_of_variation(solution: TransientSolution, mesh: Mesh2D) -> np.ndarray:
    """CV(t) = sqrt of the spatial variance over the spatial mean, per snapshot.

    Uses the plain (sigma-unweighted) spatial mean u_m, NaN where it is
    nonpositive, and the two-pass variance int (u - u_m)^2 / |Omega|, which
    does not cancel at small Biot numbers as int u^2 / |Omega| - u_m^2
    does.  The mass matrix is the solution's `unit_mass` when it has one.
    """
    if solution.snapshots is None or len(solution.snapshots) == 0:
        raise ValueError("solution has no stored snapshots")
    M1 = solution.unit_mass
    if M1 is None:
        M1 = mass_matrix(mesh, np.ones(mesh.num_triangles))
    area = float(mesh.triangle_areas().sum())
    mass = M1 @ np.ones(mesh.num_vertices)
    out = np.empty(len(solution.snapshots))
    for i, u in enumerate(solution.snapshots):
        mean = float(mass @ u) / area
        d = u - mean
        out[i] = np.sqrt(float(d @ (M1 @ d)) / area) / mean if mean > 0 else np.nan
    return out
