"""Transient Robin heat equation: BDF2 time stepping and spectral form.

Integrates  sigma u_t - div(kappa grad u) = 0  with the Robin boundary
condition  kappa du/dn + B g(t) eta u = 0  and initial state u = 1, producing
the weighted average temperature

    u_avg(t) = (1/|Omega|) int_Omega sigma u(t)

as the quantity of interest.  Every march factors the BDF2 matrix
K1 = 1.5 M/dt + A0 + B A1 once.  An autonomous march (B (g - 1) = 0 at
every step) is a fixed function of K1^-1 M applied to u = 1: a
shift-invert Lanczos basis of a few tens of K1 solves evaluates it at every
step, to rounding.  A time-dependent march steps: a step with g(t) != 1
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

from ._checks import _require
from .mesh import Mesh2D, geometry_stats
from .fem import (FieldSet, assemble_forms, boundary_mean, factor_spd,
                  mass_matrix, _solve_spd)
from .eigen import EigenPair

# Largest n (n + nb) (n nodes, nb boundary nodes) for which a stepped march
# (every time-dependent one; see `_stepped_march`) uses dense operators.  A
# step costs one (n + nb) x n matvec with the stacked [G; W P G], plus the
# n x nb correction when s != 0.  Measured per step against the
# `factor_spd` solves, with one vector through the transposed path (2 cores,
# one BLAS thread; uniform eta; steps with s = 0 / s != 0; medians of 8
# rounds, two runs), dense is
# 3.2-3.4 / 3.6-3.7x faster on the level-3 disk, 1.5-1.9 / 1.8-2.5x on the
# level-4 disk and square (n (n + nb) = 102 017) and 1.07-1.16 /
# 1.13-1.23x at cross level 3 (171 585); dense is 2.8-3.4 / 1.8-1.9x
# slower at the triangle's level 5 (518 241).  The budget stays below the
# break-even by a margin for host drift.  The stacked operator holds
# n (n + nb) doubles, at most 1 MiB at the budget, plus ZV's n nb.
DENSE_BUDGET = 1 << 17

# The Lanczos evaluation of an autonomous march (`_lanczos_march`) is
# redone every KRYLOV_CHECK vectors from 2 KRYLOV_CHECK and stops when two
# evaluations agree to KRYLOV_TOL.  The basis holds at most KRYLOV_CAP
# vectors of n doubles; a march that needs more is stepped instead.  At
# 2000 steps and 200 snapshots the level-5 meshes took 12-172 vectors
# (disk, square, cross and triangle; constant, step and linear eta; B from
# 1e-6 gamma to 1000); the level-5 cross with step eta at B = 1 took 404
# at 20 000 steps.
KRYLOV_CHECK = 4
KRYLOV_TOL = 1e-12
KRYLOV_CAP = 256

# Steps per block of the scalar BDF2 recurrence in `_bdf2_scalar`, and
# nodes per block when `_lanczos_march` forms the moves of the snapshot
# fields (a slots x NODE_BLOCK temporary).
RECURRENCE_BLOCK = 64
NODE_BLOCK = 512

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
        _require("nonnegative", B=self.B)
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
    krylov_dim: int | None = None  # Lanczos vectors; None for a stepped march

    def write_series(self, path) -> None:
        np.savetxt(path, np.column_stack([self.times, self.u_avg]),
                   fmt="%.17g", delimiter=",", header="t,u_avg", comments="")

    def write_snapshots(self, path_pattern: str) -> None:
        """One nodal-value file per stored time; pattern receives the time.
        Two times that the pattern maps to one path are refused before any
        file is written."""
        if self.snapshots is None:
            raise ValueError("no snapshots stored")
        paths = {}
        for t in self.snapshot_times.tolist():
            path = path_pattern.format(t)
            if path in paths:
                raise ValueError(f"the snapshots at t = {paths[path]!r} and t = {t!r} "
                                 f"both map to {path}")
            paths[path] = t
        for path, snap in zip(paths, self.snapshots):
            np.savetxt(path, snap, header="u", comments="", fmt="%.17g")


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

    K1 = 1.5 M/dt + A0 + B A1 is SPD and factored once by `factor_spd`.
    A march with s = B (g(t) - 1) = 0 on steps 1..steps is autonomous
    whatever its time scale, and `_lanczos_march` evaluates it from a few
    tens of K1 solves.  Any other march steps (`_stepped_march`), and so
    does an autonomous one that the Lanczos basis cannot evaluate.
    """
    if steps < 2:
        raise ValueError("need at least 2 time steps")
    _require("positive", t_f=t_f)
    eta = np.asarray(robin.eta, dtype=float)
    # assemble_forms refuses a bad eta before its mean is read
    forms = assemble_forms(mesh, fields.replace(eta=eta))
    if abs(boundary_mean(mesh, eta) - 1.0) > 1e-8:
        raise ValueError("static eta must have perimeter mean 1")
    times = np.linspace(0.0, t_f, steps + 1)
    g = np.ones(steps + 1) if robin.time_scale is None else \
        np.array([float(robin.time_scale(t)) for t in times.tolist()])
    _require("nonnegative", at=("t", times), time_scale=g)

    dt = t_f / steps
    slots = _snapshot_slots(steps, max_snapshots)
    krylov = None
    if not np.any(robin.B * (g[1:] - 1.0)):  # s = B (g - 1) = 0 at every step
        K = forms.A0 + robin.B * forms.A1
        # no reference kept here: the march frees the factor before it forms
        # the snapshots
        krylov = _lanczos_march(forms, K, factor_spd(1.5 * forms.M / dt + K),
                                dt, steps, slots)
    if krylov is None:
        u_avg, snaps = _stepped_march(forms, robin.B, g, dt, slots)
        krylov_dim = None
    else:
        u_avg, snaps, krylov_dim = krylov
    # lambda_1(B) <= B gamma: only the computed field shows an underflow
    if abs(u_avg[-1]) < np.finfo(float).tiny:
        raise ValueError(f"t_f = {t_f:.6g} at B = {robin.B:.6g}: the mean field at t_f, "
                         f"{u_avg[-1]:.3g}, underflows the smallest normal double")
    unit = np.all(fields.sigma == 1.0)
    return TransientSolution(times=times, u_avg=u_avg,
                             snapshot_times=times[slots], snapshots=snaps,
                             unit_mass=forms.M if unit else None,
                             krylov_dim=krylov_dim)


def _lanczos_march(forms, K, lu, dt, steps, slots):
    """The autonomous BDF2 march in a shift-invert Lanczos basis.

    With a constant Robin coefficient every iterate is u_k = p_k(R) 1 for
    R = K1^-1 K = I - 1.5/dt K1^-1 M, self-adjoint in the M inner product
    with its spectrum mu = lam dt / (1.5 + lam dt) in [0, 1), and the scalar
    march p_k of `_bdf2_scalar` (shift-and-invert Lanczos: van den Eshof &
    Hochbruck, SIAM J. Sci. Comput. 27(4), 2006).  Lanczos on R from
    u_0 = 1 in the M inner product, one K1 solve per vector and full
    reorthogonalization twice, gives R V = V T + beta v e^T with
    V^T M V = I, T = Q diag(mu) Q^T.  Then u_k = |1|_M V Q diag(p_k(mu))
    Q^T e_1, and u_avg and the snapshot fields follow from the Ritz pairs.
    A slow mode has a small mu, found to its own precision; Lanczos on
    S = K1^-1 M, whose slow modes crowd at its top eigenvalue dt/1.5 and
    are found to eps dt, missed a march of 2000 steps by 5.5e-12 (level-3
    cross, step eta, B = 2.4e-6, t_f = 1; R: 5.0e-13, the stepping 2.2e-13,
    against BDF2 marched in the dense eigenbasis).

    Every KRYLOV_CHECK vectors from 2 KRYLOV_CHECK the march is evaluated
    anew, u_avg at every step and the fields at the slots, and it stops when
    they all moved by at most KRYLOV_TOL since the last evaluation.  The
    first-order estimate beta |e_m^T p_k(T) e_1| |1|_M is no stopping
    rule: on the level-4 disk at B = 20 (2000 steps to t_f = 3/(B gamma))
    it read 2.6e-10 with 24 vectors while the snapshots were off by 3.2e-8,
    and 100-1000x low throughout with a step eta.  It also stops when the
    basis spans all n nodes, or breaks down: a coupling
    beta <= KRYLOV_TOL / steps moves no step by more than ~KRYLOV_TOL, for
    dp_k/dmu is at most ~1.5 k (B = 0: the constants are an eigenvector of
    R; a threshold of 1e-13 dropped the whole 4e-11 nonuniformity of the
    level-3 disk with step eta at B = 3e-11, t_f = 1).

    Returns (u_avg, snapshots, vectors used), or None when the basis cannot
    evaluate the march: no stop within KRYLOV_CAP vectors, or a Ritz value
    outside [0, 1], which a K1 too near singular gives (B = 0 at
    t_f >= 1e3 on the level-4 disk).
    """
    M, c = forms.M, forms.c
    n = len(c)
    norm = np.sqrt(c.sum())  # |1|_M: c = M 1
    cap = min(KRYLOV_CAP, n)
    # The basis by rows, as many as fit below 4 MiB, then doubled as needed:
    # numpy backs an array of 4 MiB or more with huge pages, so a full-cap
    # one is resident in 2 MiB steps (+2.4 MB for the 28 rows the level-6
    # disk uses, against their 0.95 MB).
    V = np.empty((min(cap, max(2 * KRYLOV_CHECK, (1 << 19) // n - 1)), n))
    alpha, beta = np.empty(cap), np.empty(cap)
    V[0] = 1.0 / norm
    last = None
    for j in range(cap):
        m = j + 1
        w = _solve_spd(lu, K @ V[j])
        Mw = M @ w
        alpha[j] = 0.0
        for _ in range(2):  # full reorthogonalization, twice
            h = V[:m] @ Mw
            w -= h @ V[:m]
            Mw = M @ w
            alpha[j] += h[j]
        beta[j] = np.sqrt(max(w @ Mw, 0.0))
        done = beta[j] <= KRYLOV_TOL / steps or m == n
        if done or (m >= 2 * KRYLOV_CHECK and m % KRYLOV_CHECK == 0):
            mu, Q = sla.eigh_tridiagonal(alpha[:m], beta[:m - 1])
            if not np.all(np.abs(mu - 0.5) <= 0.5 + KRYLOV_TOL / steps):
                return None  # K1 too near singular for R's spectrum [0, 1)
            e1 = norm * Q[0]  # Q^T (|1|_M e_1)
            # c^T V = |1|_M e_1^T (c = M 1, V^T M V = I), so u_avg's
            # weights are Q[0]^2: Gauss quadrature
            u_avg, rows = _bdf2_scalar(mu, Q[0] ** 2, steps, slots)
            Z = (rows * e1) @ Q.T  # the slot fields in the basis V
            if last is not None and not done:
                dZ = Z.copy()
                dZ[:, :last[1].shape[1]] -= last[1]
                # |dZ_i| / |1|_M, the rms of a field's move, bounds its
                # max-norm move from below: the moves are formed only then,
                # NODE_BLOCK nodes at a time
                done = (np.abs(u_avg - last[0]).max() <= KRYLOV_TOL
                        and np.linalg.norm(dZ, axis=1).max(initial=0.0)
                        <= KRYLOV_TOL * norm
                        and all(np.abs(dZ @ V[:m, i:i + NODE_BLOCK]).max(
                            initial=0.0) <= KRYLOV_TOL
                            for i in range(0, n, NODE_BLOCK)))
                del dZ
            if done:
                break
            last = (u_avg, Z)
        if m < cap:
            if m == len(V):
                V = np.concatenate([V, np.empty((min(m, cap - m), n))])
            V[m] = w / beta[j]
    else:
        return None
    del lu  # freed before the snapshots are allocated
    u_avg[0] = 1.0  # exact: the initial field is identically one
    # row by row, so that a field's bits do not depend on the other slots
    snaps = np.empty((len(slots), n))
    for i, row in enumerate(rows):
        snaps[i] = ((row * e1) @ Q.T) @ V[:m]
    snaps[slots == 0] = 1.0
    return u_avg, snaps, m


def _bdf2_scalar(mu, weights, steps, slots):
    """BDF2 after one backward-Euler step for the scalar ODE p' = -lam p,
    one per Ritz value mu = lam dt / (1.5 + lam dt):  p_0 = 1,
    p_1 = 1/(1 + lam dt), (1.5 + lam dt) p_{k+1} = 2 p_k - p_{k-1}/2.

    In the increments d_k = p_k - p_{k-1} the march reads
        d_1 = -1.5 mu / (1 + mu/2),
        d_{k+1} = (1 - mu)/3 d_k - mu p_k,   p_{k+1} = p_k + d_{k+1},
    so a slow mode (small mu, small d) rounds relative to its own decay.
    Against a long-double march of 2000 steps these are exact to 6e-16 for
    mu from 1e-9 to 0.3; p_{k+1} = a (2 p_k - p_{k-1}/2), a = (1 - mu)/1.5,
    whose rounded a shifts lam dt at every step, was off by up to 1.6e-13
    (at mu = 1e-9).  Returns sum_j weights_j p_k(mu_j) for
    k = 0..steps and the rows p_k(mu) at the slot steps.  The march goes by
    blocks of RECURRENCE_BLOCK steps: (P, D) is the response of
    (p_{k+i} - p_k, d_{k+i}) to (p_k, d_k) = (1, 0) and (0, 1), so a
    block's sums are two (block x m) matvecs and no steps x m array is
    formed.
    """
    m = len(mu)
    c = (1.0 - mu) / 3.0
    width = min(RECURRENCE_BLOCK, steps - 1)
    P, D = np.empty((2, width, m)), np.empty((2, width, m))
    D[:, 0] = -mu, c
    P[:, 0] = D[:, 0]
    for i in range(1, width):
        D[:, i] = c * D[:, i - 1] - mu * P[:, i - 1]
        D[0, i] -= mu
        P[:, i] = P[:, i - 1] + D[:, i]
    d = -1.5 * mu / (1.0 + 0.5 * mu)
    p = 1.0 + d
    avg = np.empty(steps + 1)
    avg[:2] = weights.sum(), weights @ p
    rows = np.empty((len(slots), m))
    rows[slots == 0] = 1.0
    rows[slots == 1] = p
    lo = np.searchsorted(slots, 2)
    for k in range(1, steps, width):  # steps k + 1 .. k + width
        end = min(k + width, steps)
        wp, wd = weights * p, weights * d
        avg[k + 1:end + 1] = (wp.sum() + P[0, :end - k] @ wp
                              + P[1, :end - k] @ wd)
        hi = np.searchsorted(slots, end + 1)
        at = slots[lo:hi] - k - 1
        rows[lo:hi] = p + P[0, at] * p + P[1, at] * d
        lo = hi
        p, d = p + P[0, -1] * p + P[1, -1] * d, D[0, -1] * p + D[1, -1] * d
    return avg, rows


def _stepped_march(forms, B, g, dt, slots):
    """BDF2 after one backward-Euler step, one step at a time, for a march
    with s = B (g(t) - 1) != 0 at some step.

    The startup matrix M/dt + A0 + B g(t_1) A1 and K1 = 1.5 M/dt + A0 + B A1
    are SPD and factored once each by `factor_spd`.  A step with s != 0
    corrects y = K1^-1 rhs on the boundary nodes b carrying
    A1 = P^T A1_bb P (Woodbury):  u = y - K1^-1 P^T w,
    (I + s A1_bb C) w = s A1_bb y_b,
    C = P K1^-1 P^T.  The pencil (C A1_bb C, C) has C-orthonormal
    eigenvectors V with A1_bb C V = V diag(lam), so
    w = V diag(s / (1 + s lam)) W y_b  for W = V^T C A1_bb;
    1 + s lam > 0 because K1 + s A1 is SPD for every g >= 0.

    The step operators are chosen once, before the loop.  When
    n (n + nb) <= DENSE_BUDGET they are dense.  A step is one matvec with
    G = K1^-1 M/dt, with W P G stacked under it, so one (n + nb) x n matvec
    gives y and W y_b together; a step with s != 0 then subtracts
    ZV (W y_b / (1/s + lam)), ZV = K1^-1 P^T V, one n x nb matvec.  Above
    the budget a step makes one SuperLU solve, and a second for the
    correction, with W y_b formed from y.  The two agree to rounding
    (~1e-13 after thousands of steps).
    """
    steps = len(g) - 1
    M = forms.M  # symmetric: its CSR matvec gives the CSC one's bits
    c = forms.c
    n = len(c)
    area = c.sum()  # = int sigma = |Omega| for normalized fields
    A1 = forms.A1
    K = forms.A0 + B * A1
    s = B * (g - 1.0)
    # the backward-Euler startup step; its factor is freed before K1's is built
    u_prev = np.ones(n)
    K_be = K if s[1] == 0.0 else forms.A0 + (B * g[1]) * A1
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
    return u_avg, snaps


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
