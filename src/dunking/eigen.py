"""Generalized eigenproblems for the conduction forms.

Two kinds of solves are needed:

* the spectrum of ``(A0 + B*A1) v = lambda M v`` used for spectral
  reconstruction of the transient average temperature and for the
  small-Biot expansion check, and
* the two constrained "stability" eigenvalues entering the computable
  upper bound for the lumping coefficient: the first volume-mean-zero
  eigenvalue ``mu`` of the stiffness form against the volume mass, and
  the first Steklov-type eigenvalue ``Lambda`` of the stiffness form
  against the boundary mass.

Both go through one ARPACK call, ``scipy.sparse.linalg.eigsh`` shift-inverted
at 0 through a factor the caller gives, so ARPACK factors nothing itself:
a ``fem.factor_spd`` factor of an SPD matrix, or the pinned factor of
``fem.factor_constrained``, which maps x to the mean-zero u with
``A u + m c = x`` although the stiffness alone is singular.  The caller
(``budget.shape_constants``) factors once; mu, Lambda and every phi solve on
the same mesh share it.  The Lanczos basis holds ``max(2k+1, 8)`` vectors,
capped below the rank of the right-hand-side mass (the boundary mass
annihilates the interior nodes), and ARPACK stops at ``ARPACK_TOL``, not at
machine precision: one pair converges within the first Lanczos pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import ConstrainedOperator, _solve_spd


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray  # normalized against the right-hand-side mass


@dataclass
class StabilityConstants:
    mu: float
    lambda_steklov: float
    gamma_sq_over_mu: float
    gamma_over_lambda: float


# ---------------------------------------------------------------- solvers

RES_TOL = 1e-8  # relative residual bound
# ARPACK's stopping tolerance: four orders below RES_TOL, so every pair
# passes _check_residual with room to spare
ARPACK_TOL = 1e-12


def generalized_eigs(A: sp.spmatrix, Mrhs: sp.spmatrix, k: int,
                     factor: ConstrainedOperator | spla.SuperLU
                     ) -> list[EigenPair]:
    """k smallest eigenpairs of ``A v = lambda Mrhs v``, shift-inverted at 0
    through ``factor``: ``fem.factor_spd(A)`` of an SPD A, or A with weights
    c factored by ``fem.factor_constrained``, which restricts the problem to
    ``c . v = 0``.  Each pair's residual, modulo the constraint multiplier
    if any, must stay below ``RES_TOL``.  Vectors are normalized in the Mrhs
    inner product (a seminorm when Mrhs is singular); pairs are sorted by
    nondecreasing value.
    """
    n = A.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if isinstance(factor, ConstrainedOperator):
        if factor.A is not A:
            raise ValueError("constraint was factored from another matrix")
        c, solve = factor.c, lambda x: factor.solve(x)[0]
    else:
        c, solve = None, lambda x: _solve_spd(factor, x)
    # rows with any nonzero entry: the rank of the volume and boundary
    # masses (block-diagonal SPD blocks)
    rank = int(np.count_nonzero(np.diff(sp.csr_matrix(Mrhs).indptr)))
    avail = min(n, rank) - 1
    if k >= avail:
        raise ValueError(f"k={k} exceeds the available spectrum ({avail})")
    rng = np.random.default_rng(20260815)
    # ARPACK needs k < ncv < rank: a basis that spans the whole range of
    # the shift-inverted operator breaks down
    vals, vecs = spla.eigsh(
        A, k=k, M=Mrhs, which="LM", sigma=0.0,
        v0=solve(Mrhs @ rng.standard_normal(n)),
        OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=float),
        ncv=min(avail, max(2 * k + 1, 8)), tol=ARPACK_TOL)
    pairs = []
    for idx in np.argsort(vals):
        v = vecs[:, idx]
        v = v / np.sqrt(float(v @ (Mrhs @ v)))
        lam = float(vals[idx])
        _check_residual(A, Mrhs, c, lam, v)
        pairs.append(EigenPair(lam, v))
    return pairs


def _check_residual(A, Mrhs, c, lam, v) -> None:
    Av = A @ v
    Mv = Mrhs @ v
    r = Av - lam * Mv
    if c is not None:
        r -= c * (c @ r) / (c @ c)  # constraint multiplier direction
    scale = np.linalg.norm(Av) + abs(lam) * np.linalg.norm(Mv)
    res = np.linalg.norm(r) / max(scale, np.finfo(float).tiny)
    if not res <= RES_TOL:
        raise RuntimeError(
            f"eigenpair lambda={lam:.6g} has relative residual {res:.3e} "
            f"above {RES_TOL:g}")


def constrained_stability(op: ConstrainedOperator, M: sp.spmatrix,
                          A1: sp.spmatrix, gamma: float) -> StabilityConstants:
    """mu and Lambda of the factored constrained stiffness ``op`` against the
    volume mass M and the boundary mass A1, and the scale-invariant ratios
    gamma^2/mu and gamma/Lambda."""
    mu = generalized_eigs(op.A, M, 1, op)[0].value
    lam = generalized_eigs(op.A, A1, 1, op)[0].value
    return StabilityConstants(mu=mu, lambda_steklov=lam,
                              gamma_sq_over_mu=gamma ** 2 / mu,
                              gamma_over_lambda=gamma / lam)

