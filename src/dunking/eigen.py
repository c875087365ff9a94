"""Generalized eigenproblems for the conduction forms.

Two kinds of solves are needed:

* the spectrum of ``(A0 + B*A1) v = lambda M v`` used for spectral
  reconstruction of the transient average temperature, and
* the two constrained "stability" eigenvalues entering the computable
  upper bound for the lumping coefficient: the first volume-mean-zero
  eigenvalue ``mu`` of the stiffness form against the volume mass, and
  the first Steklov-type eigenvalue ``Lambda`` of the stiffness form
  against the boundary mass.

The constrained problems are solved with shift-0 inverse iteration on the
bordered (saddle-point) factorization that ``fem.factor_constrained``
builds, re-imposing the mean constraint at every step, which keeps the
iteration well defined even though the stiffness matrix alone is singular.
The caller factors once; mu, Lambda and every phi solve on the same mesh
share that factor.  A small block with Rayleigh-Ritz extraction is
iterated instead of a single vector: the first eigenvalues of the
symmetric shapes come in symmetry-degenerate pairs that the mesh splits
only at discretization level, and a block covers such clusters where
single-vector iteration stagnates.  The boundary-mass right-hand side is
rank deficient (interior rows vanish); iteration vectors are
orthonormalized in the boundary seminorm and the Rayleigh quotients are
monitored directly, so the kernel directions the boundary mass annihilates
simply die out of the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh2D, geometry_stats
from .fem import (ConstrainedOperator, FieldSet, assemble_forms,
                  factor_constrained)


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


# ---------------------------------------------------------------- helpers

def _rank_rows(Mrhs: sp.spmatrix) -> int:
    # rows with any nonzero entry; equals the matrix rank for the volume
    # and boundary mass matrices used here (block-diagonal SPD blocks)
    m = sp.csr_matrix(Mrhs)
    return int(np.count_nonzero(np.diff(m.indptr)))


# ---------------------------------------------------------------- solvers

def generalized_eigs(A: sp.spmatrix, Mrhs: sp.spmatrix, k: int,
                     constraint: ConstrainedOperator | None = None,
                     tol: float = 1e-10, res_tol: float = 1e-8,
                     max_iter: int = 500) -> list[EigenPair]:
    """k smallest eigenpairs of ``A v = lambda Mrhs v``.

    With ``constraint`` given (A bordered by a weight vector c and factored
    by ``fem.factor_constrained``), the problem is restricted to the
    subspace ``c . v = 0`` and the reported residual is measured modulo the
    constraint multiplier.  Returned vectors are orthonormal in the Mrhs
    inner product (a seminorm when Mrhs is singular) and pairs are sorted by
    nondecreasing value.
    """
    n = A.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")

    if constraint is None:
        if k >= n:
            raise ValueError(f"k={k} exceeds the available spectrum (n={n})")
        # shift below the PSD spectrum so the factored matrix is definite
        # even for the pure-Neumann case (lambda_1 = 0)
        scale = A.diagonal().sum() / max(Mrhs.diagonal().sum(), np.finfo(float).tiny)
        sigma = -1e-3 * max(scale, 1.0)
        rng = np.random.default_rng(20260815)
        v0 = rng.standard_normal(n)
        vals, vecs = spla.eigsh(A.tocsc(), k=k, M=Mrhs.tocsc(), sigma=sigma,
                                which="LM", v0=v0)
        order = np.argsort(vals)
        pairs = []
        for idx in order:
            v = vecs[:, idx]
            nrm = float(v @ (Mrhs @ v))
            v = v / np.sqrt(nrm)
            lam = float(vals[idx])
            if lam < 0 and abs(lam) < res_tol * max(1.0, abs(vals).max()):
                lam = 0.0  # Neumann zero mode, rounded
            pairs.append(EigenPair(lam, v))
        return pairs

    if constraint.A is not A:
        raise ValueError("constraint was factored from another matrix")
    c, lu = constraint.c, constraint.lu
    avail = min(n, _rank_rows(Mrhs)) - 1
    if k > avail:
        raise ValueError(
            f"k={k} exceeds the available constrained spectrum ({avail})")

    rng = np.random.default_rng(20260815)
    M = sp.csr_matrix(Mrhs)
    A = sp.csr_matrix(A)
    b = min(avail, k + 2)  # buffer columns cover degenerate clusters

    def solve_block(R):
        rhs = np.vstack([R, np.zeros((1, R.shape[1]))])
        return lu.solve(rhs)[:-1]

    def orthonormalize(W):
        # modified Gram-Schmidt in the (semi)norm induced by M; defective
        # columns are replaced by fresh solved randoms
        cols = []
        for j in range(W.shape[1]):
            w = W[:, j]
            for attempt in range(3):
                for q in cols:
                    w = w - q * float(q @ (M @ w))
                nrm = float(w @ (M @ w))
                if nrm > 1e-28 * max(1.0, float(M.diagonal().max())):
                    cols.append(w / np.sqrt(nrm))
                    break
                w = solve_block((M @ rng.standard_normal(n))[:, None])[:, 0]
        return np.column_stack(cols)

    V = solve_block(M @ rng.standard_normal((n, b)))
    vals_old = np.full(k, np.inf)
    res = np.full(k, np.nan)
    for _ in range(max_iter):
        V = orthonormalize(V)
        H = V.T @ (A @ V)
        theta, Y = np.linalg.eigh(0.5 * (H + H.T))
        X = V @ Y
        ok = theta.shape[0] >= k
        for i in range(min(k, theta.shape[0])):
            v = X[:, i]
            Av = A @ v
            Mv = M @ v
            r = Av - theta[i] * Mv
            r -= c * (c @ r) / (c @ c)  # constraint multiplier direction
            scale = np.linalg.norm(Av) + abs(theta[i]) * np.linalg.norm(Mv)
            res[i] = np.linalg.norm(r) / max(scale, np.finfo(float).tiny)
            if not (res[i] <= res_tol
                    and abs(theta[i] - vals_old[i]) <= tol * max(1.0, abs(theta[i]))):
                ok = False
        if ok:
            return [EigenPair(float(theta[i]), X[:, i]) for i in range(k)]
        vals_old[:min(k, theta.shape[0])] = theta[:min(k, theta.shape[0])]
        V = solve_block(M @ X)
    raise RuntimeError(
        f"inverse iteration failed to converge after {max_iter} iterations "
        f"(values {vals_old[:k]}, relative residuals {res})")


def constrained_stability(op: ConstrainedOperator, M: sp.spmatrix,
                          A1: sp.spmatrix, gamma: float) -> StabilityConstants:
    """mu and Lambda of the factored constrained stiffness ``op`` against the
    volume mass M and the boundary mass A1, and their ratios with gamma."""
    mu = generalized_eigs(op.A, M, 1, constraint=op)[0].value
    lam = generalized_eigs(op.A, A1, 1, constraint=op)[0].value
    return StabilityConstants(mu=mu, lambda_steklov=lam,
                              gamma_sq_over_mu=gamma ** 2 / mu,
                              gamma_over_lambda=gamma / lam)


def stability_constants(mesh: Mesh2D) -> StabilityConstants:
    """First mean-constrained volume and boundary (Steklov) eigenvalues.

    mu      = min a0(w,w) / int_Omega w^2   over volume-mean-zero w
    Lambda  = min a0(w,w) / int_bnd  w^2    over volume-mean-zero w

    and the scale-invariant ratios gamma^2/mu and gamma/Lambda built from
    the mesh's perimeter-to-area factor gamma.
    """
    forms = assemble_forms(mesh, FieldSet.from_constants(mesh))
    op = factor_constrained(forms.A0, forms.c)
    return constrained_stability(op, forms.M, forms.A1,
                                 geometry_stats(mesh).gamma)


def write_eigenpairs(path, pairs: list[EigenPair], vectors_path=None) -> None:
    """CSV export ``index,lambda``; optionally nodal vectors as columns."""
    with open(path, "w") as fh:
        fh.write("index,lambda\n")
        for i, p in enumerate(pairs):
            fh.write(f"{i},{p.value:.17g}\n")
    if vectors_path is not None:
        mat = np.column_stack([p.vector for p in pairs])
        header = ",".join(f"v{i}" for i in range(len(pairs)))
        np.savetxt(vectors_path, mat, delimiter=",", header=header, comments="")
