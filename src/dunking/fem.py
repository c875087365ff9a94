"""P1 finite element core: coefficient fields, assembly of the volume/boundary
bilinear forms, and the factored mean-constrained operator, a pinned SPD
factor of the stiffness that serves every mean-zero solve.

Conventions for a mesh with nv vertices, nt triangles, nb boundary edges:

* kappa, sigma : piecewise constant per triangle, shape (nt,)
* eta          : piecewise linear per boundary edge, shape (nb, 2) holding the
  values at the edge's two endpoints.  Storing values *per edge* (rather than
  per vertex) lets a discontinuous eta carry doubled values at a jump vertex,
  each edge using its own side's value.

Assembled operators (all scipy CSR, size nv):

* A0 : volume stiffness   \\int_Omega kappa grad(w).grad(v)
* A1 : boundary mass      \\int_dOmega eta w v          (exact edgewise integral)
* M  : volume mass        \\int_Omega sigma w v          (exact)
* c  : constraint vector  M @ 1  (i.e. \\int_Omega sigma v)

A0 and M share one CSR pattern, built from the mesh's unique edges: a
diagonal entry per vertex and two entries per edge.  Their values are
summed straight into it, per vertex and per unique edge, so no element
matrices or COO triplets are formed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh2D, _edge_keys, _triangle_edges, geometry_stats
from .series import piecewise_linear_mean, piecewise_linear_variance

ETA_VARIATIONS = ("constant", "linear", "sinusoidal", "step")
SOLVE_TOL = 1e-10   # relative residual of a constrained solve
COMPAT_TOL = 1e-8   # |1.rhs| / ||rhs|| accepted as compatible


@dataclasses.dataclass
class FieldSet:
    kappa: np.ndarray  # (nt,)
    sigma: np.ndarray  # (nt,)
    eta: np.ndarray    # (nb, 2)

    @staticmethod
    def from_constants(mesh: Mesh2D) -> "FieldSet":
        """Unit kappa, sigma and eta on every triangle and boundary edge."""
        return FieldSet(
            np.ones(mesh.num_triangles),
            np.ones(mesh.num_triangles),
            np.ones((mesh.num_boundary_edges, 2)),
        )

    @staticmethod
    def from_region_values(mesh: Mesh2D, kappa_by_region=None, sigma_by_region=None,
                           eta_by_tag=None) -> "FieldSet":
        fs = FieldSet.from_constants(mesh)
        if kappa_by_region:
            fs.kappa = _per_tri(mesh, kappa_by_region, "kappa")
        if sigma_by_region:
            fs.sigma = _per_tri(mesh, sigma_by_region, "sigma")
        if eta_by_tag:
            vals = np.empty(mesh.num_boundary_edges)
            for k, tag in enumerate(mesh.edge_tags):
                if int(tag) not in eta_by_tag:
                    raise ValueError(f"no eta value for boundary tag {int(tag)}")
                vals[k] = eta_by_tag[int(tag)]
            fs.eta = np.repeat(vals[:, None], 2, axis=1)
        return fs

    def replace(self, **kw) -> "FieldSet":
        return dataclasses.replace(self, **kw)


def _per_tri(mesh, table, what):
    out = np.empty(mesh.num_triangles)
    for k, reg in enumerate(mesh.tri_regions):
        if int(reg) not in table:
            raise ValueError(f"no {what} value for region {int(reg)}")
        out[k] = table[int(reg)]
    return out


def eta_variation(mesh: Mesh2D, kind: str) -> np.ndarray:
    """Reference boundary-conductance shapes on the canonical domains.

    Evaluated in centered coordinates scaled by the domain diameter,
    (xt, yt) = (x - centroid) / diameter:

      constant    1
      linear      1 + xt + yt
      sinusoidal  1 + sin(10 xt) sin(5 yt)
      step        0 for yt < 0, 2 for yt >= 0 (per-edge side values; the jump
                  vertices carry both one-sided values)

    Each is divided by its perimeter mean, so the result has mean 1.
    """
    if kind not in ETA_VARIATIONS:
        raise ValueError(f"unknown eta variation {kind!r}; choose from {ETA_VARIATIONS}")
    gs = geometry_stats(mesh)
    p = (mesh.vertices - np.asarray(gs.centroid)) / gs.diameter
    ev = p[mesh.boundary_edges]  # (nb, 2, 2) scaled endpoint coordinates
    if kind == "constant":
        eta = np.ones((mesh.num_boundary_edges, 2))
    elif kind == "linear":
        eta = 1.0 + ev[:, :, 0] + ev[:, :, 1]
    elif kind == "sinusoidal":
        eta = 1.0 + np.sin(10.0 * ev[:, :, 0]) * np.sin(5.0 * ev[:, :, 1])
    else:  # step: decide the side from the edge midpoint (exact when the jump
        # locations are mesh vertices, as on all canonical shapes)
        ymid = ev[:, :, 1].mean(axis=1)
        side = np.where(ymid >= 0.0, 2.0, 0.0)
        eta = np.repeat(side[:, None], 2, axis=1)
    return eta / boundary_mean(mesh, eta)


# ------------------------------------------------------------------ field stats

def boundary_mean(mesh: Mesh2D, eta: np.ndarray) -> float:
    """Perimeter-weighted mean of an edgewise-linear boundary field (exact)."""
    return piecewise_linear_mean(mesh.edge_lengths(), eta[:, 0], eta[:, 1])


def boundary_variance(mesh: Mesh2D, eta: np.ndarray) -> float:
    """Perimeter mean of (eta/mean - 1)^2, exact for edgewise-linear eta."""
    lens = mesh.edge_lengths()
    a, b = eta[:, 0], eta[:, 1]
    return piecewise_linear_variance(lens, a, b,
                                     piecewise_linear_mean(lens, a, b))


def volume_mean(mesh: Mesh2D, field: np.ndarray) -> float:
    areas = mesh.triangle_areas()
    return float((areas * field).sum() / areas.sum())


def volume_variance(mesh: Mesh2D, field: np.ndarray) -> float:
    areas = mesh.triangle_areas()
    g = field / volume_mean(mesh, field) - 1.0
    return float((areas * g * g).sum() / areas.sum())


# ------------------------------------------------------------------- assembly

@dataclasses.dataclass
class Forms:
    A0: sp.csr_matrix
    A1: sp.csr_matrix
    M: sp.csr_matrix
    c: np.ndarray

    @property
    def n(self) -> int:
        return self.c.shape[0]


def assemble_forms(mesh: Mesh2D, fields: FieldSet) -> Forms:
    """The forms on `mesh` of finite fields with kappa, sigma > 0, eta >= 0."""
    for name, v, strict in (("kappa", fields.kappa, True),
                            ("sigma", fields.sigma, True),
                            ("eta", fields.eta, False)):
        if not np.all(np.isfinite(v) & ((v > 0) if strict else (v >= 0))):
            raise ValueError(
                f"{name} must be finite and {'>' if strict else '>='} 0")
    nv, t = mesh.num_vertices, mesh.triangles
    areas = mesh.triangle_areas()
    pattern = _p1_pattern(t, nv)  # shared by A0 and M
    A0 = _scatter(pattern, t, *_stiffness_entries(mesh.vertices, t, fields.kappa, areas))
    M = _scatter_mass(pattern, t, areas, fields.sigma)
    A1 = boundary_mass(mesh, fields.eta)
    c = M @ np.ones(nv)
    return Forms(A0, A1, M, c)


def mass_matrix(mesh: Mesh2D, sigma: np.ndarray) -> sp.csr_matrix:
    """Volume mass matrix with piecewise constant weight sigma (exact)."""
    t = mesh.triangles
    return _scatter_mass(_p1_pattern(t, mesh.num_vertices), t,
                         mesh.triangle_areas(), sigma)


def _stiffness_entries(p, t, kappa, areas):
    """Element stiffness entries kappa area grad(phi_i).grad(phi_j), as
    (3, nt) arrays of the diagonal (i, i) and off-diagonal (i, (i + 1) % 3)
    entries for `_scatter`."""
    # gradients of the barycentric basis, one (nt,) array per vertex
    x = p[t, 0].T  # (3, nt)
    y = p[t, 1].T
    bx = (y[1] - y[2], y[2] - y[0], y[0] - y[1])
    by = (x[2] - x[1], x[0] - x[2], x[1] - x[0])
    del x, y  # freed before the entries are built

    # symmetric: each of the six distinct entries is computed once
    w = kappa / (4.0 * areas)
    k_diag = np.empty((3, t.shape[0]))
    k_edge = np.empty((3, t.shape[0]))
    for i in range(3):
        for j, kij in ((i, k_diag[i]), ((i + 1) % 3, k_edge[i])):
            np.multiply(bx[i], bx[j], out=kij)
            kij += by[i] * by[j]
            kij *= w
    return k_diag, k_edge


def _scatter_mass(pattern, t, areas, sigma) -> sp.csr_matrix:
    """Element mass entries sigma area (1 + delta_ij) / 12, scattered."""
    s = sigma * areas
    return _scatter(pattern, t, np.tile((2.0 / 12.0) * s, (3, 1)),
                    np.tile((1.0 / 12.0) * s, (3, 1)))


def _p1_pattern(t: np.ndarray, nv: int):
    """The symmetric sparsity pattern of P1 elements on the triangles t.

    It holds the nv diagonal entries and, for each unique edge (lo, hi),
    the entries (lo, hi) and (hi, lo), in CSR order with sorted columns:
    the pattern scipy gives the summed element matrices.  Returns int32
    indptr and indices; the unique-edge index of each directed edge of
    `_triangle_edges(t)`; and the slots in the CSR data of the diagonal
    entries (nv,) and of the upper (lo, hi) and lower (hi, lo) entries of
    each unique edge.
    """
    ukeys, edge = np.unique(_edge_keys(_triangle_edges(t), nv), return_inverse=True)
    lo, hi = np.divmod(ukeys, nv)
    del ukeys
    n_upper = np.bincount(lo, minlength=nv)  # per row, right of the diagonal
    n_lower = np.bincount(hi, minlength=nv)  # per row, left of it
    indptr = np.zeros(nv + 1, dtype=np.int32)
    np.cumsum(n_lower + n_upper + 1, out=indptr[1:])
    diag = indptr[:-1] + n_lower
    # Sorted by (lo, hi), the unique edges list the upper entries of each row
    # consecutively; a stable sort by hi lists the lower ones, by (hi, lo).
    # An entry's slot is its rank in that list minus the rank of its row's
    # first entry, plus the slot of that first entry.
    rank = np.arange(lo.shape[0])
    upper = rank + (diag + 1 - (np.cumsum(n_upper) - n_upper))[lo]
    order = np.argsort(hi, kind="stable")
    lower = np.empty_like(upper)
    lower[order] = rank + (indptr[:-1] - (np.cumsum(n_lower) - n_lower))[hi[order]]
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[diag] = np.arange(nv)
    indices[upper] = hi
    indices[lower] = lo
    return indptr, indices, edge, diag, upper, lower


def _scatter(pattern, t, diag_values, edge_values) -> sp.csr_matrix:
    """Sum element entries into a CSR matrix on `_p1_pattern(t, nv)`.

    Row i of the (3, nt) arrays belongs to the directed edges
    (t[:, i], t[:, (i + 1) % 3]) of `_triangle_edges(t)`: diag_values adds
    to the entry (t[:, i], t[:, i]), edge_values to the entry of the edge
    and to its transpose.  Each off-diagonal entry sums at most two values, so it does
    not depend on the order of the sum.
    """
    indptr, indices, edge, diag, upper, lower = pattern
    nv = diag.shape[0]
    data = np.empty(indices.shape[0])
    data[diag] = np.bincount(t.T.ravel(), diag_values.ravel(), minlength=nv)
    off = np.bincount(edge, edge_values.ravel(), minlength=upper.shape[0])
    data[upper] = off
    data[lower] = off
    return sp.csr_matrix((data, indices, indptr), shape=(nv, nv))


def boundary_mass(mesh: Mesh2D, eta: np.ndarray) -> sp.csr_matrix:
    """Boundary mass matrix with edgewise-linear weight eta (exact integrals).

    On an edge of length L with endpoint weights (ea, eb):
        int eta phi_i phi_i = L (ea/4 + eb/12)
        int eta phi_i phi_j = L (ea + eb) / 12
        int eta phi_j phi_j = L (ea/12 + eb/4)
    """
    e = mesh.boundary_edges
    lens = mesh.edge_lengths()
    ea, eb = eta[:, 0], eta[:, 1]
    d_ii = lens * (ea / 4.0 + eb / 12.0)
    d_ij = lens * (ea + eb) / 12.0
    d_jj = lens * (ea / 12.0 + eb / 4.0)
    rows = np.concatenate([e[:, 0], e[:, 0], e[:, 1], e[:, 1]])
    cols = np.concatenate([e[:, 0], e[:, 1], e[:, 0], e[:, 1]])
    vals = np.concatenate([d_ii, d_ij, d_ij, d_jj])
    nv = mesh.num_vertices
    return sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()


def boundary_load(mesh: Mesh2D, eta: np.ndarray) -> np.ndarray:
    """boundary_mass(mesh, eta) @ 1 without the matrix: int eta phi_i.

    On an edge of length L, endpoint a gets L (ea/3 + eb/6) and endpoint b
    gets L (ea/6 + eb/3).
    """
    e = mesh.boundary_edges
    lens = mesh.edge_lengths()
    ea, eb = eta[:, 0], eta[:, 1]
    return np.bincount(e.ravel(order="F"),
                       np.concatenate([lens * (ea / 3.0 + eb / 6.0),
                                       lens * (ea / 6.0 + eb / 3.0)]),
                       minlength=mesh.num_vertices)


# ---------------------------------------------------- mean-constrained operator

@dataclasses.dataclass(frozen=True)
class ConstrainedOperator:
    """A, the constraint weights c and the LU factor of A + A[0,0] e0 e0^T."""
    A: sp.spmatrix
    c: np.ndarray
    lu: spla.SuperLU

    def solve(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """(u, m) with A u + m c = x and c . u = 0.

        1 . (A u) = 0 fixes m = 1.x / 1.c; the pinned factor then solves the
        compatible A w = x - m c, and shifting w by a constant enforces c.u = 0.
        """
        m = float(x.sum()) / float(self.c.sum())
        w = _solve_spd(self.lu, x - m * self.c)
        return w - float(self.c @ w) / float(self.c.sum()), m


def factor_constrained(A: sp.spmatrix, c: np.ndarray) -> ConstrainedOperator:
    """Factor the pinned matrix A + A[0,0] e0 e0^T once.

    Every mean-constrained solve on one operator (each phi right-hand side,
    every shift-invert step of the stability eigensolves) reuses the
    factor.  A is symmetric positive semidefinite with the constants as its
    kernel, so grounding node 0 makes it SPD, and the pinned matrix solves
    A w = r exactly for every r with 1 . r = 0, and `factor_spd` factors it.
    """
    n = A.shape[0]
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise ValueError("constraint must be a length-n weight vector")
    diag = A.diagonal()
    ratio = np.abs(A @ np.ones(n)).max() / diag.max()
    if not ratio <= 1e-10:
        raise ValueError(f"constants are not in the kernel of A: "
                         f"||A.1||_inf / max A_ii = {ratio:.3e} exceeds 1e-10")
    K = sp.csc_matrix(A, copy=True)
    K[0, 0] += diag[0]
    K.eliminate_zeros()  # entries that cancel in assembly only add fill
    return ConstrainedOperator(A, c, factor_spd(K))


def factor_spd(K: sp.spmatrix) -> spla.SuperLU:
    """SuperLU factor of a symmetric positive definite matrix.

    The one factorization recipe of the package.  A symmetric minimum-degree
    ordering of K + K^T with diagonal pivots keeps the fill of an SPD factor
    low.  relax=1 keeps the supernodes fundamental: with scipy's relaxed
    ones a solve with the BDF2 matrix of the level-6 disk takes 1.2-1.3x as
    long.  panel_size=1 factors one column at a time, which lowers the
    factorization's high-water mark on the level-6 cross by 3.4-3.8 MB.
    Neither changes L or U.
    """
    return spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, relax=1, panel_size=1,
                     options={"SymmetricMode": True})


def _solve_spd(lu: spla.SuperLU, b: np.ndarray) -> np.ndarray:
    """K^-1 b for a `factor_spd` factor of K.

    K is symmetric, so K^T x = b is the same system.  SuperLU solves one
    right-hand side through the transposed factors in 70-80 % of the time
    (median per solve, two runs: the BDF2 matrix of the level-6 disk
    462-543 -> 362-387 us, the pinned stiffness of the level-6 cross
    2120 -> 1720 us); a block of columns keeps the default path, for which
    the transposed one is slower (64 columns on the level-6 disk:
    21.8-24.8 -> 26.2-30.1 ms).  Private, so that perfbench's tracer,
    which spans every public function, keeps each solve in its caller's
    layer.
    """
    return lu.solve(b, trans="T") if b.ndim == 1 else lu.solve(b)


@dataclasses.dataclass
class ConstrainedSolution:
    u: np.ndarray
    multiplier: float
    residual: float


def solve_constrained(op: ConstrainedOperator, rhs: np.ndarray) -> ConstrainedSolution:
    """Solve A u + multiplier * c = rhs subject to c . u = 0.

    A right-hand side with a nonzero component along the constants is
    incompatible and rejected: |1 . rhs| must not exceed
    COMPAT_TOL * ||rhs||.  A relative residual above SOLVE_TOL is a
    numeric failure.
    """
    A, c = op.A, op.c
    n = A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    nrm = np.linalg.norm(rhs)
    if nrm == 0.0:
        return ConstrainedSolution(np.zeros(n), 0.0, 0.0)
    ones_dot = float(np.abs(rhs.sum()))
    if ones_dot > COMPAT_TOL * nrm:
        raise ValueError(
            f"incompatible right-hand side: |1.rhs| = {ones_dot:.3e} exceeds "
            f"{COMPAT_TOL:g} * ||rhs|| = {COMPAT_TOL * nrm:.3e}"
        )
    u, mult = op.solve(rhs)
    res = np.linalg.norm(A @ u + mult * c - rhs) / nrm
    res = max(res, abs(float(c @ u)) / (np.linalg.norm(c) * max(np.linalg.norm(u), 1e-300)))
    if res > SOLVE_TOL:
        raise RuntimeError(f"constrained solve residual {res:.3e} exceeds tol {SOLVE_TOL:g}")
    return ConstrainedSolution(u, mult, res)
