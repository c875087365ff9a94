import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dunking import fem, mesh

from conftest import array_digest, uniform_fields


def test_mass_matrix_partitions_area(disk4):
    forms = fem.assemble_forms(disk4, uniform_fields(disk4))
    area = disk4.triangle_areas().sum()
    ones = np.ones(disk4.num_vertices)
    assert abs(forms.c.sum() - area) < 1e-13 * area
    # row sums of M reproduce the volume form c (linear exactness)
    assert np.allclose(forms.M @ ones, forms.c, rtol=0, atol=1e-14)
    assert abs(ones @ (forms.M @ ones) - area) < 1e-13 * area


def test_stiffness_annihilates_constants(square4):
    forms = fem.assemble_forms(square4, uniform_fields(square4))
    ones = np.ones(square4.num_vertices)
    assert np.max(np.abs(forms.A0 @ ones)) < 1e-13


def test_stiffness_exact_linear_energy(square4):
    # a0(v, v) with v = x is the area integral of |grad v|^2 = |Omega|
    forms = fem.assemble_forms(square4, uniform_fields(square4))
    v = square4.vertices[:, 0].copy()
    area = square4.triangle_areas().sum()
    assert abs(v @ (forms.A0 @ v) - area) < 1e-13 * area


# sha256 (first 16 hex digits) over data, indices and indptr of A0, M and A1
# at level 5, unit kappa and sigma, sinusoidal eta
FORM_DIGESTS = {
    "disk": ["35b41914cc11eaca", "67f7ce59b00e7da6", "72189f5ec1f6a707"],
    "square": ["81f7800e6d76d371", "482b53e7bcd7a649", "10077f6ba96914ef"],
    "equilateral_triangle": ["4c952d5c90d148b5", "ab48b4185585e916", "1283613e184c1745"],
    "cross": ["1d0857eef7aad428", "4d26a3190bd5914a", "73bb3a0da9675788"],
}


@pytest.mark.parametrize("shape", mesh.CANONICAL_SHAPES)
def test_forms_are_bit_identical(shape):
    m = mesh.generate_canonical(shape, 5)
    fields = uniform_fields(m)
    fields.eta = fem.eta_variation(m, "sinusoidal")
    forms = fem.assemble_forms(m, fields)
    assert [array_digest(A.data, A.indices, A.indptr)
            for A in (forms.A0, forms.M, forms.A1)] == FORM_DIGESTS[shape]


def _reference_assemble(m, fields):
    """(A0, M) summed from (nt, 3, 3) element matrices through COO triplets."""
    nv = m.num_vertices
    p, t = m.vertices, m.triangles
    areas = m.triangle_areas()
    t32 = t.astype(np.int32)
    rows, cols = np.repeat(t32, 3, axis=1).ravel(), np.tile(t32, (1, 3)).ravel()

    def scatter(elem):
        return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()

    x = p[t, 0].T
    y = p[t, 1].T
    bx = (y[1] - y[2], y[2] - y[0], y[0] - y[1])
    by = (x[2] - x[1], x[0] - x[2], x[1] - x[0])
    w = fields.kappa / (4.0 * areas)
    ke = np.empty((t.shape[0], 3, 3))
    for i in range(3):
        for j in range(i, 3):
            kij = bx[i] * bx[j]
            kij += by[i] * by[j]
            kij *= w
            ke[:, i, j] = ke[:, j, i] = kij
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return scatter(ke), scatter(me_ref[None, :, :] * (fields.sigma * areas)[:, None, None])


def _assembly_case(case):
    m = mesh.generate_canonical("cross" if case == "random-cross" else case, 5)
    f = uniform_fields(m)
    if case == "random-cross":
        rng = np.random.default_rng(11)
        f.kappa = rng.uniform(0.5, 2.0, m.num_triangles)
        f.sigma = rng.uniform(0.5, 2.0, m.num_triangles)
    return m, f


@pytest.mark.parametrize("case", [*mesh.CANONICAL_SHAPES, "random-cross"])
def test_assembly_matches_element_matrix_reference(case):
    m, f = _assembly_case(case)
    forms = fem.assemble_forms(m, f)
    A0, M = _reference_assemble(m, f)
    for got, ref in ((forms.A0, A0), (forms.M, M), (fem.mass_matrix(m, f.sigma), M)):
        assert np.array_equal(got.indptr, ref.indptr) and got.indptr.dtype == ref.indptr.dtype
        assert np.array_equal(got.indices, ref.indices) and got.indices.dtype == ref.indices.dtype
        is_diag = got.indices == np.repeat(np.arange(m.num_vertices), np.diff(got.indptr))
        # at most two values per off-diagonal entry: the sum is order-free
        assert np.array_equal(got.data[~is_diag].view(np.int64),
                              ref.data[~is_diag].view(np.int64))
        # the diagonal sums run in another order
        d, dref = got.data[is_diag], ref.data[is_diag]
        assert np.all(np.abs(d - dref) <= 8 * np.spacing(np.abs(dref)))


def test_assemble_forms_memory_is_bounded():
    # no (nt, 3, 3) element matrices, COO triplets or duplicate entries:
    # the peak is a small multiple of what is returned
    m = mesh.generate_canonical("cross", 5)
    fields = uniform_fields(m)
    tracemalloc.start()
    try:
        forms = fem.assemble_forms(m, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A0, M, A1 = forms.A0, forms.M, forms.A1
    # A0 and M share one pattern
    assert np.shares_memory(A0.indices, M.indices) and np.shares_memory(A0.indptr, M.indptr)
    returned = sum(a.nbytes for a in (A0.data, A0.indices, A0.indptr, M.data,
                                      A1.data, A1.indices, A1.indptr, forms.c))
    assert peak <= 3 * returned


def test_boundary_mass_total(disk4):
    f = uniform_fields(disk4)
    A1 = fem.boundary_mass(disk4, f.eta)
    ones = np.ones(disk4.num_vertices)
    per = disk4.edge_lengths().sum()
    assert abs(ones @ (A1 @ ones) - per) < 1e-13 * per


def test_boundary_mean_exact_for_edgewise_linear(square4):
    # mean of 1 + x + y over the centered unit-square boundary is 1
    ev = square4.vertices[square4.boundary_edges]
    eta = 1.0 + ev[:, :, 0] + ev[:, :, 1]
    assert abs(fem.boundary_mean(square4, eta) - 1.0) < 1e-13
    assert abs(fem.boundary_variance(square4, np.ones_like(eta))) < 1e-15


def test_boundary_variance_square_linear_exact(square4):
    # var of x over the unit-square boundary: 2 sides at x = +/- 1/2
    # contribute 1/4 each, 2 sides contribute int x^2 = 1/12 each -> 1/6
    ev = square4.vertices[square4.boundary_edges]
    eta = 1.0 + ev[:, :, 0]
    assert abs(fem.boundary_variance(square4, eta) - 1.0 / 6.0) < 1e-13


@pytest.mark.parametrize("kind", fem.ETA_VARIATIONS)
def test_eta_variations_normalized(disk4, kind):
    eta = fem.eta_variation(disk4, kind)
    assert eta.shape == (disk4.num_boundary_edges, 2)
    assert abs(fem.boundary_mean(disk4, eta) - 1.0) < 1e-12
    assert np.all(eta >= -1e-12)


def test_step_variation_is_two_valued(disk4):
    # 0 on one half of the perimeter, 2 on the other, up to normalization
    low, high = np.unique(fem.eta_variation(disk4, "step"))
    assert low == 0.0 and abs(high - 2.0) < 1e-12


def test_eta_variation_unknown_kind(disk4):
    with pytest.raises(ValueError):
        fem.eta_variation(disk4, "sawtooth")


def test_solve_constrained_recovers_projected_solution(disk4):
    forms = fem.assemble_forms(disk4, uniform_fields(disk4))
    rng = np.random.default_rng(7)
    w = rng.standard_normal(disk4.num_vertices)
    rhs = forms.A0 @ w
    op = fem.factor_constrained(forms.A0, forms.c)
    sol = fem.solve_constrained(op, rhs)
    assert abs(forms.c @ sol.u) < 1e-10
    # solution equals w up to the constant fixed by the constraint
    shift = (forms.c @ w) / forms.c.sum()
    assert np.max(np.abs(sol.u - (w - shift))) < 1e-9


def test_solve_constrained_incompatible_rhs(disk4):
    forms = fem.assemble_forms(disk4, uniform_fields(disk4))
    op = fem.factor_constrained(forms.A0, forms.c)
    with pytest.raises(ValueError):
        fem.solve_constrained(op, forms.c.copy())


def _constrained_case(case):
    m = mesh.generate_canonical("disk" if case == "disk" else "cross", 2)
    f = uniform_fields(m)
    if case == "layered-cross":
        # kappa and sigma jump across y = 0, so c is not the area weights
        lower = m.vertices[m.triangles].mean(axis=1)[:, 1] < 0.0
        f.kappa = np.where(lower, 0.5, 2.0)
        f.sigma = np.where(lower, 2.0 / 3.0, 4.0 / 3.0)
    return m, f


@pytest.mark.parametrize("rhs", ["compatible", "incompatible"])
@pytest.mark.parametrize("case", ["disk", "cross", "layered-cross"])
def test_constrained_solve_matches_dense_bordered_system(case, rhs):
    m, f = _constrained_case(case)
    forms = fem.assemble_forms(m, f)
    A, c = forms.A0, forms.c
    v = np.random.default_rng(3).standard_normal(forms.n)
    # A v has 1.x = 0; M v (the eigensolver's right-hand side) does not
    x = A @ v if rhs == "compatible" else forms.M @ v
    x /= np.linalg.norm(x)
    K = np.block([[A.toarray(), c[:, None]], [c[None, :], np.zeros((1, 1))]])
    ref = np.linalg.solve(K, np.append(x, 0.0))
    u, mult = fem.factor_constrained(A, c).solve(x)
    assert np.linalg.norm(u - ref[:-1]) <= 1e-10 * np.linalg.norm(ref[:-1])
    # m c has the scale of x
    assert abs(mult - ref[-1]) * np.linalg.norm(c) <= 1e-10
    assert abs(c @ u) < 1e-12


def test_factor_constrained_needs_constants_in_kernel(disk4):
    forms = fem.assemble_forms(disk4, uniform_fields(disk4))
    with pytest.raises(ValueError, match="not in the kernel"):
        fem.factor_constrained(forms.A0 + forms.A1, forms.c)


def test_constrained_factor_fills_less_than_bordered_colamd(cross4):
    forms = fem.assemble_forms(cross4, uniform_fields(cross4))
    c = forms.c
    bordered = sp.vstack([sp.hstack([forms.A0, c[:, None]]),
                          np.append(c, 0.0)[None, :]], format="csc")
    colamd = spla.splu(bordered)
    lu = fem.factor_constrained(forms.A0, c).lu
    # 28 630 against 45 690; COLAMD on the pinned matrix, or MMD on it with
    # the stiffness's cancelled entries kept, gives 0.83 or 0.76 of it
    assert lu.L.nnz + lu.U.nnz < 0.7 * (colamd.L.nnz + colamd.U.nnz)


@pytest.mark.parametrize("kind", ["step", "sinusoidal"])
@pytest.mark.parametrize("shape", mesh.CANONICAL_SHAPES)
def test_boundary_load_is_boundary_mass_row_sums(shape, kind):
    m = mesh.generate_canonical(shape, 4)
    eta = fem.eta_variation(m, kind)
    ref = fem.boundary_mass(m, eta) @ np.ones(m.num_vertices)
    err = np.abs(fem.boundary_load(m, eta) - ref).max()
    assert err <= 1e-14 * np.abs(ref).max()


def test_region_fields(cross4):
    # region 1 holds the triangles whose centroid has x >= 0
    cent_x = cross4.vertices[cross4.triangles, 0].mean(axis=1)
    tagged = dataclasses.replace(cross4, tri_regions=(cent_x >= 0.0).astype(np.int64))
    f = fem.FieldSet.from_region_values(tagged,
                                        sigma_by_region={0: 2 / 3, 1: 4 / 3})
    assert set(np.unique(f.sigma).tolist()) == {2 / 3, 4 / 3}
    # sigma-weighted volume equals the plain area when the mean is one
    forms = fem.assemble_forms(tagged, f)
    area = tagged.triangle_areas().sum()
    assert abs(forms.c.sum() - area) < 1e-12 * area


def test_sinusoidal_energy_scale(disk4):
    # the sinusoidal variation has mean 1 and positive variance well below
    # the step variation's
    s = fem.eta_variation(disk4, "sinusoidal")
    st = fem.eta_variation(disk4, "step")
    vs = fem.boundary_variance(disk4, s)
    vt = fem.boundary_variance(disk4, st)
    assert 0 < vs < vt
