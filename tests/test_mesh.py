import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from dunking import fem, mesh

from conftest import array_digest


# exact geometry of the canonical shapes: unit-radius disk, unit square,
# unit-side equilateral triangle, plus-sign of five unit squares
EXACT = {
    "disk": dict(area=np.pi, perimeter=2 * np.pi, gamma=2.0, diameter=2.0),
    "square": dict(area=1.0, perimeter=4.0, gamma=4.0, diameter=np.sqrt(2)),
    "equilateral_triangle": dict(area=np.sqrt(3) / 4, perimeter=3.0,
                                 gamma=12 / np.sqrt(3), diameter=1.0),
    "cross": dict(area=5.0, perimeter=12.0, gamma=2.4, diameter=np.sqrt(10)),
}


@pytest.mark.parametrize("shape", sorted(EXACT))
def test_geometry_stats_converge(shape):
    exact = EXACT[shape]
    m = mesh.generate_canonical(shape, 5)
    gs = mesh.geometry_stats(m)
    # polygonal shapes are exact; the disk is a 128-gon at level 5
    tol = 1e-3 if shape == "disk" else 1e-12
    assert abs(gs.area - exact["area"]) / exact["area"] < tol
    assert abs(gs.perimeter - exact["perimeter"]) / exact["perimeter"] < tol
    assert abs(gs.gamma - exact["gamma"]) / exact["gamma"] < 2 * tol
    assert abs(gs.diameter - exact["diameter"]) / exact["diameter"] < tol


def test_polygon_gamma_exact_at_every_level():
    for lev in (1, 2, 3, 4):
        gs = mesh.geometry_stats(mesh.generate_canonical("square", lev))
        assert abs(gs.gamma - 4.0) < 1e-12


def test_disk_gamma_decreases_with_refinement():
    gammas = [mesh.geometry_stats(mesh.generate_canonical("disk", lev)).gamma
              for lev in (2, 3, 4, 5)]
    assert all(g2 < g1 for g1, g2 in zip(gammas, gammas[1:]))
    assert gammas[-1] > 2.0  # inscribed polygon: P/A above the circle value


def test_refine_quadruples_triangles(disk4):
    fine = mesh.refine(disk4)
    assert fine.num_triangles == 4 * disk4.num_triangles
    fine.validate()
    # total area is preserved exactly for straight-edged shapes
    sq = mesh.generate_canonical("square", 3)
    assert abs(mesh.refine(sq).triangle_areas().sum()
               - sq.triangle_areas().sum()) < 1e-13


def test_validate_rejects_flipped_triangle(square4):
    tris = square4.triangles.copy()
    tris[0] = tris[0][::-1]
    with pytest.raises(ValueError):
        dataclasses.replace(square4, triangles=tris)


def _interior_edge(m):
    bnd = {tuple(sorted(e)) for e in m.boundary_edges.tolist()}
    return next(e for e in m.triangles[:, :2].tolist() if tuple(sorted(e)) not in bnd)


# each breaker returns the fields that replace the valid mesh's ones

def _drop_first(m):
    return dict(boundary_edges=m.boundary_edges[1:], edge_tags=m.edge_tags[1:])


def _append_edge(m, edge):
    return dict(boundary_edges=np.vstack([m.boundary_edges, [edge]]),
                edge_tags=np.append(m.edge_tags, 0))


def _alias_first(m):
    # (lo - 1, hi + nv) has the key (lo - 1) * nv + hi + nv of edge (lo, hi)
    lo, hi = sorted(m.boundary_edges[0].tolist())
    bedges = m.boundary_edges.copy()
    bedges[0] = (lo - 1, hi + m.num_vertices)
    return dict(boundary_edges=bedges)


def _move_first_vertex(m, xy):
    verts = m.vertices.copy()
    verts[0] = xy
    return dict(vertices=verts)


def _point_past_last_vertex(m):
    tris = m.triangles.copy()
    tris[0, 0] = m.num_vertices
    return dict(triangles=tris)


DEFECTS = {
    "missing boundary edge": (_drop_first, "do not match"),
    "extra interior edge": (lambda m: _append_edge(m, _interior_edge(m)), "do not match"),
    "duplicated boundary edge": (lambda m: _append_edge(m, m.boundary_edges[0]), "do not match"),
    "aliased out-of-range edge": (_alias_first, "boundary_edges vertex index out of range"),
    "negative edge index": (lambda m: _append_edge(m, [-1, 0]), "out of range"),
    "out-of-range triangle": (_point_past_last_vertex, "triangles vertex index out of range"),
    "flat boundary_edges": (lambda m: dict(boundary_edges=m.boundary_edges.ravel()),
                            r"integer \(n, 2\) array"),
    "three-column boundary_edges": (
        lambda m: dict(boundary_edges=np.repeat(m.boundary_edges, [1, 2], axis=1)),
        r"integer \(n, 2\) array"),
    "float triangles": (lambda m: dict(triangles=m.triangles.astype(float)),
                        r"integer \(n, 3\) array"),
    "nan vertex": (lambda m: _move_first_vertex(m, (np.nan, 0.0)),
                   "vertex 0 has a non-finite coordinate"),
    "inf vertex": (lambda m: _move_first_vertex(m, (0.0, np.inf)),
                   "vertex 0 has a non-finite coordinate"),
    "-inf vertex": (lambda m: _move_first_vertex(m, (-np.inf, -np.inf)),
                    "vertex 0 has a non-finite coordinate"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_validate_rejects_defect(square4, defect):
    breaker, message = DEFECTS[defect]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(square4, **breaker(square4))


# ------------------------------------------------ an immutable, cached value

@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                min_size=2, max_size=60))
@example([(0, 0), (1, 1), (2, 2), (3, 3)])   # collinear
@example([(7, -3)] * 3)                      # one point repeated
def test_diameter_matches_all_pairs(coords):
    pts = np.array(coords, dtype=np.int64)
    # integer coordinates make every squared distance exact
    dense = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).max()
    assert mesh._diameter(pts.astype(float)) == np.sqrt(float(dense))


@pytest.mark.parametrize("n", [0, 1])
def test_diameter_needs_two_points(n):
    with pytest.raises(ValueError, match="two or more points"):
        mesh._diameter(np.zeros((n, 2)))


@pytest.mark.parametrize("shape", mesh.CANONICAL_SHAPES)
def test_canonical_diameter_is_max_pairwise_distance(shape):
    m = mesh.generate_canonical(shape, 1)
    for level in range(1, 8):
        if level > 1:
            m = mesh.refine(m)
        # the farthest pair of vertices lies among the boundary vertices
        b = m.vertices[np.unique(m.boundary_edges)]
        d2 = max(((b[i + 1:] - b[i]) ** 2).sum(axis=1).max()
                 for i in range(len(b) - 1))
        assert mesh.geometry_stats(m).diameter == np.sqrt(d2), level


def test_mesh_fields_cannot_be_assigned(square4):
    with pytest.raises(dataclasses.FrozenInstanceError):
        square4.edge_tags = np.ones_like(square4.edge_tags)


@pytest.mark.parametrize("name", ["vertices", "triangles", "tri_regions",
                                  "boundary_edges", "edge_tags",
                                  "triangle_areas", "edge_lengths"])
def test_mesh_arrays_are_read_only(square4, name):
    arr = getattr(square4, name)
    if callable(arr):
        arr = arr()
        assert arr is getattr(square4, name)()  # computed once
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[0]


def test_replace_starts_with_a_fresh_cache():
    m = mesh.generate_canonical("square", 2)
    gs = mesh.geometry_stats(m)
    assert mesh.geometry_stats(m) is gs
    big = dataclasses.replace(m, vertices=2.0 * m.vertices)
    assert "_stats" not in vars(big) and "_edge_lengths" not in vars(big)
    assert np.array_equal(big.triangle_areas(), 4.0 * m.triangle_areas())
    assert np.array_equal(big.edge_lengths(), 2.0 * m.edge_lengths())
    assert mesh.geometry_stats(big).area == 4.0 * gs.area
    assert mesh.geometry_stats(big).diameter == 2.0 * gs.diameter


def test_unknown_shape():
    with pytest.raises(ValueError):
        mesh.generate_canonical("dodecahedron", 3)


def test_boundary_edges_form_closed_loops(disk4, cross4):
    for m in (disk4, cross4):
        # every boundary vertex appears exactly twice among edge endpoints
        counts = np.bincount(m.boundary_edges.ravel(),
                             minlength=m.num_vertices)
        bnd = counts[counts > 0]
        assert np.all(bnd == 2)


# --------------------------------------------- row-wise reference of the edge keys
#
# The bookkeeping as it was before integer edge keys: unique rows of the
# sorted (i, j) pairs, and a Python set of boundary edges.  The key-based
# code must reproduce it bit for bit, whatever the vertex labels.

def _ref_extract_boundary_edges(triangles):
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )
    _, inv, counts = np.unique(np.sort(edges, axis=1), axis=0,
                               return_inverse=True, return_counts=True)
    return edges[counts[inv.ravel()] == 1]


def _ref_refine_once(m):
    p, t = m.vertices, m.triangles
    nv, nt = p.shape[0], t.shape[0]
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=0)
    uniq, inv = np.unique(np.sort(edges, axis=1), axis=0, return_inverse=True)
    inv = inv.ravel()
    mid_ids = nv + np.arange(uniq.shape[0])
    midpoints = 0.5 * (p[uniq[:, 0]] + p[uniq[:, 1]])
    bnd_set = {tuple(sorted(e)) for e in m.boundary_edges.tolist()}
    is_bnd = np.array([tuple(e) in bnd_set for e in uniq.tolist()])
    if m.boundary_projector is not None and np.any(is_bnd):
        midpoints[is_bnd] = m.boundary_projector(midpoints[is_bnd])
    verts = np.vstack([p, midpoints])
    m01, m12, m20 = (mid_ids[inv[k * nt:(k + 1) * nt]] for k in range(3))
    tris = np.concatenate([
        np.column_stack([t[:, 0], m01, m20]),
        np.column_stack([t[:, 1], m12, m01]),
        np.column_stack([t[:, 2], m20, m12]),
        np.column_stack([m01, m12, m20]),
    ])
    d1 = verts[tris[:, 1]] - verts[tris[:, 0]]
    d2 = verts[tris[:, 2]] - verts[tris[:, 0]]
    flip = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return verts, tris, _ref_extract_boundary_edges(tris)


def _ref_inherit_edge_tags(old, new):
    # nearest old boundary edge to each new boundary-edge midpoint
    mids = new.vertices[new.boundary_edges].mean(axis=1)
    a = old.vertices[old.boundary_edges[:, 0]]
    d = old.vertices[old.boundary_edges[:, 1]] - a
    tags = np.empty(new.num_boundary_edges, dtype=np.int64)
    for k, mid in enumerate(mids):
        tpar = np.clip(np.einsum("ij,ij->i", mid - a, d) / np.einsum("ij,ij->i", d, d), 0, 1)
        tags[k] = old.edge_tags[np.argmin(np.linalg.norm(a + tpar[:, None] * d - mid, axis=1))]
    return tags


def _relabelled(m, seed):
    perm = np.random.default_rng(seed).permutation(m.num_vertices)
    verts = np.empty_like(m.vertices)
    verts[perm] = m.vertices
    tris = perm[m.triangles]
    bedges = _ref_extract_boundary_edges(tris)
    return mesh.Mesh2D(verts, tris, m.tri_regions.copy(), bedges,
                       np.zeros(len(bedges), dtype=np.int64), m.boundary_projector)


@given(st.sampled_from(mesh.CANONICAL_SHAPES), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_edge_keys_match_rowwise_reference(shape, level, seed):
    m = _relabelled(mesh.generate_canonical(shape, level), seed)
    assert np.array_equal(mesh._extract_boundary_edges(m.triangles, m.num_vertices),
                          m.boundary_edges)
    fine = mesh.refine(m)
    verts, tris, bedges = _ref_refine_once(m)
    assert np.array_equal(fine.vertices, verts)
    assert np.array_equal(fine.triangles, tris)
    assert np.array_equal(fine.boundary_edges, bedges)


def _grown_cells(moves):
    """Grid cells grown from (0, 0): each move steps from an earlier cell
    to a side neighbour, so the union is edge-connected."""
    cells = [(0, 0)]
    for pick, side in moves:
        i, j = cells[pick % len(cells)]
        di, dj = ((1, 0), (0, 1), (-1, 0), (0, -1))[side]
        if (i + di, j + dj) not in cells:
            cells.append((i + di, j + dj))
    return cells


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), max_size=40),
       st.integers(0, 2**32 - 1))
def test_edge_table_matches_rowwise_reference(moves, seed):
    m = _relabelled(mesh._cell_grid_mesh(_grown_cells(moves), (0.0, 0.0), 1.0), seed)
    nv, t = m.num_vertices, m.triangles
    keys, edge = mesh._edge_table(mesh._triangle_edges(t), nv)
    assert np.all(np.diff(keys) > 0)
    assert np.array_equal(keys[edge], mesh._edge_keys(mesh._triangle_edges(t), nv))
    single = np.sort(_ref_extract_boundary_edges(t), axis=1)
    assert np.array_equal(np.column_stack(np.divmod(keys[np.bincount(edge) == 1], nv)),
                          single[np.lexsort(single.T[::-1])])
    # the pattern scipy gives the summed element matrices, sorted columns
    t32 = t.astype(np.int32)
    ref = sp.coo_matrix((np.ones(9 * len(t)), (np.repeat(t32, 3, axis=1).ravel(),
                                               np.tile(t32, (1, 3)).ravel())),
                        shape=(nv, nv)).tocsr()
    ref.sort_indices()
    indptr, indices = fem._p1_pattern(t, nv)[:2]
    assert np.array_equal(indptr, ref.indptr) and indptr.dtype == ref.indptr.dtype
    assert np.array_equal(indices, ref.indices) and indices.dtype == ref.indices.dtype


def test_edge_keys_are_sorted_once_per_consumer(monkeypatch):
    m = mesh.generate_canonical("disk", 3)
    f = fem.FieldSet.from_constants(m)
    calls = []
    table = mesh._edge_table

    def counted(edges, nv):
        calls.append(len(edges))
        return table(edges, nv)

    monkeypatch.setattr(mesh, "_edge_table", counted)
    monkeypatch.setattr(fem, "_edge_table", counted)
    fem.assemble_forms(m, f)
    fem.mass_matrix(m, f.sigma)
    fem.eta_variation(m, "step")
    assert calls == [3 * m.num_triangles] * 2  # one per P1 pattern
    calls.clear()
    mesh.refine(m, 2)
    # one per level, the first shared with the boundary positions; the
    # child's validate counts its edges without the inverse
    assert calls == [3 * m.num_triangles * 4 ** k for k in range(2)]


def _containing_edge_tags(base, m):
    """Tag of the straight base edge that contains each boundary edge of m."""
    a = base.vertices[base.boundary_edges[:, 0]]
    d = base.vertices[base.boundary_edges[:, 1]] - a
    tags = []
    for e in m.boundary_edges:
        r = m.vertices[e][:, None, :] - a[None]  # (2, nb_base, 2)
        cross = np.abs(r[..., 0] * d[:, 1] - r[..., 1] * d[:, 0]).max(axis=0)
        tpar = np.einsum("kij,ij->ki", r, d) / np.einsum("ij,ij->i", d, d)
        inside = (cross < 1e-12) & np.all((tpar > -1e-12) & (tpar < 1 + 1e-12), axis=0)
        assert inside.sum() == 1
        tags.append(int(base.edge_tags[inside.argmax()]))
    return np.array(tags)


def test_refinement_inherits_parent_edge_tags():
    base = mesh.generate_canonical("square", 1)
    base = dataclasses.replace(
        base, edge_tags=np.arange(1, base.num_boundary_edges + 1, dtype=np.int64))
    once = mesh.refine(base)
    for twice in (mesh.refine(base, 2), mesh.refine(once)):
        assert np.array_equal(twice.edge_tags, _containing_edge_tags(base, twice))
        assert np.array_equal(twice.edge_tags, _ref_inherit_edge_tags(once, twice))


def test_curved_refinement_inherits_tags_like_nearest_edge():
    disk = mesh.generate_canonical("disk", 2)
    disk = dataclasses.replace(
        disk, edge_tags=np.random.default_rng(7).integers(1, 5, disk.num_boundary_edges))
    fine = mesh.refine(disk)
    assert np.array_equal(fine.edge_tags, _ref_inherit_edge_tags(disk, fine))


@pytest.mark.parametrize("tagged", [False, True])
def test_refinement_validates_each_mesh_once(monkeypatch, tagged):
    base = mesh.generate_canonical("square", 1)
    if tagged:
        base = dataclasses.replace(
            base, edge_tags=np.arange(1, base.num_boundary_edges + 1, dtype=np.int64))
    calls = []
    validate = mesh.Mesh2D.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(mesh.Mesh2D, "validate", counted)
    fine = mesh.refine(base, 3)
    assert len(calls) == 1
    assert calls[0] is fine


def test_refinement_rejects_a_child_inverted_at_an_intermediate_level():
    # the projector throws the first level's boundary midpoints across the
    # square and leaves later ones alone: only the returned mesh is
    # validated, and it inherits the inverted children
    calls = []

    def projector(points):
        calls.append(len(points))
        return -points if len(calls) == 1 else points

    base = dataclasses.replace(mesh.generate_canonical("square", 1),
                               boundary_projector=projector)
    with pytest.raises(ValueError, match="negatively oriented"):
        mesh.refine(base, 3)
    assert len(calls) == 3


def test_refinement_tags_ignore_boundary_edge_order_and_orientation():
    base = mesh.generate_canonical("disk", 2)
    base = dataclasses.replace(
        base, edge_tags=np.random.default_rng(11).integers(1, 5, base.num_boundary_edges))
    perm = np.random.default_rng(12).permutation(base.num_boundary_edges)
    shuffled = dataclasses.replace(base, boundary_edges=base.boundary_edges[perm, ::-1],
                                   edge_tags=base.edge_tags[perm])
    once, twice = mesh.refine(shuffled), mesh.refine(shuffled, 2)
    assert np.array_equal(once.edge_tags, _ref_inherit_edge_tags(base, once))
    assert np.array_equal(twice.edge_tags, _ref_inherit_edge_tags(once, twice))
    for got, want in ((once, mesh.refine(base)), (twice, mesh.refine(base, 2))):
        assert np.array_equal(got.boundary_edges, want.boundary_edges)
        assert np.array_equal(got.edge_tags, want.edge_tags)


# --------------------------------------------------- bit-identity of the meshes
#
# sha256 (first 16 hex digits) over vertices, triangles, tri_regions,
# boundary_edges and edge_tags, in that order, at levels 1-6.

MESH_DIGESTS = {
    "disk": ["c652a3f283a219f4", "776dee51fa9a36c4", "64ca3a5f4bed6ae6",
             "537a491d04d0872c", "0ec3a7fa978b7573", "5b52f4e3de9fdfab"],
    "square": ["308cd98715c75e34", "63b3fc7c0e102652", "a4f4984866a3de77",
               "03c4e85d25e31770", "b3e9a8f560f2a330", "28bbdf4c2ea39509"],
    "equilateral_triangle": ["37bb65d1d214b508", "2d672a806af424a5", "a1d431129b36b9ef",
                             "f5b818b387d4e12e", "a981b8227fe7f29a", "4787d50f8b2a8592"],
    "cross": ["881b6e865995bd2e", "9ac93d113dca0d01", "6413fdb70aad7cf6",
              "a31b3fec5640cfdb", "8e18e5a58e0e794c", "5ae4634d16a0d8fd"],
}


@pytest.mark.parametrize("shape", mesh.CANONICAL_SHAPES)
def test_canonical_meshes_are_bit_identical(shape):
    got = []
    for level in range(1, 7):
        m = mesh.generate_canonical(shape, level)
        got.append(array_digest(m.vertices, m.triangles, m.tri_regions,
                                m.boundary_edges, m.edge_tags))
    assert got == MESH_DIGESTS[shape]
