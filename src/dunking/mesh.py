"""Triangular meshes for the canonical 2D dunking domains.

Provides the four canonical shapes (disk, square, equilateral triangle,
plus-shaped cross), uniform red refinement with curved-boundary projection,
and geometry statistics.

All canonical shapes are centered at their centroid.  Successive resolutions
are nested: ``generate_canonical(shape, r)`` equals the base mesh refined
``r - 1`` times.  Refinement steps plain arrays from level to level and
takes each level's boundary edges from its parent's; only the mesh that
`refine` returns is built and validated.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional

import numpy as np

CANONICAL_SHAPES = ("disk", "square", "equilateral_triangle", "cross")


@dataclasses.dataclass(frozen=True, eq=False)
class Mesh2D:
    """Conforming triangle mesh: an immutable value, valid whenever it exists.

    vertices       : (nv, 2) float array
    triangles      : (nt, 3) int array, CCW orientation (positive area)
    tri_regions    : (nt,) int region tag per triangle (default 0)
    boundary_edges : (nb, 2) int array; exactly the edges incident to one triangle
    edge_tags      : (nb,) int boundary tag per edge (default 0)
    boundary_projector : optional callable mapping (m, 2) points onto the exact
        curved boundary; applied to new boundary vertices during refinement.

    Construction validates the mesh and keeps read-only views (not copies)
    of the five arrays.  `refine` builds only the mesh it returns: the
    levels in between are arrays, checked through the result.  Triangle
    areas, boundary edge lengths and `geometry_stats` are computed once, on
    first use, and cached read-only.
    Build a modified mesh with `dataclasses.replace`: it is validated anew
    and starts with an empty cache.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_regions: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    boundary_projector: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        for f in dataclasses.fields(self)[:5]:  # the five arrays
            view = _read_only(np.asarray(getattr(self, f.name)).view())
            object.__setattr__(self, f.name, view)
        self.validate()

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]

    @functools.cached_property
    def _areas(self) -> np.ndarray:
        return _read_only(_signed_areas(self.vertices, self.triangles))

    @functools.cached_property
    def _edge_lengths(self) -> np.ndarray:
        p, e = self.vertices, self.boundary_edges
        return _read_only(np.linalg.norm(p[e[:, 1]] - p[e[:, 0]], axis=1))

    @functools.cached_property
    def _stats(self) -> GeometryStats:
        areas = self._areas
        area = float(areas.sum())
        perimeter = float(self._edge_lengths.sum())
        p, t = self.vertices, self.triangles
        centroid = tuple((areas @ ((p[t[:, 0]] + p[t[:, 1]] + p[t[:, 2]]) / 3)) / area)
        # the farthest pair of vertices lies on the convex hull, whose
        # vertices are boundary vertices
        diameter = _diameter(self.vertices[np.unique(self.boundary_edges)])
        return GeometryStats(area, perimeter, perimeter / area, diameter, centroid)

    def triangle_areas(self) -> np.ndarray:
        return self._areas

    def edge_lengths(self) -> np.ndarray:
        return self._edge_lengths

    def validate(self) -> None:
        """Check mesh consistency; raises ValueError on any defect."""
        nv = self.num_vertices
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            bad = int(np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))[0])
            raise ValueError(f"vertex {bad} has a non-finite coordinate")
        for name, arr, k in (("triangles", self.triangles, 3),
                             ("boundary_edges", self.boundary_edges, 2)):
            if arr.ndim != 2 or arr.shape[1] != k or not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must be an integer (n, {k}) array")
            # checked before any edge key is formed: an index >= nv would
            # alias the key of another edge
            if arr.min(initial=0) < 0 or arr.max(initial=-1) >= nv:
                raise ValueError(f"{name} vertex index out of range")
        areas = self._areas
        if not np.all(areas > 0.0):
            bad = int(np.flatnonzero(~(areas > 0.0))[0])
            raise ValueError(
                f"triangle {bad} is degenerate or negatively oriented (area {areas[bad]:g})"
            )
        # boundary_edges must be exactly the edges incident to a single
        # triangle, each listed once (in either orientation)
        keys = np.sort(_edge_keys(_triangle_edges(self.triangles), nv))
        single = np.ones(keys.shape[0] + 1, dtype=bool)
        single[1:-1] = keys[1:] != keys[:-1]
        want = keys[single[:-1] & single[1:]]  # keys that occur exactly once
        got = np.sort(_edge_keys(self.boundary_edges, nv))
        if not np.array_equal(got, want):
            raise ValueError("boundary_edges do not match the edges incident to one triangle")
        if self.tri_regions.shape != (self.num_triangles,):
            raise ValueError("tri_regions must have one tag per triangle")
        if self.edge_tags.shape != (self.num_boundary_edges,):
            raise ValueError("edge_tags must have one tag per boundary edge")
        _check_connected(self.triangles, nv)


@dataclasses.dataclass(frozen=True)
class GeometryStats:
    area: float
    perimeter: float
    gamma: float       # perimeter / area
    diameter: float    # max pairwise vertex distance
    centroid: tuple


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    d1 = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
    d2 = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Indices of the convex-hull vertices of 2-D points, by Andrew's
    monotone chain (1979): the lower, then the upper chain of the points
    sorted by (x, y).  Points inside an edge and repeated points are left
    out."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order].tolist()
    chains = []
    for idx in (range(len(pts)), range(len(pts) - 1, -1, -1)):
        chain = []
        for k in idx:
            bx, by = pts[k]
            while len(chain) >= 2:
                ox, oy = pts[chain[-2]]
                ax, ay = pts[chain[-1]]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:
                    break
                chain.pop()
            chain.append(k)
        chains += chain[:-1]  # each chain's last point starts the other
    return order[chains]


def _diameter(points: np.ndarray) -> float:
    """Max pairwise distance of two or more points, in O(hull) memory."""
    if len(points) < 2:
        raise ValueError(f"a diameter needs two or more points, got {len(points)}")
    hull = points[_hull_vertices(points)]
    d2 = max(((hull[i + 1:] - hull[i]) ** 2).sum(axis=1).max()
             for i in range(hull.shape[0] - 1))
    return float(np.sqrt(d2))


def _edge_keys(edges: np.ndarray, nv: int) -> np.ndarray:
    """One int64 key per undirected edge, min(i, j) * nv + max(i, j).

    For indices in [0, nv) sorting the keys orders edges exactly as a
    lexicographic sort of the (min, max) rows does.
    """
    edges = edges.astype(np.int64, copy=False)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return lo * nv + hi


def _triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """Directed edges (0,1), (1,2), (2,0) of every triangle, in that block order."""
    return np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )


def _extract_boundary_edges(triangles: np.ndarray, nv: int) -> np.ndarray:
    edges = _triangle_edges(triangles)
    _, inv, counts = np.unique(_edge_keys(edges, nv), return_inverse=True, return_counts=True)
    # keep original orientation of the single-owner edges
    return edges[counts[inv] == 1]


def _check_connected(triangles: np.ndarray, nv: int) -> None:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    # edges (0, 1) and (0, 2) join the three vertices of a triangle; int32
    # and float64 are the index and value types csgraph works in
    t = triangles.astype(np.int32)
    adj = csr_matrix((np.ones(2 * t.shape[0]), (np.repeat(t[:, 0], 2), t[:, 1:].ravel())),
                     shape=(nv, nv))
    ncomp, _ = connected_components(adj, directed=False)
    if ncomp != 1:
        raise ValueError(f"mesh is not connected ({ncomp} components)")


def _finalize(vertices, triangles, projector=None) -> Mesh2D:
    """Orient the triangles CCW, extract the boundary and build a base mesh
    whose region and boundary tags are all 0."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    flip = _signed_areas(vertices, triangles) < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    bedges = _extract_boundary_edges(triangles, vertices.shape[0])
    return Mesh2D(vertices, triangles, np.zeros(triangles.shape[0], dtype=np.int64), bedges,
                  np.zeros(bedges.shape[0], dtype=np.int64), projector)


# ---------------------------------------------------------------- canonical shapes

def _disk_projector(points: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(points, axis=1, keepdims=True)
    return points / np.where(r == 0.0, 1.0, r)


def _base_disk() -> Mesh2D:
    # octagon fan around the center; vertices at angles k*pi/4 include (+-1, 0),
    # which pins the step-variation jump locations onto the mesh at every level
    ang = np.arange(8) * (np.pi / 4.0)
    verts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    tris = [[0, 1 + k, 1 + (k + 1) % 8] for k in range(8)]
    return _finalize(verts, tris, projector=_disk_projector)


def _cell_grid_mesh(cells, origin, h) -> Mesh2D:
    """Union of square cells (i, j), each split into two triangles with
    alternating diagonals (preserves both axis reflections)."""
    vid = {}
    verts = []

    def node(i, j):
        if (i, j) not in vid:
            vid[(i, j)] = len(verts)
            verts.append((origin[0] + i * h, origin[1] + j * h))
        return vid[(i, j)]

    tris = []
    for (i, j) in cells:
        a, b = node(i, j), node(i + 1, j)
        c, d = node(i + 1, j + 1), node(i, j + 1)
        if (i + j) % 2 == 0:
            tris += [[a, b, c], [a, c, d]]
        else:
            tris += [[a, b, d], [b, c, d]]
    return _finalize(np.array(verts), tris)


def _base_square() -> Mesh2D:
    cells = [(i, j) for i in range(2) for j in range(2)]
    return _cell_grid_mesh(cells, origin=(-0.5, -0.5), h=0.5)


def _base_cross() -> Mesh2D:
    # five unit squares (plus sign) built from 0.5-cells; mesh lines at x=0 / y=0
    cells = []
    for i in range(6):
        for j in range(6):
            cx = -1.5 + (i + 0.5) * 0.5
            cy = -1.5 + (j + 0.5) * 0.5
            if abs(cx) < 0.5 or abs(cy) < 0.5:
                cells.append((i, j))
    return _cell_grid_mesh(cells, origin=(-1.5, -1.5), h=0.5)


def _base_triangle() -> Mesh2D:
    # unit equilateral triangle centered at the centroid.  The two points where
    # the slanted edges cross y=0 are *not* dyadic, so they are base vertices
    # (keeps the step-variation jump on the mesh under refinement).
    s3 = np.sqrt(3.0)
    a = (-0.5, -s3 / 6.0)
    b = (0.5, -s3 / 6.0)
    c = (0.0, s3 / 3.0)
    pr = (1.0 / 3.0, 0.0)   # on edge b-c
    pl = (-1.0 / 3.0, 0.0)  # on edge c-a
    o = (0.0, 0.0)
    verts = [o, a, b, pr, c, pl]
    tris = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1]]
    return _finalize(verts, tris)


_BASE_BUILDERS = {
    "disk": _base_disk,
    "square": _base_square,
    "equilateral_triangle": _base_triangle,
    "cross": _base_cross,
}


def generate_canonical(shape: str, resolution: int = 1) -> Mesh2D:
    """Build a canonical mesh; resolution r >= 1 is the base refined r-1 times."""
    if shape not in CANONICAL_SHAPES:
        raise ValueError(f"unknown shape {shape!r}; choose from {CANONICAL_SHAPES}")
    if not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise ValueError("resolution must be an integer >= 1")
    return refine(_BASE_BUILDERS[shape](), resolution - 1)


def refine(mesh: Mesh2D, times: int = 1) -> Mesh2D:
    """Uniform red refinement (each triangle into four similar ones).

    Region and boundary tags are inherited; midpoints of boundary edges are
    projected onto the exact boundary when the mesh carries a projector.
    The intermediate levels are plain arrays: only the returned mesh is
    built and validated, so a child that the projector inverts at any
    level is reported as a negatively oriented triangle.
    """
    if times < 0:
        raise ValueError("times must be >= 0")
    if times == 0:
        return mesh
    p, t = mesh.vertices, mesh.triangles
    bpos, tags = _boundary_positions(mesh)
    for _ in range(times):
        p, t, bpos, order = _refine_arrays(p, t, bpos, mesh.boundary_projector)
        tags = np.concatenate([tags, tags])[order]
    block, tri = np.divmod(bpos, t.shape[0])
    bedges = np.column_stack([t[tri, block], t[tri, (block + 1) % 3]])
    return Mesh2D(p, t, np.tile(mesh.tri_regions, 4 ** times), bedges, tags,
                  mesh.boundary_projector)


def _boundary_positions(mesh: Mesh2D):
    """Positions of the boundary edges among `_triangle_edges(triangles)`,
    ascending (the order `_extract_boundary_edges` returns them in), and
    their tags, matched by edge key."""
    nv = mesh.num_vertices
    keys = _edge_keys(_triangle_edges(mesh.triangles), nv)
    bkeys = _edge_keys(mesh.boundary_edges, nv)
    order = np.argsort(bkeys)
    idx = np.minimum(np.searchsorted(bkeys[order], keys), bkeys.shape[0] - 1)
    bpos = np.flatnonzero(bkeys[order[idx]] == keys)
    return bpos, mesh.edge_tags[order[idx[bpos]]]


def _refine_arrays(p, t, bpos, projector):
    """One red refinement step on arrays.

    `bpos` holds the positions of the boundary edges among the directed
    edges `_triangle_edges(t)`, ascending.  Returns the refined vertices
    and triangles, the positions of the refined boundary edges, and the
    order that takes the children (first halves of all parent edges, then
    second halves) to those positions.
    """
    nv, nt = p.shape[0], t.shape[0]
    ukeys, inv = np.unique(_edge_keys(_triangle_edges(t), nv), return_inverse=True)
    lo, hi = np.divmod(ukeys, nv)
    midpoints = 0.5 * (p[lo] + p[hi])

    # project midpoints of *boundary* edges onto the curved boundary
    if projector is not None:
        is_bnd = np.zeros(ukeys.shape[0], dtype=bool)
        is_bnd[inv[bpos]] = True
        midpoints[is_bnd] = projector(midpoints[is_bnd])

    newverts = np.vstack([p, midpoints])
    mid = inv + nv
    m01, m12, m20 = mid[:nt], mid[nt:2 * nt], mid[2 * nt:]
    # each child keeps its parent's orientation, so nothing is re-oriented:
    # a child that the projector inverts fails the final validation
    newtris = np.concatenate(
        [
            np.column_stack([t[:, 0], m01, m20]),
            np.column_stack([t[:, 1], m12, m01]),
            np.column_stack([t[:, 2], m20, m12]),
            np.column_stack([m01, m12, m20]),
        ],
        axis=0,
    )
    # Parent edge k of triangle e, at position k*nt + e, runs (a, b) with
    # midpoint m.  Corner child k (triangle k*nt + e) has (a, m) as its edge
    # 0, at that same position; corner child k+1 has (m, b) as its edge 2,
    # in the last block of the 4nt-triangle mesh's directed edges.
    block, tri = np.divmod(bpos, nt)
    child = np.concatenate([bpos, 8 * nt + ((block + 1) % 3) * nt + tri])
    order = np.argsort(child)
    return newverts, newtris, child[order], order


def geometry_stats(mesh: Mesh2D) -> GeometryStats:
    return mesh._stats
