"""Triangulations of the unit square and L-shaped domains.

Meshes carry full edge topology (edge -> incident triangles, triangle ->
edges) plus a mask of the Dirichlet edges.  All meshes are conforming
triangulations; construction routines produce the structured uniform
diagonal-split pattern.  A mesh is immutable after construction:
classify_boundary returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Mesh",
    "build_square_mesh",
    "build_lshape_mesh",
    "refine_uniform",
    "classify_boundary",
    "full_dirichlet",
    "bottom_dirichlet",
]


def full_dirichlet():
    """Predicate marking the whole boundary as Dirichlet."""
    return lambda x, y: True


def bottom_dirichlet():
    """Predicate marking only the bottom side y=0 as Dirichlet."""
    return lambda x, y: abs(y) < 1e-10


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with edge topology.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    edges : (ne, 2) int array
        Vertex index pairs, smaller index first.
    edge_tris : (ne, 2) int array
        Incident triangles; column 1 is -1 for boundary edges.  For
        interior edges column 0 holds T+ (the smaller triangle index), so
        the edge normal points from T+ to T-.
    tri_edges : (nt, 3) int array
        Global edge index of each local edge; local edge l is opposite
        local vertex l.
    dirichlet : (ne,) bool array
        True on the Dirichlet boundary edges; never on an interior edge.
    h_per_element : (nt,) float array
        Element diameters (longest edge).
    h_global : float
        max over elements of h_T.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray = field(repr=False, default=None)
    edge_tris: np.ndarray = field(repr=False, default=None)
    tri_edges: np.ndarray = field(repr=False, default=None)
    dirichlet: np.ndarray = field(repr=False, default=None)
    h_per_element: np.ndarray = field(repr=False, default=None)
    h_global: float = 0.0

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.where(self.edge_tris[:, 1] < 0)[0]

    @property
    def interior_edges(self) -> np.ndarray:
        return np.where(self.edge_tris[:, 1] >= 0)[0]

    @property
    def dirichlet_edges(self) -> np.ndarray:
        return np.flatnonzero(self.dirichlet)

    def edge_lengths(self) -> np.ndarray:
        return _lengths(self.vertices, self.edges)

    def edge_midpoints(self) -> np.ndarray:
        p = self.vertices
        return 0.5 * (p[self.edges[:, 0]] + p[self.edges[:, 1]])

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def areas(self) -> np.ndarray:
        return 0.5 * np.abs(_cross(self.vertices, self.triangles))

    def jacobians(self) -> np.ndarray:
        """Affine maps of the reference triangle, shape (nt, 2, 2)."""
        return _jacobians(self.vertices, self.triangles)

    def outward_normals(self) -> np.ndarray:
        """Outward unit normals, shape (nt, 3, 2), per local edge."""
        p = self.vertices[self.triangles]
        # tangent of local edge l (vertex l + 1 to l + 2) turned by -90 degrees: outward
        t = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
        n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1)[..., None]


def _jacobians(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Columns p1 - p0 and p2 - p0 of each triangle, shape (nt, 2, 2)."""
    p = vertices[triangles]
    return np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)


def _lengths(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of each edge, given as (ne, 2) vertex index pairs."""
    d = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    return np.hypot(d[:, 0], d[:, 1])


def _cross(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle (positive when counterclockwise)."""
    J = _jacobians(vertices, triangles)
    return J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]


def _build_topology(vertices: np.ndarray, triangles: np.ndarray) -> Mesh:
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)

    # enforce counterclockwise orientation
    flip = _cross(vertices, triangles) < 0
    if np.any(flip):
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

    nt, nv = len(triangles), len(vertices)
    # local edge l is opposite local vertex l; the key lo * nv + hi sorts
    # like the vertex pair (lo, hi)
    raw = triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)
    keys, inverse = np.unique(
        raw.min(axis=1) * nv + raw.max(axis=1), return_inverse=True
    )
    edges = np.stack([keys // nv, keys % nv], axis=1)
    tri_edges = inverse.reshape(nt, 3)

    ne = len(edges)
    counts = np.bincount(inverse, minlength=ne)
    if np.any(counts > 2):
        raise ValueError("non-manifold triangulation")
    # entries grouped by edge, ascending triangle index within each group,
    # so T+ (the smaller triangle index) comes first
    tri_of_entry = np.argsort(inverse, kind="stable") // 3
    start = np.cumsum(counts) - counts
    edge_tris = np.full((ne, 2), -1, dtype=np.int64)
    edge_tris[:, 0] = tri_of_entry[start]
    shared = counts == 2
    edge_tris[shared, 1] = tri_of_entry[start[shared] + 1]

    h_per_element = _lengths(vertices, edges)[tri_edges].max(axis=1)

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        tri_edges=tri_edges,
        dirichlet=np.zeros(ne, dtype=bool),
        h_per_element=h_per_element,
        h_global=float(h_per_element.max()),
    )


def _structured_cells(nx: int, ny: int, x0: float, y0: float, h: float):
    """Vertices/triangles of an nx-by-ny grid of cells, diagonal SW->NE."""
    xs = x0 + h * np.arange(nx + 1)
    ys = y0 + h * np.arange(ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([X.ravel(), Y.ravel()], axis=1)

    # cell (i, j), i-major, has corners a=(i,j), b=(i+1,j), c=(i+1,j+1), d=(i,j+1)
    a = (np.arange(nx, dtype=np.int64)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    b = a + (ny + 1)
    c, d = b + 1, a + 1
    # split along the diagonal a -> c
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return verts, tris


def build_square_mesh(n: int) -> Mesh:
    """Uniform mesh of the unit square with n x n cells, 2n^2 triangles."""
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    verts, tris = _structured_cells(n, n, 0.0, 0.0, 1.0 / n)
    return _build_topology(verts, tris)


def build_lshape_mesh(n: int) -> Mesh:
    """Uniform mesh of the L-shaped domain (0,2)^2 minus (1,2)^2.

    n is the number of subdivisions per unit length; the mesh has 6n^2
    triangles: the 2n-by-2n grid of (0,2)^2 without its upper-right quadrant.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    verts, tris = _structured_cells(2 * n, 2 * n, 0.0, 0.0, 1.0 / n)
    # unit square of each cell (i, j): 0 lower-left, 1 lower-right, 2 upper-left, 3 upper-right
    # (dropped); the stable sort keeps cells i-major, np.unique keeps vertices x-then-y
    i, j = np.divmod(np.arange(len(tris)) // 2, 2 * n)
    square = (i >= n) + 2 * (j >= n)
    tris = tris[np.argsort(square, kind="stable")[: 6 * n * n]]
    used, tris = np.unique(tris, return_inverse=True)
    return _build_topology(verts[used], tris.reshape(-1, 3))


def refine_uniform(m: Mesh) -> Mesh:
    """Red refinement: each triangle split into 4 congruent children.

    The two halves of each Dirichlet edge are Dirichlet.
    """
    nv = m.num_vertices
    new_verts = np.vstack([m.vertices, m.edge_midpoints()])

    t = m.triangles
    m0, m1, m2 = (nv + m.tri_edges).T  # midpoint vertex of each local edge
    children = np.concatenate(
        [
            np.stack([t[:, 0], m2, m1], axis=1),
            np.stack([t[:, 1], m0, m2], axis=1),
            np.stack([t[:, 2], m1, m0], axis=1),
            np.stack([m0, m1, m2], axis=1),
        ]
    )
    refined = _build_topology(new_verts, children)

    # a boundary child edge joins a parent vertex to the midpoint nv + e of
    # its parent edge e, so its larger vertex id names the parent
    b = refined.boundary_edges
    dirichlet = refined.dirichlet.copy()
    dirichlet[b] = m.dirichlet[refined.edges[b, 1] - nv]
    return replace(refined, dirichlet=dirichlet)


def classify_boundary(m: Mesh, predicate) -> Mesh:
    """Mark the Dirichlet boundary edges.

    ``predicate(x, y)`` is called once, with the (nb,) float arrays of the
    boundary-edge midpoint coordinates.  It returns an (nb,) boolean array,
    or a scalar that applies to every edge.  Edges where it is True are
    Dirichlet, the rest of the boundary is traction-free.

    Raises ValueError when the predicate selects no Dirichlet edge (the
    eigenvalue problem needs |Gamma_D| > 0).
    """
    b = m.boundary_edges
    x, y = m.edge_midpoints()[b].T
    dirichlet = np.broadcast_to(np.asarray(predicate(x, y), dtype=bool), b.shape)
    if not dirichlet.any():
        raise ValueError("boundary predicate selects no Dirichlet edge")
    mask = np.zeros(m.num_edges, dtype=bool)
    mask[b] = dirichlet
    return replace(m, dirichlet=mask)
