"""Local L2 projections onto polynomial spaces on cells and edges.

The projection family used by the weak Galerkin scheme of order k:

* the combined projection into the WG space: the cell vector projection
  onto [P_k(T)]^2 and the edge vector projection onto [P_k(e)]^2,
* cell scalar projection onto P_{k-1}(T),
* cell matrix projection onto [P_{k-1}(T)]^{2x2} (componentwise scalar).

Fields are supplied as vectorized callables: ``f(x, y)`` receives
coordinate arrays of a common shape and returns an array of shape
``(..., 2)`` for vector fields, ``(...)`` for scalar fields and
``(..., 2, 2)`` for matrix fields.

All projections solve local Gram systems with quadrature-assembled
right-hand sides at exactness 2k+2, hence they are exact on polynomial
inputs of degree up to k+2.  The cell projections of order k read one cell
table, built by ``_cell_setup`` and shared with the WG pack: the P_{k-1}
projections use leading slices of its P_k values and Gram matrices.  The table
holds one entry per class of triangles equal up to translation (``_classes``);
each triangle reads its class's entry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ._quadmap import cell_quadrature, edge_quadrature
from .errors import DegenerateElementError
from .mesh import Mesh, _build_topology
from .polyquad import CellBasis, cell_basis_dim, edge_basis

__all__ = [
    "project_cell_scalar",
    "project_cell_matrix",
    "project_global",
]


def _solve_gram(G, mom):
    """Coefficients c, shape (n, ..., dim), of G c = mom per entity and component."""
    rhs = mom.reshape(len(mom), -1, G.shape[-1]).transpose(0, 2, 1)
    try:
        sol = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateElementError("singular local Gram matrix") from exc
    return sol.transpose(0, 2, 1).reshape(mom.shape)


def _classes(m: Mesh):
    """Triangles up to translation: (local, cls).  local is a mesh of one disjoint
    triangle per class with its first vertex at the origin; cls (nt,) is the class
    of each triangle.  A class shares, exactly, the Jacobian, h_T and the direction
    of each edge (smaller to larger vertex index), which orients the edge basis."""
    J, tri, h = m.jacobians(), m.triangles, m.h_per_element
    bits = tri[:, [1, 2, 0]] < tri[:, [2, 0, 1]]
    key = np.concatenate([J.reshape(-1, 4), h[:, None], bits], axis=1)
    _, rep, cls = np.unique(key, axis=0, return_index=True, return_inverse=True)
    nc = len(rep)
    # local vertex j of class c is 3 c + its rank in the triangle: every edge keeps its direction
    local_tri = 3 * np.arange(nc)[:, None] + tri[rep].argsort(axis=1).argsort(axis=1)
    verts = np.empty((3 * nc, 2))
    verts[local_tri] = np.concatenate([np.zeros((nc, 1, 2)), J[rep].transpose(0, 2, 1)], axis=1)
    return replace(_build_topology(verts, local_tri), h_per_element=h[rep]), cls.ravel()


def _drop_noise(X: np.ndarray) -> np.ndarray:
    """X without its rounding noise: entries below 64 eps of their block's largest."""
    X[np.abs(X) < 64 * np.finfo(float).eps * np.abs(X).max(axis=(-2, -1), keepdims=True)] = 0.0
    return X


def _cell_setup(m: Mesh, k: int) -> dict:
    """Cell table of order k per class of m's triangles (see _classes): quadrature
    exact to degree 2k+2 on the class's local triangle, points pts (nc, nq, 2) from
    its first vertex and weights w (nc, nq), the P_k basis, its values phi
    (nc, nq, dim P_k) and Gram matrices Mphi (nc, dim, dim), without their noise."""
    local, cls = _classes(m)
    pts, w = cell_quadrature(local, 2 * k + 2)
    basis = CellBasis(k, local.centroids(), local.h_per_element)
    phi = basis.evaluate(pts)
    Mphi = _drop_noise(np.einsum("tq,tqi,tqj->tij", w, phi, phi))
    return {"local": local, "cls": cls, "basis": basis, "pts": pts, "w": w, "phi": phi,
            "Mphi": Mphi}


def _cell_moments(f, m: Mesh, table) -> np.ndarray:
    """Moments (f, phi_a)_T against the table's basis, shape (nt, ..., dim P_k), with
    f evaluated at the physical quadrature points of m's triangles."""
    cls = table["cls"]
    pts = m.vertices[m.triangles[:, 0]][:, None, :] + table["pts"][cls]
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    del pts
    return np.einsum("tq,tqa,tq...->t...a", table["w"][cls], table["phi"][cls], vals)


def _project(f, m: Mesh, table, dim: int) -> np.ndarray:
    """L2 projection onto the leading dim basis functions, shape (nt, ..., dim)."""
    Mphi = table["Mphi"][table["cls"], :dim, :dim]
    return _solve_gram(Mphi, _cell_moments(f, m, table)[..., :dim])


def project_cell_scalar(f, m: Mesh, k: int) -> np.ndarray:
    """L2-project the scalar field f onto P_{k-1}(T) on every element.

    Returns coefficients of shape (nt, dim P_{k-1}).
    """
    if k < 1:
        raise ValueError("scheme order k must be >= 1")
    return _project(f, m, _cell_setup(m, k), cell_basis_dim(k - 1))


def project_cell_matrix(F, m: Mesh, k: int) -> np.ndarray:
    """L2-project the 2x2 matrix field F componentwise onto P_{k-1}(T).

    Returns coefficients of shape (nt, 2, 2, dim P_{k-1}).
    """
    if k < 1:
        raise ValueError("scheme order k must be >= 1")
    return _project(F, m, _cell_setup(m, k), cell_basis_dim(k - 1))


def project_edge(f, m: Mesh, k: int) -> np.ndarray:
    """L2-project the vector field f onto [P_k(e)]^2 on every edge.

    Returns coefficients of shape (ne, 2, k+1) in the canonical edge
    parameterization.
    """
    t, pts, w = edge_quadrature(m, 2 * k + 2)
    chi = edge_basis(k, t)  # (nqe, k+1)
    gram = np.einsum("eq,qi,qj->eij", w, chi, chi)
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    return _solve_gram(gram, np.einsum("eq,qi,eqc->eci", w, chi, vals))


def project_global(f, space) -> "WgFunction":  # noqa: F821
    """Combined projection {Q_0 f, Q_b f} into the WG space.

    Dirichlet-edge coefficients are kept as computed; they vanish exactly
    when f vanishes on the Dirichlet boundary.
    """
    from .wg import WgFunction

    cell = _project(f, space.mesh, space.pack(), space.nk)
    edge = project_edge(f, space.mesh, space.order)
    coeffs = np.empty(space.num_dofs)
    coeffs[: space.num_interior_dofs] = cell.reshape(-1)
    coeffs[space.num_interior_dofs:] = edge.reshape(-1)
    return WgFunction(space=space, coeffs=coeffs)
