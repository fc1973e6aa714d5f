"""Local L2 projections onto polynomial spaces on cells and edges.

The projection family used by the weak Galerkin scheme of order k:

* cell vector projection onto [P_k(T)]^2,
* edge vector projection onto [P_k(e)]^2,
* cell scalar projection onto P_{k-1}(T),
* cell matrix projection onto [P_{k-1}(T)]^{2x2} (componentwise scalar),
* the combined interior/edge projection into the WG space.

Fields are supplied as vectorized callables: ``f(x, y)`` receives
coordinate arrays of a common shape and returns an array of shape
``(..., 2)`` for vector fields, ``(...)`` for scalar fields and
``(..., 2, 2)`` for matrix fields.

All projections solve local Gram systems with quadrature-assembled
right-hand sides at exactness 2k+2, hence they are exact on polynomial
inputs of degree up to k+2.  The cell projections of order k read one cell
table, built by ``_cell_setup`` and shared with the WG pack: the P_{k-1}
projections use leading slices of its P_k values and Gram matrices.
"""

from __future__ import annotations

import numpy as np

from ._quadmap import cell_quadrature, edge_quadrature
from .errors import DegenerateElementError
from .mesh import Mesh
from .polyquad import CellBasis, cell_basis_dim, edge_basis

__all__ = [
    "project_cell",
    "project_edge",
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


def _cell_setup(m: Mesh, k: int) -> dict:
    """Cell table of order k: quadrature exact to degree 2k+2, the P_k basis,
    its values phi (nt, nq, dim P_k) and Gram matrices Mphi (nt, dim, dim)."""
    pts, w = cell_quadrature(m, 2 * k + 2)
    basis = CellBasis(k, m.centroids(), m.h_per_element)
    phi = basis.evaluate(pts)
    Mphi = np.einsum("tq,tqi,tqj->tij", w, phi, phi)
    return {"basis": basis, "pts": pts, "w": w, "phi": phi, "Mphi": Mphi}


def _cell_moments(f, table) -> np.ndarray:
    """Moments (f, phi_a)_T against the table's basis, shape (nt, ..., dim P_k)."""
    pts = table["pts"]
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    return np.einsum("tq,tqa,tq...->t...a", table["w"], table["phi"], vals)


def _project(f, table, dim: int) -> np.ndarray:
    """L2 projection onto the leading dim basis functions, shape (nt, ..., dim)."""
    return _solve_gram(table["Mphi"][:, :dim, :dim], _cell_moments(f, table)[..., :dim])


def project_cell(f, m: Mesh, k: int) -> np.ndarray:
    """L2-project the vector field f onto [P_k(T)]^2 on every element.

    Returns coefficients of shape (nt, 2, dim P_k).
    """
    return _project(f, _cell_setup(m, k), cell_basis_dim(k))


def project_cell_scalar(f, m: Mesh, k: int) -> np.ndarray:
    """L2-project the scalar field f onto P_{k-1}(T) on every element.

    Returns coefficients of shape (nt, dim P_{k-1}).
    """
    if k < 1:
        raise ValueError("scheme order k must be >= 1")
    return _project(f, _cell_setup(m, k), cell_basis_dim(k - 1))


def project_cell_matrix(F, m: Mesh, k: int) -> np.ndarray:
    """L2-project the 2x2 matrix field F componentwise onto P_{k-1}(T).

    Returns coefficients of shape (nt, 2, 2, dim P_{k-1}).
    """
    if k < 1:
        raise ValueError("scheme order k must be >= 1")
    return _project(F, _cell_setup(m, k), cell_basis_dim(k - 1))


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

    cell = _project(f, space.pack(), space.nk)
    edge = project_edge(f, space.mesh, space.order)
    coeffs = np.empty(space.num_dofs)
    coeffs[: space.num_interior_dofs] = cell.reshape(-1)
    coeffs[space.num_interior_dofs:] = edge.reshape(-1)
    return WgFunction(space=space, coeffs=coeffs)
