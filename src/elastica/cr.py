"""Vector Crouzeix-Raviart nonconforming element for the elastic eigenproblem.

One vector degree of freedom per edge: the edge mean value.  Functions are
piecewise affine and continuous in edge-mean only; the scheme penalizes
interior-edge jumps with the vanishing weight gamma(h) 2 mu / h_e, which is
what produces asymptotic lower eigenvalue bounds on singular eigenfunctions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._quadmap import edge_quadrature
from .mesh import Mesh
from .wg import (
    AssembledSystem,
    ElasticParams,
    StabilizationConfig,
    _Coefficients,
    _EdgeLayout,
    scatter,
    solve_eigen,  # only for perfbench/spans.py, which wraps cr.solve_eigen; ROADMAP 1b drops it
)

__all__ = [
    "CrSpace",
    "CrFunction",
    "interpolate",
    "assemble_cr",
    "jump_values",
]

JUMP_EXACTNESS = 4  # exactness of the edge rule behind the jump penalty and jump_values


class CrSpace(_EdgeLayout):
    """WG's edge layout with one mean per edge and component and no interior
    dofs: edge-major, [x, y] per edge; the Dirichlet edges' dofs are not free."""

    num_interior_dofs = 0
    nke = 1

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._inv_jacobians = np.linalg.inv(mesh.jacobians())

    # barycentric gradients, shape (nt, 3, 2); row l is grad lambda_l
    def _bary_grads(self) -> np.ndarray:
        g = np.empty((self.mesh.num_triangles, 3, 2))
        g[:, 1:] = self._inv_jacobians
        g[:, 0, :] = -g[:, 1, :] - g[:, 2, :]
        return g

    def basis_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """CR scalar basis values 1 - 2*lambda_l at physical points.

        tris : (n,) element indices; pts : (n, nq, 2).
        Returns (n, nq, 3), basis l tied to local edge l.
        """
        m = self.mesh
        rel = pts - m.vertices[m.triangles[tris, 0]][:, None, :]
        lam12 = np.einsum("nij,nqj->nqi", self._inv_jacobians[tris], rel)
        lam = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
        return 1.0 - 2.0 * lam


class CrFunction(_Coefficients):
    """Edge-mean coefficient vector over a CrSpace."""

    def edge_means(self) -> np.ndarray:
        """Per-edge vector dofs, shape (ne, 2)."""
        return self.coeffs.reshape(self.space.mesh.num_edges, 2)


def interpolate(f, space: CrSpace) -> CrFunction:
    """Edge-mean interpolation: every edge mean of the result matches f."""
    m = space.mesh
    _, pts, w = edge_quadrature(m, 10)
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    means = np.einsum("eq,eqc->ec", w, vals) / m.edge_lengths()[:, None]
    return CrFunction(space=space, coeffs=means.ravel())


def assemble_cr(
    space: CrSpace, params: ElasticParams, stab: StabilizationConfig
) -> AssembledSystem:
    """Assemble the jump-stabilized CR stiffness and the mass on the free dofs; the
    mass is diagonal: (theta_i, theta_j)_T = |T|/3 delta_ij, summed over the
    triangles of each edge."""
    m = space.mesh
    mu, lam = params.mu, params.lam
    gam = stab.gamma(m.h_global)
    nt = m.num_triangles
    area = m.areas()

    g = -2.0 * space._bary_grads()  # grad theta_l, (nt, 3, 2)
    eye = np.eye(2)
    # eps(basis_{l,c})_{ij} = (delta_ic g_lj + delta_jc g_li) / 2
    eps = 0.5 * (
        np.einsum("ci,tlj->tlcij", eye, g) + np.einsum("cj,tli->tlcij", eye, g)
    )
    div = g  # div(basis_{l,c}) = g_l[c]
    K = area[:, None, None, None, None] * (
        2.0 * mu * np.einsum("tlcij,tkdij->tlckd", eps, eps)
        + lam * np.einsum("tlc,tkd->tlckd", div, div)
    )
    K = K.reshape(nt, 6, 6)

    # interior-edge jump penalty gamma(h) * 2 mu / h_e, one block per component
    ie, J, w_ie, edof = _jumps(space)
    scale = gam * 2.0 * mu / m.edge_lengths()[ie]
    P = np.einsum("e,eq,eqa,eqb->eab", scale, w_ie, J, J)

    dof = space.edge_dofs(m.tri_edges).reshape(nt, 6)
    pen = space.edge_dofs(edof)[..., 0]  # (nie, 6, 2): x then y dofs of the edges at edof
    rows = space.pencil_rows()
    A = scatter(np.concatenate([K, P, P]), np.concatenate([dof, pen[..., 0], pen[..., 1]]), rows)
    A = 0.5 * (A + A.T)

    free = np.flatnonzero(rows >= 0)
    mass = np.bincount(m.tri_edges.ravel(), np.repeat(area / 3.0, 3), m.num_edges)
    B = sp.diags(np.repeat(mass, 2)[free], format="csr")

    return AssembledSystem(A=A, B=B, free=free, bases=space.orbit_bases(free))


def _jumps(space: CrSpace):
    """Jump map [v] = v|T+ - v|T- across the interior edges.

    Returns (edge_ids, J (nie, nq, 6), weights (nie, nq), edof (nie, 6)):
    J maps the edge means at edof, the edges of T+ then of T-, to the jump
    of either component at the quadrature points.
    """
    m = space.mesh
    ie = m.interior_edges
    _, pts, w = edge_quadrature(m, JUMP_EXACTNESS)
    pts_ie = pts[ie]
    tp, tm = m.edge_tris[ie, 0], m.edge_tris[ie, 1]
    J = np.concatenate([space.basis_at(tp, pts_ie), -space.basis_at(tm, pts_ie)], axis=2)
    edof = np.concatenate([m.tri_edges[tp], m.tri_edges[tm]], axis=1)
    return ie, J, w[ie], edof


def jump_values(v: CrFunction):
    """Jumps across interior edges at quadrature points.

    Returns (edge_ids, jumps (nie, nq, 2), weights (nie, nq)).
    """
    ie, J, w_ie, edof = _jumps(v.space)
    return ie, np.einsum("eqa,eac->eqc", J, v.edge_means()[edof]), w_ie
