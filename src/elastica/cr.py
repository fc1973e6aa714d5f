"""Vector Crouzeix-Raviart nonconforming element for the elastic eigenproblem.

One vector degree of freedom per edge: the edge mean value.  Functions are
piecewise affine and continuous in edge-mean only; the scheme penalizes
interior-edge jumps with the vanishing weight gamma(h) 2 mu / h_e, which is
what produces asymptotic lower eigenvalue bounds on singular eigenfunctions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadmap import cell_quadrature, edge_quadrature
from .mesh import Mesh
from .wg import (
    AssembledSystem,
    ElasticParams,
    StabilizationConfig,
    scatter,
    solve_eigen,  # kept importable from here: CR systems use the same driver
)

__all__ = [
    "CrSpace",
    "CrFunction",
    "interpolate",
    "assemble_cr",
    "cr_norm",
    "jump_values",
]


class CrSpace:
    """Dof layout: edge-major, [x, y] per edge; Dirichlet edges constrained."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh

    @property
    def num_dofs(self) -> int:
        return 2 * self.mesh.num_edges

    def dirichlet_dofs(self) -> np.ndarray:
        d = self.mesh.dirichlet_edges
        return np.stack([2 * d, 2 * d + 1], axis=1).ravel()

    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.num_dofs, dtype=bool)
        mask[self.dirichlet_dofs()] = False
        return np.where(mask)[0]

    # barycentric gradients, shape (nt, 3, 2); row l is grad lambda_l
    def _bary_grads(self) -> np.ndarray:
        m = self.mesh
        p = m.vertices[m.triangles]
        B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        Binv = np.linalg.inv(B)
        g = np.empty((m.num_triangles, 3, 2))
        g[:, 1, :] = Binv[:, 0, :]
        g[:, 2, :] = Binv[:, 1, :]
        g[:, 0, :] = -g[:, 1, :] - g[:, 2, :]
        return g

    def basis_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """CR scalar basis values 1 - 2*lambda_l at physical points.

        tris : (n,) element indices; pts : (n, nq, 2).
        Returns (n, nq, 3), basis l tied to local edge l.
        """
        m = self.mesh
        p = m.vertices[m.triangles[tris]]
        B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        Binv = np.linalg.inv(B)
        rel = pts - p[:, None, 0, :]
        lam12 = np.einsum("nij,nqj->nqi", Binv, rel)
        lam = np.concatenate(
            [1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2
        )
        return 1.0 - 2.0 * lam


@dataclass
class CrFunction:
    """Edge-mean coefficient vector over a CrSpace."""

    space: CrSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.num_dofs,):
            raise ValueError("coefficient length does not match the space")

    def edge_means(self) -> np.ndarray:
        """Per-edge vector dofs, shape (ne, 2)."""
        return self.coeffs.reshape(self.space.mesh.num_edges, 2)

    def element_values(self, pts: np.ndarray) -> np.ndarray:
        """Values at per-element points pts (nt, nq, 2) -> (nt, nq, 2)."""
        m = self.space.mesh
        theta = self.space.basis_at(np.arange(m.num_triangles), pts)
        c = self.edge_means()[m.tri_edges]  # (nt, 3, 2)
        return np.einsum("tql,tlc->tqc", theta, c)


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
    """Assemble the jump-stabilized CR stiffness and the full mass."""
    m = space.mesh
    if len(m.dirichlet_edges) == 0:
        raise ValueError("mesh has no Dirichlet edges; tag the boundary first")
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
    ie, J, w_ie, edof = _jumps(space, 4)
    scale = gam * 2.0 * mu / m.edge_lengths()[ie]
    P = np.einsum("e,eq,eqa,eqb->eab", scale, w_ie, J, J)

    n = space.num_dofs
    dof = (2 * m.tri_edges[:, :, None] + np.arange(2)).reshape(nt, 6)
    A = scatter(np.concatenate([K, P, P]), np.concatenate([dof, 2 * edof, 2 * edof + 1]), n)
    A = 0.5 * (A + A.T)

    cpts, cw = cell_quadrature(m, 2)
    theta = space.basis_at(np.arange(nt), cpts)
    Mscal = np.einsum("tq,tqa,tqb->tab", cw, theta, theta)
    Bloc = np.zeros((nt, 6, 6))
    Bloc[:, 0::2, 0::2] = Mscal
    Bloc[:, 1::2, 1::2] = Mscal
    B = scatter(Bloc, dof, n)

    return AssembledSystem(A=A, B=B, free=space.free_dofs())


def _jumps(space: CrSpace, exactness: int):
    """Jump map [v] = v|T+ - v|T- across the interior edges.

    Returns (edge_ids, J (nie, nq, 6), weights (nie, nq), edof (nie, 6)):
    J maps the edge means at edof, the edges of T+ then of T-, to the jump
    of either component at the quadrature points.
    """
    m = space.mesh
    ie = m.interior_edges
    _, pts, w = edge_quadrature(m, exactness)
    pts_ie = pts[ie]
    tp, tm = m.edge_tris[ie, 0], m.edge_tris[ie, 1]
    J = np.concatenate([space.basis_at(tp, pts_ie), -space.basis_at(tm, pts_ie)], axis=2)
    edof = np.concatenate([m.tri_edges[tp], m.tri_edges[tm]], axis=1)
    return ie, J, w[ie], edof


def jump_values(v: CrFunction, exactness: int = 4):
    """Jumps across interior edges at quadrature points.

    Returns (edge_ids, jumps (nie, nq, 2), weights (nie, nq)).
    """
    ie, J, w_ie, edof = _jumps(v.space, exactness)
    return ie, np.einsum("eqa,eac->eqc", J, v.edge_means()[edof]), w_ie


def cr_norm(v: CrFunction, params: ElasticParams) -> float:
    """Discrete norm: 2mu strain + lambda divergence + scaled jump terms."""
    m = v.space.mesh
    mu, lam = params.mu, params.lam
    area = m.areas()
    g = -2.0 * v.space._bary_grads()
    c = v.edge_means()[m.tri_edges]  # (nt, 3, 2)
    grad = np.einsum("tlc,tlj->tcj", c, g)  # constant per element
    eps = 0.5 * (grad + grad.transpose(0, 2, 1))
    strain_sq = np.einsum("t,tij,tij->", area, eps, eps)
    div = np.einsum("tcc->t", grad)
    div_sq = float(area @ div**2)

    ie, jumps, w_ie = jump_values(v)
    jump_sq = float(
        np.einsum("e,eq,eqc,eqc->", 1.0 / m.edge_lengths()[ie], w_ie, jumps, jumps)
    )
    return float(np.sqrt(2.0 * mu * strain_sq + lam * div_sq + jump_sq))
