"""Weak Galerkin discretization of the elastic eigenvalue problem.

The scheme of order k >= 1 uses vector polynomials of degree k inside each
element (interior part) and on each edge (edge part).  Weak gradient,
strain and divergence live elementwise in degree k-1 spaces and are defined
by local integration-by-parts identities.  The stiffness form is

    a_w(v, w) = 2 mu (eps_w(v), eps_w(w)) + lambda (div_w v, div_w w)
                + gamma(h) sum_T h_T^{-1} <v0 - vb, w0 - wb>_{dT},

with the vanishing stabilization weight gamma(h) = h^delta that yields
asymptotic lower eigenvalue bounds.  The mass form b_w(v, w) = (v0, w0)
involves the interior part only, so the mass matrix is zero on the edge
unknowns; the eigensolver works on its support, the interior (see spectra).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import spectra
from ._quadmap import cell_quadrature, edge_quadrature
from .mesh import Mesh
from .polyquad import CellBasis, EdgeBasis, cell_basis_dim

__all__ = [
    "ElasticParams",
    "StabilizationConfig",
    "WgSpace",
    "WgFunction",
    "AssembledSystem",
    "EigenResult",
    "weak_gradient",
    "weak_strain",
    "weak_divergence",
    "weak_gradient_of_field",
    "weak_divergence_of_field",
    "assemble_forms",
    "solve_eigen",
    "solve_source",
    "norms",
]


@dataclass(frozen=True)
class ElasticParams:
    """Young's modulus / Poisson ratio pair with derived Lame constants."""

    E: float = 1.0
    nu: float = 0.49

    def __post_init__(self):
        if not 0.0 < self.E < math.inf:
            raise ValueError("Young's modulus must be positive and finite")
        if not 0.0 < self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in (0, 0.5)")

    @property
    def lam(self) -> float:
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))


@dataclass(frozen=True)
class StabilizationConfig:
    """Stabilization weight rule gamma(h) = h^delta, delta > 0."""

    delta: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("stabilization exponent must be positive and finite")

    def gamma(self, h: float) -> float:
        return float(h) ** self.delta


class WgSpace:
    """Dof layout of the order-k WG space on a mesh.

    Interior dofs come first, element-major, as [x-coeffs, y-coeffs]
    blocks of the cell basis; edge dofs follow, edge-major, likewise per
    component.  Dirichlet edge blocks are excluded from the free set.
    local_dofs() is the one per-element view of this layout.
    """

    def __init__(self, mesh: Mesh, order: int):
        if order < 1:
            raise ValueError("WG order k must be >= 1")
        self.mesh = mesh
        self.order = order
        self.nk = cell_basis_dim(order)       # dim P_k(T)
        self.nk1 = cell_basis_dim(order - 1)  # dim P_{k-1}(T)
        self.nke = order + 1                  # dim P_k(e)
        self.ns = self.nk + 3 * self.nke      # local scalar dofs per component
        self._pack = None

    @property
    def num_interior_dofs(self) -> int:
        return self.mesh.num_triangles * 2 * self.nk

    @property
    def num_edge_dofs(self) -> int:
        return self.mesh.num_edges * 2 * self.nke

    @property
    def num_dofs(self) -> int:
        return self.num_interior_dofs + self.num_edge_dofs

    def edge_dofs(self, edges) -> np.ndarray:
        """Global dofs of the given edges, shape (..., 2, k+1): [x | y] per edge."""
        comp = np.arange(2)[:, None] * self.nke + np.arange(self.nke)
        return self.num_interior_dofs + edges[..., None, None] * 2 * self.nke + comp

    def local_dofs(self) -> np.ndarray:
        """Global dof of each local scalar dof, (nt, 2, ns): [cell | edge0 | edge1 | edge2]."""
        nt = self.mesh.num_triangles
        cell = np.arange(nt * 2 * self.nk).reshape(nt, 2, self.nk)
        edge = self.edge_dofs(self.mesh.tri_edges).transpose(0, 2, 1, 3)  # (nt, 2, 3, nke)
        return np.concatenate([cell, edge.reshape(nt, 2, 3 * self.nke)], axis=2)

    def dirichlet_dofs(self) -> np.ndarray:
        return self.edge_dofs(self.mesh.dirichlet_edges).ravel()

    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.num_dofs, dtype=bool)
        mask[self.dirichlet_dofs()] = False
        return np.where(mask)[0]

    # -- cached geometry/operator tables -----------------------------------

    def pack(self):
        if self._pack is None:
            self._pack = _build_pack(self)
        return self._pack


@dataclass
class WgFunction:
    """Coefficient vector over a WgSpace (interior part + edge part)."""

    space: WgSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.num_dofs,):
            raise ValueError("coefficient length does not match the space")

    def interior(self) -> np.ndarray:
        """Interior coefficients, shape (nt, 2, nk)."""
        s = self.space
        return self.coeffs[: s.num_interior_dofs].reshape(
            s.mesh.num_triangles, 2, s.nk
        )

    def edge(self) -> np.ndarray:
        """Edge coefficients, shape (ne, 2, k+1)."""
        s = self.space
        return self.coeffs[s.num_interior_dofs:].reshape(
            s.mesh.num_edges, 2, s.nke
        )

    def local_scalar_dofs(self) -> np.ndarray:
        """Per-element scalar dofs [cell | edge0 | edge1 | edge2], (nt, 2, ns)."""
        return self.coeffs[self.space.local_dofs()]


@dataclass
class AssembledSystem:
    """Stiffness/mass pair with the free-dof index map of its space."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    free: np.ndarray


@dataclass
class EigenResult:
    """Sorted eigenvalues, eigenfrequencies and B-normalized vectors."""

    eigenvalues: np.ndarray
    frequencies: np.ndarray
    vectors: np.ndarray  # (num_dofs, m), zeros on constrained dofs
    residuals: np.ndarray
    report: spectra.SolveReport = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# geometry / operator tables


def _build_pack(space: WgSpace) -> dict:
    m = space.mesh
    k = space.order
    exact = 2 * k + 2

    pts, w = cell_quadrature(m, exact)
    cen = m.centroids()
    h = m.h_per_element
    bk = CellBasis(k, cen, h)
    bk1 = CellBasis(k - 1, cen, h)
    phi = bk.evaluate(pts)
    dphi = bk.evaluate_gradient(pts)
    psi = bk1.evaluate(pts)
    dpsi = bk1.evaluate_gradient(pts)

    Mpsi = np.einsum("tq,tqi,tqj->tij", w, psi, psi)
    Mphi = np.einsum("tq,tqi,tqj->tij", w, phi, phi)
    # Aj[j][t, p, a] = (phi_a, d psi_p / dx_j)_T
    Aj = np.einsum("tq,tqpj,tqa->jtpa", w, dpsi, phi)

    tparams, epts, ew = edge_quadrature(m, exact)
    chi = EdgeBasis(k).evaluate(tparams)  # (nqe, nke)
    ge = m.tri_edges
    nt = m.num_triangles

    ep_loc = epts[ge]            # (nt, 3, nqe, 2)
    ew_loc = ew[ge]              # (nt, 3, nqe)
    flat = ep_loc.reshape(nt, -1, 2)
    phi_e = bk.evaluate(flat).reshape(ew_loc.shape + (space.nk,))
    psi_e = bk1.evaluate(flat).reshape(ew_loc.shape + (space.nk1,))
    nrm = m.outward_normals()    # (nt, 3, 2)

    # Te[t, l, p, mm] = <chi_mm, psi_p>_e
    Te = np.einsum("tlq,tlqp,qm->tlpm", ew_loc, psi_e, chi)

    # weak-derivative maps G_j : local scalar dofs -> P_{k-1} coefficients
    Nb = np.einsum("tlj,tlpm->jtplm", nrm, Te).reshape(2, nt, space.nk1, 3 * space.nke)
    G = np.linalg.solve(Mpsi[None, :, :, :], np.concatenate([-Aj, Nb], axis=3))

    return {
        "pts": pts, "w": w, "phi": phi, "dphi": dphi, "dpsi": dpsi,
        "Mpsi": Mpsi, "Mphi": Mphi, "chi": chi, "epts": epts, "ew_loc": ew_loc,
        "phi_e": phi_e, "psi_e": psi_e, "nrm": nrm, "G": G,
    }


def _trace_jump(space: WgSpace, l: int) -> np.ndarray:
    """Map (nt, nqe, ns) from local scalar dofs to v0 - vb at the quadrature
    points of local edge l: phi_e on the cell columns, -chi on edge l's.
    """
    p = space.pack()
    phi_e, chi, nk, nke = p["phi_e"][:, l], p["chi"], space.nk, space.nke
    J = np.zeros(phi_e.shape[:2] + (space.ns,))
    J[:, :, :nk] = phi_e
    J[:, :, nk + l * nke:nk + (l + 1) * nke] = -chi
    return J


# ---------------------------------------------------------------------------
# weak differential operators


def weak_gradient(v: WgFunction) -> np.ndarray:
    """Weak gradient coefficients, shape (nt, 2, 2, dim P_{k-1}).

    Component (i, j) is the weak partial derivative of the i-th field
    component in direction j, expressed in the scaled cell basis.
    """
    p = v.space.pack()
    loc = v.local_scalar_dofs()  # (nt, 2, ns)
    return np.einsum("jtps,tis->tijp", p["G"], loc)


def weak_strain(v: WgFunction) -> np.ndarray:
    """Symmetric part of the weak gradient, same layout."""
    g = weak_gradient(v)
    return 0.5 * (g + g.transpose(0, 2, 1, 3))


def weak_divergence(v: WgFunction) -> np.ndarray:
    """Weak divergence coefficients, shape (nt, dim P_{k-1}).

    Equal to the trace of the weak gradient: the defining identities for
    both operators test against the same scalar space.
    """
    g = weak_gradient(v)
    return g[:, 0, 0, :] + g[:, 1, 1, :]


def _field_numerators(f, m: Mesh, k: int):
    """Numerator moments of the weak-derivative identities for an exact field."""
    space = WgSpace(m, k)
    p = space.pack()
    fv = np.asarray(f(p["pts"][..., 0], p["pts"][..., 1]), dtype=float)
    fe = np.asarray(f(p["epts"][..., 0], p["epts"][..., 1]), dtype=float)
    fe_loc = fe[m.tri_edges]  # (nt, 3, nqe, 2)
    # -(f_i, dpsi_p/dx_j)_T + <f_i, psi_p n_j>_dT
    cell = -np.einsum("tq,tqc,tqpj->tcjp", p["w"], fv, p["dpsi"])
    edge = np.einsum(
        "tlq,tlqc,tlqp,tlj->tcjp", p["ew_loc"], fe_loc, p["psi_e"], p["nrm"]
    )
    return space, cell + edge


def weak_gradient_of_field(f, m: Mesh, k: int) -> np.ndarray:
    """Weak gradient of a smooth field taken with exact traces."""
    space, num = _field_numerators(f, m, k)
    Mpsi = space.pack()["Mpsi"]
    nt = m.num_triangles
    rhs = num.reshape(nt, 4, space.nk1).transpose(0, 2, 1)
    sol = np.linalg.solve(Mpsi, rhs)
    return sol.transpose(0, 2, 1).reshape(nt, 2, 2, space.nk1)


def weak_divergence_of_field(f, m: Mesh, k: int) -> np.ndarray:
    """Weak divergence of a smooth field taken with exact traces."""
    g = weak_gradient_of_field(f, m, k)
    return g[:, 0, 0, :] + g[:, 1, 1, :]


# ---------------------------------------------------------------------------
# assembly


def assemble_forms(
    space: WgSpace, params: ElasticParams, stab: StabilizationConfig
) -> AssembledSystem:
    """Assemble the stiffness a_w and the (singular) mass b_w."""
    m = space.mesh
    if len(m.dirichlet_edges) == 0:
        raise ValueError("mesh has no Dirichlet edges; tag the boundary first")

    p = space.pack()
    nt = m.num_triangles
    nk, ns = space.nk, space.ns
    mu, lam = params.mu, params.lam
    gam = stab.gamma(m.h_global)

    G, Mpsi = p["G"], p["Mpsi"]
    MG = np.einsum("tpq,jtqs->jtps", Mpsi, G)
    H = np.einsum("atps,btpr->abtsr", G, MG)  # H[a,b] = G_a^T Mpsi G_b

    Kxx = (2 * mu + lam) * H[0, 0] + mu * H[1, 1]
    Kyy = (2 * mu + lam) * H[1, 1] + mu * H[0, 0]
    Kxy = mu * H[1, 0] + lam * H[0, 1]

    # stabilization: gamma(h) h_T^{-1} <v0 - vb, w0 - wb>_dT per component
    S = np.zeros((nt, ns, ns))
    for l in range(3):
        J = _trace_jump(space, l)
        S += np.einsum("tq,tqa,tqb->tab", p["ew_loc"][:, l], J, J)
    S *= (gam / m.h_per_element)[:, None, None]

    K = np.zeros((nt, 2 * ns, 2 * ns))
    K[:, :ns, :ns] = Kxx + S
    K[:, ns:, ns:] = Kyy + S
    K[:, :ns, ns:] = Kxy
    K[:, ns:, :ns] = Kxy.transpose(0, 2, 1)
    K = 0.5 * (K + K.transpose(0, 2, 1))

    gidx = space.local_dofs()  # (nt, 2, ns)
    A = scatter(K, gidx.reshape(nt, 2 * ns), space.num_dofs)
    # one P_k mass block per element and component
    Bidx = gidx[:, :, :nk].reshape(2 * nt, nk)
    B = scatter(np.repeat(p["Mphi"], 2, axis=0), Bidx, space.num_dofs)

    return AssembledSystem(A=A, B=B, free=space.free_dofs())


def scatter(blocks: np.ndarray, idx: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum element blocks (ne, d, d) into an n x n matrix at global dofs idx (ne, d)."""
    d = idx.shape[1]
    rows = np.repeat(idx, d, axis=1).ravel()
    cols = np.tile(idx, (1, d)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# solvers and norms


def solve_eigen(sys: AssembledSystem, m: int, seed: int = 0) -> EigenResult:
    """m smallest eigenpairs of a WG or CR system, b-normalized.

    Each vector has its largest-magnitude coefficient on the mass support
    positive: WG vectors their largest interior coefficient, CR vectors their
    largest coefficient.
    """
    free = sys.free
    vals, V, report = spectra.smallest_generalized_eigs(
        sys.A[np.ix_(free, free)], sys.B[np.ix_(free, free)], m, seed=seed
    )
    full = np.zeros((sys.A.shape[0], m))
    full[free, :] = V
    return EigenResult(
        eigenvalues=vals,
        frequencies=np.sqrt(vals),
        vectors=full,
        residuals=report.residuals,
        report=report,
    )


def solve_source(
    space: WgSpace, params: ElasticParams, stab: StabilizationConfig, f
) -> WgFunction:
    """Solve the source problem a_w(u_h, v) = (f, v_0) on the free dofs."""
    sys = assemble_forms(space, params, stab)
    p = space.pack()
    fv = np.asarray(f(p["pts"][..., 0], p["pts"][..., 1]), dtype=float)
    load = np.einsum("tq,tqa,tqc->tca", p["w"], p["phi"], fv)
    rhs = np.zeros(space.num_dofs)
    rhs[: space.num_interior_dofs] = load.reshape(-1)
    free = sys.free
    x = np.zeros(space.num_dofs)
    x[free] = spectra.factorize_spd(sys.A[np.ix_(free, free)]).solve(rhs[free])
    return WgFunction(space=space, coeffs=x)


def norms(v: WgFunction, params: ElasticParams) -> tuple[float, float]:
    """Discrete energy norm ||.||_V and interior L2 norm ||.||_X.

    ||v||_V^2 = sum_T ||eps(v_0)||_T^2 + lambda sum_T ||div_w v||_T^2
              + sum_T h_T^{-1} ||v_0 - v_b||_{dT}^2.
    """
    space = v.space
    p = space.pack()
    c0 = v.interior()  # (nt, 2, nk)

    grad = np.einsum("tca,tqaj->tqcj", c0, p["dphi"])
    eps = 0.5 * (grad + grad.transpose(0, 1, 3, 2))
    strain_sq = np.einsum("tq,tqcj,tqcj->", p["w"], eps, eps)

    dv = weak_divergence(v)
    div_sq = np.einsum("tp,tpq,tq->", dv, p["Mpsi"], dv)

    loc = v.local_scalar_dofs()
    jump_sq = 0.0
    for l in range(3):
        diff = np.einsum("tqs,tcs->tqc", _trace_jump(space, l), loc)
        jump_sq += np.einsum(
            "t,tq,tqc,tqc->", 1.0 / space.mesh.h_per_element, p["ew_loc"][:, l], diff, diff
        )

    vnorm = np.sqrt(strain_sq + params.lam * div_sq + jump_sq)
    xnorm = np.sqrt(np.einsum("tca,tab,tcb->", c0, p["Mphi"], c0))
    return float(vnorm), float(xnorm)
