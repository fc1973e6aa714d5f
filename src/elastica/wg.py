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
from ._quadmap import edge_quadrature
from .mesh import Mesh
from .polyquad import cell_basis_dim, edge_basis
from .project import _cell_moments, _cell_setup, _drop_noise

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
        if not (math.isfinite(self.lam) and self.mu > 0.0):
            raise ValueError("Lame constants overflow or underflow at this E and nu")

    @property
    def lam(self) -> float:
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))


@dataclass(frozen=True)
class StabilizationConfig:
    """Stabilization weight rule gamma(h) = h^delta, delta > 0.  The WG stabilizer
    gamma(h) h^-1 <v0 - vb, w0 - wb> carries no material constant, so WG eigenvalues
    are not proportional to E; CR's are, as its penalty carries 2 mu."""

    delta: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("stabilization exponent must be positive and finite")

    def gamma(self, h: float) -> float:
        return float(h) ** self.delta


class _EdgeLayout:
    """Edge dofs after the num_interior_dofs interior ones, edge-major, with nke
    coefficients per component: [x | y] per edge.  Dirichlet edge blocks are
    excluded from the free set."""

    @property
    def num_edge_dofs(self) -> int:
        return self.mesh.num_edges * 2 * self.nke

    @property
    def num_dofs(self) -> int:
        return self.num_interior_dofs + self.num_edge_dofs

    def edge_dofs(self, edges) -> np.ndarray:
        """Global dofs of the given edges, shape (..., 2, nke): [x | y] per edge."""
        comp = np.arange(2)[:, None] * self.nke + np.arange(self.nke)
        return self.num_interior_dofs + edges[..., None, None] * 2 * self.nke + comp

    def dirichlet_dofs(self) -> np.ndarray:
        return self.edge_dofs(self.mesh.dirichlet_edges).ravel()

    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.num_dofs, dtype=bool)
        mask[self.dirichlet_dofs()] = False
        return np.where(mask)[0]


class WgSpace(_EdgeLayout):
    """Dof layout of the order-k WG space on a mesh.

    Interior dofs come first, element-major, as [x-coeffs, y-coeffs]
    blocks of the cell basis; the edge layout follows with nke = k+1.
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

    def local_dofs(self) -> np.ndarray:
        """Global dof of each local scalar dof, (nt, 2, ns): [cell | edge0 | edge1 | edge2]."""
        nt = self.mesh.num_triangles
        cell = np.arange(nt * 2 * self.nk).reshape(nt, 2, self.nk)
        edge = self.edge_dofs(self.mesh.tri_edges).transpose(0, 2, 1, 3)  # (nt, 2, 3, nke)
        return np.concatenate([cell, edge.reshape(nt, 2, 3 * self.nke)], axis=2)

    # -- cached geometry/operator tables -----------------------------------

    def pack(self):
        if self._pack is None:
            self._pack = _build_pack(self)
        return self._pack


@dataclass
class _Coefficients:
    """Coefficient vector over a space, one entry per dof."""

    space: _EdgeLayout
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.num_dofs,):
            raise ValueError("coefficient length does not match the space")


class WgFunction(_Coefficients):
    """Coefficient vector over a WgSpace (interior part + edge part)."""

    def interior(self) -> np.ndarray:
        """Interior coefficients, shape (nt, 2, nk)."""
        s = self.space
        return self.coeffs[: s.num_interior_dofs].reshape(
            s.mesh.num_triangles, 2, s.nk
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
    vectors: np.ndarray  # (num_dofs, m), zeros on constrained dofs
    report: spectra.SolveReport = field(repr=False)

    @property
    def frequencies(self) -> np.ndarray:
        return np.sqrt(self.eigenvalues)

    @property
    def residuals(self) -> np.ndarray:
        return self.report.residuals


# ---------------------------------------------------------------------------
# geometry / operator tables


def _build_pack(space: WgSpace) -> dict:
    """_cell_setup's table plus the weak-derivative data, per class of triangles on
    the class's local triangle; P_{k-1} is the leading block of P_k, so
    psi = phi[..., :nk1] and Mpsi = Mphi[:, :nk1, :nk1]."""
    k, nk1 = space.order, space.nk1
    p = _cell_setup(space.mesh, k)
    local = p["local"]
    nc = local.num_triangles
    D, Mphi = p["basis"].derivatives(), p["Mphi"]
    Mpsi = Mphi[:, :nk1, :nk1]
    # Aj[j][c, p, a] = (phi_a, d psi_p / dx_j)_T = h^-1 sum_b D[j, b, p] Mphi[c, b, a]
    Aj = np.einsum("jbp,tba->jtpa", D[:, :, :nk1], Mphi) / local.h_per_element[:, None, None]

    tparams, epts, ew = edge_quadrature(local, 2 * k + 2)
    chi = edge_basis(k, tparams)  # (nqe, nke)
    ge = local.tri_edges
    ew_loc = ew[ge]              # (nc, 3, nqe)
    phi_e = p["basis"].evaluate(epts[ge].reshape(nc, -1, 2)).reshape(ew_loc.shape + (space.nk,))

    # Te[c, l, p, mm] = <chi_mm, psi_p>_e
    Te = np.einsum("tlq,tlqp,qm->tlpm", ew_loc, phi_e[..., :nk1], chi)

    # weak-derivative maps G_j : local scalar dofs -> P_{k-1} coefficients
    Nb = np.einsum("tlj,tlpm->jtplm", local.outward_normals(), Te)
    Nb = Nb.reshape(2, nc, nk1, 3 * space.nke)
    G = np.linalg.solve(Mpsi[None, :, :, :], np.concatenate([-Aj, Nb], axis=3))

    return {**p, "D": D, "Mpsi": Mpsi, "chi": chi, "ew_loc": ew_loc, "phi_e": phi_e, "G": G}


def _trace_jump(space: WgSpace, l: int) -> np.ndarray:
    """Map (nc, nqe, ns), per class, from local scalar dofs to v0 - vb at the
    quadrature points of local edge l: phi_e on the cell columns, -chi on edge l's.
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
    return np.einsum("jtps,tis->tijp", p["G"][:, p["cls"]], loc)


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

    # one element block per class; H and S lose their noise before E and nu scale them
    G, Mpsi = p["G"], p["Mpsi"]
    MG = np.einsum("tpq,jtqs->jtps", Mpsi, G)
    H = _drop_noise(np.einsum("atps,btpr->abtsr", G, MG))  # H[a,b] = G_a^T Mpsi G_b

    # stabilization: gamma(h) h_T^{-1} <v0 - vb, w0 - wb>_dT per component
    S = np.zeros((len(Mpsi), ns, ns))
    for l in range(3):
        J = _trace_jump(space, l)
        S += np.einsum("tq,tqa,tqb->tab", p["ew_loc"][:, l], J, J)
    S = _drop_noise(S) * (gam / p["local"].h_per_element)[:, None, None]

    K = np.empty((len(Mpsi), 2 * ns, 2 * ns))
    K[:, :ns, :ns] = (2 * mu + lam) * H[0, 0] + mu * H[1, 1] + S
    K[:, ns:, ns:] = (2 * mu + lam) * H[1, 1] + mu * H[0, 0] + S
    K[:, :ns, ns:] = mu * H[1, 0] + lam * H[0, 1]
    K[:, ns:, :ns] = K[:, :ns, ns:].transpose(0, 2, 1)
    K = 0.5 * (K + K.transpose(0, 2, 1))

    # an entry of A sums at most two contributions (an edge has two triangles),
    # so leaving out the positions that are zero in every class block changes no sum
    gidx, cls = space.local_dofs(), p["cls"]  # (nt, 2, ns)
    A = scatter(K, gidx.reshape(nt, 2 * ns), space.num_dofs,
                np.flatnonzero((K != 0).any(axis=0)), cls)
    # one P_k mass block per element and component
    B = scatter(p["Mphi"], gidx[:, :, :nk].reshape(2 * nt, nk), space.num_dofs,
                np.flatnonzero((p["Mphi"] != 0).any(axis=0)), np.repeat(cls, 2))

    return AssembledSystem(A=A, B=B, free=space.free_dofs())


def scatter(blocks: np.ndarray, idx: np.ndarray, n: int, pos=None,
            cls=slice(None)) -> sp.csr_matrix:
    """Sum element blocks into an n x n matrix at global dofs idx (ne, d).

    Element e's block is blocks[cls[e]] (by default blocks holds one block per
    element).  The flat local positions pos (all d * d when None) of each element
    go, element by element, into an int32 COO; scipy sums its duplicates and the
    sum's exact zeros are dropped after.  scipy's summing order depends on a whole
    row's input, so leaving out positions keeps every bit only where no entry
    sums more than two terms: CR, whose penalty couples neighbouring edges, sends all.
    """
    d = idx.shape[1]
    pos = np.arange(d * d) if pos is None else pos
    idx = idx.astype(np.int32)
    vals = np.take(blocks.reshape(-1, d * d), pos, axis=1)[cls].ravel()
    del blocks  # frees a caller's temporary, such as CR's blocks, before the COO
    A = sp.coo_matrix(
        (vals, (np.take(idx, pos // d, axis=1).ravel(), np.take(idx, pos % d, axis=1).ravel())),
        shape=(n, n),
    ).tocsr()
    A.eliminate_zeros()
    return A


# ---------------------------------------------------------------------------
# solvers and norms


def solve_eigen(sys: AssembledSystem, m: int, seed: int = 0) -> EigenResult:
    """m smallest eigenpairs of a WG or CR system, b-normalized.

    Each vector has its largest-magnitude coefficient on the mass support
    positive: WG vectors their largest interior coefficient, CR vectors their
    largest coefficient.  Unconverged pairs raise SolverFailure like any other failure.
    """
    free = sys.free
    vals, V, report = spectra.smallest_generalized_eigs(
        sys.A[np.ix_(free, free)], sys.B[np.ix_(free, free)], m, seed=seed
    )
    full = np.zeros((sys.A.shape[0], m))
    full[free, :] = V
    return EigenResult(eigenvalues=vals, vectors=full, report=report)


def solve_source(
    space: WgSpace, params: ElasticParams, stab: StabilizationConfig, f
) -> WgFunction:
    """Solve the source problem a_w(u_h, v) = (f, v_0) on the free dofs."""
    sys = assemble_forms(space, params, stab)
    free = sys.free
    A = sys.A[np.ix_(free, free)]
    del sys  # the factor sets the level's peak; it does not need the full system
    load = _cell_moments(f, space.mesh, space.pack())  # (nt, 2, nk)
    rhs = np.zeros(space.num_dofs)
    rhs[: space.num_interior_dofs] = load.reshape(-1)
    x = np.zeros(space.num_dofs)
    x[free] = spectra.factorize_spd(A).solve(rhs[free])
    return WgFunction(space=space, coeffs=x)


def norms(v: WgFunction, params: ElasticParams) -> tuple[float, float]:
    """Discrete energy norm ||.||_V and interior L2 norm ||.||_X.

    ||v||_V^2 = sum_T ||eps(v_0)||_T^2 + lambda sum_T ||div_w v||_T^2
              + sum_T h_T^{-1} ||v_0 - v_b||_{dT}^2.
    """
    space = v.space
    p = space.pack()
    cls, h = p["cls"], space.mesh.h_per_element
    c0 = v.interior()  # (nt, 2, nk)

    # grad(v0)[t, c, j, b] = h^-1 sum_a D[j, b, a] c0[t, c, a], in P_{k-1}
    grad = np.einsum("jba,tca->tcjb", p["D"][:, :space.nk1], c0)
    grad /= h[:, None, None, None]
    eps = 0.5 * (grad + grad.transpose(0, 2, 1, 3))
    strain_sq = np.einsum("tcjp,tpq,tcjq->", eps, p["Mpsi"][cls], eps)

    dv = weak_divergence(v)
    div_sq = np.einsum("tp,tpq,tq->", dv, p["Mpsi"][cls], dv)

    loc = v.local_scalar_dofs()
    jump_sq = 0.0
    for l in range(3):
        diff = np.einsum("tqs,tcs->tqc", _trace_jump(space, l)[cls], loc)
        jump_sq += np.einsum("t,tq,tqc,tqc->", 1.0 / h, p["ew_loc"][cls, l], diff, diff)

    vnorm = np.sqrt(strain_sq + params.lam * div_sq + jump_sq)
    xnorm = np.sqrt(np.einsum("tca,tab,tcb->", c0, p["Mphi"][cls], c0))
    return float(vnorm), float(xnorm)
