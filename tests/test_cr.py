import numpy as np
import pytest

from elastica import (
    CrFunction,
    CrSpace,
    ElasticParams,
    StabilizationConfig,
    assemble_cr,
    build_square_mesh,
    refine_uniform,
    solve_eigen,
)
from elastica._quadmap import cell_quadrature, edge_quadrature
from elastica.cr import _jumps, jump_values
from elastica.wg import scatter
from conftest import lshape, square


PARAMS = ElasticParams(E=1.0, nu=0.3)
STAB = StabilizationConfig(delta=0.05)


def cr_interpolate(f, space):
    from elastica import interpolate

    return interpolate(f, space)


def element_values(v: CrFunction, pts: np.ndarray) -> np.ndarray:
    """Values of v at per-element points pts (nt, nq, 2) -> (nt, nq, 2)."""
    m = v.space.mesh
    theta = v.space.basis_at(np.arange(m.num_triangles), pts)
    return np.einsum("tql,tlc->tqc", theta, v.edge_means()[m.tri_edges])


def cr_norm(v: CrFunction, params: ElasticParams) -> float:
    """Discrete norm: 2mu strain + lambda divergence + scaled jump terms."""
    m = v.space.mesh
    area = m.areas()
    c = v.edge_means()[m.tri_edges]  # (nt, 3, 2)
    grad = np.einsum("tlc,tlj->tcj", c, -2.0 * v.space._bary_grads())  # constant per element
    eps = 0.5 * (grad + grad.transpose(0, 2, 1))
    strain_sq = np.einsum("t,tij,tij->", area, eps, eps)
    div_sq = float(area @ np.einsum("tcc->t", grad) ** 2)
    ie, jumps, w_ie = jump_values(v)
    jump_sq = float(
        np.einsum("e,eq,eqc,eqc->", 1.0 / m.edge_lengths()[ie], w_ie, jumps, jumps)
    )
    return float(np.sqrt(2.0 * params.mu * strain_sq + params.lam * div_sq + jump_sq))


def test_space_layout():
    m = square(4, boundary="bottom")
    space = CrSpace(m)
    assert space.num_dofs == 2 * m.num_edges
    assert len(space.dirichlet_dofs()) == 2 * len(m.dirichlet_edges)
    assert len(space.free_dofs()) == space.num_dofs - 2 * len(m.dirichlet_edges)


@pytest.mark.parametrize("m", [square(4), square(4, boundary="bottom"), lshape(2)],
                         ids=["clamped", "bottom", "lshape"])
def test_dof_map_is_the_edge_layout(m):
    # CR numbers its unknowns through WG's edge layout at one mean per edge
    # and component; the closed forms [2e, 2e+1] are the reference
    space = CrSpace(m)
    nt = m.num_triangles
    want = (2 * m.tri_edges[:, :, None] + np.arange(2)).reshape(nt, 6)
    assert np.array_equal(space.edge_dofs(m.tri_edges).reshape(nt, 6), want)
    d = m.dirichlet_edges
    assert np.array_equal(space.dirichlet_dofs(), np.stack([2 * d, 2 * d + 1], axis=1).ravel())
    edof = _jumps(space)[3]
    pen = space.edge_dofs(edof)[..., 0]
    assert np.array_equal(pen[..., 0], 2 * edof)
    assert np.array_equal(pen[..., 1], 2 * edof + 1)


def test_interpolation_reproduces_affine():
    m = square(3)
    space = CrSpace(m)

    def f(x, y):
        return np.stack([1.0 + 2.0 * x - y, 0.5 * x + 3.0 * y], axis=-1)

    v = cr_interpolate(f, space)
    pts, _ = cell_quadrature(m, 3)
    vals = element_values(v, pts)
    assert np.abs(vals - f(pts[..., 0], pts[..., 1])).max() <= 1e-13


def test_interpolation_edge_moment_property():
    # every edge mean of v - I_h v vanishes, here for v = (x^2, 0)
    m = square(4)
    space = CrSpace(m)

    def f(x, y):
        return np.stack([x**2, np.zeros_like(x)], axis=-1)

    v = cr_interpolate(f, space)
    _, pts, w = edge_quadrature(m, 8)
    f_means = np.einsum("eq,eqc->ec", w, f(pts[..., 0], pts[..., 1]))
    f_means /= m.edge_lengths()[:, None]
    assert np.abs(f_means - v.edge_means()).max() <= 1e-12


def test_interpolation_error_orders():
    # ||v - I_h v|| = O(h^2) and |v - I_h v|_1 = O(h) for smooth v
    def f(x, y):
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([s, s], axis=-1)

    def fgrad(x, y):
        gx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        gy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        g = np.stack([gx, gy], axis=-1)
        return np.stack([g, g], axis=-2)  # (..., 2 comp, 2 deriv)

    l2, h1 = [], []
    m = square(4)
    for _ in range(3):
        space = CrSpace(m)
        v = cr_interpolate(f, space)
        pts, w = cell_quadrature(m, 8)
        diff = element_values(v, pts) - f(pts[..., 0], pts[..., 1])
        l2.append(np.sqrt(np.einsum("tq,tqc,tqc->", w, diff, diff)))
        g = -2.0 * space._bary_grads()
        c = v.edge_means()[m.tri_edges]
        grad_h = np.einsum("tlc,tlj->tcj", c, g)[:, None, :, :]
        gdiff = grad_h - fgrad(pts[..., 0], pts[..., 1])
        h1.append(np.sqrt(np.einsum("tq,tqcj,tqcj->", w, gdiff, gdiff)))
        m = refine_uniform(m)
    l2_rates = np.log2(np.array(l2[:-1]) / np.array(l2[1:]))
    h1_rates = np.log2(np.array(h1[:-1]) / np.array(h1[1:]))
    assert np.all(np.abs(l2_rates - 2.0) < 0.2)
    assert np.all(np.abs(h1_rates - 1.0) < 0.2)


def test_jump_mean_vanishes():
    # the edge mean of the jump of any CR function is zero (P_e [[v]] = 0)
    m = square(4, boundary="bottom")
    space = CrSpace(m)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = CrFunction(space, rng.standard_normal(space.num_dofs))
        ie, jumps, w = jump_values(v)
        means = np.einsum("eq,eqc->ec", w, jumps) / m.edge_lengths()[ie][:, None]
        assert np.abs(means).max() <= 1e-12


def test_jump_zero_for_continuous_affine():
    m = square(3)
    space = CrSpace(m)
    v = cr_interpolate(
        lambda x, y: np.stack([x - 2 * y, 3 * x + y], axis=-1), space
    )
    _, jumps, _ = jump_values(v)
    assert np.abs(jumps).max() <= 1e-13


def test_penalty_is_the_jump_energy_of_jump_values():
    # A depends on delta only through gamma(h) 2 mu sum_e h_e^-1 ||[v]||_e^2,
    # the jump energy of the jumps cr_norm reads
    m = square(4, boundary="bottom")
    space = CrSpace(m)
    stabs = StabilizationConfig(delta=0.05), StabilizationConfig(delta=2.0)
    A1, A2 = (assemble_cr(space, PARAMS, s).A for s in stabs)
    v = CrFunction(space, np.random.default_rng(5).standard_normal(space.num_dofs))
    ie, jumps, w = jump_values(v)
    energy = np.einsum("e,eq,eqc,eqc->", 1.0 / m.edge_lengths()[ie], w, jumps, jumps)
    gap = stabs[0].gamma(m.h_global) - stabs[1].gamma(m.h_global)
    assert v.coeffs @ ((A1 - A2) @ v.coeffs) == pytest.approx(
        gap * 2.0 * PARAMS.mu * energy, rel=1e-12
    )


@pytest.mark.parametrize("m", [square(8, boundary="bottom"), lshape(4)], ids=["square", "lshape"])
def test_mass_is_the_closed_form_diagonal(m):
    # (theta_i, theta_j)_T = |T|/3 delta_ij, so B stores one entry per dof and
    # matches the 9-point cell quadrature mass to rounding
    space = CrSpace(m)
    B = assemble_cr(space, PARAMS, STAB).B
    rows, cols = B.nonzero()
    assert np.array_equal(rows, cols)
    assert B.nnz == space.num_dofs
    nt = m.num_triangles
    pts, w = cell_quadrature(m, 2)
    theta = space.basis_at(np.arange(nt), pts)
    Mscal = np.einsum("tq,tqa,tqb->tab", w, theta, theta)
    Bloc = np.zeros((nt, 6, 6))
    Bloc[:, 0::2, 0::2] = Mscal
    Bloc[:, 1::2, 1::2] = Mscal
    dof = (2 * m.tri_edges[:, :, None] + np.arange(2)).reshape(nt, 6)
    quad = scatter(Bloc, dof, space.num_dofs)
    assert abs(B - quad).max() <= 2e-14 * abs(quad).max()


def test_assembled_matrices_symmetric_and_definite():
    m = square(4, boundary="bottom")
    sys = assemble_cr(CrSpace(m), PARAMS, STAB)
    for M in (sys.A, sys.B):
        diff = (M - M.T).tocoo()
        scale = np.abs(M.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale
    # the CR mass is the full L2 mass: positive definite
    assert np.linalg.eigvalsh(sys.B.toarray()).min() > 0
    # stiffness positive definite on free dofs
    free = sys.free
    Ad = sys.A[np.ix_(free, free)].toarray()
    assert np.linalg.eigvalsh(Ad).min() > 0


def test_bilinear_symmetry_random_pairs():
    sys = assemble_cr(CrSpace(square(4)), PARAMS, STAB)
    n = sys.A.shape[0]
    scale = np.abs(sys.A.data).max()
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.standard_normal(n)
        w = rng.standard_normal(n)
        assert abs(v @ (sys.A @ w) - w @ (sys.A @ v)) <= (
            1e-12 * scale * np.linalg.norm(v) * np.linalg.norm(w)
        )


def test_assemble_requires_dirichlet_tags():
    with pytest.raises(ValueError):
        assemble_cr(CrSpace(build_square_mesh(2)), PARAMS, STAB)


def test_discrete_korn_observed():
    # broken H1 seminorm controlled by strain plus scaled jumps, with a
    # constant that stays bounded across meshes
    worst = []
    for n in (4, 8):
        m = square(n)
        space = CrSpace(m)
        free = space.free_dofs()
        rng = np.random.default_rng(n)
        area = m.areas()
        g = -2.0 * space._bary_grads()
        ratios = []
        for _ in range(200):
            x = np.zeros(space.num_dofs)
            x[free] = rng.standard_normal(len(free))
            v = CrFunction(space, x)
            c = v.edge_means()[m.tri_edges]
            grad = np.einsum("tlc,tlj->tcj", c, g)
            lhs = np.einsum("t,tcj,tcj->", area, grad, grad)
            eps = 0.5 * (grad + grad.transpose(0, 2, 1))
            strain = np.einsum("t,tij,tij->", area, eps, eps)
            ie, jumps, w = jump_values(v)
            jump = np.einsum(
                "e,eq,eqc,eqc->", 1.0 / m.edge_lengths()[ie], w, jumps, jumps
            )
            ratios.append(lhs / (strain + jump))
        worst.append(max(ratios))
    assert max(worst) < 100.0
    assert worst[1] < 10.0 * worst[0]  # no blow-up under refinement


def test_coercivity_with_stabilization():
    # a_h(v, v) >= c gamma(h) ||v||_h^2 across meshes
    mins = []
    for n in (4, 8):
        m = square(n)
        space = CrSpace(m)
        sys = assemble_cr(space, PARAMS, STAB)
        gam = STAB.gamma(m.h_global)
        free = space.free_dofs()
        rng = np.random.default_rng(10 + n)
        rmin = np.inf
        for _ in range(50):
            x = np.zeros(space.num_dofs)
            x[free] = rng.standard_normal(len(free))
            v = CrFunction(space, x)
            rmin = min(rmin, (x @ (sys.A @ x)) / (gam * cr_norm(v, PARAMS) ** 2))
        mins.append(rmin)
    assert min(mins) > 1e-3
    assert max(mins) / min(mins) < 50


def test_cr_norm_properties():
    m = square(4)
    space = CrSpace(m)
    zero = CrFunction(space, np.zeros(space.num_dofs))
    assert cr_norm(zero, PARAMS) == 0.0

    rng = np.random.default_rng(5)
    v = CrFunction(space, rng.standard_normal(space.num_dofs))
    n1 = cr_norm(v, PARAMS)
    assert n1 > 0
    n2 = cr_norm(CrFunction(space, -2.5 * v.coeffs), PARAMS)
    assert n2 == pytest.approx(2.5 * n1, rel=1e-12)

    # continuous affine interpolant: jump contribution exactly zero
    aff = cr_interpolate(
        lambda x, y: np.stack([x + y, x - y], axis=-1), space
    )
    _, jumps, _ = jump_values(aff)
    assert np.abs(jumps).max() <= 1e-13


def test_eigen_b_orthonormality():
    m = square(8, boundary="bottom")
    sys = assemble_cr(CrSpace(m), ElasticParams(nu=0.49), STAB)
    res = solve_eigen(sys, 4)
    V = res.vectors
    gram = V.T @ (sys.B @ V)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8
    assert res.residuals.max() <= 1e-8
    assert np.all(np.diff(res.eigenvalues) >= 0)
