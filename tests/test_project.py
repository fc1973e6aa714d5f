import numpy as np
import pytest

from elastica import WgSpace, refine_uniform
from elastica.polyquad import CellBasis, edge_basis
from elastica._quadmap import cell_quadrature, edge_quadrature
from elastica.project import (
    project_cell_scalar,
    project_edge,
    project_global,
)
from conftest import PolyField, square


def project_cell(f, m, k):
    """Q_0 f: the [P_k(T)]^2 coefficients, shape (nt, 2, dim P_k)."""
    return project_global(f, WgSpace(m, k)).interior()


def cell_l2_error(m, coeff, f, k):
    """L2 distance between the coefficient field and the callable f."""
    pts, w = cell_quadrature(m, 2 * k + 4)
    basis = CellBasis(k, m.centroids(), m.h_per_element)
    vals = np.einsum("tca,tqa->tqc", coeff, basis.evaluate(pts))
    diff = vals - f(pts[..., 0], pts[..., 1])
    return np.sqrt(np.einsum("tq,tqc,tqc->", w, diff, diff))


def test_cell_projection_identity_on_range():
    m = square(3)
    for k in (1, 2):
        field = PolyField(k, np.random.default_rng(k))
        coeff = project_cell(field, m, k)
        again = project_cell(
            lambda x, y, c=coeff, mm=m, kk=k: _eval(c, mm, kk, x, y), m, k
        )
        assert np.abs(coeff - again).max() <= 1e-12
        assert cell_l2_error(m, coeff, field, k) <= 1e-12


def _eval(coeff, m, k, x, y):
    """The piecewise field of coeff at any points: each point takes the
    polynomial of the first closed triangle that holds it."""
    pts = np.stack([x, y], axis=-1).reshape(-1, 2)
    rel = pts[:, None, :] - m.vertices[m.triangles[:, 0]]
    lam = np.einsum("tij,ptj->pti", np.linalg.inv(m.jacobians()), rel)
    t = ((lam >= -1e-12).all(axis=2) & (lam.sum(axis=2) <= 1 + 1e-12)).argmax(axis=1)
    phi = CellBasis(k, m.centroids()[t], m.h_per_element[t]).evaluate(pts[:, None, :])
    return np.einsum("pca,pa->pc", coeff[t], phi[:, 0]).reshape(x.shape + (2,))


def test_cell_projection_orthogonality():
    # residual moments of f - Q_0 f against every basis field vanish
    m = square(2)
    k = 1

    def f(x, y):
        return np.stack([x**2, np.zeros_like(x)], axis=-1)

    coeff = project_cell(f, m, k)
    pts, w = cell_quadrature(m, 2 * k + 4)
    basis = CellBasis(k, m.centroids(), m.h_per_element)
    phi = basis.evaluate(pts)
    proj = np.einsum("tca,tqa->tqc", coeff, phi)
    resid = f(pts[..., 0], pts[..., 1]) - proj
    moments = np.einsum("tq,tqc,tqa->tca", w, resid, phi)
    assert np.abs(moments).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_cell_projection_error_rate(k):
    def f(x, y):
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([s, np.zeros_like(s)], axis=-1)

    errs = []
    m = square(4)
    for _ in range(3):
        errs.append(cell_l2_error(m, project_cell(f, m, k), f, k))
        m = refine_uniform(m)
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - (k + 1)) < 0.2)


def test_edge_projection_exact_on_polynomials():
    m = square(3)
    for k in (1, 2):
        field = PolyField(k, np.random.default_rng(10 + k))
        coeff = project_edge(field, m, k)
        t, pts, w = edge_quadrature(m, 2 * k + 4)
        chi = edge_basis(k, t)
        vals = np.einsum("ecm,qm->eqc", coeff, chi)
        diff = vals - field(pts[..., 0], pts[..., 1])
        assert np.abs(diff).max() <= 1e-12


def test_edge_projection_best_linear_fit():
    # f = x^2 on each edge: compare against 1D normal equations per edge
    m = square(2)
    k = 1

    def f(x, y):
        return np.stack([x**2, np.zeros_like(x)], axis=-1)

    coeff = project_edge(f, m, k)
    t, pts, w = edge_quadrature(m, 6)
    chi = edge_basis(k, t)
    for e in range(m.num_edges):
        G = np.einsum("q,qi,qj->ij", w[e], chi, chi)
        rhs = np.einsum("q,qi,q->i", w[e], chi, pts[e, :, 0] ** 2)
        ref = np.linalg.solve(G, rhs)
        assert np.abs(coeff[e, 0] - ref).max() <= 1e-12
    # orthogonality of the residual against the edge basis
    vals = np.einsum("ecm,qm->eqc", coeff, chi)
    resid = f(pts[..., 0], pts[..., 1]) - vals
    moments = np.einsum("eq,eqc,qm->ecm", w, resid, chi)
    assert np.abs(moments).max() <= 1e-12


def test_scalar_projection_mean_for_k1():
    m = square(2)
    coeff = project_cell_scalar(lambda x, y: x, m, 1)  # P_0: the mean
    pts, w = cell_quadrature(m, 4)
    means = np.einsum("tq,tq->t", w, pts[..., 0]) / m.areas()
    assert np.allclose(coeff[:, 0], means, atol=1e-13)
    assert coeff.shape == (m.num_triangles, 1)


def test_scalar_projection_identity_on_range():
    m = square(2)
    coeff = project_cell_scalar(lambda x, y: 2.0 * np.ones_like(x), m, 2)
    # constants are exactly representable for k=2 (P_1 target)
    pts, w = cell_quadrature(m, 4)
    basis = CellBasis(1, m.centroids(), m.h_per_element)
    vals = np.einsum("ta,tqa->tq", coeff, basis.evaluate(pts))
    assert np.abs(vals - 2.0).max() <= 1e-13


def test_matrix_projection_of_polynomial_gradient():
    # F = grad(v) for v in P_k^2 lies in P_{k-1}, so the projection is exact
    m = square(2)
    for k in (1, 2):
        field = PolyField(k, np.random.default_rng(20 + k))
        coeff = project_cell_scalar(field.gradient(), m, k)
        pts, w = cell_quadrature(m, 2 * k + 4)
        basis = CellBasis(k - 1, m.centroids(), m.h_per_element)
        vals = np.einsum("tabi,tqi->tqab", coeff, basis.evaluate(pts))
        want = field.gradient()(pts[..., 0], pts[..., 1])
        assert np.abs(vals - want).max() <= 1e-12


def test_matrix_projection_idempotent():
    m = square(2)
    field = PolyField(3, np.random.default_rng(3))
    c1 = project_cell_scalar(field.gradient(), m, 2)
    basis = CellBasis(1, m.centroids(), m.h_per_element)

    def as_field(x, y):
        pts = np.stack([x, y], axis=-1)
        return np.einsum("tabi,tqi->tqab", c1, basis.evaluate(pts))

    c2 = project_cell_scalar(as_field, m, 2)
    assert np.abs(c1 - c2).max() <= 1e-13


def test_global_projection_identity_on_wg_space():
    # a polynomial of degree <= k lies in V_h: the cell part reproduces it,
    # and the edge part is its edge projection
    m = square(3)
    for k in (1, 2):
        space = WgSpace(m, k)
        field = PolyField(k, np.random.default_rng(30 + k))
        v = project_global(field, space)
        assert cell_l2_error(m, v.interior(), field, k) <= 1e-12
        edge = v.coeffs[space.num_interior_dofs:].reshape(m.num_edges, 2, k + 1)
        assert np.abs(edge - project_edge(field, m, k)).max() <= 1e-12


def test_global_projection_boundary_consistency():
    m = square(4)
    space = WgSpace(m, 1)

    def f(x, y):
        bubble = x * (1 - x) * y * (1 - y)
        return np.stack([bubble, bubble], axis=-1)

    v = project_global(f, space)
    # f vanishes on the clamped boundary, so Dirichlet dofs come out zero
    assert np.abs(v.coeffs[space.pencil_rows() < 0]).max() <= 1e-13


def test_invalid_order_rejected():
    m = square(2)
    with pytest.raises(ValueError):
        project_cell_scalar(lambda x, y: x, m, 0)
    with pytest.raises(ValueError):
        project_cell_scalar(lambda x, y: np.zeros(x.shape + (2, 2)), m, 0)
