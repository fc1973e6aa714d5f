import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastica.polyquad import (
    CellBasis,
    cell_basis_dim,
    edge_basis,
    edge_rule,
    triangle_rule,
)
from elastica.project import project_cell
from conftest import square


def reference_moment(a, b):
    # int over {x,y>=0, x+y<=1} of x^a y^b = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_triangle_rule_basic_moments():
    _, w0 = triangle_rule(0)
    assert w0.sum() == pytest.approx(0.5, abs=1e-15)

    p1, w1 = triangle_rule(1)
    got = (w1 * p1[:, 0]).sum()
    assert got == pytest.approx(1.0 / 6.0, abs=1e-14)

    p4, w4 = triangle_rule(4)
    got = (w4 * p4[:, 0] ** 2 * p4[:, 1] ** 2).sum()
    assert got == pytest.approx(1.0 / 180.0, abs=1e-15)


@pytest.mark.parametrize("exactness", [0, 1, 2, 3, 4, 6, 8, 10])
def test_triangle_rule_exact_for_all_monomials(exactness):
    pts, w = triangle_rule(exactness)
    for a in range(exactness + 1):
        for b in range(exactness + 1 - a):
            got = (w * pts[:, 0] ** a * pts[:, 1] ** b).sum()
            want = reference_moment(a, b)
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_triangle_rule_degree_limits():
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        triangle_rule(31)
    triangle_rule(30)  # supported upper end


def test_edge_rule_moments():
    t1, w1 = edge_rule(1)
    assert (w1 * t1).sum() == pytest.approx(0.0, abs=1e-14)
    t3, w3 = edge_rule(3)
    assert (w3 * t3**2).sum() == pytest.approx(2.0 / 3.0, abs=1e-14)
    t5, w5 = edge_rule(5)
    assert (w5 * t5**4).sum() == pytest.approx(2.0 / 5.0, abs=1e-14)


@given(st.integers(0, 20))
@settings(max_examples=30, deadline=None)
def test_edge_rule_exact_for_all_monomials(exactness):
    t, w = edge_rule(exactness)
    for d in range(exactness + 1):
        got = (w * t**d).sum()
        want = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_cell_basis_dim():
    assert cell_basis_dim(0) == 1
    assert cell_basis_dim(1) == 3
    assert cell_basis_dim(2) == 6


def test_cell_basis_centroid_values():
    cent = np.array([[0.25, 0.75]])
    diam = np.array([0.5])
    basis = CellBasis(1, cent, diam)
    vals = basis.evaluate(cent[:, None, :])
    assert np.allclose(vals[0, 0], [1.0, 0.0, 0.0])


def basis_gradient(basis, pts):
    """Basis gradients (ne, nq, dim, 2) from the values and D: evaluate(pts) @ D[j] / h."""
    D = basis.derivatives()
    h = basis.diameters[:, None, None]
    return np.stack([basis.evaluate(pts) @ D[j] / h for j in range(2)], axis=-1)


def test_cell_basis_linear_gradient():
    cent = np.array([[0.3, 0.4]])
    diam = np.array([0.25])
    basis = CellBasis(1, cent, diam)
    pts = np.random.default_rng(0).uniform(0, 1, size=(1, 5, 2))
    grad = basis_gradient(basis, pts)
    # scaled x-monomial has constant gradient (1/h_T, 0); y likewise
    assert np.allclose(grad[0, :, 1], [1.0 / 0.25, 0.0])
    assert np.allclose(grad[0, :, 2], [0.0, 1.0 / 0.25])
    assert np.allclose(grad[0, :, 0], 0.0)


def test_cell_basis_gradient_matches_finite_differences():
    m = square(2)
    rng = np.random.default_rng(1)
    pts = m.centroids()[:, None, :] + 0.05 * rng.uniform(-1, 1, (m.num_triangles, 4, 2))
    eps = 1e-6
    for k in (0, 2, 3):
        basis = CellBasis(k, m.centroids(), m.h_per_element)
        grad = basis_gradient(basis, pts)
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            fd = (basis.evaluate(pts + shift) - basis.evaluate(pts - shift)) / (2 * eps)
            assert np.allclose(grad[..., axis], fd, atol=1e-8)


def test_quadratic_roundtrip_reproduction():
    # projecting a quadratic onto P_2 and evaluating the basis reproduces it
    m = square(3)

    def f(x, y):
        vals = np.stack([x**2 - 2 * x * y, 3 * y**2 + x], axis=-1)
        return vals

    coeff = project_cell(f, m, 2)  # (nt, 2, 6)
    basis = CellBasis(2, m.centroids(), m.h_per_element)
    rng = np.random.default_rng(2)
    pts = m.centroids()[:, None, :] + 0.03 * rng.uniform(-1, 1, (m.num_triangles, 6, 2))
    vals = np.einsum("tca,tqa->tqc", coeff, basis.evaluate(pts))
    assert np.allclose(vals, f(pts[..., 0], pts[..., 1]), atol=1e-12)


def test_edge_basis_values():
    t = np.array([-1.0, 0.0, 1.0])
    vals = edge_basis(2, t)
    assert vals.shape == (3, 3)
    assert np.allclose(vals[:, 0], 1.0)
    assert np.allclose(vals[:, 1], t)
    assert np.allclose(vals[:, 2], t**2)


@pytest.mark.parametrize("k", [1, 2])
def test_mass_matrix_conditioning(k):
    # centroid scaling keeps local Gram matrices well conditioned
    for mesh in (square(4), square(16)):
        basis = CellBasis(k, mesh.centroids(), mesh.h_per_element)
        ref, ref_w = triangle_rule(2 * k)
        # map reference rule to physical elements
        p = mesh.vertices[mesh.triangles]
        a, b, c = p[:, 0], p[:, 1], p[:, 2]
        pts = (
            a[:, None, :]
            + ref[None, :, 0:1] * (b - a)[:, None, :]
            + ref[None, :, 1:2] * (c - a)[:, None, :]
        )
        w = 2.0 * mesh.areas()[:, None] * ref_w[None, :]
        phi = basis.evaluate(pts)
        gram = np.einsum("tq,tqi,tqj->tij", w, phi, phi)
        conds = np.linalg.cond(gram)
        assert conds.max() < 1e4
