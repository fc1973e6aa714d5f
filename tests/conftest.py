"""Shared helpers for the test suite: meshes and random polynomial fields."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from elastica import (
    build_lshape_mesh,
    build_square_mesh,
    bottom_dirichlet,
    classify_boundary,
    full_dirichlet,
)


def square(n, boundary="all"):
    m = build_square_mesh(n)
    spec = full_dirichlet() if boundary == "all" else bottom_dirichlet()
    return classify_boundary(m, spec)


def lshape(n):
    return classify_boundary(build_lshape_mesh(n), full_dirichlet())


def bandwidth(A):
    """max |i - j| over the stored entries (i, j) of a sparse matrix."""
    A = A.tocoo()
    return int(np.abs(A.row - A.col).max())


@pytest.fixture
def square4():
    return square(4)


@pytest.fixture
def square8():
    return square(8)


class PolyField:
    """Random bivariate polynomial vector field of bounded total degree.

    Coefficient matrices C[c][i, j] multiply x^i y^j; derivatives are exact,
    so the field doubles as its own oracle for gradient and divergence.
    """

    def __init__(self, degree, rng=None, coeffs=None):
        self.degree = degree
        if coeffs is not None:
            self.C = coeffs
        else:
            C = rng.uniform(-1.0, 1.0, size=(2, degree + 1, degree + 1))
            i, j = np.meshgrid(np.arange(degree + 1), np.arange(degree + 1),
                               indexing="ij")
            C[:, i + j > degree] = 0.0
            self.C = C

    def __call__(self, x, y):
        vals = [P.polyval2d(x, y, self.C[c]) for c in range(2)]
        return np.stack(vals, axis=-1)

    def _d(self, c, axis):
        return P.polyder(self.C[c], axis=axis)

    def gradient(self):
        """Callable returning the Jacobian, shape (..., 2, 2)."""
        D = [[self._d(c, axis) for axis in range(2)] for c in range(2)]

        def grad(x, y):
            rows = [
                np.stack([P.polyval2d(x, y, D[c][0]),
                          P.polyval2d(x, y, D[c][1])], axis=-1)
                for c in range(2)
            ]
            return np.stack(rows, axis=-2)

        return grad

    def strain(self):
        grad = self.gradient()

        def eps(x, y):
            g = grad(x, y)
            return 0.5 * (g + np.swapaxes(g, -1, -2))

        return eps

    def divergence(self):
        dx = self._d(0, 0)
        dy = self._d(1, 1)

        def div(x, y):
            return P.polyval2d(x, y, dx) + P.polyval2d(x, y, dy)

        return div
