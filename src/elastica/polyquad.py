"""Scaled monomial bases on triangles/edges and quadrature rules.

Cell bases are monomials in the centroid-scaled coordinates
((x - x_T)/h_T, (y - y_T)/h_T), which keeps local Gram matrices well
conditioned for the low orders used here.  They are ordered by total degree,
so P_{k-1} is the leading block of P_k, and differentiation maps P_k into
that block through a constant integer matrix.  Edge bases are monomials in the
arclength parameter mapped to [-1, 1].  Quadrature on the reference
triangle {x, y >= 0, x + y <= 1} uses a Duffy-collapsed tensor Gauss rule,
exact to any requested degree.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CellBasis",
    "edge_basis",
    "triangle_rule",
    "edge_rule",
    "cell_basis_dim",
]

MAX_TRIANGLE_DEGREE = 30


def cell_basis_dim(k: int) -> int:
    """Dimension of P_k on a triangle."""
    return (k + 1) * (k + 2) // 2


def triangle_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """(points (nq, 2), weights (nq,)) on the reference triangle, weights summing
    to 1/2, exact for total degree <= exactness."""
    if exactness < 0:
        raise ValueError("exactness degree must be >= 0")
    if exactness > MAX_TRIANGLE_DEGREE:
        raise ValueError(
            f"triangle rules supported up to degree {MAX_TRIANGLE_DEGREE}"
        )
    # Duffy map x = u, y = v (1 - u): monomial x^a y^b picks up (1-u)^(b+1),
    # so degrees per axis are at most exactness + 1.
    npt = exactness // 2 + 2
    u, wu = np.polynomial.legendre.leggauss(npt)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    U, V = np.meshgrid(u, u, indexing="ij")
    W = np.outer(wu, wu) * (1.0 - U)
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    return np.stack([x, y], axis=1), W.ravel()


def edge_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of the Gauss-Legendre rule on [-1, 1] exact for degree <= exactness."""
    if exactness < 0:
        raise ValueError("exactness degree must be >= 0")
    npt = exactness // 2 + 1
    return np.polynomial.legendre.leggauss(npt)


class CellBasis:
    """Vectorized scaled-monomial basis of P_k over a batch of triangles.

    Parameters
    ----------
    degree : polynomial degree k >= 0.
    centroids : (ne, 2) element centroids.
    diameters : (ne,) element diameters h_T used for scaling.
    """

    def __init__(self, degree: int, centroids: np.ndarray, diameters: np.ndarray):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self.centroids = centroids
        self.diameters = diameters
        exps = [(a, b) for d in range(degree + 1) for a, b in
                ((d - j, j) for j in range(d + 1))]
        self.exponents = np.array(exps, dtype=np.int64)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Basis values at physical points.

        points : (ne, nq, 2), nq points per element of the batch.
        Returns values of shape (ne, nq, dim).
        """
        xi = (points - self.centroids[:, None, :]) / self.diameters[:, None, None]
        a = self.exponents[:, 0]
        b = self.exponents[:, 1]
        return xi[..., 0:1] ** a * xi[..., 1:2] ** b

    def derivatives(self) -> np.ndarray:
        """Differentiation matrices D (2, dim, dim), the same on every element:
        d phi_a / dx_j = h_T^{-1} sum_b D[j, b, a] phi_b, with b in the leading
        P_{k-1} block."""
        dim = len(self.exponents)
        D = np.zeros((2, dim, dim))
        for j in range(2):
            power = self.exponents[:, j]
            a = np.nonzero(power)[0]
            lower = self.exponents[a] - np.eye(2, dtype=np.int64)[j]
            d = lower.sum(axis=1)
            D[j, d * (d + 1) // 2 + lower[:, 1], a] = power[a]
        return D


def edge_basis(degree: int, t: np.ndarray) -> np.ndarray:
    """Monomials of P_k(e) in the arclength parameter on [-1, 1] at t,
    shape t.shape + (k+1,)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return np.asarray(t, dtype=float)[..., None] ** np.arange(degree + 1)
