"""Mapped quadrature over mesh entities (internal helper)."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh
from .polyquad import edge_rule, triangle_rule


def cell_quadrature(m: Mesh, exactness: int):
    """Physical quadrature over all elements.

    Returns (points, weights): points (nt, nq, 2), weights (nt, nq) with
    sum over q equal to the element area.
    """
    ref, ref_w = triangle_rule(exactness)
    p0 = m.vertices[m.triangles[:, 0]]
    pts = p0[:, None, :] + np.einsum("tij,qj->tqi", m.jacobians(), ref)
    w = 2.0 * m.areas()[:, None] * ref_w
    return pts, w


def edge_quadrature(m: Mesh, exactness: int):
    """Physical quadrature along all edges, in canonical orientation.

    The canonical parameterization runs from the smaller-index endpoint to
    the larger at t in [-1, 1]; both incident elements therefore see
    identical points and edge-basis values.

    Returns (params, points, weights): params (nqe,), points (ne, nqe, 2),
    weights (ne, nqe) with sum over q equal to the edge length.
    """
    t, t_w = edge_rule(exactness)
    half = 0.5 * (m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]])
    pts = m.edge_midpoints()[:, None, :] + t[None, :, None] * half[:, None, :]
    w = 0.5 * m.edge_lengths()[:, None] * t_w[None, :]
    return t, pts, w
