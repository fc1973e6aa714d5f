import math

import numpy as np
import pytest

from elastica import (
    build_lshape_mesh,
    build_square_mesh,
    bottom_dirichlet,
    classify_boundary,
    full_dirichlet,
    refine_uniform,
)
from elastica.mesh import _build_topology


def twice_signed_areas(m):
    # (x1 - x0)(y2 - y0) - (x2 - x0)(y1 - y0) from the vertex coordinates
    (x0, y0), (x1, y1), (x2, y2) = m.vertices[m.triangles].transpose(1, 2, 0)
    return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)


def neumann_count(m):
    return len(m.boundary_edges) - len(m.dirichlet_edges)


def euler_characteristic(m):
    # V - E + F counts the triangulated polygon plus the outer face
    return m.num_vertices - m.num_edges + (m.num_triangles + 1)


def test_square_counts():
    m = build_square_mesh(2)
    assert (m.num_triangles, m.num_vertices, m.num_edges) == (8, 9, 16)
    assert euler_characteristic(m) == 2

    m1 = build_square_mesh(1)
    assert (m1.num_triangles, m1.num_vertices, m1.num_edges) == (2, 4, 5)
    assert euler_characteristic(m1) == 2


def test_square_counts_16():
    m = build_square_mesh(16)
    assert m.num_triangles == 2 * 16**2
    assert m.h_global == pytest.approx(math.sqrt(2) / 16, rel=1e-14)


def test_lshape_counts():
    m = build_lshape_mesh(1)
    assert (m.num_triangles, m.num_vertices, m.num_edges) == (6, 8, 13)
    assert euler_characteristic(m) == 2
    assert build_lshape_mesh(2).num_triangles == 24
    assert build_lshape_mesh(16).num_triangles == 6 * 16**2


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_lshape_is_the_square_grid_minus_a_quadrant(n):
    m = build_lshape_mesh(n)
    assert np.array_equal(m.vertices, np.round(m.vertices * n) / n)  # exactly (i/n, j/n)
    assert m.num_vertices == (2 * n + 1) ** 2 - n**2
    x, y = m.vertices.T
    assert np.all((x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] > y[:-1])))
    assert m.num_triangles == 6 * n**2
    c = m.centroids()
    assert not np.any((c[:, 0] > 1) & (c[:, 1] > 1))
    assert m.areas().sum() == pytest.approx(3.0, rel=1e-14)


def test_invalid_subdivisions():
    with pytest.raises(ValueError):
        build_square_mesh(0)
    with pytest.raises(ValueError):
        build_lshape_mesh(0)


def test_orientation_and_area():
    for m in (build_square_mesh(3), build_lshape_mesh(2)):
        assert np.all(twice_signed_areas(m) > 0)
    assert build_square_mesh(3).areas().sum() == pytest.approx(1.0, rel=1e-14)
    assert build_lshape_mesh(2).areas().sum() == pytest.approx(3.0, rel=1e-14)


def test_jacobian_determinants_are_twice_the_signed_areas():
    m = build_square_mesh(4)
    rng = np.random.default_rng(3)
    moved = _build_topology(m.vertices + rng.uniform(-0.05, 0.05, m.vertices.shape), m.triangles)
    for mesh in (m, build_lshape_mesh(2), moved):
        J = mesh.jacobians()
        p = mesh.vertices[mesh.triangles]
        assert np.array_equal(J[:, :, 0], p[:, 1] - p[:, 0])
        assert np.array_equal(J[:, :, 1], p[:, 2] - p[:, 0])
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        assert np.array_equal(det, twice_signed_areas(mesh))


def test_edge_adjacency():
    m = build_square_mesh(3)
    interior = m.edge_tris[m.interior_edges]
    assert np.all(interior >= 0)
    boundary = m.edge_tris[m.boundary_edges]
    assert np.all(boundary[:, 0] >= 0) and np.all(boundary[:, 1] == -1)
    # T+ is the incident triangle with the smaller index
    assert np.all(interior[:, 0] < interior[:, 1])
    # local edge l is opposite vertex l
    for t in range(m.num_triangles):
        for l in range(3):
            e = m.edges[m.tri_edges[t, l]]
            assert m.triangles[t, l] not in e
            assert set(e) <= set(m.triangles[t])


def test_refine_counts_and_h():
    m = build_square_mesh(1)
    r = refine_uniform(m)
    assert r.num_triangles == 8
    rr = refine_uniform(r)
    assert rr.num_triangles == 32
    assert rr.h_global == pytest.approx(math.sqrt(2) / 4, rel=1e-15)
    assert r.h_global == m.h_global / 2  # dyadic midpoints are exact
    assert r.areas().sum() == pytest.approx(m.areas().sum(), rel=1e-12)


def test_refine_lshape_matches_direct_build():
    r = refine_uniform(build_lshape_mesh(1))
    d = build_lshape_mesh(2)
    got = sorted(map(tuple, np.round(r.vertices, 12)))
    want = sorted(map(tuple, np.round(d.vertices, 12)))
    assert got == want


def test_refine_inherits_tags():
    m = classify_boundary(build_square_mesh(2), bottom_dirichlet())
    r = refine_uniform(m)
    assert len(r.dirichlet_edges) == 2 * len(m.dirichlet_edges)
    assert neumann_count(r) == 2 * neumann_count(m)
    mids = r.edge_midpoints()[r.dirichlet_edges]
    assert np.all(np.abs(mids[:, 1]) < 1e-12)


def test_classify_full_and_mixed():
    m = classify_boundary(build_square_mesh(2), full_dirichlet())
    assert len(m.dirichlet_edges) == 8
    assert neumann_count(m) == 0

    m = classify_boundary(build_square_mesh(2), bottom_dirichlet())
    assert len(m.dirichlet_edges) == 2
    assert neumann_count(m) == 6

    m = classify_boundary(build_lshape_mesh(1), full_dirichlet())
    assert len(m.dirichlet_edges) == 8


@pytest.mark.parametrize(
    "predicate, ndir",
    [
        (lambda x, y: x < 0.5, 4),  # array: the left side, left halves of bottom and top
        (lambda x, y: True, 8),  # scalar: applies to every boundary edge
        (lambda x, y: np.bool_(True), 8),
    ],
    ids=["array", "scalar", "numpy-scalar"],
)
def test_classify_predicate_array_or_scalar(predicate, ndir):
    m = classify_boundary(build_square_mesh(2), predicate)
    assert len(m.dirichlet_edges) == ndir
    assert neumann_count(m) == 8 - ndir
    assert m.dirichlet.dtype == bool
    assert not m.dirichlet[m.interior_edges].any()


def test_classify_empty_dirichlet_rejected():
    with pytest.raises(ValueError):
        classify_boundary(build_square_mesh(2), lambda x, y: False)


def test_h_per_element_is_longest_edge():
    m = build_square_mesh(4)
    pts = m.vertices[m.triangles]
    lengths = np.linalg.norm(pts - np.roll(pts, 1, axis=1), axis=2)
    assert np.allclose(m.h_per_element, lengths.max(axis=1))
    assert m.h_global == pytest.approx(m.h_per_element.max())


def test_outward_normals():
    for m in (build_square_mesh(2), build_lshape_mesh(3)):
        nrm = m.outward_normals()
        assert np.allclose(np.linalg.norm(nrm, axis=2), 1.0)
        pts = m.vertices[m.triangles]
        cent = m.centroids()
        for l in range(3):
            mid = 0.5 * (pts[:, (l + 1) % 3] + pts[:, (l + 2) % 3])
            outward = np.einsum("tj,tj->t", nrm[:, l], mid - cent)
            assert np.all(outward > 0)
            # reference: the tangent from vertex l + 1 to l + 2, one local edge at a time
            t = pts[:, (l + 2) % 3] - pts[:, (l + 1) % 3]
            n = np.stack([t[:, 1], -t[:, 0]], axis=1)
            assert np.array_equal(nrm[:, l], n / np.linalg.norm(n, axis=1)[:, None])


def test_non_manifold_rejected():
    # three triangles share the edge (0, 1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
    with pytest.raises(ValueError, match="non-manifold"):
        _build_topology(verts, tris)


def test_clockwise_input_made_counterclockwise():
    m = build_square_mesh(2)
    cw = m.triangles[:, [0, 2, 1]]
    r = _build_topology(m.vertices, cw)
    assert np.all(twice_signed_areas(r) > 0)
    np.testing.assert_array_equal(r.triangles, m.triangles)
    np.testing.assert_array_equal(r.edge_tris, m.edge_tris)


def _midpoint_mask(m):
    mids = np.round(m.edge_midpoints(), 12)
    return sorted(zip(map(tuple, mids), m.dirichlet.tolist()))


@pytest.mark.parametrize("build", [build_square_mesh, build_lshape_mesh])
@pytest.mark.parametrize("spec", [full_dirichlet, bottom_dirichlet])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_refined_tags_match_direct_build(build, spec, n):
    # edge for edge, matched by midpoint, the refined Dirichlet mask is the
    # direct build's, and no interior edge is ever Dirichlet
    coarse = classify_boundary(build(n), spec())
    refined = refine_uniform(coarse)
    direct = classify_boundary(build(2 * n), spec())
    assert _midpoint_mask(refined) == _midpoint_mask(direct)
    for m in (build(n), coarse, refined, direct):
        assert not m.dirichlet[m.interior_edges].any()

