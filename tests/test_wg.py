import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from elastica import (
    CrSpace,
    ElasticParams,
    StabilizationConfig,
    WgFunction,
    WgSpace,
    assemble_cr,
    assemble_forms,
    build_square_mesh,
    classify_boundary,
    full_dirichlet,
    solve_eigen,
    solve_source,
)
from elastica._quadmap import cell_quadrature, edge_quadrature
from elastica.mesh import _build_topology
from elastica.polyquad import CellBasis, edge_basis
from elastica.project import (
    project_cell_scalar,
    project_global,
)
from elastica.wg import (
    AssembledSystem,
    norms,
    weak_divergence,
    weak_gradient,
    weak_strain,
)
from elastica import cr as cr_mod, spectra, wg as wg_mod
from conftest import PolyField, bandwidth, lshape, square


PARAMS = ElasticParams(E=1.0, nu=0.3)
STAB = StabilizationConfig(delta=0.05)


def test_elastic_params():
    p = ElasticParams(E=2.0, nu=0.25)
    assert p.lam == pytest.approx(2.0 * 0.25 / (1.25 * 0.5))
    assert p.mu == pytest.approx(2.0 / 2.5)
    for bad in (-0.1, 0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            ElasticParams(nu=bad)
    with pytest.raises(ValueError):
        ElasticParams(E=0.0)


def test_stabilization_weight():
    stab = StabilizationConfig(delta=0.05)
    assert stab.gamma(0.125) == pytest.approx(0.125**0.05)
    assert 0.0 < stab.gamma(0.01) < 1.0
    with pytest.raises(ValueError):
        StabilizationConfig(delta=0.0)


def test_space_dof_counts():
    m = square(4)
    for k in (1, 2):
        space = WgSpace(m, k)
        nk = (k + 1) * (k + 2) // 2
        assert space.num_interior_dofs == 2 * m.num_triangles * nk
        assert space.num_edge_dofs == 2 * m.num_edges * (k + 1)
        assert space.num_dofs == space.num_interior_dofs + space.num_edge_dofs
        rows = space.pencil_rows()
        assert (rows < 0).sum() == 2 * (k + 1) * m.dirichlet.sum()
        # scatter numbers the free dofs in dof order, the interior ones first
        assert np.array_equal(rows[rows >= 0], np.arange((rows >= 0).sum()))
        assert np.all(rows[: space.num_interior_dofs] >= 0)
    with pytest.raises(ValueError):
        WgSpace(m, 0)


def _loop_local_dofs(space):
    # reference layout written out per component and local edge
    m = space.mesh
    nk, nke = space.nk, space.nke
    ref = np.empty((m.num_triangles, 2, nk + 3 * nke), dtype=np.int64)
    for t in range(m.num_triangles):
        for comp in range(2):
            ref[t, comp, :nk] = t * 2 * nk + comp * nk + np.arange(nk)
            for l in range(3):
                e = m.tri_edges[t, l]
                ref[t, comp, nk + l * nke:nk + (l + 1) * nke] = (
                    space.num_interior_dofs + e * 2 * nke + comp * nke + np.arange(nke)
                )
    return ref


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh", [square(2), lshape(2)], ids=["square", "lshape"])
def test_local_dofs_match_loop_reference(mesh, k):
    space = WgSpace(mesh, k)
    assert np.array_equal(space.local_dofs(), _loop_local_dofs(space))
    # each Dirichlet edge constrains its 2 (k + 1) consecutive dofs
    block = 2 * (k + 1)
    d = np.flatnonzero(mesh.dirichlet)
    want = space.num_interior_dofs + d[:, None] * block + np.arange(block)
    assert np.array_equal(np.flatnonzero(space.pencil_rows() < 0), want.ravel())


def _monomial_gradient(basis, pts):
    """Scaled-monomial gradients (nt, nq, dim, 2) from the power rule, term by term."""
    xi = (pts - basis.centroids[:, None, :]) / basis.diameters[:, None, None]
    a, b = basis.exponents[:, 0], basis.exponents[:, 1]
    x, y = xi[..., 0:1], xi[..., 1:2]
    with np.errstate(invalid="ignore"):
        dx = np.where(a > 0, a * x ** np.maximum(a - 1, 0) * y**b, 0.0)
        dy = np.where(b > 0, b * x**a * y ** np.maximum(b - 1, 0), 0.0)
    return np.stack([dx, dy], axis=-1) / basis.diameters[:, None, None, None]


def _quadrature_pack(space):
    """Mpsi, Aj and G from quadrature with a separate P_{k-1} basis."""
    m, k = space.mesh, space.order
    pts, w = cell_quadrature(m, 2 * k + 2)
    bk = CellBasis(k, m.centroids(), m.h_per_element)
    bk1 = CellBasis(k - 1, m.centroids(), m.h_per_element)
    phi, psi = bk.evaluate(pts), bk1.evaluate(pts)
    Mpsi = np.einsum("tq,tqi,tqj->tij", w, psi, psi)
    Aj = np.einsum("tq,tqpj,tqa->jtpa", w, _monomial_gradient(bk1, pts), phi)
    tparams, epts, ew = edge_quadrature(m, 2 * k + 2)
    chi = edge_basis(k, tparams)
    ew_loc = ew[m.tri_edges]
    psi_e = bk1.evaluate(epts[m.tri_edges].reshape(m.num_triangles, -1, 2))
    Te = np.einsum("tlq,tlqp,qm->tlpm", ew_loc, psi_e.reshape(ew_loc.shape + (-1,)), chi)
    Nb = np.einsum("tlj,tlpm->jtplm", m.outward_normals(), Te)
    Nb = Nb.reshape(2, m.num_triangles, space.nk1, 3 * space.nke)
    G = np.linalg.solve(Mpsi[None], np.concatenate([-Aj, Nb], axis=3))
    return Mpsi, Aj, G


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh", [square(2), lshape(2)], ids=["square", "lshape"])
def test_pack_matches_quadrature_of_a_separate_lower_basis(mesh, k):
    # the pack takes P_{k-1} as the leading block of P_k and differentiates through D
    # of each triangle's class, on the class's local triangle
    space = WgSpace(mesh, k)
    p = space.pack()
    Mpsi_pack, G_pack = p["Mpsi"][p["cls"]], p["G"][:, p["cls"]]
    Mpsi, Aj, G = _quadrature_pack(space)
    Aj_pack = -np.einsum("tpq,jtqa->jtpa", Mpsi_pack, G_pack[..., :space.nk])
    for got, want in ((Mpsi_pack, Mpsi), (Aj_pack, Aj), (G_pack, G)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("k", [1, 2])
def test_stabilizer_is_the_jump_energy_of_the_norm(k):
    # a_w depends on delta only through gamma(h) times the jump energy,
    # sum_T h_T^-1 ||v0 - vb||_dT^2, here summed edge by edge from the traces, for a
    # v that vanishes on the bottom edge, the Dirichlet boundary
    m = square(4, "bottom")
    space = WgSpace(m, k)
    stabs = StabilizationConfig(delta=0.05), StabilizationConfig(delta=2.0)
    sys1, sys2 = (assemble_forms(space, PARAMS, s) for s in stabs)
    A1, A2, free = sys1.A, sys2.A, sys1.free
    assert np.array_equal(sys2.free, free)
    x = np.zeros(space.num_dofs)
    x[free] = np.random.default_rng(k).standard_normal(len(free))
    v = WgFunction(space, x)
    p, nk, nke = space.pack(), space.nk, space.nke
    cls, loc = p["cls"], v.local_scalar_dofs()
    energy = 0.0
    for l in range(3):  # v0 - vb on each edge from the traces, the reference for _trace_jump
        v0 = np.einsum("tqa,tca->tqc", p["phi_e"][cls, l], loc[:, :, :nk])
        d = v0 - np.einsum("qm,tcm->tqc", p["chi"], loc[:, :, nk + l * nke:nk + (l + 1) * nke])
        energy += np.einsum("t,tq,tqc,tqc->", 1 / m.h_per_element, p["ew_loc"][cls, l], d, d)
    gap = stabs[0].gamma(m.h_global) - stabs[1].gamma(m.h_global)
    assert x[free] @ ((A1 - A2) @ x[free]) == pytest.approx(gap * energy, rel=1e-12)


def test_weak_gradient_of_identity_field():
    m = square(2)
    space = WgSpace(m, 1)
    v = project_global(lambda x, y: np.stack([x, y], axis=-1), space)
    g = weak_gradient(v)  # (nt, 2, 2, 1) constant coefficients for k=1
    assert np.allclose(g[:, 0, 0, 0], 1.0, atol=1e-12)
    assert np.allclose(g[:, 1, 1, 0], 1.0, atol=1e-12)
    assert np.abs(g[:, 0, 1, :]).max() <= 1e-12
    assert np.abs(g[:, 1, 0, :]).max() <= 1e-12


def test_weak_gradient_linearity_and_zero():
    m = square(2)
    space = WgSpace(m, 1)
    zero = WgFunction(space, np.zeros(space.num_dofs))
    assert np.abs(weak_gradient(zero)).max() == 0.0
    rng = np.random.default_rng(0)
    a = WgFunction(space, rng.standard_normal(space.num_dofs))
    b = WgFunction(space, rng.standard_normal(space.num_dofs))
    combo = WgFunction(space, 2.0 * a.coeffs - 3.0 * b.coeffs)
    g = weak_gradient(combo)
    assert np.allclose(g, 2.0 * weak_gradient(a) - 3.0 * weak_gradient(b), atol=1e-12)


def test_weak_divergence_examples():
    m = square(2)
    space = WgSpace(m, 1)
    v = project_global(lambda x, y: np.stack([x, y], axis=-1), space)
    d = weak_divergence(v)
    assert np.allclose(d[:, 0], 2.0, atol=1e-12)

    rot = project_global(lambda x, y: np.stack([-y, x], axis=-1), space)
    assert np.abs(weak_divergence(rot)).max() <= 1e-12


def test_weak_divergence_quadratic():
    m = square(2)
    space = WgSpace(m, 2)
    v = project_global(
        lambda x, y: np.stack([x**2, np.zeros_like(x)], axis=-1), space
    )
    d = weak_divergence(v)
    want = project_cell_scalar(lambda x, y: 2.0 * x, m, 2)
    assert np.abs(d - want).max() <= 1e-11


def test_weak_gradient_quadratic_matches_projection():
    m = square(2)
    space = WgSpace(m, 2)
    field = PolyField(2, coeffs=np.zeros((2, 3, 3)))
    field.C[0, 2, 0] = 1.0  # (x^2, x y)
    field.C[1, 1, 1] = 1.0
    v = project_global(field, space)
    g = weak_gradient(v)
    want = project_cell_scalar(field.gradient(), m, 2)
    assert np.abs(g - want).max() <= 1e-11


@pytest.mark.parametrize("k,count", [(1, 60), (2, 40)])
def test_commutativity_on_random_polynomials(k, count):
    # weak operators of the projection equal projections of the exact
    # derivatives, for polynomial fields of degree <= k+1
    m = square(3)
    space = WgSpace(m, k)
    rng = np.random.default_rng(100 + k)
    for _ in range(count):
        field = PolyField(k + 1, rng)
        v = project_global(field, space)
        g = weak_gradient(v)
        assert np.abs(g - project_cell_scalar(field.gradient(), m, k)).max() <= 1e-11
        e = weak_strain(v)
        assert np.abs(e - project_cell_scalar(field.strain(), m, k)).max() <= 1e-11
        d = weak_divergence(v)
        assert np.abs(d - project_cell_scalar(field.divergence(), m, k)).max() <= 1e-11


def _weak_gradient_of_field(f, m, k):
    """Weak gradient of a smooth field from its exact traces, shape (nt, 2, 2, dim
    P_{k-1}): the Gram solve of -(f_i, d psi_p/dx_j)_T + <f_i, psi_p n_j>_dT by
    quadrature on m's triangles, with a separate P_{k-1} basis."""
    nt = m.num_triangles
    pts, w = cell_quadrature(m, 2 * k + 2)
    basis = CellBasis(k - 1, m.centroids(), m.h_per_element)
    psi = basis.evaluate(pts)
    Mpsi = np.einsum("tq,tqi,tqj->tij", w, psi, psi)
    num = -np.einsum("tq,tqc,tqpj->tcjp", w, f(pts[..., 0], pts[..., 1]),
                     _monomial_gradient(basis, pts))
    _, epts, ew = edge_quadrature(m, 2 * k + 2)
    ep = epts[m.tri_edges]  # (nt, 3, nqe, 2)
    psi_e = basis.evaluate(ep.reshape(nt, -1, 2)).reshape(ep.shape[:3] + (-1,))
    num += np.einsum("tlq,tlqc,tlqp,tlj->tcjp", ew[m.tri_edges], f(ep[..., 0], ep[..., 1]),
                     psi_e, m.outward_normals())
    return np.linalg.solve(Mpsi[:, None, None], num[..., None])[..., 0]


def _jittered_square(n, seed):
    """square(n) with every interior vertex moved by up to h/5 in each direction."""
    m = build_square_mesh(n)
    v = m.vertices.copy()
    inner = np.all((v > 0) & (v < 1), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.2, 0.2, (inner.sum(), 2)) / n
    return classify_boundary(_build_topology(v, m.triangles), full_dirichlet())


def _smooth_field(x, y):
    s = np.sin(np.pi * x) * np.sin(np.pi * y)
    c = np.cos(np.pi * x) * y
    return np.stack([s, c], axis=-1)


def _check_lifting(space):
    # computing the weak operators from exact traces of a smooth field
    # gives the same result as computing them from its projection
    v = project_global(_smooth_field, space)
    g = _weak_gradient_of_field(_smooth_field, space.mesh, space.order)
    assert np.abs(weak_gradient(v) - g).max() <= 1e-11
    assert np.abs(weak_divergence(v) - (g[:, 0, 0] + g[:, 1, 1])).max() <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_lifting_exact_traces_equal_projected_traces(k):
    _check_lifting(WgSpace(square(3), k))


@pytest.mark.parametrize("n", [16, 64])
def test_lab_meshes_have_two_classes(n):
    # every triangle of the square and the L-shape is a translate of one of two
    for m in (square(n), lshape(n)):
        p = WgSpace(m, 1).pack()
        assert len(p["Mphi"]) == 2 and p["cls"].shape == (m.num_triangles,)


@pytest.mark.parametrize("k", [1, 2])
def test_jittered_mesh_has_a_class_per_triangle_and_commutes(k):
    m = _jittered_square(4, 6)
    space = WgSpace(m, k)
    assert len(space.pack()["Mphi"]) == m.num_triangles
    assert space.pack()["local"].h_global == m.h_global  # the class mesh derives h from m's h_T
    _check_lifting(space)
    rng = np.random.default_rng(200 + k)
    for _ in range(10):
        field = PolyField(k + 1, rng)
        v = project_global(field, space)
        g = project_cell_scalar(field.gradient(), m, k)
        assert np.abs(weak_gradient(v) - g).max() <= 1e-11
        d = project_cell_scalar(field.divergence(), m, k)
        assert np.abs(weak_divergence(v) - d).max() <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_assembled_matrices_symmetric(k):
    sys = assemble_forms(WgSpace(square(4), k), PARAMS, STAB)
    for M in (sys.A, sys.B):
        diff = (M - M.T).tocoo()
        scale = np.abs(M.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale


@pytest.mark.parametrize("method, k", [("wg", 1), ("wg", 2), ("wg", 3), ("cr", 1)])
def test_assembly_stores_no_zeros(monkeypatch, method, k):
    # scatter sums only the positions it is given and drops exact zeros after
    # the COO -> CSR sum, so every stored value is the plain sum of every block
    # position, bit for bit, with the Dirichlet dofs' entries in a sink row and
    # column that are cut off; WG sends one block per class of triangles and leaves
    # out the positions that are zero in every class block, CR sends one block per
    # element and all of its positions in their order
    module = wg_mod if method == "wg" else cr_mod
    scatter = module.scatter
    scattered, sent = [], []

    def checked(blocks, idx, rows, pos=None, cls=slice(None)):
        M = scatter(blocks, idx, rows, pos, cls)
        d, n = idx.shape[1], rows.max() + 1
        r = np.where(rows < 0, n, rows)[idx]
        ij = (np.repeat(r, d, axis=1).ravel(), np.tile(r, (1, d)).ravel())
        plain = sp.coo_matrix((blocks[cls].ravel(), ij), shape=(n + 1, n + 1)).tocsr()[:n, :n]
        assert np.array_equal(M.toarray(), plain.toarray())
        scattered.append(M)
        sent.append(np.arange(d * d) if pos is None else pos)
        return M

    monkeypatch.setattr(module, "scatter", checked)
    for m in (square(4), square(4, boundary="bottom"), lshape(4)):
        scattered.clear()
        sent.clear()
        if method == "wg":
            sys = assemble_forms(WgSpace(m, k), PARAMS, STAB)
        else:
            sys = assemble_cr(CrSpace(m), PARAMS, STAB)
        assert len(scattered) == (2 if method == "wg" else 1)  # A and B; CR's B is diagonal
        if method == "cr":
            assert np.array_equal(sent[0], np.arange(36))
        elif k == 1:
            # of 18 x 18: at k=1 the weak gradient sees neither the cell dofs
            # nor the odd edge moments
            assert len(sent[0]) == 118
        for M in scattered + [sys.A, sys.B]:
            assert np.all(M.data != 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wg_matrices_store_no_rounding_noise(k):
    # each unscaled class piece drops what is below 64 eps of its largest entry,
    # so no stored entry of A or B is rounding noise
    for m in (square(8), lshape(4)):
        sys = assemble_forms(WgSpace(m, k), PARAMS, STAB)
        for M in (sys.A, sys.B):
            assert np.abs(M.data).min() >= 1e-14 * np.abs(M.data).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wg_pattern_and_stabilizer_do_not_depend_on_the_material(k):
    # the noise is cut from the elastic and stabilizer pieces before E and nu scale
    # them: the stabilizer carries no material constant, so a cut on the scaled sum
    # would drop real stabilizer entries at a large E or lambda
    for m in (square(4), lshape(4)):
        space = WgSpace(m, k)
        A1, A2 = (assemble_forms(space, ElasticParams(E=E, nu=0.49), STAB).A for E in (1.0, 2.0))
        for params in (ElasticParams(E=1e9, nu=0.49), ElasticParams(E=1e13, nu=0.49),
                       ElasticParams(E=1.0, nu=0.499999)):
            A = assemble_forms(space, params, STAB).A
            assert np.array_equal(A.indptr, A1.indptr) and np.array_equal(A.indices, A1.indices)
        # a_w is affine in E: A(1e9) - A(1) = (1e9 - 1) (A(2) - A(1))
        A9 = assemble_forms(space, ElasticParams(E=1e9, nu=0.49), STAB).A
        lin = A9 - A1 - (1e9 - 1.0) * (A2 - A1)
        assert abs(lin).max() <= 1e-13 * abs(A9).max()
        if k == 1:
            # the weak gradient does not see the cell dofs, so their rows are the
            # stabilizer alone, the same at every E
            sys1 = assemble_forms(space, ElasticParams(E=1.0, nu=0.49), STAB)
            rows = np.flatnonzero(sys1.free < space.num_interior_dofs)
            A13 = assemble_forms(space, ElasticParams(E=1e13, nu=0.49), STAB).A
            assert (A13[rows] != A1[rows]).nnz == 0 and A1[rows].nnz > 0


def test_assembly_traced_peak_is_a_few_times_its_matrices():
    space = WgSpace(square(32), 1)
    tracemalloc.start()
    try:
        sys = assemble_forms(space, PARAMS, STAB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes for M in (sys.A, sys.B))
    assert peak <= 10 * size


def test_mass_matrix_zero_on_edge_dofs():
    space = WgSpace(square(4), 1)
    sys = assemble_forms(space, PARAMS, STAB)
    cell = sys.free < space.num_interior_dofs
    tail = sys.B[np.flatnonzero(~cell), :]
    assert tail.nnz == 0 or np.abs(tail.data).max() == 0.0
    # interior block is positive definite
    Bd = sys.B[cell][:, cell].toarray()
    assert np.linalg.eigvalsh(Bd).min() > 0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh", [square(4, "bottom"), lshape(4)], ids=["bottom", "lshape"])
def test_mass_support_is_the_interior_through_free(mesh, k):
    # B's support, the rows the eigensolver works on, is the interior: free takes
    # those rows onto the interior dofs, one each, and every other row to an edge dof
    space = WgSpace(mesh, k)
    sys = assemble_forms(space, PARAMS, STAB)
    support = sys.B.diagonal() > 0
    assert np.array_equal(np.sort(sys.free[support]), np.arange(space.num_interior_dofs))
    assert np.all(sys.free[~support] >= space.num_interior_dofs)


def test_wg_pencil_comes_in_cuthill_mckee_order(monkeypatch):
    # scatter sums A in dof order (bandwidth 828 at k=1 n=8); assemble_forms returns
    # it and free in its forward Cuthill-McKee order (bandwidth 177), every row sorted,
    # as the factor hands it to SuperLU (test_assembly_builds_only_the_free_pencil
    # checks B in that order)
    summed = []
    scatter = wg_mod.scatter

    def recorded(*args):
        summed.append(scatter(*args))
        return summed[-1]

    monkeypatch.setattr(wg_mod, "scatter", recorded)
    space = WgSpace(square(8), 1)
    sys = assemble_forms(space, PARAMS, STAB)
    A = summed[0]
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)[::-1]
    assert (bandwidth(A), bandwidth(sys.A)) == (828, 177)
    assert np.array_equal(sys.free, np.flatnonzero(space.pencil_rows() >= 0)[perm])
    want = A[perm][:, perm]
    want.sort_indices()
    assert sys.A.has_canonical_format
    assert np.array_equal(sys.A.indptr, want.indptr)
    assert np.array_equal(sys.A.indices, want.indices)
    assert np.array_equal(sys.A.data, want.data)


def test_stiffness_psd_and_bilinear_symmetry():
    space = WgSpace(square(4, "bottom"), 1)
    sys = assemble_forms(space, PARAMS, STAB)
    rng = np.random.default_rng(7)
    scale = np.abs(sys.A.data).max()
    for _ in range(50):
        v = rng.standard_normal(len(sys.free))
        w = rng.standard_normal(len(sys.free))
        avv = v @ (sys.A @ v)
        assert avv >= -1e-12 * scale * (v @ v)
        assert abs(v @ (sys.A @ w) - w @ (sys.A @ v)) <= 1e-12 * scale * np.linalg.norm(v) * np.linalg.norm(w)


def test_stabilization_vanishes_on_continuous_polynomials():
    # for Q_h of a degree <= k polynomial the interior trace equals the edge
    # part, so a_w reduces to the strain/divergence energy; check against the
    # analytic energy of (y, y), which vanishes on the clamped bottom edge:
    # eps = [[0, 1/2], [1/2, 1]], div = 1
    m = square(4, "bottom")
    space = WgSpace(m, 1)
    sys = assemble_forms(space, PARAMS, STAB)
    v = project_global(lambda x, y: np.stack([y, y], axis=-1), space)
    assert np.abs(v.coeffs[space.pencil_rows() < 0]).max() <= 1e-15
    x = v.coeffs[sys.free]
    energy = x @ (sys.A @ x)
    want = 2 * PARAMS.mu * 1.5 + PARAMS.lam * 1.0  # area of (0,1)^2 is 1
    assert energy == pytest.approx(want, rel=1e-12)


def test_assemble_requires_dirichlet_tags():
    with pytest.raises(ValueError):
        assemble_forms(WgSpace(build_square_mesh(2), 1), PARAMS, STAB)


def test_coercivity_sampled():
    # a_w(v, v) >= c gamma(h) ||v||_V^2 with c stable under refinement
    ratios = []
    for n in (4, 8):
        m = square(n)
        space = WgSpace(m, 1)
        sys = assemble_forms(space, PARAMS, STAB)
        gam = STAB.gamma(m.h_global)
        rng = np.random.default_rng(n)
        free = sys.free
        rmin = np.inf
        for _ in range(50):
            x = np.zeros(space.num_dofs)
            x[free] = rng.standard_normal(len(free))
            v = WgFunction(space, x)
            vnorm, _ = norms(v, PARAMS)
            rmin = min(rmin, (x[free] @ (sys.A @ x[free])) / (gam * vnorm**2))
        ratios.append(rmin)
    assert min(ratios) > 1e-3
    assert max(ratios) / min(ratios) < 50  # no collapse under refinement


def test_solve_eigen_synthetic_diagonal():
    space = CrSpace(square(1))  # clamped: only the diagonal edge's 2 dofs are free
    free = np.flatnonzero(space.pencil_rows() >= 0)
    assert len(free) == 2
    A = sp.diags([3.0, 2.0], format="csr")
    sys = AssembledSystem(A=A, B=sp.identity(2, format="csr"), free=free)
    res = solve_eigen(sys, 2)
    assert np.allclose(res.eigenvalues, [2.0, 3.0], atol=1e-12)
    assert np.allclose(res.frequencies, np.sqrt([2.0, 3.0]), atol=1e-12)
    assert res.residuals.max() <= 1e-12
    # the vectors live on the pencil's rows, each positive on its largest entry
    assert np.allclose(res.vectors, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_eigenvector_b_orthonormality():
    space = WgSpace(square(8), 1)
    sys = assemble_forms(space, ElasticParams(nu=0.49), STAB)
    res = solve_eigen(sys, 4)
    V = res.vectors
    assert V.shape == (len(sys.free), 4)
    gram = V.T @ (sys.B @ V)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8
    assert res.residuals.max() <= 1e-8
    assert np.all(np.diff(res.eigenvalues) >= 0)


@pytest.mark.parametrize("k, n, want", [
    (1, 8, (0.8562816313354985, 0.06189290009130247)),
    (2, 4, (0.6442994043683482, 0.030759178655557894)),
])
def test_source_error_norms_are_pinned(k, n, want):
    # the (energy, L2) norms of Q_h u - u_h for u = (g, g), g = sin(pi x) sin(pi y),
    # as recorded with the dof-order pencil; a load on the wrong rows moves them far
    # beyond rounding
    mu, lam = PARAMS.mu, PARAMS.lam

    def u(x, y):
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([s, s], axis=-1)

    def f(x, y):  # -div sigma(u)
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        c = np.cos(np.pi * x) * np.cos(np.pi * y)
        val = 2 * mu * np.pi**2 * s + (mu + lam) * np.pi**2 * (s - c)
        return np.stack([val, val], axis=-1)

    space = WgSpace(square(n), k)
    uh = solve_source(space, PARAMS, STAB, f)
    got = norms(WgFunction(space, project_global(u, space).coeffs - uh.coeffs), PARAMS)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_solve_source_zero_load():
    space = WgSpace(square(4), 1)
    u = solve_source(space, PARAMS, STAB, lambda x, y: np.zeros(x.shape + (2,)))
    assert np.abs(u.coeffs).max() <= 1e-12


def test_source_releases_the_mass_before_the_factor(monkeypatch):
    # solve_source needs only A and the free dofs, so B is gone before the factor,
    # the level's peak, is built
    refs = []
    assemble, factorize = wg_mod.assemble_forms, spectra.factorize_spd

    def kept(*args):
        sys = assemble(*args)
        refs.append(weakref.ref(sys.B))
        return sys

    def checked(A):
        assert len(refs) == 1 and refs[0]() is None
        return factorize(A)

    monkeypatch.setattr(wg_mod, "assemble_forms", kept)
    monkeypatch.setattr(spectra, "factorize_spd", checked)
    u = solve_source(WgSpace(square(4), 1), PARAMS, STAB, PolyField(2, np.random.default_rng(3)))
    assert np.abs(u.coeffs).max() > 0.0


@pytest.mark.parametrize("method, k", [("wg", 1), ("wg", 2), ("cr", 1)])
@pytest.mark.parametrize("mesh", [square(4, "bottom"), lshape(4)], ids=["bottom", "lshape"])
def test_assembly_builds_only_the_free_pencil(monkeypatch, mesh, method, k):
    # A and B are the free-dof pencil, and each scattered matrix is the plain COO
    # sum of every block position on all dofs, restricted to the free ones: exactly
    # for WG, whose entries sum at most two terms; CR's sums may reorder when the
    # Dirichlet entries leave a row, so its A keeps the pattern and moves <= 2 ulp
    module = wg_mod if method == "wg" else cr_mod
    scatter, plain = module.scatter, []

    def recorded(blocks, idx, rows, pos=None, cls=slice(None)):
        d, n = idx.shape[1], len(rows)
        ij = (np.repeat(idx, d, axis=1).ravel(), np.tile(idx, (1, d)).ravel())
        plain.append(sp.coo_matrix((blocks[cls].ravel(), ij), shape=(n, n)).tocsr())
        return scatter(blocks, idx, rows, pos, cls)

    monkeypatch.setattr(module, "scatter", recorded)
    if method == "wg":
        sys = assemble_forms(WgSpace(mesh, k), PARAMS, STAB)
        want = [sys.A, sys.B]
    else:
        sys = assemble_cr(CrSpace(mesh), PARAMS, STAB)
        want = [sys.A]
        plain[0] = 0.5 * (plain[0] + plain[0].T)
    free = sys.free
    assert sys.A.shape == sys.B.shape == (len(free), len(free))
    assert len(plain) == len(want)
    for M, full in zip(want, plain):
        ref = full[free][:, free].tocsr()
        ref.eliminate_zeros()
        if method == "wg":
            assert abs(M - ref).max() == 0.0
        else:
            M.sort_indices()
            ref.sort_indices()
            assert np.array_equal(M.indptr, ref.indptr) and np.array_equal(M.indices, ref.indices)
            assert np.abs(M.data - ref.data).max() <= 2 * np.spacing(np.abs(ref.data).max())


def test_norms_basic_properties():
    m = square(4)
    space = WgSpace(m, 1)
    zero = WgFunction(space, np.zeros(space.num_dofs))
    assert norms(zero, PARAMS) == (0.0, 0.0)

    # rigid translation: strain, divergence and jumps all vanish
    trans = project_global(lambda x, y: np.ones(x.shape + (2,)), space)
    vn, xn = norms(trans, PARAMS)
    assert vn <= 1e-12
    assert xn == pytest.approx(np.sqrt(2.0), rel=1e-12)  # |(1,1)| over area 1

    rng = np.random.default_rng(3)
    v = WgFunction(space, rng.standard_normal(space.num_dofs))
    vn, xn = norms(v, PARAMS)
    sv = WgFunction(space, -2.5 * v.coeffs)
    svn, sxn = norms(sv, PARAMS)
    assert svn == pytest.approx(2.5 * vn, rel=1e-12)
    assert sxn == pytest.approx(2.5 * xn, rel=1e-12)
