"""The diagonal mirrors of a mesh and the split of the pencil by their group.

The clamped square maps onto itself under (x, y) -> (y, x) and under
(x, y) -> (1 - y, 1 - x), so its pencil splits into four quarters, one per
character of the group the two mirrors generate; the clamped L-shape has the
first mirror only and splits into an even and an odd half; the bottom-clamped
square and any mesh that is not mirror-symmetric keep one block.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from elastica import (
    CrSpace,
    ElasticParams,
    StabilizationConfig,
    WgSpace,
    assemble_cr,
    assemble_forms,
    solve_eigen,
    solve_source,
)
from elastica import spectra
from elastica import wg as wg_mod
from elastica.errors import SolverFailure
from elastica.mesh import (
    _build_topology,
    build_square_mesh,
    classify_boundary,
    full_dirichlet,
    reflection,
)
from elastica.project import _cell_moments
from conftest import lshape, square

PARAMS = ElasticParams(nu=0.3)
STAB = StabilizationConfig()
SPACES = {
    "wg1": lambda m: WgSpace(m, 1),
    "wg2": lambda m: WgSpace(m, 2),
    "cr": CrSpace,
}


def _shuffled(m):
    """m with its vertices numbered at random: the reflection then reverses edges,
    which it never does on the lab's lexicographically numbered grids."""
    perm = np.random.default_rng(1).permutation(m.num_vertices)
    new = np.empty_like(perm)
    new[perm] = np.arange(len(perm))
    return classify_boundary(_build_topology(m.vertices[perm], new[m.triangles]), full_dirichlet())


MESHES = {"square": square(4), "lshape": lshape(2), "shuffled": _shuffled(square(4))}


def _assemble(space):
    assemble = assemble_cr if isinstance(space, CrSpace) else assemble_forms
    return assemble(space, PARAMS, STAB)


def _pencil_map(space, free, eps):
    """The signed permutation S of the mirror eps on the pencil rows: S[q, p] = s_p."""
    image, sign = space._signed_map(reflection(space.mesh)[eps], eps)
    row = np.full(space.num_dofs, -1)
    row[free] = np.arange(len(free))
    n = len(free)
    return sp.csr_matrix((sign[free], (row[image[free]], np.arange(n))), shape=(n, n))


@pytest.mark.parametrize("name", MESHES)
def test_reflection_maps_match_a_loop(name):
    mesh = MESHES[name]
    mirrors = reflection(mesh)
    assert sorted(mirrors) == ([1] if name == "lshape" else [-1, 1])
    s = mesh.vertices[:, 0].min() + mesh.vertices[:, 0].max()
    vertex = {(x, y): i for i, (x, y) in enumerate(mesh.vertices.tolist())}
    edge = {frozenset(e): i for i, e in enumerate(mesh.edges.tolist())}
    tri = {frozenset(t): i for i, t in enumerate(mesh.triangles.tolist())}
    for eps, (vmap, emap, tmap) in mirrors.items():
        image = [(y, x) if eps == 1 else (s - y, s - x) for x, y in mesh.vertices.tolist()]
        assert [vertex[p] for p in image] == vmap.tolist()
        assert [edge[frozenset(vmap[e].tolist())] for e in mesh.edges] == emap.tolist()
        assert [tri[frozenset(vmap[t].tolist())] for t in mesh.triangles] == tmap.tolist()


@pytest.mark.parametrize("kind", SPACES)
@pytest.mark.parametrize("name", MESHES)
def test_reflection_maps_the_pencil_onto_itself(name, kind):
    space = SPACES[kind](MESHES[name])
    mirrors = reflection(space.mesh)
    for eps, (vmap, _, _) in mirrors.items():  # the anti-diagonal reverses grid edges
        ends = vmap[space.mesh.edges]
        assert np.any(ends[:, 0] > ends[:, 1]) == (name == "shuffled" or eps == -1)
    sys = _assemble(space)
    S = {eps: _pencil_map(space, sys.free, eps) for eps in mirrors}
    for Se in S.values():
        assert abs(Se @ Se - sp.identity(Se.shape[0])).max() == 0.0  # an involution
        for M in (sys.A, sys.B):
            assert abs(Se @ M @ Se.T - M).max() <= 1e-14 * abs(M).max()
    # one block per character: the clamped square's quarters, the L-shape's halves
    bases = sys.bases
    assert len(bases) == 2 ** len(mirrors) == (2 if name == "lshape" else 4)
    chars = list(itertools.product((1, -1), repeat=len(mirrors)))
    for P, chi in zip(bases, chars):
        for Se, c in zip(S.values(), chi):
            assert abs(Se @ P - c * P).max() == 0.0
    # the blocks split the rows (their columns are an orthogonal basis of them) and
    # are mutually A- and B-orthogonal
    stacked = sp.hstack(bases)
    assert stacked.shape == (len(sys.free),) * 2
    gram = (stacked.T @ stacked).toarray()
    assert np.all(np.diag(gram) > 0) and np.count_nonzero(gram - np.diag(np.diag(gram))) == 0
    for P, Q in itertools.combinations(bases, 2):
        for M in (sys.A, sys.B):
            assert abs(P.T @ M @ Q).max() <= 1e-14 * abs(M).max()


def test_bottom_clamped_square_keeps_one_block():
    m = square(4, "bottom")  # the vertices and triangles map, the Dirichlet edges do not
    assert sorted(reflection(replace(m, dirichlet=np.zeros_like(m.dirichlet)))) == [-1, 1]
    assert reflection(m) == {}
    assert _assemble(WgSpace(m, 1)).bases == (None,)
    assert _assemble(CrSpace(m)).bases == (None,)


def test_an_asymmetric_mesh_keeps_one_block():
    m = square(4)
    moved = m.vertices.copy()
    i = np.flatnonzero(np.all(np.isclose(moved, [0.25, 0.5]), axis=1))[0]
    moved[i] += [0.01, 0.0]  # an interior vertex off the grid
    assert reflection(replace(m, vertices=moved)) == {}
    assert _assemble(WgSpace(replace(m, vertices=moved), 1)).bases == (None,)
    # the same vertices, but one cell off the diagonal split along its other diagonal
    b = build_square_mesh(4)
    t = b.triangles.copy()
    t[2:4] = [[t[2, 0], t[2, 1], t[3, 2]], [t[2, 1], t[2, 2], t[3, 2]]]
    assert len(reflection(b)) == 2 and reflection(_build_topology(b.vertices, t)) == {}


@pytest.mark.parametrize("kind", SPACES)
def test_split_eigenpairs_match_the_whole_pencil(monkeypatch, kind):
    sys = _assemble(SPACES[kind](square(8)))
    assert len(sys.bases) == 4
    whole, W, _ = spectra.smallest_generalized_eigs(sys.A, sys.B, 4)
    fills = []
    splu = spla.splu

    def recorded(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", recorded)
    res = solve_eigen(sys, 4)
    assert np.abs(res.eigenvalues - whole).max() <= 1e-12 * whole.max()
    V = res.vectors
    assert np.abs(V.T @ (sys.B @ V) - np.eye(4)).max() <= 1e-10
    # the same eigenspaces: the split vectors' B-projection onto the whole pencil's
    assert np.abs(np.abs(W.T @ (sys.B @ V)) - np.eye(4)).max() <= 1e-8
    assert len(fills) == 4 and res.report.fill == sum(fills)
    assert res.report.residuals.max() <= 1e-8


@pytest.mark.parametrize("kind", SPACES)
def test_a_non_dyadic_square_keeps_its_halves(kind):
    # at n = 3, 1 - i/n is inexact on 2 of the 4 grid lines, so the exact vertex
    # match finds (x, y) -> (y, x) only
    m = square(3)
    assert sorted(reflection(m)) == [1]
    sys = _assemble(SPACES[kind](m))
    assert len(sys.bases) == 2
    whole, _, _ = spectra.smallest_generalized_eigs(sys.A, sys.B, 4)
    res = solve_eigen(sys, 4)
    assert np.abs(res.eigenvalues - whole).max() <= 1e-12 * whole.max()


def test_a_block_with_too_few_eigenvalues_gives_what_it_has():
    # the clamped square(1) has one free edge, the diagonal, which the reflection
    # fixes: its x and y means are one even and one odd row
    sys = _assemble(CrSpace(square(1)))
    assert [P.shape[1] for P in sys.bases] == [1, 1]
    res = solve_eigen(sys, 2)
    want = scipy.linalg.eigh(sys.A.toarray(), sys.B.toarray(), eigvals_only=True)
    assert np.allclose(res.eigenvalues, want, rtol=1e-12, atol=0.0)
    with pytest.raises(SolverFailure, match="only 2 finite eigenvalues"):
        solve_eigen(sys, 3)


def _source_load(x, y):  # the wg-source load, even under the reflection
    s = np.sin(np.pi * x) * np.sin(np.pi * y)
    c = np.cos(np.pi * x) * np.cos(np.pi * y)
    val = 2 * PARAMS.mu * np.pi**2 * s + (PARAMS.mu + PARAMS.lam) * np.pi**2 * (s - c)
    return np.stack([val, val], axis=-1)


@pytest.mark.parametrize("k, n, f, factors", [
    # the load lies in one quarter, but the cell rules of a triangle and of its mirror
    # images differ, so the quadrature gives it a part in the other three: 4.1e-9 of
    # the largest load at k=1 n=8, above the cut, and up to 1.7e-15 at k=2 n=32, below
    # it, where only the load's own quarter is factored
    (1, 8, _source_load, 4),
    (2, 32, _source_load, 1),
    (1, 8, lambda x, y: np.stack([x, np.zeros_like(x)], axis=-1), 4),  # f = (x, 0)
    (2, 8, lambda x, y: np.stack([x, np.zeros_like(x)], axis=-1), 4),
], ids=["even-k1", "even-k2", "asymmetric-k1", "asymmetric-k2"])
def test_split_source_matches_one_factor(monkeypatch, k, n, f, factors):
    space = WgSpace(square(n), k)
    sys = _assemble(space)
    b = np.zeros(space.num_dofs)
    b[: space.num_interior_dofs] = _cell_moments(f, space.mesh, space.pack()).reshape(-1)
    want = spectra.factorize_spd(sys.A).solve(b[sys.free])
    sizes = []
    factorize = spectra.factorize_spd

    def counted(A):
        sizes.append(A.shape[0])
        return factorize(A)

    monkeypatch.setattr(spectra, "factorize_spd", counted)
    got = solve_source(space, PARAMS, STAB, f).coeffs
    assert len(sizes) == factors and 3 * max(sizes) < len(sys.free)  # quarter-size factors
    assert np.abs(got[sys.free] - want).max() <= 1e-12 * np.abs(want).max()
    dirichlet = np.ones(space.num_dofs, dtype=bool)
    dirichlet[sys.free] = False
    assert np.all(got[dirichlet] == 0.0)


def test_a_wrong_map_fails_the_residual_check(monkeypatch):
    # flip the sign of one edge dof and of its image: each S stays an involution but
    # no longer commutes with A, so the blocks' pairs are not eigenpairs of the pencil
    m = square(8)
    mid = m.edge_midpoints()
    e = np.argmin(np.hypot(mid[:, 0] - 0.25, mid[:, 1] - 0.5))
    signed_map = WgSpace._signed_map

    def flipped(self, maps, eps):
        image, sign = signed_map(self, maps, eps)
        dof = self.edge_dofs(np.array([e]))[0, 0, 0]
        sign = sign.copy()
        sign[[dof, image[dof]]] *= -1.0
        return image, sign

    monkeypatch.setattr(wg_mod.WgSpace, "_signed_map", flipped)
    sys = _assemble(WgSpace(m, 1))
    with pytest.raises(SolverFailure, match="not converged") as info:
        solve_eigen(sys, 4)
    assert info.value.report.residuals.max() > 1e-6
