"""The mesh reflection (x, y) -> (y, x) and the even/odd split of the pencil.

The clamped square and the clamped L-shape map onto themselves under the
reflection, so their pencils split into an even and an odd block; the
bottom-clamped square and any mesh that is not mirror-symmetric keep one block.
"""

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


def _pencil_map(space, free):
    """The reflection's signed permutation S on the pencil rows: S[q, p] = s_p."""
    image, sign = space._signed_map(reflection(space.mesh))
    row = np.full(space.num_dofs, -1)
    row[free] = np.arange(len(free))
    n = len(free)
    return sp.csr_matrix((sign[free], (row[image[free]], np.arange(n))), shape=(n, n))


@pytest.mark.parametrize("name", MESHES)
def test_reflection_maps_match_a_loop(name):
    mesh = MESHES[name]
    vmap, emap, tmap = reflection(mesh)
    vertex = {(x, y): i for i, (x, y) in enumerate(mesh.vertices.tolist())}
    assert [vertex[y, x] for x, y in mesh.vertices.tolist()] == vmap.tolist()
    edge = {frozenset(e): i for i, e in enumerate(mesh.edges.tolist())}
    assert [edge[frozenset(vmap[e].tolist())] for e in mesh.edges] == emap.tolist()
    tri = {frozenset(t): i for i, t in enumerate(mesh.triangles.tolist())}
    assert [tri[frozenset(vmap[t].tolist())] for t in mesh.triangles] == tmap.tolist()


@pytest.mark.parametrize("kind", SPACES)
@pytest.mark.parametrize("name", MESHES)
def test_reflection_maps_the_pencil_onto_itself(name, kind):
    space = SPACES[kind](MESHES[name])
    ends = reflection(space.mesh)[0][space.mesh.edges]
    assert np.any(ends[:, 0] > ends[:, 1]) == (name == "shuffled")  # reversed edges
    sys = _assemble(space)
    S = _pencil_map(space, sys.free)
    assert abs(S @ S - sp.identity(S.shape[0])).max() == 0.0  # an involution
    for M in (sys.A, sys.B):
        assert abs(S @ M @ S.T - M).max() <= 1e-14 * abs(M).max()
    # the even and odd halves split the rows
    even, odd = sys.bases
    assert even.shape[1] + odd.shape[1] == len(sys.free)
    assert abs(S @ even - even).max() == 0.0 and abs(S @ odd + odd).max() == 0.0
    assert abs(even.T @ odd).max() == 0.0


def test_bottom_clamped_square_keeps_one_block():
    m = square(4, "bottom")  # the vertices and triangles map, the Dirichlet edges do not
    assert reflection(replace(m, dirichlet=np.zeros_like(m.dirichlet))) is not None
    assert reflection(m) is None
    assert _assemble(WgSpace(m, 1)).bases == (None,)
    assert _assemble(CrSpace(m)).bases == (None,)


def test_an_asymmetric_mesh_keeps_one_block():
    m = square(4)
    moved = m.vertices.copy()
    i = np.flatnonzero(np.all(np.isclose(moved, [0.25, 0.5]), axis=1))[0]
    moved[i] += [0.01, 0.0]  # an interior vertex off the grid
    assert reflection(replace(m, vertices=moved)) is None
    assert _assemble(WgSpace(replace(m, vertices=moved), 1)).bases == (None,)
    # the same vertices, but one cell off the diagonal split along its other diagonal
    b = build_square_mesh(4)
    t = b.triangles.copy()
    t[2:4] = [[t[2, 0], t[2, 1], t[3, 2]], [t[2, 1], t[2, 2], t[3, 2]]]
    assert reflection(b) is not None and reflection(_build_topology(b.vertices, t)) is None


@pytest.mark.parametrize("kind", SPACES)
def test_split_eigenpairs_match_the_whole_pencil(monkeypatch, kind):
    sys = _assemble(SPACES[kind](square(8)))
    assert len(sys.bases) == 2
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
    assert len(fills) == 2 and res.report.fill == sum(fills)
    assert res.report.residuals.max() <= 1e-8


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
    # the cell rules of a triangle and of its mirror image differ, so the quadrature
    # gives the even load an odd part: 2.4e-9 of the largest load at k=1 n=8, above
    # the cut, and 8e-16 at k=2 n=32, below it, where the odd half is not factored
    (1, 8, _source_load, 2),
    (2, 32, _source_load, 1),
    (1, 8, lambda x, y: np.stack([x, np.zeros_like(x)], axis=-1), 2),  # f = (x, 0)
    (2, 8, lambda x, y: np.stack([x, np.zeros_like(x)], axis=-1), 2),
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
    assert len(sizes) == factors and max(sizes) < len(sys.free)  # half-size factors
    assert np.abs(got[sys.free] - want).max() <= 1e-12 * np.abs(want).max()
    dirichlet = np.ones(space.num_dofs, dtype=bool)
    dirichlet[sys.free] = False
    assert np.all(got[dirichlet] == 0.0)


def test_a_wrong_map_fails_the_residual_check(monkeypatch):
    # flip the sign of one edge dof and of its image: S stays an involution but no
    # longer commutes with A, so the halves' pairs are not eigenpairs of the pencil
    m = square(8)
    mid = m.edge_midpoints()
    e = np.argmin(np.hypot(mid[:, 0] - 0.25, mid[:, 1] - 0.5))
    signed_map = WgSpace._signed_map

    def flipped(self, maps):
        image, sign = signed_map(self, maps)
        dof = self.edge_dofs(np.array([e]))[0, 0, 0]
        sign = sign.copy()
        sign[[dof, image[dof]]] *= -1.0
        return image, sign

    monkeypatch.setattr(wg_mod.WgSpace, "_signed_map", flipped)
    sys = _assemble(WgSpace(m, 1))
    with pytest.raises(SolverFailure, match="not converged") as info:
        solve_eigen(sys, 4)
    assert info.value.report.residuals.max() > 1e-6
