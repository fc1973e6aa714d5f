import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from elastica import ElasticParams, StabilizationConfig, WgSpace, assemble_forms
from elastica.errors import NotPositiveDefiniteError, SolverFailure
from elastica.spectra import SpdFactor, factorize_spd, smallest_generalized_eigs

from conftest import lshape, square


def random_spd(n, rng, sparse=False):
    if sparse:
        # diagonally dominant band matrix, stays sparse and SPD
        main = rng.uniform(2.0, 4.0, n)
        off = rng.uniform(-0.5, 0.5, n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        return A
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_factor_identity():
    F = factorize_spd(sp.identity(5, format="csr"))
    b = np.arange(5.0)
    assert np.allclose(F.solve(b), b, atol=1e-14)


def test_factor_2x2():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = factorize_spd(A).solve(np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_factor_random_residual():
    rng = np.random.default_rng(0)
    A = random_spd(200, rng)
    F = factorize_spd(sp.csr_matrix(A))
    b = rng.standard_normal(200)
    x = F.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_rejects_indefinite():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        factorize_spd(A)


def test_factor_rejects_indefinite_large():
    # a negative pivot deep inside a larger factor
    n = 2100
    d = np.ones(n)
    d[n // 2] = -1.0
    with pytest.raises(NotPositiveDefiniteError):
        factorize_spd(sp.diags(d, format="csr"))


def test_factor_rejects_singular():
    # SuperLU stops at the exactly zero pivot; that is no SPD matrix either
    A = sp.diags(np.r_[0.0, np.arange(1.0, 60.0)], format="csr")
    with pytest.raises(NotPositiveDefiniteError, match="singular"):
        factorize_spd(A)


def test_factor_large_sparse_residual():
    n = 2500
    rng = np.random.default_rng(8)
    A = random_spd(n, rng, sparse=True)
    b = rng.standard_normal(n)
    x = factorize_spd(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_eigs_diagonal():
    A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    B = sp.identity(3, format="csr")
    vals, V, report = smallest_generalized_eigs(A, B, 2)
    assert np.allclose(vals, [1.0, 2.0], atol=1e-12)
    assert report.converged


def test_eigs_semidefinite_mass():
    # the B-kernel direction carries no finite eigenvalue
    A = sp.csr_matrix(np.diag([1.0, 2.0]))
    B = sp.csr_matrix(np.diag([1.0, 0.0]))
    vals, V, _ = smallest_generalized_eigs(A, B, 1)
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    # asking for more finite pairs than exist fails loudly
    with pytest.raises(SolverFailure):
        smallest_generalized_eigs(A, B, 2)


def test_eigs_match_dense_oracle_n50():
    rng = np.random.default_rng(42)
    for trial in range(5):
        A = random_spd(50, rng)
        B = random_spd(50, rng)
        vals, V, _ = smallest_generalized_eigs(sp.csr_matrix(A), sp.csr_matrix(B), 6)
        ref = np.sort(scipy.linalg.eigh(A, B, eigvals_only=True))[:6]
        assert np.abs(vals - ref).max() <= 1e-9 * np.abs(ref).max()
        # B-orthonormality for SPD B
        gram = V.T @ (B @ V)
        assert np.abs(gram - np.eye(6)).max() <= 1e-9


def test_eigs_sparse_path_matches_dense_oracle():
    n = 2200
    rng = np.random.default_rng(3)
    A = random_spd(n, rng, sparse=True)
    B = sp.identity(n, format="csr")
    vals, V, report = smallest_generalized_eigs(A, B, 4, tol=1e-12)
    ref = np.sort(scipy.linalg.eigvalsh(A.toarray()))[:4]
    assert np.abs(vals - ref).max() <= 1e-9 * np.abs(ref).max()
    assert report.converged


def test_eigs_seed_independence():
    n = 2200
    rng = np.random.default_rng(4)
    A = random_spd(n, rng, sparse=True)
    B = sp.identity(n, format="csr")
    results = [
        smallest_generalized_eigs(A, B, 3, tol=1e-12, seed=s)[0] for s in range(5)
    ]
    base = results[0]
    for vals in results[1:]:
        assert np.abs(vals - base).max() <= 1e-9 * np.abs(base).max()


def test_eigs_rejects_bad_count():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        smallest_generalized_eigs(A, A, 0)


def test_b_normalization_and_sign():
    rng = np.random.default_rng(9)
    A = random_spd(30, rng)
    B = random_spd(30, rng)
    vals, V, _ = smallest_generalized_eigs(sp.csr_matrix(A), sp.csr_matrix(B), 3)
    for j in range(3):
        x = V[:, j]
        assert x @ (B @ x) == pytest.approx(1.0, rel=1e-10)
        assert x[np.argmax(np.abs(x))] > 0


def test_eigs_sparse_path_factors_once(monkeypatch):
    # one factor of A per call, reused as ARPACK's A^-1: neither the SPD
    # factor's splu nor the one eigsh would build internally runs twice
    calls = []
    arpack = sys.modules[spla.eigsh.__module__]
    for owner in (spla, arpack):
        original = owner.splu

        def counted(*args, _original=original, _owner=owner.__name__, **kwargs):
            calls.append(_owner)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, "splu", counted)
    n = 2200
    rng = np.random.default_rng(5)
    A = random_spd(n, rng, sparse=True)
    mass = rng.uniform(0.5, 2.0, n)
    mass[::3] = 0.0  # semidefinite, like the WG mass
    B = sp.diags(mass, format="csr")
    vals, _, report = smallest_generalized_eigs(A, B, 4)
    assert calls == [spla.__name__]  # the SPD factor; ARPACK builds none
    assert report.iterations > 0  # A^-1 applications of the eigen iteration
    theta = scipy.linalg.eigh(B.toarray(), A.toarray(), eigvals_only=True)
    ref = np.sort(1.0 / theta[-4:])
    assert np.all(np.abs(vals - ref) <= 1e-10 * ref)
    # a 50-dof problem takes the same path: one SPD factor and nothing else
    calls.clear()
    A50, B50 = A[:50, :50], B[:50, :50]
    vals, _, report = smallest_generalized_eigs(A50, B50, 2)
    assert calls == [spla.__name__]
    theta = scipy.linalg.eigh(B50.toarray(), A50.toarray(), eigvals_only=True)
    ref = np.sort(1.0 / theta[-2:])
    assert np.all(np.abs(vals - ref) <= 1e-10 * ref)


def test_sign_rule_ties_decided_by_lowest_index():
    # the lowest mode is (e_i - e_j) / sqrt(2): two entries of equal magnitude
    # and opposite sign, so round-off must not pick the one that fixes the sign
    n = 2200
    i, j = 10, 1500
    d = np.random.default_rng(6).uniform(3.0, 4.0, n)
    d[[i, j]] = 2.0
    A = sp.diags(d, format="lil")
    A[i, j] = A[j, i] = 0.5
    B = sp.identity(n, format="csr")
    for seed in range(8):
        vals, V, _ = smallest_generalized_eigs(A.tocsr(), B, 2, seed=seed)
        assert vals[0] == pytest.approx(1.5, rel=1e-10)
        assert V[i, 0] > 0 > V[j, 0]


def test_sign_rule_decided_on_mass_support():
    # B's support r is every third row, so not the leading rows.  The lowest
    # mode lives on rows 1 (off r) and 3 (on r) with x_1 = -2 x_3: its largest
    # entry lies off r and has the opposite sign, so the sign follows x_3
    n = 30
    d = np.linspace(10.0, 20.0, n)
    d[[1, 3]] = [0.5, 4.0]
    A = sp.diags(d, format="lil")
    A[1, 3] = A[3, 1] = 1.0
    mass = np.zeros(n)
    mass[0::3] = 1.0
    B = sp.diags(mass, format="csr")
    vals, V, _ = smallest_generalized_eigs(A.tocsr(), B, 2)
    assert vals[0] == pytest.approx(4.0 - 1.0 / 0.5, rel=1e-10)  # Schur complement on row 3
    x = V[:, 0]
    assert np.argmax(np.abs(x)) == 1
    assert x[3] > 0 > x[1]


@pytest.mark.parametrize("n", [40, 2300], ids=["dense", "sparse"])
@pytest.mark.parametrize("refine", [True, False])
def test_block_solve_matches_columnwise(n, refine):
    rng = np.random.default_rng(12)
    A = sp.csr_matrix(random_spd(n, rng, sparse=True))
    F = SpdFactor(A)
    b = rng.standard_normal((n, 3))
    block = F.solve(b, refine=refine)
    columns = np.column_stack([F.solve(b[:, j], refine=refine) for j in range(3)])
    assert block.shape == (n, 3)
    assert np.abs(block - columns).max() <= 1e-14 * np.abs(columns).max()


def _wg_sparse_path_matches_dense(mesh, nu):
    # a real WG k=1 system of 2,000 to 2,500 free dofs, with its singular mass
    space = WgSpace(mesh, 1)
    sys_ = assemble_forms(space, ElasticParams(E=1.0, nu=nu), StabilizationConfig())
    free = sys_.free
    A = sys_.A[np.ix_(free, free)]
    B = sys_.B[np.ix_(free, free)]
    n = A.shape[0]
    assert 2000 < n < 2500
    vals, V, report = smallest_generalized_eigs(A, B, 4)
    assert report.iterations > 0  # the sparse path ran
    theta = scipy.linalg.eigh(
        B.toarray(), A.toarray(), eigvals_only=True, subset_by_index=[n - 4, n - 1]
    )
    ref = np.sort(1.0 / theta)
    assert np.all(np.abs(vals - ref) <= 1e-10 * ref)
    assert np.all(report.residuals <= 1e-10)
    assert report.converged
    assert np.abs(V.T @ (B @ V) - np.eye(4)).max() <= 1e-10


def test_eigs_sparse_path_on_wg_system_matches_dense():
    _wg_sparse_path_matches_dense(square(10), nu=0.49)


def test_eigs_sparse_path_on_wg_lshape_matches_dense():
    # the L-shape's re-entrant corner, 2,496 free dofs
    _wg_sparse_path_matches_dense(lshape(6), nu=0.3)


def test_eigs_sparse_path_factor_applications(monkeypatch):
    # Krylov phase: one bare solve (one SuperLU.solve) per step; finish: one
    # refined block solve of width k, which is two SuperLU.solve calls
    rhs_ndims = []

    class CountingLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs, trans="N"):
            rhs_ndims.append(np.ndim(rhs))
            return self._lu.solve(rhs, trans)

    original = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: CountingLU(original(*a, **kw)))
    n = 2200
    rng = np.random.default_rng(5)
    A = random_spd(n, rng, sparse=True)
    mass = rng.uniform(0.5, 2.0, n)
    mass[::3] = 0.0
    B = sp.diags(mass, format="csr")
    m = 4
    k = m + 3
    _, _, report = smallest_generalized_eigs(A, B, m)
    krylov_steps = report.iterations - k
    assert krylov_steps > 0
    assert rhs_ndims.count(1) == krylov_steps
    assert rhs_ndims.count(2) == 2
    assert rhs_ndims[-2:] == [2, 2]  # the finish comes last


def test_eigs_sparse_path_mass_of_low_rank():
    # B has rank 3 < k = m + 3: the Ritz vectors in B's kernel carry no finite
    # eigenvalue and are left out of the finish; asking for more than 3 fails
    n = 2200
    rng = np.random.default_rng(7)
    A = random_spd(n, rng, sparse=True)
    mass = np.zeros(n)
    mass[[5, 700, 1400]] = 1.0
    B = sp.diags(mass, format="csr")
    vals, _, report = smallest_generalized_eigs(A, B, 2)
    theta = scipy.linalg.eigh(B.toarray(), A.toarray(), eigvals_only=True)
    ref = np.sort(1.0 / theta[-3:])[:2]
    assert np.all(np.abs(vals - ref) <= 1e-10 * ref)
    assert report.converged
    with pytest.raises(SolverFailure, match="only 3 finite") as info:
        smallest_generalized_eigs(A, B, 4)
    assert info.value.report.iterations > 0


def test_eigs_rayleigh_ritz_failure_is_solver_failure(monkeypatch):
    # a projected mass Y^T B Y that is not positive definite ends the solve
    # as a SolverFailure carrying its report, not as a LinAlgError
    def not_definite(*args, **kwargs):
        raise scipy.linalg.LinAlgError("the leading minor of order 3 is not positive")

    monkeypatch.setattr(scipy.linalg, "eigh", not_definite)
    n = 2200
    A = random_spd(n, np.random.default_rng(7), sparse=True)
    B = sp.identity(n, format="csr")
    with pytest.raises(SolverFailure, match="Rayleigh-Ritz") as info:
        smallest_generalized_eigs(A, B, 2)
    assert info.value.report.iterations > 0
    assert not info.value.report.converged


class _CountingProducts:
    """Counts every product of a sparse matrix with a vector or a block."""

    products = 0

    def _matmul_dispatch(self, other):
        _CountingProducts.products += 1
        return super()._matmul_dispatch(other)


class _CountingCsr(_CountingProducts, sp.csr_matrix):
    pass


class _CountingCsc(_CountingProducts, sp.csc_matrix):
    pass


def test_eigs_sparse_path_multiplies_a_only_in_finish_and_check(monkeypatch):
    # the Krylov loop works on B's support with the factor alone: A (and the
    # factor's own copy of it) is multiplied by the Rayleigh-Ritz step, the
    # refinement of the finishing block solve and the residual check, three
    # products whatever the number of Krylov steps; ARPACK's vectors have
    # length |r|, not n
    original_init = SpdFactor.__init__

    def counting_init(self, A):
        original_init(self, A)
        self._A = _CountingCsc(self._A)

    monkeypatch.setattr(SpdFactor, "__init__", counting_init)
    monkeypatch.setattr(_CountingProducts, "products", 0)
    lengths = []
    original_eigsh = spla.eigsh

    def spying_eigsh(A, k, **kwargs):
        lengths.extend([A.shape[0], kwargs["M"].shape[0], len(kwargs["v0"])])
        return original_eigsh(A, k, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spying_eigsh)
    n = 2200
    rng = np.random.default_rng(5)
    A = _CountingCsr(random_spd(n, rng, sparse=True))
    mass = rng.uniform(0.5, 2.0, n)
    mass[::3] = 0.0
    B = sp.diags(mass, format="csr")
    _, _, report = smallest_generalized_eigs(A, B, 4)
    assert report.iterations > 7  # Krylov steps beyond the finish's 7 columns
    assert _CountingProducts.products == 3
    assert lengths == [np.count_nonzero(mass)] * 3


def test_eigs_mass_of_rank_one_is_solver_failure(monkeypatch):
    # B = u u^T is singular on its support (all 2,200 dofs): the solve ends as
    # a SolverFailure with its report, never as an ARPACK or LinAlgError traceback
    n = 2200
    rng = np.random.default_rng(11)
    A = random_spd(n, rng, sparse=True)
    u = rng.standard_normal(n)
    B = sp.csr_matrix(np.outer(u, u))
    with pytest.raises(SolverFailure) as info:
        smallest_generalized_eigs(A, B, 2)
    assert info.value.report.iterations > 0
    assert not info.value.report.converged

    # ARPACK's own report of a singular B inner product (info -9999) maps the same way
    def arpack_breaks(A, k, **kwargs):
        kwargs["OPinv"].matvec(kwargs["v0"])
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", arpack_breaks)
    with pytest.raises(SolverFailure, match="ARPACK") as info:
        smallest_generalized_eigs(A, sp.identity(n, format="csr"), 2)
    assert info.value.report.iterations == 1
    assert not info.value.report.converged


def test_eigs_indefinite_a_is_solver_failure():
    # nothing rejects an indefinite A before the solve: its negative
    # eigenvalue shows as a nonpositive Rayleigh quotient, and the failure
    # carries its report like every other
    d = np.arange(1.0, 21.0)
    d[4] = -1.0
    with pytest.raises(SolverFailure, match="nonpositive Rayleigh") as info:
        smallest_generalized_eigs(sp.diags(d, format="csr"), sp.identity(20, format="csr"), 2)
    assert not info.value.report.converged


def test_eigs_singular_a_is_solver_failure():
    A = sp.diags(np.r_[0.0, np.arange(1.0, 60.0)], format="csr")
    with pytest.raises(SolverFailure, match="singular") as info:
        smallest_generalized_eigs(A, sp.identity(60, format="csr"), 2)
    assert not info.value.report.converged
    assert info.value.report.iterations == 0


def test_converged_bound_follows_the_rounding_floor():
    # a stiff penalty t G^T G (like the lambda term as nu -> 1/2) ties dof
    # pairs together; forming A x then loses about eps * t, so the residual
    # of an accurate pair sits far above 1e-8 and must still count as converged
    n = 2200
    rng = np.random.default_rng(13)
    K = random_spd(n, rng, sparse=True)
    pairs = np.repeat(np.arange(n // 2), 2)
    G = sp.csr_matrix((np.tile([1.0, -1.0], n // 2), (pairs, np.arange(n))), shape=(n // 2, n))
    A = sp.csr_matrix(K + 1e10 * (G.T @ G))
    B = sp.identity(n, format="csr")
    vals, _, report = smallest_generalized_eigs(A, B, 3)
    assert report.residual > 1e-8
    assert report.converged
    # the t -> infinity limit: x_2i = x_2i+1 = y_i, K_r y = g 2 y
    P = sp.csr_matrix((np.ones(n), (np.arange(n), pairs)), shape=(n, n // 2))
    limit = np.sort(scipy.linalg.eigvalsh((P.T @ K @ P).toarray()))[:3] / 2
    assert np.all(np.abs(vals - limit) <= 1e-6 * limit)
