"""Sparse symmetric linear algebra backend.

Direct factorization for SPD systems and a generalized symmetric
eigensolver for A x = g B x with A SPD and B positive semidefinite.  The
eigensolver works on the reciprocal pair B x = (1/g) A x, so B's kernel
(edge unknowns carrying no mass) contributes no finite eigenvalue and is
ignored automatically.  Below a size cutoff a dense decomposition is used,
which doubles as the oracle in the test suite.

Above the cutoff A is factored once per call and the solve runs in two
phases (Ericsson and Ruhe, Math. Comp. 35, 1980; Parlett, The Symmetric
Eigenvalue Problem, ch. 11):

1. Krylov phase: ARPACK's A^-1 operator is the bare factor, one pair of
   triangular solves per step, without iterative refinement.
2. Finish: one block inverse-iteration step Y = A^-1 (B X) from the k Ritz
   vectors X (less any in B's kernel), with a refined solve, then Rayleigh-Ritz on the exact pencil
   (Y^T A Y, Y^T B Y).  This removes the error the bare factor leaves in
   the Krylov subspace and any component in the kernel of B, and returns
   B-orthonormal vectors.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotPositiveDefiniteError, SolverFailure

__all__ = ["SolveReport", "SpdFactor", "factorize_spd", "smallest_generalized_eigs"]

DENSE_CUTOFF = 2000
# forming A x in floating point errs by up to about (nonzeros per row) * eps * |A| |x|
ROUNDING = 100 * np.finfo(float).eps


@dataclass
class SolveReport:
    """iterations: A^-1 applications counted as vectors, i.e. the Krylov
    steps plus the width of the finishing block solve, 0 on the dense path;
    residuals: ||A x - g B x|| / ||A x|| per pair; converged: every residual
    is within max(tol, 1e-8), or within ROUNDING * ||A||_1 ||x|| / ||A x||
    where that rounding floor is larger (a stiff A, nu near 1/2)."""

    iterations: int
    residuals: np.ndarray
    converged: bool
    wall_time: float

    @property
    def residual(self) -> float:
        return float(np.max(self.residuals))


class SpdFactor:
    """Factor of a symmetric matrix.  Only the dense path rejects a non-SPD
    matrix here; factorize_spd checks both.

    solve takes one right-hand side or a block of them (columns).  By default
    it adds one step of iterative refinement, which keeps the residual near
    1e-15 and is what the source solve and the eigensolver's finishing block
    solve use; refine=False applies the bare factor, one pair of triangular
    solves, as the eigensolver's Krylov phase does."""

    def __init__(self, A):
        self._A = sp.csc_matrix(A)
        n = self._A.shape[0]
        if n <= DENSE_CUTOFF:
            try:
                chol = scipy.linalg.cho_factor(self._A.toarray())
            except scipy.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(str(exc)) from exc
            self._lu = None
            self._solve = functools.partial(scipy.linalg.cho_solve, chol)
        else:
            self._lu = spla.splu(
                self._A,
                diag_pivot_thresh=0.0,
                permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True),
            )
            self._solve = self._lu.solve

    @property
    def shape(self):
        return self._A.shape

    def solve(self, b: np.ndarray, refine: bool = True) -> np.ndarray:
        x = self._solve(b)
        if refine:
            x = x + self._solve(b - self._A @ x)
        return x


def factorize_spd(A) -> SpdFactor:
    """Factorize a symmetric positive definite matrix, rejecting any other.

    Without diagonal pivoting U has a positive diagonal exactly when A is SPD.
    Reading U makes SuperLU cache CSC copies of both factors: the eigensolver
    therefore uses SpdFactor directly.
    """
    F = SpdFactor(A)
    if F._lu is not None and np.any(F._lu.U.diagonal() <= 0):
        raise NotPositiveDefiniteError("nonpositive pivot in factorization")
    return F


def _finite(theta):
    """Which reciprocal eigenvalues belong to a finite g; B's kernel gives theta ~ 0."""
    return theta > 1e-13 * max(theta.max(), 1.0)


def _dense_pair(A, B, m):
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Bd = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    # theta ascending, eigenvectors A-orthonormal; finite g = 1/theta
    theta, V = scipy.linalg.eigh(Bd, Ad)
    finite = _finite(theta)
    theta = theta[finite]
    V = V[:, finite]
    if len(theta) < m:
        raise SolverFailure(f"only {len(theta)} finite eigenvalues available")
    idx = np.argsort(theta)[::-1][:m]
    return theta[idx], V[:, idx]


def smallest_generalized_eigs(A, B, m: int, tol=1e-10, seed=0, sign_rows=None):
    """m smallest finite eigenpairs of A x = g B x.

    Parameters
    ----------
    A : SPD matrix (sparse or dense).
    B : positive semidefinite matrix of the same size.
    m : number of eigenpairs.
    tol : ARPACK tolerance on the reciprocal problem.
    seed : start-vector seed (results are deterministic per seed).
    sign_rows : the sign of each vector is set by its largest-magnitude
        entry among the first sign_rows rows (all rows by default).  Entries
        within 1e-8 relative of that magnitude count as tied, and the first
        of them decides, so round-off cannot flip a symmetric mode.

    Returns
    -------
    (values, vectors, report): values ascending, vectors B-normalized
    columns with the sign rule above.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = A.shape[0]
    t0 = time.perf_counter()
    applies = 0
    # taken before A is factored, so the copy abs(A) never adds to the peak memory
    anorm = abs(A).sum(axis=0).max()
    if n <= DENSE_CUTOFF or m + 2 >= n:
        theta, V = _dense_pair(A, B, m)
        vals = 1.0 / theta
    else:
        factor = SpdFactor(A)
        B = sp.csc_matrix(B)

        def apply_inverse(x):
            nonlocal applies
            applies += 1
            return factor.solve(x, refine=False)

        def failure(message):
            wall = time.perf_counter() - t0
            report = SolveReport(applies, np.array([np.inf]), False, wall)
            return SolverFailure(message, report)

        Ainv = spla.LinearOperator((n, n), matvec=apply_inverse, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(n)
        k = min(m + 3, n - 1)
        try:
            theta, X = spla.eigsh(B, k, M=factor._A, Minv=Ainv, which="LA", tol=tol, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise failure(f"ARPACK did not converge: {exc}") from exc
        X = X[:, _finite(theta)]
        if X.shape[1] < m:
            raise failure(f"only {X.shape[1]} finite eigenvalues available")
        # finish: one refined block inverse-iteration step, then Rayleigh-Ritz
        # on the exact pencil; ascending g, vectors B-orthonormal
        Y = factor.solve(B @ X)
        applies += Y.shape[1]
        try:
            vals, W = scipy.linalg.eigh(Y.T @ (A @ Y), Y.T @ (B @ Y))
        except scipy.linalg.LinAlgError as exc:
            raise failure(f"Rayleigh-Ritz mass Y^T B Y is not positive definite: {exc}") from exc
        vals, V = vals[:m], Y @ W[:, :m]
    if np.any(vals <= 0):
        raise SolverFailure("nonpositive Rayleigh quotient; check matrix PSD-ness")

    # B-normalize and fix signs deterministically
    for j in range(V.shape[1]):
        x = V[:, j]
        bnorm = float(x @ (B @ x))
        if bnorm > 0:
            x = x / np.sqrt(bnorm)
        lead = np.abs(x[:sign_rows])
        if x[np.argmax(lead >= (1.0 - 1e-8) * lead.max())] < 0:
            x = -x
        V[:, j] = x

    Ax = A @ V
    BV = B @ V
    ax = np.linalg.norm(Ax, axis=0)
    res = np.linalg.norm(Ax - BV * vals, axis=0) / ax
    floor = ROUNDING * anorm * np.linalg.norm(V, axis=0) / ax
    order = np.argsort(vals)
    report = SolveReport(
        iterations=applies,
        residuals=res[order],
        converged=bool(np.all(res <= np.maximum(max(tol, 1e-8), floor))),
        wall_time=time.perf_counter() - t0,
    )
    return vals[order], V[:, order], report
