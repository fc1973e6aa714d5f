"""Sparse symmetric linear algebra backend.

Direct factorization for SPD systems and a generalized symmetric
eigensolver for A x = g B x with A SPD and B positive semidefinite.  The
mass lives on B's support r, the rows with a positive diagonal (the WG
interior unknowns, every CR unknown), where B_rr is SPD.  A finite pair has
x = g A^-1 B x, so x_r fixes it and solves A_c x_r = g B_rr x_r, with A_c
the Schur complement of A onto r, whose inverse is (A^-1)_rr.  The solver
works on that pencil, so B's kernel never enters it.

A is factored once per call, then (Ericsson and Ruhe, Math. Comp. 35, 1980;
Nour-Omid, Parlett, Ericsson and Jensen, Math. Comp. 48, 1987):

1. Krylov phase: ARPACK in shift-invert mode (sigma = 0) on vectors of
   length |r| in the B_rr inner product.  Its operator (A^-1)_rr is one
   bare solve of the factor, without refinement, on a right-hand side padded
   with zeros outside r; A itself is never multiplied.  If |r| <= m + 3,
   the number of Ritz vectors ARPACK computes, r's unit vectors replace them.
2. Finish: one refined block solve Y = A^-1 pad(B_rr X) from the Ritz
   vectors X, then Rayleigh-Ritz on the exact pencil (Y^T A Y, Y^T B Y).
   This removes the error the bare factor leaves in the Krylov subspace and
   returns full-length B-orthonormal vectors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotPositiveDefiniteError, SolverFailure

__all__ = ["SolveReport", "SpdFactor", "factorize_spd", "smallest_generalized_eigs"]

# forming A x in floating point errs by up to about (nonzeros per row) * eps * |A| |x|
ROUNDING = 100 * np.finfo(float).eps


@dataclass
class SolveReport:
    """iterations: solves with the factor of A counted as vectors, i.e. the
    Krylov steps plus the width of the finishing block solve; residuals:
    ||A x - g B x|| / ||A x|| per pair, on the full A and B;
    converged: every residual is within max(tol, 1e-8), or within
    ROUNDING * ||A||_1 ||x|| / ||A x|| where that rounding floor is larger (a
    stiff A, nu near 1/2)."""

    iterations: int
    residuals: np.ndarray
    converged: bool
    wall_time: float

    @property
    def residual(self) -> float:
        return float(np.max(self.residuals))


class SpdFactor:
    """Sparse LU factor of a symmetric matrix: MMD ordering on A + A^T,
    symmetric mode, no diagonal pivoting.  It does not check definiteness;
    factorize_spd does.  An exactly singular A raises NotPositiveDefiniteError.

    solve takes one right-hand side or a block of them (columns).  By default
    it adds one step of iterative refinement, which keeps the residual near
    1e-15 and is what the source solve and the eigensolver's finishing block
    solve use; refine=False applies the bare factor, one pair of triangular
    solves, as the eigensolver's Krylov phase does."""

    def __init__(self, A):
        self._A = sp.csc_matrix(A)
        try:
            self._lu = spla.splu(
                self._A,
                diag_pivot_thresh=0.0,
                permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NotPositiveDefiniteError(f"A is singular: {exc}") from exc

    def solve(self, b: np.ndarray, refine: bool = True) -> np.ndarray:
        x = self._lu.solve(b)
        if refine:
            x = x + self._lu.solve(b - self._A @ x)
        return x


def factorize_spd(A) -> SpdFactor:
    """Factorize a symmetric positive definite matrix, rejecting any other.

    Without diagonal pivoting U has a positive diagonal exactly when A is SPD.
    Reading U makes SuperLU cache CSC copies of both factors: the eigensolver
    therefore uses SpdFactor directly.
    """
    F = SpdFactor(A)
    if np.any(F._lu.U.diagonal() <= 0):
        raise NotPositiveDefiniteError("nonpositive pivot in factorization")
    return F


def smallest_generalized_eigs(A, B, m: int, tol=1e-10, seed=0):
    """m smallest finite eigenpairs of A x = g B x.

    Parameters
    ----------
    A : SPD matrix (sparse or dense).
    B : positive semidefinite matrix of the same size.
    m : number of eigenpairs.
    tol : ARPACK tolerance on the shift-inverted problem on B's support,
        whose eigenvalues are 1/g.
    seed : start-vector seed (results are deterministic per seed).

    Returns
    -------
    (values, vectors, report): values ascending, vectors B-orthonormal.  The
    sign of each vector is decided on B's support r: its largest-magnitude
    entry there is positive.  Entries within 1e-8 relative of that magnitude
    count as tied and the lowest index decides, so round-off cannot flip a
    symmetric mode.  Fewer than m finite eigenvalues, a B singular on its
    support, a singular A, a nonpositive Rayleigh quotient (A not SPD) or an
    ARPACK error raise SolverFailure with the report.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = A.shape[0]
    t0 = time.perf_counter()
    applies = 0
    # taken before A is factored, so the copy abs(A) never adds to the peak memory
    anorm = abs(A).sum(axis=0).max()
    # B's support: a PSD matrix with a zero diagonal entry is zero on that row
    r = np.flatnonzero(B.diagonal() > 0)

    def failure(message):
        wall = time.perf_counter() - t0
        return SolverFailure(message, SolveReport(applies, np.array([np.inf]), False, wall))

    try:
        factor = SpdFactor(A)
    except NotPositiveDefiniteError as exc:
        raise failure(str(exc)) from exc
    B = sp.csr_matrix(B)
    Brr = B[r][:, r]
    pad = np.zeros(n)

    def apply_inverse(x):
        # (A^-1)_rr x: one bare solve on x padded with zeros outside r
        nonlocal applies
        applies += 1
        pad[r] = x
        return factor.solve(pad, refine=False)[r]

    if len(r) <= m + 3:
        X = np.eye(len(r))  # too few unknowns for ARPACK's m + 3 vectors: all of r
    else:
        op = spla.LinearOperator((len(r), len(r)), matvec=apply_inverse, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(len(r))
        try:
            # in shift-invert mode eigsh reads only the shape of its first argument
            _, X = spla.eigsh(op, m + 3, M=Brr, sigma=0, OPinv=op, which="LM", tol=tol, v0=v0)
        except spla.ArpackError as exc:
            raise failure(f"ARPACK failed on B's support: {exc}") from exc
    # finish: one refined block inverse-iteration step, then Rayleigh-Ritz
    # on the exact pencil; ascending g, vectors B-orthonormal
    rhs = np.zeros((n, X.shape[1]))
    rhs[r] = Brr @ X
    Y = factor.solve(rhs)
    applies += Y.shape[1]
    try:
        vals, W = scipy.linalg.eigh(Y.T @ (A @ Y), Y.T @ (B @ Y))
    except scipy.linalg.LinAlgError as exc:
        raise failure(f"Rayleigh-Ritz mass Y^T B Y is not positive definite: {exc}") from exc
    vals, V = vals[:m], Y @ W[:, :m]
    if len(vals) < m:
        raise failure(f"only {len(vals)} finite eigenvalues available")
    if np.any(vals <= 0):
        raise failure("nonpositive Rayleigh quotient; check matrix PSD-ness")

    for j in range(m):
        lead = np.abs(V[r, j])
        if V[r[np.argmax(lead >= (1.0 - 1e-8) * lead.max())], j] < 0:
            V[:, j] *= -1.0

    Ax = A @ V
    ax = np.linalg.norm(Ax, axis=0)
    res = np.linalg.norm(Ax - (B @ V) * vals, axis=0) / ax
    floor = ROUNDING * anorm * np.linalg.norm(V, axis=0) / ax
    report = SolveReport(
        iterations=applies,
        residuals=res,
        converged=bool(np.all(res <= np.maximum(max(tol, 1e-8), floor))),
        wall_time=time.perf_counter() - t0,
    )
    return vals, V, report
