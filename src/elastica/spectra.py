"""Sparse symmetric linear algebra backend.

Direct factorization for SPD systems and a generalized symmetric
eigensolver for A x = g B x with A SPD and B positive semidefinite.  The
mass lives on B's support r, the rows with a positive diagonal (the WG
interior unknowns, every CR unknown), where B_rr is SPD.  A finite pair has
x = g A^-1 B x, so x_r fixes it and solves A_c x_r = g B_rr x_r, with A_c
the Schur complement of A onto r, whose inverse is (A^-1)_rr.  The solver
works on that pencil, so B's kernel never enters it.

A pencil that a mesh's mirrors map onto itself splits into blocks P^T (A, B) P,
one per character of their group, whose pairs, lifted by P, are the pencil's.
Each block, one at a time, is factored once, then (Ericsson and Ruhe, Math. Comp. 35, 1980; Nour-Omid,
Parlett, Ericsson and Jensen, Math. Comp. 48, 1987):

1. Krylov phase: ARPACK in shift-invert mode (sigma = 0) on vectors of
   length |r| in the B_rr inner product.  Its operator (A^-1)_rr is one
   bare solve of the factor, without refinement, on a right-hand side padded
   with zeros outside r; A itself is never multiplied.  ARPACK computes
   m + 1 Ritz vectors; if |r| <= m + 1, r's unit vectors replace them.
2. Finish: one refined block solve Y = A^-1 pad(B_rr X) from the Ritz
   vectors X, m + 1 columns wide, then Rayleigh-Ritz on the exact pencil
   (Y^T A Y, Y^T B Y).  This removes the error the bare factor leaves in the
   Krylov subspace and returns full-length B-orthonormal vectors.  The
   right-hand side block and Y are dropped as soon as their successor
   exists, so the finish holds one n-by-(m + 1) block at a time.
3. Check: the solver decides convergence on the whole pencil.  A residual
   above its bound (see RESIDUAL_TOL) fails the call.
"""

from __future__ import annotations

import ctypes
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotPositiveDefiniteError, SolverFailure

__all__ = ["SolveReport", "SpdFactor", "factorize_spd", "restrict", "smallest_generalized_eigs"]

# forming A x in floating point errs by up to about (nonzeros per row) * eps * |A| |x|
ROUNDING = 100 * np.finfo(float).eps
ARPACK_TOL = 1e-10  # on the shift-inverted problem on B's support, whose eigenvalues are 1/g
# a residual is converged within RESIDUAL_TOL, or ROUNDING * ||A||_1 ||x|| / ||A x|| where that
# floor is larger (a stiff A, nu near 1/2), never above RESIDUAL_CAP (a tiny E lifts it above 1)
RESIDUAL_TOL, RESIDUAL_CAP = 1e-8, 1e-5


def _heap_trimmer(libc):
    """glibc's malloc_trim(0) from C library libc; a no-op where libc has none."""
    if (trim := getattr(libc, "malloc_trim", None)) is None:
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


_trim_heap = _heap_trimmer(ctypes.CDLL(None) if os.name == "posix" else None)


@dataclass
class SolveReport:
    """iterations: solves with the factors counted as vectors, i.e. the Krylov
    steps plus the width of the finishing block solve, fill, SuperLU's lu.nnz, and
    the perf_counter seconds of the factor, the Krylov phase and the finish, all
    summed over the blocks; residuals: ||A x - g B x|| / ||A x|| per pair, on the
    full A and B.  A failure's report travels on its SolverFailure."""

    iterations: int
    residuals: np.ndarray
    fill: int
    factor_s: float = 0.0
    krylov_s: float = 0.0
    finish_s: float = 0.0

    @property
    def residual(self) -> float:
        return float(np.max(self.residuals))


class SpdFactor:
    """Sparse LU factor of a symmetric matrix: MMD ordering on A + A^T,
    symmetric mode, no diagonal pivoting.  It does not check definiteness;
    factorize_spd does.  An exactly singular A raises NotPositiveDefiniteError.

    A is factored in the order it is given: WG's assembly numbers its pencil
    for MMD, CR's edge-major order is banded already (see wg.assemble_forms).
    A symmetric A's compressed rows are its compressed columns, so SuperLU reads
    the caller's arrays and no copy of A is made (a CSR A with unsorted rows is
    sorted in place).

    solve takes one right-hand side or a block of them (columns).  By default
    it adds one step of iterative refinement, which keeps the residual near
    1e-15 and is what the source solve and the eigensolver's finishing block
    solve use; refine=False applies the bare factor, one pair of triangular
    solves, as the eigensolver's Krylov phase does.  Refinement forms its
    residual with the caller's A: the factor keeps a reference to that A,
    which must not change while the factor is used, so a level holds one A
    next to its factor.

    glibc's malloc_trim(0) returns freed heap to the OS right before SuperLU
    factors (the assembly's and earlier levels', 79-93 MB at CR n=128 in a
    ladder) and right after (its workspace), so a ladder's level peaks like a
    fresh one.  SuperLU's panels are 6 columns wide, not 20: the same fill and
    peak, an 11.8 against a 32.4 MB workspace at 98k unknowns, and a faster WG
    factor (see the README)."""

    def __init__(self, A):
        self._A = A = sp.csr_matrix(A)
        _trim_heap()  # the assembly's temporaries and those of earlier levels
        try:
            self._lu = spla.splu(
                A.T,  # a CSC view of A's own arrays: A^T, which is A
                diag_pivot_thresh=0.0,
                permc_spec="MMD_AT_PLUS_A",
                panel_size=6,  # see the docstring
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NotPositiveDefiniteError(f"A is singular: {exc}") from exc
        _trim_heap()  # SuperLU's own workspace

    def solve(self, b: np.ndarray, refine: bool = True) -> np.ndarray:
        x = self._lu.solve(b)
        if refine:
            r = self._A @ x
            np.subtract(b, r, out=r)
            x += self._lu.solve(r)
        return x


def factorize_spd(A) -> SpdFactor:
    """Factorize a symmetric positive definite matrix, rejecting any other.

    Without diagonal pivoting U has a positive diagonal exactly when A is SPD;
    a pivot that is inf or nan is rejected too.  The pivots are read from U,
    scipy's one view of them (SuperLU exposes only L, U, nnz, perm_c, perm_r,
    shape and solve), which converts both factors to CSC copies cached for the
    factor's lifetime.  That read sets the source solve's peak: about 250 MB at
    WG k=1 n=128, which factors one quarter only (410 MB for one half, 773 MB
    for the whole pencil).  The eigensolver therefore uses SpdFactor directly.
    """
    F = SpdFactor(A)
    d = F._lu.U.diagonal()
    if not np.all((d > 0) & (d < np.inf)):
        raise NotPositiveDefiniteError("nonpositive or nonfinite pivot in factorization")
    return F


def restrict(M, P):
    """P^T M P, M's block on the basis P; M itself for P None, the one block."""
    return M if P is None else (P.T @ M @ P).tocsr()


def smallest_generalized_eigs(A, B, m: int, seed=0, bases=(None,)):
    """m smallest finite eigenpairs of A x = g B x.

    Parameters
    ----------
    A : SPD matrix (sparse or dense).
    B : positive semidefinite matrix of the same size.
    m : number of eigenpairs.
    seed : start-vector seed (results are deterministic per seed).
    bases : the blocks' bases P, None for the whole pencil.  Each block gives its
        min(m, |support of its B|) smallest pairs; the m smallest of all are kept.

    Returns
    -------
    (values, vectors, report): values ascending, vectors B-orthonormal.  The
    sign of each vector is decided on B's support r: its largest-magnitude
    entry there is positive.  Entries within 1e-8 relative of that magnitude
    count as tied and the lowest index decides, so round-off cannot flip a
    symmetric mode.  Fewer than m finite eigenvalues (m > |r|, refused before
    A is factored), a B singular on its support, a singular A, a nonpositive
    Rayleigh quotient (A not SPD), an ARPACK error or a residual above its
    bound (see RESIDUAL_TOL) raise SolverFailure with the report.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # taken before A is factored, so the copy abs(A) never adds to the peak memory
    anorm = abs(A).sum(axis=0).max()
    # B's support: a PSD matrix with a zero diagonal entry is zero on that row
    r = np.flatnonzero(B.diagonal() > 0)
    report = SolveReport(iterations=0, residuals=np.array([np.inf]), fill=0)

    def failure(message, residuals=(np.inf,)):
        return SolverFailure(message, replace(report, residuals=np.array(residuals)))

    if m > len(r):  # B_rr is SPD: exactly |r| finite eigenvalues
        raise failure(f"only {len(r)} finite eigenvalues available")
    B = sp.csr_matrix(B)
    blocks = [_block_pairs(A, B, P, m, seed, report, failure) for P in bases]
    keep = np.argsort(vals := np.concatenate([g for g, _ in blocks]), kind="stable")[:m]
    vals, V = vals[keep], np.hstack([V for _, V in blocks])[:, keep]

    for j in range(m):
        lead = np.abs(V[r, j])
        if V[r[np.argmax(lead >= (1.0 - 1e-8) * lead.max())], j] < 0:
            V[:, j] *= -1.0

    Ax = A @ V
    ax = np.linalg.norm(Ax, axis=0)
    res = np.linalg.norm(Ax - (B @ V) * vals, axis=0) / ax
    floor = ROUNDING * anorm * np.linalg.norm(V, axis=0) / ax
    if not np.all(res <= np.minimum(np.maximum(RESIDUAL_TOL, floor), RESIDUAL_CAP)):
        raise failure(f"eigenpairs not converged: worst residual {res.max():.3e}", res)
    return vals, V, replace(report, residuals=res)


def _block_pairs(A, B, P, m, seed, report, failure):
    """Steps 1 and 2 on the block of P: its min(m, |r|) smallest pairs, lifted by P."""
    A, B = restrict(A, P), restrict(B, P)
    n, r = A.shape[0], np.flatnonzero(B.diagonal() > 0)
    m = min(m, len(r))
    start = time.perf_counter()
    try:
        factor = SpdFactor(A)
    except NotPositiveDefiniteError as exc:
        raise failure(str(exc)) from exc
    report.fill += factor._lu.nnz
    report.factor_s += (lap := time.perf_counter()) - start
    Brr = B[r][:, r]
    pad = np.zeros(n)

    def apply_inverse(x):
        # (A^-1)_rr x: one bare solve on x padded with zeros outside r
        report.iterations += 1
        pad[r] = x
        return factor.solve(pad, refine=False)[r]

    if len(r) <= m + 1:
        X = np.eye(len(r))  # too few unknowns for ARPACK's m + 1 vectors: all of r
    else:
        op = spla.LinearOperator((len(r), len(r)), matvec=apply_inverse, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(len(r))
        try:
            # in shift-invert mode eigsh reads only the shape of its first argument
            _, X = spla.eigsh(op, m + 1, M=Brr, sigma=0, OPinv=op, tol=ARPACK_TOL, v0=v0)
        except spla.ArpackError as exc:
            raise failure(f"ARPACK failed on B's support: {exc}") from exc
    report.krylov_s += (start := time.perf_counter()) - lap
    # finish: one refined block inverse-iteration step, then Rayleigh-Ritz
    # on the exact pencil; ascending g, vectors B-orthonormal
    rhs = np.zeros((n, X.shape[1]))
    rhs[r] = Brr @ X
    Y = factor.solve(rhs)
    del rhs
    report.iterations += Y.shape[1]
    try:
        vals, W = scipy.linalg.eigh(Y.T @ (A @ Y), Y.T @ (B @ Y))
    except scipy.linalg.LinAlgError as exc:
        raise failure(f"Rayleigh-Ritz mass Y^T B Y is not positive definite: {exc}") from exc
    if np.any(vals[:m] <= 0):
        raise failure("nonpositive Rayleigh quotient; check matrix PSD-ness")
    V = Y @ W[:, :m] if P is None else P @ (Y @ W[:, :m])
    report.finish_s += time.perf_counter() - start
    return vals[:m], V
