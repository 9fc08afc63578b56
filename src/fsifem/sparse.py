"""Sparse linear algebra: CSR storage, direct LU solves with residual
verification, and Lanczos for smallest generalized eigenvalues.

Factorization is delegated to SuperLU (scipy).  The ordering follows the
matrix: with a zero-free diagonal (the SPD velocity, solid and mass
blocks) SuperLU orders A + A^T by minimum degree and prefers diagonal
pivots; otherwise (saddle matrices, whose pressure block is zero) it uses
COLAMD with partial pivoting.  The wrapper enforces the contracts this
package relies on: every solve reports its measured relative residual,
singular factors raise with the offending pivot index, and repeated
solves of identical inputs are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EIG_TOL = 1e-8
EIG_MAX_ITER = 500
_SOLVE_TOL = 1e-10


class SingularMatrixError(Exception):
    """Factorization hit a zero (or below-tolerance) pivot."""

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"singular factorization (pivot {pivot})")


class SolveAccuracyError(Exception):
    """A direct solve failed to reach the required relative residual."""


class EigenIterationError(Exception):
    """An eigensolve hit its iteration cap or failed its residual check."""

    def __init__(self, message, value, vector):
        super().__init__(message)
        self.value = value
        self.vector = vector


class SparseMatrix:
    """Compressed-sparse-row matrix with sorted, duplicate-free rows."""

    def __init__(self, csr: sp.csr_matrix):
        csr = csr.tocsr().copy()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        self._csr = csr

    @classmethod
    def from_coo(cls, rows, cols, values, shape):
        return cls(sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr())

    @classmethod
    def from_dense(cls, a):
        return cls(sp.csr_matrix(np.asarray(a, dtype=float)))

    @classmethod
    def identity(cls, n):
        return cls(sp.identity(n, format="csr"))

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self):
        return self._csr.nnz

    @property
    def row_offsets(self):
        return self._csr.indptr

    @property
    def col_indices(self):
        return self._csr.indices

    @property
    def values(self):
        return self._csr.data

    def matvec(self, x):
        return self._csr @ x

    __matmul__ = matvec

    def transpose(self):
        return SparseMatrix(self._csr.T.tocsr())

    def to_dense(self):
        return self._csr.toarray()

    def to_csr(self):
        return self._csr


@dataclass(frozen=True)
class LinearSolveReport:
    """Measured (never assumed) quality of a direct solve."""

    residual: float       # ||Ax - b|| / ||b||, 0 for b = 0
    pivot_growth: float   # max|U| / max|A|
    solve_time: float     # seconds in this solve alone
    factor_time: float    # seconds of the factorization it reused


def _as_csr(a):
    if isinstance(a, SparseMatrix):
        return a.to_csr()
    if sp.issparse(a):
        return a.tocsr()
    raise TypeError(f"expected a sparse matrix, got {type(a)!r}")


class Factorization:
    """Reusable sparse LU factorization of a square matrix.

    A zero-free diagonal selects SuperLU's symmetric mode: minimum degree
    on A + A^T, the same permutation for rows and columns, and a diagonal
    pivot kept unless it is below 1e-3 of its column's largest entry.  Any
    zero on the diagonal (every saddle matrix) selects COLAMD with partial
    pivoting.
    """

    def __init__(self, a):
        csr = _as_csr(a)
        n, m = csr.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        self._a = csr
        self._max_a = np.abs(csr.data).max() if csr.nnz else 0.0
        if np.all(csr.diagonal() != 0):
            ordering = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                            options=dict(SymmetricMode=True))
        else:
            ordering = {}
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(csr.tocsc(), **ordering)
        except RuntimeError as err:
            raise SingularMatrixError(_locate_pivot(csr), str(err)) from err
        self.factor_time = time.perf_counter() - t0
        udiag = np.abs(self._lu.U.diagonal())
        if self._max_a > 0 and udiag.min() <= 1e-14 * self._max_a:
            raise SingularMatrixError(int(np.argmin(udiag)),
                                      "factorization singular to tolerance "
                                      f"(pivot {int(np.argmin(udiag))})")
        self.pivot_growth = (np.abs(self._lu.U.data).max() / self._max_a
                             if self._max_a > 0 else 0.0)

    def solve(self, b, check=True):
        """Solve AX = B for a vector or a matrix of columns; returns
        (X, LinearSolveReport) with the largest per-column relative
        residual, which must not exceed 1e-10 when `check` is set."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self._a.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix {self._a.shape}, rhs {b.shape}")
        t0 = time.perf_counter()
        x = self._lu.solve(b)
        solve_time = time.perf_counter() - t0
        norm_b = np.linalg.norm(b, axis=0)
        norm_r = np.linalg.norm(self._a @ x - b, axis=0)
        residual = np.max(np.divide(norm_r, norm_b, out=np.zeros_like(norm_r),
                                    where=norm_b > 0), initial=0.0)
        report = LinearSolveReport(residual=float(residual),
                                   pivot_growth=float(self.pivot_growth),
                                   solve_time=solve_time,
                                   factor_time=self.factor_time)
        if check and residual > _SOLVE_TOL:
            raise SolveAccuracyError(
                f"relative residual {residual:.3e} exceeds {_SOLVE_TOL:.0e}")
        return x, report


def _locate_pivot(csr):
    """Best-effort pivot index for a singular matrix (dense LU on small systems)."""
    n = csr.shape[0]
    if n > 4000:
        return -1
    import scipy.linalg as dla
    _, _, u = dla.lu(csr.toarray())
    d = np.abs(np.diag(u))
    scale = np.abs(csr.data).max() if csr.nnz else 1.0
    bad = np.flatnonzero(d <= 1e-14 * max(scale, 1.0))
    return int(bad[0]) if bad.size else int(np.argmin(d))


def factorize(a) -> Factorization:
    return Factorization(a)


def solve(a, b):
    """Direct sparse solve with verified relative residual <= 1e-10."""
    return Factorization(a).solve(b)


def _m_orthonormalize(x, m_csr):
    """Return X with X^T M X = I (Cholesky of the small Gram matrix)."""
    gram = x.T @ (m_csr @ x)
    gram = 0.5 * (gram + gram.T)
    chol = np.linalg.cholesky(gram)
    return np.linalg.solve(chol, x.T).T


def inverse_iteration(apply_s_inverse, m, n, k=4, tol=EIG_TOL, max_iter=EIG_MAX_ITER):
    """Smallest generalized eigenpair of S q = theta M q.

    Shift-free block inverse iteration on M-orthonormalized vectors:
    repeatedly applies S^{-1} M, then extracts the Ritz pair with smallest
    Rayleigh quotient.  `apply_s_inverse` maps a matrix of column vectors
    to S^{-1} times those columns; the eigenresidual is measured relative
    to theta * ||M q||.

    The package no longer calls this (see `smallest_gen_eig`); it stays
    only because the benchmark's trace layer, `perfbench/shims.py`, wraps
    it by name, and goes with the next change to the benchmark.
    """
    m_csr = _as_csr(m)
    k = min(k, n)
    rng = np.random.default_rng(20240601)
    x = _m_orthonormalize(rng.standard_normal((n, k)), m_csr)
    theta, q = None, x[:, 0]
    for _ in range(max_iter):
        z = apply_s_inverse(m_csr @ x)          # S^{-1} M X
        t = x.T @ (m_csr @ z)                   # Ritz projection of S^{-1}
        t = 0.5 * (t + t.T)
        mu, vecs = np.linalg.eigh(t)            # largest mu <-> smallest theta
        theta = 1.0 / mu[-1]
        q = x @ vecs[:, -1]                     # M-normalized Ritz vector
        zq = z @ vecs[:, -1]                    # S^{-1} M q
        res = np.linalg.norm(m_csr @ (q - theta * zq))
        scale = np.linalg.norm(m_csr @ q)
        if scale > 0 and res <= tol * scale:
            return float(theta), q / np.linalg.norm(q)
        x = _m_orthonormalize(z, m_csr)
    raise EigenIterationError(
        f"inverse iteration did not converge in {max_iter} iterations "
        f"(last value {theta})", theta, q)


def smallest_gen_eig(s, m, tol=EIG_TOL, max_iter=EIG_MAX_ITER):
    """Smallest eigenpair (theta, q) of S q = theta M q, M SPD.

    S is a symmetric sparse matrix or a `LinearOperator`; it is only
    applied.  ARPACK's Lanczos runs on M^{-1} S in the M inner product to
    machine precision, with M^{-1} from one factorization of M and a fixed
    start vector, so repeated calls give the same bits.  The returned pair
    is checked with one more apply: ||S q - theta M q|| <= tol * theta *
    ||M q||.  Failing the check raises EigenIterationError carrying the
    pair; hitting `max_iter` restarts raises it with no pair.
    """
    m_csr = _as_csr(m)
    s_op = s if isinstance(s, spla.LinearOperator) else _as_csr(s)
    if s_op.shape != m_csr.shape:
        raise ValueError(f"dimension mismatch: S {s_op.shape}, M {m_csr.shape}")
    n = m_csr.shape[0]
    if n == 1:   # ARPACK needs more unknowns than wanted eigenvalues
        q = np.ones(1)
        theta = float((s_op @ q)[0] / (m_csr @ q)[0])
    else:
        m_factor = factorize(m_csr)
        m_inverse = spla.LinearOperator((n, n), dtype=float,
                                        matvec=lambda b: m_factor.solve(b)[0])
        start = np.random.default_rng(20240601).standard_normal(n)
        try:
            values, vectors = spla.eigsh(s_op, k=1, M=m_csr, Minv=m_inverse,
                                         which="SA", v0=start, maxiter=max_iter)
        except spla.ArpackNoConvergence as err:
            # with k = 1 no pair has converged when ARPACK gives up
            raise EigenIterationError(
                f"Lanczos did not converge in {max_iter} restarts", None, None) from err
        theta, q = float(values[0]), vectors[:, 0]
    mq = m_csr @ q
    res = np.linalg.norm(s_op @ q - theta * mq)
    if not res <= tol * abs(theta) * np.linalg.norm(mq):
        raise EigenIterationError(
            f"eigenresidual {res:.3e} exceeds {tol:.0e} * theta * ||M q|| "
            f"(value {theta})", theta, q)
    return theta, q / np.linalg.norm(q)
