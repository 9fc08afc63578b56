"""Sparse linear algebra: CSR storage, direct LU solves with residual
verification, a dense fallback for oracles, and block inverse iteration
for smallest generalized eigenvalues.

Factorization is delegated to SuperLU (scipy) with partial pivoting; the
wrapper enforces the contracts this package relies on: every solve reports
its measured relative residual, singular factors raise with the offending
pivot index, and repeated solves of identical inputs are bitwise
reproducible.
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
    """Inverse iteration did not converge within the iteration cap."""

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
    """Reusable sparse LU factorization of a square matrix."""

    def __init__(self, a):
        csr = _as_csr(a)
        n, m = csr.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        self._a = csr
        self._max_a = np.abs(csr.data).max() if csr.nnz else 0.0
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(csr.tocsc())
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
        """Solve Ax = b; returns (x, LinearSolveReport)."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self._a.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix {self._a.shape}, rhs {b.shape}")
        t0 = time.perf_counter()
        x = self._lu.solve(b)
        solve_time = time.perf_counter() - t0
        norm_b = np.linalg.norm(b)
        residual = (np.linalg.norm(self._a @ x - b) / norm_b) if norm_b > 0 else 0.0
        report = LinearSolveReport(residual=float(residual),
                                   pivot_growth=float(self.pivot_growth),
                                   solve_time=solve_time,
                                   factor_time=self.factor_time)
        if check and b.ndim == 1 and residual > _SOLVE_TOL:
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


def solve_dense(a, b):
    """Dense LAPACK solve, used as an independent oracle."""
    return np.linalg.solve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


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


def smallest_gen_eig(s, m, k=4, tol=EIG_TOL, max_iter=EIG_MAX_ITER):
    """Smallest eigenpair of S q = theta M q for explicit sparse S, M."""
    s_csr = _as_csr(s)
    m_csr = _as_csr(m)
    if s_csr.shape != m_csr.shape:
        raise ValueError(f"dimension mismatch: S {s_csr.shape}, M {m_csr.shape}")
    lu = Factorization(s_csr)
    return inverse_iteration(lambda b: lu._lu.solve(b), m_csr, s_csr.shape[0],
                             k=k, tol=tol, max_iter=max_iter)
