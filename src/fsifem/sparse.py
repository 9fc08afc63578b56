"""Sparse linear algebra: direct LU solves with residual verification, a
coordinate nested-dissection ordering, Lanczos for smallest generalized
eigenvalues, and `dot`, the one inner product of two vectors (no BLAS).

Factorization is delegated to SuperLU (scipy).  Given one coordinate row
per unknown, the matrix is factorized in the nested-dissection order of
`nested_dissection` with diagonal pivots preferred.  Every factorization
in the package takes this path: the resolvent and kernel-projection
saddle matrices, whose zero pressure block leaves SuperLU's COLAMD with
partial pivoting at 2.7 times the fill at level 3, and the SPD velocity,
pressure mass and solid interior blocks.  At level 4 the velocity block
fills 9.00 M entries against 10.69 M under SuperLU's minimum degree on
A + A^T, the solid interior block 5 % less and the pressure mass 3 %
more.  The ordering works on nodes, the unknowns at one coordinate, and
splits every block of a depth at once: each median cut keeps the smaller
of its two boundary layers as the separator, so on a P2 mesh the
separator is one line of nodes.  The wrapper enforces the contracts this
package relies on: there is no unchecked solve, and each measures its
relative residual with the caller's own matrix and right-hand side;
singular factors raise with the offending pivot index in the caller's
numbering; and repeated solves of identical inputs are bitwise
reproducible.

The pivot rule has two parts.  Every factorization refuses an exactly
singular matrix: SuperLU's zero pivot raises SingularMatrixError, with the
pivot located by a dense LU on matrices of up to 4 000 unknowns.  The
tolerance test, a pivot with |u_kk| <= _PIVOT_TOL * max|A| with
_PIVOT_TOL = 1e-14, is `Factorization.check_pivots`, and only the
resolvent saddle factor calls it: admissible parameters make it nearly
singular at (shift 1e-3, Lame lambda 1e6), where its residual check alone
would pass a state with a constant pressure of order 1e9.  The test reads
SuperLU's U factor, and scipy then keeps CSC copies of L and U for as
long as the factor lives: at level 4 the inf-sup study, whose velocity
block and pressure mass are SPD, peaked 86 MB higher with them.  Every
other factor has pivots bounded below for every valid mesh and material,
each for the reason its caller states, so it skips the test.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EIG_TOL = 1e-8
EIG_MAX_ITER = 500
_SOLVE_TOL = 1e-10
_PIVOT_TOL = 1e-14   # singular pivot: |u_kk| <= _PIVOT_TOL * max|A|
_ND_LEAF = 16      # nested dissection numbers blocks of at most this many unknowns whole


class SingularMatrixError(Exception):
    """A factorization hit a zero pivot, or `Factorization.check_pivots`
    found one at or below the singular tolerance; `pivot` is its unknown
    in the caller's numbering, -1 where it could not be located."""

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"singular factorization (pivot {pivot})")


class SolveAccuracyError(Exception):
    """A direct solve missed the required relative residual; `report` is
    its measured `LinearSolveReport`."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class EigenIterationError(Exception):
    """An eigensolve hit its iteration cap or failed its residual check."""

    def __init__(self, message, value, vector):
        super().__init__(message)
        self.value = value
        self.vector = vector


@dataclass(frozen=True)
class LinearSolveReport:
    """Measured (never assumed) quality of a direct solve."""

    residual: float       # ||Ax - b|| / ||b||, 0 for b = 0
    solve_time: float     # seconds in this solve alone
    factor_time: float    # seconds of the factorization it reused


def _as_csr(a):
    if sp.issparse(a):
        return a.tocsr()
    raise TypeError(f"expected a sparse matrix, got {type(a)!r}")


class Factorization:
    """Reusable sparse LU factorization of a square matrix.

    `xy` holds one coordinate row per unknown.  A is factorized as P A P^T
    in the coordinate nested-dissection order of `nested_dissection`:
    SuperLU keeps that order (NATURAL, symmetric mode) and a diagonal pivot
    unless it is below 1e-3 of its column's largest entry.  `solve` permutes
    the right-hand side and the solution, so callers see their own
    numbering.  A non-finite entry raises ValueError before SuperLU runs,
    and a zero pivot raises SingularMatrixError.  Building the factor never
    reads SuperLU's U: the tolerance test on the pivots is the separate
    `check_pivots`, and `pivot_growth` is computed on first use.  The
    residual check of every solve runs on the caller's matrix: `_a`, the
    one matrix kept, is the caller's own object when it is CSR.
    """

    def __init__(self, a, xy):
        csr = _as_csr(a)
        n, m = csr.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        t0 = time.perf_counter()
        self._perm = nested_dissection(csr, xy)
        self._a = csr
        max_a = np.abs(csr.data).max() if csr.nnz else 0.0
        if not np.isfinite(max_a):
            raise ValueError(f"matrix has a non-finite entry (max|A| = {max_a})")
        # P A P^T is only SuperLU's input, freed before any solve or U read
        csc = csr[self._perm][:, self._perm].tocsc()
        try:
            self._lu = spla.splu(csc, permc_spec="NATURAL", diag_pivot_thresh=1e-3,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as err:
            pivot = self._caller_index(_locate_pivot(csc, max_a))
            raise SingularMatrixError(pivot, str(err)) from err
        del csc
        self._max_a = max_a
        self.factor_time = time.perf_counter() - t0

    def check_pivots(self):
        """Raise SingularMatrixError when a pivot has |u_kk| <= _PIVOT_TOL *
        max|A|, naming its unknown in the caller's numbering.

        This reads `SuperLU.U`, and scipy then keeps CSC copies of L and U
        for as long as the factor lives; only the resolvent saddle factor,
        which admissible parameters can make nearly singular, calls it."""
        udiag = np.abs(self._lu.U.diagonal())
        if self._max_a > 0 and udiag.min() <= _PIVOT_TOL * self._max_a:
            pivot = self._caller_index(int(np.argmin(udiag)))
            raise SingularMatrixError(pivot, "factorization singular to tolerance "
                                             f"(pivot {pivot})")

    @functools.cached_property
    def pivot_growth(self):
        """max|U| / max|A| (0 for A = 0), computed on first use: it reads
        `SuperLU.U`, with the cost that `check_pivots` states."""
        u = self._lu.U
        # max|U| without an |U| temporary on top of scipy's CSC copies of L and U
        max_u = max(u.data.max(), -u.data.min())
        return max_u / self._max_a if self._max_a > 0 else 0.0

    def _caller_index(self, k):
        """Unknown k of the factorized matrix in the caller's numbering."""
        return int(self._perm[k]) if k >= 0 else k

    def solve(self, b):
        """Solve AX = B for a vector or a matrix of columns; returns
        (X, LinearSolveReport) with the largest per-column relative
        residual ||AX - B|| / ||B||; above 1e-10, or NaN, it raises.  A
        non-finite entry of B raises ValueError before SuperLU runs."""
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2):
            raise ValueError(f"rhs must be a vector or a matrix of columns, "
                             f"got shape {b.shape}")
        if b.shape[0] != self._a.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix {self._a.shape}, rhs {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("rhs has a non-finite entry")
        t0 = time.perf_counter()
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm])
        solve_time = time.perf_counter() - t0
        norm_b = np.linalg.norm(b, axis=0)
        norm_r = np.linalg.norm(self._a @ x - b, axis=0)
        residual = np.max(np.divide(norm_r, norm_b, out=np.zeros_like(norm_r),
                                    where=norm_b > 0), initial=0.0)
        report = LinearSolveReport(residual=float(residual), solve_time=solve_time,
                                   factor_time=self.factor_time)
        if not residual <= _SOLVE_TOL:
            raise SolveAccuracyError(
                f"relative residual {residual:.3e} exceeds {_SOLVE_TOL:.0e}", report)
        return x, report


def dot(x, y):
    """sum_i x_i y_i of two vectors by numpy's pairwise summation, the
    package's one vector reduction.  Not BLAS: OpenBLAS splits a dot of
    more than 10 000 entries among its threads, so its bits would depend
    on the thread count.  (einsum's running sum is also thread-free, but
    on level-3 velocity vectors it was 8 times less accurate.)"""
    return np.add.reduce(x * y)


def bit_classes(rows):
    """Group the rows of a float array (n, k) by their exact bit patterns.

    Returns `first`, the index of one representative row per class, and
    `cls`, the class of every row, so `rows[first][cls]` is bitwise
    `rows`.  Rows that differ in any bit (0.0 and -0.0 included) fall in
    different classes; no tolerance is involved.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    # each row's bytes as one opaque key: equal keys are equal bits
    # (a 1-D void sort, several times faster than np.unique(axis=0))
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, cls = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return first, cls


def nested_dissection(a, xy):
    """Fill-reducing order of the unknowns of `a` from their coordinates.

    Unknowns with bitwise-equal coordinates form one node, and the nodes
    are dissected on the quotient of the pattern of |A| + |A^T|.  Each
    block of more than `_ND_LEAF` unknowns is cut at the median
    coordinate, weighted by unknowns, along its longer extent.  Of the
    two boundary layers of the cut (the nodes of one side with a
    neighbour on the other) the one with fewer unknowns becomes the
    separator, the one on the heavier side on a tie; every node then left
    without a neighbour on its own side joins it.  Both sides are
    dissected further and the separator is numbered after them (George,
    SIAM J. Numer. Anal. 10, 1973).  All blocks of one depth are split at
    once; each final block gets its interval of positions, lower side,
    upper side, then separator, and inside it the unknowns keep ascending
    index.  So the unknowns of a node stay together, every node follows a
    neighbour or shares a final block with one, and in the saddle
    matrices here, numbered velocity before pressure, each pressure
    unknown follows a velocity unknown it couples to: its pivot is not
    structurally zero.  Returns the permutation: position k holds the
    unknown ordered k-th.
    """
    csr = _as_csr(a)
    xy = np.asarray(xy, dtype=float)
    n = csr.shape[0]
    if xy.ndim != 2 or xy.shape[0] != n or xy.shape[1] == 0:
        raise ValueError(f"need one coordinate row per unknown, each of at least "
                         f"one coordinate, got shape {xy.shape} for {n} unknowns")
    if not np.all(np.isfinite(xy)):
        # a NaN coordinate would make a median cut that separates nothing
        raise ValueError("coordinates must be finite")
    first, node = bit_classes(xy)
    node = node.astype(csr.indices.dtype)
    pts = xy[first]
    weight = np.bincount(node)                   # unknowns per node
    nodes = first.size
    # node graph: the quotient P^T (|A| + |A^T|) P, P the unknown-to-node
    # incidence; the sparse product sums the duplicate edges, and entries
    # that are explicit zeros in A add nothing
    to_node = sp.csr_matrix((np.ones(n), node, np.arange(n + 1, dtype=node.dtype)),
                            shape=(n, nodes))
    quotient = to_node.T.tocsr() @ sp.csr_matrix(
        (np.abs(csr.data), node[csr.indices], csr.indptr), shape=(n, nodes))
    quotient = sp.triu(quotient + quotient.T, k=1).tocoo()
    src, dst = quotient.row, quotient.col        # each edge once, src < dst

    where = np.empty(nodes, dtype=np.int64)      # first position of each node's final block
    active = np.arange(nodes)                    # nodes not yet in a leaf or a separator
    block = np.zeros(nodes, dtype=np.int64)      # block label of each active node, nondecreasing
    start = np.zeros(1, dtype=np.int64)          # first position of each block, by label
    mark = np.zeros(nodes, dtype=bool)
    while active.size:
        change = block[1:] != block[:-1]
        heads = np.flatnonzero(np.r_[True, change])
        start, block = start[block[heads]], np.cumsum(np.r_[False, change])
        w, p = weight[active], pts[active]
        size = np.add.reduceat(w, heads)
        extent = np.maximum.reduceat(p, heads) - np.minimum.reduceat(p, heads)
        leaf = ((size <= _ND_LEAF) | (extent.max(axis=1) == 0))[block]
        if leaf.any():
            # leaves become final and lose their edges; the rest go round again
            where[active[leaf]] = start[block[leaf]]
            mark[active] = leaf
            keep = ~mark[src]
            src, dst = src[keep], dst[keep]
            active, block = active[~leaf], block[~leaf]
            continue
        axis = np.argmax(extent, axis=1)
        coord = p[np.arange(active.size), axis[block]]
        # weighted median: the first node, along the axis, at which the
        # block's cumulative weight reaches half of its size
        order = np.lexsort((coord, block))
        active, coord, w = active[order], coord[order], w[order]
        total = np.cumsum(w)
        reached = 2 * (total - (total - w)[heads][block]) >= size[block]
        median = coord[heads + np.add.reduceat(~reached, heads, dtype=np.int64)]
        lower = coord < median[block]
        empty = np.add.reduceat(lower, heads, dtype=np.int64) == 0
        lower |= empty[block] & (coord <= median[block])
        # boundary layers: the nodes with a neighbour on the other side
        mark[active] = lower
        cross = mark[src] != mark[dst]
        mark[:] = False
        mark[src[cross]] = True
        mark[dst[cross]] = True
        layer = mark[active]
        low_size = np.add.reduceat(w * lower, heads)
        low_layer = np.add.reduceat(w * (layer & lower), heads)
        up_layer = np.add.reduceat(w * (layer & ~lower), heads)
        cut_up = (up_layer < low_layer) | ((up_layer == low_layer) & (2 * low_size <= size))
        sep = layer & (lower != cut_up[block])
        # every node left without a neighbour on its own side joins the
        # separator; the edges between the remaining nodes stay
        mark[active] = ~sep
        inner = mark[src] & mark[dst]
        src, dst = src[inner], dst[inner]
        mark[:] = False
        mark[src] = True
        mark[dst] = True
        sep |= ~mark[active]
        low = np.add.reduceat(w * (lower & ~sep), heads)
        up = np.add.reduceat(w * (~lower & ~sep), heads)
        where[active[sep]] = (start + low + up)[block[sep]]
        # post-order: lower side, upper side, separator
        start = np.column_stack([start, start + low]).ravel()
        active, block = active[~sep], 2 * block[~sep] + ~lower[~sep]
    return np.argsort(where[node], kind="stable")


def _locate_pivot(a, max_a):
    """Best-effort pivot index for a singular sparse matrix (dense LU on
    small systems); max_a is max|A|."""
    n = a.shape[0]
    if n > 4000:
        return -1
    import scipy.linalg as dla
    _, _, u = dla.lu(a.toarray())
    d = np.abs(np.diag(u))
    bad = np.flatnonzero(d <= _PIVOT_TOL * max_a)
    return int(bad[0]) if bad.size else int(np.argmin(d))


def factorize(a, xy) -> Factorization:
    return Factorization(a, xy)


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


def smallest_gen_eig(s, m, xy, tol=EIG_TOL, max_iter=EIG_MAX_ITER):
    """Smallest eigenpair (theta, q) of S q = theta M q, M SPD.

    S is a symmetric sparse matrix or a `LinearOperator`; it is only
    applied.  ARPACK's Lanczos runs on M^{-1} S in the M inner product
    until its Ritz value is accurate to 1e-2 * tol.  M^{-1} comes from one
    factorization of M, ordered by `xy`, the coordinates of M's unknowns,
    as in `Factorization`, whose pivots are not tested: M is SPD, so they
    are bounded below (for the pressure mass, by the positive triangle
    areas that every valid mesh has).  The start vector is fixed, so
    repeated calls give the same bits.  The returned pair is checked with
    one more apply:
    ||S q - theta M q|| <= tol * theta * ||M q||.  Failing the check raises
    EigenIterationError carrying the pair; hitting `max_iter` restarts
    raises it with no pair.
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
        m_factor = factorize(m_csr, xy)
        m_inverse = spla.LinearOperator((n, n), dtype=float,
                                        matvec=lambda b: m_factor.solve(b)[0])
        start = np.random.default_rng(20240601).standard_normal(n)
        try:
            values, vectors = spla.eigsh(s_op, k=1, M=m_csr, Minv=m_inverse,
                                         which="SA", v0=start, maxiter=max_iter,
                                         tol=1e-2 * tol)
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
