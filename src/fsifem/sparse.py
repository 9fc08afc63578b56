"""Sparse linear algebra: direct LU solves with residual verification, a
coordinate nested-dissection ordering, the one eigensolver, Lanczos for
the smallest eigenpair of S q = theta M q with S given as a function
that applies it, stopped at the first step whose pair meets the residual
check, and `dot`, the one inner product of two vectors (no BLAS).

Factorization is delegated to SuperLU (scipy).  Given one coordinate row
per unknown, the matrix is factorized in the nested-dissection order of
`nested_dissection` with diagonal pivots preferred; trailing unknowns
without a coordinate row are numbered after the others.  Every factorization
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
package relies on: there is no unchecked solve, since each solve is
checked before any result leaves the call that made it, and each check
measures the relative residual with the caller's own matrix and
right-hand side; singular factors raise a typed error; and repeated
solves of identical inputs are bitwise reproducible.  A solve may hand
its check to the call that made it (`Factorization.deferred_solve`):
`solve` runs it at once, and `semigroup.Stepper.certify` runs it,
in `evolve` on the helper thread, before the state leaves `evolve`.

The interpreter lock: SuperLU's triangular solve releases it for its
arithmetic and takes it back about three times per solve (with a 0.2 s
switch interval, ten level-4 velocity solves beside a thread spinning
in Python took 6.0 s instead of 0.2 s).  So during a solve another
thread overlaps it for free only inside a numpy or scipy call that
releases the lock and that it has already entered.  Its Python code
between such calls makes the solve wait up to one switch interval (5
ms) at each retake: 40 level-4 velocity solves took 1.70 s beside a
thread running Python, against 1.04 s alone and 0.91 s beside a thread
making CSR products, whose memory traffic cost nothing measurable
(medians of 5, 2-vCPU VM, one BLAS thread, scipy 1.17.1).

The pivot rule: every factorization refuses an exactly singular matrix.
SuperLU's zero pivot raises SingularMatrixError with SuperLU's own
message, and nothing is factorized again to locate the pivot.  There
is no tolerance test on the pivots, and no path outside the traced
`pivot_growth` reads SuperLU's U factor: that read makes scipy keep CSC
copies of L and U for as long as the factor lives, 0.88 GB at level 5.
A nearly singular matrix is the caller's to remove.  The one the
package meets, the resolvent saddle at (shift 1e-3, Lame lambda 1e6),
whose constant pressure is a near-null mode, is factorized bordered
against that mode (`solver.ResolventOperator`), with the border
numbered after the coordinate unknowns.  Every other factor has pivots
bounded below for every valid mesh and material, each for the reason
its caller states.

The precision rule: a factor is double unless its caller asks for a
single one, and the caller's use decides, never a flag or a setting.  A
single factor stores its LU in float32 and refines every solve in double
until the residual is as small as a double factor's (`Factorization`),
so it pays for half the factor's bytes with two or three cheaper solves
where a double factor makes one.  Only the one-shot resolvent operator
asks for it; the stepper's operator, which serves hundreds of solves, and
the SPD and kernel-projection factors are double, and their solves are
those of the double factor alone.  A single factor that cannot reach
the residual gate becomes a double one, so no solve fails for its
precision.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

EIG_TOL = 1e-8
EIG_MAX_ITER = 500        # Lanczos steps of `smallest_gen_eig`
_SOLVE_TOL = 1e-10
PRECISIONS = ("double", "single")
_REFINE_TARGET = 2.0 ** -50       # a refined solve stops at ||b - Ax|| <= this * || |A||x| + |b| ||
_REFINE_CONTRACTION = 2.0 ** -3   # or at a step that does not cut the residual by this factor
_START_WEIGHT = 2.0 ** -2   # of the random part of the Lanczos start vector
_ND_LEAF = 16      # nested dissection numbers blocks of at most this many unknowns whole


class SingularMatrixError(Exception):
    """A factorization hit a zero pivot; the message is SuperLU's.  A tiny
    but nonzero pivot does not raise it: the checked residual of each
    solve is the gate there."""


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
    solve_time: float     # seconds in this solve alone, refinement included
    factor_time: float    # seconds of the factorization it reused
    precision: str = "double"   # of the factor that made the solution
    refinement_steps: int = 0   # corrections after the first solve


def _as_csr(a):
    if sp.issparse(a):
        return a.tocsr()
    raise TypeError(f"expected a sparse matrix, got {type(a)!r}")


class Factorization:
    """Reusable sparse LU factorization of a square matrix.

    `xy` holds one coordinate row for each of the leading unknowns, at
    least one and at most all of them.  A is factorized as P A P^T: the
    leading unknowns in the coordinate nested-dissection order of
    `nested_dissection` on their block of A, then any trailing unknowns
    without coordinates in index order.  So a dense border row and column
    is numbered last, where it adds one row and column to the factor;
    numbered inside the dissection it would fill the whole block it
    couples.  SuperLU keeps that order (NATURAL, symmetric mode) and a
    diagonal pivot unless it is below 1e-3 of its column's largest entry.
    `solve` permutes the right-hand side and the solution, so callers see
    their own numbering.  A non-finite entry raises ValueError before
    SuperLU runs, and a zero pivot raises SingularMatrixError.  No pivot
    is tested against a tolerance, and nothing but `pivot_growth`, which
    only the benchmark's traced passes read, reads SuperLU's U.  The
    residual check of every solve runs on the caller's matrix: `_a`, the
    one matrix kept, is the caller's own object when it is CSR.

    `precision` is "double" or "single", a constant of the caller's use.
    A double factor solves once.  A single factor is SuperLU's LU of
    P A P^T cast to float32, with the same order, pivots and fill: at
    level 4, ordering included, the resolvent saddle takes 0.84-0.88 s
    instead of 1.10-1.21 s to factorize and raises the resident peak by
    121-127 MB instead of 191 (one BLAS thread).  Its solves are refined
    in double (Buttari et al., ACM TOMS 34, 2008; Carson & Higham, SIAM
    J. Sci. Comput. 40, 2018): x += LU^-1 r on the residual r = b - Ax
    that the check computes anyway.  Each column of r is scaled by the power of
    two just above its largest entry before the cast, so the cast cannot
    overflow, loses only entries below 2^-149 of the largest, and a data
    scale of 2^k changes no bit.  The loop stops once
    ||r|| <= 2^-50 || |A||x| + |b| || (`_REFINE_TARGET`, in every
    column; |A||x| is taken at the first iterate): a fixed multiple of the
    rounding error of evaluating Ax in double, where a double factor's
    solve lands (2^-53 to 2^-52 on the resolvent saddles).  A target
    relative to ||b|| alone stopped too early where b is dominated by a
    few large rows, e.g. the solid rows at shift 1e-3.  The loop also
    stops at a step that does not cut the residual by 8
    (`_REFINE_CONTRACTION`), keeping the better iterate.  If its residual
    is then above the 1e-10 gate, or the cast would overflow, or SuperLU
    refuses the float32 matrix, the single factor is dropped and the
    matrix is factorized in double, for this solve and every later one:
    the answer is then bit for bit a double factor's, and the report says
    `precision="double"`.  That happens where kappa(A) u_32 is near 1,
    e.g. the resolvent saddle at Lame lambda 1e6.
    """

    def __init__(self, a, xy, precision="double"):
        if precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")
        csr = _as_csr(a)
        n, m = csr.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        xy = np.asarray(xy, dtype=float)
        lead = xy.shape[0] if xy.ndim else 0
        if not 0 < lead <= n:
            raise ValueError(f"need a coordinate row for each of 1 to {n} leading "
                             f"unknowns, got shape {xy.shape}")
        t0 = time.perf_counter()
        leading = nested_dissection(csr if lead == n else csr[:lead, :lead], xy)
        self._perm = np.concatenate([leading, np.arange(lead, n)])
        self._a = csr
        # max|A| without an |A| temporary (17.8 MB for the level-4 saddle)
        max_a = max(csr.data.max(), -csr.data.min()) if csr.nnz else 0.0
        if not np.isfinite(max_a):
            raise ValueError(f"matrix has a non-finite entry (max|A| = {max_a})")
        self._max_a = max_a
        self.precision = precision
        self._lu = None
        if precision == "single" and max_a <= np.finfo(np.float32).max:
            # cast before the permutation, so no double copy of P A P^T is made
            csc = csr.astype(np.float32)[self._perm][:, self._perm].tocsc()
            try:
                self._lu = _splu(csc)
            except RuntimeError:
                pass   # SuperLU refused the float32 matrix: factorized in double below
            del csc
        if self._lu is None:
            self._lu = self._double_factor()
        self.factor_time = time.perf_counter() - t0

    def _double_factor(self):
        """SuperLU's double LU of P A P^T, which is only its input, with
        `precision` set to "double"; a zero pivot raises
        SingularMatrixError."""
        self.precision = "double"
        try:
            return _splu(self._a[self._perm][:, self._perm].tocsc())
        except RuntimeError as err:
            raise SingularMatrixError(str(err)) from err

    @functools.cached_property
    def pivot_growth(self):
        """max|U| / max|A| (0 for A = 0), for the benchmark's traced passes
        only: it reads `SuperLU.U`, and scipy then keeps CSC copies of L
        and U for as long as the factor lives."""
        u = self._lu.U
        # max|U| without an |U| temporary on top of scipy's CSC copies of L and U
        max_u = max(u.data.max(), -u.data.min())
        return max_u / self._max_a if self._max_a > 0 else 0.0

    def _residual(self, x, b):
        """r = b - Ax and the 2-norm of each of its columns."""
        r = b - self._a @ x
        return r, np.linalg.norm(r, axis=0)

    def _single_solve(self, r):
        """LU^-1 r in double through the single factor: each column of r
        scaled by 2^-e, 2^e just above its largest entry, cast to float32,
        solved, and scaled back; every scaling is exact."""
        _, e = np.frexp(np.abs(r).max(axis=0, initial=0.0))
        y = np.empty_like(r)
        y[self._perm] = self._lu.solve(np.ldexp(r[self._perm], -e).astype(np.float32))
        return np.ldexp(y, e)

    def _refined_solve(self, b):
        """(x, the column norms of b - Ax, steps) of the refinement loop on
        the single factor."""
        x = self._single_solve(b)
        a = self._a
        # || |A||x| + |b| || per column, from the first iterate: refinement
        # moves |x| by less than its first residual
        abs_a = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
        target = _REFINE_TARGET * np.linalg.norm(abs_a @ np.abs(x) + np.abs(b), axis=0)
        del abs_a
        r, norm_r = self._residual(x, b)
        above = _largest_ratio(norm_r, target)   # at most 1 on the target
        steps = 0
        while above > 1.0:
            x_next = x + self._single_solve(r)
            r_next, norm_next = self._residual(x_next, b)
            next_above = _largest_ratio(norm_next, target)
            steps += 1
            if not next_above <= _REFINE_CONTRACTION * above:
                if next_above < above:
                    x, norm_r = x_next, norm_next
                break
            x, r, norm_r, above = x_next, r_next, norm_next, next_above
        return x, norm_r, steps

    def solve(self, b):
        """Solve AX = B for a vector or a matrix of columns; returns
        (X, LinearSolveReport) with the largest per-column relative
        residual ||AX - B|| / ||B||; above 1e-10, or NaN, it raises.  A
        non-finite entry of B raises ValueError before SuperLU runs.  A
        single factor refines, or falls back to double (see the class).
        It is `deferred_solve` followed at once by its check."""
        x, check = self.deferred_solve(b)
        return x, check()

    def deferred_solve(self, b):
        """The solve of `solve` without its check: (X, check), where
        `check()` measures the residual and returns the checked report or
        raises, as `solve` would.  X is unchecked until then, and neither
        X nor B may change before it; the check may run on another thread.  A double
        factor defers the residual product and norms; a single factor
        needs the residual inside its refinement, so its check only
        reports.  The callers are a `solve`, `ResolventOperator`'s own
        `deferred_solve` and `semigroup.Stepper.deferred_step` (kept so by
        tests/test_dependencies.py)."""
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
        if self.precision == "single":
            x, norm_r, steps = self._refined_solve(b)
            if _largest_ratio(norm_r, np.linalg.norm(b, axis=0)) <= _SOLVE_TOL:
                return x, self._check(x, b, t0, norm_r, steps)
            # the double factor that replaces it solves afresh below
            t1 = time.perf_counter()
            self._lu = None   # dropped before the double factor is made
            self._lu = self._double_factor()
            refactor = time.perf_counter() - t1
            self.factor_time += refactor
            t0 += refactor
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm])
        return x, self._check(x, b, t0)

    def _check(self, x, b, t0, norm_r=None, steps=0):
        """The check of the solve of AX = B begun at `t0`: it takes the
        residual's column norms `norm_r`, or measures them, and its time
        counts in the report's `solve_time`."""
        solve_time = time.perf_counter() - t0
        precision, factor_time = self.precision, self.factor_time

        def check():
            t1 = time.perf_counter()
            r_norms = self._residual(x, b)[1] if norm_r is None else norm_r
            return checked_report(LinearSolveReport(
                residual=float(_largest_ratio(r_norms, np.linalg.norm(b, axis=0))),
                solve_time=solve_time + time.perf_counter() - t1,
                factor_time=factor_time, precision=precision,
                refinement_steps=steps))

        return check


def _largest_ratio(num, den):
    """max_j num_j / den_j over the columns, 0 where den_j = 0."""
    return np.max(np.divide(num, den, out=np.zeros_like(num), where=den > 0),
                  initial=0.0)


def _splu(csc):
    """SuperLU with the package's options: the caller's order (NATURAL),
    symmetric mode, a diagonal pivot unless below 1e-3 of its column."""
    return spla.splu(csc, permc_spec="NATURAL", diag_pivot_thresh=1e-3,
                     options=dict(SymmetricMode=True))


def checked_report(report):
    """`report` if its residual passes the package's one residual gate of
    solves, 1e-10; above it, or NaN, it raises SolveAccuracyError
    carrying the report."""
    if not report.residual <= _SOLVE_TOL:
        raise SolveAccuracyError(
            f"relative residual {report.residual:.3e} exceeds {_SOLVE_TOL:.0e}", report)
    return report


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


def factorize(a, xy, precision="double") -> Factorization:
    return Factorization(a, xy, precision)


def inverse_iteration(*args, **kwargs):
    """Retired; the name stays while perfbench/shims.py wraps it."""
    raise NotImplementedError("inverse_iteration is retired: use smallest_gen_eig")


def smallest_gen_eig(apply_s, m, xy):
    """Smallest eigenpair (theta, q) of S q = theta M q, M SPD.

    S is symmetric and reaches the loop only as `apply_s`, a function of
    one vector that returns S times it: it is called once per Lanczos step
    and once for the check, and a sparse S is passed as `s.__matmul__`.
    Lanczos runs on M^{-1} S in the M inner product (Paige, J. Inst. Math.
    Appl. 10, 1972), with every new vector orthogonalized against the
    whole basis, and each step's Ritz pair is the smallest of the
    tridiagonal matrix (LAPACK's bisection and inverse iteration).
    M^{-1} comes from one factorization of M, ordered by `xy`, the
    coordinates of M's unknowns, as in `Factorization`, whose pivots are
    not tested: M is SPD, so they are bounded below (for the pressure
    mass, by the positive triangle areas that every valid mesh has).
    Every inner product and norm that the loop or the returned pair
    depends on is `dot`, and the tridiagonal matrix is too small for BLAS
    to split, so no returned bit depends on the number of BLAS threads.

    The start vector is the M-normalized constant plus 2^-2 times the
    M-normalized random vector of a fixed seed, so repeated calls give the
    same bits.  The constant leads because the smallest mode of the
    inf-sup pencil (`analysis.infsup_beta`) is close to it; the random
    part keeps every mode in the Krylov space, also one M-orthogonal to
    the constant.

    After step j the Ritz pair's eigenresidual is known without an apply:
    ||S q - theta M q|| = |b_j y_j| ||M v_{j+1}||, with b_j the next
    off-diagonal entry, y_j the last entry of the Ritz vector in the
    Lanczos basis and v_{j+1} the next Lanczos vector.  The loop stops at
    the first step where that is at most 1/2 * `EIG_TOL` * theta * ||M q||,
    which includes breakdown (b_j = 0, e.g. S = M), where the pair is
    exact, or once the basis spans all n unknowns.  Only the Lanczos
    vectors are kept, and each M product is recomputed, so the basis
    holds at most `EIG_MAX_ITER` * n * 8 bytes.  The returned pair is
    checked with one more apply:
    ||S q - theta M q|| <= EIG_TOL * theta * ||M q||.  Failing the check
    raises EigenIterationError carrying the pair; `EIG_MAX_ITER` Lanczos
    steps without stopping raise it with no pair.
    """
    m_csr = _as_csr(m)
    n = m_csr.shape[0]
    m_factor = factorize(m_csr, xy)
    start = _m_normalized(np.ones(n), m_csr) + _START_WEIGHT * _m_normalized(
        np.random.default_rng(20240601).standard_normal(n), m_csr)
    v = _m_normalized(start, m_csr)
    basis, alpha, beta = [], [], []
    for step in range(1, EIG_MAX_ITER + 1):
        basis.append(v)
        sv = apply_s(v)
        alpha.append(dot(v, sv))
        w = m_factor.solve(sv)[0] - alpha[-1] * v
        if beta:
            w -= beta[-1] * basis[-2]
        # classical Gram-Schmidt against the whole basis, in the M inner product
        mw = m_csr @ w
        for coef, u in zip([dot(u, mw) for u in basis], basis):
            w -= coef * u
        mw = m_csr @ w
        values, vectors = eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
        theta, y = values[0], vectors[:, 0]
        q = y[0] * basis[0]
        for coef, u in zip(y[1:], basis[1:]):
            q += coef * u
        mq = m_csr @ q
        # b_j ||M v_{j+1}|| = ||M w||
        estimate = abs(y[-1]) * np.sqrt(dot(mw, mw))
        if estimate <= 0.5 * EIG_TOL * abs(theta) * np.sqrt(dot(mq, mq)) or step == n:
            break
        beta.append(np.sqrt(dot(w, mw)))
        v = w / beta[-1]
    else:
        raise EigenIterationError(
            f"Lanczos did not converge in {EIG_MAX_ITER} Lanczos steps", None, None)
    res = np.linalg.norm(apply_s(q) - theta * mq)
    if not res <= EIG_TOL * abs(theta) * np.linalg.norm(mq):
        raise EigenIterationError(
            f"eigenresidual {res:.3e} exceeds {EIG_TOL:.0e} * theta * ||M q|| "
            f"(value {theta})", theta, q)
    return float(theta), q / np.sqrt(dot(q, q))


def _m_normalized(x, m_csr):
    """x / ||x||_M."""
    return x / np.sqrt(dot(x, m_csr @ x))
