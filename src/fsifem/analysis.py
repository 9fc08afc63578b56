"""Manufactured-solution study: exact fields, data, error norms,
convergence rates, and the discrete inf-sup constant.

The exact velocity is built from the stream function psi(x, y) =
A(x) B(y) with A = B = phi, phi(x) = x^2 (1-x)^2 (x-1/3)^3 (2/3-x)^3, so
u = (A B', -A' B) is divergence-free, vanishes to second order on both
boundaries, and solves the fluid resolvent equation with pressure
identically zero; the solid fields are identically zero.  The derivative
coefficient lists are hardcoded and cross-checked in exact rational
arithmetic against the formal derivatives of the expanded phi, so any
transcription typo is reported at construction rather than silently
corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.sparse.linalg as spla
from numpy.polynomial import polynomial as npoly

from . import fem
from . import mesh as meshmod
from . import solver
from . import sparse as sla
from .fem import MaterialParams

RATE_FLOOR = 1e-15


# ---------------------------------------------------------------------------
# phi and its printed derivatives, exact arithmetic
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out

def _poly_pow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out

def _poly_diff(a):
    return [k * a[k] for k in range(1, len(a))]


def phi_coefficients():
    """Exact ascending coefficients of x^2 (1-x)^2 (x-1/3)^3 (2/3-x)^3."""
    x2 = [Fraction(0), Fraction(0), Fraction(1)]
    one_minus_x_sq = [Fraction(1), Fraction(-2), Fraction(1)]
    left = _poly_pow([Fraction(-1, 3), Fraction(1)], 3)
    right = _poly_pow([Fraction(2, 3), Fraction(-1)], 3)
    return _poly_mul(_poly_mul(x2, one_minus_x_sq), _poly_mul(left, right))


# hardcoded derivative coefficient lists (ascending powers)
PHI_D1 = [Fraction(0), Fraction(-16, 729), Fraction(124, 243),
          Fraction(-3272, 729), Fraction(185, 9), Fraction(-494, 9),
          Fraction(266, 3), Fraction(-256, 3), Fraction(45), Fraction(-10)]
PHI_D2 = [Fraction(-16, 729), Fraction(248, 243), Fraction(-3272, 243),
          Fraction(740, 9), Fraction(-2470, 9), Fraction(532),
          Fraction(-1792, 3), Fraction(360), Fraction(-90)]
PHI_D3 = [Fraction(248, 243), Fraction(-6544, 243), Fraction(740, 3),
          Fraction(-9880, 9), Fraction(2660), Fraction(-3584),
          Fraction(2520), Fraction(-720)]


class CoefficientMismatch(Exception):
    """A hardcoded derivative list disagrees with the formal derivative."""


def _check_lists(expanded):
    d1 = _poly_diff(expanded)
    d2 = _poly_diff(d1)
    d3 = _poly_diff(d2)
    for name, formal, hard in (("phi'", d1, PHI_D1), ("phi''", d2, PHI_D2),
                               ("phi'''", d3, PHI_D3)):
        if len(formal) != len(hard):
            raise CoefficientMismatch(
                f"{name}: degree {len(hard) - 1} hardcoded vs {len(formal) - 1} formal")
        for k, (f, h) in enumerate(zip(formal, hard)):
            if f != h:
                raise CoefficientMismatch(
                    f"{name}: coefficient of x^{k} is {h}, formal derivative gives {f}")


def _polyvals(t, coefficient_lists):
    return tuple(npoly.polyval(t, c) for c in coefficient_lists)


def velocity_fields(fx, fy):
    """(u1, u2, d u1/dx, d u1/dy, d u2/dx, d u2/dy) of u = (A B', -A' B)
    from the x-factors (A, A', A'') and the y-factors (B, B', B'')."""
    a, da, d2a = fx
    b, db, d2b = fy
    return a * db, -da * b, da * db, a * d2b, -d2a * b, -da * db


def _resolvent_data(lam, fx, fy):
    """u* = lam u - (1/2) Laplace u from the x-factors (A, A', A'', A''')
    and the y-factors (B, B', B'', B''')."""
    a, da, d2a, d3a = fx
    b, db, d2b, d3b = fy
    u1 = lam * a * db - 0.5 * (d2a * db + a * d3b)
    u2 = -lam * da * b + 0.5 * (d3a * b + da * d2b)
    return u1, u2


@dataclass
class ManufacturedCase:
    """Closed-form exact solution and resolvent data of the benchmark.

    Exact fields: u = (A(x) B'(y), -A'(x) B(y)) with A = B = phi,
    w = z = 0, pi = 0.  Data: u* = lam u - (1/2) Laplace(u), w* = z* = 0.
    """

    shift: float
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray
    # formal derivatives of the expanded phi: independent evaluation route
    dphi_formal: np.ndarray
    d2phi_formal: np.ndarray
    d3phi_formal: np.ndarray

    def factors(self, t):
        """(phi, phi', phi'') at the coordinates t, from the formal lists."""
        return _polyvals(t, (self.phi, self.dphi_formal, self.d2phi_formal))

    def velocity_and_gradient(self, x, y):
        """(u1, u2, d u1/dx, d u1/dy, d u2/dx, d u2/dy), with each of the
        six 1-D factors A, A', A'' at x and B, B', B'' at y evaluated once."""
        return velocity_fields(self.factors(x), self.factors(y))

    def velocity(self, x, y):
        return self.velocity_and_gradient(x, y)[:2]

    def velocity_gradient(self, x, y):
        """Components (d u1/dx, d u1/dy, d u2/dx, d u2/dy)."""
        return self.velocity_and_gradient(x, y)[2:]

    def pressure(self, x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    def data(self, x, y):
        """u* from the hardcoded derivative lists."""
        hard = (self.phi, self.dphi, self.d2phi, self.d3phi)
        return _resolvent_data(self.shift, _polyvals(x, hard), _polyvals(y, hard))


def manufactured_case(shift: float) -> ManufacturedCase:
    """Construct and verify the benchmark case (raises on any coefficient
    mismatch between the hardcoded lists and the formal derivatives)."""
    if not shift > 0:
        raise ValueError(f"shift must be positive, got {shift}")
    expanded = phi_coefficients()
    _check_lists(expanded)
    as_float = lambda fr: np.array([float(c) for c in fr])
    d1 = _poly_diff(expanded)
    d2 = _poly_diff(d1)
    d3 = _poly_diff(d2)
    return ManufacturedCase(
        shift=shift,
        phi=as_float(expanded),
        dphi=as_float(PHI_D1),
        d2phi=as_float(PHI_D2),
        d3phi=as_float(PHI_D3),
        dphi_formal=as_float(d1),
        d2phi_formal=as_float(d2),
        d3phi_formal=as_float(d3),
    )


def perturbed_case(case: ManufacturedCase, which: str, index: int, delta: float):
    """Copy of `case` with one hardcoded coefficient nudged (fault injection)."""
    arr = getattr(case, which).copy()
    arr[index] += delta
    return replace(case, **{which: arr})


def _halton(n, base):
    out = np.empty(n)
    for k in range(n):
        f, r, i = 1.0, 0.0, k + 1
        while i > 0:
            f /= base
            r += f * (i % base)
            i //= base
        out[k] = r
    return out


def fluid_sample_points(count=1000):
    """Quasi-random (Halton) points of the fluid region."""
    n_raw = int(count * 1.6) + 32
    x = _halton(n_raw, 2)
    y = _halton(n_raw, 3)
    inside_solid = (x >= 1/3) & (x <= 2/3) & (y >= 1/3) & (y <= 2/3)
    x, y = x[~inside_solid], y[~inside_solid]
    while x.size < count:   # top up, the rejection rate is only 1/9
        n_raw *= 2
        x = _halton(n_raw, 2)
        y = _halton(n_raw, 3)
        inside_solid = (x >= 1/3) & (x <= 2/3) & (y >= 1/3) & (y <= 2/3)
        x, y = x[~inside_solid], y[~inside_solid]
    return x[:count], y[:count]


def verify_data_identity(case: ManufacturedCase, count=1000) -> float:
    """Max residual of lam u - (1/2) Laplace u - u* at quasi-random points.

    Both sides use the u* formula of `ManufacturedCase.data`: the left side
    with the formal derivatives of the expanded phi, the right side with
    the hardcoded lists, so a transcription typo shows up as a nonzero
    residual.  For divergence-free u, div(eps(u)) = Laplace(u)/2,
    which also certifies that the exact pressure is identically zero.
    """
    x, y = fluid_sample_points(count)
    formal = (case.phi, case.dphi_formal, case.d2phi_formal, case.d3phi_formal)
    lhs1, lhs2 = _resolvent_data(case.shift, _polyvals(x, formal),
                                 _polyvals(y, formal))
    rhs1, rhs2 = case.data(x, y)
    return float(max(np.abs(lhs1 - rhs1).max(), np.abs(lhs2 - rhs2).max()))


def manufactured_data(space, case: ManufacturedCase) -> solver.ResolventData:
    return solver.data_from_field(space, case.data)


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorNorms:
    """Errors against the exact fields; `ew_h1` is the solid energy norm
    sqrt((sigma(e), eps(e)) + ||e||^2); the full-H1 and eps-seminorm
    variants are reported alongside."""

    eu_h1: float
    epi_l2: float
    ew_h1: float
    eu_seminorm: float
    ew_h1_full: float


def _class_tables(space, case, rule, tris):
    """For x and then y: the quadrature coordinate and the 1-D exact
    factors (A, A', A'') at the rule's points of one representative
    triangle per coordinate class, and the class of every triangle.

    The x of a quadrature point depends only on the x of the triangle's
    three vertices, and likewise for y.  So the triangles are grouped by
    the bits of their vertex x-triples and, separately, of their
    y-triples, and a class's row gathered back is bitwise the per-point
    value.  On a mesh without repeated coordinates every triangle is its
    own class."""
    verts = space.mesh.vertices[space.mesh.triangles[tris]]
    tables = []
    for axis in (0, 1):
        first, cls = sla.bit_classes(verts[..., axis])
        coord = fem.quadrature_coordinate(space, tris[first], rule, axis)
        tables.append((coord, case.factors(coord), cls))
    return tables


def _fluid_error_squares(space, u, pi, case, rule, tris):
    """Squared L2, full-gradient, eps and pressure errors on `tris`.

    The four integrands w det (...) are formed in row blocks of
    `_ERROR_NORM_BLOCK` triangles, whose (triangle x point) temporaries
    stay in cache, and written to four (nt, nq) tables; each table is
    summed once, so the block size does not change a bit.  Each integrand
    is bitwise that of the per-point formula with the exact fields
    u = (A B', -A' B): negation is exact, so u2 - (-(A' B)) is
    u2 + A' B, d u2/dx - (-(A'' B)) is d u2/dx + A'' B, and
    d u2/dy = -(A' B') = -d u1/dx."""
    det, inv = fem._tri_geometry(space, tris)
    (x, fx, x_cls), (y, fy, y_cls) = _class_tables(space, case, rule, tris)
    dofs = space.velocity_dofs_of_tris(tris)
    cx = u[dofs[:, 0::2]]
    cy = u[dofs[:, 1::2]]
    cp = pi[space.pressure_loc[space.mesh.triangles[tris]]]
    n = fem.p2_values(rule.points).T                 # (6, nq)
    # d/dx_a = d/dxi inv[0, a] + d/deta inv[1, a], affine on each triangle
    gref = fem.p2_grads(rule.points)                 # (nq, 6, 2)
    g_xi, g_eta = gref[..., 0].T, gref[..., 1].T
    p1 = fem.p1_values(rule.points).T

    def product(c, m, s):
        """Rows s of c @ m.  numpy hands a one-row product to gemv, whose
        sums can differ from GEMM's in the last bit, so one row of a
        taller c is taken from a two-row GEMM."""
        if s.stop - s.start == 1 < len(c):
            lo = min(s.start, len(c) - 2)
            return (c[lo:lo + 2] @ m)[s.start - lo, None]
        return c[s] @ m

    def gradient(c, s):
        """(d/dx, d/dy) on the rows s of the discrete field with
        coefficients c."""
        r_xi, r_eta = product(c, g_xi, s), product(c, g_eta, s)
        d_dx = r_xi * inv[s, 0, 0, None]
        d_dx += r_eta * inv[s, 1, 0, None]
        r_xi *= inv[s, 0, 1, None]
        r_eta *= inv[s, 1, 1, None]
        r_xi += r_eta
        return d_dx, r_xi

    squares = np.empty((4, tris.size, rule.weights.size))
    l2, grad, eps, pres = squares
    for start in range(0, tris.size, _ERROR_NORM_BLOCK):
        s = slice(start, min(start + _ERROR_NORM_BLOCK, tris.size))
        a, da, d2a = (f[x_cls[s]] for f in fx)
        b, db, d2b = (f[y_cls[s]] for f in fy)
        wdet = rule.weights * det[s, None]

        e_x = product(cx, n, s)
        e_x -= a * db
        e_y = product(cy, n, s)
        e_y += da * b
        e_x *= e_x
        e_y *= e_y
        e_x += e_y
        np.multiply(wdet, e_x, out=l2[s])

        dadb = da * db                               # d u1/dx = -d u2/dy
        e11, e12 = gradient(cx, s)
        e21, e22 = gradient(cy, s)
        e11 -= dadb
        e12 -= a * d2b
        e21 += d2a * b
        e22 += dadb
        eps12 = e12 + e21
        eps12 *= 0.5
        eps12 *= eps12
        eps12 *= 2.0
        for e in (e11, e12, e21, e22):
            e *= e
        e12 += e11                                   # e11^2 + e12^2: + commutes
        e12 += e21
        e12 += e22
        np.multiply(wdet, e12, out=grad[s])
        e11 += e22
        e11 += eps12
        np.multiply(wdet, e11, out=eps[s])

        e_p = product(cp, p1, s)
        e_p -= case.pressure(x[x_cls[s]], y[y_cls[s]])
        e_p *= e_p
        np.multiply(wdet, e_p, out=pres[s])
    return np.array([np.sum(table) for table in squares])


# Fluid triangles per batch of the error-norm quadrature.  The batches fix
# the order of the sums, and the four (triangle x point) integrand tables
# of the degree-38 rule take about 13 MB, so the batch loop needs a few
# tens of MB whatever the mesh level.
ERROR_NORM_CHUNK = 1024
# Triangles per row block inside a batch: each (triangle x point)
# temporary then takes about 400 KB, so a block's passes run from cache.
_ERROR_NORM_BLOCK = 128


def error_norms(space, state, pi, case: ManufacturedCase,
                params: MaterialParams) -> ErrorNorms:
    """Errors of (state, pi) against the exact fields of `case`; the
    solid energy norm uses the Lame moduli of `params`.

    The fluid integrals are summed chunk by chunk over at most
    `ERROR_NORM_CHUNK` fluid triangles; the chunks fix the order of the
    sums.  In each chunk the exact fields come from 1-D factors evaluated
    once per class of equal vertex x-triples and once per class of equal
    vertex y-triples (`_class_tables`), bitwise the per-point values.  A
    level-4 mesh has 2 816 x-classes and 208 y-classes, summed over
    chunks, against 16 384 fluid triangles.  Building the classes per
    chunk keeps memory bounded on any mesh.  Inside a chunk the four
    integrands are formed in row blocks of `_ERROR_NORM_BLOCK` triangles,
    whose temporaries stay in cache, and each chunk's integrand table is
    summed once, so every sum is bitwise that of the unblocked formula.
    Reference derivatives of the discrete velocity come from one matrix
    product per component and reference direction, and each triangle's
    affine inverse Jacobian maps them to physical ones, so no (triangle x
    point x basis) gradient tensor is built."""
    rule = fem.triangle_rule(fem.ERROR_QUAD_DEGREE)
    fluid = space.fluid_tris
    squares = np.zeros(4)
    for start in range(0, fluid.size, ERROR_NORM_CHUNK):
        squares += _fluid_error_squares(space, state.u, pi, case, rule,
                                        fluid[start:start + ERROR_NORM_CHUNK])
    l2_sq, grad_sq, eps_sq, pi_sq = squares

    # exact solid fields are identically zero: the Gram quadratic forms are
    # exact (polynomial integrands within the degree-6 rule)
    sops = fem.solid_operators(space, params)
    ew = state.w
    ew_energy_sq = ew @ (sops.energy @ ew)
    ew_full_sq = ew @ ((sops.grad + sops.mass) @ ew)

    return ErrorNorms(
        eu_h1=math.sqrt(l2_sq + grad_sq),
        epi_l2=math.sqrt(max(pi_sq, 0.0)),
        ew_h1=math.sqrt(max(ew_energy_sq, 0.0)),
        eu_seminorm=math.sqrt(max(eps_sq, 0.0)),
        ew_h1_full=math.sqrt(max(ew_full_sq, 0.0)),
    )


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    level: int
    elements: int
    hypotenuse: float
    eu_h1: float = math.nan
    epi_l2: float = math.nan
    ew_h1: float = math.nan
    eu_seminorm: float = math.nan
    ew_h1_full: float = math.nan
    failed: str | None = None
    # relative residual of the level's resolvent solve; not part of the CSV
    solve_residual: float = math.nan


def _rate(e_coarse, e_fine):
    if e_coarse > RATE_FLOOR and e_fine > RATE_FLOOR:
        return math.log(e_coarse / e_fine) / math.log(2.0)
    return None


@dataclass
class ConvergenceReport:
    rows: list
    note: str = ("hypotenuse lengths follow exact halving of sqrt(2)/6; "
                 "published tables list one non-halved value in row 5, "
                 "which this study does not reproduce")

    def rates(self, column):
        vals = [getattr(r, column) for r in self.rows]
        return [_rate(vals[k], vals[k + 1])
                if self.rows[k].failed is None and self.rows[k + 1].failed is None
                else None
                for k in range(len(vals) - 1)]

    @property
    def fluid_rates(self):
        return self.rates("eu_h1")

    @property
    def pressure_rates(self):
        return self.rates("epi_l2")

    @property
    def solid_rates(self):
        return self.rates("ew_h1")

    def convergence_csv(self):
        lines = ["elements,hypotenuse,fluid_h1,pressure_l2,solid_h1,"
                 "fluid_eps_seminorm,solid_h1_full,status"]
        for r in self.rows:
            status = r.failed or "ok"
            lines.append(f"{r.elements},{r.hypotenuse!r},{r.eu_h1!r},{r.epi_l2!r},"
                         f"{r.ew_h1!r},{r.eu_seminorm!r},{r.ew_h1_full!r},{status}")
        return "\n".join(lines) + "\n"

    def rates_csv(self):
        fmt = lambda v: "—" if v is None else repr(v)
        lines = ["pair,fluid_h1,pressure_l2,solid_h1"]
        for k, (f, p, s) in enumerate(zip(self.fluid_rates, self.pressure_rates,
                                          self.solid_rates)):
            lines.append(f"mesh{k + 1}/mesh{k + 2},{fmt(f)},{fmt(p)},{fmt(s)}")
        return "\n".join(lines) + "\n"


def convergence_study(levels, params: MaterialParams) -> ConvergenceReport:
    """Solve the manufactured case on each level and tabulate errors/rates."""
    if list(levels) != sorted(set(levels)):
        raise ValueError("levels must be ascending and distinct")
    case = manufactured_case(params.shift)
    residual = verify_data_identity(case)
    if residual > 1e-12:
        raise RuntimeError(f"manufactured data identity residual {residual:.3e} "
                           "exceeds 1e-12; refusing to run the study")
    rows = []
    for level in levels:
        msh = meshmod.generate(level)
        row = ConvergenceRow(level=level, elements=msh.num_triangles,
                             hypotenuse=msh.hypotenuse)
        try:
            space = fem.build_space(msh)
            data = manufactured_data(space, case)
            state, report = solver.solve_resolvent(space, params, data)
            row.solve_residual = report.residual
            err = error_norms(space, state, state.pi, case, params)
            row.eu_h1, row.epi_l2, row.ew_h1 = err.eu_h1, err.epi_l2, err.ew_h1
            row.eu_seminorm, row.ew_h1_full = err.eu_seminorm, err.ew_h1_full
        # numeric failures give a partial report with the level marked;
        # anything else is a programming error and propagates
        except (sla.SingularMatrixError, sla.SolveAccuracyError, MemoryError) as exc:
            row.failed = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return ConvergenceReport(rows=rows)


# ---------------------------------------------------------------------------
# inf-sup study
# ---------------------------------------------------------------------------

@dataclass
class InfSupRow:
    level: int
    hypotenuse: float
    beta: float


@dataclass
class InfSupReport:
    rows: list
    convention: str = "velocity Gram |phi|_1 = ||eps(phi)||_0, pressure mass M_p"

    @property
    def spread(self):
        betas = [r.beta for r in self.rows]
        return (max(betas) - min(betas)) / max(betas)

    def csv(self):
        lines = ["level,hypotenuse,beta_h"]
        for r in self.rows:
            lines.append(f"{r.level},{r.hypotenuse!r},{r.beta!r}")
        return "\n".join(lines) + "\n"


def _infsup_blocks(space):
    fops = fem.fluid_operators(space)
    free = space.free_velocity_dofs
    k = fops.strain[free][:, free].tocsr()
    b = fops.div[:, free].tocsr()
    return k, b, fops.pressure_mass


def pressure_schur_complement(space):
    """Explicit dense S = B K^{-1} B^T in the eps-seminorm convention
    (oracle-sized helper; K is inverted column by column)."""
    k, b, _ = _infsup_blocks(space)
    x, _ = sla.factorize(k).solve(b.T.toarray())
    s = b @ x
    return 0.5 * (s + s.T)


def infsup_beta(space) -> float:
    """Discrete inf-sup constant: sqrt of the smallest eigenvalue of
    B K^{-1} B^T q = beta^2 M_p q, by Lanczos against M_p.  Only the SPD
    free-velocity block K is factorized; each Schur apply is one checked
    K solve, and no saddle matrix is built.  Because beta_h does not
    depend on the mesh, S is spectrally equivalent to M_p uniformly in h
    and the number of applies does not grow with the level."""
    k, b, mp = _infsup_blocks(space)
    k_factor = sla.factorize(k)
    schur = spla.LinearOperator(
        mp.shape, dtype=float,
        matvec=lambda q: b @ k_factor.solve(b.T @ q)[0])
    value, _ = sla.smallest_gen_eig(schur, mp)
    return math.sqrt(value)


def infsup_study(levels) -> InfSupReport:
    if list(levels) != sorted(set(levels)):
        raise ValueError("levels must be ascending and distinct")
    rows = []
    for level in levels:
        msh = meshmod.generate(level)
        space = fem.build_space(msh)
        try:
            beta = infsup_beta(space)
        except sla.EigenIterationError as err:
            raise RuntimeError(f"inf-sup eigensolve failed at level {level}: {err}") from err
        if beta <= 0:
            raise RuntimeError(f"nonpositive inf-sup constant at level {level}")
        rows.append(InfSupRow(level=level, hypotenuse=msh.hypotenuse, beta=beta))
    return InfSupReport(rows=rows)
