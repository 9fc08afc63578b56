"""Manufactured-solution study: exact fields, data, error norms,
convergence rates, and the discrete inf-sup constant.

The exact velocity is built from the stream function psi(x, y) =
A(x) B(y) with A = B = phi, phi(x) = x^2 (1-x)^2 (x-1/3)^3 (2/3-x)^3, so
u = (A B', -A' B) is divergence-free, vanishes to second order on both
boundaries, and solves the fluid resolvent equation with pressure
identically zero; the solid fields are identically zero.  phi is expanded
once from its factored form in exact rationals, and phi', phi'' and
phi''' are its exact derivatives, each rounded once to floats.  The data
identity checks u* against a second, two-dimensional derivation of
lam u - (1/2) Laplace u that shares no code with it.  The error norms
integrate only the one nonzero exact field, u, by quadrature; the errors
of the zero fields pi and w are Gram forms of the discrete fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import fem, helper
from . import mesh as meshmod
from . import solver
from . import sparse as sla
from .fem import MaterialParams

RATE_FLOOR = 1e-15
# the largest `verify_data_identity` residual a study or a resolvent run
# accepts as the manufactured case's data
DATA_IDENTITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# phi and its derivatives, exact arithmetic
# ---------------------------------------------------------------------------

def phi_coefficients(x=(Fraction(0), Fraction(1))):
    """Exact ascending coefficients of x^2 (1-x)^2 (x-1/3)^3 (2/3-x)^3,
    where x is itself an exact polynomial: the default gives phi in powers
    of x, and x = (1/2, 1) gives it in powers of x - 1/2."""
    x = np.array(x, dtype=object)
    factors = ((x, 2), (npoly.polysub([Fraction(1)], x), 2),
               (npoly.polysub(x, [Fraction(1, 3)]), 3),
               (npoly.polysub([Fraction(2, 3)], x), 3))
    return reduce(npoly.polymul, (npoly.polypow(f, k) for f, k in factors))


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
    `phi`, `dphi`, `d2phi` and `d3phi` hold ascending float coefficients.
    """

    shift: float
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray

    def factors(self, t):
        """(phi, phi', phi'') at the coordinates t."""
        return _polyvals(t, (self.phi, self.dphi, self.d2phi))

    def velocity_and_gradient(self, x, y):
        """(u1, u2, d u1/dx, d u1/dy, d u2/dx, d u2/dy), with each of the
        six 1-D factors A, A', A'' at x and B, B', B'' at y evaluated once."""
        return velocity_fields(self.factors(x), self.factors(y))

    def velocity(self, x, y):
        return self.velocity_and_gradient(x, y)[:2]

    def data_factors(self, t):
        """(phi, phi', phi'', phi''') at the coordinates t."""
        return _polyvals(t, (self.phi, self.dphi, self.d2phi, self.d3phi))

    def data(self, x, y):
        """u* from the separable factors of `data_factors`."""
        return _resolvent_data(self.shift, self.data_factors(x), self.data_factors(y))


def manufactured_case(shift: float) -> ManufacturedCase:
    """The benchmark case: phi and its first three derivatives, exact in
    rationals, each rounded once to floats."""
    if not (math.isfinite(shift) and shift > 0):
        raise ValueError(f"shift must be positive and finite, got {shift}")
    exact = phi_coefficients()
    phi, dphi, d2phi, d3phi = (npoly.polyder(exact, k).astype(float)
                               for k in range(4))
    return ManufacturedCase(shift=shift, phi=phi, dphi=dphi, d2phi=d2phi,
                            d3phi=d3phi)


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


def fluid_sample_points():
    """The first 1 000 points of the Halton sequence in bases 2 and 3 that
    lie in the fluid region; 1 451 of its first 1 632 points do."""
    x, y = _halton(1632, 2), _halton(1632, 3)
    fluid = ~((x >= 1/3) & (x <= 2/3) & (y >= 1/3) & (y <= 2/3))
    return x[fluid][:1000], y[fluid][:1000]


def verify_data_identity(case: ManufacturedCase) -> float:
    """Largest difference between `case.data` and lam u - (1/2) Laplace u
    at 1 000 quasi-random fluid points, divided by max(1, lam).

    The reference shares no code with `case.data`: psi = phi(x) phi(y) is
    expanded about (1/2, 1/2) in exact rationals, u = (d psi/dy, -d psi/dx)
    and Laplace u come from `polyder` along each axis of its 2-D
    coefficient array, and lam u - (1/2) Laplace u is rounded once and
    evaluated with `polyval2d`.  In plain powers of x that evaluation
    cancels to 4.9e-12 at lam = 1; about 1/2 it does not.  The rounding
    of the lam u term grows as 6.1e-19 lam, hence the division.  For
    divergence-free u, div(eps(u)) = Laplace(u)/2, which also certifies
    that the exact pressure is identically zero.
    """
    p = phi_coefficients((Fraction(1, 2), Fraction(1)))
    psi = np.multiply.outer(p, p)
    lam = Fraction(case.shift)
    x, y = fluid_sample_points()
    worst = 0.0
    for u, got in zip((npoly.polyder(psi, axis=1), -npoly.polyder(psi, axis=0)),
                      case.data(x, y)):
        laplace = np.full(u.shape, Fraction(0), dtype=object)
        for axis in (0, 1):
            d2 = npoly.polyder(u, 2, axis=axis)
            laplace[:d2.shape[0], :d2.shape[1]] += d2
        exact = (lam * u - laplace / 2).astype(float)
        ref = npoly.polyval2d(x - 0.5, y - 0.5, exact)
        worst = max(worst, float(np.abs(got - ref).max()))
    return worst / max(1.0, case.shift)


def manufactured_data(space, case: ManufacturedCase) -> solver.ResolventData:
    """Resolvent data with the fluid load of u* (`ManufacturedCase.data`,
    its factors evaluated once per coordinate class) and zero solid data."""
    load = fem.assemble_fluid_load(space, case.data_factors,
                                   partial(_resolvent_data, case.shift))
    return solver.ResolventData(load, np.zeros(space.num_solid_dofs),
                                np.zeros(space.num_solid_dofs))


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorNorms:
    """Errors against the exact fields; `ew_h1` is the solid energy norm
    sqrt((sigma(e), eps(e)) + ||e||^2); the full-H1 and eps-seminorm
    variants are reported alongside.  The exact pressure and solid fields
    are zero, so `epi_l2`, `ew_h1` and `ew_h1_full` are norms of the
    discrete fields themselves."""

    eu_h1: float
    epi_l2: float
    ew_h1: float
    eu_seminorm: float
    ew_h1_full: float


def _fluid_error_squares(space, u, case, rule, tris, table):
    """Squared L2, full-gradient and eps velocity errors on `tris`.

    The three integrands w det (...) are formed in row blocks of
    `_ERROR_NORM_BLOCK` triangles, whose (triangle x point) temporaries
    stay in cache, and written to the caller's (3, nt, nq) `table`, which
    no other chunk in flight uses; each of the three planes is summed once,
    so the block size changes no bit.  The exact u and its gradient come
    from `velocity_fields` on each block's gathered class factors, so
    each integrand is bitwise that of the per-point formula."""
    det, inv = fem._tri_geometry(space, tris)
    (fx, x_cls), (fy, y_cls) = fem.class_factors(space, tris, rule, case.factors)
    dofs = space.velocity_dofs_of_tris(tris)
    cx = u[dofs[:, 0::2]]
    cy = u[dofs[:, 1::2]]
    n = fem.p2_values(rule.points).T                 # (6, nq)
    # d/dx_a = d/dxi inv[0, a] + d/deta inv[1, a], affine on each triangle
    gref = fem.p2_grads(rule.points)                 # (nq, 6, 2)
    g_xi, g_eta = gref[..., 0].T, gref[..., 1].T

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

    l2, grad, eps = table
    for start in range(0, tris.size, _ERROR_NORM_BLOCK):
        s = slice(start, min(start + _ERROR_NORM_BLOCK, tris.size))
        u1, u2, *exact_grad = velocity_fields(
            tuple(f[x_cls[s]] for f in fx), tuple(f[y_cls[s]] for f in fy))
        wdet = rule.weights * det[s, None]

        e_x = product(cx, n, s)
        e_x -= u1
        e_y = product(cy, n, s)
        e_y -= u2
        e_x *= e_x
        e_y *= e_y
        e_x += e_y
        np.multiply(wdet, e_x, out=l2[s])

        e11, e12 = gradient(cx, s)
        e21, e22 = gradient(cy, s)
        for e, exact in zip((e11, e12, e21, e22), exact_grad):
            e -= exact
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
    return np.array([np.sum(plane) for plane in table])


# Fluid triangles per chunk of the error-norm quadrature.  The chunks fix
# the order of the sums, and the three (triangle x point) integrand tables
# of a chunk take about 5.4 MB under the 220-point rules of the generated
# meshes (9.8 MB under the 400-point rule), so the chunk loop needs a few
# tens of MB whatever the mesh level.
ERROR_NORM_CHUNK = 1024
# Triangles per row block inside a chunk: each (triangle x point)
# temporary then takes about 225 KB (410 KB under the 400-point rule), so
# a block's passes run from cache.  A block makes dozens of numpy calls,
# and the lock hand-offs between them bound what the helper thread gains:
# at level 4 the norms take 0.14-0.20 s with 128-row blocks and 0.16-0.23
# s with 64-row ones, against 0.21-0.22 s without the helper (medians of 9
# calls in each of 9 fresh processes, 2-core VM).  With two chunks in
# flight the level-3 norms trace a 23.3-24.0 MB peak (18.0-18.2 MB with
# 64-row blocks); the block size changes no bit.
_ERROR_NORM_BLOCK = 128


def _error_rule_groups(space, tris):
    """(rule, triangles) pairs that cover `tris`, in a fixed order: first
    the triangles whose apex is vertex 0, 1 and 2, each with the
    220-point rule collapsed onto that apex, then those with no
    axis-parallel side, with the 400-point rule.

    A triangle's apex is its first vertex whose opposite side is
    axis-parallel, tested bitwise: the two ends of the side have equal x
    or equal y.  The squared errors have degree `fem.ERROR_QUAD_DEGREE` in
    total but only `fem.ERROR_AXIS_DEGREE` in x and in y, so along such a
    side they have degree `fem.ERROR_AXIS_DEGREE`, which the collapsed
    rule integrates exactly with 11 points instead of 20.  Groups with no
    triangle are left out."""
    v = space.mesh.vertices[space.mesh.triangles[tris]]          # (nt, 3, 2)
    parallel = np.stack([np.any(v[:, (k + 1) % 3] == v[:, (k + 2) % 3], axis=1)
                         for k in range(3)], axis=1)             # (nt, 3)
    apex = np.where(parallel.any(axis=1), parallel.argmax(axis=1), 3)
    rules = [fem.triangle_rule(fem.ERROR_QUAD_DEGREE, fem.ERROR_AXIS_DEGREE, k)
             for k in range(3)] + [fem.triangle_rule(fem.ERROR_QUAD_DEGREE)]
    return [(rule, tris[apex == k]) for k, rule in enumerate(rules)
            if np.any(apex == k)]


def error_norms(space, state, pi, case: ManufacturedCase,
                params: MaterialParams) -> ErrorNorms:
    """Errors of (state, pi) against the exact fields of `case`; the
    solid energy norm uses the Lame moduli of `params`.

    Only the exact velocity is nonzero, so only the velocity errors are
    integrated by quadrature.  The pressure error is pi^T M_p pi with the
    cached pressure mass, the solid energy error w^T (K + M) w, and the
    solid full-H1 error w^T G w + w^T M w, two Gram products with the
    solid gradient and mass matrices; each Gram matrix is exact for its
    polynomial integrand.

    The velocity integrals are exact: each group of `_error_rule_groups`
    takes its own rule, 220 points per triangle on a triangle with an
    axis-parallel side, which every triangle of the generated meshes has,
    and 400 on any other.  Each group is summed chunk by chunk over at most
    `ERROR_NORM_CHUNK` fluid triangles; the groups and chunks fix the order
    of the sums.  In each chunk the exact fields come from 1-D factors
    evaluated once per class of equal vertex x-triples and once per class
    of equal vertex y-triples (`fem.class_factors`), bitwise the per-point
    values.  A level-4 mesh has 1 824 x-classes and 310 y-classes, summed
    over chunks, against 16 384 fluid triangles.  Building the classes per
    chunk keeps memory bounded on any mesh.  Inside a chunk the three
    integrands are formed in row blocks of `_ERROR_NORM_BLOCK` triangles,
    whose temporaries stay in cache, and each chunk's integrand table is
    summed once, so every sum is bitwise that of the unblocked formula.
    Reference derivatives of the discrete velocity come from one matrix
    product per component and reference direction, and each triangle's
    affine inverse Jacobian maps them to physical ones, so no (triangle x
    point x basis) gradient tensor is built.

    The chunks go in pairs.  For each pair the call submits the odd
    chunk 2j + 1 to the helper thread (`helper.thread`), pinned off the
    caller's CPU and living only inside this call, evaluates the even
    chunk 2j itself, then joins the odd one, so two chunks at most are in
    flight; numpy releases the GIL inside the products, ufuncs and gathers
    of each block.  An odd chunk the helper has not started by the join is
    taken back and evaluated by the caller; without a second CPU every
    odd chunk runs inline at its submission.  One helper is a fixed design
    constant, not a setting: each of the two chunks of a pair has its own
    integrand table, allocated here for the largest chunk (5.4 MB on the
    generated meshes), so a call of two or more chunks holds two tables,
    with or without the helper.  Each chunk's three sums are kept and added
    in chunk order once all pairs are done, so every norm is bitwise that
    of the serial loop.  An exception in either chunk of a pair propagates
    with its own type, at the latest at that pair's join, and no later
    chunk starts."""
    chunks = [(rule, tris[start:start + ERROR_NORM_CHUNK])
              for rule, tris in _error_rule_groups(space, space.fluid_tris)
              for start in range(0, tris.size, ERROR_NORM_CHUNK)]
    sums = [None] * len(chunks)

    def evaluate(k, table):
        rule, tris = chunks[k]
        squares = table[:3 * tris.size * rule.weights.size].reshape(3, tris.size, -1)
        sums[k] = _fluid_error_squares(space, state.u, case, rule, tris, squares)

    # both tables are allocated on this thread: a table that the helper
    # allocated in its own malloc arena raised the peak RSS of the
    # levels 0-4 study by 12 MB (2-core VM)
    with helper.thread(len(chunks)) as submit:
        size = max(3 * tris.size * rule.weights.size for rule, tris in chunks)
        tables = [np.empty(size) for _ in chunks[:2]]
        for k in range(0, len(chunks), 2):
            join = (submit(partial(evaluate, k + 1, tables[1]))
                    if k + 1 < len(chunks) else lambda: None)
            evaluate(k, tables[0])
            join()
    l2_sq, grad_sq, eps_sq = reduce(np.add, sums, np.zeros(3))

    pi_sq = sla.dot(pi, fem.fluid_operators(space).pressure_mass @ pi)
    sops = fem.solid_operators(space, params)
    ew = state.w
    ew_energy_sq = sla.dot(ew, sops.energy @ ew)
    ew_full_sq = sla.dot(ew, sops.grad @ ew) + sla.dot(ew, sops.mass @ ew)

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


def check_levels(levels):
    """Refuse levels that are none, or not ascending and distinct; the
    CLI's check of `--levels` too."""
    if not levels:
        raise ValueError("levels must contain at least one entry")
    if list(levels) != sorted(set(levels)):
        raise ValueError(f"levels must be ascending and distinct, got {levels}")


def convergence_study(levels, params: MaterialParams) -> ConvergenceReport:
    """Solve the manufactured case on each level and tabulate errors/rates."""
    check_levels(levels)
    case = manufactured_case(params.shift)
    residual = verify_data_identity(case)
    if residual > DATA_IDENTITY_TOL:
        raise RuntimeError(f"manufactured data identity residual {residual:.3e} "
                           f"exceeds {DATA_IDENTITY_TOL:.0e}; refusing to run the study")
    rows = []
    for level in levels:
        msh = meshmod.generate(level)
        row = ConvergenceRow(level=level, elements=msh.num_triangles,
                             hypotenuse=msh.hypotenuse)
        try:
            space = fem.build_space(msh)
            data = manufactured_data(space, case)
            # the level's one solve, through an operator no cache keeps: its
            # factor is freed before the error norms, which read none of it
            op = solver.ResolventOperator(space, params)
            state, report = op.solve(data)
            del op
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

    @property
    def spread(self):
        betas = [r.beta for r in self.rows]
        return (max(betas) - min(betas)) / max(betas)


def infsup_beta(space) -> float:
    """Discrete inf-sup constant: sqrt of the smallest eigenvalue of
    B K^{-1} B^T q = beta^2 M_p q, by Lanczos against M_p.  Only the SPD
    free-velocity block K and M_p are factorized, each in the
    nested-dissection order of its nodes; each Schur apply is one checked
    K solve, and no saddle matrix is built.  Neither factor's pivots are
    tested: K is SPD by Korn's inequality, since the velocity vanishes on
    Gamma_f, which every valid mesh has, and M_p by its positive triangle
    areas (`smallest_gen_eig`).  Because beta_h does not
    depend on the mesh, S is spectrally equivalent to M_p uniformly in h,
    and Lanczos from the constant pressure, to which the smallest mode
    has M_p-cosine 0.96-0.97 (the weak c0 mode), stops at its first
    certified pair after a number of applies that levels off: 23, 29,
    31, 32 and 32 at levels 0-4, the check included."""
    fops = fem.fluid_operators(space)
    k = solver.free_velocity_block(space, fops.strain)
    b = solver.free_divergence(space)
    mp = fops.pressure_mass
    k_xy = solver.velocity_coordinates(space, space.free_velocity_dofs)
    k_factor = sla.factorize(k, k_xy)
    value, _ = sla.smallest_gen_eig(lambda q: b @ k_factor.solve(b.T @ q)[0], mp,
                                    solver.pressure_coordinates(space))
    return math.sqrt(value)


def infsup_study(levels) -> InfSupReport:
    check_levels(levels)
    rows = []
    for level in levels:
        msh = meshmod.generate(level)
        space = fem.build_space(msh)
        try:
            beta = infsup_beta(space)
        except sla.EigenIterationError as err:
            raise sla.EigenIterationError(
                f"inf-sup eigensolve failed at level {level}: {err}",
                err.value, err.vector) from err
        if beta <= 0:
            raise RuntimeError(f"nonpositive inf-sup constant at level {level}")
        rows.append(InfSupRow(level=level, hypotenuse=msh.hypotenuse, beta=beta))
    return InfSupReport(rows=rows)
