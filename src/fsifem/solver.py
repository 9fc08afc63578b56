"""Static resolvent solves for the coupled fluid/solid system.

The paper eliminates the solid through a discrete Dirichlet map: every
interface velocity trace is extended into the solid by the shifted
elastostatic operator S = K_sigma + (lam^2 + 1) M_s, and the Schur block
(1/lam) E^T S E folded into the velocity form gives the condensed form
a_lam = A_lam + (1/lam) E^T S E of the generator.  `dirichlet_map` and
`schur_form` build that construction; the certificates read a_lam from
`schur_form`.

The solve keeps the solid interior instead of condensing it.  With the
scaled interior unknown v = lam * w_i, the resolvent is one sparse
symmetric matrix over free velocity, solid interior and pressure,

    [[A_lam + (1/lam) S_GG, (1/lam) S_Gi, B^T],
     [(1/lam) S_iG,         (1/lam) S_ii, 0  ],
     [B,                    0,            0  ]],

whose elimination of v gives back exactly a_lam.  Its one weak mode is
the constant pressure c0, which holds a displaced solid: at shift 1e-3
and Lame lambda 1e6 the nearly incompressible solid barely moves under
it, and the smallest theta of B A^-1 B^T q = theta M_p q, whose q is the
constant, falls to 1.25e-10 while the next stays above 0.12.  So the
matrix is factorized bordered against that mode, by one multiplier row
and column m = 2^-30 M_p 1 on the pressure rows, which holds the
pressure to mean zero; the exact scaling keeps SuperLU from pivoting on
the border row.  `resolvent_saddle` builds it, and the operator keeps
none of its blocks.  It is factorized in the nested-dissection order
computed from the coordinates of its unknowns (`saddle_coordinates`),
the multiplier last.  c0 then comes from the
flux equation g^T u = 0, g = B^T 1, by block elimination (T. F. Chan,
SIAM J. Sci. Stat. Comput. 5, 1984): one bordered solve for h, with
right-hand side g, at build time, and per solve one checked bordered
solve x_f and the combination c0 = mu_f / mu_h of their multipliers,
x = x_f - c0 h and pi = pi_0 + c0.  The state's residual against the
unbordered saddle is bounded from the residuals of the two bordered
solves and gated at 1e-10.  The solid displacement is
w = (u + w*)/lam on Gamma_s and
v/lam inside, and the solid velocity is z = lam * w - w*.  The
discrete-kernel projection factorizes its [[M, B^T], [B, 0]] the same way,
and the Dirichlet map its interior block S_ii, each from the coordinates
of its own unknowns (`velocity_coordinates`, `solid_coordinates`,
`pressure_coordinates`).  Only the resolvent saddle of a one-shot solve
is factorized in single precision and refined (`ResolventOperator`);
every other factor here is double.

The interface traction has one path, `interface_traction_moments`: the
Gamma_s rows of the fluid momentum residual K_eps u + lam M u + B^T pi - l
(`_momentum_residual`) and of the solid residual M_s (lam w* + z*) - S w
(`_solid_residual`).  The A5b flux check compares the two, and the c0
recovery balances them against -B^T 1, the normal moments of Gamma_s
taken from the assembled divergence.  A resolvent solution's momentum
residual vanishes on every free velocity dof off Gamma_s, so these rows
are the whole traction functional.  With w the lift w*/lam on Gamma_s
(`_solid_lift`) the solid residual is also the solid part of the solve's
right-hand side and of the dense oracle's.  The shifted solid matrix and
the resolvent operator are kept on the space, one parameter set's at a
time (`TaylorHoodSpace.cached`; the operator is keyed by its factor's
precision too): a request at another parameter set drops the held
value before building the new one, so a sweep over shifts holds one
factor, not one per shift.  The Dirichlet map keeps no factor of S_ii:
certify reads the map once, through `schur_form`.  A caller that holds
an operator keeps it across requests at other parameter sets.  A cached
operator holds no reference to its space, only the dof arrays and sizes
it reads, so no reference cycle runs through the cache: dropping the
last reference to a space frees its operators and their factors at
once, without waiting for the cyclic garbage collector.

A dense monolithic assembly of the same coupled problem (interface trial
constraint w = (1/lam)(u + w*) on Gamma_s, solid tests paired with fluid
test traces) is kept as a coarse-mesh oracle, solved by SuperLU in its
default order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from . import sparse as sla
from .fem import MaterialParams

DIV_TOL = 1e-10
TRACE_TOL = 1e-12
GAMMA_F_TOL = 1e-12
FLUX_TOL = 1e-9
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# The resolvent saddle's border is 2^-30 M_p 1, an exact scaling that only
# moves its multiplier.  SuperLU's threshold test, which swaps in a row
# when a diagonal is below 1e-3 of its column's largest entry, then never
# takes the border row, and the leading block pivots as the unbordered
# saddle does.  Unscaled, the border row was taken 80 times at level 5 at
# the default parameters, and the factor filled 272.5 M entries instead
# of 77.6 M.
_BORDER_SCALE = 2.0 ** -30


@dataclass
class FsiState:
    """Coefficient vectors of one coupled state.

    u   fluid velocity, full interleaved P2 layout, Gamma_f rows zero
    w   solid displacement, interleaved P2 layout
    z   solid velocity, interleaved P2 layout
    pi  pressure (P1 vertices), present after a resolvent solve
    """

    u: np.ndarray
    w: np.ndarray
    z: np.ndarray
    pi: np.ndarray | None = None


def random_state(space, rng) -> FsiState:
    """Random coefficients with the Gamma_f rows of u zeroed."""
    u = rng.standard_normal(space.num_velocity_dofs)
    u[space.constrained_mask] = 0.0
    return FsiState(u,
                    rng.standard_normal(space.num_solid_dofs),
                    rng.standard_normal(space.num_solid_dofs))


@dataclass
class ResolventData:
    """Right-hand side (u*, w*, z*) of the resolvent problem.

    The fluid datum is carried as its load vector l_i = (u*, phi_i) so that
    closed-form fields (integrated with the degree-12 rule) and discrete
    coefficient vectors (integrated through the mass matrix) enter the
    assembly identically.
    """

    u_load: np.ndarray
    w_star: np.ndarray
    z_star: np.ndarray


def data_from_vectors(space, u_star, w_star, z_star) -> ResolventData:
    return ResolventData(fem.fluid_mass(space) @ np.asarray(u_star, dtype=float),
                         np.asarray(w_star, dtype=float).copy(),
                         np.asarray(z_star, dtype=float).copy())


# ---------------------------------------------------------------------------
# discrete Dirichlet map
# ---------------------------------------------------------------------------

def _shifted_solid_matrix(space, params):
    """S = K_sigma + (lam^2 + 1) M_s over the full solid layout, cached on
    the space for the last parameter set asked for."""
    def build():
        ops = fem.solid_operators(space, params)
        lam = params.shift
        return fem.owned_csr(ops.stiffness + (lam * lam + 1.0) * ops.mass)

    return space.cached("solid_shifted", build, params)


def _solid_lift(iface_solid_dofs, lam, w_star):
    """The solid displacement's trace part w*/lam on Gamma_s (the solid
    dofs `iface_solid_dofs`), zero inside: a resolvent solution has
    w = (u + w*)/lam on Gamma_s."""
    lift = np.zeros(w_star.shape)
    lift[iface_solid_dofs] = w_star[iface_solid_dofs] / lam
    return lift


def _solid_residual(mass_s, s_matrix, lam, data, w):
    """Solid residual M_s (lam w* + z*) - S w over the full solid layout.

    Its Gamma_s entries are the solid traction moments <sigma(w).nu, phi_i>
    of a resolvent solution w, and with w the lift they are the solid part
    of the solve's right-hand side.  The caller passes the solid mass M_s
    and the shifted matrix S it already holds."""
    return mass_s @ (lam * data.w_star + data.z_star) - s_matrix @ w


def dirichlet_map(space, params: MaterialParams) -> np.ndarray:
    """Shifted-elastostatic extensions of the interface velocity traces.

    Column j is the solid field equal to the j-th interface basis trace on
    Gamma_s (exactly, at nodes) and discrete-harmonic inside: interior
    test functions see a zero residual of S = (lam^2+1) M + K_sigma.
    The interior block S_ii is factorized in the nested-dissection order
    of its nodes.  It is SPD for every valid mesh and material: K_sigma
    is positive semidefinite and (lam^2 + 1) M_s is SPD, so its pivots
    are bounded below and are not tested.
    """
    s_mat = _shifted_solid_matrix(space, params)
    ii = space.solid_interior_dofs
    bb = space.iface_solid_dofs
    factor = sla.factorize(s_mat[ii][:, ii], solid_coordinates(space, ii))
    interior, _ = factor.solve(-s_mat[ii][:, bb].toarray())
    columns = np.zeros((space.num_solid_dofs, bb.size))
    columns[bb, np.arange(bb.size)] = 1.0
    columns[ii] = interior
    return columns


# ---------------------------------------------------------------------------
# the resolvent operator and the discrete-kernel projection
# ---------------------------------------------------------------------------

def free_velocity_block(space, form):
    """`form`, a CSR matrix over the full velocity layout, on the free
    velocity dofs: a CSR matrix in free-dof numbering."""
    free = space.free_velocity_dofs
    return form[free][:, free]


def shifted_velocity_block(space, lam):
    """A_lam = lam M + K_eps on the free velocity dofs, CSR."""
    return free_velocity_block(space, lam * fem.fluid_mass(space)
                               + fem.fluid_operators(space).strain)


def free_divergence(space):
    """B, the divergence on the free velocity dofs, CSR."""
    return fem.fluid_operators(space).div[:, space.free_velocity_dofs]


def schur_form(space, params: MaterialParams):
    """Condensed velocity form a_lam = A_lam + (1/lam) E^T S E on the free
    velocity dofs, with A_lam = lam M + K_eps and E the Dirichlet map.

    The generator's form after the solid is eliminated; the certificates
    read it from here.  The solve never builds it (see ResolventOperator).
    """
    lam = params.shift
    e = dirichlet_map(space, params)
    a_free = shifted_velocity_block(space, lam)
    schur = (e.T @ (_shifted_solid_matrix(space, params) @ e)) / lam
    schur = 0.5 * (schur + schur.T)
    ifree = space.iface_free_dofs
    ni = ifree.size
    coupling = sp.coo_matrix(
        (schur.ravel(), (np.repeat(ifree, ni), np.tile(ifree, ni))),
        shape=a_free.shape)
    return (a_free + coupling).tocsr()


def velocity_coordinates(space, dofs):
    """The coordinates of the node of each of the velocity dofs `dofs`
    (full velocity numbering, interleaved components)."""
    return space.node_xy[space.fluid_nodes[np.asarray(dofs, dtype=np.int64) // 2]]


def solid_coordinates(space, dofs):
    """The coordinates of the node of each of the solid dofs `dofs`
    (solid numbering, interleaved components)."""
    return space.node_xy[space.solid_nodes[np.asarray(dofs, dtype=np.int64) // 2]]


def pressure_coordinates(space):
    """The coordinates of each pressure vertex, in pressure numbering."""
    return space.node_xy[space.pressure_nodes]


def saddle_coordinates(space, solid_dofs=()):
    """One coordinate row per unknown of a saddle numbering: each free
    velocity dof, then each of `solid_dofs` (solid numbering), then each
    pressure vertex.  The kernel projection numbers no solid dofs; the
    resolvent numbers the solid interior."""
    return np.vstack([velocity_coordinates(space, space.free_velocity_dofs),
                      solid_coordinates(space, solid_dofs),
                      pressure_coordinates(space)])


def _with_shape(mat, shape):
    """The CSR matrix `mat` widened to `shape`, sharing its data and
    indices: empty rows appended to its row pointer, columns added."""
    indptr = np.concatenate([mat.indptr, np.full(shape[0] - mat.shape[0],
                                                 mat.indptr[-1], mat.indptr.dtype)])
    return sp.csr_matrix((mat.data, mat.indices, indptr), shape=shape)


def _block_csr(blocks):
    """`sp.bmat(blocks, format="csr")`, bit for bit, for a grid of CSR
    blocks with sorted indices, None a zero block, each block row and
    column holding at least one block.

    Each row of the result takes its blocks' rows left to right, written
    straight into arrays of exactly the result's nnz; a block row of
    several blocks routes their entries by an int8 mask of the owning
    block, two bytes of scratch per entry.  `sp.bmat` instead copies every
    block to COO, or the blocks of each row into one array, first.
    """
    heights = [next(b.shape[0] for b in row if b is not None) for row in blocks]
    widths = [next(row[j].shape[1] for row in blocks if row[j] is not None)
              for j in range(len(blocks[0]))]
    col_start = np.cumsum([0] + widths)
    row_nnz = [[np.diff(b.indptr) for b in row if b is not None] for row in blocks]
    counts = np.concatenate([sum(row) for row in row_nnz])
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, col_start[-1]) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(counts.size + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index)
    top = 0
    for row, lengths, height in zip(blocks, row_nnz, heights):
        rows = slice(indptr[top], indptr[top + height])
        top += height
        present = [j for j, b in enumerate(row) if b is not None]
        owner = np.repeat(np.tile(np.arange(len(present), dtype=np.int8), height),
                          np.column_stack(lengths).ravel())
        for k, j in enumerate(present):
            mask = owner == k
            data[rows][mask] = row[j].data
            indices[rows][mask] = row[j].indices + index(col_start[j])
    return sp.csr_matrix((data, indices, indptr), shape=(sum(heights), col_start[-1]))


def resolvent_saddle(space, params: MaterialParams):
    """The bordered resolvent saddle matrix and the row map its solve needs.

    Returns `(saddle, solid_rows)`: the CSR matrix over free velocity,
    scaled solid interior v = lam * w_i, pressure and one multiplier, in
    that order, [[A_lam + (1/lam) S_GG, (1/lam) S_Gi, B^T, 0],
    [(1/lam) S_iG, (1/lam) S_ii, 0, 0], [B, 0, 0, m], [0, 0, m^T, 0]]
    with B the divergence on the free velocity dofs and m = 2^-30 M_p 1
    (`_BORDER_SCALE`); and the row of the velocity-solid block of each
    solid dof, the Gamma_s dofs on their matching free velocity dofs and
    the interior after the velocity.  Its leading block, without the
    multiplier, is the resolvent saddle.

    The velocity-solid block is one CSR sum: A_lam on the free velocity
    dofs, its row pointer padded over the solid interior, plus (1/lam) S
    with its rows gathered into velocity-solid order and its columns
    renumbered.  `_block_csr` then writes the saddle's arrays once, at
    their exact size, with no COO copy of any block.  The blocks are
    temporaries of this call, so none is alive while the caller
    factorizes the saddle.
    """
    lam = params.shift
    nf = space.free_velocity_dofs.size
    ii = space.solid_interior_dofs
    n_vs = nf + ii.size
    npr = space.num_pressure_dofs
    solid_rows = np.empty(space.num_solid_dofs, dtype=np.int64)
    solid_rows[space.iface_solid_dofs] = space.iface_free_dofs
    solid_rows[ii] = nf + np.arange(ii.size)

    a_free = shifted_velocity_block(space, lam)
    s = _shifted_solid_matrix(space, params)
    # S's row for each velocity-solid row: an empty row appended to S for
    # the free velocity dofs off Gamma_s
    source = np.full(n_vs, s.shape[0])
    source[solid_rows] = np.arange(s.shape[0])
    solid = _with_shape(s, (s.shape[0] + 1, s.shape[1]))[source]
    solid.data /= lam
    solid = sp.csr_matrix((solid.data, solid_rows[solid.indices], solid.indptr),
                          shape=(n_vs, n_vs))
    solid.sort_indices()
    velocity_solid = _with_shape(a_free, (n_vs, n_vs)) + solid
    del a_free, solid
    b_free = free_divergence(space)
    border = _BORDER_SCALE * (fem.fluid_operators(space).pressure_mass @ np.ones(npr))
    saddle = _block_csr([
        [velocity_solid, _with_shape(b_free.T.tocsr(), (n_vs, npr)), None],
        [_with_shape(b_free, (npr, n_vs)), None, sp.csr_matrix(border[:, None])],
        [None, sp.csr_matrix(border), None]])
    return saddle, solid_rows


class ResolventOperator:
    """Factorized solver for (lam I - A_h) Y = Y* at fixed parameters.

    `saddle` is the bordered matrix of `resolvent_saddle` and `factor` its
    nested-dissection LU, the multiplier numbered last, which holds that
    same object.  `precision` is that of the factor (`sparse.Factorization`).
    "single", the default, is for one-shot use (the convergence study,
    certify, resolvent mode, `solve_resolvent`): its float32 factor takes
    about half the memory and time to build, and each solve is refined
    to a double factor's residual, two corrections at the default
    parameters through level 4.  `semigroup.Stepper` asks for "double",
    since it makes hundreds of solves per factor.  Where the refinement
    cannot reach the residual gate, as at Lame lambda 1e6, the factor
    becomes double at the first solve, the flux solve below, and every
    state is then the double operator's, bit for bit.  At build time the
    operator solves it once for h, with
    g = B^T 1 on the free velocity rows.  `solve` builds the right-hand
    side from the data with sparse solid products, no solid solve, makes
    one checked bordered solve x_f and takes c0 = mu_f / mu_h from the two
    multipliers: then x = x_f - c0 h with pi = pi_0 + c0 meets the
    divergence rows B u = 0, through the flux equation g^T u = 0.

    The report's residual is that of the returned state against the
    unbordered saddle, bounded from the two measured bordered residuals
    as (||r_f|| + |c0| ||r_h|| + the rounding of c0) / ||b||: O(n) work per
    solve instead of a second product with the saddle.  It leaves out the
    rounding of the combination, of the order of a residual evaluation's
    own; on random data over the 15-case parameter grid at levels 0-3 it
    read 0.84 to 1.38 times the measured residual with double factors,
    and 0.74 to 1.41 times with refined single ones.  Above 1e-10 it raises
    SolveAccuracyError.  The operator keeps the dofs and sizes it reads of
    its space, not the space: a cached operator dies with the space that
    caches it, or when the space is asked for another parameter set's
    operator, unless its caller still holds it.

    The v = lam * w_i scaling keeps the solid blocks on the scale of the
    velocity blocks; the unscaled unknown w_i leaves 2-15 times larger
    solve residuals at shift 1e3 (levels 1-3).
    """

    def __init__(self, space, params: MaterialParams, precision="single"):
        self.params = params
        self.mass_f = fem.fluid_mass(space)
        self.mass_s = fem.solid_operators(space, params).mass
        self.s_matrix = _shifted_solid_matrix(space, params)
        # the dofs and sizes `solve` reads, so that the operator holds no
        # reference to the space whose cache keeps it
        self._free = space.free_velocity_dofs
        self._iface_solid = space.iface_solid_dofs
        self._num_interior = space.solid_interior_dofs.size
        self._num_velocity = space.num_velocity_dofs
        self.saddle, self._solid_rows = resolvent_saddle(space, params)
        self._pressure = slice(self._free.size + self._num_interior, -1)
        self.factor = sla.factorize(self.saddle,
                                    saddle_coordinates(space, space.solid_interior_dofs),
                                    precision)
        # g = B^T 1 is the saddle applied to the unit constant pressure,
        # its border row m^T 1 cleared
        unit = np.zeros(self.saddle.shape[0])
        unit[self._pressure] = 1.0
        flux = self.saddle @ unit
        flux[-1] = 0.0
        self._flux_solution, report = self.factor.solve(flux)
        # ||r_h|| and ||m||, the two norms of the residual bound of `solve`
        # (BLAS-free, as the bound is reported)
        self._flux_residual = report.residual * np.sqrt(sla.dot(flux, flux))
        border = self.saddle[-1].data
        self._border_norm = np.sqrt(sla.dot(border, border))

    # -- data handling ------------------------------------------------------

    def data_from_state(self, state, scale=1.0, mass_u=None):
        """Data vector scale * (u, w, z), e.g. lam * Y for one Euler step;
        `mass_u` is the product M_f u where the caller already holds it."""
        if mass_u is None:
            mass_u = self.mass_f @ state.u
        return ResolventData(scale * mass_u, scale * state.w, scale * state.z)

    def _rhs(self, data, w_lift):
        """The bordered saddle's right-hand side for the data, given the
        lift w*/lam on Gamma_s; zero on the pressure and multiplier rows."""
        rhs = np.zeros(self.saddle.shape[0])
        rhs[:self._free.size] = data.u_load[self._free]
        rhs[self._solid_rows] += _solid_residual(self.mass_s, self.s_matrix,
                                                 self.params.shift, data, w_lift)
        return rhs

    def solve(self, data: ResolventData):
        """The state of the data and its checked report: `deferred_solve`
        followed at once by its check."""
        state, check = self.deferred_solve(data)
        return state, check()

    def deferred_solve(self, data: ResolventData):
        """The solve of `solve` without its check: (state, check), where
        `check()` runs the bordered solve's residual gate and then the
        unbordered bound's, and returns the report or raises
        SolveAccuracyError.  The state is unchecked until then; the check
        may run on another thread.  The callers are `solve` and
        `semigroup.Stepper.deferred_step`."""
        lam = self.params.shift
        nf = self._free.size
        w_lift = _solid_lift(self._iface_solid, lam, data.w_star)
        rhs = self._rhs(data, w_lift)
        x_f, bordered_check = self.factor.deferred_solve(rhs)
        h = self._flux_solution
        mu_f = x_f[-1]
        c0 = mu_f / h[-1]

        def check():
            bordered = bordered_check()
            # The unbordered residual of x_f - c0 h + c0 (0, 1) is
            # r_f - c0 r_h - (mu_f - c0 mu_h) m, and |mu_f - c0 mu_h| <= u |mu_f|
            # for the rounded quotient c0; the rounding of the combination
            # below is of the order of a residual evaluation's own.
            norm_b = np.sqrt(sla.dot(rhs, rhs))
            bound = (bordered.residual + (abs(c0) * self._flux_residual + _UNIT_ROUNDOFF
                                          * self._border_norm * abs(mu_f)) / norm_b
                     if norm_b > 0 else 0.0)
            return sla.checked_report(replace(bordered, residual=float(bound)))

        # a new array: the check still reads x_f
        x = x_f - c0 * h
        x[self._pressure] += c0
        u = np.zeros(self._num_velocity)
        u[self._free] = x[:nf]
        pi = x[self._pressure]
        w = x[self._solid_rows] / lam + w_lift
        z = lam * w - data.w_star
        return FsiState(u=u, w=w, z=z, pi=pi), check


def solve_resolvent(space, params: MaterialParams, data: ResolventData):
    """One-shot resolvent solve; reuses a cached factorized operator, whose
    factor is single precision, each solve refined to the double floor."""
    return _operator(space, params, "single").solve(data)


def _operator(space, params, precision="single") -> ResolventOperator:
    """The space's cached operator at `params` with a `precision` factor."""
    return space.cached("resolvent_op",
                        lambda: ResolventOperator(space, params, precision),
                        params, precision)


def kernel_projection(space):
    """M-orthogonal projection of free-velocity vectors onto ker B.

    Returns `project(v)`, which solves [[M, B^T], [B, 0]] [w; p] = [M v; 0]
    (free-velocity mass M, divergence B) with one checked solve and returns
    w, the divergence-free vector closest to v in the L2 norm.  The saddle
    matrix is written once at its exact size by `_block_csr`, as the
    resolvent saddle is, and factorized once, in the nested-dissection
    order of `saddle_coordinates`.  It takes no material parameter, and its
    smallest pivot, 3.1e-2 of max|A| at level 0 and 1.45e-3 at level 4,
    about halves per level, so even at level 12 it stays near 6e-6 of
    max|A|: unlike the resolvent saddle, it needs no border.
    """
    m_free = free_velocity_block(space, fem.fluid_mass(space))
    b_free = free_divergence(space)
    factor = sla.factorize(_block_csr([[m_free, b_free.T.tocsr()], [b_free, None]]),
                           saddle_coordinates(space))
    nf = m_free.shape[0]
    zero_pressure = np.zeros(space.num_pressure_dofs)

    def project(v):
        x, _ = factor.solve(np.concatenate([m_free @ v, zero_pressure]))
        return x[:nf]

    return project


# ---------------------------------------------------------------------------
# pressure decomposition and interface tractions
# ---------------------------------------------------------------------------

def decompose_pressure(space, pi):
    """Split pi into a mean-zero part and its constant component c0."""
    mp = fem.fluid_operators(space).pressure_mass
    ones = np.ones(space.num_pressure_dofs)
    measure = sla.dot(ones, mp @ ones)
    c0 = sla.dot(ones, mp @ np.asarray(pi, dtype=float)) / measure
    return pi - c0, float(c0)


def _momentum_residual(space, params, u, pi, u_load):
    """Discrete fluid momentum residual K_eps u + lam M u + B^T pi - l.

    Full velocity layout.  It vanishes on the free velocity dofs off
    Gamma_s for a resolvent solution, so its Gamma_s entries are the fluid
    traction moments."""
    fops = fem.fluid_operators(space)
    return (fops.strain @ u + params.shift * (fem.fluid_mass(space) @ u)
            + fops.div.T @ pi - u_load)


def interface_traction_moments(space, params, state, pi, data):
    """The fluid and the solid traction moments on the Gamma_s dofs.

    Returns `(fluid, solid)`: the Gamma_s rows of the momentum residual
    (`_momentum_residual`), <eps(u).nu - pi nu, phi_i>, and of the solid
    residual (`_solid_residual`), <sigma(w).nu, phi_i>.  The A5b check
    compares them and the c0 recovery balances them."""
    fluid = _momentum_residual(space, params, state.u, pi, data.u_load)
    solid = _solid_residual(fem.solid_operators(space, params).mass,
                            _shifted_solid_matrix(space, params), params.shift,
                            data, state.w)
    return fluid[space.iface_velocity_dofs], solid[space.iface_solid_dofs]


def recover_c0(space, params, state, pi_q0, data):
    """Constant pressure component from the interface traction balance.

    A constant pressure c0 adds c0 B^T 1 to the momentum residual, and on
    the Gamma_s dofs -B^T 1 is the normal-moment vector r_i = <nu, phi_i>
    (B^T 1 vanishes on every other free velocity dof).  So with the
    traction moments of `interface_traction_moments` at the mean-zero
    pressure representative `pi_q0`, the balance fluid - c0 r = solid
    gives c0 = ((fluid - solid) . r) / (r . r), the solve's own constant
    whenever the A5b flux check holds.
    """
    fluid, solid = interface_traction_moments(space, params, state, pi_q0, data)
    ones = np.ones(space.num_pressure_dofs)
    r = -(fem.fluid_operators(space).div.T @ ones)[space.iface_velocity_dofs]
    return float(sla.dot(fluid - solid, r) / sla.dot(r, r))


# ---------------------------------------------------------------------------
# domain-condition report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class DomainConditionReport:
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {c.name: {"residual": c.residual, "tolerance": c.tolerance,
                         "passed": c.passed} for c in self.checks}


def check_domain_conditions(space, params, state, pi, data) -> DomainConditionReport:
    """Discrete residuals of the generator-domain conditions."""
    u, w, z = state.u, state.w, state.z

    a2 = np.abs(u[space.constrained_mask]).max(initial=0.0)
    a2 /= max(1.0, np.abs(u).max(initial=0.0))

    u_gamma = u[space.iface_velocity_dofs]
    z_gamma = z[space.iface_solid_dofs]
    a4 = np.abs(z_gamma - u_gamma).max(initial=0.0)
    a4 /= max(1.0, np.abs(u_gamma).max(initial=0.0))

    div_b = fem.fluid_operators(space).div
    num = np.abs(div_b @ u).max(initial=0.0)
    den = (np.abs(div_b) @ np.abs(u)).max(initial=0.0)
    div_res = num / den if den > 0 else 0.0

    fl, so = interface_traction_moments(space, params, state, pi, data)
    scale = max(1.0, np.abs(fl).max(initial=0.0), np.abs(so).max(initial=0.0))
    a5b = np.abs(fl - so).max(initial=0.0) / scale

    return DomainConditionReport(checks=(
        ConditionCheck("A2_gamma_f_zero", float(a2), GAMMA_F_TOL),
        ConditionCheck("A4_trace_match", float(a4), TRACE_TOL),
        ConditionCheck("divergence_orthogonality", float(div_res), DIV_TOL),
        ConditionCheck("A5b_flux_match", float(a5b), FLUX_TOL),
    ))


# ---------------------------------------------------------------------------
# dense monolithic oracle
# ---------------------------------------------------------------------------

def monolithic_solve(space, params: MaterialParams, data: ResolventData) -> FsiState:
    """Dense coupled solve with the interface trial constraint
    w|Gamma_s = (1/lam)(u + w*)|Gamma_s imposed directly; oracle for the
    sparse resolvent solve on coarse meshes."""
    lam = params.shift
    s_mat = _shifted_solid_matrix(space, params)
    mass_s = fem.solid_operators(space, params).mass

    free = space.free_velocity_dofs
    ifree = space.iface_free_dofs
    bb = space.iface_solid_dofs
    ii = space.solid_interior_dofs
    nf, npr, ni = free.size, space.num_pressure_dofs, ii.size
    ns = space.num_solid_dofs

    # trace operator: free velocity -> full solid field (1/lam) N(u|Gamma_s)
    t_map = np.zeros((ns, nf))
    t_map[bb, ifree] = 1.0 / lam

    s_dense = s_mat.toarray()
    a_ff = shifted_velocity_block(space, lam).toarray()
    b_f = free_divergence(space).toarray()

    n_total = nf + npr + ni
    mat = np.zeros((n_total, n_total))
    rhs = np.zeros(n_total)

    st = s_dense @ t_map
    mat[:nf, :nf] = a_ff + lam * (t_map.T @ st)
    mat[:nf, nf:nf + npr] = b_f.T
    mat[:nf, nf + npr:] = lam * (t_map.T @ s_dense[:, ii])
    mat[nf:nf + npr, :nf] = b_f
    mat[nf + npr:, :nf] = st[ii]
    mat[nf + npr:, nf + npr:] = s_dense[np.ix_(ii, ii)]

    w_lift = _solid_lift(bb, lam, data.w_star)
    r = _solid_residual(mass_s, s_mat, lam, data, w_lift)
    rhs[:nf] = data.u_load[free] + lam * (t_map.T @ r)
    rhs[nf + npr:] = r[ii]

    # SuperLU's own COLAMD order and partial pivoting, not `sla.factorize`:
    # the oracle shares neither the package's ordering nor its pivot rule,
    # and unlike a dense LAPACK solve its bits do not depend on the number
    # of BLAS threads.  One step of fixed-precision iterative refinement
    # (Skeel, Math. Comp. 35, 1980) makes the pressure agree with the
    # sparse solve's at small shifts; its residual is a sparse product,
    # with no BLAS either
    mat = sp.csc_matrix(mat)
    lu = spla.splu(mat)
    x = lu.solve(rhs)
    x += lu.solve(rhs - mat @ x)
    u = space.expand_velocity(x[:nf])
    pi = x[nf:nf + npr]
    w = t_map @ x[:nf] + w_lift
    w[ii] += x[nf + npr:]
    z = lam * w - data.w_star
    return FsiState(u=u, w=w, z=z, pi=pi)
