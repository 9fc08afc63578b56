"""Static resolvent solves for the coupled fluid/solid system.

The paper eliminates the solid through a discrete Dirichlet map: every
interface velocity trace is extended into the solid by the shifted
elastostatic operator S = K_sigma + (lam^2 + 1) M_s, and the Schur block
(1/lam) E^T S E folded into the velocity form gives the condensed form
a_lam = A_lam + (1/lam) E^T S E of the generator.  `dirichlet_map`,
`solid_resolvent_inverse` and `schur_form` build that construction; the
certificates read a_lam from `schur_form`.

The solve keeps the solid interior instead of condensing it.  With the
scaled interior unknown v = lam * w_i, the resolvent is one sparse
symmetric matrix over free velocity, solid interior and pressure,

    [[A_lam + (1/lam) S_GG, (1/lam) S_Gi, B^T],
     [(1/lam) S_iG,         (1/lam) S_ii, 0  ],
     [B,                    0,            0  ]],

whose elimination of v gives back exactly a_lam.  It is factorized once
per parameter set, in the nested-dissection order computed from the
coordinates of its unknowns (`saddle_coordinates`), and each solve is one
checked solve.  The solid displacement is w = (u + w*)/lam on Gamma_s and
v/lam inside, and the solid velocity is z = lam * w - w*.  The
discrete-kernel projection factorizes its [[M, B^T], [B, 0]] the same way.

The interface traction is the solid residual M_s (lam w* + z*) - S w
(`_solid_residual`).  With w the lift w*/lam on Gamma_s (`_solid_lift`)
it is the solid part of the solve's right-hand side and of the dense
oracle's; with w a solution its Gamma_s entries are the solid traction
moments that the A5b flux check and the c0 recovery compare with the
fluid momentum residual (`_momentum_residual`).  Matrices, factorizations
and operators are kept on the space per parameter set
(`TaylorHoodSpace.cached`).

A dense monolithic assembly of the same coupled problem (interface trial
constraint w = (1/lam)(u + w*) on Gamma_s, solid tests paired with fluid
test traces) is kept as a coarse-mesh oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from . import sparse as sla
from .fem import MaterialParams

DIV_TOL = 1e-10
TRACE_TOL = 1e-12
GAMMA_F_TOL = 1e-12
FLUX_TOL = 1e-9


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

    def copy(self):
        return FsiState(self.u.copy(), self.w.copy(), self.z.copy(),
                        None if self.pi is None else self.pi.copy())


def zero_state(space) -> FsiState:
    return FsiState(np.zeros(space.num_velocity_dofs),
                    np.zeros(space.num_solid_dofs),
                    np.zeros(space.num_solid_dofs),
                    np.zeros(space.num_pressure_dofs))


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


def zero_data(space) -> ResolventData:
    return ResolventData(np.zeros(space.num_velocity_dofs),
                         np.zeros(space.num_solid_dofs),
                         np.zeros(space.num_solid_dofs))


def data_from_vectors(space, u_star, w_star, z_star) -> ResolventData:
    mass = fem.fluid_operators(space).mass
    return ResolventData(mass @ np.asarray(u_star, dtype=float),
                         np.asarray(w_star, dtype=float).copy(),
                         np.asarray(z_star, dtype=float).copy())


def data_from_field(space, u_star_field) -> ResolventData:
    """Data with closed-form fluid field u* and zero solid data."""
    return ResolventData(fem.assemble_fluid_load(space, u_star_field),
                         np.zeros(space.num_solid_dofs),
                         np.zeros(space.num_solid_dofs))


# ---------------------------------------------------------------------------
# discrete Dirichlet map and solid resolvent
# ---------------------------------------------------------------------------

@dataclass
class DirichletMap:
    """Shifted-elastostatic extensions of the interface velocity traces.

    columns[:, j] is the solid field equal to the j-th interface basis
    trace on Gamma_s (exactly, at nodes) and discrete-harmonic inside:
    interior test functions see a zero residual of (lam^2+1) M + K_sigma.
    """

    columns: np.ndarray
    s_matrix: sp.csr_matrix


def _param_key(name, params):
    """Cache key of an object built for one parameter set."""
    return (name, params.lame_lambda, params.lame_mu, params.shift)


def _shifted_solid_matrix(space, params):
    """S = K_sigma + (lam^2 + 1) M_s over the full solid layout, cached per
    space and parameters."""
    def build():
        ops = fem.solid_operators(space, params)
        lam = params.shift
        return (ops.stiffness + (lam * lam + 1.0) * ops.mass).tocsr()

    return space.cached(_param_key("solid_shifted", params), build)


def _solid_interior_factor(space, params):
    """Factorization of the interior block S_ii, shared by the Dirichlet
    map and the solid resolvent inverse."""
    def build():
        ii = space.solid_interior_dofs
        return sla.factorize(_shifted_solid_matrix(space, params)[ii][:, ii].tocsc())

    return space.cached(_param_key("solid_factor", params), build)


def _solid_lift(space, lam, w_star):
    """The solid displacement's trace part w*/lam on Gamma_s, zero inside:
    a resolvent solution has w = (u + w*)/lam on Gamma_s."""
    lift = np.zeros(space.num_solid_dofs)
    bb = space.iface_solid_dofs
    lift[bb] = w_star[bb] / lam
    return lift


def _solid_residual(mass_s, s_matrix, lam, data, w):
    """Solid residual M_s (lam w* + z*) - S w over the full solid layout.

    Its Gamma_s entries are the solid traction moments <sigma(w).nu, phi_i>
    of a resolvent solution w, and with w the lift they are the solid part
    of the solve's right-hand side.  The caller passes the solid mass M_s
    and the shifted matrix S it already holds."""
    return mass_s @ (lam * data.w_star + data.z_star) - s_matrix @ w


def dirichlet_map(space, params: MaterialParams) -> DirichletMap:
    s_mat = _shifted_solid_matrix(space, params)
    factor = _solid_interior_factor(space, params)
    ii = space.solid_interior_dofs
    bb = space.iface_solid_dofs
    rhs = -s_mat[ii][:, bb].toarray()
    interior, _ = factor.solve(rhs)
    columns = np.zeros((space.num_solid_dofs, bb.size))
    columns[bb, np.arange(bb.size)] = 1.0
    columns[ii] = interior
    return DirichletMap(columns=columns, s_matrix=s_mat)


def solid_resolvent_inverse(space, params: MaterialParams, load):
    """Solve the zero-trace solid problem ((lam^2+1) M + K_sigma) w = load.

    `load` is a functional vector over the full solid layout (e.g. M_s
    times a coefficient vector); rows on Gamma_s are ignored and the
    solution has an exactly zero trace.
    """
    load = np.asarray(load, dtype=float)
    if load.shape != (space.num_solid_dofs,):
        raise ValueError(f"load shape {load.shape} does not match solid space "
                         f"({space.num_solid_dofs},)")
    factor = _solid_interior_factor(space, params)
    w = np.zeros(space.num_solid_dofs)
    w[space.solid_interior_dofs], _ = factor.solve(load[space.solid_interior_dofs])
    return w


# ---------------------------------------------------------------------------
# the resolvent operator and the discrete-kernel projection
# ---------------------------------------------------------------------------

def schur_form(space, params: MaterialParams):
    """Condensed velocity form a_lam = A_lam + (1/lam) E^T S E on the free
    velocity dofs, with A_lam = lam M + K_eps and E the Dirichlet map.

    The generator's form after the solid is eliminated; the certificates
    read it from here.  The solve never builds it (see ResolventOperator).
    """
    lam = params.shift
    dmap = dirichlet_map(space, params)
    fops = fem.fluid_operators(space)
    free = space.free_velocity_dofs
    a_free = (lam * fops.mass + fops.strain)[free][:, free].tocsr()
    e = dmap.columns
    schur = (e.T @ (dmap.s_matrix @ e)) / lam
    schur = 0.5 * (schur + schur.T)
    ifree = space.iface_free_dofs
    ni = ifree.size
    coupling = sp.coo_matrix(
        (schur.ravel(), (np.repeat(ifree, ni), np.tile(ifree, ni))),
        shape=a_free.shape)
    return (a_free + coupling).tocsr()


def saddle_coordinates(space, solid_dofs=()):
    """One coordinate row per unknown of a saddle numbering: the node of
    each free velocity dof, then the node of each of `solid_dofs` (solid
    numbering), then each pressure vertex.  The kernel projection numbers
    no solid dofs; the resolvent numbers the solid interior."""
    velocity_nodes = space.fluid_nodes[space.free_velocity_dofs // 2]
    solid_nodes = space.solid_nodes[np.asarray(solid_dofs, dtype=np.int64) // 2]
    return np.vstack([space.node_xy[velocity_nodes],
                      space.node_xy[solid_nodes],
                      space.node_xy[space.pressure_nodes]])


class ResolventOperator:
    """Factorized solver for (lam I - A_h) Y = Y* at fixed parameters.

    `saddle` is the sparse monolithic matrix over free velocity, scaled
    solid interior v = lam * w_i and pressure, in that order:
    [[A_lam + (1/lam) S_GG, (1/lam) S_Gi, B^T], [(1/lam) S_iG,
    (1/lam) S_ii, 0], [B, 0, 0]], with the Gamma rows of the shifted solid
    matrix S placed on the interface free velocity rows.  `factor` is its
    nested-dissection LU.  `solve` builds the right-hand side from the
    data with sparse solid products, no solid solve, and makes one checked
    solve.

    The v = lam * w_i scaling keeps the solid blocks on the scale of the
    velocity blocks; the unscaled unknown w_i leaves 2-15 times larger
    solve residuals at shift 1e3 (levels 1-3).
    """

    def __init__(self, space, params: MaterialParams):
        self.space = space
        self.params = params
        lam = params.shift
        fops = fem.fluid_operators(space)
        self.mass_f = fops.mass
        self.mass_s = fem.solid_operators(space, params).mass
        self.s_matrix = _shifted_solid_matrix(space, params)

        free = space.free_velocity_dofs
        nf = free.size
        ii = space.solid_interior_dofs
        n_vs = nf + ii.size
        # solid dof -> row of the velocity-solid block: Gamma_s onto the
        # matching free velocity dof, the interior after the velocity
        self._solid_rows = np.empty(space.num_solid_dofs, dtype=np.int64)
        self._solid_rows[space.iface_solid_dofs] = space.iface_free_dofs
        self._solid_rows[ii] = nf + np.arange(ii.size)

        a_free = (lam * self.mass_f + fops.strain)[free][:, free]
        s = self.s_matrix.tocoo()
        solid = sp.coo_matrix(
            (s.data / lam, (self._solid_rows[s.row], self._solid_rows[s.col])),
            shape=(n_vs, n_vs))
        velocity_solid = sp.block_diag((a_free, sp.csr_matrix((ii.size, ii.size))))
        self.b_free = fops.div[:, free].tocsr()
        b = sp.hstack([self.b_free, sp.csr_matrix((space.num_pressure_dofs, ii.size))])
        self.saddle = sp.bmat([[velocity_solid + solid, b.T], [b, None]], format="csr")
        self.factor = sla.factorize(self.saddle, saddle_coordinates(space, ii))

    # -- data handling ------------------------------------------------------

    def data_from_state(self, state, scale=1.0):
        """Data vector scale * (u, w, z), e.g. lam * Y for one Euler step."""
        return ResolventData(scale * (self.mass_f @ state.u),
                             scale * state.w, scale * state.z)

    def solve(self, data: ResolventData):
        space = self.space
        lam = self.params.shift
        nf = space.num_free_velocity_dofs
        w_lift = _solid_lift(space, lam, data.w_star)
        rhs = np.zeros(self.saddle.shape[0])
        rhs[:nf] = data.u_load[space.free_velocity_dofs]
        rhs[self._solid_rows] += _solid_residual(self.mass_s, self.s_matrix, lam,
                                                 data, w_lift)
        x, report = self.factor.solve(rhs)
        u = space.expand_velocity(x[:nf])
        pi = x[nf + space.solid_interior_dofs.size:]
        w = x[self._solid_rows] / lam + w_lift
        z = lam * w - data.w_star
        return FsiState(u=u, w=w, z=z, pi=pi), report


def solve_resolvent(space, params: MaterialParams, data: ResolventData):
    """One-shot resolvent solve; reuses a cached factorized operator."""
    return _operator(space, params).solve(data)


def _operator(space, params) -> ResolventOperator:
    return space.cached(_param_key("resolvent_op", params),
                        lambda: ResolventOperator(space, params))


def kernel_projection(space):
    """M-orthogonal projection of free-velocity vectors onto ker B.

    Returns `project(v)`, which solves [[M, B^T], [B, 0]] [w; p] = [M v; 0]
    (free-velocity mass M, divergence B) with one checked solve and returns
    w, the divergence-free vector closest to v in the L2 norm.  The saddle
    matrix is factorized once, in the nested-dissection order of
    `saddle_coordinates`.
    """
    fops = fem.fluid_operators(space)
    free = space.free_velocity_dofs
    m_free = fops.mass[free][:, free].tocsr()
    b_free = fops.div[:, free].tocsr()
    factor = sla.factorize(sp.bmat([[m_free, b_free.T], [b_free, None]], format="csr"),
                           saddle_coordinates(space))
    zero_pressure = np.zeros(space.num_pressure_dofs)

    def project(v):
        x, _ = factor.solve(np.concatenate([m_free @ v, zero_pressure]))
        return x[:free.size]

    return project


# ---------------------------------------------------------------------------
# pressure decomposition and interface fluxes
# ---------------------------------------------------------------------------

def decompose_pressure(space, pi):
    """Split pi into a mean-zero part and its constant component c0."""
    mp = fem.fluid_operators(space).pressure_mass
    ones = np.ones(space.num_pressure_dofs)
    measure = ones @ (mp @ ones)
    c0 = (ones @ (mp @ np.asarray(pi, dtype=float))) / measure
    return pi - c0, float(c0)


def _check_extension(space, g, extension):
    ext = np.asarray(extension, dtype=float)
    if ext.shape != (space.num_velocity_dofs,):
        raise ValueError("extension does not match the velocity layout")
    if not np.array_equal(ext[space.iface_velocity_dofs], np.asarray(g, dtype=float)):
        raise ValueError("extension trace differs from g on Gamma_s")
    if np.any(ext[space.constrained_mask] != 0.0):
        raise ValueError("extension must vanish on Gamma_f")
    return ext


def interface_flux(space, params, state, pi, g, data, extension=None):
    """Variationally consistent fluid traction <eps(u).nu - pi nu, g>.

    Evaluated through the volume residual (eps(u), eps(Eg)) - (pi, div Eg)
    + (lam u - u*, Eg) for any discrete extension Eg of the interface trace
    g vanishing on Gamma_f; the value is extension-independent because the
    discrete momentum residual vanishes on interior test functions.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (space.num_iface_dofs,):
        raise ValueError(f"g must be an interface trace of length "
                         f"{space.num_iface_dofs}, got {g.shape}")
    if extension is None:
        eg = np.zeros(space.num_velocity_dofs)
        eg[space.iface_velocity_dofs] = g
    else:
        eg = _check_extension(space, g, extension)
    return float(_momentum_residual(space, params, state.u, pi, data.u_load) @ eg)


def _momentum_residual(space, params, u, pi, u_load):
    """Discrete fluid momentum residual K_eps u + lam M u + B^T pi - l.

    Full velocity layout.  It vanishes on free interior dofs for a
    resolvent solution, so its interface entries are the fluid traction
    moments and its pairing with any extension is the traction functional.
    """
    fops = fem.fluid_operators(space)
    return (fops.strain @ u + params.shift * (fops.mass @ u)
            + fops.div.T @ pi - u_load)


def _solid_flux_moments(space, params, state, data):
    """Solid traction <sigma(w).nu, phi_i> against interface basis traces."""
    residual = _solid_residual(fem.solid_operators(space, params).mass,
                               _shifted_solid_matrix(space, params), params.shift,
                               data, state.w)
    return residual[space.iface_solid_dofs]


def solid_interface_flux(space, params, state, g, data):
    """Solid-side traction functional, companion to interface_flux."""
    g = np.asarray(g, dtype=float)
    return float(_solid_flux_moments(space, params, state, data) @ g)


def recover_c0(space, params, state, pi_q0, data):
    """Constant pressure component from the interface flux balance.

    Realizes the interface average of [eps(u).nu - sigma(w).nu].nu - q0 by
    pairing the flux-difference functional (with the mean-zero pressure
    representative) against the L2(Gamma_s) projection of the normal field
    onto the discrete trace space.
    """
    fluid = _momentum_residual(space, params, state.u, pi_q0, data.u_load)
    moments = (fluid[space.iface_velocity_dofs]
               + fem.iface_pressure_normal_moments(space, pi_q0))
    moments = moments - _solid_flux_moments(space, params, state, data)
    m_gamma = fem.iface_trace_mass(space)
    nu_proj = np.linalg.solve(m_gamma, fem.iface_normal_moments(space))
    q0_line = fem.iface_pressure_integral(space, pi_q0)
    return float((moments @ nu_proj - q0_line) / fem.iface_perimeter(space))


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

    fl = _momentum_residual(space, params, u, pi, data.u_load)[space.iface_velocity_dofs]
    so = _solid_flux_moments(space, params, state, data)
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
    fops = fem.fluid_operators(space)
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
    a_ff = (lam * fops.mass + fops.strain)[free][:, free].toarray()
    b_f = fops.div[:, free].toarray()

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

    w_lift = _solid_lift(space, lam, data.w_star)
    r = _solid_residual(mass_s, s_mat, lam, data, w_lift)
    rhs[:nf] = data.u_load[free] + lam * (t_map.T @ r)
    rhs[nf + npr:] = r[ii]

    x = np.linalg.solve(mat, rhs)
    u = space.expand_velocity(x[:nf])
    pi = x[nf:nf + npr]
    w = t_map @ x[:nf] + w_lift
    w[ii] += x[nf + npr:]
    z = lam * w - data.w_star
    return FsiState(u=u, w=w, z=z, pi=pi)
