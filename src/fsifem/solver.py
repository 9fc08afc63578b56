"""Static resolvent solves for the coupled fluid/solid system.

The unknown fluid velocity and pressure solve a mixed saddle-point system
whose velocity block carries the solid's response through a discrete
Dirichlet map: every interface velocity basis trace is extended into the
solid by the shifted elastostatic operator (lam^2 + 1) M + K_sigma, and
the resulting Schur block (1/lam) * E^T S E is folded into the velocity
form.  The solid displacement is recovered afterwards from the interface
trace of the velocity plus the data terms, and the solid velocity is
z = lam * w - w*.

A dense monolithic assembly of the same coupled problem (interface trial
constraint w = (1/lam)(u + w*) on Gamma_s, solid tests paired with fluid
test traces) is kept as a coarse-mesh oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def data_from_field(space, u_star_field, degree=fem.DATA_QUAD_DEGREE) -> ResolventData:
    """Data with closed-form fluid field u* and zero solid data."""
    return ResolventData(fem.assemble_fluid_load(space, u_star_field, degree),
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
    The interior factorization is shared by every extension and by the
    solid resolvent inverse.
    """

    columns: np.ndarray
    s_matrix: sp.csr_matrix
    interior_factor: sla.Factorization
    params: MaterialParams


def _solid_system(space, params):
    ops = fem.solid_operators(space, params)
    lam = params.shift
    s_mat = (ops.stiffness + (lam * lam + 1.0) * ops.mass).tocsr()
    key = ("solid_factor", params.lame_lambda, params.lame_mu, params.shift)
    if key not in space._cache:
        ii = space.solid_interior_dofs
        space._cache[key] = sla.factorize(s_mat[ii][:, ii].tocsc())
    return s_mat, space._cache[key]


def dirichlet_map(space, params: MaterialParams) -> DirichletMap:
    s_mat, factor = _solid_system(space, params)
    ii = space.solid_interior_dofs
    bb = space.iface_solid_dofs
    rhs = -s_mat[ii][:, bb].toarray()
    interior, _ = factor.solve(rhs)
    columns = np.zeros((space.num_solid_dofs, bb.size))
    columns[bb, np.arange(bb.size)] = 1.0
    columns[ii] = interior
    return DirichletMap(columns=columns, s_matrix=s_mat,
                        interior_factor=factor, params=params)


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
    _, factor = _solid_system(space, params)
    w = np.zeros(space.num_solid_dofs)
    w[space.solid_interior_dofs], _ = factor.solve(load[space.solid_interior_dofs])
    return w


# ---------------------------------------------------------------------------
# saddle system assembly and the resolvent operator
# ---------------------------------------------------------------------------

@dataclass
class SaddleSystem:
    """Assembled mixed system in the free-velocity numbering."""

    a_lambda: sla.SparseMatrix
    b: sla.SparseMatrix
    rhs_velocity: np.ndarray
    rhs_pressure: np.ndarray
    space: object = field(repr=False)
    params: MaterialParams = None

    def matrix(self):
        """Full saddle matrix [[A, B^T], [B, 0]]."""
        a = self.a_lambda.to_csr()
        b = self.b.to_csr()
        return sp.bmat([[a, b.T], [b, None]], format="csr")


class ResolventOperator:
    """Factorized solver for (lam I - A_h) Y = Y* at fixed parameters."""

    def __init__(self, space, params: MaterialParams):
        self.space = space
        self.params = params
        lam = params.shift
        self.dmap = dirichlet_map(space, params)
        fops = fem.fluid_operators(space)
        self.mass_f = fops.mass
        self.strain_f = fops.strain
        self.div_b = fops.div
        self.mass_s = fem.solid_operators(space, params).mass

        free = space.free_velocity_dofs
        a_free = (lam * self.mass_f + self.strain_f)[free][:, free].tocsr()
        e = self.dmap.columns
        self._s_e = self.dmap.s_matrix @ e
        schur = (e.T @ self._s_e) / lam
        self.schur_block = 0.5 * (schur + schur.T)
        ifree = space.iface_free_dofs
        ni = ifree.size
        coupling = sp.coo_matrix(
            (self.schur_block.ravel(),
             (np.repeat(ifree, ni), np.tile(ifree, ni))),
            shape=a_free.shape)
        self.a_free = (a_free + coupling).tocsr()
        self.b_free = self.div_b[:, free].tocsr()
        self.saddle = sp.bmat([[self.a_free, self.b_free.T],
                               [self.b_free, None]], format="csr")
        self.factor = sla.factorize(self.saddle)

    # -- data handling ------------------------------------------------------

    def data_from_state(self, state, scale=1.0):
        """Data vector scale * (u, w, z), e.g. lam * Y for one Euler step."""
        return ResolventData(scale * (self.mass_f @ state.u),
                             scale * state.w, scale * state.z)

    def _data_terms(self, data):
        lam = self.params.shift
        q = lam * data.w_star + data.z_star
        mq = self.mass_s @ q
        w0 = (self.dmap.columns @ data.w_star[self.space.iface_solid_dofs]) / lam
        w0 += solid_resolvent_inverse(self.space, self.params, mq)
        return q, mq, w0

    def assemble(self, data: ResolventData) -> SaddleSystem:
        space = self.space
        _, mq, w0 = self._data_terms(data)
        rhs_v = data.u_load[space.free_velocity_dofs].copy()
        rhs_v[space.iface_free_dofs] += self.dmap.columns.T @ mq - self._s_e.T @ w0
        return SaddleSystem(a_lambda=sla.SparseMatrix(self.a_free),
                            b=sla.SparseMatrix(self.b_free),
                            rhs_velocity=rhs_v,
                            rhs_pressure=np.zeros(space.num_pressure_dofs),
                            space=space, params=self.params)

    def solve(self, data: ResolventData):
        space = self.space
        lam = self.params.shift
        _, mq, w0 = self._data_terms(data)
        rhs_v = data.u_load[space.free_velocity_dofs].copy()
        rhs_v[space.iface_free_dofs] += self.dmap.columns.T @ mq - self._s_e.T @ w0
        rhs = np.concatenate([rhs_v, np.zeros(space.num_pressure_dofs)])
        x, report = self.factor.solve(rhs)
        nf = space.num_free_velocity_dofs
        u = space.expand_velocity(x[:nf])
        pi = x[nf:]
        w = (self.dmap.columns @ u[space.iface_velocity_dofs]) / lam + w0
        z = lam * w - data.w_star
        return FsiState(u=u, w=w, z=z, pi=pi), report


def assemble_system(space, params: MaterialParams, data: ResolventData) -> SaddleSystem:
    return _operator(space, params).assemble(data)


def solve_resolvent(space, params: MaterialParams, data: ResolventData):
    """One-shot resolvent solve; reuses a cached factorized operator."""
    return _operator(space, params).solve(data)


def _operator(space, params) -> ResolventOperator:
    key = ("resolvent_op", params.lame_lambda, params.lame_mu, params.shift)
    if key not in space._cache:
        space._cache[key] = ResolventOperator(space, params)
    return space._cache[key]


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
    fops = fem.fluid_operators(space)
    lam = params.shift
    return float(state.u @ (fops.strain @ eg) + pi @ (fops.div @ eg)
                 + lam * (state.u @ (fops.mass @ eg)) - data.u_load @ eg)


def _fluid_flux_moments(space, params, state, pi, data):
    """Fluid traction against every interface basis trace, in one pass."""
    fops = fem.fluid_operators(space)
    lam = params.shift
    vec = (fops.strain @ state.u + lam * (fops.mass @ state.u)
           + fops.div.T @ pi - data.u_load)
    return vec[space.iface_velocity_dofs]


def _solid_flux_moments(space, params, state, data):
    """Solid traction <sigma(w).nu, phi_i> against interface basis traces."""
    s_mat, _ = _solid_system(space, params)
    mass_s = fem.solid_operators(space, params).mass
    q = params.shift * data.w_star + data.z_star
    vec = mass_s @ q - s_mat @ state.w
    return vec[space.iface_solid_dofs]


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
    fops = fem.fluid_operators(space)
    lam = params.shift
    vec = (fops.strain @ state.u + lam * (fops.mass @ state.u)
           + fops.div.T @ pi_q0 - data.u_load)
    moments = vec[space.iface_velocity_dofs]
    moments = moments + fem.iface_pressure_normal_moments(space, pi_q0)
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

    fl = _fluid_flux_moments(space, params, state, pi, data)
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
    Dirichlet-map Schur path on coarse meshes."""
    lam = params.shift
    fops = fem.fluid_operators(space)
    s_mat, _ = _solid_system(space, params)
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

    q = lam * data.w_star + data.z_star
    mq = mass_s @ q
    w_lift = np.zeros(ns)
    w_lift[bb] = data.w_star[bb] / lam
    rhs[:nf] = data.u_load[free] + lam * (t_map.T @ (mq - s_mat @ w_lift))
    rhs[nf + npr:] = (mq - s_mat @ w_lift)[ii]

    x = np.linalg.solve(mat, rhs)
    u = space.expand_velocity(x[:nf])
    pi = x[nf:nf + npr]
    w = t_map @ x[:nf] + w_lift
    w[ii] += x[nf + npr:]
    z = lam * w - data.w_star
    return FsiState(u=u, w=w, z=z, pi=pi)
