"""Time evolution by repeated resolvent application and numerical
certification of dissipativity and contraction.

One backward-Euler step solves (lam I - A_h) Y' = lam Y with lam = 1/dt,
i.e. one factor of the exponential formula.  For this discretization the
generator identity (A_h Y, Y)_H = -||eps(u)||^2 holds to solver roundoff
(the pressure is orthogonal to the discrete divergence, interface traces
match exactly, and the solid equation is tested with z), which makes every
step a contraction in the energy norm and gives an exact discrete energy
balance: E_k^2 - E_{k+1}^2 = 2 dt ||eps(u_{k+1})||^2 + ||Y_{k+1} - Y_k||_H^2.
Every product of (., .)_H is `sparse.dot`, so no energy depends on the
number of BLAS threads.

A_h has a one-dimensional kernel: a displaced solid at rest (u = z = 0)
held by a constant fluid pressure c0, the pressurized-solid state.  Every
other eigenvalue has negative real part (the next ones are -0.0040,
double, and -0.0064 at levels 0 and 1), so `evolve` does not tend to zero:
it tends to the H-orthogonal projection of the initial state onto this
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import fem, solver, sparse as sla
from .fem import MaterialParams
from .solver import FsiState


@dataclass(frozen=True)
class EvolutionConfig:
    t_final: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be positive, got {self.n_steps}")

    @property
    def dt(self):
        return self.t_final / self.n_steps


@dataclass(frozen=True)
class EnergyTraceRow:
    """Squared energy-norm components of one recorded state."""

    step: int
    time: float
    e_fluid: float            # ||u||^2 over the fluid
    e_solid_potential: float  # (sigma(w), eps(w)) + ||w||^2 over the solid
    e_solid_kinetic: float    # ||z||^2 over the solid
    dissipation: float        # ||eps(u)||^2 over the fluid
    # relative residual of the solve that produced the state (0 for the
    # initial state, which no solve produced); not part of the CSV
    solve_residual: float = 0.0

    @property
    def e_total(self):
        return self.e_fluid + self.e_solid_potential + self.e_solid_kinetic


@dataclass
class EnergyTrace:
    rows: list


def _h_terms(space, params: MaterialParams, a, b: FsiState):
    """The fluid, solid-potential and solid-kinetic terms of (a, b)_H.

    `a` is a state or resolvent data Y* = (u*, w*, z*), whose fluid part
    enters through its load vector (u*, phi_i)."""
    fops = fem.fluid_operators(space)
    sops = fem.solid_operators(space, params)
    if isinstance(a, solver.ResolventData):
        fluid, w, z = sla.dot(a.u_load, b.u), a.w_star, a.z_star
    else:
        fluid, w, z = sla.dot(a.u, fops.mass @ b.u), a.w, a.z
    return fluid, sla.dot(w, sops.energy @ b.w), sla.dot(z, sops.mass @ b.z)


def _dissipation(space, u):
    """||eps(u)||^2 over the fluid."""
    return sla.dot(u, fem.fluid_operators(space).strain @ u)


def h_inner(space, params: MaterialParams, a, b: FsiState) -> float:
    """(a, b)_H = (u_a, u_b) + (sigma(w_a), eps(w_b)) + (w_a, w_b) + (z_a, z_b);
    `a` may be resolvent data, paired through its fluid load vector."""
    fluid, potential, kinetic = _h_terms(space, params, a, b)
    return float(fluid + potential + kinetic)


def energy_components(space, params: MaterialParams, state: FsiState):
    """(fluid, solid potential, solid kinetic) squared norms and the
    dissipation integrand ||eps(u)||^2."""
    e_fluid, e_pot, e_kin = _h_terms(space, params, state, state)
    return float(e_fluid), float(e_pot), float(e_kin), float(_dissipation(space, state.u))


def h_norm(space, state: FsiState, params: MaterialParams) -> float:
    """Energy norm sqrt(||u||^2 + (sigma(w),eps(w)) + ||w||^2 + ||z||^2)."""
    return math.sqrt(max(h_inner(space, params, state, state), 0.0))


def _trace_row(space, params, state, step, time, solve_residual):
    e_fluid, e_pot, e_kin, dis = energy_components(space, params, state)
    return EnergyTraceRow(step=step, time=time, e_fluid=e_fluid,
                          e_solid_potential=e_pot, e_solid_kinetic=e_kin,
                          dissipation=dis, solve_residual=solve_residual)


class Stepper:
    """Backward-Euler stepper with one shared factorization per dt.

    It holds its operator, so the factorization survives requests to the
    space at other parameter sets.  The factor is double: a stepper makes
    hundreds of solves per factor, and a refined single-precision solve
    costs two to three times a double one."""

    def __init__(self, space, params: MaterialParams):
        self.space = space
        self.params = params
        self.op = solver._operator(space, params, "double")

    def step(self, state: FsiState, step_index=0, time=0.0):
        """One resolvent factor (lam I - A_h)^{-1} (lam Y) with lam = 1/dt:
        the new state (its pressure in `.pi`) and its energy-trace row."""
        data = self.op.data_from_state(state, scale=self.params.shift)
        new_state, report = self.op.solve(data)
        row = _trace_row(self.space, self.params, new_state, step_index, time,
                         report.residual)
        return new_state, row


@dataclass
class EvolutionResult:
    trace: EnergyTrace
    final_state: FsiState
    energy_initial_sq: float
    energy_final_sq: float
    dissipation_physical: float   # sum over steps of 2 dt ||eps(u_{k+1})||^2
    dissipation_numerical: float  # sum over steps of ||Y_{k+1} - Y_k||_H^2
    solve_residual_max: float     # largest relative residual of the step solves

    @property
    def balance_residual(self):
        """Relative defect of the discrete energy balance."""
        drop = self.energy_initial_sq - self.energy_final_sq
        total = self.dissipation_physical + self.dissipation_numerical
        return abs(drop - total) / max(self.energy_initial_sq, 1e-300)


def evolve(space, params: MaterialParams, initial: FsiState,
           config: EvolutionConfig) -> EvolutionResult:
    """March n_steps of backward Euler, recording the energy trace and the
    cumulative dissipation budget."""
    dt = config.dt
    stepper = Stepper(space, replace(params, shift=1.0 / dt))
    state = initial
    row = _trace_row(space, params, initial, 0, 0.0, 0.0)
    rows = [row]
    e0_sq = row.e_total
    phys = 0.0
    num = 0.0
    worst = 0.0
    for k in range(1, config.n_steps + 1):
        prev = state
        state, row = stepper.step(state, step_index=k, time=k * dt)
        phys += 2.0 * dt * row.dissipation
        worst = max(worst, row.solve_residual)
        diff = FsiState(state.u - prev.u, state.w - prev.w, state.z - prev.z)
        num += h_inner(space, params, diff, diff)
        rows.append(row)
    return EvolutionResult(trace=EnergyTrace(rows), final_state=state,
                           energy_initial_sq=e0_sq, energy_final_sq=row.e_total,
                           dissipation_physical=phys, dissipation_numerical=num,
                           solve_residual_max=worst)


def generator_quadratic_form(space, params: MaterialParams,
                             data: solver.ResolventData):
    """Solve the resolvent and return ((A_h Y, Y)_H, ||eps(u_h)||^2).

    A_h Y = lam Y - Y* by definition of the resolvent, so the quadratic
    form is lam (Y, Y)_H - (Y*, Y)_H with the data paired through its load
    vector on the fluid side."""
    lam = params.shift
    state, _ = solver.solve_resolvent(space, params, data)
    yy = h_inner(space, params, state, state)
    ys_y = h_inner(space, params, data, state)
    return float(lam * yy - ys_y), float(_dissipation(space, state.u))

