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

`evolve` pipelines its steps.  A step is a solve, which needs only the
state before it, and a second half that certifies it: the solve's
residual gate, the energy row and ||Y_k - Y_{k-1}||_H^2.  The calling
thread solves step k + 1 while the package's helper thread
(`helper.thread`) finishes step k, and the rows and sums are added in
step order, so the trace is bitwise that of `Stepper.step` in a loop.  At
level 3 the triangular solves are most of a step, and the second half
hides behind them.

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
from functools import partial

from . import fem, helper, solver, sparse as sla
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


def _h_terms(space, params: MaterialParams, a, b: FsiState, mass_u=None):
    """The fluid, solid-potential and solid-kinetic terms of (a, b)_H.

    `a` is a state or resolvent data Y* = (u*, w*, z*), whose fluid part
    enters through its load vector (u*, phi_i).  `mass_u` is the product
    M_f b.u where the caller already holds it."""
    sops = fem.solid_operators(space, params)
    if isinstance(a, solver.ResolventData):
        fluid, w, z = sla.dot(a.u_load, b.u), a.w_star, a.z_star
    else:
        if mass_u is None:
            mass_u = fem.fluid_mass(space) @ b.u
        fluid, w, z = sla.dot(a.u, mass_u), a.w, a.z
    return fluid, sla.dot(w, sops.energy @ b.w), sla.dot(z, sops.mass @ b.z)


def _dissipation(space, u):
    """||eps(u)||^2 over the fluid."""
    return sla.dot(u, fem.fluid_operators(space).strain @ u)


def h_inner(space, params: MaterialParams, a, b: FsiState) -> float:
    """(a, b)_H = (u_a, u_b) + (sigma(w_a), eps(w_b)) + (w_a, w_b) + (z_a, z_b);
    `a` may be resolvent data, paired through its fluid load vector."""
    fluid, potential, kinetic = _h_terms(space, params, a, b)
    return float(fluid + potential + kinetic)


def energy_components(space, params: MaterialParams, state: FsiState, mass_u=None):
    """(fluid, solid potential, solid kinetic) squared norms and the
    dissipation integrand ||eps(u)||^2; `mass_u` is M_f u where the caller
    already holds it."""
    e_fluid, e_pot, e_kin = _h_terms(space, params, state, state, mass_u)
    return float(e_fluid), float(e_pot), float(e_kin), float(_dissipation(space, state.u))


def h_norm(space, state: FsiState, params: MaterialParams) -> float:
    """Energy norm sqrt(||u||^2 + (sigma(w),eps(w)) + ||w||^2 + ||z||^2)."""
    return math.sqrt(max(h_inner(space, params, state, state), 0.0))


def _trace_row(space, params, state, mass_u, step, time, solve_residual):
    e_fluid, e_pot, e_kin, dis = energy_components(space, params, state, mass_u)
    return EnergyTraceRow(step=step, time=time, e_fluid=e_fluid,
                          e_solid_potential=e_pot, e_solid_kinetic=e_kin,
                          dissipation=dis, solve_residual=solve_residual)


class Stepper:
    """Backward-Euler stepper with one shared factorization per dt.

    It holds its operator, so the factorization survives requests to the
    space at other parameter sets.  The factor is double: a stepper makes
    hundreds of solves per factor, and a refined single-precision solve
    costs two to three times a double one.  `step` runs a step's two
    halves (`evolve`) one after the other on the calling thread."""

    def __init__(self, space, params: MaterialParams):
        self.space = space
        self.params = params
        self.op = solver._operator(space, params, "double")

    def step(self, state: FsiState, step_index=0, time=0.0):
        """One resolvent factor (lam I - A_h)^{-1} (lam Y) with lam = 1/dt:
        the new state (its pressure in `.pi`) and its energy-trace row.
        The solve's residual gate runs before the row is made, and a
        failed gate raises SolveAccuracyError."""
        mass_f = self.op.mass_f
        data = self.op.data_from_state(state, self.params.shift, mass_f @ state.u)
        new_state, check = self.op.deferred_solve(data)
        residual = check().residual
        return new_state, _trace_row(self.space, self.params, new_state,
                                     mass_f @ new_state.u, step_index, time, residual)


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
    cumulative dissipation budget.

    Each step is `Stepper.step` cut in two.  The solve half runs on the
    calling thread; the other half, the residual gate of the solve, the
    energy row and the term ||Y_k - Y_{k-1}||_H^2, runs on the helper
    thread (`helper.thread`) while the calling thread solves step k + 1,
    which needs only the state.  The caller joins step k's half before it
    hands over step k + 1's, and adds the rows and sums in step order, so
    every bit is that of the serial loop.  The second half overlaps the
    solve only inside its numpy and scipy calls: its Python code holds
    the interpreter lock that the solve takes back several times, so a
    pipelined solve is slower than a serial one (`sparse`).  Without a
    second CPU both halves of a step run inline, one after the other.  No
    state leaves unchecked: a failed gate raises SolveAccuracyError, on
    the helper at the join after the next solve, also when that solve
    fails, and nothing is returned."""
    dt = config.dt
    stepper = Stepper(space, replace(params, shift=1.0 / dt))
    op = stepper.op
    lam = stepper.params.shift
    state, mass_u = initial, op.mass_f @ initial.u
    row = _trace_row(space, params, initial, mass_u, 0, 0.0, 0.0)
    rows = [row]
    e0_sq = row.e_total
    phys = 0.0
    num = 0.0
    worst = 0.0

    def finish(k, check, new, new_mass_u, prev):
        """Step k's checked energy row and ||Y_k - Y_{k-1}||_H^2."""
        row = _trace_row(space, params, new, new_mass_u, k, k * dt, check().residual)
        diff = FsiState(new.u - prev.u, new.w - prev.w, new.z - prev.z)
        return row, h_inner(space, params, diff, diff)

    halves = []   # (row, ||Y_k - Y_{k-1}||_H^2) of each step, in step order
    with helper.thread(config.n_steps) as submit:
        pending = None   # the second half of the step before, on the helper
        for k in range(1, config.n_steps + 1):
            try:
                new, check = op.deferred_solve(op.data_from_state(state, lam, mass_u))
            except BaseException:
                if pending is not None:
                    pending()   # the step before failed first
                raise
            new_mass_u = op.mass_f @ new.u
            job = partial(finish, k, check, new, new_mass_u, state)
            if pending is not None:
                halves.append(pending())
            if submit is None:
                halves.append(job())
            else:
                pending = submit(job)
            state, mass_u = new, new_mass_u
        if pending is not None:
            halves.append(pending())
    for row, diff_sq in halves:
        phys += 2.0 * dt * row.dissipation
        worst = max(worst, row.solve_residual)
        num += diff_sq
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

