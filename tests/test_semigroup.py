import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import plant_step_fault, zero_data, zero_state
from fsifem import fem, helper, mesh, semigroup, solver, sparse as sla


def _random_data(space, rng):
    return solver.data_from_vectors(
        space,
        rng.standard_normal(space.num_velocity_dofs),
        rng.standard_normal(space.num_solid_dofs),
        rng.standard_normal(space.num_solid_dofs))


def _smooth_state(space, params, rng, passes=3):
    """Resolvent-smoothed random state (discretely in the generator domain)."""
    data = _random_data(space, rng)
    state, _ = solver.solve_resolvent(space, params, data)
    for _ in range(passes - 1):
        state, _ = solver.solve_resolvent(
            space, params, solver.data_from_vectors(space, state.u, state.w, state.z))
    return solver.FsiState(state.u, state.w, state.z)


# -- energy norm -------------------------------------------------------------

_ENERGY_HEX = """
import numpy as np
from fsifem import fem, mesh, semigroup, solver
space = fem.build_space(mesh.generate(3))
params = fem.MaterialParams(lame_lambda=1.0, lame_mu=1.0, shift=1.0)
rng = np.random.default_rng(7)
state, other = solver.random_state(space, rng), solver.random_state(space, rng)
data = solver.data_from_vectors(space, other.u, other.w, other.z)
values = (*semigroup.energy_components(space, params, state),
          semigroup.h_inner(space, params, data, state),
          *semigroup.generator_quadratic_form(space, params, data))
print(" ".join(float(v).hex() for v in values))
space0 = fem.build_space(mesh.generate(0))
data0 = solver.data_from_vectors(space0, *(rng.standard_normal(n) for n in (
    space0.num_velocity_dofs, space0.num_solid_dofs, space0.num_solid_dofs)))
mono = solver.monolithic_solve(space0, params, data0)
print(np.concatenate([mono.u, mono.w, mono.z, mono.pi]).tobytes().hex())
space5 = fem.build_space(mesh.generate(5))
pi = rng.standard_normal(space5.num_pressure_dofs)
print(solver.decompose_pressure(space5, pi)[1].hex())
"""


def test_energy_products_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot of a level-3 velocity vector or a level-5
    # pressure vector among its threads, and a dense LAPACK solve's
    # blocking of the level-0 oracle with them
    src = str(Path(fem.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", _ENERGY_HEX], env=env,
                                  capture_output=True, text=True, check=True).stdout)
    assert out[0] == out[1]

def test_h_norm_zero(space0, params):
    assert semigroup.h_norm(space0, zero_state(space0), params) == 0.0


def test_h_norm_homogeneity(space0, params, rng):
    state = solver.random_state(space0, rng)
    doubled = solver.FsiState(2 * state.u, 2 * state.w, 2 * state.z)
    assert semigroup.h_norm(space0, doubled, params) == pytest.approx(
        2 * semigroup.h_norm(space0, state, params), rel=1e-13)


def test_h_norm_against_dense_gram(space0, params, rng):
    state = solver.random_state(space0, rng)
    sops = fem.solid_operators(space0, params)
    gram_fluid = fem.fluid_mass(space0).toarray()
    gram_solid = (sops.stiffness + sops.mass).toarray()
    gram_kin = sops.mass.toarray()
    expected = np.sqrt(state.u @ gram_fluid @ state.u
                       + state.w @ gram_solid @ state.w
                       + state.z @ gram_kin @ state.z)
    assert semigroup.h_norm(space0, state, params) == pytest.approx(expected, rel=1e-12)


def test_trace_total_is_component_sum(space0, params, rng):
    state = solver.random_state(space0, rng)
    e_fluid, e_pot, e_kin, _ = semigroup.energy_components(space0, params, state)
    row = semigroup.EnergyTraceRow(0, 0.0, e_fluid, e_pot, e_kin, 0.0)
    assert row.e_total == e_fluid + e_pot + e_kin


def test_h_inner_matches_separate_sum_formula_bitwise(space1, params, rng):
    # the formulas that rebuilt K_sigma + M_s at every call, with the
    # energy products' BLAS-free dot
    def dot(x, y):
        return np.add.reduce(x * y)

    fops = fem.fluid_operators(space1)
    mass = fem.fluid_mass(space1)
    sops = fem.solid_operators(space1, params)
    a, b = solver.random_state(space1, rng), solver.random_state(space1, rng)
    data = _random_data(space1, rng)
    assert semigroup.h_inner(space1, params, a, b) == float(
        dot(a.u, mass @ b.u) + dot(a.w, (sops.stiffness + sops.mass) @ b.w)
        + dot(a.z, sops.mass @ b.z))
    assert semigroup.energy_components(space1, params, a) == (
        float(dot(a.u, mass @ a.u)),
        float(dot(a.w, (sops.stiffness + sops.mass) @ a.w)),
        float(dot(a.z, sops.mass @ a.z)),
        float(dot(a.u, fops.strain @ a.u)))
    state, _ = solver.solve_resolvent(space1, params, data)
    yy = (dot(state.u, mass @ state.u)
          + dot(state.w, (sops.stiffness + sops.mass) @ state.w)
          + dot(state.z, sops.mass @ state.z))
    ys_y = (dot(data.u_load, state.u)
            + dot(data.w_star, (sops.stiffness + sops.mass) @ state.w)
            + dot(data.z_star, sops.mass @ state.z))
    assert semigroup.generator_quadratic_form(space1, params, data) == (
        float(params.shift * yy - ys_y), float(dot(state.u, fops.strain @ state.u)))


# -- single step -------------------------------------------------------------

def test_step_zero_state_is_equilibrium(space0):
    params = fem.MaterialParams(shift=100.0)
    state, row = semigroup.Stepper(space0, params).step(zero_state(space0))
    assert np.all(state.u == 0.0) and np.all(state.w == 0.0) and np.all(state.z == 0.0)
    assert np.all(state.pi == 0.0)
    assert row.e_total == 0.0


def test_step_contracts(space0, rng):
    params_step = fem.MaterialParams(shift=100.0)
    reference = fem.MaterialParams(shift=1.0)
    stepper = semigroup.Stepper(space0, params_step)
    state = solver.random_state(space0, rng)
    before = semigroup.h_norm(space0, state, reference)
    after_state, _ = stepper.step(state)
    after = semigroup.h_norm(space0, after_state, reference)
    assert after <= before * (1 + 1e-12)


def test_repeated_step_monotone_many_states(space0, rng):
    # dt = 0.01, a run of steps from many random initial states
    params_step = fem.MaterialParams(shift=100.0)
    reference = fem.MaterialParams(shift=1.0)
    stepper = semigroup.Stepper(space0, params_step)
    for _ in range(100):
        state = solver.random_state(space0, rng)
        previous = semigroup.h_norm(space0, state, reference)
        for _ in range(3):
            state, _ = stepper.step(state)
            current = semigroup.h_norm(space0, state, reference)
            assert current <= previous * (1 + 1e-12)
            previous = current


# -- evolution ---------------------------------------------------------------

def test_evolve_zero_initial_flat_trace(space0, params):
    config = semigroup.EvolutionConfig(t_final=0.1, n_steps=5)
    result = semigroup.evolve(space0, params, zero_state(space0), config)
    assert all(row.e_total == 0.0 for row in result.trace.rows)
    assert result.dissipation_physical == 0.0


def test_evolve_assembles_the_velocity_mass_once(mesh0, params, rng, assembled_forms):
    space = fem.build_space(mesh0)
    config = semigroup.EvolutionConfig(t_final=0.1, n_steps=5)
    with assembled_forms() as forms:
        semigroup.evolve(space, params, solver.random_state(space, rng), config)
    assert forms.count("fluid_mass") == 1


def test_evolve_contracts_energy(space1, params, rng):
    config = semigroup.EvolutionConfig(t_final=0.5, n_steps=25)
    result = semigroup.evolve(space1, params, solver.random_state(space1, rng), config)
    assert result.energy_final_sq <= result.energy_initial_sq
    totals = [row.e_total for row in result.trace.rows]
    assert all(totals[k + 1] <= totals[k] * (1 + 1e-12) for k in range(len(totals) - 1))


def test_evolve_energy_balance_exact(space1, params, rng):
    config = semigroup.EvolutionConfig(t_final=1.0, n_steps=100)
    result = semigroup.evolve(space1, params, solver.random_state(space1, rng), config)
    assert result.balance_residual <= 1e-6
    drop = result.energy_initial_sq - result.energy_final_sq
    assert drop >= (1 - 1e-6) * result.dissipation_physical


def test_evolve_dissipation_budget(space0, params, rng):
    config = semigroup.EvolutionConfig(t_final=0.4, n_steps=40)
    result = semigroup.evolve(space0, params, solver.random_state(space0, rng), config)
    # discrete analogue of u in L^2(0,T; H^1): budget bounded by E(0)^2
    assert 0.5 * result.dissipation_physical <= result.energy_initial_sq


def test_evolve_dt_refinement_first_order(space1, params, rng):
    initial = _smooth_state(space1, params, rng)

    def final_state(n_steps):
        config = semigroup.EvolutionConfig(t_final=0.5, n_steps=n_steps)
        return semigroup.evolve(space1, params, initial, config).final_state

    states = {n: final_state(n) for n in (10, 20, 40)}

    def gap(a, b):
        return semigroup.h_norm(
            space1, solver.FsiState(a.u - b.u, a.w - b.w, a.z - b.z), params)

    ratio = gap(states[10], states[20]) / gap(states[20], states[40])
    assert 1.6 <= ratio <= 2.4


def test_pressure_step_difference_shrinks_with_dt(space0, params, rng):
    # discrete restatement of pressure continuity in time
    initial = _smooth_state(space0, params, rng)

    def max_jump(n_steps):
        stepper = semigroup.Stepper(
            space0, fem.MaterialParams(params.lame_lambda, params.lame_mu,
                                       n_steps / 0.2))
        state, jumps, prev = initial, [], None
        for _ in range(n_steps):
            state, _ = stepper.step(state)
            if prev is not None:
                jumps.append(np.linalg.norm(state.pi - prev))
            prev = state.pi
        return max(jumps)

    assert max_jump(32) < max_jump(8)


def test_evolve_keeps_largest_step_residual(space0, params, rng):
    config = semigroup.EvolutionConfig(t_final=0.2, n_steps=10)
    result = semigroup.evolve(space0, params, solver.random_state(space0, rng), config)
    rows = result.trace.rows
    assert rows[0].solve_residual == 0.0          # the initial state: no solve
    assert 0.0 < result.solve_residual_max <= 1e-10
    assert result.solve_residual_max == max(r.solve_residual for r in rows[1:])


# `helper._helper_cpus` stand-ins: no helper thread, or one on any CPU of
# this process (the caller's own too), whatever the machine
def _no_helper(jobs):
    return set()


def _helper_on_any_cpu(jobs):
    return os.sched_getaffinity(0)


def _serial_evolution(space, params, initial, config):
    """The rows, final state and sums of `evolve` from a plain loop of
    `Stepper.step`, each sum added in step order."""
    dt = config.dt
    stepper = semigroup.Stepper(space, fem.MaterialParams(
        params.lame_lambda, params.lame_mu, 1.0 / dt))
    state = initial
    rows = [semigroup.EnergyTraceRow(0, 0.0, *semigroup.energy_components(
        space, params, initial))]
    phys = num = worst = 0.0
    for k in range(1, config.n_steps + 1):
        prev = state
        state, row = stepper.step(state, step_index=k, time=k * dt)
        phys += 2.0 * dt * row.dissipation
        worst = max(worst, row.solve_residual)
        diff = solver.FsiState(state.u - prev.u, state.w - prev.w, state.z - prev.z)
        num += semigroup.h_inner(space, params, diff, diff)
        rows.append(row)
    return rows, state, phys, num, worst


@pytest.mark.parametrize("level", [0, 1, 2])
def test_evolve_pipeline_changes_no_bit(level, params, monkeypatch):
    space = fem.build_space(mesh.generate(level))
    initial = solver.random_state(space, np.random.default_rng(level))
    config = semigroup.EvolutionConfig(t_final=0.12, n_steps=12)
    results = []
    monkeypatch.setattr(helper, "_helper_cpus", _no_helper)
    results.append(semigroup.evolve(space, params, initial, config))
    monkeypatch.setattr(helper, "_helper_cpus", _helper_on_any_cpu)
    # the threads trade the interpreter lock a thousand times more often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-6)
    try:
        results.append(semigroup.evolve(space, params, initial, config))
    finally:
        sys.setswitchinterval(interval)
    rows, state, phys, num, worst = _serial_evolution(space, params, initial, config)
    for result in results:
        assert result.trace.rows == rows
        for name in ("u", "w", "z", "pi"):
            assert np.array_equal(getattr(result.final_state, name), getattr(state, name))
        assert (result.dissipation_physical, result.dissipation_numerical,
                result.solve_residual_max) == (phys, num, worst)
    assert results[0].balance_residual == results[1].balance_residual
    assert threading.enumerate() == [threading.main_thread()]


def test_evolve_on_one_cpu_starts_no_thread(space0, params, rng, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a helper thread was started on one CPU")

    monkeypatch.setattr(helper.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(helper, "ThreadPoolExecutor", no_pool)
    config = semigroup.EvolutionConfig(t_final=0.05, n_steps=5)
    result = semigroup.evolve(space0, params, solver.random_state(space0, rng), config)
    assert len(result.trace.rows) == 6


@pytest.mark.parametrize("cpus, solves", [(_no_helper, 3), (_helper_on_any_cpu, 4)],
                         ids=["inline", "helper"])
def test_planted_fault_at_step_3_raises_there(cpus, solves, params, rng, monkeypatch):
    monkeypatch.setattr(helper, "_helper_cpus", cpus)
    planted = plant_step_fault(monkeypatch, 3)
    space = fem.build_space(mesh.generate(0))
    config = semigroup.EvolutionConfig(t_final=0.1, n_steps=10)
    with pytest.raises(sla.SolveAccuracyError) as err:
        semigroup.evolve(space, params, solver.random_state(space, rng), config)
    # step 3's own residual, about 1e-6, not step 4's, whose solve is exact;
    # with a helper, step 4 was solved while step 3 was checked, and step 5
    # never was
    assert 1e-8 < err.value.report.residual < 1e-4
    assert [lu.calls for lu in planted] == [1 + solves]
    assert threading.enumerate() == [threading.main_thread()]


def test_planted_fault_at_step_3_raises_in_stepper_step(params, rng, monkeypatch):
    planted = plant_step_fault(monkeypatch, 3)
    space = fem.build_space(mesh.generate(0))
    stepper = semigroup.Stepper(space, fem.MaterialParams(shift=100.0))
    state = solver.random_state(space, rng)
    for _ in range(2):
        state, _ = stepper.step(state)
    with pytest.raises(sla.SolveAccuracyError) as err:
        stepper.step(state)
    assert 1e-8 < err.value.report.residual < 1e-4
    assert [lu.calls for lu in planted] == [1 + 3]


def test_config_validation():
    with pytest.raises(ValueError):
        semigroup.EvolutionConfig(t_final=0.0, n_steps=5)
    with pytest.raises(ValueError):
        semigroup.EvolutionConfig(t_final=1.0, n_steps=0)
    for t_final in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^t_final must be .*finite"):
            semigroup.EvolutionConfig(t_final=t_final, n_steps=5)


@pytest.mark.parametrize("n_steps", [2.5, 2.0, True, "3", np.float64(3.0)])
def test_config_refuses_a_step_count_that_is_no_integer(n_steps):
    # 2.5 would pass here and fail inside `evolve`, after the factorization
    with pytest.raises(ValueError, match="^n_steps must be a positive integer"):
        semigroup.EvolutionConfig(t_final=1.0, n_steps=n_steps)
    assert semigroup.EvolutionConfig(t_final=1.0, n_steps=np.int64(4)).dt == 0.25


# -- dissipativity identity --------------------------------------------------

def test_energy_identity_zero_data(space0, params):
    qform, dissipation = semigroup.generator_quadratic_form(space0, params,
                                                            zero_data(space0))
    assert qform == 0.0 and dissipation == 0.0


def test_energy_identity_manufactured(solved1, params, case):
    space, data, _, _ = solved1
    qform, dissipation = semigroup.generator_quadratic_form(space, params, data)
    assert abs(qform + dissipation) <= 1e-8 * max(1.0, dissipation)
    assert qform <= 0.0


def test_generator_sign_many_random(space1, params, rng):
    for _ in range(50):
        data = _random_data(space1, rng)
        qform, dissipation = semigroup.generator_quadratic_form(space1, params, data)
        assert qform <= 1e-10 * max(1.0, dissipation)
        assert abs(qform + dissipation) <= 1e-8 * max(1.0, dissipation)


# -- kernel of the generator -------------------------------------------------

def test_generator_kernel_is_the_pressurized_solid_state(space0, params):
    # R(1) = (I - A_h)^{-1} densely over (free u, w, z), one solve per unit
    # vector; A_h has eigenvalue mu = 1 - 1/rho for each eigenvalue rho of R
    space = space0
    op = solver._operator(space, params)
    free = space.free_velocity_dofs
    nf, ns = free.size, space.num_solid_dofs
    n = nf + 2 * ns

    def coords(state):
        return np.concatenate([state.u[free], state.w, state.z])

    def state_of(y):
        return solver.FsiState(space.expand_velocity(y[:nf]), y[nf:nf + ns], y[nf + ns:])

    r = np.empty((n, n))
    for k in range(n):
        unit = np.zeros(n)
        unit[k] = 1.0
        r[:, k] = coords(op.solve(op.data_from_state(state_of(unit)))[0])
    rho, vectors = np.linalg.eig(r)
    # R maps to zero the data (u*, 0, z*) whose load on the saddle's velocity
    # and solid rows is a pressure gradient (B^T q, 0): one direction per
    # pressure and per interface dof
    keep = np.abs(rho) > 1e-8
    assert keep.sum() == n - space.num_pressure_dofs - space.num_iface_dofs
    mu = 1.0 - 1.0 / rho[keep]
    assert mu.real.max() <= 1e-12
    zero = np.flatnonzero(np.abs(mu) < 1e-9)
    assert zero.size == 1
    # the kernel is a displaced solid at rest, held by a constant pressure
    y = np.real(vectors[:, keep][:, zero[0]])
    u, w, z = y[:nf], y[nf:nf + ns], y[nf + ns:]
    assert np.linalg.norm(u) <= 1e-12 * np.linalg.norm(w)
    assert np.linalg.norm(z) <= 1e-12 * np.linalg.norm(w)
    pi = op.solve(op.data_from_state(state_of(y)))[0].pi
    assert np.ptp(pi) <= 1e-12 * np.abs(pi).max()
