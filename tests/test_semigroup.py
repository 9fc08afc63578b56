import numpy as np
import pytest

from fsifem import fem, semigroup, solver


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

def test_h_norm_zero(space0, params):
    assert semigroup.h_norm(space0, solver.zero_state(space0), params) == 0.0


def test_h_norm_homogeneity(space0, params, rng):
    state = solver.random_state(space0, rng)
    doubled = solver.FsiState(2 * state.u, 2 * state.w, 2 * state.z)
    assert semigroup.h_norm(space0, doubled, params) == pytest.approx(
        2 * semigroup.h_norm(space0, state, params), rel=1e-13)


def test_h_norm_against_dense_gram(space0, params, rng):
    state = solver.random_state(space0, rng)
    fops = fem.fluid_operators(space0)
    sops = fem.solid_operators(space0, params)
    gram_fluid = fops.mass.toarray()
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
    # the formulas that rebuilt K_sigma + M_s at every call
    fops = fem.fluid_operators(space1)
    sops = fem.solid_operators(space1, params)
    a, b = solver.random_state(space1, rng), solver.random_state(space1, rng)
    data = _random_data(space1, rng)
    assert semigroup.h_inner(space1, params, a, b) == float(
        a.u @ (fops.mass @ b.u) + a.w @ ((sops.stiffness + sops.mass) @ b.w)
        + a.z @ (sops.mass @ b.z))
    assert semigroup.energy_components(space1, params, a) == (
        float(a.u @ (fops.mass @ a.u)),
        float(a.w @ ((sops.stiffness + sops.mass) @ a.w)),
        float(a.z @ (sops.mass @ a.z)),
        float(a.u @ (fops.strain @ a.u)))
    state, _ = solver.solve_resolvent(space1, params, data)
    yy = (state.u @ (fops.mass @ state.u)
          + state.w @ ((sops.stiffness + sops.mass) @ state.w)
          + state.z @ (sops.mass @ state.z))
    ys_y = (data.u_load @ state.u
            + data.w_star @ ((sops.stiffness + sops.mass) @ state.w)
            + data.z_star @ (sops.mass @ state.z))
    assert semigroup.generator_quadratic_form(space1, params, data) == (
        float(params.shift * yy - ys_y), float(state.u @ (fops.strain @ state.u)))


# -- single step -------------------------------------------------------------

def test_step_zero_state_is_equilibrium(space0):
    params = fem.MaterialParams(shift=100.0)
    state, row = semigroup.Stepper(space0, params).step(solver.zero_state(space0))
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
    result = semigroup.evolve(space0, params, solver.zero_state(space0), config)
    assert all(row.e_total == 0.0 for row in result.trace.rows)
    assert result.dissipation_physical == 0.0


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


def test_config_validation():
    with pytest.raises(ValueError):
        semigroup.EvolutionConfig(t_final=0.0, n_steps=5)
    with pytest.raises(ValueError):
        semigroup.EvolutionConfig(t_final=1.0, n_steps=0)


# -- dissipativity identity --------------------------------------------------

def test_energy_identity_zero_data(space0, params):
    qform, dissipation = semigroup.generator_quadratic_form(space0, params,
                                                            solver.zero_data(space0))
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


def test_trace_csv_columns(space0, params, rng):
    config = semigroup.EvolutionConfig(t_final=0.1, n_steps=2)
    result = semigroup.evolve(space0, params, solver.random_state(space0, rng), config)
    lines = result.trace.csv().splitlines()
    assert lines[0] == ("step,time,E_total,E_fluid,E_solid_potential,"
                        "E_solid_kinetic,dissipation")
    assert len(lines) == 1 + len(result.trace.rows)
