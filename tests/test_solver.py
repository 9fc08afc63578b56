import numpy as np
import pytest
import scipy.sparse as sp

from fsifem import analysis, fem, mesh as meshmod, semigroup, solver, sparse as sla


def _random_data(space, rng):
    return solver.data_from_vectors(
        space,
        rng.standard_normal(space.num_velocity_dofs),
        rng.standard_normal(space.num_solid_dofs),
        rng.standard_normal(space.num_solid_dofs))


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# -- Dirichlet map -----------------------------------------------------------

def test_dirichlet_map_zero_data(space0, params):
    dmap = solver.dirichlet_map(space0, params)
    assert np.all(dmap.columns @ np.zeros(space0.num_iface_dofs) == 0.0)


def test_dirichlet_map_traces_are_nodal(space0, params):
    dmap = solver.dirichlet_map(space0, params)
    trace = dmap.columns[space0.iface_solid_dofs]
    assert np.array_equal(trace, np.eye(space0.num_iface_dofs))


def test_dirichlet_map_matches_dense_oracle(space0, params):
    dmap = solver.dirichlet_map(space0, params)
    s_dense = dmap.s_matrix.toarray()
    ii = space0.solid_interior_dofs
    bb = space0.iface_solid_dofs
    j = 3  # single interface basis trace
    interior = np.linalg.solve(s_dense[np.ix_(ii, ii)], -s_dense[ii, bb[j]])
    oracle = np.zeros(space0.num_solid_dofs)
    oracle[bb[j]] = 1.0
    oracle[ii] = interior
    assert _rel(dmap.columns[:, j], oracle) <= 1e-10


def test_dirichlet_map_interior_residual(space1, params):
    dmap = solver.dirichlet_map(space1, params)
    residual = (dmap.s_matrix @ dmap.columns)[space1.solid_interior_dofs]
    scale = np.abs(dmap.s_matrix.data).max()
    assert np.abs(residual).max() <= 1e-10 * scale


def test_dirichlet_map_energy_optimality(space0, params, rng):
    dmap = solver.dirichlet_map(space0, params)
    s = dmap.s_matrix
    col = dmap.columns[:, 11]
    base = col @ (s @ col)
    for _ in range(10):
        perturbation = np.zeros(space0.num_solid_dofs)
        perturbation[space0.solid_interior_dofs] = rng.standard_normal(
            space0.solid_interior_dofs.size)
        other = col + perturbation          # same trace, different interior
        assert other @ (s @ other) >= base - 1e-12 * base


# -- solid resolvent inverse -------------------------------------------------

def test_solid_inverse_zero(space0, params):
    w = solver.solid_resolvent_inverse(space0, params, np.zeros(space0.num_solid_dofs))
    assert np.all(w == 0.0)


def test_solid_inverse_matches_dense_oracle(space0, params, rng):
    coeffs = rng.standard_normal(space0.num_solid_dofs)
    mass = fem.solid_operators(space0, params).mass
    load = mass @ coeffs
    w = solver.solid_resolvent_inverse(space0, params, load)
    dmap = solver.dirichlet_map(space0, params)
    ii = space0.solid_interior_dofs
    s_dense = dmap.s_matrix.toarray()
    oracle = np.zeros(space0.num_solid_dofs)
    oracle[ii] = np.linalg.solve(s_dense[np.ix_(ii, ii)], load[ii])
    assert _rel(w, oracle) <= 1e-10
    assert np.all(w[space0.iface_solid_dofs] == 0.0)


def test_solid_operator_lower_bound(space0, params, rng):
    # (L_lam w, w) >= (lam^2 + 1) ||w||^2: the stress form is nonnegative
    sops = fem.solid_operators(space0, params)
    lam = params.shift
    s = sops.stiffness + (lam * lam + 1.0) * sops.mass
    for _ in range(20):
        w = rng.standard_normal(space0.num_solid_dofs)
        energy = w @ (s @ w)
        mass_part = (lam * lam + 1.0) * (w @ (sops.mass @ w))
        assert energy >= mass_part - 1e-12 * abs(energy)


# -- assembly ----------------------------------------------------------------

def test_zero_data_zero_rhs(space0, params):
    # zero data must give a zero right-hand side, whose residual the solve
    # reports as exactly 0, and a zero pressure
    op = solver._operator(space0, params)
    state, report = op.solve(solver.zero_data(space0))
    assert report.residual == 0.0
    assert np.all(state.pi == 0.0)


def test_schur_block_symmetry(space0, params):
    a = solver.schur_form(space0, params)
    assert abs(a - a.T).max() <= 1e-12 * abs(a).max()


def test_a_lambda_dominates_strain_form(space0, params, rng):
    # a_lambda(phi, phi) >= ||eps(phi)||^2: the added terms are nonnegative
    a_free = solver.schur_form(space0, params)
    free = space0.free_velocity_dofs
    k_free = fem.fluid_operators(space0).strain[free][:, free]
    for _ in range(100):
        v = rng.standard_normal(free.size)
        a_vv = v @ (a_free @ v)
        k_vv = v @ (k_free @ v)
        assert a_vv >= k_vv - 1e-12 * abs(a_vv)


def test_a_lambda_spd_on_divergence_free_kernel(space0, params, rng):
    a_free = solver.schur_form(space0, params)
    b_free = fem.fluid_operators(space0).div[:, space0.free_velocity_dofs]
    project = solver.kernel_projection(space0)
    for _ in range(20):
        v_ker = project(rng.standard_normal(space0.num_free_velocity_dofs))
        assert np.abs(b_free @ v_ker).max() <= 1e-10
        assert v_ker @ (a_free @ v_ker) > 0.0


def test_kernel_projection_is_m_orthogonal(space0, rng):
    fops = fem.fluid_operators(space0)
    free = space0.free_velocity_dofs
    m_free = fops.mass[free][:, free]
    b_free = fops.div[:, free].toarray()
    project = solver.kernel_projection(space0)
    v = rng.standard_normal(free.size)
    v_ker = project(v)
    # the defect v - P v is M-orthogonal to ker B (dense null-space basis)
    _, sing, vt = np.linalg.svd(b_free)
    kernel = vt[np.count_nonzero(sing > 1e-10 * sing[0]):].T
    defect = kernel.T @ (m_free @ (v - v_ker))
    assert np.abs(defect).max() <= 1e-10 * np.linalg.norm(m_free @ v)
    assert _rel(project(v_ker), v_ker) <= 1e-12


def test_b_has_full_row_rank(space0):
    fops = fem.fluid_operators(space0)
    b = fops.div[:, space0.free_velocity_dofs].toarray()
    rank = np.linalg.matrix_rank(b, tol=1e-10)
    assert rank == space0.num_pressure_dofs


# -- resolvent solve ---------------------------------------------------------

def test_zero_data_zero_state(space0, params):
    state, _ = solver.solve_resolvent(space0, params, solver.zero_data(space0))
    for field in (state.u, state.w, state.z, state.pi):
        assert np.all(field == 0.0)


def test_manufactured_level0_error_magnitude(space0, params, case):
    data = analysis.manufactured_data(space0, case)
    state, _ = solver.solve_resolvent(space0, params, data)
    err = analysis.error_norms(space0, state, state.pi, case, params)
    # order-of-magnitude agreement with the published coarse-mesh value
    assert 5.855e-10 <= err.eu_h1 <= 5.855e-6


def test_monolithic_oracle_equivalence(space0, params, rng):
    data = _random_data(space0, rng)
    schur_state, _ = solver.solve_resolvent(space0, params, data)
    mono = solver.monolithic_solve(space0, params, data)
    assert _rel(schur_state.u, mono.u) <= 1e-10
    assert _rel(schur_state.pi, mono.pi) <= 1e-10
    assert _rel(schur_state.w, mono.w) <= 1e-10


def _schur_solve(space, params, data):
    """The Dirichlet-map Schur solve: the solid condensed into a_lambda by
    E, its state recovered as w = E u|Gamma / lam + w0."""
    lam = params.shift
    fops = fem.fluid_operators(space)
    free = space.free_velocity_dofs
    dmap = solver.dirichlet_map(space, params)
    e, s_e = dmap.columns, dmap.s_matrix @ dmap.columns
    b_free = fops.div[:, free]
    saddle = sp.bmat([[solver.schur_form(space, params), b_free.T], [b_free, None]],
                     format="csr")
    mq = fem.solid_operators(space, params).mass @ (lam * data.w_star + data.z_star)
    w0 = e @ data.w_star[space.iface_solid_dofs] / lam
    w0 += solver.solid_resolvent_inverse(space, params, mq)
    rhs_v = data.u_load[free].copy()
    rhs_v[space.iface_free_dofs] += e.T @ mq - s_e.T @ w0
    x, _ = sla.factorize(saddle, solver.saddle_coordinates(space)).solve(
        np.concatenate([rhs_v, np.zeros(space.num_pressure_dofs)]))
    u = space.expand_velocity(x[:free.size])
    w = e @ u[space.iface_velocity_dofs] / lam + w0
    return solver.FsiState(u=u, w=w, z=lam * w - data.w_star, pi=x[free.size:])


def test_sparse_resolvent_matches_schur_form(params, rng):
    # eliminating v = lam w_i from the sparse resolvent gives the Schur form
    for level in range(4):
        space = fem.build_space(meshmod.generate(level))
        data = _random_data(space, rng)
        assert np.abs(data.w_star).max() > 0 and np.abs(data.z_star).max() > 0
        state, _ = solver.ResolventOperator(space, params).solve(data)
        schur = _schur_solve(space, params, data)
        for field in ("u", "pi", "w", "z"):
            assert _rel(getattr(state, field), getattr(schur, field)) <= 1e-10, (level, field)


def test_euler_step_makes_one_checked_solve(space1, params, rng, monkeypatch):
    stepper = semigroup.Stepper(space1, params)
    calls = []
    real_solve = sla.Factorization.solve

    def counting(self, b, check=True):
        calls.append(check)
        return real_solve(self, b, check)

    monkeypatch.setattr(sla.Factorization, "solve", counting)
    stepper.step(solver.random_state(space1, rng))
    assert calls == [True]


def test_solve_deterministic_bitwise(space0, params, rng):
    data = _random_data(space0, rng)
    s1, _ = solver.solve_resolvent(space0, params, data)
    s2, _ = solver.solve_resolvent(space0, params, data)
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.pi, s2.pi)
    assert np.array_equal(s1.w, s2.w)


def test_operator_rebuild_is_bitwise_identical(space1, params, rng):
    data = _random_data(space1, rng)
    s1, _ = solver.ResolventOperator(space1, params).solve(data)
    s2, _ = solver.ResolventOperator(space1, params).solve(data)
    for a, b in ((s1.u, s2.u), (s1.pi, s2.pi), (s1.w, s2.w), (s1.z, s2.z)):
        assert np.array_equal(a, b)


def _factor_or_error(saddle, xy=None):
    try:
        return sla.factorize(saddle, xy), None
    except sla.SingularMatrixError as err:
        return None, type(err)


def test_nested_dissection_no_worse_than_colamd_over_parameters(monkeypatch):
    # record the saddle matrix (the factorization given coordinates), also
    # when its factorization fails
    saddles = []
    real_factorize = sla.factorize

    def recording(a, xy=None):
        if xy is not None:
            saddles.append(a)
        return real_factorize(a, xy)

    monkeypatch.setattr(sla, "factorize", recording)
    space = fem.build_space(meshmod.generate(2))
    xy = solver.saddle_coordinates(space, space.solid_interior_dofs)
    rng = np.random.default_rng(20241018)
    for shift in (1e-3, 1.0, 1e3):
        for lame_lambda, lame_mu in ((1.0, 1.0), (1e6, 1.0), (1.0, 1e-3), (1.0, 1e3)):
            params = fem.MaterialParams(lame_lambda=lame_lambda, lame_mu=lame_mu,
                                        shift=shift)
            saddles.clear()
            try:
                solver.ResolventOperator(space, params)
            except sla.SingularMatrixError:
                pass
            saddle = saddles[-1]
            assert saddle.shape == (xy.shape[0], xy.shape[0])
            nd, nd_error = _factor_or_error(saddle, xy)
            colamd, colamd_error = _factor_or_error(saddle)
            if colamd is None:
                assert nd_error == colamd_error, params
                continue
            b = rng.standard_normal(saddle.shape[0])
            if nd is None:
                # nested dissection may refuse a pivot only where COLAMD's
                # factor fails the checked solve
                with pytest.raises(sla.SolveAccuracyError):
                    colamd.solve(b)
                continue
            nd_res = nd.solve(b, check=False)[1].residual
            colamd_res = colamd.solve(b, check=False)[1].residual
            assert nd_res <= max(1e-12, 2.0 * colamd_res), (params, nd_res, colamd_res)


def test_interface_trace_identity(space1, params, rng):
    data = _random_data(space1, rng)
    state, _ = solver.solve_resolvent(space1, params, data)
    u_gamma = state.u[space1.iface_velocity_dofs]
    z_gamma = state.z[space1.iface_solid_dofs]
    assert np.abs(u_gamma - z_gamma).max() <= 1e-12 * max(1.0, np.abs(u_gamma).max())


def test_gamma_f_rows_exactly_zero(solved1):
    space, _, state, _ = solved1
    assert np.all(state.u[space.constrained_mask] == 0.0)


# -- pressure decomposition --------------------------------------------------

def test_decompose_constant_pressure(space0):
    pi = np.full(space0.num_pressure_dofs, 5.0)
    q0, c0 = solver.decompose_pressure(space0, pi)
    assert c0 == pytest.approx(5.0, rel=1e-13)
    assert np.abs(q0).max() <= 1e-12


def test_decompose_idempotent(space0, rng):
    pi = rng.standard_normal(space0.num_pressure_dofs)
    q0, _ = solver.decompose_pressure(space0, pi)
    q0_again, c0_again = solver.decompose_pressure(space0, q0)
    assert abs(c0_again) <= 1e-13 * max(1.0, np.abs(pi).max())
    assert np.allclose(q0_again, q0, atol=1e-13)


def test_decompose_mean_zero(space0, rng):
    mp = fem.fluid_operators(space0).pressure_mass
    ones = np.ones(space0.num_pressure_dofs)
    pi = rng.standard_normal(space0.num_pressure_dofs)
    q0, _ = solver.decompose_pressure(space0, pi)
    assert abs(ones @ (mp @ q0)) <= 1e-12 * max(1.0, np.abs(pi).max())


def test_manufactured_c0_small_and_shrinking(params, case):
    values = []
    for level in (1, 2):
        space = fem.build_space(meshmod.generate(level))
        data = analysis.manufactured_data(space, case)
        state, _ = solver.solve_resolvent(space, params, data)
        q0, c0 = solver.decompose_pressure(space, state.pi)
        norm_pi = np.linalg.norm(state.pi)
        assert abs(c0) <= norm_pi
        values.append(abs(c0))
    assert values[1] <= values[0]


# -- interface flux ----------------------------------------------------------

def test_flux_zero_state(space0, params):
    state = solver.zero_state(space0)
    g = np.ones(space0.num_iface_dofs)
    value = solver.interface_flux(space0, params, state, state.pi, g,
                                  solver.zero_data(space0))
    assert value == 0.0


def test_flux_extension_independence(solved1, params, rng):
    space, data, state, _ = solved1
    g = rng.standard_normal(space.num_iface_dofs)
    base = solver.interface_flux(space, params, state, state.pi, g, data)
    extension = np.zeros(space.num_velocity_dofs)
    extension[space.iface_velocity_dofs] = g
    interior = np.setdiff1d(space.free_velocity_dofs, space.iface_velocity_dofs)
    extension[interior[::3]] += rng.standard_normal(interior[::3].size)
    other = solver.interface_flux(space, params, state, state.pi, g, data,
                                  extension=extension)
    assert abs(base - other) <= 1e-9 * max(1.0, abs(base))


def test_flux_rejects_bad_extension(solved1, params, rng):
    space, data, state, _ = solved1
    g = rng.standard_normal(space.num_iface_dofs)
    bad = np.zeros(space.num_velocity_dofs)   # trace does not match g
    with pytest.raises(ValueError, match="trace"):
        solver.interface_flux(space, params, state, state.pi, g, data, extension=bad)
    with pytest.raises(ValueError, match="interface trace"):
        solver.interface_flux(space, params, state, state.pi, g[:-2], data)


def test_flux_matching_all_basis_traces(solved1, params, rng):
    # interface condition: fluid traction equals solid traction
    space, data, state, _ = solved1
    fl = solver._momentum_residual(space, params, state.u, state.pi,
                                   data.u_load)[space.iface_velocity_dofs]
    so = solver._solid_flux_moments(space, params, state, data)
    scale = max(1.0, np.abs(fl).max(), np.abs(so).max())
    assert np.abs(fl - so).max() <= 1e-9 * scale


def test_flux_matching_random_data(space0, params, rng):
    data = _random_data(space0, rng)
    state, _ = solver.solve_resolvent(space0, params, data)
    g = rng.standard_normal(space0.num_iface_dofs)
    fluid = solver.interface_flux(space0, params, state, state.pi, g, data)
    solid = solver.solid_interface_flux(space0, params, state, g, data)
    assert abs(fluid - solid) <= 1e-9 * max(1.0, abs(fluid))


# -- constant-pressure recovery ----------------------------------------------

def test_recover_c0_zero_state(space0, params):
    state = solver.zero_state(space0)
    value = solver.recover_c0(space0, params, state,
                              np.zeros(space0.num_pressure_dofs),
                              solver.zero_data(space0))
    assert value == 0.0


def test_recover_c0_synthetic_constant(space1, params, rng):
    # add a constant to a solved pressure and shift the fluid data by the
    # matching boundary-traction term: the recovery must report it
    data = _random_data(space1, rng)
    state, _ = solver.solve_resolvent(space1, params, data)
    q0, c0_base = solver.decompose_pressure(space1, state.pi)
    shift = 3.7
    normal_moments = np.zeros(space1.num_velocity_dofs)
    normal_moments[space1.iface_velocity_dofs] = fem.iface_normal_moments(space1)
    shifted_data = solver.ResolventData(data.u_load - shift * normal_moments,
                                        data.w_star, data.z_star)
    value = solver.recover_c0(space1, params, state, q0, shifted_data)
    assert value == pytest.approx(c0_base + shift, rel=0.05)


def test_recover_c0_consistent_with_volume_average(params, case):
    gaps = []
    for level in (0, 1, 2):
        space = fem.build_space(meshmod.generate(level))
        data = analysis.manufactured_data(space, case)
        state, _ = solver.solve_resolvent(space, params, data)
        q0, c0 = solver.decompose_pressure(space, state.pi)
        c0_flux = solver.recover_c0(space, params, state, q0, data)
        gaps.append(abs(c0_flux - c0))
    assert gaps[2] <= gaps[0] + 1e-18


# -- domain conditions -------------------------------------------------------

def test_domain_conditions_pass_after_solve(space1, params, rng):
    data = _random_data(space1, rng)
    state, _ = solver.solve_resolvent(space1, params, data)
    report = solver.check_domain_conditions(space1, params, state, state.pi, data)
    assert report.all_passed
    for check in report.checks:
        assert check.residual <= check.tolerance


def test_domain_conditions_detect_corruption(space0, params, rng):
    data = _random_data(space0, rng)
    state, _ = solver.solve_resolvent(space0, params, data)
    corrupted = state.copy()
    bad_dof = np.flatnonzero(space0.constrained_mask)[4]
    corrupted.u[bad_dof] = 0.125
    report = solver.check_domain_conditions(space0, params, corrupted, corrupted.pi, data)
    a2 = next(c for c in report.checks if c.name == "A2_gamma_f_zero")
    assert not a2.passed
    assert a2.residual == pytest.approx(0.125 / max(1.0, np.abs(corrupted.u).max()))


def test_domain_conditions_factorize_nothing(params, rng, monkeypatch):
    # the flux check needs the shifted solid matrix, not its interior factor
    space = fem.build_space(meshmod.generate(0))
    state = solver.random_state(space, rng)
    pi = rng.standard_normal(space.num_pressure_dofs)
    calls = []
    real_factorize = sla.factorize

    def recording(a, xy=None):
        calls.append(a.shape)
        return real_factorize(a, xy)

    monkeypatch.setattr(sla, "factorize", recording)
    solver.check_domain_conditions(space, params, state, pi, solver.zero_data(space))
    assert calls == []


def test_domain_conditions_zero_state(space0, params):
    state = solver.zero_state(space0)
    report = solver.check_domain_conditions(space0, params, state, state.pi,
                                            solver.zero_data(space0))
    assert report.all_passed
    assert all(c.residual == 0.0 for c in report.checks)
