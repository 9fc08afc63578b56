import gc
import weakref
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import peak_rss_growth_mb, random_data, zero_data, zero_state
from fsifem import analysis, cli, fem, mesh as meshmod, semigroup, solver, sparse as sla


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# -- Dirichlet map -----------------------------------------------------------

def test_dirichlet_map_zero_data(space0, params):
    columns = solver.dirichlet_map(space0, params)
    assert np.all(columns @ np.zeros(space0.num_iface_dofs) == 0.0)


def test_dirichlet_map_traces_are_nodal(space0, params):
    trace = solver.dirichlet_map(space0, params)[space0.iface_solid_dofs]
    assert np.array_equal(trace, np.eye(space0.num_iface_dofs))


def test_dirichlet_map_matches_dense_oracle(space0, params):
    columns = solver.dirichlet_map(space0, params)
    s_dense = solver._shifted_solid_matrix(space0, params).toarray()
    ii = space0.solid_interior_dofs
    bb = space0.iface_solid_dofs
    j = 3  # single interface basis trace
    interior = np.linalg.solve(s_dense[np.ix_(ii, ii)], -s_dense[ii, bb[j]])
    oracle = np.zeros(space0.num_solid_dofs)
    oracle[bb[j]] = 1.0
    oracle[ii] = interior
    assert _rel(columns[:, j], oracle) <= 1e-10


def test_dirichlet_map_interior_residual(space1, params):
    s = solver._shifted_solid_matrix(space1, params)
    residual = (s @ solver.dirichlet_map(space1, params))[space1.solid_interior_dofs]
    assert np.abs(residual).max() <= 1e-10 * np.abs(s.data).max()


def test_dirichlet_map_energy_optimality(space0, params, rng):
    s = solver._shifted_solid_matrix(space0, params)
    col = solver.dirichlet_map(space0, params)[:, 11]
    base = col @ (s @ col)
    for _ in range(10):
        perturbation = np.zeros(space0.num_solid_dofs)
        perturbation[space0.solid_interior_dofs] = rng.standard_normal(
            space0.solid_interior_dofs.size)
        other = col + perturbation          # same trace, different interior
        assert other @ (s @ other) >= base - 1e-12 * base


# -- solid interior factor ---------------------------------------------------

def _solid_interior_factor(space, params):
    """The factor of S_ii that the Dirichlet map solves with."""
    ii = space.solid_interior_dofs
    return sla.factorize(solver._shifted_solid_matrix(space, params)[ii][:, ii],
                         solver.solid_coordinates(space, ii))


def test_solid_inverse_matches_dense_oracle(space0, params, rng):
    coeffs = rng.standard_normal(space0.num_solid_dofs)
    load = fem.solid_operators(space0, params).mass @ coeffs
    ii = space0.solid_interior_dofs
    w, _ = _solid_interior_factor(space0, params).solve(load[ii])
    s_dense = solver._shifted_solid_matrix(space0, params).toarray()
    oracle = np.linalg.solve(s_dense[np.ix_(ii, ii)], load[ii])
    assert _rel(w, oracle) <= 1e-10


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
    state, report = op.solve(zero_data(space0))
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
        v_ker = project(rng.standard_normal(space0.free_velocity_dofs.size))
        assert np.abs(b_free @ v_ker).max() <= 1e-10
        assert v_ker @ (a_free @ v_ker) > 0.0


def test_kernel_projection_is_m_orthogonal(space0, rng):
    free = space0.free_velocity_dofs
    m_free = fem.fluid_mass(space0)[free][:, free]
    b_free = fem.fluid_operators(space0).div[:, free].toarray()
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
    state, _ = solver.solve_resolvent(space0, params, zero_data(space0))
    for field in (state.u, state.w, state.z, state.pi):
        assert np.all(field == 0.0)


def test_manufactured_level0_error_magnitude(space0, params, case):
    data = analysis.manufactured_data(space0, case)
    state, _ = solver.solve_resolvent(space0, params, data)
    err = analysis.error_norms(space0, state, state.pi, case, params)
    # order-of-magnitude agreement with the published coarse-mesh value
    assert 5.855e-10 <= err.eu_h1 <= 5.855e-6


def test_monolithic_oracle_equivalence(space0, params, rng):
    data = random_data(space0, rng)
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
    e = solver.dirichlet_map(space, params)
    s_e = solver._shifted_solid_matrix(space, params) @ e
    b_free = fops.div[:, free]
    saddle = sp.bmat([[solver.schur_form(space, params), b_free.T], [b_free, None]],
                     format="csr")
    mq = fem.solid_operators(space, params).mass @ (lam * data.w_star + data.z_star)
    w0 = e @ data.w_star[space.iface_solid_dofs] / lam
    ii = space.solid_interior_dofs
    w0[ii] += _solid_interior_factor(space, params).solve(mq[ii])[0]
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
        data = random_data(space, rng)
        assert np.abs(data.w_star).max() > 0 and np.abs(data.z_star).max() > 0
        state, _ = solver.ResolventOperator(space, params).solve(data)
        schur = _schur_solve(space, params, data)
        for field in ("u", "pi", "w", "z"):
            assert _rel(getattr(state, field), getattr(schur, field)) <= 1e-10, (level, field)


def test_euler_step_makes_one_checked_solve(space1, params, rng, monkeypatch):
    stepper = semigroup.Stepper(space1, params)
    solves, checks = [], []
    real_solve = sla.Factorization.deferred_solve

    def counting(self, b):
        solves.append(b.shape)
        x, check = real_solve(self, b)

        def counted_check():
            checks.append(b.shape)
            return check()

        return x, counted_check

    # every solve of a factor, `solve` too, is its `deferred_solve`, and a
    # checked solve runs the check that comes with it
    monkeypatch.setattr(sla.Factorization, "deferred_solve", counting)
    stepper.step(solver.random_state(space1, rng))
    assert len(solves) == 1
    assert checks == solves


def test_solve_deterministic_bitwise(space0, params, rng):
    data = random_data(space0, rng)
    s1, _ = solver.solve_resolvent(space0, params, data)
    s2, _ = solver.solve_resolvent(space0, params, data)
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.pi, s2.pi)
    assert np.array_equal(s1.w, s2.w)


def test_operator_rebuild_is_bitwise_identical(space1, params, rng):
    data = random_data(space1, rng)
    s1, _ = solver.ResolventOperator(space1, params).solve(data)
    s2, _ = solver.ResolventOperator(space1, params).solve(data)
    for a, b in ((s1.u, s2.u), (s1.pi, s2.pi), (s1.w, s2.w), (s1.z, s2.z)):
        assert np.array_equal(a, b)


def _bmat_saddle(space, params):
    """The resolvent saddle, unbordered, and the solid row map as the
    operator built them inline, with one `sp.bmat` of the blocks: the
    reference that the leading block of `solver.resolvent_saddle`
    reproduces bit for bit."""
    lam = params.shift
    fops = fem.fluid_operators(space)
    free = space.free_velocity_dofs
    nf = free.size
    ii = space.solid_interior_dofs
    n_vs = nf + ii.size
    solid_rows = np.empty(space.num_solid_dofs, dtype=np.int64)
    solid_rows[space.iface_solid_dofs] = space.iface_free_dofs
    solid_rows[ii] = nf + np.arange(ii.size)
    a_free = (lam * fem.fluid_mass(space) + fops.strain)[free][:, free]
    solid_ops = fem.solid_operators(space, params)
    s = (solid_ops.stiffness + (lam * lam + 1.0) * solid_ops.mass).tocsr().tocoo()
    solid = sp.coo_matrix((s.data / lam, (solid_rows[s.row], solid_rows[s.col])),
                          shape=(n_vs, n_vs))
    velocity_solid = sp.block_diag((a_free, sp.csr_matrix((ii.size, ii.size))))
    b_free = fops.div[:, free].tocsr()
    b = sp.hstack([b_free, sp.csr_matrix((space.num_pressure_dofs, ii.size))])
    saddle = sp.bmat([[velocity_solid + solid, b.T], [b, None]], format="csr")
    return saddle, solid_rows


def _assert_csr_bitwise(a, b):
    assert a.format == b.format == "csr"
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.data.tobytes() == b.data.tobytes()
    assert a.indices.dtype == b.indices.dtype and np.array_equal(a.indices, b.indices)
    assert a.indptr.dtype == b.indptr.dtype and np.array_equal(a.indptr, b.indptr)


def _assert_owns_exactly_nnz_entries(mat):
    # no sum-sized or stacking buffer kept behind the entries
    for array in (mat.data, mat.indices):
        while isinstance(array.base, np.ndarray):
            array = array.base
        assert array.size == mat.nnz


def test_resolvent_saddle_is_the_bmat_construction():
    for level in range(4):
        space = fem.build_space(meshmod.generate(level))
        for lame_lambda, lame_mu, shift in ((1.0, 1.0, 1.0), (3.0, 0.7, 1e3),
                                            (0.0, 1e-3, 1e-3)):
            params = fem.MaterialParams(lame_lambda=lame_lambda, lame_mu=lame_mu,
                                        shift=shift)
            saddle, solid_rows = solver.resolvent_saddle(space, params)
            _assert_owns_exactly_nnz_entries(saddle)
            ref_saddle, ref_rows = _bmat_saddle(space, params)
            n = ref_saddle.shape[0]
            _assert_csr_bitwise(saddle[:n, :n], ref_saddle)
            # the border: m = 2^-30 M_p 1 on the pressure rows and
            # columns, and a zero corner
            m = fem.fluid_operators(space).pressure_mass @ np.ones(space.num_pressure_dofs)
            border = np.zeros(n + 1)
            border[n - m.size:n] = 2.0 ** -30 * m
            for line in (saddle[n].toarray().ravel(), saddle[:, n].toarray().ravel()):
                assert line.tobytes() == border.tobytes()
            assert solid_rows.dtype == ref_rows.dtype
            assert np.array_equal(solid_rows, ref_rows)


def test_kernel_projection_saddle_is_the_bmat_construction(monkeypatch):
    factorized = []
    factorize = sla.factorize
    monkeypatch.setattr(sla, "factorize",
                        lambda a, xy: factorized.append(a) or factorize(a, xy))
    for level in range(4):
        space = fem.build_space(meshmod.generate(level))
        solver.kernel_projection(space)
        free = space.free_velocity_dofs
        m_free = fem.fluid_mass(space)[free][:, free].tocsr()
        b_free = fem.fluid_operators(space).div[:, free].tocsr()
        ref = sp.bmat([[m_free, b_free.T], [b_free, None]], format="csr")
        _assert_csr_bitwise(factorized[-1], ref)
        _assert_owns_exactly_nnz_entries(factorized[-1])


def _csr_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def test_resolvent_saddle_memory_is_bounded(params, traced_peak):
    # block_diag, the COO sum of the velocity and solid blocks and sp.bmat
    # peaked at 32.3 MiB, 5.1 times the 6.3 MiB saddle; the CSR sum and a
    # hand-written block fill at 12.5 MiB, 2.51 times the 5.0 MiB saddle;
    # A_lam widened in place, the placed solid and B^T pieces summed onto
    # it and scipy's all-CSR stacking at 11.6 MiB, 2.33 times.  The
    # velocity mass is built here, so its own scatter is not counted
    space = fem.build_space(meshmod.generate(3))
    fem.fluid_operators(space)
    fem.fluid_mass(space)
    solver._shifted_solid_matrix(space, params)
    saddle = []
    peak = traced_peak(lambda: saddle.append(solver.resolvent_saddle(space, params)[0]))
    assert peak <= 2.5 * _csr_bytes(saddle[0])


def test_operator_factor_holds_the_saddle_itself(space0, params):
    op = solver._operator(space0, params)
    assert op.factor._a is op.saddle


def test_operator_build_memory_is_bounded(params, traced_peak):
    # with the saddle's blocks still alive during the factorization the
    # build peaked at 61 MB here; without them at 50 MB, without the
    # factor's own permuted copy of the saddle at 43 MB, without the
    # CSC copies of L and U that a read of SuperLU's U makes at 32 MB,
    # and with the saddle built without COO copies of its blocks at 21 MB.
    # The velocity mass is built here, so its scatter is not counted: now
    # 17.18 MiB in each of six fresh processes, against 18.85 MiB with the
    # mass assembled in the build
    space = fem.build_space(meshmod.generate(3))
    fem.fluid_operators(space)
    fem.fluid_mass(space)
    fem.solid_operators(space, params)
    solver._shifted_solid_matrix(space, params)
    peak = traced_peak(lambda: solver.ResolventOperator(space, params))
    assert peak < 24 * 2**20


_LEVEL3_OPERATORS = """
from dataclasses import replace

from fsifem import analysis, fem, mesh, solver

params = fem.MaterialParams()
space = fem.build_space(mesh.generate(3))
fem.fluid_operators(space)
fem.fluid_mass(space)
fem.solid_operators(space, params)
solver._shifted_solid_matrix(space, params)
"""


def _peak_rss_growth_mb(run):
    """VmHWM growth of a fresh process over `run`, which follows the
    level-3 space, the Stokes forms, the velocity mass (a cache entry of
    its own, which every resolvent operator reads), the solid operators
    and the shifted solid matrix at the default parameters."""
    return peak_rss_growth_mb(_LEVEL3_OPERATORS, run)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
def test_operator_build_peak_rss_growth_is_bounded():
    # the resident high-water mark of a fresh process, which also counts
    # freed heap that the allocator keeps and that tracemalloc does not
    # see: a level-3 operator build raised it by 60.5 MB with the saddle
    # built through COO copies of its blocks, by 43-47 MB without them,
    # and by 22.7-25.1 MB (8 fresh processes) with the single-precision
    # factor and the element round-off dropped, the bound being below
    # every double build
    assert _peak_rss_growth_mb("solver.ResolventOperator(space, params)") < 38


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
def test_shift_sweep_peak_rss_growth_stays_within_one_build():
    # six shifts on one space keep one factor alive at a time, so the
    # sweep, manufactured load included, stays near one build: 26.1-27.1
    # MB over 8 fresh processes with single factors, against 22.7-25.1
    # MB for one build (46-48 MB with double factors, above the bound).
    # VmHWM, not tracemalloc, because SuperLU's factor memory is not
    # traced
    sweep = """
data = analysis.manufactured_data(space, analysis.manufactured_case(1.0))
for shift in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2):
    solver.solve_resolvent(space, replace(params, shift=shift), data)
"""
    assert _peak_rss_growth_mb(sweep) < 40


@pytest.fixture()
def no_gc():
    """No cyclic garbage collection during the test: whatever is freed,
    reference counting freed."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_dropping_a_space_frees_its_cached_operator(params, no_gc):
    space = fem.build_space(meshmod.generate(0))
    op = weakref.ref(solver._operator(space, params))
    assert op() is not None
    del space
    assert op() is None


def test_shift_sweep_keeps_one_operator_alive(rng, no_gc):
    # each shift replaces the space's operator, so a sweep holds one
    # factor at a time instead of one per shift
    space = fem.build_space(meshmod.generate(3))
    data = random_data(space, rng)
    shifts = np.logspace(-3, 3, 10)
    first, _ = solver.solve_resolvent(space, fem.MaterialParams(shift=shifts[0]), data)
    operators = [weakref.ref(solver._operator(space, fem.MaterialParams(shift=shift)))
                 for shift in shifts]
    assert sum(op() is not None for op in operators) == 1
    assert operators[-1]() is not None
    again, _ = solver.solve_resolvent(space, fem.MaterialParams(shift=shifts[0]), data)
    for field in ("u", "w", "z", "pi"):
        assert np.array_equal(getattr(again, field), getattr(first, field)), field


def test_operator_solves_after_its_space_is_dropped(params, rng, no_gc):
    # built as the `operators` fixture of test_sparse builds them, the
    # operator outlives its space
    space = fem.build_space(meshmod.generate(1))
    data = random_data(space, rng)
    expected, _ = solver.solve_resolvent(space, params, data)
    op = solver.ResolventOperator(space, params)
    dropped = weakref.ref(space)
    del space
    assert dropped() is None
    state, report = op.solve(data)
    assert report.residual <= 1e-10
    for field in ("u", "w", "z", "pi"):
        assert np.array_equal(getattr(state, field), getattr(expected, field)), field


@settings(database=None, derandomize=True, deadline=None, max_examples=25)
@given(shifts=st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_solve_on_a_shared_space_is_a_fresh_space_solve(mesh0, space0, shifts, seed):
    # what the shared space holds depends only on the last request for
    # each name, so its call history never shows in a solve
    data = random_data(space0, np.random.default_rng(seed))
    for shift in shifts:
        params = fem.MaterialParams(shift=shift)
        state, _ = solver.solve_resolvent(space0, params, data)
        fresh, _ = solver.solve_resolvent(fem.build_space(mesh0), params, data)
        for field in ("u", "w", "z", "pi"):
            assert np.array_equal(getattr(state, field), getattr(fresh, field)), field
        report = solver.check_domain_conditions(space0, params, state, state.pi, data)
        assert report.all_passed, report.as_dict()
        mono = solver.monolithic_solve(space0, params, data)
        assert max(_rel(state.u, mono.u), _rel(state.pi, mono.pi),
                   _rel(state.w, mono.w)) <= 1e-10


def _residual(factor, b):
    """The measured residual of a solve, also when it fails the check."""
    try:
        return factor.solve(b)[1].residual
    except sla.SolveAccuracyError as err:
        return err.report.residual


def test_nested_dissection_no_worse_than_colamd_over_parameters():
    # the bordered saddle matrix that ResolventOperator factorizes, its
    # multiplier without coordinates, against COLAMD on the same matrix;
    # no parameter set is refused
    space = fem.build_space(meshmod.generate(2))
    xy = solver.saddle_coordinates(space, space.solid_interior_dofs)
    rng = np.random.default_rng(20241018)
    for shift in (1e-3, 1.0, 1e3):
        for lame_lambda, lame_mu in ((1.0, 1.0), (1e6, 1.0), (1.0, 1e-3), (1.0, 1e3)):
            params = fem.MaterialParams(lame_lambda=lame_lambda, lame_mu=lame_mu,
                                        shift=shift)
            saddle, _ = solver.resolvent_saddle(space, params)
            assert saddle.shape == (xy.shape[0] + 1, xy.shape[0] + 1)
            nd = sla.factorize(saddle, xy)
            b = rng.standard_normal(saddle.shape[0])
            # the reference: SuperLU's default, COLAMD with partial pivoting
            x_colamd = spla.splu(saddle.tocsc()).solve(b)
            colamd_res = np.linalg.norm(saddle @ x_colamd - b) / np.linalg.norm(b)
            nd_res = _residual(nd, b)
            assert nd_res <= max(1e-12, 2.0 * colamd_res), (params, nd_res, colamd_res)


def test_border_row_is_never_a_pivot():
    # the leading block pivots as the unbordered saddle does, and the
    # border row is pivoted last; with the unscaled border M_p 1, SuperLU's
    # threshold test took the border row at (shift 1e-3, Lame lambda 1e6)
    # here, earlier at level 2 (24 % more fill), and 80 times at level 5
    # at the default parameters (3.5 times the fill)
    space = fem.build_space(meshmod.generate(1))
    xy = solver.saddle_coordinates(space, space.solid_interior_dofs)
    for shift in (1e-3, 1.0, 1e3):
        for lame_lambda, lame_mu in ((1.0, 1.0), (1e6, 1.0), (1e6, 1e-3), (1.0, 1e-3),
                                     (1.0, 1e3)):
            params = fem.MaterialParams(lame_lambda=lame_lambda, lame_mu=lame_mu,
                                        shift=shift)
            saddle, _ = solver.resolvent_saddle(space, params)
            n = saddle.shape[0]
            rows = sla.factorize(saddle, xy)._lu.perm_r
            unbordered = sla.factorize(saddle[:-1, :-1], xy)._lu.perm_r
            assert np.array_equal(rows[:-1], unbordered), params
            assert rows[-1] == n - 1, params


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("lame_mu", [1.0, 1e-3])
def test_small_shift_nearly_incompressible_solid_solves(level, lame_mu, rng):
    # the constant pressure is a near-null mode of this saddle, which the
    # unbordered factor cannot resolve; bordered, the state meets the
    # unbordered saddle and every domain condition, with a c0 of order 1e9
    space = fem.build_space(meshmod.generate(level))
    params = fem.MaterialParams(lame_lambda=1e6, lame_mu=lame_mu, shift=1e-3)
    data = random_data(space, rng)
    op = solver.ResolventOperator(space, params)
    state, report = op.solve(data)
    rhs = op._rhs(data, solver._solid_lift(space.iface_solid_dofs, params.shift,
                                           data.w_star))
    # the unbordered residual, measured here as well as by the solve
    free, ii = space.free_velocity_dofs, space.solid_interior_dofs
    x = np.concatenate([state.u[free], params.shift * state.w[ii], state.pi])
    residual = (np.linalg.norm(op.saddle[:-1, :-1] @ x - rhs[:-1])
                / np.linalg.norm(rhs))
    assert residual <= 1e-10
    # the report's residual, measured on the solve's own x, tracks it
    assert 0.5 * residual <= report.residual <= 2.0 * residual
    conditions = solver.check_domain_conditions(space, params, state, state.pi, data)
    assert conditions.all_passed, conditions.as_dict()
    # the solve's own c0, the ratio of the multipliers of x_f and of h
    x_f, _ = op.factor.solve(rhs)
    c0 = x_f[-1] / op._flux_solution[-1]
    assert abs(c0) >= 1e6
    _, c0_volume = solver.decompose_pressure(space, state.pi)
    assert abs(c0_volume - c0) <= 1e-12 * abs(c0)


@pytest.mark.parametrize("lame_lambda, lame_mu, shift",
                         [(1.0, 1.0, 1.0), (1e6, 1.0, 1e-3), (1e6, 1e-3, 1e3)])
def test_report_is_the_measured_unbordered_residual(lame_lambda, lame_mu, shift, rng):
    # the report's residual is that of the state the solve returns, against
    # the saddle without its border row and column, not a bound of it
    space = fem.build_space(meshmod.generate(1))
    params = fem.MaterialParams(lame_lambda=lame_lambda, lame_mu=lame_mu, shift=shift)
    data = random_data(space, rng)
    op = solver.ResolventOperator(space, params)
    state, report = op.solve(data)
    rhs = op._rhs(data, solver._solid_lift(space.iface_solid_dofs, shift, data.w_star))
    # the state's unknowns, rebuilt from the bordered solves of x_f and h
    x_f, _ = op.factor.solve(rhs)
    h = op._flux_solution
    c0 = x_f[-1] / h[-1]
    x = (x_f - c0 * h)[:-1]
    free, ii = space.free_velocity_dofs, space.solid_interior_dofs
    x[free.size + ii.size:] += c0
    assert np.array_equal(x[:free.size], state.u[free])
    assert np.array_equal(x[free.size:free.size + ii.size] / shift, state.w[ii])
    assert np.array_equal(x[free.size + ii.size:], state.pi)
    residual = np.linalg.norm(op.saddle[:-1, :-1] @ x - rhs[:-1]) / np.linalg.norm(rhs)
    assert report.residual == pytest.approx(residual, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("level", [0, 1])
def test_stiff_single_factor_falls_back_to_the_double_state(level, rng):
    # at Lame lambda 1e6 the float32 factor's refinement diverges (kappa
    # u_32 >= 1), so the operator's first solve, the flux solve at build
    # time, refactors in double: the state is then the double operator's,
    # bit for bit, and the report says so
    space = fem.build_space(meshmod.generate(level))
    params = fem.MaterialParams(lame_lambda=1e6, lame_mu=1.0, shift=1e-3)
    data = random_data(space, rng)
    single = solver.ResolventOperator(space, params, "single")
    double = solver.ResolventOperator(space, params, "double")
    state, report = single.solve(data)
    reference, reference_report = double.solve(data)
    assert single.factor.precision == "double"
    assert (report.precision, report.refinement_steps) == ("double", 0)
    assert report.residual == reference_report.residual
    for field in ("u", "w", "z", "pi"):
        assert np.array_equal(getattr(state, field), getattr(reference, field)), field


def test_refined_solves_at_a_small_shift_pass_the_divergence_check():
    # at shift 1e-3 the solid rows dominate ||b||: a refinement stopped at
    # 2^-42 ||b|| left divergence residuals up to 2.3e-10 here, against the
    # 1e-10 check that every double solve passes.  The target relative to
    # || |A||x| + |b| || refines on to a double factor's residual
    space = fem.build_space(meshmod.generate(2))
    params = fem.MaterialParams(shift=1e-3)
    op = solver.ResolventOperator(space, params)
    for seed in range(6):
        data = random_data(space, np.random.default_rng(seed))
        state, report = op.solve(data)
        assert report.precision == "single"
        conditions = solver.check_domain_conditions(space, params, state, state.pi, data)
        assert conditions.all_passed, (seed, conditions.as_dict())


@pytest.fixture(scope="module")
def single_op0(space0, params):
    """A level-0 operator with a single factor, held by no cache."""
    op = solver.ResolventOperator(space0, params)
    assert op.factor.precision == "single"
    return op


def _scaled(data, factor):
    return solver.ResolventData(factor * data.u_load, factor * data.w_star,
                                factor * data.z_star)


@settings(database=None, derandomize=True, deadline=None, max_examples=25)
@given(k=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1))
def test_power_of_two_data_scale_changes_no_bit(single_op0, space0, k, seed):
    # every float32 right-hand side is scaled by a power of two before the
    # cast, and the stop rule compares ratios, so data times 2^k gives the
    # state times 2^k exactly, in as many refinement steps
    data = random_data(space0, np.random.default_rng(seed))
    state, report = single_op0.solve(data)
    scaled, scaled_report = single_op0.solve(_scaled(data, 2.0 ** k))
    assert single_op0.factor.precision == "single"
    assert scaled_report.refinement_steps == report.refinement_steps
    assert scaled_report.residual == report.residual
    for field in ("u", "w", "z", "pi"):
        assert np.array_equal(getattr(scaled, field), 2.0 ** k * getattr(state, field)), field


@settings(database=None, derandomize=True, deadline=None, max_examples=25)
@given(k=st.integers(-30, 30), seed=st.integers(0, 2**32 - 1))
def test_decimal_data_scale_passes_the_gate(single_op0, space0, k, seed):
    data = _scaled(random_data(space0, np.random.default_rng(seed)), 10.0 ** k)
    _, report = single_op0.solve(data)   # above 1e-10 it would raise
    assert report.precision == "single"
    assert report.refinement_steps <= 2


def test_non_finite_load_is_refused(space0, params, rng):
    # the NaN goes in the load: one in w* or z* raises a RuntimeWarning in
    # the solid products before the solve
    data = random_data(space0, rng)
    data.u_load[space0.free_velocity_dofs[7]] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solver.solve_resolvent(space0, params, data)


def test_interface_trace_identity(space1, params, rng):
    data = random_data(space1, rng)
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


# -- interface traction ------------------------------------------------------

def test_flux_zero_state(space0, params):
    state = zero_state(space0)
    fluid, solid = solver.interface_traction_moments(space0, params, state, state.pi,
                                                     zero_data(space0))
    assert fluid.shape == solid.shape == (space0.num_iface_dofs,)
    assert np.all(fluid == 0.0) and np.all(solid == 0.0)


def test_flux_extension_independence(solved1, params, rng):
    # the traction functional pairs the momentum residual with an extension
    # of a trace g; it depends on g alone because the residual of a
    # resolvent solution vanishes on every free velocity dof off Gamma_s
    space, manufactured, _, _ = solved1
    off_gamma = np.setdiff1d(space.free_velocity_dofs, space.iface_velocity_dofs)
    moments = []
    for data in (manufactured, random_data(space, rng)):
        state, _ = solver.solve_resolvent(space, params, data)
        residual = solver._momentum_residual(space, params, state.u, state.pi,
                                             data.u_load)
        fluid, _ = solver.interface_traction_moments(space, params, state,
                                                     state.pi, data)
        moments.append(np.abs(fluid).max())
        assert np.abs(residual[off_gamma]).max() <= 1e-12 * max(1.0, moments[-1])
    assert max(moments) > 1e-3     # the Gamma_s rows themselves do not vanish


def test_flux_matching_all_basis_traces(solved1, params, rng):
    # interface condition: fluid traction equals solid traction
    space, data, state, _ = solved1
    fl, so = solver.interface_traction_moments(space, params, state, state.pi, data)
    scale = max(1.0, np.abs(fl).max(), np.abs(so).max())
    assert np.abs(fl - so).max() <= 1e-9 * scale


def test_flux_matching_random_data(space0, params, rng):
    data = random_data(space0, rng)
    state, _ = solver.solve_resolvent(space0, params, data)
    g = rng.standard_normal(space0.num_iface_dofs)
    fl, so = solver.interface_traction_moments(space0, params, state, state.pi, data)
    fluid, solid = fl @ g, so @ g
    assert abs(fluid - solid) <= 1e-9 * max(1.0, abs(fluid))


def test_a5b_and_c0_read_one_traction_path(space0, params, rng, monkeypatch):
    data = random_data(space0, rng)
    state, _ = solver.solve_resolvent(space0, params, data)
    pressures = []
    real = solver.interface_traction_moments

    def recording(space, params, state, pi, data):
        pressures.append(pi)
        return real(space, params, state, pi, data)

    monkeypatch.setattr(solver, "interface_traction_moments", recording)
    solver.check_domain_conditions(space0, params, state, state.pi, data)
    q0, _ = solver.decompose_pressure(space0, state.pi)
    solver.recover_c0(space0, params, state, q0, data)
    assert len(pressures) == 2
    assert pressures[0] is state.pi and pressures[1] is q0


# -- constant-pressure recovery ----------------------------------------------

def test_recover_c0_zero_state(space0, params):
    state = zero_state(space0)
    value = solver.recover_c0(space0, params, state,
                              np.zeros(space0.num_pressure_dofs),
                              zero_data(space0))
    assert value == 0.0


def test_recover_c0_synthetic_constant(space1, params, rng):
    # add a constant to a solved pressure and shift the fluid data by the
    # matching boundary-traction term: the recovery must report it
    data = random_data(space1, rng)
    state, _ = solver.solve_resolvent(space1, params, data)
    q0, c0_base = solver.decompose_pressure(space1, state.pi)
    shift = 3.7
    # -B^T 1: the normal moments <nu, phi_i> on the Gamma_s rows
    normal_moments = -(fem.fluid_operators(space1).div.T
                       @ np.ones(space1.num_pressure_dofs))
    shifted_data = solver.ResolventData(data.u_load - shift * normal_moments,
                                        data.w_star, data.z_star)
    value = solver.recover_c0(space1, params, state, q0, shifted_data)
    assert value == pytest.approx(c0_base + shift, rel=1e-12)


_C0_PARAMS = {
    "unit": fem.MaterialParams(lame_lambda=1.0, lame_mu=1.0, shift=1.0),
    "stiff_bulk_soft_shear": fem.MaterialParams(lame_lambda=1e6, lame_mu=1e-3, shift=1.0),
    "stiff_shear_small_shift": fem.MaterialParams(lame_lambda=1.0, lame_mu=1e3, shift=1e-3),
}


def test_recover_c0_consistent_with_volume_average(params, case):
    # the interface recovery gives the solve's own constant, to roundoff,
    # for manufactured data and for random data at three parameter points
    rng = np.random.default_rng(1)
    for label in ("manufactured", *_C0_PARAMS):
        for level in (0, 1, 2):
            space = fem.build_space(meshmod.generate(level))
            if label == "manufactured":
                run_params, data = params, analysis.manufactured_data(space, case)
            else:
                run_params, data = _C0_PARAMS[label], random_data(space, rng)
            state, _ = solver.solve_resolvent(space, run_params, data)
            q0, c0 = solver.decompose_pressure(space, state.pi)
            c0_flux = solver.recover_c0(space, run_params, state, q0, data)
            assert abs(c0_flux - c0) <= 1e-12 * np.abs(state.pi).max(), (label, level)


# -- domain conditions -------------------------------------------------------

def test_domain_conditions_pass_after_solve(space1, params, rng):
    data = random_data(space1, rng)
    state, _ = solver.solve_resolvent(space1, params, data)
    report = solver.check_domain_conditions(space1, params, state, state.pi, data)
    assert report.all_passed
    for check in report.checks:
        assert check.residual <= check.tolerance


def test_domain_conditions_detect_corruption(space0, params, rng):
    data = random_data(space0, rng)
    state, _ = solver.solve_resolvent(space0, params, data)
    corrupted = replace(state, u=state.u.copy())
    bad_dof = np.flatnonzero(space0.constrained_mask)[4]
    corrupted.u[bad_dof] = 0.125
    report = solver.check_domain_conditions(space0, params, corrupted, corrupted.pi, data)
    a2 = next(c for c in report.checks if c.name == "A2_gamma_f_zero")
    assert not a2.passed
    assert a2.residual == pytest.approx(0.125 / max(1.0, np.abs(corrupted.u).max()))


def test_domain_conditions_factorize_nothing(params, rng, factorize_calls):
    # the flux check needs the shifted solid matrix, not its interior factor
    space = fem.build_space(meshmod.generate(0))
    state = solver.random_state(space, rng)
    pi = rng.standard_normal(space.num_pressure_dofs)
    with factorize_calls() as calls:
        solver.check_domain_conditions(space, params, state, pi, zero_data(space))
    assert calls == []


def test_domain_conditions_zero_state(space0, params):
    state = zero_state(space0)
    report = solver.check_domain_conditions(space0, params, state, state.pi,
                                            zero_data(space0))
    assert report.all_passed
    assert all(c.residual == 0.0 for c in report.checks)


def test_every_package_factorization_gets_coordinates(params, factorize_calls):
    space = fem.build_space(meshmod.generate(0))
    with factorize_calls() as calls:
        analysis.infsup_beta(space)
        solver.dirichlet_map(space, params)
        solver.kernel_projection(space)
        solver.ResolventOperator(space, params)
    nf, ni = space.free_velocity_dofs.size, space.solid_interior_dofs.size
    npr = space.num_pressure_dofs
    # K, M_p, S_ii and the kernel projection's saddle in double; the one-shot
    # resolvent saddle, bordered by one multiplier, in single
    assert calls == [((nf, nf), True, "double"), ((npr, npr), True, "double"),
                     ((ni, ni), True, "double"), ((nf + npr, nf + npr), True, "double"),
                     ((nf + ni + npr + 1, nf + ni + npr + 1), True, "single")]


def test_resolvent_factor_precision_follows_its_use(params, factorize_calls):
    # one-shot solves take the single factor; the stepper, which makes
    # hundreds of solves per factor, the double one.  The cache keys the
    # operator by its precision, so neither is handed the other's
    space = fem.build_space(meshmod.generate(0))
    data = zero_data(space)
    n = solver.resolvent_saddle(space, params)[0].shape
    with factorize_calls() as calls:
        solver.solve_resolvent(space, params, data)
        solver.solve_resolvent(space, params, data)
        stepper = semigroup.Stepper(space, params)
        semigroup.Stepper(space, params)
    assert calls == [(n, True, "single"), (n, True, "double")]
    assert stepper.op.factor.precision == "double"
    assert solver._operator(space, params, "double") is stepper.op


def test_cli_evolve_factorizes_each_parameter_set_once(tmp_path, factorize_calls):
    with factorize_calls() as calls:
        assert cli.main(["--mode", "evolve", "--levels", "0", "--steps", "3",
                         "--out", str(tmp_path)]) == 0
    # the step operator at shift 1/dt, in double, and nothing else
    assert [precision for _, _, precision in calls] == ["double"]


class _MinimumDegreeFactor:
    """The factor an SPD block had before it took coordinates: SuperLU's
    minimum degree on A + A^T, symmetric mode, diagonal pivots."""

    def __init__(self, a, xy):
        self._lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=1e-3, options=dict(SymmetricMode=True))

    def solve(self, b):
        return self._lu.solve(b), None


@pytest.mark.parametrize("level", [0, 1, 2])
def test_nested_dissection_solid_factor_matches_minimum_degree(level, params, monkeypatch):
    msh = meshmod.generate(level)
    space = fem.build_space(msh)
    columns = solver.dirichlet_map(space, params)
    schur = solver.schur_form(space, params).toarray()
    # a fresh space, so no cached factor of the package's order is reused
    monkeypatch.setattr(sla, "factorize", _MinimumDegreeFactor)
    reference = fem.build_space(msh)
    ref_columns = solver.dirichlet_map(reference, params)
    ref_schur = solver.schur_form(reference, params).toarray()
    assert np.abs(columns - ref_columns).max() <= 1e-12 * np.abs(ref_columns).max()
    assert np.abs(schur - ref_schur).max() <= 1e-12 * np.abs(ref_schur).max()
