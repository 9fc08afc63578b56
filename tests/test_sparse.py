import math

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fsifem import analysis, fem, mesh as meshmod, solver, sparse as sla


def test_identity_solve():
    b = np.arange(6, dtype=float)
    x, report = sla.solve(sla.SparseMatrix.identity(6), b)
    assert np.array_equal(x, b)
    assert report.residual == 0.0


def test_zero_rhs_gives_zero():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x, _ = sla.solve(a, np.zeros(2))
    assert np.all(x == 0.0)


def test_level0_saddle_vs_dense_oracle(space0, params, rng):
    data = solver.data_from_vectors(
        space0,
        rng.standard_normal(space0.num_velocity_dofs),
        rng.standard_normal(space0.num_solid_dofs),
        rng.standard_normal(space0.num_solid_dofs))
    system = solver.assemble_system(space0, params, data)
    a = system.matrix()
    b = np.concatenate([system.rhs_velocity, system.rhs_pressure])
    x_sparse, report = sla.solve(a, b)
    x_dense = np.linalg.solve(a.toarray(), b)
    assert report.residual <= 1e-10
    assert np.linalg.norm(x_sparse - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


def test_solve_is_bitwise_deterministic(space0, params, rng):
    data = solver.data_from_vectors(
        space0,
        rng.standard_normal(space0.num_velocity_dofs),
        np.zeros(space0.num_solid_dofs),
        np.zeros(space0.num_solid_dofs))
    system = solver.assemble_system(space0, params, data)
    a = system.matrix()
    b = np.concatenate([system.rhs_velocity, system.rhs_pressure])
    x1, _ = sla.solve(a, b)
    x2, _ = sla.solve(a, b)
    assert np.array_equal(x1, x2)


def test_symmetric_transpose_agreement(rng):
    base = sp.random(150, 150, density=0.08, random_state=11, format="csr")
    a = (base + base.T + 20 * sp.identity(150)).tocsr()
    b = rng.standard_normal(150)
    x, _ = sla.solve(a, b)
    xt, _ = sla.solve(a.T.tocsr(), b)
    assert np.linalg.norm(x - xt) <= 1e-12 * np.linalg.norm(x)


def test_singular_matrix_reports_pivot():
    a = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(sla.SingularMatrixError) as err:
        sla.solve(a, np.ones(3))
    assert err.value.pivot == 1


def test_dimension_mismatch_raises():
    a = sla.SparseMatrix.identity(4)
    with pytest.raises(ValueError, match="mismatch"):
        sla.solve(a, np.ones(5))
    with pytest.raises(ValueError, match="square"):
        sla.factorize(sp.csr_matrix(np.ones((2, 3))))


def test_csr_invariants_after_finalization():
    rows = np.array([0, 0, 0, 1, 1])
    cols = np.array([1, 1, 0, 0, 0])
    vals = np.array([2.0, 3.0, 1.0, 4.0, -4.0])
    m = sla.SparseMatrix.from_coo(rows, cols, vals, (2, 2))
    # duplicates summed, explicit zeros dropped, columns sorted per row
    assert m.nnz == 2
    assert np.array_equal(m.col_indices, np.array([0, 1]))
    assert np.array_equal(m.values, np.array([1.0, 5.0]))


def test_smallest_gen_eig_identity_case():
    s = sla.SparseMatrix.from_dense(np.diag([3.0, 5.0, 9.0]))
    value, vec = sla.smallest_gen_eig(s, s)
    assert value == pytest.approx(1.0, rel=1e-8)


def test_smallest_gen_eig_diagonal_case():
    s = sla.SparseMatrix.from_dense(np.diag([4.0, 9.0]))
    value, vec = sla.smallest_gen_eig(s, sla.SparseMatrix.identity(2))
    assert value == pytest.approx(4.0, rel=1e-8)
    assert abs(vec[0]) == pytest.approx(1.0, rel=1e-6)
    value, vec = sla.smallest_gen_eig(sla.SparseMatrix.from_dense([[6.0]]),
                                      sla.SparseMatrix.from_dense([[2.0]]))
    assert (value, abs(vec[0])) == (3.0, 1.0)


def test_pressure_schur_vs_dense_oracle(space0):
    s = analysis.pressure_schur_complement(space0)
    mp = fem.fluid_operators(space0).pressure_mass
    value, _ = sla.smallest_gen_eig(sla.SparseMatrix.from_dense(s), mp)
    dense_vals = dla.eigh(s, mp.toarray(), eigvals_only=True)
    assert value == pytest.approx(dense_vals[0], abs=1e-6)


def test_eigen_iteration_cap_raises():
    # a 1e-9 gap under the smallest eigenvalue: one Lanczos restart of a
    # 200 x 200 problem cannot separate the pair
    diag = np.linspace(1.0, 5.0, 200)
    diag[1] = 1.0 + 1e-9
    with pytest.raises(sla.EigenIterationError, match="did not converge") as err:
        sla.smallest_gen_eig(sp.diags(diag).tocsr(), sp.identity(200, format="csr"),
                             max_iter=1)
    assert err.value.value is None and err.value.vector is None


def test_eigen_residual_failure_carries_pair():
    # Lanczos converges to roundoff, which no pair can meet at 1e-30
    s = sp.diags([4.0, 9.0, 16.0]).tocsr()
    with pytest.raises(sla.EigenIterationError, match="eigenresidual") as err:
        sla.smallest_gen_eig(s, sp.identity(3, format="csr"), tol=1e-30)
    assert err.value.value == pytest.approx(4.0, rel=1e-12)
    assert abs(err.value.vector[0]) == pytest.approx(1.0, rel=1e-12)


def _record_splu(monkeypatch):
    """Record (keyword arguments, SuperLU object) of every splu call."""
    made = []
    real = spla.splu

    def recording(a, **kwargs):
        lu = real(a, **kwargs)
        made.append((kwargs, lu))
        return lu

    monkeypatch.setattr(sla.spla, "splu", recording)
    return made


def test_zero_free_diagonal_gets_symmetric_ordering(monkeypatch):
    space = fem.build_space(meshmod.generate(2))
    k, _, _ = analysis._infsup_blocks(space)
    colamd_fill = spla.splu(k.tocsc()).nnz
    made = _record_splu(monkeypatch)
    sla.factorize(k)
    (kwargs, lu), = made
    assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.nnz < colamd_fill


def test_saddle_matrix_keeps_colamd(space0, params, monkeypatch):
    saddle = solver.assemble_system(space0, params, solver.zero_data(space0)).matrix()
    assert np.any(saddle.diagonal() == 0)
    made = _record_splu(monkeypatch)
    sla.factorize(saddle)
    (kwargs, _), = made
    assert kwargs == {}   # SuperLU's default: COLAMD, partial pivoting


def test_corrupted_multi_column_solve_raises(rng):
    a = sp.csr_matrix(rng.standard_normal((30, 30)) + 30 * np.eye(30))
    factor = sla.Factorization(a)
    # the stored matrix now differs from the factored one in entry (0, 0),
    # which only a column whose solution has x[0] != 0 can see
    factor._a = (a + sp.csr_matrix(([1e-3], ([0], [0])), shape=a.shape)).tocsr()
    clean = a @ np.eye(30)[:, 1]            # solution e_1, x[0] = 0
    b = np.column_stack([clean, rng.standard_normal(30)])
    _, report = factor.solve(clean)
    assert report.residual <= 1e-14
    _, report = factor.solve(b, check=False)
    x_bad = np.linalg.solve(a.toarray(), b[:, 1])
    expected = 1e-3 * abs(x_bad[0]) / np.linalg.norm(b[:, 1])
    assert report.residual == pytest.approx(expected, rel=1e-6)
    with pytest.raises(sla.SolveAccuracyError):
        factor.solve(b)


def test_report_fields_are_measured(space0, params):
    data = solver.zero_data(space0)
    system = solver.assemble_system(space0, params, data)
    a = system.matrix()
    rng = np.random.default_rng(5)
    b = rng.standard_normal(a.shape[0])
    x, report = sla.solve(a, b)
    direct = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert report.residual == pytest.approx(direct, rel=1e-6)
    assert report.pivot_growth >= 1.0
    assert report.solve_time > 0.0
    assert report.factor_time > 0.0


def test_repeated_solve_time_excludes_factor_time(rng):
    a = sp.csr_matrix(rng.standard_normal((30, 30)) + 30 * np.eye(30))
    factor = sla.Factorization(a)
    factor.factor_time = 1e3   # far above any real solve of this size
    for _ in range(2):
        _, report = factor.solve(rng.standard_normal(30))
        assert report.factor_time == 1e3
        assert 0.0 < report.solve_time < 1e3


def test_level0_schur_spd(space0):
    # positive definiteness of the pressure Schur complement (B full row rank)
    s = analysis.pressure_schur_complement(space0)
    evals = dla.eigvalsh(s)
    assert evals[0] > 0.0
