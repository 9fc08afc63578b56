import math

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp

from fsifem import analysis, fem, solver, sparse as sla


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
    x_dense = sla.solve_dense(a.toarray(), b)
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


def test_pressure_schur_vs_dense_oracle(space0):
    s = analysis.pressure_schur_complement(space0)
    mp = fem.fluid_operators(space0).pressure_mass
    value, _ = sla.smallest_gen_eig(sla.SparseMatrix.from_dense(s), mp)
    dense_vals = dla.eigh(s, mp.toarray(), eigvals_only=True)
    assert value == pytest.approx(dense_vals[0], abs=1e-6)


def test_eigen_iteration_cap_raises_with_last_iterate():
    s = sla.SparseMatrix.from_dense(np.diag([1.0, 1.0 + 1e-9, 5.0]))
    with pytest.raises(sla.EigenIterationError) as err:
        sla.smallest_gen_eig(s, sla.SparseMatrix.identity(3), k=1, max_iter=1,
                             tol=1e-14)
    assert err.value.vector is not None
    assert err.value.value is not None


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


def test_solve_dense_oracle_matches_numpy(rng):
    a = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    b = rng.standard_normal(40)
    assert np.allclose(sla.solve_dense(a, b), np.linalg.solve(a, b))


def test_level0_schur_spd(space0):
    # positive definiteness of the pressure Schur complement (B full row rank)
    s = analysis.pressure_schur_complement(space0)
    evals = dla.eigvalsh(s)
    assert evals[0] > 0.0
