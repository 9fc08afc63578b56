import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import peak_rss_growth_mb, pressure_schur_complement
from fsifem import fem, mesh as meshmod, solver, sparse as sla


def _one_point(n):
    """Coordinates that put all n unknowns at one point: one node, which
    nested dissection leaves in index order."""
    return np.zeros((n, 1))


def test_identity_solve():
    b = np.arange(6, dtype=float)
    x, report = sla.factorize(sp.identity(6, format="csr"), _one_point(6)).solve(b)
    assert np.array_equal(x, b)
    assert report.residual == 0.0


def test_zero_rhs_gives_zero():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x, _ = sla.factorize(a, _one_point(2)).solve(np.zeros(2))
    assert np.all(x == 0.0)


def _resolvent_rhs(rng, n):
    """A random right-hand side of the bordered resolvent saddle, zero in
    its multiplier row as in every resolvent solve."""
    b = rng.standard_normal(n)
    b[-1] = 0.0
    return b


def test_level0_saddle_vs_dense_oracle(space0, params, rng):
    # the cached operator: the failed solve below raises and leaves its
    # single factor as it was
    op = solver._operator(space0, params)
    a = op.saddle
    b = _resolvent_rhs(rng, a.shape[0])
    x_dense = np.linalg.solve(a.toarray(), b)
    x_sparse, report = op.factor.solve(b)
    assert report.residual <= 1e-10
    assert np.linalg.norm(x_sparse - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
    # the border is 2^-30 M_p 1, so a nonzero multiplier row asks for a
    # pressure mean of order 2^30: that solve misses the check and raises
    b[-1] = 1.0
    with pytest.raises(sla.SolveAccuracyError):
        op.factor.solve(b)


def test_solve_is_bitwise_deterministic(space0, params, rng):
    a = solver._operator(space0, params).saddle
    b = _resolvent_rhs(rng, a.shape[0])
    xy = solver.saddle_coordinates(space0, space0.solid_interior_dofs)
    x1, _ = sla.factorize(a, xy).solve(b)
    x2, _ = sla.factorize(a, xy).solve(b)
    assert np.array_equal(x1, x2)


def _stop_target_ratio(a, x, b):
    """||b - Ax|| / || |A||x| + |b| ||, the measure a refined solve stops
    on, in units of its target 2^-50."""
    num = np.linalg.norm(b - a @ x)
    return num / (2.0 ** -50 * np.linalg.norm(abs(a) @ np.abs(x) + np.abs(b)))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_single_factor_refines_to_the_stop_target(level, params, rng):
    # the same order, pivots and fill as the double factor; at the default
    # parameters two corrections reach the target (measured through level
    # 4), and repeated solves give the same bits
    space = fem.build_space(meshmod.generate(level))
    a, _ = solver.resolvent_saddle(space, params)
    xy = solver.saddle_coordinates(space, space.solid_interior_dofs)
    single = sla.factorize(a, xy, "single")
    double = sla.factorize(a, xy)
    assert single.precision == "single"
    assert single._lu.nnz == double._lu.nnz
    assert np.array_equal(single._lu.perm_r, double._lu.perm_r)
    for _ in range(3):
        rhs = _resolvent_rhs(rng, a.shape[0])
        x, report = single.solve(rhs)
        assert (report.precision, single.precision) == ("single", "single")
        assert 1 <= report.refinement_steps <= 2
        # the target is set from the first iterate, which differs from x by
        # its first correction, under 1e-4 relative
        assert _stop_target_ratio(a, x, rhs) <= 1.0 + 1e-4
        x_double, _ = double.solve(rhs)
        assert np.abs(x - x_double).max() <= 1e-12 * np.abs(x_double).max()
        assert np.array_equal(single.solve(rhs)[0], x)


@pytest.mark.parametrize("gap", [1e-9, 1e-6])
def test_single_factor_falls_back_to_double_bit_for_bit(gap):
    # [[1, 1], [1, 1 + gap]]: at 1e-9 the float32 matrix is singular and
    # SuperLU refuses it, so the factor is made in double and its solve is
    # the double factor's, bit for bit.  At 1e-6 it factors, kappa u_32 is
    # near 1 and the refinement fails to contract: the solve raises and the
    # factor stays single, while a double factor of the matrix solves it
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + gap]]))
    xy = np.array([[0.0], [1.0]])
    b = np.array([1.0, -1.0])
    factor = sla.factorize(a, xy, "single")
    x_double, report_double = sla.factorize(a, xy).solve(b)
    if gap == 1e-6:
        with pytest.raises(sla.SolveAccuracyError) as err:
            factor.solve(b)
        assert err.value.report.precision == "single"
        assert factor.precision == "single"
        return
    x, report = factor.solve(b)
    assert np.array_equal(x, x_double)
    assert report.residual == report_double.residual
    assert (report.precision, report.refinement_steps) == ("double", 0)
    assert factor.precision == "double"
    assert np.array_equal(factor.solve(b)[0], x_double)


def test_single_factor_of_a_matrix_beyond_float32_is_double():
    a = sp.csr_matrix(np.diag([1e39, 2.0]))
    factor = sla.factorize(a, np.array([[0.0], [1.0]]), "single")
    assert factor.precision == "double"
    x, report = factor.solve(np.array([1e39, 1.0]))
    assert np.array_equal(x, [1.0, 0.5])
    assert report.precision == "double"


def test_unknown_precision_is_refused():
    with pytest.raises(ValueError, match="precision"):
        sla.factorize(sp.identity(2, format="csr"), _one_point(2), "half")


def test_symmetric_transpose_agreement(rng):
    base = sp.random(150, 150, density=0.08, random_state=11, format="csr")
    a = (base + base.T + 20 * sp.identity(150)).tocsr()
    b = rng.standard_normal(150)
    x, _ = sla.factorize(a, _one_point(150)).solve(b)
    xt, _ = sla.factorize(a.T.tocsr(), _one_point(150)).solve(b)
    assert np.linalg.norm(x - xt) <= 1e-12 * np.linalg.norm(x)


def test_singular_matrix_raises_with_superlu_message():
    # SuperLU's own message, which a convergence row that fails reports
    a = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(sla.SingularMatrixError, match="^Factor is exactly singular$"):
        sla.factorize(a, _one_point(3))


def test_tiny_pivot_is_left_to_the_checked_solve():
    # 1e-20 of max|A| but not zero: no pivot is tested against a
    # tolerance, and the factor of this diagonal matrix solves exactly
    a = sp.csr_matrix(np.diag([1.0, 1e-20, 2.0]))
    x, report = sla.factorize(a, _one_point(3)).solve(np.ones(3))
    assert np.array_equal(x, [1.0, 1e20, 0.5])
    assert report.residual == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_entry_raises_before_superlu(bad, monkeypatch):
    # (lam^2 + 1) overflows for a shift of 1e200, and S = K + (lam^2 + 1) M
    # with it; SuperLU would call that matrix singular
    a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, bad, 1.0], [0.0, 1.0, 2.0]]))
    calls = []
    monkeypatch.setattr(sla.spla, "splu", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="non-finite"):
        sla.factorize(a, _one_point(3))
    assert calls == []


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_rhs_raises_before_superlu(bad):
    factor = sla.factorize(sp.identity(2, format="csr"), _one_point(2))
    factor._lu = None   # a SuperLU solve would now raise AttributeError
    with pytest.raises(ValueError, match="non-finite"):
        factor.solve(np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        factor.solve(np.array([1.0, bad]))


@pytest.mark.parametrize("precision", ["double", "single"])
def test_non_vector_rhs_raises_before_superlu(precision):
    factor = sla.factorize(sp.identity(2, format="csr"), _one_point(2), precision)
    factor._lu = None   # a SuperLU solve would now raise AttributeError
    for b in (np.ones((2, 1)), np.ones((2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {b.shape}")):
            factor.solve(b)


def test_nan_residual_fails_the_check():
    # a finite right-hand side whose solution overflows: x = (-inf, inf),
    # so row 0 of A x is inf - inf and the residual is NaN; ||b||^2 is finite
    a = sp.csr_matrix(np.array([[1e-150, 1e-150], [0.0, 1e-163]]))
    with pytest.raises(sla.SolveAccuracyError) as err:
        sla.factorize(a, _one_point(2)).solve(np.array([1.0, 1e150]))
    assert math.isnan(err.value.report.residual)


def test_dimension_mismatch_raises():
    a = sp.identity(4, format="csr")
    with pytest.raises(ValueError, match="mismatch"):
        sla.factorize(a, _one_point(4)).solve(np.ones(5))
    for b in (np.float64(1.0), np.ones((4, 1, 1))):
        with pytest.raises(ValueError, match=re.escape(f"got shape {b.shape}")):
            sla.factorize(a, _one_point(4)).solve(b)
    with pytest.raises(ValueError, match="square"):
        sla.factorize(sp.csr_matrix(np.ones((2, 3))), _one_point(2))


def test_coo_duplicates_are_summed():
    # duplicates (0, 1) add up to 5 and (1, 0) cancels to an explicit zero
    rows = np.array([0, 0, 0, 1, 1, 1])
    cols = np.array([1, 1, 0, 0, 0, 1])
    vals = np.array([2.0, 3.0, 1.0, 4.0, -4.0, 2.0])
    a = sp.coo_matrix((vals, (rows, cols)), shape=(2, 2))
    x, report = sla.factorize(a, _one_point(2)).solve(np.array([11.0, 4.0]))
    assert np.allclose(x, [1.0, 2.0], rtol=1e-15)
    assert report.residual <= 1e-15


def test_smallest_gen_eig_identity_case():
    s = sp.csr_matrix(np.diag([3.0, 5.0, 9.0]))
    value, vec = sla.smallest_gen_eig(s.__matmul__, s, _one_point(3))
    assert value == pytest.approx(1.0, rel=1e-8)


def test_smallest_gen_eig_diagonal_case():
    s = sp.csr_matrix(np.diag([4.0, 9.0]))
    value, vec = sla.smallest_gen_eig(s.__matmul__, sp.identity(2, format="csr"), _one_point(2))
    assert value == pytest.approx(4.0, rel=1e-8)
    assert abs(vec[0]) == pytest.approx(1.0, rel=1e-6)


def _pencil_with_smallest_mode_off_the_constant(n=200):
    """(S, M, q1) with M diagonal SPD and S = M^{1/2} A M^{1/2}, A having
    eigenvalues 1, 2 and 3..5: the smallest mode q1 = M^{-1/2} w is
    M-orthogonal to the constant, since w is orthogonal to M^{1/2} 1."""
    rng = np.random.default_rng(3)
    root = np.sqrt(np.linspace(1.0, 2.0, n))
    w = rng.standard_normal(n)
    w -= (root @ w) / (root @ root) * root
    basis, _ = np.linalg.qr(np.column_stack([w, rng.standard_normal((n, n - 1))]))
    a = (basis * np.r_[1.0, 2.0, np.linspace(3.0, 5.0, n - 2)]) @ basis.T
    s = root[:, None] * (0.5 * (a + a.T)) * root
    return sp.csr_matrix(s), sp.diags(root ** 2).tocsr(), basis[:, 0] / root


def test_smallest_gen_eig_finds_a_mode_orthogonal_to_the_constant(monkeypatch):
    s, m, q1 = _pencil_with_smallest_mode_off_the_constant()
    mq1 = m @ q1
    assert abs(np.ones(200) @ mq1) <= 1e-13 * np.sqrt(200 * (q1 @ mq1))
    value, vec = sla.smallest_gen_eig(s.__matmul__, m, _one_point(200))
    assert value == pytest.approx(1.0, rel=1e-8)
    assert abs(vec @ mq1) == pytest.approx(np.sqrt((vec @ (m @ vec)) * (q1 @ mq1)), rel=1e-8)
    # the Krylov space of the constant alone misses q1: from it, Lanczos
    # certifies the second eigenvalue
    monkeypatch.setattr(sla, "_START_WEIGHT", 0.0)
    value, _ = sla.smallest_gen_eig(s.__matmul__, m, _one_point(200))
    assert value == pytest.approx(2.0, rel=1e-8)


def test_smallest_gen_eig_stops_at_breakdown():
    # S = M: M^{-1} S v = v, so the first Lanczos vector spans an
    # invariant space and its pair is exact after one step
    m = sp.diags(np.linspace(1.0, 3.0, 200)).tocsr()
    applies = []

    def apply(q):
        applies.append(1)
        return m @ q

    value, _ = sla.smallest_gen_eig(apply, m, _one_point(200))
    assert value == pytest.approx(1.0, rel=1e-14)
    assert len(applies) == 2   # one Lanczos step and the check


def test_pressure_schur_vs_dense_oracle(space0):
    s = pressure_schur_complement(space0)
    mp = fem.fluid_operators(space0).pressure_mass
    value, _ = sla.smallest_gen_eig(sp.csr_matrix(s).__matmul__, mp,
                                    solver.pressure_coordinates(space0))
    dense_vals = dla.eigh(s, mp.toarray(), eigvals_only=True)
    assert value == pytest.approx(dense_vals[0], abs=1e-6)


def test_eigen_iteration_cap_raises(monkeypatch):
    # a 1e-9 gap under the smallest eigenvalue: one Lanczos step on a
    # 200 x 200 problem cannot separate the pair
    diag = np.linspace(1.0, 5.0, 200)
    diag[1] = 1.0 + 1e-9
    monkeypatch.setattr(sla, "EIG_MAX_ITER", 1)
    with pytest.raises(sla.EigenIterationError, match="did not converge in 1 ") as err:
        sla.smallest_gen_eig(sp.diags(diag).tocsr().__matmul__, sp.identity(200, format="csr"),
                             _one_point(200))
    assert err.value.value is None and err.value.vector is None


def test_eigen_residual_failure_carries_pair(monkeypatch):
    # Lanczos converges to roundoff, which no pair can meet at 1e-30
    s = sp.diags([4.0, 9.0, 16.0]).tocsr()
    monkeypatch.setattr(sla, "EIG_TOL", 1e-30)
    with pytest.raises(sla.EigenIterationError, match="eigenresidual") as err:
        sla.smallest_gen_eig(s.__matmul__, sp.identity(3, format="csr"), _one_point(3))
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
    k = solver.free_velocity_block(space, fem.fluid_operators(space).strain)
    colamd_fill = spla.splu(k.tocsc()).nnz
    mmd_fill = spla.splu(k.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                         options=dict(SymmetricMode=True)).nnz
    made = _record_splu(monkeypatch)
    sla.factorize(k, solver.velocity_coordinates(space, space.free_velocity_dofs))
    (kwargs, lu), = made
    assert kwargs["permc_spec"] == "NATURAL"
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.nnz < mmd_fill
    assert lu.nnz < colamd_fill


def test_corrupted_solve_raises(rng):
    a = sp.csr_matrix(rng.standard_normal((30, 30)) + 30 * np.eye(30))
    factor = sla.Factorization(a, _one_point(30))
    # the stored matrix now differs from the factored one in entry (0, 0),
    # which only a solve whose solution has x[0] != 0 can see
    factor._a = (a + sp.csr_matrix(([1e-3], ([0], [0])), shape=a.shape)).tocsr()
    clean = a @ np.eye(30)[:, 1]            # solution e_1, x[0] = 0
    _, report = factor.solve(clean)
    assert report.residual <= 1e-14
    b = rng.standard_normal(30)
    with pytest.raises(sla.SolveAccuracyError) as err:
        factor.solve(b)
    report = err.value.report
    x_bad = np.linalg.solve(a.toarray(), b)
    expected = 1e-3 * abs(x_bad[0]) / np.linalg.norm(b)
    assert report.residual == pytest.approx(expected, rel=1e-6)


def test_report_fields_are_measured(space0, params):
    a = solver._operator(space0, params).saddle
    b = _resolvent_rhs(np.random.default_rng(5), a.shape[0])
    x, report = sla.factorize(
        a, solver.saddle_coordinates(space0, space0.solid_interior_dofs)).solve(b)
    direct = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert report.residual == pytest.approx(direct, rel=1e-6)


def test_pivot_growth_is_max_abs_u_over_max_abs_a(space0, params, rng):
    saddle = solver._operator(space0, params).saddle
    xy = solver.saddle_coordinates(space0, space0.solid_interior_dofs)
    cases = [(saddle, xy), (-saddle, xy),                   # max|U| of either sign
             (fem.assemble(space0, "fluid_mass"),               # SPD block
              solver.velocity_coordinates(space0, np.arange(space0.num_velocity_dofs))),
             (sp.csr_matrix(rng.standard_normal((40, 40))), _one_point(40))]
    for a, coordinates in cases:
        factor = sla.Factorization(a, coordinates)
        expected = np.abs(factor._lu.U.data).max() / np.abs(a.data).max()
        assert factor.pivot_growth == expected


def test_level0_schur_spd(space0):
    # positive definiteness of the pressure Schur complement (B full row rank)
    s = pressure_schur_complement(space0)
    evals = dla.eigvalsh(s)
    assert evals[0] > 0.0


# -- nested-dissection ordering of saddle matrices ---------------------------

@pytest.fixture(scope="module")
def operators(params):
    """Resolvent operators of levels 0-3 at the default parameters."""
    return {level: solver.ResolventOperator(fem.build_space(meshmod.generate(level)),
                                            params)
            for level in range(4)}


def _assert_pressure_after_velocity(space, perm):
    """Each pressure unknown of the resolvent saddle of `space` is ordered
    after a free velocity dof it couples to, in the permutation `perm`."""
    position = np.empty(perm.size, dtype=np.int64)
    position[perm] = np.arange(perm.size)
    # row i of B holds the free velocity dofs pressure dof i couples to
    b = fem.fluid_operators(space).div[:, space.free_velocity_dofs]
    b.eliminate_zeros()
    first_velocity = np.minimum.reduceat(position[b.indices], b.indptr[:-1])
    pressure = space.free_velocity_dofs.size + space.solid_interior_dofs.size
    assert np.all(first_velocity < position[pressure:pressure + space.num_pressure_dofs])


def test_nested_dissection_orders_pressure_after_velocity(operators):
    for level, op in operators.items():
        # the operator keeps no reference to its space; numbering is
        # deterministic, so a rebuilt space numbers the saddle alike
        space = fem.build_space(meshmod.generate(level))
        n = op.saddle.shape[0]
        perm = op.factor._perm
        assert np.array_equal(np.sort(perm), np.arange(n)), level
        # the multiplier, which has no coordinates, comes last
        assert perm[-1] == n - 1, level
        _assert_pressure_after_velocity(space, perm)


def test_nested_dissection_agrees_with_colamd(operators, rng):
    for level, op in operators.items():
        for _ in range(2):
            b = _resolvent_rhs(rng, op.saddle.shape[0])
            x_nd, report = op.factor.solve(b)
            x_colamd = spla.splu(op.saddle.tocsc()).solve(b)   # SuperLU's default: COLAMD
            assert report.residual <= 1e-12, level
            assert np.linalg.norm(x_nd - x_colamd) <= 1e-10 * np.linalg.norm(x_colamd), level


def test_level3_saddle_fill_stays_nested_dissection(operators):
    # node nested dissection: 3.14 M; cutting through nodes and taking the
    # upper boundary layer gave 4.28 M, a fall-back to COLAMD 8.36 M
    assert operators[3].factor._lu.nnz <= 3_600_000


def test_coordinates_select_natural_symmetric_mode(space0, params, monkeypatch):
    saddle = solver._operator(space0, params).saddle
    made = _record_splu(monkeypatch)
    sla.factorize(saddle, solver.saddle_coordinates(space0, space0.solid_interior_dofs))
    (kwargs, lu), = made
    assert kwargs == dict(permc_spec="NATURAL", diag_pivot_thresh=1e-3,
                          options=dict(SymmetricMode=True))
    assert np.array_equal(lu.perm_c, np.arange(saddle.shape[0]))


def test_nested_dissection_validates_coordinates(space0, params):
    saddle = solver._operator(space0, params).saddle
    n = saddle.shape[0]
    xy = solver.saddle_coordinates(space0, space0.solid_interior_dofs)
    # the multiplier of the bordered saddle has no coordinates: only
    # `Factorization` numbers such trailing unknowns, nested dissection
    # wants one row for every unknown
    for bad in (xy, np.zeros((3, 2)), np.zeros(n), np.zeros((n, 0)),
                np.zeros((n, 2, 1)), None):
        with pytest.raises(ValueError, match="coordinate row per unknown"):
            sla.nested_dissection(saddle, bad)
    xy = np.vstack([xy, [[0.5, 0.5]]])
    xy[5, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sla.nested_dissection(saddle, xy)


def test_factorization_numbers_trailing_unknowns_last():
    # a bordered path: unknowns 0..39 on a line, their coordinates
    # descending, then two unknowns coupled to all of them
    n, extra = 40, 2
    path = sp.diags([np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)], [-1, 0, 1])
    border = sp.csr_matrix(np.ones((extra, n)))
    a = sp.bmat([[path, border.T], [border, 8.0 * sp.identity(extra)]], format="csr")
    xy = -np.arange(n, dtype=float)[:, None]
    factor = sla.factorize(a, xy)
    assert np.array_equal(factor._perm[:n], sla.nested_dissection(path, xy))
    assert np.array_equal(factor._perm[n:], [n, n + 1])
    b = np.arange(n + extra, dtype=float)
    x, report = factor.solve(b)
    assert report.residual <= 1e-14
    assert np.linalg.norm(x - np.linalg.solve(a.toarray(), b)) <= 1e-13 * np.linalg.norm(x)


def test_factorization_rejects_bad_coordinates(space0, params):
    saddle = solver._operator(space0, params).saddle
    n = saddle.shape[0]
    xy = solver.saddle_coordinates(space0, space0.solid_interior_dofs)
    # more rows than unknowns, and no row at all
    for bad in (np.vstack([xy, [[0.5, 0.5]], [[0.5, 0.5]]]), np.zeros((0, 2)), None):
        with pytest.raises(ValueError, match=f"coordinate row for each of 1 to {n}"):
            sla.factorize(saddle, bad)
    for value in (np.nan, np.inf):
        corrupt = xy.copy()
        corrupt[5, 1] = value
        with pytest.raises(ValueError, match="finite"):
            sla.factorize(saddle, corrupt)


def test_nested_dissection_refuses_a_singular_matrix():
    # a chain of 200 unknowns placed in reverse along a line, with unknown
    # 37 decoupled and zero, which the ordering moves: the factor refuses it
    n, k = 200, 37
    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tolil()
    a[k, :] = 0.0
    a[:, k] = 0.0
    a = a.tocsr()
    xy = np.column_stack([np.arange(n)[::-1], np.zeros(n)]).astype(float)
    perm = sla.nested_dissection(a, xy)
    assert np.flatnonzero(perm == k)[0] != k
    with pytest.raises(sla.SingularMatrixError):
        sla.factorize(a, xy)


_SINGULAR_CHAIN = """
import numpy as np
import scipy.sparse as sp

from fsifem import sparse

n, k = 3999, 1234
a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tolil()
a[k, :] = 0.0
a[:, k] = 0.0
a = a.tocsr()
xy = np.column_stack([np.arange(n), np.zeros(n)]).astype(float)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
def test_refusing_a_singular_matrix_costs_no_dense_copy():
    # the refusal is SuperLU's own: locating its pivot by a dense LU of
    # this 3 999-unknown chain raised the peak by 503 MB and took 1.6 s
    refuse = """
try:
    sparse.factorize(a, xy)
    raise SystemExit("a singular matrix was factorized")
except sparse.SingularMatrixError:
    pass
"""
    assert peak_rss_growth_mb(_SINGULAR_CHAIN, refuse) < 50


def _grid_laplacian(k):
    """Five-point Laplacian of a k x k grid, unknown i + k j at (i, j)."""
    line = sp.diags([-np.ones(k - 1), 2.0 * np.ones(k), -np.ones(k - 1)], [-1, 0, 1])
    a = (sp.kron(sp.identity(k), line) + sp.kron(line, sp.identity(k))).tocsr()
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="xy")
    return a, np.column_stack([i.ravel(), j.ravel()]).astype(float)


@pytest.mark.parametrize("k", [9, 12])
def test_nested_dissection_top_separator_is_one_grid_line(k):
    a, xy = _grid_laplacian(k)
    perm = sla.nested_dissection(a, xy)
    assert np.array_equal(np.sort(perm), np.arange(k * k))
    top = xy[perm[-k:]]
    # one full grid line, and the middle one: no half-empty side
    assert np.unique(top[:, 0]).size == 1 or np.unique(top[:, 1]).size == 1
    assert np.unique(top, axis=0).shape[0] == k
    line = top[0, 0] if np.unique(top[:, 0]).size == 1 else top[0, 1]
    assert line in ((k - 1) // 2, k // 2)


def test_nested_dissection_degenerate_inputs_keep_index_order(rng):
    base = sp.random(100, 100, density=0.1, random_state=3, format="csr")
    a = (base + base.T + 10 * sp.identity(100)).tocsr()
    # every unknown at one coordinate: one node, nothing to cut
    perm = sla.nested_dissection(a, np.tile([0.25, -1.5], (100, 1)))
    assert np.array_equal(perm, np.arange(100))
    # no more unknowns than a leaf holds
    n = sla._ND_LEAF
    perm = sla.nested_dissection(a[:n, :n], rng.standard_normal((n, 2)))
    assert np.array_equal(perm, np.arange(n))


def test_nested_dissection_keeps_the_unknowns_of_a_node_together():
    # two unknowns per grid node, 2i and 2i + 1 at node i, with different
    # reach: the five-point stencil on component 0, its two-step version
    # (neighbours one and two lines away) on component 1, coupled at each
    # node; an unknown-level cut would put only component 1 of the second
    # line into the separator
    k = 10
    five, xy = _grid_laplacian(k)
    line = sp.diags([-np.ones(k - 2), -np.ones(k - 1), 4.0 * np.ones(k),
                     -np.ones(k - 1), -np.ones(k - 2)], [-2, -1, 0, 1, 2])
    wide = sp.kron(sp.identity(k), line) + sp.kron(line, sp.identity(k))
    a = (sp.kron(five, sp.diags([1.0, 0.0]))
         + sp.kron(wide, sp.diags([0.0, 1.0]))
         + sp.kron(sp.identity(k * k), sp.csr_matrix([[0.0, 0.5], [0.5, 0.0]]))).tocsr()
    perm = sla.nested_dissection(a, np.repeat(xy, 2, axis=0))
    assert np.array_equal(np.sort(perm), np.arange(2 * k * k))
    position = np.empty_like(perm)
    position[perm] = np.arange(perm.size)
    assert np.all(position[1::2] == position[0::2] + 1)


def test_nested_dissection_on_a_jittered_mesh(jittered_mesh1, params, rng):
    space = fem.build_space(jittered_mesh1)
    op = solver.ResolventOperator(space, params)
    n = op.saddle.shape[0]
    perm = op.factor._perm
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert perm[-1] == n - 1
    _assert_pressure_after_velocity(space, perm)
    x, report = op.factor.solve(_resolvent_rhs(rng, n))
    assert report.residual <= 1e-10
