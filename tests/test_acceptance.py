"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -v -s`).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as dla

from conftest import pressure_schur_complement
from fsifem import analysis, fem, mesh as meshmod, semigroup, solver

PARAMS = fem.MaterialParams(lame_lambda=1.0, lame_mu=1.0, shift=1.0)


def _report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {description}: {tag}  {detail}")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def convergence_report():
    start = time.perf_counter()
    report = analysis.convergence_study([0, 1, 2, 3], PARAMS)
    report.elapsed = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def infsup_report():
    return analysis.infsup_study([0, 1, 2, 3])


def _agrees_to_sig_figs(value, reference, figures=6):
    ulp = 10.0 ** (math.floor(math.log10(abs(reference))) - figures + 1)
    return abs(value - reference) <= 0.5 * ulp


def test_criterion_1_mesh_fidelity():
    start = time.perf_counter()
    meshes = [meshmod.generate(k) for k in range(4)]
    elapsed = time.perf_counter() - start
    counts = [m.num_triangles for m in meshes]
    hyps = [m.hypotenuse for m in meshes]
    expected_counts = [72, 288, 1152, 4608]
    expected_hyps = [0.235702, 0.117851, 0.0589256, 0.0294628]
    ok_counts = counts == expected_counts
    ok_hyps = all(_agrees_to_sig_figs(h, e) for h, e in zip(hyps, expected_hyps))
    ok_time = elapsed < 1.0
    _report(1, "mesh fidelity (Table-1 counts and hypotenuses, < 1 s)",
            ok_counts and ok_hyps and ok_time,
            f"counts={counts}, elapsed={elapsed:.3f}s")


def test_criterion_2_fluid_convergence_rate(convergence_report):
    rates = convergence_report.fluid_rates
    ok_final = 1.85 <= rates[-1] <= 2.10
    ok_monotone = all(rates[k + 1] >= rates[k] - 0.05 for k in range(len(rates) - 1))
    ok_time = convergence_report.elapsed < 300.0
    _report(2, "fluid H1 rate in [1.85, 2.10], nondecreasing (tol 0.05), < 5 min",
            ok_final and ok_monotone and ok_time,
            f"rates={[round(r, 3) for r in rates]}, "
            f"elapsed={convergence_report.elapsed:.1f}s")


def test_criterion_3_error_magnitude(convergence_report):
    eu0 = convergence_report.rows[0].eu_h1
    ok = 5.855e-10 <= eu0 <= 5.855e-6
    _report(3, "level-0 fluid H1 error within 100x of 5.855e-08", ok,
            f"eu_h1={eu0:.3e}")


def test_criterion_4_auxiliary_rates(convergence_report):
    pressure_final = convergence_report.pressure_rates[-1]
    solid_final = convergence_report.solid_rates[-1]
    ok_rates = pressure_final >= 2.0 and solid_final >= 3.0
    monotone = True
    for column in ("eu_h1", "epi_l2", "ew_h1"):
        vals = [getattr(r, column) for r in convergence_report.rows]
        monotone &= all(vals[k + 1] < vals[k] for k in range(len(vals) - 1))
    _report(4, "pressure rate >= 2.0, solid rate >= 3.0, errors strictly decreasing",
            ok_rates and monotone,
            f"pressure={pressure_final:.3f}, solid={solid_final:.3f}")


def test_criterion_5_infsup_uniformity(infsup_report):
    betas = [r.beta for r in infsup_report.rows]
    ok_positive = all(b > 0 for b in betas)
    ok_spread = infsup_report.spread <= 0.20
    space0 = fem.build_space(meshmod.generate(0))
    s = pressure_schur_complement(space0)
    mp = fem.fluid_operators(space0).pressure_mass.toarray()
    dense_beta = math.sqrt(dla.eigh(s, mp, eigvals_only=True)[0])
    ok_oracle = abs(betas[0] - dense_beta) <= 1e-6
    _report(5, "inf-sup beta_h > 0, spread <= 20%, level-0 dense oracle to 1e-6",
            ok_positive and ok_spread and ok_oracle,
            f"betas={[round(b, 6) for b in betas]}, spread={infsup_report.spread:.2%}, "
            f"oracle diff={abs(betas[0] - dense_beta):.2e}")


def test_criterion_6_dissipativity_identity():
    space = fem.build_space(meshmod.generate(1))
    rng = np.random.default_rng(1234)
    worst_residual, worst_sign = 0.0, -math.inf
    for _ in range(50):
        data = solver.data_from_vectors(
            space,
            rng.standard_normal(space.num_velocity_dofs),
            rng.standard_normal(space.num_solid_dofs),
            rng.standard_normal(space.num_solid_dofs))
        qform, dissipation = semigroup.generator_quadratic_form(space, PARAMS, data)
        worst_residual = max(worst_residual,
                             abs(qform + dissipation) / max(1.0, dissipation))
        worst_sign = max(worst_sign, qform)
    ok = worst_residual <= 1e-8 and worst_sign <= 0.0
    _report(6, "dissipativity identity over 50 random data at level 1", ok,
            f"max residual={worst_residual:.2e}, max (A Y, Y)={worst_sign:.2e}")


def test_criterion_7_contraction_and_balance():
    space = fem.build_space(meshmod.generate(1))
    rng = np.random.default_rng(4321)
    config = semigroup.EvolutionConfig(t_final=1.0, n_steps=100)   # dt = 0.01
    worst_balance, monotone = 0.0, True
    for _ in range(10):
        initial = solver.random_state(space, rng)
        result = semigroup.evolve(space, PARAMS, initial, config)
        totals = [row.e_total for row in result.trace.rows]
        monotone &= all(totals[k + 1] <= totals[k] * (1 + 1e-12)
                        for k in range(len(totals) - 1))
        worst_balance = max(worst_balance, result.balance_residual)
    ok = monotone and worst_balance <= 1e-6
    _report(7, "contraction over 100 steps (dt=0.01) from 10 states, balance 1e-6",
            ok, f"worst balance residual={worst_balance:.2e}")


def test_criterion_8_oracle_equivalence():
    space = fem.build_space(meshmod.generate(0))
    rng = np.random.default_rng(99)
    data = solver.data_from_vectors(
        space,
        rng.standard_normal(space.num_velocity_dofs),
        rng.standard_normal(space.num_solid_dofs),
        rng.standard_normal(space.num_solid_dofs))
    state, _ = solver.solve_resolvent(space, PARAMS, data)
    mono = solver.monolithic_solve(space, PARAMS, data)
    rel = lambda a, b: float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
    diffs = (rel(state.u, mono.u), rel(state.pi, mono.pi), rel(state.w, mono.w))
    ok = max(diffs) <= 1e-10
    _report(8, "bordered sparse resolvent solve equals dense monolithic solve "
            "to 1e-10 (level 0)",
            ok, f"(u, pi, w) rel diffs={tuple(f'{d:.1e}' for d in diffs)}")


def test_criterion_9_domain_condition_suite():
    rng = np.random.default_rng(7)
    case = analysis.manufactured_case(PARAMS.shift)
    all_ok, details = True, []
    for level, make_data in ((1, "manufactured"), (1, "random")):
        space = fem.build_space(meshmod.generate(level))
        if make_data == "manufactured":
            data = analysis.manufactured_data(space, case)
        else:
            data = solver.data_from_vectors(
                space,
                rng.standard_normal(space.num_velocity_dofs),
                rng.standard_normal(space.num_solid_dofs),
                rng.standard_normal(space.num_solid_dofs))
        state, _ = solver.solve_resolvent(space, PARAMS, data)
        report = solver.check_domain_conditions(space, PARAMS, state, state.pi, data)
        all_ok &= report.all_passed
        details.append(f"{make_data}: " + ", ".join(
            f"{c.name}={c.residual:.1e}" for c in report.checks))
    expected = {"A2_gamma_f_zero": 1e-12, "A4_trace_match": 1e-12,
                "divergence_orthogonality": 1e-10, "A5b_flux_match": 1e-9}
    tolerances_ok = all(c.tolerance == expected[c.name] for c in report.checks)
    _report(9, "domain conditions (A.2)/(A.4)/divergence/(A.5.b) at stated tolerances",
            all_ok and tolerances_ok, "; ".join(details))


def test_criterion_10_manufactured_case_integrity():
    import sympy

    case = analysis.manufactured_case(PARAMS.shift)
    residual = analysis.verify_data_identity(case)
    # each float array is the exact k-th derivative of the expanded phi,
    # rounded once
    x = sympy.Symbol("x")
    phi = sympy.expand(x**2 * (1 - x)**2 * (x - sympy.Rational(1, 3))**3
                       * (sympy.Rational(2, 3) - x)**3)
    arrays = (case.phi, case.dphi, case.d2phi, case.d3phi)
    exact_match = True
    for k, array in enumerate(arrays):
        poly = sympy.Poly(sympy.diff(phi, x, k), x)
        rounded = [float(Fraction(int(c.p), int(c.q))) for c in reversed(poly.all_coeffs())]
        exact_match &= array.tolist() == rounded
    ok = residual <= 1e-12 and exact_match
    _report(10, "data identity <= 1e-12 and coefficients are sympy's exact "
            "derivatives rounded once", ok,
            f"residual={residual:.2e}, rounded-exact match={exact_match}")
