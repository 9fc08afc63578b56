import math
import os
import subprocess
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import (helper_on_any_cpu, no_helper, perturbed_case,
                      pressure_schur_complement, quadrature_points, zero_state)
from fsifem import analysis, cli, fem, helper, mesh as meshmod, solver, sparse as sla


# -- manufactured case -------------------------------------------------------

def test_phi_midpoint_value(case):
    # (1/4)^2 * (1/6)^3 * (1/6)^3 by direct arithmetic
    assert npoly.polyval(0.5, case.phi) == pytest.approx(1.0 / 746496.0, rel=1e-9)


def test_phi_prime_symmetric_zero(case):
    assert abs(npoly.polyval(0.5, case.dphi)) <= 1e-12


def test_phi_prime_leading_coefficient(case):
    assert case.dphi[-1] == -10.0
    assert len(case.dphi) == 10   # degree 9


def test_exact_rational_expansion():
    coeffs = analysis.phi_coefficients()
    # leading and the two lowest nonzero coefficients, exact
    assert coeffs[10] == Fraction(-1)
    assert coeffs[2] == Fraction(-8, 729)
    assert coeffs[0] == coeffs[1] == 0
    # about x = 1/2: phi(1 - x) = phi(x), so every odd power vanishes
    centered = analysis.phi_coefficients((Fraction(1, 2), Fraction(1)))
    assert centered[0] == Fraction(1, 746496)
    assert all(c == 0 for c in centered[1::2])


def _laplacian_sign_flipped(lam, fx, fy):
    a, da, d2a, d3a = fx
    b, db, d2b, d3b = fy
    return (lam * a * db + 0.5 * (d2a * db + a * d3b),
            -lam * da * b - 0.5 * (d3a * b + da * d2b))


def test_data_identity_detects_laplacian_sign_flip(monkeypatch, case):
    # a formula fault in the separable data, which every coefficient shares
    monkeypatch.setattr(analysis, "_resolvent_data", _laplacian_sign_flipped)
    assert analysis.verify_data_identity(case) > 1e-6


def test_velocity_vanishes_on_interface_with_normal_derivative(case):
    y = np.linspace(0.35, 0.65, 13)
    for x_edge in (1.0 / 3.0, 2.0 / 3.0):
        x = np.full_like(y, x_edge)
        for field in case.velocity_and_gradient(x, y):
            assert np.abs(field).max() <= 1e-17


def test_velocity_is_divergence_free(case):
    x, y = analysis.fluid_sample_points()
    d11, _, _, d22 = case.velocity_and_gradient(x, y)[2:]
    assert np.abs(d11 + d22).max() == 0.0   # stream-function construction


def test_shift_validation():
    for shift in (0.0, math.inf):
        with pytest.raises(ValueError):
            analysis.manufactured_case(shift)


# -- data identity -----------------------------------------------------------

def test_data_identity_residual(case):
    assert analysis.verify_data_identity(case) <= 1e-12


def test_data_identity_detects_fault(case):
    # 1e-3 relative perturbation of the x^5 coefficient of phi'''
    index = 5
    delta = 1e-3 * abs(case.d3phi[index])
    broken = perturbed_case(case, "d3phi", index, delta)
    assert analysis.verify_data_identity(broken) > 1e-6


def test_data_identity_shift_invariant(case):
    doubled = analysis.manufactured_case(2.0 * case.shift)
    assert analysis.verify_data_identity(doubled) <= 1e-12


@pytest.mark.parametrize("shift", [10.0 ** k for k in range(-8, 13, 2)])
def test_data_identity_over_shift_range(shift):
    case = analysis.manufactured_case(shift)
    assert analysis.verify_data_identity(case) <= 1e-12
    index = 5
    broken = perturbed_case(case, "dphi", index, 1e-3 * abs(case.dphi[index]))
    assert analysis.verify_data_identity(broken) > 1e-7


def _per_point_load(space, case):
    """The fluid load of u* with `case.data` evaluated at every quadrature
    point: the reference for the class-evaluated load."""
    tris = space.fluid_tris
    rule = fem.triangle_rule(fem.DATA_QUAD_DEGREE)
    det, _ = fem._tri_geometry(space, tris)
    fx, fy = case.data(fem.quadrature_coordinate(space, tris, rule, 0),
                       fem.quadrature_coordinate(space, tris, rule, 1))
    n = fem.p2_values(rule.points)
    lx = np.einsum("q,qi,tq->ti", rule.weights, n, fx) * det[:, None]
    ly = np.einsum("q,qi,tq->ti", rule.weights, n, fy) * det[:, None]
    load = np.zeros(space.num_velocity_dofs)
    dofs = space.velocity_dofs_of_tris(tris)
    np.add.at(load, dofs[:, 0::2], lx)
    np.add.at(load, dofs[:, 1::2], ly)
    return load


@pytest.mark.parametrize("level", [0, 1, 2, 3, "jittered"])
def test_class_evaluated_load_is_bitwise_per_point(level, case, jittered_mesh1):
    msh = jittered_mesh1 if level == "jittered" else meshmod.generate(level)
    space = fem.build_space(msh)
    data = analysis.manufactured_data(space, case)
    assert np.array_equal(data.u_load, _per_point_load(space, case))
    assert np.all(data.w_star == 0.0) and np.all(data.z_star == 0.0)


def test_load_factors_evaluated_once_per_coordinate_class(case, monkeypatch):
    space = fem.build_space(meshmod.generate(3))
    evaluated = []
    polyval = npoly.polyval

    def counting(x, c, *args, **kwargs):
        evaluated.append(np.size(x))
        return polyval(x, c, *args, **kwargs)

    monkeypatch.setattr(analysis.npoly, "polyval", counting)
    analysis.manufactured_data(space, case)
    nq = fem.triangle_rule(fem.DATA_QUAD_DEGREE).weights.size
    verts = space.mesh.vertices[space.mesh.triangles[space.fluid_tris]]
    classes = sum(sla.bit_classes(verts[..., axis])[0].size for axis in (0, 1))
    # four factors per class and axis; point by point it is 8 * 4096 * nq
    assert sum(evaluated) == 4 * classes * nq


def test_sample_points_avoid_solid(case):
    x, y = analysis.fluid_sample_points()
    assert x.size == 1000
    inside = (x >= 1/3) & (x <= 2/3) & (y >= 1/3) & (y <= 2/3)
    assert not np.any(inside)


# -- error norms -------------------------------------------------------------

def test_interpolant_errors_vanish_for_zero_fields(space0, params, case):
    state = solver.FsiState(
        u=fem.interpolate(space0, case.velocity),
        w=np.zeros(space0.num_solid_dofs),
        z=np.zeros(space0.num_solid_dofs))
    err = analysis.error_norms(space0, state, np.zeros(space0.num_pressure_dofs),
                               case, params)
    assert err.ew_h1 == 0.0
    assert err.epi_l2 == 0.0
    assert err.ew_h1_full == 0.0
    assert err.eu_h1 < 1e-7   # coarse-mesh interpolation error only


def _direct_h1_norm_oracle(case, msh, degree=40):
    """Norm of the exact velocity by direct quadrature of the closed form,
    independent of the finite-element evaluation machinery."""
    rule = fem.triangle_rule(degree)
    verts = msh.vertices[msh.triangles[msh.tri_region == meshmod.FLUID]]
    pts = np.einsum("qk,tkd->tqd", rule.points, verts)
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    u1, u2, d11, d12, d21, d22 = case.velocity_and_gradient(pts[..., 0], pts[..., 1])
    dens = u1**2 + u2**2 + d11**2 + d12**2 + d21**2 + d22**2
    return math.sqrt(float(np.einsum("q,tq,t->", rule.weights, dens, det)))


def test_zero_state_error_is_exact_norm(space0, params, case):
    state = zero_state(space0)
    err = analysis.error_norms(space0, state, state.pi, case, params)
    oracle = _direct_h1_norm_oracle(case, space0.mesh)
    assert err.eu_h1 == pytest.approx(oracle, rel=1e-10)


def test_error_norm_includes_seminorm_column(solved1, params, case):
    space, _, state, _ = solved1
    err = analysis.error_norms(space, state, state.pi, case, params)
    assert 0.0 < err.eu_seminorm <= err.eu_h1
    assert err.ew_h1 <= err.ew_h1_full * 3.0 + 1e-30


def _p2_physical_gradients(space, tris, bary):
    """det, twice the signed area, and the physical gradients (nt, nq, 6, 2)
    of the P2 basis (order v0 v1 v2 m01 m12 m20) at the barycentric points
    `bary` of `tris`, from the vertex coordinates alone: grad lambda_k =
    (y_{k+1} - y_{k+2}, x_{k+2} - x_{k+1}) / det, the rows of the inverse
    Jacobian, and the closed forms (4 lambda_k - 1) grad lambda_k at a
    vertex and 4 (lambda_a grad lambda_b + lambda_b grad lambda_a) at the
    midpoint of edge ab."""
    xy = space.mesh.vertices[space.mesh.triangles[tris]]
    x, y = xy[..., 0], xy[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    ahead, behind = [1, 2, 0], [2, 0, 1]
    grad_l = np.stack([y[:, ahead] - y[:, behind], x[:, behind] - x[:, ahead]],
                      axis=-1) / det[:, None, None]
    lam, grad_l = bary[None, :, :, None], grad_l[:, None]
    vertex = (4 * lam - 1) * grad_l
    edge = 4 * (lam * grad_l[:, :, ahead] + lam[:, :, ahead] * grad_l)
    return det, np.concatenate([vertex, edge], axis=2)


def _single_batch_squares(space, state, pi, case, rule, tris):
    """Squared (L2, full-gradient, eps, pressure) errors with every
    triangle of `tris` in one batch and the physical gradients of all basis
    functions formed explicitly (`_p2_physical_gradients`), sharing no
    geometry or basis gradient with the package.  The pressure error is
    integrated at the quadrature points, independently of the package's
    Gram form."""
    det, g = _p2_physical_gradients(space, tris, rule.points)
    pts = quadrature_points(space, tris, rule)
    n = fem.p2_values(rule.points)
    dofs = space.velocity_dofs_of_tris(tris)
    cx = state.u[dofs[:, 0::2]]
    cy = state.u[dofs[:, 1::2]]
    uh_x = np.einsum("ti,qi->tq", cx, n)
    uh_y = np.einsum("ti,qi->tq", cy, n)
    gh_xx = np.einsum("ti,tqi->tq", cx, g[..., 0])
    gh_xy = np.einsum("ti,tqi->tq", cx, g[..., 1])
    gh_yx = np.einsum("ti,tqi->tq", cy, g[..., 0])
    gh_yy = np.einsum("ti,tqi->tq", cy, g[..., 1])
    ex_x, ex_y, d11, d12, d21, d22 = case.velocity_and_gradient(pts[..., 0], pts[..., 1])
    e_x, e_y = uh_x - ex_x, uh_y - ex_y
    e11, e12 = gh_xx - d11, gh_xy - d12
    e21, e22 = gh_yx - d21, gh_yy - d22
    wdet = rule.weights[None, :] * det[:, None]
    l2_sq = np.sum(wdet * (e_x**2 + e_y**2))
    grad_sq = np.sum(wdet * (e11**2 + e12**2 + e21**2 + e22**2))
    eps12 = 0.5 * (e12 + e21)
    eps_sq = np.sum(wdet * (e11**2 + e22**2 + 2.0 * eps12**2))
    cp = pi[space.pressure_loc[space.mesh.triangles[tris]]]
    pih = np.einsum("ti,qi->tq", cp, fem.p1_values(rule.points))
    pi_sq = np.sum(wdet * pih**2)   # the exact pressure is zero
    return np.array([l2_sq, grad_sq, eps_sq, pi_sq])


def _single_batch_fluid_norms(space, state, pi, case):
    """(eu_h1, epi_l2, eu_seminorm) with each rule group of the error
    norms in one batch (`_single_batch_squares`)."""
    l2_sq, grad_sq, eps_sq, pi_sq = sum(
        _single_batch_squares(space, state, pi, case, rule, tris)
        for rule, tris in analysis._error_rule_groups(space, space.fluid_tris))
    return math.sqrt(l2_sq + grad_sq), math.sqrt(pi_sq), math.sqrt(eps_sq)


def test_chunked_norms_match_single_batch_formula(params, case):
    space = fem.build_space(meshmod.generate(2))
    state, _ = solver.solve_resolvent(space, params,
                                      analysis.manufactured_data(space, case))
    err = analysis.error_norms(space, state, state.pi, case, params)
    expected = _single_batch_fluid_norms(space, state, state.pi, case)
    # abs=0: pytest's default absolute tolerance, 1e-12, would dwarf
    # rel=1e-13 on norms of order 1e-9
    assert (err.eu_h1, err.epi_l2, err.eu_seminorm) == pytest.approx(expected,
                                                                     rel=1e-13, abs=0.0)


def _full_rule_groups(space, tris):
    """Every triangle under the 400-point rule, exact for total degree 38
    whatever the triangle's sides."""
    return [(fem.triangle_rule(fem.ERROR_QUAD_DEGREE), tris)]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_reduced_rules_match_full_rule_norms(level, params, case, monkeypatch):
    # both rules are exact for the velocity integrands, so the velocity
    # norms differ only by the rounding of e = u_h - u at other points,
    # which grows as e shrinks: at most 2.9e-12 over levels 0-3, and
    # 2.0e-11 at level 4.  The pressure and solid norms are Gram forms,
    # which read no error rule
    space = fem.build_space(meshmod.generate(level))
    state, _ = solver.solve_resolvent(space, params,
                                      analysis.manufactured_data(space, case))
    reduced = analysis.error_norms(space, state, state.pi, case, params)
    monkeypatch.setattr(analysis, "_error_rule_groups", _full_rule_groups)
    full = analysis.error_norms(space, state, state.pi, case, params)
    assert reduced.eu_h1 != full.eu_h1   # other points, other rounding
    for field in ("eu_h1", "eu_seminorm"):
        assert getattr(reduced, field) == pytest.approx(getattr(full, field),
                                                        rel=1e-10, abs=0.0)
    assert ((reduced.epi_l2, reduced.ew_h1, reduced.ew_h1_full)
            == (full.epi_l2, full.ew_h1, full.ew_h1_full))


def test_error_rule_degrees_follow_the_manufactured_case():
    # u = (d psi/dy, -d psi/dx) with psi = phi(x) phi(y), and u_h is P2,
    # of lower degree: the squared errors have twice the largest degree of
    # a velocity component in x or in y, and twice its largest total degree
    p = analysis.phi_coefficients()
    psi = np.multiply.outer(p, p)
    degrees = [np.argwhere(u != 0)
               for u in (npoly.polyder(psi, axis=1), npoly.polyder(psi, axis=0))]
    assert fem.ERROR_AXIS_DEGREE == 2 * max(int(d.max()) for d in degrees)
    assert fem.ERROR_QUAD_DEGREE == 2 * max(int(d.sum(axis=1).max()) for d in degrees)
    deg_phi = len(p) - 1
    assert fem.ERROR_AXIS_DEGREE == 2 * deg_phi
    assert fem.ERROR_QUAD_DEGREE == 2 * (2 * deg_phi - 1)


def test_norms_do_not_depend_on_chunk_size(solved1, params, case, monkeypatch):
    space, _, state, _ = solved1
    norms = {}
    for chunk in (7, space.fluid_tris.size):   # 7 leaves a ragged last chunk
        monkeypatch.setattr(analysis, "ERROR_NORM_CHUNK", chunk)
        norms[chunk] = analysis.error_norms(space, state, state.pi, case, params)
    many, one = norms.values()
    for field in ("eu_h1", "epi_l2", "ew_h1", "eu_seminorm", "ew_h1_full"):
        assert getattr(many, field) == pytest.approx(getattr(one, field),
                                                     rel=1e-13, abs=0.0)


def test_norms_do_not_depend_on_block_size(solved1, params, case, monkeypatch):
    space, _, state, _ = solved1
    for chunk in (7, 1024):
        norms = []
        for block in (1, 7, analysis._ERROR_NORM_BLOCK):
            with monkeypatch.context() as m:
                m.setattr(analysis, "ERROR_NORM_CHUNK", chunk)
                m.setattr(analysis, "_ERROR_NORM_BLOCK", block)
                norms.append(analysis.error_norms(space, state, state.pi, case, params))
        assert norms[0] == norms[1] == norms[2]


def _per_point_error_squares(space, u, pi, case, rule, tris):
    """`analysis._fluid_error_squares` with the exact fields evaluated at
    every quadrature point of every triangle, no coordinate classes and no
    caller's table, followed by the squared pressure error integrated at
    the same points."""
    det, inv = fem._tri_geometry(space, tris)
    pts = quadrature_points(space, tris, rule)
    ex_x, ex_y, d11, d12, d21, d22 = case.velocity_and_gradient(
        pts[..., 0], pts[..., 1])
    wdet = rule.weights[None, :] * det[:, None]

    dofs = space.velocity_dofs_of_tris(tris)
    cx = u[dofs[:, 0::2]]
    cy = u[dofs[:, 1::2]]
    n = fem.p2_values(rule.points).T
    e_x = cx @ n - ex_x
    e_y = cy @ n - ex_y
    l2_sq = np.sum(wdet * (e_x**2 + e_y**2))

    gref = fem.p2_grads(rule.points)
    g_xi, g_eta = gref[..., 0].T, gref[..., 1].T
    inv = inv[..., None]

    def gradient_error(c, exact_dx, exact_dy):
        r_xi, r_eta = c @ g_xi, c @ g_eta
        return (r_xi * inv[:, 0, 0] + r_eta * inv[:, 1, 0] - exact_dx,
                r_xi * inv[:, 0, 1] + r_eta * inv[:, 1, 1] - exact_dy)

    e11, e12 = gradient_error(cx, d11, d12)
    e21, e22 = gradient_error(cy, d21, d22)
    grad_sq = np.sum(wdet * (e11**2 + e12**2 + e21**2 + e22**2))
    eps12 = 0.5 * (e12 + e21)
    eps_sq = np.sum(wdet * (e11**2 + e22**2 + 2.0 * eps12**2))

    cp = pi[space.pressure_loc[space.mesh.triangles[tris]]]
    e_p = cp @ fem.p1_values(rule.points).T   # the exact pressure is zero
    pi_sq = np.sum(wdet * e_p**2)
    return np.array([l2_sq, grad_sq, eps_sq, pi_sq])


def _noisy_state(space, case, rng):
    """The interpolant plus 1e-9 noise, random w and a random pressure."""
    u = fem.interpolate(space, case.velocity)
    state = solver.FsiState(u=u + 1e-9 * rng.standard_normal(u.size),
                            w=rng.standard_normal(space.num_solid_dofs),
                            z=np.zeros(space.num_solid_dofs))
    return state, rng.standard_normal(space.num_pressure_dofs)


def _assert_norms_bitwise_per_point(space, params, case, rng, monkeypatch):
    """The velocity norms are bitwise those of the per-point kernel, and
    the Gram pressure norm matches the pressure integrated at its points."""
    state, pi = _noisy_state(space, case, rng)
    grouped = analysis.error_norms(space, state, pi, case, params)
    pi_squares = []

    def per_point_kernel(space, u, case, rule, tris, table):
        *velocity, pi_sq = _per_point_error_squares(space, u, pi, case, rule, tris)
        pi_squares.append(pi_sq)
        return np.array(velocity)

    with monkeypatch.context() as m:
        m.setattr(analysis, "_fluid_error_squares", per_point_kernel)
        per_point = analysis.error_norms(space, state, pi, case, params)
    assert grouped == per_point
    assert grouped.epi_l2 == pytest.approx(math.sqrt(math.fsum(pi_squares)),
                                           rel=1e-13, abs=0.0)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_class_evaluated_norms_are_bitwise_per_point(level, params, case, rng,
                                                     monkeypatch):
    space = fem.build_space(meshmod.generate(level))
    _assert_norms_bitwise_per_point(space, params, case, rng, monkeypatch)


def test_jittered_mesh_norms_are_bitwise_per_point(jittered_mesh1, params, case, rng,
                                                   monkeypatch):
    space = fem.build_space(jittered_mesh1)
    verts = space.mesh.vertices[space.mesh.triangles[space.fluid_tris]]
    # only triangles with three fixed boundary vertices can share a class
    for axis in (0, 1):
        assert sla.bit_classes(verts[..., axis])[0].size >= space.fluid_tris.size - 2
    _assert_norms_bitwise_per_point(space, params, case, rng, monkeypatch)


def test_exact_field_evaluated_once_per_coordinate_class(params, case, monkeypatch):
    space = fem.build_space(meshmod.generate(3))
    state = zero_state(space)
    evaluated = []
    polyval = npoly.polyval

    def counting(x, c, *args, **kwargs):
        evaluated.append(np.size(x))
        return polyval(x, c, *args, **kwargs)

    monkeypatch.setattr(analysis.npoly, "polyval", counting)
    counts = []
    for cpus in (no_helper, helper_on_any_cpu):
        monkeypatch.setattr(helper, "_helper_cpus", cpus)
        evaluated.clear()
        analysis.error_norms(space, state, state.pi, case, params)
        counts.append(sum(evaluated))
    # six factors at every point of every group's rule
    per_point = 6 * sum(tris.size * rule.weights.size for rule, tris
                        in analysis._error_rule_groups(space, space.fluid_tris))
    assert 0 < counts[0] <= per_point / 8        # 319 440 of 5 406 720
    assert counts[1] == counts[0]                # once per chunk, not per thread


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_helper_thread_changes_no_bit(level, params, case, rng, monkeypatch):
    space = fem.build_space(meshmod.generate(level))
    state, pi = _noisy_state(space, case, rng)
    for chunk in (7, 1024):
        norms = []
        # a block of at least the chunk is the whole chunk: 64 and 128
        # split a chunk of 7 as 7 does
        for block in sorted({min(block, chunk) for block in (1, 7, 64, 128)}):
            for cpus in (no_helper, helper_on_any_cpu):
                with monkeypatch.context() as m:
                    m.setattr(analysis, "ERROR_NORM_CHUNK", chunk)
                    m.setattr(analysis, "_ERROR_NORM_BLOCK", block)
                    m.setattr(helper, "_helper_cpus", cpus)
                    norms.append(analysis.error_norms(space, state, pi, case, params))
        assert all(n == norms[0] for n in norms), (chunk, norms)


class InjectedFault(Exception):
    pass


def test_fault_in_helper_chunk_propagates(space1, params, case, rng, monkeypatch):
    state, pi = _noisy_state(space1, case, rng)
    failed = []
    real = analysis._fluid_error_squares

    def faulty(space, u, case, rule, tris, table):
        if threading.current_thread() is not threading.main_thread():
            failed.append(tris.size)
            raise InjectedFault("injected in the helper")
        return real(space, u, case, rule, tris, table)

    monkeypatch.setattr(analysis, "_fluid_error_squares", faulty)
    monkeypatch.setattr(helper, "_helper_cpus", helper_on_any_cpu)
    monkeypatch.setattr(analysis, "ERROR_NORM_CHUNK", 7)
    with pytest.raises(InjectedFault, match="injected in the helper"):
        analysis.error_norms(space1, state, pi, case, params)
    # the helper stopped at its first fault, and no thread outlives the call
    assert failed == [7]
    assert threading.enumerate() == [threading.main_thread()]


def test_fault_in_caller_chunk_propagates(space1, params, case, rng, monkeypatch):
    state, pi = _noisy_state(space1, case, rng)
    started = []   # (chunk, on the calling thread) of each chunk begun
    real = analysis._fluid_error_squares
    # each chunk of 7 by its first triangle, in the order of the sums
    firsts = [int(tris[start]) for _, tris
              in analysis._error_rule_groups(space1, space1.fluid_tris)
              for start in range(0, tris.size, 7)]

    def faulty(space, u, case, rule, tris, table):
        chunk = firsts.index(int(tris[0]))
        started.append((chunk, threading.current_thread() is threading.main_thread()))
        if chunk == 0:
            raise InjectedFault("injected in the caller")
        return real(space, u, case, rule, tris, table)

    monkeypatch.setattr(analysis, "_fluid_error_squares", faulty)
    monkeypatch.setattr(helper, "_helper_cpus", helper_on_any_cpu)
    monkeypatch.setattr(analysis, "ERROR_NORM_CHUNK", 7)
    with pytest.raises(InjectedFault, match="injected in the caller"):
        analysis.error_norms(space1, state, pi, case, params)
    # the caller's chunk 0 failed with chunk 1 of its pair at most on the
    # helper, no later chunk began, and no thread outlives the call
    assert (0, True) in started
    assert {chunk for chunk, _ in started} <= {0, 1}
    assert [chunk for chunk, caller in started if not caller] in ([], [1])
    assert threading.enumerate() == [threading.main_thread()]


def test_submit_without_a_helper_runs_the_job_before_it_returns(monkeypatch):
    monkeypatch.setattr(helper, "_helper_cpus", no_helper)
    ran = []

    def job():
        ran.append(threading.current_thread())
        return 7

    def failing():
        raise InjectedFault("inline")

    with helper.thread(4) as submit:
        join = submit(job)
        assert ran == [threading.main_thread()]
        assert join() == 7 and len(ran) == 1
        # the job's exception comes from `submit` itself, not its join
        with pytest.raises(InjectedFault, match="inline"):
            submit(failing)
    assert threading.enumerate() == [threading.main_thread()]


def test_helper_runs_only_with_two_chunks_and_two_cpus(monkeypatch):
    monkeypatch.setattr(helper.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(helper, "_current_cpu", lambda: 1)
    assert helper._helper_cpus(1) == set()
    assert helper._helper_cpus(2) == {0}
    monkeypatch.setattr(helper.os, "sched_getaffinity", lambda pid: {1})
    assert helper._helper_cpus(16) == set()


def test_solid_error_norm_uses_given_moduli(space0, case, rng):
    stiff = fem.MaterialParams(lame_lambda=10.0, lame_mu=3.0, shift=1.0)
    state = solver.FsiState(u=np.zeros(space0.num_velocity_dofs),
                            w=rng.standard_normal(space0.num_solid_dofs),
                            z=np.zeros(space0.num_solid_dofs))
    err = analysis.error_norms(space0, state, np.zeros(space0.num_pressure_dofs),
                               case, stiff)
    w = state.w
    gram = (fem.assemble(space0, "solid_stiffness", stiff)
            + fem.assemble(space0, "solid_mass"))
    assert err.ew_h1 == pytest.approx(math.sqrt(w @ (gram @ w)), rel=1e-12)
    # unit moduli lambda = mu = 1 give a far smaller norm, so no default is safe
    unit = analysis.error_norms(space0, state, np.zeros(space0.num_pressure_dofs),
                                case, fem.MaterialParams(shift=1.0))
    assert err.ew_h1 > 1.5 * unit.ew_h1
    with pytest.raises(TypeError):
        analysis.error_norms(space0, state, np.zeros(space0.num_pressure_dofs), case)


def test_solid_full_h1_error_matches_quadrature(space1, params, case, rng):
    # the exact solid field is zero, so the full-H1 error is the norm of w
    # itself, here integrated at the points of a degree-4 rule from the
    # closed-form P2 gradients, independently of the Gram matrices
    w = rng.standard_normal(space1.num_solid_dofs)
    state = solver.FsiState(u=np.zeros(space1.num_velocity_dofs), w=w,
                            z=np.zeros(space1.num_solid_dofs))
    err = analysis.error_norms(space1, state, np.zeros(space1.num_pressure_dofs),
                               case, params)
    tris = space1.solid_tris
    rule = fem.triangle_rule(4)
    det, g = _p2_physical_gradients(space1, tris, rule.points)
    dofs = space1.solid_dofs_of_tris(tris)
    squares = 0.0
    for c in (w[dofs[:, 0::2]], w[dofs[:, 1::2]]):
        value = np.einsum("ti,qi->tq", c, fem.p2_values(rule.points))
        d_dx = np.einsum("ti,tqi->tq", c, g[..., 0])
        d_dy = np.einsum("ti,tqi->tq", c, g[..., 1])
        squares += np.sum(rule.weights * det[:, None] * (value**2 + d_dx**2 + d_dy**2))
    assert err.ew_h1_full == pytest.approx(math.sqrt(squares), rel=1e-13, abs=0.0)


def test_error_norm_memory_is_bounded(params, case, traced_peak):
    # one batch of all 4096 fluid triangles allocates about 460 MB here
    space = fem.build_space(meshmod.generate(3))
    state = solver.FsiState(
        u=fem.interpolate(space, case.velocity),
        w=np.zeros(space.num_solid_dofs),
        z=np.zeros(space.num_solid_dofs))
    peak = traced_peak(lambda: analysis.error_norms(
        space, state, np.zeros(space.num_pressure_dofs), case, params))
    assert peak < 45 * 2**20


# -- convergence study -------------------------------------------------------

def test_convergence_rows_and_rates_structure(params, assembled_forms):
    with assembled_forms() as forms:
        report = analysis.convergence_study([0, 1], params)
    # each level's operator reads the velocity mass, assembled once per space
    assert forms.count("fluid_mass") == 2
    assert [r.elements for r in report.rows] == [72, 288]
    assert len(report.fluid_rates) == 1
    assert all(r.failed is None for r in report.rows)
    assert all(0.0 < r.solve_residual <= 1e-10 for r in report.rows)
    assert report.rows[0].eu_h1 > report.rows[1].eu_h1


def test_convergence_rejects_unsorted_levels(params):
    with pytest.raises(ValueError):
        analysis.convergence_study([2, 1], params)


@pytest.mark.parametrize("levels, message", [([], "at least one entry"),
                                             ([1, 0], "ascending and distinct")])
def test_studies_refuse_empty_or_unsorted_levels(levels, message, params):
    # an empty inf-sup study would give a report whose `spread` raises
    with pytest.raises(ValueError, match=f"^levels must .*{message}"):
        analysis.convergence_study(levels, params)
    with pytest.raises(ValueError, match=f"^levels must .*{message}"):
        analysis.infsup_study(levels)


def test_interpolant_shortcut_gives_zero_solid_error(params, case):
    # bypassing the solve with exact interpolants: solid error identically 0
    for level in (0, 1):
        space = fem.build_space(meshmod.generate(level))
        state = solver.FsiState(
            u=fem.interpolate(space, case.velocity),
            w=np.zeros(space.num_solid_dofs),
            z=np.zeros(space.num_solid_dofs))
        err = analysis.error_norms(space, state, np.zeros(space.num_pressure_dofs),
                                   case, params)
        assert err.ew_h1 == 0.0


def _convergence_tables(out, code=0):
    """convergence.csv and rates.csv of `fsifem --mode convergence --levels
    0,1`, which exits `code`, each as a list of rows of cells."""
    assert cli.main(["--mode", "convergence", "--levels", "0,1", "--out", str(out)]) == code
    return [[line.split(",") for line in (out / name).read_text().splitlines()]
            for name in ("convergence.csv", "rates.csv")]


def test_rates_recomputed_from_csv(tmp_path):
    conv, rates = _convergence_tables(tmp_path)
    i_fluid = conv[0].index("fluid_h1")
    errors = [float(row[i_fluid]) for row in conv[1:]]
    recomputed = math.log(errors[0] / errors[1]) / math.log(2.0)
    assert recomputed == pytest.approx(float(rates[1][rates[0].index("fluid_h1")]),
                                       rel=1e-12)


def _fail_second_solve(monkeypatch, error):
    calls = {"n": 0}
    original = solver.ResolventOperator.solve

    def flaky(op, data):
        calls["n"] += 1
        if calls["n"] == 2:
            raise error
        return original(op, data)

    monkeypatch.setattr(analysis.solver.ResolventOperator, "solve", flaky)


def test_study_frees_each_factor_before_the_error_norms(params, monkeypatch):
    # the error norms read nothing of the operator, so its factor must not
    # add to their working set; reference counting frees it, no cycle
    # holds it.  In a fresh one-BLAS-thread process the levels 0-3 study
    # peaked at 118 MB this way, against 145 MB with each level's operator
    # alive through its norms
    built = []
    real_init, real_norms = solver.ResolventOperator.__init__, analysis.error_norms

    def init(op, *args, **kwargs):
        built.append(weakref.ref(op))
        real_init(op, *args, **kwargs)

    def norms(*args, **kwargs):
        assert built and all(ref() is None for ref in built)
        return real_norms(*args, **kwargs)

    monkeypatch.setattr(solver.ResolventOperator, "__init__", init)
    monkeypatch.setattr(analysis, "error_norms", norms)
    report = analysis.convergence_study([0, 1], params)
    assert [row.failed for row in report.rows] == [None, None]
    assert len(built) == 2


def test_partial_report_marks_failed_level(params, monkeypatch, tmp_path):
    measured = sla.LinearSolveReport(residual=1.0)
    error = sla.SolveAccuracyError("injected failure", measured)
    _fail_second_solve(monkeypatch, error)
    report = analysis.convergence_study([0, 1], params)
    assert report.rows[0].failed is None
    assert report.rows[1].failed == "SolveAccuracyError: injected failure"
    assert math.isnan(report.rows[1].solve_residual)
    assert report.fluid_rates == [None]
    monkeypatch.undo()
    _fail_second_solve(monkeypatch, error)
    conv, rates = _convergence_tables(tmp_path, code=1)
    assert [row[-1] for row in conv[1:]] == ["ok", "SolveAccuracyError: injected failure"]
    assert rates[1][1:] == ["—"] * 3


def test_programming_error_propagates_from_study(params, monkeypatch):
    _fail_second_solve(monkeypatch, TypeError("injected bug"))
    with pytest.raises(TypeError, match="injected bug"):
        analysis.convergence_study([0, 1], params)


def test_rate_floor_reports_dash(monkeypatch, tmp_path):
    rows = [analysis.ConvergenceRow(level=0, elements=72, hypotenuse=0.2,
                                    eu_h1=1e-20, epi_l2=1.0, ew_h1=1.0),
            analysis.ConvergenceRow(level=1, elements=288, hypotenuse=0.1,
                                    eu_h1=1e-21, epi_l2=0.5, ew_h1=0.25)]
    report = analysis.ConvergenceReport(rows=rows)
    assert report.fluid_rates == [None]
    assert report.pressure_rates == [pytest.approx(1.0)]
    monkeypatch.setattr(analysis, "convergence_study", lambda levels, params: report)
    _, rates = _convergence_tables(tmp_path)
    assert rates[1] == ["mesh1/mesh2", "—", "1.0", "2.0"]


# -- inf-sup study -----------------------------------------------------------

def test_infsup_levels_positive_and_uniform():
    report = analysis.infsup_study([0, 1, 2])
    betas = [r.beta for r in report.rows]
    assert all(b > 0 for b in betas)
    assert report.spread <= 0.20


def test_infsup_study_never_assembles_the_velocity_mass(assembled_forms):
    with assembled_forms() as forms:
        analysis.infsup_study([0, 1])
    assert forms.count("fluid_mass") == 0
    assert forms.count("fluid_strain") == forms.count("divergence") == 2


def test_infsup_level0_matches_dense_oracle(space0):
    import scipy.linalg as dla
    beta = analysis.infsup_beta(space0)
    s = pressure_schur_complement(space0)
    mp = fem.fluid_operators(space0).pressure_mass.toarray()
    dense = math.sqrt(dla.eigh(s, mp, eigvals_only=True)[0])
    assert abs(beta - dense) <= 1e-6


def test_infsup_constants_only_subspace(space0):
    # degenerate one-dimensional pressure subspace spanned by mu = 1
    fops = fem.fluid_operators(space0)
    free = space0.free_velocity_dofs
    k = fops.strain[free][:, free].toarray()
    b = fops.div[:, free].toarray()
    ones = np.ones(space0.num_pressure_dofs)
    b_const = ones @ b
    s_const = b_const @ np.linalg.solve(k, b_const)
    m_const = ones @ (fops.pressure_mass @ ones)
    beta_const = math.sqrt(s_const / m_const)
    # dense oracle on the same one-dimensional problem
    oracle = math.sqrt((b_const @ np.linalg.solve(k, b_const)) / m_const)
    assert beta_const == pytest.approx(oracle, rel=1e-12)
    assert beta_const > 0
    # the full inf-sup constant is a minimum over all pressures
    assert analysis.infsup_beta(space0) <= beta_const + 1e-12


# beta_h of the block inverse iteration on the saddle factorization that
# the Lanczos eigensolves replaced; ARPACK's Lanczos and the plain
# Lanczos loop of `smallest_gen_eig` each met them to 1.3e-14 relative
PREVIOUS_BETA = {0: 0.4495509962707977, 1: 0.45732875888393204,
                 2: 0.4609207370265064, 3: 0.46255872333160747}


@pytest.fixture(scope="module")
def infsup_runs(factorize_calls):
    """level -> (beta, Schur applies, factorize calls as (shape, with
    coordinates))."""
    real_eig = sla.smallest_gen_eig
    runs = {}
    for level in PREVIOUS_BETA:
        applies = []

        def counting_eig(apply_s, m, *args, **kwargs):
            def apply(q):
                applies.append(1)
                return apply_s(q)
            return real_eig(apply, m, *args, **kwargs)

        space = fem.build_space(meshmod.generate(level))
        with pytest.MonkeyPatch.context() as mp, factorize_calls() as calls:
            mp.setattr(sla, "smallest_gen_eig", counting_eig)
            beta = analysis.infsup_beta(space)
        runs[level] = (space, beta, len(applies), calls)
    return runs


def test_infsup_matches_previous_eigensolve(infsup_runs):
    for level, (_, beta, _, _) in infsup_runs.items():
        assert beta == pytest.approx(PREVIOUS_BETA[level], rel=1e-12)


def test_infsup_applies_do_not_grow_with_level(infsup_runs):
    counts = [infsup_runs[level][2] for level in (1, 2, 3)]
    assert max(counts) <= 1.5 * min(counts)


def test_infsup_lanczos_stops_at_the_first_certified_pair(infsup_runs):
    # measured 29, 31 and 32 applies at levels 1-3, check included;
    # ARPACK, which tests only at its restarts, made 42, 52 and 52
    for level in (1, 2, 3):
        assert infsup_runs[level][2] <= 36


_INFSUP_HEX = """
import hashlib
import numpy as np
import scipy.sparse as sp
from fsifem import analysis, fem, mesh, sparse
for level in (0, 1):
    print(analysis.infsup_beta(fem.build_space(mesh.generate(level))).hex())
n = 20_000
s = sp.diags([-0.5, 3.0, -0.5], [-1, 0, 1], shape=(n, n), format="lil")
s[0, 0] = 0.5
value, vec = sparse.smallest_gen_eig(s.tocsr().__matmul__,
                                     sp.diags(np.linspace(1.0, 2.0, n)).tocsr(),
                                     np.zeros((n, 1)))
print(value.hex(), hashlib.sha256(vec.tobytes()).hexdigest())
"""


def test_infsup_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot of more than 10 000 entries among its threads:
    # the 20 000-unknown pencil is there so that a BLAS product in the
    # Lanczos loop changes a bit, which the level 0-1 pressures are too
    # short to show
    src = str(Path(fem.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", _INFSUP_HEX], env=env,
                                  capture_output=True, text=True, check=True).stdout)
    assert out[0] == out[1]


def test_infsup_factorizes_no_saddle_matrix(infsup_runs):
    for space, _, _, calls in infsup_runs.values():
        nf, npr = space.free_velocity_dofs.size, space.num_pressure_dofs
        assert calls
        assert set(calls) <= {((nf, nf), True, "double"), ((npr, npr), True, "double")}


def test_infsup_velocity_factor_fill_is_nested_dissection(infsup_runs):
    # level 3: node nested dissection fills 1.67 M, SuperLU's minimum
    # degree on K + K^T 2.00 M
    space = infsup_runs[3][0]
    k = solver.free_velocity_block(space, fem.fluid_operators(space).strain)
    factor = sla.factorize(k, solver.velocity_coordinates(space, space.free_velocity_dofs))
    assert factor._lu.nnz <= 1_900_000


def test_infsup_memory_is_bounded(infsup_runs, traced_peak):
    # the SPD factors never read SuperLU's U, whose CSC copies of L and U
    # took this peak from 13.1 MB to 27.7 MB
    space = infsup_runs[3][0]
    fem.fluid_operators(space)
    assert traced_peak(lambda: analysis.infsup_beta(space)) < 20 * 2**20


def test_infsup_is_bitwise_repeatable(space1):
    assert analysis.infsup_beta(space1) == analysis.infsup_beta(space1)


def test_schur_complement_symmetry(space0):
    s = pressure_schur_complement(space0)
    assert np.abs(s - s.T).max() <= 1e-14 * np.abs(s).max()
