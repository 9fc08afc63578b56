import dataclasses
import math
import weakref
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import quadrature_points, signed_areas
from fsifem import analysis, fem, mesh as meshmod, solver


# -- quadrature --------------------------------------------------------------

@pytest.mark.parametrize("degree", [2, fem.SYSTEM_QUAD_DEGREE, fem.DATA_QUAD_DEGREE])
def test_quadrature_monomial_exactness(degree):
    rule = fem.triangle_rule(degree)
    xi, eta, w = rule.points[:, 1], rule.points[:, 2], rule.weights
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            value = float(np.sum(w * xi**a * eta**b))
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(value - exact) <= 1e-13 * max(1.0, exact)


def test_quadrature_unit_integral():
    for degree in (fem.SYSTEM_QUAD_DEGREE, fem.DATA_QUAD_DEGREE, fem.ERROR_QUAD_DEGREE):
        rule = fem.triangle_rule(degree)
        assert float(rule.weights.sum()) == pytest.approx(0.5, abs=1e-15)
        assert np.all(rule.weights > 0)


@pytest.mark.parametrize("degree", [fem.DATA_QUAD_DEGREE, fem.ERROR_QUAD_DEGREE])
def test_quadrature_points_match_einsum_bitwise(degree, rng):
    rule = fem.triangle_rule(degree)
    structured = meshmod.generate(2)
    verts = rng.random((3000, 2))
    random = SimpleNamespace(vertices=verts, triangles=np.arange(3000).reshape(1000, 3))
    for msh in (structured, random):
        tris = np.arange(len(msh.triangles))
        pts = quadrature_points(SimpleNamespace(mesh=msh), tris, rule)
        reference = np.einsum("qk,tkd->tqd", rule.points, msh.vertices[msh.triangles])
        assert np.array_equal(pts, reference)


def _local_monomial_integrals(rule, verts, power):
    """Integrals of ((x - x_c)/h)^a ((y - y_c)/h)^b, and of their absolute
    values, for a, b <= power over triangles with vertices `verts`
    (nt, 3, 2), x_c the centroid and h the largest coordinate extent, each
    divided by twice the triangle's area.  The local coordinates of the
    points are barycentric sums of those of the vertices, so they carry no
    cancellation from the global ones."""
    local = (verts - verts.mean(axis=1, keepdims=True)) / np.ptp(
        verts, axis=1).max(axis=1)[:, None, None]
    pts = np.einsum("qk,tkd->tqd", rule.points, local)
    x, y = (np.vander(pts[..., d].ravel(), power + 1, increasing=True)
            .reshape(*pts.shape[:2], power + 1) for d in (0, 1))
    wx = np.swapaxes(rule.weights[:, None] * x, 1, 2)
    return wx @ y, np.abs(wx) @ np.abs(y)


def _reduced_groups(space):
    """(apex, triangles) of each 220-point group of the error norms, whose
    rule is the one collapsed onto that apex."""
    reduced = [fem.triangle_rule(fem.ERROR_QUAD_DEGREE, fem.ERROR_AXIS_DEGREE, apex)
               for apex in range(3)]
    full = fem.triangle_rule(fem.ERROR_QUAD_DEGREE)
    groups = []
    for rule, tris in analysis._error_rule_groups(space, space.fluid_tris):
        apexes = [apex for apex, r in enumerate(reduced) if r is rule]
        assert apexes or rule is full
        groups += [(apex, tris) for apex in apexes]
    return groups


@pytest.mark.parametrize("degree, side_degree, apex, message", [
    (-1, None, 2, "nonnegative"), (6, -1, 2, "nonnegative"),
    (6, 8, 2, "side_degree at most degree"), (6, 6, 3, "apex must be vertex")])
def test_triangle_rule_refuses_bad_degrees_and_apex(degree, side_degree, apex, message):
    with pytest.raises(ValueError, match=message):
        fem.triangle_rule(degree, side_degree, apex)


@pytest.mark.parametrize("apex", [0, 1, 2])
def test_collapsed_rule_rolls_onto_its_apex(apex):
    base = fem.triangle_rule(fem.ERROR_QUAD_DEGREE, fem.ERROR_AXIS_DEGREE)
    rule = fem.triangle_rule(fem.ERROR_QUAD_DEGREE, fem.ERROR_AXIS_DEGREE, apex)
    assert rule.points.shape == (220, 3)
    assert np.array_equal(rule.points, np.roll(base.points, apex - 2, axis=1))
    assert np.array_equal(rule.weights, base.weights)
    # the Duffy coordinate t = eta of the base rule is the apex's column
    assert np.array_equal(np.unique(rule.points[:, apex]),
                          fem.gauss_legendre_01(20)[0])
    # exact for every polynomial of total degree ERROR_AXIS_DEGREE
    xi, eta, w = rule.points[:, 1], rule.points[:, 2], rule.weights
    for a in range(fem.ERROR_AXIS_DEGREE + 1):
        for b in range(fem.ERROR_AXIS_DEGREE + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(float(np.sum(w * xi**a * eta**b)) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("level", [0, 1, 2, "jittered"])
def test_reduced_error_rules_are_exact_along_an_axis_parallel_side(level, jittered_mesh1):
    msh = jittered_mesh1 if level == "jittered" else meshmod.generate(level)
    space = fem.build_space(msh)
    full = fem.triangle_rule(fem.ERROR_QUAD_DEGREE)
    degree, axis_degree = fem.ERROR_QUAD_DEGREE, fem.ERROR_AXIS_DEGREE
    a, b = np.meshgrid(np.arange(23), np.arange(23), indexing="ij")
    exact = (a <= axis_degree) & (b <= axis_degree) & (a + b <= degree)
    groups = _reduced_groups(space)
    assert groups
    for apex, tris in groups:
        rule = fem.triangle_rule(degree, axis_degree, apex)
        for block in np.array_split(tris, -(-tris.size // 128)):
            verts = msh.vertices[msh.triangles[block]]
            got, _ = _local_monomial_integrals(rule, verts, 22)
            want, scale = _local_monomial_integrals(full, verts, 22)
            error = np.abs(got - want) / scale
            assert error[:, exact].max() <= 1e-13, (level, apex)
            # 11 points along the side opposite the apex integrate degree
            # 21 there, not 22: the per-axis degree is what the rule needs
            ends = verts[:, [(apex + 1) % 3, (apex + 2) % 3]]
            horizontal = ends[:, 0, 1] == ends[:, 1, 1]
            assert np.all(horizontal | (ends[:, 0, 0] == ends[:, 1, 0]))
            along = np.where(horizontal, error[:, 22, 0], error[:, 0, 22])
            assert along.min() > 1e-9, (level, apex)


def test_every_generated_fluid_triangle_takes_a_reduced_error_rule():
    for level in range(5):
        space = fem.build_space(meshmod.generate(level))
        covered = np.concatenate([tris for _, tris in _reduced_groups(space)])
        assert np.array_equal(np.sort(covered), space.fluid_tris), level


def test_only_triangles_without_axis_parallel_side_take_the_full_error_rule(
        jittered_mesh1):
    space = fem.build_space(jittered_mesh1)
    full = fem.triangle_rule(fem.ERROR_QUAD_DEGREE)
    groups = analysis._error_rule_groups(space, space.fluid_tris)
    on_full = [tris for rule, tris in groups if rule is full]
    # written out per side, independently of the grouping
    oblique = []
    for tri in space.fluid_tris:
        v = jittered_mesh1.vertices[jittered_mesh1.triangles[tri]]
        sides = [(v[i], v[(i + 1) % 3]) for i in range(3)]
        if not any(p[0] == q[0] or p[1] == q[1] for p, q in sides):
            oblique.append(tri)
    assert len(oblique) > 0 and len(on_full) == 1
    assert np.array_equal(on_full[0], oblique)
    assert sum(tris.size for _, tris in groups) == space.fluid_tris.size


# -- space construction ------------------------------------------------------

def test_level0_interface_dofs(space0):
    # 8 perimeter vertices + 8 edge midpoints = 16 scalar nodes x 2 components
    assert space0.num_iface_dofs == 32


def test_pressure_dofs_match_enumeration(space0):
    # oracle: vertices belonging to at least one fluid triangle
    m = space0.mesh
    fluid_vertices = set(m.triangles[m.tri_region == meshmod.FLUID].ravel())
    assert space0.num_pressure_dofs == len(fluid_vertices) == 48


def test_gamma_f_and_interface_disjoint(space0):
    assert not set(space0.gamma_f_nodes) & set(space0.iface_nodes)


def test_node_count_consistent_with_euler(space1):
    m = space1.mesh
    assert space1.num_nodes == m.num_vertices + m.edges.shape[0]
    # Euler for the planar triangulation: V - E + (F + 1) = 2
    assert m.num_vertices - m.edges.shape[0] + m.num_triangles + 1 == 2


def test_interface_map_is_total_bijection(space1):
    fl = space1.fluid_loc[space1.iface_nodes]
    sl = space1.solid_loc[space1.iface_nodes]
    assert np.all(fl >= 0) and np.all(sl >= 0)
    assert len(np.unique(fl)) == len(fl)
    assert len(np.unique(sl)) == len(sl)


# -- the space's cache -------------------------------------------------------

class _Entry:
    """A toy cached value; unlike a tuple it takes a weak reference."""


def test_cache_keeps_one_value_per_name(mesh0):
    space = fem.build_space(mesh0)
    builds = []

    def build():
        builds.append(None)
        return _Entry()

    first = space.cached("toy", build, 1.0, "a")
    assert space.cached("toy", build, 1.0, "a") is first
    assert len(builds) == 1

    # other dependencies: the held value is gone before the new one is
    # built, so a sweep never holds two values of one name at once
    old = weakref.ref(first)
    del first
    seen = []

    def rebuild():
        seen.append(old())
        return _Entry()

    second = space.cached("toy", rebuild, 2.0, "a")
    assert seen == [None]
    assert space.cached("toy", build, 2.0, "a") is second
    assert len(builds) == 1

    # a build that raises leaves nothing under the name: the next request,
    # with the dependencies of the dropped value, builds again
    def failing():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError, match="build failed"):
        space.cached("toy", failing, 3.0, "a")
    assert "toy" not in space._cache
    space.cached("toy", build, 2.0, "a")
    assert len(builds) == 2


def test_solid_request_at_other_moduli_keeps_the_fluid_entries(mesh0):
    space = fem.build_space(mesh0)
    mass, fops = fem.fluid_mass(space), fem.fluid_operators(space)
    _assert_same_csr(mass, fem.assemble(space, "fluid_mass"), "fluid_mass")
    first = fem.solid_operators(space, fem.MaterialParams())
    other = fem.MaterialParams(lame_lambda=3.0, lame_mu=0.7, shift=2.0)
    assert fem.solid_operators(space, other) is not first
    assert fem.fluid_mass(space) is mass and fem.fluid_operators(space) is fops
    assert solver.ResolventOperator(space, other).mass_f is mass


# -- element matrices --------------------------------------------------------

def test_fluid_mass_row_sums_give_area(space0, params):
    tri = space0.fluid_tris[5]
    m = fem._local_matrices(space0, "fluid", params, "fluid_mass")[5]
    area = signed_areas(space0.mesh)[tri]
    ones_x = np.zeros(12)
    ones_x[0::2] = 1.0
    assert ones_x @ m @ ones_x == pytest.approx(area, rel=1e-13)


def test_strain_annihilates_rigid_rotation(space0, params):
    tri = space0.fluid_tris[7]
    k = fem._local_matrices(space0, "fluid", params, "fluid_strain")[7]
    xy = space0.node_xy[space0.tri_nodes[tri]]
    v = np.empty(12)
    v[0::2] = -xy[:, 1]
    v[1::2] = xy[:, 0]
    assert np.abs(k @ v).max() <= 1e-13


def test_patch_test_rigid_motions(space1):
    k = fem.assemble(space1, "fluid_strain")
    xy = space1.node_xy[space1.fluid_nodes]
    motions = [(np.ones(len(xy)), np.zeros(len(xy))),
               (np.zeros(len(xy)), np.ones(len(xy))),
               (-xy[:, 1], xy[:, 0])]
    for fx, fy in motions:
        v = np.empty(space1.num_velocity_dofs)
        v[0::2], v[1::2] = fx, fy
        assert abs(v @ (k @ v)) <= 1e-12


def _symbolic_local_matrices(verts, lam, mu):
    """The local gradient, strain, stiffness and divergence matrices of the
    triangle with vertices `verts` (3, 2), from their definitions: sympy
    derivatives in x and y of the P2 and P1 bases built from the vertices
    (taken as the rationals their floats are), integrated exactly with the
    monomial rule int xi^a eta^b = a! b! / (a + b + 2)! through the affine
    map.  Vector basis function 2 i + a is the i-th P2 shape in component a."""
    sympy = pytest.importorskip("sympy")
    x, y, xi, eta = sympy.symbols("x y xi eta")
    v = [[sympy.Rational(float(c)) for c in row] for row in verts]
    lam, mu = sympy.Rational(lam), sympy.Rational(mu)
    a = sympy.Matrix([[1, 1, 1], [p[0] for p in v], [p[1] for p in v]])
    l0, l1, l2 = a.inv() * sympy.Matrix([1, x, y])
    shapes = [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
              4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0]
    xmap = v[0][0] + (v[1][0] - v[0][0]) * xi + (v[2][0] - v[0][0]) * eta
    ymap = v[0][1] + (v[1][1] - v[0][1]) * xi + (v[2][1] - v[0][1]) * eta
    det = ((v[1][0] - v[0][0]) * (v[2][1] - v[0][1])
           - (v[2][0] - v[0][0]) * (v[1][1] - v[0][1]))

    @lru_cache(maxsize=None)
    def monomial(p, q):   # int over the triangle of x^p y^q
        poly = sympy.Poly(sympy.expand(xmap**p * ymap**q), xi, eta)
        return det * sum(c * sympy.Rational(math.factorial(s) * math.factorial(t),
                                            math.factorial(s + t + 2))
                         for (s, t), c in poly.terms())

    def integrate(poly):
        return float(sum(c * monomial(p, q) for (p, q), c in poly.terms()))

    # grads[k][c][d] = d_d of component c of vector basis function k, as
    # polynomials in x and y
    zero = sympy.Poly(0, x, y)
    grads = [[[sympy.Poly(sympy.diff(n, d), x, y) if c == comp else zero for d in (x, y)]
              for c in (0, 1)] for n in shapes for comp in (0, 1)]
    half = sympy.Rational(1, 2)   # a Poly keeps its type only on the left
    eps = [[[(g[c][d] + g[d][c]) * half for d in (0, 1)] for c in (0, 1)] for g in grads]
    div = [g[0][0] + g[1][1] for g in grads]

    def double(u, w):
        return sum(u[c][d] * w[c][d] for c in (0, 1) for d in (0, 1))

    square = {
        "gradient": lambda k, m: double(grads[k], grads[m]),
        "fluid_strain": lambda k, m: double(eps[k], eps[m]),
        "solid_stiffness": lambda k, m: (div[k] * div[m] * lam
                                         + double(eps[k], eps[m]) * (2 * mu)),
    }
    out = {form: np.array([[integrate(entry(k, m)) for m in range(12)] for k in range(12)])
           for form, entry in square.items()}
    out["divergence"] = np.array([[integrate(-sympy.Poly(p, x, y) * div[k]) for k in range(12)]
                                  for p in (l0, l1, l2)])
    return out


@pytest.mark.parametrize("triangle", ["right", "jittered"])
def test_derivative_kernels_match_symbolic_oracle(triangle, mesh0, jittered_mesh1):
    # every entry, at Lame moduli that tell lambda from mu, on a right
    # triangle and on a jittered one, which has no right angle to hide a
    # component swap
    params = fem.MaterialParams(lame_lambda=3.0, lame_mu=0.7)
    msh = mesh0 if triangle == "right" else jittered_mesh1
    corners = msh.vertices[msh.triangles]
    sides = np.roll(corners, -1, axis=1) - corners
    dots = np.einsum("tkd,tkd->tk", sides, np.roll(sides, 1, axis=1))
    oblique = np.flatnonzero(np.all(dots != 0, axis=1))
    tri = 0 if triangle == "right" else int(oblique[0])
    assert (tri in oblique) == (triangle == "jittered")
    verts = corners[tri]
    jac = (verts[1:] - verts[:1])[None]
    for form, exact in _symbolic_local_matrices(
            verts, params.lame_lambda, params.lame_mu).items():
        computed = fem._element_kernel(jac, params, form)[0]
        assert computed == pytest.approx(exact, abs=1e-12), form


@pytest.mark.parametrize("form", ["nonsense", "gradient", "fluid_grad"])
def test_assemble_rejects_unknown_form(space0, params, form):
    # `gradient` names an element kernel, not an assembled form
    with pytest.raises(ValueError, match="form must be one of"):
        fem.assemble(space0, form, params)


def test_assemble_stiffness_needs_moduli(space0):
    with pytest.raises(ValueError, match="Lame moduli"):
        fem.assemble(space0, "solid_stiffness")


def _edge_shape(t):
    """1D quadratic shapes for nodes (end0, end1, midpoint) at t in [0,1]."""
    return np.column_stack([
        2.0 * (t - 0.5) * (t - 1.0),
        2.0 * t * (t - 0.5),
        4.0 * t * (1.0 - t),
    ])


def _edge_flux(space, tri, coeffs):
    """Boundary integral of v . nu over one triangle via 1D Gauss."""
    nodes = space.tri_nodes[tri]
    verts = space.node_xy[nodes[:3]]
    t, w = fem.gauss_legendre_01(4)
    shapes = _edge_shape(t)
    total = 0.0
    for local_edge, (a, b, mid) in enumerate(((0, 1, 3), (1, 2, 4), (2, 0, 5))):
        pa, pb = verts[a], verts[b]
        tangent = pb - pa
        length = math.hypot(*tangent)
        normal = np.array([tangent[1], -tangent[0]]) / length  # outward (ccw tri)
        vx = (coeffs[2 * a] * shapes[:, 0] + coeffs[2 * b] * shapes[:, 1]
              + coeffs[2 * mid] * shapes[:, 2])
        vy = (coeffs[2 * a + 1] * shapes[:, 0] + coeffs[2 * b + 1] * shapes[:, 1]
              + coeffs[2 * mid + 1] * shapes[:, 2])
        total += length * float(np.sum(w * (vx * normal[0] + vy * normal[1])))
    return total


def test_divergence_form_is_divergence_theorem(space0, params, rng):
    # b-local row for mu = 1 equals minus the boundary flux of v
    divergence = fem._local_matrices(space0, "fluid", params, "divergence")
    for tri, b_local in zip(space0.fluid_tris[:10], divergence):
        coeffs = rng.standard_normal(12)
        b_const = float(b_local.sum(axis=0) @ coeffs)   # mu = sum of P1 hats = 1
        assert b_const == pytest.approx(-_edge_flux(space0, int(tri), coeffs), abs=1e-12)


# -- quadrature round-off ----------------------------------------------------
#
# Exact local matrices in rationals: the floats of a Jacobian are rationals,
# and the P2/P1 reference integrals are too.  Polynomials in (xi, eta) are
# {(a, b): coefficient} dicts.

def _poly_mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            out[a + d, b + e] = out.get((a + d, b + e), 0) + c * f
    return out


def _poly_add(*terms):
    """Sum of (coefficient, polynomial) pairs."""
    out = {}
    for c, p in terms:
        for k, v in p.items():
            out[k] = out.get(k, 0) + c * v
    return out


def _poly_diff(p, axis):
    out = {}
    for (a, b), c in p.items():
        power = (a, b)[axis]
        if power:
            k = (a - 1, b) if axis == 0 else (a, b - 1)
            out[k] = c * power
    return out


def _reference_integral(p):
    """Integral over the reference triangle: xi^a eta^b gives a! b! / (a+b+2)!."""
    return sum(c * Fraction(math.factorial(a) * math.factorial(b),
                            math.factorial(a + b + 2)) for (a, b), c in p.items())


@lru_cache(maxsize=None)
def _exact_reference_tables():
    """int N_i N_j, int L_p L_q, int dN_i/db dN_j/dc and int L_p dN_i/db on
    the reference triangle, N the P2 and L the P1 basis in fem's order."""
    one = Fraction(1)
    bary = [{(0, 0): one, (1, 0): -one, (0, 1): -one}, {(1, 0): one}, {(0, 1): one}]
    p2 = [_poly_mul(l, _poly_add((2, l), (-1, {(0, 0): one}))) for l in bary]
    p2 += [_poly_add((4, _poly_mul(bary[a], bary[b]))) for a, b in ((0, 1), (1, 2), (2, 0))]
    grad = [[_poly_diff(n, b) for b in (0, 1)] for n in p2]
    integral = lambda p, q: _reference_integral(_poly_mul(p, q))
    mass2 = [[integral(n, m) for m in p2] for n in p2]
    mass1 = [[integral(l, k) for k in bary] for l in bary]
    stiff = [[[[integral(gi[b], gj[c]) for c in (0, 1)] for b in (0, 1)]
              for gj in grad] for gi in grad]
    div = [[[integral(l, gi[b]) for b in (0, 1)] for gi in grad] for l in bary]
    return mass2, mass1, stiff, div


@lru_cache(maxsize=None)
def _exact_geometry(jac):
    """det, the inverse Jacobian and h[i][j][c][d], the reference integral
    of the physical derivatives d_c N_i d_d N_j, in exact arithmetic for
    the Jacobian rows ((e1x, e1y), (e2x, e2y)) taken as the rationals their
    floats are."""
    stiff = _exact_reference_tables()[2]
    (e1x, e1y), (e2x, e2y) = [[Fraction(v) for v in row] for row in jac]
    det = e1x * e2y - e1y * e2x
    inv = [[e2y / det, -e2x / det], [-e1y / det, e1x / det]]
    h = [[[[sum(inv[e][c] * inv[f][d] * stiff[i][j][e][f]
                for e in (0, 1) for f in (0, 1)) for d in (0, 1)] for c in (0, 1)]
          for j in range(6)] for i in range(6)]
    return det, inv, h


def _exact_local_matrix(jac, params, form):
    """The local matrix of kernel `form` in exact arithmetic, for the
    Jacobian rows jac (2, 2) taken as the rationals their floats are."""
    mass2, mass1, _, div = _exact_reference_tables()
    det, inv, h = _exact_geometry(tuple(tuple(map(float, row)) for row in jac))
    lam, mu = Fraction(params.lame_lambda), Fraction(params.lame_mu)

    def vector(entry):
        return [[det * entry(i, a, j, b) for j in range(6) for b in (0, 1)]
                for i in range(6) for a in (0, 1)]

    def trace(i, j):
        return h[i][j][0][0] + h[i][j][1][1]

    if form in ("fluid_mass", "solid_mass"):
        return vector(lambda i, a, j, b: mass2[i][j] * (a == b))
    if form == "pressure_mass":
        return [[det * mass1[p][q] for q in range(3)] for p in range(3)]
    if form == "gradient":
        return vector(lambda i, a, j, b: trace(i, j) * (a == b))
    if form == "fluid_strain":
        return vector(lambda i, a, j, b: (trace(i, j) * (a == b) + h[i][j][b][a]) / 2)
    if form == "solid_stiffness":
        return vector(lambda i, a, j, b: lam * h[i][j][a][b]
                      + mu * (trace(i, j) * (a == b) + h[i][j][b][a]))
    assert form == "divergence"
    return [[-det * sum(inv[b][a] * div[p][i][b] for b in (0, 1))
             for i in range(6) for a in (0, 1)] for p in range(3)]


_ROUNDOFF_MODULI = (fem.MaterialParams(lame_lambda=3.0, lame_mu=0.7),
                    fem.MaterialParams(lame_lambda=1e6, lame_mu=1e-3))


@pytest.mark.parametrize("level", [0, 1, 2, "jittered"])
def test_element_kernels_drop_exactly_the_exact_zeros(level, jittered_mesh1):
    # an entry whose integral is zero in exact arithmetic is exactly 0.0,
    # and every other entry is kept with the bits of the quadrature sum;
    # at Lame lambda 1e6 and mu 1e-3 that keeps the stiffness's mu-part
    msh = jittered_mesh1 if level == "jittered" else meshmod.generate(level)
    space = fem.build_space(msh)
    for region, forms in _REGION_FORMS:
        jac, _ = fem._jacobian_classes(space, region)
        for form in forms:
            for params in _ROUNDOFF_MODULI[:1 + (form == "solid_stiffness")]:
                kept = fem._element_kernel(jac, params, form)
                summed = fem._quadrature_kernel(jac, params, form)[0]
                exact_zero = np.array([np.array(_exact_local_matrix(j, params, form)) == 0
                                       for j in jac])
                label = (region, form, params)
                assert np.all(kept[exact_zero] == 0.0), label
                assert np.all(kept[~exact_zero] != 0.0), label
                assert kept[~exact_zero].tobytes() == summed[~exact_zero].tobytes(), label


@pytest.mark.parametrize("level", [1, "jittered"])
def test_no_entry_lies_within_a_decade_of_the_roundoff_bound(level, mesh1, jittered_mesh1):
    # the bound is gamma_n sqrt(r_i c_j), n = 16 nq + 16 = 272 at the 16
    # points of the system rule.  Measured against sqrt(r_i c_j): every
    # dropped sum is at most 5.8e-16 and every kept one at least 1.6e-10
    # (structured) or 1.9e-12 (jittered, Lame lambda 1e6 and mu 1e-3),
    # against a bound of 3.0e-14, so no entry is near the bound
    u = 2.0**-53
    assert fem._ROUNDOFF == 272 * u / (1 - 272 * u)
    space = fem.build_space(jittered_mesh1 if level == "jittered" else mesh1)
    for region, forms in _REGION_FORMS:
        jac, _ = fem._jacobian_classes(space, region)
        for form in forms:
            for params in _ROUNDOFF_MODULI:
                summed, rows, cols = fem._quadrature_kernel(jac, params, form)
                scale = np.sqrt(rows[:, :, None] * cols[:, None, :])
                kept = fem._element_kernel(jac, params, form) != 0
                dropped = ~kept & (summed != 0)
                label = (region, form, params)
                assert np.all(np.abs(summed[dropped])
                              <= fem._ROUNDOFF / 10 * scale[dropped]), label
                assert np.all(np.abs(summed[kept]) >= 10 * fem._ROUNDOFF * scale[kept]), label


def test_level3_forms_store_no_roundoff():
    # the quadrature round-off of the element matrices held 23 % of the
    # saddle's entries: 352 907 strain, 78 769 divergence, 190 464 velocity
    # mass, 24 066 / 22 786 / 46 778 solid mass / gradient / stiffness and
    # 545 939 saddle entries.  The local entries' pattern is fixed, but a
    # global sum that cancels across a vertex patch lands on an exact 0.0
    # or not by the last bits of its terms, so these sizes follow the
    # kernels' summation order
    params = fem.MaterialParams()
    space = fem.build_space(meshmod.generate(3))
    fops, solid = fem.fluid_operators(space), fem.solid_operators(space, params)
    sizes = (fops.strain.nnz, fops.div.nnz, fem.fluid_mass(space).nnz,
             solid.mass.nnz, solid.grad.nnz, solid.stiffness.nnz,
             solver.resolvent_saddle(space, params)[0].nnz)
    assert sizes == (239_648, 45_780, 140_288, 17_666, 12_802, 30_652, 428_503)


# -- class-grouped assembly --------------------------------------------------

_REGION_FORMS = (
    ("fluid", ("fluid_mass", "fluid_strain", "gradient", "divergence",
                    "pressure_mass")),
    ("solid", ("solid_mass", "solid_stiffness", "gradient")),
)


def _assert_grouped_matches_per_triangle(space, params):
    for region, forms in _REGION_FORMS:
        jac = fem._jacobians(space, getattr(space, f"{region}_tris"))
        for form in forms:
            grouped = fem._local_matrices(space, region, params, form)
            per_triangle = fem._element_kernel(jac, params, form)
            assert grouped.shape == per_triangle.shape
            assert grouped.tobytes() == per_triangle.tobytes(), (region, form)
    # and through the scatter: every assembled form is the sum of its
    # per-triangle matrices, placed by the row and column dofs written out
    # here independently of fem's form table
    layouts = _form_layouts(space)
    assert set(layouts) == set(fem.FORMS)
    for form, (tris, kernel, (rows, n_rows), (cols, n_cols)) in layouts.items():
        local = fem._element_kernel(fem._jacobians(space, tris), params, kernel)
        reference = fem._scatter(local, rows, cols, (n_rows, n_cols))
        _assert_same_csr(fem.assemble(space, form, params), reference, form)
    # the cached operators are the assembled forms
    stiffness = fem.assemble(space, "solid_stiffness", params)
    _assert_same_csr(fem.solid_operators(space, params).stiffness, stiffness, "cached")


def _form_layouts(space):
    """form -> (triangles, element kernel, (row dofs, rows), (column dofs, columns))."""
    fluid, solid = space.fluid_tris, space.solid_tris

    def interleaved(loc):   # dof = 2*node + component, nodes in element order
        return np.stack([2 * loc, 2 * loc + 1], axis=2).reshape(len(loc), 12)

    velocity = (interleaved(space.fluid_loc[space.tri_nodes[fluid]]),
                space.num_velocity_dofs)
    pressure = (space.pressure_loc[space.mesh.triangles[fluid]], space.num_pressure_dofs)
    displacement = (interleaved(space.solid_loc[space.tri_nodes[solid]]),
                    space.num_solid_dofs)
    return {
        "fluid_mass": (fluid, "fluid_mass", velocity, velocity),
        "fluid_strain": (fluid, "fluid_strain", velocity, velocity),
        "fluid_gradient": (fluid, "gradient", velocity, velocity),
        "divergence": (fluid, "divergence", pressure, velocity),
        "pressure_mass": (fluid, "pressure_mass", pressure, pressure),
        "solid_mass": (solid, "solid_mass", displacement, displacement),
        "solid_stiffness": (solid, "solid_stiffness", displacement, displacement),
        "solid_gradient": (solid, "gradient", displacement, displacement),
    }


def _assert_same_csr(a, b, label):
    assert a.shape == b.shape, label
    assert a.indices.dtype == b.indices.dtype == np.int32, label
    assert np.array_equal(a.indptr, b.indptr), label
    assert np.array_equal(a.indices, b.indices), label
    assert a.data.tobytes() == b.data.tobytes(), label


def _owner(array):
    """The array that owns the memory `array` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_assembled_forms_own_exactly_nnz_entries(params):
    # no COO-sized or sum-sized buffer kept behind the entries
    space = fem.build_space(meshmod.generate(2))
    matrices = {form: fem.assemble(space, form, params) for form in fem.FORMS}
    matrices["solid energy"] = fem.solid_operators(space, params).energy
    matrices["shifted solid"] = solver._shifted_solid_matrix(space, params)
    for name, mat in matrices.items():
        for array in (mat.data, mat.indices):
            assert _owner(array).size == mat.nnz, name


@pytest.mark.parametrize("level", [0, 1, 2])
def test_class_grouped_assembly_is_bitwise_per_triangle(level):
    space = fem.build_space(meshmod.generate(level))
    _assert_grouped_matches_per_triangle(
        space, fem.MaterialParams(lame_lambda=3.0, lame_mu=0.7))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """(form, number of triangles) of every element-kernel call."""
    calls = []
    kernel = fem._element_kernel

    def counting(jac, params, form):
        calls.append((form, len(jac)))
        return kernel(jac, params, form)

    monkeypatch.setattr(fem, "_element_kernel", counting)
    return calls


def test_jittered_mesh_gives_one_class_per_triangle(jittered_mesh1, kernel_calls):
    space = fem.build_space(jittered_mesh1)

    fem.fluid_mass(space)
    fem.fluid_operators(space)
    fem.solid_operators(space, fem.MaterialParams())
    seen = [n for _, n in kernel_calls]
    assert seen == [space.fluid_tris.size] * 4 + [space.solid_tris.size] * 3
    _assert_grouped_matches_per_triangle(
        space, fem.MaterialParams(lame_lambda=3.0, lame_mu=0.7))


def test_kernel_runs_once_per_jacobian_class(kernel_calls):
    space = fem.build_space(meshmod.generate(3))
    assert (space.fluid_tris.size, space.solid_tris.size) == (4096, 512)
    fem.fluid_mass(space)
    fem.fluid_operators(space)
    fem.solid_operators(space, fem.MaterialParams())
    fluid = ("fluid_mass", "fluid_strain", "divergence", "pressure_mass")
    solid = ("solid_mass", "gradient", "solid_stiffness")
    assert kernel_calls == [(f, 124) for f in fluid] + [(f, 28) for f in solid]


def test_jacobian_classes_built_once_per_region(monkeypatch):
    space = fem.build_space(meshmod.generate(1))
    built = []
    jacobians = fem._jacobians

    def counting(space, tris):
        built.append(tris.size)
        return jacobians(space, tris)

    monkeypatch.setattr(fem, "_jacobians", counting)
    fem.fluid_mass(space)
    fem.fluid_operators(space)
    fem.assemble(space, "fluid_gradient")
    fem.solid_operators(space, fem.MaterialParams())
    fem.solid_operators(space, fem.MaterialParams(lame_lambda=3.0, lame_mu=0.7))
    assert built == [space.fluid_tris.size, space.solid_tris.size]


# -- interface normal moments -----------------------------------------------

def _loop_normal_moments(space):
    """r_i = integral over Gamma_s of nu . phi_i ds, edge by edge with a
    4-point Gauss rule, nu the unit normal pointing out of the fluid."""
    m = space.mesh
    _, edge_triangles, _ = meshmod.edge_topology(m.triangles, m.num_vertices)
    t, w = fem.gauss_legendre_01(4)
    shape_ref = w @ _edge_shape(t)
    r = np.zeros(2 * space.iface_nodes.size)
    for e in np.flatnonzero(m.edge_tag == meshmod.GAMMA_S):
        v0, v1 = m.edges[e]
        tris = edge_triangles[e]
        fluid = tris[0] if m.tri_region[tris[0]] == meshmod.FLUID else tris[1]
        apex = m.triangles[fluid].sum() - v0 - v1
        tangent = m.vertices[v1] - m.vertices[v0]
        h = math.hypot(*tangent)
        nu = np.array([tangent[1], -tangent[0]]) / h
        if (m.vertices[apex] - m.vertices[v0]) @ nu > 0:
            nu = -nu
        pos = np.searchsorted(space.iface_nodes, [v0, v1, m.num_vertices + e])
        for comp in range(2):
            r[2 * pos + comp] += nu[comp] * (h * shape_ref)
    return r


def _divergence_of_ones(space):
    """B^T 1 over the full velocity layout."""
    return fem.assemble(space, "divergence").T @ np.ones(space.num_pressure_dofs)


def _assert_divergence_gives_normal_moments(space):
    bt1 = _divergence_of_ones(space)
    r = -bt1[space.iface_velocity_dofs]
    reference = _loop_normal_moments(space)
    scale = np.abs(reference).max()
    assert np.abs(r - reference).max() <= 1e-14 * scale
    # B^T 1 vanishes on every free velocity dof off Gamma_s
    off = np.ones(space.num_velocity_dofs, dtype=bool)
    off[space.constrained_mask] = False
    off[space.iface_velocity_dofs] = False
    assert np.abs(bt1[off]).max() <= 1e-14 * scale
    return r


@pytest.mark.parametrize("level", range(5))
def test_interface_geometry_from_coordinates(level):
    # -B^T 1 on the Gamma_s rows is the normal-moment vector of the edges'
    # own lengths and normals
    space = fem.build_space(meshmod.generate(level))
    r = _assert_divergence_gives_normal_moments(space)
    # axis-aligned normals on the square interface: one component per node
    # pair vanishes, to roundoff, except at the four corners
    pairs = np.abs(r.reshape(-1, 2)) > 1e-14 * np.abs(r).max()
    assert np.count_nonzero(np.all(pairs, axis=1)) == 4


def test_rotated_mesh_rotates_interface_geometry(mesh1, space1):
    # the moments follow a rigid rotation of the vertices: the space reads
    # the geometry, not the grid layout
    angle = 0.7
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    rotated = dataclasses.replace(mesh1, vertices=mesh1.vertices @ rot.T)
    space = fem.build_space(rotated)
    assert np.array_equal(space.iface_velocity_dofs, space1.iface_velocity_dofs)
    r = _assert_divergence_gives_normal_moments(space)
    r1 = -_divergence_of_ones(space1)[space1.iface_velocity_dofs]
    assert np.abs(r.reshape(-1, 2) - r1.reshape(-1, 2) @ rot.T).max() <= 1e-15


# -- interpolation -----------------------------------------------------------

def test_interpolate_zero_field(space0):
    zero = lambda x, y: (np.zeros_like(x), np.zeros_like(y))
    assert np.all(fem.interpolate(space0, zero) == 0.0)


def test_interpolate_linear_exact_at_quadrature(space0):
    field = lambda x, y: (2.0 * x - 0.5 * y + 1.0, x + 3.0 * y)
    coeffs = fem.interpolate(space0, field)
    rule = fem.triangle_rule(4)
    tris = space0.fluid_tris
    pts = quadrature_points(space0, tris, rule)
    n = fem.p2_values(rule.points)
    dofs = space0.velocity_dofs_of_tris(tris)
    ux = np.einsum("ti,qi->tq", coeffs[dofs[:, 0::2]], n)
    uy = np.einsum("ti,qi->tq", coeffs[dofs[:, 1::2]], n)
    ex, ey = field(pts[..., 0], pts[..., 1])
    assert np.abs(ux - ex).max() <= 1e-14
    assert np.abs(uy - ey).max() <= 1e-14


def test_manufactured_velocity_vanishes_on_interface(space1, case):
    coeffs = fem.interpolate(space1, case.velocity)
    assert np.abs(coeffs[space1.iface_velocity_dofs]).max() <= 1e-18


# -- material params ---------------------------------------------------------

def test_material_params_validation():
    with pytest.raises(ValueError):
        fem.MaterialParams(lame_mu=0.0)
    with pytest.raises(ValueError):
        fem.MaterialParams(lame_lambda=-1.0)
    with pytest.raises(ValueError):
        fem.MaterialParams(shift=0.0)
    for field in ("lame_lambda", "lame_mu", "shift"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
                fem.MaterialParams(**{field: value})
