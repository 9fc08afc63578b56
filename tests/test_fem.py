import math
from types import SimpleNamespace

import numpy as np
import pytest

from fsifem import fem, mesh as meshmod


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
        pts = fem.quadrature_points(SimpleNamespace(mesh=msh), tris, rule)
        reference = np.einsum("qk,tkd->tqd", rule.points, msh.vertices[msh.triangles])
        assert np.array_equal(pts, reference)


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


# -- element matrices --------------------------------------------------------

def test_fluid_mass_row_sums_give_area(space0, params):
    tri = space0.fluid_tris[5]
    m = fem.element_matrices(space0, tri, params, "fluid_mass")
    area = meshmod.signed_areas(space0.mesh)[tri]
    ones_x = np.zeros(12)
    ones_x[0::2] = 1.0
    assert ones_x @ m @ ones_x == pytest.approx(area, rel=1e-13)


def test_strain_annihilates_rigid_rotation(space0, params):
    tri = space0.fluid_tris[7]
    k = fem.element_matrices(space0, tri, params, "fluid_strain")
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


def test_solid_stiffness_matches_symbolic_oracle(space0, params):
    sympy = pytest.importorskip("sympy")
    tri = int(space0.solid_tris[0])
    computed = fem.element_matrices(space0, tri, params, "solid_stiffness")

    x, y = sympy.symbols("x y")
    v = space0.mesh.vertices[space0.mesh.triangles[tri]]
    a = sympy.Matrix([[1, v[0, 0], v[0, 1]], [1, v[1, 0], v[1, 1]],
                      [1, v[2, 0], v[2, 1]]]).T
    lam = a.inv() * sympy.Matrix([1, x, y])
    l0, l1, l2 = [sympy.nsimplify(e, rational=True) for e in lam]
    shapes = [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
              4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0]

    def eps(ux, uy):
        return sympy.Matrix([
            [sympy.diff(ux, x), (sympy.diff(ux, y) + sympy.diff(uy, x)) / 2],
            [(sympy.diff(ux, y) + sympy.diff(uy, x)) / 2, sympy.diff(uy, y)]])

    xi, eta = sympy.symbols("xi eta")
    xmap = v[0, 0] + (v[1, 0] - v[0, 0]) * xi + (v[2, 0] - v[0, 0]) * eta
    ymap = v[0, 1] + (v[1, 1] - v[0, 1]) * xi + (v[2, 1] - v[0, 1]) * eta
    jac = sympy.nsimplify((v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
                          - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1]), rational=True)

    def integrate(expr):
        e = sympy.expand(expr.subs({x: xmap, y: ymap}, simultaneous=True))
        return sympy.integrate(sympy.integrate(e, (eta, 0, 1 - xi)), (xi, 0, 1)) * jac

    # spot-check a representative set of entries (full 12x12 symbolic
    # integration is slow; symmetry plus these entries pin the kernel)
    entries = [(0, 0), (0, 1), (0, 5), (2, 7), (3, 3), (6, 11), (4, 9), (10, 10)]
    for r, c in entries:
        i, comp_a = divmod(r, 2)
        j, comp_b = divmod(c, 2)
        ui = (shapes[i], 0) if comp_a == 0 else (0, shapes[i])
        uj = (shapes[j], 0) if comp_b == 0 else (0, shapes[j])
        ei, ej = eps(*ui), eps(*uj)
        sigma_i = (ei[0, 0] + ei[1, 1]) * sympy.eye(2) + 2 * ei
        integrand = sum(sigma_i[p, q] * ej[p, q] for p in range(2) for q in range(2))
        exact = float(integrate(integrand))
        assert computed[r, c] == pytest.approx(exact, abs=1e-12)


def test_form_region_mismatch_raises(space0, params):
    with pytest.raises(ValueError, match="incompatible"):
        fem.element_matrices(space0, int(space0.solid_tris[0]), params, "fluid_mass")
    with pytest.raises(ValueError, match="incompatible"):
        fem.element_matrices(space0, int(space0.fluid_tris[0]), params, "solid_stiffness")
    with pytest.raises(ValueError, match="form"):
        fem.element_matrices(space0, 0, params, "nonsense")


@pytest.mark.parametrize("form", ["nonsense", "gradient", "fluid_grad"])
def test_assemble_rejects_unknown_form(space0, params, form):
    # `gradient` names an element kernel, not an assembled form
    with pytest.raises(ValueError, match="form must be one of"):
        fem.assemble(space0, form, params)


def test_assemble_stiffness_needs_moduli(space0):
    with pytest.raises(ValueError, match="Lame moduli"):
        fem.assemble(space0, "solid_stiffness")


def _edge_flux(space, tri, coeffs):
    """Boundary integral of v . nu over one triangle via 1D Gauss."""
    nodes = space.tri_nodes[tri]
    verts = space.node_xy[nodes[:3]]
    t, w = fem.gauss_legendre_01(4)
    shapes = fem._edge_shape(t)
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
    for tri in space0.fluid_tris[:10]:
        b_local = fem.element_matrices(space0, int(tri), params, "divergence")
        coeffs = rng.standard_normal(12)
        b_const = float(b_local.sum(axis=0) @ coeffs)   # mu = sum of P1 hats = 1
        assert b_const == pytest.approx(-_edge_flux(space0, int(tri), coeffs), abs=1e-12)


# -- class-grouped assembly --------------------------------------------------

_REGION_FORMS = (
    ("fluid_tris", ("fluid_mass", "fluid_strain", "gradient", "divergence",
                    "pressure_mass")),
    ("solid_tris", ("solid_mass", "solid_stiffness", "gradient")),
)


def _assert_grouped_matches_per_triangle(space, params):
    for region, forms in _REGION_FORMS:
        tris = getattr(space, region)
        jac = fem._jacobians(space, tris)
        for form in forms:
            grouped = fem._local_matrices(space, tris, params, form)
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

    fem.fluid_operators(space)
    fem.solid_operators(space, fem.MaterialParams())
    seen = [n for _, n in kernel_calls]
    assert seen == [space.fluid_tris.size] * 4 + [space.solid_tris.size] * 3
    _assert_grouped_matches_per_triangle(
        space, fem.MaterialParams(lame_lambda=3.0, lame_mu=0.7))


def test_kernel_runs_once_per_jacobian_class(kernel_calls):
    space = fem.build_space(meshmod.generate(3))
    assert (space.fluid_tris.size, space.solid_tris.size) == (4096, 512)
    fem.fluid_operators(space)
    fem.solid_operators(space, fem.MaterialParams())
    fluid = ("fluid_mass", "fluid_strain", "divergence", "pressure_mass")
    solid = ("solid_mass", "gradient", "solid_stiffness")
    assert kernel_calls == [(f, 124) for f in fluid] + [(f, 28) for f in solid]


# -- interface integrals -----------------------------------------------------

def _loop_trace_mass(space):
    ni = space.iface_nodes.size
    t, w = fem.gauss_legendre_01(4)
    n = fem._edge_shape(t)
    mloc = space.iface_edge_length * np.einsum("q,qi,qj->ij", w, n, n)
    m = np.zeros((ni, ni))
    for enodes in space.iface_edge_nodes:
        pos = space.iface_node_pos[enodes]
        m[np.ix_(pos, pos)] += mloc
    out = np.zeros((2 * ni, 2 * ni))
    out[0::2, 0::2] = m
    out[1::2, 1::2] = m
    return out


def _loop_normal_moments(space):
    t, w = fem.gauss_legendre_01(4)
    shape_int = space.iface_edge_length * (w @ fem._edge_shape(t))
    r = np.zeros(2 * space.iface_nodes.size)
    for enodes, nu in zip(space.iface_edge_nodes, space.iface_edge_normals):
        pos = space.iface_node_pos[enodes]
        for comp in range(2):
            r[2 * pos + comp] += nu[comp] * shape_int
    return r


def _loop_pressure_integral(space, pressure):
    total = 0.0
    h = space.iface_edge_length
    for enodes in space.iface_edge_nodes:
        pv = space.pressure_loc[enodes[:2]]
        total += 0.5 * h * (pressure[pv[0]] + pressure[pv[1]])
    return total


def _loop_pressure_normal_moments(space, pressure):
    t, w = fem.gauss_legendre_01(4)
    n = fem._edge_shape(t)
    h = space.iface_edge_length
    m = np.zeros(2 * space.iface_nodes.size)
    for enodes, nu in zip(space.iface_edge_nodes, space.iface_edge_normals):
        pv = space.pressure_loc[enodes[:2]]
        pvals = pressure[pv[0]] * (1.0 - t) + pressure[pv[1]] * t
        contrib = h * np.einsum("q,q,qi->i", w, pvals, n)
        pos = space.iface_node_pos[enodes]
        for comp in range(2):
            m[2 * pos + comp] += nu[comp] * contrib
    return m


@pytest.mark.parametrize("level", [0, 1, 2])
def test_interface_integrals_match_edge_loop_bitwise(level, rng):
    space = fem.build_space(meshmod.generate(level))
    pressure = rng.standard_normal(space.num_pressure_dofs)
    assert np.array_equal(fem.iface_trace_mass(space), _loop_trace_mass(space))
    assert np.array_equal(fem.iface_normal_moments(space), _loop_normal_moments(space))
    assert (fem.iface_pressure_integral(space, pressure)
            == _loop_pressure_integral(space, pressure))
    assert np.array_equal(fem.iface_pressure_normal_moments(space, pressure),
                          _loop_pressure_normal_moments(space, pressure))


# -- interpolation -----------------------------------------------------------

def test_interpolate_zero_field(space0):
    zero = lambda x, y: (np.zeros_like(x), np.zeros_like(y))
    assert np.all(fem.interpolate(space0, zero, "velocity") == 0.0)


def test_interpolate_linear_exact_at_quadrature(space0):
    field = lambda x, y: (2.0 * x - 0.5 * y + 1.0, x + 3.0 * y)
    coeffs = fem.interpolate(space0, field, "velocity")
    rule = fem.triangle_rule(4)
    tris = space0.fluid_tris
    pts = fem.quadrature_points(space0, tris, rule)
    n = fem.p2_values(rule.points)
    dofs = space0.velocity_dofs_of_tris(tris)
    ux = np.einsum("ti,qi->tq", coeffs[dofs[:, 0::2]], n)
    uy = np.einsum("ti,qi->tq", coeffs[dofs[:, 1::2]], n)
    ex, ey = field(pts[..., 0], pts[..., 1])
    assert np.abs(ux - ex).max() <= 1e-14
    assert np.abs(uy - ey).max() <= 1e-14


def test_interpolate_pressure_constant(space0):
    vals = fem.interpolate(space0, lambda x, y: np.full_like(x, 7.5), "pressure")
    assert np.all(vals == 7.5)


def test_manufactured_velocity_vanishes_on_interface(space1, case):
    coeffs = fem.interpolate(space1, case.velocity, "velocity")
    assert np.abs(coeffs[space1.iface_velocity_dofs]).max() <= 1e-18


# -- material params ---------------------------------------------------------

def test_material_params_validation():
    with pytest.raises(ValueError):
        fem.MaterialParams(lame_mu=0.0)
    with pytest.raises(ValueError):
        fem.MaterialParams(lame_lambda=-1.0)
    with pytest.raises(ValueError):
        fem.MaterialParams(shift=0.0)
