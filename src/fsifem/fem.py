"""Reference-element machinery for the P2/P1 Taylor-Hood pair.

Shape functions live on the reference triangle {xi >= 0, eta >= 0,
xi + eta <= 1}; all element matrices are computed with quadrature rules
that are exact for the (polynomial) integrands.  Vector degrees of freedom
interleave the two components per node: dof = 2*node + component, with
component 0 = x and 1 = y.  This convention is fixed and shows up in every
exported coefficient file.

Bundled rules: degree 6 for system matrices (integrands are at most
degree 4 under affine maps), degree 12 for manufactured-data load vectors
(cross-checked against a higher-order rule; the residual effect sits at
the direct-solver tolerance), and degree 38 for error norms (exact for
squared manufactured-solution errors).  The squared errors have degree
only 20 in each of x and y, so on a triangle with an axis-parallel side
the degree-38 rule collapsed onto the opposite vertex needs 11 points
along that side instead of 20: 220 points per triangle instead of 400.
`analysis.error_norms` evaluates the rules chunk by chunk over the fluid
triangles, and inside a chunk in row blocks whose temporaries stay in
cache, from reference derivatives and each triangle's inverse Jacobian,
without forming a physical-gradient tensor.
`quadrature_coordinate` gives one coordinate of the physical points as a
(triangle x point) plane, by an explicit barycentric sum, so a point's x
depends only on the x of the triangle's vertices and its y only on their
y.  `class_factors` evaluates the 1-D factors on the planes of one
triangle per coordinate class.

`assemble(space, form, params)` is the one entry to global assembly.  The
form's entry in `_FORMS` names its element kernel and its row and column
dofs, and the columns fix the region: `divergence` has pressure rows and
velocity columns, `pressure_mass` pressure rows and columns, and every
other form the interleaved vector dofs of its region.  The space keeps
what the solves read under seven names (`TaylorHoodSpace.cached`): five
here, the Jacobian classes `fluid_jacobians` and `solid_jacobians`,
`fluid_ops` (`fluid_operators`: strain, divergence and pressure
mass, the Stokes forms that every fluid reader uses), `fluid_mass` (the
velocity mass, its own entry because the inf-sup eigensolve never reads
it, so an inf-sup study never assembles it) and `solid_ops`
(`solid_operators`), and two in the solver, `solid_shifted` and
`resolvent_op`.  The space holds one value per name, keyed by what it
depends on: the fluid entries by nothing, the solid operators by the
Lame moduli, so a request at another shift reuses them.  The solid
operators are one build, the mass, gradient and stiffness in that
order, so a request at other moduli assembles all three.

Every local matrix is one of two products (`_quadrature_kernel`).  A
mass is det times the one cached reference mass of its basis
(`_mass_ref`), on both components for the vector masses.  Every
derivative form starts from the physical P2 gradients g at the points of
the system rule, one broadcast product of the reference gradients with
the inverse Jacobians, (nt, nq, 12) in the interleaved local order (i, a).
The divergence is -det (W P1)^T g, and the square forms are index
arithmetic on the Gram tensor G = det g^T W g, which holds
int d_a phi_i d_b phi_j at ((i, a), (j, b)) (`_gram_form`): div-div is G,
grad:grad the sum of its two diagonal component blocks on both, eps:eps
half of grad:grad plus G with its components swapped, and the solid
stiffness lambda G + 2 mu eps:eps.  The row and column scales of the
round-off rule below come from the same product of magnitudes,
|reference gradient| |inverse Jacobian|, through the same arithmetic.

Assembly and the exact fields of the error norms are class-grouped by
`sparse.bit_classes`, which groups rows of floats by their exact bits.  Every
local matrix depends on its triangle only through the affine Jacobian
(v1 - v0, v2 - v0), so the triangles of each region are grouped once by
the bits of that Jacobian (`_jacobian_classes`, kept by the space), and
`_local_matrices` runs the form's kernel (`_element_kernel`) on one
representative per class and gathers the result back.  Equal bits give
equal matrices, so this needs no tolerance and the assembled matrices are
bitwise those of a per-triangle kernel; a structured level-3 mesh has 124
fluid and 28 solid classes among 4 096 and 512 triangles, a jittered mesh
one class per triangle.  A local entry within the rounding-error bound of
its quadrature sum is exactly zero (`_element_kernel`): a sum that small
is the round-off of a zero integral, such as the P2 mass of a vertex and
an adjacent midpoint, the gradient of a vertex and its opposite midpoint,
or a cancellation that a right triangle adds.  Kept, those sums were 23 %
of the level-3 resolvent saddle's entries.  The rule is local, so a sum
of genuine local entries that cancels across a vertex patch stays stored,
such as a pressure row's coupling to the velocity at its own vertex: at
level 3, 4 172 divergence, 560 strain and 450 solid-stiffness entries lie
below 1e-12 of their row's largest.  Their bound needs the terms of the
global sum, which the scatter does not keep.  The separable exact
fields, the velocity in the error norms and the data in the fluid load,
have one evaluation path: `class_factors` groups the triangles by their
vertex x-triples and, separately, y-triples, and evaluates the 1-D
factors on one representative per class.  Every global matrix then goes through one
COO-to-CSR scatter (`_scatter`) whose row and column arrays are built as
int32, the index type of the result, and whose result holds exactly
its nnz entries, with no COO-sized buffer behind them (`owned_csr`, which
the kept sparse sums also go through).
The space reads no grid layout, only the mesh's edge tags, so a jittered
or rotated mesh passes through `build_space` too.  There is no separate
interface-edge quadrature: the normal moments <nu, phi_i> on Gamma_s are
minus the Gamma_s rows of B^T 1, read from the assembled divergence
(`solver.recover_c0`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import mesh as meshmod
from . import sparse as sla

SYSTEM_QUAD_DEGREE = 6
DATA_QUAD_DEGREE = 12
# squared manufactured-solution errors are polynomials of degree 38 in
# total and 20 in each of x and y (2 deg phi, deg phi = 10); the
# error-norm rules are exact for them
ERROR_QUAD_DEGREE = 38
ERROR_AXIS_DEGREE = 20

# assembled form -> (element kernel, row dofs, column dofs).  The dofs are
# the interleaved "velocity" or "solid" P2 layouts or the P1 "pressure"
# vertices; a form lives on the solid exactly when its columns are solid
# dofs.  Both full-gradient Gram forms run the one `gradient` kernel.
_FORMS = {
    "fluid_mass": ("fluid_mass", "velocity", "velocity"),
    "fluid_strain": ("fluid_strain", "velocity", "velocity"),
    "fluid_gradient": ("gradient", "velocity", "velocity"),
    "divergence": ("divergence", "pressure", "velocity"),
    "pressure_mass": ("pressure_mass", "pressure", "pressure"),
    "solid_mass": ("solid_mass", "solid", "solid"),
    "solid_stiffness": ("solid_stiffness", "solid", "solid"),
    "solid_gradient": ("gradient", "solid", "solid"),
}
FORMS = tuple(_FORMS)


@dataclass(frozen=True)
class MaterialParams:
    """Lame moduli of the solid and the resolvent shift."""

    lame_lambda: float = 1.0
    lame_mu: float = 1.0
    shift: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lame_mu) and self.lame_mu > 0):
            raise ValueError(f"lame_mu must be positive and finite, got {self.lame_mu}")
        if not (math.isfinite(self.lame_lambda) and self.lame_lambda >= 0):
            raise ValueError("lame_lambda must be nonnegative and finite, "
                             f"got {self.lame_lambda}")
        if not (math.isfinite(self.shift) and self.shift > 0):
            raise ValueError(f"shift must be positive and finite, got {self.shift}")


@dataclass(frozen=True)
class QuadratureRule:
    """Points in barycentric coordinates, weights summing to area 1/2."""

    degree: int
    points: np.ndarray   # (nq, 3)
    weights: np.ndarray  # (nq,)


def gauss_legendre_01(npts):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def triangle_rule(degree: int, side_degree: int | None = None,
                  apex: int = 2) -> QuadratureRule:
    """Quadrature exact for total degree `degree`, via the collapsed
    (Duffy, or conical-product) tensor product of Gauss-Legendre rules.

    With xi = s*(1-t), eta = t the Jacobian is (1-t), so exactness needs
    ceil((degree+2)/2) points in t.  The lines of constant t run parallel
    to the side opposite the apex, vertex 2, and s moves along them, so
    ceil((side_degree+1)/2) points in s suffice for polynomials of degree
    at most `side_degree` along that side (Stroud 1971); the default
    `side_degree` is `degree`, exact for every polynomial of that total
    degree.  `apex` rolls the barycentric columns so that the apex is
    vertex 0, 1 or 2.
    """
    if side_degree is None:
        side_degree = degree
    if not 0 <= side_degree <= degree:
        raise ValueError("quadrature degrees must be nonnegative, side_degree "
                         "at most degree")
    if apex not in (0, 1, 2):
        raise ValueError(f"apex must be vertex 0, 1 or 2, got {apex!r}")
    ns = (side_degree + 2) // 2
    nt = (degree + 3) // 2
    s, ws = gauss_legendre_01(ns)
    t, wt = gauss_legendre_01(nt)
    S, T = np.meshgrid(s, t, indexing="ij")
    WS, WT = np.meshgrid(ws, wt, indexing="ij")
    xi = (S * (1.0 - T)).ravel()
    eta = T.ravel()
    w = (WS * WT * (1.0 - T)).ravel()
    bary = np.roll(np.column_stack([1.0 - xi - eta, xi, eta]), apex - 2, axis=1)
    return QuadratureRule(degree=degree, points=bary, weights=w)


def p2_values(bary):
    """P2 shape values at barycentric points; order v0 v1 v2 m01 m12 m20."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    return np.column_stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
    ])


_GRAD_L = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d(lambda_k)/d(xi,eta)


def p2_grads(bary):
    """Reference gradients of the P2 basis, shape (nq, 6, 2)."""
    nq = bary.shape[0]
    g = np.empty((nq, 6, 2))
    for k in range(3):
        g[:, k, :] = (4 * bary[:, k, None] - 1) * _GRAD_L[k]
    pairs = [(0, 1), (1, 2), (2, 0)]
    for m, (a, b) in enumerate(pairs):
        g[:, 3 + m, :] = 4 * (bary[:, a, None] * _GRAD_L[b] + bary[:, b, None] * _GRAD_L[a])
    return g


def p1_values(bary):
    return bary.copy()


class TaylorHoodSpace:
    """DOF bookkeeping for the coupled discretization.

    Fluid velocity: vector P2 on fluid triangles, rows on Gamma_f
    constrained to zero.  Pressure: scalar P1 on fluid vertices, constants
    included.  Solid displacement: vector P2 on solid triangles.  The
    interface map pairs fluid and solid P2 nodes on Gamma_s (they share the
    global node numbering of the conforming mesh, so the map is a common
    sorted node list with per-field local indices).
    """

    def __init__(self, mesh: meshmod.TriMesh):
        self.mesh = mesh
        self._cache = {}
        nv = mesh.num_vertices

        # global scalar P2 nodes: vertices then edge midpoints
        mid_xy = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        self.node_xy = np.vstack([mesh.vertices, mid_xy])
        self.num_nodes = nv + mesh.edges.shape[0]

        self.tri_nodes = np.column_stack([mesh.triangles, nv + mesh.tri_edges])

        self.fluid_tris = np.flatnonzero(mesh.tri_region == meshmod.FLUID)
        self.solid_tris = np.flatnonzero(mesh.tri_region == meshmod.SOLID)

        self.fluid_nodes = np.unique(self.tri_nodes[self.fluid_tris])
        self.solid_nodes = np.unique(self.tri_nodes[self.solid_tris])
        self.fluid_loc = _inverse_map(self.fluid_nodes, self.num_nodes)
        self.solid_loc = _inverse_map(self.solid_nodes, self.num_nodes)

        self.num_velocity_dofs = 2 * self.fluid_nodes.size
        self.num_solid_dofs = 2 * self.solid_nodes.size

        # pressure space: P1 on fluid vertices
        self.pressure_nodes = self.fluid_nodes[self.fluid_nodes < nv]
        self.pressure_loc = _inverse_map(self.pressure_nodes, nv)
        self.num_pressure_dofs = self.pressure_nodes.size

        # boundary node sets from edge tags
        gf = mesh.edge_tag == meshmod.GAMMA_F
        gs = mesh.edge_tag == meshmod.GAMMA_S
        self.gamma_f_nodes = np.unique(np.concatenate([
            mesh.edges[gf].ravel(), nv + np.flatnonzero(gf)]))
        self.iface_nodes = np.unique(np.concatenate([
            mesh.edges[gs].ravel(), nv + np.flatnonzero(gs)]))

        constrained = np.zeros(self.num_velocity_dofs, dtype=bool)
        gf_loc = self.fluid_loc[self.gamma_f_nodes]
        constrained[2 * gf_loc] = True
        constrained[2 * gf_loc + 1] = True
        self.constrained_mask = constrained
        self.free_velocity_dofs = np.flatnonzero(~constrained)
        self.free_loc = _inverse_map(self.free_velocity_dofs, self.num_velocity_dofs)

        # interface dofs in each field's numbering (interleaved x,y)
        fl = self.fluid_loc[self.iface_nodes]
        sl = self.solid_loc[self.iface_nodes]
        if np.any(fl < 0) or np.any(sl < 0):
            raise RuntimeError("interface node missing from a region's node set")
        self.iface_velocity_dofs = np.column_stack([2 * fl, 2 * fl + 1]).ravel()
        self.iface_solid_dofs = np.column_stack([2 * sl, 2 * sl + 1]).ravel()
        self.iface_free_dofs = self.free_loc[self.iface_velocity_dofs]
        if np.any(self.iface_free_dofs < 0):
            raise RuntimeError("interface dof unexpectedly constrained (Gamma_f and "
                               "Gamma_s are disjoint)")
        self.num_iface_dofs = self.iface_velocity_dofs.size

        solid_iface_mask = np.zeros(self.num_solid_dofs, dtype=bool)
        solid_iface_mask[self.iface_solid_dofs] = True
        self.solid_interior_dofs = np.flatnonzero(~solid_iface_mask)

    # -- convenience views -------------------------------------------------

    def velocity_dofs_of_tris(self, tris):
        """(ntris, 12) full-velocity dof table, interleaved components."""
        loc = self.fluid_loc[self.tri_nodes[tris]]
        return _interleave(2 * loc, 2 * loc + 1)

    def solid_dofs_of_tris(self, tris):
        """(ntris, 12) solid dof table, interleaved components."""
        loc = self.solid_loc[self.tri_nodes[tris]]
        return _interleave(2 * loc, 2 * loc + 1)

    def expand_velocity(self, u_free):
        """Scatter a free-dof vector to the full velocity layout."""
        u = np.zeros(self.num_velocity_dofs)
        u[self.free_velocity_dofs] = u_free
        return u

    def cached(self, name, build, *dependencies):
        """The value kept under `name` for `dependencies`, made by `build()`.

        The space owns its assembled matrices, factorizations and
        operators, one value per name.  A request with the dependencies of
        the held value returns that object; a request with other
        dependencies drops the held value, so that it is freed before
        `build()` runs, and keeps what `build()` returns.  What the space
        holds thus depends only on the last request for each name: a sweep
        over parameter sets keeps one set's factors alive, not one per
        set.  A `build()` that raises leaves nothing under `name`."""
        held = self._cache.get(name)
        if held is not None and held[0] == dependencies:
            return held[1]
        del held   # no local may keep the old value alive through build()
        self._cache.pop(name, None)
        value = build()
        self._cache[name] = (dependencies, value)
        return value


def _interleave(x, y):
    """x0, y0, x1, y1, ... along the last axis of two equal-shape arrays:
    the layout of every vector field (dof = 2*node + component)."""
    return np.stack([x, y], axis=-1).reshape(*x.shape[:-1], 2 * x.shape[-1])


def _inverse_map(ids, size):
    inv = np.full(size, -1, dtype=np.int64)
    inv[ids] = np.arange(ids.size)
    return inv


def build_space(mesh: meshmod.TriMesh) -> TaylorHoodSpace:
    """Number all degrees of freedom of the coupled Taylor-Hood space."""
    return TaylorHoodSpace(mesh)


# ---------------------------------------------------------------------------
# element geometry and class-grouped local matrices
# ---------------------------------------------------------------------------

def _jacobian_inverse(e1, e2):
    """Determinants and inverses of the affine maps with columns e1, e2."""
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    inv = np.empty((det.size, 2, 2))
    inv[:, 0, 0] = e2[:, 1]
    inv[:, 0, 1] = -e2[:, 0]
    inv[:, 1, 0] = -e1[:, 1]
    inv[:, 1, 1] = e1[:, 0]
    inv /= det[:, None, None]
    return det, inv


def _jacobians(space, tris):
    """(nt, 2, 2) Jacobian rows v1 - v0, v2 - v0 of a batch of triangles."""
    v = space.mesh.vertices[space.mesh.triangles[tris]]
    return v[:, 1:] - v[:, :1]


def _tri_geometry(space, tris):
    """Determinants and inverse Jacobians of a batch of triangles."""
    jac = _jacobians(space, tris)
    return _jacobian_inverse(jac[:, 0], jac[:, 1])


@lru_cache(maxsize=None)
def _mass_ref(values):
    """int N_i N_j on the reference triangle for the basis `values`,
    `p1_values` or `p2_values`."""
    rule = triangle_rule(SYSTEM_QUAD_DEGREE)
    n = values(rule.points)
    return np.einsum("q,qi,qj->ij", rule.weights, n, n)


def _gram_form(gram, params, form):
    """The local matrices of a derivative form, (nt, 12, 12), from the
    Gram tensor gram[(i, a), (j, b)] = int d_a phi_i d_b phi_j in the
    interleaved local order.  div-div is the tensor itself, grad:grad its
    two diagonal component blocks summed and placed on both, and
    eps:eps half of grad:grad plus the tensor with its components
    swapped."""
    trace = gram[:, 0::2, 0::2] + gram[:, 1::2, 1::2]
    grad = np.zeros_like(gram)
    grad[:, 0::2, 0::2] = grad[:, 1::2, 1::2] = trace
    if form == "gradient":
        return grad
    swapped = gram.reshape(-1, 6, 2, 6, 2).transpose(0, 1, 4, 3, 2).reshape(gram.shape)
    strain = 0.5 * (grad + swapped)
    if form == "fluid_strain":
        return strain
    if form == "solid_stiffness":
        # (sigma(u), eps(v)) = lambda (div u, div v) + 2 mu (eps u, eps v)
        return params.lame_lambda * gram + 2.0 * params.lame_mu * strain
    raise ValueError(f"unknown form {form!r}")


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit round-off of float64."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


# Every local entry is a quadrature sum over the nq points of the system
# rule.  Written out with each physical derivative as the two products of
# a reference derivative and an inverse-Jacobian entry that make it, the
# longest, the solid stiffness's, has 16 nq terms (lambda div-div one pair
# of derivatives per point, the strain three, four products per pair), and
# each term takes at most 16 roundings from the reference values.  So its
# rounding error is at most gamma_(16 nq + 16) times the sum of the terms'
# magnitudes (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
# section 3.1), and Cauchy-Schwarz bounds that sum by sqrt(r_i c_j)
# for the scales of `_quadrature_kernel`: the square kernels are Gram
# matrices with positive weights (the stiffness for lambda, mu >= 0 too),
# and the divergence pairs P1 values with derivatives.
_ROUNDOFF = _gamma(16 * len(triangle_rule(SYSTEM_QUAD_DEGREE).weights) + 16)


def _element_kernel(jac, params, form):
    """Local matrices of `form` on triangles given by their Jacobians.

    jac is (nt, 2, 2) with rows v1 - v0 and v2 - v0; every local matrix
    depends on the triangle only through these four numbers.  `form` names
    a kernel of `_FORMS`: each form's own name, except `gradient`, the
    full-gradient Gram kernel of both `*_gradient` forms.

    An entry within the rounding-error bound of the quadrature sum that
    made it, `_ROUNDOFF` sqrt(r_i c_j) for the row and column scales r and
    c of `_quadrature_kernel`, is set to exactly zero, so the scatter does
    not store it: a sum that small is the rounding error of a zero
    integral.  Every other entry keeps the bits of its sum.
    """
    local, rows, cols = _quadrature_kernel(jac, params, form)
    bound = _ROUNDOFF * np.sqrt(rows[:, :, None] * cols[:, None, :])
    local[np.abs(local) <= bound] = 0.0
    return local


def _quadrature_kernel(jac, params, form):
    """The quadrature sums of `_element_kernel`, before round-off is
    dropped, and the scales of their rows and columns.

    A mass is det times the reference mass, on both components for the
    vector ones.  The derivative forms come from the physical P2 gradients
    g, (nt, nq, 12) in the interleaved local order: the divergence is
    -det (W P1)^T g, and the square forms are `_gram_form` of the Gram
    tensor det g^T W g.  A mass's scales are its diagonal magnitudes.  The
    others repeat the derivative integrals with each physical derivative
    replaced by the magnitudes of the two products that make it,
    |reference derivative| |inverse Jacobian|, which bound its rounding
    error where the products cancel: the square forms take the diagonal
    that `_gram_form` makes of them, and the divergence these integrals
    for its columns and the P1-mass diagonal for its rows."""
    det, inv = _jacobian_inverse(jac[:, 0], jac[:, 1])
    if form.endswith("_mass"):
        local = det[:, None, None] * (_mass_ref(p1_values) if form == "pressure_mass"
                                      else np.kron(_mass_ref(p2_values), np.eye(2)))
        diag = np.abs(np.diagonal(local, axis1=1, axis2=2))
        return local, diag, diag
    rule = triangle_rule(SYSTEM_QUAD_DEGREE)
    w, ref = rule.weights, p2_grads(rule.points)
    shape = (det.size, w.size, 12)
    g = (ref @ inv[:, None]).reshape(shape)
    bound = (np.abs(ref) @ np.abs(inv)[:, None]).reshape(shape)
    part = np.abs(det)[:, None] * (w @ (bound * bound))
    if form == "divergence":
        local = -det[:, None, None] * ((w[:, None] * p1_values(rule.points)).T @ g)
        return local, np.abs(det)[:, None] * np.diag(_mass_ref(p1_values)), part
    local = _gram_form(det[:, None, None] * (np.swapaxes(g, 1, 2) @ (w[:, None] * g)),
                       params, form)
    diag = np.diagonal(_gram_form(part[:, :, None] * np.eye(12), params, form),
                       axis1=1, axis2=2)
    return local, diag, diag


def _jacobian_classes(space, region):
    """The Jacobians of one representative triangle per bit class of the
    Jacobians of `region` ("fluid" or "solid"), and the class of each of
    its triangles.

    The space keeps them under their own name per region, so every form
    assembled over the region reads one set of classes."""
    def build():
        jac = _jacobians(space, getattr(space, f"{region}_tris"))
        first, cls = sla.bit_classes(jac.reshape(len(jac), 4))
        return jac[first], cls

    return space.cached(f"{region}_jacobians", build)


def _local_matrices(space, region, params, form):
    """Local matrices of `form` on the triangles of `region`, one kernel call
    per Jacobian class.

    Triangles whose Jacobians have the same bit pattern get bitwise the
    same local matrix, so the kernel runs on one representative of each
    class and the result is gathered back.  No tolerance is involved: on a
    mesh without repeated shapes every triangle is its own class.
    """
    jac, cls = _jacobian_classes(space, region)
    return _element_kernel(jac, params, form)[cls]


def _form_spec(form):
    """(element kernel, row dofs, column dofs, region) of an assembled form."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    kernel, rows, cols = _FORMS[form]
    return kernel, rows, cols, "solid" if cols == "solid" else "fluid"


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def _scatter(local, row_dofs, col_dofs, shape):
    """Sum local matrices (nt, nr, nc) into a CSR matrix of `shape`.

    row_dofs (nt, nr) and col_dofs (nt, nc) are the global indices of the
    local rows and columns.  The COO indices are built as int32, the index
    type of the result, so no int64 copy of the 2 x nt x nr x nc indices
    is ever held.  The conversion sums duplicates inside the COO-sized
    buffers (27.0 MB for the 10.9 MB of the level-4 strain), so the result
    goes through `owned_csr`.
    """
    nt, nr, nc = local.shape
    rows = np.repeat(row_dofs.astype(np.int32), nc, axis=1).ravel()
    cols = np.tile(col_dofs.astype(np.int32), (1, nr)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
    del rows, cols
    mat.eliminate_zeros()
    return owned_csr(mat)


def owned_csr(mat):
    """The CSR matrix `mat` with `data` and `indices` that own exactly its
    nnz entries.  A COO conversion or a sparse sum writes into buffers
    sized for every input entry, and scipy's `prune` keeps those whole
    when at least half the entries survive (the level-4 solid energy held
    280 708 entries for 190 274), so the survivors are copied out; the
    entries and their order are unchanged."""
    return sp.csr_matrix((mat.data.copy(), mat.indices.copy(), mat.indptr),
                         shape=mat.shape)


def _dofs_of_tris(space, tris, layout):
    """Global dofs of `tris` in one of the layouts of `_FORMS`, and the
    layout's size."""
    if layout == "pressure":
        return space.pressure_loc[space.mesh.triangles[tris]], space.num_pressure_dofs
    if layout == "velocity":
        return space.velocity_dofs_of_tris(tris), space.num_velocity_dofs
    return space.solid_dofs_of_tris(tris), space.num_solid_dofs


def assemble(space, form: str, params: MaterialParams | None = None):
    """Global CSR matrix of one form of `FORMS` over its region.

    `divergence` has pressure rows and velocity columns, `pressure_mass`
    pressure rows and columns, and every other form the vector dofs of its
    region.  Only `solid_stiffness` reads `params` (the Lame moduli).
    """
    kernel, row_layout, col_layout, region = _form_spec(form)
    if form == "solid_stiffness" and params is None:
        raise ValueError("solid_stiffness needs the Lame moduli: pass params")
    tris = getattr(space, f"{region}_tris")
    rows, n_rows = _dofs_of_tris(space, tris, row_layout)
    cols, n_cols = ((rows, n_rows) if col_layout == row_layout
                    else _dofs_of_tris(space, tris, col_layout))
    return _scatter(_local_matrices(space, region, params, kernel), rows, cols,
                    (n_rows, n_cols))


def quadrature_coordinate(space, tris, rule, axis):
    """One coordinate (0 = x, 1 = y) of the physical quadrature points,
    as an (nt, nq) plane.

    An explicit barycentric sum, so it depends only on the same coordinate
    of the triangle's three vertices."""
    v = space.mesh.vertices[space.mesh.triangles[tris], axis]     # (nt, 3)
    p = rule.points
    out = v[:, 0, None] * p[:, 0]
    out += v[:, 1, None] * p[:, 1]
    out += v[:, 2, None] * p[:, 2]
    return out


def class_factors(space, tris, rule, factors):
    """For x and then y: `factors` of the quadrature coordinate of the
    rule's points on one representative triangle per coordinate class (a
    tuple of (class x point) planes), and the class of every triangle.

    The x of a quadrature point depends only on the x of the triangle's
    three vertices, and likewise for y.  So the triangles are grouped by
    the bits of their vertex x-triples and, separately, of their
    y-triples, and a class's row gathered back is bitwise the per-point
    value.  On a mesh without repeated coordinates every triangle is its
    own class."""
    verts = space.mesh.vertices[space.mesh.triangles[tris]]
    tables = []
    for axis in (0, 1):
        first, cls = sla.bit_classes(verts[..., axis])
        tables.append((factors(quadrature_coordinate(space, tris[first], rule, axis)),
                       cls))
    return tables


def assemble_fluid_load(space, factors, field):
    """Load vector (f, phi_i) over the fluid for a separable vector field
    f(x, y) = field(factors(x), factors(y)).

    `factors` maps a coordinate array to a tuple of 1-D factor arrays and
    `field` maps the factors at x and at y to the pair (f_x, f_y).  The
    factors are evaluated once per coordinate class (`class_factors`), so
    the load is bitwise that of evaluating f point by point.  Integrated
    with the degree-`DATA_QUAD_DEGREE` rule."""
    tris = space.fluid_tris
    rule = triangle_rule(DATA_QUAD_DEGREE)
    det, _ = _tri_geometry(space, tris)
    (fx, x_cls), (fy, y_cls) = class_factors(space, tris, rule, factors)
    fx, fy = field(tuple(f[x_cls] for f in fx), tuple(f[y_cls] for f in fy))
    n = p2_values(rule.points)                       # (nq, 6)
    lx = np.einsum("q,qi,tq->ti", rule.weights, n, fx) * det[:, None]
    ly = np.einsum("q,qi,tq->ti", rule.weights, n, fy) * det[:, None]
    dofs = space.velocity_dofs_of_tris(tris)
    return np.bincount(dofs.ravel(), weights=_interleave(lx, ly).ravel(),
                       minlength=space.num_velocity_dofs)


def interpolate(space, field):
    """Nodal interpolant of the vector field `field`, which returns its
    (f_x, f_y) component arrays: point evaluation at the P2 velocity nodes,
    in the full interleaved velocity layout."""
    xy = space.node_xy[space.fluid_nodes]
    fx, fy = field(xy[:, 0], xy[:, 1])
    return _interleave(np.asarray(fx, dtype=float), np.asarray(fy, dtype=float))


# ---------------------------------------------------------------------------
# cached operator bundles (spaces own their assembled matrices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluidOperators:
    """The Stokes forms that every fluid reader uses.  The velocity mass
    is not among them: the inf-sup eigensolve never reads it, so it is
    its own entry (`fluid_mass`), assembled on its first read."""

    strain: sp.csr_matrix
    div: sp.csr_matrix
    pressure_mass: sp.csr_matrix


@dataclass(frozen=True)
class SolidOperators:
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix   # (sigma(u), eps(v)) with the given Lame moduli
    grad: sp.csr_matrix
    energy: sp.csr_matrix      # stiffness + mass, the solid block of the H inner product


def fluid_operators(space) -> FluidOperators:
    return space.cached("fluid_ops", lambda: FluidOperators(
        strain=assemble(space, "fluid_strain"),
        div=assemble(space, "divergence"),
        pressure_mass=assemble(space, "pressure_mass"),
    ))


def fluid_mass(space) -> sp.csr_matrix:
    """The velocity mass M_f over the full velocity layout: the fluid part
    of the H inner product and of the resolvent's data and shift."""
    return space.cached("fluid_mass", lambda: assemble(space, "fluid_mass"))


def solid_operators(space, params: MaterialParams) -> SolidOperators:
    def build():
        mass = assemble(space, "solid_mass")
        grad = assemble(space, "solid_gradient")
        stiffness = assemble(space, "solid_stiffness", params)
        return SolidOperators(mass=mass, stiffness=stiffness, grad=grad,
                              energy=owned_csr(stiffness + mass))

    return space.cached("solid_ops", build, params.lame_lambda, params.lame_mu)
