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
squared manufactured-solution errors).  The degree-38 rule has 400 points
per triangle, so `analysis.error_norms` evaluates it chunk by chunk over
the fluid triangles, and inside a chunk in row blocks whose temporaries
stay in cache, from reference derivatives and each triangle's inverse
Jacobian, without forming a physical-gradient tensor.
`quadrature_coordinate` gives one coordinate of the physical points as a
(triangle x point) plane, by an explicit barycentric sum, so a point's x
depends only on the x of the triangle's vertices and its y only on their
y.  The error norms and the fluid load take the planes they need;
`quadrature_points` stacks the two.

`assemble(space, form, params)` is the one entry to global assembly.  The
form's entry in `_FORMS` names its element kernel and its row and column
dofs, and the columns fix the region: `divergence` has pressure rows and
velocity columns, `pressure_mass` pressure rows and columns, and every
other form the interleaved vector dofs of its region.  `fluid_operators`
and `solid_operators` bundle the forms the solves read and keep them on
the space (`TaylorHoodSpace.cached`), as the solver keeps its
factorizations there.

Assembly and the exact fields of the error norms are class-grouped by
`sparse.bit_classes`, which groups rows of floats by their exact bits.  Every
local matrix depends on its triangle only through the affine Jacobian
(v1 - v0, v2 - v0), so `_local_matrices` groups the triangles by the bits
of that Jacobian, runs the form's kernel (`_element_kernel`) on one
representative per class and gathers the result back.  Equal bits give
equal matrices, so this needs no tolerance and the assembled matrices are
bitwise those of a per-triangle kernel; a structured level-3 mesh has 124
fluid and 28 solid classes among 4 096 and 512 triangles, a jittered mesh
one class per triangle.  The error norms group each chunk's triangles by
their vertex x-triples and, separately, y-triples, and evaluate the
separable exact field on one representative per class.  Every
global matrix then goes through one COO-to-CSR scatter (`_scatter`) whose
row and column arrays are built as int32, the index type of the result.
The interface-edge integrals are vectorized over the edges and accumulate
with `np.add.at` in edge order, the order of a loop over the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import mesh as meshmod
from . import sparse as sla

SYSTEM_QUAD_DEGREE = 6
DATA_QUAD_DEGREE = 12
# squared manufactured-solution errors are polynomials of degree 38; the
# error-norm rule is exact for them
ERROR_QUAD_DEGREE = 38

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
# points of the Gauss-Legendre rule on interface edges (exact to degree 7)
EDGE_QUAD_POINTS = 4


@dataclass(frozen=True)
class MaterialParams:
    """Lame moduli of the solid and the resolvent shift."""

    lame_lambda: float = 1.0
    lame_mu: float = 1.0
    shift: float = 1.0

    def __post_init__(self):
        if not self.lame_mu > 0:
            raise ValueError(f"lame_mu must be positive, got {self.lame_mu}")
        if self.lame_lambda < 0:
            raise ValueError(f"lame_lambda must be nonnegative, got {self.lame_lambda}")
        if not self.shift > 0:
            raise ValueError(f"shift must be positive, got {self.shift}")


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
def triangle_rule(degree: int) -> QuadratureRule:
    """Quadrature exact for total degree `degree`, via the collapsed
    (Duffy) tensor product of Gauss-Legendre rules.

    With xi = s*(1-t), eta = t the Jacobian is (1-t), so exactness needs
    ceil((degree+1)/2) points in s and ceil((degree+2)/2) in t.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    ns = (degree + 2) // 2
    nt = (degree + 3) // 2
    s, ws = gauss_legendre_01(ns)
    t, wt = gauss_legendre_01(nt)
    S, T = np.meshgrid(s, t, indexing="ij")
    WS, WT = np.meshgrid(ws, wt, indexing="ij")
    xi = (S * (1.0 - T)).ravel()
    eta = T.ravel()
    w = (WS * WT * (1.0 - T)).ravel()
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
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
        edge_key = mesh.edges[:, 0] * nv + mesh.edges[:, 1]
        order = np.argsort(edge_key)
        self._edge_key_sorted = edge_key[order]
        self._edge_perm = order
        mid_xy = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        self.node_xy = np.vstack([mesh.vertices, mid_xy])
        self.num_nodes = nv + mesh.edges.shape[0]

        tri = mesh.triangles
        self.tri_nodes = np.column_stack([
            tri,
            nv + self._edge_index(tri[:, 0], tri[:, 1]),
            nv + self._edge_index(tri[:, 1], tri[:, 2]),
            nv + self._edge_index(tri[:, 2], tri[:, 0]),
        ])

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
        self.num_free_velocity_dofs = self.free_velocity_dofs.size

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

        # interface edges: scalar node triplets, outward (fluid-side) normals
        self._build_iface_edges(gs)

    def _edge_index(self, a, b):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * self.mesh.num_vertices + hi
        pos = np.searchsorted(self._edge_key_sorted, key)
        return self._edge_perm[pos]

    def _build_iface_edges(self, gs_mask):
        m = self.mesh
        n, s = m.n, m.n // 3
        eids = np.flatnonzero(gs_mask)
        v0, v1 = m.edges[eids, 0], m.edges[eids, 1]
        i0, j0 = m.vertex_ij(v0)
        normals = np.zeros((eids.size, 2))
        vertical = i0 == (m.edges[eids, 1] % (n + 1))
        # normal points out of the fluid, into the solid
        normals[vertical & (i0 == s)] = (1.0, 0.0)
        normals[vertical & (i0 == 2 * s)] = (-1.0, 0.0)
        horizontal = ~vertical
        normals[horizontal & (j0 == s)] = (0.0, 1.0)
        normals[horizontal & (j0 == 2 * s)] = (0.0, -1.0)
        self.iface_edge_nodes = np.column_stack([
            v0, v1, m.num_vertices + eids])          # scalar global nodes
        self.iface_edge_normals = normals
        self.iface_edge_length = 1.0 / n
        # position of each edge node inside self.iface_nodes
        self.iface_node_pos = _inverse_map(self.iface_nodes, self.num_nodes)

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

    def cached(self, key, build):
        """The value kept under `key`, made by `build()` on first use.

        The space owns its assembled matrices, factorizations and
        operators, so every later request for the same key reuses them."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


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


def _ref_to_phys(inv, rule):
    """Physical P2 gradients at the rule's points, (nt, nq, 6, 2)."""
    return np.einsum("qib,tba->tqia", p2_grads(rule.points), inv)


def _local_vector_mass(det, mref):
    nt = det.size
    out = np.zeros((nt, 12, 12))
    m = det[:, None, None] * mref[None, :, :]
    out[:, 0::2, 0::2] = m
    out[:, 1::2, 1::2] = m
    return out


def _local_gradient(det, g, w):
    """grad(u):grad(v) local matrices, (nt, 12, 12)."""
    e1 = np.einsum("q,tqic,tqjc->tij", w, g, g) * det[:, None, None]
    out = np.zeros((det.size, 12, 12))
    out[:, 0::2, 0::2] = e1
    out[:, 1::2, 1::2] = e1
    return out


def _local_strain(det, g, w, mu_factor=1.0):
    """eps(u):eps(v) local matrices, (nt, 12, 12)."""
    e1 = np.einsum("q,tqic,tqjc->tij", w, g, g)       # grad . grad
    t2 = np.einsum("q,tqib,tqja->tiajb", w, g, g)     # d_b Ni d_a Nj at (ia, jb)
    nt = det.size
    out = np.zeros((nt, 12, 12))
    half = 0.5 * mu_factor
    for a in range(2):
        for b in range(2):
            blk = half * t2[:, :, a, :, b]
            if a == b:
                blk = blk + half * e1
            out[:, a::2, b::2] = blk
    return out * det[:, None, None]


def _local_div_div(det, g, w):
    d = np.einsum("q,tqia,tqjb->tiajb", w, g, g)
    nt = det.size
    out = np.zeros((nt, 12, 12))
    for a in range(2):
        for b in range(2):
            out[:, a::2, b::2] = d[:, :, a, :, b]
    return out * det[:, None, None]


def _local_divergence(det, g, rule):
    """b(v, mu) = -(mu, div v) local blocks, (nt, 3, 12)."""
    p1 = p1_values(rule.points)                        # (nq, 3)
    b = -np.einsum("q,qp,tqia->tpia", rule.weights, p1, g)
    nt = det.size
    return (b * det[:, None, None, None]).reshape(nt, 3, 12)


@lru_cache(maxsize=None)
def _p2_mass_ref():
    rule = triangle_rule(SYSTEM_QUAD_DEGREE)
    n = p2_values(rule.points)
    return np.einsum("q,qi,qj->ij", rule.weights, n, n)


@lru_cache(maxsize=None)
def _p1_mass_ref():
    rule = triangle_rule(SYSTEM_QUAD_DEGREE)
    n = p1_values(rule.points)
    return np.einsum("q,qi,qj->ij", rule.weights, n, n)


def _element_kernel(jac, params, form):
    """Local matrices of `form` on triangles given by their Jacobians.

    jac is (nt, 2, 2) with rows v1 - v0 and v2 - v0; every local matrix
    depends on the triangle only through these four numbers.  `form` names
    a kernel of `_FORMS`: each form's own name, except `gradient`, the
    full-gradient Gram kernel of both `*_gradient` forms.
    """
    det, inv = _jacobian_inverse(jac[:, 0], jac[:, 1])
    if form in ("fluid_mass", "solid_mass"):
        return _local_vector_mass(det, _p2_mass_ref())
    if form == "pressure_mass":
        return det[:, None, None] * _p1_mass_ref()[None, :, :]
    rule = triangle_rule(SYSTEM_QUAD_DEGREE)
    g = _ref_to_phys(inv, rule)
    if form == "fluid_strain":
        return _local_strain(det, g, rule.weights)
    if form == "gradient":
        return _local_gradient(det, g, rule.weights)
    if form == "divergence":
        return _local_divergence(det, g, rule)
    if form == "solid_stiffness":
        # (sigma(u), eps(v)) = lambda (div u, div v) + 2 mu (eps u, eps v)
        return (params.lame_lambda * _local_div_div(det, g, rule.weights)
                + _local_strain(det, g, rule.weights, mu_factor=2.0 * params.lame_mu))
    raise ValueError(f"unknown form {form!r}")


def _local_matrices(space, tris, params, form):
    """Local matrices of `form` on `tris`, one kernel call per Jacobian class.

    Triangles whose Jacobians have the same bit pattern get bitwise the
    same local matrix, so the kernel runs on one representative of each
    class and the result is gathered back.  No tolerance is involved: on a
    mesh without repeated shapes every triangle is its own class.
    """
    jac = _jacobians(space, tris)
    first, cls = sla.bit_classes(jac.reshape(len(tris), 4))
    return _element_kernel(jac[first], params, form)[cls]


def _form_spec(form):
    """(element kernel, row dofs, column dofs, region) of an assembled form."""
    if form not in _FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    kernel, rows, cols = _FORMS[form]
    return kernel, rows, cols, meshmod.SOLID if cols == "solid" else meshmod.FLUID


def element_matrices(space, tri, params: MaterialParams, form: str):
    """Local matrix of one form of `FORMS` on one triangle of its region.

    Vector forms give a 12x12 matrix in the interleaved layout, `divergence`
    3x12 (pressure rows, velocity columns) and `pressure_mass` 3x3.
    """
    kernel, _, _, region = _form_spec(form)
    tri_region = space.mesh.tri_region[tri]
    if tri_region != region:
        raise ValueError(
            f"form {form!r} incompatible with triangle {tri} in region "
            f"{meshmod.REGION_NAMES[tri_region]}")
    return _local_matrices(space, np.array([tri]), params, kernel)[0]


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def _scatter(local, row_dofs, col_dofs, shape):
    """Sum local matrices (nt, nr, nc) into a CSR matrix of `shape`.

    row_dofs (nt, nr) and col_dofs (nt, nc) are the global indices of the
    local rows and columns.  The COO indices are built as int32, the index
    type of the result, so no int64 copy of the 2 x nt x nr x nc indices
    is ever held.
    """
    nt, nr, nc = local.shape
    rows = np.repeat(row_dofs.astype(np.int32), nc, axis=1).ravel()
    cols = np.tile(col_dofs.astype(np.int32), (1, nr)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


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
    tris = space.solid_tris if region == meshmod.SOLID else space.fluid_tris
    rows, n_rows = _dofs_of_tris(space, tris, row_layout)
    cols, n_cols = ((rows, n_rows) if col_layout == row_layout
                    else _dofs_of_tris(space, tris, col_layout))
    return _scatter(_local_matrices(space, tris, params, kernel), rows, cols,
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


def quadrature_points(space, tris, rule):
    """Physical quadrature points, (nt, nq, 2)."""
    return np.stack([quadrature_coordinate(space, tris, rule, axis)
                     for axis in (0, 1)], axis=-1)


def assemble_fluid_load(space, field):
    """Load vector (f, phi_i) over the fluid for a vector field f(x, y).

    `field` must accept coordinate arrays and return the component pair
    (f_x, f_y).  Integrated with the degree-`DATA_QUAD_DEGREE` rule."""
    tris = space.fluid_tris
    rule = triangle_rule(DATA_QUAD_DEGREE)
    det, _ = _tri_geometry(space, tris)
    fx, fy = field(quadrature_coordinate(space, tris, rule, 0),
                   quadrature_coordinate(space, tris, rule, 1))
    n = p2_values(rule.points)                       # (nq, 6)
    lx = np.einsum("q,qi,tq->ti", rule.weights, n, fx) * det[:, None]
    ly = np.einsum("q,qi,tq->ti", rule.weights, n, fy) * det[:, None]
    load = np.zeros(space.num_velocity_dofs)
    dofs = space.velocity_dofs_of_tris(tris)
    np.add.at(load, dofs[:, 0::2], lx)
    np.add.at(load, dofs[:, 1::2], ly)
    return load


def interpolate(space, field, target: str):
    """Nodal interpolant: point evaluation at the P2/P1 nodes of `target`.

    Vector fields return (f_x, f_y) component arrays; scalar fields return
    one array.  target is 'velocity', 'pressure' or 'displacement'.
    """
    if target == "pressure":
        xy = space.node_xy[space.pressure_nodes]
        return np.asarray(field(xy[:, 0], xy[:, 1]), dtype=float)
    if target not in ("velocity", "displacement"):
        raise ValueError(f"unknown interpolation target {target!r}")
    xy = space.node_xy[space.fluid_nodes if target == "velocity" else space.solid_nodes]
    fx, fy = field(xy[:, 0], xy[:, 1])
    return _interleave(np.asarray(fx, dtype=float), np.asarray(fy, dtype=float))


# ---------------------------------------------------------------------------
# interface-edge integrals (quadratic traces on Gamma_s)
# ---------------------------------------------------------------------------

def _edge_rule():
    return gauss_legendre_01(EDGE_QUAD_POINTS)


def _edge_shape(t):
    """1D quadratic shapes for nodes (end0, end1, midpoint) at t in [0,1]."""
    return np.column_stack([
        2.0 * (t - 0.5) * (t - 1.0),
        2.0 * t * (t - 0.5),
        4.0 * t * (1.0 - t),
    ])


def _iface_vector_positions(space):
    """(ne, 3, 2) interleaved interface dofs of each edge's nodes."""
    pos = space.iface_node_pos[space.iface_edge_nodes]
    return 2 * pos[:, :, None] + np.arange(2)


def iface_trace_mass(space):
    """Vector-P2 mass matrix of the interface curve, interleaved layout."""
    ni = space.iface_nodes.size
    t, w = _edge_rule()
    n = _edge_shape(t)
    mloc = space.iface_edge_length * np.einsum("q,qi,qj->ij", w, n, n)
    pos = space.iface_node_pos[space.iface_edge_nodes]           # (ne, 3)
    m = np.zeros((ni, ni))
    # np.add.at applies the edges in order, as a loop over edges would
    np.add.at(m, (pos[:, :, None], pos[:, None, :]), mloc)
    out = np.zeros((2 * ni, 2 * ni))
    out[0::2, 0::2] = m
    out[1::2, 1::2] = m
    return out


def iface_normal_moments(space):
    """Vector r with r_i = integral over Gamma_s of nu . phi_i ds."""
    t, w = _edge_rule()
    shape_int = space.iface_edge_length * (w @ _edge_shape(t))   # (3,)
    r = np.zeros(2 * space.iface_nodes.size)
    contrib = space.iface_edge_normals[:, None, :] * shape_int[None, :, None]
    np.add.at(r, _iface_vector_positions(space), contrib)
    return r


def _iface_edge_pressures(space, pressure):
    """(ne, 2) P1 pressure values at the two end vertices of each edge."""
    return np.asarray(pressure)[space.pressure_loc[space.iface_edge_nodes[:, :2]]]


def iface_pressure_integral(space, pressure):
    """Integral of a P1 pressure field over Gamma_s."""
    p = _iface_edge_pressures(space, pressure)
    per_edge = 0.5 * space.iface_edge_length * (p[:, 0] + p[:, 1])
    # summed edge by edge (np.sum would pair the terms differently)
    return float(np.cumsum(per_edge)[-1])


def iface_pressure_normal_moments(space, pressure):
    """Vector m with m_i = integral over Gamma_s of p (nu . phi_i) ds."""
    t, w = _edge_rule()
    n = _edge_shape(t)
    p = _iface_edge_pressures(space, pressure)
    pvals = p[:, :1] * (1.0 - t) + p[:, 1:] * t                   # (ne, nq)
    contrib = space.iface_edge_length * np.einsum("q,eq,qi->ei", w, pvals, n)
    m = np.zeros(2 * space.iface_nodes.size)
    np.add.at(m, _iface_vector_positions(space),
              space.iface_edge_normals[:, None, :] * contrib[:, :, None])
    return m


def iface_perimeter(space):
    return space.iface_edge_nodes.shape[0] * space.iface_edge_length


# ---------------------------------------------------------------------------
# cached operator bundles (spaces own their assembled matrices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluidOperators:
    mass: sp.csr_matrix
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
        mass=assemble(space, "fluid_mass"),
        strain=assemble(space, "fluid_strain"),
        div=assemble(space, "divergence"),
        pressure_mass=assemble(space, "pressure_mass"),
    ))


def solid_operators(space, params: MaterialParams) -> SolidOperators:
    def build():
        mass = space.cached("solid_mass", lambda: assemble(space, "solid_mass"))
        grad = space.cached("solid_grad", lambda: assemble(space, "solid_gradient"))
        stiffness = assemble(space, "solid_stiffness", params)
        return SolidOperators(mass=mass, stiffness=stiffness, grad=grad,
                              energy=stiffness + mass)

    return space.cached(("solid_ops", params.lame_lambda, params.lame_mu), build)
