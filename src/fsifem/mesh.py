"""Structured triangulation of the square-annulus benchmark geometry.

The domain is the unit square with an elastic solid occupying the centered
square (1/3, 2/3)^2 and the fluid filling the complement.  The grid has
n = 6 * 2**level cells per side, so the lines x, y in {1/3, 2/3} are mesh
lines and every cell belongs entirely to one region.  Each cell is split
along one diagonal, oriented per quadrant so that it points toward the
domain center (lower-left to upper-right in the lower-left and upper-right
quadrants, the other way elsewhere).  All diagonals have the same length,
the family stays quasi-uniform, every refinement is a 4-way subdivision of
the parent triangles, and no fluid triangle has all three vertices on the
outer boundary (a single parallel orientation would violate that at two
corners of the square).

Vertex coordinates are the rationals i/n evaluated in double precision;
all region and boundary membership is decided by integer index arithmetic,
never by floating-point comparison against 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# region tags
FLUID = 0
SOLID = 1
REGION_NAMES = {FLUID: "Fluid", SOLID: "Solid"}

# edge tags
GAMMA_F = 0   # outer boundary of the fluid, d(0,1)^2
GAMMA_S = 1   # fluid/solid interface, perimeter of [1/3,2/3]^2
INTERIOR = 2
EDGE_NAMES = {GAMMA_F: "GammaF", GAMMA_S: "GammaS", INTERIOR: "Interior"}

_REGION_FROM_NAME = {v: k for k, v in REGION_NAMES.items()}
_EDGE_FROM_NAME = {v: k for k, v in EDGE_NAMES.items()}

# 2*n*n triangles must stay well inside the int32 range used by sparse indices
_MAX_LEVEL = 12


class MeshError(Exception):
    """Raised when a mesh violates a structural invariant."""


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with region and boundary tags.

    vertices     (nv, 2) float64 coordinates in [0,1]^2
    triangles    (nt, 3) int64 vertex indices, positively oriented
    tri_region   (nt,)  FLUID or SOLID
    edges        (ne, 2) int64 vertex pairs, v0 < v1
    edge_tag     (ne,)  GAMMA_F, GAMMA_S or INTERIOR
    level        refinement level, grid size n = 6 * 2**level
    hypotenuse   diagonal edge length, (sqrt(2)/6) * 2**(-level)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    edges: np.ndarray
    edge_tag: np.ndarray
    level: int
    hypotenuse: float
    n: int = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, TriMesh):
            return NotImplemented
        return (
            self.level == other.level
            and self.n == other.n
            and self.hypotenuse == other.hypotenuse
            and np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.triangles, other.triangles)
            and np.array_equal(self.tri_region, other.tri_region)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.edge_tag, other.edge_tag)
        )

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    def vertex_ij(self, v):
        """Grid indices (i, j) of vertex ids; coordinates are (i/n, j/n)."""
        v = np.asarray(v)
        return v % (self.n + 1), v // (self.n + 1)


def generate(level: int) -> TriMesh:
    """Build the level-`level` mesh: 2 * (6 * 2**level)**2 triangles."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > _MAX_LEVEL:
        raise ValueError(
            f"level {level} exceeds supported range (triangle count would "
            f"overflow practical index sizes)")
    n = 6 * 2**level
    s = n // 3

    # vertex (i, j) -> id j*(n+1) + i, coordinate (i/n, j/n)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    vertices = np.column_stack([(ii / n).ravel(), (jj / n).ravel()])

    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ci = ci.ravel()
    cj = cj.ravel()
    v00 = cj * (n + 1) + ci
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1

    # diagonal toward the domain center: v00 -> v11 in the lower-left and
    # upper-right quadrants, v10 -> v01 in the other two; all children
    # positively oriented
    anti = (ci >= n // 2) != (cj >= n // 2)
    lower = np.where(anti[:, None],
                     np.column_stack([v00, v10, v01]),
                     np.column_stack([v00, v10, v11]))
    upper = np.where(anti[:, None],
                     np.column_stack([v10, v11, v01]),
                     np.column_stack([v00, v11, v01]))
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    solid_cell = (ci >= s) & (ci < 2 * s) & (cj >= s) & (cj < 2 * s)
    tri_region = np.empty(2 * n * n, dtype=np.int8)
    tri_region[0::2] = np.where(solid_cell, SOLID, FLUID)
    tri_region[1::2] = tri_region[0::2]

    edges, edge_tag = _build_edges(triangles, n, s)

    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        tri_region=tri_region,
        edges=edges,
        edge_tag=edge_tag,
        level=level,
        hypotenuse=math.sqrt(2.0) / n,
        n=n,
    )


def _build_edges(triangles, n, s):
    pairs = np.concatenate([
        triangles[:, [0, 1]],
        triangles[:, [1, 2]],
        triangles[:, [2, 0]],
    ])
    pairs.sort(axis=1)
    edges = np.unique(pairs, axis=0)

    i0, j0 = edges[:, 0] % (n + 1), edges[:, 0] // (n + 1)
    i1, j1 = edges[:, 1] % (n + 1), edges[:, 1] // (n + 1)

    vert = i0 == i1   # edge along a vertical grid line
    horz = j0 == j1
    on_gamma_f = (vert & ((i0 == 0) | (i0 == n))) | (horz & ((j0 == 0) | (j0 == n)))
    jlo, jhi = np.minimum(j0, j1), np.maximum(j0, j1)
    ilo, ihi = np.minimum(i0, i1), np.maximum(i0, i1)
    on_gamma_s = (
        (vert & ((i0 == s) | (i0 == 2 * s)) & (jlo >= s) & (jhi <= 2 * s))
        | (horz & ((j0 == s) | (j0 == 2 * s)) & (ilo >= s) & (ihi <= 2 * s))
    )

    edge_tag = np.full(edges.shape[0], INTERIOR, dtype=np.int8)
    edge_tag[on_gamma_f] = GAMMA_F
    edge_tag[on_gamma_s] = GAMMA_S
    return edges, edge_tag


def refine(mesh: TriMesh) -> TriMesh:
    """Refine by a factor of 2: every parent triangle becomes 4 children.

    Because all diagonals are parallel, the level-(k+1) structured mesh is
    exactly the 4-way subdivision of the level-k mesh, so this regenerates.
    """
    return generate(mesh.level + 1)


def export_mesh(mesh: TriMesh, path) -> None:
    """Write the plain-text mesh format (round-trips bit-exactly).

    Layout: header "ntri nvert level", then "index x y" per vertex,
    "index v0 v1 v2 region" per triangle, "v0 v1 tag" per edge.
    """
    try:
        with open(path, "w") as f:
            f.write(f"{mesh.num_triangles} {mesh.num_vertices} {mesh.level}\n")
            for k, (x, y) in enumerate(mesh.vertices):
                f.write(f"{k} {float(x)!r} {float(y)!r}\n")
            for k in range(mesh.num_triangles):
                v0, v1, v2 = mesh.triangles[k]
                f.write(f"{k} {v0} {v1} {v2} {REGION_NAMES[mesh.tri_region[k]]}\n")
            for k in range(mesh.edges.shape[0]):
                v0, v1 = mesh.edges[k]
                f.write(f"{v0} {v1} {EDGE_NAMES[mesh.edge_tag[k]]}\n")
    except OSError as err:
        raise MeshError(f"cannot write mesh to {path!s}: {err}") from err


def import_mesh(path) -> TriMesh:
    """Read a mesh written by :func:`export_mesh` and :func:`validate` it."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as err:
        raise MeshError(f"cannot read mesh from {path!s}: {err}") from err

    try:
        ntri, nvert, level = (int(tok) for tok in lines[0].split())
        vertices = np.empty((nvert, 2))
        for k in range(nvert):
            idx, x, y = lines[1 + k].split()
            vertices[int(idx)] = (float(x), float(y))
        triangles = np.empty((ntri, 3), dtype=np.int64)
        tri_region = np.empty(ntri, dtype=np.int8)
        for k in range(ntri):
            idx, v0, v1, v2, name = lines[1 + nvert + k].split()
            triangles[int(idx)] = (int(v0), int(v1), int(v2))
            tri_region[int(idx)] = _REGION_FROM_NAME[name]
        edge_lines = lines[1 + nvert + ntri:]
        edges = np.empty((len(edge_lines), 2), dtype=np.int64)
        edge_tag = np.empty(len(edge_lines), dtype=np.int8)
        for k, line in enumerate(edge_lines):
            v0, v1, name = line.split()
            edges[k] = (int(v0), int(v1))
            edge_tag[k] = _EDGE_FROM_NAME[name]
    except (ValueError, KeyError, IndexError) as err:
        raise MeshError(f"malformed mesh file {path!s}: {err}") from err

    mesh = TriMesh(
        vertices=vertices,
        triangles=triangles,
        tri_region=tri_region,
        edges=edges,
        edge_tag=edge_tag,
        level=level,
        hypotenuse=math.sqrt(2.0) / (6 * 2**level),
        n=6 * 2**level,
    )
    validate(mesh)
    return mesh


def signed_areas(mesh: TriMesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def edge_triangle_incidence(mesh: TriMesh):
    """For each edge, the list of triangle indices sharing it."""
    pairs = np.concatenate([
        mesh.triangles[:, [0, 1]],
        mesh.triangles[:, [1, 2]],
        mesh.triangles[:, [2, 0]],
    ])
    pairs.sort(axis=1)
    tri_ids = np.tile(np.arange(mesh.num_triangles), 3)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs, tri_ids = pairs[order], tri_ids[order]
    incidence = {}
    for (a, b), t in zip(map(tuple, pairs), tri_ids):
        incidence.setdefault((a, b), []).append(t)
    return incidence


def validate(mesh: TriMesh) -> None:
    """Check every structural invariant; raise MeshError on violation."""
    n, s = mesh.n, mesh.n // 3
    if mesh.num_triangles != 2 * n * n:
        raise MeshError(f"expected {2 * n * n} triangles, found {mesh.num_triangles}")
    if not math.isclose(mesh.hypotenuse, math.sqrt(2.0) / n, rel_tol=1e-15):
        raise MeshError("hypotenuse inconsistent with level")

    if np.any(signed_areas(mesh) <= 0):
        raise MeshError("non-positively-oriented triangle")

    areas = signed_areas(mesh)
    fluid_area = areas[mesh.tri_region == FLUID].sum()
    solid_area = areas[mesh.tri_region == SOLID].sum()
    if abs(fluid_area - 8.0 / 9.0) > 1e-14 or abs(solid_area - 1.0 / 9.0) > 1e-14:
        raise MeshError(f"region areas {fluid_area}, {solid_area} do not tile 8/9 + 1/9")

    incidence = edge_triangle_incidence(mesh)
    tag_of = {tuple(e): t for e, t in zip(mesh.edges, mesh.edge_tag)}
    if len(tag_of) != len(incidence):
        raise MeshError("edge list does not match triangle connectivity")
    for e, tris in incidence.items():
        tag = tag_of.get(e)
        if tag is None:
            raise MeshError(f"edge {e} missing from edge list")
        regions = sorted(mesh.tri_region[t] for t in tris)
        if tag == GAMMA_F:
            if len(tris) != 1 or regions != [FLUID]:
                raise MeshError(f"outer-boundary edge {e} not a single fluid triangle")
        elif tag == GAMMA_S:
            if len(tris) != 2 or regions != [FLUID, SOLID]:
                raise MeshError(f"interface edge {e} not a fluid/solid pair")
        else:
            if len(tris) != 2 or regions[0] != regions[1]:
                raise MeshError(f"interior edge {e} shared by {len(tris)} triangles "
                                f"with regions {regions}")

    n_iface = int(np.sum(mesh.edge_tag == GAMMA_S))
    if n_iface != 8 * 2**mesh.level:
        raise MeshError(f"expected {8 * 2**mesh.level} interface edges, found {n_iface}")

    # inf-sup vertex condition: every fluid triangle has a vertex off Gamma_f
    i, j = mesh.vertex_ij(mesh.triangles)
    on_outer = (i == 0) | (i == n) | (j == 0) | (j == n)
    fluid = mesh.tri_region == FLUID
    if np.any(np.all(on_outer[fluid], axis=1)):
        raise MeshError("a fluid triangle has all vertices on Gamma_f")
