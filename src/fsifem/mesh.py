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

Vertex coordinates are the rationals i/n evaluated in double precision.
`generate` decides region membership by integer index arithmetic, never by
floating-point comparison against 1/3; it is the only place that knows the
grid layout.  Everything else comes from connectivity: `edge_topology`
finds the unique edges and each edge's one or two triangles in one
vectorized pass, and the edge tags follow from those triangles' regions.
`validate` reruns the same pass to check a mesh read from a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
MAX_LEVEL = 12


class MeshError(Exception):
    """Raised when a mesh violates a structural invariant."""


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with region and boundary tags.

    vertices     (nv, 2) float64 coordinates in [0,1]^2
    triangles    (nt, 3) int64 vertex indices, positively oriented
    tri_region   (nt,)  FLUID or SOLID
    edges        (ne, 2) int64 vertex pairs, v0 < v1, sorted by v0 * nv + v1
    edge_tag     (ne,)  GAMMA_F, GAMMA_S or INTERIOR
    edge_triangles (ne, 2) int64 the one or two triangles of each edge,
                 -1 for the missing one
    level        refinement level, grid size n = 6 * 2**level
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    edges: np.ndarray
    edge_tag: np.ndarray
    edge_triangles: np.ndarray
    level: int

    def __eq__(self, other):
        if not isinstance(other, TriMesh):
            return NotImplemented
        return self.level == other.level and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("vertices", "triangles", "tri_region", "edges",
                         "edge_tag", "edge_triangles"))

    @property
    def n(self):
        """Cells per side of the level's grid, 6 * 2**level."""
        return 6 * 2**self.level

    @property
    def hypotenuse(self):
        """Diagonal edge length, (sqrt(2)/6) * 2**(-level)."""
        return math.sqrt(2.0) / self.n

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]


def generate(level: int) -> TriMesh:
    """Build the level-`level` mesh: 2 * (6 * 2**level)**2 triangles."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
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

    edges, edge_triangles = edge_topology(triangles, vertices.shape[0])
    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        tri_region=tri_region,
        edges=edges,
        edge_tag=_edge_tags(edge_triangles, tri_region),
        edge_triangles=edge_triangles,
        level=level,
    )


def edge_topology(triangles, num_vertices):
    """Unique edges and the triangles on their sides, in one vectorized pass.

    Returns `edges` (ne, 2) with v0 < v1, sorted by the key v0 * nv + v1,
    and `edge_triangles` (ne, 2), the one or two triangles of each edge
    with -1 for the missing one.  An edge of three or more triangles is a
    MeshError.
    """
    pairs = np.concatenate([
        triangles[:, [0, 1]],
        triangles[:, [1, 2]],
        triangles[:, [2, 0]],
    ])
    pairs.sort(axis=1)
    key = pairs[:, 0] * num_vertices + pairs[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, key.size])
    if np.any(count > 2):
        k = np.argmax(count)
        raise MeshError(f"edge {pairs[order[start[k]]].tolist()} shared by "
                        f"{count[k]} triangles")
    tri = order % triangles.shape[0]    # pair p comes from triangle p mod nt
    edge_triangles = np.full((start.size, 2), -1, dtype=np.int64)
    edge_triangles[:, 0] = tri[start]
    two = count == 2
    edge_triangles[two, 1] = tri[start[two] + 1]
    return pairs[order[start]], edge_triangles


def _edge_tags(edge_triangles, tri_region):
    """An edge of one triangle lies on Gamma_f, an edge between triangles
    of different regions on Gamma_s; every other edge is interior."""
    t0, t1 = edge_triangles[:, 0], edge_triangles[:, 1]
    edge_tag = np.full(t0.size, INTERIOR, dtype=np.int8)
    edge_tag[t1 < 0] = GAMMA_F
    edge_tag[(t1 >= 0) & (tri_region[t0] != tri_region[t1])] = GAMMA_S
    return edge_tag


def refine(mesh: TriMesh) -> TriMesh:
    """Refine by a factor of 2: every parent triangle becomes 4 children.

    The four child cells of a cell lie in its quadrant and take the
    direction of its diagonal, so the level-(k+1) structured mesh is exactly
    the 4-way subdivision of the level-k mesh, and this regenerates.
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

    def entry(row, k):
        """Fields of line `row` after its index, which must be k."""
        idx, *fields = lines[row].split()
        if int(idx) != k:
            raise MeshError(f"{path!s}:{row + 1}: index {idx} where {k} belongs")
        return fields

    def vertex_refs(row, refs):
        """The vertex references of line `row`, each in 0..nvert-1."""
        ids = tuple(int(v) for v in refs)
        for v in ids:
            if not 0 <= v < nvert:
                raise MeshError(f"{path!s}:{row + 1}: vertex {v} outside 0..{nvert - 1}")
        return ids

    try:
        ntri, nvert, level = (int(tok) for tok in lines[0].split())
        if not 0 <= level <= MAX_LEVEL:
            raise MeshError(f"{path!s}:1: level {level} outside 0..{MAX_LEVEL}")
        # checked before any allocation sized by them
        if not (ntri >= 0 and nvert >= 0 and 1 + nvert + ntri <= len(lines)):
            raise MeshError(f"{path!s}:1: {ntri} triangles and {nvert} vertices "
                            f"do not fit the file's {len(lines)} lines")
        vertices = np.empty((nvert, 2))
        for k in range(nvert):
            x, y = entry(1 + k, k)
            vertices[k] = (float(x), float(y))
        triangles = np.empty((ntri, 3), dtype=np.int64)
        tri_region = np.empty(ntri, dtype=np.int8)
        for k in range(ntri):
            row = 1 + nvert + k
            *refs, name = entry(row, k)
            triangles[k] = vertex_refs(row, refs)
            tri_region[k] = _REGION_FROM_NAME[name]
        edge_lines = lines[1 + nvert + ntri:]
        edges = np.empty((len(edge_lines), 2), dtype=np.int64)
        edge_tag = np.empty(len(edge_lines), dtype=np.int8)
        for k, line in enumerate(edge_lines):
            *refs, name = line.split()
            edges[k] = vertex_refs(1 + nvert + ntri + k, refs)
            edge_tag[k] = _EDGE_FROM_NAME[name]
    except (ValueError, KeyError, IndexError) as err:
        raise MeshError(f"malformed mesh file {path!s}: {err}") from err

    mesh = TriMesh(
        vertices=vertices,
        triangles=triangles,
        tri_region=tri_region,
        edges=edges,
        edge_tag=edge_tag,
        edge_triangles=edge_topology(triangles, nvert)[1],
        level=level,
    )
    validate(mesh)
    return mesh


def signed_areas(mesh: TriMesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def validate(mesh: TriMesh) -> None:
    """Check every structural invariant; raise MeshError on violation."""
    n = mesh.n
    if mesh.num_triangles != 2 * n * n:
        raise MeshError(f"expected {2 * n * n} triangles, found {mesh.num_triangles}")

    areas = signed_areas(mesh)
    if np.any(areas <= 0):
        raise MeshError("non-positively-oriented triangle")

    fluid_area = areas[mesh.tri_region == FLUID].sum()
    solid_area = areas[mesh.tri_region == SOLID].sum()
    if abs(fluid_area - 8.0 / 9.0) > 1e-14 or abs(solid_area - 1.0 / 9.0) > 1e-14:
        raise MeshError(f"region areas {fluid_area}, {solid_area} do not tile 8/9 + 1/9")

    edges, edge_triangles = edge_topology(mesh.triangles, mesh.num_vertices)
    if not (np.array_equal(mesh.edges, edges)
            and np.array_equal(mesh.edge_triangles, edge_triangles)):
        raise MeshError("edge list does not match triangle connectivity")
    expected = _edge_tags(edge_triangles, mesh.tri_region)
    wrong = np.flatnonzero(mesh.edge_tag != expected)
    if wrong.size:
        e = wrong[0]
        raise MeshError(
            f"edge {edges[e].tolist()} tagged {EDGE_NAMES[mesh.edge_tag[e]]}, but its "
            f"triangles {edge_triangles[e].tolist()} make it {EDGE_NAMES[expected[e]]}")
    if np.any(mesh.tri_region[edge_triangles[expected == GAMMA_F, 0]] != FLUID):
        raise MeshError("an outer-boundary edge belongs to a solid triangle")

    n_iface = int(np.sum(mesh.edge_tag == GAMMA_S))
    if n_iface != 8 * 2**mesh.level:
        raise MeshError(f"expected {8 * 2**mesh.level} interface edges, found {n_iface}")

    # inf-sup vertex condition: every fluid triangle has a vertex off Gamma_f
    on_outer = np.zeros(mesh.num_vertices, dtype=bool)
    on_outer[mesh.edges[mesh.edge_tag == GAMMA_F]] = True
    if np.any(np.all(on_outer[mesh.triangles[mesh.tri_region == FLUID]], axis=1)):
        raise MeshError("a fluid triangle has all vertices on Gamma_f")
