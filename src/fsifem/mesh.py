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
finds the unique edges, each edge's one or two triangles and the edge of
each triangle side in one vectorized pass.  The edge tags follow from
those triangles' regions, and `tri_edges` gives the space its P2 edge
nodes without a second search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# region tags
FLUID = 0
SOLID = 1

# edge tags
GAMMA_F = 0   # outer boundary of the fluid, d(0,1)^2
GAMMA_S = 1   # fluid/solid interface, perimeter of [1/3,2/3]^2
INTERIOR = 2

# 2*n*n triangles must stay well inside the int32 range used by sparse indices
MAX_LEVEL = 12


class MeshError(Exception):
    """Raised when a mesh violates a structural invariant."""


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangulation with region and boundary tags.

    vertices     (nv, 2) float64 coordinates in [0,1]^2
    triangles    (nt, 3) int64 vertex indices, positively oriented
    tri_region   (nt,)  FLUID or SOLID
    edges        (ne, 2) int64 vertex pairs, v0 < v1, sorted by v0 * nv + v1
    edge_tag     (ne,)  GAMMA_F, GAMMA_S or INTERIOR
    tri_edges    (nt, 3) int64 the edge of each triangle side (v0, v1),
                 (v1, v2), (v2, v0)
    level        refinement level, grid size n = 6 * 2**level
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    edges: np.ndarray
    edge_tag: np.ndarray
    tri_edges: np.ndarray
    level: int

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

    edges, edge_triangles, tri_edges = edge_topology(triangles, vertices.shape[0])
    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        tri_region=tri_region,
        edges=edges,
        edge_tag=_edge_tags(edge_triangles, tri_region),
        tri_edges=tri_edges,
        level=level,
    )


def edge_topology(triangles, num_vertices):
    """Unique edges, the triangles on their sides and the edge of each
    triangle side, in one vectorized pass.

    Returns `edges` (ne, 2) with v0 < v1, sorted by the key v0 * nv + v1;
    `edge_triangles` (ne, 2), the one or two triangles of each edge with
    -1 for the missing one; and `tri_edges` (nt, 3), the edge of the sides
    (v0, v1), (v1, v2) and (v2, v0) of each triangle.  An edge of three or
    more triangles is a MeshError.
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
    first = np.r_[True, key[1:] != key[:-1]]
    start = np.flatnonzero(first)
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
    # pair p is side p // nt of triangle p mod nt
    side_edge = np.empty(key.size, dtype=np.int64)
    side_edge[order] = np.cumsum(first) - 1
    return pairs[order[start]], edge_triangles, side_edge.reshape(3, -1).T


def _edge_tags(edge_triangles, tri_region):
    """An edge of one triangle lies on Gamma_f, an edge between triangles
    of different regions on Gamma_s; every other edge is interior."""
    t0, t1 = edge_triangles[:, 0], edge_triangles[:, 1]
    edge_tag = np.full(t0.size, INTERIOR, dtype=np.int8)
    edge_tag[t1 < 0] = GAMMA_F
    edge_tag[(t1 >= 0) & (tri_region[t0] != tri_region[t1])] = GAMMA_S
    return edge_tag
