import math

import numpy as np
import pytest

from conftest import signed_areas
from fsifem import mesh as meshmod

# Table-1 refinement sequence: element counts and hypotenuse lengths
TABLE1 = [(0, 72, 0.235702), (1, 288, 0.117851), (2, 1152, 0.0589256),
          (3, 4608, 0.0294628)]


@pytest.mark.parametrize("level,elements,hyp", TABLE1)
def test_table1_counts_and_hypotenuse(level, elements, hyp):
    m = meshmod.generate(level)
    assert m.num_triangles == elements
    assert m.hypotenuse == pytest.approx(hyp, rel=5e-6)


@pytest.mark.parametrize("level", range(5))
def test_counts_follow_quadrupling(level):
    m = meshmod.generate(level)
    assert m.num_triangles == 72 * 4**level
    assert m.hypotenuse == pytest.approx(0.235702 / 2**level, rel=5e-6)


def test_level0_region_counts(mesh0):
    # 6x6 grid whose 2x2 center block is solid: 4 cells x 2 triangles
    assert int((mesh0.tri_region == meshmod.SOLID).sum()) == 8
    assert int((mesh0.tri_region == meshmod.FLUID).sum()) == 64


@pytest.mark.parametrize("level", range(4))
def test_region_areas_tile_exactly(level):
    m = meshmod.generate(level)
    areas = signed_areas(m)
    assert abs(areas[m.tri_region == meshmod.FLUID].sum() - 8.0 / 9.0) <= 1e-14
    assert abs(areas[m.tri_region == meshmod.SOLID].sum() - 1.0 / 9.0) <= 1e-14


def _grid_ij(m, v):
    """Grid indices (i, j) of vertex ids, read from their coordinates
    (i/n, j/n): an oracle independent of the vertex numbering."""
    ij = np.rint(m.vertices[v] * m.n).astype(np.int64)
    return ij[..., 0], ij[..., 1]


@pytest.mark.parametrize("level", range(4))
def test_interface_edges(level):
    m = meshmod.generate(level)
    iface = m.edges[m.edge_tag == meshmod.GAMMA_S]
    assert iface.shape[0] == 8 * 2**level
    # all interface edges lie on the perimeter of [1/3, 2/3]^2
    n, s = m.n, m.n // 3
    i, j = _grid_ij(m, iface)
    on_perimeter = (((i == s) | (i == 2 * s)) & (j >= s) & (j <= 2 * s)) | \
                   (((j == s) | (j == 2 * s)) & (i >= s) & (i <= 2 * s))
    assert np.all(on_perimeter)


@pytest.mark.parametrize("level", range(4))
def test_tags_from_connectivity_match_grid_layout(level):
    m = meshmod.generate(level)
    n, s = m.n, m.n // 3
    i, j = _grid_ij(m, m.edges)                      # (ne, 2) each
    vert, horz = i[:, 0] == i[:, 1], j[:, 0] == j[:, 1]
    outer = (vert & np.isin(i[:, 0], (0, n))) | (horz & np.isin(j[:, 0], (0, n)))
    iface = ((vert & np.isin(i[:, 0], (s, 2 * s)) & (j.min(1) >= s) & (j.max(1) <= 2 * s))
             | (horz & np.isin(j[:, 0], (s, 2 * s)) & (i.min(1) >= s)
                & (i.max(1) <= 2 * s)))
    expected = np.where(outer, meshmod.GAMMA_F,
                        np.where(iface, meshmod.GAMMA_S, meshmod.INTERIOR))
    assert np.array_equal(m.edge_tag, expected)


def test_edge_topology_lists_each_edges_triangles(mesh1):
    nv, nt = mesh1.num_vertices, mesh1.num_triangles
    edges, edge_tris, tri_edges = meshmod.edge_topology(mesh1.triangles, nv)
    assert np.array_equal(edges, mesh1.edges)
    assert np.array_equal(tri_edges, mesh1.tri_edges)
    assert np.all(np.diff(edges[:, 0] * nv + edges[:, 1]) > 0)
    for side in (0, 1):
        has = edge_tris[:, side] >= 0
        tris = mesh1.triangles[edge_tris[has, side]]
        for end in (0, 1):
            assert np.all(np.any(tris == edges[has, end, None], axis=1))
    # every triangle is listed once for each of its three edges
    assert np.array_equal(np.bincount(edge_tris[edge_tris >= 0], minlength=nt),
                          np.full(nt, 3))
    assert np.array_equal(edge_tris[:, 1] < 0, mesh1.edge_tag == meshmod.GAMMA_F)


@pytest.mark.parametrize("level", range(3))
def test_tri_edges_hold_each_sides_vertex_pair(level):
    # the triangle's own vertices are the oracle: side k runs from vertex
    # k to vertex k + 1 mod 3
    m = meshmod.generate(level)
    for k in range(3):
        side = np.sort(m.triangles[:, [k, (k + 1) % 3]], axis=1)
        assert np.array_equal(m.edges[m.tri_edges[:, k]], side)


def test_edge_topology_rejects_edge_of_three_triangles():
    triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(meshmod.MeshError, match="3 triangles"):
        meshmod.edge_topology(triangles, 5)


@pytest.mark.parametrize("level", range(4))
def test_vertex_condition_exhaustive(level):
    m = meshmod.generate(level)
    i, j = _grid_ij(m, m.triangles)
    on_outer = (i == 0) | (i == m.n) | (j == 0) | (j == m.n)
    fluid = m.tri_region == meshmod.FLUID
    assert not np.any(np.all(on_outer[fluid], axis=1))


@pytest.mark.parametrize("level", range(3))
def test_structural_invariants(level):
    m = meshmod.generate(level)
    edges, edge_tris, tri_edges = meshmod.edge_topology(m.triangles, m.num_vertices)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.tri_edges, tri_edges)
    # the one triangle of every outer-boundary edge is fluid
    outer = m.edge_tag == meshmod.GAMMA_F
    assert np.all(m.tri_region[edge_tris[outer, 0]] == meshmod.FLUID)


def test_positive_orientation():
    for level in range(3):
        assert np.all(signed_areas(meshmod.generate(level)) > 0)


def test_rejects_bad_levels():
    with pytest.raises(ValueError):
        meshmod.generate(-1)
    with pytest.raises(ValueError):
        meshmod.generate(40)


def test_refine_nests_vertices():
    # the level-(k+1) mesh keeps every vertex of the level-k mesh
    for level in range(3):
        coarse, fine = meshmod.generate(level), meshmod.generate(level + 1)
        fine_vertices = {tuple(v) for v in fine.vertices}
        assert all(tuple(v) in fine_vertices for v in coarse.vertices)


def test_refine_is_four_way_subdivision():
    # each level-k triangle holds the centroids of exactly four
    # level-(k+1) triangles
    def contains(tri, pts):
        a, b, c = tri
        inside = np.ones(len(pts), dtype=bool)
        for p, q in ((a, b), (b, c), (c, a)):
            cross = (q[0] - p[0]) * (pts[:, 1] - p[1]) - (q[1] - p[1]) * (pts[:, 0] - p[0])
            inside &= cross >= -1e-14
        return inside

    for level in range(3):
        coarse, fine = meshmod.generate(level), meshmod.generate(level + 1)
        parents = coarse.vertices[coarse.triangles]
        centroids = fine.vertices[fine.triangles].mean(axis=1)
        counts = [int(contains(parents[k], centroids).sum())
                  for k in range(coarse.num_triangles)]
        assert counts == [4] * coarse.num_triangles


def test_hypotenuse_is_diagonal_length():
    for level in range(3):
        m = meshmod.generate(level)
        assert m.hypotenuse == pytest.approx(math.sqrt(2) / (6 * 2**level), abs=0.0)
