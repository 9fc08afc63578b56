import math

import numpy as np
import pytest

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
    areas = meshmod.signed_areas(m)
    assert abs(areas[m.tri_region == meshmod.FLUID].sum() - 8.0 / 9.0) <= 1e-14
    assert abs(areas[m.tri_region == meshmod.SOLID].sum() - 1.0 / 9.0) <= 1e-14


@pytest.mark.parametrize("level", range(4))
def test_interface_edges(level):
    m = meshmod.generate(level)
    iface = m.edges[m.edge_tag == meshmod.GAMMA_S]
    assert iface.shape[0] == 8 * 2**level
    # all interface edges lie on the perimeter of [1/3, 2/3]^2
    n, s = m.n, m.n // 3
    i, j = m.vertex_ij(iface)
    on_perimeter = (((i == s) | (i == 2 * s)) & (j >= s) & (j <= 2 * s)) | \
                   (((j == s) | (j == 2 * s)) & (i >= s) & (i <= 2 * s))
    assert np.all(on_perimeter)


@pytest.mark.parametrize("level", range(4))
def test_vertex_condition_exhaustive(level):
    m = meshmod.generate(level)
    i, j = m.vertex_ij(m.triangles)
    on_outer = (i == 0) | (i == m.n) | (j == 0) | (j == m.n)
    fluid = m.tri_region == meshmod.FLUID
    assert not np.any(np.all(on_outer[fluid], axis=1))


@pytest.mark.parametrize("level", range(3))
def test_structural_invariants(level):
    meshmod.validate(meshmod.generate(level))


def test_positive_orientation(mesh1):
    assert np.all(meshmod.signed_areas(mesh1) > 0)


def test_rejects_bad_levels():
    with pytest.raises(ValueError):
        meshmod.generate(-1)
    with pytest.raises(ValueError):
        meshmod.generate(40)


def test_refine_matches_generate(mesh0):
    refined = meshmod.refine(mesh0)
    assert refined.num_triangles == 288
    assert refined == meshmod.generate(1)
    assert meshmod.refine(refined).num_triangles == 1152


def test_refine_nests_vertices(mesh0):
    refined = meshmod.refine(mesh0)
    child_vertices = {tuple(v) for v in refined.vertices}
    assert all(tuple(v) in child_vertices for v in mesh0.vertices)


def test_refine_is_four_way_subdivision(mesh0):
    refined = meshmod.refine(mesh0)
    parents = mesh0.vertices[mesh0.triangles]
    centroids = refined.vertices[refined.triangles].mean(axis=1)

    def contains(tri, pts):
        a, b, c = tri
        inside = np.ones(len(pts), dtype=bool)
        for p, q in ((a, b), (b, c), (c, a)):
            cross = (q[0] - p[0]) * (pts[:, 1] - p[1]) - (q[1] - p[1]) * (pts[:, 0] - p[0])
            inside &= cross >= -1e-14
        return inside

    counts = [int(contains(parents[k], centroids).sum())
              for k in range(mesh0.num_triangles)]
    assert counts == [4] * mesh0.num_triangles


def test_export_layout(mesh0, tmp_path):
    path = tmp_path / "level0.mesh"
    meshmod.export_mesh(mesh0, path)
    lines = path.read_text().splitlines()
    ntri, nvert, level = (int(t) for t in lines[0].split())
    assert (ntri, nvert, level) == (72, 49, 0)
    assert len(lines) == 1 + nvert + ntri + mesh0.edges.shape[0]
    vertex_lines = lines[1:1 + nvert]
    assert all(len(l.split()) == 3 for l in vertex_lines)
    tri_lines = lines[1 + nvert:1 + nvert + ntri]
    assert all(l.split()[4] in ("Fluid", "Solid") for l in tri_lines)


@pytest.mark.parametrize("level", [0, 1])
def test_export_import_round_trip(level, tmp_path):
    m = meshmod.generate(level)
    path = tmp_path / "mesh.txt"
    meshmod.export_mesh(m, path)
    assert meshmod.import_mesh(path) == m


def test_export_unwritable_path_names_path(mesh0, tmp_path):
    bad = tmp_path / "missing_dir" / "mesh.txt"
    with pytest.raises(meshmod.MeshError, match="missing_dir"):
        meshmod.export_mesh(mesh0, bad)


def test_import_rejects_garbage(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("3 2 0\nnot a vertex line\n")
    with pytest.raises(meshmod.MeshError):
        meshmod.import_mesh(path)


def test_import_rejects_reversed_triangle(mesh0, tmp_path):
    path = tmp_path / "reversed.txt"
    meshmod.export_mesh(mesh0, path)
    lines = path.read_text().splitlines()
    row = 1 + mesh0.num_vertices          # first triangle line
    idx, v0, v1, v2, region = lines[row].split()
    lines[row] = " ".join((idx, v0, v2, v1, region))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshmod.MeshError, match="oriented"):
        meshmod.import_mesh(path)


def test_hypotenuse_is_diagonal_length():
    for level in range(3):
        m = meshmod.generate(level)
        assert m.hypotenuse == pytest.approx(math.sqrt(2) / (6 * 2**level), abs=0.0)
