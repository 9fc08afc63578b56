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
    edges, edge_tris = meshmod.edge_topology(mesh1.triangles, nv)
    assert np.array_equal(edges, mesh1.edges)
    assert np.array_equal(edge_tris, mesh1.edge_triangles)
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


@pytest.mark.parametrize("row, idx, position", [
    (1 + 49 + 5, 4, 5),     # triangle 5 numbered 4: row 5 would stay np.empty
    (1, -49, 0),            # vertex 0 numbered -49, which wraps around to 0
])
def test_import_rejects_index_off_its_position(mesh0, tmp_path, row, idx, position):
    path = tmp_path / "misplaced.txt"
    meshmod.export_mesh(mesh0, path)
    lines = path.read_text().splitlines()
    lines[row] = " ".join([str(idx)] + lines[row].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshmod.MeshError,
                       match=f"misplaced.txt:{row + 1}: index {idx} where {position}"):
        meshmod.import_mesh(path)


@pytest.mark.parametrize("level", [-1, 10**6])
def test_import_rejects_header_level_out_of_range(mesh0, tmp_path, level):
    # below the range, and so far above it that validate could not even
    # format the expected triangle count
    path = tmp_path / "level.txt"
    meshmod.export_mesh(mesh0, path)
    lines = path.read_text().splitlines()
    lines[0] = f"{mesh0.num_triangles} {mesh0.num_vertices} {level}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshmod.MeshError,
                       match=f"level.txt:1: level {level} outside 0..12"):
        meshmod.import_mesh(path)


@pytest.mark.parametrize("counts", ["72 1000000000000000", "one past the end",
                                    "-1 49", "72 -49"])
def test_import_rejects_header_counts_the_file_cannot_hold(mesh0, tmp_path, counts):
    # refused before an allocation sized by the header: 10^15 vertices
    # would otherwise end in numpy's MemoryError
    path = tmp_path / "counts.txt"
    meshmod.export_mesh(mesh0, path)
    lines = path.read_text().splitlines()
    if counts == "one past the end":
        # the triangle block would end one line after the file does
        counts = f"{len(lines) - mesh0.num_vertices} {mesh0.num_vertices}"
    lines[0] = f"{counts} 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshmod.MeshError, match="counts.txt:1: .* do not fit"):
        meshmod.import_mesh(path)


@pytest.mark.parametrize("line, field, vertex", [
    ("triangle", 2, -49),   # would wrap around to vertex 0
    ("triangle", 1, 49),    # one past the last of the 49 vertices
    ("edge", 0, -1),
    ("edge", 1, 49),
])
def test_import_rejects_vertex_reference_out_of_range(mesh0, tmp_path, line, field,
                                                     vertex):
    path = tmp_path / "dangling.txt"
    meshmod.export_mesh(mesh0, path)
    lines = path.read_text().splitlines()
    row = 1 + mesh0.num_vertices          # first triangle line
    if line == "edge":
        row += mesh0.num_triangles
    fields = lines[row].split()
    fields[field] = str(vertex)
    lines[row] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshmod.MeshError,
                       match=f"dangling.txt:{row + 1}: vertex {vertex} outside 0..48"):
        meshmod.import_mesh(path)


def test_import_rejects_swapped_interface_tags(mesh0, tmp_path):
    # one Interior edge retagged GammaS and one GammaS edge retagged
    # Interior: the tag counts still match, the connectivity does not
    path = tmp_path / "swapped.txt"
    meshmod.export_mesh(mesh0, path)
    lines = path.read_text().splitlines()
    first_edge = 1 + mesh0.num_vertices + mesh0.num_triangles
    rows = {tag: first_edge + int(np.flatnonzero(mesh0.edge_tag == tag)[0])
            for tag in (meshmod.INTERIOR, meshmod.GAMMA_S)}
    for tag, other in ((meshmod.INTERIOR, "GammaS"), (meshmod.GAMMA_S, "Interior")):
        v0, v1, _ = lines[rows[tag]].split()
        lines[rows[tag]] = f"{v0} {v1} {other}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshmod.MeshError, match="tagged"):
        meshmod.import_mesh(path)


def test_hypotenuse_is_diagonal_length():
    for level in range(3):
        m = meshmod.generate(level)
        assert m.hypotenuse == pytest.approx(math.sqrt(2) / (6 * 2**level), abs=0.0)
