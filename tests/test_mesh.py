from collections import Counter

import numpy as np
import pytest

import oracles

from tactherm.errors import ParameterError
from tactherm.geometry import ShapeFamily, TissueDims, TumorShape, place_prism
from tactherm.pipeline import StudyConfig, refinement_spec, tumor_shape
from tactherm.mesh import (
    FaceTag,
    QualityReport,
    RefinementSpec,
    TetMesh,
    build_mesh,
    graded_axis,
    half_axis,
    mesh_quality,
    write_mesh_text,
)


def default_geom(family=ShapeFamily.REGULAR_POLYGON, n=10):
    return place_prism(TumorShape(family, n=n), TissueDims())


def cube_geom():
    # tiny inclusion so the unit block meshes cleanly without refinement
    shape = TumorShape(ShapeFamily.REGULAR_POLYGON, n=4, base_area=0.01,
                       top_depth=0.4, prism_height=0.2)
    return place_prism(shape, TissueDims(1.0, 1.0, 1.0))


def test_single_hex_decomposition():
    # one cell across the block: the solved half is one 0.5 x 1 x 1 hex
    mesh = build_mesh(cube_geom(), RefinementSpec(1, 1, 1))
    assert mesh.n_tets == 6
    vols = mesh.tet_volumes()
    np.testing.assert_allclose(vols, 0.5 / 6.0, rtol=1e-14)
    assert mesh.faces.shape[0] == 12  # 2 triangles per face of the half block
    for tag in FaceTag:
        assert np.count_nonzero(mesh.face_tags == tag) == 2


def test_volume_partition():
    geom = default_geom()
    mesh = build_mesh(geom, RefinementSpec(12, 6, 5, local_factor=2))
    half_block = 60.0 * 60.0 * 25.0
    assert abs(mesh.tet_volumes().sum() - half_block) / half_block < 1e-12


def test_all_tets_positive():
    mesh = build_mesh(default_geom(), RefinementSpec(10, 5, 5, local_factor=2))
    assert mesh.tet_volumes().min() > 0


def test_boundary_faces_tile_each_block_face():
    # faces of the solved x <= 60 half; the x = 60 plane is SYMMETRY
    geom = default_geom()
    mesh = build_mesh(geom, RefinementSpec(6, 4, 3, local_factor=2))
    p = mesh.nodes[mesh.faces]
    areas = 0.5 * np.linalg.norm(
        np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
    )
    want = {
        FaceTag.BOTTOM: 60.0 * 60.0,
        FaceTag.TOP: 60.0 * 60.0,
        FaceTag.SIDE_X0: 60.0 * 25.0,
        FaceTag.SYMMETRY: 60.0 * 25.0,
        FaceTag.SIDE_Y0: 60.0 * 25.0,
        FaceTag.SIDE_Y1: 60.0 * 25.0,
    }
    for tag, expect in want.items():
        got = areas[mesh.face_tags == tag].sum()
        assert got == pytest.approx(expect, rel=1e-12)


def test_interior_faces_shared_by_two_tets():
    mesh = build_mesh(cube_geom(), RefinementSpec(3, 3, 3))
    count = Counter()
    for tet in mesh.tets:
        for tri in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            count[tuple(sorted(tet[list(tri)]))] += 1
    boundary = {tuple(sorted(f)) for f in mesh.faces}
    for face, c in count.items():
        if c == 1:
            assert face in boundary
        else:
            assert c == 2
            assert face not in boundary
    assert len(boundary) == sum(1 for c in count.values() if c == 1)


def test_tumor_labeling_volume():
    geom = default_geom()
    mesh = build_mesh(geom, RefinementSpec(14, 7, 6, local_factor=3))
    prism_vol = 400.0 * 8.0 / 2.0  # the half in the solved x <= 60 block
    # the fractional labels integrate to the prism volume exactly
    frac_vol = float(np.dot(mesh.tet_volumes(), mesh.tumor_frac))
    assert abs(frac_vol - prism_vol) / prism_vol < 1e-12


def test_tumor_fraction_exact_for_star():
    geom = default_geom(ShapeFamily.STAR_POLYGON, n=7)
    mesh = build_mesh(geom, RefinementSpec(12, 6, 5, local_factor=2))
    frac_vol = float(np.dot(mesh.tet_volumes(), mesh.tumor_frac))
    assert frac_vol == pytest.approx(3200.0 / 2.0, rel=1e-12)  # the solved half
    assert mesh.tumor_frac.min() >= 0.0
    assert mesh.tumor_frac.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("family", list(ShapeFamily))
@pytest.mark.parametrize("level", [0, 1, 2])
def test_labels_match_tet_by_tet_oracle(family, level):
    """Production meshes: tumor_frac is within 1e-12 of Sutherland-Hodgman
    clipping and inside [0, 1]."""
    cfg = StudyConfig()
    for n in (3, 8, 33, 99, 100):
        geom = place_prism(tumor_shape(cfg, family, n), cfg.tissue)
        mesh = build_mesh(geom, refinement_spec(cfg, family, level))
        frac = oracles.prism_labels(mesh, geom)
        np.testing.assert_allclose(mesh.tumor_frac, frac, rtol=0, atol=1e-12)
        assert mesh.tumor_frac.min() >= 0.0 and mesh.tumor_frac.max() <= 1.0


def test_half_axis_ends_on_the_mirror_plane():
    edges = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    # c on a plane: the axis is cut there
    np.testing.assert_array_equal(half_axis(edges, 20.0), [0.0, 10.0, 20.0])
    # c inside a cell: c replaces the plane just below it, adding no cell
    np.testing.assert_array_equal(half_axis(edges, 25.0), [0.0, 10.0, 25.0])
    # a plane within roundoff of c is taken as c
    np.testing.assert_array_equal(half_axis(edges + [0, 0, 1e-12, 0, 0], 20.0), [0.0, 10.0, 20.0])
    # inside the first cell, the x = 0 plane stays
    np.testing.assert_array_equal(half_axis(edges, 5.0), [0.0, 5.0])


def test_graded_axis_counts():
    plain = graded_axis(120.0, 10, None, 1)
    assert len(plain) == 11
    graded = graded_axis(120.0, 10, (40.0, 80.0), 3)
    # intervals [36,48),[48,60),[60,72),[72,84) overlap -> 4 intervals tripled
    assert len(graded) == 11 + 4 * 2
    assert np.all(np.diff(graded) > 0)
    assert graded[0] == 0.0 and graded[-1] == 120.0


def test_graded_count_between_uniform_bounds():
    geom = default_geom()
    n_uniform = build_mesh(geom, RefinementSpec(8, 4, 4)).n_tets
    n_double = build_mesh(geom, RefinementSpec(16, 8, 8)).n_tets
    n_graded = build_mesh(geom, RefinementSpec(8, 4, 4, local_factor=2)).n_tets
    assert n_uniform < n_graded < n_double


def test_degenerate_refinement_rejected():
    with pytest.raises(ParameterError):
        RefinementSpec(0, 4, 4)
    with pytest.raises(ParameterError):
        RefinementSpec(4, 4, 4, local_factor=0)


def test_mesh_quality_report():
    mesh = build_mesh(cube_geom(), RefinementSpec(2, 2, 2))
    q = mesh_quality(mesh)
    assert isinstance(q, QualityReport)
    vols = mesh.tet_volumes()
    assert vols.min() == pytest.approx((0.5**3) / 6.0, rel=1e-12)
    assert vols.sum() == pytest.approx(0.5, rel=1e-12)  # the solved half
    assert 0.0 < q.min_dihedral_deg < 90.0
    assert q.max_aspect >= 1.0


def test_mesh_text_export(tmp_path):
    mesh = build_mesh(cube_geom(), RefinementSpec(2, 2, 2))
    f1, f2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    write_mesh_text(mesh, f1)
    write_mesh_text(mesh, f2)
    assert f1.read_bytes() == f2.read_bytes()
    text = f1.read_text()
    assert text.startswith(f"nodes {mesh.n_nodes}\n")
    assert f"tets {mesh.n_tets}" in text
    assert f"faces {mesh.faces.shape[0]}" in text


def test_boundary_nodes_lookup():
    mesh = build_mesh(cube_geom(), RefinementSpec(2, 2, 2))
    bottom = mesh.boundary_nodes(FaceTag.BOTTOM)
    assert np.all(mesh.nodes[bottom, 2] == 0.0)
    top = mesh.boundary_nodes(FaceTag.TOP)
    assert np.all(mesh.nodes[top, 2] == 1.0)
