import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactherm.errors import ParameterError, PlacementError
from tactherm.geometry import (
    GeometrySpec,
    Polygon2D,
    ShapeFamily,
    TissueDims,
    TumorShape,
    grid_cell_areas,
    place_prism,
    regular_polygon,
    shoelace_area,
    star_polygon,
    write_polygon_csv,
)

import oracles
from oracles import clip_polygon_to_rect, point_in_polygon


def test_regular_polygon_square_is_exact():
    poly = regular_polygon(4, 400.0)
    rc = np.hypot(poly.vertices[:, 0], poly.vertices[:, 1])
    assert rc == pytest.approx(10.0 * math.sqrt(2.0), rel=1e-14)
    assert poly.area == pytest.approx(400.0, rel=1e-13)


def test_regular_polygon_first_vertex_on_plus_y():
    for n in (3, 5, 8, 37, 100):
        poly = regular_polygon(n, 400.0)
        v0 = poly.vertices[0]
        assert abs(v0[0]) < 1e-12
        assert v0[1] > 0
        assert v0[1] == pytest.approx(math.sqrt(800.0 / (n * math.sin(2 * math.pi / n))))


def test_star_polygon_radii():
    star = star_polygon(3, 10.0, 400.0)
    r = np.hypot(star.vertices[:, 0], star.vertices[:, 1])
    assert r[0::2] == pytest.approx(15.396007178390022, rel=1e-13)
    assert r[1::2] == pytest.approx(10.0, rel=1e-13)
    assert star.vertices[0][0] == pytest.approx(0.0, abs=1e-12)
    assert star.vertices[0][1] > 0

    thin = star_polygon(100, 10.0, 400.0)
    r = np.hypot(thin.vertices[:, 0], thin.vertices[:, 1])
    assert r[0::2] == pytest.approx(12.734490083639049, rel=1e-13)


def test_area_conserved_across_both_sweeps():
    for n in range(3, 101):
        for make in (lambda n: regular_polygon(n, 400.0), lambda n: star_polygon(n, 10.0, 400.0)):
            poly = make(n)
            assert abs(poly.area - 400.0) / 400.0 < 1e-12
            # second route: triangle fan
            assert oracles.fan_area(poly.vertices) == pytest.approx(400.0, rel=1e-11)


def test_vertex_count():
    assert regular_polygon(7, 400.0).vertices.shape == (7, 2)
    assert star_polygon(7, 10.0, 400.0).vertices.shape == (14, 2)


def test_ccw_orientation():
    assert shoelace_area(regular_polygon(5, 400.0).vertices) > 0
    assert shoelace_area(star_polygon(5, 10.0, 400.0).vertices) > 0


def test_invalid_parameters_raise():
    with pytest.raises(ParameterError):
        regular_polygon(2, 400.0)
    with pytest.raises(ParameterError):
        regular_polygon(5, -1.0)
    with pytest.raises(ParameterError):
        star_polygon(5, -1.0, 400.0)
    with pytest.raises(ParameterError):
        # area so small the outer radius would fall inside the inner circle
        star_polygon(5, 10.0, 10.0)
    with pytest.raises(ParameterError):
        TumorShape(ShapeFamily.REGULAR_POLYGON, n=2)
    with pytest.raises(ParameterError):
        TumorShape(ShapeFamily.STAR_POLYGON, n=5, base_area=10.0)
    with pytest.raises(ParameterError):
        TissueDims(x_len=0.0)
    with pytest.raises(ParameterError):
        Polygon2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -1.0]]))  # clockwise


def test_point_in_polygon_basics():
    poly = regular_polygon(6, 400.0)
    assert point_in_polygon((0.0, 0.0), poly)
    assert not point_in_polygon((100.0, 0.0), poly)
    # midpoint of the first edge lies on the boundary -> inside by convention
    mid = 0.5 * (poly.vertices[0] + poly.vertices[1])
    assert point_in_polygon(mid, poly)
    # a vertex itself
    assert point_in_polygon(poly.vertices[2], poly)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    star=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_containment_matches_winding_oracle(n, star, seed):
    poly = star_polygon(n, 10.0, 400.0) if star else regular_polygon(n, 400.0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-20.0, 20.0, size=(64, 2))
    for p in pts:
        assert point_in_polygon(p, poly) == oracles.winding_contains(p, poly.vertices)


def test_place_prism_defaults():
    shape = TumorShape(ShapeFamily.REGULAR_POLYGON, n=3)
    spec = place_prism(shape, TissueDims())
    assert spec.center == (60.0, 30.0)
    assert spec.z_lo == pytest.approx(5.0)
    assert spec.z_hi == pytest.approx(13.0)
    (x0, x1), (y0, y1), (z0, z1) = spec.refine_window()
    assert x0 < 60.0 < x1 and y0 < 30.0 < y1
    assert z0 == pytest.approx(0.0) and z1 == pytest.approx(18.0)


def test_place_prism_rejects_oversized():
    wide = TumorShape(ShapeFamily.STAR_POLYGON, n=3, base_area=3000.0)
    with pytest.raises(PlacementError):
        place_prism(wide, TissueDims())
    thick = TumorShape(ShapeFamily.REGULAR_POLYGON, n=3, top_depth=12.0, prism_height=14.0)
    with pytest.raises(PlacementError):
        place_prism(thick, TissueDims())


def test_clip_to_rectangle_halves_a_square():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    clipped = clip_polygon_to_rect(square, 0.0, 1.0, -10.0, 10.0)
    assert abs(shoelace_area(clipped)) == pytest.approx(2.0)
    assert clip_polygon_to_rect(square, 5.0, 6.0, 0.0, 1.0).shape[0] == 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=25),
    star=st.booleans(),
    nx=st.integers(min_value=1, max_value=7),
    ny=st.integers(min_value=1, max_value=7),
)
def test_clipped_areas_partition_exactly(n, star, nx, ny):
    """Summing polygon∩cell areas over a covering grid recovers the full area."""
    poly = star_polygon(n, 10.0, 400.0) if star else regular_polygon(n, 400.0)
    xs = np.linspace(-25.0, 25.0, nx + 1)
    ys = np.linspace(-25.0, 25.0, ny + 1)
    areas = grid_cell_areas(poly, xs, ys)
    assert areas.shape == (nx, ny)
    assert areas.sum() == pytest.approx(poly.area, rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    star=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_cell_areas_match_clipping_oracle(n, star, seed):
    """Each cell's area matches Sutherland-Hodgman clipping on an uneven grid
    whose lines cut the polygon anywhere, vertices included."""
    poly = star_polygon(n, 10.0, 400.0) if star else regular_polygon(n, 400.0)
    rng = np.random.default_rng(seed)
    xs = np.sort(np.concatenate([[-30.0, 30.0], rng.uniform(-20, 20, 6), poly.vertices[:2, 0]]))
    ys = np.sort(np.concatenate([[-30.0, 30.0], rng.uniform(-20, 20, 5), poly.vertices[:2, 1]]))
    got = grid_cell_areas(poly, xs, ys)
    cell = np.outer(np.diff(xs), np.diff(ys))
    assert np.all((got >= 0.0) & (got <= cell))
    want = oracles.column_fractions(poly, xs, ys) * cell
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * poly.area)


def test_cells_off_the_bounding_box_are_exactly_empty():
    poly = star_polygon(9, 10.0, 400.0)
    xmin, ymin, xmax, ymax = poly.bounding_box()
    xs = np.array([xmin - 3.0, xmin, 0.0, xmax, xmax + 1.0])
    ys = np.array([ymin - 1.0, ymin, 0.0, ymax, ymax + 2.0])
    got = grid_cell_areas(poly, xs, ys)
    assert np.all(got[[0, -1], :] == 0.0) and np.all(got[:, [0, -1]] == 0.0)
    assert got[1:-1, 1:-1].sum() == pytest.approx(400.0, rel=1e-12)


def test_polygon_csv_roundtrip(tmp_path):
    poly = star_polygon(9, 10.0, 400.0)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_polygon_csv(poly, f1)
    write_polygon_csv(poly, f2)
    assert f1.read_bytes() == f2.read_bytes()
    rows = f1.read_text().strip().splitlines()
    assert rows[0] == "x_mm,y_mm"
    back = np.array([[float(t) for t in row.split(",")] for row in rows[1:]])
    np.testing.assert_array_equal(back, poly.vertices)
