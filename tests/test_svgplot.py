import re

import pytest

from tactherm.svgplot import PALETTE, box_chart, heatmap, line_chart


def simple_chart():
    return line_chart(
        [("alpha", [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]),
         ("beta", [0.0, 1.0, 2.0], [2.0, 1.5, 2.5])],
        title="demo", x_label="x", y_label="y", markers=True,
    )


def test_line_chart_is_wellformed_and_deterministic():
    svg = simple_chart()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "alpha" in svg and "beta" in svg
    assert svg == simple_chart()


def test_line_chart_uses_distinct_palette_colors():
    svg = simple_chart()
    assert PALETTE[0] in svg and PALETTE[1] in svg


def test_coordinates_are_quantized():
    # every numeric attribute should carry at most two decimals, so the
    # output cannot wobble with the platform's float printing
    svg = simple_chart()
    for num in re.findall(r'="(-?\d+\.\d+)"', svg):
        assert len(num.split(".")[1]) <= 2, num


def test_no_negative_zero_artifacts():
    svg = line_chart(
        [("s", [-1.0, 0.0, 1.0], [-1e-9, 0.0, 1e-9])],
        title="t", x_label="x", y_label="y",
    )
    assert "-0.00" not in svg


def test_line_chart_rejects_empty_input():
    with pytest.raises(ValueError):
        line_chart([], title="t", x_label="x", y_label="y")


def test_heatmap_draws_grid_and_colorbar():
    svg = heatmap(
        [0.0, 1.0, 2.0], [0.0, 1.0],
        [[0.0, 1.0]],
        title="field", x_label="x", y_label="y", value_label="T",
    )
    # 2 cells + 24 colorbar steps, extremes mapped to the map's endpoints
    assert svg.count("<rect") >= 26
    assert "#2850c8" in svg  # cold end
    assert "#ff4128" in svg  # hot end


def test_heatmap_constant_field_does_not_divide_by_zero():
    svg = heatmap(
        [0.0, 1.0], [0.0, 1.0], [[5.0]],
        title="flat", x_label="x", y_label="y", value_label="T",
    )
    assert "5.00" in svg


def test_box_chart_renders_all_boxes_with_labels():
    svg = box_chart(
        [("a1", (0.0, 1.0, 2.0, 3.0, 4.0)), ("b2", (1.0, 1.5, 2.0, 2.5, 3.0))],
        title="spread", x_label="coefficient", y_label="value",
    )
    assert ">a1<" in svg and ">b2<" in svg
    assert svg.count("fill-opacity") == 2


def test_box_chart_rejects_empty_input():
    with pytest.raises(ValueError):
        box_chart([], title="t", x_label="x", y_label="y")
