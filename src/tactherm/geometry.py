"""Tissue block and parametric tumor base polygons.

Two base-shape families describe increasingly sharp inclusion morphology:
regular n-gons and n-wing stars. Both are generated at a fixed base area so
that the extruded prism volume stays constant while the boundary sharpness
changes with n. All lengths are millimeters, areas mm².
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, PlacementError
from .textio import write_csv


# the local mesh refinement reaches this far (mm) beyond the prism
REFINE_MARGIN_MM = 5.0


class ShapeFamily(str, Enum):
    """Base-polygon family of the prismatic inclusion."""

    REGULAR_POLYGON = "polygon"
    STAR_POLYGON = "star"


@dataclass(frozen=True)
class TissueDims:
    """Cuboid tissue block extents (mm)."""

    x_len: float = 120.0
    y_len: float = 60.0
    z_len: float = 25.0

    def __post_init__(self):
        if not (self.x_len > 0 and self.y_len > 0 and self.z_len > 0):
            raise ParameterError("tissue dimensions must be strictly positive")


@dataclass(frozen=True)
class TumorShape:
    """Parametric description of the prismatic inclusion.

    n counts sides (polygon family) or wings (star family). inner_radius is
    only used by the star family. top_depth is the depth of the prism's top
    face below the block's top surface.
    """

    family: ShapeFamily
    n: int
    base_area: float = 400.0  # mm^2
    inner_radius: float = 10.0  # mm (star family)
    top_depth: float = 12.0  # mm
    prism_height: float = 8.0  # mm

    def __post_init__(self):
        if self.top_depth <= 0 or self.prism_height <= 0:
            raise ParameterError("top_depth and prism_height must be positive")
        self.base_polygon()  # the polygon builders check n, area and radius

    def base_polygon(self) -> "Polygon2D":
        """Construct the base polygon, centered at the origin."""
        if self.family is ShapeFamily.REGULAR_POLYGON:
            return regular_polygon(self.n, self.base_area)
        return star_polygon(self.n, self.inner_radius, self.base_area)


@dataclass(frozen=True)
class Polygon2D:
    """Simple closed polygon, counter-clockwise vertices (mm)."""

    vertices: np.ndarray  # (N, 2)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ParameterError("polygon needs an (N, 2) vertex array with N >= 3")
        object.__setattr__(self, "vertices", v)
        if shoelace_area(v) <= 0:
            raise ParameterError("polygon vertices must be counter-clockwise")

    @property
    def area(self) -> float:
        return shoelace_area(self.vertices)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the vertex set."""
        v = self.vertices
        return (
            float(v[:, 0].min()),
            float(v[:, 1].min()),
            float(v[:, 0].max()),
            float(v[:, 1].max()),
        )


@dataclass(frozen=True)
class GeometrySpec:
    """Placed prism inside the tissue block.

    The base polygon stays centered at the origin; `center` holds the
    footprint center in block coordinates. The prism spans z in
    [z_lo, z_hi], axis vertical.
    """

    dims: TissueDims
    base_polygon: Polygon2D
    center: tuple[float, float]
    z_lo: float
    z_hi: float

    def refine_window(self) -> tuple:
        """Axis-aligned box around the prism, expanded by REFINE_MARGIN_MM."""
        xmin, ymin, xmax, ymax = self.base_polygon.bounding_box()
        cx, cy = self.center
        return (
            (cx + xmin - REFINE_MARGIN_MM, cx + xmax + REFINE_MARGIN_MM),
            (cy + ymin - REFINE_MARGIN_MM, cy + ymax + REFINE_MARGIN_MM),
            (self.z_lo - REFINE_MARGIN_MM, self.z_hi + REFINE_MARGIN_MM),
        )


def shoelace_area(vertices: np.ndarray) -> float:
    """Signed polygon area; positive for counter-clockwise order."""
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def regular_polygon(n: int, area: float) -> Polygon2D:
    """Regular n-gon of the given area, one vertex on the +y axis.

    The circumradius follows from area = n/2 * Rc^2 * sin(2*pi/n).
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if area <= 0:
        raise ParameterError("area must be positive")
    rc = math.sqrt(2.0 * area / (n * math.sin(2.0 * math.pi / n)))
    ang = math.pi / 2.0 + 2.0 * math.pi * np.arange(n) / n
    verts = np.column_stack([rc * np.cos(ang), rc * np.sin(ang)])
    return Polygon2D(verts)


def star_polygon(n: int, inner_radius: float, area: float) -> Polygon2D:
    """n-wing star of the given area: 2n vertices alternating between the
    outer radius and `inner_radius`, one outer vertex on the +y axis.

    The outer radius follows from area = n * Ro * r * sin(pi/n); a wing is
    the pair of edges meeting at an outer vertex.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if inner_radius <= 0:
        raise ParameterError("inner_radius must be positive")
    if area <= 0:
        raise ParameterError("area must be positive")
    ro = area / (n * inner_radius * math.sin(math.pi / n))
    if ro < inner_radius * (1.0 - 1e-12):
        raise ParameterError(
            f"area {area} gives outer radius {ro:.6g} below inner radius {inner_radius}"
        )
    ang_out = math.pi / 2.0 + 2.0 * math.pi * np.arange(n) / n
    ang_in = ang_out + math.pi / n
    verts = np.empty((2 * n, 2))
    verts[0::2, 0] = ro * np.cos(ang_out)
    verts[0::2, 1] = ro * np.sin(ang_out)
    verts[1::2, 0] = inner_radius * np.cos(ang_in)
    verts[1::2, 1] = inner_radius * np.sin(ang_in)
    return Polygon2D(verts)


def place_prism(shape: TumorShape, dims: TissueDims) -> GeometrySpec:
    """Center the prism footprint in the block and fix its z-extent.

    The prism hangs below the top surface: z in
    [z_len - top_depth - prism_height, z_len - top_depth].

    Raises PlacementError when the polygon's bounding box reaches the block
    footprint boundary or the prism does not fit within the thickness.
    """
    poly = shape.base_polygon()
    if shape.top_depth + shape.prism_height >= dims.z_len:
        raise PlacementError(
            f"prism z-extent {shape.top_depth + shape.prism_height} mm does not fit "
            f"inside thickness {dims.z_len} mm"
        )
    cx, cy = dims.x_len / 2.0, dims.y_len / 2.0
    xmin, ymin, xmax, ymax = poly.bounding_box()
    if cx + xmin <= 0 or cx + xmax >= dims.x_len or cy + ymin <= 0 or cy + ymax >= dims.y_len:
        raise PlacementError(
            f"base polygon bounding box [{xmin:.3g}, {xmax:.3g}]x[{ymin:.3g}, {ymax:.3g}] "
            f"around center ({cx}, {cy}) exceeds the block footprint "
            f"{dims.x_len}x{dims.y_len}"
        )
    z_hi = dims.z_len - shape.top_depth
    z_lo = z_hi - shape.prism_height
    return GeometrySpec(dims=dims, base_polygon=poly, center=(cx, cy), z_lo=z_lo, z_hi=z_hi)


def grid_cell_areas(poly: Polygon2D, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Area of poly ∩ [xs[i], xs[i+1]] x [ys[j], ys[j+1]] for every cell of a
    rectilinear grid, as an (len(xs) - 1, len(ys) - 1) array (mm²).

    One table of quadrant areas Q(X, Y) = area(poly ∩ {x <= X, y <= Y}) at
    the grid lines gives every cell by inclusion-exclusion of its corners.
    By Green's theorem Q(X, Y) is the sum over the edges of
    ∫ min(x, X) · 1[y <= Y] dy, and on a straight edge that integral has a
    closed form. Cells off the polygon's bounding box get exactly 0; the
    others are clipped into [0, cell area], which removes the ±1e-15
    roundoff of the inclusion-exclusion.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    v = poly.vertices
    x1, y1 = v[:, 0, None], v[:, 1, None]
    x2, y2 = np.roll(v[:, 0], -1)[:, None], np.roll(v[:, 1], -1)[:, None]
    # each edge's part below y = Y runs from ya = min(y1, Y) to yb = min(y2, Y)
    ya, yb = np.minimum(y1, ys), np.minimum(y2, ys)  # (edges, Y lines)
    dy = y2 - y1
    slope = np.divide(x2 - x1, dy, out=np.zeros_like(dy), where=dy != 0.0)
    xa = (x1 + (ya - y1) * slope)[:, :, None]  # (edges, Y lines, 1)
    xb = (x1 + (yb - y1) * slope)[:, :, None]
    # mean of min(x, X) over the clipped edge: the mean of x less the mean
    # of max(x - X, 0), which is a trapezoid or, where x crosses X, a triangle
    pa, pb = xa - xs, xb - xs  # (edges, Y lines, X lines)
    cross = (pa > 0.0) != (pb > 0.0)
    excess = np.where(
        cross,
        (np.maximum(pa, 0.0) ** 2 + np.maximum(pb, 0.0) ** 2)
        / (2.0 * np.where(cross, np.abs(pb - pa), 1.0)),
        np.maximum(0.5 * (pa + pb), 0.0),
    )
    quad = np.einsum("ej,eji->ij", yb - ya, 0.5 * (xa + xb) - excess)  # Q(X, Y)
    area = quad[1:, 1:] - quad[:-1, 1:] - quad[1:, :-1] + quad[:-1, :-1]

    xmin, ymin, xmax, ymax = poly.bounding_box()
    off_x = (xs[1:] <= xmin) | (xs[:-1] >= xmax)
    off_y = (ys[1:] <= ymin) | (ys[:-1] >= ymax)
    cell = np.outer(np.diff(xs), np.diff(ys))
    area = np.clip(area, 0.0, cell)
    area[off_x[:, None] | off_y[None, :]] = 0.0
    return area


def write_polygon_csv(poly: Polygon2D, path) -> None:
    """Write the vertex list as CSV (x_mm, y_mm)."""
    write_csv(path, ["x_mm", "y_mm"], poly.vertices)
