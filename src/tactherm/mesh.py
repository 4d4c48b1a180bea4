"""Structured tetrahedral meshing of the x <= c half of the tissue block.

Every shape of the study, the block and the centerline are mirror-symmetric
about the plane x = c, the block's mid x. Only the half x <= c is meshed; its
faces on x = c carry FaceTag.SYMMETRY, and the solvers impose the mirror
conditions there. The whole block is this mesh and its mirror image, so the
whole-block mesh is symmetric by construction.

A graded tensor-product hex grid (finer inside a box around the inclusion) is
split into 6 tets per hex with a fixed diagonal pattern, so meshes are fully
deterministic. The inclusion is immersed: each element carries the exact
volume fraction it shares with the prism (the polygon's area in its grid
column times the interval overlap in z), which sums to the exact volume of the
prism's half. That fraction is the only way the mesh describes the tumor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import ParameterError
from .geometry import GeometrySpec, grid_cell_areas
from .textio import atomic_write_text, fmt


class FaceTag(IntEnum):
    BOTTOM = 0
    TOP = 1
    SIDE_X0 = 2
    SYMMETRY = 3  # the mirror plane x = c
    SIDE_Y0 = 4
    SIDE_Y1 = 5


# 6-tet split of a hex with corner order
#   0:(x0,y0,z0) 1:(x1,y0,z0) 2:(x1,y1,z0) 3:(x0,y1,z0)
#   4:(x0,y0,z1) 5:(x1,y0,z1) 6:(x1,y1,z1) 7:(x0,y1,z1)
# All six share the 0-6 diagonal; every quad face of the hex is cut along the
# same diagonal direction, so neighboring hexes tile compatibly.
HEX_TO_TETS = np.array(
    [
        [0, 1, 2, 6],
        [0, 2, 3, 6],
        [0, 3, 7, 6],
        [0, 7, 4, 6],
        [0, 4, 5, 6],
        [0, 5, 1, 6],
    ]
)

# Boundary triangles of the split, per hex face (local corner indices).
BOUNDARY_TRIS = {
    FaceTag.BOTTOM: [(0, 1, 2), (0, 2, 3)],
    FaceTag.TOP: [(4, 5, 6), (4, 6, 7)],
    FaceTag.SIDE_X0: [(0, 3, 7), (0, 7, 4)],
    FaceTag.SYMMETRY: [(1, 2, 6), (5, 1, 6)],
    FaceTag.SIDE_Y0: [(0, 4, 5), (0, 5, 1)],
    FaceTag.SIDE_Y1: [(2, 3, 6), (3, 7, 6)],
}


@dataclass(frozen=True)
class RefinementSpec:
    """Grid resolution: base subdivisions per axis plus a local multiplier
    applied to every interval overlapping the refinement box."""

    nx: int
    ny: int
    nz: int
    local_factor: int = 1
    refine_box: tuple | None = None  # ((x0,x1),(y0,y1),(z0,z1)) override

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1 or self.local_factor < 1:
            raise ParameterError("subdivision counts and local_factor must be >= 1")


@dataclass(frozen=True)
class TetMesh:
    """Tetrahedral mesh with an immersed prism.

    nodes in mm. tumor_frac holds the exact per-element volume fraction
    occupied by the prism (every tet of a hex carries its hex's fraction; tet
    volumes within a hex are equal, so fraction-weighted volume is exact).
    """

    nodes: np.ndarray  # (N, 3) float
    tets: np.ndarray  # (M, 4) int
    faces: np.ndarray  # (F, 3) int
    face_tags: np.ndarray  # (F,) uint8
    tumor_frac: np.ndarray  # (M,) float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    def tet_volumes(self) -> np.ndarray:
        """Signed volumes (mm^3); all positive for a valid mesh."""
        p = self.nodes[self.tets]
        a = p[:, 1] - p[:, 0]
        b = p[:, 2] - p[:, 0]
        c = p[:, 3] - p[:, 0]
        return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0

    def with_nodes(self, nodes: np.ndarray) -> "TetMesh":
        return replace(self, nodes=np.asarray(nodes, dtype=float))

    def boundary_nodes(self, tag: FaceTag) -> np.ndarray:
        """Sorted unique node indices on the faces carrying `tag`."""
        return np.unique(self.faces[self.face_tags == tag])

    @property
    def symmetry_x(self) -> float | None:
        """x of the SYMMETRY plane, or None for a mesh of the whole block.

        The solvers keep the plane nodes on the plane, so a deformed mesh
        reports the same x."""
        plane = self.boundary_nodes(FaceTag.SYMMETRY)
        return float(self.nodes[plane[0], 0]) if plane.size else None

    def block_counts(self) -> tuple[int, int]:
        """(tets, nodes) of the whole block: a mesh with a SYMMETRY plane
        stands for itself and its mirror image, which share the plane nodes."""
        plane = self.boundary_nodes(FaceTag.SYMMETRY).size
        if plane == 0:
            return self.n_tets, self.n_nodes
        return 2 * self.n_tets, 2 * self.n_nodes - plane


def graded_axis(length: float, n: int, window: tuple | None, factor: int) -> np.ndarray:
    """1-D grid over [0, length]: n uniform intervals, each interval that
    overlaps `window` subdivided `factor` times."""
    edges = np.linspace(0.0, length, n + 1)
    if window is None or factor == 1:
        return edges
    lo, hi = window
    coords = [0.0]
    for a, b in zip(edges[:-1], edges[1:]):
        if b > lo and a < hi:
            coords.extend(np.linspace(a, b, factor + 1)[1:])
        else:
            coords.append(b)
    return np.array(coords)


def half_axis(edges: np.ndarray, c: float) -> np.ndarray:
    """The planes of `edges` that lie below c, ending on c itself.

    A plane within roundoff of c is taken as c. When c falls inside a cell,
    c replaces the plane just below it rather than being added, which would
    add a cell across the block; only a first cell keeps its x = 0 plane.
    """
    tol = 1e-9 * float(edges[-1])
    below = edges[edges < c - tol]
    if not np.any(np.abs(edges - c) <= tol) and below.size > 1:
        below = below[:-1]
    return np.append(below, c)


def build_mesh(geom: GeometrySpec, ref: RefinementSpec) -> TetMesh:
    """Mesh the x <= c half of the block with the prism immersed in it.

    c is the prism's center x, the block's mid x. The x axis is the graded
    axis of the whole block cut at c (see half_axis); the faces on x = c
    are tagged SYMMETRY. tumor_frac: exact hex ∩ prism volume fraction.
    """
    dims = geom.dims
    window = ref.refine_box if ref.refine_box is not None else geom.refine_window()
    xs = half_axis(graded_axis(dims.x_len, ref.nx, window[0], ref.local_factor), geom.center[0])
    ys = graded_axis(dims.y_len, ref.ny, window[1], ref.local_factor)
    zs = graded_axis(dims.z_len, ref.nz, window[2], ref.local_factor)
    nnx, nny, nnz = len(xs), len(ys), len(zs)
    ncx, ncy, ncz = nnx - 1, nny - 1, nnz - 1
    if min(ncx, ncy, ncz) < 1:
        raise ParameterError("refinement produced an empty grid")

    xg, yg, zg = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])

    def nid(i, j, k):
        return (i * nny + j) * nnz + k

    ii, jj, kk = np.meshgrid(
        np.arange(ncx), np.arange(ncy), np.arange(ncz), indexing="ij"
    )
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    corners = np.stack(
        [
            nid(ii, jj, kk),
            nid(ii + 1, jj, kk),
            nid(ii + 1, jj + 1, kk),
            nid(ii, jj + 1, kk),
            nid(ii, jj, kk + 1),
            nid(ii + 1, jj, kk + 1),
            nid(ii + 1, jj + 1, kk + 1),
            nid(ii, jj + 1, kk + 1),
        ],
        axis=1,
    )  # (ncells, 8)
    # cell-major: the 6 tets of a hex are consecutive
    tets = corners[:, HEX_TO_TETS].reshape(-1, 4).astype(np.int32)

    # exact per-hex fractions: in-plane clipped area times z-interval overlap
    xr, yr = xs - geom.center[0], ys - geom.center[1]
    col_frac = grid_cell_areas(geom.base_polygon, xr, yr) / np.outer(np.diff(xr), np.diff(yr))
    z_over = np.maximum(
        0.0, np.minimum(zs[1:], geom.z_hi) - np.maximum(zs[:-1], geom.z_lo)
    ) / np.diff(zs)
    cell_frac = col_frac[ii, jj] * z_over[kk]
    tumor_frac = np.repeat(cell_frac, 6)

    faces, tags = _boundary_faces(corners, ii, jj, kk, ncx, ncy, ncz)
    return TetMesh(
        nodes=nodes,
        tets=tets,
        faces=faces,
        face_tags=tags,
        tumor_frac=tumor_frac,
    )


def _boundary_faces(corners, ii, jj, kk, ncx, ncy, ncz):
    sel = {
        FaceTag.BOTTOM: kk == 0,
        FaceTag.TOP: kk == ncz - 1,
        FaceTag.SIDE_X0: ii == 0,
        FaceTag.SYMMETRY: ii == ncx - 1,
        FaceTag.SIDE_Y0: jj == 0,
        FaceTag.SIDE_Y1: jj == ncy - 1,
    }
    all_faces = []
    all_tags = []
    for tag, mask in sel.items():
        cells = corners[mask]
        for tri in BOUNDARY_TRIS[tag]:
            all_faces.append(cells[:, tri])
            all_tags.append(np.full(cells.shape[0], tag, dtype=np.uint8))
    return np.vstack(all_faces).astype(np.int32), np.concatenate(all_tags)


@dataclass(frozen=True)
class QualityReport:
    min_dihedral_deg: float
    max_aspect: float


def mesh_quality(mesh: TetMesh) -> QualityReport:
    """Smallest dihedral angle and largest aspect ratio of the tets."""
    vols = mesh.tet_volumes()
    p = mesh.nodes[mesh.tets]

    # outward face normals: face f is opposite vertex f
    opp = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]
    normals = np.empty((mesh.n_tets, 4, 3))
    areas = np.empty((mesh.n_tets, 4))
    for f, (a, b, c) in enumerate(opp):
        nrm = np.cross(p[:, b] - p[:, a], p[:, c] - p[:, a])
        mag = np.linalg.norm(nrm, axis=1)
        normals[:, f] = nrm / mag[:, None]
        areas[:, f] = 0.5 * mag
    # dihedral along the edge shared by faces (f, g): pi - angle(n_f, n_g)
    dihedrals = []
    for f in range(4):
        for g in range(f + 1, 4):
            cosang = np.clip(np.einsum("ij,ij->i", normals[:, f], normals[:, g]), -1, 1)
            dihedrals.append(np.pi - np.arccos(cosang))
    dihedrals = np.degrees(np.stack(dihedrals))

    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    elen = np.stack([np.linalg.norm(p[:, a] - p[:, b], axis=1) for a, b in edges])
    longest = elen.max(axis=0)
    r_in = 3.0 * vols / areas.sum(axis=1)
    aspect = longest / (2.0 * np.sqrt(6.0) * r_in)
    return QualityReport(
        min_dihedral_deg=float(dihedrals.min()),
        max_aspect=float(aspect.max()),
    )


def write_mesh_text(mesh: TetMesh, path) -> None:
    """Plain-text dump: node, tet (with tumor_frac), and tagged face tables."""
    out = [f"nodes {mesh.n_nodes}"]
    for idx, (x, y, z) in enumerate(mesh.nodes):
        out.append(f"{idx} {fmt(x)} {fmt(y)} {fmt(z)}")
    out.append(f"tets {mesh.n_tets}")
    for idx, (t, frac) in enumerate(zip(mesh.tets, mesh.tumor_frac)):
        out.append(f"{idx} {t[0]} {t[1]} {t[2]} {t[3]} {fmt(frac)}")
    out.append(f"faces {mesh.faces.shape[0]}")
    for f, tag in zip(mesh.faces, mesh.face_tags):
        out.append(f"{f[0]} {f[1]} {f[2]} {FaceTag(tag).name}")
    atomic_write_text(path, "\n".join(out) + "\n")
