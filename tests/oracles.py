"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the code
under test: containment via summed winding angles or a per-point crossing
test with a boundary tolerance, areas via triangle fans, polygon-rectangle
overlaps by Sutherland-Hodgman clipping, the Fourier fit by an SVD least
squares per w and golden-section search, the 1-D slab temperature profile in
closed form, stiffness matrices summed block by block through COO matrices,
the whole block as an explicit mirror image of the solved half mesh.
"""

import math

import numpy as np
import scipy.sparse as sp


def winding_contains(point, vertices) -> bool:
    """Containment by total subtended angle (~2*pi inside, ~0 outside)."""
    d = np.asarray(vertices, dtype=float) - np.asarray(point, dtype=float)
    ang = np.arctan2(d[:, 1], d[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    return abs(float(dang.sum())) > np.pi


def fan_area(vertices) -> float:
    """Polygon area via a triangle fan from the vertex mean."""
    v = np.asarray(vertices, dtype=float)
    c = v.mean(axis=0)
    total = 0.0
    for i in range(len(v)):
        a = v[i] - c
        b = v[(i + 1) % len(v)] - c
        total += 0.5 * (a[0] * b[1] - a[1] * b[0])
    return abs(total)


# Points within this distance (mm) of an edge count as on the boundary.
BOUNDARY_TOL = 1e-12


def point_in_polygon(p, poly) -> bool:
    """Even-odd containment test; boundary points count as inside.

    A point within BOUNDARY_TOL of an edge is classified as boundary. For
    strictly interior/exterior points this is the standard crossing-number
    rule with half-open edges.
    """
    px, py = float(p[0]), float(p[1])
    v = poly.vertices
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)

    # Boundary check: distance from p to each edge segment.
    ex, ey = x2 - x1, y2 - y1
    seg2 = ex * ex + ey * ey
    t = np.clip(((px - x1) * ex + (py - y1) * ey) / seg2, 0.0, 1.0)
    dx, dy = px - (x1 + t * ex), py - (y1 + t * ey)
    if np.min(dx * dx + dy * dy) <= BOUNDARY_TOL**2:
        return True

    crossing = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_hit = x1 + (py - y1) * ex / ey
    inside = np.count_nonzero(crossing & (px < x_hit)) % 2 == 1
    return bool(inside)


def clip_polygon_to_rect(vertices, x0, x1, y0, y1) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against an axis-aligned rectangle.

    Returns the clipped vertex array (possibly empty). The subject polygon may
    be non-convex; the output is suitable for area computation.
    """
    poly = [(float(x), float(y)) for x, y in vertices]

    def clip_half(pts, inside, intersect):
        out = []
        if not pts:
            return out
        prev = pts[-1]
        prev_in = inside(prev)
        for cur in pts:
            cur_in = inside(cur)
            if cur_in:
                if not prev_in:
                    out.append(intersect(prev, cur))
                out.append(cur)
            elif prev_in:
                out.append(intersect(prev, cur))
            prev, prev_in = cur, cur_in
        return out

    def x_cut(level):
        def intersect(a, b):
            t = (level - a[0]) / (b[0] - a[0])
            return (level, a[1] + t * (b[1] - a[1]))

        return intersect

    def y_cut(level):
        def intersect(a, b):
            t = (level - a[1]) / (b[1] - a[1])
            return (a[0] + t * (b[0] - a[0]), level)

        return intersect

    poly = clip_half(poly, lambda p: p[0] >= x0, x_cut(x0))
    poly = clip_half(poly, lambda p: p[0] <= x1, x_cut(x1))
    poly = clip_half(poly, lambda p: p[1] >= y0, y_cut(y0))
    poly = clip_half(poly, lambda p: p[1] <= y1, y_cut(y1))
    if len(poly) < 3:
        return np.empty((0, 2))
    return np.array(poly)


def clipped_area(poly, x0, x1, y0, y1) -> float:
    """Area of polygon ∩ rectangle (mm²), by clipping and a triangle fan."""
    clipped = clip_polygon_to_rect(poly.vertices, x0, x1, y0, y1)
    if clipped.shape[0] < 3:
        return 0.0
    return fan_area(clipped)


def column_fractions(poly, xs, ys) -> np.ndarray:
    """clipped_area of every grid cell over the cell's area, (nx, ny). Cells
    off the polygon's vertex range are skipped; their clip is empty."""
    v = poly.vertices
    out = np.zeros((len(xs) - 1, len(ys) - 1))
    for i in range(len(xs) - 1):
        if xs[i + 1] < v[:, 0].min() or xs[i] > v[:, 0].max():
            continue
        for j in range(len(ys) - 1):
            if ys[j + 1] < v[:, 1].min() or ys[j] > v[:, 1].max():
                continue
            cell = (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
            out[i, j] = clipped_area(poly, xs[i], xs[i + 1], ys[j], ys[j + 1]) / cell
    return out


def prism_labels(mesh, geom):
    """Per-tet tumor fraction of a structured mesh: each hex's fraction from
    clipping its column and overlapping its z-interval, repeated for its
    six tets."""
    xs, ys, zs = (np.unique(mesh.nodes[:, k]) for k in range(3))
    col = column_fractions(geom.base_polygon, xs - geom.center[0], ys - geom.center[1])
    z_over = np.clip(np.minimum(zs[1:], geom.z_hi) - np.maximum(zs[:-1], geom.z_lo), 0.0, None)
    cell = col[:, :, None] * (z_over / np.diff(zs))[None, None, :]
    return np.repeat(cell.ravel(), 6)


def slab_temperature(z, *, length, k, h, q, t_bottom, t_ambient):
    """Steady 1-D conduction through a slab with uniform volumetric source.

    Bottom face (z=0) held at t_bottom; top face (z=length) cooled by
    convection with coefficient h into t_ambient; q generated everywhere.
    Solves k*T'' + q = 0 directly:

        T(z) = t_bottom + a*z - q/(2k) * z^2
        a = [q*length + h*q*length^2/(2k) + h*(t_ambient - t_bottom)] / (k + h*length)

    SI units throughout (z and length in meters).
    """
    a = (q * length + h * q * length**2 / (2.0 * k) + h * (t_ambient - t_bottom)) / (
        k + h * length
    )
    z = np.asarray(z, dtype=float)
    return t_bottom + a * z - q / (2.0 * k) * z**2


def fourier4_eval(u, coeffs):
    """Evaluate a0 + sum_i a_i cos(i w u) + b_i sin(i w u) from a dict."""
    u = np.asarray(u, dtype=float)
    w = coeffs["w"]
    out = np.full_like(u, coeffs["a0"])
    for i in range(1, 5):
        out += coeffs[f"a{i}"] * np.cos(i * w * u)
        out += coeffs[f"b{i}"] * np.sin(i * w * u)
    return out


def _fourier4_design(u, w):
    cols = [np.ones_like(u)]
    for i in range(1, 5):
        cols.append(np.cos(i * w * u))
        cols.append(np.sin(i * w * u))
    return np.column_stack(cols)


def _projected_sse(u, t, w) -> float:
    A = _fourier4_design(u, w)
    _, res, rank, _ = np.linalg.lstsq(A, t)
    if rank < A.shape[1] or res.size == 0:
        r = t - A @ np.linalg.lstsq(A, t)[0]
        return float(r @ r)
    return float(res[0])


def fit_fourier4_golden(profile):
    """The Fourier fit by a per-w SVD least squares: w is scanned on 241
    points over [0.5, 1.5] * 2*pi/span, and the best point's two grid cells
    are searched by golden section on the SSE itself. Golden section cannot
    place the minimum of a flat SSE closer than about sqrt(eps), so w is set
    only to about 1e-8 relative."""
    from tactherm.signature import FourierSignature

    t = profile.temps
    t_range = float(t.max() - t.min())
    mid = 0.5 * (profile.positions[0] + profile.positions[-1])
    u = profile.positions - mid

    w_base = 2.0 * math.pi / profile.span
    grid = np.linspace(0.5 * w_base, 1.5 * w_base, 241)
    sse = np.array([_projected_sse(u, t, w) for w in grid])
    tc = t - t.mean()
    tol = sse.min() + 1e-12 * float(tc @ tc)
    best = int(np.flatnonzero(sse <= tol)[-1])
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _projected_sse(u, t, c), _projected_sse(u, t, d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _projected_sse(u, t, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _projected_sse(u, t, d)
        if b - a < 1e-12 * w_base:
            break
    w = 0.5 * (a + b)

    A = _fourier4_design(u, w)
    coef, *_ = np.linalg.lstsq(A, t)
    resid = t - A @ coef
    rmse = math.sqrt(float(resid @ resid) / t.size)
    return FourierSignature(
        a0=float(coef[0]),
        a=tuple(float(c) for c in coef[1::2]),
        b=tuple(float(c) for c in coef[2::2]),
        w=float(w),
        fit_rmse_rel=rmse / t_range,
    )


def quartiles_linear(values):
    """Median and quartiles with linear interpolation (independent of numpy)."""
    xs = sorted(float(v) for v in values)
    n = len(xs)

    def at(p):
        pos = p * (n - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    return at(0.25), at(0.5), at(0.75)


def _tet_gradients(nodes, tets):
    """Shape-function gradients (M, 3, 4) and volumes from the inverted
    Jacobian (np.linalg), not from cofactors."""
    p = nodes[tets]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]], axis=1)
    inv = np.linalg.inv(jac)
    grads = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)
    return grads, np.linalg.det(jac) / 6.0


def elastic_stiffness(mesh, params):
    """Full elastic stiffness (3 DOFs per node, mm units) summed from 3x3
    blocks one node pair at a time through a COO matrix."""
    grads, vol = _tet_gradients(mesh.nodes, mesh.tets)
    e_mod = params.e_tissue * (1.0 + (params.tumor_stiffness_factor - 1.0) * mesh.tumor_frac)
    nu = params.poisson
    lam = e_mod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = e_mod / (2.0 * (1.0 + nu))
    rows, cols, vals = [], [], []
    for a in range(4):
        ga = grads[:, :, a]
        for b in range(4):
            gb = grads[:, :, b]
            blk = (
                lam[:, None, None] * ga[:, :, None] * gb[:, None, :]
                + mu[:, None, None] * gb[:, :, None] * ga[:, None, :]
                + (mu * np.einsum("ei,ei->e", ga, gb))[:, None, None] * np.eye(3)
            ) * vol[:, None, None]
            for i in range(3):
                for j in range(3):
                    rows.append(3 * mesh.tets[:, a] + i)
                    cols.append(3 * mesh.tets[:, b] + j)
                    vals.append(blk[:, i, j])
    n = 3 * mesh.n_nodes
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return coo.tocsr()


def thermal_stiffness(mesh, params):
    """Full conduction plus Robin matrix (SI units) through a COO matrix."""
    grads, vol = _tet_gradients(mesh.nodes * 1e-3, mesh.tets)
    k = params.k_tissue + (params.k_tumor - params.k_tissue) * mesh.tumor_frac
    rows, cols, vals = [], [], []
    for a in range(4):
        for b in range(4):
            rows.append(mesh.tets[:, a])
            cols.append(mesh.tets[:, b])
            vals.append(k * vol * np.einsum("ei,ei->e", grads[:, :, a], grads[:, :, b]))
    top = mesh.faces[mesh.face_tags == 1]  # FaceTag.TOP
    q = mesh.nodes[top] * 1e-3
    area = 0.5 * np.linalg.norm(np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]), axis=1)
    for a in range(3):
        for b in range(3):
            rows.append(top[:, a])
            cols.append(top[:, b])
            vals.append(params.h_top * area * (2.0 if a == b else 1.0) / 12.0)
    n = mesh.n_nodes
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return coo.tocsr()


def mirror_mesh(half):
    """The whole-block mesh of a half mesh with a SYMMETRY plane x = c.

    Every node off the plane gets an image at x -> 2c - x; each tet gets a
    mirrored copy with two vertices swapped, so its volume stays positive;
    the tagged faces are mirrored likewise and the plane faces dropped, so
    the whole block has no SYMMETRY faces. Returns the mesh and `image`, the
    whole-mesh index of each half node's mirror image (plane nodes map to
    themselves).
    """
    from tactherm.mesh import FaceTag, TetMesh

    plane = half.face_tags == FaceTag.SYMMETRY
    on_plane = np.zeros(half.n_nodes, dtype=bool)
    on_plane[half.faces[plane].ravel()] = True
    c = half.nodes[on_plane, 0][0]
    image = np.arange(half.n_nodes)
    image[~on_plane] = half.n_nodes + np.arange(int((~on_plane).sum()))
    reflected = half.nodes[~on_plane] * np.array([-1.0, 1.0, 1.0]) + np.array([2.0 * c, 0.0, 0.0])
    faces = half.faces[~plane]
    tags = half.face_tags[~plane]
    whole = TetMesh(
        nodes=np.vstack([half.nodes, reflected]),
        tets=np.vstack([half.tets, image[half.tets][:, [1, 0, 2, 3]]]),
        faces=np.vstack([faces, image[faces][:, [1, 0, 2]]]),
        face_tags=np.concatenate([tags, tags]),
        tumor_frac=np.concatenate([half.tumor_frac, half.tumor_frac]),
    )
    return whole, image
