"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the code
under test: containment via summed winding angles, areas via triangle fans,
the 1-D slab temperature profile in closed form, stiffness matrices summed
block by block through COO matrices, the whole block as an explicit mirror
image of the solved half mesh.
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
        material=np.concatenate([half.material, half.material]),
        faces=np.vstack([faces, image[faces][:, [1, 0, 2]]]),
        face_tags=np.concatenate([tags, tags]),
        tumor_frac=np.concatenate([half.tumor_frac, half.tumor_frac]),
    )
    return whole, image
