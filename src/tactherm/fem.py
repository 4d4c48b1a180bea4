"""Steady-state heat conduction and linear-elastic compression on tet meshes.

Galerkin linear tetrahedra throughout. The thermal problem is
∇·(k∇T) + q = 0 with a fixed bottom temperature, convective (Robin) top
surface, and insulated sides; the mechanical problem is small-strain isotropic
elasticity with the bottom fully fixed and a vertical compression imposed on
the top. Coupling is one-way: solve elasticity, move the nodes, then solve
heat on the deformed mesh.

Material properties blend tissue and tumor values by the exact per-element
tumor volume fraction, which keeps the injected power exact and makes results
vary smoothly with the shape parameter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import (
    DeformationError,
    ParameterError,
    SingularSystemError,
    SolverError,
)
from .mesh import FaceTag, TetMesh

MM = 1e-3  # mesh lengths are mm; assembly is SI


@dataclass(frozen=True)
class ThermalParams:
    k_tissue: float = 0.6  # W/(m K)
    k_tumor: float = 0.6  # W/(m K)
    q_tumor: float = 1.0e5  # W/m^3
    h_top: float = 20.0  # W/(m^2 K)
    t_ambient: float = 24.0  # deg C (free parameter, see config)
    t_bottom: float = 33.1  # deg C

    def __post_init__(self):
        if self.k_tissue <= 0 or self.k_tumor <= 0:
            raise ParameterError("conductivities must be positive")
        if self.h_top < 0:
            raise ParameterError("h_top must be >= 0")


@dataclass(frozen=True)
class ElasticParams:
    e_tissue: float = 9210.87  # Pa
    poisson: float = 0.458344
    tumor_stiffness_factor: float = 10.0
    applied_strain: float = 0.06  # compressive, of z_len

    def __post_init__(self):
        if self.e_tissue <= 0:
            raise ParameterError("e_tissue must be positive")
        if not 0.0 <= self.poisson < 0.5:
            raise ParameterError("poisson must lie in [0, 0.5)")
        if not 0.0 <= self.applied_strain <= 0.2:
            raise ParameterError("applied_strain must lie in [0, 0.2]")


@dataclass(frozen=True)
class ScalarField:
    """Nodal temperatures (deg C) on a mesh."""

    mesh: TetMesh
    values: np.ndarray  # (N,)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n_nodes,):
            raise ParameterError("field length must equal node count")
        if not np.all(np.isfinite(v)):
            raise ParameterError("field contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class VectorField:
    """Nodal displacements (mm) on a mesh."""

    mesh: TetMesh
    values: np.ndarray  # (N, 3)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n_nodes, 3):
            raise ParameterError("field shape must be (n_nodes, 3)")
        if not np.all(np.isfinite(v)):
            raise ParameterError("field contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    final_residual: float  # relative to ||rhs||
    wall_time: float  # seconds


def _gradients(nodes_m: np.ndarray, tets: np.ndarray):
    """Per-tet shape-function gradients (M,3,4) and volumes (M,), SI."""
    p = nodes_m[tets]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]], axis=1)
    vol = np.linalg.det(jac) / 6.0
    inv = np.linalg.inv(jac)  # columns are grad(lambda_1..3)
    grads = np.empty((tets.shape[0], 3, 4))
    grads[:, :, 1:] = inv
    grads[:, :, 0] = -inv.sum(axis=2)
    return grads, vol


def _assemble_thermal(mesh: TetMesh, p: ThermalParams):
    """Full stiffness (volume + Robin) and load vector, no Dirichlet yet."""
    n = mesh.n_nodes
    grads, vol = _gradients(mesh.nodes * MM, mesh.tets)
    mix = mesh.tumor_frac
    k_e = p.k_tissue + (p.k_tumor - p.k_tissue) * mix
    local = np.einsum("e,eia,eib->eab", k_e * vol, grads, grads)
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))

    f = np.zeros(n)
    q_e = p.q_tumor * mix
    np.add.at(f, mesh.tets.ravel(), np.repeat(q_e * vol / 4.0, 4))

    top = mesh.faces[mesh.face_tags == FaceTag.TOP]
    if p.h_top > 0 and top.shape[0]:
        q = mesh.nodes[top] * MM
        area = 0.5 * np.linalg.norm(
            np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]), axis=1
        )
        face_m = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
        vals = p.h_top * area[:, None, None] * face_m[None, :, :]
        r_rows = np.repeat(top, 3, axis=1).ravel()
        r_cols = np.tile(top, (1, 3)).ravel()
        K = K + sp.coo_matrix((vals.ravel(), (r_rows, r_cols)), shape=(n, n))
        np.add.at(
            f, top.ravel(), np.repeat(p.h_top * p.t_ambient * area / 3.0, 3)
        )
    return K.tocsr(), f


def _solve_banded_cholesky(K_ff, rhs) -> np.ndarray:
    """Direct SPD solve: RCM ordering, then LAPACK banded Cholesky.

    Structured tet meshes have a narrow band once nodes are renumbered by
    reverse Cuthill-McKee, so the dense band factor beats a general sparse LU.
    Only the upper triangle of K_ff is read.
    """
    K_ff = K_ff.tocsr()
    n = K_ff.shape[0]
    perm = reverse_cuthill_mckee(K_ff, symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[perm] = np.arange(n)
    coo = K_ff.tocoo()
    coo.sum_duplicates()
    i, j = rank[coo.row], rank[coo.col]
    upper = i <= j
    i, j, vals = i[upper], j[upper], coo.data[upper]
    band = int((j - i).max(initial=0))
    # Fortran order: LAPACK factors the band in place instead of copying it
    ab = np.zeros((band + 1, n), order="F")
    ab[band + i - j, j] = vals
    try:
        factor = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except LinAlgError as exc:
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc
    x_perm = cho_solve_banded((factor, False), rhs[perm], check_finite=False)
    x = np.empty_like(x_perm)
    x[perm] = x_perm
    return x


def _solve_spd(K_ff, rhs, *, method: str, tol: float, x0=None, max_iter=None):
    """Solve an SPD reduced system; returns (x, iterations, rel_residual)."""
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    if method == "direct":
        x = _solve_banded_cholesky(K_ff, rhs)
        res = float(np.linalg.norm(K_ff @ x - rhs)) / bnorm
        return x, 0, res
    if method != "pcg":
        raise ParameterError(f"unknown solver method {method!r}")

    diag = K_ff.diagonal()
    if np.any(diag <= 0):
        raise SingularSystemError("non-positive diagonal in SPD system")
    inv_diag = 1.0 / diag
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - K_ff @ x
    z = inv_diag * r
    p_vec = z.copy()
    rz = float(r @ z)
    cap = int(50 * np.sqrt(K_ff.shape[0])) + 1 if max_iter is None else max_iter
    for it in range(cap):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return x, it, rnorm / bnorm
        Ap = K_ff @ p_vec
        alpha = rz / float(p_vec @ Ap)
        x += alpha * p_vec
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(r @ z)
        p_vec = z + (rz_new / rz) * p_vec
        rz = rz_new
    raise SolverError(
        f"PCG did not reach tol {tol} within {cap} iterations",
        stats=SolveStats(cap, float(np.linalg.norm(r)) / bnorm, 0.0),
    )


def solve_heat(
    mesh: TetMesh,
    params: ThermalParams,
    *,
    method: str = "pcg",
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> tuple[ScalarField, SolveStats]:
    """Temperature field for the mixed-boundary conduction problem.

    Dirichlet t_bottom on the bottom face, Robin (h_top, t_ambient) on the
    top, natural (insulated) sides. Raises SingularSystemError when no
    boundary condition pins the solution.
    """
    t0 = time.perf_counter()
    bottom = mesh.boundary_nodes(FaceTag.BOTTOM)
    if bottom.size == 0 and params.h_top == 0.0:
        raise SingularSystemError("no Dirichlet nodes and h_top = 0: T only fixed up to a constant")
    K, f = _assemble_thermal(mesh, params)

    fixed = np.zeros(mesh.n_nodes, dtype=bool)
    fixed[bottom] = True
    free = ~fixed
    t_fix = np.full(bottom.size, params.t_bottom)
    rhs = f[free] - K[free][:, fixed] @ t_fix
    x, iters, res = _solve_spd(
        K[free][:, free], rhs, method=method, tol=tol, max_iter=max_iter
    )

    values = np.empty(mesh.n_nodes)
    values[free] = x
    values[fixed] = params.t_bottom
    stats = SolveStats(iters, res, time.perf_counter() - t0)
    return ScalarField(mesh, values), stats


@dataclass(frozen=True)
class EnergyBalance:
    generated_w: float
    outflow_top_w: float
    outflow_bottom_w: float

    @property
    def residual_rel(self) -> float:
        total_out = self.outflow_top_w + self.outflow_bottom_w
        return abs(self.generated_w - total_out) / abs(self.generated_w)


def energy_balance(field: ScalarField, params: ThermalParams) -> EnergyBalance:
    """Generated power vs boundary outflow (W).

    Top outflow integrates the Robin flux h(T - t_ambient); bottom outflow is
    the Galerkin reaction at the Dirichlet nodes, so the balance is exact up
    to the linear-solver residual when assembly is consistent.
    """
    mesh = field.mesh
    K, f = _assemble_thermal(mesh, params)
    T = field.values

    _, vol = _gradients(mesh.nodes * MM, mesh.tets)
    generated = float(params.q_tumor * np.dot(mesh.tumor_frac, vol))

    top = mesh.faces[mesh.face_tags == FaceTag.TOP]
    q = mesh.nodes[top] * MM
    area = 0.5 * np.linalg.norm(np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]), axis=1)
    t_mean = T[top].mean(axis=1)
    out_top = float(np.dot(params.h_top * area, t_mean - params.t_ambient))

    reaction = K @ T - f
    bottom = mesh.boundary_nodes(FaceTag.BOTTOM)
    out_bottom = -float(reaction[bottom].sum())
    return EnergyBalance(generated, out_top, out_bottom)


def solve_elastic(
    mesh: TetMesh,
    params: ElasticParams,
    *,
    method: str = "direct",
    tol: float = 1e-10,
) -> tuple[VectorField, SolveStats]:
    """Displacement under imposed vertical compression of the top face.

    Bottom face fully fixed; top face u_z = -applied_strain * z_len with
    horizontal components free; sides traction-free. Tumor elements are
    stiffened by tumor_stiffness_factor. The default solver is direct, a
    banded Cholesky factorization after reverse Cuthill-McKee reordering:
    near-incompressible Poisson ratios condition the system badly for
    diagonal-preconditioned CG. Raises SingularSystemError when the reduced
    stiffness is not positive definite.
    """
    t0 = time.perf_counter()
    n = mesh.n_nodes
    grads, vol = _gradients(mesh.nodes, mesh.tets)  # mm units cancel: no loads
    mix = mesh.tumor_frac
    e_mod = params.e_tissue * (1.0 + (params.tumor_stiffness_factor - 1.0) * mix)
    lam = e_mod * params.poisson / ((1.0 + params.poisson) * (1.0 - 2.0 * params.poisson))
    mu = e_mod / (2.0 * (1.0 + params.poisson))

    ndof = 3 * n
    blocks = np.empty((mesh.n_tets, 4, 4, 3, 3))
    dots = np.einsum("eia,eib->eab", grads, grads)
    eye = np.eye(3)
    for a in range(4):
        ga = grads[:, :, a]
        for b in range(4):
            gb = grads[:, :, b]
            blk = (
                lam[:, None, None] * ga[:, :, None] * gb[:, None, :]
                + mu[:, None, None] * gb[:, :, None] * ga[:, None, :]
                + (mu * dots[:, a, b])[:, None, None] * eye[None, :, :]
            )
            blocks[:, a, b] = vol[:, None, None] * blk
    dof = (3 * mesh.tets[:, :, None] + np.arange(3)[None, None, :]).reshape(
        mesh.n_tets, 12
    )
    rows = np.repeat(dof, 12, axis=1).ravel()
    cols = np.tile(dof, (1, 12)).ravel()
    K = sp.coo_matrix(
        (blocks.transpose(0, 1, 3, 2, 4).reshape(mesh.n_tets, 12, 12).ravel(), (rows, cols)),
        shape=(ndof, ndof),
    ).tocsr()

    z_len = float(mesh.nodes[:, 2].max())
    fixed = np.zeros(ndof, dtype=bool)
    u_fix = np.zeros(ndof)
    for node in mesh.boundary_nodes(FaceTag.BOTTOM):
        fixed[3 * node : 3 * node + 3] = True
    top_nodes = mesh.boundary_nodes(FaceTag.TOP)
    fixed[3 * top_nodes + 2] = True
    u_fix[3 * top_nodes + 2] = -params.applied_strain * z_len

    free = ~fixed
    rhs = -(K[free][:, fixed] @ u_fix[fixed])
    x, iters, res = _solve_spd(K[free][:, free], rhs, method=method, tol=tol)

    u = u_fix.copy()
    u[free] = x
    stats = SolveStats(iters, res, time.perf_counter() - t0)
    return VectorField(mesh, u.reshape(n, 3)), stats


def deform_mesh(mesh: TetMesh, u: VectorField) -> TetMesh:
    """Move nodes by the displacement field; rejects inverted elements."""
    if u.mesh is not mesh and u.values.shape[0] != mesh.n_nodes:
        raise ParameterError("displacement field does not match the mesh")
    moved = mesh.with_nodes(mesh.nodes + u.values)
    min_vol = float(moved.tet_volumes().min())
    if min_vol <= 0.0:
        raise DeformationError(f"deformation inverted elements (min volume {min_vol:g} mm^3)")
    return moved


def surface_values(field: ScalarField, points_xy: np.ndarray, tag=FaceTag.TOP) -> np.ndarray:
    """Interpolate the field at (x, y) points on a tagged boundary surface.

    The tagged triangles are projected to the xy-plane (valid while the
    deformed surface remains a graph over xy) and sampled barycentrically.
    """
    mesh = field.mesh
    tris = mesh.faces[mesh.face_tags == tag]
    if tris.shape[0] == 0:
        raise ParameterError(f"mesh has no faces tagged {tag!r}")
    p = mesh.nodes[tris][:, :, :2]  # (F, 3, 2)
    pts = np.asarray(points_xy, dtype=float)

    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (
        b[:, 1] - a[:, 1]
    )
    dx = pts[:, None, 0] - a[None, :, 0]
    dy = pts[:, None, 1] - a[None, :, 1]
    w1 = ((c[:, 1] - a[:, 1])[None, :] * dx - (c[:, 0] - a[:, 0])[None, :] * dy) / det
    w2 = (-(b[:, 1] - a[:, 1])[None, :] * dx + (b[:, 0] - a[:, 0])[None, :] * dy) / det
    w0 = 1.0 - w1 - w2
    ok = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)
    hit = np.argmax(ok, axis=1)
    if not np.all(ok[np.arange(pts.shape[0]), hit]):
        missing = pts[~ok[np.arange(pts.shape[0]), hit]]
        raise ParameterError(f"points outside the tagged surface, e.g. {missing[0]}")
    idx = np.arange(pts.shape[0])
    tvals = field.values[tris[hit]]
    w = np.stack([w0[idx, hit], w1[idx, hit], w2[idx, hit]], axis=1)
    return np.einsum("pi,pi->p", w, tvals)
