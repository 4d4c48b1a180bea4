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

Each problem is declared in one function: its element groups, its
Dirichlet unknowns and their values. Both systems are assembled through a
scatter plan built from that declaration alone; each process keeps the last
plan of each block size. The plan maps every element-matrix entry to a
slot, numbered so that the slot values are the full matrix in CSR form, and
holds the reverse Cuthill-McKee order of the free unknowns and the positions
of the reduced matrix K_ff's band. A solve computes the element entries as
array expressions over all tets, sums them into the slots with one bincount,
and gathers the band from the slots. The models of a sweep share one
topology, so only the first model pays for the symbolic work.

A mesh with a SYMMETRY plane (every mesh build_mesh makes) is the x <= c
half of a mirror-symmetric block. The elastic problem adds u_x = 0 on the
plane nodes and the heat problem keeps the natural (insulated) condition
there; both are exact for a mirror-symmetric problem. energy_balance doubles
the half's terms to whole-block watts. A mesh with no SYMMETRY faces solves
the whole-domain problem with the same code.
"""

from __future__ import annotations

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
class SolveStats:
    iterations: int
    final_residual: float  # relative to ||rhs||
    n_free: int  # unknowns of the reduced system K_ff
    band: int  # upper bandwidth of K_ff in the plan's order


def _gradients(nodes: np.ndarray, tets: np.ndarray):
    """Shape-function gradients (4, 3, M) and volumes (M,) of every tet.

    grads[a, i, e] is d(lambda_a)/d(x_i) on tet e; the tet index runs last so
    that the element loops below vectorize over it. The inverse Jacobian is
    taken in closed form: for edge rows r0, r1, r2 its columns,
    grad(lambda_1..3), are (r1 x r2, r2 x r0, r0 x r1) / det.
    """
    p = nodes.T[:, tets.T]  # (3, 4, M)
    r0, r1, r2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]
    grads = np.empty((4, 3, tets.shape[0]))
    grads[1] = np.cross(r1, r2, axis=0)
    grads[2] = np.cross(r2, r0, axis=0)
    grads[3] = np.cross(r0, r1, axis=0)
    det = np.einsum("ie,ie->e", r0, grads[1])
    grads[1:] /= det
    grads[0] = -grads[1:].sum(axis=0)
    return grads, det / 6.0


@dataclass(frozen=True)
class _ScatterPlan:
    """Where every element-matrix entry of one declared problem lands.

    Slots are the distinct (row, col) positions of the assembled matrix,
    numbered row-major, so the slot values are the data of the full matrix
    in CSR form. All of it follows from the element groups and the Dirichlet
    unknowns, so the models of a sweep, which share them, share one plan.
    """

    entry_slot: np.ndarray  # (entries,) slot of each element-matrix entry
    indptr: np.ndarray  # (n + 1,) CSR row pointers of the full matrix
    indices: np.ndarray  # (slots,) column of each slot
    free: np.ndarray  # (n,) bool, False on Dirichlet unknowns
    perm: np.ndarray  # reverse Cuthill-McKee order of the free unknowns
    band: int  # upper bandwidth of K_ff in that order
    band_pos: np.ndarray  # flat index into the Fortran-order (band+1, n_free) array
    band_slot: np.ndarray  # slot of each upper-triangle entry of K_ff

    def assemble(self, entries: np.ndarray) -> np.ndarray:
        """Slot values: the element entries summed in one fixed order."""
        return np.bincount(self.entry_slot, weights=entries, minlength=self.indices.size)

    def matrix(self, vals: np.ndarray) -> sp.csr_matrix:
        """The full matrix, Dirichlet rows and columns included."""
        n = self.free.size
        return sp.csr_matrix((vals, self.indices, self.indptr), shape=(n, n))


def _build_plan(n_nodes: int, bs: int, groups: tuple, fixed: np.ndarray) -> _ScatterPlan:
    """Scatter plan of a system with bs unknowns per node, assembled from
    the (M, k) node arrays in groups, with the unknowns in fixed held by
    Dirichlet conditions. Block systems (bs > 1) take one group of tets."""
    # node pair (a, b) of each element of each group, the element index last
    keys = np.concatenate([
        (g.T[:, None, :].astype(np.int64) * n_nodes + g.T[None, :, :]).ravel() for g in groups
    ])
    pairs, pair_slot = np.unique(keys, return_inverse=True)
    # component (i, j) of node pair (a, b) is entry (bs a + i, bs b + j). The
    # slots are numbered row-major, in CSR order: within a row they already
    # run in column order, so a stable sort by row keeps it.
    comp = np.arange(bs * bs)
    rows = (bs * (pairs // n_nodes)[:, None] + comp // bs).ravel()
    cols = (bs * (pairs % n_nodes)[:, None] + comp % bs).ravel()
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    # int32 maps take half the memory. The entry map is gathered from an int32
    # rank, so no intp copy of it is made; in the elastic plan the (i, j)
    # index arrays broadcast to pair_slot's axes 1 and 3.
    rank = np.empty(order.size, dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    comp = np.arange(bs)
    if bs > 1:  # element entries are ordered (a, i, b, j, tet)
        pair_slot = pair_slot.reshape(4, 1, 4, 1, -1)
    entry_slot = rank.reshape(-1, bs, bs)[pair_slot, comp[:, None, None, None], comp[:, None]]

    free = np.ones(bs * n_nodes, dtype=bool)
    free[fixed] = False
    n_free = int(free.sum())
    index = np.cumsum(free) - 1
    ff = np.flatnonzero(free[rows] & free[cols])
    fr, fc = index[rows[ff]], index[cols[ff]]
    indptr = np.searchsorted(fr, np.arange(n_free + 1))
    pattern = sp.csr_matrix((np.ones(ff.size), fc, indptr), shape=(n_free, n_free))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    rank = np.empty(n_free, dtype=np.intp)
    rank[perm] = np.arange(n_free)
    i, j = rank[fr], rank[fc]
    upper = i <= j
    band = int((j - i).max(initial=0))
    # band_pos stays intp: the band array's (band + 1) * n_free entries may
    # pass 2**31
    return _ScatterPlan(
        entry_slot=entry_slot.ravel(),
        indptr=np.searchsorted(rows, np.arange(free.size + 1)).astype(np.int32),
        indices=cols.astype(np.int32),
        free=free,
        perm=perm,
        band=band,
        band_pos=(band + i - j + j * (band + 1))[upper],
        band_slot=ff[upper].astype(np.int32),
    )


# The last plan built for each block size (1 thermal, 3 elastic), with the
# declaration it was built from. A sweep, a run of solves and calibration
# declare one problem of each per process (at level 0 both families share
# them); a mesh study meets each level once. The production elastic plan
# takes 8.6 MB at level 0, 12.2 MB at level 1 and 17.1-17.8 MB at level 2,
# its thermal plan 1.0, 1.4 and 2.0-2.1 MB.
_last_plan: dict = {}


def _scatter_plan(n_nodes: int, bs: int, groups: tuple, fixed: np.ndarray) -> _ScatterPlan:
    """The last plan of this block size if built from this declaration, else a new one."""
    key = (n_nodes,) + tuple((a.dtype.str, a.shape, a.tobytes()) for a in (*groups, fixed))
    last = _last_plan.get(bs)
    if last is None or last[0] != key:
        last = _last_plan[bs] = (key, _build_plan(n_nodes, bs, groups, fixed))
    return last[1]


def _top_faces(mesh: TetMesh):
    """The TOP triangles and their areas (m^2)."""
    top = mesh.faces[mesh.face_tags == FaceTag.TOP]
    q = mesh.nodes[top] * MM
    area = 0.5 * np.linalg.norm(np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]), axis=1)
    return top, area


_FACE_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _thermal_system(mesh: TetMesh, p: ThermalParams):
    """Plan, slot values (conduction plus Robin) and load vector of the
    heat problem: tets plus Robin faces on TOP, the BOTTOM nodes held at
    t_bottom. Entries are ordered (a, b, element), the tets before the TOP
    faces, as the plan expects."""
    top, area = _top_faces(mesh)
    plan = _scatter_plan(mesh.n_nodes, 1, (mesh.tets, top), mesh.boundary_nodes(FaceTag.BOTTOM))
    grads, vol = _gradients(mesh.nodes * MM, mesh.tets)
    mix = mesh.tumor_frac
    k_e = p.k_tissue + (p.k_tumor - p.k_tissue) * mix
    local = np.einsum("e,aie,bie->abe", k_e * vol, grads, grads)
    robin = p.h_top * _FACE_MASS[:, :, None] * area
    vals = plan.assemble(np.concatenate([local.ravel(), robin.ravel()]))
    load = np.concatenate([
        np.repeat(p.q_tumor * mix * vol / 4.0, 4),
        np.repeat(p.h_top * p.t_ambient * area / 3.0, 3),
    ])
    f = np.bincount(
        np.concatenate([mesh.tets.ravel(), top.ravel()]), weights=load, minlength=mesh.n_nodes
    )
    return plan, vals, f


def _elastic_system(mesh: TetMesh, p: ElasticParams):
    """Plan, slot values and Dirichlet-only displacement vector of the
    elastic problem: BOTTOM nodes fixed, u_z = -applied_strain * z_len on
    TOP, u_x = 0 on SYMMETRY. Block (a, b) of a tet is
    vol * (lam ga gb^T + mu gb ga^T + mu (ga.gb) I) for the shape-function
    gradients ga, gb; entries are ordered (a, i, b, j, tet) as the plan expects.
    """
    bottom = mesh.boundary_nodes(FaceTag.BOTTOM)
    top = mesh.boundary_nodes(FaceTag.TOP)
    plane = mesh.boundary_nodes(FaceTag.SYMMETRY)
    fixed = np.concatenate([(3 * bottom[:, None] + np.arange(3)).ravel(), 3 * top + 2, 3 * plane])
    plan = _scatter_plan(mesh.n_nodes, 3, (mesh.tets,), fixed)
    grads, vol = _gradients(mesh.nodes, mesh.tets)  # mm units cancel: no loads
    e_mod = p.e_tissue * (1.0 + (p.tumor_stiffness_factor - 1.0) * mesh.tumor_frac)
    lam = e_mod * p.poisson / ((1.0 + p.poisson) * (1.0 - 2.0 * p.poisson))
    mu = e_mod / (2.0 * (1.0 + p.poisson))
    g_lam = grads * (lam * vol)
    g_mu = grads * (mu * vol)
    ke = g_lam[:, :, None, None, :] * grads[None, None, :, :, :]  # ga_i gb_j
    ke += grads[:, None, None, :, :] * g_mu.transpose(1, 0, 2)[None, :, :, None, :]  # gb_i ga_j
    dots = np.einsum("aie,bie->abe", g_mu, grads)
    for i in range(3):
        ke[:, i, :, i, :] += dots
    u = np.zeros(3 * mesh.n_nodes)
    u[3 * top + 2] = -p.applied_strain * float(mesh.nodes[:, 2].max())
    return plan, plan.assemble(ke.ravel()), u


def _solve_banded_cholesky(plan: _ScatterPlan, vals: np.ndarray, rhs) -> np.ndarray:
    """Direct SPD solve of K_ff x = rhs: LAPACK banded Cholesky in the plan's
    reverse Cuthill-McKee order.

    Structured tet meshes have a narrow band once renumbered, so the dense
    band factor beats a general sparse LU. Only the upper triangle is read.
    """
    n_free = plan.perm.size
    # Fortran order: LAPACK factors the band in place instead of copying it
    ab = np.zeros((plan.band + 1) * n_free)
    ab[plan.band_pos] = vals[plan.band_slot]
    ab = ab.reshape(plan.band + 1, n_free, order="F")
    try:
        factor = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except LinAlgError as exc:
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc
    x_perm = cho_solve_banded((factor, False), rhs[plan.perm], check_finite=False)
    x = np.empty_like(x_perm)
    x[plan.perm] = x_perm
    return x


def _solve_spd(
    plan: _ScatterPlan, vals, u, f=0.0, *, method: str, tol: float = 1e-10, max_iter=None
) -> SolveStats:
    """Solve K u = f for the free entries of u, its Dirichlet entries given.

    The Dirichlet entries are lifted to the right-hand side, the plan's SPD
    reduced system K_ff x = rhs is solved and x is written into u's free
    entries. Every outcome reports the residual of K u = f on the free rows,
    taken from the assembled matrix, relative to ||rhs||. tol and max_iter
    apply to PCG only; a PCG solve that misses tol raises SolverError
    carrying its stats.
    """
    K = plan.matrix(vals)
    rhs = (f - K @ u)[plan.free]
    bnorm = float(np.linalg.norm(rhs))
    iterations, converged = 0, True
    if bnorm == 0.0:
        x = np.zeros_like(rhs)
    elif method == "direct":
        x = _solve_banded_cholesky(plan, vals, rhs)
    elif method == "pcg":
        K_ff = K[plan.free][:, plan.free]
        diag = K_ff.diagonal()
        if np.any(diag <= 0):
            raise SingularSystemError("non-positive diagonal in SPD system")
        inv_diag = 1.0 / diag
        x = np.zeros_like(rhs)
        residual = rhs.copy()
        z = inv_diag * residual
        p_vec = z.copy()
        rz = float(residual @ z)
        cap = int(50 * np.sqrt(K_ff.shape[0])) + 1 if max_iter is None else max_iter
        for iterations in range(cap):
            if float(np.linalg.norm(residual)) <= tol * bnorm:
                break
            Ap = K_ff @ p_vec
            alpha = rz / float(p_vec @ Ap)
            x += alpha * p_vec
            residual -= alpha * Ap
            z = inv_diag * residual
            rz_new = float(residual @ z)
            p_vec = z + (rz_new / rz) * p_vec
            rz = rz_new
        else:
            iterations, converged = cap, False
    else:
        raise ParameterError(f"unknown solver method {method!r}")
    u[plan.free] = x
    rel = float(np.linalg.norm((K @ u - f)[plan.free])) / bnorm if bnorm else 0.0
    stats = SolveStats(iterations, rel, plan.perm.size, plan.band)
    if not converged:
        raise SolverError(f"PCG did not reach tol {tol} within {cap} iterations", stats=stats)
    return stats


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
    top, natural (insulated) sides and SYMMETRY plane. Raises
    SingularSystemError when no boundary condition pins the solution.
    """
    plan, vals, f = _thermal_system(mesh, params)
    if params.h_top == 0.0 and plan.free.all():
        raise SingularSystemError("no Dirichlet nodes and h_top = 0: T only fixed up to a constant")
    values = np.where(plan.free, 0.0, params.t_bottom)  # Dirichlet part; the solve fills the rest
    stats = _solve_spd(plan, vals, values, f, method=method, tol=tol, max_iter=max_iter)
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
    """Generated power vs boundary outflow (W) of the whole block.

    Top outflow integrates the Robin flux h(T - t_ambient); bottom outflow is
    the Galerkin reaction at the Dirichlet nodes, so the balance is exact up
    to the linear-solver residual when assembly is consistent. On a mesh with
    a SYMMETRY plane each term is twice the half's: no heat crosses the
    plane.
    """
    mesh = field.mesh
    T = field.values
    copies = 1.0 if mesh.symmetry_x is None else 2.0
    _, vol = _gradients(mesh.nodes * MM, mesh.tets)
    generated = float(params.q_tumor * np.dot(mesh.tumor_frac, vol))

    top, area = _top_faces(mesh)
    t_mean = T[top].mean(axis=1)
    out_top = float(np.dot(params.h_top * area, t_mean - params.t_ambient))

    plan, vals, f = _thermal_system(mesh, params)
    reaction = plan.matrix(vals) @ T - f
    out_bottom = -float(reaction[~plan.free].sum())
    return EnergyBalance(copies * generated, copies * out_top, copies * out_bottom)


def solve_elastic(mesh: TetMesh, params: ElasticParams) -> tuple[np.ndarray, SolveStats]:
    """(N, 3) nodal displacements (mm) under imposed vertical compression of
    the top face, and the solve's stats.

    Bottom face fully fixed; top face u_z = -applied_strain * z_len with
    horizontal components free; sides traction-free; u_x = 0 on the
    SYMMETRY plane, which keeps its nodes on x = c. Tumor elements are
    stiffened by tumor_stiffness_factor. The solve is direct, a banded
    Cholesky factorization after reverse Cuthill-McKee reordering:
    near-incompressible Poisson ratios condition the system badly for
    diagonal-preconditioned CG. Raises SingularSystemError when the reduced
    stiffness is not positive definite.
    """
    plan, vals, u = _elastic_system(mesh, params)
    stats = _solve_spd(plan, vals, u, method="direct")
    return u.reshape(mesh.n_nodes, 3), stats


def deform_mesh(mesh: TetMesh, u: np.ndarray) -> TetMesh:
    """Move nodes by the (N, 3) displacements u (mm); rejects inverted elements."""
    u = np.asarray(u, dtype=float)
    if u.shape != mesh.nodes.shape or not np.all(np.isfinite(u)):
        raise ParameterError("displacement must be a finite (n_nodes, 3) array")
    moved = mesh.with_nodes(mesh.nodes + u)
    min_vol = float(moved.tet_volumes().min())
    if min_vol <= 0.0:
        raise DeformationError(f"deformation inverted elements (min volume {min_vol:g} mm^3)")
    return moved


def surface_values(field: ScalarField, points_xy: np.ndarray) -> np.ndarray:
    """Interpolate the field at (x, y) points on the TOP surface.

    The TOP triangles are projected to the xy-plane (valid while the
    deformed surface remains a graph over xy) and sampled barycentrically.
    """
    mesh = field.mesh
    tris = mesh.faces[mesh.face_tags == FaceTag.TOP]
    if tris.shape[0] == 0:
        raise ParameterError("mesh has no TOP faces")
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
        raise ParameterError(f"points outside the TOP surface, e.g. {missing[0]}")
    idx = np.arange(pts.shape[0])
    tvals = field.values[tris[hit]]
    w = np.stack([w0[idx, hit], w1[idx, hit], w2[idx, hit]], axis=1)
    return np.einsum("pi,pi->p", w, tvals)
