"""Surface temperature profiles and their 4th-order Fourier signatures.

The diagnostic quantity is the temperature along the centerline of the top
surface (y = Y/2, full x extent, mirrored from the solved half block). Each
profile is compressed into 10 numbers by fitting

    T(u) = a0 + sum_{i=1..4} [ a_i cos(i w u) + b_i sin(i w u) ]

with u measured from the path midpoint. Centering makes the even/odd split
physical: a centered symmetric bump loads the cosine terms with one sign
instead of alternating signs along the harmonics. Positions are meters, so w
comes out in rad/m (fundamental period ~ the path length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, ParameterError
from .fem import ScalarField, surface_values
from .mesh import FaceTag

N_HARMONICS = 4


@dataclass(frozen=True)
class SurfaceProfile:
    """Centerline temperature trace on the top surface."""

    positions: np.ndarray  # (S,) m, strictly increasing
    temps: np.ndarray  # (S,) deg C

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        t = np.asarray(self.temps, dtype=float)
        if pos.ndim != 1 or pos.shape != t.shape:
            raise ParameterError("positions and temps must be 1-D and equally long")
        if pos.size < 41:
            raise ParameterError("profile needs at least 41 samples")
        if not np.all(np.diff(pos) > 0):
            raise ParameterError("positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "temps", t)

    @property
    def span(self) -> float:
        return float(self.positions[-1] - self.positions[0])


@dataclass(frozen=True)
class FourierSignature:
    """10 fitted coefficients plus the relative fit error."""

    a0: float
    a: tuple  # (a1..a4) deg C
    b: tuple  # (b1..b4) deg C
    w: float  # rad/m
    fit_rmse_rel: float

    def __post_init__(self):
        if self.w <= 0:
            raise ParameterError("w must be positive")
        if len(self.a) != N_HARMONICS or len(self.b) != N_HARMONICS:
            raise ParameterError(f"expected {N_HARMONICS} harmonic pairs")

    def features(self) -> np.ndarray:
        """The 10-vector (a0, a1..a4, b1..b4, w) used as network input."""
        return np.array([self.a0, *self.a, *self.b, self.w])

    def evaluate(self, positions, origin: float) -> np.ndarray:
        """Evaluate the series at absolute positions (m) given the centering
        origin used during fitting (path midpoint)."""
        u = np.asarray(positions, dtype=float) - origin
        out = np.full_like(u, self.a0)
        for i in range(1, N_HARMONICS + 1):
            out += self.a[i - 1] * np.cos(i * self.w * u)
            out += self.b[i - 1] * np.sin(i * self.w * u)
        return out


def extract_profile(
    field: ScalarField,
    samples: int = 121,
    *,
    x_range_mm: tuple | None = None,
    y_mid_mm: float | None = None,
) -> SurfaceProfile:
    """Sample the top-surface temperature along y = Y/2.

    Sampling is barycentric on the tagged top faces (projected to xy), so it
    follows the deformed surface when the mesh was compressed. Pass the
    undeformed block extents explicitly for a compressed mesh (compression
    only bulges the footprint outward, so the original path stays covered).
    Positions come back in meters.

    The mesh is the x <= c half of a mirror-symmetric block, with a SYMMETRY
    plane at x = c (see build_mesh). The path covers the whole block and
    must be symmetric about c; by default it runs from the least top-face x
    to its mirror image. The field is sampled at the folded positions
    min(x, 2c - x) of the first half of the path and mirrored onto the
    second, so that T(x_i) == T(x_{S-1-i}) bit for bit.
    """
    if samples < 41:
        raise ParameterError("need at least 41 samples")
    mesh = field.mesh
    c = mesh.symmetry_x
    if c is None:
        raise ParameterError("profile needs a half-block mesh with a SYMMETRY plane")
    top_xy = mesh.nodes[mesh.boundary_nodes(FaceTag.TOP), :2]
    x0 = float(top_xy[:, 0].min())
    lo, hi = x_range_mm if x_range_mm is not None else (x0, 2.0 * c - x0)
    if abs(lo + hi - 2.0 * c) > 1e-9 * (hi - lo):
        raise ParameterError(f"profile path [{lo}, {hi}] mm is not symmetric about x = {c} mm")
    if y_mid_mm is None:
        y_mid_mm = 0.5 * float(top_xy[:, 1].min() + top_xy[:, 1].max())
    x_mm = np.linspace(lo, hi, samples)
    k = (samples + 1) // 2
    folded = np.minimum(x_mm[:k], 2.0 * c - x_mm[:k])
    half = surface_values(field, np.column_stack([folded, np.full(k, y_mid_mm)]))
    temps = np.concatenate([half, half[samples - k - 1 :: -1]])
    return SurfaceProfile(positions=x_mm * 1e-3, temps=temps)


def _design(u: np.ndarray, w: float) -> np.ndarray:
    cols = [np.ones_like(u)]
    for i in range(1, N_HARMONICS + 1):
        cols.append(np.cos(i * w * u))
        cols.append(np.sin(i * w * u))
    return np.column_stack(cols)


def _projected_sse(u, t, w) -> float:
    A = _design(u, w)
    _, res, rank, _ = np.linalg.lstsq(A, t)
    if rank < A.shape[1] or res.size == 0:
        r = t - A @ np.linalg.lstsq(A, t)[0]
        return float(r @ r)
    return float(res[0])


def fit_fourier4(profile: SurfaceProfile) -> FourierSignature:
    """Least-squares Fourier fit with scanned + golden-section-refined w.

    For each candidate w the nine linear coefficients are solved exactly
    (variable projection); w itself is located by a coarse scan over
    [0.5, 1.5] * 2*pi/span followed by golden-section refinement, which keeps
    the whole fit deterministic and derivative-free.
    """
    t = profile.temps
    t_range = float(t.max() - t.min())
    if t_range <= 0.0:
        raise DegenerateFitError("flat profile: fundamental frequency is indeterminate")
    mid = 0.5 * (profile.positions[0] + profile.positions[-1])
    u = profile.positions - mid

    w_base = 2.0 * math.pi / profile.span
    lo, hi = 0.5 * w_base, 1.5 * w_base
    grid = np.linspace(lo, hi, 241)
    sse = np.array([_projected_sse(u, t, w) for w in grid])
    # a profile that some w fits exactly is also fit exactly at w/2 (through
    # the even harmonics); break those near-machine ties toward the largest
    # candidate, which is the fundamental
    tc = t - t.mean()
    tol = sse.min() + 1e-12 * float(tc @ tc)
    best = int(np.flatnonzero(sse <= tol)[-1])
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]

    # golden-section refine on [a, b]
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

    A = _design(u, w)
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


def max_surface_temp(profile: SurfaceProfile) -> tuple[float, float]:
    """(x, T) of the hottest sample; ties resolve to the smaller x."""
    i = int(np.argmax(profile.temps))
    return float(profile.positions[i]), float(profile.temps[i])

