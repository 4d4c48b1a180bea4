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

N_HARMONICS = 4
# samples along the centerline path of every production profile
PROFILE_SAMPLES = 121


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
    samples: int,
    *,
    x_range_mm: tuple,
    y_mid_mm: float,
) -> SurfaceProfile:
    """Sample the top-surface temperature along y = y_mid_mm.

    Sampling is barycentric on the tagged top faces (projected to xy), so it
    follows the deformed surface when the mesh was compressed. The path is
    given in undeformed block coordinates: compression only bulges the
    footprint outward, so the original path stays covered. Positions come
    back in meters.

    The mesh is the x <= c half of a mirror-symmetric block, with a SYMMETRY
    plane at x = c (see build_mesh). The path covers the whole block and
    must be symmetric about c. The field is sampled at the folded positions
    min(x, 2c - x) of the first half of the path and mirrored onto the
    second, so that T(x_i) == T(x_{S-1-i}) bit for bit.
    """
    c = field.mesh.symmetry_x
    if c is None:
        raise ParameterError("profile needs a half-block mesh with a SYMMETRY plane")
    lo, hi = x_range_mm
    if abs(lo + hi - 2.0 * c) > 1e-9 * (hi - lo):
        raise ParameterError(f"profile path [{lo}, {hi}] mm is not symmetric about x = {c} mm")
    x_mm = np.linspace(lo, hi, samples)
    k = (samples + 1) // 2
    folded = np.minimum(x_mm[:k], 2.0 * c - x_mm[:k])
    half = surface_values(field, np.column_stack([folded, np.full(k, y_mid_mm)]))
    temps = np.concatenate([half, half[samples - k - 1 :: -1]])
    return SurfaceProfile(positions=x_mm * 1e-3, temps=temps)


# w is scanned on this many points over [0.5, 1.5] * 2*pi/span
SCAN_POINTS = 241
# the root refine stops once its bracket is this narrow, relative to
# 2*pi/span, or after this many steps
W_TOL = 1e-14
ROOT_STEPS = 36


def _augmented(u: np.ndarray, t: np.ndarray, w) -> np.ndarray:
    """The design at the frequency or frequencies w with t as a last column:
    (..., S, 10), columns 1, cos(wu), sin(wu), ..., cos(4wu), sin(4wu), t.

    The harmonics come by angle addition: viewed as complex numbers, each
    (cos, sin) column pair is the one before times e^(iwu)."""
    theta = np.multiply.outer(w, u)
    A = np.empty(theta.shape + (2 * N_HARMONICS + 2,))
    A[..., 0] = 1.0
    A[..., -1] = t
    z = A[..., 1:-1].view(complex)  # (..., S, N_HARMONICS)
    z[..., 0].real = np.cos(theta)
    z[..., 0].imag = np.sin(theta)
    for i in range(1, N_HARMONICS):
        np.multiply(z[..., i - 1], z[..., 0], out=z[..., i])
    return A


def _fit_at(u, t, w: float):
    """Design, nine coefficients and residual of the least-squares fit of t
    at w, from the QR factor R of the augmented design: its leading 9 x 9
    block and last column give the coefficients."""
    A = _augmented(u, t, w)
    R = np.linalg.qr(A, mode="r")
    coef = np.linalg.solve(R[:-1, :-1], R[:-1, -1])
    return A[:, :-1], coef, t - A[:, :-1] @ coef


def _sse_slope(u, t, w: float) -> float:
    """dSSE/dw of the projected fit at w: -2 r^T (dA/dw) c.

    The coefficients' own change with w does not enter, because the
    residual r is orthogonal to the columns of the design A (variable
    projection)."""
    A, coef, resid = _fit_at(u, t, w)
    i = np.arange(1, N_HARMONICS + 1)
    dA_c = u * (A[:, 1::2] @ (i * coef[2::2]) - A[:, 2::2] @ (i * coef[1::2]))
    return -2.0 * float(resid @ dA_c)


def _illinois_root(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f in [a, b], where fa < 0 < fb, by regula falsi with the
    Illinois rule: an end kept twice in a row has its value halved, so both
    ends move. A step that leaves the bracket is replaced by bisection."""
    kept = 0  # -1: a was kept by the last step, +1: b was
    for _ in range(ROOT_STEPS):
        if b - a <= xtol:
            break
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            a, fa = x, fx
            if kept == +1:
                fb *= 0.5
            kept = +1
        else:
            b, fb = x, fx
            if kept == -1:
                fa *= 0.5
            kept = -1
    return 0.5 * (a + b)


def fit_fourier4(profile: SurfaceProfile) -> FourierSignature:
    """Least-squares Fourier fit with a scanned, root-refined w.

    For each candidate w the nine linear coefficients are solved exactly
    (variable projection). w is scanned on SCAN_POINTS points over
    [0.5, 1.5] * 2*pi/span, all at once, and the best grid point is refined
    to the root of dSSE/dw in the grid cell beside it on the downhill side.
    The SSE is flat at its minimum, so locating the minimum through the
    root of its derivative pins w down far more closely than comparing SSE
    values can. Where the slope keeps its sign across that cell, which
    happens only at an end of the scan, w stays on the grid point. The fit
    is deterministic.
    """
    t = profile.temps
    t_range = float(t.max() - t.min())
    if t_range <= 0.0:
        raise DegenerateFitError("flat profile: fundamental frequency is indeterminate")
    mid = 0.5 * (profile.positions[0] + profile.positions[-1])
    u = profile.positions - mid
    t_mean = float(t.mean())
    tc = t - t_mean  # the design holds the constant, so centering keeps the fit

    w_base = 2.0 * math.pi / profile.span
    grid = np.linspace(0.5 * w_base, 1.5 * w_base, SCAN_POINTS)
    # the last diagonal entry of R of the augmented design is the residual norm
    sse = np.linalg.qr(_augmented(u, tc, grid), mode="r")[:, -1, -1] ** 2
    # a profile that some w fits exactly is also fit exactly at w/2 (through
    # the even harmonics); break those near-machine ties toward the largest
    # candidate, which is the fundamental
    tol = sse.min() + 1e-12 * float(tc @ tc)
    best = int(np.flatnonzero(sse <= tol)[-1])

    def slope(w):
        return _sse_slope(u, tc, w)

    w = float(grid[best])
    g = slope(w)
    if g > 0.0 and best > 0:
        a = float(grid[best - 1])
        ga = slope(a)
        if ga < 0.0:
            w = _illinois_root(slope, a, w, ga, g, W_TOL * w_base)
    elif g < 0.0 and best < grid.size - 1:
        b = float(grid[best + 1])
        gb = slope(b)
        if gb > 0.0:
            w = _illinois_root(slope, w, b, g, gb, W_TOL * w_base)

    _, coef, resid = _fit_at(u, tc, w)
    rmse = math.sqrt(float(resid @ resid) / t.size)
    return FourierSignature(
        a0=t_mean + float(coef[0]),
        a=tuple(float(c) for c in coef[1::2]),
        b=tuple(float(c) for c in coef[2::2]),
        w=w,
        fit_rmse_rel=rmse / t_range,
    )


def max_surface_temp(profile: SurfaceProfile) -> tuple[float, float]:
    """(x, T) of the hottest sample; ties resolve to the smaller x."""
    i = int(np.argmax(profile.temps))
    return float(profile.positions[i]), float(profile.temps[i])

