"""Shape-order recovery from Fourier signatures.

An exact-interpolation RBF network: every training signature becomes a
center of the scale-free kernel phi(r) = r, and the output layer (plus a
constant) is solved in one shot. There is no iterative training and no width
or ridge to set. Features are min-max normalized to [-1, 1] using the
training split only.

The paper says "RBFNN" without naming a kernel; the classical choice is a
Gaussian, so phi(r) = r is a departure. A Gaussian of width 1 on these
features has cond(Phi) of 1e18 and above and does not interpolate its own
training rows; phi(r) = r has no scale to choose and interpolates them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg as sla

from .errors import DatasetSizeError, ParameterError, TrainingError
from .textio import atomic_write_text, fmt, write_csv

FEATURE_NAMES = ("a0", "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4", "w")

TRAIN, TEST = 0, 1


@dataclass(frozen=True)
class Dataset:
    """Signature rows (features) with their shape order n as target."""

    features: np.ndarray  # (R, F)
    targets: np.ndarray  # (R,)
    family: str = ""
    split: np.ndarray | None = None  # (R,) in {TRAIN, TEST}

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ParameterError("features must be (R, F) with matching targets")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ParameterError("dataset contains non-finite values")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", y)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def rows(self, label) -> tuple[np.ndarray, np.ndarray]:
        if self.split is None:
            raise ParameterError("dataset has not been split")
        m = self.split == label
        return self.features[m], self.targets[m]


def split_dataset(d: Dataset, seed: int, train_size: int = 68, test_size: int = 30) -> Dataset:
    """Seeded shuffle; the first train_size rows train, the rest test."""
    if d.n_rows != train_size + test_size:
        raise DatasetSizeError(
            f"expected {train_size}+{test_size} rows, dataset has {d.n_rows}"
        )
    perm = np.random.default_rng(seed).permutation(d.n_rows)
    split = np.empty(d.n_rows, dtype=np.uint8)
    split[perm[:train_size]] = TRAIN
    split[perm[train_size:]] = TEST
    return Dataset(d.features, d.targets, family=d.family, split=split)


# A feature whose training span is at most this (in its own units) is dead
# and maps to 0: on the mirror-symmetric meshes the sine coefficients b1..b4
# are fit roundoff of about 1e-14, which [-1, 1] scaling would turn into
# full-weight noise.
DEAD_SPAN = 1e-10


@dataclass(frozen=True)
class Normalizer:
    """Per-feature affine map sending training [min, max] to [-1, 1]; a
    feature with a span of at most DEAD_SPAN maps to 0."""

    lo: np.ndarray
    hi: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        span = self.hi - self.lo
        out = np.zeros_like(x)
        live = span > DEAD_SPAN
        out[:, live] = 2.0 * (x[:, live] - self.lo[live]) / span[live] - 1.0
        return out


def fit_normalizer(features: np.ndarray) -> Normalizer:
    x = np.asarray(features, dtype=float)
    if x.size == 0:
        raise ParameterError("cannot fit a normalizer on empty data")
    return Normalizer(lo=x.min(axis=0), hi=x.max(axis=0))


def _kernel(xn: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """phi(r) = r: the Euclidean distance from every row to every center."""
    return np.sqrt(((xn[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))


@dataclass(frozen=True)
class RbfModel:
    centers: np.ndarray  # (C, F) normalized training features
    weights: np.ndarray  # (C + 1,), last entry is the constant
    normalizer: Normalizer


def train_rbf(features: np.ndarray, targets: np.ndarray) -> RbfModel:
    """The exact interpolant s(x) = sum_j w_j |x - c_j| + w_C with
    sum_j w_j = 0.

    phi(r) = r is conditionally positive definite of order 1, so the saddle
    system [[Phi, 1], [1', 0]] is nonsingular for distinct centers (Micchelli
    1986), whatever the number of rows. It is solved by one LU and one step
    of iterative refinement against the assembled matrix. Duplicate
    normalized rows (also rows that differ only in a dead feature) make it
    singular and raise TrainingError.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    norm = fit_normalizer(x)
    xn = norm.transform(x)
    c = xn.shape[0]
    if np.unique(xn, axis=0).shape[0] < c:
        raise TrainingError("duplicate normalized training rows: interpolation system singular")
    a = np.zeros((c + 1, c + 1))
    a[:c, :c] = _kernel(xn, xn)
    a[:c, c] = a[c, :c] = 1.0
    rhs = np.append(y, 0.0)
    lu = sla.lu_factor(a, check_finite=False)
    w = sla.lu_solve(lu, rhs, check_finite=False)
    w += sla.lu_solve(lu, rhs - a @ w, check_finite=False)
    if not np.all(np.isfinite(w)):
        raise TrainingError("non-finite output weights")
    return RbfModel(centers=xn, weights=w, normalizer=norm)


def predict(model: RbfModel, features: np.ndarray) -> np.ndarray:
    xn = model.normalizer.transform(features)
    return _kernel(xn, model.centers) @ model.weights[:-1] + model.weights[-1]


@dataclass(frozen=True)
class EvalReport:
    """Error statistics of predictions vs targets (units of n).

    mean_err is the signed mean; variance/std are population moments of the
    errors, so mse = variance + mean_err^2 holds identically.
    """

    rmse: float
    mse: float
    mean_err: float
    variance: float
    std: float
    rounded_accuracy: float
    count: int


def eval_report(predictions: np.ndarray, targets: np.ndarray) -> EvalReport:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.ndim != 1 or p.size == 0:
        raise ParameterError("predictions and targets must be matching 1-D arrays")
    e = p - t
    mse = float(np.mean(e**2))
    mu = float(np.mean(e))
    var = float(np.mean((e - mu) ** 2))
    acc = float(np.mean(np.rint(p) == t))
    return EvalReport(
        rmse=float(np.sqrt(mse)),
        mse=mse,
        mean_err=mu,
        variance=var,
        std=float(np.sqrt(var)),
        rounded_accuracy=acc,
        count=p.size,
    )


def evaluate(model: RbfModel, features: np.ndarray, targets: np.ndarray) -> EvalReport:
    return eval_report(predict(model, features), np.asarray(targets, dtype=float))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.concatenate([[True], xs[1:] != xs[:-1]])  # starts of tie groups
    bounds = np.append(np.flatnonzero(first), x.size)
    group_rank = 0.5 * (bounds[:-1] + bounds[1:] + 1)
    ranks = np.empty(x.size)
    ranks[order] = group_rank[np.cumsum(first) - 1]
    return ranks


def rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation: the Pearson correlation of the average
    ranks; NaN when either input is constant."""
    ra = _average_ranks(np.asarray(a, dtype=float).ravel())
    rb = _average_ranks(np.asarray(b, dtype=float).ravel())
    if ra.size != rb.size:
        raise ParameterError("rank_correlation needs inputs of equal length")
    if ra.size < 2 or np.ptp(ra) == 0.0 or np.ptp(rb) == 0.0:
        return float("nan")
    return float(np.corrcoef(ra, rb)[0, 1])


@dataclass(frozen=True)
class BoxStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def coefficient_stats(values: np.ndarray) -> BoxStats:
    """Five-number summary; quartiles interpolate linearly between order
    statistics, whiskers are the raw extremes."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ParameterError("no values")
    q = np.percentile(v, [0, 25, 50, 75, 100], method="linear")
    return BoxStats(*(float(x) for x in q))


def save_model(model: RbfModel, path) -> None:
    """Versioned plain-text dump; floats round-trip bit-exactly."""
    lines = [
        "rbfmodel v2",
        f"shape {model.centers.shape[0]} {model.centers.shape[1]}",
        "norm_lo " + " ".join(fmt(v) for v in model.normalizer.lo),
        "norm_hi " + " ".join(fmt(v) for v in model.normalizer.hi),
    ]
    for row in model.centers:
        lines.append("center " + " ".join(fmt(v) for v in row))
    lines.append("weights " + " ".join(fmt(v) for v in model.weights))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report_csv(report: EvalReport, path) -> None:
    rows = [(f.name, getattr(report, f.name)) for f in fields(report)]
    write_csv(path, ["metric", "value"], rows)

