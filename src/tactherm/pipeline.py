"""End-to-end study orchestration.

Runs the two shape sweeps (n = 3..100 per family), the mesh-independence
study, the RBF learning stage, and figure generation, all driven by a single
JSON-serializable StudyConfig. Every artifact is written atomically with
deterministic formatting, and a manifest makes sweeps resumable: models
already completed under the same config, code and BLAS thread setting are
not solved again.

Models are independent jobs. A pooled command starts one process pool for
all the families it sweeps and submits every pending model up front; the
manifest has a single writer and results are reduced in (family, n) order, so
outputs are byte-identical regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, svgplot
from .errors import ArtifactError, ParameterError
from .fem import (
    ElasticParams,
    ScalarField,
    SolveStats,
    ThermalParams,
    deform_mesh,
    solve_elastic,
    solve_heat,
)
from .geometry import ShapeFamily, TissueDims, TumorShape, place_prism
from .learn import (
    FEATURE_NAMES,
    TEST,
    TRAIN,
    Dataset,
    EvalReport,
    RbfModel,
    coefficient_stats,
    evaluate,
    fit_normalizer,
    predict,
    rank_correlation,
    save_model,
    split_dataset,
    train_rbf,
    write_report_csv,
)
from .mesh import FaceTag, RefinementSpec, build_mesh
from .signature import (
    PROFILE_SAMPLES,
    FourierSignature,
    SurfaceProfile,
    extract_profile,
    fit_fourier4,
    max_surface_temp,
)
from .textio import atomic_write_text, csv_text, read_csv, write_csv

__all__ = [
    "GeometryDefaults",
    "SweepSpec",
    "MeshLevels",
    "LearnSpec",
    "StudyConfig",
    "RunManifest",
    "ModelResult",
    "SweepResult",
    "MeshStudyReport",
    "LearningResult",
    "config_hash",
    "config_to_json",
    "config_from_json",
    "load_config",
    "save_config",
    "model_id",
    "refinement_spec",
    "tumor_shape",
    "run_model",
    "run_sweep",
    "mesh_study",
    "calibrate_ambient",
    "run_learning",
    "load_dataset",
    "make_figures",
]

log = logging.getLogger(__name__)

PROFILE_OVERLAY_ORDERS = (3, 4, 5, 10, 20, 50, 100)
CONTOUR_MODEL_N = 10
# section.csv keeps the nodes within this distance of the mid-plane y = Y/2:
# the slab the contour figure resamples
SECTION_HALF_WIDTH_MM = 2.5
# run_sweep rewrites the manifest at most this often while models finish,
# and once more at the end; each rewrite holds every entry so far
MANIFEST_SAVE_INTERVAL_S = 1.0
PROFILE_COLUMNS = ["x_m", "t_c"]
DATASET_COLUMNS = ["model_id", "family", "n", *FEATURE_NAMES, "fit_rmse_rel", "t_max_c", "x_max_m"]
SECTION_COLUMNS = ["x_mm", "z_mm", "t_c"]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GeometryDefaults:
    """Tumor shape defaults shared by every sweep model (mm / mm^2)."""

    base_area_mm2: float = 400.0
    prism_height_mm: float = 8.0
    star_inner_radius_mm: float = 10.0
    top_depth_mm: float = 12.0


@dataclass(frozen=True)
class SweepSpec:
    """Shape-order schedule: initial 3, increment 1, final 100."""

    start: int = 3
    step: int = 1
    stop: int = 100

    def __post_init__(self):
        if self.start < 3:
            raise ParameterError("sweep start must be >= 3 (smallest polygon)")
        if self.step < 1 or self.stop < self.start:
            raise ParameterError("sweep needs step >= 1 and stop >= start")

    def values(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.stop + 1, self.step))


@dataclass(frozen=True)
class MeshLevels:
    """Per-family refinement ladders (nx, ny, nz, local_factor) plus the
    production level index used for sweeps."""

    polygon: tuple = ((13, 6, 4, 3), (12, 6, 5, 3), (12, 7, 6, 3))
    star: tuple = ((13, 6, 4, 3), (16, 8, 4, 3), (17, 8, 5, 3))
    level: int = 0

    def __post_init__(self):
        for name, ladder in (("polygon", self.polygon), ("star", self.star)):
            if not ladder:
                raise ParameterError(f"{name} refinement ladder is empty")
            for entry in ladder:
                if len(entry) != 4 or any(int(v) < 1 for v in entry):
                    raise ParameterError(f"bad {name} refinement entry {entry!r}")
        if not 0 <= self.level < min(len(self.polygon), len(self.star)):
            raise ParameterError("refinement level index out of range")

    def ladder(self, family: ShapeFamily) -> tuple:
        return self.polygon if family is ShapeFamily.REGULAR_POLYGON else self.star


@dataclass(frozen=True)
class LearnSpec:
    """The seeded 68/30 split of the learning stage."""

    split_seed: int = 0
    train_size: int = 68
    test_size: int = 30

    def __post_init__(self):
        if self.split_seed < 0:
            raise ParameterError("split_seed must be >= 0")
        if self.train_size < 1 or self.test_size < 1:
            raise ParameterError("split sizes must be positive")


@dataclass(frozen=True)
class StudyConfig:
    """Every knob of the study in one JSON-serializable document."""

    tissue: TissueDims = TissueDims()
    thermal: ThermalParams = ThermalParams()
    elastic: ElasticParams = ElasticParams()
    geometry: GeometryDefaults = GeometryDefaults()
    sweep: SweepSpec = SweepSpec()
    refinement: MeshLevels = MeshLevels()
    learn: LearnSpec = LearnSpec()
    out_dir: str = "out"


def _check_type(name: str, default, value) -> None:
    """Raise ParameterError unless value has the JSON type of the field's
    default; a float field takes a finite int or float (JSON's NaN, Infinity
    and 1e400 are floats too), and a ladder is a list of 4-integer lists.
    Nothing is converted, so a config hashes as before."""
    if isinstance(default, float):
        ok, want = _is_finite_number(value), "a finite number"
    elif isinstance(default, (int, str)):
        ok, want = type(value) is type(default), f"of the type of {default!r}"
    else:
        want = "a list of 4-integer lists"
        ok = isinstance(value, list) and all(
            isinstance(e, list) and len(e) == 4 and all(type(v) is int for v in e) for e in value
        )
    if not ok:
        raise ParameterError(f"config value {name} must be {want}: {value!r}")


def config_from_dict(data: dict) -> StudyConfig:
    sections = {
        "tissue": TissueDims,
        "thermal": ThermalParams,
        "elastic": ElasticParams,
        "geometry": GeometryDefaults,
        "sweep": SweepSpec,
        "refinement": MeshLevels,
        "learn": LearnSpec,
    }
    kwargs = {}
    for key, value in data.items():
        if key == "out_dir":
            _check_type(key, StudyConfig.out_dir, value)
            kwargs[key] = value
        elif key in sections:
            if not isinstance(value, dict):
                raise ParameterError(f"config section {key!r} must be an object")
            defaults = {f.name: f.default for f in dataclasses.fields(sections[key])}
            extra = set(value) - set(defaults)
            if extra:
                raise ParameterError(f"unknown keys in config section {key!r}: {sorted(extra)}")
            for name, v in value.items():
                _check_type(f"{key}.{name}", defaults[name], v)
            kwargs[key] = sections[key](**{  # a ladder's lists become tuples
                k: tuple(map(tuple, v)) if isinstance(v, list) else v for k, v in value.items()
            })
        else:
            raise ParameterError(f"unknown config key {key!r}")
    return StudyConfig(**kwargs)


def config_to_json(cfg: StudyConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"


def config_from_json(text: str) -> StudyConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError("config root must be a JSON object")
    return config_from_dict(data)


def load_config(path) -> StudyConfig:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config {path} is not UTF-8 text: {exc}") from exc
    return config_from_json(text)


def save_config(cfg: StudyConfig, path) -> None:
    atomic_write_text(path, config_to_json(cfg))


@cache
def _code_digest() -> str:
    """sha256 of the package's source files, by name in sorted order; read
    once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def config_hash(cfg: StudyConfig) -> str:
    """Canonical digest of the config, the package's code and the BLAS
    thread setting; sweeps resume only when all three are identical, because
    a code change can change any result and the banded Cholesky factor's
    last bits depend on the BLAS thread count. out_dir and learn are left
    out: neither changes a solved model, so a copied output directory resumes
    and a new learn split re-solves nothing."""
    config = dataclasses.asdict(cfg)
    del config["out_dir"], config["learn"]
    doc = {
        "config": config,
        "code": _code_digest(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# single-model run


def model_id(family: ShapeFamily, n: int) -> str:
    return f"{family.value}-n{int(n):03d}"


def tumor_shape(cfg: StudyConfig, family: ShapeFamily, n: int) -> TumorShape:
    g = cfg.geometry
    return TumorShape(
        family=family,
        n=n,
        base_area=g.base_area_mm2,
        inner_radius=g.star_inner_radius_mm,
        top_depth=g.top_depth_mm,
        prism_height=g.prism_height_mm,
    )


def refinement_spec(
    cfg: StudyConfig, family: ShapeFamily, level: int | None = None
) -> RefinementSpec:
    """Production refinement for a family.

    The local-refinement window is fixed per family from the widest sweep
    shape (the smallest n), so every model of a sweep shares one mesh
    topology and signatures vary smoothly with n.
    """
    ladder = cfg.refinement.ladder(family)
    idx = cfg.refinement.level if level is None else level
    if not 0 <= idx < len(ladder):
        raise ParameterError(f"refinement level {idx} out of range for {family.value}")
    nx, ny, nz, factor = (int(v) for v in ladder[idx])
    widest = place_prism(tumor_shape(cfg, family, cfg.sweep.start), cfg.tissue)
    box = widest.refine_window()
    return RefinementSpec(nx, ny, nz, local_factor=factor, refine_box=box)


@dataclass(frozen=True)
class ModelResult:
    """Everything one sweep model produces."""

    model_id: str
    family: str
    n: int
    signature: FourierSignature
    t_max_c: float
    x_max_m: float
    elements: int  # of the whole block, the mirrored half mesh
    nodes: int
    wall_time: float
    stage_s: dict  # seconds per stage: mesh, elastic (with deform), heat, profile_fit
    elastic: SolveStats
    heat: SolveStats
    field: ScalarField
    profile: SurfaceProfile


def run_model(
    cfg: StudyConfig,
    family: ShapeFamily,
    n: int,
    *,
    level: int | None = None,
) -> ModelResult:
    """geometry -> mesh -> elastic -> deform -> heat -> profile -> signature.

    The x <= x_len/2 half of the block is solved (see build_mesh); the
    profile and the element and node counts are those of the whole block.
    """
    t0 = time.perf_counter()
    geom = place_prism(tumor_shape(cfg, family, n), cfg.tissue)
    mesh = build_mesh(geom, refinement_spec(cfg, family, level))
    t_mesh = time.perf_counter()
    u, elastic = solve_elastic(mesh, cfg.elastic)
    moved = deform_mesh(mesh, u)
    t_elastic = time.perf_counter()
    field, heat = solve_heat(moved, cfg.thermal, method="direct")
    t_heat = time.perf_counter()
    profile = extract_profile(
        field,
        PROFILE_SAMPLES,
        x_range_mm=(0.0, cfg.tissue.x_len),
        y_mid_mm=cfg.tissue.y_len / 2.0,
    )
    sig = fit_fourier4(profile)
    x_max, t_max = max_surface_temp(profile)
    t_end = time.perf_counter()
    elements, nodes = mesh.block_counts()
    return ModelResult(
        model_id=model_id(family, n),
        family=family.value,
        n=n,
        signature=sig,
        t_max_c=t_max,
        x_max_m=x_max,
        elements=elements,
        nodes=nodes,
        wall_time=t_end - t0,
        stage_s={
            "mesh": t_mesh - t0,
            "elastic": t_elastic - t_mesh,
            "heat": t_heat - t_elastic,
            "profile_fit": t_end - t_heat,
        },
        elastic=elastic,
        heat=heat,
        field=field,
        profile=profile,
    )


# ---------------------------------------------------------------------------
# manifest


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)  # a bool is no number here


def _check_entry(path: Path, mid: str, entry) -> None:
    """ArtifactError naming the model unless the entry holds what the
    readers index: a status, and for an ok entry its dataset row as finite
    numbers and its artifact paths as strings, a profile among them."""
    if not isinstance(entry, dict) or "status" not in entry:
        raise ArtifactError(f"manifest {path}: entry {mid} is not an object with a status")
    if entry["status"] != "ok":
        return
    bad = [
        key for key in ("fit_rmse_rel", "t_max_c", "x_max_m")
        if not _is_finite_number(entry.get(key))
    ]
    sig = entry.get("signature")
    if not isinstance(sig, dict) or not all(_is_finite_number(sig.get(f)) for f in FEATURE_NAMES):
        bad.append("signature")
    arts = entry.get("artifacts")
    if not (isinstance(arts, dict) and "profile" in arts
            and all(isinstance(rel, str) for rel in arts.values())):
        bad.append("artifacts")
    if bad:
        raise ArtifactError(
            f"manifest {path}: ok entry {mid} lacks {', '.join(bad)} (missing or mistyped)"
        )


class RunManifest:
    """Per-model completion ledger (single JSON file, single writer).

    Each completed model records its signature row and artifact paths, so a
    dataset can be rebuilt without re-solving and interrupted sweeps resume
    where they stopped. A config-hash mismatch invalidates all entries.
    Each entry also keeps the model's stage timings and the SolveStats of
    its elastic and heat solves.
    """

    def __init__(self, path, cfg_hash: str, models: dict | None = None):
        self.path = Path(path)
        self.cfg_hash = cfg_hash
        self.models = dict(models or {})

    @classmethod
    def load(cls, path, cfg_hash: str, *, strict: bool = False) -> "RunManifest":
        """The ledger at path; on a config-hash mismatch an empty one, or
        ArtifactError when strict (readers that cannot re-solve)."""
        path = Path(path)
        if not path.exists():
            return cls(path, cfg_hash)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:  # a directory, no read permission
            raise ArtifactError(f"manifest {path} cannot be read: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ArtifactError(f"manifest {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("models", {}), dict):
            raise ArtifactError(f"manifest {path} is not a JSON object of models")
        if data.get("config_hash") != cfg_hash:
            if strict:
                threads = ", ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
                raise ArtifactError(
                    f"manifest {path} was written under another config, code version or "
                    f"BLAS thread setting (config_hash differs; this run has {threads}); "
                    "re-run the sweep with this code and the same config and thread variables"
                )
            return cls(path, cfg_hash)
        models = data.get("models", {})
        for mid, entry in models.items():
            _check_entry(path, mid, entry)
        return cls(path, cfg_hash, models)

    def save(self) -> None:
        doc = {"config_hash": self.cfg_hash, "models": self.models}
        atomic_write_text(self.path, json.dumps(doc, indent=1, sort_keys=True) + "\n")

    def completed(self, mid: str) -> bool:
        return self.models.get(mid, {}).get("status") == "ok"

    def record_ok(self, result: ModelResult, artifacts: dict) -> None:
        sig = result.signature
        self.models[result.model_id] = {
            "status": "ok",
            "family": result.family,
            "n": result.n,
            "elements": result.elements,
            "nodes": result.nodes,
            "wall_time": result.wall_time,
            "stage_s": result.stage_s,
            "elastic": dataclasses.asdict(result.elastic),
            "heat": dataclasses.asdict(result.heat),
            "signature": dict(zip(FEATURE_NAMES, (float(v) for v in sig.features()))),
            "fit_rmse_rel": sig.fit_rmse_rel,
            "t_max_c": result.t_max_c,
            "x_max_m": result.x_max_m,
            "artifacts": artifacts,
        }

    def record_error(self, mid: str, family: ShapeFamily, n: int, message: str) -> None:
        self.models[mid] = {
            "status": "error",
            "family": family.value,
            "n": n,
            "message": message,
        }


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepResult:
    dataset: Dataset
    csv_path: Path
    solved: tuple  # model ids actually solved by this call
    skipped: tuple  # model ids resumed from the manifest
    failed: tuple  # (model id, message) pairs


def _contour_model(cfg: StudyConfig) -> str:
    """The model whose mid-plane section the contour figure shows: the first
    family's model closest to CONTOUR_MODEL_N, ties toward smaller n."""
    pick = min(cfg.sweep.values(), key=lambda n: (abs(n - CONTOUR_MODEL_N), n))
    return model_id(tuple(ShapeFamily)[0], pick)


def _unfinished(cfg: StudyConfig, manifest: RunManifest, families) -> list:
    """The (family, n) sweep models of the families that are not finished, in
    that order. A model is finished when its manifest entry is ok, lists a
    section exactly when the model is _contour_model(cfg), and every file it
    lists exists."""
    out_dir, contour = Path(cfg.out_dir), _contour_model(cfg)

    def finished(mid: str) -> bool:
        arts = manifest.models[mid]["artifacts"] if manifest.completed(mid) else None
        return arts is not None and ("section" in arts) == (mid == contour) and all(
            (out_dir / rel).exists() for rel in arts.values()
        )

    return [(f, n) for f in families for n in cfg.sweep.values() if not finished(model_id(f, n))]


def _write_model_artifacts(out_dir: Path, result: ModelResult, section_y_mm: float | None) -> dict:
    """Centerline profile of one model and, given section_y_mm, its section
    at that mid-plane, else no section.csv; the path of each file written,
    by kind. The section covers the whole block: the solved half's nodes,
    then their mirror images, the plane nodes written once."""
    rel_dir = Path("models") / result.model_id
    (out_dir / rel_dir).mkdir(parents=True, exist_ok=True)
    arts = {"profile": str(rel_dir / "profile.csv")}
    write_csv(
        out_dir / arts["profile"],
        PROFILE_COLUMNS,
        list(zip(result.profile.positions, result.profile.temps)),
    )
    if section_y_mm is None:
        (out_dir / rel_dir / "section.csv").unlink(missing_ok=True)
    else:
        arts["section"] = str(rel_dir / "section.csv")
        mesh = result.field.mesh
        x, z, t = mesh.nodes[:, 0], mesh.nodes[:, 2], result.field.values
        keep = np.abs(mesh.nodes[:, 1] - section_y_mm) <= SECTION_HALF_WIDTH_MM
        mirror = keep.copy()  # the plane nodes are their own mirror images
        mirror[mesh.boundary_nodes(FaceTag.SYMMETRY)] = False
        rows = list(zip(x[keep], z[keep], t[keep]))
        rows += zip(2.0 * mesh.symmetry_x - x[mirror], z[mirror], t[mirror])
        write_csv(out_dir / arts["section"], SECTION_COLUMNS, rows)
    return arts


def run_sweep(
    cfg: StudyConfig, families, *, workers: int = 1
) -> tuple[SweepResult, ...]:
    """Solve every sweep model of the given families and write one dataset
    CSV per family; one SweepResult per family, in the order given.

    Exactly the models that are not finished are solved (_unfinished): a
    finished model's manifest entry, under the same config hash, is ok, lists
    a section exactly when the model is the contour model, and every file it
    lists exists. Failures are recorded per model and the sweep continues.
    With workers > 1 and more than one pending model, one pool of at most
    `workers` processes solves the models of all families. The manifest is
    saved at most every MANIFEST_SAVE_INTERVAL_S and once when the loop
    ends, also when it is interrupted.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.json")
    manifest = RunManifest.load(out_dir / "manifest.json", config_hash(cfg))
    contour = _contour_model(cfg)
    orders = cfg.sweep.values()
    pending = _unfinished(cfg, manifest, families)
    solved = {family: [] for family in families}
    failed = {family: [] for family in families}
    last_save = time.monotonic()

    def finish(family: ShapeFamily, n: int, solve) -> None:
        """Run or collect one model's solve and record its outcome."""
        nonlocal last_save
        mid = model_id(family, n)
        try:
            result = solve()
        except Exception as exc:  # recorded per model; sweep continues
            message = f"{type(exc).__name__}: {exc}"
            manifest.record_error(mid, family, n, message)
            failed[family].append((mid, message))
            log.warning("%s failed: %s", mid, message)
        else:
            y_mid = cfg.tissue.y_len / 2.0 if mid == contour else None
            artifacts = _write_model_artifacts(out_dir, result, y_mid)
            manifest.record_ok(result, artifacts)
            solved[family].append(mid)
            stages = ", ".join(f"{k} {v:.2f}" for k, v in result.stage_s.items())
            log.info(
                "%s ok in %.2f s (%s); residuals elastic %.1e, heat %.1e",
                mid, result.wall_time, stages,
                result.elastic.final_residual, result.heat.final_residual,
            )
        if time.monotonic() - last_save >= MANIFEST_SAVE_INTERVAL_S:
            manifest.save()
            last_save = time.monotonic()

    try:
        if workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                futures = deque(pool.submit(run_model, cfg, *job) for job in pending)
                for job in pending:
                    # popped so that each result is freed once it is reduced
                    finish(*job, futures.popleft().result)
        else:
            for job in pending:
                finish(*job, partial(run_model, cfg, *job))
    finally:  # an interrupted sweep still records every finished model
        manifest.save()

    results = []
    for family in families:
        skipped = tuple(model_id(family, n) for n in orders if (family, n) not in pending)
        dataset, rows = _dataset(cfg, family, manifest)
        csv_path = out_dir / f"dataset_{family.value}.csv"
        write_csv(csv_path, DATASET_COLUMNS, rows)
        results.append(
            SweepResult(dataset, csv_path, tuple(solved[family]), skipped, tuple(failed[family]))
        )
    return tuple(results)


def _dataset(
    cfg: StudyConfig, family: ShapeFamily, manifest: RunManifest
) -> tuple[Dataset, list]:
    """The family's ok manifest entries in n order: as a Dataset, and as the
    DATASET_COLUMNS rows of its dataset CSV."""
    rows = []
    for n in cfg.sweep.values():
        mid = model_id(family, n)
        if manifest.completed(mid):
            entry = manifest.models[mid]
            rows.append(
                [mid, family.value, n]
                + [entry["signature"][name] for name in FEATURE_NAMES]
                + [entry["fit_rmse_rel"], entry["t_max_c"], entry["x_max_m"]]
            )
    width = len(FEATURE_NAMES)
    dataset = Dataset(
        np.array([row[3:3 + width] for row in rows], dtype=float).reshape(len(rows), width),
        np.array([row[2] for row in rows], dtype=float),
        family=family.value,
    )
    return dataset, rows


def _complete_manifest(cfg: StudyConfig, families) -> RunManifest:
    """The manifest of a finished sweep, for the readers that cannot re-solve.

    ArtifactError when it was written under another config or BLAS thread
    setting, or when a model of the families is not finished (_unfinished,
    which the sweep re-solves); the error's `missing` lists those models.
    """
    manifest = RunManifest.load(Path(cfg.out_dir) / "manifest.json", config_hash(cfg), strict=True)
    missing = [model_id(family, n) for family, n in _unfinished(cfg, manifest, families)]
    if missing:
        raise ArtifactError(
            f"sweep incomplete: {len(missing)} models not finished: "
            f"{', '.join(missing[:5])}{', ...' if len(missing) > 5 else ''}",
            missing=missing,
        )
    return manifest


def load_dataset(cfg: StudyConfig, family: ShapeFamily) -> Dataset:
    """The family's dataset, rebuilt from the manifest of its finished sweep."""
    return _dataset(cfg, family, _complete_manifest(cfg, (family,)))[0]


# ---------------------------------------------------------------------------
# mesh-independence study


@dataclass(frozen=True)
class MeshStudyReport:
    """Consecutive-level temperature agreement for one model."""

    family: str
    n: int
    levels: tuple  # (nx, ny, nz, factor) per level
    elements: tuple
    nodes: tuple
    t_max_c: tuple
    wall_times: tuple
    rel_diffs: tuple  # len(levels) - 1, each vs the next (finer) level

    @property
    def passes(self) -> bool:
        return bool(self.rel_diffs and self.rel_diffs[0] < 0.01)


def mesh_study(cfg: StudyConfig, family: ShapeFamily, n: int = 10) -> MeshStudyReport:
    """Solve one model across the refinement ladder and compare profiles.

    The difference metric is the max pointwise relative temperature gap
    between consecutive levels on the common centerline sampling, with the
    finer level as the reference.
    """
    ladder = cfg.refinement.ladder(family)
    if len(ladder) < 2:
        raise ParameterError("mesh study needs at least two refinement levels")
    results = [run_model(cfg, family, n, level=idx) for idx in range(len(ladder))]
    diffs = tuple(  # each level against the next, finer one
        float(np.max(np.abs(a.profile.temps - b.profile.temps) / np.abs(b.profile.temps)))
        for a, b in zip(results, results[1:])
    )
    levels = tuple(tuple(int(v) for v in entry) for entry in ladder)
    report = MeshStudyReport(
        family=family.value,
        n=n,
        levels=levels,
        elements=tuple(r.elements for r in results),
        nodes=tuple(r.nodes for r in results),
        t_max_c=tuple(r.t_max_c for r in results),
        wall_times=tuple(r.wall_time for r in results),
        rel_diffs=diffs,
    )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [i, *level, r.elements, r.nodes, r.t_max_c, "" if i == 0 else diffs[i - 1], r.wall_time]
        for i, (level, r) in enumerate(zip(levels, results))
    ]
    write_csv(
        out_dir / f"mesh_study_{family.value}_n{n:03d}.csv",
        ["level", "nx", "ny", "nz", "local_factor", "elements", "nodes",
         "t_max_c", "rel_diff_prev", "wall_s"],
        rows,
    )
    return report


# ---------------------------------------------------------------------------
# ambient calibration


# the (family, n) model whose T_max calibrate_ambient matches to the target
CALIBRATION_MODEL = (ShapeFamily.REGULAR_POLYGON, 3)


def calibrate_ambient(cfg: StudyConfig, target_c: float = 29.7) -> float:
    """Ambient temperature that puts CALIBRATION_MODEL's T_max at target.

    The steady temperature field is affine in t_ambient (it enters only the
    Robin right-hand side), so two solves determine the calibration exactly.
    """
    family, n = CALIBRATION_MODEL
    a0 = cfg.thermal.t_ambient
    a1 = a0 - 2.0
    t0 = run_model(cfg, family, n).t_max_c
    shifted = dataclasses.replace(cfg, thermal=dataclasses.replace(cfg.thermal, t_ambient=a1))
    t1 = run_model(shifted, family, n).t_max_c
    slope = (t1 - t0) / (a1 - a0)
    if abs(slope) < 1e-12:
        raise ParameterError("T_max does not respond to ambient temperature")
    return a0 + (target_c - t0) / slope


# ---------------------------------------------------------------------------
# learning stage


@dataclass(frozen=True)
class LearningResult:
    family: str
    seed: int
    model: RbfModel
    train_report: EvalReport
    test_report: EvalReport
    test_rank_corr: float
    paths: tuple


def run_learning(
    dataset: Dataset, cfg: StudyConfig, seed: int | None = None, *, persist: bool = True
) -> LearningResult:
    """Split, train the exact-interpolation RBF, evaluate both splits."""
    seed = cfg.learn.split_seed if seed is None else int(seed)
    split = split_dataset(dataset, seed, cfg.learn.train_size, cfg.learn.test_size)
    x_train, y_train = split.rows(TRAIN)
    x_test, y_test = split.rows(TEST)
    model = train_rbf(x_train, y_train)
    train_report = evaluate(model, x_train, y_train)
    test_report = evaluate(model, x_test, y_test)
    corr = rank_correlation(predict(model, x_test), y_test)
    paths = ()
    if persist:
        learn_dir = Path(cfg.out_dir) / "learn"
        learn_dir.mkdir(parents=True, exist_ok=True)
        stem = dataset.family or "dataset"
        model_path = learn_dir / f"{stem}_model.txt"
        train_path = learn_dir / f"{stem}_train_report.csv"
        test_path = learn_dir / f"{stem}_test_report.csv"
        save_model(model, model_path)
        write_report_csv(train_report, train_path)
        write_report_csv(test_report, test_path)
        paths = (model_path, train_path, test_path)
    return LearningResult(
        family=dataset.family,
        seed=seed,
        model=model,
        train_report=train_report,
        test_report=test_report,
        test_rank_corr=corr,
        paths=paths,
    )


# ---------------------------------------------------------------------------
# figures


def _read_float_table(path: Path, columns: list) -> np.ndarray:
    """A numeric CSV written by write_csv as a (rows, columns) array."""
    try:
        header, rows = read_csv(path)
        if header != columns:
            raise ValueError(f"header {header}, expected {columns}")
        if not rows:
            raise ValueError("no data rows")
        if any(len(row) != len(columns) for row in rows):
            raise ValueError(f"a row does not have {len(columns)} fields")
        table = np.array([[float(v) for v in row] for row in rows])
        if not np.isfinite(table).all():
            raise ValueError("a value is not finite")
        return table
    except OSError as exc:  # a directory, no read permission
        raise ArtifactError(f"table {path} cannot be read: {exc}") from exc
    except ValueError as exc:
        raise ArtifactError(f"malformed table {path}: {exc}") from exc


def _idw_resample(px, pz, pt, grid_x, grid_z) -> np.ndarray:
    """Inverse-distance-squared resampling of scattered slice nodes."""
    gx, gz = np.meshgrid(grid_x, grid_z, indexing="ij")
    d2 = (gx.ravel()[:, None] - px) ** 2 + (gz.ravel()[:, None] - pz) ** 2
    w = 1.0 / (d2 + 1e-9)
    vals = (w @ pt) / w.sum(axis=1)
    return vals.reshape(gx.shape)


def make_figures(cfg: StudyConfig) -> tuple:
    """Emit every figure with the raw CSV behind it; nothing partial.

    Requires every sweep model of both families completed with its
    artifacts; one ArtifactError names all the models that are not.
    All documents are assembled in memory before the first file is written.
    """
    families = tuple(ShapeFamily)
    out_dir = Path(cfg.out_dir)
    fig_dir = out_dir / "figures"
    orders = cfg.sweep.values()

    manifest = _complete_manifest(cfg, families)
    documents = {}  # relative name -> text

    for family in families:
        # --- T_max vs n
        ts = [manifest.models[model_id(family, n)]["t_max_c"] for n in orders]
        name = f"fig_tmax_{family.value}"
        documents[f"{name}.csv"] = csv_text(["n", "t_max_c"], list(zip(orders, ts)))
        documents[f"{name}.svg"] = svgplot.line_chart(
            [(family.value, [float(v) for v in orders], ts)],
            title=f"Maximum surface temperature vs {family.value} order",
            x_label="number of sides/wings n",
            y_label="T_max (deg C)",
            markers=True,
        )

        # --- centerline profile overlay
        # a slice holding none of the overlay orders shows its two end orders
        chosen = [n for n in PROFILE_OVERLAY_ORDERS if n in orders]
        chosen = chosen or sorted({min(orders), max(orders)})
        series, first_x = [], None
        for n in chosen:
            entry = manifest.models[model_id(family, n)]
            path = out_dir / entry["artifacts"]["profile"]
            x_m, t_c = _read_float_table(path, PROFILE_COLUMNS).T
            first_x = x_m if first_x is None else first_x
            series.append((f"n={n}", list(x_m * 1e3), list(t_c)))
        name = f"fig_profiles_{family.value}"
        header = ["x_mm"] + [f"t_c_n{n:03d}" for n in chosen]
        rows = [
            [first_x[i] * 1e3] + [series[j][2][i] for j in range(len(series))]
            for i in range(len(first_x))
        ]
        documents[f"{name}.csv"] = csv_text(header, rows)
        documents[f"{name}.svg"] = svgplot.line_chart(
            series,
            title=f"Top-surface centerline temperature, {family.value} tumors",
            x_label="x (mm)",
            y_label="T (deg C)",
        )

        # --- normalized-coefficient box plot
        feats = _dataset(cfg, family, manifest)[0].features
        normalized = fit_normalizer(feats).transform(feats)
        boxes, box_rows = [], []
        for j, fname in enumerate(FEATURE_NAMES):
            stats = coefficient_stats(normalized[:, j])
            five = (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum)
            boxes.append((fname, five))
            box_rows.append([fname, *five])
        name = f"fig_box_{family.value}"
        documents[f"{name}.csv"] = csv_text(
            ["coefficient", "min", "q1", "median", "q3", "max"], box_rows
        )
        documents[f"{name}.svg"] = svgplot.box_chart(
            boxes,
            title=f"Normalized signature coefficients, {family.value} sweep",
            x_label="coefficient",
            y_label="normalized value",
        )

    # --- mid cross-section contour of the one model with a section
    mid = _contour_model(cfg)
    path = out_dir / manifest.models[mid]["artifacts"]["section"]
    x, z, t = _read_float_table(path, SECTION_COLUMNS).T
    grid_x = np.linspace(x.min(), x.max(), 61)
    grid_z = np.linspace(z.min(), z.max(), 26)
    vals = _idw_resample(x, z, t, grid_x, grid_z)
    contour_rows = [
        [grid_x[i], grid_z[j], vals[i, j]]
        for i in range(len(grid_x))
        for j in range(len(grid_z))
    ]
    documents["fig_contour.csv"] = csv_text(["x_mm", "z_mm", "t_c"], contour_rows)
    xe = np.linspace(grid_x[0], grid_x[-1], len(grid_x) + 1)
    ze = np.linspace(grid_z[0], grid_z[-1], len(grid_z) + 1)
    documents["fig_contour.svg"] = svgplot.heatmap(
        list(xe),
        list(ze),
        [[float(vals[i, j]) for i in range(len(grid_x))] for j in range(len(grid_z))],
        title=f"Mid cross-section temperature, {mid}",
        x_label="x (mm)",
        y_label="z (mm)",
        value_label="T (deg C)",
    )

    # everything assembled; write in deterministic order
    fig_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for rel in sorted(documents):
        atomic_write_text(fig_dir / rel, documents[rel])
        written.append(fig_dir / rel)
    return tuple(written)
