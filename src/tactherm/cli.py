"""Command-line interface for the tactile-thermography study.

Subcommands mirror the pipeline stages; every run is driven by a JSON config
(defaults used when none is given). Exit codes: 0 success, 1 usage or config
error, 2 solver failure, 3 incomplete artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
from pathlib import Path

from .errors import (
    ArtifactError,
    DatasetSizeError,
    DeformationError,
    DegenerateFitError,
    ParameterError,
    PlacementError,
    SingularSystemError,
    SolverError,
    TrainingError,
)
from .fem import energy_balance
from .geometry import ShapeFamily, place_prism, write_polygon_csv
from .mesh import build_mesh, mesh_quality, write_mesh_text
from .pipeline import (
    CALIBRATION_MODEL,
    StudyConfig,
    calibrate_ambient,
    load_config,
    load_dataset,
    make_figures,
    mesh_study,
    model_id,
    refinement_spec,
    run_learning,
    run_model,
    run_sweep,
    tumor_shape,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_ARTIFACTS = 3

_SOLVER_ERRORS = (
    SolverError,
    SingularSystemError,
    DeformationError,
    DegenerateFitError,
    TrainingError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not sys.exit(2)."""

    def error(self, message):
        raise _UsageError(message)


def _family(value: str) -> ShapeFamily:
    try:
        return ShapeFamily(value)
    except ValueError:
        raise _UsageError(f"family must be 'polygon' or 'star', not {value!r}")


def _int_from(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {number}")
        return number

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _finite_float(value: str) -> float:
    """An argparse type: a float other than nan and +-inf."""
    number = float(value)
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"must be a finite number, not {value}")
    return number


_finite_float.__name__ = "float"  # argparse names it in "invalid float value"


def _build_parser() -> _Parser:
    parser = _Parser(prog="tactherm", description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, help="JSON study config")
    parser.add_argument("--out", type=Path, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="emit a tumor base polygon as CSV")
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", type=Path, help="output path (default <out>/polygon.csv)")

    p = sub.add_parser("mesh", help="build a model mesh and report quality")
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, default=None, help="refinement ladder index")
    p.add_argument("--text", type=Path, help="also export the solved half mesh as text")

    p = sub.add_parser("solve", help="run a single model end to end")
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--ambient", type=_finite_float, default=None, help="override t_ambient")
    p.add_argument("--energy", action="store_true", help="also report energy balance")

    p = sub.add_parser("sweep", help="run the full shape sweep for one family")
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--workers", type=_int_from(1), default=1)

    p = sub.add_parser("mesh-study", help="refinement-ladder independence study")
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--n", type=int, default=10)

    p = sub.add_parser("learn", help="train/evaluate the RBF on a sweep dataset")
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--seed", type=_int_from(0), default=None)

    p = sub.add_parser("calibrate", help="solve for the ambient matching a target T_max")
    p.add_argument("--target", type=_finite_float, default=29.7)

    p = sub.add_parser("figures", help="emit SVG figures and their CSV companions")

    p = sub.add_parser("all", help="sweep both families, learn, then figures")
    p.add_argument("--workers", type=_int_from(1), default=1)
    p.add_argument("--seed", type=_int_from(0), default=None)

    return parser


def _load(args) -> StudyConfig:
    cfg = load_config(args.config) if args.config else StudyConfig()
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=str(args.out))
    return cfg


def _check_learn_split(cfg: StudyConfig) -> None:
    """ParameterError unless the learn split takes each family's whole sweep
    slice, as split_dataset requires; checked before any model is solved."""
    train, test, size = cfg.learn.train_size, cfg.learn.test_size, len(cfg.sweep.values())
    if train + test != size:
        raise ParameterError(
            f"learn.train_size {train} + learn.test_size {test} must equal the "
            f"sweep slice size, {size} models per family"
        )


def _cmd_geometry(cfg, args) -> int:
    shape = tumor_shape(cfg, args.family, args.n)
    poly = shape.base_polygon()
    path = args.csv or Path(cfg.out_dir) / "polygon.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_polygon_csv(poly, path)
    print(f"{args.family.value} n={args.n}: {len(poly.vertices)} vertices, "
          f"area {poly.area:.6f} mm^2 -> {path}")
    return EXIT_OK


def _cmd_mesh(cfg, args) -> int:
    geom = place_prism(tumor_shape(cfg, args.family, args.n), cfg.tissue)
    mesh = build_mesh(geom, refinement_spec(cfg, args.family, args.level))
    q = mesh_quality(mesh)
    # the mesh is the x <= c half; the block is it and its mirror image
    tumor_mm3 = 2.0 * float(mesh.tet_volumes() @ mesh.tumor_frac)
    tets, nodes = mesh.block_counts()
    print(f"{model_id(args.family, args.n)}: {tets} tets, {nodes} nodes "
          f"(solved half: {mesh.n_tets} tets, {mesh.n_nodes} nodes)")
    print(f"  min dihedral {q.min_dihedral_deg:.2f} deg, "
          f"max aspect {q.max_aspect:.2f}, tumor volume {tumor_mm3:.2f} mm^3")
    if args.text:
        args.text.parent.mkdir(parents=True, exist_ok=True)
        write_mesh_text(mesh, args.text)
        print(f"  mesh written to {args.text}")
    return EXIT_OK


def _cmd_solve(cfg, args) -> int:
    if args.ambient is not None:
        cfg = dataclasses.replace(
            cfg, thermal=dataclasses.replace(cfg.thermal, t_ambient=args.ambient)
        )
    result = run_model(cfg, args.family, args.n, level=args.level)
    sig = result.signature
    print(f"{result.model_id}: {result.elements} tets, wall {result.wall_time:.2f} s")
    print(f"  T_max {result.t_max_c:.4f} C at x = {result.x_max_m * 1e3:.1f} mm")
    print(f"  a0 {sig.a0:.6f}, a {tuple(round(v, 6) for v in sig.a)}, "
          f"b {tuple(round(v, 6) for v in sig.b)}, w {sig.w:.4f} rad/m, "
          f"fit rmse {sig.fit_rmse_rel:.2e}")
    if args.energy:
        bal = energy_balance(result.field, cfg.thermal)
        print(f"  energy: generated {bal.generated_w:.6f} W, "
              f"out(top) {bal.outflow_top_w:.6f} W, out(bottom) {bal.outflow_bottom_w:.6f} W, "
              f"residual {bal.residual_rel:.2e}")
    return EXIT_OK


def _cmd_sweep(cfg, args) -> int:
    (result,) = run_sweep(cfg, (args.family,), workers=args.workers)
    print(f"sweep {args.family.value}: {len(result.solved)} solved, "
          f"{len(result.skipped)} resumed, {len(result.failed)} failed "
          f"-> {result.csv_path}")
    for mid, message in result.failed:
        print(f"  FAILED {mid}: {message}", file=sys.stderr)
    return EXIT_SOLVER if result.failed else EXIT_OK


def _cmd_mesh_study(cfg, args) -> int:
    report = mesh_study(cfg, args.family, args.n)
    print(f"mesh study {args.family.value} n={args.n}:")
    for i, (spec, elems, tmax, wall) in enumerate(
        zip(report.levels, report.elements, report.t_max_c, report.wall_times)
    ):
        diff = "" if i == 0 else f", diff vs prev {report.rel_diffs[i - 1]:.3e}"
        print(f"  level {i} {spec}: {elems} tets, T_max {tmax:.4f} C, "
              f"wall {wall:.2f} s{diff}")
    print(f"  verdict: {'PASS' if report.passes else 'FAIL'} "
          f"(coarse-vs-middle < 1% required)")
    return EXIT_OK


def _cmd_learn(cfg, args) -> int:
    _check_learn_split(cfg)
    dataset = load_dataset(cfg, args.family)
    result = run_learning(dataset, cfg, seed=args.seed)
    tr, te = result.train_report, result.test_report
    print(f"learn {args.family.value} (seed {result.seed}): "
          f"train rmse {tr.rmse:.3e}, test rmse {te.rmse:.3e}, "
          f"test rounded accuracy {te.rounded_accuracy:.4f}, "
          f"rank corr {result.test_rank_corr:.4f}")
    for path in result.paths:
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_calibrate(cfg, args) -> int:
    ambient = calibrate_ambient(cfg, target_c=args.target)
    family, n = CALIBRATION_MODEL
    print(f"calibrated t_ambient = {ambient!r} C "
          f"({family.value} n={n} T_max -> {args.target} C)")
    return EXIT_OK


def _cmd_figures(cfg, _args) -> int:
    written = make_figures(cfg)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_all(cfg, args) -> int:
    _check_learn_split(cfg)
    families = tuple(ShapeFamily)
    failures = []
    for family, result in zip(families, run_sweep(cfg, families, workers=args.workers)):
        print(f"sweep {family.value}: {len(result.solved)} solved, "
              f"{len(result.skipped)} resumed, {len(result.failed)} failed")
        failures.extend(result.failed)
        if not result.failed:
            learning = run_learning(result.dataset, cfg, seed=args.seed)
            te = learning.test_report
            print(f"learn {family.value}: train rmse {learning.train_report.rmse:.3e}, "
                  f"test rounded accuracy {te.rounded_accuracy:.4f}")
    if failures:
        for mid, message in failures:
            print(f"  FAILED {mid}: {message}", file=sys.stderr)
        return EXIT_SOLVER
    make_figures(cfg)
    print(f"figures written under {Path(cfg.out_dir) / 'figures'}")
    return EXIT_OK


_COMMANDS = {
    "geometry": _cmd_geometry,
    "mesh": _cmd_mesh,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "mesh-study": _cmd_mesh_study,
    "learn": _cmd_learn,
    "calibrate": _cmd_calibrate,
    "figures": _cmd_figures,
    "all": _cmd_all,
}


def main(argv=None) -> int:
    # per-model progress of sweeps goes to stderr
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load(args)
        return _COMMANDS[args.command](cfg, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, PlacementError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ArtifactError, DatasetSizeError) as exc:
        print(f"incomplete artifacts: {exc}", file=sys.stderr)
        return EXIT_ARTIFACTS


if __name__ == "__main__":
    sys.exit(main())
