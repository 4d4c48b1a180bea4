"""The program side of the study benchmark, run in a fresh interpreter.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and reads the
JSON document it writes to ``--result``. Modes:

  setup         import tactherm.cli, load a config, optionally solve one
                warm-up model and one reference model
  solve         setup with warm-up, then run_model over the given pairs,
                each call preceded by one reference LU solve
  reference     the reference LU solve, --repeats times in each of
                --workers processes
  sweep-trace   the sweep command in this process at --workers 1, traced
  ladder        both mesh-study commands in this process, untraced, then
                the PCG heat solve beside the direct one on every level

Only the standard library is imported before the clock starts, so a setup
probe measures the cost a user of the package pays.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time

WARMUP = ("polygon", 3)  # production sweep start
CORES = 2  # parallel efficiency is taken over two cores, as for the sweep
REFERENCE_GRID = (12, 12, 14)  # 6048 unknowns, about 0.5 s on a 2-core Xeon VM


def reference_solver():
    """A fixed sparse LU solve that times the host, not the program.

    The host's speed drifts by a third over minutes, and a SuperLU
    factorization of this 3x3-block, 27-point system slows down with it the
    way tactherm's elastic solve does. Timing it beside the program lets
    the benchmark report program time in units of this solve. Returns a
    function giving (seconds, relative residual) of one solve; the matrix is
    built once, outside the timing.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    def line(n):
        return sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(n, n))

    nx, ny, nz = REFERENCE_GRID
    stencil = sp.kron(sp.kron(line(nx), line(ny)), line(nz))
    laplacian = 27.0 * sp.eye(stencil.shape[0]) - stencil
    block = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    K = sp.kron(laplacian, block, format="csc")
    b = np.ones(K.shape[0])

    def solve() -> tuple[float, float]:
        t0 = time.perf_counter()
        x = splu(K).solve(b)
        seconds = time.perf_counter() - t0
        return seconds, float(np.linalg.norm(K @ x - b) / np.linalg.norm(b))

    return solve


def _setup(config_path: str, warmup: bool):
    """Import, load the config and (for solve) one untimed warm-up solve.

    Returns the config and the set-up record: the monotonic time at which
    the first model could start, and the import time of tactherm.cli.
    """
    t0 = time.perf_counter()
    import tactherm.cli  # noqa: F401  (the import cost is part of set-up)
    import_s = time.perf_counter() - t0
    from tactherm.geometry import ShapeFamily
    from tactherm.pipeline import load_config, run_model

    cfg = load_config(config_path)
    if warmup:
        run_model(cfg, ShapeFamily(WARMUP[0]), WARMUP[1])
    return cfg, {"ready": time.monotonic(), "import_s": import_s}


class _Checks:
    """Solver statistics captured from the layer calls of one run."""

    def __init__(self):
        self.elastic_residuals = []
        self.heat_residuals = []
        self.heat_solves = []  # (deformed mesh, params, tol, direct values)

    def hooks(self, keep_heat: bool) -> dict:
        def elastic(_name, _args, _kwargs, result):
            self.elastic_residuals.append(result[1].final_residual)

        def heat(_name, args, kwargs, result):
            field, stats = result
            self.heat_residuals.append(stats.final_residual)
            if keep_heat:
                self.heat_solves.append(
                    (args[0], args[1], kwargs.get("tol", 1e-10), field.values)
                )

        return {"fem.solve_elastic": elastic, "fem.solve_heat": heat}


def _mesh_size(_name, _args, _kwargs, mesh) -> dict:
    return {"tets": mesh.n_tets, "nodes": mesh.n_nodes}


def _recorder(trace: bool, checks: _Checks, keep_heat: bool | None = None):
    from tracing import Recorder

    rec = Recorder(trace=trace)
    rec.on_result.update(checks.hooks(keep_heat=trace if keep_heat is None else keep_heat))
    if trace:
        rec.on_result["mesh.build_mesh"] = _mesh_size
    return rec


def _heat_side_studies(checks: _Checks) -> tuple[dict, list]:
    """PCG beside the direct solve, and the energy balance, on every kept
    deformed mesh. Runs after the traced work, outside every span.

    Returns the metrics and one row per mesh."""
    from tactherm.fem import ScalarField, energy_balance, solve_heat

    pcg_s, iters, diffs, energy, rows = 0.0, [], [], [], []
    for mesh, params, tol, direct in checks.heat_solves:
        t0 = time.perf_counter()
        field, stats = solve_heat(mesh, params, method="pcg", tol=tol)
        dt = time.perf_counter() - t0
        diff = float(abs(field.values - direct).max())
        bal = energy_balance(ScalarField(mesh, direct), params)
        pcg_s += dt
        iters.append(stats.iterations)
        diffs.append(diff)
        energy.append(bal.residual_rel)
        rows.append({"tets": mesh.n_tets, "pcg_s": dt, "iters": stats.iterations,
                     "max_diff_c": diff})
    checks.heat_solves.clear()
    return {
        "fem.heat_pcg_s": pcg_s,
        "fem.heat_pcg_iters": max(iters, default=0),
        "fem.heat_pcg_max_diff_c": max(diffs, default=0.0),
        "fem.energy_residual": max(energy, default=0.0),
    }, rows


def _layer_metrics(rec, checks: _Checks) -> dict:
    run_model_s = rec.total("pipeline.run_model")
    manifest_idx = {i for i, s in enumerate(rec.spans) if s.name == "pipeline.manifest_save"}
    writes = rec.named("textio.atomic_write_text")
    meshes = [(s.counts.get("tets", 0), s.counts.get("nodes", 0))
              for s in rec.named("mesh.build_mesh")]
    metrics = {
        "mesh.build_s": rec.total("mesh.build_mesh"),
        "mesh.tets": max((m[0] for m in meshes), default=0),
        "mesh.nodes": max((m[1] for m in meshes), default=0),
        "fem.elastic_s": rec.total("fem.solve_elastic"),
        "fem.elastic_share": rec.total("fem.solve_elastic") / run_model_s if run_model_s else 0.0,
        "fem.elastic_residual": max(checks.elastic_residuals, default=0.0),
        "fem.deform_s": rec.total("fem.deform_mesh"),
        "fem.heat_s": rec.total("fem.solve_heat"),
        "fem.heat_residual": max(checks.heat_residuals, default=0.0),
        "signature.profile_s": rec.total("signature.extract_profile"),
        "signature.fit_s": rec.total("signature.fit_fourier4"),
        "pipeline.run_model_s": rec.self_time("pipeline.run_model"),
        "pipeline.manifest_saves": len(manifest_idx),
        "pipeline.manifest_bytes": sum(
            s.counts["bytes"] for s in writes if s.parent in manifest_idx
        ),
        "textio.write_s": rec.layer_busy("textio"),
        "textio.bytes_written": sum(s.counts["bytes"] for s in writes),
        "textio.files_written": len(writes),
        "learn.run_s": rec.total("learn.run_learning"),
        "figures.make_s": rec.total("svgplot.make_figures"),
    }
    heat_metrics, pcg_rows = _heat_side_studies(checks)
    metrics.update(heat_metrics)
    return {
        "metrics": metrics,
        "pcg_rows": pcg_rows,
        "run_model_total_s": run_model_s,
        "run_model_calls": len(rec.named("pipeline.run_model")),
        "run_model_coverage": rec.children_share("pipeline.run_model"),
        "spans": len(rec.spans),
        "uncalled": rec.uncalled(),
    }


def _solve(args) -> dict:
    """Run the pairs in order, repeating the list while the next pass is
    expected to end within --seconds. Each pass records one wall time per
    pair, in pair order, or None where run_model raised, and the time of
    the reference solve made just before each pair.

    Traced, the list runs once and every pair is solved twice, untraced and
    traced in alternating order, so that the difference is the tracing cost.
    """
    from tactherm.fem import energy_balance
    from tactherm.geometry import ShapeFamily
    from tactherm import pipeline

    cfg, out = _setup(args.config, warmup=True)
    pairs = [(ShapeFamily(f), int(n)) for f, n in json.loads(args.pairs)]
    checks = _Checks()
    plain = _recorder(False, checks)
    traced = _recorder(True, checks) if args.trace else None
    reference = reference_solver()
    out.update(units=[], refs=[], traced_walls=[], errors=[], energy_residuals=[],
               ref_residuals=[])

    def one(fam, n, rec, walls):
        rec.install()
        try:
            t0 = time.perf_counter()
            result = pipeline.run_model(cfg, fam, n)
            walls.append(time.perf_counter() - t0)
        except Exception as exc:  # counted as a failed model; the run goes on
            walls.append(None)
            out["errors"].append(f"{fam.value}-n{n:03d}: {type(exc).__name__}: {exc}")
            return
        finally:
            rec.uninstall()
        out["energy_residuals"].append(energy_balance(result.field, cfg.thermal).residual_rel)

    start = time.perf_counter()
    while True:
        walls, refs = [], []
        out["units"].append(walls)
        out["refs"].append(refs)
        pass_start = time.perf_counter()
        for i, (fam, n) in enumerate(pairs):
            ref_s, ref_residual = reference()
            refs.append(ref_s)
            out["ref_residuals"].append(ref_residual)
            if traced is None:
                one(fam, n, plain, walls)
            else:  # alternate which goes first so neither gets warmer caches
                order = [(plain, walls), (traced, out["traced_walls"])]
                for rec, sink in order[:: 1 if i % 2 == 0 else -1]:
                    one(fam, n, rec, sink)
        now = time.perf_counter()
        if traced is not None or (now - start) + (now - pass_start) > args.seconds:
            break
    out["elastic_residuals"] = checks.elastic_residuals
    out["heat_residuals"] = checks.heat_residuals
    if traced is not None:
        layer = _layer_metrics(traced, checks)
        untraced = [w for w in out["units"][0] if w is not None]
        layer["metrics"]["pipeline.parallel_efficiency"] = (
            layer["run_model_total_s"] / (CORES * sum(untraced)) if untraced else 0.0
        )
        traced_walls = [w for w in out["traced_walls"] if w is not None]
        if untraced and traced_walls:
            layer["trace_overhead_share"] = (
                statistics.median(traced_walls) / statistics.median(untraced) - 1.0
            )
        out["layer"] = layer
    return out


def _run_cli(argv) -> tuple[int, str]:
    from tactherm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sweep_trace(args) -> dict:
    _, out = _setup(args.config, warmup=False)
    checks = _Checks()
    rec = _recorder(True, checks)
    with rec:
        code, stdout = _run_cli(["--config", args.config, "--out", args.out, "all",
                                 "--workers", "1", "--seed", str(args.seed)])
    layer = _layer_metrics(rec, checks)
    out.update(codes=[code], stdout=[stdout], layer=layer)
    return out


def _ladder(args) -> dict:
    """Both mesh studies (levels 0-2), untraced, keeping each level's
    deformed mesh for the PCG side study."""
    _, out = _setup(args.config, warmup=False)
    checks = _Checks()
    codes, outs = [], []
    with _recorder(False, checks, keep_heat=True):
        for family in ("polygon", "star"):
            code, stdout = _run_cli(["--config", args.config, "--out", args.out,
                                     "mesh-study", "--family", family])
            codes.append(code)
            outs.append(stdout)
    pcg, rows = _heat_side_studies(checks)
    out.update(codes=codes, stdout=outs, pcg=pcg, pcg_rows=rows,
               elastic_residuals=checks.elastic_residuals,
               heat_residuals=checks.heat_residuals)
    return out


def _reference_repeats(repeats: int) -> list:
    solve = reference_solver()
    solve()  # untimed: the first factorization in a fresh process also grows its heap
    return [solve() for _ in range(repeats)]


def _reference(args) -> dict:
    """--repeats reference solves in each of --workers processes at once,
    so that the host is as busy as under a pool of that size."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(args.workers, mp_context=context) as pool:
        parts = list(pool.map(_reference_repeats, [args.repeats] * args.workers))
    runs = [r for part in parts for r in part]
    return {"refs": [r[0] for r in runs], "ref_residuals": [r[1] for r in runs]}


def _setup_probe(args) -> dict:
    cfg, out = _setup(args.config, warmup=args.warmup)
    if args.reference:
        from tactherm.geometry import ShapeFamily
        from tactherm.learn import FEATURE_NAMES
        from tactherm.pipeline import run_model

        family, n = args.reference.split(":")
        sig = run_model(cfg, ShapeFamily(family), int(n)).signature
        out["reference"] = dict(zip(FEATURE_NAMES, (float(v) for v in sig.features())))
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "solve", "reference", "sweep-trace", "ladder"])
    p.add_argument("--config")
    p.add_argument("--result", required=True)
    p.add_argument("--warmup", action="store_true")
    p.add_argument("--reference", help="family:n to solve after set-up")
    p.add_argument("--pairs", help="JSON list of [family, n]")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    args = p.parse_args()
    mode = {"setup": _setup_probe, "solve": _solve, "reference": _reference,
            "sweep-trace": _sweep_trace, "ladder": _ladder}[args.mode]
    result = mode(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
