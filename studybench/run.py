#!/usr/bin/env python3
"""Study benchmark for tactherm: the solve and sweep workloads.

    python3 studybench/run.py [--workload solve|sweep|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree: the package is imported from ``src``,
nothing needs to be installed. Each workload prints its metrics by name with
their units, runs its correctness checks and ends with one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The metric names and units come from ``BENCHMARK.json``. The exit code is 1
when a check fails and 2 when the source tree is not there. See NOTES.md for
what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
WORK = ROOT / ".studybench"  # run directories and the digest state

RUN_BUDGET_S = 170.0  # a run must end within 180 s
WORKERS = 2  # the sweep's pool size; also the core count efficiency is taken over
SETUP_REPEATS = 3
SOLVE_STRATA = 3  # n drawn per family, so 6 pairs
SWEEP_SLICE = {"start": 3, "step": 7, "stop": 100}  # n = 3, 10, ..., 94
LEARN_SPLIT = {"train_size": 10, "test_size": 4}  # the 14 rows of one family
REFINE_N = 10  # mesh-study default order
MAX_RESIDUAL = 1e-10
REFERENCE_REPEATS = 4  # per pool worker, before and after each sweep
FAMILIES = ("polygon", "star")


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    start: float  # time.monotonic() just before the process was started
    wall: float
    peak_mb: float  # sum over the process tree of per-process peak RSS
    output: str
    result: dict = field(default_factory=dict)


def _descendants(pid: int) -> list[int]:
    found, i = [pid], 0
    while i < len(found):
        p = found[i]
        i += 1
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    found.extend(int(c) for c in fh.read().split())
        except OSError:  # the process ended while we looked
            continue
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _watch(pid: int, deadline: float, stop: threading.Event, state: dict) -> None:
    """Sample the tree's summed peak RSS; kill the tree at the deadline."""
    while not stop.wait(0.1):
        state["peak_kb"] = max(state["peak_kb"], sum(_hwm_kb(p) for p in _descendants(pid)))
        if time.monotonic() > deadline and not state["killed"]:
            state["killed"] = True
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def run_proc(argv: list, log: Path, deadline: float, result: Path | None = None) -> Proc:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    state = {"peak_kb": 0, "killed": False}
    stop = threading.Event()
    with open(log, "w") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watcher = threading.Thread(target=_watch, args=(proc.pid, deadline, stop, state))
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.monotonic() - start
            stop.set()
            watcher.join()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:  # pool workers left behind by a crash end with the session
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    peak_kb = max(state["peak_kb"], usage.ru_maxrss)
    data = {}
    if result is not None and code == 0:
        data = json.loads(result.read_text())
    output = log.read_text()
    if state["killed"]:
        output += f"\n[killed at the {RUN_BUDGET_S:.0f} s run budget]\n"
    return Proc(code, start, wall, peak_kb / 1024.0, output, data)


def run_child(mode: str, run_dir: Path, deadline: float, *args) -> Proc:
    tag = f"{mode}-{len(list(run_dir.glob(mode + '-*.log')))}"
    result = run_dir / f"{tag}.json"
    argv = [sys.executable, str(HERE / "child.py"), mode, "--result", str(result), *map(str, args)]
    return run_proc(argv, run_dir / f"{tag}.log", deadline, result)


def run_cli(run_dir: Path, deadline: float, tag: str, *args) -> Proc:
    argv = [sys.executable, "-m", "tactherm.cli", *map(str, args)]
    return run_proc(argv, run_dir / f"{tag}.log", deadline)


# ---------------------------------------------------------------------------
# results


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # (label, text) lines of the report
    checks: list = field(default_factory=list)  # (passed, text)
    attempted: int = 0
    failed: int = 0
    import_times: list = field(default_factory=list)  # tactherm.cli, per probe
    reference: dict | None = None  # a signature solved in a set-up probe

    def check(self, passed: bool, text: str) -> bool:
        self.checks.append((bool(passed), text))
        return bool(passed)

    def note(self, label: str, text: str) -> None:
        self.notes.append((label, text))

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for ok, _ in self.checks)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _setup_probes(out: Outcome, run_dir: Path, deadline: float, config: Path,
                  repeats: int, warmup: bool, reference: str | None = None) -> list:
    """Fresh interpreters that import tactherm.cli and load the config.

    Returns each probe's set-up time: from process start until the first
    model could start. The last probe also solves ``reference`` if given.
    """
    times = []
    for i in range(repeats):
        extra = ["--warmup"] if warmup else []
        if reference and i == repeats - 1:
            extra += ["--reference", reference]
        p = run_child("setup", run_dir, deadline, "--config", config, *extra)
        out.count(1, p.code != 0)
        if not out.check(p.code == 0, f"set-up probe {i} exits 0 (code {p.code})"):
            out.note("probe output", p.output[-2000:])
            continue
        times.append(p.result["ready"] - p.start)
        out.import_times.append(p.result["import_s"])
        out.reference = p.result.get("reference", out.reference)
    return times


def _import_profile(out: Outcome, run_dir: Path, deadline: float) -> None:
    """cli.import_s from the probes, and the five costliest direct imports."""
    out.metrics["cli.import_s"] = _median(out.import_times)
    p = run_proc([sys.executable, "-X", "importtime", "-c", "import tactherm.cli"],
                 run_dir / "importtime.log", deadline)
    stack, direct = [], []
    lines = [ln for ln in p.output.splitlines() if ln.startswith("import time:")]
    for line in reversed(lines):  # parents are printed after their children
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if parent.startswith("tactherm") and not name.startswith("tactherm"):
            direct.append((int(parts[1]), name))
        stack.append((depth, name))
    top = sorted(direct, reverse=True)[:5]
    out.note("largest imports", ", ".join(f"{n} {us / 1e6:.3f} s" for us, n in top)
             + " (cumulative, python -X importtime, imported by tactherm modules)")


def _residual_check(out: Outcome, label: str, values: list, expected: int) -> None:
    worst = max(values, default=float("nan"))
    out.check(len(values) == expected and worst <= MAX_RESIDUAL,
              f"{label} residual <= {MAX_RESIDUAL:g} on {len(values)} of {expected} "
              f"solves (max {worst:.2e})")


def _layer_report(out: Outcome, layer: dict) -> None:
    out.metrics.update(layer["metrics"])
    total = layer["run_model_total_s"]
    out.note("run_model accounting",
             f"{total:.3f} s over {layer['run_model_calls']} traced calls; layer spans "
             f"cover {layer['run_model_coverage'] * 100:.2f} %, self time "
             f"{layer['metrics']['pipeline.run_model_s']:.4f} s; {layer['spans']} spans")
    if layer["uncalled"]:
        out.note("not called, so their metrics read 0", ", ".join(layer["uncalled"]))
    by_size: dict = {}
    for row in layer["pcg_rows"]:
        by_size.setdefault(row["tets"], []).append(row)
    for tets, rows in sorted(by_size.items()):
        out.note("pcg beside direct",
                 f"{tets} tets, {len(rows)} solve(s): median "
                 f"{_median([r['pcg_s'] for r in rows]):.4f} s, "
                 f"{max(r['iters'] for r in rows)} iterations, max |T_pcg - T_direct| "
                 f"{max(r['max_diff_c'] for r in rows):.2e} C")
    if "trace_overhead_share" in layer:
        out.note("tracing overhead",
                 f"median traced run_model / median untraced - 1 = "
                 f"{layer['trace_overhead_share'] * 100:+.2f} % (same process, same pairs)")


# ---------------------------------------------------------------------------
# workloads


def solve_pairs(seed: int) -> list:
    """One n from each fifth of 3..100 per family, in seeded order, families
    alternating: mesh cost grows with n, so every seed asks for the same
    spread of shape orders."""
    rng = random.Random(seed)
    edges = [3 + round(k * 98 / SOLVE_STRATA) for k in range(SOLVE_STRATA + 1)]
    orders = []
    for _ in FAMILIES:
        ns = [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]
        rng.shuffle(ns)
        orders.append(ns)
    return [[family, n] for pair in zip(*orders) for family, n in zip(FAMILIES, pair)]


def _seconds_report(out: Outcome, model_s: float, models_per_s: float, study_s: float,
                    ref_s: float, refs: int) -> None:
    """The raw times behind the *_rel metrics, which move with the host."""
    out.note("seconds", f"model_s {model_s:.4f} s, models_per_s {models_per_s:.4f} 1/s, "
             f"study_s {study_s:.4f} s; reference solve {ref_s:.4f} s (median of {refs})")


def _reference_runs(out: Outcome, run_dir: Path, deadline: float) -> list:
    p = run_child("reference", run_dir, deadline, "--repeats", REFERENCE_REPEATS,
                  "--workers", WORKERS)
    out.count(1, p.code != 0)
    if not out.check(p.code == 0, f"reference process exits 0 (code {p.code})"):
        out.note("reference output", p.output[-2000:])
        return []
    _residual_check(out, "reference", p.result["ref_residuals"], REFERENCE_REPEATS * WORKERS)
    return p.result["refs"]


def _refine_ladder(out: Outcome, run_dir: Path, deadline: float, layer: dict) -> None:
    """Traced solve only: both mesh studies in one untraced process, checked,
    and the PCG heat solve timed beside the direct one on each level."""
    ladder_dir = run_dir / "ladder"
    p = run_child("ladder", run_dir, deadline, "--config", DEFAULT_CONFIG, "--out", ladder_dir)
    if not out.check(p.code == 0, f"mesh-study process exits 0 (code {p.code})"):
        out.note("mesh-study output", p.output[-2000:])
        out.count(2 + 6, 2 + 6)
        return
    r = p.result
    for family, code, stdout in zip(FAMILIES, r["codes"], r["stdout"]):
        _check_mesh_study(out, code, stdout, ladder_dir, family)
    _residual_check(out, "mesh-study elastic", r["elastic_residuals"], 6)
    _residual_check(out, "mesh-study heat", r["heat_residuals"], 6)
    m, pcg = layer["metrics"], r["pcg"]
    m["fem.heat_pcg_s"] += pcg["fem.heat_pcg_s"]
    for key in ("fem.heat_pcg_iters", "fem.heat_pcg_max_diff_c", "fem.energy_residual"):
        m[key] = max(m[key], pcg[key])
    layer["pcg_rows"] += r["pcg_rows"]


def workload_solve(out: Outcome, run_dir: Path, seconds: float, deadline: float) -> None:
    pairs = solve_pairs(out.seed)
    out.note("pairs", " ".join(f"{f}-n{n:03d}" for f, n in pairs))
    # The measuring process is the last set-up sample, so one fewer probe.
    repeats = SETUP_REPEATS if out.trace else SETUP_REPEATS - 1
    setups = _setup_probes(out, run_dir, deadline, DEFAULT_CONFIG, repeats,
                           warmup=not out.trace)
    p = run_child("solve", run_dir, deadline, "--config", DEFAULT_CONFIG,
                  "--pairs", json.dumps(pairs), "--seconds", seconds,
                  "--trace", int(out.trace))
    if not out.check(p.code == 0, f"solve process exits 0 (code {p.code})"):
        out.note("solve output", p.output[-2000:])
        out.count(len(pairs), len(pairs))
        return
    r = p.result
    walls = [w for unit in r["units"] for w in unit if w is not None]
    per_pair = [[unit[i] / refs[i] for unit, refs in zip(r["units"], r["refs"])
                 if unit[i] is not None] for i in range(len(pairs))]
    ratios = [x for xs in per_pair for x in xs]
    solved = len(walls) + sum(w is not None for w in r["traced_walls"])
    out.count(solved + len(r["errors"]), len(r["errors"]))
    for message in r["errors"]:
        out.check(False, f"run_model raised: {message}")
    if not out.trace:
        setups.append(r["ready"] - p.start)
    _residual_check(out, "elastic", r["elastic_residuals"], solved)
    _residual_check(out, "heat", r["heat_residuals"], solved)
    _residual_check(out, "energy balance", r["energy_residuals"], solved)
    _residual_check(out, "reference", r["ref_residuals"], len(r["ref_residuals"]))
    refs = [ref for unit in r["refs"] for ref in unit]
    out.metrics.update({
        "setup_s": _median(setups),
        "model_rel": _median(ratios),
        "study_rel": sum(_median(xs) for xs in per_pair),
        "peak_rss_mb": p.peak_mb,
    })
    _seconds_report(out, _median(walls), len(walls) / sum(walls) if walls else 0.0,
                    _median([sum(unit) for unit in r["units"] if None not in unit]),
                    _median(refs), len(refs))
    if out.trace:
        _refine_ladder(out, run_dir, deadline, r["layer"])
        _layer_report(out, r["layer"])
        return
    out.note("samples", f"{len(walls)} run_model calls in {len(r['units'])} pass(es) over "
             f"the pairs, each after one reference solve; model_rel is the median of "
             f"the {len(ratios)} call/reference ratios, study_rel the sum over the pairs "
             f"of each pair's median ratio; set-up median of {len(setups)} fresh "
             "processes (imports, config, one warm-up solve)")


def sweep_config(run_dir: Path) -> Path:
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["sweep"] = dict(SWEEP_SLICE)
    cfg["learn"].update(LEARN_SPLIT)
    path = run_dir / "sweep_config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _dataset_digests(out_dir: Path) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in (f"dataset_{f}.csv" for f in FAMILIES)
            if (out_dir / name).exists()}


def _check_identity(out: Outcome, config: Path, digests: dict) -> None:
    """Dataset CSVs must match the bytes an earlier run of this tree wrote.

    The sweep's datasets do not depend on the seed (it only picks the learn
    split), so every run with the same generated config must agree.
    """
    if not out.check(len(digests) == len(FAMILIES), "dataset CSVs written"):
        return
    state_path = WORK / "state.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    key = hashlib.sha256(config.read_bytes()).hexdigest()
    known = state.setdefault("datasets", {}).get(key)
    if known is None:
        state["datasets"][key] = digests
        tmp = state_path.with_name(f"state.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, state_path)
        out.note("byte identity", "first sweep in this tree: dataset digests recorded")
    else:
        out.check(known == digests, "dataset CSVs byte-identical to an earlier run")


def _check_sweep_output(out: Outcome, out_dir: Path, expected: list, reference) -> list:
    """Checks one `tactherm all` output dir; returns the models' wall times."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())["models"]
    except (OSError, ValueError, KeyError) as exc:
        out.check(False, f"manifest readable ({exc})")
        out.count(len(expected), len(expected))
        return []
    ok = [mid for mid in expected if manifest.get(mid, {}).get("status") == "ok"]
    errors = [mid for mid, e in manifest.items() if e.get("status") == "error"]
    out.count(len(expected), len(expected) - len(ok))
    out.check(not errors, f"no manifest error entries ({len(errors)} found)")
    out.check(len(ok) == len(expected), f"{len(ok)} of {len(expected)} models ok")
    missing = [f"{mid}/{key}" for mid in ok
               for key, rel in manifest[mid].get("artifacts", {}).items()
               if not (out_dir / rel).exists()]
    out.check(ok and not missing, f"every listed artifact exists ({len(missing)} missing)")
    if reference is not None:
        mid, sig = reference
        got = manifest.get(mid, {}).get("signature")
        out.check(got == sig, f"{mid} signature equals a serial in-process run_model, "
                  "bit for bit")
    return [manifest[mid]["wall_time"] for mid in ok]


def workload_sweep(out: Outcome, run_dir: Path, seconds: float, deadline: float) -> None:
    config = sweep_config(run_dir)
    orders = range(SWEEP_SLICE["start"], SWEEP_SLICE["stop"] + 1, SWEEP_SLICE["step"])
    expected = [f"{f}-n{n:03d}" for f in FAMILIES for n in orders]
    ref_family, ref_n = random.Random(out.seed).choice([(f, n) for f in FAMILIES for n in orders])
    setups = _setup_probes(out, run_dir, deadline, config, SETUP_REPEATS, warmup=False,
                           reference=f"{ref_family}:{ref_n}")
    reference = (f"{ref_family}-n{ref_n:03d}", out.reference) if out.reference else None
    # Reference solves before the first sweep and after each one; each sweep
    # is timed against the median of the solves on either side of it. One
    # sweep against references half a minute apart spreads as much as the raw
    # times, so sweeps repeat until the measuring time is used up.
    walls, units, peaks, ratios, model_ratios = [], [], [], [], []
    refs = [_reference_runs(out, run_dir, deadline)]
    while not units or (not out.trace and sum(units) < seconds):
        unit_dir = run_dir / f"sweep{len(units)}"
        p = run_cli(run_dir, deadline, unit_dir.name, "--config", config, "--out", unit_dir,
                    "all", "--workers", WORKERS, "--seed", out.seed)
        out.count(1, p.code != 0)
        if not out.check(p.code == 0, f"tactherm all --workers {WORKERS} exits 0 "
                         f"(code {p.code})"):
            out.note("sweep output", p.output[-2000:])
        units.append(p.wall)
        peaks.append(p.peak_mb)
        unit_walls = _check_sweep_output(out, unit_dir, expected, reference)
        walls += unit_walls
        digests = _dataset_digests(unit_dir)
        _check_identity(out, config, digests)
        refs.append(_reference_runs(out, run_dir, deadline))
        ref_s = _median(refs[-2] + refs[-1])
        if ref_s:
            ratios.append(p.wall / ref_s)
            model_ratios += [w / ref_s for w in unit_walls]
        if p.code != 0:
            break
    all_refs = [r for block in refs for r in block]
    out.metrics.update({
        "setup_s": _median(setups),
        "model_rel": _median(model_ratios),
        "study_rel": _median(ratios),
        "peak_rss_mb": max(peaks),
    })
    _seconds_report(out, _median(walls), len(walls) / sum(units), _median(units),
                    _median(all_refs), len(all_refs))
    out.note("samples", f"{len(units)} sweep(s) of {len(expected)} models; model_rel is the "
             f"median of {len(walls)} manifest wall times (inside pool workers), each over "
             "the median reference solve on either side of its sweep; set-up median of "
             f"{len(setups)} fresh processes")
    if not out.trace:
        return
    traced_dir = run_dir / "traced"
    p = run_child("sweep-trace", run_dir, deadline, "--config", config, "--out", traced_dir,
                  "--seed", out.seed)
    out.count(1, p.code != 0 or p.result.get("codes") != [0])
    if not out.check(p.code == 0 and p.result["codes"] == [0],
                     "traced serial sweep (--workers 1, in process) exits 0"):
        out.note("traced output", p.output[-2000:])
        return
    _check_sweep_output(out, traced_dir, expected, None)
    out.check(_dataset_digests(traced_dir) == digests,
              f"serial and --workers {WORKERS} dataset CSVs are byte-identical")
    layer = p.result["layer"]
    layer["metrics"]["pipeline.parallel_efficiency"] = (
        layer["run_model_total_s"] / (WORKERS * units[0]))
    _layer_report(out, layer)


def _check_mesh_study(out: Outcome, code: int, stdout: str, out_dir: Path,
                      family: str) -> None:
    """One mesh-study command: exit code, verdict, and its three levels."""
    out.check(code == 0, f"mesh-study {family} exits 0 (code {code})")
    out.check("verdict: PASS" in stdout, f"mesh-study {family} prints the PASS verdict")
    csv = out_dir / f"mesh_study_{family}_n{REFINE_N:03d}.csv"
    try:
        levels = max(0, len(csv.read_text().splitlines()) - 1)  # minus the header
    except OSError:
        levels = 0
    out.count(1 + 3, (code != 0) + max(0, 3 - levels))
    if code != 0 or levels != 3:
        out.note(f"mesh-study {family} output", stdout[-2000:])


WORKLOADS = {"solve": workload_solve, "sweep": workload_sweep}


# ---------------------------------------------------------------------------
# report


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> Outcome:
    out = Outcome(seed, trace)
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        WORKLOADS[name](out, run_dir, seconds, deadline)
        if out.trace:
            _import_profile(out, run_dir, deadline)
    except Exception as exc:  # report what was measured; the run is not correct
        traceback.print_exc()
        out.check(False, f"benchmark error: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
    if missing and out.correct:
        out.check(False, f"metrics not measured: {', '.join(missing)}")
    print(f"== {name} (seed {seed}, trace {int(trace)})")
    for label, text in out.notes:
        print(f"  {label}: {text}")
    for m in wanted:
        value = out.metrics.get(m["name"])
        shown = "absent" if value is None else _fmt(value)
        print(f"  {m['name']:<30} {shown:>14} {m['unit']}")
    ratio = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'fail_ratio':<30} {_fmt(ratio):>14} ratio "
          f"({out.failed} failed of {out.attempted} commands and models)")
    for ok, text in out.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {text}")
    metrics = {m["name"]: {"value": out.metrics.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": out.correct, "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}), flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tactherm" / "cli.py").is_file() or not DEFAULT_CONFIG.is_file():
        print(f"error: no tactherm source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names]
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
