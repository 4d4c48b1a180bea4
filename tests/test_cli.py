"""Command-line behavior: subcommand flows and the exit-code contract."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tactherm
import tactherm.cli as cli
import tactherm.pipeline as pipeline
from tactherm.errors import SolverError
from tactherm.geometry import ShapeFamily, place_prism
from tactherm.mesh import build_mesh
from tactherm.pipeline import (
    LearnSpec,
    MeshLevels,
    StudyConfig,
    SweepSpec,
    config_to_json,
)

TINY_LADDER = ((5, 3, 2, 2), (6, 4, 2, 2))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    cfg = dataclasses.replace(
        StudyConfig(),
        sweep=SweepSpec(3, 1, 6),
        refinement=MeshLevels(polygon=TINY_LADDER, star=TINY_LADDER, level=0),
        learn=LearnSpec(train_size=3, test_size=1),
        out_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    return path


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["solve", "--family", "hexagon", "--n", "3"]) == 1
    assert cli.main(["sweep", "--family", "polygon", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_missing_config_exits_1(tmp_path):
    assert cli.main(["--config", str(tmp_path / "nope.json"), "geometry",
                     "--family", "star", "--n", "5"]) == 1


def test_invalid_config_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sweep": {"start": 1}}))
    assert cli.main(["--config", str(bad), "geometry", "--family", "star", "--n", "5"]) == 1


def test_config_value_of_the_wrong_type_exits_1_without_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"refinement": {"level": 0.5}}))
    proc = subprocess.run(
        [sys.executable, "-m", "tactherm.cli", "--config", str(bad), "solve",
         "--family", "polygon", "--n", "5"],
        env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "error: config value refinement.level" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("split_seed, args", [
    (0, ["learn", "--family", "polygon", "--seed", "-1"]),
    (0, ["all", "--seed", "-1"]),
    (0, ["sweep", "--family", "polygon", "--workers", "0"]),
    (0, ["all", "--workers", "-3"]),
    (-1, ["all"]),
])
def test_negative_seed_or_worker_count_exits_1_before_any_work(tiny_cfg_path, tmp_path,
                                                                 split_seed, args):
    doc = json.loads(tiny_cfg_path.read_text())
    doc["learn"]["split_seed"] = split_seed
    tiny_cfg_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "tactherm.cli", "--config", str(tiny_cfg_path), *args],
        env=_fresh_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_a_learn_split_that_does_not_fit_the_slice_exits_1_before_any_work(tiny_cfg_path,
                                                                          tmp_path, capsys):
    doc = json.loads(tiny_cfg_path.read_text())
    doc["sweep"]["stop"] = 4  # 2 models per family; the split takes 3 + 1
    tiny_cfg_path.write_text(json.dumps(doc))
    c = str(tiny_cfg_path)
    for command in (["all"], ["learn", "--family", "polygon"]):
        assert cli.main(["--config", c, *command]) == 1
        err = capsys.readouterr().err
        assert "learn.train_size 3 + learn.test_size 1" in err and "2 models" in err
        assert not (tmp_path / "out" / "manifest.json").exists()
    # a sweep alone takes no split
    assert cli.main(["--config", c, "sweep", "--family", "polygon"]) == 0


@pytest.mark.parametrize("case, args, code", [
    ("config is a directory", ["geometry", "--family", "star", "--n", "5"], 1),
    ("config is not UTF-8", ["geometry", "--family", "star", "--n", "5"], 1),
    ("out is a file", ["sweep", "--family", "polygon"], 1),
    ("manifest is a directory", ["sweep", "--family", "polygon"], 3),
    ("manifest is a directory", ["learn", "--family", "polygon"], 3),
    ("profile is a directory", ["figures"], 3),
])
def test_unreadable_input_exits_with_a_message(tiny_cfg_path, tmp_path, case, args, code):
    config, out = tiny_cfg_path, tmp_path / "out"
    if case == "config is a directory":
        config = tmp_path
    elif case == "config is not UTF-8":
        config = tmp_path / "latin1.json"
        config.write_bytes('{"out_dir": "\u00e9"}'.encode("latin-1"))
    elif case == "out is a file":
        out.write_text("")
    elif case == "manifest is a directory":
        (out / "manifest.json").mkdir(parents=True)
    else:
        for family in ("polygon", "star"):
            assert cli.main(["--config", str(config), "sweep", "--family", family]) == 0
        profile = out / "models" / "polygon-n003" / "profile.csv"  # an overlaid order
        profile.unlink()
        profile.mkdir()
    # the thread setting of this process, under which the sweep above ran
    env = _fresh_env(**{var: os.environ[var] for var in BLAS_THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "tactherm.cli", "--config", str(config), "--out", str(out),
         *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code
    assert ("error:" if code == 1 else "incomplete artifacts:") in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["calibrate", "--target", "nan"],
    ["calibrate", "--target", "inf"],
    ["solve", "--family", "polygon", "--n", "5", "--ambient=-inf"],
    ["solve", "--family", "polygon", "--n", "5", "--ambient", "NaN"],
])
def test_non_finite_temperature_flags_exit_1_before_any_work(tiny_cfg_path, args):
    proc = subprocess.run(
        [sys.executable, "-m", "tactherm.cli", "--config", str(tiny_cfg_path), *args],
        env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "must be a finite number" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_geometry_and_mesh_commands(tiny_cfg_path, tmp_path, capsys):
    csv = tmp_path / "poly.csv"
    assert cli.main(["--config", str(tiny_cfg_path), "geometry",
                     "--family", "star", "--n", "7", "--csv", str(csv)]) == 0
    assert csv.exists()
    text = tmp_path / "mesh.txt"
    assert cli.main(["--config", str(tiny_cfg_path), "mesh",
                     "--family", "polygon", "--n", "4", "--text", str(text)]) == 0
    out = capsys.readouterr().out
    assert "tets" in out and "tumor volume" in out
    # whole-block counts; the text file holds the solved half
    whole_tets, half_tets = (int(v) for v in re.findall(r"(\d+) tets", out))
    assert whole_tets == 2 * half_tets
    assert "tumor volume 3200.00 mm^3" in out
    lines = text.read_text().splitlines()
    assert f"tets {half_tets}" in lines
    assert any(line.endswith(" SYMMETRY") for line in lines)
    # each tet line ends with the exact tumor fraction the solvers read
    cfg = pipeline.load_config(tiny_cfg_path)
    family = ShapeFamily.REGULAR_POLYGON
    geom = place_prism(pipeline.tumor_shape(cfg, family, 4), cfg.tissue)
    want = build_mesh(geom, pipeline.refinement_spec(cfg, family)).tumor_frac
    first = lines.index(f"tets {half_tets}") + 1
    got = np.array([float(line.split()[-1]) for line in lines[first:first + half_tets]])
    np.testing.assert_array_equal(got, want)
    assert np.any((got > 0.0) & (got < 1.0))


def test_solve_command_reports_signature(tiny_cfg_path, capsys):
    assert cli.main(["--config", str(tiny_cfg_path), "solve",
                     "--family", "polygon", "--n", "5", "--energy"]) == 0
    out = capsys.readouterr().out
    assert "T_max" in out and "rad/m" in out and "energy:" in out
    # whole-block watts: q times the prism volume, less the compression of
    # the tumor (well under 1 %)
    generated = float(re.search(r"generated ([0-9.]+) W", out).group(1))
    assert generated == pytest.approx(1.0e5 * 400.0 * 8.0 * 1e-9, rel=0.01)


def test_sweep_learn_figures_flow(tiny_cfg_path, tmp_path, capsys):
    c = str(tiny_cfg_path)
    assert cli.main(["--config", c, "sweep", "--family", "polygon"]) == 0
    assert cli.main(["--config", c, "learn", "--family", "polygon"]) == 0
    # star sweep missing: figures must report incomplete artifacts
    assert cli.main(["--config", c, "figures"]) == 3
    assert cli.main(["--config", c, "learn", "--family", "star"]) == 3
    assert cli.main(["--config", c, "sweep", "--family", "star"]) == 0
    assert cli.main(["--config", c, "figures"]) == 0
    assert (tmp_path / "out" / "figures" / "fig_contour.svg").exists()
    out = capsys.readouterr().out
    assert "sweep polygon: 4 solved" in out


def test_damaged_artifacts_exit_3(tiny_cfg_path, tmp_path, capsys):
    c = str(tiny_cfg_path)
    assert cli.main(["--config", c, "sweep", "--family", "polygon"]) == 0
    manifest = tmp_path / "out" / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text[:100])
    assert cli.main(["--config", c, "figures"]) == 3
    assert "manifest" in capsys.readouterr().err

    # damaged entries: one not an object, one ok entry without its signature
    not_an_object = json.loads(text)
    not_an_object["models"]["polygon-n004"] = 7
    no_signature = json.loads(text)
    del no_signature["models"]["polygon-n005"]["signature"]
    for mid, doc in (("polygon-n004", not_an_object), ("polygon-n005", no_signature)):
        manifest.write_text(json.dumps(doc))
        for command in (["figures"], ["sweep", "--family", "polygon"],
                        ["learn", "--family", "polygon"]):
            assert cli.main(["--config", c, *command]) == 3
            assert mid in capsys.readouterr().err


def test_contour_entry_without_its_section_exits_3(tiny_cfg_path, tmp_path, capsys):
    c = str(tiny_cfg_path)
    assert cli.main(["--config", c, "all"]) == 0
    manifest = tmp_path / "out" / "manifest.json"
    doc = json.loads(manifest.read_text())
    # polygon n = 6 is the model of the sweep closest to n = 10
    del doc["models"]["polygon-n006"]["artifacts"]["section"]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["--config", c, "figures"]) == 3
    assert "polygon-n006" in capsys.readouterr().err


def test_learn_after_a_code_change_exits_3(tiny_cfg_path, monkeypatch, capsys):
    c = str(tiny_cfg_path)
    assert cli.main(["--config", c, "sweep", "--family", "polygon"]) == 0
    monkeypatch.setattr(pipeline, "_code_digest", lambda: "0" * 64)
    assert cli.main(["--config", c, "learn", "--family", "polygon"]) == 3
    assert "code version" in capsys.readouterr().err


def test_figures_under_another_thread_setting_exits_3(tiny_cfg_path, monkeypatch, capsys):
    c = str(tiny_cfg_path)
    for family in ("polygon", "star"):
        assert cli.main(["--config", c, "sweep", "--family", family]) == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    for command in (["figures"], ["learn", "--family", "polygon"]):
        assert cli.main(["--config", c, *command]) == 3
        err = capsys.readouterr().err
        assert "BLAS thread" in err and "OPENBLAS_NUM_THREADS=2" in err


def test_mesh_study_command(tiny_cfg_path, capsys):
    assert cli.main(["--config", str(tiny_cfg_path), "mesh-study",
                     "--family", "star", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "level 0" in out and "verdict" in out


def test_calibrate_command(tiny_cfg_path, capsys):
    assert cli.main(["--config", str(tiny_cfg_path), "calibrate",
                     "--target", "29.5"]) == 0
    assert "calibrated t_ambient" in capsys.readouterr().out


def test_solver_failure_exits_2(tiny_cfg_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("iteration limit reached")

    monkeypatch.setattr(cli, "run_model", boom)
    assert cli.main(["--config", str(tiny_cfg_path), "solve",
                     "--family", "polygon", "--n", "5"]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_sweep_with_failures_exits_2(tiny_cfg_path, monkeypatch, capsys):
    real = pipeline.run_model

    def flaky(cfg, family, n, **kwargs):
        if n == 4:
            raise SolverError("diverged")
        return real(cfg, family, n, **kwargs)

    monkeypatch.setattr(pipeline, "run_model", flaky)
    assert cli.main(["--config", str(tiny_cfg_path), "sweep",
                     "--family", "polygon"]) == 2
    err = capsys.readouterr().err
    assert "polygon-n004" in err


def test_all_command_runs_everything(tiny_cfg_path, tmp_path):
    assert cli.main(["--config", str(tiny_cfg_path), "all"]) == 0
    out = tmp_path / "out"
    assert (out / "dataset_polygon.csv").exists()
    assert (out / "dataset_star.csv").exists()
    assert (out / "learn" / "polygon_model.txt").exists()
    assert (out / "figures" / "fig_tmax_star.svg").exists()


def test_out_flag_overrides_directory(tiny_cfg_path, tmp_path):
    alt = tmp_path / "elsewhere"
    assert cli.main(["--config", str(tiny_cfg_path), "--out", str(alt),
                     "sweep", "--family", "polygon"]) == 0
    assert (alt / "dataset_polygon.csv").exists()


def _fresh_env(**preset):
    """Environment for a fresh interpreter that imports this tactherm source,
    with the BLAS thread variables unset except those given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(tactherm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(preset)
    return env


@pytest.mark.parametrize("preset, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
def test_import_defaults_blas_to_one_thread(preset, expected):
    code = "import os, tactherm; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**preset),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == expected


def test_all_command_leaves_scipy_stats_unloaded(tiny_cfg_path, tmp_path):
    # scipy.stats would take most of a short run's time; nothing needs it
    code = (
        "import sys, tactherm.cli as cli; "
        f"code = cli.main(['--config', {str(tiny_cfg_path)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, 'all']); "
        "print(code, 'scipy.stats' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


def _output_digests(out: Path) -> dict:
    """Bytes of the datasets, learn files and figures of an `all` run."""
    paths = [*out.glob("dataset_*.csv"), *(out / "learn").iterdir(),
             *(out / "figures").iterdir()]
    return {str(p.relative_to(out)): p.read_bytes() for p in paths}


def test_all_uses_one_pool_and_matches_serial(tiny_cfg_path, tmp_path, monkeypatch):
    pools = []

    class CountingPool(pipeline.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert cli.main(["--config", str(tiny_cfg_path), "--out", str(out), "all",
                         "--workers", str(workers)]) == 0
        outputs.append(_output_digests(out))
    assert pools == [2]  # both families' models went through one pool
    assert len(outputs[0]) == 2 + 6 + 14
    assert outputs[0] == outputs[1]


def test_copied_output_directory_resumes(tiny_cfg_path, tmp_path, capsys):
    c = str(tiny_cfg_path)
    assert cli.main(["--config", c, "all"]) == 0
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "out", copy)
    assert cli.main(["--config", c, "--out", str(copy), "figures"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", c, "--out", str(copy), "sweep", "--family", "star"]) == 0
    assert "sweep star: 0 solved, 4 resumed, 0 failed" in capsys.readouterr().out
