"""Orchestration tests: config round-trip, resumable sweeps, determinism,
mesh study, ambient calibration, learning persistence, and figures."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import tactherm.fem as fem
import tactherm.pipeline as pipeline
from tactherm.errors import ArtifactError, ParameterError
from tactherm.geometry import ShapeFamily, place_prism
from tactherm.mesh import FaceTag, build_mesh
from tactherm.pipeline import (
    LearnSpec,
    MeshLevels,
    StudyConfig,
    SweepSpec,
    calibrate_ambient,
    config_from_json,
    config_hash,
    config_to_json,
    load_config,
    load_dataset,
    make_figures,
    mesh_study,
    model_id,
    refinement_spec,
    run_learning,
    run_model,
    run_sweep,
    save_config,
    tumor_shape,
)
from tactherm.signature import PROFILE_SAMPLES
from tactherm.textio import fmt, read_csv

POLY = ShapeFamily.REGULAR_POLYGON
STAR = ShapeFamily.STAR_POLYGON

# Tiny ladder keeps each model solve in the few-millisecond range.
TINY_LADDER = ((5, 3, 2, 2), (6, 4, 2, 2))


def tiny_config(out_dir, stop=6) -> StudyConfig:
    return dataclasses.replace(
        StudyConfig(),
        sweep=SweepSpec(3, 1, stop),
        refinement=MeshLevels(polygon=TINY_LADDER, star=TINY_LADDER, level=0),
        learn=LearnSpec(train_size=3, test_size=max(stop - 5, 1)),
        out_dir=str(out_dir),
    )


def test_default_config_round_trip(tmp_path):
    cfg = StudyConfig()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert config_from_json(config_to_json(cfg)) == cfg


def test_shipped_default_config_is_the_serialized_defaults():
    """configs/default.json, which the study benchmark loads, is
    config_to_json(StudyConfig()) byte for byte."""
    shipped = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert shipped.read_bytes() == config_to_json(StudyConfig()).encode()


def test_config_hash_tracks_content():
    cfg = StudyConfig()
    assert config_hash(cfg) == config_hash(StudyConfig())
    bumped = dataclasses.replace(
        cfg, thermal=dataclasses.replace(cfg.thermal, q_tumor=2.0e5)
    )
    assert config_hash(bumped) != config_hash(cfg)
    # the output directory changes no result, so a copied one resumes
    moved = dataclasses.replace(cfg, out_dir="elsewhere")
    assert config_hash(moved) == config_hash(cfg)
    # nor does the learn split, which only the learning stage reads
    resplit = dataclasses.replace(cfg, learn=LearnSpec(split_seed=7, train_size=10, test_size=4))
    assert config_hash(resplit) == config_hash(cfg)


def test_config_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        config_from_json(json.dumps({"nope": 1}))
    with pytest.raises(ParameterError):
        config_from_json(json.dumps({"thermal": {"k_tissue": 0.6, "bogus": 1}}))
    with pytest.raises(ParameterError):
        config_from_json("not json at all {")
    with pytest.raises(ParameterError):
        config_from_json(json.dumps({"sweep": {"start": 2}}))
    # profile sampling and the refinement margin are constants, not keys, and
    # the scale-free RBF has no width or ridge
    for removed in (
        {"solver": {"profile_samples": 121}},
        {"refinement": {"margin_mm": 5.0}},
        {"learn": {"width": 1.0}},
        {"learn": {"ridge": 1e-10}},
    ):
        with pytest.raises(ParameterError, match="unknown"):
            config_from_json(json.dumps(removed))


@pytest.mark.parametrize("name, value", [
    ("sweep.start", "3"),
    ("sweep.start", 3.5),
    ("thermal.k_tissue", "0.6"),
    ("learn.train_size", "68"),
    ("tissue.x_len", None),
    ("refinement.level", 0.5),
    ("elastic.applied_strain", False),
    ("refinement.polygon", [[13, 6, 4, "3"]]),
    ("refinement.star", [[13, 6, 4]]),
    ("refinement.star", [13, 6, 4, 3]),
    ("out_dir", None),
    # JSON's NaN and Infinity parse as floats; none is a usable value
    ("thermal.t_ambient", math.nan),
    ("tissue.x_len", math.inf),
    ("elastic.applied_strain", -math.inf),
])
def test_config_rejects_values_of_the_wrong_type(name, value):
    section, _, key = name.partition(".")
    doc = {section: {key: value}} if key else {section: value}
    with pytest.raises(ParameterError, match=name):
        config_from_json(json.dumps(doc))


def test_config_rejects_a_number_that_overflows_to_infinity():
    with pytest.raises(ParameterError, match="thermal.q_tumor must be a finite number"):
        config_from_json('{"thermal": {"q_tumor": 1e400}}')


def test_learn_spec_rejects_a_negative_split_seed():
    with pytest.raises(ParameterError, match="split_seed"):
        LearnSpec(split_seed=-1)
    with pytest.raises(ParameterError, match="split_seed"):
        config_from_json(json.dumps({"learn": {"split_seed": -1}}))


def test_config_takes_an_integer_for_a_float_unconverted():
    # a conversion would change the hash of existing configs, and so their resume
    cfg = config_from_json(json.dumps({"tissue": {"x_len": 120}}))
    assert cfg.tissue.x_len == 120 and isinstance(cfg.tissue.x_len, int)


def test_refinement_window_covers_widest_shape():
    cfg = StudyConfig()
    for family in (POLY, STAR):
        spec = refinement_spec(cfg, family)
        box = spec.refine_box
        widest = place_prism(tumor_shape(cfg, family, 3), cfg.tissue)
        x0, x1, y0, y1 = widest.base_polygon.bounding_box()
        cx, cy = widest.center
        assert box[0][0] <= cx + x0 and box[0][1] >= cx + x1
        assert box[1][0] <= cy + y0 and box[1][1] >= cy + y1
        assert box[2][1] >= widest.z_hi


def test_sweep_solves_resumes_and_builds_dataset(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    (first,) = run_sweep(cfg, (POLY,))
    assert len(first.solved) == 4 and not first.skipped and not first.failed
    assert first.dataset.features.shape == (4, 10)
    assert list(first.dataset.targets) == [3.0, 4.0, 5.0, 6.0]
    assert first.csv_path.exists()
    models = tmp_path / "out" / "models"
    for n in (3, 4, 5, 6):
        assert (models / model_id(POLY, n) / "profile.csv").exists()
    assert not list(models.glob("*/field.csv"))
    # only the contour model, the one closest to n = 10, has a section
    assert [p.parent.name for p in models.glob("*/section.csv")] == [model_id(POLY, 6)]
    # the section covers the whole block: the solved half, then its mirror
    # image, the x = 60 mm plane nodes once
    section = np.loadtxt(models / model_id(POLY, 6) / "section.csv", delimiter=",", skiprows=1)
    left = section[section[:, 0] < 60.0]
    right = section[section[:, 0] > 60.0] * np.array([-1.0, 1.0, 1.0]) + np.array([120.0, 0.0, 0.0])
    assert len(left) == len(right) > 0

    def by_row(a):
        return a[np.lexsort(a.T[::-1])]

    np.testing.assert_allclose(by_row(right), by_row(left), atol=1e-9)
    plane = section[section[:, 0] == 60.0]
    assert len(plane) == len(np.unique(plane, axis=0)) > 0

    (again,) = run_sweep(cfg, (POLY,))
    assert not again.solved and len(again.skipped) == 4
    assert np.array_equal(again.dataset.features, first.dataset.features)

    loaded = load_dataset(cfg, POLY)
    assert np.array_equal(loaded.features, first.dataset.features)
    assert loaded.family == "polygon"


def test_sweep_outputs_are_byte_identical(tmp_path):
    texts = []
    for run in ("a", "b"):
        cfg = tiny_config(tmp_path / run)
        run_sweep(cfg, (STAR,))
        csv = (tmp_path / run / "dataset_star.csv").read_bytes()
        one = (tmp_path / run / "models" / "star-n004" / "profile.csv").read_bytes()
        texts.append((csv, one))
    assert texts[0] == texts[1]


def test_sweep_resolves_models_with_missing_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY,))
    victim = tmp_path / "out" / "models" / model_id(POLY, 5) / "profile.csv"
    victim.unlink()

    (healed,) = run_sweep(cfg, (POLY,))
    assert healed.solved == (model_id(POLY, 5),)
    assert len(healed.skipped) == 3
    assert victim.exists()


def test_sweep_resolves_the_contour_model_without_its_section(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY,))
    contour = model_id(POLY, 6)
    victim = tmp_path / "out" / "models" / contour / "section.csv"
    before = victim.read_bytes()
    victim.unlink()

    (healed,) = run_sweep(cfg, (POLY,))
    assert healed.solved == (contour,) and len(healed.skipped) == 3
    assert victim.read_bytes() == before
    entry = json.loads((tmp_path / "out" / "manifest.json").read_text())["models"][contour]
    assert entry["artifacts"]["section"] == str(Path("models") / contour / "section.csv")


def test_code_change_invalidates_resume(tmp_path, monkeypatch):
    # rows solved by other code must not be mixed into a resumed sweep, nor
    # read by learn or figures
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY,))
    monkeypatch.setattr(pipeline, "_code_digest", lambda: "0" * 64)
    with pytest.raises(ArtifactError, match="code version"):
        load_dataset(cfg, POLY)
    (redo,) = run_sweep(cfg, (POLY,))
    assert len(redo.solved) == 4 and not redo.skipped
    assert len(load_dataset(cfg, POLY).targets) == 4


def test_blas_thread_setting_invalidates_resume(tmp_path, monkeypatch):
    # the banded factor's last bits depend on the BLAS thread count, so rows
    # solved under another setting must not be mixed into a resumed sweep
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY,))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    (redo,) = run_sweep(cfg, (POLY,))
    assert len(redo.solved) == 4 and not redo.skipped


def test_make_figures_names_a_resume_key_mismatch(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY, STAR))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with pytest.raises(ArtifactError, match="BLAS thread") as exc:
        make_figures(cfg)
    assert "OPENBLAS_NUM_THREADS=2" in str(exc.value)
    assert "sweep incomplete" not in str(exc.value)


def test_manifest_records_solver_stats_and_stage_timings(tmp_path, caplog):
    cfg = tiny_config(tmp_path / "out", stop=4)
    with caplog.at_level("INFO", logger="tactherm.pipeline"):
        run_sweep(cfg, (POLY,))
    entries = json.loads((tmp_path / "out" / "manifest.json").read_text())["models"]
    for n in (3, 4):
        entry = entries[model_id(POLY, n)]
        assert set(entry["stage_s"]) == {"mesh", "elastic", "heat", "profile_fit"}
        assert all(v >= 0.0 for v in entry["stage_s"].values())
        assert sum(entry["stage_s"].values()) <= entry["wall_time"]
        mesh = build_mesh(
            place_prism(tumor_shape(cfg, POLY, n), cfg.tissue), refinement_spec(cfg, POLY)
        )
        # the heat solve runs on the deformed mesh, which keeps the topology
        systems = {
            "elastic": fem._elastic_system(mesh, cfg.elastic),
            "heat": fem._thermal_system(mesh, cfg.thermal),
        }
        for solve, (plan, *_) in systems.items():
            stats = entry[solve]
            assert 0.0 <= stats["final_residual"] <= 1e-10
            assert stats["iterations"] == 0  # both solves are direct
            assert (stats["n_free"], stats["band"]) == (plan.perm.size, plan.band)
    lines = [r.getMessage() for r in caplog.records if r.name == "tactherm.pipeline"]
    assert len(lines) == 2
    assert lines[0].startswith("polygon-n003 ok in ") and "residuals elastic" in lines[0]


def test_damaged_manifest_raises_artifact_error(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY,))
    manifest = tmp_path / "out" / "manifest.json"
    text = manifest.read_text()
    not_an_object = json.loads(text)
    not_an_object["models"]["polygon-n004"] = [1, 2]
    no_signature = json.loads(text)
    del no_signature["models"]["polygon-n005"]["signature"]
    int_profile = json.loads(text)
    int_profile["models"]["polygon-n003"]["artifacts"]["profile"] = 5
    hot_t_max = json.loads(text)
    hot_t_max["models"]["polygon-n006"]["t_max_c"] = "hot"
    bool_x_max = json.loads(text)
    bool_x_max["models"]["polygon-n004"]["x_max_m"] = True
    for damaged, match in (
        (text[: len(text) // 2], "manifest"),
        ("[1, 2]\n", "manifest"),
        (json.dumps(not_an_object), "manifest .*polygon-n004"),
        (json.dumps(no_signature), "manifest .*polygon-n005 lacks signature"),
        (json.dumps(int_profile), "manifest .*polygon-n003 lacks artifacts"),
        (json.dumps(hot_t_max), "manifest .*polygon-n006 lacks t_max_c"),
        (json.dumps(bool_x_max), "manifest .*polygon-n004 lacks x_max_m"),
    ):
        manifest.write_text(damaged)
        with pytest.raises(ArtifactError, match=match):
            run_sweep(cfg, (POLY,))
        with pytest.raises(ArtifactError, match=match):
            make_figures(cfg)


def test_sweep_saves_the_manifest_less_often_than_it_solves(tmp_path, monkeypatch):
    saves = []
    real_save = pipeline.RunManifest.save

    def counting_save(self):
        saves.append(len(self.models))
        real_save(self)

    monkeypatch.setattr(pipeline.RunManifest, "save", counting_save)
    cfg = tiny_config(tmp_path / "out", stop=10)
    (result,) = run_sweep(cfg, (POLY,))
    assert len(result.solved) == 8
    assert len(saves) < 8 and saves[-1] == 8
    entries = json.loads((tmp_path / "out" / "manifest.json").read_text())["models"]
    assert sorted(entries) == sorted(result.solved)
    assert all(entry["status"] == "ok" for entry in entries.values())


def test_interrupted_sweep_records_finished_models(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "out", stop=8)
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise KeyboardInterrupt
        return run_model(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_model", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cfg, (POLY,))
    monkeypatch.undo()
    entries = json.loads((tmp_path / "out" / "manifest.json").read_text())["models"]
    done = [model_id(POLY, n) for n in (3, 4, 5)]
    assert sorted(entries) == done
    assert all(entry["status"] == "ok" for entry in entries.values())
    (resumed,) = run_sweep(cfg, (POLY,))
    assert resumed.skipped == tuple(done)
    assert resumed.solved == tuple(model_id(POLY, n) for n in (6, 7, 8))


def test_load_dataset_reads_the_manifest_of_this_config(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    (sweep,) = run_sweep(cfg, (POLY,))
    hotter = dataclasses.replace(
        cfg, thermal=dataclasses.replace(cfg.thermal, q_tumor=2.0e5)
    )
    with pytest.raises(ArtifactError, match="another config"):
        load_dataset(hotter, POLY)
    # the split is not part of a solved model: the same rows load
    resplit = dataclasses.replace(cfg, learn=dataclasses.replace(cfg.learn, split_seed=7))
    assert np.array_equal(load_dataset(resplit, POLY).features, sweep.dataset.features)


def test_config_change_invalidates_resume(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY,))
    hotter = dataclasses.replace(
        cfg, thermal=dataclasses.replace(cfg.thermal, q_tumor=2.0e5)
    )
    (redo,) = run_sweep(hotter, (POLY,))
    assert len(redo.solved) == 4 and not redo.skipped


def test_sweep_records_failures_and_continues(tmp_path):
    # star base area below the n=12 feasibility floor but above the n<=11 one:
    # exactly one model of the sweep fails, the rest complete, serial or pooled.
    for workers in (1, 2):
        cfg = dataclasses.replace(
            tiny_config(tmp_path / f"workers{workers}", stop=12),
            geometry=dataclasses.replace(StudyConfig().geometry, base_area_mm2=310.0),
        )
        (result,) = run_sweep(cfg, (STAR,), workers=workers)
        assert len(result.failed) == 1
        assert result.failed[0][0] == "star-n012"
        assert len(result.solved) == 9
        assert result.dataset.n_rows == 9
        with pytest.raises(ArtifactError) as err:
            load_dataset(cfg, STAR)
        assert "star-n012" in str(err.value)
        assert err.value.missing == ["star-n012"]


def test_mesh_study_reports_level_agreement(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    report = mesh_study(cfg, POLY, n=5)
    assert len(report.elements) == 2
    assert report.elements[0] < report.elements[1]
    assert all(d >= 0 for d in report.rel_diffs)
    header, rows = read_csv(tmp_path / "out" / "mesh_study_polygon_n005.csv")
    assert header == ["level", "nx", "ny", "nz", "local_factor", "elements", "nodes",
                      "t_max_c", "rel_diff_prev", "wall_s"]
    diffs = ("", *report.rel_diffs)
    assert [row[:-1] for row in rows] == [  # all but wall_s
        [fmt(v) for v in (i, *level, elements, nodes, t_max, diff)]
        for i, (level, elements, nodes, t_max, diff) in enumerate(
            zip(report.levels, report.elements, report.nodes, report.t_max_c, diffs)
        )
    ]


def test_mesh_study_identical_levels_agree_exactly(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    ladder = ((5, 3, 2, 2), (5, 3, 2, 2))
    cfg = dataclasses.replace(
        cfg, refinement=dataclasses.replace(cfg.refinement, polygon=ladder, star=ladder)
    )
    report = mesh_study(cfg, POLY, n=4)
    assert report.rel_diffs == (0.0,)
    assert report.passes


def test_mesh_study_needs_two_levels(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    ladder = ((5, 3, 2, 2),)
    cfg = dataclasses.replace(
        cfg, refinement=dataclasses.replace(cfg.refinement, polygon=ladder, star=ladder)
    )
    with pytest.raises(ParameterError):
        mesh_study(cfg, POLY, n=4)


def test_calibrate_ambient_hits_target_exactly(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    ambient = calibrate_ambient(cfg, target_c=29.0)
    calibrated = dataclasses.replace(
        cfg, thermal=dataclasses.replace(cfg.thermal, t_ambient=ambient)
    )
    check = run_model(calibrated, POLY, 3)
    assert check.t_max_c == pytest.approx(29.0, abs=1e-9)


def test_run_learning_persists_and_round_trips(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    (sweep,) = run_sweep(cfg, (POLY,))
    first = run_learning(sweep.dataset, cfg)
    second = run_learning(sweep.dataset, cfg)
    assert first.paths and second.paths
    for a, b in zip(first.paths, second.paths):
        assert a.read_bytes() == b.read_bytes()
    assert first.paths[0].read_text().startswith("rbfmodel v2\n")
    # train split reproduces its targets at interpolation precision
    assert first.train_report.rmse < 1e-6


def test_run_learning_seed_changes_split(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    (sweep,) = run_sweep(cfg, (POLY,))
    base = run_learning(sweep.dataset, cfg, seed=0, persist=False)
    variants = [run_learning(sweep.dataset, cfg, seed=s, persist=False) for s in range(1, 6)]
    assert any(
        not np.array_equal(v.model.centers, base.model.centers) for v in variants
    )


def test_make_figures_complete_and_deterministic(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY, STAR))
    paths = make_figures(cfg)
    names = sorted(p.name for p in paths)
    assert names == [
        "fig_box_polygon.csv", "fig_box_polygon.svg",
        "fig_box_star.csv", "fig_box_star.svg",
        "fig_contour.csv", "fig_contour.svg",
        "fig_profiles_polygon.csv", "fig_profiles_polygon.svg",
        "fig_profiles_star.csv", "fig_profiles_star.svg",
        "fig_tmax_polygon.csv", "fig_tmax_polygon.svg",
        "fig_tmax_star.csv", "fig_tmax_star.svg",
    ]
    snapshot = {p: p.read_bytes() for p in paths}
    for p, data in zip(make_figures(cfg), snapshot.values()):
        assert p.read_bytes() == data

    # T_max CSV carries one row per sweep model
    tmax_rows = (tmp_path / "out" / "figures" / "fig_tmax_polygon.csv").read_text()
    assert len(tmax_rows.strip().splitlines()) == 1 + 4
    # box CSV carries the five summary values for each of the 10 coefficients
    box_lines = (tmp_path / "out" / "figures" / "fig_box_star.csv").read_text().strip().splitlines()
    assert len(box_lines) == 1 + 10
    assert box_lines[0] == "coefficient,min,q1,median,q3,max"


def test_make_figures_without_overlay_orders_uses_end_orders(tmp_path):
    cfg = dataclasses.replace(tiny_config(tmp_path / "out"), sweep=SweepSpec(7, 7, 14))
    run_sweep(cfg, (POLY, STAR))
    make_figures(cfg)
    profiles = (tmp_path / "out" / "figures" / "fig_profiles_star.csv").read_text()
    assert profiles.splitlines()[0] == "x_mm,t_c_n007,t_c_n014"


def test_make_figures_requires_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    with pytest.raises(ArtifactError):
        make_figures(cfg)
    assert not (tmp_path / "out" / "figures").exists()

    run_sweep(cfg, (POLY, STAR))
    victim = tmp_path / "out" / "models" / "star-n005" / "profile.csv"
    victim.unlink()
    with pytest.raises(ArtifactError) as err:
        make_figures(cfg)
    assert "star-n005" in err.value.missing
    assert not (tmp_path / "out" / "figures").exists()


# polygon n = 3 is an overlaid profile, n = 6 the contour model
@pytest.mark.parametrize("n, name, value", [
    (3, "profile.csv", "nan"),
    (6, "section.csv", "inf"),
])
def test_make_figures_rejects_non_finite_artifact_values(tmp_path, n, name, value):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY, STAR))
    victim = tmp_path / "out" / "models" / model_id(POLY, n) / name
    lines = victim.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1] + [value])
    victim.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError, match=f"{name}.*not finite"):
        make_figures(cfg)


def test_make_figures_requires_contour_section(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY, STAR))
    # the contour model is the first family's completed model closest to n=10
    contour = model_id(POLY, 6)
    (tmp_path / "out" / "models" / contour / "section.csv").unlink()
    with pytest.raises(ArtifactError, match=contour) as err:
        make_figures(cfg)
    assert err.value.missing == [contour]
    assert not (tmp_path / "out" / "figures").exists()


def test_make_figures_requires_the_contour_entry_to_list_its_section(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    run_sweep(cfg, (POLY, STAR))
    contour = model_id(POLY, 6)
    manifest = tmp_path / "out" / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["models"][contour]["artifacts"]["section"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=contour) as err:
        make_figures(cfg)
    assert err.value.missing == [contour]
    assert not (tmp_path / "out" / "figures").exists()


def test_sweep_with_worker_pool_matches_serial(tmp_path):
    serial = tiny_config(tmp_path / "serial", stop=5)
    pooled = tiny_config(tmp_path / "pooled", stop=5)
    run_sweep(serial, (POLY,))
    run_sweep(pooled, (POLY,), workers=2)
    a = (tmp_path / "serial" / "dataset_polygon.csv").read_bytes()
    b = (tmp_path / "pooled" / "dataset_polygon.csv").read_bytes()
    assert a == b


def test_sweep_pool_is_sized_to_pending_models(tmp_path, monkeypatch):
    pools = []

    class CountingPool(pipeline.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
    cfg = tiny_config(tmp_path / "out", stop=4)
    fresh = run_sweep(cfg, (POLY, STAR), workers=3)
    assert pools == [3]  # one pool for both families' 4 models
    assert [r.solved for r in fresh] == [("polygon-n003", "polygon-n004"),
                                         ("star-n003", "star-n004")]
    models = tmp_path / "out" / "models"
    (models / "star-n004" / "profile.csv").unlink()
    (resumed,) = run_sweep(cfg, (STAR,), workers=3)
    assert resumed.solved == ("star-n004",) and pools == [3]  # one model: serial
    for mid in ("polygon-n003", "star-n003"):
        (models / mid / "profile.csv").unlink()
    resumed = run_sweep(cfg, (POLY, STAR), workers=3)
    assert [r.solved for r in resumed] == [("polygon-n003",), ("star-n003",)]
    assert [r.skipped for r in resumed] == [("polygon-n004",), ("star-n004",)]
    assert pools == [3, 2]


@pytest.mark.parametrize("n", [3, 7, 10, 40])
def test_star_with_edge_midpoint_inner_vertices_is_the_polygon(n):
    """A star whose inner radius is the n-gon's circumradius times cos(pi/n)
    is that n-gon with extra vertices at its edge midpoints. With the sweep
    starting at n, both families place the same refinement window, so both
    models solve one problem: no oracle needed."""
    cfg = StudyConfig()
    rc = math.sqrt(2.0 * cfg.geometry.base_area_mm2 / (n * math.sin(2.0 * math.pi / n)))
    cfg = dataclasses.replace(
        cfg,
        geometry=dataclasses.replace(cfg.geometry, star_inner_radius_mm=rc * math.cos(math.pi / n)),
        sweep=SweepSpec(n, 1, n),
    )
    poly, star = (run_model(cfg, family, n) for family in (POLY, STAR))
    np.testing.assert_allclose(star.field.mesh.nodes, poly.field.mesh.nodes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(star.field.values, poly.field.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        star.signature.features(), poly.signature.features(), rtol=0, atol=1e-10
    )
    assert star.t_max_c == pytest.approx(poly.t_max_c, rel=0, abs=1e-10)


def test_level0_models_are_mirror_symmetric_and_share_one_plan(monkeypatch):
    """Production level 0 solves the x <= 60 mm half: the profile is mirror
    symmetric bit for bit, so the sine coefficients are fit roundoff, and
    the counts are those of the whole block."""
    cfg = StudyConfig()
    monkeypatch.setattr(fem, "_last_plan", {})
    builds = []
    real = fem._build_plan

    def counting(n_nodes, bs, groups, fixed):
        builds.append(bs)
        return real(n_nodes, bs, groups, fixed)

    monkeypatch.setattr(fem, "_build_plan", counting)
    for family in (POLY, STAR):
        result = run_model(cfg, family, 10)
        temps = result.profile.temps
        np.testing.assert_array_equal(temps, temps[::-1])
        # one profile path: the undeformed block centerline, whatever the
        # compression did to the top surface
        np.testing.assert_array_equal(
            result.profile.positions, np.linspace(0.0, 120.0, PROFILE_SAMPLES) * 1e-3
        )
        assert max(abs(b) for b in result.signature.b) <= 1e-12
        mesh = build_mesh(place_prism(tumor_shape(cfg, family, 10), cfg.tissue),
                          refinement_spec(cfg, family))
        plane = mesh.boundary_nodes(FaceTag.SYMMETRY)
        assert np.all(mesh.nodes[plane, 0] == 60.0) and mesh.nodes[:, 0].max() == 60.0
        # ncx 23 across the block: x = 60 replaced the plane below it
        assert result.elements == 2 * mesh.n_tets == 21_120
        assert result.nodes == 2 * mesh.n_nodes - plane.size
    assert sorted(builds) == [1, 3]  # both families, one thermal and one elastic plan
