"""End-to-end acceptance gate for the shipped study.

Each test pins one quantitative contract: solver accuracy against closed
forms, energy conservation, mesh independence at production resolution, the
structure of the T_max(n) curves, Fourier-signature quality, learning
performance, geometry conservation, and byte-level determinism. The module
runs the complete two-family sweep (196 models, a few minutes) once and
shares it across tests.
"""

import csv
import dataclasses
import hashlib
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tactherm.fem import (
    ThermalParams,
    deform_mesh,
    energy_balance,
    solve_elastic,
    solve_heat,
)
from tactherm.geometry import (
    ShapeFamily,
    TissueDims,
    TumorShape,
    place_prism,
    regular_polygon,
    star_polygon,
)
from tactherm.learn import eval_report
from tactherm.mesh import RefinementSpec, build_mesh
from tactherm.pipeline import (
    LearnSpec,
    StudyConfig,
    SweepSpec,
    calibrate_ambient,
    load_dataset,
    mesh_study,
    refinement_spec,
    run_learning,
    run_sweep,
    tumor_shape,
)
from tactherm.signature import FourierSignature, SurfaceProfile, fit_fourier4

import oracles
from oracles import point_in_polygon

POLY = ShapeFamily.REGULAR_POLYGON
STAR = ShapeFamily.STAR_POLYGON
FAMILIES = (POLY, STAR)


# ---------------------------------------------------------------------------
# shared full-resolution sweep


def _read_curve(csv_path):
    """Dataset rows keyed by column, ordered by n."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows.sort(key=lambda r: int(r["n"]))
    cols = {}
    for name in rows[0]:
        if name in ("model_id", "family"):
            cols[name] = [r[name] for r in rows]
        elif name == "n":
            cols[name] = np.array([int(r[name]) for r in rows])
        else:
            cols[name] = np.array([float(r[name]) for r in rows])
    return cols


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Both family sweeps at production resolution, ambient calibrated so the
    triangle model reads exactly 29.7 C."""
    out = tmp_path_factory.mktemp("acceptance") / "out"
    cfg = replace(StudyConfig(), out_dir=str(out))
    ambient = calibrate_ambient(cfg, target_c=29.7)
    cfg = replace(cfg, thermal=replace(cfg.thermal, t_ambient=ambient))
    t0 = time.perf_counter()
    sweeps = dict(zip(FAMILIES, run_sweep(cfg, FAMILIES)))
    wall = time.perf_counter() - t0
    curves = {fam: _read_curve(sweeps[fam].csv_path) for fam in FAMILIES}
    return SimpleNamespace(
        cfg=cfg, ambient=ambient, sweeps=sweeps, curves=curves, wall=wall
    )


# ---------------------------------------------------------------------------
# 1. thermal solver vs the closed-form slab


def _slab_error(level):
    """Max nodal deviation from the closed-form uniform-source slab profile,
    relative to the profile's range."""
    dims = TissueDims()
    p = ThermalParams()
    geom = place_prism(TumorShape(POLY, n=10), dims)
    mesh = build_mesh(geom, RefinementSpec(*level))
    mesh = dataclasses.replace(mesh, tumor_frac=np.ones(mesh.n_tets))
    field, _ = solve_heat(mesh, p)
    kw = dict(
        length=dims.z_len * 1e-3,
        k=p.k_tissue,
        h=p.h_top,
        q=p.q_tumor,
        t_bottom=p.t_bottom,
        t_ambient=p.t_ambient,
    )
    exact = oracles.slab_temperature(mesh.nodes[:, 2] * 1e-3, **kw)
    zs = np.linspace(0.0, kw["length"], 1001)
    rng = np.ptp(oracles.slab_temperature(zs, **kw))
    return float(np.max(np.abs(field.values - exact))) / rng


def test_slab_converges_to_closed_form():
    t0 = time.perf_counter()
    errs = [_slab_error(lv) for lv in ((24, 12, 8), (48, 24, 16), (96, 48, 32))]
    wall = time.perf_counter() - t0
    assert errs[0] > errs[1] > errs[2], f"error not monotone: {errs}"
    assert errs[2] <= 0.005, f"finest-level error {errs[2]:.2e} exceeds 0.5%"
    assert wall <= 60.0, f"slab study took {wall:.1f}s"


# ---------------------------------------------------------------------------
# 2. energy balance on the default decagon model


def test_energy_balance_closes_for_default_decagon():
    cfg = StudyConfig()
    geom = place_prism(tumor_shape(cfg, POLY, 10), cfg.tissue)
    mesh = build_mesh(geom, refinement_spec(cfg, POLY))
    u, _ = solve_elastic(mesh, cfg.elastic)
    field, _ = solve_heat(deform_mesh(mesh, u), cfg.thermal, method="direct")
    bal = energy_balance(field, cfg.thermal)
    assert bal.generated_w > 0.0
    assert abs(bal.residual_rel) < 0.005, (
        f"generated {bal.generated_w:.6f} W vs outflow "
        f"{bal.outflow_top_w + bal.outflow_bottom_w:.6f} W "
        f"(residual {bal.residual_rel:.2e})"
    )


# ---------------------------------------------------------------------------
# 3. mesh independence at production element counts


@pytest.mark.parametrize("family", FAMILIES, ids=["polygon", "star"])
def test_mesh_independence_for_order_ten(family, tmp_path):
    cfg = replace(StudyConfig(), out_dir=str(tmp_path / "out"))
    rep = mesh_study(cfg, family, 10)
    assert 21_000 <= rep.elements[0] <= 23_000
    assert 29_000 <= rep.elements[1] <= 31_000
    assert rep.rel_diffs[0] < 0.01, (
        f"{family.value}: coarse-vs-middle difference {rep.rel_diffs[0]:.2e}"
    )
    assert rep.passes


# ---------------------------------------------------------------------------
# 4. monotonicity and saturation of T_max(n)


def test_tmax_monotone_saturating_and_ordered(study):
    jitter = 0.005
    caps = {POLY: 0.02, STAR: 0.01}
    for fam in FAMILIES:
        c = study.curves[fam]
        ns, t = c["n"], c["t_max_c"]
        assert list(ns) == list(range(3, 101))
        steps = np.diff(t)
        worst = float(steps.min())
        assert worst >= -jitter, (
            f"{fam.value}: T_max drops {-worst:.4f} C at n={ns[steps.argmin() + 1]}"
        )
        late = np.abs(steps[ns[1:] > 20])
        assert float(late.max()) < caps[fam], (
            f"{fam.value}: step {late.max():.4f} C beyond n=20 exceeds {caps[fam]}"
        )
    gap = study.curves[STAR]["t_max_c"] - study.curves[POLY]["t_max_c"]
    n_min = study.curves[POLY]["n"][gap.argmin()]
    assert float(gap.min()) >= 0.0, (
        f"star curve dips {-gap.min():.4f} C below polygon at n={n_min}"
    )


# ---------------------------------------------------------------------------
# 5. calibrated temperature levels


def test_calibrated_levels_hit_target_windows(study):
    poly = dict(zip(study.curves[POLY]["n"], study.curves[POLY]["t_max_c"]))
    star = dict(zip(study.curves[STAR]["n"], study.curves[STAR]["t_max_c"]))
    assert poly[3] == pytest.approx(29.7, abs=1e-6)  # calibration anchor
    assert 30.1 <= poly[100] <= 30.9, f"polygon n=100 level {poly[100]:.3f} C"
    assert 29.9 <= star[3] <= 30.7, f"star n=3 level {star[3]:.3f} C"
    assert 30.4 <= star[100] <= 31.2, f"star n=100 level {star[100]:.3f} C"


# ---------------------------------------------------------------------------
# 6. Fourier fit quality


def test_fit_error_below_one_percent_everywhere(study):
    for fam in FAMILIES:
        worst = float(study.curves[fam]["fit_rmse_rel"].max())
        assert worst < 0.01, f"{fam.value}: worst relative fit RMSE {worst:.2e}"


def test_fit_recovers_synthetic_coefficients():
    rng = np.random.default_rng(7)
    positions = np.linspace(0.0, 0.12, 121)
    origin = 0.06
    for _ in range(20):
        truth = FourierSignature(
            a0=float(rng.uniform(29.0, 31.0)),
            a=tuple(rng.uniform(0.3, 0.5) * 0.5**i for i in range(4)),
            b=tuple(rng.uniform(-0.05, 0.05) * 0.5**i for i in range(4)),
            w=float(rng.uniform(50.5, 54.5)),
            fit_rmse_rel=0.0,
        )
        fit = fit_fourier4(
            SurfaceProfile(positions, truth.evaluate(positions, origin))
        )
        err = float(np.max(np.abs(fit.features() - truth.features())))
        assert err < 1e-6, f"coefficient recovery error {err:.2e} (w={truth.w:.3f})"


# ---------------------------------------------------------------------------
# 7. signature plausibility


def test_fundamental_in_band_and_first_harmonic_dominates(study):
    for fam in FAMILIES:
        c = study.curves[fam]
        assert float(c["w"].min()) >= 50.0 and float(c["w"].max()) <= 55.0, (
            f"{fam.value}: w range [{c['w'].min():.2f}, {c['w'].max():.2f}]"
        )
        amps = [np.hypot(c[f"a{i}"], c[f"b{i}"]) for i in range(1, 5)]
        lead = amps[0]
        for i, amp in enumerate(amps[1:], start=2):
            bad = int(np.sum(amp >= lead))
            assert bad == 0, f"{fam.value}: harmonic {i} beats harmonic 1 in {bad} models"


# ---------------------------------------------------------------------------
# 8. exact-interpolation training


def test_rbf_training_reaches_interpolation_precision(study):
    for fam in FAMILIES:
        res = run_learning(study.sweeps[fam].dataset, study.cfg, persist=False)
        assert res.train_report.rmse < 1e-8, (
            f"{fam.value}: training RMSE {res.train_report.rmse:.3e} n-units"
        )


# ---------------------------------------------------------------------------
# 9. generalization across split seeds


def test_rounded_accuracy_and_rank_correlation_over_seeds(study):
    for fam in FAMILIES:
        dataset = study.sweeps[fam].dataset
        reports = [
            run_learning(dataset, study.cfg, seed=seed, persist=False)
            for seed in range(5)
        ]
        acc = float(np.mean([r.test_report.rounded_accuracy for r in reports]))
        corr = float(np.mean([r.test_rank_corr for r in reports]))
        assert acc >= 0.90, f"{fam.value}: seed-averaged rounded accuracy {acc:.3f}"
        assert corr > 0.95, f"{fam.value}: seed-averaged rank correlation {corr:.3f}"


# ---------------------------------------------------------------------------
# 10. error-metric identities


def test_metric_identities_on_random_vectors():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        m = int(rng.integers(3, 200))
        scale = float(10.0 ** rng.uniform(-3, 3))
        targets = rng.uniform(3, 100, size=m).round()
        preds = targets + scale * rng.standard_normal(m)
        rep = eval_report(preds, targets)
        tol = 1e-12 * max(rep.mse, 1e-300)
        assert abs(rep.rmse**2 - rep.mse) <= tol
        assert abs(rep.mse - (rep.variance + rep.mean_err**2)) <= tol


# ---------------------------------------------------------------------------
# 11. geometry oracles


def test_all_sweep_shapes_conserve_area():
    g = StudyConfig().geometry
    for n in range(3, 101):
        for poly in (
            regular_polygon(n, g.base_area_mm2),
            star_polygon(n, g.star_inner_radius_mm, g.base_area_mm2),
        ):
            rel = abs(oracles.fan_area(poly.vertices) - g.base_area_mm2)
            rel /= g.base_area_mm2
            assert rel <= 1e-9, f"n={n}: area off by {rel:.2e} relative"


def test_containment_matches_winding_oracle():
    g = StudyConfig().geometry
    rng = np.random.default_rng(5)
    shapes = {
        "polygon": [regular_polygon(n, g.base_area_mm2) for n in (3, 7, 36, 81)],
        "star": [
            star_polygon(n, g.star_inner_radius_mm, g.base_area_mm2)
            for n in (3, 7, 36, 81)
        ],
    }
    for label, polys in shapes.items():
        for poly in polys:  # 2500 points x 4 orders = 1e4 per class
            lo = poly.vertices.min(axis=0) - 2.0
            hi = poly.vertices.max(axis=0) + 2.0
            pts = rng.uniform(lo, hi, size=(2500, 2))
            for p in pts:
                ours = point_in_polygon(p, poly)
                ref = oracles.winding_contains(p, poly.vertices)
                assert ours == ref, f"{label}: disagreement at {p}"


# ---------------------------------------------------------------------------
# 12. byte-level determinism of sweep + learn


def _artifact_digests(out_dir: Path) -> dict:
    out = {}
    for path in sorted(out_dir.rglob("*")):
        if path.suffix == ".csv" or path.name.endswith("_model.txt"):
            rel = path.relative_to(out_dir).as_posix()
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_sweep_and_learn_outputs_are_byte_identical(tmp_path):
    digests = []
    for run in ("first", "second"):
        cfg = replace(
            StudyConfig(),
            sweep=SweepSpec(stop=8),
            learn=LearnSpec(train_size=3, test_size=3),
            out_dir=str(tmp_path / run),
        )
        run_sweep(cfg, FAMILIES)
        for fam in FAMILIES:
            run_learning(load_dataset(cfg, fam), cfg)
        digests.append(_artifact_digests(Path(cfg.out_dir)))
    assert digests[0].keys() == digests[1].keys()
    diff = [k for k in digests[0] if digests[0][k] != digests[1][k]]
    assert not diff, f"outputs differ between runs: {diff}"


# ---------------------------------------------------------------------------
# runtime budget


def test_full_sweep_fits_runtime_budget(study):
    solved = sum(len(study.sweeps[fam].solved) for fam in FAMILIES)
    skipped = sum(len(study.sweeps[fam].skipped) for fam in FAMILIES)
    assert solved + skipped == 196
    assert not any(study.sweeps[fam].failed for fam in FAMILIES)
    assert study.wall < 1800.0, f"196-model sweep took {study.wall:.0f}s"
