import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactherm.errors import DegenerateFitError, ParameterError
from tactherm.fem import ScalarField
from tactherm.geometry import ShapeFamily, TissueDims, TumorShape, place_prism
from tactherm.mesh import RefinementSpec, build_mesh
from tactherm.signature import (
    FourierSignature,
    SurfaceProfile,
    extract_profile,
    fit_fourier4,
    max_surface_temp,
)

import oracles


def synth_profile(coeffs, samples=121, span=0.12):
    """Profile generated from known centered-series coefficients."""
    x = np.linspace(0.0, span, samples)
    u = x - span / 2.0
    t = oracles.fourier4_eval(u, coeffs)
    return SurfaceProfile(positions=x, temps=t)


REFERENCE = dict(
    a0=29.0, a1=0.9, a2=0.24, a3=0.07, a4=0.02,
    b1=0.004, b2=0.008, b3=0.012, b4=0.016, w=52.5,
)


def test_self_inversion_recovers_known_coefficients():
    profile = synth_profile(REFERENCE)
    sig = fit_fourier4(profile)
    assert sig.a0 == pytest.approx(REFERENCE["a0"], abs=1e-6)
    for i in range(1, 5):
        assert sig.a[i - 1] == pytest.approx(REFERENCE[f"a{i}"], abs=1e-6)
        assert sig.b[i - 1] == pytest.approx(REFERENCE[f"b{i}"], abs=1e-6)
    assert sig.w == pytest.approx(REFERENCE["w"], abs=1e-4)
    assert sig.fit_rmse_rel < 1e-9


def test_pure_fundamental_is_orthogonal():
    span = 0.12
    w = 2.0 * math.pi / span
    x = np.linspace(0.0, span, 121)
    t = 29.0 + 0.8 * np.cos(w * (x - span / 2.0))
    sig = fit_fourier4(SurfaceProfile(positions=x, temps=t))
    assert sig.a0 == pytest.approx(29.0, abs=1e-8)
    assert sig.a[0] == pytest.approx(0.8, abs=1e-8)
    for val in (*sig.a[1:], *sig.b):
        assert abs(val) < 1e-8
    assert sig.w == pytest.approx(w, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    a1=st.floats(min_value=0.2, max_value=2.0),
    a2=st.floats(min_value=-0.3, max_value=0.3),
    b1=st.floats(min_value=-0.2, max_value=0.2),
    w=st.floats(min_value=48.0, max_value=57.0),
)
def test_self_inversion_property(a1, a2, b1, w):
    coeffs = dict(a0=29.0, a1=a1, a2=a2, a3=0.01, a4=0.005, b1=b1, b2=0.0, b3=0.0, b4=0.0, w=w)
    sig = fit_fourier4(synth_profile(coeffs))
    # the fit must reproduce the data regardless of parameter identifiability
    assert sig.fit_rmse_rel < 1e-7
    assert sig.a[0] == pytest.approx(a1, abs=1e-4)
    assert sig.w == pytest.approx(w, rel=1e-3)


def test_flat_profile_rejected():
    x = np.linspace(0.0, 0.12, 121)
    with pytest.raises(DegenerateFitError):
        fit_fourier4(SurfaceProfile(positions=x, temps=np.full(121, 30.0)))


def test_profile_validation():
    x = np.linspace(0.0, 0.12, 121)
    with pytest.raises(ParameterError):
        SurfaceProfile(positions=x[:40], temps=np.zeros(40))  # too short
    with pytest.raises(ParameterError):
        SurfaceProfile(positions=x[::-1], temps=np.zeros(121))  # decreasing
    with pytest.raises(ParameterError):
        SurfaceProfile(positions=x, temps=np.zeros(42))  # length mismatch
    with pytest.raises(ParameterError):
        FourierSignature(a0=29.0, a=(1.0,) * 4, b=(0.0,) * 4, w=-5.0, fit_rmse_rel=0.0)


def test_signature_features_vector():
    sig = FourierSignature(
        a0=29.0, a=(0.9, 0.2, 0.05, 0.01), b=(0.0, 0.01, 0.02, 0.03), w=52.0,
        fit_rmse_rel=1e-4,
    )
    f = sig.features()
    assert f.shape == (10,)
    np.testing.assert_array_equal(
        f, [29.0, 0.9, 0.2, 0.05, 0.01, 0.0, 0.01, 0.02, 0.03, 52.0]
    )


def test_signature_evaluate_matches_oracle():
    sig = FourierSignature(
        a0=29.0, a=(0.9, 0.24, 0.07, 0.02), b=(0.004, 0.008, 0.012, 0.016), w=52.5,
        fit_rmse_rel=0.0,
    )
    x = np.linspace(0.0, 0.12, 61)
    got = sig.evaluate(x, origin=0.06)
    want = oracles.fourier4_eval(x - 0.06, REFERENCE)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_max_surface_temp_monotone_and_ties():
    x = np.linspace(0.0, 0.12, 61)
    rising = SurfaceProfile(positions=x, temps=np.linspace(20.0, 30.0, 61))
    assert max_surface_temp(rising) == (pytest.approx(0.12), pytest.approx(30.0))
    temps = np.zeros(61)
    temps[10] = temps[20] = 5.0
    tie = SurfaceProfile(positions=x, temps=temps)
    assert max_surface_temp(tie)[0] == pytest.approx(x[10])


def test_extract_profile_constant_field():
    geom = place_prism(TumorShape(ShapeFamily.REGULAR_POLYGON, n=10), TissueDims())
    mesh = build_mesh(geom, RefinementSpec(8, 4, 3))
    field = ScalarField(mesh, np.full(mesh.n_nodes, 31.5))
    prof = extract_profile(field, 61, x_range_mm=(0.0, 120.0), y_mid_mm=30.0)
    np.testing.assert_allclose(prof.temps, 31.5, rtol=1e-12)
    assert prof.positions[0] == pytest.approx(0.0)
    assert prof.positions[-1] == pytest.approx(0.12)


def test_extract_profile_samples_spacing():
    geom = place_prism(TumorShape(ShapeFamily.REGULAR_POLYGON, n=10), TissueDims())
    mesh = build_mesh(geom, RefinementSpec(8, 4, 3))
    field = ScalarField(mesh, mesh.nodes[:, 0].copy())
    path = dict(x_range_mm=(0.0, 120.0), y_mid_mm=30.0)
    prof = extract_profile(field, 121, **path)
    d = np.diff(prof.positions)
    np.testing.assert_allclose(d, 0.001, rtol=1e-12)  # 1 mm in meters
    # field = x (mm) on the solved x <= 60 half: the profile reads the
    # mirrored field, min(x, 120 - x), at every sample position
    x_mm = prof.positions * 1e3
    np.testing.assert_allclose(prof.temps, np.minimum(x_mm, 120.0 - x_mm), rtol=1e-10)
    with pytest.raises(ParameterError, match="41 samples"):
        extract_profile(field, 11, **path)
    with pytest.raises(ParameterError, match="not symmetric"):
        extract_profile(field, 121, x_range_mm=(0.0, 100.0), y_mid_mm=30.0)
    whole, _ = oracles.mirror_mesh(mesh)
    with pytest.raises(ParameterError, match="SYMMETRY"):
        extract_profile(ScalarField(whole, np.zeros(whole.n_nodes)), 121, **path)


@pytest.fixture(scope="module")
def level0_profiles():
    """Centerline profiles of production level-0 models of both families."""
    from tactherm.pipeline import StudyConfig, run_model

    cfg = StudyConfig()
    out = []
    for family, n in [
        (ShapeFamily.REGULAR_POLYGON, 3),
        (ShapeFamily.REGULAR_POLYGON, 10),
        (ShapeFamily.REGULAR_POLYGON, 100),
        (ShapeFamily.STAR_POLYGON, 3),
        (ShapeFamily.STAR_POLYGON, 50),
        (ShapeFamily.STAR_POLYGON, 99),
    ]:
        r = run_model(cfg, family, n)
        out.append(r.profile)
    return out


def test_fit_agrees_with_golden_section_oracle(level0_profiles):
    """The root-refined fit matches the SVD + golden-section fit to within
    the latter's own roundoff spread (it sets w to about 1e-8 only)."""
    for profile in level0_profiles:
        got = fit_fourier4(profile).features()
        want = oracles.fit_fourier4_golden(profile).features()
        np.testing.assert_allclose(got[:9], want[:9], rtol=0, atol=2e-8)
        assert abs(got[9] - want[9]) <= 3e-8 * want[9]


def test_fit_is_stable_under_roundoff_perturbation(level0_profiles):
    """A 1e-15 relative change of the temperatures moves w by < 1e-11."""
    rng = np.random.default_rng(11)
    for profile in level0_profiles:
        w = fit_fourier4(profile).w
        for _ in range(3):
            t = profile.temps * (1.0 + 1e-15 * rng.standard_normal(profile.temps.size))
            moved = fit_fourier4(SurfaceProfile(positions=profile.positions, temps=t)).w
            assert abs(moved - w) < 1e-11 * w


def test_slope_evaluations_are_bounded(level0_profiles, monkeypatch):
    """The w refine evaluates dSSE/dw at most 40 times per fit."""
    import tactherm.signature as signature

    calls = []
    slope = signature._sse_slope

    def counted(*args):
        calls[-1] += 1
        return slope(*args)

    monkeypatch.setattr(signature, "_sse_slope", counted)
    profiles = [*level0_profiles, synth_profile(REFERENCE)]
    for profile in profiles:
        calls.append(0)
        fit_fourier4(profile)
    assert 0 < min(calls) and max(calls) <= 40


def test_root_refine_moves_both_ends_of_the_bracket():
    """On x^10 - 1 over [0, 1.3] plain regula falsi keeps the right end and
    creeps in from the left; the Illinois rule still closes the bracket on
    the root within the step budget."""
    from tactherm.signature import _illinois_root

    root = _illinois_root(lambda x: x**10 - 1.0, 0.0, 1.3, -1.0, 1.3**10 - 1.0, 1e-14)
    assert root == pytest.approx(1.0, abs=1e-13)
