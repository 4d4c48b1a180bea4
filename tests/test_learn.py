import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactherm.errors import DatasetSizeError, TrainingError
from tactherm.learn import (
    TEST,
    TRAIN,
    BoxStats,
    Dataset,
    EvalReport,
    coefficient_stats,
    eval_report,
    evaluate,
    fit_normalizer,
    predict,
    rank_correlation,
    save_model,
    split_dataset,
    train_rbf,
    write_report_csv,
)

import oracles


def toy_dataset(rows=98, features=10, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, features))
    y = np.arange(3, 3 + rows, dtype=float)
    return Dataset(x, y, family="toy")


def test_split_sizes_and_determinism():
    d = toy_dataset()
    s1 = split_dataset(d, seed=42)
    s2 = split_dataset(d, seed=42)
    np.testing.assert_array_equal(s1.split, s2.split)
    assert int(np.sum(s1.split == TRAIN)) == 68
    assert int(np.sum(s1.split == TEST)) == 30
    s3 = split_dataset(d, seed=43)
    assert not np.array_equal(s1.split, s3.split)
    xt, yt = s1.rows(TRAIN)
    xe, ye = s1.rows(TEST)
    assert sorted(np.concatenate([yt, ye])) == sorted(d.targets)


def test_split_rejects_wrong_size():
    with pytest.raises(DatasetSizeError):
        split_dataset(toy_dataset(rows=97), seed=0)
    # override for non-standard sweeps
    s = split_dataset(toy_dataset(rows=10), seed=0, train_size=7, test_size=3)
    assert int(np.sum(s.split == TRAIN)) == 7


def test_normalizer_basics():
    norm = fit_normalizer(np.array([[2.0, 5.0], [4.0, 5.0]]))
    got = norm.transform(np.array([[2.0, 5.0], [4.0, 5.0], [3.0, 5.0]]))
    np.testing.assert_allclose(got[:, 0], [-1.0, 1.0, 0.0])
    # constant feature maps to zero, no division blowup
    np.testing.assert_array_equal(got[:, 1], 0.0)
    # out-of-range rows transform unclipped
    far = norm.transform(np.array([[6.0, 5.0]]))
    assert far[0, 0] == pytest.approx(3.0)


def test_normalizer_leaves_a_roundoff_only_feature_dead():
    # b1..b4 of a mirror-symmetric profile are fit roundoff of about 1e-14
    rng = np.random.default_rng(3)
    x = np.column_stack([rng.uniform(0.0, 1.0, 12), rng.uniform(-1e-14, 1e-14, 12)])
    norm = fit_normalizer(x)
    got = norm.transform(x)
    np.testing.assert_array_equal(got[:, 1], 0.0)
    assert got[:, 0].min() == -1.0 and got[:, 0].max() == 1.0
    # a span just above the floor is still scaled
    live = fit_normalizer(np.array([[0.0], [2e-10]])).transform(np.array([[0.0], [2e-10]]))
    np.testing.assert_allclose(live.ravel(), [-1.0, 1.0])
    # the dead column does not move a prediction
    y = np.arange(12.0)
    model = train_rbf(x, y)
    jittered = x.copy()
    jittered[:, 1] = -jittered[:, 1]
    np.testing.assert_array_equal(predict(model, jittered), predict(model, x))


def test_normalizer_idempotent_on_normalized_data():
    rng = np.random.default_rng(7)
    x = rng.uniform(-3.0, 9.0, size=(40, 6))
    xn = fit_normalizer(x).transform(x)
    again = fit_normalizer(xn).transform(xn)
    np.testing.assert_allclose(again, xn, atol=1e-12)


def test_single_center_interpolates():
    model = train_rbf(np.array([[0.3, -0.2]]), np.array([17.0]))
    assert predict(model, np.array([[0.3, -0.2]]))[0] == pytest.approx(17.0, abs=1e-9)


def test_two_point_kernel_matrix():
    x = np.array([[0.0], [1.0]])
    model = train_rbf(x, np.array([5.0, 9.0]))
    # normalized centers are -1 and +1, so Phi = [[0, 2], [2, 0]] and the
    # interpolant w1 |x + 1| + w2 |x - 1| + wC with w1 + w2 = 0 is (1, -1, 7)
    np.testing.assert_array_equal(model.centers.ravel(), [-1.0, 1.0])
    from tactherm.learn import _kernel

    np.testing.assert_array_equal(_kernel(model.centers, model.centers), [[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(model.weights, [1.0, -1.0, 7.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(predict(model, x), [5.0, 9.0], rtol=0, atol=1e-14)
    assert predict(model, np.array([[0.5]]))[0] == pytest.approx(7.0, abs=1e-14)


def test_training_interpolates_random_data():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, size=(30, 10))
    y = rng.uniform(3.0, 100.0, size=30)
    model = train_rbf(x, y)
    rep = evaluate(model, x, y)
    assert rep.rmse < 1e-8


def test_prediction_permutation_invariant():
    rng = np.random.default_rng(13)
    x = rng.uniform(-2.0, 2.0, size=(25, 4))
    y = rng.uniform(0.0, 10.0, size=25)
    probe = rng.uniform(-2.0, 2.0, size=(8, 4))
    base = predict(train_rbf(x, y), probe)
    perm = rng.permutation(25)
    shuffled = predict(train_rbf(x[perm], y[perm]), probe)
    np.testing.assert_allclose(shuffled, base, atol=1e-8)


def test_duplicate_normalized_rows_fail():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 3))
    x[5] = x[2]
    y = rng.normal(size=10)
    with pytest.raises(TrainingError):
        train_rbf(x, y)
    # rows that differ only in a dead (roundoff-span) feature coincide too
    dead = np.column_stack([rng.uniform(0.0, 1.0, 10), rng.uniform(-1e-14, 1e-14, 10)])
    dead[7, 0] = dead[3, 0]
    assert dead[7, 1] != dead[3, 1]
    with pytest.raises(TrainingError):
        train_rbf(dead, y)


def test_three_rows_with_six_live_features_interpolate():
    # fewer rows than a linear tail would need: the constant tail still solves
    rng = np.random.default_rng(19)
    x = rng.uniform(-2.0, 2.0, size=(3, 10))
    x[:, 6:] = 0.25  # four dead features, as b1..b4 on symmetric meshes
    y = np.array([3.0, 4.0, 5.0])
    model = train_rbf(x, y)
    np.testing.assert_allclose(predict(model, x), y, rtol=0, atol=1e-12)
    assert model.weights[:-1].sum() == pytest.approx(0.0, abs=1e-12)


def test_eval_report_hand_values():
    rep = eval_report(np.array([4.0, 2.0]), np.array([3.0, 3.0]))
    assert rep.mean_err == pytest.approx(0.0)
    assert rep.mse == pytest.approx(1.0)
    assert rep.rmse == pytest.approx(1.0)
    assert rep.variance == pytest.approx(1.0)
    assert rep.std == pytest.approx(1.0)
    assert rep.rounded_accuracy == pytest.approx(0.0)
    perfect = eval_report(np.array([3.1, 6.9]), np.array([3.0, 7.0]))
    assert perfect.rounded_accuracy == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(2, 50))
def test_metric_identities(seed, n):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 100.0, size=n)
    p = t + rng.normal(scale=rng.uniform(1e-6, 10.0), size=n)
    rep = eval_report(p, t)
    scale = max(rep.mse, 1e-300)
    assert abs(rep.rmse**2 - rep.mse) <= 1e-12 * scale
    assert abs(rep.mse - (rep.variance + rep.mean_err**2)) <= 1e-12 * scale


def test_box_stats():
    bs = coefficient_stats(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert bs == BoxStats(1.0, 2.0, 3.0, 4.0, 5.0)
    same = coefficient_stats(np.full(7, 2.5))
    assert same == BoxStats(2.5, 2.5, 2.5, 2.5, 2.5)
    rng = np.random.default_rng(23)
    vals = rng.normal(size=31)
    bs = coefficient_stats(vals)
    q1, med, q3 = oracles.quartiles_linear(vals)
    assert bs.q1 == pytest.approx(q1)
    assert bs.median == pytest.approx(med)
    assert bs.q3 == pytest.approx(q3)
    assert bs.minimum == vals.min() and bs.maximum == vals.max()


def test_rank_correlation():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert rank_correlation(a, a * 3.0 + 2.0) == pytest.approx(1.0)
    assert rank_correlation(a, -a) == pytest.approx(-1.0)


def test_rank_correlation_matches_scipy_spearmanr():
    from scipy.stats import spearmanr

    rng = np.random.default_rng(17)
    cases = []
    for size in (5, 12, 30, 98):
        a, b = rng.normal(size=size), rng.normal(size=size)
        cases += [
            (a, b),  # random
            (np.round(2.0 * a), np.round(b)),  # ties in both
            (np.repeat(a[: (size + 1) // 2], 2)[:size], b),  # pairs of ties
            (a, a[::-1].copy()),
            (np.sort(a), np.sort(a)[::-1]),  # reversed order
            (a, -3.5 * a + 2.0),  # affine map
            (a, 0.25 * a - 7.0),
        ]
    for a, b in cases:
        assert abs(rank_correlation(a, b) - spearmanr(a, b).statistic) <= 1e-14


def test_rank_correlation_of_a_constant_is_nan():
    from scipy.stats import spearmanr

    a, flat = np.array([1.0, 3.0, 2.0, 5.0]), np.full(4, 2.5)
    with pytest.warns(Warning):  # the oracle warns that its input is constant
        assert math.isnan(spearmanr(flat, a).statistic)
    assert math.isnan(rank_correlation(flat, a))
    assert math.isnan(rank_correlation(a, flat))


def test_model_file_is_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    x = rng.uniform(-1.5, 1.5, size=(20, 10))
    y = rng.uniform(3.0, 100.0, size=20)
    model = train_rbf(x, y)
    path = tmp_path / "m.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rbfmodel v2"
    assert lines[1] == "shape 20 10"
    fields = {"center": []}
    for line in lines[2:]:
        key, *values = line.split(" ")
        floats = [float(v) for v in values]
        if key == "center":
            fields["center"].append(floats)
        else:
            fields[key] = floats
    assert sorted(fields) == ["center", "norm_hi", "norm_lo", "weights"]
    for key, expect in (
        ("norm_lo", model.normalizer.lo),
        ("norm_hi", model.normalizer.hi),
        ("center", model.centers),
        ("weights", model.weights),
    ):
        np.testing.assert_array_equal(np.array(fields[key]), expect)


def test_report_outputs(tmp_path):
    rep = eval_report(np.array([3.0, 4.2]), np.array([3.0, 4.0]))
    write_report_csv(rep, tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text().splitlines()
    assert text[0] == "metric,value"
    assert text[1].startswith("rmse,")
    # one row per EvalReport field, in the order the report files have always had
    assert [line.split(",")[0] for line in text[1:]] == [
        "rmse", "mse", "mean_err", "variance", "std", "rounded_accuracy", "count"
    ]
