"""Booster loop: variance math, label updates, strategies, end-to-end behavior."""

import hashlib
import importlib.util
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uadb.booster
import uadb.cli
import uadb.rng
from uadb import (
    BoosterConfig,
    DataError,
    Dataset,
    DetectorKind,
    DetectorParams,
    InputConditioner,
    Loss,
    Strategy,
    SyntheticKind,
    TrainSpec,
    ablation_scores,
    aucroc,
    average_precision,
    classify_cases,
    correction_trace,
    fit_score,
    generate_synthetic,
    iteration_metrics,
    minmax_values,
    per_instance_variance,
    run_booster,
    score_points,
    update_pseudo_labels,
)
from uadb.booster import _assign_folds, _fold_workers
from uadb.nn import forward, train
from uadb.rng import Stream, derive


def _oracle_two_pass_variance(matrix: np.ndarray) -> np.ndarray:
    """Population variance per row: mean first, then mean squared deviation."""
    out = np.empty(matrix.shape[0])
    for i, row in enumerate(matrix):
        mu = sum(row) / len(row)
        out[i] = sum((x - mu) ** 2 for x in row) / len(row)
    return out


# ---------------------------------------------------------------------------
# config


def test_booster_config_validation():
    with pytest.raises(ValueError):
        BoosterConfig(T=0)
    with pytest.raises(ValueError):
        BoosterConfig(fold_count=0)
    with pytest.raises(ValueError, match="train.seed"):  # BoosterConfig.seed is the one seed
        BoosterConfig(train=TrainSpec(seed=3))
    cfg = BoosterConfig()
    assert cfg.T == 10 and cfg.fold_count == 3
    assert cfg.strategy is Strategy.UADB


# ---------------------------------------------------------------------------
# variance and label update


def test_variance_equal_entries_is_zero():
    v = per_instance_variance(np.array([[0.2], [0.2]]), np.array([0.2, 0.2]))
    assert v.tolist() == [0.0, 0.0]


def test_variance_of_zero_one_pair():
    v = per_instance_variance(np.array([[0.0]]), np.array([1.0]))
    assert v.tolist() == [0.25]


def test_variance_matches_two_pass_oracle():
    stream = Stream(17)
    history = np.column_stack([stream.uniform(30) for _ in range(5)])
    current = stream.uniform(30)
    got = per_instance_variance(history, current)
    stacked = np.column_stack([history, current])
    np.testing.assert_allclose(got, _oracle_two_pass_variance(stacked), atol=1e-12)


def test_variance_length_mismatch():
    with pytest.raises(ValueError):
        per_instance_variance(np.array([[0.1], [0.2]]), np.array([0.1]))
    with pytest.raises(ValueError):
        per_instance_variance(np.array([0.1, 0.2]), np.array([0.1, 0.2]))  # history not (n, t)


def test_update_identity_when_variance_zero():
    y = np.array([0.0, 0.3, 1.0])
    out = update_pseudo_labels(y, np.zeros(3))
    assert np.array_equal(out, y)


def test_update_case_fixture_exact():
    """TP,FP,FN,TN = [1,1,0,0] with v = [0.2,0.05,0.2,0.05]: the affine map
    is (x - 0.05)/1.15, so FP drops below 1 and FN rises above 0."""
    y = np.array([1.0, 1.0, 0.0, 0.0])
    out = update_pseudo_labels(y, np.array([0.2, 0.05, 0.2, 0.05]))
    expected = (np.array([1.2, 1.05, 0.2, 0.05]) - 0.05) / 1.15
    np.testing.assert_allclose(out, expected, atol=1e-15)
    s_tp, s_fp, s_fn, s_tn = out
    assert s_tp == 1.0 and s_tn == 0.0
    assert s_fp < 1.0 and s_fn > 0.0


def test_update_iteration_narrows_gap_monotonically():
    y = np.array([1.0, 1.0, 0.0, 0.0])
    v = np.array([0.2, 0.05, 0.2, 0.05])
    gap = 1.0
    for _ in range(40):
        y = update_pseudo_labels(y, v)
        s_tp, s_fp, s_fn, s_tn = y
        assert s_tp == 1.0 and s_tn == 0.0  # extremes stay anchored
        if gap <= 0.0:
            break
        assert s_fp - s_fn < gap
        gap = s_fp - s_fn
    assert gap <= 0.0  # false negative eventually outranks false positive


def test_update_validation():
    for bad in (2.0, -0.1, np.nan):
        with pytest.raises(ValueError, match=r"pseudo labels must lie in \[0, 1\]"):
            update_pseudo_labels(np.array([0.5, bad]), np.zeros(2))
    with pytest.raises(ValueError, match="pseudo labels must be 1-d"):
        update_pseudo_labels(np.full((2, 1), 0.5), np.zeros(2))
    with pytest.raises(ValueError):
        update_pseudo_labels(np.array([0.5, 0.5]), np.zeros(3))


def test_variance_vector_validation():
    assert len(update_pseudo_labels(np.array([0.5, 0.5]), np.array([0.0, 0.2]))) == 2
    with pytest.raises(ValueError):
        update_pseudo_labels(np.array([0.5, 0.5]), np.zeros((2, 1)))
    for bad in (-0.1, np.nan, np.inf):  # variances must be finite and non-negative
        with pytest.raises(ValueError):
            update_pseudo_labels(np.array([0.5, 0.5]), np.array([0.0, bad]))


# ---------------------------------------------------------------------------
# fold assignment


@pytest.mark.parametrize("n,k", [(9, 3), (10, 3), (11, 3), (300, 3), (7, 1)])
def test_fold_assignment_balanced(n, k):
    folds = _assign_folds(n, k, seed=5)
    assert folds.shape == (n,)
    counts = np.bincount(folds, minlength=k)
    assert counts.sum() == n
    assert counts.max() - counts.min() <= 1
    assert np.array_equal(folds, _assign_folds(n, k, seed=5))
    if k > 1:
        assert not np.array_equal(folds, _assign_folds(n, k, seed=6))


# ---------------------------------------------------------------------------
# run_booster


def test_history_column_count_minimal():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=0)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    cfg = BoosterConfig(T=1, fold_count=1)
    res = run_booster(ds, teacher, cfg)
    assert res.label_history.shape == (30, 2)
    assert res.variance_history.shape == (30, 1)
    assert len(res.models) == 1


def test_history_first_column_is_normalized_teacher():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=1)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    res = run_booster(ds, teacher, BoosterConfig(T=2, fold_count=2))
    hist = res.label_history
    assert hist.dtype == np.float64
    assert np.array_equal(hist[:, 0], minmax_values(teacher))
    assert hist.min() >= 0.0 and hist.max() <= 1.0
    final = res.final_scores
    assert final.dtype == np.float64 and final.shape == (30,)
    assert final.min() == 0.0 and final.max() == 1.0


@pytest.mark.parametrize(
    "strategy,columns",
    [
        (Strategy.UADB, 4),
        (Strategy.SELF, 4),
        (Strategy.NAIVE, 1),
        (Strategy.DISCREPANCY, 1),
        (Strategy.DISCREPANCY_STAR, 4),
    ],
)
def test_history_columns_per_strategy(strategy, columns):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=2)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    cfg = BoosterConfig(T=3, fold_count=2, strategy=strategy)
    res = run_booster(ds, teacher, cfg)
    assert res.label_history.shape == (30, columns)
    assert res.label_history.dtype == np.float64 and res.label_history.flags.c_contiguous
    assert res.variance_history.shape == (30, cfg.T if strategy is Strategy.UADB else 0)
    assert res.variance_history.dtype == np.float64
    assert res.predictions.shape == (30, 1 if columns == 1 else cfg.T)
    assert res.predictions.dtype == np.float64


def test_variance_history_only_for_uadb():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=2)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    res = run_booster(ds, teacher, BoosterConfig(T=2, fold_count=1, strategy=Strategy.SELF))
    assert res.variance_history.shape == (30, 0)


def test_run_booster_deterministic():
    ds = generate_synthetic(SyntheticKind.LOCAL, n=60, seed=3)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.LOF, k=10))
    cfg = BoosterConfig(T=3, seed=4)
    a = run_booster(ds, teacher, cfg)
    b = run_booster(ds, teacher, cfg)
    assert np.array_equal(a.final_scores, b.final_scores)
    assert np.array_equal(a.label_history, b.label_history)
    assert np.array_equal(a.variance_history, b.variance_history)


# sha256 over final scores, label history, variance history and every fold's theta
# (T=3, 2 epochs, batch 64, n=257: every fold trains on a short last batch)
_RUN_GOLDEN = {
    ("uadb", 1, "squared-error"): "010e9488c6818b03c22849524e3eb9a6b8cf549fa0356d6431380f845dca85ac",
    ("uadb", 1, "cross-entropy"): "d2638c3dbdbfba0d94396e7e30c90fb5d26c2cbae727911db54611f9c6f7bb61",
    ("uadb", 3, "squared-error"): "f773e05d602e2e978eb9b25c0a929df445902c588114b5dae584e483ba888782",
    ("uadb", 3, "cross-entropy"): "b8f1a6340e1d048d856d504b76066567558b7fd87d713e5a7f484573ea6d17c2",
    ("naive", 1, "squared-error"): "e46a6b187cd08f357de18b2c47c2972dab1c608d7d02e310fbf95baa67562c76",
    ("naive", 1, "cross-entropy"): "9eaa5f9923863dfd793c7922bc9ff09d26b987dbc2d2fea5330a7b1768e615db",
    ("naive", 3, "squared-error"): "3c965c4b085b6af36493ac2815030eb05e625c2c3ef3af97063b353b2e7d1300",
    ("naive", 3, "cross-entropy"): "eda46ef52e26b784422bd8e9820731033b15434d1de7b6097dd2a433b7765af0",
    ("discrepancy", 1, "squared-error"): "00b127ae610cf1cf8024907ebadc31edea6b95404a9b0e227e395082e2f6cf7f",
    ("discrepancy", 1, "cross-entropy"): "b58e2fd87c6a8132940194bf20309e5a48c17b723b8943c5b397d86e2ed2ccfc",
    ("discrepancy", 3, "squared-error"): "20d850a49888e6eae9c1c4224dc045dee6c204a9014bd76c8b10db3311e0f0ae",
    ("discrepancy", 3, "cross-entropy"): "8b80f7673806c3faacc32b2b8277b66f96978f6501ea4fb2b590c76347ef4c34",
    ("self", 1, "squared-error"): "e84190d0c6d041db8d3c06b59d47abd0a594eeccfb2514d4a44ac8e02f952710",
    ("self", 1, "cross-entropy"): "be3b5c6212ee1ee54e4e3d23e20e63f9f24b82f21c0f612ae5875786831b6b77",
    ("self", 3, "squared-error"): "c8caf03f2bfbcb7cb51384cc80a2e44512844b876a500cb8b98d27d493e1123a",
    ("self", 3, "cross-entropy"): "10b8ca40dead775a1e41e8fd17c97f487da2a3f2abdc4a7c2a088ff900456b96",
    ("discrepancy-star", 1, "squared-error"): "028cba09a6a5215dafd341958cf25ed329450a6b6646a1e592a84fad34478c13",
    ("discrepancy-star", 1, "cross-entropy"): "4052081f18b7592acd30288aacd6b9d09d9ec57cf903538e05b425bfcb9375a9",
    ("discrepancy-star", 3, "squared-error"): "9ba23bb80cfbcd0108344d3776367426805f8e5ca931d35329f4e262ae881cbd",
    ("discrepancy-star", 3, "cross-entropy"): "bd604a4d38a6b86a827be0544114c3ea9cd4975918b7c07887c5443f5e8fee97",
}


@pytest.mark.parametrize("loss", list(Loss))
@pytest.mark.parametrize("folds", [1, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_run_booster_golden_bits(strategy, folds, loss, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # fold threads on: unpinned, the folds train one by one
    ds = generate_synthetic(SyntheticKind.LOCAL, n=257, seed=5)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))
    spec = TrainSpec(epochs=2, batch_size=64, loss=loss)
    res = run_booster(ds, teacher, BoosterConfig(T=3, fold_count=folds, strategy=strategy, train=spec, seed=6))
    digest = hashlib.sha256()
    for array in (res.final_scores, res.label_history, res.variance_history, *(m.theta for m in res.models)):
        digest.update(array.tobytes())
    assert digest.hexdigest() == _RUN_GOLDEN[strategy.value, folds, loss.value]


def test_training_shuffles_derive_from_the_booster_seed(monkeypatch):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=4)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    seeds = []

    def recording_train(model, X, y, spec):
        seeds.append(spec.seed)
        return train(model, X, y, spec)

    monkeypatch.setattr("uadb.booster.train", recording_train)
    run_booster(ds, teacher, BoosterConfig(T=2, fold_count=3, seed=7))
    assert seeds == [derive(7, 301, t, f) for t in (1, 2) for f in range(3)]



def test_error_in_a_fold_thread_reaches_the_caller(monkeypatch):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=4)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))

    def failing_train(model, X, y, spec):
        if spec.seed == derive(7, 301, 2, 1):  # round 2, fold 1
            raise RuntimeError("fold 1 failed")
        return train(model, X, y, spec)

    monkeypatch.setattr("uadb.booster.train", failing_train)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with pytest.raises(RuntimeError, match="fold 1 failed"):
        run_booster(ds, teacher, BoosterConfig(T=3, fold_count=3, seed=7))


def test_concurrent_folds_lose_no_update(monkeypatch):
    # more fold threads than cores, switching every microsecond, against the same run with
    # every train call serialized behind one lock
    ds = generate_synthetic(SyntheticKind.CLUSTERED, n=80, seed=8)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))
    cfg = BoosterConfig(T=3, fold_count=5, train=TrainSpec(epochs=3, batch_size=16), seed=9)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        concurrent = run_booster(ds, teacher, cfg)
    finally:
        sys.setswitchinterval(switch)
    lock = threading.Lock()

    def serial_train(model, X, y, spec):
        with lock:
            return train(model, X, y, spec)

    monkeypatch.setattr("uadb.booster.train", serial_train)
    serial = run_booster(ds, teacher, cfg)
    assert np.array_equal(concurrent.label_history, serial.label_history)
    assert np.array_equal(concurrent.final_scores, serial.final_scores)
    assert all(np.array_equal(a.theta, b.theta) for a, b in zip(concurrent.models, serial.models))


@pytest.mark.parametrize(
    "env, workers",
    [
        ({}, 1),  # OpenBLAS then uses every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 3),
        ({"OMP_NUM_THREADS": "1"}, 3),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "4"}, 1),
    ],
)
def test_folds_train_concurrently_only_on_a_one_thread_blas(monkeypatch, env, workers):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _fold_workers(3) == workers

def test_run_booster_seed_changes_result():
    ds = generate_synthetic(SyntheticKind.LOCAL, n=60, seed=3)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.LOF, k=10))
    a = run_booster(ds, teacher, BoosterConfig(T=2, seed=1))
    b = run_booster(ds, teacher, BoosterConfig(T=2, seed=2))
    assert not np.array_equal(a.final_scores, b.final_scores)


def test_run_booster_length_check():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=0)
    for bad in (np.zeros(29), np.zeros((30, 1)), np.zeros((1, 30))):
        with pytest.raises(ValueError, match=r"teacher must have shape \(30,\)"):
            run_booster(ds, bad, BoosterConfig(T=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_booster_rejects_non_finite_teacher(bad):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=0)
    teacher = np.linspace(0.0, 1.0, 30)
    teacher[7] = bad
    with pytest.raises(DataError, match="teacher scores contain non-finite values"):
        run_booster(ds, teacher, BoosterConfig(T=1))


def test_run_booster_accepts_list_teacher():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=0)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    cfg = BoosterConfig(T=2, fold_count=2)
    from_list = run_booster(ds, teacher.tolist(), cfg)
    assert np.array_equal(from_list.final_scores, run_booster(ds, teacher, cfg).final_scores)


def test_constant_teacher_degenerates_to_half():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=5)
    teacher = np.full(30, 3.7)
    res = run_booster(ds, teacher, BoosterConfig(T=1, fold_count=1))
    assert np.all(res.label_history[:, 0] == 0.5)


def _assert_same_run_as_labeled(labels):
    """A dataset with these labels over the labeled dataset's features gives the labeled run."""
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=6)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    cfg = BoosterConfig(T=2, fold_count=2)
    ref = run_booster(ds, teacher, cfg)
    res = run_booster(Dataset(features=ds.features, labels=labels), teacher, cfg)
    for name in ("final_scores", "label_history", "variance_history", "predictions"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    assert not hasattr(res, "diagnostics")


def test_unlabeled_dataset_has_no_diagnostics():
    _assert_same_run_as_labeled(None)


@pytest.mark.parametrize("label", [0, 1])
def test_single_class_labels_skip_diagnostics_and_keep_scores(label):
    _assert_same_run_as_labeled(np.full(30, label))


def test_iteration_metrics_score_each_round_of_predictions():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=6)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    res = run_booster(ds, teacher, BoosterConfig(T=3, fold_count=2))
    assert iteration_metrics(res, ds.labels) == [
        {"iteration": t + 1, "aucroc": aucroc(p, ds.labels), "ap": average_precision(p, ds.labels)}
        for t, p in enumerate(res.predictions.T)
    ]
    assert [type(v) for v in iteration_metrics(res, ds.labels)[0].values()] == [int, float, float]


# seeded end-to-end behavior, default configuration


def test_default_run_improves_or_holds_teacher(clustered_default_run):
    ds, teacher, result = clustered_default_run
    assert aucroc(result.final_scores, ds.labels) >= aucroc(teacher, ds.labels) - 0.02


def test_readme_quickstart_numbers(capsys):
    """The README quickstart runs as written and prints the AUCROCs its comments state."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    stated = re.findall(r"# (\d\.\d{4})$", block, flags=re.MULTILINE)
    assert stated == ["0.9405", "0.9801"]
    exec(block, {})
    assert [f"{float(v):.4f}" for v in capsys.readouterr().out.split()] == stated


def test_uadb_beats_naive_on_local_lof():
    ds = generate_synthetic(SyntheticKind.LOCAL, seed=1)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.LOF))
    uadb = run_booster(ds, teacher, BoosterConfig())
    naive = run_booster(ds, teacher, BoosterConfig(strategy=Strategy.NAIVE))
    assert aucroc(uadb.final_scores, ds.labels) >= aucroc(naive.final_scores, ds.labels)


# ---------------------------------------------------------------------------
# feature conditioning


def test_conditioner_rotation_orthonormal():
    X = Stream(90).normal(120).reshape(40, 3)
    c = InputConditioner.fit(X)
    np.testing.assert_allclose(c.rotation @ c.rotation.T, np.eye(3), atol=1e-12)
    assert np.all(c.scale > 0.0)


def test_conditioner_normalizes_robust_spread():
    stream = Stream(91)
    X = np.column_stack([stream.normal(500) * 40.0, stream.normal(500) * 0.01])
    Z = InputConditioner.fit(X).apply(X)
    spread = np.median(np.abs(Z - np.median(Z, axis=0)), axis=0) * 1.4826
    np.testing.assert_allclose(spread, 1.0, rtol=0.05)


def test_conditioner_constant_direction_maps_to_zero():
    X = np.column_stack([np.arange(10.0), np.full(10, 2.0)])
    Z = InputConditioner.fit(X).apply(X)
    assert np.all(np.isfinite(Z))


def test_conditioner_sparse_binary_features_stay_bounded():
    """Bernoulli(0.1) columns have MAD 0 in every rotated direction; the
    standard deviation must stand in so inputs do not saturate the network."""
    X = (Stream(5).uniform(1200).reshape(600, 2) < 0.1).astype(float)
    c = InputConditioner.fit(X)
    assert np.all(c.scale > 0.1)
    assert np.abs(c.apply(X)).max() < 10.0
    ds = Dataset(features=X, name="binary")
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))
    res = run_booster(ds, teacher, BoosterConfig())
    distinct_rows = np.unique(X, axis=0, return_inverse=True)[1].ravel()
    per_row = {float(res.final_scores[distinct_rows == r][0]) for r in range(4)}
    assert len(per_row) == 4


def test_score_points_uses_training_transform(clustered_default_run):
    ds, _, result = clustered_default_run
    grid = np.array([[0.0, 0.0], [6.0, 6.0], [-3.0, 9.0]])
    s = score_points(result, grid)
    assert s.shape == (3,)
    assert np.all(np.isfinite(s)) and np.all(s > 0.0) and np.all(s < 1.0)
    assert np.array_equal(s, score_points(result, grid))
    # the anomaly cluster center must outscore the inlier center
    assert s[1] > s[0]


@pytest.mark.parametrize("width", [1, 3])
def test_score_points_refuses_wrong_width(clustered_default_run, width):
    _, _, result = clustered_default_run
    with pytest.raises(ValueError, match=rf"^expected shape \(n, 2\), got \(3, {width}\)$"):
        score_points(result, np.zeros((3, width)))


# ---------------------------------------------------------------------------
# case bookkeeping


def test_classify_cases_partition():
    labels = np.array([1, 1, 0, 0, 0])
    teacher = np.array([0.9, 0.1, 0.8, 0.2, 0.0])
    cases = classify_cases(teacher, labels)
    assert sorted(np.concatenate(list(cases.values())).tolist()) == [0, 1, 2, 3, 4]
    assert cases["TP"].tolist() == [0]
    assert cases["FP"].tolist() == [2]
    assert cases["FN"].tolist() == [1]
    assert cases["TN"].tolist() == [3, 4]


def test_classify_cases_perfect_teacher_drops_empty_cases():
    labels = np.array([1, 0, 0])
    teacher = np.array([1.0, 0.2, 0.0])
    cases = classify_cases(teacher, labels)
    assert set(cases) == {"TP", "TN"}


@pytest.mark.parametrize("labels", [[2, 0, 0, 1], [0.5, 0.5, 0, 0]])
def test_classify_cases_rejects_non_binary_labels(labels):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        classify_cases(np.array([0.9, 0.8, 0.1, 0.2]), labels)


def test_correction_trace_rank_identity(clustered_default_run):
    ds, _, result = clustered_default_run
    trace = correction_trace(result, ds)
    cases = classify_cases(result.label_history[:, 0], ds.labels)
    for col in range(result.label_history.shape[1]):
        weighted = sum(trace[name][col] * len(rows) for name, rows in cases.items())
        assert weighted / ds.n == pytest.approx((ds.n + 1) / 2, abs=1e-9)


def test_correction_trace_false_negatives_rise(clustered_default_run):
    ds, _, result = clustered_default_run
    trace = correction_trace(result, ds)
    assert "FN" in trace
    assert trace["FN"][-1] > trace["FN"][0]


def test_correction_trace_requires_labels():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=8)
    bare = Dataset(features=ds.features)
    teacher = fit_score(bare, DetectorParams(kind=DetectorKind.KNN))
    res = run_booster(bare, teacher, BoosterConfig(T=1, fold_count=1))
    with pytest.raises(ValueError):
        correction_trace(res, bare)


# ---------------------------------------------------------------------------
# hard inputs


@st.composite
def _hard_features(draw) -> np.ndarray:
    """Tiny matrices, often d > n, with |x| <= 1e150 and degenerate structure."""
    n = draw(st.sampled_from([2, 3, 4, 7, 24]))
    d = draw(st.integers(1, 6))
    X = Stream(draw(st.integers(0, 2**32))).uniform(n * d).reshape(n, d) * 2.0 - 1.0
    structure = draw(st.sampled_from(["dense", "duplicate-rows", "constant-column", "sparse-binary"]))
    if structure == "duplicate-rows":
        X[n // 2 :] = X[0]
    elif structure == "constant-column":
        X[:, 0] = 0.5
    elif structure == "sparse-binary":
        X = (X > 0.7).astype(np.float64)
    return X * draw(st.sampled_from([1.0, 1e75, 1e150]))


def _finite_and_repeatable(call) -> np.ndarray | None:
    """Run call twice: the same finite scores both times, or the same clear ValueError (None)."""
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(call())
        except ValueError as exc:  # DataError included
            assert "non-finite" not in str(exc)
            outcomes.append((type(exc), str(exc)))
    first, second = outcomes
    if isinstance(first, tuple):
        assert first == second
        return None
    assert np.all(np.isfinite(first)) and np.array_equal(first, second)
    return first


@pytest.mark.filterwarnings("ignore::uadb.DegenerateDataWarning")
@settings(max_examples=15, deadline=None)
@given(_hard_features(), st.integers(0, 2**16))
def test_hard_inputs_give_finite_repeatable_scores_or_clear_errors(X, seed):
    ds = Dataset(features=X)
    cfg = BoosterConfig(T=2, fold_count=min(3, ds.n), seed=seed, train=TrainSpec(epochs=3))
    for kind in DetectorKind:
        teacher = _finite_and_repeatable(lambda: fit_score(ds, DetectorParams(kind=kind, seed=seed)))
        if teacher is None:
            continue  # e.g. LOF's default k=20 needs n > 20
        for strategy in Strategy:
            boosted = _finite_and_repeatable(
                lambda: run_booster(ds, teacher, replace(cfg, strategy=strategy)).final_scores
            )
            assert boosted is not None


# ---------------------------------------------------------------------------
# ablation


@pytest.mark.parametrize(
    ("strategy", "base"), [(Strategy.DISCREPANCY, Strategy.NAIVE), (Strategy.DISCREPANCY_STAR, Strategy.SELF)]
)
def test_discrepancy_scores_follow_their_definition(strategy, base):
    """minmax(|fold-mean output - normalized teacher| / 2) of the base run; everything else is the base run's."""
    ds = generate_synthetic(SyntheticKind.LOCAL, n=40, seed=6)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    cfg = BoosterConfig(T=2, fold_count=2, train=TrainSpec(epochs=2), seed=6)
    got = run_booster(ds, teacher, replace(cfg, strategy=strategy))
    ref = run_booster(ds, teacher, replace(cfg, strategy=base))
    X = ref.conditioner.apply(ds.features)
    raw = np.mean([forward(m, X) for m in ref.models], axis=0)
    want = np.abs(raw - minmax_values(teacher)) / 2.0
    assert np.array_equal(got.final_scores, (want - want.min()) / (want.max() - want.min()))
    assert np.array_equal(got.label_history, ref.label_history)
    assert np.array_equal(got.predictions, ref.predictions) and got.variance_history.shape == (40, 0)


@pytest.mark.parametrize("fold_count", [1, 3])
@pytest.mark.parametrize("kind", list(SyntheticKind), ids=lambda k: k.value)
def test_ablation_scores_equal_per_strategy_runs(kind, fold_count):
    ds = generate_synthetic(kind, n=60, seed=3)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.IFOREST, trees=20, seed=3))
    # a discrepancy strategy here checks that cfg.strategy is ignored
    cfg = BoosterConfig(T=3, fold_count=fold_count, strategy=Strategy.DISCREPANCY, train=TrainSpec(epochs=3), seed=3)
    scores = ablation_scores(ds, teacher, cfg)
    assert list(scores) == [
        Strategy.NAIVE, Strategy.DISCREPANCY, Strategy.SELF, Strategy.DISCREPANCY_STAR, Strategy.UADB,
    ]
    for strategy, got in scores.items():
        assert np.array_equal(got, run_booster(ds, teacher, replace(cfg, strategy=strategy)).final_scores), strategy


def test_ablation_never_evaluates_with_labels(monkeypatch):
    """Labels travel with the dataset, yet no metric runs while the strategies train."""
    ds = generate_synthetic(SyntheticKind.LOCAL, n=40, seed=6)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))

    def refuse(*args):
        raise AssertionError("a metric ran inside the booster")

    monkeypatch.setattr(uadb.booster, "aucroc", refuse)
    monkeypatch.setattr(uadb.booster, "average_precision", refuse)
    scores = ablation_scores(ds, teacher, BoosterConfig(T=2, fold_count=2, train=TrainSpec(epochs=2)))
    assert len(scores) == len(Strategy)


def test_benchmark_patch_points_exist():
    """perfbench's tracer wraps these names where they are looked up; a missing one fails every traced run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.layer_targets(uadb.cli, uadb.booster, uadb.rng)
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    patch = tracing.Patch(targets, lambda fn, name, counts: fn)
    patch.undo()
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before
