"""Booster loop: variance math, label updates, strategies, end-to-end behavior."""

import hashlib
import importlib.util
import math
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import groupby
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
    correction_rate,
    correction_trace,
    fit_score,
    generate_synthetic,
    iteration_metrics,
    minmax_values,
    per_instance_variance,
    run_booster,
    score_points,
    threshold_predictions,
    update_pseudo_labels,
    variance_gap,
)
from uadb.booster import _assign_folds
from uadb.nn import forward, init_mlp, train
from uadb.rng import Stream, derive, indices


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
    cfg = BoosterConfig()
    assert cfg.T == 10 and cfg.fold_count == 3
    assert cfg.strategy is Strategy.UADB


@pytest.mark.parametrize(
    "setting",
    [{"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0}, {"learning_rate": math.inf}],
    ids=["epochs-0", "batch-size-0", "learning-rate-0", "learning-rate-inf"],
)
def test_booster_config_checks_training_settings_as_train_spec_does(setting):
    with pytest.raises(ValueError) as want:
        TrainSpec(**setting)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        BoosterConfig(**setting)


def test_booster_config_training_defaults_are_train_spec_defaults():
    cfg = BoosterConfig()
    assert (cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.loss) == (
        TrainSpec.epochs, TrainSpec.batch_size, TrainSpec.learning_rate, TrainSpec.loss,
    )


def test_booster_config_is_a_keyword_only_train_spec():
    # inherited fields come first, so a positional BoosterConfig(5) would otherwise mean epochs=5
    assert isinstance(BoosterConfig(), TrainSpec)
    with pytest.raises(TypeError):
        TrainSpec(10)
    with pytest.raises(TypeError):
        BoosterConfig(5)


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
    with pytest.raises(ValueError):
        update_pseudo_labels(np.array([0.5, 0.5]), np.zeros(3))


_X4 = np.arange(8.0).reshape(4, 2)
_LABELS4 = np.array([0, 1, 0, 1])
_SCORES4 = np.array([0.1, 0.9, 0.2, 0.8])

# (argument named in the message, its required length or None for any, a call that passes x as the argument)
_VECTOR_ARGUMENTS = {
    "run_booster teacher": ("teacher", 4, lambda x: run_booster(Dataset(features=_X4), x, BoosterConfig(T=1))),
    "update y": ("pseudo labels", None, lambda x: update_pseudo_labels(x, np.zeros(4))),
    "update v": ("variances", 4, lambda x: update_pseudo_labels(np.full(4, 0.5), x)),
    "per_instance_variance current": ("current", 4, lambda x: per_instance_variance(np.zeros((4, 2)), x)),
    "train targets": ("training targets", 4, lambda x: train(init_mlp(2), _X4, x, TrainSpec())),
    "aucroc scores": ("scores", None, lambda x: aucroc(x, _LABELS4)),
    "aucroc labels": ("labels", 4, lambda x: aucroc(_SCORES4, x)),
    "average_precision scores": ("scores", None, lambda x: average_precision(x, _LABELS4)),
    "variance_gap variance": ("scores", None, lambda x: variance_gap(x, _LABELS4)),
    "threshold_predictions scores": ("scores", None, lambda x: threshold_predictions(x, 1)),
    "correction_rate teacher": ("scores", None, lambda x: correction_rate(x, _SCORES4, _LABELS4)),
    "correction_rate booster": ("booster scores", 4, lambda x: correction_rate(_SCORES4, x, _LABELS4)),
}


@pytest.mark.parametrize(
    "what, n, call, bad",
    [
        pytest.param(what, n, call, bad, id=f"{name}-{kind}")
        for name, (what, n, call) in _VECTOR_ARGUMENTS.items()
        for kind, bad in (("length", np.full(3, 0.5)), ("2-d", np.full((4, 1), 0.5)))
        if n is not None or bad.ndim == 2  # an argument of any length has no wrong one
    ],
)
def test_every_vector_argument_gets_the_shared_shape_message(what, n, call, bad):
    want = "n" if n is None else n
    with pytest.raises(DataError, match=rf"^{what} must have shape \({want},\), got {re.escape(str(bad.shape))}$"):
        call(bad)


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


def _golden_run_digest(strategy: Strategy, folds: int, loss: Loss) -> str:
    ds = generate_synthetic(SyntheticKind.LOCAL, n=257, seed=5)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))
    cfg = BoosterConfig(T=3, fold_count=folds, strategy=strategy, epochs=2, batch_size=64, loss=loss, seed=6)
    res = run_booster(ds, teacher, cfg)
    digest = hashlib.sha256()
    for array in (res.final_scores, res.label_history, res.variance_history, *(m.theta for m in res.models)):
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("loss", list(Loss))
@pytest.mark.parametrize("folds", [1, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_run_booster_golden_bits(strategy, folds, loss):
    assert _golden_run_digest(strategy, folds, loss) == _RUN_GOLDEN[strategy.value, folds, loss.value]


def test_training_shuffles_derive_from_the_booster_seed(monkeypatch):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=4)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    seeds = []

    def recording_train(model, X, y, spec):
        seeds.append(spec.seed)
        return train(model, X, y, spec)

    monkeypatch.setattr("uadb.booster.train", recording_train)
    run_booster(ds, teacher, BoosterConfig(T=2, fold_count=3, seed=7))
    # rounds run in order; a round's folds train concurrently, so they may start in any order
    assert [set(seeds[:3]), set(seeds[3:])] == [{derive(7, 301, t, f) for f in range(3)} for t in (1, 2)]
    assert len(seeds) == 6



def test_error_in_a_fold_thread_reaches_the_caller(monkeypatch):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=4)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))

    def failing_train(model, X, y, spec):
        if spec.seed == derive(7, 301, 2, 1):  # round 2, fold 1
            raise RuntimeError("fold 1 failed")
        return train(model, X, y, spec)

    monkeypatch.setattr("uadb.booster.train", failing_train)
    with pytest.raises(RuntimeError, match="fold 1 failed"):
        run_booster(ds, teacher, BoosterConfig(T=3, fold_count=3, seed=7))


def test_concurrent_folds_lose_no_update(monkeypatch):
    # more fold threads than cores, switching every microsecond, against the same run with
    # every train call serialized behind one lock
    ds = generate_synthetic(SyntheticKind.CLUSTERED, n=80, seed=8)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))
    cfg = BoosterConfig(T=3, fold_count=5, epochs=3, batch_size=16, seed=9)
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


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread count, set to 2 so that a cap to 1 shows, and restored after the test."""
    calls = uadb.booster._openblas_threads()
    if calls is None:
        pytest.skip("numpy links no OpenBLAS")
    get, set_ = calls
    before = get()
    set_(2)
    yield get
    set_(before)


def _recording_blas_threads(monkeypatch, get, fail_fold=False):
    """Record the BLAS thread count at every train and forward call of a run; fail_fold raises in round 2, fold 1."""
    seen = []

    def recording_train(model, X, y, spec):
        seen.append(get())
        if fail_fold and spec.seed == derive(7, 301, 2, 1):
            raise RuntimeError("fold 1 failed")
        return train(model, X, y, spec)

    def recording_forward(model, X):
        seen.append(get())
        return forward(model, X)

    monkeypatch.setattr("uadb.booster.train", recording_train)
    monkeypatch.setattr("uadb.booster.forward", recording_forward)
    return seen


@pytest.mark.parametrize(
    "cfg, ablate, error",
    [
        (BoosterConfig(T=2, seed=7), False, None),
        (BoosterConfig(T=1, strategy=Strategy.NAIVE, learning_rate=1e300), False, DataError),
        (BoosterConfig(T=3, seed=7), False, RuntimeError),
        (BoosterConfig(T=1), True, None),
        (BoosterConfig(T=1, strategy=Strategy.DISCREPANCY_STAR), False, None),
    ],
    ids=["run", "diverging", "fold-raises", "ablation", "discrepancy"],
)
def test_a_run_caps_blas_at_one_thread_and_restores_the_count(blas_threads, monkeypatch, cfg, ablate, error):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=4)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    seen = _recording_blas_threads(monkeypatch, blas_threads, fail_fold=error is RuntimeError)
    if error is None:
        (ablation_scores if ablate else run_booster)(ds, teacher, cfg)
    else:
        with pytest.raises(error):
            run_booster(ds, teacher, cfg)
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


def test_score_points_caps_blas_at_one_thread(blas_threads, monkeypatch):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=4)
    result = run_booster(ds, fit_score(ds, DetectorParams(kind=DetectorKind.KNN)), BoosterConfig(T=1))
    seen = _recording_blas_threads(monkeypatch, blas_threads)
    score_points(result, ds.features)
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


def test_concurrent_runs_take_turns_under_the_cap(blas_threads, monkeypatch):
    ds = generate_synthetic(SyntheticKind.CLUSTERED, n=60, seed=8)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))
    cfgs = [BoosterConfig(T=3, seed=seed) for seed in (1, 2, 3)]
    alone = [run_booster(ds, teacher, cfg).final_scores for cfg in cfgs]
    calls = []  # (the run's fold pool, the BLAS thread count) at each train call

    def recording_train(model, X, y, spec):
        calls.append((threading.current_thread().name.rpartition("_")[0], blas_threads()))
        time.sleep(0.005)  # lets the other callers run meanwhile
        return train(model, X, y, spec)

    monkeypatch.setattr("uadb.booster.train", recording_train)
    with ThreadPoolExecutor(max_workers=3) as callers:
        together = list(callers.map(lambda cfg: run_booster(ds, teacher, cfg).final_scores, cfgs))
    assert len(list(groupby(pool for pool, _ in calls))) == 3  # one run at a time, each in its own fold pool
    assert {threads for _, threads in calls} == {1}
    assert blas_threads() == 2
    assert all(np.array_equal(a, b) for a, b in zip(alone, together))


@pytest.mark.parametrize("found", [True, False])
def test_folds_train_in_fold_count_threads_only_under_the_cap(monkeypatch, found):
    if found and uadb.booster._openblas_threads() is None:
        pytest.skip("numpy links no OpenBLAS")
    if not found:  # MKL or Accelerate: no thread-count call to cap
        monkeypatch.setattr("uadb.booster._openblas_threads", lambda: None)
    workers, fold_threads = [], set()

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    def recording_train(model, X, y, spec):
        fold_threads.add(threading.get_ident())
        return train(model, X, y, spec)

    monkeypatch.setattr("uadb.booster.ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr("uadb.booster.train", recording_train)
    digest = _golden_run_digest(Strategy.UADB, 3, Loss.CROSS_ENTROPY)
    assert workers == [3 if found else 1]
    assert found or len(fold_threads) == 1
    assert threading.get_ident() not in fold_threads
    assert digest == _RUN_GOLDEN["uadb", 3, "cross-entropy"]


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


def test_run_booster_fold_count_past_row_count_is_data_error():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=0)
    with pytest.raises(DataError, match=r"^need fold_count <= n, got fold_count=31, n=30$"):
        run_booster(ds, np.linspace(0.0, 1.0, 30), BoosterConfig(T=1, fold_count=31))


def test_run_booster_accepts_list_teacher():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=0)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    cfg = BoosterConfig(T=2, fold_count=2)
    from_list = run_booster(ds, teacher.tolist(), cfg)
    assert np.array_equal(from_list.final_scores, run_booster(ds, teacher, cfg).final_scores)


def test_run_booster_memory_stays_a_small_multiple_of_the_features():
    # forward scores in fixed blocks, so no (n, hidden) activation is ever alive; what is left
    # is the conditioner's n x d temporaries and each fold's copy of its rows (concurrent folds
    # hold theirs together)
    n, d = 50_000, 8
    ds = Dataset(features=Stream(2).normal(n * d).reshape(n, d))
    teacher = Stream(3).uniform(n)
    tracemalloc.start()
    try:
        run_booster(ds, teacher, BoosterConfig(T=1, epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * ds.features.nbytes, f"peak {peak / 1e6:.1f} MB for {ds.features.nbytes / 1e6:.1f} MB of features"


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


@pytest.mark.parametrize("X", [np.zeros(3), np.zeros((3, 1)), np.zeros((3, 3))], ids=["1-d", "narrow", "wide"])
@pytest.mark.parametrize("call", ["forward", "train", "score_points"])
def test_feature_matrix_check_names_the_expected_shape(clustered_default_run, call, X):
    _, _, result = clustered_default_run
    calls = {
        "forward": lambda: forward(result.models[0], X),
        "train": lambda: train(result.models[0], X, np.full(3, 0.5), TrainSpec()),
        "score_points": lambda: score_points(result, X),
    }
    with pytest.raises(ValueError, match=rf"^expected shape \(n, 2\), got {re.escape(str(X.shape))}$"):
        calls[call]()


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


@pytest.mark.parametrize("labels", [[2, 0, 0, 1], [0.5, 0.5, 0, 0], ["a", "b", "a", "b"], ["1", "0", "0", "1"]])
def test_classify_cases_rejects_non_binary_labels(labels):
    with pytest.raises(DataError, match="^labels must be 0 or 1$"):
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
    structure = draw(
        st.sampled_from(["dense", "duplicate-rows", "constant-column", "collinear-column", "sparse-binary"])
    )
    if structure == "duplicate-rows":
        X[n // 2 :] = X[0]
    elif structure == "constant-column":
        X[:, 0] = 0.5
    elif structure == "collinear-column":
        X[:, -1] = 3.0 * X[:, 0]
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
    cfg = BoosterConfig(T=2, fold_count=min(3, ds.n), seed=seed, epochs=3)
    for kind in DetectorKind:
        teacher = _finite_and_repeatable(lambda: fit_score(ds, DetectorParams(kind=kind, seed=seed)))
        if teacher is None:
            continue  # e.g. LOF's default k=20 needs n > 20
        for strategy in Strategy:
            boosted = _finite_and_repeatable(
                lambda: run_booster(ds, teacher, replace(cfg, strategy=strategy)).final_scores
            )
            assert boosted is not None


@st.composite
def _rank_deficient_features(draw) -> np.ndarray:
    """Unit-scale features whose covariance has a null direction."""
    n = draw(st.sampled_from([12, 20, 40]))
    d = draw(st.integers(2, 5))
    stream = Stream(draw(st.integers(0, 2**32)))
    structure = draw(st.sampled_from(["duplicated", "summed", "constant", "wide", "one-hot"]))
    if structure == "wide":
        return stream.normal(n * (n + d)).reshape(n, n + d)
    X = stream.normal(n * d).reshape(n, d)
    if structure == "duplicated":
        X[:, -1] = X[:, 0]
    elif structure == "summed":
        X[:, -1] = X[:, 0] + X[:, 1]
    elif structure == "constant":
        X[:, -1] = X[0, -1]
    else:
        X[:, 1:] = np.eye(d - 1)[indices(stream.uniform(n), d - 1)]
    return X


def _scores_at_scales(X: np.ndarray, cfg: BoosterConfig, *exponents: int) -> list[np.ndarray]:
    """final_scores of an hbos-taught run on X * 2**k for each k."""
    scores = []
    for k in exponents:
        ds = Dataset(features=X * 2.0**k)
        scores.append(run_booster(ds, fit_score(ds, DetectorParams(kind=DetectorKind.HBOS)), cfg).final_scores)
    return scores


@settings(max_examples=15, deadline=None)
@given(_rank_deficient_features(), st.integers(-60, 40).filter(lambda k: k != 0))
def test_rank_deficient_features_give_the_same_scores_at_every_power_of_two_scale(X, k):
    """Null directions hold only rounding noise, which scales with the features; it must map to 0.

    Scales stay within 2**+-60 of unit scale: LAPACK's eigensolver rescales a matrix whose largest
    entry falls outside about 1e+-146, by a factor that is not a power of two.
    """
    first, second = _scores_at_scales(X, BoosterConfig(T=2, epochs=2), 0, k)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("kind", list(SyntheticKind), ids=lambda k: k.value)
def test_full_rank_features_give_the_same_scores_at_tiny_and_large_power_of_two_scales(kind):
    """No absolute floor on a direction's spread: features near 1e-18 train as they do at unit scale."""
    X = generate_synthetic(kind, n=120, seed=2).features
    unit, tiny, large = _scores_at_scales(X, BoosterConfig(T=2, epochs=2), 0, -60, 20)
    assert np.array_equal(unit, tiny) and np.array_equal(unit, large)


# ---------------------------------------------------------------------------
# ablation


@pytest.mark.parametrize(
    ("strategy", "base"), [(Strategy.DISCREPANCY, Strategy.NAIVE), (Strategy.DISCREPANCY_STAR, Strategy.SELF)]
)
def test_discrepancy_scores_follow_their_definition(strategy, base):
    """minmax(|fold-mean output - normalized teacher| / 2) of the base run; everything else is the base run's."""
    ds = generate_synthetic(SyntheticKind.LOCAL, n=40, seed=6)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    cfg = BoosterConfig(T=2, fold_count=2, epochs=2, seed=6)
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
    cfg = BoosterConfig(T=3, fold_count=fold_count, strategy=Strategy.DISCREPANCY, epochs=3, seed=3)
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
    scores = ablation_scores(ds, teacher, BoosterConfig(T=2, fold_count=2, epochs=2))
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
