"""Iterative pseudo-supervised booster for unsupervised anomaly detectors.

A teacher detector's normalized scores seed a pseudo-label vector. Each
iteration trains the network on the current pseudo labels, estimates a
per-instance variance over the whole prediction history, adds that variance
to the labels, and renormalizes. Anomalies accumulate higher prediction
variance than inliers, so the additive correction pushes likely false
negatives up and (after renormalization) pulls likely false positives down,
narrowing the teacher's error gap without any ground-truth labels.

Training uses out-of-fold cross-fitting: with fold_count = 3, three models
each train on two thirds of the rows, and the prediction fed into the
variance estimate for a row comes from the one model that never saw it.

Before any training the features are conditioned: rotated to the covariance
eigenbasis and divided per direction by a robust spread estimate
(1.4826 * median absolute deviation). Strongly correlated features otherwise
leave the loss surface so ill-conditioned that the few optimizer steps per
iteration cannot make progress; a robust spread keeps directions whose
variance is dominated by the anomalies themselves from being compressed the
way plain standard-deviation whitening would compress them. The fitted
transform travels with the result so out-of-sample scoring sees the same
inputs.

Besides the full method (strategy "uadb"), four reduced strategies support
ablation: one training pass on the static teacher labels ("naive"),
self-training on the booster's own normalized output ("self"), and each of
those two scored by teacher/booster disagreement instead ("discrepancy",
"discrepancy-star"): the same run as naive or self, rescored at the end.
"""

from __future__ import annotations

import ctypes
import enum
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from itertools import repeat

import numpy as np

from .data import (
    OVERFLOW_HINT, DataError, Dataset, _at_least, _binary_labels, _matrix, _unit_targets, _vector, minmax_values
)
from .metrics import _average_ranks, aucroc, average_precision, threshold_predictions
from .nn import MlpModel, TrainSpec, forward, init_mlp, train
from .rng import Stream, derive

_BLAS_CAP = threading.RLock()  # held while BLAS is capped: concurrent runs take turns, nested ones re-enter
# seed-derivation tags, distinct from each other; isolation-forest tree t draws from derive(seed, t), so when
# the teacher and the booster share a seed (as in `uadb boost`), tree 101 draws the fold shuffle's stream
_TAG_FOLD_SHUFFLE = 101
_TAG_MODEL_INIT = 211
_TAG_TRAIN_SHUFFLE = 301


class Strategy(enum.Enum):
    UADB = "uadb"
    NAIVE = "naive"
    DISCREPANCY = "discrepancy"
    SELF = "self"
    DISCREPANCY_STAR = "discrepancy-star"


_DISCREPANCY_BASE = {Strategy.DISCREPANCY: Strategy.NAIVE, Strategy.DISCREPANCY_STAR: Strategy.SELF}


@dataclass(frozen=True, kw_only=True)
class BoosterConfig(TrainSpec):
    """Loop length T, cross-fitting folds and strategy, on top of every round's TrainSpec settings.

    fold_count = 1 disables cross-fitting (one model, in-sample predictions).
    Each fold model warm-starts from its previous round's weights, and the
    final scores are the mean output of all fold models. The inherited
    training settings keep TrainSpec's defaults and checks, and every field
    is keyword-only. seed alone seeds the fold assignment, the weight init
    and every round's batch shuffles.
    """

    T: int = 10
    fold_count: int = 3
    strategy: Strategy = Strategy.UADB

    def __post_init__(self):
        super().__post_init__()
        _at_least(vars(self), {"T": 1, "fold_count": 1})


@dataclass(frozen=True)
class InputConditioner:
    """Affine feature transform fitted on the training matrix.

    center is the column mean; rotation the orthonormal eigenvectors of the
    covariance; scale a per-direction robust spread (1.4826 * MAD). Where
    the MAD is exactly 0 (half or more of the rows share one value, as
    with sparse binary features) the direction's standard deviation
    stands in. A direction whose eigenvalue is at most lambda_max * d * eps
    (duplicated, summed or constant columns, d > n, one-hot groups) or
    whose spread is exactly 0 gets scale inf, which maps it to 0. With no
    other floor, a power-of-two rescale of the features leaves the output
    as it is while the covariance stays within about 1e+-146.
    """

    center: np.ndarray
    rotation: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "InputConditioner":
        mu = X.mean(axis=0)
        with np.errstate(over="ignore"):  # the finiteness check below reports it
            cov = np.atleast_2d(np.cov(X - mu, rowvar=False, bias=True))
        if not np.all(np.isfinite(cov)):
            raise DataError(f"feature covariance {OVERFLOW_HINT}")
        vals, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
        Z = (X - mu) @ vecs
        mad = np.median(np.abs(Z - np.median(Z, axis=0)), axis=0) * 1.4826
        spread = np.where(mad > 0.0, mad, Z.std(axis=0))
        null = (vals <= vals[-1] * len(vals) * np.finfo(np.float64).eps) | (spread == 0.0)
        return cls(mu, vecs, np.where(null, np.inf, spread))

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = _matrix(X, self.center.shape[0])
        return (X - self.center) @ self.rotation / self.scale @ self.rotation.T


@dataclass(frozen=True)
class BoosterResult:
    """Final scores plus the full label/variance trajectory and the fitted models.

    final_scores is a float64 (n,) array min-max scaled to [0, 1].
    label_history is an (n, t) float64 array of pseudo-label columns:
    column 0 is the normalized teacher, then one column per iteration
    (t = T + 1 for uadb, self and discrepancy-star; t = 1 for naive and
    discrepancy, which keep the static labels). variance_history is an
    (n, k) float64 array with one column per variance step: k = T for uadb,
    k = 0 for every other strategy.

    predictions is an (n, r) float64 array of each training round's
    out-of-fold predictions (r = 1 for naive and discrepancy, r = T
    otherwise). models are the fold_count fold models and conditioner the
    input transform they were trained behind.
    """

    final_scores: np.ndarray
    label_history: np.ndarray
    variance_history: np.ndarray
    predictions: np.ndarray
    models: tuple[MlpModel, ...]
    conditioner: InputConditioner


def per_instance_variance(history: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Population variance per row over the (n, t) history columns plus the current prediction."""
    history = _matrix(history, None)
    return np.var(np.column_stack([history, _vector(current, history.shape[0], "current")]), axis=1)


def update_pseudo_labels(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Add the variance correction v to the pseudo labels y, then renormalize to [0, 1].

    y is 1-d with entries in [0, 1]; v has y's shape, finite and non-negative.
    """
    y = _unit_targets(y, None, "pseudo labels")
    v = _vector(v, y.size, "variances")
    if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
        raise ValueError("variances must be finite and non-negative")
    return minmax_values(y + v)


def _assign_folds(n: int, fold_count: int, seed: int) -> np.ndarray:
    """Round-robin fold labels over a seeded shuffle of the row indices."""
    perm = Stream(derive(seed, _TAG_FOLD_SHUFFLE)).permutation(n)
    folds = np.empty(n, dtype=np.int64)
    folds[perm] = np.arange(n) % fold_count
    return folds


def _fold_mean(models: list[MlpModel] | tuple[MlpModel, ...], X: np.ndarray) -> np.ndarray:
    """Mean output of the fold models at each row of conditioned X."""
    return np.stack([forward(m, X) for m in models]).mean(axis=0)


def _discrepancy_scores(result: BoosterResult, ds: Dataset) -> np.ndarray:
    """Min-max scaled population std |a - b| / 2 of each row's fold-mean output a and teacher label b."""
    return minmax_values(np.abs(score_points(result, ds.features) - result.label_history[:, 0]) / 2.0)


@cache
def _openblas_threads():
    """numpy's OpenBLAS (get, set) thread-count calls, via the module that links it; None on another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        if hasattr(lib, name.format("get")):
            get = ctypes.CFUNCTYPE(ctypes.c_int)((name.format("get"), lib))
            return get, ctypes.CFUNCTYPE(None, ctypes.c_int)((name.format("set"), lib))


@contextmanager
def _one_blas_thread():
    """Run the process's BLAS calls on one thread, then restore numpy's OpenBLAS count; a no-op on another BLAS."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    with _BLAS_CAP:
        before = calls[0]()
        calls[1](1)
        try:
            yield
        finally:
            calls[1](before)


@_one_blas_thread()
def run_booster(ds: Dataset, teacher: np.ndarray, cfg: BoosterConfig) -> BoosterResult:
    """Run the selected boosting strategy end to end.

    teacher is any finite 1-d array (or list) of ds.n anomaly scores, higher
    meaning more anomalous. Pseudo labels start at minmax_values(teacher); a
    constant teacher degenerates to all 0.5 and the loop proceeds on
    variance alone. Each round, fold f trains on the other folds' rows (all
    rows when fold_count = 1) and then scores its own held-out rows.
    """
    if cfg.strategy in _DISCREPANCY_BASE:  # trains as its base strategy, then is rescored
        result = run_booster(ds, teacher, replace(cfg, strategy=_DISCREPANCY_BASE[cfg.strategy]))
        return replace(result, final_scores=_discrepancy_scores(result, ds))
    teacher = _vector(teacher, ds.n, "teacher")
    if not np.all(np.isfinite(teacher)):
        raise DataError("teacher scores contain non-finite values")
    if cfg.fold_count > ds.n:
        raise DataError(f"need fold_count <= n, got fold_count={cfg.fold_count}, n={ds.n}")
    conditioner = InputConditioner.fit(ds.features)
    X = conditioner.apply(ds.features)
    folds = _assign_folds(ds.n, cfg.fold_count, cfg.seed)
    models = [init_mlp(ds.d, derive(cfg.seed, _TAG_MODEL_INIT, f)) for f in range(cfg.fold_count)]

    def fit_fold(f: int, t: int, targets: np.ndarray, p: np.ndarray) -> None:
        """Train fold f for round t on the other folds' rows, then score its own rows into p."""
        held = np.flatnonzero(folds == f)
        rows = np.flatnonzero(folds != f) if cfg.fold_count > 1 else held
        spec = replace(cfg, seed=derive(cfg.seed, _TAG_TRAIN_SHUFFLE, t, f))
        # diverging training overflows; the finiteness check on p reports it. Entered here because
        # numpy's error state belongs to a thread, and pool threads do not inherit the caller's
        with np.errstate(over="ignore", invalid="ignore"):
            models[f] = train(models[f], X[rows], targets[rows], spec)
            p[held] = forward(models[f], X[held])

    # each round trains on history[-1]; uadb and self append the next round's targets, naive runs one round
    history = [minmax_values(teacher)]
    variances: list[np.ndarray] = []
    predictions: list[np.ndarray] = []
    # a round's fold models are independent (own weights, rows and seed), so under the cap they train concurrently
    # (numpy releases the GIL inside BLAS and ufunc loops); uncapped, they would contend with BLAS's own threads
    with ThreadPoolExecutor(max_workers=cfg.fold_count if _openblas_threads() else 1) as pool:
        for t in range(1, 2 if cfg.strategy is Strategy.NAIVE else cfg.T + 1):
            p = np.empty(ds.n)  # each row scored by the one model whose training folds exclude it
            list(pool.map(fit_fold, range(cfg.fold_count), repeat(t), repeat(history[-1]), repeat(p)))
            if not np.all(np.isfinite(p)):
                raise DataError(f"round {t} diverged: learning rate {cfg.learning_rate} is too large")
            predictions.append(p)
            if cfg.strategy is Strategy.UADB:
                variances.append(per_instance_variance(np.column_stack(history), p))
                history.append(update_pseudo_labels(history[-1], variances[-1]))
            elif cfg.strategy is Strategy.SELF:
                history.append(minmax_values(p))

    return BoosterResult(
        final_scores=minmax_values(_fold_mean(models, X)),
        label_history=np.column_stack(history),
        variance_history=np.column_stack(variances) if variances else np.empty((ds.n, 0)),
        predictions=np.column_stack(predictions),
        models=tuple(models),
        conditioner=conditioner,
    )


@_one_blas_thread()
def score_points(result: BoosterResult, X: np.ndarray) -> np.ndarray:
    """Mean booster-model output at arbitrary points (e.g. a plotting grid)."""
    return _fold_mean(result.models, result.conditioner.apply(X))


def ablation_scores(ds: Dataset, teacher: np.ndarray, cfg: BoosterConfig) -> dict[Strategy, np.ndarray]:
    """Final scores of all five strategies from three runs, keyed in report order.

    discrepancy and discrepancy-star train exactly as naive and self do and
    differ only in the final score, so they are derived from those two runs
    instead of training again. cfg.strategy is ignored.
    """
    scores = {}
    for derived, base in _DISCREPANCY_BASE.items():
        result = run_booster(ds, teacher, replace(cfg, strategy=base))
        scores[base] = result.final_scores
        scores[derived] = _discrepancy_scores(result, ds)
    scores[Strategy.UADB] = run_booster(ds, teacher, replace(cfg, strategy=Strategy.UADB)).final_scores
    return scores


def iteration_metrics(result: BoosterResult, labels: np.ndarray) -> list[dict]:
    """AUCROC and AP of each training round's out-of-fold predictions, one dict per round."""
    return [
        {"iteration": t, "aucroc": aucroc(p, labels), "ap": average_precision(p, labels)}
        for t, p in enumerate(result.predictions.T, start=1)
    ]


def classify_cases(teacher: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Split rows into TP/FP/FN/TN by thresholding the teacher's scores.

    The top-q rule predicts exactly as many anomalies as the labels contain
    (score ties broken by lowest row index). Empty cases are dropped.
    """
    labels = _binary_labels(labels, len(teacher))
    predicted = threshold_predictions(teacher, int(labels.sum()))
    actual = labels == 1
    cases = {
        "TP": predicted & actual,
        "FP": predicted & ~actual,
        "FN": ~predicted & actual,
        "TN": ~predicted & ~actual,
    }
    return {name: np.flatnonzero(mask) for name, mask in cases.items() if mask.any()}


def correction_trace(result: BoosterResult, ds: Dataset) -> dict[str, np.ndarray]:
    """Mean pseudo-label rank of each teacher-outcome case across iterations.

    Ranks are ascending average ranks (1 = lowest score, ties share their
    mean rank), so rising false-negative curves and falling false-positive
    curves indicate error correction. Returns case name -> vector with one
    entry per label-history column.
    """
    if ds.labels is None:
        raise ValueError("correction_trace requires ground-truth labels")
    history = result.label_history
    cases = classify_cases(history[:, 0], ds.labels)
    trace = {name: np.empty(history.shape[1]) for name in cases}
    for col in range(history.shape[1]):
        ranks = _average_ranks(history[:, col])
        for name, rows in cases.items():
            trace[name][col] = ranks[rows].mean()
    return trace
