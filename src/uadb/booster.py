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
"discrepancy-star"), which ablation_scores derives without training again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DataError, Dataset
from .detectors import OVERFLOW_HINT, minmax_values
from .metrics import _average_ranks, aucroc, average_precision, threshold_predictions
from .nn import MlpModel, TrainSpec, _unit_targets, forward, init_mlp, train
from .rng import Stream, derive

# seed-derivation tags; keep distinct so streams never overlap
_TAG_FOLD_SHUFFLE = 101
_TAG_MODEL_INIT = 211
_TAG_TRAIN_SHUFFLE = 301


class Strategy(enum.Enum):
    UADB = "uadb"
    NAIVE = "naive"
    DISCREPANCY = "discrepancy"
    SELF = "self"
    DISCREPANCY_STAR = "discrepancy-star"


@dataclass(frozen=True)
class BoosterConfig:
    """Loop length T, cross-fitting folds, strategy, training settings and seed.

    fold_count = 1 disables cross-fitting (one model, in-sample predictions).
    Each fold model warm-starts from its previous round's weights, and the
    final scores are the mean output of all fold models. seed alone seeds the
    fold assignment, the weight init and every round's batch shuffles;
    train.seed must stay 0.
    """

    T: int = 10
    fold_count: int = 3
    strategy: Strategy = Strategy.UADB
    train: TrainSpec = field(default_factory=TrainSpec)
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"need T >= 1, got {self.T}")
        if self.fold_count < 1:
            raise ValueError(f"need fold_count >= 1, got {self.fold_count}")
        if self.train.seed != 0:
            raise ValueError(f"need train.seed == 0, got {self.train.seed} (seed seeds training)")


@dataclass(frozen=True)
class InputConditioner:
    """Affine feature transform fitted on the training matrix.

    center is the column mean; rotation the orthonormal eigenvectors of the
    covariance; scale a per-direction robust spread (1.4826 * MAD). Where
    the MAD is exactly 0 (half or more of the rows share one value, as
    with sparse binary features) the direction's standard deviation
    stands in; the scale is floored at 1e-12 so constant directions map
    to zero rather than dividing by 0.
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
        _, vecs = np.linalg.eigh(cov)
        Z = (X - mu) @ vecs
        mad = np.median(np.abs(Z - np.median(Z, axis=0)), axis=0) * 1.4826
        spread = np.where(mad > 0.0, mad, Z.std(axis=0))
        return cls(mu, vecs, np.maximum(spread, 1e-12))

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
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

    diagnostics holds one row per training iteration (AUCROC and AP of that
    iteration's out-of-fold predictions); it is empty unless the dataset's
    labels hold both classes. models are the fold_count fold models and
    conditioner the input transform they were trained behind.
    """

    final_scores: np.ndarray
    label_history: np.ndarray
    variance_history: np.ndarray
    diagnostics: tuple[dict, ...]
    models: tuple[MlpModel, ...]
    conditioner: InputConditioner


def per_instance_variance(history: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Population variance per row over the (n, t) history columns plus the current prediction."""
    history = np.asarray(history, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if history.ndim != 2 or current.shape != (history.shape[0],):
        raise ValueError(f"need history (n, t) and current (n,), got {history.shape} and {current.shape}")
    return np.var(np.column_stack([history, current]), axis=1)


def update_pseudo_labels(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Add the variance correction v to the pseudo labels y, then renormalize to [0, 1].

    y is 1-d with entries in [0, 1]; v has y's shape, finite and non-negative.
    """
    y = _unit_targets(y, "pseudo labels")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != y.shape:
        raise ValueError(f"variances must have shape {y.shape}, got {v.shape}")
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


def _discrepancy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # population std of the 2-element multiset {a_i, b_i} = |a_i - b_i| / 2
    return np.abs(a - b) / 2.0


def run_booster(ds: Dataset, teacher: np.ndarray, cfg: BoosterConfig) -> BoosterResult:
    """Run the selected boosting strategy end to end.

    teacher is any finite 1-d array (or list) of ds.n anomaly scores, higher
    meaning more anomalous. Pseudo labels start at minmax_values(teacher); a
    constant teacher degenerates to all 0.5 and the loop proceeds on
    variance alone. Each round, fold f trains on the other folds' rows (all
    rows when fold_count = 1) and then scores its own held-out rows.
    """
    teacher = np.asarray(teacher, dtype=np.float64)
    if teacher.shape != (ds.n,):
        raise ValueError(f"teacher must have shape ({ds.n},), got {teacher.shape}")
    if not np.all(np.isfinite(teacher)):
        raise DataError("teacher scores contain non-finite values")
    if cfg.fold_count > ds.n:
        raise ValueError(f"fold_count {cfg.fold_count} exceeds row count {ds.n}")
    labeled = ds.labels is not None and ds.labels.min() != ds.labels.max()
    y1 = minmax_values(teacher)
    diagnostics: list[dict] = []
    conditioner = InputConditioner.fit(ds.features)
    X = conditioner.apply(ds.features)
    folds = _assign_folds(ds.n, cfg.fold_count, cfg.seed)
    models = [init_mlp(ds.d, derive(cfg.seed, _TAG_MODEL_INIT, f)) for f in range(cfg.fold_count)]

    # naive/discrepancy keep the static labels; their history stays one column
    single_pass = cfg.strategy in (Strategy.NAIVE, Strategy.DISCREPANCY)
    rounds = 1 if single_pass else cfg.T
    history = np.empty((ds.n, 1 if single_pass else rounds + 1))
    history[:, 0] = y1
    variances = np.empty((ds.n, rounds if cfg.strategy is Strategy.UADB else 0))
    current = y1
    for t in range(1, rounds + 1):
        p = np.empty(ds.n)  # each row scored by the one model whose training folds exclude it
        for f in range(cfg.fold_count):
            held = np.flatnonzero(folds == f)
            rows = np.flatnonzero(folds != f) if cfg.fold_count > 1 else held
            spec = replace(cfg.train, seed=derive(cfg.seed, _TAG_TRAIN_SHUFFLE, t, f))
            models[f] = train(models[f], X[rows], current[rows], spec)
            p[held] = forward(models[f], X[held])
        if labeled:
            diagnostics.append(
                {
                    "iteration": t,
                    "aucroc": aucroc(p, ds.labels),
                    "ap": average_precision(p, ds.labels),
                }
            )
        if cfg.strategy is Strategy.UADB:
            variances[:, t - 1] = per_instance_variance(history[:, :t], p)
            current = update_pseudo_labels(current, variances[:, t - 1])
        elif cfg.strategy in (Strategy.SELF, Strategy.DISCREPANCY_STAR):
            current = minmax_values(p)
        if not single_pass:
            history[:, t] = current

    final = _fold_mean(models, X)
    if cfg.strategy in (Strategy.DISCREPANCY, Strategy.DISCREPANCY_STAR):
        final = _discrepancy(final, y1)
    return BoosterResult(
        final_scores=minmax_values(final),
        label_history=history,
        variance_history=variances,
        diagnostics=tuple(diagnostics),
        models=tuple(models),
        conditioner=conditioner,
    )


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
    for base, derived in ((Strategy.NAIVE, Strategy.DISCREPANCY), (Strategy.SELF, Strategy.DISCREPANCY_STAR)):
        result = run_booster(ds, teacher, replace(cfg, strategy=base))
        scores[base] = result.final_scores
        teacher_labels = result.label_history[:, 0]
        scores[derived] = minmax_values(_discrepancy(score_points(result, ds.features), teacher_labels))
    scores[Strategy.UADB] = run_booster(ds, teacher, replace(cfg, strategy=Strategy.UADB)).final_scores
    return scores


def classify_cases(teacher: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Split rows into TP/FP/FN/TN by thresholding the teacher's scores.

    The top-q rule predicts exactly as many anomalies as the labels contain
    (score ties broken by lowest row index). Empty cases are dropped.
    """
    labels = np.asarray(labels)
    n = len(teacher)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
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
