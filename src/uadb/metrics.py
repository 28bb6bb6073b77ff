"""Ranking metrics and error-correction statistics for labeled evaluations.

AUCROC uses the Mann-Whitney form (ties count one half). Average precision
sums precision at each recall step over the score-descending ranking with
deterministic row-index tie-breaks. The variance gap summarizes how much
higher the per-instance variance runs on anomalies than on inliers, and the
correction rate counts how many of a teacher's thresholded mistakes the
boosted scores fix.
"""

from __future__ import annotations

import warnings

import numpy as np


class VacuousCorrectionWarning(UserWarning):
    """Teacher made no errors, so the correction rate is vacuously 1."""


def _values(scores) -> np.ndarray:
    v = np.asarray(scores, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"scores must be 1-d, got shape {v.shape}")
    return v


def _binary_labels(labels, n: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.int64)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ascending ranks from 1, ties sharing their mean rank, as scipy.stats.rankdata (NaN: all NaN)."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]  # start of each tie group in sorted order
    count = np.r_[np.flatnonzero(first), x.size]
    dense = np.empty(x.size, dtype=np.intp)
    dense[order] = np.cumsum(first)
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def aucroc(scores, labels) -> float:
    """P(random positive outranks random negative), ties counted 1/2."""
    s = _values(scores)
    y = _binary_labels(labels, s.size)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("aucroc needs at least one positive and one negative label")
    ranks = _average_ranks(s)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Sum of (recall step) x (precision) down the descending ranking."""
    s = _values(scores)
    y = _binary_labels(labels, s.size)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average_precision needs at least one positive label")
    order = np.lexsort((np.arange(s.size), -s))  # descending score, then row index
    hits = y[order] == 1
    precision = np.cumsum(hits) / np.arange(1, s.size + 1)
    return float(precision[hits].sum() / n_pos)


def variance_gap(variance, labels) -> float:
    """(mean inlier variance - mean anomaly variance) / mean anomaly variance.

    Negative values mean anomalies carry the higher variance.
    """
    v = _values(variance)
    y = _binary_labels(labels, v.size)
    if y.sum() in (0, v.size):
        raise ValueError("variance_gap needs both classes present")
    v_abnormal = float(v[y == 1].mean())
    v_normal = float(v[y == 0].mean())
    if v_abnormal == 0.0:
        raise ValueError("variance_gap undefined: anomaly-class mean variance is zero")
    return (v_normal - v_abnormal) / v_abnormal


def threshold_predictions(scores, n_pos: int) -> np.ndarray:
    """Boolean anomaly predictions from scores by the contamination rule.

    Exactly the top n_pos scores are flagged, ties broken by lowest row index.
    """
    s = _values(scores)
    if not 0 <= n_pos <= s.size:
        raise ValueError(f"need 0 <= n_pos <= {s.size}, got {n_pos}")
    order = np.lexsort((np.arange(s.size), -s))
    predicted = np.zeros(s.size, dtype=bool)
    predicted[order[:n_pos]] = True
    return predicted


def correction_rate(teacher, booster, labels) -> float:
    """Fraction of the teacher's thresholded errors the booster gets right.

    Both score vectors are thresholded by the contamination top-q rule
    (q = labeled anomaly count, ties broken by lowest row index). Returns
    1.0 with a warning when the teacher makes no errors.
    """
    t = _values(teacher)
    b = _values(booster)
    if t.size != b.size:
        raise ValueError(f"length mismatch: teacher {t.size}, booster {b.size}")
    y = _binary_labels(labels, t.size)
    if y.sum() in (0, t.size):
        raise ValueError("correction_rate needs both classes present")
    n_pos = int(y.sum())
    actual = y == 1
    teacher_wrong = threshold_predictions(t, n_pos) != actual
    if not teacher_wrong.any():
        warnings.warn("teacher made no errors; correction rate is vacuously 1", VacuousCorrectionWarning)
        return 1.0
    booster_right = threshold_predictions(b, n_pos) == actual
    return float((teacher_wrong & booster_right).sum() / teacher_wrong.sum())

