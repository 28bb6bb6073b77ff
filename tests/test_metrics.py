"""Ranking metrics against pairwise/definitional oracles, plus error accounting."""

import numpy as np
import pytest
from conftest import draw_index, oracle_ap, oracle_aucroc
from scipy.stats import rankdata

from uadb import (
    VacuousCorrectionWarning,
    aucroc,
    average_precision,
    correction_rate,
    threshold_predictions,
    variance_gap,
)
from uadb.metrics import _average_ranks
from uadb.rng import Stream

# ---------------------------------------------------------------------------
# random ranking instances for the oracles in conftest.py


def _random_instance(stream, tie_heavy):
    n = 2 + draw_index(stream, 49)
    scores = stream.uniform(n)
    if tie_heavy:
        scores = np.round(scores, 1)
    labels = (stream.uniform(n) < 0.4).astype(np.int64)
    labels[draw_index(stream, n)] = 1  # force both classes
    labels[draw_index(stream, n)] = 0
    if labels.sum() in (0, n):
        labels[0] = 1
        labels[-1] = 0
    return scores, labels


# ---------------------------------------------------------------------------
# aucroc


def test_average_ranks_match_scipy_rankdata():
    stream = Stream(40)
    for i in range(600):
        n = 1 + draw_index(stream, 50)
        x = stream.normal(n)
        if i % 3 == 1:
            x = np.floor(x * 2.0)  # heavy ties
        elif i % 3 == 2:
            x[draw_index(stream, n)] = -np.inf
        assert np.array_equal(_average_ranks(x), rankdata(x, method="average"))
    assert _average_ranks(np.empty(0)).shape == (0,)
    assert np.isnan(_average_ranks(np.array([0.5, np.nan, 0.2]))).all()


def test_aucroc_perfect_ranking():
    assert aucroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0


def test_aucroc_all_ties():
    assert aucroc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 0, 1, 0])) == 0.5


def test_aucroc_matches_pair_oracle():
    stream = Stream(100)
    for trial in range(300):
        scores, labels = _random_instance(stream, tie_heavy=trial % 2 == 0)
        assert abs(aucroc(scores, labels) - oracle_aucroc(scores, labels)) <= 1e-12


def test_aucroc_rejects_single_class():
    with pytest.raises(ValueError):
        aucroc(np.array([0.1, 0.2]), np.array([1, 1]))


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_ranking():
    assert average_precision(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0


def test_ap_positive_ranked_last():
    assert average_precision(np.array([4.0, 3.0, 2.0, 1.0]), np.array([0, 0, 0, 1])) == 0.25


def test_ap_matches_definitional_oracle():
    stream = Stream(200)
    for trial in range(300):
        scores, labels = _random_instance(stream, tie_heavy=trial % 3 == 0)
        got = average_precision(scores, labels)
        assert abs(got - oracle_ap(scores, labels)) <= 1e-12


# ---------------------------------------------------------------------------
# variance gap


def test_variance_gap_arithmetic():
    v = np.array([0.01, 0.01, 0.02, 0.02])
    y = np.array([0, 0, 1, 1])
    assert variance_gap(v, y) == pytest.approx(-0.5, abs=1e-15)


def test_variance_gap_equal_means_is_zero():
    v = np.array([0.03, 0.03, 0.03, 0.03])
    y = np.array([0, 1, 0, 1])
    assert variance_gap(v, y) == 0.0


def test_variance_gap_validation():
    with pytest.raises(ValueError):
        variance_gap(np.array([0.1, 0.2]), np.array([0, 0]))
    with pytest.raises(ValueError):
        variance_gap(np.array([0.1, 0.0]), np.array([0, 1]))  # zero anomaly mean


def test_variance_gap_negative_on_boosted_clustered(clustered_default_run):
    """Anomalies accumulate the larger variance, driving the gap negative."""
    ds, _, result = clustered_default_run
    assert variance_gap(result.variance_history[:, -1], ds.labels) < 0.0


# ---------------------------------------------------------------------------
# thresholding and correction


def test_threshold_predictions_top_q():
    s = np.array([0.9, 0.5, 0.5, 0.1])
    got = threshold_predictions(s, 2)
    assert got.tolist() == [True, True, False, False]  # tie at 0.5 -> lower index


def test_threshold_predictions_validation():
    with pytest.raises(ValueError):
        threshold_predictions(np.array([0.1, 0.2]), 3)


def test_correction_rate_counts_fixed_errors():
    labels = np.array([1, 1, 0, 0])
    teacher = np.array([0.9, 0.1, 0.8, 0.2])  # errs on rows 1 and 2
    booster = np.array([0.1, 0.9, 0.8, 0.2])  # fixes row 1, keeps row 2 flagged
    assert correction_rate(teacher, booster, labels) == 0.5


def test_correction_rate_identity_booster_is_zero():
    labels = np.array([1, 1, 0, 0])
    teacher = np.array([0.9, 0.1, 0.8, 0.2])
    assert correction_rate(teacher, teacher, labels) == 0.0


def test_correction_rate_vacuous_warns():
    labels = np.array([1, 0])
    teacher = np.array([0.9, 0.1])
    with pytest.warns(VacuousCorrectionWarning):
        assert correction_rate(teacher, np.array([0.2, 0.8]), labels) == 1.0


def test_correction_rate_length_check():
    with pytest.raises(ValueError):
        correction_rate(np.array([0.1, 0.2]), np.array([0.1]), np.array([0, 1]))


_NAN = np.array([np.nan, 1.0, 0.5])
_LABELS = np.array([0, 1, 0])


@pytest.mark.parametrize(
    "metric",
    [
        lambda: aucroc(_NAN, _LABELS),
        lambda: average_precision(_NAN, _LABELS),
        lambda: variance_gap(_NAN, _LABELS),
        lambda: threshold_predictions(_NAN, 1),
        lambda: correction_rate(_NAN[::-1], _NAN, _LABELS),
    ],
    ids=["aucroc", "average_precision", "variance_gap", "threshold_predictions", "correction_rate"],
)
def test_nan_scores_are_refused_by_every_metric(metric):
    """A NaN has no rank: refusing it beats nan from one metric and 1.0 from another."""
    with pytest.raises(ValueError, match="^scores contain NaN$"):
        metric()


def test_infinite_scores_still_rank():
    s = np.array([-np.inf, np.inf, 0.5])
    assert aucroc(s, _LABELS) == 1.0 and average_precision(s, _LABELS) == 1.0
    assert threshold_predictions(s, 1).tolist() == [False, True, False]

