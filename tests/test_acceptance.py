"""End-to-end acceptance gates.

One test per numbered criterion. Each computes its statistic through the
public API (or the CLI), prints a single PASS/FAIL line with the measured
numbers, and asserts the stated threshold and runtime budget. The booster
runs use package defaults; the only knob the suite turns is the seed.
"""

import time

import conftest
import numpy as np
import pytest

from uadb import (
    BoosterConfig,
    DetectorKind,
    DetectorParams,
    Loss,
    Strategy,
    SyntheticKind,
    ablation_scores,
    aucroc,
    average_precision,
    correction_rate,
    fit_score,
    generate_synthetic,
    gradient_check,
    init_mlp,
    per_instance_variance,
    run_booster,
    update_pseudo_labels,
)
from uadb.cli import main
from uadb.data import Dataset
from uadb.rng import Stream

SEEDS = [1, 2, 3, 4, 5]

PAIRS = [
    (SyntheticKind.CLUSTERED, DetectorKind.IFOREST),
    (SyntheticKind.CLUSTERED, DetectorKind.HBOS),
    (SyntheticKind.GLOBAL, DetectorKind.IFOREST),
    (SyntheticKind.GLOBAL, DetectorKind.HBOS),
    (SyntheticKind.LOCAL, DetectorKind.IFOREST),
    (SyntheticKind.LOCAL, DetectorKind.LOF),
    (SyntheticKind.DEPENDENCY, DetectorKind.IFOREST),
    (SyntheticKind.DEPENDENCY, DetectorKind.KNN),
]


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)  # leading break keeps the line intact under -s
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gap-narrowing law


def test_criterion_1_gap_narrowing_law():
    stream = Stream(1001)
    start = time.monotonic()
    worst_err = 0.0
    worst_steps = 0
    for _ in range(1000):
        u = stream.uniform(4)
        y_fn = 0.02 + u[0] * 0.9
        y_fp = y_fn + 0.005 + u[1] * (0.97 - y_fn)
        v_l = u[2] * 0.45
        delta = 0.01 + u[3] * 0.04  # v_h - v_l, bounded away from 0
        v_h = v_l + delta
        y = np.array([1.0, y_fp, y_fn, 0.0])
        v = np.array([v_h, v_l, v_h, v_l])

        out = update_pseudo_labels(y, v)
        got_gap = out[1] - out[2]
        expected = (y_fp - y_fn - delta) / (1.0 + delta)
        worst_err = max(worst_err, abs(got_gap - expected))
        assert got_gap < y_fp - y_fn  # strict narrowing

        cur = out
        steps = 1
        while cur[1] - cur[2] > 0.0 and steps < 200:
            cur = update_pseudo_labels(cur, v)
            steps += 1
        assert cur[2] >= cur[1]  # FN caught up with FP
        worst_steps = max(worst_steps, steps)
    elapsed = time.monotonic() - start
    ok = worst_err <= 1e-12 and worst_steps <= 200 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"1000 fixtures, max formula error {worst_err:.2e} (<=1e-12), "
        f"max crossing steps {worst_steps} (<=200), {elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 2. ranking metric oracles


def _oracle_aucroc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def _oracle_ap(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / rank
    return total / labels.sum()


def test_criterion_2_metric_oracles():
    stream = Stream(2002)
    start = time.monotonic()
    worst = 0.0
    for trial in range(500):
        n = 2 + conftest.draw_index(stream, 49)
        scores = stream.uniform(n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # tie-heavy half
        labels = (stream.uniform(n) < 0.4).astype(np.int64)
        labels[0] = 1
        labels[-1] = 0
        worst = max(
            worst,
            abs(aucroc(scores, labels) - _oracle_aucroc(scores, labels)),
            abs(average_precision(scores, labels) - _oracle_ap(scores, labels)),
        )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(2, ok, f"500 instances, max |metric - oracle| {worst:.2e} (<=1e-12), {elapsed:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# 3. gradient check


def test_criterion_3_gradient_check():
    start = time.monotonic()
    worst = 0.0
    for i in range(50):
        d = 1 + i % 4
        # hidden >= 16: keeps samples off exact ReLU kinks, where central
        # differences are not a valid oracle for the subgradient convention
        m = init_mlp(d, seed=3000 + i, hidden=16 + i % 4)
        stream = Stream(4000 + i)
        X = stream.normal(5 * d).reshape(5, d)
        y = stream.uniform(5)
        loss = Loss.SQUARED_ERROR if i % 2 == 0 else Loss.CROSS_ENTROPY
        worst = max(worst, gradient_check(m, X, y, loss))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(3, ok, f"50 models both losses, max relative error {worst:.2e} (<1e-4), {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# 4. kNN and variance oracles


def test_criterion_4_knn_and_variance_oracles():
    worst_knn = 0.0
    for seed, n, d, k in [(1, 200, 3, 7), (2, 120, 2, 1), (3, 50, 5, 12)]:
        X = Stream(seed).normal(n * d).reshape(n, d)
        got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.KNN, k=k))
        oracle = np.empty(n)
        for i in range(n):
            dist = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
            dist[i] = np.inf
            oracle[i] = np.sort(dist)[k - 1]
        worst_knn = max(worst_knn, np.abs(got - oracle).max())
        exact = np.array_equal(got, oracle)
        assert exact

    stream = Stream(4004)
    worst_var = 0.0
    for _ in range(50):
        n = 2 + conftest.draw_index(stream, 40)
        t = 1 + conftest.draw_index(stream, 8)
        history = np.column_stack([stream.uniform(n) for _ in range(t)])
        current = stream.uniform(n)
        got = per_instance_variance(history, current)
        stacked = np.column_stack([history, current])
        oracle = np.empty(n)
        for i, row in enumerate(stacked):
            mu = sum(row) / len(row)
            oracle[i] = sum((x - mu) ** 2 for x in row) / len(row)
        worst_var = max(worst_var, np.abs(got - oracle).max())
    ok = worst_knn == 0.0 and worst_var <= 1e-12
    _verdict(4, ok, f"kNN exact (max dev {worst_knn:.1e}), variance two-pass dev {worst_var:.2e} (<=1e-12)")


# ---------------------------------------------------------------------------
# 5-8. seeded synthetic suite (shared runs)


@pytest.fixture(scope="module")
def suite_runs():
    """Default-config booster runs for all 8 pairs x 5 seeds, plus timings.

    Each row keeps its dataset and teacher scores so criterion 8 reuses them.
    """
    stats = {}
    timings = {}
    for kind, det in PAIRS:
        t0 = time.monotonic()
        rows = []
        for s in SEEDS:
            ds = generate_synthetic(kind, seed=s)
            teacher = fit_score(ds, DetectorParams(kind=det, seed=s))
            res = run_booster(ds, teacher, BoosterConfig(seed=s))
            v = res.variance_history[:, -1]
            rows.append(
                {
                    "delta": aucroc(res.final_scores, ds.labels) - aucroc(teacher, ds.labels),
                    "rate": correction_rate(teacher, res.final_scores, ds.labels),
                    "auc": aucroc(res.final_scores, ds.labels),
                    "ap": average_precision(res.final_scores, ds.labels),
                    "var_delta": float(v[ds.labels == 1].mean() - v[ds.labels == 0].mean()),
                    "ds": ds,
                    "teacher": teacher,
                }
            )
        stats[(kind, det)] = rows
        timings[(kind, det)] = time.monotonic() - t0
    return stats, timings


def test_criterion_5_synthetic_improvement(suite_runs):
    stats, timings = suite_runs
    medians = {}
    for pair in PAIRS:
        medians[pair] = float(np.median([r["delta"] for r in stats[pair]]))
    within = sum(m >= -0.02 for m in medians.values())
    strict = sum(m > 0.0 for m in medians.values())
    elapsed = sum(timings.values())
    detail = ", ".join(
        f"{kind.value[:4]}/{det.value}: {m:+.4f}" for (kind, det), m in medians.items()
    )
    ok = within == 8 and strict >= 6 and elapsed < 300.0
    _verdict(
        5,
        ok,
        f"median deltas [{detail}], within tolerance {within}/8, strict {strict}/8 (>=6), "
        f"40 runs in {elapsed:.1f}s (<300s)",
    )


def test_criterion_6_correction_rate(suite_runs):
    stats, timings = suite_runs
    pair = (SyntheticKind.CLUSTERED, DetectorKind.IFOREST)
    rates = [r["rate"] for r in stats[pair]]
    median = float(np.median(rates))
    elapsed = timings[pair]
    ok = median >= 0.5 and elapsed < 60.0
    _verdict(
        6,
        ok,
        f"correction rates {['%.3f' % r for r in rates]}, median {median:.3f} (>=0.5), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_7_variance_evidence(suite_runs):
    stats, _ = suite_runs
    kinds = [k for k in SyntheticKind]
    positive = []
    details = []
    for kind in kinds:
        rows = stats[(kind, DetectorKind.IFOREST)]
        med = float(np.median([r["var_delta"] for r in rows]))
        positive.append(med > 0.0)
        details.append(f"{kind.value}: {med:+.5f}")
    ok = sum(positive) >= 3
    _verdict(7, ok, f"anomaly-minus-inlier mean variance [{', '.join(details)}], positive {sum(positive)}/4 (>=3)")


def test_criterion_8_ablation_ordering(suite_runs):
    stats, _ = suite_runs
    kinds = [k for k in SyntheticKind]
    metrics = {}  # (strategy, kind, seed) -> (AUCROC, AP)
    for kind in kinds:
        for s, row in zip(SEEDS, stats[(kind, DetectorKind.IFOREST)]):
            ds = row["ds"]
            for strategy, scores in ablation_scores(ds, row["teacher"], BoosterConfig(seed=s)).items():
                metrics[(strategy, kind, s)] = (aucroc(scores, ds.labels), average_precision(scores, ds.labels))
            # the full-method run is the suite's own run for this (kind, seed)
            assert metrics[(Strategy.UADB, kind, s)] == (row["auc"], row["ap"])

    def median_suite_mean(strategy, i):  # i = 0 for AUCROC, 1 for AP
        return float(np.median([np.mean([metrics[(strategy, k, s)][i] for k in kinds]) for s in SEEDS]))

    reduced = [Strategy.NAIVE, Strategy.DISCREPANCY, Strategy.SELF, Strategy.DISCREPANCY_STAR]
    table = {st: (median_suite_mean(st, 0), median_suite_mean(st, 1)) for st in [Strategy.UADB, *reduced]}

    uadb_auc, uadb_ap = table[Strategy.UADB]
    beats_auc = all(uadb_auc > table[s][0] for s in reduced)
    beats_ap = all(uadb_ap > table[s][1] for s in reduced)
    detail = ", ".join(f"{s.value}: {table[s][0]:.4f}/{table[s][1]:.4f}" for s in table)
    ok = beats_auc and beats_ap
    _verdict(8, ok, f"median suite AUCROC/AP [{detail}], full method leads both: {beats_auc}/{beats_ap}")


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_criterion_9_cli_determinism(tmp_path):
    csv = tmp_path / "clustered.csv"
    checked = []

    def run_and_rerun(command, argv, artifacts):
        report = tmp_path / f"{command}-report.json"
        assert main([command, *argv, "--report", str(report)]) == 0
        paths = [report, *artifacts]
        before = {p: p.read_bytes() for p in paths}
        assert main([command, "--config", str(report)]) == 0
        after = {p: p.read_bytes() for p in paths}
        identical = all(before[p] == after[p] for p in paths)
        checked.append((command, identical, len(paths)))
        return identical

    ok = run_and_rerun(
        "synth",
        ["--kind", "clustered", "--seed", "1", "--out", str(csv)],
        [csv],
    )
    scores = tmp_path / "detect-scores.txt"
    ok &= run_and_rerun(
        "detect",
        ["--data", str(csv), "--label-column", "label", "--detector", "lof", "--seed", "2", "--scores-out", str(scores)],
        [scores],
    )
    bscores = tmp_path / "boost-scores.txt"
    hist = tmp_path / "history.csv"
    grid = tmp_path / "grid.csv"
    ok &= run_and_rerun(
        "boost",
        [
            "--data", str(csv),
            "--label-column", "label",
            "--teacher", "iforest",
            "--seed", "3",
            "--scores-out", str(bscores),
            "--history-out", str(hist),
            "--grid-out", str(grid),
            "--grid-size", "12",
        ],
        [bscores, hist, grid],
    )
    ok &= run_and_rerun(
        "ablate",
        ["--data", str(csv), "--label-column", "label", "--teacher", "iforest", "--seed", "4", "--iterations", "2"],
        [],
    )
    detail = ", ".join(f"{cmd} ({n} files): {'ok' if same else 'DIFF'}" for cmd, same, n in checked)
    _verdict(9, bool(ok), f"re-run from emitted config byte-identical [{detail}]")
