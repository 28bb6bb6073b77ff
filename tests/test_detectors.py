"""Detector correctness against brute-force oracles and geometric fixtures."""

import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uadb import (
    BoosterConfig,
    DataError,
    Dataset,
    DegenerateDataWarning,
    DetectorKind,
    DetectorParams,
    Strategy,
    SyntheticKind,
    aucroc,
    fit_score,
    fit_score_hbos,
    fit_score_iforest,
    fit_score_knn,
    fit_score_lof,
    fit_score_pca,
    generate_synthetic,
    import_scores,
    minmax_values,
    run_booster,
    save_scores,
)
from uadb import detectors
from uadb.rng import Stream, derive

# ---------------------------------------------------------------------------
# oracles: naive per-point loops straight from the definitions


def _oracle_knn(X: np.ndarray, k: int) -> np.ndarray:
    out = np.empty(len(X))
    for i in range(len(X)):
        d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        out[i] = np.sort(d)[k - 1]
    return out


def _oracle_lof(X: np.ndarray, k: int) -> np.ndarray:
    """Reachability / local reachability density / LOF, one point at a time.

    Uses exactly k neighbors with index tie-breaks, the same neighbor
    contract the implementation states.
    """
    n = len(X)
    dist = np.array([[np.sqrt(((a - b) ** 2).sum()) for b in X] for a in X])
    neighbors = []
    k_dist = np.empty(n)
    for i in range(n):
        others = sorted((dist[i, j], j) for j in range(n) if j != i)
        neighbors.append([j for _, j in others[:k]])
        k_dist[i] = others[k - 1][0]
    lrd = np.empty(n)
    for i in range(n):
        reach = [max(k_dist[j], dist[i, j], 1e-12) for j in neighbors[i]]
        lrd[i] = 1.0 / (sum(reach) / k)
    return np.array([sum(lrd[j] for j in neighbors[i]) / k / lrd[i] for i in range(n)])


@dataclass
class _IsoNode:
    feature: int | None  # None marks a leaf
    split: float
    size: int
    left: "_IsoNode | None" = None
    right: "_IsoNode | None" = None


def _build_iso_tree(X: np.ndarray, depth: int, limit: int, stream: Stream) -> _IsoNode:
    m = X.shape[0]
    if m <= 1 or depth >= limit:
        return _IsoNode(None, 0.0, m)
    spans = X.max(axis=0) - X.min(axis=0)
    candidates = np.flatnonzero(spans > 0.0)
    if candidates.size == 0:
        return _IsoNode(None, 0.0, m)
    f = int(candidates[stream.index(candidates.size)])
    lo = X[:, f].min()
    hi = X[:, f].max()
    split = lo + float(stream.uniform(1)[0]) * (hi - lo)
    mask = X[:, f] < split
    if mask.all() or not mask.any():
        return _IsoNode(None, 0.0, m)
    return _IsoNode(
        f,
        split,
        m,
        _build_iso_tree(X[mask], depth + 1, limit, stream),
        _build_iso_tree(X[~mask], depth + 1, limit, stream),
    )


def _iso_tree_paths(root: _IsoNode, X: np.ndarray) -> np.ndarray:
    depths = np.zeros(X.shape[0])
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if node.feature is None:
            depths[idx] = depth + detectors._avg_path_length(node.size)
        else:
            mask = X[idx, node.feature] < node.split
            stack.append((node.left, idx[mask], depth + 1))
            stack.append((node.right, idx[~mask], depth + 1))
    return depths


def _oracle_iforest(X: np.ndarray, trees: int, subsample: int, seed: int) -> np.ndarray:
    """Build each tree as a node graph first, then descend every row through it."""
    n = len(X)
    m = min(subsample, n)
    limit = math.ceil(math.log2(m))
    total = np.zeros(n)
    for t in range(trees):
        stream = Stream(derive(seed, t))
        rows = stream.permutation(n)[:m]
        root = _build_iso_tree(X[rows], 0, limit, stream)
        total += _iso_tree_paths(root, X)
    return np.power(2.0, -(total / trees) / detectors._avg_path_length(m))


def _oracle_neighbors(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocked O(n^2 * d) scan the KD-tree search replaced, kept as its bit-exact oracle."""
    n, d = X.shape
    block = max(1, 2**21 // (n * d))
    dist = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.intp)
    for a in range(0, n, block):
        b = min(a + block, n)
        with np.errstate(over="ignore"):  # the finiteness check below reports it
            diff = X[a:b, None, :] - X[None, :, :]
            diff *= diff
        D = np.sqrt(diff.sum(axis=-1))
        D[np.arange(b - a), np.arange(a, b)] = np.inf
        kth = np.partition(D, k - 1, axis=1)[:, k - 1]
        for r in range(b - a):
            cand = np.flatnonzero(D[r] <= kth[r])
            near = cand[np.argsort(D[r, cand], kind="stable")[:k]]
            idx[a + r], dist[a + r] = near, D[r, near]
    if not np.all(np.isfinite(dist)):
        raise DataError(f"neighbor distances {detectors.OVERFLOW_HINT}")
    return dist, idx


def _oracle_pca_residual(X: np.ndarray, components: int) -> np.ndarray:
    centered = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    top = vt[:components]
    residual = centered - centered @ top.T @ top
    return (residual**2).sum(axis=1)


def _random_points(seed: int, n: int, d: int) -> np.ndarray:
    return Stream(seed).normal(n * d).reshape(n, d)


# ---------------------------------------------------------------------------
# minmax plumbing


def test_minmax_values_examples():
    assert minmax_values(np.array([2.0, 4.0, 6.0])).tolist() == [0.0, 0.5, 1.0]
    assert minmax_values(np.array([3.0, 3.0, 3.0])).tolist() == [0.5, 0.5, 0.5]


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=2, max_size=40))
def test_minmax_preserves_pairwise_order(values):
    x = np.array(values)
    out = minmax_values(x)
    order = np.argsort(x, kind="stable")
    assert np.all(np.diff(out[order]) >= 0.0)


# ---------------------------------------------------------------------------
# isolation forest


def test_iforest_separates_clustered_anomalies():
    ds = generate_synthetic(SyntheticKind.CLUSTERED, seed=1)
    s = fit_score_iforest(ds, seed=1)
    assert s[ds.labels == 1].mean() > s[ds.labels == 0].mean()


def test_iforest_identical_rows_all_equal():
    ds = Dataset(features=np.tile([[1.0, 2.0]], (4, 1)))
    with pytest.warns(DegenerateDataWarning):
        s = fit_score_iforest(ds, trees=5)
    assert np.all(s == s[0])


def test_iforest_subsample_clamped_to_n():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=50, seed=4)
    big = fit_score_iforest(ds, trees=10, subsample=256, seed=0)
    exact = fit_score_iforest(ds, trees=10, subsample=50, seed=0)
    assert np.array_equal(big, exact)


def test_iforest_matches_build_then_descend_oracle():
    for n in (2, 3, 17, 300):
        for d in (1, 2, 7):
            X = _random_points(n + d, n, d)
            dup = X.copy()
            dup[n // 2 :] = X[: n - n // 2]
            inputs = [X, np.round(X), (X > 0.5).astype(float), dup, np.full((n, d), 2.5)]
            for features in inputs:
                ds = Dataset(features=features)
                for subsample in (2, 64, 256):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DegenerateDataWarning)
                        got = fit_score_iforest(ds, trees=3, subsample=subsample, seed=n)
                    assert np.array_equal(got, _oracle_iforest(features, 3, subsample, n))


def test_iforest_deterministic_and_validated():
    ds = generate_synthetic(SyntheticKind.LOCAL, n=40, seed=2)
    a = fit_score_iforest(ds, trees=20, seed=7)
    b = fit_score_iforest(ds, trees=20, seed=7)
    assert np.array_equal(a, b)
    with pytest.raises(DataError):
        fit_score_iforest(ds, trees=0)
    with pytest.raises(DataError):
        fit_score_iforest(ds, subsample=1)


# ---------------------------------------------------------------------------
# histogram scores


def test_hbos_flat_histogram_scores_equal():
    # 20 points spread evenly over 10 bins: every bin holds 2 points
    col = np.linspace(0.0, 1.0, 21)[:-1] + 0.025
    ds = Dataset(features=col[:, None])
    s = fit_score_hbos(ds, bins=10)
    np.testing.assert_allclose(s, s[0], atol=1e-12)


def test_hbos_sparse_bin_scores_higher():
    col = np.array([0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 5.0])
    ds = Dataset(features=col[:, None])
    s = fit_score_hbos(ds, bins=5)
    assert s[-1] > s[1:7].max()  # lone far point sits in a sparse bin


def test_hbos_duplicate_feature_doubles_scores():
    col = np.array([0.0, 1.0, 1.5, 2.0, 9.0])
    one = fit_score_hbos(Dataset(features=col[:, None]), bins=4)
    two = fit_score_hbos(Dataset(features=np.column_stack([col, col])), bins=4)
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-15)


def test_hbos_constant_feature_contributes_zero():
    col = np.array([0.0, 1.0, 2.0, 9.0])
    base = fit_score_hbos(Dataset(features=col[:, None]), bins=4)
    padded = fit_score_hbos(
        Dataset(features=np.column_stack([col, np.ones_like(col)])), bins=4
    )
    assert np.array_equal(base, padded)


# ---------------------------------------------------------------------------
# LOF


def test_lof_uniform_grid_interior_near_one():
    side = 7
    grid = np.array([[i, j] for i in range(side) for j in range(side)], dtype=float)
    k = 4
    got = fit_score_lof(Dataset(features=grid), k=k)
    center = side * (side // 2) + side // 2
    assert 0.9 <= got[center] <= 1.1
    oracle = _oracle_lof(grid, k)
    assert 0.9 <= oracle[center] <= 1.1


def test_lof_matches_oracle_on_random_data():
    for seed, n, k in [(0, 12, 3), (1, 25, 5), (2, 40, 7)]:
        X = _random_points(seed, n, 2)
        got = fit_score_lof(Dataset(features=X), k=k)
        np.testing.assert_allclose(got, _oracle_lof(X, k), rtol=1e-10)


def test_lof_handles_duplicate_points():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    s = fit_score_lof(Dataset(features=X), k=2)
    assert np.all(np.isfinite(s))


def test_lof_beats_hbos_on_local_anomalies():
    ds = generate_synthetic(SyntheticKind.LOCAL, seed=1)
    lof_auc = aucroc(fit_score_lof(ds, k=20), ds.labels)
    hbos_auc = aucroc(fit_score_hbos(ds), ds.labels)
    assert lof_auc > hbos_auc


def test_lof_k_validation():
    ds = generate_synthetic(SyntheticKind.LOCAL, n=20, seed=0)
    with pytest.raises(DataError):
        fit_score_lof(ds, k=20)
    with pytest.raises(DataError):
        fit_score_lof(ds, k=0)


# ---------------------------------------------------------------------------
# kNN distance


def test_knn_collinear_equidistant_points():
    X = np.array([[0.0], [1.0], [2.0]])
    s = fit_score_knn(Dataset(features=X), k=1)
    assert s.tolist() == [1.0, 1.0, 1.0]


def test_knn_isolated_point_scores_highest():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [8.0, 8.0]])
    s = fit_score_knn(Dataset(features=X), k=2)
    assert s.argmax() == 3


def test_knn_matches_oracle():
    for seed, n, k in [(3, 30, 1), (4, 120, 5), (5, 200, 9)]:
        X = _random_points(seed, n, 3)
        got = fit_score_knn(Dataset(features=X), k=k)
        assert np.array_equal(got, _oracle_knn(X, k))


# ---------------------------------------------------------------------------
# KD-tree neighbor search shared by LOF and kNN


def _binary_points(seed: int, n: int, d: int, density: float) -> np.ndarray:
    """Sparse 0/1 features: most rows repeat, so nearly every k-th boundary is tied."""
    return (Stream(seed).uniform(n * d).reshape(n, d) < density).astype(float)


def _permuted_shell(seed: int, d: int) -> np.ndarray:
    """The origin and signed permutations of one vector: ties that float sums break by order."""
    stream = Stream(seed)
    base = np.round(stream.uniform(d), 2)
    shell = np.array([base[stream.permutation(d)] for _ in range(40)])
    return np.vstack([np.zeros(d), shell, -shell])


def test_neighbors_match_blocked_scan_oracle():
    grid = np.array([[i, j] for i in range(12) for j in range(12)], dtype=float)
    cases = [generate_synthetic(kind, n=300, seed=4).features for kind in SyntheticKind]
    cases += [
        np.repeat(_random_points(20, 40, 3), 6, axis=0),  # every row has five exact twins
        grid,
        _binary_points(21, 400, 12, 0.1),
        _random_points(22, 300, 9),
        _random_points(23, 120, 40),
        np.array([[0.0], [2.0]]),
        np.array([[0.0], [1.0], [3.0]]),
        np.ones((25, 3)),
        _permuted_shell(26, 12),
        _permuted_shell(33, 9),
    ]
    for X in cases:
        n = len(X)
        for k in sorted({k for k in (1, 5, 20, n - 1) if k < n}):
            got, want = detectors._neighbors(X, k), _oracle_neighbors(X, k)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (X.shape, k)
    local = generate_synthetic(SyntheticKind.LOCAL, n=4000, seed=4).features
    got, want = detectors._neighbors(local, 20), _oracle_neighbors(local, 20)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_neighbor_blocks_split_anywhere_same_bits(monkeypatch):
    X = _random_points(10, 50, 3)
    X[25:] = X[:25]  # duplicate rows tie across block boundaries
    binary = _binary_points(13, 60, 6, 0.2)  # tied boundaries: rows are queried again with K doubled
    runs = [(X, 5), (X, 4), (binary, 5)]  # k=4 on twinned rows ties the k-th with the next distance

    def scores(A, k):
        ds = Dataset(features=A)
        return fit_score_lof(ds, k=k), fit_score_knn(ds, k=k)

    want = [scores(A, k) for A, k in runs]
    queries = []

    class CountingTree(detectors.cKDTree):
        def query(self, x, k):
            queries.append((len(x), k))
            return super().query(x, k=k)

    monkeypatch.setattr(detectors, "cKDTree", CountingTree)
    for rows in (1, 7):  # 7 rows: chunks end at odd row counts, last one short
        for (A, k), (lof, knn) in zip(runs, want):
            # the first round queries K = k + 2 neighbors of each row
            monkeypatch.setattr(detectors, "NEIGHBOR_BLOCK_ELEMENTS", rows * (k + 2) * A.shape[1])
            queries.clear()
            got_lof, got_knn = scores(A, k)
            assert np.array_equal(got_lof, lof) and np.array_equal(got_knn, knn)
            assert max(m for m, _ in queries) == rows
            if k == 4 or A is binary:  # later rounds, with larger K, also span several chunks
                assert sum(K > k + 2 for _, K in queries) > 2


def test_neighbors_tied_kth_boundary_match_oracles():
    grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    dup = np.vstack([grid[:9], grid[:9]])  # every row has an exact twin
    cases = [(grid, k) for k in (1, 2, 3, 4, 5, 8, 24)]
    cases += [(dup, k) for k in (1, 2, 3, 17)]
    cases += [(np.array([[0.0], [2.0]]), 1), (np.array([[1.0, 1.0], [1.0, 1.0]]), 1)]
    cases += [(np.array([[0.0], [1.0], [2.0]]), k) for k in (1, 2)]
    cases += [(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]]), k) for k in (1, 2)]
    for X, k in cases:
        ds = Dataset(features=X)
        np.testing.assert_allclose(fit_score_lof(ds, k=k), _oracle_lof(X, k), rtol=1e-10)
        assert np.array_equal(fit_score_knn(ds, k=k), _oracle_knn(X, k))


def test_neighbor_distance_overflow_is_clear_error():
    far = Dataset(features=np.array([[0.0], [1e160], [-1e160], [3e160]]))
    for fit in (fit_score_lof, fit_score_knn):
        with pytest.raises(DataError, match="overflow float64; rescale"):
            fit(far, k=1)
    # squared magnitudes overflow the covariance behind PCA and the booster's conditioner too
    huge = Dataset(features=_random_points(12, 60, 2) * 1e160)
    with pytest.raises(DataError, match="overflow float64; rescale"):
        fit_score_pca(huge, components=1)
    teacher = fit_score_hbos(huge)
    for strategy in Strategy:
        with pytest.raises(DataError, match="overflow float64; rescale"):
            run_booster(huge, teacher, BoosterConfig(T=1, strategy=strategy))
    # an overflowing distance beyond the k-th neighbor is harmless
    pairs = Dataset(features=np.array([[0.0], [1.0], [1e160], [1.000000000000001e160]]))
    assert np.all(np.isfinite(fit_score_lof(pairs, k=1)))
    assert np.all(np.isfinite(fit_score_knn(pairs, k=1)))


def test_lof_peak_memory_bounded():
    ds = Dataset(features=_random_points(11, 3000, 2))
    tracemalloc.start()
    try:
        fit_score_lof(ds, k=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20  # a full 3000 x 3000 x 2 difference tensor alone is 137 MiB


def test_neighbor_tie_next_to_overflow_matches_oracles():
    # row 0 ties rows 1 and 2 at distance 1; every distance to a 1e160 row overflows when squared
    X = np.array([[0.0], [1.0], [-1.0], [1e160], [1.0000000000001e160]])
    ds = Dataset(features=X)
    lof, knn = fit_score_lof(ds, k=1), fit_score_knn(ds, k=1)
    assert np.all(np.isfinite(lof)) and np.all(np.isfinite(knn))
    got, want = detectors._neighbors(X, 1), _oracle_neighbors(X, 1)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    with np.errstate(over="ignore"):
        assert np.array_equal(lof, _oracle_lof(X, 1))
        assert np.array_equal(knn, _oracle_knn(X, 1))


def test_lof_peak_memory_bounded_on_tied_binary():
    # about 1700 of 6000 rows are all zero, so their K doubles to 2816 before it passes the tie
    ds = Dataset(features=_binary_points(14, 6000, 12, 0.1))
    tracemalloc.start()
    try:
        fit_score_lof(ds, k=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


# ---------------------------------------------------------------------------
# PCA residual


def test_pca_on_line_scores_zero():
    t = np.linspace(-2.0, 2.0, 15)
    X = np.column_stack([t, 3.0 * t])
    s = fit_score_pca(Dataset(features=X), components=1)
    assert np.all(s < 1e-10)


def test_pca_off_line_point_scores_positive():
    t = np.linspace(-2.0, 2.0, 15)
    X = np.column_stack([t, 3.0 * t])
    X[7] = [0.0, 2.0]  # knock one point off the line
    s = fit_score_pca(Dataset(features=X), components=1)
    assert s[7] > 1e-3
    assert s[7] == s.max()


def test_pca_matches_projector_oracle():
    for seed, n, d, c in [(6, 25, 3, 1), (7, 40, 5, 2), (8, 30, 4, 3)]:
        X = _random_points(seed, n, d)
        got = fit_score_pca(Dataset(features=X), components=c)
        np.testing.assert_allclose(got, _oracle_pca_residual(X, c), atol=1e-10)


def test_pca_validation():
    ds = Dataset(features=np.arange(10.0)[:, None])
    with pytest.raises(DataError):
        fit_score_pca(ds)
    wide = Dataset(features=_random_points(9, 10, 3))
    with pytest.raises(DataError):
        fit_score_pca(wide, components=3)


# ---------------------------------------------------------------------------
# score import/export and dispatch


def test_import_scores_round_trip(tmp_path):
    path = tmp_path / "s.txt"
    v = np.array([0.25, 1.5, -3.0, 0.125, 7.0])
    save_scores(v, path)
    back = import_scores(path, 5)
    assert np.array_equal(back, v)


def test_import_scores_header_and_errors(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("score\n1.0\n2.0\n3.0\n", encoding="utf-8")
    assert len(import_scores(path, 3)) == 3
    with pytest.raises(DataError, match="expected 5 scores"):
        import_scores(path, 5)
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\ninf\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-finite"):
        import_scores(bad, 2)
    with pytest.raises(DataError, match="no such file"):
        import_scores(tmp_path / "absent.txt", 1)


def test_fit_score_dispatch_defaults():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=60, seed=5)
    lof = fit_score(ds, DetectorParams(kind=DetectorKind.LOF))
    assert np.array_equal(lof, fit_score_lof(ds, k=20))
    knn = fit_score(ds, DetectorParams(kind=DetectorKind.KNN))
    assert np.array_equal(knn, fit_score_knn(ds, k=5))
    pca = fit_score(ds, DetectorParams(kind=DetectorKind.PCA))
    assert np.array_equal(pca, fit_score_pca(ds, components=1))
    ifo = fit_score(ds, DetectorParams(kind=DetectorKind.IFOREST, seed=3))
    assert np.array_equal(ifo, fit_score_iforest(ds, seed=3))
    hb = fit_score(ds, DetectorParams(kind=DetectorKind.HBOS, bins=7))
    assert np.array_equal(hb, fit_score_hbos(ds, bins=7))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_score_rejects_non_finite_scores(monkeypatch, bad):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=5)
    monkeypatch.setattr(detectors, "fit_score_hbos", lambda ds, bins: np.full(ds.n, bad))
    with pytest.raises(DataError, match="scores contain non-finite values"):
        fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))
