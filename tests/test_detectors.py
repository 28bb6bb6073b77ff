"""Detector correctness against brute-force oracles and geometric fixtures."""

import hashlib
import math
import os
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, fields

import numpy as np
import pytest
import scipy.spatial
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
    generate_synthetic,
    minmax_values,
    run_booster,
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
    # block draws only, the index rule written out: never the vectorised path under test
    u = float(stream.uniform(1)[0])
    f = int(candidates[min(int(u * candidates.size), candidates.size - 1)])
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


def _iso_tree_paths(root: _IsoNode, X: np.ndarray, path_c: np.ndarray) -> np.ndarray:
    depths = np.zeros(X.shape[0])
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if node.feature is None:
            depths[idx] = depth + path_c[node.size]
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
    path_c = detectors._avg_path_lengths(m)
    total = np.zeros(n)
    for t in range(trees):
        stream = Stream(derive(seed, t))
        rows = stream.permutation(n)[:m]
        root = _build_iso_tree(X[rows], 0, limit, stream)
        total += _iso_tree_paths(root, X, path_c)
    return np.power(2.0, -(total / trees) / path_c[m])


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
    s = fit_score(ds, DetectorParams(DetectorKind.IFOREST, seed=1))
    assert s[ds.labels == 1].mean() > s[ds.labels == 0].mean()


def test_iforest_identical_rows_all_equal():
    ds = Dataset(features=np.tile([[1.0, 2.0]], (4, 1)))
    with pytest.warns(DegenerateDataWarning):
        s = fit_score(ds, DetectorParams(DetectorKind.IFOREST, trees=5))
    assert np.all(s == s[0])


def test_iforest_subsample_clamped_to_n():
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=50, seed=4)
    big = fit_score(ds, DetectorParams(DetectorKind.IFOREST, trees=10, subsample=256, seed=0))
    exact = fit_score(ds, DetectorParams(DetectorKind.IFOREST, trees=10, subsample=50, seed=0))
    assert np.array_equal(big, exact)


def test_iforest_matches_build_then_descend_oracle():
    for n in (2, 3, 17, 300):
        for d in (1, 2, 7):
            X = _random_points(n + d, n, d)
            dup = X.copy()
            dup[n // 2 :] = X[: n - n // 2]
            inputs = [X, np.round(X), (X > 0.5).astype(float), dup, np.full((n, d), 2.5)]
            inputs.append(1e16 + np.round(X))  # spans of a few ulps: splits can land on the minimum itself
            for features in inputs:
                ds = Dataset(features=features)
                for subsample in (2, 64, 256):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DegenerateDataWarning)
                        params = DetectorParams(DetectorKind.IFOREST, trees=3, subsample=subsample, seed=n)
                        got = fit_score(ds, params)
                    assert np.array_equal(got, _oracle_iforest(features, 3, subsample, n))


@pytest.mark.parametrize("m", [1, 2, 10, 11, 12, 256, 4097, 2**16])
def test_avg_path_lengths_keep_the_bits_of_scipy_digamma(m):
    """The in-house psi table gives c(0..m) to the bit, on both sides of Cephes' switch at size 10."""
    from scipy.special import digamma

    sizes = np.arange(2.0, m + 1)
    harmonic = digamma(sizes) + np.euler_gamma
    want = np.concatenate([[0.0, 0.0], 2.0 * harmonic - 2.0 * (sizes - 1) / sizes])
    assert np.array_equal(detectors._avg_path_lengths(m), want)


def _chunk_sizes(monkeypatch) -> list[int]:
    """Record the number of trees in each lockstep chunk the forest grows."""
    sizes = []
    grow = detectors._grow_trees

    def spy(XT, seeds, *rest):
        sizes.append(len(seeds))
        return grow(XT, seeds, *rest)

    monkeypatch.setattr(detectors, "_grow_trees", spy)
    return sizes


def test_iforest_matches_oracle_across_chunk_boundaries(monkeypatch):
    sizes = _chunk_sizes(monkeypatch)
    X = _random_points(41, 300, 2)
    got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.IFOREST, seed=5))
    assert np.array_equal(got, _oracle_iforest(X, 100, 256, 5))
    chunk = sizes[0]
    assert 1 < chunk < 100 and sizes == [chunk] * (100 // chunk) + [100 % chunk] * (100 % chunk > 0)
    for trees in (chunk - 1, chunk, chunk + 1):
        sizes.clear()
        got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.IFOREST, trees=trees, seed=6))
        assert np.array_equal(got, _oracle_iforest(X, trees, 256, 6))
        assert sizes == ([trees] if trees <= chunk else [chunk, trees - chunk])
    # a subsample so large that a chunk holds one tree: a growing tree counts 14m + 5d words
    m = detectors.FOREST_BLOCK_ELEMENTS // 28 + 1
    X = _random_points(42, m, 2)
    sizes.clear()
    got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.IFOREST, trees=2, subsample=m, seed=7))
    assert sizes == [1, 1]
    assert np.array_equal(got, _oracle_iforest(X, 2, m, 7))


def test_iforest_wide_data_gathers_features_in_blocks(monkeypatch):
    # defaults on 500 features still grow many trees a chunk: the feature count does not shrink it to one
    sizes = _chunk_sizes(monkeypatch)
    X = _random_points(45, 300, 500)
    fit_score(Dataset(features=X), DetectorParams(DetectorKind.IFOREST, trees=30))
    assert sizes[0] >= 20
    # 3 trees of 64 rows a chunk; a first step gathers 4096 // 192 = 21 of the 40 features at a time
    monkeypatch.setattr(detectors, "FOREST_BLOCK_ELEMENTS", 2**12)
    X = _random_points(46, 200, 40)
    sizes.clear()
    got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.IFOREST, trees=7, subsample=64, seed=8))
    assert sizes == [3, 3, 1]
    assert np.array_equal(got, _oracle_iforest(X, 7, 64, 8))
    # a chunk (5 trees at 2**14 words) and its gathered values stay within the budget twice over
    monkeypatch.setattr(detectors, "FOREST_BLOCK_ELEMENTS", 2**14)
    XT = np.ascontiguousarray(_random_points(47, 200, 400).T)
    path_c = detectors._avg_path_lengths(64)
    tracemalloc.start()
    try:
        detectors._grow_trees(XT, [derive(0, t) for t in range(5)], 64, 6, path_c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * 2**14  # gathering all 400 features of a first step at once takes 8.6x the budget


def test_iforest_peak_memory_bounded(monkeypatch):
    ds = generate_synthetic(SyntheticKind.CLUSTERED, seed=3)
    fit_score(ds, DetectorParams(DetectorKind.IFOREST))  # first-call allocations are not the forest's
    tracemalloc.start()
    try:
        fit_score(ds, DetectorParams(DetectorKind.IFOREST))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20  # all 100 trees in one chunk peak near 3 MiB
    # a budget of 2**14 words holds one growing tree of subsample 1025, not two: chunks of one tree
    monkeypatch.setattr(detectors, "FOREST_BLOCK_ELEMENTS", 2**14)
    sizes = _chunk_sizes(monkeypatch)
    X = _random_points(43, 1025, 2)
    tracemalloc.start()
    try:
        fit_score(Dataset(features=X), DetectorParams(DetectorKind.IFOREST, trees=2, subsample=1025))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [1, 1]
    assert peak <= 1.5 * 8 * 2**14  # the budget's bytes plus the rows' own arrays; two trees at once take 2x
    # 4000 rows descend a chunk of 18 trees in row blocks; all rows at once would take 19x the budget
    X = _random_points(44, 4000, 1)
    sizes.clear()
    tracemalloc.start()
    try:
        fit_score(Dataset(features=X), DetectorParams(DetectorKind.IFOREST, trees=18, subsample=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [18]
    assert peak <= 4 * 8 * 2**14


def test_iforest_and_hbos_accept_feature_ranges_past_float64():
    # column 0 spans 3.4e308, past float64's max; the suite turns an overflow RuntimeWarning into an error
    X = _random_points(44, 60, 2)
    X[:, 0] *= 1.7e308 / np.abs(X[:, 0]).max()
    X[np.argmin(X[:, 0]), 0], X[np.argmax(X[:, 0]), 0] = -1.7e308, 1.7e308
    for kind in (DetectorKind.IFOREST, DetectorKind.HBOS):
        params = DetectorParams(kind, trees=20)
        wide = fit_score(Dataset(features=X), params)
        assert np.array_equal(wide, fit_score(Dataset(features=X * 0.5), params)), kind
        # 2**-5 brings 10 bins' worth of the range into float64 without any halving
        assert np.array_equal(wide, fit_score(Dataset(features=X * 2.0**-5), params)), kind
        assert np.unique(wide).size > 10, kind


def _iforest_grid_digest(kind: str, n: int, d: int) -> str:
    """sha256 over iforest score bytes for seeds {0, 7} x subsample {2, 64, 256}."""
    X = _random_points(1000 * n + d, n, d)
    if kind == "binary":
        X = (X > 0.5).astype(float)
    elif kind == "duplicate":
        X[n // 2 :] = X[: n - n // 2]
    digest = hashlib.sha256()
    for seed in (0, 7):
        for subsample in (2, 64, 256):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateDataWarning)
                params = DetectorParams(DetectorKind.IFOREST, trees=8, subsample=subsample, seed=seed)
                scores = fit_score(Dataset(features=X), params)
            digest.update(scores.tobytes())
    return digest.hexdigest()


# _iforest_grid_digest per (input kind, n, d), captured before the scalar-draw rewrite
_IFOREST_GOLDEN = {
    ("normal", 2, 1): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("normal", 2, 2): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("normal", 2, 7): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("normal", 17, 1): "d6d03fa08079c00b47a8277930220766a4e995e6f8c1389fba03c91c487dade5",
    ("normal", 17, 2): "ec352cb3314959f25f5edeff8bccfb4c0d9ee105e7944a12120f8e5be4a2a1c7",
    ("normal", 17, 7): "04e040633fd31334a6839ce38fa6a65862209ac78d26a4c952ea3c47240fd7b2",
    ("normal", 300, 1): "585ecd4661816543a891d0f2b89e2dfbf126bb8e82ddab0502d6f715f24f89f3",
    ("normal", 300, 2): "90e68011bc3d9cfb951e482e89fcbf43e3ecff603f10675fc637bb917c68c53b",
    ("normal", 300, 7): "f86ec9ba03d3d67a0fe87257a502a316d8c6f4eae0025b340b8b60a96b599611",
    ("normal", 1000, 1): "f57a3fd2be601fc4f96192e2fe5da22a25be8838c9d8f7ad48f860906db32ace",
    ("normal", 1000, 2): "bbad623912a9dbe4c14c3f13e1d3d79df0a6a0cd6bc3777327d39120ff6cdbf7",
    ("normal", 1000, 7): "b311fa57caf36affd95bac47d98764e964d3425f1221e79f4b7cd58c0f85a64e",
    ("duplicate", 2, 1): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("duplicate", 2, 2): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("duplicate", 2, 7): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("duplicate", 17, 1): "2aa040dc6fcf1119d7aa5f069061cb16044f707dce7642742b76862ed30d8486",
    ("duplicate", 17, 2): "d0cd0ad92e12742e3801097095354b9474fc5666e2861922bd417237d0bb547c",
    ("duplicate", 17, 7): "f10f786a4487bf8e939dc24a8d9607f23fb4f707ebdc9865767156df5962600f",
    ("duplicate", 300, 1): "63d3a7a14d778ee66e7762393bdb11cef9ba73c593919cb8dc2e44518dc6edbd",
    ("duplicate", 300, 2): "6690a1a938be57d531d1d000ba0f97280ec6f57851badfb98c57997c6ba7da7d",
    ("duplicate", 300, 7): "352f92f93d1a1a4918367f14d763666d80be0705c1e0d707d957cd8c34eaf777",
    ("duplicate", 1000, 1): "d734688b9f103e97380945f7f611b6752e08d5b2424445d9251df23eaa1dd52c",
    ("duplicate", 1000, 2): "b768bd839370e2d9e38f5636468a158496af43f8d07e04882b12c7d8ebc34655",
    ("duplicate", 1000, 7): "ffea5e6641465efb367fe4650a021ec148ac0b734360531d5cc4d05953427a6d",
    ("binary", 2, 1): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("binary", 2, 2): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("binary", 2, 7): "414b5dc2592ba4d44cf485af193e5507dde963711c0a96a826c4bd4163d0f10e",
    ("binary", 17, 1): "d635239e70692556a48143d41acd00e7cbbe9670b8423a16cd89d16c1c381bd3",
    ("binary", 17, 2): "65d7b1e9a0fc04bf6b65b8735b00dccd097e2be22a3771c5c27b160ed56b2971",
    ("binary", 17, 7): "d2408ab6dff827a7d9b39399af2bf711c9777b3b11ea2c92d08c4ab27a294ee2",
    ("binary", 300, 1): "d249a29da61908af9f602490696f11362d4515057126783911ec11617524c2d9",
    ("binary", 300, 2): "f0250b30366bd995eb03578a5cc7b360be90011725b8da9828aab4dd575bc01e",
    ("binary", 300, 7): "1326c89ea8e0026217447dd85925b6c52649e6c60b6c01f988fbb056a65ddecb",
    ("binary", 1000, 1): "cda3bbbac88c8a58d1c8ba8ce59a9e39e2ba00a9292e9badf6775d3a32575339",
    ("binary", 1000, 2): "f5d028a389ca154958ab33ee28115d19b8b394cd0ae1424af5e0099c6d57b010",
    ("binary", 1000, 7): "ea75d97627b70e96c5eae8880c7ba93ab6e3b4cdd2571f0a9dc5ec6bcc56e7e2",
}


@pytest.mark.parametrize("case", sorted(_IFOREST_GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_iforest_golden_grid(case):
    """Any rewrite of tree growth must reproduce these scores bit for bit."""
    assert _iforest_grid_digest(*case) == _IFOREST_GOLDEN[case]


def test_iforest_deterministic_and_validated():
    ds = generate_synthetic(SyntheticKind.LOCAL, n=40, seed=2)
    a = fit_score(ds, DetectorParams(DetectorKind.IFOREST, trees=20, seed=7))
    b = fit_score(ds, DetectorParams(DetectorKind.IFOREST, trees=20, seed=7))
    assert np.array_equal(a, b)
    with pytest.raises(DataError):
        fit_score(ds, DetectorParams(DetectorKind.IFOREST, trees=0))
    with pytest.raises(DataError):
        fit_score(ds, DetectorParams(DetectorKind.IFOREST, subsample=1))


# ---------------------------------------------------------------------------
# histogram scores


def test_hbos_flat_histogram_scores_equal():
    # 20 points spread evenly over 10 bins: every bin holds 2 points
    col = np.linspace(0.0, 1.0, 21)[:-1] + 0.025
    ds = Dataset(features=col[:, None])
    s = fit_score(ds, DetectorParams(DetectorKind.HBOS, bins=10))
    np.testing.assert_allclose(s, s[0], atol=1e-12)


def test_hbos_sparse_bin_scores_higher():
    col = np.array([0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 5.0])
    ds = Dataset(features=col[:, None])
    s = fit_score(ds, DetectorParams(DetectorKind.HBOS, bins=5))
    assert s[-1] > s[1:7].max()  # lone far point sits in a sparse bin


def test_hbos_duplicate_feature_doubles_scores():
    col = np.array([0.0, 1.0, 1.5, 2.0, 9.0])
    one = fit_score(Dataset(features=col[:, None]), DetectorParams(DetectorKind.HBOS, bins=4))
    two = fit_score(Dataset(features=np.column_stack([col, col])), DetectorParams(DetectorKind.HBOS, bins=4))
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-15)


def test_hbos_memory_does_not_grow_with_bins():
    ds = Dataset(features=_random_points(48, 300, 2))
    fit_score(ds, DetectorParams(DetectorKind.HBOS, bins=10))  # first-call allocations are not the fit's
    tracemalloc.start()
    try:
        fit_score(ds, DetectorParams(DetectorKind.HBOS, bins=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one count per bin would take 8 MB


@pytest.mark.parametrize("bins", [2**63 - 1, 10**20, 10**300])
def test_hbos_accepts_bin_counts_past_int64(bins):
    """A bin count past int64 is no overflow and no cast warning: each distinct value keeps its own bin."""
    X = np.column_stack([np.arange(40) % 4, np.arange(40) % 3 * 1e-200]).astype(float)
    X[0] = (7.0, 2e-200)
    want = np.zeros(len(X))
    for col in X.T:
        _, inverse, counts = np.unique(col, return_inverse=True, return_counts=True)
        want -= np.log(counts[inverse] / len(X))
    assert np.array_equal(fit_score(Dataset(features=X), DetectorParams(DetectorKind.HBOS, bins=bins)), want)


@pytest.mark.parametrize("bins", [int(sys.float_info.max) + 1, 10**400], ids=["max-plus-one", "1e400"])
def test_detector_params_refuse_bin_counts_past_float64(bins):
    message = r"^need bins <= 1\.7976931348623157e\+308, got a bin count past float64's range$"
    with pytest.raises(DataError, match=message):
        DetectorParams(DetectorKind.HBOS, bins=bins)
    DetectorParams(DetectorKind.IFOREST, bins=bins)  # only the histogram scorer reads bins
    DetectorParams(DetectorKind.HBOS, bins=int(sys.float_info.max))


def test_hbos_constant_feature_contributes_zero():
    col = np.array([0.0, 1.0, 2.0, 9.0])
    base = fit_score(Dataset(features=col[:, None]), DetectorParams(DetectorKind.HBOS, bins=4))
    padded = fit_score(
        Dataset(features=np.column_stack([col, np.ones_like(col)])), DetectorParams(DetectorKind.HBOS, bins=4)
    )
    assert np.array_equal(base, padded)


# ---------------------------------------------------------------------------
# LOF


def test_lof_uniform_grid_interior_near_one():
    side = 7
    grid = np.array([[i, j] for i in range(side) for j in range(side)], dtype=float)
    k = 4
    got = fit_score(Dataset(features=grid), DetectorParams(DetectorKind.LOF, k=k))
    center = side * (side // 2) + side // 2
    assert 0.9 <= got[center] <= 1.1
    oracle = _oracle_lof(grid, k)
    assert 0.9 <= oracle[center] <= 1.1


def test_lof_matches_oracle_on_random_data():
    for seed, n, k in [(0, 12, 3), (1, 25, 5), (2, 40, 7)]:
        X = _random_points(seed, n, 2)
        got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.LOF, k=k))
        np.testing.assert_allclose(got, _oracle_lof(X, k), rtol=1e-10)


def test_lof_handles_duplicate_points():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    s = fit_score(Dataset(features=X), DetectorParams(DetectorKind.LOF, k=2))
    assert np.all(np.isfinite(s))


def test_lof_beats_hbos_on_local_anomalies():
    ds = generate_synthetic(SyntheticKind.LOCAL, seed=1)
    lof_auc = aucroc(fit_score(ds, DetectorParams(DetectorKind.LOF, k=20)), ds.labels)
    hbos_auc = aucroc(fit_score(ds, DetectorParams(DetectorKind.HBOS)), ds.labels)
    assert lof_auc > hbos_auc


def test_lof_k_validation():
    ds = generate_synthetic(SyntheticKind.LOCAL, n=20, seed=0)
    with pytest.raises(DataError):
        fit_score(ds, DetectorParams(DetectorKind.LOF, k=20))
    with pytest.raises(DataError):
        fit_score(ds, DetectorParams(DetectorKind.LOF, k=0))


# ---------------------------------------------------------------------------
# kNN distance


def test_knn_collinear_equidistant_points():
    X = np.array([[0.0], [1.0], [2.0]])
    s = fit_score(Dataset(features=X), DetectorParams(DetectorKind.KNN, k=1))
    assert s.tolist() == [1.0, 1.0, 1.0]


def test_knn_isolated_point_scores_highest():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [8.0, 8.0]])
    s = fit_score(Dataset(features=X), DetectorParams(DetectorKind.KNN, k=2))
    assert s.argmax() == 3


def test_knn_matches_oracle():
    for seed, n, k in [(3, 30, 1), (4, 120, 5), (5, 200, 9)]:
        X = _random_points(seed, n, 3)
        got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.KNN, k=k))
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


def _neighbor_cases() -> list[tuple[np.ndarray, int]]:
    """(X, k) pairs with twins, grids, binary rows, wide rows, tiny n and permuted shells."""
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
    local = generate_synthetic(SyntheticKind.LOCAL, n=4000, seed=4).features
    pairs = [(X, k) for X in cases for k in sorted({k for k in (1, 5, 20, len(X) - 1) if k < len(X)})]
    return pairs + [(local, 20)]


def test_neighbors_match_blocked_scan_oracle():
    for X, k in _neighbor_cases():
        got, want = detectors._neighbors(X, k), _oracle_neighbors(X, k)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (X.shape, k)


def test_neighbors_same_bits_on_one_thread(monkeypatch):
    cases = _neighbor_cases()
    want = [detectors._neighbors(X, k) for X, k in cases]

    class OneThreadTree(scipy.spatial.cKDTree):
        def query(self, x, k, **kwargs):
            return super().query(x, k=k, **{**kwargs, "workers": 1})

    monkeypatch.setattr(scipy.spatial, "cKDTree", OneThreadTree)
    for (X, k), (dist, idx) in zip(cases, want):
        got = detectors._neighbors(X, k)
        assert np.array_equal(got[0], dist) and np.array_equal(got[1], idx), (X.shape, k)


def test_neighbors_query_on_the_cpus_the_process_may_run_on(monkeypatch):
    cases = _neighbor_cases()[-3:]
    want = [detectors._neighbors(X, k) for X, k in cases]
    workers = []

    class RecordingTree(scipy.spatial.cKDTree):
        def query(self, x, k, **kwargs):
            workers.append(kwargs["workers"])
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for (X, k), (dist, idx) in zip(cases, want):
        got = detectors._neighbors(X, k)
        assert np.array_equal(got[0], dist) and np.array_equal(got[1], idx), (X.shape, k)
    assert workers and set(workers) == {1}


def test_neighbor_blocks_split_anywhere_same_bits(monkeypatch):
    X = _random_points(10, 50, 3)
    X[25:] = X[:25]  # duplicate rows tie across block boundaries
    binary = _binary_points(13, 60, 6, 0.2)  # tied boundaries: rows are queried again with K doubled
    runs = [(X, 5), (X, 4), (binary, 5)]  # k=4 on twinned rows ties the k-th with the next distance

    def scores(A, k):
        ds = Dataset(features=A)
        return tuple(fit_score(ds, DetectorParams(kind, k=k)) for kind in (DetectorKind.LOF, DetectorKind.KNN))

    want = [scores(A, k) for A, k in runs]
    queries = []

    class CountingTree(scipy.spatial.cKDTree):
        def query(self, x, k, **kwargs):
            queries.append((len(x), k))
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    for rows in (1, 7):  # 7 rows: chunks end at odd row counts, last one short
        for (A, k), (lof, knn) in zip(runs, want):
            # the first round queries K = k + 2 neighbors of each row, each d + 2 words
            monkeypatch.setattr(detectors, "NEIGHBOR_BLOCK_ELEMENTS", rows * (k + 2) * (A.shape[1] + 2))
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
        lof = fit_score(ds, DetectorParams(DetectorKind.LOF, k=k))
        np.testing.assert_allclose(lof, _oracle_lof(X, k), rtol=1e-10)
        assert np.array_equal(fit_score(ds, DetectorParams(DetectorKind.KNN, k=k)), _oracle_knn(X, k))


def test_neighbor_distance_overflow_is_clear_error():
    far = Dataset(features=np.array([[0.0], [1e160], [-1e160], [3e160]]))
    for kind in (DetectorKind.LOF, DetectorKind.KNN):
        with pytest.raises(DataError, match="overflow float64; rescale"):
            fit_score(far, DetectorParams(kind, k=1))
    # squared magnitudes overflow the covariance behind PCA and the booster's conditioner too
    huge = Dataset(features=_random_points(12, 60, 2) * 1e160)
    with pytest.raises(DataError, match="overflow float64; rescale"):
        fit_score(huge, DetectorParams(DetectorKind.PCA, components=1))
    teacher = fit_score(huge, DetectorParams(DetectorKind.HBOS))
    for strategy in Strategy:
        with pytest.raises(DataError, match="overflow float64; rescale"):
            run_booster(huge, teacher, BoosterConfig(T=1, strategy=strategy))
    # an overflowing distance beyond the k-th neighbor is harmless
    pairs = Dataset(features=np.array([[0.0], [1.0], [1e160], [1.000000000000001e160]]))
    assert np.all(np.isfinite(fit_score(pairs, DetectorParams(DetectorKind.LOF, k=1))))
    assert np.all(np.isfinite(fit_score(pairs, DetectorParams(DetectorKind.KNN, k=1))))


def test_lof_peak_memory_bounded():
    ds = Dataset(features=_random_points(11, 3000, 2))
    tracemalloc.start()
    try:
        fit_score(ds, DetectorParams(DetectorKind.LOF, k=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20  # a full 3000 x 3000 x 2 difference tensor alone is 137 MiB


def test_neighbor_chunks_count_sort_keys(monkeypatch):
    # at d = 1 a candidate's two-word sort key outweighs its one squared difference
    X = Stream(15).uniform(20000)[:, None]
    detectors._neighbors(X[:50], 3)  # scipy.spatial's one-time import is not the search's
    budget = 2**15
    monkeypatch.setattr(detectors, "NEIGHBOR_BLOCK_ELEMENTS", budget)
    tracemalloc.start()
    try:
        detectors._neighbors(X, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at k = 1 dist, idx, the row numbers and the tree's index take 4n words; chunks sized on
    # the differences alone peak near 7 budgets above them, these near 2.6
    assert peak <= 8 * (4 * len(X) + 4 * budget)


def test_neighbor_tie_next_to_overflow_matches_oracles():
    # row 0 ties rows 1 and 2 at distance 1; every distance to a 1e160 row overflows when squared
    X = np.array([[0.0], [1.0], [-1.0], [1e160], [1.0000000000001e160]])
    ds = Dataset(features=X)
    lof = fit_score(ds, DetectorParams(DetectorKind.LOF, k=1))
    knn = fit_score(ds, DetectorParams(DetectorKind.KNN, k=1))
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
        fit_score(ds, DetectorParams(DetectorKind.LOF, k=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


# ---------------------------------------------------------------------------
# PCA residual


def test_pca_on_line_scores_zero():
    t = np.linspace(-2.0, 2.0, 15)
    X = np.column_stack([t, 3.0 * t])
    with pytest.warns(DegenerateDataWarning, match=r"^components=1 reaches the data's rank 1: "):
        s = fit_score(Dataset(features=X), DetectorParams(DetectorKind.PCA, components=1))
    assert np.all(s < 1e-10)


def test_pca_components_at_the_rank_warn_and_keep_the_scores():
    """30 rows span 29 of 80 directions, so the default 40 components leave rounding noise, scored as before."""
    X = _random_points(30, 30, 80)
    with pytest.warns(DegenerateDataWarning, match=r"^components=40 reaches the data's rank 29: "):
        s = fit_score(Dataset(features=X), DetectorParams(DetectorKind.PCA))
    assert s.max() < 1e-20
    # the bytes fit_score gave before it checked the rank
    assert hashlib.sha256(s.tobytes()).hexdigest() == "1f61fa91c53a6544eeb214975d0e50a8ad13a795305481ca4a7b1cd28cd33b9b"


def test_pca_off_line_point_scores_positive():
    t = np.linspace(-2.0, 2.0, 15)
    X = np.column_stack([t, 3.0 * t])
    X[7] = [0.0, 2.0]  # knock one point off the line
    s = fit_score(Dataset(features=X), DetectorParams(DetectorKind.PCA, components=1))
    assert s[7] > 1e-3
    assert s[7] == s.max()


def test_pca_matches_projector_oracle():
    for seed, n, d, c in [(6, 25, 3, 1), (7, 40, 5, 2), (8, 30, 4, 3)]:
        X = _random_points(seed, n, d)
        got = fit_score(Dataset(features=X), DetectorParams(DetectorKind.PCA, components=c))
        np.testing.assert_allclose(got, _oracle_pca_residual(X, c), atol=1e-10)


def test_pca_validation():
    ds = Dataset(features=np.arange(10.0)[:, None])
    with pytest.raises(DataError, match=r"^need 1 <= components < d, got components=1, d=1$"):
        fit_score(ds, DetectorParams(DetectorKind.PCA))
    wide = Dataset(features=_random_points(9, 10, 3))
    with pytest.raises(DataError):
        fit_score(wide, DetectorParams(DetectorKind.PCA, components=3))


# settings hashed per detector by _detector_grid_digest; a k or components the data cannot take is skipped
_GRID_SETTINGS = {
    "hbos": [{"bins": b} for b in (1, 3, 10, 50)],
    "lof": [{"k": k} for k in (1, 5, 20)],
    "knn": [{"k": k} for k in (1, 5, 20)],
    "pca": [{"components": c} for c in (1, 3, 6)],
}


def _detector_grid_digest(detector: str, kind: str, n: int, d: int) -> str:
    """sha256 over the detector's score bytes for each of its _GRID_SETTINGS that fits (n, d)."""
    X = _random_points(2000 * n + d, n, d)
    if kind == "binary":
        X = (X > 0.5).astype(float)
    elif kind == "duplicate":
        X[n // 2 :] = X[: n - n // 2]
    digest = hashlib.sha256()
    for setting in _GRID_SETTINGS[detector]:
        if setting.get("k", 1) < n and setting.get("components", 1) < d:
            scores = fit_score(Dataset(features=X), DetectorParams(DetectorKind(detector), **setting))
            digest.update(scores.tobytes())
    return digest.hexdigest()


# _detector_grid_digest per (detector, input kind, n, d), captured before the detectors moved behind fit_score
_DETECTOR_GOLDEN = {
    ("hbos", "normal", 17, 2): "a4a29a2e0d2126608beda3963345e14b9a6e365b8338b02ee355462f52b6f53d",
    ("hbos", "normal", 17, 7): "1582b3e8ae80b962d85da30604a57b019b6fcb3999792371161eb6b01c8aab93",
    ("hbos", "normal", 300, 2): "108f4998f1d9936edcd42e775fe21369da4bb294c9be0b02249ed9d06ec1a76e",
    ("hbos", "normal", 300, 7): "ae7b568846d54f2a7a1f3e4e46c548c9132de137b0deb34e92ea99ae839be41a",
    ("hbos", "duplicate", 17, 2): "a628b09c31a18b25d721c044e3d5a0bbc4c1cfb00a5ef615abb53eeb65ca5b79",
    ("hbos", "duplicate", 17, 7): "093afe4697116b0578816f110dceca813595ff7c170bd5fed36cb4f218a38b60",
    ("hbos", "duplicate", 300, 2): "61aeea58dbf6a90d94df1874e652f282721ecae3e7af8ab3e65c8fc16641476a",
    ("hbos", "duplicate", 300, 7): "b49a75752e431b46923398ccd9b62ae5edf6892ba2224f78e4ab7f4e0569a1f7",
    ("hbos", "binary", 17, 2): "0be5fed855ca4db15408197c11427f6b9842d56773092b43e2986385be43611b",
    ("hbos", "binary", 17, 7): "1adc407001365b87c693335d8c03d76b4a22fe032a6e4fd2c99aabaffad58cd7",
    ("hbos", "binary", 300, 2): "8f3c7337957319f9e31d3a63505b19a6a56c39d61baff5c53884bc7edbb9da6f",
    ("hbos", "binary", 300, 7): "aa7cac13a4da27f53ca1e51ae42d190739d3b358abd73afdfe9ddb97533688bd",
    ("lof", "normal", 17, 2): "85a41f41d7c7187c42bd34d00c792c81e4f593fd4316c6f2c846b26d73cd36e1",
    ("lof", "normal", 17, 7): "a9ede998c03a33dc70b2aa7d41c3d13645f050e27345d325bc5ae823e166a8d9",
    ("lof", "normal", 300, 2): "ab2914f107d5ecf43fc28f746238f28bf9e7c029f0c2d8aabd38d5faf1b0ea9c",
    ("lof", "normal", 300, 7): "a25f8bfa5aca8599b8101465f72f5ba62f0562cfd069cb5a5d4c22f596bd3ad1",
    ("lof", "duplicate", 17, 2): "c9031ed503cb74ed344c4576bd2763cd032c8ddd29100723efb361e17c782903",
    ("lof", "duplicate", 17, 7): "3862cbfbbf7485519dafbe9ba2a01ba836f5cf89c1f3b12be27e004ea9839093",
    ("lof", "duplicate", 300, 2): "75d241523eab3029df56c705a28ffbdc20d6344735f24d4fb55c981138e5d6df",
    ("lof", "duplicate", 300, 7): "b13d98dbb112e56bcedba31bc7b66afa9846d9b95613f257345fea88deee38ad",
    ("lof", "binary", 17, 2): "a7172db2c6cc9ae83dd57fc4b885baba33e03b7a280cdca173f0a3930d3d613d",
    ("lof", "binary", 17, 7): "20f8450023545ceb385e626bc7e6a57731fd39efbc20a442bdb4bed47e001c8f",
    ("lof", "binary", 300, 2): "7106df47ff7bb3daa3d2a86dbb4102f7814fd5529ed5341439ce14279c566b56",
    ("lof", "binary", 300, 7): "095c701e72aa788b5947c375c111bee1a5e76b615290cce8571be10540c7c0a9",
    ("knn", "normal", 17, 2): "7f17c867068c452db9e0b4aee9752e2504f70132273f9162b2c7580d22b3d93d",
    ("knn", "normal", 17, 7): "11549702de8afe89f912645f3161992a85d308f0090bd7254a821a0b0517be0c",
    ("knn", "normal", 300, 2): "e2237d51c5b1fc23ff2c7406a94a3e5a2ef88f9111a17eeedcc8d60bc61abb11",
    ("knn", "normal", 300, 7): "7327baa46949335bd53e37af12e9e8beb3d92d9c492cb169b3fcdcc56eab27b9",
    ("knn", "duplicate", 17, 2): "14bc54655d34fc64c5dc156d6f4470039275d1958eb27304f906ebc627bffef8",
    ("knn", "duplicate", 17, 7): "d1a0a5f4446e7dee757397114ba6472ab3335ff1163984d1bba2118f56565618",
    ("knn", "duplicate", 300, 2): "d46fad7e98003bb429465796a4bc96b19e347fd402ae056344f4b3a9aef8efa4",
    ("knn", "duplicate", 300, 7): "08bf65a0138d7fa8d22a24460effde3f42e59ca23d9653dcfc531c916b41a874",
    ("knn", "binary", 17, 2): "43958d49da90e48c23cdf403fefa78b71a5e249f523844f24aacf55423395d99",
    ("knn", "binary", 17, 7): "6bdaf43a93428d7956a39dccde2020a09fc91dd4c3420a53663ab5a8f5ef66a9",
    ("knn", "binary", 300, 2): "e4331b4b5dff91084b34db4018c5905a016cdf9c0d74d02c0d5af88dabfc6bc6",
    ("knn", "binary", 300, 7): "9c5ee0a8bd01d38ee715099d3485ed181bb0011ec8c0405f2a50abf024382c63",
    ("pca", "normal", 17, 2): "c8c2b3525b806fe9172523aa88d30b8f56c71531c0c8e48a3b36bf530fdac7cc",
    ("pca", "normal", 17, 7): "75eb69e25a7a9d7a4489f56c8783a228aac1ab2f123dae2999f878a68acb8641",
    ("pca", "normal", 300, 2): "a0c896e96a6eb815ef36519d45870091ac7a5ccab219dd982c8e672d553e67de",
    ("pca", "normal", 300, 7): "c0f88f3d7d28b67d62549db664419ee260c108a132569b78ee92b3fefa3ae159",
    ("pca", "duplicate", 17, 2): "8dd29e9f9edd40f61d25174bbb0acb6b3b58c3017ec91cec2d806e6d3c209118",
    ("pca", "duplicate", 17, 7): "c7f1b2d382d0ba9bc44c8dcc8ba5dda69c68ee666593c8a3ea797c18854cad3c",
    ("pca", "duplicate", 300, 2): "5a6028b323a5a16f398fecc0b850e34d6af52e971e607b684f55a306699f5166",
    ("pca", "duplicate", 300, 7): "e8148c24b8b4b33bf25672fa50e4c3088f7630f72eb739a9ebbc262f0b6d689d",
    ("pca", "binary", 17, 2): "eb8be1c01d089e5bfbeed0469c9c9c532bfa9dba0e7d6ed8b1d62e36c2a9b260",
    ("pca", "binary", 17, 7): "902cc60f354547f17f2b18ef1389292b22e644b40ea859deb1991ba196ddfac6",
    ("pca", "binary", 300, 2): "d885a07ef857dce053f3733724db0307b71e9dabfc20b43178778a43a560b4ff",
    ("pca", "binary", 300, 7): "591266bbb200ef294402dfcad4ab092885c76a15d3c777f25dcf85969179701d",
}


@pytest.mark.filterwarnings("error::uadb.DegenerateDataWarning")  # every pca input here is full rank
@pytest.mark.parametrize("case", sorted(_DETECTOR_GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_detector_golden_grid(case):
    """hbos, lof, knn and pca scores stay bit for bit what they were, with no degenerate-data warning."""
    assert _detector_grid_digest(*case) == _DETECTOR_GOLDEN[case]


# ---------------------------------------------------------------------------
# dispatch


def test_fit_score_dispatch_defaults():
    """k = None and components = None resolve to the documented values; every other setting reaches the kernel."""
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=60, seed=5)
    explicit = {DetectorKind.LOF: {"k": 20}, DetectorKind.KNN: {"k": 5}, DetectorKind.PCA: {"components": 1}}
    for kind, setting in explicit.items():
        assert np.array_equal(fit_score(ds, DetectorParams(kind)), fit_score(ds, DetectorParams(kind, **setting))), kind
    ifo, hbos = DetectorKind.IFOREST, DetectorKind.HBOS
    for kind, setting in [(ifo, {"seed": 3}), (ifo, {"trees": 7}), (ifo, {"subsample": 9}), (hbos, {"bins": 7})]:
        assert not np.array_equal(fit_score(ds, DetectorParams(kind)), fit_score(ds, DetectorParams(kind, **setting)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_score_rejects_non_finite_scores(monkeypatch, bad):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=30, seed=5)
    minimums = detectors._KINDS[DetectorKind.HBOS][1]
    monkeypatch.setitem(detectors._KINDS, DetectorKind.HBOS, (lambda ds, params: np.full(ds.n, bad), minimums))
    with pytest.raises(DataError, match="scores contain non-finite values"):
        fit_score(ds, DetectorParams(kind=DetectorKind.HBOS))


@pytest.mark.parametrize(
    ("kind", "setting", "message"),
    [
        (DetectorKind.IFOREST, {"trees": 0}, "need trees >= 1, got 0"),
        (DetectorKind.IFOREST, {"subsample": 1}, "need subsample >= 2, got 1"),
        (DetectorKind.HBOS, {"bins": 0}, "need bins >= 1, got 0"),
        (DetectorKind.LOF, {"k": 0}, "need k >= 1, got 0"),
        (DetectorKind.KNN, {"k": -3}, "need k >= 1, got -3"),
        (DetectorKind.PCA, {"components": 0}, "need components >= 1, got 0"),
        ("lof", {}, "unknown detector kind: 'lof'"),
    ],
)
def test_detector_params_refuse_bad_settings_at_construction(kind, setting, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        DetectorParams(kind, **setting)


def test_every_kind_declares_a_kernel_and_minimums_of_its_settings():
    settings = {f.name for f in fields(DetectorParams)} - {"kind"}
    assert set(detectors._KINDS) == set(DetectorKind)
    for kind, (kernel, minimums) in detectors._KINDS.items():
        assert callable(kernel) and minimums and set(minimums) <= settings, kind


def test_detector_params_check_only_the_settings_a_kind_reads():
    for kind in DetectorKind:
        DetectorParams(kind, k=None, components=None)  # None resolves when fitted
    DetectorParams(DetectorKind.HBOS, trees=0, subsample=0, k=0, components=0)
    DetectorParams(DetectorKind.PCA, trees=0, bins=0, k=0)
    DetectorParams(DetectorKind.LOF, bins=0, components=0)
