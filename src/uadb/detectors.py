"""Five native unsupervised anomaly detectors; scoring only, no file I/O.

Isolation forest, histogram-based outlier score, local outlier factor,
k-nearest-neighbor distance, and PCA reconstruction error, one call each:
fit_score(ds, DetectorParams(kind, ...)) gives raw float64 scores, higher = more anomalous.
Scores of any other model act as a teacher through uadb.data.import_scores.

All detectors are deterministic given (dataset, parameters, seed), use
Euclidean distance, and break distance ties by lowest row index. Working
memory is bounded for any n: the isolation forest grows its trees in
lockstep chunks of FOREST_BLOCK_ELEMENTS words, and the neighbor search
queries rows in chunks of NEIGHBOR_BLOCK_ELEMENTS words of squared
differences and sort keys.
"""

from __future__ import annotations

import enum
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .data import OVERFLOW_HINT, DataError, Dataset, _at_least, halve_wide
from .rng import Stream, derive, indices, uniform_at

# reachability floor for coincident points; keeps LOF finite on duplicates
LOF_DISTANCE_FLOOR = 1e-12
# words of squared differences and sort keys held at once by the neighbor search
NEIGHBOR_BLOCK_ELEMENTS = 2**21
# words the isolation forest's growing trees, or its row-tree pairs, hold at once
FOREST_BLOCK_ELEMENTS = 2**17


class DegenerateDataWarning(UserWarning):
    """Scores carry no ranking information: all rows identical, or PCA keeps every direction the data spans."""


class DetectorKind(enum.Enum):
    IFOREST = "iforest"
    HBOS = "hbos"
    LOF = "lof"
    KNN = "knn"
    PCA = "pca"


@dataclass(frozen=True)
class DetectorParams:
    """Detector choice plus its kind-specific settings, checked at construction.

    Raises DataError for a kind that is not a DetectorKind and for trees < 1, subsample < 2,
    bins < 1 or past float64's range, k < 1 or components < 1, each only for the kinds that
    read it. k = None means 20 (lof) or 5 (knn), components = None max(1, d // 2); fit_score
    checks k < n, components < d.
    """

    kind: DetectorKind
    trees: int = 100
    subsample: int = 256
    bins: int = 10
    k: int | None = None
    components: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, DetectorKind):
            raise DataError(f"unknown detector kind: {self.kind!r}")
        _at_least(vars(self), _KINDS[self.kind][1])
        if self.kind is DetectorKind.HBOS and self.bins > sys.float_info.max:  # _fit_hbos counts bins in float64
            raise DataError(f"need bins <= {sys.float_info.max!r}, got a bin count past float64's range")


def _neighbors(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest other rows as (dist, idx), ordered by (distance, row index).

    A KD-tree, queried on every CPU the process may run on, proposes every
    row within (1 + 1e-9) times the k-th distance. Their distances are
    recomputed in one float64 form and sorted on one stable key, the complex
    number distance + 1j * row, so ties at the k-th boundary resolve exactly
    as in an exhaustive scan.
    Rows whose K results (K = k + 2 at first) all fall inside that radius are
    queried again with K doubled. Chunks of NEIGHBOR_BLOCK_ELEMENTS // (K * (d + 2))
    rows bound memory: d words of squared differences and a two-word key per candidate.
    """
    n, d = X.shape
    if not 1 <= k < n:
        raise DataError(f"need 1 <= k < n, got k={k}, n={n}")
    from scipy.spatial import cKDTree  # imported here: most commands never search neighbors

    tree = cKDTree(X)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else -1  # -1: every CPU
    dist = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.intp)
    rows, K = np.arange(n), min(k + 2, n)
    while rows.size:
        block = max(1, NEIGHBOR_BLOCK_ELEMENTS // (K * (d + 2)))
        unsettled = []
        for a in range(0, rows.size, block):
            r = rows[a : a + block]
            qd, qi = tree.query(X[r], k=K, workers=workers)  # each row's result is the same on any thread count
            radius = qd[:, k] * (1.0 + 1e-9)  # k-th distance to another row, slack for rounding
            if not np.all(np.isfinite(radius)):
                raise DataError(f"neighbor distances {OVERFLOW_HINT}")
            settled = (qd[:, -1] > radius) | (K == n)
            unsettled.append(r[~settled])
            r, qi = r[settled], qi[settled]
            del qd  # before the chunk's differences are gathered
            with np.errstate(over="ignore"):  # the finiteness check below reports it
                diff = X.take(np.minimum(qi, n - 1), axis=0)
                diff -= X[r, None]  # the sign of each difference drops out when it is squared
                diff *= diff
            key = np.empty(qi.shape, dtype=complex)
            np.sqrt(diff.sum(axis=-1), out=key.real)
            del diff
            key.real[(qi == r[:, None]) | (qi == n)] = np.inf  # self, and index n: a missing neighbor
            key.imag = qi
            near = np.argsort(key, axis=1, kind="stable")[:, :k]  # by distance, then row index
            idx[r] = np.take_along_axis(qi, near, axis=1)
            dist[r] = np.take_along_axis(key.real, near, axis=1)
        rows, K = np.concatenate(unsettled), min(2 * K, n)
    if not np.all(np.isfinite(dist)):  # self and missing slots sort as inf: they only show past an overflow
        raise DataError(f"neighbor distances {OVERFLOW_HINT}")
    return dist, idx


# ---------------------------------------------------------------------------
# isolation forest


# Cephes psi, which scipy.special.digamma evaluates: its Euler constant and its asymptotic series, highest power first
_PSI_EULER = 0.577215664901532860606512090082402431
_PSI_SERIES = (
    8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3, -4.16666666666666666667e-3,
    3.96825396825396825397e-3, -8.33333333333333333333e-3, 8.33333333333333333333e-2,
)


def _avg_path_lengths(m: int) -> np.ndarray:
    """c(0..m), m >= 1: the expected path length of an unsuccessful BST search over 0, 1, ..., m points.

    H(size - 1) is Cephes psi(size) + Euler's constant, in Cephes' own steps: a
    running sum of 1/i up to size 10, the asymptotic series above it. Its log
    is libm's (math.log; numpy's vector log can round differently), so every
    value has the bits of scipy.special.digamma(size) + np.euler_gamma.
    """
    sizes = np.arange(2.0, m + 1)
    small = min(sizes.size, 9)  # sizes 2..10
    psi = np.cumsum(1.0 / np.arange(1.0, small + 1)) - _PSI_EULER
    x = sizes[small:]
    z = 1.0 / (x * x)
    series = np.full(x.size, _PSI_SERIES[0])
    for a in _PSI_SERIES[1:]:
        series = series * z + a
    log = np.fromiter(map(math.log, x.tolist()), float, x.size)
    harmonic = np.concatenate([psi, log - 0.5 / x - z * series]) + np.euler_gamma  # H(size - 1)
    return np.concatenate([[0.0, 0.0], 2.0 * harmonic - 2.0 * (sizes - 1) / sizes])


def _segment_ranges(XT: np.ndarray, rows: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's min and max - min over each segment of rows (segments start at first), as (d, segments).

    The rows' values are gathered from XT a block of features at a time, at
    most FOREST_BLOCK_ELEMENTS values (and at least one feature) per block.
    """
    d = XT.shape[0]
    lo, span = np.empty((d, first.size)), np.empty((d, first.size))
    block = max(1, FOREST_BLOCK_ELEMENTS // rows.size)
    for a in range(0, d, block):
        values = XT[a : a + block].take(rows, axis=1)
        lo[a : a + block] = np.minimum.reduceat(values, first, axis=1)
        span[a : a + block] = np.maximum.reduceat(values, first, axis=1) - lo[a : a + block]
        del values  # before the next block is gathered
    return lo, span


def _grow_trees(
    XT: np.ndarray, seeds: list[int], m: int, limit: int, path_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grow one isolation tree per seed on the transposed features XT, all in lockstep, as flat node arrays.

    Each step takes the next pending node of every tree, depth first with the
    left subtree first, so each tree reads its stream at the same counters as
    when it grows alone: its permutation as one block, then one draw for the
    feature and one for the split of each node with a feature to split on.
    Every tree's subsample is one segment of `sample` (row numbers),
    partitioned in place, so each node's rows are contiguous and its ranges
    and left count are segment reductions. Node t is tree t's root; an inner
    node sends x < split to child and the rest to child + 1; a leaf is its
    own child, with split +inf. leaf holds depth + c(size) for every node.
    """
    n = XT.shape[1]
    flat = XT.ravel()
    trees = len(seeds)
    sample = np.empty(trees * m, dtype=np.intp)
    for t, seed in enumerate(seeds):  # one permutation of n alive at a time
        sample[t * m : (t + 1) * m] = Stream(seed).permutation(n)[:m]
    streams = np.array(seeds, dtype=np.uint64)
    drawn = np.full(trees, n)  # each stream's counter, its permutation's n draws done
    capacity = trees * (2 * m - 1)
    feature = np.zeros(capacity, dtype=np.intp)
    split = np.full(capacity, np.inf)
    child = np.arange(capacity)
    leaf = np.full(capacity, path_c[m])
    free = trees  # the next unused node number
    # each tree's pending nodes as (start, size, depth, node), the next one on top
    stack = np.zeros((trees, limit + 1, 4), dtype=np.intp)
    roots = np.arange(trees)
    stack[:, 0, 0], stack[:, 0, 1], stack[:, 0, 3] = roots * m, m, roots
    pending = np.ones(trees, dtype=np.intp)
    while (active := np.flatnonzero(pending)).size:
        pending[active] -= 1
        start, count, depth, node = stack[active, pending[active]].T
        first = np.cumsum(count) - count
        cells = np.arange(count.sum()) + np.repeat(start - first, count)
        rows = sample.take(cells)
        lo, span = _segment_ranges(XT, rows, first)
        ranks = np.cumsum(span > 0.0, axis=0)  # each node's candidate features, counted down the features
        u = uniform_at(streams[active, None], (drawn[active, None] + (1, 2)).astype(np.uint64))
        drawn[active] += 2 * (ranks[-1] > 0)
        f = (ranks <= indices(u[:, 0], ranks[-1])).sum(axis=0)
        at = f * active.size + np.arange(active.size)
        # with no candidate, f = 0 and the split is that feature's minimum: nothing goes left
        cut = lo.take(at) + u[:, 1] * span.take(at)
        left = flat.take(np.repeat(f * n, count) + rows) < np.repeat(cut, count)
        n_left = np.add.reduceat(left, first, dtype=np.intp)
        # each segment's rows that go left, then those that go right, each kept in order
        sample[cells] = rows[np.argsort(np.repeat(2 * np.arange(active.size), count) + ~left, kind="stable")]
        inner = (n_left > 0) & (n_left < count)
        active, start, count, depth, node, f, cut, n_left = (
            v[inner] for v in (active, start, count, depth, node, f, cut, n_left)
        )
        kids = free + 2 * np.arange(active.size)
        feature[node], split[node], child[node] = f, cut, kids
        sizes = np.array((n_left, count - n_left)).T
        depth += 1
        leaf[free : free + sizes.size] = (depth[:, None] + path_c[sizes]).ravel()
        free += sizes.size
        grows = (sizes > 1) & (depth < limit)[:, None]
        top = pending[active]  # push the right child, then the left on top of it
        stack[active, top] = np.array((start + n_left, sizes[:, 1], depth, kids + 1)).T
        top += grows[:, 1]
        stack[active, top] = np.array((start, n_left, depth, kids)).T
        pending[active] = top + grows[:, 0]
    return feature[:free], split[:free], child[:free], leaf[:free]


def _add_path_lengths(
    XT: np.ndarray, nodes: tuple[np.ndarray, ...], trees: int, limit: int, total: np.ndarray
) -> None:
    """Add each row's path length in each of _grow_trees' trees to total, in tree order.

    Rows descend all the trees together in blocks of
    FOREST_BLOCK_ELEMENTS // (5 * trees) rows (a row-tree pair holds about
    five words at once).
    """
    feature, split, child, leaf = nodes
    n = total.size
    flat = XT.ravel()
    offset = feature * n  # row r's feature f sits at flat[f * n + r]
    block = max(1, FOREST_BLOCK_ELEMENTS // (5 * trees))
    for a in range(0, n, block):
        rows = np.arange(a, min(a + block, n))
        node = np.repeat(np.arange(trees)[:, None], rows.size, axis=1)
        for _ in range(limit):  # leaves are absorbing, so every row ends in its leaf
            node = child[node] + (flat[offset[node] + rows] >= split[node])
        for depths in leaf[node]:
            total[a : a + rows.size] += depths


def _fit_iforest(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Isolation forest: score = 2^(-E[path length] / c(m)).

    Each tree is grown on a without-replacement subsample of min(subsample, n)
    rows with uniformly random feature/split choices, height-limited at
    ceil(log2(m)). c(m) is the average BST path-length normalizer, tabulated
    once per forest for every leaf size 0..m. Trees grow in chunks
    (_grow_trees) of as many trees as FOREST_BLOCK_ELEMENTS words hold, at
    least one; a chunk is dropped once every row has descended its trees
    (_add_path_lengths). Path lengths are summed in tree order. A column
    whose range overflows float64 is halved first (halve_wide), which keeps
    every split's side.
    """
    X = halve_wide(ds.features)
    n, d = X.shape
    if np.all(X == X[0]):
        warnings.warn("all rows identical: isolation scores are uninformative", DegenerateDataWarning)
    m = min(params.subsample, n)
    limit = math.ceil(math.log2(m))
    path_c = _avg_path_lengths(m)
    XT = np.ascontiguousarray(X.T)
    total = np.zeros(n)
    # a growing tree holds about 14m + 5d words: 2m - 1 nodes of four words, its
    # row numbers and one step's index arrays over them, and its node's ranges
    # and candidate counts per feature; _segment_ranges bounds the feature values
    chunk = max(1, FOREST_BLOCK_ELEMENTS // (14 * m + 5 * d))
    for first in range(0, params.trees, chunk):
        seeds = [derive(params.seed, t) for t in range(first, min(first + chunk, params.trees))]
        _add_path_lengths(XT, _grow_trees(XT, seeds, m, limit, path_c), len(seeds), limit, total)
    expected = total / params.trees
    return np.power(2.0, -expected / path_c[m])


# ---------------------------------------------------------------------------
# histogram-based outlier score


def _fit_hbos(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Sum over features of -log(relative bin frequency) with equal-width bins.

    Bins span [min, max] per feature; a row's density is its bin's count / n.
    Only occupied bins are counted, so memory does not grow with bins.
    Constant features contribute 0. A column whose range times bins
    overflows float64 is halved first (halve_wide), which keeps every row's bin.
    Bin numbers stay float64, exact up to 2**53 bins; DetectorParams refuses a
    bin count past float64's range.
    """
    bins = float(params.bins)
    X = halve_wide(ds.features, bins)
    n, d = X.shape
    scores = np.zeros(n)
    for f in range(d):
        col = X[:, f]
        lo = col.min()
        hi = col.max()
        if hi == lo:
            continue
        idx = np.minimum(np.floor((col - lo) * bins / (hi - lo)), bins - 1)
        _, occupied, counts = np.unique(idx, return_inverse=True, return_counts=True)
        scores -= np.log(counts[occupied] / n)
    return scores


# ---------------------------------------------------------------------------
# local outlier factor


def _fit_lof(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """LOF over exactly k neighbors (default 20; exact KD-tree search), reachability floored at 1e-12."""
    k = 20 if params.k is None else params.k
    dist, neighbors = _neighbors(ds.features, k)
    k_dist = dist[:, k - 1]
    reach = np.maximum(k_dist[neighbors], dist)
    reach = np.maximum(reach, LOF_DISTANCE_FLOOR)
    lrd = 1.0 / reach.mean(axis=1)
    return lrd[neighbors].mean(axis=1) / lrd


# ---------------------------------------------------------------------------
# k-nearest-neighbor distance


def _fit_knn(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Euclidean distance to the k-th nearest neighbor (default 5), self excluded (exact KD-tree search)."""
    k = 5 if params.k is None else params.k
    return _neighbors(ds.features, k)[0][:, k - 1]


# ---------------------------------------------------------------------------
# PCA reconstruction error


def _fit_pca(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Squared reconstruction error off the top `components` principal axes (default max(1, d // 2)).

    The centred data's numerical rank counts the covariance eigenvalues above
    lambda_max * d * eps, the conditioner's null rule. When components
    reaches it, the residual is rounding noise; a DegenerateDataWarning says
    so and the scores are returned as they are.
    """
    X = ds.features
    n, d = X.shape
    components = max(1, d // 2) if params.components is None else params.components
    if not 1 <= components < d:
        raise DataError(f"need 1 <= components < d, got components={components}, d={d}")
    centered = X - X.mean(axis=0)
    with np.errstate(over="ignore"):  # the finiteness check below reports it
        cov = (centered.T @ centered) / (n - 1)
    if not np.all(np.isfinite(cov)):
        raise DataError(f"feature covariance {OVERFLOW_HINT}")
    vals, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    rank = np.count_nonzero(vals > vals[-1] * d * np.finfo(np.float64).eps)
    if components >= rank:
        warnings.warn(f"components={components} reaches the data's rank {rank}: PCA residuals are rounding noise",
                      DegenerateDataWarning)
    top = vecs[:, d - components :]
    residual = centered - (centered @ top) @ top.T
    return (residual * residual).sum(axis=1)


# ---------------------------------------------------------------------------
# dispatch


# each kind's kernel, and the least value of each setting it reads whatever the data; None (k, components) passes
_KINDS = {
    DetectorKind.IFOREST: (_fit_iforest, {"trees": 1, "subsample": 2}),
    DetectorKind.HBOS: (_fit_hbos, {"bins": 1}),
    DetectorKind.LOF: (_fit_lof, {"k": 1}),
    DetectorKind.KNN: (_fit_knn, {"k": 1}),
    DetectorKind.PCA: (_fit_pca, {"components": 1}),
}


def fit_score(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Raw scores of detector params.kind under params' settings; DataError unless all are finite."""
    scores = _KINDS[params.kind][0](ds, params)
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    return scores
