"""Five native unsupervised anomaly detectors; scoring only, no file I/O.

Isolation forest, histogram-based outlier score, local outlier factor,
k-nearest-neighbor distance, and PCA reconstruction error, one call each:
fit_score(ds, DetectorParams(kind, ...)) gives raw float64 scores, higher = more anomalous.
Scores of any other model act as a teacher through uadb.data.import_scores.

All detectors are deterministic given (dataset, parameters, seed), use
Euclidean distance, and break distance ties by lowest row index.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import OVERFLOW_HINT, DataError, Dataset
from .rng import Stream, derive

# reachability floor for coincident points; keeps LOF finite on duplicates
LOF_DISTANCE_FLOOR = 1e-12
# squared differences held at once by the neighbor search
NEIGHBOR_BLOCK_ELEMENTS = 2**21


class DegenerateDataWarning(UserWarning):
    """All rows identical: scores carry no ranking information."""


class DetectorKind(enum.Enum):
    IFOREST = "iforest"
    HBOS = "hbos"
    LOF = "lof"
    KNN = "knn"
    PCA = "pca"


# the least value of each setting a kind reads, whatever the data; None (k, components) passes
_MINIMUMS = {
    DetectorKind.IFOREST: {"trees": 1, "subsample": 2},
    DetectorKind.HBOS: {"bins": 1},
    DetectorKind.LOF: {"k": 1},
    DetectorKind.KNN: {"k": 1},
    DetectorKind.PCA: {"components": 1},
}


@dataclass(frozen=True)
class DetectorParams:
    """Detector choice plus its kind-specific settings, checked at construction.

    Raises DataError for a kind that is not a DetectorKind and for trees < 1, subsample < 2,
    bins < 1, k < 1 or components < 1, each only for the kinds that read it. k = None means
    20 (lof) or 5 (knn), components = None max(1, d // 2); fit_score checks k < n, components < d.
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
        for name, least in _MINIMUMS[self.kind].items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise DataError(f"need {name} >= {least}, got {value}")


def _neighbors(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest other rows as (dist, idx), ordered by (distance, row index).

    A KD-tree proposes every row within (1 + 1e-9) times the k-th distance.
    Their distances are recomputed in one float64 form and sorted, so ties at
    the k-th boundary resolve exactly as in an exhaustive scan. Rows whose K
    results (K = k + 2 at first) all fall inside that radius are queried again
    with K doubled. Chunks of NEIGHBOR_BLOCK_ELEMENTS // (K * d) rows bound memory.
    """
    n, d = X.shape
    if not 1 <= k < n:
        raise DataError(f"need 1 <= k < n, got k={k}, n={n}")
    from scipy.spatial import cKDTree  # imported here: most commands never search neighbors

    tree = cKDTree(X)
    dist = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.intp)
    rows, K = np.arange(n), min(k + 2, n)
    while rows.size:
        block = max(1, NEIGHBOR_BLOCK_ELEMENTS // (K * d))
        unsettled = []
        for a in range(0, rows.size, block):
            r = rows[a : a + block]
            qd, qi = tree.query(X[r], k=K)
            radius = qd[:, k] * (1.0 + 1e-9)  # k-th distance to another row, slack for rounding
            if not np.all(np.isfinite(radius)):
                raise DataError(f"neighbor distances {OVERFLOW_HINT}")
            settled = (qd[:, -1] > radius) | (K == n)
            unsettled.append(r[~settled])
            r, qi = r[settled, None], qi[settled]
            other = (qi != r) & (qi < n)  # the tree returns index n for a missing neighbor
            with np.errstate(over="ignore"):  # the finiteness check below reports it
                diff = X[r] - X[np.minimum(qi, n - 1)]
                diff *= diff
            D = np.where(other, np.sqrt(diff.sum(axis=-1)), np.inf)
            near = np.lexsort((qi, D))[:, :k]
            idx[r[:, 0]] = np.take_along_axis(qi, near, axis=1)
            dist[r[:, 0]] = np.take_along_axis(D, near, axis=1)
        rows, K = np.concatenate(unsettled), min(2 * K, n)
    if not np.all(np.isfinite(dist)):  # self and missing slots sort as inf: they only show past an overflow
        raise DataError(f"neighbor distances {OVERFLOW_HINT}")
    return dist, idx


# ---------------------------------------------------------------------------
# isolation forest


def _avg_path_length(m: int) -> float:
    """Expected path length of an unsuccessful BST search over m points."""
    if m <= 1:
        return 0.0
    from scipy.special import digamma  # imported here: only the isolation forest needs it

    harmonic = float(digamma(m)) + np.euler_gamma  # H(m-1)
    return 2.0 * harmonic - 2.0 * (m - 1) / m


def _iso_tree_depths(
    XT: np.ndarray, sample: np.ndarray, rows: np.ndarray, depth: int, limit: int,
    stream: Stream, path_c: list[float], out: np.ndarray,
) -> None:
    """Grow one isolation tree on `sample` and write the path length of each scored row to out[rows].

    XT is the feature matrix transposed, one contiguous row per feature.
    Each split sends the subsample and the scored rows down together, and
    each leaf writes depth + path_c[leaf size]. The left subtree grows
    first, so the stream is drawn in build order and no tree is ever stored.
    """
    m = sample.shape[0]
    if m > 1 and depth < limit:
        lo = sample.min(axis=0)
        span = sample.max(axis=0) - lo
        (candidates,) = (span > 0.0).nonzero()
        if candidates.size:
            f = int(candidates[stream.index(candidates.size)])
            # Python floats: the same float64 ops as numpy scalars, without their overhead
            split = float(lo[f]) + stream.next_uniform() * float(span[f])
            mask = sample[:, f] < split
            if 0 < np.count_nonzero(mask) < m:
                left = XT[f].take(rows) < split
                _iso_tree_depths(XT, sample[mask], rows[left], depth + 1, limit, stream, path_c, out)
                _iso_tree_depths(XT, sample[~mask], rows[~left], depth + 1, limit, stream, path_c, out)
                return
    out[rows] = depth + path_c[m]


def _fit_iforest(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Isolation forest: score = 2^(-E[path length] / c(m)).

    Each tree is grown on a without-replacement subsample of min(subsample, n)
    rows with uniformly random feature/split choices, height-limited at
    ceil(log2(m)). c(m) is the average BST path-length normalizer, tabulated
    once per forest for every leaf size 0..m. Trees are not stored: all n
    rows are scored while each tree grows. Each tree's stream yields its
    permutation as one block, then one scalar draw for each node's feature
    and one for its split, depth first with the left subtree first.
    """
    X = ds.features
    n = ds.n
    if np.all(X == X[0]):
        warnings.warn("all rows identical: isolation scores are uninformative", DegenerateDataWarning)
    m = min(params.subsample, n)
    limit = math.ceil(math.log2(m))
    path_c = [_avg_path_length(size) for size in range(m + 1)]
    XT = np.ascontiguousarray(X.T)
    total = np.zeros(n)
    depths = np.empty(n)  # every row reaches one leaf, so each tree overwrites all of it
    for t in range(params.trees):
        stream = Stream(derive(params.seed, t))
        rows = stream.permutation(n)[:m]
        _iso_tree_depths(XT, X[rows], np.arange(n), 0, limit, stream, path_c, depths)
        total += depths
    expected = total / params.trees
    return np.power(2.0, -expected / path_c[m])


# ---------------------------------------------------------------------------
# histogram-based outlier score


def _fit_hbos(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Sum over features of -log(relative bin frequency) with equal-width bins.

    Bins span [min, max] per feature; empty-bin densities are floored at
    1/(2*n*bins) so scores stay bounded. Constant features contribute 0.
    """
    X = ds.features
    n, d = X.shape
    bins = params.bins
    floor = 1.0 / (2.0 * n * bins)
    scores = np.zeros(n)
    for f in range(d):
        col = X[:, f]
        lo = col.min()
        hi = col.max()
        if hi == lo:
            continue
        idx = np.floor((col - lo) * bins / (hi - lo)).astype(np.int64)
        idx = np.clip(idx, 0, bins - 1)
        density = np.bincount(idx, minlength=bins) / n
        density = np.maximum(density, floor)
        scores -= np.log(density[idx])
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
    """Squared reconstruction error off the top `components` principal axes (default max(1, d // 2))."""
    X = ds.features
    n, d = X.shape
    if d < 2:
        raise DataError("PCA detector needs d >= 2")
    components = max(1, d // 2) if params.components is None else params.components
    if not 1 <= components < d:
        raise DataError(f"need 1 <= components < d, got components={components}, d={d}")
    centered = X - X.mean(axis=0)
    with np.errstate(over="ignore"):  # the finiteness check below reports it
        cov = (centered.T @ centered) / (n - 1)
    if not np.all(np.isfinite(cov)):
        raise DataError(f"feature covariance {OVERFLOW_HINT}")
    _, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    top = vecs[:, d - components :]
    residual = centered - (centered @ top) @ top.T
    return (residual * residual).sum(axis=1)


# ---------------------------------------------------------------------------
# dispatch


_KERNELS = {
    DetectorKind.IFOREST: _fit_iforest,
    DetectorKind.HBOS: _fit_hbos,
    DetectorKind.LOF: _fit_lof,
    DetectorKind.KNN: _fit_knn,
    DetectorKind.PCA: _fit_pca,
}


def fit_score(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Raw scores of detector params.kind under params' settings; DataError unless all are finite."""
    scores = _KERNELS[params.kind](ds, params)
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    return scores
