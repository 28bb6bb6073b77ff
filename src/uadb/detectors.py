"""Five native unsupervised anomaly detectors plus score import/normalization.

Isolation forest, histogram-based outlier score, local outlier factor,
k-nearest-neighbor distance, and PCA reconstruction error. Each returns a
raw 1-d float64 score array (higher = more anomalous) of length n.
External detector scores can be imported from a text file so any
third-party model can act as a teacher.

All detectors are deterministic given (dataset, parameters, seed), use
Euclidean distance, and break distance ties by lowest row index.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .data import DataError, Dataset, read_text
from .rng import Stream, derive

# reachability floor for coincident points; keeps LOF finite on duplicates
LOF_DISTANCE_FLOOR = 1e-12
# squared differences held at once by the neighbor search
NEIGHBOR_BLOCK_ELEMENTS = 2**21
# tail of the error raised where squared feature magnitudes leave float64
OVERFLOW_HINT = "overflow float64; rescale the features (CLI: --scale)"


class DegenerateDataWarning(UserWarning):
    """All rows identical: scores carry no ranking information."""


class DetectorKind(enum.Enum):
    IFOREST = "iforest"
    HBOS = "hbos"
    LOF = "lof"
    KNN = "knn"
    PCA = "pca"


@dataclass(frozen=True)
class DetectorParams:
    """Detector choice plus its kind-specific settings.

    `k` and `components` default to None, resolved per kind at fit time
    (LOF k=20, KNN k=5, PCA components=max(1, floor(d/2))).
    """

    kind: DetectorKind
    trees: int = 100
    subsample: int = 256
    bins: int = 10
    k: int | None = None
    components: int | None = None
    seed: int = 0


def check_params(params: DetectorParams) -> None:
    """Raise DataError on settings the chosen detector refuses whatever the data."""
    if params.kind is DetectorKind.IFOREST and params.trees < 1:
        raise DataError(f"need trees >= 1, got {params.trees}")
    if params.kind is DetectorKind.IFOREST and params.subsample < 2:
        raise DataError(f"need subsample >= 2, got {params.subsample}")
    if params.kind is DetectorKind.HBOS and params.bins < 1:
        raise DataError(f"need bins >= 1, got {params.bins}")


def minmax_values(x: np.ndarray) -> np.ndarray:
    """Affine map to [0, 1]; a constant vector maps to all 0.5."""
    x = np.asarray(x, dtype=np.float64)
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


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


def fit_score_iforest(
    ds: Dataset, trees: int = 100, subsample: int = 256, seed: int = 0
) -> np.ndarray:
    """Isolation forest: score = 2^(-E[path length] / c(m)).

    Each tree is grown on a without-replacement subsample of min(subsample, n)
    rows with uniformly random feature/split choices, height-limited at
    ceil(log2(m)). c(m) is the average BST path-length normalizer, tabulated
    once per forest for every leaf size 0..m. Trees are not stored: all n
    rows are scored while each tree grows. Each tree's stream yields its
    permutation as one block, then one scalar draw for each node's feature
    and one for its split, depth first with the left subtree first.
    """
    check_params(DetectorParams(DetectorKind.IFOREST, trees=trees, subsample=subsample))
    X = ds.features
    n = ds.n
    if np.all(X == X[0]):
        warnings.warn("all rows identical: isolation scores are uninformative", DegenerateDataWarning)
    m = min(subsample, n)
    limit = math.ceil(math.log2(m))
    path_c = [_avg_path_length(size) for size in range(m + 1)]
    XT = np.ascontiguousarray(X.T)
    total = np.zeros(n)
    depths = np.empty(n)  # every row reaches one leaf, so each tree overwrites all of it
    for t in range(trees):
        stream = Stream(derive(seed, t))
        rows = stream.permutation(n)[:m]
        _iso_tree_depths(XT, X[rows], np.arange(n), 0, limit, stream, path_c, depths)
        total += depths
    expected = total / trees
    return np.power(2.0, -expected / path_c[m])


# ---------------------------------------------------------------------------
# histogram-based outlier score


def fit_score_hbos(ds: Dataset, bins: int = 10) -> np.ndarray:
    """Sum over features of -log(relative bin frequency) with equal-width bins.

    Bins span [min, max] per feature; empty-bin densities are floored at
    1/(2*n*bins) so scores stay bounded. Constant features contribute 0.
    """
    check_params(DetectorParams(DetectorKind.HBOS, bins=bins))
    X = ds.features
    n, d = X.shape
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


def fit_score_lof(ds: Dataset, k: int = 20) -> np.ndarray:
    """Classic LOF over exactly k neighbors (exact KD-tree search), reachability floored at 1e-12."""
    dist, neighbors = _neighbors(ds.features, k)
    k_dist = dist[:, k - 1]
    reach = np.maximum(k_dist[neighbors], dist)
    reach = np.maximum(reach, LOF_DISTANCE_FLOOR)
    lrd = 1.0 / reach.mean(axis=1)
    return lrd[neighbors].mean(axis=1) / lrd


# ---------------------------------------------------------------------------
# k-nearest-neighbor distance


def fit_score_knn(ds: Dataset, k: int = 5) -> np.ndarray:
    """Euclidean distance to the k-th nearest neighbor, self excluded (exact KD-tree search)."""
    return _neighbors(ds.features, k)[0][:, k - 1]


# ---------------------------------------------------------------------------
# PCA reconstruction error


def fit_score_pca(ds: Dataset, components: int | None = None) -> np.ndarray:
    """Squared reconstruction error after projecting onto top principal axes."""
    X = ds.features
    n, d = X.shape
    if d < 2:
        raise DataError("PCA detector needs d >= 2")
    if components is None:
        components = max(1, d // 2)
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
# plumbing


def import_scores(path: str | Path, n_expected: int) -> np.ndarray:
    """Read one score per line (single-column CSV with a header also accepted)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    lines = [ln.strip() for ln in read_text(path).splitlines()]
    lines = [ln for ln in lines if ln]
    values = []
    for i, line in enumerate(lines):
        try:
            v = float(line)
        except ValueError:
            if i == 0:
                continue  # header row
            raise DataError(f"{path}: line {i + 1}: non-numeric entry {line!r}") from None
        if not math.isfinite(v):
            raise DataError(f"{path}: line {i + 1}: non-finite entry {line!r}")
        values.append(v)
    if len(values) != n_expected:
        raise DataError(f"{path}: expected {n_expected} scores, found {len(values)}")
    return np.array(values, dtype=np.float64)


def save_scores(v: np.ndarray, path: str | Path) -> None:
    """Write one decimal score per line, row order preserved."""
    with open(path, "w", encoding="utf-8") as fh:
        for value in v:
            fh.write(f"{float(value)!r}\n")


def fit_score(ds: Dataset, params: DetectorParams) -> np.ndarray:
    """Dispatch to the named detector with per-kind default settings; scores must be finite."""
    kind = params.kind
    if kind is DetectorKind.IFOREST:
        scores = fit_score_iforest(ds, params.trees, params.subsample, params.seed)
    elif kind is DetectorKind.HBOS:
        scores = fit_score_hbos(ds, params.bins)
    elif kind is DetectorKind.LOF:
        scores = fit_score_lof(ds, params.k if params.k is not None else 20)
    elif kind is DetectorKind.KNN:
        scores = fit_score_knn(ds, params.k if params.k is not None else 5)
    elif kind is DetectorKind.PCA:
        scores = fit_score_pca(ds, params.components)
    else:
        raise DataError(f"unknown detector kind: {kind!r}")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    return scores
