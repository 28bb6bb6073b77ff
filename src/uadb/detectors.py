"""Five native unsupervised anomaly detectors plus score import/normalization.

Isolation forest, histogram-based outlier score, local outlier factor,
k-nearest-neighbor distance, and PCA reconstruction error. Each returns a
raw score vector (higher = more anomalous) of length n. External detector
scores can be imported from a text file so any third-party model can act
as a teacher.

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

from .data import DataError, Dataset
from .rng import Stream, derive

# reachability floor for coincident points; keeps LOF finite on duplicates
LOF_DISTANCE_FLOOR = 1e-12
# squared differences held at once by the neighbor search
NEIGHBOR_BLOCK_ELEMENTS = 2**21
# tail of the error raised where squared feature magnitudes leave float64
OVERFLOW_HINT = "overflow float64; rescale the features (CLI: --scale)"


class DegenerateDataWarning(UserWarning):
    """All rows identical: scores carry no ranking information."""


@dataclass(frozen=True)
class ScoreVector:
    """Vector of n real anomaly scores; `normalized` asserts values in [0, 1]."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DataError(f"scores must be 1-d, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("scores contain non-finite values")
        if self.normalized and v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise DataError("normalized scores must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


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


def minmax_values(x: np.ndarray) -> np.ndarray:
    """Affine map to [0, 1]; a constant vector maps to all 0.5."""
    x = np.asarray(x, dtype=np.float64)
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def minmax_scale(v: ScoreVector) -> ScoreVector:
    return ScoreVector(minmax_values(v.values), normalized=True)


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
    X: np.ndarray, sample: np.ndarray, rows: np.ndarray, depth: int, limit: int, stream: Stream, out: np.ndarray
) -> None:
    """Grow one isolation tree on `sample` and add the path length of each of X[rows] to out.

    Each split sends the subsample and the scored rows down together, and
    each leaf adds depth + c(leaf size). The left subtree grows first, so
    the stream is drawn in build order and no tree is ever stored.
    """
    m = sample.shape[0]
    if m > 1 and depth < limit:
        candidates = np.flatnonzero(sample.max(axis=0) - sample.min(axis=0) > 0.0)
        if candidates.size:
            f = int(candidates[stream.index(candidates.size)])
            lo = sample[:, f].min()
            split = lo + float(stream.uniform(1)[0]) * (sample[:, f].max() - lo)
            mask = sample[:, f] < split
            if mask.any() and not mask.all():
                left = X[rows, f] < split
                _iso_tree_depths(X, sample[mask], rows[left], depth + 1, limit, stream, out)
                _iso_tree_depths(X, sample[~mask], rows[~left], depth + 1, limit, stream, out)
                return
    out[rows] += depth + _avg_path_length(m)


def fit_score_iforest(
    ds: Dataset, trees: int = 100, subsample: int = 256, seed: int = 0
) -> ScoreVector:
    """Isolation forest: score = 2^(-E[path length] / c(m)).

    Each tree is grown on a without-replacement subsample of min(subsample, n)
    rows with uniformly random feature/split choices, height-limited at
    ceil(log2(m)). c(m) is the average BST path-length normalizer. Trees are
    not stored: all n rows are scored while each tree grows.
    """
    if trees < 1:
        raise DataError(f"need trees >= 1, got {trees}")
    if subsample < 2:
        raise DataError(f"need subsample >= 2, got {subsample}")
    X = ds.features
    n = ds.n
    if np.all(X == X[0]):
        warnings.warn("all rows identical: isolation scores are uninformative", DegenerateDataWarning)
    m = min(subsample, n)
    limit = math.ceil(math.log2(m))
    total = np.zeros(n)
    for t in range(trees):
        stream = Stream(derive(seed, t))
        rows = stream.permutation(n)[:m]
        _iso_tree_depths(X, X[rows], np.arange(n), 0, limit, stream, total)
    expected = total / trees
    return ScoreVector(np.power(2.0, -expected / _avg_path_length(m)))


# ---------------------------------------------------------------------------
# histogram-based outlier score


def fit_score_hbos(ds: Dataset, bins: int = 10) -> ScoreVector:
    """Sum over features of -log(relative bin frequency) with equal-width bins.

    Bins span [min, max] per feature; empty-bin densities are floored at
    1/(2*n*bins) so scores stay bounded. Constant features contribute 0.
    """
    if bins < 1:
        raise DataError(f"need bins >= 1, got {bins}")
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
    return ScoreVector(scores)


# ---------------------------------------------------------------------------
# local outlier factor


def fit_score_lof(ds: Dataset, k: int = 20) -> ScoreVector:
    """Classic LOF over exactly k neighbors (exact KD-tree search), reachability floored at 1e-12."""
    dist, neighbors = _neighbors(ds.features, k)
    k_dist = dist[:, k - 1]
    reach = np.maximum(k_dist[neighbors], dist)
    reach = np.maximum(reach, LOF_DISTANCE_FLOOR)
    lrd = 1.0 / reach.mean(axis=1)
    return ScoreVector(lrd[neighbors].mean(axis=1) / lrd)


# ---------------------------------------------------------------------------
# k-nearest-neighbor distance


def fit_score_knn(ds: Dataset, k: int = 5) -> ScoreVector:
    """Euclidean distance to the k-th nearest neighbor, self excluded (exact KD-tree search)."""
    return ScoreVector(_neighbors(ds.features, k)[0][:, k - 1])


# ---------------------------------------------------------------------------
# PCA reconstruction error


def fit_score_pca(ds: Dataset, components: int | None = None) -> ScoreVector:
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
    return ScoreVector((residual * residual).sum(axis=1))


# ---------------------------------------------------------------------------
# plumbing


def import_scores(path: str | Path, n_expected: int) -> ScoreVector:
    """Read one score per line (single-column CSV with a header also accepted)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
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
    return ScoreVector(np.array(values, dtype=np.float64))


def save_scores(v: ScoreVector, path: str | Path) -> None:
    """Write one decimal score per line, row order preserved."""
    with open(path, "w", encoding="utf-8") as fh:
        for value in v.values:
            fh.write(f"{float(value)!r}\n")


def fit_score(ds: Dataset, params: DetectorParams) -> ScoreVector:
    """Dispatch to the named detector with per-kind default settings."""
    kind = params.kind
    if kind is DetectorKind.IFOREST:
        return fit_score_iforest(ds, params.trees, params.subsample, params.seed)
    if kind is DetectorKind.HBOS:
        return fit_score_hbos(ds, params.bins)
    if kind is DetectorKind.LOF:
        return fit_score_lof(ds, params.k if params.k is not None else 20)
    if kind is DetectorKind.KNN:
        return fit_score_knn(ds, params.k if params.k is not None else 5)
    if kind is DetectorKind.PCA:
        return fit_score_pca(ds, params.components)
    raise DataError(f"unknown detector kind: {kind!r}")
