"""Tabular datasets: CSV ingestion, feature scaling, synthetic generators.

A dataset is a finite numeric feature matrix plus optional 0/1 ground-truth
labels. Labels are never shown to detectors or the booster; they exist only
so evaluation metrics can be computed afterwards.

Four two-dimensional synthetic generators cover the standard anomaly
regimes: a dense anomaly cluster far from the inliers, anomalies scattered
uniformly over a box, anomalies overlapping the inliers but locally too
spread out, and anomalies that break the inter-feature dependency the
inliers follow.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .rng import Stream, derive


class DataError(ValueError):
    """Raised when a file or argument violates a dataset precondition."""


class SyntheticKind(enum.Enum):
    CLUSTERED = "clustered"
    GLOBAL = "global"
    LOCAL = "local"
    DEPENDENCY = "dependency"


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d, float64) with optional binary labels.

    Invariants: n >= 2, d >= 1, all features finite; labels, when present,
    have length n with every entry in {0, 1}.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        if X.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {X.shape}")
        n, d = X.shape
        if n < 2 or d < 1:
            raise DataError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values")
        object.__setattr__(self, "features", X)
        if self.labels is not None:
            y = np.asarray(self.labels)
            if y.shape != (n,):
                raise DataError(f"labels must have shape ({n},), got {y.shape}")
            if not np.isin(y, (0, 1)).all():
                raise DataError("labels must be 0 or 1")
            object.__setattr__(self, "labels", y.astype(np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_anomalies(self) -> int:
        if self.labels is None:
            raise DataError("dataset has no labels")
        return int(self.labels.sum())


def load_csv(path: str | Path, label_column: str | None = None) -> Dataset:
    """Load a dataset from a headered, comma-separated UTF-8 file.

    All non-label cells must parse as finite decimal reals; the label
    column, when named, must contain only 0 and 1. Non-finite cells are
    rejected rather than imputed.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"empty table: {path}") from None
    header = [h.strip() for h in header]
    rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"empty table: {path} has a header but no data rows")

    if label_column is not None:
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
    else:
        label_idx = -1

    features = []
    labels = []
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{r}: expected {len(header)} cells, got {len(row)}")
        feat_row = []
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"{path}:{r}: non-numeric cell {cell.strip()!r} in column {header[c]!r}")
            if c == label_idx:
                if value not in (0.0, 1.0):
                    raise DataError(f"{path}:{r}: label value {cell.strip()!r} outside {{0, 1}}")
                labels.append(int(value))
            else:
                feat_row.append(value)
        features.append(feat_row)

    return Dataset(
        features=np.array(features, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64) if label_column is not None else None,
        name=path.stem,
    )


def read_text(path: str | Path) -> str:
    """A whole UTF-8 text file; other bytes raise a DataError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV (features x1..xd, plus a label column if present)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"x{j + 1}" for j in range(ds.d)]
        if ds.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.features[i]]
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)


def scale_features(ds: Dataset) -> Dataset:
    """Min-max scale each feature column to [0, 1] independently.

    Constant columns map to all 0.5. Rank order within a column is
    preserved, and the map is idempotent.
    """
    X = ds.features
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    constant = span == 0.0
    span_safe = np.where(constant, 1.0, span)
    scaled = (X - lo) / span_safe
    scaled[:, constant] = 0.5
    return replace(ds, features=scaled)


def _anomaly_count(n: int, anomaly_rate: float) -> int:
    # round half up so the count is a plain function of n * rate
    return int(math.floor(n * anomaly_rate + 0.5))


def generate_synthetic(
    kind: SyntheticKind,
    n: int = 300,
    anomaly_rate: float = 0.15,
    seed: int = 0,
) -> Dataset:
    """Generate one of the four labeled 2-d synthetic anomaly datasets.

    Exactly round(n * anomaly_rate) rows are anomalies (label 1). Inliers
    are standard normal around the origin except for the dependency kind,
    where they sit on the line x2 = x1 + eps with eps ~ Normal(0, 0.1 std).
    Output is bitwise reproducible for fixed (kind, n, anomaly_rate, seed).
    """
    if n < 20:
        raise DataError(f"need n >= 20, got {n}")
    if not 0.0 < anomaly_rate < 0.5:
        raise DataError(f"need 0 < anomaly_rate < 0.5, got {anomaly_rate}")
    n_anom = _anomaly_count(n, anomaly_rate)
    n_in = n - n_anom
    if n_anom < 1:
        raise DataError(f"n={n} with anomaly_rate={anomaly_rate} yields zero anomalies")

    # distinct stream per kind so the four datasets never share draws
    stream = Stream(derive(seed, list(SyntheticKind).index(kind)))
    if kind is SyntheticKind.DEPENDENCY:
        x1 = stream.normal(n_in)
        inliers = np.column_stack([x1, x1 + 0.1 * stream.normal(n_in)])
        anomalies = np.column_stack([stream.normal(n_anom), stream.normal(n_anom)])
    else:
        inliers = stream.normal(2 * n_in).reshape(n_in, 2)
        if kind is SyntheticKind.CLUSTERED:
            anomalies = stream.normal(2 * n_anom).reshape(n_anom, 2) + 6.0
        elif kind is SyntheticKind.GLOBAL:
            anomalies = stream.uniform(2 * n_anom).reshape(n_anom, 2) * 10.0 - 5.0
        else:  # LOCAL: same center, 4x the covariance
            anomalies = stream.normal(2 * n_anom).reshape(n_anom, 2) * 2.0

    X = np.vstack([inliers, anomalies])
    y = np.concatenate([np.zeros(n_in, dtype=np.int64), np.ones(n_anom, dtype=np.int64)])
    order = stream.permutation(n)
    return Dataset(
        features=X[order],
        labels=y[order],
        name=f"synthetic-{kind.value}",
    )
