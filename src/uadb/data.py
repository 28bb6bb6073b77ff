"""Tabular datasets and their files, feature scaling, synthetic generators.

A dataset is a finite numeric feature matrix plus optional 0/1 ground-truth
labels. Labels are never shown to detectors or the booster; they exist only
so evaluation metrics can be computed afterwards.

Four two-dimensional synthetic generators cover the standard anomaly
regimes: a dense anomaly cluster far from the inliers, anomalies scattered
uniformly over a box, anomalies overlapping the inliers but locally too
spread out, and anomalies that break the inter-feature dependency the
inliers follow.

This is the only module that knows a file format: read_text is the one
reader and write_csv the one CSV writer, behind dataset CSVs (load_csv,
save_csv), score files of one score per line (import_scores, save_scores)
and the CLI's history and grid CSVs.

It also holds the argument checks every module shares, each raising a
DataError that names the argument: _matrix (feature matrices), _vector
(1-d arrays), _binary_labels (0/1 labels) and _at_least (setting minimums);
_unit_targets (soft targets in [0, 1]) raises a plain ValueError. The input
conditioner and PCA share _principal_axes, the one null-direction rule.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .rng import Stream, derive


class DataError(ValueError):
    """Raised when a file or argument violates a dataset precondition."""


# tail of the error raised where squared feature magnitudes leave float64
OVERFLOW_HINT = "overflow float64; rescale the features (CLI: --scale)"


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
        X = _matrix(self.features, None)
        n, d = X.shape
        _at_least({"n": n, "d": d}, {"n": 2, "d": 1})
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values")
        object.__setattr__(self, "features", X)
        if self.labels is not None:
            object.__setattr__(self, "labels", _binary_labels(self.labels, n))

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


def _matrix(X, d: int | None) -> np.ndarray:
    """X as a float64 (n, d) array, of any width d when d is None."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or d not in (None, X.shape[1]):
        raise DataError(f"expected shape (n, {'d' if d is None else d}), got {X.shape}")
    return X


def _vector(x, n: int | None, what: str) -> np.ndarray:
    """Argument `what` as a float64 (n,) array, of any length when n is None."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or n not in (None, x.size):
        raise DataError(f"{what} must have shape ({'n' if n is None else n},), got {x.shape}")
    return x


def _unit_targets(y, n: int | None, what: str) -> np.ndarray:
    """Argument `what` as a float64 (n,) array (_vector) with every entry in [0, 1] (NaN fails)."""
    y = _vector(y, n, what)
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValueError(f"{what} must lie in [0, 1]")
    return y


def _at_least(values, minimums) -> None:
    """DataError naming the first setting in minimums whose entry in values is below its least; None passes."""
    for name, least in minimums.items():
        if values[name] is not None and values[name] < least:
            raise DataError(f"need {name} >= {least}, got {values[name]}")


def _binary_labels(labels, n: int) -> np.ndarray:
    """Labels as an int64 (n,) array; DataError unless each is 0 or 1."""
    y = np.asarray(labels)
    _vector(np.broadcast_to(0.0, y.shape), n, "labels")  # the shape rule alone: float64 would read "1" as 1
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    return y.astype(np.int64)


def _number(text: str) -> float | None:
    """float(text) for ASCII text without "_", else None; None too where float() refuses it."""
    try:
        return float(text) if text.isascii() and "_" not in text else None  # float() reads 1_0 and non-ASCII digits
    except ValueError:
        return None


_LINE = re.compile(r"[^\n]*\n|[^\n]+")  # a line and its \n, as csv reads lines from io.StringIO(text)


def load_csv(path: str | Path, label_column: str | None = None) -> Dataset:
    """Load a dataset from a headered, comma-separated UTF-8 file.

    The header is read with csv, the body in one np.loadtxt call. A cell is
    a real that both np.loadtxt and float() read: ASCII sign, digits, point
    and exponent (no digit separators, hex, "#" or non-ASCII digits),
    optionally quoted with '"' and surrounded by spaces or tabs. Every cell
    must be finite, and the label column, when named, must contain only 0
    and 1; non-finite cells are rejected rather than imputed. Blank lines
    are skipped. When np.loadtxt or Dataset refuses the table, a
    cell-by-cell scan names the file line of the first bad record or cell.
    """
    path = Path(path)
    text = read_text(path)
    lines = _LINE.finditer(text)
    try:
        header = [h.strip() for h in next(csv.reader(m.group() for m in lines))]
    except StopIteration:
        raise DataError(f"empty table: {path}") from None
    start = next((m.start() for m in lines if m.group() != "\n"), None)  # the first data line
    if start is None:
        raise DataError(f"empty table: {path} has a header but no data rows")

    if label_column is not None and label_column not in header:
        raise DataError(f"label column {label_column!r} not in header {header}")
    label_idx = None if label_column is None else header.index(label_column)

    table = _parse_body(text, start)
    try:
        if table is None or table.shape[1] != len(header):
            raise DataError(f"{path}: not a table of finite numbers")
        if label_idx is None:
            return Dataset(features=table, name=path.stem)
        return Dataset(features=np.delete(table, label_idx, axis=1), labels=table[:, label_idx], name=path.stem)
    except DataError as e:
        raise _first_bad_cell(path, header, label_idx, text) or e from None


def _parse_body(text: str, start: int) -> np.ndarray | None:
    """The lines of text from offset start as one float64 table, or None if np.loadtxt refuses them.

    None also where a line holds a character that np.loadtxt strips from a
    cell as whitespace and float() does not: \x1c-\x1f and non-ASCII spaces.
    """
    if any(text.find(c, start) >= 0 for c in "\x1c\x1d\x1e\x1f"):
        return None
    body = io.BytesIO(text.encode())
    body.seek(len(text[:start].encode()))  # the header may be non-ASCII, the body may not
    try:
        return np.loadtxt(
            io.TextIOWrapper(body, encoding="ascii"),
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=2,
            dtype=np.float64,
        )
    except ValueError:  # a UnicodeDecodeError is one
        return None


def _first_bad_cell(path: Path, header: list[str], label_idx: int | None, text: str) -> DataError | None:
    """The error naming the file line of the first record after the header that breaks load_csv's rules, or None."""
    records = csv.reader(m.group() for m in _LINE.finditer(text))
    next(records)  # the header
    for row in records:
        line = records.line_num - sum(cell.count("\n") for cell in row)  # a record breaks lines only in quotes
        if row and len(row) != len(header):
            return DataError(f"{path}:{line}: expected {len(header)} cells, got {len(row)}")
        for c, cell in enumerate(row):
            value = _number(cell)
            if value is None or not math.isfinite(value):
                return DataError(f"{path}:{line}: non-numeric cell {cell.strip()!r} in column {header[c]!r}")
            if c == label_idx and value not in (0.0, 1.0):
                return DataError(f"{path}:{line}: label value {cell.strip()!r} outside {{0, 1}}")
    return None


def read_text(path: str | Path) -> str:
    r"""A whole UTF-8 text file less one leading byte-order mark; DataError if missing or not UTF-8.

    Each line end (\r\n, \r or \n) comes back as \n, so line k of the text is line k of the file.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write a header and rows of Python numbers (ndarray.tolist()), each cell its repr, CRLF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV (features x1..xd, plus a label column if present)."""
    header, rows = [f"x{j + 1}" for j in range(ds.d)], ds.features.tolist()
    if ds.labels is not None:
        header.append("label")
        rows = [row + [label] for row, label in zip(rows, ds.labels.tolist())]
    write_csv(path, header, rows)


def import_scores(path: str | Path, n_expected: int) -> np.ndarray:
    """Read one score per line (single-column CSV with a header also accepted); errors name the file line."""
    path = Path(path)
    values, header = [], ""
    for i, line in enumerate(map(str.strip, read_text(path).split("\n")), start=1):
        if not line:
            continue
        v = _number(line)
        if v is None:
            if not values and not header:  # the first entry
                header = f" (line {i} {line!r} was read as a header)"
                continue
            raise DataError(f"{path}: line {i}: non-numeric entry {line!r}")
        if not math.isfinite(v):
            raise DataError(f"{path}: line {i}: non-finite entry {line!r}")
        values.append(v)
    if len(values) != n_expected:
        short = header if len(values) < n_expected else ""
        raise DataError(f"{path}: expected {n_expected} scores, found {len(values)}{short}")
    return np.array(values, dtype=np.float64)


def save_scores(v: np.ndarray, path: str | Path) -> None:
    """Write one decimal score per line, row order preserved."""
    values = np.asarray(v, dtype=np.float64).tolist()  # float() below refuses the rows of a matrix
    Path(path).write_text("".join(f"{float(value)!r}\n" for value in values), encoding="utf-8")


def halve_wide(x: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """x, with each column (or the vector) whose (max - min) * factor overflows float64 halved until it fits.

    Halving is exact for normal numbers, so a halved column keeps its ranks,
    bins and split positions, and every other column keeps its bits.
    """
    lo, hi = x.min(axis=0), x.max(axis=0)
    finite = np.isfinite(lo) & np.isfinite(hi)  # callers report non-finite values themselves
    scale = np.ones_like(lo)
    with np.errstate(over="ignore"):  # overflow is what the loop tests for
        while (wide := finite & ~np.isfinite((hi * scale - lo * scale) * factor)).any():
            scale = np.where(wide, scale * 0.5, scale)
    return x if (scale == 1.0).all() else x * scale


def _principal_axes(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A covariance's eigenvectors (eigenvalues ascending) and its null directions; DataError if it overflowed."""
    if not np.all(np.isfinite(cov)):
        raise DataError(f"feature covariance {OVERFLOW_HINT}")
    vals, vecs = np.linalg.eigh(cov)
    return vecs, vals <= vals[-1] * len(vals) * np.finfo(np.float64).eps


def minmax_values(x: np.ndarray) -> np.ndarray:
    """Affine map of a vector, or of each matrix column, onto [0, 1]; a constant one maps to all 0.5.

    Where max - min overflows float64, values are halved first (halve_wide).
    """
    x = halve_wide(np.asarray(x, dtype=np.float64))
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    constant = span == 0.0
    return np.where(constant, 0.5, (x - lo) / np.where(constant, 1.0, span))


def scale_features(ds: Dataset) -> Dataset:
    """Min-max scale each feature column to [0, 1] independently (minmax_values).

    Constant columns map to all 0.5. Rank order within a column is
    preserved, and the map is idempotent.
    """
    return replace(ds, features=minmax_values(ds.features))


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
    _at_least({"n": n}, {"n": 20})
    if n > np.iinfo(np.intp).max:  # past what numpy can index; n * anomaly_rate stays a finite float64
        raise DataError(f"need n <= {np.iinfo(np.intp).max}, got a row count past a numpy index")
    if not 0.0 < anomaly_rate < 0.5:
        raise DataError(f"need 0 < anomaly_rate < 0.5, got {anomaly_rate}")
    n_anom = math.floor(n * anomaly_rate + 0.5)  # round half up so the count is a plain function of n * rate
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
