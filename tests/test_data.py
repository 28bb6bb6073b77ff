"""Dataset and score files, scaling, and the four synthetic generators."""

import csv
import hashlib
import io
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uadb import (
    DataError,
    Dataset,
    SyntheticKind,
    generate_synthetic,
    import_scores,
    load_csv,
    minmax_values,
    save_csv,
    save_scores,
    scale_features,
)
from uadb.data import read_text
from uadb.rng import Stream

# ---------------------------------------------------------------------------
# Dataset validation


def test_dataset_shape_and_label_coercion():
    ds = Dataset(features=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], labels=[0, 0, 1])
    assert ds.n == 3 and ds.d == 2
    assert ds.labels.dtype == np.int64
    assert ds.n_anomalies == 1


def test_dataset_rejects_bad_inputs():
    with pytest.raises(DataError):
        Dataset(features=[[1.0, float("nan")], [2.0, 3.0]])
    with pytest.raises(DataError):
        Dataset(features=[[1.0, 2.0]])  # n < 2
    with pytest.raises(DataError):
        Dataset(features=[[1.0], [2.0]], labels=[0, 2])
    with pytest.raises(DataError):
        Dataset(features=[[1.0], [2.0]], labels=[0, 1, 1])
    with pytest.raises(DataError):
        Dataset(features=[[1.0], [2.0]]).n_anomalies


# ---------------------------------------------------------------------------
# CSV round trip


def _write(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_with_label_column(tmp_path):
    path = _write(tmp_path, "a,b,label\n1.0,2.0,0\n3.0,4.0,0\n5.0,6.0,1\n")
    ds = load_csv(path, label_column="label")
    assert ds.n == 3 and ds.d == 2
    assert ds.labels.tolist() == [0, 0, 1]


def test_load_csv_label_column_omitted_treats_label_as_feature(tmp_path):
    path = _write(tmp_path, "a,b,label\n1.0,2.0,0\n3.0,4.0,0\n5.0,6.0,1\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.d == 3
    assert ds.labels is None


@pytest.mark.parametrize("cell", ["NaN", "1_0", "\u0663"])  # a digit separator; Arabic-Indic three
def test_load_csv_rejects_non_numeric_cell(tmp_path, cell):
    path = _write(tmp_path, f"a,b\n1.0,{cell}\n2.0,3.0\n")
    with pytest.raises(DataError, match=f"non-numeric cell '{cell}' in column 'b'"):
        load_csv(path)


def test_load_csv_rejects_bad_label_and_missing_file(tmp_path):
    path = _write(tmp_path, "a,label\n1.0,2\n3.0,0\n")
    with pytest.raises(DataError, match="outside"):
        load_csv(path, label_column="label")
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "absent.csv")
    empty = _write(tmp_path, "")
    with pytest.raises(DataError, match="empty table"):
        load_csv(empty)


def test_load_csv_header_with_a_quoted_line_break(tmp_path):
    # csv reads the quoted line break as part of the name; the body starts on the line after it
    path = _write(tmp_path, 'a,"lab\nel"\n1.0,0\n\n2.0,1\n')
    ds = load_csv(path, label_column="lab\nel")
    assert ds.features[:, 0].tolist() == [1.0, 2.0]
    assert ds.labels.tolist() == [0, 1]


@pytest.mark.parametrize(
    "text, error",
    [
        ("a,b\n\n\n1,x\n", ":4: non-numeric cell 'x' in column 'b'"),
        # a quoted line break in the header and in a cell; CRLF, lone CR and LF line ends
        ('a,"b\r\nc"\r\n1,2\r\n\r\n3,"4\n5"\r\n', ":5: non-numeric cell '4\\n5' in column 'b\\nc'"),
        ('a,"b\rc"\r1,2\r\r3,"4\r5"\r', ":5: non-numeric cell '4\\n5' in column 'b\\nc'"),
        ("a,label\r\n\r\n1,0\r\n\r\n2,3", ":5: label value '3' outside {0, 1}"),
        ('a,b\n"1\n",2\n\n3\n', ":5: expected 2 cells, got 1"),
    ],
    ids=["blank-lines", "crlf", "cr", "label", "short-row"],
)
def test_load_csv_errors_name_the_file_line(tmp_path, text, error):
    path = tmp_path / "lines.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(DataError) as e:
        load_csv(path, label_column="label" if "label" in text else None)
    assert str(e.value) == f"{path}{error}"


def test_load_csv_non_utf8_names_file_offset(tmp_path):
    # the offset counts from the start of the file, past the first read buffer
    path = tmp_path / "bad.csv"
    body = b"a,b\n" + b"1.0,2.0\n" * 3000
    path.write_bytes(body + b"1.0,\xff\n")
    with pytest.raises(DataError, match=f"{path.name}: not UTF-8 text .* at byte {len(body) + 4}\\)"):
        load_csv(path)


def test_csv_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(SyntheticKind.GLOBAL, n=40, seed=3)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path, label_column="label")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_load_csv_drops_byte_order_mark(tmp_path):
    # Excel and PowerShell start UTF-8 files with one; it must not stick to the first column name
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,a\n0,1.0\n1,2.0\n")
    ds = load_csv(path, label_column="label")
    assert ds.labels.tolist() == [0, 1]
    assert ds.features[:, 0].tolist() == [1.0, 2.0]
    # the offset in a decoding error still counts the mark's three bytes
    path.write_bytes(b"\xef\xbb\xbfa\n\xff\n")
    with pytest.raises(DataError, match="at byte 5\\)"):
        load_csv(path)


def _scan_csv(path, label_column=None):
    """Reference reader: csv rows, each cell through float() if it is plain ASCII without "_", then finite.

    Returns the Dataset or the DataError message load_csv must give.
    """
    reader = csv.reader(io.StringIO(path.read_text(encoding="utf-8").removeprefix("\ufeff"), newline=""))
    header = [h.strip() for h in next(reader)]
    rows, end = [], reader.line_num  # a record starts on the file line after the last one read
    for row in reader:
        if row:
            rows.append((end + 1, row))
        end = reader.line_num
    if not rows:
        return f"empty table: {path} has a header but no data rows"
    if label_column is not None and label_column not in header:
        return f"label column {label_column!r} not in header {header}"
    label_idx = header.index(label_column) if label_column is not None else -1
    features, labels = [], []
    for r, row in rows:
        if len(row) != len(header):
            return f"{path}:{r}: expected {len(header)} cells, got {len(row)}"
        for c, cell in enumerate(row):
            try:
                value = float(cell) if cell.isascii() and "_" not in cell else math.nan
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                return f"{path}:{r}: non-numeric cell {cell.strip()!r} in column {header[c]!r}"
            if c == label_idx:
                if value not in (0.0, 1.0):
                    return f"{path}:{r}: label value {cell.strip()!r} outside {{0, 1}}"
                labels.append(int(value))
        features.append([float(cell) for c, cell in enumerate(row) if c != label_idx])
    try:
        return Dataset(features=np.array(features, dtype=np.float64), labels=labels if label_column else None)
    except DataError as e:
        return str(e)


_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.builds(
        "{}{}{}e{}{}".format,
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["0", "1", "12", "", "007"]),
        st.sampled_from([".", ".5", "", ".25"]),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 330),
    ).filter(lambda s: any(ch.isdigit() for ch in s.split("e")[0])),
    st.sampled_from(["0", "1", "-0", "+.5", "1.", "1e-400", "1E+05", "0.0", "1.0"]),
)
_ODD_CELLS = st.sampled_from(
    ["", " ", "#", "1#2", "1_0", "\u0663", "0x10", "nan", "NaN", "inf", "-Infinity", "1e999", "1e", ".", "1 2",
     "'1'", '"1,5"', '"1""2"', '"1"2', '1"2"', ' "1"', '"1" "2"', '"1\n2"', "2", "0.5", "\x00"]
)
_PADS = st.sampled_from(["", "", "", " ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u3000", "#"])


@st.composite
def _csv_files(draw):
    """A CSV text with 1-3 columns, maybe a label column, drawn cells, line ends and blank lines."""
    width = draw(st.integers(1, 3))
    labeled = draw(st.booleans())
    header = [f"x{j}" for j in range(width)] + (["label"] * labeled)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        cells = [draw(_GOOD_CELLS) for _ in range(width)]
        if labeled:
            cells.append(draw(st.sampled_from(["0", "1", " 1", '"0"', "-0", "1.0", "2"])))
        if draw(st.booleans()):  # quote or pad one cell
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = draw(st.sampled_from(['"{}"', '" {}\t"', '"{}\n"', '"\r\n{}"', "{}", "{} ", " {}"])).format(cells[j])
            cells[j] = draw(_PADS) + cells[j] + draw(_PADS)
        rows.append(cells)
    for _ in range(draw(st.integers(0, 2))):  # break the table: a cell, a row's length, a blank-looking line
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell", "short", "long", "space"]))
        if edit == "cell" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(_ODD_CELLS)
        elif edit == "short":
            rows[r] = rows[r][:-1]
        elif edit == "long":
            rows[r] = rows[r] + [draw(_GOOD_CELLS)]
        else:
            rows.insert(r, [draw(st.sampled_from([" ", "\t"]))])
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines anywhere after the header
        lines.insert(draw(st.integers(1, len(lines))), "")
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return (text if draw(st.booleans()) else text.rstrip("\r\n")), ("label" if labeled else None)


@settings(max_examples=400, deadline=None)
@given(_csv_files())
def test_load_csv_matches_the_cell_scan(tmp_path_factory, drawn):
    text, label_column = drawn
    path = tmp_path_factory.getbasetemp() / "parity.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _scan_csv(path, label_column)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on a body with no data; none may reach the CLI
        try:
            ds = load_csv(path, label_column=label_column)
        except DataError as e:
            assert str(e) == expected
            return
    assert not isinstance(expected, str), expected
    assert ds.features.tobytes() == expected.features.tobytes() and ds.features.shape == expected.features.shape
    assert ds.labels is None if label_column is None else ds.labels.tolist() == expected.labels.tolist()


def test_read_text_of_a_crlf_file_holds_under_two_and_a_half_times_its_size(tmp_path):
    # the bytes and their decoded text, not a third copy for the line-end translation
    path = tmp_path / "crlf.csv"
    save_csv(Dataset(features=Stream(6).normal(20_000 * 10).reshape(20_000, 10)), path)
    text_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        text = read_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\r" not in text and text.count("\n") == 20_001
    assert peak < 2.5 * text_bytes, f"peak {peak / 1e6:.1f} MB for a {text_bytes / 1e6:.1f} MB file"


def test_load_csv_memory_stays_near_the_text_and_the_array(tmp_path):
    # 50,000 rows of 10 features and a label; the reader must not hold a Python float per cell
    n, d = 50_000, 10
    stream = Stream(5)
    ds = Dataset(features=stream.normal(n * d).reshape(n, d), labels=(stream.uniform(n) < 0.1).astype(np.int64))
    path = tmp_path / "large.csv"
    save_csv(ds, path)
    text_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        back = load_csv(path, label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.features, ds.features) and np.array_equal(back.labels, ds.labels)
    budget = 4 * (text_bytes + ds.features.nbytes)
    assert peak < budget, f"peak {peak / 1e6:.1f} MB over 4 x ({text_bytes / 1e6:.1f} MB text + array)"


# sha256 of each writer's bytes: CRLF line ends and every float's shortest repr, signed zero,
# subnormals and the float64 extremes included
_EXTREMES = np.array(
    [[-0.0, 5e-324], [1e308, -1e308], [0.1, 1.0 / 3.0], [2.5, -7.0], [-1.5e-310, 123456789.0]]
)
_SAVE_CSV_GOLDEN = {
    False: "60cfb2c065c33a15b04c324ba5febeb1274335faf7e07401d07f22c8dd1699e1",
    True: "d5429e128f3583118d5ce6d1366d62a5d92bf4916400624f8af47421f1e652aa",
}


@pytest.mark.parametrize("labeled", [False, True], ids=["features", "labeled"])
def test_save_csv_golden_bytes(tmp_path, labeled):
    path = tmp_path / "golden.csv"
    save_csv(Dataset(features=_EXTREMES, labels=[0, 1, 0, 1, 0] if labeled else None), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _SAVE_CSV_GOLDEN[labeled]


def test_save_scores_golden_bytes(tmp_path):
    path = tmp_path / "golden.txt"
    save_scores(_EXTREMES.ravel()[:6], path)  # LF line ends
    digest = "6ece9ae06f28b883849d92452895bad98e0c760bf6a79ec71189735a61877fb5"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_save_scores_refuses_a_matrix(tmp_path):
    path = tmp_path / "column.txt"
    with pytest.raises(TypeError):
        save_scores(np.ones((3, 1)), path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# score files


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
    bad.write_text("1.0\n0_5\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2: non-numeric entry '0_5'"):
        import_scores(bad, 2)
    with pytest.raises(DataError, match="no such file"):
        import_scores(tmp_path / "absent.txt", 1)


def test_import_scores_drops_byte_order_mark(tmp_path):
    # a mark glued to the first score made it read as a header, and that score was lost
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf0.5\n0.25\n0.75")
    assert import_scores(path, 3).tolist() == [0.5, 0.25, 0.75]


def test_import_scores_errors_name_the_file_line(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("\n\nscore\n0.5\n\nx\n", encoding="utf-8")
    with pytest.raises(DataError) as e:
        import_scores(path, 2)
    assert str(e.value) == f"{path}: line 6: non-numeric entry 'x'"
    path.write_text("\n\nscore\n0.5\n", encoding="utf-8")
    with pytest.raises(DataError) as e:
        import_scores(path, 2)
    assert str(e.value) == f"{path}: expected 2 scores, found 1 (line 3 'score' was read as a header)"
    path.write_bytes(b"0.5\r\n\r\n0.25\r0.75\r\ninf\r\n")
    with pytest.raises(DataError) as e:
        import_scores(path, 4)
    assert str(e.value) == f"{path}: line 5: non-finite entry 'inf'"


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_import_scores_breaks_lines_only_at_line_ends(tmp_path, sep):
    # str.splitlines() also breaks at these; a score file line ends only in \n, \r\n or \r
    path = tmp_path / "sep.txt"
    path.write_text(f"0.1\n0.5{sep}0.7\n", encoding="utf-8")
    with pytest.raises(DataError) as e:
        import_scores(path, 3)
    assert str(e.value) == f"{path}: line 2: non-numeric entry {'0.5' + sep + '0.7'!r}"


def test_import_scores_short_count_names_the_line_read_as_header(tmp_path):
    path = tmp_path / "typo.txt"
    path.write_text("0.5x\n0.25\n0.75\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"expected 3 scores, found 2 \(line 1 '0\.5x' was read as a header\)$"):
        import_scores(path, 3)
    with pytest.raises(DataError, match=r"expected 1 scores, found 2$"):  # a dropped header explains no surplus
        import_scores(path, 1)


# ---------------------------------------------------------------------------
# scale_features


def test_scale_features_affine_map():
    ds = Dataset(features=np.array([[2.0], [4.0], [6.0]]))
    assert scale_features(ds).features[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_scale_features_constant_column():
    ds = Dataset(features=np.array([[7.0], [7.0], [7.0]]))
    assert scale_features(ds).features[:, 0].tolist() == [0.5, 0.5, 0.5]


def test_scale_features_identity_on_unit_interval():
    ds = Dataset(features=np.array([[0.0], [1.0]]))
    assert scale_features(ds).features[:, 0].tolist() == [0.0, 1.0]


def test_minmax_values_range_wider_than_float64():
    # the suite turns an overflow or invalid-value RuntimeWarning on the way into an error
    assert minmax_values(np.array([-1e308, 1e308, 0.0])).tolist() == [0.0, 1.0, 0.5]
    ds = Dataset(features=np.array([[-1.7e308, 4.0], [1.7e308, 6.0], [0.0, 5.0]]))
    assert scale_features(ds).features.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]


def test_minmax_values_maps_each_matrix_column_as_its_own_vector():
    stream = Stream(17)
    X = np.column_stack([
        stream.normal(9) * 1e-3,
        np.full(9, 3.0),
        np.round(stream.normal(9) * 4),
        (stream.uniform(9) - 0.5) * 1.5e308 * 2.0,  # spans about 3e308, more than float64 holds
        stream.normal(9) * 1e300,
    ])
    assert X[:, 3].max() / 2 - X[:, 3].min() / 2 > np.finfo(float).max / 2
    scaled = minmax_values(X)
    for j in range(X.shape[1]):
        assert np.array_equal(scaled[:, j], minmax_values(X[:, j])), j
    assert np.array_equal(scale_features(Dataset(features=X)).features, scaled)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=30,
    )
)
def test_scale_features_idempotent_and_rank_preserving(column):
    ds = Dataset(features=np.array(column)[:, None])
    once = scale_features(ds)
    twice = scale_features(once)
    np.testing.assert_allclose(twice.features, once.features, atol=1e-12)
    order = np.argsort(np.array(column), kind="stable")
    scaled = once.features[:, 0]
    assert np.all(np.diff(scaled[order]) >= 0.0)


# ---------------------------------------------------------------------------
# synthetic generators


def test_clustered_counts():
    ds = generate_synthetic(SyntheticKind.CLUSTERED, 300, 0.15, seed=1)
    assert ds.n == 300
    assert ds.n_anomalies == 45
    assert int((ds.labels == 0).sum()) == 255


def test_global_bounds():
    ds = generate_synthetic(SyntheticKind.GLOBAL, 20, 0.10, seed=0)
    assert ds.n_anomalies == 2
    anomalies = ds.features[ds.labels == 1]
    assert np.all(anomalies >= -5.0) and np.all(anomalies <= 5.0)


def test_dependency_inlier_correlation():
    ds = generate_synthetic(SyntheticKind.DEPENDENCY, 300, 0.15, seed=1)
    inliers = ds.features[ds.labels == 0]
    r = np.corrcoef(inliers[:, 0], inliers[:, 1])[0, 1]
    assert r > 0.9


@pytest.mark.parametrize("kind", list(SyntheticKind))
@pytest.mark.parametrize("n,rate", [(20, 0.1), (37, 0.22), (300, 0.15), (101, 0.49)])
def test_anomaly_count_rule(kind, n, rate):
    ds = generate_synthetic(kind, n, rate, seed=2)
    assert ds.n_anomalies == int(np.floor(n * rate + 0.5))
    assert ds.d == 2
    assert ds.name == f"synthetic-{kind.value}"


class _Drew(Exception):
    """Raised by a stand-in Stream: the generator got as far as drawing."""


@pytest.mark.parametrize("n", [int(sys.float_info.max) + 1, 10**400], ids=["max-plus-one", "1e400"])
def test_generator_refuses_row_counts_past_float64_before_drawing(monkeypatch, n):
    def stream(seed):
        raise _Drew

    monkeypatch.setattr("uadb.data.Stream", stream)
    message = rf"^need n <= {np.iinfo(np.intp).max}, got a row count past a numpy index$"
    with pytest.raises(DataError, match=message):
        generate_synthetic(SyntheticKind.GLOBAL, n)


def test_generator_refuses_row_counts_past_a_numpy_index_before_drawing(monkeypatch):
    def stream(seed):
        raise _Drew

    monkeypatch.setattr("uadb.data.Stream", stream)
    largest = int(np.iinfo(np.intp).max)
    with pytest.raises(DataError, match=rf"^need n <= {largest}, got a row count past a numpy index$"):
        generate_synthetic(SyntheticKind.GLOBAL, largest + 1)
    with pytest.raises(_Drew):  # the largest index itself passes the check
        generate_synthetic(SyntheticKind.GLOBAL, largest)


@pytest.mark.parametrize("kind", list(SyntheticKind))
def test_generator_reproducible(kind):
    a = generate_synthetic(kind, 60, 0.2, seed=9)
    b = generate_synthetic(kind, 60, 0.2, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate_synthetic(kind, 60, 0.2, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_kinds_use_disjoint_streams():
    a = generate_synthetic(SyntheticKind.CLUSTERED, 50, 0.2, seed=0)
    b = generate_synthetic(SyntheticKind.LOCAL, 50, 0.2, seed=0)
    assert not np.array_equal(a.features, b.features)


def test_generator_preconditions():
    with pytest.raises(DataError):
        generate_synthetic(SyntheticKind.GLOBAL, n=19)
    with pytest.raises(DataError):
        generate_synthetic(SyntheticKind.GLOBAL, anomaly_rate=0.0)
    with pytest.raises(DataError):
        generate_synthetic(SyntheticKind.GLOBAL, anomaly_rate=0.5)
