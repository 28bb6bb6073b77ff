"""Dataset ingestion, scaling, and the four synthetic generators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uadb import (
    DataError,
    Dataset,
    SyntheticKind,
    generate_synthetic,
    load_csv,
    save_csv,
    scale_features,
)

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


def test_load_csv_rejects_non_numeric_cell(tmp_path):
    path = _write(tmp_path, "a,b\n1.0,NaN\n2.0,3.0\n")
    with pytest.raises(DataError, match="non-numeric cell"):
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
