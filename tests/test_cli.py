"""Command-line behavior: wiring, exit codes, artifacts, reproducibility."""

import dataclasses
import hashlib
import json
import os
import stat
import subprocess
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import run_python

import uadb
from uadb.cli import main
from uadb.rng import Stream


def _read(path):
    return path.read_bytes()


@pytest.fixture()
def clustered_csv(tmp_path):
    path = tmp_path / "clustered.csv"
    assert main(["synth", "--kind", "clustered", "--seed", "1", "--out", str(path)]) == 0
    return path


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_counts(clustered_csv, capsys):
    text = clustered_csv.read_text(encoding="utf-8").splitlines()
    assert len(text) == 301  # header + 300 rows
    labels = [row.rsplit(",", 1)[1] for row in text[1:]]
    assert labels.count("1") == 45


def test_synth_small_global(tmp_path):
    out = tmp_path / "g.csv"
    rep = tmp_path / "g.json"
    rc = main(
        ["synth", "--kind", "global", "--n", "20", "--rate", "0.1", "--out", str(out), "--report", str(rep)]
    )
    assert rc == 0
    assert json.loads(rep.read_text())["n_anomalies"] == 2


def test_synth_unknown_kind_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--kind", "banana"])
    assert exc.value.code == 2


def test_synth_requires_kind(capsys):
    assert main(["synth"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("setting", "message"),
    [
        (["--n", "5"], "need n >= 20, got 5"),
        (["--rate", "0.7"], "need 0 < anomaly_rate < 0.5, got 0.7"),
        (["--n", "20", "--rate", "0.01"], "n=20 with anomaly_rate=0.01 yields zero anomalies"),
        (["--n", "1" + "0" * 20], f"need n <= {np.iinfo(np.intp).max}, got a row count past a numpy index"),
        (["--n", "1" + "0" * 400], f"need n <= {np.iinfo(np.intp).max}, got a row count past a numpy index"),
    ],
    ids=["n", "rate", "zero-anomalies", "n-past-a-numpy-index", "n-past-float64"],
)
def test_bad_synth_setting_is_usage_error(tmp_path, capsys, setting, message):
    out, report = tmp_path / "g.csv", tmp_path / "g.json"
    assert main(["synth", "--kind", "global", *setting, "--out", str(out), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists() and not report.exists()


# ---------------------------------------------------------------------------
# detect


def test_detect_reports_metrics_and_scores(clustered_csv, tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    rep = tmp_path / "detect.json"
    rc = main(
        [
            "detect",
            "--data", str(clustered_csv),
            "--label-column", "label",
            "--detector", "knn",
            "--k", "5",
            "--scores-out", str(scores),
            "--report", str(rep),
        ]
    )
    assert rc == 0
    blob = json.loads(rep.read_text())
    assert 0.0 <= blob["metrics"]["aucroc"] <= 1.0
    assert blob["metrics"]["n_pos"] == 45
    lines = [ln for ln in scores.read_text().splitlines() if ln]
    assert len(lines) == 300
    values = np.array([float(v) for v in lines])
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_detect_k_too_large_is_data_error(clustered_csv, capsys):
    rc = main(
        ["detect", "--data", str(clustered_csv), "--detector", "lof", "--k", "500"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_boost_folds_past_row_count_is_data_error(tmp_path, capsys):
    path = tmp_path / "c30.csv"
    assert main(["synth", "--kind", "clustered", "--n", "30", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["boost", "--data", str(path), "--teacher", "hbos", "--folds", "31"]) == 1
    assert capsys.readouterr().err == "error: need fold_count <= n, got fold_count=31, n=30\n"


def test_label_column_not_in_header_is_data_error(clustered_csv, capsys):
    assert main(["detect", "--data", str(clustered_csv), "--detector", "hbos", "--label-column", "nope"]) == 1
    assert capsys.readouterr().err == "error: label column 'nope' not in header ['x1', 'x2', 'label']\n"


def test_detect_identical_rows_warns_in_one_line(tmp_path, capsys):
    path = tmp_path / "same.csv"
    path.write_text("a,b\n" + "1.0,2.0\n" * 8, encoding="utf-8")
    assert main(["detect", "--data", str(path), "--detector", "iforest"]) == 0
    assert capsys.readouterr().err == "warning: all rows identical: isolation scores are uninformative\n"


def test_detect_missing_data_flag(capsys):
    assert main(["detect", "--detector", "knn"]) == 2


def test_detect_missing_file_is_data_error(capsys):
    assert main(["detect", "--data", "/nonexistent.csv", "--detector", "knn"]) == 1


@pytest.mark.parametrize(
    "content",
    [b"a,b\n1.0,2.0\n3.0\n", b"", b"a,b\n", b"a,b\n1.0,\xff2.0\n"],
    ids=["ragged", "empty", "header-only", "non-utf8"],
)
def test_detect_bad_csv_is_data_error_naming_file(tmp_path, capsys, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main(["detect", "--data", str(path), "--detector", "knn", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--teacher-scores", "--config"], ids=["teacher-scores", "config"])
def test_non_utf8_input_is_data_error_naming_file(clustered_csv, tmp_path, capsys, flag):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff0.5\n")
    assert main(["boost", "--data", str(clustered_csv), flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--data", "ABSENT", "--teacher", "hbos"],
        ["--data", "CSV", "--teacher-scores", "ABSENT"],
        ["--config", "ABSENT"],
    ],
    ids=["data", "teacher-scores", "config"],
)
def test_missing_input_file_is_data_error_naming_file(clustered_csv, tmp_path, capsys, args):
    absent = tmp_path / "absent.txt"
    args = [{"ABSENT": str(absent), "CSV": str(clustered_csv)}.get(arg, arg) for arg in args]
    assert main(["boost", *args]) == 1
    assert capsys.readouterr().err == f"error: no such file: {absent}\n"


def test_config_with_byte_order_mark(clustered_csv, tmp_path):
    # Excel and PowerShell start UTF-8 files with one; json.loads refuses it
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"data": str(clustered_csv), "detector": "hbos"}).encode())
    assert main(["detect", "--config", str(cfg), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["detector"] == "hbos"


def test_finite_range_wider_than_float64_runs_cleanly(tmp_path, capsys):
    """A feature column or teacher scores spanning [-1e308, 1e308] min-max scale without overflow."""
    labels = (np.arange(40) % 5 == 0).astype(int)
    X = Stream(8).normal(80).reshape(40, 2)
    narrow = tmp_path / "narrow.csv"
    uadb.save_csv(uadb.Dataset(features=X, labels=labels), narrow)
    X[:, 0] = np.linspace(-1.0, 1.0, 40) * 1e308
    wide = tmp_path / "wide.csv"
    uadb.save_csv(uadb.Dataset(features=X, labels=labels), wide)
    teacher = tmp_path / "teacher.txt"
    uadb.save_scores(np.linspace(1.0, -1.0, 40) * 1e308, teacher)
    common = ["--label-column", "label", "--iterations", "1", "--epochs", "2"]
    for args in (
        ["detect", "--data", str(wide), "--label-column", "label", "--detector", "hbos"],
        ["boost", "--data", str(wide), "--teacher", "hbos", *common],
        ["boost", "--data", str(narrow), "--teacher-scores", str(teacher), *common],
    ):
        assert main(args) == 0, args  # the suite turns numpy's overflow RuntimeWarnings into errors
        assert capsys.readouterr().err == "", args


# ---------------------------------------------------------------------------
# boost


def test_boost_full_run_artifacts(clustered_csv, tmp_path, capsys):
    scores = tmp_path / "boost-scores.txt"
    hist = tmp_path / "history.csv"
    rep = tmp_path / "boost.json"
    rc = main(
        [
            "boost",
            "--data", str(clustered_csv),
            "--label-column", "label",
            "--teacher", "iforest",
            "--strategy", "uadb",
            "--seed", "1",
            "--scores-out", str(scores),
            "--history-out", str(hist),
            "--report", str(rep),
        ]
    )
    assert rc == 0
    header = hist.read_text().splitlines()[0].split(",")
    assert header == [f"y{t}" for t in range(1, 12)]  # T=10 -> 11 columns
    blob = json.loads(rep.read_text())
    assert blob["runs"][0]["booster"]["aucroc"] > 0.0
    assert len([ln for ln in scores.read_text().splitlines() if ln]) == 300


def test_outputs_are_written_and_announced_in_a_fixed_order(tmp_path, capsys, monkeypatch):
    """Each command announces its files after its summary, the report last, whatever the flag order."""
    written, save_scores = [], uadb.cli.save_scores

    def recording_save_scores(scores, path):  # the tracer's patch point must still see the call
        written.append(path)
        save_scores(scores, path)

    monkeypatch.setattr(uadb.cli, "save_scores", recording_save_scores)
    csv = tmp_path / "small.csv"
    assert main(["synth", "--kind", "global", "--n", "40", "--seed", "2", "--out", str(csv)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"wrote {csv}"]
    data = ["--data", str(csv), "--label-column", "label"]
    scores, history, grid, report = (tmp_path / name for name in ("s.txt", "h.csv", "g.csv", "r.json"))
    flags = ["--report", str(report), "--grid-out", str(grid), "--history-out", str(history)]
    flags += ["--scores-out", str(scores)]
    boost = ["boost", *data, "--teacher", "hbos", "--iterations", "1", "--epochs", "1", "--grid-size", "3"]
    assert main([*boost, *flags]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [f"wrote {p}" for p in (scores, history, grid, report)]
    assert main(["detect", *data, "--detector", "hbos", "--report", str(report), "--scores-out", str(scores)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [f"wrote {scores}", f"wrote {report}"]
    # each write goes to a temporary file beside its path, renamed into place once all have succeeded
    assert [Path(path).parent for path in written] == [scores.parent] * 2
    assert all(path.startswith(f"{scores}.") and path.endswith(".tmp") for path in written)
    assert sorted(tmp_path.iterdir()) == sorted([csv, scores, history, grid, report])


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_write_leaves_no_output_file(tmp_path, capsys, existing):
    """A report that cannot be written keeps the scores written before it from appearing, or replacing a file."""
    csv = tmp_path / "g.csv"
    assert main(["synth", "--kind", "global", "--n", "40", "--out", str(csv)]) == 0
    scores, report = tmp_path / "s.txt", tmp_path / "missing-dir" / "r.json"
    if existing:
        scores.write_text("old\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["detect", "--data", str(csv), "--detector", "knn", "--k", "1"]
    assert main([*argv, "--scores-out", str(scores), "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: [Errno 2] No such file or directory: {str(report)!r}\n"
    assert sorted(tmp_path.iterdir()) == sorted([csv] + [scores] * existing)
    if existing:
        assert scores.read_text(encoding="utf-8") == "old\n"


def test_outputs_sharing_a_path_leave_the_last_write(tmp_path, capsys):
    csv, out = tmp_path / "g.csv", tmp_path / "o.txt"
    assert main(["synth", "--kind", "global", "--n", "40", "--out", str(csv)]) == 0
    argv = ["detect", "--data", str(csv), "--detector", "knn", "--k", "1"]
    assert main([*argv, "--scores-out", str(out), "--report", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [f"wrote {out}"] * 2
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == "detect"  # the report is written last
    assert sorted(tmp_path.iterdir()) == [csv, out]


def test_an_output_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    """A pipe given as --report receives the report and is still a pipe afterwards."""
    csv, fifo = tmp_path / "g.csv", tmp_path / "report.fifo"
    assert main(["synth", "--kind", "global", "--n", "40", "--out", str(csv)]) == 0
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["detect", "--data", str(csv), "--detector", "knn", "--k", "1", "--report", str(fifo)]) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(received[0])["command"] == "detect"
    assert sorted(tmp_path.iterdir()) == sorted([csv, fifo])


def test_boost_teacher_scores_length_mismatch(clustered_csv, tmp_path, capsys):
    ext = tmp_path / "ext.txt"
    ext.write_text("0.1\n0.2\n0.3\n", encoding="utf-8")
    rc = main(
        ["boost", "--data", str(clustered_csv), "--teacher-scores", str(ext), "--iterations", "1"]
    )
    assert rc == 1
    assert "expected 300 scores" in capsys.readouterr().err


def test_boost_requires_exactly_one_teacher(clustered_csv, capsys):
    assert main(["boost", "--data", str(clustered_csv)]) == 2


def test_boost_external_teacher_scores(clustered_csv, tmp_path, capsys):
    ext = tmp_path / "ext.txt"
    rc = main(
        ["detect", "--data", str(clustered_csv), "--detector", "hbos", "--scores-out", str(ext)]
    )
    assert rc == 0
    rep = tmp_path / "ext-boost.json"
    capsys.readouterr()
    rc = main(
        [
            "boost",
            "--data", str(clustered_csv),
            "--label-column", "label",
            "--teacher-scores", str(ext),
            "--iterations", "2",
            "--folds", "2",
            "--report", str(rep),
        ]
    )
    assert rc == 0
    # the teacher makes no thresholded errors: one warning line per run, no source line
    assert capsys.readouterr().err == "warning: teacher made no errors; correction rate is vacuously 1\n"
    assert json.loads(rep.read_text())["runs"][0]["teacher"]["aucroc"] > 0.0


def test_boost_naive_vs_uadb_reports(clustered_csv, tmp_path):
    reports = {}
    for strategy in ("naive", "uadb"):
        rep = tmp_path / f"{strategy}.json"
        rc = main(
            [
                "boost",
                "--data", str(clustered_csv),
                "--label-column", "label",
                "--teacher", "iforest",
                "--strategy", strategy,
                "--seed", "1",
                "--iterations", "2",
                "--report", str(rep),
            ]
        )
        assert rc == 0
        reports[strategy] = json.loads(rep.read_text())
    assert reports["naive"]["config"]["strategy"] == "naive"
    assert reports["uadb"]["config"]["strategy"] == "uadb"
    for blob in reports.values():
        assert {"teacher", "booster"} <= set(blob["runs"][0])


def test_boost_repeat_averages(clustered_csv, tmp_path):
    rep = tmp_path / "rep.json"
    rc = main(
        [
            "boost",
            "--data", str(clustered_csv),
            "--label-column", "label",
            "--teacher", "knn",
            "--iterations", "1",
            "--folds", "2",
            "--repeat", "2",
            "--seed", "3",
            "--report", str(rep),
        ]
    )
    assert rc == 0
    blob = json.loads(rep.read_text())
    assert [r["seed"] for r in blob["runs"]] == [3, 4]
    assert "mean" in blob


def test_boost_grid_export(tmp_path, capsys):
    csv = tmp_path / "small.csv"
    assert main(["synth", "--kind", "global", "--n", "40", "--seed", "2", "--out", str(csv)]) == 0
    grid = tmp_path / "grid.csv"
    rc = main(
        [
            "boost",
            "--data", str(csv),
            "--label-column", "label",
            "--teacher", "knn",
            "--iterations", "1",
            "--folds", "1",
            "--grid-out", str(grid),
            "--grid-size", "5",
        ]
    )
    assert rc == 0
    # the teacher makes no thresholded errors
    assert capsys.readouterr().err == "warning: teacher made no errors; correction rate is vacuously 1\n"
    rows = grid.read_text().splitlines()
    assert rows[0] == "x1,x2,score"
    assert len(rows) == 1 + 25
    scores = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_boost_history_and_grid_golden_bytes(tmp_path):
    """The history and grid CSVs keep their bytes: CRLF line ends, each float its shortest repr."""
    csv = tmp_path / "dependency.csv"
    assert main(["synth", "--kind", "dependency", "--n", "40", "--seed", "4", "--out", str(csv)]) == 0
    history, grid = tmp_path / "history.csv", tmp_path / "grid.csv"
    args = ["--data", str(csv), "--label-column", "label", "--teacher", "hbos", "--iterations", "2", "--folds", "2"]
    args += ["--epochs", "2", "--seed", "6", "--history-out", str(history), "--grid-out", str(grid), "--grid-size", "4"]
    assert main(["boost", *args]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (history, grid)}
    assert digests == {
        "history.csv": "0923eb27a3ac42f7baf8f68d67b01fdf630d165a62af5057979377d114576673",
        "grid.csv": "4b09994306ae84bf031371e4b748e862f0936c167cb1f416ad05e599272ab57e",
    }


@pytest.mark.parametrize(
    "d,grid_size,code", [(2, "1", 2), (3, "5", 1)], ids=["grid-size-1", "three-features"]
)
def test_boost_grid_checks_run_before_training(tmp_path, capsys, d, grid_size, code):
    csv = tmp_path / "data.csv"
    uadb.save_csv(uadb.Dataset(features=Stream(3).normal(40 * d).reshape(40, d)), csv)
    outputs = {
        "--scores-out": tmp_path / "scores.txt",
        "--history-out": tmp_path / "history.csv",
        "--grid-out": tmp_path / "grid.csv",
        "--report": tmp_path / "report.json",
    }
    args = ["boost", "--data", str(csv), "--teacher", "hbos", "--iterations", "1", "--grid-size", grid_size]
    for flag, path in outputs.items():
        args += [flag, str(path)]
    assert main(args) == code
    assert ("need grid_size >= 2" if code == 2 else "grid export needs d=2 data") in capsys.readouterr().err
    assert not any(path.exists() for path in outputs.values())


@pytest.mark.parametrize("command", ["boost", "ablate"])
@pytest.mark.parametrize(
    "setting",
    [
        ["--iterations", "0"],
        ["--folds", "0"],
        ["--epochs", "0"],
        ["--batch-size", "0"],
        ["--learning-rate", "0"],
        ["--learning-rate", "inf"],
        {"iterations": 0},
    ],
    ids=["iterations", "folds", "epochs", "batch-size", "learning-rate", "learning-rate-inf", "config-iterations"],
)
def test_bad_booster_setting_is_usage_error_before_reading_data(
    clustered_csv, tmp_path, capsys, monkeypatch, command, setting
):
    monkeypatch.setattr("uadb.cli.load_csv", lambda *args: pytest.fail("data read before the settings check"))
    if isinstance(setting, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting), encoding="utf-8")
        setting = ["--config", str(cfg)]
    outputs = {"--report": tmp_path / "report.json"}
    if command == "boost":
        outputs["--scores-out"] = tmp_path / "scores.txt"
    args = [command, "--data", str(clustered_csv), "--label-column", "label", "--teacher", "hbos", *setting]
    for flag, path in outputs.items():
        args += [flag, str(path)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("usage error: need ")
    assert not any(path.exists() for path in outputs.values())


# a diverging run overflows inside training; the suite's RuntimeWarning-as-error filter holds, and the
# run ends in one error line
@pytest.mark.parametrize("strategy", ["naive", "uadb", "self"])
def test_diverged_training_is_data_error_before_writing(clustered_csv, tmp_path, capsys, strategy):
    scores = tmp_path / "scores.txt"
    args = ["boost", "--data", str(clustered_csv), "--teacher", "hbos", "--strategy", strategy]
    assert main([*args, "--learning-rate", "1e300", "--scores-out", str(scores)]) == 1
    assert capsys.readouterr().err == "error: round 1 diverged: learning rate 1e+300 is too large\n"
    assert not scores.exists()


@pytest.mark.parametrize(
    ("refusal", "message"),
    [
        (
            MemoryError("Unable to allocate 8.00 EiB for an array with shape (1073741824, 1073741824)"),
            "error: out of memory (Unable to allocate 8.00 EiB for an array with shape (1073741824, 1073741824))\n",
        ),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_memory_error_is_one_error_line_before_writing(clustered_csv, tmp_path, capsys, monkeypatch, refusal, message):
    def refuse(cls, X):
        raise refusal

    monkeypatch.setattr(uadb.booster.InputConditioner, "fit", classmethod(refuse))
    scores = tmp_path / "scores.txt"
    assert main(["boost", "--data", str(clustered_csv), "--teacher", "hbos", "--scores-out", str(scores)]) == 1
    assert capsys.readouterr().err == message
    assert not scores.exists()


@pytest.mark.parametrize("command", ["detect", "boost", "ablate"])
@pytest.mark.parametrize(
    ("detector", "setting", "message"),
    [
        ("iforest", ["--trees", "0"], "need trees >= 1, got 0"),
        ("iforest", ["--subsample", "1"], "need subsample >= 2, got 1"),
        ("hbos", ["--bins", "0"], "need bins >= 1, got 0"),
        (
            "hbos",
            ["--bins", "1" + "0" * 400],
            "need bins <= 1.7976931348623157e+308, got a bin count past float64's range",
        ),
        ("lof", ["--k", "0"], "need k >= 1, got 0"),
        ("knn", ["--k", "-3"], "need k >= 1, got -3"),
        ("pca", ["--components", "0"], "need components >= 1, got 0"),
    ],
    ids=["trees", "subsample", "bins", "bins-past-float64", "k-zero", "k-negative", "components"],
)
def test_bad_detector_setting_is_usage_error_before_reading_data(
    tmp_path, capsys, monkeypatch, command, detector, setting, message
):
    monkeypatch.setattr("uadb.cli.load_csv", lambda *args: pytest.fail("data read before the settings check"))
    flag = "--detector" if command == "detect" else "--teacher"
    report = tmp_path / "report.json"
    args = [command, "--data", str(tmp_path / "missing.csv"), flag, detector, *setting, "--report", str(report)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("command", ["boost", "ablate"])
@pytest.mark.parametrize("config", [{}, {"teacher": "hbos", "teacher_scores": "s.txt"}], ids=["none", "both"])
def test_teacher_choice_is_usage_error_before_reading_data(tmp_path, capsys, monkeypatch, command, config):
    """No teacher, or both kinds at once (only a config file can name both), fails before any read."""
    monkeypatch.setattr("uadb.cli.load_csv", lambda *args: pytest.fail("data read before the teacher check"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--data", str(tmp_path / "missing.csv"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "usage error: exactly one of --teacher / --teacher-scores is required\n"


@pytest.mark.parametrize("label", [0, 1])
@pytest.mark.parametrize(
    "command", [["detect", "--detector", "iforest"], ["boost", "--teacher", "hbos"], ["ablate", "--teacher", "hbos"]],
    ids=["detect", "boost", "ablate"],
)
def test_one_class_label_column_is_data_error_before_fitting(tmp_path, capsys, monkeypatch, command, label):
    for name in ("uadb.cli.fit_score", "uadb.cli.run_booster", "uadb.booster.run_booster"):
        monkeypatch.setattr(name, lambda *args: pytest.fail("fitted before the label check"))
    path = tmp_path / "one-class.csv"
    uadb.save_csv(uadb.Dataset(features=Stream(5).normal(40).reshape(20, 2), labels=np.full(20, label)), path)
    assert main([*command, "--data", str(path), "--label-column", "label"]) == 1
    assert capsys.readouterr().err == "error: label column 'label' holds one class; metrics need both 0 and 1\n"


# ---------------------------------------------------------------------------
# ablate


def test_ablate_trains_three_runs(clustered_csv, monkeypatch):
    run_booster = uadb.booster.run_booster
    strategies = []

    def counted(ds, teacher, cfg):
        strategies.append(cfg.strategy.value)
        return run_booster(ds, teacher, cfg)

    monkeypatch.setattr("uadb.booster.run_booster", counted)
    monkeypatch.setattr("uadb.cli.run_booster", counted)
    argv = ["ablate", "--data", str(clustered_csv), "--label-column", "label", "--teacher", "hbos", "--iterations", "1"]
    assert main(argv) == 0
    assert strategies == ["naive", "self", "uadb"]


def test_ablate_six_rows_and_origin_consistency(clustered_csv, tmp_path):
    rep = tmp_path / "ablate.json"
    rc = main(
        [
            "ablate",
            "--data", str(clustered_csv),
            "--label-column", "label",
            "--teacher", "iforest",
            "--seed", "1",
            "--iterations", "2",
            "--report", str(rep),
        ]
    )
    assert rc == 0
    rows = json.loads(rep.read_text())["rows"]
    assert [r["variant"] for r in rows] == [
        "origin", "naive", "discrepancy", "self", "discrepancy-star", "uadb",
    ]
    det_rep = tmp_path / "det.json"
    rc = main(
        [
            "detect",
            "--data", str(clustered_csv),
            "--label-column", "label",
            "--detector", "iforest",
            "--seed", "1",
            "--report", str(det_rep),
        ]
    )
    assert rc == 0
    det = json.loads(det_rep.read_text())["metrics"]
    origin = rows[0]
    assert origin["aucroc"] == det["aucroc"]
    assert origin["ap"] == det["ap"]


def test_ablate_requires_labels(tmp_path, capsys):
    csv = tmp_path / "nolabel.csv"
    csv.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
    rc = main(["ablate", "--data", str(csv), "--teacher", "knn", "--k", "1"])
    assert rc == 1


def test_ablate_uadb_leads_four_kind_suite(tmp_path):
    """Seeded four-dataset suite: the full method tops the mean AUCROC table."""
    means = {}
    for kind in ("clustered", "global", "local", "dependency"):
        csv = tmp_path / f"{kind}.csv"
        rep = tmp_path / f"{kind}.json"
        assert main(["synth", "--kind", kind, "--seed", "1", "--out", str(csv)]) == 0
        rc = main(
            [
                "ablate",
                "--data", str(csv),
                "--label-column", "label",
                "--teacher", "iforest",
                "--seed", "1",
                "--report", str(rep),
            ]
        )
        assert rc == 0
        for row in json.loads(rep.read_text())["rows"]:
            means.setdefault(row["variant"], []).append(row["aucroc"])
    table = {variant: float(np.mean(v)) for variant, v in means.items()}
    assert max(table, key=table.get) == "uadb"


# ---------------------------------------------------------------------------
# config resolution and environment


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "global", "n": 30, "seed": 5}), encoding="utf-8")
    out = tmp_path / "out.csv"
    rep = tmp_path / "rep.json"
    rc = main(
        ["synth", "--config", str(cfg), "--n", "40", "--out", str(out), "--report", str(rep)]
    )
    assert rc == 0
    blob = json.loads(rep.read_text())
    assert blob["config"]["kind"] == "global"
    assert blob["config"]["n"] == 40  # flag beats config file
    assert blob["config"]["seed"] == 5


@pytest.mark.parametrize(
    "argv,config,expected",
    [
        # a JSON null falls back to the flag's default
        (["synth"], {"kind": "global", "n": None}, {"kind": "global", "n": 300}),
        # flag beats config file, which beats the default
        (
            ["boost", "--folds", "2"],
            {"teacher": "hbos", "iterations": 1, "folds": 1, "epochs": 2},
            {"teacher": "hbos", "iterations": 1, "folds": 2, "epochs": 2, "batch_size": 256},
        ),
        (["boost"], {"teacher": "hbos", "iterations": 1, "folds": None}, {"folds": 3, "strategy": "uadb"}),
    ],
    ids=["synth-null", "boost", "boost-null"],
)
def test_config_precedence_and_null_values(clustered_csv, tmp_path, argv, config, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    rep = tmp_path / "rep.json"
    argv = [*argv, "--config", str(cfg), "--report", str(rep)]
    argv += ["--out", str(tmp_path / "out.csv")] if argv[0] == "synth" else ["--data", str(clustered_csv)]
    assert main(argv) == 0
    resolved = json.loads(rep.read_text())["config"]
    assert {key: resolved[key] for key in expected} == expected


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "global", "bogus": 1}), encoding="utf-8")
    assert main(["synth", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("content", "message"),
    [
        ("not json", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        ("[1, 2]", "config must be a JSON object"),
    ],
    ids=["invalid", "not-an-object"],
)
def test_bad_config_file_is_data_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content, encoding="utf-8")
    assert main(["synth", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def test_boost_report_as_ablate_config_names_boost_only_keys(clustered_csv, tmp_path, capsys):
    rep = tmp_path / "boost.json"
    argv = ["--data", str(clustered_csv), "--label-column", "label", "--teacher", "hbos", "--iterations", "1"]
    assert main(["boost", *argv, "--report", str(rep)]) == 0
    assert main(["ablate", "--config", str(rep)]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys: grid_out, grid_size, history_out, repeat, scores_out, strategy\n" in err


@pytest.mark.parametrize(
    "bad",
    [
        {"iterations": "3"},
        {"folds": 2.5},
        {"seed": "x"},
        {"scale": "yes"},
        {"teacher": "banana"},
    ],
)
def test_mistyped_config_value_is_usage_error(clustered_csv, tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"teacher": "hbos", "iterations": 1, **bad}), encoding="utf-8")
    assert main(["boost", "--data", str(clustered_csv), "--config", str(cfg)]) == 2
    assert f"config value {next(iter(bad))}=" in capsys.readouterr().err


def test_seed_env_var_default(tmp_path, monkeypatch):
    rep = tmp_path / "rep.json"
    for seed in (9, 4, 9):  # read on every call, though the parser is built once
        monkeypatch.setenv("UADB_SEED", str(seed))
        assert main(["synth", "--kind", "local", "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["config"]["seed"] == seed


def test_config_defaults_end_with_their_call(tmp_path, monkeypatch):
    monkeypatch.delenv("UADB_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "global", "n": 40, "rate": 0.2, "seed": 5}), encoding="utf-8")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["synth", "--config", str(cfg), "--report", str(first)]) == 0
    assert main(["synth", "--kind", "local", "--report", str(second)]) == 0
    # the second call gets the defaults, not the first call's config file
    for report, want in (
        (first, {"kind": "global", "n": 40, "rate": 0.2, "seed": 5}),
        (second, {"kind": "local", "n": 300, "rate": 0.15, "seed": 0}),
    ):
        resolved = json.loads(report.read_text())["config"]
        assert {key: resolved[key] for key in want} == want


# a non-default value of every library setting: (its config key, the value given there, the field's value);
# the kind's key is None, as its flag is --detector or --teacher
_SETTING_VALUES = {
    uadb.BoosterConfig: {
        "T": ("iterations", 4, 4),
        "fold_count": ("folds", 2, 2),
        "strategy": ("strategy", "naive", uadb.Strategy.NAIVE),
        "epochs": ("epochs", 3, 3),
        "batch_size": ("batch_size", 64, 64),
        "learning_rate": ("learning_rate", 0.0025, 0.0025),
        "loss": ("loss", "squared-error", uadb.Loss.SQUARED_ERROR),
        "seed": ("seed", 11, 11),
    },
    uadb.DetectorParams: {
        "kind": (None, "pca", uadb.DetectorKind.PCA),
        "trees": ("trees", 7, 7),
        "subsample": ("subsample", 64, 64),
        "bins": ("bins", 5, 5),
        "k": ("k", 3, 3),
        "components": ("components", 1, 1),
        "seed": ("seed", 11, 11),
    },
}


class _Built(Exception):
    """Carries the settings object a command passed to the library."""


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    ("command", "call", "base", "name"),
    [
        pytest.param(command, call, base, f.name, id=f"{command}-{f.name}")
        for command, call, base in [
            ("boost", "run_booster", uadb.BoosterConfig()),
            ("ablate", "ablation_scores", uadb.BoosterConfig()),
            ("detect", "fit_score", uadb.DetectorParams(uadb.DetectorKind.IFOREST)),
            ("boost", "fit_score", uadb.DetectorParams(uadb.DetectorKind.IFOREST)),
        ]
        for f in dataclasses.fields(base)
        if (command, f.name) != ("ablate", "strategy")  # ablate runs every strategy; it has no --strategy
    ],
)
def test_every_setting_reaches_the_library(clustered_csv, tmp_path, monkeypatch, command, call, base, name, via):
    """The object a command hands the library takes each field's non-default value from its flag or config key."""
    monkeypatch.delenv("UADB_SEED", raising=False)

    def capture(*args):  # the settings object is each call's last argument
        raise _Built(args[-1])

    monkeypatch.setattr(f"uadb.cli.{call}", capture)
    kind_key = "detector" if command == "detect" else "teacher"
    key, given, value = _SETTING_VALUES[type(base)][name]
    settings = {kind_key: "iforest", key or kind_key: given}
    args = [command, "--data", str(clustered_csv), "--label-column", "label"]
    if via == "flag":
        args += [item for k, v in settings.items() for item in (f"--{k.replace('_', '-')}", str(v))]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings), encoding="utf-8")
        args += ["--config", str(cfg)]
    with pytest.raises(_Built) as built:
        main(args)
    assert built.value.args[0] == dataclasses.replace(base, **{name: value})


def _run_console(*args: str, **env: str) -> subprocess.CompletedProcess:
    return run_python("-m", "uadb.cli", *args, **env)


def test_cli_import_leaves_scipy_unloaded():
    # a cold `import uadb.cli` stays fast and small only while nothing imports scipy;
    # it loads inside the one part that uses it, the neighbor search of LOF and kNN
    proc = run_python("-c", "import sys, uadb.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_without_a_neighbor_search_leave_scipy_unloaded(clustered_csv, tmp_path):
    # only the neighbor search needs scipy: the isolation forest tabulates its normalizer itself
    data, scores = str(clustered_csv), str(tmp_path / "teacher.txt")
    commands = [
        ["detect", "--data", data, "--detector", "iforest", "--scores-out", scores],
        ["detect", "--data", data, "--detector", "pca"],
        ["detect", "--data", data, "--detector", "hbos"],
        ["boost", "--data", data, "--teacher", "iforest", "--iterations", "1"],
        ["boost", "--data", data, "--teacher-scores", scores, "--iterations", "1"],
    ]
    script = (
        "import sys; from uadb.cli import main\n"
        f"for argv in {commands!r}: assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_boost_scores_do_not_depend_on_blas_threads(clustered_csv, tmp_path):
    # a run caps numpy's OpenBLAS at one thread, so the count the process starts with must not show.
    # 513 rows: forward's last block has 257 rows, whose bits a threaded product changes on the Haswell kernel.
    # 10,001 rows: forward takes 256-row blocks, not one product over every row split between BLAS threads
    cases = [(clustered_csv, ["--iterations", "2"])]
    for n in (513, 10001):
        path = tmp_path / f"clustered-{n}.csv"
        assert main(["synth", "--kind", "clustered", "--n", str(n), "--out", str(path)]) == 0
        cases.append((path, ["--iterations", "1", "--epochs", "1"]))
    for data, settings in cases:
        outputs = []
        for threads in ("1", "2"):
            scores = tmp_path / f"scores-{threads}.txt"
            proc = _run_console(
                "boost", "--data", str(data), "--teacher", "hbos", *settings,
                "--scores-out", str(scores), OPENBLAS_NUM_THREADS=threads,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(scores.read_bytes())
        assert outputs[0] == outputs[1], data.name


def test_console_entry_point_runs():
    proc = _run_console("synth", "--kind", "global", "--n", "20")
    assert proc.returncode == 0
    assert "n=20" in proc.stdout


@pytest.mark.parametrize("magnitude", [1e160, 1e300])
@pytest.mark.parametrize(
    "command",
    [
        ["detect", "--detector", "pca"],
        ["detect", "--detector", "lof"],
        ["detect", "--detector", "knn"],
        ["boost", "--teacher", "hbos"],
    ],
    ids=["pca", "lof", "knn", "boost-hbos"],
)
def test_unscaled_overflow_prints_one_error_line(tmp_path, command, magnitude):
    # numpy's overflow warnings must not precede the error in a fresh process
    path = tmp_path / "huge.csv"
    uadb.save_csv(uadb.Dataset(features=Stream(17).normal(120).reshape(60, 2) * magnitude), path)
    proc = _run_console(*command, "--data", str(path), "--no-scale")
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.endswith("rescale the features (CLI: --scale)\n")
