"""Tiny-size self-test of the benchmark harness (about 20 s).

    python3 perfbench/selftest.py

Checks the span arithmetic, attribute patching, the tail statistic, job
failure counting, every workload end to end at n=60 with tracing off and
on, and that run.py refuses to run without the uadb sources. The file name
keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = HERE / "out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_self_times() -> None:
    rec = tracing.Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        inner()
        inner()
        time.sleep(0.002)

    inner = rec.wrap(leaf, "leaf", lambda: {"rows": 3})
    outer = rec.wrap(middle, lambda: "mid")
    rec.job = 0
    outer()
    rec.job = 1
    outer()
    summary = tracing.summarize(rec.spans)
    layers = summary["layers"]
    check(layers["leaf"]["calls"] == 4 and layers["leaf"]["rows"] == 12, "calls and counts add up")
    check(abs(layers["mid"]["self_s"] - (layers["mid"]["s"] - layers["leaf"]["s"])) < 1e-12,
          "self time is duration minus children")
    for root, self_sum in summary["jobs"].values():
        check(abs(root - self_sum) < 1e-12, "self times of a job sum to its root span")


def test_patch_roundtrip() -> None:
    class Owner:
        @classmethod
        def build(cls, x):
            return (cls, x)

        def method(self, x):
            return x + 1

    originals = dict(Owner.__dict__)
    rec = tracing.Recorder()
    patch = tracing.Patch([(Owner, "build", "b", None), (Owner, "method", "m", None)], rec.wrap)
    check(Owner.build(2) == (Owner, 2) and Owner().method(1) == 2, "wrapped calls keep results")
    check([s[2] for s in rec.spans] == ["b", "m"], "one span per wrapped call")
    patch.undo()
    check(all(Owner.__dict__[k] is originals[k] for k in ("build", "method")), "undo restores")


def test_tail() -> None:
    cheap, dear = [1.0] * 15, [2.0] * 14 + [4.0]
    p50, tail_s, pct, n = worker.job_time_stats([cheap, dear])
    check(p50 == 1.5 and n == 30, "p50 is the mean of per-kind medians")
    check(tail_s == 1.5 and abs(pct - 100 * 20 / 30) < 1e-9, "10 samples lie beyond the tail")
    p50, tail_s, pct, n = worker.job_time_stats([[1.0, 1.0, 3.0]])
    check(p50 == 1.0 and pct == 100 * 2 / 3, "small samples: the tail is the median")
    p50, tail_s, pct, n = worker.job_time_stats([[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]])
    check(p50 == 1.5 and abs(tail_s - 2.0) < 1e-12 and pct == 100 * 5 / 8, "even counts round up")


def test_failures_counted(cli) -> None:
    h = worker.Harness(cli, replace(WORKLOADS["neighbors-n4000"], n=60), 5, SCRATCH / "fail")
    check(h.run_job(0)[1], "a good job passes")
    h.first[0] = (b"0.5\n", h.first[0][1])
    check(not h.run_job(0)[1] and "differ" in h.failures[-1], "changed scores fail the job")
    h.argvs[1] = [a.replace("local-0.csv", "missing.csv") for a in h.argvs[1]]
    check(not h.run_job(1)[1] and "exit 1" in h.failures[-1], "a failing job is counted")
    check(h.attempted == 3 and len(h.failures) == 2, "failures are counted, the run goes on")


def test_tiny_workloads() -> None:
    expected = {key: {m["name"] for m in SPEC[key]} for key in ("end_to_end", "per_layer")}
    for name, workload in WORKLOADS.items():
        tiny = replace(workload, n=60)
        plain = worker.run(tiny, 3, 0.5, False, SCRATCH / name)
        check(set(plain["metrics"]) | {"setup_s"} == expected["end_to_end"], f"{name}: end-to-end set")
        check(not plain["failures"] and plain["determinism_checks"] >= 1, f"{name}: jobs pass")
        traced = worker.run(tiny, 3, 0.5, True, SCRATCH / name)
        m = traced["metrics"]
        check(set(m) == expected["per_layer"], f"{name}: per-layer set")
        check(traced["consistent"] and not traced["failures"], f"{name}: traced jobs pass")
        check(m["job_traced_s"] > 0 and m["cli.self_s"] > 0, f"{name}: spans recorded")
        if name == "train-n3000":
            check(m["detectors.iforest.s"] == 0 and m["nn.train.s"] > 0, "train bypasses iforest")
        if name == "neighbors-n4000":
            check(m["nn.train.calls"] == 0 and m["booster.run_booster.s"] == 0, "no nn/booster")
            check(m["detectors.lof.s"] > 0 and m["detectors.knn.s"] > 0, "lof and knn run")
        if name == "paper-n300":
            check(m["rng.u64.calls"] > 0 and m["nn.train.steps"] == 10 * 3 * 10, "paper counts")


def test_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-n300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and "{" not in proc.stdout, "no sources: non-zero exit, no result")


def main() -> None:
    import uadb.cli

    tests = [test_self_times, test_patch_roundtrip, test_tail, lambda: test_failures_counted(uadb.cli),
             test_tiny_workloads, test_refuses_without_sources]
    for test in tests:
        test()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"selftest: {len(tests)} groups passed")


if __name__ == "__main__":
    main()
