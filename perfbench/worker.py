"""One workload run in a fresh process; prints its result as one JSON line.

run.py starts this script with the BLAS/OpenMP thread count pinned and
`src` on the path. It times the cold `import uadb.cli`, generates the
workload's CSVs with `uadb synth`, then drives `uadb.cli.main` job after
job and checks each job's outputs. Without --trace it measures the
end-to-end metrics; with --trace it runs each job untraced and traced back
to back and derives the per-layer metrics from the traced jobs' spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter

from tracing import Patch, Recorder, layer_targets, peak_alloc_wrap, summarize
from workloads import LAYER_MAP, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class Harness:
    """Runs one workload's jobs through cli.main and checks every output.

    A job fails, and is counted, when cli.main raises or exits non-zero,
    when its scores file is not exactly n finite values in [0, 1], when its
    report is not JSON, or when its scores differ by a single byte from the
    first run of the same job (same arguments, same seed).
    """

    def __init__(self, cli, workload, seed: int, out: Path):
        self.cli = cli
        self.workload = workload
        self.out = out
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[int, tuple[bytes, tuple[float, float]]] = {}  # slot -> (scores, quality)
        self.repeats = 0
        out.mkdir(parents=True, exist_ok=True)
        self.scores = out / "scores.txt"
        self.report = out / "report.json"
        self.argvs = []
        made = set()
        for slot in workload.slots:
            csv = out / f"{slot.data}.csv"
            if csv not in made:
                made.add(csv)
                self._quiet(cli.main, ["synth", "--kind", slot.kind, "--n", str(workload.n),
                                       "--seed", str(seed + 1000 * slot.replica), "--out", str(csv)])
            argv = [*slot.args, "--data", str(csv), "--label-column", "label", "--seed", str(seed),
                    "--scores-out", str(self.scores), "--report", str(self.report)]
            if workload.history:
                argv += ["--history-out", str(out / "history.csv")]
            self.argvs.append(argv)

    @staticmethod
    def _quiet(call, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = call(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
                code = repr(exc)
        return code, sink.getvalue()

    def run_job(self, slot: int, call=None) -> tuple[float, bool]:
        """Run one job (through call, a wrapped cli.main, if given); returns (wall s, ok)."""
        self.scores.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)
        start = perf_counter()
        code, output = self._quiet(call or self.cli.main, self.argvs[slot])
        wall = perf_counter() - start
        self.attempted += 1
        problem = self._check(slot, code, output)
        if problem:
            self.failures.append(f"{self.workload.slots[slot].label}: {problem}")
        return wall, problem is None

    def _check(self, slot: int, code, output: str) -> str | None:
        if code != 0:
            return f"exit {code}: {output.strip()[-300:]}"
        try:
            data = self.scores.read_bytes()
            report = json.loads(self.report.read_text(encoding="utf-8"))
            values = [float(x) for x in data.split()]
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            return f"unreadable output: {exc}"
        if len(values) != self.workload.n:
            return f"{len(values)} scores for {self.workload.n} rows"
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            return "a score is not finite or outside [0, 1]"
        try:
            if report["command"] == "boost":
                quality = (report["mean"]["teacher_aucroc"], report["mean"]["booster_aucroc"])
            else:  # detect: the detector is the whole job, its scores are the output
                quality = (report["metrics"]["aucroc"],) * 2
        except (KeyError, TypeError) as exc:
            return f"report lacks quality metrics: {exc!r}"
        if slot in self.first:
            self.repeats += 1
            if self.first[slot][0] != data:
                return "scores differ from the first run of the same job and seed"
        else:
            self.first[slot] = (data, quality)
        return None

    def quality(self) -> tuple[float, float]:
        """Mean (teacher, output) AUCROC over the cycle's first runs."""
        q = [self.first[s][1] for s in sorted(self.first)]
        if not q:  # every job failed; the run is reported as incorrect
            return 0.0, 0.0
        return statistics.fmean(t for t, _ in q), statistics.fmean(b for _, b in q)


def job_time_stats(walls: list[list[float]]) -> tuple[float, float, float, int]:
    """(p50, tail, tail percentile, samples) of job wall times.

    Job kinds in a cycle differ in cost (LOF vs kNN by 2x), so a median over
    the pooled jobs would jump between kinds as the number of completed
    cycles changes. The median is taken per job kind and averaged over the
    cycle; the tail is the pooled ratio of each job to its kind's median at
    the highest percentile with 10 samples beyond it (fewer when N < 21, so
    that it never falls below the median), times p50.
    """
    medians = [statistics.median(w) for w in walls]
    p50 = statistics.fmean(medians)
    ratios = sorted(x / m for w, m in zip(walls, medians) for x in w)
    n = len(ratios)
    rank = n - 1 - min(10, (n - 1) // 2)
    return p50, p50 * ratios[rank], 100.0 * (rank + 1) / n, n


def timed_run(h: Harness, seconds: float) -> dict:
    """Whole cycles of untraced jobs until the next one would pass the deadline."""
    cycle_len = len(h.argvs)
    walls = [[] for _ in range(cycle_len)]
    rows = 0
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        for slot in range(cycle_len):
            wall, ok = h.run_job(slot)
            walls[slot].append(wall)
            rows += h.workload.n if ok else 0
        if perf_counter() + (perf_counter() - start) > deadline:
            break
    if not h.repeats:
        h.run_job(0)  # every run checks determinism at least once
    p50, tail_s, tail_pct, samples = job_time_stats(walls)
    teacher, booster = h.quality()
    metrics = {
        "job_s.p50": p50,
        "job_s.tail": tail_s,
        "rows_per_s": rows / sum(map(sum, walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "teacher_aucroc": teacher,
        "booster_aucroc": booster,
    }
    detail = {"tail_pct": tail_pct, "samples": samples, "cycles": len(walls[0]),
              "walls": {s.label: w for s, w in zip(h.workload.slots, walls)}}
    return {"metrics": metrics, "detail": detail}


def traced_run(h: Harness, seconds: float, modules) -> dict:
    """Per-layer metrics: a peak-allocation pass, then cycles of untraced/traced job pairs."""
    cli, booster, rng = modules
    cycle_len = len(h.argvs)
    peaks: list[int] = []
    seen = set()
    for slot, spec in enumerate(h.workload.slots):
        if spec.args[-1] not in seen:  # once per detector: tracemalloc slows iforest 4x
            seen.add(spec.args[-1])
            patch = Patch([(cli, "fit_score", None, None)], peak_alloc_wrap(peaks))
            try:
                h.run_job(slot)
            finally:
                patch.undo()

    rec = Recorder()
    traced_main = rec.wrap(cli.main, "cli.main")
    wall = {False: 0.0, True: 0.0}  # traced? -> summed job wall

    def job(slot: int, traced: bool) -> None:
        if not traced:
            wall[False] += h.run_job(slot)[0]
            return
        patch = Patch(layer_targets(cli, booster, rng), rec.wrap)
        try:
            rec.job += 1
            wall[True] += h.run_job(slot, traced_main)[0]
        finally:
            patch.undo()

    # each job runs untraced and traced back to back, in alternating order, so
    # the overhead estimate compares neighbours in time and drift cancels
    deadline = perf_counter() + seconds
    for cycle in itertools.count():
        start = perf_counter()
        for slot in range(cycle_len):
            first = (cycle + slot) % 2 == 1
            job(slot, first)
            job(slot, not first)
        if perf_counter() + (perf_counter() - start) > deadline:
            break

    summary = summarize(rec.spans)
    layers = summary["layers"]
    jobs = rec.job + 1

    def per_job(name, key="s"):
        return layers.get(name, {}).get(key, 0.0) / jobs

    train = layers.get("nn.train", {})
    metrics = {
        **{f"detectors.{d}.s": per_job(f"detectors.{d}") for d in ("iforest", "hbos", "lof", "knn")},
        "detectors.fit_score.peak_alloc_mb": max(peaks) / 2**20,
        "detectors.save_scores.s": per_job("detectors.save_scores"),
        "data.load_csv.s": per_job("data.load_csv"),
        "rng.u64.calls": per_job("rng.u64", "calls"),
        "rng.u64.s": per_job("rng.u64"),
        "nn.train.s": per_job("nn.train"),
        "nn.train.calls": per_job("nn.train", "calls"),
        "nn.train.steps": per_job("nn.train", "steps"),
        "nn.train.step_ms": 1000.0 * train["s"] / train["steps"] if train else 0.0,
        "nn.forward.s": per_job("nn.forward"),
        "nn.forward.rows": per_job("nn.forward", "rows"),
        "booster.run_booster.s": per_job("booster.run_booster"),
        "booster.self_s": per_job("booster.run_booster", "self_s"),
        "booster.conditioner.fit.s": per_job("booster.conditioner.fit"),
        "booster.conditioner.apply.s": per_job("booster.conditioner.apply"),
        "booster.variance.s": per_job("booster.variance"),
        "booster.update.s": per_job("booster.update"),
        "metrics.s": per_job("metrics"),
        "metrics.calls": per_job("metrics", "calls"),
        "cli.self_s": per_job("cli.main", "self_s"),
        "job_traced_s": per_job("cli.main"),
        "trace_overhead_s": (wall[True] - wall[False]) / jobs,
    }
    self_sum_error = max(abs(root - total) for root, total in summary["jobs"].values())
    rec.write(h.out / "spans.jsonl")
    detail = {
        "traced_jobs": jobs,
        "self_sum_error_s": self_sum_error,
        "layers": layers,
        "layer_map": {k: {"moves": v[0], "on": v[1]} for k, v in LAYER_MAP.items()},
        "spans": str((h.out / "spans.jsonl").relative_to(HERE.parent)),
    }
    return {"metrics": metrics, "detail": detail, "consistent": self_sum_error <= 1e-6}


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run(workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    start = perf_counter()
    import uadb.cli

    import_s = perf_counter() - start
    import uadb.booster
    import uadb.rng

    if not Path(uadb.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported uadb from {uadb.cli.__file__}, not from {SRC}")
    h = Harness(uadb.cli, workload, seed, out)
    if trace:
        result = traced_run(h, seconds, (uadb.cli, uadb.booster, uadb.rng))
    else:
        result = timed_run(h, seconds)
    return {
        **result,
        "why": workload.why,
        "import_s": import_s,
        "attempted": h.attempted,
        "failures": h.failures,
        "determinism_checks": h.repeats,
        "facts": machine_facts(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    out = HERE / "out" / args.workload
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out)
    (out / ("trace.json" if args.trace else "run.json")).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
