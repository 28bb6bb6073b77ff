"""uadb benchmark: drives the `uadb` CLI on generated CSVs and prints every metric.

    python3 perfbench/run.py --workload paper-n300 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in its own fresh worker process (worker.py), so one
workload's peak RSS never leaks into another's and the import it times is
cold. The worker's BLAS/OpenMP thread count is pinned to 1. With --trace 0
the result holds the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Details (job samples, machine facts, spans) go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-n300", "train-n3000", "neighbors-n4000")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBES = 4  # plus the worker's own import: setup_s is the median of five cold imports
PROBE = (
    "import time; t = time.perf_counter(); import uadb.cli; "
    "print(time.perf_counter() - t, uadb.cli.__file__)"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    return {**os.environ, **PINNED, "PYTHONPATH": str(SRC)}


def _cold_import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    seconds, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"import probe found uadb at {path.strip()}, not under {SRC}")
    return float(seconds)


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    setup = [] if trace else [_cold_import_s() for _ in range(IMPORT_PROBES)]
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 110)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker did not finish in {seconds + 110} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setup + [result["import_s"]])
    expected = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in expected}:
        raise BenchError(f"{name}: metrics {sorted(metrics)} do not match BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in expected}
    result["correct"] = not result["failures"] and result.get("consistent", True)
    return result


def _print_workload(name: str, result: dict, trace: bool) -> None:
    detail = result["detail"]
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"== {name}: {attempted} jobs, error_rate = {failed / attempted:.4g} "
          f"({failed} failed), {result['determinism_checks']} determinism repeats")
    print(f"   why: {result['why']}")
    for problem in result["failures"][:10]:
        print(f"   FAILED {problem}")
    job_s = result["metrics"].get("job_traced_s", {}).get("value")
    for metric, m in result["metrics"].items():
        line = f"   {metric:36} {m['value']:<14.6g} {m['unit']:7}"
        if trace:
            share = f"{100.0 * m['value'] / job_s:5.1f}%" if m["unit"] == "s" and job_s else ""
            moves, on = detail["layer_map"][metric]["moves"], detail["layer_map"][metric]["on"]
            line += f" {share:>6}  -> {', '.join(moves) or '-'} on {', '.join(on)}"
        print(line)
    if trace:
        print(f"   self times sum to job time within {detail['self_sum_error_s']:.2g} s over "
              f"{detail['traced_jobs']} traced jobs; spans in {detail['spans']}")
    else:
        print(f"   job_s.tail is p{detail['tail_pct']:.4g} of {detail['samples']} jobs "
              f"({detail['cycles']} cycles)")
    facts = result["facts"]
    print(f"   machine: {facts['nproc']} cpus ({facts['cpus_usable']} usable) {facts['cpu']}, "
          f"Python {facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}, "
          f"{facts['blas']}, threads {facts['threads']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if not (SRC / "uadb" / "cli.py").is_file():
            raise BenchError(f"no uadb sources at {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        results = {name: run_workload(name, args.seed, args.seconds, trace, spec) for name in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        _print_workload(name, result, trace)
    if len(results) == 1:
        metrics = result["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(len(r["failures"]) for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
