"""Shared fixtures and helpers: expensive seeded runs, the finite-difference gradient check."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uadb
from uadb import (
    BoosterConfig,
    DetectorKind,
    DetectorParams,
    SyntheticKind,
    fit_score,
    generate_synthetic,
    run_booster,
)
from uadb.nn import Loss, MlpModel, _Workspace, forward
from uadb.rng import Stream, indices

# Acceptance verdict lines, echoed after the run so they survive output
# capture (tests/test_acceptance.py appends one line per criterion).
ACCEPTANCE_LINES: list[str] = []


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run this interpreter on args in a child process whose environment adds env."""
    # the child must find the same uadb the tests import, installed or not
    src = str(Path(uadb.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath, **env},
    )


def draw_index(stream: Stream, bound: int) -> int:
    """One integer uniform on [0, bound) from the stream's next draw."""
    return int(indices(stream.uniform(1), bound)[0])


def full_batch_loss(m: MlpModel, X: np.ndarray, y: np.ndarray, loss: Loss) -> float:
    """Full-batch loss value."""
    pv = forward(m, X)
    if loss is Loss.SQUARED_ERROR:
        return float(np.mean((pv - y) ** 2))
    return float(-np.mean(y * np.log(pv) + (1.0 - y) * np.log(1.0 - pv)))


def gradient_check(
    m: MlpModel, X: np.ndarray, y: np.ndarray, loss: Loss = Loss.CROSS_ENTROPY
) -> float:
    """Max relative error between the gradient train steps with and central differences.

    Intended for tiny models/batches; cost is two loss evaluations per
    parameter with step 1e-5.
    """
    X = np.asarray(X, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    h = 1e-5
    worst = 0.0
    probe = m.copy()
    theta = probe.theta
    for i, g in enumerate(_Workspace(m, X.shape[0]).gradient(m, X, yv, loss)):
        keep = theta[i]
        theta[i] = keep + h
        hi = full_batch_loss(probe, X, yv, loss)
        theta[i] = keep - h
        lo = full_batch_loss(probe, X, yv, loss)
        theta[i] = keep
        fd = (hi - lo) / (2.0 * h)
        worst = max(worst, abs(g - fd) / max(abs(g) + abs(fd), 1e-6))
    return worst


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def clustered_default_run():
    """Clustered synthetic (seed 1), isolation-forest teacher, default booster.

    Returns (dataset, teacher scores, BoosterResult). Several tests check
    different facets of this one run, so it is computed once per session.
    """
    ds = generate_synthetic(SyntheticKind.CLUSTERED, seed=1)
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.IFOREST))
    result = run_booster(ds, teacher, BoosterConfig())
    return ds, teacher, result
