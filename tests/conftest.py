"""Shared fixtures: expensive seeded runs reused across test modules."""

import pytest

from uadb import (
    BoosterConfig,
    DetectorKind,
    DetectorParams,
    SyntheticKind,
    fit_score,
    generate_synthetic,
    run_booster,
)
from uadb.rng import Stream, indices

# Acceptance verdict lines, echoed after the run so they survive output
# capture (tests/test_acceptance.py appends one line per criterion).
ACCEPTANCE_LINES: list[str] = []


def draw_index(stream: Stream, bound: int) -> int:
    """One integer uniform on [0, bound) from the stream's next draw."""
    return int(indices(stream.uniform(1), bound)[0])


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
