"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper.  The
full-scale IRIS snapshot simulation (the expensive part, a few seconds) is
run once per session and shared by the benches that consume its output
(Tables 2 and 3 and the summary comparison).

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables next to the timing results.  The
paper-table benches also write their deterministic rows to
``benchmarks/results/`` as CSV/JSON so the output can be diffed against
the paper without re-running.  Benches that measure wall-clock or memory
write their records to a temporary directory, so a test run leaves the
committed files unchanged.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment

#: Where the benches drop their regenerated tables.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: This directory, for marking everything collected under it.
BENCH_DIR = Path(__file__).resolve().parent

# The reference implementations the speed floors are measured against
# live in tests/oracles/; make them importable as ``oracles``.
sys.path.insert(0, str(BENCH_DIR.parent / "tests"))


def pytest_collection_modifyitems(items):
    """Mark every benchmark test ``slow``.

    The benches assert wall-clock ratios and regenerate full-scale tables;
    CI runs them serially (timing under ``pytest-xdist`` workers is
    unreliable) while the functional suite runs in parallel with
    ``-m "not slow"``.
    """
    for item in items:
        try:
            in_benchmarks = Path(str(item.fspath)).resolve().is_relative_to(
                BENCH_DIR)
        except (OSError, ValueError):
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def full_snapshot():
    """The full-scale (2,462-node) IRIS snapshot simulation."""
    config = build_iris_snapshot_config()
    return SnapshotExperiment(config).run()
