"""End-to-end snapshot audit orchestration (the IRISCAST experiment).

This package strings the substrates together into the experiment the paper
describes: take a 24-hour snapshot of a running infrastructure, measure its
energy with whatever instruments each site has, and evaluate the carbon
model over the result.

* :mod:`~repro.snapshot.config` — the knobs of a snapshot run: window
  length, per-site hardware/workload/instrumentation configuration, and the
  calibration targets that pin the simulation to the paper's measured
  per-site power.
* :mod:`~repro.snapshot.experiment` — running the snapshot: simulate each
  site's workload, convert to power, run the measurement campaign, then
  evaluate the active/embodied/total carbon and the scenario grids.
"""

from repro.snapshot.config import (
    SiteSnapshotConfig,
    SnapshotConfig,
    build_iris_snapshot_config,
)
from repro.snapshot.experiment import (
    SiteSnapshotResult,
    SnapshotExperiment,
    SnapshotResult,
)

__all__ = [
    "SiteSnapshotConfig",
    "SnapshotConfig",
    "build_iris_snapshot_config",
    "SnapshotExperiment",
    "SiteSnapshotResult",
    "SnapshotResult",
]
