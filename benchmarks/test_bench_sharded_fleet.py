"""Bench: the out-of-core sharded fleet substrate vs the dense path.

Two acceptance bars:

* **Fidelity** — at ``node_scale=1.0`` (the full 2,462-node IRIS fleet),
  with the in-memory limit lowered so every site goes out of core, the
  snapshot must agree with the dense run to ≤1e-9 relative on every
  Table 2 energy and on the facility power series.  Both paths share the
  scheduler and the affine power model; they differ only in where the
  utilisation matrix lives and in floating-point summation order.

* **Memory** — the point of the substrate: a fleet whose dense
  utilisation matrix does not fit in RAM must still be assessable.  A
  subprocess capped with ``RLIMIT_AS`` proves it both ways: the dense
  builder dies of :class:`MemoryError` under the cap, while the sharded
  builder + streaming reductions complete under the *same* cap on the
  same synthetic fleet (32,768 nodes × 48 h at 60 s ≈ 755 MB dense,
  capped at 512 MB).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.io.jsonio import write_json
from repro.snapshot import experiment
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import (
    SnapshotExperiment,
    SnapshotResult,
    out_of_core,
)

EQUIVALENCE_RTOL = 1e-9

#: Float64 bytes of one node's row in the default 24 h, 60 s snapshot.
NODE_ROW_BYTES = 1440 * 8

#: The RLIMIT_AS cap, and the synthetic fleet sized to overflow it
#: densely (32768 × 2880 × 8 bytes ≈ 755 MB) while a single 2048-node
#: shard (≈ 47 MB) streams comfortably within it.
MEMORY_CAP_BYTES = 512 * 1024 * 1024
CHILD_NODES = 32768
CHILD_SHARD_NODES = 2048
CHILD_DURATION_S = 48 * 3600.0

#: Exit code the capped child uses to report "dense matrix did not fit".
OOM_EXIT_CODE = 42

_CHILD_SCRIPT = """\
import resource
import sys

mode, cap, shard_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

N_NODES = {n_nodes}
DURATION_S = {duration_s}

from repro.workload.jobs import Job
from repro.workload.scheduler import Placement

placements = [
    Placement(
        job=Job(job_id=i, submit_time_s=0.0, cores=16,
                runtime_s=DURATION_S * 0.5),
        node_index=(i * 8) % N_NODES,
        start_time_s=float(i % 7) * 3600.0,
        end_time_s=float(i % 7) * 3600.0 + DURATION_S * 0.5,
    )
    for i in range(4096)
]
node_ids = [f"n{{i:05d}}" for i in range(N_NODES)]
cores = [32] * N_NODES

try:
    if mode == "dense":
        from repro.workload.fleet import FleetUtilization

        trace = FleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, step_s=60.0)
        checksum = trace.mean_utilization()
    else:
        from repro.workload.fleet import ShardedFleetUtilization

        store = ShardedFleetUtilization.from_placements(
            placements, node_ids, cores, DURATION_S, shard_dir,
            step_s=60.0, shard_nodes={shard_nodes})
        checksum = store.mean_utilization()
        busy = store.busy_core_seconds(cores)
except MemoryError:
    sys.exit({oom_exit})

peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"{{checksum:.15e}} {{peak_kb}}")
""".format(n_nodes=CHILD_NODES, duration_s=CHILD_DURATION_S,
           shard_nodes=CHILD_SHARD_NODES, oom_exit=OOM_EXIT_CODE)


def _assert_equivalent(dense: SnapshotResult, sharded: SnapshotResult):
    for row_dense, row_sharded in zip(dense.table2_rows(),
                                      sharded.table2_rows()):
        assert row_dense["site"] == row_sharded["site"]
        for method, dense_value in row_dense.items():
            if method in ("site", "nodes"):
                continue
            sharded_value = row_sharded[method]
            if dense_value is None:
                assert sharded_value is None
                continue
            assert sharded_value == pytest.approx(
                dense_value, rel=EQUIVALENCE_RTOL, abs=1e-9), (
                f"{row_dense['site']}/{method}: "
                f"{sharded_value} != {dense_value}")
    np.testing.assert_allclose(sharded.facility_power_series().values,
                               dense.facility_power_series().values,
                               rtol=EQUIVALENCE_RTOL, atol=1e-6)


def test_bench_sharded_engine_full_scale_equivalence(results_dir,
                                                     full_snapshot,
                                                     tmp_path, monkeypatch):
    """Full IRIS fleet: sharded == dense on every reported figure."""
    config = build_iris_snapshot_config()
    # 32-node shards: every site (the smallest has 59 nodes) goes out of
    # core, and each streams several shards.
    monkeypatch.setattr(experiment, "DENSE_TRACE_LIMIT_BYTES",
                        32 * NODE_ROW_BYTES)
    assert all(out_of_core(site, config) for site in config.sites)
    sharded = SnapshotExperiment(config, shard_dir=tmp_path,
                                 shard_key="bench-full-scale").run()
    _assert_equivalent(full_snapshot, sharded)
    assert sharded.total_nodes == 2462

    shard_bytes = sum(
        path.stat().st_size
        for site_dir in tmp_path.iterdir()
        for path in site_dir.iterdir())
    write_json(results_dir / "bench_sharded_fleet.json", {
        "total_nodes": sharded.total_nodes,
        "total_best_estimate_kwh": sharded.total_best_estimate_kwh,
        "shard_store_bytes": shard_bytes,
        "equivalence_rtol": EQUIVALENCE_RTOL,
    })
    print(f"\nout of core at full scale: {sharded.total_nodes} nodes, "
          f"{shard_bytes / 1e6:.1f} MB of shards, equivalent to dense "
          f"within {EQUIVALENCE_RTOL:g}")


@pytest.mark.skipif(sys.platform != "linux",
                    reason="RLIMIT_AS semantics are only dependable on Linux")
def test_bench_sharded_engine_bounded_memory(tmp_path):
    """The dense path dies under the RSS cap; the sharded path completes."""
    script = tmp_path / "capped_child.py"
    script.write_text(_CHILD_SCRIPT)
    env = os.environ.copy()
    repo_src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")

    def run_child(mode):
        shard_dir = tmp_path / f"shards-{mode}"
        return subprocess.run(
            [sys.executable, str(script), mode, str(MEMORY_CAP_BYTES),
             str(shard_dir)],
            env=env, capture_output=True, text=True, timeout=600)

    dense = run_child("dense")
    assert dense.returncode == OOM_EXIT_CODE, (
        f"dense build of a {CHILD_NODES}-node fleet was expected to "
        f"exceed the {MEMORY_CAP_BYTES >> 20} MiB cap but exited "
        f"{dense.returncode}: {dense.stderr[-500:]}")

    sharded = run_child("sharded")
    assert sharded.returncode == 0, (
        f"sharded build failed under the {MEMORY_CAP_BYTES >> 20} MiB "
        f"cap: {sharded.stderr[-500:]}")
    checksum, peak_kb = sharded.stdout.split()
    peak_bytes = int(peak_kb) * 1024
    assert float(checksum) > 0.0
    assert peak_bytes < MEMORY_CAP_BYTES

    dense_bytes = CHILD_NODES * int(CHILD_DURATION_S / 60.0) * 8
    write_json(tmp_path / "bench_sharded_memory.json", {
        "nodes": CHILD_NODES,
        "shard_nodes": CHILD_SHARD_NODES,
        "dense_matrix_bytes": dense_bytes,
        "cap_bytes": MEMORY_CAP_BYTES,
        "sharded_peak_rss_bytes": peak_bytes,
        "dense_exceeded_cap": True,
    })
    print(f"\nbounded-memory bench: dense needs {dense_bytes / 1e6:.0f} MB "
          f"(over the {MEMORY_CAP_BYTES / 1e6:.0f} MB cap, exit "
          f"{OOM_EXIT_CODE}); sharded peaked at {peak_bytes / 1e6:.0f} MB")


def test_sharded_engine_smoke_tiny_scale(tmp_path, monkeypatch):
    """CI smoke: sharded and dense agree end to end at a tiny fleet scale."""
    config = build_iris_snapshot_config(node_scale=0.02)
    dense = SnapshotExperiment(config).run()
    monkeypatch.setattr(experiment, "DENSE_TRACE_LIMIT_BYTES", NODE_ROW_BYTES)
    assert all(out_of_core(site, config) for site in config.sites)
    sharded = SnapshotExperiment(config, shard_dir=tmp_path,
                                 shard_key="smoke").run()
    _assert_equivalent(dense, sharded)
    assert sharded.total_best_estimate_kwh > 0
