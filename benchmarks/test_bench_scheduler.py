"""Bench: the indexed scheduler loop vs the seed reference loop.

The reference loop is the oracle in ``tests/oracles/scheduler.py``.

The acceptance bar for the indexed engine is twofold:

* **Bit identity.**  At two fleet scales (a tenth-scale and the full
  2,462-node IRIS fleet, calibrated per-site targets) the indexed engine
  must produce exactly the reference loop's placement sequence — same
  jobs, same nodes, same start/end instants — plus identical statistics
  and final cluster state.  Not approximately: ``==``.
* **Speed under contention.**  The reference loop's superlinear terms
  (O(N) placement scans, O(Q) queue surgery, O(R log R) reservation
  sorts) only bite when jobs actually queue.  IRIS's calibrated
  utilisation targets (0.02–0.75) produce essentially zero queueing, so
  both engines are bound by shared per-job costs there and the honest
  comparison is a *contended* regime: full-scale sites pushed to a 0.9
  utilisation target, where blocked-head passes dominate the reference
  loop.  There the indexed engine must be at least **5x** faster.

A third measurement records the indexed engine's scaling headroom: a
32,768-node homogeneous cluster, where per-job cost must stay flat in
node count (the reference loop's per-placement cost grows linearly and
is not timed there — it is the regime the index exists to escape).
"""

from __future__ import annotations

import time

import pytest

from oracles import scheduler as oracle, use_reference_scheduler

from repro.io.jsonio import write_json
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment
from repro.workload.cluster import SimulatedCluster, SimulatedNode
from repro.workload.jobs import JobGenerator, WorkloadProfile
from repro.workload.scheduler import BackfillScheduler

#: The acceptance bar under contention (measured ~30x on a single-core
#: container at a 0.9 utilisation target; the gap widens with queue depth).
MIN_SPEEDUP = 5.0

#: Contended-regime utilisation target (vs IRIS's calibrated 0.02-0.75).
CONTENDED_TARGET = 0.9

#: Contended-regime sites, at full node scale over the paper's 24 h
#: window.  The subset keeps the reference loop's single pass within a
#: CI-friendly half-minute — over all six sites it takes ~3.5 minutes
#: (the STFC sites' many narrow nodes produce the deepest queues), which
#: would dominate the benchmark job for no extra information.
CONTENDED_SITES = ("QMUL", "DUR", "IMP")

#: The 32k-node scaling point: indexed per-job cost must stay flat in N.
SCALING_NODES = (4096, 32768)
SCALING_CORES_PER_NODE = 8

#: Per-job cost at 32k nodes may be at most this multiple of the 4k cost.
MAX_PER_JOB_GROWTH = 2.5

TIMING_REPEATS = 2


def _site_workloads(config, target_utilization=None):
    """One (site, cluster, jobs) triple per site, generated once.

    With ``target_utilization`` set, every site's calibrated target is
    replaced by the contended value; job streams are otherwise exactly
    what :meth:`SnapshotExperiment.run_site` would schedule.
    """
    experiment = SnapshotExperiment(config)
    workloads = []
    for site in config.sites:
        node_ids, specs = experiment._site_specs(site)
        target = experiment._site_target_utilization(site, specs)
        if target_utilization is not None:
            target = target_utilization
        cluster = experiment._build_cluster(node_ids, specs)
        profile = WorkloadProfile(
            target_utilization=min(max(target, 0.01), 1.0),
            cpu_intensity_low=1.0, cpu_intensity_high=1.0)
        generator = JobGenerator(
            profile, cluster.total_cores, seed=site.workload_seed,
            max_cores_per_job=min(node.cores for node in cluster.nodes))
        jobs = generator.generate(config.duration_s,
                                  warmup_s=config.warmup_hours * 3600.0)
        workloads.append((site, cluster, jobs))
    return workloads


#: The two loops under comparison.
ENGINES = {"reference": oracle.run, "indexed": BackfillScheduler.run}


def _run_engine(config, workloads, engine):
    """Schedule every site through one loop; returns per-site outcomes."""
    run = ENGINES[engine]
    outcomes = []
    for site, cluster, jobs in workloads:
        scheduler = BackfillScheduler(cluster)
        placements, stats = run(scheduler, jobs, config.duration_s)
        outcomes.append((site.site, placements, stats,
                         [node.free_cores for node in cluster.nodes]))
    return outcomes


def _assert_bit_identical(reference, indexed):
    """The tentpole contract: exact equality, site by site."""
    assert len(reference) == len(indexed)
    for ref, idx in zip(reference, indexed):
        assert ref[0] == idx[0]
        assert idx[1] == ref[1], f"{ref[0]}: placement sequences differ"
        assert idx[2].as_dict() == ref[2].as_dict(), (
            f"{ref[0]}: scheduler statistics differ")
        assert idx[3] == ref[3], f"{ref[0]}: final cluster state differs"


def _best_time(fn, repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_pass(config, workloads, engine):
    """One timed scheduling pass; the outcomes double as the identity data.

    The reference loop takes tens of seconds over the contended fleet, so
    unlike the cheaper benches this one times a single pass per engine and
    reuses it for the bit-identity assertion instead of re-running.
    """
    start = time.perf_counter()
    outcomes = _run_engine(config, workloads, engine)
    return time.perf_counter() - start, outcomes


@pytest.mark.parametrize("node_scale", [0.1, 1.0])
def test_bench_scheduler_bit_identity_calibrated(node_scale):
    """Identical placements at tenth and full scale, calibrated targets."""
    config = build_iris_snapshot_config(node_scale=node_scale)
    workloads = _site_workloads(config)
    reference = _run_engine(config, workloads, "reference")
    indexed = _run_engine(config, workloads, "indexed")
    _assert_bit_identical(reference, indexed)
    assert sum(len(outcome[1]) for outcome in indexed) > 0


def test_bench_scheduler_speedup_contended(results_dir):
    """Full node scale at a 0.9 utilisation target: >= 5x, bit-identical."""
    config = build_iris_snapshot_config(node_scale=1.0,
                                        sites=CONTENDED_SITES)
    workloads = _site_workloads(config, target_utilization=CONTENDED_TARGET)

    reference_s, reference = _timed_pass(config, workloads, "reference")
    indexed_s, indexed = _timed_pass(config, workloads, "indexed")
    speedup = reference_s / indexed_s if indexed_s > 0 else float("inf")

    _assert_bit_identical(reference, indexed)
    jobs_started = sum(outcome[2].jobs_started for outcome in indexed)
    backfilled = sum(outcome[2].backfilled_jobs for outcome in indexed)
    assert backfilled > 0, "contended regime must exercise backfill"

    # The calibrated (contention-free) regime, recorded for honesty: both
    # engines are bound by shared per-job costs there, so the speedup is
    # modest — the superlinear terms the index removes only show up once
    # jobs queue.
    calibrated = _site_workloads(config)
    calibrated_reference_s, calibrated_ref = _timed_pass(
        config, calibrated, "reference")
    calibrated_indexed_s, calibrated_idx = _timed_pass(
        config, calibrated, "indexed")
    _assert_bit_identical(calibrated_ref, calibrated_idx)

    scaling = _scaling_points()
    write_json(results_dir / "bench_scheduler.json", {
        "contended": {
            "node_scale": 1.0,
            "sites": list(CONTENDED_SITES),
            "duration_hours": config.duration_hours,
            "target_utilization": CONTENDED_TARGET,
            "jobs_started": jobs_started,
            "backfilled_jobs": backfilled,
            "reference_seconds": reference_s,
            "indexed_seconds": indexed_s,
            "speedup": speedup,
        },
        "calibrated": {
            "node_scale": 1.0,
            "sites": list(CONTENDED_SITES),
            "duration_hours": config.duration_hours,
            "reference_seconds": calibrated_reference_s,
            "indexed_seconds": calibrated_indexed_s,
            "speedup": (calibrated_reference_s / calibrated_indexed_s
                        if calibrated_indexed_s > 0 else float("inf")),
        },
        "scaling_indexed": scaling,
    })
    print(f"\nscheduler engines, {'/'.join(CONTENDED_SITES)} at target "
          f"{CONTENDED_TARGET}: reference {reference_s:.3f}s, "
          f"indexed {indexed_s:.3f}s ({speedup:.1f}x); calibrated regime "
          f"{calibrated_reference_s:.3f}s vs {calibrated_indexed_s:.3f}s")
    for point in scaling:
        print(f"indexed scaling: {point['nodes']} nodes, "
              f"{point['jobs_started']} jobs, "
              f"{point['us_per_job']:.1f}us/job")

    assert speedup >= MIN_SPEEDUP, (
        f"indexed engine only {speedup:.2f}x faster than the reference "
        f"loop under contention (bar: {MIN_SPEEDUP}x; reference "
        f"{reference_s:.3f}s, indexed {indexed_s:.3f}s)")

    ratio = scaling[-1]["us_per_job"] / scaling[0]["us_per_job"]
    assert ratio <= MAX_PER_JOB_GROWTH, (
        f"indexed per-job cost grew {ratio:.2f}x from "
        f"{SCALING_NODES[0]} to {SCALING_NODES[-1]} nodes "
        f"(bar: {MAX_PER_JOB_GROWTH}x)")


def _scaling_points():
    """Indexed per-job cost on homogeneous clusters of growing node count."""
    points = []
    for node_count in SCALING_NODES:
        cluster = SimulatedCluster([
            SimulatedNode(index=i, node_id=f"n{i}",
                          cores=SCALING_CORES_PER_NODE,
                          free_cores=SCALING_CORES_PER_NODE)
            for i in range(node_count)
        ])
        profile = WorkloadProfile(target_utilization=0.5,
                                  mean_cores_per_job=6.0,
                                  median_runtime_s=3600.0)
        jobs = JobGenerator(profile, cluster.total_cores, seed=3,
                            max_cores_per_job=SCALING_CORES_PER_NODE
                            ).generate(duration_s=2 * 3600.0)
        scheduler = BackfillScheduler(cluster)
        seconds = _best_time(lambda: scheduler.run(jobs, 2 * 3600.0))
        _, stats = scheduler.run(jobs, 2 * 3600.0)
        points.append({
            "nodes": node_count,
            "cores_per_node": SCALING_CORES_PER_NODE,
            "jobs_started": stats.jobs_started,
            "indexed_seconds": seconds,
            "us_per_job": 1e6 * seconds / max(stats.jobs_started, 1),
        })
    return points


def test_scheduler_engine_smoke_tiny_scale(monkeypatch):
    """CI smoke: end-to-end snapshot equality between the two loops.

    Runs in a couple of seconds; the loops being bit-identical at the
    scheduler layer must propagate to *exactly* equal Table 2 energies.
    """
    config = build_iris_snapshot_config(node_scale=0.02)
    indexed = SnapshotExperiment(config).run()
    use_reference_scheduler(monkeypatch)
    reference = SnapshotExperiment(config).run()
    assert indexed.table2_rows() == reference.table2_rows()
    assert (indexed.total_best_estimate_kwh
            == reference.total_best_estimate_kwh)
    assert indexed.total_best_estimate_kwh > 0
