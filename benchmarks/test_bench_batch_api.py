"""Bench: the batch scenario engine vs naive loop-of-experiments.

The acceptance bar for the unified API: a 12-scenario sweep (intensity x
PUE x lifetime) over shared cached substrates must be demonstrably faster
than 12 independent ``SnapshotExperiment`` runs, because the expensive
simulation happens once instead of 12 times.  Run at 5% fleet scale so the
naive side stays affordable; the relative speedup only grows with scale.
"""

from __future__ import annotations

import time

from repro.api import BatchAssessmentRunner, SubstrateCache, default_spec
from repro.io.jsonio import write_json
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment

SCALE = 0.05
INTENSITIES = (50.0, 175.0, 300.0)
PUES = (1.1, 1.3)
LIFETIMES = (3.0, 5.0)


def _naive_scenarios() -> list:
    """One full SnapshotExperiment run per scenario — the pre-api pattern."""
    totals = []
    for intensity in INTENSITIES:
        for pue in PUES:
            for lifetime in LIFETIMES:
                config = build_iris_snapshot_config(node_scale=SCALE)
                snapshot = SnapshotExperiment(config).run()
                result = snapshot.evaluate_model(
                    carbon_intensity_g_per_kwh=intensity, pue=pue,
                    lifetime_years=lifetime)
                totals.append(result.total_kg)
    return totals


def _batched_scenarios() -> tuple:
    cache = SubstrateCache()
    runner = BatchAssessmentRunner(default_spec(node_scale=SCALE), substrates=cache)
    batch = runner.sweep(intensity=INTENSITIES, pue=PUES, lifetime=LIFETIMES)
    return batch, cache


def test_bench_batch_vs_naive(tmp_path):
    start = time.perf_counter()
    naive_totals = _naive_scenarios()
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    batch, cache = _batched_scenarios()
    batch_s = time.perf_counter() - start

    assert len(naive_totals) == len(batch) == 12
    # Same physics: scenario for scenario, the answers agree exactly
    # (sweep order is intensity, then pue, then lifetime on both sides).
    assert batch.totals_kg == naive_totals
    # The primary assertion is structural, not wall-clock: one simulation
    # backed all twelve scenarios while the naive loop ran twelve.
    assert cache.snapshot_runs == 1
    # Wall clock only gets a conservative floor (typically ~5x is measured;
    # asserting anywhere near that is flaky on loaded CI machines).
    speedup = naive_s / batch_s if batch_s > 0 else float("inf")
    assert speedup >= 1.5, (
        f"batch sweep ({batch_s:.2f}s) not meaningfully faster than the "
        f"naive loop ({naive_s:.2f}s); speedup {speedup:.2f}x < 1.5x floor")
    write_json(tmp_path / "bench_batch_api.json", {
        "scenarios": len(batch),
        "node_scale": SCALE,
        "naive_seconds": naive_s,
        "batch_seconds": batch_s,
        "speedup": speedup,
        "snapshot_runs_batch": cache.snapshot_runs,
        "snapshot_runs_naive": len(naive_totals),
    })
    print(f"\n12-scenario sweep: naive {naive_s:.2f}s, "
          f"batched {batch_s:.2f}s ({speedup:.1f}x)")


def test_bench_batch_sweep_timing(benchmark):
    """Steady-state sweep cost once the substrate is cached."""
    cache = SubstrateCache()
    runner = BatchAssessmentRunner(default_spec(node_scale=SCALE), substrates=cache)
    runner.sweep(intensity=[175.0])  # warm the cache

    def sweep():
        return runner.sweep(intensity=INTENSITIES, pue=PUES, lifetime=LIFETIMES)

    batch = benchmark(sweep)
    assert len(batch) == 12
    assert cache.snapshot_runs == 1
