"""Bench: the columnar sweep compiler vs the per-spec reference loop.

The reference loop is the oracle in ``tests/oracles/batch.py``.

The acceptance bar for the compiled batch engine is twofold:

* **Bit identity.**  Over a 1,000-point analysis-only grid (intensity ×
  PUE × lifetime × per-server embodied — one physical configuration, so
  one simulation) the columnar engine must reproduce the reference
  loop's results exactly: identical ordering, serialised summary rows
  byte-identical, totals within 1e-12 (they are in fact bit-equal — the
  kernel replays the reference float operations in operand order).
* **Speed on the warm substrate.**  Both engines share one pre-simulated
  substrate, so the timing isolates the analysis stage the compiler
  vectorises: the reference loop pays ~1,000 Python ``Assessment``
  evaluations (per-point component resolution, per-asset embodied
  accumulation), the columnar engine one planning pass plus one
  vectorised kernel pass.  The bar is **10x**; measured ~40x on a
  single-core container, widening with grid size.

A second measurement sweeps a mixed grid (a fallback axis alongside
columnar ones) to record the planner's partitioned cost profile, and the
tiny-scale smoke is the CI entry point pinning cross-engine equality
end to end.
"""

from __future__ import annotations

import json
import time

from oracles import batch as oracle

from repro.api import BatchAssessmentRunner, SubstrateCache, default_spec
from repro.io.jsonio import write_json

#: The acceptance bar on a warm substrate (measured ~40x single-core).
MIN_SPEEDUP = 10.0

#: Cross-engine agreement tolerance demanded by the acceptance criteria;
#: the engines are in fact bit-identical and the rows byte-identical.
TOLERANCE = 1e-12

#: One physical configuration: the whole grid costs one simulation.
NODE_SCALE = 0.1

TIMING_REPEATS = 2


def _analysis_grid() -> dict:
    """A 10 x 5 x 5 x 4 = 1,000-point analysis-only grid."""
    return dict(
        intensity=[20.0 * (i + 1) for i in range(10)],
        pue=[1.05, 1.15, 1.3, 1.45, 1.6],
        lifetime=[3.0, 4.0, 5.0, 6.0, 7.0],
        per_server_kgco2=[900.0, 1100.0, 1318.0, 1500.0],
    )


def _best_time(fn, repeats: int = TIMING_REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _canonical_rows(batch):
    return [json.dumps(row, sort_keys=True) for row in batch.as_rows()]


def test_bench_sweep_columnar_speedup(results_dir):
    """1,000 analysis-only points, one warm substrate: >= 10x, bit-identical."""
    substrates = SubstrateCache()
    base = default_spec(node_scale=NODE_SCALE)
    substrates.snapshot(base)  # warm: simulation excluded from both timings
    assert substrates.snapshot_runs == 1

    axes = _analysis_grid()
    columnar = BatchAssessmentRunner(base, substrates=substrates)
    specs = columnar.grid_specs(**axes)
    assert len(specs) == 1000
    assert len({spec.physical_key() for spec in specs}) == 1

    reference_s, reference_batch = _best_time(
        lambda: oracle.sweep(columnar, **axes))
    columnar_s, columnar_batch = _best_time(lambda: columnar.sweep(**axes))
    speedup = reference_s / columnar_s if columnar_s > 0 else float("inf")

    # The whole grid still cost exactly the one warm-up simulation.
    assert substrates.snapshot_runs == 1

    assert _canonical_rows(columnar_batch) == _canonical_rows(reference_batch)
    for col, ref in zip(columnar_batch, reference_batch):
        assert abs(col.total_kg - ref.total_kg) <= TOLERANCE * max(
            1.0, abs(ref.total_kg))

    mixed_axes = dict(
        intensity=[50.0, 175.0, 300.0],
        pue=[1.1, 1.3],
        amortization=["linear", "utilization-weighted"],
    )
    mixed_columnar_s, mixed_col = _best_time(
        lambda: columnar.sweep(**mixed_axes))
    mixed_reference_s, mixed_ref = _best_time(
        lambda: oracle.sweep(columnar, **mixed_axes))
    assert _canonical_rows(mixed_col) == _canonical_rows(mixed_ref)

    write_json(results_dir / "bench_sweep.json", {
        "analysis_grid": {
            "node_scale": NODE_SCALE,
            "points": len(specs),
            "physical_groups": 1,
            "snapshot_runs": substrates.snapshot_runs,
            "reference_seconds": reference_s,
            "columnar_seconds": columnar_s,
            "speedup": speedup,
            "per_point_us_reference": 1e6 * reference_s / len(specs),
            "per_point_us_columnar": 1e6 * columnar_s / len(specs),
        },
        "mixed_grid": {
            "points": len(mixed_col),
            "fallback_points": sum(
                1 for spec in columnar.grid_specs(**mixed_axes)
                if spec.amortization != "linear"),
            "reference_seconds": mixed_reference_s,
            "columnar_seconds": mixed_columnar_s,
            "speedup": (mixed_reference_s / mixed_columnar_s
                        if mixed_columnar_s > 0 else float("inf")),
        },
    })
    print(f"\nsweep engines, {len(specs)} points at scale {NODE_SCALE}: "
          f"reference {reference_s:.3f}s, columnar {columnar_s:.3f}s "
          f"({speedup:.1f}x); mixed grid {mixed_reference_s:.3f}s vs "
          f"{mixed_columnar_s:.3f}s")

    assert speedup >= MIN_SPEEDUP, (
        f"columnar engine only {speedup:.2f}x faster than the reference "
        f"loop on a warm {len(specs)}-point grid (bar: {MIN_SPEEDUP}x; "
        f"reference {reference_s:.3f}s, columnar {columnar_s:.3f}s)")


def test_sweep_compiler_smoke_tiny_scale():
    """CI smoke: cross-engine equality end to end at tiny scale.

    Runs in a couple of seconds; the grid mixes columnar axes with a
    fallback point so both execution paths are exercised.
    """
    substrates = SubstrateCache()
    base = default_spec(node_scale=0.02)
    axes = dict(intensity=[50.0, 175.0], pue=[1.1, 1.3],
                amortization=["linear", "utilization-weighted"])
    runner = BatchAssessmentRunner(base, substrates=substrates)
    columnar = runner.sweep(**axes)
    reference = oracle.sweep(runner, **axes)
    assert substrates.snapshot_runs == 1
    assert _canonical_rows(columnar) == _canonical_rows(reference)
    assert all(result.total_kg > 0 for result in columnar)
