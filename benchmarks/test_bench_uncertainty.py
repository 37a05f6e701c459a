"""Bench: the vectorized ensemble vs the per-sample Assessment oracle.

The acceptance bar for the uncertainty engine: a 10,000-sample ensemble
over the paper's input envelope (intensity x PUE x per-server embodied x
lifetime) must run at least 20x faster through the columnar analysis pass
than through the per-sample ``Assessment`` loop (the runner's fallback,
called here directly), while agreeing with it to <= 1e-9 relative on every
reported quantile — and the workload -> power substrate must be simulated
exactly once for the whole ensemble.

Run at 2% fleet scale so the oracle side stays affordable; both sides
share one warmed substrate cache, so the comparison isolates the analysis
stage (the part the ensemble actually multiplies by n).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import SubstrateCache, default_spec
from repro.io.jsonio import write_json
from repro.uncertainty import EnsembleRunner

SCALE = 0.02
SAMPLES = 10_000
SEED = 7
PROBS = (0.05, 0.25, 0.50, 0.75, 0.95)
RTOL = 1e-9


def _runner(cache: SubstrateCache) -> EnsembleRunner:
    # The paper's default envelope: triangular intensity and PUE, uniform
    # per-server embodied carbon, discrete lifetimes.
    return EnsembleRunner(default_spec(node_scale=SCALE), substrates=cache)


def test_bench_vectorized_vs_oracle(tmp_path):
    cache = SubstrateCache()
    runner = _runner(cache)
    # Warm the substrate so both sides time the analysis stage only.
    cache.snapshot(runner.spec.base)
    assert cache.snapshot_runs == 1

    start = time.perf_counter()
    active, embodied = runner._evaluate_oracle(runner.draw(SAMPLES, SEED))
    oracle_s = time.perf_counter() - start
    oracle = {"active_kg": active, "embodied_kg": embodied,
              "total_kg": active + embodied}

    start = time.perf_counter()
    vectorized = runner.run(n_samples=SAMPLES, seed=SEED)
    vectorized_s = time.perf_counter() - start
    assert vectorized.method == "vectorized"

    # The substrate was simulated exactly once for the whole ensemble
    # (both paths, all 20,000 evaluations).
    assert cache.snapshot_runs == 1

    # Same seed -> same sample matrix -> the two paths price identical
    # scenarios; every quantile of every metric must agree to <= 1e-9 rel.
    worst = 0.0
    for metric in ("active_kg", "embodied_kg", "total_kg"):
        expected = np.quantile(oracle[metric], PROBS)
        actual = np.quantile(vectorized.metric(metric), PROBS)
        rel = np.max(np.abs(actual - expected) / np.abs(expected))
        worst = max(worst, float(rel))
        assert rel <= RTOL, (
            f"{metric} quantiles diverge: {rel:.2e} > {RTOL:.0e} "
            f"({actual} vs {expected})")
    assert (vectorized.probability_embodied_exceeds_active
            == float((embodied > active).mean()))

    speedup = oracle_s / vectorized_s if vectorized_s > 0 else float("inf")
    assert speedup >= 20.0, (
        f"vectorized ensemble ({vectorized_s:.3f}s) not >= 20x faster than "
        f"the oracle ({oracle_s:.2f}s) at {SAMPLES} samples; "
        f"got {speedup:.1f}x")
    write_json(tmp_path / "bench_uncertainty.json", {
        "samples": SAMPLES,
        "node_scale": SCALE,
        "oracle_seconds": oracle_s,
        "vectorized_seconds": vectorized_s,
        "speedup": speedup,
        "worst_quantile_rel_error": worst,
        "snapshot_runs": cache.snapshot_runs,
    })
    print(f"\n{SAMPLES:,}-sample ensemble: oracle {oracle_s:.2f}s, "
          f"vectorized {vectorized_s:.3f}s ({speedup:.0f}x, worst quantile "
          f"rel err {worst:.1e})")


def test_bench_vectorized_ensemble_timing(benchmark):
    """Steady-state vectorized ensemble cost once the substrate is cached."""
    cache = SubstrateCache()
    runner = _runner(cache)
    runner.run(n_samples=64, seed=0)  # warm the cache

    result = benchmark(lambda: runner.run(n_samples=SAMPLES, seed=SEED))
    assert result.n_samples == SAMPLES
    assert cache.snapshot_runs == 1


def test_uncertainty_smoke_tiny_scale():
    """CI smoke: a small ensemble end to end, vectorized, one simulation."""
    cache = SubstrateCache()
    runner = _runner(cache)
    result = runner.run(n_samples=256, seed=3)
    assert result.method == "vectorized"
    assert cache.snapshot_runs == 1
    quantiles = result.quantiles("total_kg")
    assert quantiles["p05"] < quantiles["p50"] < quantiles["p95"]
    assert 0.0 <= result.probability_embodied_exceeds_active <= 1.0
