"""Bench: the vectorized trace integration vs the naive per-sample loop.

The acceptance bar for the time-resolved engine, from two sides:

* **speed** — integrating a 1-year hourly trace (8 760 intervals) with the
  vectorized hot path must be at least 5x faster than the per-sample Python
  loop it replaced (in practice it is orders of magnitude faster);
* **correctness** — the two paths must agree to machine precision, and on a
  constant-intensity trace the temporal engine's cumulative emissions must
  agree with the snapshot pipeline's window-average treatment within 1e-6
  relative tolerance.
"""

from __future__ import annotations

import time

import numpy as np

from oracles.temporal import integrate_power_intensity_naive

from repro.api import Assessment, SubstrateCache, TemporalAssessment, default_spec
from repro.grid.synthetic import SyntheticGridModel
from repro.io.jsonio import write_json
from repro.temporal.integrate import integrate_power_intensity
from repro.timeseries.series import TimeSeries

#: One year of hourly intervals — the resolution the acceptance bar names.
N_INTERVALS = 8760
STEP_S = 3600.0

#: Required speedup of the vectorized path over the naive loop.
REQUIRED_SPEEDUP = 5.0


def _year_traces() -> tuple:
    """A year-long hourly power trace and intensity trace (deterministic)."""
    rng = np.random.default_rng(2022)
    power = TimeSeries(0.0, STEP_S,
                       40_000.0 + 15_000.0 * rng.random(N_INTERVALS))
    intensity = SyntheticGridModel().generate_intensity(
        days=N_INTERVALS * STEP_S / 86400.0, step_s=STEP_S).series
    assert len(intensity) == N_INTERVALS
    return power, intensity


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_vectorized_integration_speedup(tmp_path):
    power, intensity = _year_traces()

    naive_s = _best_of(
        lambda: integrate_power_intensity_naive(power, intensity, pue=1.3),
        repeats=3)
    vectorized_s = _best_of(
        lambda: integrate_power_intensity(power, intensity, pue=1.3),
        repeats=20)

    speedup = naive_s / vectorized_s
    write_json(tmp_path / "bench_temporal_integration.json", {
        "intervals": N_INTERVALS,
        "naive_s": naive_s,
        "vectorized_s": vectorized_s,
        "speedup": speedup,
    })
    print(f"\n1-year hourly integration: naive {naive_s * 1e3:.2f} ms, "
          f"vectorized {vectorized_s * 1e3:.3f} ms, speedup {speedup:.0f}x")

    # Same physics before the speed claim: both paths agree everywhere.
    fast = integrate_power_intensity(power, intensity, pue=1.3)
    slow = integrate_power_intensity_naive(power, intensity, pue=1.3)
    np.testing.assert_allclose(fast.carbon_kg, slow.carbon_kg, rtol=1e-12)
    np.testing.assert_allclose(fast.cumulative_carbon_kg,
                               slow.cumulative_carbon_kg, rtol=1e-12)

    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized integration only {speedup:.1f}x faster than the naive "
        f"loop at {N_INTERVALS} intervals; required >= {REQUIRED_SPEEDUP}x")


def test_bench_temporal_agrees_with_snapshot_window_average():
    """Constant intensity: temporal cumulative == snapshot window average."""
    cache = SubstrateCache()
    spec = default_spec(node_scale=0.05, campaign_seed=7)  # fixed 175 g/kWh
    temporal = TemporalAssessment.from_spec(spec, substrates=cache).run()
    static = Assessment.from_spec(spec, substrates=cache).run()

    relative = abs(temporal.active_kg - static.active_kg) / static.active_kg
    print(f"\nconstant-intensity agreement: temporal {temporal.active_kg:.9f} kg, "
          f"window-average {static.active_kg:.9f} kg, rel diff {relative:.2e}")
    assert relative <= 1e-6
    # The cumulative curve ends at the total (up to summation order).
    assert np.isclose(temporal.profile.cumulative_carbon_kg[-1],
                      temporal.active_kg, rtol=1e-12)
