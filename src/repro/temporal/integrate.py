"""Integrating a power trace against a carbon-intensity trace.

This is the hot path of the time-resolved engine: for every interval of a
shared grid, energy = power × step and carbon = energy × intensity, plus
the cumulative sums.  At one year of hourly samples (8 760 intervals) — or
a month of minute samples (43 200) — a per-sample Python loop dominates a
sweep's runtime, so the production path is pure bulk numpy.

The per-sample loop it replaced is kept in ``tests/oracles/temporal.py``:
it is the readable reference semantics, the oracle the unit tests
cross-validate against, and the baseline the benchmark
(``benchmarks/test_bench_temporal.py``) measures the required ≥5x speedup
over.
"""

from __future__ import annotations

from repro.temporal.profile import TemporalEmissionsProfile
from repro.timeseries.series import TimeSeries, TimeSeriesError


def _check_shared_grid(power_w: TimeSeries, intensity: TimeSeries) -> None:
    if len(power_w) != len(intensity):
        raise TimeSeriesError(
            f"power and intensity must share a grid: {len(power_w)} vs "
            f"{len(intensity)} samples; align them first "
            "(repro.temporal.align.align_power_and_intensity)"
        )
    if abs(power_w.step - intensity.step) > 1e-9 * max(power_w.step, intensity.step):
        raise TimeSeriesError(
            f"power and intensity must share a step: {power_w.step} vs "
            f"{intensity.step} seconds; align them first"
        )
    if abs(power_w.start - intensity.start) > 1e-6 * max(1.0, abs(power_w.start)):
        raise TimeSeriesError(
            f"power and intensity must share a start: {power_w.start} vs "
            f"{intensity.start}; align them first"
        )


def integrate_power_intensity(
    power_w: TimeSeries,
    intensity_g_per_kwh: TimeSeries,
    *,
    pue: float = 1.0,
) -> TemporalEmissionsProfile:
    """Time-resolved emissions for a power trace priced by an intensity trace.

    Parameters
    ----------
    power_w:
        IT power per interval, in watts, on the shared grid.
    intensity_g_per_kwh:
        Grid carbon intensity per interval, on the same grid.
    pue:
        Facility overhead multiplier applied to the power (>= 1.0); the
        same PUE treatment as the snapshot pipeline's active term.

    The whole computation is vectorised; no per-sample Python loop runs.
    """
    if pue < 1.0:
        raise ValueError("pue must be at least 1.0")
    _check_shared_grid(power_w, intensity_g_per_kwh)
    facility_w = power_w.values * pue
    return TemporalEmissionsProfile.from_power_and_intensity(
        start=power_w.start,
        step=power_w.step,
        power_w=facility_w,
        intensity_g_per_kwh=intensity_g_per_kwh.values,
    )


__all__ = ["integrate_power_intensity"]
