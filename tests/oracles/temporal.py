"""The per-sample temporal integration loop.

:func:`integrate_power_intensity_naive` is the readable reference
semantics of :func:`repro.temporal.integrate.integrate_power_intensity`:
same inputs, same outputs, one plain Python iteration per interval.  The
vectorised path must match it exactly.
"""

from __future__ import annotations

from repro.temporal.integrate import _check_shared_grid
from repro.temporal.profile import TemporalEmissionsProfile
from repro.timeseries.series import TimeSeries
from repro.units.constants import JOULES_PER_KWH


def integrate_power_intensity_naive(
    power_w: TimeSeries,
    intensity_g_per_kwh: TimeSeries,
    *,
    pue: float = 1.0,
) -> TemporalEmissionsProfile:
    """Energy and carbon per interval, one sample at a time."""
    if pue < 1.0:
        raise ValueError("pue must be at least 1.0")
    _check_shared_grid(power_w, intensity_g_per_kwh)
    step = power_w.step
    facility_w = []
    energy_kwh = []
    carbon_kg = []
    for p, ci in zip(power_w.values.tolist(),
                     intensity_g_per_kwh.values.tolist()):
        watts = p * pue
        kwh = watts * step / JOULES_PER_KWH
        facility_w.append(watts)
        energy_kwh.append(kwh)
        carbon_kg.append(kwh * ci / 1000.0)
    return TemporalEmissionsProfile(
        start=power_w.start,
        step=step,
        power_w=facility_w,
        intensity_g_per_kwh=intensity_g_per_kwh.values,
        energy_kwh=energy_kwh,
        carbon_kg=carbon_kg,
    )


__all__ = ["integrate_power_intensity_naive"]
