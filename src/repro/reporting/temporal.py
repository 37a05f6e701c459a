"""Rendering time-resolved assessment results.

The temporal engine's output is a per-interval profile; reports need it in
coarser forms: per-day rows (the day-to-day variation of Figure 1 carried
through to emissions), per-intensity-band rows (how much carbon was emitted
while the grid was clean vs. dirty) and a chart of the emission rate.  The
intensity-weighted headline figures are
:meth:`~repro.temporal.profile.TemporalEmissionsProfile.summary`.  All
rendering stays text-only, like the rest of :mod:`repro.reporting`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.grid.intensity import IntensityBand, band_index_array
from repro.reporting.figures import ascii_line_chart
from repro.temporal.profile import TemporalEmissionsProfile

SECONDS_PER_DAY = 86400.0


def daily_emission_rows(profile: TemporalEmissionsProfile) -> List[Dict[str, float]]:
    """One row per whole day: energy, carbon and the two intensity views.

    A trailing partial day is reported as its own row (flagged by a
    fractional ``hours`` figure) so short windows still produce output.
    """
    per_day = max(int(round(SECONDS_PER_DAY / profile.step)), 1)
    n = len(profile)
    rows: List[Dict[str, float]] = []
    for start in range(0, n, per_day):
        stop = min(start + per_day, n)
        energy = float(np.sum(profile.energy_kwh[start:stop]))
        carbon = float(np.sum(profile.carbon_kg[start:stop]))
        mean_intensity = float(np.mean(profile.intensity_g_per_kwh[start:stop]))
        experienced = carbon * 1000.0 / energy if energy > 0 else mean_intensity
        rows.append({
            "day": start // per_day,
            "hours": (stop - start) * profile.step / 3600.0,
            "energy_kwh": energy,
            "carbon_kg": carbon,
            "mean_intensity_g_per_kwh": mean_intensity,
            "experienced_intensity_g_per_kwh": experienced,
        })
    return rows


def intensity_band_rows(profile: TemporalEmissionsProfile) -> List[Dict[str, object]]:
    """Carbon and energy grouped by qualitative grid-intensity band.

    Shows where the window's carbon actually came from: a fleet that leans
    into clean intervals emits most of its carbon in the low bands even
    when the grid spends time in the high ones.
    """
    bands = tuple(IntensityBand)
    indices = band_index_array(profile.intensity_g_per_kwh)
    counts = np.bincount(indices, minlength=len(bands))
    energy = np.bincount(indices, weights=profile.energy_kwh,
                         minlength=len(bands))
    carbon = np.bincount(indices, weights=profile.carbon_kg,
                         minlength=len(bands))
    total_carbon = profile.total_carbon_kg
    return [
        {
            "band": band.value,
            "share_of_time": counts[index] / len(profile),
            "energy_kwh": float(energy[index]),
            "carbon_kg": float(carbon[index]),
            "share_of_carbon": (float(carbon[index]) / total_carbon
                                if total_carbon > 0 else 0.0),
        }
        for index, band in enumerate(bands)
        if counts[index]
    ]


def carbon_rate_chart(
    profile: TemporalEmissionsProfile,
    width: int = 72,
    height: int = 12,
) -> str:
    """An ASCII chart of the emission rate (kgCO2e/h) over the window."""
    return ascii_line_chart(
        profile.carbon_rate_series().values,
        width=width,
        height=height,
        title="Emission rate over the window",
        y_label="kgCO2e/h",
    )


__all__ = [
    "daily_emission_rows",
    "intensity_band_rows",
    "carbon_rate_chart",
]
