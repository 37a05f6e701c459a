"""The per-interval outcome of a time-resolved assessment.

A :class:`TemporalEmissionsProfile` holds, on one regular sampling grid,
the facility power, the grid intensity, the per-interval energy and carbon,
and their cumulative sums.  It is the temporal analogue of the snapshot
pipeline's single active-carbon number: summing its intervals recovers the
window total, while its shape shows *when* the carbon was emitted — the
information period-average accounting throws away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.timeseries.series import TimeSeries
from repro.units.constants import JOULES_PER_KWH


@dataclass(frozen=True)
class TemporalEmissionsProfile:
    """Time-resolved emissions on a regular interval grid.

    Attributes
    ----------
    start / step:
        The shared sampling grid (seconds since the campaign epoch /
        interval length in seconds).
    power_w:
        Facility power drawn during each interval (PUE already applied).
    intensity_g_per_kwh:
        Grid carbon intensity during each interval.
    energy_kwh:
        Energy drawn in each interval (``power × step``).
    carbon_kg:
        Carbon emitted in each interval (``energy × intensity``).
    """

    start: float
    step: float
    power_w: np.ndarray
    intensity_g_per_kwh: np.ndarray
    energy_kwh: np.ndarray
    carbon_kg: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("power_w", "intensity_g_per_kwh", "energy_kwh", "carbon_kg"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arrays[name] = arr
        n = len(arrays["power_w"])
        if n == 0:
            raise ValueError("a temporal profile needs at least one interval")
        if any(len(arr) != n for arr in arrays.values()):
            raise ValueError("all profile arrays must have the same length")
        if self.step <= 0:
            raise ValueError("step must be positive")
        for name, arr in arrays.items():
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- grid ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.energy_kwh)

    @property
    def times(self) -> np.ndarray:
        """Interval start timestamps (seconds since the campaign epoch)."""
        return self.start + self.step * np.arange(len(self), dtype=np.float64)

    @property
    def duration_s(self) -> float:
        return self.step * len(self)

    # -- cumulative views ----------------------------------------------------------

    @property
    def cumulative_energy_kwh(self) -> np.ndarray:
        return np.cumsum(self.energy_kwh)

    @property
    def cumulative_carbon_kg(self) -> np.ndarray:
        return np.cumsum(self.carbon_kg)

    # -- totals and intensity-weighted summaries ------------------------------------

    @property
    def total_energy_kwh(self) -> float:
        return float(np.sum(self.energy_kwh))

    @property
    def total_carbon_kg(self) -> float:
        return float(np.sum(self.carbon_kg))

    @property
    def mean_intensity_g_per_kwh(self) -> float:
        """Plain time average of the intensity over the window."""
        return float(np.mean(self.intensity_g_per_kwh))

    @property
    def experienced_intensity_g_per_kwh(self) -> float:
        """The energy-weighted intensity the facility actually experienced.

        Lower than the time average when consumption leans into clean
        intervals — the figure of merit for carbon-aware operation.
        """
        energy = self.total_energy_kwh
        if energy <= 0.0:
            return self.mean_intensity_g_per_kwh
        return self.total_carbon_kg * 1000.0 / energy

    @property
    def window_average_carbon_kg(self) -> float:
        """What period-average accounting would have reported.

        Total energy times the time-averaged intensity — the snapshot
        pipeline's treatment (equation 3 with a single CM value).
        """
        return self.total_energy_kwh * self.mean_intensity_g_per_kwh / 1000.0

    @property
    def temporal_correction_kg(self) -> float:
        """Time-resolved minus period-average carbon (signed)."""
        return self.total_carbon_kg - self.window_average_carbon_kg

    # -- series views ----------------------------------------------------------------

    def power_series(self) -> TimeSeries:
        return TimeSeries(self.start, self.step, self.power_w)

    def intensity_series(self) -> TimeSeries:
        return TimeSeries(self.start, self.step, self.intensity_g_per_kwh)

    def carbon_rate_series(self) -> TimeSeries:
        """Emission rate in kgCO2e/h — the natural series to plot."""
        return TimeSeries(
            self.start, self.step, self.carbon_kg * (3600.0 / self.step)
        )

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_power_and_intensity(
        cls,
        start: float,
        step: float,
        power_w: np.ndarray,
        intensity_g_per_kwh: np.ndarray,
    ) -> "TemporalEmissionsProfile":
        """Derive the energy and carbon arrays from power and intensity."""
        power_w = np.asarray(power_w, dtype=np.float64)
        intensity = np.asarray(intensity_g_per_kwh, dtype=np.float64)
        energy_kwh = power_w * (step / JOULES_PER_KWH)
        carbon_kg = energy_kwh * intensity / 1000.0
        return cls(
            start=start,
            step=step,
            power_w=power_w,
            intensity_g_per_kwh=intensity,
            energy_kwh=energy_kwh,
            carbon_kg=carbon_kg,
        )

    # -- serialisation ---------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """The headline figures as one flat dictionary."""
        return {
            "intervals": len(self),
            "step_s": self.step,
            "duration_hours": self.duration_s / 3600.0,
            "energy_kwh": self.total_energy_kwh,
            "carbon_kg": self.total_carbon_kg,
            "window_average_carbon_kg": self.window_average_carbon_kg,
            "temporal_correction_kg": self.temporal_correction_kg,
            "mean_intensity_g_per_kwh": self.mean_intensity_g_per_kwh,
            "experienced_intensity_g_per_kwh": self.experienced_intensity_g_per_kwh,
        }

    def interval_rows(self) -> List[Dict[str, float]]:
        """One row per interval (times in hours for readability)."""
        times = self.times
        cumulative = self.cumulative_carbon_kg
        return [
            {
                "hour": float(times[i] / 3600.0),
                "power_w": float(self.power_w[i]),
                "intensity_g_per_kwh": float(self.intensity_g_per_kwh[i]),
                "energy_kwh": float(self.energy_kwh[i]),
                "carbon_kg": float(self.carbon_kg[i]),
                "cumulative_carbon_kg": float(cumulative[i]),
            }
            for i in range(len(self))
        ]


__all__ = ["TemporalEmissionsProfile"]
