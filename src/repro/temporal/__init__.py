"""Time-resolved carbon assessment.

The snapshot pipeline treats the measurement window as one lump: total
energy times one (period-average) carbon intensity.  Operational carbon is
inherently temporal, though — grid intensity and facility power both vary
hour by hour — so this package provides the time-resolved treatment:

* :mod:`repro.temporal.align` brings a facility power trace and a grid
  carbon-intensity series onto one sampling grid under an explicit
  alignment policy (``strict``, ``resample`` or ``intersect``);
* :mod:`repro.temporal.integrate` integrates energy × intensity per
  interval with a vectorised hot path;
* :class:`~repro.temporal.profile.TemporalEmissionsProfile` carries the
  per-interval and cumulative results;
* :mod:`repro.temporal.scenarios` implements the carbon-aware operation
  levers the paper motivates — time-shifting and load deferral — as
  energy-conserving trace transforms.

Most callers should go through the :class:`repro.api.TemporalAssessment`
façade, which drives this package from a declarative
:class:`~repro.api.spec.AssessmentSpec`.
"""

from repro.temporal.align import (
    ALIGNMENT_POLICIES,
    align_power_and_intensity,
)
from repro.temporal.integrate import integrate_power_intensity
from repro.temporal.profile import TemporalEmissionsProfile
from repro.temporal.scenarios import defer_load, time_shift

__all__ = [
    "ALIGNMENT_POLICIES",
    "align_power_and_intensity",
    "integrate_power_intensity",
    "TemporalEmissionsProfile",
    "defer_load",
    "time_shift",
]
