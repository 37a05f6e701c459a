"""Physical quantities and unit constants used throughout :mod:`repro`.

The carbon model of the paper mixes several families of units:

* **Energy** — joules, watt-hours, kilowatt-hours, megawatt-hours.
* **Power** — watts, kilowatts, megawatts.
* **Mass of CO2-equivalent** — grams, kilograms, tonnes.
* **Carbon intensity** — grams of CO2e per kilowatt-hour.
* **Time** — seconds, minutes, hours, days, years.

Mixing these up silently (kWh vs MWh, g vs kg) is by far the most common
source of error in carbon accounting tools, so the library funnels every
externally supplied number through the small, dependency-free quantity
classes defined here.  Each quantity stores a single canonical float (SI-ish
base unit) and exposes named accessors for the other units, plus the natural
arithmetic (energy = power x time, carbon = energy x intensity, ...).

The classes are deliberately lightweight (``__slots__``-based, hashable,
totally ordered) so that they can be used inside hot loops and numpy-facing
code without measurable overhead; bulk numeric work is always done on plain
numpy arrays and converted to quantities only at API boundaries.
"""

from repro.units.quantities import (
    Carbon,
    CarbonIntensity,
    Duration,
    Energy,
    Power,
    UnitError,
)
from repro.units.constants import (
    GRAMS_PER_KILOGRAM,
    GRAMS_PER_TONNE,
    HOURS_PER_DAY,
    HOURS_PER_YEAR,
    JOULES_PER_KWH,
    JOULES_PER_WH,
    KILOGRAMS_PER_TONNE,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
    SECONDS_PER_YEAR,
    WATTS_PER_KILOWATT,
    WATTS_PER_MEGAWATT,
)

__all__ = [
    "Carbon",
    "CarbonIntensity",
    "Duration",
    "Energy",
    "Power",
    "UnitError",
    "GRAMS_PER_KILOGRAM",
    "GRAMS_PER_TONNE",
    "HOURS_PER_DAY",
    "HOURS_PER_YEAR",
    "JOULES_PER_KWH",
    "JOULES_PER_WH",
    "KILOGRAMS_PER_TONNE",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_YEAR",
    "WATTS_PER_KILOWATT",
    "WATTS_PER_MEGAWATT",
]
