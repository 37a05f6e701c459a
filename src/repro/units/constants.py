"""Exact unit-definition constants shared by the quantity classes and the library.

Every constant is an exact definition (there is no empirical content here);
empirical factors such as per-fuel carbon intensities live in
:mod:`repro.grid.fuels` and the embodied-carbon factor tables live in
:mod:`repro.embodied.factors`.
"""

from __future__ import annotations

# --- time -----------------------------------------------------------------

SECONDS_PER_MINUTE: float = 60.0
SECONDS_PER_HOUR: float = 3600.0
SECONDS_PER_DAY: float = 86400.0
HOURS_PER_DAY: float = 24.0
DAYS_PER_YEAR: float = 365.0
HOURS_PER_YEAR: float = HOURS_PER_DAY * DAYS_PER_YEAR
SECONDS_PER_YEAR: float = SECONDS_PER_DAY * DAYS_PER_YEAR

# --- power ------------------------------------------------------------------

WATTS_PER_KILOWATT: float = 1_000.0
WATTS_PER_MEGAWATT: float = 1_000_000.0

# --- energy -----------------------------------------------------------------

JOULES_PER_WH: float = 3600.0
JOULES_PER_KWH: float = 3_600_000.0
KWH_PER_MWH: float = 1_000.0
WH_PER_KWH: float = 1_000.0

# --- mass -------------------------------------------------------------------

GRAMS_PER_KILOGRAM: float = 1_000.0
KILOGRAMS_PER_TONNE: float = 1_000.0
GRAMS_PER_TONNE: float = GRAMS_PER_KILOGRAM * KILOGRAMS_PER_TONNE

__all__ = [
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "HOURS_PER_DAY",
    "DAYS_PER_YEAR",
    "HOURS_PER_YEAR",
    "SECONDS_PER_YEAR",
    "WATTS_PER_KILOWATT",
    "WATTS_PER_MEGAWATT",
    "JOULES_PER_WH",
    "JOULES_PER_KWH",
    "KWH_PER_MWH",
    "WH_PER_KWH",
    "GRAMS_PER_KILOGRAM",
    "KILOGRAMS_PER_TONNE",
    "GRAMS_PER_TONNE",
]
