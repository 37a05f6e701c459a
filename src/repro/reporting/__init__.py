"""Reporting: tables, text figures, equivalence comparisons and the audit report.

The paper communicates its results as small tables, one time-series figure
and a set of "this is roughly N long-haul flights" comparisons.  This
package renders the library's result objects in the same forms, entirely as
text so reports can be printed from tests, benches and examples without a
plotting dependency.
"""

from repro.reporting.tables import format_table, format_kv_table
from repro.reporting.figures import ascii_line_chart, ascii_histogram
from repro.reporting.equivalents import (
    FLIGHT_KGCO2_PER_PASSENGER_HOUR,
    EquivalenceReport,
    flight_hours_equivalent,
    passenger_flight_days_equivalent,
)
from repro.reporting.report import AuditReport
from repro.reporting.temporal import (
    carbon_rate_chart,
    daily_emission_rows,
    intensity_band_rows,
)
from repro.reporting.uncertainty import (
    ensemble_histogram,
    ensemble_quantile_table,
    ensemble_summary_table,
    sensitivity_table,
    temporal_band_table,
)
from repro.reporting.portfolio import (
    placement_table,
    portfolio_site_table,
    portfolio_summary_table,
)
from repro.reporting.runs import (
    drift_table,
    run_details,
    runs_table,
)
from repro.reporting.serve import (
    serve_banner,
    serve_stats_table,
    shutdown_report,
)

__all__ = [
    "format_table",
    "format_kv_table",
    "ascii_line_chart",
    "ascii_histogram",
    "FLIGHT_KGCO2_PER_PASSENGER_HOUR",
    "EquivalenceReport",
    "flight_hours_equivalent",
    "passenger_flight_days_equivalent",
    "AuditReport",
    "carbon_rate_chart",
    "daily_emission_rows",
    "intensity_band_rows",
    "ensemble_histogram",
    "ensemble_quantile_table",
    "ensemble_summary_table",
    "sensitivity_table",
    "temporal_band_table",
    "placement_table",
    "portfolio_site_table",
    "portfolio_summary_table",
    "drift_table",
    "run_details",
    "runs_table",
    "serve_banner",
    "serve_stats_table",
    "shutdown_report",
]
