"""Command-line interface for the audit pipeline.

Installed as ``python -m repro``.  The subcommands mirror the paper's
evaluation artefacts so the whole reproduction can be driven without writing
any Python:

``assess``
    The canonical entry point: run the unified assessment pipeline from a
    JSON spec file (``--spec``) and/or inline overrides, printing the
    result as a table, JSON or CSV.
``temporal``
    Run the time-resolved assessment engine: align the facility power
    trace with the grid-intensity trace, integrate energy × intensity per
    interval, and report per-day, per-band and intensity-weighted results
    (plus carbon-aware what-ifs via ``--shift-hours``/``--defer-fraction``).
``inventory``
    Print the Table 1 hardware inventory.
``intensity``
    Print the Figure 1 synthetic GB grid-intensity summary (and optionally
    the text chart).
``snapshot``
    An alias of ``assess``, kept for the simulated IRIS measurement
    campaign (Table 2) and carbon model workflow it used to name.
``scenarios``
    Print the Table 3 (active) and Table 4 (embodied) scenario grids for a
    given energy total and fleet size.
``uncertainty``
    Run the vectorized uncertainty engine: a seeded ensemble over the
    spec's distribution-aware fields (``--spec``/``--scale``), with
    quantile tables, sensitivity ranking (``--sensitivity``) and
    time-resolved emission bands (``--temporal``).  Without a spec it
    runs the paper's closed-form input envelope, as it always did.
``portfolio``
    Run a federated multi-site portfolio from a JSON
    :class:`~repro.portfolio.spec.PortfolioSpec` (``--spec``): per-site
    and rolled-up totals over one shared substrate cache, plus the
    marginal-placement ranking (``--rank-placement``, snapshot or
    ``--carbon-aware`` intensities).
``runs``
    Query the run catalog (see :mod:`repro.catalog`): ``list``, ``find``,
    ``show``, ``diff`` (CI's drift tripwire — exits 1 beyond tolerance)
    and ``gc``.  The catalog itself is populated by passing ``--catalog
    PATH`` (optionally with repeatable ``--tag``) to ``assess``,
    ``temporal``, ``uncertainty`` or ``portfolio``; a repeated run of a
    catalogued spec is then *served* from the catalog without simulating.

Scenario arguments are validated at parse time (``--scale`` in (0, 1],
``--pue`` >= 1.0) so mistakes produce a one-line usage error instead of a
stack trace from the model layer.  Later mistakes — conflicting flags, a
spec that cannot load, a spec the model rejects — raise
:class:`_UsageError`, which :func:`main` prints as one stderr line before
returning 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from repro.api import (
    Assessment,
    AssessmentResult,
    AssessmentSpec,
    TemporalAssessment,
    active_scenario_rows,
    default_spec,
    embodied_scenario_rows,
)
from repro.catalog.schema import CatalogError
from repro.grid.synthetic import uk_november_2022_intensity
from repro.inventory.iris import (
    IRIS_IMPLIED_SERVER_COUNT,
    PAPER_TABLE2_TOTAL_KWH,
    iris_inventory_table,
)
from repro.io.csvio import write_rows_csv
from repro.io.jsonio import json_default as _json_default
from repro.reporting.figures import ascii_line_chart
from repro.reporting.tables import format_kv_table, format_table
from repro.reporting.temporal import (
    carbon_rate_chart,
    daily_emission_rows,
    intensity_band_rows,
)


class _UsageError(Exception):
    """A user mistake reported as a one-line stderr message + exit code 2."""


@contextmanager
def _usage_errors(*kinds: type, prefix: str = ""):
    """Re-raise the listed exception types from the block as usage errors."""
    try:
        yield
    except kinds as exc:
        raise _UsageError(f"{prefix}{exc}") from exc


# --------------------------------------------------------------------------
# parse-time validators
# --------------------------------------------------------------------------

def _float_argument(predicate, message: str):
    """An argparse ``type=`` validator: float that must satisfy ``predicate``."""

    def _parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not predicate(value):
            raise argparse.ArgumentTypeError(f"{message}, got {value}")
        return value

    return _parse


_scale_argument = _float_argument(lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")
_pue_argument = _float_argument(lambda v: v >= 1.0, "must be at least 1.0")
_positive_argument = _float_argument(lambda v: v > 0, "must be positive")
_fraction_argument = _float_argument(lambda v: 0.0 <= v < 1.0, "must be in [0, 1)")


def _add_catalog_arguments(parser: argparse.ArgumentParser) -> None:
    """The run-catalog opt-in shared by the run-producing subcommands."""
    parser.add_argument("--catalog", type=Path, default=None,
                        help="record this run into the run catalog at this "
                             "path (created if missing); a repeat of a "
                             "catalogued spec is served without simulating")
    parser.add_argument("--tag", action="append", default=None, metavar="TAG",
                        help="tag the catalogued run (repeatable; "
                             "requires --catalog)")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Output, substrate and catalog options shared by the run subcommands."""
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format (default: table)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the output to this file instead of stdout")
    parser.add_argument("--substrate-cache-dir", type=Path, default=None,
                        help="persist simulated snapshots here so full-scale "
                             "runs are paid once per machine")
    _add_catalog_arguments(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Total environmental impact accounting for computing infrastructures",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    assess = subparsers.add_parser(
        "assess", aliases=["snapshot"],
        help="run the unified assessment pipeline (the canonical entry point)")
    assess.add_argument("--spec", type=Path, default=None,
                        help="JSON AssessmentSpec file to start from")
    assess.add_argument("--scale", type=_scale_argument, default=None,
                        help="node-count scale factor in (0, 1]")
    assess.add_argument("--intensity", type=float, default=None,
                        help="grid carbon intensity (gCO2e/kWh) for the model")
    assess.add_argument("--grid", type=str, default=None,
                        help="registered grid provider to derive the intensity from")
    assess.add_argument("--pue", type=_pue_argument, default=None,
                        help="PUE for the facility overhead (>= 1.0)")
    assess.add_argument("--lifetime", type=_positive_argument, default=None,
                        help="amortisation lifetime in years")
    assess.add_argument("--per-server-kg", type=_positive_argument, default=None,
                        help="uniform per-server embodied carbon override (kgCO2e)")
    assess.add_argument("--amortization", type=str, default=None,
                        help="registered amortisation policy name")
    assess.add_argument("--output-dir", type=Path, default=None,
                        help="directory to write the regenerated tables as CSV")
    assess.add_argument("--timings", action="store_true",
                        help="report per-site simulation phase timings "
                             "(calibration/workload/schedule/trace/power "
                             "wall seconds; "
                             "table or json format only)")
    assess.add_argument("--sweep", action="append", default=None,
                        metavar="AXIS=V1,V2,...",
                        help="sweep an axis over comma-separated values "
                             "(repeatable; axes: intensity, pue, lifetime, "
                             "per_server_kgco2, scale, amortization, grid, "
                             "embodied_estimator); runs the whole cartesian "
                             "grid through the batch runner and emits one "
                             "summary row per scenario")
    _add_run_arguments(assess)

    temporal = subparsers.add_parser(
        "temporal", help="run the time-resolved assessment engine")
    temporal.add_argument("--spec", type=Path, default=None,
                          help="JSON AssessmentSpec file to start from")
    temporal.add_argument("--scale", type=_scale_argument, default=None,
                          help="node-count scale factor in (0, 1]")
    temporal.add_argument("--grid", type=str, default=None,
                          help="registered grid provider supplying the intensity trace")
    temporal.add_argument("--intensity", type=float, default=None,
                          help="fixed grid carbon intensity (gCO2e/kWh) instead of a trace")
    temporal.add_argument("--pue", type=_pue_argument, default=None,
                          help="PUE for the facility overhead (>= 1.0)")
    temporal.add_argument("--trace-source", type=str, default=None,
                          help="registered power-trace provider (default: measured)")
    temporal.add_argument("--resolution", type=_positive_argument, default=None,
                          help="temporal resolution in seconds (default: automatic)")
    temporal.add_argument("--alignment", choices=("strict", "resample", "intersect"),
                          default=None, help="trace alignment policy")
    temporal.add_argument("--shift-hours", type=float, default=None,
                          help="circularly shift the workload by this many hours")
    temporal.add_argument("--defer-fraction", type=_fraction_argument, default=None,
                          help="fraction of dirty-interval energy deferred, in [0, 1)")
    temporal.add_argument("--chart", action="store_true",
                          help="also print the ASCII emission-rate chart")
    _add_run_arguments(temporal)

    subparsers.add_parser("inventory", help="print the Table 1 hardware inventory")

    intensity = subparsers.add_parser(
        "intensity", help="summarise the synthetic Figure 1 grid-intensity month")
    intensity.add_argument("--days", type=float, default=30.0,
                           help="length of the generated window in days")
    intensity.add_argument("--chart", action="store_true",
                           help="also print the ASCII chart")

    scenarios = subparsers.add_parser(
        "scenarios", help="print the Table 3 and Table 4 scenario grids")
    scenarios.add_argument("--energy-kwh", type=float, default=PAPER_TABLE2_TOTAL_KWH,
                           help="measured IT energy for the period (kWh)")
    scenarios.add_argument("--servers", type=int, default=IRIS_IMPLIED_SERVER_COUNT,
                           help="number of servers carrying embodied carbon")
    scenarios.add_argument("--period-hours", type=float, default=24.0,
                           help="evaluation period length in hours")

    uncertainty = subparsers.add_parser(
        "uncertainty",
        help="seeded ensemble over distribution-aware spec fields")
    uncertainty.add_argument("--spec", type=Path, default=None,
                             help="JSON spec; samplable numeric fields may "
                                  "hold distribution objects "
                                  '(e.g. {"dist": "triangular", ...})')
    uncertainty.add_argument("--scale", type=_scale_argument, default=None,
                             help="node-count scale factor in (0, 1]; with "
                                  "no --spec, runs the paper's default "
                                  "envelope on the simulated snapshot")
    uncertainty.add_argument("--samples", type=int, default=20000,
                             help="ensemble size (default: 20000)")
    uncertainty.add_argument("--seed", type=int, default=0,
                             help="ensemble seed (runs are bit-reproducible)")
    uncertainty.add_argument("--sensitivity", action="store_true",
                             help="also print the one-at-a-time sensitivity "
                                  "ranking of the sampled fields")
    uncertainty.add_argument("--histogram", action="store_true",
                             help="also print the ASCII total-kg histogram "
                                  "(table format only)")
    uncertainty.add_argument("--temporal", action="store_true",
                             help="time-resolved ensemble: emission bands "
                                  "over the window instead of period totals")
    uncertainty.add_argument("--energy-kwh", type=float, default=None,
                             help="paper mode: closed-form ensemble for this "
                                  "measured energy (no simulation)")
    uncertainty.add_argument("--servers", type=int, default=None,
                             help="paper mode: server count for the "
                                  "closed-form embodied term")
    _add_run_arguments(uncertainty)

    portfolio = subparsers.add_parser(
        "portfolio",
        help="run a federated multi-site portfolio assessment")
    portfolio.add_argument("--spec", type=Path, required=True,
                           help="JSON PortfolioSpec file: named members, "
                                "each a full assessment spec plus a region "
                                "binding and a load share")
    portfolio.add_argument("--rank-placement", action="store_true",
                           help="also print/emit the marginal-placement "
                                "ranking (which site takes extra load "
                                "cheapest)")
    portfolio.add_argument("--load-kwh", type=_positive_argument, default=None,
                           help="marginal load for --rank-placement in kWh "
                                "(default: 1000)")
    portfolio.add_argument("--carbon-aware", action="store_true",
                           help="rank placement at each site's clean-hour "
                                "intensity instead of the snapshot average")
    _add_run_arguments(portfolio)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived assessment server (HTTP + JSON)")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8035,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8035)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker threads executing requests concurrently "
                            "(default: 4)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="admitted requests allowed to wait beyond the "
                            "workers before new arrivals get 429 "
                            "(default: 16)")
    serve.add_argument("--request-timeout", type=_positive_argument,
                       default=None, metavar="SECONDS",
                       help="per-request wall-clock budget before the "
                            "server answers 504 (default: 300)")
    serve.add_argument("--max-substrates", type=int, default=None,
                       help="bound on cached substrates held in memory "
                            "(default: the shared-cache bound)")
    serve.add_argument("--substrate-cache-dir", type=Path, default=None,
                       help="persist simulated snapshots here so restarts "
                            "do not re-simulate")
    serve.add_argument("--plugin", action="append", default=None,
                       metavar="MODULE",
                       help="import this module at startup to register "
                            "components (repeatable; POST /reload "
                            "re-imports them without a restart)")
    _add_catalog_arguments(serve)

    from repro.catalog.cli import add_runs_parser

    add_runs_parser(subparsers)

    return parser


# --------------------------------------------------------------------------
# shared assessment helpers
# --------------------------------------------------------------------------

def _build_catalog_recorder(args: argparse.Namespace, *, serve: bool = True):
    """A CatalogRecorder from --catalog/--tag, or None when not requested.

    ``serve=False`` still records the run but never serves from the
    catalog — used when the subcommand's output needs live result objects
    (CSV/table renderers, the Table 3/4 CSV export) that a served payload
    cannot reconstruct.
    """
    catalog = args.catalog
    tags = args.tag or []
    if catalog is None:
        if tags:
            raise _UsageError("--tag requires --catalog")
        return None
    from repro.catalog import CatalogRecorder

    return CatalogRecorder(catalog, tags=tuple(tags), serve=serve)


def _build_substrates(args: argparse.Namespace):
    """A SubstrateCache from --substrate-cache-dir, or None for shared."""
    if args.substrate_cache_dir is None:
        return None
    from repro.api import SubstrateCache

    return SubstrateCache(persist_dir=args.substrate_cache_dir)


def _assessment_tables_text(result: AssessmentResult) -> str:
    """The human-readable assessment output."""
    table2 = format_table(
        result.table2_rows(),
        columns=["site", "facility", "pdu", "ipmi", "turbostat", "nodes"],
        title="Table 2 - Active energy measured for the snapshot period (kWh)",
    )
    model = format_kv_table({
        "carbon intensity gCO2/kWh": result.spec.carbon_intensity_g_per_kwh,
        "pue": result.spec.pue,
        "active kgCO2e": result.active_kg,
        "embodied kgCO2e": result.embodied_kg,
        "total kgCO2e": result.total_kg,
        "embodied fraction": result.embodied_fraction,
    }, title="Carbon model (equation 1)", float_format=",.2f")
    return (f"{table2}\n"
            f"\nTotal best-estimate energy: {result.energy_kwh:,.0f} kWh "
            f"(paper: {PAPER_TABLE2_TOTAL_KWH:,.0f} kWh at full scale)\n"
            f"\n{model}")


def _write_assessment_tables(result: AssessmentResult, output_dir: Path) -> None:
    write_rows_csv(output_dir / "table2_energy.csv", result.table2_rows())
    write_rows_csv(output_dir / "table3_active_carbon.csv", result.table3_rows())
    write_rows_csv(output_dir / "table4_embodied.csv", result.table4_rows())
    print(f"\nWrote tables to {output_dir}")


def _emit(text: str, output: Optional[Path]) -> None:
    if output is None:
        print(text)
    else:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n", encoding="utf-8")
        print(f"Wrote {output}")


def _emit_rows_csv(rows, output: Optional[Path]) -> None:
    """Write summary rows as CSV to ``output``, or to stdout."""
    if output is not None:
        write_rows_csv(output, rows)
        print(f"Wrote {output}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(list(rows[0]))
        for row in rows:
            writer.writerow(list(row.values()))


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------

def _load_spec(spec_path: Optional[Path]) -> AssessmentSpec:
    """Load a spec file, or the default spec; raises :class:`_UsageError`
    on an unreadable or invalid file."""
    with _usage_errors(OSError, ValueError, TypeError,
                       prefix="cannot load spec: "):
        return AssessmentSpec.from_json(spec_path) if spec_path else default_spec()


def _scenario_overrides(args: argparse.Namespace) -> dict:
    """The scale/grid/intensity/pue overrides shared by assess and temporal."""
    if args.grid is not None and args.intensity is not None:
        raise _UsageError(
            "--grid and --intensity conflict: a fixed intensity "
            "would override the provider; pass one or the other")
    overrides = {}
    if args.scale is not None:
        overrides["node_scale"] = args.scale
    if args.grid is not None:
        overrides["grid"] = args.grid
        overrides["carbon_intensity_g_per_kwh"] = None
    if args.intensity is not None:
        if args.intensity < 0:
            raise _UsageError("--intensity must be non-negative")
        overrides["carbon_intensity_g_per_kwh"] = args.intensity
    if args.pue is not None:
        overrides["pue"] = args.pue
    return overrides


def _parse_sweep_axes(entries: Sequence[str]) -> dict:
    """Parse repeatable ``--sweep AXIS=V1,V2,...`` flags into sweep axes.

    Values parse as floats when they can (intensity, pue, ...) and stay
    strings otherwise (grid / amortization / estimator names); axis-name
    validation is the batch runner's job.
    """
    axes: dict = {}
    for entry in entries:
        name, sep, values_text = entry.partition("=")
        name = name.strip()
        if not sep or not name or not values_text.strip():
            raise _UsageError(
                f"--sweep expects AXIS=V1,V2,..., got {entry!r}")
        if name in axes:
            raise _UsageError(f"--sweep axis {name!r} given more than once")
        values = []
        for text in values_text.split(","):
            text = text.strip()
            if not text:
                raise _UsageError(
                    f"--sweep axis {name!r} has an empty value in {entry!r}")
            try:
                values.append(float(text))
            except ValueError:
                values.append(text)
        axes[name] = values
    return axes


def _run_sweep(args: argparse.Namespace, spec: AssessmentSpec,
               substrates, recorder, axes: dict) -> int:
    """The ``assess --sweep`` mode: a whole grid, one summary row per point."""
    from repro.api import BatchAssessmentRunner

    runner = BatchAssessmentRunner(spec, substrates=substrates,
                                   catalog=recorder)
    batch = runner.sweep(**axes)
    rows = batch.as_rows()
    if args.format == "table":
        _emit(format_table(
            rows, title=f"Sweep ({len(rows)} scenarios)",
            float_format=",.6g"), args.output)
    elif args.format == "json":
        _emit(json.dumps(rows, indent=2, default=_json_default,
                         sort_keys=True), args.output)
    else:  # csv
        _emit_rows_csv(rows, args.output)
    return 0


def _timings_table_text(timings: dict) -> str:
    """Render per-site phase timings as a table (plus a fleet total row)."""
    if not timings:
        return ("(no phase timings recorded: snapshot served from a cache "
                "written before timings existed)")
    phases = ["calibration_s", "workload_s", "schedule_s", "trace_s", "power_s",
              "total_s"]
    rows = []
    for site, site_timings in timings.items():
        row = {"site": site}
        row.update({phase: site_timings.get(phase, 0.0) for phase in phases})
        rows.append(row)
    total = {"site": "TOTAL"}
    for phase in phases:
        total[phase] = sum(row[phase] for row in rows)
    rows.append(total)
    return format_table(rows, columns=["site"] + phases,
                        title="Per-site simulation wall-clock (s)",
                        float_format=",.3f")


def _cmd_assess(args: argparse.Namespace) -> int:
    if args.timings and args.format == "csv":
        raise _UsageError(
            "--timings is not available with --format csv "
            "(use table or json)")
    if args.sweep:
        if args.timings:
            raise _UsageError(
                "--timings is not available with --sweep "
                "(it reads one run's snapshot)")
        if args.output_dir is not None:
            raise _UsageError(
                "--output-dir is not available with --sweep "
                "(it exports one run's tables)")
    sweep_axes = _parse_sweep_axes(args.sweep) if args.sweep else None
    overrides = _scenario_overrides(args)
    substrates = _build_substrates(args)
    # The Table 3/4 CSV export needs the live snapshot, so --output-dir
    # downgrades the catalog to record-only; --timings too (a served
    # payload carries no snapshot to read timings from).
    recorder = _build_catalog_recorder(
        args, serve=args.output_dir is None and not args.timings)
    spec = _load_spec(args.spec)
    if args.lifetime is not None:
        overrides["lifetime_years"] = args.lifetime
    if args.per_server_kg is not None:
        overrides["per_server_kgco2"] = args.per_server_kg
    if args.amortization is not None:
        overrides["amortization"] = args.amortization
    with _usage_errors(KeyError, ValueError, CatalogError):
        spec = spec.replace(**overrides) if overrides else spec
        if sweep_axes is not None:
            return _run_sweep(args, spec, substrates, recorder, sweep_axes)
        result = Assessment.from_spec(spec, substrates=substrates,
                                      catalog=recorder).run()

    if args.format == "table":
        text = _assessment_tables_text(result)
        if args.timings:
            text += "\n\n" + _timings_table_text(result.snapshot.timings)
        _emit(text, args.output)
    elif args.format == "json":
        payload = result.as_dict()
        if args.timings:
            # Diagnostic wall-clock only: attached to the printed payload,
            # never to as_dict() itself (which feeds digests and goldens).
            payload["timings"] = {
                site: dict(phases)
                for site, phases in result.snapshot.timings.items()
            }
        _emit(json.dumps(payload, indent=2, default=_json_default,
                         sort_keys=True), args.output)
    else:  # csv
        _emit_rows_csv([result.summary()], args.output)
    if args.output_dir is not None:
        _write_assessment_tables(result, args.output_dir)
    return 0


def _cmd_temporal(args: argparse.Namespace) -> int:
    overrides = _scenario_overrides(args)
    substrates = _build_substrates(args)
    # Table/CSV/chart renderers need the live profile object; only the
    # JSON view is exactly the recorded payload, so only it serves.
    recorder = _build_catalog_recorder(
        args, serve=args.format == "json" and not args.chart)
    spec = _load_spec(args.spec)
    if args.trace_source is not None:
        overrides["trace_source"] = args.trace_source
    if args.resolution is not None:
        overrides["temporal_resolution_s"] = args.resolution
    if args.alignment is not None:
        overrides["alignment"] = args.alignment
    if args.shift_hours is not None:
        overrides["shift_hours"] = args.shift_hours
    if args.defer_fraction is not None:
        overrides["defer_fraction"] = args.defer_fraction
    with _usage_errors(KeyError, ValueError, TypeError, CatalogError):
        spec = spec.replace(**overrides) if overrides else spec
        result = TemporalAssessment.from_spec(
            spec, substrates=substrates, catalog=recorder).run()

    if args.format == "table":
        parts = []
        if args.chart:
            parts.append(carbon_rate_chart(result.profile) + "\n")
        summary = result.summary()
        parts.append(format_kv_table(
            {key: summary[key] for key in (
                "grid", "trace_source", "resolution_s", "intervals",
                "shift_hours", "defer_fraction", "pue", "energy_kwh",
                "mean_intensity_g_per_kwh", "experienced_intensity_g_per_kwh",
                "active_kg", "window_average_active_kg",
                "temporal_correction_kg", "savings_kg", "embodied_kg",
                "total_kg",
            )},
            title="Time-resolved assessment", float_format=",.3f"))
        daily = daily_emission_rows(result.profile)
        parts.append("\n" + format_table(
            daily,
            columns=["day", "hours", "energy_kwh", "carbon_kg",
                     "mean_intensity_g_per_kwh",
                     "experienced_intensity_g_per_kwh"],
            title="Per-day emissions", float_format=",.2f"))
        bands = intensity_band_rows(result.profile)
        parts.append("\n" + format_table(
            bands,
            columns=["band", "share_of_time", "energy_kwh", "carbon_kg",
                     "share_of_carbon"],
            title="Carbon by grid-intensity band", float_format=",.3f"))
        _emit("\n".join(parts), args.output)
    elif args.format == "json":
        _emit(json.dumps(result.as_dict(), indent=2, default=_json_default,
                         sort_keys=True), args.output)
    else:  # csv
        _emit_rows_csv([result.summary()], args.output)
    return 0


def _cmd_inventory(_args: argparse.Namespace) -> int:
    print(format_table(iris_inventory_table(),
                       title="Table 1 - IRIS hardware included in the project",
                       float_format=",.0f"))
    return 0


def _cmd_intensity(args: argparse.Namespace) -> int:
    if args.days <= 0:
        raise _UsageError("--days must be positive")
    series = uk_november_2022_intensity(days=args.days)
    if args.chart:
        print(ascii_line_chart(series.series.values, width=72, height=14,
                               title="GB grid carbon intensity (synthetic)",
                               y_label="gCO2e/kWh"))
        print()
    references = series.reference_values()
    print(format_kv_table({
        "window days": args.days,
        "samples": len(series.series),
        "minimum gCO2/kWh": series.min_intensity().g_per_kwh,
        "low reference (5th pct)": references["low"].g_per_kwh,
        "medium reference (mean)": references["medium"].g_per_kwh,
        "high reference (95th pct)": references["high"].g_per_kwh,
        "maximum gCO2/kWh": series.max_intensity().g_per_kwh,
    }, title="Figure 1 summary"))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.energy_kwh < 0 or args.servers <= 0 or args.period_hours <= 0:
        raise _UsageError("energy must be >= 0, servers and period positive")
    print(format_table(
        active_scenario_rows(args.energy_kwh, args.period_hours),
        columns=["intensity_level", "intensity_g_per_kwh", "pue", "carbon_kg"],
        title=f"Table 3 - Active carbon for {args.energy_kwh:,.0f} kWh (kgCO2e)",
    ))
    print()
    print(format_table(
        embodied_scenario_rows(args.servers, args.period_hours),
        title=f"Table 4 - Embodied carbon for {args.servers} servers (kgCO2e)",
        float_format=",.2f",
    ))
    return 0


def _load_uncertain_spec(args: argparse.Namespace):
    """The UncertainSpec for the ensemble modes.

    A spec file whose fields carry distribution objects is taken as is; a
    plain spec file (or bare ``--scale``) gets a default envelope attached
    — the paper's input envelope, or a trace scale/shift envelope for
    ``--temporal`` — so ``repro uncertainty --scale 0.05`` works out of
    the box.  The bare ``--temporal`` default derives its intensity from
    the spec's grid *trace* (not the fixed reference intensity), so the
    timing-error axis actually moves the answer; a plain spec file that
    pins a constant intensity only gets the scale axis, since shifting a
    constant trace is a no-op.
    """
    from repro.api.spec import AssessmentSpec
    from repro.io.jsonio import read_json
    from repro.uncertainty import (
        Normal, UncertainSpec, paper_default_distributions)
    from repro.uncertainty.distributions import DIST_KEY

    def default_envelope(base: AssessmentSpec):
        if args.temporal:
            # Is the intensity feed biased, and is its timing off?
            envelope = {
                "intensity_scale": Normal(1.0, 0.1, low=0.5, high=1.5)}
            if base.carbon_intensity_g_per_kwh is None:
                envelope["intensity_shift_hours"] = Normal(
                    0.0, 1.0, low=-6.0, high=6.0)
            return envelope
        return paper_default_distributions()

    if args.spec is not None:
        data = read_json(args.spec)
        if not isinstance(data, dict):
            raise ValueError(f"{args.spec}: a spec must be a JSON object")
        has_distributions = any(
            isinstance(value, dict) and DIST_KEY in value
            for value in data.values())
        if has_distributions:
            spec = UncertainSpec.from_dict(data)
        else:
            base = AssessmentSpec.from_dict(data)
            spec = UncertainSpec(base=base,
                                 distributions=default_envelope(base))
    else:
        base = (default_spec(carbon_intensity_g_per_kwh=None)
                if args.temporal else default_spec())
        spec = UncertainSpec(base=base,
                             distributions=default_envelope(base))
    if args.scale is not None:
        spec = spec.replace(node_scale=args.scale)
    return spec


def _cmd_uncertainty_paper(args: argparse.Namespace) -> int:
    """The closed-form paper mode: no simulation, equation 1 arithmetic."""
    from repro.core.uncertainty import (
        UncertainInput, closed_form_draws, summarise_closed_form)

    energy_kwh = (args.energy_kwh if args.energy_kwh is not None
                  else PAPER_TABLE2_TOTAL_KWH)
    servers = args.servers if args.servers is not None else IRIS_IMPLIED_SERVER_COUNT
    if energy_kwh < 0 or servers <= 0:
        raise _UsageError("--energy-kwh must be >= 0 and --servers positive")
    draws = closed_form_draws(UncertainInput(), energy_kwh, servers,
                              period_days=1.0, n_samples=args.samples,
                              seed=args.seed)
    result = summarise_closed_form(draws)
    if args.format == "json":
        _emit(json.dumps(result.as_dict(), indent=2, sort_keys=True),
              args.output)
    elif args.format == "csv":
        _emit_rows_csv([result.as_dict()], args.output)
    else:
        _emit(format_kv_table(
            result.as_dict(),
            title="Monte-Carlo uncertainty over the paper's input ranges",
            float_format=",.3f"), args.output)
    return 0


def _cmd_uncertainty(args: argparse.Namespace) -> int:
    if args.samples <= 0:
        raise _UsageError("--samples must be positive")
    if args.temporal:
        # Static-ensemble-only flags must not be silently dropped.
        static_only = [
            label for label, given in (
                ("--sensitivity", args.sensitivity),
                ("--histogram", args.histogram),
            ) if given
        ]
        if static_only:
            raise _UsageError(f"{', '.join(static_only)} only valid for the "
                              "static ensemble, not --temporal")
    # Paper mode: explicit closed-form inputs, or no spec/scale at all
    # (the subcommand's historical default behaviour).
    spec_mode = args.spec is not None or args.scale is not None or args.temporal
    if args.energy_kwh is not None or args.servers is not None:
        if spec_mode:
            raise _UsageError(
                "--energy-kwh/--servers (closed-form paper mode) conflict "
                "with --spec/--scale/--temporal (simulated ensemble); pass "
                "one or the other")
    if not spec_mode:
        # Ensemble-only flags must not be silently dropped in paper mode.
        ensemble_only = [
            label for label, given in (
                ("--sensitivity", args.sensitivity),
                ("--histogram", args.histogram),
                ("--substrate-cache-dir", args.substrate_cache_dir is not None),
                ("--catalog", args.catalog is not None),
                ("--tag", bool(args.tag)),
            ) if given
        ]
        if ensemble_only:
            raise _UsageError(f"{', '.join(ensemble_only)} only valid for the "
                              "simulated ensemble; pass --spec or --scale")
        return _cmd_uncertainty_paper(args)

    from repro.reporting.uncertainty import (
        ensemble_histogram,
        ensemble_quantile_table,
        ensemble_summary_table,
        sensitivity_table,
        temporal_band_table,
    )
    from repro.uncertainty import EnsembleRunner, TemporalEnsembleRunner

    substrates = _build_substrates(args)
    # Quantile/band table and CSV renderers need the live result
    # (sample matrices); only the JSON view serves from the catalog.
    recorder = _build_catalog_recorder(args, serve=args.format == "json")
    with _usage_errors(OSError, KeyError, ValueError, TypeError,
                       prefix="cannot load spec: "):
        spec = _load_uncertain_spec(args)

    runner_cls = TemporalEnsembleRunner if args.temporal else EnsembleRunner
    with _usage_errors(KeyError, ValueError, TypeError, CatalogError):
        runner = runner_cls(spec, substrates=substrates, catalog=recorder)
        result = runner.run(n_samples=args.samples, seed=args.seed)

    sensitivity_rows = None
    if args.sensitivity:
        sensitivity_rows = runner.sensitivity(n_samples=args.samples,
                                              seed=args.seed)

    if args.format == "json":
        payload = result.as_dict()
        if sensitivity_rows is not None:
            payload["sensitivity"] = sensitivity_rows
        _emit(json.dumps(payload, indent=2, default=_json_default,
                         sort_keys=True), args.output)
    elif args.format == "csv":
        rows = (result.band_rows() if args.temporal
                else result.quantile_rows())
        _emit_rows_csv(rows, args.output)
    else:
        parts = []
        if args.temporal:
            parts.append(format_kv_table(
                result.summary(),
                title=f"Temporal ensemble over {', '.join(result.samples.fields)}",
                float_format=",.3f"))
            parts.append("\n" + temporal_band_table(result))
        else:
            parts.append(ensemble_summary_table(result))
            parts.append("\n" + ensemble_quantile_table(result))
            if args.histogram:
                parts.append("\n" + ensemble_histogram(result))
        if sensitivity_rows is not None:
            parts.append("\n" + sensitivity_table(sensitivity_rows))
        _emit("\n".join(parts), args.output)
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.portfolio import DEFAULT_PLACEMENT_LOAD_KWH, PortfolioRunner, PortfolioSpec
    from repro.reporting.portfolio import (
        placement_table,
        portfolio_site_table,
        portfolio_summary_table,
    )

    placement_flags = [
        label for label, given in (
            ("--load-kwh", args.load_kwh is not None),
            ("--carbon-aware", args.carbon_aware),
        ) if given
    ]
    if placement_flags and not args.rank_placement:
        raise _UsageError(f"{', '.join(placement_flags)} only valid with "
                          "--rank-placement")
    substrates = _build_substrates(args)
    # The recorded payload prices placement at the default marginal
    # load, and the table renderers need live member results — so only
    # the default-load JSON view serves from the catalog.
    recorder = _build_catalog_recorder(
        args, serve=args.format == "json" and args.load_kwh is None)
    with _usage_errors(OSError, KeyError, ValueError, TypeError,
                       prefix="cannot load spec: "):
        spec = PortfolioSpec.from_json(args.spec)
    with _usage_errors(KeyError, ValueError, TypeError, CatalogError):
        result = PortfolioRunner(spec, substrates=substrates,
                                 catalog=recorder).run()

    load_kwh = (args.load_kwh if args.load_kwh is not None
                else DEFAULT_PLACEMENT_LOAD_KWH)
    if args.format == "table":
        parts = [portfolio_site_table(result), "\n" + portfolio_summary_table(result)]
        if args.rank_placement:
            parts.append("\n" + placement_table(
                result, load_kwh, carbon_aware=args.carbon_aware))
        _emit("\n".join(parts), args.output)
    elif args.format == "json":
        document = (result.as_dict()
                    if getattr(result, "served_from_catalog", False)
                    else result.as_dict(load_kwh))
        _emit(json.dumps(document, indent=2,
                         default=_json_default, sort_keys=True), args.output)
    else:  # csv
        rows = (result.placement_rows(load_kwh, carbon_aware=args.carbon_aware)
                if args.rank_placement else result.site_rows())
        _emit_rows_csv(rows, args.output)
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.catalog.cli import cmd_runs

    return cmd_runs(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.reporting.serve import serve_banner, shutdown_report
    from repro.serve import ServeConfig
    from repro.serve.http import serve_forever

    overrides = {
        "workers": args.workers,
        "queue_limit": args.queue_limit,
        "request_timeout_s": args.request_timeout,
        "max_substrates": args.max_substrates,
    }
    if args.tag and args.catalog is None:
        raise _UsageError("--tag requires --catalog")
    with _usage_errors(ValueError):
        config = ServeConfig(
            host=args.host,
            port=args.port,
            substrate_cache_dir=args.substrate_cache_dir,
            catalog=args.catalog,
            tags=tuple(args.tag or ()),
            plugins=tuple(args.plugin or ()),
            **{key: value for key, value in overrides.items()
               if value is not None},
        )

    def banner(server) -> None:
        print(serve_banner(server.address, config), flush=True)

    outcome = serve_forever(config, banner=banner)
    print(f"\n{shutdown_report(outcome)}")
    return 0 if outcome["clean_drain"] else 1


_COMMANDS = {
    "assess": _cmd_assess,
    "temporal": _cmd_temporal,
    "inventory": _cmd_inventory,
    "intensity": _cmd_intensity,
    "snapshot": _cmd_assess,
    "scenarios": _cmd_scenarios,
    "uncertainty": _cmd_uncertainty,
    "portfolio": _cmd_portfolio,
    "serve": _cmd_serve,
    "runs": _cmd_runs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = ["main"]
