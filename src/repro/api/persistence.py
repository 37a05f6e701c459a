"""On-disk persistence of simulated snapshots.

A full-scale IRIS simulation is the expensive part of every assessment; the
in-process :class:`~repro.api.substrates.SubstrateCache` already makes N
scenarios cost one simulation, but the result still dies with the process.
This module serialises a complete
:class:`~repro.snapshot.experiment.SnapshotResult` to a pair of files —

* ``<digest>.npz`` — the numeric bulk: each site's wall-power trace and
  per-node utilisation vector;
* ``<digest>.json`` — everything else: the snapshot configuration, the
  per-site energy reports and readings, scheduler statistics, node→model
  assignments;

keyed by a SHA-256 digest of the spec's *physical* fields (plus the
resolved inventory factory's identity and a format version), so a
full-scale simulation is paid once per machine rather than once per
process.  Writes are atomic (temp file + rename); unreadable or
version-mismatched cache entries are treated as misses, never as errors.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.hashing import digest_document
from repro.power.campaign import SiteEnergyReport
from repro.power.instruments import InstrumentReading
from repro.snapshot.config import SiteSnapshotConfig, SnapshotConfig
from repro.snapshot.experiment import SiteSnapshotResult, SnapshotResult
from repro.timeseries.series import TimeSeries
from repro.workload.scheduler import SchedulerStatistics

#: Bump when the serialised layout changes; old entries become misses.
SNAPSHOT_CACHE_VERSION = 1


def snapshot_digest(physical_key: Tuple[Any, ...], factory: Any) -> str:
    """A stable content key for one physical configuration.

    Includes the resolved inventory factory's module and qualified name so
    two processes registering *different* sources under one name generally
    do not share cache entries.  The identity must be stable across
    processes, so it never includes ``repr`` (which can embed memory
    addresses); factories without a ``__qualname__`` (e.g.
    ``functools.partial`` objects) fall back to their type's name, which
    means distinct such factories at the same location share a digest —
    if you register exotic factories with differing behaviour under one
    name, give each configuration its own cache directory.
    """
    module = getattr(factory, "__module__", None) or type(factory).__module__
    qualname = (getattr(factory, "__qualname__", None)
                or type(factory).__qualname__)
    payload = {
        "version": SNAPSHOT_CACHE_VERSION,
        "physical_key": list(physical_key),
        "factory": f"{module}.{qualname}",
    }
    # The shared hashing discipline (repro.hashing) serialises exactly as
    # this module historically did, so existing on-disk entries stay valid
    # (pinned by tests/test_hashing.py).
    return digest_document(payload)


def _site_config_dict(config: SiteSnapshotConfig) -> Dict[str, Any]:
    return {
        "site": config.site,
        "node_count": config.node_count,
        "compute_model": config.compute_model,
        "storage_model": config.storage_model,
        "storage_fraction": config.storage_fraction,
        "measurement_methods": list(config.measurement_methods),
        "target_node_power_w": config.target_node_power_w,
        "default_utilization": config.default_utilization,
        "ipmi_node_coverage": config.ipmi_node_coverage,
        "workload_seed": config.workload_seed,
        "calibration_margin": config.calibration_margin,
    }


def _reading_dict(reading: InstrumentReading) -> Dict[str, Any]:
    return {
        "method": reading.method,
        "energy_kwh": reading.energy_kwh,
        "nodes_covered": reading.nodes_covered,
        "nodes_total": reading.nodes_total,
        "scope": reading.scope,
        "samples_per_node": reading.samples_per_node,
        "samples_dropped": reading.samples_dropped,
        "includes_network": reading.includes_network,
    }


def save_snapshot_result(directory: Path, digest: str,
                         result: SnapshotResult) -> None:
    """Write ``result`` to ``directory`` under ``digest`` atomically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: Dict[str, np.ndarray] = {}
    sites = []
    for index, site in enumerate(result.site_results):
        node_ids = list(site.per_node_utilization)
        arrays[f"util_{index}"] = np.array(
            [site.per_node_utilization[nid] for nid in node_ids])
        series = site.site_power_series
        if series is not None:
            arrays[f"power_{index}"] = np.asarray(series.values)
        sites.append({
            "site": site.site,
            "config": _site_config_dict(site.config),
            "energy_report": {
                "site": site.energy_report.site,
                "node_count": site.energy_report.node_count,
                "true_it_energy_kwh": site.energy_report.true_it_energy_kwh,
                "network_energy_kwh": site.energy_report.network_energy_kwh,
                "readings": {
                    method: _reading_dict(reading)
                    for method, reading in site.energy_report.readings.items()
                },
            },
            "scheduler_stats": site.scheduler_stats.as_dict(),
            "mean_utilization": site.mean_utilization,
            "target_utilization": site.target_utilization,
            "network_power_w": site.network_power_w,
            "node_ids": node_ids,
            "node_models": [site.node_specs[nid] for nid in node_ids],
            "duration_hours": site.duration_hours,
            "power_series": (
                None if series is None
                else {"start": series.start, "step": series.step}
            ),
            # Diagnostic only: phase timings ride along so a cache-served
            # snapshot can still report where its simulation time went.
            "timings": None if site.timings is None else dict(site.timings),
        })
    payload = {
        "version": SNAPSHOT_CACHE_VERSION,
        "config": {
            "sites": [_site_config_dict(site) for site in result.config.sites],
            "duration_hours": result.config.duration_hours,
            "trace_step_s": result.config.trace_step_s,
            "campaign_seed": result.config.campaign_seed,
            "warmup_hours": result.config.warmup_hours,
            "lifetime_years": result.config.lifetime_years,
            "default_pue": result.config.default_pue,
        },
        "sites": sites,
    }

    json_path = directory / f"{digest}.json"
    npz_path = directory / f"{digest}.npz"
    fd, tmp_npz = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    os.close(fd)
    fd, tmp_json = tempfile.mkstemp(dir=directory, suffix=".json.tmp")
    os.close(fd)
    try:
        with open(tmp_npz, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with open(tmp_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        # npz first: the JSON sidecar's presence marks the entry complete.
        os.replace(tmp_npz, npz_path)
        os.replace(tmp_json, json_path)
    finally:
        for tmp in (tmp_npz, tmp_json):
            if os.path.exists(tmp):
                os.unlink(tmp)


def sweep_stale_entries(directory: Path,
                        max_age_s: float = 3600.0) -> List[Path]:
    """Remove crash debris from a cache directory; returns what was removed.

    The write protocol (:func:`save_snapshot_result`) cleans up after
    ordinary exceptions, but a *hard* crash — power loss, SIGKILL — between
    ``mkstemp`` and the final rename leaves permanent garbage no later run
    ever reclaims:

    * ``*.tmp`` scratch files that never reached their rename;
    * an orphaned ``<digest>.npz`` whose JSON sidecar never landed (the
      crash hit between the two renames).  The sidecar's presence is what
      marks an entry complete, so such an npz is never valid and never
      loaded — it just accumulates.

    Only files older than ``max_age_s`` are touched: a *live* writer's
    in-progress tmp files, or an npz renamed moments before its sidecar,
    must be left alone.  The sweep is best-effort housekeeping — every
    filesystem error is swallowed, and subdirectories (e.g. the
    out-of-core ``shards/`` stores) are never entered.
    """
    directory = Path(directory)
    removed: List[Path] = []
    try:
        entries = list(directory.iterdir())
    except OSError:
        return removed
    now = time.time()
    for path in entries:
        name = path.name
        stale_tmp = name.endswith(".tmp")
        orphan_npz = (name.endswith(".npz")
                      and not path.with_suffix(".json").exists())
        if not (stale_tmp or orphan_npz):
            continue
        try:
            if not path.is_file() or now - path.stat().st_mtime <= max_age_s:
                continue
            path.unlink()
        except OSError:
            continue
        removed.append(path)
    return removed


def load_snapshot_result(directory: Path, digest: str) -> Optional[SnapshotResult]:
    """Read a persisted snapshot, or ``None`` on miss/corruption/version skew.

    Each load also sweeps the directory for crash debris
    (:func:`sweep_stale_entries`) — loads are rare (once per process per
    physical configuration), which makes them the natural age-gated
    housekeeping hook.
    """
    directory = Path(directory)
    sweep_stale_entries(directory)
    json_path = directory / f"{digest}.json"
    npz_path = directory / f"{digest}.npz"
    if not json_path.exists() or not npz_path.exists():
        return None
    try:
        with open(json_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != SNAPSHOT_CACHE_VERSION:
            return None
        with np.load(npz_path) as arrays:
            return _rebuild(payload, dict(arrays))
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        return None


def _rebuild(payload: Dict[str, Any],
             arrays: Dict[str, np.ndarray]) -> SnapshotResult:
    config_data = dict(payload["config"])
    config = SnapshotConfig(
        sites=tuple(SiteSnapshotConfig(**site) for site in config_data.pop("sites")),
        **config_data,
    )
    site_results = []
    for index, data in enumerate(payload["sites"]):
        report_data = data["energy_report"]
        report = SiteEnergyReport(
            site=report_data["site"],
            node_count=report_data["node_count"],
            readings={
                method: InstrumentReading(**fields)
                for method, fields in report_data["readings"].items()
            },
            true_it_energy_kwh=report_data["true_it_energy_kwh"],
            network_energy_kwh=report_data["network_energy_kwh"],
        )
        node_ids = data["node_ids"]
        util = arrays[f"util_{index}"]
        series_meta = data["power_series"]
        series = None
        if series_meta is not None:
            series = TimeSeries(series_meta["start"], series_meta["step"],
                                arrays[f"power_{index}"])
        result = SiteSnapshotResult(
            site=data["site"],
            config=SiteSnapshotConfig(**data["config"]),
            energy_report=report,
            scheduler_stats=SchedulerStatistics(**data["scheduler_stats"]),
            mean_utilization=data["mean_utilization"],
            target_utilization=data["target_utilization"],
            network_power_w=data["network_power_w"],
            per_node_utilization=dict(zip(node_ids, util.tolist())),
            node_specs=dict(zip(node_ids, data["node_models"])),
            site_power_series=series,
            # .get: entries written before timings existed load as None.
            timings=data.get("timings"),
        )
        object.__setattr__(result, "_duration_hours", data["duration_hours"])
        site_results.append(result)
    return SnapshotResult(config=config, site_results=tuple(site_results))


__all__ = [
    "SNAPSHOT_CACHE_VERSION",
    "snapshot_digest",
    "save_snapshot_result",
    "load_snapshot_result",
    "sweep_stale_entries",
]
