"""Configuration of a snapshot audit run.

A snapshot run is described by one :class:`SnapshotConfig` containing one
:class:`SiteSnapshotConfig` per site.  :func:`build_iris_snapshot_config`
(registered as the ``"iris"`` inventory source of :mod:`repro.api`)
builds the configuration that reproduces the paper's snapshot: the six IRIS
sites with their measured node counts, the measurement methods each could
provide (the non-empty cells of Table 2), and per-site calibration targets
derived from the per-node power implied by Table 2.

Two calibration knobs deserve a note:

* ``target_node_power_w`` pins each site's average per-node wall power;
  the workload simulator is driven at whatever utilisation reproduces it.
  This is how the reproduction lands on the paper's per-site kWh without
  access to the real job mix.
* ``ipmi_node_coverage`` reproduces the paper's observation that IPMI
  captured substantially less energy than the PDUs at Durham and SCARF
  (the BMC data covered only part of those fleets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.inventory.iris import (
    IRIS_SITE_MEAN_NODE_POWER_W,
    IRIS_SITE_MEASUREMENT_METHODS,
    IRIS_SITE_STORAGE_FRACTION,
    IRIS_SNAPSHOT_HOURS,
    IRIS_SNAPSHOT_MEASURED_NODES,
    PAPER_TABLE2_ENERGY_KWH,
)


@dataclass(frozen=True)
class SiteSnapshotConfig:
    """Per-site configuration of the snapshot simulation.

    Attributes
    ----------
    site:
        Site name (matches the inventory and the output tables).
    node_count:
        Number of nodes measured at the site.
    compute_model / storage_model:
        Catalog model names used for the site's compute and storage nodes.
    storage_fraction:
        Fraction of the site's nodes that are storage servers.
    measurement_methods:
        Which measurement methods the site can provide.
    target_node_power_w:
        Average per-node wall power the workload is calibrated to; ``None``
        means "drive the site at ``default_utilization`` instead".
    default_utilization:
        Utilisation used when no power target is given.
    ipmi_node_coverage:
        Fraction of nodes whose BMC exposes power readings.
    workload_seed:
        Seed for the site's synthetic workload.
    calibration_margin:
        Factor applied to ``target_node_power_w`` before calibration to
        leave room for the network and distribution-loss energy that the
        widest-scope meters include but node wall power does not.
    """

    site: str
    node_count: int
    compute_model: str = "cpu-compute-standard"
    storage_model: str = "storage-server"
    storage_fraction: float = 0.0
    measurement_methods: Tuple[str, ...] = ("facility", "ipmi")
    target_node_power_w: Optional[float] = None
    default_utilization: float = 0.6
    ipmi_node_coverage: float = 1.0
    workload_seed: int = 0
    calibration_margin: float = 0.97

    def __post_init__(self):
        if not self.site:
            raise ValueError("site must be non-empty")
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        if not 0.0 <= self.storage_fraction < 1.0:
            raise ValueError("storage_fraction must be in [0, 1)")
        if not self.measurement_methods:
            raise ValueError("at least one measurement method is required")
        if self.target_node_power_w is not None and self.target_node_power_w <= 0:
            raise ValueError("target_node_power_w must be positive when given")
        if not 0.0 < self.default_utilization <= 1.0:
            raise ValueError("default_utilization must be in (0, 1]")
        if not 0.0 < self.ipmi_node_coverage <= 1.0:
            raise ValueError("ipmi_node_coverage must be in (0, 1]")
        if not 0.5 <= self.calibration_margin <= 1.0:
            raise ValueError("calibration_margin must be in [0.5, 1.0]")
        object.__setattr__(self, "measurement_methods", tuple(self.measurement_methods))

    @property
    def storage_node_count(self) -> int:
        """Number of storage nodes implied by the storage fraction."""
        return int(round(self.node_count * self.storage_fraction))

    @property
    def compute_node_count(self) -> int:
        """Number of compute nodes implied by the storage fraction."""
        return self.node_count - self.storage_node_count


@dataclass(frozen=True)
class SnapshotConfig:
    """Configuration of one snapshot audit run."""

    sites: Tuple[SiteSnapshotConfig, ...]
    duration_hours: float = 24.0
    trace_step_s: float = 60.0
    campaign_seed: int = 1234
    warmup_hours: float = 36.0
    lifetime_years: float = 5.0
    default_pue: float = 1.3

    def __post_init__(self):
        if not self.sites:
            raise ValueError("a snapshot needs at least one site")
        names = [site.site for site in self.sites]
        if len(names) != len(set(names)):
            raise ValueError("site names must be unique")
        if self.duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        if self.trace_step_s <= 0:
            raise ValueError("trace_step_s must be positive")
        if self.warmup_hours < 0:
            raise ValueError("warmup_hours must be non-negative")
        if self.lifetime_years <= 0:
            raise ValueError("lifetime_years must be positive")
        if self.default_pue < 1.0:
            raise ValueError("default_pue must be at least 1.0")
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def duration_s(self) -> float:
        return self.duration_hours * 3600.0

    @property
    def site_names(self) -> list[str]:
        return [site.site for site in self.sites]

    def site_config(self, name: str) -> SiteSnapshotConfig:
        """Look up one site's configuration."""
        for site in self.sites:
            if site.site == name:
                return site
        raise KeyError(f"no site {name!r} in snapshot config")


#: Node model used for each IRIS site's compute nodes.  CAM runs a
#: single-socket configuration (its per-node power in Table 2 is well below
#: the dual-socket idle draw), everything else the standard dual-socket node.
IRIS_SITE_COMPUTE_MODEL: Dict[str, str] = {
    "QMUL": "cpu-compute-standard",
    "CAM": "cpu-compute-small",
    "DUR": "cpu-compute-standard",
    "STFC SCARF": "cpu-compute-standard",
    "STFC CLOUD": "cpu-compute-standard",
    "IMP": "cpu-compute-standard",
}

#: IPMI fleet coverage reproducing the IPMI/PDU gap of Table 2 (Durham and
#: SCARF report IPMI energies about 23% below their PDU figures; the other
#: sites' IPMI matches their widest-scope reading).
IRIS_SITE_IPMI_COVERAGE: Dict[str, float] = {
    "QMUL": 1.0,
    "CAM": 1.0,
    "DUR": 0.77,
    "STFC SCARF": 0.77,
    "STFC CLOUD": 1.0,
    "IMP": 1.0,
}


def build_iris_snapshot_config(
    duration_hours: float = IRIS_SNAPSHOT_HOURS,
    trace_step_s: float = 60.0,
    campaign_seed: int = 1234,
    lifetime_years: float = 5.0,
    node_scale: float = 1.0,
    sites: Optional[Tuple[str, ...]] = None,
) -> SnapshotConfig:
    """The snapshot configuration reproducing the paper's Table 2 campaign.

    ``node_scale`` shrinks every site's node count proportionally (minimum
    two nodes per site); the scaled configuration keeps the same per-node
    calibration targets, so per-node power still matches the paper while the
    simulation runs much faster — used by the test suite and the examples.

    ``sites`` restricts the campaign to a subset of the six IRIS sites (in
    the canonical Table 2 order, whatever order is given); the multi-site
    portfolio engine composes member facilities from such subsets.  Each
    retained site keeps its own calibration target, measurement methods and
    workload seed, so a subset site simulates bit-identically to the same
    site inside the full campaign.
    """
    if node_scale <= 0 or node_scale > 1.0:
        raise ValueError("node_scale must be in (0, 1]")
    if sites is not None:
        selected = set(sites)
        if not selected:
            raise ValueError("sites must name at least one IRIS site")
        unknown = sorted(selected - set(PAPER_TABLE2_ENERGY_KWH))
        if unknown:
            raise ValueError(
                f"unknown IRIS sites: {', '.join(unknown)}; known sites: "
                f"{', '.join(PAPER_TABLE2_ENERGY_KWH)}")
    else:
        selected = None
    sites_out = []
    for index, site_name in enumerate(PAPER_TABLE2_ENERGY_KWH):
        if selected is not None and site_name not in selected:
            continue
        node_count = IRIS_SNAPSHOT_MEASURED_NODES[site_name]
        if node_scale < 1.0:
            node_count = max(2, int(round(node_count * node_scale)))
        sites_out.append(
            SiteSnapshotConfig(
                site=site_name,
                node_count=node_count,
                compute_model=IRIS_SITE_COMPUTE_MODEL[site_name],
                storage_fraction=IRIS_SITE_STORAGE_FRACTION[site_name],
                measurement_methods=IRIS_SITE_MEASUREMENT_METHODS[site_name],
                target_node_power_w=IRIS_SITE_MEAN_NODE_POWER_W[site_name],
                ipmi_node_coverage=IRIS_SITE_IPMI_COVERAGE[site_name],
                workload_seed=1000 + index,
            )
        )
    return SnapshotConfig(
        sites=tuple(sites_out),
        duration_hours=duration_hours,
        trace_step_s=trace_step_s,
        campaign_seed=campaign_seed,
        lifetime_years=lifetime_years,
    )


__all__ = [
    "SiteSnapshotConfig",
    "SnapshotConfig",
    "build_iris_snapshot_config",
    "IRIS_SITE_COMPUTE_MODEL",
    "IRIS_SITE_IPMI_COVERAGE",
]
