"""Power modelling and simulated measurement instruments.

The active-energy term of the paper's model needs the energy used by every
DRI component over the snapshot.  The paper obtains it from a mixture of
facility meters, PDU readings, IPMI and Turbostat; this package provides
the simulated equivalents:

* :mod:`~repro.power.node_power` — a component-resolved node power model
  mapping utilisation to electrical draw (CPU, DRAM, storage, platform, PSU
  conversion loss).
* :mod:`~repro.power.fleet_power` — the columnar fleet power model: one
  broadcasting pass converts a whole site's utilisation matrix to the
  three measurement-scope power matrices.
* :mod:`~repro.power.traces` — per-node power traces with the component
  breakdown the different instrument scopes need.
* :mod:`~repro.power.facility` — the facility overhead model (PUE
  decomposition into cooling, power distribution and building loads).
* :mod:`~repro.power.instruments` — the four measurement instruments of the
  paper (Turbostat, IPMI, PDU, facility meter), each with an explicit
  measurement scope, cadence, noise level and coverage.
* :mod:`~repro.power.campaign` — running a set of instruments over a
  simulated site for the snapshot window and collecting per-method energy.
* :mod:`~repro.power.calibration` — inverting the node power model to find
  the utilisation that reproduces an observed average node power.
* :mod:`~repro.power.reconciliation` — comparing and adjusting readings
  taken with different scopes (the paper's Table 2 discussion).
"""

from repro.power.fleet_power import FleetPowerModel
from repro.power.node_power import NodePowerModel
from repro.power.traces import PowerBreakdownTrace
from repro.power.facility import FacilityOverheadModel, OverheadBreakdown
from repro.power.instruments import (
    FacilityMeter,
    InstrumentReading,
    IPMIMeter,
    MeasurementInstrument,
    PDUMeter,
    TurbostatMeter,
)
from repro.power.campaign import MeasurementCampaign, SiteEnergyReport
from repro.power.reconciliation import (
    MethodComparison,
    best_estimate_kwh,
    compare_methods,
    reconcile_to_reference,
)

__all__ = [
    "FleetPowerModel",
    "NodePowerModel",
    "PowerBreakdownTrace",
    "FacilityOverheadModel",
    "OverheadBreakdown",
    "MeasurementInstrument",
    "InstrumentReading",
    "TurbostatMeter",
    "IPMIMeter",
    "PDUMeter",
    "FacilityMeter",
    "MeasurementCampaign",
    "SiteEnergyReport",
    "MethodComparison",
    "compare_methods",
    "best_estimate_kwh",
    "reconcile_to_reference",
]
