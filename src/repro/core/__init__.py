"""The paper's carbon model (the primary contribution).

Equation 1 of the paper decomposes the total climate impact of a DRI over
an evaluation period into an active and an embodied term; this package
implements both terms and everything the evaluation section does with them:

* :mod:`~repro.core.active` — the active-carbon term (equations 2-3):
  measured energy per component, scaled by PUE for unmeasured facility
  overheads, converted with a grid carbon intensity.
* :mod:`~repro.core.embodied` — the embodied-carbon term (equation 4):
  per-unit embodied carbon amortised over the unit lifetime and apportioned
  to the evaluation period under a configurable policy.
* :mod:`~repro.core.model` — the total model combining the two.
* :mod:`~repro.core.scenarios` — the Low/Medium/High scenario grids behind
  Tables 3 and 4.
* :mod:`~repro.core.apportionment` — assigning shared resources to the DRI.
* :mod:`~repro.core.uncertainty` — Monte-Carlo propagation of the input
  uncertainties into a distribution over the total.
* :mod:`~repro.core.results` — the result value objects shared by all of
  the above.
"""

from repro.core.results import (
    ActiveCarbonResult,
    EmbodiedCarbonResult,
    TotalCarbonResult,
)
from repro.core.active import ActiveCarbonCalculator, ActiveEnergyInput
from repro.core.embodied import (
    AmortizationPolicy,
    CoreHoursAmortization,
    EmbodiedAsset,
    EmbodiedCarbonCalculator,
    LinearAmortization,
    UtilizationWeightedAmortization,
)
from repro.core.model import CarbonModel, SnapshotInputs
from repro.core.scenarios import (
    PUE_SCENARIOS,
    INTENSITY_SCENARIOS,
    ActiveScenarioGrid,
    EmbodiedScenarioGrid,
    ScenarioLevel,
)
from repro.core.apportionment import ShareApportionment
from repro.core.attribution import (
    AllocationRule,
    AttributionResult,
    JobCarbonAttributor,
    JobFootprint,
)
from repro.core.uncertainty import UncertainInput, UncertaintyResult

__all__ = [
    "ActiveCarbonResult",
    "EmbodiedCarbonResult",
    "TotalCarbonResult",
    "ActiveCarbonCalculator",
    "ActiveEnergyInput",
    "AmortizationPolicy",
    "LinearAmortization",
    "UtilizationWeightedAmortization",
    "CoreHoursAmortization",
    "EmbodiedAsset",
    "EmbodiedCarbonCalculator",
    "CarbonModel",
    "SnapshotInputs",
    "ScenarioLevel",
    "PUE_SCENARIOS",
    "INTENSITY_SCENARIOS",
    "ActiveScenarioGrid",
    "EmbodiedScenarioGrid",
    "ShareApportionment",
    "AllocationRule",
    "AttributionResult",
    "JobCarbonAttributor",
    "JobFootprint",
    "UncertainInput",
    "UncertaintyResult",
]
