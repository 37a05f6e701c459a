"""The total carbon model (equation 1): ``C_t = C_a + C_e``.

:class:`CarbonModel` bundles an active-carbon calculator configuration
(intensity + PUE model) with an embodied amortisation policy and evaluates
the two terms over the same inputs and period, producing a
:class:`~repro.core.results.TotalCarbonResult`.  :class:`SnapshotInputs` is
the complete input bundle for one evaluation — what the IRISCAST snapshot
orchestration assembles from the measurement campaign and the inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.active import ActiveCarbonCalculator, ActiveEnergyInput
from repro.core.embodied import (
    AmortizationPolicy,
    EmbodiedAsset,
    EmbodiedCarbonCalculator,
    EmbodiedColumns,
    LinearAmortization,
)
from repro.core.results import TotalCarbonResult
from repro.power.facility import FacilityOverheadModel
from repro.units.quantities import CarbonIntensity, Duration


@dataclass(frozen=True)
class SnapshotInputs:
    """Everything needed to evaluate the model for one period.

    Attributes
    ----------
    energy:
        The measured active energy (node groups, network, optional measured
        overhead) for the period.
    assets:
        The embodied-carbon assets for everything installed: a list of
        :class:`~repro.core.embodied.EmbodiedAsset` (kept as a tuple) or
        their :class:`~repro.core.embodied.EmbodiedColumns`.
    """

    energy: ActiveEnergyInput
    assets: Union[Sequence[EmbodiedAsset], EmbodiedColumns]

    def __post_init__(self):
        if not self.assets:
            raise ValueError("SnapshotInputs requires at least one embodied asset")
        if not isinstance(self.assets, EmbodiedColumns):
            object.__setattr__(self, "assets", tuple(self.assets))

    @property
    def period(self) -> Duration:
        return self.energy.period


class CarbonModel:
    """The paper's total model, configured for one scenario.

    Parameters
    ----------
    carbon_intensity:
        Grid carbon intensity applied to the active energy.
    pue:
        Power usage effectiveness for facility overheads (ignored when the
        inputs carry measured overhead energy).
    amortization:
        Embodied amortisation policy (linear by default, as in the paper).
    overhead_model:
        Full facility-overhead model; constructed from ``pue`` when omitted.
    """

    def __init__(
        self,
        carbon_intensity: CarbonIntensity,
        pue: float = 1.3,
        amortization: Optional[AmortizationPolicy] = None,
        overhead_model: Optional[FacilityOverheadModel] = None,
    ):
        if overhead_model is not None and abs(overhead_model.pue - pue) > 1e-9:
            raise ValueError(
                "pue and overhead_model.pue disagree; pass one or the other"
            )
        self._overhead_model = overhead_model or FacilityOverheadModel(pue=pue)
        self._active = ActiveCarbonCalculator(
            carbon_intensity=carbon_intensity, overhead_model=self._overhead_model
        )
        self._embodied = EmbodiedCarbonCalculator(policy=amortization or LinearAmortization())

    # -- configuration accessors ---------------------------------------------------

    @property
    def carbon_intensity(self) -> CarbonIntensity:
        return self._active.carbon_intensity

    @property
    def pue(self) -> float:
        return self._overhead_model.pue

    @property
    def amortization(self) -> AmortizationPolicy:
        return self._embodied.policy

    @property
    def active_calculator(self) -> ActiveCarbonCalculator:
        return self._active

    @property
    def embodied_calculator(self) -> EmbodiedCarbonCalculator:
        return self._embodied

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, inputs: SnapshotInputs) -> TotalCarbonResult:
        """Evaluate ``C_t = C_a + C_e`` for the supplied inputs."""
        active = self._active.evaluate(inputs.energy)
        embodied = self._embodied.evaluate(inputs.assets, inputs.period)
        return TotalCarbonResult(active=active, embodied=embodied)

    def evaluate_annualised_kg(self, inputs: SnapshotInputs) -> float:
        """Scale the period total up to a yearly figure (naive extrapolation).

        Useful for procurement comparisons in the examples; it assumes the
        evaluation period is representative of the whole year, which the
        paper cautions about.
        """
        result = self.evaluate(inputs)
        days = inputs.period.days
        if days == 0:
            raise ValueError("cannot annualise a zero-length period")
        return result.total_kg * (365.0 / days)


__all__ = ["CarbonModel", "SnapshotInputs"]
