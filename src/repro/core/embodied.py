"""The embodied-carbon term of the model (equation 4) and amortisation.

Embodied carbon is a fixed, already-emitted quantity per asset; what the
model needs is the *share of it attributable to the evaluation period*.
The paper amortises linearly over the asset lifetime ("5 kg over 5 years is
1 kg per year; a 6-month evaluation gets 500 g"), and notes that other
schemes are possible.  Three policies are provided:

* :class:`LinearAmortization` — the paper's scheme: share proportional to
  wall-clock time.
* :class:`UtilizationWeightedAmortization` — share proportional to time
  scaled by how busy the asset was (idle hardware defers its embodied
  debt); requires the period's and the lifetime-average utilisation.
* :class:`CoreHoursAmortization` — share proportional to delivered
  core-hours against the lifetime core-hour budget (a "per unit of service"
  allocation popular in per-job accounting).

:class:`EmbodiedColumns` holds an asset list as parallel arrays, the form
the calculator evaluates; :class:`EmbodiedCarbonCalculator` applies a
policy across it (or across a list of :class:`EmbodiedAsset`) and produces
an :class:`~repro.core.results.EmbodiedCarbonResult`.  Each stock policy
computes its shares with the scalar float operations applied elementwise,
and the calculator sums each component in asset order, so the columns give
exactly (``==``) the floats the per-asset loop gives.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.results import EmbodiedCarbonResult
from repro.units.constants import SECONDS_PER_YEAR
from repro.units.quantities import Duration, UnitError


@dataclass(frozen=True)
class EmbodiedAsset:
    """One asset carrying embodied carbon.

    Attributes
    ----------
    asset_id:
        Identifier (node id, switch id, facility name).
    component:
        Component label used to group results (``"nodes"``, ``"network"``,
        ``"facility"``).
    embodied_kgco2:
        Total embodied carbon of the asset (manufacture, delivery,
        installation and decommissioning).
    lifetime_years:
        Service lifetime over which the embodied carbon is spread.
    period_utilization / lifetime_utilization:
        Mean utilisation during the evaluation period and expected over the
        lifetime; only used by the utilisation-aware policies.
    period_core_hours / lifetime_core_hours:
        Delivered core-hours in the period and expected over the lifetime;
        only used by :class:`CoreHoursAmortization`.
    """

    asset_id: str
    component: str
    embodied_kgco2: float
    lifetime_years: float
    period_utilization: Optional[float] = None
    lifetime_utilization: Optional[float] = None
    period_core_hours: Optional[float] = None
    lifetime_core_hours: Optional[float] = None

    def __post_init__(self):
        if not self.asset_id:
            raise ValueError("asset_id must be non-empty")
        if not self.component:
            raise ValueError("component must be non-empty")
        if self.embodied_kgco2 < 0:
            raise ValueError("embodied_kgco2 must be non-negative")
        if self.lifetime_years <= 0:
            raise ValueError("lifetime_years must be positive")
        for name in ("period_utilization", "lifetime_utilization"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("period_core_hours", "lifetime_core_hours"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")


#: The optional per-asset figures, in :class:`EmbodiedAsset` field order.
_OPTIONAL_FIELDS = ("period_utilization", "lifetime_utilization",
                    "period_core_hours", "lifetime_core_hours")


@dataclass(frozen=True, eq=False)
class MaskedColumn:
    """An optional per-asset figure: ``values`` where ``present`` is true.

    Absence is kept apart from every float, NaN included: ``not nan`` is
    false, so :class:`CoreHoursAmortization` treats a NaN core-hour count
    as data, not as a missing one.
    """

    values: np.ndarray
    present: np.ndarray

    @classmethod
    def from_optional(cls, values: Sequence[Optional[float]]) -> "MaskedColumn":
        """Read a list of floats and ``None`` (absent)."""
        return cls(
            values=np.array([0.0 if v is None else v for v in values], dtype=np.float64),
            present=np.array([v is not None for v in values], dtype=bool),
        )

    @classmethod
    def absent(cls, n: int) -> "MaskedColumn":
        """A column no asset has."""
        return cls(values=np.zeros(n), present=np.zeros(n, dtype=bool))

    def tolist(self) -> List[Optional[float]]:
        """The figures as floats, ``None`` where absent."""
        return [value if present else None
                for value, present in zip(self.values.tolist(), self.present.tolist())]


@dataclass(frozen=True, eq=False)
class EmbodiedColumns:
    """An asset list as parallel arrays, in asset order.

    Attributes
    ----------
    asset_ids:
        One identifier per asset.
    component_codes:
        Per asset, an index into ``components``.
    components:
        The component labels, in order of first appearance.
    embodied_kgco2 / lifetime_years:
        One float per asset, as on :class:`EmbodiedAsset`.
    period_utilization / lifetime_utilization / period_core_hours / lifetime_core_hours:
        The optional figures of :class:`EmbodiedAsset`; ``None`` when no
        asset has the figure.

    Construction raises the :class:`EmbodiedAsset` message of the first
    invalid asset, so columns hold exactly what a list of valid assets
    holds.  :meth:`from_assets` and :meth:`assets` convert both ways.
    """

    asset_ids: Tuple[str, ...]
    component_codes: np.ndarray
    components: Tuple[str, ...]
    embodied_kgco2: np.ndarray
    lifetime_years: np.ndarray
    period_utilization: Optional[MaskedColumn] = None
    lifetime_utilization: Optional[MaskedColumn] = None
    period_core_hours: Optional[MaskedColumn] = None
    lifetime_core_hours: Optional[MaskedColumn] = None

    def __post_init__(self):
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "component_codes",
                           np.asarray(self.component_codes, dtype=np.intp))
        for name in ("embodied_kgco2", "lifetime_years"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.asset_ids)
        arrays = [self.component_codes, self.embodied_kgco2, self.lifetime_years]
        for name in _OPTIONAL_FIELDS:
            column = getattr(self, name)
            if column is not None:
                arrays += [column.values, column.present]
        if any(array.shape != (n,) for array in arrays):
            raise ValueError("every column needs one entry per asset")
        codes = self.component_codes
        if n and not 0 <= codes.min() <= codes.max() < len(self.components):
            raise ValueError("component_codes must index components")
        self._validate()

    def _validate(self) -> None:
        """Raise :class:`EmbodiedAsset`'s message for the first invalid asset."""
        checks = []
        if not all(self.asset_ids):
            checks.append((np.array([not asset_id for asset_id in self.asset_ids]),
                           "asset_id must be non-empty"))
        empty = np.array([not component for component in self.components], dtype=bool)
        checks.append((empty[self.component_codes], "component must be non-empty"))
        checks.append((self.embodied_kgco2 < 0, "embodied_kgco2 must be non-negative"))
        checks.append((self.lifetime_years <= 0, "lifetime_years must be positive"))
        for name in _OPTIONAL_FIELDS:
            column = getattr(self, name)
            if column is None:
                continue
            values = column.values
            if name.endswith("utilization"):
                bad = ~((0.0 <= values) & (values <= 1.0))
                message = f"{name} must be in [0, 1]"
            else:
                bad = values < 0
                message = f"{name} must be non-negative"
            checks.append((column.present & bad, message))
        failing = [(bad, message) for bad, message in checks if bad.any()]
        if failing:
            first = min(int(np.argmax(bad)) for bad, _ in failing)
            raise ValueError(next(message for bad, message in failing if bad[first]))

    def __len__(self) -> int:
        return len(self.asset_ids)

    def masked(self, name: str) -> MaskedColumn:
        """One optional figure, all absent when the columns lack it."""
        column = getattr(self, name)
        return column if column is not None else MaskedColumn.absent(len(self))

    @classmethod
    def from_assets(cls, assets: Sequence[EmbodiedAsset]) -> "EmbodiedColumns":
        """The columns of an asset list (components in first-appearance order)."""
        codes: Dict[str, int] = {}
        return cls(
            asset_ids=tuple(asset.asset_id for asset in assets),
            component_codes=np.array(
                [codes.setdefault(asset.component, len(codes)) for asset in assets],
                dtype=np.intp),
            components=tuple(codes),
            embodied_kgco2=np.array([asset.embodied_kgco2 for asset in assets],
                                    dtype=np.float64),
            lifetime_years=np.array([asset.lifetime_years for asset in assets],
                                    dtype=np.float64),
            **{name: MaskedColumn.from_optional([getattr(asset, name) for asset in assets])
               for name in _OPTIONAL_FIELDS},
        )

    def assets(self) -> List[EmbodiedAsset]:
        """The asset list these columns hold, one :class:`EmbodiedAsset` each."""
        optional = [self.masked(name).tolist() for name in _OPTIONAL_FIELDS]
        components = [self.components[code] for code in self.component_codes.tolist()]
        return [EmbodiedAsset(*row) for row in zip(
            self.asset_ids, components, self.embodied_kgco2.tolist(),
            self.lifetime_years.tolist(), *optional)]


def _linear_shares(lifetime_years: np.ndarray, period: Duration) -> np.ndarray:
    """``period.fraction_of(Duration.from_years(years))`` for each lifetime."""
    with np.errstate(over="ignore"):
        lifetime_s = lifetime_years * SECONDS_PER_YEAR
    if np.isnan(lifetime_s).any():
        raise UnitError("s must not be NaN")  # Duration's own message
    return period.seconds / lifetime_s


def _sequential_sum(values: np.ndarray) -> float:
    """``total = 0.0; for value in values: total += value``, exactly.

    ``np.add.accumulate`` adds strictly left to right (``np.sum`` adds
    pairwise, which rounds differently).
    """
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


class AmortizationPolicy(abc.ABC):
    """How an asset's embodied carbon is apportioned to an evaluation period."""

    #: Short name used in results and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def period_share(self, asset: EmbodiedAsset, period: Duration) -> float:
        """Fraction of the asset's embodied carbon charged to ``period``."""

    def period_shares(self, columns: EmbodiedColumns, period: Duration) -> np.ndarray:
        """:meth:`period_share` of every asset in ``columns``, in asset order.

        The default asks :meth:`period_share` once per asset, so a policy
        that defines only that works unchanged; the stock policies override
        this with the same float operations applied elementwise.
        """
        return np.array([self.period_share(asset, period) for asset in columns.assets()],
                        dtype=np.float64)

    def period_kgco2(self, asset: EmbodiedAsset, period: Duration) -> float:
        """kgCO2e charged to the period for one asset."""
        share = self.period_share(asset, period)
        if share < 0:
            raise ValueError(f"{type(self).__name__} produced a negative share")
        # An evaluation period longer than the remaining lifetime can never
        # charge more than the asset's total embodied carbon.
        return asset.embodied_kgco2 * min(share, 1.0)


class LinearAmortization(AmortizationPolicy):
    """The paper's scheme: carbon spread uniformly over wall-clock lifetime."""

    name = "linear"

    def period_share(self, asset: EmbodiedAsset, period: Duration) -> float:
        lifetime = Duration.from_years(asset.lifetime_years)
        return period.fraction_of(lifetime)

    def period_shares(self, columns: EmbodiedColumns, period: Duration) -> np.ndarray:
        return _linear_shares(columns.lifetime_years, period)


class UtilizationWeightedAmortization(AmortizationPolicy):
    """Charge embodied carbon in proportion to how busy the asset was.

    The linear share is scaled by ``period_utilization /
    lifetime_utilization``; an asset idling through the evaluation period
    carries less of its embodied debt in that period (and more later).
    Assets without utilisation data fall back to the linear share.
    """

    name = "utilization-weighted"

    def period_share(self, asset: EmbodiedAsset, period: Duration) -> float:
        linear = LinearAmortization().period_share(asset, period)
        if asset.period_utilization is None or asset.lifetime_utilization in (None, 0.0):
            return linear
        return linear * (asset.period_utilization / asset.lifetime_utilization)

    def period_shares(self, columns: EmbodiedColumns, period: Duration) -> np.ndarray:
        linear = _linear_shares(columns.lifetime_years, period)
        busy = columns.masked("period_utilization")
        average = columns.masked("lifetime_utilization")
        weighted = busy.present & average.present & (average.values != 0.0)
        with np.errstate(over="ignore"):  # Python gives inf too
            ratio = np.divide(busy.values, average.values, out=np.ones_like(linear),
                              where=weighted)
            return np.where(weighted, linear * ratio, linear)


class CoreHoursAmortization(AmortizationPolicy):
    """Charge embodied carbon per delivered core-hour.

    The share is ``period_core_hours / lifetime_core_hours``.  Assets
    without core-hour data fall back to the linear share.
    """

    name = "core-hours"

    def period_share(self, asset: EmbodiedAsset, period: Duration) -> float:
        if not asset.period_core_hours or not asset.lifetime_core_hours:
            return LinearAmortization().period_share(asset, period)
        return asset.period_core_hours / asset.lifetime_core_hours

    def period_shares(self, columns: EmbodiedColumns, period: Duration) -> np.ndarray:
        delivered = columns.masked("period_core_hours")
        budget = columns.masked("lifetime_core_hours")
        # ``not x`` is true for None and for zero, but not for NaN.
        by_hours = (delivered.present & (delivered.values != 0.0)
                    & budget.present & (budget.values != 0.0))
        shares = np.empty(len(columns))
        shares[~by_hours] = _linear_shares(columns.lifetime_years[~by_hours], period)
        with np.errstate(over="ignore", invalid="ignore"):  # Python gives inf / nan too
            shares[by_hours] = delivered.values[by_hours] / budget.values[by_hours]
        return shares


class EmbodiedCarbonCalculator:
    """Apply an amortisation policy across an asset list (equation 4)."""

    def __init__(self, policy: Optional[AmortizationPolicy] = None):
        self._policy = policy or LinearAmortization()

    @property
    def policy(self) -> AmortizationPolicy:
        return self._policy

    def evaluate(
        self, assets: Union[Sequence[EmbodiedAsset], EmbodiedColumns], period: Duration
    ) -> EmbodiedCarbonResult:
        """Embodied carbon apportioned to ``period`` across all assets.

        ``assets`` is a list of :class:`EmbodiedAsset` or their
        :class:`EmbodiedColumns`.  Each component's total, and the
        installed total, add the assets in order, as a per-asset loop does.
        """
        if not assets:
            raise ValueError("evaluate requires at least one asset")
        columns = (assets if isinstance(assets, EmbodiedColumns)
                   else EmbodiedColumns.from_assets(assets))
        shares = np.asarray(self._policy.period_shares(columns, period), dtype=np.float64)
        if (shares < 0).any():
            raise ValueError(f"{type(self._policy).__name__} produced a negative share")
        # An evaluation period longer than the remaining lifetime can never
        # charge more than the asset's total embodied carbon.
        charged = columns.embodied_kgco2 * np.minimum(shares, 1.0)
        codes = columns.component_codes
        present, first = np.unique(codes, return_index=True)
        by_component: Dict[str, float] = {
            columns.components[code]: _sequential_sum(charged[codes == code])
            for code in present[np.argsort(first)].tolist()
        }
        return EmbodiedCarbonResult(
            period=period,
            carbon_by_component_kg=by_component,
            total_installed_kg=_sequential_sum(columns.embodied_kgco2),
            amortization_policy=self._policy.name,
        )

    # -- convenience used by the Table 4 bench -----------------------------------

    @staticmethod
    def per_server_per_day_kg(embodied_kgco2: float, lifetime_years: float) -> float:
        """Embodied carbon per server per 24 hours under linear amortisation.

        This is the middle column of the paper's Table 4: e.g. 400 kgCO2e
        over 3 years is 0.36 kg per day.  The paper uses 365-day years.
        """
        if embodied_kgco2 < 0:
            raise ValueError("embodied_kgco2 must be non-negative")
        if lifetime_years <= 0:
            raise ValueError("lifetime_years must be positive")
        return embodied_kgco2 / (lifetime_years * 365.0)

    @classmethod
    def fleet_snapshot_kg(
        cls,
        embodied_kgco2: float,
        lifetime_years: float,
        server_count: int,
        period_days: float = 1.0,
    ) -> float:
        """Snapshot embodied carbon for a homogeneous fleet (Table 4's last column)."""
        if server_count < 0:
            raise ValueError("server_count must be non-negative")
        if period_days < 0:
            raise ValueError("period_days must be non-negative")
        per_day = cls.per_server_per_day_kg(embodied_kgco2, lifetime_years)
        return per_day * server_count * period_days


__all__ = [
    "EmbodiedAsset",
    "EmbodiedColumns",
    "MaskedColumn",
    "AmortizationPolicy",
    "LinearAmortization",
    "UtilizationWeightedAmortization",
    "CoreHoursAmortization",
    "EmbodiedCarbonCalculator",
]
