"""The per-asset embodied-carbon loops.

:func:`embodied_assets_loop` is ``SnapshotResult.embodied_assets`` as it
was before the snapshot kept a column template: one validated
:class:`~repro.core.embodied.EmbodiedAsset` per node and per network
fabric, built on every call.  ``embodied_assets_loop(snapshot, ...)``
stands in for ``snapshot.embodied_assets(...)``; the two must return
``==`` lists.

:func:`evaluate_loop` is ``EmbodiedCarbonCalculator.evaluate`` as it was
before the calculator evaluated :class:`~repro.core.embodied.EmbodiedColumns`:
one ``policy.period_kgco2`` call per asset, each component's total and the
installed total accumulated asset by asset.  ``evaluate_loop(policy,
assets, period)`` stands in for
``EmbodiedCarbonCalculator(policy).evaluate(assets, period)``; the two must
return ``==`` results with the same ``carbon_by_component_kg`` key order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.embodied import AmortizationPolicy, EmbodiedAsset
from repro.core.results import EmbodiedCarbonResult
from repro.inventory.network import NetworkFabric
from repro.units.quantities import Duration


def embodied_assets_loop(
    snapshot,
    per_server_kgco2: Optional[float] = None,
    lifetime_years: Optional[float] = None,
    node_kgco2_resolver: Optional[Callable[[str], float]] = None,
) -> List[EmbodiedAsset]:
    """One embodied asset per measured node (plus per-site network fabrics)."""
    lifetime = lifetime_years or snapshot.config.lifetime_years
    assets: List[EmbodiedAsset] = []
    catalog_kg: Dict[str, float] = {}
    for result in snapshot.site_results:
        for node_id, model_name in result.node_specs.items():
            embodied = per_server_kgco2
            if embodied is None and node_kgco2_resolver is not None:
                embodied = node_kgco2_resolver(model_name)
            if embodied is None:
                embodied = catalog_kg.get(model_name)
                if embodied is None:
                    embodied = snapshot._catalog_embodied_kg(model_name)
                    catalog_kg[model_name] = embodied
            assets.append(
                EmbodiedAsset(
                    asset_id=node_id,
                    component="nodes",
                    embodied_kgco2=embodied,
                    lifetime_years=lifetime,
                    period_utilization=result.per_node_utilization.get(node_id),
                    lifetime_utilization=0.6,
                )
            )
        fabric = NetworkFabric.sized_for_nodes(result.config.node_count)
        if fabric.switch_count:
            assets.append(
                EmbodiedAsset(
                    asset_id=f"{result.site}-network",
                    component="network",
                    embodied_kgco2=fabric.total_embodied_kgco2,
                    lifetime_years=fabric.leaf_spec.lifetime_years,
                )
            )
    return assets


def evaluate_loop(
    policy: AmortizationPolicy, assets: Sequence[EmbodiedAsset], period: Duration
) -> EmbodiedCarbonResult:
    """Embodied carbon apportioned to ``period`` across all assets."""
    if not assets:
        raise ValueError("evaluate requires at least one asset")
    by_component: Dict[str, float] = {}
    installed = 0.0
    for asset in assets:
        installed += asset.embodied_kgco2
        charged = policy.period_kgco2(asset, period)
        by_component[asset.component] = by_component.get(asset.component, 0.0) + charged
    return EmbodiedCarbonResult(
        period=period,
        carbon_by_component_kg=by_component,
        total_installed_kg=installed,
        amortization_policy=policy.name,
    )
