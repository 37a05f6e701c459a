"""Calibrating utilisation against an observed average node power.

The snapshot reproduction needs to drive each simulated site at whatever
load level makes its average per-node wall power match the per-node power
implied by the paper's Table 2 (energy / nodes / 24 h).  Because the node
power model is strictly monotonic in utilisation, that inverse is a simple
bisection.  :func:`fleet_utilization_for_target_power` inverts a mixed
fleet's mean power curve (a one-model fleet is the single-node case) and
is what the snapshot orchestration calls.  Keeping it here makes the
assumption (power observed => load inferred) a single, testable piece of
code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.power.node_power import NodePowerModel

#: Halvings of the fleet bisection.  2**-60 is below float64 resolution on
#: [0, 1], so the answer needs no power tolerance.
FLEET_BISECTION_STEPS = 60


def fleet_utilization_for_target_power(
    models: Sequence[NodePowerModel], target_wall_power_w: float
) -> float:
    """The common utilisation at which a fleet's mean node wall power is the target.

    Every node runs at the same utilisation, and the fleet's power is the
    plain mean over ``models`` (one per node).  Returns 0.0 when the target
    is at or below the fleet's idle mean and 1.0 when it is at or above its
    full-load mean; otherwise bisects [0, 1] in
    :data:`FLEET_BISECTION_STEPS` fixed halvings.

    Each step evaluates every *distinct* model once and expands the values
    back to node order before the mean, so the answer is bit-identical to
    averaging a per-node loop at a cost that does not grow with node count.
    Distinct models are found by identity first: a fleet shares a few
    model objects across its nodes, so only the first sighting of each
    object is compared (by equality) with the models already found.
    """
    if len(models) == 0:
        raise ValueError("need at least one node power model")
    unique: List[NodePowerModel] = []
    slot_of: Dict[int, int] = {}  # id(model) -> position in `unique`
    slots: List[int] = []
    for model in models:
        slot = slot_of.get(id(model))
        if slot is None:
            for slot, seen in enumerate(unique):
                if seen == model:
                    break
            else:
                slot = len(unique)
                unique.append(model)
            slot_of[id(model)] = slot
        slots.append(slot)
    index = np.array(slots, dtype=np.intp)

    def mean_power(utilization: float) -> float:
        values = np.array([model.wall_power_w(utilization) for model in unique],
                          dtype=np.float64)
        return float(np.mean(values[index]))

    if target_wall_power_w <= mean_power(0.0):
        return 0.0
    if target_wall_power_w >= mean_power(1.0):
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(FLEET_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if mean_power(mid) < target_wall_power_w:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


__all__ = ["FLEET_BISECTION_STEPS", "fleet_utilization_for_target_power"]
