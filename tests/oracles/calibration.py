"""The seed per-node fleet calibration.

:func:`fleet_utilization_loop` is the mixed-fleet bisection the snapshot
ran before :func:`repro.power.calibration.fleet_utilization_for_target_power`
replaced it: every one of its 60 steps calls ``wall_power_w`` once per node
and averages the list.  It takes the arguments of the production function,
which must return the identical float (``==``) for every fleet and target.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.power.node_power import NodePowerModel


def fleet_utilization_loop(
    models: Sequence[NodePowerModel], target_wall_power_w: float
) -> float:
    """Bisect the fleet's mean wall power, one model call per node per step."""
    target = target_wall_power_w

    def mean_power(utilization: float) -> float:
        return float(np.mean([m.wall_power_w(utilization) for m in models]))

    low_power = mean_power(0.0)
    high_power = mean_power(1.0)
    if target <= low_power:
        return 0.0
    if target >= high_power:
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        if mean_power(mid) < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)
