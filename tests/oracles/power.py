"""The seed per-node power conversion.

:func:`from_utilization_loop` evaluates each node's power model against
its own utilisation row, one node at a time, and materialises all three
scope matrices up front.  It takes the arguments of
``PowerBreakdownTrace.from_utilization``; the lazy columnar trace must
agree with it to a few float64 ulp on every reduction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.power.node_power import NodePowerModel
from repro.power.traces import PowerBreakdownTrace
from repro.workload.utilization import UtilizationTrace


def from_utilization_loop(
    trace: UtilizationTrace,
    models: Sequence[NodePowerModel],
) -> PowerBreakdownTrace:
    """Per-node conversion into a materialised (validated) power trace."""
    if len(models) != trace.node_count:
        raise ValueError(
            f"need one power model per node: {trace.node_count} nodes, "
            f"{len(models)} models"
        )
    util = trace.matrix
    rapl = np.empty_like(util)
    dc = np.empty_like(util)
    wall = np.empty_like(util)
    for row, model in enumerate(models):
        rapl[row] = model.rapl_visible_power_w(util[row])
        dc[row] = model.dc_power_w(util[row])
        wall[row] = model.wall_power_w(util[row])
    return PowerBreakdownTrace(trace.start, trace.step, trace.node_ids,
                               rapl, dc, wall)


__all__ = ["from_utilization_loop"]
