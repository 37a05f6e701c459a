"""Reference implementations the differential tests and benches compare against.

Each module keeps, verbatim in semantics, the loop a production stage
replaced: the seed event-driven scheduler (:mod:`oracles.scheduler`), the
per-placement trace builder (also there), the per-node power conversion
(:mod:`oracles.power`), the per-sample temporal integration
(:mod:`oracles.temporal`) and the per-spec batch loops
(:mod:`oracles.batch`).  None of them is reachable from ``src/``; a test
swaps one into the production stage it shadows with ``monkeypatch`` (see
:func:`use_reference_substrate`) or calls it directly.

``tests/`` is on ``sys.path`` for the test suite (pytest's rootdir
insertion) and for the benches (``benchmarks/conftest.py``), so both
import this package as ``oracles``.
"""

from __future__ import annotations

from . import power, scheduler


def use_reference_scheduler(monkeypatch) -> None:
    """Run every ``BackfillScheduler.run`` through the seed event loop."""
    from repro.workload.scheduler import BackfillScheduler

    monkeypatch.setattr(BackfillScheduler, "_run_indexed",
                        scheduler.run_reference)


def use_reference_substrate(monkeypatch) -> None:
    """Swap every simulation-substrate oracle into the production stages.

    Scheduling, trace construction and power conversion then run the
    seed loops, so a :class:`~repro.snapshot.experiment.SnapshotExperiment`
    built afterwards reproduces the pre-columnar snapshot end to end.
    """
    from repro.power.traces import PowerBreakdownTrace
    from repro.workload.scheduler import BackfillScheduler

    use_reference_scheduler(monkeypatch)
    monkeypatch.setattr(BackfillScheduler, "build_trace",
                        scheduler.build_trace_loop)
    monkeypatch.setattr(PowerBreakdownTrace, "from_utilization",
                        staticmethod(power.from_utilization_loop))


__all__ = ["use_reference_scheduler", "use_reference_substrate"]
