"""The per-spec loops the columnar sweep compiler replaced.

Each loop runs one full :class:`~repro.api.assessment.Assessment` (or
temporal assessment, or portfolio) per scenario over the runner's shared
substrates and catalog.  :func:`evaluate_assessments` and
:func:`evaluate_temporals` take the arguments of
``BatchAssessmentRunner._evaluate_assessments``/``_evaluate_temporals``,
so a test can swap them into a runner; the ``sweep*`` helpers run a whole
grid through them.  The compiled engine must reproduce every row byte for
byte.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.api import Assessment, AssessmentSpec, BatchAssessmentRunner
from repro.api.batch import BatchResult, TemporalBatchResult


def evaluate_assessments(runner: BatchAssessmentRunner,
                         specs: Sequence[AssessmentSpec]) -> List:
    """One :class:`Assessment` per spec, in order."""
    return [Assessment(spec, substrates=runner.substrates,
                       catalog=runner._recorder).run()
            for spec in specs]


def evaluate_temporals(runner: BatchAssessmentRunner,
                       specs: Sequence[AssessmentSpec]) -> List:
    """One :class:`~repro.api.temporal.TemporalAssessment` per spec."""
    from repro.api.temporal import TemporalAssessment

    return [TemporalAssessment(spec, substrates=runner.substrates,
                               catalog=runner._recorder).run()
            for spec in specs]


def sweep(runner: BatchAssessmentRunner, **axes: Iterable) -> BatchResult:
    """``runner.sweep(**axes)`` through the per-spec loop."""
    return BatchResult(results=tuple(
        evaluate_assessments(runner, runner.grid_specs(**axes))))


def sweep_temporal(runner: BatchAssessmentRunner,
                   **axes: Iterable) -> TemporalBatchResult:
    """``runner.sweep_temporal(**axes)`` through the per-spec loop."""
    return TemporalBatchResult(results=tuple(
        evaluate_temporals(runner, runner.grid_specs(**axes))))


def sweep_portfolio(runner: BatchAssessmentRunner, region: Iterable[str],
                    load_split: Optional[Iterable[Sequence[float]]] = None,
                    *, name: str = "portfolio-sweep"):
    """``runner.sweep_portfolio``: one full portfolio run per load split."""
    from repro.portfolio import (
        PortfolioBatchResult,
        PortfolioRunner,
        PortfolioSpec,
    )

    regions = list(region)
    splits = ([list(split) for split in load_split]
              if load_split is not None else [None])
    results = [
        PortfolioRunner(
            PortfolioSpec.from_regions(
                regions, base_spec=runner.base_spec, load_shares=shares,
                name=f"{name}-{index}" if len(splits) > 1 else name),
            substrates=runner.substrates, catalog=runner._recorder).run()
        for index, shares in enumerate(splits)
    ]
    return PortfolioBatchResult(results=tuple(results))


__all__ = [
    "evaluate_assessments",
    "evaluate_temporals",
    "sweep",
    "sweep_portfolio",
    "sweep_temporal",
]
