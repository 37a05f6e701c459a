"""Recording runs into a catalog and serving repeats back out of it.

:class:`CatalogRecorder` is the seam between the execution façades and the
:class:`~repro.catalog.store.RunCatalog`.  Every front door accepts an
opt-in ``catalog=`` argument (a catalog, a recorder, or just a path) and
routes its ``run()`` through here, which:

1. **serves** — if the catalog already holds a run for this exact kind and
   spec (matched by content digest, then asserted equal field-for-field),
   the recorded answer comes back as a :class:`ServedRun` with *zero*
   simulation;
2. **records** — otherwise the live pipeline runs, and its result payload
   is recorded under the content-addressed run id before being returned.

Because catalogued payloads are canonical JSON (floats serialised with
``repr`` round-tripping), a served run's ``as_dict()`` is bit-identical to
the live result's — the property the regression tests pin.

::

    from repro.api import Assessment, default_spec

    spec = default_spec(node_scale=0.05)
    first = Assessment.from_spec(spec, catalog="runs.db").run()   # simulates
    again = Assessment.from_spec(spec, catalog="runs.db").run()   # served
    assert again.served_from_catalog
    assert again.as_dict() == first.as_dict()
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.hashing import canonical_json

from repro.catalog.schema import CatalogError
from repro.catalog.store import (
    RunCatalog,
    RunRecord,
    _canonical_payload_json,
    spec_digest,
)

CatalogLike = Union["CatalogRecorder", RunCatalog, str, Path, None]


class ServedRun:
    """A run answered from the catalog instead of the live pipeline.

    Carries the recorded result payload and quacks like the live result
    for reporting purposes: ``summary()``, ``as_dict()``, ``to_json()``,
    and attribute access to every summary column (``total_kg``,
    ``active_kg``, ``savings_kg``, ``total_kg_p50``, ... — whatever the
    recorded kind's summary row holds).
    """

    served_from_catalog = True

    def __init__(self, record: RunRecord, payload: Dict[str, Any]):
        self._record = record
        self._payload = payload

    @property
    def run_id(self) -> str:
        return self._record.run_id

    @property
    def kind(self) -> str:
        return self._record.kind

    @property
    def record(self) -> RunRecord:
        return self._record

    def summary(self) -> Dict[str, Any]:
        return dict(self._payload["summary"])

    def as_dict(self) -> Dict[str, Any]:
        return self._payload

    def to_json(self, path) -> None:
        from repro.io.jsonio import write_json

        write_json(path, self.as_dict())

    def __getattr__(self, name: str) -> Any:
        summary = self.__dict__.get("_payload", {}).get("summary", {})
        if name in summary:
            return summary[name]
        raise AttributeError(
            f"{type(self).__name__} ({self.kind}) has no attribute "
            f"{name!r}; recorded summary columns: "
            f"{', '.join(sorted(summary))}")

    def __repr__(self) -> str:
        return (f"<ServedRun {self.kind} {self._record.short_id} "
                f"from catalog>")


class ServedAssessmentResult(ServedRun):
    """A served ``assess`` run, with the assessment result's table views."""

    @property
    def spec(self):
        from repro.api.spec import AssessmentSpec

        return AssessmentSpec.from_dict(self._payload["spec"])

    def table2_rows(self):
        return [dict(row) for row in self._payload["table2"]]


#: Which ServedRun class fronts each recorded kind.
_SERVED_CLASSES: Dict[str, type] = {
    "assess": ServedAssessmentResult,
    "temporal": ServedRun,
    "uncertainty": ServedRun,
    "portfolio": ServedRun,
}


class CatalogRecorder:
    """Serve-or-record policy around one :class:`RunCatalog`.

    Parameters
    ----------
    catalog:
        The catalog to record into / serve from; a path opens (creating
        if needed) a :class:`RunCatalog` there.
    tags:
        Tags attached to every run this recorder records.
    serve:
        With ``False``, always run live (still recording) — the
        "re-measure and let ``runs diff`` compare" mode.
    record:
        With ``False``, never write (only serve) — useful against a
        read-only baseline catalog.
    """

    def __init__(self, catalog: Union[RunCatalog, str, Path], *,
                 tags: Sequence[str] = (), serve: bool = True,
                 record: bool = True):
        if isinstance(catalog, (str, Path)):
            catalog = RunCatalog(catalog)
        if not isinstance(catalog, RunCatalog):
            raise TypeError(
                f"catalog must be a RunCatalog or a path, got "
                f"{type(catalog).__name__}")
        self._catalog = catalog
        self._tags = tuple(tags)
        self._serve = serve
        self._record = record

    @classmethod
    def coerce(cls, value: CatalogLike) -> Optional["CatalogRecorder"]:
        """The ``catalog=`` argument contract shared by every façade.

        ``None`` stays ``None`` (no cataloguing); a recorder passes
        through; a :class:`RunCatalog` or path is wrapped with the
        default serve-and-record policy.
        """
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    @property
    def catalog(self) -> RunCatalog:
        return self._catalog

    @property
    def tags(self) -> Tuple[str, ...]:
        return self._tags

    def with_tags(self, *tags: str) -> "CatalogRecorder":
        """A recorder additionally attaching ``tags`` to recorded runs."""
        return CatalogRecorder(self._catalog,
                               tags=self._tags + tuple(str(t) for t in tags),
                               serve=self._serve, record=self._record)

    # -- the serve-or-record core ----------------------------------------------------

    def can_serve(self, kind: str, spec_doc: Dict[str, Any]) -> bool:
        """Whether a run of this kind and spec would be catalog-served."""
        return self._serve and self._catalog.has(
            kind=kind, spec_digest=spec_digest(kind, spec_doc))

    def serve(self, kind: str, spec_doc: Dict[str, Any]) -> Optional[ServedRun]:
        """The recorded answer for (kind, spec), or ``None`` on a miss.

        A digest hit is asserted exact before serving: the stored
        canonical spec document must equal the requested one
        field-for-field, so a (cryptographically improbable) collision or
        a tampered row can never serve the wrong answer.
        """
        if not self._serve:
            return None
        found = self._catalog.latest(
            kind=kind, spec_digest=spec_digest(kind, spec_doc))
        if found is None:
            return None
        if canonical_json(found.spec) != canonical_json(spec_doc):
            raise CatalogError(
                f"catalog run {found.short_id} matches the spec digest but "
                f"not the spec itself; the catalog row is inconsistent — "
                f"delete it (repro runs gc / RunCatalog.delete) and re-run")
        payload = self._catalog.payload(found.run_id)
        return _SERVED_CLASSES[kind](found, payload)

    def run(
        self,
        kind: str,
        spec_doc: Dict[str, Any],
        compute: Callable[[], Any],
        *,
        payload_of: Callable[[Any], Dict[str, Any]] = lambda r: r.as_dict(),
    ) -> Any:
        """Serve (kind, spec) from the catalog, or compute and record it.

        On a hit the recorded payload comes back as a :class:`ServedRun`
        (``served_from_catalog`` is ``True``); on a miss ``compute()``
        runs, its payload is recorded with the wall-clock duration, and
        the **live** result object is returned — so first runs keep full
        object fidelity (snapshots, profiles, reports) and only repeats
        trade it for zero simulation.

        The payload is round-tripped through canonical JSON before being
        returned to the caller's test harness comparisons: what the live
        result serialises and what a later served run carries are the
        same bytes.
        """
        served = self.serve(kind, spec_doc)
        if served is not None:
            return served
        start = time.perf_counter()
        result = compute()
        duration = time.perf_counter() - start
        if self._record:
            payload = json.loads(_canonical_payload_json(payload_of(result)))
            self._catalog.record(
                kind=kind, spec=spec_doc, payload=payload,
                duration_s=duration, tags=self._tags)
        return result

    # -- per-façade entry points -----------------------------------------------------

    def run_assessment(self, assessment) -> Any:
        """Serve or run one :class:`~repro.api.assessment.Assessment`."""
        return self.run("assess", assessment.spec.to_dict(),
                        assessment.run_live)

    def run_temporal(self, temporal) -> Any:
        """Serve or run one :class:`~repro.api.temporal.TemporalAssessment`."""
        return self.run("temporal", temporal.spec.to_dict(),
                        temporal.run_live)

    def run_ensemble(self, runner, *, n_samples: int, seed) -> Any:
        """Serve or run one :class:`~repro.uncertainty.ensemble.EnsembleRunner` draw.

        An ensemble is a pure function of (spec, n_samples, seed).  The
        content address also carries the path the runner takes
        (``"method"``: ``"vectorized"`` or ``"oracle"``, the per-sample
        loop), so addresses match those catalogued when the path was a
        caller's choice.  The seed must be an int: a live
        ``numpy.random.Generator`` carries hidden state and cannot be
        content-addressed.
        """
        spec_doc = self._ensemble_spec_doc(
            runner, n_samples=n_samples, seed=seed,
            method="vectorized" if runner.vectorizable() else "oracle")
        return self.run(
            "uncertainty", spec_doc,
            lambda: runner.run_live(n_samples=n_samples, seed=seed))

    def run_temporal_ensemble(self, runner, *, n_samples: int, seed) -> Any:
        """Serve or run one temporal-ensemble draw (kind ``uncertainty``)."""
        spec_doc = self._ensemble_spec_doc(
            runner, n_samples=n_samples, seed=seed, engine="temporal")
        return self.run(
            "uncertainty", spec_doc,
            lambda: runner.run_live(n_samples=n_samples, seed=seed))

    def run_portfolio(self, runner) -> Any:
        """Serve or run one :class:`~repro.portfolio.runner.PortfolioRunner`."""
        return self.run("portfolio", runner.spec.to_dict(), runner.run_live)

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _ensemble_spec_doc(runner, *, n_samples: int, seed,
                           **extra: Any) -> Dict[str, Any]:
        if not isinstance(seed, int):
            raise CatalogError(
                f"cataloguing an ensemble needs an int seed (a "
                f"{type(seed).__name__} carries hidden state and cannot "
                f"be content-addressed); pass seed=<int> or drop catalog=")
        doc = {"spec": runner.spec.to_dict(),
               "n_samples": int(n_samples), "seed": int(seed)}
        doc.update(extra)
        return doc


__all__ = [
    "CatalogRecorder",
    "ServedAssessmentResult",
    "ServedRun",
]
