"""The serving middle tier: admission, coalescing, catalog read-through.

:class:`ServeApp` is the application object behind every endpoint.  It owns
the three long-lived resources a hosted deployment must share across
requests —

* one bounded :class:`~repro.api.substrates.SubstrateCache` (so concurrent
  requests for the same physical configuration coalesce on one in-flight
  simulation, and a long-lived process cannot leak substrates);
* one optional :class:`~repro.catalog.CatalogRecorder` (so repeat specs
  are served from the run catalog with zero simulations, and every live
  answer is recorded);
* one bounded worker pool with an explicit admission counter (so overload
  is an immediate ``429`` + ``Retry-After``, never unbounded growth).

The compute path is exactly the library path: each request builds the
ordinary façade (:class:`~repro.api.Assessment`,
:class:`~repro.api.TemporalAssessment`, the ensemble runners,
:class:`~repro.portfolio.PortfolioRunner`) over the shared cache and
recorder, so everything the library guarantees — bit-identical served
repeats, simulate-once sweeps, per-waiter exception clones — holds across
HTTP clients too.
"""

from __future__ import annotations

import asyncio
import importlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.api.substrates import (
    DEFAULT_SHARED_MAX_ENTRIES,
    SubstrateCache,
)

#: Default size of the worker pool (concurrently *executing* requests).
DEFAULT_WORKERS = 4

#: Default admission queue depth beyond the executing workers.
DEFAULT_QUEUE_LIMIT = 16

#: Default per-request wall-clock budget before the server answers 504.
DEFAULT_REQUEST_TIMEOUT_S = 300.0

#: The POST endpoints and the run kinds they execute.
RUN_KINDS = ("assess", "temporal", "uncertainty", "portfolio")


class ServeError(Exception):
    """Base of every error the serving layer maps to an HTTP status."""

    status = 500

    def as_dict(self) -> Dict[str, Any]:
        return {"error": str(self), "status": self.status}


class BadRequest(ServeError):
    """A malformed or unresolvable request document (HTTP 400)."""

    status = 400


class Overloaded(ServeError):
    """Admission refused: workers and queue are full (HTTP 429)."""

    status = 429

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RequestTimeout(ServeError):
    """The request exceeded its wall-clock budget (HTTP 504)."""

    status = 504


class ServerClosing(ServeError):
    """The server is draining and admits no new work (HTTP 503)."""

    status = 503


@dataclass(frozen=True)
class ServeConfig:
    """Everything one ``repro serve`` deployment is configured by.

    Attributes
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (tests).
    workers:
        Worker-thread count — how many requests *execute* concurrently.
        Each request's simulation runs its sites one after another.
    queue_limit:
        How many admitted requests may wait beyond the executing
        ``workers`` before new arrivals get 429.
    request_timeout_s:
        Per-request wall-clock budget; on expiry the client gets 504 and
        the admission slot is released when the worker actually finishes.
    retry_after_s:
        The ``Retry-After`` hint attached to 429 responses.
    max_substrates:
        ``max_entries`` bound of the server-owned substrate cache.
    substrate_cache_dir:
        Optional on-disk snapshot cache shared across restarts.
    catalog:
        Optional run-catalog path: enables read-through serving and
        records every live run.
    tags:
        Tags attached to catalogued runs recorded by this server.
    plugins:
        Module names imported at startup (and re-imported by
        :meth:`ServeApp.reload_plugins`); they register components
        through the ordinary registries.
    """

    host: str = "127.0.0.1"
    port: int = 8035
    workers: int = DEFAULT_WORKERS
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S
    retry_after_s: float = 1.0
    max_substrates: Optional[int] = DEFAULT_SHARED_MAX_ENTRIES
    substrate_cache_dir: Optional[Union[str, Path]] = None
    catalog: Optional[Union[str, Path]] = None
    tags: Tuple[str, ...] = ()
    plugins: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")

    @property
    def capacity(self) -> int:
        """Admitted requests allowed at once (executing + queued)."""
        return self.workers + self.queue_limit


class ServeApp:
    """The long-lived application state shared by every request.

    Parameters
    ----------
    config:
        The deployment configuration (:class:`ServeConfig`).
    substrates:
        Inject a prebuilt cache (tests, embedding); by default the app
        builds its own bounded cache from the config.
    catalog:
        Inject a catalog / recorder directly instead of ``config.catalog``
        (same coercion contract as every façade's ``catalog=``).
    """

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 substrates: Optional[SubstrateCache] = None,
                 catalog=None):
        self._config = config if config is not None else ServeConfig()
        self._substrates = substrates if substrates is not None else (
            SubstrateCache(persist_dir=self._config.substrate_cache_dir,
                           max_entries=self._config.max_substrates))
        if catalog is None:
            catalog = self._config.catalog
        self._recorder = self._coerce_catalog(catalog)
        self._pool = ThreadPoolExecutor(
            max_workers=self._config.workers,
            thread_name_prefix="repro-serve")
        self._gate = threading.Lock()
        self._admitted = 0
        self._executing = 0
        self._draining = False
        self._drained = threading.Event()
        self._counters: Dict[str, int] = {
            "completed": 0, "errors": 0, "rejected_overload": 0,
            "timeouts": 0, "served_from_catalog": 0, "served_live": 0,
        }
        self._kind_counters: Dict[str, int] = {kind: 0 for kind in RUN_KINDS}
        self._loaded_plugins: Tuple[str, ...] = ()
        if self._config.plugins:
            self.reload_plugins()

    def _coerce_catalog(self, catalog):
        if catalog is None:
            return None
        from repro.catalog.record import CatalogRecorder

        recorder = CatalogRecorder.coerce(catalog)
        if self._config.tags:
            recorder = recorder.with_tags(*self._config.tags)
        return recorder

    # -- introspection ---------------------------------------------------------------

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def substrates(self) -> SubstrateCache:
        return self._substrates

    @property
    def recorder(self):
        return self._recorder

    def stats(self) -> Dict[str, Any]:
        """One structured snapshot of every counter the server keeps.

        This is the ``GET /stats`` payload: cache hit/run/load counters,
        in-flight and queue depths, per-endpoint request counts, and the
        admission/overload tallies.
        """
        with self._gate:
            admitted = self._admitted
            executing = self._executing
            draining = self._draining
            counters = dict(self._counters)
            kinds = dict(self._kind_counters)
        cache = self._substrates
        stats: Dict[str, Any] = {
            "server": {
                "workers": self._config.workers,
                "queue_limit": self._config.queue_limit,
                "in_flight": executing,
                "queued": max(0, admitted - executing),
                "admitted": admitted,
                "capacity": self._config.capacity,
                "draining": draining,
                "plugins": list(self._loaded_plugins),
            },
            "requests": dict(counters, by_kind=kinds),
            "substrates": {
                "snapshot_runs": cache.snapshot_runs,
                "snapshot_hits": cache.snapshot_hits,
                "snapshot_loads": cache.snapshot_loads,
                "entries": cache.entries,
                "max_entries": cache.max_entries,
            },
        }
        if self._recorder is not None:
            stats["catalog"] = {
                "path": str(self._recorder.catalog.path),
                "runs": self._recorder.catalog.count(),
            }
        else:
            stats["catalog"] = None
        return stats

    # -- the compute path (runs on worker threads) -----------------------------------

    def handle(self, kind: str, doc: Any) -> Tuple[Dict[str, Any], str]:
        """Execute one request document synchronously.

        Returns ``(payload, source)`` where ``source`` is ``"catalog"``
        for a read-through hit and ``"live"`` for a fresh computation.
        Raises :class:`BadRequest` for anything wrong with the document
        itself (unknown fields, unregistered components, bad types).
        """
        if kind not in RUN_KINDS:
            raise BadRequest(f"unknown run kind {kind!r}; expected one of "
                             f"{', '.join(RUN_KINDS)}")
        if not isinstance(doc, dict):
            raise BadRequest(
                f"{kind} request body must be a JSON object, got "
                f"{type(doc).__name__}")
        from repro.catalog.schema import CatalogError

        try:
            result = getattr(self, f"_run_{kind}")(doc)
        except ServeError:
            raise
        except (KeyError, ValueError, TypeError, CatalogError) as exc:
            raise BadRequest(str(exc)) from exc
        served = bool(getattr(result, "served_from_catalog", False))
        return result.as_dict(), ("catalog" if served else "live")

    def _run_assess(self, doc: Dict[str, Any]):
        from repro.api import Assessment, AssessmentSpec

        spec = AssessmentSpec.from_dict(doc)
        return Assessment.from_spec(spec, substrates=self._substrates,
                                    catalog=self._recorder).run()

    def _run_temporal(self, doc: Dict[str, Any]):
        from repro.api import AssessmentSpec, TemporalAssessment

        spec = AssessmentSpec.from_dict(doc)
        return TemporalAssessment.from_spec(
            spec, substrates=self._substrates, catalog=self._recorder).run()

    def _run_uncertainty(self, doc: Dict[str, Any]):
        from repro.uncertainty import EnsembleRunner, TemporalEnsembleRunner

        if "spec" not in doc:
            raise BadRequest(
                'an uncertainty request wraps its spec: {"spec": {...}, '
                '"n_samples": N, "seed": S, "temporal": false}')
        if doc.get("method", "auto") != "auto":
            raise BadRequest(
                "the uncertainty request field \"method\" was removed: the "
                "ensemble takes the columnar pass whenever every sampled "
                "field allows it; drop the field")
        known = {"spec", "n_samples", "seed", "temporal"}
        unknown = sorted(set(doc) - known - {"method"})
        if unknown:
            raise BadRequest(
                f"unknown uncertainty request fields: {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(known))}")
        spec = self._uncertain_spec(doc["spec"])
        n_samples = int(doc.get("n_samples", 1000))
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise BadRequest("uncertainty seed must be an integer (served "
                             "runs are content-addressed by it)")
        runner_cls = (TemporalEnsembleRunner if doc.get("temporal", False)
                      else EnsembleRunner)
        runner = runner_cls(spec, substrates=self._substrates,
                            catalog=self._recorder)
        return runner.run(n_samples=n_samples, seed=seed)

    @staticmethod
    def _uncertain_spec(data: Any):
        """A spec document with distribution objects, or a plain spec.

        A plain spec (no ``{"dist": ...}`` fields) gets the paper's
        default input envelope attached — the same convenience as
        ``repro uncertainty --spec`` on the command line.
        """
        from repro.api import AssessmentSpec
        from repro.uncertainty import UncertainSpec
        from repro.uncertainty.distributions import DIST_KEY

        if not isinstance(data, dict):
            raise BadRequest('uncertainty "spec" must be a JSON object')
        has_distributions = any(
            isinstance(value, dict) and DIST_KEY in value
            for value in data.values())
        if has_distributions:
            return UncertainSpec.from_dict(data)
        return AssessmentSpec.from_dict(data)

    def _run_portfolio(self, doc: Dict[str, Any]):
        from repro.portfolio import PortfolioRunner, PortfolioSpec

        spec = PortfolioSpec.from_dict(doc)
        return PortfolioRunner(spec, substrates=self._substrates,
                               catalog=self._recorder).run()

    # -- admission and execution -------------------------------------------------------

    def _admit(self, kind: str) -> None:
        with self._gate:
            if self._draining:
                raise ServerClosing(
                    "server is draining and admits no new requests")
            if self._admitted >= self._config.capacity:
                self._counters["rejected_overload"] += 1
                raise Overloaded(
                    f"at capacity ({self._config.workers} executing + "
                    f"{self._config.queue_limit} queued); retry shortly",
                    retry_after_s=self._config.retry_after_s)
            self._admitted += 1
            self._kind_counters[kind] += 1
            self._drained.clear()

    def _execute(self, kind: str, doc: Any) -> Tuple[Dict[str, Any], str]:
        with self._gate:
            self._executing += 1
        try:
            payload, source = self.handle(kind, doc)
        except BaseException:
            with self._gate:
                self._executing -= 1
                self._counters["errors"] += 1
            raise
        with self._gate:
            self._executing -= 1
            self._counters["completed"] += 1
            self._counters["served_from_catalog" if source == "catalog"
                           else "served_live"] += 1
        return payload, source

    def _release(self, _future) -> None:
        """Free the admission slot when the worker actually finishes.

        Runs as the pool future's done callback — including after a
        client-side timeout abandoned the response — so the admission
        accounting always reflects real thread occupancy.
        """
        with self._gate:
            self._admitted -= 1
            if self._admitted == 0 and self._draining:
                self._drained.set()

    async def submit(self, kind: str, doc: Any) -> Tuple[Dict[str, Any], str]:
        """Admit, execute on the pool, await with the request timeout.

        Raises :class:`Overloaded` / :class:`ServerClosing` at admission,
        :class:`RequestTimeout` on budget expiry (the underlying worker
        keeps running; its slot is released on completion), and whatever
        :meth:`handle` raised otherwise.
        """
        self._admit(kind)
        try:
            future = self._pool.submit(self._execute, kind, doc)
        except BaseException:
            self._release(None)
            raise
        future.add_done_callback(self._release)
        wrapped = asyncio.wrap_future(future)
        try:
            return await asyncio.wait_for(
                wrapped, timeout=self._config.request_timeout_s)
        except asyncio.TimeoutError:
            with self._gate:
                self._counters["timeouts"] += 1
            raise RequestTimeout(
                f"request exceeded its {self._config.request_timeout_s:g}s "
                f"budget") from None

    # -- lifecycle ---------------------------------------------------------------------

    def reload_plugins(self) -> Tuple[str, ...]:
        """(Re-)import every configured plugin module; returns their names.

        A module seen before is reloaded (``importlib.reload``) so edits
        take effect; fresh names are imported.  Plugins register
        components through the ordinary registries with
        ``overwrite=True`` — and because substrate cache keys include the
        resolved factory, the very next request uses the new component
        instead of a stale cached series.
        """
        import sys

        loaded = []
        for name in self._config.plugins:
            module = sys.modules.get(name)
            try:
                if module is not None:
                    importlib.reload(module)
                else:
                    importlib.import_module(name)
            except Exception as exc:
                raise BadRequest(
                    f"plugin module {name!r} failed to load: {exc}") from exc
            loaded.append(name)
        self._loaded_plugins = tuple(loaded)
        return self._loaded_plugins

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight requests, shut the pool down.

        Returns ``True`` when every admitted request finished inside the
        timeout.  Idempotent; new submissions during and after the drain
        get :class:`ServerClosing`.
        """
        with self._gate:
            self._draining = True
            if self._admitted == 0:
                self._drained.set()
        drained = self._drained.wait(timeout_s)
        self._pool.shutdown(wait=False)
        return drained

    def close(self) -> None:
        """Drain with no grace period (tests and error paths)."""
        self.drain(timeout_s=0.0)


__all__ = [
    "BadRequest",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_REQUEST_TIMEOUT_S",
    "DEFAULT_WORKERS",
    "Overloaded",
    "RequestTimeout",
    "RUN_KINDS",
    "ServeApp",
    "ServeConfig",
    "ServeError",
    "ServerClosing",
]
