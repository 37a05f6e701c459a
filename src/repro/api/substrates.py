"""Shared, cached simulation substrates.

The expensive parts of an assessment — the hardware catalog, a grid
carbon-intensity series, and above all the simulated measurement campaign
(workload generation, scheduling, power conversion, instrument sweep) — do
not depend on the scenario parameters being evaluated.  A
:class:`SubstrateCache` computes each of them once per distinct
configuration and hands the cached object to every assessment that shares
it, which is what makes a :class:`~repro.api.batch.BatchAssessmentRunner`
sweep of N scenarios cost one simulation instead of N.

The cache is thread-safe: concurrent requests for the *same* key block on
one in-flight computation (no duplicated engine runs), while requests for
different keys proceed independently.

With ``persist_dir`` set, simulated snapshots are additionally written to
disk (``.npz`` + JSON sidecar keyed by the spec's physical hash, see
:mod:`repro.api.persistence`), so a full-scale simulation is paid once per
machine rather than once per process.  Sites too big to simulate in memory
(see :func:`repro.snapshot.experiment.out_of_core`) stream shards through a
temporary directory that is gone once the snapshot is built; only the
``.npz`` + JSON entry lands in ``persist_dir``.
"""

from __future__ import annotations

import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.api.registry import GRID_PROVIDERS, INVENTORY_SOURCES
from repro.grid.intensity import CarbonIntensitySeries
from repro.inventory.catalog import HardwareCatalog, default_catalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.spec import AssessmentSpec
    from repro.snapshot.experiment import SnapshotResult


class _Slot:
    """One cache entry being computed or already computed."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


def _waiter_error(error: BaseException) -> BaseException:
    """A fresh exception object for one waiter thread.

    Waiters must not re-raise the owner's exception *object*: raising
    mutates ``__traceback__``, and N waiters raising the one shared
    instance concurrently corrupt each other's tracebacks (and the
    owner's).  Each waiter gets its own instance — same type and args
    where the type allows reconstruction, a ``RuntimeError`` wrapper
    otherwise — explicitly chained to the owner's original so the real
    failure (with the owner's traceback) stays visible.
    """
    try:
        clone = type(error)(*error.args)
    except Exception:
        clone = RuntimeError(f"shared substrate computation failed: {error!r}")
    clone.__cause__ = error
    return clone


class SubstrateCache:
    """Caches the expensive substrates shared across assessment runs.

    Parameters
    ----------
    persist_dir:
        Directory for the on-disk snapshot cache; ``None`` (default) keeps
        the cache in-process only.  Entries are keyed by the spec's
        physical hash, written atomically, and unreadable/stale entries are
        recomputed rather than raised.
    max_entries:
        Optional cap on retained cache entries.  A long-lived process
        sweeping many distinct physical configurations otherwise retains
        every substrate forever; with a cap, inserting past it evicts the
        oldest *completed* entries (in-flight computations are never
        evicted — a waiter blocked on one must always be woken by its
        owner).  ``None`` (default) keeps the historical unbounded
        behaviour.
    """

    def __init__(self, persist_dir: Optional[Union[str, Path]] = None, *,
                 max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        self._lock = threading.Lock()
        self._slots: Dict[Tuple[str, Tuple[Any, ...]], _Slot] = {}
        self._persist_dir = (Path(persist_dir).expanduser()
                             if persist_dir is not None else None)
        self._max_entries = max_entries
        # Statistics, mainly so tests and benchmarks can assert reuse.
        self.snapshot_runs = 0
        self.snapshot_hits = 0
        self.snapshot_loads = 0

    @property
    def persist_dir(self) -> Optional[Path]:
        """Where snapshots persist across processes (``None`` = in-memory only)."""
        return self._persist_dir

    @property
    def entries(self) -> int:
        """How many entries (completed or in flight) the cache holds now."""
        with self._lock:
            return len(self._slots)

    @property
    def max_entries(self) -> Optional[int]:
        """The entry limit (``None`` = unbounded)."""
        return self._max_entries

    # -- generic compute-once machinery ------------------------------------------

    def _evict_overflow_locked(self) -> None:
        """Drop the oldest completed entries while over ``max_entries``.

        Caller holds the lock.  Dict insertion order makes "oldest" the
        earliest-created surviving entry; entries still being computed
        (event not set) are skipped unconditionally, so a waiter blocked
        on a slot can always be woken by that slot's owner — even if that
        means temporarily exceeding the cap.  The ``catalog`` slot is
        never evicted: every snapshot consults it, so evicting it only
        trades one dict entry for a rebuild on the next simulation.
        """
        if self._max_entries is None or len(self._slots) <= self._max_entries:
            return
        evictable = [key for key, slot in self._slots.items()
                     if slot.event.is_set() and key[0] != "catalog"]
        excess = len(self._slots) - self._max_entries
        for key in evictable[:excess]:
            del self._slots[key]

    def clear(self) -> int:
        """Drop every completed cache entry; returns how many were dropped.

        In-flight computations are kept (their waiters must be woken by
        their owners); they complete normally and are retained until a
        later :meth:`clear` or eviction.  The persistent on-disk snapshot
        cache is untouched — ``clear`` frees process memory, not disk.
        """
        with self._lock:
            completed = [key for key, slot in self._slots.items()
                         if slot.event.is_set()]
            for key in completed:
                del self._slots[key]
            return len(completed)

    def _compute_once(self, kind: str, key: Tuple[Any, ...],
                      compute: Callable[[], Any]) -> Any:
        with self._lock:
            slot = self._slots.get((kind, key))
            owner = slot is None
            if owner:
                slot = self._slots[(kind, key)] = _Slot()
                self._evict_overflow_locked()
            elif kind == "snapshot":
                self.snapshot_hits += 1
        if owner:
            try:
                slot.value = compute()
            except BaseException as exc:
                slot.error = exc
                # A failed computation must not poison the key forever.
                with self._lock:
                    self._slots.pop((kind, key), None)
                slot.event.set()
                raise
            slot.event.set()
            return slot.value
        if not slot.event.is_set():  # a hit on a finished slot skips the wait
            slot.event.wait()
        if slot.error is not None:
            # Never re-raise the owner's exception object (see _waiter_error).
            raise _waiter_error(slot.error)
        return slot.value

    # -- substrates -----------------------------------------------------------------

    def catalog(self) -> HardwareCatalog:
        """The (immutable) default hardware catalog, built once.

        Routed through the per-key compute-once machinery rather than
        built under the cache-wide lock: a slow catalog build must never
        stall concurrent :meth:`intensity_series`/:meth:`snapshot`
        requests for unrelated keys (they only touch the lock for the
        brief slot bookkeeping, never for the build itself).  The
        ``catalog`` slot is exempt from ``max_entries`` eviction — it is
        the one substrate every snapshot needs.
        """
        return self._compute_once("catalog", (), default_catalog)

    def intensity_series(self, grid: str, days: float = 30.0) -> CarbonIntensitySeries:
        """The named grid provider's intensity series, computed once.

        The resolved factory is part of the cache key, so re-registering a
        provider name (``overwrite=True``) is picked up instead of serving
        the replaced provider's stale series.
        """
        factory = GRID_PROVIDERS.get(grid)
        return self._compute_once(
            "intensity", (grid, days, factory),
            lambda: factory(days=days),
        )

    def shared_snapshot(self, specs: Sequence["AssessmentSpec"]) -> "SnapshotResult":
        """The one snapshot of ``specs``, which share a physical configuration.

        Counts as one :meth:`snapshot` call per spec (the first may
        simulate, the rest are hits) without paying a lookup for each.
        """
        snapshot = self.snapshot(specs[0])
        with self._lock:
            self.snapshot_hits += len(specs) - 1
        return snapshot

    def snapshot(self, spec: "AssessmentSpec") -> "SnapshotResult":
        """The simulated snapshot for the spec's physical configuration.

        Keyed by :meth:`AssessmentSpec.physical_key` plus the resolved
        inventory-source factory, so specs differing only in scenario
        parameters share one engine run while a re-registered inventory
        source (``overwrite=True``) is not served stale results.

        With ``persist_dir`` configured, the on-disk cache is consulted
        before simulating, and fresh simulations are written back.  A
        configuration with an out-of-core site is digested with an
        ``"out-of-core"`` marker after its physical key: entries written
        before the size rule were all computed in memory, and its sums
        differ from theirs in floating-point order.  Out-of-core shard
        stores are scratch (see
        :class:`~repro.snapshot.experiment.SnapshotExperiment`) and never
        touch ``persist_dir``.
        """
        factory = INVENTORY_SOURCES.get(spec.inventory)

        def _run() -> "SnapshotResult":
            from repro.snapshot.experiment import SnapshotExperiment, out_of_core

            config = factory(spec)
            digest = None
            if self._persist_dir is not None:
                from repro.api.persistence import (
                    load_snapshot_result, snapshot_digest)

                key = spec.physical_key()
                if any(out_of_core(site, config) for site in config.sites):
                    key += ("out-of-core",)
                digest = snapshot_digest(key, factory)
                cached = load_snapshot_result(self._persist_dir, digest)
                if cached is not None:
                    with self._lock:
                        self.snapshot_loads += 1
                    return cached
            result = SnapshotExperiment(config, catalog=self.catalog()).run()
            with self._lock:
                self.snapshot_runs += 1
            if digest is not None:
                from repro.api.persistence import save_snapshot_result

                try:
                    save_snapshot_result(self._persist_dir, digest, result)
                except OSError as exc:
                    # A cache problem must never cost the caller the result
                    # of a simulation that already succeeded.
                    warnings.warn(
                        f"could not persist snapshot to {self._persist_dir}: "
                        f"{exc}", RuntimeWarning, stacklevel=2)
            return result

        return self._compute_once("snapshot", spec.physical_key() + (factory,), _run)


#: Entry cap of the process-wide shared cache.  A long-lived process (the
#: serving layer above all) funnels every request that does not bring its
#: own cache through :func:`shared_substrates`; unbounded, a sweep over
#: distinct physical configurations would retain every substrate forever.
#: Private caches built explicitly keep the historical unbounded default.
DEFAULT_SHARED_MAX_ENTRIES = 64

#: Process-wide default cache used when callers do not pass their own.
#: Bounded so a long-lived multi-client process cannot leak substrates
#: (see DEFAULT_SHARED_MAX_ENTRIES); completed entries past the cap are
#: evicted oldest-first and transparently recomputed on re-request.
_GLOBAL_CACHE = SubstrateCache(max_entries=DEFAULT_SHARED_MAX_ENTRIES)


def shared_substrates() -> SubstrateCache:
    """The process-wide substrate cache (bounded, see DEFAULT_SHARED_MAX_ENTRIES)."""
    return _GLOBAL_CACHE


def resolve_substrates(
    substrates: Optional[SubstrateCache],
    substrate_cache_dir: Optional[Union[str, Path]],
) -> SubstrateCache:
    """Resolve a runner's ``(substrates, substrate_cache_dir)`` pair.

    The shared constructor convention of every runner: an explicit cache
    wins (a directory beside it is rejected — give the cache its
    ``persist_dir`` instead), a directory alone builds a private
    persistent cache, and with neither the process-wide shared cache is
    used.
    """
    if substrates is not None:
        if substrate_cache_dir is not None:
            raise ValueError(
                "pass either substrates or substrate_cache_dir, not both; "
                "use SubstrateCache(persist_dir=...) to combine them")
        return substrates
    if substrate_cache_dir is not None:
        return SubstrateCache(persist_dir=substrate_cache_dir)
    return shared_substrates()


__all__ = [
    "DEFAULT_SHARED_MAX_ENTRIES",
    "SubstrateCache",
    "resolve_substrates",
    "shared_substrates",
]
