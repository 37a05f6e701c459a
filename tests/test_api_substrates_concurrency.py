"""Concurrency guarantees of the SubstrateCache.

The batch engine's whole speed story rests on one invariant: however many
threads ask for the same physical configuration at the same time, the
expensive simulation runs exactly once.  These tests hammer that invariant
directly — identical specs raced across many threads, whole batch runners
raced against each other — and pin the failure-recovery behaviour (an
error must not poison the key, but must also not be recomputed per waiter).
"""

import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    Assessment,
    BatchAssessmentRunner,
    INVENTORY_SOURCES,
    SubstrateCache,
    default_spec,
    register_inventory_source,
)

N_THREADS = 8


class _CountingIrisSource:
    """An inventory source that counts how often the substrate is built."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, spec):
        from repro.snapshot.config import build_iris_snapshot_config

        with self._lock:
            self.calls += 1
        return build_iris_snapshot_config(
            duration_hours=spec.duration_hours,
            trace_step_s=spec.trace_step_s,
            campaign_seed=spec.campaign_seed,
            node_scale=spec.node_scale,
        )


@pytest.fixture
def counting_source():
    source = _CountingIrisSource()
    register_inventory_source("test-counting-iris", source)
    try:
        yield source
    finally:
        INVENTORY_SOURCES.unregister("test-counting-iris")


def _spec(**overrides):
    kwargs = dict(node_scale=0.02, campaign_seed=11,
                  inventory="test-counting-iris")
    kwargs.update(overrides)
    return default_spec(**kwargs)


class TestSimulateExactlyOnce:
    def test_racing_assessments_share_one_simulation(self, counting_source):
        """Many threads, identical physical config -> exactly one engine run."""
        cache = SubstrateCache()
        barrier = threading.Barrier(N_THREADS)
        spec = _spec()

        def run():
            barrier.wait()  # maximise contention on the cache slot
            return Assessment.from_spec(spec, substrates=cache).run().total_kg

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            totals = list(pool.map(lambda _: run(), range(N_THREADS)))

        assert counting_source.calls == 1
        assert cache.snapshot_runs == 1
        assert cache.snapshot_hits >= N_THREADS - 1
        assert len(set(totals)) == 1  # all threads saw the same substrate

    def test_racing_batch_runners_share_one_simulation(self, counting_source):
        """Concurrent batch sweeps of identical physical configs: one run."""
        cache = SubstrateCache()
        barrier = threading.Barrier(4)

        def sweep(_):
            runner = BatchAssessmentRunner(_spec(), substrates=cache,
                                           max_workers=2)
            barrier.wait()
            batch = runner.sweep(intensity=[50.0, 175.0, 300.0], pue=[1.1, 1.3])
            return batch.totals_kg

        with ThreadPoolExecutor(max_workers=4) as pool:
            all_totals = list(pool.map(sweep, range(4)))

        assert counting_source.calls == 1
        assert cache.snapshot_runs == 1
        # Every racing sweep produced identical scenario totals.
        assert all(totals == all_totals[0] for totals in all_totals[1:])

    def test_distinct_physical_configs_each_simulate_once(self, counting_source):
        cache = SubstrateCache()
        specs = [_spec(campaign_seed=seed) for seed in (1, 2, 3)]

        def run(spec):
            return Assessment.from_spec(spec, substrates=cache).run()

        with ThreadPoolExecutor(max_workers=6) as pool:
            # Submit every spec twice, concurrently.
            list(pool.map(run, specs + specs))

        assert counting_source.calls == 3
        assert cache.snapshot_runs == 3

    def test_failure_does_not_poison_the_key(self):
        """A failed computation is raised to its waiters, then retried fresh."""
        cache = SubstrateCache()
        attempts = {"count": 0}
        lock = threading.Lock()

        def flaky(spec):
            with lock:
                attempts["count"] += 1
                if attempts["count"] == 1:
                    raise RuntimeError("transient substrate failure")
            from repro.snapshot.config import build_iris_snapshot_config

            return build_iris_snapshot_config(node_scale=0.02,
                                              campaign_seed=spec.campaign_seed)

        register_inventory_source("test-flaky-iris", flaky)
        try:
            spec = default_spec(node_scale=0.02, campaign_seed=11,
                                inventory="test-flaky-iris")
            with pytest.raises(RuntimeError, match="transient"):
                Assessment.from_spec(spec, substrates=cache).run()
            # The key was not poisoned: the next request recomputes and wins.
            result = Assessment.from_spec(spec, substrates=cache).run()
            assert result.total_kg > 0
            assert attempts["count"] == 2
        finally:
            INVENTORY_SOURCES.unregister("test-flaky-iris")


class _DistinctiveError(Exception):
    pass


class TestWaiterExceptions:
    """Waiters must not share (and mutate) the owner's exception object."""

    def test_each_waiter_gets_its_own_exception_instance(self):
        cache = SubstrateCache()
        owner_started = threading.Event()
        release_owner = threading.Event()
        owner_error = {}

        def owner():
            def compute():
                owner_started.set()
                release_owner.wait(timeout=30)
                raise _DistinctiveError("substrate build failed", 42)

            try:
                cache._compute_once("snapshot", ("k",), compute)
            except _DistinctiveError as exc:
                owner_error["exc"] = exc

        def waiter():
            try:
                cache._compute_once("snapshot", ("k",),
                                    lambda: pytest.fail("waiter computed"))
            except BaseException as exc:
                return exc, traceback.format_exc()
            pytest.fail("waiter did not raise")

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_started.wait(timeout=30)
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [pool.submit(waiter) for _ in range(N_THREADS)]
            release_owner.set()
            outcomes = [future.result() for future in futures]
        owner_thread.join()

        # The owner re-raised its original exception object, unwrapped.
        original = owner_error["exc"]
        assert isinstance(original, _DistinctiveError)
        assert original.args == ("substrate build failed", 42)

        seen = {id(original)}
        for exc, formatted in outcomes:
            # Same type and args, but a distinct object per waiter: nobody
            # raised the owner's instance (or a sibling waiter's).
            assert isinstance(exc, _DistinctiveError)
            assert exc.args == original.args
            assert id(exc) not in seen
            seen.add(id(exc))
            # Tracebacks are per-waiter too, not one shared mutated chain.
            assert exc.__traceback__ is not original.__traceback__
            assert exc.__cause__ is original
            # The chained rendering keeps the real failure site visible.
            assert "direct cause" in formatted

    def test_unreconstructible_exception_is_wrapped(self):
        class Picky(Exception):
            def __init__(self, code):
                if not isinstance(code, int):
                    raise TypeError("code must be an int")
                super().__init__(f"picky failure {code}")

        cache = SubstrateCache()
        started = threading.Event()
        release = threading.Event()

        def owner():
            def compute():
                started.set()
                release.wait(timeout=30)
                raise Picky(7)

            with pytest.raises(Picky):
                cache._compute_once("snapshot", ("k2",), compute)

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert started.wait(timeout=30)

        def waiter():
            with pytest.raises(RuntimeError,
                               match="shared substrate computation failed"):
                try:
                    cache._compute_once("snapshot", ("k2",),
                                        lambda: pytest.fail("computed"))
                except RuntimeError as exc:
                    assert isinstance(exc.__cause__, Picky)
                    raise

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(waiter) for _ in range(2)]
            release.set()
            for future in futures:
                future.result()
        owner_thread.join()


class TestBoundedCache:
    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            SubstrateCache(max_entries=0)

    def test_oldest_completed_entries_evicted_past_the_cap(self):
        cache = SubstrateCache(max_entries=2)
        computed = []

        def fetch(key):
            return cache._compute_once(
                "intensity", (key,), lambda: computed.append(key) or key)

        for key in ("a", "b", "c", "d"):
            fetch(key)
        assert computed == ["a", "b", "c", "d"]
        assert cache.entries == 2
        # The survivors are the newest two; refetching an evicted key
        # recomputes, refetching a survivor does not.
        fetch("d")
        assert computed == ["a", "b", "c", "d"]
        fetch("a")
        assert computed == ["a", "b", "c", "d", "a"]

    def test_in_flight_slot_is_never_evicted(self):
        cache = SubstrateCache(max_entries=1)
        started = threading.Event()
        release = threading.Event()

        def slow_owner():
            def compute():
                started.set()
                release.wait(timeout=30)
                return "slow-value"

            return cache._compute_once("snapshot", ("slow",), compute)

        with ThreadPoolExecutor(max_workers=2) as pool:
            owner = pool.submit(slow_owner)
            assert started.wait(timeout=30)
            # Flood the cache past its cap while "slow" is still computing.
            for key in ("x", "y", "z"):
                cache._compute_once("intensity", (key,), lambda k=key: k)
            # The in-flight slot survived every eviction pass...
            assert ("snapshot", ("slow",)) in cache._slots
            # ...so a waiter arriving now blocks on it rather than
            # becoming a duplicate owner.
            waiter = pool.submit(slow_owner)
            release.set()
            assert owner.result() == "slow-value"
            assert waiter.result() == "slow-value"

    def test_clear_drops_completed_keeps_in_flight(self):
        cache = SubstrateCache()
        for key in ("a", "b", "c"):
            cache._compute_once("intensity", (key,), lambda k=key: k)
        started = threading.Event()
        release = threading.Event()
        compute_count = {"n": 0}

        def slow_owner():
            def compute():
                compute_count["n"] += 1
                started.set()
                release.wait(timeout=30)
                return "v"

            return cache._compute_once("snapshot", ("inflight",), compute)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(slow_owner)
            assert started.wait(timeout=30)
            assert cache.clear() == 3
            assert list(cache._slots) == [("snapshot", ("inflight",))]
            release.set()
            assert future.result() == "v"
        # The surviving computation completed exactly once and is served
        # from cache afterwards.
        assert cache._compute_once("snapshot", ("inflight",),
                                   lambda: pytest.fail("recomputed")) == "v"
        assert compute_count["n"] == 1
        assert cache.clear() == 1
        assert cache._slots == {}


class TestCatalogBuildDoesNotStallTheCache:
    """Regression: a slow hardware-catalog build must not hold the
    cache-wide lock — concurrent lookups for unrelated keys (intensity
    series, other snapshots) proceed while the catalog is being built."""

    def test_concurrent_intensity_lookup_during_slow_catalog_build(
            self, monkeypatch):
        import repro.api.substrates as substrates_mod

        cache = SubstrateCache()
        build_started = threading.Event()
        release_build = threading.Event()
        builds = {"n": 0}
        real_default_catalog = substrates_mod.default_catalog

        def slow_default_catalog():
            builds["n"] += 1
            build_started.set()
            assert release_build.wait(timeout=30)
            return real_default_catalog()

        monkeypatch.setattr(substrates_mod, "default_catalog",
                            slow_default_catalog)

        with ThreadPoolExecutor(max_workers=2) as pool:
            building = pool.submit(cache.catalog)
            assert build_started.wait(timeout=30)
            # The catalog build is in flight and (pre-fix) held the
            # cache-wide lock; an unrelated lookup must still complete.
            lookup = pool.submit(
                cache.intensity_series, "uk-november-2022", 2.0)
            series = lookup.result(timeout=30)
            assert series is not None
            assert not building.done()  # the build really was still going
            release_build.set()
            catalog = building.result(timeout=30)

        # Built exactly once; repeats are served from the slot.
        assert cache.catalog() is catalog
        assert builds["n"] == 1

    def test_concurrent_catalog_requests_share_one_build(self, monkeypatch):
        import repro.api.substrates as substrates_mod

        cache = SubstrateCache()
        builds = {"n": 0}
        count_lock = threading.Lock()
        barrier = threading.Barrier(N_THREADS)
        real_default_catalog = substrates_mod.default_catalog

        def counting_default_catalog():
            with count_lock:
                builds["n"] += 1
            return real_default_catalog()

        monkeypatch.setattr(substrates_mod, "default_catalog",
                            counting_default_catalog)

        def fetch():
            barrier.wait()
            return cache.catalog()

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            catalogs = list(pool.map(lambda _: fetch(), range(N_THREADS)))

        assert builds["n"] == 1
        assert all(found is catalogs[0] for found in catalogs[1:])

    def test_catalog_slot_is_never_evicted(self):
        cache = SubstrateCache(max_entries=1)
        catalog = cache.catalog()
        # Flood the cache far past its cap with completed entries.
        for key in range(8):
            cache._compute_once("intensity", (key,), lambda k=key: k)
        assert ("catalog", ()) in cache._slots
        assert cache.catalog() is catalog


class TestBoundedSharedCache:
    """Regression: the process-wide cache must be bounded — a long-lived
    process sweeping distinct physical configs must not leak substrates."""

    def test_shared_cache_has_the_bounded_default(self):
        from repro.api.substrates import (
            DEFAULT_SHARED_MAX_ENTRIES, shared_substrates)

        assert shared_substrates().max_entries == DEFAULT_SHARED_MAX_ENTRIES

    def test_hundred_distinct_specs_hold_at_most_the_cap(self):
        from repro.api.substrates import DEFAULT_SHARED_MAX_ENTRIES

        cache = SubstrateCache(max_entries=DEFAULT_SHARED_MAX_ENTRIES)
        for index in range(100):
            # Stand-ins for 100 distinct physical-spec snapshot entries;
            # the eviction policy only sees (kind, key) slots.
            cache._compute_once("snapshot", (index,), lambda i=index: i)
        assert cache.entries <= DEFAULT_SHARED_MAX_ENTRIES
        # The newest entries survived; the oldest were evicted.
        assert ("snapshot", (99,)) in cache._slots
        assert ("snapshot", (0,)) not in cache._slots
