"""The serving middle tier: coalescing, admission, read-through, lifecycle.

The satellite contract pinned here: K concurrent requests that share one
physical configuration but differ in scenario parameters must trigger
exactly one simulation and yield K distinct, correct payloads; a failing
simulation must fail every waiter with its own exception clone without
poisoning the cache key; the admission gate must answer overload with 429
semantics, draining with 503 semantics, and budget expiry with 504
semantics while keeping the slot accounting honest.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    Assessment,
    INVENTORY_SOURCES,
    SubstrateCache,
    default_spec,
    register_inventory_source,
)
from repro.io.jsonio import json_default
from repro.serve import (
    BadRequest,
    Overloaded,
    RequestTimeout,
    ServeApp,
    ServeConfig,
    ServerClosing,
)

K = 8


class _CountingIrisSource:
    """An inventory source that counts how often the substrate is built.

    With ``fail_times`` set, the first builds block on ``release`` (so a
    test can pile waiters onto the in-flight computation first) and then
    raise.
    """

    def __init__(self, fail_times: int = 0):
        self.calls = 0
        self.fail_times = fail_times
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, spec):
        from repro.snapshot.config import build_iris_snapshot_config

        with self._lock:
            self.calls += 1
            if self.fail_times > 0:
                self.fail_times -= 1
                failing = True
            else:
                failing = False
        if failing:
            assert self.release.wait(timeout=30)
            raise RuntimeError("injected inventory failure")
        return build_iris_snapshot_config(
            duration_hours=spec.duration_hours,
            trace_step_s=spec.trace_step_s,
            campaign_seed=spec.campaign_seed,
            node_scale=spec.node_scale,
        )


@pytest.fixture
def counting_source():
    source = _CountingIrisSource()
    register_inventory_source("serve-counting-iris", source)
    try:
        yield source
    finally:
        INVENTORY_SOURCES.unregister("serve-counting-iris")


def _doc(**overrides):
    doc = {"node_scale": 0.02, "campaign_seed": 11,
           "inventory": "serve-counting-iris"}
    doc.update(overrides)
    return doc


def _submit_concurrently(app, requests):
    """Run ``app.submit`` for every (kind, doc) concurrently; returns outcomes.

    Each outcome is ``(payload, source)`` or the raised exception —
    mirroring K independent HTTP clients hitting the server at once.
    """

    async def drive():
        return await asyncio.gather(
            *(app.submit(kind, doc) for kind, doc in requests),
            return_exceptions=True)

    return asyncio.run(drive())


class TestCrossRequestCoalescing:
    def test_k_requests_one_simulation_k_distinct_payloads(
            self, counting_source):
        """Same physical spec, K different scenario params -> 1 engine run."""
        app = ServeApp(ServeConfig(workers=K))
        try:
            pues = [1.1 + 0.1 * i for i in range(K)]
            outcomes = _submit_concurrently(
                app, [("assess", _doc(pue=pue)) for pue in pues])

            assert counting_source.calls == 1
            assert app.substrates.snapshot_runs == 1
            totals = []
            for outcome in outcomes:
                assert not isinstance(outcome, BaseException), outcome
                payload, source = outcome
                assert source == "live"
                totals.append(payload["summary"]["total_kg"])
            # K distinct answers: every scenario got its own evaluation.
            assert len(set(totals)) == K

            # And each one is the answer the library gives directly.
            expected_cache = SubstrateCache()
            for pue, total in zip(pues, totals):
                expected = Assessment.from_spec(
                    default_spec(**_doc(pue=pue)),
                    substrates=expected_cache).run().total_kg
                assert total == pytest.approx(expected, rel=1e-12)
        finally:
            app.close()

    def test_stats_reflect_the_coalesced_run(self, counting_source):
        app = ServeApp(ServeConfig(workers=4))
        try:
            _submit_concurrently(
                app, [("assess", _doc(pue=1.1 + 0.1 * i)) for i in range(4)])
            stats = app.stats()
            assert stats["substrates"]["snapshot_runs"] == 1
            assert stats["requests"]["completed"] == 4
            assert stats["requests"]["served_live"] == 4
            assert stats["requests"]["by_kind"]["assess"] == 4
            assert stats["server"]["admitted"] == 0
        finally:
            app.close()

    def test_failing_simulation_fails_every_waiter_without_poisoning(self):
        """Satellite contract: per-waiter exception clones, then recovery."""
        source = _CountingIrisSource(fail_times=1)
        register_inventory_source("serve-failing-iris", source)
        try:
            app = ServeApp(ServeConfig(workers=K))
            try:
                doc = _doc(inventory="serve-failing-iris")

                async def drive():
                    requests = [
                        asyncio.ensure_future(
                            app.submit("assess", dict(doc, pue=1.1 + 0.1 * i)))
                        for i in range(K)]
                    # Let every request reach the in-flight computation
                    # before the owner is allowed to fail, so all K share
                    # the one failure instead of racing fresh attempts.
                    while app.stats()["server"]["in_flight"] < K:
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.25)
                    source.release.set()
                    return await asyncio.gather(*requests,
                                                return_exceptions=True)

                outcomes = asyncio.run(drive())

                assert source.calls == 1  # one failure, not one per waiter
                assert all(isinstance(outcome, RuntimeError)
                           for outcome in outcomes)
                assert len({id(outcome) for outcome in outcomes}) == K
                for outcome in outcomes:
                    assert "injected inventory failure" in str(outcome)

                # The key is not poisoned: the next request recomputes.
                payload, src = asyncio.run(app.submit("assess", doc))
                assert source.calls == 2
                assert src == "live"
                assert payload["summary"]["total_kg"] > 0
                assert app.stats()["requests"]["errors"] == K
            finally:
                app.close()
        finally:
            INVENTORY_SOURCES.unregister("serve-failing-iris")


class TestAdmission:
    def _blocked_app(self, **config):
        """An app whose handle() blocks until the returned event is set."""
        app = ServeApp(ServeConfig(**config))
        release = threading.Event()
        started = threading.Event()

        def handle(kind, doc):
            started.set()
            assert release.wait(timeout=30)
            return {"ok": True}, "live"

        app.handle = handle
        return app, release, started

    def test_past_capacity_is_overloaded_with_retry_after(self):
        app, release, started = self._blocked_app(
            workers=1, queue_limit=1, retry_after_s=7.0)
        try:

            async def drive():
                first = asyncio.ensure_future(app.submit("assess", {}))
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10)
                second = asyncio.ensure_future(app.submit("assess", {}))
                await asyncio.sleep(0.05)  # let the queued one be admitted
                with pytest.raises(Overloaded) as excinfo:
                    await app.submit("assess", {})
                assert excinfo.value.retry_after_s == 7.0
                assert excinfo.value.status == 429
                stats = app.stats()
                assert stats["server"]["admitted"] == 2
                assert stats["server"]["queued"] == 1
                assert stats["requests"]["rejected_overload"] == 1
                release.set()
                await first
                await second

            asyncio.run(drive())
            assert app.stats()["server"]["admitted"] == 0
        finally:
            release.set()
            app.close()

    def test_draining_refuses_new_requests(self, counting_source):
        app = ServeApp(ServeConfig(workers=1))
        try:
            assert app.drain(timeout_s=1.0) is True
            with pytest.raises(ServerClosing) as excinfo:
                asyncio.run(app.submit("assess", _doc()))
            assert excinfo.value.status == 503
            assert counting_source.calls == 0
        finally:
            app.close()

    def test_drain_waits_for_in_flight_work(self):
        app, release, started = self._blocked_app(workers=1, queue_limit=0)
        try:

            async def drive():
                inflight = asyncio.ensure_future(app.submit("assess", {}))
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10)
                loop = asyncio.get_running_loop()
                # A zero-grace drain times out while the request runs...
                assert await loop.run_in_executor(
                    None, app.drain, 0.01) is False
                release.set()
                await inflight
                # ...and completes once the worker finishes.
                assert await loop.run_in_executor(None, app.drain, 5.0) is True

            asyncio.run(drive())
        finally:
            release.set()
            app.close()

    def test_request_timeout_releases_the_slot_on_completion(self):
        app, release, started = self._blocked_app(
            workers=1, queue_limit=0, request_timeout_s=0.05)
        try:

            async def drive():
                with pytest.raises(RequestTimeout) as excinfo:
                    await app.submit("assess", {})
                assert excinfo.value.status == 504
                # The worker is still occupying its slot (threads cannot
                # be interrupted) — admission accounting says so.
                assert app.stats()["server"]["admitted"] == 1
                release.set()

            asyncio.run(drive())
            deadline = time.monotonic() + 10
            while app.stats()["server"]["admitted"] and (
                    time.monotonic() < deadline):
                time.sleep(0.01)
            stats = app.stats()
            assert stats["server"]["admitted"] == 0
            assert stats["requests"]["timeouts"] == 1
        finally:
            release.set()
            app.close()


class TestCatalogReadThrough:
    def test_repeat_spec_is_served_bit_identical_with_zero_simulation(
            self, counting_source, tmp_path):
        app = ServeApp(ServeConfig(workers=2, catalog=tmp_path / "runs.db"))
        try:
            doc = _doc()
            first, first_source = asyncio.run(app.submit("assess", doc))
            runs_after_first = app.substrates.snapshot_runs
            second, second_source = asyncio.run(app.submit("assess", doc))

            assert (first_source, second_source) == ("live", "catalog")
            assert counting_source.calls == 1
            assert app.substrates.snapshot_runs == runs_after_first
            encode = lambda payload: json.dumps(  # noqa: E731
                payload, sort_keys=True, default=json_default)
            assert encode(first) == encode(second)
            stats = app.stats()
            assert stats["requests"]["served_from_catalog"] == 1
            assert stats["requests"]["served_live"] == 1
            assert stats["catalog"]["runs"] == 1
        finally:
            app.close()

    def test_concurrent_repeat_specs_need_no_simulation(
            self, counting_source, tmp_path):
        """The bench contract's warm path: repeats never touch the engine."""
        app = ServeApp(ServeConfig(workers=2, catalog=tmp_path / "runs.db"))
        try:
            doc = _doc()
            asyncio.run(app.submit("assess", doc))
            warm = ServeApp(ServeConfig(workers=K,
                                        catalog=tmp_path / "runs.db"))
            try:
                outcomes = _submit_concurrently(
                    app=warm, requests=[("assess", doc)] * K)
                assert warm.substrates.snapshot_runs == 0
                assert all(source == "catalog"
                           for _, source in outcomes)
            finally:
                warm.close()
        finally:
            app.close()


class TestRequestValidation:
    def test_unknown_kind_and_non_object_bodies(self):
        app = ServeApp(ServeConfig(workers=1))
        try:
            with pytest.raises(BadRequest, match="unknown run kind"):
                app.handle("shenanigans", {})
            with pytest.raises(BadRequest, match="JSON object"):
                app.handle("assess", [1, 2, 3])
            with pytest.raises(BadRequest, match="unknown AssessmentSpec"):
                app.handle("assess", {"bogus_field": 1})
        finally:
            app.close()

    @pytest.mark.parametrize("doc, message", [
        ({"scheduler_engine": "reference"}, "scheduler_engine 'reference'"),
        ({"engine": "oracle"}, "engine 'oracle' was removed"),
        ({"engine": "sharded"}, "chosen from the fleet size"),
        ({"shard_nodes": 16, "shard_dtype": "float32"},
         "chosen from the fleet size"),
    ])
    def test_removed_engines_and_stray_shard_fields(self, doc, message):
        app = ServeApp(ServeConfig(workers=1))
        try:
            for kind in ("assess", "temporal"):
                with pytest.raises(BadRequest, match=message):
                    app.handle(kind, dict(doc, node_scale=0.02))
            assert app.substrates.snapshot_runs == 0
        finally:
            app.close()

    def test_legacy_default_scheduler_engine_is_dropped(self, counting_source):
        app = ServeApp(ServeConfig(workers=1))
        try:
            legacy, _ = app.handle("assess",
                                   _doc(scheduler_engine="indexed"))
            plain, _ = app.handle("assess", _doc())
            assert legacy == plain
            assert "scheduler_engine" not in legacy["spec"]
        finally:
            app.close()

    def test_uncertainty_request_envelope(self):
        app = ServeApp(ServeConfig(workers=1))
        try:
            with pytest.raises(BadRequest, match="wraps its spec"):
                app.handle("uncertainty", {"node_scale": 0.02})
            with pytest.raises(BadRequest, match="unknown uncertainty"):
                app.handle("uncertainty", {"spec": {}, "samples": 4})
            with pytest.raises(BadRequest, match="seed must be an integer"):
                app.handle("uncertainty", {"spec": {}, "seed": True})
            with pytest.raises(BadRequest, match="drop the field"):
                app.handle("uncertainty",
                           {"spec": {}, "temporal": True, "method": "lhs"})
        finally:
            app.close()

    def test_uncertainty_round_trip(self, counting_source):
        app = ServeApp(ServeConfig(workers=1))
        try:
            payload, source = app.handle("uncertainty", {
                "spec": _doc(), "n_samples": 8, "seed": 7, "temporal": False})
            assert source == "live"
            assert payload["summary"]["samples"] == 8
            assert counting_source.calls == 1
        finally:
            app.close()

    def test_removed_method_field(self, counting_source):
        """``"method": "auto"`` (the old default) is dropped; any other
        value names the removal before anything is simulated."""
        app = ServeApp(ServeConfig(workers=1))
        try:
            request = {"spec": _doc(), "n_samples": 8, "seed": 7}
            for method in ("vectorized", "oracle", "lhs"):
                with pytest.raises(BadRequest, match=(
                        "columnar pass whenever every sampled field allows "
                        "it; drop the field")):
                    app.handle("uncertainty", dict(request, method=method))
            assert counting_source.calls == 0
            legacy, _ = app.handle("uncertainty",
                                   dict(request, method="auto"))
            plain, _ = app.handle("uncertainty", request)
            assert legacy == plain
            assert plain["summary"]["method"] == "vectorized"
            assert counting_source.calls == 1
        finally:
            app.close()

    @pytest.mark.parametrize("field", [
        "pue", "lifetime_years", "duration_hours",
        "carbon_intensity_g_per_kwh",
    ])
    def test_non_finite_numbers_are_400(self, field, counting_source,
                                        tmp_path):
        """JSON parsers accept ``NaN`` and ``Infinity``: each is a 400 with
        no simulation and no catalog row, never a 200 or a 500."""
        app = ServeApp(ServeConfig(workers=1, catalog=tmp_path / "runs.db"))
        try:
            for value in (float("nan"), float("inf"), float("-inf")):
                for kind in ("assess", "temporal"):
                    with pytest.raises(BadRequest, match="must be finite"):
                        app.handle(kind, _doc(**{field: value}))
            assert counting_source.calls == 0
            assert app.substrates.snapshot_runs == 0
            assert app.stats()["catalog"]["runs"] == 0
        finally:
            app.close()

    def test_portfolio_round_trip(self, counting_source):
        app = ServeApp(ServeConfig(workers=1))
        try:
            payload, source = app.handle("portfolio", {
                "members": [
                    {"name": "a", "region": "GB", "load_share": 0.5,
                     "spec": _doc()},
                    {"name": "b", "region": "FR", "load_share": 0.5,
                     "spec": _doc()},
                ],
            })
            assert source == "live"
            assert {site["member"] for site in payload["sites"]} == {"a", "b"}
            # Both members share one physical config -> one simulation.
            assert counting_source.calls == 1
        finally:
            app.close()


class TestThreadedClients:
    def test_many_os_threads_funnel_into_one_simulation(self, counting_source):
        """The coalescing invariant holds for true OS-thread clients too."""
        app = ServeApp(ServeConfig(workers=K))
        try:
            barrier = threading.Barrier(K)

            def client(i):
                barrier.wait()
                return app.handle("assess", _doc(pue=1.1 + 0.1 * i))

            with ThreadPoolExecutor(max_workers=K) as pool:
                results = list(pool.map(client, range(K)))

            assert counting_source.calls == 1
            assert len({payload["summary"]["total_kg"]
                        for payload, _ in results}) == K
        finally:
            app.close()
