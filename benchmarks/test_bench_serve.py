"""Bench: the serving layer's two no-wasted-work guarantees.

The acceptance bars for ``repro serve`` as a shared front door:

* **coalescing** — 16 concurrent requests that share one physical
  configuration must trigger exactly one snapshot simulation
  (``snapshot_runs == 1``), making the batch far cheaper than 16
  sequential cold-cache runs;
* **read-through** — a spec already in the run catalog is answered with
  zero simulations (``snapshot_runs == 0``), byte-identical to the live
  answer.

As everywhere in this harness, the structural assertions are primary and
the wall-clock ratio gets a conservative floor (CI machines are noisy).
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.api import Assessment, SubstrateCache, default_spec
from repro.io.jsonio import json_default, write_json
from repro.serve import ServeApp, ServeConfig

#: Large enough that a fresh simulation visibly costs something (~0.4s),
#: small enough that the bench stays cheap.
SCALE = 0.1
CONCURRENT_REQUESTS = 16

#: The issue's floor: coalescing must beat sequential cold-cache serving
#: by at least this factor.  One simulation shared 16 ways typically
#: measures far higher; the floor absorbs scheduler noise.
COALESCING_FLOOR = 8.0


def _doc(**overrides):
    doc = {"node_scale": SCALE}
    doc.update(overrides)
    return doc


#: Alternating rounds; each side's best round is compared.
TIMING_REPEATS = 3


def _coalesced_burst():
    """16 concurrent requests against a fresh server; (seconds, outcomes, runs)."""
    app = ServeApp(ServeConfig(workers=CONCURRENT_REQUESTS,
                               queue_limit=CONCURRENT_REQUESTS))
    try:
        docs = [_doc(pue=1.1 + 0.05 * i)
                for i in range(CONCURRENT_REQUESTS)]

        async def burst():
            return await asyncio.gather(
                *(app.submit("assess", doc) for doc in docs))

        start = time.perf_counter()
        outcomes = asyncio.run(burst())
        return time.perf_counter() - start, outcomes, app.substrates.snapshot_runs
    finally:
        app.close()


def test_bench_serve_coalescing(tmp_path):
    # Best of alternating rounds, each from a fresh cache and a fresh
    # server: a burst of load from other processes then slows both sides,
    # not just the one reading it landed on.
    cold_s = concurrent_s = float("inf")
    for _ in range(TIMING_REPEATS):
        # Reference cost: one cold-cache simulation through the library path.
        start = time.perf_counter()
        reference = Assessment.from_spec(
            default_spec(node_scale=SCALE), substrates=SubstrateCache()).run()
        cold_s = min(cold_s, time.perf_counter() - start)

        elapsed, outcomes, snapshot_runs = _coalesced_burst()
        concurrent_s = min(concurrent_s, elapsed)

        # Primary, structural: one simulation fed all 16 answers, and
        # every scenario still got its own distinct, correct payload.
        assert snapshot_runs == 1
        totals = [payload["summary"]["total_kg"] for payload, _ in outcomes]
        assert len(set(totals)) == CONCURRENT_REQUESTS
        assert all(source == "live" for _, source in outcomes)

    sequential_estimate_s = CONCURRENT_REQUESTS * cold_s
    speedup = (sequential_estimate_s / concurrent_s
               if concurrent_s > 0 else float("inf"))
    assert speedup >= COALESCING_FLOOR, (
        f"{CONCURRENT_REQUESTS} coalesced requests took {concurrent_s:.3f}s "
        f"vs {sequential_estimate_s:.3f}s sequential cold estimate; "
        f"speedup {speedup:.1f}x < {COALESCING_FLOOR}x floor")
    write_json(tmp_path / "bench_serve_coalescing.json", {
        "node_scale": SCALE,
        "concurrent_requests": CONCURRENT_REQUESTS,
        "cold_single_seconds": cold_s,
        "concurrent_burst_seconds": concurrent_s,
        "sequential_estimate_seconds": sequential_estimate_s,
        "snapshot_runs": 1,
        "speedup": speedup,
    })
    print(f"\nserve coalescing: {CONCURRENT_REQUESTS} requests in "
          f"{concurrent_s:.3f}s (1 simulation; est. sequential "
          f"{sequential_estimate_s:.2f}s; {speedup:.1f}x), "
          f"reference total {reference.total_kg:,.1f} kg")


def test_bench_serve_catalog_read_through(tmp_path):
    encode = lambda payload: json.dumps(  # noqa: E731
        payload, sort_keys=True, default=json_default)

    recording = ServeApp(ServeConfig(workers=2, catalog=tmp_path / "runs.db"))
    try:
        start = time.perf_counter()
        live, live_source = asyncio.run(recording.submit("assess", _doc()))
        live_s = time.perf_counter() - start
        assert live_source == "live"
    finally:
        recording.close()

    # A fresh server process over the same catalog: the repeat spec must
    # be answered without touching the simulator at all.
    warm = ServeApp(ServeConfig(workers=2, catalog=tmp_path / "runs.db"))
    try:
        start = time.perf_counter()
        served, served_source = asyncio.run(warm.submit("assess", _doc()))
        served_s = time.perf_counter() - start

        assert served_source == "catalog"
        assert warm.substrates.snapshot_runs == 0
        assert encode(served) == encode(live)  # bit-identical response body
        stats = warm.stats()
        assert stats["requests"]["served_from_catalog"] == 1
    finally:
        warm.close()

    speedup = live_s / served_s if served_s > 0 else float("inf")
    assert speedup >= 10, (
        f"catalog-served request ({served_s * 1e3:.1f}ms) not meaningfully "
        f"faster than the live one ({live_s * 1e3:.1f}ms); "
        f"speedup {speedup:.0f}x < 10x floor")
    write_json(tmp_path / "bench_serve_read_through.json", {
        "node_scale": SCALE,
        "live_seconds": live_s,
        "served_seconds": served_s,
        "snapshot_runs_warm": 0,
        "speedup": speedup,
    })
    print(f"\nserve read-through: live {live_s:.3f}s, served "
          f"{served_s * 1e3:.2f}ms ({speedup:.0f}x)")
