"""Bench: catalog-served repeats vs fresh simulation.

The acceptance bar for the run catalog as a serving cache: answering a
previously catalogued spec must be an O(1) database read — no snapshot
simulation at all — and far faster than recomputing.  The structural
assertion (``snapshot_runs == 0`` on the warm path) is primary; the
wall-clock ratio gets a conservative floor well under what is typically
measured (hundreds-fold), because CI machines are noisy.
"""

from __future__ import annotations

import time

from repro.api import Assessment, SubstrateCache, default_spec
from repro.catalog import CatalogRecorder, RunCatalog
from repro.io.jsonio import write_json

#: Large enough that a fresh simulation visibly costs something (~0.4s),
#: small enough that the bench stays cheap.
SCALE = 0.1
REPEATS = 5


def test_bench_catalog_served_repeat(tmp_path):
    spec = default_spec(node_scale=SCALE)
    with RunCatalog(tmp_path / "runs.db") as catalog:
        start = time.perf_counter()
        live = Assessment.from_spec(
            spec, substrates=SubstrateCache(),
            catalog=CatalogRecorder(catalog)).run()
        fresh_s = time.perf_counter() - start

        warm_substrates = SubstrateCache()
        start = time.perf_counter()
        for _ in range(REPEATS):
            served = Assessment.from_spec(
                spec, substrates=warm_substrates,
                catalog=CatalogRecorder(catalog)).run()
        served_s = (time.perf_counter() - start) / REPEATS

        # Primary, structural: the warm path never touched the simulator,
        # and what it serves is bit-identical to the live run.
        assert warm_substrates.snapshot_runs == 0
        assert served.served_from_catalog
        assert served.total_kg == live.total_kg
        assert catalog.count() == 1

    speedup = fresh_s / served_s if served_s > 0 else float("inf")
    assert speedup >= 20, (
        f"catalog serve ({served_s * 1e3:.1f}ms) not meaningfully faster "
        f"than fresh simulation ({fresh_s * 1e3:.1f}ms); "
        f"speedup {speedup:.0f}x < 20x floor")
    write_json(tmp_path / "bench_catalog.json", {
        "node_scale": SCALE,
        "fresh_seconds": fresh_s,
        "served_seconds_mean": served_s,
        "served_repeats": REPEATS,
        "speedup": speedup,
    })
    print(f"\ncatalog: fresh {fresh_s:.3f}s, served {served_s * 1e3:.2f}ms "
          f"({speedup:.0f}x)")


def test_bench_catalog_serve_timing(benchmark, tmp_path):
    """Steady-state cost of one catalogued answer."""
    spec = default_spec(node_scale=SCALE)
    with RunCatalog(tmp_path / "runs.db") as catalog:
        recorder = CatalogRecorder(catalog)
        Assessment.from_spec(spec, catalog=recorder).run()
        substrates = SubstrateCache()

        def serve():
            return Assessment.from_spec(
                spec, substrates=substrates, catalog=recorder).run()

        served = benchmark(serve)
        assert served.served_from_catalog
        assert substrates.snapshot_runs == 0
