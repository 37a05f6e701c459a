"""Bench: the federated portfolio engine vs naive independent assessments.

The acceptance bar for the portfolio engine: a 3-site portfolio whose
members share one physical configuration must perform exactly **one**
substrate simulation (asserted structurally) and be demonstrably faster
than running the three member assessments independently with cold caches
— the pre-portfolio pattern, which pays the simulation once per site.
Run at 10% fleet scale: large enough that the simulation dominates the
per-member model evaluations (the speedup only grows with scale), small
enough that the naive side stays affordable.
"""

from __future__ import annotations

import time

from repro.api import Assessment, SubstrateCache, default_spec
from repro.io.jsonio import write_json
from repro.portfolio import PortfolioRunner, PortfolioSpec

SCALE = 0.1
REGIONS = ("GB", "FR", "PL")
SHARES = (0.5, 0.3, 0.2)

#: Conservative wall-clock floor: one simulation instead of three, minus
#: the shared per-member model/intensity work (typically ~3x measured).
SPEEDUP_FLOOR = 2.5

TIMING_REPEATS = 3


def _portfolio_spec(scale: float) -> PortfolioSpec:
    return PortfolioSpec.from_regions(
        list(REGIONS), base_spec=default_spec(node_scale=scale),
        load_shares=list(SHARES), name="bench")


def _naive_assessments(spec: PortfolioSpec) -> list:
    """One cold-cache Assessment per member — the pre-portfolio pattern."""
    totals = []
    for member in spec.members:
        result = Assessment.from_spec(member.effective_spec(),
                                      substrates=SubstrateCache()).run()
        totals.append(result.total_kg)
    return totals


def test_bench_portfolio_vs_naive(tmp_path):
    spec = _portfolio_spec(SCALE)

    # Best of alternating rounds, every round from cold caches: a burst of
    # load from other processes then slows both sides, not just one.
    naive_s = portfolio_s = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        naive_totals = _naive_assessments(spec)
        naive_s = min(naive_s, time.perf_counter() - start)

        cache = SubstrateCache()
        start = time.perf_counter()
        result = PortfolioRunner(spec, substrates=cache).run()
        portfolio_s = min(portfolio_s, time.perf_counter() - start)

        # Same physics: member for member, the answers agree exactly.
        assert [member.total_kg for member in result.members] == naive_totals
        # The primary assertion is structural, not wall-clock: one
        # simulation backed all three member sites while the naive loop
        # ran three.
        assert cache.snapshot_runs == 1
    speedup = naive_s / portfolio_s if portfolio_s > 0 else float("inf")
    assert speedup >= SPEEDUP_FLOOR, (
        f"portfolio run ({portfolio_s:.2f}s) not meaningfully faster than "
        f"{len(REGIONS)} naive cold-cache assessments ({naive_s:.2f}s); "
        f"speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x floor")
    write_json(tmp_path / "bench_portfolio.json", {
        "sites": len(REGIONS),
        "node_scale": SCALE,
        "naive_seconds": naive_s,
        "portfolio_seconds": portfolio_s,
        "speedup": speedup,
        "snapshot_runs_portfolio": cache.snapshot_runs,
        "snapshot_runs_naive": len(REGIONS),
    })
    print(f"\n{len(REGIONS)}-site portfolio: naive {naive_s:.2f}s, "
          f"federated {portfolio_s:.2f}s ({speedup:.1f}x)")


def test_bench_portfolio_steady_state(benchmark):
    """Steady-state portfolio cost once the substrate is cached."""
    spec = _portfolio_spec(SCALE)
    cache = SubstrateCache()
    runner = PortfolioRunner(spec, substrates=cache)
    runner.run()  # warm the cache

    result = benchmark(runner.run)
    assert len(result) == len(REGIONS)
    assert cache.snapshot_runs == 1


def test_portfolio_smoke_tiny_scale(results_dir):
    """CI smoke: structural assertions only, at a scale CI can afford."""
    spec = _portfolio_spec(0.02)
    cache = SubstrateCache()
    result = PortfolioRunner(spec, substrates=cache).run()
    assert cache.snapshot_runs == 1
    assert result.total_kg > 0
    assert result.best_site_for(1000.0).name == "FR"
    write_json(results_dir / "bench_portfolio_smoke.json", result.summary())
