"""Steadiness check: run workloads over several seeds and report spreads.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workloads cold-assess,warm-analysis \\
        --seeds 1-10 --seconds 18 --trace 0

For every metric it prints the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as
a share of the median; for an untraced run it also prints the same figures
unscaled (the ``raw`` values of the run's record).  With ``--trace both`` each seed also runs traced,
and the tracing overhead is printed: the traced op median minus the
untraced one, unscaled.  Every run's final JSON line is kept in
``.perfbench_out/steady-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    record = f"{workload}-seed{seed}-trace{trace}.json"
    result["raw"] = json.loads(
        (ROOT / ".perfbench_out" / record).read_text())["raw"]
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args()
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    for workload in args.workloads.split(","):
        runs = {trace: [] for trace in traces}
        for seed in seeds(args.seeds):
            for trace in traces:
                result = run_once(workload, seed, args.seconds, trace)
                runs[trace].append(result)
                print(f"{workload} seed {seed} trace {trace}: correct="
                      f"{result['correct']} {result['failed']}/"
                      f"{result['attempted']} failed, "
                      f"{result['wall_s']:.1f} s wall", flush=True)
        (ROOT / ".perfbench_out" / f"steady-{workload}.json").write_text(
            json.dumps({str(t): r for t, r in runs.items()}, indent=1))
        for trace, results in runs.items():
            print(f"\n{workload} trace={trace}: {len(results)} runs")
            for name, metric in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                if len(values) < 2 or statistics.median(values) == 0:
                    print(f"  {name:34s} median {statistics.median(values):12.6g}")
                    continue
                median, share = spread(values)
                line = (f"  {name:34s} median {median:12.6g} "
                        f"{metric['unit']:6s} spread {share:7.2%}")
                if results[0]["raw"] is not None:
                    raw_median, raw_share = spread(
                        [r["raw"][name] for r in results])
                    line += (f"   raw {raw_median:12.6g} "
                             f"spread {raw_share:7.2%}")
                print(line)
        if len(traces) == 2:
            untraced = statistics.median(
                r["raw"]["op_ms.p50"] for r in runs[0])
            traced = statistics.median(
                r["metrics"]["trace.op_ms.p50"]["value"] for r in runs[1])
            print(f"  tracing overhead: {traced - untraced:+.3f} ms per op "
                  f"({traced / untraced - 1:+.1%})")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
