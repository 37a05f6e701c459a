"""Benchmark of the assessment pipeline: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-assess --seed 1 --seconds 18 --trace 0

Workloads: ``cold-assess``, ``warm-analysis``, ``served-http`` (see
``workloads.py``).  With ``--trace 0`` the run reports the end-to-end
metrics, each timing scaled to a nominal host speed by a reference kernel
timed between slices of the run (``reference.py``); with ``--trace 1`` it
wraps each layer's public entry points (``tracing.py``) and reports per-op
layer figures instead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give provenance, the unscaled figures per run kind, the reference
timing and each metric beside its unscaled value; the whole record, and the
spans of a traced run, are written under ``.perfbench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-ups beyond the one the run uses; ``setup_s`` is the median of all.
EXTRA_SETUPS = 2
#: Longest slice of measuring between two reference timings.
SLICE_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
}


def provenance(args) -> dict:
    import numpy

    commit = None  # a plain checkout: the source digest identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_unit(name: str) -> str:
    if name == "trace.coverage":
        return "ratio"
    if name.endswith("_ms.p50"):
        return "ms"
    return "s/op" if name.endswith("_s") else "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help="time one set-up of WORKLOAD in this fresh "
                             "interpreter and print it")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import tracing
    from workloads import WORKLOADS, percentile

    if args.setup_probe:
        WORKLOADS[args.setup_probe](0, OUT, None).setup()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, OUT, tracer)
    try:
        started = time.perf_counter()
        workload.setup()
        # In-process set-up includes the interpreter's imports; a server's
        # starts when the child is spawned.
        setups = [time.perf_counter() - (
            started if args.workload == "served-http" else T0)]
        speed = None
        if tracer is not None:
            if args.workload != "served-http":
                tracing.install(tracer)
                tracer.reset()
            workload.run(args.seconds)
        else:
            # Slices of about a second (or one op), each followed by a
            # reference timing; the extra set-ups split the run in thirds.
            speed = reference.Speedometer()
            speed.sample()
            for index in range(1, EXTRA_SETUPS + 2):
                target = args.seconds * index / (EXTRA_SETUPS + 1)
                while workload.measured_s < target:
                    elapsed = workload.run(
                        min(target, workload.measured_s + SLICE_S))
                    speed.sample(reference.SHARE * elapsed)
                if index <= EXTRA_SETUPS:
                    setups.append(workload.setup_sample())
        workload.verify()
        layers = workload.layer_metrics() if tracer is not None else None
    finally:
        workload.close()

    latencies = workload.latencies or [0.0]  # every op failed: reported
    raw = None
    if tracer is None:
        raw = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mib(),
            "op_ms.p50": percentile(latencies, 50.0) * 1e3,
            "op_ms.tail": percentile(latencies, workload.tail_q) * 1e3,
            "ops_per_s": len(latencies) / workload.busy_s,
        }
        scaled = [latency * speed.factor_at(end) for latency, end in
                  zip(workload.latencies, workload.ends)] or [0.0]
        values = {
            "setup_s": raw["setup_s"] * speed.factor,
            "peak_rss_mb": raw["peak_rss_mb"],
            "op_ms.p50": percentile(scaled, 50.0) * 1e3,
            "op_ms.tail": percentile(scaled, workload.tail_q) * 1e3,
            # Busy time scaled by the ops' latency-weighted factor.
            "ops_per_s": raw["ops_per_s"] * sum(latencies) / sum(scaled),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        layers["trace.op_ms.p50"] = percentile(latencies, 50.0) * 1e3
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    result = {"correct": workload.failed == 0 and bool(workload.latencies),
              "attempted": workload.attempted, "failed": workload.failed,
              "metrics": metrics}
    record = {"provenance": provenance(args), "result": result,
              "ops": len(workload.latencies), "tail_percentile": workload.tail_q,
              "setup_samples_s": setups if tracer is None else None,
              "raw": raw,
              "reference_s": speed.samples if speed is not None else None,
              "by_kind": workload.details(), "problems": workload.problems}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None and tracer.spans:
        tracer.dump(OUT / f"{stem}.spans.jsonl")

    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"by_kind": record["by_kind"]}))
    for problem in workload.problems:
        print(f"FAILED: {problem}")
    if speed is not None:
        print(f"reference kernel: median "
              f"{statistics.median(speed.samples) * 1e3:.2f} ms of "
              f"{len(speed.samples)}, nominal {reference.NOMINAL_S * 1e3:.2f} "
              f"ms; whole-run factor {speed.factor:.4f}")
    for name, metric in metrics.items():
        shown = f"{name:34s} {metric['value']:14.6g} {metric['unit']}"
        print(shown if raw is None else f"{shown:56s} raw {raw[name]:.6g}")
    print(f"output checks: {'pass' if result['correct'] else 'FAIL'} "
          f"({workload.failed} of {workload.attempted} ops failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
