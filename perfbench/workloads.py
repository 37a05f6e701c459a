"""The benchmark's three workloads.

* ``cold-assess`` — every op builds a fresh ``SubstrateCache()`` and runs a
  full-scale ``Assessment``: simulation, workload and power layers do the
  work.
* ``warm-analysis`` — one primed cache; each op is a round of the five
  library run kinds (assess, temporal, uncertainty, portfolio, sweep) in
  seeded order with seeded parameters: only the analysis layers work.
* ``served-http`` — ``repro serve`` in a child process with a run catalog;
  two closed-loop clients post a seeded stream, about 80% repeats of
  documents recorded during set-up (catalog hits) and 20% fresh variants
  (live on a warm substrate, then recorded).

Each workload is driven through the public API (or over HTTP), checks
every output, and keeps the latency of each op it timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve().parent / "run.py"
SERVE_TRACED_PY = Path(__file__).resolve().parent / "serve_traced.py"

#: Fleet scale of the set-up warm-up run that pays process-level lazy work.
WARMUP_SCALE = 0.02
LIFETIMES = (3.0, 4.0, 5.0, 6.0, 7.0)
#: Temporal shifts must be whole trace steps: half hours up to six.
SHIFTS = tuple(0.5 * k for k in range(13))
REGIONS = ("GB", "FR", "PL")
ENSEMBLE_SAMPLES = 3000
SERVED_ENSEMBLE_SAMPLES = 2000
SWEEP_PUE_POINTS = 20
SWEEP_INTENSITY_POINTS = 10
#: Served temporal documents account half-hourly (the GB grid's settlement
#: period), so no one run kind's answer dwarfs the others on the wire.
SERVED_RESOLUTION_S = 1800.0
#: Documents per run kind recorded during served-http set-up.
POOL_PER_KIND = 6
#: Share of served-http requests that repeat a recorded document.
HIT_SHARE = 0.8
CLIENTS = 2
SERVE_KINDS = ("assess", "temporal", "uncertainty", "portfolio")
WARM_KINDS = SERVE_KINDS + ("sweep",)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def conservation(kind: str, payload: Dict[str, Any]) -> List[str]:
    from repro.catalog.diff import conservation_findings

    return [finding.message
            for finding in conservation_findings(kind, payload, "op")]


def encode(payload: Any) -> bytes:
    """The wire serialisation of a result document (``repro serve``'s)."""
    from repro.io.jsonio import json_default

    return (json.dumps(payload, sort_keys=True, default=json_default)
            .encode("utf-8") + b"\n")


def scenario(rng: random.Random) -> Dict[str, float]:
    return {"pue": rng.uniform(1.1, 1.5),
            "carbon_intensity_g_per_kwh": rng.uniform(50.0, 300.0)}


def shares(rng: random.Random, k: int) -> List[float]:
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    return [w / sum(weights) for w in weights]


class Workload:
    """What every workload provides to ``run.py``."""

    name = ""
    #: Percentile reported as ``op_ms.tail``: the highest one with at least
    #: ten samples beyond it at this workload's op count.
    tail_q = 50.0

    def __init__(self, seed: int, out_dir: Path,
                 tracer: Optional[tracing.Tracer]):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.latencies: List[float] = []  # seconds per op
        self.ends: List[float] = []  # perf_counter at each op's end
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.measured_s = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def op_context(self, op_id):
        return self.tracer.op(op_id) if self.tracer else nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def setup_sample(self) -> float:
        """One more complete set-up, timed in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, str(RUN_PY), "--setup-probe", self.name],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=170, check=True)
        return float(json.loads(done.stdout.strip().splitlines()[-1])[
            "setup_s"])

    def run(self, until_s: float) -> float:
        """Run ops until ``until_s`` seconds of measuring have accumulated,
        and return the seconds this call measured.

        A run is measured in slices (with reference timings and set-up
        samples between them); each slice picks up the op stream where the
        last one left.
        """
        start = time.perf_counter()
        self.measure(start + until_s - self.measured_s)
        elapsed = time.perf_counter() - start
        self.measured_s += elapsed
        return elapsed

    def measure(self, deadline: float) -> None:
        """Run ops until ``deadline`` (a ``perf_counter`` time)."""
        raise NotImplementedError

    @property
    def busy_s(self) -> float:
        """The time ``ops_per_s`` divides by: op latencies, one at a time."""
        return sum(self.latencies)

    def verify(self) -> None:
        """Checks made after the timed loop."""

    def close(self) -> None:
        """Release what set-up started."""

    def details(self) -> Dict[str, Any]:
        """Figures named per run kind, printed beside the metrics."""
        return {}

    def layer_metrics(self) -> Dict[str, float]:
        """Per-op layer figures from the traced run."""
        raise NotImplementedError


def traced_in_process(tracer: tracing.Tracer, n_ops: int) -> Dict[str, float]:
    """Per-op layer figures from the spans of an in-process run.

    Coverage is the share of op wall-clock spent inside some layer span.
    """
    spans = tracer.spans
    totals = tracing.layer_totals(spans)
    events = tracer.count_events()
    ops = [span for span in spans if span[1] == tracing.OP_SPAN]
    wall = sum(end - start for _, _, start, end, _, _ in ops)
    metrics = {name: totals.get(name, 0.0) / n_ops
               for name in tracing.SPAN_METRICS}
    for name in tracing.COUNT_METRICS:
        metrics[name] = sum(amount for event, _, amount in events
                            if event == name) / n_ops
    metrics["trace.coverage"] = 1.0 - totals.get(tracing.OP_SPAN, 0.0) / wall
    return metrics


# -- cold-assess ----------------------------------------------------------------------


class ColdAssess(Workload):
    name = "cold-assess"
    tail_q = 50.0  # a few ops per run: no higher percentile has ten beyond

    def setup(self) -> None:
        from repro.api import Assessment, SubstrateCache, default_spec
        from repro.inventory.catalog import default_catalog

        default_catalog()
        Assessment.from_spec(default_spec(node_scale=WARMUP_SCALE),
                             substrates=SubstrateCache()).run()
        self.rng = random.Random(self.seed)
        self.table2 = None
        self.runs = self.hits = 0

    def measure(self, deadline: float) -> None:
        from repro.api import Assessment, SubstrateCache, default_spec

        while time.perf_counter() < deadline:
            spec = default_spec(node_scale=1.0, lifetime_years=self.rng.choice(
                LIFETIMES), **scenario(self.rng))
            self.attempted += 1
            try:
                with self.op_context(self.attempted):
                    t0 = time.perf_counter()
                    cache = SubstrateCache()
                    result = Assessment.from_spec(spec,
                                                  substrates=cache).run()
                    elapsed = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.fail(f"op {self.attempted}: {exc!r}")
                continue
            self.latencies.append(elapsed)
            self.ends.append(t0 + elapsed)
            self.runs += cache.snapshot_runs
            self.hits += cache.snapshot_hits
            problems = self.check(result)
            if problems:
                self.fail(f"op {self.attempted}: {'; '.join(problems)}")

    def check(self, result) -> List[str]:
        from repro.inventory.iris import (PAPER_TABLE2_ENERGY_KWH,
                                          PAPER_TABLE2_TOTAL_KWH)

        problems = []
        snapshot = result.snapshot
        for site in snapshot.site_results:
            paper = max(value for value in
                        PAPER_TABLE2_ENERGY_KWH[site.site].values()
                        if value is not None)
            if abs(site.best_estimate_kwh - paper) > 0.10 * paper:
                problems.append(f"{site.site} {site.best_estimate_kwh:.0f} "
                                f"kWh is not within 10% of {paper:.0f}")
        total = snapshot.total_best_estimate_kwh
        if abs(total - PAPER_TABLE2_TOTAL_KWH) > 0.05 * PAPER_TABLE2_TOTAL_KWH:
            problems.append(f"total {total:.0f} kWh is not within 5% of "
                            f"{PAPER_TABLE2_TOTAL_KWH:.0f}")
        table2 = encode(snapshot.table2_rows())
        if self.table2 is None:
            self.table2 = table2
        elif table2 != self.table2:
            problems.append("Table 2 differs from the run's first op")
        return problems + conservation("assess", result.as_dict())

    def details(self) -> Dict[str, Any]:
        return {"assess_cold_s": summary(self.latencies, 1.0)}

    def layer_metrics(self) -> Dict[str, float]:
        metrics = traced_in_process(self.tracer, len(self.latencies))
        metrics["api.snapshot_runs"] = self.runs / len(self.latencies)
        metrics["api.snapshot_hits"] = self.hits / len(self.latencies)
        return metrics


# -- warm-analysis --------------------------------------------------------------------


class WarmAnalysis(Workload):
    name = "warm-analysis"
    tail_q = 90.0  # ~100+ rounds per run

    def setup(self) -> None:
        from repro.api import SubstrateCache

        ColdAssess.setup(self)
        self.cache = SubstrateCache()
        # Prime the substrate, and pay every kind's lazy set-up once.
        warmup = random.Random("warm-analysis set-up")
        for kind in WARM_KINDS:
            self.call(kind, warmup)
        self.rng = random.Random(self.seed)
        self.by_kind: Dict[str, List[float]] = {k: [] for k in WARM_KINDS}
        self.runs0 = self.cache.snapshot_runs
        self.hits0 = self.cache.snapshot_hits
        self.rounds = 0

    def call(self, kind: str, rng: random.Random):
        """Make one call of ``kind`` with parameters drawn from ``rng``."""
        from repro.api import (Assessment, BatchAssessmentRunner,
                               TemporalAssessment, default_spec)
        from repro.portfolio import PortfolioRunner, PortfolioSpec
        from repro.uncertainty import EnsembleRunner, UncertainSpec
        from repro.uncertainty.distributions import Triangular

        cache = self.cache
        base = default_spec(node_scale=1.0)
        if kind == "assess":
            spec = base.replace(embodied_estimator=rng.choice(
                ("catalog", "bottom-up")), **scenario(rng))
            return Assessment.from_spec(spec, substrates=cache).run()
        if kind == "temporal":
            spec = base.replace(shift_hours=rng.choice(SHIFTS),
                                defer_fraction=rng.uniform(0.0, 0.5),
                                pue=rng.uniform(1.1, 1.5))
            return TemporalAssessment.from_spec(spec, substrates=cache).run()
        if kind == "uncertainty":
            pue = rng.uniform(1.2, 1.4)
            spec = UncertainSpec(base.replace(pue=pue), {
                "pue": Triangular(pue - 0.1, pue, pue + 0.1),
                "carbon_intensity_g_per_kwh": Triangular(50.0, 175.0, 300.0),
            })
            return EnsembleRunner(spec, substrates=cache).run(
                n_samples=ENSEMBLE_SAMPLES, seed=rng.randrange(1 << 30))
        if kind == "portfolio":
            spec = PortfolioSpec.from_regions(
                REGIONS, base_spec=base.replace(pue=rng.uniform(1.1, 1.5)),
                load_shares=shares(rng, len(REGIONS)))
            return PortfolioRunner(spec, substrates=cache).run()
        pue0 = rng.uniform(1.05, 1.2)
        ci0 = rng.uniform(20.0, 80.0)
        return BatchAssessmentRunner(base, substrates=cache).sweep(
            pue=[pue0 + 0.02 * k for k in range(SWEEP_PUE_POINTS)],
            intensity=[ci0 + 25.0 * k for k in range(SWEEP_INTENSITY_POINTS)])

    def check(self, kind: str, result) -> List[str]:
        if kind != "sweep":
            return conservation(kind, result.as_dict())
        rows = result.as_rows()
        problems = [] if len(rows) == SWEEP_PUE_POINTS * SWEEP_INTENSITY_POINTS \
            else [f"sweep returned {len(rows)} rows"]
        for row in rows:
            problems += conservation("assess", {"summary": row})
        return problems

    def measure(self, deadline: float) -> None:
        rng = self.rng
        while time.perf_counter() < deadline:
            self.rounds += 1
            order = list(WARM_KINDS)
            rng.shuffle(order)
            round_s = 0.0
            ok = True
            for kind in order:
                self.attempted += 1
                try:
                    with self.op_context((self.rounds, kind)):
                        t0 = time.perf_counter()
                        result = self.call(kind, rng)
                        elapsed = time.perf_counter() - t0
                except Exception as exc:  # noqa: BLE001 - a failed op
                    self.fail(f"round {self.rounds} {kind}: {exc!r}")
                    ok = False
                    continue
                round_s += elapsed
                self.by_kind[kind].append(elapsed)
                problems = self.check(kind, result)
                if problems:
                    self.fail(f"round {self.rounds} {kind}: {problems[0]}")
            if ok:
                self.latencies.append(round_s)
                self.ends.append(time.perf_counter())

    def details(self) -> Dict[str, Any]:
        out = {f"{kind}_warm_ms": summary(values, 1e3)
               for kind, values in self.by_kind.items()}
        calls = [t for values in self.by_kind.values() for t in values]
        out["analysis_ops_per_s"] = len(calls) / sum(calls)
        return out

    def layer_metrics(self) -> Dict[str, float]:
        # Spans are per call; report them per round, like the latencies.
        metrics = traced_in_process(self.tracer, len(self.latencies))
        metrics["api.snapshot_runs"] = (
            self.cache.snapshot_runs - self.runs0) / len(self.latencies)
        metrics["api.snapshot_hits"] = (
            self.cache.snapshot_hits - self.hits0) / len(self.latencies)
        return metrics


# -- served-http ----------------------------------------------------------------------


def http(port: int, method: str, path: str,
         body: bytes = b"") -> Tuple[int, Dict[str, str], bytes]:
    """One request on its own connection (the server closes each one)."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(head.encode("latin-1") + body)
        chunks = []
        while True:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if int(headers.get("content-length", -1)) != len(payload):
        raise ConnectionError(f"short response to {path}")
    return int(lines[0].split()[1]), headers, payload


class Server:
    """``repro serve --port 0 --catalog <tmp>`` as a child process."""

    def __init__(self, out_dir: Path, spans_path: Optional[Path] = None):
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
        args = ["--port", "0", "--catalog", str(self.dir / "runs.db")]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, str(SERVE_TRACED_PY), str(spans_path),
                       *args]
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.port = self._wait_for_port()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=1.0)
            except queue.Empty:
                continue
            if line is None:
                break
            found = re.search(r"Serving on http://[^:]+:(\d+)", line)
            if found:
                return int(found.group(1))
        self.stop()
        raise RuntimeError("repro serve did not report its address")

    def stats(self) -> Dict[str, Any]:
        status, _, body = http(self.port, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)
        shutil.rmtree(self.dir, ignore_errors=True)


def request_body(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def serve_doc(kind: str, rng: random.Random) -> Dict[str, Any]:
    """A fresh request document of ``kind`` for the primed fleet."""
    from repro.api import default_spec
    from repro.portfolio import PortfolioSpec

    base = default_spec(node_scale=1.0)
    if kind == "assess":
        return base.replace(lifetime_years=rng.choice(LIFETIMES),
                            **scenario(rng)).to_dict()
    if kind == "temporal":
        return base.replace(shift_hours=rng.choice(SHIFTS),
                            defer_fraction=rng.uniform(0.0, 0.5),
                            pue=rng.uniform(1.1, 1.5),
                            temporal_resolution_s=SERVED_RESOLUTION_S).to_dict()
    if kind == "uncertainty":
        return {"spec": base.replace(pue=rng.uniform(1.1, 1.5)).to_dict(),
                "n_samples": SERVED_ENSEMBLE_SAMPLES,
                "seed": rng.randrange(1 << 30)}
    return PortfolioSpec.from_regions(
        REGIONS, base_spec=base.replace(pue=rng.uniform(1.1, 1.5)),
        load_shares=shares(rng, len(REGIONS))).to_dict()


def library_answer(kind: str, doc: Dict[str, Any], cache) -> bytes:
    """The in-process library answer to a served document, wire-encoded."""
    from repro.api import Assessment, AssessmentSpec, TemporalAssessment
    from repro.portfolio import PortfolioRunner, PortfolioSpec
    from repro.uncertainty import EnsembleRunner

    if kind == "assess":
        result = Assessment.from_spec(AssessmentSpec.from_dict(doc),
                                      substrates=cache).run()
    elif kind == "temporal":
        result = TemporalAssessment.from_spec(AssessmentSpec.from_dict(doc),
                                              substrates=cache).run()
    elif kind == "uncertainty":
        result = EnsembleRunner(AssessmentSpec.from_dict(doc["spec"]),
                                substrates=cache).run(
            n_samples=doc["n_samples"], seed=doc["seed"])
    else:
        result = PortfolioRunner(PortfolioSpec.from_dict(doc),
                                 substrates=cache).run()
    return encode(result.as_dict())


class ServedHttp(Workload):
    name = "served-http"
    tail_q = 99.0  # thousands of requests per run

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server: Optional[Server] = None
        self.spans_path = (self.out_dir / f"serve-spans-{os.getpid()}.jsonl"
                           if self.tracer else None)

    def start(self, spans_path: Optional[Path] = None) -> Server:
        """Start a server and record the document pool into its catalog."""
        server = Server(self.out_dir, spans_path)
        try:
            for kind, doc in self.pool:
                status, headers, _ = http(server.port, "POST", f"/{kind}",
                                          request_body(doc))
                if status != 200 or headers.get("x-repro-source") != "live":
                    raise RuntimeError(f"priming /{kind} answered {status}")
        except BaseException:
            server.stop()
            raise
        return server

    def setup(self) -> None:
        pool_rng = random.Random(f"served-http pool {self.seed}")
        self.pool = [(kind, serve_doc(kind, pool_rng))
                     for _ in range(POOL_PER_KIND) for kind in SERVE_KINDS]
        self.server = self.start(self.spans_path)
        self.streams = [self._stream(index) for index in range(CLIENTS)]
        self.logs: List[list] = [[] for _ in range(CLIENTS)]
        self.windows: List[Tuple[float, float]] = []
        self.stats_before = self.server.stats()

    def setup_sample(self) -> float:
        t0 = time.perf_counter()
        self.start().stop()
        return time.perf_counter() - t0

    def _stream(self, index: int):
        """Client ``index``'s requests: (key, kind, doc or None, body).

        Blocks of five in seeded order, four repeats of recorded documents
        (cycling through the pool in seeded order) and one fresh document
        (cycling through the run kinds), so the hit share is exactly
        ``HIT_SHARE`` and every kind keeps its share.
        """
        rng = random.Random(f"served-http client {self.seed} {index}")
        pool = [(key, kind, request_body(doc))
                for key, (kind, doc) in enumerate(self.pool)]
        hits: List[tuple] = []
        kinds: List[str] = []
        fresh = 0
        per_block = round(1 / (1 - HIT_SHARE))
        while True:
            block = []
            for _ in range(per_block - 1):
                if not hits:
                    hits = rng.sample(pool, len(pool))
                key, kind, body = hits.pop()
                block.append((key, kind, None, body))
            if not kinds:
                kinds = rng.sample(SERVE_KINDS, len(SERVE_KINDS))
            kind = kinds.pop()
            fresh += 1
            doc = serve_doc(kind, rng)
            block.append(((index, fresh), kind, doc, request_body(doc)))
            rng.shuffle(block)
            yield from block

    def _client(self, index: int, deadline: float) -> None:
        """One closed-loop client: the next request when a reply is in."""
        port, stream, log = self.server.port, self.streams[index], \
            self.logs[index]
        while time.perf_counter() < deadline:
            key, kind, doc, body = next(stream)
            t0 = time.perf_counter()
            try:
                status, headers, payload = http(port, "POST", f"/{kind}", body)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                log.append((key, kind, doc, t0, None, None, repr(exc)))
                continue
            t1 = time.perf_counter()
            log.append((key, kind, doc, t0, t1, status,
                        headers.get("x-repro-source"),
                        hashlib.sha256(payload).digest() if status == 200
                        else payload[:200]))

    def measure(self, deadline: float) -> None:
        clients = [threading.Thread(target=self._client, args=(i, deadline))
                   for i in range(CLIENTS)]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        self.windows.append((start, time.perf_counter()))

    @property
    def busy_s(self) -> float:
        """Closed-loop throughput is taken over the wall-clock measured."""
        return self.measured_s

    def verify(self) -> None:
        """Tally the requests, then check every distinct body against the
        in-process library answer (after the loop, so it adds no latency)."""
        from repro.api import SubstrateCache

        after = self.server.stats()
        self.server.stop()
        self.snapshot_runs, self.snapshot_hits = (
            after["substrates"][name] - self.stats_before["substrates"][name]
            for name in ("snapshot_runs", "snapshot_hits"))
        self.hit_s: List[float] = []
        self.live_s: List[float] = []
        self.by_kind: Dict[str, List[float]] = {}
        bodies: Dict[Any, Tuple[str, Optional[dict], bytes]] = {}
        for key, kind, doc, t0, t1, status, *answer in (
                entry for log in self.logs for entry in log):
            self.attempted += 1
            if status != 200:
                self.fail(f"/{kind} answered {status}: {answer[-1]!r}")
                continue
            source, digest = answer
            expected = "live" if doc is not None else "catalog"
            if source != expected:
                self.fail(f"/{kind} came from {source}, expected {expected}")
                continue
            self.latencies.append(t1 - t0)
            self.ends.append(t1)
            (self.live_s if doc is not None else self.hit_s).append(t1 - t0)
            self.by_kind.setdefault(f"{kind}_{source}_ms", []).append(t1 - t0)
            seen = bodies.setdefault(key, (kind, doc, digest))
            if seen[2] != digest:
                self.fail(f"/{kind}: body differs between repeats")
        cache = SubstrateCache()
        for key, (kind, doc, digest) in bodies.items():
            doc = self.pool[key][1] if doc is None else doc
            try:
                expected = library_answer(kind, doc, cache)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.fail(f"/{kind}: the library raised {exc!r}")
                continue
            if hashlib.sha256(expected).digest() != digest:
                self.fail(f"/{kind}: served body differs from the library")
                continue
            problems = conservation(kind, json.loads(expected))
            if problems:
                self.fail(f"/{kind}: {problems[0]}")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def details(self) -> Dict[str, Any]:
        return {"http_served_ms": summary(self.hit_s, 1e3),
                "http_live_ms": summary(self.live_s, 1e3),
                "http_req_per_s": len(self.latencies) / self.busy_s,
                **{name: summary(values, 1e3)
                   for name, values in sorted(self.by_kind.items())}}

    def layer_metrics(self) -> Dict[str, float]:
        spans, events = tracing.load(self.spans_path)
        ops = {op for _, name, start, _, parent, op in spans
               if name == "serve.queue_wait_s" and parent is None
               and any(lo <= start <= hi for lo, hi in self.windows)}
        spans = [span for span in spans if span[5] in ops]
        totals = tracing.layer_totals(spans)
        n = len(self.latencies)
        submitted = sum(end - start for _, name, start, end, parent, _ in spans
                        if name == "serve.queue_wait_s" and parent is None)
        # The wire is what the server's spans leave of the client's latency,
        # so on this workload the breakdown covers each request by
        # construction.
        totals["serve.wire_s"] = sum(self.latencies) - submitted
        metrics = {name: totals.get(name, 0.0) / n
                   for name in tracing.SPAN_METRICS}
        for name in tracing.COUNT_METRICS:
            metrics[name] = sum(amount for event, op, amount in events
                                if event == name and op in ops) / n
        metrics["api.snapshot_runs"] = self.snapshot_runs / n
        metrics["api.snapshot_hits"] = self.snapshot_hits / n
        metrics["trace.coverage"] = (
            (totals["serve.wire_s"] + submitted) / sum(self.latencies))
        return metrics


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(n: int) -> float:
    """The highest of the usual percentiles with ten samples beyond it."""
    for q in (99.0, 95.0, 90.0, 75.0):
        if (1.0 - q / 100.0) * n >= 10:
            return q
    return 50.0


def summary(values: List[float], scale: float) -> Dict[str, Any]:
    if not values:
        return {"n": 0}
    tail = supported_tail(len(values))
    return {"n": len(values), "p50": percentile(values, 50.0) * scale,
            f"p{tail:g}": percentile(values, tail) * scale}


WORKLOADS = {cls.name: cls for cls in (ColdAssess, WarmAnalysis, ServedHttp)}
