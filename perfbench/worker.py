"""One benchmark process: set up one workload, then measure or verify it.

``run.py`` starts this script in a fresh interpreter for every set-up, every
measurement and every verification, because the factorization LRU and the
installed-ROM registry are process-global: a second run in the same process
would start warm.  Nothing here clears a program cache.

    python3 perfbench/worker.py --workload sweep_cold --seed 1 --mode measure \
        --seconds 15 --workdir .perfbench_work/x [--trace] [--ops N]

Modes: ``setup`` stops after set-up; ``measure`` runs the closed loop for
``--seconds`` (or exactly ``--ops`` operations); ``verify`` recomputes the
first ``--ops`` generated specs and reports their artifact digests.  The
script prints ``{"event": "ready"}`` when set-up is done and a final
``{"event": "result", ...}`` line.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

import gauge
import measure
import spans
import workloads
from repro.campaigns import ArtifactStore, CampaignRunner, EvaluationService, ServiceServer
from repro.scenarios import ALL_PATHS, ScenarioSpec, canonical_json, compare_artifact_dicts
from repro.thermal import factorization_cache_stats

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

#: Seconds of operations per speed-gauge sample (``serve_mixed`` pauses
#: its clients for a sample this often).
GAUGE_EVERY_S = 0.5

#: Gauge samples taken right after set-up; ``setup_s`` is scaled by their median.
SETUP_GAUGE_SAMPLES = 3

#: Operations every timed run makes at least, and after which ``peak_rss_mb``
#: is read: the 9 goldens and two blocks of generated specs for
#: ``sweep_cold``; two blocks of requests for ``serve_mixed`` (two fresh
#: pairs, and enough hits for their p99).
MIN_OPS = {
    "sweep_cold": len(workloads.golden_specs()) + 2 * len(workloads.SWEEP_ONI_COUNTS),
    "serve_mixed": 2 * workloads.SERVE_BLOCK,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(document: Dict[str, Any]) -> None:
    print(json.dumps(document), flush=True)


def artifact_digest(artifact: Dict[str, Any]) -> str:
    """SHA-256 of the artifact's canonical JSON bytes."""
    return hashlib.sha256(canonical_json(artifact).encode("utf-8")).hexdigest()


class Run:
    """Operations of one measurement, in intervals separated by gauge samples.

    Intervals of operations alternate with speed-gauge samples taken in
    the gauge's own process (:class:`gauge.GaugeProcess`), and no operation
    spans two intervals; ``run.py`` turns the samples into reference-speed
    timings.
    """

    def __init__(self, rss_after_ops: int) -> None:
        #: Started after set-up (its start-up must not count as set-up).
        self.gauge: Optional[gauge.GaugeProcess] = None
        self.gauge_s: List[float] = []
        self.intervals_s: List[float] = []
        #: ``[latency_s, kind, scenario]``; kind is ``hit``, ``miss`` or ``error``.
        self.ops: List[list] = []
        #: Peak RSS once ``rss_after_ops`` operations are done: a fixed amount
        #: of work, so a faster program that fits more operations into the
        #: run does not read as a bigger one.
        self.rss_after_ops = rss_after_ops
        self.rss_mb: Optional[float] = None
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}
        self._opened: Optional[float] = None

    def open(self) -> None:
        if not self.gauge_s:
            self.gauge_s.append(self.gauge.sample())
        self._opened = time.perf_counter()

    def close(self) -> None:
        elapsed = time.perf_counter() - self._opened
        self.intervals_s.append(elapsed)
        # About one sample per GAUGE_EVERY_S of work, so long operations
        # are weighed by as many samples as short ones.
        for _ in range(max(1, round(elapsed / GAUGE_EVERY_S))):
            self.gauge_s.append(self.gauge.sample())
        self._opened = None

    def record(self, latency_s: float, kind: str, name: str) -> list:
        op = [latency_s, kind, name]
        self.ops.append(op)
        if len(self.ops) == self.rss_after_ops:
            self.rss_mb = peak_rss_mb()
        return op

    def fail(self, op: list, message: str) -> None:
        op[1] = "error"
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def reference_elapsed(self) -> float:
        """Seconds measured so far, at reference speed (see ``run.Timing``)."""
        elapsed = sum(self.intervals_s)
        if self._opened is not None:
            elapsed += time.perf_counter() - self._opened
        return elapsed * measure.reference_factor(self.gauge_s)


# ---------------------------------------------------------------------------
# sweep_cold: one caller, one spec per CampaignRunner run
# ---------------------------------------------------------------------------


def campaign_op(spec: ScenarioSpec, store: Optional[ArtifactStore], tracer: Any, run: Run) -> Optional[Dict[str, Any]]:
    """Submit one spec and wait for it, as ``repro run`` does; returns its artifact."""
    run.open()
    start = time.perf_counter()
    error = None
    try:
        with tracer.op(spec.name):
            report = CampaignRunner([spec], store=store, name=spec.name).run()
    except Exception:
        error = traceback.format_exc(limit=3)
    op = run.record(time.perf_counter() - start, "miss", spec.name)
    run.close()
    if error is not None:
        run.fail(op, f"{spec.name}: {error}")
        return None
    artifact = report.artifacts.get(spec.name)
    if artifact is None or report.summary["failed"]:
        run.fail(op, f"{spec.name}: no artifact ({report.failures})")
        return None
    if report.scenarios[0]["from_store"]:
        run.fail(op, f"{spec.name}: served from the store in a cold workload")
        return None
    missing = sorted(set(ALL_PATHS) - set(artifact["results"]))
    if missing or artifact["results"].get("transient") is None:
        run.fail(op, f"{spec.name}: artifact lacks paths {missing or ['transient']}")
        return None
    return artifact


def closed_loop(specs: Iterable[ScenarioSpec], run: Run, seconds: float, ops: Optional[int], min_ops: int, one: Callable[[ScenarioSpec], None]) -> None:
    """Run ``one`` per spec until ``seconds`` of reference time (or exactly ``ops`` times)."""
    for done, spec in enumerate(specs):
        if ops is not None:
            if done >= ops:
                break
        elif done >= min_ops and run.reference_elapsed() >= seconds:
            break
        one(spec)


def setup_sweep_cold(args: argparse.Namespace, tracer: Any, run: Run) -> Callable[[], None]:
    store = ArtifactStore(Path(args.workdir) / "store")
    goldens = {spec.name: spec for spec in workloads.golden_specs()}
    references = {
        name: json.loads((GOLDEN_DIR / f"{name}.json").read_text()) for name in goldens
    }
    specs = itertools.chain(goldens.values(), workloads.sweep_specs(args.seed))

    def one(spec: ScenarioSpec) -> None:
        artifact = campaign_op(spec, store, tracer, run)
        if artifact is None:
            return
        if spec.name in references:
            mismatches = compare_artifact_dicts(references[spec.name], artifact)
            if mismatches:
                run.fail(run.ops[-1], f"{spec.name}: golden mismatch: {mismatches[:3]}")
        else:
            run.digests[spec.name] = artifact_digest(artifact)

    return lambda: closed_loop(specs, run, args.seconds, args.ops, MIN_OPS["sweep_cold"], one)


def verify(args: argparse.Namespace) -> Dict[str, str]:
    """Digests of the first ``--ops`` generated ``sweep_cold`` specs, computed cold."""
    digests = {}
    for spec in itertools.islice(workloads.sweep_specs(args.seed), args.ops):
        report = CampaignRunner([spec], name=spec.name).run()
        digests[spec.name] = artifact_digest(report.artifacts[spec.name])
    return digests


# ---------------------------------------------------------------------------
# serve_mixed: two keep-alive clients against an in-process ServiceServer
# ---------------------------------------------------------------------------

REQUEST_HEAD = (
    "POST /evaluate HTTP/1.1\r\nHost: perfbench\r\n"
    "Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
)


async def http_post(reader: asyncio.StreamReader, writer: asyncio.StreamWriter, body: bytes) -> tuple:
    """One keep-alive request; returns ``(status, response body bytes)``."""
    writer.write(REQUEST_HEAD.format(length=len(body)).encode("latin-1") + body)
    await writer.drain()
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    for line in head[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class RequestSource:
    """The shared seeded request sequence the clients draw from."""

    def __init__(self, seed: int, pool: List[ScenarioSpec]) -> None:
        self._sequence = workloads.serve_requests(seed)
        self._fresh = workloads.serve_fresh(seed)
        self._pool = [self._request(spec) for spec in pool]
        self._fresh_requests: List[tuple] = []

    @staticmethod
    def _request(spec: ScenarioSpec) -> tuple:
        return spec, json.dumps(spec.to_dict()).encode("utf-8")

    def next(self) -> tuple:
        """The next ``(spec, request body)``."""
        kind, index = next(self._sequence)
        if kind == "pool":
            return self._pool[index]
        while len(self._fresh_requests) <= index:
            self._fresh_requests.append(self._request(next(self._fresh)))
        return self._fresh_requests[index]


class Checkpoints:
    """Pauses the clients every ``period`` seconds to sample the speed gauge.

    A client that reaches a due checkpoint waits until every other active
    client has finished its request too, so the gauge never runs while a
    request is in flight; the last one to arrive samples and releases all.
    """

    def __init__(self, run: Run, clients: int, period: float) -> None:
        self.run = run
        self.active = clients
        self.period = period
        self.arrived = 0
        self.released = asyncio.Event()
        self.due = time.perf_counter() + period

    async def checkpoint(self) -> None:
        if time.perf_counter() < self.due:
            return
        self.arrived += 1
        if self.arrived >= self.active:
            self._sample()
        else:
            released = self.released
            await released.wait()

    def leave(self) -> None:
        self.active -= 1
        if self.active and self.arrived >= self.active:
            self._sample()

    def _sample(self) -> None:
        self.run.close()
        self.run.open()
        self.arrived = 0
        self.due = time.perf_counter() + self.period
        self.released.set()
        self.released = asyncio.Event()


async def serve_mixed(args: argparse.Namespace, tracer: Any, run: Run, ready: Callable[[], None], measured: Callable[[], None]) -> Dict[str, int]:
    store = ArtifactStore(Path(args.workdir) / "store")
    pool = workloads.serve_pool(args.seed)
    report = CampaignRunner(pool, store=store, name="serve_mixed_pool").run()
    expected = {
        spec.content_hash(): artifact_digest(report.artifacts[spec.name]) for spec in pool
    }
    source = RequestSource(args.seed, pool)
    service = EvaluationService(store=store)
    server = ServiceServer(service, host="127.0.0.1", port=0)
    await server.start()
    connections = [await asyncio.open_connection(*server.address) for _ in range(2)]
    ready()
    try:
        if args.mode == "setup":
            return {}
        responses: List[tuple] = []

        def take() -> Optional[tuple]:
            if args.ops is not None:
                if len(responses) >= args.ops:
                    return None
            elif len(responses) >= MIN_OPS["serve_mixed"] and run.reference_elapsed() >= args.seconds:
                return None
            responses.append(None)
            return len(responses) - 1, source.next()

        checkpoints = Checkpoints(run, len(connections), GAUGE_EVERY_S)

        async def client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            while True:
                await checkpoints.checkpoint()
                item = take()
                if item is None:
                    checkpoints.leave()
                    return
                slot, (spec, body) = item
                began = time.perf_counter()
                with tracer.request(spec.name):
                    status, payload = await http_post(reader, writer, body)
                op = run.record(time.perf_counter() - began, "miss", spec.name)
                responses[slot] = (spec, status, payload, op)

        run.open()
        await asyncio.gather(*(client(*connection) for connection in connections))
        run.close()
        measured()
        counters = dict(service.counters)
    finally:
        # Half-close and wait for the server to hang up, so its connection
        # handlers end on their own rather than being cancelled at loop exit.
        for reader, writer in connections:
            writer.write_eof()
            await reader.read()
            writer.close()
            await writer.wait_closed()
        await server.stop()

    # Checked after the clock stops, so checking costs the clients nothing.
    for spec, status, payload, op in responses:
        document = json.loads(payload)
        if status != 200 or document.get("status") != "ok":
            run.fail(op, f"{spec.name}: HTTP {status}: {str(document)[:200]}")
            continue
        if document["source"] == "store":
            op[1] = "hit"
        digest = artifact_digest(document["artifact"])
        if digest != expected.setdefault(spec.content_hash(), digest):
            run.fail(op, f"{spec.name}: {document['source']} artifact differs from the computed one")
    return counters


# ---------------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "verify"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", required=True)
    return parser.parse_args(argv)


def measure_workload(args: argparse.Namespace, run: Run) -> Dict[str, Any]:
    """Set up, then (unless ``--mode setup``) measure; returns the result event."""
    tracer: Any = spans.Tracer() if args.trace else spans.NullTracer()
    state: Dict[str, Any] = {}

    def ready() -> None:
        emit({"event": "ready"})
        run.gauge = gauge.GaugeProcess()
        state["setup_gauge_s"] = [run.gauge.sample() for _ in range(SETUP_GAUGE_SAMPLES)]
        # Instrument after set-up, so set-up work leaves no spans.
        if args.trace and args.mode == "measure":
            state["patches"], state["counters"] = spans.instrument(tracer)
            state["factorizations"] = factorization_cache_stats()

    def measured() -> None:
        if "patches" in state:
            state["patches"].remove()
            state["factorizations_after"] = factorization_cache_stats()

    service_counters: Dict[str, int] = {}
    if args.workload == "serve_mixed":
        service_counters = asyncio.run(serve_mixed(args, tracer, run, ready, measured))
    else:
        measure_loop = setup_sweep_cold(args, tracer, run)
        ready()
        if args.mode == "measure":
            measure_loop()
            measured()
    if args.mode == "setup":
        return {"event": "result", "setup_gauge_s": state["setup_gauge_s"]}

    layers = None
    if args.trace:
        after = state["factorizations_after"]
        factorizations = {
            key: after[key] - state["factorizations"][key] for key in ("built", "reused")
        }
        layers = spans.layer_metrics(
            tracer.spans, state["counters"].engine, factorizations, service_counters
        )
        out = Path(args.workdir) / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps(tracer.to_json_ready()))

    return {
        "event": "result",
        "setup_gauge_s": state["setup_gauge_s"],
        "attempted": len(run.ops),
        "failed": run.failed,
        "errors": run.errors,
        "ops": run.ops,
        "intervals_s": run.intervals_s,
        "gauge_s": run.gauge_s,
        "digests": run.digests,
        "peak_rss_mb": run.rss_mb,
        "fingerprint": measure.fingerprint(ROOT),
        "layers": layers,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.mode == "verify":
        emit({"event": "result", "digests": verify(args)})
        return 0
    run = Run(MIN_OPS[args.workload])
    try:
        emit(measure_workload(args, run))
    finally:
        if run.gauge is not None:
            run.gauge.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
