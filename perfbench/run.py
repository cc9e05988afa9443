"""Benchmark of the ``repro`` design-evaluation loop, run from outside the program.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/repro`` and ``tests/golden``
must be present).  Every set-up, measurement and verification runs in its
own fresh interpreter (``perfbench/worker.py``); this script times the
set-ups, gathers the workers' records and prints, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced replay (see README.md).  A fuller record
with sample counts and a machine fingerprint is printed on the line before
it and written under ``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_cold", "serve_mixed")

#: Set-ups per run; ``setup_s`` is their median.  The measured worker's own
#: set-up is one of them.
SETUP_SAMPLES = 3

#: Generated specs a fresh interpreter recomputes to check that artifact
#: bytes repeat across runs with the same seed.
VERIFY_SPECS = {"sweep_cold": 2}

#: Wall-clock limit of one worker process.
WORKER_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args: List[str]) -> Tuple[float, Optional[float], Dict[str, Any]]:
    """Run one worker; returns ``(spawn time, ready time, result document)``.

    The ready time is ``None`` for modes that print no ready event.
    """
    command = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    # A killed worker's gauge process sees its stdin close and ends too.
    watchdog = threading.Timer(WORKER_TIMEOUT_S, process.kill)
    watchdog.start()
    ready_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            try:
                document = json.loads(line)
            except ValueError:
                continue
            if not isinstance(document, dict):
                continue
            if document.get("event") == "ready" and ready_at is None:
                ready_at = time.perf_counter()
            elif document.get("event") == "result":
                result = document
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return spawned, ready_at, result or {}


def setup_sample(workload: str, seed: int, workdir: Path, mode_args: List[str]) -> Tuple[float, Dict[str, Any]]:
    """Start one worker; returns its set-up time at reference speed and its result."""
    spawned, ready_at, result = start_worker(
        ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir), *mode_args]
    )
    if ready_at is None or "setup_gauge_s" not in result:
        raise BenchError(f"{workload} worker never reported ready")
    return (ready_at - spawned) * measure.reference_factor(result["setup_gauge_s"]), result


def fresh_dir(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=parent))


def load_units() -> Dict[str, str]:
    """Unit of every metric, by name, as ``BENCHMARK.json`` declares it."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in document["end_to_end"] + document["per_layer"]}


UNITS = load_units()


def metric(name: str, value: float) -> Dict[str, Any]:
    return {"value": value, "unit": UNITS[name]}


class Timing:
    """A worker's operations at reference speed (see ``gauge.SpeedGauge``).

    Every duration of a run is scaled by one factor computed from the
    median of the run's gauge samples (``measure.reference_factor``).  A
    single operation is too short for the gauge sample next to it to say how
    fast the machine ran during it, and one sample can be hit by a hiccup;
    the median of a run's samples is neither.
    """

    def __init__(self, result: Dict[str, Any]) -> None:
        self.factor = measure.reference_factor(result["gauge_s"])
        self.raw_elapsed_s = sum(result["intervals_s"])
        self.elapsed_s = self.raw_elapsed_s * self.factor
        self.ops = len(result["ops"])
        self.by_kind: Dict[str, List[float]] = {"hit": [], "miss": [], "error": []}
        self.latencies_ms: List[float] = []
        self.per_op = []
        for latency, kind, name in result["ops"]:
            scaled = latency * 1e3 * self.factor
            self.latencies_ms.append(scaled)
            self.by_kind[kind].append(scaled)
            self.per_op.append([name, kind, scaled])
        self.gauge_ms = [value * 1e3 for value in result["gauge_s"]]


def end_to_end(setups: List[float], result: Dict[str, Any], timing: Timing) -> Dict[str, Dict[str, Any]]:
    values = {
        "setup_s": measure.median(setups),
        "throughput_per_s": timing.ops / timing.elapsed_s,
        "latency_p50_ms": measure.median(timing.latencies_ms),
        "miss_latency_p50_ms": measure.median(timing.by_kind["miss"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: metric(name, value) for name, value in values.items()}


def check_digests(measured: Dict[str, str], verified: Dict[str, str]) -> List[str]:
    """Specs whose recomputed artifact bytes differ from the measured run's."""
    return sorted(
        name for name, digest in verified.items() if name in measured and measured[name] != digest
    )


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    setups = [
        setup_sample(workload, seed, fresh_dir(work), ["--mode", "setup"])[0]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setup_s, result = setup_sample(
        workload, seed, fresh_dir(work), ["--mode", "measure", "--seconds", str(seconds)]
    )
    setups.append(setup_s)
    failed = result["failed"]
    errors = list(result["errors"])
    if workload in VERIFY_SPECS:
        _, _, verified = start_worker(
            [
                "--workload", workload, "--seed", str(seed), "--mode", "verify",
                "--ops", str(VERIFY_SPECS[workload]), "--workdir", str(fresh_dir(work)),
            ]
        )
        mismatched = check_digests(result["digests"], verified["digests"])
        failed += len(mismatched)
        errors += [f"{name}: artifact bytes differ across runs of seed {seed}" for name in mismatched]
    timing = Timing(result)
    record = {
        "setup_samples_s": setups,
        "samples": {kind: len(values) for kind, values in timing.by_kind.items()},
        "elapsed_s": timing.elapsed_s,
        "raw_elapsed_s": timing.raw_elapsed_s,
        "gauge_ms": {
            "median": measure.median(timing.gauge_ms),
            "min": min(timing.gauge_ms),
            "max": max(timing.gauge_ms),
            "samples": len(timing.gauge_ms),
        },
        "fingerprint": result["fingerprint"],
        "ops_ms": timing.per_op,
    }
    outcome = {"attempted": result["attempted"], "failed": failed, "errors": errors}
    return {"metrics": end_to_end(setups, result, timing), **outcome}, record


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    _, plain = setup_sample(
        workload, seed, fresh_dir(work), ["--mode", "measure", "--seconds", str(seconds)]
    )
    ops = plain["attempted"]
    _, traced = setup_sample(
        workload, seed, fresh_dir(work), ["--mode", "measure", "--trace", "--ops", str(ops)]
    )
    if traced["attempted"] != ops:
        raise BenchError(f"traced replay ran {traced['attempted']} ops, expected {ops}")
    plain_timing, traced_timing = Timing(plain), Timing(traced)
    layers = {
        name: value * traced_timing.factor if UNITS[name] == "s" else value
        for name, value in traced["layers"].items()
    }
    layers["bench.trace_overhead_share"] = traced_timing.elapsed_s / plain_timing.elapsed_s - 1.0
    hits = plain_timing.by_kind["hit"]
    p99 = measure.tail_percentile(hits, 99) if hits else None
    layers["campaigns.service.hit_latency_p50_ms"] = measure.median(hits) if hits else 0.0
    layers["campaigns.service.hit_latency_p99_ms"] = 0.0 if p99 is None else p99
    metrics = {name: metric(name, value) for name, value in layers.items()}
    record = {
        "samples": {"ops": ops, "hit_latency": len(hits)},
        "untraced_elapsed_s": plain_timing.elapsed_s,
        "traced_elapsed_s": traced_timing.elapsed_s,
        "fingerprint": traced["fingerprint"],
    }
    outcome = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
    }
    return {"metrics": metrics, **outcome}, record


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    missing = [path for path in ("src/repro/__init__.py", "tests/golden") if not (ROOT / path).exists()]
    if missing:
        print(f"perfbench: not a repro source checkout, missing {missing}", file=sys.stderr)
        return 2
    # Build step: byte-compile once, so no timed set-up pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    work_root = ROOT / ".perfbench_work"
    records = work_root / "records"
    records.mkdir(parents=True, exist_ok=True)
    work = fresh_dir(work_root)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    try:
        runner = run_traced if args.trace else run_untraced
        outcome, record = runner(args.workload, args.seed, args.seconds, work)
        for name in outcome["metrics"]:
            measure.check_metric_name(name)
        for produced in work.glob("*/spans-*.json"):
            shutil.move(str(produced), records / f"{label}-spans.json")
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **record,
        "errors": outcome["errors"],
        "metrics": outcome["metrics"],
    }
    (records / f"{label}.json").write_text(json.dumps(full, indent=2) + "\n")
    for error in outcome["errors"]:
        print(f"perfbench: failure: {error}", file=sys.stderr)
    print(json.dumps({"record": {key: value for key, value in full.items() if key != "ops_ms"}}))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": outcome["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
