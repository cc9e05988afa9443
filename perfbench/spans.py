"""Spans recorded from outside the program, for the traced run.

:func:`instrument` replaces public methods of each layer's classes with
wrappers that record one span per call: name, start, end, parent and a few
attributes.  Methods are patched on their classes, because a name bound by
``from ... import`` elsewhere would not see a patch of its home module; a
call through any instance or alias then reaches the wrapper.  Spans stay in
memory and are written out by the worker when the run ends.

The parent of a span is the span open in the same context (a contextvar,
so threads and asyncio tasks each see their own).  A service request is
served by another task than the client that sent it; the client therefore
announces its open request span under the scenario name and the wrapper of
``EvaluationService.evaluate`` claims it as parent (:meth:`Tracer.request`,
:meth:`Tracer.claim`).
Kernel calls the service runs on its thread pool start with no parent.

Self time of a span is its duration minus the part of it that its child
spans cover.  For an ``async`` method the duration includes the time the
event loop spent on other tasks while the call was suspended.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Name of the span the benchmark opens around each operation (one spec or
#: one request); span coverage is measured against these.
OP_SPAN = "bench.op"

# One span: [id, name, parent id, start, end, attrs]
Span = List[Any]


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._announced: Dict[str, deque] = defaultdict(deque)

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs: Any) -> Iterator[Span]:
        record: Span = [
            next(self._ids),
            name,
            self._current.get() if parent is None else parent,
            0.0,
            0.0,
            attrs,
        ]
        token = self._current.set(record[0])
        record[3] = time.perf_counter()
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def op(self, name: str) -> Any:
        return self.span(OP_SPAN, scenario=name)

    @contextmanager
    def request(self, scenario: str) -> Iterator[Span]:
        """Client-side op span that a server-side call can claim as parent."""
        with self.span(OP_SPAN, scenario=scenario) as record:
            waiting = self._announced[scenario]
            waiting.append(record[0])
            try:
                yield record
            finally:
                if record[0] in waiting:
                    waiting.remove(record[0])

    def claim(self, scenario: str) -> Optional[int]:
        """Oldest announced, unclaimed request span of ``scenario``."""
        waiting = self._announced.get(scenario)
        return waiting.popleft() if waiting else None

    def to_json_ready(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": sid,
                "name": name,
                "parent": parent,
                "start_s": start,
                "end_s": end,
                "attrs": attrs,
            }
            for sid, name, parent, start, end, attrs in self.spans
        ]


class NullTracer:
    """Stand-in for the untraced run: opens no spans, costs one call."""

    @contextmanager
    def _nothing(self) -> Iterator[None]:
        yield None

    def op(self, name: str) -> Any:
        return self._nothing()

    def request(self, scenario: str) -> Any:
        return self._nothing()


# ---------------------------------------------------------------------------
# Method wrappers
# ---------------------------------------------------------------------------

#: ``after(instance, args, kwargs, result, span)`` may add attributes once
#: the call has returned; it runs after the span's end is stamped.
After = Callable[[Any, tuple, dict, Any, Span], None]


def _wrap(tracer: Tracer, function: Callable, name: str, after: Optional[After]) -> Callable:
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as record:
                result = await function(*args, **kwargs)
            if after is not None:
                after(args[0], args, kwargs, result, record)
            return result

        return async_wrapper

    if inspect.isgeneratorfunction(function):
        # One span per resumption, so time the consumer spends between
        # items is not charged to the generator.
        @functools.wraps(function)
        def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = function(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return generator_wrapper

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as record:
            result = function(*args, **kwargs)
        if after is not None:
            after(args[0], args, kwargs, result, record)
        return result

    return wrapper


class Instrumentation:
    """The set of patched methods; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patched: List[Tuple[type, str, Any]] = []

    def wrap(self, owner: type, attribute: str, name: str, after: Optional[After] = None) -> None:
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(_wrap(self.tracer, original.__func__, name, after))
        else:
            replacement = _wrap(self.tracer, original, name, after)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap_claiming(self, owner: type, attribute: str, name: str) -> None:
        """Wrap ``async def method(self, spec_dict, ...)``; its span's parent
        is the client request announced under ``spec_dict["name"]``."""
        original = inspect.getattr_static(owner, attribute)
        tracer = self.tracer

        @functools.wraps(original)
        async def wrapper(instance: Any, spec_dict: Any, *args: Any, **kwargs: Any) -> Any:
            parent = tracer.claim(str(spec_dict.get("name", "")))
            with tracer.span(name, parent=parent):
                return await original(instance, spec_dict, *args, **kwargs)

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


class Counters:
    """Engine counters summed from every kernel result.

    The service runs kernels on a thread pool, so additions take a lock.
    """

    def __init__(self) -> None:
        self.engine: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def add(self, counters: Dict[str, int]) -> None:
        with self._lock:
            for name, value in counters.items():
                self.engine[name] += value


def instrument(tracer: Tracer) -> Tuple[Instrumentation, Counters]:
    """Patch one public entry point of every layer; see README.md for the map."""
    from repro.campaigns import (
        ArtifactStore,
        AsyncExecutor,
        EvaluationKernel,
        EvaluationService,
        SerialExecutor,
    )
    from repro.methodology import SweepEngine, ThermalAwareDesignFlow
    from repro.scenarios import ScenarioRunner, ScenarioSpec
    from repro.snr import SnrAnalyzer
    from repro.thermal import (
        FactorizationCache,
        MeshBuilder,
        SteadyStateSolver,
        TransientSolver,
        ZoomSolver,
    )

    patches = Instrumentation(tracer)
    counters = Counters()

    def analyze_after(instance, args, kwargs, result, record):
        states = args[1] if len(args) > 1 else kwargs["states_batch"]
        record[5]["states"] = len(states)

    def kernel_after(instance, args, kwargs, result, record):
        counters.add(result[1])

    def load_after(instance, args, kwargs, result, record):
        record[5]["hit"] = result is not None

    def put_after(instance, args, kwargs, result, record):
        record[5]["bytes"] = instance.backend.object_path(result).stat().st_size

    wrap = patches.wrap
    wrap(FactorizationCache, "factorize", "thermal.factorize")
    wrap(SteadyStateSolver, "solve_many", "thermal.steady")
    wrap(ZoomSolver, "solve", "thermal.zoom")
    wrap(MeshBuilder, "build", "thermal.mesh")
    wrap(TransientSolver, "solve", "thermal.transient")
    wrap(SnrAnalyzer, "analyze_many", "snr.batch", analyze_after)
    wrap(SweepEngine, "evaluate", "methodology.evaluate")
    wrap(SweepEngine, "evaluate_snr", "methodology.evaluate_snr")
    wrap(SweepEngine, "evaluate_transient", "methodology.evaluate_transient")
    wrap(ThermalAwareDesignFlow, "run_transient_snr", "methodology.transient_snr")
    wrap(ScenarioRunner, "run", "scenarios.run")
    wrap(ScenarioSpec, "from_dict", "scenarios.spec")
    wrap(ScenarioSpec, "content_hash", "scenarios.spec")
    wrap(EvaluationKernel, "run", "campaigns.kernel", kernel_after)
    wrap(SerialExecutor, "execute", "campaigns.executor")
    wrap(AsyncExecutor, "execute_async", "campaigns.executor")
    wrap(ArtifactStore, "load", "campaigns.store.load", load_after)
    wrap(ArtifactStore, "store", "campaigns.store.put", put_after)
    patches.wrap_claiming(EvaluationService, "evaluate", "campaigns.service.evaluate")
    return patches, counters


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def covered_length(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _children(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for record in spans:
        if record[2] is not None:
            children[record[2]].append(record)
    return children


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total (inclusive) time and self time."""
    children = _children(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for sid, name, _, start, end, _ in spans:
        entry = table[name]
        entry["calls"] += 1
        entry["s"] += end - start
        covered = covered_length([(c[3], c[4]) for c in children.get(sid, ())], start, end)
        entry["self_s"] += (end - start) - covered
    return dict(table)


def coverage(spans: Sequence[Span]) -> float:
    """Share of operation wall time that the operations' child spans cover."""
    children = _children(spans)
    wall = covered = 0.0
    for sid, name, _, start, end, _ in spans:
        if name != OP_SPAN:
            continue
        wall += end - start
        covered += covered_length([(c[3], c[4]) for c in children.get(sid, ())], start, end)
    return covered / wall if wall > 0 else 0.0


def attr_sum(spans: Sequence[Span], name: str, attribute: str) -> float:
    return float(sum(record[5].get(attribute, 0) for record in spans if record[1] == name))


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    engine: Dict[str, int],
    factorizations: Dict[str, int],
    service_counters: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metric values of one traced run (see README.md)."""
    table = aggregate(spans)

    def get(name: str, field: str) -> float:
        return float(table.get(name, {}).get(field, 0.0))

    request_wall = sum(end - start for _, name, _, start, end, _ in spans if name == OP_SPAN)
    requests = service_counters.get("service.requests", 0)
    hits = sum(engine.get(name, 0) for name in ("cache_hits", "snr_cache_hits", "transient_cache_hits"))
    asked = sum(
        engine.get(name, 0)
        for name in ("points_requested", "snr_points_requested", "transient_points_requested")
    )
    service_s = get("campaigns.service.evaluate", "s")
    return {
        "thermal.factorize.s": get("thermal.factorize", "s"),
        "thermal.factorize.calls": get("thermal.factorize", "calls"),
        "thermal.factorize.reused_share": _share(
            factorizations.get("reused", 0),
            factorizations.get("reused", 0) + factorizations.get("built", 0),
        ),
        "thermal.steady.s": get("thermal.steady", "s"),
        "thermal.steady.calls": get("thermal.steady", "calls"),
        "thermal.zoom.s": get("thermal.zoom", "s"),
        "thermal.mesh.s": get("thermal.mesh", "s"),
        "thermal.transient.s": get("thermal.transient", "s"),
        "thermal.transient.calls": get("thermal.transient", "calls"),
        "snr.batch.s": get("snr.batch", "s"),
        "snr.batch.calls": get("snr.batch", "calls"),
        "snr.batch.states_per_call": _share(
            attr_sum(spans, "snr.batch", "states"), get("snr.batch", "calls")
        ),
        "methodology.evaluate.self_s": get("methodology.evaluate", "self_s"),
        "methodology.evaluate_snr.self_s": get("methodology.evaluate_snr", "self_s"),
        "methodology.evaluate_transient.self_s": get("methodology.evaluate_transient", "self_s"),
        "methodology.transient_snr.self_s": get("methodology.transient_snr", "self_s"),
        "methodology.cache_hit_share": _share(hits, asked),
        "scenarios.run.self_s": get("scenarios.run", "self_s"),
        "scenarios.spec.s": get("scenarios.spec", "s"),
        "campaigns.kernel.s": get("campaigns.kernel", "s"),
        "campaigns.executor.overhead_s": get("campaigns.executor", "s") - get("campaigns.kernel", "s"),
        "campaigns.store.load.s": get("campaigns.store.load", "s"),
        "campaigns.store.load.calls": get("campaigns.store.load", "calls"),
        "campaigns.store.load.hit_share": _share(
            attr_sum(spans, "campaigns.store.load", "hit"), get("campaigns.store.load", "calls")
        ),
        "campaigns.store.put.s": get("campaigns.store.put", "s"),
        "campaigns.store.put.calls": get("campaigns.store.put", "calls"),
        "campaigns.store.put.bytes": attr_sum(spans, "campaigns.store.put", "bytes"),
        "campaigns.service.evaluate.s": service_s,
        "campaigns.service.http_s": request_wall - service_s if requests else 0.0,
        "campaigns.service.coalesced_share": _share(
            service_counters.get("service.coalesced", 0), requests
        ),
        "campaigns.service.store_served_share": _share(
            service_counters.get("service.store_served", 0), requests
        ),
        "bench.span_coverage": coverage(spans),
    }
