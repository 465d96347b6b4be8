"""In-memory spans around the public calls into each fleet layer.

:func:`install` wraps library callables at runtime (nothing under
``src/repro`` changes) so a traced run records one span per outermost
call of each layer: name, start, end and the span that caused it.
Spans and counts stay in memory; :func:`layer_metrics` reduces them to
the benchmark's per-layer metrics when the run is over.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """A single-threaded span stack.

    Spans are recorded only while :attr:`armed` (the runner span arms
    it), so fleet generation and shard planning stay out of the trace.
    A call into a layer whose span is already open (``to_dict`` inside
    ``spec_hash``) runs without a second span, so a layer's total is
    the union of its spans and never double counts.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.armed = False
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.armed or self._open[name]:
            return fn(*args, **kwargs)
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self.starts.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = self.clock()
            self._open[name] -= 1
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.armed:
            self.counts[name] += amount

    # -- reductions --------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(total, self)`` seconds per span name."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            total[name] += duration
            own[name] += duration - child[index]
        return total, own


def _replace(owner, attr: str, make) -> None:
    """Set ``owner.attr`` to ``make(original_function)``, keeping
    ``classmethod`` wrappers in place.  Nothing is restored: a traced
    run owns its interpreter."""
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _spanned(tracer: Tracer, name: str, counter: str | None = None):
    """Wrapper factory: one ``name`` span per outermost call, and one
    tick of ``counter`` (when given) per call."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            return tracer.call(name, fn, *args, **kwargs)
        return wrapper
    return make


def install(tracer: Tracer) -> None:
    """Wrap the public calls into every fleet layer."""
    from repro.core import smartdpss_vec
    from repro.fleet import runner as runner_mod
    from repro.fleet.engine import StreamingAggregator, StreamingBatchSimulator
    from repro.fleet.observe import BatchObserver
    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import ScenarioSpec
    from repro.fleet.store import ResultStore
    from repro.fleet.stream import (
        ArrayTraceStream,
        BatchTraceStream,
        StreamingPaperTraces,
    )
    from repro.baselines.offline import OfflinePlanBatch
    from repro.sim.vecstate import DelayReplay

    span = functools.partial(_spanned, tracer)

    def run_span(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tracer.armed = True
            try:
                return tracer.call("runner", fn, self, *args, **kwargs)
            finally:
                tracer.armed = False
        return wrapper

    _replace(FleetRunner, "run", run_span)

    for attr in ("from_dict", "to_dict", "spec_hash"):
        _replace(ScenarioSpec, attr, span("spec.parse"))
    for attr in ("build_system", "open_stream", "build_controller",
                 "build_observation"):
        _replace(ScenarioSpec, attr, span("spec.build"))
    _replace(ScenarioSpec, "build_traces", span("traces.materialize"))

    def traced_read(read):
        @functools.wraps(read)
        def wrapper(n_slots):
            # Reads inside build_traces belong to traces.materialize.
            if tracer.is_open("traces.materialize"):
                return read(n_slots)
            window = tracer.call("traces.stream", read, n_slots)
            # A (B, n) batch block or one scenario's (n,) window.
            tracer.count("traces.slot_scenarios",
                         int(np.size(window.demand_ds)))
            return window
        return wrapper

    def cursor_open(fn):
        @functools.wraps(fn)
        def wrapper(self):
            cursor = fn(self)
            cursor.read = traced_read(cursor.read)
            return cursor
        return wrapper

    for stream_type in (BatchTraceStream, ArrayTraceStream,
                        StreamingPaperTraces):
        _replace(stream_type, "open", cursor_open)

    _replace(BatchObserver, "observe_matrix",
                    span("observe", "observe.calls"))

    vec = smartdpss_vec.VecSmartDPSS

    def p4(fn):
        @functools.wraps(fn)
        def wrapper(states, *args, **kwargs):
            tracer.count("p4.problems", len(states))
            return tracer.call("p4", fn, states, *args, **kwargs)
        return wrapper

    _replace(vec, "plan_long_term", span("plan", "plan.boundaries"))
    _replace(vec, "prepare_plan_batch", span("plan.prepare"))
    _replace(smartdpss_vec, "solve_p4_many", p4)
    _replace(vec, "real_time", span("real_time", "real_time.calls"))

    def engine_run(fn):
        @functools.wraps(fn)
        def wrapper(self):
            if isinstance(self.controller, OfflinePlanBatch):
                kind = "offline.replay"
            elif any(getattr(run, "observation", None) is not None
                     for run in self.runs):
                kind = "robustness.engine"
            else:
                kind = "engine"
                tracer.count("engine.slot_scenarios",
                             len(self.runs)
                             * self.runs[0].system.horizon_slots)
            return tracer.call(kind, fn, self)
        return wrapper

    _replace(StreamingBatchSimulator, "run", engine_run)
    _replace(StreamingAggregator, "flush_delays",
                    span("delay_replay"))

    def extend(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tracer.count("delay_replay.extend_calls")
            return fn(self, *args, **kwargs)
        return wrapper

    _replace(DelayReplay, "extend", extend)

    def offline_lp(fn):
        @functools.wraps(fn)
        def wrapper(system, block, *args, **kwargs):
            tracer.count("offline.lp_scenarios", block.n_scenarios)
            plans = tracer.call("offline.lp", fn, system, block,
                                *args, **kwargs)
            tracer.count("offline.solved",
                         sum(plan is not None for plan in plans))
            return plans
        return wrapper

    _replace(runner_mod, "solve_offline_plan_batch", offline_lp)

    _replace(ResultStore, "append",
                    span("store.append", "store.appends"))


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    at least ten samples beyond it.  Below 21 samples no percentile
    above the median qualifies, and the maximum (percentile 100) is
    reported instead; the caller states the sample count either way."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    # Nearest rank: index n - 11 leaves exactly ten samples above it.
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


def layer_metrics(tracer: Tracer, *, wall_s: float,
                  shard_s: list[float], run_stats: dict,
                  payload_bytes: list[int], outcome_bytes: list[int],
                  caches_before: dict, caches_after: dict,
                  store_bytes: int, records: int) -> dict[str, float]:
    """Reduce one traced run to the per-layer metrics (seconds, counts
    and ratios; every metric present, zero where the layer idled)."""
    total, own = tracer.totals()
    counts = tracer.counts

    def rate_ns(seconds: float, work: float) -> float:
        return 1e9 * seconds / work if work else 0.0

    hits = sum(after.get("hits", 0) - caches_before.get(name, {}).get(
        "hits", 0) for name, after in caches_after.items())
    misses = sum(after.get("misses", 0) - caches_before.get(name, {}).get(
        "misses", 0) for name, after in caches_after.items())
    tail, tail_pct = percentile_tail(shard_s)
    lp = counts["offline.lp_scenarios"]
    runner_s = total["runner"]
    return {
        "runner.self_s": own["runner"],
        "runner.shards": float(len(shard_s)),
        "runner.shard_s.p50": statistics.median(shard_s),
        "runner.shard_s.tail": tail,
        "runner.shard_s.tail_pct": tail_pct,
        "runner.shard_s.samples": float(len(shard_s)),
        "runner.retries": float(run_stats.get("retries", 0)),
        "runner.quarantined": float(run_stats.get("quarantined", 0)),
        "pool.payload_kb_per_shard":
            sum(payload_bytes) / len(payload_bytes) / 1000.0,
        "pool.outcome_kb_per_shard":
            sum(outcome_bytes) / len(outcome_bytes) / 1000.0,
        "spec.parse_s": total["spec.parse"],
        "spec.build_s": total["spec.build"],
        "spec.calls": float(sum(1 for name in tracer.names
                                if name.startswith("spec."))),
        "caches.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "traces.stream_s": total["traces.stream"],
        "traces.ns_per_slot_scenario":
            rate_ns(total["traces.stream"],
                    counts["traces.slot_scenarios"]),
        "traces.materialize_s": total["traces.materialize"],
        "observe.s": total["observe"],
        "observe.calls": float(counts["observe.calls"]),
        "plan.s": total["plan"],
        "plan.prepare_s": total["plan.prepare"],
        "plan.boundaries": float(counts["plan.boundaries"]),
        "p4.s": total["p4"],
        "p4.problems": float(counts["p4.problems"]),
        "real_time.s": total["real_time"],
        "real_time.calls": float(counts["real_time.calls"]),
        "engine.s": total["engine"],
        "engine.self_s": own["engine"],
        "engine.ns_per_slot_scenario":
            rate_ns(total["engine"], counts["engine.slot_scenarios"]),
        "delay_replay.s": total["delay_replay"],
        "delay_replay.extend_calls":
            float(counts["delay_replay.extend_calls"]),
        "offline.lp_s": total["offline.lp"],
        "offline.lp_scenarios": float(lp),
        "offline.solved_ratio": counts["offline.solved"] / lp if lp else 0.0,
        "offline.replay_s": total["offline.replay"],
        "robustness.engine_s": total["robustness.engine"],
        "store.append_s": total["store.append"],
        "store.appends": float(counts["store.appends"]),
        "store.bytes_per_record": store_bytes / records if records else 0.0,
        "trace.attributed_share":
            1.0 - own["runner"] / runner_s if runner_s else 0.0,
        "trace.wall_s": wall_s,
    }
