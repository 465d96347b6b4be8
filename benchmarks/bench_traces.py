"""Trace-kernel benchmark: scalar loops vs vectorized batch kernels.

Writes ``BENCH_traces.json`` at the repo root (see
benchmarks/README.md for how to read it): the wall-clock to stream a
``B``-scenario batch over a 30-day horizon in fleet-sized windows,
through the per-scenario scalar cursors (``StreamingPaperTraces.open``,
the reference path) and through one ``BatchTraceStream`` cursor (the
vectorized kernels), also timed per component (demand AR(1),
compound-Poisson arrivals, solar Markov+AR(1), real-time prices,
forward curve).  Acceptance: the batch path is **≥ 5×** the scalar
path at ``B ≥ 64``.  End-to-end fleet throughput is measured by
``fleetbench`` (``make bench``).

Run::

    PYTHONPATH=src python benchmarks/bench_traces.py            # full
    PYTHONPATH=src python benchmarks/bench_traces.py --quick    # small
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config.presets import paper_system_config  # noqa: E402
from repro.fleet.stream import (  # noqa: E402
    BatchTraceStream,
    StreamingPaperTraces,
)
from repro.rng import RngFactory  # noqa: E402
from repro.traces.demand import (  # noqa: E402
    DemandChunkState,
    DemandTraceKernel,
    GoogleClusterDemandGenerator,
)
from repro.traces.prices import (  # noqa: E402
    NyisoLikePriceGenerator,
    PriceChunkState,
    PriceTraceKernel,
)
from repro.traces.solar import (  # noqa: E402
    MidcLikeSolarGenerator,
    SolarChunkState,
    SolarTraceKernel,
)

OUTPUT = REPO_ROOT / "BENCH_traces.json"

#: Minimum acceptable batch/scalar speedup on chunked generation.
TRACE_TARGET = 5.0


def _chunks(n_slots: int, chunk_slots: int):
    for start in range(0, n_slots, chunk_slots):
        yield start, min(chunk_slots, n_slots - start)


def measure_generation(batch: int, days: int,
                       chunk_slots: int) -> dict:
    """Scalar cursors vs one batch cursor over the same horizon."""
    system = paper_system_config(days=days)
    n_slots = system.horizon_slots

    def streams():
        return [StreamingPaperTraces(n_slots, seed=seed,
                                     clip_p_grid=system.p_grid)
                for seed in range(batch)]

    t0 = time.perf_counter()
    for stream in streams():
        cursor = stream.open()
        for _, take in _chunks(n_slots, chunk_slots):
            cursor.read(take)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cursor = BatchTraceStream(streams()).open()
    for _, take in _chunks(n_slots, chunk_slots):
        cursor.read(take)
    batch_s = time.perf_counter() - t0

    speedup = scalar_s / batch_s
    slot_rate = batch * n_slots / batch_s
    print(f"  generation B={batch} horizon={n_slots} "
          f"chunk={chunk_slots}: scalar {scalar_s:6.2f}s, batch "
          f"{batch_s:6.2f}s ({speedup:.1f}x, "
          f"{slot_rate / 1e6:.2f}M slot-scenarios/s)")
    return {
        "batch_size": batch,
        "horizon_slots": n_slots,
        "chunk_slots": chunk_slots,
        "scalar_s": round(scalar_s, 3),
        "batch_s": round(batch_s, 3),
        "speedup": round(speedup, 2),
        "batch_slot_scenarios_per_s": round(slot_rate),
        "ok": speedup >= TRACE_TARGET,
    }


def measure_components(batch: int, days: int,
                       chunk_slots: int) -> list[dict]:
    """Per-component scalar-loop vs kernel timings (same draws)."""
    system = paper_system_config(days=days)
    n_slots = system.horizon_slots
    streams = [StreamingPaperTraces(n_slots, seed=seed)
               for seed in range(batch)]
    models = {
        "demand": [s.demand_model for s in streams],
        "solar": [s.solar_model for s in streams],
        "price": [s.price_model for s in streams],
    }
    seeds = [s.seed for s in streams]

    def rngs(name):
        return [RngFactory(seed).stream(name) for seed in seeds]

    rows = []

    def record(name, scalar_fn, batch_fn):
        t0 = time.perf_counter()
        scalar_fn()
        scalar_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        batch_fn()
        batch_s = time.perf_counter() - t0
        rows.append({
            "component": name,
            "scalar_s": round(scalar_s, 4),
            "batch_s": round(batch_s, 4),
            "speedup": round(scalar_s / batch_s, 1),
        })
        print(f"    {name:16s} scalar {scalar_s:7.3f}s  batch "
              f"{batch_s:7.3f}s  ({scalar_s / batch_s:5.1f}x)")

    def scalar_sensitive():
        for model, rng in zip(models["demand"], rngs("dds")):
            generator = GoogleClusterDemandGenerator(model)
            state = DemandChunkState()
            for start, take in _chunks(n_slots, chunk_slots):
                generator.delay_sensitive_stream_chunk(
                    start, take, rng, state)

    def batch_sensitive():
        kernel = DemandTraceKernel(models["demand"])
        generators, level = rngs("dds"), np.zeros(batch)
        for start, take in _chunks(n_slots, chunk_slots):
            _, level = kernel.sensitive_block(start, take, generators,
                                              level)

    record("demand_sensitive", scalar_sensitive, batch_sensitive)

    def scalar_tolerant():
        for model, count_rng, size_rng in zip(
                models["demand"], rngs("cnt"), rngs("sz")):
            generator = GoogleClusterDemandGenerator(model)
            for start, take in _chunks(n_slots, chunk_slots):
                generator.delay_tolerant_stream_chunk(
                    start, take, count_rng, size_rng)

    def batch_tolerant():
        kernel = DemandTraceKernel(models["demand"])
        count_rngs, size_rngs = rngs("cnt"), rngs("sz")
        for start, take in _chunks(n_slots, chunk_slots):
            kernel.tolerant_block(start, take, count_rngs, size_rngs)

    record("demand_tolerant", scalar_tolerant, batch_tolerant)

    def scalar_solar():
        for model, cloud, jitter, noise in zip(
                models["solar"], rngs("cl"), rngs("ji"), rngs("no")):
            generator = MidcLikeSolarGenerator(model)
            state = SolarChunkState()
            for start, take in _chunks(n_slots, chunk_slots):
                generator.generate_chunk(start, take, cloud, jitter,
                                         noise, state)

    def batch_solar():
        kernel = SolarTraceKernel(models["solar"])
        clouds, jitters, noises = rngs("cl"), rngs("ji"), rngs("no")
        state = np.full(batch, -1, dtype=np.int64)
        level = np.zeros(batch)
        for start, take in _chunks(n_slots, chunk_slots):
            _, state, level = kernel.block(start, take, clouds,
                                           jitters, noises, state,
                                           level)

    record("solar", scalar_solar, batch_solar)

    def scalar_prices():
        for model, rt_rng, spike_rng, fwd_rng in zip(
                models["price"], rngs("rt"), rngs("sp"), rngs("fw")):
            generator = NyisoLikePriceGenerator(model)
            state = PriceChunkState()
            for start, take in _chunks(n_slots, chunk_slots):
                generator.real_time_stream_chunk(start, take, rt_rng,
                                                 spike_rng, state)
                generator.forward_curve_chunk(start, take, fwd_rng)

    def batch_prices():
        kernel = PriceTraceKernel(models["price"])
        rt_rngs, spike_rngs, fwd_rngs = rngs("rt"), rngs("sp"), \
            rngs("fw")
        level = np.zeros(batch)
        for start, take in _chunks(n_slots, chunk_slots):
            _, level = kernel.real_time_block(start, take, rt_rngs,
                                              spike_rngs, level)
            kernel.forward_block(start, take, fwd_rngs)

    record("prices", scalar_prices, batch_prices)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, no JSON output")
    args = parser.parse_args(argv)

    if args.quick:
        generation = measure_generation(batch=16, days=4,
                                        chunk_slots=24)
        components = measure_components(batch=16, days=4,
                                        chunk_slots=24)
    else:
        generation = measure_generation(batch=64, days=30,
                                        chunk_slots=96)
        components = measure_components(batch=64, days=30,
                                        chunk_slots=96)

    target_met = bool(generation["ok"])
    payload = {
        "workload": ("chunked stream-family generation (B scenarios, "
                     "30-day horizon, fleet-sized windows)"),
        "target": (f"batch kernels >= {TRACE_TARGET:.0f}x the scalar "
                   f"cursors on chunked generation (B >= 64)"),
        "target_met": target_met,
        "trace_generation": generation,
        "components": components,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if not args.quick:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
        print(f"\nwrote {OUTPUT} (target met: {target_met})")
    return 0 if target_met else 1


if __name__ == "__main__":
    raise SystemExit(main())
