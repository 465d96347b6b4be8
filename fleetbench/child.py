"""One benchmark run of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.
Modes:

``time``
    Untraced: set up (import ``repro.fleet``, generate specs, construct
    ``FleetRunner``, plan ``shards()``), then time ``run()`` with
    telemetry off, writing into the fresh ``--store``.  Reports wall,
    CPU (own plus reaped pool workers) and peak RSS, the records'
    digest and, with ``--oracle N``, checks N sampled scenarios against
    the scalar ``Simulator``.
``trace``
    Like ``time`` but in-process (no pool) with the layer wrappers of
    ``tracer.py`` installed; reports the per-layer metrics.
``manifest``
    In-process with ``telemetry=True``; prints the run manifest's stage
    table and reports its unattributed share of shard time.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def records_digest(records: list[dict]) -> str:
    """SHA-256 of the canonical JSON of the records, in spec order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def oracle_mismatches(specs, records, count: int, seed: int,
                      robustness: float | None) -> list[str]:
    """Re-run ``count`` sampled scenarios through the scalar
    ``Simulator`` and compare the policy metrics exactly (plus the
    paired noisy cost when the fleet carries a robustness column)."""
    from repro.fleet import ScenarioMetrics
    from repro.fleet.observe import observation_from_mapping
    from repro.sim.engine import Simulator

    picks = random.Random(seed).sample(range(len(specs)),
                                       min(count, len(specs)))
    problems = []
    for index in sorted(picks):
        spec, record = specs[index], records[index]
        system = spec.build_system()
        traces = spec.build_traces(system)
        result = Simulator(system, spec.build_controller(), traces).run()
        want = ScenarioMetrics.from_result(result, seed=spec.seed)
        got = record.get("metrics", {})
        for key, value in want.as_dict().items():
            if got.get(key) != value:
                problems.append(f"{spec.name}: {key} {got.get(key)!r} "
                                f"!= oracle {value!r}")
        if robustness is not None:
            observation = observation_from_mapping(
                {"kind": "uniform", "rel_error": robustness},
                default_seed=spec.seed, price_cap=system.p_max)
            noisy = Simulator(system, spec.build_controller(), traces,
                              observed=observation.observed_traces(traces)
                              ).run()
            cost = ScenarioMetrics.from_result(
                noisy, seed=spec.seed).time_avg_cost
            if got.get("noisy_cost") != cost:
                problems.append(f"{spec.name}: noisy_cost "
                                f"{got.get('noisy_cost')!r} != oracle "
                                f"{cost!r}")
    return problems


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children
    (the pool's workers, once ``run()`` has shut the pool down)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """The largest RSS of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("time", "trace", "manifest"))
    parser.add_argument("--store", required=True)
    parser.add_argument("--oracle", type=int, default=0)
    parser.add_argument("--in-process", action="store_true",
                        help="run without the pool (implied by trace "
                             "and manifest)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    from repro.fleet import FleetRunner, ResultStore

    specs = workload.specs(args.seed)
    options = workload.runner_options(
        in_process=args.in_process or args.mode != "time")
    store = ResultStore(args.store)
    runner = FleetRunner(specs, store=store,
                         telemetry=args.mode == "manifest", **options)
    payloads = runner.shards()
    setup_s = time.perf_counter() - T0

    out: dict = {"workload": workload.name, "seed": args.seed,
                 "mode": args.mode, "scenarios": len(specs),
                 "setup_s": setup_s}
    if args.mode == "trace":
        from multiprocessing.reduction import ForkingPickler

        from repro.caches import cache_stats
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        outcomes = []
        caches_before = cache_stats()
        start = time.perf_counter()
        records = runner.run(progress=lambda outcome, done, total:
                             outcomes.append(outcome))
        wall = time.perf_counter() - start
        caches_after = cache_stats()
        out["layers"] = layer_metrics(
            tracer, wall_s=wall,
            shard_s=[outcome.elapsed_s for outcome in outcomes],
            run_stats=runner.last_run_stats or {},
            payload_bytes=[len(ForkingPickler.dumps(p)) for p in payloads],
            outcome_bytes=[len(ForkingPickler.dumps(o)) for o in outcomes],
            caches_before=caches_before, caches_after=caches_after,
            store_bytes=store.path.stat().st_size, records=len(records))
    else:
        cpu0 = cpu_s()
        start = time.perf_counter()
        records = runner.run()
        wall = time.perf_counter() - start
        out["cpu_s"] = cpu_s() - cpu0
        out["peak_rss_mb"] = peak_rss_mb()
    if args.mode == "manifest":
        from repro.telemetry.manifest import _NESTED_UNDER

        manifest = runner.last_manifest
        stages = manifest.stages
        shard = float(stages.get("shard", {}).get("total_s", 0.0))
        inside = sum(float(stats.get("total_s", 0.0))
                     for name, stats in stages.items()
                     if name not in _NESTED_UNDER
                     and name not in ("shard", "store_append"))
        out["unattributed_share"] = (1.0 - inside / shard) if shard else 0.0
        out["manifest"] = manifest.render()

    stats = runner.last_run_stats or {}
    out["run_s"] = wall
    out["quarantined"] = int(stats.get("quarantined", 0))
    out["completed"] = sum(1 for record in records
                           if record is not None
                           and not record.get("quarantined"))
    out["digest"] = records_digest(records)
    if args.oracle:
        out["oracle_problems"] = oracle_mismatches(
            specs, records, args.oracle, args.seed, workload.robustness)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
