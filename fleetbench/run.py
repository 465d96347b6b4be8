"""The fleet benchmark: four named workloads, end to end and per layer.

Run one workload::

    python3 fleetbench/run.py --workload demo-1d --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats fresh-interpreter runs of the workload (telemetry
off, no wrappers, a fresh result store each) for ``--seconds`` and
reports the median of every end-to-end metric.  ``--trace 1`` runs the
workload in-process with the layer wrappers of ``tracer.py`` installed
(plus untraced in-process references for the trace overhead, and one
``telemetry=True`` run whose manifest is printed beside the spans) and
reports the per-layer metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every run checks its output: all repetitions must produce the same
records digest, which for seed 0 must equal the one checked in to
``digests.json``; and sampled scenarios must match the scalar
``Simulator`` oracle exactly, for any seed.

Run every workload both ways and write ``ledger.json`` beside this
file::

    python3 fleetbench/run.py --ledger

Regenerate ``digests.json`` (seed 0) after a deliberate change to the
records::

    python3 fleetbench/run.py --write-digests
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
LEDGER = HERE / "ledger.json"
SCRATCH = ROOT / ".fleetbench"

#: Untraced repetitions per run at least (the median needs three).
MIN_REPS = 3
#: Scenarios per run checked against the scalar oracle.
ORACLE_SAMPLES = 4
#: A child that takes longer than this has hung; it is killed.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "cpu_s_per_kscenario": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "completed_fraction": "ratio",
}

LAYER_UNITS = {
    "runner.self_s": "s", "runner.shards": "count",
    "runner.shard_s.p50": "s", "runner.shard_s.tail": "s",
    "runner.shard_s.tail_pct": "%", "runner.shard_s.samples": "count",
    "runner.retries": "count", "runner.quarantined": "count",
    "pool.payload_kb_per_shard": "kB", "pool.outcome_kb_per_shard": "kB",
    "spec.parse_s": "s", "spec.build_s": "s", "spec.calls": "count",
    "caches.hit_ratio": "ratio",
    "traces.stream_s": "s", "traces.ns_per_slot_scenario": "ns",
    "traces.materialize_s": "s",
    "observe.s": "s", "observe.calls": "count",
    "plan.s": "s", "plan.prepare_s": "s", "plan.boundaries": "count",
    "p4.s": "s", "p4.problems": "count",
    "real_time.s": "s", "real_time.calls": "count",
    "engine.s": "s", "engine.self_s": "s",
    "engine.ns_per_slot_scenario": "ns",
    "delay_replay.s": "s", "delay_replay.extend_calls": "count",
    "offline.lp_s": "s", "offline.lp_scenarios": "count",
    "offline.solved_ratio": "ratio", "offline.replay_s": "s",
    "robustness.engine_s": "s",
    "store.append_s": "s", "store.appends": "count",
    "store.bytes_per_record": "B",
    "trace.attributed_share": "ratio", "trace.overhead": "ratio",
    "manifest.unattributed_share": "ratio",
}


class BenchError(RuntimeError):
    """A child run failed; the benchmark prints no result."""


def child_env() -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob, so an
    exported chaos plan or backend choice cannot reach a timed run."""
    return {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")}


def run_child(workload: str, seed: int, mode: str, tag: str,
              oracle: int = 0, in_process: bool = False) -> dict:
    """One fresh interpreter over one fresh store; returns its JSON
    result."""
    store = SCRATCH / f"{workload}-{os.getpid()}-{tag}"
    shutil.rmtree(store, ignore_errors=True)
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--store", str(store),
               "--oracle", str(oracle)] + (["--in-process"] if in_process
                                           else [])
    try:
        code, stdout, stderr = wait_child(command)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{workload} {mode} run failed "
                         f"(exit {code}):\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def wait_child(command: list[str]) -> tuple[int, str, str]:
    """Run ``command`` in its own session; on timeout or interrupt kill
    the whole process group (pool workers included) and reap it."""
    process = subprocess.Popen(command, env=child_env(), cwd=ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return process.returncode, stdout, stderr


def warm_up() -> None:
    """Compile and page in the library once, untimed, so the first
    timed repetition does not pay for writing bytecode caches."""
    code, _, stderr = wait_child(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
         "import repro.fleet, repro.sim.engine"])
    if code != 0:
        raise BenchError(f"cannot import repro:\n{stderr[-2000:]}")


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's current
    speed, recorded so that neighbours slowing a shared host show up
    beside the figures they distort."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1000.0 * (time.perf_counter() - start))
    return round(statistics.median(times), 3)


def host_info() -> dict:
    import numpy

    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "loadavg": [round(load, 2) for load in os.getloadavg()],
            "probe_ms": host_probe_ms()}


def expected_digest(workload: str, seed: int) -> str | None:
    """The checked-in records digest (seed 0 only)."""
    if seed != 0:
        return None
    return json.loads(DIGESTS.read_text())[workload]


def check(results: list[dict], workload: str, seed: int) -> list[str]:
    """Output problems across one run's repetitions (empty = correct)."""
    problems = []
    digests = {result["digest"] for result in results}
    if len(digests) != 1:
        problems.append(f"records differ between repetitions: {digests}")
    want = expected_digest(workload, seed)
    if want is not None and digests != {want}:
        problems.append(f"records digest {sorted(digests)} != checked-in "
                        f"{want}")
    for result in results:
        problems.extend(result.get("oracle_problems", []))
        if result["completed"] + result["quarantined"] \
                != result["scenarios"]:
            problems.append(f"{result['scenarios']} scenarios but "
                            f"{result['completed']} records")
    return problems


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: medians over fresh-interpreter repetitions."""
    warm_up()
    deadline = time.perf_counter() + seconds
    results: list[dict] = []
    last_s = 0.0
    # Stop before a repetition that would likely overrun the deadline.
    while len(results) < MIN_REPS or time.perf_counter() + last_s < deadline:
        start = time.perf_counter()
        results.append(run_child(workload, seed, "time", str(len(results)),
                                 oracle=0 if results else ORACLE_SAMPLES))
        last_s = time.perf_counter() - start
    attempted = sum(result["scenarios"] for result in results)
    failed = sum(result["scenarios"] - result["completed"]
                 for result in results)
    samples = {
        "scenarios_per_s": [r["scenarios"] / r["run_s"] for r in results],
        "cpu_s_per_kscenario": [1000.0 * r["cpu_s"] / r["scenarios"]
                                for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
    }
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics["completed_fraction"] = (attempted - failed) / attempted
    return {"problems": check(results, workload, seed),
            "attempted": attempted, "failed": failed,
            "repetitions": len(results), "metrics": metrics,
            "samples": samples,
            "failed_fraction": failed / attempted}


def measure_layers(workload: str, seed: int, seconds: float
                   ) -> dict:
    """Per-layer metrics from traced in-process runs.

    Traced runs alternate with untraced in-process references (the
    same configuration without wrappers) for ``trace.overhead``; one
    ``telemetry=True`` run's manifest is printed beside the spans and
    its unattributed share reported, not gated.
    """
    warm_up()
    deadline = time.perf_counter() + seconds
    manifest = run_child(workload, seed, "manifest", "m")
    traced: list[dict] = []
    plain: list[dict] = []
    last_s = 0.0
    while not traced or time.perf_counter() + last_s < deadline:
        start = time.perf_counter()
        tag = str(len(traced))
        plain.append(run_child(workload, seed, "time", "p" + tag,
                               in_process=True))
        traced.append(run_child(workload, seed, "trace", "t" + tag))
        last_s = time.perf_counter() - start
    layers = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    traced_wall = layers.pop("trace.wall_s")
    layers["trace.overhead"] = (
        traced_wall / statistics.median(p["run_s"] for p in plain) - 1.0)
    layers["manifest.unattributed_share"] = manifest["unattributed_share"]
    results = traced + plain + [manifest]
    attempted = sum(result["scenarios"] for result in results)
    failed = sum(result["scenarios"] - result["completed"]
                 for result in results)
    return {"problems": check(results, workload, seed),
            "attempted": attempted, "failed": failed,
            "repetitions": len(traced), "metrics": layers,
            "manifest": manifest["manifest"]}


def render(title: str, metrics: dict, units: dict) -> list[str]:
    lines = [title]
    for name, value in metrics.items():
        lines.append(f"  {name:<32} {value:>14.6g} {units[name]}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> dict:
    """Measure one workload; prints the human-readable report and
    returns the run summary."""
    print(f"host before: {json.dumps(host_info())}")
    if trace:
        summary = measure_layers(workload, seed, seconds)
        print(f"{workload}: telemetry manifest (reported, not gated)")
        print(summary["manifest"])
        units = LAYER_UNITS
    else:
        summary = measure(workload, seed, seconds)
        units = END_TO_END_UNITS
    print("\n".join(render(
        f"{workload} seed={seed} ({summary['repetitions']} repetitions, "
        f"{summary['attempted']} scenarios attempted, "
        f"{summary['failed']} failed)", summary["metrics"], units)))
    for name, values in summary.get("samples", {}).items():
        print(f"samples {name}: {json.dumps(values)}")
    for problem in summary["problems"]:
        print(f"OUTPUT CHECK FAILED: {problem}")
    print(f"host after: {json.dumps(host_info())}")
    missing = set(units) - set(summary["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return summary


def result_line(summary: dict, units: dict) -> str:
    return json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in summary["metrics"].items()},
    })


def write_digests() -> None:
    digests = {}
    for name in WORKLOADS:
        warm_up()
        result = run_child(name, 0, "time", "digest")
        digests[name] = result["digest"]
        print(f"{name}: {result['digest']}")
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


def write_ledger(seed: int, seconds: float) -> None:
    ledger = {"seed": seed, "seconds": seconds,
              "workloads": {}}
    for name in WORKLOADS:
        end_to_end = run_workload(name, seed, seconds, trace=False)
        layers = run_workload(name, seed, seconds, trace=True)
        ledger["workloads"][name] = {
            "host": host_info(),
            "correct": not (end_to_end["problems"] or layers["problems"]),
            "repetitions": end_to_end["repetitions"],
            "failed_fraction": end_to_end["failed_fraction"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": layers["metrics"],
        }
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"ledger written to {LEDGER.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", action="store_true",
                        help="run every workload both ways and write "
                             "ledger.json")
    parser.add_argument("--write-digests", action="store_true",
                        help="record seed 0's output digests")
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps its running child
    # (see wait_child) and removes its stores.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_digests:
            write_digests()
        elif args.ledger:
            write_ledger(args.seed, args.seconds)
        elif args.workload is None:
            parser.error("--workload, --ledger or --write-digests needed")
        else:
            summary = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
            units = LAYER_UNITS if args.trace else END_TO_END_UNITS
            print(result_line(summary, units))
            return 0 if not summary["problems"] else 1
    except BenchError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
