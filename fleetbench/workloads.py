"""The benchmark's four fleet workloads, generated from a seed.

Every workload uses ``T=6`` and the paper system preset.  The seed
shifts every spec seed (v-sweeps) or the random fleet's
``sample_seed``; the program only ever sees the generated specs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The v-sweep's 20 control parameters (the CLI demo's grid).
V_COUNT = 20

#: Spec seeds of workload seed ``s`` start at ``s * SEED_STRIDE``, so
#: two workload seeds never share a scenario.
SEED_STRIDE = 100_000

RANDOM_SPACE = {
    "controller.v": (0.05, 5.0),
    "controller.epsilon": (0.25, 2.0),
    "trace.solar.capacity_mw": (2.0, 6.0),
    "trace.price.mean_price": (35.0, 65.0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fleet: str               # "v-sweep" or "random"
    scenarios: int
    days: int
    workers: int
    offline_gap: bool = False
    robustness: float | None = None

    def specs(self, seed: int) -> list:
        """The fleet for workload seed ``seed``, in spec order."""
        import numpy as np

        from repro.fleet import ScenarioSpec, grid_specs, sample_specs

        template = ScenarioSpec(
            system={"preset": "paper", "days": self.days,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"},
            trace={"kind": "stream"})
        if self.fleet == "random":
            return sample_specs(template, RANDOM_SPACE, self.scenarios,
                                seed=seed)
        values = [round(float(v), 4)
                  for v in np.geomspace(0.05, 5.0, num=V_COUNT)]
        base = seed * SEED_STRIDE
        replicas = -(-self.scenarios // V_COUNT)
        specs = grid_specs(template, "controller.v", values,
                           seeds=range(base, base + replicas))
        return specs[:self.scenarios]

    def runner_options(self, in_process: bool = False) -> dict:
        """``FleetRunner`` keyword arguments; ``in_process`` drops the
        pool so every span of a traced run lands in one process."""
        workers = 1 if in_process else self.workers
        return {"max_workers": workers if workers > 1 else None,
                "offline_gap": self.offline_gap,
                "robustness": self.robustness}


WORKLOADS = {w.name: w for w in (
    Workload("demo-1d",
             "v-sweep, 1-day horizon: fixed per-scenario costs dominate "
             "(spec build, records, store append); one shared system "
             "config",
             fleet="v-sweep", scenarios=5_120, days=1, workers=1),
    Workload("month-31d",
             "v-sweep, 31-day horizon: per-slot kernels (plan/P4, "
             "stream traces, P5, delay replay) dominate",
             fleet="v-sweep", scenarios=512, days=31, workers=1),
    Workload("gap-1d",
             "v-sweep with offline_gap: scalar build_traces, batched "
             "offline LPs and plan replay through per-scenario cursors",
             fleet="v-sweep", scenarios=1_024, days=1, workers=1,
             offline_gap=True),
    Workload("noisy-random-2w",
             "random fleet, robustness=0.2, 2 workers: observation "
             "layer, pool pickling, parent store appends, cache misses",
             fleet="random", scenarios=3_072, days=1, workers=2,
             robustness=0.2),
)}
