"""Oracle and ``paper``-trace fleets on the streamed engine.

Shards whose controllers need whole horizons (``lookahead``,
``offline``) or whose trace recipe has no chunk kernel (``paper``)
materialize their traces once and stream over row views of that block,
like every other shard.  These tests pin their records to the scalar
reference: each scenario through :class:`~repro.sim.engine.Simulator`
on its own traces (observing ``observation.observed_traces(traces)``
when the spec carries an observation model), folded by
:meth:`~repro.fleet.engine.ScenarioMetrics.from_result` — with and
without the paired robustness column, on multi-scenario and
one-scenario shards.
"""

from __future__ import annotations

import pytest

from repro.fleet.engine import ScenarioMetrics
from repro.fleet.observe import observation_from_mapping
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec
from repro.sim.engine import Simulator

pytestmark = [pytest.mark.equivalence, pytest.mark.fleet]

#: (controller, trace) per fleet kind.
FLEETS = {
    "lookahead": ({"kind": "lookahead"}, {"kind": "stream"}),
    "offline": ({"kind": "offline"}, {"kind": "stream"}),
    "paper": ({"kind": "smartdpss", "v": 0.5}, {"kind": "paper"}),
}

ROBUSTNESS = 0.2


def _fleet(kind: str, observation) -> list[ScenarioSpec]:
    controller, trace = FLEETS[kind]
    return [ScenarioSpec(system={"preset": "paper", "days": 1,
                                 "fine_slots_per_coarse": 6},
                         controller=controller, trace=trace,
                         observation=observation, seed=seed,
                         name=f"{kind}/seed={seed}")
            for seed in (3, 4, 5)]


def _oracle(spec: ScenarioSpec, observation=None) -> ScenarioMetrics:
    system = spec.build_system()
    traces = spec.build_traces(system)
    observed = (observation.observed_traces(traces)
                if observation is not None else None)
    result = Simulator(system, spec.build_controller(traces), traces,
                       observed=observed).run()
    return ScenarioMetrics.from_result(result, seed=spec.seed)


@pytest.mark.parametrize("robustness", [None, ROBUSTNESS])
@pytest.mark.parametrize("observation",
                         [None, {"kind": "uniform", "rel_error": 0.1}],
                         ids=["truth", "noisy"])
@pytest.mark.parametrize("kind", sorted(FLEETS))
def test_records_equal_scalar_oracle(kind, observation, robustness):
    specs = _fleet(kind, observation)
    # batch_size=2 over three scenarios: one 2-scenario shard and one
    # 1-scenario shard.
    runner = FleetRunner(specs, batch_size=2, robustness=robustness)
    assert [len(p["indices"]) for p in runner.shards()] == [2, 1]
    assert not any(p["streamable"] for p in runner.shards())
    records = runner.run()
    for spec, record in zip(specs, records):
        assert record["engine"] == "stream"
        want = _oracle(spec, spec.build_observation()).as_dict()
        got = dict(record["metrics"])
        for key in ("noisy_cost", "robustness_gap",
                    "observation_rel_error"):
            got.pop(key, None)
        assert got == want, spec.name
        if robustness is None:
            assert "noisy_cost" not in record["metrics"]
            continue
        system = spec.build_system()
        noisy = _oracle(spec, observation_from_mapping(
            {"kind": "uniform", "rel_error": robustness},
            default_seed=spec.seed, price_cap=system.p_max))
        assert record["metrics"]["noisy_cost"] == noisy.time_avg_cost
