"""Cross-engine equivalence: the batch engine *is* the scalar engine.

The vectorized :class:`~repro.sim.batch.BatchSimulator` is a physics
re-implementation of :class:`~repro.sim.engine.Simulator`, so this
harness is the PR's safeguard: hypothesis generates random systems,
controller configurations and traces — including grid-outage capacity
masks, noisy observations, cycle budgets and both P5 objective modes —
and every generated scenario is run through both engines and compared
*slot for slot* (cost components, battery SOC, backlog, purchases,
service, waste) plus the delay ledger and market/cycle accounting.

Tolerance is the acceptance bar of 1e-9, but the engines are built to
be bit-identical (same IEEE-754 operations in the same order), and the
batch-of-1 property test asserts exact equality separately.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config.control import SmartDPSSConfig
from repro.config.system import SystemConfig
from repro.core.smartdpss import SmartDPSS
from repro.sim.batch import RunSpec, simulate_many
from repro.sim.engine import Simulator
from repro.sim.recorder import SERIES_NAMES
from repro.traces.base import TraceSet

pytestmark = pytest.mark.equivalence

#: Acceptance tolerance for per-slot state and final metrics.
TOL = 1e-9


def _floats(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


def _series(draw, n: int, lo: float, hi: float) -> np.ndarray:
    return np.array(draw(st.lists(_floats(lo, hi),
                                  min_size=n, max_size=n)))


@st.composite
def systems(draw) -> SystemConfig:
    """Random but physically valid small systems."""
    b_max = draw(_floats(0.0, 1.5))
    return SystemConfig(
        fine_slots_per_coarse=draw(st.integers(1, 12)),
        num_coarse_slots=draw(st.integers(2, 4)),
        p_max=200.0,
        p_grid=draw(_floats(0.2, 3.0)),
        s_max=draw(_floats(1.0, 8.0)),
        b_max=b_max,
        b_min=b_max * draw(_floats(0.0, 0.5)),
        b_charge_max=draw(_floats(0.0, 1.0)),
        b_discharge_max=draw(_floats(0.0, 1.0)),
        eta_c=draw(_floats(0.5, 1.0)),
        eta_d=draw(_floats(1.0, 1.5)),
        battery_op_cost=draw(_floats(0.0, 0.3)),
        cycle_budget=draw(st.one_of(st.none(), st.integers(0, 6))),
        d_dt_max=draw(_floats(0.1, 1.5)),
        s_dt_max=draw(_floats(0.2, 2.0)),
        waste_penalty=draw(_floats(0.0, 2.0)),
    )


@st.composite
def controller_configs(draw) -> SmartDPSSConfig:
    return SmartDPSSConfig(
        v=draw(_floats(0.05, 5.0)),
        epsilon=draw(_floats(0.1, 2.0)),
        objective_mode=draw(st.sampled_from(["derived", "paper"])),
        use_long_term_market=draw(st.booleans()),
        use_battery=draw(st.booleans()),
        battery_shift_mode=draw(
            st.sampled_from(["operational", "paper"])),
        battery_price_margin=draw(_floats(0.0, 5.0)),
        plan_deferrable_arrivals=draw(st.booleans()),
    )


@st.composite
def scenario_packs(draw):
    """2-4 scenarios sharing one two-timescale shape.

    Scenarios vary in traces, controller configuration, observation
    noise and per-slot grid capacity (zero entries model outages), so
    one pack exercises batching, grouping by objective mode, the
    emergency/unserved path and the cycle-budget cutoff together.
    """
    base = draw(systems())
    n = base.horizon_slots
    runs = []
    for _ in range(draw(st.integers(2, 4))):
        traces = TraceSet(
            demand_ds=_series(draw, n, 0.0, 2.5),
            demand_dt=_series(draw, n, 0.0, 1.5),
            renewable=_series(draw, n, 0.0, 2.0),
            price_rt=_series(draw, n, 0.0, 200.0),
            price_lt_hourly=_series(draw, n, 0.0, 200.0),
        )
        observed = None
        if draw(st.booleans()):
            observed = TraceSet(
                demand_ds=_series(draw, n, 0.0, 2.5),
                demand_dt=_series(draw, n, 0.0, 1.5),
                renewable=_series(draw, n, 0.0, 2.0),
                price_rt=_series(draw, n, 0.0, 200.0),
                price_lt_hourly=_series(draw, n, 0.0, 200.0),
            )
        capacity = None
        if draw(st.booleans()):
            up = _series(draw, n, 0.0, 1.0) < 0.8
            capacity = np.where(up, base.p_grid, 0.0)
        runs.append(RunSpec(
            system=base,
            controller=SmartDPSS(draw(controller_configs())),
            traces=traces,
            observed=observed,
            grid_capacity=capacity,
        ))
    return runs


def assert_equivalent(scalar, batch, context: str = "") -> None:
    """Per-slot state and final metrics agree within 1e-9."""
    for name in SERIES_NAMES:
        a, b = scalar.series[name], batch.series[name]
        assert a.shape == b.shape, f"{context}{name}: shape"
        worst = float(np.max(np.abs(a - b))) if a.size else 0.0
        assert worst <= TOL, (
            f"{context}series {name!r} diverges by {worst} at slot "
            f"{int(np.argmax(np.abs(a - b)))}")
    sd, bd = scalar.delay_stats, batch.delay_stats
    assert abs(sd.served_energy - bd.served_energy) <= TOL, context
    assert abs(sd.weighted_delay - bd.weighted_delay) <= TOL, context
    assert sd.max_delay == bd.max_delay, context
    assert scalar.battery_operations == batch.battery_operations, context
    assert abs(scalar.lt_energy - batch.lt_energy) <= TOL, context
    assert abs(scalar.rt_energy - batch.rt_energy) <= TOL, context
    assert scalar.controller_name == batch.controller_name, context


def run_both(runs):
    """One scalar reference run per spec, plus the batched fleet."""
    scalar = [
        Simulator(run.system, SmartDPSS(run.controller.config),
                  run.traces, observed=run.observed,
                  grid_capacity=run.grid_capacity).run()
        for run in runs
    ]
    batch = simulate_many(runs, executor="batch")
    return scalar, batch


@settings(max_examples=60, deadline=None)
@given(scenario_packs())
def test_batch_matches_scalar_slot_for_slot(runs):
    """≥50 hypothesis scenarios: batch == scalar within 1e-9."""
    scalar, batch = run_both(runs)
    for index, (a, b) in enumerate(zip(scalar, batch)):
        assert_equivalent(a, b, context=f"scenario {index}: ")
