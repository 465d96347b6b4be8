"""P5 real-time balancing: exactness and policy behaviour."""

import numpy as np
import pytest

from repro.config.control import ObjectiveMode
from repro.core.modes import SlotState, objective_for, resolve_physics
from repro.core.p5 import solve_p5
from tests.test_core_modes import make_state


def brute_force_best(state: SlotState, mode: ObjectiveMode,
                     resolution: int = 201) -> float:
    """Dense-grid lower envelope for cross-checking the enumeration."""
    objective = objective_for(mode)
    best = float("inf")
    for grt in np.linspace(0.0, state.grt_cap, resolution):
        gamma_hi = 1.0
        if state.backlog > 0:
            gamma_hi = min(1.0, state.s_dt_max / state.backlog)
        for gamma in np.linspace(0.0, gamma_hi, resolution):
            physics = resolve_physics(state, float(grt), float(gamma))
            value = objective(state, float(grt), float(gamma), physics)
            if value < best:
                best = value
    return best


class TestExactness:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", [ObjectiveMode.DERIVED,
                                      ObjectiveMode.PAPER])
    def test_enumeration_beats_dense_grid(self, seed, mode):
        rng = np.random.default_rng(seed)
        state = make_state(
            q_hat=float(rng.uniform(0, 10)),
            y_hat=float(rng.uniform(0, 10)),
            x_hat=float(rng.uniform(-6, 2)),
            price_rt=float(rng.uniform(1, 20)),
            backlog=float(rng.uniform(0, 6)),
            gbef_rate=float(rng.uniform(0, 2)),
            renewable=float(rng.uniform(0, 1)),
            demand_ds=float(rng.uniform(0.2, 1.8)),
            charge_cap=float(rng.uniform(0, 0.5)),
            discharge_cap=float(rng.uniform(0, 0.5)),
            grt_cap=float(rng.uniform(0.2, 2.0)),
        )
        solution = solve_p5(state, mode)
        if not solution.feasible:
            return
        dense = brute_force_best(state, mode)
        assert solution.objective <= dense + 1e-9


class TestPolicyBehaviour:
    def test_cheap_price_high_backlog_serves(self):
        state = make_state(q_hat=8.0, y_hat=4.0, price_rt=2.0,
                           backlog=2.0)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        # Serves as much as supply + discharge can carry:
        # (gbef 1.0 + grt_cap 1.0 + r 0.2 + bdc 0.3) − dds 1.0 = 1.5.
        assert solution.physics.sdt == pytest.approx(1.5)
        assert solution.grt == pytest.approx(state.grt_cap)

    def test_expensive_price_low_weights_defers(self):
        state = make_state(q_hat=0.2, y_hat=0.1, price_rt=18.0,
                           backlog=2.0, gbef_rate=0.5, renewable=0.0,
                           demand_ds=0.5)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        # Only the flat block covers dds; no purchase for the queue.
        assert solution.physics.sdt <= 0.05
        assert solution.grt == pytest.approx(0.0, abs=1e-9)

    def test_emergency_purchase_covers_dds(self):
        state = make_state(q_hat=0.0, y_hat=0.0, backlog=0.0,
                           gbef_rate=0.0, renewable=0.0,
                           demand_ds=1.5, discharge_cap=0.2,
                           grt_cap=2.0, price_rt=19.0)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        physics = solution.physics
        assert physics.unserved == pytest.approx(0.0, abs=1e-9)
        assert solution.grt + physics.discharge >= 1.5 - 1e-9

    def test_infeasible_flagged(self):
        state = make_state(demand_ds=5.0, gbef_rate=0.0,
                           renewable=0.0, discharge_cap=0.1,
                           grt_cap=0.5)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        assert not solution.feasible
        assert solution.grt == pytest.approx(0.5)

    def test_battery_charges_when_price_below_target(self):
        # Very negative X: the Lyapunov weight wants energy stored.
        state = make_state(x_hat=-8.0, price_rt=2.0, q_hat=0.0,
                           y_hat=0.0, backlog=0.0, demand_ds=0.5,
                           gbef_rate=0.5, grt_cap=1.5)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        assert solution.physics.charge > 0.0
        assert solution.grt > 0.0

    def test_battery_discharges_at_price_spikes(self):
        # X near zero (battery above target) and a price spike.
        state = make_state(x_hat=-0.1, price_rt=19.0, q_hat=0.0,
                           y_hat=0.0, backlog=0.0, demand_ds=1.2,
                           gbef_rate=0.5, renewable=0.0,
                           discharge_cap=0.4)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        assert solution.physics.discharge > 0.0
        assert solution.grt < 0.7

    def test_no_backlog_no_service(self):
        state = make_state(backlog=0.0)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        assert solution.physics.sdt == 0.0

    def test_gamma_within_bounds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            state = make_state(backlog=float(rng.uniform(0, 10)))
            solution = solve_p5(state, ObjectiveMode.DERIVED)
            assert 0.0 <= solution.gamma <= 1.0
            assert solution.grt >= 0.0
            assert solution.grt <= state.grt_cap + 1e-12

    def test_sdt_never_exceeds_cap(self):
        state = make_state(backlog=50.0, q_hat=50.0, y_hat=10.0,
                           price_rt=1.0, grt_cap=2.0, s_dt_max=2.0)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        assert solution.physics.sdt <= 2.0 + 1e-12


def test_p5_workspace_rejects_wrong_batch():
    from repro.core.p5_vec import BatchSlotState, P5Workspace, solve_p5_batch
    from repro.exceptions import ConfigurationError

    n = 3
    fields = {name: np.zeros(n) for name in (
        "q_hat", "y_hat", "x_hat", "v", "price_rt", "battery_op_cost",
        "waste_penalty", "backlog", "gbef_rate", "renewable",
        "demand_ds", "charge_cap", "discharge_cap", "eta_c", "eta_d",
        "s_dt_max", "grt_cap", "battery_margin")}
    state = BatchSlotState(**fields)
    with pytest.raises(ConfigurationError, match="workspace sized"):
        solve_p5_batch(state, ObjectiveMode.DERIVED,
                       work=P5Workspace(batch=4, n_candidates=17))
