"""P4 long-term-ahead planning."""

import numpy as np
import pytest

from repro.config.control import ObjectiveMode
from repro.core.p4 import P4State, solve_p4


def make_p4_state(**overrides) -> P4State:
    profile_ds = tuple(1.0 + 0.5 * np.sin(2 * np.pi * h / 24)
                       for h in range(24))
    profile_r = tuple(0.3 if 8 <= h <= 16 else 0.0 for h in range(24))
    profile_p = tuple(3.0 + 2.0 * np.sin(2 * np.pi * (h - 10) / 24)
                      for h in range(24))
    defaults = dict(
        v=1.0, price_lt=4.0, q_hat=1.0, y_hat=0.5, x_hat=-4.0,
        t_slots=24, demand_ds=1.0, renewable=0.15, battery_level=0.3,
        p_grid=2.0, discharge_avail=0.01, charge_headroom_total=0.25,
        eta_c=0.8, s_dt_max=2.0, waste_penalty=0.1,
        profile_demand_ds=profile_ds,
        profile_demand_dt=tuple(0.5 for _ in range(24)),
        profile_renewable=profile_r,
        profile_price_rt=profile_p,
    )
    defaults.update(overrides)
    return P4State(**defaults)


class TestPaperMode:
    def test_bang_bang_low_pressure(self):
        state = make_p4_state(q_hat=0.5, y_hat=0.2)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        # V·plt = 4 > Q+Y = 0.7: buy only the feasibility floor.
        assert solution.rate == pytest.approx(solution.floor_rate)

    def test_bang_bang_high_pressure(self):
        state = make_p4_state(q_hat=3.0, y_hat=2.0)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        # Q+Y = 5 > V·plt = 4: buy the grid maximum.
        assert solution.rate == pytest.approx(2.0)
        assert solution.gbef == pytest.approx(48.0)

    def test_floor_covers_ds_net_of_battery(self):
        state = make_p4_state(demand_ds=1.0, renewable=0.2,
                              discharge_avail=0.1, q_hat=0.0,
                              y_hat=0.0)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        assert solution.floor_rate == pytest.approx(0.7)

    def test_floor_clamped_to_pgrid(self):
        state = make_p4_state(demand_ds=5.0, renewable=0.0,
                              discharge_avail=0.0)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        assert solution.floor_rate == pytest.approx(2.0)


class TestDerivedMode:
    def test_rate_within_bounds(self):
        solution = solve_p4(make_p4_state(), ObjectiveMode.DERIVED)
        assert 0.0 <= solution.rate <= 2.0
        assert solution.gbef == pytest.approx(solution.rate * 24)

    def test_rate_at_least_floor(self):
        state = make_p4_state(demand_ds=1.8, renewable=0.0,
                              discharge_avail=0.0)
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        assert solution.rate >= solution.floor_rate - 1e-12

    def test_cheap_contract_buys_more(self):
        cheap = solve_p4(make_p4_state(price_lt=2.0),
                         ObjectiveMode.DERIVED)
        dear = solve_p4(make_p4_state(price_lt=6.0),
                        ObjectiveMode.DERIVED)
        assert cheap.rate >= dear.rate

    def test_rich_renewable_buys_less(self):
        poor = make_p4_state()
        rich = make_p4_state(
            profile_renewable=tuple(0.8 for _ in range(24)))
        assert (solve_p4(rich, ObjectiveMode.DERIVED).rate
                <= solve_p4(poor, ObjectiveMode.DERIVED).rate)

    def test_covers_typical_profile_demand(self):
        # With RT prices well above the contract, the plan should cover
        # most of the observed net-demand profile.
        state = make_p4_state(
            price_lt=3.0,
            profile_price_rt=tuple(8.0 for _ in range(24)))
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        nets = state.net_profile
        assert solution.rate >= np.median(nets) - 1e-9

    def test_arrivals_planning_buys_no_less(self):
        base = make_p4_state()
        planning = make_p4_state(plan_deferrable_arrivals=True)
        assert (solve_p4(planning, ObjectiveMode.DERIVED).rate
                >= solve_p4(base, ObjectiveMode.DERIVED).rate - 1e-12)

    def test_single_slot_profile_fallback(self):
        state = make_p4_state(profile_demand_ds=(1.0,),
                              profile_demand_dt=(0.5,),
                              profile_renewable=(0.2,),
                              profile_price_rt=(5.0,))
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        assert 0.0 <= solution.rate <= 2.0

    def test_empty_profiles_use_scalars(self):
        state = make_p4_state(profile_demand_ds=(),
                              profile_demand_dt=(),
                              profile_renewable=(),
                              profile_price_rt=())
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        assert solution.rate >= 0.0

    def test_net_profile_property(self):
        state = make_p4_state(
            profile_demand_ds=(1.0, 2.0),
            profile_renewable=(0.25, 0.5))
        assert state.net_profile == (0.75, 1.5)

    def test_optimality_against_rate_grid(self):
        # The candidate sweep must beat a dense rate grid.
        from repro.core.p4 import _window_cost
        state = make_p4_state()
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        best_dense = min(
            _window_cost(state, r)
            for r in np.linspace(solution.floor_rate, 2.0, 4001))
        assert _window_cost(state, solution.rate) <= best_dense + 1e-9


def _reference_scan(values) -> int:
    """The scalar selection cascade: improve by more than 1e-12."""
    best_value = float("inf")
    best_row = 0
    for row, value in enumerate(values):
        if value < best_value - 1e-12:
            best_value = value
            best_row = row
    return best_row


class TestScan:
    def test_near_ties_follow_reference_cascade(self):
        # Rows hold entries inside (min, min + 1e-12], where the first
        # minimizer (argmin) and the reference cascade disagree.
        from repro.core.p4 import _scan
        base = 5.0
        values = np.array([
            [base + 8e-13, base, base + 2e-12],
            [base + 2e-12, base + 1.5e-12, base],
            [base, base - 5e-13, base - 1.1e-12],
            [base + 5e-13, base + 1e-12, base],
            [1.0, 1.0, 1.0],
            [np.inf, 3.0, 3.0 - 5e-13],
        ])
        candidates = np.arange(values.size, dtype=float).reshape(
            values.shape)
        expected = [candidates[row, _reference_scan(values[row].tolist())]
                    for row in range(len(values))]
        assert _scan(candidates, values).tolist() == expected
        assert any(_reference_scan(row) != int(np.argmin(row))
                   for row in values.tolist())


class TestP4Batch:
    def test_len_is_row_count(self):
        from repro.core.p4 import P4Batch
        batch = P4Batch.from_states([make_p4_state(), make_p4_state()])
        assert len(batch) == 2
        assert batch.nets.shape == (2, 24)

    def test_from_states_needs_one_window_width(self):
        from repro.core.p4 import P4Batch
        from repro.exceptions import ConfigurationError
        short = make_p4_state(profile_demand_ds=(1.0,),
                              profile_demand_dt=(0.5,),
                              profile_renewable=(0.2,),
                              profile_price_rt=(5.0,))
        with pytest.raises(ConfigurationError):
            P4Batch.from_states([make_p4_state(), short])

    def test_deferrable_pool_sums_window_in_slot_order(self):
        # On this 24-slot window NumPy's pairwise row sum rounds
        # differently from a left-to-right sum; the pool must use the
        # latter, the scalar reference's order.
        from repro.core.p4 import P4Batch
        arrivals = tuple(0.5 + 0.3 * np.sin(h) for h in range(24))
        total = 0.0
        for value in arrivals:
            total += value
        assert np.array(arrivals).sum() != total
        state = make_p4_state(plan_deferrable_arrivals=True,
                              profile_demand_dt=arrivals, q_hat=1.0,
                              s_dt_max=10.0)
        assert P4Batch.from_states([state]).pools[0] == 1.0 + total

    def test_many_matches_single_solves(self):
        from repro.core.p4 import P4Batch, solve_p4_many
        states = [make_p4_state(),
                  make_p4_state(price_lt=2.0, q_hat=3.0),
                  make_p4_state(plan_deferrable_arrivals=True)]
        for mode in ObjectiveMode:
            rates = solve_p4_many(P4Batch.from_states(states), mode)
            assert rates.tolist() == [solve_p4(state, mode).rate
                                      for state in states]


def test_step_cache_bounded():
    from repro.core import p4

    p4._STEP_CACHE.clear()
    for n in range(1, 4 * p4._STEP_CACHE_MAX):
        p4._steps(n)
    assert len(p4._STEP_CACHE) <= p4._STEP_CACHE_MAX
    assert np.array_equal(p4._steps(3), np.arange(3.0))
