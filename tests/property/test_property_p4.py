"""Property-based tests: P4 planning invariants."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.config.control import ObjectiveMode
from repro.core.p4 import P4State, _scan, _window_cost, solve_p4

profiles = st.lists(st.floats(min_value=0.0, max_value=2.0),
                    min_size=4, max_size=24)
price_profiles = st.lists(st.floats(min_value=0.5, max_value=20.0),
                          min_size=4, max_size=24)


@st.composite
def p4_states(draw):
    ds = draw(profiles)
    n = len(ds)
    renewable = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=n, max_size=n))
    prices = draw(st.lists(
        st.floats(min_value=0.5, max_value=20.0),
        min_size=n, max_size=n))
    return P4State(
        v=draw(st.floats(min_value=0.05, max_value=5.0)),
        price_lt=draw(st.floats(min_value=0.5, max_value=20.0)),
        q_hat=draw(st.floats(min_value=0.0, max_value=20.0)),
        y_hat=draw(st.floats(min_value=0.0, max_value=20.0)),
        x_hat=draw(st.floats(min_value=-10.0, max_value=2.0)),
        t_slots=24,
        demand_ds=float(np.mean(ds)),
        renewable=float(np.mean(renewable)),
        battery_level=draw(st.floats(min_value=0.0, max_value=1.0)),
        p_grid=2.0,
        discharge_avail=draw(st.floats(min_value=0.0,
                                       max_value=0.05)),
        charge_headroom_total=draw(st.floats(min_value=0.0,
                                             max_value=1.0)),
        eta_c=0.8,
        s_dt_max=2.0,
        waste_penalty=draw(st.floats(min_value=0.0, max_value=0.3)),
        profile_demand_ds=tuple(ds),
        profile_demand_dt=tuple(
            draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=n, max_size=n))),
        profile_renewable=tuple(renewable),
        profile_price_rt=tuple(prices),
        plan_deferrable_arrivals=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(state=p4_states(),
       mode=st.sampled_from([ObjectiveMode.DERIVED,
                             ObjectiveMode.PAPER]))
def test_rate_within_physical_bounds(state, mode):
    solution = solve_p4(state, mode)
    assert 0.0 <= solution.rate <= state.p_grid + 1e-12
    assert solution.gbef == solution.rate * state.t_slots
    assert solution.rate >= min(solution.floor_rate,
                                state.p_grid) - 1e-12


@settings(max_examples=150, deadline=None)
@given(state=p4_states())
def test_floor_is_feasibility_floor(state):
    solution = solve_p4(state, ObjectiveMode.DERIVED)
    expected = max(0.0, state.demand_ds - state.renewable
                   - state.discharge_avail)
    assert solution.floor_rate == min(expected, state.p_grid)


@settings(max_examples=100, deadline=None)
@given(state=p4_states(),
       probes=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=4, max_size=10))
def test_no_random_rate_beats_solution(state, probes):
    solution = solve_p4(state, ObjectiveMode.DERIVED)
    best = _window_cost(state, solution.rate)
    lo = solution.floor_rate
    for u in probes:
        rate = lo + u * (state.p_grid - lo)
        assert best <= _window_cost(state, rate) + 1e-7


@settings(max_examples=100, deadline=None)
@given(state=p4_states())
def test_paper_mode_is_bang_bang(state):
    solution = solve_p4(state, ObjectiveMode.PAPER)
    assert (solution.rate == solution.floor_rate
            or solution.rate == state.p_grid)


@settings(max_examples=100, deadline=None)
@given(state=p4_states())
def test_deterministic(state):
    a = solve_p4(state, ObjectiveMode.DERIVED)
    b = solve_p4(state, ObjectiveMode.DERIVED)
    assert a.rate == b.rate


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.lists(st.integers(min_value=-6, max_value=6),
                               min_size=6, max_size=6),
                      min_size=1, max_size=8))
def test_scan_matches_reference_cascade(steps):
    # Entries a few 1e-13 apart: every row is full of near-ties that
    # the 1e-12 acceptance margin must resolve like the scalar scan.
    values = 7.0 + np.array(steps, dtype=float) * 3e-13
    candidates = np.arange(values.size, dtype=float).reshape(values.shape)
    chosen = _scan(candidates, values)
    for row, value_row in enumerate(values.tolist()):
        best_value, best_column = float("inf"), 0
        for column, value in enumerate(value_row):
            if value < best_value - 1e-12:
                best_value, best_column = value, column
        assert chosen[row] == candidates[row, best_column]
