"""P4 — long-term-ahead planning (paper Algorithm 1, step 1).

At each coarse boundary ``t = kT`` the controller chooses the advance
block ``gbef(t)``, delivered at the flat rate ``x = gbef/T`` per fine
slot, subject to the feasibility floor

    gbef(t)/T + r(t) + b_avail(t) ≥ dds(t)

(the battery term being the energy actually dischargeable in a slot)
and the interconnect cap ``gbef/T ≤ Pgrid``.

Two variants, matching the P5 objective modes:

* **paper** — the printed P4 is linear in the single variable ``gbef``
  with coefficient ``V·plt − Q − Y``, so its solution is bang-bang:
  the feasibility floor when the coefficient is positive, the grid
  maximum when the queue pressure exceeds the weighted contract price.

* **derived** — certainty-equivalent planning against the observed
  window.  The paper's planner "observes the demand d(t) and renewable
  r(t) generated during time slot t"; the derived planner replays a
  candidate rate ``x`` against that hourly profile and prices the
  outcome the way the real-time stage will:

  - delay-sensitive deficits are topped up at that hour's observed
    real-time price;
  - the deferrable pool (current backlog + the window's observed
    arrivals) is served first from surplus slots (free) and then by
    real-time purchases at the *cheapest* observed hours, respecting
    the per-slot grid headroom — mirroring how P5 actually schedules
    deferred load into price dips;
  - leftover surplus charges the battery toward its Lyapunov target
    (credit ``−X̂·ηc``) and beyond that is wasted at the penalty rate;
  - serving current backlog earns the queue drift credit ``Q̂ + Ŷ``.

  The window cost is piecewise linear in ``x``; exact minimization
  sweeps the complete kink set — the per-slot net-demand breakpoints
  (:func:`_base_grids`) plus the deferred-pool / waterfall /
  battery-tier crossings located on that grid
  (:func:`_deferred_breakpoints`) — evaluating every scenario's whole
  candidate set in one tensor pass.  Because the whole window is
  priced, the plan buys more on cheap contract days and less on
  expensive ones — the cross-day arbitrage the two-timescale market
  structure exists for — with no future statistics beyond the
  just-observed window.

Data layout: the solver works on a :class:`P4Batch`, a struct of
arrays holding ``B`` subproblems of one window width ``W`` (every
field shaped ``(B,)`` or ``(B, W)``).  The batch engine builds it
straight from its state arrays
(:meth:`repro.core.smartdpss_vec.VecSmartDPSS.prepare_plan_batch`) and
:func:`solve_p4_many` returns ``(B,)`` delivery rates.  The scalar
controller's :class:`P4State` record enters through
:meth:`P4Batch.from_states`, and :func:`solve_p4` is the ``B = 1``
call of the same kernel, so both engines share every floating-point
operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.config.control import ObjectiveMode
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class P4State:
    """Inputs to the long-term planning subproblem.

    Prices are in the controller's normalized units.  Profiles are the
    previous coarse window's per-slot observations (the paper's
    current-statistics approximation applied to a whole window).
    """

    v: float
    price_lt: float
    q_hat: float
    y_hat: float
    x_hat: float
    t_slots: int
    demand_ds: float
    renewable: float
    battery_level: float
    p_grid: float
    discharge_avail: float
    charge_headroom_total: float
    eta_c: float
    s_dt_max: float
    waste_penalty: float
    profile_demand_ds: tuple[float, ...] = ()
    profile_demand_dt: tuple[float, ...] = ()
    profile_renewable: tuple[float, ...] = ()
    profile_price_rt: tuple[float, ...] = field(default=())
    #: When True the plan also sizes for the window's expected
    #: deferrable arrivals.  Off by default: pre-buying for deferred
    #: load creates surplus whose timing rarely matches the backlog
    #: (P5 serves at price dips first), so the flexible load is best
    #: left to the V-gated real-time stage — see the Abl-4 benchmark.
    plan_deferrable_arrivals: bool = False

    @property
    def net_profile(self) -> tuple[float, ...]:
        """Per-slot delay-sensitive net demand ``dds − r`` (observed)."""
        if self.profile_demand_ds and self.profile_renewable:
            return tuple(d - r for d, r in zip(self.profile_demand_ds,
                                               self.profile_renewable))
        return (self.demand_ds - self.renewable,)


@dataclass(frozen=True)
class P4Solution:
    """Chosen advance purchase and its per-slot delivery rate."""

    gbef: float
    rate: float
    floor_rate: float


@dataclass(frozen=True, eq=False)
class P4Batch:
    """``B`` P4 subproblems sharing one window width ``W``.

    Every field is already shaped ``(B, W)`` (the window profiles) or
    ``(B,)`` (one value per scenario), so one tensor pass evaluates
    all scenarios of a coarse boundary at once.  ``len(batch)`` is
    ``B``.  Build it with :meth:`assemble` (the array producer) or
    :meth:`from_states` (scalar records); both run the same array
    expressions, which is what keeps the engines bit-identical.
    """

    nets: np.ndarray            # (B, W) observed net demand dds − r
    prices: np.ndarray          # (B, W) normalized real-time prices
    t_slots: np.ndarray         # (B,) fine slots per coarse slot
    v: np.ndarray
    price_lt: np.ndarray
    p_grid: np.ndarray
    q_hat: np.ndarray
    y_hat: np.ndarray
    battery_value: np.ndarray   # −X̂·ηc (charge credit per MWh)
    headroom_total: np.ndarray  # total battery charge headroom
    waste_penalty: np.ndarray
    pools: np.ndarray           # deferred energy the plan sizes for
    floors: np.ndarray          # feasibility floor, capped at Pgrid

    def __len__(self) -> int:
        return self.nets.shape[0]

    @property
    def n(self) -> int:
        """Window width ``W``."""
        return self.nets.shape[1]

    @property
    def scale(self) -> np.ndarray:
        """Fine slots represented by one window slot, ``T / W``."""
        return self.t_slots / self.n

    @classmethod
    def assemble(cls, *, profile_demand_ds: np.ndarray,
                 profile_renewable: np.ndarray,
                 profile_demand_dt: np.ndarray,
                 prices: np.ndarray, t_slots: np.ndarray,
                 v: np.ndarray, price_lt: np.ndarray,
                 p_grid: np.ndarray, q_hat: np.ndarray,
                 y_hat: np.ndarray, x_hat: np.ndarray,
                 eta_c: np.ndarray, demand_ds: np.ndarray,
                 renewable: np.ndarray, discharge_avail: np.ndarray,
                 charge_headroom_total: np.ndarray,
                 waste_penalty: np.ndarray, s_dt_max: np.ndarray,
                 plan_deferrable_arrivals: np.ndarray) -> "P4Batch":
        """Derive the solver's fields from the raw planning arrays.

        ``profile_demand_dt`` may be narrower or wider than the other
        profiles (zero columns are exact no-ops); its rows are summed
        column by column in slot order — the IEEE-754 additions of a
        left-to-right ``sum`` — because NumPy's pairwise row sum
        rounds differently once a window reaches 8 slots.
        """
        scale = t_slots / profile_demand_ds.shape[1]
        arrivals = np.zeros(len(q_hat))
        if plan_deferrable_arrivals.any():
            for column in range(profile_demand_dt.shape[1]):
                arrivals += profile_demand_dt[:, column]
            arrivals = np.where(plan_deferrable_arrivals,
                                arrivals * scale, 0.0)
        floors = np.maximum(0.0, demand_ds - renewable - discharge_avail)
        return cls(
            nets=profile_demand_ds - profile_renewable,
            prices=prices,
            t_slots=t_slots,
            v=v,
            price_lt=price_lt,
            p_grid=p_grid,
            q_hat=q_hat,
            y_hat=y_hat,
            battery_value=-x_hat * eta_c,
            headroom_total=charge_headroom_total,
            waste_penalty=waste_penalty,
            pools=np.minimum(q_hat + arrivals, s_dt_max * t_slots),
            floors=np.minimum(floors, p_grid),
        )

    @classmethod
    def from_states(cls, states: Sequence[P4State]) -> "P4Batch":
        """Stack scalar records of one window width into a batch.

        A record without profiles plans against its window means
        (``W = 1``); a price profile of the wrong width falls back to
        the contract price.
        """
        n = _window_length(states[0])
        if any(_window_length(state) != n for state in states):
            raise ConfigurationError(
                "P4Batch.from_states needs one window width")
        count = len(states)
        demand_ds = np.empty((count, n))
        renewable = np.empty((count, n))
        prices = np.empty((count, n))
        demand_dt = np.zeros((count, max(len(state.profile_demand_dt)
                                         for state in states)))
        for index, state in enumerate(states):
            if state.profile_demand_ds and state.profile_renewable:
                demand_ds[index] = state.profile_demand_ds
                renewable[index] = state.profile_renewable
            else:
                demand_ds[index] = state.demand_ds
                renewable[index] = state.renewable
            if len(state.profile_price_rt) == n:
                prices[index] = state.profile_price_rt
            else:
                prices[index] = state.price_lt
            demand_dt[index, :len(state.profile_demand_dt)] = \
                state.profile_demand_dt

        def column(name: str) -> np.ndarray:
            return np.array([float(getattr(state, name))
                             for state in states])

        return cls.assemble(
            profile_demand_ds=demand_ds,
            profile_renewable=renewable,
            profile_demand_dt=demand_dt,
            prices=prices,
            t_slots=column("t_slots"),
            v=column("v"),
            price_lt=column("price_lt"),
            p_grid=column("p_grid"),
            q_hat=column("q_hat"),
            y_hat=column("y_hat"),
            x_hat=column("x_hat"),
            eta_c=column("eta_c"),
            demand_ds=column("demand_ds"),
            renewable=column("renewable"),
            discharge_avail=column("discharge_avail"),
            charge_headroom_total=column("charge_headroom_total"),
            waste_penalty=column("waste_penalty"),
            s_dt_max=column("s_dt_max"),
            plan_deferrable_arrivals=np.array(
                [state.plan_deferrable_arrivals for state in states],
                dtype=bool),
        )


def _window_length(state: P4State) -> int:
    """``len(state.net_profile)`` without materializing the tuple."""
    if state.profile_demand_ds and state.profile_renewable:
        return len(state.profile_demand_ds)
    return 1


#: Cache of step vectors ``[0, 1, …, count−1]`` keyed by length (P4
#: solves run once per coarse boundary; the windows reuse a handful of
#: lengths).  Bounded: a long mixed-``T`` sweep evicts the oldest
#: entry past the cap instead of growing without bound (see
#: :func:`repro.caches.clear_caches`).
_STEP_CACHE: dict[int, np.ndarray] = {}

#: Maximum retained step vectors.
_STEP_CACHE_MAX = 64


def _steps(count: int) -> np.ndarray:
    steps = _STEP_CACHE.get(count)
    if steps is None:
        while len(_STEP_CACHE) >= _STEP_CACHE_MAX:
            _STEP_CACHE.pop(next(iter(_STEP_CACHE)))
        steps = _STEP_CACHE[count] = np.arange(float(count))
    return steps


def _window_values(w: P4Batch, rates: np.ndarray) -> np.ndarray:
    """Certainty-equivalent window cost at every ``(scenario, rate)``.

    ``rates`` is ``(B, C)``; the cost components are the array form
    of the rules in the module docstring — per-slot deficits topped up
    at that hour's price, the deferred pool served from surplus then
    from the cheapest observed hours within the per-window headroom (a
    constant-step waterfall in closed form), the battery tier, then
    waste.  All reductions run over the last, contiguous axis (window
    slots), so each ``(scenario, rate)`` lane's result is independent
    of how many other lanes are evaluated alongside it — the scalar
    solver is literally the ``B == 1`` call of this kernel.

    Deliberately host-side NumPy: the pass runs at boundary rate (once
    per coarse slot, not per fine slot) on a few hundred small rows,
    so there is no device residency to preserve here.
    """
    gap = w.nets[:, None, :] - rates[:, :, None]
    deficits = np.maximum(gap, 0.0)
    surplus = (deficits - gap).sum(axis=-1) * w.scale[:, None]

    # Delay-sensitive deficits: real-time top-up at each hour's price.
    vprices = w.v[:, None] * w.prices
    cost = (w.v[:, None] * w.price_lt[:, None] * rates
            * w.t_slots[:, None]
            + (vprices[:, None, :] * deficits).sum(axis=-1)
            * w.scale[:, None])

    # Deferred service: surplus slots first (free), then the cheapest
    # observed hours at their real-time prices, respecting headroom.
    # Buying min(remaining, headroom) per price step drains the pool
    # by one headroom per step until it runs dry: step k buys
    # min(headroom, max(0, remaining − k·headroom)).
    pools = w.pools[:, None]
    served_free = np.minimum(surplus, pools)
    leftover = surplus - served_free
    remaining = pools - served_free
    headroom = np.maximum(0.0, w.p_grid[:, None] - rates) \
        * w.scale[:, None]
    bought = np.minimum(
        headroom[:, :, None],
        np.maximum(0.0, remaining[:, :, None]
                   - _steps(w.n)[None, None, :] * headroom[:, :, None]))
    waterfall = (np.sort(vprices, axis=1)[:, None, :]
                 * bought).sum(axis=-1)
    cost = np.where(w.pools[:, None] > 0, cost + waterfall, cost)

    # Queue drift credit for clearing the current backlog.
    drift = (w.q_hat + w.y_hat) * np.minimum(w.pools, w.q_hat)
    cost = cost - drift[:, None]

    # Battery tier, then waste.
    tier = ((w.battery_value > 0)
            & (w.headroom_total > 0))[:, None]
    absorbed = np.minimum(leftover, w.headroom_total[:, None])
    cost = np.where(tier,
                    cost - w.battery_value[:, None] * absorbed, cost)
    leftover = np.where(tier, leftover - absorbed, leftover)
    return cost + (w.v * w.waste_penalty)[:, None] * leftover


def _base_grids(w: P4Batch) -> np.ndarray:
    """Sorted, deduplicated base candidate grids, one row per scenario.

    Each row is ``{floor, Pgrid} ∪ (net profile ∩ [floor, Pgrid])``
    exactly as :func:`repro.solvers.piecewise.piecewise_candidates_1d`
    builds it; rows are padded to a common width with duplicates of
    ``Pgrid``, which are harmless — the selection scan never lets an
    equal-valued later candidate win.
    """
    raw = np.concatenate((w.floors[:, None], w.p_grid[:, None], w.nets),
                         axis=1)
    inside = (w.floors[:, None] <= raw) & (raw <= w.p_grid[:, None])
    work = np.sort(np.where(inside, raw, np.inf), axis=1)
    deduped = np.concatenate(
        (work[:, :1],
         np.where(work[:, 1:] == work[:, :-1], np.inf, work[:, 1:])),
        axis=1)
    grid = np.sort(deduped, axis=1)
    return np.where(np.isinf(grid), w.p_grid[:, None], grid)


def _deferred_breakpoints(w: P4Batch, grids: np.ndarray) -> np.ndarray:
    """Candidate rates where the deferred-service cost changes slope.

    The per-slot deficit/surplus terms kink only at the net-profile
    values (already on the base grids), but the deferred-service
    waterfall and the battery tier kink where

    * the window surplus crosses the deferred pool (``remaining``
      hits 0; the waste/battery leftover turns on),
    * ``remaining = k · headroom`` for ``k = 1..n`` (the waterfall
      stops needing its k-th cheapest hour), and
    * the leftover surplus crosses the battery's charge headroom,

    all of which move with the candidate rate.  Since ``remaining =
    pool − min(surplus, pool)``, every waterfall condition rewrites to
    ``surplus + k·headroom = pool`` — and surplus and headroom are
    both linear between base candidates, so one sign-flip
    interpolation pass over the grids locates every crossing exactly.
    Returns a ``(B, X)`` matrix padded with ``Pgrid`` duplicates
    (or an empty one when no scenario has a crossing).
    """
    gap = w.nets[:, None, :] - grids[:, :, None]
    deficits = np.maximum(gap, 0.0)
    surplus = (deficits - gap).sum(axis=-1) * w.scale[:, None]
    headroom = np.maximum(0.0, w.p_grid[:, None] - grids) \
        * w.scale[:, None]

    waterfall = (surplus[:, None, :]
                 + _steps(w.n + 1)[None, :, None] * headroom[:, None, :]
                 - w.pools[:, None, None])
    battery = (surplus
               - (w.pools + w.headroom_total)[:, None])[:, None, :]
    f = np.concatenate((waterfall, battery), axis=1)

    tier = (w.battery_value > 0) & (w.headroom_total > 0)
    active = np.concatenate(
        (np.repeat((w.pools > 0)[:, None], w.n + 1, axis=1),
         tier[:, None]), axis=1)
    positive = f > 0.0
    flips = ((positive[:, :, :-1] != positive[:, :, 1:])
             & active[:, :, None])
    scen, row, seg = np.nonzero(flips)
    if scen.size == 0:
        return np.empty((len(w), 0))

    f0, f1 = f[scen, row, seg], f[scen, row, seg + 1]
    r0, r1 = grids[scen, seg], grids[scen, seg + 1]
    crossings = r0 - f0 * (r1 - r0) / (f1 - f0)

    counts = np.bincount(scen, minlength=len(w))
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    padded = np.repeat(w.p_grid[:, None], int(counts.max()), axis=1)
    padded[scen, np.arange(scen.size) - offsets[scen]] = crossings
    return padded


def _scan(candidates: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-scenario selection with the reference tie-breaking rule.

    The reference scan walks the candidates in order and accepts one
    only when it improves the incumbent by more than 1e-12, so earlier
    candidates keep near-ties.  Sweeping the columns with that rule,
    vectorized over the rows, reproduces it exactly for every row.
    """
    best = np.full(values.shape[0], np.inf)
    rows = np.zeros(values.shape[0], dtype=np.intp)
    for column in range(values.shape[1]):
        value = values[:, column]
        better = value < best - 1e-12
        np.copyto(best, value, where=better)
        np.copyto(rows, column, where=better)
    return candidates[np.arange(values.shape[0]), rows]


def _window_cost(state: P4State, rate: float) -> float:
    """Window cost of a single rate (tests and candidate probing)."""
    return float(_window_values(P4Batch.from_states([state]),
                                np.array([[float(rate)]]))[0, 0])


def solve_p4_many(batch: P4Batch,
                  mode: ObjectiveMode = ObjectiveMode.DERIVED,
                  ) -> np.ndarray:
    """Solve P4 for every row of ``batch``; returns ``(B,)`` rates.

    The advance purchase of row ``i`` is ``rates[i] * t_slots[i]``.
    Paper mode is the bang-bang rule; derived mode is the exact 1-D
    piecewise-linear minimization over the delivery rate, one tensor
    pass for the whole batch.
    """
    if mode is ObjectiveMode.PAPER:
        coefficient = batch.v * batch.price_lt - batch.q_hat - batch.y_hat
        return np.where(coefficient < 0, batch.p_grid, batch.floors)
    grids = _base_grids(batch)
    extra = _deferred_breakpoints(batch, grids)
    if extra.shape[1]:
        candidates = np.sort(np.concatenate((grids, extra), axis=1),
                             axis=1)
    else:
        candidates = grids
    return _scan(candidates, _window_values(batch, candidates))


def solve_p4(state: P4State,
             mode: ObjectiveMode = ObjectiveMode.DERIVED) -> P4Solution:
    """Solve the long-term-ahead purchasing subproblem.

    The single-scenario case of :func:`solve_p4_many`, so scalar and
    batch engines share every operation bit-for-bit.
    """
    batch = P4Batch.from_states([state])
    rate = float(solve_p4_many(batch, mode)[0])
    return P4Solution(gbef=rate * state.t_slots, rate=rate,
                      floor_rate=float(batch.floors[0]))
