"""Vectorized SmartDPSS — Algorithm 1 over a batch of scenarios.

:class:`VecSmartDPSS` drives ``B`` independent SmartDPSS controllers in
lockstep for the batch simulation engine
(:mod:`repro.sim.batch`).  Both halves of the algorithm's two-timescale
structure now run in array form:

* **Real-time balancing (every fine slot — the hot path)** runs fully
  vectorized: price normalization, the streaming price mean, battery
  caps and the exact P5 vertex enumeration
  (:func:`repro.core.p5_vec.solve_p5_batch`) all advance as ``(B,)``
  arrays with no per-scenario Python dispatch.  Every per-slot
  temporary lives in buffers preallocated once per horizon
  (:class:`RealTimeWorkspace` and
  :class:`~repro.core.p5_vec.P5Workspace`), written in place with
  ``out=`` ufunc calls, so the slot loop allocates nothing.

* **Long-term planning (once per coarse slot)** runs through
  :meth:`VecSmartDPSS.prepare_plan_batch` — the array twin of ``B``
  scalar :meth:`~repro.core.smartdpss.SmartDPSS.prepare_plan` calls.
  Price normalization, the first-boundary ``_RunningMean`` seeding
  rule, shift-point selection (``paper``/``operational`` modes mixed
  freely in one batch, via the array-capable
  :func:`~repro.core.bounds.compute_bounds`), weight freezing and the
  battery feasibility terms are all ``(B,)`` array expressions, and
  the P4 subproblems leave as one struct-of-arrays
  :class:`~repro.core.p4.P4Batch`.  :func:`~repro.core.p4.solve_p4_many`
  turns it into ``(B,)`` delivery rates in one tensor pass.  No
  per-scenario record is built anywhere on this path.

The scalar instances are kept only for introspection:
:meth:`finalize` rebuilds every instance's post-run state from the
arrays (through the queues' explicit ``load_state()`` APIs) so
virtual-queue peaks, frozen weights and the price mean match a scalar
run exactly.  The reference for the whole controller is the scalar
:class:`~repro.core.smartdpss.SmartDPSS` run by the scalar
``Simulator``.

Exactness contract: a batch of ``B`` scenarios produces bit-identical
decisions to ``B`` scalar ``SmartDPSS`` runs (enforced by
``tests/equivalence/``).  Scenario configs may differ in any numeric
parameter (``V``, ``ε``, price scale, margin) and in per-scenario
planning flags (``use_long_term_market``, ``use_battery``, shift
mode); only ``objective_mode`` must agree across the batch because it
selects the vectorized P5 objective.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config.control import SmartDPSSConfig
from repro.core.bounds import BoundVariant, SystemArrays, compute_bounds
from repro.core.interfaces import BatchCoarseObservation
from repro.core.p4 import P4Batch, solve_p4_many
from repro.core.p5_vec import (
    N_CANDIDATES,
    BatchSlotState,
    P5Workspace,
    solve_p5_batch,
)
from repro.core.smartdpss import SmartDPSS
from repro.core.virtual_queues import operational_shift, paper_shift
from repro.exceptions import ConfigurationError
from repro.config.system import SystemConfig
from repro.telemetry.core import TELEMETRY_OFF


class RealTimeWorkspace:
    """Buffers for ``VecSmartDPSS``'s per-slot prep and queue updates."""

    __slots__ = ("price_n", "charge_room", "charge_cap",
                 "discharge_room", "discharge_cap", "grt_cap", "growth",
                 "x_value", "usable", "not_usable")

    def __init__(self, batch: int):
        n = int(batch)
        for name in ("price_n", "charge_room", "charge_cap",
                     "discharge_room", "discharge_cap", "grt_cap",
                     "growth", "x_value"):
            setattr(self, name, np.empty(n))
        self.usable = np.empty(n, dtype=bool)
        self.not_usable = np.empty(n, dtype=bool)


class VecSmartDPSS:
    """Batch controller advancing ``B`` SmartDPSS policies in lockstep.

    Parameters
    ----------
    controllers:
        One scalar :class:`SmartDPSS` per scenario.  The instances are
        real — :meth:`finalize` rebuilds their per-scenario planning
        state so they remain inspectable (frozen weights, virtual
        queues) after a run — but both their per-slot and planning
        paths are bypassed by the vectorized twins.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` (``None`` = off).
        Times the pooled P4 tensor pass (``p4`` span, one per coarse
        boundary) and the vectorized P5 solve (``p5``, guarded, every
        fine slot); never touches numeric state, so decisions are
        bit-identical with it on or off.
    """

    def __init__(self, controllers: Sequence[SmartDPSS], *,
                 telemetry=None):
        if not controllers:
            raise ConfigurationError("need at least one controller")
        self.controllers = list(controllers)
        self._telemetry = telemetry if telemetry is not None \
            else TELEMETRY_OFF
        modes = {c.config.objective_mode for c in self.controllers}
        if len(modes) > 1:
            raise ConfigurationError(
                f"batch requires one objective mode, got {sorted(m.value for m in modes)}")
        self.mode = self.controllers[0].config.objective_mode
        self._n = len(self.controllers)

    @classmethod
    def from_configs(cls, configs: Sequence[SmartDPSSConfig | None]
                     ) -> "VecSmartDPSS":
        """Build from configs (``None`` entries get the defaults)."""
        return cls([SmartDPSS(config) for config in configs])

    # ------------------------------------------------------------------
    # Batch controller protocol
    # ------------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Per-scenario policy names for result records."""
        return [c.name for c in self.controllers]

    def begin_horizon(self, systems: Sequence[SystemConfig]) -> None:
        if len(systems) != self._n:
            raise ConfigurationError(
                f"{len(systems)} systems for {self._n} controllers")
        n = self._n

        def pull(get) -> np.ndarray:
            return np.array([float(get(i)) for i in range(n)])

        for controller, system in zip(self.controllers, systems):
            controller.begin_horizon(system)

        configs = [c.config for c in self.controllers]
        self._v = pull(lambda i: configs[i].v)
        self._epsilon = pull(lambda i: configs[i].epsilon)
        self._price_scale = pull(lambda i: configs[i].price_scale)
        self._use_battery = np.array(
            [bool(configs[i].use_battery) for i in range(n)])
        self._use_lt = np.array(
            [bool(configs[i].use_long_term_market) for i in range(n)])
        self._shift_paper = np.array(
            [configs[i].battery_shift_mode == "paper" for i in range(n)])
        self._plan_deferrable = np.array(
            [bool(configs[i].plan_deferrable_arrivals) for i in range(n)])
        # Normalized controller-unit prices, as the scalar code computes
        # them per observation (here hoisted: the factors are constant).
        self._margin_n = pull(
            lambda i: configs[i].battery_price_margin
            / configs[i].price_scale)
        self._op_cost_n = pull(
            lambda i: systems[i].battery_op_cost / configs[i].price_scale)
        self._waste_n = pull(
            lambda i: systems[i].waste_penalty / configs[i].price_scale)
        self._cap_n = pull(
            lambda i: systems[i].p_max / configs[i].price_scale)
        self._b_max = pull(lambda i: systems[i].b_max)
        self._b_min = pull(lambda i: systems[i].b_min)
        self._b_charge_max = pull(lambda i: systems[i].b_charge_max)
        self._b_discharge_max = pull(lambda i: systems[i].b_discharge_max)
        self._eta_c = pull(lambda i: systems[i].eta_c)
        self._eta_d = pull(lambda i: systems[i].eta_d)
        self._s_dt_max = pull(lambda i: systems[i].s_dt_max)
        self._p_grid = pull(lambda i: systems[i].p_grid)
        self._t_arr = pull(lambda i: systems[i].fine_slots_per_coarse)
        self._bounds_system = SystemArrays.stack(systems)

        # Vectorized live state (mirrors the scalar instances').
        self._y = np.zeros(n)
        self._y_peak = np.zeros(n)
        self._rt_sum = np.zeros(n)
        self._rt_count = 0
        self._rt_initial = np.zeros(n)
        self._rt_seeded = False
        self._q_hat = np.zeros(n)
        self._y_hat = np.zeros(n)
        self._x_hat = np.zeros(n)
        self._shift = np.zeros(n)
        self._x_value = np.zeros(n)
        self._x_min = np.full(n, np.inf)
        self._x_max = np.full(n, -np.inf)
        self._x_observed = False
        self._planned_rate = np.zeros(n)

        # Preallocated per-slot buffers (one set per horizon; the
        # engine runs one horizon per shard, so this is the per-shard
        # slot workspace the hot path reuses every fine slot).
        self._work_p5 = P5Workspace(n, N_CANDIDATES)
        self._work_rt = RealTimeWorkspace(n)

    # -- planning (per coarse slot) ------------------------------------

    def _mean_value(self) -> np.ndarray:
        """Vector twin of ``_RunningMean.value`` for every scenario."""
        if self._rt_count == 0:
            if self._rt_seeded:
                return self._rt_initial
            return np.zeros(self._n)
        return self._rt_sum / self._rt_count

    def prepare_plan_batch(self, obs: BatchCoarseObservation
                           ) -> tuple[P4Batch, np.ndarray]:
        """Array twin of ``B`` scalar ``prepare_plan`` calls.

        Freezes the interval weights, selects shift points for both
        shift modes in one pass, applies the first-boundary
        ``_RunningMean`` seeding rule, and assembles the P4 subproblems
        of the scenarios whose long-term market is enabled.  Returns
        ``(batch, pending)``: ``pending`` holds those scenarios'
        indices in ascending order (possibly none) and ``batch`` is
        their :class:`~repro.core.p4.P4Batch`, row ``k`` belonging to
        scenario ``pending[k]``.  Scenarios outside ``pending`` have
        their planned rate set to zero here.  Every array expression
        mirrors the scalar code elementwise, so the frozen weights and
        the batch equal ``P4Batch.from_states`` of the scalar records
        bit for bit.
        """
        price_lt = obs.price_lt / self._price_scale
        if self._rt_count == 0:
            # Before any real-time observation, seed the reference with
            # the first contract price (no a-priori statistics needed).
            self._rt_initial = np.array(price_lt, dtype=float)
            self._rt_seeded = True

        # Shift-point selection, both modes evaluated as arrays.
        shift = operational_shift(self._b_min, self._b_max, self._v,
                                  self._mean_value())
        if self._shift_paper.any():
            bounds = compute_bounds(self._bounds_system, self._v,
                                    self._epsilon, self._cap_n,
                                    variant=BoundVariant.PAPER)
            shift = np.where(
                self._shift_paper,
                paper_shift(bounds.u_max, self._b_min,
                            self._b_discharge_max, self._eta_d),
                shift)

        # Freeze the Lyapunov weights for the coming interval.
        self._shift = shift
        self._q_hat = np.array(obs.backlog, dtype=float)
        self._y_hat = self._y.copy()
        x_value = obs.battery_level - shift
        self._x_value = x_value
        self._x_min = np.minimum(self._x_min, x_value)
        self._x_max = np.maximum(self._x_max, x_value)
        self._x_observed = True
        self._x_hat = x_value

        battery_usable = self._use_battery & (obs.cycle_budget_left != 0)
        # The battery's stored energy can be spent once over the
        # window, not once per slot: spread it over T slots so the
        # feasibility floor stays honest for small batteries.
        usable_energy = np.maximum(
            0.0, obs.battery_level - self._b_min) / self._eta_d
        discharge_avail = np.where(
            battery_usable,
            np.minimum(self._b_discharge_max,
                       usable_energy / self._t_arr), 0.0)
        charge_headroom = np.where(
            battery_usable,
            np.maximum(0.0, self._b_max - obs.battery_level)
            / self._eta_c, 0.0)

        # Scenarios without the long-term market plan a zero purchase.
        np.copyto(self._planned_rate, 0.0, where=~self._use_lt)
        pending = np.nonzero(self._use_lt)[0]
        batch = P4Batch.assemble(
            profile_demand_ds=obs.profile_demand_ds[pending],
            profile_renewable=obs.profile_renewable[pending],
            profile_demand_dt=obs.profile_demand_dt[pending],
            prices=(obs.profile_price_rt[pending]
                    / self._price_scale[pending][:, None]),
            t_slots=self._t_arr[pending],
            v=self._v[pending],
            price_lt=price_lt[pending],
            p_grid=self._p_grid[pending],
            q_hat=self._q_hat[pending],
            y_hat=self._y_hat[pending],
            x_hat=self._x_hat[pending],
            eta_c=self._eta_c[pending],
            demand_ds=obs.demand_ds[pending],
            renewable=obs.renewable[pending],
            discharge_avail=discharge_avail[pending],
            charge_headroom_total=charge_headroom[pending],
            waste_penalty=self._waste_n[pending],
            s_dt_max=self._s_dt_max[pending],
            plan_deferrable_arrivals=self._plan_deferrable[pending],
        )
        return batch, pending

    def _mean_state(self, index: int) -> dict:
        """One scenario's ``_RunningMean`` state, seed included."""
        return {"sum": float(self._rt_sum[index]),
                "count": self._rt_count,
                "initial": (float(self._rt_initial[index])
                            if self._rt_seeded else None)}

    def _sync_into(self, index: int, controller: SmartDPSS) -> None:
        """Load the vectorized live state into one scalar instance.

        Routed through the explicit ``load_state`` APIs so every field
        — including the price mean's ``initial`` seed and the battery
        queue's never-observed condition — is restored by contract,
        not by poking attributes on whatever object happens to be
        installed.
        """
        controller._rt_price_mean.load_state(self._mean_state(index))
        controller._y_queue.load_state({
            "value": float(self._y[index]),
            "peak": float(self._y_peak[index])})
        if self._x_observed:
            controller._x_queue.load_state({
                "shift": float(self._shift[index]),
                "value": float(self._x_value[index]),
                "min_seen": float(self._x_min[index]),
                "max_seen": float(self._x_max[index])})
        else:
            controller._x_queue.load_state({
                "shift": float(self._shift[index]),
                "value": None, "min_seen": None, "max_seen": None})

    def plan_long_term(self, obs: BatchCoarseObservation) -> np.ndarray:
        """Plan every scenario's advance purchase ``gbef(t)``.

        Preparation (weight freezing, shift selection, the P4 batch)
        runs through :meth:`prepare_plan_batch`; the P4 solve itself —
        the expensive part — is one
        :func:`~repro.core.p4.solve_p4_many` tensor pass, whose
        ``(B,)`` rates are written straight into the plan arrays.
        """
        batch, pending = self.prepare_plan_batch(obs)
        gbef = np.zeros(self._n)
        if len(batch):
            with self._telemetry.span("p4"):
                rates = solve_p4_many(batch, self.mode)
            self._planned_rate[pending] = rates
            gbef[pending] = rates * batch.t_slots
        return gbef

    # -- real-time balancing (per fine slot; fully vectorized) ---------

    def real_time(self, obs) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized twin of :meth:`SmartDPSS.real_time`.

        Every per-slot temporary is written into the preallocated
        :class:`RealTimeWorkspace` with the scalar code's elementwise
        operations, so the prep allocates nothing.
        """
        w = self._work_rt
        np.divide(obs.price_rt, self._price_scale, out=w.price_n)
        np.add(self._rt_sum, w.price_n, out=self._rt_sum)
        self._rt_count += 1

        np.not_equal(obs.cycle_budget_left, 0, out=w.usable)
        np.logical_and(self._use_battery, w.usable, out=w.usable)
        np.logical_not(w.usable, out=w.not_usable)
        np.subtract(self._b_max, obs.battery_level, out=w.charge_room)
        np.maximum(w.charge_room, 0.0, out=w.charge_room)
        np.divide(w.charge_room, self._eta_c, out=w.charge_room)
        np.minimum(self._b_charge_max, w.charge_room, out=w.charge_cap)
        np.copyto(w.charge_cap, 0.0, where=w.not_usable)
        np.subtract(obs.battery_level, self._b_min, out=w.discharge_room)
        np.maximum(w.discharge_room, 0.0, out=w.discharge_room)
        np.divide(w.discharge_room, self._eta_d, out=w.discharge_room)
        np.minimum(self._b_discharge_max, w.discharge_room,
                   out=w.discharge_cap)
        np.copyto(w.discharge_cap, 0.0, where=w.not_usable)
        np.minimum(obs.grid_headroom, obs.supply_headroom, out=w.grt_cap)

        state = BatchSlotState(
            q_hat=self._q_hat,
            y_hat=self._y_hat,
            x_hat=self._x_hat,
            v=self._v,
            price_rt=w.price_n,
            battery_op_cost=self._op_cost_n,
            waste_penalty=self._waste_n,
            backlog=obs.backlog,
            gbef_rate=obs.long_term_rate,
            renewable=obs.renewable,
            demand_ds=obs.demand_ds,
            charge_cap=w.charge_cap,
            discharge_cap=w.discharge_cap,
            eta_c=self._eta_c,
            eta_d=self._eta_d,
            s_dt_max=self._s_dt_max,
            grt_cap=w.grt_cap,
            battery_margin=self._margin_n,
        )
        tele = self._telemetry
        if not tele.enabled:
            return solve_p5_batch(state, self.mode, self._work_p5)
        t0 = tele.clock()
        decision = solve_p5_batch(state, self.mode, self._work_p5)
        tele.add_time("p5", tele.clock() - t0)
        return decision

    def end_slot(self, feedback) -> None:
        """Vectorized queue updates (eq. 12 and the battery tracker)."""
        w = self._work_rt
        np.copyto(w.growth, 0.0)
        np.copyto(w.growth, self._epsilon, where=feedback.had_backlog)
        np.subtract(self._y, feedback.served_dt, out=self._y)
        np.add(self._y, w.growth, out=self._y)
        np.maximum(self._y, 0.0, out=self._y)
        np.maximum(self._y_peak, self._y, out=self._y_peak)
        # w.x_value is a dedicated buffer: the frozen ``x_hat`` (aliased
        # to the boundary's freshly built x_value array) must not be
        # overwritten mid-window.
        np.subtract(feedback.battery_level, self._shift, out=w.x_value)
        self._x_value = w.x_value
        np.minimum(self._x_min, w.x_value, out=self._x_min)
        np.maximum(self._x_max, w.x_value, out=self._x_max)
        self._x_observed = True

    def finalize(self) -> None:
        """Rebuild every scalar instance's state from the arrays.

        Called once at the end of a batch run so post-run introspection
        — virtual-queue values/peaks/extremes, the price mean (seed
        included), the frozen weights and the last planned rate —
        matches a scalar run exactly.
        """
        for index, controller in enumerate(self.controllers):
            self._sync_into(index, controller)
            controller._q_hat = float(self._q_hat[index])
            controller._y_hat = float(self._y_hat[index])
            controller._x_hat = float(self._x_hat[index])
            controller._planned_rate = float(self._planned_rate[index])
