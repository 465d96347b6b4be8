"""Trace containers.

A :class:`Trace` is a validated, immutable time series over fine-grained
slots.  A :class:`TraceSet` bundles the five series every experiment
needs — delay-sensitive demand, delay-tolerant demand, renewable
production, real-time price and the hourly long-term forward curve — and
derives per-coarse-slot long-term prices for any coarse length ``T``
(which is how the Fig. 6(c,d) ``T``-sweep reuses one set of hourly
traces).

A :class:`TraceBlock` is the batched counterpart: the same five series
for ``B`` scenarios at once as ``(B, n_slots)`` arrays.  It is what the
vectorized trace kernels (:class:`~repro.traces.demand.DemandTraceKernel`
and friends) emit and what the streamed fleet engine consumes — one
block per window instead of ``B`` per-scenario :class:`TraceSet`
windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    TraceError,
)


def slot_time_indices(start_slot: int, n_slots: int, slot_hours: float,
                      start_weekday: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Hour-of-day and weekend indices for a window of fine slots.

    Vectorized twin of the per-slot ``int((slot * slot_hours) % 24)`` /
    ``(start_weekday + (slot * slot_hours) // 24) % 7`` arithmetic the
    scalar generators use — the exact same float64 operations, so index
    arrays match the scalar loops bit for bit.  Returns ``(hours,
    weekend)`` with ``hours`` an int array in ``[0, 24)`` and
    ``weekend`` a boolean mask (Saturday/Sunday).
    """
    slots = np.arange(start_slot, start_slot + n_slots, dtype=float)
    t = slots * slot_hours
    hours = (t % 24.0).astype(np.int64)
    days = (t // 24.0).astype(np.int64)
    weekend = (start_weekday + days) % 7 >= 5
    return hours, weekend


def _validated_array(name: str, values: object, *,
                     lower: float | None = 0.0) -> np.ndarray:
    """Convert to a read-only float array, checking finiteness/bounds."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise TraceError(f"{name} must be one-dimensional, got shape "
                         f"{array.shape}")
    if array.size == 0:
        raise TraceError(f"{name} must be non-empty")
    if not np.all(np.isfinite(array)):
        raise TraceError(f"{name} contains NaN or infinite values")
    if lower is not None and np.any(array < lower):
        worst = float(array.min())
        raise TraceError(f"{name} must be >= {lower}, found {worst}")
    array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Trace:
    """A single validated, immutable series (MWh per slot or $/MWh)."""

    name: str
    values: np.ndarray
    units: str = "MWh"

    def __init__(self, name: str, values: object, units: str = "MWh",
                 lower: float | None = 0.0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values",
                           _validated_array(name, values, lower=lower))
        object.__setattr__(self, "units", units)

    def __len__(self) -> int:
        return int(self.values.size)

    def __getitem__(self, slot: int) -> float:
        return float(self.values[slot])

    @property
    def mean(self) -> float:
        """Time-average of the series."""
        return float(self.values.mean())

    @property
    def std(self) -> float:
        """Population standard deviation of the series."""
        return float(self.values.std())

    @property
    def peak(self) -> float:
        """Maximum value of the series."""
        return float(self.values.max())

    @property
    def total(self) -> float:
        """Sum over the horizon (total energy for MWh series)."""
        return float(self.values.sum())

    def summary(self) -> dict[str, float]:
        """Small stats dictionary used by Fig. 5 reporting."""
        return {
            "mean": self.mean,
            "std": self.std,
            "min": float(self.values.min()),
            "max": self.peak,
            "total": self.total,
        }


@dataclass(frozen=True)
class TraceSet:
    """The full input bundle for one simulation horizon.

    All five arrays share the same length ``n_slots`` (fine-grained
    slots).  Series semantics:

    demand_ds:
        delay-sensitive demand ``dds(τ)`` in MWh per slot;
    demand_dt:
        delay-tolerant demand ``ddt(τ)`` in MWh per slot;
    renewable:
        on-site renewable production ``r(τ)`` in MWh per slot;
    price_rt:
        real-time market price ``prt(τ)`` in $/MWh;
    price_lt_hourly:
        hourly long-term-ahead *forward curve* in $/MWh; the market
        price for a coarse slot of length ``T`` is its average over the
        slot (:meth:`coarse_prices`).
    """

    demand_ds: np.ndarray
    demand_dt: np.ndarray
    renewable: np.ndarray
    price_rt: np.ndarray
    price_lt_hourly: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand_ds",
                           _validated_array("demand_ds", self.demand_ds))
        object.__setattr__(self, "demand_dt",
                           _validated_array("demand_dt", self.demand_dt))
        object.__setattr__(self, "renewable",
                           _validated_array("renewable", self.renewable))
        object.__setattr__(self, "price_rt",
                           _validated_array("price_rt", self.price_rt))
        object.__setattr__(
            self, "price_lt_hourly",
            _validated_array("price_lt_hourly", self.price_lt_hourly))
        lengths = {
            "demand_ds": self.demand_ds.size,
            "demand_dt": self.demand_dt.size,
            "renewable": self.renewable.size,
            "price_rt": self.price_rt.size,
            "price_lt_hourly": self.price_lt_hourly.size,
        }
        if len(set(lengths.values())) != 1:
            raise HorizonMismatchError(
                f"trace series have mismatched lengths: {lengths}")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Number of fine-grained slots covered by the traces."""
        return int(self.demand_ds.size)

    def __len__(self) -> int:
        return self.n_slots

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------

    @property
    def demand_total(self) -> np.ndarray:
        """Aggregate demand ``d(τ) = dds(τ) + ddt(τ)``."""
        return self.demand_ds + self.demand_dt

    def coarse_prices(self, fine_slots_per_coarse: int) -> np.ndarray:
        """Long-term market price ``plt(k)`` for coarse slots of ``T``.

        The hourly forward curve is averaged over each coarse window,
        so one hourly trace serves every ``T`` in the Fig. 6(c,d)
        sweep.  Requires the horizon to divide evenly.
        """
        t = int(fine_slots_per_coarse)
        if t < 1:
            raise ConfigurationError(f"T must be >= 1, got {t}")
        if self.n_slots % t != 0:
            raise HorizonMismatchError(
                f"{self.n_slots} slots do not divide into coarse slots "
                f"of T={t}")
        return self.price_lt_hourly.reshape(-1, t).mean(axis=1)

    # ------------------------------------------------------------------
    # Statistics used by experiments
    # ------------------------------------------------------------------

    @property
    def renewable_penetration(self) -> float:
        """Fraction of total demand coverable by renewables."""
        total_demand = float(self.demand_total.sum())
        if total_demand == 0:
            return 0.0
        return float(self.renewable.sum()) / total_demand

    @property
    def demand_std(self) -> float:
        """Standard deviation of aggregate demand (paper Fig. 8 x-axis)."""
        return float(self.demand_total.std())

    def replace(self, **changes: object) -> "TraceSet":
        """Copy with some series replaced (used by scaling transforms)."""
        fields = {
            "demand_ds": self.demand_ds,
            "demand_dt": self.demand_dt,
            "renewable": self.renewable,
            "price_rt": self.price_rt,
            "price_lt_hourly": self.price_lt_hourly,
            "meta": dict(self.meta),
        }
        fields.update(changes)
        return TraceSet(**fields)

    def head(self, n_slots: int) -> "TraceSet":
        """Truncate all series to the first ``n_slots`` slots."""
        if not 1 <= n_slots <= self.n_slots:
            raise ConfigurationError(
                f"n_slots must be in [1, {self.n_slots}], got {n_slots}")
        return TraceSet(
            demand_ds=self.demand_ds[:n_slots],
            demand_dt=self.demand_dt[:n_slots],
            renewable=self.renewable[:n_slots],
            price_rt=self.price_rt[:n_slots],
            price_lt_hourly=self.price_lt_hourly[:n_slots],
            meta=dict(self.meta),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-series stats (drives the Fig. 5 benchmark output)."""
        return {
            "demand_ds": Trace("demand_ds", self.demand_ds).summary(),
            "demand_dt": Trace("demand_dt", self.demand_dt).summary(),
            "demand_total": Trace("demand", self.demand_total).summary(),
            "renewable": Trace("renewable", self.renewable).summary(),
            "price_rt": Trace("price_rt", self.price_rt, "$/MWh").summary(),
            "price_lt_hourly": Trace("price_lt", self.price_lt_hourly,
                                     "$/MWh").summary(),
        }


#: The five series bundled by :class:`TraceSet` / :class:`TraceBlock`.
SERIES_FIELDS = ("demand_ds", "demand_dt", "renewable", "price_rt",
                 "price_lt_hourly")


@dataclass(frozen=True)
class TraceBlock:
    """A batch of scenario windows: five ``(B, n_slots)`` series.

    Semantics per series match :class:`TraceSet`; row ``b`` is scenario
    ``b``'s window.  Validation (finiteness, non-negativity, matched
    shapes) runs once over the whole block instead of ``B`` times, and
    the arrays are frozen in place rather than copied — the kernels
    hand over ownership.
    """

    demand_ds: np.ndarray
    demand_dt: np.ndarray
    renewable: np.ndarray
    price_rt: np.ndarray
    price_lt_hourly: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        shapes = set()
        for name in SERIES_FIELDS:
            array = np.asarray(getattr(self, name), dtype=float)
            if array.ndim != 2:
                raise TraceError(
                    f"{name} must be (B, n_slots), got shape "
                    f"{array.shape}")
            if array.size == 0:
                raise TraceError(f"{name} must be non-empty")
            if not np.all(np.isfinite(array)):
                raise TraceError(f"{name} contains NaN or infinite "
                                 f"values")
            if np.any(array < 0):
                raise TraceError(f"{name} must be >= 0, found "
                                 f"{float(array.min())}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
            shapes.add(array.shape)
        if len(shapes) != 1:
            raise HorizonMismatchError(
                f"trace block series have mismatched shapes: {shapes}")

    @property
    def n_scenarios(self) -> int:
        return int(self.demand_ds.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.demand_ds.shape[1])

    def coarse_prices(self, fine_slots_per_coarse: int) -> np.ndarray:
        """``(B, K)`` long-term prices: per-coarse-slot forward means.

        Row ``b`` equals ``TraceSet.coarse_prices`` of scenario ``b``
        bit for bit (the reduction runs over the same contiguous ``T``
        elements per coarse slot).
        """
        t = int(fine_slots_per_coarse)
        if t < 1:
            raise ConfigurationError(f"T must be >= 1, got {t}")
        if self.n_slots % t != 0:
            raise HorizonMismatchError(
                f"{self.n_slots} slots do not divide into coarse slots "
                f"of T={t}")
        return self.price_lt_hourly.reshape(
            self.n_scenarios, -1, t).mean(axis=2)

    @classmethod
    def from_tracesets(cls, tracesets: "list[TraceSet]",
                       meta: dict | None = None) -> "TraceBlock":
        """Stack ``B`` equal-length :class:`TraceSet` windows.

        Inverse of :meth:`scenario`: row ``b`` of each stacked series is
        ``tracesets[b]``'s series, bit for bit, and each set's meta is
        kept under ``meta["rows"]`` so :meth:`scenario` hands it back
        unchanged.
        """
        if not tracesets:
            raise TraceError("from_tracesets needs >= 1 trace set")
        lengths = {ts.n_slots for ts in tracesets}
        if len(lengths) != 1:
            raise HorizonMismatchError(
                f"trace sets have mismatched lengths: {sorted(lengths)}")
        meta = dict(meta) if meta is not None else {}
        meta["rows"] = tuple(dict(ts.meta) for ts in tracesets)
        return cls(
            demand_ds=np.stack([ts.demand_ds for ts in tracesets]),
            demand_dt=np.stack([ts.demand_dt for ts in tracesets]),
            renewable=np.stack([ts.renewable for ts in tracesets]),
            price_rt=np.stack([ts.price_rt for ts in tracesets]),
            price_lt_hourly=np.stack(
                [ts.price_lt_hourly for ts in tracesets]),
            meta=meta,
        )

    def scenario(self, index: int) -> TraceSet:
        """Scenario ``index``'s window as a :class:`TraceSet`.

        The series are read-only row views of this block (no copy, no
        re-validation: the block was validated as a whole).  Meta is
        the row's own: ``meta["rows"][index]`` when the block was
        stacked from trace sets, else the shared keys plus the row's
        entry of every per-row key (``seeds`` becomes ``seed``; the
        ``Pgrid`` clip keys appear only on rows that were clipped, as
        :func:`~repro.traces.scaling.clip_demand_peaks` writes them).
        """
        rows = self.meta.get("rows")
        if rows is not None:
            meta = dict(rows[index])
        else:
            meta = {key: value for key, value in self.meta.items()
                    if key not in _ROW_META_KEYS}
            seeds = self.meta.get("seeds")
            if seeds is not None:
                meta["seed"] = seeds[index]
            clips = self.meta.get("peak_clip_p_grid")
            if clips is not None and clips[index] is not None:
                meta["peak_clip_p_grid"] = clips[index]
                meta["peak_clip_slots"] = int(
                    self.meta["peak_clip_slots"][index])
        return _frozen(TraceSet, {name: getattr(self, name)[index]
                                  for name in SERIES_FIELDS}, meta)

    def take(self, indices: Iterable[int]) -> "TraceBlock":
        """The sub-block of rows ``indices`` (in that order).

        Rows were validated with the whole block, so the sub-block is
        not re-checked; every per-row meta entry follows its row.
        Selecting every row in order returns ``self``.
        """
        indices = list(indices)
        if indices == list(range(self.n_scenarios)):
            return self
        meta = dict(self.meta)
        for key in _ROW_META_KEYS:
            values = meta.get(key)
            if values is None:
                continue
            if isinstance(values, np.ndarray):
                meta[key] = values[indices]
            else:
                meta[key] = tuple(values[i] for i in indices)
        return _frozen(TraceBlock, {name: getattr(self, name)[indices]
                                    for name in SERIES_FIELDS}, meta)


#: :class:`TraceBlock` meta keys that hold one entry per scenario row.
_ROW_META_KEYS = ("rows", "seeds", "peak_clip_p_grid", "peak_clip_slots")


def _frozen(cls: type, series: dict[str, np.ndarray], meta: dict):
    """A ``cls`` instance around already-validated series arrays.

    Skips ``__post_init__`` (validation and the defensive copy): for
    views and selections of a block whose arrays were checked once.
    """
    instance = object.__new__(cls)
    for name, array in series.items():
        array.setflags(write=False)
        object.__setattr__(instance, name, array)
    object.__setattr__(instance, "meta", meta)
    return instance
