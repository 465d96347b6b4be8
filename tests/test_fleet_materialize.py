"""Shard materialization: one BatchTraceStream pass instead of B cursors.

The fleet runner materializes offline-gap shards (and oracle or
``paper``-trace shards) through :func:`~repro.fleet.stream.materialize_block`.  These
tests pin that its rows equal each spec's scalar ``build_traces``
series by series and in meta, that the offline-gap path never touches
the per-scenario scalar cursor for kernel-backed sources, and the
row-view / row-selection behaviour of :class:`TraceBlock` it relies on.
"""

import numpy as np
import pytest

from repro.exceptions import HorizonMismatchError
from repro.fleet.engine import ScenarioMetrics
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec
from repro.fleet.stream import (
    BatchTraceStream,
    StreamingPaperTraces,
    _PaperStreamCursor,
    materialize_block,
)
from repro.sim.engine import Simulator
from repro.traces.base import SERIES_FIELDS, TraceBlock

pytestmark = pytest.mark.fleet

#: (system, trace overrides) per scenario: the paper presets clip at
#: Pgrid = peak demand (heavily, a little, never), the raw system has
#: Pgrid = 0 and so no clip at all; solar capacity and mean price vary.
#: Twelve hourly days at T=6 is 48 coarse / 288 fine slots — more
#: than one 256-slot materialization window.
_HETEROGENEOUS = (
    ({"preset": "paper", "days": 12, "fine_slots_per_coarse": 6,
      "peak_demand_mw": 1.2}, {"solar": {"capacity_mw": 0.5}}),
    ({"preset": "paper", "days": 12, "fine_slots_per_coarse": 6},
     {"price": {"mean_price": 60.0}}),
    ({"preset": "paper", "days": 12, "fine_slots_per_coarse": 6,
      "peak_demand_mw": 6.0}, {}),
    ({"preset": "raw", "fine_slots_per_coarse": 6,
      "num_coarse_slots": 48, "p_grid": 0.0},
     {"solar": {"capacity_mw": 2.0}, "price": {"mean_price": 30.0}}),
)


def _gap_specs(controller=None, scenarios=_HETEROGENEOUS
               ) -> list[ScenarioSpec]:
    return [ScenarioSpec(system=system,
                         controller=controller or {"kind": "smartdpss",
                                                   "v": 0.5},
                         trace={"kind": "stream", **trace},
                         seed=seed, name=f"s{seed}")
            for seed, (system, trace) in enumerate(scenarios)]


def _oracle_specs() -> list[ScenarioSpec]:
    # The lookahead LP needs grid power, so the Pgrid = 0 row is left
    # out; the rest still mixes clipping, solar and price.
    return _gap_specs({"kind": "lookahead"}, _HETEROGENEOUS[:3])


def _shard_specs(runner: FleetRunner) -> list[ScenarioSpec]:
    shards = runner.shards()
    assert len(shards) == 1  # the heterogeneous fleet is one shard
    return [ScenarioSpec.from_dict(data) for data in shards[0]["specs"]]


def _assert_rows_match_build_traces(specs, block: TraceBlock) -> None:
    assert block.n_scenarios == len(specs)
    for index, spec in enumerate(specs):
        reference = spec.build_traces(spec.build_system())
        row = block.scenario(index)
        for name in SERIES_FIELDS:
            assert np.array_equal(getattr(row, name),
                                  getattr(reference, name)), name
        assert row.meta == reference.meta


def _raising_read(self, n_slots):
    raise AssertionError("scalar trace cursor used")


def _scalar_oracle(specs) -> list[dict]:
    """Each spec through the scalar ``Simulator``, folded into metrics."""
    out = []
    for spec in specs:
        system = spec.build_system()
        traces = spec.build_traces(system)
        result = Simulator(system, spec.build_controller(traces),
                           traces).run()
        out.append(ScenarioMetrics.from_result(
            result, seed=spec.seed).as_dict())
    return out


class TestShardParity:
    def test_gap_shard_rows_equal_build_traces(self):
        specs = _shard_specs(FleetRunner(_gap_specs(), offline_gap=True))
        streams = [spec.open_stream(spec.build_system()) for spec in specs]
        assert streams[0].n_slots == 288
        block = materialize_block(streams)
        _assert_rows_match_build_traces(specs, block)
        metas = [block.scenario(i).meta for i in range(len(specs))]
        # The fixture really mixes clipped, clip-free and unclipped rows.
        assert metas[0]["peak_clip_slots"] > 0
        assert metas[2]["peak_clip_slots"] == 0
        assert "peak_clip_p_grid" not in metas[3]

    @pytest.mark.parametrize("chunk_slots", [1, 100, 288, 1000])
    def test_chunk_invariant(self, chunk_slots):
        specs = _gap_specs()
        streams = [spec.open_stream(spec.build_system()) for spec in specs]
        _assert_rows_match_build_traces(
            specs, materialize_block(streams, chunk_slots))

    def test_oracle_shard_rows_equal_build_traces(self):
        specs = _shard_specs(FleetRunner(_oracle_specs()))
        assert not specs[0].streamable  # materializing branch
        streams = [spec.open_stream(spec.build_system()) for spec in specs]
        _assert_rows_match_build_traces(specs, materialize_block(streams))

    def test_paper_recipe_falls_back_to_per_source(self):
        specs = [ScenarioSpec(system={"preset": "paper", "days": 1,
                                      "fine_slots_per_coarse": 6},
                              trace={"kind": "paper"}, seed=seed)
                 for seed in range(3)]
        streams = [spec.open_stream(spec.build_system()) for spec in specs]
        assert BatchTraceStream.for_streams(streams) is None
        _assert_rows_match_build_traces(specs, materialize_block(streams))

    def test_mismatched_horizons_rejected(self):
        streams = [StreamingPaperTraces(24, seed=0),
                   StreamingPaperTraces(48, seed=1)]
        with pytest.raises(HorizonMismatchError):
            BatchTraceStream(streams).materialize()


class TestNoScalarCursor:
    def test_offline_gap_run_never_reads_scalar_cursor(self, monkeypatch):
        specs = _gap_specs()
        # Reference: the scalar engine on each spec's own traces.
        reference = _scalar_oracle(specs)
        monkeypatch.setattr(_PaperStreamCursor, "read", _raising_read)
        records = FleetRunner(specs, offline_gap=True).run()
        gap_keys = ("offline_cost", "offline_gap")
        for record, expected in zip(records, reference):
            metrics = dict(record["metrics"])
            for key in gap_keys:
                metrics.pop(key, None)
            assert metrics == expected
        # Pgrid = 0 makes the raw scenario's LP infeasible: the
        # per-scenario fallback (one-row block) degrades only it.
        assert all(key in records[0]["metrics"] for key in gap_keys)
        assert all(key not in records[3]["metrics"] for key in gap_keys)

    def test_oracle_fleet_never_reads_scalar_cursor(self, monkeypatch):
        specs = _oracle_specs()
        reference = _scalar_oracle(specs)
        monkeypatch.setattr(_PaperStreamCursor, "read", _raising_read)
        records = FleetRunner(specs).run()
        assert [r["engine"] for r in records] == ["stream"] * len(specs)
        assert [r["metrics"] for r in records] == reference


class TestTraceBlockRows:
    def _block(self):
        streams = [StreamingPaperTraces(48, seed=seed, clip_p_grid=clip)
                   for seed, clip in enumerate((1.2, None, 6.0))]
        return streams, BatchTraceStream(streams).materialize(20)

    def test_scenario_is_a_read_only_row_view(self):
        _, block = self._block()
        row = block.scenario(1)
        for name in SERIES_FIELDS:
            series = getattr(row, name)
            assert np.shares_memory(series, getattr(block, name))
            assert not series.flags.writeable

    def test_window_rows_carry_scalar_window_meta(self):
        streams, _ = self._block()
        cursor = BatchTraceStream(streams).open()
        scalar = [stream.open() for stream in streams]
        for n_slots in (20, 28):
            window = cursor.read(n_slots)
            for index, reference in enumerate(scalar):
                assert (window.scenario(index).meta
                        == reference.read(n_slots).meta)

    def test_take_selects_rows_and_their_meta(self):
        streams, block = self._block()
        assert block.take(range(3)) is block
        sub = block.take([2, 0])
        assert sub.n_scenarios == 2
        for position, index in enumerate((2, 0)):
            expected = block.scenario(index)
            got = sub.scenario(position)
            for name in SERIES_FIELDS:
                assert np.array_equal(getattr(got, name),
                                      getattr(expected, name))
            assert got.meta == expected.meta

    def test_from_tracesets_keeps_each_meta(self):
        streams, _ = self._block()
        sets = [stream.materialize() for stream in streams]
        block = TraceBlock.from_tracesets(sets)
        for index, traces in enumerate(sets):
            assert block.scenario(index).meta == traces.meta
        assert block.take([1]).scenario(0).meta == sets[1].meta
