"""Tests for the compact shard wire format (``experiments.wire``).

The contract: ``unpack_shard_output(pack_shard_output(out))`` is value-
identical to ``out`` — every field, including the raw store column
payload, the trace set and the coverage ledger — while the packed blob
stays an order of magnitude smaller than a plain ``ShardOutput`` pickle.
A regression in either direction (lossy round-trip, or the wire format
quietly bloating back toward whole-object pickles) fails loudly here.
"""

import pickle

import pytest

from repro.experiments.config import paper_experiment
from repro.experiments.runner import build_world, plan_shards, run_shard
from repro.experiments.wire import (
    WIRE_VERSION,
    WireFormatError,
    pack_shard_output,
    unpack_shard_output,
)

#: The committed floor on wire-format compression vs. a plain pickle of
#: the same traced ``ShardOutput``.  Measured ~10x at these scales; 8x
#: leaves headroom for honest drift while still catching a format
#: regression.
MIN_COMPRESSION = 8.0

#: The same floor for an untraced shard, whose frame carries no trace
#: columns.  Traces compress best, so the ratio is lower although the
#: frame is half the size: measured 6.0x at these scales.
MIN_COMPRESSION_UNTRACED = 5.0


@pytest.fixture(scope="module")
def wire_world():
    config = paper_experiment(seed=7, scale=0.02)
    return config, build_world(config)


class TestRoundTrip:
    def test_outputs_value_identical(self, wire_world):
        config, world = wire_world
        shards = plan_shards(config)
        for index in (0, len(shards) // 2, len(shards) - 1):
            out = run_shard(config, shards[index], world)
            back = unpack_shard_output(pack_shard_output(out), config, world)
            assert back == out

    def test_store_columns_value_identical(self, wire_world):
        # The store merge folds the shard's raw columns; the wire format
        # re-interns the store's string table through the frame-wide one,
        # so the payload must come back value-identical — and a store
        # rebuilt from it must serialise to byte-identical JSONL.
        from repro.collector.store import ImpressionStore

        config, world = wire_world
        shard = plan_shards(config)[0]
        out = run_shard(config, shard, world)
        back = unpack_shard_output(pack_shard_output(out), config, world)
        assert back.store_columns == out.store_columns
        original = ImpressionStore()
        original.absorb_columns(out.store_columns)
        rebuilt = ImpressionStore()
        rebuilt.absorb_columns(back.store_columns)
        assert rebuilt.dumps_jsonl() == original.dumps_jsonl()

    def test_traces_and_metrics_survive(self, wire_world):
        config, world = wire_world
        shard = plan_shards(config)[0]
        out = run_shard(config, shard, world, trace=True)
        assert out.traces
        back = unpack_shard_output(pack_shard_output(out), config, world)
        assert back.traces == out.traces
        assert back.metrics == out.metrics
        assert back.coverage == out.coverage

    def test_events_survive(self, wire_world):
        # The telemetry journal crosses the wire with the shard (v2).
        config, world = wire_world
        shard = plan_shards(config)[0]
        out = run_shard(config, shard, world)
        back = unpack_shard_output(pack_shard_output(out), config, world)
        assert out.events  # at least shard.started
        assert back.events == out.events
        assert back.events_dropped == out.events_dropped

    def test_faulted_shard_round_trips(self):
        # Quarantine entries and loss accounting cross the wire too.
        from repro.faults.plan import FaultPlan

        config = paper_experiment(seed=7, scale=0.01,
                                  faults=FaultPlan.preset("flaky"))
        world = build_world(config)
        shard = plan_shards(config)[0]
        out = run_shard(config, shard, world)
        back = unpack_shard_output(pack_shard_output(out), config, world)
        assert back == out


class TestSizeBudget:
    @staticmethod
    def assert_compresses(wire_world, trace, budget):
        config, world = wire_world
        shards = plan_shards(config)
        for index in (0, len(shards) - 1):
            out = run_shard(config, shards[index], world, trace=trace)
            plain = len(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))
            wire = len(pack_shard_output(out))
            assert plain / wire >= budget, (
                f"shard {index}: wire format compresses only "
                f"{plain / wire:.1f}x (pickle {plain} -> wire {wire}); "
                f"budget is {budget}x")

    def test_wire_is_an_order_of_magnitude_smaller(self, wire_world):
        self.assert_compresses(wire_world, True, MIN_COMPRESSION)

    def test_untraced_wire_compresses(self, wire_world):
        self.assert_compresses(wire_world, False, MIN_COMPRESSION_UNTRACED)

    def test_untraced_frame_is_smaller_than_traced(self, wire_world):
        config, world = wire_world
        shard = plan_shards(config)[0]
        traced = pack_shard_output(run_shard(config, shard, world,
                                             trace=True))
        untraced = pack_shard_output(run_shard(config, shard, world))
        assert len(untraced) < len(traced)


class TestFraming:
    def test_unknown_version_rejected(self, wire_world):
        import zlib

        config, world = wire_world
        shard = plan_shards(config)[0]
        out = run_shard(config, shard, world)
        frame = pickle.loads(zlib.decompress(pack_shard_output(out)))
        bad = zlib.compress(pickle.dumps(
            (WIRE_VERSION + 1,) + tuple(frame[1:])))
        with pytest.raises(WireFormatError, match="version"):
            unpack_shard_output(bad, config, world)

    def test_garbage_rejected(self, wire_world):
        config, world = wire_world
        with pytest.raises(WireFormatError):
            unpack_shard_output(b"not a wire frame", config, world)
