"""Trace recording is opt-in, and turning it on changes no other output.

An untraced run's shards drive a recorder-less :class:`Tracer` that
keeps only sim-time bookkeeping.  That sim-time stamps the
``fault.injected`` and ``frame.quarantined`` journal events, so the
sim-domain event NDJSON below pins it: a traced and an untraced run must
agree byte for byte on every sim-domain artifact, serial or pooled,
faulted or not.  The only difference allowed is the two ``trace.*``
counters, which a run registers only when it records traces.
"""

import dataclasses
import pickle
import zlib

import pytest

from repro.audit import full_audit
from repro.audit.coverage import coverage_to_json
from repro.audit.export import report_to_csv, report_to_json
from repro.experiments.config import paper_experiment
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import build_world, plan_shards, run_shard
from repro.experiments.wire import pack_shard_output, unpack_shard_output
from repro.faults.plan import FaultPlan
from repro.obs.events import dumps_events_jsonl

SEED, SCALE = 2016, 0.01

TRACE_COUNTERS = {"trace.committed", "trace.dropped"}


def config_for(faults: str):
    return paper_experiment(seed=SEED, scale=SCALE,
                            faults=FaultPlan.preset(faults))


def sim_artifacts(result) -> dict[str, str]:
    """Every sim-domain export of one run, as text."""
    report = full_audit(result.dataset)
    metrics = result.metrics.sim_only()
    untraced_metrics = dataclasses.replace(metrics, counters=tuple(
        entry for entry in metrics.counters
        if entry[0] not in TRACE_COUNTERS))
    return {
        "store": result.dataset.store.dumps_jsonl(),
        "stats": repr(sorted(result.stats.items())),
        "audit_json": report_to_json(report),
        "audit_csv": report_to_csv(report),
        "coverage": coverage_to_json(result.coverage),
        "events": dumps_events_jsonl(result.events.sim_events()),
        "metrics": untraced_metrics.to_json(),
    }


@pytest.fixture(scope="module", params=[
    ("none", 1), ("none", 2), ("hostile", 1), ("hostile", 2)],
    ids=lambda param: f"{param[0]}-jobs{param[1]}")
def run_pair(request):
    faults, jobs = request.param
    config = config_for(faults)
    return {trace: ParallelExperimentRunner(config, jobs=jobs,
                                            trace=trace).run()
            for trace in (False, True)}


class TestTracedUntracedEquivalence:
    def test_sim_artifacts_byte_identical(self, run_pair):
        untraced = sim_artifacts(run_pair[False])
        traced = sim_artifacts(run_pair[True])
        for name in untraced:
            assert untraced[name] == traced[name], name

    def test_compared_journal_holds_tracer_stamped_events(self, run_pair):
        # Under the hostile plan the compared event stream carries the
        # fault.injected events whose instants come from tracer.now.
        untraced = run_pair[False]
        names = {event.name for event in untraced.events.sim_events()}
        assert ("fault.injected" in names) == untraced.config.faults.active

    def test_trace_counters_only_on_traced_runs(self, run_pair):
        def trace_counters(result):
            return {name: value for name, _, value
                    in result.metrics.sim_only().counters
                    if name in TRACE_COUNTERS}

        traced = run_pair[True]
        assert trace_counters(run_pair[False]) == {}
        assert trace_counters(traced) == {
            "trace.committed": traced.stats["delivered"],
            "trace.dropped": 0}

    def test_untraced_recorder_is_empty(self, run_pair):
        assert len(run_pair[False].recorder) == 0
        assert len(run_pair[True].recorder) > 0


class TestUntracedShardOutput:
    @pytest.fixture(scope="class")
    def shard_world(self):
        config = config_for("none")
        return config, build_world(config), plan_shards(config)[0]

    def test_ships_no_traces_and_no_trace_counters(self, shard_world):
        config, world, shard = shard_world
        out = run_shard(config, shard, world)
        assert out.traces == ()
        assert out.records_committed > 0
        assert not any(name in TRACE_COUNTERS
                       for name, _, _ in out.metrics.counters)

    def test_round_trips_through_the_wire(self, shard_world):
        config, world, shard = shard_world
        out = run_shard(config, shard, world)
        blob = pack_shard_output(out)
        assert unpack_shard_output(blob, config, world) == out
        # The frame's trace slot is empty: no trace columns cross.
        frame = pickle.loads(zlib.decompress(blob))
        assert frame[3] is None

    def test_traced_shard_differs_only_in_traces(self, shard_world):
        config, world, shard = shard_world
        untraced = run_shard(config, shard, world)
        traced = run_shard(config, shard, world, trace=True)
        assert traced.traces
        assert len(traced.traces) == len(traced.impressions)
        assert dataclasses.replace(traced, traces=(),
                                   metrics=untraced.metrics) == untraced
