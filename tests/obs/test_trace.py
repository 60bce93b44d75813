"""Tests for the deterministic tracing subsystem (trace + traceio)."""

import json

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    FlightRecorder,
    NullTracer,
    SpanRecord,
    TraceError,
    Tracer,
    TraceRecord,
    trace_id_for,
)
from repro.obs.traceio import (
    AuditVerdict,
    dumps_chrome_trace,
    dumps_trace_jsonl,
    loads_trace_jsonl,
    render_explain,
    render_trace_tree,
    with_audit_spans,
)


def build_trace(tracer=None, impression_id=7, record_id=3):
    tracer = tracer or Tracer(FlightRecorder(), seed=11, scope="P1/DE/0")
    tracer.start("impression", at=100.0, publisher="site.example")
    tracer.event("auction.decide", at=100.0, winner="C1")
    tracer.begin("transport.connect", at=100.5, connection=1)
    tracer.event("ws.frame", at=100.6, opcode="text")
    tracer.end(at=101.0)
    tracer.set_impression(impression_id, "C1")
    if record_id is not None:
        tracer.set_record(record_id)
    return tracer.commit()


class TestTraceId:
    def test_pure_function_of_seed_scope_impression(self):
        assert trace_id_for(1, "a/b/0", 5) == trace_id_for(1, "a/b/0", 5)
        assert trace_id_for(1, "a/b/0", 5) != trace_id_for(2, "a/b/0", 5)
        assert trace_id_for(1, "a/b/0", 5) != trace_id_for(1, "a/b/1", 5)
        assert trace_id_for(1, "a/b/0", 5) != trace_id_for(1, "a/b/0", 6)

    def test_sixteen_hex_chars(self):
        token = trace_id_for(2016, "february/ES/0", 123)
        assert len(token) == 16
        int(token, 16)


class TestTracer:
    def test_commit_builds_document_order_tree(self):
        trace = build_trace()
        assert [span.name for span in trace.spans] == [
            "impression", "auction.decide", "transport.connect", "ws.frame"]
        root = trace.root
        assert root.parent_id is None
        connect = trace.spans_named("transport.connect")[0]
        frame = trace.spans_named("ws.frame")[0]
        assert connect.parent_id == root.span_id
        assert frame.parent_id == connect.span_id
        assert connect.duration == pytest.approx(0.5)
        # Root auto-closes at commit, at the latest span end observed.
        assert root.end == pytest.approx(101.0)

    def test_trace_identity_fields(self):
        trace = build_trace()
        assert trace.impression_id == 7
        assert trace.record_id == 3
        assert trace.campaign_id == "C1"
        assert trace.shard_scope == "P1/DE/0"
        assert trace.trace_id == trace_id_for(11, "P1/DE/0", 7)

    def test_attrs_stringified_deterministically(self):
        tracer = Tracer(FlightRecorder(), seed=1, scope="s")
        tracer.start("root", at=0.0, flag=True, ratio=0.25, count=3, label="x")
        tracer.set_impression(1, "C")
        trace = tracer.commit()
        assert trace.root.attrs == (("flag", "true"), ("ratio", "0.25"),
                                    ("count", "3"), ("label", "x"))
        assert trace.root.attr("flag") == "true"
        assert trace.root.attr("missing") is None

    def test_span_methods_are_noops_without_pending_trace(self):
        tracer = Tracer(FlightRecorder(), seed=1, scope="s")
        tracer.event("auction.decide", at=5.0)
        tracer.begin("transport.connect", at=6.0)
        tracer.end(at=7.0)
        assert tracer.commit() is None
        assert len(tracer.recorder) == 0

    def test_commit_without_impression_raises(self):
        tracer = Tracer(FlightRecorder(), seed=1, scope="s")
        tracer.start("root", at=0.0)
        with pytest.raises(TraceError):
            tracer.commit()

    def test_double_start_raises(self):
        tracer = Tracer(FlightRecorder(), seed=1, scope="s")
        tracer.start("root", at=0.0)
        with pytest.raises(TraceError):
            tracer.start("root", at=1.0)

    def test_abandon_discards_pending(self):
        tracer = Tracer(FlightRecorder(), seed=1, scope="s")
        tracer.start("root", at=0.0)
        tracer.abandon()
        assert not tracer.active
        assert len(tracer.recorder) == 0
        build_trace(tracer)     # a fresh start works afterwards
        assert len(tracer.recorder) == 1

    def test_end_never_pops_the_root(self):
        tracer = Tracer(FlightRecorder(), seed=1, scope="s")
        tracer.start("root", at=0.0)
        tracer.end(at=1.0)      # no open child: must be a no-op
        tracer.event("leaf", at=2.0)
        tracer.set_impression(1, "C")
        trace = tracer.commit()
        assert trace.spans_named("leaf")[0].parent_id \
            == trace.root.span_id

    def test_now_advances_monotonically(self):
        tracer = Tracer(FlightRecorder(), seed=1, scope="s")
        tracer.start("root", at=10.0)
        tracer.advance_to(20.0)
        tracer.advance_to(15.0)
        assert tracer.now == 20.0

    def test_backwards_span_rejected(self):
        with pytest.raises(TraceError):
            SpanRecord(span_id=0, parent_id=None, name="x",
                       start=2.0, end=1.0)

    def test_null_tracer_is_inert(self):
        NULL_TRACER.start("root", at=0.0)
        NULL_TRACER.event("x", at=1.0)
        assert NULL_TRACER.commit() is None
        assert not NULL_TRACER.active
        assert isinstance(NULL_TRACER, NullTracer)


def drive(tracer):
    """One pageview's worth of calls, recording ``now`` after each."""
    seen = []
    tracer.start("impression", at=10.0, publisher="site.example")
    seen.append(tracer.now)
    tracer.event("auction.decide", at=10.0, winner="C1")
    tracer.begin("transport.connect", at=10.5, connection=1)
    seen.append(tracer.now)
    tracer.begin("ws.session", at=10.7)
    tracer.span("collector.ingest", start=10.8, end=11.5, record=1)
    seen.append(tracer.now)
    tracer.end(at=12.0)
    tracer.end(at=12.5)
    tracer.end(at=30.0)         # only the root is left: a no-op
    seen.append(tracer.now)
    tracer.event("beacon.retry", at=11.0)   # earlier: now never goes back
    tracer.advance_to(13.0)
    seen.append(tracer.now)
    tracer.set_impression(4, "C1")
    tracer.set_record(2)
    committed = tracer.commit()
    tracer.event("late", at=99.0)           # no trace pending: ignored
    tracer.begin("late", at=99.0)
    seen.append(tracer.now)
    return committed, seen


class TestUntracedTracer:
    """A tracer with no recorder keeps sim-time and builds nothing."""

    def test_now_matches_a_traced_tracer_call_for_call(self):
        traced, traced_now = drive(Tracer(FlightRecorder(), seed=1,
                                          scope="s"))
        untraced, untraced_now = drive(Tracer(seed=1, scope="s"))
        assert traced is not None
        assert untraced is None
        assert untraced_now == traced_now
        assert untraced_now == [10.0, 10.5, 11.5, 12.5, 13.0, 13.0]

    def test_builds_no_spans(self):
        tracer = Tracer(seed=1, scope="s")
        assert tracer.recorder is None
        tracer.start("impression", at=0.0)
        tracer.begin("transport.connect", at=1.0)
        tracer.event("ws.frame", at=2.0, opcode="text")
        tracer.span("collector.ingest", start=2.0, end=3.0)
        assert tracer._spans == [] and tracer._stack == []
        tracer.set_impression(1, "C")
        assert tracer.commit() is None
        assert not tracer.active

    def test_lifecycle_rules_still_hold(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        with pytest.raises(TraceError):
            tracer.start("root", at=1.0)
        with pytest.raises(TraceError):
            tracer.commit()     # no impression identity
        tracer.abandon()
        assert not tracer.active
        tracer.start("root", at=2.0)    # a fresh start works afterwards
        assert tracer.active and tracer.now == 2.0


class TestFlightRecorder:
    def make_trace(self, index):
        return TraceRecord(
            trace_id=f"{index:016x}", shard_scope="s", impression_id=index,
            campaign_id="C", record_id=index,
            spans=(SpanRecord(span_id=0, parent_id=None, name="root",
                              start=float(index), end=float(index) + 1),))

    def test_head_tail_retention_policy(self):
        recorder = FlightRecorder(head=2, tail=3)
        for index in range(1, 11):
            recorder.record(self.make_trace(index))
        kept = [trace.impression_id for trace in recorder.traces()]
        assert kept == [1, 2, 8, 9, 10]     # first head, last tail
        assert recorder.committed == 10
        assert recorder.dropped == 5
        assert len(recorder) == 5

    def test_retention_is_a_pure_function_of_commit_order(self):
        first = FlightRecorder(head=2, tail=2)
        second = FlightRecorder(head=2, tail=2)
        for index in range(1, 9):
            first.record(self.make_trace(index))
            second.record(self.make_trace(index))
        assert first.traces() == second.traces()
        assert first.dropped == second.dropped

    def test_unbounded_head_keeps_everything(self):
        recorder = FlightRecorder(head=None, tail=0)
        for index in range(1, 100):
            recorder.record(self.make_trace(index))
        assert len(recorder) == 99
        assert recorder.dropped == 0

    def test_lookups(self):
        recorder = FlightRecorder(head=4, tail=4)
        for index in range(1, 5):
            recorder.record(self.make_trace(index))
        assert recorder.find_by_record(3).impression_id == 3
        assert recorder.find_by_impression(2).record_id == 2
        assert recorder.find(f"{1:016x}").impression_id == 1
        assert recorder.find_by_record(99) is None
        # Lookups stay correct after more commits invalidate the index.
        recorder.record(self.make_trace(5))
        assert recorder.find_by_record(5).impression_id == 5

    def test_annotate_appends_child_of_root(self):
        recorder = FlightRecorder()
        recorder.record(self.make_trace(1))
        assert recorder.annotate(1, "enrich.geo", at=1.5, country="DE")
        trace = recorder.find_by_record(1)
        added = trace.spans_named("enrich.geo")[0]
        assert added.parent_id == trace.root.span_id
        assert added.attr("country") == "DE"
        assert not recorder.annotate(99, "enrich.geo", at=0.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(head=-1)
        with pytest.raises(ValueError):
            FlightRecorder(tail=-1)


class TestTraceIO:
    def test_chrome_export_is_strict_json_with_one_tid_per_trace(self):
        traces = [build_trace(Tracer(FlightRecorder(), seed=1, scope="a"),
                              impression_id=1, record_id=1),
                  build_trace(Tracer(FlightRecorder(), seed=1, scope="b"),
                              impression_id=2, record_id=2)]
        text = dumps_chrome_trace(traces)
        document = json.loads(text)
        events = document["traceEvents"]
        assert {event["tid"] for event in events} == {1, 2}
        metadata = [event for event in events if event["ph"] == "M"]
        assert len(metadata) == 2
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == sum(len(trace.spans) for trace in traces)
        connect = next(event for event in complete
                       if event["name"] == "transport.connect")
        assert connect["dur"] == 500_000      # 0.5 s in microseconds
        assert connect["cat"] == "transport"
        assert "NaN" not in text and "Infinity" not in text

    def test_jsonl_round_trip_is_lossless(self):
        traces = (build_trace(),
                  build_trace(Tracer(FlightRecorder(), seed=2, scope="x"),
                              impression_id=9, record_id=None))
        assert loads_trace_jsonl(dumps_trace_jsonl(traces)) == traces

    def test_render_tree_shows_nesting_and_attrs(self):
        rendered = render_trace_tree(build_trace())
        assert "impression" in rendered
        assert "`-- ws.frame" in rendered or "|-- ws.frame" in rendered
        assert "opcode=text" in rendered
        assert "+0.500s" in rendered

    def test_with_audit_spans_appends_classifications(self):
        verdicts = [AuditVerdict("fraud", "clean", "no dc hit")]
        extended = with_audit_spans(build_trace(), verdicts, at=102.0)
        classify = extended.spans_named("audit.classify")
        assert len(classify) == 1
        assert classify[0].attr("audit") == "fraud"
        assert classify[0].parent_id == extended.root.span_id

    def test_render_explain_includes_header_tree_and_verdicts(self):
        verdicts = [AuditVerdict("viewability", "viewable", "2.0s"),
                    AuditVerdict("fraud", "clean", "no dc hit")]
        rendered = render_explain(build_trace(), verdicts,
                                  header_lines=["  extra header"])
        assert "Impression receipt" in rendered
        assert "impression #7 · record #3" in rendered
        assert "extra header" in rendered
        assert "audit.classify" in rendered
        assert "Audit verdicts" in rendered
        assert "viewable" in rendered
