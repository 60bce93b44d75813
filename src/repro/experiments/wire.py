"""Compact wire format for :class:`ShardOutput` crossing process boundaries.

A naively pickled ``ShardOutput`` is dominated by per-object overhead and
repeated strings: every span repeats its name and attribute keys, every
store record repeats its JSON field names, every impression drags a full
``Publisher`` and budget-scaled ``CampaignSpec`` along — none of which
the parent process needs verbatim, because all of it is either drawn
from a small vocabulary or reconstructible from the (config, world) the
parent already holds.

This module packs the output column-wise instead:

* one shard-wide **string table** interns every repeated string (span
  names, attribute keys/values, campaign ids, domains, URLs, IPs, UAs)
  so each appears once, with ``array``-typed index columns pointing in;
* **traces** (traced runs only; an untraced shard ships none and the
  frame carries no trace columns) become flat parallel arrays over spans
  (parent/name/start/end/attr-count) plus an instant table deduplicating
  timestamps; trace ids are *not* transmitted at all — they are a pure
  function of (seed, scope, impression id) and are recomputed on unpack;
* **impressions** shed their nested ``CampaignSpec`` and ``Publisher``:
  only the campaign id and publisher domain cross the wire, and
  :func:`unpack_shard_output` re-attaches the parent world's own objects
  (value-identical, and shared instead of per-shard copies);
* the **store** crosses as its raw column payload
  (:meth:`ImpressionStore.export_columns`) — already ``array``-typed on
  both sides, so the only translation is folding the store's private
  string table into the shard-wide one (and back);
* the packed structure is pickled once and zlib-compressed.

The result is an order of magnitude smaller than ``pickle.dumps`` of the
same output (pinned by a size-budget test), which turns the parallel
runner's result shipping from a per-shard megabyte stream into tens of
kilobytes.  ``unpack_shard_output(pack_shard_output(out), config, world)``
is value-equal to ``out`` field for field — the serial-vs-parallel
byte-identical equivalence tests pin that end to end.
"""

from __future__ import annotations

import pickle
import zlib
from array import array
from dataclasses import replace

from repro.adnetwork.matching import MatchDecision, MatchReason
from repro.adnetwork.server import DeliveredImpression
from repro.adnetwork.viewability import Exposure
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ShardOutput,
    World,
    _budget_divisor,
)
from repro.obs.trace import SpanRecord, TraceRecord, trace_id_for
from repro.web.browsing import Pageview

#: Wire format version; unpack refuses anything it does not know.
#: v2 appended the shard's telemetry journal (events, events_dropped)
#: to the tail tuple.  v3 replaced the parsed-JSONL store section with
#: the store's raw column payload (strings routed through the frame's
#: interner), so the merge folds columns directly instead of re-parsing
#: JSONL per shard.  v4 ships ``None`` in place of the trace columns when
#: the shard was untraced.
WIRE_VERSION = 4

_COMPRESS_LEVEL = 6


class WireFormatError(ValueError):
    """A packed shard frame failed structural validation."""


class _Interner:
    """Appends-only string table; returns a stable index per string."""

    __slots__ = ("_index",)

    def __init__(self) -> None:
        self._index: dict[str, int] = {}

    def __call__(self, text: str) -> int:
        index = self._index.get(text)
        if index is None:
            index = len(self._index)
            self._index[text] = index
        return index

    def table(self) -> tuple[str, ...]:
        return tuple(self._index)


def _pack_traces(traces, intern):
    """Column-pack a shard's trace set (ids recomputed on unpack)."""
    instants: dict[float, int] = {}

    def instant(value: float) -> int:
        index = instants.get(value)
        if index is None:
            index = len(instants)
            instants[value] = index
        return index

    tr_impression = array("q")
    tr_record = array("q")          # -1 encodes None
    tr_campaign = array("I")
    tr_span_count = array("I")
    sp_parent = array("i")          # -1 encodes None
    sp_name = array("I")
    sp_start = array("I")
    sp_end = array("I")
    sp_attr_count = array("I")
    attr_key = array("I")
    attr_value = array("I")
    for trace in traces:
        tr_impression.append(trace.impression_id)
        tr_record.append(-1 if trace.record_id is None else trace.record_id)
        tr_campaign.append(intern(trace.campaign_id))
        tr_span_count.append(len(trace.spans))
        for span in trace.spans:
            sp_parent.append(-1 if span.parent_id is None else span.parent_id)
            sp_name.append(intern(span.name))
            sp_start.append(instant(span.start))
            sp_end.append(instant(span.end))
            sp_attr_count.append(len(span.attrs))
            for key, value in span.attrs:
                attr_key.append(intern(key))
                attr_value.append(intern(value))
    return (array("d", instants), tr_impression, tr_record, tr_campaign,
            tr_span_count, sp_parent, sp_name, sp_start, sp_end,
            sp_attr_count, attr_key, attr_value)


def _unpack_traces(packed, table, seed: int,
                   scope: str) -> tuple[TraceRecord, ...]:
    (instants, tr_impression, tr_record, tr_campaign, tr_span_count,
     sp_parent, sp_name, sp_start, sp_end, sp_attr_count,
     attr_key, attr_value) = packed
    traces = []
    span_cursor = 0
    attr_cursor = 0
    for position in range(len(tr_impression)):
        spans = []
        for span_id in range(tr_span_count[position]):
            offset = span_cursor + span_id
            count = sp_attr_count[offset]
            attrs = tuple(
                (table[attr_key[attr_cursor + pair]],
                 table[attr_value[attr_cursor + pair]])
                for pair in range(count))
            attr_cursor += count
            parent = sp_parent[offset]
            spans.append(SpanRecord(
                span_id=span_id,
                parent_id=None if parent < 0 else parent,
                name=table[sp_name[offset]],
                start=instants[sp_start[offset]],
                end=instants[sp_end[offset]],
                attrs=attrs))
        span_cursor += tr_span_count[position]
        impression_id = tr_impression[position]
        record = tr_record[position]
        traces.append(TraceRecord(
            trace_id=trace_id_for(seed, scope, impression_id),
            shard_scope=scope,
            impression_id=impression_id,
            campaign_id=table[tr_campaign[position]],
            record_id=None if record < 0 else record,
            spans=tuple(spans)))
    return tuple(traces)


def _pack_impressions(impressions, intern):
    """Column-pack delivered impressions, shedding nested world objects."""
    imp_id = array("q")
    campaign = array("I")
    pv_timestamp = array("d")
    pv_publisher = array("I")
    pv_url = array("I")
    pv_ip = array("I")
    pv_ua = array("I")
    pv_country = array("I")
    pv_interest_count = array("I")
    pv_interest = array("I")
    pv_dwell = array("d")
    pv_is_bot = bytearray()
    pv_visitor = array("q")
    ex_render_delay = array("d")
    ex_seconds = array("d")
    ex_pixels = bytearray()
    match_eligible = bytearray()
    match_reason = array("I")
    clearing = array("d")
    for impression in impressions:
        pageview = impression.pageview
        imp_id.append(impression.impression_id)
        campaign.append(intern(impression.campaign.campaign_id))
        pv_timestamp.append(pageview.timestamp)
        pv_publisher.append(intern(pageview.publisher.domain))
        pv_url.append(intern(pageview.url))
        pv_ip.append(intern(pageview.ip))
        pv_ua.append(intern(pageview.user_agent))
        pv_country.append(intern(pageview.country))
        pv_interest_count.append(len(pageview.interests))
        pv_interest.extend(intern(topic) for topic in pageview.interests)
        pv_dwell.append(pageview.dwell_seconds)
        pv_is_bot.append(1 if pageview.is_bot else 0)
        pv_visitor.append(pageview.visitor_id)
        ex_render_delay.append(impression.exposure.render_delay)
        ex_seconds.append(impression.exposure.exposure_seconds)
        ex_pixels.append(1 if impression.exposure.pixels_in_view else 0)
        match_eligible.append(1 if impression.match.eligible else 0)
        match_reason.append(intern(impression.match.reason.value))
        clearing.append(impression.clearing_cpm)
    return (imp_id, campaign, pv_timestamp, pv_publisher, pv_url, pv_ip,
            pv_ua, pv_country, pv_interest_count, pv_interest, pv_dwell,
            bytes(pv_is_bot), pv_visitor, ex_render_delay, ex_seconds,
            bytes(ex_pixels), bytes(match_eligible), match_reason, clearing)


def _unpack_impressions(packed, table, specs_by_id, publishers_by_domain):
    (imp_id, campaign, pv_timestamp, pv_publisher, pv_url, pv_ip, pv_ua,
     pv_country, pv_interest_count, pv_interest, pv_dwell, pv_is_bot,
     pv_visitor, ex_render_delay, ex_seconds, ex_pixels, match_eligible,
     match_reason, clearing) = packed
    impressions = []
    interest_cursor = 0
    for position in range(len(imp_id)):
        count = pv_interest_count[position]
        interests = tuple(table[pv_interest[interest_cursor + offset]]
                          for offset in range(count))
        interest_cursor += count
        pageview = Pageview(
            timestamp=pv_timestamp[position],
            publisher=publishers_by_domain[table[pv_publisher[position]]],
            url=table[pv_url[position]],
            ip=table[pv_ip[position]],
            user_agent=table[pv_ua[position]],
            country=table[pv_country[position]],
            interests=interests,
            dwell_seconds=pv_dwell[position],
            is_bot=bool(pv_is_bot[position]),
            visitor_id=pv_visitor[position])
        impressions.append(DeliveredImpression(
            impression_id=imp_id[position],
            campaign=specs_by_id[table[campaign[position]]],
            pageview=pageview,
            exposure=Exposure(
                render_delay=ex_render_delay[position],
                exposure_seconds=ex_seconds[position],
                pixels_in_view=bool(ex_pixels[position])),
            match=MatchDecision(
                eligible=bool(match_eligible[position]),
                reason=MatchReason(table[match_reason[position]])),
            clearing_cpm=clearing[position]))
    return impressions


def _pack_store(payload: tuple, intern: _Interner):
    """Store column payload → wire section, strings routed via *intern*.

    The payload arrives already ``array``-typed from
    :meth:`ImpressionStore.export_columns`; the store's private string
    table is folded into the shard-wide one so campaign ids, domains,
    UAs etc. shared with traces and impressions cross the wire once.
    """
    if not isinstance(payload, tuple) or len(payload) != 23:
        raise WireFormatError("malformed store column payload")
    strings = payload[2]
    refs = array("I", (intern(text) for text in strings))
    return (payload[0], payload[1], refs) + payload[3:]


def _unpack_store(packed, table) -> tuple:
    if not isinstance(packed, tuple) or len(packed) != 23:
        raise WireFormatError("malformed store column section")
    refs = packed[2]
    strings = tuple(table[index] for index in refs)
    return (packed[0], packed[1], strings) + packed[3:]


def scaled_campaign_specs(config: ExperimentConfig, shard) -> dict:
    """The budget-scaled campaign specs a shard ran against, by id.

    Reproduces exactly what :func:`repro.experiments.runner.run_shard`
    builds, so unpacked impressions carry value-identical specs without
    those specs ever crossing the process boundary.
    """
    specs = {}
    for plan in config.campaigns:
        spec = plan.spec
        scaled = spec.daily_budget_eur / _budget_divisor(config, spec)
        specs[spec.campaign_id] = replace(spec, daily_budget_eur=scaled)
    return specs


def pack_shard_output(output: ShardOutput) -> bytes:
    """Serialise one shard output into the compact wire frame."""
    intern = _Interner()
    traces = _pack_traces(output.traces, intern) if output.traces else None
    impressions = _pack_impressions(output.impressions, intern)
    store = _pack_store(output.store_columns, intern)
    frame = (
        WIRE_VERSION,
        output.shard,
        intern.table(),
        traces,
        impressions,
        store,
        (output.pageviews, output.prefiltered,
         output.script_blocked_publisher, output.script_blocked_browser,
         output.connect_failures, output.clicks, output.conversion_count,
         output.handshake_failures, output.malformed_messages,
         output.connections_without_hello, output.records_committed),
        # Small and already compact: ship these as-is.
        (output.conversions, output.billing, output.report_aggregates,
         output.metrics, output.coverage, output.quarantine,
         output.quarantine_dropped, output.events, output.events_dropped),
    )
    return zlib.compress(
        pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL),
        _COMPRESS_LEVEL)


def unpack_shard_output(blob: bytes, config: ExperimentConfig,
                        world: World) -> ShardOutput:
    """Rebuild a value-identical :class:`ShardOutput` from a wire frame.

    *config* supplies the seed (trace ids) and the campaign plans (the
    budget-scaled specs); *world* supplies the publisher objects — so the
    rebuilt impressions share the parent's world objects instead of
    duplicating them per shard.
    """
    try:
        frame = pickle.loads(zlib.decompress(blob))
    except (zlib.error, pickle.UnpicklingError, EOFError) as exc:
        raise WireFormatError(f"undecodable shard frame: {exc}") from exc
    if not isinstance(frame, tuple) or len(frame) != 8:
        raise WireFormatError("malformed shard frame")
    (version, shard, table, traces, impressions, store, counters,
     rest) = frame
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version!r} "
                              f"(expected {WIRE_VERSION})")
    specs_by_id = scaled_campaign_specs(config, shard)
    publishers_by_domain = {publisher.domain: publisher
                            for publisher in world.universe.publishers}
    (pageviews, prefiltered, script_blocked_publisher,
     script_blocked_browser, connect_failures, clicks, conversion_count,
     handshake_failures, malformed_messages, connections_without_hello,
     records_committed) = counters
    (conversions, billing, report_aggregates, metrics, coverage,
     quarantine, quarantine_dropped, events, events_dropped) = rest
    return ShardOutput(
        shard=shard,
        store_columns=_unpack_store(store, table),
        impressions=_unpack_impressions(impressions, table, specs_by_id,
                                        publishers_by_domain),
        conversions=conversions,
        billing=billing,
        report_aggregates=report_aggregates,
        pageviews=pageviews,
        prefiltered=prefiltered,
        script_blocked_publisher=script_blocked_publisher,
        script_blocked_browser=script_blocked_browser,
        connect_failures=connect_failures,
        clicks=clicks,
        conversion_count=conversion_count,
        handshake_failures=handshake_failures,
        malformed_messages=malformed_messages,
        connections_without_hello=connections_without_hello,
        records_committed=records_committed,
        metrics=metrics,
        traces=() if traces is None
        else _unpack_traces(traces, table, config.seed, shard.scope),
        coverage=coverage,
        quarantine=quarantine,
        quarantine_dropped=quarantine_dropped,
        events=events,
        events_dropped=events_dropped,
    )
