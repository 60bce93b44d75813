"""Deterministic impression-lifecycle tracing.

The paper's methodology is *following one impression end to end*: the ad
network decides to serve, the creative renders, the beacon phones home
over WebSocket, the collector commits a row, and the audits pass verdicts
on that row.  :mod:`repro.obs.metrics` made each stage countable; this
module makes each impression *narratable* — every delivered impression
owns a trace of typed spans (``auction.decide``, ``pacing.gate``,
``creative.serve``, ``beacon.render``, ``transport.connect``,
``ws.frame``, ``collector.ingest``, ``enrich.geo``, ``audit.classify``)
that reconstructs exactly which chain of events produced (or failed to
produce) its collector record.

The same two rules that keep the metrics reproducible apply here:

* **Determinism.**  A trace id is a pure function of (seed, shard scope,
  impression id) via :func:`repro.util.hashing.stable_hash` — never of
  wall-clock entropy — and every span instant comes from the simulated
  clock domain (pageview timestamps, server-side connection instants).
  Wall-domain timings stay in :mod:`repro.obs.timing`, outside this
  module entirely.

* **Canonical merge.**  Each shard keeps its traces in a bounded
  head/tail-sampled :class:`FlightRecorder` whose retention is a pure
  function of the shard's own commit sequence; the experiment merge
  folds the per-shard trace sets in canonical plan order, exactly like
  :class:`~repro.obs.metrics.MetricsSnapshot`.  Serial and ``--jobs N``
  runs therefore retain the identical trace set.

* **Pay for use.**  Recording is opt-in per run: the runners record only
  when asked (the CLI asks for ``--trace-json``, ``--trace-jsonl`` and
  ``explain``).  An untraced shard's :class:`Tracer` has no recorder and
  keeps only the sim-time bookkeeping, so the instants it reports to
  other components are the same with tracing on or off.

Depends only on the standard library and ``repro.util.hashing``; every
other package may import ``repro.obs.trace`` without creating a cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.util.hashing import stable_hash

#: Default flight-recorder bounds: per shard, the first ``head`` traces
#: are pinned and the last ``tail`` ride a ring buffer; whatever falls in
#: between at higher scales is dropped (and counted).
DEFAULT_HEAD_TRACES = 2048
DEFAULT_TAIL_TRACES = 2048


class TraceError(RuntimeError):
    """Misuse of the tracing API (unbalanced spans, duplicate starts)."""


def trace_id_for(seed: int, scope: str, impression_id: int) -> str:
    """Stable 16-hex trace id for one impression.

    A pure function of the experiment seed, the shard's scope string and
    the impression's shard-local id — the same impression gets the same
    trace id in every run at that seed, serial or parallel, which is what
    lets ``python -m repro explain`` find it again.
    """
    return format(stable_hash(str(seed), scope, str(impression_id),
                              bits=64), "016x")


def _attr_str(value: object) -> str:
    """Deterministic string form for span attribute values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _freeze_attrs(attrs: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple((key, _attr_str(value)) for key, value in attrs.items())


@dataclass(frozen=True)
class SpanRecord:
    """One typed span of a trace (an instant when ``start == end``).

    Span ids are assigned in begin order within their trace, so sorting
    by ``span_id`` recovers document order; ``parent_id`` is ``None``
    only for the root span.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attrs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise TraceError(
                f"span {self.name} ends before it starts "
                f"({self.end} < {self.start})")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str) -> Optional[str]:
        """Value of one attribute (None when absent)."""
        for name, value in self.attrs:
            if name == key:
                return value
        return None


@dataclass(frozen=True)
class TraceRecord:
    """One impression's complete, immutable span tree.

    ``impression_id`` and ``record_id`` are shard-local at commit time;
    the experiment merge rewrites both with the canonical global offsets
    (the same renumbering the impression list and the store undergo), so
    a merged trace is addressable by the ids the auditor actually sees.
    """

    trace_id: str
    shard_scope: str
    impression_id: int
    campaign_id: str
    record_id: Optional[int] = None
    spans: tuple[SpanRecord, ...] = ()

    @property
    def root(self) -> SpanRecord:
        if not self.spans:
            raise TraceError(f"trace {self.trace_id} has no spans")
        return self.spans[0]

    def children_of(self, span_id: Optional[int]) -> list[SpanRecord]:
        """Direct children of one span, in document order."""
        return [span for span in self.spans if span.parent_id == span_id]

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [span for span in self.spans if span.name == name]


@dataclass
class _OpenSpan:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    attrs: tuple[tuple[str, str], ...]


class Tracer:
    """Builds one pending trace at a time and commits it to a recorder.

    The shard loop drives the lifecycle: :meth:`start` opens the pending
    trace at the pageview, instrumented components add spans/events while
    the impression flows through them, and the loop either
    :meth:`commit`\\ s (impression delivered) or :meth:`abandon`\\ s
    (pageview produced nothing).  Every span method is a silent no-op
    while no trace is pending, so instrumented components behave
    identically when constructed standalone.

    Built with no *recorder* the tracer is *untraced*: every method still
    runs, but does only the sim-now bookkeeping (:attr:`now` and the span
    nesting depth) — no span record is built and no attribute is frozen.
    Components read :attr:`now` to timestamp journal events, so an
    untraced run reports exactly the same instants as a traced one.
    """

    def __init__(self, recorder: "FlightRecorder | None" = None,
                 seed: int = 0, scope: str = "") -> None:
        self.recorder = recorder
        self.seed = seed
        self.scope = scope
        self._spans: list[SpanRecord] = []
        self._stack: list[_OpenSpan] = []
        self._depth = 0
        self._next_span_id = 0
        self._active = False
        self._now = 0.0
        self._last_end = 0.0
        self._impression_id: Optional[int] = None
        self._campaign_id = ""
        self._record_id: Optional[int] = None

    # -- lifecycle ----------------------------------------------------- #

    @property
    def active(self) -> bool:
        """Is a trace pending?"""
        return self._active

    @property
    def now(self) -> float:
        """The last simulated instant an instrumentation point reported."""
        return self._now

    def advance_to(self, instant: float) -> None:
        """Move the tracer's notion of sim-time forward (never back)."""
        if instant > self._now:
            self._now = instant

    def start(self, name: str, at: float, **attrs: object) -> None:
        """Open the pending trace with its root span."""
        if self._active:
            raise TraceError("a trace is already pending; commit or "
                             "abandon it before starting another")
        self._active = True
        self._now = at
        self._last_end = at
        self._push(name, at, attrs)

    def set_impression(self, impression_id: int, campaign_id: str) -> None:
        """Record the impression identity the pending trace belongs to."""
        if not self._active:
            return
        self._impression_id = impression_id
        self._campaign_id = campaign_id

    def set_record(self, record_id: int) -> None:
        """Record the collector row the pending trace produced."""
        if self._active:
            self._record_id = record_id

    def commit(self, end: Optional[float] = None) -> Optional[TraceRecord]:
        """Seal the pending trace and hand it to the flight recorder.

        Any spans still open (including the root) are closed at *end*,
        which defaults to the latest span end observed.  Requires the
        impression identity to have been set — a trace is committed only
        once an impression actually exists.
        """
        if not self._active:
            return None
        if self._impression_id is None:
            raise TraceError("cannot commit a trace without an impression "
                             "identity; call set_impression first")
        if self.recorder is None:
            self._reset()
            return None
        close_at = end if end is not None else self._last_end
        while self._stack:
            self._pop(max(close_at, self._stack[-1].start))
        trace = TraceRecord(
            trace_id=trace_id_for(self.seed, self.scope, self._impression_id),
            shard_scope=self.scope,
            impression_id=self._impression_id,
            campaign_id=self._campaign_id,
            record_id=self._record_id,
            spans=tuple(sorted(self._spans, key=lambda span: span.span_id)),
        )
        self._reset()
        self.recorder.record(trace)
        return trace

    def abandon(self) -> None:
        """Discard the pending trace (the pageview produced nothing)."""
        self._reset()

    def _reset(self) -> None:
        self._spans = []
        self._stack = []
        self._depth = 0
        self._next_span_id = 0
        self._active = False
        self._impression_id = None
        self._campaign_id = ""
        self._record_id = None

    # -- span recording ------------------------------------------------ #

    def begin(self, name: str, at: float, **attrs: object) -> None:
        """Open a nested span; children attach until :meth:`end`."""
        if not self._active:
            return
        self.advance_to(at)
        self._push(name, at, attrs)

    def end(self, at: float) -> None:
        """Close the innermost open span (the root only closes at commit)."""
        if not self._active or self._depth <= 1:
            return
        self.advance_to(at)
        self._pop(at)

    def span(self, name: str, start: float, end: float,
             **attrs: object) -> None:
        """Record one complete span under the innermost open span."""
        if not self._active:
            return
        self.advance_to(end)
        if self.recorder is None:
            return
        self._last_end = max(self._last_end, end)
        parent = self._stack[-1].span_id if self._stack else None
        self._spans.append(SpanRecord(
            span_id=self._take_id(), parent_id=parent, name=name,
            start=start, end=end, attrs=_freeze_attrs(attrs)))

    def event(self, name: str, at: float, **attrs: object) -> None:
        """Record an instantaneous span."""
        self.span(name, at, at, **attrs)

    def _push(self, name: str, at: float,
              attrs: dict[str, object]) -> None:
        self._depth += 1
        if self.recorder is None:
            return
        parent = self._stack[-1].span_id if self._stack else None
        self._stack.append(_OpenSpan(
            span_id=self._take_id(), parent_id=parent, name=name,
            start=at, attrs=_freeze_attrs(attrs)))

    def _pop(self, at: float) -> None:
        self._depth -= 1
        if self.recorder is None:
            return
        open_span = self._stack.pop()
        end = max(at, open_span.start)
        self._last_end = max(self._last_end, end)
        self._spans.append(SpanRecord(
            span_id=open_span.span_id, parent_id=open_span.parent_id,
            name=open_span.name, start=open_span.start, end=end,
            attrs=open_span.attrs))

    def _take_id(self) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id


class NullTracer(Tracer):
    """A tracer that records nothing; the default for standalone parts.

    Every method is a no-op, so ``tracer or NULL_TRACER`` keeps the
    instrumentation sites branch-free.
    """

    def __init__(self) -> None:
        super().__init__()

    def start(self, name: str, at: float, **attrs: object) -> None:
        return

    def set_impression(self, impression_id: int, campaign_id: str) -> None:
        return

    def set_record(self, record_id: int) -> None:
        return

    def commit(self, end: Optional[float] = None) -> Optional[TraceRecord]:
        return None

    def begin(self, name: str, at: float, **attrs: object) -> None:
        return

    def end(self, at: float) -> None:
        return

    def span(self, name: str, start: float, end: float,
             **attrs: object) -> None:
        return

    def event(self, name: str, at: float, **attrs: object) -> None:
        return

    def advance_to(self, instant: float) -> None:
        return


@dataclass
class FlightRecorder:
    """Bounded head/tail trace retention — the in-memory black box.

    The first ``head`` committed traces are pinned; after that the last
    ``tail`` ride a ring buffer and everything squeezed out in between is
    dropped (and counted).  Retention is a pure function of the commit
    sequence, so per-shard recorders keep identical trace sets however
    the shards are scheduled.  ``head=None`` disables the bound — the
    merged experiment recorder uses that, since its input is already the
    concatenation of bounded per-shard sets in canonical plan order.
    """

    head: Optional[int] = DEFAULT_HEAD_TRACES
    tail: int = DEFAULT_TAIL_TRACES
    committed: int = 0
    dropped: int = 0
    _head: list[TraceRecord] = field(default_factory=list)
    _tail: deque = field(default_factory=deque)
    #: Lazy record_id → retained position cache; positions are stable
    #: between commits (head is append-only, tail only shifts on the
    #: evictions a commit causes), and any commit invalidates the cache.
    _record_index: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.head is not None and self.head < 0:
            raise ValueError("head must be non-negative (or None)")
        if self.tail < 0:
            raise ValueError("tail must be non-negative")
        self._tail = deque(self._tail, maxlen=self.tail or None)

    def record(self, trace: TraceRecord) -> None:
        """Retain one committed trace under the head/tail policy."""
        self.committed += 1
        self._record_index = None
        if self.head is None or len(self._head) < self.head:
            self._head.append(trace)
            return
        if self.tail == 0:
            self.dropped += 1
            return
        if len(self._tail) == self.tail:
            self.dropped += 1
        self._tail.append(trace)

    def absorb(self, traces: Iterable[TraceRecord]) -> None:
        """Fold already-committed traces in, in the iteration order given."""
        for trace in traces:
            self.record(trace)

    def __len__(self) -> int:
        return len(self._head) + len(self._tail)

    def traces(self) -> tuple[TraceRecord, ...]:
        """Every retained trace, in commit order."""
        return tuple(self._head) + tuple(self._tail)

    # -- lookup -------------------------------------------------------- #

    def find(self, trace_id: str) -> Optional[TraceRecord]:
        for trace in self.traces():
            if trace.trace_id == trace_id:
                return trace
        return None

    def _positions(self) -> dict:
        if self._record_index is None:
            self._record_index = {
                trace.record_id: position
                for position, trace in enumerate(self.traces())
                if trace.record_id is not None}
        return self._record_index

    def _at(self, position: int) -> TraceRecord:
        if position < len(self._head):
            return self._head[position]
        return self._tail[position - len(self._head)]

    def _set_at(self, position: int, trace: TraceRecord) -> None:
        if position < len(self._head):
            self._head[position] = trace
        else:
            self._tail[position - len(self._head)] = trace

    def find_by_record(self, record_id: int) -> Optional[TraceRecord]:
        """The trace that produced one collector record."""
        position = self._positions().get(record_id)
        return None if position is None else self._at(position)

    def find_by_impression(self, impression_id: int) -> Optional[TraceRecord]:
        """The trace of one delivered impression."""
        for trace in self.traces():
            if trace.impression_id == impression_id:
                return trace
        return None

    # -- post-hoc annotation ------------------------------------------- #

    def annotate(self, record_id: int, name: str, at: float,
                 **attrs: object) -> bool:
        """Append a span to the retained trace of one record.

        Offline pipeline stages (enrichment runs after the merge, on the
        assembled store) use this to extend committed traces; the span
        lands as a child of the root.  Returns False when the record's
        trace was never retained.
        """
        position = self._positions().get(record_id)
        if position is None:
            return False
        trace = self._at(position)
        span = SpanRecord(
            span_id=max(span.span_id for span in trace.spans) + 1
            if trace.spans else 0,
            parent_id=trace.root.span_id if trace.spans else None,
            name=name, start=at, end=at, attrs=_freeze_attrs(attrs))
        self._set_at(position, replace(trace, spans=trace.spans + (span,)))
        return True


#: Shared do-nothing tracer for components built without one.
NULL_TRACER = NullTracer()
