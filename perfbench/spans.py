"""Outside-in span recording for the benchmark's traced run.

The traced run times calls into each layer's public entry points from
outside the program: :func:`install` replaces those entry points with
wrappers that record one span per call (name, start, end, parent) into a
:class:`SpanLog`.  Nothing under ``src/`` knows it is being traced.

A layer is a package under ``src/repro``; a span's layer is the part of
its name before the first dot.  Self time is a span's duration minus the
time covered by its child spans, computed after the run from the
recorded spans (:func:`aggregate`).

Pool workers inherit the wrappers through ``fork``.  Each worker starts
an empty log of its own and appends its spans to a per-process file after
every shard; the parent reads them back with :func:`read_worker_spans`.
"""

from __future__ import annotations

import array
import gzip
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path

#: Span outcome flags.
RAISED, NONE, VALUE = 0, 1, 2


class SpanLog:
    """Spans of one process, in start order, as parallel arrays."""

    def __init__(self, worker_dir: Path) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array.array("H")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.flags = array.array("b")
        # -1 is the root: spans opened with no traced call around them.
        self.stack = [-1]
        #: The process that created the log, and the one it records now.
        self.home_pid = self.pid = os.getpid()
        self.worker_dir = worker_dir
        self._flushed = 0
        #: Bytes handed to ``unpack_shard_output`` (parent side only).
        self.wire_bytes = 0
        #: Records ``Enricher.enrich_store`` reported enriching.
        self.enriched = 0

    def __len__(self) -> int:
        return len(self.parents)

    def traced(self, name: str, fn):
        """Wrap *fn* so each call records one span named *name*.

        The clock is read right around the call, so the bookkeeping lands
        in the parent's self time, not in the span.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter
        stack = self.stack
        push, pop = stack.append, stack.pop
        add_parent, add_name = self.parents.append, self.name_ids.append
        add_start, add_end = self.starts.append, self.ends.append
        add_flag = self.flags.append
        ends, flags = self.ends, self.flags

        def wrapper(*args, **kwargs):
            index = len(flags)
            add_parent(stack[-1])
            add_name(name_id)
            add_end(0.0)
            add_flag(RAISED)
            push(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()
            flags[index] = NONE if result is None else VALUE
            return result

        return wrapper

    def traced_iterator(self, name: str, make, step_name: str):
        """Wrap an iterator factory: span its creation and every ``next()``.

        The final ``next()`` that raises ``StopIteration`` is recorded
        with the ``RAISED`` flag, so counting ``VALUE`` steps counts items.
        """
        make = self.traced(name, make)

        def wrapper(*args, **kwargs):
            step = self.traced(step_name, iter(make(*args, **kwargs)).__next__)
            # iter(callable, sentinel) stops on StopIteration from step.
            return iter(step, _NEVER)

        return wrapper

    # -- worker processes ------------------------------------------------ #

    def adopt_process(self) -> None:
        """Start an empty log when called first in a forked worker."""
        pid = os.getpid()
        if pid == self.pid:
            return
        self.pid = pid
        for column in (self.name_ids, self.parents, self.starts,
                       self.ends, self.flags):
            del column[:]
        self.stack[:] = [-1]
        self._flushed = 0

    def flush_worker(self) -> None:
        """Append the spans recorded since the last flush to this
        worker's file.  Called between shards, when no span is open."""
        lo, hi = self._flushed, len(self)
        chunk = (self.names, lo, self.name_ids[lo:hi], self.parents[lo:hi],
                 self.starts[lo:hi], self.ends[lo:hi], self.flags[lo:hi])
        with open(self.worker_dir / f"worker-{self.pid}.pkl", "ab") as out:
            pickle.dump(chunk, out, protocol=pickle.HIGHEST_PROTOCOL)
        self._flushed = hi


_NEVER = object()


def install(log: SpanLog) -> None:
    """Wrap every layer's entry points so calls record into *log*."""
    from repro.adnetwork.server import AdServer
    from repro.beacon.client import BeaconClient
    from repro.beacon.script import BeaconScript
    from repro.collector.enrich import Enricher
    from repro.collector.server import CollectorServer
    from repro.experiments import parallel
    from repro.experiments.runner import ShardMerger
    from repro.net.transport import SimulatedNetwork
    from repro.obs.trace import Tracer
    from repro.web.browsing import BrowsingSimulator

    BrowsingSimulator.stream = log.traced_iterator(
        "web.stream", BrowsingSimulator.stream, "web.next")
    AdServer.serve = log.traced("adnetwork.serve", AdServer.serve)
    for method in ("start", "commit", "abandon", "begin", "end", "span",
                   "event"):
        setattr(Tracer, method,
                log.traced(f"obs.{method}", getattr(Tracer, method)))
    BeaconScript.observe = log.traced("beacon.observe", BeaconScript.observe)
    BeaconClient.deliver = log.traced("beacon.deliver", BeaconClient.deliver)
    SimulatedNetwork.connect = log.traced("net.connect",
                                          SimulatedNetwork.connect)
    CollectorServer.process = log.traced("collector.process",
                                         CollectorServer.process)

    enrich = log.traced("collector.enrich", Enricher.enrich_store)

    def enrich_store(self, store):
        count = enrich(self, store)
        log.enriched += count
        return count

    Enricher.enrich_store = enrich_store

    parallel.build_world = log.traced("experiments.world_build",
                                      parallel.build_world)
    shard = log.traced("experiments.shard", parallel.run_shard)

    def run_shard(*args, **kwargs):
        log.adopt_process()
        try:
            return shard(*args, **kwargs)
        finally:
            if log.pid != log.home_pid:
                log.flush_worker()

    parallel.run_shard = run_shard
    ShardMerger.fold = log.traced("experiments.fold", ShardMerger.fold)
    ShardMerger.result = log.traced("experiments.finalize",
                                    ShardMerger.result)
    unpack = log.traced("experiments.wire_unpack",
                        parallel.unpack_shard_output)

    def unpack_shard_output(blob, *args, **kwargs):
        log.wire_bytes += len(blob)
        return unpack(blob, *args, **kwargs)

    parallel.unpack_shard_output = unpack_shard_output
    parallel.ParallelExperimentRunner._run_pooled = log.traced(
        "experiments.pool", parallel.ParallelExperimentRunner._run_pooled)


# ---------------------------------------------------------------------- #
# reading spans back
# ---------------------------------------------------------------------- #


class SpanTable:
    """One worker's spans, read back from its file.

    Has the same span attributes as :class:`SpanLog`, so a parent's log
    and its workers' tables aggregate and export alike.
    """

    def __init__(self, pid: int, names: list[str]) -> None:
        self.pid = pid
        self.names = names
        self.name_ids = array.array("H")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.flags = array.array("b")


def read_worker_spans(worker_dir: Path) -> list[SpanTable]:
    """Load every worker's span file written by :meth:`SpanLog.flush_worker`."""
    tables = []
    for path in sorted(worker_dir.glob("worker-*.pkl")):
        table = SpanTable(int(path.stem.split("-")[1]), [])
        with open(path, "rb") as source:
            while True:
                try:
                    names, lo, name_ids, parents, starts, ends, flags = \
                        pickle.load(source)
                except EOFError:
                    break
                if lo != len(table.parents):
                    raise ValueError(f"{path}: span chunk out of order")
                table.names = names
                table.name_ids.extend(name_ids)
                table.parents.extend(parents)
                table.starts.extend(starts)
                table.ends.extend(ends)
                table.flags.extend(flags)
        tables.append(table)
    return tables


class NameStats:
    """Totals over every span of one name."""

    __slots__ = ("calls", "values", "nones", "total_s", "self_s", "max_s")

    def __init__(self) -> None:
        self.calls = self.values = self.nones = 0
        self.total_s = self.self_s = self.max_s = 0.0


def aggregate(tables: list) -> dict[str, NameStats]:
    """Per span name: calls, outcomes, total, self and longest duration.

    Self time is duration minus the time covered by child spans.  Spans
    of one process nest strictly (one thread), so the covered time is the
    sum of the direct children's durations.
    """
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for table in tables:
        starts, ends, parents = table.starts, table.ends, table.parents
        durations = [end - start for start, end in zip(starts, ends)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[index]
        per_id = [NameStats() for _ in table.names]
        for index, name_id in enumerate(table.name_ids):
            entry = per_id[name_id]
            duration = durations[index]
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += duration - covered[index]
            if duration > entry.max_s:
                entry.max_s = duration
            flag = table.flags[index]
            if flag == VALUE:
                entry.values += 1
            elif flag == NONE:
                entry.nones += 1
        for name, entry in zip(table.names, per_id):
            into = stats[name]
            into.calls += entry.calls
            into.values += entry.values
            into.nones += entry.nones
            into.total_s += entry.total_s
            into.self_s += entry.self_s
            into.max_s = max(into.max_s, entry.max_s)
    return stats


def write_spans(tables: list, path: Path) -> None:
    """Write every span as gzipped CSV: pid, id, parent, name, start, end.

    ``parent`` is -1 for a span with no traced caller; ids and parents
    index spans within one pid.  Times are ``perf_counter`` seconds.
    """
    with gzip.open(path, "wt", compresslevel=1, newline="") as out:
        out.write("pid,id,parent,name,start,end\n")
        for table in tables:
            names = table.names
            pid = table.pid
            out.writelines(
                f"{pid},{index},{parent},{names[name_id]},{start:.9f},{end:.9f}\n"
                for index, (parent, name_id, start, end) in enumerate(zip(
                    table.parents, table.name_ids, table.starts, table.ends)))
