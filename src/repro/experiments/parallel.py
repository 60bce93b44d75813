"""Sharded parallel experiment runner.

Runs the shard plan of :mod:`repro.experiments.runner` across worker
processes.  The contract is strict determinism: at the same seed the
merged result is byte-for-byte identical to the serial runner's, whatever
``jobs`` is, because

* the shard plan is a pure function of the config (``shard_slices`` is a
  config field, never derived from the worker count),
* every shard draws only from RNG streams scoped to itself, and
* the merge consumes shard outputs in canonical plan order regardless of
  completion order.

The same contract covers observability: each ``ShardOutput`` carries the
shard's metrics snapshot *and*, on a traced run, its flight-recorder
trace set, and the merge folds both in canonical order (rewriting trace
impression/record ids with the same cumulative offsets the store merge
uses) — so ``--trace-json`` exports are byte-identical for any ``jobs``
value.

It also covers failure recovery: a shard that crashes (an injected
:class:`~repro.faults.plan.ShardCrashError`, or a worker process dying)
is re-executed up to ``shard_retries`` extra times — the attempt counter
feeds only the fault plan's crash decision, never an RNG stream, so a
recovered shard is byte-identical to one that never crashed.  A shard
that exhausts its retries is marked *lost* and the run degrades
gracefully: the merge proceeds without it and the coverage report names
the lost scope.  Serial (``jobs=1``) and pooled execution share the same
recovery policy, keeping their outputs identical even under crashes.
When a broken pool forces the inline fallback, each unsettled shard
resumes from the attempt it had already accrued — never from zero — so
the fault plan's per-attempt crash decisions stay consistent with the
pooled history.

Three things keep the pooled hot path cheap:

* **Warm workers.** The pool uses the explicit ``fork`` start method
  where the platform offers one, and the parent builds the world *before*
  creating the pool so children inherit the per-process cache
  copy-on-write.  On spawn-only platforms a pool initializer builds the
  world once per worker at startup instead of lazily on first task.
* **Compact wire format.** Workers return :func:`pack_shard_output`
  blobs (:mod:`repro.experiments.wire`) rather than whole pickled
  ``ShardOutput`` objects — an order of magnitude fewer bytes cross the
  process boundary per shard.
* **Merge-as-you-go.** Completed shards fold into a
  :class:`~repro.experiments.runner.ShardMerger` as soon as the canonical
  plan order allows, overlapping merge work with still-running shards
  instead of paying a post-hoc barrier.  Out-of-order completions wait in
  a buffer *as packed bytes* and are only unpacked at fold time.

Shards are submitted largest-first so the long poles start early (the
classic LPT heuristic) — a scheduling detail that cannot affect the
output.
"""

from __future__ import annotations

import functools
import multiprocessing
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.config import ExperimentConfig, paper_experiment
from repro.experiments.runner import (
    DEFAULT_SHARD_RETRIES,
    ExperimentResult,
    HeartbeatEmitter,
    ShardMerger,
    ShardOutput,
    ShardSpec,
    World,
    build_world,
    emit_plan_events,
    plan_shards,
    run_shard,
)
from repro.experiments.wire import pack_shard_output, unpack_shard_output
from repro.faults.plan import ShardCrashError
from repro.obs.events import EventLog
from repro.obs.memwatch import MemoryWatch

#: Per-process world cache.  ExperimentConfig is a frozen dataclass of
#: hashable parts, so the config itself is the key; a worker that serves
#: several shards of one experiment builds the world exactly once.
_WORLD_CACHE: dict[ExperimentConfig, World] = {}

#: Buffer marker for a shard that exhausted its retries in the pool.
_LOST = object()


def _world_for(config: ExperimentConfig) -> World:
    world = _WORLD_CACHE.get(config)
    if world is None:
        world = build_world(config)
        _WORLD_CACHE[config] = world
    return world


def _pool_context() -> multiprocessing.context.BaseContext:
    """The explicit ``fork`` context where the platform provides one.

    Forked workers inherit the parent's already-populated
    ``_WORLD_CACHE`` copy-on-write, so they start warm for free.  On
    spawn-only platforms the default context is used and
    :func:`_warm_worker` does the warm-up once per worker instead.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _warm_worker(config: ExperimentConfig) -> None:
    """Pool initializer: build the world once, at worker startup.

    Under fork this finds the inherited cache entry and is a no-op; under
    spawn it moves the world build out of the first task's latency.
    """
    _world_for(config)


def _run_shard_job(config: ExperimentConfig, shard: ShardSpec,
                   attempt: int = 0, trace: bool = False) -> ShardOutput:
    """Worker entry point: simulate one shard in this process."""
    return run_shard(config, shard, _world_for(config), attempt=attempt,
                     trace=trace)


def _run_shard_job_packed(config: ExperimentConfig, shard: ShardSpec,
                          attempt: int = 0, trace: bool = False) -> bytes:
    """Worker entry point returning the compact wire encoding.

    Packing on the worker side keeps the bytes crossing the process
    boundary an order of magnitude smaller than a pickled
    :class:`ShardOutput`; the parent unpacks lazily at fold time.
    """
    return pack_shard_output(_run_shard_job(config, shard, attempt=attempt,
                                            trace=trace))


def _run_recovering(config: ExperimentConfig, shard: ShardSpec,
                    world: World, retries: int, first_attempt: int = 0,
                    trace: bool = False) -> ShardOutput | None:
    """Run one shard in-process with crash recovery; None when lost.

    ``first_attempt`` resumes a shard that already burned attempts
    elsewhere (a crashed-then-resubmitted shard stranded by a broken
    pool) without resetting the fault plan's attempt counter.
    """
    for attempt in range(first_attempt, retries + 1):
        try:
            return run_shard(config, shard, world, attempt=attempt,
                             trace=trace)
        except ShardCrashError:
            continue
    return None


class ParallelExperimentRunner:
    """Executes one :class:`ExperimentConfig` across worker processes.

    ``jobs=1`` (the default) runs every shard in-process with no
    executor involved — the serial fallback.  Higher values bound the
    worker-process count (capped at the shard count).  ``shard_retries``
    bounds the crash-recovery re-executions granted to each shard before
    it is marked lost.  ``trace`` turns on the per-impression flight
    recorder (``result.recorder``), off by default.
    """

    def __init__(self, config: ExperimentConfig, jobs: int = 1,
                 shard_retries: int = DEFAULT_SHARD_RETRIES,
                 events: EventLog | None = None,
                 heartbeat_interval: float | None = None,
                 trace: bool = False) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if shard_retries < 0:
            raise ValueError("shard_retries must be non-negative")
        self.config = config
        self.jobs = jobs
        self.shard_retries = shard_retries
        self.events = events
        self.heartbeat_interval = heartbeat_interval
        self.trace = trace

    def run(self) -> ExperimentResult:
        config = self.config
        shards = plan_shards(config)
        events = self.events if self.events is not None else EventLog()
        memwatch = MemoryWatch()
        emit_plan_events(events, shards)
        heartbeat = HeartbeatEmitter(self.events, self.heartbeat_interval,
                                     shards, jobs=self.jobs)
        # Built before the pool exists: forked workers inherit it.
        with memwatch.stage("world_build"):
            world = _world_for(config)
        merger = ShardMerger(config, world, events=events, memwatch=memwatch)
        if self.jobs <= 1 or len(shards) <= 1:
            done_weight = 0.0
            for done, shard in enumerate(shards):
                heartbeat.pulse(done, done_weight, running=1,
                                queued=len(shards) - done - 1)
                output = _run_recovering(config, shard, world,
                                         self.shard_retries,
                                         trace=self.trace)
                if output is None:
                    merger.fold_lost(shard.scope, at=shard.end_unix)
                else:
                    merger.fold(output)
                done_weight += shard.weight
            heartbeat.pulse(len(shards), done_weight, force=True)
        else:
            self._run_pooled(shards, world, merger, heartbeat)
        return merger.result()

    def _run_pooled(self, shards: list[ShardSpec], world: World,
                    merger: ShardMerger,
                    heartbeat: HeartbeatEmitter) -> None:
        """Fan shards out to a warm process pool, folding as they settle.

        Settled shards are buffered as packed bytes and folded into
        ``merger`` the moment canonical plan order allows — the merge
        overlaps with still-running shards instead of waiting for all of
        them.  Crashed shards are resubmitted with an incremented
        attempt; if the pool itself breaks, the unsettled shards finish
        inline, each resuming from its recorded attempt.
        """
        config = self.config
        job = functools.partial(_run_shard_job_packed, trace=self.trace)
        workers = min(self.jobs, len(shards))
        submit_order = sorted(range(len(shards)),
                              key=lambda i: (-shards[i].weight, i))
        # index -> packed bytes | ShardOutput (inline fallback) | _LOST
        ready: dict[int, object] = {}
        attempts = [0] * len(shards)
        settled = [False] * len(shards)
        settled_count = 0
        settled_weight = 0.0
        next_fold = 0

        def settle(index: int, item: object) -> None:
            nonlocal settled_count, settled_weight
            ready[index] = item
            settled[index] = True
            settled_count += 1
            settled_weight += shards[index].weight

        def fold_ready() -> None:
            nonlocal next_fold
            while next_fold < len(shards) and next_fold in ready:
                item = ready.pop(next_fold)
                if item is _LOST:
                    merger.fold_lost(shards[next_fold].scope,
                                     at=shards[next_fold].end_unix)
                elif isinstance(item, bytes):
                    merger.fold(unpack_shard_output(item, config, world))
                else:
                    merger.fold(item)
                next_fold += 1

        try:
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=_pool_context(),
                    initializer=_warm_worker,
                    initargs=(config,)) as pool:
                pending = {
                    pool.submit(job, config, shards[index], 0): (index, 0)
                    for index in submit_order}
                while pending:
                    # The timeout keyword only appears when heartbeats are
                    # on: tests stub ``wait`` with a two-argument fake, and
                    # the plain path should match the historical call shape.
                    if heartbeat.enabled:
                        done, _ = wait(pending,
                                       timeout=heartbeat.interval,
                                       return_when=FIRST_COMPLETED)
                        running = min(len(pending), workers)
                        heartbeat.pulse(settled_count, settled_weight,
                                        running=running,
                                        queued=len(pending) - running,
                                        merge_buffer=len(ready))
                    else:
                        done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index, attempt = pending.pop(future)
                        try:
                            settle(index, future.result())
                        except ShardCrashError:
                            if attempt < self.shard_retries:
                                attempts[index] = attempt + 1
                                retry = pool.submit(
                                    job, config, shards[index], attempt + 1)
                                pending[retry] = (index, attempt + 1)
                            else:
                                settle(index, _LOST)
                    fold_ready()
        except BrokenProcessPool:
            # The pool died under us (a worker was killed hard).  Finish
            # the unsettled shards in-process — slower, never wrong.
            pass
        for index in range(len(shards)):
            if not settled[index]:
                output = _run_recovering(config, shards[index], world,
                                         self.shard_retries,
                                         first_attempt=attempts[index],
                                         trace=self.trace)
                settle(index, _LOST if output is None else output)
        fold_ready()
        heartbeat.pulse(settled_count, settled_weight, force=True)


#: Memo for :func:`run_paper_experiment_parallel`, keyed on
#: ``(seed, scale)`` only — ``jobs`` changes how fast the result arrives,
#: never its bytes, so different worker counts share one cache entry.
_RESULT_MEMO: OrderedDict[tuple[int, float], ExperimentResult] = OrderedDict()
_RESULT_MEMO_MAX = 4


def run_paper_experiment_parallel(seed: int = 2016, scale: float = 1.0,
                                  jobs: int = 1) -> ExperimentResult:
    """Parallel (and memoised) variant of ``run_paper_experiment``.

    Returns a result byte-identical to the serial function at the same
    (seed, scale); ``jobs`` only changes how fast it arrives — which is
    why it is deliberately *not* part of the memo key.
    """
    key = (seed, scale)
    found = _RESULT_MEMO.get(key)
    if found is not None:
        _RESULT_MEMO.move_to_end(key)
        return found
    result = ParallelExperimentRunner(
        paper_experiment(seed=seed, scale=scale), jobs=jobs).run()
    _RESULT_MEMO[key] = result
    while len(_RESULT_MEMO) > _RESULT_MEMO_MAX:
        _RESULT_MEMO.popitem(last=False)
    return result


def _clear_result_memo() -> None:
    """Test hook: forget memoised experiment results."""
    _RESULT_MEMO.clear()


run_paper_experiment_parallel.cache_clear = _clear_result_memo
