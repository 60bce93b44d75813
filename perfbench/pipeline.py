"""One benchmark repetition, in a fresh process: build, run, audit, check.

Usage (the orchestrator ``run.py`` starts this; it is not a user entry
point)::

    python3 perfbench/pipeline.py --faults none --jobs 1 --seed 2016 \\
        --scale 0.01 --t0 <perf_counter before spawn> [--spans DIR]

``--t0`` is the parent's ``time.perf_counter()`` taken just before it
started this process; on Linux that clock is system-wide, so setup and
total times include interpreter start and imports.  With ``--spans`` the
run is traced (see ``spans.py``) and the spans are written to
``DIR/spans.csv.gz``.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

#: Audit passes of a traced repetition: at least this many, and until
#: they took this long; ``audit.pass_s`` is their median.
AUDIT_PASSES = 5
AUDIT_SECONDS = 1.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--faults", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    return parser.parse_args(argv)


def digest_of(result, audit_json: str) -> str:
    """SHA-256 over the sim-domain outputs: stats, coverage totals, audit."""
    totals = result.coverage.counts.totals()
    document = {"stats": result.stats,
                "coverage": {**asdict(totals), "reconciles": totals.reconciles},
                "audit": audit_json}
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    from repro.audit import full_audit, report_to_csv, report_to_json
    from repro.experiments import ParallelExperimentRunner, paper_experiment
    from repro.experiments.parallel import _world_for
    from repro.faults.plan import FaultPlan

    config = paper_experiment(seed=args.seed, scale=args.scale,
                              faults=FaultPlan.preset(args.faults))
    log = None
    audit, export_json, export_csv = full_audit, report_to_json, report_to_csv
    if args.spans is not None:
        import spans
        worker_dir = args.spans / "workers"
        shutil.rmtree(worker_dir, ignore_errors=True)
        worker_dir.mkdir(parents=True)
        log = spans.SpanLog(worker_dir)
        spans.install(log)
        audit = log.traced("audit.full_audit", full_audit)
        export_json = log.traced("audit.export", report_to_json)
        export_csv = log.traced("audit.export", report_to_csv)

    clock = time.perf_counter
    world_start = clock()
    # Build the world the runner will use (it caches one per config), so
    # setup and simulation are timed apart.
    _world_for(config)
    world_built = clock()
    result = ParallelExperimentRunner(config, jobs=args.jobs).run()
    result_at = clock()
    report = audit(result.dataset)
    audit_json = export_json(report)
    export_csv(report)
    done = clock()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)

    problems = []
    counts = result.coverage.counts
    if not counts.totals().reconciles:
        problems.append("coverage totals do not reconcile")
    if not counts.reconciles:
        problems.append("a coverage cell does not reconcile")
    if result.pageview_count <= 0 or len(result.dataset.store) <= 0:
        problems.append("the run produced no pageviews or no records")

    outcome = {
        "ok": not problems,
        "problems": problems,
        "digest": digest_of(result, audit_json),
        "pageviews": result.pageview_count,
        "records": len(result.dataset.store),
        "setup_s": world_built - args.t0,
        "run_s": result_at - world_built,
        "pipeline_s": done - world_start,
        "total_s": done - args.t0,
        "cpu_s": (own.ru_utime + own.ru_stime
                  + workers.ru_utime + workers.ru_stime),
        "peak_rss_mb": max(own_peak_kb(own), workers.ru_maxrss) / 1024.0,
    }
    if log is not None:
        outcome["layers"] = layer_metrics(log, result, done - world_start,
                                          out=args.spans)
        outcome["layers"]["audit.pass_s"] = audit_pass_s(result.dataset,
                                                         audit_json)
    print(json.dumps(outcome))
    return 0


def own_peak_kb(own) -> int:
    """This process's peak RSS in KiB.

    ``ru_maxrss`` of a process also counts the peak its parent had when
    it started this one (Linux keeps the larger across ``exec``), so the
    kernel's per-process ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return own.ru_maxrss


def audit_pass_s(dataset, audit_json: str) -> float:
    """Median time of repeated untraced audit passes over *dataset*.

    The first pass of a process is not a fair sample: it is often several
    times slower than the later ones, most likely a full garbage
    collection of the run's heap, which lands wherever the allocation
    count crosses the threshold.
    """
    from repro.audit import full_audit, report_to_csv, report_to_json

    times: list[float] = []
    while len(times) < AUDIT_PASSES or sum(times) < AUDIT_SECONDS:
        started = time.perf_counter()
        report = full_audit(dataset)
        if report_to_json(report) != audit_json:
            raise RuntimeError("audit JSON differs between passes")
        report_to_csv(report)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def layer_metrics(log, result, spans_wall: float, out: Path) -> dict:
    """Per-layer metrics of a traced repetition; writes the span file."""
    import spans

    tables = [log] + spans.read_worker_spans(log.worker_dir)
    by_name = spans.aggregate(tables)
    parent_only = spans.aggregate([log])
    spans.write_spans(tables, out / "spans.csv.gz")
    shutil.rmtree(log.worker_dir, ignore_errors=True)

    def stat(name):
        return by_name.get(name, spans.NameStats())

    def layer_self(layer):
        return sum(entry.self_s for name, entry in by_name.items()
                   if name.split(".", 1)[0] == layer)

    counters = {name: value for (name, domain, value)
                in result.metrics.counters}
    serve = stat("adnetwork.serve")
    obs_calls = sum(entry.calls for name, entry in by_name.items()
                    if name.startswith("obs."))
    deliveries = stat("beacon.deliver").calls
    connects = stat("net.connect")
    shard = stat("experiments.shard")
    return {
        "web.busy_s": layer_self("web"),
        "web.pageviews": stat("web.next").values,
        "adnetwork.self_s": layer_self("adnetwork"),
        "adnetwork.serve_calls": serve.calls,
        "adnetwork.fill_ratio": serve.values / serve.calls,
        "obs.self_s": layer_self("obs"),
        "obs.tracer_calls": obs_calls,
        "obs.commit_ratio": stat("obs.commit").calls / stat("obs.start").calls,
        "beacon.self_s": layer_self("beacon"),
        "beacon.deliveries": deliveries,
        "beacon.blocked": stat("beacon.observe").nones,
        "beacon.connects_per_delivery": connects.calls / deliveries,
        "net.connect_s": layer_self("net"),
        "net.connects": connects.calls,
        "net.connect_failures": connects.nones,
        "collector.self_s": stat("collector.process").self_s,
        "collector.frames": counters.get("ws.frames_decoded", 0),
        "collector.records": counters.get("collector.records_committed", 0),
        "collector.duplicates": counters.get("collector.duplicates", 0),
        "collector.quarantined": counters.get("collector.quarantined_frames", 0),
        "collector.enrich_s": stat("collector.enrich").self_s,
        "collector.enrich_records": log.enriched,
        "experiments.self_s": layer_self("experiments"),
        "experiments.world_build_s": stat("experiments.world_build").total_s,
        "experiments.shard_s": shard.total_s,
        "experiments.shard_max_s": shard.max_s,
        "experiments.fold_s": stat("experiments.fold").total_s,
        "experiments.finalize_s": stat("experiments.finalize").total_s,
        "experiments.wire_unpack_s": stat("experiments.wire_unpack").total_s,
        "experiments.wire_bytes": log.wire_bytes,
        "experiments.pool_wait_s": stat("experiments.pool").self_s,
        "audit.full_audit_s": stat("audit.full_audit").total_s,
        "audit.export_s": stat("audit.export").total_s,
        "audit.records": len(result.dataset.store),
        "trace_coverage": sum(entry.self_s for entry in parent_only.values())
        / spans_wall,
        "trace_spans": sum(len(table.parents) for table in tables),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
