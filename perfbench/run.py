"""The repo benchmark: the paper scenario as named workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-serial --seed 2016 \\
        --seconds 40 --trace 0

``--seed`` selects a scenario from ``pool.json`` (see ``make_pool.py``).
Each repetition runs in a fresh process (``pipeline.py``): imports, world
build, the full simulation through ``ParallelExperimentRunner``, enrich,
and the audit with its JSON and CSV exports.  An untimed first
repetition warms the file cache; then repetitions continue until
``--seconds`` is used up, and every metric is the median over them.
Between repetitions a fixed reference workload (``hostspeed.py``) times
the host, and each repetition's times are scaled to the reference host
speed.

``--trace 0`` prints the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, plus ``trace_overhead``.  Every
repetition's outputs are checked (see ``summarize``).  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Default workload seed.  The held-out seed named in README.md is kept
#: for confirming a claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 2016
#: At least this many timed repetitions per run, so the digest check
#: always compares several.
MIN_REPS = 2
#: A repetition takes about 4 s; the last one starts inside the window,
#: so a hung one still lets the run end within 180 s.
REP_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    faults: str
    jobs: int
    #: Workload of the untimed first repetition, which warms the file
    #: cache; every digest of the run must equal its digest.  For
    #: ``paper-jobs2`` it is the serial run on the same inputs.
    reference: str


WORKLOADS = {
    # Single-threaded baseline: browse, serve and tracing dominate.
    "paper-serial": Workload(faults="none", jobs=1, reference="paper-serial"),
    # The only workload on the fork pool, the wire format and the
    # parent's merge-as-you-go; must reproduce paper-serial exactly.
    "paper-jobs2": Workload(faults="none", jobs=2, reference="paper-serial"),
    # Refused connects, retries, truncated frames and collector dedup.
    "hostile-serial": Workload(faults="hostile", jobs=1,
                               reference="hostile-serial"),
}


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


def load_pool() -> dict:
    """``pool.json``: the scale and the scenario seeds (see make_pool.py)."""
    return json.loads((HERE / "pool.json").read_text())


def scenario_seed(seed: int, pool: dict) -> int:
    """The pool scenario that workload seed *seed* selects, by hash."""
    scenarios = pool["scenarios"]
    index = int.from_bytes(hashlib.sha256(str(seed).encode()).digest()[:4],
                           "big") % len(scenarios)
    return scenarios[index]["seed"]


# ---------------------------------------------------------------------- #
# repetitions
# ---------------------------------------------------------------------- #


def run_rep(workload: Workload, seed: int, scale: float,
            spans_dir: Path | None = None) -> dict:
    """Run one repetition in a fresh process; returns its outcome.

    A repetition that crashes, times out or prints no outcome comes back
    as ``{"ok": False, "problems": [...]}``.
    """
    command = [sys.executable, str(HERE / "pipeline.py"),
               "--faults", workload.faults, "--jobs", str(workload.jobs),
               "--seed", str(seed), "--scale", repr(scale)]
    if spans_dir is not None:
        command += ["--spans", str(spans_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    child = subprocess.Popen(command + ["--t0", repr(t0)], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The pool workers share the child's session: stop them all.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"ok": False, "problems": [f"timed out after {REP_TIMEOUT_S} s"]}
    if child.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False,
                "problems": [f"exit code {child.returncode}: {tail[0]}"]}
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "problems": ["no outcome line"]}


def repeat(deadline: float, kinds: list[str], run,
           probe) -> dict[str, list[dict]]:
    """Run rounds of ``run(kind)``, one per kind, until *deadline*.

    The host probe is sampled before the first repetition and after each
    one; a repetition's ``host_s`` is the geometric mean of the samples
    around it.  Once the rounds hold :data:`MIN_REPS` repetitions, a round
    is not started when the mean round so far would end past the deadline.
    """
    reps: dict[str, list[dict]] = {kind: [] for kind in kinds}
    before = probe.sample()
    started = time.perf_counter()
    rounds = 0
    while True:
        for kind in kinds:
            rep = run(kind)
            after = probe.sample()
            rep["host_s"] = math.sqrt(before * after)
            reps[kind].append(rep)
            before = after
        rounds += 1
        now = time.perf_counter()
        if (rounds * len(kinds) >= MIN_REPS
                and now + (now - started) / rounds > deadline):
            return reps


# ---------------------------------------------------------------------- #
# checking and summarizing
# ---------------------------------------------------------------------- #


def summarize(reps: list[dict], reference: dict) -> dict:
    """Check every repetition; count the failures.

    A repetition fails when it crashed, its coverage ledger did not
    reconcile, or its digest differs from the *reference* repetition's
    (the run's untimed first one).  A failed reference counts too, and
    then the first good repetition's digest is the expected one.
    """
    expected = None
    problems = []
    failed = 0
    for index, rep in enumerate([reference] + list(reps)):
        if not rep.get("ok"):
            failed += 1
            problems.extend(rep.get("problems", []))
            continue
        if expected is None:
            expected = rep["digest"]
        elif rep["digest"] != expected:
            failed += 1
            problems.append(f"repetition {index}: digest {rep['digest'][:12]} "
                            f"!= {expected[:12]}")
    return {"attempted": len(reps) + 1, "failed": failed,
            "digest": expected, "problems": problems}


def scaled(rep: dict, seconds: float) -> float:
    """*seconds* measured in *rep*, at the reference host speed."""
    return seconds * hostspeed.REFERENCE_S / rep["host_s"]


def end_to_end(reps: list[dict], check: dict) -> dict[str, float]:
    good = [rep for rep in reps if rep.get("ok")]

    def median(key):
        return statistics.median(scaled(rep, rep[key]) for rep in good)

    return {
        "setup_s": median("setup_s"),
        "pageviews_per_s": statistics.median(
            rep["pageviews"] / scaled(rep, rep["run_s"]) for rep in good),
        "total_s": median("total_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in good),
        "success_rate": 1.0 - check["failed"] / check["attempted"],
    }


def raw_medians(reps: list[dict]) -> dict[str, float]:
    """Unscaled medians and the host probe's, for the run record."""
    good = [rep for rep in reps if rep.get("ok")]
    medians = {key: statistics.median(rep[key] for rep in good)
               for key in ("setup_s", "run_s", "total_s", "cpu_s", "host_s")}
    medians["pageviews_per_s"] = statistics.median(
        rep["pageviews"] / rep["run_s"] for rep in good)
    return medians


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced repetitions; times at the reference speed."""
    good = [rep for rep in traced if rep.get("ok")]
    metrics = {}
    for name in good[0]["layers"]:
        values = [rep["layers"][name] for rep in good]
        if name.endswith("_s"):
            values = [scaled(rep, value) for rep, value in zip(good, values)]
        metrics[name] = statistics.median(values)
    metrics["trace_overhead"] = (
        statistics.median(scaled(rep, rep["pipeline_s"]) for rep in good)
        / statistics.median(scaled(rep, rep["pipeline_s"])
                            for rep in plain if rep.get("ok")))
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run workload *name* and return its checked, summarized result."""
    workload = WORKLOADS[name]
    pool = load_pool()
    scale = pool["scale"]
    scenario = scenario_seed(seed, pool)
    OUT.mkdir(exist_ok=True)
    spans_dir = OUT / f"{name}-seed{seed}-spans"

    def run(kind: str) -> dict:
        return run_rep(workload, scenario, scale,
                       spans_dir if kind == "traced" else None)

    probe = hostspeed.HostProbe()
    deadline = time.perf_counter() + seconds
    reference = run_rep(WORKLOADS[workload.reference], scenario, scale)
    reps = repeat(deadline, ["plain", "traced"] if trace else ["plain"], run,
                  probe)
    check = summarize(reps["plain"] + reps.get("traced", []), reference)
    result = {"workload": name, "seed": seed, "scenario_seed": scenario,
              "scale": scale, "trace": trace, **check}
    if not any(rep.get("ok") for rep in reps["plain"]) or (
            trace and not any(rep.get("ok") for rep in reps["traced"])):
        result["metrics"] = None
    elif trace:
        result["metrics"] = per_layer(reps["plain"], reps["traced"])
    else:
        result["metrics"] = end_to_end(reps["plain"], check)
        result["raw"] = raw_medians(reps["plain"])
    result["reps"] = reps
    result["reference"] = reference
    return result


def result_line(result: dict) -> dict:
    """The final stdout object: checks, and each metric with its unit.

    Raises ``ValueError`` when the metrics differ from those
    ``BENCHMARK.json`` declares for this mode.
    """
    units = declared_metrics()["per_layer" if result["trace"]
                               else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise ValueError(f"emitted metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if result["metrics"] is None:
        print("error: no repetition succeeded", file=sys.stderr)
        return 1
    line = result_line(result)
    print(f"workload {args.workload}  seed {args.seed}  scenario seed "
          f"{result['scenario_seed']}  scale {result['scale']}")
    print(f"digest {result['digest']}")
    print(f"error_rate {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} runs)")
    if "raw" in result:
        print("unscaled medians: " + "  ".join(
            f"{key} {value:.6g}" for key, value in result["raw"].items()))
    for name, metric in line["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
