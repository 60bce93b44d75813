"""Smoke test of the benchmark: short runs at its own ``tiny`` scale.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import gzip
import math

import pytest

import run


@pytest.fixture(scope="module")
def jobs2():
    return run.measure("paper-jobs2", run.DEFAULT_SEED, seconds=0,
                       trace=False)


@pytest.fixture(scope="module")
def traced():
    return run.measure("paper-serial", run.DEFAULT_SEED, seconds=0,
                       trace=True)


def assert_emitted(result: dict, kind: str) -> dict:
    line = run.result_line(result)
    declared = run.declared_metrics()[kind]
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])
    return line


def test_end_to_end_metrics_emitted_and_checked(jobs2):
    line = assert_emitted(jobs2, "end_to_end")
    # Two pooled repetitions plus the serial reference, all matching.
    assert line["attempted"] == 3
    assert line["failed"] == 0 and line["correct"]
    assert line["metrics"]["success_rate"]["value"] == 1.0
    assert all(rep["digest"] == jobs2["digest"]
               for rep in jobs2["reps"]["plain"])


def test_per_layer_metrics_emitted_and_checked(traced):
    line = assert_emitted(traced, "per_layer")
    assert line["correct"]
    metrics = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert metrics["web.pageviews"] == metrics["adnetwork.serve_calls"] > 0
    assert metrics["collector.records"] == metrics["audit.records"]
    assert metrics["trace_coverage"] >= 0.85
    assert 0.0 < metrics["trace_overhead"] < 10.0
    spans = run.OUT / f"paper-serial-seed{run.DEFAULT_SEED}-spans" / "spans.csv.gz"
    with gzip.open(spans, "rt") as source:
        assert source.readline() == "pid,id,parent,name,start,end\n"
        assert sum(1 for _ in source) == metrics["trace_spans"]


def test_digest_mismatch_counts_as_error(jobs2):
    reps = [dict(rep) for rep in jobs2["reps"]["plain"]]
    reps[1]["digest"] = "0" * 64
    check = run.summarize(reps, jobs2["reference"])
    assert check["failed"] == 1
    assert "digest" in check["problems"][0]
    result = {**jobs2, **check, "metrics": run.end_to_end(reps, check)}
    line = run.result_line(result)
    assert not line["correct"]
    assert line["metrics"]["success_rate"]["value"] == pytest.approx(2 / 3)
