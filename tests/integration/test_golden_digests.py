"""Cross-commit golden digests of the sim-domain outputs.

Every other determinism check compares two runs of the same commit.
These digests are pinned values: a change that alters any random draw,
record or audit figure of the paper scenario changes them, and must
then re-baseline them on purpose (together with
``benchmarks/output/*.txt``).

The digest is SHA-256 over one sorted, compact JSON document holding
the run's stats, its coverage totals and the audit's JSON export.  The
scenario is the paper experiment at scale 0.01 with scenario seed
4280358945, the inputs of the repo benchmark's default workload, under
each of the none, flaky and hostile fault presets.  The serial runner
and the two-worker pool must both reproduce each digest.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.audit import full_audit, report_to_json
from repro.experiments import ParallelExperimentRunner, paper_experiment
from repro.faults.plan import FaultPlan

SCENARIO_SEED, SCALE = 4280358945, 0.01

GOLDEN = {
    "none": "b42eae43df52987ea0319bd35f9de1715c0a9c1e5d06c949b318a1e960577116",
    "flaky": "f37975da67f04dfd0bd90bafe5afac7ad2c3d13dbd9eae3e7024b07c912b6f2b",
    "hostile": "be1888114b49a21dbaede7aeae825e65456c8b5bf47030c87a141d2713d98ada",
}


def outputs_digest(result) -> str:
    """SHA-256 over stats, coverage totals and the audit JSON export."""
    totals = result.coverage.counts.totals()
    document = {
        "stats": result.stats,
        "coverage": {**asdict(totals), "reconciles": totals.reconciles},
        "audit": report_to_json(full_audit(result.dataset)),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2], ids=lambda jobs: f"jobs{jobs}")
@pytest.mark.parametrize("faults", sorted(GOLDEN))
def test_outputs_match_golden_digest(faults, jobs):
    config = paper_experiment(seed=SCENARIO_SEED, scale=SCALE,
                              faults=FaultPlan.preset(faults))
    result = ParallelExperimentRunner(config, jobs=jobs).run()
    assert outputs_digest(result) == GOLDEN[faults]
