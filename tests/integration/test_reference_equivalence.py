"""End-to-end reference-vs-optimized equivalence.

The optimization pass's contract: every simulation-domain artifact —
stats, tables, figures, the audit report and its exports, the
sim-domain metrics snapshot, and the trace exports — is byte-identical
whether the pipeline runs its optimized hot paths or the retained
reference implementations.  One miniature experiment runs in each mode;
every export is compared verbatim.

Wall-domain timers (``shard.wall_seconds``, decode wall time) are
measured time and legitimately differ, so the metrics comparison is on
the sim-domain restriction — exactly the determinism contract the
metrics layer documents.
"""

import pytest

from repro.audit import full_audit
from repro.audit.export import report_to_csv, report_to_json
from repro.experiments import figures, tables
from repro.experiments.config import paper_experiment
from repro.experiments.runner import ExperimentRunner
from repro.obs.metrics import SIM
from repro.obs.traceio import dumps_chrome_trace, dumps_trace_jsonl
from repro.util import hotpath

SEED, SCALE = 2016, 0.01


@pytest.fixture(scope="module")
def optimized_result():
    return ExperimentRunner(paper_experiment(seed=SEED, scale=SCALE),
                            trace=True).run()


@pytest.fixture(scope="module")
def reference_result():
    with hotpath.reference_hotpaths():
        return ExperimentRunner(paper_experiment(seed=SEED, scale=SCALE),
                                trace=True).run()


class TestReferenceEquivalence:
    def test_stats_identical(self, optimized_result, reference_result):
        assert optimized_result.stats == reference_result.stats

    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    def test_tables_byte_identical(self, optimized_result, reference_result,
                                   number):
        render = getattr(tables, f"render_table{number}")
        assert render(optimized_result) == render(reference_result)

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_figures_byte_identical(self, optimized_result, reference_result,
                                    number):
        figure = getattr(figures, f"figure{number}")
        assert figure(optimized_result).render() == \
            figure(reference_result).render()

    def test_audit_report_byte_identical(self, optimized_result,
                                         reference_result):
        optimized = full_audit(optimized_result.dataset)
        reference = full_audit(reference_result.dataset)
        assert optimized.render() == reference.render()
        assert report_to_json(optimized) == report_to_json(reference)
        assert report_to_csv(optimized) == report_to_csv(reference)

    def test_sim_metrics_byte_identical(self, optimized_result,
                                        reference_result):
        assert optimized_result.metrics.restrict(SIM).to_json() == \
            reference_result.metrics.restrict(SIM).to_json()

    def test_trace_exports_byte_identical(self, optimized_result,
                                          reference_result):
        optimized_traces = optimized_result.recorder.traces()
        reference_traces = reference_result.recorder.traces()
        assert dumps_trace_jsonl(optimized_traces) == \
            dumps_trace_jsonl(reference_traces)
        assert dumps_chrome_trace(optimized_traces) == \
            dumps_chrome_trace(reference_traces)

    def test_collected_records_identical(self, optimized_result,
                                         reference_result):
        assert list(optimized_result.dataset.store) == \
            list(reference_result.dataset.store)
