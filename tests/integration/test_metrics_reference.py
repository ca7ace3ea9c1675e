"""Record-time folds on real runs agree with a brute-force reference.

The controller folds every observation into the collector as the run goes
(much of it inlined in the dispatch and arrival paths), so no ``Request``
or ``Task`` survives in the collector.  These tests log what a real run
fed the collector — the arrived requests and every dispatched task, via
the ``run_log`` fixture — and recompute the summary from those objects
with plain scans, sorts and sums (``reference_summary`` in
``tests/conftest.py``).  The recorded goldens pin the values; this pins
that the folds compute what the objects say, on every policy and paper
scenario, on truncated runs where the horizon clamp applies, and on runs
with node evictions and autoscaler prewarms.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentConfig,
    build_profile_store,
    run_experiment,
)

PAPER_SCENARIOS = (
    "paper-strict-light",
    "paper-moderate-normal",
    "paper-relaxed-heavy",
)

BASE = ExperimentConfig(num_requests=16)

#: Summary fields that are plain counters incremented at their source, or
#: labels: the reference takes them from the run's own summary.
SOURCE_FIELDS = (
    "policy",
    "setting",
    "plan_attempts",
    "plan_misses",
    "local_transfers",
    "remote_transfers",
    "forced_min_dispatches",
    "truncated",
    "evicted_tasks",
    "requeued_jobs",
)


@pytest.fixture(scope="module")
def store():
    return build_profile_store()


@pytest.fixture(scope="module")
def paper_runs(store, run_log):
    """One logged run per (policy, paper scenario), shared by the tests."""
    runs = {}

    def get(policy: str, scenario: str):
        key = (policy, scenario)
        if key not in runs:
            with run_log() as log:
                result = run_experiment(
                    policy, config=BASE, profile_store=store, scenario=scenario
                )
            runs[key] = (result, log)
        return runs[key]

    return get


def reference_for(result, log, reference_summary):
    summary = result.summary
    return reference_summary(
        log.requests,
        log.tasks,
        list(result.metrics.overhead_ms_samples),
        result.metrics.horizon_ms,
        **{name: getattr(summary, name) for name in SOURCE_FIELDS},
    )


@pytest.mark.parametrize("scenario", PAPER_SCENARIOS)
@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_summary_matches_reference(paper_runs, reference_summary, policy, scenario):
    result, log = paper_runs(policy, scenario)
    assert len(log.requests) == BASE.num_requests
    assert log.tasks
    assert result.summary == reference_for(result, log, reference_summary)


@pytest.mark.parametrize("scenario", PAPER_SCENARIOS)
@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_per_app_accessors_match_reference(
    paper_runs, reference_latencies, policy, scenario
):
    """The accessors the figure modules read: per-app latencies in
    canonical order (Figure 7), SLO budgets and request counts."""
    result, log = paper_runs(policy, scenario)
    metrics = result.metrics
    apps = sorted({r.app_name for r in log.requests})
    assert metrics.app_names() == apps
    assert metrics.latencies_ms() == reference_latencies(log.requests)
    for app in apps:
        own = [r for r in log.requests if r.app_name == app]
        assert metrics.latencies_ms(app) == reference_latencies(log.requests, app)
        assert metrics.app_slo_ms(app) == own[0].slo_ms
        assert {r.slo_ms for r in own} == {own[0].slo_ms}
        assert metrics.num_requests(app) == len(own)
        assert metrics.num_completed(app) == sum(1 for r in own if r.is_complete)


@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_truncated_run_matches_reference(store, run_log, reference_summary, policy):
    """Tasks straddling the horizon are charged pro rata by the inlined
    dispatch fold exactly as ``charged_cost_cents`` charges them."""
    config = BASE.with_overrides(num_requests=40, max_time_ms=300.0)
    with run_log() as log:
        result = run_experiment(
            policy, "moderate-normal", config=config, profile_store=store
        )
    assert result.summary.truncated
    assert any(t.finish_ms > config.max_time_ms for t in log.tasks)
    assert result.summary == reference_for(result, log, reference_summary)


@pytest.mark.parametrize("scenario", ("harvest-severe-normal", "churn-eviction-fail"))
def test_churn_run_matches_reference(store, run_log, reference_summary, scenario):
    """Evicted tasks stay charged for their dispatch; evicted requests count
    once and never complete."""
    with run_log() as log:
        result = run_experiment("ESG", config=BASE, profile_store=store, scenario=scenario)
    assert result.summary.evicted_tasks > 0
    assert result.summary == reference_for(result, log, reference_summary)


@pytest.mark.parametrize("spec_name", ("threshold-default", "pid-default"))
def test_autoscaled_run_matches_reference(store, run_log, reference_summary, spec_name):
    """Prewarms injected mid-run change which dispatches start cold; the
    cold/warm split still matches the dispatched tasks."""
    config = BASE.with_overrides(
        autoscale=spec_name,
        controller=replace(ExperimentConfig().controller, initial_warm="home"),
    )
    with run_log() as log:
        result = run_experiment(
            "ESG", config=config, profile_store=store, scenario="diurnal-normal"
        )
    assert result.summary.cold_starts > 0
    assert result.summary == reference_for(result, log, reference_summary)
