"""Exact ESG_1Q search-effort gate on the paper workload.

The search counts (searches, expansions, pruning by blade) are a pure
function of the scheduled inputs, so they do not depend on the machine.
ESG's modeled scheduling overhead is ``expansions * per_expansion_ms``, which
feeds every summary; pinning the totals exactly catches any change to the
search's effort on any host, before it shows up indirectly in a golden
digest.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.esg as esg_module
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.runner import build_profile_store

PAPER_SCENARIOS = ("paper-strict-light", "paper-moderate-normal", "paper-relaxed-heavy")

#: Totals over ESG on the three paper scenarios, seed 42, 60 requests each.
EXPECTED = {
    "searches": 500,
    "expansions": 1_090_079,
    "pruned_time": 36_504,
    "pruned_cost": 1_006_977,
    "infeasible": 0,
}


@pytest.fixture()
def search_counts(monkeypatch) -> Counter:
    """Wrap ``repro.core.esg.esg_1q_search`` and total its result statistics."""
    counts: Counter = Counter()
    search = esg_module.esg_1q_search

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        counts["searches"] += 1
        counts["expansions"] += result.expansions
        counts["pruned_time"] += result.pruned_time
        counts["pruned_cost"] += result.pruned_cost
        counts["infeasible"] += not result.feasible
        return result

    monkeypatch.setattr(esg_module, "esg_1q_search", counted)
    return counts


def test_paper_search_effort_is_exact(search_counts):
    store = build_profile_store()
    config = ExperimentConfig(num_requests=60, seed=42)
    for scenario in PAPER_SCENARIOS:
        summary = run_experiment("ESG", config=config, profile_store=store, scenario=scenario).summary
        assert summary.num_completed == summary.num_requests == 60
    assert {name: search_counts[name] for name in EXPECTED} == EXPECTED
