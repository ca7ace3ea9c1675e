"""Recorded golden summaries: the simulator's regression oracle.

Every cell of the pinned matrix (see ``golden_matrix.py``) is re-simulated
and its canonical summary document must match ``summaries.json`` byte for
byte.  On a mismatch the failure names the first differing field.  The
file changes only through ``regenerate.py``, with a CHANGES.md entry that
says why the outcome moved; this test never writes it.

Mode axes whose summaries are byte-identical by contract (streaming
workload, the linear-scan cluster index, spawned and forked engine
workers, ``summary_only`` transport) are asserted against the same
recorded cells.
"""

from __future__ import annotations

import pytest
from golden_matrix import (
    GOLDEN_PATH,
    PAPER_SCENARIOS,
    document_digest,
    first_difference,
    golden_cells,
    load_goldens,
    summary_document,
)

from repro.cluster.cluster import ClusterConfig
from repro.experiments.engine import ExperimentEngine, RunSpec
from repro.experiments.runner import build_profile_store, run_experiment

CELLS = {cell.cell_id: cell for cell in golden_cells()}

STREAMING = {"workload_mode": "streaming"}
SCAN = {"cluster": ClusterConfig(index_mode="scan")}

#: (cell, mode overrides) pairs that must reproduce the recorded cell.
MODE_VARIANTS = [
    *(
        (f"ESG/{scenario}/seed42/n16", "streaming", STREAMING)
        for scenario in PAPER_SCENARIOS
    ),
    ("ESG/paper-moderate-normal/seed42/n16", "scan", SCAN),
    ("INFless/paper-moderate-normal/seed42/n16", "scan", SCAN),
    ("ESG/paper-moderate-normal/seed42/n16/horizon400ms", "streaming", STREAMING),
    ("ESG/churn-eviction-fail/seed42/n16", "streaming", STREAMING),
    ("Orion/paper-relaxed-heavy/seed42/n16", "scan", SCAN),
    ("ESG/diurnal-normal/seed42/n16/autoscale=threshold-default", "streaming", STREAMING),
    ("ESG/diurnal-normal/seed42/n16/autoscale=pid-default", "scan", SCAN),
]


@pytest.fixture(scope="module")
def store():
    return build_profile_store()


@pytest.fixture(scope="module")
def goldens():
    return load_goldens()


def assert_matches_golden(goldens, cell_id: str, summary) -> None:
    document = summary_document(summary)
    expected = goldens[cell_id]
    if document_digest(document) != expected["digest"]:
        difference = first_difference(expected["summary"], document)
        pytest.fail(f"{cell_id} diverged from {GOLDEN_PATH.name}: {difference}")


def run_cell(store, cell_id: str, **overrides):
    cell = CELLS[cell_id]
    config = cell.config().with_overrides(**overrides)
    return run_experiment(cell.policy, config=config, profile_store=store, scenario=cell.scenario)


class TestRecordedFile:
    def test_file_covers_exactly_the_matrix(self, goldens):
        assert sorted(goldens) == sorted(CELLS)

    def test_recorded_digests_match_recorded_documents(self, goldens):
        for cell_id, entry in goldens.items():
            assert document_digest(entry["summary"]) == entry["digest"], cell_id

    def test_matrix_is_not_vacuous(self, goldens):
        """The matrix exercises truncation, evictions and requeues."""
        summaries = [entry["summary"] for entry in goldens.values()]
        assert any(s["truncated"] for s in summaries)
        assert any(s["num_evicted"] > 0 for s in summaries)
        assert any(s["requeued_jobs"] > 0 for s in summaries)
        assert all(s["num_requests"] > 0 for s in summaries)


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_cell_matches_golden(store, goldens, cell_id):
    assert_matches_golden(goldens, cell_id, run_cell(store, cell_id).summary)


@pytest.mark.parametrize(
    ("cell_id", "overrides"),
    [(cell_id, overrides) for cell_id, _, overrides in MODE_VARIANTS],
    ids=[f"{cell_id}-{name}" for cell_id, name, _ in MODE_VARIANTS],
)
def test_mode_variant_matches_golden(store, goldens, cell_id, overrides):
    result = run_cell(store, cell_id, **overrides)
    assert_matches_golden(goldens, cell_id, result.summary)


def test_spawned_workers_reproduce_goldens(goldens):
    """Fresh interpreters (spawn context) compute the recorded summaries."""
    cell_ids = [f"ESG/{scenario}/seed42/n16" for scenario in PAPER_SCENARIOS]
    specs = [
        RunSpec(policy="ESG", scenario=CELLS[cell_id].scenario, config=CELLS[cell_id].config())
        for cell_id in cell_ids
    ]
    results = ExperimentEngine(n_jobs=2, mp_context="spawn").run(specs)
    for cell_id, result in zip(cell_ids, results):
        assert_matches_golden(goldens, cell_id, result.summary)


def test_summary_only_engine_workers_reproduce_goldens(goldens):
    """``summary_only`` specs in forked workers (streaming workload, summary
    transport, placeholder collector) report the recorded summaries,
    truncated cell included."""
    cell_ids = [f"ESG/{scenario}/seed42/n16" for scenario in PAPER_SCENARIOS]
    cell_ids.append("ESG/paper-moderate-normal/seed42/n16/horizon400ms")
    specs = [
        RunSpec(
            policy="ESG",
            scenario=CELLS[cell_id].scenario,
            config=CELLS[cell_id].config(),
            summary_only=True,
        )
        for cell_id in cell_ids
    ]
    results = ExperimentEngine(n_jobs=2).run(specs)
    for cell_id, result in zip(cell_ids, results):
        assert result.metrics.placeholder
        assert_matches_golden(goldens, cell_id, result.summary)
