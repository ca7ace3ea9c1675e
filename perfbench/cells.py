"""The benchmark's workloads, how one cell runs, and the output checks.

A *cell* is one ``run_experiment`` call: one policy on one paper scenario
with one request count and one experiment seed.  A workload is a fixed list
of cells derived from the command-line seed, run back to back in one
process and one thread (a closed loop on the host; arrivals inside a cell
are open-loop in simulated time).  Cells use the public experiment API with
``ExperimentConfig``'s default modes, so the benchmark follows whatever the
program's defaults are.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass

from repro.cluster.metrics import RunSummary
from repro.experiments import ExperimentConfig, make_policy, run_experiment
from repro.profiles.profiler import ProfileStore
from repro.workloads.scenarios import get_scenario
from spans import Tracer, instrument_policy

PAPER_SCENARIOS = ("paper-strict-light", "paper-moderate-normal", "paper-relaxed-heavy")


@dataclass(frozen=True)
class Cell:
    policy: str
    scenario: str
    requests: int
    seed: int

    @property
    def key(self) -> str:
        return f"{self.policy}/{self.scenario}/n{self.requests}/s{self.seed}"


@dataclass(frozen=True)
class Workload:
    """A matrix of cells; ``seeds_per_run`` experiment seeds per bench seed."""

    policies: tuple[str, ...]
    scenarios: tuple[str, ...]
    requests: int
    seeds_per_run: int

    def cells(self, seed: int) -> list[Cell]:
        # The bench seed reaches the program only as the experiment seeds of
        # the generated inputs; distinct bench seeds give disjoint sets.
        seeds = [seed * 1000 + i for i in range(self.seeds_per_run)]
        return [
            Cell(policy, scenario, self.requests, s)
            for s in seeds
            for scenario in self.scenarios
            for policy in self.policies
        ]


# Sizes are chosen so one pass over a matrix takes about 20 s on a 2-core
# x86 host; more experiment seeds per run average out the spread in search
# effort between seeds.
WORKLOADS = {
    "paper-esg": Workload(("ESG",), PAPER_SCENARIOS, requests=120, seeds_per_run=5),
    "paper-baselines": Workload(
        ("INFless", "FaST-GShare", "Orion", "Aquatope"), PAPER_SCENARIOS,
        requests=120, seeds_per_run=1,
    ),
    "platform-stream": Workload(
        ("INFless",), ("paper-strict-light",), requests=20000, seeds_per_run=3
    ),
}


def summary_digest(summary: RunSummary) -> str:
    """Canonical digest of a run summary: sorted-key JSON of every field."""
    doc = json.dumps(dataclasses.asdict(summary), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def check_run(cell: Cell, summary: RunSummary, book: "DigestBook") -> str | None:
    """The output check of one run of a cell; returns the failure, or None.

    Every request completed or was evicted, the run was not truncated, and
    the summary digest equals the one of the cell's first run.
    """
    if summary.num_requests != cell.requests:
        return f"ran {summary.num_requests} requests, expected {cell.requests}"
    if summary.num_completed + summary.num_evicted != summary.num_requests:
        return (
            f"completed {summary.num_completed} + evicted {summary.num_evicted} "
            f"!= {summary.num_requests} requests"
        )
    if summary.truncated:
        return "run truncated"
    digest = summary_digest(summary)
    if not book.check(cell.key, digest):
        return f"digest {digest} differs from the first run's {book.first[cell.key]}"
    return None


class DigestBook:
    """First digest seen per cell; every later run of the cell must match it."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}

    def check(self, key: str, digest: str) -> bool:
        return self.first.setdefault(key, digest) == digest

    def workload_digest(self) -> str:
        doc = "\n".join(f"{key} {digest}" for key, digest in sorted(self.first.items()))
        return hashlib.sha256(doc.encode()).hexdigest()[:16]


@dataclass
class CellRun:
    cell: Cell
    host_s: float
    summary: RunSummary | None
    error: str | None


def run_cell(
    cell: Cell,
    store: ProfileStore,
    book: DigestBook,
    label: str,
    tracer: Tracer | None = None,
) -> CellRun:
    """Run one cell, check its output and its digest against earlier runs.

    With a ``tracer`` the cell runs inside an ``experiments.cell`` span and
    the policy's entry points are wrapped on the instance.
    """
    start = time.perf_counter()
    frame = None
    if tracer is not None:
        tracer.cell = cell.key
        frame = tracer.enter("experiments.cell")
    try:
        policy = make_policy(cell.policy)
        if tracer is not None:
            instrument_policy(tracer, policy)
        result = run_experiment(
            policy,
            scenario=get_scenario(cell.scenario),
            config=ExperimentConfig(num_requests=cell.requests, seed=cell.seed),
            profile_store=store,
        )
    except Exception:  # a failing cell is reported and counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return CellRun(cell, time.perf_counter() - start, None, "raised")
    finally:
        if frame is not None:
            tracer.exit(frame)
    host_s = time.perf_counter() - start
    summary = result.summary
    del result  # keep only the summary: retained state is what peak RSS shows
    error = check_run(cell, summary, book)
    if error is not None:
        print(f"check failed: {cell.key} ({label}): {error}", file=sys.stderr)
    return CellRun(cell, host_s, summary, error)


def simulated_metrics(runs: list[CellRun], failed_cells: set[str]) -> dict[str, float]:
    """Simulated outcomes over one run of each cell of a matrix.

    Every request of a cell that raised or failed a check on any of its runs
    (``failed_cells``) counts as failed and as missing its SLO.
    """
    requests = completed = dispatches = cold = forced = 0
    hits = cost = overhead = waiting = 0.0
    failed = 0
    for run in runs:
        requests += run.cell.requests
        s = run.summary
        if s is None or run.cell.key in failed_cells:
            failed += run.cell.requests
            continue
        failed += s.num_requests - s.num_completed
        completed += s.num_completed
        hits += s.slo_hit_rate * s.num_requests
        cost += s.total_cost_cents
        tasks = s.cold_starts + s.warm_starts
        dispatches += tasks
        overhead += s.mean_overhead_ms * tasks
        waiting += s.mean_waiting_ms * tasks
        cold += s.cold_starts
        forced += s.forced_min_dispatches
    return {
        "requests": requests,
        "completed": completed,
        "slo_hit_rate": hits / requests,
        "cost_cents_per_req": cost / requests,
        "sched_overhead_ms": overhead / dispatches if dispatches else 0.0,
        "failed_share": failed / requests,
        "completed_share": 1.0 - failed / requests,
        "queue_wait_ms_mean": waiting / dispatches if dispatches else 0.0,
        "dispatches": dispatches,
        "cold_starts": cold,
        "warm_starts": dispatches - cold,
        "forced_min_dispatches": forced,
    }
