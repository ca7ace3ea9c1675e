"""Shared fixtures for the test suite.

Fixtures that are expensive to build (profile stores over larger
configuration spaces) are session-scoped; tests must treat them as
read-only.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np
import pytest

from repro.cluster import controller as controller_module
from repro.cluster.events import RequestArrivalEvent, TaskCompletionEvent
from repro.cluster.metrics import RunSummary, charged_cost_cents, charged_duration_ms
from repro.cluster.simulator import Simulation
from repro.cluster.tasks import Task
from repro.profiles.configuration import ConfigurationSpace
from repro.profiles.perf_model import AnalyticalPerformanceModel
from repro.profiles.pricing import PricingModel
from repro.profiles.profiler import ProfileStore
from repro.utils.stats import summarize
from repro.workloads.applications import build_paper_applications
from repro.workloads.dag import Workflow
from repro.workloads.request import Request


@pytest.fixture(scope="session")
def small_space() -> ConfigurationSpace:
    """A compact configuration space (18 configs) for fast unit tests."""
    return ConfigurationSpace.small()


@pytest.fixture(scope="session")
def small_store(small_space: ConfigurationSpace) -> ProfileStore:
    """Profiles of all six functions over the small space."""
    return ProfileStore.build(space=small_space)


@pytest.fixture(scope="session")
def default_store() -> ProfileStore:
    """Profiles over the default configuration space (80 configs)."""
    return ProfileStore.build()


@pytest.fixture(scope="session")
def perf_model() -> AnalyticalPerformanceModel:
    """The deterministic performance model with default parameters."""
    return AnalyticalPerformanceModel()


@pytest.fixture(scope="session")
def pricing() -> PricingModel:
    """The paper's AWS-derived pricing model."""
    return PricingModel()


@pytest.fixture(scope="session")
def paper_apps() -> list[Workflow]:
    """The four applications of the paper's evaluation."""
    return build_paper_applications()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A seeded random generator for per-test randomness."""
    return np.random.default_rng(1234)


@pytest.fixture()
def diamond_workflow() -> Workflow:
    """A DAG with a split and a join (for dominator/grouping tests)."""
    wf = Workflow("diamond")
    wf.add_stage("a", "super_resolution")
    wf.add_stage("b", "deblur")
    wf.add_stage("c", "segmentation")
    wf.add_stage("d", "classification")
    wf.add_edge("a", "b")
    wf.add_edge("a", "c")
    wf.add_edge("b", "d")
    wf.add_edge("c", "d")
    wf.validate()
    return wf


@contextmanager
def _logged_tasks() -> Iterator[list[Task]]:
    """Log the tasks of every :class:`Simulation` built inside the block.

    The metrics collector keeps no task objects, so tests that inspect
    individual tasks watch the run through the public ``on_event`` hook.
    The hook is attached at construction, so runs that ``run_experiment``
    builds internally are logged too.  Tasks appear in completion order.
    """
    tasks: list[Task] = []

    def hook(_simulation: Simulation, event) -> None:
        if isinstance(event, TaskCompletionEvent):
            tasks.append(event.task)

    original_init = Simulation.__init__

    def init(self, *args, **kwargs) -> None:
        original_init(self, *args, **kwargs)
        self.on_event(hook)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "__init__", init)
        yield tasks


@pytest.fixture(scope="session")
def task_log():
    """``with task_log() as tasks:`` logs the tasks completed by every
    simulation built inside the block (see :func:`_logged_tasks`)."""
    return _logged_tasks


@dataclass
class RunLog:
    """The observations one or more runs fed their metrics collectors."""

    #: Requests whose arrival was processed, in arrival order.
    requests: list[Request] = field(default_factory=list)
    #: Every dispatched task, in dispatch order (including tasks still in
    #: flight when a horizon stopped the run, and tasks a node eviction
    #: dropped).
    tasks: list[Task] = field(default_factory=list)


@contextmanager
def _logged_run() -> Iterator[RunLog]:
    """Log the arrived requests and dispatched tasks of every run in the block.

    Arrivals are seen through ``Simulation.on_event``.  A task is logged
    when the controller builds its ``TaskCompletionEvent``, which happens
    exactly once per dispatch, so tasks whose completion never pops (past
    the horizon, or cancelled by an eviction) are logged too.
    """
    log = RunLog()

    def hook(_simulation: Simulation, event) -> None:
        if isinstance(event, RequestArrivalEvent):
            log.requests.append(event.request)

    original_init = Simulation.__init__

    def init(self, *args, **kwargs) -> None:
        original_init(self, *args, **kwargs)
        self.on_event(hook)

    def completion_event(*, time_ms: float, task: Task) -> TaskCompletionEvent:
        log.tasks.append(task)
        return TaskCompletionEvent(time_ms=time_ms, task=task)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "__init__", init)
        patch.setattr(controller_module, "TaskCompletionEvent", completion_event)
        yield log


@pytest.fixture(scope="session")
def run_log():
    """``with run_log() as log:`` logs the requests and tasks every
    simulation built inside the block fed its collector (see :func:`_logged_run`)."""
    return _logged_run


def _reference_latencies(requests: list[Request], app: str | None = None) -> list[float]:
    """Latencies of the completed requests, sorted by ``(completed_ms, request_id)``."""
    done = sorted(
        (r for r in requests if r.is_complete and (app is None or r.app_name == app)),
        key=lambda r: (r.completed_ms, r.request_id),
    )
    return [r.latency_ms for r in done]


def _reference_summary(
    requests: list[Request],
    tasks: list[Task],
    overheads: list[float],
    horizon: float,
    **counters,
) -> RunSummary:
    """Brute-force summary of the fed objects: scans, sorts and plain sums.

    ``tasks`` must be in dispatch order (the waiting mean is a
    left-to-right sum).  ``counters`` sets the fields that are plain
    counters incremented at their source (``plan_attempts``,
    ``local_transfers``, ``truncated``, ...); they default to zero.
    """

    def scope(app):
        return [r for r in requests if app is None or r.app_name == app]

    def hit_rate(app):
        relevant = scope(app)
        return sum(1 for r in relevant if r.slo_hit) / len(relevant) if relevant else 0.0

    def cost(app):
        return sum(
            charged_cost_cents(t, horizon) for t in tasks if app is None or t.app_name == app
        )

    def mean_latency(app):
        latencies = _reference_latencies(requests, app)
        return sum(latencies) / len(latencies) if latencies else 0.0

    apps = sorted({r.app_name for r in requests})
    all_latencies = _reference_latencies(requests)
    latency_stats = summarize(all_latencies) if all_latencies else None
    overhead_stats = summarize(overheads) if overheads else None
    waiting = [t.waiting_ms() for t in tasks]
    summary = RunSummary(
        policy="",
        setting="",
        num_requests=len(requests),
        num_completed=sum(1 for r in requests if r.is_complete),
        slo_hit_rate=hit_rate(None),
        total_cost_cents=cost(None),
        cost_per_request_cents=cost(None) / len(requests) if requests else 0.0,
        mean_latency_ms=latency_stats.mean if latency_stats else 0.0,
        p95_latency_ms=latency_stats.p95 if latency_stats else 0.0,
        mean_overhead_ms=overhead_stats.mean if overhead_stats else 0.0,
        p95_overhead_ms=overhead_stats.p95 if overhead_stats else 0.0,
        plan_attempts=0,
        plan_misses=0,
        cold_starts=sum(1 for t in tasks if t.was_cold_start),
        warm_starts=sum(1 for t in tasks if not t.was_cold_start),
        local_transfers=0,
        remote_transfers=0,
        forced_min_dispatches=0,
        mean_waiting_ms=sum(waiting) / len(waiting) if waiting else 0.0,
        total_vgpu_ms=sum(t.config.vgpus * charged_duration_ms(t, horizon) for t in tasks),
        total_vcpu_ms=sum(t.config.vcpus * charged_duration_ms(t, horizon) for t in tasks),
        per_app_slo_hit_rate={app: hit_rate(app) for app in apps},
        per_app_cost_cents={app: cost(app) for app in apps},
        per_app_mean_latency_ms={app: mean_latency(app) for app in apps},
        num_evicted=sum(1 for r in requests if r.is_evicted),
    )
    return replace(summary, **counters)


@pytest.fixture(scope="session")
def reference_summary():
    """The brute-force :class:`RunSummary` of fed requests and tasks
    (see :func:`_reference_summary`)."""
    return _reference_summary


@pytest.fixture(scope="session")
def reference_latencies():
    """Completed latencies sorted by ``(completed_ms, request_id)``."""
    return _reference_latencies
