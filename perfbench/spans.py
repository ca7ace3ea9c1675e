"""In-memory span tracer and the instrumentation that places spans around
the calls the benchmark makes into each layer of ``repro``.

Every boundary goes through one stack, so a frame's *self time* is its
duration minus the time its direct children took, whatever kind of frame
the children are.  Two kinds of frame exist:

* a **span** (``keep=True``) is also recorded as ``(id, name, start, end,
  parent_id, cell)``, for the written trace;
* a **hot** frame (``keep=False``) only adds to its name's totals.  It is used
  at boundaries crossed tens of thousands of times per cell (policy
  ``plan``/``select_invoker``, the ESG_1Q search, ``best_fitting_invoker``),
  where one record per call would cost more than the call itself.

Both kinds keep every call's duration, so counts and percentiles exist for
every boundary.  The instrumentation is installed only for a traced pass
and removed afterwards: untraced passes run the program unmodified.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.core.esg as esg_module
from repro.baselines.bo import GaussianProcess
from repro.cluster.cluster import ClusterState
from repro.cluster.events import (
    ContainerExpireEvent,
    PrewarmCompleteEvent,
    RequestArrivalEvent,
    SchedulerTickEvent,
    TaskCompletionEvent,
)
from repro.cluster.metrics import MetricsCollector
from repro.cluster.simulator import Simulation
from repro.profiles.profiler import FunctionProfile
from repro.workloads.generator import WorkloadGenerator

#: The layers self time is reported for, named after ``repro``'s modules; a
#: frame's layer is its name's prefix.  ``other.self_s`` adds the traced wall
#: time outside every frame (the harness between cells).
LAYERS = ("workloads", "profiles", "core", "baselines", "cluster", "experiments")

EVENT_NAMES = {
    RequestArrivalEvent: "arrival",
    TaskCompletionEvent: "completion",
    SchedulerTickEvent: "tick",
    PrewarmCompleteEvent: "prewarm",
    ContainerExpireEvent: "expire",
}


class Tracer:
    """Stack-based span recorder; ``clock`` is injectable for self-tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Recorded spans: ``(id, name, start, end, parent_id, cell)``.
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        #: Per-name durations of every call, in seconds.
        self.durations: dict[str, array] = {}
        #: Per-name self time (duration minus direct children), in seconds.
        self.self_s: Counter[str] = Counter()
        #: Plain event counts (simulator events, search statistics, ...).
        self.counts: Counter[str] = Counter()
        #: Identifier of the cell being run, stamped on every span.
        self.cell: str | None = None
        self._stack: list[list[Any]] = []
        self._next_id = 0

    def enter(self, name: str, keep: bool = True) -> list[Any]:
        """Open a frame; ``keep`` records it as a span as well."""
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list[Any]) -> float:
        """Close ``frame`` (the innermost open one); returns its duration."""
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_s, span_id = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        durations = self.durations.get(name)
        if durations is None:
            durations = self.durations[name] = array("d")
        durations.append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, name, start, end, self._parent_span_id(), self.cell))
        return duration

    def _parent_span_id(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def call(self, name: str, fn: Callable, *args: Any, keep: bool = True, **kwargs: Any) -> Any:
        """Run ``fn`` inside a frame called ``name``."""
        frame = self.enter(name, keep)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        keep: bool = True,
        on_result: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """``fn`` with every call inside a frame; ``on_result`` sees each result."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (the name's prefix before the first dot)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out


def instrument_policy(tracer: Tracer, policy: Any) -> None:
    """Wrap a policy's scheduler entry points on the instance.

    The controller and simulation call ``policy.plan``, ``policy.select_invoker``
    and ``policy.bind`` through the instance, so instance attributes see every
    call; Orion's search and Aquatope's training are reached through ``self``.
    """
    is_esg = type(policy).__module__ == esg_module.__name__
    layer = "core" if is_esg else "baselines"
    dispatch_name = "core.dispatch" if is_esg else "baselines.select_invoker"

    def count_placement(result: Any, args: tuple, kwargs: dict) -> None:
        if result is None:
            tracer.counts["placement_failures"] += 1

    policy.plan = tracer.wrap(f"{layer}.plan", policy.plan, keep=False)
    policy.select_invoker = tracer.wrap(
        dispatch_name, policy.select_invoker, keep=False, on_result=count_placement
    )
    policy.bind = tracer.wrap(f"{layer}.bind", policy.bind)
    if hasattr(policy, "search"):
        policy.search = tracer.wrap("baselines.orion_search", policy.search)
    if hasattr(policy, "train"):
        policy.train = tracer.wrap("baselines.train", policy.train)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Install class- and module-level wrappers for one traced pass."""

    def count_search(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.counts["expansions"] += result.expansions
        tracer.counts["pruned_time"] += result.pruned_time
        tracer.counts["pruned_cost"] += result.pruned_cost

    def count_requests(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.counts["requests"] += args[1] if len(args) > 1 else kwargs["num_requests"]

    def count_event(simulation: Simulation, event: Any) -> None:
        tracer.counts["events." + EVENT_NAMES.get(type(event), "other")] += 1

    original_run = Simulation.run

    def run(simulation: Simulation) -> Any:
        simulation.on_event(count_event)
        return tracer.call("cluster.run", original_run, simulation)

    original_sorted = FunctionProfile.sorted_by_latency

    def sorted_by_latency(profile: FunctionProfile, *args: Any, **kwargs: Any) -> Any:
        tracer.counts["sorted_by_latency_calls"] += 1
        return original_sorted(profile, *args, **kwargs)

    patches = [
        (esg_module, "esg_1q_search",
         tracer.wrap("core.search", esg_module.esg_1q_search, keep=False, on_result=count_search)),
        (GaussianProcess, "fit", tracer.wrap("baselines.gp_fit", GaussianProcess.fit)),
        (GaussianProcess, "predict", tracer.wrap("baselines.gp_predict", GaussianProcess.predict)),
        (ClusterState, "best_fitting_invoker",
         tracer.wrap("cluster.best_fit", ClusterState.best_fitting_invoker, keep=False)),
        (MetricsCollector, "summary", tracer.wrap("cluster.summary", MetricsCollector.summary)),
        (Simulation, "__init__", tracer.wrap("cluster.init", Simulation.__init__)),
        (Simulation, "run", run),
        # ``generate`` materializes ``stream``: requests are counted once, at
        # the stream, and gen_s is the self time of both frames.
        (WorkloadGenerator, "generate", tracer.wrap("workloads.gen", WorkloadGenerator.generate)),
        (WorkloadGenerator, "stream",
         tracer.wrap("workloads.gen", WorkloadGenerator.stream, on_result=count_requests)),
        (FunctionProfile, "sorted_by_latency", sorted_by_latency),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over a traced pass
# ----------------------------------------------------------------------
#: Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(values: list[float], min_beyond: int = 10) -> tuple[float | None, float]:
    """The highest ladder percentile with at least ``min_beyond`` samples above
    its rank, and its value; ``(None, 0.0)`` when no ladder step qualifies."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n - math.ceil(q * n / 100.0) >= min_beyond:
            return q, percentile(ordered, q)
    return None, 0.0


def deterministic_counts(tracer: Tracer) -> dict[str, int]:
    """Every count a traced pass makes: call counts per boundary plus the
    event and search counters.  All repeat exactly for identical inputs."""
    counts = {f"calls.{name}": len(d) for name, d in tracer.durations.items()}
    counts.update(tracer.counts)
    return dict(sorted(counts.items()))


def per_layer_metrics(tracer: Tracer, sim: dict[str, float], wall_s: float) -> dict[str, float]:
    """The per-layer figures of one traced pass taking ``wall_s`` seconds."""
    t = tracer
    c = t.counts
    plan_calls = t.calls("core.plan")
    searches = t.calls("core.search")
    plan_us = [d * 1e6 for d in t.durations.get("core.plan", ())]
    all_plans = plan_calls + t.calls("baselines.plan")
    select_calls = t.calls("core.dispatch") + t.calls("baselines.select_invoker")
    metrics = {
        "core.plan_calls": plan_calls,
        "core.plan_s": t.total_s("core.plan"),
        "core.plan_us_p50": percentile(sorted(plan_us), 50.0),
        "core.plan_us_p99": tail_percentile(plan_us)[1],
        "core.searches": searches,
        "core.search_s": t.total_s("core.search"),
        "core.plan_cache_hit_ratio": (plan_calls - searches) / plan_calls if plan_calls else 0.0,
        "core.dispatch_s": t.total_s("core.dispatch"),
        "core.bind_s": t.total_s("core.bind"),
        "core.expansions": c["expansions"],
        "core.pruned_time": c["pruned_time"],
        "core.pruned_cost": c["pruned_cost"],
        "baselines.trainings": t.calls("baselines.train"),
        "baselines.train_s": t.total_s("baselines.train"),
        "baselines.gp_fits": t.calls("baselines.gp_fit"),
        "baselines.gp_fit_s": t.total_s("baselines.gp_fit"),
        "baselines.gp_predict_s": t.total_s("baselines.gp_predict"),
        "baselines.plan_calls": t.calls("baselines.plan"),
        "baselines.plan_s": t.total_s("baselines.plan"),
        "baselines.select_invoker_s": t.total_s("baselines.select_invoker"),
        "baselines.orion_searches": t.calls("baselines.orion_search"),
        "baselines.orion_search_s": t.total_s("baselines.orion_search"),
        "cluster.dispatch_per_plan": sim["dispatches"] / all_plans if all_plans else 0.0,
        "cluster.placement_fail_ratio": (
            c["placement_failures"] / select_calls if select_calls else 0.0
        ),
        "cluster.best_fit_calls": t.calls("cluster.best_fit"),
        "cluster.best_fit_s": t.total_s("cluster.best_fit"),
        "cluster.init_s": t.total_s("cluster.init"),
        "cluster.run_s": t.total_s("cluster.run"),
        "cluster.summary_s": t.total_s("cluster.summary"),
        "cluster.cold_starts": sim["cold_starts"],
        "cluster.warm_starts": sim["warm_starts"],
        "cluster.forced_min_dispatches": sim["forced_min_dispatches"],
        "cluster.queue_wait_ms_mean": sim["queue_wait_ms_mean"],
        "cluster.sched_overhead_ms": sim["sched_overhead_ms"],
        "profiles.sorted_by_latency_calls": c["sorted_by_latency_calls"],
        "profiles.build_s": t.total_s("profiles.build"),
        "workloads.requests": c["requests"],
        "workloads.gen_s": t.self_s["workloads.gen"],
        "trace.wall_s": wall_s,
    }
    for kind in EVENT_NAMES.values():
        metrics[f"cluster.events.{kind}"] = c[f"events.{kind}"]
    layers = t.layer_self_s()
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["other.self_s"] = wall_s - sum(layers.values())
    return metrics
