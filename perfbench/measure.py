"""The two kinds of run: end-to-end (untraced) and per-layer (traced)."""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cells import Cell, CellRun, DigestBook, Workload, run_cell, simulated_metrics
from repro.experiments import build_profile_store
from spans import Tracer, deterministic_counts, instrumented, per_layer_metrics, tail_percentile

SETUP_SAMPLES = 3
#: The probe's time on an unloaded 2-core x86 sandbox; see ``ProbedClock``.
PROBE_REFERENCE_S = 0.007
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from repro.experiments import ExperimentConfig, build_profile_store, make_policy, "
    "run_experiment; from repro.workloads.scenarios import get_scenario; "
    "build_profile_store()"
)


def probe() -> float:
    """Time a fixed pure-Python loop; independent of the program.

    The fastest of five 60k-step rounds (about 35 ms in all), after a short
    pause that lets BLAS worker threads stop spinning after a GP fit (two
    vCPUs may share a core): a slow host state lasts minutes and slows every
    round, short interference does not.
    """
    time.sleep(0.15)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        x = 0
        for i in range(60_000):
            table[i & 1023] = x
            x = (x * 31 + i) & 0xFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


class ProbedClock:
    """Scales host times to the reference speed of :func:`probe`.

    A shared sandbox changes speed by up to 1.5x for minutes at a time, longer
    than a run, so raw host times of identical work spread by more than any
    usable bound across runs.  The probe is timed between measurements; each
    measurement is multiplied by ``PROBE_REFERENCE_S`` over the mean of the
    probes before and after it, which cancels most of the swing.  The probe
    does not run the program, so the program's own speed passes through.
    """

    def __init__(self) -> None:
        self.last = probe()

    def scale(self, host_s: float) -> float:
        """Scale a measurement that ended just now."""
        now = probe()
        scaled = host_s * PROBE_REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return scaled


def setup_seconds(root: Path) -> float:
    """Start a fresh interpreter, import the program and build the profile store."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, check=True, timeout=120)
    return time.perf_counter() - start


def run_pass(cells, store_builder, book: DigestBook, label: str, tracer: Tracer | None = None):
    """One pass over ``cells``; returns (wall seconds, cell runs)."""
    start = time.perf_counter()
    if tracer is None:
        store = store_builder()
    else:
        store = tracer.call("profiles.build", store_builder)
    runs = [run_cell(cell, store, book, label, tracer) for cell in cells]
    return time.perf_counter() - start, runs


def failed_keys(runs: list[CellRun]) -> set[str]:
    return {run.cell.key for run in runs if run.error is not None}


def end_to_end(workload: Workload, seed: int, seconds: float, book: DigestBook, root: Path):
    """Untraced: the matrix once, then repeats, costliest cells first.

    Host times are scaled by a :class:`ProbedClock`; the raw ones are kept
    in ``info``.
    """
    clock = ProbedClock()
    raw_setup = []
    setup = []
    for _ in range(SETUP_SAMPLES):
        raw_setup.append(setup_seconds(root))
        setup.append(clock.scale(raw_setup[-1]))
    cells = workload.cells(seed)
    deadline = time.perf_counter() + seconds
    store = build_profile_store()
    raw: dict[str, list[float]] = {}
    times: dict[str, list[float]] = {}

    def run(cell: Cell, label: str) -> CellRun:
        result = run_cell(cell, store, book, label)
        raw.setdefault(cell.key, []).append(result.host_s)
        times.setdefault(cell.key, []).append(clock.scale(result.host_s))
        return result

    first = [run(cell, "pass 1") for cell in cells]
    # Read before the repeats: their number depends on the host's speed, and
    # cyclic garbage left by a cell can overlap the next one's allocations.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = list(first)
    # The costliest cells dominate the matrix time, so their medians are the
    # ones worth a second and third sample.
    order = sorted(first, key=lambda r: -r.host_s)
    while len(runs) == len(first) or time.perf_counter() < deadline:
        runs.append(run(order[(len(runs) - len(first)) % len(order)].cell, "repeat"))
    sim = simulated_metrics(first, failed_keys(runs))
    host_s = sum(statistics.median(times[cell.key]) for cell in cells)
    raw_host_s = sum(statistics.median(raw[cell.key]) for cell in cells)
    metrics = {
        "sim_req_per_s": sim["completed"] / host_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "slo_hit_rate": sim["slo_hit_rate"],
        "cost_cents_per_req": sim["cost_cents_per_req"],
        "completed_share": sim["completed_share"],
        # Printed, not in the result line: both are 0 on some workloads.
        "sched_overhead_ms": sim["sched_overhead_ms"],
        "failed_share": sim["failed_share"],
    }
    info = {
        "raw_sim_req_per_s": sim["completed"] / raw_host_s,
        "raw_setup_s": statistics.median(raw_setup),
        "setup_samples_s": raw_setup,
        "cell_host_s": raw,
        "matrix_host_s": raw_host_s,
    }
    return metrics, info, runs, []


def per_layer(workload: Workload, seed: int, seconds: float, book: DigestBook, root: Path):
    """Traced: untraced, traced, traced, then pairs while time remains."""
    cells = workload.cells(seed)
    deadline = time.perf_counter() + seconds
    untraced_walls: list[float] = []
    traced: list[tuple[float, list[CellRun], Tracer]] = []
    runs: list[CellRun] = []
    order = ["untraced", "traced", "traced"]
    while order or time.perf_counter() < deadline:
        kind = order.pop(0) if order else (
            "untraced" if len(untraced_walls) < len(traced) else "traced"
        )
        if kind == "untraced":
            wall, pass_runs = run_pass(cells, build_profile_store, book, "untraced")
            untraced_walls.append(wall)
        else:
            tracer = Tracer()
            with instrumented(tracer):
                wall, pass_runs = run_pass(cells, build_profile_store, book, "traced", tracer)
            traced.append((wall, pass_runs, tracer))
        runs += pass_runs

    problems = []
    reference = deterministic_counts(traced[0][2])
    for index, (_, _, tracer) in enumerate(traced[1:], start=2):
        counts = deterministic_counts(tracer)
        differing = sorted(
            k for k in reference.keys() | counts.keys() if reference.get(k) != counts.get(k)
        )
        if differing:
            problems.append(f"traced pass {index} counts differ from traced pass 1: {differing}")
    failed = failed_keys(runs)
    per_pass = [
        per_layer_metrics(tracer, simulated_metrics(pass_runs, failed), wall)
        for wall, pass_runs, tracer in traced
    ]
    # Counts repeat exactly (checked above); times are means over the traced
    # passes, so the layer self times keep adding up to the wall time.
    metrics = {
        name: value if isinstance(value, int) else statistics.fmean(p[name] for p in per_pass)
        for name, value in per_pass[0].items()
    }
    untraced_wall = statistics.fmean(untraced_walls)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced_wall - 1.0
    plan_calls = len(traced[0][2].durations.get("core.plan", ()))
    tail_q, _ = tail_percentile([0.0] * plan_calls)
    info = {
        "untraced_walls_s": untraced_walls,
        "traced_walls_s": [wall for wall, _, _ in traced],
        "plan_us_p99_basis": f"p{tail_q} of {plan_calls} core.plan calls per traced pass",
        "counts": reference,
        "spans": [{"pass": i, "spans": t.spans} for i, (_, _, t) in enumerate(traced, start=1)],
    }
    return metrics, info, runs, problems
