"""Self-tests of the benchmark's own arithmetic and checks.

``run.py`` runs them before every measurement and refuses to report if any
fails; ``python3 perfbench/selfcheck.py`` runs them alone.  They take
milliseconds and touch no simulation.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cells import Cell, DigestBook, check_run
from repro.cluster.metrics import RunSummary
from spans import Tracer, percentile, tail_percentile


def _tail_percentile() -> list[str]:
    problems = []
    cases = [
        (1000, 99.0),  # rank 990: exactly 10 samples above it
        (999, 95.0),   # p99 would leave 9 above; p95 leaves 49
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),    # even the median has only 9 above it
    ]
    for n, expected in cases:
        q, value = tail_percentile([float(v) for v in range(n, 0, -1)])
        if q != expected:
            problems.append(f"tail_percentile over {n} samples chose p{q}, expected p{expected}")
        elif q is not None and value != percentile([float(v) for v in range(1, n + 1)], q):
            problems.append(f"tail_percentile over {n} samples read {value}")
    if percentile([1.0, 2.0, 3.0, 4.0], 50.0) != 2.0:
        problems.append("nearest-rank median of 1..4 is not 2")
    if percentile([float(v) for v in range(1, 11)], 95.0) != 10.0:
        problems.append("nearest-rank p95 of 1..10 is not 10 (rank 9.5 rounds up)")
    return problems


def _self_time() -> list[str]:
    # Fake clock; the tree is a [0, 10] > (b [1, 4], c [5, 9] > d [6, 7]),
    # with c a hot frame that records no span.
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.enter("experiments.a")
    b = tracer.enter("core.b")
    tracer.exit(b)
    c = tracer.enter("cluster.c", keep=False)
    d = tracer.enter("core.d")
    tracer.exit(d)
    tracer.exit(c)
    tracer.exit(a)
    problems = []
    expected = {"experiments.a": 3.0, "core.b": 3.0, "cluster.c": 3.0, "core.d": 1.0}
    if dict(tracer.self_s) != expected:
        problems.append(f"self times {dict(tracer.self_s)} != {expected}")
    layers = tracer.layer_self_s()
    if (layers["core"], layers["cluster"], layers["experiments"]) != (4.0, 3.0, 3.0):
        problems.append(f"layer self times {layers} do not split 10 s into core 4, cluster 3, "
                        "experiments 3")
    if sum(layers.values()) != 10.0:
        problems.append("layer self times do not add up to the root span")
    parents = {name: parent for _, name, _, _, parent, _ in tracer.spans}
    ids = {name: span_id for span_id, name, _, _, _, _ in tracer.spans}
    if "cluster.c" in ids or parents["core.d"] != ids["experiments.a"]:
        problems.append(f"span parents {parents} skip the hot frame wrongly")
    return problems


def _planted_digest() -> list[str]:
    cell = Cell("ESG", "paper-strict-light", 120, 1)
    summary = RunSummary(
        policy="ESG", setting="strict-light", num_requests=120, num_completed=120,
        slo_hit_rate=1.0, total_cost_cents=3.0, cost_per_request_cents=0.025,
        mean_latency_ms=300.0, p95_latency_ms=400.0, mean_overhead_ms=5.0,
        p95_overhead_ms=8.0, plan_attempts=0, plan_misses=0, cold_starts=0,
        warm_starts=300, local_transfers=200, remote_transfers=0,
        forced_min_dispatches=0, mean_waiting_ms=1.0, total_vgpu_ms=1e5,
        total_vcpu_ms=1e5, per_app_slo_hit_rate={}, per_app_cost_cents={},
        per_app_mean_latency_ms={},
    )
    problems = []
    book = DigestBook()
    if check_run(cell, summary, book) or check_run(cell, summary, book):
        problems.append("a run equal to the first failed the output check")
    planted = DigestBook()
    planted.first[cell.key] = "0" * 16
    if check_run(cell, summary, planted) is None:
        problems.append("a planted mismatched digest passed the output check")
    if check_run(cell, dataclasses.replace(summary, truncated=True), DigestBook()) is None:
        problems.append("a truncated run passed the output check")
    if check_run(cell, dataclasses.replace(summary, num_completed=119), DigestBook()) is None:
        problems.append("a run that lost a request passed the output check")
    return problems


def run_all() -> list[str]:
    return _tail_percentile() + _self_time() + _planted_digest()


if __name__ == "__main__":
    failures = run_all()
    for failure in failures:
        print(f"self-test failed: {failure}", file=sys.stderr)
    print("self-tests", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)
