"""Paper-workload benchmark of the ESG reproduction.

    python3 perfbench/run.py --workload paper-esg --seed 1 --seconds 20 --trace 0

Runs one workload of ``cells.WORKLOADS`` in this process (one thread) from a
checkout of the repository; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with the program unmodified:
the matrix of cells runs once, then cells repeat, costliest first, until
``--seconds`` have passed (at least one repeat).  Host throughput uses each
cell's median host time; the simulated metrics come from the first run of
each cell.  ``setup_s`` is the median over fresh interpreter processes of
start-up to a built profile store.  Both host times are scaled to a
reference host speed by a program-independent probe timed around each
measurement (``measure.ProbedClock``); the raw figures are printed as
``info raw_*`` lines.

``--trace 1`` reports the per-layer metrics: untraced and traced passes
over the matrix alternate (untraced, traced, traced, then more pairs while
time remains).  Time figures are means over the traced passes, so layer self
times plus ``other`` add up to the traced pass wall time;
``trace.overhead_ratio`` compares traced with untraced pass walls.

Every run checks each cell's output (every request completed or evicted,
no truncation) and that each cell's summary digest is equal on every run of
it, traced or not; a traced run also requires every count to repeat exactly
across traced passes.  A failed check makes the command exit 1.  The last
line of standard output is one JSON object with the metric names and units
listed in ``BENCHMARK.json``; a result file with the environment, per-cell
digests and (traced) the spans is written under ``perfbench/out/``.
The workloads are defined in ``cells.py``, the two kinds of run in
``measure.py`` and the tracer in ``spans.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # Inherited, never set here: pinning BLAS threads would hide the
        # GP-fit oversubscription the paper-baselines workload exposes.
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import selfcheck
    from cells import WORKLOADS, DigestBook

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    failures = selfcheck.run_all()
    for failure in failures:
        print(f"self-test failed: {failure}", file=sys.stderr)
    if failures:
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    book = DigestBook()
    run = measure.per_layer if args.trace else measure.end_to_end
    workload = WORKLOADS[args.workload]
    metrics, info, runs, problems = run(workload, args.seed, args.seconds, book, ROOT)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not computed: {missing}")

    digest = book.workload_digest()
    print(f"digest {args.workload} seed {args.seed}: {digest} over {len(book.first)} cells")
    for name, value in sorted(info.items()):
        if name not in ("spans", "counts", "cell_host_s"):
            print(f"info {name}: {value}")
    units = {m["name"]: m["unit"] for m in listed}
    if not args.trace:
        units.update(sched_overhead_ms="ms", failed_share="ratio")
    for name in sorted(units):
        print(f"metric {name} = {metrics.get(name)} {units[name]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    # Failed cells were reported as they happened; a failed run-level check
    # counts as one failure more.
    failed = sum(1 for r in runs if r.error) + (1 if problems else 0)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in listed
        },
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "digest": digest, "cell_digests": book.first, "result": result, "info": info,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
