"""Re-record ``summaries.json`` from the current simulator.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only for a change that is meant to alter simulated outcomes, and
record the reason in CHANGES.md: the golden test asserts every cell
against this file and never rewrites it.
"""

from __future__ import annotations

import json

from golden_matrix import (
    GOLDEN_PATH,
    REQUESTS_PER_CELL,
    document_digest,
    golden_cells,
    summary_document,
)

from repro.experiments.runner import build_profile_store, run_experiment


def main() -> None:
    store = build_profile_store()
    cells: dict[str, dict[str, object]] = {}
    for cell in golden_cells():
        result = run_experiment(
            cell.policy, config=cell.config(), profile_store=store, scenario=cell.scenario
        )
        document = summary_document(result.summary)
        cells[cell.cell_id] = {"digest": document_digest(document), "summary": document}
        print(f"{cells[cell.cell_id]['digest']}  {cell.cell_id}")
    payload = {"format": 1, "requests_per_cell": REQUESTS_PER_CELL, "cells": cells}
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=True)
    GOLDEN_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
