"""The pinned golden-summary matrix and its canonical encoding.

Every cell is one simulated run — a policy on a named scenario with a seed
and a small request count — whose :class:`~repro.cluster.metrics.RunSummary`
is recorded in ``summaries.json`` next to this module.  The recorded
document is ``asdict(summary)`` reduced by the result store's canonical
encoder (sorted mapping keys, plain JSON scalars) and its blake2s digest is
taken over the compact sorted-key JSON text, exactly like a store key.

Shared by ``test_golden_summaries.py`` (which only reads the file) and
``regenerate.py`` (the only writer).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.cluster.metrics import RunSummary
from repro.experiments.runner import DEFAULT_POLICIES, ExperimentConfig
from repro.experiments.store import _canonical

GOLDEN_PATH = Path(__file__).resolve().parent / "summaries.json"

#: Requests per cell: enough for every policy to batch, queue and recheck,
#: small enough that the whole matrix stays a tier-1 test.
REQUESTS_PER_CELL = 16

PAPER_SCENARIOS = ("paper-strict-light", "paper-moderate-normal", "paper-relaxed-heavy")
NON_PAPER_SCENARIOS = ("poisson-normal", "trace-replay-azure", "mixed-dags-normal")
CHURN_SCENARIOS = ("churn-mixed-normal", "churn-eviction-storm", "churn-eviction-fail")
AUTOSCALE_SPECS = ("threshold-default", "pid-default")
SEEDS = (42, 7)


@dataclass(frozen=True)
class GoldenCell:
    """One recorded run: everything that determines its summary."""

    policy: str
    scenario: str
    seed: int = 42
    num_requests: int = REQUESTS_PER_CELL
    max_time_ms: float = float("inf")
    autoscale: str | None = None

    @property
    def cell_id(self) -> str:
        parts = [self.policy, self.scenario, f"seed{self.seed}", f"n{self.num_requests}"]
        if self.max_time_ms != float("inf"):
            parts.append(f"horizon{self.max_time_ms:g}ms")
        if self.autoscale is not None:
            parts.append(f"autoscale={self.autoscale}")
        return "/".join(parts)

    def config(self) -> ExperimentConfig:
        config = ExperimentConfig(
            num_requests=self.num_requests,
            seed=self.seed,
            max_time_ms=self.max_time_ms,
            autoscale=self.autoscale,
        )
        if self.autoscale is not None:
            # From the all-warm paper default no run ever cold-starts, so
            # prewarm decisions would be unobservable; start from "home".
            config = config.with_overrides(
                controller=replace(config.controller, initial_warm="home")
            )
        return config


def golden_cells() -> tuple[GoldenCell, ...]:
    """The pinned matrix, in a fixed order."""
    cells = [
        GoldenCell(policy, scenario, seed)
        for policy in DEFAULT_POLICIES
        for scenario in PAPER_SCENARIOS
        for seed in SEEDS
    ]
    cells += [GoldenCell("ESG", scenario) for scenario in NON_PAPER_SCENARIOS]
    cells += [
        GoldenCell(policy, scenario)
        for policy in ("ESG", "INFless")
        for scenario in CHURN_SCENARIOS
    ]
    cells += [
        GoldenCell("ESG", "diurnal-normal", autoscale=spec) for spec in AUTOSCALE_SPECS
    ]
    # Truncated at the horizon: the run stops with work still queued.
    cells.append(GoldenCell("ESG", "paper-moderate-normal", max_time_ms=400.0))
    return tuple(cells)


def summary_document(summary: RunSummary) -> dict[str, object]:
    """The canonical JSON-able document of one summary."""
    return _canonical(asdict(summary))


def document_digest(document: dict[str, object]) -> str:
    """blake2s over the compact sorted-key JSON text (32 hex chars)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.blake2s(text.encode("utf-8"), digest_size=16).hexdigest()


def load_goldens(path: Path = GOLDEN_PATH) -> dict[str, dict[str, object]]:
    """``cell_id -> {"digest": ..., "summary": ...}`` from the recorded file."""
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def first_difference(expected: object, actual: object, path: str = "") -> str | None:
    """Dotted path and values of the first differing field, or ``None``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else key
            if key not in expected or key not in actual:
                return f"{where}: present only in {'actual' if key in actual else 'golden'}"
            found = first_difference(expected[key], actual[key], where)
            if found is not None:
                return found
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path or '<root>'}: golden={expected!r} actual={actual!r}"
    return None
