"""ESG_1Q: the per-queue configuration-path search (Section 3.3, Algorithm 1).

Given the sequence of remaining stages of a function group and a target
latency (the group's SLO quota), ESG_1Q finds configuration *paths* — one
``(batch, #vCPUs, #vGPUs)`` configuration per stage — that meet the target
with the smallest per-job resource cost.  The search walks the stages in
order, extending every surviving partial path with each configuration of the
next stage (configurations sorted by increasing latency, so time-based
pruning can ``break`` out of the rest of the list), and applies the
dual-blade pruning bounds of :mod:`repro.core.bounds`:

* **time blade** — if even the fastest completion of the extended path
  exceeds the target latency, the extension (and every slower configuration
  after it) is discarded;
* **cost blade** — if even the cheapest completion of the extended path
  costs no less than the K-th best known achievable completion cost
  (``best_full_paths_maxCost``), the extension is discarded.

The output is the configuration priority queue the controller consumes: up
to K complete paths sorted by increasing cost.  When no path can meet the
target, the fallback "default path" (every stage at its fastest
configuration) is returned so the scheduler can still make progress, as in
``setDefaultPaths`` of Figure 3(b).
"""

from __future__ import annotations

import time as _time
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from repro.core.bounds import SuffixBounds
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import FunctionProfile, ProfileEntry

__all__ = ["StageSearchSpec", "PathCandidate", "ESG1QResult", "esg_1q_search"]


@dataclass(frozen=True)
class StageSearchSpec:
    """Search input for one stage: its configuration list sorted by latency."""

    stage_id: str
    function_name: str
    entries: tuple[ProfileEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"stage {self.stage_id!r} has no configuration entries")
        lat = [e.latency_ms for e in self.entries]
        if any(lat[i] > lat[i + 1] for i in range(len(lat) - 1)):
            raise ValueError(f"entries of stage {self.stage_id!r} must be sorted by latency")

    @classmethod
    def from_profile(
        cls,
        stage_id: str,
        profile: FunctionProfile,
        *,
        max_batch: int | None = None,
    ) -> "StageSearchSpec":
        """Build the spec from a function profile, optionally capping the batch."""
        entries = profile.sorted_by_latency(max_batch=max_batch)
        return cls(stage_id=stage_id, function_name=profile.spec.name, entries=entries)

    @property
    def min_latency_ms(self) -> float:
        """Latency of the fastest configuration."""
        return self.entries[0].latency_ms

    @cached_property
    def min_cost_cents(self) -> float:
        """Per-job cost of the cheapest configuration."""
        return min(e.per_job_cost_cents for e in self.entries)

    @property
    def fastest_cost_cents(self) -> float:
        """Per-job cost of the fastest configuration."""
        return self.entries[0].per_job_cost_cents

    @property
    def fastest_entry(self) -> ProfileEntry:
        """The fastest configuration entry."""
        return self.entries[0]

    @cached_property
    def table(self) -> tuple[tuple[float, float, Configuration], ...]:
        """``(latency_ms, per_job_cost_cents, config)`` of every entry, in
        entry order: the search loop unpacks these instead of reading
        attributes off each :class:`ProfileEntry`."""
        return tuple((e.latency_ms, e.per_job_cost_cents, e.config) for e in self.entries)

    @cached_property
    def suffix_min_costs(self) -> tuple[float, ...]:
        """``suffix_min_costs[j]`` = cheapest per-job cost among ``entries[j:]``.

        Used by the search to stop scanning a stage's (latency-ordered)
        configuration list as soon as no remaining entry could pass the cost
        blade — a sound shortcut because it only skips entries whose
        ``rscLow`` is provably at least the current pruning threshold.
        """
        costs = [e.per_job_cost_cents for e in self.entries]
        out = [0.0] * (len(costs) + 1)
        out[-1] = float("inf")
        running = float("inf")
        for j in range(len(costs) - 1, -1, -1):
            running = min(running, costs[j])
            out[j] = running
        return tuple(out)


@dataclass(frozen=True)
class PathCandidate:
    """One complete configuration path over the searched stages."""

    configs: tuple[Configuration, ...]
    latency_ms: float
    cost_cents: float

    @property
    def first_config(self) -> Configuration:
        """Configuration of the first (currently scheduled) stage."""
        return self.configs[0]

    def as_plan(self, stage_ids: Sequence[str]) -> dict[str, Configuration]:
        """Return the path as a stage->configuration mapping."""
        if len(stage_ids) != len(self.configs):
            raise ValueError(
                f"path covers {len(self.configs)} stages but {len(stage_ids)} ids were given"
            )
        return dict(zip(stage_ids, self.configs))


@dataclass
class ESG1QResult:
    """Output of one ESG_1Q invocation, plus search statistics."""

    paths: list[PathCandidate]
    target_latency_ms: float
    feasible: bool
    expansions: int
    pruned_time: int
    pruned_cost: int
    search_time_ms: float
    stage_ids: tuple[str, ...] = ()
    #: True when ``max_expansions`` stopped the search before it finished.
    truncated: bool = False

    @property
    def best(self) -> PathCandidate | None:
        """The cheapest feasible path (or the fallback path when infeasible)."""
        return self.paths[0] if self.paths else None

    def candidate_configs(self) -> list[Configuration]:
        """First-stage configurations in priority order, de-duplicated."""
        seen: set[Configuration] = set()
        out: list[Configuration] = []
        for path in self.paths:
            cfg = path.first_config
            if cfg not in seen:
                seen.add(cfg)
                out.append(cfg)
        return out


#: Sort keys of the ``(cost_cents, latency_ms, configs)`` path tuples; both
#: sorts are stable, so ties keep the order the paths were generated in.
_COST = itemgetter(0)
_COST_THEN_LATENCY = itemgetter(0, 1)


def _suffix_bounds(stages: Sequence[StageSearchSpec]) -> SuffixBounds:
    return SuffixBounds.from_stages(
        [s.min_latency_ms for s in stages],
        [s.min_cost_cents for s in stages],
        [s.fastest_cost_cents for s in stages],
    )


def _default_paths(stages: Sequence[StageSearchSpec]) -> list[PathCandidate]:
    """The fallback path: every stage runs its fastest configuration."""
    configs = tuple(s.fastest_entry.config for s in stages)
    latency = sum(s.fastest_entry.latency_ms for s in stages)
    cost = sum(s.fastest_entry.per_job_cost_cents for s in stages)
    return [PathCandidate(configs=configs, latency_ms=latency, cost_cents=cost)]


def esg_1q_search(
    stages: Sequence[StageSearchSpec],
    target_latency_ms: float,
    *,
    k: int = 5,
    max_paths: int = 5000,
    max_expansions: int = 2_000_000,
) -> ESG1QResult:
    """Run the ESG_1Q search over ``stages`` with a latency target.

    Parameters
    ----------
    stages:
        The remaining stages of the function group, in execution order.  The
        first stage's entries should already be restricted to batch sizes
        that the queue can currently form.
    target_latency_ms:
        The group's latency quota (``GSLO`` in Algorithm 1).
    k:
        Number of solutions kept in the configuration priority queue
        (the paper's ``K``, default 5).
    max_paths:
        Safety cap on the number of surviving partial paths per stage; when
        exceeded, only the cheapest are kept (the paper's pruning normally
        keeps the frontier far below this).
    max_expansions:
        Safety cap on the total number of path extensions examined.  The
        cap is checked before each partial path is extended, so a search
        can overshoot it by up to one stage's entry count; a search it
        stops reports ``truncated``.

    Returns
    -------
    ESG1QResult
        Up to ``k`` complete paths sorted by increasing cost.  If no path
        meets the target, ``feasible`` is False and the fallback
        fastest-configuration path is returned instead.
    """
    if not stages:
        raise ValueError("esg_1q_search needs at least one stage")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if target_latency_ms <= 0:
        # A non-positive budget can legitimately happen when a request has
        # already blown its deadline; nothing can meet it, so return the
        # fastest path as the damage-control default.
        return ESG1QResult(
            paths=_default_paths(stages),
            target_latency_ms=target_latency_ms,
            feasible=False,
            expansions=0,
            pruned_time=0,
            pruned_cost=0,
            search_time_ms=0.0,
            stage_ids=tuple(s.stage_id for s in stages),
        )

    # repro: allow[REP001] search_time_ms is a diagnostic on the result (figures 10/11 report real search cost); scheduling overhead in simulations is modeled via per_expansion_ms, never this measurement
    start_time = _time.perf_counter()
    suffix = _suffix_bounds(stages)

    # best_full_paths_maxCost in the paper: the K-th smallest achievable
    # completion cost seen so far (list kept sorted, ascending); ``threshold``
    # caches its last element and is refreshed only when the list changes.
    min_rsc: list[float] = [float("inf")] * k
    threshold = min_rsc[-1]

    # Partial and complete paths are ``(cost_cents, latency_ms, configs)``.
    paths: list[tuple[float, float, tuple[Configuration, ...]]] = [(0.0, 0.0, ())]
    complete: list[tuple[float, float, tuple[Configuration, ...]]] = []
    expansions = 0
    pruned_time = 0
    pruned_cost = 0
    truncated = False

    num_stages = len(stages)
    for stage_index, stage in enumerate(stages):
        next_index = stage_index + 1
        is_last = next_index == num_stages
        new_paths: list[tuple[float, float, tuple[Configuration, ...]]] = []
        # Expanding cheap prefixes first lets their rscFastest values tighten
        # the cost blade before expensive prefixes are considered.
        paths.sort(key=_COST)
        table = stage.table
        suffix_min_cost = stage.suffix_min_costs
        # The bounds of SuffixBounds.bounds_for_extension, inlined with its
        # float association: (prefix + entry) + suffix.
        latency_rest = suffix.min_latency_suffix[next_index]
        cost_rest = suffix.min_cost_suffix[next_index]
        fastest_rest = suffix.fastest_cost_suffix[next_index]
        for path_cost, path_latency, path_configs in paths:
            if expansions >= max_expansions:
                truncated = True
                break
            for entry_index, (entry_latency, entry_cost, config) in enumerate(table):
                # Early exit on the cost blade: if even the cheapest of the
                # remaining (slower) entries cannot beat the current K-th
                # best completion cost, none of them can survive.
                if path_cost + suffix_min_cost[entry_index] + cost_rest >= threshold:
                    pruned_cost += 1
                    break
                expansions += 1
                latency = path_latency + entry_latency
                if latency + latency_rest >= target_latency_ms:
                    # Entries are sorted by latency: every later entry can
                    # only be slower, so stop scanning this stage's list.
                    pruned_time += 1
                    break
                cost = path_cost + entry_cost
                if cost + cost_rest >= threshold:
                    pruned_cost += 1
                    continue
                # Tighten the cost blade with this achievable completion.
                rsc_fastest = cost + fastest_rest
                if rsc_fastest < threshold:
                    insort(min_rsc, rsc_fastest)
                    min_rsc.pop()
                    threshold = min_rsc[-1]
                if is_last:
                    complete.append((cost, latency, path_configs + (config,)))
                else:
                    new_paths.append((cost, latency, path_configs + (config,)))
        if truncated or is_last:
            break
        if len(new_paths) > max_paths:
            new_paths.sort(key=_COST)
            new_paths = new_paths[:max_paths]
        paths = new_paths
        if not paths:
            break

    # repro: allow[REP001] closes the diagnostic-only measurement started above
    search_time_ms = (_time.perf_counter() - start_time) * 1000.0

    complete.sort(key=_COST_THEN_LATENCY)
    feasible = bool(complete)
    if not feasible:
        result_paths = _default_paths(stages)
    else:
        result_paths = [
            PathCandidate(configs=configs, latency_ms=latency, cost_cents=cost)
            for cost, latency, configs in complete[:k]
        ]
    return ESG1QResult(
        paths=result_paths,
        target_latency_ms=target_latency_ms,
        feasible=feasible,
        expansions=expansions,
        pruned_time=pruned_time,
        pruned_cost=pruned_cost,
        search_time_ms=search_time_ms,
        stage_ids=tuple(s.stage_id for s in stages),
        truncated=truncated,
    )
