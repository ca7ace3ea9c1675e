"""Exact-equivalence oracle for the ESG_1Q search kernel.

``_reference_esg_1q`` is the straightforward form of Algorithm 1: partial
paths are objects, every extension asks
:meth:`SuffixBounds.bounds_for_extension` for its three bounds and re-reads
the K-th best cost from the list.  The production kernel inlines all of that;
these tests require it to return exactly the reference's result — the same
paths with ``==``-equal latencies and costs, and the same search counts,
which the modeled scheduling overhead is derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import SuffixBounds
from repro.core.esg_1q import (
    ESG1QResult,
    PathCandidate,
    StageSearchSpec,
    _default_paths,
    _suffix_bounds,
    esg_1q_search,
)
from repro.profiles.configuration import Configuration
from repro.profiles.profiler import ProfileEntry

FUNCTIONS = [
    "super_resolution",
    "segmentation",
    "deblur",
    "classification",
    "depth_recognition",
    "background_removal",
]


@dataclass
class _PartialPath:
    configs: list[Configuration] = field(default_factory=list)
    latency_ms: float = 0.0
    cost_cents: float = 0.0


def _insert_sorted_capped(values: list[float], new_value: float) -> None:
    if new_value >= values[-1]:
        return
    for i, v in enumerate(values):
        if new_value < v:
            values.insert(i, new_value)
            values.pop()
            return


def _reference_suffix_min_costs(stage: StageSearchSpec) -> tuple[float, ...]:
    costs = [e.per_job_cost_cents for e in stage.entries]
    out = [0.0] * (len(costs) + 1)
    out[-1] = float("inf")
    running = float("inf")
    for j in range(len(costs) - 1, -1, -1):
        running = min(running, costs[j])
        out[j] = running
    return tuple(out)


def _reference_esg_1q(
    stages: Sequence[StageSearchSpec],
    target_latency_ms: float,
    *,
    k: int = 5,
    max_paths: int = 5000,
    max_expansions: int = 2_000_000,
) -> ESG1QResult:
    """The object-based form of the ESG_1Q loop: the oracle for the kernel."""
    suffix: SuffixBounds = _suffix_bounds(stages)
    stage_suffix_min_costs = [_reference_suffix_min_costs(stage) for stage in stages]
    min_rsc: list[float] = [float("inf")] * k
    paths: list[_PartialPath] = [_PartialPath()]
    complete: list[PathCandidate] = []
    expansions = 0
    pruned_time = 0
    pruned_cost = 0
    truncated = False

    num_stages = len(stages)
    for stage_index, stage in enumerate(stages):
        is_last = stage_index == num_stages - 1
        new_paths: list[_PartialPath] = []
        paths.sort(key=lambda p: p.cost_cents)
        suffix_min_cost = stage_suffix_min_costs[stage_index]
        remaining_min_cost = suffix.min_cost_suffix[stage_index + 1]
        for path in paths:
            if expansions >= max_expansions:
                truncated = True
                break
            for entry_index, entry in enumerate(stage.entries):
                if (
                    path.cost_cents + suffix_min_cost[entry_index] + remaining_min_cost
                    >= min_rsc[-1]
                ):
                    pruned_cost += 1
                    break
                expansions += 1
                bounds = suffix.bounds_for_extension(
                    path.latency_ms,
                    path.cost_cents,
                    entry.latency_ms,
                    entry.per_job_cost_cents,
                    stage_index + 1,
                )
                if bounds.t_low_ms >= target_latency_ms:
                    pruned_time += 1
                    break
                if bounds.rsc_low_cents >= min_rsc[-1]:
                    pruned_cost += 1
                    continue
                _insert_sorted_capped(min_rsc, bounds.rsc_fastest_cents)
                new_latency = path.latency_ms + entry.latency_ms
                new_cost = path.cost_cents + entry.per_job_cost_cents
                if is_last:
                    complete.append(
                        PathCandidate(
                            configs=tuple(path.configs) + (entry.config,),
                            latency_ms=new_latency,
                            cost_cents=new_cost,
                        )
                    )
                else:
                    new_paths.append(
                        _PartialPath(
                            configs=path.configs + [entry.config],
                            latency_ms=new_latency,
                            cost_cents=new_cost,
                        )
                    )
        if truncated:
            break
        if is_last:
            break
        if len(new_paths) > max_paths:
            new_paths.sort(key=lambda p: p.cost_cents)
            new_paths = new_paths[:max_paths]
        paths = new_paths
        if not paths:
            break

    complete.sort(key=lambda c: (c.cost_cents, c.latency_ms))
    feasible = bool(complete)
    return ESG1QResult(
        paths=complete[:k] if feasible else _default_paths(stages),
        target_latency_ms=target_latency_ms,
        feasible=feasible,
        expansions=expansions,
        pruned_time=pruned_time,
        pruned_cost=pruned_cost,
        search_time_ms=0.0,
        stage_ids=tuple(s.stage_id for s in stages),
        truncated=truncated,
    )


def _specs(store, functions: list[str], max_batch: int | None) -> list[StageSearchSpec]:
    return [
        StageSearchSpec.from_profile(
            f"s{i}", store.profile(fn), max_batch=max_batch if i == 0 else None
        )
        for i, fn in enumerate(functions)
    ]


def _assert_identical(actual: ESG1QResult, expected: ESG1QResult) -> None:
    assert [
        (p.configs, p.latency_ms, p.cost_cents) for p in actual.paths
    ] == [(p.configs, p.latency_ms, p.cost_cents) for p in expected.paths]
    assert actual.feasible == expected.feasible
    assert actual.expansions == expected.expansions
    assert actual.pruned_time == expected.pruned_time
    assert actual.pruned_cost == expected.pruned_cost
    assert actual.truncated == expected.truncated
    assert actual.stage_ids == expected.stage_ids


@pytest.fixture(scope="module")
def stores(small_store, default_store):
    return {"small": small_store, "default": default_store}


@settings(max_examples=300, deadline=None)
@given(
    store_name=st.sampled_from(["small", "default"]),
    functions=st.lists(st.sampled_from(FUNCTIONS), min_size=1, max_size=4),
    max_batch=st.sampled_from([None, 1, 2, 4, 8]),
    slo_factor=st.floats(min_value=0.5, max_value=3.0),
    k=st.integers(min_value=1, max_value=10),
    max_paths=st.sampled_from([1, 3, 10, 50, 5000]),
    max_expansions=st.sampled_from([1, 10, 100, 1000, 20_000]),
)
def test_kernel_matches_reference_exactly(
    stores, store_name, functions, max_batch, slo_factor, k, max_paths, max_expansions
):
    store = stores[store_name]
    specs = _specs(store, functions, max_batch)
    target = slo_factor * store.minimum_config_latency_ms(functions)
    kwargs = dict(k=k, max_paths=max_paths, max_expansions=max_expansions)
    _assert_identical(
        esg_1q_search(specs, target, **kwargs), _reference_esg_1q(specs, target, **kwargs)
    )


#: Decimal fractions whose float sums depend on association, e.g.
#: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): synthetic stages drawn from them
#: put ties and bound comparisons exactly on the edge that profiled data
#: almost never reaches.
GRID = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1.1]


@st.composite
def synthetic_stages(draw) -> list[StageSearchSpec]:
    stages = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        pairs = draw(
            st.lists(st.tuples(st.sampled_from(GRID), st.sampled_from(GRID)), min_size=1, max_size=6)
        )
        pairs.sort(key=lambda pair: pair[0])
        entries = tuple(
            ProfileEntry(
                config=Configuration(batch_size=1, vcpus=j + 1, vgpus=1),
                latency_ms=latency,
                task_cost_cents=cost,
                per_job_cost_cents=cost,
            )
            for j, (latency, cost) in enumerate(pairs)
        )
        stages.append(StageSearchSpec(stage_id=f"s{index}", function_name="f", entries=entries))
    return stages


@settings(max_examples=300, deadline=None)
@given(
    stages=synthetic_stages(),
    target=st.sampled_from(GRID) | st.sampled_from([0.6000000000000001, 1.0, 1.2, 1.5, 2.0, 3.0]),
    k=st.integers(min_value=1, max_value=10),
    max_paths=st.sampled_from([1, 2, 5, 5000]),
)
def test_kernel_matches_reference_on_tie_heavy_stages(stages, target, k, max_paths):
    _assert_identical(
        esg_1q_search(stages, target, k=k, max_paths=max_paths),
        _reference_esg_1q(stages, target, k=k, max_paths=max_paths),
    )


@pytest.mark.parametrize("slo_factor", [0.9, 1.0, 1.3, 2.5])
def test_paper_group_matches_reference_untruncated(default_store, slo_factor):
    functions = ["super_resolution", "segmentation", "classification"]
    specs = _specs(default_store, functions, None)
    target = slo_factor * default_store.minimum_config_latency_ms(functions)
    result = esg_1q_search(specs, target)
    _assert_identical(result, _reference_esg_1q(specs, target))
    assert not result.truncated


def test_tiny_max_expansions_reports_truncation(small_store):
    functions = ["super_resolution", "segmentation", "classification"]
    specs = _specs(small_store, functions, None)
    target = 2.0 * small_store.minimum_config_latency_ms(functions)
    result = esg_1q_search(specs, target, max_expansions=1)
    assert result.truncated
    # The cap is checked per partial path, so the first path still scans
    # its whole stage list before the search stops.
    assert 1 <= result.expansions <= len(specs[0].entries)
    _assert_identical(result, _reference_esg_1q(specs, target, max_expansions=1))
