"""Experiment E9 -- sharded Gamma evaluation: strong scaling and warm starts.

The paper's secure-view machinery reduces workflow privacy to per-module
Gamma subproblems; PR 1-2 made one process fast, and this experiment
measures the service that spreads the work across *processes*
(:mod:`repro.service`).  The sweep crosses four axes:

* **workers** -- 0 (the in-process fallback, also the correctness
  oracle) versus sharded worker pools;
* **dispatch** -- on multi-worker cells, the PR 6 **legacy** path (one
  IPC round trip per request, row tables value-shipped) versus the
  **coalesced** path (per-shard buffers flush many requests as one
  batch; on numpy builds row tables publish once through shared
  memory).  Requests are submitted one visibility pair at a time, all
  in flight before the first is collected, so the axis isolates
  exactly the per-request dispatch overhead the coalescer amortises;
* **workload size** -- how many distinct module structures are swept
  (each evaluated on every visibility pair, the access pattern of a
  safe-subset solver);
* **byte budget** -- unbounded versus a registry-wide cap that forces
  cross-kernel LRU eviction (evicted entries spill to the snapshot
  store instead of being lost).

Every cell runs twice against the same snapshot directory: a **cold**
start (empty directory) and a **warm** restart that preloads the kernels
persisted at the previous shutdown.  The expected shape: sharded results
match the in-process kernel exactly on every row; cold-start work
(partition refinements + grouping passes) collapses to ~0 on warm
restarts; and with enough cores the sharded sweep beats ``workers=0``
wall-clock (on a single-core machine the parallel rows document the
IPC overhead instead -- the headline reports whatever the hardware
gives).
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.reporting import ResultTable
from repro.privacy.kernel_registry import RelationStructure
from repro.privacy.relations import ModuleRelation
from repro.service import ShardCoordinator


@dataclass(frozen=True)
class E9Config:
    """Parameters of experiment E9.

    The relation shape is the 6-attribute/domain-4 workload of E2/E4
    (64-row relations, 64 visibility pairs each).
    """

    workers: tuple[int, ...] = (0, 2, 4)
    modules: tuple[int, ...] = (4, 8)
    budgets: tuple[int | None, ...] = (None, 32 * 1024)
    n_inputs: int = 3
    n_outputs: int = 3
    domain_size: int = 4
    seed: int = 47
    #: Coalescing threshold of the "coalesced" dispatch mode: a shard's
    #: buffer flushes once it holds this many tasks.
    coalesce: int = 16


def workload_requests(
    module_count: int, config: E9Config
) -> list[tuple[RelationStructure, tuple[int, ...], tuple[int, ...]]]:
    """Every visibility pair of ``module_count`` distinct module structures.

    This is the access pattern of a safe-subset solver sweeping a
    workflow: for each private module, Gamma under every candidate
    hidden set.  Distinct seeds give distinct structures, so the tasks
    spread across shards.
    """
    requests = []
    for index in range(module_count):
        relation = ModuleRelation.random(
            f"E9M{index}",
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=config.seed + index,
        )
        structure = relation.structure_signature
        input_indices = range(config.n_inputs)
        output_indices = range(config.n_outputs)
        for k in range(config.n_inputs + 1):
            for visible_inputs in itertools.combinations(input_indices, k):
                for j in range(config.n_outputs + 1):
                    for visible_outputs in itertools.combinations(output_indices, j):
                        requests.append((structure, visible_inputs, visible_outputs))
    return requests


def _budget_label(budget: int | None) -> str:
    return "unbounded" if budget is None else f"{budget // 1024}KiB"


def _pipelined_gammas(coordinator: ShardCoordinator, requests: list) -> list[int]:
    """Sweep ``requests`` one submit per visibility pair, collect in order.

    Every request is in flight before the first is collected: without
    coalescing each is its own IPC round trip, with coalescing the
    coordinator's per-shard buffers merge many of them into one batch.
    """
    request_ids = [coordinator.submit([request]) for request in requests]
    return [
        coordinator.collect(request_id)[0].gamma for request_id in request_ids
    ]


def run(
    config: E9Config | None = None,
    *,
    workers: int | None = None,
    coalesce: int | None = None,
    snapshot_root: str | None = None,
) -> ResultTable:
    """Run E9: one row per (modules, budget, workers, dispatch, start).

    ``workers`` (e.g. from the CLI's ``--workers``) replaces the
    config's worker sweep with a single value; the ``workers=0`` oracle
    is still run first so every row can be checked against it.
    ``coalesce`` (the CLI's ``--coalesce``) overrides the coalescing
    threshold of the "coalesced" dispatch mode.  ``snapshot_root``
    keeps the snapshot directories around for inspection; by default
    they live in a temp directory and are deleted at the end.
    """
    config = config or E9Config()
    if coalesce is not None:
        config = dataclasses.replace(config, coalesce=coalesce)
    worker_counts = config.workers if workers is None else tuple({0, workers})
    worker_counts = tuple(sorted(worker_counts))
    root = Path(snapshot_root) if snapshot_root else Path(tempfile.mkdtemp(prefix="e9-"))
    rows: ResultTable = []
    try:
        for module_count in config.modules:
            requests = workload_requests(module_count, config)
            oracle_gammas: list[int] | None = None
            for budget in config.budgets:
                for worker_count in worker_counts:
                    dispatch_modes = (
                        ("inprocess",)
                        if worker_count == 0
                        else ("legacy", "coalesced")
                    )
                    for dispatch in dispatch_modes:
                        snapshot_dir = root / (
                            f"m{module_count}-b{_budget_label(budget)}"
                            f"-w{worker_count}-{dispatch}"
                        )
                        # legacy is the PR 6 path: one batch per request,
                        # row tables value-shipped; coalesced buffers and
                        # publishes tables through shared memory (numpy
                        # builds -- on pure-python builds it still
                        # coalesces, just without the zero-copy tables).
                        dispatch_kwargs: dict = (
                            {"coalesce": 0, "shm_tables": False}
                            if dispatch == "legacy"
                            else {"coalesce": config.coalesce}
                            if dispatch == "coalesced"
                            else {}
                        )
                        for start in ("cold", "warm"):
                            started = time.perf_counter()
                            # Context manager so a mid-sweep failure
                            # (timeout, crashed-out shard) cannot strand
                            # worker processes for the remaining cells.
                            with ShardCoordinator(
                                worker_count,
                                total_budget_bytes=budget,
                                snapshot_dir=str(snapshot_dir),
                                **dispatch_kwargs,
                            ) as coordinator:
                                startup_ms = (
                                    time.perf_counter() - started
                                ) * 1000.0
                                started = time.perf_counter()
                                if worker_count == 0:
                                    gammas = coordinator.gammas(requests)
                                else:
                                    gammas = _pipelined_gammas(
                                        coordinator, requests
                                    )
                                elapsed_ms = (
                                    time.perf_counter() - started
                                ) * 1000.0
                                stats = coordinator.kernel_stats()
                                service = coordinator.service_stats()
                                preloaded = coordinator.preloaded_entries
                            # exiting the block closes + snapshots ->
                            # warms the next start
                            if oracle_gammas is None:
                                oracle_gammas = gammas
                            rows.append(
                                {
                                    "modules": module_count,
                                    "budget": _budget_label(budget),
                                    "workers": worker_count,
                                    "dispatch": dispatch,
                                    "start": start,
                                    "tasks": len(requests),
                                    "batches": service["batches"],
                                    "coalesced_batches": service[
                                        "coalesced_batches"
                                    ],
                                    "time_ms": round(elapsed_ms, 3),
                                    "startup_ms": round(startup_ms, 3),
                                    "cold_work": stats.get(
                                        "partition_refinements", 0
                                    )
                                    + stats.get("grouping_passes", 0),
                                    "kernel_hits": stats.get("kernel_hits", 0),
                                    # Group-construction attribution: how
                                    # much shard wall time went into
                                    # building partitions vs the fused
                                    # counting passes.
                                    "build_ms": round(
                                        stats.get("partition_build_ms", 0.0), 3
                                    ),
                                    "fused_passes": stats.get(
                                        "entry_fused_passes", 0
                                    ),
                                    "preloaded": preloaded,
                                    "evictions": stats.get("evictions", 0),
                                    "min_gamma": min(gammas),
                                    "matches_inprocess": gammas
                                    == oracle_gammas,
                                }
                            )
    finally:
        if snapshot_root is None:
            shutil.rmtree(root, ignore_errors=True)
    return rows


def headline(rows: ResultTable) -> dict[str, float]:
    """Aggregate numbers quoted in EXPERIMENTS.md.

    ``parallel_speedup`` is the best sharded cold-start speedup over the
    in-process fallback on the largest workload (>= 1.0 needs more than
    one core; single-core machines report the IPC overhead as < 1.0);
    ``coalesced_speedup`` is the best coalesced-dispatch cold-start
    speedup over the legacy (PR 6, one round trip per request) path on
    the same multi-worker cells -- the number that isolates what batch
    coalescing plus shared-memory tables buy; ``warm_skip_fraction`` is
    the fraction of cold partition/grouping work that warm restarts
    avoided, aggregated over the whole sweep.
    """
    cold = [row for row in rows if row["start"] == "cold"]
    warm = [row for row in rows if row["start"] == "warm"]
    largest = max((int(row["modules"]) for row in rows), default=0)
    base_times = [
        float(row["time_ms"])
        for row in cold
        if row["workers"] == 0 and int(row["modules"]) == largest
    ]
    sharded_times = [
        float(row["time_ms"])
        for row in cold
        if int(row["workers"]) > 0 and int(row["modules"]) == largest
    ]
    speedup = (
        min(base_times) / min(sharded_times) if base_times and sharded_times else 0.0
    )
    legacy_times = [
        float(row["time_ms"])
        for row in cold
        if row.get("dispatch") == "legacy" and int(row["modules"]) == largest
    ]
    coalesced_times = [
        float(row["time_ms"])
        for row in cold
        if row.get("dispatch") == "coalesced" and int(row["modules"]) == largest
    ]
    coalesced_speedup = (
        min(legacy_times) / min(coalesced_times)
        if legacy_times and coalesced_times
        else 0.0
    )
    # Warm-skip is measured on unbounded rows: under a budget smaller
    # than the working set, recomputation after eviction is the *budget*
    # doing its job, not the persistence layer failing at its own.
    cold_work = sum(
        int(row["cold_work"]) for row in cold if row["budget"] == "unbounded"
    )
    warm_work = sum(
        int(row["cold_work"]) for row in warm if row["budget"] == "unbounded"
    )
    skip = 1.0 - warm_work / cold_work if cold_work else 0.0
    return {
        "parallel_speedup": round(speedup, 2),
        "coalesced_speedup": round(coalesced_speedup, 2),
        "warm_skip_fraction": round(skip, 4),
        "all_match_inprocess": all(bool(row["matches_inprocess"]) for row in rows),
        "tasks": sum(int(row["tasks"]) for row in cold),
    }


def main() -> None:  # pragma: no cover - convenience entry point
    from repro.experiments.reporting import print_table

    rows = run()
    print_table(rows, title="E9 -- sharded Gamma evaluation service")
    print(headline(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
