"""Tests for the sharded Gamma evaluation service (repro.service).

Covers the ISSUE-3 contracts: sharded results byte-identical to the
in-process kernel (Hypothesis equivalence), kernel snapshot round-trips
(persist -> restore -> identical ``entry()`` payloads and counters),
registry-wide cross-kernel LRU eviction order, worker-crash recovery
(task rerouted, shard report flags the retry), and the secure-view /
guarantees integration.
"""

from __future__ import annotations

import itertools
import pickle
import random as stdlib_random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from service_workloads import all_visibility_pairs, entry_requests

from repro.errors import ServiceError
from repro.experiments import e9_sharding
from repro.privacy.columnar import freeze
from repro.privacy.guarantees import workflow_guarantees
from repro.privacy.kernel_registry import GammaKernelRegistry, WORD_BYTES
from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import (
    WorkflowPrivacyRequirements,
    _SolveMemo,
    exact_secure_view,
    secure_view,
)
from repro.service import (
    GammaServer,
    GammaTask,
    KernelSnapshotStore,
    ShardCoordinator,
    merge_kernel_stats,
    shard_of,
)

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

RELATIONS = st.builds(
    ModuleRelation.random,
    st.sampled_from(["P"]),
    n_inputs=st.integers(min_value=1, max_value=3),
    n_outputs=st.integers(min_value=1, max_value=2),
    domain_size=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)


@pytest.fixture(scope="module")
def sharded():
    """One long-lived two-worker service shared by this module's tests."""
    coordinator = ShardCoordinator(2, task_timeout=60.0)
    yield coordinator
    coordinator.close(snapshot=False)


class TestProtocol:
    def test_shard_of_is_stable_and_in_range(self):
        relation = ModuleRelation.random("P", seed=3)
        signature = relation.structure_signature.signature
        for shards in (1, 2, 3, 7):
            shard = shard_of(signature, shards)
            assert 0 <= shard < shards
            assert shard == shard_of(signature, shards)

    def test_shard_of_rejects_empty_pool(self):
        with pytest.raises(ServiceError):
            shard_of("ab" * 16, 0)

    def test_task_validates_payload_kind(self):
        with pytest.raises(ServiceError):
            GammaTask(1, "sig", (), (), want="everything")

    def test_merge_kernel_stats_sums_keywise(self):
        merged = merge_kernel_stats([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
        assert merged == {"a": 4, "b": 2, "c": 4}

    def test_signature_is_rename_invariant(self):
        base = ModuleRelation.random("A", seed=9)
        twin = ModuleRelation.random("B", seed=9)  # same table, new names
        other = ModuleRelation.random("C", seed=10)
        assert (
            base.structure_signature.signature == twin.structure_signature.signature
        )
        assert (
            base.structure_signature.signature != other.structure_signature.signature
        )


class TestInProcessFallback:
    def test_gammas_match_relation_kernel(self):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=21
        )
        coordinator = ShardCoordinator(0)
        names = relation.attribute_names()
        hidden_sets = [set(), {names[0]}, set(names[:3]), set(names)]
        requests = [
            (relation.structure_signature, *relation.visibility_of(hidden))
            for hidden in hidden_sets
        ]
        assert coordinator.gammas(requests) == [
            relation.achieved_gamma(hidden) for hidden in hidden_sets
        ]

    def test_entry_payloads_match_kernel(self):
        relation = ModuleRelation.random("P", seed=22)
        coordinator = ShardCoordinator(0)
        results = coordinator.evaluate(entry_requests(relation), want="entry")
        for (visible_inputs, visible_outputs), result in zip(
            all_visibility_pairs(relation), results
        ):
            partition, counts, gamma = relation.kernel.entry(
                visible_inputs, visible_outputs
            )
            # Results carry frozen (pure-tuple) payloads on any backend.
            assert (result.partition, result.counts, result.gamma) == (
                freeze(partition),
                freeze(counts),
                gamma,
            )

    def test_closed_coordinator_rejects_work(self):
        coordinator = ShardCoordinator(0)
        coordinator.close()
        with pytest.raises(ServiceError):
            coordinator.evaluate([])


class TestShardedEquivalence:
    @given(relation=RELATIONS)
    @RELAXED
    def test_sharded_entries_byte_identical_to_inprocess(self, sharded, relation):
        requests = entry_requests(relation)
        local = ShardCoordinator(0).evaluate(requests, want="entry")
        remote = sharded.evaluate(requests, want="entry")
        local_payload = [(r.gamma, r.counts, r.partition) for r in local]
        remote_payload = [(r.gamma, r.counts, r.partition) for r in remote]
        assert pickle.dumps(local_payload) == pickle.dumps(remote_payload)

    @given(relation=RELATIONS, subset_seed=st.integers(min_value=0, max_value=999))
    @RELAXED
    def test_sharded_gammas_match_reference_oracle(self, sharded, relation, subset_seed):
        rng = stdlib_random.Random(subset_seed)
        hidden = {name for name in relation.attribute_names() if rng.random() < 0.5}
        request = (relation.structure_signature, *relation.visibility_of(hidden))
        assert sharded.gammas([request]) == [relation.reference_achieved_gamma(hidden)]

    def test_work_spreads_across_shards(self, sharded):
        relations = [
            ModuleRelation.random(f"S{i}", n_inputs=2, n_outputs=2, seed=500 + i)
            for i in range(8)
        ]
        requests = [req for r in relations for req in entry_requests(r)]
        results = sharded.evaluate(requests)
        assert len(results) == len(requests)
        shards = {
            shard_of(r.structure_signature.signature, 2) for r in relations
        }
        assert shards == {0, 1}, "workload should hit both shards"
        assert len(sharded.shard_reports()) == 2


def entries_of_every_kind(relation) -> tuple:
    """One cache entry of each kind a snapshot or handoff may carry.

    The two kinds a kernel computes, plus two kinds no code reads any
    more (older snapshots and handoffs can still hold them).
    """
    kernel = GammaKernelRegistry().ensure_kernel(relation.structure_signature)
    kernel.entry((0,), (0,))
    live = {key: (payload, cost) for key, payload, cost in kernel.export_entries()}
    rows = relation.structure_signature.row_count
    return (
        (("partition", (0,)),) + live[("partition", (0,))],
        (("kernel", (0,), (0,)),) + live[("kernel", (0,), (0,))],
        (("strata", (0,)), (tuple(range(rows)), (0, rows)), (rows + 2) * WORD_BYTES),
        (("sample", 4096, 9, 7), (1, 2, 3), 3 * WORD_BYTES),
    )


class TestPersistence:
    def test_snapshot_round_trip_identical_payloads_and_counters(self, tmp_path):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=31
        )
        registry = GammaKernelRegistry()
        kernel = registry.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        expected = {pair: kernel.entry(*pair) for pair in pairs}

        store = KernelSnapshotStore(tmp_path)
        assert store.snapshot_registry(registry) == 1
        assert len(store) == 1

        fresh = GammaKernelRegistry()
        preloaded = KernelSnapshotStore(tmp_path).warm_registry(fresh)
        assert preloaded > 0
        restored = fresh.kernels[0]
        assert restored.counters["preloaded"] == preloaded
        for pair in pairs:
            assert pickle.dumps(restored.entry(*pair)) == pickle.dumps(
                expected[pair]
            )
        counters = restored.counters
        assert counters["partition_refinements"] == 0
        assert counters["grouping_passes"] == 0
        assert counters["kernel_hits"] == len(pairs)

    def test_eviction_spills_survive_in_snapshots(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=3, n_outputs=2, seed=32)
        row_count = relation.structure_signature.row_count
        # Budget of ~3 partition-sized entries: plenty of evictions.
        registry = GammaKernelRegistry(
            total_budget_bytes=3 * row_count * WORD_BYTES
        )
        store = KernelSnapshotStore(tmp_path)
        store.arm(registry)
        kernel = registry.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        expected = {pair: kernel.entry(*pair) for pair in pairs}
        assert registry.kernel_stats["cross_evictions"] > 0
        store.snapshot_registry(registry)

        fresh = GammaKernelRegistry()
        KernelSnapshotStore(tmp_path).warm_registry(fresh)
        restored = fresh.kernels[0]
        passes_before = restored.counters["grouping_passes"]
        for pair in pairs:
            assert freeze(restored.entry(*pair)) == freeze(expected[pair])
        # Every evicted entry came back from disk: nothing recomputed.
        assert restored.counters["grouping_passes"] == passes_before

    def test_corrupt_snapshot_is_reported(self, tmp_path):
        store = KernelSnapshotStore(tmp_path)
        store.path_for("feedface").write_bytes(b"not a pickle")
        with pytest.raises(ServiceError, match="corrupt"):
            store.load("feedface")

    def test_corrupt_snapshot_does_not_break_warm_start(self, tmp_path):
        relation = ModuleRelation.random("P", seed=34)
        registry = GammaKernelRegistry()
        registry.ensure_kernel(relation.structure_signature).entry((), ())
        store = KernelSnapshotStore(tmp_path)
        store.snapshot_registry(registry)
        store.path_for("feedface").write_bytes(b"torn write")
        fresh = GammaKernelRegistry()
        # Good snapshot preloads; the corrupt one is skipped and deleted
        # (a cache file must never crash-loop a restarting worker).
        assert KernelSnapshotStore(tmp_path).warm_registry(fresh) > 0
        assert not store.path_for("feedface").is_file()
        # A worker pool pointed at the same directory still comes up.
        with ShardCoordinator(2, snapshot_dir=str(tmp_path)) as coordinator:
            assert coordinator.gammas(entry_requests(relation))

    def test_spill_buffer_flushes_to_disk_under_pressure(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=3, n_outputs=2, seed=35)
        rows = relation.structure_signature.row_count
        registry = GammaKernelRegistry(total_budget_bytes=3 * rows * WORD_BYTES)
        # Spill bound of ~2 entries: eviction pressure must hit disk
        # long before shutdown instead of accumulating in memory.
        store = KernelSnapshotStore(
            tmp_path, spill_flush_bytes=2 * rows * WORD_BYTES
        )
        store.arm(registry)
        kernel = registry.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        expected = {pair: kernel.entry(*pair) for pair in pairs}
        assert registry.kernel_stats["cross_evictions"] > 0
        assert store._spill_bytes <= 2 * rows * WORD_BYTES
        assert len(store) == 1, "spills should have been flushed to disk"
        store.snapshot_registry(registry)
        fresh = GammaKernelRegistry()
        KernelSnapshotStore(tmp_path).warm_registry(fresh)
        restored = fresh.kernels[0]
        passes = restored.counters["grouping_passes"]
        for pair in pairs:
            assert freeze(restored.entry(*pair)) == freeze(expected[pair])
        assert restored.counters["grouping_passes"] == passes

    def test_snapshot_preloads_only_partition_and_kernel_entries(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=1, seed=36)
        structure = relation.structure_signature
        KernelSnapshotStore(tmp_path).import_signatures(
            {structure.signature: (structure, entries_of_every_kind(relation))}
        )
        fresh = GammaKernelRegistry()
        assert KernelSnapshotStore(tmp_path).warm_registry(fresh) == 2
        restored = fresh.kernels[0]
        assert restored.counters["preloaded"] == 2
        assert restored.kernel_stats["cached_entries"] == 2
        restored.entry((0,), (0,))
        assert restored.counters["kernel_hits"] == 1
        assert restored.counters["grouping_passes"] == 0

    def test_handoff_imports_only_partition_and_kernel_entries(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=1, seed=37)
        structure = relation.structure_signature
        payload = {structure.signature: (structure, entries_of_every_kind(relation))}
        with GammaServer(("unix", str(tmp_path / "handoff.sock"))) as server:
            with ShardCoordinator(address=server.address) as client:
                assert client.import_kernel_entries(payload) == 2
                assert client.gammas([(structure, (0,), (0,))]) == [
                    ShardCoordinator(0).gammas([(structure, (0,), (0,))])[0]
                ]
                stats = client.kernel_stats()
        assert stats["preloaded"] == 2
        assert stats["kernel_hits"] == 1
        assert stats["grouping_passes"] == 0

    def test_clear_removes_snapshots(self, tmp_path):
        registry = GammaKernelRegistry()
        relation = ModuleRelation.random("P", seed=33)
        kernel = registry.ensure_kernel(relation.structure_signature)
        kernel.entry((), ())
        store = KernelSnapshotStore(tmp_path)
        store.snapshot_registry(registry)
        assert store.clear() == 1
        assert len(store) == 0


class TestRegistryWideLRU:
    def test_cross_kernel_eviction_follows_global_lru_order(self):
        # Two distinct structures with the same row count, so every
        # partition entry costs the same and the LRU math is exact.
        rel_a = ModuleRelation.random("A", n_inputs=2, n_outputs=2, seed=41)
        rel_b = ModuleRelation.random("B", n_inputs=2, n_outputs=3, seed=41)
        rows = rel_a.structure_signature.row_count
        assert rows == rel_b.structure_signature.row_count
        registry = GammaKernelRegistry(total_budget_bytes=3 * rows * WORD_BYTES)
        kernel_a = registry.ensure_kernel(rel_a.structure_signature)
        kernel_b = registry.ensure_kernel(rel_b.structure_signature)

        kernel_a.partition((0,))  # caches a:() then a:(0,)
        kernel_b.partition((0,))  # caches b:(), b:(0,) -> evicts a:() (oldest)
        assert registry.kernel_stats["cross_evictions"] == 1
        kernel_a.partition((0,))  # touch: a:(0,) becomes most recent
        kernel_b.partition((1,))  # b:() hit, inserts b:(1,) -> evicts b:(0,)
        assert registry.kernel_stats["cross_evictions"] == 2

        # a:(0,) survived because it was touched after b:(0,)...
        refinements = kernel_a.counters["partition_refinements"]
        kernel_a.partition((0,))
        assert kernel_a.counters["partition_refinements"] == refinements
        # ...while b:(0,) (globally least recent) was the one evicted.
        refinements = kernel_b.counters["partition_refinements"]
        kernel_b.partition((0,))
        assert kernel_b.counters["partition_refinements"] == refinements + 1

    def test_budgeted_results_stay_correct(self):
        relation = ModuleRelation.random("P", n_inputs=3, n_outputs=2, seed=42)
        reference = GammaKernelRegistry()
        budgeted = GammaKernelRegistry(total_budget_bytes=256)
        kernel_ref = reference.ensure_kernel(relation.structure_signature)
        kernel_tiny = budgeted.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        for pair in pairs + pairs[::-1]:
            assert freeze(kernel_tiny.entry(*pair)) == freeze(kernel_ref.entry(*pair))
        assert budgeted.kernel_stats["cross_evictions"] > 0
        assert budgeted.kernel_stats["bytes_in_use"] <= 256 + relation.structure_signature.row_count * 3 * WORD_BYTES

    def test_released_kernel_leaves_the_global_lru(self):
        registry = GammaKernelRegistry(total_budget_bytes=10_000)
        relation = ModuleRelation.random("P", seed=43, registry=registry)
        relation.achieved_gamma(set())
        assert registry._lru_bytes > 0
        kernel = relation.kernel
        relation.bind_registry(GammaKernelRegistry())  # detach + release
        assert registry._lru_bytes == 0
        assert kernel.structure not in [k.structure for k in registry.kernels]


class TestCrashRecovery:
    def test_crashed_worker_is_respawned_and_batch_retried(self, tmp_path):
        relations = [
            ModuleRelation.random(f"C{i}", n_inputs=2, n_outputs=2, seed=600 + i)
            for i in range(6)
        ]
        requests = [req for r in relations for req in entry_requests(r)]
        with ShardCoordinator(2, snapshot_dir=str(tmp_path)) as coordinator:
            baseline = coordinator.gammas(requests)
            coordinator.inject_crash(0)
            coordinator.inject_crash(1)
            assert coordinator.gammas(requests) == baseline
            assert coordinator.worker_restarts >= 1
            assert any(report.retried for report in coordinator.shard_reports())
            stats = coordinator.service_stats()
            assert stats["worker_restarts"] >= 1
            assert stats["retried_batches"] >= 1

    def test_stale_error_message_does_not_poison_next_call(self):
        relation = ModuleRelation.random("P", seed=45)
        coordinator = ShardCoordinator(2)
        try:
            # A leftover from a failed earlier call must be discarded,
            # not raised against this (unrelated) evaluation.
            coordinator.transport._result_queue.put(("error", 0, 999_999, "old failure"))
            assert coordinator.gammas(entry_requests(relation))
        finally:
            coordinator.close(snapshot=False)

    def test_crash_injection_requires_workers(self):
        with pytest.raises(ServiceError):
            ShardCoordinator(0).inject_crash(0)

    def test_give_up_after_max_restarts(self):
        coordinator = ShardCoordinator(1, max_restarts=0, task_timeout=10.0)
        try:
            relation = ModuleRelation.random("P", seed=44)
            coordinator.inject_crash(0)
            coordinator.transport._shards[0].process.join(timeout=5.0)
            from repro.errors import WorkerCrashError

            with pytest.raises(WorkerCrashError):
                coordinator.evaluate(entry_requests(relation))
        finally:
            coordinator.close(snapshot=False)


class TestSecureViewIntegration:
    def _requirements(self):
        requirements = WorkflowPrivacyRequirements()
        for index, gamma in ((0, 2), (1, 3)):
            requirements.add(
                ModuleRelation.random(
                    f"M{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=70 + index
                ),
                gamma,
            )
        return requirements

    def test_exact_secure_view_identical_with_and_without_service(self, sharded):
        baseline = exact_secure_view(self._requirements())
        via_inprocess = exact_secure_view(
            self._requirements(), service=ShardCoordinator(0)
        )
        via_sharded = exact_secure_view(self._requirements(), service=sharded)
        forwarded = ShardCoordinator(0)
        via_wrapper = secure_view(
            self._requirements(), solver="exact", service=forwarded
        )
        assert forwarded.service_stats()["tasks"] > 0
        for candidate in (via_inprocess, via_sharded, via_wrapper):
            assert candidate.hidden_labels == baseline.hidden_labels
            assert candidate.cost == baseline.cost
            assert candidate.module_gammas == baseline.module_gammas
            assert candidate.evaluations == baseline.evaluations
            assert candidate.optimal

    def test_exact_secure_view_matches_exhaustive_enumeration(self):
        requirements = self._requirements()
        labels = requirements.all_labels()
        best = None
        for k in range(len(labels) + 1):
            for subset in itertools.combinations(labels, k):
                if requirements.satisfied_by(subset):
                    cost = requirements.cost_of(subset)
                    if best is None or cost < best:
                        best = cost
        result = exact_secure_view(self._requirements())
        assert best is not None
        assert result.cost == pytest.approx(best)

    def test_unsatisfied_indices_is_monotone_and_restrictable(self):
        requirements = self._requirements()
        labels = requirements.all_labels()
        empty = requirements.unsatisfied_indices(())
        everything = requirements.unsatisfied_indices(labels)
        assert everything == ()
        assert set(everything) <= set(empty)
        # Restricting to already-satisfied indices skips the others.
        assert requirements.unsatisfied_indices((), indices=()) == ()

    def test_workflow_guarantees_with_service_match_local(self, sharded):
        requirements = self._requirements()
        result = exact_secure_view(requirements)
        local = workflow_guarantees(self._requirements(), result.hidden_labels)
        remote = workflow_guarantees(
            self._requirements(), result.hidden_labels, service=sharded
        )
        assert [r.summary() for r in local] == [r.summary() for r in remote]


class TestSolveMemo:
    """The per-solve Gamma memo of the service-backed exact solver."""

    def _requirements(self):
        requirements = WorkflowPrivacyRequirements()
        for index, gamma in ((0, 2), (1, 3), (2, 2)):
            requirements.add(
                ModuleRelation.random(
                    f"M{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=70 + index
                ),
                gamma,
            )
        return requirements

    def _recording(self, coordinator):
        batches: list[list[tuple]] = []
        send = coordinator.gammas

        def gammas(requests):
            batches.append(
                [(s.signature, vi, vo) for s, vi, vo in requests]
            )
            return send(requests)

        coordinator.gammas = gammas
        return batches

    def test_memo_lives_for_one_solve_only(self):
        coordinator = ShardCoordinator(0)
        first = exact_secure_view(self._requirements(), service=coordinator)
        after_first = coordinator.service_stats()["tasks"]
        second = exact_secure_view(self._requirements(), service=coordinator)
        after_second = coordinator.service_stats()["tasks"]
        # The second solve starts from an empty memo: it sends every
        # distinct request again instead of reusing the first solve's.
        assert after_first > 0
        assert after_second - after_first == after_first
        assert second.evaluations == first.evaluations
        assert second.hidden_labels == first.hidden_labels

    def test_each_distinct_request_crosses_in_one_batch_only(self):
        coordinator = ShardCoordinator(0)
        batches = self._recording(coordinator)
        result = exact_secure_view(self._requirements(), service=coordinator)
        sent = [key for batch in batches for key in batch]
        # No node with only memo hits sends an (empty) batch, no batch
        # repeats a request, and no request is sent twice in one solve.
        assert all(batches)
        assert len(sent) == len(set(sent))
        assert len(batches) < result.evaluations
        assert coordinator.service_stats()["tasks"] == len(sent)

    def test_duplicate_requests_in_one_node_are_sent_once(self):
        relation = ModuleRelation.random(
            "D", n_inputs=2, n_outputs=2, domain_size=3, seed=12
        )
        requests = entry_requests(relation)
        doubled = requests + list(reversed(requests))
        coordinator = ShardCoordinator(0)
        batches = self._recording(coordinator)
        memo = _SolveMemo(coordinator)
        assert memo.gammas(doubled) == ShardCoordinator(0).gammas(doubled)
        assert memo.gammas(requests[:3]) == coordinator.gammas(requests[:3])[:3]
        # The first call sent the distinct requests once, in first-seen
        # order; the second was all memo hits (the last batch above is
        # this test's own direct call to the coordinator).
        distinct = [(s.signature, vi, vo) for s, vi, vo in requests]
        assert batches == [distinct, distinct[:3]]


class TestExperimentE9:
    def test_small_sweep_matches_inprocess_and_warm_skips(self):
        config = e9_sharding.E9Config(
            workers=(0, 2), modules=(3,), budgets=(None,), seed=5
        )
        rows = e9_sharding.run(config)
        # (workers=0 + two dispatch modes for workers=2) x (cold, warm)
        assert len(rows) == 6
        assert all(row["matches_inprocess"] for row in rows)
        assert {row["dispatch"] for row in rows} == {
            "inprocess",
            "legacy",
            "coalesced",
        }
        coalesced_cold = [
            row
            for row in rows
            if row["dispatch"] == "coalesced" and row["start"] == "cold"
        ]
        assert all(row["coalesced_batches"] > 0 for row in coalesced_cold)
        # Coalescing buys strictly fewer IPC round trips than the
        # legacy one-batch-per-request path on the same workload.
        legacy_cold = [
            row
            for row in rows
            if row["dispatch"] == "legacy" and row["start"] == "cold"
        ]
        assert min(row["batches"] for row in coalesced_cold) < min(
            row["batches"] for row in legacy_cold
        )
        headline = e9_sharding.headline(rows)
        assert headline["all_match_inprocess"] is True
        assert headline["warm_skip_fraction"] >= 0.9
        assert headline["parallel_speedup"] > 0
        assert headline["coalesced_speedup"] > 0

    def test_workers_override_collapses_the_sweep(self):
        config = e9_sharding.E9Config(
            workers=(0, 2, 4), modules=(2,), budgets=(None,), seed=6
        )
        rows = e9_sharding.run(config, workers=0)
        assert {row["workers"] for row in rows} == {0}
