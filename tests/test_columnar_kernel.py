"""Columnar numpy Gamma kernel versus the pure-python reference.

Three contracts of PR 7:

* **backend equivalence** -- the vectorized kernel and the pre-existing
  tuple/dict kernel are byte-identical: same entries, same Gammas, same
  cache accounting (costs, evictions, counters) on the same workload,
  including under LRU budgets far smaller than the working set;
* **portable persistence** -- snapshots freeze array payloads to plain
  int tuples, so a snapshot written under either backend preloads into
  the other and answers without recomputation;
* **zero-copy shipping and coalesced dispatch** -- shared-memory row
  tables are attached/detached without leaking segments, and the
  batch-coalescing dispatcher returns exactly the oracle's results
  under out-of-order collection and shard errors.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from service_workloads import all_visibility_pairs, entry_requests

from repro.errors import ServiceError
from repro.experiments import e9_sharding
from repro.privacy import columnar
from repro.privacy.columnar import freeze, use_backend
from repro.privacy.kernel_registry import TIMING_STAT_KEYS, GammaKernelRegistry
from repro.privacy.relations import ModuleRelation
from repro.service import ShardCoordinator
from repro.service.persistence import KernelSnapshotStore

needs_numpy = pytest.mark.skipif(
    not columnar.numpy_available(), reason="numpy not installed"
)

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sweep(backend: str, *, n_inputs, n_outputs, domain_size, seed, budget):
    """Evaluate every visibility pair of one random relation on ``backend``.

    Returns the frozen entries (hashable, backend-independent) and the
    registry-wide kernel statistics -- including ``bytes_in_use``, so a
    divergence in cost accounting (and therefore in eviction order)
    fails the comparison even when the entries agree.
    """
    with use_backend(backend):
        registry = GammaKernelRegistry(total_budget_bytes=budget)
        relation = ModuleRelation.random(
            "EQ",
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            domain_size=domain_size,
            seed=seed,
            registry=registry,
        )
        kernel = relation.kernel
        entries = [
            freeze(kernel.entry(vi, vo))
            for vi, vo in all_visibility_pairs(relation)
        ]
        # Wall-time attribution is nondeterministic by nature; every
        # *counter* must still agree exactly across backends.
        stats = {
            key: value
            for key, value in registry.kernel_stats.items()
            if key not in TIMING_STAT_KEYS
        }
        return entries, stats


@needs_numpy
class TestBackendEquivalence:
    @RELAXED
    @given(
        n_inputs=st.integers(min_value=1, max_value=3),
        n_outputs=st.integers(min_value=1, max_value=3),
        domain_size=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.sampled_from([None, 512, 4096]),
    )
    def test_entries_and_accounting_byte_identical(
        self, n_inputs, n_outputs, domain_size, seed, budget
    ):
        shape = dict(
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            domain_size=domain_size,
            seed=seed,
            budget=budget,
        )
        numpy_entries, numpy_stats = _sweep("numpy", **shape)
        pure_entries, pure_stats = _sweep("pure", **shape)
        assert numpy_entries == pure_entries
        assert numpy_stats == pure_stats

    def test_budget_smaller_than_one_entry_still_agrees(self):
        shape = dict(n_inputs=3, n_outputs=2, domain_size=3, seed=17, budget=64)
        numpy_entries, numpy_stats = _sweep("numpy", **shape)
        pure_entries, pure_stats = _sweep("pure", **shape)
        assert numpy_entries == pure_entries
        assert numpy_stats == pure_stats
        assert numpy_stats["evictions"] > 0  # the budget actually bit

    def test_gamma_values_are_python_ints(self):
        # json/msgpack reporting layers choke on numpy scalars; the
        # kernel's public values must stay native.
        with use_backend("numpy"):
            relation = ModuleRelation.random("INT", n_inputs=2, n_outputs=2, seed=3)
            gamma = relation.achieved_gamma({relation.inputs[0].name})
            counts = relation.candidate_output_counts({relation.inputs[0].name})
        assert type(gamma) is int
        assert all(type(count) is int for count in counts.values())


@needs_numpy
class TestPortableSnapshots:
    def _relation(self, registry):
        return ModuleRelation.random(
            "SNAP", n_inputs=2, n_outputs=2, domain_size=3, seed=21,
            registry=registry,
        )

    @pytest.mark.parametrize(
        "write_backend,read_backend",
        [("numpy", "pure"), ("pure", "numpy"), ("numpy", "numpy")],
    )
    def test_roundtrip_across_backends(self, tmp_path, write_backend, read_backend):
        store = KernelSnapshotStore(str(tmp_path))
        with use_backend(write_backend):
            registry = GammaKernelRegistry()
            relation = self._relation(registry)
            kernel = relation.kernel
            expected = {
                pair: freeze(kernel.entry(*pair))
                for pair in all_visibility_pairs(relation)
            }
            store.snapshot_kernel(kernel)
            signature = kernel.structure.signature

        loaded = store.load(signature)
        assert loaded is not None
        structure, entries = loaded
        assert structure.signature == signature
        # Snapshot payloads are frozen: no array sneaks onto disk, so
        # the file is loadable on hosts without numpy at all.
        for _, payload, _ in entries:
            assert freeze(payload) == payload

        with use_backend(read_backend):
            registry = GammaKernelRegistry()
            kernel = self._relation(registry).kernel
            imported = kernel.import_entries(entries)
            assert imported == len(entries)
            stats_before = dict(kernel.kernel_stats)
            for pair, value in expected.items():
                assert freeze(kernel.entry(*pair)) == value
            stats_after = kernel.kernel_stats
        # Preloaded entries answered every pair: no recomputation.
        assert (
            stats_after["partition_refinements"]
            == stats_before["partition_refinements"]
        )
        assert stats_after["grouping_passes"] == stats_before["grouping_passes"]


@needs_numpy
class TestSharedMemoryLifecycle:
    def test_segments_published_once_and_unlinked_on_close(self):
        from multiprocessing import shared_memory

        relation = ModuleRelation.random("SHM", n_inputs=2, n_outputs=2, seed=33)
        requests = entry_requests(relation)
        with ShardCoordinator(0) as oracle:
            expected = oracle.gammas(requests)
        coordinator = ShardCoordinator(2, shm_tables=True)
        try:
            assert coordinator.transport.shm_tables
            assert coordinator.gammas(requests) == expected
            # Re-sweeping must reuse the published segment, not leak a
            # second one per re-ship.
            assert coordinator.gammas(requests) == expected
            names = coordinator.transport.shm_segments()
            assert len(names) == 1
        finally:
            coordinator.close()
        assert coordinator.transport.shm_segments() == ()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_value_shipping_opt_out_publishes_nothing(self):
        relation = ModuleRelation.random("VAL", n_inputs=2, n_outputs=2, seed=34)
        requests = entry_requests(relation)
        with ShardCoordinator(0) as oracle:
            expected = oracle.gammas(requests)
        with ShardCoordinator(1, shm_tables=False) as coordinator:
            assert not coordinator.transport.shm_tables
            assert coordinator.gammas(requests) == expected
            assert coordinator.transport.shm_segments() == ()


class TestCoalescedDispatch:
    def _workload(self, seed=44):
        relations = [
            ModuleRelation.random(
                f"CD{index}", n_inputs=2, n_outputs=2, seed=seed + index
            )
            for index in range(3)
        ]
        return [req for r in relations for req in entry_requests(r)]

    def test_out_of_order_collection_matches_oracle(self):
        requests = self._workload()
        with ShardCoordinator(0) as oracle:
            expected = [result.gamma for result in oracle.evaluate(requests)]
        with ShardCoordinator(2, coalesce=8) as coordinator:
            ids = [coordinator.submit([request]) for request in requests]
            banked = {rid: coordinator.collect(rid) for rid in reversed(ids)}
            gammas = [banked[rid][0].gamma for rid in ids]
            stats = coordinator.service_stats()
        assert gammas == expected
        assert stats["coalesce"] == 8
        assert stats["coalesced_batches"] > 0
        assert stats["coalesced_requests"] > stats["coalesced_batches"]
        # The whole point: far fewer IPC round trips than requests.
        assert stats["batches"] < len(requests)

    def test_buffered_tasks_flush_on_collect(self):
        requests = self._workload(seed=50)[:5]
        with ShardCoordinator(1, coalesce=10_000) as coordinator:
            # Threshold never reached: everything sits buffered until a
            # collector arrives.
            ids = [coordinator.submit([request]) for request in requests]
            assert coordinator._buffers
            results = [coordinator.collect(rid)[0] for rid in ids]
            assert not coordinator._buffers
        assert len(results) == len(requests)

    def test_error_fails_every_member_request_and_nothing_else(self):
        relation = ModuleRelation.random("ERR", n_inputs=3, n_outputs=2, seed=61)
        requests = entry_requests(relation)
        with ShardCoordinator(1, coalesce=2, task_timeout=30.0) as coordinator:
            first = coordinator.submit([requests[0]])
            second = coordinator.submit([requests[1]])  # threshold: flushes
            batch_ids = [
                batch_id
                for batch_id, members in coordinator._batch_requests.items()
                if {first, second} <= members
            ]
            assert len(batch_ids) == 1  # one batch carries both requests
            coordinator.transport._result_queue.put(
                ("error", 0, batch_ids[0], "injected coalesced failure")
            )
            with pytest.raises(ServiceError, match="injected coalesced failure"):
                coordinator.collect(first)
            with pytest.raises(ServiceError, match="injected coalesced failure"):
                coordinator.collect(second)
            # The service is not poisoned: later requests on the same
            # shard still complete.
            third = coordinator.submit(requests[2:4])
            assert len(coordinator.collect(third)) == 2


class TestE9CoalescedHeadline:
    def test_coalesced_speedup_reported_and_asserted_on_big_hosts(self):
        config = e9_sharding.E9Config(
            workers=(0, 2), modules=(2,), budgets=(None,), seed=9
        )
        rows = e9_sharding.run(config)
        headline = e9_sharding.headline(rows)
        assert headline["coalesced_speedup"] > 0
        if (os.cpu_count() or 1) >= 4:
            # With real parallelism the coalesced shared-memory path
            # must beat the PR 6 one-round-trip-per-request path.
            assert headline["coalesced_speedup"] >= 1.0
