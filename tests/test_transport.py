"""Tests for the transport/server mechanics the conformance matrix skips.

The cross-transport equivalence, per-solve memo and recovery contracts
(formerly per-transport copies here) live in
``test_transport_conformance.py`` as one parametrized matrix; this file
keeps what is *not* a per-transport contract: frame/wire round-trips,
socket-server specifics (shared warm kernels across tenants, the
``need``-structures re-ship, restart budgets, the stats probe),
connection-pool unit behavior, the coordinator's out-of-order error
banking and structure LRU, and snapshot-store GC + compaction.
"""

from __future__ import annotations

import os
import socket

import pytest
from service_workloads import entry_requests

from repro.errors import ServiceError, WorkerCrashError
from repro.experiments import e10_transport
from repro.privacy.kernel_registry import GammaKernelRegistry
from repro.privacy.relations import ModuleRelation
from repro.service import (
    GammaServer,
    KernelSnapshotStore,
    ShardCoordinator,
    SocketTransport,
    parse_address,
)
from repro.service.protocol import (
    MSG_BATCH,
    MSG_NEED,
    GammaBatch,
    GammaTask,
    ShardReport,
    TaskResult,
    batch_from_wire,
    batch_to_wire,
    encode_frame,
    message_from_wire,
    message_to_wire,
    read_frame,
    structure_from_wire,
    structure_to_wire,
    write_frame,
)

#: A well-formed report wire form, for completions that are malformed
#: elsewhere.
REPORT_WIRE = [0, 4, 1, {}, 0, False, 0.0, 0, 0.0, 0, 0, ""]


#: One wrong-arity wire form per message kind (batch requests and
#: completions, and the tasks and results inside them, included).
WRONG_ARITY = {
    "batch_request_4_fields": ["batch", [1, 0, 0, []]],
    "batch_3": ["batch", 0, 4],
    "batch_6": ["batch", 0, 4, [], REPORT_WIRE, "extra"],
    "task_4_fields": ["batch", [1, 0, 0, [[1, "sig", [0], [0]]], {}]],
    "task_6_fields": ["batch", [1, 0, 0, [[1, "sig", [0], [0], "gamma", 1]], {}]],
    "result_4_fields": ["batch", 0, 4, [[4, "sig", 2, None]], REPORT_WIRE],
    "result_6_fields": [
        "batch", 0, 4, [[4, "sig", 2, None, None, [1, 2]]], REPORT_WIRE
    ],
    "error_3": ["error", 0, 4],
    "need_2": ["need", 12],
    "stats_3": ["stats", {}, 1],
    "stop_2": ["stop", 1],
    "stopped_1": ["stopped"],
    "ping_2": ["ping", 1],
    "pong_1": ["pong"],
    "export_1": ["export"],
    "exported_3": ["exported", {}, 1],
    "import_1": ["import"],
    "imported_3": ["imported", 1, 2],
    "overload_3": ["overload", 0, 4],
}


@pytest.fixture(scope="module")
def unix_server(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gamma") / "gamma.sock")
    with GammaServer(("unix", path)) as server:
        yield server


@pytest.fixture(scope="module")
def unix_client(unix_server):
    with ShardCoordinator(address=unix_server.address, task_timeout=60.0) as client:
        yield client


class TestWireForms:
    def test_structure_round_trip(self):
        structure = ModuleRelation.random("P", seed=7).structure_signature
        rebuilt = structure_from_wire(structure_to_wire(structure))
        assert rebuilt == structure
        assert rebuilt.signature == structure.signature

    def test_batch_round_trip(self):
        structure = ModuleRelation.random("P", seed=8).structure_signature
        batch = GammaBatch(
            5,
            1,
            (GammaTask(9, structure.signature, (0,), (1,), "entry"),),
            {structure.signature: structure},
            request_id=3,
        )
        rebuilt = batch_from_wire(batch_to_wire(batch))
        assert rebuilt == batch

    def test_completion_message_round_trip(self):
        result = TaskResult(4, "sig", 2, (1, 2), (0, 0, 1))
        report = ShardReport(0, 4, 1, {"kernels": 1}, 2, True, 1.5, 3, 0.75)
        message = (MSG_BATCH, 0, 4, (result,), report)
        rebuilt = message_from_wire(message_to_wire(message))
        assert rebuilt == message
        assert rebuilt[4].queue_depth == 3
        assert rebuilt[4].queue_wait_ms == 0.75

    def test_need_message_round_trip(self):
        message = (MSG_NEED, 12, ("aa", "bb"))
        assert message_from_wire(message_to_wire(message)) == message

    def test_every_message_kind_round_trips_at_its_arity(self):
        messages = [
            ("error", 0, 4, "trace"),
            ("stats",),
            ("stats", {"kernels": 1}),
            ("stop",),
            ("stopped", 0),
            ("ping",),
            ("pong", 0),
            ("export", ("aa", "bb")),
            ("imported", 3),
            ("overload", 0, 4, 12.5),
        ]
        for message in messages:
            assert message_from_wire(message_to_wire(message)) == message

    @pytest.mark.parametrize("name", sorted(WRONG_ARITY))
    def test_wrong_arity_raises_service_error(self, name):
        with pytest.raises(ServiceError, match="malformed"):
            message_from_wire(WRONG_ARITY[name])

    @pytest.mark.parametrize("wire", [[], 7, "batch", {"batch": 1}])
    def test_non_list_message_raises_service_error(self, wire):
        with pytest.raises(ServiceError, match="malformed"):
            message_from_wire(wire)

    def test_frames_over_socketpair(self):
        structure = ModuleRelation.random("P", seed=9).structure_signature
        batch = GammaBatch(
            1, 0, (GammaTask(1, structure.signature, (), (), "gamma"),),
            {structure.signature: structure},
        )
        left, right = socket.socketpair()
        try:
            write_frame(left, (MSG_BATCH, batch))
            message = read_frame(right)
            assert message == (MSG_BATCH, batch)
        finally:
            left.close()
            right.close()

    def test_partial_frames_survive_in_buffer(self):
        from repro.service.protocol import decode_frame_from_buffer

        message = (MSG_NEED, 7, ("aa", "bb"))
        frame = encode_frame(message)
        # Feed the frame byte by byte: every prefix decodes to None and
        # leaves the buffer intact (a recv timeout mid-frame must not
        # desync the stream); the full frame decodes and is consumed.
        buffer = bytearray()
        for byte in frame[:-1]:
            buffer.append(byte)
            assert decode_frame_from_buffer(buffer) is None
        buffer.append(frame[-1])
        assert decode_frame_from_buffer(buffer) == message
        assert buffer == bytearray()
        # Two frames back to back decode one at a time.
        buffer = bytearray(frame + frame)
        assert decode_frame_from_buffer(buffer) == message
        assert decode_frame_from_buffer(buffer) == message
        assert buffer == bytearray()

    def test_torn_frame_raises(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame((MSG_NEED, 1, ("aa",)))
            left.sendall(frame[: len(frame) // 2])
            left.close()
            with pytest.raises(ServiceError, match="mid-frame"):
                read_frame(right)
        finally:
            right.close()

    def test_unknown_codec_tag_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x01Zx")
            with pytest.raises(ServiceError, match="codec tag"):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_pickle_refused_when_disallowed(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, (MSG_NEED, 1, ("aa",)), "pickle")
            with pytest.raises(ServiceError, match="pickle"):
                read_frame(right, allow_pickle=False)
        finally:
            left.close()
            right.close()

    def test_parse_address_forms(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("tcp:localhost:7441") == ("tcp", "localhost", 7441)
        assert parse_address("localhost:7441") == ("tcp", "localhost", 7441)
        assert parse_address(("unix", "/x")) == ("unix", "/x")
        with pytest.raises(ServiceError):
            parse_address("not-an-address")


class TestSocketServer:
    def test_merged_kernel_stats_are_coherent(self, unix_client):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=77
        )
        requests = entry_requests(relation)
        oracle = ShardCoordinator(0)
        oracle.gammas(requests)
        expected = oracle.kernel_stats()
        unix_client.gammas(requests)
        stats = unix_client.kernel_stats()
        # The shared server accumulates over every test in this module,
        # so compare coherence, not equality: all oracle keys present
        # and counters at least as large as one cold sweep's.
        for key, value in expected.items():
            assert key in stats
            assert stats[key] >= 0
        assert stats["kernels"] >= 1
        report = unix_client.shard_reports()[0]
        assert report.dispatch_latency_ms >= 0.0

    def test_two_clients_share_one_warm_server(self, unix_server):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=78
        )
        requests = entry_requests(relation)
        with ShardCoordinator(address=unix_server.address) as first:
            baseline = first.gammas(requests)
            warmed = first.kernel_stats()["grouping_passes"]
        with ShardCoordinator(address=unix_server.address) as second:
            assert second.gammas(requests) == baseline
            # The second tenant's sweep was served from the first's warm
            # kernels: no further grouping passes were needed.
            assert second.kernel_stats()["grouping_passes"] == warmed

    def test_server_stats_probe(self, unix_server, unix_client):
        relation = ModuleRelation.random("P", seed=79)
        unix_client.gammas(entry_requests(relation))
        stats = unix_client.transport.fetch_stats()
        assert stats["server_batches"] >= 1
        assert stats["server_clients"] >= 1
        # Fairness gauges of the round-robin scheduler.
        assert stats["server_dispatchers"] >= 1
        assert stats["server_tenants"] >= 1
        assert stats["server_queue_depth"] >= 0
        assert stats["queue_wait_p95_ms"] >= 0
        report = unix_client.shard_reports()[0]
        assert report.queue_wait_ms >= 0.0
        assert report.queue_depth >= 0

    def test_connection_loss_recovers_transparently(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=2, seed=80)
        requests = entry_requests(relation)
        path = str(tmp_path / "flaky.sock")
        with GammaServer(("unix", path)) as server:
            with ShardCoordinator(address=server.address) as client:
                baseline = client.gammas(requests)
                # Sever the transport's socket under it: the next call
                # detects the dead "shard", reconnects and re-ships.
                client.transport._sock.close()
                assert client.gammas(requests) == baseline
                assert client.worker_restarts >= 1

    def test_reconnect_gives_up_past_max_restarts(self, tmp_path):
        path = str(tmp_path / "gone.sock")
        with GammaServer(("unix", path)) as server:
            transport = SocketTransport(server.address, max_restarts=0)
        # The server is closed; the socket is dead and reconnect is capped.
        relation = ModuleRelation.random("P", seed=81)
        with ShardCoordinator(transport=transport, task_timeout=5.0) as client:
            with pytest.raises((WorkerCrashError, ServiceError)):
                client.gammas(entry_requests(relation))

    def test_batch_larger_than_server_cache_still_completes(self, tmp_path):
        # Two distinct structures in one request against a one-slot
        # server cache: the batch's own signatures are pinned during
        # eviction, so this completes instead of livelocking on
        # need/re-ship.
        relations = [
            ModuleRelation.random(f"B{i}", n_inputs=2, n_outputs=1, seed=95 + i)
            for i in range(2)
        ]
        requests = [req for r in relations for req in entry_requests(r)]
        baseline = ShardCoordinator(0).gammas(requests)
        path = str(tmp_path / "pin.sock")
        with GammaServer(("unix", path), structure_cache_size=1) as server:
            with ShardCoordinator(address=server.address, task_timeout=20.0) as client:
                assert client.gammas(requests) == baseline

    def test_warm_batch_reads_registry_stats_twice(self, tmp_path, monkeypatch):
        """One warm batch costs two registry stats reads: the report built
        by the in-process backend and the server's own ``kernel_stats``.
        Checking whether the backend is local must not add a third."""
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=2, seed=83)
        requests = entry_requests(relation)
        reads = []
        counted = GammaKernelRegistry.aggregate_counters

        def counting(registry):
            reads.append(registry)
            return counted(registry)

        path = str(tmp_path / "reads.sock")
        with GammaServer(("unix", path)) as server:
            with ShardCoordinator(address=server.address) as client:
                client.gammas(requests)  # ships the structure, warms the kernel
                batches = client.service_stats()["batches"]
                monkeypatch.setattr(
                    GammaKernelRegistry, "aggregate_counters", counting
                )
                client.gammas(requests)
                monkeypatch.undo()
                assert client.service_stats()["batches"] == batches + 1
        assert len(reads) == 2

    def test_server_rejects_empty_structure_cache(self, tmp_path):
        with pytest.raises(ServiceError):
            GammaServer(("unix", str(tmp_path / "x.sock")), structure_cache_size=0)

    def test_server_reships_structures_after_cache_eviction(self, tmp_path):
        relations = [
            ModuleRelation.random(f"N{i}", n_inputs=2, n_outputs=1, seed=90 + i)
            for i in range(3)
        ]
        path = str(tmp_path / "tiny.sock")
        with GammaServer(("unix", path), structure_cache_size=1) as server:
            with ShardCoordinator(address=server.address) as client:
                baselines = [
                    ShardCoordinator(0).gammas(entry_requests(r)) for r in relations
                ]
                # Round-robin twice: every structure is evicted between
                # its uses, so the server must ask for re-ships.
                for _ in range(2):
                    for relation, baseline in zip(relations, baselines):
                        assert client.gammas(entry_requests(relation)) == baseline


class TestOutOfOrderCollect:
    def test_speculative_error_does_not_abort_other_collects(self, monkeypatch):
        # An error belonging to request B, arriving while request A's
        # collect() is pumping, must be banked on B -- not raised out of
        # A's collect.  B's batch never reaches a worker, so the injected
        # error is its only completion and is queued ahead of A's
        # results (a real completion of B could otherwise race it).
        doomed_relation = ModuleRelation.random("Q", n_inputs=2, n_outputs=2, seed=66)
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=2, seed=65)
        requests = entry_requests(relation)
        with ShardCoordinator(2, task_timeout=30.0) as coordinator:
            monkeypatch.setattr(coordinator.transport, "submit", lambda batch: None)
            doomed = coordinator.submit(entry_requests(doomed_relation))
            monkeypatch.undo()
            doomed_batches = [
                batch_id
                for batch_id, request_ids in coordinator._batch_requests.items()
                if doomed in request_ids
            ]
            coordinator.transport._result_queue.put(
                ("error", 0, doomed_batches[0], "injected failure")
            )
            healthy = coordinator.submit(requests)
            results = coordinator.collect(healthy)
            assert len(results) == len(requests)
            with pytest.raises(ServiceError, match="injected failure"):
                coordinator.collect(doomed)


class TestPooledTransportUnits:
    def test_empty_endpoint_list_rejected(self):
        from repro.service import PooledTransport

        with pytest.raises(ServiceError, match="at least one endpoint"):
            PooledTransport([])

    def test_build_transport_rejects_address_and_endpoints(self):
        from repro.service.transport import build_transport

        with pytest.raises(ServiceError, match="not both"):
            build_transport(address="127.0.0.1:1", endpoints=["127.0.0.1:2"])

    def test_routing_is_identity_until_failover(self, unix_server):
        with ShardCoordinator(endpoints=[unix_server.address] * 3) as client:
            pool = client.transport
            assert pool.shard_count == 3
            assert [pool.endpoint_of(shard) for shard in range(3)] == [0, 1, 2]
            assert pool.lost_endpoints == ()
            assert pool.failovers == 0
            assert "endpoints=3" in repr(pool)

    def test_pool_stats_probe_merges_endpoints(self, unix_server):
        relation = ModuleRelation.random("P", seed=83)
        with ShardCoordinator(endpoints=[unix_server.address] * 2) as client:
            client.gammas(entry_requests(relation))
            stats = client.transport.fetch_stats()
            assert stats["pool_endpoints"] == 2
            assert stats["pool_lost_endpoints"] == 0
            assert stats["server_batches"] >= 1


class TestStructureLRU:
    def test_cache_is_bounded_and_correct(self):
        relations = [
            ModuleRelation.random(f"L{i}", n_inputs=2, n_outputs=1, seed=100 + i)
            for i in range(6)
        ]
        oracle = ShardCoordinator(0)
        coordinator = ShardCoordinator(0, structure_cache_size=2)
        for relation in relations:
            requests = [(relation.structure_signature, (0,), ())]
            assert coordinator.gammas(requests) == oracle.gammas(requests)
        assert len(coordinator._structures) <= 2
        assert coordinator.service_stats()["structure_evictions"] > 0

    def test_miss_reships_from_snapshot_store(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=2, seed=110)
        # Warm the snapshot store with this structure.
        with ShardCoordinator(0, snapshot_dir=str(tmp_path)) as warmup:
            warmup.gammas(entry_requests(relation))
        coordinator = ShardCoordinator(
            0, snapshot_dir=str(tmp_path), structure_cache_size=1
        )
        # Force the eviction of the relation's structure.
        other = ModuleRelation.random("Q", n_inputs=1, n_outputs=1, seed=111)
        coordinator.gammas(entry_requests(relation))
        coordinator.gammas(entry_requests(other))
        assert relation.structure_signature.signature not in coordinator._structures
        # The signature is still resolvable -- via the store.
        structure = coordinator._structure_for(
            relation.structure_signature.signature
        )
        assert structure == relation.structure_signature
        assert coordinator.service_stats()["structure_reloads"] >= 1

    def test_miss_without_store_raises_clearly(self):
        coordinator = ShardCoordinator(0, structure_cache_size=1)
        with pytest.raises(ServiceError, match="structure_cache_size"):
            coordinator._structure_for("feedface")


class TestSnapshotGC:
    def _store_with_snapshots(self, tmp_path, count):
        registry = GammaKernelRegistry()
        for index in range(count):
            relation = ModuleRelation.random(
                f"G{index}", n_inputs=2, n_outputs=1, seed=200 + index
            )
            registry.ensure_kernel(relation.structure_signature).entry((), ())
        store = KernelSnapshotStore(tmp_path)
        store.snapshot_registry(registry)
        return store

    def test_gc_by_age(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 3)
        signatures = store.signatures()
        old = store.path_for(signatures[0])
        stale_time = old.stat().st_mtime - 7200
        os.utime(old, (stale_time, stale_time))
        report = store.gc(max_age_seconds=3600)
        assert report["removed_by_age"] == 1
        assert report["kept"] == 2
        assert len(store) == 2

    def test_gc_by_size_removes_oldest_first(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 3)
        signatures = store.signatures()
        oldest = store.path_for(signatures[1])
        stale_time = oldest.stat().st_mtime - 500
        os.utime(oldest, (stale_time, stale_time))
        total = store.total_bytes()
        report = store.gc(max_total_bytes=total - 1)
        assert report["removed_by_size"] >= 1
        assert signatures[1] not in store.signatures()
        assert store.total_bytes() <= total - 1

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 2)
        report = store.gc(max_total_bytes=0, dry_run=True)
        assert report["removed_by_size"] == 2
        assert len(store) == 2

    def test_compact_preserves_entries_and_drops_corrupt(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 2)
        signatures = store.signatures()
        expected = {
            signature: store.load(signature) for signature in signatures
        }
        store.path_for("feedface").write_bytes(b"torn")
        report = store.compact()
        assert report["rewritten"] == 2
        assert report["dropped"] == 1
        for signature in signatures:
            assert store.load(signature) == expected[signature]

    def test_cli_snapshots_gc(self, tmp_path, capsys):
        from repro.cli import main

        store = self._store_with_snapshots(tmp_path, 2)
        assert len(store) == 2
        assert (
            main(
                [
                    "snapshots",
                    "gc",
                    str(tmp_path),
                    "--max-bytes",
                    "0",
                    "--compact",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "removed" in output
        assert len(KernelSnapshotStore(tmp_path)) == 0


class TestExperimentE10:
    def test_small_sweep_matches_oracle(self):
        config = e10_transport.E10Config(
            transports=("inprocess", "unix"), modules=2, seed=9
        )
        rows = e10_transport.run(config)
        assert len(rows) == 2
        assert all(row["matches_oracle"] for row in rows)
        evaluations = {row["evaluations"] for row in rows}
        assert len(evaluations) == 1, "the transport must not change the search"
        # Each batch carries at least one distinct request, and a module
        # with k attributes has at most 2^k distinct visibility pairs.
        distinct_bound = sum(
            2 ** len(requirement.relation.attribute_names())
            for requirement in e10_transport.build_requirements(config).requirements
        )
        assert all(0 < row["batches"] <= distinct_bound for row in rows)
        headline = e10_transport.headline(rows)
        assert headline["all_match_oracle"] is True
        assert headline["transports"] == 2

    def test_workers_override(self):
        config = e10_transport.E10Config(
            transports=("multiprocess",), modules=2, seed=10
        )
        rows = e10_transport.run(config, workers=2)
        assert rows and all(row["matches_oracle"] for row in rows)


class TestExperimentE11:
    def test_small_sweep_matches_oracle(self):
        from repro.experiments import e11_federation

        config = e11_federation.E11Config(
            servers=(1, 2), tenants=2, modules=2, tenancy=False
        )
        rows = e11_federation.run(config)
        assert len(rows) == 4
        assert all(row["matches_oracle"] for row in rows)
        evaluations = {row["evaluations"] for row in rows}
        assert len(evaluations) == 1, "federation must not change the search"
        headline = e11_federation.headline(rows)
        assert headline["all_match_oracle"] is True
        assert headline["federations"] == 2

    def test_endpoints_override_sweeps_given_federation(self, unix_server):
        from repro.experiments import e11_federation

        config = e11_federation.E11Config(
            servers=(3,), tenants=1, modules=2, tenancy=False
        )
        rows = e11_federation.run(config, endpoints=[unix_server.address])
        assert len(rows) == 1
        assert rows[0]["servers"] == 1
        assert rows[0]["matches_oracle"]
