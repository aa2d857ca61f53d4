"""Elastic federation: ring properties, backoff, re-admission, handoff.

ISSUE 6's chaos suite (``make test-chaos`` collects by the
``readmission``/``rebalance`` name markers):

* Hypothesis properties of the bounded-load
  :class:`~repro.service.ring.HashRing` -- determinism, bounded loads
  for every live set, identity at full membership, home-shard
  stability under any membership change, and minimal movement on
  single changes at the full-membership boundary (the provable scope:
  for arbitrary multi-change transitions the cap itself moves, so no
  bounded-load scheme can keep every unaffected endpoint untouched);
* :class:`~repro.service.transport.ExponentialBackoff` units and the
  reconnect budget/backoff interplay inside
  :meth:`SocketTransport.recover`;
* the epoch filter that keeps ``evaluations`` exactly-once across
  membership changes (white-box: stale completions dropped);
* the kill -> heal -> ``probe_now`` -> warm-handoff cycle against real
  servers, with the split ``restarts``/``failovers``/``readmissions``
  counters and their ``pool_*`` wire forms.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from service_workloads import entry_requests, search_requirements

from repro.errors import ServiceError, WorkerCrashError
from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import exact_secure_view
from repro.service import (
    ExponentialBackoff,
    GammaServer,
    HashRing,
    ShardCoordinator,
    probe_endpoint,
    shard_of,
)
from repro.service.protocol import MSG_BATCH, ShardReport
from repro.service.transport import SocketTransport

RING_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def identities(count: int) -> list[str]:
    return [f"{index}@unix:/tmp/gamma-{index}.sock" for index in range(count)]


class TestRingRebalance:
    """The routing function the live rebalancing trusts."""

    @given(count=st.integers(min_value=1, max_value=12))
    @RING_SETTINGS
    def test_rebalance_identity_at_full_membership(self, count):
        ring = HashRing(identities(count))
        assert ring.assign(range(count)) == tuple(range(count))

    @given(
        count=st.integers(min_value=2, max_value=12),
        data=st.data(),
    )
    @RING_SETTINGS
    def test_rebalance_is_deterministic_across_ring_instances(self, count, data):
        live = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=count - 1), min_size=1
            ),
            label="live",
        )
        first = HashRing(identities(count)).assign(live)
        second = HashRing(identities(count)).assign(sorted(live))
        assert first == second

    @given(
        count=st.integers(min_value=1, max_value=12),
        slack=st.integers(min_value=0, max_value=2),
        data=st.data(),
    )
    @RING_SETTINGS
    def test_rebalance_loads_bounded_for_every_live_set(self, count, slack, data):
        live = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=count - 1), min_size=1
            ),
            label="live",
        )
        ring = HashRing(identities(count), slack=slack)
        assignment = ring.assign(live)
        cap = ring.capacity(len(live))
        for endpoint in live:
            assert assignment.count(endpoint) <= cap
        assert set(assignment) <= set(live)

    @given(
        count=st.integers(min_value=2, max_value=12),
        data=st.data(),
    )
    @RING_SETTINGS
    def test_rebalance_never_moves_home_shards_of_live_endpoints(self, count, data):
        """The unaffected-endpoint guarantee: a live endpoint keeps its
        home shard under *any* membership change."""
        live = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=count - 1), min_size=1
            ),
            label="live",
        )
        assignment = HashRing(identities(count)).assign(live)
        for endpoint in live:
            assert assignment[endpoint] == endpoint

    @given(
        count=st.integers(min_value=2, max_value=12),
        data=st.data(),
    )
    @RING_SETTINGS
    def test_rebalance_single_loss_from_full_moves_only_victim_shard(
        self, count, data
    ):
        victim = data.draw(
            st.integers(min_value=0, max_value=count - 1), label="victim"
        )
        ring = HashRing(identities(count))
        before = ring.assign(range(count))
        after = ring.assign(index for index in range(count) if index != victim)
        moved = [
            shard for shard in range(count) if before[shard] != after[shard]
        ]
        assert moved == [victim]
        assert len(moved) <= ring.capacity(count - 1)

    @given(
        count=st.integers(min_value=2, max_value=12),
        data=st.data(),
    )
    @RING_SETTINGS
    def test_rebalance_single_readmission_to_full_moves_only_homecoming_shard(
        self, count, data
    ):
        victim = data.draw(
            st.integers(min_value=0, max_value=count - 1), label="victim"
        )
        ring = HashRing(identities(count))
        partial = ring.assign(index for index in range(count) if index != victim)
        full = ring.assign(range(count))
        moved = [
            shard for shard in range(count) if partial[shard] != full[shard]
        ]
        assert moved == [victim]
        assert full[victim] == victim

    def test_rebalance_rejects_bad_membership(self):
        ring = HashRing(identities(3))
        with pytest.raises(ValueError):
            ring.assign(())
        with pytest.raises(ValueError):
            ring.assign((0, 7))
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["same", "same"])
        with pytest.raises(ValueError):
            ring.capacity(0)


class TestExponentialBackoff:
    """The shared reconnect/probe schedule."""

    def test_backoff_schedule_doubles_to_cap(self):
        backoff = ExponentialBackoff(
            base=0.05, factor=2.0, max_delay=2.0, jitter=0.25
        )
        assert backoff.peek_schedule(8) == (
            0.05,
            0.1,
            0.2,
            0.4,
            0.8,
            1.6,
            2.0,
            2.0,
        )

    def test_backoff_jitter_bounded_and_reset_rewinds(self):
        backoff = ExponentialBackoff(
            base=0.1, factor=2.0, max_delay=5.0, jitter=0.25, rng=random.Random(7)
        )
        for attempt in range(6):
            raw = min(0.1 * 2.0**attempt, 5.0)
            delay = backoff.next()
            assert 0.75 * raw <= delay <= 1.25 * raw
        assert backoff.attempt == 6
        backoff.reset()
        assert backoff.attempt == 0
        assert backoff.peek_schedule(1) == (0.1,)

    def test_backoff_rejects_bad_schedules(self):
        for kwargs in (
            {"base": 0.0},
            {"factor": 0.5},
            {"max_delay": 0.01, "base": 0.05},
            {"jitter": 1.0},
        ):
            with pytest.raises(ServiceError):
                ExponentialBackoff(**kwargs)

    def test_backoff_schedule_surfaced_in_transport_repr(self):
        socket_dir = tempfile.mkdtemp(prefix="elastic-repr-")
        try:
            with GammaServer(
                ("unix", os.path.join(socket_dir, "gamma.sock"))
            ) as server:
                transport = SocketTransport(server.address)
                try:
                    text = repr(transport)
                    assert "backoff=[" in text
                    assert "0.05s" in text
                    assert "restarts=0/" in text
                finally:
                    transport.close(snapshot=False)
        finally:
            shutil.rmtree(socket_dir, ignore_errors=True)

    def test_backoff_paces_recover_until_budget_exhausted(self):
        socket_dir = tempfile.mkdtemp(prefix="elastic-recover-")
        try:
            server = GammaServer(
                ("unix", os.path.join(socket_dir, "gamma.sock"))
            ).start()
            schedule = ExponentialBackoff(
                base=0.001, max_delay=0.002, jitter=0.0
            )
            transport = SocketTransport(
                server.address, max_restarts=3, backoff=schedule
            )
            try:
                server.close(snapshot=False)
                transport.inject_crash(0)
                with pytest.raises(WorkerCrashError):
                    transport.recover(0)
                # Every budgeted attempt was consumed, each one paced by
                # the schedule (the counter advanced past attempt 0).
                assert transport.restarts == 3
                assert schedule.attempt >= 2
            finally:
                transport.close(snapshot=False)
        finally:
            shutil.rmtree(socket_dir, ignore_errors=True)


def federation(count: int, socket_dir: str):
    addresses = [
        ("unix", os.path.join(socket_dir, f"gamma-{index}.sock"))
        for index in range(count)
    ]
    servers = {
        index: GammaServer(address).start()
        for index, address in enumerate(addresses)
    }
    return addresses, servers


def traffic_victim(requests, endpoints: int) -> int:
    """The endpoint owning the most request signatures (loss detection
    is lazy, so an idle endpoint's death would go unnoticed)."""
    owned: dict[int, int] = {}
    for structure, _vi, _vo in requests:
        shard = shard_of(structure.signature, endpoints)
        owned[shard] = owned.get(shard, 0) + 1
    return max(owned, key=lambda index: owned[index])


class TestProberReadmission:
    """Kill -> heal -> probe -> re-admit against real servers."""

    def test_probe_endpoint_readmission_handshake(self):
        socket_dir = tempfile.mkdtemp(prefix="elastic-probe-")
        try:
            address = ("unix", os.path.join(socket_dir, "gamma.sock"))
            assert probe_endpoint(address, timeout=0.2) is False
            with GammaServer(address) as server:
                assert probe_endpoint(server.address, timeout=1.0) is True
            assert probe_endpoint(address, timeout=0.2) is False
        finally:
            shutil.rmtree(socket_dir, ignore_errors=True)

    def test_manual_probe_readmission_restores_identity_routing(self):
        relations = [
            ModuleRelation.random(
                f"EL{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=88 + index
            )
            for index in range(4)
        ]
        requests = [request for r in relations for request in entry_requests(r)]
        oracle = ShardCoordinator(0).gammas(requests)
        victim = traffic_victim(requests, 2)
        socket_dir = tempfile.mkdtemp(prefix="elastic-readmit-")
        addresses, servers = federation(2, socket_dir)
        try:
            with ShardCoordinator(
                endpoints=addresses,
                task_timeout=60.0,
                probe_interval=None,  # manual probing: deterministic test
                max_restarts=1,
            ) as client:
                pool = client.transport
                assert client.gammas(requests) == oracle
                servers.pop(victim).close(snapshot=False)
                assert client.gammas(requests) == oracle
                assert pool.lost_endpoints == (victim,)
                assert pool.failovers >= 1
                assert pool.epoch == 1

                # Probing while the address is still dead re-admits
                # nothing and reschedules the endpoint's backoff.
                assert pool.probe_now(force=True, drain=True) == ()
                assert pool.lost_endpoints == (victim,)

                servers[victim] = GammaServer(addresses[victim]).start()
                assert pool.probe_now(force=True, drain=True) == (victim,)
                assert pool.lost_endpoints == ()
                assert pool.readmissions == 1
                assert pool.epoch == 2
                # Identity routing again: indistinguishable from a
                # fresh pool over the same membership.
                assert pool.routing == tuple(range(pool.endpoint_count))
                # The homecoming shards arrived warm.
                assert pool.handoffs >= 1
                assert pool.handoff_entries > 0
                assert client.gammas(requests) == oracle
                assert pool.stale_completions == 0
        finally:
            for server in servers.values():
                server.close(snapshot=False)
            shutil.rmtree(socket_dir, ignore_errors=True)

    def test_readmission_counters_split_with_wire_forms(self):
        """``restarts``/``failovers``/``readmissions`` are distinct
        counters, each with its own ``pool_*`` wire form."""
        requirements = search_requirements(70)
        signatures = [
            requirement.relation.structure_signature.signature
            for requirement in requirements.requirements
        ]
        owned: dict[int, int] = {}
        for signature in signatures:
            owned[shard_of(signature, 2)] = owned.get(shard_of(signature, 2), 0) + 1
        victim = max(owned, key=lambda index: owned[index])
        baseline = exact_secure_view(search_requirements(70))
        socket_dir = tempfile.mkdtemp(prefix="elastic-counters-")
        addresses, servers = federation(2, socket_dir)
        try:
            with ShardCoordinator(
                endpoints=addresses,
                task_timeout=60.0,
                probe_interval=None,
                max_restarts=1,
            ) as client:
                pool = client.transport
                result = exact_secure_view(search_requirements(70), service=client)
                assert result.evaluations == baseline.evaluations

                # A severed connection to a living server: reconnect
                # counts a restart, no failover, no re-admission.
                pool.inject_crash(victim)
                result = exact_secure_view(search_requirements(70), service=client)
                assert result.evaluations == baseline.evaluations
                assert pool.restarts >= 1
                assert pool.failovers == 0
                assert pool.readmissions == 0

                # A dead server: its shards fail over (no re-admission
                # yet), and the retired connection's restarts survive in
                # the pool-wide gauge.
                restarts_before = pool.restarts
                servers.pop(victim).close(snapshot=False)
                result = exact_secure_view(search_requirements(70), service=client)
                assert result.evaluations == baseline.evaluations
                assert pool.failovers >= 1
                assert pool.readmissions == 0
                assert pool.restarts >= restarts_before

                servers[victim] = GammaServer(addresses[victim]).start()
                assert pool.probe_now(force=True, drain=True) == (victim,)
                assert pool.readmissions == 1

                stats = pool.fetch_stats()
                for key in (
                    "pool_restarts",
                    "pool_failovers",
                    "pool_readmissions",
                    "pool_handoffs",
                    "pool_handoff_entries",
                    "pool_stale_completions",
                    "pool_epoch",
                ):
                    assert key in stats, key
                assert stats["pool_failovers"] == pool.failovers
                assert stats["pool_readmissions"] == 1
                assert stats["pool_epoch"] == pool.epoch

                coordinator_stats = client.service_stats()
                assert coordinator_stats["membership_epoch"] == pool.epoch
                assert coordinator_stats["endpoint_losses"] == 1
                assert coordinator_stats["endpoint_readmissions"] == 1
                assert coordinator_stats["shards_rebalanced"] >= 2
        finally:
            for server in servers.values():
                server.close(snapshot=False)
            shutil.rmtree(socket_dir, ignore_errors=True)

    def test_rebalance_epoch_filter_drops_stale_completions(self):
        """White-box: completions from a superseded route are dropped
        (never double-counted), accepted ones carry their epoch."""
        socket_dir = tempfile.mkdtemp(prefix="elastic-stale-")
        addresses, servers = federation(2, socket_dir)
        try:
            with ShardCoordinator(
                endpoints=addresses, task_timeout=60.0, probe_interval=None
            ) as client:
                pool = client.transport
                report = ShardReport(0, 99, 1, {})
                completion = (MSG_BATCH, 0, 99, [(0, 1.0)], report)

                # A completion for a batch routed to endpoint 0 arriving
                # from endpoint 1 is a pre-rebalance duplicate: dropped.
                pool._batch_routes[99] = (pool.epoch, 0)
                assert pool._admit(1, completion) is None
                assert pool.stale_completions == 1

                # From the recorded endpoint it is accepted exactly once,
                # stamped with its dispatch epoch ...
                accepted = pool._admit(0, completion)
                assert accepted is not None
                assert accepted[4].epoch == pool.epoch

                # ... and a replay of the same batch is dropped.
                assert pool._admit(0, completion) is None
                assert pool.stale_completions == 2

                # Non-batch traffic passes through untouched.
                assert pool._admit(1, ("stats", {})) == ("stats", {})
        finally:
            for server in servers.values():
                server.close(snapshot=False)
            shutil.rmtree(socket_dir, ignore_errors=True)

    def test_rebalance_membership_events_carry_epoch_and_moves(self):
        relations = [
            ModuleRelation.random(
                f"EV{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=120 + index
            )
            for index in range(4)
        ]
        requests = [request for r in relations for request in entry_requests(r)]
        victim = traffic_victim(requests, 2)
        socket_dir = tempfile.mkdtemp(prefix="elastic-events-")
        addresses, servers = federation(2, socket_dir)
        events = []
        try:
            with ShardCoordinator(
                endpoints=addresses,
                task_timeout=60.0,
                probe_interval=None,
                max_restarts=1,
            ) as client:
                pool = client.transport
                pool.add_membership_listener(events.append)
                client.gammas(requests)
                servers.pop(victim).close(snapshot=False)
                client.gammas(requests)
                servers[victim] = GammaServer(addresses[victim]).start()
                pool.probe_now(force=True, drain=True)
                kinds = [event[0] for event in events]
                assert kinds == ["lost", "readmitted"]
                lost, readmitted = events
                assert lost[1] == readmitted[1] == victim
                assert lost[2] == 1 and readmitted[2] == 2
                # Loss moved the victim's shard off; re-admission moved
                # it home.  Every move names (shard, old, new).
                assert all(old != new for _shard, old, new in lost[3])
                assert any(new == victim for _shard, _old, new in readmitted[3])
        finally:
            for server in servers.values():
                server.close(snapshot=False)
            shutil.rmtree(socket_dir, ignore_errors=True)
