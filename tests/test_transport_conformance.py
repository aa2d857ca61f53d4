"""Cross-transport conformance suite: one matrix, every Transport.

ISSUE 5 replaced the copy-pasted per-transport equivalence cases of
``test_transport.py`` with this single parametrized suite.  Every
:class:`~repro.service.transport.Transport` implementation -- in-process,
multiprocess pool, unix socket, TCP socket, and the federated connection
pool over 1, 2 and 3 endpoints -- must be indistinguishable from the
in-process oracle:

* **byte-identical results**: full kernel-entry payloads equal under
  pickle, for random relations (Hypothesis) and a fixed multi-structure
  workload that exercises multi-shard routing;
* **identical search behavior**: ``exact_secure_view`` returns the same
  view, cost, per-module gammas and ``evaluations`` count as the local
  solver, and its per-solve memo sends each distinct Gamma request over
  the wire exactly once;
* **identical recovery**: an injected crash (worker kill or severed
  connection, whichever the transport owns) mid-search recovers to the
  byte-identical result with ``worker_restarts >= 1`` and no
  double-counted evaluations;
* **federation-only contracts**: a Hypothesis property kills a random
  pool endpoint mid-search (the server itself, not just the
  connection) and still demands the exact secure view, and the fair
  server keeps a small tenant's dispatch latency bounded while another
  tenant floods it with pathological batches.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from service_workloads import entry_requests, search_requirements

from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import (
    WorkflowPrivacyRequirements,
    exact_secure_view,
)
from repro.service import (
    GammaServer,
    ShardCoordinator,
    generate_self_signed_cert,
    shard_of,
)

#: Shared token of the TLS conformance tenants (the matrix runs the
#: servers with authentication on, so the whole suite exercises the
#: authenticated hot path, not just a dedicated auth test).
TLS_TOKEN = "conformance-secret"

RELAXED = settings(
    max_examples=8,
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

#: Every Transport implementation the suite holds to the oracle.  The
#: ``tls`` kinds run the same servers behind server-side TLS plus the
#: token handshake: encryption and authentication must be byte-invisible
#: to every result.
ALL_KINDS = (
    "inprocess",
    "multiprocess",
    "unix",
    "tcp",
    "tls",
    "pooled1",
    "pooled2",
    "pooled3",
    "tls_pooled2",
)

#: The kinds owning something that can crash (a worker or a connection).
CRASHABLE_KINDS = tuple(kind for kind in ALL_KINDS if kind != "inprocess")

#: Workflow seeds of the search cell: four workflows whose solves differ
#: in node count (156-208 evaluations) and distinct requests (19-27).
SEARCH_SEEDS = (70, 72, 100, 110)


#: The deterministic work counters every transport must move identically.
WORK_COUNTERS = (
    "partition_hits",
    "partition_refinements",
    "grouping_passes",
    "entry_fused_passes",
    "kernel_hits",
)


def assert_search_equivalent(candidate, baseline):
    assert candidate.hidden_labels == baseline.hidden_labels
    assert candidate.cost == baseline.cost
    assert candidate.module_gammas == baseline.module_gammas
    assert candidate.evaluations == baseline.evaluations
    assert candidate.optimal


def record_service_requests(requirements) -> list[tuple]:
    """Log ``(module index, signature, visible_inputs, visible_outputs)``
    for every Gamma request the solver builds for the service, memo hits
    included."""
    seen: list[tuple] = []
    build = requirements.gamma_requests

    def gamma_requests(hidden_labels, indices):
        requests = build(hidden_labels, indices)
        seen.extend(
            (index, structure.signature, visible_inputs, visible_outputs)
            for index, (structure, visible_inputs, visible_outputs) in zip(
                indices, requests
            )
        )
        return requests

    requirements.gamma_requests = gamma_requests
    return seen


class TransportHarness:
    """One transport kind: its servers (if any) and coordinator factory."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.servers: list[GammaServer] = []
        self.socket_dir: str | None = None
        self.tls_ca: str | None = None
        if kind != "inprocess" and kind != "multiprocess":
            self.socket_dir = tempfile.mkdtemp(prefix=f"conform-{kind}-")
        if kind == "unix":
            self.servers = [
                GammaServer(
                    ("unix", os.path.join(self.socket_dir, "gamma.sock"))
                ).start()
            ]
        elif kind == "tcp":
            self.servers = [GammaServer(("tcp", "127.0.0.1", 0)).start()]
        elif kind.startswith("tls"):
            cert, key = generate_self_signed_cert(self.socket_dir)
            self.tls_ca = str(cert)
            count = 2 if kind == "tls_pooled2" else 1
            self.servers = [
                GammaServer(
                    ("tcp", "127.0.0.1", 0),
                    tls_cert=str(cert),
                    tls_key=str(key),
                    policy={"tenants": {"conformance": {"token": TLS_TOKEN}}},
                ).start()
                for _ in range(count)
            ]
        elif kind.startswith("pooled"):
            self.servers = [
                GammaServer(
                    ("unix", os.path.join(self.socket_dir, f"gamma-{index}.sock"))
                ).start()
                for index in range(int(kind[len("pooled") :]))
            ]
        #: Long-lived client shared by the equivalence tests (warm or
        #: cold must not change results, so sharing is part of the test).
        self.client = self.coordinator()

    def coordinator(self) -> ShardCoordinator:
        if self.kind == "inprocess":
            return ShardCoordinator(0)
        if self.kind == "multiprocess":
            return ShardCoordinator(2, task_timeout=60.0)
        if self.kind in ("unix", "tcp"):
            return ShardCoordinator(address=self.servers[0].address, task_timeout=60.0)
        if self.kind == "tls":
            _, host, port = self.servers[0].address
            return ShardCoordinator(
                address=("tls", host, port),
                task_timeout=60.0,
                tls_ca=self.tls_ca,
                auth_token=TLS_TOKEN,
            )
        if self.kind == "tls_pooled2":
            return ShardCoordinator(
                endpoints=[
                    f"tls://{server.address[1]}:{server.address[2]}"
                    for server in self.servers
                ],
                task_timeout=60.0,
                tls_ca=self.tls_ca,
                auth_token=TLS_TOKEN,
            )
        return ShardCoordinator(
            endpoints=[server.address for server in self.servers], task_timeout=60.0
        )

    def inject_crash_everywhere(self, coordinator: ShardCoordinator) -> None:
        """Crash every shard the transport owns (worker or connection)."""
        for shard_id in range(coordinator.transport.shard_count):
            coordinator.inject_crash(shard_id)

    def close(self) -> None:
        self.client.close()
        for server in self.servers:
            server.close()
        if self.socket_dir is not None:
            shutil.rmtree(self.socket_dir, ignore_errors=True)


@pytest.fixture(scope="module", params=ALL_KINDS)
def harness(request):
    built = TransportHarness(request.param)
    yield built
    built.close()


class TestConformanceMatrix:
    """The same assertions for every transport implementation."""

    @given(relation=RELATIONS)
    @RELAXED
    def test_conformance_entries_byte_identical_to_oracle(self, harness, relation):
        requests = entry_requests(relation)
        oracle = ShardCoordinator(0).evaluate(requests, want="entry")
        results = harness.client.evaluate(requests, want="entry")
        for mine, theirs in zip(oracle, results):
            assert pickle.dumps(
                (mine.gamma, mine.counts, mine.partition)
            ) == pickle.dumps((theirs.gamma, theirs.counts, theirs.partition))

    def test_conformance_multi_structure_workload_routes_correctly(self, harness):
        relations = [
            ModuleRelation.random(
                f"W{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=40 + index
            )
            for index in range(5)
        ]
        requests = [request for r in relations for request in entry_requests(r)]
        assert harness.client.gammas(requests) == ShardCoordinator(0).gammas(requests)

    def test_conformance_async_requests_collect_out_of_order(self, harness):
        relation = ModuleRelation.random(
            "A", n_inputs=2, n_outputs=2, domain_size=3, seed=55
        )
        requests = entry_requests(relation)
        oracle = ShardCoordinator(0).evaluate(requests, want="entry")
        tickets = [harness.client.submit(requests, want="entry") for _ in range(3)]
        for ticket in reversed(tickets):
            results = harness.client.collect(ticket)
            for mine, theirs in zip(oracle, results):
                assert (mine.gamma, mine.counts, mine.partition) == (
                    theirs.gamma,
                    theirs.counts,
                    theirs.partition,
                )

    @pytest.mark.parametrize("seed", SEARCH_SEEDS)
    def test_conformance_search_sends_each_distinct_request_once(self, harness, seed):
        baseline = exact_secure_view(search_requirements(seed))
        requirements = search_requirements(seed)
        seen = record_service_requests(requirements)
        before = harness.client.service_stats()["tasks"]
        result = exact_secure_view(requirements, service=harness.client)
        tasks = harness.client.service_stats()["tasks"] - before
        assert_search_equivalent(result, baseline)
        distinct = {request[1:] for request in seen}
        assert tasks == len(distinct)
        assert len(seen) > len(distinct), "the memo absorbed no repeat"


    def test_conformance_work_counters_match_oracle(self, harness):
        """On a structure the transport has not seen, every work counter
        moves exactly as much as the in-process oracle's."""
        client = harness.client
        shards = client.transport.shard_count
        fresh = ModuleRelation.random(
            "C", n_inputs=3, n_outputs=3, domain_size=2, seed=90
        )
        shard = shard_of(fresh.structure_signature.signature, shards)
        # Remote counters arrive with each shard's latest report, so make
        # sure the fresh structure's shard has reported before measuring.
        primer = next(
            relation
            for relation in (
                ModuleRelation.random(
                    "C", n_inputs=3, n_outputs=3, domain_size=2, seed=seed
                )
                for seed in range(91, 200)
            )
            if shard_of(relation.structure_signature.signature, shards) == shard
        )
        client.gammas(entry_requests(primer)[:1])
        oracle = ShardCoordinator(0)
        deltas = []
        for coordinator in (oracle, client):
            before = coordinator.kernel_stats()
            coordinator.evaluate(entry_requests(fresh), want="entry")
            coordinator.gammas(entry_requests(fresh)[::2])
            after = coordinator.kernel_stats()
            deltas.append(
                {key: after[key] - before.get(key, 0) for key in WORK_COUNTERS}
            )
        assert deltas[1] == deltas[0]
        assert deltas[0]["kernel_hits"] > 0


class TestConformanceMemo:
    """The per-solve Gamma memo is keyed on structure, not module."""

    def test_conformance_shared_signature_modules_share_memo_entries(self):
        # "A" and "B" are one table under different attribute names, so
        # one structure signature: whenever their visibilities coincide
        # (e.g. nothing hidden in either) they ask for the same Gamma.
        twins = WorkflowPrivacyRequirements()
        for module_id in ("A", "B"):
            twins.add(
                ModuleRelation.random(
                    module_id, n_inputs=2, n_outputs=2, domain_size=3, seed=9
                ),
                2,
            )
        signatures = {
            r.relation.structure_signature.signature for r in twins.requirements
        }
        assert len(signatures) == 1
        seen = record_service_requests(twins)
        coordinator = ShardCoordinator(0)
        result = exact_secure_view(twins, service=coordinator)
        assert_search_equivalent(result, exact_secure_view(twins))
        per_module = {(request[0],) + request[2:] for request in seen}
        distinct = {request[1:] for request in seen}
        assert coordinator.service_stats()["tasks"] == len(distinct)
        assert len(distinct) < len(per_module)


class TestConformanceRecovery:
    """Injected crash/connection loss recovers identically everywhere."""

    @pytest.fixture(scope="module", params=CRASHABLE_KINDS)
    def crashable(self, request):
        built = TransportHarness(request.param)
        yield built
        built.close()

    def test_conformance_midsearch_crash_recovers_to_identical_view(self, crashable):
        baseline = exact_secure_view(search_requirements())
        with crashable.coordinator() as coordinator:
            original_submit = coordinator.submit
            state = {"count": 0}

            def crashing_submit(requests, **kwargs):
                state["count"] += 1
                if state["count"] == 6:
                    crashable.inject_crash_everywhere(coordinator)
                return original_submit(requests, **kwargs)

            coordinator.submit = crashing_submit
            result = exact_secure_view(search_requirements(), service=coordinator)
            assert state["count"] >= 6, "the search finished before the crash"
            assert_search_equivalent(result, baseline)
            assert coordinator.worker_restarts >= 1

    def test_conformance_crash_between_requests_recovers(self, crashable):
        relation = ModuleRelation.random(
            "R", n_inputs=2, n_outputs=2, domain_size=3, seed=66
        )
        requests = entry_requests(relation)
        oracle = ShardCoordinator(0).gammas(requests)
        with crashable.coordinator() as coordinator:
            assert coordinator.gammas(requests) == oracle
            crashable.inject_crash_everywhere(coordinator)
            assert coordinator.gammas(requests) == oracle
            assert coordinator.worker_restarts >= 1


class TestConformanceFederation:
    """Pool-only contracts: endpoint loss and failover re-routing."""

    @given(
        seed=st.integers(min_value=0, max_value=500),
        victim=st.integers(min_value=0, max_value=2),
        kill_at=st.integers(min_value=1, max_value=8),
    )
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_conformance_pool_survives_random_endpoint_kill(
        self, seed, victim, kill_at
    ):
        baseline = exact_secure_view(search_requirements(seed))
        socket_dir = tempfile.mkdtemp(prefix="conform-kill-")
        servers = [
            GammaServer(
                ("unix", os.path.join(socket_dir, f"gamma-{index}.sock"))
            ).start()
            for index in range(3)
        ]
        try:
            with ShardCoordinator(
                endpoints=[server.address for server in servers],
                task_timeout=60.0,
            ) as client:
                original_submit = client.submit
                state = {"count": 0}

                def killing_submit(requests, **kwargs):
                    state["count"] += 1
                    if state["count"] == kill_at:
                        servers[victim].close()
                    return original_submit(requests, **kwargs)

                client.submit = killing_submit
                result = exact_secure_view(search_requirements(seed), service=client)
                assert state["count"] >= kill_at, "the search finished first"
                # The exact view survives the endpoint loss, and the
                # solver's evaluation count is untouched by retries --
                # re-dispatched batches are never double-counted.
                assert_search_equivalent(result, baseline)
        finally:
            for server in servers:
                server.close()
            shutil.rmtree(socket_dir, ignore_errors=True)

    def test_conformance_pool_reroutes_all_shards_off_lost_endpoint(self):
        socket_dir = tempfile.mkdtemp(prefix="conform-lost-")
        servers = [
            GammaServer(
                ("unix", os.path.join(socket_dir, f"gamma-{index}.sock"))
            ).start()
            for index in range(3)
        ]
        relations = [
            ModuleRelation.random(
                f"F{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=80 + index
            )
            for index in range(6)
        ]
        requests = [request for r in relations for request in entry_requests(r)]
        oracle = ShardCoordinator(0).gammas(requests)
        try:
            with ShardCoordinator(
                endpoints=[server.address for server in servers],
                task_timeout=60.0,
            ) as client:
                assert client.gammas(requests) == oracle
                servers[0].close()
                servers[2].close()
                assert client.gammas(requests) == oracle
                pool = client.transport
                assert set(pool.lost_endpoints) <= {0, 2}
                # Every logical shard now routes to the lone survivor.
                survivors = {
                    pool.endpoint_of(shard) for shard in range(pool.shard_count)
                }
                assert survivors == {1}
        finally:
            for server in servers:
                server.close()
            shutil.rmtree(socket_dir, ignore_errors=True)


class TestConformanceElasticity:
    """Kill -> heal -> re-admit: the elastic membership acceptance cell."""

    @pytest.mark.parametrize("security", ("plain", "tls"))
    def test_conformance_kill_heal_readmission_byte_identical(self, security):
        """An endpoint dies mid-search, heals, and is re-admitted.

        The full cycle must be invisible to the caller: every search
        returns the byte-identical exact secure view with the oracle's
        ``evaluations`` count (re-dispatched batches across the
        membership epoch are never double-counted), the background
        prober -- not the caller -- re-admits the healed endpoint, and
        the routing afterwards equals a fresh pool's over the same
        membership.  The ``tls`` variant runs the identical cycle with
        every hop encrypted and token-authenticated: failover, health
        probes and warm-kernel re-admission handoff must all traverse
        the TLS handshake.
        """
        baseline = exact_secure_view(search_requirements(70))
        # The victim must own live traffic or its loss is never
        # noticed (failure detection is lazy, driven by dispatch).
        signatures = [
            requirement.relation.structure_signature.signature
            for requirement in search_requirements(70).requirements
        ]
        owned: dict[int, int] = {}
        for signature in signatures:
            owned[shard_of(signature, 3)] = owned.get(shard_of(signature, 3), 0) + 1
        victim = max(owned, key=lambda index: owned[index])
        socket_dir = tempfile.mkdtemp(prefix="conform-elastic-")
        coordinator_kwargs: dict = {}
        if security == "tls":
            cert, key = generate_self_signed_cert(socket_dir)
            server_kwargs = {
                "tls_cert": str(cert),
                "tls_key": str(key),
                "policy": {"tenants": {"conformance": {"token": TLS_TOKEN}}},
            }
            coordinator_kwargs = {"tls_ca": str(cert), "auth_token": TLS_TOKEN}
            # Bind ephemeral ports once, then pin them: the healed
            # server must come back on the address the pool probes.
            servers = {
                index: GammaServer(("tcp", "127.0.0.1", 0), **server_kwargs).start()
                for index in range(3)
            }
            bind_addresses = {
                index: ("tcp",) + server.address[1:]
                for index, server in servers.items()
            }
            addresses = [
                f"tls://{server.address[1]}:{server.address[2]}"
                for _, server in sorted(servers.items())
            ]

            def revive(index: int) -> GammaServer:
                return GammaServer(bind_addresses[index], **server_kwargs).start()

        else:
            addresses = [
                ("unix", os.path.join(socket_dir, f"gamma-{index}.sock"))
                for index in range(3)
            ]
            servers = {
                index: GammaServer(address).start()
                for index, address in enumerate(addresses)
            }

            def revive(index: int) -> GammaServer:
                return GammaServer(addresses[index]).start()

        try:
            with ShardCoordinator(
                endpoints=addresses,
                task_timeout=60.0,
                probe_interval=0.05,
                max_restarts=1,
                **coordinator_kwargs,
            ) as client:
                pool = client.transport
                identity = pool.routing

                # Phase 1: kill the victim mid-search; the search must
                # still return the exact view with the exact count.
                original_submit = client.submit
                state = {"count": 0}

                def killing_submit(requests, **kwargs):
                    state["count"] += 1
                    if state["count"] == 2:
                        servers.pop(victim).close(snapshot=False)
                    return original_submit(requests, **kwargs)

                client.submit = killing_submit
                result = exact_secure_view(search_requirements(70), service=client)
                client.submit = original_submit
                assert state["count"] >= 2, "the search finished before the kill"
                assert_search_equivalent(result, baseline)
                assert victim in pool.lost_endpoints
                assert pool.failovers >= 1
                epoch_after_loss = pool.epoch

                # Phase 2: heal the server; the background prober (not
                # the caller) re-admits it and hands its shards back.
                servers[victim] = revive(victim)
                deadline = time.monotonic() + 30.0
                while pool.lost_endpoints and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert pool.lost_endpoints == ()
                assert pool.readmissions >= 1
                assert pool.epoch > epoch_after_loss

                # Phase 3: post-re-admission the pool is indistinguishable
                # from a fresh pool over the same membership.
                result = exact_secure_view(search_requirements(70), service=client)
                assert_search_equivalent(result, baseline)
                assert pool.stale_completions == 0
                with ShardCoordinator(
                    endpoints=addresses,
                    task_timeout=60.0,
                    probe_interval=None,
                    **coordinator_kwargs,
                ) as fresh:
                    assert pool.routing == fresh.transport.routing == identity
        finally:
            for server in servers.values():
                server.close()
            shutil.rmtree(socket_dir, ignore_errors=True)


class TestConformanceFairness:
    """The fair scheduler bounds a small tenant's latency under flooding."""

    def _big_requests(self, index: int):
        relation = ModuleRelation.random(
            f"BIG{index}", n_inputs=3, n_outputs=3, domain_size=4, seed=300 + index
        )
        return entry_requests(relation)

    def test_conformance_fairness_small_tenant_p95_bounded(self):
        socket_dir = tempfile.mkdtemp(prefix="conform-fair-")
        flood = 8
        try:
            with GammaServer(
                ("unix", os.path.join(socket_dir, "gamma.sock"))
            ) as server:
                small_relation = ModuleRelation.random(
                    "SMALL", n_inputs=1, n_outputs=1, domain_size=2, seed=301
                )
                small_requests = entry_requests(small_relation)
                with ShardCoordinator(
                    address=server.address, task_timeout=120.0
                ) as bulk, ShardCoordinator(
                    address=server.address, task_timeout=120.0
                ) as nimble:
                    # One pathological batch solo: the fairness yardstick
                    # (cold kernels every time -- each flood batch is a
                    # structurally distinct relation).
                    started = time.perf_counter()
                    bulk.evaluate(self._big_requests(0))
                    t_large_ms = (time.perf_counter() - started) * 1000.0
                    nimble.gammas(small_requests)  # warm the small kernel
                    tickets = [
                        bulk.submit(self._big_requests(1 + index))
                        for index in range(flood)
                    ]
                    latencies = []
                    for _ in range(10):
                        nimble.gammas(small_requests)
                        report = nimble.shard_reports()[0]
                        latencies.append(report.dispatch_latency_ms)
                        assert report.queue_wait_ms >= 0.0
                    for ticket in tickets:
                        bulk.collect(ticket)
                    latencies.sort()
                    p95 = latencies[int(0.95 * (len(latencies) - 1))]
                    # Round-robin means the small tenant waits for at most
                    # a batch or two of the flood, never its whole backlog
                    # (the old FIFO-behind-one-lock server made it wait
                    # ~flood * t_large).  The bound is deliberately
                    # flood-independent -- a constant multiple of one
                    # flood batch -- so growing the flood tightens the
                    # test instead of weakening it; absolute floor for
                    # timer noise on loaded CI.
                    bound = max(3.5 * t_large_ms, 30.0)
                    assert p95 <= bound, (
                        f"small tenant p95 {p95:.1f} ms breaches {bound:.1f} ms "
                        f"(one flood batch ~{t_large_ms:.1f} ms)"
                    )
                    stats = nimble.transport.fetch_stats()
                    assert stats["server_tenants"] >= 2
                    assert "queue_wait_p95_ms" in stats
        finally:
            shutil.rmtree(socket_dir, ignore_errors=True)
