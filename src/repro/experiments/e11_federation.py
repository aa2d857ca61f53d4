"""Experiment E11 -- federated serving: servers x tenants.

E10 established that one :class:`~repro.service.server.GammaServer`
serves the secure-view search byte-identically over any transport; this
experiment scales the *server side* out.  A federation of N independent
Gamma servers is fronted by the signature-routed
:class:`~repro.service.pool.PooledTransport` (``ShardCoordinator(
endpoints=[...])``), so every canonical structure lives on exactly one
server's warm kernel, and T tenants run the paper's secure-view search
against the same federation in turn.

The sweep crosses federation size x tenant arrival order and reports,
per cell, wall time, the solver's evaluation count, the batch/routing
counters, and the servers' fairness gauges (queue-wait percentiles
merged across the federation).  Every cell is oracle-checked against a
local :class:`~repro.service.transport.InProcessTransport` solve --
federation must never change the view, its cost, or the number of
Gamma evaluations.  The expected shape on shared hardware: later
tenants (``tenant`` > 1) are served from kernels the first tenant
warmed (``warm`` cells speed up), and ``matches_oracle`` is True
everywhere.  Wall-clock *scaling* with federation size needs separate
server processes and spare cores -- that is ``bench_service``'s
federation benchmark, not this correctness sweep.

With ``--endpoints host:port,host:port`` (the CLI) the sweep runs
against an already-running federation instead of spawning local
servers, turning E11 into a deployment smoke test.

**Elastic cells** (``config.elastic`` or the CLI's
``--probe-interval``): a kill -> recover -> re-admit cycle over the
largest federation.  One server is killed mid-workload (its shards
fail over under the bounded-load ring), restarted cold, re-admitted by
the pool's health prober, and its shards migrate back with warm-kernel
handoff.  Every phase is oracle-checked, and the re-admitted sweep
must repeat at most 10% of the cold sweep's partition work
(``handoff_skip_ratio`` >= 0.9 -- the elastic analogue of
``bench_service``'s warm-start guard).
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import ServiceError, ServiceOverloadError
from repro.experiments.reporting import ResultTable
from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import (
    WorkflowPrivacyRequirements,
    exact_secure_view,
)
from repro.service import GammaServer, ShardCoordinator, shard_of


@dataclass(frozen=True)
class E11Config:
    """Parameters of experiment E11.

    ``servers`` is the federation-size sweep; ``tenants`` how many
    tenants run the workload, in order, against each federation.  The
    workload matches E10's (escalating Gamma targets over 2-in/2-out
    domain-3 modules) so the two experiments' evaluation counts are
    directly comparable.
    """

    servers: tuple[int, ...] = (1, 2, 3)
    tenants: int = 2
    modules: int = 3
    n_inputs: int = 2
    n_outputs: int = 2
    domain_size: int = 3
    seed: int = 97
    #: Append the kill -> recover -> re-admit sweep (also enabled by
    #: passing ``probe_interval`` to :func:`run`, the CLI's
    #: ``--probe-interval``).
    elastic: bool = False
    #: Append the production-tenancy cells: deficit-weighted fair-share
    #: throughput under saturation and overload shedding under a
    #: flooding tenant (:func:`tenancy_run`).
    tenancy: bool = True
    #: Minimum weighted-cell dispatches before the throughput ratio is
    #: read (both tenants saturated the whole time by construction).
    tenancy_batches: int = 120
    #: Wall-clock cap on each tenancy cell, seconds.
    tenancy_timeout: float = 20.0


def build_requirements(config: E11Config) -> WorkflowPrivacyRequirements:
    """A fresh requirements object (fresh local kernels) for one cell."""
    requirements = WorkflowPrivacyRequirements()
    for index in range(config.modules):
        relation = ModuleRelation.random(
            f"E11M{index}",
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=config.seed + index,
        )
        requirements.add(relation, 2 + index % 2)
    return requirements


def run(
    config: E11Config | None = None,
    *,
    endpoints: Sequence[str] | None = None,
    probe_interval: float | None = None,
    rebalance: bool | None = None,
) -> ResultTable:
    """Run E11: one row per (federation size, tenant).

    ``endpoints`` (the CLI's ``--endpoints``) skips spawning local
    servers and sweeps the tenants against the given federation
    instead; the servers column then reports its size.  Passing
    ``probe_interval`` (the CLI's ``--probe-interval``) additionally
    runs the elastic kill -> recover -> re-admit cells (local servers
    only -- a remote federation is not ours to kill).
    """
    config = config or E11Config()
    oracle = exact_secure_view(build_requirements(config))
    rows: ResultTable = []
    socket_dir = Path(tempfile.mkdtemp(prefix="e11-"))
    try:
        for n_servers in ([len(endpoints)] if endpoints else config.servers):
            servers: list[GammaServer] = []
            if endpoints:
                addresses: list = list(endpoints)
            else:
                for index in range(n_servers):
                    servers.append(
                        GammaServer(
                            ("unix", str(socket_dir / f"e11-{n_servers}-{index}.sock"))
                        ).start()
                    )
                addresses = [server.address for server in servers]
            try:
                for tenant in range(1, config.tenants + 1):
                    requirements = build_requirements(config)
                    with ShardCoordinator(
                        endpoints=addresses, task_timeout=120.0
                    ) as client:
                        started = time.perf_counter()
                        result = exact_secure_view(requirements, service=client)
                        elapsed_ms = (time.perf_counter() - started) * 1000.0
                        stats = client.service_stats()
                        fed_stats = client.transport.fetch_stats()
                    rows.append(
                        {
                            "servers": n_servers,
                            "tenant": tenant,
                            "time_ms": round(elapsed_ms, 3),
                            "evaluations": result.evaluations,
                            "cost": result.cost,
                            "batches": stats["batches"],
                            "retried": stats["retried_batches"],
                            "p50_ms": stats.get("p50_ms", 0.0),
                            "queue_p95_ms": fed_stats.get("queue_wait_p95_ms", 0),
                            "matches_oracle": (
                                result.hidden_labels == oracle.hidden_labels
                                and result.cost == oracle.cost
                                and result.evaluations == oracle.evaluations
                            ),
                        }
                    )
            finally:
                for server in servers:
                    server.close()
        if (config.elastic or probe_interval is not None) and not endpoints:
            rows.extend(
                elastic_run(
                    config,
                    probe_interval=probe_interval or 0.05,
                    rebalance=True if rebalance is None else rebalance,
                )
            )
        if config.tenancy and not endpoints:
            rows.extend(tenancy_run(config))
    finally:
        import shutil

        shutil.rmtree(socket_dir, ignore_errors=True)
    return rows


def _cold_work(stats: dict) -> int:
    """The cold-start work in one federation-wide stats probe.

    Mirrors ``bench_service``'s warm-start guard: partition refinements
    and grouping passes only happen when a kernel computes an entry it
    did not already hold.
    """
    return int(stats.get("partition_refinements", 0)) + int(
        stats.get("grouping_passes", 0)
    )


def elastic_run(
    config: E11Config | None = None,
    *,
    probe_interval: float = 0.05,
    rebalance: bool = True,
) -> ResultTable:
    """The kill -> recover -> re-admit sweep: one row per phase.

    Three phases against one persistent client over the largest
    federation of ``config.servers``:

    * ``cold`` -- fresh federation, baseline cold partition work;
    * ``failover`` -- the busiest endpoint is killed; its shards fail
      over under the bounded-load ring and the search still matches the
      oracle;
    * ``readmit`` -- the server is restarted cold, the health prober
      re-admits it, its shards migrate home with warm-kernel handoff,
      and the sweep repeats at most 10% of the cold phase's partition
      work (``handoff_skip_ratio`` >= 0.9, asserted).
    """
    config = config or E11Config()
    n_servers = max(max(config.servers), 2)
    requirements = build_requirements(config)
    oracle = exact_secure_view(build_requirements(config))
    signatures = [
        requirement.relation.structure_signature.signature
        for requirement in requirements.requirements
    ]
    # The victim must actually serve traffic or there is nothing to
    # fail over, re-admit, or hand off.
    by_endpoint: dict[int, int] = {}
    for signature in signatures:
        by_endpoint[shard_of(signature, n_servers)] = (
            by_endpoint.get(shard_of(signature, n_servers), 0) + 1
        )
    victim = max(by_endpoint, key=lambda index: by_endpoint[index])
    socket_dir = Path(tempfile.mkdtemp(prefix="e11-elastic-"))
    rows: ResultTable = []
    servers: dict[int, GammaServer] = {}
    try:
        addresses = [
            ("unix", str(socket_dir / f"e11-elastic-{index}.sock"))
            for index in range(n_servers)
        ]
        for index, address in enumerate(addresses):
            servers[index] = GammaServer(address).start()
        with ShardCoordinator(
            endpoints=addresses,
            task_timeout=120.0,
            probe_interval=probe_interval,
            rebalance=rebalance,
            max_restarts=1,
        ) as client:
            pool = client.transport

            def phase(name: str, **extra: object) -> dict:
                before = _cold_work(pool.fetch_stats())
                started = time.perf_counter()
                result = exact_secure_view(build_requirements(config), service=client)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                cold = _cold_work(pool.fetch_stats()) - before
                row = {
                    "servers": n_servers,
                    "phase": name,
                    "time_ms": round(elapsed_ms, 3),
                    "evaluations": result.evaluations,
                    "cold_work": cold,
                    "failovers": pool.failovers,
                    "readmissions": pool.readmissions,
                    "handoffs": pool.handoffs,
                    "handoff_entries": pool.handoff_entries,
                    "stale_completions": pool.stale_completions,
                    "epoch": pool.epoch,
                    "matches_oracle": (
                        result.hidden_labels == oracle.hidden_labels
                        and result.cost == oracle.cost
                        and result.evaluations == oracle.evaluations
                    ),
                    **extra,
                }
                rows.append(row)
                return row

            cold_row = phase("cold")
            servers.pop(victim).close(snapshot=False)
            phase("failover")
            if victim not in pool.lost_endpoints:
                raise ServiceError(
                    f"victim endpoint {victim} was not marked lost"
                )
            servers[victim] = GammaServer(addresses[victim]).start()
            deadline = time.monotonic() + 30.0
            while pool.lost_endpoints and time.monotonic() < deadline:
                time.sleep(probe_interval)
            if pool.lost_endpoints:
                raise ServiceError(
                    f"prober did not re-admit endpoint {victim} in time"
                )
            readmit_row = phase("readmit")
            baseline = max(int(cold_row["cold_work"]), 1)
            skip_ratio = 1.0 - int(readmit_row["cold_work"]) / baseline
            readmit_row["handoff_skip_ratio"] = round(skip_ratio, 4)
            if rebalance:
                # The elastic analogue of bench_service's warm-start
                # guard: re-admission must not repeat cold work.
                assert pool.readmissions >= 1, "prober never re-admitted"
                assert pool.handoff_entries > 0, "handoff moved no entries"
                assert skip_ratio >= 0.9, (
                    f"warm handoff skipped only {skip_ratio:.0%} of cold "
                    f"work (cold={cold_row['cold_work']}, "
                    f"readmit={readmit_row['cold_work']})"
                )
    finally:
        for server in servers.values():
            server.close(snapshot=False)
        import shutil

        shutil.rmtree(socket_dir, ignore_errors=True)
    return rows


def _tenant_relations(prefix: str, config: E11Config, count: int, seed: int):
    """``count`` pre-canonicalized fresh structures for one tenant.

    Built (and signature-canonicalized) *before* any clock starts, so
    the saturation loops spend their window submitting, not generating;
    fresh structures per batch keep the server evaluating cold instead
    of serving warm-cache hits faster than a client can submit.
    """
    relations = []
    for index in range(count):
        relation = ModuleRelation.random(
            f"{prefix}{index}",
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=seed + index,
        )
        relation.structure_signature.signature  # canonicalize eagerly
        relations.append(relation)
    return relations


def _visibility_requests(relation) -> list:
    """One request per visibility pair of ``relation`` (E10's workload)."""
    structure = relation.structure_signature
    pairs = []
    for k in range(len(relation.inputs) + 1):
        for vi in itertools.combinations(range(len(relation.inputs)), k):
            for j in range(len(relation.outputs) + 1):
                for vo in itertools.combinations(range(len(relation.outputs)), j):
                    pairs.append((structure, vi, vo))
    return pairs


def tenancy_run(config: E11Config | None = None) -> ResultTable:
    """The production-tenancy cells: weighted fair share and overload.

    * ``weighted`` -- two tenants saturate one server through
      token-authenticated connections; ``gold`` carries policy weight 4,
      ``bronze`` weight 1.  Each keeps a deep window of batches in
      flight the whole time, so the deficit scheduler alone decides the
      interleave; the cell reports the dispatched-batch ratio, which
      the deficit scheduler should hold near the 4.0 weight ratio
      (headline bar: >= 3).
    * ``overload`` -- a ``flood`` tenant with a 2-deep queue quota
      pipelines far more than its share while a ``steady`` tenant runs
      a polite submit/collect loop.  The flood must be shed with
      explicit :class:`~repro.errors.ServiceOverloadError` replies, and
      the steady tenant's p95 queue wait must stay within 2x its
      unloaded baseline (floored at 5 ms -- single-core wakeup jitter
      sits well under that, so the floor only absorbs timer noise, not
      real starvation).
    """
    config = config or E11Config()
    policy = {
        "tenants": {
            "gold": {"token": "e11-gold", "weight": 4.0},
            "bronze": {"token": "e11-bronze", "weight": 1.0},
            "steady": {"token": "e11-steady", "weight": 1.0},
            "flood": {"token": "e11-flood", "weight": 1.0, "max_queue_depth": 2},
        }
    }
    rows: ResultTable = []
    with GammaServer(("tcp", "127.0.0.1", 0), policy=policy) as server:
        _, host, port = server.address
        address = f"{host}:{port}"
        deadline = time.monotonic() + config.tenancy_timeout

        # -- weighted cell: both tenants saturated, read the interleave --
        relations_needed = config.tenancy_batches * 4
        workloads = {
            "gold": _tenant_relations("E11G", config, relations_needed, 10_000),
            "bronze": _tenant_relations("E11B", config, relations_needed, 20_000),
        }
        stop = threading.Event()

        def saturate(name: str) -> None:
            batches = (_visibility_requests(r) for r in workloads[name])
            with ShardCoordinator(
                endpoints=[address], auth_token=f"e11-{name}", task_timeout=60.0
            ) as client:
                window: list[int] = []
                try:
                    for batch in batches:
                        if stop.is_set():
                            break
                        window.append(client.submit(batch, want="entry"))
                        if len(window) >= 8:
                            client.collect(window.pop(0))
                    for request_id in window:
                        client.collect(request_id)
                except ServiceError:
                    pass  # server closing under a drain is fine

        threads = [
            threading.Thread(target=saturate, args=(name,), daemon=True)
            for name in workloads
        ]
        for thread in threads:
            thread.start()
        # Read the gauges while both windows are still full: stopping
        # first would let the drain skew the interleave.
        while time.monotonic() < deadline:
            gauges = server.stats()
            dispatched = {
                name: int(gauges.get(f"tenant.{name}.dispatched", 0))
                for name in workloads
            }
            if sum(dispatched.values()) >= config.tenancy_batches:
                break
            time.sleep(0.02)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        ratio = dispatched["gold"] / max(dispatched["bronze"], 1)
        rows.append(
            {
                "cell": "weighted",
                "gold_weight": 4.0,
                "bronze_weight": 1.0,
                "gold_batches": dispatched["gold"],
                "bronze_batches": dispatched["bronze"],
                "throughput_ratio": round(ratio, 2),
            }
        )

        # -- overload cell: unloaded baseline first, then the flood --
        steady_relation = ModuleRelation.random(
            "E11S",
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=30_000,
        )
        steady_batch = _visibility_requests(steady_relation)

        def steady_loop(rounds: int, halt: threading.Event | None = None) -> float:
            """Polite submit/collect rounds; returns the connection's p95.

            A fresh connection per phase keeps the per-tenant wait
            window from mixing unloaded and flooded samples.
            """
            with ShardCoordinator(
                endpoints=[address], auth_token="e11-steady", task_timeout=60.0
            ) as client:
                for _ in range(rounds):
                    if halt is not None and halt.is_set():
                        break
                    client.evaluate(steady_batch)
                p95 = server.stats().get("tenant.steady.queue_wait_p95_ms", 0.0)
            return float(p95)

        unloaded_p95 = steady_loop(40)

        flood_relation = ModuleRelation.random(
            "E11F",
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=40_000,
        )
        flood_batch = _visibility_requests(flood_relation)
        flood_overloads = 0
        flood_retry_hint_ms = 0.0
        flood_done = threading.Event()

        def flood() -> None:
            nonlocal flood_overloads, flood_retry_hint_ms
            with ShardCoordinator(
                endpoints=[address], auth_token="e11-flood", task_timeout=60.0
            ) as client:
                window = [client.submit(flood_batch) for _ in range(16)]
                while time.monotonic() < deadline:
                    try:
                        client.collect(window.pop(0))
                    except ServiceOverloadError as exc:
                        flood_overloads += 1
                        flood_retry_hint_ms = max(
                            flood_retry_hint_ms, exc.retry_after_ms
                        )
                        if flood_overloads >= 5:
                            break
                    window.append(client.submit(flood_batch))
                for request_id in window:
                    try:
                        client.collect(request_id)
                    except ServiceOverloadError:
                        flood_overloads += 1
            flood_done.set()

        flood_thread = threading.Thread(target=flood, daemon=True)
        flood_thread.start()
        flooded_p95 = steady_loop(2000, halt=flood_done)
        flood_thread.join(timeout=30.0)
        slo_limit = 2.0 * max(unloaded_p95, 5.0)
        rows.append(
            {
                "cell": "overload",
                "flood_overloads": flood_overloads,
                "retry_after_hint_ms": round(flood_retry_hint_ms, 1),
                "steady_p95_unloaded_ms": round(unloaded_p95, 3),
                "steady_p95_flooded_ms": round(flooded_p95, 3),
                "steady_slo_ok": flooded_p95 <= slo_limit,
            }
        )
    return rows


def headline(rows: ResultTable) -> dict[str, object]:
    """Aggregate numbers quoted in EXPERIMENTS.md.

    ``best_warm_tenant_speedup`` compares tenant 1 (cold federation)
    with the slowest later tenant per federation size -- the
    multi-tenant warm-kernel effect the shared service exists for.
    Elastic cells (``phase`` rows) contribute their gauges instead:
    the re-admission count and the warm-handoff skip ratio.  Tenancy
    cells (``cell`` rows) contribute the fairness-SLO numbers: the
    weighted throughput ratio (bar: >= 3 at a 4:1 weight ratio), the
    flood's overload count (bar: >= 1), and whether the steady
    tenant's p95 queue wait held within 2x its unloaded baseline.
    """
    by_servers: dict[int, dict[int, float]] = {}
    elastic_rows = [row for row in rows if "phase" in row]
    tenancy_rows = {row["cell"]: row for row in rows if "cell" in row}
    for row in rows:
        if "phase" in row or "cell" in row:
            continue
        by_servers.setdefault(int(row["servers"]), {})[int(row["tenant"])] = float(
            row["time_ms"]
        )
    best = 0.0
    for times in by_servers.values():
        cold = times.get(1)
        warm = [elapsed for tenant, elapsed in times.items() if tenant > 1]
        if cold and warm and max(warm) > 0:
            best = max(best, cold / max(warm))
    summary: dict[str, object] = {
        "all_match_oracle": all(
            bool(row["matches_oracle"]) for row in rows if "matches_oracle" in row
        ),
        "best_warm_tenant_speedup": round(best, 2),
        "federations": len(by_servers),
    }
    if elastic_rows:
        last = elastic_rows[-1]
        summary["readmissions"] = int(last.get("readmissions", 0))
        summary["handoff_skip_ratio"] = float(last.get("handoff_skip_ratio", 0.0))
    if "weighted" in tenancy_rows:
        summary["weighted_throughput_ratio"] = float(
            tenancy_rows["weighted"]["throughput_ratio"]
        )
    if "overload" in tenancy_rows:
        overload = tenancy_rows["overload"]
        summary["flood_overloads"] = int(overload["flood_overloads"])
        summary["fairness_slo_ok"] = bool(overload["steady_slo_ok"])
    return summary


def main() -> None:  # pragma: no cover - convenience entry point
    from repro.experiments.reporting import print_table

    rows = run()
    print_table(rows, title="E11 -- federated serving: servers x tenants")
    print(headline(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
