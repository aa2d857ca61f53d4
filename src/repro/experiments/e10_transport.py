"""Experiment E10 -- transports for secure-view search.

PR 3 measured the sharded service on flat Gamma sweeps (E9); this
experiment runs the paper's *secure-view search* -- a deep best-first
branch-and-bound -- against every transport behind the
:class:`~repro.service.transport.Transport` interface: the in-process
oracle (``workers=0``), the multiprocess worker pool, and a standalone
:class:`~repro.service.server.GammaServer` over unix and TCP sockets.
Results are byte-identical by contract: every row is checked against
the local-kernel oracle.

Each row reports wall time, the solver's evaluation count (identical
across all cells), the coordinator's dispatched ``batches`` (the
solver's per-solve Gamma memo sends each distinct request once, so
this stays a few dozen however many nodes the search visits),
dispatch-latency percentiles (where the time goes) and retry
counters.  The expected shape: ``matches_oracle`` is True everywhere,
``batches`` is about the same on every transport, and socket
transports pay more per round trip than in-process.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.reporting import ResultTable
from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import (
    WorkflowPrivacyRequirements,
    exact_secure_view,
)
from repro.service import GammaServer, ShardCoordinator


@dataclass(frozen=True)
class E10Config:
    """Parameters of experiment E10.

    The workload is a workflow of ``modules`` distinct private modules
    (2-in/2-out, domain 3) with escalating Gamma targets -- enough
    frontier depth that the search visits far more nodes than there are
    distinct Gamma requests.
    """

    transports: tuple[str, ...] = ("inprocess", "multiprocess", "unix", "tcp")
    modules: int = 3
    workers: int = 2
    n_inputs: int = 2
    n_outputs: int = 2
    domain_size: int = 3
    seed: int = 83


def build_requirements(config: E10Config) -> WorkflowPrivacyRequirements:
    """A fresh requirements object (fresh local kernels) for one cell."""
    requirements = WorkflowPrivacyRequirements()
    for index in range(config.modules):
        relation = ModuleRelation.random(
            f"E10M{index}",
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=config.seed + index,
        )
        requirements.add(relation, 2 + index % 2)
    return requirements


def _coordinator_for(
    transport: str, config: E10Config, server: GammaServer | None, workers: int
) -> ShardCoordinator:
    if transport == "inprocess":
        return ShardCoordinator(0)
    if transport == "multiprocess":
        return ShardCoordinator(max(1, workers))
    if transport in ("unix", "tcp"):
        assert server is not None
        return ShardCoordinator(address=server.address)
    raise ValueError(f"unknown E10 transport {transport!r}")


def run(
    config: E10Config | None = None,
    *,
    workers: int | None = None,
) -> ResultTable:
    """Run E10: one row per transport.

    ``workers`` (the CLI's ``--workers``) overrides the worker count of
    the multiprocess transport cell.  Each socket transport gets its
    own fresh server, so every cell solves against cold kernels.
    """
    config = config or E10Config()
    worker_count = config.workers if workers is None else max(1, workers)
    oracle = exact_secure_view(build_requirements(config))
    rows: ResultTable = []
    socket_dir = Path(tempfile.mkdtemp(prefix="e10-"))
    servers: dict[str, GammaServer] = {}
    try:
        for transport in config.transports:
            if transport == "unix" and transport not in servers:
                servers[transport] = GammaServer(
                    ("unix", str(socket_dir / "e10.sock"))
                ).start()
            if transport == "tcp" and transport not in servers:
                servers[transport] = GammaServer(("tcp", "127.0.0.1", 0)).start()
            requirements = build_requirements(config)
            with _coordinator_for(
                transport, config, servers.get(transport), worker_count
            ) as coordinator:
                started = time.perf_counter()
                result = exact_secure_view(requirements, service=coordinator)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                stats = coordinator.service_stats()
            rows.append(
                {
                    "transport": transport,
                    "time_ms": round(elapsed_ms, 3),
                    "evaluations": result.evaluations,
                    "cost": result.cost,
                    "batches": stats["batches"],
                    "retried": stats["retried_batches"],
                    "p50_ms": stats.get("p50_ms", 0.0),
                    "p99_ms": stats.get("p99_ms", 0.0),
                    "matches_oracle": (
                        result.hidden_labels == oracle.hidden_labels
                        and result.cost == oracle.cost
                        and result.evaluations == oracle.evaluations
                    ),
                }
            )
    finally:
        for server in servers.values():
            server.close()
        import shutil

        shutil.rmtree(socket_dir, ignore_errors=True)
    return rows


def headline(rows: ResultTable) -> dict[str, object]:
    """Aggregate numbers quoted in EXPERIMENTS.md."""
    return {
        "all_match_oracle": all(bool(row["matches_oracle"]) for row in rows),
        "transports": len({row["transport"] for row in rows}),
    }


def main() -> None:  # pragma: no cover - convenience entry point
    from repro.experiments.reporting import print_table

    rows = run()
    print_table(rows, title="E10 -- secure-view search over every transport")
    print(headline(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
