"""The three workloads: inputs from the seed, oracles, measured units.

Every workload drives the real client stack in this process against a
``GammaServer`` in a child process.  Inputs come only from ``--seed``;
each unit's oracle is computed outside its timed region, and a
mismatch fails the run.  Unit counts are fixed for a given
``--seconds`` (``units = RATE x seconds``), so the tail percentile is
the same on every commit; the rates are sized so that one run measures
about ``--seconds`` on a 2-core host.
"""

from __future__ import annotations

import itertools
import random
import secrets
import threading
import time

from perfbench import harness


def sweep_requests(structure) -> list[tuple]:
    """One request per (visible inputs, visible outputs) pair: a full
    visibility sweep, 2^(k+m) requests for k inputs and m outputs."""
    n_inputs = len(structure.input_domain_sizes)
    n_outputs = len(structure.output_domain_sizes)
    return [
        (structure, visible_inputs, visible_outputs)
        for k in range(n_inputs + 1)
        for visible_inputs in itertools.combinations(range(n_inputs), k)
        for j in range(n_outputs + 1)
        for visible_outputs in itertools.combinations(range(n_outputs), j)
    ]


def scaled_structure(rows: int, seed: int):
    """A 5-in/2-out relation over domain 6 with 2% output noise."""
    from repro.experiments.workloads import scaled_structure

    return scaled_structure(
        rows=rows, n_inputs=5, n_outputs=2, domain_size=6, seed=seed, noise=0.02
    )


def local_gammas(requests: list[tuple]) -> tuple[list[int], float]:
    """The oracle: Gammas on an in-process kernel, and its time in ms."""
    from repro.service import ShardCoordinator

    with ShardCoordinator(0) as coordinator:
        started = time.perf_counter()
        gammas = coordinator.gammas(requests)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
    return gammas, elapsed_ms


class Outcome:
    """What one measured phase produced."""

    def __init__(self) -> None:
        #: Foreground unit latencies in ms; ``None`` marks a failed unit.
        self.latencies_ms: list[float | None] = []
        self.failed = 0
        self.mismatches: list[str] = []
        self.wall_s = 0.0
        self.bulk_units = 0
        self.bulk_failed = 0
        self.floor_ms: list[float] = []
        #: Client CPU time spent inside timed units (oracles excluded).
        self.cpu_ms = 0.0
        #: ``(start, end)`` of every timed unit on ``time.monotonic_ns``,
        #: so traced client spans can be told from oracle work.
        self.unit_windows: list[tuple[int, int]] = []

    def record(self, started: float, error: Exception | None) -> None:
        elapsed = time.perf_counter() - started
        ended_ns = time.monotonic_ns()
        self.unit_windows.append((ended_ns - int(elapsed * 1e9), ended_ns))
        if error is None:
            self.latencies_ms.append(elapsed * 1000.0)
        else:
            self.latencies_ms.append(None)
            self.failed += 1


def _service_errors() -> tuple[type, ...]:
    from repro.errors import ServiceError, ServiceOverloadError

    return (ServiceError, ServiceOverloadError)


# ---------------------------------------------------------------------- #
# solve_tcp
# ---------------------------------------------------------------------- #
class SolveTcp:
    """Sequential exact secure-view solves over plaintext TCP.

    E10-shaped workflows (2-in/2-out modules over domain 3, targets 2
    and 3 alternating); workflow ``w`` uses module seeds ``base_w +
    index``.  The run cycles through ``WORKFLOWS`` distinct workflows,
    so the server's kernel count stays bounded.  Before timing, one
    batch sweeps every module of every workflow, so the server holds
    all their kernels and entries: each timed solve is its ~800 warm
    round trips.  Without it the first pass through the workflows ran
    on a slope, each solve slower than the last as kernels were added,
    and where the median fell on that slope varied from run to run.
    """

    name = "solve_tcp"
    RATE = 0.8
    WORKFLOWS = 8

    def __init__(self, seed: int, seconds: int, *, tiny: bool, tamper: bool) -> None:
        rng = random.Random(f"solve_tcp/{seed}")
        self.modules = 2 if tiny else 4
        units = 2 if tiny else max(2, round(self.RATE * seconds))
        workflows = [rng.randrange(1, 10**7) for _ in range(self.WORKFLOWS)]
        self.bases = [workflows[unit % len(workflows)] for unit in range(units)]
        self.tamper = tamper

    clients = [{}]
    server_options: dict = {}

    def prepare(self, workdir: str) -> None:
        pass

    def warm(self, coordinators) -> None:
        (coordinator,) = coordinators
        coordinator.gammas(
            [
                request
                for base in sorted(set(self.bases))
                for relation in self.relations(base)
                for request in sweep_requests(relation.structure_signature)
            ]
        )

    def relations(self, base: int) -> list:
        from repro.privacy.relations import ModuleRelation

        return [
            ModuleRelation.random(
                f"E10M{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=base + index
            )
            for index in range(self.modules)
        ]

    def requirements(self, base: int):
        from repro.privacy.workflow_privacy import WorkflowPrivacyRequirements

        requirements = WorkflowPrivacyRequirements()
        for index, relation in enumerate(self.relations(base)):
            requirements.add(relation, 2 + index % 2)
        return requirements

    def measure(self, coordinators, deadline: float) -> Outcome:
        from repro.privacy import workflow_privacy

        (coordinator,) = coordinators
        errors = _service_errors()
        outcome = Outcome()
        oracles = {}
        for unit, base in enumerate(self.bases):
            harness.check_deadline(deadline)
            if base not in oracles:
                oracle_input = self.requirements(base)
                started = time.perf_counter()
                oracles[base] = workflow_privacy.exact_secure_view(oracle_input)
                outcome.floor_ms.append((time.perf_counter() - started) * 1000.0)
            expected = oracles[base]
            expected_cost = expected.cost + (1.0 if self.tamper and unit == 0 else 0.0)
            requirements = self.requirements(base)
            error = result = None
            cpu_before = harness.cpu_ms()
            started = time.perf_counter()
            try:
                result = workflow_privacy.exact_secure_view(
                    requirements, service=coordinator
                )
            except errors as exc:
                error = exc
            outcome.record(started, error)
            outcome.wall_s += time.perf_counter() - started
            outcome.cpu_ms += harness.cpu_ms() - cpu_before
            if result is not None and (
                result.hidden_labels != expected.hidden_labels
                or result.cost != expected_cost
            ):
                outcome.mismatches.append(
                    f"solve {unit} (base seed {base}): got "
                    f"{sorted(result.hidden_labels)} cost {result.cost}, oracle "
                    f"{sorted(expected.hidden_labels)} cost {expected_cost}"
                )
        return outcome


# ---------------------------------------------------------------------- #
# sweep_cold
# ---------------------------------------------------------------------- #
class SweepCold:
    """Full visibility sweeps over large relations the server has never seen.

    The run draws ``BASES`` ``scaled_structure`` relations (5-in/2-out,
    domain 6, 2% noise) from the seed and computes their oracles once,
    in ``prepare``.  Unit ``i`` sweeps a copy of one of them with its
    rows rotated by a seeded offset, no two units by the same one.  Row
    order is part of a structure's signature, so every copy is shipped
    with the sweep's one batch, its signature is computed in the timed
    unit, and every kernel entry is computed cold; a relation's Gammas
    do not depend on its row order, so the copy's Gammas must equal
    its base's oracle.  Generating a relation and its oracle costs
    about twice the sweep itself, so drawing a few and rotating them
    lets a run time several times more sweeps.  Two sweeps before
    timing fill the server's cache to its budget, so every timed sweep
    evicts the entries of an earlier one.
    """

    name = "sweep_cold"
    RATE = 1.4
    ROWS = 200_000
    BASES = 4
    WARM_UNITS = 2

    def __init__(self, seed: int, seconds: int, *, tiny: bool, tamper: bool) -> None:
        rng = random.Random(f"sweep_cold/{seed}")
        self.rows = 2_000 if tiny else self.ROWS
        bases = 1 if tiny else self.BASES
        units = 2 if tiny else max(2, round(self.RATE * seconds))
        self.base_seeds = [rng.randrange(1, 10**9) for _ in range(bases)]
        offsets = rng.sample(range(1, self.rows), self.WARM_UNITS + units)
        self.units = [(index % bases, offset) for index, offset in enumerate(offsets)]
        self.tamper = tamper

    clients = [{}]
    server_options: dict = {}

    def prepare(self, workdir: str) -> None:
        self.bases = [scaled_structure(self.rows, seed) for seed in self.base_seeds]
        self.expected = []
        self.floor_ms = []
        for base in self.bases:
            gammas, floor_ms = local_gammas(sweep_requests(base))
            self.expected.append(gammas)
            self.floor_ms.append(floor_ms)

    def requests(self, base: int, offset: int) -> list[tuple]:
        return sweep_requests(rotated_rows(self.bases[base], offset))

    def warm(self, coordinators) -> None:
        (coordinator,) = coordinators
        for base, offset in self.units[: self.WARM_UNITS]:
            coordinator.gammas(self.requests(base, offset))

    def measure(self, coordinators, deadline: float) -> Outcome:
        (coordinator,) = coordinators
        errors = _service_errors()
        outcome = Outcome()
        for unit, (base, offset) in enumerate(self.units[self.WARM_UNITS :]):
            harness.check_deadline(deadline)
            requests = self.requests(base, offset)
            expected = self.expected[base]
            if self.tamper and unit == 0:
                expected = [expected[0] + 1] + expected[1:]
            error = gammas = None
            cpu_before = harness.cpu_ms()
            started = time.perf_counter()
            try:
                gammas = coordinator.gammas(requests)
            except errors as exc:
                error = exc
            outcome.record(started, error)
            outcome.wall_s += time.perf_counter() - started
            outcome.cpu_ms += harness.cpu_ms() - cpu_before
            if gammas is not None and gammas != expected:
                outcome.mismatches.append(
                    f"sweep {unit} (base seed {self.base_seeds[base]}, rows "
                    f"rotated by {offset}): Gammas differ from the in-process oracle"
                )
        outcome.floor_ms = self.floor_ms
        return outcome


def rotated_rows(structure, offset: int):
    """``structure`` with its rows rotated: row ``offset`` comes first."""
    from repro.privacy.kernel_registry import RelationStructure

    def rotate(column: tuple[int, ...]) -> tuple[int, ...]:
        return column[offset:] + column[:offset]

    return RelationStructure(
        input_domain_sizes=structure.input_domain_sizes,
        output_domain_sizes=structure.output_domain_sizes,
        input_columns=tuple(map(rotate, structure.input_columns)),
        output_columns=tuple(map(rotate, structure.output_columns)),
    )


# ---------------------------------------------------------------------- #
# tenants_mixed
# ---------------------------------------------------------------------- #
class TenantsMixed:
    """An interactive and a bulk tenant over ``tls://`` with token auth.

    The interactive tenant (weight 4) sends single-task batches for
    already-warm kernel entries back to back; each batch is one unit.
    The bulk tenant (weight 1) sends full sweeps over 5x10^4-row
    relations, paced to a fixed offered rate, on its own connection and
    thread for as long as the interactive units run.  It cycles through
    a pool of relations whose kernel entries together exceed the
    server's cache budget, so every sweep finds its entries evicted and
    computes them cold, while the server's memory and kernel count stay
    bounded however long the run.
    """

    name = "tenants_mixed"
    foreground_tenant = "interactive"
    RATE = 1500
    BULK_ROWS = 50_000
    #: One bulk sweep caches about 64 MB of entries, so ten relations
    #: are about 1.7x the server's cache budget.
    BULK_POOL = 10
    #: Bulk sweeps are paced to one a second, about a sixth of one
    #: dispatcher's time at HEAD.  Each sweep holds the dispatcher for
    #: its whole duration, so the closed-loop interactive tenant loses
    #: that time; near saturation (back-to-back sweeps) it would get one
    #: unit per sweep and its throughput would swing with every bulk
    #: timing.  The interactive unit count keeps about twenty sweeps in
    #: a run, so the tail percentile lands on units queued behind one.
    BULK_INTERVAL_S = 1.0
    INTERACTIVE_RELATIONS = 4

    def __init__(self, seed: int, seconds: int, *, tiny: bool, tamper: bool) -> None:
        rng = random.Random(f"tenants_mixed/{seed}")
        self.units = 40 if tiny else max(20, round(self.RATE * seconds))
        self.relation_seeds = [
            rng.randrange(1, 10**7) for _ in range(self.INTERACTIVE_RELATIONS)
        ]
        self.bulk_rows = 2_000 if tiny else self.BULK_ROWS
        self.bulk_seeds = [rng.randrange(1, 10**9) for _ in range(self.BULK_POOL)]
        pool = len(self.relation_seeds) * 16
        self.sequence = [rng.randrange(pool) for _ in range(self.units)]
        self.tokens = {
            "interactive": secrets.token_hex(16),
            "bulk": secrets.token_hex(16),
        }
        self.tamper = tamper
        self.server_options: dict = {}
        self.clients: list[dict] = []

    def prepare(self, workdir: str) -> None:
        from repro.privacy.relations import ModuleRelation
        from repro.service import ShardCoordinator
        from repro.service.security import generate_self_signed_cert

        cert, key = generate_self_signed_cert(workdir)
        self.server_options = {
            "tls": (str(cert), str(key)),
            "policy": {
                "tenants": {
                    "interactive": {"token": self.tokens["interactive"], "weight": 4},
                    "bulk": {"token": self.tokens["bulk"], "weight": 1},
                }
            },
        }
        self.clients = [
            {"tls_ca": str(cert), "auth_token": self.tokens["interactive"]},
            {"tls_ca": str(cert), "auth_token": self.tokens["bulk"]},
        ]
        self.pool = []
        for seed in self.relation_seeds:
            relation = ModuleRelation.random(
                "T", n_inputs=2, n_outputs=2, domain_size=3, seed=seed
            )
            self.pool.extend(sweep_requests(relation.structure_signature))
        with ShardCoordinator(0) as local:
            self.expected = local.gammas(self.pool)
            self.floor_ms = []
            for index in self.sequence[:200]:
                started = time.perf_counter()
                local.gammas([self.pool[index]])
                self.floor_ms.append((time.perf_counter() - started) * 1000.0)
        self.bulk_pool = [
            sweep_requests(scaled_structure(self.bulk_rows, seed))
            for seed in self.bulk_seeds
        ]
        self.bulk_expected = [local_gammas(requests)[0] for requests in self.bulk_pool]
        if self.tamper:
            first = self.sequence[0]
            self.expected[first] += 1

    def warm(self, coordinators) -> None:
        """Bring the server to its steady state before timing: every
        structure shipped, the interactive entries cached, and the
        cache filled to its budget by one pass over the bulk pool (the
        interactive latency drifts up for several seconds otherwise)."""
        interactive, bulk = coordinators
        interactive.gammas(self.pool)
        for requests in self.bulk_pool:
            bulk.gammas(requests)
        interactive.gammas(self.pool)

    def _bulk_loop(self, coordinator, stop, started, deadline, record) -> None:
        """Paced cold sweeps until ``stop``: each sweep starts one
        interval after the previous one started, or as soon as its
        reply arrives when that is later.  A bulk tenant whose sweeps
        keep failing gives up rather than spin."""
        errors = _service_errors()
        failures = 0
        next_send = time.perf_counter()
        for index in itertools.count():
            if stop.wait(max(next_send - time.perf_counter(), 0.0)):
                return
            if time.monotonic() > deadline or failures >= 3:
                return
            next_send = time.perf_counter() + self.BULK_INTERVAL_S
            requests = self.bulk_pool[index % len(self.bulk_pool)]
            started.set()
            try:
                gammas = coordinator.gammas(requests)
                failures = 0
            except errors:
                gammas = None
                failures += 1
            record.append((index, time.perf_counter(), gammas))

    def measure(self, coordinators, deadline: float) -> Outcome:
        interactive, bulk = coordinators
        errors = _service_errors()
        outcome = Outcome()
        stop = threading.Event()
        bulk_started = threading.Event()
        bulk_record: list = []
        bulk_thread = threading.Thread(
            target=self._bulk_loop,
            args=(bulk, stop, bulk_started, deadline, bulk_record),
            name="bulk-tenant",
        )
        bulk_thread.start()
        try:
            bulk_started.wait(timeout=60)
            cpu_before = harness.cpu_ms()
            phase_started = time.perf_counter()
            for unit, index in enumerate(self.sequence):
                harness.check_deadline(deadline)
                error = gammas = None
                started = time.perf_counter()
                try:
                    gammas = interactive.gammas([self.pool[index]])
                except errors as exc:
                    error = exc
                outcome.record(started, error)
                if gammas is not None and gammas != [self.expected[index]]:
                    outcome.mismatches.append(
                        f"interactive unit {unit}: Gamma {gammas} differs from "
                        f"the oracle {self.expected[index]}"
                    )
            phase_ended = time.perf_counter()
            outcome.cpu_ms = harness.cpu_ms() - cpu_before
        finally:
            stop.set()
            bulk_thread.join()
        outcome.wall_s = phase_ended - phase_started
        for index, completed, gammas in bulk_record:
            if gammas is None:
                outcome.bulk_failed += 1
                continue
            if completed <= phase_ended:
                outcome.bulk_units += 1
            if gammas != self.bulk_expected[index % len(self.bulk_pool)]:
                outcome.mismatches.append(
                    f"bulk sweep {index}: Gammas differ from the in-process oracle"
                )
        outcome.floor_ms = self.floor_ms
        return outcome


WORKLOADS = {
    workload.name: workload for workload in (SolveTcp, SweepCold, TenantsMixed)
}
