"""The coordinator: route Gamma work to warm kernels over any transport.

:class:`ShardCoordinator` is the client-facing front of the service.  It
is *policy only*: it hash-partitions evaluation requests across shards
by canonical structure signature
(:func:`~repro.service.protocol.shard_of`), ships each structure to a
shard at most once, correlates completions by batch/request id, stamps
per-batch dispatch latency, and retries batches whose shard died.  The
mechanics of moving batches live behind the
:class:`~repro.service.transport.Transport` interface: an in-process
registry (``workers=0`` -- the no-dependency fallback and the oracle
every other transport is tested byte-identical against), a
multiprocess worker pool (``workers=N``), a socket connection to a
standalone :mod:`repro.service.server` (``address=...``), or a
federated pool of servers routed by structure signature
(``endpoints=[...]`` -- :class:`~repro.service.pool.PooledTransport`).

The coordinator is thread-safe: a reentrant lock serializes dispatch
bookkeeping and the result pump, so the fair-scheduling server's
dispatcher threads share one coordinator (and one worker pool's warm
kernels) while multiprocess shards evaluate genuinely in parallel.

Two client APIs:

* the synchronous :meth:`~ShardCoordinator.evaluate` /
  :meth:`~ShardCoordinator.gammas` of PR 3, unchanged in semantics;
* an asynchronous :meth:`~ShardCoordinator.submit` /
  :meth:`~ShardCoordinator.collect` pair keyed by *request id*: a
  caller keeps several requests in flight and collects them in
  whatever order it needs.

With ``coalesce=N`` the asynchronous path buffers submitted tasks per
shard and flushes them as *coalesced* batches (one IPC round trip
carrying the tasks of up to N requests); completion is tracked per
task, so requests sharing a batch still complete and fail
independently.  On numpy builds the multiprocess transport additionally
publishes each canonical row table once through
:mod:`multiprocessing.shared_memory` and ships a zero-copy
:class:`~repro.service.protocol.ShmTableRef` instead of re-serialising
rows per shard (``shm_tables=False`` restores value shipping).

Fault handling: a batch is re-dispatched when its shard is found dead
(respawned workers and reconnected servers start warm from snapshots);
the batch's :class:`ShardReport` is flagged ``retried``.  A shard that
keeps dying past the transport's ``max_restarts`` raises
:class:`~repro.errors.WorkerCrashError` instead of looping forever.

The coordinator is a context manager; on close it asks the transport to
snapshot warm kernels (where that is meaningful) so the next
coordinator starts warm.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Iterable, Sequence

from repro.errors import ServiceError, ServiceOverloadError
from repro.privacy.kernel_registry import RelationStructure
from repro.service.persistence import KernelSnapshotStore
from repro.service.protocol import (
    MSG_BATCH,
    MSG_ERROR,
    MSG_NEED,
    MSG_OVERLOAD,
    MSG_STOPPED,
    WANT_GAMMA,
    GammaBatch,
    GammaTask,
    ShardReport,
    TaskResult,
    merge_kernel_stats,
    shard_of,
)
from repro.service.transport import (
    InProcessTransport,
    Transport,
    TransportSendError,
    build_transport,
)

#: One evaluation request: (canonical structure, visible inputs, visible outputs).
GammaRequest = tuple[RelationStructure, tuple[int, ...], tuple[int, ...]]

#: Default cap on coordinator-retained canonical structures.  Structures
#: are only needed again for crash-recovery re-shipping (and are then
#: almost always the *current* request's, i.e. the most recently used);
#: older ones are re-loadable from the snapshot store when configured.
DEFAULT_STRUCTURE_CACHE = 4096

#: How many per-batch dispatch latencies are retained for percentiles.
LATENCY_WINDOW = 8192


class _PendingRequest:
    """Coordinator-side state of one in-flight logical request.

    Completion is tracked per *task*, not per batch: with dispatch
    coalescing one batch carries tasks of several requests, so a request
    is done exactly when every one of its task ids has a banked result
    (or its error landed).
    """

    __slots__ = (
        "request_id",
        "tasks",
        "outstanding",
        "batch_ids",
        "results",
        "error",
        "retry_after_ms",
    )

    def __init__(self, request_id: int, tasks: list[GammaTask]) -> None:
        self.request_id = request_id
        self.tasks = tasks
        #: Task ids still awaiting a result (buffered or dispatched).
        self.outstanding: set[int] = {task.task_id for task in tasks}
        #: In-flight batches currently carrying tasks of this request.
        self.batch_ids: set[int] = set()
        self.results: dict[int, TaskResult] = {}
        #: Failure text banked until *this* request is collected -- one
        #: request's error must not abort an unrelated
        #: ``collect`` that happened to be pumping when it arrived.
        self.error: str | None = None
        #: Set when the error is an admission-control shed: ``collect``
        #: raises :class:`ServiceOverloadError` carrying this hint.
        self.retry_after_ms: float | None = None

    @property
    def done(self) -> bool:
        return self.error is not None or not self.outstanding


class ShardCoordinator:
    """Transport-agnostic (in-process / multiprocess / socket) Gamma service."""

    def __init__(
        self,
        workers: int = 0,
        *,
        transport: Transport | None = None,
        address: str | tuple | None = None,
        endpoints: Sequence[str | tuple] | None = None,
        budget_bytes: int | None = None,
        total_budget_bytes: int | None = None,
        snapshot_dir: str | None = None,
        start_method: str | None = None,
        task_timeout: float = 120.0,
        max_restarts: int = 3,
        structure_cache_size: int = DEFAULT_STRUCTURE_CACHE,
        codec: str | None = None,
        allow_pickle: bool = True,
        probe_interval: float | None = None,
        rebalance: bool = True,
        ring_slack: int = 1,
        coalesce: int = 0,
        shm_tables: bool | None = None,
        tls_ca: str | None = None,
        ssl_context=None,
        auth_token: str | None = None,
    ) -> None:
        if structure_cache_size < 1:
            raise ServiceError("structure cache must hold at least one structure")
        if coalesce < 0:
            raise ServiceError(f"coalesce threshold must be >= 0, got {coalesce}")
        if transport is None:
            transport = build_transport(
                workers,
                address=address,
                endpoints=endpoints,
                budget_bytes=budget_bytes,
                total_budget_bytes=total_budget_bytes,
                snapshot_dir=snapshot_dir,
                start_method=start_method,
                max_restarts=max_restarts,
                codec=codec,
                allow_pickle=allow_pickle,
                probe_interval=probe_interval,
                rebalance=rebalance,
                ring_slack=ring_slack,
                shm_tables=shm_tables,
                tls_ca=tls_ca,
                ssl_context=ssl_context,
                auth_token=auth_token,
            )
        self.transport = transport
        #: Kept for introspection/compat: 0 means "no local worker pool".
        self.workers = (
            0 if isinstance(transport, InProcessTransport) else transport.shard_count
        )
        self.snapshot_dir = None if snapshot_dir is None else str(snapshot_dir)
        self.task_timeout = float(task_timeout)
        self.structure_cache_size = int(structure_cache_size)
        self._task_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        #: LRU of canonical structures for (re-)shipping, most recent last.
        #: Capped: on miss the snapshot store re-ships, unlike PR 3's
        #: retain-everything dict (the ROADMAP's coordinator-memory leak).
        self._structures: "OrderedDict[str, RelationStructure]" = OrderedDict()
        #: Read-only store handle for structure re-ship on LRU miss.
        self._structure_store = (
            KernelSnapshotStore(self.snapshot_dir)
            if self.snapshot_dir is not None
            else None
        )
        self._pending: dict[int, _PendingRequest] = {}
        #: In-flight (dispatched, uncompleted) batches by batch id.
        self._inflight_batches: dict[int, GammaBatch] = {}
        #: batch id -> ids of the live requests with tasks in that batch
        #: (a singleton set without coalescing; possibly several with).
        self._batch_requests: dict[int, set[int]] = {}
        #: task id -> owning request id, for every buffered or in-flight
        #: task; results resolve their request through this.
        self._task_requests: dict[int, int] = {}
        #: Dispatch coalescing: 0 disables it (every submit dispatches
        #: its shard batches immediately, the pre-PR-7 behavior); N > 0
        #: buffers tasks per shard and flushes a shard's buffer when it
        #: holds >= N tasks -- one IPC round trip carries the subset
        #: evaluations of many in-flight requests.  collect() flushes
        #: all buffers first, so no task waits on the threshold.
        self.coalesce = int(coalesce)
        self._buffers: dict[int, list[GammaTask]] = {}
        self._coalesced_batches = 0
        self._coalesced_requests = 0
        self._dispatch_times: dict[int, float] = {}
        self._retried_batch_ids: set[int] = set()
        self._last_reports: dict[int, ShardReport] = {}
        self._latencies_ms: list[float] = []
        self._tasks_dispatched = 0
        self._batches_dispatched = 0
        self._retried_batches = 0
        #: Batches shed by a server's admission control (overload replies).
        self._overloads = 0
        self._structure_evictions = 0
        self._structure_reloads = 0
        self._closed = False
        #: Serializes dispatch bookkeeping and the result pump, so several
        #: threads (the fair server's dispatchers) may submit/collect
        #: concurrently.  Reentrant: evaluate() -> collect() -> _pump all
        #: run under one holder.  Evaluation itself is only serialized on
        #: the in-process transport (whose submit computes synchronously
        #: under this lock -- the registry is not thread-safe); remote and
        #: multiprocess shards keep evaluating in parallel because the
        #: lock is released while their processes work and only taken for
        #: the 50 ms poll slices of the pump.
        self._lock = threading.RLock()
        #: Membership-change accounting (elastic pools).  Guarded by its
        #: own small lock, NOT self._lock: the pool's prober thread
        #: fires the callback while a collector may hold the coordinator
        #: lock and be about to call into the pool -- sharing the big
        #: lock would be an ABBA deadlock.
        self._membership_lock = threading.Lock()
        self._membership_epoch = 0
        self._endpoint_losses = 0
        self._endpoint_readmissions = 0
        self._shards_rebalanced = 0
        register = getattr(self.transport, "add_membership_listener", None)
        if register is not None:
            register(self._on_membership_change)

    def _on_membership_change(self, event: tuple) -> None:
        """Pool membership callback (may run on the prober thread)."""
        kind, _endpoint, epoch, moved = event
        with self._membership_lock:
            self._membership_epoch = max(self._membership_epoch, epoch)
            self._shards_rebalanced += len(moved)
            if kind == "lost":
                self._endpoint_losses += 1
            elif kind == "readmitted":
                self._endpoint_readmissions += 1

    # ------------------------------------------------------------------ #
    # Structure cache
    # ------------------------------------------------------------------ #
    def _remember_structure(self, structure: RelationStructure) -> None:
        signature = structure.signature
        self._structures[signature] = structure
        self._structures.move_to_end(signature)
        while len(self._structures) > self.structure_cache_size:
            self._structures.popitem(last=False)
            self._structure_evictions += 1

    def _structure_for(self, signature: str) -> RelationStructure:
        structure = self._structures.get(signature)
        if structure is not None:
            self._structures.move_to_end(signature)
            return structure
        if self._structure_store is not None:
            snapshot = self._structure_store.load(signature)
            if snapshot is not None:
                self._structure_reloads += 1
                self._remember_structure(snapshot[0])
                return snapshot[0]
        raise ServiceError(
            f"structure {signature!r} fell out of the coordinator cache and "
            "no snapshot store holds it; raise structure_cache_size or "
            "configure snapshot_dir"
        )

    # ------------------------------------------------------------------ #
    # Asynchronous evaluation API (request id keyed)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        requests: Iterable[GammaRequest],
        *,
        want: str = WANT_GAMMA,
    ) -> int:
        """Dispatch every request as one logical unit; returns a request id.

        Each request is ``(structure, visible_inputs, visible_outputs)``;
        with ``want="entry"`` the results carry the full kernel-entry
        payload (per-block counts and partition) instead of Gamma only.
        The caller later passes the id to :meth:`collect` (block until
        complete).
        """
        with self._lock:
            if self._closed:
                raise ServiceError("coordinator is closed")
            tasks: list[GammaTask] = []
            for structure, visible_inputs, visible_outputs in requests:
                self._remember_structure(structure)
                tasks.append(
                    GammaTask(
                        next(self._task_ids),
                        structure.signature,
                        tuple(visible_inputs),
                        tuple(visible_outputs),
                        want,
                    )
                )
            request_id = next(self._request_ids)
            pending = _PendingRequest(request_id, tasks)
            self._pending[request_id] = pending
            if not tasks:
                return request_id
            self._tasks_dispatched += len(tasks)
            for task in tasks:
                self._task_requests[task.task_id] = request_id
            shards = self.transport.shard_count
            by_shard: dict[int, list[GammaTask]] = {}
            for task in tasks:
                shard_id = shard_of(task.signature, shards) if shards > 1 else 0
                by_shard.setdefault(shard_id, []).append(task)
            if self.coalesce > 0:
                # Buffer; a shard's buffer flushes once it holds enough
                # tasks for one worthwhile IPC round trip.
                for shard_id, shard_tasks in by_shard.items():
                    buffer = self._buffers.setdefault(shard_id, [])
                    buffer.extend(shard_tasks)
                    if len(buffer) >= self.coalesce:
                        self._flush_shard(shard_id)
            else:
                for shard_id, shard_tasks in by_shard.items():
                    self._dispatch_tasks(shard_id, shard_tasks)
            return request_id

    def _dispatch_tasks(self, shard_id: int, tasks: list[GammaTask]) -> None:
        """Wrap ``tasks`` in one batch, register bookkeeping, dispatch.

        Caller holds the lock.  The batch's ``request_id`` field carries
        the first member request for observability; correlation happens
        per task through ``_task_requests``, so a batch may span any
        number of requests.
        """
        request_ids = {self._task_requests[task.task_id] for task in tasks}
        batch = GammaBatch(
            next(self._batch_ids),
            shard_id,
            tuple(tasks),
            {},
            min(request_ids),
        )
        self._batches_dispatched += 1
        if len(request_ids) > 1:
            self._coalesced_batches += 1
            self._coalesced_requests += len(request_ids)
        self._inflight_batches[batch.batch_id] = batch
        self._batch_requests[batch.batch_id] = request_ids
        for rid in request_ids:
            self._pending[rid].batch_ids.add(batch.batch_id)
        self._dispatch(batch)

    def _flush_shard(self, shard_id: int) -> None:
        """Dispatch one shard's buffered tasks (caller holds the lock)."""
        buffer = self._buffers.pop(shard_id, None)
        if buffer:
            self._dispatch_tasks(shard_id, buffer)

    def _flush_buffers(self) -> None:
        """Dispatch every buffered task (caller holds the lock)."""
        for shard_id in sorted(self._buffers):
            self._flush_shard(shard_id)

    def collect(self, request_id: int) -> list[TaskResult]:
        """Block until ``request_id`` completes; results in request order.

        Completions for *other* in-flight requests received while
        waiting are banked for their own ``collect`` calls, so requests
        may be collected in any order -- including by different threads:
        whichever collector holds the pump lock delivers everyone's
        messages, and each waiter re-checks its own request between pump
        slices.
        """
        with self._lock:
            pending = self._pending.get(request_id)
            if pending is not None:
                # Nothing may sit out a coalescing threshold once a
                # collector is waiting on it (or on anything after it).
                self._flush_buffers()
        if pending is None:
            raise ServiceError(f"unknown or already collected request id {request_id}")
        deadline = time.monotonic() + self.task_timeout
        delivered = -1
        while not pending.done:
            with self._lock:
                if pending.done:
                    break
                if len(pending.results) != delivered:
                    # Another thread's pump made progress on *this*
                    # request; that is liveness too, so refresh our
                    # patience exactly as _pump does for its caller.
                    delivered = len(pending.results)
                    deadline = max(deadline, time.monotonic() + self.task_timeout)
                deadline = self._pump(deadline)
        with self._lock:
            self._pending.pop(request_id, None)
        if pending.error is not None:
            if pending.retry_after_ms is not None:
                raise ServiceOverloadError(
                    pending.error, retry_after_ms=pending.retry_after_ms
                )
            raise ServiceError(pending.error)
        return [pending.results[task.task_id] for task in pending.tasks]

    def _forget_request_batches(self, pending: _PendingRequest) -> None:
        """Drop a dead/failed request from its in-flight batches.

        A batch whose member requests are all gone keeps computing on
        its shard -- work is never recalled -- but its completion will
        find no bookkeeping and be dropped on receipt.  Caller holds
        the lock.
        """
        for batch_id in pending.batch_ids:
            members = self._batch_requests.get(batch_id)
            if members is None:
                continue
            members.discard(pending.request_id)
            if not members:
                self._batch_requests.pop(batch_id, None)
                self._inflight_batches.pop(batch_id, None)
                self._dispatch_times.pop(batch_id, None)
                self._retried_batch_ids.discard(batch_id)
        pending.batch_ids.clear()

    # ------------------------------------------------------------------ #
    # Synchronous evaluation API (PR 3 surface, unchanged semantics)
    # ------------------------------------------------------------------ #
    def evaluate(
        self, requests: Iterable[GammaRequest], *, want: str = WANT_GAMMA
    ) -> list[TaskResult]:
        """Evaluate every request, preserving request order in the result."""
        return self.collect(self.submit(requests, want=want))

    def gammas(self, requests: Iterable[GammaRequest]) -> list[int]:
        """Just the Gamma of every request, in request order."""
        return [result.gamma for result in self.evaluate(requests)]

    # ------------------------------------------------------------------ #
    # Dispatch and the result pump
    # ------------------------------------------------------------------ #
    def _dispatch(self, batch: GammaBatch) -> None:
        """Ship structures as needed and hand the batch to its shard."""
        shard_id = batch.shard_id
        if self.transport.crashed_shards((shard_id,)):
            self._recover(shard_id, exclude=batch.batch_id)
            self._mark_retried(batch.batch_id)
        self._send(batch)

    def _send(self, batch: GammaBatch) -> None:
        signatures = {task.signature for task in batch.tasks}
        while True:
            missing = self.transport.unshipped(batch.shard_id, signatures)
            shipped = replace(
                batch,
                structures={
                    signature: self._structure_for(signature)
                    for signature in missing
                },
            )
            self._dispatch_times[batch.batch_id] = time.monotonic()
            try:
                self.transport.submit(shipped)
                break
            except TransportSendError:
                # The shard died under our hands: recover it and ship
                # again.  A pool may fail the shard over onto an
                # endpoint that turns out to be dead too, so this loops;
                # it terminates because every failed round either
                # reconnects (bounded by the restart budget) or retires
                # an endpoint (finitely many), and recover raises
                # WorkerCrashError once nothing survives.
                self._recover(batch.shard_id, exclude=batch.batch_id)
                self._mark_retried(batch.batch_id)
        self.transport.mark_shipped(batch.shard_id, signatures)

    def _mark_retried(self, batch_id: int) -> None:
        if batch_id not in self._retried_batch_ids:
            self._retried_batch_ids.add(batch_id)
            self._retried_batches += 1

    def _pending_batches_of(self, shard_id: int) -> list[GammaBatch]:
        return [
            batch
            for batch in self._inflight_batches.values()
            if batch.shard_id == shard_id
        ]

    def _recover(self, shard_id: int, *, exclude: int | None = None) -> None:
        """Replace a dead shard and re-dispatch its pending batches."""
        self.transport.recover(shard_id)
        for batch in self._pending_batches_of(shard_id):
            if batch.batch_id == exclude:
                continue
            self._mark_retried(batch.batch_id)
            self._send(batch)

    def _pending_shards(self) -> set[int]:
        return {batch.shard_id for batch in self._inflight_batches.values()}

    def _pump(self, deadline: float) -> float:
        """One poll step: deliver a message or handle crash/timeout.

        Returns the (possibly refreshed) collect deadline.
        """
        message = self.transport.poll(0.05)
        if message is None:
            now = time.monotonic()
            crashed = self.transport.crashed_shards(self._pending_shards())
            if crashed:
                for shard_id in crashed:
                    self._recover(shard_id)
                return now + self.task_timeout
            if now > deadline:
                raise ServiceError(
                    f"timed out after {self.task_timeout}s waiting for "
                    f"{len(self._inflight_batches)} pending batch(es)"
                )
            return deadline
        kind = message[0]
        if kind == MSG_STOPPED:  # stale shutdown ack from a replaced worker
            return deadline
        if kind == MSG_OVERLOAD:
            # Admission control shed the batch server-side: bank a typed
            # failure (with the server's retry hint) on every member
            # request, exactly like MSG_ERROR -- it surfaces only when
            # each request is collected.
            _, shard_id, batch_id, retry_after_ms = message
            self._overloads += 1
            member_ids = self._batch_requests.pop(batch_id, None)
            self._inflight_batches.pop(batch_id, None)
            self._dispatch_times.pop(batch_id, None)
            self._retried_batch_ids.discard(batch_id)
            if member_ids is None:
                return deadline
            for request_id in member_ids:
                shed = self._pending.get(request_id)
                if shed is None:
                    continue
                shed.error = (
                    f"shard {shard_id} shed batch {batch_id} under admission "
                    f"control; retry after {retry_after_ms:.0f} ms"
                )
                shed.retry_after_ms = float(retry_after_ms)
                shed.batch_ids.discard(batch_id)
                for task in shed.tasks:
                    self._task_requests.pop(task.task_id, None)
                self._forget_request_batches(shed)
            return deadline
        if kind == MSG_ERROR:
            _, shard_id, batch_id, text = message
            member_ids = self._batch_requests.pop(batch_id, None)
            self._inflight_batches.pop(batch_id, None)
            self._dispatch_times.pop(batch_id, None)
            self._retried_batch_ids.discard(batch_id)
            if member_ids is None:
                # Left over from a request that already failed; must not
                # poison this (unrelated) call.
                return deadline
            # Bank the failure on every request the batch carried: it
            # surfaces when (and only when) each is collected, never out
            # of another request's collect().
            for request_id in member_ids:
                failed = self._pending.get(request_id)
                if failed is None:
                    continue
                failed.error = f"shard {shard_id} failed batch {batch_id}:\n{text}"
                failed.batch_ids.discard(batch_id)
                for task in failed.tasks:
                    self._task_requests.pop(task.task_id, None)
                self._forget_request_batches(failed)
            return deadline
        if kind == MSG_NEED:
            # The server's structure cache no longer holds signatures we
            # treated as shipped: forget the marks and re-ship the batch.
            _, batch_id, signatures = message
            batch = self._inflight_batches.get(batch_id)
            if batch is None:  # completed or failed
                return deadline
            self.transport.unship(batch.shard_id, signatures)
            self._send(batch)
            return time.monotonic() + self.task_timeout
        if kind != MSG_BATCH:  # pragma: no cover - unknown message kind
            raise ServiceError(f"unexpected service message {message[0]!r}")
        _, shard_id, batch_id, results, report = message
        received = time.monotonic()
        dispatched = self._dispatch_times.pop(batch_id, None)
        member_ids = self._batch_requests.pop(batch_id, None)
        batch = self._inflight_batches.pop(batch_id, None)
        if member_ids is None or batch is None:
            # Completed by both a dead worker and its replacement, or
            # every member request already failed; results are
            # deterministic, so dropping this copy is always safe.
            return deadline
        latency_ms = 0.0 if dispatched is None else (received - dispatched) * 1000.0
        report = replace(
            report,
            retried=batch_id in self._retried_batch_ids,
            dispatch_latency_ms=round(latency_ms, 6),
            coalesced_requests=len(member_ids) if self.coalesce > 0 else 0,
        )
        self._retried_batch_ids.discard(batch_id)
        self._latencies_ms.append(latency_ms)
        if len(self._latencies_ms) > LATENCY_WINDOW:
            del self._latencies_ms[: -LATENCY_WINDOW // 2]
        self._last_reports[shard_id] = report
        for result in results:
            request_id = self._task_requests.pop(result.task_id, None)
            pending = self._pending.get(request_id)
            if pending is None:  # the owning request already failed
                continue
            pending.results[result.task_id] = result
            pending.outstanding.discard(result.task_id)
        for request_id in member_ids:
            pending = self._pending.get(request_id)
            if pending is not None:
                pending.batch_ids.discard(batch_id)
        # A completion is proof of liveness: the timeout bounds silence,
        # not total request runtime (a many-batch request streaming
        # steady results must never time out mid-stream).
        return received + self.task_timeout

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def shard_reports(self) -> tuple[ShardReport, ...]:
        """The latest report of every shard that has completed a batch."""
        with self._lock:
            return tuple(
                self._last_reports[shard_id]
                for shard_id in sorted(self._last_reports)
            )

    def kernel_stats(self) -> dict[str, int]:
        """Service-wide kernel statistics.

        The in-process transport reads its live registry; remote
        transports merge the latest (cumulative) report of every shard,
        so the numbers lag until each shard has completed a batch.
        """
        with self._lock:
            live = self.transport.live_kernel_stats()
            if live is not None:
                return live
            return merge_kernel_stats(
                report.kernel_stats for report in self._last_reports.values()
            )

    @property
    def preloaded_entries(self) -> int:
        """Cache entries restored from snapshots at (worker/server) start."""
        with self._lock:
            if self.transport.has_live_stats:
                return self.transport.preloaded_entries
            return sum(
                report.preloaded_entries for report in self._last_reports.values()
            )

    @property
    def worker_restarts(self) -> int:
        """How many times a dead shard was recovered."""
        return self.transport.restarts

    def latency_percentiles(self) -> dict[str, float]:
        """Dispatch-to-result latency percentiles (ms) over recent batches.

        This is where "where does wall-clock go" comes from in E10 and
        ``bench_service``: transport time is the gap between these and
        pure kernel time.
        """
        if not self._latencies_ms:
            return {}
        ordered = sorted(self._latencies_ms)

        def at(fraction: float) -> float:
            index = min(len(ordered) - 1, int(fraction * len(ordered)))
            return round(ordered[index], 3)

        return {
            "p50_ms": at(0.50),
            "p90_ms": at(0.90),
            "p99_ms": at(0.99),
            "max_ms": round(ordered[-1], 3),
        }

    def service_stats(self) -> dict[str, object]:
        """Coordinator-side dispatch counters (for experiment tables)."""
        stats: dict[str, object] = {
            "transport": self.transport.name,
            "workers": self.workers,
            "tasks": self._tasks_dispatched,
            "batches": self._batches_dispatched,
            "retried_batches": self._retried_batches,
            "coalesce": self.coalesce,
            "coalesced_batches": self._coalesced_batches,
            "coalesced_requests": self._coalesced_requests,
            "worker_restarts": self.worker_restarts,
            "preloaded_entries": self.preloaded_entries,
            "structures_cached": len(self._structures),
            "structure_evictions": self._structure_evictions,
            "structure_reloads": self._structure_reloads,
            "overloads": self._overloads,
            **self.latency_percentiles(),
        }
        # Group-construction attribution (sort-free kernel satellite):
        # how much shard wall time went into partition building vs fused
        # counting passes, so E9 can split the two.
        kernel = self.kernel_stats()
        for key in ("entry_fused_passes", "partition_build_ms"):
            if key in kernel:
                stats[key] = kernel[key]
        with self._membership_lock:
            if self._membership_epoch or self._endpoint_losses:
                stats["membership_epoch"] = self._membership_epoch
                stats["endpoint_losses"] = self._endpoint_losses
                stats["endpoint_readmissions"] = self._endpoint_readmissions
                stats["shards_rebalanced"] = self._shards_rebalanced
        for gauge in ("failovers", "readmissions", "handoffs"):
            value = getattr(self.transport, gauge, None)
            if value is not None:
                stats[gauge] = value
        return stats

    # ------------------------------------------------------------------ #
    # Warm-handoff delegation (server-side backend of MSG_EXPORT/IMPORT)
    # ------------------------------------------------------------------ #
    def export_kernel_entries(self, signatures: Iterable[str]) -> dict:
        """Export the named kernels' warm state, when the transport can.

        Transports without exportable local state (multiprocess shards)
        return an empty payload: the handoff degrades to a cold start
        instead of failing.
        """
        with self._lock:
            exporter = getattr(self.transport, "export_kernel_entries", None)
            if exporter is None:
                return {}
            return exporter(signatures)

    def import_kernel_entries(self, payload: dict) -> int:
        """Import exported kernels; returns entries landed (0 if unsupported)."""
        with self._lock:
            importer = getattr(self.transport, "import_kernel_entries", None)
            if importer is None:
                return 0
            return importer(payload)

    # ------------------------------------------------------------------ #
    # Fault injection and shutdown
    # ------------------------------------------------------------------ #
    def inject_crash(self, shard_id: int) -> None:
        """Make one shard die abruptly (crash-recovery test/ops hook)."""
        self.transport.inject_crash(shard_id)

    def close(self, *, snapshot: bool = True) -> None:
        """Shut the service down, snapshotting warm kernels by default.

        Pass ``snapshot=False`` to stop without persisting (used when a
        caller wants a genuinely cold next start).
        """
        if self._closed:
            return
        self._closed = True
        self.transport.close(snapshot=snapshot)

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator({self.transport.name}, shards="
            f"{self.transport.shard_count}, tasks={self._tasks_dispatched}, "
            f"restarts={self.worker_restarts})"
        )
