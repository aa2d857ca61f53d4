"""Elastic federated connection pool: one client, several Gamma servers.

A single :class:`~repro.service.transport.SocketTransport` scales the
service across *client* processes -- many tenants, one warm server --
but the server itself stays one host.  HyProv-style federation goes the
other way: :class:`PooledTransport` fans one client out over N
independent :class:`~repro.service.server.GammaServer` endpoints, and
the existing signature-hash routing of the coordinator
(:func:`~repro.service.protocol.shard_of`) becomes the federation map.

The pool presents one *logical shard per endpoint*, so the coordinator
routes every structure -- consistently, by its process-independent
signature digest -- to exactly one server, and that server's kernel for
the structure is the only one ever warmed.  On top of that, the pool is
*elastic*: membership shrinks on endpoint loss and grows back when a
lost server heals, with shards following deterministically.

* **Consistent hashing with bounded loads**
  (:class:`~repro.service.ring.HashRing`): shard-to-endpoint routing is
  a pure function of the live membership set.  Every endpoint is home
  to its own shard while live; shards of lost endpoints walk the ring
  and land on the first live endpoint with load below
  ``ceil(shards/live) + slack``.  At full membership the routing is the
  identity, and a single endpoint loss or re-admission moves only the
  affected shard.
* **Background health prober**: lost endpoints are re-probed on a
  configurable cadence with per-endpoint jittered exponential backoff.
  A probe is a fresh connect plus a ``ping``/``pong`` round trip
  (:func:`~repro.service.transport.probe_endpoint`); a healed endpoint
  is **re-admitted** with a fresh connection and restart budget, and
  the ring reassigns its shards back.
* **Live rebalancing with warm-kernel handoff**: when membership grows,
  only the ring-reassigned shards migrate.  For each, the signatures
  the old endpoint was shipped are exported (live kernel entries, with
  the endpoint's snapshot store as fallback/write-through) and imported
  on the new endpoint before new batches land there, so no migrated
  shard repeats cold partition work.  In-flight batches drain in place:
  completions are accepted from exactly the endpoint a batch was
  dispatched to.
* **Membership epochs, exactly once**: every membership change bumps an
  epoch; each submitted batch records ``(epoch, endpoint)``.  A
  completion from any other endpoint -- or for a batch already
  completed -- belongs to a stale epoch and is dropped (counted in
  ``stale_completions``), never double-counted.  Accepted completions
  carry their dispatch epoch on
  :attr:`~repro.service.protocol.ShardReport.epoch`.

Because all of this hides behind the six transport verbs, the
secure-view solver and the coordinator's ``submit``/``collect`` API run
unchanged over a federation of servers -- and the
conformance suite holds the pool to byte-identical results with the
in-process oracle, including under a mid-search endpoint kill and a
kill -> heal -> re-admit cycle.

Threading: the coordinator drives submit/poll/recover from under its
own lock; the prober is the pool's only extra thread.  It touches live
connections never -- it probes with throwaway sockets, swaps in *new*
transports under the pool lock, and queues warm-handoff work that the
coordinator thread drains on its next pool call -- so socket state is
only ever used from one thread.

Stats caveat: the coordinator's merged ``kernel_stats`` sums the latest
report per *logical shard*, so after a failover two shards may report
the same server's cumulative counters twice; :meth:`fetch_stats` asks
every live server directly for exact service-wide numbers.
"""

from __future__ import annotations

import contextlib
import select
import ssl
import threading
import time
from dataclasses import replace
from typing import Callable, Iterable, Sequence

from repro.errors import ServiceError, WorkerCrashError
from repro.service.protocol import (
    MSG_BATCH,
    GammaBatch,
    merge_kernel_stats,
    shard_of,
)
from repro.service.ring import HashRing
from repro.service.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    ExponentialBackoff,
    SocketTransport,
    Transport,
    TransportSendError,
    parse_address,
    probe_endpoint,
)

#: A membership-change event passed to listeners: ``(kind, endpoint,
#: epoch, moved)`` where ``kind`` is ``"lost"`` or ``"readmitted"`` and
#: ``moved`` lists ``(shard, old_endpoint, new_endpoint)`` reroutes.
MembershipEvent = tuple[str, int, int, tuple[tuple[int, int, int], ...]]


class _PoolEndpoint:
    """Pool-side state of one federation endpoint (live or lost)."""

    __slots__ = (
        "index",
        "address",
        "identity",
        "transport",
        "lost",
        "probe_backoff",
        "next_probe_at",
    )

    def __init__(
        self, index: int, address: tuple, transport: SocketTransport
    ) -> None:
        self.index = index
        self.address = address
        #: Ring identity; the index prefix keeps identities unique even
        #: when several endpoints share one address (test federations).
        self.identity = f"{index}@{transport.identity}"
        self.transport: SocketTransport | None = transport
        self.lost = False
        #: Schedule for *probing* this endpoint once lost (distinct from
        #: the transport's reconnect backoff, which dies with it).
        self.probe_backoff = ExponentialBackoff(base=0.05, max_delay=2.0)
        self.next_probe_at = 0.0


class PooledTransport(Transport):
    """Signature-routed elastic pool of connections to Gamma servers."""

    name = "pooled"

    def __init__(
        self,
        endpoints: Sequence[str | tuple],
        *,
        codec: str | None = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        max_restarts: int = 3,
        allow_pickle: bool = True,
        probe_interval: float | None = 1.0,
        rebalance: bool = True,
        ring_slack: int = 1,
        ssl_context: "ssl.SSLContext | None" = None,
        auth_token: str | None = None,
    ) -> None:
        addresses = [parse_address(endpoint) for endpoint in endpoints]
        if not addresses:
            raise ServiceError("a connection pool needs at least one endpoint")
        self._codec = codec
        self._connect_timeout = float(connect_timeout)
        self._max_restarts = int(max_restarts)
        self._allow_pickle = bool(allow_pickle)
        self._ssl_context = ssl_context
        self._auth_token = auth_token
        self._rebalance = bool(rebalance)
        self._endpoints: list[_PoolEndpoint] = []
        for index, address in enumerate(addresses):
            transport = self._fresh_transport(address)
            self._endpoints.append(_PoolEndpoint(index, address, transport))
        self._ring = HashRing(
            [endpoint.identity for endpoint in self._endpoints],
            slack=ring_slack,
        )
        #: Logical shard -> endpoint index; always ``ring.assign(live)``.
        self._routing: list[int] = list(self._ring.assign(self._live_set()))
        #: Membership epoch: bumped on every loss and re-admission.
        self._epoch = 0
        #: batch_id -> (epoch, endpoint index) recorded at dispatch; the
        #: exactly-once ledger completions are matched against.
        self._batch_routes: dict[int, tuple[int, int]] = {}
        #: Warm-handoff work queued by the prober for the coordinator
        #: thread: (shard, old endpoint index, new endpoint index).
        self._pending_handoffs: list[tuple[int, int, int]] = []
        self._listeners: list[Callable[[MembershipEvent], None]] = []
        self._failovers = 0
        self._readmissions = 0
        self._stale_completions = 0
        self._handoffs = 0
        self._handoff_entries = 0
        #: Reconnect attempts accumulated by transports since retired.
        self._restarts_retired = 0
        #: Round-robin cursor for draining banked frames fairly.
        self._drain_cursor = 0
        self._lock = threading.RLock()
        self._closed = False
        self._probe_interval = (
            float(probe_interval)
            if probe_interval is not None and probe_interval > 0
            else None
        )
        self._stop_probing = threading.Event()
        self._prober: threading.Thread | None = None
        if self._probe_interval is not None:
            self._prober = threading.Thread(
                target=self._probe_loop, daemon=True, name="gamma-pool-prober"
            )
            self._prober.start()

    def _fresh_transport(self, address: tuple) -> SocketTransport:
        return SocketTransport(
            address,
            codec=self._codec,
            connect_timeout=self._connect_timeout,
            max_restarts=self._max_restarts,
            allow_pickle=self._allow_pickle,
            ssl_context=self._ssl_context,
            auth_token=self._auth_token,
        )

    # -- routing --------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._endpoints)

    @property
    def endpoint_count(self) -> int:
        """How many endpoints the pool was built over (lost ones included)."""
        return len(self._endpoints)

    @property
    def lost_endpoints(self) -> tuple[int, ...]:
        """Endpoint indices currently lost, in index order."""
        with self._lock:
            return tuple(
                endpoint.index
                for endpoint in self._endpoints
                if endpoint.lost
            )

    @property
    def failovers(self) -> int:
        """How many logical shards were re-routed off a lost endpoint."""
        return self._failovers

    @property
    def readmissions(self) -> int:
        """How many healed endpoints the prober brought back."""
        return self._readmissions

    @property
    def stale_completions(self) -> int:
        """Completions dropped for arriving from a stale membership epoch."""
        return self._stale_completions

    @property
    def handoffs(self) -> int:
        """Shards migrated warm (kernel entries shipped ahead of traffic)."""
        return self._handoffs

    @property
    def handoff_entries(self) -> int:
        """Kernel cache entries moved by warm handoffs."""
        return self._handoff_entries

    @property
    def epoch(self) -> int:
        """The current membership epoch."""
        return self._epoch

    @property
    def routing(self) -> tuple[int, ...]:
        """The current shard -> endpoint map (a ring-assignment snapshot)."""
        with self._lock:
            return tuple(self._routing)

    def endpoint_of(self, shard_id: int) -> int:
        """The endpoint index currently serving a logical shard."""
        return self._routing[shard_id]

    def add_membership_listener(
        self, listener: Callable[[MembershipEvent], None]
    ) -> None:
        """Call ``listener`` after every loss/re-admission (outside the
        pool lock, from whichever thread observed the change)."""
        self._listeners.append(listener)

    def _live_set(self) -> frozenset[int]:
        return frozenset(
            endpoint.index for endpoint in self._endpoints if not endpoint.lost
        )

    def _live_endpoints(self) -> list[_PoolEndpoint]:
        return [endpoint for endpoint in self._endpoints if not endpoint.lost]

    def _endpoint_for(self, shard_id: int) -> SocketTransport:
        endpoint = self._endpoints[self._routing[shard_id]]
        if endpoint.transport is None:  # pragma: no cover - defensive
            raise TransportSendError(
                f"endpoint {endpoint.index} is lost; shard {shard_id} "
                "awaits re-routing"
            )
        return endpoint.transport

    def _notify(self, event: MembershipEvent) -> None:
        for listener in list(self._listeners):
            with contextlib.suppress(Exception):
                listener(event)

    def _rebalance_locked(self) -> tuple[tuple[int, int, int], ...]:
        """Recompute routing from the ring; returns the moved shards.

        Caller holds the lock and has already flipped the membership
        bit; this bumps the epoch and rewrites the routing table.
        """
        live = self._live_set()
        if not live:
            raise WorkerCrashError(
                f"all {len(self._endpoints)} pool endpoints are lost; "
                "restart budgets exhausted"
            )
        self._epoch += 1
        new_routing = list(self._ring.assign(live))
        moved = tuple(
            (shard, old, new)
            for shard, (old, new) in enumerate(zip(self._routing, new_routing))
            if old != new
        )
        self._routing = new_routing
        return moved

    # -- structure shipping (tracked per endpoint connection) -----------
    def unshipped(self, shard_id: int, signatures: Iterable[str]) -> set[str]:
        self._drain_handoffs()
        with self._lock:
            return self._endpoint_for(shard_id).unshipped(0, signatures)

    def mark_shipped(self, shard_id: int, signatures: Iterable[str]) -> None:
        with self._lock:
            self._endpoint_for(shard_id).mark_shipped(0, signatures)

    def unship(self, shard_id: int, signatures: Iterable[str]) -> None:
        with self._lock:
            self._endpoint_for(shard_id).unship(0, signatures)

    # -- dispatch and poll ----------------------------------------------
    def submit(self, batch: GammaBatch) -> None:
        self._drain_handoffs()
        with self._lock:
            index = self._routing[batch.shard_id]
            endpoint = self._endpoints[index]
            if endpoint.lost or endpoint.transport is None:
                raise TransportSendError(
                    f"endpoint {index} is lost; shard {batch.shard_id} "
                    "awaits re-routing"
                )
            endpoint.transport.submit(batch)
            self._batch_routes[batch.batch_id] = (self._epoch, index)

    def _admit(self, index: int, message: tuple | None) -> tuple | None:
        """Epoch-filter one received message (exactly-once acceptance).

        Batch completions must come from the endpoint the batch was
        dispatched to; anything else -- a pre-rebalance duplicate, or a
        completion for a batch already accepted -- is stale and dropped.
        Accepted completions are stamped with their dispatch epoch.
        """
        if message is None or message[0] != MSG_BATCH or len(message) == 2:
            return message
        kind, shard_id, batch_id, results, report = message
        with self._lock:
            route = self._batch_routes.get(batch_id)
            if route is None or route[1] != index:
                self._stale_completions += 1
                return None
            del self._batch_routes[batch_id]
        return (kind, shard_id, batch_id, results, replace(report, epoch=route[0]))

    def poll(self, timeout: float) -> tuple | None:
        self._drain_handoffs()
        with self._lock:
            live = [
                endpoint
                for endpoint in self._endpoints
                if not endpoint.lost and endpoint.transport is not None
            ]
        if not live:
            time.sleep(min(max(timeout, 0.0), 0.01))
            return None
        # Banked frames first, rotating the starting endpoint so a busy
        # server cannot starve the others' completions.
        for offset in range(len(live)):
            endpoint = live[(self._drain_cursor + offset) % len(live)]
            message = self._admit(
                endpoint.index, endpoint.transport.buffered_message()
            )
            if message is not None:
                self._drain_cursor = (self._drain_cursor + offset + 1) % len(live)
                return message
        # Nothing banked: wait on every live connection at once.  An
        # endpoint whose socket fd is already gone (a severed connection
        # not yet observed by any submit) would poison select for every
        # healthy endpoint, so probe it dead instead of selecting on it;
        # once flagged, crashed_shards surfaces its logical shards.
        readable_map = {}
        for endpoint in live:
            transport = endpoint.transport
            if transport.is_dead:
                continue
            if transport.raw_socket.fileno() < 0:
                transport.poll(0.0)  # observes the closed socket: marks dead
                continue
            readable_map[transport.raw_socket] = endpoint
        if not readable_map:
            return None
        try:
            readable, _, _ = select.select(
                list(readable_map), [], [], max(timeout, 0.0)
            )
        except (OSError, ValueError):
            # A socket died between the fd check and select; let every
            # endpoint observe its own state so the next poll selects
            # only on the healthy ones.
            for endpoint in readable_map.values():
                if endpoint.transport.raw_socket.fileno() < 0:
                    endpoint.transport.poll(0.0)
            return None
        for sock in readable:
            endpoint = readable_map[sock]
            message = self._admit(endpoint.index, endpoint.transport.poll(0.0))
            if message is not None:
                return message
        return None

    # -- crash handling: endpoint granularity ---------------------------
    def crashed_shards(self, shard_ids: Iterable[int]) -> tuple[int, ...]:
        with self._lock:
            crashed = []
            for shard_id in shard_ids:
                endpoint = self._endpoints[self._routing[shard_id]]
                if (
                    endpoint.lost
                    or endpoint.transport is None
                    or endpoint.transport.is_dead
                ):
                    crashed.append(shard_id)
            return tuple(crashed)

    def recover(self, shard_id: int) -> None:
        """Reconnect the shard's endpoint, or rebalance it off.

        Reconnection is independent per endpoint (its own restart
        budget, with jittered backoff inside
        :meth:`SocketTransport.recover`).  When the endpoint cannot be
        brought back it is marked lost, the ring reassigns *every* one
        of its shards onto survivors under the bounded-load cap, and
        the prober starts watching the address for re-admission.
        Sibling shards' ``recover`` calls then see a live route and
        return; the coordinator re-ships and re-dispatches per shard.
        Raises :class:`WorkerCrashError` only when no endpoint
        survives.
        """
        event: MembershipEvent | None = None
        with self._lock:
            endpoint = self._endpoints[self._routing[shard_id]]
            if not endpoint.lost and endpoint.transport is not None:
                if not endpoint.transport.is_dead:
                    return  # a sibling shard's recover already fixed it
                try:
                    endpoint.transport.recover(0)
                    return
                except (WorkerCrashError, ServiceError):
                    event = self._mark_lost_locked(endpoint)
        if event is not None:
            self._notify(event)

    def _mark_lost_locked(self, endpoint: _PoolEndpoint) -> MembershipEvent:
        """Retire a dead endpoint and rebalance its shards (lock held)."""
        transport = endpoint.transport
        if transport is not None:
            self._restarts_retired += transport.restarts
            with contextlib.suppress(Exception):
                transport.close()
        endpoint.transport = None
        endpoint.lost = True
        endpoint.probe_backoff.reset()
        endpoint.next_probe_at = time.monotonic() + endpoint.probe_backoff.next()
        moved = self._rebalance_locked()
        self._failovers += len(moved)
        return ("lost", endpoint.index, self._epoch, moved)

    # -- health probing and re-admission --------------------------------
    def _probe_loop(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop_probing.wait(self._probe_interval):
            with contextlib.suppress(Exception):
                self.probe_now()

    def probe_now(self, *, force: bool = False, drain: bool = False) -> tuple[int, ...]:
        """Probe lost endpoints now; re-admit the ones that answer.

        ``force`` ignores the per-endpoint backoff gate (deterministic
        tests and ops tooling); ``drain`` runs queued warm handoffs
        inline, which is only safe from the thread that also drives
        submit/poll.  Returns the re-admitted endpoint indices.
        """
        now = time.monotonic()
        with self._lock:
            due = [
                endpoint
                for endpoint in self._endpoints
                if endpoint.lost and (force or now >= endpoint.next_probe_at)
            ]
        # A probe slower than the probe interval would make the prober
        # fall behind its own schedule, so the per-probe timeout is the
        # shared connect default clamped to the interval.
        probe_timeout = min(
            self._connect_timeout, self._probe_interval or DEFAULT_CONNECT_TIMEOUT
        )
        readmitted: list[int] = []
        for endpoint in due:
            if probe_endpoint(
                endpoint.address,
                timeout=probe_timeout,
                codec=self._codec,
                ssl_context=self._ssl_context,
                auth_token=self._auth_token,
            ):
                if self._readmit(endpoint):
                    readmitted.append(endpoint.index)
            else:
                with self._lock:
                    endpoint.next_probe_at = (
                        time.monotonic() + endpoint.probe_backoff.next()
                    )
        if drain:
            self._drain_handoffs()
        return tuple(readmitted)

    def _readmit(self, endpoint: _PoolEndpoint) -> bool:
        """Bring a probed-healthy endpoint back into the membership."""
        try:
            transport = self._fresh_transport(endpoint.address)
        except ServiceError:
            with self._lock:
                endpoint.next_probe_at = (
                    time.monotonic() + endpoint.probe_backoff.next()
                )
            return False
        with self._lock:
            if not endpoint.lost:  # pragma: no cover - lost a race, fine
                transport.close()
                return False
            endpoint.transport = transport
            endpoint.lost = False
            endpoint.probe_backoff.reset()
            self._readmissions += 1
            moved = self._rebalance_locked()
            if self._rebalance:
                self._pending_handoffs.extend(moved)
            event: MembershipEvent = (
                "readmitted",
                endpoint.index,
                self._epoch,
                moved,
            )
        self._notify(event)
        return True

    # -- warm-kernel handoff --------------------------------------------
    def _drain_handoffs(self) -> None:
        """Run queued shard migrations (coordinator thread only).

        The prober must not touch live sockets, so it queues the moves;
        the next pool call from the coordinator thread ships them,
        before any new batch for the moved shard is dispatched (dispatch
        calls ``unshipped`` first, which drains).
        """
        while True:
            with self._lock:
                if not self._pending_handoffs:
                    return
                shard, old_index, new_index = self._pending_handoffs.pop(0)
                if self._routing[shard] != new_index:
                    continue  # membership moved on; this handoff is stale
                source = self._endpoints[old_index].transport
                target = self._endpoints[new_index].transport
            if source is None or target is None or source.is_dead:
                continue  # old endpoint gone: the shard starts cold
            with contextlib.suppress(ServiceError, OSError):
                self._handoff_shard(shard, source, target)

    def _handoff_shard(
        self, shard: int, source: SocketTransport, target: SocketTransport
    ) -> None:
        """Move one shard's warm kernels from ``source`` to ``target``."""
        shards = len(self._endpoints)
        signatures = sorted(
            signature
            for signature in source.shipped
            if shard_of(signature, shards) == shard
        )
        if not signatures:
            return
        payload = source.export_kernel_entries(signatures)
        if not payload:
            return
        entries = target.import_kernel_entries(payload)
        with self._lock:
            self._handoffs += 1
            self._handoff_entries += entries

    @property
    def restarts(self) -> int:
        """Reconnect attempts across all endpoint connections, ever."""
        with self._lock:
            live = sum(
                endpoint.transport.restarts
                for endpoint in self._endpoints
                if endpoint.transport is not None
            )
            return live + self._restarts_retired

    def inject_crash(self, shard_id: int) -> None:
        """Sever the shard's endpoint connection (test/ops hook)."""
        self._endpoint_for(shard_id).inject_crash(0)

    # -- introspection and shutdown -------------------------------------
    def fetch_stats(self, timeout: float = 10.0) -> dict[str, int]:
        """Exact service-wide stats: every live server probed and merged.

        Counter gauges sum across the disjoint servers; the latency
        percentiles (``*_ms``) are not additive, so the federation
        reports the *worst* server's value instead.  ``timeout`` bounds
        the whole probe, not each endpoint: the budget is pre-split
        across the live endpoints (known-dead connections are skipped
        up front) and a fast endpoint's unused slice rolls forward, so
        N slow servers cannot stretch one call past the caller's
        deadline -- the old shared-deadline loop still gave every
        endpoint a floor slice *plus* an unbounded frame write, which
        with >= 2 hung endpoints pushed total wall time well past
        ``timeout``.
        """
        deadline = time.monotonic() + timeout
        reports = []
        with self._lock:
            live = [
                endpoint.transport
                for endpoint in self._endpoints
                if not endpoint.lost
                and endpoint.transport is not None
                and not endpoint.transport.is_dead
            ]
        for position, transport in enumerate(live):
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                break
            budget = remaining / (len(live) - position)
            try:
                reports.append(transport.fetch_stats(budget))
            except ServiceError:
                # A dying endpoint noticed by a stats probe: skip it here;
                # the transport has marked itself dead, so the next
                # dispatch retires it through the normal failover path.
                continue
        if not reports:
            raise ServiceError("no live pool endpoint to fetch stats from")
        merged: dict = merge_kernel_stats(
            {
                key: value
                for key, value in report.items()
                if not key.endswith("_ms")
            }
            for report in reports
        )
        for key in {
            key for report in reports for key in report if key.endswith("_ms")
        }:
            merged[key] = round(
                max(float(report.get(key, 0.0)) for report in reports), 3
            )
        with self._lock:
            merged["pool_endpoints"] = len(self._endpoints)
            merged["pool_lost_endpoints"] = sum(
                1 for endpoint in self._endpoints if endpoint.lost
            )
            merged["pool_restarts"] = self.restarts
            merged["pool_failovers"] = self._failovers
            merged["pool_readmissions"] = self._readmissions
            merged["pool_handoffs"] = self._handoffs
            merged["pool_handoff_entries"] = self._handoff_entries
            merged["pool_stale_completions"] = self._stale_completions
            merged["pool_epoch"] = self._epoch
        return merged

    def close(self, *, snapshot: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop_probing.set()
        if self._prober is not None:
            self._prober.join(timeout=2.0)
        for endpoint in self._endpoints:
            if endpoint.transport is not None:
                with contextlib.suppress(Exception):
                    endpoint.transport.close(snapshot=snapshot)

    def __repr__(self) -> str:
        with self._lock:
            lost = [
                endpoint.index for endpoint in self._endpoints if endpoint.lost
            ]
            return (
                f"PooledTransport(endpoints={len(self._endpoints)}, "
                f"lost={lost}, epoch={self._epoch}, "
                f"failovers={self._failovers}, "
                f"readmissions={self._readmissions})"
            )
