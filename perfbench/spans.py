"""In-memory span recording around calls into the service's layers.

The benchmark patches public functions of each layer with wrappers that
record one span per call: name, start, end, parent span and the request
id (the client coordinator's batch id) of the round trip the call
belongs to.  Spans stay in memory; the server launcher writes its spans
to a JSON file when it stops, and the client joins both sides by batch
id.  Every timestamp is ``time.monotonic_ns()``, which on Linux reads
the system-wide ``CLOCK_MONOTONIC``, so spans from the client and the
server process share one clock.

Where a caller imports a function by name (``from ... import f``), the
name is patched in the calling module, because patching the defining
module would not reach that caller.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

class Span:
    """One recorded call."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "tid", "attrs")

    def __init__(self, sid, name, start, parent, rid, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = 0
        self.parent = parent
        self.rid = rid
        self.tid = tid
        self.attrs = None

    def to_list(self) -> list:
        return [
            self.sid,
            self.name,
            self.start,
            self.end,
            self.parent,
            self.rid,
            self.tid,
            self.attrs,
        ]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5], row[6])
        span.end = row[3]
        span.attrs = row[7]
        return span

    @property
    def duration(self) -> int:
        return self.end - self.start


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.spans: list[Span] | None = None
        #: The span most recently closed in this thread, unless a span
        #: has opened since (its next sibling may share its request id).
        self.previous: Span | None = None


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._lists: list[list[Span]] = []
        self._lists_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Span names that take their first child's request id.
        self._adopters: set[str] = set()

    # -- recording -------------------------------------------------------
    def _thread_spans(self) -> list[Span]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lists_lock:
                self._lists.append(state.spans)
        return state.spans

    def wrap(
        self,
        function,
        name: str,
        *,
        rid_of_args=None,
        rid_of_result=None,
        attrs_of=None,
        inherit_rid: bool = True,
        adopt_child_rid: bool = False,
        rid_from_previous: bool = False,
        rid_to_previous: str | None = None,
    ):
        """``function`` wrapped to record one span per call.

        ``rid_of_args(args)`` / ``rid_of_result(result)`` extract the
        batch id; otherwise the span inherits its parent's
        (``inherit_rid``), its previous sibling's in the same thread
        (``rid_from_previous``), or hands a child's id up to itself
        (``adopt_child_rid``).  ``rid_to_previous`` names a sibling kind
        that closed just before this span and learns this span's id.
        ``attrs_of(args, result)`` returns a small JSON-able dict.
        """
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = tracer._state
            spans = tracer._thread_spans()
            stack = state.stack
            parent = stack[-1] if stack else None
            rid = rid_of_args(args) if rid_of_args is not None else None
            if rid is None and inherit_rid and parent is not None:
                rid = parent.rid
            span = Span(
                next(tracer._ids),
                name,
                time.monotonic_ns(),
                parent.sid if parent is not None else 0,
                rid,
                threading.get_ident(),
            )
            previous = state.previous
            stack.append(span)
            state.previous = None
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.monotonic_ns()
                stack.pop()
            if span.rid is None and rid_of_result is not None:
                span.rid = rid_of_result(result)
            if span.rid is None and rid_from_previous and previous is not None:
                span.rid = previous.rid
            if (
                rid_to_previous is not None
                and previous is not None
                and previous.name == rid_to_previous
                and previous.rid is None
            ):
                previous.rid = span.rid
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            spans.append(span)
            state.previous = span
            if (
                parent is not None
                and parent.rid is None
                and span.rid is not None
                and parent.name in tracer._adopters
            ):
                parent.rid = span.rid
            return result

        if adopt_child_rid:
            self._adopters.add(name)
        return wrapper

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` with a recording wrapper.

        Properties are wrapped through their getter.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(original, property):
            replacement = property(self.wrap(original.fget, name, **options))
        else:
            replacement = self.wrap(original, name, **options)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def spans(self) -> list[Span]:
        """Every closed span, in no particular order."""
        with self._lists_lock:
            return [span for spans in self._lists for span in spans]


# ---------------------------------------------------------------------- #
# What is patched, per process
# ---------------------------------------------------------------------- #
def message_rid(message) -> int | None:
    """The batch id a protocol message refers to, if any."""
    if not isinstance(message, tuple) or not message:
        return None
    kind = message[0]
    if kind == "batch":
        if len(message) == 2:  # request: ("batch", GammaBatch)
            return getattr(message[1], "batch_id", None)
        return message[2]  # reply: ("batch", shard, batch_id, results, report)
    if kind in ("error", "overload") and len(message) >= 3:
        return message[2]
    if kind == "need":
        return message[1]
    return None


def _patch_codec(tracer: Tracer) -> None:
    """Frame encode/decode, used by both processes."""
    from repro.service import protocol

    tracer.patch(
        protocol,
        "encode_frame",
        "codec.encode",
        rid_of_args=lambda args: message_rid(args[0]),
        attrs_of=lambda args, frame: {"bytes": len(frame)},
        inherit_rid=False,
    )
    tracer.patch(
        protocol,
        "decode_payload",
        "codec.decode",
        attrs_of=lambda args, result: {"bytes": len(args[0])},
        inherit_rid=False,
    )
    tracer.patch(
        protocol,
        "message_from_wire",
        "codec.from_wire",
        rid_of_result=message_rid,
        rid_to_previous="codec.decode",
        inherit_rid=False,
    )


def instrument_client(tracer: Tracer) -> None:
    """Spans around the solver, coordinator, transport and codec calls."""
    from repro.privacy import workflow_privacy
    from repro.service.coordinator import ShardCoordinator
    from repro.service.transport import SocketTransport

    def request_attrs(args, result) -> dict:
        # Callers (the solver and the benchmark) pass request lists.
        return {
            "keys": [
                (structure.signature, tuple(vi), tuple(vo))
                for structure, vi, vo in args[1]
            ]
        }

    tracer.patch(
        workflow_privacy,
        "exact_secure_view",
        "solver.solve",
        attrs_of=lambda args, result: {"nodes": result.evaluations},
    )
    tracer.patch(
        ShardCoordinator,
        "gammas",
        "coordinator.gammas",
        attrs_of=request_attrs,
        adopt_child_rid=True,
    )
    tracer.patch(
        SocketTransport,
        "submit",
        "transport.submit",
        rid_of_args=lambda args: args[1].batch_id,
    )
    tracer.patch(
        SocketTransport,
        "poll",
        "transport.poll",
        rid_of_result=message_rid,
        inherit_rid=False,
    )
    _patch_codec(tracer)


def instrument_server(tracer: Tracer) -> None:
    """Spans around the server, scheduler, security, backend and kernel."""
    from repro.privacy.kernel_registry import GammaKernelRegistry, SharedGammaKernel
    from repro.service import server, transport
    from repro.service.coordinator import ShardCoordinator

    tracer.patch(server.GammaServer, "_handshake", "security.handshake")
    tracer.patch(
        server._FairScheduler,
        "enqueue",
        "server.enqueue",
        rid_of_args=lambda args: args[2][0].batch_id,
        attrs_of=lambda args, result: {"tenant": args[1].name},
    )
    tracer.patch(
        server.GammaServer,
        "_dispatch_item",
        "server.dispatch",
        rid_of_args=lambda args: args[2][0].batch_id,
        attrs_of=lambda args, result: {
            "wait_ms": args[3],
            "tenant": args[1].name,
        },
    )
    tracer.patch(server.GammaServer, "_evaluate", "server.evaluate")
    tracer.patch(ShardCoordinator, "evaluate", "backend.evaluate")
    tracer.patch(transport.InProcessTransport, "submit", "backend.submit")
    tracer.patch(transport, "process_batch", "kernel.batch")
    tracer.patch(SharedGammaKernel, "partition", "kernel.partition")
    tracer.patch(SharedGammaKernel, "entry", "kernel.entry")
    tracer.patch(GammaKernelRegistry, "kernel_stats", "kernel.stats")
    tracer.patch(GammaKernelRegistry, "aggregate_counters", "kernel.stats")
    # The reply writer imports encode_frame by name.
    tracer.patch(
        server,
        "encode_frame",
        "codec.encode",
        rid_of_args=lambda args: message_rid(args[0]),
        attrs_of=lambda args, frame: {"bytes": len(frame)},
        inherit_rid=False,
    )
    tracer.patch(
        server._Tenant,
        "_send_bytes",
        "server.send",
        rid_from_previous=True,
        attrs_of=lambda args, result: {"tenant": args[0].name},
    )
    _patch_codec(tracer)
