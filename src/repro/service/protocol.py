"""Wire protocol of the sharded Gamma evaluation service.

Davidson et al. decompose workflow-level privacy into per-module Gamma
subproblems, and PR 2's :class:`~repro.privacy.kernel_registry.RelationStructure`
made those subproblems *nameless*: a Gamma evaluation is fully described
by a canonical structure plus a (visible-inputs, visible-outputs) index
pair.  That is exactly what crosses the process boundary here -- never a
:class:`~repro.privacy.relations.ModuleRelation`, never attribute names
or values.

* :func:`shard_of` hash-partitions structures across shards by their
  process-independent :attr:`RelationStructure.signature`, so every
  evaluation of a given structure -- from any client relation, in any
  batch -- lands on the same worker's warm kernel;
* :class:`GammaTask` is one evaluation request; :class:`GammaBatch`
  groups the tasks bound for one shard together with the structures the
  shard has not seen yet (structures are shipped at most once per worker
  lifetime), and carries the ``request_id`` of the client-side logical
  request it belongs to -- the correlation key that lets a client keep
  several requests in flight and match out-of-order completions;
* :class:`TaskResult` carries the Gamma (and, when ``want="entry"``, the
  full kernel-entry payload) back; :class:`ShardReport` carries the
  shard's merged ``kernel_stats`` and warm-start gauges, is flagged
  ``retried`` by the coordinator when the batch had to be re-dispatched
  after a worker crash, and (coordinator-side) records the
  dispatch-to-result latency of its batch.

Everything here is a plain dataclass over ints, strings and tuples, so
batches pickle cheaply under either multiprocessing start method.

**Transport-neutral encoding.**  The socket transport cannot assume the
peer shares a pickle-compatible code base, so every protocol object has
a *wire form* built from nothing but lists, dicts, strings, ints and
bools (:func:`message_to_wire` / :func:`message_from_wire`).  Frames on
a socket are ``4-byte big-endian length || 1-byte codec tag || payload``
(:func:`write_frame` / :func:`read_frame`); the payload is the wire form
serialized with msgpack when the ``msgpack`` package is importable and
with pickle otherwise.  Because the wire form is plain data, both codecs
produce byte-for-byte the same structure on decode.  Pickle frames are
only safe between mutually trusting endpoints (unpickling runs code);
the server refuses them when ``allow_pickle=False``.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ServiceError
from repro.privacy.kernel_registry import RelationStructure

try:  # pragma: no cover - exercised only where msgpack is installed
    import msgpack  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - the baked image has no msgpack
    msgpack = None

try:  # pragma: no cover - exercised differently per environment
    import numpy as _np
except ImportError:  # pragma: no cover - the no-numpy fallback build
    _np = None

#: Control message asking a worker to snapshot its kernels and exit.
SHUTDOWN = "__shutdown__"

#: Control message making a worker die abruptly (``os._exit``) *without*
#: snapshotting -- the crash-recovery test hook.
CRASH = "__crash__"

#: ``GammaTask.want`` values: return only the Gamma, or the full entry.
WANT_GAMMA = "gamma"
WANT_ENTRY = "entry"

#: Message kinds exchanged between transports/servers and the coordinator.
MSG_BATCH = "batch"
MSG_ERROR = "error"
MSG_NEED = "need"
MSG_STATS = "stats"
MSG_STOP = "stop"
MSG_STOPPED = "stopped"
#: Liveness probe: ``("ping",)`` is answered with ``("pong", 0)`` inline
#: by the server's reader thread, so a health prober can distinguish "the
#: process accepts connections and speaks the protocol" from a half-open
#: TCP endpoint.
MSG_PING = "ping"
MSG_PONG = "pong"
#: Warm-handoff verbs: ``("export", (signature, ...))`` asks an endpoint
#: for the named kernels' structures and cache entries; the reply is
#: ``("exported", {signature: [structure, entries]})``.  ``("import",
#: payload)`` ships that payload to another endpoint, answered with
#: ``("imported", entry_count)``.
MSG_EXPORT = "export"
MSG_EXPORTED = "exported"
MSG_IMPORT = "import"
MSG_IMPORTED = "imported"
#: Admission control: ``("overload", shard_id, batch_id, retry_after_ms)``
#: is the server shedding a batch because the tenant's bounded queue is
#: full *and* its scheduling deficit is exhausted.  Clients surface it as
#: :class:`~repro.errors.ServiceOverloadError` instead of retrying
#: blindly; ``retry_after_ms`` estimates when the tenant's deficit will
#: cover its queued work again.
MSG_OVERLOAD = "overload"


def shard_of(signature: str, shards: int) -> int:
    """The shard owning ``signature`` among ``shards`` workers.

    Uses the leading 64 bits of the structure digest, which is stable
    across processes and machines -- the property that lets a restarted
    worker preload exactly the kernels it will be asked about.
    """
    if shards <= 0:
        raise ServiceError(f"shard count must be positive, got {shards}")
    return int(signature[:16], 16) % shards


@dataclass(frozen=True)
class GammaTask:
    """One Gamma evaluation: a structure signature plus a visibility pair."""

    task_id: int
    signature: str
    visible_inputs: tuple[int, ...]
    visible_outputs: tuple[int, ...]
    want: str = WANT_GAMMA

    def __post_init__(self) -> None:
        if self.want not in (WANT_GAMMA, WANT_ENTRY):
            raise ServiceError(f"unknown task payload kind {self.want!r}")


@dataclass(frozen=True)
class GammaBatch:
    """The tasks bound for one shard in one round trip.

    ``structures`` maps signature to canonical structure for exactly the
    signatures this shard has not been sent before; the worker registers
    them with its registry shard and resolves every later task by
    signature alone.  ``request_id`` names the client-side logical
    request (a client may keep several in flight); the server
    echoes ``batch_id`` back, and the coordinator maps it to the
    request, so completions may arrive in any order.
    """

    batch_id: int
    shard_id: int
    tasks: tuple[GammaTask, ...]
    structures: Mapping[str, RelationStructure] = field(default_factory=dict)
    request_id: int = 0


@dataclass(frozen=True)
class ShmTableRef:
    """A canonical row table published in a shared-memory segment.

    :class:`~repro.service.transport.MultiprocessTransport` substitutes
    one of these for the :class:`RelationStructure` in
    ``GammaBatch.structures`` when shipping to a worker on the same
    machine: the coordinator packs the structure's column matrices into
    a ``multiprocessing.shared_memory`` segment once, and every worker
    attaches zero-copy by name instead of unpickling its own copy of
    the row table.  The ref carries the shapes and domain sizes needed
    to map the buffer (see
    :meth:`~repro.privacy.columnar.NumpyTable.from_buffer`) plus the
    structure ``signature`` for registry keying and an integrity check.
    The segment is owned (created and unlinked) by the transport;
    workers only attach and close.
    """

    signature: str
    shm_name: str
    input_shape: tuple[int, int]
    output_shape: tuple[int, int]
    input_domain_sizes: tuple[int, ...]
    output_domain_sizes: tuple[int, ...]


@dataclass(frozen=True)
class TaskResult:
    """The outcome of one :class:`GammaTask`.

    ``counts`` and ``partition`` are populated only for ``want="entry"``
    tasks, keeping the common (Gamma-only) reply small on the wire.
    """

    task_id: int
    signature: str
    gamma: int
    counts: tuple[int, ...] | None = None
    partition: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ShardReport:
    """One shard's account of one processed batch.

    ``kernel_stats`` is the worker registry's aggregate at the time the
    batch completed (cumulative over the worker's lifetime, so the
    coordinator keeps only the latest report per shard) -- int work
    counters plus the float ``*_ms`` group-construction wall-time keys
    (:data:`repro.privacy.kernel_registry.TIMING_STAT_KEYS`);
    ``preloaded_entries`` counts cache entries restored from persisted
    snapshots at worker start -- the warm-start gauge; ``retried`` is
    set by the coordinator when this batch was re-dispatched after a
    worker crash; ``dispatch_latency_ms`` is stamped by the coordinator
    with the wall-clock time from batch dispatch to result receipt --
    the per-transport latency that E10 and ``bench_service`` break wall
    time down by.  ``queue_depth`` and ``queue_wait_ms`` are stamped by
    a fair-scheduling :class:`~repro.service.server.GammaServer`: how
    many requests this tenant had queued when the batch arrived, and
    how long the batch waited in its tenant queue before a dispatcher
    picked it up -- the per-tenant fairness gauges (0 on transports
    with no server-side queueing).
    """

    shard_id: int
    batch_id: int
    completed: int
    kernel_stats: Mapping[str, float]
    preloaded_entries: int = 0
    retried: bool = False
    dispatch_latency_ms: float = 0.0
    queue_depth: int = 0
    queue_wait_ms: float = 0.0
    #: Membership epoch of the pool routing that dispatched this batch,
    #: stamped by :class:`~repro.service.pool.PooledTransport` when the
    #: completion is accepted.  A completion arriving from an endpoint
    #: the batch is no longer routed to belongs to a pre-rebalance epoch
    #: and is dropped rather than double-counted.  0 on transports with
    #: no membership concept.
    epoch: int = 0
    #: How many client-side logical requests this batch's tasks belonged
    #: to, stamped by the coordinator when dispatch coalescing merged
    #: several requests' tasks into one IPC round trip (1 for a batch
    #: serving a single request, 0 on the uncoalesced path).
    coalesced_requests: int = 0
    #: Tenant identity the serving :class:`~repro.service.server.GammaServer`
    #: resolved for the connection (from the token handshake when auth is
    #: configured, an anonymous per-connection name otherwise; "" on
    #: transports with no server in the path).
    tenant: str = ""


# ---------------------------------------------------------------------- #
# Transport-neutral wire forms
# ---------------------------------------------------------------------- #
#: Tag opening a packed column-matrix wire form (vs legacy nested lists).
I64_TAG = "i64"


def columns_to_wire(columns: tuple[tuple[int, ...], ...]) -> list:
    """Canonical columns as one packed little-endian ``int64`` buffer.

    ``[I64_TAG, [n_columns, rows], raw_bytes]`` -- a dtype/shape/raw-bytes
    triple that both codecs carry natively (msgpack bin, pickle bytes),
    replacing the legacy nested ``list[list[int]]`` form that serialized
    one object per cell.  Packing uses numpy when importable and
    :mod:`struct` otherwise, producing identical bytes.
    """
    n_columns = len(columns)
    rows = len(columns[0]) if columns else 0
    if _np is not None:
        raw = _np.asarray(columns, dtype="<i8").reshape(n_columns, rows).tobytes()
    else:
        flat = [value for column in columns for value in column]
        raw = struct.pack(f"<{len(flat)}q", *flat)
    return [I64_TAG, [n_columns, rows], raw]


def columns_from_wire(wire: list) -> tuple[tuple[int, ...], ...]:
    """Invert :func:`columns_to_wire`; also accepts the legacy nested form."""
    if wire and wire[0] == I64_TAG:
        _, (n_columns, rows), raw = wire
        if _np is not None:
            matrix = _np.frombuffer(raw, dtype="<i8").reshape(n_columns, rows)
            return tuple(tuple(row) for row in matrix.tolist())
        flat = struct.unpack(f"<{n_columns * rows}q", raw)
        return tuple(
            flat[column * rows : (column + 1) * rows] for column in range(n_columns)
        )
    return tuple(tuple(column) for column in wire)


def structure_to_wire(structure: RelationStructure) -> list:
    """A :class:`RelationStructure` as domain sizes plus packed columns."""
    return [
        list(structure.input_domain_sizes),
        list(structure.output_domain_sizes),
        columns_to_wire(structure.input_columns),
        columns_to_wire(structure.output_columns),
    ]


def structure_from_wire(wire: list) -> RelationStructure:
    """Rebuild a :class:`RelationStructure` from its wire form.

    Accepts both the packed column triples this version emits and the
    nested-list columns of pre-PR-7 peers.
    """
    input_sizes, output_sizes, input_columns, output_columns = wire
    return RelationStructure(
        input_domain_sizes=tuple(input_sizes),
        output_domain_sizes=tuple(output_sizes),
        input_columns=columns_from_wire(input_columns),
        output_columns=columns_from_wire(output_columns),
    )


def task_to_wire(task: GammaTask) -> list:
    return [
        task.task_id,
        task.signature,
        list(task.visible_inputs),
        list(task.visible_outputs),
        task.want,
    ]


def task_from_wire(wire: list) -> GammaTask:
    task_id, signature, visible_inputs, visible_outputs, want = wire
    return GammaTask(
        task_id, signature, tuple(visible_inputs), tuple(visible_outputs), want
    )


def batch_to_wire(batch: GammaBatch) -> list:
    return [
        batch.batch_id,
        batch.shard_id,
        batch.request_id,
        [task_to_wire(task) for task in batch.tasks],
        {
            signature: structure_to_wire(structure)
            for signature, structure in batch.structures.items()
        },
    ]


def batch_from_wire(wire: list) -> GammaBatch:
    batch_id, shard_id, request_id, tasks, structures = wire
    return GammaBatch(
        batch_id,
        shard_id,
        tuple(task_from_wire(task) for task in tasks),
        {
            signature: structure_from_wire(structure)
            for signature, structure in structures.items()
        },
        request_id,
    )


def result_to_wire(result: TaskResult) -> list:
    return [
        result.task_id,
        result.signature,
        result.gamma,
        None if result.counts is None else list(result.counts),
        None if result.partition is None else list(result.partition),
    ]


def result_from_wire(wire: list) -> TaskResult:
    task_id, signature, gamma, counts, partition = wire
    return TaskResult(
        task_id,
        signature,
        gamma,
        None if counts is None else tuple(counts),
        None if partition is None else tuple(partition),
    )


def report_to_wire(report: ShardReport) -> list:
    return [
        report.shard_id,
        report.batch_id,
        report.completed,
        dict(report.kernel_stats),
        report.preloaded_entries,
        report.retried,
        report.dispatch_latency_ms,
        report.queue_depth,
        report.queue_wait_ms,
        report.epoch,
        report.coalesced_requests,
        report.tenant,
    ]


def report_from_wire(wire: list) -> ShardReport:
    return ShardReport(*wire)


def plain_to_wire(value: object) -> object:
    """Arbitrary nested tuples/ints/strings as codec-safe plain data.

    Kernel cache entries are keyed and valued by nested tuples of ints
    and strings (``("partition", (0, 1))`` and the like); msgpack knows
    nothing about tuples, so the wire form flattens them to lists.
    """
    if isinstance(value, (tuple, list)):
        return [plain_to_wire(item) for item in value]
    if isinstance(value, dict):
        return {key: plain_to_wire(item) for key, item in value.items()}
    return value


def plain_from_wire(value: object) -> object:
    """Invert :func:`plain_to_wire` (every sequence becomes a tuple)."""
    if isinstance(value, (tuple, list)):
        return tuple(plain_from_wire(item) for item in value)
    if isinstance(value, dict):
        return {key: plain_from_wire(item) for key, item in value.items()}
    return value


def kernel_export_to_wire(payload: Mapping[str, tuple]) -> dict:
    """A warm-handoff payload ``{signature: (structure, entries)}`` on the wire."""
    return {
        signature: [structure_to_wire(structure), plain_to_wire(entries)]
        for signature, (structure, entries) in payload.items()
    }


def kernel_export_from_wire(wire: Mapping[str, list]) -> dict[str, tuple]:
    """Invert :func:`kernel_export_to_wire`."""
    return {
        signature: (structure_from_wire(structure), plain_from_wire(entries))
        for signature, (structure, entries) in wire.items()
    }


def message_to_wire(message: tuple) -> list:
    """A coordinator/server message tuple as plain wire data.

    Handled shapes (first element is the message kind):

    * ``("batch", GammaBatch)`` -- client request;
    * ``("batch", shard_id, batch_id, results, report)`` -- completion;
    * ``("error", shard_id, batch_id, text)``;
    * ``("need", batch_id, [signature, ...])`` -- server asking the
      client to re-ship structures its cache no longer holds;
    * ``("export", [signature, ...])`` / ``("exported", payload)`` and
      ``("import", payload)`` / ``("imported", count)`` -- warm-handoff
      kernel transfer (:func:`kernel_export_to_wire`);
    * ``("ping",)`` / ``("pong", 0)`` -- liveness probe;
    * ``("stats",)`` / ``("stats", mapping)`` / ``("stop",)`` /
      ``("stopped", shard_id)`` -- passed through verbatim.
    """
    kind = message[0]
    if kind == MSG_BATCH and len(message) == 2:
        return [kind, batch_to_wire(message[1])]
    if kind == MSG_BATCH:
        _, shard_id, batch_id, results, report = message
        return [
            kind,
            shard_id,
            batch_id,
            [result_to_wire(result) for result in results],
            report_to_wire(report),
        ]
    if kind in (MSG_EXPORTED, MSG_IMPORT):
        return [kind, kernel_export_to_wire(message[1])]
    return [kind, *[list(part) if isinstance(part, tuple) else part for part in message[1:]]]


#: Element counts (kind included) each message kind's wire form may have:
#: a batch is a request (2) or a completion (5), stats a request (1) or a
#: reply (2).  Kinds not listed pass through for the receiver to reject.
MESSAGE_ARITY = {
    MSG_BATCH: (2, 5),
    MSG_ERROR: (4,),
    MSG_NEED: (3,),
    MSG_STATS: (1, 2),
    MSG_STOP: (1,),
    MSG_STOPPED: (2,),
    MSG_PING: (1,),
    MSG_PONG: (2,),
    MSG_EXPORT: (2,),
    MSG_EXPORTED: (2,),
    MSG_IMPORT: (2,),
    MSG_IMPORTED: (2,),
    MSG_OVERLOAD: (4,),
}


def message_from_wire(wire: list) -> tuple:
    """Invert :func:`message_to_wire`.

    Raises :class:`ServiceError` on any malformed wire form -- not a
    list, the wrong arity for its kind, a task, result or structure of
    the wrong shape -- so a reader can count the bad frame and drop its
    sender instead of dying on whatever the decoder tripped over.
    """
    try:
        return _decode_message(wire)
    except (
        TypeError,
        ValueError,
        KeyError,
        IndexError,
        AttributeError,
        OverflowError,
        struct.error,
    ) as exc:
        raise ServiceError(f"malformed wire message: {exc!r}") from None


def _decode_message(wire: list) -> tuple:
    if not isinstance(wire, (list, tuple)) or not wire:
        raise ServiceError(f"malformed wire message of type {type(wire).__name__}")
    kind = wire[0]
    arity = MESSAGE_ARITY.get(kind)
    if arity is not None and len(wire) not in arity:
        raise ServiceError(
            f"malformed {kind!r} message: {len(wire)} elements, expected {arity}"
        )
    if kind == MSG_BATCH and len(wire) == 2:
        return (kind, batch_from_wire(wire[1]))
    if kind == MSG_BATCH:
        _, shard_id, batch_id, results, report = wire
        return (
            kind,
            shard_id,
            batch_id,
            tuple(result_from_wire(result) for result in results),
            report_from_wire(report),
        )
    if kind == MSG_NEED:
        _, batch_id, signatures = wire
        return (kind, batch_id, tuple(signatures))
    if kind == MSG_EXPORT:
        return (kind, tuple(wire[1]))
    if kind in (MSG_EXPORTED, MSG_IMPORT):
        return (kind, kernel_export_from_wire(wire[1]))
    return tuple(wire)


# ---------------------------------------------------------------------- #
# Framing: length prefix + codec tag + encoded wire form
# ---------------------------------------------------------------------- #
#: Codec tags carried in the frame header.
CODEC_PICKLE = "pickle"
CODEC_MSGPACK = "msgpack"

_CODEC_BYTES = {CODEC_PICKLE: b"P", CODEC_MSGPACK: b"M"}
_CODEC_NAMES = {byte: name for name, byte in _CODEC_BYTES.items()}

#: Frames above this size are rejected before allocation (corruption guard).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def default_codec() -> str:
    """msgpack when importable, pickle otherwise (the baked fallback)."""
    return CODEC_MSGPACK if msgpack is not None else CODEC_PICKLE


def encode_payload(wire: object, codec: str) -> bytes:
    """Serialize an already-wire-form object with the chosen codec."""
    if codec == CODEC_PICKLE:
        return pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL)
    if codec == CODEC_MSGPACK:
        if msgpack is None:
            raise ServiceError("msgpack codec requested but msgpack is not installed")
        return msgpack.packb(wire, use_bin_type=True)
    raise ServiceError(f"unknown frame codec {codec!r}")


def decode_payload(payload: bytes, codec: str, *, allow_pickle: bool = True) -> object:
    """Deserialize a frame payload (refusing pickle when disallowed)."""
    if codec == CODEC_PICKLE:
        if not allow_pickle:
            raise ServiceError(
                "peer sent a pickle frame but this endpoint only accepts "
                "msgpack (allow_pickle=False)"
            )
        # Unpickling malformed bytes can raise nearly anything
        # (UnpicklingError, EOFError, AttributeError, ImportError, ...).
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise ServiceError(f"undecodable pickle frame: {exc!r}") from None
    if codec == CODEC_MSGPACK:
        if msgpack is None:
            raise ServiceError("msgpack frame received but msgpack is not installed")
        try:
            return msgpack.unpackb(payload, raw=False, strict_map_key=False)
        except ValueError as exc:  # msgpack's decode errors subclass it
            raise ServiceError(f"undecodable msgpack frame: {exc!r}") from None
    raise ServiceError(f"unknown frame codec {codec!r}")


def encode_frame(message: tuple, codec: str | None = None) -> bytes:
    """One message as a complete frame (header + payload)."""
    codec = codec or default_codec()
    payload = encode_payload(message_to_wire(message), codec)
    return _LENGTH.pack(len(payload)) + _CODEC_BYTES[codec] + payload


def decode_frame_from_buffer(
    buffer: bytearray, *, allow_pickle: bool = True, with_codec: bool = False
) -> tuple | None:
    """Decode and consume one complete frame from ``buffer``.

    Returns ``None`` when the buffer holds only part of a frame (the
    bytes are left in place for the caller to extend) -- this is what
    lets a polling client survive a receive timeout that lands
    mid-frame without desyncing the stream.  With ``with_codec=True``
    returns ``(message, codec)``, mirroring :func:`read_frame` for
    callers (the TLS server read path) that assemble frames from a
    buffer but still answer in the client's codec.  Raises
    :class:`ServiceError` on unknown codec tags and oversized lengths.
    """
    header_size = _LENGTH.size + 1
    if len(buffer) < header_size:
        return None
    (length,) = _LENGTH.unpack(bytes(buffer[: _LENGTH.size]))
    codec = _CODEC_NAMES.get(bytes(buffer[_LENGTH.size : header_size]))
    if codec is None:
        raise ServiceError(
            f"unknown frame codec tag {bytes(buffer[_LENGTH.size:header_size])!r}"
        )
    if length > MAX_FRAME_BYTES:
        raise ServiceError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    if len(buffer) < header_size + length:
        return None
    payload = bytes(buffer[header_size : header_size + length])
    del buffer[: header_size + length]
    message = message_from_wire(
        decode_payload(payload, codec, allow_pickle=allow_pickle)
    )
    return (message, codec) if with_codec else message


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes from ``sock``, or ``None`` on orderly EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ServiceError(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(sock: socket.socket, message: tuple, codec: str | None = None) -> None:
    """Send one framed message on a (blocking or timeout) socket."""
    sock.sendall(encode_frame(message, codec))


def read_frame(
    sock: socket.socket, *, allow_pickle: bool = True, with_codec: bool = False
) -> tuple | None:
    """Read one framed message; ``None`` on orderly EOF.

    With ``with_codec=True`` returns ``(message, codec)`` so a server
    can answer in whatever codec the client speaks.  Raises
    :class:`ServiceError` on torn frames, unknown codec tags and
    oversized lengths (a corrupted or hostile peer must not drive an
    arbitrary-size allocation).
    """
    header = _recv_exact(sock, _LENGTH.size + 1)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header[: _LENGTH.size])
    codec = _CODEC_NAMES.get(header[_LENGTH.size : _LENGTH.size + 1])
    if codec is None:
        raise ServiceError(f"unknown frame codec tag {header[-1:]!r}")
    if length > MAX_FRAME_BYTES:
        raise ServiceError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ServiceError("connection closed between frame header and payload")
    message = message_from_wire(
        decode_payload(payload, codec, allow_pickle=allow_pickle)
    )
    return (message, codec) if with_codec else message


def merge_kernel_stats(
    reports: Iterable[Mapping[str, float]]
) -> dict[str, float]:
    """Sum per-shard kernel statistics into one service-wide view.

    Every gauge/counter in the shard registries' ``kernel_stats`` is
    additive across disjoint shards (kernels, bytes, hits, evictions,
    and the ``*_ms`` wall-time attribution), so a plain key-wise sum is
    the correct merge.  Counters stay exact ints; the wall-time keys
    (:data:`repro.privacy.kernel_registry.TIMING_STAT_KEYS`) are floats
    and must not be truncated, so values keep their own numeric type.
    """
    totals: dict[str, float] = {}
    for stats in reports:
        for key, value in stats.items():
            increment = value if isinstance(value, float) else int(value)
            totals[key] = totals.get(key, 0) + increment
    return totals
