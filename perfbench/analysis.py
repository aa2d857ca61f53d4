"""Per-layer metrics from the spans of a traced run.

A layer's self time is its span's duration minus the time its child
spans cover (children run nested in the same thread).  A round trip is
joined across processes by batch id on the shared monotonic clock: it
starts when the client transport submits the batch and ends when the
client has decoded the reply.  Its per-hop split attributes every
instant of that window to the innermost piece of work running then on
either side (the latest-started active span), to the queue between
admission and dispatch, or, when nothing instrumented runs, to
``wire`` (kernel socket buffers, thread wake-ups and recv calls), so
the hops of one round trip sum to its duration exactly.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.harness import percentile

#: Which hop a span's exclusive time belongs to, per process.
CLIENT_HOPS = {
    "codec.encode": "client_encode",
    "transport.submit": "client_send",
    "codec.decode": "client_decode",
    "codec.from_wire": "client_decode",
}
SERVER_HOPS = {
    "codec.decode": "server_decode",
    "codec.from_wire": "server_decode",
    "server.enqueue": "server_admit",
    "server.dispatch": "dispatch",
    "server.evaluate": "dispatch",
    "backend.evaluate": "dispatch",
    "backend.submit": "dispatch",
    "kernel.batch": "dispatch",
    "kernel.partition": "kernel",
    "kernel.entry": "kernel",
    "kernel.stats": "stats_snapshot",
    "codec.encode": "server_encode",
    "server.send": "server_send",
}
HOPS = (
    "client_encode",
    "client_send",
    "wire",
    "server_decode",
    "server_admit",
    "queue_wait",
    "dispatch",
    "kernel",
    "stats_snapshot",
    "server_encode",
    "server_send",
    "client_decode",
)


def _self_times(spans) -> dict[int, int]:
    """Span id -> duration minus its direct children's durations (ns)."""
    child_time: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent:
            child_time[span.parent] += span.duration
    return {span.sid: span.duration - child_time[span.sid] for span in spans}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _server_tenants(spans) -> dict[int, str]:
    """Span id -> tenant name, from the spans that know their tenant.

    Reader threads learn theirs from admission, writer threads from
    sends, and dispatch subtrees from their root.
    """
    thread_tenant: dict[int, str] = {}
    for span in spans:
        if span.name in ("server.enqueue", "server.send") and span.attrs:
            thread_tenant[span.tid] = span.attrs["tenant"]
    by_id = {span.sid: span for span in spans}
    tenant_of: dict[int, str] = {}
    for span in spans:
        if span.name == "server.dispatch":
            tenant_of[span.sid] = span.attrs["tenant"]
    for span in spans:
        if span.sid in tenant_of:
            continue
        node = span
        while node is not None and node.sid not in tenant_of and node.parent:
            node = by_id.get(node.parent)
        if node is not None and node.sid in tenant_of:
            tenant_of[span.sid] = tenant_of[node.sid]
        elif span.tid in thread_tenant:
            tenant_of[span.sid] = thread_tenant[span.tid]
    return tenant_of


def _matches(tenant: str | None, foreground_tenant: str | None) -> bool:
    """Whether a server span belongs to the foreground tenant (``None``:
    a single-connection workload, where every span does)."""
    return foreground_tenant is None or tenant == foreground_tenant


def _attribute(window: tuple[int, int], candidates: list) -> dict[str, int]:
    """Split ``window`` over hops: each instant goes to the latest-started
    active candidate ``(start, end, order, hop)``, else to ``wire``."""
    low, high = window
    clipped = [
        (max(start, low), min(end, high), start, order, hop)
        for start, end, order, hop in candidates
        if end > low and start < high
    ]
    bounds = sorted({low, high, *(c[0] for c in clipped), *(c[1] for c in clipped)})
    split: dict[str, int] = defaultdict(int)
    for left, right in zip(bounds, bounds[1:]):
        active = [c for c in clipped if c[0] <= left and c[1] >= right]
        if active:
            hop = max(active, key=lambda c: (c[2], c[3]))[4]
        else:
            hop = "wire"
        split[hop] += right - left
    return split


def round_trips(client_spans, server_spans, foreground_tenant) -> list[dict]:
    """Per-hop split (ns) of every foreground round trip joined across
    processes; ``foreground_tenant`` is the server-side tenant name, or
    ``None`` when the client holds the server's only connection."""
    tenant_of = _server_tenants(server_spans)
    server_by_rid: dict[int, list] = defaultdict(list)
    for span in server_spans:
        if span.rid is not None and _matches(tenant_of.get(span.sid), foreground_tenant):
            server_by_rid[span.rid].append(span)
    client_by_rid: dict[int, list] = defaultdict(list)
    for span in client_spans:
        if span.rid is not None:
            client_by_rid[span.rid].append(span)
    trips = []
    for rid, spans in client_by_rid.items():
        submits = [s for s in spans if s.name == "transport.submit"]
        replies = [s for s in spans if s.name == "codec.from_wire"]
        server = server_by_rid.get(rid, [])
        if not submits or not replies or not server:
            continue
        window = (min(s.start for s in submits), max(s.end for s in replies))
        candidates = [
            (s.start, s.end, s.sid, CLIENT_HOPS[s.name])
            for s in spans
            if s.name in CLIENT_HOPS
        ]
        candidates += [
            (s.start, s.end, s.sid, SERVER_HOPS[s.name])
            for s in server
            if s.name in SERVER_HOPS
        ]
        admitted = [s.end for s in server if s.name == "server.enqueue"]
        dispatched = [s.start for s in server if s.name == "server.dispatch"]
        if admitted and dispatched:
            candidates.append((min(admitted), max(dispatched), 0, "queue_wait"))
        split = _attribute(window, candidates)
        split["rtt"] = window[1] - window[0]
        trips.append(split)
    return trips


def hop_metrics(trips: list[dict]) -> dict[str, float]:
    """Mean hop split (us) of the round trips in the central fifth by RTT,
    so the hops sum to about the median round trip."""
    metrics = {f"hop.{hop}_us": 0.0 for hop in HOPS}
    metrics["trace.hop_sum_us"] = 0.0
    if not trips:
        return metrics
    ordered = sorted(trips, key=lambda trip: trip["rtt"])
    count = len(ordered)
    band = ordered[int(count * 0.4) : max(int(count * 0.6), int(count * 0.4) + 1)]
    for hop in HOPS:
        metrics[f"hop.{hop}_us"] = _mean(trip.get(hop, 0) for trip in band) / 1000.0
    metrics["trace.hop_sum_us"] = sum(metrics[f"hop.{hop}_us"] for hop in HOPS)
    return metrics


def layer_metrics(
    *,
    client_spans,
    server_spans,
    handshake_spans,
    foreground_tid: int,
    foreground_tenant: str,
    units: int,
    stats_before: dict,
    stats_after: dict,
    coordinator_before: dict,
    coordinator_after: dict,
) -> dict[str, float]:
    """Every per-layer metric derivable from spans and counter deltas."""
    units = max(units, 1)
    client = [s for s in client_spans if s.tid == foreground_tid]
    tenant_of = _server_tenants(server_spans)
    client_self = _self_times(client)
    server_self = _self_times(server_spans)
    by_name: dict[str, list] = defaultdict(list)
    for span in client:
        by_name[span.name].append(span)
    server_by_name: dict[str, list] = defaultdict(list)
    for span in server_spans:
        server_by_name[span.name].append(span)
    foreground = [
        s for s in server_spans if _matches(tenant_of.get(s.sid), foreground_tenant)
    ]
    fg_by_name: dict[str, list] = defaultdict(list)
    for span in foreground:
        fg_by_name[span.name].append(span)

    def delta(key: str) -> float:
        return float(stats_after.get(key, 0)) - float(stats_before.get(key, 0))

    metrics: dict[str, float] = {}

    # solver
    solves = by_name["solver.solve"]
    gammas = by_name["coordinator.gammas"]
    solve_ids = {s.sid for s in solves}
    per_solve_keys: dict[int, list] = defaultdict(list)
    for span in gammas:
        if span.parent in solve_ids:
            per_solve_keys[span.parent].extend(span.attrs["keys"])
    requests = sum(len(keys) for keys in per_solve_keys.values())
    distinct = sum(len(set(keys)) for keys in per_solve_keys.values())
    solved = max(len(solves), 1)
    metrics["solver.nodes"] = _mean(s.attrs["nodes"] for s in solves)
    metrics["solver.requests"] = requests / solved
    metrics["solver.distinct_ratio"] = distinct / requests if requests else 0.0
    metrics["solver.round_trips"] = (
        sum(1 for s in gammas if s.parent in solve_ids) / solved
    )
    metrics["solver.self_ms"] = _mean(client_self[s.sid] for s in solves) / 1e6

    # coordinator
    metrics["coordinator.self_us"] = _mean(client_self[s.sid] for s in gammas) / 1e3
    submits = by_name["transport.submit"]
    metrics["coordinator.batches"] = len(submits) / units
    metrics["coordinator.retried"] = float(
        coordinator_after.get("retried_batches", 0)
        - coordinator_before.get("retried_batches", 0)
    )
    metrics["coordinator.overloads"] = float(
        coordinator_after.get("overloads", 0) - coordinator_before.get("overloads", 0)
    )

    # transport
    metrics["transport.submit_us"] = _mean(s.duration for s in submits) / 1e3
    metrics["transport.wait_us"] = (
        sum(s.duration for s in by_name["transport.poll"]) / max(len(submits), 1) / 1e3
    )
    metrics["transport.bytes_out"] = (
        sum(s.attrs["bytes"] for s in by_name["codec.encode"]) / units
    )
    metrics["transport.bytes_in"] = (
        sum(s.attrs["bytes"] for s in by_name["codec.decode"]) / units
    )

    # codec, both processes, foreground traffic
    encodes = by_name["codec.encode"] + fg_by_name["codec.encode"]
    decodes = by_name["codec.decode"] + fg_by_name["codec.decode"]
    from_wire = by_name["codec.from_wire"] + fg_by_name["codec.from_wire"]
    metrics["codec.encode_us"] = _mean(s.duration for s in encodes) / 1e3
    metrics["codec.decode_us"] = (
        (sum(s.duration for s in decodes) + sum(s.duration for s in from_wire))
        / max(len(decodes), 1)
        / 1e3
    )
    metrics["codec.frame_bytes"] = _mean(s.attrs["bytes"] for s in encodes)

    # server and security
    trips = round_trips(client, server_spans, foreground_tenant)
    rtts = [trip["rtt"] / 1e3 for trip in trips]
    dispatch = [s.duration / 1e3 for s in fg_by_name["server.dispatch"]]
    waits = [s.attrs["wait_ms"] for s in fg_by_name["server.dispatch"]]
    metrics["server.rtt_p50_us"] = statistics.median(rtts) if rtts else 0.0
    metrics["server.rtt_p99_us"] = percentile(rtts, 0.99)
    metrics["server.dispatch_us"] = statistics.median(dispatch) if dispatch else 0.0
    metrics["server.hop_us"] = metrics["server.rtt_p50_us"] - metrics["server.dispatch_us"]
    metrics["server.queue_wait_p50_ms"] = statistics.median(waits) if waits else 0.0
    metrics["server.queue_wait_p99_ms"] = percentile(waits, 0.99)
    metrics["server.batches"] = delta("server_batches") / units
    metrics["server.overloads"] = delta("server_overloads")
    metrics["server.errors"] = delta("server_errors")
    metrics["security.handshake_ms"] = _mean(s.duration for s in handshake_spans) / 1e6

    # kernel (server-wide: every tenant's work)
    metrics["kernel.partition_ms"] = (
        sum(server_self[s.sid] for s in server_by_name["kernel.partition"]) / units / 1e6
    )
    metrics["kernel.entry_ms"] = (
        sum(server_self[s.sid] for s in server_by_name["kernel.entry"]) / units / 1e6
    )
    metrics["kernel.partition_build_ms"] = delta("partition_build_ms") / units
    metrics["kernel.entry_fused_passes"] = delta("entry_fused_passes") / units
    hits, passes = delta("kernel_hits"), delta("grouping_passes")
    metrics["kernel.entry_hit_ratio"] = hits / (hits + passes) if hits + passes else 0.0
    metrics["kernel.evictions"] = delta("evictions")
    metrics["kernel.stats_snapshot_us"] = (
        sum(s.duration for s in server_by_name["kernel.stats"])
        / max(len(server_by_name["server.dispatch"]), 1)
        / 1e3
    )
    metrics.update(hop_metrics(trips))
    metrics["trace.round_trips"] = float(len(trips))
    return metrics
