"""End-to-end benchmark of the Gamma evaluation service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {solve_tcp,sweep_cold,tenants_mixed}
        --seed N --seconds S --trace {0,1}

``BENCHMARK.json`` lists ``solve_tcp`` and ``sweep_cold``.
``tenants_mixed`` runs the same way but is left out of it: on a shared
2-core host its figures fall into two regimes from run to run (foreground
throughput about 620 or 825 units/s), wider than any bound the benchmark
may set.

The client stack (solver, coordinator, transport, codec) runs in this
process; the ``GammaServer`` runs in a child process started by
``perfbench/server_main.py``.  The server is launched and connected
several times per run and the median launch-to-first-reply time is
``setup_s``; the last server serves the measured phase.  Every unit is
checked against an oracle computed outside its timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
of BENCHMARK.json.  With ``--trace 1`` the run measures the phase once
untraced and once with spans recorded in both processes, and reports
the per-layer metrics (and the traced-vs-untraced difference as
``trace.overhead_frac``).  The line before the result carries the run's
details: unit counts, tail percentile, floors and the host fingerprint.
The exit code is 0 when every unit matched its oracle.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Server launches per untraced phase; ``setup_s`` is their median.
SETUPS = 5

#: A run that has not finished measuring by then is aborted, so a
#: stalled server cannot keep a run alive past 180 s.
RUN_LIMIT_S = 150.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="minimal sizes (harness self-test)"
    )
    parser.add_argument(
        "--tamper-oracle",
        action="store_true",
        help="corrupt one oracle value; the run must then fail (self-test)",
    )
    return parser.parse_args(argv)


def run_phase(workload, workdir: str, *, trace: bool, setups: int, deadline: float) -> dict:
    """Launch (``setups`` times), warm, measure and stop one server."""
    from perfbench import harness
    from perfbench.spans import Span, Tracer, instrument_client

    setup_times = []
    for index in range(setups):
        last = index == setups - 1
        server, coordinators, setup_s = harness.launch(
            workdir,
            f"{'traced' if trace else 'plain'}-{index}",
            trace and last,
            workload.clients,
            **workload.server_options,
        )
        setup_times.append(setup_s)
        if not last:
            harness.shutdown(server, coordinators)
    try:
        workload.warm(coordinators)
        stats_before = coordinators[0].transport.fetch_stats()
        coordinator_before = _coordinator_counters(coordinators)
        server_before = server.mark()
        tracer = Tracer() if trace else None
        if tracer is not None:
            instrument_client(tracer)
        window_start = time.monotonic_ns()
        try:
            outcome = workload.measure(coordinators, deadline)
        finally:
            window_end = time.monotonic_ns()
            if tracer is not None:
                tracer.unpatch()
        server_after = server.mark()
        coordinator_after = _coordinator_counters(coordinators)
        stats_after = coordinators[0].transport.fetch_stats()
    finally:
        summary = harness.shutdown(server, coordinators)
    phase = {
        "setup_s": setup_times,
        "outcome": outcome,
        "peak_rss_mb": summary["maxrss_kb"] / 1024.0,
        "server_cpu_ms": server_after["cpu_ms"] - server_before["cpu_ms"],
        "stats_before": stats_before,
        "stats_after": stats_after,
        "coordinator_before": coordinator_before,
        "coordinator_after": coordinator_after,
    }
    if tracer is not None:
        server_spans = [Span.from_list(row) for row in summary["spans"]]
        phase["client_spans"] = _inside(tracer.spans(), outcome.unit_windows)
        phase["server_spans"] = [
            s for s in server_spans if window_start <= s.start and s.end <= window_end
        ]
        phase["handshake_spans"] = [
            s for s in server_spans if s.name == "security.handshake"
        ]
    return phase


def _inside(spans, windows: list[tuple[int, int]]) -> list:
    """The spans that lie within one of the (disjoint) timed units, so
    the oracles computed between units do not count as client work."""
    windows = sorted(windows)
    starts = [start for start, _ in windows]
    kept = []
    for span in spans:
        index = bisect.bisect_right(starts, span.start) - 1
        if index >= 0 and span.end <= windows[index][1]:
            kept.append(span)
    return kept


def _coordinator_counters(coordinators) -> dict:
    totals: dict[str, int] = {}
    for coordinator in coordinators:
        stats = coordinator.service_stats()
        for key in ("retried_batches", "overloads"):
            totals[key] = totals.get(key, 0) + int(stats.get(key, 0))
    return totals


def end_to_end(phase: dict) -> tuple[dict, dict]:
    from perfbench import harness

    outcome = phase["outcome"]
    attempted = len(outcome.latencies_ms)
    latency = harness.latency_summary(outcome.latencies_ms, outcome.wall_s * 1000.0)
    metrics = {
        "setup_s": (statistics.median(phase["setup_s"]), "s"),
        "latency_p50_ms": (latency["p50_ms"], "ms"),
        "latency_tail_ms": (latency["tail_ms"], "ms"),
        "units_per_s": ((attempted - outcome.failed) / outcome.wall_s, "1/s"),
        "success_rate": ((attempted - outcome.failed) / attempted, "ratio"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
    }
    return metrics, latency


def per_layer(workload, plain: dict, traced: dict, floors: dict) -> dict:
    from perfbench import analysis

    outcome = traced["outcome"]
    units = len(outcome.latencies_ms)
    metrics = analysis.layer_metrics(
        client_spans=traced["client_spans"],
        server_spans=traced["server_spans"],
        handshake_spans=traced["handshake_spans"],
        foreground_tid=threading.main_thread().ident,
        foreground_tenant=getattr(workload, "foreground_tenant", None),
        units=units,
        stats_before=traced["stats_before"],
        stats_after=traced["stats_after"],
        coordinator_before=traced["coordinator_before"],
        coordinator_after=traced["coordinator_after"],
    )
    metrics["server.cpu_ms"] = traced["server_cpu_ms"] / max(units, 1)
    metrics["client.cpu_ms"] = outcome.cpu_ms / max(units, 1)
    plain_outcome = plain["outcome"]
    metrics["bulk_units_per_s"] = plain_outcome.bulk_units / plain_outcome.wall_s
    attempted = len(plain_outcome.latencies_ms)
    metrics["error_rate"] = plain_outcome.failed / max(attempted, 1)
    metrics["trace.overhead_frac"] = outcome.wall_s / plain_outcome.wall_s - 1.0
    metrics.update(floors)
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: no src/repro package next to perfbench/; run from a "
            "full checkout of the repository\n"
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r} "
            f"(have {', '.join(sorted(WORKLOADS))})\n"
        )
        return 2
    if args.seconds < 1:
        sys.stderr.write("perfbench: --seconds must be >= 1\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    harness.cap_memory()
    harness.pin_cpu()
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds, tiny=args.tiny, tamper=args.tamper_oracle
    )
    workdir = harness.fresh_workdir()
    try:
        workload.prepare(workdir)
        plain = run_phase(
            workload,
            workdir,
            trace=False,
            setups=1 if args.trace else SETUPS,
            deadline=deadline,
        )
        traced = None
        if args.trace:
            traced = run_phase(workload, workdir, trace=True, setups=1, deadline=deadline)
        floors = {
            "floor.local_solve_ms": statistics.median(plain["outcome"].floor_ms),
            "floor.echo_rtt_us": harness.echo_rtt_us(200 if args.tiny else 2000),
            "host.calibration_ms": harness.calibration_ms(),
        }
    except harness.BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    finally:
        harness.remove_workdir(workdir)
    mismatches = plain["outcome"].mismatches + (
        traced["outcome"].mismatches if traced else []
    )
    e2e, latency = end_to_end(plain)
    outcome = plain["outcome"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "units": latency["samples"],
        "tail_percentile": latency["tail_percentile"],
        "bulk_units": outcome.bulk_units,
        "bulk_failed": outcome.bulk_failed,
        "setup_s_samples": plain["setup_s"],
        "mismatches": mismatches[:5],
        "host": harness.host_fingerprint(),
        **floors,
    }
    if traced is None:
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()
        }
    else:
        layers = per_layer(workload, plain, traced, floors)
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in layers.items()
        }
    print(json.dumps({"details": details}))
    attempted = len(outcome.latencies_ms) + outcome.bulk_units + outcome.bulk_failed
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": outcome.failed + outcome.bulk_failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if "bytes" in name:
        return "bytes"
    for suffix, unit in (
        ("_us", "us"),
        ("_ms", "ms"),
        ("_per_s", "1/s"),
        ("_ratio", "ratio"),
        ("_rate", "ratio"),
        ("_frac", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
