"""Process plumbing, floors and statistics shared by every workload."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVER_MAIN = os.path.join(ROOT, "perfbench", "server_main.py")

#: Registry-wide kernel cache budget of every benchmark server, as a
#: deployment would set ``repro serve --total-budget-bytes``: one cold
#: 2x10^5-row sweep fits, older kernels' entries are evicted.
SERVER_CACHE_BYTES = 384 * 1024 * 1024

#: Address-space cap of every benchmark process, so a runaway run fails
#: with MemoryError instead of exhausting the host.
MEMORY_CAP_BYTES = 3 * 1024 * 1024 * 1024


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


#: The one CPU every benchmark process runs on.  Client and server
#: share it: on a 2-vCPU virtual machine a wake-up across vCPUs added
#: 0.1 to 0.7 ms to each round trip, depending on the host's load at
#: the time, while on one CPU the round trip is the program's own
#: work.  Both sides wait for each other (every loop is closed), so
#: they seldom compete for it.
BENCH_CPU = min(os.sched_getaffinity(0))


def pin_cpu() -> None:
    os.sched_setaffinity(0, {BENCH_CPU})


def _server_preexec() -> None:
    cap_memory()
    pin_cpu()


def check_deadline(deadline: float) -> None:
    """Abort a run that has outlived its time limit."""
    if time.monotonic() > deadline:
        raise BenchError("the run exceeded its time limit")


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed unit)."""


def _read_json_line(process: subprocess.Popen, what: str) -> dict:
    line = process.stdout.readline()
    if not line:
        raise BenchError(f"{what} exited before answering (code {process.poll()})")
    return json.loads(line)


class ServerProcess:
    """One ``GammaServer`` in a child process, stopped through its stdin."""

    def __init__(
        self,
        workdir: str,
        *,
        name: str,
        trace: bool,
        tls: tuple[str, str] | None = None,
        policy: dict | None = None,
    ) -> None:
        self.summary_path = os.path.join(workdir, f"{name}-summary.json")
        config_path = os.path.join(workdir, f"{name}-config.json")
        config = {
            "trace": trace,
            "summary_path": self.summary_path,
            "policy": policy,
            "total_budget_bytes": SERVER_CACHE_BYTES,
        }
        if tls is not None:
            config["tls_cert"], config["tls_key"] = tls
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        self.process = subprocess.Popen(
            [sys.executable, SERVER_MAIN, config_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            preexec_fn=_server_preexec,
        )
        self.port = _read_json_line(self.process, "server")["port"]
        self.summary: dict | None = None

    def mark(self) -> dict:
        """The server process's CPU time and peak RSS so far."""
        self.process.stdin.write("mark\n")
        self.process.stdin.flush()
        return _read_json_line(self.process, "server")

    def stop(self) -> dict:
        """Close the server; returns its summary (stats, usage, spans)."""
        if self.summary is not None:
            return self.summary
        self.process.stdin.write("stop\n")
        self.process.stdin.flush()
        _read_json_line(self.process, "server")
        self.process.stdin.close()
        self.process.wait(timeout=30)
        self.process.stdout.close()
        with open(self.summary_path, "r", encoding="utf-8") as handle:
            self.summary = json.load(handle)
        return self.summary

    def kill(self) -> None:
        """Last-resort cleanup after an error."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def launch(workdir: str, name: str, trace: bool, clients: list[dict], **server_options):
    """Start a server and connect every client; returns (server, coordinators, s).

    The time runs from launching the server process to the first
    successful reply on every client connection (TLS and token
    handshake included).
    """
    from repro.service import ShardCoordinator

    started = time.perf_counter()
    server = ServerProcess(workdir, name=name, trace=trace, **server_options)
    coordinators = []
    try:
        scheme = "tls" if server_options.get("tls") else "tcp"
        for client in clients:
            coordinator = ShardCoordinator(
                address=f"{scheme}://127.0.0.1:{server.port}", **client
            )
            coordinators.append(coordinator)
            if not coordinator.transport.ping(timeout=30.0):
                raise BenchError("server did not answer the first ping")
        setup_s = time.perf_counter() - started
    except BaseException:
        for coordinator in coordinators:
            coordinator.close(snapshot=False)
        server.kill()
        raise
    return server, coordinators, setup_s


def shutdown(server: ServerProcess, coordinators) -> dict:
    for coordinator in coordinators:
        coordinator.close(snapshot=False)
    return server.stop()


# ---------------------------------------------------------------------- #
# Floors and host stamp
# ---------------------------------------------------------------------- #
def echo_rtt_us(round_trips: int) -> float:
    """Median round trip of a 64-byte stdlib TCP echo on the loopback."""
    process = subprocess.Popen(
        [sys.executable, SERVER_MAIN, "echo"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        preexec_fn=_server_preexec,
    )
    try:
        port = _read_json_line(process, "echo server")["port"]
        samples = []
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            message = b"x" * 64
            for _ in range(round_trips):
                started = time.perf_counter_ns()
                sock.sendall(message)
                received = 0
                while received < len(message):
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise BenchError("echo server closed the connection")
                    received += len(chunk)
                samples.append((time.perf_counter_ns() - started) / 1000.0)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
    return statistics.median(samples)


def calibration_ms() -> float:
    """Median time of a fixed pure-Python operation (host speed stamp)."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        sum(i * i for i in range(300_000))
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def host_fingerprint() -> dict:
    from repro.privacy import columnar

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": columnar.active_backend(),
    }


def cpu_ms() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return (usage.ru_utime + usage.ru_stime) * 1000.0


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def latency_summary(latencies_ms: list[float], fallback_ms: float) -> dict:
    """p50 and tail of unit latencies; failed units are ``None``.

    A failed unit misses every latency limit: it sorts above every
    completed unit, and a percentile landing on one reads as
    ``fallback_ms`` (the whole measured phase).
    """
    ordered = sorted(
        latencies_ms, key=lambda value: float("inf") if value is None else value
    )
    count = len(ordered)

    def at(index: int) -> float:
        value = ordered[index]
        return fallback_ms if value is None else value

    rank = max(count - 11, 0)  # the highest sample with >= 10 above it
    middle = count // 2
    p50 = at(middle) if count % 2 else (at(middle - 1) + at(middle)) / 2.0
    return {
        "p50_ms": p50,
        "tail_ms": at(rank),
        "tail_percentile": round(100.0 * (rank + 1) / count, 3),
        "samples": count,
    }


def percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def fresh_workdir() -> str:
    """A scratch directory inside the checkout, removed by the caller."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, f"run-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)
    except OSError:
        pass
