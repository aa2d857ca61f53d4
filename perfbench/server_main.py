"""Benchmark-owned server launcher: a ``GammaServer`` in its own process.

Deployed the way ``repro serve`` is, but driven over stdin/stdout so the
benchmark can time its start-up and read its resource use::

    python3 perfbench/server_main.py <config.json>
    python3 perfbench/server_main.py echo

The config names the kernel cache budget, optional TLS certificate and
tenant policy, whether to record spans, and where to write the summary.
On start the launcher prints ``{"port": N}``.  Each ``mark`` line on
stdin is answered with the process's CPU time; ``stop`` (or EOF) closes
the server, writes the summary file (server stats, peak RSS, CPU time
and, when tracing, every span) and prints ``{"stopped": true}``.

``echo`` mode is the raw-socket floor: a stdlib TCP echo of one
connection on the loopback, with no framing or codec.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _say(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1000.0,
        "maxrss_kb": usage.ru_maxrss,
    }


def serve_echo() -> None:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    _say({"port": listener.getsockname()[1]})
    conn, _ = listener.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    with conn, listener:
        while True:
            data = conn.recv(65536)
            if not data:
                return
            conn.sendall(data)


def serve_gamma(config_path: str) -> None:
    with open(config_path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from repro.service.server import GammaServer

    tracer = None
    if config.get("trace"):
        from perfbench.spans import Tracer, instrument_server

        tracer = Tracer()
        instrument_server(tracer)
    server = GammaServer(
        ("tcp", "127.0.0.1", 0),
        total_budget_bytes=config["total_budget_bytes"],
        tls_cert=config.get("tls_cert"),
        tls_key=config.get("tls_key"),
        policy=config.get("policy"),
    )
    server.start()
    _say({"port": server.address[2]})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                _say(_usage())
            elif command == "stop":
                break
    finally:
        stats = server.stats()
        server.close(snapshot=False)
        summary = {"stats": stats, **_usage()}
        if tracer is not None:
            tracer.unpatch()
            summary["spans"] = [span.to_list() for span in tracer.spans()]
        with open(config["summary_path"], "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        _say({"stopped": True})


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    if argv[1] == "echo":
        serve_echo()
    else:
        serve_gamma(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
