"""Harness self-test: tiny runs of every workload.

    python3 perfbench/selftest.py

Checks, for every workload of ``perfbench/workloads.py`` (the ones
BENCHMARK.json lists and ``tenants_mixed``), that a ``--tiny`` run
emits every end-to-end metric (``--trace 0``) and every per-layer
metric (``--trace 1``) with the unit BENCHMARK.json gives it, that
every unit matched its oracle, and that a run with a tampered oracle
reports ``correct: false`` and exits non-zero.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    completed = subprocess.run(
        [
            sys.executable,
            RUN,
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--tiny",
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return completed.returncode, result


def check_metrics(result: dict, expected: list[dict]) -> list[str]:
    problems = []
    metrics = result["metrics"]
    names = {metric["name"] for metric in expected}
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"missing {metric['name']}")
        elif got["unit"] != metric["unit"]:
            problems.append(
                f"{metric['name']} in {got['unit']!r}, expected {metric['unit']!r}"
            )
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{metric['name']} is not a number")
    extra = sorted(set(metrics) - names)
    if extra:
        problems.append(f"unlisted metrics {extra}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    failures = []
    for workload in WORKLOADS:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            failures += [f"{label}: {problem}" for problem in check_metrics(result, expected)]
        code, result = run(workload, 0, "--tamper-oracle")
        if code == 0 or result is None or result["correct"]:
            failures.append(f"{workload}: a tampered oracle did not fail the run")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
