"""End-to-end benchmark of the Gamma evaluation service.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics.  ``python3 perfbench/selftest.py`` checks that
every named metric is emitted and that a tampered oracle fails a run.
"""
