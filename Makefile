# Single entrypoints for contributors and CI.  `make test` runs exactly the
# tier-1 command from ROADMAP.md; `make test-conformance` runs only the
# cross-transport conformance matrix (its own CI step, so transport
# failures are attributed clearly); `make test-chaos` runs the elastic
# membership suite -- endpoint kill/heal/re-admission and live shard
# rebalancing -- as its own step for the same reason; `make test-tls` runs
# the TLS/token-auth and tenancy-scheduling suite (ephemeral self-signed
# certificates are minted into tmpdirs via the openssl CLI, nothing to
# provision); `make bench` runs the pytest-benchmark
# suites and writes a BENCH_<date>.json perf snapshot; `make bench-check`
# re-runs the suites and fails on a >30% regression of the guarded
# (kernel/adversary) ops versus the committed baseline in
# benchmarks/baselines/; `make lint` is a dependency-free sanity pass
# (byte-compiles every tree we ship); `make test-fallback` re-runs the
# kernel and service suites with REPRO_PURE_PYTHON=1, proving the
# pure-python fallback stays byte-identical to the numpy columnar
# kernel; `make perf-smoke` runs the end-to-end benchmark self-test
# (tiny runs of every perfbench workload, every metric and oracle
# checked, and a tampered oracle must fail); `make clean` removes
# bytecode and tool caches.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-conformance test-chaos test-tls test-fallback bench bench-check perf-smoke lint clean

# Extra pytest selection flags (CI's tier-1 step passes
# PYTEST_FLAGS='-k "not conformance"' because the conformance matrix
# already ran in its own step).
PYTEST_FLAGS ?=

test:
	$(PYTHON) -m pytest -x -q $(PYTEST_FLAGS)

test-conformance:
	$(PYTHON) -m pytest -q -k "conformance and not readmission and not rebalance"

test-chaos:
	$(PYTHON) -m pytest -q -k "readmission or rebalance"

test-tls:
	$(PYTHON) -m pytest -q tests/test_tls_auth.py

test-fallback:
	REPRO_PURE_PYTHON=1 $(PYTHON) -m pytest -q tests/test_kernel_registry.py \
		tests/test_columnar_kernel.py tests/test_privacy_kernel_equivalence.py \
		tests/test_privacy_relations.py tests/test_service.py \
		tests/test_sortfree_kernel.py

bench:
	$(PYTHON) benchmarks/run_benchmarks.py

bench-check:
	$(PYTHON) benchmarks/check_regression.py

perf-smoke:
	$(PYTHON) perfbench/selftest.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples perfbench

clean:
	rm -rf .pytest_cache .hypothesis BENCH_*.json
	find src tests benchmarks examples perfbench -name __pycache__ -type d -prune \
		-exec rm -rf {} +
