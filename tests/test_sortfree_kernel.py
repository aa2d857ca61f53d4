"""Sort-free kernel hot path versus the retained sort-based oracles.

The kernel's group passes are counting sorts (refinement, fused entry
counting) rather than O(rows log rows) ``np.unique``/``argsort`` passes.
The sort-based passes are kept verbatim as ``reference_*`` oracles; this
suite holds the hot path to them byte-for-byte:

* **counting-sort vs argsort equivalence** -- partitions, entries and
  eviction order agree with the reference passes on random relations
  (Hypothesis), on both backends, including the degenerate single-block
  and all-distinct relations where the dense-key-space guard flips
  between the counting pass and the sort fallback;
* **stats round-trips** -- kernel stats carrying the float ``*_ms``
  timers survive the report merge un-truncated.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.privacy import columnar
from repro.privacy.columnar import freeze, use_backend
from repro.privacy.kernel_registry import (
    TIMING_STAT_KEYS,
    GammaKernelRegistry,
    RelationStructure,
)
from repro.service.protocol import merge_kernel_stats

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = ("numpy", "pure") if columnar.numpy_available() else ("pure",)


def _structure(draw_columns, *, input_domains, output_domains, rows):
    return RelationStructure(
        input_domain_sizes=tuple(input_domains),
        output_domain_sizes=tuple(output_domains),
        input_columns=tuple(
            tuple(draw_columns(domain, rows)) for domain in input_domains
        ),
        output_columns=tuple(
            tuple(draw_columns(domain, rows)) for domain in output_domains
        ),
    )


@st.composite
def random_structures(draw, max_rows=24, max_columns=3, max_domain=4):
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    n_inputs = draw(st.integers(min_value=1, max_value=max_columns))
    n_outputs = draw(st.integers(min_value=1, max_value=max_columns))
    input_domains = [
        draw(st.integers(min_value=1, max_value=max_domain))
        for _ in range(n_inputs)
    ]
    output_domains = [
        draw(st.integers(min_value=1, max_value=max_domain))
        for _ in range(n_outputs)
    ]

    def column(domain, count):
        return [
            draw(st.integers(min_value=0, max_value=domain - 1))
            for _ in range(count)
        ]

    return _structure(
        column, input_domains=input_domains, output_domains=output_domains,
        rows=rows,
    )


def degenerate_structures() -> list[RelationStructure]:
    """Single-block and all-distinct relations, the guard's extremes.

    A constant input column never splits the single block (the counting
    pass runs at its smallest key space), while an all-distinct column
    explodes ``blocks x domain`` past the dense guard and must take the
    (value-identical) sort fallback.
    """
    rows = 12

    def constant(domain, count):
        return [0] * count

    def distinct(domain, count):
        return [index % domain for index in range(count)]

    single_block = _structure(
        constant, input_domains=[3, 3], output_domains=[2], rows=rows
    )
    all_distinct = _structure(
        distinct,
        input_domains=[rows, rows],
        output_domains=[rows],
        rows=rows,
    )
    return [single_block, all_distinct]


def _visibility_chains(structure):
    inputs = range(len(structure.input_domain_sizes))
    outputs = range(len(structure.output_domain_sizes))
    input_sets = [
        tuple(combo)
        for size in range(len(structure.input_domain_sizes) + 1)
        for combo in itertools.combinations(inputs, size)
    ]
    output_sets = [
        tuple(combo)
        for size in range(len(structure.output_domain_sizes) + 1)
        for combo in itertools.combinations(outputs, size)
    ]
    return input_sets, output_sets


class TestCountingSortEquivalence:
    @RELAXED
    @given(structure=random_structures())
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partitions_and_entries_match_reference(self, backend, structure):
        with use_backend(backend):
            registry = GammaKernelRegistry()
            kernel = registry.ensure_kernel(structure)
            table = kernel.table
            input_sets, output_sets = _visibility_chains(structure)
            for visible_inputs in input_sets:
                partition = kernel.partition(visible_inputs)
                # Reference: re-refine the whole chain with the sort-based
                # oracle, outside the cache.
                reference = table.initial_partition()
                for index in visible_inputs:
                    reference = table.reference_refine(reference, index)
                assert freeze(partition) == freeze(reference)
                blocks = columnar.block_count(partition)
                for visible_outputs in output_sets:
                    _, counts, gamma = kernel.entry(
                        visible_inputs, visible_outputs
                    )
                    reference_distinct = table.reference_distinct_projections(
                        partition, blocks, visible_outputs
                    )
                    fused = table.fused_entry(partition, blocks, visible_outputs)
                    assert freeze(fused) == freeze(reference_distinct)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("structure", degenerate_structures())
    def test_degenerate_relations_match_reference(self, backend, structure):
        with use_backend(backend):
            registry = GammaKernelRegistry()
            kernel = registry.ensure_kernel(structure)
            table = kernel.table
            input_sets, output_sets = _visibility_chains(structure)
            for visible_inputs in input_sets:
                partition = kernel.partition(visible_inputs)
                reference = table.initial_partition()
                for index in visible_inputs:
                    reference = table.reference_refine(reference, index)
                assert freeze(partition) == freeze(reference)
                blocks = columnar.block_count(partition)
                for visible_outputs in output_sets:
                    fused = table.fused_entry(partition, blocks, visible_outputs)
                    assert freeze(fused) == freeze(
                        table.reference_distinct_projections(
                            partition, blocks, visible_outputs
                        )
                    )

class TestEvictionOrderEquivalence:
    @RELAXED
    @given(
        structure=random_structures(max_rows=16),
        budget=st.sampled_from([256, 1024, 4096]),
    )
    def test_eviction_sequence_identical_across_paths_and_backends(
        self, structure, budget
    ):
        """Same evicted-key sequence on every backend under tight budgets."""
        sequences = {}
        for backend in BACKENDS:
            evicted: list[tuple] = []
            with use_backend(backend):
                registry = GammaKernelRegistry(total_budget_bytes=budget)
                registry.set_eviction_sink(
                    lambda structure, key, payload, cost: evicted.append(
                        (key, freeze(payload), cost)
                    )
                )
                kernel = registry.ensure_kernel(structure)
                input_sets, output_sets = _visibility_chains(structure)
                for visible_inputs in input_sets:
                    for visible_outputs in output_sets:
                        kernel.entry(visible_inputs, visible_outputs)
            sequences[backend] = evicted
        first = sequences[BACKENDS[0]]
        for backend in BACKENDS[1:]:
            assert sequences[backend] == first

class TestPayloadRoundTrips:
    def test_merge_kernel_stats_preserves_float_timers(self):
        merged = merge_kernel_stats(
            [
                {"grouping_passes": 3, "partition_build_ms": 0.25},
                {"grouping_passes": 2, "partition_build_ms": 0.5},
            ]
        )
        assert merged["grouping_passes"] == 5
        assert merged["partition_build_ms"] == pytest.approx(0.75)
        assert isinstance(merged["grouping_passes"], int)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timers_and_fused_counter_populated(self, backend):
        structure = degenerate_structures()[1]
        with use_backend(backend):
            registry = GammaKernelRegistry()
            kernel = registry.ensure_kernel(structure)
            kernel.entry((0, 1), (0,))
            stats = kernel.kernel_stats
            aggregate = registry.aggregate_counters()
        assert stats["entry_fused_passes"] == 1
        for key in TIMING_STAT_KEYS:
            assert isinstance(stats[key], float)
            assert stats[key] >= 0.0
            assert aggregate[key] == stats[key]
        assert stats["partition_build_ms"] > 0.0
