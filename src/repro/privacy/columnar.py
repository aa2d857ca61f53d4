"""Columnar Gamma-kernel backends: vectorized numpy and pure-python.

The Gamma evaluation primitives -- partition refinement by one input
column and the grouped distinct-projection count per partition block --
were pure-python dict/tuple loops through PR 6.  This module factors
them behind a *backend* so the same :class:`~repro.privacy.kernel_registry.SharedGammaKernel`
algorithm (incremental prefix refinement, memoized entries, LRU byte
accounting) can run on either representation:

* the **numpy** backend encodes a canonical relation table as 2-D
  ``int64`` matrices of domain positions (one row per attribute, one
  column per relation row) and implements refinement and grouping as
  *sort-free counting passes*: domain positions are small dense ints,
  so one ``(block, value)`` key per row fits a dense scatter table and
  a :func:`np.cumsum` rank pass -- O(rows + blocks·domain) per column
  instead of the O(rows log rows) ``np.unique``/``argsort`` passes the
  kernel paid through PR 8.  The sort-based implementations are kept
  verbatim as ``reference_*`` oracles (and as the automatic fallback
  when a degenerate key space would out-size the relation);
* the **pure** backend keeps the original tuple/dict loops, used when
  numpy is not installed (the library must stay dependency-optional)
  or when ``REPRO_PURE_PYTHON=1`` forces it.

Both backends produce *identical* values: block ids are numbered in
first-occurrence order (the counting pass ranks keys by their first
occurrence directly; the retained ``np.unique`` oracle remaps
sorted-value group ids through an argsort of first indices), and counts
are exact integers.  Cache payloads differ only in container type
(``int64`` arrays vs tuples of ints); :func:`freeze` converts any
payload to the portable pure-tuple form used by snapshots, eviction
spills and the wire, and :func:`thaw_entry` converts back to the active
backend's native form, so snapshot files and warm-handoff payloads are
interchangeable between numpy and pure-python processes.

A numpy table can additionally be *packed* into (and attached
zero-copy from) a flat ``int64`` buffer -- the representation
:class:`~repro.service.transport.MultiprocessTransport` publishes via
``multiprocessing.shared_memory`` so worker processes map the canonical
row table instead of unpickling a copy per structure ship.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycle)
    from repro.privacy.kernel_registry import RelationStructure

#: Approximate cost of one cached integer (CPython small-int pointer on
#: the pure backend; exactly one ``int64`` cell on the numpy backend --
#: the two byte-accounting schemes agree by construction).
WORD_BYTES = 8

#: Environment variable forcing the pure-python backend even when numpy
#: is importable (the build-time fallback switch; any of 1/true/yes/on).
FORCE_PURE_ENV = "REPRO_PURE_PYTHON"

try:  # pragma: no cover - exercised differently per environment
    import numpy as _np
except ImportError:  # pragma: no cover - the no-numpy fallback build
    _np = None


def _dense_space_ok(space: int, rows: int) -> int:
    """Whether a counting pass may allocate a ``space``-cell scatter table.

    The sort-free passes trade O(rows log rows) comparisons for a dense
    table of one cell per ``(group, value)`` key.  On degenerate inputs
    (nearly-all-distinct partitions over a wide domain) that table can
    dwarf the relation, so past ``4·rows`` cells (plus slack so tiny
    relations never trip it) the caller falls back to the sort-based
    reference pass -- which produces the *same values*, so the guard is
    invisible to results, cache payloads and eviction sequences.
    """
    return space <= 4 * rows + 1024


def numpy_available() -> bool:
    """Whether the numpy backend *could* run in this process."""
    return _np is not None


def _env_forces_pure() -> bool:
    return os.environ.get(FORCE_PURE_ENV, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def _default_backend() -> str:
    if _np is None or _env_forces_pure():
        return "pure"
    return "numpy"


_ACTIVE_BACKEND = _default_backend()


def active_backend() -> str:
    """The backend new kernels build their tables on: ``numpy`` or ``pure``."""
    return _ACTIVE_BACKEND


def set_backend(name: str) -> str:
    """Select the backend for *subsequently built* tables; returns the old one.

    ``"numpy"`` requires numpy to be importable.  Existing kernels keep
    the backend they were built with -- flip only around construction
    (the comparative benchmark and the fallback tests do exactly that).
    """
    global _ACTIVE_BACKEND
    if name not in ("numpy", "pure"):
        raise ValueError(f"unknown columnar backend {name!r}")
    if name == "numpy" and _np is None:
        raise RuntimeError("numpy backend requested but numpy is not installed")
    previous = _ACTIVE_BACKEND
    _ACTIVE_BACKEND = name
    return previous


class use_backend:
    """Context manager pinning the active backend (test/benchmark hook)."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._previous: str | None = None

    def __enter__(self) -> str:
        self._previous = set_backend(self._name)
        return self._name

    def __exit__(self, *exc_info: object) -> None:
        assert self._previous is not None
        set_backend(self._previous)


# ---------------------------------------------------------------------- #
# Payload helpers shared by both backends
# ---------------------------------------------------------------------- #
def freeze(payload: object) -> object:
    """A payload with every array replaced by a tuple of python ints.

    The portable form used by snapshots, eviction spills, warm-handoff
    wire payloads and :class:`~repro.service.protocol.TaskResult` -- it
    pickles/compares/encodes identically whether the producer ran the
    numpy or the pure backend.
    """
    if _np is not None and isinstance(payload, _np.ndarray):
        return tuple(payload.tolist())
    if isinstance(payload, tuple):
        return tuple(freeze(item) for item in payload)
    return payload


def thaw_entry(key: tuple, payload: object) -> object:
    """A frozen cache payload in the active backend's native form.

    ``key`` carries the payload shape: ``("partition", ...)`` payloads
    are one flat int sequence; ``("kernel", ...)`` payloads are a
    ``(partition, counts, gamma)`` triple.  On the pure backend (or for
    unrecognized keys) the frozen form *is* the native form.
    """
    if _ACTIVE_BACKEND != "numpy" or _np is None:
        return payload
    if key and key[0] == "partition":
        return _np.asarray(payload, dtype=_np.int64)
    if key and key[0] == "kernel":
        partition, counts, gamma = payload  # type: ignore[misc]
        return (
            _np.asarray(partition, dtype=_np.int64),
            _np.asarray(counts, dtype=_np.int64) if _counts_fit(counts) else counts,
            gamma,
        )
    return payload


def _counts_fit(counts: Sequence[int]) -> bool:
    """Whether every count fits ``int64`` (huge hidden spaces may not)."""
    return all(-(2**63) <= count < 2**63 for count in counts)


def block_count(partition: object) -> int:
    """Number of blocks of a first-occurrence-numbered partition."""
    if _np is not None and isinstance(partition, _np.ndarray):
        return int(partition.max()) + 1 if partition.size else 0
    return max(partition) + 1 if partition else 0  # type: ignore[arg-type]


def scale_counts(distinct: object, hidden_combinations: int) -> object:
    """Per-block distinct counts scaled by the hidden-output completions.

    Counts are exact integers on both backends.  The numpy path guards
    against ``int64`` overflow: when the scaled counts may not fit (a
    relation hiding very many large output domains), it falls back to a
    tuple of python ints -- arbitrary precision, same values.
    """
    if _np is not None and isinstance(distinct, _np.ndarray):
        if hidden_combinations == 1:
            return distinct
        peak = int(distinct.max()) if distinct.size else 0
        if peak * hidden_combinations < 2**63:
            return distinct * hidden_combinations
        return tuple(int(count) * hidden_combinations for count in distinct.tolist())
    return tuple(count * hidden_combinations for count in distinct)  # type: ignore[union-attr]


def minimum(counts: object) -> int:
    """The Gamma of a counts payload (0 for an empty relation)."""
    if _np is not None and isinstance(counts, _np.ndarray):
        return int(counts.min()) if counts.size else 0
    return min(counts) if counts else 0  # type: ignore[arg-type]


# ---------------------------------------------------------------------- #
# Backend tables
# ---------------------------------------------------------------------- #
class PureTable:
    """The pre-PR-7 tuple/dict evaluation primitives (no dependencies)."""

    backend = "pure"

    __slots__ = (
        "input_columns",
        "output_columns",
        "input_domain_sizes",
        "output_domain_sizes",
        "row_count",
    )

    def __init__(self, structure: "RelationStructure") -> None:
        self.input_columns = structure.input_columns
        self.output_columns = structure.output_columns
        self.input_domain_sizes = structure.input_domain_sizes
        self.output_domain_sizes = structure.output_domain_sizes
        self.row_count = structure.row_count

    def initial_partition(self) -> tuple[int, ...]:
        return (0,) * self.row_count

    def refine(self, base: Sequence[int], input_index: int) -> tuple[int, ...]:
        """Refine ``base`` by one input column, first-occurrence block ids."""
        column = self.input_columns[input_index]
        block_ids: dict[tuple[int, int], int] = {}
        refined = []
        for block, value in zip(base, column):
            pair = (block, value)
            block_id = block_ids.get(pair)
            if block_id is None:
                block_id = len(block_ids)
                block_ids[pair] = block_id
            refined.append(block_id)
        return tuple(refined)

    # The dict loop *is* the first-occurrence oracle; the numpy backend
    # exposes the same ``reference_`` names for its sort-based paths, so
    # equivalence tests can drive either backend uniformly.
    reference_refine = refine

    def distinct_projections(
        self,
        partition: Sequence[int],
        blocks: int,
        visible_outputs: tuple[int, ...],
    ) -> list[int]:
        """Distinct visible-output projections per partition block."""
        columns = [self.output_columns[index] for index in visible_outputs]
        distinct = [0] * blocks
        seen: set[tuple] = set()
        for row, block in enumerate(partition):
            pair = (block, tuple(column[row] for column in columns))
            if pair not in seen:
                seen.add(pair)
                distinct[block] += 1
        return distinct

    reference_distinct_projections = distinct_projections

    def fused_entry(
        self,
        partition: Sequence[int],
        blocks: int,
        visible_outputs: tuple[int, ...],
    ) -> list[int]:
        """Distinct visible-output projections per block, one fused pass.

        The pure backend's :meth:`distinct_projections` already walks the
        relation exactly once with the block id fused into the projection
        key, so the fused entry kernel *is* that loop; the method exists
        so :meth:`SharedGammaKernel.entry` calls one name on both
        backends (the numpy side genuinely fuses three ``np.unique``
        passes into a single counting pass).
        """
        return self.distinct_projections(partition, blocks, visible_outputs)


class NumpyTable:
    """Vectorized evaluation over 2-D ``int64`` domain-position matrices.

    ``input_matrix``/``output_matrix`` hold one attribute per matrix row
    and one relation row per column; they may be owned (built from a
    structure's tuples) or *borrowed* as read-only views of an external
    buffer (a shared-memory segment), in which case the caller keeps the
    buffer alive for the table's lifetime.
    """

    backend = "numpy"

    __slots__ = (
        "input_matrix",
        "output_matrix",
        "input_domain_sizes",
        "output_domain_sizes",
        "row_count",
    )

    def __init__(
        self,
        input_matrix,
        output_matrix,
        input_domain_sizes: tuple[int, ...],
        output_domain_sizes: tuple[int, ...],
    ) -> None:
        self.input_matrix = input_matrix
        self.output_matrix = output_matrix
        self.input_domain_sizes = input_domain_sizes
        self.output_domain_sizes = output_domain_sizes
        self.row_count = int(input_matrix.shape[1]) if input_matrix.size else 0

    # -- construction ----------------------------------------------------
    @classmethod
    def from_structure(cls, structure: "RelationStructure") -> "NumpyTable":
        rows = structure.row_count
        input_matrix = _np.asarray(structure.input_columns, dtype=_np.int64).reshape(
            len(structure.input_columns), rows
        )
        output_matrix = _np.asarray(structure.output_columns, dtype=_np.int64).reshape(
            len(structure.output_columns), rows
        )
        return cls(
            input_matrix,
            output_matrix,
            structure.input_domain_sizes,
            structure.output_domain_sizes,
        )

    # -- zero-copy packing (shared-memory shipping) ----------------------
    @property
    def packed_nbytes(self) -> int:
        """Bytes of the flat buffer :meth:`pack_into` fills."""
        return int(self.input_matrix.nbytes + self.output_matrix.nbytes)

    def pack_into(self, buffer) -> None:
        """Copy both matrices into ``buffer`` (input block, then output)."""
        flat = _np.frombuffer(buffer, dtype=_np.int64, count=self.packed_nbytes // 8)
        split = self.input_matrix.size
        flat[:split] = self.input_matrix.reshape(-1)
        flat[split : split + self.output_matrix.size] = self.output_matrix.reshape(-1)

    @classmethod
    def from_buffer(
        cls,
        buffer,
        input_shape: tuple[int, int],
        output_shape: tuple[int, int],
        input_domain_sizes: tuple[int, ...],
        output_domain_sizes: tuple[int, ...],
    ) -> "NumpyTable":
        """Attach to a packed buffer zero-copy (read-only views).

        The caller owns ``buffer`` (e.g. keeps the shared-memory segment
        open) for as long as the table is used.
        """
        input_cells = input_shape[0] * input_shape[1]
        output_cells = output_shape[0] * output_shape[1]
        flat = _np.frombuffer(
            buffer, dtype=_np.int64, count=input_cells + output_cells
        )
        input_matrix = flat[:input_cells].reshape(input_shape)
        output_matrix = flat[input_cells:].reshape(output_shape)
        input_matrix.flags.writeable = False
        output_matrix.flags.writeable = False
        return cls(
            input_matrix,
            output_matrix,
            tuple(input_domain_sizes),
            tuple(output_domain_sizes),
        )

    def column_tuples(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The canonical columns as nested tuples (structure reconstruction)."""
        return (
            tuple(tuple(row) for row in self.input_matrix.tolist()),
            tuple(tuple(row) for row in self.output_matrix.tolist()),
        )

    # -- evaluation primitives -------------------------------------------
    def initial_partition(self):
        return _np.zeros(self.row_count, dtype=_np.int64)

    def refine(self, base, input_index: int):
        """Refine ``base`` by one input column, first-occurrence block ids.

        Sort-free counting pass: each row's ``(block, value)`` key is one
        cell of a dense ``blocks x domain`` table, so a reversed scatter
        pins every key's *first* occurrence position (the last write in
        reversed order is the earliest position), and a cumsum over marks
        at those positions ranks the keys in first-occurrence order --
        exactly the ids the pure backend's dict assignment produces, in
        O(rows + blocks·domain) with no comparison sort.  Degenerate key
        spaces fall back to the (value-identical) sort-based oracle.
        """
        # A base partition may be a preloaded pure tuple (cross-backend
        # warm start); coerce so tuple * int never means repetition.
        if not isinstance(base, _np.ndarray):
            base = _np.asarray(base, dtype=_np.int64)
        rows = base.size
        if rows == 0:
            return base
        domain = self.input_domain_sizes[input_index]
        space = (int(base.max()) + 1) * domain
        if not _dense_space_ok(space, rows):
            return self.reference_refine(base, input_index)
        combined = base * domain + self.input_matrix[input_index]
        first = _np.empty(space, dtype=_np.int64)
        first[combined[::-1]] = _np.arange(rows - 1, -1, -1, dtype=_np.int64)
        first_of_row = first[combined]
        marks = _np.zeros(rows, dtype=_np.int64)
        marks[first_of_row] = 1
        ranks = _np.cumsum(marks)
        ranks -= 1
        return ranks[first_of_row]

    def reference_refine(self, base, input_index: int):
        """The PR 7 ``np.unique`` refinement, kept as correctness oracle.

        ``np.unique`` numbers groups by sorted *value*; the remap through
        an argsort of first-occurrence indices renumbers them in order of
        first appearance, so the oracle and the counting pass agree
        value-for-value.
        """
        if not isinstance(base, _np.ndarray):
            base = _np.asarray(base, dtype=_np.int64)
        column = self.input_matrix[input_index]
        combined = base * self.input_domain_sizes[input_index] + column
        _, first, inverse = _np.unique(
            combined, return_index=True, return_inverse=True
        )
        order = _np.argsort(first, kind="stable")
        rank = _np.empty(order.size, dtype=_np.int64)
        rank[order] = _np.arange(order.size, dtype=_np.int64)
        return rank[inverse]

    def _fold_output_codes(self, code, ncodes: int, visible_outputs):
        """Fold visible output columns into a dense running group code.

        ``code`` holds dense group ids in ``[0, ncodes)``, one per row.
        Each column widens the key space to ``ncodes·domain`` and
        re-compresses it through a dense occupancy cumsum -- no sort --
        falling back to ``np.unique`` (same codes: both number keys in
        ascending key order) when the key space outgrows the guard.
        """
        rows = code.size
        for output in visible_outputs:
            domain = self.output_domain_sizes[output]
            combined = code * domain + self.output_matrix[output]
            space = ncodes * domain
            if _dense_space_ok(space, rows):
                occupied = _np.zeros(space, dtype=_np.bool_)
                occupied[combined] = True
                dense = _np.cumsum(occupied)
                ncodes = int(dense[-1]) if space else 0
                dense -= 1
                code = dense[combined]
            else:
                uniques, code = _np.unique(combined, return_inverse=True)
                ncodes = int(uniques.size)
        return code, ncodes

    def fused_entry(self, partition, blocks: int, visible_outputs: tuple[int, ...]):
        """Distinct visible-output projections per block, one fused pass.

        The entry kernel's counting stage: starts from the partition's
        block ids as the seed group code (so the block is fused into the
        projection key from the first column), folds every visible
        output column through the dense sort-free re-compression, then
        scatters one representative row per final code to attribute it
        to its owning block.  Replaces three ``np.unique`` passes per
        entry with counting passes.
        """
        if not isinstance(partition, _np.ndarray):
            partition = _np.asarray(partition, dtype=_np.int64)
        if partition.size == 0:
            return _np.zeros(blocks, dtype=_np.int64)
        code, ncodes = self._fold_output_codes(partition, blocks, visible_outputs)
        representative = _np.empty(ncodes, dtype=_np.int64)
        representative[code] = _np.arange(partition.size, dtype=_np.int64)
        owners = partition[representative]
        return _np.bincount(owners, minlength=blocks).astype(_np.int64, copy=False)

    def distinct_projections(
        self, partition, blocks: int, visible_outputs: tuple[int, ...]
    ):
        """Distinct projections per block -- the sort-based oracle.

        Folds each visible output column into a running dense group code
        (re-compressed by ``np.unique`` per column, so the fold never
        overflows ``int64``), then counts one representative per distinct
        ``(block, projection)`` code in each block.  Retained as the
        ``reference_*`` pass :meth:`fused_entry` is verified against.
        """
        if not isinstance(partition, _np.ndarray):
            partition = _np.asarray(partition, dtype=_np.int64)
        code = partition
        for index in visible_outputs:
            combined = code * self.output_domain_sizes[index] + self.output_matrix[index]
            _, code = _np.unique(combined, return_inverse=True)
        _, first = _np.unique(code, return_index=True)
        owners = partition[first]
        return _np.bincount(owners, minlength=blocks).astype(_np.int64, copy=False)

    reference_distinct_projections = distinct_projections


#: A backend table of either kind.
Table = object


def build_table(structure: "RelationStructure"):
    """The active backend's table for one canonical structure."""
    if _ACTIVE_BACKEND == "numpy":
        return NumpyTable.from_structure(structure)
    return PureTable(structure)
