"""Memory-bounded chunked execution: budget planner + per-engine identity.

Two contracts, pinned across every batch engine:

* the budget primitives (:mod:`repro._budget`) parse human-readable byte
  budgets, derive chunk plans from per-item cost models, and stream
  iterables lazily;
* every engine's chunked execution -- platform-axis costing, the SpMU
  variant grid, tile conversion, scanner position ranges, and streaming
  DSE -- is *bit-identical* to its unchunked pass for chunk size 1, a
  prime mid-size, a larger-than-grid size, and an explicit byte budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._budget import (
    ENV_MEMORY_BUDGET,
    ChunkPlan,
    iter_chunked,
    parse_memory_budget,
    plan_chunks,
    resolve_memory_budget,
)
from repro.apps.profile import WorkloadProfile
from repro.apps.timing import estimate_cycles_batch, iter_cycles_batches
from repro.config import SpMUConfig
from repro.core.format_conversion import FormatConverter
from repro.core.ordering import OrderingMode
from repro.core.scanner import BitVectorScanner, ScanMode
from repro.core.spmu import RequestTrace, SpMUVariant, random_request_vectors
from repro.core.spmu_array import _LockStepState, prepare_trace, simulate_variants
from repro.errors import ConfigurationError, SimulationError
from repro.formats.bitvector import BitVector
from repro.runtime.budget import variant_state_bytes
from repro.runtime.dse import explore
from repro.runtime.sweep import sweep

CHUNK_SIZES = (1, 7, 10_000)  # one, a prime mid-size, larger than any grid


# --------------------------------------------------------------------------- #
# Budget primitives
# --------------------------------------------------------------------------- #


class TestBudgetPrimitives:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("64K", 64 << 10),
            ("64k", 64 << 10),
            ("2KiB", 2 << 10),
            ("1.5M", int(1.5 * (1 << 20))),
            ("2G", 2 << 30),
            ("1T", 1 << 40),
            ("128B", 128),
            (4096, 4096),
            (4096.0, 4096),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("bad", ["", "64Q", "lots", "-1", "0", -5, 0, True])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_memory_budget(bad)

    def test_parse_none_passes_through(self):
        assert parse_memory_budget(None) is None

    def test_resolve_prefers_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "1M")
        assert resolve_memory_budget(2048) == 2048
        assert resolve_memory_budget(None) == 1 << 20
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "")
        assert resolve_memory_budget(None) is None

    def test_plan_chunks_divides_budget(self):
        plan = plan_chunks(100, bytes_per_item=64, memory_budget=640)
        assert plan.chunk_items == 10
        assert plan.n_chunks == 10
        bounds = list(plan.bounds())
        assert bounds[0] == (0, 10)
        assert bounds[-1] == (90, 100)

    def test_plan_chunks_floors_at_min_items(self):
        plan = plan_chunks(5, bytes_per_item=1 << 20, memory_budget=1024)
        assert plan.chunk_items == 1
        plan = plan_chunks(5, bytes_per_item=1 << 20, memory_budget=1024, min_items=3)
        assert plan.chunk_items == 3

    def test_plan_chunks_without_budget_is_one_chunk(self):
        plan = plan_chunks(17, bytes_per_item=8, memory_budget=None)
        assert plan.n_chunks == 1
        assert list(plan.slices()) == [slice(0, 17)]

    def test_empty_plan(self):
        assert ChunkPlan(0, 4).n_chunks == 0
        assert list(ChunkPlan(0, 4).bounds()) == []

    def test_iter_chunked_is_lazy(self):
        def generator():
            yield from range(10)
            raise AssertionError("over-consumed")

        chunks = iter_chunked(generator(), 4)
        assert next(chunks) == [0, 1, 2, 3]
        assert next(chunks) == [4, 5, 6, 7]

    def test_iter_chunked_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            list(iter_chunked([1, 2], 0))


# --------------------------------------------------------------------------- #
# Engine identity: chunked == unchunked, bit for bit
# --------------------------------------------------------------------------- #


def _profiles():
    return [
        WorkloadProfile(
            app="synthetic",
            dataset=f"d{i}",
            compute_iterations=10_000 * (i + 1),
            vector_slots=500 * (i + 1),
            scan_cycles=300 * (i + 1),
            sram_random_updates=4_000 * (i + 1),
            dram_stream_read_bytes=1e5 * (i + 1),
            outer_parallelism=4 * (i + 1),
        )
        for i in range(3)
    ]


def _platforms():
    return list(sweep(lanes=(8, 16), banks=(8, 16), ideal_sram=(True,)).values())


class TestChunkedCosting:
    def test_chunk_sizes_are_bit_identical(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        for chunk in CHUNK_SIZES:
            part = estimate_cycles_batch(profiles, platforms, chunk_platforms=chunk)
            assert np.array_equal(full.cycles, part.cycles)
            assert full.categories.keys() == part.categories.keys()
            for name in full.categories:
                assert np.array_equal(full.categories[name], part.categories[name])

    def test_memory_budget_is_bit_identical(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        tight = estimate_cycles_batch(profiles, platforms, memory_budget=1024)
        assert np.array_equal(full.cycles, tight.cycles)

    def test_env_budget_is_bit_identical(self, monkeypatch):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "4K")
        assert np.array_equal(
            full.cycles, estimate_cycles_batch(profiles, platforms).cycles
        )

    def test_accepts_platform_generator(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        lazy = estimate_cycles_batch(
            profiles, (p for p in platforms), chunk_platforms=2
        )
        assert np.array_equal(full.cycles, lazy.cycles)

    def test_iter_batches_align_with_grid(self):
        profiles, platforms = _profiles(), _platforms()
        full = estimate_cycles_batch(profiles, platforms)
        column = 0
        for chunk, part in iter_cycles_batches(
            profiles, platforms, chunk_platforms=3
        ):
            width = len(chunk)
            assert np.array_equal(
                full.cycles[:, column : column + width], part.cycles
            )
            column += width
        assert column == len(platforms)

    def test_empty_grids_keep_shapes(self):
        profiles, platforms = _profiles(), _platforms()
        assert estimate_cycles_batch(profiles, [], chunk_platforms=1).cycles.shape == (
            len(profiles),
            0,
        )
        assert estimate_cycles_batch([], platforms, chunk_platforms=2).cycles.shape == (
            0,
            len(platforms),
        )


class TestChunkedSpMU:
    def _grid(self):
        variants, traces = [], []
        for i, (ordering, depth) in enumerate(
            [
                (OrderingMode.UNORDERED, 4),
                (OrderingMode.ADDRESS_ORDERED, 8),
                (OrderingMode.FULLY_ORDERED, 4),
                (OrderingMode.ARBITRATED, 16),
                (OrderingMode.ADDRESS_ORDERED, 4),
            ]
        ):
            variants.append(
                SpMUVariant(ordering=ordering, config=SpMUConfig(queue_depth=depth))
            )
            traces.append(
                RequestTrace.from_vectors(
                    random_request_vectors(4, lanes=16, address_space=512, seed=i)
                )
            )
        return variants, traces

    @staticmethod
    def _stats(results):
        return [
            (
                r.cycles,
                r.requests,
                r.elided_reads,
                r.bank_busy_cycles,
                r.vectors,
                r.stall_cycles_ordering,
            )
            for r in results
        ]

    @staticmethod
    def _issues_per_cycle(result):
        issues = list(zip(result.issue_vectors.tolist(), result.issue_lanes.tolist()))
        ends = np.cumsum(result.per_cycle_active_banks).tolist()
        return [sorted(issues[start:end]) for start, end in zip([0] + ends, ends)]

    def test_chunk_sizes_are_identical(self):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        for chunk in CHUNK_SIZES:
            part = simulate_variants(variants, traces, chunk_variants=chunk)
            assert self._stats(part) == full

    def test_memory_budget_is_identical(self):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        assert self._stats(simulate_variants(variants, traces, memory_budget=2048)) == full

    def test_budget_bounds_padded_mixed_shape_state(self, mixed_shape_batch, monkeypatch):
        # The lock-step state pads every row to its chunk's largest banks,
        # lanes, depth and vectors, so the budget must bound the padded
        # state -- not the sum of the variants' own footprints. The budget
        # admits the costliest variant alone and forces the rest to split.
        variants, traces = mixed_shape_batch
        budget = max(
            variant_state_bytes(v, prepare_trace(t)) for v, t in zip(variants, traces)
        )
        chunks = []
        init = _LockStepState.__init__

        def spy(state, variants, preps):
            init(state, variants, preps)
            arrays = sum(a.nbytes for a in vars(state).values() if isinstance(a, np.ndarray))
            # Plus the per-cycle gathered queue view and (lane, bank)
            # min-age tensor, both padded like the state.
            rows = len(variants)
            per_cycle = rows * state.D * state.W * 2 + rows * state.W * state.B * 4
            chunks.append((rows, arrays + per_cycle))

        monkeypatch.setattr(_LockStepState, "__init__", spy)
        chunked = simulate_variants(
            variants, traces, record_trace=True, collect_issues=True, memory_budget=budget
        )
        monkeypatch.undo()
        assert len(chunks) > 1
        assert sum(rows for rows, _ in chunks) == len(variants)
        assert all(nbytes <= budget for rows, nbytes in chunks if rows > 1)

        full = simulate_variants(variants, traces, record_trace=True, collect_issues=True)
        assert self._stats(chunked) == self._stats(full)
        for part, whole in zip(chunked, full):
            assert np.array_equal(part.per_cycle_active_banks, whole.per_cycle_active_banks)
            # Same-cycle requests hit distinct banks; which requests issue
            # each cycle is the contract, not their order within it.
            assert self._issues_per_cycle(part) == self._issues_per_cycle(whole)

    def test_accepts_generators(self):
        variants, traces = self._grid()
        full = self._stats(simulate_variants(variants, traces))
        lazy = simulate_variants(
            (v for v in variants), (t for t in traces), chunk_variants=2
        )
        assert self._stats(lazy) == full

    def test_length_mismatch_raises(self):
        variants, traces = self._grid()
        with pytest.raises(SimulationError):
            simulate_variants(variants, traces[:-1])
        with pytest.raises(SimulationError):
            simulate_variants(variants[:-1], traces)


class TestChunkedConversion:
    def _tiles(self, rng, length=300, n_tiles=9):
        return [
            np.sort(
                rng.choice(length, size=int(rng.integers(0, length)), replace=False)
            )
            for _ in range(n_tiles)
        ]

    def test_chunk_sizes_are_identical(self):
        rng = np.random.default_rng(7)
        converter = FormatConverter(lanes=16, word_bits=32)
        tiles = self._tiles(rng)
        full_vectors, full_stats = converter.convert_many(300, tiles)
        for chunk in CHUNK_SIZES:
            vectors, stats = converter.convert_many(300, tiles, chunk_tiles=chunk)
            assert stats == full_stats
            assert len(vectors) == len(full_vectors)
            for got, want in zip(vectors, full_vectors):
                assert np.array_equal(got._packed(), want._packed())
                assert np.array_equal(got._sorted_indices(), want._sorted_indices())

    def test_budget_and_generator(self):
        rng = np.random.default_rng(8)
        converter = FormatConverter()
        tiles = self._tiles(rng)
        _, full_stats = converter.convert_many(300, tiles)
        _, stats = converter.convert_many(300, iter(tiles), memory_budget=2048)
        assert stats == full_stats

    def test_empty_tile_set(self):
        converter = FormatConverter()
        vectors, stats = converter.convert_many(64, [], chunk_tiles=1)
        assert vectors == []
        assert (stats.pointers, stats.cycles, stats.words_written) == (0, 0, 0)


class TestChunkedScan:
    @given(
        length=st.integers(min_value=0, max_value=400),
        density_a=st.floats(min_value=0.0, max_value=1.0),
        density_b=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
        chunk=st.sampled_from(CHUNK_SIZES + (97,)),
        mode=st.sampled_from((ScanMode.INTERSECT, ScanMode.UNION)),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_scan_is_bit_identical(
        self, length, density_a, density_b, seed, chunk, mode
    ):
        rng = np.random.default_rng(seed)
        vector_a = BitVector(
            length, np.sort(rng.choice(length, int(length * density_a), replace=False))
        ) if length else BitVector(0, np.zeros(0, dtype=np.int64))
        vector_b = BitVector(
            length, np.sort(rng.choice(length, int(length * density_b), replace=False))
        ) if length else BitVector(0, np.zeros(0, dtype=np.int64))
        scanner = BitVectorScanner()
        full = scanner.scan_batch(vector_a, vector_b, mode)
        part = scanner.scan_batch(vector_a, vector_b, mode, chunk_positions=chunk)
        for field in ("dense_index", "ordinal", "index_a", "index_b"):
            want, got = getattr(full, field), getattr(part, field)
            assert want.dtype == got.dtype
            assert np.array_equal(want, got)

    def test_budget_chunks_and_matches(self):
        rng = np.random.default_rng(11)
        a = BitVector(512, np.sort(rng.choice(512, 200, replace=False)))
        b = BitVector(512, np.sort(rng.choice(512, 150, replace=False)))
        scanner = BitVectorScanner()
        full = scanner.scan_batch(a, b, ScanMode.UNION)
        part = scanner.scan_batch(a, b, ScanMode.UNION, memory_budget=1024)
        assert np.array_equal(full.dense_index, part.dense_index)
        assert np.array_equal(full.index_a, part.index_a)

    def test_single_mode_ignores_chunking(self):
        a = BitVector(64, np.asarray([1, 5, 40], dtype=np.int64))
        scanner = BitVectorScanner()
        full = scanner.scan_batch(a, None, ScanMode.SINGLE)
        part = scanner.scan_batch(a, None, ScanMode.SINGLE, chunk_positions=3)
        assert np.array_equal(full.dense_index, part.dense_index)

    def test_nonpositive_chunk_rejected(self):
        a = BitVector(8, np.asarray([1], dtype=np.int64))
        b = BitVector(8, np.asarray([2], dtype=np.int64))
        with pytest.raises(SimulationError):
            BitVectorScanner().scan_batch(a, b, chunk_positions=0)


class TestStreamingDSE:
    def test_streamed_matches_materialized(self):
        profiles = _profiles()
        axes = dict(lanes=(8, 16), banks=(8, 16), ideal_sram=(True,))
        full = explore(profiles=profiles, **axes)
        streamed = explore(profiles=profiles, memory_budget=2048, **axes)
        assert np.array_equal(full.gmean_cycles, streamed.gmean_cycles)
        assert np.array_equal(full.area_mm2, streamed.area_mm2)
        assert full.frontier() == streamed.frontier()
        assert full.rows() == streamed.rows()


class TestCLIBudgetSeam:
    def test_memory_budget_flag_exports_env(self, monkeypatch):
        from repro.runtime.cli import main

        monkeypatch.delenv(ENV_MEMORY_BUDGET, raising=False)
        assert main(["--list", "--memory-budget", "64K"]) == 0
        import os

        assert os.environ[ENV_MEMORY_BUDGET] == str(64 << 10)

    def test_bad_memory_budget_is_a_usage_error(self, capsys):
        from repro.runtime.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--list", "--memory-budget", "64Q"])
        assert excinfo.value.code == 2
