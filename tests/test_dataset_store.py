"""Tests for the dataset tier of the profile cache (``<root>/datasets``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatError
from repro.eval.experiments import collect_profiles
from repro.formats import COOMatrix
from repro.runtime.cache import ProfileCache, profile_to_dict
from repro.runtime.cli import main as cli_main
from repro.runtime.executors import SubprocessExecutor
from repro.runtime.jobs import context_to_dict, execute_unit
from repro.runtime.registry import RunContext
from repro.runtime.runner import ExperimentRunner
from repro.workloads import DatasetStore, load_dataset, suitesparse, use_dataset_store
from repro.workloads.store import active_dataset_store

TINY = 1 / 512
#: spmv-csr runs on the three linear-algebra datasets.
APP = "spmv-csr"
APP_DATASETS = ("ckt11752_dc_1", "Trefethen_20000", "bcsstk30")


@pytest.fixture
def fresh(monkeypatch):
    """``load_dataset`` with an empty per-process memo on every call.

    Without it a dataset generated earlier in the test session would be
    served from memory and never reach (or be read from) the store.
    """
    monkeypatch.setattr(suitesparse, "_DATASET_CACHE", {})

    def load(*args, **kwargs):
        suitesparse._DATASET_CACHE.clear()
        return load_dataset(*args, **kwargs)

    return load


def _profile_units(root):
    """The spmv-csr grid as profile units caching under ``root``."""
    context = context_to_dict(RunContext(scale=TINY))
    return [
        {"kind": "profile", "app": APP, "dataset": dataset, "context": context,
         "cache_root": str(root)}
        for dataset in APP_DATASETS
    ]


def _run_in_process(root):
    suitesparse._DATASET_CACHE.clear()
    for payload in _profile_units(root):
        execute_unit(payload)


def _only_entry(store: DatasetStore):
    entries = sorted(store.root.glob("*.npz"))
    assert len(entries) == 1
    return entries[0]


class TestDatasetStore:
    def test_hit_equals_fresh_build(self, tmp_path, fresh):
        store = DatasetStore(tmp_path, "code-a")
        with use_dataset_store(store):
            built = fresh("web-Stanford", scale=TINY)
            loaded = fresh("web-Stanford", scale=TINY)
        assert (store.misses, store.stores, store.hits) == (1, 1, 1)
        assert loaded is not built
        assert loaded.spec == built.spec and loaded.scale == built.scale
        assert loaded.matrix.shape == built.matrix.shape
        for name in ("rows", "cols", "values"):
            expected = getattr(built.matrix, name)
            actual = getattr(loaded.matrix, name)
            assert actual.dtype == expected.dtype
            np.testing.assert_array_equal(actual, expected)
        # And both equal a build that never saw a store.
        bare = fresh("web-Stanford", scale=TINY)
        np.testing.assert_array_equal(bare.matrix.values, loaded.matrix.values)

    def test_store_is_installed_per_block(self, tmp_path):
        store = DatasetStore(tmp_path, "code-a")
        assert active_dataset_store() is None
        with use_dataset_store(store):
            assert active_dataset_store() is store
            with use_dataset_store(None):
                assert active_dataset_store() is None
            assert active_dataset_store() is store
        assert active_dataset_store() is None

    def test_key_covers_every_coordinate(self, tmp_path):
        store = DatasetStore(tmp_path, "code-a")
        base = store.key("flickr", 0.25, 11, 64)
        variants = {
            store.key("fb", 0.25, 11, 64),
            store.key("flickr", 0.5, 11, 64),
            store.key("flickr", 0.25, 29, 64),
            store.key("flickr", 0.25, 11, 32),
            DatasetStore(tmp_path, "code-b").key("flickr", 0.25, 11, 64),
        }
        assert base not in variants and len(variants) == 5

    def test_writes_are_byte_identical(self, tmp_path, fresh):
        matrix = fresh("qc324").matrix
        first, second = DatasetStore(tmp_path / "a", "x"), DatasetStore(tmp_path / "b", "x")
        key = first.key("qc324", 1.0, 11, 64)
        first.store(key, matrix)
        second.store(key, matrix)
        assert _only_entry(first).read_bytes() == _only_entry(second).read_bytes()
        assert not list(first.root.glob("*.tmp"))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],
            lambda data: b"not a zip archive",
            lambda data: b"",
        ],
        ids=["truncated", "garbage", "empty"],
    )
    def test_damaged_entry_is_a_miss_and_rewritten(self, tmp_path, fresh, damage):
        store = DatasetStore(tmp_path, "code-a")
        with use_dataset_store(store):
            built = fresh("qc324")
            path = _only_entry(store)
            original = path.read_bytes()
            path.write_bytes(damage(original))
            again = fresh("qc324")
        assert (store.hits, store.misses, store.stores) == (0, 2, 2)
        assert path.read_bytes() == original
        np.testing.assert_array_equal(again.matrix.values, built.matrix.values)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda a: {**a, "rows": a["rows"][::-1].copy(), "cols": a["cols"][::-1].copy()},
            lambda a: {**a, "cols": np.concatenate([a["cols"][:1], a["cols"][:-1]])},
            lambda a: {**a, "rows": a["rows"].astype(np.int32)},
            lambda a: {**a, "values": a["values"].astype(np.float32)},
            lambda a: {**a, "cols": np.where(a["cols"] == a["cols"].max(), 10**6, a["cols"])},
            lambda a: {**a, "values": a["values"][:-1]},
            lambda a: {**a, "shape": a["shape"] + 1},
            lambda a: {k: v for k, v in a.items() if k != "values"},
        ],
        ids=[
            "keys-descending", "keys-repeated", "int32-rows", "float32-values",
            "column-out-of-bounds", "length-mismatch", "wrong-shape", "missing-member",
        ],
    )
    def test_invalid_entry_is_rejected(self, tmp_path, fresh, corrupt):
        matrix = fresh("qc324").matrix
        store = DatasetStore(tmp_path, "code-a")
        key = store.key("qc324", 1.0, 11, 64)
        store.store(key, matrix)
        with np.load(_only_entry(store), allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        np.savez(_only_entry(store), **corrupt(arrays))
        assert store.load(key, matrix.shape) is None
        assert store.misses == 1

    def test_from_canonical_checks_order(self):
        rows = np.array([0, 0, 2], dtype=np.int64)
        cols = np.array([1, 3, 0], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0])
        matrix = COOMatrix.from_canonical((3, 4), rows, cols, values)
        reference = COOMatrix((3, 4), rows, cols, values)
        np.testing.assert_array_equal(matrix.to_dense(), reference.to_dense())
        with pytest.raises(FormatError):
            COOMatrix.from_canonical((3, 4), rows[::-1].copy(), cols[::-1].copy(), values)
        empty = np.zeros(0, dtype=np.int64)
        assert COOMatrix.from_canonical((3, 4), empty, empty, np.zeros(0)).nnz == 0


class TestProfileCacheTier:
    def test_cache_off_writes_no_datasets(self, tmp_path, monkeypatch, fresh):
        # Every call starts from an empty memo, so each one generates its
        # datasets and would store them if the tier were in use.
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path))
        collect_profiles(apps=[APP], scale=TINY, cache=False)
        monkeypatch.setenv("REPRO_PROFILE_CACHE_DISABLE", "1")
        suitesparse._DATASET_CACHE.clear()
        collect_profiles(apps=[APP], scale=TINY)
        _run_in_process(tmp_path)
        assert not (tmp_path / "datasets").exists()
        assert not list(tmp_path.rglob("*.json"))

    def test_units_fill_tier_and_len_counts_profiles(self, tmp_path, fresh):
        cache = ProfileCache(root=tmp_path)
        _run_in_process(tmp_path)
        assert len(cache) == len(APP_DATASETS)
        assert len(cache.datasets()) == len(APP_DATASETS)

    def test_runner_leaves_tier_alone(self, tmp_path, fresh):
        # The runner caches profiles itself and runs its units with the
        # unit-level cache off, so they bypass the tier: an in-process run
        # already shares datasets through the memo, and writing them out
        # would only add disk traffic.
        cache = ProfileCache(root=tmp_path)
        ExperimentRunner(context=RunContext(scale=TINY), cache=cache).run(apps=[APP])
        assert len(cache) == len(APP_DATASETS)
        assert not (tmp_path / "datasets").exists()

    def test_clear_and_prune_cover_datasets(self, tmp_path, fresh, capsys):
        cache = ProfileCache(root=tmp_path)
        _run_in_process(tmp_path)
        datasets = cache.datasets()
        stale = DatasetStore(tmp_path, "an-older-fingerprint")
        stale.store(stale.key("qc324", 1.0, 11, 64), fresh("qc324").matrix)
        (datasets.root / "leftover.tmp").write_bytes(b"partial")
        assert cache.prune() == 2
        assert len(datasets) == len(APP_DATASETS) and len(cache) == len(APP_DATASETS)

        stale.store(stale.key("qc324", 1.0, 11, 64), fresh("qc324").matrix)
        assert cli_main(["--prune-cache", "--cache-dir", str(tmp_path)]) == 0
        assert len(datasets) == len(APP_DATASETS)
        assert cli_main(["--clear-cache", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 6 cache files" in capsys.readouterr().out
        assert len(datasets) == 0 and len(cache) == 0

        _run_in_process(tmp_path)
        assert cache.clear() == 2 * len(APP_DATASETS)
        assert not list(tmp_path.rglob("*.*"))

    def test_subprocess_worker_profiles_match_uncached(self, tmp_path, fresh):
        root = tmp_path / "cache"
        payloads = _profile_units(root)
        reference = collect_profiles(apps=[APP], scale=TINY, cache=False)
        expected = [profile_to_dict(reference.get(APP, d)) for d in APP_DATASETS]

        cold = SubprocessExecutor(workers=1).run_units(payloads)
        datasets = ProfileCache(root=root).datasets()
        inodes = {path: path.stat().st_ino for path in datasets.root.glob("*.npz")}
        assert len(inodes) == len(APP_DATASETS)
        # Drop the profiles: the next workers recompute them from the tier.
        for path in root.glob("*.json"):
            path.unlink()
        warm = SubprocessExecutor(workers=1).run_units(payloads)

        for outcomes in (cold, warm):
            assert [o.status for o in outcomes] == ["ok"] * len(APP_DATASETS)
            assert [profile_to_dict(o.result) for o in outcomes] == expected
        # Served from the tier, not regenerated and replaced.
        assert {path: path.stat().st_ino for path in datasets.root.glob("*.npz")} == inodes
