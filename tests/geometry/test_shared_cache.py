"""Tests for the shared cross-worker disk cache (repro.geometry.shared_cache).

Covers the satellite checklist: concurrent multi-process read/write
safety, corruption tolerance (truncated entries recompute instead of
crashing), append-only semantics, the local/foreign hit provenance split,
and bit-identity of cached vs. recomputed results under both
``batch_override`` settings.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.geometry.batch import batch_override
from repro.geometry.cache import PERF, clear_geometry_caches
from repro.geometry.combination import linear_combination
from repro.geometry.intersection import intersect_subset_hulls
from repro.geometry.polytope import ConvexPolytope
from repro.geometry.shared_cache import (
    content_key,
    load_arrays,
    load_polytope,
    reset_written_keys,
    set_shared_cache_dir,
    shared_cache_dir,
    shared_cache_enabled,
    store_arrays,
    store_polytope,
)


@pytest.fixture()
def cache_dir(tmp_path):
    """Route the shared cache at a temp dir for the duration of a test."""
    previous = set_shared_cache_dir(tmp_path)
    reset_written_keys()
    clear_geometry_caches()
    yield tmp_path
    set_shared_cache_dir(previous)
    reset_written_keys()
    clear_geometry_caches()


def family(seed, k=3, d=2):
    rng = np.random.default_rng(seed)
    return [
        ConvexPolytope.from_points(rng.normal(size=(8, d))) for _ in range(k)
    ]


class TestConfiguration:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        previous = set_shared_cache_dir(None)
        try:
            assert shared_cache_dir() is None
            assert not shared_cache_enabled()
            assert load_arrays("0" * 64) is None
            assert not store_arrays("0" * 64, {"x": np.zeros(3)})
        finally:
            set_shared_cache_dir(previous)

    def test_env_var_enables(self, monkeypatch, tmp_path):
        previous = set_shared_cache_dir(None)
        try:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
            assert shared_cache_dir() == tmp_path
            monkeypatch.delenv("REPRO_CACHE_DIR")
            assert shared_cache_dir() is None
        finally:
            set_shared_cache_dir(previous)

    def test_override_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        previous = set_shared_cache_dir(tmp_path / "override")
        try:
            assert shared_cache_dir() == tmp_path / "override"
            set_shared_cache_dir("")  # force-disable regardless of env
            assert shared_cache_dir() is None
        finally:
            set_shared_cache_dir(previous)


class TestContentKeys:
    def test_bit_identical_inputs_share_keys(self):
        a = np.arange(6, dtype=float).reshape(3, 2)
        assert content_key("op", [a]) == content_key("op", [a.copy()])

    def test_any_difference_changes_key(self):
        a = np.arange(6, dtype=float).reshape(3, 2)
        base = content_key("op", [a])
        assert content_key("other", [a]) != base
        assert content_key("op", [a], params=(1,)) != base
        assert content_key("op", [a + 1e-300]) != base  # bit-level change
        assert content_key("op", [a.reshape(2, 3)]) != base  # shape matters


class TestRoundTrips:
    def test_arrays(self, cache_dir):
        key = content_key("t", [np.ones(3)])
        arrays = {"x": np.linspace(0, 1, 7), "y": np.eye(3)}
        assert store_arrays(key, arrays)
        loaded = load_arrays(key)
        assert set(loaded) == {"x", "y"}
        assert np.array_equal(loaded["x"], arrays["x"])
        assert np.array_equal(loaded["y"], arrays["y"])

    def test_polytope_and_empty(self, cache_dir):
        poly = family(0)[0]
        key = content_key("p", [poly.vertices])
        store_polytope(key, poly)
        back = load_polytope(key)
        assert back.dim == poly.dim
        assert np.array_equal(back.vertices, poly.vertices)
        empty = ConvexPolytope.empty(3)
        key2 = content_key("p", [empty.vertices], params=("empty",))
        store_polytope(key2, empty)
        back2 = load_polytope(key2)
        assert back2.is_empty and back2.dim == 3

    def test_append_only(self, cache_dir):
        key = content_key("a", [np.zeros(2)])
        assert store_arrays(key, {"v": np.array([1.0])})
        # A second write with different content is refused: first wins.
        assert not store_arrays(key, {"v": np.array([2.0])})
        assert float(load_arrays(key)["v"][0]) == 1.0


class TestCorruptionTolerance:
    def _all_entry_files(self, root):
        return [
            os.path.join(base, name)
            for base, _, names in os.walk(root)
            for name in names
        ]

    def test_truncated_entry_recomputes(self, cache_dir):
        polys = family(1)
        ref = linear_combination(polys, [0.5, 0.25, 0.25])
        files = self._all_entry_files(cache_dir)
        assert files
        for path in files:
            with open(path, "r+b") as fh:
                fh.truncate(8)
        clear_geometry_caches()
        errors_before = PERF.shared_cache_errors
        again = linear_combination(polys, [0.5, 0.25, 0.25])
        assert PERF.shared_cache_errors > errors_before
        assert np.array_equal(ref.vertices, again.vertices)

    def test_garbage_entry_recomputes(self, cache_dir):
        key = content_key("g", [np.ones(1)])
        store_arrays(key, {"v": np.ones(1)})
        for path in self._all_entry_files(cache_dir):
            with open(path, "wb") as fh:
                fh.write(b"not an npz file")
        assert load_arrays(key) is None

    def test_unwritable_directory_is_harmless(self, cache_dir):
        # Pointing the cache at a path that cannot be created must not
        # break computation — errors count, results still come back.
        set_shared_cache_dir(os.path.join(os.devnull, "nope"))
        errors_before = PERF.shared_cache_errors
        result = linear_combination(family(2), [0.5, 0.25, 0.25])
        assert result.num_vertices > 0
        assert PERF.shared_cache_errors >= errors_before


class TestHitProvenance:
    def test_local_vs_foreign_split(self, cache_dir):
        polys = family(3)
        linear_combination(polys, [0.2, 0.3, 0.5])  # miss + write
        clear_geometry_caches()
        before_local = PERF.shared_cache_hits_local
        linear_combination(polys, [0.2, 0.3, 0.5])  # disk hit, our own key
        assert PERF.shared_cache_hits_local == before_local + 1
        # Forgetting written keys models a different process reading the
        # same directory: the same hit is now foreign.
        reset_written_keys()
        clear_geometry_caches()
        before_foreign = PERF.shared_cache_hits_foreign
        linear_combination(polys, [0.2, 0.3, 0.5])
        assert PERF.shared_cache_hits_foreign == before_foreign + 1

    def test_offered_but_lost_race_counts_local(self, cache_dir):
        key = content_key("race", [np.arange(3.0)])
        store_arrays(key, {"v": np.zeros(1)})
        # Same key offered again (write refused — entry exists) still
        # marks the key as locally computed.
        store_arrays(key, {"v": np.zeros(1)})
        before = PERF.shared_cache_hits_local
        load_arrays(key)
        assert PERF.shared_cache_hits_local == before + 1


class TestBitIdentityBothBatchSettings:
    @pytest.mark.parametrize("batch_on", [False, True])
    def test_cached_equals_recomputed(self, cache_dir, batch_on):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(9, 2))
        polys = family(4)
        with batch_override(batch_on):
            comb_cold = linear_combination(polys, [0.5, 0.25, 0.25])
            inter_cold = intersect_subset_hulls(pts, 2)
            clear_geometry_caches()  # force the disk path
            comb_warm = linear_combination(polys, [0.5, 0.25, 0.25])
            inter_warm = intersect_subset_hulls(pts, 2)
        assert np.array_equal(comb_cold.vertices, comb_warm.vertices)
        assert np.array_equal(inter_cold.vertices, inter_warm.vertices)
        # And across settings: the combination kernel is batch-agnostic.
        set_shared_cache_dir("")
        clear_geometry_caches()
        with batch_override(not batch_on):
            comb_other = linear_combination(polys, [0.5, 0.25, 0.25])
        assert np.array_equal(comb_cold.vertices, comb_other.vertices)


def _concurrent_worker(args):
    """Worker for the concurrency test: compute/load the same jobs."""
    cache_dir, seed = args
    set_shared_cache_dir(cache_dir)
    clear_geometry_caches()
    # Every worker computes the same family in a different order, so all
    # of them race to publish the same keys.
    polys = family(77)
    weights = [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]]
    order = np.random.default_rng(seed).permutation(len(weights))
    out = []
    for idx in order:
        res = linear_combination(polys, weights[idx])
        out.append((int(idx), res.vertices.tobytes()))
    return sorted(out)


class TestConcurrency:
    def test_many_processes_one_directory(self, tmp_path):
        """Racing writers/readers agree bit-for-bit and never crash."""
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(3) as pool:
            results = pool.map(
                _concurrent_worker, [(str(tmp_path), s) for s in range(6)]
            )
        assert all(r == results[0] for r in results[1:])
        # The cache now holds exactly one entry per distinct job.
        files = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.endswith(".npz")
        ]
        assert len(files) == 3
