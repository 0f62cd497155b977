"""Unit tests for the geometry memoization layer (cache.py).

Covers the LRU mechanics, the global on/off switch, polytope interning,
counter accounting, and the read-only discipline of shared arrays — the
machinery the memoized primitives in hull/intersection/combination/
polytope rely on.
"""

import numpy as np
import pytest

from repro.geometry.cache import (
    COMBINATION_CACHE,
    HULL_CACHE,
    PERF,
    POLYTOPE_CACHE,
    SUBSET_CACHE,
    LruCache,
    array_key,
    cache_enabled,
    cache_override,
    cache_stats,
    clear_geometry_caches,
    freeze_readonly,
    set_cache_enabled,
)
from repro.geometry.hull import hull_vertices
from repro.geometry.polytope import ConvexPolytope


@pytest.fixture(autouse=True)
def _cold_enabled_cache():
    """Each test starts with cold caches and memoization on."""
    previous = set_cache_enabled(True)
    clear_geometry_caches()
    yield
    clear_geometry_caches()
    set_cache_enabled(previous)


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(maxsize=4, name="t")
        assert cache.get("k") is None
        assert cache.get("k", 7) == 7
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert "k" in cache
        assert len(cache) == 1

    def test_eviction_drops_least_recently_used(self):
        cache = LruCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" — "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_put_existing_key_refreshes_without_evicting(self):
        cache = LruCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite: no growth, "b" stays
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_size_bound_holds_under_churn(self):
        cache = LruCache(maxsize=8, name="t")
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 8
        assert cache.evictions == 92
        assert all(i in cache for i in range(92, 100))

    def test_clear_keeps_eviction_count(self):
        cache = LruCache(maxsize=1, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)


class TestGlobalSwitch:
    def test_set_returns_previous(self):
        assert set_cache_enabled(False) is True
        assert cache_enabled() is False
        assert set_cache_enabled(True) is False
        assert cache_enabled() is True

    def test_cache_disabled_context_restores(self):
        assert cache_enabled()
        with cache_override(False):
            assert not cache_enabled()
            with cache_override(False):  # reentrant
                assert not cache_enabled()
            assert not cache_enabled()
        assert cache_enabled()

    def test_cache_override_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with cache_override(False):
                raise RuntimeError("boom")
        assert cache_enabled()

    def test_disabled_hull_does_not_populate_cache(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
        with cache_override(False):
            hull_vertices(pts)
        assert len(HULL_CACHE) == 0
        hull_vertices(pts)
        assert len(HULL_CACHE) == 1


class TestMemoizedPrimitives:
    def test_hull_second_call_hits(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
        before = PERF.snapshot()
        first = hull_vertices(pts)
        second = hull_vertices(pts.copy())  # same bytes, different object
        delta = PERF.diff(before)
        assert delta["hull_calls"] == 2
        assert delta["hull_cache_misses"] == 1
        assert delta["hull_cache_hits"] == 1
        assert first is second  # the shared cached array, not a copy

    def test_hrep_second_call_hits(self):
        # The H-rep is cached on the polytope itself, read-only.
        poly = ConvexPolytope.from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        before = PERF.snapshot()
        assert poly.violation([0.2, 0.2]) < 0.0
        assert poly.violation([2.0, 2.0]) > 0.0
        a, b = poly.hrep()
        assert PERF.diff(before)["hrep_calls"] == 1
        shared_a, shared_b = poly._hrep
        assert not shared_a.flags.writeable and not shared_b.flags.writeable
        a[0, 0] = 99.0  # hrep() hands out copies
        assert shared_a[0, 0] != 99.0

    def test_cached_arrays_are_readonly(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        out = hull_vertices(pts)
        hit = hull_vertices(pts)
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 99.0

    def test_different_bytes_different_entries(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = a + 1e-12  # different bits -> different key, no false sharing
        hull_vertices(a)
        before = PERF.snapshot()
        hull_vertices(b)
        assert PERF.diff(before)["hull_cache_misses"] == 1


class TestPolytopeInterning:
    def test_interned_instance_is_shared(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p1 = ConvexPolytope.from_trusted_vertices(verts, dim=2)
        p2 = ConvexPolytope.from_trusted_vertices(verts.copy(), dim=2)
        assert p1 is p2

    def test_interning_off_when_disabled(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with cache_override(False):
            p1 = ConvexPolytope.from_trusted_vertices(verts, dim=2)
            p2 = ConvexPolytope.from_trusted_vertices(verts, dim=2)
        assert p1 is not p2
        np.testing.assert_array_equal(p1.vertices, p2.vertices)

    def test_trusted_matches_from_points_on_minimal_input(self):
        verts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        trusted = ConvexPolytope.from_trusted_vertices(verts, dim=2)
        rebuilt = ConvexPolytope.from_points(verts, dim=2)
        assert sorted(map(tuple, trusted.vertices)) == sorted(
            map(tuple, rebuilt.vertices)
        )


class TestStatsAndKeys:
    def test_registry_covers_all_caches(self):
        stats = cache_stats()
        assert set(stats) == {
            "hull", "subset_intersection", "combination", "polytope"
        }
        for entry in stats.values():
            assert entry["size"] == 0  # cold-started by the fixture
            assert entry["maxsize"] >= 1
            assert entry["evictions"] >= 0

    def test_clear_geometry_caches_empties_every_cache(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        hull_vertices(pts)
        ConvexPolytope.from_trusted_vertices(pts, dim=2)
        assert len(HULL_CACHE) + len(POLYTOPE_CACHE) > 0
        clear_geometry_caches()
        for cache in (HULL_CACHE, SUBSET_CACHE, COMBINATION_CACHE, POLYTOPE_CACHE):
            assert len(cache) == 0

    def test_array_key_is_content_addressed(self):
        a = np.array([[1.0, 2.0]])
        assert array_key(a) == array_key(a.copy())
        assert array_key(a) != array_key(a.reshape(2, 1))  # same bytes, new shape
        assert array_key(a) != array_key(a + 1.0)

    def test_freeze_readonly(self):
        arr = np.zeros((2, 2))
        out = freeze_readonly(arr)
        assert out is arr
        assert not out.flags.writeable


class TestCounters:
    def test_snapshot_diff_reset(self):
        before = PERF.snapshot()
        PERF.hull_calls += 3
        delta = PERF.diff(before)
        assert delta["hull_calls"] == 3
        assert delta["lp_solves"] == 0
        fresh = PERF.snapshot()
        fresh.reset()
        assert fresh.hull_calls == 0
        assert PERF.hull_calls >= 3  # resetting a snapshot leaves PERF alone
