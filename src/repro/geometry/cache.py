"""Content-addressed memoization layer for the geometry kernel.

Algorithm CC performs the *same* geometric computations many times per
execution: every receiver of a round message used to re-hull a vertex set
the sender had already minimized, all processes sharing a stable-vector
view compute the identical round-0 subset intersection, and processes
freezing the same ``Y_i[t]`` multiset compute the identical combination
``L``.  This module provides the shared machinery that collapses that
redundancy:

* :class:`Memo` — the one memo path.  Each memoized primitive
  (``hull_vertices``, ``intersect_subset_hulls``, ``linear_combination``
  and ``ConvexPolytope.from_trusted_vertices``) owns one instance and
  routes every call through :meth:`Memo.fetch`, which does the on/off
  check, the bounded-LRU lookup, the primitive's ``*_hits``/``*_misses``
  counting, the read-only freeze of shared arrays, and the optional
  shared-disk tier (:mod:`repro.geometry.shared_cache`);
* content-addressed keys (:func:`array_key`) — a geometry value is keyed
  by the raw bytes of its float64 vertex array, so *results are shared
  if and only if the inputs are bit-identical*.  Every memoized path is
  therefore bit-identical to the unmemoized path by construction: the
  cached value was produced by the very same code on the very same bytes;
* a global on/off switch (:func:`set_cache_enabled`,
  :func:`cache_override`) for A/B benchmarking — with the switch off,
  every memoized entry point falls through to its original computation;
* the :class:`PerfCounters` singleton :data:`PERF` — cheap monotonic
  counters (hull calls, cache hits/misses, LP solves, Minkowski candidate
  counts, depth fast-path routing and candidate-halfspace tallies)
  incremented by the geometry hot paths and surfaced by
  :mod:`repro.analysis.perf_counters`, the simulator report, and the
  benchmark harness.

Cached arrays are returned *without copying* and are marked read-only;
polytopes are immutable by design, so no invalidation story is needed.
The caches are process-global and not thread-safe (the simulator is a
single-threaded discrete-event loop).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Callable, Hashable, Iterator

import numpy as np

#: Default bound on each cache's entry count.  Entries are whole vertex
#: arrays / polytopes of the sizes Algorithm CC produces (tens of floats),
#: so the worst-case footprint is a few MB per cache.
DEFAULT_CACHE_SIZE = 4096


# ----------------------------------------------------------------------
# Perf counters
# ----------------------------------------------------------------------

@dataclass
class PerfCounters:
    """Monotonic counters for the geometry/runtime hot paths.

    All fields are plain ints; incrementing one is a single attribute
    add, cheap enough to leave enabled unconditionally (counting happens
    with the cache on *or* off, so A/B runs are directly comparable).
    """

    hull_calls: int = 0
    hull_cache_hits: int = 0
    hull_cache_misses: int = 0
    hrep_calls: int = 0
    subset_intersection_calls: int = 0
    subset_intersection_cache_hits: int = 0
    subset_intersection_cache_misses: int = 0
    subset_fast_path_hits: int = 0
    depth_halfspace_candidates: int = 0
    depth_halfspaces_kept: int = 0
    combination_calls: int = 0
    combination_cache_hits: int = 0
    combination_cache_misses: int = 0
    polytope_intern_hits: int = 0
    polytope_intern_misses: int = 0
    lp_solves: int = 0
    minkowski_pairs: int = 0
    minkowski_candidates: int = 0
    # Batch-core counters (repro.geometry.batch): pruning effectiveness of
    # the batched Hausdorff maximisation.  ``batch_hausdorff_pair_prunes``
    # is never incremented: the pair-bound pass it counted pruned nothing
    # on any measured workload and was removed; the field stays because
    # the benchmark reports it.
    batch_hausdorff_pairs: int = 0
    batch_hausdorff_pair_prunes: int = 0
    batch_hausdorff_vertex_prunes: int = 0
    batch_hausdorff_dedup_groups: int = 0
    # Shared cross-worker cache counters (repro.geometry.shared_cache).
    # Hits are split by provenance: ``local`` entries were written by this
    # very process (an intra-worker hit that the in-memory LRU missed,
    # e.g. after eviction), ``foreign`` entries were written by another
    # worker or a previous run — the cross-worker sharing the cache
    # exists for.  Merged engine counters therefore no longer conflate
    # intra-worker memoization with genuine cross-worker reuse.
    shared_cache_hits_local: int = 0
    shared_cache_hits_foreign: int = 0
    shared_cache_misses: int = 0
    shared_cache_writes: int = 0
    shared_cache_errors: int = 0
    # Transport-layer counters (repro.runtime.transport): incremented by
    # the lossy fabric and reliable-delivery layer, surfaced through
    # SimulationReport.perf_counters like the geometry counters above.
    retransmissions: int = 0
    dup_drops: int = 0
    ack_messages: int = 0
    partition_heals: int = 0
    link_drops: int = 0
    link_dups: int = 0
    # Crash-recovery counters (repro.runtime.checkpoint / .recovery):
    # checkpoint traffic, restore outcomes (a corruption degrades a
    # durable recovery to amnesia), reanimations per durability mode,
    # and application frames consumed while the receiver was crashed
    # (acked by the transport infrastructure, never delivered upward).
    checkpoint_saves: int = 0
    checkpoint_restores: int = 0
    checkpoint_corruptions: int = 0
    process_recoveries: int = 0
    recovery_restarts: int = 0
    crashed_app_drops: int = 0
    # Byzantine counters (repro.runtime.byzantine / .transport): frames
    # scrambled on a corrupting link and dropped at the checksum gate,
    # and the adversary's per-behavior mutation tallies.
    corrupt_drops: int = 0
    byz_equivocations: int = 0
    byz_forgeries: int = 0
    byz_omissions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def snapshot(self) -> "PerfCounters":
        return PerfCounters(**self.as_dict())

    def diff(self, earlier: "PerfCounters") -> dict[str, int]:
        """Counter deltas since ``earlier`` (a prior :meth:`snapshot`)."""
        now = self.as_dict()
        before = earlier.as_dict()
        return {name: now[name] - before[name] for name in now}

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: The process-global counter singleton.
PERF = PerfCounters()

#: ``PERF``'s field storage.  :class:`Memo` bumps its counters here, one
#: dict update per lookup: a getattr/setattr pair costs about as much as
#: the LRU lookup itself on the interning hot path.
_PERF_FIELDS = vars(PERF)


# ----------------------------------------------------------------------
# Global switch
# ----------------------------------------------------------------------

_ENABLED = True


def cache_enabled() -> bool:
    """True when the geometry memoization layer is active."""
    return _ENABLED


def set_cache_enabled(enabled: bool) -> bool:
    """Globally enable/disable memoization; returns the previous state.

    Disabling does not clear stored entries — re-enabling resumes with
    the warm caches.  Use :func:`clear_geometry_caches` for a cold start.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def cache_override(enabled: bool) -> Iterator[None]:
    """Context manager: force the switch to ``enabled`` within the block."""
    previous = set_cache_enabled(enabled)
    try:
        yield
    finally:
        set_cache_enabled(previous)


# ----------------------------------------------------------------------
# Bounded LRU cache
# ----------------------------------------------------------------------

class LruCache:
    """A bounded mapping with least-recently-used eviction.

    A thin :class:`OrderedDict` wrapper: ``get`` refreshes recency,
    ``put`` evicts the oldest entry beyond ``maxsize``.  Hit/miss
    accounting lives in the :class:`Memo` subclass, so each memoized
    primitive reports into its own :class:`PerfCounters` fields.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE, name: str = ""):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()


#: Registry of every named cache, for bulk clearing and stats reporting.
_REGISTRY: dict[str, LruCache] = {}


class Memo(LruCache):
    """The memo path of one geometry primitive.

    An :class:`LruCache` registered under ``name`` that also owns the
    primitive's ``{counter}_hits`` / ``{counter}_misses`` fields of
    :data:`PERF`, the read-only freeze of array results it shares, and
    (through :meth:`fetch`'s ``disk`` argument) the shared-disk tier.
    """

    def __init__(self, name: str, counter: str):
        super().__init__(name=name)
        self.hits_field = f"{counter}_hits"
        self.misses_field = f"{counter}_misses"
        _REGISTRY[name] = self

    def fetch(
        self,
        key: Hashable,
        compute: Callable[..., Any],
        *args: Any,
        disk: tuple[str, list, tuple] | None = None,
    ) -> Any:
        """``compute(*args)``, memoized under ``key`` while caching is on.

        ``disk`` is ``(op, arrays, params)`` for a polytope-valued
        primitive worth a disk round trip: on an LRU miss the shared
        cross-worker cache is consulted under
        ``content_key(op, arrays, params)`` before computing, and a fresh
        result is published there.  Disk hits count as LRU misses, as
        the disk tier keeps its own ``shared_cache_*`` counters.
        """
        if not _ENABLED:
            return compute(*args)
        value = self.get(key)
        if value is not None:
            _PERF_FIELDS[self.hits_field] += 1
            return value
        _PERF_FIELDS[self.misses_field] += 1
        disk_key: str | None = None
        if disk is not None:
            from . import shared_cache  # deferred: shared_cache imports PERF

            if shared_cache.shared_cache_enabled():
                disk_key = shared_cache.content_key(*disk)
                value = shared_cache.load_polytope(disk_key)
                if value is not None:
                    self.put(key, value)
                    return value
        value = compute(*args)
        if isinstance(value, np.ndarray):
            freeze_readonly(value)
        self.put(key, value)
        if disk_key is not None:
            shared_cache.store_polytope(disk_key, value)
        return value


#: hull_vertices results: (shape, bytes of deduplicated input) -> vertex array.
HULL_CACHE = Memo("hull", "hull_cache")
#: intersect_subset_hulls results: (shape, bytes, f) -> ConvexPolytope.
SUBSET_CACHE = Memo("subset_intersection", "subset_intersection_cache")
#: linear_combination results: (operand keys..., weights) -> ConvexPolytope.
COMBINATION_CACHE = Memo("combination", "combination_cache")
#: Interned trusted polytopes: (dim, shape, bytes) -> ConvexPolytope.
POLYTOPE_CACHE = Memo("polytope", "polytope_intern")


def clear_geometry_caches() -> None:
    """Empty every geometry cache (counters are left untouched)."""
    for cache in _REGISTRY.values():
        cache.clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Size/capacity/eviction stats for every registered cache."""
    return {
        name: {
            "size": len(cache),
            "maxsize": cache.maxsize,
            "evictions": cache.evictions,
        }
        for name, cache in _REGISTRY.items()
    }


# ----------------------------------------------------------------------
# Content-addressed keys
# ----------------------------------------------------------------------

def array_key(arr: np.ndarray) -> tuple:
    """Content key of a float64 point array: its shape plus raw bytes.

    Bit-identical arrays — and only those — share a key, which is what
    makes every cached path provably equivalent to the uncached one.
    """
    return (arr.shape, arr.tobytes())


def freeze_readonly(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only before it is shared through a cache."""
    arr.setflags(write=False)
    return arr
