"""Perf-counter reporting: the user-facing face of the geometry kernel's
instrumentation.

The counters themselves live in :mod:`repro.geometry.cache` (the lowest
layer of the stack, so hull/H-rep/LP/Minkowski hot paths can increment
them without upward imports); this module re-exports the singleton and
adds the measurement ergonomics the analysis and benchmark layers need:

* :func:`snapshot` / :func:`counters_since` — delta-based attribution of
  geometry work to a region of code,
* :func:`measure` — time a callable and capture its counter deltas in one
  call (what the benchmark harness records into ``BENCH_*.json``),
* :func:`cache_hit_rate` — the *intra-worker* redundancy metric: the
  fraction of memoizable geometry calls served from the in-memory LRU
  layer of the process that made them,
* :func:`shared_cache_hit_rate` — the *cross-worker* sharing metric: the
  fraction of shared-disk-cache lookups answered by an entry some
  **other** process wrote (``foreign`` hits).  The two are deliberately
  separate: merged per-worker LRU counters near 1.0 say nothing about
  sharing *between* workers (each worker may still pay every cold miss
  itself), which is exactly what the foreign-hit rate measures.

Typical use::

    from repro.analysis.perf_counters import measure

    result, seconds, counters = measure(run_convex_hull_consensus, inputs, 1, 0.3)
    print(seconds, counters["hull_calls"], counters["hull_cache_hits"])
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..geometry.cache import PERF, PerfCounters, cache_stats

__all__ = [
    "PERF",
    "PerfCounters",
    "cache_hit_rate",
    "cache_stats",
    "counters_since",
    "measure",
    "shared_cache_hit_rate",
    "snapshot",
]

#: Counter-name pairs (lookups, hits) for every memoized primitive.
_HIT_PAIRS: tuple[tuple[str, str], ...] = (
    ("hull_calls", "hull_cache_hits"),
    ("subset_intersection_calls", "subset_intersection_cache_hits"),
    ("combination_calls", "combination_cache_hits"),
)


def snapshot() -> PerfCounters:
    """Immutable copy of the current global counters."""
    return PERF.snapshot()


def counters_since(earlier: PerfCounters) -> dict[str, int]:
    """Counter deltas accumulated since ``earlier`` (a :func:`snapshot`)."""
    return PERF.diff(earlier)


def cache_hit_rate(counters: dict[str, int] | None = None) -> float:
    """Fraction of memoizable geometry calls served from the in-memory LRU.

    Aggregates hull, subset-intersection and combination lookups.
    ``counters`` defaults to the global totals; pass a delta dict (from
    :func:`counters_since` or :func:`measure`) to scope the rate to one
    measured region.  Returns 0.0 when nothing was measured.

    This is an **intra-worker** metric: the LRU caches are per-process,
    so summing counters across engine workers yields the average
    within-worker redundancy collapse — it does *not* measure sharing
    between workers (a merged rate of 1.0 is consistent with every worker
    paying every cold miss itself).  Cross-worker sharing is
    :func:`shared_cache_hit_rate`.
    """
    counts = counters if counters is not None else PERF.as_dict()
    lookups = sum(counts.get(total, 0) for total, _ in _HIT_PAIRS)
    hits = sum(counts.get(hit, 0) for _, hit in _HIT_PAIRS)
    if lookups == 0:
        return 0.0
    return hits / lookups


def shared_cache_hit_rate(
    counters: dict[str, int] | None = None, *, foreign_only: bool = True
) -> float:
    """Fraction of shared-disk-cache lookups answered from disk.

    With ``foreign_only=True`` (the default) only ``foreign`` hits —
    entries written by *another* process or an earlier run — count as
    hits, so the rate measures genuine cross-worker/cross-run sharing.
    ``foreign_only=False`` also counts ``local`` hits (entries this very
    process wrote and later re-read past its LRU).  Returns 0.0 when the
    shared cache saw no lookups in the measured region.
    """
    counts = counters if counters is not None else PERF.as_dict()
    foreign = counts.get("shared_cache_hits_foreign", 0)
    local = counts.get("shared_cache_hits_local", 0)
    misses = counts.get("shared_cache_misses", 0)
    hits = foreign if foreign_only else foreign + local
    lookups = foreign + local + misses
    if lookups == 0:
        return 0.0
    return hits / lookups


def measure(
    fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> tuple[Any, float, dict[str, int]]:
    """Run ``fn(*args, **kwargs)`` once, timed and counter-attributed.

    Returns ``(result, wall_seconds, counter_deltas)``.  The counters are
    global, so the attribution is only meaningful when nothing else runs
    geometry concurrently (the library is single-threaded throughout).
    """
    before = snapshot()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    return result, elapsed, counters_since(before)
