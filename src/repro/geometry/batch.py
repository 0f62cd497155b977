"""Batch operations over many polytopes at once — the batch geometry core.

Algorithm CC's cost after the PR-1 memoization layer and the PR-4 depth
fast path is dominated by *per-polytope python loops*: the per-vertex
Hausdorff maximisation behind every ``d_H`` evaluation (a FISTA projection
per vertex, ~1.2M tiny numpy calls for one n=16 analysis pass).  This
module restructures that path around **batch** inputs: a
stacked-vertex-array + prefix-index batch type and batched
Hausdorff-distance maximisation with certified pruning.

Equivalence contract
--------------------
Every batched path is designed to return **bit-identical** results to the
scalar oracle (the pre-existing per-polytope implementations, which stay
in place behind ``REPRO_GEOMETRY_BATCH=0``), by one of two arguments:

* *same-kernel*: the batched path performs exactly the scalar kernel's
  floating-point operations on exactly the scalar kernel's operands —
  redundancy collapse (dedup, caching) and vectorized bound computation
  never change what the surviving kernel invocations compute; or
* *certified pruning*: a maximisation skips a candidate only when a
  certified upper bound on its value lies below an already-*achieved*
  kernel value minus a safety margin (:data:`PRUNE_MARGIN`, resolution
  orders of magnitude above the projection solver's accuracy), so the
  returned maximum is the same float the exhaustive scan produces.

The seeded property suites in ``tests/property/test_batch_properties.py``
assert exact (``==``) equality between the two paths, and CI runs the
whole fast tier under both switch settings.

Switch
------
``REPRO_GEOMETRY_BATCH`` (default on; ``0``/``false``/``off`` disables)
selects the batched implementations behind the public entry points in
:mod:`repro.geometry.hausdorff`; :func:`set_batch_enabled` /
:func:`batch_override` flip it programmatically.  The env var is re-read
on every query so engine workers configured via the environment agree
with their parent.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np
from .cache import PERF, array_key
from .errors import DimensionMismatchError, EmptyPolytopeError
from .polytope import ConvexPolytope
from .projection import project_onto_hull

__all__ = [
    "PRUNE_MARGIN",
    "PolytopeBatch",
    "batch_directed_hausdorff",
    "batch_disagreement_diameter",
    "batch_hausdorff_distance",
    "batch_enabled",
    "batch_override",
    "set_batch_enabled",
]

#: Relative safety margin for certified pruning: a candidate is skipped
#: only when its certified upper bound lies this far (times the
#: coordinate scale) below an achieved exact value.  The projection
#: solver is accurate to ~1e-11 relative, so the margin leaves two
#: orders of magnitude of slack while still pruning everything that is
#: not within a hair of the maximum.
PRUNE_MARGIN = 1e-9

_ENV_VAR = "REPRO_GEOMETRY_BATCH"
_OFF_VALUES = ("0", "false", "off")

#: Programmatic override; ``None`` defers to the environment.
_BATCH_OVERRIDE: bool | None = None


def batch_enabled() -> bool:
    """True when public geometry entry points route to the batch core."""
    if _BATCH_OVERRIDE is not None:
        return _BATCH_OVERRIDE
    return os.environ.get(_ENV_VAR, "1") not in _OFF_VALUES


def set_batch_enabled(enabled: bool | None) -> bool | None:
    """Force the switch (``True``/``False``) or restore env control (``None``).

    Returns the previous override for save/restore.
    """
    global _BATCH_OVERRIDE
    previous = _BATCH_OVERRIDE
    _BATCH_OVERRIDE = enabled if enabled is None else bool(enabled)
    return previous


@contextmanager
def batch_override(enabled: bool) -> Iterator[None]:
    """Context manager: run a block with the batch core forced on/off."""
    previous = set_batch_enabled(enabled)
    try:
        yield
    finally:
        set_batch_enabled(previous)


# ----------------------------------------------------------------------
# PolytopeBatch
# ----------------------------------------------------------------------

class PolytopeBatch:
    """Many polytopes as one stacked vertex array plus prefix indices.

    The batch layout is the currency of the batch core: member ``i``'s
    vertices are ``stacked[offsets[i]:offsets[i+1]]``, so cross-member
    vectorized operations (pairwise distance blocks) run as single numpy
    calls over the whole population instead of per-polytope python loops.

    Members must share one ambient dimension and be non-empty (the batch
    operations below are maximisations, undefined on empty operands
    exactly as their scalar counterparts are).
    """

    __slots__ = ("stacked", "offsets", "dim")

    def __init__(self, polytopes: Sequence[ConvexPolytope]):
        members = list(polytopes)
        if not members:
            raise ValueError("PolytopeBatch requires at least one polytope")
        dim = members[0].dim
        for poly in members:
            if poly.dim != dim:
                raise DimensionMismatchError("mixed dimensions in batch")
            if poly.is_empty:
                raise EmptyPolytopeError("empty polytope in batch")
        counts = np.array([p.num_vertices for p in members], dtype=np.int64)
        offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.stacked = np.vstack([p.vertices for p in members])
        self.offsets = offsets
        self.dim = dim

    def coordinate_scale(self) -> float:
        """``max(1, max |coordinate|)`` over the whole batch (margin scaling)."""
        return max(float(np.max(np.abs(self.stacked))), 1.0)


# ----------------------------------------------------------------------
# Batched Hausdorff maximisation
# ----------------------------------------------------------------------

def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact pairwise Euclidean distances, shape ``(|a|, |b|)``.

    Elementwise subtraction, per-entry sequential squared-sum over the
    coordinate axis (einsum), and sqrt — the same operations, in the same
    order, that the scalar kernels apply to each individual pair.
    """
    diff = a[:, None, :] - b[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.sqrt(d2)


def batch_directed_hausdorff(
    source: ConvexPolytope, target: ConvexPolytope
) -> float:
    """``max_{p in source} d_E(p, target)`` via batched bound-and-prune.

    Bit-identical to the scalar ``directed_hausdorff``:

    * identical vertex arrays short-circuit to ``0.0`` — the scalar loop
      provably returns exactly ``0.0`` there (every projection takes the
      coincident-vertex fast exit);
    * otherwise the per-vertex distances-to-``target``'s-*vertex-set* are
      computed in one vectorized call.  Each is a certified upper bound
      on the vertex's distance to ``target`` (the hull contains its
      vertices).  Source vertices are visited in decreasing bound order;
      each visit runs the *scalar projection kernel* unchanged.  Once the
      remaining bounds fall :data:`PRUNE_MARGIN` below the best exact
      distance already achieved, no remaining vertex can change the
      maximum and the scan stops.  The returned value is therefore always
      produced by the same kernel arithmetic as the exhaustive loop.
    """
    if source.dim != target.dim:
        raise DimensionMismatchError(
            f"polytope dims differ: {source.dim} vs {target.dim}"
        )
    if source.is_empty or target.is_empty:
        raise EmptyPolytopeError("directed Hausdorff undefined for empty polytopes")
    src = source.vertices
    tgt = target.vertices
    if array_key(src) == array_key(tgt):
        return 0.0
    bounds = _cross_distances(src, tgt).min(axis=1)
    order = np.argsort(-bounds, kind="stable")
    scale = max(
        float(np.max(np.abs(src))), float(np.max(np.abs(tgt))), 1.0
    )
    margin = PRUNE_MARGIN * scale
    worst = 0.0
    for rank, idx in enumerate(order):
        if bounds[idx] <= worst - margin:
            PERF.batch_hausdorff_vertex_prunes += order.size - rank
            break
        vertex = src[idx]
        projection, _ = project_onto_hull(vertex, tgt)
        dist = float(np.linalg.norm(projection - vertex))
        if dist > worst:
            worst = dist
    return worst


def batch_hausdorff_distance(h1: ConvexPolytope, h2: ConvexPolytope) -> float:
    """Symmetric ``d_H`` built from the batched directed maximisation."""
    return max(
        batch_directed_hausdorff(h1, h2), batch_directed_hausdorff(h2, h1)
    )


def batch_disagreement_diameter(polytopes: Sequence[ConvexPolytope]) -> float:
    """``max_{i,j} d_H(h_i, h_j)`` via batch dedup + pair bound-and-prune.

    The scalar loop evaluates all ``k(k-1)/2`` pairs with a full per-vertex
    projection pass each.  Here:

    1. members are grouped by bit-level content; within-group pairs are
       exactly ``0.0`` in the scalar loop, and cross-group pair values
       depend only on the two groups' (identical) vertex arrays — so the
       diameter over the multiset equals the diameter over one
       representative per group;
    2. for every representative pair a certified upper bound on ``d_H``
       is assembled from one vectorized all-vertex distance computation
       (the max-min vertex-set Hausdorff distance, which dominates the
       hull distance in both directions);
    3. pairs are evaluated in decreasing bound order with the *scalar*
       pair kernel (via :func:`batch_hausdorff_distance`); once bounds
       drop :data:`PRUNE_MARGIN` below the best achieved pair value the
       scan stops.

    The returned float is the one the exhaustive scalar scan produces.
    """
    polys = list(polytopes)
    if len(polys) < 2:
        return 0.0
    # Group bit-identical members; one representative each.
    reps: list[ConvexPolytope] = []
    seen: dict[tuple, int] = {}
    for poly in polys:
        key = (poly.dim, array_key(poly.vertices)) if not poly.is_empty else (
            poly.dim,
            "empty",
        )
        if key not in seen:
            seen[key] = len(reps)
            reps.append(poly)
    PERF.batch_hausdorff_dedup_groups += len(reps)
    k = len(reps)
    if k == 1:
        # All members identical: every scalar pair evaluation returns 0.0.
        # (Empty members raise in the scalar loop; preserve that.)
        if polys[0].is_empty:
            raise EmptyPolytopeError(
                "directed Hausdorff undefined for empty polytopes"
            )
        return 0.0

    batch = PolytopeBatch(reps)
    offsets = batch.offsets
    # One all-vertices distance matrix serves every pair's bound.
    dm = _cross_distances(batch.stacked, batch.stacked)
    pair_bounds: list[tuple[float, int, int]] = []
    for i in range(k):
        si, ei = offsets[i], offsets[i + 1]
        for j in range(i + 1, k):
            sj, ej = offsets[j], offsets[j + 1]
            block = dm[si:ei, sj:ej]
            ub = max(
                float(block.min(axis=1).max()),  # bounds directed i -> j
                float(block.min(axis=0).max()),  # bounds directed j -> i
            )
            pair_bounds.append((ub, i, j))
    pair_bounds.sort(key=lambda t: -t[0])
    margin = PRUNE_MARGIN * batch.coordinate_scale()
    worst = 0.0
    for rank, (ub, i, j) in enumerate(pair_bounds):
        if ub <= worst - margin:
            PERF.batch_hausdorff_pair_prunes += len(pair_bounds) - rank
            break
        PERF.batch_hausdorff_pairs += 1
        dist = batch_hausdorff_distance(reps[i], reps[j])
        if dist > worst:
            worst = dist
    return worst
