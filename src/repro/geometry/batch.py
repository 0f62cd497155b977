"""Batched Hausdorff maximisation — the batch geometry core.

Every ``d_H`` evaluation (Eq. 1) maximises a point-to-polytope distance
over the source polytope's vertices, one FISTA projection per vertex.
This module cuts that work without changing a single result bit:
vertices are visited in decreasing order of a vectorized upper bound and
the scan stops once no remaining bound can beat the best distance found,
and :func:`batch_disagreement_diameter` evaluates each distinct pair of
polytope contents once.

Equivalence contract
--------------------
Every batched path returns **bit-identical** results to the scalar
oracles in :mod:`repro.geometry.hausdorff` (the ``*_scalar``
functions), by one of two arguments:

* *same-kernel*: the batched path performs exactly the scalar kernel's
  floating-point operations on exactly the scalar kernel's operands —
  content dedup never changes what the surviving kernel invocations
  compute; or
* *certified pruning*: a maximisation skips a vertex only when a
  certified upper bound on its value lies below an already-*achieved*
  kernel value minus a safety margin (:data:`PRUNE_MARGIN`, resolution
  orders of magnitude above the projection solver's accuracy), so the
  returned maximum is the same float the exhaustive scan produces.

The seeded property suites in ``tests/property/test_batch_properties.py``
assert exact (``==``) equality between the two paths, and the dispatch
tests run the public entry points under both switch settings.

Switch
------
The batch core is on by default; :func:`set_batch_enabled` /
:func:`batch_override` route the public entry points in
:mod:`repro.geometry.hausdorff` to the scalar oracles instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np
from .cache import PERF, array_key
from .errors import DimensionMismatchError, EmptyPolytopeError
from .polytope import ConvexPolytope
from .projection import project_onto_hull

__all__ = [
    "PRUNE_MARGIN",
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

_BATCH_ENABLED = True


def batch_enabled() -> bool:
    """True when public geometry entry points route to the batch core."""
    return _BATCH_ENABLED


def set_batch_enabled(enabled: bool | None) -> bool:
    """Force the switch on/off (``None`` restores the default, on).

    Returns the previous setting for save/restore.
    """
    global _BATCH_ENABLED
    previous = _BATCH_ENABLED
    _BATCH_ENABLED = True if enabled is None else bool(enabled)
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
    """``max_{i,j} d_H(h_i, h_j)`` over distinct contents only.

    Members are grouped by bit-level content: within-group pairs are
    exactly ``0.0`` in the scalar loop, and cross-group pair values depend
    only on the two groups' (identical) vertex arrays, so the diameter
    over the multiset equals the diameter over one representative per
    group.  Each representative pair is then evaluated with
    :func:`batch_hausdorff_distance`, whose directed maximisations prune
    vertices.  The returned float is the one the exhaustive scalar scan
    produces: a maximum does not depend on the order its terms are seen.
    """
    polys = list(polytopes)
    if len(polys) < 2:
        return 0.0
    # Group bit-identical members; one representative each.
    reps: list[ConvexPolytope] = []
    seen: set[tuple] = set()
    for poly in polys:
        key = (poly.dim, array_key(poly.vertices)) if not poly.is_empty else (
            poly.dim,
            "empty",
        )
        if key not in seen:
            seen.add(key)
            reps.append(poly)
    PERF.batch_hausdorff_dedup_groups += len(reps)
    if len(reps) == 1:
        # All members identical: every scalar pair evaluation returns 0.0.
        # (Empty members raise in the scalar loop; preserve that.)
        if polys[0].is_empty:
            raise EmptyPolytopeError(
                "directed Hausdorff undefined for empty polytopes"
            )
        return 0.0
    worst = 0.0
    for i, first in enumerate(reps):
        for second in reps[i + 1 :]:
            PERF.batch_hausdorff_pairs += 1
            dist = batch_hausdorff_distance(first, second)
            if dist > worst:
                worst = dist
    return worst
