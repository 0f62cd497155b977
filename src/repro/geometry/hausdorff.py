"""Hausdorff distance between convex polytopes (paper Eq. (1)).

The epsilon-agreement property of convex hull consensus is stated in terms
of the Hausdorff distance

    d_H(h1, h2) = max( max_{p in h1} min_{q in h2} d_E(p, q),
                       max_{q in h2} min_{p in h1} d_E(p, q) )

For *convex* operands the outer maximisation is attained at a vertex: the
function ``p -> d_E(p, Q)`` (distance to a convex set) is convex, and a
convex function attains its maximum over a polytope at an extreme point.
So the exact Hausdorff distance reduces to finitely many point-to-polytope
projections, which :mod:`repro.geometry.projection` solves.

The public entry points dispatch to the batch core
(:mod:`repro.geometry.batch`) while :func:`repro.geometry.batch.batch_enabled`
holds (the default): the batched maximisation bounds every source vertex
in one vectorized pass and runs the projection kernel only on vertices
that can still attain the maximum.  The scalar exhaustive loops stay here
as the ``*_scalar`` oracles the property suites compare against; both
paths return bit-identical floats (see the batch module's equivalence
contract).  Every distance is exact up to the projection solver's
tolerance, in every dimension: :func:`repro.geometry.projection.project_onto_hull`
runs FISTA with an active-set polish, and no dimension has a closed form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .batch import (
    batch_directed_hausdorff,
    batch_disagreement_diameter,
    batch_enabled,
)
from .errors import DimensionMismatchError, EmptyPolytopeError
from .polytope import ConvexPolytope
from .projection import project_onto_hull


def directed_hausdorff_scalar(
    source: ConvexPolytope, target: ConvexPolytope
) -> float:
    """Scalar oracle: exhaustive per-vertex maximisation (pre-batch path)."""
    if source.dim != target.dim:
        raise DimensionMismatchError(
            f"polytope dims differ: {source.dim} vs {target.dim}"
        )
    if source.is_empty or target.is_empty:
        raise EmptyPolytopeError("directed Hausdorff undefined for empty polytopes")
    worst = 0.0
    target_vertices = target.vertices
    for vertex in source.vertices:
        projection, _ = project_onto_hull(vertex, target_vertices)
        dist = float(np.linalg.norm(projection - vertex))
        if dist > worst:
            worst = dist
    return worst


def directed_hausdorff(source: ConvexPolytope, target: ConvexPolytope) -> float:
    """``max_{p in source} d_E(p, target)`` for convex polytopes.

    Exact up to the projection solver's tolerance: the maximum over the
    convex ``source`` of the convex distance-to-``target`` function is
    attained at one of ``source``'s vertices.
    """
    if batch_enabled():
        return batch_directed_hausdorff(source, target)
    return directed_hausdorff_scalar(source, target)


def hausdorff_distance_scalar(h1: ConvexPolytope, h2: ConvexPolytope) -> float:
    """Scalar oracle for the symmetric distance."""
    return max(
        directed_hausdorff_scalar(h1, h2), directed_hausdorff_scalar(h2, h1)
    )


def hausdorff_distance(h1: ConvexPolytope, h2: ConvexPolytope) -> float:
    """Symmetric Hausdorff distance ``d_H`` of Eq. (1)."""
    return max(directed_hausdorff(h1, h2), directed_hausdorff(h2, h1))


def disagreement_diameter_scalar(polytopes: Sequence[ConvexPolytope]) -> float:
    """Scalar oracle: exhaustive all-pairs scan (pre-batch path)."""
    polys = list(polytopes)
    worst = 0.0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            dist = hausdorff_distance_scalar(polys[i], polys[j])
            if dist > worst:
                worst = dist
    return worst


def disagreement_diameter(polytopes: Sequence[ConvexPolytope]) -> float:
    """``max_{i,j} d_H(h_i, h_j)`` — the quantity epsilon-agreement bounds.

    This is the per-round metric experiment E1 tracks against the paper's
    ``(1 - 1/n)^t * Omega`` envelope (Eq. 18).
    """
    if batch_enabled():
        return batch_disagreement_diameter(polytopes)
    return disagreement_diameter_scalar(polytopes)


def hausdorff_to_point(poly: ConvexPolytope, point) -> float:
    """``d_H(poly, {point})`` — the farthest vertex from ``point``.

    Useful for the degenerate-case experiment (E6): when the output has
    collapsed to (numerically) a single point, this measures how far any
    part of a polytope strays from it.
    """
    if poly.is_empty:
        raise EmptyPolytopeError("hausdorff_to_point undefined for empty polytope")
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.size != poly.dim:
        raise DimensionMismatchError("point dimension mismatch")
    return float(np.max(np.linalg.norm(poly.vertices - p, axis=1)))
