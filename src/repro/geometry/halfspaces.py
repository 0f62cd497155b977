"""Halfspace (H-) representations and halfspace-intersection machinery.

A halfspace system is the pair ``(A, b)`` representing ``{x : A x <= b}``.
This module provides:

* :func:`hrep_of_hull` — facet halfspaces of the hull of a point set, with
  degenerate hulls handled via their affine chart (equalities become pairs
  of opposing inequalities, so every hull has a uniform H-rep);
* :func:`chebyshev_center` / :func:`feasible_point` — LP helpers;
* :func:`vertices_of_halfspace_system` — vertex enumeration of a bounded
  halfspace system, robust to *degenerate* (lower-dimensional, including
  single-point) feasible regions via implicit-equality detection and
  recursion into the feasible region's affine hull.

These are the primitives behind line 5 of Algorithm CC (the intersection of
the hulls of all ``|X_i| - f`` subsets) and the optimality polytope ``I_Z``
of Eq. (21).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .cache import PERF
from .errors import HullComputationError, InfeasibleRegionError, SolverError
from .hull import hull_vertices
from .linalg import AffineChart, affine_chart, as_points_array
from .tolerances import ABS_TOL, DEGENERACY_TOL, RANK_TOL

try:
    from scipy.spatial import HalfspaceIntersection as _HalfspaceIntersection
    from scipy.spatial import QhullError as _QhullError
except ImportError:  # pragma: no cover
    _HalfspaceIntersection = None
    _QhullError = Exception


# ----------------------------------------------------------------------
# H-representation of hulls
# ----------------------------------------------------------------------

def _hrep_full_dim(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facet inequalities of a full-dimensional hull via Qhull.

    Qhull's ``equations`` rows are ``[normal, offset]`` with
    ``normal . x + offset <= 0`` inside, i.e. ``A = normals``,
    ``b = -offsets``.
    """
    from scipy.spatial import ConvexHull

    try:
        hull = ConvexHull(vertices)
    except _QhullError as exc:
        raise HullComputationError(f"Qhull H-rep failed: {exc}") from exc
    eqs = hull.equations
    return eqs[:, :-1].copy(), -eqs[:, -1].copy()


def _hrep_1d(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals = vertices[:, 0]
    lo, hi = float(vals.min()), float(vals.max())
    return np.array([[1.0], [-1.0]]), np.array([hi, -lo])


def _hrep_2d(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge halfspaces of a CCW-ordered convex polygon."""
    from .hull import hull_vertices_2d

    ring = hull_vertices_2d(vertices)
    m = ring.shape[0]
    if m < 3:
        raise HullComputationError("2-d H-rep requires a non-degenerate polygon")
    rows = []
    offsets = []
    for i in range(m):
        p, q = ring[i], ring[(i + 1) % m]
        edge = q - p
        # Outward normal for CCW orientation.
        normal = np.array([edge[1], -edge[0]])
        norm = np.linalg.norm(normal)
        if norm <= ABS_TOL:
            continue
        normal = normal / norm
        rows.append(normal)
        offsets.append(float(normal @ p))
    return np.array(rows), np.array(offsets)


def hrep_of_hull(points) -> tuple[np.ndarray, np.ndarray]:
    """H-representation ``(A, b)`` of ``conv(points)`` in ambient space.

    Degenerate hulls are supported: the affine hull's equality constraints
    appear as opposing inequality pairs, and facet inequalities are
    computed inside the hull's affine chart and lifted back.  A single
    point yields ``d`` equality pairs.  An empty input raises.

    Not memoized: a polytope caches its own H-rep (see
    :meth:`repro.geometry.polytope.ConvexPolytope.hrep`), and a
    content-keyed cache on top of that never hit on any measured run.
    """
    pts = as_points_array(points)
    if pts.shape[0] == 0:
        raise InfeasibleRegionError("H-rep of an empty point set")
    PERF.hrep_calls += 1
    dim = pts.shape[1]
    verts = hull_vertices(pts)

    chart = affine_chart(verts)
    k = chart.local_dim

    rows: list[np.ndarray] = []
    offs: list[float] = []

    # Equality pairs for the affine hull (directions orthogonal to chart).
    if k < dim:
        # Orthonormal complement of the chart basis.
        basis = chart.basis  # (k, d)
        full = np.eye(dim)
        if k:
            full = full - basis.T @ basis
        # Extract an orthonormal basis for the complement via SVD.
        u, sv, _vt = np.linalg.svd(full)
        comp = u[:, : dim - k].T if dim - k else np.zeros((0, dim))
        for direction in comp:
            c = float(direction @ chart.origin)
            rows.append(direction)
            offs.append(c)
            rows.append(-direction)
            offs.append(-c)

    if k == 0:
        return np.array(rows), np.array(offs)

    local = chart.to_local(verts)
    if k == 1:
        a_loc, b_loc = _hrep_1d(local)
    elif k == 2:
        a_loc, b_loc = _hrep_2d(local)
    else:
        a_loc, b_loc = _hrep_full_dim(local)

    # Lift local constraints a_loc . y <= b_loc with y = B (x - o).
    lifted_a = a_loc @ chart.basis
    lifted_b = b_loc + a_loc @ (chart.basis @ chart.origin)
    for row, off in zip(lifted_a, lifted_b):
        rows.append(row)
        offs.append(float(off))
    return np.array(rows), np.array(offs)


def dedupe_halfspaces(
    a: np.ndarray, b: np.ndarray, decimals: int = 9
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise rows to unit normals and drop duplicates / dominated copies.

    Among halfspaces sharing (rounded) the same unit normal, only the
    tightest offset is kept — the others are redundant in an intersection.
    Fully vectorized (the depth fast path hands this thousands of candidate
    rows at once): rounded normals are grouped with ``np.unique`` and the
    per-group minimum offset taken with ``np.minimum.at``, preserving the
    first-occurrence order the original dict-based implementation had.

    Each group is represented by its first occurrence's *original* unit
    normal, not the rounded grouping key: returning the key (as the old
    dict implementation did) perturbs every normal by ~1e-9 per pass, so
    the function was not idempotent — re-deduping a system shifted its
    offsets (divided again by the now-slightly-non-unit norms) by enough
    to pinch lower-dimensional feasible regions (equality pairs thinner
    than the perturbation) into infeasibility.
    """
    if a.shape[0] == 0:
        return a, b
    norms = np.linalg.norm(a, axis=1)
    keep = norms > ABS_TOL
    a, b, norms = a[keep], b[keep], norms[keep]
    # Leave already-unit rows untouched: the computed norm of a unit vector
    # is 1.0 only up to a few ulps, and dividing by it would perturb every
    # row on every pass, breaking exact (bit-level) idempotence.
    unit = np.abs(norms - 1.0) <= 4 * np.finfo(float).eps
    scale = np.where(unit, 1.0, norms)
    a = a / scale[:, None]
    b = b / scale
    # + 0.0 canonicalizes -0.0 to +0.0: np.unique compares raw bytes, and
    # the two zeros must share a dedupe bucket (as they did under dict keys).
    keys = np.round(a, decimals) + 0.0
    _uniq, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    offs = np.full(first.shape[0], np.inf)
    np.minimum.at(offs, inverse.reshape(-1), b)
    order = np.argsort(first, kind="stable")
    return a[first][order], offs[order]


# ----------------------------------------------------------------------
# LP helpers
# ----------------------------------------------------------------------

def chebyshev_center(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, float]:
    """Centre and radius of the largest ball inscribed in ``{x: Ax <= b}``.

    Solves ``max r  s.t.  A x + ||A_i|| r <= b, r >= 0``.  Raises
    :class:`InfeasibleRegionError` when the region is empty.  A radius of
    (numerically) zero signals a lower-dimensional region.
    """
    if a.shape[0] == 0:
        raise ValueError("chebyshev_center requires at least one halfspace")
    dim = a.shape[1]
    norms = np.linalg.norm(a, axis=1)
    c = np.zeros(dim + 1)
    c[-1] = -1.0  # maximise r
    a_ub = np.hstack([a, norms[:, None]])
    bounds = [(None, None)] * dim + [(0, None)]
    PERF.lp_solves += 1
    res = linprog(c, A_ub=a_ub, b_ub=b, bounds=bounds, method="highs")
    if not res.success:
        raise InfeasibleRegionError(
            f"halfspace system infeasible or unbounded: {res.message}"
        )
    center = res.x[:dim]
    radius = float(res.x[-1])
    return center, radius


def feasible_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Any point of ``{x: Ax <= b}``; raises if empty."""
    center, _ = chebyshev_center(a, b)
    return center


def linear_maximize(
    a: np.ndarray, b: np.ndarray, direction: np.ndarray
) -> tuple[np.ndarray, float]:
    """Maximise ``<direction, x>`` over ``{x: Ax <= b}``.

    Returns ``(argmax, max_value)``.  Raises on infeasible/unbounded.
    """
    PERF.lp_solves += 1
    res = linprog(
        -np.asarray(direction, dtype=float),
        A_ub=a,
        b_ub=b,
        bounds=[(None, None)] * a.shape[1],
        method="highs",
    )
    if not res.success:
        raise SolverError(f"LP failed ({res.status}): {res.message}")
    return res.x, float(-res.fun)


# ----------------------------------------------------------------------
# Vertex enumeration (degenerate-aware)
# ----------------------------------------------------------------------

def _implicit_equalities(
    a: np.ndarray, b: np.ndarray, tol: float
) -> np.ndarray:
    """Indices of constraints that hold with equality on the whole region.

    A constraint ``a_i x <= b_i`` is an implicit equality iff the maximum
    of ``a_i x`` over the region equals ``b_i`` *and* so does the minimum;
    we detect it by checking that ``min a_i x >= b_i - tol`` (the max is
    ``<= b_i`` by feasibility).
    """
    eq_idx = []
    for i in range(a.shape[0]):
        _x, neg_min = linear_maximize(a, b, -a[i])
        min_val = -neg_min
        if min_val >= b[i] - tol:
            eq_idx.append(i)
    return np.array(eq_idx, dtype=int)


def _chart_from_equalities(
    a_eq: np.ndarray, b_eq: np.ndarray, point: np.ndarray
) -> AffineChart:
    """Chart of the affine subspace ``{x : A_eq x = b_eq}`` through ``point``.

    The rank cut uses the library-wide :data:`RANK_TOL`: equality normals
    collected from *different* hull charts agree only to float-noise
    (~1e-10), and a sharper threshold reads that noise as an extra rank,
    collapsing a segment-shaped region to a point.
    """
    dim = a_eq.shape[1]
    _u, sv, vt = np.linalg.svd(a_eq, full_matrices=True)
    scale = max(sv[0] if sv.size else 0.0, 1.0)
    rank = int(np.sum(sv > RANK_TOL * scale))
    null_basis = vt[rank:]  # rows span the null space of A_eq
    return AffineChart(origin=point.copy(), basis=null_basis.reshape(-1, dim))


def vertices_of_halfspace_system(
    a: np.ndarray,
    b: np.ndarray,
    *,
    degeneracy_tol: float = DEGENERACY_TOL,
    _depth: int = 0,
) -> np.ndarray:
    """Vertices of the bounded region ``{x : A x <= b}``.

    Returns an ``(m, d)`` array of extreme points (empty array when the
    region is empty).  Handles lower-dimensional regions — including single
    points — by detecting implicit equalities, chart-projecting onto the
    region's affine hull, and recursing.
    """
    dim = a.shape[1]
    a, b = dedupe_halfspaces(a, b)
    pinched = False
    try:
        center, radius = chebyshev_center(a, b)
    except InfeasibleRegionError:
        # A lower-dimensional region described by equality pairs computed
        # through *different* charts (stacked H-reps of several degenerate
        # hulls) can be inconsistent at float-noise level and present as
        # infeasible at zero slack.  Retry with ABS_TOL slack to separate
        # that pinch from genuine emptiness.
        slack = ABS_TOL * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        b = b + slack
        try:
            center, radius = chebyshev_center(a, b)
        except InfeasibleRegionError:
            return np.zeros((0, dim))
        pinched = True

    if dim == 1:
        pos = a[:, 0] > ABS_TOL
        neg = a[:, 0] < -ABS_TOL
        hi = float(np.min(b[pos] / a[pos, 0])) if np.any(pos) else np.inf
        lo = float(np.max(b[neg] / a[neg, 0])) if np.any(neg) else -np.inf
        if not np.isfinite(hi) or not np.isfinite(lo):
            raise SolverError("unbounded 1-d halfspace system")
        if hi < lo - ABS_TOL:
            return np.zeros((0, 1))
        if hi - lo <= ABS_TOL:
            return np.array([[0.5 * (lo + hi)]])
        return np.array([[lo], [hi]])

    scale = max(float(np.max(np.abs(center))), 1.0)
    if radius > degeneracy_tol * scale and not pinched:
        return _vertices_full_dim(a, b, center)

    # Degenerate region: find its affine hull and recurse inside it.
    if _depth > dim:
        # Cannot reduce further; the region is numerically a point.
        return center.reshape(1, -1)
    if pinched:
        # The slack retry shifted every offset by ~ABS_TOL * scale, so the
        # equality check must absorb violations of that size.
        eq_tol = max(degeneracy_tol * scale * 10, 1e-8)
    else:
        # Feasible at zero slack, so on a genuinely flat region the
        # equality violations are pure float cancellation noise at this
        # coordinate magnitude.  The pinched tolerance here would read a
        # small-but-full-dimensional region far from the origin (size
        # 1e-4 at ~1e6: radius below the degeneracy gate, constraint
        # variation below degeneracy_tol * scale * 10) as all equalities
        # and collapse it to its Chebyshev center.
        eq_tol = max(64 * np.finfo(float).eps * scale, 1e-8)
    try:
        eq_idx = _implicit_equalities(a, b, tol=eq_tol)
    except SolverError:
        # The region is feasible per the Chebyshev LP but so close to
        # empty that a follow-up LP reports infeasibility; numerically it
        # is a single point.
        return center.reshape(1, -1)
    if eq_idx.size == 0:
        if not pinched:
            # Small relative to its coordinate magnitude yet genuinely
            # full-dimensional — no constraint holds with equality — so
            # enumerate through the full-dimensional path, whose 2-d
            # clipping re-clips in centered coordinates at the region's
            # own scale.
            return _vertices_full_dim(a, b, center)
        # Numerically flat but no clean equality found: treat as a point.
        return center.reshape(1, -1)
    chart = _chart_from_equalities(a[eq_idx], b[eq_idx], center)
    if chart.local_dim == 0:
        return center.reshape(1, -1)
    ineq_idx = np.setdiff1d(np.arange(a.shape[0]), eq_idx)
    # Project remaining constraints: a_i . (o + B^T y) <= b_i.
    a_loc = a[ineq_idx] @ chart.basis.T
    b_loc = b[ineq_idx] - a[ineq_idx] @ chart.origin
    nonzero = np.linalg.norm(a_loc, axis=1) > ABS_TOL
    a_loc, b_loc = a_loc[nonzero], b_loc[nonzero]
    if a_loc.shape[0] == 0:
        # The region is the whole affine subspace - unbounded unless 0-dim.
        raise SolverError("degenerate halfspace system is unbounded in its chart")
    local_vertices = vertices_of_halfspace_system(
        a_loc, b_loc, degeneracy_tol=degeneracy_tol, _depth=_depth + 1
    )
    if local_vertices.shape[0] == 0:
        return np.zeros((0, dim))
    return chart.to_ambient(local_vertices)


def _vertices_full_dim(
    a: np.ndarray, b: np.ndarray, interior: np.ndarray
) -> np.ndarray:
    """Vertex enumeration when a strictly interior point is available.

    In the plane we use exact incremental clipping (see
    :mod:`repro.geometry.clipping`): scipy's dual-space approach can
    displace vertices of ill-conditioned (nearly parallel) constraint
    pairs by ~1e-5 even on well-scaled inputs.  In dimension >= 3 we use
    Qhull and then *polish* each vertex by re-solving its active
    constraint set, which repairs the displacement without changing the
    combinatorics.
    """
    if a.shape[1] == 2:
        from .clipping import halfspace_intersection_2d

        ring = halfspace_intersection_2d(a, b)
        if ring.shape[0] == 0:
            return np.zeros((0, 2))
        return hull_vertices(ring)
    if _HalfspaceIntersection is None:  # pragma: no cover
        raise SolverError("scipy is required for halfspace intersection")
    stacked = np.hstack([a, -b[:, None]])
    try:
        hs = _HalfspaceIntersection(stacked, interior)
    except _QhullError as exc:
        raise HullComputationError(
            f"halfspace intersection failed despite interior point: {exc}"
        ) from exc
    pts = hs.intersections
    finite = np.all(np.isfinite(pts), axis=1)
    polished = _polish_vertices(a, b, pts[finite])
    return hull_vertices(polished)


def _polish_vertices(
    a: np.ndarray, b: np.ndarray, candidates: np.ndarray, active_tol: float = 1e-6
) -> np.ndarray:
    """Snap each candidate vertex onto its active constraint set.

    For each candidate the constraints within ``active_tol`` (scaled) are
    treated as equalities and the vertex is re-solved by least squares;
    the snap is kept only when it stays feasible and close to the
    original (it is a *refinement*, never a relocation).
    """
    if candidates.shape[0] == 0:
        return candidates
    scale = max(float(np.max(np.abs(candidates))), 1.0)
    out = candidates.copy()
    for idx, vertex in enumerate(candidates):
        residual = a @ vertex - b
        active = np.abs(residual) <= active_tol * scale
        if np.sum(active) < a.shape[1]:
            continue
        sol, *_ = np.linalg.lstsq(a[active], b[active], rcond=None)
        if not np.all(np.isfinite(sol)):
            continue
        if np.linalg.norm(sol - vertex) > 1e-3 * scale:
            continue
        if np.max(a @ sol - b) <= active_tol * scale:
            out[idx] = sol
    return out
