"""Bit-identity of the batch geometry core against the scalar oracles.

The batch core's contract (see :mod:`repro.geometry.batch`) is *exact*
``==`` equality with the pre-existing scalar implementations — not
approximate agreement.  These suites drive both paths over seeded random,
duplicate-heavy, degenerate, and adversarially-scaled inputs and assert
float-for-float identical results, plus identity of the public dispatch
under both ``batch_override`` settings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry.batch import (
    batch_directed_hausdorff,
    batch_disagreement_diameter,
    batch_hausdorff_distance,
    batch_override,
)
from repro.geometry.hausdorff import (
    directed_hausdorff,
    directed_hausdorff_scalar,
    disagreement_diameter,
    disagreement_diameter_scalar,
    hausdorff_distance,
    hausdorff_distance_scalar,
)
from repro.geometry.polytope import ConvexPolytope

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def poly_strategy(dims=(1, 2, 3), max_points=10):
    return st.integers(min_value=min(dims), max_value=max(dims)).flatmap(
        lambda d: hnp.arrays(
            np.float64,
            st.tuples(st.integers(min_value=1, max_value=max_points), st.just(d)),
            elements=finite_floats,
        ).map(ConvexPolytope.from_points)
    )


def poly_family(d, k, seed, *, dupes=False, degenerate=False):
    """Seeded family of k polytopes in one dimension, optionally degenerate."""
    rng = np.random.default_rng(seed)
    polys = []
    for i in range(k):
        m = int(rng.integers(1, 11))
        pts = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0)
        if degenerate and i % 3 == 0:
            pts[:, -1] = pts[0, -1]  # collapse one coordinate
        polys.append(ConvexPolytope.from_points(pts))
    if dupes:
        polys += [
            ConvexPolytope.from_points(polys[i % len(polys)].vertices.copy())
            for i in range(max(1, k // 2))
        ]
    return polys


class TestDirectedIdentity:
    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=80, deadline=None)
    def test_directed_bit_identical(self, a, b):
        if a.dim != b.dim:
            with pytest.raises(Exception):
                batch_directed_hausdorff(a, b)
            return
        assert batch_directed_hausdorff(a, b) == directed_hausdorff_scalar(a, b)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_families(self, d, seed):
        polys = poly_family(d, 6, seed * 31 + d)
        for a in polys:
            for b in polys:
                assert batch_directed_hausdorff(a, b) == directed_hausdorff_scalar(
                    a, b
                ), (a.vertices, b.vertices)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(9)
        a = ConvexPolytope.from_points(rng.normal(size=(8, 2)) * scale)
        b = ConvexPolytope.from_points(rng.normal(size=(8, 2)) * scale)
        assert batch_directed_hausdorff(a, b) == directed_hausdorff_scalar(a, b)
        assert batch_hausdorff_distance(a, b) == hausdorff_distance_scalar(a, b)


class TestDiameterIdentity:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_families(self, d, seed):
        polys = poly_family(d, 7, seed * 17 + d, dupes=True)
        assert batch_disagreement_diameter(polys) == disagreement_diameter_scalar(
            polys
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_degenerate_members(self, seed):
        polys = poly_family(3, 6, seed + 100, degenerate=True, dupes=True)
        assert batch_disagreement_diameter(polys) == disagreement_diameter_scalar(
            polys
        )

    def test_near_tie_pairs(self):
        # Families engineered so several pairs are within the prune margin
        # of the maximum: translated copies at equal spacing.
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        polys = [
            ConvexPolytope.from_points(base + np.array([k * 2.0, 0.0]))
            for k in range(5)
        ]
        assert batch_disagreement_diameter(polys) == disagreement_diameter_scalar(
            polys
        )


class TestDispatchIdentity:
    """The public entry points agree under both switch settings."""

    @pytest.mark.parametrize("seed", range(8))
    def test_public_api_both_settings(self, seed):
        polys = poly_family(2, 5, seed + 500, dupes=True)
        with batch_override(False):
            d_off = disagreement_diameter(polys)
            h_off = hausdorff_distance(polys[0], polys[1])
            dd_off = directed_hausdorff(polys[0], polys[1])
        with batch_override(True):
            d_on = disagreement_diameter(polys)
            h_on = hausdorff_distance(polys[0], polys[1])
            dd_on = directed_hausdorff(polys[0], polys[1])
        assert d_on == d_off
        assert h_on == h_off
        assert dd_on == dd_off
