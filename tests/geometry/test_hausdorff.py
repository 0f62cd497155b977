"""Unit tests for the Hausdorff distance (paper Eq. 1)."""

import numpy as np
import pytest

from repro.geometry.batch import batch_override
from repro.geometry.errors import DimensionMismatchError, EmptyPolytopeError
from repro.geometry.hausdorff import (
    directed_hausdorff,
    disagreement_diameter,
    hausdorff_distance,
    hausdorff_to_point,
)
from repro.geometry.polytope import ConvexPolytope


def square(offset=(0.0, 0.0), side=1.0):
    base = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) * side
    return ConvexPolytope.from_points(base + np.asarray(offset))


class TestDirected:
    def test_identical_is_zero(self):
        s = square()
        assert directed_hausdorff(s, s) == 0.0

    def test_subset_is_zero_one_way(self):
        outer = square(side=3.0)
        inner = square(offset=(1.0, 1.0))
        assert directed_hausdorff(inner, outer) == pytest.approx(0.0, abs=1e-12)
        assert directed_hausdorff(outer, inner) > 0.1

    def test_translation(self):
        a = square()
        b = square(offset=(2.0, 0.0))
        assert directed_hausdorff(a, b) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyPolytopeError):
            directed_hausdorff(square(), ConvexPolytope.empty(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            directed_hausdorff(square(), ConvexPolytope.from_interval(0, 1))


class TestSymmetric:
    def test_translation_distance(self):
        assert hausdorff_distance(square(), square(offset=(0.0, 3.0))) == pytest.approx(3.0)

    def test_nested_squares(self):
        outer = square(side=2.0)
        inner = square(offset=(0.5, 0.5))
        # farthest outer point (0,0) or (2,2) from inner [0.5,1.5]^2
        assert hausdorff_distance(outer, inner) == pytest.approx(np.sqrt(0.5))

    def test_point_vs_polytope(self):
        p = ConvexPolytope.singleton([0.0, 0.0])
        s = square(offset=(1.0, 0.0))
        assert hausdorff_distance(p, s) == pytest.approx(np.sqrt(5.0))

    def test_intervals(self):
        a = ConvexPolytope.from_interval(0.0, 1.0)
        b = ConvexPolytope.from_interval(0.25, 2.0)
        assert hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_metric_axioms_sample(self):
        rng = np.random.default_rng(0)
        polys = [
            ConvexPolytope.from_points(rng.normal(size=(5, 2)))
            for _ in range(4)
        ]
        for a in polys:
            assert hausdorff_distance(a, a) == 0.0
            for b in polys:
                ab = hausdorff_distance(a, b)
                assert ab == pytest.approx(hausdorff_distance(b, a), abs=1e-10)
                for c in polys:
                    assert ab <= (
                        hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-9
                    )


class TestDiameter:
    def test_empty_list(self):
        assert disagreement_diameter([]) == 0.0

    def test_single(self):
        assert disagreement_diameter([square()]) == 0.0

    def test_max_pairwise(self):
        polys = [square(), square(offset=(1.0, 0.0)), square(offset=(5.0, 0.0))]
        assert disagreement_diameter(polys) == pytest.approx(5.0)


class TestHausdorffToPoint:
    def test_farthest_vertex(self):
        s = square(side=2.0)
        assert hausdorff_to_point(s, [0.0, 0.0]) == pytest.approx(np.sqrt(8.0))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hausdorff_to_point(square(), [0.0])

    def test_empty(self):
        with pytest.raises(EmptyPolytopeError):
            hausdorff_to_point(ConvexPolytope.empty(2), [0.0, 0.0])


@pytest.mark.parametrize("batch_on", [False, True], ids=["scalar", "batch"])
def test_dispatch_under_both_settings(batch_on):
    """The public entry points give the exact answers on either path."""
    outer = square(side=2.0)
    inner = square(offset=(0.5, 0.5))
    with batch_override(batch_on):
        assert directed_hausdorff(square(), square()) == 0.0
        assert directed_hausdorff(inner, outer) == pytest.approx(0.0, abs=1e-12)
        assert directed_hausdorff(square(), square(offset=(2.0, 0.0))) == (
            pytest.approx(2.0)
        )
        assert hausdorff_distance(outer, inner) == pytest.approx(np.sqrt(0.5))
        assert hausdorff_distance(
            ConvexPolytope.from_interval(0.0, 1.0),
            ConvexPolytope.from_interval(0.25, 2.0),
        ) == pytest.approx(1.0)
        assert disagreement_diameter([]) == 0.0
        assert disagreement_diameter([square()]) == 0.0
        assert disagreement_diameter(
            [square(), square(offset=(1.0, 0.0)), square(offset=(5.0, 0.0))]
        ) == pytest.approx(5.0)
        with pytest.raises(EmptyPolytopeError):
            directed_hausdorff(square(), ConvexPolytope.empty(2))
        with pytest.raises(DimensionMismatchError):
            directed_hausdorff(square(), ConvexPolytope.from_interval(0, 1))
