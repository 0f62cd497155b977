"""Unit tests for the batch geometry core (repro.geometry.batch)."""

import numpy as np
import pytest

from repro.geometry.batch import (
    batch_directed_hausdorff,
    batch_disagreement_diameter,
    batch_enabled,
    batch_hausdorff_distance,
    batch_override,
    set_batch_enabled,
)
from repro.geometry.cache import PERF
from repro.geometry.errors import DimensionMismatchError, EmptyPolytopeError
from repro.geometry.hausdorff import (
    directed_hausdorff,
    directed_hausdorff_scalar,
    disagreement_diameter,
    disagreement_diameter_scalar,
    hausdorff_distance_scalar,
)
from repro.geometry.polytope import ConvexPolytope


def square(offset=(0.0, 0.0), side=1.0):
    base = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) * side
    return ConvexPolytope.from_points(base + np.asarray(offset))


def random_polys(k, d, seed, verts=10):
    rng = np.random.default_rng(seed)
    return [
        ConvexPolytope.from_points(
            rng.normal(size=(verts, d)) * rng.uniform(0.5, 2.0)
        )
        for _ in range(k)
    ]


class TestSwitch:
    def test_default_on(self):
        set_batch_enabled(None)
        assert batch_enabled()

    def test_override_wins_and_restores(self):
        with batch_override(False):
            assert not batch_enabled()
            with batch_override(True):
                assert batch_enabled()
            assert not batch_enabled()
        assert batch_enabled()

    def test_set_returns_previous(self):
        prev = set_batch_enabled(True)
        try:
            assert set_batch_enabled(False) is True
        finally:
            set_batch_enabled(prev)


class TestBatchHausdorff:
    def test_identical_content_short_circuits(self):
        a = square()
        b = ConvexPolytope.from_points(a.vertices.copy())
        assert batch_directed_hausdorff(a, b) == 0.0

    def test_translation_exact(self):
        assert batch_hausdorff_distance(
            square(), square(offset=(0.0, 3.0))
        ) == hausdorff_distance_scalar(square(), square(offset=(0.0, 3.0)))

    def test_errors_match_scalar(self):
        with pytest.raises(EmptyPolytopeError):
            batch_directed_hausdorff(square(), ConvexPolytope.empty(2))
        with pytest.raises(DimensionMismatchError):
            batch_directed_hausdorff(square(), ConvexPolytope.from_interval(0, 1))

    def test_prunes_are_counted(self):
        polys = random_polys(8, 3, seed=3)
        before = PERF.batch_hausdorff_pairs
        d_batch = batch_disagreement_diameter(polys)
        assert PERF.batch_hausdorff_pairs > before
        assert d_batch == disagreement_diameter_scalar(polys)

    def test_diameter_trivial_sizes(self):
        assert batch_disagreement_diameter([]) == 0.0
        assert batch_disagreement_diameter([square()]) == 0.0

    def test_diameter_all_identical(self):
        s = square()
        copies = [ConvexPolytope.from_points(s.vertices.copy()) for _ in range(4)]
        assert batch_disagreement_diameter(copies) == 0.0

    def test_diameter_with_empty_raises(self):
        with pytest.raises(EmptyPolytopeError):
            batch_disagreement_diameter([square(), ConvexPolytope.empty(2)])
        with pytest.raises(EmptyPolytopeError):
            batch_disagreement_diameter(
                [ConvexPolytope.empty(2), ConvexPolytope.empty(2)]
            )

    def test_dispatch_routes_by_switch(self):
        a, b = random_polys(2, 2, seed=4)
        with batch_override(True):
            routed = directed_hausdorff(a, b)
        with batch_override(False):
            scalar = directed_hausdorff(a, b)
        assert routed == scalar == directed_hausdorff_scalar(a, b)
        with batch_override(True):
            assert disagreement_diameter([a, b]) == disagreement_diameter_scalar(
                [a, b]
            )
