"""Tests for the 3-D block domain decomposition and torus topology."""

import numpy as np
import pytest

from repro.parallel.decomposition import DomainDecomposition, balanced_dims
from repro.parallel.topology import TorusTopology


class TestBalancedDims:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1, 1)), (8, (2, 2, 2)), (512, (8, 8, 8)), (2048, (16, 16, 8))],
    )
    def test_products_and_balance(self, n, expected):
        dims = balanced_dims(n)
        assert np.prod(dims) == n
        assert dims == expected

    def test_five_dims(self):
        dims = balanced_dims(1024, ndim=5)
        assert np.prod(dims) == 1024
        assert max(dims) / min(dims) <= 2

    def test_prime_count(self):
        assert sorted(balanced_dims(7), reverse=True) == [7, 1, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            balanced_dims(0)


class TestDomainDecomposition:
    def test_rank_coords_roundtrip(self):
        d = DomainDecomposition(100.0, (4, 3, 2))
        for r in range(d.n_ranks):
            assert d.rank_of_coords(d.coords_of_rank(r)) == r

    def test_periodic_coords_wrap(self):
        d = DomainDecomposition(100.0, (2, 2, 2))
        assert d.rank_of_coords((-1, 0, 0)) == d.rank_of_coords((1, 0, 0))
        assert d.rank_of_coords((2, 0, 0)) == d.rank_of_coords((0, 0, 0))

    def test_bounds_tile_the_box(self):
        d = DomainDecomposition(60.0, (3, 2, 1))
        total = 0.0
        for r in range(d.n_ranks):
            lo, hi = d.bounds(r)
            total += np.prod(hi - lo)
        assert total == pytest.approx(60.0**3)

    def test_noncubic_widths(self):
        """Table II uses non-cubic geometries like 16x8x16."""
        d = DomainDecomposition(1814.0, (16, 8, 16))
        w = d.widths
        assert w[0] == pytest.approx(1814.0 / 16)
        assert w[1] == pytest.approx(1814.0 / 8)

    def test_assign_matches_bounds(self, rng):
        d = DomainDecomposition(50.0, (2, 3, 2))
        pos = rng.uniform(0, 50.0, (500, 3))
        ranks = d.assign(pos)
        for r in range(d.n_ranks):
            lo, hi = d.bounds(r)
            sel = ranks == r
            if np.any(sel):
                assert np.all(pos[sel] >= lo - 1e-12)
                assert np.all(pos[sel] < hi + 1e-12)

    def test_assign_wraps_positions(self):
        d = DomainDecomposition(10.0, (2, 1, 1))
        out = d.assign(np.array([[10.0, 0.0, 0.0], [-0.5, 0.0, 0.0]]))
        assert out[0] == 0
        assert out[1] == 1  # -0.5 wraps to 9.5, in the upper block

    def test_overload_volume_factor(self):
        d = DomainDecomposition(100.0, (2, 2, 2))
        # widths 50; depth 5: (60/50)^3 = 1.728
        assert d.overload_volume_factor(5.0) == pytest.approx(1.728)

    def test_overload_factor_zero_depth(self):
        d = DomainDecomposition(100.0, (2, 2, 2))
        assert d.overload_volume_factor(0.0) == 1.0

    def test_overload_factor_depth_too_large(self):
        d = DomainDecomposition(100.0, (4, 4, 4))
        with pytest.raises(ValueError):
            d.overload_volume_factor(13.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(box_size=0.0, dims=(2, 2, 2)), dict(box_size=10.0, dims=(0, 2, 2))],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            DomainDecomposition(**kwargs)


class TestTorusTopology:
    def test_node_count(self):
        assert TorusTopology((4, 4, 4, 8, 2)).n_nodes == 1024

    def test_links_per_node_bgq(self):
        # a full 5-D torus with all extents > 2 has 10 links
        assert TorusTopology((4, 4, 4, 4, 4)).n_links_per_node == 10

    def test_links_extent_two_collapses(self):
        assert TorusTopology((2, 2)).n_links_per_node == 2

    def test_coords_roundtrip(self):
        t = TorusTopology((3, 4, 5))
        for node in (0, 7, 59):
            assert t.node_of(t.coords(node)) == node

    def test_hops_symmetric_and_wrapping(self):
        t = TorusTopology((8,))
        assert t.hops(0, 7) == 1  # wraps around
        assert t.hops(0, 4) == 4
        assert t.hops(3, 5) == t.hops(5, 3)

    def test_diameter_explicit(self):
        # floor(4/2)*3 + floor(8/2) + floor(2/2) = 6 + 4 + 1 = 11
        assert TorusTopology((4, 4, 4, 8, 2)).diameter == 11

    def test_average_hops_closed_form(self):
        t = TorusTopology((4,))
        # exhaustive mean over pairs: distances {0,1,2,1} -> mean 1
        dists = [t.hops(0, b) for b in range(4)]
        assert np.mean(dists) == pytest.approx(t.average_hops())

    def test_bisection_links(self):
        # 4x4 torus: cut the longest dim (4) at two planes: 2 * 16/4 = 8
        assert TorusTopology((4, 4)).bisection_links() == 8

    def test_bisection_extent_two(self):
        assert TorusTopology((2, 2)).bisection_links() == 2

    def test_alltoall_time_scales_with_bytes(self):
        t = TorusTopology((4, 4))
        t1 = t.alltoall_time(1e6, 1e9)
        t2 = t.alltoall_time(2e6, 1e9)
        assert t2 == pytest.approx(2 * t1)

    def test_alltoall_validation(self):
        t = TorusTopology((4, 4))
        with pytest.raises(ValueError):
            t.alltoall_time(-1, 1e9)
        with pytest.raises(ValueError):
            t.alltoall_time(1, 0)

    def test_balanced_factory(self):
        t = TorusTopology.balanced(1024, ndim=5)
        assert t.n_nodes == 1024

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            TorusTopology((0, 4))
