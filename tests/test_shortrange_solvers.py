"""Tests for the TreePM / P3M / direct short-range backends."""

import numpy as np
import pytest

from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import (
    DirectShortRange,
    P3MShortRange,
    TreePMShortRange,
    periodic_ghosts,
)


@pytest.fixture()
def kernel(grid_force_fit):
    return ShortRangeKernel(grid_force_fit, spacing=1.0, eps_cells=0.0)


class TestPeriodicGhosts:
    def test_originals_come_first(self, rng):
        pos = rng.uniform(0, 10.0, (50, 3))
        m = np.ones(50)
        gp, gm = periodic_ghosts(pos, m, 10.0, 2.0)
        assert np.allclose(gp[:50], pos)
        assert gp.shape[0] >= 50

    def test_ghost_count_matches_shell_volume(self, rng):
        """Fraction of ghosts ~ ((L+2r)^3 - L^3)/L^3 for uniform points."""
        box, r = 10.0, 1.0
        pos = rng.uniform(0, box, (20000, 3))
        gp, _ = periodic_ghosts(pos, np.ones(20000), box, r)
        frac = (gp.shape[0] - 20000) / 20000
        expected = ((box + 2 * r) ** 3 - box**3) / box**3
        assert frac == pytest.approx(expected, rel=0.05)

    def test_ghosts_outside_box(self, rng):
        pos = rng.uniform(0, 10.0, (200, 3))
        gp, _ = periodic_ghosts(pos, np.ones(200), 10.0, 2.0)
        ghosts = gp[200:]
        outside = np.any((ghosts < 0) | (ghosts >= 10.0), axis=1)
        assert np.all(outside)

    def test_corner_particle_has_seven_images(self):
        pos = np.array([[0.1, 0.1, 0.1]])
        gp, _ = periodic_ghosts(pos, np.ones(1), 10.0, 1.0)
        assert gp.shape[0] == 8  # original + 7 images

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ghosts_keep_the_positions_dtype(self, rng, dtype):
        """A float32 cloud gets float32 ghosts, each the float64 image
        rounded to float32 (the box shifts are exact in float32)."""
        pos = rng.uniform(0, 10.0, (1000, 3)).astype(dtype)
        gp, gm = periodic_ghosts(pos, np.ones(1000, dtype), 10.0, 2.0)
        assert gp.dtype == gm.dtype == dtype
        ref, _ = periodic_ghosts(pos.astype(np.float64), np.ones(1000),
                                 10.0, 2.0)
        assert gp.shape == ref.shape and gp.shape[0] > 1000
        assert np.array_equal(gp, ref.astype(dtype))

    def test_rcut_validation(self):
        with pytest.raises(ValueError):
            periodic_ghosts(np.zeros((1, 3)), np.ones(1), 10.0, 6.0)
        with pytest.raises(ValueError):
            periodic_ghosts(np.zeros((1, 3)), np.ones(1), 0.0, 1.0)


class TestBackendAgreement:
    """All backends implement the same force — the paper's multi-algorithm
    cross-validation strategy."""

    @pytest.fixture()
    def system(self, rng):
        pos = rng.uniform(0, 12.0, (400, 3))
        m = rng.uniform(0.5, 1.5, 400)
        return pos, m

    def test_tree_matches_direct_open(self, kernel, system):
        pos, m = system
        a = DirectShortRange(kernel).accelerations(pos, m)
        b = TreePMShortRange(kernel, leaf_size=24).accelerations(pos, m)
        assert np.allclose(a, b, atol=1e-11)

    def test_p3m_matches_direct_open(self, kernel, system):
        pos, m = system
        a = DirectShortRange(kernel).accelerations(pos, m)
        b = P3MShortRange(kernel).accelerations(pos, m)
        assert np.allclose(a, b, atol=1e-11)

    def test_tree_matches_direct_periodic(
        self, kernel, system, periodic_accelerations
    ):
        pos, m = system
        a = periodic_accelerations(DirectShortRange(kernel), pos, m, 12.0)
        b = periodic_accelerations(
            TreePMShortRange(kernel, leaf_size=24), pos, m, 12.0
        )
        assert np.allclose(a, b, atol=1e-11)

    def test_p3m_matches_direct_periodic(
        self, kernel, system, periodic_accelerations
    ):
        pos, m = system
        a = periodic_accelerations(DirectShortRange(kernel), pos, m, 12.0)
        b = periodic_accelerations(P3MShortRange(kernel), pos, m, 12.0)
        assert np.allclose(a, b, atol=1e-11)

    @pytest.mark.parametrize("leaf_size", [1, 8, 64, 512])
    def test_tree_invariant_under_leaf_size(self, kernel, system, leaf_size):
        """Fat leaves change performance, never the answer."""
        pos, m = system
        ref = DirectShortRange(kernel).accelerations(pos, m)
        out = TreePMShortRange(kernel, leaf_size=leaf_size).accelerations(
            pos, m
        )
        assert np.allclose(ref, out, atol=1e-11)

    def test_clustered_distribution(self, kernel, rng):
        """Agreement holds in the clustered regime where tree pruning is
        actually exercised."""
        centers = rng.uniform(2, 10, (5, 3))
        pos = np.concatenate(
            [c + 0.3 * rng.standard_normal((80, 3)) for c in centers]
        )
        m = np.ones(len(pos))
        a = DirectShortRange(kernel).accelerations(pos, m)
        b = TreePMShortRange(kernel, leaf_size=32).accelerations(pos, m)
        c = P3MShortRange(kernel).accelerations(pos, m)
        assert np.allclose(a, b, atol=1e-11)
        assert np.allclose(a, c, atol=1e-11)


class TestPhysicalProperties:
    def test_momentum_conservation(self, kernel, rng):
        pos = rng.uniform(0, 8.0, (200, 3))
        m = rng.uniform(0.5, 2.0, 200)
        acc = TreePMShortRange(kernel, leaf_size=16).accelerations(pos, m)
        net = (m[:, None] * acc).sum(axis=0)
        assert np.abs(net).max() < 1e-10

    def test_periodic_translation_invariance(
        self, kernel, rng, periodic_accelerations
    ):
        pos = rng.uniform(0, 8.0, (100, 3))
        m = np.ones(100)
        solver = TreePMShortRange(kernel, leaf_size=16)
        a = periodic_accelerations(solver, pos, m, 8.0)
        shifted = np.mod(pos + np.array([3.0, 0.0, 0.0]), 8.0)
        b = periodic_accelerations(solver, shifted, m, 8.0)
        assert np.allclose(a, b, atol=1e-10)

    def test_force_across_periodic_seam(self, kernel, periodic_accelerations):
        """Two particles separated only through the boundary attract."""
        pos = np.array([[0.2, 4.0, 4.0], [7.8, 4.0, 4.0]])  # 0.4 apart
        m = np.ones(2)
        acc = periodic_accelerations(DirectShortRange(kernel), pos, m, 8.0)
        assert acc[0, 0] < 0  # pulled across the low face
        assert acc[1, 0] > 0

    def test_no_force_beyond_cutoff(self, kernel):
        pos = np.array([[1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])  # r ~ 6.9 > 3
        acc = DirectShortRange(kernel).accelerations(pos, np.ones(2))
        assert np.abs(acc).max() == 0.0

    def test_interaction_list_sizes_recorded(self, kernel, rng):
        pos = rng.uniform(0, 8.0, (300, 3))
        solver = TreePMShortRange(kernel, leaf_size=16)
        solver.accelerations(pos, np.ones(300))
        assert solver.last_list_sizes is not None
        assert solver.last_list_sizes.min() >= 16

    def test_leaf_size_validation(self, kernel):
        with pytest.raises(ValueError):
            TreePMShortRange(kernel, leaf_size=0)
