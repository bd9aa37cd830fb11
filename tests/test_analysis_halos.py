"""Tests for the FOF halo finder, sub-halos and mass functions."""

import numpy as np
import pytest

from repro.analysis.halos import fof_halos
from repro.analysis.mass_function import (
    measured_mass_function,
    press_schechter,
    sheth_tormen,
)
from repro.analysis.subhalos import find_subhalos
from repro.cosmology import LinearPower, WMAP7


def two_blobs(rng, box=50.0, n1=300, n2=150, sep=20.0):
    c1 = np.array([10.0, 25.0, 25.0])
    c2 = c1 + np.array([sep, 0.0, 0.0])
    pos = np.concatenate(
        [
            c1 + 0.2 * rng.standard_normal((n1, 3)),
            c2 + 0.2 * rng.standard_normal((n2, 3)),
        ]
    )
    return np.mod(pos, box)


class TestFOF:
    def test_two_separated_blobs(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        assert cat.n_halos == 2
        assert cat.sizes[0] == 300
        assert cat.sizes[1] == 150

    def test_sorted_by_size(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        assert np.all(np.diff(cat.sizes) <= 0)

    def test_centers_recovered(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        assert np.allclose(cat.centers[0], [10, 25, 25], atol=0.2)
        assert np.allclose(cat.centers[1], [30, 25, 25], atol=0.2)

    def test_labels_consistent_with_members(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        m0 = cat.members(0)
        assert len(m0) == cat.sizes[0]
        assert np.all(cat.labels[m0] == 0)

    def test_small_groups_dropped(self, rng):
        pos = np.concatenate(
            [two_blobs(rng), rng.uniform(40, 45, (5, 3))]  # a 5-particle clump
        )
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        assert cat.n_halos == 2
        assert np.count_nonzero(cat.labels == -1) >= 5

    def test_halo_spanning_periodic_boundary(self, rng):
        """A clump straddling the box seam is found as one halo with the
        correct (wrapped) center."""
        box = 50.0
        pos = np.mod(
            np.array([49.5, 25.0, 25.0])
            + 0.3 * rng.standard_normal((100, 3)),
            box,
        )
        cat = fof_halos(pos, box, linking_length=1.0, min_members=10)
        assert cat.n_halos == 1
        cx = cat.centers[0, 0]
        assert cx > 48.0 or cx < 1.5

    def test_relative_linking_length(self, rng):
        pos = rng.uniform(0, 10.0, (1000, 3))
        cat = fof_halos(pos, 10.0, b=0.2, min_members=5)
        assert cat.linking_length == pytest.approx(0.2 * 10.0 / 10.0)

    def test_uniform_low_density_yields_no_halos(self, rng):
        pos = rng.uniform(0, 100.0, (200, 3))  # very sparse
        cat = fof_halos(pos, 100.0, b=0.2, min_members=10)
        assert cat.n_halos == 0

    def test_mean_velocities(self, rng):
        pos = two_blobs(rng)
        mom = np.zeros_like(pos)
        mom[:300] = [1.0, 0.0, 0.0]
        mom[300:] = [0.0, 2.0, 0.0]
        cat = fof_halos(
            pos, 50.0, linking_length=1.0, min_members=10, momenta=mom
        )
        assert np.allclose(cat.mean_velocities[0], [1, 0, 0])
        assert np.allclose(cat.mean_velocities[1], [0, 2, 0])

    def test_masses_scale(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        assert cat.masses(2.0)[0] == pytest.approx(600.0)

    def test_member_index_bounds(self, rng):
        cat = fof_halos(two_blobs(rng), 50.0, linking_length=1.0)
        with pytest.raises(ValueError):
            cat.members(99)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(b=-1.0),
            dict(linking_length=30.0),
            dict(linking_length=0.0),
        ],
    )
    def test_validation(self, rng, kwargs):
        with pytest.raises(ValueError):
            fof_halos(two_blobs(rng), 50.0, **kwargs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fof_halos(np.zeros((0, 3)), 10.0)


class TestSubhalos:
    def test_host_decomposes_into_satellites(self, rng):
        """A big blob with two dense knots: sub-FOF finds the knots."""
        box = 50.0
        host = np.array([25.0, 25.0, 25.0])
        diffuse = host + 1.5 * rng.standard_normal((400, 3))
        knot1 = host + np.array([1.5, 0, 0]) + 0.05 * rng.standard_normal((80, 3))
        knot2 = host - np.array([1.5, 0, 0]) + 0.05 * rng.standard_normal((50, 3))
        pos = np.mod(np.concatenate([diffuse, knot1, knot2]), box)
        cat = fof_halos(pos, box, linking_length=1.0, min_members=10)
        assert cat.n_halos == 1
        subs = find_subhalos(
            cat, pos, halo=0, linking_fraction=0.15, min_members=20
        )
        assert len(subs) >= 2
        assert subs[0].n_members >= subs[1].n_members

    def test_members_are_global_indices(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        subs = find_subhalos(cat, pos, halo=1, linking_fraction=1.0)
        # sub-members must be a subset of the host's members
        host_members = set(cat.members(1).tolist())
        for s in subs:
            assert set(s.member_indices.tolist()) <= host_members

    def test_linking_fraction_validated(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0)
        with pytest.raises(ValueError):
            find_subhalos(cat, pos, halo=0, linking_fraction=0.0)


class TestMassFunction:
    def test_measured_counts_and_density(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0, min_members=10)
        mf = measured_mass_function(cat, particle_mass=1e10, n_bins=4)
        assert mf.counts.sum() == 2
        assert np.all(mf.dn_dlnm >= 0)

    def test_measured_validation(self, rng):
        pos = two_blobs(rng)
        cat = fof_halos(pos, 50.0, linking_length=1.0)
        with pytest.raises(ValueError):
            measured_mass_function(cat, particle_mass=0.0)

    def test_press_schechter_decreasing_at_high_mass(self, linear_power):
        m = np.array([1e13, 1e14, 1e15])
        mf = press_schechter(linear_power, m)
        assert np.all(np.diff(mf) < 0)

    def test_sheth_tormen_exceeds_ps_at_cluster_scale(self, linear_power):
        """ST predicts more massive clusters than PS — its raison d'etre."""
        m = np.array([3e14, 1e15])
        assert np.all(
            sheth_tormen(linear_power, m) > press_schechter(linear_power, m)
        )

    def test_magnitude_at_group_scale(self, linear_power):
        """dn/dlnM at 1e13 Msun/h is ~1e-4..1e-3 (Mpc/h)^-3 at z=0."""
        mf = sheth_tormen(linear_power, np.array([1e13]))[0]
        assert 1e-5 < mf < 1e-2

    def test_evolution_suppresses_high_mass(self, linear_power):
        """Halos are rarer at z=1 than today."""
        m = np.array([1e14])
        now = sheth_tormen(linear_power, m, a=1.0)[0]
        early = sheth_tormen(linear_power, m, a=0.5)[0]
        assert early < now

    def test_mass_validation(self, linear_power):
        with pytest.raises(ValueError):
            press_schechter(linear_power, np.array([-1e13]))
