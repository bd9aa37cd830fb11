"""Tests for the spectral kernels and the filtered Poisson solver."""

import numpy as np
import pytest

from repro.cosmology.gaussian_field import fourier_grid
from repro.fft.pencil import PencilFFT
from repro.grid.filters import (
    influence_function,
    spectral_filter,
    super_lanczos_gradient,
)
from repro.grid.poisson import SpectralPoissonSolver


class TestSpectralFilter:
    def test_unity_at_k_zero(self):
        assert float(spectral_filter(0.0, 0.0, 0.0, 1.0)) == pytest.approx(1.0)

    def test_monotone_decay(self):
        k = np.linspace(0, np.pi, 50)
        s = spectral_filter(k, 0.0, 0.0, 1.0)
        assert np.all(np.diff(s) < 0)

    def test_nominal_parameters(self):
        """sigma=0.8, ns=3 from Eq. (5)."""
        val = float(spectral_filter(1.0, 0.0, 0.0, 1.0))
        expected = np.exp(-0.8**2 / 4) * (np.sin(0.5) / 0.5) ** 3
        assert val == pytest.approx(expected, rel=1e-12)

    def test_ns_zero_pure_gaussian(self):
        val = float(spectral_filter(2.0, 0.0, 0.0, 1.0, sigma=1.0, ns=0))
        assert val == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_isotropy(self):
        """The filter depends only on |k| — its purpose is isotropization."""
        a = float(spectral_filter(1.0, 0.0, 0.0, 1.0))
        b = float(spectral_filter(0.0, 1.0, 0.0, 1.0))
        c = float(
            spectral_filter(1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3), 1.0)
        )
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [dict(spacing=0.0), dict(sigma=-1.0), dict(ns=-1)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            spectral_filter(1.0, 0.0, 0.0, **{"spacing": 1.0, **kwargs})


class TestInfluenceFunction:
    def test_continuum_limit(self):
        k = 1e-3
        g = float(influence_function(k, 0.0, 0.0, 1.0))
        assert g == pytest.approx(-1.0 / k**2, rel=1e-5)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_convergence_order(self, order):
        """Error shrinks by ~2^order when k is halved (order-th order)."""
        def err(k):
            g = float(influence_function(k, 0.0, 0.0, 1.0, order=order))
            return abs(g * k**2 + 1.0)

        rate = err(0.5) / err(0.25)
        assert rate == pytest.approx(2**order, rel=0.25)

    def test_sixth_beats_second(self):
        k = 1.0
        g2 = float(influence_function(k, 0.0, 0.0, 1.0, order=2))
        g6 = float(influence_function(k, 0.0, 0.0, 1.0, order=6))
        assert abs(g6 * k**2 + 1) < abs(g2 * k**2 + 1)

    def test_zero_mode_zeroed(self):
        assert float(influence_function(0.0, 0.0, 0.0, 1.0)) == 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            influence_function(1.0, 0.0, 0.0, 1.0, order=8)


class TestSuperLanczos:
    def test_continuum_limit(self):
        k = 1e-4
        d = complex(super_lanczos_gradient(k, 1.0))
        assert d.imag == pytest.approx(k, rel=1e-6)
        assert d.real == 0.0

    def test_fourth_order_accuracy(self):
        """Error ~ k^5 Delta^4/30: fourth order in k Delta."""
        for k in (0.2, 0.1):
            d = complex(super_lanczos_gradient(k, 1.0)).imag
            err = abs(d - k)
            assert err < k**5 / 20  # leading coefficient 1/30

    def test_second_order_option(self):
        d = complex(super_lanczos_gradient(0.5, 1.0, order=2))
        assert d.imag == pytest.approx(np.sin(0.5), rel=1e-12)

    def test_odd_function(self):
        dp = complex(super_lanczos_gradient(0.7, 1.0))
        dm = complex(super_lanczos_gradient(-0.7, 1.0))
        assert dp == -dm

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            super_lanczos_gradient(1.0, 1.0, order=6)


class TestPoissonSolver:
    def test_plane_wave_potential(self):
        s = SpectralPoissonSolver(32, 1.0, sigma=0.0, ns=0)
        x = np.arange(32) / 32.0
        delta = np.cos(2 * np.pi * x)[:, None, None] * np.ones((1, 32, 32))
        phi = s.potential(delta)
        expected = -np.cos(2 * np.pi * x) / (2 * np.pi) ** 2
        assert np.abs(phi[:, 0, 0] - expected).max() < 1e-6

    def test_plane_wave_force(self):
        s = SpectralPoissonSolver(32, 1.0, sigma=0.0, ns=0)
        x = np.arange(32) / 32.0
        delta = np.cos(2 * np.pi * x)[:, None, None] * np.ones((1, 32, 32))
        fx, fy, fz = s.force_grids(delta)
        expected = -np.sin(2 * np.pi * x) / (2 * np.pi)
        assert np.abs(fx[:, 0, 0] - expected).max() < 1e-5
        assert np.abs(fy).max() < 1e-12
        assert np.abs(fz).max() < 1e-12

    def test_negated_gradient_kernels_precomputed(self):
        s = SpectralPoissonSolver(8, 64.0)
        kx, _, _ = fourier_grid(8, 64.0)
        direct = super_lanczos_gradient(kx, s.spacing, s.gradient_order)
        assert np.array_equal(s._neg_grad_kernels[0], -direct)

    def test_mean_mode_ignored(self):
        s = SpectralPoissonSolver(8, 1.0)
        phi = s.potential(np.full((8, 8, 8), 2.0))
        assert np.abs(phi).max() < 1e-14

    def test_no_self_force(self, rng):
        """A single particle exerts no PM force on itself (CIC adjoint +
        odd gradient kernel)."""
        s = SpectralPoissonSolver(16, 16.0)
        pos = rng.uniform(0, 16.0, (1, 3))
        acc = s.accelerations(pos)
        assert np.abs(acc).max() < 1e-10

    def test_momentum_conservation(self, rng):
        """Total PM force over all particles vanishes."""
        s = SpectralPoissonSolver(16, 16.0)
        pos = rng.uniform(0, 16.0, (100, 3))
        acc = s.accelerations(pos)
        assert np.abs(acc.sum(axis=0)).max() < 1e-9

    def test_pair_force_attractive_and_isotropic(self):
        """Two PM particles attract along their separation vector."""
        s = SpectralPoissonSolver(32, 32.0)
        pos = np.array([[10.0, 16.0, 16.0], [22.0, 16.0, 16.0]])
        acc = s.accelerations(pos)
        assert acc[0, 0] > 0  # particle 0 pulled toward +x
        assert acc[1, 0] < 0
        assert abs(acc[0, 1]) < 1e-3 * abs(acc[0, 0])

    def test_filtered_force_weaker_at_short_range(self):
        """The spectral filter suppresses the PM force at ~cell scales."""
        raw = SpectralPoissonSolver(32, 32.0, sigma=0.0, ns=0)
        filt = SpectralPoissonSolver(32, 32.0)  # nominal sigma=0.8, ns=3
        pos = np.array([[15.0, 16.0, 16.0], [17.0, 16.0, 16.0]])  # 2 cells
        a_raw = raw.accelerations(pos)
        a_filt = filt.accelerations(pos)
        assert abs(a_filt[0, 0]) < abs(a_raw[0, 0])

    def test_distributed_path_matches_local(self, rng):
        s = SpectralPoissonSolver(16, 8.0)
        delta = rng.standard_normal((16, 16, 16))
        delta -= delta.mean()
        local = s.force_grids(delta)
        dist = s.force_grids_distributed(delta, PencilFFT(16, 2, 2))
        for a, b in zip(local, dist):
            assert np.allclose(a, b, atol=1e-12)

    def test_distributed_grid_mismatch_rejected(self, rng):
        s = SpectralPoissonSolver(16, 8.0)
        with pytest.raises(ValueError):
            s.force_grids_distributed(
                np.zeros((16, 16, 16)), PencilFFT(8, 2, 2)
            )

    def test_wrong_shape_rejected(self):
        s = SpectralPoissonSolver(8, 1.0)
        with pytest.raises(ValueError):
            s.potential(np.zeros((4, 4, 4)))

    def test_empty_particles_rejected(self):
        s = SpectralPoissonSolver(8, 1.0)
        with pytest.raises(ValueError):
            s.accelerations(np.zeros((1, 3)), weights=np.zeros(1))


class TestFilterTables:
    """The folded-octant ``S(k) G(k)`` tables are byte for byte the
    full-grid formula, kept here as the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32])
    @pytest.mark.parametrize("box", [1.0, 100.0, 333.3])
    @pytest.mark.parametrize("dtype", [None, np.float32])
    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_octant_tables_match_full_grid(self, n, box, dtype, order):
        s = SpectralPoissonSolver(n, box, laplacian_order=order, dtype=dtype)

        def full_grid(rfft):
            kx, ky, kz = fourier_grid(n, box, rfft=rfft)
            return spectral_filter(
                kx, ky, kz, s.spacing, s.sigma, s.ns
            ) * influence_function(kx, ky, kz, s.spacing, order)

        green = full_grid(True).astype(dtype or np.float64)
        assert s._filter_green.dtype == green.dtype
        assert np.array_equal(s._filter_green, green)
        assert np.array_equal(s._filter_table(rfft=False), full_grid(False))
