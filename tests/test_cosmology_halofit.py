"""Tests for the HALOFIT nonlinear power spectrum."""

import numpy as np
import pytest

from repro.cosmology import WMAP7, Cosmology, LinearPower
from repro.cosmology.halofit import HalofitPower


@pytest.fixture(scope="module")
def halofit(linear_power):
    return HalofitPower(linear_power)


class TestSpectralParams:
    def test_nonlinear_scale_reasonable(self, halofit):
        """k_sigma ~ 0.3-0.5 h/Mpc for sigma8 = 0.8 at z=0."""
        assert 0.25 < halofit.nonlinear_scale() < 0.55

    def test_effective_index(self, halofit):
        """n_eff ~ -1.5 to -2 at the nonlinear scale for CDM spectra."""
        p = halofit.spectral_params()
        assert -2.3 < p.n_eff < -1.3

    def test_curvature_positive(self, halofit):
        assert 0.0 < halofit.spectral_params().curvature < 1.0

    def test_nonlinear_scale_grows_with_time(self, halofit):
        """Structure collapses later on larger scales: k_sigma decreases
        with a (more scales are nonlinear today than at z=1)."""
        assert halofit.nonlinear_scale(1.0) < halofit.nonlinear_scale(0.5)

    def test_params_cached(self, halofit):
        a = halofit.spectral_params(1.0)
        b = halofit.spectral_params(1.0)
        assert a is b

    def test_invalid_a(self, halofit):
        with pytest.raises(ValueError):
            halofit.spectral_params(1.5)

    def test_too_cold_spectrum_rejected(self):
        cold = Cosmology(sigma8=0.01)
        with pytest.raises(ValueError):
            HalofitPower(LinearPower(cold)).spectral_params(0.05)


class TestNonlinearPower:
    def test_reduces_to_linear_at_low_k(self, halofit, linear_power):
        k = np.array([1e-3, 5e-3])
        ratio = halofit(k) / linear_power(k)
        assert np.all(np.abs(ratio - 1.0) < 0.05)

    def test_boost_at_nonlinear_scales(self, halofit):
        """P_NL substantially exceeds P_L by k ~ 1 h/Mpc at z=0."""
        boost = halofit.boost(np.array([1.0]))
        assert 3.0 < boost[0] < 15.0

    def test_boost_monotone_in_k(self, halofit):
        k = np.array([0.1, 0.3, 1.0, 3.0])
        b = halofit.boost(k)
        assert np.all(np.diff(b) > 0)

    def test_boost_weaker_at_higher_z(self, halofit):
        """Nonlinearity develops with time."""
        k = np.array([1.0])
        assert halofit.boost(k, 0.5)[0] < halofit.boost(k, 1.0)[0]

    def test_positive_everywhere(self, halofit):
        k = np.logspace(-4, 1.5, 80)
        assert np.all(halofit(k) > 0)

    def test_output_is_shaped_like_k(self, halofit):
        """A scalar k gives a 0-d array, as ``LinearPower`` does."""
        assert np.shape(halofit(0.01)) == ()
        assert halofit(np.array([0.01])).shape == (1,)
        assert float(halofit(0.01)) == halofit(np.array([0.01]))[0]

    def test_negative_k_rejected(self, halofit):
        with pytest.raises(ValueError):
            halofit(np.array([-0.1]))

    def test_wcdm_differs_from_lcdm(self):
        lcdm = HalofitPower(LinearPower(WMAP7))
        wcdm = HalofitPower(LinearPower(WMAP7.with_(w0=-0.8)))
        k = np.array([1.0])
        assert not np.isclose(
            float(lcdm(k, 0.5)[0]), float(wcdm(k, 0.5)[0]), rtol=1e-3
        )

    def test_sigma8_sensitivity(self):
        """Higher sigma8 -> stronger nonlinear power (steeper than
        the linear sigma8^2 scaling at nonlinear k)."""
        lo = HalofitPower(LinearPower(WMAP7.with_(sigma8=0.7)))
        hi = HalofitPower(LinearPower(WMAP7.with_(sigma8=0.9)))
        k = np.array([1.0])
        ratio = float(hi(k)[0] / lo(k)[0])
        assert ratio > (0.9 / 0.7) ** 2

    def test_consistent_with_simulation_regime(self, halofit):
        """At k ~ 1.2 h/Mpc, z=0 the science run measures a boost of
        ~1.4-2.7; HALOFIT predicts the same regime (order unity to
        several) — the bench does the detailed comparison."""
        boost = float(halofit.boost(np.array([1.2]))[0])
        assert 2.0 < boost < 20.0
