"""Tests for transfer functions and the linear power spectrum."""

import math

import numpy as np
import pytest

from repro.cosmology.background import WMAP7
from repro.cosmology.power_spectrum import LinearPower, TransferFunction


class TestTransferFunction:
    @pytest.mark.parametrize("kind", TransferFunction.KINDS)
    def test_normalized_at_low_k(self, kind):
        tf = TransferFunction(WMAP7, kind)
        assert float(tf(np.array([1e-6]))[0]) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("kind", TransferFunction.KINDS)
    def test_monotone_envelope(self, kind):
        # T(k) decays strongly toward small scales (BAO wiggles are small
        # modulations, so compare widely separated k)
        tf = TransferFunction(WMAP7, kind)
        k = np.array([1e-3, 1e-1, 1e1])
        t = tf(k)
        assert t[0] > t[1] > t[2] > 0

    def test_small_scale_suppression_order_of_magnitude(self):
        tf = TransferFunction(WMAP7)
        # at k = 1 h/Mpc the transfer function is down by ~1e-2..1e-3
        t1 = float(tf(np.array([1.0]))[0])
        assert 1e-4 < t1 < 1e-1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction(WMAP7, "camb")

    def test_negative_k_rejected(self):
        tf = TransferFunction(WMAP7)
        with pytest.raises(ValueError):
            tf(np.array([-0.1]))

    def test_full_fit_has_bao_wiggles(self):
        """The full EH fit oscillates around the no-wiggle form."""
        full = TransferFunction(WMAP7, "eisenstein_hu")
        nw = TransferFunction(WMAP7, "eisenstein_hu_nw")
        k = np.linspace(0.05, 0.4, 400)
        ratio = full(k) / nw(k)
        # wiggles: the ratio crosses unity several times
        crossings = np.count_nonzero(np.diff(np.sign(ratio - 1.0)))
        assert crossings >= 3

    def test_wiggle_amplitude_is_percent_level(self):
        full = TransferFunction(WMAP7, "eisenstein_hu")
        nw = TransferFunction(WMAP7, "eisenstein_hu_nw")
        k = np.linspace(0.05, 0.4, 400)
        ratio = full(k) / nw(k)
        assert 0.01 < np.max(np.abs(ratio - 1.0)) < 0.25

    def test_bbks_close_to_eh_nowiggle(self):
        bbks = TransferFunction(WMAP7, "bbks")
        nw = TransferFunction(WMAP7, "eisenstein_hu_nw")
        k = np.logspace(-3, 0, 50)
        ratio = bbks(k) / nw(k)
        assert np.all(ratio > 0.5)
        assert np.all(ratio < 2.0)

    def test_k_equals_zero_returns_one(self):
        tf = TransferFunction(WMAP7)
        assert float(tf(np.array([0.0]))[0]) == 1.0


class TestLinearPower:
    def test_sigma8_normalization(self, linear_power):
        assert linear_power.sigma_r(8.0) == pytest.approx(
            WMAP7.sigma8, rel=1e-3
        )

    def test_power_positive(self, linear_power):
        k = np.logspace(-4, 1.5, 60)
        assert np.all(linear_power(k) > 0)

    def test_power_zero_at_k_zero(self, linear_power):
        assert float(linear_power(np.array([0.0]))[0]) == 0.0

    def test_large_scale_slope_is_ns(self, linear_power):
        # P ~ k^ns on ultra-large scales
        k1, k2 = 1e-4, 2e-4
        slope = np.log(linear_power(k2) / linear_power(k1)) / np.log(k2 / k1)
        assert slope == pytest.approx(WMAP7.n_s, abs=0.02)

    def test_growth_scaling_with_a(self, linear_power):
        a = 0.5
        d = WMAP7.growth_factor(a)
        k = np.array([0.1])
        assert float(linear_power(k, a)[0]) == pytest.approx(
            float(linear_power(k)[0]) * d * d, rel=1e-7
        )

    def test_peak_location(self, linear_power):
        # matter power peaks near k_eq ~ 0.01-0.02 h/Mpc
        k = np.logspace(-3, 0, 300)
        kpeak = k[np.argmax(linear_power(k))]
        assert 0.005 < kpeak < 0.05

    def test_sigma_decreases_with_radius(self, linear_power):
        assert linear_power.sigma_r(4.0) > linear_power.sigma_r(16.0)

    def test_sigma_r_rejects_nonpositive(self, linear_power):
        with pytest.raises(ValueError):
            linear_power.sigma_r(0.0)

    def test_sigma_m_cluster_scale(self, linear_power):
        # 1e15 Msun/h clusters are rare: sigma(M) < delta_c there
        assert linear_power.sigma_m(1e15) < 1.686

    def test_dimensionless_nonlinear_scale(self, linear_power):
        # Delta^2 crosses unity somewhere around k ~ 0.2-0.5 h/Mpc at z=0
        k = np.logspace(-2, 1, 200)
        d2 = linear_power.dimensionless(k)
        k_nl = k[np.argmin(np.abs(d2 - 1.0))]
        assert 0.05 < k_nl < 1.5

    def test_table_shapes(self, linear_power):
        k, p = linear_power.table(n=64)
        assert k.shape == p.shape == (64,)
        assert np.all(np.diff(k) > 0)

    @pytest.mark.parametrize("cosmology, transfer", [
        (WMAP7, "eisenstein_hu"),
        (WMAP7.with_(omega_m=0.3, sigma8=0.9, n_s=1.0), "bbks"),
    ], ids=["wmap7", "bbks"])
    def test_sigma8_normalization_is_exact(self, cosmology, transfer):
        """sigma(8 Mpc/h) reproduces the sigma8 that normalised it."""
        p = LinearPower(cosmology, transfer)
        assert p.sigma_r(8.0) == pytest.approx(cosmology.sigma8, rel=1e-10)

    def test_sigma_r_matches_adaptive_quadrature(self, linear_power):
        """The composite rule settles sigma^2(R) to 1e-10 of a tight
        adaptive reference, top-hat ringing included."""
        from scipy.integrate import quad

        r = 8.0

        def integrand(lnk):
            k = math.exp(lnk)
            x = k * r
            w = 3.0 * (math.sin(x) - x * math.cos(x)) / x**3
            return float(linear_power(k)) * (k * w) ** 2 * k / (2 * math.pi**2)

        ref, _ = quad(integrand, math.log(1e-5), math.log(1e3 / r),
                      limit=2000, epsabs=0.0, epsrel=1e-12)
        assert linear_power.sigma_r(r) ** 2 == pytest.approx(ref, rel=1e-10)

    def test_sigma_r_scales_with_growth(self, linear_power):
        a = 0.5
        assert linear_power.sigma_r(8.0, a) == pytest.approx(
            WMAP7.growth_factor(a) * linear_power.sigma_r(8.0), rel=1e-14
        )

    def test_bbks_normalization_also_holds(self):
        p = LinearPower(WMAP7, transfer="bbks")
        assert p.sigma_r(8.0) == pytest.approx(WMAP7.sigma8, rel=1e-3)
