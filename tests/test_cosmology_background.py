"""Tests for repro.cosmology.background (FLRW expansion and growth)."""

import math

import numpy as np
import pytest

from repro.cosmology.background import WMAP7, Cosmology


class TestConstruction:
    def test_defaults_are_flat(self):
        c = Cosmology()
        assert c.omega_de == pytest.approx(1.0 - c.omega_m)

    def test_omega_cdm(self):
        c = Cosmology(omega_m=0.3, omega_b=0.05)
        assert c.omega_cdm == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_m": 0.0},
            {"omega_m": -0.1},
            {"omega_m": 0.3, "omega_b": 0.4},
            {"h": 0.0},
            {"h": -1.0},
            {"sigma8": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Cosmology(**kwargs)

    def test_with_replaces_fields(self):
        c = WMAP7.with_(sigma8=0.9)
        assert c.sigma8 == 0.9
        assert c.omega_m == WMAP7.omega_m


class TestExpansion:
    def test_efunc_today_is_one(self):
        assert float(WMAP7.efunc(1.0)) == pytest.approx(1.0)

    def test_efunc_matter_era_scaling(self):
        # deep in matter domination E ~ sqrt(Om) a^-1.5
        a = 1e-3
        expected = math.sqrt(WMAP7.omega_m) * a**-1.5
        assert float(WMAP7.efunc(a)) == pytest.approx(expected, rel=1e-3)

    def test_efunc_vectorized(self):
        a = np.array([0.1, 0.5, 1.0])
        e = WMAP7.efunc(a)
        assert e.shape == (3,)
        assert np.all(np.diff(e) < 0)  # E decreases toward today

    def test_efunc_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WMAP7.efunc(0.0)

    def test_hubble_units(self):
        assert float(WMAP7.hubble(1.0)) == pytest.approx(100.0 * WMAP7.h)

    def test_de_density_cosmological_constant_is_flat(self):
        c = Cosmology(w0=-1.0, wa=0.0)
        a = np.array([0.1, 0.5, 1.0])
        assert np.allclose(c.de_density_evolution(a), 1.0)

    def test_de_density_cpl_at_unity(self):
        c = Cosmology(w0=-0.9, wa=0.3)
        assert float(c.de_density_evolution(1.0)) == pytest.approx(1.0)

    def test_dlnE_dlna_matches_numerical(self):
        a = 0.5
        eps = 1e-6
        num = (
            math.log(float(WMAP7.efunc(a * (1 + eps))))
            - math.log(float(WMAP7.efunc(a * (1 - eps))))
        ) / (2 * eps)
        assert float(WMAP7.dlnE_dlna(a)) == pytest.approx(num, rel=1e-6)

    def test_omega_m_a_limits(self):
        assert float(WMAP7.omega_m_a(1.0)) == pytest.approx(WMAP7.omega_m)
        assert float(WMAP7.omega_m_a(1e-3)) == pytest.approx(1.0, abs=2e-3)


class TestGrowth:
    def test_eds_growth_equals_a(self):
        eds = Cosmology(omega_m=1.0, omega_b=0.05, w0=-1.0)
        for a in (0.1, 0.25, 0.5, 1.0):
            assert eds.growth_factor(a, normalized=False) == pytest.approx(
                a, rel=1e-6
            )

    def test_normalized_growth_is_one_today(self):
        assert WMAP7.growth_factor(1.0) == pytest.approx(1.0)

    def test_growth_monotone(self):
        a = np.linspace(0.05, 1.0, 20)
        d = WMAP7.growth_factor(a)
        assert np.all(np.diff(d) > 0)

    def test_lcdm_growth_suppressed_vs_eds(self):
        # dark energy suppresses late-time growth: D(a)/a < D(1)/1 scaled
        d_raw = WMAP7.growth_factor(1.0, normalized=False)
        assert d_raw < 1.0  # D(1) < a=1 under the matter-era normalization

    def test_growth_rate_approximation(self):
        # f ~= Omega_m(a)^0.55 for LCDM to ~1%
        for a in (0.3, 0.5, 1.0):
            om = float(WMAP7.omega_m_a(a))
            assert WMAP7.growth_rate(a) == pytest.approx(om**0.55, rel=0.02)

    def test_growth_rate_eds_is_one(self):
        eds = Cosmology(omega_m=1.0, omega_b=0.05)
        assert eds.growth_rate(0.5) == pytest.approx(1.0, rel=1e-6)

    def test_growth_rejects_future(self):
        with pytest.raises(ValueError):
            WMAP7.growth_factor(1.5)

    def test_growth_vector_matches_scalar(self):
        a = np.array([0.2, 0.6, 1.0])
        vec = WMAP7.growth_factor(a)
        for ai, di in zip(a, vec):
            assert WMAP7.growth_factor(float(ai)) == pytest.approx(di)

    def test_wcdm_growth_differs_from_lcdm(self):
        w = Cosmology(w0=-0.8, wa=0.0)
        assert w.growth_factor(0.5) != pytest.approx(
            WMAP7.growth_factor(0.5), rel=1e-3
        )


class TestScaleFactorHelpers:
    def test_a_of_z_roundtrip(self):
        z = np.array([0.0, 0.5, 24.0])
        assert np.allclose(Cosmology.z_of_a(Cosmology.a_of_z(z)), z)

    def test_paper_initial_redshift(self):
        # benchmark runs start at z_in = 25
        assert float(Cosmology.a_of_z(25.0)) == pytest.approx(1.0 / 26.0)
