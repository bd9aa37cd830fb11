"""Tests for Gaussian random fields and Zel'dovich/2LPT initial conditions."""

import numpy as np
import pytest

from repro.analysis.power import power_from_delta, matter_power_spectrum
from repro.cosmology.background import WMAP7
from repro.cosmology.gaussian_field import GaussianRandomField, fourier_grid
from repro.cosmology.initial_conditions import make_initial_conditions
from repro.cosmology.power_spectrum import LinearPower
from repro.shortrange.backends import BackendUnavailable, get_backend


class TestFourierGrid:
    def test_shapes_rfft(self):
        kx, ky, kz = fourier_grid(16, 100.0)
        assert kx.shape == (16, 1, 1)
        assert ky.shape == (1, 16, 1)
        assert kz.shape == (1, 1, 9)

    def test_shapes_full(self):
        _, _, kz = fourier_grid(16, 100.0, rfft=False)
        assert kz.shape == (1, 1, 16)

    def test_fundamental_mode(self):
        kx, _, _ = fourier_grid(8, 100.0)
        assert kx[1, 0, 0] == pytest.approx(2 * np.pi / 100.0)

    def test_nyquist(self):
        _, _, kz = fourier_grid(8, 100.0)
        assert kz[0, 0, -1] == pytest.approx(np.pi * 8 / 100.0)

    @pytest.mark.parametrize(
        "bad", [(1, 100.0), (8, 0.0), (8, -5.0), (8, np.inf), (8, np.nan)]
    )
    def test_invalid_inputs(self, bad):
        with pytest.raises(ValueError):
            fourier_grid(*bad)


class TestGaussianRandomField:
    def test_field_is_real_and_mean_free(self):
        grf = GaussianRandomField(16, 100.0, lambda k: 0 * k + 10.0, seed=1)
        delta = grf.realize()
        assert delta.dtype == np.float64
        assert abs(delta.mean()) < 1e-12

    def test_reproducible(self):
        kwargs = dict(n=16, box_size=50.0, power=lambda k: 0 * k + 1.0)
        a = GaussianRandomField(seed=3, **kwargs).realize()
        b = GaussianRandomField(seed=3, **kwargs).realize()
        assert np.array_equal(a, b)

    def test_seed_changes_realization(self):
        kwargs = dict(n=16, box_size=50.0, power=lambda k: 0 * k + 1.0)
        a = GaussianRandomField(seed=3, **kwargs).realize()
        b = GaussianRandomField(seed=4, **kwargs).realize()
        assert not np.allclose(a, b)

    def test_power_spectrum_roundtrip(self, linear_power):
        """Estimator recovers the input spectrum within sample variance."""
        n, box = 32, 400.0
        grf = GaussianRandomField(n, box, lambda k: linear_power(k), seed=9)
        delta = grf.realize()
        ps = power_from_delta(delta, box)
        expected = linear_power(ps.k)
        # relative sample error per bin ~ sqrt(2/n_modes)
        err = np.sqrt(2.0 / ps.n_modes)
        pull = (ps.power - expected) / (expected * err)
        assert np.mean(np.abs(pull)) < 2.0

    def test_variance_scales_with_power(self):
        lo = GaussianRandomField(16, 50.0, lambda k: 0 * k + 1.0, seed=5)
        hi = GaussianRandomField(16, 50.0, lambda k: 0 * k + 4.0, seed=5)
        assert hi.realize().var() == pytest.approx(4 * lo.realize().var())

    def test_amplitude_zero_mode_removed(self):
        grf = GaussianRandomField(8, 10.0, lambda k: 0 * k + 1.0)
        assert grf.amplitude_k()[0, 0, 0] == 0.0

    def test_negative_power_clipped(self):
        grf = GaussianRandomField(8, 10.0, lambda k: 0 * k - 1.0, seed=0)
        assert np.all(np.isfinite(grf.realize()))

    @pytest.mark.parametrize(
        "bad", [(1, 100.0), (8, 0.0), (8, np.inf), (8, np.nan)]
    )
    def test_invalid_inputs(self, bad):
        with pytest.raises(ValueError):
            GaussianRandomField(*bad, lambda k: 0 * k + 1.0)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32])
    @pytest.mark.parametrize("box", [1.0, 100.0, 333.3])
    @pytest.mark.parametrize("power", ["linear", "negative", "signed"])
    def test_amplitude_octant_matches_full_grid(self, n, box, power):
        """The amplitude from one P(k) per distinct k^2 is byte for byte
        the full-grid formula, kept here as the oracle; negative powers
        are clipped to zero on both."""
        pk = {
            "linear": LinearPower(WMAP7),
            "negative": lambda k: 0 * k - 1.0,
            "signed": lambda k: np.sin(7.0 * k),
        }[power]
        kx, ky, kz = fourier_grid(n, box)
        kk = np.sqrt(kx * kx + ky * ky + kz * kz)
        with np.errstate(divide="ignore", invalid="ignore"):
            full = np.sqrt(np.maximum(pk(kk), 0.0) * n**3 / box**3)
        full[0, 0, 0] = 0.0
        assert np.array_equal(GaussianRandomField(n, box, pk).amplitude_k(), full)


class TestInitialConditions:
    def test_shapes_and_bounds(self):
        ics = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=25.0, seed=1
        )
        assert ics.positions.shape == (512, 3)
        assert ics.momenta.shape == (512, 3)
        assert np.all(ics.positions >= 0)
        assert np.all(ics.positions < 100.0)
        assert ics.a_init == pytest.approx(1 / 26)

    def test_displacements_small_at_high_z(self):
        ics = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=200.0, seed=1
        )
        spacing = 100.0 / 8
        lattice = np.arange(8) * spacing
        qx, qy, qz = np.meshgrid(lattice, lattice, lattice, indexing="ij")
        q = np.stack([qx.ravel(), qy.ravel(), qz.ravel()], axis=1)
        d = ics.positions - q
        d -= 100.0 * np.round(d / 100.0)
        assert np.sqrt((d**2).sum(1)).max() < spacing

    def test_momenta_scale_with_growth(self):
        """p = a^2 E f D psi: the z=200 start has much colder momenta."""
        hot = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=25.0, seed=2
        )
        cold = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=200.0, seed=2
        )
        assert cold.momenta.std() < hot.momenta.std()

    def test_ic_power_matches_linear_theory(self, linear_power):
        n, box = 32, 300.0
        ics = make_initial_conditions(
            WMAP7,
            n_per_dim=n,
            box_size=box,
            z_init=25.0,
            seed=11,
            power=linear_power,
        )
        ps = matter_power_spectrum(
            ics.positions, box, n, subtract_shot_noise=False
        )
        d = WMAP7.growth_factor(ics.a_init)
        expected = linear_power(ps.k) * d * d
        # compare the low-k third of the bins (Zel'dovich is linear there)
        m = len(ps.k) // 3
        ratio = ps.power[:m] / expected[:m]
        assert np.all(ratio > 0.6)
        assert np.all(ratio < 1.6)
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.2)

    def test_momenta_align_with_growing_mode(self):
        """Momenta parallel to displacements (growing mode, not decaying)."""
        ics = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=25.0, seed=3
        )
        spacing = 100.0 / 8
        lattice = np.arange(8) * spacing
        qx, qy, qz = np.meshgrid(lattice, lattice, lattice, indexing="ij")
        q = np.stack([qx.ravel(), qy.ravel(), qz.ravel()], axis=1)
        d = ics.positions - q
        d -= 100.0 * np.round(d / 100.0)
        cos = np.einsum("ij,ij->i", d, ics.momenta) / (
            np.linalg.norm(d, axis=1) * np.linalg.norm(ics.momenta, axis=1)
        )
        assert np.all(cos > 0.999)

    def test_2lpt_close_to_zeldovich_at_high_z(self):
        za = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=100.0, seed=4, order=1
        )
        two = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=100.0, seed=4, order=2
        )
        d = za.positions - two.positions
        d -= 100.0 * np.round(d / 100.0)
        # 2LPT correction is second order in the (tiny) displacement
        assert np.abs(d).max() < 0.05 * (100.0 / 8)

    def test_2lpt_differs_at_low_z(self):
        za = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=5.0, seed=4, order=1
        )
        two = make_initial_conditions(
            WMAP7, n_per_dim=8, box_size=100.0, z_init=5.0, seed=4, order=2
        )
        assert not np.allclose(za.positions, two.positions)

    @pytest.mark.parametrize("kwargs", [
        {"order": 3}, {"z_init": 0.0}, {"z_init": -1.0},
        {"z_init": np.nan}, {"z_init": np.inf},
        {"box_size": np.inf}, {"box_size": np.nan},
    ])
    def test_invalid_inputs(self, kwargs):
        base = dict(n_per_dim=8, box_size=100.0)
        with pytest.raises(ValueError):
            make_initial_conditions(WMAP7, **{**base, **kwargs})


def _lattice_ics_oracle(n, box, z_init, seed, order):
    """Zel'dovich/2LPT ICs by the full-grid formula: allocating
    ``irfftn``s, a ``meshgrid`` lattice, ``np.stack`` and one
    ``np.mod`` wrap."""
    a = 1.0 / (1.0 + z_init)
    pk = LinearPower(WMAP7)
    shape = (n, n, n)
    kx, ky, kz = fourier_grid(n, box)
    k2 = kx * kx + ky * ky + kz * kz
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.sqrt(np.maximum(pk(np.sqrt(k2)), 0.0) * n**3 / box**3)
        inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    amp[0, 0, 0] = 0.0
    w = np.random.default_rng(seed).standard_normal(shape)
    delta_k = np.fft.rfftn(w) * amp

    def displacement(field_k):
        base = field_k * inv_k2
        return np.stack([
            np.fft.irfftn(1j * kc * base, s=shape, axes=(0, 1, 2)).ravel()
            for kc in (kx, ky, kz)
        ], axis=1)

    d1 = float(WMAP7.growth_factor(a))
    f1 = float(WMAP7.growth_rate(a))
    e_a = float(WMAP7.efunc(a))
    disp = displacement(delta_k)
    lattice = np.arange(n, dtype=np.float64) * (box / n)
    q = np.meshgrid(lattice, lattice, lattice, indexing="ij")
    pos = np.stack([c.ravel() for c in q], axis=1) + d1 * disp
    mom = (a**2 * e_a * f1 * d1) * disp
    if order == 2:
        om_a = float(WMAP7.omega_m_a(a))
        d2 = -3.0 / 7.0 * d1 * d1 * om_a ** (-1.0 / 143.0)
        f2 = 2.0 * om_a ** (6.0 / 11.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_k = np.where(k2 > 0, -delta_k / np.where(k2 > 0, k2, 1.0), 0.0)
        kv = (kx, ky, kz)
        d = {
            (i, j): np.fft.irfftn(-kv[i] * kv[j] * phi_k, s=shape, axes=(0, 1, 2))
            for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
        }
        src = (
            d[0, 0] * d[1, 1] + d[0, 0] * d[2, 2] + d[1, 1] * d[2, 2]
            - d[0, 1] * d[0, 1] - d[0, 2] * d[0, 2] - d[1, 2] * d[1, 2]
        )
        disp2 = displacement(np.fft.rfftn(src))
        pos = pos + d2 * disp2
        mom = mom + (a**2 * e_a * f2 * d2) * disp2
    return np.mod(pos, box), mom


class TestICOracle:
    @pytest.mark.parametrize("backend", ["numpy", "c"])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n, box, z_init", [
        (8, 100.0, 25.0), (9, 64.0, 5.0), (16, 50.0, 1.0), (17, 30.0, 0.5),
    ])
    def test_ics_match_lattice_formula(self, backend, order, n, box, z_init):
        """Positions and momenta are byte for byte the full-grid formula,
        on either backend's stream pass; the late starts wrap particles
        across the faces."""
        try:
            get_backend(backend)
        except BackendUnavailable:
            pytest.skip("no working C compiler")
        ics = make_initial_conditions(
            WMAP7, n_per_dim=n, box_size=box, z_init=z_init, seed=5,
            order=order, kernel_backend=backend,
        )
        pos, mom = _lattice_ics_oracle(n, box, z_init, 5, order)
        assert ics.positions.tobytes() == pos.tobytes()
        assert ics.momenta.tobytes() == mom.tobytes()
