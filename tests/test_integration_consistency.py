"""Cross-module consistency checks: independent code paths that must
agree with each other (Fourier pairs, model overlaps, determinism)."""

import numpy as np
import pytest

from repro.analysis.power import matter_power_spectrum, power_from_delta
from repro.cosmology import WMAP7, LinearPower
from repro.cosmology.gaussian_field import GaussianRandomField
from repro.cosmology.halofit import HalofitPower
from repro.machine import DistributedFFTModel, ForceKernelModel, FullCodeModel
from repro.machine.paper_data import FULLCODE_TIME_SPLIT


class TestFourierPair:
    def test_power_estimator_inverts_generator(self):
        """Generator conventions and estimator conventions are exact
        inverses (tight version of the round-trip property)."""
        n, box = 32, 100.0
        target = lambda k: 50.0 * np.exp(-((k - 0.5) ** 2) / 0.02)
        grf = GaussianRandomField(n, box, target, seed=3)
        ps = power_from_delta(grf.realize(), box)
        sel = (ps.k > 0.35) & (ps.k < 0.65) & (ps.n_modes > 100)
        pull = (ps.power[sel] - target(ps.k[sel])) / (
            target(ps.k[sel]) * np.sqrt(2.0 / ps.n_modes[sel])
        )
        assert np.abs(pull).mean() < 2.0


class TestModelOverlaps:
    def test_kernel_model_consistent_with_fullcode_peak(self):
        """The full-code %peak (~69.5) decomposes into the kernel
        model's plateau efficiency times the 80% kernel-time share plus
        small non-kernel contributions — the two models must not
        contradict each other."""
        kernel = ForceKernelModel()
        plateau = float(kernel.peak_fraction(2500.0, 16, 4))
        kernel_share = FULLCODE_TIME_SPLIT["kernel"]
        lower = plateau * kernel_share
        headline = FullCodeModel.calibrated().headline()
        model_peak = headline["model_peak_percent"] / 100.0
        assert lower < model_peak < lower + 0.15

    def test_fft_model_consistent_with_time_split(self):
        """Sanity across models: at the Table II operating point the
        FFT model's long-range cost is a small fraction of the full-code
        substep time, consistent with the 5% share (order of
        magnitude — the models were calibrated on different tables)."""
        full = FullCodeModel.calibrated()
        fft = DistributedFFTModel.calibrated()
        # Table II row 1: 2048 ranks, 1600^3 grid, 2M particles/rank
        substep = full.c0 / 2048 * 1600**3  # seconds per substep, whole run
        # one Poisson solve = 4 FFTs, amortized over ~5 substeps
        lr_per_substep = 4 * fft.time(1600, 2048) / 5
        share = lr_per_substep / substep
        assert 0.005 < share < 0.5

    def test_halofit_vs_linear_at_bao_scales(self):
        """HALOFIT must preserve the BAO feature at quasi-linear k
        (survey science depends on it)."""
        lin = LinearPower(WMAP7)
        nl = HalofitPower(lin)
        k = np.linspace(0.05, 0.25, 60)
        ratio = nl(k) / lin(k)
        # smooth, near-unity modulation — no spurious features
        assert np.all(ratio > 0.9)
        assert np.all(ratio < 1.6)
        assert np.abs(np.diff(ratio)).max() < 0.05


class TestEndToEndDeterminism:
    @pytest.mark.slow
    def test_full_stack_is_reproducible(self):
        """Same config => bitwise identical particles, spectra, halos —
        the property every regression above relies on."""
        from repro import HACCSimulation, SimulationConfig
        from repro.analysis import fof_halos

        cfg = SimulationConfig(
            box_size=64.0,
            n_per_dim=12,
            z_initial=25.0,
            z_final=3.0,
            n_steps=5,
            backend="treepm",
            seed=123,
            step_spacing="loga",
        )
        runs = []
        for _ in range(2):
            sim = HACCSimulation(cfg)
            sim.run()
            ps = matter_power_spectrum(
                sim.particles.positions, 64.0, 12, subtract_shot_noise=False
            )
            cat = fof_halos(sim.particles.positions, 64.0, b=0.25,
                            min_members=5)
            runs.append((sim.particles.positions.copy(), ps.power,
                         cat.sizes.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert np.array_equal(runs[0][2], runs[1][2])
