"""Tests for the grid-force measurement / polynomial-fit pipeline."""

import inspect
import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro.shortrange.grid_force as grid_force
from repro.config import ConfigError, SimulationConfig
from repro.grid.filters import NOMINAL_NS, NOMINAL_SIGMA
from repro.shortrange.grid_force import (
    NOMINAL_FITS,
    NOMINAL_RCUT_CELLS,
    GridForceFit,
    default_grid_force_fit,
    fit_grid_force,
    measure_grid_force,
    pair_force_normalization,
)

NOMINAL_KEY = (NOMINAL_SIGMA, NOMINAL_NS, NOMINAL_RCUT_CELLS, 32)


class TestNormalization:
    def test_value(self):
        # V / (4 pi Np)
        assert pair_force_normalization(10.0, 1000) == pytest.approx(
            1000.0 / (4 * np.pi * 1000)
        )

    def test_rejects_zero_particles(self):
        with pytest.raises(ValueError):
            pair_force_normalization(10.0, 0)


class TestMeasurement:
    @pytest.fixture(scope="class")
    def samples(self):
        return measure_grid_force(
            32, n_sources=8, n_samples_per_source=200, seed=5
        )

    def test_sample_counts(self, samples):
        s, fr, ft = samples
        assert s.shape == fr.shape == ft.shape == (1600,)

    def test_newtonian_asymptotics(self, samples):
        """Normalized grid force approaches s^{-3/2} at ~3+ cells."""
        s, fr, _ = samples
        far = (s > 9.0) & (s < 20.0)
        ratio = fr[far] * s[far] ** 1.5
        assert np.median(ratio) == pytest.approx(1.0, abs=0.05)

    def test_short_distance_suppression(self, samples):
        """The filtered grid force is strongly suppressed vs Newton below
        one cell — that deficit IS the short-range force."""
        s, fr, _ = samples
        near = s < 0.5
        assert np.all(fr[near] < 0.5 * s[near] ** -1.5)

    def test_anisotropy_noise_small(self, samples):
        """Transverse component (anisotropy noise) is small relative to
        the radial force — the filter's purpose."""
        s, fr, ft = samples
        mid = (s > 1.0) & (s < 9.0)
        assert np.median(ft[mid] / np.abs(fr[mid])) < 0.1

    def test_filter_reduces_anisotropy(self):
        """Section II: the filter strongly suppresses CIC anisotropy
        noise.  At sub-cell separations (where the anisotropy is worst)
        the transverse force component drops by several-fold even against
        a baseline that already uses the 6th-order influence function;
        the ablation bench maps the full profile."""
        kwargs = dict(n_sources=6, n_samples_per_source=300, seed=7)
        s_f, _, ft_f = measure_grid_force(32, sigma=0.8, ns=3, **kwargs)
        s_r, _, ft_r = measure_grid_force(32, sigma=0.0, ns=0, **kwargs)

        def noise(s, ft):
            sel = s < 1.0
            return np.median(ft[sel])

        assert noise(s_f, ft_f) < 0.25 * noise(s_r, ft_r)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            measure_grid_force(8)

    def test_rmax_vs_grid_checked(self):
        with pytest.raises(ValueError):
            measure_grid_force(16, r_max_cells=8.0)


class TestFit:
    def test_default_fit_properties(self, grid_force_fit):
        assert grid_force_fit.rcut_cells == 3.0
        assert len(grid_force_fit.coefficients) == 6
        assert grid_force_fit.rms_residual < 0.05

    def test_polynomial_evaluation_horner(self):
        fit = GridForceFit((1.0, 2.0, 3.0), 3.0, 0.8, 3, 0.0)
        assert float(fit(2.0)) == pytest.approx(1 + 4 + 12)

    def test_short_range_vanishes_beyond_cutoff(self, grid_force_fit):
        s = np.array([9.1, 16.0, 100.0])
        assert np.all(grid_force_fit.short_range(s) == 0.0)

    def test_short_range_positive_inside(self, grid_force_fit):
        s = np.array([0.25, 1.0, 4.0])
        assert np.all(grid_force_fit.short_range(s) > 0)

    def test_short_range_small_at_handover(self, grid_force_fit):
        """f_SR is a tiny fraction of Newton at the 3-cell handover."""
        s = 8.9
        newton = s**-1.5
        assert grid_force_fit.short_range(s) < 0.05 * newton

    def test_short_range_newtonian_at_small_s(self, grid_force_fit):
        s = 0.01
        assert grid_force_fit.short_range(s) == pytest.approx(
            s**-1.5, rel=0.01
        )

    def test_fit_requires_samples_inside_cut(self):
        with pytest.raises(ValueError):
            fit_grid_force(np.array([100.0, 200.0]), np.array([0.1, 0.2]))

    def test_fit_reproduces_measurement(self):
        s, fr, _ = measure_grid_force(
            32, n_sources=8, n_samples_per_source=200, seed=5
        )
        fit = fit_grid_force(s, fr)
        inside = s < 8.0
        resid = fit(s[inside]) - fr[inside]
        assert np.sqrt(np.mean(resid**2)) < 0.05

    def test_cache_returns_same_object(self):
        a = default_grid_force_fit()
        b = default_grid_force_fit()
        assert a is b

    def test_fit_rejects_a_cutoff_beyond_the_samples(self):
        """A cutoff past the farthest sample would extrapolate the
        polynomial (at 6 cells it gave a short-range force hundreds of
        times Newton's near the cut), so the fit refuses it."""
        s, fr, _ = measure_grid_force(
            32, n_sources=4, n_samples_per_source=100, seed=5
        )
        with pytest.raises(ValueError, match="rcut_cells"):
            fit_grid_force(s, fr, rcut_cells=6.0)

    def test_config_rejects_a_cutoff_beyond_the_sampled_range(self):
        """The config bound is the measurement's sampled range."""
        r_max = inspect.signature(measure_grid_force).parameters[
            "r_max_cells"
        ].default
        base = dict(box_size=256.0, n_per_dim=64)
        assert SimulationConfig(**base, rcut_cells=r_max).rcut_cells == r_max
        with pytest.raises(ConfigError, match="rcut_cells"):
            SimulationConfig(**base, rcut_cells=6.0)


class TestNominalTable:
    """The nominal fit is a committed table, made offline (Sec. II)."""

    def test_table_matches_a_fresh_measurement(self):
        """Re-measure the nominal fit: within 1e-12 relative on any host,
        bit for bit where the host reproduces the committed literals.
        Either way a mismatch prints the fresh literals to paste into
        ``NOMINAL_FITS`` after a deliberate solver change."""
        s, fr, _ = measure_grid_force()
        fresh = fit_grid_force(s, fr)
        table = NOMINAL_FITS[NOMINAL_KEY]
        literals = "\n".join(
            [f'"{c.hex()}",' for c in fresh.coefficients]
            + [f'rms_residual=float.fromhex("{fresh.rms_residual.hex()}")']
        )
        np.testing.assert_allclose(
            table.coefficients, fresh.coefficients, rtol=1e-12, atol=0,
            err_msg=f"re-measured nominal fit:\n{literals}",
        )
        assert table.rms_residual == pytest.approx(
            fresh.rms_residual, rel=1e-9
        ), literals
        assert (table.rcut_cells, table.sigma, table.ns) == (
            fresh.rcut_cells, fresh.sigma, fresh.ns,
        )
        if table != fresh:
            warnings.warn(
                "nominal grid-force fit re-measures within tolerance but "
                f"not bit for bit on this host:\n{literals}",
                stacklevel=1,
            )

    def test_nominal_key_measures_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the nominal fit must not be measured")

        monkeypatch.setattr(grid_force, "measure_grid_force", refuse)
        fit = default_grid_force_fit.__wrapped__()
        assert fit is NOMINAL_FITS[NOMINAL_KEY]
        assert default_grid_force_fit.__wrapped__(0.8, 3, 3.0) is fit

    def test_other_key_still_measures(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return measure_grid_force(*args, **kwargs)

        monkeypatch.setattr(grid_force, "measure_grid_force", spy)
        fit = default_grid_force_fit.__wrapped__(sigma=0.7)
        assert calls == [{"sigma": 0.7, "ns": NOMINAL_NS}]
        assert fit.sigma == 0.7
        nominal = NOMINAL_FITS[NOMINAL_KEY]
        assert fit.coefficients != nominal.coefficients
        assert fit.rms_residual < 0.05

    def test_plain_treepm_run_measures_nothing(self, tmp_path):
        """A plain treepm run at the nominal filter reads the table: it
        exits 0 with ``measure_grid_force`` made to raise."""
        code = (
            "import repro.shortrange.grid_force as g\n"
            "def refuse(*a, **k):\n"
            "    raise AssertionError('measured the nominal fit')\n"
            "g.measure_grid_force = refuse\n"
            "from repro.__main__ import main\n"
            "raise SystemExit(main(['-q', 'run', '--steps', '1', "
            "'--n-per-dim', '8', '--backend', 'treepm', '--outdir', "
            f"{str(tmp_path)!r}]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
