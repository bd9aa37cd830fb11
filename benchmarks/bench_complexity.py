"""Algorithmic complexity of the reproduction's own solvers (Section II).

The paper states the complexity menu: PM is ``O(Np) + O(Ng log Ng)``,
the RCB tree with fat leaves is ``O(Npl)`` (per local domain), and the
close-range direct sums are ``O(Nd^2)`` inside leaves.  This bench
measures the empirical scaling exponents of this implementation's
solvers over a geometric ladder of problem sizes and asserts they sit in
the expected windows — a regression gate against accidentally
quadratic code paths.
"""

import time

import numpy as np
import pytest

from repro.grid.poisson import SpectralPoissonSolver
from repro.shortrange.grid_force import default_grid_force_fit
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import (
    DirectShortRange,
    TreePMShortRange,
    periodic_ghosts,
)

from conftest import print_table


def _fit_exponent(ns, times) -> float:
    """Least-squares slope of log t vs log n."""
    return float(np.polyfit(np.log(ns), np.log(times), 1)[0])


def _time(fn, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestComplexity:
    def test_pm_solver_near_linear(self, benchmark, rng):
        """Full PM accelerations: O(Np) deposit/interp + O(Ng log Ng)
        FFTs; with Ng ~ Np the measured exponent is ~1."""

        def sweep():
            out = {}
            for n_grid, npart in ((16, 4096), (24, 13824), (32, 32768), (48, 110592)):
                solver = SpectralPoissonSolver(n_grid, 100.0)
                pos = rng.uniform(0, 100.0, (npart, 3))
                out[npart] = _time(lambda: solver.accelerations(pos))
            return out

        times = benchmark.pedantic(sweep, rounds=1, iterations=1)
        ns = np.array(list(times))
        ts = np.array(list(times.values()))
        slope = _fit_exponent(ns, ts)
        print_table(
            "PM solver scaling",
            ["N", "seconds"],
            [[n, f"{t:.4f}"] for n, t in times.items()],
        )
        print(f"measured exponent: {slope:.2f} (expect ~1.0-1.3)")
        assert 0.7 < slope < 1.5

    def test_treepm_subquadratic(self, benchmark, rng):
        """RCB TreePM at fixed density and fixed rcut: per-particle work
        is bounded, so total work is ~O(N) — far from the O(N^2) of the
        direct method."""
        fit = default_grid_force_fit()

        def sweep():
            out = {}
            for npart, box in ((512, 16.0), (1728, 24.0), (4096, 32.0)):
                # same mean density; kernel spacing fixed at 1 cell
                kernel = ShortRangeKernel(fit, spacing=1.0)
                solver = TreePMShortRange(kernel, leaf_size=48)
                pos = rng.uniform(0, box, (npart, 3))
                m = np.ones(npart)
                out[npart] = _time(
                    lambda s=solver, p=pos, mm=m, b=box: s.accelerations_cloud(
                        *periodic_ghosts(p, mm, b, s.kernel.rcut), len(p)
                    ),
                    repeats=2,
                )
            return out

        times = benchmark.pedantic(sweep, rounds=1, iterations=1)
        slope = _fit_exponent(
            np.array(list(times)), np.array(list(times.values()))
        )
        print_table(
            "TreePM scaling at fixed density",
            ["N", "seconds"],
            [[n, f"{t:.4f}"] for n, t in times.items()],
        )
        print(f"measured exponent: {slope:.2f} (expect ~1, must be << 2)")
        assert slope < 1.6

    def test_direct_quadratic(self, benchmark, rng):
        """The O(N^2) reference really is quadratic once the interaction
        volume saturates (everything inside rcut)."""
        fit = default_grid_force_fit()

        def sweep():
            out = {}
            for npart in (256, 512, 1024, 2048):
                kernel = ShortRangeKernel(fit, spacing=2.0)  # rcut 6
                solver = DirectShortRange(kernel)
                pos = rng.uniform(0, 4.0, (npart, 3))  # all within rcut
                m = np.ones(npart)
                out[npart] = _time(
                    lambda s=solver, p=pos, mm=m: s.accelerations(p, mm),
                    repeats=2,
                )
            return out

        times = benchmark.pedantic(sweep, rounds=1, iterations=1)
        slope = _fit_exponent(
            np.array(list(times)), np.array(list(times.values()))
        )
        print_table(
            "direct summation scaling (saturated rcut)",
            ["N", "seconds"],
            [[n, f"{t:.4f}"] for n, t in times.items()],
        )
        print(f"measured exponent: {slope:.2f} (expect ~2)")
        assert slope > 1.6

    def test_fft_n_log_n(self, benchmark):
        """The spectral solve is Ng log Ng — the term that anchors weak
        scaling to the FFT (Section II's closing claim)."""

        def sweep():
            out = {}
            for n in (32, 48, 64, 96):
                solver = SpectralPoissonSolver(n, 100.0)
                rng = np.random.default_rng(0)
                delta = rng.standard_normal((n, n, n))
                out[n**3] = _time(lambda: solver.force_grids(delta))
            return out

        times = benchmark.pedantic(sweep, rounds=1, iterations=1)
        slope = _fit_exponent(
            np.array(list(times)), np.array(list(times.values()))
        )
        print(f"\nFFT force-grid exponent vs Ng: {slope:.2f} "
              "(expect ~1 with log corrections)")
        assert 0.8 < slope < 1.5
