"""Ablation A4 — particle overloading depth.

"The typical memory overhead cost for a large run is ~10%" (Section II).
The overhead is pure geometry: ``prod (w_i + 2d)/w_i - 1`` for rank-domain
widths w and depth d.  This bench (a) measures the realized replica
fraction against the geometric prediction across depths, (b) evaluates
the production-geometry bookkeeping behind the ~10% claim, and (c) shows
the correctness cliff: with depth below the force cutoff, rank-local
forces near boundaries become wrong.
"""

import numpy as np
import pytest

from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.overload import OverloadExchange
from repro.shortrange.grid_force import default_grid_force_fit
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import TreePMShortRange, periodic_ghosts

from conftest import print_table


class TestOverloadAblation:
    def test_memory_overhead_vs_depth(self, benchmark):
        box = 100.0
        decomp = DomainDecomposition(box, (2, 2, 2))
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, box, (30000, 3))
        mom = np.zeros_like(pos)

        def sweep():
            out = {}
            for depth in (2.0, 5.0, 10.0, 20.0):
                ex = OverloadExchange(decomp, depth)
                domains = ex.distribute(pos, mom)
                passive = sum(d.n_passive for d in domains)
                out[depth] = passive / pos.shape[0]
            return out

        fractions = benchmark.pedantic(sweep, rounds=1, iterations=1)
        rows = []
        for depth, frac in fractions.items():
            geo = decomp.overload_volume_factor(depth) - 1.0
            rows.append([depth, f"{100 * frac:.1f}%", f"{100 * geo:.1f}%"])
            assert frac == pytest.approx(geo, rel=0.10)
        print_table(
            "overload replica overhead vs depth (50 Mpc/h domains)",
            ["depth [Mpc/h]", "measured", "geometric"],
            rows,
        )

    def test_production_overhead_is_ten_percent(self, benchmark):
        """The paper's bookkeeping: a large run (Table II row 1 geometry,
        ~113-227 Mpc domains) with an overload depth of ~4 grid cells
        (covering rcut + drift) costs ~10% extra particles."""

        def production():
            decomp = DomainDecomposition(1814.0, (16, 8, 16))
            depth = 3.0 * 1814.0 / 1600.0  # rcut = 3 grid cells
            return decomp.overload_volume_factor(depth) - 1.0

        overhead = benchmark(production)
        print(f"\nproduction-geometry overload overhead: "
              f"{100 * overhead:.1f}% (paper: ~10%)")
        assert 0.05 < overhead < 0.20  # same ballpark as the paper's ~10%

    def test_insufficient_depth_breaks_forces(self, benchmark):
        """Depth below rcut loses boundary sources: the rank-local force
        near domain edges deviates from the global answer — why the
        refresh cadence and depth are tied to the force cutoff."""
        box = 64.0
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, box, (1500, 3))
        masses = np.ones(1500)
        fit = default_grid_force_fit()
        kernel = ShortRangeKernel(fit, spacing=box / 16)  # rcut = 12
        solver = TreePMShortRange(kernel, leaf_size=32)
        reference = solver.accelerations_cloud(
            *periodic_ghosts(pos, masses, box, kernel.rcut), len(pos)
        )
        decomp = DomainDecomposition(box, (2, 1, 1))

        def worst_error(depth):
            ex = OverloadExchange(decomp, depth)
            domains = ex.distribute(pos, np.zeros_like(pos))
            err = 0.0
            for dom in domains:  # actives first, as routed
                local = solver.accelerations_cloud(
                    dom.positions, dom.masses, dom.n_active
                )
                scale = np.abs(reference).max()
                err = max(
                    err,
                    float(
                        np.abs(local - reference[dom.ids[:dom.n_active]]).max()
                        / scale
                    ),
                )
            return err

        errors = benchmark.pedantic(
            lambda: {d: worst_error(d) for d in (4.0, 12.5)},
            rounds=1,
            iterations=1,
        )
        print(f"\nrelative force error: depth 4 (< rcut): "
              f"{errors[4.0]:.3f}; depth 12.5 (> rcut): {errors[12.5]:.2e}")
        assert errors[12.5] < 1e-10
        assert errors[4.0] > 1e-3
