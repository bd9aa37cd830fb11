"""Tests for the Layzer-Irvine monitor, checkpointing and the multi-tree
solver — the paper's future-work / production features."""

import numpy as np
import pytest

from repro import HACCSimulation, SimulationConfig
from repro.core.diagnostics import LayzerIrvineMonitor
from repro.core.particles import Particles
from repro.grid.poisson import SpectralPoissonSolver
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.multitree import MultiTreeShortRange, rcb_blocks
from repro.shortrange.solvers import TreePMShortRange


class TestLayzerIrvine:
    def _run(self, n_steps=12, subtract_self=False):
        cfg = SimulationConfig(
            box_size=100.0,
            n_per_dim=16,
            z_initial=25.0,
            z_final=2.0,
            n_steps=n_steps,
            backend="pm",
            seed=4,
            step_spacing="loga",
        )
        sim = HACCSimulation(cfg)
        mon = LayzerIrvineMonitor(
            sim.poisson,
            cfg.cosmology.omega_m,
            subtract_self_energy=subtract_self,
        )
        mon.record(sim.particles, sim.a)
        sim.run(callback=lambda s: mon.record(s.particles, s.a))
        return mon

    def test_free_streaming_conserves_exactly(self):
        """With no forces T ~ a^-2 satisfies LI identically (U = 0 for a
        uniform lattice); the monitor residual reflects only quadrature."""
        from repro.core.timestepper import SubcycledStepper
        from repro.cosmology import WMAP7

        n = 8
        g = np.arange(n) * (100.0 / n)
        lattice = np.stack(
            np.meshgrid(g, g, g, indexing="ij"), -1
        ).reshape(-1, 3)
        parts = Particles(
            lattice.copy(),
            0.01 * np.ones((n**3, 3)),  # uniform bulk flow: U stays ~0
            np.ones(n**3),
            np.arange(n**3),
            100.0,
        )
        solver = SpectralPoissonSolver(8, 100.0)
        mon = LayzerIrvineMonitor(solver, WMAP7.omega_m)
        stepper = SubcycledStepper(
            WMAP7, lambda p: np.zeros_like(p), None, 1
        )
        edges = np.linspace(0.1, 0.5, 201)
        mon.record(parts, edges[0])
        for a0, a1 in zip(edges[:-1], edges[1:]):
            stepper.stream(parts, a0, a1)  # uniform translation
            parts.momenta *= 1.0
            mon.record(parts, a1)
        assert abs(mon.relative_residual()) < 1e-3

    def test_energies_have_physical_signs(self):
        mon = self._run()
        final = mon.states[-1]
        assert final.kinetic > 0
        assert final.potential < 0

    def test_kinetic_energy_grows(self):
        """Infall converts potential to kinetic energy as structure forms."""
        mon = self._run()
        t_vals = [s.kinetic for s in mon.states]
        assert t_vals[-1] > t_vals[0]

    def test_residual_within_discretization_floor(self):
        """The PM force is not the exact gradient of the measured field
        energy (spectral vs CIC-weight gradients), leaving a
        discretization floor; the residual must stay within ~15% of the
        integrated energy flux."""
        mon = self._run()
        assert abs(mon.relative_residual()) < 0.15

    def test_pairwise_variant_also_bounded(self):
        mon = self._run(subtract_self=True)
        assert abs(mon.relative_residual()) < 0.15
        # pairwise potential is much smaller than the field energy
        field = self._run()
        assert abs(mon.states[-1].potential) < abs(
            field.states[-1].potential
        )

    def test_detects_broken_dynamics(self):
        """Diagnostic power: doubling the force prefactor mid-analysis
        (energies bookkept with the wrong omega_m) blows the residual up."""
        cfg = SimulationConfig(
            box_size=100.0,
            n_per_dim=16,
            z_initial=25.0,
            z_final=2.0,
            n_steps=12,
            backend="pm",
            seed=4,
            step_spacing="loga",
        )
        sim = HACCSimulation(cfg)
        good = LayzerIrvineMonitor(sim.poisson, cfg.cosmology.omega_m)
        bad = LayzerIrvineMonitor(sim.poisson, 3.0 * cfg.cosmology.omega_m)
        good.record(sim.particles, sim.a)
        bad.record(sim.particles, sim.a)

        def cb(s):
            good.record(s.particles, s.a)
            bad.record(s.particles, s.a)

        sim.run(callback=cb)
        assert abs(bad.relative_residual()) > 2 * abs(
            good.relative_residual()
        )

    def test_needs_two_states(self):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=8, backend="pm")
        sim = HACCSimulation(cfg)
        mon = LayzerIrvineMonitor(sim.poisson, 0.25)
        mon.record(sim.particles, sim.a)
        with pytest.raises(RuntimeError):
            mon.residual()

    def test_measure_validates_a(self):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=8, backend="pm")
        sim = HACCSimulation(cfg)
        mon = LayzerIrvineMonitor(sim.poisson, 0.25)
        with pytest.raises(ValueError):
            mon.measure(sim.particles, 0.0)


class TestCheckpoint:
    def _config(self):
        return SimulationConfig(
            box_size=64.0,
            n_per_dim=8,
            z_initial=25.0,
            z_final=5.0,
            n_steps=4,
            backend="pm",
            seed=9,
        )

    def test_resume_is_bitwise_identical(self, tmp_path):
        """Checkpoint mid-run, resume, and match the uninterrupted run."""
        a = HACCSimulation(self._config())
        a.step()
        a.step()
        path = save_checkpoint(tmp_path / "ckpt", a)
        b = load_checkpoint(path)
        a.run()
        b.run()
        assert np.array_equal(a.particles.positions, b.particles.positions)
        assert np.array_equal(a.particles.momenta, b.particles.momenta)
        assert a.a == b.a

    def test_config_round_trips(self, tmp_path):
        sim = HACCSimulation(self._config())
        path = save_checkpoint(tmp_path / "c", sim)
        restored = load_checkpoint(path)
        assert restored.config == sim.config
        assert restored.config.cosmology.omega_m == pytest.approx(0.265)

    def test_step_index_preserved(self, tmp_path):
        sim = HACCSimulation(self._config())
        sim.step()
        path = save_checkpoint(tmp_path / "c", sim)
        restored = load_checkpoint(path)
        assert restored._step_index == 1
        assert restored.a == pytest.approx(sim.a)


class TestMultiTree:
    def test_rcb_blocks_partition(self, rng):
        pos = rng.uniform(0, 10, (1000, 3))
        blocks = rcb_blocks(pos, np.ones(1000), 8)
        assert len(blocks) == 8
        combined = np.concatenate(blocks)
        assert np.array_equal(np.sort(combined), np.arange(1000))

    def test_rcb_blocks_balanced_even_when_clustered(self, rng):
        """Median splits equalize counts regardless of clustering —
        the load-balance motivation."""
        pos = np.concatenate(
            [
                rng.standard_normal((900, 3)) * 0.2 + 2.0,
                rng.uniform(0, 10, (100, 3)),
            ]
        )
        blocks = rcb_blocks(pos, np.ones(1000), 4)
        counts = np.array([b.size for b in blocks])
        assert counts.max() - counts.min() <= 1

    def test_blocks_validation(self, rng):
        pos = rng.uniform(0, 1, (10, 3))
        with pytest.raises(ValueError):
            rcb_blocks(pos, np.ones(10), 3)  # not a power of two
        with pytest.raises(ValueError):
            rcb_blocks(pos, np.ones(10), 0)

    @pytest.mark.parametrize("n_trees", [1, 2, 4, 8])
    def test_matches_single_tree(self, grid_force_fit, rng, n_trees):
        pos = rng.uniform(0, 12.0, (500, 3))
        m = rng.uniform(0.5, 1.5, 500)
        ref = TreePMShortRange(
            ShortRangeKernel(grid_force_fit, 1.0), leaf_size=24
        ).accelerations(pos, m, box_size=12.0)
        multi = MultiTreeShortRange(
            ShortRangeKernel(grid_force_fit, 1.0),
            leaf_size=24,
            n_trees=n_trees,
        ).accelerations(pos, m, box_size=12.0)
        assert np.allclose(ref, multi, atol=1e-11)

    def test_balance_report(self, grid_force_fit, rng):
        solver = MultiTreeShortRange(
            ShortRangeKernel(grid_force_fit, 1.0), leaf_size=16, n_trees=4
        )
        # clustered cloud: single tree would have wildly uneven subtrees
        pos = np.concatenate(
            [
                rng.standard_normal((800, 3)) * 0.4 + 5.0,
                rng.uniform(0, 12.0, (200, 3)),
            ]
        )
        solver.accelerations(np.mod(pos, 12.0), np.ones(1000), box_size=12.0)
        report = solver.last_balance_report()
        assert report["blocks"] == 4
        assert report["build_imbalance"] < 1.3

    def test_report_requires_evaluation(self, grid_force_fit):
        solver = MultiTreeShortRange(ShortRangeKernel(grid_force_fit, 1.0))
        with pytest.raises(RuntimeError):
            solver.last_balance_report()

    def test_constructor_validation(self, grid_force_fit):
        k = ShortRangeKernel(grid_force_fit, 1.0)
        with pytest.raises(ValueError):
            MultiTreeShortRange(k, n_trees=3)
        with pytest.raises(ValueError):
            MultiTreeShortRange(k, leaf_size=0)
