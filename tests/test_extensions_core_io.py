"""Tests for the Layzer-Irvine monitor and checkpointing — the paper's
production features."""

import numpy as np
import pytest

from repro import HACCSimulation, SimulationConfig
from repro.core.diagnostics import LayzerIrvineMonitor
from repro.core.particles import Particles
from repro.grid.poisson import SpectralPoissonSolver
from repro.io.checkpoint import load_checkpoint, save_checkpoint


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
