"""Tests for the HACCSimulation driver (wiring, not physics accuracy —
the physics lives in the integration tests)."""

import numpy as np
import pytest

from repro.config import ConfigError, SimulationConfig
from repro.core.particles import Particles
from repro.core.simulation import HACCSimulation


def small_config(**kwargs):
    base = dict(
        box_size=64.0,
        n_per_dim=8,
        z_initial=25.0,
        z_final=10.0,
        n_steps=2,
        backend="pm",
        seed=5,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


class TestSetup:
    def test_generates_ics_by_default(self):
        sim = HACCSimulation(small_config())
        assert sim.particles.n == 512
        assert sim.a == pytest.approx(1 / 26)

    def test_accepts_prebuilt_particles(self):
        p = Particles.uniform_random(100, 64.0, seed=1)
        sim = HACCSimulation(small_config(), particles=p)
        assert sim.particles is p

    def test_box_mismatch_rejected(self):
        p = Particles.uniform_random(10, 32.0)
        with pytest.raises(ValueError):
            HACCSimulation(small_config(), particles=p)

    def test_pm_backend_has_no_kernel(self):
        sim = HACCSimulation(small_config(backend="pm"))
        assert sim.kernel is None
        assert sim.short_solver is None

    @pytest.mark.parametrize("backend", ["treepm", "p3m", "direct"])
    def test_short_range_backends_constructed(self, backend):
        sim = HACCSimulation(small_config(backend=backend, n_per_dim=8))
        assert sim.short_solver is not None
        assert sim.kernel.rcut == pytest.approx(3 * 64.0 / 8)

    def test_prefactor(self):
        sim = HACCSimulation(small_config())
        assert sim.prefactor == pytest.approx(1.5 * 0.265)


class TestEvolution:
    def test_run_reaches_final_redshift(self):
        sim = HACCSimulation(small_config())
        sim.run()
        assert sim.a == pytest.approx(1 / 11)
        assert sim.redshift == pytest.approx(10.0, rel=1e-10)

    def test_step_beyond_end_raises(self):
        sim = HACCSimulation(small_config(n_steps=1))
        sim.step()
        with pytest.raises(RuntimeError):
            sim.step()

    def test_callback_invoked_per_step(self):
        sim = HACCSimulation(small_config(n_steps=3))
        seen = []
        sim.run(callback=lambda s: seen.append(s.a))
        assert len(seen) == 3
        assert seen[-1] == pytest.approx(sim.a)

    def test_structure_grows(self):
        """Density variance increases monotonically during evolution."""
        sim = HACCSimulation(
            small_config(n_per_dim=16, z_final=3.0, n_steps=6)
        )
        v0 = sim.density_contrast().var()
        sim.run()
        v1 = sim.density_contrast().var()
        assert v1 > 2.0 * v0

    def test_timings_populated(self):
        """Per-force timings live in the registry's spans only."""
        from repro.instrument.registry import Registry, name_self_times, use

        sim = HACCSimulation(small_config())
        reg = Registry()
        with use(reg):
            sim.run()
        assert name_self_times(reg.events)["longrange"]["total_s"] > 0
        assert not hasattr(sim, "timings")

    def test_interaction_count_pm_zero(self):
        sim = HACCSimulation(small_config())
        sim.run()
        assert sim.interaction_count() == 0

    def test_interaction_count_treepm_positive(self):
        sim = HACCSimulation(
            small_config(backend="treepm", n_per_dim=8, n_steps=1)
        )
        sim.run()
        assert sim.interaction_count() > 0

    def test_deterministic_given_seed(self):
        a = HACCSimulation(small_config())
        b = HACCSimulation(small_config())
        a.run()
        b.run()
        assert np.array_equal(a.particles.positions, b.particles.positions)

    def test_seed_changes_evolution(self):
        a = HACCSimulation(small_config(seed=1))
        b = HACCSimulation(small_config(seed=2))
        a.run()
        b.run()
        assert not np.allclose(a.particles.positions, b.particles.positions)


class TestOverloadedShortRange:
    def test_matches_single_rank_path(self):
        """Rank-local forces over overloaded domains equal the global
        periodic-ghost evaluation — the paper's 'essentially exact'
        overloading claim."""
        cfg = small_config(backend="treepm", n_per_dim=16, box_size=64.0)
        single = HACCSimulation(cfg)
        multi = HACCSimulation(
            cfg,
            decomposition_dims=(2, 1, 1),
            overload_depth=cfg.rcut() + 0.5,
        )
        pos = single.particles.positions
        a1 = single._short_range(pos)
        a2 = multi._short_range(pos)
        assert np.allclose(a1, a2, atol=1e-10)

    def test_overload_depth_without_decomposition_sizes_one_domain(self):
        """An undecomposed run is one (1, 1, 1) domain at depth rcut: a
        depth sizes its shell, and one below the cutoff is rejected as
        on any decomposition."""
        cfg = small_config(backend="treepm", n_per_dim=16)
        with HACCSimulation(cfg) as sim:
            assert sim.exchange.decomposition.dims == (1, 1, 1)
            assert sim.exchange.depth == cfg.rcut()
        with HACCSimulation(cfg, overload_depth=cfg.rcut() + 0.5) as sim:
            assert sim.exchange.depth == cfg.rcut() + 0.5
        with pytest.raises(ConfigError, match="rcut"):
            HACCSimulation(cfg, overload_depth=cfg.rcut() - 0.5)

    def test_overload_refresh_traffic_recorded(self):
        cfg = small_config(backend="treepm", n_per_dim=16)
        sim = HACCSimulation(
            cfg,
            decomposition_dims=(2, 1, 1),
            overload_depth=cfg.rcut() + 0.5,
        )
        sim._short_range(sim.particles.positions)
        assert sim.exchange.comm.stats.tag_bytes("overload.distribute") > 0

    def test_full_run_with_overloading(self):
        cfg = small_config(backend="p3m", n_per_dim=16, n_steps=1)
        sim = HACCSimulation(
            cfg,
            decomposition_dims=(2, 1, 1),
            overload_depth=cfg.rcut() + 0.5,
        )
        sim.run()
        assert sim.a == pytest.approx(1 / 11)


def _have_c() -> bool:
    from repro.shortrange.backends import BackendUnavailable, get_backend

    try:
        get_backend("c")
    except BackendUnavailable:
        return False
    return True


class TestOneShortRangePath:
    """An undecomposed run is the (1, 1, 1) decomposition, bit for bit:
    both distribute over one domain at depth rcut and solve it on the
    executor."""

    @pytest.mark.parametrize("kernel_backend", [
        pytest.param("c", marks=pytest.mark.skipif(
            not _have_c(), reason="C backend unavailable")),
        "numpy",
    ])
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("backend", ["treepm", "p3m"])
    def test_undecomposed_equals_one_domain(
        self, backend, dtype, kernel_backend
    ):
        cfg = small_config(backend=backend, n_per_dim=16, n_steps=1,
                           dtype=dtype, kernel_backend=kernel_backend)
        with HACCSimulation(cfg) as plain, HACCSimulation(
            cfg, decomposition_dims=(1, 1, 1)
        ) as one:
            plain.run()
            one.run()
            for name in ("positions", "momenta"):
                assert np.array_equal(getattr(plain.particles, name),
                                      getattr(one.particles, name)), name
            assert plain.interaction_count() == one.interaction_count() > 0

    def test_rank_death_without_user_domains_rejected(self):
        """The one domain of an undecomposed run is not a rank the user
        asked for: a rank death on it is a ConfigError before any step,
        as it was before that run had a domain."""
        from repro.resilience.faults import FaultPlan

        cfg = small_config(backend="treepm", n_per_dim=16, n_steps=1)
        plan = FaultPlan().with_rank_death(step=0, rank=0)
        with pytest.raises(ConfigError, match="decomposed"):
            HACCSimulation(cfg, faults=plan)
        with HACCSimulation(
            cfg, decomposition_dims=(1, 1, 1), faults=plan
        ) as sim:
            assert sim.exchange.decomposition.n_ranks == 1
