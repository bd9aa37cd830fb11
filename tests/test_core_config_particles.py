"""Tests for SimulationConfig and the SOA particle container."""

import numpy as np
import pytest

from repro.config import ConfigError, SimulationConfig
from repro.core.particles import Particles
from repro.core.simulation import HACCSimulation
from repro.cosmology import WMAP7, make_initial_conditions


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16)
        assert cfg.grid() == 16
        assert cfg.n_particles == 4096
        assert cfg.backend == "treepm"
        assert cfg.a_initial == pytest.approx(1 / 26)
        assert cfg.a_final == 1.0

    def test_explicit_grid(self):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16, grid_size=32)
        assert cfg.grid() == 32
        assert cfg.spacing() == pytest.approx(100.0 / 32)

    def test_rcut(self):
        cfg = SimulationConfig(box_size=96.0, n_per_dim=32)
        assert cfg.rcut() == pytest.approx(3.0 * 3.0)

    def test_step_edges_linear(self):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16, n_steps=4)
        edges = cfg.step_edges()
        assert len(edges) == 5
        assert edges[0] == pytest.approx(cfg.a_initial)
        assert edges[-1] == pytest.approx(1.0)
        assert np.allclose(np.diff(edges), np.diff(edges)[0])

    def test_step_edges_log(self):
        cfg = SimulationConfig(
            box_size=100.0, n_per_dim=16, n_steps=4, step_spacing="loga"
        )
        edges = cfg.step_edges()
        ratios = edges[1:] / edges[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_with_copies(self):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16)
        cfg2 = cfg.with_(n_steps=7)
        assert cfg2.n_steps == 7
        assert cfg.n_steps != 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(box_size=0.0),
            dict(n_per_dim=1),
            dict(z_initial=1.0, z_final=2.0),
            dict(z_final=-0.5),
            dict(n_steps=0),
            dict(n_subcycles=0),
            dict(backend="gadget"),
            dict(step_spacing="t"),
            dict(rcut_cells=0.0),
            dict(lpt_order=3),
            dict(n_per_dim=4),  # rcut 3/4 of box: too large
        ],
    )
    def test_validation(self, kwargs):
        base = dict(box_size=100.0, n_per_dim=16)
        with pytest.raises(ValueError):
            SimulationConfig(**{**base, **kwargs})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(box_size=float("nan")),
            dict(box_size=float("inf")),
            dict(z_initial=float("nan")),
            dict(z_final=float("nan")),
            dict(rcut_cells=float("nan")),
            dict(eps_cells=float("nan")),
            dict(eps_cells=float("inf")),
            dict(eps_cells=-1.0),
            dict(sigma=float("nan")),
            dict(leaf_size=0),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bad_value_fails_at_the_boundary(self, kwargs):
        """Non-finite floats, a negative softening and an empty leaf are
        a ConfigError at construction and from a saved dict, not a
        kernel error or NaN forces mid-run."""
        base = dict(box_size=64.0, n_per_dim=8)
        name = next(iter(kwargs))
        with pytest.raises(ConfigError, match=name):
            SimulationConfig(**{**base, **kwargs})
        payload = {**SimulationConfig(**base).to_dict(), **kwargs}
        with pytest.raises(ConfigError, match=name):
            SimulationConfig.from_dict(payload)

    def test_from_dict_accepts_the_retired_naive_switch(self):
        """Checkpoints and --config files written before the per-leaf
        path was retired carry ``shortrange_naive: false``; they load
        (and hash) as the same run.  ``true`` asked for a path that no
        longer exists and fails like any unknown key."""
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16)
        old = {**cfg.to_dict(), "shortrange_naive": False}
        assert SimulationConfig.from_dict(old) == cfg
        with pytest.raises(TypeError):
            SimulationConfig.from_dict({**old, "shortrange_naive": True})

    def test_from_dict_accepts_the_retired_worker_groups(self):
        """Every earlier checkpoint and --config file carries
        ``worker_groups: 1``; it loads as the same config."""
        cfg = SimulationConfig(
            box_size=100.0, n_per_dim=16, workers=2, executor="thread"
        )
        old = {**cfg.to_dict(), "worker_groups": 1}
        assert SimulationConfig.from_dict(old) == cfg
        assert "worker_groups" not in cfg.to_dict()

    @pytest.mark.parametrize("value", [False, True])
    def test_from_dict_drops_the_retired_overlap_switch(self, value):
        """Checkpoints and --config files written while overlapped
        execution existed carry ``overlap``; either value produced the
        synchronous trajectory, so both load (and hash) as the same run."""
        cfg = SimulationConfig(
            box_size=100.0, n_per_dim=16, workers=2, executor="thread"
        )
        old = SimulationConfig.from_dict({**cfg.to_dict(), "overlap": value})
        assert old == cfg
        assert hash(old) == hash(cfg)
        assert old.config_hash() == cfg.config_hash()
        assert "overlap" not in cfg.to_dict()

    def test_from_dict_accepts_the_retired_chunk_pairs(self):
        """Every checkpoint and --config file written while the pair
        loop had source chunks carries ``chunk_pairs: 262144``, the only
        value ever written; it loads as the same config."""
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16)
        old = {**cfg.to_dict(), "chunk_pairs": 1 << 18}
        assert SimulationConfig.from_dict(old) == cfg
        assert "chunk_pairs" not in cfg.to_dict()

    @pytest.mark.parametrize("value", [1, 7, (1 << 18) + 1, None])
    def test_other_chunk_pairs_name_the_retirement(self, value):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16)
        with pytest.raises(ConfigError, match="chunk_pairs was removed"):
            SimulationConfig.from_dict({**cfg.to_dict(),
                                        "chunk_pairs": value})

    @pytest.mark.parametrize(
        "retired", [{"worker_groups": 2}, {"executor": "process"}]
    )
    def test_retired_process_fields_name_the_thread_replacement(
        self, retired
    ):
        cfg = SimulationConfig(box_size=100.0, n_per_dim=16, workers=4)
        with pytest.raises(ConfigError, match="'thread'"):
            SimulationConfig.from_dict({**cfg.to_dict(), **retired})


class TestParticles:
    def test_from_ics(self):
        ics = make_initial_conditions(
            WMAP7, n_per_dim=4, box_size=10.0, z_init=25.0
        )
        p = Particles.from_ics(ics)
        assert p.n == 64
        assert np.all(p.masses == 1.0)
        assert np.array_equal(p.ids, np.arange(64))

    def test_from_ics_takes_the_ic_arrays(self):
        """The particles use the IC's arrays themselves, and a run from
        them ends where a run from copies of the same ICs does."""
        cfg = SimulationConfig(box_size=64.0, n_per_dim=8, z_initial=25.0,
                               z_final=10.0, n_steps=2, backend="pm")
        states = []
        for share in (True, False):
            ics = make_initial_conditions(
                cfg.cosmology, n_per_dim=8, box_size=64.0, z_init=25.0,
                seed=cfg.seed,
            )
            if share:
                p = Particles.from_ics(ics)
                assert p.positions is ics.positions
                assert p.momenta is ics.momenta
            else:
                p = Particles(ics.positions.copy(), ics.momenta.copy(),
                              np.ones(ics.n_particles),
                              np.arange(ics.n_particles), box_size=64.0)
            sim = HACCSimulation(cfg, particles=p)
            sim.run()
            states.append(sim.particles)
        for field in ("positions", "momenta"):
            a, b = (getattr(s, field) for s in states)
            assert a.tobytes() == b.tobytes()

    def test_uniform_random_reproducible(self):
        a = Particles.uniform_random(10, 5.0, seed=1)
        b = Particles.uniform_random(10, 5.0, seed=1)
        assert np.array_equal(a.positions, b.positions)

    def test_wrap(self):
        p = Particles.uniform_random(5, 10.0, seed=0)
        p.positions[0] = [12.0, -3.0, 5.0]
        p.wrap()
        assert np.allclose(p.positions[0], [2.0, 7.0, 5.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("box", [10.0, 0.3, 25.0])
    def test_wrap_is_bitwise_np_mod(self, dtype, box):
        """Only coordinates outside (0, box) take the remainder; the
        result is np.mod's bits, signed zeros and NaN/inf included,
        except that a remainder of exactly ``box`` (``-1e-30`` here) is
        folded to +0."""
        t = np.dtype(dtype).type
        b = t(box)
        edges = np.array(
            [0.0, -0.0, b, -b, np.nextafter(b, t(0)), 2 * b, -1e-30,
             np.nextafter(t(0), t(1)), np.nan, np.inf, -np.inf],
            dtype=dtype,
        )
        rng = np.random.default_rng(3)
        x = rng.uniform(-3 * box, 4 * box, (400, 3)).astype(dtype)
        x[rng.random(x.shape) < 0.3] = rng.choice(edges, 1)[0]
        x[:len(edges), 0] = edges
        with np.errstate(invalid="ignore"):
            ref = np.mod(x, box)
            p = Particles(x, np.zeros_like(x), np.ones(400, dtype),
                          np.arange(400), box)
            p.wrap()
        assert ref[6, 0] == b  # np.mod(-1e-30, box)
        ref[ref == b] = 0
        assert p.positions.tobytes() == ref.tobytes()
        finite = np.isfinite(p.positions)
        assert (p.positions[finite] >= 0).all()
        assert (p.positions[finite] < b).all()

    def test_kinetic_energy_scaling(self):
        p = Particles.uniform_random(10, 5.0, seed=0)
        p.momenta[:] = 1.0
        # v = p/a: KE at a=0.5 is 4x KE at a=1
        assert p.kinetic_energy(0.5) == pytest.approx(4 * p.kinetic_energy(1.0))

    def test_kinetic_energy_validates_a(self):
        p = Particles.uniform_random(2, 5.0)
        with pytest.raises(ValueError):
            p.kinetic_energy(0.0)

    def test_rms_displacement_periodic(self):
        p = Particles.uniform_random(3, 10.0, seed=0)
        ref = p.positions.copy()
        p.positions[:] = np.mod(ref + 9.5, 10.0)  # -0.5 shift periodically
        d = p.rms_displacement(ref)
        assert d == pytest.approx(np.sqrt(3 * 0.25), rel=1e-9)

    def test_copy_is_deep(self):
        p = Particles.uniform_random(4, 5.0)
        q = p.copy()
        q.positions[0, 0] = 99.0
        assert p.positions[0, 0] != 99.0

    @pytest.mark.parametrize(
        "field,shape",
        [
            ("positions", (3, 2)),
            ("momenta", (4, 3)),
            ("masses", (4,)),
            ("ids", (5,)),
        ],
    )
    def test_shape_validation(self, field, shape):
        good = dict(
            positions=np.zeros((3, 3)),
            momenta=np.zeros((3, 3)),
            masses=np.ones(3),
            ids=np.arange(3),
            box_size=1.0,
        )
        good[field] = np.zeros(shape)
        if field == "positions":
            with pytest.raises(ValueError):
                Particles(**good)
        else:
            with pytest.raises(ValueError):
                Particles(**good)
