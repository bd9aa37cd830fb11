"""Tests for the pluggable short-range kernel-backend seam.

Covers the registry contract (resolution, auto fallback, loud failure
for unavailable accelerators), the equivalence guarantees the seam
promises — float64 numba results **bitwise identical** to the numpy
reference, float32 within 1e-4 of float64 — and the plumbing that
carries the backend/precision choice through config, solver specs, run
manifests, the ledger and the CLI.

The numba loop bodies are plain Python functions compiled lazily, so
even in environments *without* numba we pin their semantics against the
NumPy backend by monkeypatching the compilation step to return the raw
interpreted implementations.  Where numba is importable, a second class
repeats the checks through the real JIT.
"""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.particles import Particles
from repro.core.simulation import HACCSimulation
from repro.grid.cic import ParticleGridCoords, cic_deposit, cic_interpolate
from repro.shortrange.backends import (
    BackendUnavailable,
    KernelBackend,
    available_backends,
    backend_names,
    get_backend,
    resolve_backend,
)
from repro.shortrange.backends import numba_backend as nb_mod
from repro.shortrange.backends.numba_backend import (
    NumbaBackend,
    _cic_deposit_impl,
    _cic_gather_impl,
    _f_sr_pairs_impl,
    _pair_accumulate_impl,
)
from repro.shortrange.backends.numpy_backend import NumpyBackend
from repro.shortrange.batch import pack_tree
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree
from repro.shortrange.solvers import (
    TreePMShortRange,
    build_solver,
    periodic_ghosts,
    solver_from_spec,
    solver_spec,
)

BOX = 10.0

HAVE_NUMBA = NumbaBackend.available()


@pytest.fixture()
def kernel(grid_force_fit):
    return ShortRangeKernel(grid_force_fit, spacing=1.0, eps_cells=0.01)


@pytest.fixture()
def kernel32(grid_force_fit):
    return ShortRangeKernel(
        grid_force_fit, spacing=1.0, eps_cells=0.01, dtype=np.float32
    )


def clustered_cloud(rng, n):
    centers = rng.uniform(0.0, BOX, (max(n // 50, 2), 3))
    which = rng.integers(0, centers.shape[0], n)
    return np.mod(centers[which] + rng.normal(0.0, 0.2, (n, 3)), BOX)


@pytest.fixture()
def interpreted_numba(monkeypatch):
    """A NumbaBackend whose 'compiled' functions are the raw Python
    loop bodies — semantics of the numba path without requiring numba."""
    fns = {
        "f_sr_pairs": _f_sr_pairs_impl,
        "pair_accumulate": _pair_accumulate_impl,
        "cic_deposit": _cic_deposit_impl,
        "cic_gather": _cic_gather_impl,
    }
    monkeypatch.setattr(nb_mod, "_compiled", lambda fastmath: fns)
    return NumbaBackend()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_backend_names_registered(self):
        assert backend_names() == ("numpy", "numba", "cupy")

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_get_backend_caches_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_raises_valueerror(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("fortran")
        with pytest.raises(ValueError):
            resolve_backend("fortran")

    def test_resolve_none_and_auto_pick_cpu_backend(self):
        expected = "numba" if HAVE_NUMBA else "numpy"
        assert resolve_backend(None).name == expected
        assert resolve_backend("auto").name == expected

    def test_resolve_passes_instances_through(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst

    def test_resolve_rejects_non_string_non_backend(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_cupy_unavailable_is_loud(self):
        # explicit requests for a missing accelerator must not degrade
        from repro.shortrange.backends.cupy_backend import CupyBackend

        if CupyBackend.available():
            pytest.skip("cupy with a CUDA device present")
        with pytest.raises(BackendUnavailable):
            get_backend("cupy")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba importable here")
    def test_numba_unavailable_is_loud(self):
        with pytest.raises(BackendUnavailable):
            get_backend("numba")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba importable here")
    def test_auto_falls_back_to_numpy_without_numba(self):
        assert "numba" not in available_backends()
        assert resolve_backend("auto").name == "numpy"

    def test_contract_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()


# ----------------------------------------------------------------------
# interpreted-numba equivalence (runs everywhere, numba or not)
# ----------------------------------------------------------------------
class TestInterpretedNumbaEquivalence:
    """The numba loop bodies, run as plain Python, must be *bitwise*
    equal to the NumPy backend in float64 — the strict-IEEE ordering
    contract the compiled f64 variant inherits."""

    def test_f_sr_pairs_bitwise(self, kernel, interpreted_numba, rng):
        s = rng.uniform(1e-3, kernel.fit.rcut_cells**2, 512)
        coeffs = np.ascontiguousarray(
            kernel.fit.coefficients, dtype=np.float64
        )
        eps = np.float64(kernel.eps_cells)
        ref = np.empty_like(s)
        got = np.empty_like(s)
        scratch = np.empty_like(s)
        get_backend("numpy").f_sr_pairs(s, coeffs, eps, ref, scratch)
        interpreted_numba.f_sr_pairs(s, coeffs, eps, got, scratch)
        assert np.array_equal(ref, got)

    def test_treepm_forces_bitwise_f64(self, kernel, interpreted_numba, rng):
        pos = clustered_cloud(rng, 160)
        masses = rng.uniform(0.5, 1.5, 160)
        ref_solver = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend="numpy"
        )
        nb_solver = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend=interpreted_numba
        )
        ref = ref_solver.accelerations(pos, masses, BOX)
        got = nb_solver.accelerations(pos, masses, BOX)
        assert np.array_equal(ref, got)

    def test_interaction_counts_match(self, kernel, interpreted_numba, rng):
        pos = clustered_cloud(rng, 120)
        ref_solver = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend="numpy"
        )
        nb_solver = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend=interpreted_numba
        )
        before = kernel.interaction_count
        ref_solver.accelerations(pos, None, BOX)
        ref_pairs = kernel.interaction_count - before
        before = kernel.interaction_count
        nb_solver.accelerations(pos, None, BOX)
        nb_pairs = kernel.interaction_count - before
        assert ref_pairs == nb_pairs > 0
        # ... and both are the pairs the packed batch streams
        cloud, cloud_m = periodic_ghosts(pos, np.ones(120), BOX, kernel.rcut)
        batch = pack_tree(
            RCBTree(cloud, cloud_m, leaf_size=16), kernel.rcut, 120
        )
        assert ref_pairs == batch.n_pairs
        assert (
            ref_solver.engine.last_inside_pairs
            == nb_solver.engine.last_inside_pairs
        )

    def test_cic_gather_bitwise(self, interpreted_numba, rng):
        n = 8
        pos = rng.uniform(0.0, BOX, (300, 3))
        grid = rng.normal(size=(n, n, n))
        ref = cic_interpolate(grid, pos, BOX, backend="numpy")
        got = cic_interpolate(grid, pos, BOX, backend=interpreted_numba)
        assert np.array_equal(ref, got)

    def test_cic_deposit_close(self, interpreted_numba, rng):
        # deposit summation order differs between backends (bincount vs
        # serial scatter): tight tolerance, not bitwise
        n = 8
        pos = rng.uniform(0.0, BOX, (300, 3))
        w = rng.uniform(0.5, 1.5, 300)
        ref = cic_deposit(pos, n, BOX, weights=w, backend="numpy")
        got = cic_deposit(pos, n, BOX, weights=w, backend=interpreted_numba)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
        assert got.dtype == ref.dtype == np.float64

    def test_f32_tracks_f64(self, kernel, kernel32, interpreted_numba, rng):
        pos = clustered_cloud(rng, 160)
        masses = rng.uniform(0.5, 1.5, 160)
        ref = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend="numpy"
        ).accelerations(pos, masses, BOX)
        got = TreePMShortRange(
            kernel32, leaf_size=16, kernel_backend=interpreted_numba
        ).accelerations(pos, masses, BOX)
        assert got.dtype == np.float32
        scale = np.abs(ref).max()
        assert np.max(np.abs(got - ref)) < 1e-4 * scale


# ----------------------------------------------------------------------
# compiled-numba equivalence (skipped when numba is absent)
# ----------------------------------------------------------------------
class TestCompiledNumbaEquivalence:
    @pytest.fixture(autouse=True)
    def _need_numba(self):
        pytest.importorskip("numba")

    def test_treepm_forces_bitwise_f64(self, kernel, rng):
        pos = clustered_cloud(rng, 200)
        masses = rng.uniform(0.5, 1.5, 200)
        ref = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend="numpy"
        ).accelerations(pos, masses, BOX)
        got = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend="numba"
        ).accelerations(pos, masses, BOX)
        assert np.array_equal(ref, got)

    def test_treepm_forces_f32_within_tolerance(self, kernel, kernel32, rng):
        pos = clustered_cloud(rng, 200)
        masses = rng.uniform(0.5, 1.5, 200)
        ref = TreePMShortRange(
            kernel, leaf_size=16, kernel_backend="numpy"
        ).accelerations(pos, masses, BOX)
        got = TreePMShortRange(
            kernel32, leaf_size=16, kernel_backend="numba"
        ).accelerations(pos, masses, BOX)
        assert got.dtype == np.float32
        scale = np.abs(ref).max()
        assert np.max(np.abs(got - ref)) < 1e-4 * scale

    def test_cic_roundtrip_bitwise_f64(self, rng):
        n = 8
        pos = rng.uniform(0.0, BOX, (400, 3))
        grid = rng.normal(size=(n, n, n))
        ref = cic_interpolate(grid, pos, BOX, backend="numpy")
        got = cic_interpolate(grid, pos, BOX, backend="numba")
        assert np.array_equal(ref, got)

    @pytest.mark.chaos
    def test_chaos_lane_simulation_runs_on_numba(self):
        cfg = SimulationConfig(
            box_size=64.0,
            n_per_dim=8,
            z_initial=25.0,
            z_final=10.0,
            n_steps=2,
            backend="treepm",
            kernel_backend="numba",
            seed=11,
        )
        sim = HACCSimulation(cfg)
        assert sim.kernel_backend == "numba"
        sim.run()
        assert np.all(np.isfinite(sim.particles.positions))


# ----------------------------------------------------------------------
# CIC dtype propagation
# ----------------------------------------------------------------------
class TestCICDtypes:
    def test_coords_follow_requested_dtype(self, rng):
        pos = rng.uniform(0.0, BOX, (50, 3)).astype(np.float32)
        c32 = ParticleGridCoords(pos, 8, BOX, dtype=np.float32)
        assert c32.weights.dtype == np.float32
        c64 = ParticleGridCoords(pos, 8, BOX, dtype=np.float64)
        assert c64.weights.dtype == np.float64

    def test_deposit_dtype_no_silent_upcast(self, rng):
        pos = rng.uniform(0.0, BOX, (200, 3)).astype(np.float32)
        g32 = cic_deposit(pos, 8, BOX, dtype=np.float32)
        assert g32.dtype == np.float32
        # default stays the float64 baseline
        assert cic_deposit(pos, 8, BOX).dtype == np.float64

    def test_interpolate_dtype(self, rng):
        pos = rng.uniform(0.0, BOX, (200, 3))
        grid = rng.normal(size=(8, 8, 8)).astype(np.float32)
        out = cic_interpolate(grid, pos, BOX, dtype=np.float32)
        assert out.dtype == np.float32

    def test_f32_deposit_tracks_f64(self, rng):
        pos = rng.uniform(0.0, BOX, (500, 3))
        w = rng.uniform(0.5, 1.5, 500)
        g64 = cic_deposit(pos, 8, BOX, weights=w)
        g32 = cic_deposit(
            pos.astype(np.float32), 8, BOX,
            weights=w.astype(np.float32), dtype=np.float32,
        )
        np.testing.assert_allclose(g32, g64, rtol=2e-4, atol=2e-4)


# ----------------------------------------------------------------------
# config / spec / manifest / ledger / CLI plumbing
# ----------------------------------------------------------------------
def tiny_config(**kwargs):
    base = dict(
        box_size=64.0,
        n_per_dim=8,
        z_initial=25.0,
        z_final=10.0,
        n_steps=2,
        backend="treepm",
        seed=7,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


class TestConfigPlumbing:
    def test_defaults(self):
        cfg = tiny_config()
        assert cfg.kernel_backend == "auto"
        assert cfg.dtype == "f64"
        assert cfg.precision_dtype is np.float64

    def test_precision_dtype_f32(self):
        assert tiny_config(dtype="f32").precision_dtype is np.float32

    def test_validation(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            tiny_config(kernel_backend="quantum")
        with pytest.raises(ValueError, match="dtype"):
            tiny_config(dtype="f16")

    def test_to_dict_and_hash_cover_new_fields(self):
        a = tiny_config()
        b = tiny_config(kernel_backend="numpy")
        c = tiny_config(dtype="f32")
        assert a.to_dict()["kernel_backend"] == "auto"
        assert a.to_dict()["dtype"] == "f64"
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_simulation_resolves_backend_once(self):
        sim = HACCSimulation(tiny_config(kernel_backend="numpy"))
        assert sim.kernel_backend == "numpy"
        auto = HACCSimulation(tiny_config())
        assert auto.kernel_backend in ("numpy", "numba")

    def test_simulation_casts_particles_to_f32(self):
        sim = HACCSimulation(tiny_config(dtype="f32"))
        assert sim.particles.positions.dtype == np.float32
        assert sim.particles.momenta.dtype == np.float32
        assert sim.particles.masses.dtype == np.float32
        assert sim.particles.ids.dtype == np.int64

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba importable here")
    def test_explicit_unavailable_backend_fails_at_construction(self):
        with pytest.raises(BackendUnavailable):
            HACCSimulation(tiny_config(kernel_backend="numba"))

    def test_f32_trajectory_tracks_f64(self):
        s64 = HACCSimulation(tiny_config(kernel_backend="numpy"))
        s64.run()
        s32 = HACCSimulation(
            tiny_config(kernel_backend="numpy", dtype="f32")
        )
        s32.run()
        assert s32.particles.positions.dtype == np.float32
        diff = np.abs(
            s32.particles.positions.astype(np.float64)
            - s64.particles.positions
        )
        diff = np.minimum(diff, 64.0 - diff)  # periodic wrap
        assert diff.max() < 1e-4 * 64.0


class TestSolverSpecRoundtrip:
    def test_spec_carries_kernel_backend(self, kernel):
        spec = solver_spec(
            "treepm", kernel, leaf_size=16, kernel_backend="numpy"
        )
        assert spec["kernel_backend"] == "numpy"
        clone = solver_from_spec(spec)
        assert clone.engine.backend.name == "numpy"

    def test_spec_default_backend_is_numpy(self, kernel):
        clone = solver_from_spec(solver_spec("treepm", kernel, leaf_size=16))
        assert clone.engine.backend.name == "numpy"

    def test_spec_is_picklable(self, kernel):
        import pickle

        spec = solver_spec("p3m", kernel, kernel_backend="numpy")
        clone = solver_from_spec(pickle.loads(pickle.dumps(spec)))
        assert clone.engine.backend.name == "numpy"

    def test_build_solver_passes_backend(self, kernel):
        s = build_solver(
            "treepm", kernel, leaf_size=16, kernel_backend="numpy"
        )
        assert s.engine.backend.name == "numpy"


class TestManifestAndLedger:
    def test_manifest_records_backend_and_precision(self):
        from repro.instrument.telemetry import run_manifest

        m = run_manifest(tiny_config(kernel_backend="numpy", dtype="f32"))
        assert m["kernel_backend"] == "numpy"
        assert m["precision"] == "f32"

    def test_manifest_extra_overrides_with_resolved_name(self):
        from repro.instrument.telemetry import run_manifest

        m = run_manifest(
            tiny_config(), extra={"kernel_backend": "numpy"}
        )
        # "auto" from the config replaced by the driver's resolved name
        assert m["kernel_backend"] == "numpy"

    def test_ledger_records_and_filters(self, tmp_path):
        from repro.instrument.store import RunLedger
        from repro.instrument.telemetry import run_manifest

        ledger = RunLedger(tmp_path / "ledger")
        m32 = run_manifest(tiny_config(kernel_backend="numpy", dtype="f32"))
        m64 = run_manifest(tiny_config(kernel_backend="numpy", dtype="f64"))
        e32 = ledger.record(manifest=m32)
        ledger.record(manifest=m64)
        assert e32.kernel_backend == "numpy"
        assert e32.precision == "f32"
        only32 = ledger.query(precision="f32")
        assert [e.run_id for e in only32] == [e32.run_id]
        assert len(ledger.query(kernel_backend="numpy")) == 2
        assert ledger.query(kernel_backend="cupy") == []

    def test_entry_roundtrips_through_json(self, tmp_path):
        from repro.instrument.store import RunEntry, RunLedger
        from repro.instrument.telemetry import run_manifest

        ledger = RunLedger(tmp_path / "ledger")
        ledger.record(
            manifest=run_manifest(tiny_config(dtype="f32"))
        )
        line = (tmp_path / "ledger" / "index.jsonl").read_text().strip()
        entry = RunEntry.from_dict(json.loads(line))
        assert entry.precision == "f32"


class TestCLI:
    def test_run_options_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["run", "--kernel-backend", "numpy", "--precision", "f32"]
        )
        assert args.kernel_backend == "numpy"
        assert args.precision == "f32"

    def test_run_options_default(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["run"])
        assert args.kernel_backend == "auto"
        assert args.precision == "f64"

    def test_run_rejects_unknown_backend(self, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--kernel-backend", "mlx"])

    def test_runs_filters_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["runs", "--kernel-backend", "numba", "--precision", "f32"]
        )
        assert args.kernel_backend == "numba"
        assert args.precision == "f32"
