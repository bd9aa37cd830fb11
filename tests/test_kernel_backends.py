"""Tests for the pluggable short-range kernel-backend seam.

Covers the registry contract (resolution, auto fallback to numpy when
the C kernel cannot be built, loud failure for an explicit request), the
equivalence the seam promises — the compiled C ``pair_accumulate`` is
**bitwise identical** to the numpy reference in float64 *and* float32,
lists longer than a numpy tile included, and so are the table-free C
``cic_deposit`` / ``cic_gather`` to the numpy corner tables, edge
positions included — the
build cache (garbage or truncated entry,
unwritable directory, two processes racing a cold cache), the argument
guard in front of the raw pointers, thread safety of the GIL-free call,
and the plumbing that carries the backend/precision choice through
config, solver specs, run manifests, the ledger and the CLI.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigError, SimulationConfig
from repro.core.particles import Particles
from repro.core.simulation import HACCSimulation
from repro.grid.cic import ParticleGridCoords, cic_deposit, cic_interpolate
from repro.grid.poisson import SpectralPoissonSolver
from repro.shortrange import backends as backends_mod
from repro.shortrange.backends import (
    BackendUnavailable,
    KernelBackend,
    Workspace,
    available_backends,
    backend_names,
    get_backend,
    resolve_backend,
)
from repro.shortrange.backends.numpy_backend import NumpyBackend
from repro.shortrange.batch import (
    BatchedPairEngine,
    InteractionBatch,
    pack_tree,
    tighten_ranges,
)
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree
from repro.shortrange.solvers import (
    P3MShortRange,
    TreePMShortRange,
    build_solver,
    periodic_ghosts,
)

BOX = 10.0
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _have_c() -> bool:
    try:
        get_backend("c")
    except BackendUnavailable:
        return False
    return True


HAVE_C = _have_c()


def _cpu_flags() -> set[str] | None:
    """The CPU feature flags the kernel reports, where it reports them."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return None
needs_c = pytest.mark.skipif(not HAVE_C, reason="no working C compiler")


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
def cbackend():
    if not HAVE_C:
        pytest.skip("no working C compiler")
    return get_backend("c")


@pytest.fixture()
def no_compiler(monkeypatch, tmp_path):
    """An environment where the C kernel cannot be built: ``$CC`` names
    a program that fails, the cache is empty, nothing is memoized."""
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(backends_mod, "_INSTANCES", {})


def make_solver(name, kern, backend, leaf_size=16):
    if name == "treepm":
        return TreePMShortRange(kern, leaf_size=leaf_size,
                                kernel_backend=backend)
    return P3MShortRange(kern, kernel_backend=backend)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_backend_names_registered(self):
        assert backend_names() == ("numpy", "c")

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
        expected = "c" if HAVE_C else "numpy"
        assert resolve_backend(None).name == expected
        assert resolve_backend("auto").name == expected

    def test_resolve_passes_instances_through(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst

    def test_resolve_rejects_non_string_non_backend(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_cupy_unavailable_is_loud(self):
        self._retired_name_is_loud("cupy")

    def test_numba_unavailable_is_loud(self):
        self._retired_name_is_loud("numba")

    @staticmethod
    def _retired_name_is_loud(name):
        """The pruned backends are unknown names: a config naming one
        fails at the boundary, the registry does not know it."""
        with pytest.raises(ConfigError, match="kernel_backend"):
            SimulationConfig(
                box_size=64.0, n_per_dim=8, kernel_backend=name
            )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend(name)

    def test_auto_falls_back_to_numpy_without_numba(self, no_compiler):
        """(Historical id.)  Without a usable compiler ``auto`` degrades
        silently to numpy and an explicit ``c`` is loud."""
        assert available_backends() == ("numpy",)
        assert resolve_backend("auto").name == "numpy"
        assert resolve_backend(None).name == "numpy"
        with pytest.raises(BackendUnavailable, match="C compiler"):
            get_backend("c")

    def test_contract_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()


# ----------------------------------------------------------------------
# C-vs-numpy equivalence on the primitives
# ----------------------------------------------------------------------
class TestInterpretedNumbaEquivalence:
    """(Historical class id: these were the interpreted-numba checks.)
    The compiled C backend must be *bitwise* equal to the NumPy backend
    — the strict-IEEE ordering contract PR 7 set for numba f64, which C
    also keeps in f32."""

    def test_treepm_forces_bitwise_f64(self, kernel, cbackend, rng):
        pos = clustered_cloud(rng, 160)
        masses = rng.uniform(0.5, 1.5, 160)
        ref = make_solver("treepm", kernel, "numpy").accelerations(
            pos, masses, BOX
        )
        got = make_solver("treepm", kernel, cbackend).accelerations(
            pos, masses, BOX
        )
        assert np.abs(ref).max() > 0
        assert np.array_equal(ref, got)

    def test_interaction_counts_match(self, kernel, cbackend, rng):
        pos = clustered_cloud(rng, 120)
        ref_solver = make_solver("treepm", kernel, "numpy")
        c_solver = make_solver("treepm", kernel, cbackend)
        ref_solver.accelerations(pos, None, BOX)
        c_solver.accelerations(pos, None, BOX)
        ref_pairs, c_pairs = ref_solver.last_pairs[0], c_solver.last_pairs[0]
        assert ref_pairs == c_pairs > 0
        # ... and both are the pairs the packed batch streams
        cloud, cloud_m = periodic_ghosts(pos, np.ones(120), BOX, kernel.rcut)
        batch = pack_tree(
            RCBTree(cloud, cloud_m, leaf_size=16), kernel.rcut, 120
        )
        assert ref_pairs == batch.n_pairs
        assert ref_solver.last_pairs[1] == c_solver.last_pairs[1] > 0

    def test_cic_gather_bitwise(self, cbackend, rng):
        n = 8
        pos = rng.uniform(0.0, BOX, (300, 3))
        grid = rng.normal(size=(n, n, n))
        ref = cic_interpolate(grid, pos, BOX, backend="numpy")
        got = cic_interpolate(grid, pos, BOX, backend=cbackend)
        assert np.array_equal(ref, got)

    def test_cic_deposit_close(self, cbackend, rng):
        # the C backend inherits the numpy deposit: same bits, same dtype
        n = 8
        pos = rng.uniform(0.0, BOX, (300, 3))
        w = rng.uniform(0.5, 1.5, 300)
        ref = cic_deposit(pos, n, BOX, weights=w, backend="numpy")
        got = cic_deposit(pos, n, BOX, weights=w, backend=cbackend)
        assert np.array_equal(ref, got)
        assert got.dtype == ref.dtype == np.float64

    def test_f32_tracks_f64(self, kernel, kernel32, cbackend, rng):
        pos = clustered_cloud(rng, 160)
        masses = rng.uniform(0.5, 1.5, 160)
        ref = make_solver("treepm", kernel, "numpy").accelerations(
            pos, masses, BOX
        )
        got = make_solver("treepm", kernel32, cbackend).accelerations(
            pos, masses, BOX
        )
        assert got.dtype == np.float32
        scale = np.abs(ref).max()
        assert np.max(np.abs(got - ref)) < 1e-4 * scale


# ----------------------------------------------------------------------
# C-vs-numpy equivalence through the solvers
# ----------------------------------------------------------------------
@needs_c
class TestCBackendEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("solver", ["treepm", "p3m"])
    def test_forces_and_counters_bitwise(
        self, grid_force_fit, rng, solver, dtype
    ):
        """Same bits and same counters in both precisions."""
        pos = clustered_cloud(rng, 240)
        masses = rng.uniform(0.5, 1.5, 240)
        out = {}
        for backend in ("numpy", "c"):
            kern = ShortRangeKernel(
                grid_force_fit, spacing=1.0, eps_cells=0.01, dtype=dtype
            )
            built = make_solver(solver, kern, backend)
            acc = built.accelerations(pos, masses, BOX)
            out[backend] = (acc, *built.last_pairs)
        ref, got = out["numpy"], out["c"]
        assert np.abs(ref[0]).max() > 0
        assert got[0].dtype == ref[0].dtype
        assert np.array_equal(ref[0], got[0])
        assert ref[1] == got[1] > 0
        assert ref[2] == got[2] > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_groups_and_no_targets(self, grid_force_fit, rng, dtype,
                                         listed_batch):
        kern = ShortRangeKernel(
            grid_force_fit, spacing=1.0, eps_cells=0.01, dtype=dtype
        )
        pos = rng.uniform(0.0, 3.0, (12, 3))
        # groups: {0,1} x 6 sources, {} x 3 sources, {2} x no sources,
        # {3,4} x 5 sources
        batch = listed_batch(
            [0, 2, 2, 3], [2, 0, 1, 2],
            [range(6), range(6, 9), [], [3, 4, 9, 10, 11]], pos,
        )
        engines = [BatchedPairEngine(kern, backend=b) for b in ("numpy", "c")]
        ref, got = (e.evaluate(batch, pos, np.ones(12)) for e in engines)
        assert np.abs(ref[[0, 1, 3, 4]]).min() > 0 and not ref[2].any()
        assert np.array_equal(ref, got)
        assert engines[0].last_pairs == engines[1].last_pairs
        for solver in ("treepm", "p3m"):
            built = make_solver(solver, kern, "c")
            assert built.accelerations_cloud(pos, np.ones(12), 0).shape \
                == (0, 3)
        empty = engines[1].evaluate(InteractionBatch.empty(), pos, np.ones(12))
        assert not empty.any()

    @pytest.mark.chaos
    def test_chaos_lane_simulation_runs_on_c(self):
        cfg = SimulationConfig(
            box_size=64.0,
            n_per_dim=8,
            z_initial=25.0,
            z_final=10.0,
            n_steps=2,
            backend="treepm",
            kernel_backend="c",
            seed=11,
        )
        sim = HACCSimulation(cfg)
        assert sim.kernel_backend == "c"
        sim.run()
        ref = HACCSimulation(cfg.with_(kernel_backend="numpy"))
        ref.run()
        assert np.array_equal(sim.particles.positions, ref.particles.positions)
        assert np.array_equal(sim.particles.momenta, ref.particles.momenta)

    def test_two_threads_on_disjoint_domains_match_serial(
        self, kernel, rng
    ):
        """The call drops the GIL; two domains evaluated concurrently,
        each by its own solver, reproduce the serial bits."""
        domains = [
            (clustered_cloud(rng, 400), rng.uniform(0.5, 1.5, 400))
            for _ in range(2)
        ]
        serial = [
            make_solver("treepm", kernel, "c").accelerations(p, m, BOX)
            for p, m in domains
        ]
        got = [None, None]

        def work(k):
            solver = make_solver("treepm", kernel, "c")
            for _ in range(5):
                got[k] = solver.accelerations(*domains[k], BOX)

        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in (0, 1):
            assert np.array_equal(got[k], serial[k])


# ----------------------------------------------------------------------
# the argument guard in front of the raw pointers
# ----------------------------------------------------------------------
@needs_c
class TestCArgumentGuard:
    @pytest.fixture()
    def call(self, kernel, rng):
        """``call(**overrides)`` runs one raw ``pair_accumulate`` on a
        small packed batch (some rows ghosts) and returns ``(acc,
        inside)``."""
        pos = clustered_cloud(rng, 90)
        tree = RCBTree(pos, rng.uniform(0.5, 1.5, 90), leaf_size=16)
        batch = pack_tree(tree, kernel.rcut, 70)
        base = dict(
            target_starts=batch.target_starts,
            target_counts=batch.target_counts,
            real=batch.real,
            source_starts=batch.source_starts,
            source_counts=batch.source_counts,
            range_offsets=batch.range_offsets,
            keep=batch.keep,
            px=np.ascontiguousarray(tree.positions[:, 0]),
            py=np.ascontiguousarray(tree.positions[:, 1]),
            pz=np.ascontiguousarray(tree.positions[:, 2]),
            msc=tree.masses.copy(),
            coeffs=np.asarray(kernel.fit.coefficients, dtype=np.float64),
            eps=np.float64(kernel.eps_cells),
            rc2_cells=np.float64(kernel.fit.rcut_cells**2),
            inv_sp2=np.float64(1.0),
            workspace=None,
        )

        def run(backend="c", **overrides):
            args = {**base, **overrides}
            args.setdefault("acc", np.zeros((90, 3)))
            inside = get_backend(backend).pair_accumulate(**args)
            return args["acc"], inside

        run.base = base
        return run

    def test_copies_what_it_cannot_point_at(self, call):
        from repro.shortrange.batch import Workspace

        ref, ref_inside = call("numpy", workspace=Workspace())
        assert ref_inside > 0
        strided = np.zeros((90, 2))
        strided[:, 0] = call.base["px"]
        for overrides in (
            {},
            {"px": strided[:, 0]},                        # non-contiguous
            {"msc": call.base["msc"][::-1].copy()[::-1]},  # negative stride
            {"target_starts": call.base["target_starts"].astype(np.int32)},
            {"source_starts": list(call.base["source_starts"])},
            {"real": call.base["real"].astype(np.int64)},
            {"coeffs": list(call.base["coeffs"])},
        ):
            got, inside = call(**overrides)
            assert np.array_equal(got, ref), sorted(overrides)
            assert inside == ref_inside
        # float32 streams handed to a float64 accumulator are widened,
        # not reinterpreted
        px32 = call.base["px"].astype(np.float32)
        got, _ = call(px=px32)
        ref32, _ = call("numpy", px=px32.astype(np.float64),
                        workspace=Workspace())
        assert np.array_equal(got, ref32)

    def test_rejects_what_it_cannot_write_or_trust(self, call):
        with pytest.raises(ValueError, match="acc"):
            call(acc=np.zeros((90, 6))[:, ::2])            # non-contiguous
        with pytest.raises(ValueError, match="acc"):
            call(acc=np.zeros((90, 3), dtype=np.int64))    # wrong dtype
        with pytest.raises(ValueError, match="acc"):
            call(acc=np.zeros(270))                        # wrong shape
        with pytest.raises(ValueError, match="px"):
            call(px=call.base["px"][:50])                  # too short
        with pytest.raises(IndexError):
            call(source_starts=call.base["source_starts"] + 90)
        with pytest.raises(IndexError):
            call(target_starts=call.base["target_starts"] - 1)
        with pytest.raises(IndexError):
            call(source_counts=-call.base["source_counts"])
        with pytest.raises(ValueError, match="offsets"):
            call(range_offsets=call.base["range_offsets"] + 1)
        with pytest.raises(ValueError, match="offsets"):
            call(range_offsets=call.base["range_offsets"][::-1])
        with pytest.raises(ValueError, match="range_offsets"):
            call(range_offsets=call.base["range_offsets"][:-1])
        with pytest.raises(ValueError, match="real"):
            call(real=call.base["real"][:50])
        with pytest.raises(ValueError, match="keep"):
            call(keep=call.base["keep"][:1])


# ----------------------------------------------------------------------
# every pair path of this host against numpy
# ----------------------------------------------------------------------
#: the C pair paths, widest first
PAIR_PATHS = ("avx512", "avx2", "scalar")


@pytest.fixture(scope="module")
def pair_paths():
    """``{path: CBackend}`` for every pair path this host runs, from the
    widest its CPU has down to the scalar loop, each pinned through the
    loader hook."""
    from repro.shortrange.backends import c_backend

    if not HAVE_C:
        pytest.skip("no working C compiler")
    widest = get_backend("c").simd
    paths = {}
    for path in PAIR_PATHS[PAIR_PATHS.index(widest):]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(c_backend, "_pair_path", lambda dll, p=path: p)
            paths[path] = c_backend.CBackend()
        assert paths[path].simd == path
    return paths


@needs_c
class TestPairLanes:
    """Every pair path of the host (target lanes of 8 on AVX-512, 4/8 on
    AVX2, the scalar loop) gives numpy's bits and pair count: ragged last
    batches, bisection ties, zero-separation pairs at ``eps = 0``,
    sources no lane accepts or whose box value is exactly ``rc2``, lists
    longer than a numpy tile, empty groups, batches without
    targets, sources packed from row ranges through a culled keep mask
    with ghost rows among the targets, and two threads on one
    backend."""

    @staticmethod
    def evaluate(fit, paths, batch, pos, dtype, eps=0.01):
        """``(acc, inside)`` of numpy, after checking that every path
        gives the same bytes and count."""
        kern = ShortRangeKernel(fit, spacing=1.0, eps_cells=eps,
                                dtype=dtype)
        masses = np.linspace(0.5, 1.5, pos.shape[0])
        out = {}
        for backend in ("numpy", *paths.values()):
            engine = BatchedPairEngine(kern, backend=backend)
            acc = engine.evaluate(batch, pos, masses)
            out[getattr(backend, "simd", None) or backend] = (
                acc, engine.last_pairs[1])
        ref, n_ref = out.pop("numpy")
        assert engine.last_pairs[0] == batch.n_pairs
        for path, (acc, n) in out.items():
            assert acc.dtype == dtype
            assert acc.tobytes() == ref.tobytes(), path
            assert n == n_ref, path
        return ref, n_ref

    def test_the_host_runs_its_widest_path(self, pair_paths):
        flags = _cpu_flags()
        if flags is None:
            pytest.skip("no /proc/cpuinfo flags to compare with")
        widest = ("avx512" if {"avx512f", "avx512dq", "avx512vl"} <= flags
                  else "avx2" if "avx2" in flags else "scalar")
        assert list(pair_paths) == list(PAIR_PATHS[
            PAIR_PATHS.index(widest):])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nt", [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 127])
    def test_ragged_target_blocks(self, grid_force_fit, pair_paths,
                                  rng, dtype, nt, listed_batch):
        """A group of ``nt`` targets fills whole blocks and a padded last
        one; its list is every particle, so each target meets itself."""
        n = 200
        pos = clustered_cloud(rng, n)
        batch = listed_batch([0, nt], [nt, 5],
                             [rng.permutation(n), rng.choice(n, 50)], pos)
        acc, inside = self.evaluate(grid_force_fit, pair_paths,
                                    batch, pos, dtype)
        assert inside > 0 and np.abs(acc[:nt]).max() > 0
        assert not acc[nt + 5:].any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bisection_ties(self, grid_force_fit, pair_paths, rng, dtype,
                            listed_batch):
        """Groups of many batches whose targets tie on the longest side,
        or sit on one point, or on a line: the stable sort keeps list
        order among ties and every target still gets its own sum."""
        pos = clustered_cloud(rng, 300)
        pos[:40, 0] = pos[0, 0]          # 40 targets tied in x
        pos[40:80] = pos[40]             # 40 coincident targets
        pos[80:120, 1:] = pos[80, 1:]    # 40 on a line along x
        pos[80:120, 0] = np.round(pos[80:120, 0], 1)  # with ties on it
        batch = listed_batch([0, 40, 80], [40, 40, 40], [range(300)] * 3,
                             pos)
        acc, inside = self.evaluate(grid_force_fit, pair_paths, batch,
                                    pos, dtype)
        assert inside > 0 and np.isfinite(acc).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_sources", [1, 2, 7, 16, 17])
    def test_cull_runs_per_chunk(self, grid_force_fit, pair_paths, rng,
                                 dtype, n_sources, listed_batch):
        """The AVX-512 cull reads a group's list one vector chunk of
        sources at a time (8 in f64, 16 in f32): lists of 1, 2, 7, 16 and
        17 sources, near and far alternating, end in a partial chunk,
        fill one, or spill one source into the next, and an odd count
        ends f32's source pairs on the padding."""
        near = 5.0 + rng.normal(0.0, 0.2, (50, 3))  # one tight cluster
        far = near[:25] + rng.choice([-1.0, 1.0], (25, 3)) * 3 * (
            grid_force_fit.rcut_cells)
        pos = np.concatenate([near, far])
        # near sources that are not targets, each followed by a far one
        src = np.stack([np.arange(21, 46), np.arange(50, 75)], 1).ravel()
        batch = listed_batch([0], [21], [src[:n_sources]], pos)
        acc, inside = self.evaluate(grid_force_fit, pair_paths, batch,
                                    pos, dtype)
        assert inside > 0 and np.abs(acc[:21]).min() > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_list_longer_than_a_tile(self, grid_force_fit, pair_paths, rng,
                                     dtype):
        """One target against one range of more than 2^18 kept sources:
        numpy tiles it one target at a time, and every path sums the
        whole list in one partial, so all give the same bits and count."""
        n = 3 << 17  # a split into 2^18-source partials changes both dtypes
        rc = grid_force_fit.rcut_cells
        pos = rng.uniform(0.0, 2.0 * rc, (n, 3))
        pos[0] = rc  # the target, at the centre of the cloud
        batch = tighten_ranges([0], [1], [0], [n], [0, 1],
                               np.arange(n) == 0, pos, np.inf, "numpy")
        assert batch.n_sources[0] == n > 1 << 18
        acc, inside = self.evaluate(grid_force_fit, pair_paths, batch,
                                    pos, dtype)
        assert inside > 1 << 17 and np.abs(acc[0]).min() > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_box_value_exactly_rc2(self, pair_paths, dtype):
        """rc2 = 9: 8 targets span x in [0, 1]; a source at x = 4 has box
        value 9, not < rc2, so it is culled, and no lane is inside (the
        target at x = 1 has s2 = 9 exactly); one ulp nearer it is kept
        and the x = 1 lane is inside."""
        t = np.dtype(dtype).type
        near = np.nextafter(t(4), t(0))
        pos = np.zeros((11, 3), dtype=dtype)
        pos[:8, 0] = np.linspace(0.0, 1.0, 8)
        pos[8:, 0] = [4.0, near, 4.5]
        args = dict(
            target_starts=np.array([0]), target_counts=np.array([8]),
            real=np.ones(11, dtype=bool), px=pos[:, 0].copy(), py=pos[:, 1].copy(), pz=pos[:, 2].copy(),
            msc=np.ones(11, dtype=dtype),
            coeffs=np.array([0.5, -0.01], dtype=dtype), eps=t(0.01),
            rc2_cells=t(9.0), inv_sp2=t(1.0),
        )
        counts = []
        for sources in ([8], [8, 10], [9], [8, 9, 10]):
            ref = None
            for backend in (get_backend("numpy"), *pair_paths.values()):
                acc = np.zeros((11, 3), dtype=dtype)
                inside = backend.pair_accumulate(
                    source_starts=np.array(sources),
                    source_counts=np.ones(len(sources), dtype=np.int64),
                    range_offsets=np.array([0, len(sources)]),
                    keep=np.full(1, 2**64 - 1, dtype=np.uint64),
                    acc=acc, workspace=Workspace(), **args)
                got = (acc.tobytes(), inside)
                assert ref is None or got == ref, (sources, backend.simd)
                ref = got
            counts.append(ref[1])
        assert counts == [0, 0, 1, 1]

    def test_two_threads_on_one_backend(self, grid_force_fit, pair_paths,
                                        rng):
        """Each path drops the GIL: two threads, each with its own engine
        (so its own workspace), evaluate different batches through one
        backend object and reproduce the serial bits."""
        kern = ShortRangeKernel(grid_force_fit, spacing=1.0, eps_cells=0.01)
        trees = [RCBTree(clustered_cloud(rng, 2000), leaf_size=64)
                 for _ in range(2)]
        batches = [pack_tree(t, kern.fit.rcut_cells, backend="c")
                   for t in trees]
        clouds = [t.positions for t in trees]
        masses = np.ones(2000)
        for backend in pair_paths.values():
            serial = [BatchedPairEngine(kern, backend=backend).evaluate(
                b, p, masses) for b, p in zip(batches, clouds)]
            got = [None, None]

            def work(k):
                engine = BatchedPairEngine(kern, backend=backend)
                for _ in range(4):
                    got[k] = engine.evaluate(batches[k], clouds[k], masses)

            threads = [threading.Thread(target=work, args=(k,))
                       for k in (0, 1)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
                assert not th.is_alive()
            for k in (0, 1):
                assert got[k].tobytes() == serial[k].tobytes(), backend.simd

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_separation_pairs_at_zero_softening(
        self, grid_force_fit, pair_paths, rng, dtype, listed_batch
    ):
        """A target meeting itself or a coincident twin has ``s2 = 0``:
        rejected by the cutoff test, it would give ``1/0 = inf`` at
        ``eps = 0``, and ``inf * 0 = NaN`` if a lane mask multiplied."""
        pos = clustered_cloud(rng, 60)
        pos[1::2] = pos[0::2]  # every even particle has a coincident twin
        batch = listed_batch([0], [11], [range(60)], pos)
        acc, inside = self.evaluate(grid_force_fit, pair_paths,
                                    batch, pos, dtype, eps=0.0)
        assert inside > 0 and np.isfinite(acc).all()
        assert np.abs(acc[:11]).min() > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sources_no_lane_accepts(self, grid_force_fit, pair_paths,
                                     rng, dtype, listed_batch):
        """Far sources interleaved in the list are skipped whole: the
        bits and count equal those of the list without them."""
        near = clustered_cloud(rng, 40)
        far = rng.uniform(0.0, BOX, (40, 3)) + 10 * BOX
        pos = np.concatenate([near, far])
        mixed = np.stack([np.arange(40), np.arange(40, 80)], 1).ravel()
        results = [
            self.evaluate(
                grid_force_fit, pair_paths,
                listed_batch([0], [13], [src], pos),
                pos, dtype,
            )
            for src in (mixed, np.arange(40))
        ]
        (with_far, n_with), (without, n_without) = results
        assert n_with == n_without > 0
        assert with_far.tobytes() == without.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_groups_and_no_targets(self, grid_force_fit, pair_paths,
                                         rng, dtype, listed_batch):
        pos = rng.uniform(0.0, 3.0, (12, 3))
        # {0..4} x 6 sources, {} x 3 sources, {5} x none, {6..10} x 5
        batch = listed_batch(
            [0, 5, 5, 6], [5, 0, 1, 5],
            [range(6), range(6, 9), [], [3, 4, 9, 10, 11]], pos,
        )
        acc, _ = self.evaluate(grid_force_fit, pair_paths, batch,
                               pos, dtype)
        assert not acc[5].any() and np.abs(acc[:5]).min() > 0
        # groups whose rows are all ghosts, and a group of no rows
        no_targets = listed_batch([0, 3, 3], [3, 4, 0],
                                  [range(3), range(7), range(4)], pos,
                                  np.arange(12) >= 7)
        acc, inside = self.evaluate(grid_force_fit, pair_paths,
                                    no_targets, pos, dtype)
        assert inside == 0 and not acc.any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_range_and_mask_batches(self, grid_force_fit, pair_paths, rng,
                                    dtype):
        """Packed trees with ghost rows: each group's sources are packed
        from its hit leaves' row ranges through the culled keep mask, on
        every path."""
        pos, m = periodic_ghosts(clustered_cloud(rng, 600), np.ones(600),
                                 BOX, 3.0)
        tree = RCBTree(pos.astype(dtype), m, leaf_size=32)
        batch = pack_tree(tree, 3.0, 600)
        candidates = int(batch.source_counts.sum())
        assert 0 < batch.n_sources.sum() < candidates
        acc, inside = self.evaluate(grid_force_fit, pair_paths, batch,
                                    tree.positions, dtype)
        assert inside > 0 and not acc[tree.perm >= 600].any()


# ----------------------------------------------------------------------
# the build cache
# ----------------------------------------------------------------------
_PROBE = """
import hashlib, numpy as np
from repro.shortrange.backends import get_backend
from repro.shortrange.grid_force import default_grid_force_fit
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import TreePMShortRange
rng = np.random.default_rng(5)
pos = rng.uniform(0.0, 10.0, (300, 3))
kern = ShortRangeKernel(default_grid_force_fit(), spacing=1.0)
acc = TreePMShortRange(kern, leaf_size=16, kernel_backend="c").accelerations(
    pos, np.ones(300), 10.0)
print(get_backend("c").name, hashlib.sha256(acc.tobytes()).hexdigest())
"""


@pytest.fixture(scope="session")
def cold_cache(tmp_path_factory):
    """A cache root the C library was built into cold, once for the
    suite: the tests that do not rebuild read it."""
    from repro.shortrange.backends import c_backend

    if not HAVE_C:
        pytest.skip("no working C compiler")
    root = tmp_path_factory.mktemp("c-cold")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(root))
        c_backend.CBackend()
    return root


@needs_c
class TestCBuildCache:
    """The per-user library cache.  One cold build (``cold_cache``)
    serves the tests that check a build; the rebuilds, the fallback
    directory and the racing processes compile for real."""

    @staticmethod
    def fresh(monkeypatch, cache):
        """A new CBackend whose cache root is ``cache``."""
        from repro.shortrange.backends.c_backend import CBackend

        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        return CBackend()

    @staticmethod
    def forces(backend, kernel):
        pos = clustered_cloud(np.random.default_rng(3), 200)
        return make_solver("treepm", kernel, backend).accelerations(
            pos, np.ones(200), BOX
        )

    def test_cold_build_publishes_one_library(
        self, monkeypatch, cold_cache, kernel
    ):
        libs = list((cold_cache / "repro" / "kernels").iterdir())
        assert [p.suffix for p in libs] == [".so"]  # no temp file left
        assert len(libs[0].stem) == 64
        backend = self.fresh(monkeypatch, cold_cache)
        assert set(backend.build_info) == {
            "compiler", "flags", "source_sha256"
        }
        assert "-ffp-contract=off" in backend.build_info["flags"]
        ref = self.forces("numpy", kernel)
        assert np.array_equal(self.forces(backend, kernel), ref)

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "empty"])
    def test_damaged_cache_entry_is_rebuilt(
        self, monkeypatch, tmp_path, kernel, damage, cold_cache
    ):
        (lib,) = (cold_cache / "repro" / "kernels").iterdir()
        # the damaged copy lives in a cache nothing has loaded from
        bad_dir = tmp_path / "bad" / "repro" / "kernels"
        bad_dir.mkdir(parents=True)
        blob = lib.read_bytes()
        (bad_dir / lib.name).write_bytes(
            {"garbage": b"not an ELF file" * 64,
             "truncated": blob[: len(blob) // 2],
             "empty": b""}[damage]
        )
        backend = self.fresh(monkeypatch, tmp_path / "bad")
        assert (bad_dir / lib.name).stat().st_size > len(blob) // 2
        ref = self.forces("numpy", kernel)
        assert np.array_equal(self.forces(backend, kernel), ref)

    def test_unwritable_cache_dir_falls_back_to_a_temp_dir(
        self, monkeypatch, tmp_path, kernel
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        backend = self.fresh(monkeypatch, blocker / "cache")
        assert blocker.read_text() == "not a directory"
        ref = self.forces("numpy", kernel)
        assert np.array_equal(self.forces(backend, kernel), ref)

    def test_failed_build_is_backend_unavailable(
        self, monkeypatch, tmp_path
    ):
        from repro.shortrange.backends import c_backend

        monkeypatch.setattr(
            c_backend, "_FLAGS", c_backend._FLAGS + ("--no-such-flag",)
        )
        with pytest.raises(BackendUnavailable, match="failed"):
            self.fresh(monkeypatch, tmp_path)
        assert not list((tmp_path / "repro" / "kernels").iterdir())

    def test_two_processes_racing_a_cold_cache(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC),
               "XDG_CACHE_HOME": str(tmp_path)}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _PROBE], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
            assert out.startswith("c ")
        assert outs[0][0] == outs[1][0]
        libs = list((tmp_path / "repro" / "kernels").iterdir())
        assert [p.suffix for p in libs] == [".so"]


@needs_c
def test_a_warm_load_starts_no_process(cold_cache):
    """Only a build asks the compiler for its version: a load from a warm
    cache imports no ``subprocess`` and reads the compiler line the
    build compiled into the library."""
    code = ("import sys\nfrom repro.shortrange.backends import get_backend\n"
            "info = get_backend('c').build_info\n"
            "print('subprocess' in sys.modules)\nprint(info['compiler'])")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC),
           "XDG_CACHE_HOME": str(cold_cache)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    env_cc = os.environ.get("CC")
    for cc in ([env_cc] if env_cc else ["cc", "gcc"]):
        try:  # the compiler the build found first
            version = subprocess.run(cc.split() + ["--version"], check=True,
                                     capture_output=True, text=True).stdout
            break
        except (OSError, subprocess.CalledProcessError):
            continue
    assert out == ["False", version.splitlines()[0].strip()]


# ----------------------------------------------------------------------
# The gate's kernel rows: absolute ns-per-streamed-pair ceilings
# ----------------------------------------------------------------------
class TestKernelCeilingGate:
    @pytest.fixture()
    def gate(self):
        import importlib.util

        path = os.path.join(SRC, os.pardir, "benchmarks",
                            "check_regression.py")
        spec = importlib.util.spec_from_file_location("check_regression",
                                                      path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        kernel_rows = tuple(b for b in mod.BARS if b.record == "kernels")

        def run(readings, backends=("numpy", "c"), kernel=None, simd=None):
            """``kernel``: kernel-only readings; ``simd``: the C path.
            Returns ``(failures, {label: status})`` of the kernel rows."""
            entries = [
                {"backend": b, "precision": p, "ns_per_pair": ns}
                for (b, p), ns in readings.items()
            ]
            for e in entries:
                key = (e["backend"], e["precision"])
                if kernel is not None and key in kernel:
                    e["kernel_ns_per_pair"] = kernel[key]
                if simd is not None and e["backend"] == "c":
                    e["kernel_simd"] = simd
            rec = {"payload": {"backends": list(backends),
                               "entries": entries}}
            failures, rows = mod.judge({"kernels": rec}, kernel_rows)
            return failures, {r[1]: r[-1] for r in rows}

        run.ceilings = mod.KERNEL_NS_PER_PAIR_CEILINGS
        run.kernel_ceilings = mod.KERNEL_ONLY_NS_PER_PAIR_CEILINGS
        run.max_ratio = mod.KERNEL_F32_OVER_F64_MAX
        run.mod = mod
        return run

    def test_every_measured_configuration_is_held_to_its_ceiling(self, gate):
        under = {k: 0.5 * v for k, v in gate.ceilings.items()}
        failures, status = gate(under)
        assert failures == []
        assert [status[f"{b}/{p} ns/pair"] for b, p in under] == \
            ["ok"] * len(under)
        over = dict(under)
        over[("c", "f32")] = 1.01 * gate.ceilings[("c", "f32")]
        failures, _ = gate(over)
        assert len(failures) == 1 and "c/f32 ns/pair" in failures[0]

    def test_unknown_configuration_and_missing_backend(self, gate, capsys):
        failures, _ = gate({("fortran", "f64"): 1.0}, backends=["fortran"])
        assert failures == ["kernels: fortran/f64 has no row in BARS"]
        numpy_only = {k: 1.0 for k in gate.ceilings if k[0] == "numpy"}
        failures, status = gate(numpy_only, backends=["numpy"])
        assert failures == []
        assert sorted(k for k, v in status.items() if v == "skipped") == [
            "c f32/f64 kernel-only", "c/f32 kernel-only ns/pair",
            "c/f32 ns/pair", "c/f64 kernel-only ns/pair", "c/f64 ns/pair",
        ]
        assert "PROVENANCE MISMATCH" in capsys.readouterr().out

    def test_committed_record_passes(self, gate):
        path = os.path.join(SRC, os.pardir, "BENCH_kernels.json")
        payload = json.load(open(path))["payload"]
        assert set(payload["backends"]) == {"numpy", "c"}
        failures, _ = gate({
            (e["backend"], e["precision"]): e["ns_per_pair"]
            for e in payload["entries"]
        })
        assert failures == []

    def test_committed_record_passes_the_whole_gate(self, gate):
        """Every row of the table, each record read from the repo root as
        the gate reads it, on the core count the executor record was
        measured with: the kernel-only ceilings and the f32/f64 ratio
        hold too when the kernels record ran target lanes."""
        root = Path(SRC).parent
        cores = json.load(open(root / "BENCH_executor.json"))[
            "payload"]["host_cores"]
        failures, rows = gate.mod.judge({}, cores=cores)
        assert failures == []
        status = {r[1]: r[-1] for r in rows}
        entries = json.load(open(root / "BENCH_kernels.json"))[
            "payload"]["entries"]
        if {e.get("kernel_simd") for e in entries
                if e["backend"] == "c"} <= {"avx2", "avx512"}:
            assert status["c f32/f64 kernel-only"] == "ok"

    @staticmethod
    def lanes_record(gate, f64, f32, simd):
        under = {k: 0.5 * v for k, v in gate.ceilings.items()}
        return gate(under, kernel={("c", "f64"): f64, ("c", "f32"): f32},
                    simd=simd)

    def test_avx2_kernel_only_ceilings_and_f32_ratio(self, gate):
        self.check_lanes_bars(gate, "avx2")

    def test_avx512_kernel_only_ceilings_and_f32_ratio(self, gate):
        """The AVX-512 lanes cannot skip the bars the AVX2 lanes hold."""
        self.check_lanes_bars(gate, "avx512")

    def check_lanes_bars(self, gate, simd):
        """A target-lane record is held to the kernel-only ceilings and
        the f32/f64 bar."""
        f64_bar = gate.kernel_ceilings[("c", "f64")]
        f32_bar = gate.kernel_ceilings[("c", "f32")]
        # 0.5 x the f64 bar against 0.3 x: in both ceilings, ratio 0.6
        failures, status = self.lanes_record(gate, 0.5 * f64_bar,
                                             0.3 * f64_bar, simd)
        assert failures == []
        assert list(status.values()) == ["ok"] * 7
        # under both ceilings, but f32 barely cheaper than f64
        f64 = 0.9 * f32_bar
        ratio = 1.01 * gate.max_ratio
        failures, _ = self.lanes_record(gate, f64, ratio * f64, simd)
        assert len(failures) == 1 and "c f32/f64 kernel-only" in failures[0]
        # f64 above its kernel-only ceiling; the ratio itself holds
        failures, _ = self.lanes_record(gate, 1.01 * f64_bar,
                                        0.5 * f32_bar, simd)
        assert len(failures) == 1 and "c/f64 kernel-only" in failures[0]
        # a target-lane record must carry its kernel-only readings
        under = {k: 0.5 * v for k, v in gate.ceilings.items()}
        failures, status = gate(under, simd=simd)
        assert len(failures) == 3
        assert [v for k, v in status.items() if "kernel-only" in k] == \
            ["FAIL"] * 3

    def test_scalar_record_skips_the_ratio(self, gate, capsys):
        """A host without AVX2 runs the scalar loop, where f32 costs what
        f64 costs: the ratio and kernel-only ceilings are reported, not
        checked; the end-to-end ceilings still are."""
        under = {k: 0.5 * v for k, v in gate.ceilings.items()}
        slow = {("c", "f64"): 6.0, ("c", "f32"): 6.0}
        failures, status = gate(under, kernel=slow, simd="scalar")
        assert failures == []
        assert [v for k, v in status.items() if "kernel-only" in k] == \
            ["skipped"] * 3
        assert "the C kernel ran scalar" in capsys.readouterr().out
        over = dict(under)
        over[("c", "f64")] = 1.01 * gate.ceilings[("c", "f64")]
        failures, _ = gate(over, kernel=slow, simd="scalar")
        assert len(failures) == 1 and "c/f64 ns/pair" in failures[0]


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

    @pytest.mark.parametrize("backend", ["numpy",
                                         pytest.param("c", marks=needs_c)])
    def test_interpolate_refuses_corners_of_another_dtype(self, rng,
                                                          backend):
        """Corners a float32 deposit returned are not cast for a float64
        gather (nor the grid down to float32): the call is refused."""
        pos = rng.uniform(0.0, BOX, (200, 3))
        grid, corners = cic_deposit(pos, 8, BOX, dtype=np.float32,
                                    backend=backend, return_corners=True)
        with pytest.raises(ValueError, match="corners are float32"):
            cic_interpolate(grid, pos, BOX, backend=backend, corners=corners)
        out = cic_interpolate(grid, pos, BOX, dtype=np.float32,
                              backend=backend, corners=corners)
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
# CIC: the table-free C loops against the numpy corner tables
# ----------------------------------------------------------------------
def edge_values(box, dtype):
    """Coordinates where wrap/scale/fold/clip take their rare branches."""
    t = np.dtype(dtype).type
    b = t(box)
    return np.array(
        [0.0, b, -0.0, np.nextafter(b, t(0)), -b, 2 * b, -1e-30, -2.5 * b,
         np.nextafter(t(0), t(1)), 3.75 * b, 0.5 * b, -np.nextafter(b, t(0))],
        dtype=dtype,
    )


def assert_same_bits(ref, got):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert ref.tobytes() == got.tobytes()  # signed zeros included


def per_grid_gather(grids, pos, box):
    """The reference gather: each ``(n, n, n)`` grid on its own through
    the corner tables, ``acc + g*w`` over the corners in order."""
    coords = ParticleGridCoords(pos, grids[0].shape[0], box)
    out = np.zeros((len(pos), len(grids)), dtype=coords.weights.dtype)
    for k, grid in enumerate(grids):
        for c in range(8):
            out[:, k] += grid.reshape(-1)[coords.flat[c]] * coords.weights[c]
    return out


def deposit(backend, pos, masses, n, box, workspace=None):
    """A backend's corners pass and deposit from those corners."""
    corners = backend.cic_corners(pos, n, box, workspace)
    return backend.cic_deposit(*corners, masses, n, workspace)


def assert_cic_bitwise(cbackend, pos, masses, n, box, ngrids=3, seed=0):
    """C corners and deposit are the numpy backend's bits, and both
    backends' gathers from those corners on the interleaved grid are the
    per-grid reference gather's."""
    ref_backend = get_backend("numpy")
    corners = ref_backend.cic_corners(pos, n, box)
    c_corners = cbackend.cic_corners(pos, n, box)
    for ref, got in zip(corners, c_corners):
        assert_same_bits(ref, got)
    assert_same_bits(
        ref_backend.cic_deposit(*corners, masses, n),
        cbackend.cic_deposit(*c_corners, masses, n),
    )
    rng = np.random.default_rng(seed)
    grids = [rng.normal(size=(n, n, n)).astype(pos.dtype)
             for _ in range(ngrids)]
    ref = per_grid_gather(grids, pos, box)
    grid = np.stack(grids, axis=-1)
    for backend, cs in ((ref_backend, corners), (cbackend, c_corners)):
        assert_same_bits(ref, backend.cic_gather(grid, *cs))


@st.composite
def cic_clouds(draw):
    """(positions, masses or None, n, box) — uniform in and far outside
    the box, a share of the coordinates replaced by edge values."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.sampled_from([2, 3, 5, 8]))
    box = draw(st.sampled_from([0.3, 7.0, 25.0, 64.0]))
    npart = draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.uniform(-2.0 * box, 3.0 * box, (npart, 3)).astype(dtype)
    edge = rng.random((npart, 3)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    pos[edge] = rng.choice(edge_values(box, dtype), int(edge.sum()))
    masses = (rng.uniform(0.5, 1.5, npart).astype(dtype)
              if draw(st.booleans()) else None)
    return pos, masses, n, box


@needs_c
class TestCICBitwise:
    """``cic_deposit`` / ``cic_gather`` in C equal the numpy corner
    tables bit for bit: same wrap, same weights, same summation order."""

    @settings(max_examples=60, deadline=None)
    @given(cloud=cic_clouds())
    def test_property_c_equals_numpy(self, cloud):
        pos, masses, n, box = cloud
        # 1 to 5 interleaved components: every remainder of the kernel's
        # three-at-a-time rows
        assert_cic_bitwise(get_backend("c"), pos, masses, n, box,
                           ngrids=1 + len(pos) % 5)

    @pytest.mark.parametrize("dtype,box,n", [
        (np.float64, 25.0, 5),   # nextafter(box, 0) scales to exactly n
        (np.float32, 7.0, 2),    # ... and in float32
        (np.float64, 64.0, 16),
        (np.float32, 0.3, 3),
    ])
    def test_every_edge_combination(self, cbackend, rng, dtype, box, n):
        edges = edge_values(box, dtype)
        pos = np.stack(np.meshgrid(edges, edges, edges, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        t = np.dtype(dtype).type
        just_below = np.nextafter(t(box), t(0))
        folds = np.mod(just_below, t(box)) * t(n / box) >= n
        assert bool(folds) == ((box, n) in ((25.0, 5), (7.0, 2)))
        for masses in (None, rng.uniform(0.5, 1.5, len(pos)).astype(dtype)):
            assert_cic_bitwise(cbackend, pos, masses, n, box)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lattice_ordered_cloud(self, cbackend, rng, dtype):
        """A simulation's shape: a jittered IC lattice, 32^3 grid."""
        x = (np.arange(32) + 0.5) * 2.0
        pos = np.stack(np.meshgrid(x, x, x, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        pos = (pos + rng.normal(0.0, 0.7, pos.shape)).astype(dtype)
        masses = np.ones(len(pos), dtype=dtype)
        assert_cic_bitwise(cbackend, pos, masses, 32, 64.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_crowded_cells(self, cbackend, dtype, n):
        """Thousands of particles on a tiny grid, masses over twelve
        decades: the C deposit is numpy's bit for bit only if every
        corner sums the same terms in the same order and the corners
        fold in the same order.  The data can see both: folding a
        ``(dx, dy)`` pair's two ``dz`` corners as one double sum (one
        slot instead of two) changes the grid, and in float64 so does
        reversing the particles.  (In float32 a corner's double sum of
        these terms rounds below float32 resolution, so the particle
        order is invisible there.)"""
        rng = np.random.default_rng(n)
        npart = 5000
        pos = rng.uniform(0.0, BOX, (npart, 3)).astype(dtype)
        masses = (10.0 ** rng.uniform(-6.0, 6.0, npart)).astype(dtype)
        ref_backend = get_backend("numpy")
        ref = deposit(ref_backend, pos, masses, n, BOX)
        assert_same_bits(ref, deposit(cbackend, pos, masses, n, BOX))

        coords = ParticleGridCoords(pos, n, BOX)
        terms = masses * coords.weights
        merged = np.zeros(n**3, dtype=dtype)
        for q in range(4):
            pair = slice(2 * q, 2 * q + 2)
            merged += np.bincount(
                coords.flat[pair].T.reshape(-1),
                weights=terms[pair].T.reshape(-1), minlength=n**3,
            ).astype(dtype)
        assert merged.tobytes() != ref.tobytes()
        if dtype == np.float64:
            rev = deposit(ref_backend, pos[::-1].copy(),
                          masses[::-1].copy(), n, BOX)
            assert rev.tobytes() != ref.tobytes()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_corners_outside_the_grid_are_refused(self, cbackend, bad):
        """Deposit and gather trust no base cell: one outside ``[0, n)``
        is an IndexError on both backends, never a read or write outside
        the grid."""
        pos = np.random.default_rng(3).uniform(0.0, BOX, (30, 3))
        grid = np.ones((4, 4, 4, 2))
        for backend in (get_backend("numpy"), cbackend):
            base, frac = (a.copy() for a in backend.cic_corners(pos, 4, BOX))
            base[17, 1] = bad
            with pytest.raises(IndexError, match="outside the 4"):
                backend.cic_deposit(base, frac, None, 4)
            with pytest.raises(IndexError, match="outside the 4"):
                backend.cic_gather(grid, base, frac)
        with pytest.raises(ValueError, match="frac shape"):
            cbackend.cic_gather(grid, base[:-1], frac)

    def test_stream_refuses_what_it_cannot_write(self, cbackend):
        x = np.zeros((10, 3))
        with pytest.raises(ValueError, match="writeable C-contiguous"):
            cbackend.stream(np.zeros((10, 6))[:, ::2], x, 1.0, BOX)
        with pytest.raises(ValueError, match="momenta"):
            cbackend.stream(x, np.zeros((10, 3), np.float32), 1.0, BOX)

    def test_empty_cloud(self, cbackend):
        for dtype in (np.float64, np.float32):
            pos = np.zeros((0, 3), dtype=dtype)
            assert_cic_bitwise(cbackend, pos, None, 4, 10.0)
            assert not deposit(cbackend, pos, None, 4, 10.0).any()

    def test_public_functions_default_to_auto(self, cbackend, monkeypatch):
        """``backend=None`` resolves ``auto`` as a simulation run does,
        so timing the public functions times the path runs take."""
        seen = []
        for name in ("cic_corners", "cic_deposit", "cic_gather"):
            real = getattr(cbackend, name)
            monkeypatch.setattr(
                cbackend, name,
                lambda *a, _real=real, _name=name, **kw:
                    seen.append(_name) or _real(*a, **kw),
            )
        pos = np.random.default_rng(1).uniform(0.0, BOX, (40, 3))
        grid = cic_deposit(pos, 8, BOX)
        cic_interpolate(grid, pos, BOX)
        assert seen == ["cic_corners", "cic_deposit",
                        "cic_corners", "cic_gather"]

    def test_concurrent_deposits_with_own_workspaces(self, cbackend, rng):
        """The calls drop the GIL; two threads, each with its own
        workspace, reproduce the serial grids."""
        clouds = [(rng.uniform(0.0, BOX, (60_000, 3)),
                   rng.uniform(0.5, 1.5, 60_000)) for _ in range(2)]
        serial = [deposit(cbackend, p, m, 32, BOX) for p, m in clouds]
        got = [None, None]

        def work(k):
            ws = Workspace()
            for _ in range(4):
                got[k] = deposit(cbackend, *clouds[k], 32, BOX, ws)

        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in (0, 1):
            assert_same_bits(serial[k], got[k])

    def test_steady_state_pm_force_allocates_no_cic_temporary(
        self, monkeypatch
    ):
        """The second 32^3 evaluation's CIC calls allocate nothing above
        1 MB beyond the arrays they return (the corner tables they
        replaced were 2 MB each at this size; fresh corners would be
        1.2 MB), and the interleaved force grid is built in place: its
        transforms hold two half-spectra and no component copy."""
        import tracemalloc

        from repro.grid import poisson as poisson_mod

        x = (np.arange(32) + 0.5) * 2.0
        pos = np.stack(np.meshgrid(x, x, x, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        pos += np.random.default_rng(2).normal(0.0, 0.5, pos.shape)
        masses = np.ones(len(pos))
        solver = SpectralPoissonSolver(32, 64.0, kernel_backend="c")
        solver.accelerations(pos, masses)  # grows the workspace
        extra, handed = {}, []

        def measured(fn, name):
            def call(*args, **kwargs):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
                grid = out[0] if isinstance(out, tuple) else out
                extra[name] = peak - before - grid.nbytes
                handed.append(args[0])
                return out
            return call

        for name in ("cic_deposit", "cic_interpolate"):
            monkeypatch.setattr(poisson_mod, name,
                                measured(getattr(poisson_mod, name), name))
        monkeypatch.setattr(solver, "force_grid",
                            measured(solver.force_grid, "force_grid"))
        tracemalloc.start()
        try:
            solver.accelerations(pos, masses)
        finally:
            tracemalloc.stop()
        assert set(extra) == {"cic_deposit", "force_grid", "cic_interpolate"}
        assert extra["cic_deposit"] < 1 << 20, extra
        assert extra["cic_interpolate"] < 1 << 20, extra
        # the gather reads the force grid as it was built, no copy between
        fgrid = handed[-1]
        assert fgrid.shape == (32, 32, 32, 3) and fgrid.flags.c_contiguous
        # the filtered density's and one gradient's half-spectra plus the
        # transforms' line buffers: a component copy (262 KB) or a third
        # spectrum would not fit under three spectra
        spectrum = 32 * 32 * 17 * np.dtype(np.complex128).itemsize
        assert extra["force_grid"] < 3 * spectrum, extra


@pytest.mark.parametrize("backend", ["numpy", "c"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pm_force_never_reads_stale_corners(rng, backend, dtype):
    """Positions mutated in place between two solves (same array, as the
    stepper's stream leaves them) give the second solve a fresh solver's
    bits: the gather reads the corners its own deposit just found."""
    if backend == "c" and not HAVE_C:
        pytest.skip("no working C compiler")
    pos = rng.uniform(0.0, BOX, (2000, 3)).astype(dtype)
    masses = rng.uniform(0.5, 1.5, 2000).astype(dtype)
    solver = SpectralPoissonSolver(16, BOX, dtype=dtype,
                                   kernel_backend=backend)
    first = solver.accelerations(pos, masses)
    pos += rng.normal(0.0, 2.0, pos.shape).astype(dtype)
    np.mod(pos, dtype(BOX), out=pos)
    got = solver.accelerations(pos, masses)
    fresh = SpectralPoissonSolver(16, BOX, dtype=dtype,
                                  kernel_backend=backend)
    assert_same_bits(fresh.accelerations(pos.copy(), masses), got)
    assert not np.array_equal(first, got)


class TestCICNonFinite:
    """A NaN/inf coordinate has no cell: both backends refuse it with
    one message naming how many particles are affected (numpy used to
    clip NaN to cell 0 and deposit a NaN grid)."""

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_raises_with_the_count(self, rng, backend, dtype):
        if backend == "c" and not HAVE_C:
            pytest.skip("no working C compiler")
        pos = rng.uniform(0.0, BOX, (20, 3)).astype(dtype)
        pos[3, 1] = np.nan
        pos[7, 0] = np.inf
        pos[7, 2] = -np.inf
        pos[9, 2] = np.nan
        msg = r"cic: 3 particle position\(s\) are not finite"
        with pytest.raises(ValueError, match=msg):
            cic_deposit(pos, 8, BOX, dtype=dtype, backend=backend)
        grid = np.ones((8, 8, 8), dtype=dtype)
        with pytest.raises(ValueError, match=msg):
            cic_interpolate(grid, pos, BOX, dtype=dtype, backend=backend)


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
        assert auto.kernel_backend == ("c" if HAVE_C else "numpy")

    def test_simulation_casts_particles_to_f32(self):
        sim = HACCSimulation(tiny_config(dtype="f32"))
        assert sim.particles.positions.dtype == np.float32
        assert sim.particles.momenta.dtype == np.float32
        assert sim.particles.masses.dtype == np.float32
        assert sim.particles.ids.dtype == np.int64

    def test_explicit_unavailable_backend_fails_at_construction(
        self, no_compiler
    ):
        with pytest.raises(BackendUnavailable):
            HACCSimulation(tiny_config(kernel_backend="c"))
        # ... while the default degrades to numpy, same trajectory shape
        assert HACCSimulation(tiny_config()).kernel_backend == "numpy"

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

    def test_manifest_records_how_the_kernel_was_built(self):
        from repro.__main__ import _manifest_extra
        from repro.instrument.telemetry import run_manifest

        sim = HACCSimulation(tiny_config())
        m = run_manifest(sim.config, extra=_manifest_extra(sim))
        assert m["kernel_backend"] == sim.kernel_backend != "auto"
        if sim.kernel_backend == "c":
            assert set(m["kernel_build"]) == {
                "compiler", "flags", "source_sha256"
            }
        numpy_sim = HACCSimulation(tiny_config(kernel_backend="numpy"))
        assert "kernel_build" not in _manifest_extra(numpy_sim)

    @needs_c
    def test_manifest_records_which_pair_path_ran(self, monkeypatch):
        """``kernel_simd`` sits beside ``kernel_build`` (never inside it:
        ``build_info`` feeds the cache key) and says whether the AVX-512
        or AVX2 lanes or the scalar loop ran; numpy runs carry neither."""
        from repro.__main__ import _manifest_extra
        from repro.shortrange.backends import c_backend

        flags = _cpu_flags()
        extra = _manifest_extra(HACCSimulation(tiny_config(
            kernel_backend="c")))
        assert "kernel_simd" not in extra["kernel_build"]
        if flags is not None:
            assert extra["kernel_simd"] == (
                "avx512" if {"avx512f", "avx512dq", "avx512vl"} <= flags
                else "avx2" if "avx2" in flags else "scalar")
        monkeypatch.setattr(c_backend, "_pair_path", lambda dll: "scalar")
        monkeypatch.setattr(backends_mod, "_INSTANCES", {})
        extra = _manifest_extra(HACCSimulation(tiny_config(
            kernel_backend="c")))
        assert extra["kernel_simd"] == "scalar"
        numpy_sim = HACCSimulation(tiny_config(kernel_backend="numpy"))
        assert "kernel_simd" not in _manifest_extra(numpy_sim)

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
        assert ledger.query(kernel_backend="c") == []

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
            ["runs", "--kernel-backend", "c", "--precision", "f32"]
        )
        assert args.kernel_backend == "c"
        assert args.precision == "f32"
