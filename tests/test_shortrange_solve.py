"""The one-call short-range solve, ``KernelBackend.solve``.

Two properties.  First, ``solve`` *is* the composition it replaces:
on every backend and pair path the host runs, in float64 and float32,
its accelerations, ``(streamed, inside)`` pairs, tree depth and kept
sources per group equal, byte for byte, those of ``RCBTree`` ->
``pack_tree`` -> ``BatchedPairEngine.evaluate`` on the same backend,
and the solver built on it keeps its spans and counters.  Second, the
pair force is antisymmetric, so the short-range momentum change of a
solve over every particle (``n_targets = N``) is zero up to roundoff,
with and without periodic ghosts.

The momentum tolerance is a worst-case rounding bound.  The clouds sit
on a 2^-20 grid inside a box of 8, so positions, their periodic images
and every separation are exact in float32, and a pair's two separations
are exact negatives with the same squared distance and force
coefficient ``f``; with spacing 1 the masses enter unscaled.  What is
left: the term ``dx * (f * m_j)`` target ``i`` adds and its mirror
``-dx * (f * m_i)`` differ by at most ``4 u`` of ``|m_i m_j f dx|`` (two
roundings each, ``u`` the kernel precision's unit roundoff), ``2 u`` of
the gross momentum ``G = sum_i sum_j m_i m_j |f dx|`` over the pairs;
each target's double partial over at most ``M`` terms (``M`` the cloud
size) and its cast to the kernel precision add ``M u64 + u`` of ``G``;
the test's float64 sum over ``N`` targets adds ``(N + 1) u64``.  So
``|sum_i m_i a_i| <= (3 u + (M + N + 1) u64) G`` per component, to first
order (a 1% margin covers the rest): 1.8e-7 in float32, 2.7e-13 to
7.9e-13 in float64 at these sizes.  A pair lost on one side breaks it by
about 1/(pairs per target), far above either.
"""

import numpy as np
import pytest

from repro.instrument.registry import Registry, name_self_times, use
from repro.shortrange.backends import (
    BackendUnavailable,
    Workspace,
    get_backend,
)
from repro.shortrange.batch import BatchedPairEngine, pack_tree
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree
from repro.shortrange.solvers import TreePMShortRange, periodic_ghosts

BOX = 8.0
#: pair paths from the widest the CPU has down to the scalar loop
PATHS = ("avx512", "avx2", "scalar")


def _have_c() -> bool:
    try:
        get_backend("c")
    except BackendUnavailable:
        return False
    return True


@pytest.fixture(scope="module")
def backends():
    """``{name: backend}``: numpy, and a C backend per pair path."""
    out = {"numpy": get_backend("numpy")}
    if not _have_c():
        return out
    from repro.shortrange.backends import c_backend

    widest = get_backend("c").simd
    for path in PATHS[PATHS.index(widest):]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(c_backend, "_pair_path", lambda dll, p=path: p)
            out[f"c-{path}"] = c_backend.CBackend()
    return out


def kernel_of(fit, dtype):
    return ShortRangeKernel(fit, spacing=1.0, eps_cells=0.01, dtype=dtype)


def clustered(rng, n, box=BOX):
    """A clustered cloud on the 2^-20 grid of ``[0, box)``."""
    centres = rng.uniform(0.0, box, (max(n // 60, 2), 3))
    pos = centres[rng.integers(0, len(centres), n)]
    pos = np.mod(pos + rng.normal(0.0, 0.3, (n, 3)), box)
    return np.mod(np.round(pos * 2.0**20) / 2.0**20, box)


def composed(backend, kern, pos, m, n_targets, leaf):
    """The calls ``solve`` replaces, one by one."""
    tree = RCBTree(pos, m, leaf, backend=backend)
    batch = pack_tree(tree, kern.rcut, n_targets, backend)
    engine = BatchedPairEngine(kern, backend=backend)
    acc_tree = engine.evaluate(batch, tree.positions, tree.masses)
    acc = np.zeros((len(pos), 3), dtype=acc_tree.dtype)
    acc[tree.perm] = acc_tree
    return acc[:n_targets], engine.last_pairs, tree.depth(), batch.n_sources


def solved(backend, kern, pos, m, n_targets, leaf, ws=None):
    engine = BatchedPairEngine(kern, backend=backend)
    acc, pairs, depth, sizes, marks = backend.solve(
        pos, m, n_targets, leaf, kern.rcut, engine._coeffs, *engine.scalars,
        Workspace() if ws is None else ws)
    assert len(marks) == 4 and list(marks) == sorted(marks)
    return acc, pairs, depth, sizes


def assert_same(got, ref):
    acc, pairs, depth, sizes = got
    assert acc.dtype == ref[0].dtype and acc.shape == ref[0].shape
    assert acc.tobytes() == ref[0].tobytes()
    assert pairs == ref[1] and depth == ref[2]
    assert sizes.dtype == np.int64 and np.array_equal(sizes, ref[3])


class TestSolveIsTheComposition:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("which", ["none", "one", "half", "all"])
    def test_every_backend_and_target_count(self, grid_force_fit, backends,
                                            rng, dtype, which):
        """n_targets of 0, 1, N/2 and N over a cloud with its periodic
        ghosts: with few targets most leaves hold none and are no
        group; every backend and path gives numpy's composed bytes."""
        kern = kernel_of(grid_force_fit, dtype)
        n = 900
        pos, m = periodic_ghosts(clustered(rng, n).astype(dtype),
                                 rng.uniform(0.5, 1.5, n).astype(dtype),
                                 BOX, kern.rcut)
        n_targets = {"none": 0, "one": 1, "half": n // 2, "all": n}[which]
        ref = composed(backends["numpy"], kern, pos, m, n_targets, 16)
        assert (ref[1][0] > 0) == (n_targets > 0)
        for name, backend in backends.items():
            assert_same(composed(backend, kern, pos, m, n_targets, 16), ref)
            assert_same(solved(backend, kern, pos, m, n_targets, 16), ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_group_stream_longer_than_a_tile(self, grid_force_fit, backends,
                                             rng, dtype):
        """One dense clump: every leaf lists all of it, so a group
        streams more than the 2^18 pairs of a numpy tile."""
        kern = kernel_of(grid_force_fit, dtype)
        pos = (4.0 + rng.normal(0.0, 0.05, (2400, 3))).astype(dtype)
        m = np.ones(2400, dtype=dtype)
        ref = composed(backends["numpy"], kern, pos, m, 2400, 128)
        batch = pack_tree(RCBTree(pos, m, 128), kern.rcut, 2400)
        assert (batch.n_targets * batch.n_sources).max() > 1 << 18
        for backend in backends.values():
            assert_same(solved(backend, kern, pos, m, 2400, 128), ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_workspace_across_cloud_sizes(self, grid_force_fit,
                                              backends, rng, dtype):
        """A grow-only workspace serves clouds that grow, shrink and are
        empty; each call still equals the composition."""
        kern = kernel_of(grid_force_fit, dtype)
        for backend in backends.values():
            ws = Workspace()
            for n in (300, 1500, 40, 0, 1, 1500):
                pos = clustered(rng, n).astype(dtype)
                m = np.ones(n, dtype=dtype)
                ref = composed(backend, kern, pos, m, n, 8)
                assert_same(solved(backend, kern, pos, m, n, 8, ws), ref)

    @pytest.mark.parametrize("bad", ["nan", "mass"])
    def test_keeps_the_trees_input_errors(self, grid_force_fit, backends,
                                          rng, bad):
        kern = kernel_of(grid_force_fit, np.float64)
        pos = clustered(rng, 100)
        m = np.ones(100)
        if bad == "nan":
            pos[7, 1] = np.nan
        else:
            m[3] = 0.0
        for backend in backends.values():
            with pytest.raises(ValueError, match="RCBTree: 1 "):
                solved(backend, kern, pos, m, 100, 16)

    def test_positions_of_another_precision(self, grid_force_fit, backends,
                                            rng):
        """float64 positions under a float32 kernel: the tree is float64,
        the pairs float32, as the composition does it."""
        kern = kernel_of(grid_force_fit, np.float32)
        pos, m = clustered(rng, 400), np.ones(400)
        ref = composed(backends["numpy"], kern, pos, m, 400, 16)
        for backend in backends.values():
            assert_same(solved(backend, kern, pos, m, 400, 16), ref)

    def test_solver_keeps_its_spans_and_counters(self, grid_force_fit,
                                                 backends, rng):
        kern = kernel_of(grid_force_fit, np.float64)
        pos = clustered(rng, 600)
        for backend in backends.values():
            solver = TreePMShortRange(kern, leaf_size=16,
                                      kernel_backend=backend)
            reg = Registry()
            with use(reg), reg.span("shortrange"):
                solver.accelerations(pos, np.ones(600), box_size=BOX)
            cloud, cloud_m = periodic_ghosts(pos, np.ones(600), BOX,
                                             kern.rcut)
            ref = composed(backend, kern, cloud, cloud_m, 600, 16)
            assert solver.last_pairs == ref[1]
            assert solver.last_tree_depth == ref[2]
            assert np.array_equal(solver.last_list_sizes, ref[3])
            counters = reg.counters
            assert counters["pp.interactions"] == ref[1][0]
            assert counters["pp.batch.inside_pairs"] == ref[1][1]
            assert counters["tree.build_particles"] == len(cloud)
            assert counters["tree.list_length"] == ref[3].sum()
            times = name_self_times(reg.events)
            parent = next(e for e in reg.events if e.name == "shortrange")
            children = [e for e in reg.events if e.name != "shortrange"]
            assert sorted(e.path for e in children) == [
                "shortrange/pp.batch", "shortrange/tree.build",
                "shortrange/tree.walk"]
            for e in children:
                assert parent.start <= e.start <= e.end <= parent.end
            assert sum(times[e.name]["total_s"] for e in children) <= (
                times["shortrange"]["total_s"])


def gross_momentum(kern, pos, m, n_targets):
    """``G`` per component: ``sum_i sum_j m_i m_j |f(s_ij)| |dx_ij|`` over
    the first ``n_targets`` rows and the whole cloud, in float64."""
    k64 = kernel_of(kern.fit, np.float64)
    pos, m = pos.astype(np.float64), m.astype(np.float64)
    g = np.zeros(3)
    for lo in range(0, n_targets, 256):
        d = pos[lo:lo + 256, None, :] - pos[None, :, :]
        f = np.abs(k64.f_sr_cells(np.einsum("ijk,ijk->ij", d, d)))
        g += np.einsum("i,ij,j,ijk->k", m[lo:lo + 256], f, m, np.abs(d))
    return g


class TestMomentumConservation:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("ghosts", [False, True],
                             ids=["isolated", "periodic"])
    def test_pair_forces_cancel(self, grid_force_fit, backends, rng, dtype,
                                ghosts):
        kern = kernel_of(grid_force_fit, dtype)
        n = 1200
        pos = clustered(rng, n).astype(dtype)
        m = rng.uniform(0.5, 1.5, n).astype(dtype)
        if ghosts:
            pos, m = periodic_ghosts(pos, m, BOX, kern.rcut)
        u = np.finfo(dtype).eps / 2
        u64 = np.finfo(np.float64).eps / 2
        tol = 1.01 * (3 * u + (len(pos) + n + 1) * u64)
        g = gross_momentum(kern, pos, m, n)
        for name, backend in backends.items():
            acc = solved(backend, kern, pos, m, n, 16)[0]
            p = (m[:n, None].astype(np.float64) * acc).sum(axis=0)
            assert np.all(np.abs(p) <= tol * g), (name, p / g, tol)
            assert np.abs(acc).max() > 0
