"""Tests for the PP force kernel and the RCB tree.

The RCB build runs on either kernel backend; the compiled ``c`` build
must give the numpy reference loop's tree bit for bit, which needs
numpy's pairwise summation reproduced exactly (``TestRCBBackends``).
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument import Registry, use
from repro.instrument.perfcount import pair_flops
from repro.shortrange.backends import BackendUnavailable, get_backend
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree
from repro.shortrange.solvers import DirectShortRange


def _have_c() -> bool:
    try:
        get_backend("c")
    except BackendUnavailable:
        return False
    return True


needs_c = pytest.mark.skipif(not _have_c(), reason="no working C compiler")
TREE_FIELDS = ("perm", "positions", "masses", "node_start", "node_count",
               "node_lo", "node_hi", "node_left", "node_right")


@pytest.fixture()
def kernel(grid_force_fit):
    return ShortRangeKernel(grid_force_fit, spacing=1.0, eps_cells=0.0)


class TestKernelFunction:
    def test_matches_fit_short_range(self, kernel, grid_force_fit):
        s = np.array([0.5, 1.0, 4.0])
        assert np.allclose(kernel.f_sr_cells(s), grid_force_fit.short_range(s))

    def test_zero_outside_cutoff(self, kernel):
        assert np.all(kernel.f_sr_cells(np.array([9.0, 25.0])) == 0.0)

    def test_zero_at_zero_separation(self, kernel):
        assert float(kernel.f_sr_cells(np.array([0.0]))[0]) == 0.0

    def test_softening_caps_force(self, grid_force_fit):
        soft = ShortRangeKernel(grid_force_fit, 1.0, eps_cells=0.04)
        hard = ShortRangeKernel(grid_force_fit, 1.0, eps_cells=0.0)
        s = np.array([1e-4])
        assert float(soft.f_sr_cells(s)[0]) < float(hard.f_sr_cells(s)[0])

    def test_physical_units_scaling(self, grid_force_fit):
        """f_phys(s) = f_cells(s/D^2)/D^3."""
        k1 = ShortRangeKernel(grid_force_fit, spacing=1.0)
        k2 = ShortRangeKernel(grid_force_fit, spacing=2.0)
        s_phys = 4.0  # = 1.0 cells^2 at spacing 2
        assert float(k2.f_sr(np.array([s_phys]))[0]) == pytest.approx(
            float(k1.f_sr_cells(np.array([1.0]))[0]) / 8.0
        )

    def test_float32_mode_close_to_float64(self, grid_force_fit):
        """Mixed precision: single-precision kernel agrees to ~1e-5."""
        k64 = ShortRangeKernel(grid_force_fit, 1.0)
        k32 = ShortRangeKernel(grid_force_fit, 1.0, dtype=np.float32)
        s = np.linspace(0.1, 8.0, 100)
        a, b = k64.f_sr_cells(s), k32.f_sr_cells(s)
        assert np.allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_rcut_physical(self, grid_force_fit):
        k = ShortRangeKernel(grid_force_fit, spacing=2.5)
        assert k.rcut == pytest.approx(3.0 * 2.5)

    @pytest.mark.parametrize("kwargs", [dict(spacing=0.0), dict(eps_cells=-1.0)])
    def test_validation(self, grid_force_fit, kwargs):
        with pytest.raises(ValueError):
            ShortRangeKernel(grid_force_fit, **{"spacing": 1.0, **kwargs})


class TestAccumulate:
    def test_two_body_antisymmetry(self, kernel):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = np.ones(2)
        acc = kernel.accumulate(pos, pos, m)
        assert np.allclose(acc[0], -acc[1])
        assert acc[0, 0] > 0  # attraction toward the other particle

    def test_matches_brute_force(self, kernel, rng):
        pos = rng.uniform(0, 4.0, (30, 3))
        m = rng.uniform(0.5, 2.0, 30)
        fast = kernel.accumulate(pos, pos, m)
        slow = np.zeros_like(fast)
        for i in range(30):
            for j in range(30):
                if i == j:
                    continue
                d = pos[i] - pos[j]
                s = float(d @ d)
                slow[i] -= m[j] * float(kernel.f_sr(np.array([s]))[0]) * d
        assert np.allclose(fast, slow, atol=1e-10)

    def test_chunking_invariance(self, kernel, rng):
        pos = rng.uniform(0, 4.0, (100, 3))
        m = np.ones(100)
        a = kernel.accumulate(pos, pos, m, chunk=7)
        b = kernel.accumulate(pos, pos, m, chunk=1000)
        assert np.allclose(a, b, atol=1e-12)

    def test_mass_linearity(self, kernel, rng):
        tgt = rng.uniform(0, 3.0, (10, 3))
        src = rng.uniform(0, 3.0, (20, 3))
        m = rng.uniform(0.5, 1.5, 20)
        assert np.allclose(
            kernel.accumulate(tgt, src, 2 * m),
            2 * kernel.accumulate(tgt, src, m),
        )

    def test_interaction_counter(self, kernel, rng):
        """The direct solver counts every kernel pair it evaluates."""
        src = rng.uniform(0, 3.0, (20, 3))
        solver = DirectShortRange(kernel)
        reg = Registry()
        with use(reg):
            solver.accelerations_cloud(src, np.ones(20), 10)
        assert solver.last_pairs == (200, 200)
        assert reg.counters.get("pp.interactions", 0) == 200
        assert pair_flops(*solver.last_pairs) == pytest.approx(21.0 * 200)
        assert reg.counters.get("pp.flops", 0) == pytest.approx(21.0 * 200)

    def test_empty_inputs(self, kernel):
        out = kernel.accumulate(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert out.shape == (0, 3)

    def test_shape_validation(self, kernel):
        with pytest.raises(ValueError):
            kernel.accumulate(np.zeros((3, 2)), np.zeros((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            kernel.accumulate(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(2))


class TestRCBTree:
    def test_all_particles_in_leaves(self, rng):
        pos = rng.uniform(0, 1, (500, 3))
        tree = RCBTree(pos, leaf_size=32)
        total = sum(tree.node(l).count for l in tree.leaves())
        assert total == 500

    def test_leaf_size_respected(self, rng):
        pos = rng.uniform(0, 1, (500, 3))
        tree = RCBTree(pos, leaf_size=32)
        assert all(tree.node(l).count <= 32 for l in tree.leaves())

    def test_permutation_is_bijection(self, rng):
        pos = rng.uniform(0, 1, (200, 3))
        tree = RCBTree(pos, leaf_size=16)
        assert np.array_equal(np.sort(tree.perm), np.arange(200))

    def test_positions_reordered_consistently(self, rng):
        pos = rng.uniform(0, 1, (200, 3))
        tree = RCBTree(pos, leaf_size=16)
        assert np.allclose(tree.positions, pos[tree.perm])

    def test_masses_travel_with_positions(self, rng):
        pos = rng.uniform(0, 1, (100, 3))
        m = rng.uniform(1, 2, 100)
        tree = RCBTree(pos, m, leaf_size=8)
        assert np.allclose(tree.masses, m[tree.perm])

    def test_nodes_contiguous_and_nested(self, rng):
        pos = rng.uniform(0, 1, (300, 3))
        tree = RCBTree(pos, leaf_size=20)
        for i in range(tree.n_nodes):
            node = tree.node(i)
            if not node.is_leaf:
                l, r = tree.node(node.left), tree.node(node.right)
                assert l.start == node.start
                assert r.start == l.start + l.count
                assert l.count + r.count == node.count

    def test_bounding_boxes_contain_particles(self, rng):
        pos = rng.uniform(0, 1, (300, 3))
        tree = RCBTree(pos, leaf_size=20)
        for lidx in tree.leaves():
            node = tree.node(lidx)
            seg = tree.positions[node.start : node.start + node.count]
            assert np.all(seg >= node.lo - 1e-12)
            assert np.all(seg <= node.hi + 1e-12)

    def test_split_perpendicular_to_longest_side(self):
        """Elongated cloud splits along its long axis first."""
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 1, (100, 3))
        pos[:, 0] *= 10  # long in x
        tree = RCBTree(pos, leaf_size=32)
        root = tree.node(0)
        l, r = tree.node(root.left), tree.node(root.right)
        assert l.hi[0] <= r.lo[0] + 1e-9  # separated in x

    def test_center_of_mass_split(self):
        """The dividing line is the center of mass, not the midpoint."""
        pos = np.zeros((10, 3))
        pos[:, 0] = [0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 10.0]
        tree = RCBTree(pos, leaf_size=4)
        root = tree.node(0)
        left = tree.node(root.left)
        # com ~ 1.36: nine points below, one above
        assert left.count == 9

    def test_duplicate_positions_handled(self):
        pos = np.ones((50, 3))
        tree = RCBTree(pos, leaf_size=8)
        total = sum(tree.node(l).count for l in tree.leaves())
        assert total == 50

    def test_depth_logarithmic(self, rng):
        pos = rng.uniform(0, 1, (1024, 3))
        tree = RCBTree(pos, leaf_size=16)
        # perfect bisection would need log2(1024/16) = 6 levels
        assert 6 <= tree.depth() <= 14

    def test_interaction_list_complete(self, rng, walk_list):
        """The shared leaf list of the walk contains every particle
        within rcut of any leaf member (it may legitimately contain
        more)."""
        pos = rng.uniform(0, 4.0, (300, 3))
        tree = RCBTree(pos, leaf_size=16)
        rcut = 0.8
        for lidx in tree.leaves()[:5]:
            node = tree.node(lidx)
            ilist = set(walk_list(tree, lidx, rcut).tolist())
            seg = tree.positions[node.start : node.start + node.count]
            d2 = ((tree.positions[:, None, :] - seg[None, :, :]) ** 2).sum(-1)
            required = set(np.flatnonzero((d2 < rcut**2).any(axis=1)).tolist())
            assert required <= ilist

    def test_interaction_list_prunes_far_nodes(self, rng, walk_list):
        """Two distant clusters don't appear on each other's lists."""
        a = rng.uniform(0, 1, (100, 3))
        b = rng.uniform(9, 10, (100, 3))
        tree = RCBTree(np.vstack([a, b]), leaf_size=16)
        for lidx in tree.leaves():
            ilist = walk_list(tree, lidx, 0.5)
            pts = tree.positions[ilist]
            span = pts.max(axis=0) - pts.min(axis=0)
            assert np.all(span < 3.0)  # never spans both clusters

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RCBTree(rng.uniform(0, 1, (10, 2)))
        with pytest.raises(ValueError):
            RCBTree(rng.uniform(0, 1, (10, 3)), leaf_size=0)
        with pytest.raises(ValueError):
            RCBTree(rng.uniform(0, 1, (10, 3)), masses=np.ones(5))

    def test_empty_tree(self):
        tree = RCBTree(np.zeros((0, 3)))
        assert tree.n_nodes == 0
        assert tree.leaves() == []


def assert_same_tree(a, b):
    for name in TREE_FIELDS:
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype, name
        assert np.array_equal(u, v), name


def cloud(kind, rng, n, dt):
    """A test cloud: ``uniform``, ``clustered`` (tight Gaussian blobs),
    ``duplicate`` (snapped to a 3-point grid, so whole nodes share one
    coordinate and split at the median) or ``heavy`` (cubed normals)."""
    if kind == "clustered":
        centers = rng.uniform(0.0, 10.0, (max(n // 50, 2), 3))
        pos = centers[rng.integers(0, len(centers), n)]
        pos = pos + rng.normal(0.0, 0.05, (n, 3))
    elif kind == "duplicate":
        pos = rng.integers(0, 3, (n, 3)).astype(float)
    elif kind == "heavy":
        pos = rng.standard_normal((n, 3)) ** 3
    else:
        pos = rng.uniform(0.0, 10.0, (n, 3))
    return pos.astype(dt)


@needs_c
class TestRCBBackends:
    """The C build against the numpy reference loop, array for array."""

    @settings(max_examples=80, deadline=None)
    @given(
        dt=st.sampled_from([np.float32, np.float64]),
        unit=st.booleans(),
        leaf=st.sampled_from([1, 2, 8, 128]),
        size=st.sampled_from(["0", "1", "leaf", "leaf+1", "many"]),
        kind=st.sampled_from(["uniform", "clustered", "duplicate", "heavy"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_c_tree_equals_numpy_tree(self, dt, unit, leaf, size, kind, seed):
        rng = np.random.default_rng(seed)
        n = {"0": 0, "1": 1, "leaf": leaf, "leaf+1": leaf + 1,
             "many": int(rng.integers(2, 1500))}[size]
        pos = cloud(kind, rng, n, dt)
        m = None if unit else rng.uniform(0.1, 3.0, n)
        assert_same_tree(RCBTree(pos, m, leaf, backend="c"),
                         RCBTree(pos, m, leaf, backend="numpy"))

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n", [7, 8, 9, 127, 128, 129, 135, 136, 8191, 8193, 70001]
    )
    def test_split_plane_is_numpys_pairwise_average(self, n, dt):
        """One split (``leaf_size = n - 1``) at every edge of numpy's
        pairwise-sum blocking (8 accumulators, 128-term blocks, halving
        at multiples of 8).  Two particles straddle the plane one ulp
        apart, so a plane off by an ulp either way moves one of them and
        the trees differ: a summation numpy no longer uses fails here."""
        rng = np.random.default_rng(n)
        pos = rng.uniform(0.0, 1.0, (n, 3)).astype(dt)
        pos[:, 0] *= dt(10.0)  # x is the longest side
        m = rng.uniform(0.5, 2.0, n).astype(dt)
        plane = dt(5.0)
        for _ in range(50):  # put pos[0] on the plane, pos[1] just past it
            pos[0, 0], pos[1, 0] = plane, np.nextafter(plane, dt(np.inf))
            plane, prev = np.average(pos[:, 0], weights=m), plane
            if plane == prev:
                break
        assert plane == prev, "no fixed point: pick another seed"
        tree = RCBTree(pos, m, leaf_size=n - 1, backend="c")
        assert_same_tree(tree, RCBTree(pos, m, n - 1, backend="numpy"))
        assert tree.node_count[1] == np.count_nonzero(pos[:, 0] <= plane)
        assert tree.node_hi[1, 0] == plane

    def test_node_room_overflow_rebuilds(self, monkeypatch):
        """A cloud whose splits peel off one or two particles needs far
        more nodes than the first allocation; the C loop restores the
        arrays, the build retries with twice the room, and the tree is
        still the reference one."""
        backend = get_backend("c")
        table = backend._fns[np.dtype(np.float64)][0]
        calls = []

        def counted(*args):
            calls.append(args[7])  # node capacity
            return build(*args)

        build = table["rcb_build"]
        monkeypatch.setitem(table, "rcb_build", counted)
        rng = np.random.default_rng(3)
        pos = 10.0 ** rng.uniform(0.0, 250.0, (400, 3))  # geometric tail
        tree = RCBTree(pos, leaf_size=16, backend=backend)
        assert len(calls) >= 2 and calls[1] == 2 * calls[0]
        assert tree.n_nodes > calls[0]
        assert_same_tree(tree, RCBTree(pos, leaf_size=16, backend="numpy"))

    def test_concurrent_builds_stay_independent(self):
        """The C build releases the GIL and keeps its scratch per call:
        more threads than cores, switching often, each get the
        reference tree of their own cloud."""
        rng = np.random.default_rng(5)
        clouds = [cloud("clustered", rng, 3000, dt)
                  for dt in (np.float32, np.float64) * 3]
        want = [RCBTree(p, leaf_size=8, backend="numpy") for p in clouds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(
                    lambda p: RCBTree(p, leaf_size=8, backend="c"),
                    clouds * 4, timeout=120,
                ))
        finally:
            sys.setswitchinterval(interval)
        for tree, ref in zip(got, want * 4):
            assert_same_tree(tree, ref)


@pytest.mark.parametrize(
    "backend", ["numpy", pytest.param("c", marks=needs_c)]
)
class TestRCBInput:
    """Bad input fails once, at the tree boundary, on either build."""

    def test_non_finite_position(self, rng, backend):
        pos = rng.uniform(0, 1, (300, 3))
        pos[7, 1], pos[9] = np.nan, np.inf
        with pytest.raises(ValueError, match="2 position"):
            RCBTree(pos, leaf_size=16, backend=backend)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_mass_not_finite_and_positive(self, rng, backend, bad):
        m = np.ones(300)
        m[[3, 4, 5]] = bad
        with pytest.raises(ValueError, match="3 mass"):
            RCBTree(rng.uniform(0, 1, (300, 3)), m, 16, backend=backend)
