"""Tests for the batched pair engine, packing, and hot-path caches.

The equivalence suite is the contract of the batched engine: the
CSR-packed, chunked evaluation must match the naive O(N^2) direct sum
(``DirectShortRange``, the one oracle) on clustered, uniform and
near-boundary particle sets, and ``pp.interactions`` must be the pairs
the batch streams.  The tight-list suite pins what
``InteractionBatch.tightened`` promises: only real targets, only
sources that can matter, and never a changed bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fft.pencil import PencilFFT
from repro.grid.cic import ParticleGridCoords, cic_deposit, cic_interpolate
from repro.instrument import Registry, use
from repro.shortrange.backends import BackendUnavailable, get_backend
from repro.shortrange.batch import (
    BatchedPairEngine,
    InteractionBatch,
    Workspace,
    pack_tree,
)
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree, ranges_to_indices
from repro.shortrange.solvers import (
    DirectShortRange,
    P3MShortRange,
    TreePMShortRange,
    periodic_ghosts,
)

BOX = 10.0


@pytest.fixture()
def kernel(grid_force_fit):
    return ShortRangeKernel(grid_force_fit, spacing=1.0, eps_cells=0.01)


@pytest.fixture()
def kernel32(grid_force_fit):
    return ShortRangeKernel(
        grid_force_fit, spacing=1.0, eps_cells=0.01, dtype=np.float32
    )


def uniform_cloud(rng, n):
    return rng.uniform(0.0, BOX, (n, 3))


def clustered_cloud(rng, n):
    centers = rng.uniform(0.0, BOX, (max(n // 50, 2), 3))
    which = rng.integers(0, centers.shape[0], n)
    return np.mod(centers[which] + rng.normal(0.0, 0.2, (n, 3)), BOX)


def boundary_cloud(rng, n):
    """Particles concentrated near the periodic faces and corners."""
    return np.mod(rng.normal(0.0, 0.7, (n, 3)), BOX)


CLOUDS = {
    "uniform": uniform_cloud,
    "clustered": clustered_cloud,
    "boundary": boundary_cloud,
}


def assert_forces_close(a, b, rtol):
    scale = np.abs(b).max()
    assert scale > 0
    np.testing.assert_allclose(a, b, atol=rtol * scale, rtol=rtol)


# ----------------------------------------------------------------------
# packing building blocks
# ----------------------------------------------------------------------
class TestRangesToIndices:
    def test_basic(self):
        out = ranges_to_indices([2, 10], [3, 2])
        assert out.tolist() == [2, 3, 4, 10, 11]

    def test_interleaved_zero_lengths(self):
        out = ranges_to_indices([5, 7, 1, 9], [0, 2, 0, 1])
        assert out.tolist() == [7, 8, 9]

    def test_empty(self):
        assert ranges_to_indices([], []).size == 0


class TestInteractionBatch:
    def test_validation(self):
        z = np.zeros(1, dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            InteractionBatch(e, np.array([0, 1]), e, z)  # length mismatch
        with pytest.raises(ValueError):
            InteractionBatch(e, np.array([1, 0]), e, np.array([0, 0]))

    def test_empty_counts(self):
        b = InteractionBatch.empty()
        assert b.n_groups == 0
        assert b.n_pairs == 0

    def test_pair_counts(self):
        b = InteractionBatch(
            targets=np.array([0, 1, 2]),
            target_offsets=np.array([0, 2, 3]),
            neighbor_indices=np.array([0, 1, 2, 3, 4]),
            neighbor_offsets=np.array([0, 3, 5]),
        )
        assert b.group_pair_counts().tolist() == [6, 2]
        assert b.n_pairs == 8


def group_slices(batch, g):
    """``(targets, sources)`` index arrays of group ``g``."""
    return (
        batch.targets[batch.target_offsets[g] : batch.target_offsets[g + 1]],
        batch.neighbor_indices[
            batch.neighbor_offsets[g] : batch.neighbor_offsets[g + 1]
        ],
    )


def uncut_batch(tree, rcut, n_targets):
    """Hand-built reference: real targets only, whole hit leaves listed."""
    real = tree.perm < n_targets
    targets, sources = [], []
    for leaf in tree.leaf_ids():
        node = tree.node(int(leaf))
        members = np.arange(node.start, node.start + node.count)
        members = members[real[members]]
        if members.size:
            targets.append(members)
            sources.append(tree.interaction_list(int(leaf), rcut))
    offsets = lambda parts: np.concatenate(  # noqa: E731
        ([0], np.cumsum([p.size for p in parts]))
    ).astype(np.int64)
    return InteractionBatch(
        np.concatenate(targets), offsets(targets),
        np.concatenate(sources), offsets(sources),
    )


class TestPackTree:
    def test_matches_per_leaf_interaction_lists(self, rng):
        """Each list is the leaf's walk list, in order, less the sources
        farther than rcut from every target of the leaf."""
        pos = clustered_cloud(rng, 400)
        tree = RCBTree(pos, leaf_size=16)
        batch = pack_tree(tree, rcut=3.0)
        leaf_ids = tree.leaf_ids()
        assert batch.n_groups == leaf_ids.size
        culled = 0
        for g, leaf in enumerate(leaf_ids):
            walk = tree.interaction_list(int(leaf), 3.0)
            tgt, got = group_slices(batch, g)
            np.testing.assert_array_equal(got, walk[np.isin(walk, got)])
            sep = np.linalg.norm(
                tree.positions[tgt][:, None] - tree.positions[walk][None],
                axis=2,
            )
            must_keep = walk[(sep <= 3.0).any(axis=0)]
            assert np.isin(must_keep, got).all()
            culled += walk.size - got.size
        assert culled > 0

    def test_targets_partition_particles(self, rng):
        pos = uniform_cloud(rng, 300)
        tree = RCBTree(pos, leaf_size=32)
        batch = pack_tree(tree, rcut=3.0)
        assert np.sort(batch.targets).tolist() == list(range(300))

    def test_ghost_only_leaves_skipped(self, rng):
        # real cluster + far-away ghost cluster: ghost-only leaves must
        # not become target groups, but ghosts still act as sources
        real = rng.uniform(0.0, 1.0, (64, 3))
        ghosts = rng.uniform(1.5, 2.5, (64, 3))
        pos = np.concatenate([real, ghosts])
        tree = RCBTree(pos, leaf_size=8)
        batch = pack_tree(tree, rcut=3.0, n_targets=64)
        orig = tree.perm[batch.targets]
        assert np.all(orig < 64)


class TestWorkspace:
    def test_grow_only_reuse(self):
        ws = Workspace()
        a = ws.get("x", 100, np.float64)
        b = ws.get("x", 50, np.float64)
        assert b.base is a.base or b.base is a  # same backing buffer
        c = ws.get("x", 200, np.float64)
        assert c.size == 200
        assert ws.nbytes >= 200 * 8

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        ws.get("x", 10, np.float64)
        assert ws.get("x", 10, np.float32).dtype == np.float32


# ----------------------------------------------------------------------
# the equivalence suite
# ----------------------------------------------------------------------
class TestEquivalence:
    """Batched engine vs the naive O(N^2) direct sum, the one oracle."""

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_treepm_batched_vs_direct_and_naive_f64(
        self, kernel, rng, cloud
    ):
        pos = CLOUDS[cloud](rng, 500)
        m = rng.uniform(0.5, 1.5, 500)
        ref = DirectShortRange(kernel).accelerations(pos, m, box_size=BOX)
        batched = TreePMShortRange(kernel, leaf_size=16).accelerations(
            pos, m, box_size=BOX
        )
        assert_forces_close(batched, ref, 1e-6)

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_treepm_batched_vs_naive_f32(self, kernel32, rng, cloud):
        pos = CLOUDS[cloud](rng, 400)
        m = rng.uniform(0.5, 1.5, 400)
        batched = TreePMShortRange(kernel32, leaf_size=16).accelerations(
            pos, m, box_size=BOX
        )
        ref = DirectShortRange(kernel32).accelerations(pos, m, box_size=BOX)
        assert batched.dtype == np.float32
        assert_forces_close(batched, ref, 1e-4)

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_p3m_batched_vs_naive(self, kernel, rng, cloud):
        pos = CLOUDS[cloud](rng, 500)
        m = rng.uniform(0.5, 1.5, 500)
        batched = P3MShortRange(kernel).accelerations(pos, m, box_size=BOX)
        ref = DirectShortRange(kernel).accelerations(pos, m, box_size=BOX)
        assert_forces_close(batched, ref, 1e-6)

    def test_interaction_counts_identical(self, kernel, rng):
        """``pp.interactions`` is the pairs the packed batch streams."""
        pos = clustered_cloud(rng, 400)
        m = np.ones(400)
        solver = TreePMShortRange(kernel, leaf_size=16)
        reg = Registry()
        with use(reg):
            solver.accelerations(pos, m, box_size=BOX)
        cloud, cloud_m = periodic_ghosts(pos, m, BOX, kernel.rcut)
        batch = pack_tree(
            RCBTree(cloud, cloud_m, leaf_size=16), kernel.rcut, 400
        )
        assert reg.counter("pp.interactions") == batch.n_pairs > 0
        assert solver.last_pairs[0] == batch.n_pairs
        assert solver.last_list_sizes.sum() == batch.neighbor_indices.size
        # every in-cutoff pair of a real target, and nothing else
        sep = np.linalg.norm(pos[:, None] - cloud[None], axis=2)
        inside = np.count_nonzero((sep > 0) & (sep < kernel.rcut))
        assert (
            solver.last_pairs[1]
            == reg.counter("pp.batch.inside_pairs")
            == inside
        )

    def test_p3m_interaction_counts_identical(self, kernel, rng):
        pos = uniform_cloud(rng, 300)
        m = np.ones(300)
        solver = P3MShortRange(kernel)
        reg = Registry()
        with use(reg):
            solver.accelerations(pos, m, box_size=BOX)
        cloud, _ = periodic_ghosts(pos, m, BOX, kernel.rcut)
        sep = np.linalg.norm(pos[:, None] - cloud[None], axis=2)
        inside = np.count_nonzero((sep > 0) & (sep < kernel.rcut))
        assert solver.last_pairs[1] == inside
        # the cull leaves fewer pairs than whole 27-cell neighborhoods
        streamed = reg.counter("pp.interactions")
        assert inside < streamed < 300 * cloud.shape[0]
        assert streamed == solver.last_pairs[0]

    # -------------------------- edge cases --------------------------
    def test_single_particle(self, kernel):
        pos = np.array([[5.0, 5.0, 5.0]])
        acc = TreePMShortRange(kernel).accelerations(
            pos, np.ones(1), box_size=BOX
        )
        np.testing.assert_array_equal(acc, 0.0)

    def test_two_particles_match_direct(self, kernel):
        pos = np.array([[4.0, 5.0, 5.0], [6.0, 5.0, 5.0]])
        m = np.array([1.0, 2.0])
        ref = DirectShortRange(kernel).accelerations(pos, m, box_size=BOX)
        got = TreePMShortRange(kernel, leaf_size=1).accelerations(
            pos, m, box_size=BOX
        )
        assert_forces_close(got, ref, 1e-12)

    def test_empty_batch_evaluates_to_zero(self, kernel):
        engine = BatchedPairEngine(kernel)
        acc = engine.evaluate(
            InteractionBatch.empty(), np.zeros((0, 3)), np.zeros(0)
        )
        assert acc.shape == (0, 3)

    def test_ghost_only_leaves_get_no_force(self, kernel, rng):
        """Cloud = real cluster + distant ghosts: ghosts receive zero."""
        real = rng.uniform(4.0, 5.0, (40, 3))
        ghosts = rng.uniform(8.0, 9.0, (40, 3))
        cloud = np.concatenate([real, ghosts])
        masses = np.ones(80)
        solver = TreePMShortRange(kernel, leaf_size=8)
        acc = solver.accelerations_cloud(cloud, masses, n_targets=40)
        ref = DirectShortRange(kernel).accelerations_cloud(
            cloud, masses, n_targets=40
        )
        assert acc.shape == (40, 3)
        assert_forces_close(acc, ref, 1e-12)

    def test_chunking_invariance(self, kernel, rng):
        """Tiny chunk_pairs exercises the tiling without changing results."""
        pos = clustered_cloud(rng, 200)
        m = np.ones(200)
        big = TreePMShortRange(kernel, leaf_size=16).accelerations(
            pos, m, box_size=BOX
        )
        tiny = TreePMShortRange(
            kernel, leaf_size=16, chunk_pairs=64
        ).accelerations(pos, m, box_size=BOX)
        assert_forces_close(tiny, big, 1e-12)


# ----------------------------------------------------------------------
# tight lists: real targets, culled sources, unchanged bits
# ----------------------------------------------------------------------
#: solver factories ``(kernel, leaf_size, kernel_backend)``
SOLVERS = {
    "treepm": lambda kern, leaf, backend: TreePMShortRange(
        kern, leaf_size=leaf, kernel_backend=backend
    ),
    "p3m": lambda kern, leaf, backend: P3MShortRange(
        kern, kernel_backend=backend
    ),
}


@st.composite
def ghosted_clouds(draw):
    """Clustered cloud in a 10-cube, its first ``n_targets`` rows real."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 160))
    centers = rng.uniform(2.0, 8.0, (draw(st.integers(1, 5)), 3))
    width = draw(st.sampled_from([0.05, 0.4, 2.0]))
    pos = centers[rng.integers(0, centers.shape[0], n)] + rng.normal(
        0.0, width, (n, 3)
    )
    masses = rng.uniform(0.5, 1.5, n)
    return pos, masses, draw(st.integers(0, n))


class TestTightListProperty:
    #: kernel backend under test; the ``...OnC`` subclasses below re-run
    #: every test of this section through the compiled kernel
    BACKEND = "numpy"

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                            (np.float32, 1e-4)])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cloud=ghosted_clouds(),
        spacing=st.sampled_from([0.2, 0.5, 1.0, 2.5]),
        leaf_size=st.sampled_from([1, 4, 16, 128]),
    )
    def test_forces_equal_direct_sum(
        self, grid_force_fit, solver, dtype, rtol, cloud, spacing, leaf_size
    ):
        """Whatever the cloud, ghost count, cutoff (3 x spacing) and leaf
        size: every solver's forces on the real rows are the direct sum."""
        pos, masses, n_targets = cloud
        kern = ShortRangeKernel(
            grid_force_fit, spacing=spacing, eps_cells=0.01, dtype=dtype
        )
        pos, masses = pos.astype(dtype), masses.astype(dtype)
        ref = DirectShortRange(kern).accelerations_cloud(
            pos, masses, n_targets
        )
        got = SOLVERS[solver](
            kern, leaf_size, self.BACKEND
        ).accelerations_cloud(pos, masses, n_targets)
        assert got.shape == (n_targets, 3)
        scale = np.abs(ref).max() if ref.size else 0.0
        np.testing.assert_allclose(got, ref, atol=rtol * scale, rtol=rtol)


class TestCullNeverChangesABit:
    BACKEND = "numpy"

    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_packed_equals_uncut_batch_bitwise(self, kernel, rng, cloud):
        pos = CLOUDS[cloud](rng, 400)
        m = rng.uniform(0.5, 1.5, 400)
        gpos, gm = periodic_ghosts(pos, m, BOX, kernel.rcut)
        tree = RCBTree(gpos, gm, leaf_size=16)
        packed = pack_tree(tree, kernel.rcut, 400)
        uncut = uncut_batch(tree, kernel.rcut, 400)
        np.testing.assert_array_equal(packed.targets, uncut.targets)
        assert packed.n_pairs < uncut.n_pairs
        engine = BatchedPairEngine(kernel, backend=self.BACKEND)
        a = engine.evaluate(packed, tree.positions, tree.masses)
        inside = engine.last_pairs[1]
        b = engine.evaluate(uncut, tree.positions, tree.masses)
        assert np.array_equal(a, b)
        assert engine.last_pairs[1] == inside
        assert np.abs(a[packed.targets]).max() > 0
        assert not a[tree.perm >= 400].any()

    @pytest.mark.parametrize("rcut", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("leaf_size", [1, 4, 16, 128])
    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_packed_lists_are_the_tightened_walk_lists(
        self, rng, cloud, leaf_size, rcut
    ):
        """The packer's four CSR arrays are the per-leaf walk lists,
        tightened: the packed walk changes no list, no order."""
        pos = CLOUDS[cloud](rng, 400)
        gpos, gm = periodic_ghosts(pos, np.ones(400), BOX, rcut)
        tree = RCBTree(gpos, gm, leaf_size=leaf_size)
        uncut = uncut_batch(tree, rcut, 400)
        want = uncut.tightened(
            np.ones(uncut.targets.size, bool), tree.positions, rcut
        )
        got = pack_tree(tree, rcut, 400)
        for name in ("targets", "target_offsets", "neighbor_indices",
                     "neighbor_offsets"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestTightListEdges:
    RCUT = 3.0
    BACKEND = "numpy"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_source_exactly_at_rcut_of_a_face_target_is_kept(self, dtype):
        # targets span the unit box, one sits on its x = 1 face; ghost
        # sources lie on that target's axis at rcut and just beyond it
        cloud = np.array(
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.5, 0.5],
             [1.0 + self.RCUT, 0.5, 0.5],
             [1.0 + 1.001 * self.RCUT, 0.5, 0.5]],
            dtype=dtype,
        )
        tree = RCBTree(cloud, leaf_size=8)
        batch = pack_tree(tree, self.RCUT, n_targets=3)
        assert batch.n_groups == 1
        tgt, src = group_slices(batch, 0)
        assert sorted(tree.perm[tgt]) == [0, 1, 2]
        assert sorted(tree.perm[src]) == [0, 1, 2, 3]

    def test_single_and_coincident_particle_leaves(self, kernel):
        # leaf_size=1: every box has zero extent; two pairs coincide
        pos = np.array(
            [[4.0, 5.0, 5.0], [4.0, 5.0, 5.0], [6.0, 5.0, 5.0],
             [6.0, 5.0, 5.0], [5.0, 7.5, 5.0]]
        )
        m = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        for n_targets in (5, 3):
            got = TreePMShortRange(
                kernel, leaf_size=1, kernel_backend=self.BACKEND
            ).accelerations_cloud(pos, m, n_targets)
            ref = DirectShortRange(kernel).accelerations_cloud(
                pos, m, n_targets
            )
            assert np.abs(ref).max() > 0
            assert_forces_close(got, ref, 1e-12)

    def test_only_real_target_interior_to_ghosts(self, kernel, rng):
        # one leaf: a real particle in the middle of 80 ghosts, 30 of
        # them farther than rcut from it
        near = rng.normal(0.0, 0.8, (50, 3))
        shell = rng.normal(0.0, 1.0, (30, 3))
        shell *= (kernel.rcut * 1.2 / np.linalg.norm(shell, axis=1))[:, None]
        cloud = 5.0 + np.concatenate([np.zeros((1, 3)), near, shell])
        masses = rng.uniform(0.5, 1.5, cloud.shape[0])
        tree = RCBTree(cloud, masses, leaf_size=128)
        batch = pack_tree(tree, kernel.rcut, n_targets=1)
        assert tree.perm[batch.targets].tolist() == [0]
        src = tree.perm[batch.neighbor_indices]
        assert np.isin(np.arange(51), src).all()
        assert src.max() <= 50
        got = TreePMShortRange(
            kernel, kernel_backend=self.BACKEND
        ).accelerations_cloud(cloud, masses, 1)
        ref = DirectShortRange(kernel).accelerations_cloud(cloud, masses, 1)
        assert_forces_close(got, ref, 1e-12)

    def test_no_ghosts_means_every_particle_is_a_target(self, rng):
        tree = RCBTree(clustered_cloud(rng, 300), leaf_size=16)
        a = pack_tree(tree, self.RCUT, n_targets=300)
        b = pack_tree(tree, self.RCUT)
        np.testing.assert_array_equal(a.targets, np.arange(300))
        for name in ("targets", "target_offsets", "neighbor_indices",
                     "neighbor_offsets"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_no_targets_and_empty_cloud(self, kernel, rng, solver):
        pos = clustered_cloud(rng, 60)
        built = SOLVERS[solver](kernel, 16, self.BACKEND)
        reg = Registry()
        with use(reg):
            assert built.accelerations_cloud(pos, np.ones(60), 0).shape \
                == (0, 3)
            assert built.last_pairs == (0, 0)
            assert built.accelerations_cloud(
                np.zeros((0, 3)), np.zeros(0), 0
            ).shape == (0, 3)
            assert built.last_pairs == (0, 0)
        assert reg.counter("pp.interactions") == 0
        assert pack_tree(RCBTree(pos, leaf_size=16), 3.0, 0).n_groups == 0

    def test_empty_candidate_groups_are_dropped(self):
        # groups: {0 real, 1 ghost}, {} (no members), {2 ghost}
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [9.0, 0, 0]])
        cand = InteractionBatch(
            np.array([0, 1, 2]), np.array([0, 2, 2, 3]),
            np.array([0, 1, 2, 3, 0, 1, 2, 3]), np.array([0, 4, 4, 8]),
        )
        tight = cand.tightened(np.array([True, False, False]), pos, 3.0)
        assert tight.targets.tolist() == [0]
        assert tight.target_offsets.tolist() == [0, 1]
        assert tight.neighbor_indices.tolist() == [0, 1, 2]
        assert tight.n_pairs == 3


@pytest.fixture()
def _need_c_backend():
    try:
        get_backend("c")
    except BackendUnavailable as exc:
        pytest.skip(str(exc))


@pytest.mark.usefixtures("_need_c_backend")
class TestTightListPropertyOnC(TestTightListProperty):
    BACKEND = "c"


@pytest.mark.usefixtures("_need_c_backend")
class TestCullNeverChangesABitOnC(TestCullNeverChangesABit):
    BACKEND = "c"


@pytest.mark.usefixtures("_need_c_backend")
class TestTightListEdgesOnC(TestTightListEdges):
    BACKEND = "c"


# ----------------------------------------------------------------------
# mixed precision
# ----------------------------------------------------------------------
class TestDtypePropagation:
    def test_accumulate_stays_float32(self, kernel32, rng):
        t = rng.uniform(0, 3, (16, 3))
        s = rng.uniform(0, 3, (32, 3))
        out = kernel32.accumulate(t, s, np.ones(32))
        assert out.dtype == np.float32

    def test_f_sr_cells_stays_float32(self, kernel32):
        s = np.linspace(0.1, 8.0, 64, dtype=np.float32)
        assert kernel32.f_sr_cells(s).dtype == np.float32

    def test_pair_coeff_into_matches_f_sr_cells(self, kernel, kernel32):
        for kern in (kernel, kernel32):
            s = np.linspace(0.05, 0.9, 40, dtype=kern.dtype)
            s *= kern.dtype(kern.fit.rcut_cells**2)
            out = np.empty_like(s)
            scratch = np.empty_like(s)
            kern.pair_coeff_into(s, out, scratch)
            expect = kern.f_sr_cells(s)
            assert out.dtype == kern.dtype
            np.testing.assert_allclose(
                out, expect, rtol=5e-6 if kern.dtype == np.float32 else 1e-12
            )

    def test_engine_workspaces_are_float32(self, kernel32, rng):
        pos = clustered_cloud(rng, 200)
        solver = TreePMShortRange(kernel32, leaf_size=16)
        solver.accelerations(pos, np.ones(200), box_size=BOX)
        ws = solver.engine.workspace
        for name in ("dx", "dy", "dz", "s2", "f"):
            assert ws._bufs[name].dtype == np.float32, name

    def test_float32_tracks_float64(self, kernel, kernel32, rng):
        pos = uniform_cloud(rng, 300)
        m = np.ones(300)
        a64 = TreePMShortRange(kernel, leaf_size=16).accelerations(
            pos, m, box_size=BOX
        )
        a32 = TreePMShortRange(kernel32, leaf_size=16).accelerations(
            pos, m, box_size=BOX
        )
        assert_forces_close(a32, a64, 1e-4)


# ----------------------------------------------------------------------
# vectorized ghosts
# ----------------------------------------------------------------------
class TestGhostDedup:
    def test_no_duplicate_images(self, rng):
        """Each (particle, shift) pair appears exactly once."""
        pos = rng.uniform(0.0, BOX, (500, 3))
        gp, _ = periodic_ghosts(pos, np.ones(500), BOX, 2.0)
        rounded = np.round(gp, 9)
        uniq = np.unique(rounded, axis=0)
        assert uniq.shape[0] == gp.shape[0]

    def test_masses_follow_particles(self, rng):
        pos = np.array([[0.1, 5.0, 5.0], [9.9, 5.0, 5.0]])
        m = np.array([2.0, 3.0])
        gp, gm = periodic_ghosts(pos, m, BOX, 1.0)
        # each particle near one face: one image each
        assert gp.shape[0] == 4
        assert sorted(gm[2:].tolist()) == [2.0, 3.0]


# ----------------------------------------------------------------------
# pencil buffers
# ----------------------------------------------------------------------
class TestPencilBuffers:
    def test_buffers_reused_across_transforms(self):
        p = PencilFFT(8, 2, 2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8, 8))
        k1 = p.gather(p.forward(p.scatter(x.astype(np.complex128))), "x-pencil")
        bytes_after_first = p.transpose_buffer_bytes
        assert bytes_after_first > 0
        y = rng.standard_normal((8, 8, 8))
        k2 = p.gather(p.forward(p.scatter(y.astype(np.complex128))), "x-pencil")
        assert p.transpose_buffer_bytes == bytes_after_first
        np.testing.assert_allclose(k1, np.fft.fftn(x), atol=1e-9)
        np.testing.assert_allclose(k2, np.fft.fftn(y), atol=1e-9)

    def test_roundtrip_with_buffer_reuse(self):
        p = PencilFFT(8, 2, 2)
        x = np.random.default_rng(3).standard_normal((8, 8, 8))
        spec = p.forward(p.scatter(x.astype(np.complex128)))
        back = p.gather(p.inverse(spec), "z-pencil")
        np.testing.assert_allclose(back.real, x, atol=1e-10)


# ----------------------------------------------------------------------
# CIC corner tables: the definition every backend's CIC follows
# ----------------------------------------------------------------------
class TestParticleGridCoords:
    def test_deposit_is_the_table_bincount(self, rng):
        """A per-corner bincount over the tables, corners in order, is
        the public deposit on every backend (the C loop has no tables)."""
        pos = rng.uniform(-BOX, 2 * BOX, (300, 3))
        w = rng.uniform(0.5, 1.5, 300)
        coords = ParticleGridCoords(pos, 16, BOX)
        ref = np.zeros(16**3)
        for c in range(8):
            ref += np.bincount(coords.flat[c], weights=w * coords.weights[c],
                               minlength=16**3)
        for backend in ("numpy", "auto"):
            got = cic_deposit(pos, 16, BOX, w, backend=backend)
            assert np.array_equal(got.reshape(-1), ref), backend

    def test_interpolate_is_the_table_gather(self, rng):
        pos = rng.uniform(-BOX, 2 * BOX, (300, 3))
        grid = rng.standard_normal((16, 16, 16))
        coords = ParticleGridCoords(pos, 16, BOX)
        ref = np.zeros(300)
        for c in range(8):
            ref += grid.reshape(-1)[coords.flat[c]] * coords.weights[c]
        for backend in ("numpy", "auto"):
            got = cic_interpolate(grid, pos, BOX, backend=backend)
            assert np.array_equal(got, ref), backend
            both = cic_interpolate([grid, 2 * grid], pos, BOX,
                                   backend=backend)
            assert both.shape == (300, 2)
            assert np.array_equal(both[:, 0], ref), backend

    def test_weights_sum_to_one(self, rng):
        coords = ParticleGridCoords(rng.uniform(0, BOX, (100, 3)), 8, BOX)
        np.testing.assert_allclose(coords.weights.sum(axis=0), 1.0)
