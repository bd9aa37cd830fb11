"""Tests for the batched pair engine, packing, and hot-path caches.

The equivalence suite is the contract of the batched engine: the
CSR-packed, tiled evaluation must match the naive O(N^2) direct sum
(``DirectShortRange``, the one oracle) on clustered, uniform and
near-boundary particle sets, and ``pp.interactions`` must be the pairs
the batch streams.  The tight-list suite pins what ``tighten_ranges``
promises: only real targets, only sources that can matter, and never a
changed bit, with the ``cull`` primitive behind it (the keep mask and
per-group counts) in C equal to the numpy oracle.  The walk suite pins the C tree descent to the numpy
frontier walk, hit for hit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fft.pencil import PencilFFT
from repro.grid.cic import ParticleGridCoords, cic_deposit, cic_interpolate
from repro.instrument import Registry, use
from repro.shortrange.backends import BackendUnavailable, get_backend
from repro.shortrange.backends.numpy_backend import (
    _f_sr_pairs,
    _unpack,
    batch_box_query,
)
from repro.shortrange.batch import (
    BatchedPairEngine,
    InteractionBatch,
    Workspace,
    cull_radius,
    pack_tree,
    tighten_ranges,
)
from repro.shortrange.grid_force import default_grid_force_fit
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
        one, e = np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        flags, bits = np.ones(1, dtype=bool), np.zeros(1, dtype=np.uint64)
        with pytest.raises(ValueError):  # per-group length mismatch
            InteractionBatch(one, e, flags, e, e, np.zeros(2, np.int64),
                             bits, one, one)
        with pytest.raises(ValueError):  # falling range offsets
            InteractionBatch(one, one, flags, one, one, np.array([1, 0]),
                             bits, one, one)
        with pytest.raises(ValueError):  # offsets past the ranges
            InteractionBatch(one, one, flags, e, e, np.array([0, 1]),
                             bits, one, one)

    def test_empty_counts(self):
        b = InteractionBatch.empty()
        assert b.n_groups == 0
        assert b.n_pairs == 0

    def test_pair_counts(self, listed_batch):
        b = listed_batch([0, 2], [2, 1], [[0, 1, 2], [3, 4]],
                         np.zeros((5, 3)))
        assert (b.n_targets * b.n_sources).tolist() == [6, 2]
        assert b.n_pairs == 8


def index_lists(batch):
    """``(targets, target_offsets, sources, source_offsets)``: a batch's
    streamed lists as index CSR, each group's real targets and kept
    sources in order."""
    rows = ranges_to_indices(batch.target_starts, batch.target_counts)
    real = batch.real[rows]
    cand = ranges_to_indices(batch.source_starts, batch.source_counts)
    kept = _unpack(batch.keep, cand.size)
    first = np.concatenate(([0], np.cumsum(batch.source_counts)))
    so = np.concatenate(([0], np.cumsum(kept)))[first[batch.range_offsets]]
    to = np.concatenate(([0], np.cumsum(real)))[
        np.concatenate(([0], np.cumsum(batch.target_counts)))]
    return rows[real], to, cand[kept], so


def group_slices(batch, g):
    """``(targets, sources)`` index arrays of group ``g``."""
    targets, to, sources, so = index_lists(batch)
    return targets[to[g]:to[g + 1]], sources[so[g]:so[g + 1]]


def uncut_batch(tree, rcut, n_targets, listed_batch, walk_list):
    """Hand-built reference: real targets only, whole hit leaves listed."""
    real = tree.perm < n_targets
    leaves = [tree.node(int(leaf)) for leaf in tree.leaf_ids()]
    leaves = [node for node in leaves
              if real[node.start:node.start + node.count].any()]
    return listed_batch(
        [node.start for node in leaves], [node.count for node in leaves],
        [walk_list(tree, node.index, rcut) for node in leaves],
        tree.positions, real,
    )


class TestPackTree:
    def test_matches_per_leaf_interaction_lists(self, rng, walk_list):
        """Each list is the leaf's walk list, in order, less the sources
        farther than rcut from every target of the leaf."""
        pos = clustered_cloud(rng, 400)
        tree = RCBTree(pos, leaf_size=16)
        batch = pack_tree(tree, rcut=3.0)
        leaf_ids = tree.leaf_ids()
        assert batch.n_groups == leaf_ids.size
        culled = 0
        for g, leaf in enumerate(leaf_ids):
            walk = walk_list(tree, int(leaf), 3.0)
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
        assert np.sort(index_lists(batch)[0]).tolist() == list(range(300))

    def test_ghost_only_leaves_skipped(self, rng):
        # real cluster + far-away ghost cluster: ghost-only leaves must
        # not become target groups, but ghosts still act as sources
        real = rng.uniform(0.0, 1.0, (64, 3))
        ghosts = rng.uniform(1.5, 2.5, (64, 3))
        pos = np.concatenate([real, ghosts])
        tree = RCBTree(pos, leaf_size=8)
        batch = pack_tree(tree, rcut=3.0, n_targets=64)
        orig = tree.perm[index_lists(batch)[0]]
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
        assert reg.counters.get("pp.interactions", 0) == batch.n_pairs > 0
        assert solver.last_pairs[0] == batch.n_pairs
        assert solver.last_list_sizes.sum() == batch.n_sources.sum()
        # every in-cutoff pair of a real target, and nothing else
        sep = np.linalg.norm(pos[:, None] - cloud[None], axis=2)
        inside = np.count_nonzero((sep > 0) & (sep < kernel.rcut))
        assert (
            solver.last_pairs[1]
            == reg.counters.get("pp.batch.inside_pairs", 0)
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
        streamed = reg.counters.get("pp.interactions", 0)
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
    def test_packed_equals_uncut_batch_bitwise(self, kernel, rng, cloud,
                                               listed_batch, walk_list):
        pos = CLOUDS[cloud](rng, 400)
        m = rng.uniform(0.5, 1.5, 400)
        gpos, gm = periodic_ghosts(pos, m, BOX, kernel.rcut)
        tree = RCBTree(gpos, gm, leaf_size=16)
        packed = pack_tree(tree, kernel.rcut, 400, self.BACKEND)
        uncut = uncut_batch(tree, kernel.rcut, 400, listed_batch, walk_list)
        np.testing.assert_array_equal(index_lists(packed)[0],
                                      index_lists(uncut)[0])
        assert packed.n_pairs < uncut.n_pairs
        engine = BatchedPairEngine(kernel, backend=self.BACKEND)
        a = engine.evaluate(packed, tree.positions, tree.masses)
        inside = engine.last_pairs[1]
        b = engine.evaluate(uncut, tree.positions, tree.masses)
        assert np.array_equal(a, b)
        assert engine.last_pairs[1] == inside
        assert np.abs(a[index_lists(packed)[0]]).max() > 0
        assert not a[tree.perm >= 400].any()

    @pytest.mark.parametrize("rcut", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("leaf_size", [1, 4, 16, 128])
    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_packed_lists_are_the_tightened_walk_lists(
        self, rng, cloud, leaf_size, rcut, listed_batch, walk_list
    ):
        """The packer's streamed lists are the per-leaf walk lists,
        tightened: the packed walk changes no list, no order."""
        pos = CLOUDS[cloud](rng, 400)
        gpos, gm = periodic_ghosts(pos, np.ones(400), BOX, rcut)
        tree = RCBTree(gpos, gm, leaf_size=leaf_size)
        uncut = uncut_batch(tree, rcut, 400, listed_batch, walk_list)
        want = tightened(uncut, tree.positions, rcut, self.BACKEND)
        got = pack_tree(tree, rcut, 400, self.BACKEND)
        assert got.n_pairs == want.n_pairs
        for a, b in zip(index_lists(got), index_lists(want)):
            assert np.array_equal(a, b)


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
        targets, _, sources, _ = index_lists(batch)
        assert tree.perm[targets].tolist() == [0]
        src = tree.perm[sources]
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
        np.testing.assert_array_equal(index_lists(a)[0], np.arange(300))
        for name in BATCH_ARRAYS:
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
        assert reg.counters.get("pp.interactions", 0) == 0
        assert pack_tree(RCBTree(pos, leaf_size=16), 3.0, 0).n_groups == 0

    def test_empty_candidate_groups_are_dropped(self, listed_batch):
        """Groups without a real target stream nothing: {0 real, 1
        ghost}, {} (no members), {2 ghost}, each listing every row."""
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [9.0, 0, 0]])
        cand = listed_batch([0, 2, 2], [2, 0, 1], [range(4)] * 3, pos,
                            np.array([True, False, False, False]))
        tight = tightened(cand, pos, 3.0, self.BACKEND)
        assert tight.n_targets.tolist() == [1, 0, 0]
        assert tight.n_sources.tolist() == [3, 0, 0]
        targets, to, sources, so = index_lists(tight)
        assert targets.tolist() == [0] and to.tolist() == [0, 1, 1, 1]
        assert sources.tolist() == [0, 1, 2]
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
# the cull primitive: the C keep mask against the numpy oracle
# ----------------------------------------------------------------------
BATCH_ARRAYS = ("target_starts", "target_counts", "real", "source_starts",
                "source_counts", "range_offsets", "keep", "n_targets",
                "n_sources")


@st.composite
def candidate_batches(draw):
    """Candidate groups over a clustered cloud with duplicated
    coordinates: consecutive row ranges of 0 to 150 members (ghosts
    among them, some groups all ghosts, some of one target), and 0 to 12
    source ranges of 0 to 60 rows each, overlapping and out of order, so
    a list may be empty or repeat rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    centers = rng.uniform(0.0, BOX, (draw(st.integers(1, 4)), 3))
    pos = centers[rng.integers(0, centers.shape[0], n)] + rng.normal(
        0.0, draw(st.sampled_from([0.0, 0.05, 1.0])), (n, 3)
    )
    pos = np.round(pos, draw(st.sampled_from([0, 1, 6])))  # duplicates
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(min(n - sum(sizes),
                             rng.choice([0, 1, 2, 7, 32, 150]))))
    real = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    ranges = rng.integers(0, 13, len(sizes))
    starts = rng.integers(0, n, ranges.sum())
    counts = np.minimum(rng.integers(0, 61, starts.size), n - starts)
    offsets = lambda parts: np.concatenate(  # noqa: E731
        ([0], np.cumsum(parts))).astype(np.int64)
    candidates = (offsets(sizes)[:-1], sizes, starts, counts, offsets(ranges))
    return candidates, real, pos, draw(st.sampled_from([0.1, 1.0, 3.0, 30.0]))


def tightened(batch, positions, rcut, backend=None):
    """``tighten_ranges`` re-run on a batch's groups and candidates."""
    return tighten_ranges(
        batch.target_starts, batch.target_counts, batch.source_starts,
        batch.source_counts, batch.range_offsets, batch.real, positions,
        rcut, backend,
    )


def cull(backend, candidates, real, positions, radius):
    ts, tc, start, count, ro = (np.asarray(a, dtype=np.int64)
                                for a in candidates)
    return backend.cull(ts, tc, real, start, count, ro, positions, radius)


def assert_same_arrays(got, want):
    for name, a, b in zip(("keep", "n_targets", "n_sources"), got, want):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.fixture(scope="module")
def c_cull():
    """The C backend whose ``cull`` is checked against the oracle."""
    try:
        return get_backend("c")
    except BackendUnavailable as exc:
        pytest.skip(str(exc))


class TestTightenOracle:
    """``CBackend.cull`` returns the numpy oracle's keep mask and
    per-group counts."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=candidate_batches())
    def test_c_equals_numpy(self, c_cull, dtype, case):
        candidates, real, pos, radius = case
        pos = pos.astype(dtype)
        want = cull(get_backend("numpy"), candidates, real, pos, radius)
        assert want[0].size == -(-int(np.sum(candidates[3])) // 64)
        assert_same_arrays(cull(c_cull, candidates, real, pos, radius), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    def test_p3m_shaped_groups(self, c_cull, rng, dtype, cloud):
        """Chaining-mesh cells: ghosts among the members, and cells with
        no real member at all."""
        rcut = 3.0
        pos, _ = periodic_ghosts(CLOUDS[cloud](rng, 2000), np.ones(2000),
                                 BOX, rcut)
        pos = pos.astype(dtype)
        solver = P3MShortRange(ShortRangeKernel(
            default_grid_force_fit(), spacing=rcut / 3.0, eps_cells=0.01))
        ncell, uniq, starts, order = solver._bin(pos)
        cand = (starts[:-1], np.diff(starts),
                *solver._pack_cells(ncell, uniq, starts))
        real = order < 2000
        pos = pos[order]
        radius = cull_radius(rcut, pos)
        want = cull(get_backend("numpy"), cand, real, pos, radius)
        assert (want[1] == 0).any() and (want[1] > 0).any()
        assert_same_arrays(cull(c_cull, cand, real, pos, radius), want)

    def test_out_of_range_rows_are_refused(self, c_cull):
        """The C loop trusts its ranges: the wrapper bounds them."""
        pos = np.zeros((4, 3))
        one, flags = np.array([0, 1]), np.ones(4, bool)
        for starts, counts in (([3], [2]), ([-1], [1]), ([0], [-1])):
            for cand in (([0], [1], starts, counts, one),
                         (starts, counts, [0], [1], one)):
                with pytest.raises(IndexError):
                    cull(c_cull, cand, flags, pos, 1.0)
        with pytest.raises(ValueError, match="real"):
            cull(c_cull, ([0], [1], [0], [1], one), flags[:3], pos, 1.0)


@st.composite
def walked_trees(draw):
    """A tree over a clustered cloud with duplicated coordinates (one
    leaf, or none, among them) and box queries around some of its
    leaves, others anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    centers = rng.uniform(0.0, BOX, (draw(st.integers(1, 4)), 3))
    pos = centers[rng.integers(0, centers.shape[0], n)] + rng.normal(
        0.0, draw(st.sampled_from([0.0, 0.05, 1.0])), (n, 3))
    pos = np.round(pos, draw(st.sampled_from([0, 1, 6])))
    tree = RCBTree(pos.astype(draw(st.sampled_from([np.float32,
                                                    np.float64]))),
                   leaf_size=draw(st.sampled_from([1, 4, 16, 1000])))
    pad = draw(st.sampled_from([0.0, 0.5, 3.0]))
    leaf = tree.leaf_ids()
    lo = np.concatenate([tree.node_lo[leaf] - pad,
                         rng.uniform(-2.0, BOX, (5, 3))])
    return tree, lo, np.concatenate([tree.node_hi[leaf] + pad,
                                     lo[leaf.size:] + rng.uniform(0, 4, 3)])


@pytest.mark.usefixtures("_need_c_backend")
class TestWalkOracle:
    """``CBackend.walk`` descends to numpy's frontier-walk hits, in its
    order."""

    @settings(max_examples=60, deadline=None)
    @given(case=walked_trees())
    def test_c_equals_batch_box_query(self, case):
        tree, qlo, qhi = case
        hq, hn = batch_box_query(tree, qlo, qhi)
        for backend in ("c", "numpy"):
            offsets, hits = get_backend(backend).walk(tree, qlo, qhi)
            assert offsets.dtype == hits.dtype == np.int64
            assert np.array_equal(hits, hn), backend
            assert np.array_equal(np.diff(offsets),
                                  np.bincount(hq, minlength=qlo.shape[0]))

    def test_more_hits_than_first_room(self, rng):
        """Every query meets every leaf: the hits outgrow the first
        buffer, and the walk reruns with room for them all."""
        tree = RCBTree(rng.uniform(0, 1, (4000, 3)), leaf_size=4)
        box = np.array([[-1.0, -1.0, -1.0]]), np.array([[2.0, 2.0, 2.0]])
        offsets, hits = get_backend("c").walk(tree, *box)
        assert np.array_equal(hits, batch_box_query(tree, *box)[1])
        assert offsets.tolist() == [0, tree.leaf_ids().size]


def p3m_index_lists(solver, pos, n_targets):
    """P3M's streamed lists from index lists, in cloud row numbers: each
    occupied cell's real members in ``order`` as targets, and the members
    of its occupied 27-neighbourhood, row-major, as candidates, kept
    when their float32 squared distance to the float32 box of the
    targets is within the cull radius."""
    ncell, uniq, starts, order = solver._bin(pos)
    cells = {int(c): order[starts[g]:starts[g + 1]]
             for g, c in enumerate(uniq)}
    p32 = pos.astype(np.float32)
    radius2 = np.float32(cull_radius(solver.kernel.rcut, pos) ** 2)
    targets, sources = [], []
    for g, c in enumerate(uniq):
        members = cells[int(c)]
        members = members[members < n_targets]
        cx, cy, cz = np.unravel_index(c, ncell)
        lists = [np.empty(0, np.int64)]
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                for oz in (-1, 0, 1):
                    nb = np.array([cx + ox, cy + oy, cz + oz])
                    if ((nb >= 0) & (nb < ncell)).all():
                        lists.append(cells.get(
                            int(np.ravel_multi_index(nb, ncell)),
                            np.empty(0, np.int64)))
        cand = np.concatenate(lists)
        targets.append(members)
        if not members.size:
            sources.append(cand[:0])
            continue
        lo, hi = p32[members].min(axis=0), p32[members].max(axis=0)
        d = np.clip(p32[cand], lo, hi) - p32[cand]
        d2 = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
        sources.append(cand[d2 <= radius2])
    offsets = lambda parts: np.concatenate(  # noqa: E731
        ([0], np.cumsum([a.size for a in parts])))
    return (np.concatenate(targets), offsets(targets),
            np.concatenate(sources), offsets(sources))


class TestP3MWholeCells:
    """P3M hands the cull whole cells of its cell-sorted cloud: mapped
    back through the sort, its lists are the index-listed ones."""

    @pytest.fixture(params=["numpy", "c"])
    def backend(self, request):
        try:
            get_backend(request.param)
        except BackendUnavailable as exc:
            pytest.skip(str(exc))
        return request.param

    @staticmethod
    def cloud(rng, dtype):
        pos, m = periodic_ghosts(clustered_cloud(rng, 600),
                                 rng.uniform(0.5, 1.5, 600), BOX, 3.0)
        return pos.astype(dtype), m.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_range_batch_is_the_index_batch(self, rng, backend, dtype):
        kern = ShortRangeKernel(default_grid_force_fit(), spacing=1.0,
                                eps_cells=0.01, dtype=dtype)
        solver = P3MShortRange(kern, kernel_backend=backend)
        pos, m = self.cloud(rng, dtype)
        seen = []
        evaluate = solver.engine.evaluate

        def capture(batch, positions, masses):
            seen.append(batch)
            return evaluate(batch, positions, masses)

        solver.engine.evaluate = capture
        solver.accelerations_cloud(pos, m, 600)
        order = solver._bin(pos)[3]
        got, = seen
        want = p3m_index_lists(solver, pos, 600)
        assert got.n_pairs > 0
        for k, (a, b) in enumerate(zip(index_lists(got), want)):
            assert np.array_equal(order[a] if k % 2 == 0 else a, b), k

    @pytest.mark.usefixtures("_need_c_backend")
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forces_bitwise_c_numpy(self, rng, dtype):
        kern = ShortRangeKernel(default_grid_force_fit(), spacing=1.0,
                                eps_cells=0.01, dtype=dtype)
        pos, m = self.cloud(rng, dtype)
        acc = [P3MShortRange(kern, kernel_backend=b).accelerations_cloud(
            pos, m, 600) for b in ("numpy", "c")]
        assert acc[0].dtype == dtype and np.abs(acc[0]).max() > 0
        assert np.array_equal(acc[0], acc[1])


class TestTightenedGroups:
    """What ``tighten_ranges`` promises, on either backend."""

    @pytest.fixture(params=["numpy", "c"])
    def backend(self, request):
        try:
            get_backend(request.param)
        except BackendUnavailable as exc:
            pytest.skip(str(exc))
        return request.param

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_groups_partition_the_real_targets(self, rng, backend, dtype):
        rcut = 3.0
        pos, m = periodic_ghosts(clustered_cloud(rng, 800), np.ones(800),
                                 BOX, rcut)
        tree = RCBTree(pos.astype(dtype), m, leaf_size=128)
        batch = pack_tree(tree, rcut, 800, backend)
        assert batch.n_targets.min() >= 1
        assert np.array_equal(np.sort(index_lists(batch)[0]),
                              np.flatnonzero(tree.perm < 800))
        # every kept source is within cull_radius of its group's box, and
        # every source within rcut of a target is in that target's list
        p = tree.positions.astype(np.float32).astype(np.float64)
        radius = cull_radius(rcut, tree.positions)
        for g in range(batch.n_groups):
            tgt, src = group_slices(batch, g)
            lo, hi = p[tgt].min(axis=0), p[tgt].max(axis=0)
            gap = np.clip(p[src], lo, hi) - p[src]
            assert (np.einsum("ij,ij->i", gap, gap)
                    <= radius**2 * (1 + 1e-6)).all()
            sep = np.linalg.norm(p[tgt][:, None] - p[None], axis=2)
            assert np.isin(np.flatnonzero((sep < rcut).any(axis=0)),
                           src).all()


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

    def test_f_sr_pairs_matches_f_sr_cells(self, kernel, kernel32):
        """The numpy backend's allocation-free coefficient is the
        kernel's ``f_sr_cells`` inside the cutoff, in the kernel dtype."""
        for kern in (kernel, kernel32):
            s = np.linspace(0.05, 0.9, 40, dtype=kern.dtype)
            s *= kern.dtype(kern.fit.rcut_cells**2)
            out = np.empty_like(s)
            scratch = np.empty_like(s)
            coeffs = np.asarray(kern.fit.coefficients, dtype=kern.dtype)
            _f_sr_pairs(s, coeffs, kern.dtype(kern.eps_cells), out, scratch)
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
