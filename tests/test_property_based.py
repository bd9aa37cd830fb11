"""Property-based tests (hypothesis) for core data structures and
invariants: distributed FFT round trips, CIC conservation/adjointness,
RCB partition invariants, overloading conservation, FOF percolation
monotonicity, and torus metric axioms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fft import PencilFFT, SlabFFT
from repro.grid.cic import cic_deposit, cic_interpolate
from repro.parallel.comm import SimulatedComm
from repro.parallel.decomposition import DomainDecomposition, balanced_dims
from repro.parallel.overload import OverloadExchange
from repro.parallel.topology import TorusTopology
from repro.shortrange.rcb_tree import RCBTree
from repro.analysis.halos import fof_halos

# reusable strategies -------------------------------------------------------

#: odd, prime and composite grid sizes, each with the rank grids dividing it
FFT_SIZES = (5, 6, 7, 10, 12)


def _divisors(n):
    return st.sampled_from([d for d in range(1, n + 1) if n % d == 0])


@st.composite
def distributed_ffts(draw):
    """``(fft, x)``: a pencil or slab FFT on a rank grid dividing ``n``
    and a complex ``(n, n, n)`` field for it."""
    n = draw(st.sampled_from(FFT_SIZES))
    if draw(st.booleans()):
        fft = PencilFFT(n, draw(_divisors(n)), draw(_divisors(n)))
    else:
        fft = SlabFFT(n, draw(_divisors(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    x = scale * (
        rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    )
    return fft, x


def _layouts(fft):
    """The (real-space, spectrum) layout names of ``fft``'s blocks."""
    if isinstance(fft, PencilFFT):
        return "z-pencil", "x-pencil"
    return "x-slab", "y-slab"


def _forward(fft, x):
    return fft.gather(fft.forward(fft.scatter(x)), _layouts(fft)[1])


def positions(max_n=200, box=10.0):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: arrays(
            np.float64,
            (n, 3),
            elements=st.floats(
                min_value=0.0,
                max_value=box,
                exclude_max=True,
                allow_nan=False,
            ),
        )
    )


class TestFFTProperties:
    """The paper's distributed 3-D FFTs, pencil and slab."""

    @given(case=distributed_ffts())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, case):
        fft, x = case
        back = fft.gather(
            fft.inverse(fft.forward(fft.scatter(x))), _layouts(fft)[0]
        )
        assert np.allclose(back, x, atol=1e-8 * (1 + np.abs(x).max()))

    @given(case=distributed_ffts())
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, case):
        fft, x = case
        atol = 1e-8 * (1 + np.abs(x).max())
        assert np.allclose(_forward(fft, x), np.fft.fftn(x), atol=atol)

    @given(
        case=distributed_ffts(),
        axis=st.integers(min_value=0, max_value=2),
        shift=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_shift_theorem(self, case, axis, shift):
        """Circular shift in real space is a phase ramp in k-space."""
        fft, x = case
        n = x.shape[axis]
        s = shift % n
        lhs = _forward(fft, np.roll(x, s, axis=axis))
        ramp = np.exp(-2j * np.pi * np.arange(n) * s / n)
        shape = [1, 1, 1]
        shape[axis] = n
        rhs = _forward(fft, x) * ramp.reshape(shape)
        assert np.allclose(lhs, rhs, atol=1e-7 * (1 + np.abs(x).max()))

    @given(case=distributed_ffts())
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, case):
        fft, x = case
        lhs = float(np.sum(np.abs(x) ** 2))
        rhs = float(np.sum(np.abs(_forward(fft, x)) ** 2)) / x.size
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


class TestCICProperties:
    @given(pos=positions())
    @settings(max_examples=30, deadline=None)
    def test_mass_conserved(self, pos):
        grid = cic_deposit(pos, 8, 10.0)
        assert grid.sum() == pytest.approx(pos.shape[0], rel=1e-9)

    @given(pos=positions())
    @settings(max_examples=30, deadline=None)
    def test_deposit_nonnegative(self, pos):
        assert np.all(cic_deposit(pos, 8, 10.0) >= 0)

    @given(pos=positions(max_n=60), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_adjointness(self, pos, data):
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**31))
        )
        g = rng.standard_normal((8, 8, 8))
        w = rng.uniform(0.5, 2.0, pos.shape[0])
        lhs = float(np.sum(cic_deposit(pos, 8, 10.0, w) * g))
        rhs = float(np.sum(w * cic_interpolate(g, pos, 10.0)))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(
        pos=positions(max_n=50),
        shift=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_translation_covariance_by_cells(self, pos, shift):
        """Shifting all particles by an integer number of cells rolls
        the deposited grid."""
        n, box = 8, 10.0
        cells = int(shift) % n
        delta = cells * (box / n)
        a = cic_deposit(pos, n, box)
        b = cic_deposit(np.mod(pos + [delta, 0, 0], box), n, box)
        assert np.allclose(np.roll(a, cells, axis=0), b, atol=1e-9)


class TestRCBProperties:
    @given(pos=positions(max_n=300), leaf=st.integers(min_value=1, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_partition_invariants(self, pos, leaf):
        tree = RCBTree(pos, leaf_size=leaf)
        # permutation property
        assert np.array_equal(np.sort(tree.perm), np.arange(pos.shape[0]))
        # leaves partition the particles
        total = sum(tree.node(l).count for l in tree.leaves())
        assert total == pos.shape[0]
        # reordering consistent
        assert np.allclose(tree.positions, pos[tree.perm])

    @given(pos=positions(max_n=200))
    @settings(max_examples=15, deadline=None)
    def test_sibling_disjointness_along_split(self, pos):
        tree = RCBTree(pos, leaf_size=16)
        for i in range(tree.n_nodes):
            node = tree.node(i)
            if node.is_leaf:
                continue
            l, r = tree.node(node.left), tree.node(node.right)
            # children tile the parent slice
            assert l.count + r.count == node.count
            # children bboxes nest inside the parent's
            assert np.all(l.lo >= node.lo - 1e-12)
            assert np.all(r.hi <= node.hi + 1e-12)


class TestOverloadProperties:
    @given(
        pos=positions(max_n=150, box=40.0),
        depth=st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_conservation_and_roles(self, pos, depth):
        decomp = DomainDecomposition(40.0, (2, 2, 1))
        ex = OverloadExchange(decomp, depth)
        mom = np.zeros_like(pos)
        domains = ex.distribute(pos, mom)
        ids = np.concatenate([d.ids[d.active] for d in domains])
        assert len(ids) == pos.shape[0]
        assert len(np.unique(ids)) == pos.shape[0]
        # refresh is idempotent on a static distribution
        again = ex.refresh(domains)
        for a, b in zip(domains, again):
            assert a.n_active == b.n_active
            assert a.n_passive == b.n_passive


class TestCommProperties:
    @given(
        sizes=st.lists(
            st.integers(min_value=0, max_value=20), min_size=4, max_size=4
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_alltoall_byte_accounting(self, sizes):
        comm = SimulatedComm(2)
        send = [
            [np.zeros(sizes[0]), np.zeros(sizes[1])],
            [np.zeros(sizes[2]), np.zeros(sizes[3])],
        ]
        comm.alltoallv(send)
        # only off-diagonal payloads are charged
        expected = (sizes[1] + sizes[2]) * 8
        assert comm.stats.bytes == expected


class TestTorusProperties:
    @given(
        dims=st.lists(
            st.integers(min_value=1, max_value=6), min_size=1, max_size=4
        ),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_metric_axioms(self, dims, data):
        t = TorusTopology(tuple(dims))
        n = t.n_nodes
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        c = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert t.hops(a, a) == 0
        assert t.hops(a, b) == t.hops(b, a)
        assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)
        assert t.hops(a, b) <= t.diameter


class TestBalancedDimsProperties:
    @given(n=st.integers(min_value=1, max_value=100000))
    @settings(max_examples=60, deadline=None)
    def test_product_preserved(self, n):
        dims = balanced_dims(n)
        assert int(np.prod(dims)) == n


class TestFOFProperties:
    @given(pos=positions(max_n=120, box=20.0))
    @settings(max_examples=15, deadline=None)
    def test_linking_length_monotonicity(self, pos):
        """Larger linking length can only merge groups: the number of
        groups (incl. singletons) is non-increasing in the linking
        length."""
        counts = []
        for ll in (0.5, 1.0, 2.0):
            cat = fof_halos(
                np.mod(pos, 20.0), 20.0, linking_length=ll, min_members=1
            )
            counts.append(cat.n_halos)
        assert counts[0] >= counts[1] >= counts[2]
