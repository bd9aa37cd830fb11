"""Tests for the pencil- and slab-decomposed distributed FFTs."""

import numpy as np
import pytest

from repro.fft.pencil import PencilFFT, PencilLayout
from repro.fft.slab import SlabFFT
from repro.parallel.comm import SimulatedComm


class TestPencilLayout:
    def test_local_shapes(self):
        lay = PencilLayout("z-pencil", 2, 4, 16)
        assert lay.local_shape() == (8, 4, 16)
        assert PencilLayout("y-pencil", 2, 4, 16).local_shape() == (8, 16, 4)
        assert PencilLayout("x-pencil", 2, 4, 16).local_shape() == (16, 8, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PencilLayout("w-pencil", 2, 2, 8).local_shape()


class TestPencilFFT:
    @pytest.mark.parametrize("n,pr,pc", [(8, 1, 1), (8, 2, 2), (8, 4, 2), (12, 3, 2), (12, 2, 3), (16, 4, 4), (10, 5, 2)])
    def test_forward_matches_fftn(self, n, pr, pc, rng):
        x = rng.standard_normal((n, n, n))
        p = PencilFFT(n, pr, pc)
        k = p.gather(p.forward(p.scatter(x)), "x-pencil")
        assert np.allclose(k, np.fft.fftn(x), atol=1e-9)

    @pytest.mark.parametrize("n,pr,pc", [(8, 2, 2), (12, 3, 2)])
    def test_roundtrip(self, n, pr, pc, rng):
        x = rng.standard_normal((n, n, n))
        p = PencilFFT(n, pr, pc)
        back = p.gather(p.inverse(p.forward(p.scatter(x))), "z-pencil")
        assert np.allclose(back.real, x, atol=1e-10)
        assert np.max(np.abs(back.imag)) < 1e-10

    def test_scatter_gather_identity(self, rng):
        x = rng.standard_normal((8, 8, 8))
        p = PencilFFT(8, 2, 4)
        assert np.array_equal(p.gather(p.scatter(x), "z-pencil"), x)

    def test_traffic_is_recorded(self, rng):
        p = PencilFFT(8, 2, 2)
        x = rng.standard_normal((8, 8, 8))
        p.forward(p.scatter(x))
        stats = p.comm.stats
        assert stats.tag_bytes("fft.transpose.zy") > 0
        assert stats.tag_bytes("fft.transpose.yx") > 0

    def test_traffic_matches_analytic_count(self, rng):
        """Recorded bytes equal the analytic per-rank transpose volume."""
        p = PencilFFT(8, 2, 4)
        x = rng.standard_normal((8, 8, 8)).astype(np.complex128)
        p.forward(p.scatter(x))
        recorded = p.comm.stats.bytes
        expected = p.transpose_bytes_per_rank() * p.size
        assert recorded == expected

    def test_trivial_single_rank_has_no_traffic(self, rng):
        p = PencilFFT(8, 1, 1)
        p.forward(p.scatter(rng.standard_normal((8, 8, 8))))
        assert p.comm.stats.bytes == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=8, pr=3, pc=2),   # pr does not divide n
            dict(n=8, pr=2, pc=3),   # pc does not divide n
            dict(n=1, pr=1, pc=1),   # grid too small
            dict(n=8, pr=0, pc=2),   # bad rank grid
            dict(n=2, pr=2, pc=4),   # Nrank > N^2
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            PencilFFT(**kwargs)

    def test_shared_comm_size_checked(self):
        with pytest.raises(ValueError):
            PencilFFT(8, 2, 2, comm=SimulatedComm(3))

    def test_wrong_block_shapes_rejected(self, rng):
        p = PencilFFT(8, 2, 2)
        bad = [rng.standard_normal((4, 4, 4))] * 4
        with pytest.raises(ValueError):
            p.forward(bad)

    def test_rank_ceiling_allows_n_squared(self):
        # pencil supports Nrank up to N^2 (here 4x4=16 ranks on N=4)
        p = PencilFFT(4, 4, 4)
        assert p.size == 16


class TestSlabFFT:
    @pytest.mark.parametrize("n,r", [(8, 1), (8, 2), (8, 4), (8, 8), (12, 3), (10, 5)])
    def test_forward_matches_fftn(self, n, r, rng):
        x = rng.standard_normal((n, n, n))
        s = SlabFFT(n, r)
        k = s.gather(s.forward(s.scatter(x)), "y-slab")
        assert np.allclose(k, np.fft.fftn(x), atol=1e-9)

    def test_roundtrip(self, rng):
        x = rng.standard_normal((8, 8, 8))
        s = SlabFFT(8, 4)
        back = s.gather(s.inverse(s.forward(s.scatter(x))), "x-slab")
        assert np.allclose(back.real, x, atol=1e-10)

    def test_rank_ceiling_enforced(self):
        """The paper's slab limitation: Nrank < N forced the pencil FFT."""
        with pytest.raises(ValueError, match="PencilFFT"):
            SlabFFT(8, 16)

    def test_traffic_matches_analytic_count(self, rng):
        s = SlabFFT(8, 4)
        s.forward(s.scatter(rng.standard_normal((8, 8, 8))))
        assert s.comm.stats.bytes == s.transpose_bytes_per_rank() * s.size

    def test_slab_traffic_exceeds_pencil_at_same_ranks(self, rng):
        """Pencil transposes are subset-local; slab is one global
        all-to-all of the same volume, but pencil splits it into two
        smaller phases — total bytes are comparable, message structure
        differs (pencil: 2 phases of p-1 peers; slab: R-1 peers)."""
        x = rng.standard_normal((8, 8, 8))
        s = SlabFFT(8, 4)
        s.forward(s.scatter(x))
        p = PencilFFT(8, 2, 2)
        p.forward(p.scatter(x))
        assert s.comm.stats.messages == 4 * 3  # R(R-1)
        assert p.comm.stats.messages == 2 * 4 * 1  # 2 phases, 1 peer each

    @pytest.mark.parametrize("kwargs", [dict(n=8, nranks=3), dict(n=1, nranks=1), dict(n=8, nranks=0)])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            SlabFFT(**kwargs)
