"""Tests for the simulated communicator and its traffic accounting."""

import numpy as np
import pytest

from repro import HACCSimulation, SimulationConfig
from repro.fft.pencil import PencilFFT
from repro.grid.poisson import SpectralPoissonSolver
from repro.parallel.comm import CommStats, SimulatedComm
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.overload import OverloadExchange


class TestCommStats:
    def test_record_and_summary(self):
        """Totals and the per-tag ``[messages, bytes]`` summary."""
        s = CommStats(n_ranks=2)
        s.record("a", [(0, 1, 60), (1, 0, 40)])
        s.record("b", [(0, 1, 50)])
        s.record("a", [(1, 0, 25)])
        assert s.messages == 4
        assert s.bytes == 175
        assert s.tag_bytes("a") == 125
        assert dict(s.by_tag) == {"a": [3, 125], "b": [1, 50]}

    def test_unknown_tag_bytes_zero(self):
        assert CommStats(n_ranks=1).tag_bytes("nope") == 0


class TestRankMatrix:
    def test_alltoallv_matrix(self):
        comm = SimulatedComm(3)
        send = [
            [np.zeros(i + j) if i != j else None for j in range(3)]
            for i in range(3)
        ]
        comm.alltoallv(send)
        m = comm.stats.byte_matrix
        assert m[0, 1] == 1 * 8 and m[0, 2] == 2 * 8
        assert m[1, 2] == 3 * 8 and m[2, 1] == 3 * 8
        assert np.all(np.diag(m) == 0)  # self-sends never charged
        assert m.sum() == comm.stats.bytes

    def test_charge_maps_members_to_global_ranks(self):
        """``charge`` is the accounting ``alltoallv`` takes: bytes land at
        the members' global ranks, self and empty messages are free."""
        comm = SimulatedComm(4)
        _, odd = comm.split([0, 1, 0, 1])  # members (1, 3)
        odd.charge(np.array([[5, 7], [0, 9]]), tag="t")
        m = comm.stats.byte_matrix
        assert m[1, 3] == 7 and m.sum() == 7
        assert comm.stats.messages == 1
        assert dict(comm.stats.by_tag) == {"t": [1, 7]}

    def test_exchange_matrix(self):
        """The overload exchange's traffic lands in the byte matrix, and
        ``rank_send_bytes`` (the driver's ``comm_bytes`` gauge) is its
        row sums."""
        decomp = DomainDecomposition(10.0, (2, 1, 1))
        ex = OverloadExchange(decomp, 1.0)
        pos = np.array([[4.5, 5.0, 5.0], [5.5, 5.0, 5.0], [2.0, 5.0, 5.0]])
        ex.distribute(pos, np.zeros_like(pos))
        m = ex.comm.stats.byte_matrix
        assert m[0, 1] > 0 and m[1, 0] > 0
        assert np.all(np.diag(m) == 0)
        assert ex.comm.stats.rank_send_bytes().tolist() == m.sum(axis=1).tolist()
        assert m.sum() == ex.comm.stats.bytes

    def test_split_attributes_to_global_ranks(self):
        comm = SimulatedComm(4)
        cols = comm.split([0, 1, 0, 1])  # members (0, 2) and (1, 3)
        cols[0].alltoallv([[None, np.zeros(1)], [np.zeros(1), None]])
        m = comm.stats.byte_matrix
        # local ranks 0/1 of the sub-communicator are global ranks 0/2
        assert m[0, 2] == 8 and m[2, 0] == 8
        assert m.sum() == 16

    def test_undersized_stats_rejected(self):
        with pytest.raises(ValueError):
            SimulatedComm(4, stats=CommStats(n_ranks=2))


class TestAlltoallv:
    def test_transpose_semantics(self):
        comm = SimulatedComm(3)
        send = [
            [np.full(1, 10 * i + j) for j in range(3)] for i in range(3)
        ]
        recv = comm.alltoallv(send)
        for i in range(3):
            for j in range(3):
                assert recv[j][i][0] == 10 * i + j

    def test_self_messages_not_charged(self):
        comm = SimulatedComm(2)
        send = [[np.zeros(10), None], [None, np.zeros(10)]]
        comm.alltoallv(send)
        assert comm.stats.bytes == 0
        assert comm.stats.messages == 0

    def test_bytes_counted(self):
        comm = SimulatedComm(2)
        send = [[None, np.zeros(4)], [np.zeros(2), None]]
        comm.alltoallv(send)
        assert comm.stats.bytes == (4 + 2) * 8
        assert comm.stats.messages == 2

    def test_empty_arrays_free(self):
        comm = SimulatedComm(2)
        comm.alltoallv([[None, np.empty(0)], [np.empty(0), None]])
        assert comm.stats.messages == 0

    def test_wrong_row_count_rejected(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[None, None]])

    def test_wrong_row_length_rejected(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[None], [None, None]])


class TestSplit:
    def test_groups_and_shared_stats(self):
        comm = SimulatedComm(4)
        rows = comm.split([0, 0, 1, 1])
        assert [c.size for c in rows] == [2, 2]
        assert rows[0].members == (0, 1)
        assert rows[1].members == (2, 3)
        rows[0].alltoallv([[None, np.zeros(1)], [np.zeros(1), None]])
        assert comm.stats.bytes == 16  # parent sees child traffic

    def test_interleaved_colors(self):
        comm = SimulatedComm(4)
        cols = comm.split([0, 1, 0, 1])
        assert cols[0].members == (0, 2)
        assert cols[1].members == (1, 3)

    def test_wrong_color_count(self):
        with pytest.raises(ValueError):
            SimulatedComm(4).split([0, 1])


class TestConstruction:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            SimulatedComm(0)

    def test_members_mismatch(self):
        with pytest.raises(ValueError):
            SimulatedComm(2, members=(0, 1, 2))


class TestRunTraffic:
    """A run's only traffic is the overload exchange (its route's row
    counts) and the pencil-FFT transposes (``alltoallv``), both recorded
    through ``SimulatedComm.charge``, and the byte matrix accounts for
    every recorded byte."""

    TAGS = {"overload.distribute", "fft.transpose.zy", "fft.transpose.yx"}

    def assert_exchange_and_transposes_only(self, stats):
        assert stats.by_tag and set(stats.by_tag) <= self.TAGS
        assert stats.bytes > 0
        assert stats.bytes == stats.byte_matrix.sum()

    def test_decomposed_step(self):
        cfg = SimulationConfig(
            box_size=64.0, n_per_dim=16, z_initial=25.0, z_final=10.0,
            n_steps=1, backend="treepm", seed=5,
        )
        sim = HACCSimulation(
            cfg, decomposition_dims=(2, 1, 1), overload_depth=cfg.rcut() + 0.5
        )
        sim.step()
        self.assert_exchange_and_transposes_only(sim.exchange.comm.stats)

    def test_pencil_force_grids(self, rng):
        delta = rng.standard_normal((8, 8, 8))
        pencil = PencilFFT(8, 2, 2)
        SpectralPoissonSolver(8, 8.0).force_grids_distributed(delta, pencil)
        self.assert_exchange_and_transposes_only(pencil.comm.stats)
