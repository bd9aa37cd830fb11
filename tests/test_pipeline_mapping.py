"""Tests for the torus mapping analysis."""

import pytest

from repro.machine.mapping import MappingAnalysis
from repro.parallel.topology import TorusTopology


class TestMappingAnalysis:
    def test_linear_rows_compact_columns_spread(self):
        """The naive mapping's signature: row communicators cheap,
        column communicators near the machine mean."""
        m = MappingAnalysis(16, 8, ranks_per_node=4)
        hops = m.subset_hops("linear")
        assert hops["row_mean_hops"] < hops["col_mean_hops"]
        assert hops["col_mean_hops"] > 0.7 * hops["machine_mean_hops"]

    def test_blocked_balances_families(self):
        m = MappingAnalysis(16, 8, ranks_per_node=4)
        hops = m.subset_hops("blocked")
        assert hops["row_mean_hops"] == pytest.approx(
            hops["col_mean_hops"], rel=0.5
        )

    def test_blocked_improves_worst_family(self):
        """The paper's 'reduction in communication hotspots' requires a
        locality-aware mapping; blocking beats linear on the worst
        communicator family."""
        for pr, pc in ((8, 8), (16, 8), (16, 16)):
            m = MappingAnalysis(pr, pc, ranks_per_node=4)
            assert m.locality_advantage() > 1.2

    def test_subset_hops_below_machine_mean(self):
        """Both communicator families stay below random-pair distance
        under the blocked mapping — the subset-locality assumption of
        the FFT comm model."""
        m = MappingAnalysis(16, 16, ranks_per_node=4)
        hops = m.subset_hops("blocked")
        assert hops["worst_family_hops"] < hops["machine_mean_hops"]

    def test_single_node_all_zero(self):
        m = MappingAnalysis(
            2, 2, ranks_per_node=4, torus=TorusTopology((1,))
        )
        hops = m.subset_hops("linear")
        assert hops["worst_family_hops"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MappingAnalysis(0, 4)
        with pytest.raises(ValueError):
            MappingAnalysis(4, 4, ranks_per_node=0)
        m = MappingAnalysis(4, 4)
        with pytest.raises(ValueError):
            m.node_of_rank(9, 0, "linear")
        with pytest.raises(ValueError):
            m.node_of_rank(0, 0, "random")
