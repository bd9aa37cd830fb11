"""Tests for halo merger histories."""

import numpy as np
import pytest

from repro.analysis.halos import fof_halos
from repro.analysis.mergers import build_merger_history, match_halos


def _two_snapshot_system(rng, box=60.0):
    """Two blobs at t0 that merge into one at t1 (ids preserved)."""
    n1, n2 = 150, 100
    c1, c2 = np.array([20.0, 30, 30]), np.array([26.0, 30, 30])
    early = np.concatenate(
        [
            c1 + 0.3 * rng.standard_normal((n1, 3)),
            c2 + 0.3 * rng.standard_normal((n2, 3)),
        ]
    )
    merged_center = np.array([23.0, 30, 30])
    late = merged_center + 0.5 * rng.standard_normal((n1 + n2, 3))
    ids = np.arange(n1 + n2)
    return np.mod(early, box), np.mod(late, box), ids


class TestMergers:
    def test_match_two_blobs_to_merger(self, rng):
        early, late, ids = _two_snapshot_system(rng)
        cat0 = fof_halos(early, 60.0, linking_length=1.2, min_members=10)
        cat1 = fof_halos(late, 60.0, linking_length=1.2, min_members=10)
        assert cat0.n_halos == 2
        assert cat1.n_halos == 1
        links = match_halos(cat0, cat1, ids, ids)
        assert len(links) == 2
        assert all(l.descendant == 0 for l in links)
        assert all(l.fraction > 0.9 for l in links)

    def test_identity_matching(self, rng):
        pos = np.mod(
            np.array([30.0, 30, 30]) + 0.3 * rng.standard_normal((100, 3)),
            60.0,
        )
        cat = fof_halos(pos, 60.0, linking_length=1.2, min_members=10)
        ids = np.arange(100)
        links = match_halos(cat, cat, ids, ids)
        assert len(links) == 1
        assert links[0].fraction == 1.0

    def test_min_fraction_filter(self, rng):
        early, late, ids = _two_snapshot_system(rng)
        cat0 = fof_halos(early, 60.0, linking_length=1.2, min_members=10)
        cat1 = fof_halos(late, 60.0, linking_length=1.2, min_members=10)
        links = match_halos(cat0, cat1, ids, ids, min_fraction=0.99)
        assert all(l.fraction >= 0.99 for l in links)

    def test_history_detects_merger(self, rng):
        early, late, ids = _two_snapshot_system(rng)
        cat0 = fof_halos(early, 60.0, linking_length=1.2, min_members=10)
        cat1 = fof_halos(late, 60.0, linking_length=1.2, min_members=10)
        hist = build_merger_history([cat0, cat1], [ids, ids])
        assert hist.n_mergers[0] == 2  # two progenitors -> merger
        # mass grew relative to the main (larger) progenitor
        assert hist.mass_growth[0] == pytest.approx(250 / 150, rel=0.1)

    def test_history_validation(self, rng):
        early, late, ids = _two_snapshot_system(rng)
        cat = fof_halos(early, 60.0, linking_length=1.2)
        with pytest.raises(ValueError):
            build_merger_history([cat], [ids])
        with pytest.raises(ValueError):
            match_halos(cat, cat, ids, ids, min_fraction=2.0)
