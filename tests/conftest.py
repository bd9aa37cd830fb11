"""Shared fixtures for the test suite.

Heavyweight objects (linear power spectrum, measured grid-force fit) are
session-scoped: they are deterministic, read-only, and expensive enough
that rebuilding them per test would dominate the suite's runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cosmology import LinearPower, WMAP7
from repro.shortrange.grid_force import default_grid_force_fit


@pytest.fixture(scope="session")
def linear_power():
    """Sigma8-normalized WMAP7 linear power spectrum."""
    return LinearPower(WMAP7)


@pytest.fixture(scope="session")
def grid_force_fit():
    """Measured + fitted grid force at nominal filter parameters."""
    return default_grid_force_fit()


def _listed_batch(target_starts, target_counts, sources, positions,
                  real=None):
    """An interaction batch that streams given source lists whole: group
    ``g`` is rows ``target_starts[g]`` up to ``+ target_counts[g]``
    (the rows ``real`` flags, all by default) and lists ``sources[g]``,
    in order, as ranges of one row, kept at an infinite cull radius."""
    from repro.shortrange.batch import tighten_ranges

    n = np.asarray(positions).shape[0]
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in sources])))
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in sources]
                          + [np.empty(0, dtype=np.int64)])
    return tighten_ranges(
        target_starts, target_counts, flat, np.ones_like(flat), offsets,
        np.ones(n, dtype=bool) if real is None else real, positions,
        np.inf, "numpy",
    )


def _walk_list(tree, leaf, rcut):
    """Leaf ``leaf``'s interaction list: the rows, ascending, of every
    leaf its ``rcut``-expanded box touches, as the numpy walk oracle
    :func:`~repro.shortrange.backends.numpy_backend.batch_box_query`
    finds them."""
    from repro.shortrange.backends.numpy_backend import batch_box_query
    from repro.shortrange.rcb_tree import ranges_to_indices

    _, hits = batch_box_query(tree, tree.node_lo[leaf] - rcut,
                              tree.node_hi[leaf] + rcut)
    return ranges_to_indices(tree.node_start[hits], tree.node_count[hits])


@pytest.fixture(scope="session")
def walk_list():
    """:func:`_walk_list`: one leaf's walk list, tree order."""
    return _walk_list


@pytest.fixture(scope="session")
def listed_batch():
    """:func:`_listed_batch`: a batch built from explicit source lists."""
    return _listed_batch


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20120612)  # SC'12 submission-era seed


@pytest.fixture()
def particle_cloud(rng):
    """A small random cloud: (positions, masses) in a 10 Mpc/h cube."""
    pos = rng.uniform(0.0, 10.0, (200, 3))
    masses = rng.uniform(0.5, 1.5, 200)
    return pos, masses
