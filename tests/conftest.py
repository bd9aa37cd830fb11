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
