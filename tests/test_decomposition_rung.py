"""Validation rung: decomposed and undecomposed trajectories agree.

Overloading (Sec. II of the paper) is meant to make the rank-local
short-range solve exact: every domain holds complete copies of the
particles within the overload depth ``d`` of its faces, so with
``d >= rcut`` each target sees every source inside its cutoff, on any
decomposition.  The runs below take one 16^3 treepm step from the same
initial conditions, undecomposed and on (2, 1, 1) and (2, 2, 1) domains
at ``d = rcut`` and ``d = rcut`` plus one grid cell, in float64 and
float32, on the C and the numpy backends, and compare the final
positions (minimum image).

The bound.  All runs sum the same in-cutoff pairs; only the order of
each target's pair sum differs, because each domain's RCB tree is built
over its actives plus its shell and the tree fixes the order in which a
target's sources stream.  A reordered sum moves by a few ulps of the
force, and one step carries that into the positions as a few ulps of
the box.  A deeper shell, or thinner domains, puts more replica rows
into every tree, ``R(d) = prod_a (1 + 2 d / w_a)`` rows per active for
domain widths ``w_a``, so more of every tree, and of every target's
sum order, differs from the undecomposed run's.  The bound grows with
it::

    max |x_decomposed - x_undecomposed| <= 64 eps box R(d)

``eps`` the state's machine epsilon.  Measured: at most 6.8e-13 Mpc/h
in float64 (bound 1.3e-12 to 2.0e-12) and bitwise equal in float32
(each target's sum runs in one double partial, so a reorder rarely
reaches float32).  A route that drops the replicas of one face offset,
(-1, 0, 0), leaves an unsoftened close pair without its partner and
moves a position by 27.5 Mpc/h.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.shortrange.backends import BackendUnavailable, get_backend

BOX = 64.0
#: decompositions compared with the undecomposed run
DIMS = [(2, 1, 1), (2, 2, 1)]


def _have_c() -> bool:
    try:
        get_backend("c")
    except BackendUnavailable:
        return False
    return True


def config(dtype: str, kernel_backend: str) -> SimulationConfig:
    # a 32^3 PM grid keeps rcut + one cell (8 Mpc/h) under half of a
    # 32 Mpc/h domain
    return SimulationConfig(
        box_size=BOX, n_per_dim=16, grid_size=32, z_initial=25.0,
        z_final=0.0, n_steps=1, n_subcycles=2, backend="treepm", seed=3,
        dtype=dtype, kernel_backend=kernel_backend,
    )


def final_positions(cfg, dims=None, depth=None) -> np.ndarray:
    with HACCSimulation(
        cfg, decomposition_dims=dims, overload_depth=depth
    ) as sim:
        sim.run()
        return sim.particles.positions.astype(np.float64)


def bound(cfg, dims, depth) -> float:
    widths = BOX / np.asarray(dims, dtype=np.float64)
    rows_per_active = float(np.prod(1.0 + 2.0 * depth / widths))
    eps = float(np.finfo(cfg.precision_dtype).eps)
    return 64.0 * eps * BOX * rows_per_active


@pytest.mark.parametrize("kernel_backend", [
    pytest.param("c", marks=pytest.mark.skipif(
        not _have_c(), reason="C backend unavailable")),
    "numpy",
])
@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_decomposed_trajectories_match_undecomposed(dtype, kernel_backend):
    cfg = config(dtype, kernel_backend)
    ref = final_positions(cfg)
    for dims in DIMS:
        for depth in (cfg.rcut(), cfg.rcut() + cfg.spacing()):
            got = final_positions(cfg, dims, depth)
            diff = np.abs((got - ref + BOX / 2) % BOX - BOX / 2).max()
            tol = bound(cfg, dims, depth)
            assert diff <= tol, (dims, depth, diff, tol)
