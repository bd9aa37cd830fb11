"""Short/close-range force solvers.

HACC obtains the short-range force by subtracting the (spectrally
filtered) grid force from the exact Newtonian force (Section II):

.. math:: f_{SR}(s) = (s + \\epsilon)^{-3/2} - \\mathrm{poly}_5(s),
          \\qquad s = r \\cdot r,

where the fifth-order polynomial is fitted to the numerically measured
grid force.  Two rank-local backends evaluate it, matching the paper's
architecture menu:

* :class:`TreePMShortRange` — the BG/Q path: recursive coordinate
  bisection (RCB) tree with fat leaves and shared per-leaf interaction
  lists ("PPTreePM");
* :class:`P3MShortRange` — the Roadrunner/GPU path: chaining-mesh direct
  particle-particle sums (P3M).

Both agree with direct :math:`O(N^2)` summation to machine precision on
small systems, and the two full-code backends agree on the nonlinear
power spectrum at the sub-percent level (the paper quotes 0.1%).
"""

from repro.shortrange.batch import (
    BatchedPairEngine,
    InteractionBatch,
    Workspace,
    pack_tree,
)
from repro.shortrange.backends.numpy_backend import batch_box_query
from repro.shortrange.grid_force import (
    GridForceFit,
    fit_grid_force,
    measure_grid_force,
    pair_force_normalization,
)
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree, ranges_to_indices
from repro.shortrange.solvers import (
    DirectShortRange,
    P3MShortRange,
    TreePMShortRange,
    periodic_ghosts,
)

__all__ = [
    "GridForceFit",
    "measure_grid_force",
    "fit_grid_force",
    "pair_force_normalization",
    "ShortRangeKernel",
    "RCBTree",
    "TreePMShortRange",
    "P3MShortRange",
    "DirectShortRange",
    "periodic_ghosts",
    "BatchedPairEngine",
    "InteractionBatch",
    "Workspace",
    "batch_box_query",
    "pack_tree",
    "ranges_to_indices",
]
