"""Ablation — the Section VI multi-tree load-balance roadmap item (R2).

**Multiple trees per rank** ("improve (nodal) load balancing by using
multiple trees at each rank, enabling an improved threading of the
tree-build"): max-block particle count shrinks ~1/n_trees even on
clustered data, bounding the longest single-thread build.
"""

import numpy as np
import pytest

from repro.shortrange.grid_force import default_grid_force_fit
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.multitree import MultiTreeShortRange

from conftest import print_table


def clustered_cloud(rng, n_dense=1600, n_diffuse=400, box=16.0):
    pos = np.concatenate(
        [
            np.mod(rng.standard_normal((n_dense, 3)) * 0.6 + box / 3, box),
            rng.uniform(0, box, (n_diffuse, 3)),
        ]
    )
    return pos, np.ones(len(pos))


class TestMultiTreeLoadBalance:
    def test_build_work_bounded(self, benchmark, rng):
        pos, masses = clustered_cloud(rng)
        fit = default_grid_force_fit()

        def sweep():
            out = {}
            for n_trees in (1, 2, 4, 8):
                solver = MultiTreeShortRange(
                    ShortRangeKernel(fit, spacing=1.0),
                    leaf_size=32,
                    n_trees=n_trees,
                )
                solver.accelerations(pos, masses, box_size=16.0)
                out[n_trees] = solver.last_balance_report()
            return out

        reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
        rows = [
            [n, f"{max(r['particles_per_block']):.0f}",
             f"{r['build_imbalance']:.2f}", f"{r['work_imbalance']:.2f}"]
            for n, r in reports.items()
        ]
        print_table(
            "multi-tree load balance (clustered cloud, 2000 particles)",
            ["trees", "max block", "build imbalance", "work imbalance"],
            rows,
        )
        # the largest single build shrinks ~1/n_trees
        assert max(reports[8]["particles_per_block"]) < 0.2 * max(
            reports[1]["particles_per_block"]
        )
        # and stays balanced despite the clustering
        assert reports[8]["build_imbalance"] < 1.2

    def test_answers_identical_across_tree_counts(self, benchmark, rng):
        pos, masses = clustered_cloud(rng, n_dense=400, n_diffuse=100)
        fit = default_grid_force_fit()

        def both():
            one = MultiTreeShortRange(
                ShortRangeKernel(fit, 1.0), leaf_size=32, n_trees=1
            ).accelerations(pos, masses, box_size=16.0)
            eight = MultiTreeShortRange(
                ShortRangeKernel(fit, 1.0), leaf_size=32, n_trees=8
            ).accelerations(pos, masses, box_size=16.0)
            return float(np.abs(one - eight).max())

        dev = benchmark.pedantic(both, rounds=1, iterations=1)
        print(f"\nmax deviation 1 vs 8 trees: {dev:.2e}")
        assert dev < 1e-11

