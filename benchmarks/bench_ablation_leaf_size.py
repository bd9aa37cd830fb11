"""Ablation A3 — the fat-leaf walk/kernel trade-off (Section III).

"The RCB tree ... decreases the overall force evaluation time by shifting
workload away from the slow tree-walking and into the force kernel.  Up
to a point, doing this actually speeds up the overall calculation: the
time spent in the force kernel goes up but the walk time decreases
faster."

This bench sweeps the leaf capacity on a clustered particle set, timing
tree build + list packing (:func:`~repro.shortrange.batch.pack_tree`)
separately from kernel work, and verifies (a) walk work falls steeply
with leaf size, (b) kernel work (pair interactions) grows, and (c) the
answer never changes.
"""

import time

import numpy as np
import pytest

from repro.shortrange.batch import BatchedPairEngine, pack_tree
from repro.shortrange.grid_force import default_grid_force_fit
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.rcb_tree import RCBTree
from repro.shortrange.solvers import TreePMShortRange

from conftest import print_table

LEAF_SIZES = [4, 16, 64, 256]


def clustered_cloud(n_clusters=8, per_cluster=120, seed=7):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(2, 14, (n_clusters, 3))
    pos = np.concatenate(
        [c + 0.5 * rng.standard_normal((per_cluster, 3)) for c in centers]
    )
    return pos, np.ones(len(pos))


class TestLeafSizeAblation:
    def test_walk_vs_kernel_tradeoff(self, benchmark):
        pos, masses = clustered_cloud()
        fit = default_grid_force_fit()

        def build(leaf, rcut):
            """Best of three tree + list builds: each is under a few
            ms, so one timing would be mostly noise."""
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                tree = RCBTree(pos, masses, leaf_size=leaf)
                batch = pack_tree(tree, rcut)
                times.append(time.perf_counter() - t0)
            return tree, batch, min(times)

        def sweep():
            out = {}
            for leaf in LEAF_SIZES:
                kernel = ShortRangeKernel(fit, spacing=1.0)
                tree, batch, walk_time = build(leaf, kernel.rcut)
                t0 = time.perf_counter()
                BatchedPairEngine(kernel).evaluate(
                    batch, tree.positions, tree.masses
                )
                kernel_time = time.perf_counter() - t0
                out[leaf] = {
                    "n_leaves": batch.n_groups,
                    "walk_s": walk_time,
                    "kernel_s": kernel_time,
                    # each leaf's targets x its list length
                    "interactions": batch.n_pairs,
                    "mean_list": float(batch.n_sources.mean()),
                }
            return out

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        rows = [
            [leaf, r["n_leaves"], f"{r['mean_list']:.0f}",
             f"{r['walk_s'] * 1e3:.1f}", f"{r['kernel_s'] * 1e3:.1f}",
             f"{r['interactions']:.2e}"]
            for leaf, r in results.items()
        ]
        print_table(
            "leaf-size ablation (clustered cloud)",
            ["leaf", "leaves", "mean list", "walk [ms]", "kernel [ms]",
             "interactions"],
            rows,
        )
        # walk work falls steeply with fat leaves ...
        assert results[256]["walk_s"] < 0.5 * results[4]["walk_s"]
        assert results[256]["n_leaves"] < results[4]["n_leaves"] / 10
        # ... while kernel work (pair count) grows
        assert results[256]["interactions"] > results[4]["interactions"]
        # and the shared list grows with the leaf (the accuracy argument:
        # more of the nearby force summed exactly)
        assert results[256]["mean_list"] > results[4]["mean_list"]

    def test_answer_invariant(self, benchmark):
        """Leaf size is a pure performance knob."""
        pos, masses = clustered_cloud()
        fit = default_grid_force_fit()

        def forces(leaf):
            solver = TreePMShortRange(
                ShortRangeKernel(fit, spacing=1.0), leaf_size=leaf
            )
            return solver.accelerations(pos, masses)

        ref = benchmark.pedantic(
            lambda: forces(64), rounds=1, iterations=1
        )
        for leaf in (4, 256):
            assert np.allclose(forces(leaf), ref, atol=1e-11)
