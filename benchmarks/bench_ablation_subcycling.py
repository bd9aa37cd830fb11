"""Ablation — the SKS sub-cycling count (Eq. 6).

"The number of sub-cycles can vary, depending on the force and mass
resolution of the simulation, from nc = 5-10."  Sub-cycling refreshes the
rapidly varying short-range force while freezing the expensive long-range
solve; this bench sweeps nc and measures (a) convergence of the final
particle state toward a finely sub-cycled reference, and (b) the cost
bookkeeping: long-range solves stay constant while short-range work
scales linearly with nc.
"""

import numpy as np
import pytest

from repro import HACCSimulation, SimulationConfig

from conftest import print_table


def _run(nc: int) -> HACCSimulation:
    cfg = SimulationConfig(
        box_size=64.0,
        n_per_dim=16,
        z_initial=25.0,
        z_final=5.0,
        n_steps=5,
        n_subcycles=nc,
        backend="treepm",
        step_spacing="loga",
        seed=77,
    )
    sim = HACCSimulation(cfg)
    sim.run()
    return sim


class TestSubcyclingAblation:
    def test_convergence_with_nc(self, benchmark):
        sims = benchmark.pedantic(
            lambda: {nc: _run(nc) for nc in (1, 2, 4, 8)},
            rounds=1,
            iterations=1,
        )
        ref = sims[8].particles.positions
        rows = []
        errors = {}
        for nc in (1, 2, 4):
            d = sims[nc].particles.positions - ref
            d -= 64.0 * np.round(d / 64.0)
            rms = float(np.sqrt((d**2).sum(axis=1).mean()))
            errors[nc] = rms
            rows.append([nc, f"{rms:.2e}"])
        print_table(
            "sub-cycling convergence (RMS displacement vs nc=8) [Mpc/h]",
            ["nc", "rms error"],
            rows,
        )
        # more sub-cycles converge toward the reference
        assert errors[1] > errors[2] > errors[4]
        # at nc=4 the state is already tight against nc=8
        assert errors[4] < 0.05 * 64.0 / 16  # 5% of a grid cell

    def test_cost_bookkeeping(self, benchmark):
        """nc multiplies short-range kicks, not Poisson solves — the
        economics that motivate Eq. (6)."""
        sims = benchmark.pedantic(
            lambda: {nc: _run(nc) for nc in (1, 4)},
            rounds=1,
            iterations=1,
        )
        s1, s4 = sims[1].stepper, sims[4].stepper
        # the closing half-kick's force opens the next step: n + 1
        # solves for n steps, at every nc
        for st in (s1, s4):
            assert st.n_long_range_evals == sims[1].config.n_steps + 1
        print(f"\nnc=1: {s1.n_long_range_evals} PM solves, "
              f"{s1.n_short_range_evals} SR kicks; nc=4: "
              f"{s4.n_long_range_evals} PM solves, "
              f"{s4.n_short_range_evals} SR kicks")
        assert s1.n_long_range_evals == s4.n_long_range_evals
        assert s4.n_short_range_evals == 4 * s1.n_short_range_evals
