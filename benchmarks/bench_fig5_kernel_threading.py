"""Fig. 5 — threading performance of the force-evaluation kernel.

* **modeled**: percent-of-peak curves for all eight (ranks/node,
  threads/rank) configurations over the Fig. 5 neighbor-list range, with
  the paper's qualitative features asserted (80% plateau at 4
  threads/core, ~3x gap to 1 thread/core, mild ranks-per-node penalty);
* **measured**: this reproduction's vectorized NumPy kernel, timed per
  interaction as a function of interaction-list size — the same
  "efficiency grows with list size" shape, in interpreted-Python units.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.instrument.report import write_bench_record
from repro.machine.kernel_model import FIG5_CONFIGS, ForceKernelModel
from repro.shortrange.backends import available_backends, get_backend
from repro.shortrange.grid_force import default_grid_force_fit
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import TreePMShortRange

from conftest import print_table

LIST_SIZES = np.array([64, 125, 250, 500, 1000, 2500, 5000], dtype=float)
REPO_ROOT = Path(__file__).resolve().parents[1]


class TestFig5Model:
    def test_all_configurations(self, benchmark):
        model = ForceKernelModel()
        curves = benchmark(lambda: model.fig5_curves(LIST_SIZES))

        rows = []
        for (r, t), vals in curves.items():
            rows.append(
                [f"{r}r x {t}t"] + [f"{v:.1f}" for v in vals]
            )
        print_table(
            "Fig. 5: % of node peak vs neighbor-list size",
            ["config"] + [str(int(n)) for n in LIST_SIZES],
            rows,
        )

        # paper features:
        four_per_core = curves[(16, 4)]
        one_per_core = curves[(16, 1)]
        # close to 80% of peak at 4 threads/core and large lists
        assert 74 < four_per_core[-1] < 81
        # broad plateau: half the peak value reached well before n=500
        assert four_per_core[3] > 0.8 * four_per_core[-1]
        # 1 thread/core sits ~3x lower (6-cycle latency, 2 streams)
        assert one_per_core[-1] == pytest.approx(
            four_per_core[-1] / 3.0, rel=0.05
        )
        # 2 ranks/node: exceptional but slightly below 16 ranks/node
        assert curves[(2, 32)][-1] < four_per_core[-1]
        assert curves[(2, 32)][-1] > 0.9 * four_per_core[-1]

    def test_typical_run_band(self, benchmark):
        """Representative simulations have lists of 500-2500 (Section
        III); the model puts the 16/4 operating point at 65-78% there."""
        model = ForceKernelModel()
        band = benchmark(
            lambda: 100 * model.peak_fraction(
                np.array([500.0, 2500.0]), 16, 4
            )
        )
        assert 60 < band[0] < band[1] < 80


class TestMeasuredKernel:
    @pytest.mark.parametrize("nlist", [64, 512, 2048])
    def test_per_interaction_cost(self, benchmark, nlist):
        """NumPy kernel time per interaction falls with list size (the
        vectorization-efficiency shape of Fig. 5)."""
        fit = default_grid_force_fit()
        kernel = ShortRangeKernel(fit, spacing=1.0)
        rng = np.random.default_rng(1)
        targets = rng.uniform(0, 2.0, (64, 3))
        sources = rng.uniform(0, 4.0, (nlist, 3))
        masses = np.ones(nlist)
        benchmark(lambda: kernel.accumulate(targets, sources, masses))

    def test_efficiency_grows_with_list(self, benchmark):
        """Directly verify the plateau shape on the real kernel."""
        import time

        fit = default_grid_force_fit()
        kernel = ShortRangeKernel(fit, spacing=1.0)
        rng = np.random.default_rng(2)
        targets = rng.uniform(0, 2.0, (16, 3))

        def measure() -> dict:
            per_interaction = {}
            for nlist in (8, 4096):
                sources = rng.uniform(0, 4.0, (nlist, 3))
                masses = np.ones(nlist)
                kernel.accumulate(targets, sources, masses)  # warm up
                t0 = time.perf_counter()
                reps = 10
                for _ in range(reps):
                    kernel.accumulate(targets, sources, masses)
                dt = time.perf_counter() - t0
                per_interaction[nlist] = dt / (reps * 16 * nlist)
            return per_interaction

        per_interaction = benchmark.pedantic(measure, rounds=1, iterations=1)
        print(f"\nmeasured ns/interaction: small list "
              f"{per_interaction[8] * 1e9:.1f}, large list "
              f"{per_interaction[4096] * 1e9:.1f}")
        assert per_interaction[4096] < 0.5 * per_interaction[8]


class TestKernelBackendSweep:
    """Backend x precision sweep of the short-range force — the record
    behind ``check_regression.py``'s kernel rows.

    Times the same end-to-end TreePM evaluation (tree + lists + kernel)
    through every available kernel backend at both precisions, and
    inside it the time spent in ``pair_accumulate`` alone, asserts the
    seam's correctness contract (identical pair counts everywhere; the C
    backend bitwise equal to numpy at each precision; f32 within 1e-4 of
    f64), and leaves a repo-root ``BENCH_kernels.json`` with the
    backends that ran and, per configuration, seconds and ns per
    streamed pair end to end and kernel-only, plus the pair path the
    backend ran (``kernel_simd``) — the numbers the gate holds under
    absolute ceilings — and, reported only, the kernel's ns per pair
    inside the cutoff, which list tightening leaves alone.
    """

    N = 20000
    BOX = 32.0
    REPS = 3

    def test_backend_precision_sweep(self, benchmark, rng, monkeypatch):
        fit = default_grid_force_fit()
        backends = list(available_backends())
        pos = rng.uniform(0, self.BOX, (self.N, 3))
        masses = rng.uniform(0.5, 1.5, self.N)

        def measure() -> list[dict]:
            entries = []
            for backend in backends:
                be = get_backend(backend)
                inside = []  # seconds of each pair_accumulate call

                def timed(*args, _call=be.pair_accumulate):
                    t0 = time.perf_counter()
                    try:
                        return _call(*args)
                    finally:
                        inside.append(time.perf_counter() - t0)

                monkeypatch.setattr(be, "pair_accumulate", timed)
                for precision, dtype in (
                    ("f64", np.float64), ("f32", np.float32)
                ):
                    kernel = ShortRangeKernel(
                        fit, spacing=1.0, eps_cells=0.01, dtype=dtype
                    )
                    solver = TreePMShortRange(
                        kernel, leaf_size=128, kernel_backend=backend
                    )
                    # warm-up: numpy grows its workspace buffers
                    solver.accelerations(pos, masses, box_size=self.BOX)
                    best = best_kernel = np.inf
                    for _ in range(self.REPS):
                        inside.clear()
                        t0 = time.perf_counter()
                        acc = solver.accelerations(
                            pos, masses, box_size=self.BOX
                        )
                        best = min(best, time.perf_counter() - t0)
                        best_kernel = min(best_kernel, sum(inside))
                    pairs, inside_pairs = solver.last_pairs
                    entries.append(
                        {
                            "backend": backend,
                            "precision": precision,
                            "seconds": best,
                            "interactions": pairs,
                            "ns_per_pair": 1e9 * best / max(pairs, 1),
                            "kernel_seconds": best_kernel,
                            "kernel_ns_per_pair":
                                1e9 * best_kernel / max(pairs, 1),
                            # report only: the kernel's cost per pair
                            # inside the cutoff does not move when the
                            # lists tighten, its cost per streamed pair
                            # does
                            "kernel_ns_per_inside_pair":
                                1e9 * best_kernel / max(inside_pairs, 1),
                            "kernel_simd": be.simd,
                            "acc": acc,
                        }
                    )
            return entries

        entries = benchmark.pedantic(measure, rounds=1, iterations=1)

        by_key = {(e["backend"], e["precision"]): e for e in entries}
        ref = by_key[("numpy", "f64")]

        # contract: every configuration evaluates the identical lists
        for e in entries:
            assert e["interactions"] == ref["interactions"], (
                f"{e['backend']}/{e['precision']} charged "
                f"{e['interactions']} pairs != numpy/f64 "
                f"{ref['interactions']}"
            )
        # contract: the compiled kernel is bitwise the reference, f64 and f32
        for e in entries:
            assert np.array_equal(
                e["acc"], by_key[("numpy", e["precision"])]["acc"]
            ), f"{e['backend']}/{e['precision']} differs from numpy"
        # f32 tracks f64 at the documented tolerance
        scale = np.abs(ref["acc"]).max()
        for e in entries:
            if e["precision"] == "f32":
                assert (
                    np.max(np.abs(e["acc"] - ref["acc"])) < 1e-4 * scale
                ), f"{e['backend']}/f32 drifted beyond 1e-4"

        table = []
        for e in entries:
            table.append(
                [
                    f"{e['backend']}/{e['precision']}",
                    f"{e['seconds']:.3f}",
                    f"{e['ns_per_pair']:.1f}",
                    f"{e['kernel_ns_per_pair']:.2f}",
                    f"{e['kernel_ns_per_inside_pair']:.2f}",
                    e["kernel_simd"] or "-",
                    f"{ref['seconds'] / e['seconds']:.2f}x",
                ]
            )
        print_table(
            f"Kernel backends: end-to-end short-range force "
            f"(N={self.N}, {ref['interactions']} pairs)",
            ["config", "seconds", "ns/pair", "kernel ns/pair",
             "kernel ns/inside", "simd", "vs numpy/f64"],
            table,
        )

        payload = {
            "nodeid": "bench_fig5_kernel_threading.py::kernel_backends",
            "duration_s": sum(e["seconds"] for e in entries),
            "problem": {
                "box_size": self.BOX,
                "n": self.N,
                "leaf_size": 128,
                "reps": self.REPS,
            },
            "backends": backends,
            "entries": [
                {k: v for k, v in e.items() if k != "acc"}
                for e in entries
            ],
        }
        path = write_bench_record("kernels", payload, directory=REPO_ROOT)
        print(f"record -> {path}")
