"""Executor scaling — the measured analogue of the Fig. 5 speedup story.

The paper's Fig. 5 shows the short-range kernel's throughput growing
with threads per core; :mod:`bench_fig5_kernel_threading` reproduces
that **modeled** curve.  This bench puts the *measured* curve next to
it: the per-domain short-range phase of a small overloaded simulation
dispatched over serial @ 1, thread @ 2 and thread @ 4 executor workers.

The headline is the **compute-only** curve: real work, the sync
schedule, min-of-reps timing.  It shows what this host's cores deliver
once the compiled kernels release the GIL.

Footnote, labelled ``emulated`` in the record: the same sweep with a
calibrated per-domain stall injected through the fault plan
(``FaultPlan.with_slowdown("shortrange.domain", s)``).  ``time.sleep``
releases the GIL and overlaps across threads regardless of core count,
so this curve measures the orchestration (chunked dispatch, ordered
reduction) the way the BG/Q kernel's latency overlaps across hardware
threads — not arithmetic throughput.

The bars are ``check_regression.py``'s ``SPEEDUP_GATES``: one
thread @ ``GATE_WORKERS`` speedup per curve, each skipped below its
``min_cores``.  The record's ``speedup_gates`` block carries the
readings they hold; the gate always checks it.
"""

import math
import os
import time
from pathlib import Path

from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.instrument.report import write_bench_record
from repro.resilience import FaultPlan, NullFaultPlan

from check_regression import GATE_WORKERS, SPEEDUP_GATES
from conftest import print_table

#: grid 32 on a 64 box -> spacing 2, rcut 6, overload depth 6.5 — legal
#: for the (4, 2, 2) decomposition's 16 Mpc/h thin axis (depth < 8)
BOX, N, GRID, DIMS = 64.0, 16, 32, (4, 2, 2)
N_DOMAINS = DIMS[0] * DIMS[1] * DIMS[2]
REPS = 3
#: emulated per-domain kernel latency, as a multiple of the measured
#: per-domain compute time (the BG/Q kernel is latency-dominated); 5x
#: puts the modeled 4-worker speedup at 2.7x, clear of the emulated bar
LATENCY_FACTOR = 5.0
#: floor on the emulated latency so pool/dispatch overhead stays small
#: against the stall even when the compute phase is tiny
LATENCY_FLOOR_S = 0.008
#: (workers, backend)
CONFIGS = ((1, "serial"), (2, "thread"), (4, "thread"))

REPO_ROOT = Path(__file__).resolve().parents[1]


def _make_sim(
    workers: int, executor: str, faults=NullFaultPlan()
) -> HACCSimulation:
    cfg = SimulationConfig(
        box_size=BOX,
        n_per_dim=N,
        grid_size=GRID,
        z_initial=20.0,
        z_final=5.0,
        n_steps=2,
        n_subcycles=2,
        backend="treepm",
        seed=2012,
        workers=workers,
        executor=executor,
    )
    return HACCSimulation(
        cfg, decomposition_dims=DIMS, overload_depth=cfg.rcut() + 0.5,
        faults=faults,
    )


def _time_phase(sim: HACCSimulation, reps: int = REPS, reduce=None) -> float:
    """Wall-clock of the overloaded short-range phase (mean by default)."""
    pos = sim.particles.positions
    sim._short_range_overloaded(pos)  # warm pools, workspaces, trees
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        sim._short_range_overloaded(pos)
        samples.append(time.perf_counter() - t0)
    if reduce is min:
        return min(samples)
    return sum(samples) / len(samples)


def _sweep(plan=NullFaultPlan(), reduce=None) -> list[dict]:
    rows = []
    for workers, backend in CONFIGS:
        sim = _make_sim(workers, backend, faults=plan)
        try:
            t = _time_phase(sim, reduce=reduce)
        finally:
            sim.close()
        rows.append(
            {
                "workers": workers,
                "backend": backend,
                "duration_s": t,
            }
        )
    serial = rows[0]["duration_s"]
    for r in rows:
        r["speedup"] = serial / r["duration_s"]
    return rows


def _curve_point(rows: list[dict], workers: int, backend: str) -> dict:
    return [
        r for r in rows
        if r["workers"] == workers and r["backend"] == backend
    ][0]


class TestExecutorScaling:
    def test_short_range_phase_speedup(self, benchmark):
        def measure() -> dict:
            # calibrate: per-domain compute time of the serial fleet
            sim = _make_sim(1, "serial")
            try:
                compute_phase = _time_phase(sim)
            finally:
                sim.close()
            latency = max(
                LATENCY_FACTOR * compute_phase / N_DOMAINS, LATENCY_FLOOR_S
            )

            plan = FaultPlan(seed=2012).with_slowdown(
                "shortrange.domain", latency
            )
            # the emulated sweep holds the 1.7x gate; compute-only runs
            # min-of-reps timing, isolating pure dispatch overhead for
            # the >= 1.0x gate
            emulated = _sweep(plan)
            compute_only = _sweep(reduce=min)

            # modeled curve: per-domain compute c cannot overlap on one
            # host core, the emulated latency s overlaps perfectly —
            # the Amdahl shape the measurement should track
            c = compute_phase / N_DOMAINS
            modeled = [
                {
                    "workers": w,
                    "speedup": (N_DOMAINS * (c + latency))
                    / (
                        N_DOMAINS * c
                        + math.ceil(N_DOMAINS / w) * latency
                    ),
                }
                for w, _ in CONFIGS
            ]
            return {
                "compute_phase_s": compute_phase,
                "latency": latency,
                "emulated": emulated,
                "compute_only": compute_only,
                "modeled": modeled,
            }

        out = benchmark.pedantic(measure, rounds=1, iterations=1)

        rows = [
            [
                f"{co['workers']}w {co['backend']}",
                f"{co['duration_s']:.3f}",
                f"{co['speedup']:.2f}x",
                f"{em['speedup']:.2f}x",
                f"{mo['speedup']:.2f}x",
            ]
            for co, em, mo in zip(
                out["compute_only"], out["emulated"], out["modeled"]
            )
        ]
        print_table(
            "Executor scaling: short-range phase, compute-only "
            "(footnote: emulated domain latency "
            f"{out['latency'] * 1e3:.1f} ms)",
            ["config", "compute s", "speedup", "emulated", "modeled"],
            rows,
        )

        host_cores = os.cpu_count() or 1
        curves = {
            "emulated": out["emulated"],
            "compute_only": out["compute_only"],
        }
        gates = [
            {
                "curve": curve,
                "workers": GATE_WORKERS,
                "backend": "thread",
                "value": _curve_point(
                    curves[curve], GATE_WORKERS, "thread"
                )["speedup"],
            }
            for curve, _, _ in SPEEDUP_GATES
        ]

        gated = _curve_point(out["emulated"], GATE_WORKERS, "thread")
        payload = {
            "nodeid": "bench_executor_scaling.py::short_range_phase",
            "duration_s": gated["duration_s"],
            "problem": {
                "box_size": BOX,
                "n_per_dim": N,
                "grid_size": GRID,
                "dims": list(DIMS),
                "n_domains": N_DOMAINS,
                "reps": REPS,
            },
            "host_cores": host_cores,
            "headline": "compute_only",
            "compute_only": out["compute_only"],
            "emulated_note": (
                "footnote: per-domain time.sleep stalls overlap across "
                "threads whatever the core count; measures orchestration, "
                "not arithmetic"
            ),
            "emulated": out["emulated"],
            "emulated_domain_latency_s": out["latency"],
            "latency_factor": LATENCY_FACTOR,
            "modeled": out["modeled"],
            "speedup_gates": gates,
        }
        path = write_bench_record(
            "executor", payload, directory=REPO_ROOT
        )
        print(f"record -> {path}")

        # the emulated curve: orchestration overlaps the stalls; the
        # compute-only curve, on a host with real cores: dispatch
        # overhead must not run the phase slower than serial
        for gate, (curve, bar, min_cores) in zip(gates, SPEEDUP_GATES):
            if host_cores >= min_cores:
                assert gate["value"] >= bar, (
                    f"{curve} curve: thread backend at {GATE_WORKERS} "
                    f"workers reached only {gate['value']:.2f}x "
                    f"(< {bar}x) on the short-range phase"
                )
        # orthogonal sanity: the emulation must not corrupt physics —
        # 2 workers must still beat 1
        assert out["emulated"][1]["speedup"] > 1.0
