"""The seven fixed workloads, the metric names and the check tolerances.

Pure data plus two small functions; importing this module imports
neither numpy nor ``repro``.  ``BENCHMARK.json`` at the repo root
repeats the names and carries the regression bounds; the harness
self-test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BASE_FIELDS",
    "END_TO_END",
    "PER_LAYER",
    "TOLERANCES",
    "WORKLOADS",
    "Workload",
    "config_fields",
    "plain_argv",
]

#: shared by every workload: 64 Mpc/h box evolved z = 25 -> 0
BASE_FIELDS = {
    "box_size": 64.0,
    "z_initial": 25.0,
    "z_final": 0.0,
    "step_spacing": "loga",
    "n_subcycles": 2,
}


@dataclass(frozen=True)
class Workload:
    """One fixed input of the benchmark.

    ``fields`` are the only ``SimulationConfig`` fields set besides
    ``BASE_FIELDS`` and ``seed``; everything else stays the user
    default.  ``plain_s`` / ``setup_s`` are the parent commit's medians
    on the 2-core reference host; a child is killed and counted as
    failed after three times that (plus a grace, see ``run.py``).
    """

    name: str
    fields: dict
    why: str
    plain_s: float
    setup_s: float
    decomposition: tuple | None = None
    checkpoint: bool = False


# n_steps was cut from the 3-5 of the issue's draft to fit 158 driver
# runs into 57 minutes; particle counts, names and n_subcycles are as
# drafted (see README, "Time budget").
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "treepm-f64-32",
            {"n_per_dim": 32, "backend": "treepm", "dtype": "f64",
             "n_steps": 1},
            "RCB tree + PP kernel is >=85% of wall at the largest size "
            "that fits: short-range changes must show here, long-range "
            "and setup changes must not",
            plain_s=3.6, setup_s=0.75,
        ),
        Workload(
            "treepm-f32-32",
            {"n_per_dim": 32, "backend": "treepm", "dtype": "f32",
             "n_steps": 1},
            "mixed-precision twin of treepm-f64-32: same kernel layer "
            "streaming half the bytes per pair, so a layout tuned for "
            "one precision that costs the other shows",
            plain_s=2.3, setup_s=0.75,
        ),
        Workload(
            "pm-f64-96",
            {"n_per_dim": 96, "backend": "pm", "dtype": "f64",
             "n_steps": 2},
            "long-range only: CIC, FFT, filter and gathers do all the "
            "stepping and the short-range layer none; largest IC, so "
            "cosmology.ic_s is visible in setup_s",
            plain_s=4.0, setup_s=1.2,
        ),
        Workload(
            "decomp-24-serial",
            {"n_per_dim": 24, "backend": "treepm", "dtype": "f64",
             "n_steps": 1},
            "rank-local structure on one core: overload exchange + "
            "per-domain trees over 4 domains; the single-threaded "
            "baseline of decomp-24-thread2",
            plain_s=2.9, setup_s=0.75, decomposition=(2, 2, 1),
        ),
        Workload(
            "decomp-24-thread2",
            {"n_per_dim": 24, "backend": "treepm", "dtype": "f64",
             "n_steps": 1, "workers": 2, "executor": "thread"},
            "the only workload on both cores: real-work dispatch through "
            "RankExecutor; executor changes show here and must leave the "
            "serial twin alone",
            plain_s=2.9, setup_s=0.75, decomposition=(2, 2, 1),
        ),
        Workload(
            "small-16-ckpt",
            {"n_per_dim": 16, "backend": "treepm", "dtype": "f64",
             "n_steps": 3},
            "the shape the campaign supervisor dispatches: import, "
            "setup, teardown and per-checkpoint fixed cost are >=30% of "
            "wall, invisible on the 32^3 runs",
            plain_s=2.4, setup_s=0.75, checkpoint=True,
        ),
        Workload(
            "ckpt-pm-64",
            {"n_per_dim": 64, "backend": "pm", "dtype": "f64",
             "n_steps": 1},
            "write side of io/: one 16.8 MB checkpoint (Python CRC32C + "
            "savez_compressed + fsync) is >=50% of wall; the long-range "
            "layer of pm-f64-96 does little here",
            plain_s=3.9, setup_s=1.0, checkpoint=True,
        ),
    )
}

#: (name, unit, better) — the bounds live in BENCHMARK.json
END_TO_END = (
    ("run_wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("ns_per_particle_substep", "ns", "lower"),
    ("run_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cosmology.ic_s", "s", "lower"),
    ("shortrange.gridfit_s", "s", "lower"),
    ("core.construct_s", "s", "lower"),
    ("core.close_s", "s", "lower"),
    ("core.step_s", "s", "lower"),
    ("core.first_step_s", "s", "lower"),
    ("core.stepper_self_s", "s", "lower"),
    ("core.stepper_self_frac", "fraction", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("core.unattributed_frac", "fraction", "lower"),
    ("core.momentum_drift", "fraction", "lower"),
    ("grid.longrange_s", "s", "lower"),
    ("grid.longrange_frac", "fraction", "lower"),
    ("grid.cic_deposit_s", "s", "lower"),
    ("grid.cic_gather_s", "s", "lower"),
    ("grid.poisson_accel_s", "s", "lower"),
    ("grid.cic_mparticles_per_s", "Mpart/s", "higher"),
    ("grid.mass_err", "fraction", "lower"),
    ("fft.force_grids_s", "s", "lower"),
    ("fft.mpoints_per_s", "Mpoint/s", "higher"),
    ("fft.roundtrip_err", "fraction", "lower"),
    ("shortrange.total_s", "s", "lower"),
    ("shortrange.frac", "fraction", "lower"),
    ("shortrange.pairs_listed", "count", "lower"),
    ("shortrange.ns_per_listed_pair", "ns", "lower"),
    ("shortrange.ghosts_s", "s", "lower"),
    ("shortrange.tree_build_s", "s", "lower"),
    ("shortrange.pack_s", "s", "lower"),
    ("shortrange.kernel_s", "s", "lower"),
    ("shortrange.tree_depth", "count", "lower"),
    ("shortrange.leaves", "count", "lower"),
    ("shortrange.pairs_inside", "count", "higher"),
    ("shortrange.list_efficiency", "fraction", "higher"),
    ("shortrange.kernel_bytes_computed", "bytes", "lower"),
    ("shortrange.kernel_gbs_computed", "GB/s", "higher"),
    ("shortrange.frac_stream", "fraction", "higher"),
    ("shortrange.workspace_mb", "MB", "lower"),
    ("shortrange.force_err_p99", "fraction", "lower"),
    ("parallel.distribute_s", "s", "lower"),
    ("parallel.ghost_fraction", "fraction", "lower"),
    ("parallel.comm_bytes_per_step", "bytes", "lower"),
    ("parallel.domain_imbalance", "ratio", "lower"),
    ("parallel.solve_s", "s", "lower"),
    ("parallel.dispatch_self_s", "s", "lower"),
    ("parallel.speedup_vs_serial", "ratio", "higher"),
    ("parallel.cpu_over_wall", "ratio", "lower"),
    ("io.ckpt_write_s", "s", "lower"),
    ("io.ckpt_bytes", "bytes", "lower"),
    ("io.ckpt_write_mb_per_s", "MB/s", "higher"),
    ("io.ckpt_verify_s", "s", "lower"),
    ("io.ckpt_load_s", "s", "lower"),
    ("instrument.overhead_frac", "fraction", "lower"),
    ("harness.trace_overhead_frac", "fraction", "lower"),
    ("harness.stream_gbs", "GB/s", "higher"),
    ("harness.llc_mb", "MB", "higher"),
    ("harness.loadavg_1m", "count", "lower"),
    ("harness.speed_factor", "ratio", "lower"),
    ("harness.run_fail_frac", "fraction", "lower"),
    ("harness.null_metrics", "count", "lower"),
)

#: traced-run check limits by dtype, calibrated once on the parent
#: commit (all workloads, seeds 1-3; the largest value seen is noted)
TOLERANCES = {
    "f64": {
        "core.momentum_drift": 1e-10,      # seen 4.4e-15
        "shortrange.force_err_p99": 1e-6,  # seen 1.7e-15
        "grid.mass_err": 1e-12,            # seen 0
    },
    "f32": {
        "core.momentum_drift": 1e-4,       # seen 6.2e-9
        "shortrange.force_err_p99": 1e-4,  # seen 8.8e-7
        "grid.mass_err": 1e-5,             # seen 0
    },
}


def config_fields(name: str, seed: int) -> dict:
    """The ``SimulationConfig`` fields of one workload: a pure function
    of ``(name, seed)`` that differs only in ``seed`` across seeds."""
    return {**BASE_FIELDS, **WORKLOADS[name].fields, "seed": int(seed)}


def plain_argv(name: str, config_path: str, outdir: str | None) -> list:
    """Arguments of the plain ``python -m repro run`` child."""
    w = WORKLOADS[name]
    argv = ["-m", "repro", "-q", "run", "--config", config_path]
    if w.decomposition is not None:
        argv += ["--decomposition", ",".join(map(str, w.decomposition))]
    if w.checkpoint:
        argv += ["--outdir", outdir, "--checkpoint-every", "1"]
    return argv
