"""Benchmark child process: the setup-only run and the traced run.

``--setup-only``: interpreter start, ``import repro``, construct the
simulation, ``close()``, exit; the parent's wall of this process is
``setup_s``.

``--traced``: the same trajectory as the plain ``python -m repro run``
child, driven through the public API with a span around each layer call
(see ``spans.py``), then the layer probes (``probes.py``).  Everything
is written to ``--out`` as one JSON file when the child exits; the
parent owns the process wall and therefore the budget.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_config(path: str):
    from repro import SimulationConfig

    with open(path, encoding="utf-8") as fh:
        return SimulationConfig.from_dict(json.load(fh))


def setup_only(args) -> None:
    from repro import HACCSimulation

    sim = HACCSimulation(
        load_config(args.config),
        decomposition_dims=WORKLOADS[args.workload].decomposition,
    )
    sim.close()


def traced(args) -> None:
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    metrics: dict = {}
    skipped: dict = {}

    with tracer.span("cli.import"):
        import repro
        import repro.__main__  # noqa: F401  (what `python -m repro` pays)

    import numpy as np

    import probes

    cfg = load_config(args.config)
    treepm = cfg.backend != "pm"

    if treepm:
        try:
            from repro.shortrange.grid_force import default_grid_force_fit

            with tracer.span("shortrange.gridfit"):
                default_grid_force_fit(cfg.sigma, cfg.ns, cfg.rcut_cells)
        except (ImportError, AttributeError) as exc:
            skipped["shortrange.gridfit"] = f"{type(exc).__name__}: {exc}"

    particles = None
    try:
        from repro.cosmology.initial_conditions import make_initial_conditions

        with tracer.span("cosmology.ic"):
            particles = repro.Particles.from_ics(
                make_initial_conditions(
                    cfg.cosmology,
                    n_per_dim=cfg.n_per_dim,
                    box_size=cfg.box_size,
                    z_init=cfg.z_initial,
                    seed=cfg.seed,
                    order=cfg.lpt_order,
                )
            )
    except (ImportError, AttributeError) as exc:
        skipped["cosmology.ic"] = f"{type(exc).__name__}: {exc}"

    with tracer.span("core.construct"):
        sim = repro.HACCSimulation(
            cfg, particles=particles,
            decomposition_dims=workload.decomposition,
        )

    def total_momentum():
        p = sim.particles
        return (p.momenta * p.masses[:, None]).sum(axis=0, dtype=np.float64)

    p_start = total_momentum()

    # live spans on public callables of the built simulation
    tracer.wrap(sim.stepper, "long_range", "grid.longrange")
    if sim.stepper.short_range is not None:
        tracer.wrap(sim.stepper, "short_range", "shortrange.total")
    last_domains: list = []
    if sim.exchange is not None:
        distribute = sim.exchange.distribute

        def traced_distribute(*a, **kw):
            with tracer.span("parallel.distribute"):
                last_domains[:] = distribute(*a, **kw)
            return list(last_domains)

        sim.exchange.distribute = traced_distribute
        # the domain solves: the driver's own solver when serial, the
        # executor's map (its wall, not the workers' sum) when threaded
        if cfg.workers > 1:
            ex_map = sim.executor.map

            def traced_map(fn, items, **kw):
                # the threaded CIC deposit maps through the same executor
                if kw.get("label") != "shortrange.domain":
                    return ex_map(fn, items, **kw)
                with tracer.span("parallel.solve"):
                    return ex_map(fn, items, **kw)

            sim.executor.map = traced_map
        else:
            tracer.wrap(
                sim.short_solver, "accelerations_cloud", "parallel.solve"
            )

    checkpointer = None
    if workload.checkpoint:
        from repro.io import Checkpointer, CheckpointSchedule

        checkpointer = Checkpointer(
            args.outdir, schedule=CheckpointSchedule(every_steps=1)
        )
        tracer.wrap(checkpointer, "checkpoint", "io.ckpt_write")

    pairs = []
    for i in range(cfg.n_steps):
        before = sim.interaction_count()
        with tracer.span(f"core.step[{i}]"):
            sim.step()
        pairs.append(sim.interaction_count() - before)
        if checkpointer is not None:
            checkpointer.maybe_checkpoint(sim, force=i == cfg.n_steps - 1)

    p = sim.particles
    metrics["core.momentum_drift"] = float(
        np.linalg.norm(total_momentum() - p_start)
        / np.linalg.norm(p.momenta * p.masses[:, None], axis=1).sum(
            dtype=np.float64
        )
    )
    metrics["shortrange.pairs_listed"] = (
        int(statistics.median(pairs)) if treepm else 0
    )
    checks = {
        "positions_in_box": bool(
            np.isfinite(p.positions).all()
            and (p.positions >= 0).all()
            and (p.positions < cfg.box_size).all()
        ),
        "reached_final_time": bool(abs(sim.a - cfg.a_final) < 1e-12),
    }
    if last_domains:
        from repro.parallel.overload import domain_stats

        total = sum(d.n_total for d in last_domains)
        metrics["parallel.ghost_fraction"] = (
            sum(d.n_passive for d in last_domains) / total
        )
        metrics["parallel.domain_imbalance"] = domain_stats(last_domains)[
            "imbalance"
        ]
        metrics["parallel.comm_bytes_per_step"] = (
            sim.exchange.comm.stats.bytes / cfg.n_steps
        )
    if checkpointer is not None:
        metrics["io.ckpt_bytes"] = sum(
            np.asarray(getattr(p, k)).nbytes
            for k in ("positions", "momenta", "masses", "ids")
        ) + 8  # + the scale factor
        metrics["io.ckpt_files"] = checkpointer.n_written

    with tracer.span("harness.probes"):
        host = probes.probe_host()
        metrics.update(host)
        metrics["harness.loadavg_1m"] = os.getloadavg()[0]
        probes.run_probe(metrics, skipped, "grid",
                         lambda: probes.probe_grid(sim, cfg))
        probes.run_probe(metrics, skipped, "fft",
                         lambda: probes.probe_fft(sim, cfg))
        if treepm:
            probes.run_probe(
                metrics, skipped, "shortrange",
                lambda: probes.probe_shortrange(sim, cfg, cfg.seed),
            )
            gbs = metrics.get("shortrange.kernel_gbs_computed")
            stream = host["harness.stream_gbs"]
            metrics["shortrange.frac_stream"] = (
                gbs / stream if gbs and stream else None
            )
        if args.plain_ckpt:
            # multi-second probes on the 64^3 file run once, not thrice
            big = os.path.getsize(args.plain_ckpt) > 4 << 20
            probes.run_probe(
                metrics, skipped, "io",
                lambda: probes.probe_io(
                    sim, args.plain_ckpt, 1 if big else probes.REPS
                ),
            )
            if "io.state_equals_plain_ckpt" in metrics:
                checks["state_equals_plain_ckpt"] = metrics.pop(
                    "io.state_equals_plain_ckpt"
                )

    with tracer.span("core.close"):
        sim.close()

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "metrics": metrics,
                "checks": checks,
                "skipped_probes": skipped,
                "kernel_backend": getattr(sim, "kernel_backend", None),
                "dtype": cfg.dtype,
            },
            fh,
        )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--traced", action="store_true")
    ap.add_argument("--out", help="traced: result JSON path")
    ap.add_argument("--outdir", help="traced: checkpoint directory")
    ap.add_argument("--plain-ckpt", help="traced: the plain run's last file")
    args = ap.parse_args()
    if args.setup_only:
        setup_only(args)
    else:
        traced(args)


if __name__ == "__main__":
    main()
