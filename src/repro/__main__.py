"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``info``
    Version, subsystem inventory, and the paper's headline numbers as
    regenerated by the calibrated machine model.
``tables``
    Regenerate the paper's performance tables (I, II, III) from the
    machine models, paper-vs-model side by side.
``run``
    The run driver: a checkpointed (optionally decomposed)
    production-style run with rotated, checksummed checkpoints every K
    steps, ``--resume DIR`` auto-resume from the latest *valid*
    checkpoint, deterministic fault injection (``--inject-*``: rank
    death, checkpoint corruption, short-range slow-downs), and
    overload-replica rank recovery (on by default; ``--no-recovery``
    turns a rank death into a CRIT verdict instead).  SIGTERM/SIGINT
    checkpoint the in-flight state and exit 75 (resumable).
    ``--summary`` prints the final power spectrum and FOF halo count;
    ``--profile`` the measured-vs-model section table (the paper's
    Table II attribution); ``--trace`` exports the span log as a Chrome
    trace; ``--ledger`` indexes the finished run (manifest, telemetry,
    trace) into the run ledger.
``campaign``
    Supervise a whole suite from a declarative spec
    (``campaign run|status|resume SPEC.toml``): crash-safe journaled
    work queue, per-run timeouts and heartbeat hang detection, retries
    with exponential backoff, poison-config quarantine, exactly-once
    run-ledger recording; resumable after any supervisor death.
``monitor``
    Tail a run's telemetry JSONL (written via ``run --telemetry PATH``),
    rendering progress, ETA, imbalance sparklines and active health
    alerts; exits 2 if the run went CRIT.  Given several streams (or
    ``--ledger``), renders the multi-run fleet dashboard instead.
``runs``
    Query the run ledger (``--ledger DIR``, default ``.repro/ledger``):
    ``list`` the recorded runs with filters, ``gc`` old entries.
``report``
    Critical-path report of a ledgered run (or a telemetry/trace file),
    ``--compare RUN_A RUN_B`` for per-phase deltas with a regression
    verdict, or ``--roofline`` for the measured roofline placement;
    ``--json`` emits the machine-readable summary the CI report lane
    gates.

Verbosity: ``-v`` (debug) and ``-q`` (warnings only) control the
``repro`` logger via :func:`repro.instrument.logging_setup`.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

logger = logging.getLogger("repro.cli")

#: static banner (``__doc__`` is stripped under ``python -OO``, so the
#: info command must not parse it)
_BANNER = (
    "Commands: info (inventory + headline numbers), run (checkpointed "
    "fault-tolerant run with --resume, --summary and --profile), "
    "campaign (supervised crash-safe suite of runs from a spec), tables "
    "(paper tables I-III from the machine model), monitor (tail one "
    "run or dashboard a fleet), runs (list or gc the run ledger), "
    "report (critical-path analysis, cross-run comparison, roofline)."
)


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.machine import BGQSystem, FullCodeModel

    logger.info(
        "repro %s — HACC (Habib et al., SC 2012) reproduction",
        repro.__version__,
    )
    logger.info(_BANNER)
    seq = BGQSystem.racks(96)
    h = FullCodeModel.calibrated().headline()
    logger.info(
        "\n96-rack Sequoia: %s cores, %.2f PFlops peak",
        f"{seq.cores:,}", seq.peak_pflops,
    )
    logger.info(
        "headline model: %.2f PFlops @ %.1f%% (paper: %s @ %s%%)",
        h["model_pflops"], h["model_peak_percent"],
        h["paper_pflops"], h["paper_peak_percent"],
    )
    logger.info(
        "\nsubpackages: cosmology, fft, parallel, grid, shortrange, "
        "core, analysis, machine, vlasov, io, instrument, resilience, "
        "campaign"
    )
    logger.info("docs: README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def _run_config(args: argparse.Namespace):
    from repro import SimulationConfig

    if args.config:
        # full-fidelity config from a JSON file (the campaign
        # supervisor's dispatch path); the shape flags are ignored
        import json

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return SimulationConfig.from_dict(data)
        except (OSError, ValueError, TypeError) as exc:
            raise SystemExit(f"--config {args.config}: {exc}")
    executor = args.executor
    if executor is None:
        executor = "thread" if args.workers > 1 else "serial"
    return SimulationConfig(
        box_size=64.0,
        n_per_dim=args.n_per_dim,
        z_initial=25.0,
        z_final=0.0,
        n_steps=args.steps,
        n_subcycles=args.subcycles,
        backend=args.backend,
        step_spacing="loga",
        workers=args.workers,
        executor=executor,
        kernel_backend=args.kernel_backend,
        dtype=args.precision,
        seed=1,
    )


def _setup_observability(sim, args: argparse.Namespace) -> None:
    """Wire ``--telemetry`` / ``--health`` options into a built sim.

    Telemetry streams every step to the given JSONL path (with a
    manifest header) so a concurrent ``python -m repro monitor`` can
    follow the run; health attaches the physics invariant monitor, with
    the energy-residual levels optionally overridden (the override flags
    imply ``--health``).
    """
    if args.telemetry:
        from repro.instrument import RunStream, Telemetry, run_manifest

        sim.telemetry = Telemetry(RunStream(args.telemetry, manifest=(
            run_manifest(sim.config, extra=_manifest_extra(sim))
        )))
        logger.info("telemetry stream: %s", args.telemetry)
    warn = args.health_energy_warn
    crit = args.health_energy_crit
    if args.health or warn is not None or crit is not None:
        from repro.instrument import HealthThresholds, Threshold

        thresholds = HealthThresholds()
        if warn is not None or crit is not None:
            base = thresholds.energy_residual
            w = base.warn if warn is None else warn
            c = base.crit if crit is None else crit
            thresholds = thresholds.with_(
                # a lone low crit drags warn down with it
                energy_residual=Threshold(warn=min(w, c), crit=c)
            )
        sim.attach_health(thresholds=thresholds)


def _manifest_extra(sim) -> dict:
    """Manifest extras the config does not carry: the *resolved* kernel
    backend (never ``"auto"``), so ledger queries filter on what
    actually ran, how a compiled kernel was built and which pair path
    it runs (``kernel_simd``: ``"avx512"``, ``"avx2"`` or ``"scalar"``),
    and a
    decomposed run's domain dims and overload depth."""
    from repro.shortrange.backends import get_backend

    extra = {"kernel_backend": sim.kernel_backend}
    backend = get_backend(sim.kernel_backend)
    if backend.build_info:
        extra["kernel_build"] = dict(backend.build_info)
        extra["kernel_simd"] = backend.simd
    if sim.decomposition_dims is not None:
        extra["decomposition"] = list(sim.exchange.decomposition.dims)
        extra["overload_depth"] = sim.exchange.depth
    return extra


def _finish_observability(sim, args, registry) -> int:
    """Close the telemetry stream, ledger the run, reduce to exit status."""
    status = 0
    verdict = "OK"
    if sim.health is not None:
        verdict = sim.health.verdict()
        status = sim.health.exit_status()
        summary = sim.health.summary()
        logger.info(
            "health verdict: %s (%d WARN, %d CRIT)",
            verdict, summary["warnings"], summary["criticals"],
        )
    if sim.telemetry is not None:
        sim.telemetry.finish(verdict=verdict)
    if args.ledger is not None:
        _ledger_run(sim, args, registry, verdict)
    return status


def _finish_interrupted(sim, args, exc, checkpointer=None) -> int:
    """SIGTERM/SIGINT landed mid-run: checkpoint, flush, exit 75.

    The simulation driver already flushed the telemetry end record with
    verdict ``INTERRUPTED`` while unwinding (``Telemetry.finish`` is
    idempotent, so the extra call here only covers a signal that landed
    *outside* ``sim.run``).  A forced final checkpoint preserves the
    last completed step — ``--resume`` later continues bit-identically —
    and the distinct exit code (75, ``EX_TEMPFAIL``) tells a supervisor
    this run is resumable rather than broken.
    """
    from repro.resilience.signals import INTERRUPTED_EXIT_CODE

    if checkpointer is not None:
        path = checkpointer.maybe_checkpoint(sim, force=True)
        if path is not None:
            logger.info("shutdown checkpoint: %s", path)
        elif checkpointer.last_path is not None:
            logger.info(
                "shutdown checkpoint: %s (already current)",
                checkpointer.last_path,
            )
    if sim.telemetry is not None:
        sim.telemetry.finish(verdict="INTERRUPTED")
    if args.ledger is not None:
        _ledger_run(sim, args, None, "INTERRUPTED")
    logger.warning(
        "run interrupted by %s at step %d; resume with --resume",
        exc.signal_name, sim._step_index,
    )
    return INTERRUPTED_EXIT_CODE


def _resolve_ledger_root(value: str):
    """``--ledger`` flag value to a root path ('' means the default)."""
    from repro.instrument import default_ledger_root

    return default_ledger_root() if value in (None, "") else value


def _ledger_run(sim, args, registry, verdict) -> None:
    """Record a finished run's artifacts into the run ledger."""
    from repro.instrument import RunLedger, run_manifest

    ledger = RunLedger(_resolve_ledger_root(args.ledger))
    entry = ledger.record(
        manifest=run_manifest(sim.config, extra=_manifest_extra(sim)),
        stream_path=args.telemetry,
        registry=registry,
        verdict=verdict,
        extra={"command": args.command},
    )
    logger.info(
        "ledgered run %s -> %s", entry.run_id, ledger.run_dir(entry)
    )


def _log_summary(sim) -> None:
    """``--summary``: the final power spectrum and FOF halo count."""
    from repro.analysis import fof_halos, matter_power_spectrum

    config = sim.config
    ps = matter_power_spectrum(
        sim.particles.positions, config.box_size, config.grid(),
        subtract_shot_noise=False,
    )
    logger.info(
        "P(k) at k=%.2f h/Mpc: %.0f (Mpc/h)^3", ps.k[0], ps.power[0]
    )
    cat = fof_halos(sim.particles.positions, config.box_size, b=0.2,
                    min_members=8)
    logger.info("FOF halos (>= 8 particles): %d", cat.n_halos)


def _report_instrumentation(args, registry) -> None:
    """Print ``--profile`` and write the ``--trace`` export."""
    from repro.instrument.exporters import write_chrome_trace
    from repro.instrument.report import render_profile

    if args.profile:
        print(render_profile(registry))
    if args.trace:
        write_chrome_trace(registry, args.trace)
        logger.info("trace export: %s", args.trace)


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(
            f"decomposition must be three positive ints 'X,Y,Z': {text!r}"
        )
    return parts  # type: ignore[return-value]


def _build_fault_plan(args: argparse.Namespace):
    """Assemble the run's fault plan from the --inject-* flags."""
    from repro.resilience import FaultPlan, NullFaultPlan

    if not (
        args.inject_rank_death
        or args.inject_checkpoint_corruption
        or args.inject_slowdown
    ):
        return NullFaultPlan()
    plan = FaultPlan(seed=args.fault_seed)
    for spec in args.inject_rank_death or []:
        try:
            step, rank = (int(x) for x in spec.split(":"))
        except ValueError:
            raise SystemExit(
                f"--inject-rank-death wants STEP:RANK, got {spec!r}"
            )
        plan.with_rank_death(step=step, rank=rank)
    for spec in args.inject_checkpoint_corruption or []:
        parts = spec.split(":")
        try:
            idx = int(parts[0])
            mode = parts[1] if len(parts) > 1 else "truncate"
            offset = int(parts[2]) if len(parts) > 2 else None
        except (ValueError, IndexError):
            raise SystemExit(
                "--inject-checkpoint-corruption wants "
                f"WRITE[:MODE[:OFFSET]], got {spec!r}"
            )
        plan.with_checkpoint_corruption(
            write_index=idx, mode=mode, offset=offset
        )
    for spec in args.inject_slowdown or []:
        try:
            section, seconds = spec.split(":")
            plan.with_slowdown(section, float(seconds))
        except ValueError:
            raise SystemExit(
                f"--inject-slowdown wants SECTION:SECONDS, got {spec!r}"
            )
    return plan


def _check_resumed_config(sim, checkpoint, wanted) -> None:
    """``--resume`` with ``--config``: the file must ask for the config
    the checkpoint holds, or the run would silently continue another
    one; a mismatch is a one-line exit naming the differing fields."""
    if sim.config.config_hash() == wanted.config_hash():
        return
    held, asked = sim.config.to_dict(), wanted.to_dict()
    differ = sorted(k for k in held.keys() | asked.keys()
                    if held.get(k) != asked.get(k))
    sim.close()
    raise SystemExit(
        f"run: --config asks for another run than checkpoint "
        f"{checkpoint} holds (differing fields: {', '.join(differ)})"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    """The run driver: checkpointed, fault-tolerant, auto-resuming,
    optionally instrumented."""
    from repro import HACCSimulation
    from repro.config import ConfigError
    from repro.io import (
        Checkpointer,
        CheckpointSchedule,
        load_latest_valid,
    )

    plan = _build_fault_plan(args)
    sim_kwargs: dict = {
        "decomposition_dims": args.decomposition,
        "overload_depth": args.overload_depth,
        "recover_on_rank_death": not args.no_recovery,
        "faults": plan,
    }

    def construct(build):
        """A shape the config or driver rejects (overload depth below
        the cutoff or of half a domain, zero steps, a fault the
        run cannot have) is a one-line exit before the first step; any
        other error keeps its traceback."""
        try:
            return build()
        except ConfigError as exc:
            raise SystemExit(f"run: {exc}")

    # a rotation depth or schedule the checkpointer rejects (a zero
    # --checkpoint-every or --checkpoint-seconds included) is a one-line
    # exit before the initial conditions are built
    outdir = args.outdir or args.resume
    checkpointer = None
    if outdir:
        try:
            schedule = None
            if args.checkpoint_every is not None \
                    or args.checkpoint_seconds is not None:
                schedule = CheckpointSchedule(
                    every_steps=args.checkpoint_every,
                    every_seconds=args.checkpoint_seconds,
                )
            checkpointer = Checkpointer(
                outdir, keep_last=args.keep_last, schedule=schedule
            )
        except ValueError as exc:
            raise SystemExit(f"run: {exc}")

    sim = None
    if args.resume:
        found = construct(
            lambda: load_latest_valid(args.resume, **sim_kwargs))
        if found is None:
            logger.warning(
                "no valid checkpoint under %s; starting fresh", args.resume
            )
        else:
            latest, sim = found
            if args.config:
                _check_resumed_config(sim, latest, _run_config(args))
            logger.info(
                "resuming from %s (step %d/%d, z = %.3f)",
                latest, sim._step_index, sim.config.n_steps, sim.redshift,
            )
            if args.health or args.health_energy_warn is not None \
                    or args.health_energy_crit is not None:
                logger.warning(
                    "--health ignored on resume (the monitor snapshots "
                    "the initial state)"
                )
                args.health = False
                args.health_energy_warn = None
                args.health_energy_crit = None
    if sim is None:
        sim = construct(
            lambda: HACCSimulation(_run_config(args), **sim_kwargs)
        )

    if checkpointer is not None:
        logger.info(
            "checkpointing to %s (keep_last=%d)", outdir, args.keep_last
        )

    from repro.resilience.signals import ShutdownRequested, graceful_shutdown

    if plan.enabled:
        logger.info("fault injection active (seed %d)", args.fault_seed)
    # any flag that reads the registry turns instrumentation on; it also
    # feeds per-step perf blocks (ns/pair) into the telemetry stream for
    # the monitor dashboard
    registry = None
    if args.profile or args.trace:
        from repro.instrument import enable

        registry = enable()
    _setup_observability(sim, args)

    t0 = time.perf_counter()
    interrupted = None
    try:
        with graceful_shutdown():
            sim.run(checkpointer=checkpointer)
    except ShutdownRequested as exc:
        interrupted = exc
    finally:
        sim.close()
        if plan.enabled:
            summary = plan.summary()
            logger.info(
                "faults: %d injected, %d recovered (%s)",
                summary["faults_injected"], summary["faults_recovered"],
                summary["injected"] or "none",
            )
    if interrupted is not None:
        return _finish_interrupted(sim, args, interrupted, checkpointer)
    logger.info(
        "run finished in %.1f s: step %d, z = %.3f",
        time.perf_counter() - t0, sim._step_index, sim.redshift,
    )
    for report in sim.recovery_reports:
        logger.info(
            "rank recovery: ranks %s, %d rebuilt / %d lost (%.1f%%)",
            list(report.dead_ranks), report.n_recovered, report.n_lost,
            100.0 * report.coverage(),
        )
    if checkpointer is not None and checkpointer.last_path is not None:
        logger.info("final checkpoint: %s", checkpointer.last_path)
    if args.summary:
        _log_summary(sim)
    if registry is not None:
        _report_instrumentation(args, registry)
    return _finish_observability(sim, args, registry)


def _default_campaign_dir(spec) -> str:
    """The campaign directory: spec's ``dir`` or a name-keyed default."""
    return spec.directory or os.path.join(".repro", "campaigns", spec.name)


def _render_campaign_status(status: dict) -> str:
    """Human-readable campaign status table."""
    header = ("run", "state", "attempts", "failures", "last", "ledger")
    rows = [
        (
            r["run"],
            r["state"],
            str(r["attempts"]),
            str(r["failures"]),
            r["last_outcome"] or "-",
            r["ledger_run_id"] or "-",
        )
        for r in status["runs"]
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        f"campaign {status['name']} ({status['campaign_id']}) "
        f"in {status['directory']}",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    counts = ", ".join(
        f"{k}={v}" for k, v in sorted(status["counts"].items())
    )
    verdict = (
        "all runs DONE" if status["ok"]
        else "complete with failures" if status["complete"]
        else "in progress"
    )
    lines.append(f"{status['done']}/{status['runs_total']} done "
                 f"({counts}) — {verdict}")
    return "\n".join(lines)


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Run, resume, or report a supervised campaign (see campaign/)."""
    import json

    from repro.campaign import (
        CampaignSupervisor,
        JournalError,
        SpecError,
        campaign_status,
        load_spec,
    )

    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        raise SystemExit(f"campaign: {exc}")
    directory = args.dir or _default_campaign_dir(spec)

    if args.action == "status":
        status = campaign_status(spec, directory)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(_render_campaign_status(status))
        return 0 if status["ok"] else 1

    ledger_root = None
    if args.ledger is not None:
        ledger_root = _resolve_ledger_root(args.ledger)
    supervisor = CampaignSupervisor(spec, directory,
                                    ledger_root=ledger_root)
    logger.info(
        "campaign %s: %d run(s), directory %s",
        spec.name, len(spec.runs), directory,
    )
    try:
        rc = supervisor.run(resume=(args.action == "resume"))
    except JournalError as exc:
        raise SystemExit(f"campaign: {exc}")
    print(_render_campaign_status(campaign_status(spec, directory)))
    return rc


def _campaign_monitor_streams(campaign_dir: str) -> list[tuple[str, str]]:
    """``(run_id, stream_path)`` for every run in a campaign directory.

    Reads the ``campaign.json`` sidecar, so no spec file is needed.
    Paths for runs not yet dispatched don't exist — the follower polls
    for their creation and the dashboard shows them as ``waiting``.
    """
    import json
    from pathlib import Path

    sidecar = Path(campaign_dir) / "campaign.json"
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"monitor: cannot read {sidecar} ({exc})")
    return [
        (
            run["run"],
            str(Path(campaign_dir) / "runs" / run["run"]
                / "telemetry.jsonl"),
        )
        for run in meta.get("runs", [])
    ]


def _monitor_streams(args: argparse.Namespace) -> list[tuple[str, str]]:
    """``(display_name, path)`` pairs from positionals and ``--ledger``."""
    streams = [(s, s) for s in args.stream]
    if getattr(args, "campaign", None):
        streams.extend(_campaign_monitor_streams(args.campaign))
    if getattr(args, "ledger", None) is not None:
        from repro.instrument import RunLedger

        ledger = RunLedger(_resolve_ledger_root(args.ledger))
        entries = ledger.entries()[-args.last:]
        for entry in entries:
            path = ledger.artifact_path(entry, "telemetry")
            if path is not None:
                streams.append((entry.run_id, str(path)))
    if not streams:
        raise SystemExit(
            "monitor: no streams (pass RUN_JSONL paths, --campaign DIR, "
            "or --ledger)"
        )
    return streams


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Render (and optionally follow) one or many telemetry streams.

    One stream renders the detailed single-run view; several (or
    ``--ledger``) render the fleet dashboard.  Follow mode reads
    incrementally through :class:`repro.instrument.StreamFollower`, so a
    line caught mid-flush is buffered until complete instead of dropped
    or misparsed.
    """
    from repro.instrument import StreamFollower
    from repro.instrument.monitor import (
        dashboard_exit_status,
        monitor_exit_status,
        render_dashboard,
        render_monitor,
    )

    streams = _monitor_streams(args)
    followers = [(name, StreamFollower(path)) for name, path in streams]
    single = len(followers) == 1
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    while True:
        for _, follower in followers:
            follower.poll()
        runs = [(name, f.data) for name, f in followers]
        if single:
            frame = render_monitor(runs[0][1], width=args.width)
        else:
            frame = render_dashboard(runs)
        errors = sum(f.parse_errors for _, f in followers)
        if errors:
            frame += f"\n({errors} corrupt stream line(s) skipped)"
        if args.follow and clear:
            print(clear + frame, flush=True)
        else:
            print(frame, flush=True)
            if args.follow:
                print("---", flush=True)
        done = all(f.finished for _, f in followers)
        if not args.follow or done:
            if single:
                return monitor_exit_status(runs[0][1])
            return dashboard_exit_status(runs)
        time.sleep(args.interval)


#: ``runs list`` filters: (ledger column, flag type, help)
_RUN_FILTERS = (
    ("config_hash", str, "config hash"),
    ("seed", int, "seed"),
    ("backend", str, "force backend"),
    ("executor", str, "executor backend"),
    ("workers", int, "workers"),
    ("kernel_backend", str, "short-range kernel backend (numpy/c)"),
    ("precision", str, "precision (f32/f64)"),
    ("git_rev", str, "git revision"),
    ("verdict", str, "health verdict"),
)


def _cmd_runs(args: argparse.Namespace) -> int:
    """Query the run ledger: list runs or gc old entries."""
    import json

    from repro.instrument import RunLedger

    ledger = RunLedger(_resolve_ledger_root(args.ledger))
    if args.action == "gc":
        removed = ledger.gc(keep_last=args.keep_last)
        print(
            f"removed {len(removed)} run(s)"
            + (f": {', '.join(removed)}" if removed else "")
        )
        return 0
    # list
    entries = ledger.query(
        **{column: getattr(args, column) for column, _, _ in _RUN_FILTERS}
    )
    if args.json:
        print(json.dumps([e.to_dict() for e in entries], indent=2,
                         sort_keys=True))
        return 0
    if not entries:
        print(f"no runs ledgered under {ledger.root}")
        return 0
    header = ("run", "config", "backend", "kernel", "fleet", "seed",
              "steps", "wall", "GF/s", "verdict", "git")
    rows = []
    for e in entries:
        fleet = (
            f"{e.executor}@{e.workers}w"
            if e.executor and e.workers else "-"
        )
        kern = (
            f"{e.kernel_backend or '?'}/{e.precision or '?'}"
            if e.kernel_backend or e.precision else "-"
        )
        rows.append((
            e.run_id,
            e.config_hash or "-",
            e.backend or "-",
            kern,
            fleet,
            str(e.seed) if e.seed is not None else "-",
            str(e.steps_completed or e.n_steps or "-"),
            f"{e.wall_s:.1f}s" if e.wall_s is not None else "-",
            f"{e.gflops:.3f}" if e.gflops is not None else "-",
            e.verdict or "-",
            e.git_rev or "-",
        ))
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


def _analysis_of(token: str, ledger) -> "object":
    """Analyze a ledger token or a bare artifact file path.

    File paths let ``report`` run without a ledger: a ``.jsonl`` file is
    treated as a telemetry stream, anything else as a Chrome trace.
    """
    from pathlib import Path

    from repro.instrument import analyze
    from repro.instrument.exporters import load_chrome_trace
    from repro.instrument.telemetry import read_stream

    path = Path(token)
    if path.is_file():
        meta = {"run_id": path.name}
        if path.suffix == ".jsonl":
            return analyze(stream=read_stream(path), meta=meta)
        return analyze(spans=load_chrome_trace(path)["spans"], meta=meta)
    try:
        return ledger.analyze(token)
    except KeyError as exc:
        raise SystemExit(f"report: {exc}")


def _report_roofline(args: argparse.Namespace, ledger) -> int:
    """Roofline placement of a ledgered run against the calibrated host.

    Reloads the run's stored trace, converts its charged work counters
    and span times into per-phase achieved GFLOP/s / arithmetic
    intensity / fraction of peak (see :mod:`repro.instrument.perfcount`),
    calibrates the host ceilings (cached under the ledger root), and
    renders the measured table under the paper's Section IV.B model line.
    """
    import json

    from repro.instrument import render_roofline, roofline_table
    from repro.machine.calibrate import calibrate

    try:
        entry = ledger.get(args.run)
    except KeyError as exc:
        raise SystemExit(f"report: {exc}")
    trace = ledger.load_trace(entry)
    if trace is None:
        raise SystemExit(
            f"report: run {entry.run_id} has no stored trace "
            "— record it with 'python -m repro run --profile ... --ledger'"
        )
    table = roofline_table(
        trace["spans"], trace["counters"], calibrate(root=ledger.root)
    )
    if not table["phases"]:
        raise SystemExit(
            f"report: run {entry.run_id} charged no work counters"
        )
    table["run"] = entry.meta()
    if args.json:
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0
    meta = entry.meta()
    print(
        f"roofline: run {entry.run_id} "
        f"(kernel {meta['kernel_backend'] or '?'}/"
        f"{meta['precision'] or '?'}, executor "
        f"{meta['executor'] or '?'})"
    )
    print(render_roofline(table))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Critical-path report of one run, or an A-vs-B comparison."""
    import json

    from repro.instrument import (
        RunLedger,
        compare,
        render_analysis,
        render_comparison,
    )

    ledger = RunLedger(_resolve_ledger_root(args.ledger))
    if args.roofline:
        return _report_roofline(args, ledger)
    if args.compare:
        token_a, token_b = args.compare
        cmp = compare(
            _analysis_of(token_a, ledger),
            _analysis_of(token_b, ledger),
            threshold=args.threshold,
        )
        if args.json:
            print(json.dumps(cmp.to_dict(), indent=2, sort_keys=True))
        else:
            print(render_comparison(cmp))
        if args.fail_on_regression and cmp.verdict == "REGRESSION":
            return 3
        return 0
    analysis = _analysis_of(args.run, ledger)
    if args.json:
        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_analysis(analysis))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.machine import DistributedFFTModel, FullCodeModel

    fft = DistributedFFTModel.calibrated()
    print("Table I (FFT wall-clock [s]; paper | model)")
    for r in fft.table1():
        print(f"  {r['block']:16s} N={r['n']:6d} R={r['ranks']:7d}  "
              f"{r['paper_s']:7.3f} | {r['model_s']:7.3f}")
    full = FullCodeModel.calibrated()
    print("\nTable II (cores x time/substep/particle; paper | model)")
    for d in full.table2():
        p, q = d["paper"], d["model"]
        print(f"  {p.cores:9,d}  {p.cores_time_substep:.2e} | "
              f"{q.cores_time_substep:.2e}")
    print("\nTable III (time/substep/particle; paper | model)")
    for d in full.table3():
        p, q = d["paper"], d["model"]
        print(f"  {p.cores:6d}  {p.time_substep_particle:.2e} | "
              f"{q.time_substep_particle:.2e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HACC reproduction command-line interface",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase verbosity (-v: debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="decrease verbosity (-q: warnings only)")
    commands = parser.add_subparsers(
        dest="command", required=True,
        metavar="{info,run,campaign,tables,monitor,runs,report}",
    )

    info = commands.add_parser("info", help="inventory + headline numbers")
    info.set_defaults(func=_cmd_info)

    run = commands.add_parser(
        "run",
        help="checkpointed fault-tolerant run (rotation, --resume, "
             "fault injection, rank recovery), optionally profiled",
    )
    run.add_argument("--config", metavar="JSON",
                     help="load the full SimulationConfig from a JSON "
                          "file (as written by SimulationConfig."
                          "to_dict); overrides the shape flags below — "
                          "the campaign supervisor's dispatch path")
    run.add_argument("--steps", type=int, default=10,
                     help="long-range steps (default 10)")
    run.add_argument("--subcycles", type=int, default=2,
                     help="short-range sub-cycles per step (default 2)")
    run.add_argument("--n-per-dim", type=int, default=12,
                     help="particles per dimension (default 12)")
    run.add_argument("--backend", default="treepm",
                     choices=("treepm", "p3m", "direct", "pm"),
                     help="short-range backend (default treepm)")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="rank-executor workers (default 1: serial; "
                          "see README 'Running in parallel')")
    run.add_argument("--executor", default=None,
                     choices=("serial", "thread"),
                     help="rank-executor backend (default: thread when "
                          "--workers > 1, else serial)")
    run.add_argument("--kernel-backend", default="auto",
                     choices=("auto", "numpy", "c"),
                     help="short-range kernel implementation (default "
                          "auto: the compiled C kernel, else numpy "
                          "when it cannot be built; an explicit c "
                          "that cannot be built fails loudly)")
    run.add_argument("--precision", default="f64",
                     choices=("f32", "f64"),
                     help="particle/kernel floating-point precision "
                          "(default f64; f32 is the paper's "
                          "mixed-precision mode)")
    run.add_argument("--summary", action="store_true",
                     help="print the final power spectrum and FOF halo "
                          "count")
    run.add_argument("--profile", action="store_true",
                     help="instrument the run and print the "
                          "measured-vs-model section table")
    run.add_argument("--trace", metavar="PATH",
                     help="write a Chrome trace_event JSON trace")
    run.add_argument("--telemetry", metavar="PATH",
                     help="stream per-step telemetry JSONL to PATH "
                          "(follow it with 'python -m repro monitor')")
    run.add_argument("--ledger", metavar="DIR", nargs="?", const="",
                     default=None,
                     help="index the finished run into the run ledger "
                          "at DIR (bare flag: $REPRO_LEDGER_DIR or "
                          ".repro/ledger); query with 'python -m repro "
                          "runs' / 'report'")
    run.add_argument("--health", action="store_true",
                     help="monitor physics invariants (energy residual, "
                          "momentum drift, mass conservation, FFT round "
                          "trip); exit 2 if any goes CRIT")
    run.add_argument("--health-energy-warn", type=float, metavar="X",
                     help="override the energy-residual WARN level "
                          "(implies --health)")
    run.add_argument("--health-energy-crit", type=float, metavar="X",
                     help="override the energy-residual CRIT level "
                          "(implies --health)")
    run.add_argument("--outdir", metavar="DIR",
                     help="checkpoint rotation directory "
                          "(ckpt_<step>.npz files)")
    run.add_argument("--resume", metavar="DIR",
                     help="resume from the latest valid checkpoint in "
                          "DIR (new checkpoints go there too unless "
                          "--outdir is given)")
    run.add_argument("--checkpoint-every", type=int, metavar="K",
                     help="checkpoint every K steps (default: every "
                          "step when --outdir/--resume is set)")
    run.add_argument("--checkpoint-seconds", type=float, metavar="T",
                     help="also checkpoint every T seconds of wall "
                          "clock")
    run.add_argument("--keep-last", type=int, default=3, metavar="N",
                     help="rotation depth (default 3)")
    run.add_argument("--decomposition", type=_parse_dims, metavar="X,Y,Z",
                     help="evaluate the short-range force over "
                          "overloaded rank domains (e.g. 2,1,1)")
    run.add_argument("--overload-depth", type=float, metavar="D",
                     help="overload shell depth in Mpc/h (default: "
                          "rcut)")
    run.add_argument("--no-recovery", action="store_true",
                     help="do not rebuild dead ranks from overload "
                          "replicas; a rank death becomes a CRIT "
                          "rank_died event")
    run.add_argument("--fault-seed", type=int, default=0, metavar="S",
                     help="fault plan RNG seed (default 0)")
    run.add_argument("--inject-rank-death", action="append",
                     metavar="STEP:RANK",
                     help="kill RANK at STEP (repeatable)")
    run.add_argument("--inject-checkpoint-corruption", action="append",
                     metavar="WRITE[:MODE[:OFFSET]]",
                     help="corrupt the Nth checkpoint written; MODE is "
                          "truncate (default) or bitflip")
    run.add_argument("--inject-slowdown", action="append",
                     metavar="SECTION:SEC",
                     help="stall a short-range section (shortrange, "
                          "shortrange.domain) per visit")
    run.set_defaults(func=_cmd_run)

    campaign = commands.add_parser(
        "campaign",
        help="supervised suite of runs from a spec file: crash-safe "
             "journaled queue, per-run timeouts, heartbeat hang "
             "detection, retries with backoff, poison-config "
             "quarantine; resume after any supervisor death",
    )
    campaign.add_argument("action", choices=("run", "status", "resume"),
                          help="run a campaign (idempotent on an "
                               "existing directory), print its status, "
                               "or resume one after a crash/shutdown")
    campaign.add_argument("spec", metavar="SPEC",
                          help="campaign spec file (.toml or .json; "
                               "see campaign/specs.py)")
    campaign.add_argument("--dir", metavar="DIR",
                          help="campaign directory (journal + per-run "
                               "state; default: spec 'dir' or "
                               ".repro/campaigns/<name>)")
    campaign.add_argument("--ledger", metavar="DIR", nargs="?", const="",
                          default=None,
                          help="run-ledger root for finished runs "
                               "(bare flag: $REPRO_LEDGER_DIR or "
                               ".repro/ledger; default: spec 'ledger' "
                               "or the same)")
    campaign.add_argument("--json", action="store_true",
                          help="for 'status': machine-readable output")
    campaign.set_defaults(func=_cmd_campaign)

    tables = commands.add_parser("tables", help="paper tables I-III")
    tables.set_defaults(func=_cmd_tables)

    monitor = commands.add_parser(
        "monitor",
        help="render one run's telemetry stream, or a multi-run "
             "dashboard; exits 2 if any run went CRIT/CRASHED",
    )
    monitor.add_argument("stream", metavar="RUN_JSONL", nargs="*",
                         help="telemetry JSONL written via --telemetry "
                              "(several paths: fleet dashboard)")
    monitor.add_argument("--campaign", metavar="DIR",
                         help="monitor every run of the campaign at DIR "
                              "(streams that don't exist yet show as "
                              "'waiting')")
    monitor.add_argument("--ledger", metavar="DIR", nargs="?", const="",
                         default=None,
                         help="also monitor the streams of ledgered "
                              "runs (bare flag: default ledger root)")
    monitor.add_argument("--last", type=int, default=8, metavar="N",
                         help="with --ledger, show the N most recent "
                              "runs (default 8)")
    monitor.add_argument("--follow", action="store_true",
                         help="keep polling until the run(s) finish")
    monitor.add_argument("--interval", type=float, default=1.0,
                         metavar="SEC",
                         help="poll interval in follow mode (default 1s)")
    monitor.add_argument("--width", type=int, default=32,
                         help="sparkline width (default 32)")
    monitor.set_defaults(func=_cmd_monitor)

    runs = commands.add_parser(
        "runs",
        help="query the run ledger (list, gc); 'report RUN' analyzes "
             "one run",
    )
    runs.add_argument("action", nargs="?", default="list",
                      choices=("list", "gc"),
                      help="list ledgered runs (default) or gc old runs")
    runs.add_argument("--ledger", metavar="DIR", default="",
                      help="ledger root (default: $REPRO_LEDGER_DIR or "
                           ".repro/ledger)")
    for column, kind, what in _RUN_FILTERS:
        runs.add_argument("--" + column.replace("_", "-"), type=kind,
                          help=f"filter by {what}")
    runs.add_argument("--keep-last", type=int, default=20, metavar="N",
                      help="for 'gc': keep the N newest runs "
                           "(default 20)")
    runs.add_argument("--json", action="store_true",
                      help="machine-readable output")
    runs.set_defaults(func=_cmd_runs)

    report = commands.add_parser(
        "report",
        help="critical-path / load-imbalance report for a ledgered run, "
             "or a cross-run comparison with regression verdicts",
    )
    report.add_argument("run", nargs="?", default="latest", metavar="RUN",
                        help="ledger token (run id, prefix, 'latest', "
                             "'latest~N') or a telemetry/trace file "
                             "path (default: latest)")
    report.add_argument("--compare", nargs=2, metavar=("RUN_A", "RUN_B"),
                        help="compare baseline RUN_A against candidate "
                             "RUN_B phase by phase")
    report.add_argument("--roofline", action="store_true",
                        help="per-phase achieved GFLOP/s, arithmetic "
                             "intensity and fraction of the calibrated "
                             "host peak, next to the paper's model "
                             "numbers (needs a run recorded with "
                             "'run --profile ... --ledger')")
    report.add_argument("--ledger", metavar="DIR", default="",
                        help="ledger root (default: $REPRO_LEDGER_DIR "
                             "or .repro/ledger)")
    report.add_argument("--threshold", type=float, default=0.25,
                        metavar="X",
                        help="relative slowdown on a major phase that "
                             "counts as a regression (default 0.25)")
    report.add_argument("--fail-on-regression", action="store_true",
                        help="exit 3 when the comparison verdict is "
                             "REGRESSION (default: report and exit 0)")
    report.add_argument("--json", action="store_true",
                        help="machine-readable output")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.instrument import logging_setup

    args = build_parser().parse_args(argv)
    logging_setup(args.verbose - args.quiet)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `... | head`): not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
