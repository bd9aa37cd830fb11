"""Run-monitor rendering: progress, ETA, imbalance, alerts from JSONL.

The view layer of ``python -m repro monitor <run.jsonl>``.  All state
comes from the telemetry stream (:mod:`repro.instrument.telemetry`), so
the renderer is a pure function of the parsed stream — the tests drive
it with synthetic streams and never touch a terminal or a clock.
"""

from __future__ import annotations

from repro.instrument.telemetry import sparkline

__all__ = [
    "render_monitor",
    "render_dashboard",
    "monitor_exit_status",
    "dashboard_exit_status",
    "pick_imbalance_series",
]

#: gauge preference order for the headline imbalance sparkline — particle
#: counts are the paper's primary balance measure, interactions the
#: closest proxy for actual work
_IMBALANCE_PRIORITY = ("particles", "interactions", "comm_bytes")


def pick_imbalance_series(steps: list[dict]) -> tuple[str, list[float]]:
    """Choose the headline imbalance gauge and its per-step series.

    Prefers the paper's particles-per-rank measure, falling back to any
    recorded gauge; returns ``("", [])`` for streams without imbalance
    data (single-rank runs).
    """
    seen: list[str] = []
    for step in steps:
        for name in step.get("imbalance", {}):
            if name not in seen:
                seen.append(name)
    for name in _IMBALANCE_PRIORITY:
        if name in seen:
            chosen = name
            break
    else:
        if not seen:
            return "", []
        chosen = seen[0]
    series = [
        float(step["imbalance"][chosen])
        for step in steps
        if chosen in step.get("imbalance", {})
    ]
    return chosen, series


def _progress_bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "[" + "?" * width + "]"
    filled = min(width, int(round(width * done / total)))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt_duration(seconds: float) -> str:
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, sec = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{sec:02d}s"


def render_monitor(data: dict, width: int = 32) -> str:
    """Render one monitor frame from a parsed stream (see ``read_stream``).

    Sections: run identity (manifest), progress bar with ETA from the
    mean step wall time, wall-time and imbalance sparklines, latest
    physics residuals, active alerts, and the final verdict once the
    ``end`` record exists.
    """
    manifest = data.get("manifest") or {}
    steps = data.get("steps") or []
    end = data.get("end")
    lines: list[str] = []

    # --- identity -----------------------------------------------------
    ident = []
    if manifest.get("config_hash"):
        ident.append(f"run {manifest['config_hash']}")
    if manifest.get("backend"):
        ident.append(manifest["backend"])
    if manifest.get("n_particles"):
        ident.append(f"{manifest['n_particles']:,} particles")
    if manifest.get("seed") is not None:
        ident.append(f"seed {manifest['seed']}")
    lines.append(" | ".join(ident) if ident else "run (no manifest)")

    # --- progress -----------------------------------------------------
    total = int(manifest.get("n_steps") or 0)
    done = len(steps)
    walls = [float(s.get("wall_time", 0.0)) for s in steps]
    elapsed = sum(walls)
    if steps:
        last = steps[-1]
        state = f"a = {last.get('a', 0.0):.4f}  z = {last.get('z', 0.0):.2f}"
    else:
        state = "waiting for first step"
    if total:
        bar = _progress_bar(done, total)
        pct = 100.0 * done / total
        line = f"{bar} step {done}/{total} ({pct:.0f}%)  {state}"
        if end is None and done and done < total:
            eta = (elapsed / done) * (total - done)
            line += f"  ETA {_fmt_duration(eta)}"
    else:
        line = f"step {done}  {state}"
    lines.append(line)
    lines.append(f"elapsed {_fmt_duration(elapsed)}")

    # --- sparklines ---------------------------------------------------
    if walls:
        lines.append(
            f"step wall  {sparkline(walls, width)}  "
            f"last {_fmt_duration(walls[-1])}"
        )
    name, series = pick_imbalance_series(steps)
    if series:
        lines.append(
            f"imbalance  {sparkline(series, width)}  "
            f"{name} max/mean {series[-1]:.2f}"
        )

    # --- residuals ----------------------------------------------------
    if steps and steps[-1].get("residuals"):
        parts = [
            f"{k} {float(v):.2e}"
            for k, v in sorted(steps[-1]["residuals"].items())
        ]
        lines.append("health     " + "  ".join(parts))

    # --- alerts -------------------------------------------------------
    alerts = [al for s in steps for al in s.get("alerts", [])]
    n_warn = sum(1 for al in alerts if al.get("severity") == "WARN")
    n_crit = sum(1 for al in alerts if al.get("severity") == "CRIT")
    if alerts:
        lines.append(f"alerts     {n_warn} WARN, {n_crit} CRIT")
        for al in alerts[-3:]:  # most recent crossings
            lines.append(
                f"  [{al.get('severity', '?'):4s}] "
                f"{al.get('message', al.get('check', '?'))}"
            )
    else:
        lines.append("alerts     none")

    # --- verdict ------------------------------------------------------
    if end is not None:
        verdict = end.get("verdict", "OK")
        lines.append(
            f"finished: {end.get('steps', done)} steps, "
            f"verdict {verdict}"
        )
    else:
        lines.append("running...")
    return "\n".join(lines)


def monitor_exit_status(data: dict) -> int:
    """Shell status for a monitored stream: 2 on CRIT/CRASHED, else 0."""
    end = data.get("end")
    if end is not None and end.get("verdict") in ("CRIT", "CRASHED"):
        return 2
    for step in data.get("steps") or []:
        for al in step.get("alerts", []):
            if al.get("severity") == "CRIT":
                return 2
    return 0


# ----------------------------------------------------------------------
# multi-run dashboard
# ----------------------------------------------------------------------
def _run_row(name: str, data: dict) -> tuple[str, ...]:
    manifest = data.get("manifest") or {}
    steps = data.get("steps") or []
    end = data.get("end")
    total = int(manifest.get("n_steps") or 0)
    done = len(steps)
    if total:
        progress = f"{done}/{total} ({100 * done // total}%)"
    else:
        progress = str(done)
    z = f"{steps[-1].get('z', 0.0):.2f}" if steps else "-"
    elapsed = _fmt_duration(
        sum(float(s.get("wall_time", 0.0)) for s in steps)
    )
    _, series = pick_imbalance_series(steps)
    imbal = f"{series[-1]:.2f}" if series else "-"
    alerts = [al for s in steps for al in s.get("alerts", [])]
    n_warn = sum(1 for al in alerts if al.get("severity") == "WARN")
    n_crit = sum(1 for al in alerts if al.get("severity") == "CRIT")
    if end is not None:
        status = end.get("verdict", "OK")
    elif not manifest and not steps:
        # stream file absent or empty: a queued campaign run that has
        # not been dispatched yet — distinct from a live, stepping run
        status = "waiting"
    else:
        status = "running"
    ident = manifest.get("config_hash") or ""
    workers = manifest.get("workers")
    executor = manifest.get("executor")
    if executor and workers:
        ident = f"{ident} {executor}@{workers}w".strip()
    # kernel backend + precision come from the manifest (recorded since
    # the kernel-backend seam landed); achieved ns/pair from the latest
    # step's perf block, so a live dashboard shows kernel throughput
    kernel_backend = manifest.get("kernel_backend")
    precision = manifest.get("precision")
    if kernel_backend or precision:
        kernel = f"{kernel_backend or '?'}/{precision or '?'}"
    else:
        kernel = "-"
    pair_ns = "-"
    for step in reversed(steps):
        perf = step.get("perf") or {}
        if perf.get("pair_ns") is not None:
            pair_ns = f"{float(perf['pair_ns']):.0f}"
            break
    return (
        name,
        ident or "-",
        kernel,
        progress,
        z,
        elapsed,
        pair_ns,
        imbal,
        f"{n_warn}W/{n_crit}C",
        status,
    )


def render_dashboard(runs: list[tuple[str, dict]]) -> str:
    """Render the fleet view: one row per run, aligned columns.

    ``runs`` is ``[(display_name, parsed_stream), ...]`` — the
    multi-stream form of ``python -m repro monitor`` and the campaign
    dashboard ROADMAP item 1 aggregates over.
    """
    header = ("run", "config", "kernel", "step", "z", "elapsed",
              "ns/pair", "imbal", "alerts", "status")
    rows = [_run_row(name, data) for name, data in runs]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    n_done = sum(1 for _, d in runs if d.get("end") is not None)
    lines.append(f"{n_done}/{len(runs)} run(s) finished")
    return "\n".join(lines)


def dashboard_exit_status(runs: list[tuple[str, dict]]) -> int:
    """Worst per-run exit status across the fleet."""
    return max(
        (monitor_exit_status(data) for _, data in runs), default=0
    )

