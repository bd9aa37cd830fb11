"""Per-run subprocess supervision: keep a suite alive through failures.

The supervisor walks the :class:`~repro.campaign.queue.CampaignQueue`
in spec order and, for each dispatchable run, launches ``python -m
repro run`` as a subprocess with its own checkpoint rotation directory
and telemetry stream.  While an attempt runs it watches three things:

* **liveness** — the child's exit code (``0`` done, the distinct
  :data:`~repro.resilience.signals.INTERRUPTED_EXIT_CODE` for a
  graceful preemption, anything else a failure);
* **progress** — a :class:`Heartbeat` on the run's telemetry stream:
  bytes appended means the run is stepping; silence past the policy's
  ``heartbeat_timeout_s`` means a hang, and hangs get SIGTERM (the run
  checkpoints and exits) before SIGKILL;
* **wall clock** — a per-attempt ``timeout_s`` budget.

Failures retry after the seeded exponential backoff of
:class:`RetryPolicy`; a run that exhausts its
attempt budget is QUARANTINED (a poison config must not take the
campaign down with it — the suite completes with a non-zero exit and an
honest report instead).  Every finished run is recorded in the
:class:`~repro.instrument.store.RunLedger` exactly once (campaign id +
attempt number in the entry), with the journal's ``ledgered`` fact and
an idempotency query guarding the crash window between ledger write and
journal write.

The supervisor itself shuts down cleanly on SIGTERM/SIGINT: the
in-flight child gets SIGTERM, checkpoints its tail state, and the
journal records the attempt as ``interrupted`` — ``campaign resume``
picks the suite up where it stopped, resuming the interrupted run from
its checkpoint with a bit-identical trajectory.
"""

from __future__ import annotations

import json
import logging
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign.queue import CampaignQueue, RunState
from repro.campaign.specs import CampaignSpec, RunSpec
from repro.resilience.signals import (
    INTERRUPTED_EXIT_CODE,
    ShutdownRequested,
    graceful_shutdown,
)

__all__ = [
    "CampaignSupervisor",
    "Heartbeat",
    "RetryPolicy",
    "campaign_status",
    "campaign_stream_paths",
]

logger = logging.getLogger(__name__)


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter before a failed run's next attempt.

    The ``i``-th retry waits ``min(base_delay * multiplier**i,
    max_delay)`` seconds, scaled by ``1 + U(0, jitter)`` drawn from the
    policy's ``random.Random(seed)``, so the delay sequence is
    deterministic.
    """

    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0: {self.jitter}")
        self._rng = random.Random(self.seed)

    def delay(self, retry_index: int) -> float:
        """The jittered backoff before the ``retry_index``-th retry."""
        raw = min(
            self.base_delay * self.multiplier**retry_index, self.max_delay
        )
        if self.jitter:
            raw *= 1.0 + self._rng.random() * self.jitter
        return raw


class Heartbeat:
    """Progress detector on a telemetry stream's byte offset.

    The simulation flushes one JSONL line per step, so a healthy run
    keeps growing its stream; a child stuck in a deadlock, a livelocked
    solver, or a swap storm stops appending.  The heartbeat tracks the
    file size (missing file = no progress *yet* — the clock starts at
    dispatch, so a child that never produces its first step still times
    out) and reports the silence duration.
    """

    def __init__(
        self,
        path: str | Path,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.clock = clock
        self._last_size = -1
        self._last_progress = clock()

    def poll(self) -> float:
        """Seconds since the stream last grew (0.0 right after growth)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = -1
        if size != self._last_size:
            self._last_size = size
            self._last_progress = self.clock()
        return self.clock() - self._last_progress


def _default_launcher(cmd: list[str], log_path: Path, env: dict):
    """Launch one run attempt; stdout+stderr tee to the attempt log."""
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env
        )


class CampaignSupervisor:
    """Drive a campaign to completion (see module docstring).

    Parameters
    ----------
    spec:
        The expanded :class:`~repro.campaign.specs.CampaignSpec`.
    directory:
        Campaign directory (journal, per-run subdirectories).
    ledger_root:
        Run-ledger root; defaults to the spec's ``ledger`` or the
        CLI-default ledger location.
    launcher, clock, sleep:
        Injectable for tests: ``launcher(cmd, log_path, env)`` must
        return a ``Popen``-like object (``poll``/``pid``/``terminate``/
        ``kill``/``wait``); fake clocks make the timeout, heartbeat and
        backoff paths testable without real time.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        directory: str | Path,
        ledger_root: str | Path | None = None,
        *,
        launcher: Callable | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.spec = spec
        self.directory = Path(directory)
        if ledger_root is None:
            ledger_root = spec.ledger
        if ledger_root is None:
            from repro.instrument.store import default_ledger_root

            ledger_root = default_ledger_root()
        self.ledger_root = Path(ledger_root)
        self.queue = CampaignQueue(self.directory, spec)
        self.launcher = launcher or _default_launcher
        self.clock = clock
        self.sleep = sleep
        self._retry = RetryPolicy(
            base_delay=spec.policy.retry_base_delay,
            multiplier=spec.policy.retry_multiplier,
            max_delay=spec.policy.retry_max_delay,
        )
        self._shutdown: int | None = None

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def run_dir(self, run_id: str) -> Path:
        return self.directory / "runs" / run_id

    def stream_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "telemetry.jsonl"

    def checkpoint_dir(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "ckpt"

    # ------------------------------------------------------------------
    # dispatch plumbing
    # ------------------------------------------------------------------
    def _materialize(self, run: RunSpec) -> None:
        """Write the run's config.json (idempotent, pre-dispatch)."""
        run_dir = self.run_dir(run.run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        config_path = run_dir / "config.json"
        if not config_path.is_file():
            tmp = config_path.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(run.config.to_dict(), fh, indent=2,
                          sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, config_path)

    def command(self, run: RunSpec) -> list[str]:
        """The child command line for one attempt of ``run``."""
        run_dir = self.run_dir(run.run_id)
        ckpt = self.checkpoint_dir(run.run_id)
        cmd = [
            sys.executable, "-m", "repro", "run",
            "--config", str(run_dir / "config.json"),
            "--outdir", str(ckpt),
            "--resume", str(ckpt),
            "--checkpoint-every", str(self.spec.policy.checkpoint_every),
            "--telemetry", str(self.stream_path(run.run_id)),
        ]
        cmd.extend(self.spec.extra_args)
        cmd.extend(run.extra_args)
        return cmd

    def _child_env(self) -> dict:
        """Child environment: inherit, but guarantee repro is importable."""
        env = dict(os.environ)
        import repro

        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        parts = [pkg_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return env

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------
    def _watch(self, proc, run: RunSpec) -> tuple[str, int | None]:
        """Wait for one attempt to end; returns ``(outcome, exit_code)``.

        Polls child liveness, the per-attempt wall-clock budget, and the
        telemetry heartbeat.  Timeout and hang terminate the child
        gracefully first (SIGTERM — the run checkpoints its tail state)
        and escalate to SIGKILL after ``grace_s``.
        """
        policy = self.spec.policy
        start = self.clock()
        heartbeat = Heartbeat(self.stream_path(run.run_id), self.clock)
        while True:
            code = proc.poll()
            if code is not None:
                if code == 0:
                    return "done", code
                if code == INTERRUPTED_EXIT_CODE:
                    # preempted by someone other than us (we only get
                    # here when *we* didn't signal): retry, no charge
                    return "interrupted", code
                return "failed", code
            elapsed = self.clock() - start
            if policy.timeout_s is not None and elapsed > policy.timeout_s:
                logger.warning(
                    "run %s: attempt exceeded %.1fs wall budget, "
                    "terminating", run.run_id, policy.timeout_s,
                )
                code = self._terminate(proc)
                return "timeout", code
            if (
                policy.heartbeat_timeout_s is not None
                and heartbeat.poll() > policy.heartbeat_timeout_s
            ):
                logger.warning(
                    "run %s: no telemetry progress for %.1fs, declaring "
                    "hang", run.run_id, policy.heartbeat_timeout_s,
                )
                code = self._terminate(proc)
                return "hang", code
            self.sleep(policy.poll_interval_s)

    def _terminate(self, proc) -> int | None:
        """SIGTERM (checkpoint + exit), escalate to SIGKILL, reap."""
        grace = self.spec.policy.grace_s
        try:
            proc.terminate()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            return proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            logger.warning(
                "pid %s ignored SIGTERM for %.1fs, killing",
                getattr(proc, "pid", "?"), grace,
            )
            try:
                proc.kill()
            except OSError:  # pragma: no cover - already gone
                pass
            return proc.wait()

    def _interrupt_child(self, proc, run: RunSpec) -> None:
        """Supervisor shutdown: let the in-flight child checkpoint."""
        logger.info(
            "shutdown: interrupting in-flight run %s", run.run_id
        )
        self._terminate(proc)

    # ------------------------------------------------------------------
    # ledger (exactly-once)
    # ------------------------------------------------------------------
    def _ledger_done_run(self, run: RunSpec, attempt: int) -> str | None:
        """Record a finished run's artifacts in the run ledger once.

        Idempotent across supervisor crashes: before recording, the
        ledger is queried for an entry carrying this campaign id + run
        id — the crash window between ``ledger.record`` and the
        journal's ``ledgered`` fact therefore cannot double-record.
        """
        from repro.instrument.store import RunLedger

        ledger = RunLedger(self.ledger_root)
        for entry in ledger.entries():
            if (
                entry.extra.get("campaign_id") == self.spec.campaign_id
                and entry.extra.get("campaign_run") == run.run_id
            ):
                return entry.run_id
        stream = self.stream_path(run.run_id)
        entry = ledger.record(
            stream_path=stream if stream.is_file() else None,
            manifest=None if stream.is_file() else {
                "config_hash": run.config_hash,
                "seed": run.config.seed,
                "backend": run.config.backend,
                "n_steps": run.config.n_steps,
                "n_particles": run.config.n_particles,
            },
            extra={
                "command": "campaign",
                "campaign_id": self.spec.campaign_id,
                "campaign_name": self.spec.name,
                "campaign_run": run.run_id,
                "attempt": int(attempt),
            },
        )
        return entry.run_id

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> int:
        """Drive the campaign; returns the campaign exit status.

        ``0`` — every run DONE; ``1`` — completed but with FAILED or
        QUARANTINED runs (the honest-report path);
        :data:`INTERRUPTED_EXIT_CODE` — stopped by SIGTERM/SIGINT with
        the in-flight run checkpointed (resume to continue).
        """
        self.queue.open(resume=resume)
        reconciled = self.queue.reconcile()
        if reconciled:
            logger.warning(
                "reconciled %d run(s) found in flight after a "
                "supervisor crash: %s", len(reconciled),
                ", ".join(reconciled),
            )
        self._ledger_unledgered()
        try:
            with graceful_shutdown():
                self._drain()
        except ShutdownRequested as exc:
            self.queue.record_shutdown(exc.signal_name)
            logger.warning(
                "campaign interrupted by %s; resume with "
                "'python -m repro campaign resume'", exc.signal_name,
            )
            return INTERRUPTED_EXIT_CODE
        summary = self.queue.summary()
        logger.info("campaign %s: %s", self.spec.name, summary["counts"])
        return 0 if summary["ok"] else 1

    def _ledger_unledgered(self) -> None:
        """Close the crash window: DONE runs missing their ledger fact."""
        for state in self.queue.unledgered_done():
            run = self.spec.get(state.run_id)
            ledger_id = self._ledger_done_run(run, state.attempts)
            if ledger_id is not None:
                self.queue.record_ledgered(state.run_id, ledger_id)

    def _drain(self) -> None:
        """Dispatch until no run is dispatchable (the sequential loop)."""
        while True:
            state = self.queue.next_dispatchable()
            if state is None:
                return
            run = self.spec.get(state.run_id)
            if state.failures:
                delay = self._retry.delay(state.failures - 1)
                logger.info(
                    "run %s: backing off %.2fs before attempt %d",
                    run.run_id, delay, state.attempts + 1,
                )
                self.sleep(delay)
            self._attempt(run, state)

    def _attempt(self, run: RunSpec, state: RunState) -> None:
        """One supervised attempt of one run."""
        attempt = state.attempts + 1
        self._materialize(run)
        cmd = self.command(run)
        log_path = self.run_dir(run.run_id) / f"attempt-{attempt:02d}.log"
        proc = self.launcher(cmd, log_path, self._child_env())
        self.queue.record_dispatch(run.run_id, attempt, proc.pid)
        logger.info(
            "run %s: attempt %d/%d dispatched (pid %s)",
            run.run_id, attempt, self.spec.policy.max_attempts, proc.pid,
        )
        try:
            outcome, code = self._watch(proc, run)
        except ShutdownRequested:
            self._interrupt_child(proc, run)
            self.queue.record_exit(
                run.run_id, attempt, "interrupted", proc.poll()
            )
            raise
        self.queue.record_exit(run.run_id, attempt, outcome, code)
        logger.info(
            "run %s: attempt %d %s (exit %s)",
            run.run_id, attempt, outcome, code,
        )
        if outcome == "done":
            ledger_id = self._ledger_done_run(run, attempt)
            if ledger_id is not None:
                self.queue.record_ledgered(run.run_id, ledger_id)
            return
        # failure accounting is replayed from the journal; quarantine is
        # re-derived there too, but record the explicit fact for status
        replayed = self.queue.states()[run.run_id]
        if replayed.state == "QUARANTINED":
            self.queue.record_quarantine(run.run_id, replayed.attempts)
            logger.error(
                "run %s QUARANTINED after %d failed attempt(s) — "
                "continuing with the rest of the campaign",
                run.run_id, replayed.failures,
            )


# ----------------------------------------------------------------------
# status / monitoring views
# ----------------------------------------------------------------------
def campaign_status(
    spec: CampaignSpec, directory: str | Path
) -> dict:
    """Machine-readable campaign status (the ``status --json`` payload)."""
    queue = CampaignQueue(directory, spec)
    states = queue.states()
    summary = queue.summary()
    return {
        "campaign_id": spec.campaign_id,
        "name": spec.name,
        "directory": str(directory),
        "runs": [
            {
                **states[run.run_id].to_dict(),
                "config_hash": run.config_hash,
                "seed": run.config.seed,
            }
            for run in spec.runs
        ],
        "runs_total": summary["runs"],
        "counts": summary["counts"],
        "done": summary["done"],
        "complete": summary["complete"],
        "ok": summary["ok"],
    }


def campaign_stream_paths(
    spec: CampaignSpec, directory: str | Path
) -> list[tuple[str, str]]:
    """``(run_id, telemetry_path)`` for the monitor's fleet dashboard.

    Paths are returned whether or not the stream exists yet — runs that
    have not been dispatched simply render as ``waiting`` rows, and the
    follower picks each file up when it appears.
    """
    directory = Path(directory)
    return [
        (run.run_id, str(directory / "runs" / run.run_id
                         / "telemetry.jsonl"))
        for run in spec.runs
    ]
