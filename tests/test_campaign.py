"""Tests for the campaign orchestrator (``repro.campaign``).

Covers the three layers separately and together:

* spec expansion (grids, explicit runs, validation, stable identity);
* journal replay (state machine, retry budget, torn lines, reconcile);
* supervision with fake clocks/launchers (timeout -> retry ->
  quarantine, heartbeat hang detection, exactly-once ledgering);
* graceful-shutdown signal plumbing;
* a chaos lane: SIGKILL the supervisor *and* its child mid-run, resume,
  and require exactly-once ledger entries plus a bit-identical resumed
  trajectory.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignQueue,
    CampaignSupervisor,
    JournalError,
    SpecError,
    SupervisionPolicy,
    campaign_status,
    expand_spec,
    load_spec,
)
from repro.campaign.queue import CampaignJournal
from repro.campaign.supervisor import Heartbeat


BASE = {"box_size": 64.0, "n_per_dim": 8, "n_steps": 3,
        "n_subcycles": 1, "backend": "pm"}


def _spec(grid=None, runs=None, campaign=None):
    doc = {"base": dict(BASE)}
    if grid:
        doc["grid"] = grid
    if runs:
        doc["runs"] = runs
    if campaign:
        doc["campaign"] = campaign
    return expand_spec(doc, name="t")


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
class TestSpecExpansion:
    def test_grid_product_in_key_order(self):
        spec = _spec(grid={"seed": [1, 2], "n_steps": [3, 4]})
        assert len(spec.runs) == 4
        combos = [(r.config.seed, r.config.n_steps) for r in spec.runs]
        assert combos == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_expansion_is_deterministic(self):
        a = _spec(grid={"seed": [1, 2]})
        b = _spec(grid={"seed": [1, 2]})
        assert [r.run_id for r in a.runs] == [r.run_id for r in b.runs]
        assert a.campaign_id == b.campaign_id

    def test_edited_spec_changes_campaign_id(self):
        a = _spec(grid={"seed": [1, 2]})
        b = _spec(grid={"seed": [1, 3]})
        assert a.campaign_id != b.campaign_id

    def test_dotted_cosmology_override(self):
        spec = _spec(grid={"cosmology.sigma8": [0.7, 0.9]})
        assert [r.config.cosmology.sigma8 for r in spec.runs] == [0.7, 0.9]

    def test_explicit_runs_carry_extra_args(self):
        spec = _spec(runs=[{"seed": 5, "extra_args": ["--no-recovery"]}])
        assert spec.runs[0].config.seed == 5
        assert spec.runs[0].extra_args == ("--no-recovery",)

    @pytest.mark.parametrize("flag", ["--retry", "--overlap"])
    def test_retired_run_flag_in_campaign_extra_args(self, flag):
        with pytest.raises(SpecError, match=rf"run 0.*{flag}"):
            _spec(campaign={"extra_args": [flag]})

    @pytest.mark.parametrize("flag", ["--retry", "--overlap"])
    def test_retired_run_flag_in_run_extra_args(self, flag):
        with pytest.raises(SpecError, match=rf"run 1.*{flag}"):
            _spec(runs=[{"seed": 1}, {"seed": 2, "extra_args": [flag]}])

    def test_valid_extra_args_parse(self):
        spec = _spec(
            campaign={"extra_args": ["--inject-slowdown", "shortrange:0.3"]},
            runs=[{"n_per_dim": 16, "extra_args": [
                "--decomposition", "2,1,1", "--overload-depth", "14"]}],
        )
        assert spec.extra_args == ("--inject-slowdown", "shortrange:0.3")
        assert spec.runs[0].extra_args == (
            "--decomposition", "2,1,1", "--overload-depth", "14")

    def test_bare_base_is_one_run(self):
        assert len(_spec().runs) == 1

    def test_missing_base_rejected(self):
        with pytest.raises(SpecError, match=r"\[base\]"):
            expand_spec({"grid": {"seed": [1]}})

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError, match="unknown spec sections"):
            expand_spec({"base": dict(BASE), "bogus": {}})

    def test_unknown_campaign_key_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            _spec(campaign={"naem": "typo"})

    def test_scalar_grid_axis_rejected(self):
        with pytest.raises(SpecError, match="non-empty list"):
            _spec(grid={"seed": 1})

    def test_extra_args_cannot_be_an_axis(self):
        with pytest.raises(SpecError, match="extra_args"):
            _spec(grid={"extra_args": [["--no-recovery"]]})

    def test_invalid_config_is_a_spec_error(self):
        with pytest.raises(SpecError, match="invalid config"):
            _spec(grid={"box_size": [-1.0]})

    def test_zero_timeout_means_disabled(self):
        spec = _spec(campaign={"timeout_s": 0, "heartbeat_timeout_s": 0})
        assert spec.policy.timeout_s is None
        assert spec.policy.heartbeat_timeout_s is None

    def test_policy_validation(self):
        with pytest.raises(SpecError, match="max_attempts"):
            SupervisionPolicy(max_attempts=0)

    def test_load_spec_toml(self, tmp_path):
        path = tmp_path / "suite.toml"
        path.write_text(
            "[campaign]\nname='s'\nmax_attempts=2\n"
            "[base]\nbox_size=64.0\nn_per_dim=8\nn_steps=3\n"
            "n_subcycles=1\nbackend='pm'\n"
            "[grid]\nseed=[1,2]\n"
        )
        spec = load_spec(path)
        assert spec.name == "s"
        assert spec.policy.max_attempts == 2
        assert len(spec.runs) == 2

    def test_load_spec_json(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"base": BASE}))
        assert len(load_spec(path).runs) == 1

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "nope.toml")


# ----------------------------------------------------------------------
# journal + queue replay
# ----------------------------------------------------------------------
class TestQueueReplay:
    def _queue(self, tmp_path, max_attempts=2, n=1):
        spec = _spec(
            grid={"seed": list(range(1, n + 1))},
            campaign={"max_attempts": max_attempts},
        )
        queue = CampaignQueue(tmp_path / "camp", spec)
        queue.open()
        return spec, queue

    def test_fresh_open_writes_header_and_sidecar(self, tmp_path):
        spec, queue = self._queue(tmp_path)
        sidecar = json.loads(
            (tmp_path / "camp" / "campaign.json").read_text()
        )
        assert sidecar["campaign_id"] == spec.campaign_id
        states = queue.states()
        assert all(s.state == "PENDING" for s in states.values())

    def test_done_lifecycle(self, tmp_path):
        spec, queue = self._queue(tmp_path)
        rid = spec.runs[0].run_id
        queue.record_dispatch(rid, 1, 123)
        assert queue.states()[rid].state == "RUNNING"
        queue.record_exit(rid, 1, "done", 0)
        state = queue.states()[rid]
        assert state.state == "DONE"
        assert state.attempts == 1
        assert queue.next_dispatchable() is None

    def test_failures_quarantine_at_budget(self, tmp_path):
        spec, queue = self._queue(tmp_path, max_attempts=2)
        rid = spec.runs[0].run_id
        queue.record_dispatch(rid, 1, 1)
        queue.record_exit(rid, 1, "failed", 1)
        assert queue.states()[rid].state == "FAILED"
        assert queue.next_dispatchable().run_id == rid
        queue.record_dispatch(rid, 2, 2)
        queue.record_exit(rid, 2, "timeout", None)
        state = queue.states()[rid]
        assert state.state == "QUARANTINED"
        assert state.failures == 2
        assert queue.next_dispatchable() is None

    def test_interruption_does_not_charge_the_budget(self, tmp_path):
        spec, queue = self._queue(tmp_path, max_attempts=2)
        rid = spec.runs[0].run_id
        for attempt in (1, 2, 3):
            queue.record_dispatch(rid, attempt, attempt)
            queue.record_exit(rid, attempt, "interrupted", 75)
        state = queue.states()[rid]
        assert state.state == "PENDING"
        assert state.failures == 0
        assert state.attempts == 3

    def test_reconcile_converts_in_flight_to_dispatchable(self, tmp_path):
        spec, queue = self._queue(tmp_path)
        rid = spec.runs[0].run_id
        queue.record_dispatch(rid, 1, 99)
        # replay sees dispatched-without-exit: the supervisor died
        assert queue.states()[rid].in_flight
        assert queue.reconcile() == [rid]
        state = queue.states()[rid]
        assert not state.in_flight
        assert state.state == "PENDING"
        assert state.failures == 0  # environment fault, not the config's
        assert state.last_outcome == "supervisor-crash"

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        spec, queue = self._queue(tmp_path)
        rid = spec.runs[0].run_id
        queue.record_dispatch(rid, 1, 7)
        queue.record_exit(rid, 1, "done", 0)
        with open(queue.journal.path, "a") as fh:
            fh.write('{"kind": "exit", "run":')  # torn mid-crash
        assert queue.states()[rid].state == "DONE"

    def test_resume_without_journal_fails(self, tmp_path):
        spec = _spec()
        queue = CampaignQueue(tmp_path / "nowhere", spec)
        with pytest.raises(JournalError, match="nothing to resume"):
            queue.open(resume=True)

    def test_edited_spec_fails_loudly(self, tmp_path):
        spec, _ = self._queue(tmp_path)
        other = _spec(grid={"seed": [9]})
        queue2 = CampaignQueue(tmp_path / "camp", other)
        with pytest.raises(JournalError, match="spec changed"):
            queue2.open(resume=True)

    def test_ledgered_fact_and_unledgered_view(self, tmp_path):
        spec, queue = self._queue(tmp_path)
        rid = spec.runs[0].run_id
        queue.record_dispatch(rid, 1, 7)
        queue.record_exit(rid, 1, "done", 0)
        assert [s.run_id for s in queue.unledgered_done()] == [rid]
        queue.record_ledgered(rid, "run-0001-abc")
        assert queue.unledgered_done() == []
        assert queue.states()[rid].ledger_run_id == "run-0001-abc"

    def test_summary_counts(self, tmp_path):
        spec, queue = self._queue(tmp_path, n=2)
        r0, r1 = (r.run_id for r in spec.runs)
        queue.record_dispatch(r0, 1, 1)
        queue.record_exit(r0, 1, "done", 0)
        summary = queue.summary()
        assert summary == {
            "runs": 2,
            "counts": {"DONE": 1, "PENDING": 1},
            "done": 1,
            "complete": False,
            "ok": False,
        }

    def test_journal_append_is_durable_jsonl(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"kind": "x"})
        events = journal.replay()
        assert events[0]["kind"] == "x"
        assert "t" in events[0]


# ----------------------------------------------------------------------
# supervision with fakes
# ----------------------------------------------------------------------
class FakeClock:
    """Monotonic fake time; sleeping advances it."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += max(float(seconds), 0.0)


class FakeProc:
    """Popen stand-in: exits with ``code`` after ``polls`` poll calls
    (never, if ``polls`` is None) unless terminated first."""

    def __init__(self, code=0, polls=0, pid=4242):
        self.code = code
        self.polls_left = polls
        self.pid = pid
        self.rc = None
        self.terminated = False

    def poll(self):
        if self.rc is not None:
            return self.rc
        if self.polls_left is not None:
            if self.polls_left <= 0:
                self.rc = self.code
                return self.rc
            self.polls_left -= 1
        return None

    def terminate(self):
        self.terminated = True
        self.rc = -int(signal.SIGTERM)

    def kill(self):
        self.rc = -int(signal.SIGKILL)

    def wait(self, timeout=None):
        if self.rc is None:
            raise subprocess.TimeoutExpired("fake", timeout or 0)
        return self.rc


def _fake_supervisor(tmp_path, procs, *, n=1, policy_kw=None):
    """A supervisor whose children are FakeProcs popped off ``procs``."""
    campaign = {
        "max_attempts": 2,
        "timeout_s": 10.0,
        "heartbeat_timeout_s": 0,
        "grace_s": 0.0,
        "poll_interval_s": 1.0,
        "retry_base_delay": 0.0,
        "retry_max_delay": 0.0,
    }
    campaign.update(policy_kw or {})
    spec = _spec(grid={"seed": list(range(1, n + 1))}, campaign=campaign)
    clock = FakeClock()
    launched = []

    def launcher(cmd, log_path, env):
        proc = procs.pop(0)
        launched.append((cmd, proc))
        return proc

    supervisor = CampaignSupervisor(
        spec,
        tmp_path / "camp",
        ledger_root=tmp_path / "ledger",
        launcher=launcher,
        clock=clock,
        sleep=clock.sleep,
    )
    return spec, supervisor, clock, launched


class TestSupervisor:
    def test_success_ledgers_each_run_exactly_once(self, tmp_path):
        from repro.instrument.store import RunLedger

        spec, sup, _, launched = _fake_supervisor(
            tmp_path, [FakeProc(code=0), FakeProc(code=0)], n=2
        )
        assert sup.run() == 0
        entries = RunLedger(tmp_path / "ledger").entries()
        assert len(entries) == 2
        assert sorted(e.extra["campaign_run"] for e in entries) == sorted(
            r.run_id for r in spec.runs
        )
        assert all(
            e.extra["campaign_id"] == spec.campaign_id for e in entries
        )
        # idempotent: a re-run dispatches nothing and records nothing
        spec2, sup2, _, launched2 = _fake_supervisor(tmp_path, [], n=2)
        assert sup2.run(resume=True) == 0
        assert launched2 == []
        assert len(RunLedger(tmp_path / "ledger").entries()) == 2

    def test_command_carries_config_resume_and_extra_args(self, tmp_path):
        spec, sup, _, launched = _fake_supervisor(
            tmp_path, [FakeProc(code=0)]
        )
        sup.run()
        cmd, _ = launched[0]
        run_dir = sup.run_dir(spec.runs[0].run_id)
        assert "--config" in cmd and str(run_dir / "config.json") in cmd
        assert "--resume" in cmd and str(run_dir / "ckpt") in cmd
        assert "--telemetry" in cmd
        assert (run_dir / "config.json").is_file()

    def test_timeout_then_retry_then_quarantine(self, tmp_path):
        spec, sup, clock, launched = _fake_supervisor(
            tmp_path,
            [FakeProc(polls=None), FakeProc(polls=None)],
            policy_kw={"timeout_s": 3.0},
        )
        assert sup.run() == 1  # honest non-zero exit, campaign complete
        assert len(launched) == 2
        assert all(p.terminated for _, p in launched)
        state = sup.queue.states()[spec.runs[0].run_id]
        assert state.state == "QUARANTINED"
        assert state.failures == 2
        assert state.last_outcome == "timeout"
        status = campaign_status(spec, tmp_path / "camp")
        assert status["complete"] and not status["ok"]

    def test_quarantine_does_not_block_later_runs(self, tmp_path):
        spec, sup, _, _ = _fake_supervisor(
            tmp_path,
            [FakeProc(code=1), FakeProc(code=1), FakeProc(code=0)],
            n=2,
        )
        assert sup.run() == 1
        states = sup.queue.states()
        assert states[spec.runs[0].run_id].state == "QUARANTINED"
        assert states[spec.runs[1].run_id].state == "DONE"

    def test_hang_detected_by_silent_heartbeat(self, tmp_path):
        spec, sup, clock, launched = _fake_supervisor(
            tmp_path,
            [FakeProc(polls=None), FakeProc(polls=None)],
            policy_kw={"timeout_s": 0, "heartbeat_timeout_s": 2.0},
        )
        assert sup.run() == 1
        state = sup.queue.states()[spec.runs[0].run_id]
        assert state.last_outcome == "hang"
        assert state.state == "QUARANTINED"

    def test_heartbeat_progress_defers_the_hang(self, tmp_path):
        stream = tmp_path / "t.jsonl"
        clock = FakeClock()
        hb = Heartbeat(stream, clock)
        clock.t = 5.0
        assert hb.poll() == pytest.approx(5.0)  # no file: silence grows
        stream.write_text("line\n")
        assert hb.poll() == 0.0  # bytes appeared: progress
        clock.t = 8.0
        assert hb.poll() == pytest.approx(3.0)
        with open(stream, "a") as fh:
            fh.write("more\n")
        assert hb.poll() == 0.0

    def test_backoff_consumes_fake_time_between_attempts(self, tmp_path):
        spec, sup, clock, _ = _fake_supervisor(
            tmp_path,
            [FakeProc(code=1, polls=0), FakeProc(code=1, polls=0)],
            policy_kw={"retry_base_delay": 4.0, "retry_max_delay": 4.0},
        )
        t_before = clock.t
        sup.run()
        # at least the base backoff elapsed on the fake clock
        assert clock.t - t_before >= 4.0

    def test_unledgered_done_repaired_on_resume(self, tmp_path):
        from repro.instrument.store import RunLedger

        # first attempt dies between 'exit done' and 'ledgered'
        spec, sup, _, _ = _fake_supervisor(tmp_path, [FakeProc(code=0)])
        sup.queue.open()
        rid = spec.runs[0].run_id
        sup.queue.record_dispatch(rid, 1, 1)
        sup.queue.record_exit(rid, 1, "done", 0)
        # resume repairs the crash window: exactly one entry appears
        spec2, sup2, _, launched = _fake_supervisor(tmp_path, [])
        assert sup2.run(resume=True) == 0
        assert launched == []
        entries = RunLedger(tmp_path / "ledger").entries()
        assert len(entries) == 1
        assert sup2.queue.states()[rid].ledger_run_id == entries[0].run_id


# ----------------------------------------------------------------------
# signals
# ----------------------------------------------------------------------
class TestSignals:
    def test_graceful_shutdown_raises_and_restores(self):
        from repro.resilience.signals import (
            ShutdownRequested,
            graceful_shutdown,
        )

        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(ShutdownRequested) as exc_info:
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # interrupted by the raise
                pytest.fail("signal did not interrupt")  # pragma: no cover
        assert exc_info.value.signal_name == "SIGTERM"
        assert signal.getsignal(signal.SIGTERM) is before

    def test_shutdown_requested_evades_except_exception(self):
        from repro.resilience.signals import ShutdownRequested

        with pytest.raises(ShutdownRequested):
            try:
                raise ShutdownRequested(signal.SIGTERM)
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("swallowed by except Exception")

    def test_interrupted_exit_code_is_distinct(self):
        from repro.resilience.signals import INTERRUPTED_EXIT_CODE

        assert INTERRUPTED_EXIT_CODE == 75  # EX_TEMPFAIL: resumable
        assert INTERRUPTED_EXIT_CODE not in (0, 1, 2)


# ----------------------------------------------------------------------
# monitor integration
# ----------------------------------------------------------------------
class TestMonitorWaiting:
    def test_missing_stream_renders_waiting(self):
        from repro.instrument.monitor import render_dashboard
        from repro.instrument.telemetry import StreamFollower

        follower = StreamFollower("/nonexistent/telemetry.jsonl")
        follower.poll()  # must tolerate the missing file
        out = render_dashboard([("r000", follower.data)])
        assert "waiting" in out

    def test_campaign_stream_paths_cover_undispatched_runs(self, tmp_path):
        from repro.campaign.supervisor import campaign_stream_paths

        spec = _spec(grid={"seed": [1, 2]})
        paths = campaign_stream_paths(spec, tmp_path)
        assert len(paths) == 2
        assert all(p.endswith("telemetry.jsonl") for _, p in paths)
        assert not any(Path(p).exists() for _, p in paths)


# ----------------------------------------------------------------------
# chaos: SIGKILL the supervisor and its child mid-run, resume
# ----------------------------------------------------------------------
def _repro_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p]
    )
    return env


def _campaign_cmd(action, spec_path, camp_dir, ledger_dir):
    return [
        sys.executable, "-m", "repro", "campaign", action,
        str(spec_path), "--dir", str(camp_dir),
        "--ledger", str(ledger_dir),
    ]


@pytest.mark.slow
@pytest.mark.chaos
class TestCampaignChaos:
    SPEC = (
        "[campaign]\n"
        "name = 'chaos'\n"
        "max_attempts = 3\n"
        "timeout_s = 300.0\n"
        "heartbeat_timeout_s = 120.0\n"
        "poll_interval_s = 0.05\n"
        "retry_base_delay = 0.01\n"
        "retry_max_delay = 0.05\n"
        "extra_args = ['--inject-slowdown', 'shortrange:0.4']\n"
        "[base]\n"
        "box_size = 64.0\n"
        "n_per_dim = 8\n"
        "n_steps = 5\n"
        "n_subcycles = 1\n"
        "backend = 'treepm'\n"
        "[grid]\n"
        "seed = [1, 2]\n"
    )

    def _wait_for(self, predicate, timeout=120.0, interval=0.1):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(interval)
        return False

    def test_sigkill_resume_exactly_once_and_bit_identical(self, tmp_path):
        spec_path = tmp_path / "chaos.toml"
        spec_path.write_text(self.SPEC)
        camp = tmp_path / "camp"
        ledger = tmp_path / "ledger"
        env = _repro_env()

        supervisor = subprocess.Popen(
            _campaign_cmd("run", spec_path, camp, ledger),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            journal = camp / "journal.jsonl"

            def in_flight_run():
                """The run id dispatched but not yet exited, or None."""
                if not journal.is_file():
                    return None
                open_runs = set()
                for line in open(journal):
                    try:
                        ev = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if ev.get("kind") == "dispatched":
                        open_runs.add(ev["run"])
                    elif ev.get("kind") == "exit":
                        open_runs.discard(ev["run"])
                return next(iter(open_runs), None)

            def mid_flight_with_progress():
                # kill only while an attempt is in flight AND its
                # telemetry shows a completed step (manifest + step
                # line), so the resume is a genuine mid-trajectory one
                rid = in_flight_run()
                if rid is None:
                    return False
                tel = camp / "runs" / rid / "telemetry.jsonl"
                return tel.is_file() and sum(1 for _ in open(tel)) >= 2

            assert self._wait_for(mid_flight_with_progress), \
                "campaign never started stepping"
            # simulate a node death: supervisor AND its child go down
            child_pids = [
                ev.get("pid")
                for ev in map(json.loads, open(journal))
                if ev.get("kind") == "dispatched"
            ]
            os.kill(supervisor.pid, signal.SIGKILL)
            supervisor.wait(timeout=30)
            for pid in child_pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, TypeError):
                    pass
            self._wait_for(
                lambda: all(not _alive(p) for p in child_pids if p)
            )
        finally:
            if supervisor.poll() is None:  # pragma: no cover - cleanup
                supervisor.kill()
                supervisor.wait()

        resumed = subprocess.run(
            _campaign_cmd("resume", spec_path, camp, ledger),
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr

        status_proc = subprocess.run(
            _campaign_cmd("status", spec_path, camp, ledger) + ["--json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert status_proc.returncode == 0, status_proc.stderr
        status = json.loads(status_proc.stdout)
        assert status["ok"] and status["complete"]
        by_run = {r["run"]: r for r in status["runs"]}
        assert all(r["state"] == "DONE" for r in by_run.values())
        # the killed run took one extra (uncharged) attempt
        attempts = sorted(r["attempts"] for r in by_run.values())
        assert attempts == [1, 2]
        assert all(r["failures"] == 0 for r in by_run.values())

        # exactly-once ledger: one entry per campaign run, no dupes
        entries = [
            json.loads(line)
            for line in open(ledger / "index.jsonl")
            if line.strip()
        ]
        campaign_runs = [e["extra"]["campaign_run"] for e in entries]
        assert sorted(campaign_runs) == sorted(by_run)
        assert len(set(campaign_runs)) == len(campaign_runs)

        # bit-identical resumed trajectory: the interrupted run's final
        # checkpoint must equal an uninterrupted reference of the same
        # config (the PR-4 fault-free resume contract, end to end)
        interrupted_run = next(
            r for r in by_run.values() if r["attempts"] == 2
        )["run"]
        run_dir = camp / "runs" / interrupted_run
        final = sorted((run_dir / "ckpt").glob("ckpt_*.npz"))[-1]
        ref_dir = tmp_path / "ref"
        ref = subprocess.run(
            [sys.executable, "-m", "repro", "run",
             "--config", str(run_dir / "config.json"),
             "--outdir", str(ref_dir), "--checkpoint-every", "1000"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert ref.returncode == 0, ref.stderr
        ref_final = sorted(ref_dir.glob("ckpt_*.npz"))[-1]
        assert final.name == ref_final.name
        got = np.load(final)
        want = np.load(ref_final)
        np.testing.assert_array_equal(got["positions"],
                                      want["positions"])
        np.testing.assert_array_equal(got["momenta"], want["momenta"])


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


# ----------------------------------------------------------------------
# standalone run interruption (satellite: SIGTERM -> checkpoint + 75)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.chaos
class TestRunInterruption:
    def test_sigterm_checkpoints_and_exits_75(self, tmp_path):
        outdir = tmp_path / "ckpt"
        tel = tmp_path / "telemetry.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run",
             "--n-per-dim", "8", "--steps", "50", "--subcycles", "1",
             "--backend", "treepm",
             "--inject-slowdown", "shortrange:0.3",
             "--outdir", str(outdir), "--checkpoint-every", "1",
             "--telemetry", str(tel)],
            env=_repro_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if tel.is_file() and sum(1 for _ in open(tel)) >= 3:
                    break
                time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()
        assert rc == 75
        assert sorted(outdir.glob("ckpt_*.npz"))  # tail state preserved
        end = json.loads(open(tel).readlines()[-1])
        assert end["kind"] == "end"
        assert end["verdict"] == "INTERRUPTED"
