"""Tests for the fleet-observability layer: run ledger, critical-path
analyzer, stream follower, and crash-safe telemetry.

The analyzer tests drive synthetic span trees against a FakeClock so
self-time arithmetic is exact; the round-trip test pins the satellite
guarantee that a Chrome trace re-parsed by the analyzer yields the same
per-phase totals as the live registry.  Ledger tests run against tmp
roots only.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import instrument
from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.instrument import (
    FakeClock,
    Registry,
    RunLedger,
    RunStream,
    StreamFollower,
    Telemetry,
    read_stream,
    run_manifest,
)
from repro.instrument.analysis import (
    analyze,
    analyze_spans,
    compare,
    lane_stats,
    render_analysis,
    render_comparison,
)
from repro.instrument.exporters import load_chrome_trace, write_chrome_trace
from repro.instrument.registry import (
    WORKER_LANE_BASE,
    name_self_times,
    path_self_times,
)
from repro.instrument.monitor import (
    dashboard_exit_status,
    monitor_exit_status,
    render_dashboard,
)
from repro.instrument.store import RunEntry, git_revision


@pytest.fixture(autouse=True)
def _restore_nulls():
    yield
    instrument.disable()


def tiny_config(**kwargs):
    base = dict(
        box_size=64.0,
        n_per_dim=8,
        z_initial=25.0,
        z_final=10.0,
        n_steps=2,
        backend="pm",
        seed=5,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


def synthetic_registry() -> tuple[Registry, FakeClock]:
    """A registry with a known span tree.

    step (10s total) -> longrange (6s: fft 4s, self 2s) + self 4s
    """
    clock = FakeClock()
    reg = Registry(clock=clock)
    with reg.span("step"):
        with reg.span("longrange"):
            with reg.span("fft"):
                clock.advance(4.0)
            clock.advance(2.0)
        clock.advance(4.0)
    return reg, clock


# ----------------------------------------------------------------------
# critical-path arithmetic
# ----------------------------------------------------------------------
class TestSelfTimes:
    def test_self_is_total_minus_direct_children(self):
        reg, _ = synthetic_registry()
        by_path = path_self_times(reg.events)
        assert by_path["step"]["total_s"] == pytest.approx(10.0)
        assert by_path["step"]["self_s"] == pytest.approx(4.0)
        assert by_path["step/longrange"]["total_s"] == pytest.approx(6.0)
        assert by_path["step/longrange"]["self_s"] == pytest.approx(2.0)
        leaf = by_path["step/longrange/fft"]
        assert leaf["self_s"] == pytest.approx(leaf["total_s"]) == 4.0

    def test_only_direct_children_subtract(self):
        # grandchildren must not be double-subtracted from the root
        clock = FakeClock()
        reg = Registry(clock=clock)
        with reg.span("a"):
            with reg.span("b"):
                with reg.span("c"):
                    clock.advance(1.0)
                clock.advance(1.0)
            clock.advance(1.0)
        by_path = path_self_times(reg.events)
        assert by_path["a"]["self_s"] == pytest.approx(1.0)
        assert by_path["a/b"]["self_s"] == pytest.approx(1.0)

    def test_name_aggregation_merges_call_sites(self):
        clock = FakeClock()
        reg = Registry(clock=clock)
        for parent in ("x", "y"):
            with reg.span(parent):
                with reg.span("fft"):
                    clock.advance(2.0)
        by_name = name_self_times(reg.events)
        assert by_name["fft"]["self_s"] == pytest.approx(4.0)
        assert by_name["fft"]["calls"] == 2

    def test_analysis_wall_and_render(self):
        reg, _ = synthetic_registry()
        analysis = analyze_spans(reg.events, meta={"run_id": "t"})
        assert analysis.wall_s == pytest.approx(10.0)
        text = render_analysis(analysis)
        assert "step/longrange/fft" in text
        assert "run: t" in text


class TestLaneStats:
    def test_efficiency_and_critical_lane(self):
        # two worker lanes over one dispatch window [0, 4]:
        # lane 1000 busy 4s (critical), lane 1001 busy 2s
        spans = [
            instrument.SpanEvent("pp", "map/pp", 0.0, 4.0, 0,
                                 rank=WORKER_LANE_BASE),
            instrument.SpanEvent("pp", "map/pp", 0.0, 2.0, 0,
                                 rank=WORKER_LANE_BASE + 1),
        ]
        (stat,) = lane_stats(spans)
        assert stat.kind == "worker"
        assert stat.n_lanes == 2
        assert stat.efficiency == pytest.approx(6.0 / 8.0)
        assert stat.imbalance == pytest.approx(4.0 / 3.0)
        assert stat.critical_lane == WORKER_LANE_BASE
        assert stat.critical_share == pytest.approx(1.0)

    def test_span_excludes_idle_between_dispatches(self):
        # same phase dispatched at t=0 and t=100: the 96s of idle between
        # dispatches must not count against efficiency
        spans = [
            instrument.SpanEvent("pp", "pp", 0.0, 2.0, 0, rank=1),
            instrument.SpanEvent("pp", "pp", 100.0, 102.0, 0, rank=1),
        ]
        (stat,) = lane_stats(spans)
        assert stat.kind == "rank"
        assert stat.span_s == pytest.approx(4.0)
        assert stat.efficiency == pytest.approx(1.0)

    def test_lane_zero_not_attributable(self):
        spans = [instrument.SpanEvent("a", "a", 0.0, 1.0, 0, rank=0)]
        assert lane_stats(spans) == []

    def test_worker_lanes_stay_out_of_the_self_time_rows(self):
        """A threaded decomposed step: the span that dispatched the
        domains already holds the workers' seconds as its wait, so the
        rows and the Table II buckets close on ``step``; the worker lanes
        show in ``lanes`` only, and the buckets share the wait out as the
        lanes spent it."""
        from repro.instrument.report import bucket_seconds

        cfg = SimulationConfig.from_dict(dict(
            n_per_dim=24, box_size=64.0, z_initial=25.0, z_final=0.0,
            n_steps=1, n_subcycles=2, backend="treepm", executor="thread",
            workers=2, seed=1,
        ))
        sim = HACCSimulation(cfg, decomposition_dims=(2, 2, 1))
        reg = Registry()
        try:
            with instrument.use(reg):
                sim.run()
        finally:
            sim.close()
        assert any(ev.rank >= WORKER_LANE_BASE for ev in reg.events)
        analysis = analyze_spans(reg.events)
        step = path_self_times(reg.events)["step"]["total_s"]
        assert analysis.wall_s == step
        assert sum(p.self_s for p in analysis.phases) == pytest.approx(
            step, abs=1e-9)
        buckets = bucket_seconds(reg.events)
        assert sum(buckets.values()) == pytest.approx(step, abs=1e-9)
        # the dispatching span's wait is the domain solves' kernel and walk
        assert buckets["kernel"] > 0 and buckets["walk"] > 0
        assert "worker" in {ln.kind for ln in analysis.lanes}


# ----------------------------------------------------------------------
# satellite: Chrome-trace round trip feeds the analyzer losslessly
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def test_reparsed_trace_matches_registry_phase_totals(self, tmp_path):
        reg, clock = synthetic_registry()
        # add a per-rank lane and an executor worker lane
        with reg.span("pencil", rank=2):
            clock.advance(1.5)
        worker = WORKER_LANE_BASE + 1
        with reg.span("shortrange.domain", rank=worker):
            with reg.span("pp.batch", rank=worker):
                clock.advance(2.5)
        dest = tmp_path / "trace.json"
        write_chrome_trace(reg, dest)
        spans = load_chrome_trace(dest)["spans"]

        direct = analyze_spans(reg.events)
        reparsed = analyze_spans(spans)
        assert set(direct.by_name) == set(reparsed.by_name)
        for name, stat in direct.by_name.items():
            assert reparsed.by_name[name]["self_s"] == pytest.approx(
                stat["self_s"], abs=1e-9
            ), name
        # lane attribution survives too, including the worker/rank split
        assert [
            (ln.name, ln.kind, ln.n_lanes) for ln in reparsed.lanes
        ] == [(ln.name, ln.kind, ln.n_lanes) for ln in direct.lanes]


# ----------------------------------------------------------------------
# cross-run comparison
# ----------------------------------------------------------------------
def _analysis_with(phases: dict[str, float], wall: float):
    clock = FakeClock()
    reg = Registry(clock=clock)
    with reg.span("step"):
        for name, dt in phases.items():
            with reg.span(name):
                clock.advance(dt)
        clock.advance(max(0.0, wall - sum(phases.values())))
    return analyze_spans(reg.events)


class TestCompare:
    def test_major_regression_flips_verdict(self):
        a = _analysis_with({"fft": 5.0, "pp": 4.0}, 10.0)
        b = _analysis_with({"fft": 8.0, "pp": 4.0}, 13.0)
        cmp = compare(a, b, threshold=0.25)
        assert cmp.verdict == "REGRESSION"
        by_name = {d.name: d for d in cmp.phases}
        assert by_name["fft"].verdict == "REGRESSION"
        assert by_name["pp"].verdict == "OK"

    def test_minor_phase_regression_does_not_gate(self):
        # "tiny" blows up 10x but holds <10% of the baseline wall, and the
        # total wall stays flat: verdict must not be REGRESSION
        a = _analysis_with({"fft": 9.0, "tiny": 0.05}, 10.0)
        b = _analysis_with({"fft": 9.0, "tiny": 0.5}, 10.0)
        cmp = compare(a, b, threshold=0.25)
        assert cmp.verdict != "REGRESSION"

    def test_new_and_gone_phases(self):
        a = _analysis_with({"fft": 5.0, "old": 2.0}, 8.0)
        b = _analysis_with({"fft": 5.0, "fresh": 2.0}, 8.0)
        cmp = compare(a, b)
        by_name = {d.name: d for d in cmp.phases}
        assert by_name["fresh"].verdict == "NEW"
        assert by_name["old"].verdict == "GONE"
        text = render_comparison(cmp)
        assert "verdict" in text

    def test_improvement(self):
        a = _analysis_with({"fft": 8.0}, 10.0)
        b = _analysis_with({"fft": 4.0}, 6.0)
        assert compare(a, b).verdict == "IMPROVED"

    def test_to_dict_is_json_serializable(self):
        a = _analysis_with({"fft": 2.0}, 3.0)
        b = _analysis_with({"fft": 2.0}, 3.0)
        payload = json.loads(json.dumps(compare(a, b).to_dict()))
        assert payload["verdict"] == "OK"
        assert payload["phases"]


# ----------------------------------------------------------------------
# satellite: follower survives partial writes
# ----------------------------------------------------------------------
class TestStreamFollower:
    def test_partial_line_is_buffered_not_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        follower = StreamFollower(path)
        assert follower.poll() == []  # not created yet

        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "manifest", "config_hash": "c"}))
            fh.write("\n")
            fh.write('{"kind": "telemetry", "step"')  # torn mid-record
            fh.flush()
        recs = follower.poll()
        assert [r["kind"] for r in recs] == ["manifest"]
        assert follower.parse_errors == 0
        assert follower.data["steps"] == []

        with open(path, "a") as fh:
            fh.write(': 0, "wall_time": 1.0}\n')
        recs = follower.poll()
        assert [r["kind"] for r in recs] == ["telemetry"]
        assert follower.data["steps"][0]["wall_time"] == 1.0
        assert follower.parse_errors == 0

    def test_complete_corrupt_line_is_counted_and_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('not json at all\n{"kind": "end", "steps": 0}\n')
        follower = StreamFollower(path)
        recs = follower.poll()
        assert follower.parse_errors == 1
        assert [r["kind"] for r in recs] == ["end"]
        assert follower.finished

    def test_truncation_resets(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"kind": "telemetry", "step": 0, "wall_time": 1.0}\n' * 5
        )
        follower = StreamFollower(path)
        follower.poll()
        assert len(follower.data["steps"]) == 5
        path.write_text(
            '{"kind": "telemetry", "step": 0, "wall_time": 2.0}\n'
        )
        follower.poll()
        assert len(follower.data["steps"]) == 1
        assert follower.data["steps"][0]["wall_time"] == 2.0

    def test_idempotent_when_nothing_new(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "end", "steps": 1}\n')
        follower = StreamFollower(path)
        assert len(follower.poll()) == 1
        assert follower.poll() == []
        assert follower.data["end"]["steps"] == 1


# ----------------------------------------------------------------------
# satellite: a crashed driver still flushes an analyzable stream
# ----------------------------------------------------------------------
class TestCrashFlush:
    def test_crash_leaves_end_record_and_raises(self, tmp_path):
        stream_path = tmp_path / "crash.jsonl"
        sim = HACCSimulation(tiny_config(n_steps=5))
        real_step = sim.step
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("injected kaboom")
            real_step()

        sim.step = boom
        sim.telemetry = Telemetry(stream=RunStream(stream_path))
        other_path = tmp_path / "other.jsonl"
        other = HACCSimulation(tiny_config(n_steps=1))
        other.telemetry = Telemetry(stream=RunStream(other_path))
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()
        # the crash closes the crashed run's stream, no other run's
        assert not other.telemetry.stream.closed
        other.run()
        other.telemetry.finish(verdict="OK")
        assert read_stream(other_path)["end"]["verdict"] == "OK"
        data = read_stream(stream_path)
        assert data["end"] is not None
        assert data["end"]["verdict"] == "CRASHED"
        assert "kaboom" in data["end"]["error"]
        assert data["end"]["crashed_at_step"] == 2
        assert len(data["steps"]) == 2
        assert monitor_exit_status(data) == 2


# ----------------------------------------------------------------------
# run ledger
# ----------------------------------------------------------------------
def make_stream(path, config, n_steps=2, verdict="OK"):
    stream = RunStream(path, manifest=run_manifest(config))
    for i in range(n_steps):
        stream.append(
            {"kind": "telemetry", "step": i, "a": 0.5, "z": 1.0,
             "wall_time": 0.25}
        )
    stream.close(
        end={"steps": n_steps, "wall_time": 0.25 * n_steps,
             "alerts": 0, "verdict": verdict}
    )


class TestRunLedger:
    def test_record_and_query(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_REV", "deadbee")
        ledger = RunLedger(tmp_path / "ledger")
        cfg_a = tiny_config(seed=1)
        cfg_b = tiny_config(seed=2, backend="direct")
        sa = tmp_path / "a.jsonl"
        sb = tmp_path / "b.jsonl"
        make_stream(sa, cfg_a)
        make_stream(sb, cfg_b, verdict="WARN")

        reg, _ = synthetic_registry()
        ea = ledger.record(manifest=run_manifest(cfg_a), stream_path=sa,
                           registry=reg)
        eb = ledger.record(manifest=run_manifest(cfg_b), stream_path=sb)
        assert ea.run_id != eb.run_id
        assert ea.git_rev == "deadbee"
        assert ea.verdict == "OK" and eb.verdict == "WARN"
        assert ea.steps_completed == 2

        assert [e.run_id for e in ledger.entries()] == [
            ea.run_id, eb.run_id,
        ]
        assert [e.run_id for e in ledger.query(seed=1)] == [ea.run_id]
        assert [e.run_id for e in ledger.query(backend="direct")] == [
            eb.run_id,
        ]
        assert ledger.query(verdict="CRIT") == []

    def test_get_tokens(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        ids = []
        for seed in (1, 2, 3):
            cfg = tiny_config(seed=seed)
            path = tmp_path / f"s{seed}.jsonl"
            make_stream(path, cfg)
            ids.append(
                ledger.record(manifest=run_manifest(cfg),
                              stream_path=path).run_id
            )
        assert ledger.get("latest").run_id == ids[-1]
        assert ledger.get("latest~2").run_id == ids[0]
        assert ledger.get(ids[1]).run_id == ids[1]
        # unique run-id prefix resolves; a miss raises KeyError
        assert ledger.get(ids[0][:8]).run_id == ids[0]
        with pytest.raises(KeyError):
            ledger.get("no-such-run")
        with pytest.raises(KeyError):
            ledger.get("latest~9")

    def test_artifacts_and_analyze(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        cfg = tiny_config()
        path = tmp_path / "s.jsonl"
        make_stream(path, cfg)
        reg, _ = synthetic_registry()
        entry = ledger.record(manifest=run_manifest(cfg), stream_path=path,
                              registry=reg)
        assert ledger.load_stream(entry)["end"]["verdict"] == "OK"
        spans = ledger.load_trace(entry)["spans"]
        assert spans and any(ev.path == "step/longrange/fft"
                             for ev in spans)
        assert sorted(p.name for p in ledger.run_dir(entry).iterdir()) == [
            "entry.json", "manifest.json", "telemetry.jsonl", "trace.json",
        ]
        analysis = ledger.analyze(entry.run_id)
        assert analysis.by_name["fft"]["self_s"] == pytest.approx(4.0)
        assert analysis.meta["run_id"] == entry.run_id

    def test_gc_keeps_newest(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        ids = []
        for seed in (1, 2, 3):
            cfg = tiny_config(seed=seed)
            path = tmp_path / f"g{seed}.jsonl"
            make_stream(path, cfg)
            ids.append(
                ledger.record(manifest=run_manifest(cfg),
                              stream_path=path).run_id
            )
        removed = ledger.gc(keep_last=1)
        assert removed == ids[:2]
        remaining = ledger.entries()
        assert [e.run_id for e in remaining] == [ids[-1]]
        assert not (ledger.runs_dir / ids[0]).exists()
        # the compacted index still parses and queries
        assert ledger.get("latest").run_id == ids[-1]

    def test_corrupt_index_line_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        cfg = tiny_config()
        path = tmp_path / "c.jsonl"
        make_stream(path, cfg)
        entry = ledger.record(manifest=run_manifest(cfg), stream_path=path)
        with open(ledger.root / "index.jsonl", "a") as fh:
            fh.write("{torn line\n")
        assert [e.run_id for e in ledger.entries()] == [entry.run_id]

    def test_entry_dict_keys_and_order(self):
        """``to_dict`` is the index line's shape; ``from_dict`` reads it
        back and ignores keys that are no column."""
        entry = RunEntry(run_id="run-0001-abc", created_unix=1.0, seed=3,
                         artifacts={"trace": "trace.json"})
        rec = entry.to_dict()
        assert list(rec) == [
            "run_id", "created_unix", "config_hash", "seed", "backend",
            "executor", "workers", "kernel_backend", "precision",
            "n_steps", "n_particles", "git_rev", "verdict", "wall_s",
            "steps_completed", "alerts", "gflops", "artifacts", "extra",
        ]
        assert RunEntry.from_dict({**rec, "future": 1}) == entry
        assert RunEntry.from_dict({"run_id": "r"}).created_unix == 0.0
        with pytest.raises(ValueError):
            RunEntry.from_dict({"seed": 3})
        with pytest.raises(TypeError):
            RunLedger(".").query(no_such_column=1)

    def test_git_revision_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_REV", "cafef00")
        assert git_revision() == "cafef00"


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
class TestDashboard:
    def _data(self, verdict=None):
        end = (
            {"kind": "end", "steps": 2, "verdict": verdict}
            if verdict else None
        )
        return {
            "manifest": {"config_hash": "abc123", "n_steps": 2},
            "steps": [
                {"step": 0, "wall_time": 0.5, "z": 2.0},
                {"step": 1, "wall_time": 0.5, "z": 1.0},
            ],
            "end": end,
        }

    def test_render_rows_and_footer(self):
        text = render_dashboard(
            [("a", self._data("OK")), ("b", self._data())]
        )
        assert "a" in text and "b" in text
        assert "running" in text
        assert "1/2 run(s) finished" in text

    def test_exit_status_is_worst(self):
        runs = [("a", self._data("OK")), ("b", self._data("CRASHED"))]
        assert dashboard_exit_status(runs) == 2
        assert dashboard_exit_status([("a", self._data("OK"))]) == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCLI:
    def _ledgered_pair(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_GIT_REV", "feedbee")
        root = tmp_path / "ledger"
        for seed in (1, 2):
            assert main([
                "-q", "run", "--profile", "--steps", "1",
                "--n-per-dim", "8",
                "--backend", "pm", "--subcycles", "1",
                "--telemetry", str(tmp_path / f"r{seed}.jsonl"),
                "--ledger", str(root),
            ]) == 0
        return root

    def test_run_ledger_runs_report(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        root = self._ledgered_pair(tmp_path, monkeypatch)
        capsys.readouterr()  # drop the profile tables
        assert main(["runs", "list", "--ledger", str(root),
                     "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 2
        assert all(e["git_rev"] == "feedbee" for e in entries)

        assert main(["report", "latest", "--ledger", str(root)]) == 0
        assert "phase" in capsys.readouterr().out

        assert main(["report", "--compare", "latest~1", "latest",
                     "--ledger", str(root), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] in ("OK", "IMPROVED", "REGRESSION")
        assert rep["phases"]

    def test_report_prints_the_ledgered_analysis(
        self, tmp_path, monkeypatch, capsys
    ):
        """``report RUN [--json]`` is the one reader of a ledgered run:
        it prints the stored run's critical-path analysis, as the
        retired ``runs show RUN [--json]`` did."""
        from repro.__main__ import main
        from repro.instrument import RunLedger, render_analysis

        root = self._ledgered_pair(tmp_path, monkeypatch)
        ledger = RunLedger(root)
        analysis = ledger.analyze(ledger.get("latest~1"))
        capsys.readouterr()
        assert main(["report", "latest~1", "--ledger", str(root)]) == 0
        assert capsys.readouterr().out == render_analysis(analysis) + "\n"
        assert main(["report", "latest~1", "--ledger", str(root),
                     "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(
            analysis.to_dict(), indent=2, sort_keys=True
        ) + "\n"

    def test_reloaded_trace_reproduces_live_figures(
        self, tmp_path, monkeypatch, capsys
    ):
        """One ``run --profile --trace T --ledger L``: the self-time
        rows, roofline phases and ``gflops`` computed live equal what
        ``report`` and ``report --roofline`` compute from the ledgered
        trace, within the microsecond float round trip."""
        from repro.__main__ import main
        from repro.instrument import (
            NullRegistry,
            achieved_gflops,
            get_registry,
            roofline_table,
            use,
        )
        from repro.machine.calibrate import calibrate

        root = tmp_path / "ledger"
        # a small cached calibration, read back by 'report --roofline'
        cal = calibrate(root=root, matmul_n=64, stream_n=20000)
        with use(NullRegistry()):
            assert main([
                "-q", "run", "--profile", "--steps", "2",
                "--n-per-dim", "8", "--backend", "treepm",
                "--trace", str(tmp_path / "T.json"),
                "--ledger", str(root),
            ]) == 0
            live = get_registry()
        profile = capsys.readouterr().out

        ledger = RunLedger(root)
        entry = ledger.get("latest")
        live_rows = analyze_spans(live.events).phases
        stored_rows = ledger.analyze(entry).phases
        assert [p.path for p in live_rows] == [p.path for p in stored_rows]
        for a, b in zip(live_rows, stored_rows):
            assert a.calls == b.calls
            assert a.self_s == pytest.approx(b.self_s, abs=1e-9)
            assert a.total_s == pytest.approx(b.total_s, abs=1e-9)
        assert main(["report", "latest", "--ledger", str(root)]) == 0
        report = capsys.readouterr().out

        def rows(text: str) -> str:
            return text.split("phase (by path)")[1].split("\n\n")[0].strip()

        assert rows(profile) == rows(report)

        assert main(["report", "--roofline", "--ledger", str(root),
                     "--json"]) == 0
        stored = json.loads(capsys.readouterr().out)
        live_table = roofline_table(live.events, live.counters, cal)
        assert [r["name"] for r in stored["phases"]] == [
            r["name"] for r in live_table["phases"]
        ] == ["shortrange", "cic", "fft"]
        for a, b in zip(live_table["phases"] + [live_table["total"]],
                        stored["phases"] + [stored["total"]]):
            assert (a["flops"], a["bytes"]) == (b["flops"], b["bytes"])
            assert a["seconds"] == pytest.approx(b["seconds"], abs=1e-9)
            assert a["gflops"] == pytest.approx(b["gflops"], rel=1e-9)
        assert entry.gflops == pytest.approx(
            achieved_gflops(live.events, live.counters), rel=1e-9
        )

    #: (column, entry A's value, entry B's value) of every ``runs``
    #: filter; A and B differ in each
    FILTERS = [
        ("config_hash", "aaaa11112222", "bbbb33334444"),
        ("seed", 1, 2),
        ("backend", "treepm", "pm"),
        ("executor", "serial", "thread"),
        ("workers", 1, 2),
        ("kernel_backend", "c", "numpy"),
        ("precision", "f64", "f32"),
        ("git_rev", "aaaaaaa", "bbbbbbb"),
        ("verdict", "OK", "WARN"),
    ]

    def test_runs_keeps_its_nine_filters(self):
        from repro.__main__ import _RUN_FILTERS

        assert [c for c, _, _ in _RUN_FILTERS] == [
            c for c, _, _ in self.FILTERS
        ]

    @pytest.mark.parametrize("column", [c for c, _, _ in FILTERS])
    def test_runs_filter_selects_the_matching_entry(
        self, tmp_path, capsys, column
    ):
        from repro.__main__ import main

        ledger = RunLedger(tmp_path / "ledger")
        entries = [
            RunEntry(run_id=f"run-000{i}-{side}", created_unix=float(i),
                     **{c: values[i - 1] for c, *values in self.FILTERS})
            for i, side in ((1, "a"), (2, "b"))
        ]
        for entry in entries:
            ledger._append_index(entry)
        flag = "--" + column.replace("_", "-")
        for entry in entries:
            assert main(["runs", "list", "--ledger", str(ledger.root), flag,
                         str(getattr(entry, column)), "--json"]) == 0
            listed = json.loads(capsys.readouterr().out)
            assert [e["run_id"] for e in listed] == [entry.run_id]

    def test_entry_with_a_bench_dir_still_reads(self, tmp_path, capsys):
        """An index line written with ``artifacts.bench`` and a run dir
        holding ``bench/`` lists, filters, reports and is pruned."""
        from repro.__main__ import main

        ledger = RunLedger(tmp_path / "ledger")
        cfg = tiny_config(seed=5)
        make_stream(tmp_path / "old.jsonl", cfg)
        reg, _ = synthetic_registry()
        old = ledger.record(manifest=run_manifest(cfg),
                            stream_path=tmp_path / "old.jsonl",
                            registry=reg)
        rec = old.to_dict()
        rec["artifacts"]["bench"] = "bench"
        ledger.index_path.write_text(json.dumps(rec) + "\n")
        bench = ledger.run_dir(old) / "bench"
        bench.mkdir()
        (bench / "BENCH_nightly.json").write_text(
            json.dumps({"name": "nightly", "payload": {"n_steps": 2}})
        )
        root = str(ledger.root)
        for argv in (["runs", "list"], ["runs", "list", "--seed", "5"]):
            assert main(argv + ["--ledger", root, "--json"]) == 0
            listed = json.loads(capsys.readouterr().out)
            assert [e["run_id"] for e in listed] == [old.run_id]
            assert listed[0]["artifacts"]["bench"] == "bench"
        assert main(["report", old.run_id, "--ledger", root]) == 0
        assert "fft" in capsys.readouterr().out

        make_stream(tmp_path / "new.jsonl", tiny_config(seed=6))
        new = ledger.record(stream_path=tmp_path / "new.jsonl")
        assert main(["runs", "gc", "--keep-last", "1",
                     "--ledger", root]) == 0
        assert old.run_id in capsys.readouterr().out
        assert not ledger.run_dir(old).exists()
        assert [e.run_id for e in ledger.entries()] == [new.run_id]

    def test_runs_gc_cli(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        root = self._ledgered_pair(tmp_path, monkeypatch)
        assert main(["runs", "gc", "--keep-last", "1", "--ledger",
                     str(root)]) == 0
        assert "removed 1 run(s)" in capsys.readouterr().out

    def test_monitor_multi_stream_dashboard(self, tmp_path, capsys):
        from repro.__main__ import main

        for name in ("a", "b"):
            make_stream(tmp_path / f"{name}.jsonl", tiny_config())
        assert main(["monitor", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "2/2 run(s) finished" in out

    def test_report_on_raw_stream_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "raw.jsonl"
        make_stream(path, tiny_config())
        assert main(["report", str(path)]) == 0
        assert "wall" in capsys.readouterr().out
