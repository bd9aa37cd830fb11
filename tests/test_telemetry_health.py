"""Tests for per-rank telemetry, physics health monitors, and the run
monitor CLI (repro.instrument.telemetry / health / monitor).

Health-threshold crossings are driven with synthetic value series so the
WARN/CRIT logic is exercised deterministically; the simulation-facing
tests use tiny seeded runs and assert structure (which gauges exist,
stream record kinds, exit statuses), not timing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.instrument import (
    HealthMonitor,
    HealthThresholds,
    RunStream,
    Telemetry,
    Threshold,
    imbalance_factor,
    read_stream,
    run_manifest,
    sparkline,
)
from repro.instrument.health import worst_severity
from repro.instrument.monitor import (
    monitor_exit_status,
    pick_imbalance_series,
    render_monitor,
)


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


# ----------------------------------------------------------------------
# imbalance + sparkline helpers
# ----------------------------------------------------------------------
class TestImbalanceFactor:
    def test_balanced_is_one(self):
        assert imbalance_factor([4, 4, 4, 4]) == 1.0

    def test_max_over_mean(self):
        # mean 2, max 4
        assert imbalance_factor([1, 1, 2, 4]) == 2.0

    def test_empty_is_zero(self):
        assert imbalance_factor([]) == 0.0

    def test_all_zero_is_one(self):
        assert imbalance_factor([0, 0]) == 1.0


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp_is_nondecreasing(self):
        s = sparkline([1, 2, 3, 4, 5])
        assert len(s) == 5
        assert list(s) == sorted(s)

    def test_constant_renders_lowest_level(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_nan_renders_blank(self):
        assert " " in sparkline([1.0, float("nan"), 2.0])


# ----------------------------------------------------------------------
# Telemetry collection
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_gauge_set_and_accumulate(self):
        tel = Telemetry()
        tel.gauge("particles", 0, 10)
        tel.gauge("particles", 0, 12)  # set semantics: overwrite
        tel.add_gauge("interactions", 0, 5)
        tel.add_gauge("interactions", 0, 7)  # add semantics: accumulate
        step = tel.record_step(0, 0.5, 1.0)
        assert step.gauges["particles"][0] == 12
        assert step.gauges["interactions"][0] == 12

    def test_record_step_clears_pending(self):
        tel = Telemetry()
        tel.gauge("particles", 0, 1)
        tel.record_step(0, 0.5, 1.0)
        step2 = tel.record_step(1, 0.6, 1.0)
        assert step2.gauges == {}

    def test_imbalance_per_step(self):
        tel = Telemetry()
        tel.gauge("particles", 0, 1)
        tel.gauge("particles", 1, 3)
        assert tel.peek_imbalance() == {"particles": 1.5}
        step = tel.record_step(0, 0.5, 1.0)
        assert step.imbalance["particles"] == 1.5
        assert tel.steps == [step]

    def test_step_redshift(self):
        tel = Telemetry()
        step = tel.record_step(0, 0.25, 1.0)
        assert step.z == pytest.approx(3.0)

    def test_alerts_and_residuals_recorded(self):
        tel = Telemetry()
        step = tel.record_step(
            3, 0.9, 2.0,
            residuals={"energy_residual": 0.01},
            alerts=[{"severity": "WARN", "check": "energy_residual"}],
        )
        d = step.to_dict()
        assert d["step"] == 3
        assert d["residuals"]["energy_residual"] == 0.01
        assert d["alerts"][0]["severity"] == "WARN"

    def test_summary(self, tmp_path):
        """The run summary is the stream's ``end`` record."""
        path = tmp_path / "run.jsonl"
        tel = Telemetry(RunStream(path))
        tel.gauge("particles", 0, 2)
        tel.record_step(0, 0.5, 1.5, alerts=[{"severity": "WARN"}])
        tel.finish(verdict="OK")
        end = read_stream(path)["end"]
        assert end["steps"] == 1
        assert end["alerts"] == 1
        assert end["wall_time"] == 1.5
        assert end["verdict"] == "OK"


class TestNullTelemetry:
    """No telemetry unless the run sets ``sim.telemetry``."""

    def test_disabled_is_default(self):
        assert HACCSimulation(tiny_config(n_steps=1)).telemetry is None

    def test_disabled_sim_records_nothing(self, monkeypatch):
        def record_step(*args, **kwargs):
            raise AssertionError("a sim without telemetry recorded a step")

        monkeypatch.setattr(Telemetry, "record_step", record_step)
        sim = HACCSimulation(tiny_config(n_steps=1))
        sim.run()
        assert sim.telemetry is None

    def test_two_sims_keep_separate_telemetry(self, tmp_path):
        """Interleave the steps of sim A (stream, 2 ranks) and sim B (no
        telemetry, 4 ranks): A's stream holds exactly A's steps and
        A's gauges, and B records nothing."""
        cfg = tiny_config(
            backend="treepm", n_steps=2, leaf_size=16, grid_size=16,
        )
        path = tmp_path / "a.jsonl"
        sim_a = HACCSimulation(
            cfg, decomposition_dims=(2, 1, 1), overload_depth=14.0
        )
        sim_a.telemetry = Telemetry(RunStream(path))
        sim_b = HACCSimulation(
            cfg, decomposition_dims=(2, 2, 1), overload_depth=14.0
        )
        for _ in range(cfg.n_steps):
            sim_b.step()
            sim_a.step()
        sim_a.telemetry.finish(verdict="OK")
        assert sim_b.telemetry is None
        data = read_stream(path)
        assert [s["step"] for s in data["steps"]] == [0, 1]
        assert data["end"]["steps"] == 2
        for rec in data["steps"]:
            for gauge in ("particles", "ghosts", "interactions"):
                assert set(rec["gauges"][gauge]) == {"0", "1"}, gauge
            assert sum(rec["gauges"]["particles"].values()) == (
                sim_a.particles.n
            )


# ----------------------------------------------------------------------
# run streams
# ----------------------------------------------------------------------
class TestRunStream:
    def test_manifest_then_steps_then_end(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stream = RunStream(path, manifest={"config_hash": "abc"})
        tel = Telemetry(stream=stream)
        tel.gauge("particles", 0, 5)
        tel.record_step(0, 0.5, 1.0)
        tel.finish(verdict="OK")
        data = read_stream(path)
        assert data["manifest"]["config_hash"] == "abc"
        assert len(data["steps"]) == 1
        assert data["steps"][0]["gauges"]["particles"]["0"] == 5.0
        assert data["end"]["verdict"] == "OK"
        assert data["end"]["steps"] == 1

    def test_lines_flushed_immediately(self, tmp_path):
        """A live monitor must see steps before the stream is closed."""
        path = tmp_path / "run.jsonl"
        stream = RunStream(path)
        stream.append({"step": 0})
        live = read_stream(path)
        assert len(live["steps"]) == 1
        assert live["end"] is None
        stream.close()

    def test_partial_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"kind": "telemetry", "step": 0}) + "\n"
            + '{"kind": "telem'  # writer mid-line
        )
        assert len(read_stream(path)["steps"]) == 1

    def test_append_after_close_raises(self, tmp_path):
        stream = RunStream(tmp_path / "run.jsonl")
        stream.close()
        with pytest.raises(ValueError):
            stream.append({"step": 0})

    def test_manifest_contents(self):
        cfg = tiny_config()
        man = run_manifest(cfg)
        assert man["config_hash"] == cfg.config_hash()
        assert man["seed"] == cfg.seed
        assert man["n_steps"] == cfg.n_steps
        assert man["numpy"] == np.__version__
        assert man["config"]["box_size"] == cfg.box_size

    @pytest.mark.parametrize("kwargs,tail", [
        ({}, '{"config_hash": "9719ee55672c", "seed": 5, "n_steps": 2, '
             '"n_particles": 512, "backend": "pm", "executor": "serial", '
             '"workers": 1, "kernel_backend": "auto", "precision": "f64"}'),
        ({"backend": "treepm", "dtype": "f32", "kernel_backend": "numpy",
          "executor": "thread", "workers": 2},
         '{"config_hash": "e8d3a3d84d93", "seed": 5, "n_steps": 2, '
         '"n_particles": 512, "backend": "treepm", "executor": "thread", '
         '"workers": 2, "kernel_backend": "numpy", "precision": "f32"}'),
    ])
    def test_manifest_identity_bytes_are_pinned(self, kwargs, tail):
        """The ledger identity columns come from ``store.IDENTITY`` and
        the config attributes of the same names; the manifest's keys,
        their order and the identity values (so its JSON bytes, and the
        run id drawn from the hash) are those the hand mapping wrote."""
        from repro.instrument.store import IDENTITY

        man = run_manifest(tiny_config(**kwargs))
        keys = list(man)
        assert keys == ["repro_version", "python", "numpy", "created_unix",
                        "scipy", "git_rev", "config", *json.loads(tail)]
        assert json.dumps({k: man[k] for k in keys[7:]}) == tail
        assert set(IDENTITY) <= set(keys)

    def test_config_hash_stable_and_sensitive(self):
        cfg = tiny_config()
        assert cfg.config_hash() == tiny_config().config_hash()
        assert cfg.config_hash() != cfg.with_(seed=6).config_hash()


# ----------------------------------------------------------------------
# health thresholds + monitor
# ----------------------------------------------------------------------
class TestThreshold:
    def test_severity_bands(self):
        th = Threshold(warn=1.0, crit=10.0)
        assert th.severity(0.5) == "OK"
        assert th.severity(1.0) == "WARN"
        assert th.severity(10.0) == "CRIT"

    def test_nan_is_crit(self):
        assert Threshold(1.0, 2.0).severity(float("nan")) == "CRIT"

    def test_warn_above_crit_rejected(self):
        with pytest.raises(ValueError):
            Threshold(warn=2.0, crit=1.0)

    def test_with_accepts_tuples(self):
        ths = HealthThresholds().with_(energy_residual=(0.1, 0.2))
        assert ths.energy_residual == Threshold(0.1, 0.2)

    def test_worst_severity(self):
        assert worst_severity([]) == "OK"
        assert worst_severity(["OK", "WARN"]) == "WARN"
        assert worst_severity(["WARN", "CRIT", "OK"]) == "CRIT"


class TestHealthMonitor:
    def test_ok_run_has_no_events(self):
        mon = HealthMonitor()
        assert mon.check(0, {"energy_residual": 0.01}) == []
        assert mon.verdict() == "OK"
        assert mon.exit_status() == 0

    def test_warn_then_crit_crossing(self):
        """A drifting series crosses WARN then CRIT deterministically."""
        mon = HealthMonitor(
            HealthThresholds().with_(energy_residual=(0.1, 1.0))
        )
        series = [0.05, 0.2, 0.5, 2.0]
        events = [
            ev for i, v in enumerate(series)
            for ev in mon.check(i, {"energy_residual": v})
        ]
        assert [e.severity for e in events] == ["WARN", "WARN", "CRIT"]
        assert events[-1].step == 3
        assert mon.verdict() == "CRIT"
        assert mon.exit_status() == 2

    def test_unthresholded_values_never_alert(self):
        mon = HealthMonitor()
        assert mon.check(0, {"custom_metric": 1e9}) == []
        assert mon.last_values["custom_metric"] == 1e9

    def test_event_message_names_check_and_step(self):
        mon = HealthMonitor(HealthThresholds().with_(imbalance=(1.1, 2.0)))
        (ev,) = mon.check(7, {"imbalance": 1.5})
        assert "imbalance" in ev.message
        assert "step 7" in ev.message
        assert ev.threshold == 1.1

    def test_summary(self):
        mon = HealthMonitor(HealthThresholds().with_(imbalance=(1.1, 2.0)))
        mon.check(0, {"imbalance": 1.5})
        mon.check(1, {"imbalance": 3.0})
        s = mon.summary()
        assert s == {
            "verdict": "CRIT",
            "warnings": 1,
            "criticals": 1,
            "last_values": {"imbalance": 3.0},
        }


# ----------------------------------------------------------------------
# simulation wiring
# ----------------------------------------------------------------------
class TestSimulationHealth:
    def test_healthy_run_verdict(self):
        sim = HACCSimulation(tiny_config())
        sim.attach_health()
        sim.run()
        vals = sim.health.monitor.last_values
        # precision invariants are machine-level on a healthy run
        assert vals["momentum_drift"] < 1e-10
        assert vals["mass_error"] < 1e-10
        assert vals["fft_roundtrip"] < 1e-12
        assert sim.health.exit_status() == 0

    def test_artificially_low_threshold_goes_crit(self):
        """The acceptance scenario: tiny CRIT level -> CRIT + exit 2."""
        sim = HACCSimulation(tiny_config())
        sim.attach_health(
            thresholds=HealthThresholds().with_(
                energy_residual=(1e-9, 1e-9)
            )
        )
        sim.run()
        assert sim.health.verdict() == "CRIT"
        assert sim.health.exit_status() == 2
        assert any(
            e.check == "energy_residual" and e.severity == "CRIT"
            for e in sim.health.monitor.events
        )

    def test_attach_after_stepping_rejected(self):
        sim = HACCSimulation(tiny_config())
        sim.step()
        with pytest.raises(RuntimeError):
            sim.attach_health()

    def test_health_without_telemetry(self):
        """Health monitoring works with telemetry disabled."""
        sim = HACCSimulation(tiny_config(n_steps=1))
        sim.attach_health()
        sim.run()
        assert sim.telemetry is None
        assert len(sim.health.monitor.last_values) == 4


class TestDriverTelemetry:
    def _run_overloaded(self, stream=None):
        # grid_size=16: rcut = 12 Mpc/h, inside the 14 Mpc/h overload shell
        cfg = tiny_config(
            backend="treepm", n_steps=2, n_subcycles=2, leaf_size=16,
            grid_size=16,
        )
        sim = HACCSimulation(
            cfg, decomposition_dims=(2, 1, 1), overload_depth=14.0
        )
        sim.telemetry = tel = Telemetry(stream)
        sim.attach_health()
        sim.run()
        return sim, tel

    def test_per_rank_gauges_present(self):
        sim, tel = self._run_overloaded()
        assert len(tel.steps) == 2
        step = tel.steps[0]
        for gauge in (
            "particles", "ghosts", "ghost_fraction",
            "interactions", "tree_depth", "comm_bytes",
        ):
            assert set(step.gauges[gauge]) == {0, 1}, gauge
        # every particle is active on exactly one rank
        assert sum(step.gauges["particles"].values()) == sim.particles.n
        assert step.imbalance["particles"] >= 1.0

    def test_wall_time_and_residuals_recorded(self):
        _, tel = self._run_overloaded()
        step = tel.steps[-1]
        assert step.wall_time > 0
        assert "energy_residual" in step.residuals
        assert "momentum_drift" in step.residuals

    def test_comm_bytes_are_per_step_deltas(self):
        _, tel = self._run_overloaded()
        # distribute runs once per force evaluation; later steps must not
        # re-report the cumulative totals of earlier ones
        s0 = sum(tel.steps[0].gauges["comm_bytes"].values())
        s1 = sum(tel.steps[1].gauges["comm_bytes"].values())
        assert s0 > 0
        assert s1 < 2 * s0

    def test_stream_written_during_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        cfg = tiny_config(n_steps=2)
        stream = RunStream(path, manifest=run_manifest(cfg))
        sim = HACCSimulation(cfg)
        sim.telemetry = Telemetry(stream)
        sim.run()
        sim.telemetry.finish(verdict="OK")
        data = read_stream(path)
        assert data["manifest"]["config_hash"] == cfg.config_hash()
        assert len(data["steps"]) == 2
        assert data["end"]["verdict"] == "OK"


def _corner_cluster_sim(box, n, grid, scale, dims, tmp_path=None, **kw):
    """A decomposed treepm sim whose particles all sit in one corner
    (positions scaled by ``scale``): ranks far from the corner hold no
    actives, some hold no particles at all."""
    from repro.core.particles import Particles
    from repro.cosmology.initial_conditions import make_initial_conditions

    cfg = tiny_config(
        box_size=box, n_per_dim=n, grid_size=grid, backend="treepm",
        n_steps=1, **kw,
    )
    ics = make_initial_conditions(
        cfg.cosmology, n_per_dim=n, box_size=box, z_init=cfg.z_initial,
        seed=cfg.seed,
    )
    particles = Particles.from_ics(ics)
    particles.positions *= scale
    particles.wrap()
    sim = HACCSimulation(cfg, particles=particles, decomposition_dims=dims)
    stream = None if tmp_path is None else RunStream(tmp_path / "c.jsonl")
    sim.telemetry = Telemetry(stream)
    return sim


class TestEmptyDomains:
    """Domains without actives (or without any particle) still give a
    strict-JSON stream and executor-independent gauges."""

    def test_stream_is_strict_json_without_actives(self, tmp_path):
        sim = _corner_cluster_sim(100.0, 8, 24, 0.3, (2, 2, 2), tmp_path)
        sim._short_range(sim.particles.positions)
        domains = sim.exchange.distribute(
            sim.particles.positions, sim.particles.momenta,
            sim.particles.masses, sim.particles.ids,
        )
        assert any(d.n_active == 0 and d.n_total > 0 for d in domains)
        sim.telemetry.record_step(0, sim.a, 0.0)
        sim.telemetry.finish(verdict="OK")

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        (step,) = [r for r in records if r["kind"] == "telemetry"]
        assert step["imbalance"]
        assert all(np.isfinite(v) for v in step["imbalance"].values())
        ranks = {str(d.rank) for d in domains if d.n_active}
        assert set(step["gauges"]["ghost_fraction"]) == ranks

    def test_serial_and_threaded_gauges_agree(self):
        gauges = {}
        for workers, executor in ((1, "serial"), (2, "thread")):
            sim = _corner_cluster_sim(
                200.0, 8, 32, 0.1, (3, 3, 1),
                workers=workers, executor=executor,
            )
            with sim:
                sim._short_range(sim.particles.positions)
            step = sim.telemetry.record_step(0, sim.a, 0.0)
            gauges[executor] = (step.gauges, step.imbalance)
        serial, threaded = gauges["serial"], gauges["thread"]
        # five of the nine domains hold no particle at all
        g = serial[0]
        empty = [
            r for r in g["particles"]
            if g["particles"][r] + g["ghosts"][r] == 0
        ]
        assert len(empty) == 5
        assert set(g["interactions"]) == set(range(9))
        assert serial == threaded


# ----------------------------------------------------------------------
# monitor rendering
# ----------------------------------------------------------------------
def synthetic_stream(n_steps=4, total=8, with_end=False, crit=False):
    steps = []
    for i in range(n_steps):
        alerts = []
        if crit and i == n_steps - 1:
            alerts.append({
                "severity": "CRIT", "check": "energy_residual",
                "message": "energy_residual blew up",
            })
        steps.append({
            "kind": "telemetry", "step": i, "a": 0.1 + 0.1 * i,
            "z": 1.0 / (0.1 + 0.1 * i) - 1.0, "wall_time": 2.0,
            "gauges": {"particles": {"0": 10, "1": 14}},
            "imbalance": {"particles": 1.0 + 0.05 * i},
            "residuals": {"energy_residual": 0.01 * (i + 1)},
            "alerts": alerts,
        })
    return {
        "manifest": {
            "kind": "manifest", "config_hash": "deadbeef", "n_steps": total,
            "backend": "treepm", "n_particles": 4096, "seed": 1,
        },
        "steps": steps,
        "end": (
            {"kind": "end", "steps": n_steps,
             "verdict": "CRIT" if crit else "OK"}
            if with_end else None
        ),
    }


class TestRenderMonitor:
    def test_progress_and_eta(self):
        text = render_monitor(synthetic_stream(n_steps=4, total=8))
        assert "step 4/8 (50%)" in text
        # 4 steps x 2 s done -> 8 s for the remaining 4
        assert "ETA 8.0s" in text
        assert "running..." in text

    def test_identity_line(self):
        text = render_monitor(synthetic_stream())
        assert "run deadbeef" in text
        assert "treepm" in text
        assert "4,096 particles" in text

    def test_imbalance_sparkline_and_residuals(self):
        text = render_monitor(synthetic_stream())
        assert "imbalance" in text
        assert "particles max/mean 1.15" in text
        assert "energy_residual 4.00e-02" in text

    def test_alerts_rendered(self):
        text = render_monitor(synthetic_stream(crit=True))
        assert "0 WARN, 1 CRIT" in text
        assert "energy_residual blew up" in text

    def test_finished_verdict(self):
        text = render_monitor(
            synthetic_stream(n_steps=8, total=8, with_end=True)
        )
        assert "finished: 8 steps, verdict OK" in text
        assert "ETA" not in text

    def test_empty_stream(self):
        text = render_monitor({"manifest": None, "steps": [], "end": None})
        assert "waiting for first step" in text

    def test_exit_status(self):
        assert monitor_exit_status(synthetic_stream()) == 0
        assert monitor_exit_status(synthetic_stream(crit=True)) == 2
        assert monitor_exit_status(
            synthetic_stream(with_end=True, crit=True)
        ) == 2

    def test_pick_imbalance_prefers_particles(self):
        steps = [{
            "imbalance": {"comm_bytes": 2.0, "particles": 1.2},
        }]
        name, series = pick_imbalance_series(steps)
        assert name == "particles"
        assert series == [1.2]

    def test_pick_imbalance_empty(self):
        assert pick_imbalance_series([]) == ("", [])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_monitor_renders_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "run.jsonl"
        stream = RunStream(path, manifest={"config_hash": "abc", "n_steps": 1})
        tel = Telemetry(stream=stream)
        tel.record_step(0, 0.5, 1.0)
        tel.finish(verdict="OK")
        assert main(["monitor", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run abc" in out
        assert "verdict OK" in out

    def test_monitor_crit_stream_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "run.jsonl"
        stream = RunStream(path)
        tel = Telemetry(stream=stream)
        tel.record_step(
            0, 0.5, 1.0,
            alerts=[{"severity": "CRIT", "check": "energy_residual",
                     "message": "boom"}],
        )
        tel.finish(verdict="CRIT")
        assert main(["monitor", str(path)]) == 2

    @pytest.mark.slow
    def test_run_telemetry_health_end_to_end(self, tmp_path, capsys):
        """run --telemetry --health-energy-crit: stream + exit status."""
        from repro.__main__ import main

        path = tmp_path / "run.jsonl"
        rc = main([
            "-q", "run", "--steps", "2", "--n-per-dim", "8",
            "--backend", "pm", "--telemetry", str(path),
            "--health-energy-crit", "1e-9",
        ])
        assert rc == 2
        data = read_stream(path)
        assert len(data["steps"]) == 2
        assert data["end"]["verdict"] == "CRIT"
        assert any(
            al["severity"] == "CRIT"
            for s in data["steps"] for al in s["alerts"]
        )
        # the same stream drives the monitor to the same conclusion
        assert main(["monitor", str(path)]) == 2
