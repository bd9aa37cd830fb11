"""Tests for the fault-tolerance subsystem (``repro.resilience``).

Covers the fault-injection plan, the campaign backoff policy,
replica-based rank recovery, the plan handed to each run, and — under
the ``chaos`` marker — the driver-level failure scenarios: rank death
mid-run (recovered and not), short-range stragglers, and the full
kill-a-rank / corrupt-a-checkpoint / auto-resume story with a
power-spectrum closeness assertion against a fault-free run.

The chaos lane runs with a fixed seed (``REPRO_CHAOS_SEED``, default
2012) so every injected failure is replayable.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.campaign.supervisor import RetryPolicy
from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.instrument.registry import disable as disable_registry
from repro.instrument.registry import enable as enable_registry
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.overload import OverloadExchange
from repro.resilience import (
    FaultPlan,
    NullFaultPlan,
    harvest_replicas,
    recover_ranks,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2012"))

BOX = 64.0
DIMS = (2, 1, 1)
DEPTH = 14.0


def tiny_config(n_steps: int = 4, **overrides) -> SimulationConfig:
    base = dict(
        box_size=BOX,
        n_per_dim=8,
        # a 16^3 PM grid puts the cutoff at 12 Mpc/h, inside the overload
        # shell: rcut <= DEPTH < half the 32 Mpc/h domain width
        grid_size=16,
        z_initial=20.0,
        z_final=5.0,
        n_steps=n_steps,
        n_subcycles=2,
        backend="treepm",
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_null_plan_is_inert(self):
        plan = NullFaultPlan()
        assert not plan.enabled
        assert plan.ranks_to_kill() == frozenset()
        assert plan.checkpoint_fault() is None
        assert plan.summary()["enabled"] is False

    def test_default_active_plan_is_null(self):
        sim = HACCSimulation(tiny_config(n_steps=1, backend="pm"))
        assert isinstance(sim.faults, NullFaultPlan)

    def test_rank_death_is_one_shot_per_step(self):
        plan = FaultPlan().with_rank_death(step=3, rank=1)
        plan.begin_step(2)
        assert plan.ranks_to_kill() == frozenset()
        plan.begin_step(3)
        assert plan.ranks_to_kill() == frozenset({1})
        assert plan.ranks_to_kill() == frozenset()  # consumed
        assert plan.injected["rank_death"] == 1

    def test_checkpoint_fault_targets_nth_write(self):
        plan = FaultPlan().with_checkpoint_corruption(
            write_index=1, mode="bitflip", offset=40
        )
        assert plan.checkpoint_fault() is None          # write 0
        spec = plan.checkpoint_fault()                   # write 1
        assert spec == {"mode": "bitflip", "offset": 40}
        assert plan.checkpoint_fault() is None           # write 2

    def test_checkpoint_fault_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            FaultPlan().with_checkpoint_corruption(mode="melt")

    def test_summary_folds_injected_and_recovered(self):
        plan = FaultPlan(seed=9).with_rank_death(step=0, rank=1)
        plan.begin_step(0)
        assert plan.ranks_to_kill() == frozenset({1})
        plan.note_recovery("rank_death")
        s = plan.summary()
        assert s["faults_injected"] == 1
        assert s["faults_recovered"] == 1
        assert s["injected"] == {"rank_death": 1}
        assert s["recovered"] == {"rank_death": 1}

    def test_injections_counted_in_registry(self):
        reg = enable_registry()
        try:
            plan = FaultPlan(seed=0).with_rank_death(step=0, rank=1)
            plan.begin_step(0)
            assert plan.ranks_to_kill() == frozenset({1})
            plan.note_recovery("rank_death")
            assert reg.counters.get("faults.rank_death", 0) == 1
            assert reg.counters.get("faults.recovered.rank_death", 0) == 1
        finally:
            disable_registry()


# ----------------------------------------------------------------------
# RetryPolicy (the campaign supervisor's backoff)
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_sequence_is_deterministic(self):
        a = RetryPolicy(base_delay=0.01, jitter=0.5, seed=4)
        b = RetryPolicy(base_delay=0.01, jitter=0.5, seed=4)
        assert [a.delay(i) for i in range(4)] == [
            b.delay(i) for i in range(4)
        ]

    def test_delay_growth_and_cap(self):
        p = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=0.03, jitter=0.0
        )
        assert p.delay(0) == pytest.approx(0.01)
        assert p.delay(1) == pytest.approx(0.02)
        assert p.delay(2) == pytest.approx(0.03)  # capped
        assert p.delay(5) == pytest.approx(0.03)


# ----------------------------------------------------------------------
# Replica-based recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def _exchange(self):
        decomp = DomainDecomposition(BOX, DIMS)
        return OverloadExchange(decomp, DEPTH)

    def _cloud(self, n=400, seed=1):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, BOX, (n, 3))
        mom = rng.standard_normal((n, 3))
        mas = rng.uniform(0.5, 1.5, n)
        ids = np.arange(n, dtype=np.int64)
        return pos, mom, mas, ids

    def test_harvest_dedupes_by_id(self):
        ex = self._exchange()
        pos, mom, mas, ids = self._cloud()
        domains = ex.distribute(pos, mom, mas, ids)
        survivors = [d for d in domains if d.rank != 1]
        r_pos, r_mom, r_mas, r_pid, r_home = harvest_replicas(
            survivors, {1}, ex
        )
        assert len(np.unique(r_pid)) == len(r_pid)
        assert np.all(r_home == 1)
        assert np.all((r_pos >= 0.0) & (r_pos < BOX))

    def test_recover_respawns_every_rank(self):
        ex = self._exchange()
        pos, mom, mas, ids = self._cloud()
        domains = ex.distribute(pos, mom, mas, ids)
        new_domains, report = recover_ranks(ex, domains, {1})
        assert sorted(d.rank for d in new_domains) == [0, 1]
        assert report.dead_ranks == (1,)
        assert report.n_expected == domains[1].n_active
        assert 0.0 < report.coverage() <= 1.0
        # every surviving particle kept its momentum bit-for-bit
        dead_active_ids = domains[1].ids[domains[1].active]
        recovered_ids = np.setdiff1d(dead_active_ids, report.lost_ids)
        old = {
            int(i): domains[1].momenta[domains[1].active][k]
            for k, i in enumerate(dead_active_ids)
        }
        dom1 = next(d for d in new_domains if d.rank == 1)
        act = dom1.active
        for k, i in enumerate(dom1.ids[act]):
            if int(i) in old and i in recovered_ids:
                assert np.array_equal(dom1.momenta[act][k], old[int(i)])

    def test_lost_particles_are_deep_interior(self):
        ex = self._exchange()
        pos, mom, mas, ids = self._cloud()
        domains = ex.distribute(pos, mom, mas, ids)
        _, report = recover_ranks(ex, domains, {1})
        if report.n_lost == 0:
            pytest.skip("no interior particles in this draw")
        lost_pos = pos[np.isin(ids, report.lost_ids)]
        # rank 1 of a (2,1,1) split owns x in [32, 64); only x matters
        # (y/z span the whole box, so there is no boundary there)
        x = lost_pos[:, 0]
        lo, hi = BOX / 2, BOX
        dist = np.minimum(x - lo, hi - x)
        assert np.all(dist > DEPTH)

    def test_recovered_domains_keep_float32(self):
        """No survivor holds a replica of the dead rank: the empty
        harvest still carries the particles' dtypes, so no recovered
        domain turns float64."""
        ex = OverloadExchange(DomainDecomposition(BOX, (2, 1, 1)), 1.0)
        pos, mom, mas, ids = self._cloud(n=200)
        home1 = pos[:, 0] >= BOX / 2
        # rank 1's particles lie deeper than the depth: no replicas
        pos[home1, 0] = np.random.default_rng(2).uniform(
            BOX / 2 + 2, BOX - 2, home1.sum())
        domains = ex.distribute(pos.astype(np.float32),
                                mom.astype(np.float32),
                                mas.astype(np.float32), ids)
        new_domains, report = recover_ranks(ex, domains, {1})
        assert report.n_recovered == 0 and report.n_lost == home1.sum()
        for dom in new_domains:
            for name in ("positions", "momenta", "masses"):
                assert getattr(dom, name).dtype == np.float32, name

    def test_empty_death_set_is_identity(self):
        ex = self._exchange()
        pos, mom, mas, ids = self._cloud(n=50)
        domains = ex.distribute(pos, mom, mas, ids)
        same, report = recover_ranks(ex, domains, set())
        assert same is domains
        assert report.n_expected == 0

    def test_unknown_rank_rejected(self):
        ex = self._exchange()
        pos, mom, mas, ids = self._cloud(n=50)
        domains = ex.distribute(pos, mom, mas, ids)
        with pytest.raises(ValueError, match="dead ranks"):
            recover_ranks(ex, domains, {7})


# ----------------------------------------------------------------------
# Driver-level chaos scenarios
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestDriverChaos:
    def test_rank_death_is_recovered_mid_run(self):
        cfg = tiny_config()
        plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=2, rank=1)
        sim = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH, faults=plan
        )
        sim.run()
        assert plan.injected["rank_death"] == 1
        assert plan.recovered["rank_death"] == 1
        assert len(sim.recovery_reports) == 1
        report = sim.recovery_reports[0]
        assert report.dead_ranks == (1,)
        assert report.coverage() > 0.5

    def test_recovery_reports_the_particles_own_ids(self):
        """Domains carry row numbers; the report maps the lost rows
        back to the particles' ids, whatever they are, and relabelling
        changes no bit of the run."""
        cfg = tiny_config()
        runs = []
        for offset in (None, 10**6):
            plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=2, rank=1)
            sim = HACCSimulation(
                cfg, decomposition_dims=DIMS, overload_depth=DEPTH,
                faults=plan,
            )
            if offset is not None:  # reversed ids that are not rows
                sim.particles.ids[:] = offset + np.arange(sim.particles.n)[::-1]
            sim.run()
            runs.append(sim)
        plain, relabelled = runs
        lost = plain.recovery_reports[0].lost_ids
        assert lost.size > 0
        n = plain.particles.n
        assert np.array_equal(relabelled.recovery_reports[0].lost_ids,
                              np.sort(10**6 + n - 1 - lost))
        for field in ("positions", "momenta"):
            assert (getattr(plain.particles, field).tobytes()
                    == getattr(relabelled.particles, field).tobytes())

    def test_recovered_run_stays_close_to_fault_free(self):
        cfg = tiny_config()
        ref = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        ref.run()
        plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=2, rank=1)
        sim = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH, faults=plan
        )
        sim.run()
        # the lost deep-interior particles miss one short-range kick;
        # displacements stay far below the grid spacing (8 Mpc/h)
        diff = np.abs(sim.particles.positions - ref.particles.positions)
        diff = np.minimum(diff, BOX - diff)  # periodic
        assert np.max(diff) < 0.5

    def test_unrecovered_death_goes_crit(self):
        cfg = tiny_config(n_steps=3)
        plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=1, rank=0)
        sim = HACCSimulation(
            cfg,
            decomposition_dims=DIMS,
            overload_depth=DEPTH,
            faults=plan,
            recover_on_rank_death=False,
        )
        sim.attach_health()
        sim.run()
        checks = [e.check for e in sim.health.monitor.events]
        assert "rank_died" in checks
        assert sim.health.verdict() == "CRIT"
        assert sim.health.exit_status() == 2
        assert not sim.recovery_reports
        assert plan.recovered.get("rank_death") is None

    def test_recovered_death_is_warn_not_crit(self):
        cfg = tiny_config(n_steps=3)
        plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=1, rank=1)
        # thresholds wide open: only the discrete fault events matter
        wide = {"energy_residual": (1e9, 1e9)}
        sim = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH, faults=plan
        )
        from repro.instrument import HealthThresholds

        sim.attach_health(
            thresholds=HealthThresholds().with_(
                momentum_drift=(1e9, 2e9),
                energy_residual=(1e9, 2e9),
                mass_error=(1e9, 2e9),
            )
        )
        sim.run()
        checks = [e.check for e in sim.health.monitor.events]
        assert "rank_recovered" in checks
        assert "rank_died" not in checks
        assert sim.health.verdict() == "WARN"
        assert sim.health.exit_status() == 0

    def test_shortrange_slowdown_is_injected(self):
        cfg = tiny_config(n_steps=1)
        plan = FaultPlan(seed=CHAOS_SEED).with_slowdown(
            "shortrange", 0.001
        )
        sim = HACCSimulation(cfg, faults=plan)
        sim.run()
        assert plan.injected["slowdown"] >= 1


class TestPlanPerRun:
    """The fault plan is an argument of the run it hits, not process
    state: two runs in one process see only their own plans."""

    def test_two_plans_one_process(self):
        import repro.resilience.faults as faults_mod

        cfg = tiny_config(n_steps=3)
        solo = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        solo.run()

        plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=1, rank=1)
        chaotic = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH, faults=plan
        )
        healthy = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        for _ in range(cfg.n_steps):
            chaotic.step()
            healthy.step()
        assert np.array_equal(
            healthy.particles.positions, solo.particles.positions
        )
        assert np.array_equal(
            healthy.particles.momenta, solo.particles.momenta
        )
        assert plan.injected == {"rank_death": 1}
        assert healthy.faults.summary()["injected"] == {}
        assert not healthy.recovery_reports
        assert len(chaotic.recovery_reports) == 1
        assert not [
            name for name, value in vars(faults_mod).items()
            if isinstance(value, (FaultPlan, NullFaultPlan))
        ]


def _load_gate():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" \
        / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


GATE = _load_gate()

#: the flags the gate retired when every bar moved into its table
RETIRED_GATE_FLAGS = (
    "--check-speedup", "--check-kernel-speedup", "--check-roofline",
    "--min-speedup", "--speedup-record", "--kernel-record",
    "--roofline-record", "--threshold", "--filter", "--baseline-ledger",
    "--baseline-run",
)


def _committed(record):
    import json

    return json.loads((GATE.ROOT / f"BENCH_{record}.json").read_text())


class TestRegressionGate:
    """The benchmark gate: durations against a baseline, and one table of
    absolute bars; rank deaths are the chaos lanes' check, not a field of
    the bench records."""

    @pytest.fixture(autouse=True)
    def recording_host(self, monkeypatch):
        """The committed records' bars hold on the core count they were
        measured with (the compute-only executor row needs 4)."""
        cores = _committed("executor")["payload"]["host_cores"]
        monkeypatch.setattr(os, "cpu_count", lambda: cores)

    def _write(self, directory, name, duration=1.0, **extra):
        import json

        directory.mkdir(parents=True, exist_ok=True)
        rec = {
            "name": name,
            "payload": {
                "nodeid": f"bench.py::{name}",
                "outcome": "passed",
                "duration_s": duration,
                **extra,
            },
        }
        (directory / f"BENCH_{name}.json").write_text(json.dumps(rec))

    def test_healthy_records_pass(self, tmp_path):
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        self._write(fresh, "fig5_x")
        self._write(base, "fig5_x")
        argv = ["--records", str(fresh), "--baseline", str(base)]
        assert GATE.main(argv) == 0

    def test_a_gated_slowdown_fails(self, tmp_path, capsys):
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        slower = 1.01 * (1 + GATE.DURATION_MAX_SLOWDOWN)
        self._write(fresh, "fig5_x", duration=slower)
        self._write(fresh, "other", duration=10.0)
        self._write(base, "fig5_x")
        self._write(base, "other")
        argv = ["--records", str(fresh), "--baseline", str(base)]
        assert GATE.main(argv) == 1
        out = capsys.readouterr().out
        assert "fig5_x: 1.000s" in out and "other:" not in out

    def test_without_check_health_events_are_ignored(self, tmp_path):
        """A record written before the health gate went carries a
        telemetry block; the duration gate reads past it."""
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        self._write(
            fresh, "chaos_q",
            telemetry={
                "health_verdict": "CRIT",
                "health_events": [
                    {"check": "rank_died", "severity": "CRIT", "step": 1},
                ],
            },
        )
        self._write(base, "chaos_q")
        argv = ["--records", str(fresh), "--baseline", str(base)]
        assert GATE.main(argv) == 0

    def test_check_health_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            GATE.main(["--records", str(tmp_path), "--check-health"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", RETIRED_GATE_FLAGS)
    def test_retired_flags_are_usage_errors(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            GATE.main(["--records", str(tmp_path), flag])
        assert exc.value.code == 2

    def test_help_lists_only_the_three_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            GATE.main(["--help"])
        assert exc.value.code == 0
        flags = {w.strip("[],") for w in capsys.readouterr().out.split()
                 if w.startswith(("--", "[--"))}
        assert flags == {"--records", "--baseline", "--update-baseline",
                         "--help"}

    def test_a_record_cannot_lower_its_own_bar(self):
        """Bars come from the table only: a record's own ``min_required``
        and ``min_cores`` fields are ignored."""
        rec = _committed("executor")
        emulated = GATE.dig(rec["payload"], ("speedup_gates",
                                              {"curve": "emulated"}))
        emulated.update(value=1.2, min_required=0.1, min_cores=1)
        failures, _ = GATE.judge({"executor": rec}, cores=1)
        assert len(failures) == 1
        assert "emulated thread@4w speedup reading 1.2 is not >= 1.7" \
            in failures[0]

    @pytest.mark.parametrize(
        "row", GATE.BARS, ids=[f"{b.record}:{b.label}" for b in GATE.BARS]
    )
    def test_every_row_holds_its_bar(self, row, capsys):
        """From the committed record: a reading 1% inside the bar passes,
        1% past it fails and names the row, and a row whose condition is
        false prints a skip instead."""
        import copy

        def judged(reading, cores=row.min_cores, falsify=None):
            payload = copy.deepcopy(_committed(row.record)["payload"])
            scale = GATE.dig(payload, row.over) if row.over else 1.0
            GATE.dig(payload, row.path[:-1])[row.path[-1]] = reading * scale
            if falsify:
                falsify(payload)
            return GATE.judge({row.record: {"payload": payload}}, (row,),
                              cores=cores)

        step = 0.01 * (abs(row.bar) or 1.0)
        if row.cmp in ("<=", "in (0,]"):
            step = -step
        inside, past = row.bar + step, row.bar - step
        failures, rows = judged(inside)
        assert failures == [] and rows[0][-1] == "ok"
        failures, rows = judged(past)
        assert len(failures) == 1 and rows[0][-1] == "FAIL"
        assert f"{row.record}: {row.label} reading" in failures[0]

        capsys.readouterr()
        conditions = [dict(cores=row.min_cores - 1)]
        if row.when is not None:
            def falsify(payload):  # no backend measured, no AVX2 lanes
                payload["backends"] = []
                for e in payload["entries"]:
                    e["kernel_simd"] = "scalar"

            assert row.when(_committed(row.record)["payload"]) is None
            conditions.append(dict(falsify=falsify))
        for condition in conditions:
            failures, rows = judged(past, **condition)
            assert failures == [] and rows[0][-1] == "skipped"
            assert f"SKIPPED {row.record} {row.label}: " in \
                capsys.readouterr().out


@pytest.mark.chaos
class TestChaosEndToEnd:
    """The acceptance scenario: kill a rank mid-run, corrupt the latest
    checkpoint, auto-resume from the newest *valid* one, and finish with
    physics within the overload tolerance of a fault-free run."""

    def test_kill_corrupt_resume_power_spectrum(self, tmp_path):
        from repro.analysis import matter_power_spectrum
        from repro.io import (
            Checkpointer,
            CheckpointSchedule,
            find_latest_valid,
            load_checkpoint,
        )

        cfg = tiny_config(n_steps=6)

        # fault-free reference (same decomposition, no injection)
        ref = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        ref.run()

        # phase 1: run 4 steps, checkpoint every step, with a rank death
        # at step 2 and the *last* checkpoint write corrupted
        plan = (
            FaultPlan(seed=CHAOS_SEED)
            .with_rank_death(step=2, rank=1)
            .with_checkpoint_corruption(write_index=3, mode="truncate")
        )
        ckdir = tmp_path / "ckpts"
        sim = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH, faults=plan
        )
        ck = Checkpointer(
            ckdir, keep_last=3,
            schedule=CheckpointSchedule(every_steps=1),
        )
        while sim._step_index < 4:
            sim.step()
            ck.maybe_checkpoint(sim)
        assert plan.injected == {"rank_death": 1, "checkpoint": 1}
        assert plan.recovered["rank_death"] == 1

        # phase 2: the "crash" happened; auto-resume must skip the
        # corrupted ckpt_000004 and fall back to ckpt_000003
        latest = find_latest_valid(ckdir)
        assert latest is not None
        assert latest.name == "ckpt_000003.npz"
        resumed = load_checkpoint(
            latest, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        assert resumed._step_index == 3
        resumed.run()
        assert abs(resumed.a - cfg.a_final) < 1e-12

        # physics: P(k) of the chaos run within the overload tolerance
        grid = cfg.grid()
        ps_ref = matter_power_spectrum(
            ref.particles.positions, BOX, grid,
            subtract_shot_noise=False,
        )
        ps_res = matter_power_spectrum(
            resumed.particles.positions, BOX, grid,
            subtract_shot_noise=False,
        )
        ok = ps_ref.power > 0
        rel = np.abs(ps_res.power[ok] - ps_ref.power[ok]) / ps_ref.power[ok]
        assert np.max(rel) < 0.05

    def test_fault_free_resume_is_bitwise(self, tmp_path):
        from repro.io import (
            Checkpointer,
            CheckpointSchedule,
            find_latest_valid,
            load_checkpoint,
        )

        cfg = tiny_config(n_steps=6)
        ref = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        ref.run()

        sim = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        ck = Checkpointer(
            tmp_path, keep_last=2,
            schedule=CheckpointSchedule(every_steps=2),
        )
        while sim._step_index < 4:
            sim.step()
            ck.maybe_checkpoint(sim)

        resumed = load_checkpoint(
            find_latest_valid(tmp_path),
            decomposition_dims=DIMS,
            overload_depth=DEPTH,
        )
        resumed.run()
        assert np.array_equal(
            resumed.particles.positions, ref.particles.positions
        )
        assert np.array_equal(
            resumed.particles.momenta, ref.particles.momenta
        )
        assert resumed.a == ref.a
