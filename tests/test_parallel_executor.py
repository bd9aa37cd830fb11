"""Tests for the rank executor (``repro.parallel.executor``).

Covers the executor unit surface (backends, ordered results, failure
attribution, lifecycle) and the executor's headline guarantee:
**no ``(backend, workers)`` pair changes a result** — every run is
bit-identical to serial at ``workers=1``, because each task is one
domain's whole solve and every reduction happens in the caller in fixed
order.

Under the ``chaos`` marker the rank-death recovery story is re-run with
the fleet dispatched on ``REPRO_CHAOS_WORKERS`` workers (default 4),
pinning that fault injection and the parallel dispatch compose.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.instrument.registry import disable as disable_registry
from repro.instrument.registry import enable as enable_registry
from repro.instrument.telemetry import run_manifest
from repro.parallel.executor import (
    EXECUTOR_BACKENDS,
    WORKER_LANE_BASE,
    RankExecutor,
    WorkerError,
)
from repro.resilience import FaultPlan, NullFaultPlan

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2012"))
CHAOS_WORKERS = int(os.environ.get("REPRO_CHAOS_WORKERS", "4"))

BOX = 64.0
DIMS = (2, 1, 1)
DEPTH = 14.0


def tiny_config(workers: int = 1, executor: str = "serial",
                **overrides) -> SimulationConfig:
    base = dict(
        box_size=BOX,
        n_per_dim=8,
        # a 16^3 PM grid puts the cutoff at 12 Mpc/h, inside the overload
        # shell: rcut <= DEPTH < half the 32 Mpc/h domain width
        grid_size=16,
        z_initial=20.0,
        z_final=5.0,
        n_steps=2,
        n_subcycles=2,
        backend="treepm",
        seed=11,
        workers=workers,
        executor=executor,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def make_sim(
    cfg: SimulationConfig, faults=NullFaultPlan()
) -> HACCSimulation:
    return HACCSimulation(
        cfg, decomposition_dims=DIMS, overload_depth=DEPTH, faults=faults
    )


def run_sim(
    workers: int, executor: str, plan=NullFaultPlan(), **overrides
):
    """Run a tiny simulation; return (positions, momenta, interactions)."""
    cfg = tiny_config(workers=workers, executor=executor, **overrides)
    sim = make_sim(cfg, faults=plan)
    sim.run()
    out = (
        sim.particles.positions.copy(),
        sim.particles.momenta.copy(),
        sim.interaction_count(),
    )
    sim.close()
    return out


def _double(x):
    return 2 * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("payload three is poison")
    return x


# ----------------------------------------------------------------------
# executor unit surface
# ----------------------------------------------------------------------
class TestRankExecutor:
    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            RankExecutor(backend="gpu")
        # the fork-pool backend is gone: serial and thread only
        assert EXECUTOR_BACKENDS == ("serial", "thread")
        with pytest.raises(ValueError, match="backend"):
            RankExecutor(backend="process", workers=2)
        with pytest.raises(ValueError, match="workers"):
            RankExecutor(workers=0)

    def test_partition_width_is_backend_independent(self):
        for backend in EXECUTOR_BACKENDS:
            ex = RankExecutor(backend=backend, workers=3)
            assert ex.workers == 3
            ex.close()

    def test_from_config(self):
        cfg = tiny_config(workers=2, executor="thread")
        ex = RankExecutor.from_config(cfg)
        assert ex.backend == "thread"
        assert ex.workers == 2
        ex.close()

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_map_preserves_payload_order(self, backend):
        with RankExecutor(backend=backend, workers=3) as ex:
            assert ex.map(_double, list(range(7))) == [
                2 * i for i in range(7)
            ]
            assert ex.map(_double, []) == []

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_first_failure_in_payload_order_wins(self, backend):
        with RankExecutor(backend=backend, workers=3) as ex:
            with pytest.raises(WorkerError) as err:
                ex.map(
                    _fail_on_three, [3, 0, 3, 1], ranks=[7, 8, 9, 10]
                )
        # both rank 7 and rank 9 fail; the first in payload order is
        # reported, deterministically, whatever finished first
        assert err.value.rank == 7
        assert isinstance(err.value.original, ValueError)

    def test_rank_length_mismatch_rejected(self):
        with RankExecutor() as ex:
            with pytest.raises(ValueError, match="ranks"):
                ex.map(_double, [1, 2], ranks=[0])

    def test_close_is_idempotent(self):
        ex = RankExecutor(backend="thread", workers=2)
        ex.map(_double, [1])
        ex.close()
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.map(_double, [1])

    def test_dispatch_overhead_counters(self):
        reg = enable_registry()
        try:
            with RankExecutor("thread", 2) as ex:
                ex.map(_double, list(range(8)), label="test.phase")
            counters = reg.counters
            assert counters.get("executor.dispatches", 0) == 1
            assert counters.get("executor.tasks", 0) == 8
            # chunked dispatch: one envelope per worker, not per task
            assert counters.get("executor.envelopes", 0) == 2
            assert counters.get("executor.dispatch_s", 0) > 0
        finally:
            disable_registry()


# ----------------------------------------------------------------------
# the headline guarantee: bit-identical trajectories across backends
# ----------------------------------------------------------------------
class TestSimulationDeterminism:
    def test_backends_bit_identical_at_equal_workers(self):
        ref_pos, ref_mom, ref_int = run_sim(4, "serial")
        pos, mom, n_int = run_sim(4, "thread")
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(mom, ref_mom)
        assert n_int == ref_int

    @pytest.mark.parametrize(
        "executor, workers", [("serial", 4), ("thread", 2), ("thread", 4)]
    )
    def test_worker_count_never_changes_result(self, executor, workers):
        # the PM solve is serial and each task is one whole domain solve,
        # so no worker count reassociates a sum
        ref_pos, ref_mom, ref_int = run_sim(1, "serial")
        pos, mom, n_int = run_sim(workers, executor)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(mom, ref_mom)
        assert n_int == ref_int

    def test_manifest_records_executor_and_workers(self):
        cfg = tiny_config(workers=4, executor="thread")
        man = run_manifest(cfg)
        assert man["executor"] == "thread"
        assert man["workers"] == 4
        assert man["config"]["executor"] == "thread"

    def test_config_validates_executor_fields(self):
        with pytest.raises(ValueError, match="executor"):
            tiny_config(executor="gpu")
        with pytest.raises(ValueError, match="workers"):
            tiny_config(workers=0)


# ----------------------------------------------------------------------
# failure propagation out of the fleet
# ----------------------------------------------------------------------
class TestWorkerFailure:
    @pytest.mark.parametrize(
        "executor, workers",
        [("serial", 1), ("thread", 1), ("serial", 2), ("thread", 2)],
        ids=["serial@1", "thread@1", "serial@2", "thread@2"],
    )
    def test_worker_exception_names_the_failing_rank(
        self, monkeypatch, executor, workers
    ):
        """One failure contract: every executor names the failing rank."""
        import repro.core.simulation as simmod

        real = simmod._solve_domain

        def poisoned(solver, faults, dom):
            if dom.rank == 1:
                raise RuntimeError("domain solver blew up")
            return real(solver, faults, dom)

        monkeypatch.setattr(simmod, "_solve_domain", poisoned)
        sim = make_sim(tiny_config(workers=workers, executor=executor))
        try:
            with pytest.raises(WorkerError) as err:
                sim.step()
            assert err.value.rank == 1
            assert "domain solver blew up" in str(err.value)
        finally:
            sim.close()


# ----------------------------------------------------------------------
# trace lanes
# ----------------------------------------------------------------------
class TestWorkerTraceLanes:
    def test_chrome_trace_labels_worker_lanes(self, tmp_path):
        from repro.instrument import exporters

        reg = enable_registry()
        try:
            with RankExecutor(backend="thread", workers=2) as ex:
                ex.map(_double, list(range(8)), label="shortrange.domain")
            path = tmp_path / "trace.json"
            exporters.write_chrome_trace(reg, path)
        finally:
            disable_registry()
        raw = json.loads(path.read_text())
        names = {
            e["args"]["name"]
            for e in raw["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert any(n.startswith("worker ") for n in names)
        lanes = {
            e["pid"]
            for e in raw["traceEvents"]
            if e.get("name") == "shortrange.domain"
        }
        assert lanes and all(l >= WORKER_LANE_BASE for l in lanes)


# ----------------------------------------------------------------------
# chaos lane: fault injection composes with parallel dispatch
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosParallel:
    def test_rank_death_recovered_under_parallel_fleet(self):
        plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=1, rank=1)
        cfg = tiny_config(
            workers=CHAOS_WORKERS, executor="thread", n_steps=3
        )
        sim = make_sim(cfg, faults=plan)
        sim.run()
        try:
            assert plan.injected["rank_death"] == 1
            assert plan.recovered["rank_death"] == 1
            assert len(sim.recovery_reports) == 1
            assert sim.recovery_reports[0].dead_ranks == (1,)
        finally:
            sim.close()

    def test_recovered_chaos_run_is_backend_independent(self):
        def chaotic(executor):
            plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(
                step=1, rank=1
            )
            return run_sim(
                CHAOS_WORKERS, executor, plan=plan, n_steps=3
            )

        ref_pos, ref_mom, _ = chaotic("serial")
        pos, mom, _ = chaotic("thread")
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(mom, ref_mom)
