"""Tests for overlapped execution (``overlap=True``).

The async phase pipeline — futures-based ``submit``/``Wave`` dispatch,
the ghost exchange streamed into in-flight short-range solves, and the
gradient-FFT / CIC-gather pipeline — changes *scheduling only*.  The
headline contract pinned here: **overlapped trajectories are
bit-identical to the synchronous schedule at equal worker counts, on the
serial and thread backends**, because work partitioning depends only on
the worker count and every reduction happens in the caller in fixed
rank order.

Under the ``chaos`` marker a rank dies mid-overlap: recovery must drain
the in-flight exchange, rebuild the lost domains, and still match the
synchronous chaos run bitwise.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.grid.poisson import SpectralPoissonSolver
from repro.instrument.overlap import (
    HIDDEN_COUNTER,
    TOTAL_COUNTER,
    OverlapMeter,
    overlap_efficiency,
)
from repro.instrument.registry import disable as disable_registry
from repro.instrument.registry import enable as enable_registry
from repro.parallel.executor import RankExecutor, WorkerError
from repro.resilience import FaultPlan, use_faults

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


def run_sim(workers: int, executor: str, plan=None, **overrides):
    """Run a tiny simulation; return (positions, momenta, interactions)."""
    cfg = tiny_config(workers=workers, executor=executor, **overrides)
    if plan is not None:
        with use_faults(plan):
            sim = HACCSimulation(
                cfg, decomposition_dims=DIMS, overload_depth=DEPTH
            )
            sim.run()
    else:
        sim = HACCSimulation(
            cfg, decomposition_dims=DIMS, overload_depth=DEPTH
        )
        sim.run()
    out = (
        sim.particles.positions.copy(),
        sim.particles.momenta.copy(),
        sim.interaction_count(),
    )
    sim.close()
    return out


def _square(x):
    return x * x

def _slow_identity(payload):
    value, delay = payload
    time.sleep(delay)
    return value


def _boom(x):
    raise RuntimeError(f"boom {x}")


# ----------------------------------------------------------------------
# submit / Wave unit surface
# ----------------------------------------------------------------------
class TestSubmitWave:
    def test_serial_submit_is_eager_and_ordered(self):
        with RankExecutor("serial", 1) as ex:
            seen = []
            handles = [
                ex.submit(seen.append, i, rank=i) for i in range(4)
            ]
            # eager: executed at submission time, in submission order
            assert seen == [0, 1, 2, 3]
            assert all(h.done() for h in handles)
            assert [h.result() for h in handles] == [None] * 4

    @pytest.mark.parametrize("backend", ["thread"])
    def test_wave_results_follow_submission_order(self, backend):
        with RankExecutor(backend, 4) as ex:
            with ex.wave("test.wave") as wave:
                # later submissions finish first; results() must still
                # come back in submission (= rank) order
                for i, delay in enumerate([0.05, 0.03, 0.01, 0.0]):
                    wave.submit(_slow_identity, (i, delay), rank=i)
                assert wave.results() == [0, 1, 2, 3]

    def test_submit_failure_raises_worker_error_with_rank(self):
        with RankExecutor("thread", 2) as ex:
            handle = ex.submit(_boom, 7, rank=1, label="test.boom")
            with pytest.raises(WorkerError) as err:
                handle.result()
            assert err.value.rank == 1
        # eager serial failures surface identically, at result() time
        with RankExecutor("serial", 1) as ex:
            handle = ex.submit(_boom, 7, rank=0)
            assert handle.done()
            with pytest.raises(WorkerError):
                handle.result()

    def test_result_is_idempotent(self):
        with RankExecutor("thread", 2) as ex:
            handle = ex.submit(_square, 6)
            assert handle.result() == 36
            assert handle.result() == 36

    def test_dispatch_overhead_counters(self):
        reg = enable_registry()
        try:
            with RankExecutor("thread", 2) as ex:
                ex.map(_square, list(range(8)), label="test.phase")
            counters = reg.counters
            assert counters.get("executor.dispatches", 0) == 1
            assert counters.get("executor.tasks", 0) == 8
            # chunked dispatch: one envelope per worker, not per task
            assert counters.get("executor.envelopes", 0) == 2
            assert counters.get("executor.dispatch_s", 0) > 0
        finally:
            disable_registry()


# ----------------------------------------------------------------------
# overlap attribution
# ----------------------------------------------------------------------
class TestOverlapMeter:
    def test_meter_accumulates_hidden_and_total(self):
        meter = OverlapMeter()
        with meter.comm(hidden=True):
            time.sleep(0.002)
        with meter.comm(hidden=False):
            time.sleep(0.002)
        assert meter.total_s > meter.hidden_s > 0.0
        assert 0.0 < meter.efficiency() < 1.0

    def test_meter_charges_registry_counters(self):
        reg = enable_registry()
        try:
            meter = OverlapMeter()
            with meter.comm(hidden=True):
                pass
            counters = reg.counters
            assert counters.get(TOTAL_COUNTER, 0) > 0
            assert counters.get(HIDDEN_COUNTER, 0) > 0
        finally:
            disable_registry()

    def test_efficiency_from_counters(self):
        assert overlap_efficiency({}) is None
        eff = overlap_efficiency(
            {TOTAL_COUNTER: 2.0, HIDDEN_COUNTER: 1.0}
        )
        assert eff == 0.5
        # hidden can measure slightly above total (two clocks); clamped
        assert overlap_efficiency(
            {TOTAL_COUNTER: 1.0, HIDDEN_COUNTER: 1.1}
        ) == 1.0


# ----------------------------------------------------------------------
# the determinism contract: overlap changes scheduling, never results
# ----------------------------------------------------------------------
class TestOverlappedBitIdentity:
    def test_serial_overlap_equals_serial_sync(self):
        sync = run_sim(1, "serial", overlap=False)
        over = run_sim(1, "serial", overlap=True)
        assert np.array_equal(sync[0], over[0])
        assert np.array_equal(sync[1], over[1])
        assert sync[2] == over[2]

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_async_matches_sync_across_backends(self, workers):
        """At equal ``workers``: sync == async on the thread backend."""
        ref_pos, ref_mom, ref_n = run_sim(workers, "thread", overlap=False)
        pos, mom, n = run_sim(workers, "thread", overlap=True)
        assert np.array_equal(pos, ref_pos), workers
        assert np.array_equal(mom, ref_mom), workers
        assert n == ref_n, workers

    def test_poisson_pipeline_is_bitwise_identical(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, BOX, size=(400, 3))
        for backend, workers in (("thread", 4), ("thread", 2)):
            with RankExecutor(backend, workers) as ex_a, \
                    RankExecutor(backend, workers) as ex_b:
                sync = SpectralPoissonSolver(16, BOX)
                sync.executor = ex_a
                over = SpectralPoissonSolver(16, BOX)
                over.executor = ex_b
                over.overlap = True
                assert np.array_equal(
                    sync.accelerations(positions),
                    over.accelerations(positions),
                ), (backend, workers)

    def test_overlap_records_hidden_comm(self):
        reg = enable_registry()
        try:
            cfg = tiny_config(workers=2, executor="thread", overlap=True)
            sim = HACCSimulation(
                cfg, decomposition_dims=DIMS, overload_depth=DEPTH
            )
            sim.run()
            sim.close()
            counters = reg.counters
            assert counters.get(TOTAL_COUNTER, 0.0) > 0.0
            # efficiency is defined (may be 0.0 on a 1-core host where
            # every solve finishes before the next domain arrives)
            assert overlap_efficiency(counters) is not None
        finally:
            disable_registry()


# ----------------------------------------------------------------------
# chaos lane: rank death mid-overlap
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosOverlap:
    def test_rank_death_mid_overlap_recovers(self):
        plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(step=1, rank=1)
        cfg = tiny_config(
            workers=CHAOS_WORKERS, executor="thread", n_steps=3,
            overlap=True,
        )
        with use_faults(plan):
            sim = HACCSimulation(
                cfg, decomposition_dims=DIMS, overload_depth=DEPTH
            )
            sim.run()
        try:
            assert plan.injected["rank_death"] == 1
            assert plan.recovered["rank_death"] == 1
            assert len(sim.recovery_reports) == 1
            assert sim.recovery_reports[0].dead_ranks == (1,)
        finally:
            sim.close()

    def test_chaotic_overlap_matches_chaotic_sync(self):
        def chaotic(overlap):
            plan = FaultPlan(seed=CHAOS_SEED).with_rank_death(
                step=1, rank=1
            )
            return run_sim(
                CHAOS_WORKERS, "thread", plan=plan, n_steps=3,
                overlap=overlap,
            )

        sync_pos, sync_mom, sync_n = chaotic(False)
        over_pos, over_mom, over_n = chaotic(True)
        assert np.array_equal(sync_pos, over_pos)
        assert np.array_equal(sync_mom, over_mom)
        assert sync_n == over_n
