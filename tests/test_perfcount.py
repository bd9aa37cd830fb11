"""Tests for the analytic work accounting and host-calibrated roofline.

The hand-computed assertions here pin every constant of the work model
in :mod:`repro.instrument.perfcount` — a single pair interaction, a
one-particle CIC pass, a 4^3 FFT — and hold the counted work invariant
across executors and kernel backends.  The zero-overhead guard bounds
what the disabled instrumentation can possibly cost a production run.
"""

from __future__ import annotations

import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import instrument
from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.grid.cic import cic_deposit, cic_interpolate
from repro.grid.poisson import SpectralPoissonSolver
from repro.instrument import (
    FakeClock,
    NullRegistry,
    Registry,
    PhaseWork,
    achieved_gflops,
    render_roofline,
    roofline_table,
    step_perf,
    use,
    work_summary,
)
from repro.instrument import perfcount
from repro.instrument.monitor import render_dashboard
from repro.instrument.exporters import load_chrome_trace, write_chrome_trace
from repro.instrument.store import RunEntry
from repro.instrument.telemetry import RunStream, StepTelemetry, Telemetry
from repro.machine.calibrate import (
    HostCalibration,
    calibrate,
    host_fingerprint,
)
from repro.shortrange.backends import available_backends
from repro.shortrange.grid_force import default_grid_force_fit
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import DirectShortRange


def tiny_sim(
    decomposition_dims=None, overload_depth=None, **kwargs
) -> HACCSimulation:
    base = dict(
        box_size=32.0,
        n_per_dim=8,
        z_initial=25.0,
        z_final=20.0,
        n_steps=2,
        backend="treepm",
        seed=7,
    )
    base.update(kwargs)
    return HACCSimulation(
        SimulationConfig(**base),
        decomposition_dims=decomposition_dims,
        overload_depth=overload_depth,
    )


# ----------------------------------------------------------------------
# hand-computed work counts
# ----------------------------------------------------------------------
class TestPairWork:
    @pytest.mark.parametrize(
        "dtype,itemsize", [(np.float64, 8), (np.float32, 4)]
    )
    def test_single_pair_flops_and_bytes(self, dtype, itemsize):
        """One (target, source) pair: 21 flops, 4 streamed operands."""
        fit = default_grid_force_fit()
        kernel = ShortRangeKernel(fit, spacing=1.0, dtype=dtype)
        reg = Registry()
        with use(reg):
            # a lone particle: the direct sum streams its one pair (with
            # itself, which the cutoff mask zeroes) and charges it in full
            DirectShortRange(kernel).accelerations_cloud(
                np.ones((1, 3)), np.ones(1), 1
            )
        assert reg.counters.get("pp.interactions", 0) == 1
        assert reg.counters.get("pp.flops", 0) == perfcount.PAIR_FLOPS == 21.0
        assert reg.counters.get("pp.bytes", 0) == 4 * itemsize

    def test_concurrent_charges_are_exact(self):
        """Pool threads charge their solves' work directly into the one
        registry: under a tiny switch interval no update is lost."""
        reg = Registry()
        n_threads, n_iter = 8, 500

        def work():
            for _ in range(n_iter):
                perfcount.charge_pairs(3, 1, 8)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use(reg), ThreadPoolExecutor(n_threads) as pool:
                futures = [pool.submit(work) for _ in range(n_threads)]
                for fut in futures:
                    fut.result(timeout=60)
        finally:
            sys.setswitchinterval(old)
        n = n_threads * n_iter
        assert reg.counters.get("pp.interactions", 0) == 3 * n
        assert reg.counters.get("pp.batch.inside_pairs", 0) == n
        assert reg.counters.get("pp.flops", 0) == perfcount.pair_flops(3 * n, n)
        assert reg.counters.get("pp.bytes", 0) == perfcount.pair_bytes(3 * n, 8)

    def test_f32_halves_bytes_for_identical_flops(self):
        """The bandwidth half of mixed precision, from the counters."""
        assert perfcount.pair_bytes(100, 4) == perfcount.pair_bytes(
            100, 8
        ) / 2


class TestCICWork:
    @pytest.mark.parametrize(
        "dtype,itemsize", [(np.float64, 8), (np.float32, 4)]
    )
    def test_one_particle_deposit(self, dtype, itemsize):
        """One particle, one pass: 47 flops, 8 corners of traffic."""
        pos = np.array([[1.2, 3.4, 5.6]], dtype=dtype)
        reg = Registry()
        with use(reg):
            cic_deposit(pos, 8, 10.0, dtype=dtype)
        assert reg.counters.get("cic.flops", 0) == 47.0
        assert reg.counters.get("cic.bytes", 0) == 8 * (2 * itemsize + 8)

    def test_one_particle_gather(self):
        pos = np.array([[1.2, 3.4, 5.6]])
        grid = np.ones((8, 8, 8))
        reg = Registry()
        with use(reg):
            cic_interpolate(grid, pos, 10.0)
        assert reg.counters.get("cic.flops", 0) == 47.0
        assert reg.counters.get("cic.bytes", 0) == 8 * (2 * 8 + 8)

    def test_scales_linearly_with_particles(self, rng):
        pos = rng.uniform(0, 10.0, (250, 3))
        reg = Registry()
        with use(reg):
            cic_deposit(pos, 8, 10.0)
        assert reg.counters.get("cic.flops", 0) == 47.0 * 250


class TestFFTWork:
    def test_4cubed_forward_transform(self):
        """A 4^3 = 64-point FFT: 5 * 64 * log2(64) = 1920 flops."""
        solver = SpectralPoissonSolver(4, 1.0)
        reg = Registry()
        with use(reg):
            solver._forward(np.zeros((4, 4, 4)))
        assert reg.counters.get("fft.flops", 0) == 5.0 * 64 * 6 == 1920.0
        assert reg.counters.get("fft.bytes", 0) == 2 * 16 * 64 * 6

    def test_f32_path_charges_complex64_traffic(self):
        solver = SpectralPoissonSolver(4, 1.0, dtype=np.float32)
        reg = Registry()
        with use(reg):
            solver._forward(np.zeros((4, 4, 4), dtype=np.float32))
        assert reg.counters.get("fft.flops", 0) == 1920.0
        assert reg.counters.get("fft.bytes", 0) == 2 * 8 * 64 * 6

    def test_filter_work_folds_into_fft_phase(self):
        solver = SpectralPoissonSolver(4, 1.0)
        reg = Registry()
        with use(reg):
            delta_k = solver._forward(np.zeros((4, 4, 4)))
            before = reg.counters.get("fft.flops", 0)
            solver.potential_k(delta_k)
            after = reg.counters.get("fft.flops", 0)
        # rfft layout: 4 * 4 * 3 points, 6 flops each
        assert after - before == 6.0 * delta_k.size

    def test_degenerate_sizes(self):
        assert perfcount.fft_flops(1) == 0.0
        assert perfcount.fft_bytes(0) == 0.0
        assert perfcount.fft_flops(64) == 1920.0

    def test_pencil_fft_charges_same_model(self):
        from repro.fft.pencil import PencilFFT

        pencil = PencilFFT(n=8, pr=2, pc=2)
        reg = Registry()
        with use(reg):
            blocks = pencil.scatter(np.zeros((8, 8, 8), dtype=complex))
            pencil.forward(blocks)
        assert reg.counters.get("fft.flops", 0) == perfcount.fft_flops(8**3)


# ----------------------------------------------------------------------
# invariance of counted work
# ----------------------------------------------------------------------
class TestWorkInvariance:
    WORK_COUNTERS = (
        "pp.interactions", "pp.batch.inside_pairs", "pp.flops", "pp.bytes",
        "tree.build_particles", "tree.list_length",
        "cic.flops", "cic.bytes", "fft.flops", "fft.bytes",
    )

    def _run_counters(self, **kwargs) -> dict:
        # construct outside the registry scope: IC generation and the
        # cached grid-force fit are setup, not stepped work
        sim = tiny_sim(**kwargs)
        reg = Registry()
        with use(reg):
            sim.run()
        sim.close()
        counts = {k: reg.counters.get(k, 0) for k in self.WORK_COUNTERS}
        counts["interaction_count"] = sim.interaction_count()
        return counts

    @pytest.mark.parametrize("backend", ["treepm", "p3m", "direct"])
    @pytest.mark.parametrize(
        "executor", ["serial", "thread"], ids=["serial@2", "thread@2"]
    )
    def test_executors_count_identical_work(self, executor, backend):
        """Same decomposed run, same counted work — serial@1 vs fleets."""
        # a 16^3 grid puts rcut at 6 Mpc/h: rcut <= 7 < 8, half the
        # (2,1,1) domain width, so the domain solves reach the executor
        decomposed = dict(
            backend=backend, grid_size=16,
            decomposition_dims=(2, 1, 1), overload_depth=7.0,
        )
        serial = self._run_counters(**decomposed)
        parallel = self._run_counters(
            executor=executor, workers=2, **decomposed
        )
        assert serial == parallel
        assert serial["pp.flops"] > 0
        assert serial["interaction_count"] == serial["pp.interactions"]
        if backend == "treepm":
            assert serial["tree.list_length"] > 0

    @pytest.mark.skipif(
        "c" not in available_backends(), reason="no working C compiler"
    )
    def test_kernel_backends_count_identical_work(self):
        numpy_run = self._run_counters(kernel_backend="numpy")
        c_run = self._run_counters(kernel_backend="c")
        assert numpy_run == c_run

    def test_precision_halves_pair_bytes_only(self):
        f64 = self._run_counters()
        f32 = self._run_counters(dtype="f32")
        # separation flops follow the streamed pairs (equal); the force
        # flops follow the pairs each precision finds inside the cutoff,
        # which differ by the few lattice pairs sitting on it
        assert f32["pp.flops"] == pytest.approx(f64["pp.flops"], rel=1e-5)
        assert f32["pp.interactions"] == f64["pp.interactions"]
        assert f32["pp.bytes"] == f64["pp.bytes"] / 2
        assert f32["cic.flops"] == f64["cic.flops"]


# ----------------------------------------------------------------------
# phase aggregation and the roofline table
# ----------------------------------------------------------------------
def _cal(peak=100.0, stream=10.0) -> HostCalibration:
    return HostCalibration(
        peak_gflops=peak,
        stream_gbs=stream,
        fingerprint="test",
        measured_unix=0.0,
    )


def _saved_trace(clock_phases, counters) -> dict:
    """A two-step registry record written as a Chrome trace and reloaded:
    ``{"spans", "counters"}``, the form the run ledger stores."""
    clock = FakeClock()
    reg = Registry(clock=clock)
    for _ in range(2):
        with reg.span("step"):
            for name, dt in clock_phases:
                with reg.span(name):
                    clock.advance(dt)
    for name, value in counters.items():
        reg.count(name, value)
    buf = io.StringIO()
    write_chrome_trace(reg, buf)
    buf.seek(0)
    return load_chrome_trace(buf)


class TestPhaseAggregation:
    #: per step: pp.kernel 0.5 s, cic 0.25 s, fft 0.25 s (2 s in total)
    PHASES = (
        ("pp.kernel", 0.25), ("pp.kernel", 0.25), ("cic.deposit", 0.125),
        ("cic.interpolate", 0.125), ("fft.forward", 0.25),
    )
    COUNTERS = {
        "pp.flops": 21e9,
        "pp.bytes": 32e9,
        "cic.flops": 47e8,
        "cic.bytes": 1e9,
        "fft.flops": 5e9,
        "fft.bytes": 2e9,
        "comm.bytes": 4e9,
    }

    def saved(self) -> tuple[list, dict]:
        trace = _saved_trace(self.PHASES, self.COUNTERS)
        return trace["spans"], trace["counters"]

    def test_work_summary_from_saved_dict(self):
        phases = {p.name: p for p in work_summary(*self.saved())}
        assert phases["shortrange"].gflops == pytest.approx(21.0)
        assert phases["shortrange"].arithmetic_intensity == pytest.approx(
            21 / 32
        )
        assert phases["cic"].seconds == pytest.approx(0.5)
        # comm has no span of its own: volume against stepped time
        assert phases["comm"].seconds == pytest.approx(2.0)
        assert phases["comm"].flops == 0.0

    def test_undecomposed_run_has_no_comm_phase(self):
        """A run that moved no bytes gets no ``comm`` row: its step time
        is not a communication phase."""
        reg = Registry()
        with use(reg):
            tiny_sim().run()
        assert "comm.bytes" not in reg.counters
        names = [p.name for p in work_summary(reg.events, reg.counters)]
        assert names == ["shortrange", "cic", "fft"]
        table = roofline_table(reg.events, reg.counters, _cal())
        assert [r["name"] for r in table["phases"]] == names

    def test_live_registry_and_dict_agree(self):
        reg = Registry()
        with use(reg):
            tiny_sim().run()
        buf = io.StringIO()
        write_chrome_trace(reg, buf)
        buf.seek(0)
        trace = load_chrome_trace(buf)
        live = work_summary(reg.events, reg.counters)
        saved = work_summary(trace["spans"], trace["counters"])
        assert [p.name for p in live] == [p.name for p in saved]
        for a, b in zip(live, saved):
            assert (a.flops, a.bytes) == (b.flops, b.bytes)
            # the trace stores microseconds: a float round trip
            assert a.seconds == pytest.approx(b.seconds, abs=1e-9)
        assert live[0].name == "shortrange" and live[0].flops > 0

    def test_achieved_gflops(self):
        assert achieved_gflops(*self.saved()) == pytest.approx(
            (21e9 + 47e8 + 5e9) / 2.0 / 1e9
        )
        assert achieved_gflops([], {}) is None

    def test_step_perf(self):
        trace = _saved_trace(
            (("pp.kernel", 0.25), ("cic.deposit", 0.25)),
            {"pp.flops": 21e6, "pp.bytes": 32e6, "pp.interactions": 1e6},
        )
        one_step = trace["spans"][:3]  # pp.kernel, cic.deposit, step
        assert [e.name for e in one_step][-1] == "step"
        perf = step_perf(one_step, trace["counters"])
        assert perf["gflops"] == pytest.approx(0.042)
        assert perf["ai"] == pytest.approx(21 / 32)
        assert perf["pair_ns"] == pytest.approx(250.0)

    def test_step_perf_without_work(self):
        assert step_perf([], {}) is None

    def test_phasework_edge_cases(self):
        pure = PhaseWork(name="x", seconds=1.0, flops=10.0, bytes=0.0)
        assert pure.arithmetic_intensity == float("inf")
        assert pure.bound_by(1.0) == "compute"
        assert pure.to_dict()["arithmetic_intensity"] is None
        comm = PhaseWork(name="c", seconds=1.0, flops=0.0, bytes=8.0)
        assert comm.bound_by(1.0) == "comm"

    def test_roofline_table_and_render(self):
        table = roofline_table(*self.saved(), _cal())
        rows = {r["name"]: r for r in table["phases"]}
        assert rows["shortrange"]["frac_peak"] == pytest.approx(0.21)
        # AI 21/32 < balance 10 flops/byte: memory-bound on this host
        assert rows["shortrange"]["bound_by"] == "memory"
        # total time excludes the comm pseudo-phase (it spans the step)
        assert table["total"]["seconds"] == pytest.approx(2.0)
        # the paper's Section IV.B model point rides along
        assert table["model"]["frac_peak"] == pytest.approx(
            0.695, abs=0.005
        )
        text = render_roofline(table)
        assert "paper model" in text
        assert "shortrange" in text and "% peak" in text

    def test_roofline_rows_carry_no_model_column(self):
        """The Sec. IV.B model is one header line and the JSON ``model``
        block, never a column of the measured rows."""
        table = roofline_table(*self.saved(), _cal())
        text = render_roofline(table)
        assert "model %" not in text
        model_pct = f"{100 * table['model']['frac_peak']:.1f}%"
        assert [line for line in text.splitlines() if model_pct in line] \
            == [line for line in text.splitlines()
                if line.startswith("paper model")]


# ----------------------------------------------------------------------
# host calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_measures_and_caches(self, tmp_path):
        cal = calibrate(root=tmp_path, matmul_n=64, stream_n=20000)
        assert cal.peak_gflops > 0
        assert cal.stream_gbs > 0
        assert cal.balance() == pytest.approx(
            cal.peak_gflops / cal.stream_gbs
        )
        assert cal.fingerprint == host_fingerprint()
        assert (tmp_path / "calibration.json").is_file()
        again = calibrate(root=tmp_path, matmul_n=64, stream_n=20000)
        assert again == cal  # served from the cache, not re-measured

    def test_force_remeasures(self, tmp_path):
        cal = calibrate(root=tmp_path, matmul_n=64, stream_n=20000)
        forced = calibrate(
            root=tmp_path, force=True, matmul_n=64, stream_n=20000
        )
        assert forced.measured_unix >= cal.measured_unix

    def test_stale_fingerprint_remeasures(self, tmp_path):
        cal = calibrate(root=tmp_path, matmul_n=64, stream_n=20000)
        path = tmp_path / "calibration.json"
        stale = json.loads(path.read_text())
        stale["fingerprint"] = "some-other-host"
        path.write_text(json.dumps(stale))
        fresh = calibrate(root=tmp_path, matmul_n=64, stream_n=20000)
        assert fresh.fingerprint == cal.fingerprint

    def test_corrupt_cache_recovers(self, tmp_path):
        (tmp_path / "calibration.json").write_text("{not json")
        cal = calibrate(root=tmp_path, matmul_n=64, stream_n=20000)
        assert cal.peak_gflops > 0


# ----------------------------------------------------------------------
# wiring: ledger, telemetry, dashboard, provenance
# ----------------------------------------------------------------------
class TestWiring:
    def test_run_entry_gflops_roundtrip(self):
        entry = RunEntry(run_id="r", created_unix=0.0, gflops=1.25)
        assert RunEntry.from_dict(entry.to_dict()).gflops == 1.25

    def test_ledger_records_gflops(self, tmp_path):
        from repro.instrument.store import RunLedger

        reg = Registry()
        sim = tiny_sim()
        with use(reg):
            sim.run()
        ledger = RunLedger(tmp_path)
        entry = ledger.record(registry=reg)
        assert entry.gflops is not None and entry.gflops > 0
        # the ledger stores the trace only, and the entry reads it
        assert sorted(entry.artifacts) == ["trace"]
        trace = ledger.load_trace(entry)
        assert achieved_gflops(trace["spans"], trace["counters"]) \
            == entry.gflops
        assert entry.gflops == pytest.approx(
            achieved_gflops(reg.events, reg.counters), rel=1e-9
        )

    def test_step_telemetry_perf_serialization(self):
        step = StepTelemetry(
            index=0, a=0.5, wall_time=0.1, gauges={}, imbalance={},
            residuals={}, alerts=(), perf={"pair_ns": 420.0},
        )
        assert step.to_dict()["perf"] == {"pair_ns": 420.0}
        bare = StepTelemetry(
            index=0, a=0.5, wall_time=0.1, gauges={}, imbalance={},
            residuals={}, alerts=(),
        )
        assert "perf" not in bare.to_dict()

    def test_simulation_flushes_perf_into_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        reg = Registry()
        sim = tiny_sim()
        with RunStream(path) as stream, use(reg):
            sim.telemetry = Telemetry(stream=stream)
            sim.run()
        steps = [
            rec
            for rec in map(json.loads, path.read_text().splitlines())
            if rec.get("kind") == "telemetry"
        ]
        assert steps, "no step records in the stream"
        assert all("perf" in s for s in steps)
        assert steps[-1]["perf"]["gflops"] > 0
        assert steps[-1]["perf"]["pair_ns"] > 0

    def test_stream_with_retired_overlap_perf_still_renders(
        self, tmp_path, capsys
    ):
        """Streams ledgered while overlapped execution existed carry an
        ``overlap`` efficiency in each step's perf block; monitor and
        report still read them."""
        from repro.__main__ import main

        path = tmp_path / "run.jsonl"
        reg = Registry()
        sim = tiny_sim()
        with RunStream(path) as stream, use(reg):
            sim.telemetry = Telemetry(stream=stream)
            sim.run()
        lines = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec.get("kind") == "telemetry":
                rec["perf"]["overlap"] = 0.42
            lines.append(json.dumps(rec))
        path.write_text("\n".join(lines) + "\n")

        assert main(["monitor", str(path)]) == 0
        assert "0.42" not in capsys.readouterr().out
        assert main(["monitor", str(path), str(path)]) == 0
        dashboard = capsys.readouterr().out
        assert "ns/pair" in dashboard and "ovl" not in dashboard
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.strip()

    def test_dashboard_kernel_and_pair_ns_columns(self):
        data = {
            "manifest": {
                "config_hash": "abc123", "n_steps": 4,
                "kernel_backend": "numpy", "precision": "f32",
            },
            "steps": [
                {"wall_time": 0.1, "z": 10.0,
                 "perf": {"pair_ns": 812.3}},
            ],
            "end": None,
        }
        text = render_dashboard([("demo", data)])
        assert "kernel" in text and "ns/pair" in text
        assert "numpy/f32" in text
        assert "812" in text

    def test_dashboard_without_perf_shows_dash(self):
        data = {"manifest": {}, "steps": [{"wall_time": 0.1}],
                "end": None}
        text = render_dashboard([("demo", data)])
        assert "numpy" not in text


# ----------------------------------------------------------------------
# zero-overhead guard
# ----------------------------------------------------------------------
class _TallyRegistry(NullRegistry):
    """NullRegistry that counts how often the hot paths call into it."""

    def __init__(self) -> None:
        self.calls = 0

    def span(self, name, rank=0):
        self.calls += 1
        return super().span(name, rank)

    def count(self, name, value=1):
        self.calls += 1


class TestZeroOverhead:
    """Disabled instrumentation must be within noise of no instrumentation.

    A direct paired timing of "instrumented but disabled" vs "physically
    un-instrumented" is impossible (the calls are compiled in) and a
    wall-clock A/B is noise-bound, so the guard is analytic: count every
    registry call a demo run makes, measure the true per-call cost of
    the disabled registry, and bound the product against the run's wall
    time.  The bound is the *maximum* the instrumentation can cost with
    the registry and telemetry off.
    """

    def test_disabled_instrumentation_within_noise(self):
        tally = _TallyRegistry()
        sim = tiny_sim()
        with use(tally):
            t0 = time.perf_counter()
            sim.run()
            wall = time.perf_counter() - t0
        assert tally.calls > 0, "demo run never touched the registry"

        null = NullRegistry()
        reps = 200_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with null.span("x"):
                pass
            null.count("x", 1)
        per_call = (time.perf_counter() - t0) / (2 * reps)

        overhead = tally.calls * per_call
        assert overhead < 0.10 * wall, (
            f"{tally.calls} disabled registry calls x {per_call:.2e}s "
            f"= {overhead:.4f}s exceeds 10% of the {wall:.4f}s run"
        )

    def test_null_span_is_cheap_in_absolute_terms(self):
        null = NullRegistry()
        reps = 100_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with null.span("x"):
                pass
        per_span = (time.perf_counter() - t0) / reps
        # generous ceiling: a no-op span must stay in sub-microsecond
        # territory (interpreter noise included), not milliseconds
        assert per_span < 2e-5
