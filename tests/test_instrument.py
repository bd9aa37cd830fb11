"""Tests for the instrumentation subsystem (repro.instrument).

Everything timing-related runs against an injected FakeClock so the
suite is deterministic; only the thread-safety tests use the real clock
(they assert counts and nesting, never durations).
"""

from __future__ import annotations

import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import instrument
from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.instrument import (
    FakeClock,
    NullRegistry,
    Registry,
    count,
    get_registry,
    name_self_times,
    path_self_times,
    span,
    timed,
    use,
)
from repro.instrument import exporters, report


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def registry(clock):
    """A live registry installed as the active one for the test."""
    reg = Registry(clock=clock)
    with use(reg):
        yield reg


@pytest.fixture(autouse=True)
def _restore_null_registry():
    """Never leak an enabled registry into other tests."""
    yield
    instrument.disable()


def tiny_sim(**kwargs):
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
    return HACCSimulation(SimulationConfig(**base))


def totals(reg) -> dict[str, dict]:
    """Per-name ``{total_s, self_s, calls}`` of a registry's events."""
    return name_self_times(reg.events)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_single_span_duration(self, registry, clock):
        with registry.span("work"):
            clock.advance(2.5)
        assert totals(registry)["work"]["total_s"] == 2.5
        assert totals(registry)["work"]["calls"] == 1

    def test_nested_spans_paths_and_totals(self, registry, clock):
        with registry.span("outer"):
            clock.advance(1.0)
            with registry.span("inner"):
                clock.advance(0.25)
            with registry.span("inner"):
                clock.advance(0.25)
        by_name = totals(registry)
        assert by_name["outer"] == {"calls": 1, "total_s": 1.5,
                                    "self_s": 1.0}
        assert by_name["inner"] == {"calls": 2, "total_s": 0.5,
                                    "self_s": 0.5}
        paths = path_self_times(registry.events)
        assert paths["outer/inner"]["calls"] == 2
        events = registry.events
        assert {e.path for e in events} == {"outer", "outer/inner"}

    def test_deep_nesting_path(self, registry, clock):
        with registry.span("a"), registry.span("b"), registry.span("c"):
            clock.advance(1.0)
        assert "a/b/c" in path_self_times(registry.events)

    def test_module_level_span_uses_active_registry(self, registry, clock):
        with span("modlevel"):
            clock.advance(0.5)
        assert totals(registry)["modlevel"]["total_s"] == 0.5

    def test_exception_still_closes_span(self, registry, clock):
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                clock.advance(1.0)
                raise RuntimeError("kaput")
        assert totals(registry)["boom"]["total_s"] == 1.0

    def test_timed_decorator(self, registry, clock):
        @timed("decorated")
        def work(x):
            clock.advance(0.75)
            return 2 * x

        assert work(21) == 42
        assert totals(registry)["decorated"]["total_s"] == 0.75

    def test_timed_decorator_respects_disable(self, clock):
        @timed("decorated")
        def work():
            clock.advance(1.0)

        reg = Registry(clock=clock)
        with use(reg):
            work()
        work()  # after restore: null registry, not recorded
        assert totals(reg)["decorated"]["calls"] == 1

    def test_every_span_is_kept(self, clock):
        reg = Registry(clock=clock)
        with use(reg):
            for _ in range(10):
                with reg.span("s"):
                    clock.advance(0.1)
        assert len(reg.events) == 10
        assert totals(reg)["s"]["calls"] == 10

    def test_span_event_is_slotted(self):
        ev = exporters.SpanEvent("s", "s", 0.0, 1.0, 1)
        assert not hasattr(ev, "__dict__")
        with pytest.raises(AttributeError):
            ev.name = "t"  # frozen

    def test_reset(self, registry, clock):
        with registry.span("s"):
            clock.advance(1.0)
        registry.count("c", 5)
        registry.reset()
        assert registry.events == []
        assert registry.counters == {}


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
class TestCounters:
    def test_accumulation(self, registry):
        registry.count("x")
        registry.count("x", 4)
        count("y", 2.5)
        assert registry.counters == {"x": 5, "y": 2.5}


# ----------------------------------------------------------------------
# step records: a window of events and counter deltas
# ----------------------------------------------------------------------
class TestStepRecords:
    def test_step_deltas(self, registry, clock):
        windows = []
        for dt, pairs in ((1.0, 100), (3.0, 50)):
            mark = registry.mark()
            with registry.span("step"):
                with registry.span("force"):
                    clock.advance(dt)
                registry.count("pairs", pairs)
            windows.append(registry.since(mark))
        (ev0, ctr0), (ev1, ctr1) = windows
        assert [e.path for e in ev1] == ["step/force", "step"]
        assert name_self_times(ev0)["force"]["total_s"] == 1.0
        assert name_self_times(ev1)["force"]["total_s"] == 3.0
        assert ctr0 == {"pairs": 100}
        assert ctr1 == {"pairs": 50}
        assert name_self_times(ev1)["step"]["total_s"] == 3.0
        assert name_self_times(ev1)["force"]["calls"] == 1
        # the run's record is every window, end to end
        assert registry.events == ev0 + ev1


# ----------------------------------------------------------------------
# exporters: round trips
# ----------------------------------------------------------------------
@pytest.fixture()
def populated(registry, clock):
    with registry.span("step"):
        with registry.span("longrange"):
            clock.advance(1.0)
            with registry.span("fft.forward"):
                clock.advance(0.5)
        with registry.span("shortrange"):
            clock.advance(2.0)
    registry.count("pp.interactions", 1234)
    return registry


class TestExporters:
    def test_chrome_trace_round_trip_and_nesting(self, populated, tmp_path):
        path = tmp_path / "trace.json"
        exporters.write_chrome_trace(populated, path)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        assert "traceEvents" in raw  # loadable by chrome://tracing
        loaded = exporters.load_chrome_trace(path)
        assert loaded["counters"] == {"pp.interactions": 1234}
        spans = loaded["spans"]
        assert sorted(s.name for s in spans) == sorted(
            e.name for e in populated.events
        )
        assert exporters.spans_nest(spans)
        by_name = {s.name: s for s in spans}
        fft = by_name["fft.forward"]
        lr = by_name["longrange"]
        assert fft.path == "step/longrange/fft.forward"
        assert lr.start <= fft.start and fft.end <= lr.end

    def test_spans_nest_rejects_overlap(self):
        bad = [
            exporters.SpanEvent("p", "p", 0.0, 1.0, 1),
            exporters.SpanEvent("c", "p/c", 0.5, 2.0, 1),  # leaks out
        ]
        assert not exporters.spans_nest(bad)

    def test_file_object_destinations(self, populated):
        buf = io.StringIO()
        exporters.write_chrome_trace(populated, buf)
        buf.seek(0)
        loaded = exporters.load_chrome_trace(buf)
        assert [(s.name, s.path) for s in loaded["spans"]] == [
            (e.name, e.path) for e in populated.events
        ]


class TestRankLanes:
    """Multi-rank span attribution in the exporters (pid-per-rank lanes)."""

    @pytest.fixture()
    def multi_rank(self, registry, clock):
        # interleaved per-rank FFT work, as the pencil sweep records it
        for rank in (0, 1, 2):
            with registry.span("fft.1d", rank=rank):
                clock.advance(0.5)
        with registry.span("reduce"):  # default lane: rank 0
            clock.advance(0.25)
        return registry

    def test_span_events_carry_rank(self, multi_rank):
        ranks = sorted(e.rank for e in multi_rank.events)
        assert ranks == [0, 0, 1, 2]

    def test_chrome_trace_has_one_lane_per_rank(self, multi_rank, tmp_path):
        path = tmp_path / "trace.json"
        n = exporters.write_chrome_trace(multi_rank, path)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)["traceEvents"]
        spans = [ev for ev in raw if ev["ph"] == "X"]
        meta = [ev for ev in raw if ev["ph"] == "M"]
        assert n == len(spans)  # metadata not counted
        assert sorted({ev["pid"] for ev in spans}) == [0, 1, 2]
        # each lane is labelled for the viewer
        labels = {ev["pid"]: ev["args"]["name"] for ev in meta}
        assert labels == {0: "rank 0", 1: "rank 1", 2: "rank 2"}

    def test_chrome_trace_round_trip_preserves_rank(
        self, multi_rank, tmp_path
    ):
        path = tmp_path / "trace.json"
        exporters.write_chrome_trace(multi_rank, path)
        loaded = exporters.load_chrome_trace(path)
        assert sorted(s.rank for s in loaded["spans"]) == [0, 0, 1, 2]

    def test_pencil_fft_records_per_rank_spans(self, registry):
        from repro.fft.pencil import PencilFFT

        p = PencilFFT(8, 2, 2)
        field = np.random.default_rng(3).normal(size=(8, 8, 8))
        back = p.gather(p.inverse(p.forward(p.scatter(field))), "z-pencil")
        assert np.allclose(back.real, field, atol=1e-12)
        lanes = {e.rank for e in registry.events if e.name == "fft.1d"}
        assert lanes == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# thread safety
# ----------------------------------------------------------------------
class TestThreadSafety:
    def test_concurrent_spans_and_counters(self):
        reg = Registry()  # real clock: assertions are count-based
        n_threads, n_iter = 8, 200

        def work(tid):
            for _ in range(n_iter):
                with reg.span("outer"):
                    with reg.span("inner"):
                        reg.count("ticks", 1)

        with use(reg):
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                list(pool.map(work, range(n_threads)))
        by_name = totals(reg)
        assert by_name["outer"]["calls"] == n_threads * n_iter
        assert by_name["inner"]["calls"] == n_threads * n_iter
        assert reg.counters["ticks"] == n_threads * n_iter
        # per-thread nesting survived concurrency
        assert all(
            e.path in ("outer", "outer/inner") for e in reg.events
        )
        assert exporters.spans_nest(reg.events)

    def test_threads_have_independent_stacks(self):
        reg = Registry()
        barrier = threading.Barrier(2)

        def work(name):
            with reg.span(name):
                barrier.wait(timeout=10)

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, ["a", "b"]))
        paths = {e.path for e in reg.events}
        assert paths == {"a", "b"}  # neither nested under the other


# ----------------------------------------------------------------------
# disabled (no-op) path
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_default_registry_is_null(self):
        assert isinstance(get_registry(), NullRegistry)
        assert not get_registry().enabled

    def test_null_span_is_shared_singleton(self):
        null = NullRegistry()
        s1 = null.span("a")
        s2 = null.span("b")
        assert s1 is s2  # no allocation per span on the disabled hot path

    def test_null_records_nothing(self):
        null = NullRegistry()
        with null.span("a"):
            pass
        null.count("c", 3)
        assert null.events == []
        assert null.counters == {}
        assert not null.enabled

    def test_simulation_run_disabled_leaves_no_trace(self):
        sim = tiny_sim()
        sim.run()
        assert get_registry().events == []
        assert get_registry().counters == {}

    def test_use_restores_previous(self):
        before = get_registry()
        with use(Registry()):
            assert get_registry() is not before
        assert get_registry() is before


# ----------------------------------------------------------------------
# wired hot paths
# ----------------------------------------------------------------------
class TestSimulationIntegration:
    def test_profiled_run_covers_table2_sections(self):
        reg = instrument.enable()
        sim = tiny_sim(backend="treepm", n_per_dim=8, n_steps=2,
                       n_subcycles=2)
        sim.run()
        by_name = totals(reg)
        for name in (
            "step", "longrange", "shortrange",
            "cic.deposit", "fft.forward", "poisson.filter", "fft.inverse",
            "cic.interpolate", "tree.build", "tree.walk", "pp.batch",
            "sks.stream", "sks.kick",
        ):
            assert by_name.get(name, {}).get("total_s", 0) > 0, name
        assert by_name["step"]["calls"] == 2
        assert reg.counters["sks.substeps"] == 4
        assert exporters.spans_nest(reg.events)

    def test_interaction_count_agrees_with_counter(self):
        reg = instrument.enable()
        sim = tiny_sim(backend="treepm", n_per_dim=8, n_steps=1)
        sim.run()
        assert sim.interaction_count() > 0
        counters = reg.counters
        assert counters["pp.interactions"] == sim.interaction_count()
        # 8 separation flops per streamed pair, 13 more inside the cutoff
        inside = counters["pp.batch.inside_pairs"]
        assert 0 < inside < sim.interaction_count()
        assert counters["pp.flops"] == (
            8.0 * sim.interaction_count() + 13.0 * inside
        )

    def test_pm_run_records_no_shortrange(self):
        reg = instrument.enable()
        sim = tiny_sim(backend="pm")
        sim.run()
        by_name = totals(reg)
        assert "pp.kernel" not in by_name
        assert by_name["fft.forward"]["total_s"] > 0
        # the driver's per-force time is the enabled registry's span
        assert by_name["longrange"]["total_s"] > 0

    def test_pencil_fft_sections_and_comm_counters(self):
        from repro.fft.pencil import PencilFFT

        reg = instrument.enable()
        fft = PencilFFT(8, 2, 2)
        x = np.random.default_rng(0).standard_normal((8, 8, 8))
        k = fft.gather(fft.forward(fft.scatter(x.astype(complex))),
                       "x-pencil")
        assert np.allclose(k, np.fft.fftn(x))
        by_name = totals(reg)
        for name in (
            "fft.pencil.scatter", "fft.pencil.forward",
            "fft.transpose.zy", "fft.transpose.yx", "fft.pencil.gather",
        ):
            assert name in by_name, name
        counters = reg.counters
        assert counters["comm.bytes"] > 0
        assert counters["comm.bytes[fft.transpose.zy]"] > 0
        # recorded transpose traffic matches the analytic per-rank count
        analytic = fft.transpose_bytes_per_rank() * fft.size
        recorded = counters["comm.bytes[fft.transpose.zy]"] + counters[
            "comm.bytes[fft.transpose.yx]"
        ]
        assert recorded == analytic


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
class TestReport:
    def _profiled_registry(self):
        reg = instrument.enable()
        sim = tiny_sim(backend="treepm", n_per_dim=8, n_steps=1,
                       n_subcycles=2)
        sim.run()
        return reg, sim

    def test_profile_rows_close_on_the_step(self):
        """The --profile rows are self times: with ``(other)`` they sum
        to the step total, as the report of the ledgered trace does."""
        from repro.instrument.analysis import analyze_spans

        reg, _ = self._profiled_registry()
        analysis = analyze_spans(reg.events)
        step = totals(reg)["step"]["total_s"]
        assert analysis.wall_s == step
        assert sum(p.self_s for p in analysis.phases) == pytest.approx(
            step, abs=1e-9
        )
        text = report.render_profile(reg)
        table = text.split("phase (by path)")[1].split("\n\n")[0]
        rows = [line for line in table.splitlines()[1:] if line.strip()]
        assert rows[-1].startswith("(other)")
        printed = sum(float(line[40:50]) for line in rows)
        # each printed row is rounded to 0.1 ms
        assert printed == pytest.approx(step, abs=0.5e-4 * len(rows))

    def test_bucket_fractions_sum_to_one(self):
        from repro.machine.paper_data import FULLCODE_TIME_SPLIT

        reg, _ = self._profiled_registry()
        buckets = report.bucket_seconds(reg.events)
        assert set(buckets) == {"kernel", "walk", "fft", "other"}
        # a serial run's buckets hold every self time: the step total
        assert sum(buckets.values()) == pytest.approx(
            totals(reg)["step"]["total_s"], abs=1e-9
        )
        assert all(buckets[b] > 0 for b in buckets)
        assert sum(FULLCODE_TIME_SPLIT.values()) == pytest.approx(1.0)

    def test_render_profile_mentions_every_row(self):
        reg, _ = self._profiled_registry()
        text = report.render_profile(reg)
        for label in ("cic.deposit", "fft.forward", "tree.walk",
                      "pp.batch", "sks.stream", "self s", "model/paper",
                      "kernel", "walk", "list efficiency"):
            assert label in text, label

    def test_write_bench_record(self, tmp_path):
        reg, sim = self._profiled_registry()
        path = report.write_bench_record(
            "unit/test", {"metric": 1.5}, directory=tmp_path,
            events=reg.events, counters=reg.counters,
        )
        assert path.name == "BENCH_unit_test.json"
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        assert rec["payload"] == {"metric": 1.5}
        assert rec["instrument"]["counters"]["pp.interactions"] == (
            sim.interaction_count()
        )
        # the batched engine charges PP time to pp.batch (the direct
        # solver charges pp.kernel; both feed the same row)
        assert rec["instrument"]["sections"]["pp.batch"]["seconds"] > 0


# ----------------------------------------------------------------------
# logging helper
# ----------------------------------------------------------------------
class TestLoggingSetup:
    @pytest.mark.parametrize(
        "verbosity, level",
        [(-2, 30), (-1, 30), (0, 20), (1, 10), (3, 10)],
    )
    def test_levels(self, verbosity, level):
        logger = instrument.logging_setup(verbosity, stream=io.StringIO())
        assert logger.level == level

    def test_idempotent_handler(self):
        stream = io.StringIO()
        logger = instrument.logging_setup(0, stream=stream)
        instrument.logging_setup(0, stream=stream)
        named = [h for h in logger.handlers if h.get_name() == "repro-cli"]
        assert len(named) == 1

    def test_messages_reach_stream(self):
        stream = io.StringIO()
        logger = instrument.logging_setup(0, stream=stream)
        logger.info("hello from repro")
        assert "hello from repro" in stream.getvalue()
