"""Self-test of the benchmark harness: seconds, no simulation.

    python -m pytest benchmarks/e2e/test_harness.py
    python benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from spans import Tracer, budget_rows, self_times  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    config_fields,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    """Advances only when told to."""

    def __init__(self) -> None:
        self.now = 1_000

    def __call__(self) -> int:
        return self.now


def fake_trace():
    """step(100) > shortrange(60) > solve(45); step > longrange(10);
    then probes(30) and close(5), with a gap of 7 before close."""
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("core.step[0]"):
        clock.now += 20
        with tracer.span("shortrange.total"):
            clock.now += 15
            with tracer.span("parallel.solve"):
                clock.now += 45
        with tracer.span("grid.longrange"):
            clock.now += 10
        clock.now += 10
    with tracer.span("harness.probes"):
        clock.now += 30
    clock.now += 7
    with tracer.span("core.close"):
        clock.now += 5
    return tracer.spans, clock.now - 1_000


def test_self_time_is_parent_minus_direct_children():
    spans, _ = fake_trace()
    selfs = dict(zip((s[0] for s in spans), self_times(spans)))
    # the grandchild (solve, 45) is taken off shortrange, not off step
    assert selfs["core.step[0]"] == 100 - 60 - 10
    assert selfs["shortrange.total"] == 60 - 45
    assert selfs["parallel.solve"] == 45
    assert selfs["core.close"] == 5


def test_budget_closes_exactly_and_excludes_probes():
    spans, elapsed = fake_trace()
    wall = elapsed + 13  # interpreter start + teardown outside any span
    budget_wall, rows = budget_rows(spans, wall)
    assert budget_wall == wall - 30
    top = [(name, ns) for depth, name, ns in rows if depth == 0]
    assert top == [("core.step[0]", 100), ("core.close", 5),
                   ("unattributed", 7 + 13)]
    assert sum(ns for _, ns in top) == budget_wall
    under_step = [(name, ns) for depth, name, ns in rows if depth == 1]
    assert under_step == [("shortrange.total", 60), ("grid.longrange", 10),
                          ("self", 30)]
    assert "harness.probes" not in [name for _, name, _ in rows]


def test_budget_sums_same_name_siblings():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("core.step[0]"):
        for cost in (3, 4):
            with tracer.span("grid.longrange"):
                clock.now += cost
    _, rows = budget_rows(tracer.spans, 7)
    assert (1, "grid.longrange", 7) in rows
    assert rows[-1] == (0, "unattributed", 0)


def test_configs_are_a_pure_function_of_workload_and_seed():
    for name in WORKLOADS:
        a, b = config_fields(name, 1), config_fields(name, 2)
        assert a == config_fields(name, 1)
        assert {k for k in a if a[k] != b[k]} == {"seed"}
    sys.path.insert(0, str(ROOT / "src"))
    from repro.config import SimulationConfig

    full = [SimulationConfig(**config_fields("small-16-ckpt", s)).to_dict()
            for s in (1, 1, 2)]
    assert full[0] == full[1]
    assert {k for k in full[0] if full[0][k] != full[2][k]} == {"seed"}


def test_benchmark_json_names_match_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] \
            == list(table)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_run_prints_every_metric_name():
    stat = {"value": 1.0, "min": 0.9, "max": 1.1, "n": 3, "n_run": 3,
            "samples": [0.9, 1.0, 1.1]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_end_to_end("w", {m: stat for m, _, _ in END_TO_END})
        run.print_traced("w", {
            "metrics": {m: None for m, _, _ in PER_LAYER},
            "budget": {"wall_s": 1.0, "probes_s": 0.0,
                       "rows": [(0, "unattributed", 1.0)]},
            "skipped_probes": {"grid": "ImportError: gone"},
            "stream_array_mb": None,
        })
    text = out.getvalue()
    for key in ("end_to_end", "per_layer"):
        for metric in SPEC[key]:
            assert metric["name"] in text and metric["unit"] in text
    assert "skipped_probes" in text


def test_a_probe_whose_function_is_gone_is_skipped_not_fatal():
    import probes

    def gone():
        raise ImportError("cannot import name 'pack_tree'")

    metrics, skipped = {"core.step_s": 1.0}, {}
    probes.run_probe(metrics, skipped, "shortrange", gone)
    assert metrics == {"core.step_s": 1.0}
    assert "ImportError" in skipped["shortrange"]


def result_set(run_wall: float, spread: float = 0.01) -> dict:
    """Three samples per metric whose quartile distance is ``spread``."""
    def stat(value: float) -> dict:
        samples = [value * (1 - spread), value, value * (1 + spread)]
        return {"value": value, "min": samples[0], "max": samples[2],
                "n": 3, "n_run": 3, "samples": samples}

    return {"workloads": {"treepm-f64-32": {
        "end_to_end": {"run_wall_s": stat(run_wall), "setup_s": stat(0.8)},
        "runs": [{"attempted": 7, "failed": 0}],
    }}}


def statuses(a: dict, b: dict) -> dict:
    rows = compare.compare(a, b, compare.load_bounds())
    return {metric: status for _, metric, *_, status in rows}


def test_compare_applies_the_bound():
    bound = compare.load_bounds()["run_wall_s"][1]
    base = result_set(10.0)
    assert statuses(base, result_set(10.0 * (1 + bound + 0.01)))[
        "run_wall_s"] == "BREACH"
    assert statuses(base, result_set(10.0 * (1 + bound - 0.01)))[
        "run_wall_s"] == "ok"
    assert statuses(base, base)["setup_s"] == "ok"


def test_compare_reports_wide_spread_as_unresolved():
    bound = compare.load_bounds()["run_wall_s"][1]
    noisy = result_set(10.0, spread=bound + 0.02)
    assert statuses(result_set(10.0), noisy)["run_wall_s"] == "UNRESOLVED"
    # unless every run of B beats every run of A
    assert statuses(noisy, result_set(5.0))["run_wall_s"] == "improved"


def test_compare_rejects_any_new_failure():
    failing = result_set(10.0)
    failing["workloads"]["treepm-f64-32"]["runs"][0]["failed"] = 1
    assert statuses(result_set(10.0), failing)["run_fail_frac"] == "BREACH"


def test_sample_is_scaled_to_the_reference_speed():
    # a host 1.25x slower than the reference, the sampler on 8 % of the core
    sample = run.Sample("plain", wall_s=2.7, cpu_s=2.4, rss_mb=100.0,
                        status=0, speed=0.8, sampler_cpu_s=0.2)
    assert abs(sample.wall_ref_s - 2.0) < 1e-12
    assert abs(sample.cpu_ref_s - 1.92) < 1e-12
    assert run.succeeded([sample]) == [sample]
    sample.failure = "timed out after 9 s"
    assert run.succeeded([sample]) == []


def test_speed_sampler_reads_until_stopped():
    import time

    sampler = run.SpeedSampler(sorted(run.os.sched_getaffinity(0))[-1])
    sampler.start()
    time.sleep(3 * run.PROBE_PERIOD_S)
    sampler.finish()
    assert not sampler.is_alive()
    assert len(sampler.readings) >= 2 and min(sampler.readings) > 0
    assert sampler.cpu_s >= sum(sampler.readings)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
