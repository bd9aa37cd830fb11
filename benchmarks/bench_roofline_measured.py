"""Measured roofline record — the data behind the gate's roofline rows.

Runs the same tiny instrumented TreePM demo at both precisions, pairs
the counted analytic work (:mod:`repro.instrument.perfcount`) with the
measured span seconds and this host's calibrated peak
(:mod:`repro.machine.calibrate`), and leaves a repo-root
``BENCH_roofline.json`` carrying per-phase achieved GFLOP/s, arithmetic
intensity, and fraction of calibrated peak.  ``check_regression.py``
then holds three invariants: the ``ROOFLINE_REQUIRED_PHASES`` counters
are wired (nonzero flops), every fraction of peak is sane (at most
``ROOFLINE_MAX_FRAC_PEAK``), and the pair phase's f32 arithmetic intensity
stays at or above f64 — the bandwidth half of the paper's
mixed-precision argument, reproduced from the byte accounting alone.
"""

import tempfile
import time
from pathlib import Path

import pytest

from repro import instrument
from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.instrument import Registry, roofline_table
from repro.instrument.report import write_bench_record
from repro.machine.calibrate import calibrate

from check_regression import ROOFLINE_MAX_FRAC_PEAK, ROOFLINE_REQUIRED_PHASES
from conftest import print_table

REPO_ROOT = Path(__file__).resolve().parents[1]


def _demo_config(precision: str) -> SimulationConfig:
    return SimulationConfig(
        box_size=32.0,
        n_per_dim=12,
        z_initial=25.0,
        z_final=20.0,
        n_steps=3,
        backend="treepm",
        dtype=precision,
        seed=11,
    )


class TestMeasuredRoofline:
    def test_roofline_record(self, benchmark):
        def measure() -> dict:
            out = {}
            for precision in ("f64", "f32"):
                reg = Registry()
                sim = HACCSimulation(_demo_config(precision))
                with instrument.use(reg):
                    t0 = time.perf_counter()
                    sim.run()
                    wall = time.perf_counter() - t0
                out[precision] = {
                    "events": reg.events,
                    "counters": reg.counters,
                    "wall_s": wall,
                }
            return out

        runs = benchmark.pedantic(measure, rounds=1, iterations=1)

        # calibrate into a scratch dir: the bench record embeds the
        # measurement, the repo never carries a host-specific cache
        with tempfile.TemporaryDirectory() as tmp:
            cal = calibrate(root=tmp)

        payload_runs: dict = {}
        pair_ai: dict = {}
        table_rows = []
        for precision, data in runs.items():
            table = roofline_table(data["events"], data["counters"], cal)
            by_name = {row["name"]: row for row in table["phases"]}

            # the counters must be wired for every compute phase
            for name in ROOFLINE_REQUIRED_PHASES:
                assert name in by_name, (
                    f"{precision}: phase {name!r} missing from the "
                    f"work summary — its counters never fired"
                )
                assert by_name[name]["flops"] > 0
                frac = by_name[name]["frac_peak"]
                assert 0.0 < frac <= ROOFLINE_MAX_FRAC_PEAK, (
                    f"{precision}/{name}: fraction of peak {frac:.4f} "
                    f"is not sane"
                )
                table_rows.append(
                    [
                        f"{precision}/{name}",
                        f"{by_name[name]['seconds']:.4f}",
                        f"{by_name[name]['gflops']:.3f}",
                        f"{by_name[name]['gbytes_per_s']:.3f}",
                        f"{100 * frac:.2f}%",
                        by_name[name]["bound_by"],
                    ]
                )

            pair_ai[precision] = by_name["shortrange"][
                "arithmetic_intensity"
            ]
            payload_runs[precision] = {
                "wall_s": data["wall_s"],
                "phases": by_name,
                "total": table["total"],
            }

        print_table(
            f"Measured roofline (peak {cal.peak_gflops:.1f} GFLOP/s, "
            f"triad {cal.stream_gbs:.1f} GB/s)",
            ["phase", "seconds", "GFLOP/s", "GB/s", "% peak", "bound"],
            table_rows,
        )

        # same pair flops, half the streamed bytes: f32 AI >= f64 AI
        assert pair_ai["f32"] >= pair_ai["f64"], (
            f"pair AI f32 {pair_ai['f32']:.3f} < f64 "
            f"{pair_ai['f64']:.3f} — byte accounting lost its "
            f"precision dependence"
        )
        assert pair_ai["f32"] == pytest.approx(2 * pair_ai["f64"])

        payload = {
            "nodeid": "bench_roofline_measured.py::roofline",
            "duration_s": sum(d["wall_s"] for d in runs.values()),
            "problem": {
                "box_size": 32.0,
                "n_per_dim": 12,
                "n_steps": 3,
                "backend": "treepm",
            },
            "calibration": cal.to_dict(),
            "runs": payload_runs,
            "pair_ai": pair_ai,
        }
        path = write_bench_record("roofline", payload, directory=REPO_ROOT)
        print(f"record -> {path}")
