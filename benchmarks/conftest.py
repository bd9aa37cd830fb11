"""Shared fixtures for the benchmark harness.

``science_run`` evolves one small TreePM simulation from z=25 to z=0 with
snapshots at the paper's Fig. 9/10 redshift frames; the figure benches
(Figs. 2, 9, 10, 11) analyze it.  It is session-scoped: the run happens
once per benchmark session.

Every bench prints the paper-vs-reproduction rows it regenerates (run
with ``-s`` to see them inline); tolerances are asserted so the bench
suite doubles as a regression gate on the reproduction quality.

Each bench additionally leaves a machine-readable ``BENCH_<name>.json``
record (outcome, duration, and — when instrumentation is enabled — the
section/counter summary) under ``benchmarks/records/`` via
:func:`repro.instrument.report.write_bench_record`; point
``REPRO_BENCH_DIR`` elsewhere to redirect them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro import HACCSimulation, SimulationConfig
from repro.instrument import get_registry
from repro.instrument.report import write_bench_record

#: redshift frames of Figs. 9/10
FRAME_REDSHIFTS = (5.5, 3.0, 1.9, 0.9, 0.4, 0.0)


@dataclass
class ScienceRun:
    """A completed small-scale science run plus its snapshot ladder."""

    config: SimulationConfig
    sim: HACCSimulation
    snapshots: dict = field(default_factory=dict)  # z label -> positions copy
    actual_z: dict = field(default_factory=dict)   # z label -> capture z

    @property
    def final_positions(self) -> np.ndarray:
        return self.sim.particles.positions


def _run_science(n_per_dim: int = 24) -> ScienceRun:
    config = SimulationConfig(
        box_size=100.0,
        n_per_dim=n_per_dim,
        z_initial=25.0,
        z_final=0.0,
        n_steps=14,
        n_subcycles=2,
        backend="treepm",
        step_spacing="loga",
        seed=2012,
    )
    sim = HACCSimulation(config)
    run = ScienceRun(config=config, sim=sim)
    targets = sorted(FRAME_REDSHIFTS, reverse=True)
    pending = list(targets)

    def on_step(s: HACCSimulation) -> None:
        while pending and s.redshift <= pending[0]:
            label = pending.pop(0)
            run.snapshots[label] = s.particles.positions.copy()
            # coarse steps can overshoot the target; record the truth
            run.actual_z[label] = max(s.redshift, 0.0)

    sim.run(callback=on_step)
    return run


@pytest.fixture(scope="session")
def science_run() -> ScienceRun:
    return _run_science()


_RECORD_DIR = Path(__file__).parent / "records"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    registry = get_registry()
    payload = {
        "nodeid": item.nodeid,
        "outcome": report.outcome,
        "duration_s": report.duration,
    }
    write_bench_record(
        item.name,
        payload,
        directory=os.environ.get("REPRO_BENCH_DIR") or _RECORD_DIR,
        events=registry.events if registry.enabled else None,
        counters=registry.counters if registry.enabled else None,
    )


@pytest.fixture()
def rng():
    """Fresh deterministic generator per bench."""
    return np.random.default_rng(20121119)  # arXiv posting date seed


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Uniform table printer for paper-vs-model output."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))
