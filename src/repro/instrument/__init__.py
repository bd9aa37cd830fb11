"""Instrumentation: hierarchical span timers and counters.

The observability layer that turns the reproduction's hot paths into the
paper's per-kernel accounting (Table II attributes time and flops to CIC
deposit, FFT, spectral filtering, tree walk and the PP kernel; HACC
itself ships built-in per-section timers, cf. arXiv:1410.2805).

Design
------
A process-global *registry* holds the run's one timing record:

* **span events** — named, nested wall-clock sections entered via the
  :func:`span` context manager or the :func:`timed` decorator.  Nesting
  is tracked per thread (a thread-local stack), recording is protected
  by a single lock, and the clock is injected so tests are deterministic;
* **counters** — monotonically accumulated quantities (PP interactions,
  flops, FFT points, communication bytes).

Every time figure is a projection of the events, computed when asked
(:func:`path_self_times`, :func:`name_self_times`): the ``--profile``
view, the roofline phases, a BENCH record's section totals and a step's
telemetry ``perf`` block alike, so a reloaded trace reproduces each.

The default registry is a :class:`NullRegistry` whose ``span`` returns a
shared no-op context manager and whose ``count`` does nothing: with
profiling disabled the hot paths take **no locks and perform no
allocations** (a test pins this down).  Call :func:`enable` to install a
live :class:`Registry`, :func:`disable` to go back to the no-op.

The exporter (:mod:`repro.instrument.exporters`) serializes a registry
to Chrome ``trace_event`` JSON; the reporting surface
(:mod:`repro.instrument.report`) renders the measured-vs-model table and
machine-readable ``BENCH_*.json`` records.  Per-rank telemetry
(:mod:`repro.instrument.telemetry`) is no global: it is off unless a
run sets ``sim.telemetry``.

This ``__init__`` resolves its exports lazily
(:func:`repro._lazy.lazy_exports`): ``from repro.instrument import
get_registry`` loads only the registry, so a run that asks for no
telemetry, health monitor or ledger never imports them.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "registry": (
        "WORKER_LANE_BASE", "FakeClock", "NullRegistry", "Registry",
        "SpanEvent", "count", "disable", "enable", "get_registry",
        "name_self_times", "path_self_times", "set_registry", "span",
        "timed", "use",
    ),
    "logconfig": ("logging_setup",),
    "telemetry": (
        "RunStream", "StepTelemetry", "StreamFollower", "Telemetry",
        "imbalance_factor", "read_stream", "run_manifest", "sparkline",
    ),
    "health": (
        "HealthEvent", "HealthMonitor", "HealthThresholds", "SimulationHealth",
        "Threshold",
    ),
    "store": ("RunEntry", "RunLedger", "default_ledger_root", "git_revision"),
    "analysis": (
        "RunAnalysis", "RunComparison", "analyze", "compare",
        "render_analysis", "render_comparison",
    ),
    "perfcount": (
        "PhaseWork", "achieved_gflops", "render_roofline", "roofline_table",
        "step_perf", "work_summary",
    ),
})
