"""Measured work accounting: analytic FLOP/byte counts per profiled phase.

Spans record *seconds*; this module pairs them with *work* so a profiled
run reports achieved GFLOP/s, arithmetic intensity, and fraction of the
calibrated host peak per phase — the measured analogue of the paper's
Section IV.B hardware-counter table (142.32 GFlops/node = 69.5% of peak,
52x memory-bandwidth headroom).

The accounting is **analytic**: hot paths charge ``*.flops`` / ``*.bytes``
counters derived from the operation counts they already track (pair
interactions, particles deposited, FFT points) times the per-unit costs
defined here.  There are no hardware counters in interpreted Python; what
is measured is the *time*, and the work model converts counted operations
into the flops and memory traffic an ideal implementation of the same
algorithm performs.  That makes "fraction of peak" a statement about the
algorithm's throughput on this host, directly comparable across backends
and precisions (the f32 path charges half the bytes of f64 for the same
flops — the bandwidth half of the paper's mixed-precision argument).

Per-unit work model (single source of truth — the hand-computed test
assertions in ``tests/test_perfcount.py`` pin every constant):

========== =============================================================
phase       per-unit flops / bytes
========== =============================================================
shortrange  ``PAIR_FLOPS`` = 21 flops per pair interaction (Section III:
            168 flops per 26-instruction unrolled iteration covering 8
            interactions), split as the backends execute it:
            ``PAIR_SEPARATION_FLOPS`` = 8 on every *streamed* pair (three
            subtracts, three squares, two adds) and
            ``PAIR_KERNEL_FLOPS`` = 13 on every pair *inside the cutoff*
            (softening add, reciprocal square-root cube, degree-5
            Horner, mass and three component multiply-accumulates); 4
            streamed operands per streamed pair (neighbor x, y, z, m) ×
            itemsize bytes — targets and accumulators stay in registers,
            as in the QPX kernel.
cic         47 flops per particle per pass: 12 coordinate preparation
            (scale/wrap/floor/frac × 3 dims) + 3 complement weights +
            16 corner-weight products (8 corners × 2 multiplies) + 16
            scatter/gather multiply-adds.  Bytes: 8 corners × (grid
            read + write × itemsize + an 8-byte flattened index).
fft         ``5 N log2 N`` flops per N-point transform (the standard
            radix-2 butterfly count); bytes: one complex load + store
            per point per radix-2 pass (``2 × complex_itemsize × N ×
            log2 N``) — the classic AI ≈ 5/32 memory-bound placement.
filter      6 flops per point (one complex multiply) and 3 complex
            operands per point (field in, kernel in, field out); folded
            into the fft phase like the Table II bucket.
comm        0 flops; bytes are the already-counted ``comm.bytes``.
========== =============================================================

Every figure here is a projection of one record, a run's span events
and counters (``(events, counters)``: a live registry's ``events`` and
``counters``, or the ``spans`` and ``counters`` of a reloaded Chrome
trace), so the ledger's stored trace reproduces the live numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.instrument.registry import (
    SpanEvent,
    get_registry,
    name_self_times,
)

__all__ = [
    "PAIR_FLOPS",
    "PAIR_SEPARATION_FLOPS",
    "PAIR_KERNEL_FLOPS",
    "PAIR_STREAMED_OPERANDS",
    "pair_flops",
    "charge_pairs",
    "list_efficiency",
    "list_efficiency_line",
    "CIC_FLOPS_PER_PARTICLE",
    "CIC_INDEX_BYTES",
    "FILTER_FLOPS_PER_POINT",
    "FILTER_OPERANDS_PER_POINT",
    "pair_bytes",
    "cic_bytes",
    "fft_flops",
    "fft_bytes",
    "filter_flops",
    "filter_bytes",
    "PhaseWork",
    "PHASES",
    "work_summary",
    "achieved_gflops",
    "step_perf",
    "roofline_table",
    "render_roofline",
]

#: flops per pair interaction (Section III: 168 flops / 8 interactions)
PAIR_FLOPS = 21.0

#: the part of ``PAIR_FLOPS`` spent on every streamed pair (squared
#: separation) and the part spent only inside the cutoff (the force)
PAIR_SEPARATION_FLOPS = 8.0
PAIR_KERNEL_FLOPS = PAIR_FLOPS - PAIR_SEPARATION_FLOPS

#: values streamed per pair: neighbor x, y, z and mass (the target
#: coordinates and the force accumulator live in registers)
PAIR_STREAMED_OPERANDS = 4

#: flops per particle per CIC pass (deposit or gather): 12 coordinate
#: prep + 3 complement weights + 16 corner-weight products + 16
#: multiply-adds into/out of the 8 corners
CIC_FLOPS_PER_PARTICLE = 47.0

#: bytes per flattened corner index (int64)
CIC_INDEX_BYTES = 8

#: flops per grid point of the spectral filter (one complex multiply)
FILTER_FLOPS_PER_POINT = 6.0

#: complex operands touched per filtered point: field in, kernel in,
#: field out
FILTER_OPERANDS_PER_POINT = 3


def pair_flops(n_streamed: float, n_inside: float) -> float:
    """Flops of ``n_streamed`` listed pairs, ``n_inside`` within cutoff."""
    return PAIR_SEPARATION_FLOPS * float(n_streamed) + (
        PAIR_KERNEL_FLOPS * float(n_inside)
    )


def pair_bytes(n_pairs: float, itemsize: int) -> float:
    """Streamed bytes for ``n_pairs`` interactions at ``itemsize``."""
    return float(n_pairs) * PAIR_STREAMED_OPERANDS * itemsize


def charge_pairs(n_streamed: int, n_inside: int, itemsize: int) -> None:
    """Charge one solve's ``pp.*`` pair work, on the thread that did it.

    ``Registry.count`` holds a lock and every value is an integer far
    below 2**53, so totals do not depend on the order of the charges.
    """
    if not n_streamed:
        return
    reg = get_registry()
    reg.count("pp.interactions", n_streamed)
    reg.count("pp.batch.inside_pairs", n_inside)
    reg.count("pp.flops", pair_flops(n_streamed, n_inside))
    # streamed traffic in the kernel's precision: the f32 path charges
    # half the bytes of f64 for identical flops
    reg.count("pp.bytes", pair_bytes(n_streamed, itemsize))


def cic_bytes(n_particles: float, itemsize: int) -> float:
    """Traffic of one CIC pass: 8 corners × (read + write + index)."""
    return float(n_particles) * 8 * (2 * itemsize + CIC_INDEX_BYTES)


def fft_flops(n_points: float) -> float:
    """``5 N log2 N`` butterfly flops for one N-point transform."""
    n = float(n_points)
    if n < 2:
        return 0.0
    return 5.0 * n * math.log2(n)


def fft_bytes(n_points: float, complex_itemsize: int = 16) -> float:
    """One complex load + store per point per radix-2 pass."""
    n = float(n_points)
    if n < 2:
        return 0.0
    return 2.0 * complex_itemsize * n * math.log2(n)


def filter_flops(n_points: float) -> float:
    """Complex-multiply flops of the spectral filter."""
    return FILTER_FLOPS_PER_POINT * float(n_points)


def filter_bytes(n_points: float, complex_itemsize: int = 16) -> float:
    """Filter traffic: field read + kernel read + field write."""
    return FILTER_OPERANDS_PER_POINT * complex_itemsize * float(n_points)


# ----------------------------------------------------------------------
# phase aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseWork:
    """Seconds + analytic work of one roofline phase."""

    name: str
    seconds: float
    flops: float
    bytes: float

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s (0 when no time was recorded)."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def gbytes_per_s(self) -> float:
        """Achieved GB/s of modeled traffic."""
        return self.bytes / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of modeled traffic (``inf`` for zero bytes)."""
        if self.bytes <= 0:
            return float("inf") if self.flops > 0 else 0.0
        return self.flops / self.bytes

    def fraction_of_peak(self, peak_gflops: float) -> float:
        """Achieved / calibrated-peak flop rate."""
        return self.gflops / peak_gflops if peak_gflops > 0 else 0.0

    def bound_by(self, balance_flops_per_byte: float) -> str:
        """Roofline classification against the machine balance point."""
        if self.flops <= 0:
            return "comm" if self.bytes > 0 else "-"
        ai = self.arithmetic_intensity
        return "compute" if ai >= balance_flops_per_byte else "memory"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "flops": self.flops,
            "bytes": self.bytes,
            "gflops": self.gflops,
            "gbytes_per_s": self.gbytes_per_s,
            "arithmetic_intensity": (
                self.arithmetic_intensity
                if self.arithmetic_intensity != float("inf")
                else None
            ),
        }


#: roofline phases: name -> (span names, flops counter, bytes counter).
#: The spans are the ones the simulation already opens; the counters are
#: charged by the hot paths (kernel seam, CIC, Poisson/pencil FFTs, comm).
PHASES: tuple[tuple[str, tuple[str, ...], str, str], ...] = (
    ("shortrange", ("pp.kernel", "pp.batch"), "pp.flops", "pp.bytes"),
    ("cic", ("cic.deposit", "cic.interpolate"), "cic.flops", "cic.bytes"),
    ("fft",
     ("fft.forward", "fft.inverse", "poisson.filter",
      "fft.pencil.forward", "fft.pencil.inverse"),
     "fft.flops", "fft.bytes"),
    ("comm", (), "", "comm.bytes"),
)


def _total_s(totals: dict[str, dict], names: tuple[str, ...]) -> float:
    """Summed total time of the spans named ``names``."""
    return sum(totals[n]["total_s"] for n in names if n in totals)


def _work(counters: dict) -> tuple[float, float]:
    """Charged ``(flops, bytes)`` summed over the roofline phases."""
    return (
        sum(float(counters.get(c, 0.0)) for _, _, c, _ in PHASES if c),
        sum(float(counters.get(c, 0.0)) for _, _, _, c in PHASES),
    )


def work_summary(
    events: list[SpanEvent], counters: dict
) -> list[PhaseWork]:
    """Per-phase :class:`PhaseWork` of a run's span events and counters.

    Phases with neither time nor work are omitted.  ``comm`` has no span
    of its own: its traffic overlaps the exchange inside the stepped
    time, so its volume is reported against the ``step`` total, and
    only when the run moved bytes (a decomposed or pencil-FFT run).
    """
    totals = name_self_times(events)
    out = []
    for name, spans, flops_ctr, bytes_ctr in PHASES:
        flops = float(counters.get(flops_ctr, 0.0)) if flops_ctr else 0.0
        nbytes = float(counters.get(bytes_ctr, 0.0))
        if name == "comm":
            if nbytes <= 0:
                continue
            seconds = _total_s(totals, ("step",))
        else:
            seconds = _total_s(totals, spans)
        if flops == 0.0 and nbytes == 0.0 and seconds == 0.0:
            continue
        out.append(
            PhaseWork(name=name, seconds=seconds, flops=flops, bytes=nbytes)
        )
    return out


def list_efficiency(counters: dict) -> float | None:
    """In-cutoff share of the pairs the batched engine streamed.

    ``pp.batch.inside_pairs`` ÷ ``pp.interactions`` of a counters dict;
    ``None`` when no batched evaluation ran (``pm`` / ``direct``).
    """
    inside = float(counters.get("pp.batch.inside_pairs", 0.0))
    streamed = float(counters.get("pp.interactions", 0.0))
    if inside <= 0 or streamed <= 0:
        return None
    return inside / streamed


def list_efficiency_line(counters: dict) -> str | None:
    """The ``list efficiency`` line of ``report --roofline`` and
    ``run --profile``."""
    efficiency = list_efficiency(counters)
    if efficiency is None:
        return None
    return (
        f"list efficiency: {100 * efficiency:.1f}% "
        f"({float(counters['pp.batch.inside_pairs']):.3e} of "
        f"{float(counters['pp.interactions']):.3e} streamed pairs "
        f"inside the cutoff)"
    )


def achieved_gflops(
    events: list[SpanEvent], counters: dict
) -> float | None:
    """Whole-run achieved GFLOP/s: total charged flops over stepped time.

    The denominator is the time under ``step`` spans (the run's
    instrumented wall); returns ``None`` when the record holds no flops
    or no stepped time — e.g. an un-instrumented run.
    """
    flops, _ = _work(counters)
    seconds = _total_s(name_self_times(events), ("step",))
    if flops <= 0 or seconds <= 0:
        return None
    return flops / seconds / 1e9


def step_perf(events: list[SpanEvent], counters: dict) -> dict | None:
    """Achieved-throughput summary of one step's events and counters.

    ``events`` and ``counters`` are the step's window
    (:meth:`repro.instrument.Registry.since`): the spans it closed,
    ``step`` among them, and its counter deltas.  Returns ``{"gflops",
    "pair_ns", "ai"}`` — flushed into the telemetry stream each step so
    the monitor dashboard can show live achieved ns/pair without
    waiting for the run to finish.  ``None`` when the step charged no
    work (un-instrumented or kernel-free steps).
    """
    flops, nbytes = _work(counters)
    if flops <= 0:
        return None
    totals = name_self_times(events)
    wall = _total_s(totals, ("step",))
    perf: dict = {
        "gflops": flops / wall / 1e9 if wall > 0 else 0.0,
        "ai": flops / nbytes if nbytes > 0 else None,
    }
    pairs = float(counters.get("pp.interactions", 0.0))
    pair_s = _total_s(totals, PHASES[0][1])
    if pairs > 0 and pair_s > 0:
        perf["pair_ns"] = 1e9 * pair_s / pairs
    return perf


# ----------------------------------------------------------------------
# roofline table (measured vs model)
# ----------------------------------------------------------------------
def _model_point() -> dict:
    """The paper's Section IV.B placement (the roofline's model line).

    Derived from :class:`repro.machine.roofline.InstructionMixModel`:
    sustained 142.32 GFlops of a 204.8 GFlops node (69.5% of peak) at
    the measured 0.344 B/cycle of traffic.
    """
    from repro.machine.roofline import InstructionMixModel

    model = InstructionMixModel()
    sustained = 142.32
    point = model.roofline(sustained)
    return {
        "frac_peak": sustained * 1e9 / model.node.flops_per_node_peak,
        "arithmetic_intensity": point.arithmetic_intensity,
        "bandwidth_headroom": model.bandwidth_headroom(),
        "memory_bound": point.memory_bound,
    }


def roofline_table(
    events: list[SpanEvent], counters: dict, calibration
) -> dict:
    """Machine-readable roofline placement of a run's phases.

    The phases are :func:`work_summary` of ``(events, counters)``.
    ``calibration`` is a :class:`repro.machine.calibrate.HostCalibration`
    giving this host's measured peak GFLOP/s and STREAM-triad GB/s; the
    balance point ``peak / bandwidth`` classifies each phase as compute-
    or memory-bound.  The ``model`` block carries the paper's Section
    IV.B placement, apart from the measured rows.  A ``list_efficiency``
    block rides along when the run listed pairs.
    """
    phases = work_summary(events, counters)
    balance = calibration.balance()
    rows = []
    for ph in phases:
        row = ph.to_dict()
        row["frac_peak"] = ph.fraction_of_peak(calibration.peak_gflops)
        row["frac_stream"] = (
            ph.gbytes_per_s / calibration.stream_gbs
            if calibration.stream_gbs > 0
            else 0.0
        )
        row["bound_by"] = ph.bound_by(balance)
        rows.append(row)
    total = PhaseWork(
        name="total",
        seconds=sum(p.seconds for p in phases if p.name != "comm"),
        flops=sum(p.flops for p in phases),
        bytes=sum(p.bytes for p in phases),
    )
    trow = total.to_dict()
    trow["frac_peak"] = total.fraction_of_peak(calibration.peak_gflops)
    trow["bound_by"] = total.bound_by(balance)
    table = {
        "calibration": calibration.to_dict(),
        "balance_flops_per_byte": balance,
        "phases": rows,
        "total": trow,
        "model": _model_point(),
    }
    listed = list_efficiency(counters)
    if listed is not None:
        table["list_efficiency"] = {
            "pp.batch.inside_pairs": counters["pp.batch.inside_pairs"],
            "pp.interactions": counters["pp.interactions"],
            "efficiency": listed,
        }
    return table


def _fmt_ai(value) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return "inf"
    return f"{value:.3f}"


def render_roofline(table: dict) -> str:
    """Human-readable roofline table (the ``report --roofline`` view)."""
    cal = table["calibration"]
    model = table["model"]
    lines = [
        (
            f"host calibration: peak {cal['peak_gflops']:.2f} GFLOP/s, "
            f"STREAM triad {cal['stream_gbs']:.2f} GB/s "
            f"(balance {table['balance_flops_per_byte']:.2f} flops/byte)"
        ),
        (
            f"paper model (Section IV.B): {100 * model['frac_peak']:.1f}% "
            f"of peak at AI {model['arithmetic_intensity']:.0f} "
            f"flops/byte ({model['bandwidth_headroom']:.0f}x bandwidth "
            f"headroom)"
        ),
    ]
    header = (
        f"{'phase':10s} {'seconds':>9s} {'GFLOP/s':>9s} {'GB/s':>8s} "
        f"{'AI f/B':>8s} {'% peak':>7s} {'bound':>8s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in table["phases"] + [table["total"]]:
        lines.append(
            f"{row['name']:10s} {row['seconds']:9.4f} "
            f"{row['gflops']:9.3f} {row['gbytes_per_s']:8.3f} "
            f"{_fmt_ai(row['arithmetic_intensity']):>8s} "
            f"{100 * row['frac_peak']:6.2f}% {row['bound_by']:>8s}"
        )
    if "list_efficiency" in table:
        lines.append(list_efficiency_line(table["list_efficiency"]))
    lines.append(
        "AI and traffic are the analytic work model (see "
        "repro.instrument.perfcount); %peak is measured time against "
        "the calibrated host peak."
    )
    return "\n".join(lines)
