"""Critical-path analysis: where a run's wall clock actually went.

The paper's performance story (Sec. IV, Figs. 7-8) is attribution: which
phase of the time step ate the wall clock, and which ranks dragged the
bulk-synchronous barrier.  This module computes that attribution from the
observability artifacts a run already leaves behind:

* the **span tree** (registry events, or a Chrome trace re-parsed by
  :mod:`repro.instrument.exporters`) yields per-path *self time*
  (:func:`repro.instrument.registry.path_self_times`) — a span's
  duration minus its direct children — the honest answer to "which
  section was the code *in*";
* the **per-rank / per-worker trace lanes** (``pid = rank`` lanes plus
  executor worker lanes at ``pid >= WORKER_LANE_BASE``) yield parallel
  efficiency and load-imbalance attribution per phase: total busy time
  across lanes over ``n_lanes x phase span``, the ``max/mean`` imbalance
  factor, and the *critical lane* — the rank every other rank waited on;
* the **telemetry stream** yields per-rank gauge attribution (which rank
  carried the most particles/interactions) and per-step wall statistics.

Two analyses compare into a :class:`RunComparison` with per-phase deltas
and a regression verdict — the unit ``python -m repro report --compare``
prints and the CI report lane gates.

Everything here is pure computation over plain data (no clocks, no
filesystem); the ledger (:mod:`repro.instrument.store`) is the thing
that knows where artifacts live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instrument.registry import (
    WORKER_LANE_BASE,
    SpanEvent,
    name_self_times,
    path_self_times,
    without_worker_lanes,
)
from repro.instrument.store import IDENTITY

__all__ = [
    "PhaseStat",
    "LaneStat",
    "RankShare",
    "RunAnalysis",
    "PhaseDelta",
    "RunComparison",
    "lane_stats",
    "rank_shares",
    "analyze_spans",
    "analyze_stream",
    "analyze",
    "compare",
    "render_analysis",
    "render_comparison",
]

#: phase rows thinner than this fraction of the wall clock are folded
#: into the report's "other" row
MIN_PHASE_FRACTION = 0.005


@dataclass(frozen=True)
class PhaseStat:
    """Self/total time of one span path (one node of the span tree)."""

    path: str
    name: str
    total_s: float
    self_s: float
    calls: int
    fraction: float  # of the run's wall time, by self time

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "name": self.name,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "calls": self.calls,
            "fraction": self.fraction,
        }


@dataclass(frozen=True)
class LaneStat:
    """Parallel-efficiency attribution of one phase across trace lanes.

    ``efficiency`` is total busy time over ``n_lanes x span``, where the
    span is the union of the phase's active windows — 1.0 means every
    lane worked the whole phase; ``imbalance`` is the paper-style
    ``max/mean`` of per-lane busy time; ``critical_lane`` is the lane
    whose work bounded the phase (the critical path through the barrier),
    holding ``critical_share`` of the phase span.
    """

    name: str
    kind: str  # "worker" or "rank"
    n_lanes: int
    busy_s: float
    span_s: float
    efficiency: float
    imbalance: float
    critical_lane: int
    critical_busy_s: float

    @property
    def critical_share(self) -> float:
        return self.critical_busy_s / self.span_s if self.span_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "n_lanes": self.n_lanes,
            "busy_s": self.busy_s,
            "span_s": self.span_s,
            "efficiency": self.efficiency,
            "imbalance": self.imbalance,
            "critical_lane": self.critical_lane,
            "critical_busy_s": self.critical_busy_s,
            "critical_share": self.critical_share,
        }


@dataclass(frozen=True)
class RankShare:
    """Telemetry-gauge attribution: the heaviest rank of one gauge."""

    gauge: str
    n_ranks: int
    imbalance: float  # max over steps of the per-step max/mean factor
    top_rank: int
    top_share: float  # top rank's share of the gauge total (mean step)

    def to_dict(self) -> dict:
        return {
            "gauge": self.gauge,
            "n_ranks": self.n_ranks,
            "imbalance": self.imbalance,
            "top_rank": self.top_rank,
            "top_share": self.top_share,
        }


@dataclass
class RunAnalysis:
    """Everything the report knows about one run."""

    meta: dict = field(default_factory=dict)
    wall_s: float = 0.0
    n_steps: int = 0
    phases: list[PhaseStat] = field(default_factory=list)
    by_name: dict[str, dict] = field(default_factory=dict)
    lanes: list[LaneStat] = field(default_factory=list)
    ranks: list[RankShare] = field(default_factory=list)
    verdict: str | None = None

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "wall_s": self.wall_s,
            "n_steps": self.n_steps,
            "phases": [p.to_dict() for p in self.phases],
            "by_name": {k: dict(v) for k, v in self.by_name.items()},
            "lanes": [ln.to_dict() for ln in self.lanes],
            "ranks": [r.to_dict() for r in self.ranks],
            "verdict": self.verdict,
        }


# ----------------------------------------------------------------------
# lane attribution
# ----------------------------------------------------------------------
def lane_stats(spans: list[SpanEvent]) -> list[LaneStat]:
    """Parallel-efficiency / imbalance attribution per laned phase.

    Considers events on non-default lanes (``rank != 0``), grouped by
    leaf name: executor worker lanes (``rank >= WORKER_LANE_BASE``) and
    simulated-rank lanes (e.g. the per-rank pencil-FFT spans).  A phase
    with a single lane still reports (efficiency against one lane), but
    phases that never leave lane 0 are not lane-attributable.
    """
    groups: dict[tuple[str, str], dict[int, float]] = {}
    windows: dict[tuple[str, str], list] = {}  # key -> [(start, end)]
    for ev in spans:
        if ev.rank == 0:
            continue
        kind = "worker" if ev.rank >= WORKER_LANE_BASE else "rank"
        key = (ev.name, kind)
        busy = groups.setdefault(key, {})
        busy[ev.rank] = busy.get(ev.rank, 0.0) + ev.duration
        windows.setdefault(key, []).append((ev.start, ev.end))
    out: list[LaneStat] = []
    for (name, kind), busy in sorted(groups.items()):
        # span = union of the phase's active windows, so the idle time
        # *between* dispatches (other phases, other steps) doesn't count
        # against its parallel efficiency -- only idle lanes *during* a
        # dispatch do, which is the barrier wait the paper attributes.
        span_s = 0.0
        cur_start = cur_end = None
        for start, end in sorted(windows[(name, kind)]):
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    span_s += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            span_s += cur_end - cur_start
        span_s = max(span_s, 0.0)
        total = sum(busy.values())
        n = len(busy)
        mean = total / n if n else 0.0
        crit_lane, crit_busy = max(busy.items(), key=lambda kv: kv[1])
        out.append(
            LaneStat(
                name=name,
                kind=kind,
                n_lanes=n,
                busy_s=total,
                span_s=span_s,
                efficiency=(
                    total / (n * span_s) if n and span_s > 0 else 0.0
                ),
                imbalance=crit_busy / mean if mean > 0 else 0.0,
                critical_lane=crit_lane,
                critical_busy_s=crit_busy,
            )
        )
    out.sort(key=lambda ln: ln.busy_s, reverse=True)
    return out


# ----------------------------------------------------------------------
# telemetry attribution
# ----------------------------------------------------------------------
def rank_shares(steps: list[dict]) -> list[RankShare]:
    """Which rank carried each gauge, summarized over a run's steps."""
    sums: dict[str, dict[int, float]] = {}
    worst: dict[str, float] = {}
    for step in steps:
        for gauge, ranks in (step.get("gauges") or {}).items():
            table = sums.setdefault(gauge, {})
            for rank, value in ranks.items():
                table[int(rank)] = table.get(int(rank), 0.0) + float(value)
        for gauge, factor in (step.get("imbalance") or {}).items():
            worst[gauge] = max(worst.get(gauge, 0.0), float(factor))
    out: list[RankShare] = []
    for gauge, table in sorted(sums.items()):
        total = sum(table.values())
        top_rank, top_sum = max(table.items(), key=lambda kv: kv[1])
        out.append(
            RankShare(
                gauge=gauge,
                n_ranks=len(table),
                imbalance=worst.get(gauge, 0.0),
                top_rank=top_rank,
                top_share=top_sum / total if total > 0 else 0.0,
            )
        )
    return out


# ----------------------------------------------------------------------
# whole-run analysis
# ----------------------------------------------------------------------
def _wall_from_spans(by_path: dict[str, dict]) -> float:
    step = by_path.get("step")
    if step is not None:
        return step["total_s"]
    # no step spans (partial trace): fall back to the root paths
    return sum(
        e["total_s"] for p, e in by_path.items() if "/" not in p
    )


def analyze_spans(
    spans: list[SpanEvent],
    steps: list[dict] | None = None,
    meta: dict | None = None,
) -> RunAnalysis:
    """Analyze a run from its span events (plus optional telemetry steps).

    The phase rows and ``by_name`` are the run's own timeline
    (:func:`~repro.instrument.registry.without_worker_lanes`), so they
    sum to the wall; executor worker lanes appear only in ``lanes``.
    """
    timeline = without_worker_lanes(spans)
    by_path = path_self_times(timeline)
    wall = _wall_from_spans(by_path)
    if wall <= 0 and steps:
        wall = sum(float(s.get("wall_time", 0.0)) for s in steps)
    phases = [
        PhaseStat(
            path=path,
            name=path.rsplit("/", 1)[-1],
            total_s=entry["total_s"],
            self_s=entry["self_s"],
            calls=entry["calls"],
            fraction=entry["self_s"] / wall if wall > 0 else 0.0,
        )
        for path, entry in by_path.items()
    ]
    phases.sort(key=lambda p: p.self_s, reverse=True)
    analysis = RunAnalysis(
        meta=dict(meta or {}),
        wall_s=wall,
        n_steps=len(steps) if steps else sum(
            1 for ev in spans if ev.path == "step"
        ),
        phases=phases,
        by_name=name_self_times(timeline),
        lanes=lane_stats(spans),
        ranks=rank_shares(steps or []),
    )
    return analysis


def analyze_stream(data: dict, meta: dict | None = None) -> RunAnalysis:
    """Analyze a run from a parsed telemetry stream alone (no trace).

    ``data`` is :func:`repro.instrument.telemetry.read_stream` output.
    Wall time and step count come from the telemetry records; phase
    self-times are unavailable without a trace, but rank attribution and
    the health verdict are.
    """
    steps = data.get("steps") or []
    manifest = data.get("manifest") or {}
    end = data.get("end") or {}
    merged = dict(meta or {})
    for key in IDENTITY:
        if key in manifest and key not in merged:
            merged[key] = manifest[key]
    return RunAnalysis(
        meta=merged,
        wall_s=sum(float(s.get("wall_time", 0.0)) for s in steps),
        n_steps=len(steps),
        ranks=rank_shares(steps),
        verdict=end.get("verdict"),
    )


def analyze(
    spans: list[SpanEvent] | None = None,
    stream: dict | None = None,
    meta: dict | None = None,
) -> RunAnalysis:
    """Analyze whatever artifacts a run left: trace, stream, or both."""
    if spans:
        analysis = analyze_spans(
            spans, steps=(stream or {}).get("steps"), meta=meta
        )
        end = (stream or {}).get("end") or {}
        analysis.verdict = end.get("verdict", analysis.verdict)
        return analysis
    if stream is not None:
        return analyze_stream(stream, meta=meta)
    return RunAnalysis(meta=dict(meta or {}))


# ----------------------------------------------------------------------
# cross-run comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseDelta:
    """One phase's self-time change between two runs."""

    name: str
    a_self_s: float
    b_self_s: float
    ratio: float  # b / a
    a_fraction: float
    verdict: str  # OK / REGRESSION / IMPROVED / NEW / GONE

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "a_self_s": self.a_self_s,
            "b_self_s": self.b_self_s,
            "ratio": self.ratio,
            "a_fraction": self.a_fraction,
            "verdict": self.verdict,
        }


@dataclass
class RunComparison:
    """Per-phase deltas between a baseline run A and a candidate run B."""

    a_meta: dict
    b_meta: dict
    a_wall_s: float
    b_wall_s: float
    wall_ratio: float
    threshold: float
    phases: list[PhaseDelta]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "run_a": dict(self.a_meta),
            "run_b": dict(self.b_meta),
            "a_wall_s": self.a_wall_s,
            "b_wall_s": self.b_wall_s,
            "wall_ratio": self.wall_ratio,
            "threshold": self.threshold,
            "phases": [p.to_dict() for p in self.phases],
            "verdict": self.verdict,
        }


#: phases holding at least this share of the baseline wall participate
#: in the overall regression verdict (thin phases are noise)
MAJOR_PHASE_FRACTION = 0.10

#: phases shorter than this (seconds) never drive a verdict on their own
MIN_GATED_SECONDS = 1e-3


def compare(
    a: RunAnalysis, b: RunAnalysis, threshold: float = 0.25
) -> RunComparison:
    """Compare candidate ``b`` against baseline ``a``.

    Phase verdicts use the by-name self times; the overall verdict is
    REGRESSION when the wall clock or any *major* phase (>= 10% of the
    baseline wall and above a noise floor) slowed beyond ``threshold``,
    IMPROVED when the wall clock sped up beyond it, else OK.
    """
    names = sorted(set(a.by_name) | set(b.by_name))
    deltas: list[PhaseDelta] = []
    regressed_major = False
    for name in names:
        a_self = a.by_name.get(name, {}).get("self_s", 0.0)
        b_self = b.by_name.get(name, {}).get("self_s", 0.0)
        a_frac = a_self / a.wall_s if a.wall_s > 0 else 0.0
        if name not in a.by_name:
            verdict, ratio = "NEW", float("inf")
        elif name not in b.by_name:
            verdict, ratio = "GONE", 0.0
        elif a_self <= 0:
            verdict, ratio = "OK", 1.0
        else:
            ratio = b_self / a_self
            if ratio > 1.0 + threshold:
                verdict = "REGRESSION"
            elif ratio < 1.0 - threshold:
                verdict = "IMPROVED"
            else:
                verdict = "OK"
        if (
            verdict == "REGRESSION"
            and a_frac >= MAJOR_PHASE_FRACTION
            and a_self >= MIN_GATED_SECONDS
        ):
            regressed_major = True
        deltas.append(
            PhaseDelta(
                name=name,
                a_self_s=a_self,
                b_self_s=b_self,
                ratio=ratio,
                a_fraction=a_frac,
                verdict=verdict,
            )
        )
    deltas.sort(key=lambda d: max(d.a_self_s, d.b_self_s), reverse=True)
    wall_ratio = b.wall_s / a.wall_s if a.wall_s > 0 else 0.0
    if a.wall_s > 0 and wall_ratio > 1.0 + threshold:
        overall = "REGRESSION"
    elif regressed_major:
        overall = "REGRESSION"
    elif a.wall_s > 0 and 0 < wall_ratio < 1.0 - threshold:
        overall = "IMPROVED"
    else:
        overall = "OK"
    return RunComparison(
        a_meta=dict(a.meta),
        b_meta=dict(b.meta),
        a_wall_s=a.wall_s,
        b_wall_s=b.wall_s,
        wall_ratio=wall_ratio,
        threshold=threshold,
        phases=deltas,
        verdict=overall,
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _ident(meta: dict) -> str:
    bits = []
    for key in ("run_id", "config_hash"):
        if meta.get(key):
            bits.append(str(meta[key]))
            break
    if meta.get("backend"):
        bits.append(str(meta["backend"]))
    if meta.get("executor") and meta.get("workers"):
        bits.append(f"{meta['executor']}@{meta['workers']}w")
    if meta.get("seed") is not None:
        bits.append(f"seed {meta['seed']}")
    if meta.get("git_rev"):
        bits.append(f"git {meta['git_rev']}")
    return " | ".join(bits) if bits else "(no metadata)"


def render_analysis(analysis: RunAnalysis, top: int = 12) -> str:
    """Human-readable single-run report: self times, lanes, ranks."""
    lines = [f"run: {_ident(analysis.meta)}"]
    lines.append(
        f"wall {analysis.wall_s:.3f} s over {analysis.n_steps} step(s)"
        + (f", verdict {analysis.verdict}" if analysis.verdict else "")
    )
    shown = [
        p for p in analysis.phases
        if p.fraction >= MIN_PHASE_FRACTION
    ][:top]
    if shown:
        lines.append("")
        lines.append(
            f"{'phase (by path)':40s} {'self s':>9s} {'total s':>9s} "
            f"{'% wall':>7s} {'calls':>7s}"
        )
        for p in shown:
            lines.append(
                f"{p.path[:40]:40s} {p.self_s:9.4f} {p.total_s:9.4f} "
                f"{100 * p.fraction:6.1f}% {p.calls:7d}"
            )
        rest = analysis.wall_s - sum(p.self_s for p in shown)
        if analysis.wall_s > 0 and rest > 0:
            lines.append(
                f"{'(other)':40s} {rest:9.4f} {'':>9s} "
                f"{100 * rest / analysis.wall_s:6.1f}%"
            )
    if analysis.lanes:
        lines.append("")
        lines.append(
            f"{'parallel phase':24s} {'lanes':>5s} {'busy s':>8s} "
            f"{'effic':>6s} {'imbal':>6s}  critical"
        )
        for ln in analysis.lanes:
            lines.append(
                f"{ln.name[:24]:24s} {ln.n_lanes:5d} {ln.busy_s:8.4f} "
                f"{100 * ln.efficiency:5.1f}% {ln.imbalance:6.2f}  "
                f"{ln.kind} {ln.critical_lane} "
                f"({100 * ln.critical_share:.0f}% of span)"
            )
    if analysis.ranks:
        lines.append("")
        lines.append(
            f"{'gauge':16s} {'ranks':>5s} {'imbal':>6s}  heaviest"
        )
        for r in analysis.ranks:
            lines.append(
                f"{r.gauge:16s} {r.n_ranks:5d} {r.imbalance:6.2f}  "
                f"rank {r.top_rank} ({100 * r.top_share:.0f}% of total)"
            )
    return "\n".join(lines)


def render_comparison(cmp: RunComparison, top: int = 12) -> str:
    """Human-readable A-vs-B report with the regression verdict."""
    lines = [
        f"baseline A: {_ident(cmp.a_meta)}",
        f"candidate B: {_ident(cmp.b_meta)}",
        (
            f"wall {cmp.a_wall_s:.3f} s -> {cmp.b_wall_s:.3f} s "
            f"({_fmt_ratio(cmp.wall_ratio)}, threshold "
            f"{100 * cmp.threshold:.0f}%)"
        ),
        "",
        f"{'phase':24s} {'A self s':>9s} {'B self s':>9s} "
        f"{'B/A':>7s} {'% wall':>7s}  verdict",
    ]
    shown = 0
    for d in cmp.phases:
        if shown >= top and d.verdict == "OK":
            continue
        if max(d.a_self_s, d.b_self_s) <= 0:
            continue
        lines.append(
            f"{d.name[:24]:24s} {d.a_self_s:9.4f} {d.b_self_s:9.4f} "
            f"{_fmt_ratio(d.ratio):>7s} {100 * d.a_fraction:6.1f}%  "
            f"{d.verdict}"
        )
        shown += 1
    lines.append("")
    lines.append(f"verdict: {cmp.verdict}")
    return "\n".join(lines)


def _fmt_ratio(ratio: float) -> str:
    if ratio == float("inf"):
        return "new"
    return f"{ratio:.2f}x"
