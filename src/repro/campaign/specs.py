"""Declarative campaign specifications: one file describes a suite.

A spec is a TOML (or JSON) document with four sections:

``[campaign]``
    Name, supervision policy (attempt budget, per-run timeout, heartbeat
    timeout, retry backoff), optional default directory / ledger root,
    and ``extra_args`` appended to every run's ``python -m repro run``
    command line.
``[base]``
    :class:`~repro.config.SimulationConfig` fields shared by every run
    (``box_size`` and ``n_per_dim`` are required, everything else
    defaults).  A nested ``[base.cosmology]`` table overrides background
    parameters.
``[grid]``
    Cartesian axes: every key maps to a *list* of values, and the spec
    expands to the full product (in key order, last axis fastest).
    Dotted keys (``"cosmology.sigma8"``) reach into the nested
    cosmology.
``[[runs]]``
    Explicit runs appended after the grid, each a table of overrides on
    ``base`` (plus an optional per-run ``extra_args`` list — e.g. fault
    injection flags for a chaos lane).

Every expanded run owns a frozen, validated config with a stable
:meth:`~repro.config.SimulationConfig.config_hash` and a deterministic
``run_id`` (index + hash prefix), so re-expanding the same spec after a
supervisor crash re-derives the identical suite — the property the
journal replay and the run ledger key on.

Example::

    [campaign]
    name = "sigma8-grid"
    max_attempts = 3
    timeout_s = 1200.0

    [base]
    box_size = 64.0
    n_per_dim = 16
    n_steps = 8

    [grid]
    seed = [1, 2]
    "cosmology.sigma8" = [0.75, 0.85]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import SimulationConfig

__all__ = [
    "CampaignSpec",
    "RunSpec",
    "SpecError",
    "SupervisionPolicy",
    "expand_spec",
    "load_spec",
]


class SpecError(ValueError):
    """A campaign spec is malformed or expands to an invalid config."""


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard the supervisor fights for each run before giving up.

    Parameters
    ----------
    max_attempts:
        Failed attempts (crash, CRIT exit, timeout, hang) a run may
        accumulate before it is QUARANTINED as a poison config.
        Supervisor-initiated interruptions (shutdown) do not count.
    timeout_s:
        Per-attempt wall-clock budget; ``None`` disables the timeout.
    heartbeat_timeout_s:
        Maximum silence on the run's telemetry stream (no bytes
        appended) before the attempt is declared hung; ``None``
        disables hang detection.
    grace_s:
        Seconds between SIGTERM (checkpoint and exit) and SIGKILL.
    poll_interval_s:
        Supervisor poll cadence while a child runs.
    retry_base_delay, retry_multiplier, retry_max_delay:
        Exponential backoff before re-dispatching a failed run,
        enforced through :class:`repro.campaign.supervisor.RetryPolicy`.
    checkpoint_every:
        ``--checkpoint-every`` passed to each run (steps).
    """

    max_attempts: int = 3
    timeout_s: float | None = 900.0
    heartbeat_timeout_s: float | None = 300.0
    grace_s: float = 10.0
    poll_interval_s: float = 0.25
    retry_base_delay: float = 0.5
    retry_multiplier: float = 2.0
    retry_max_delay: float = 30.0
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SpecError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecError(f"timeout_s must be > 0: {self.timeout_s}")
        if (
            self.heartbeat_timeout_s is not None
            and self.heartbeat_timeout_s <= 0
        ):
            raise SpecError(
                f"heartbeat_timeout_s must be > 0: "
                f"{self.heartbeat_timeout_s}"
            )
        if self.grace_s < 0:
            raise SpecError(f"grace_s must be >= 0: {self.grace_s}")
        if self.checkpoint_every < 1:
            raise SpecError(
                f"checkpoint_every must be >= 1: {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class RunSpec:
    """One expanded run: identity, config, and per-run extras."""

    run_id: str
    index: int
    config: SimulationConfig
    #: the axis/override values that distinguish this run from ``base``
    overrides: dict = field(default_factory=dict)
    #: extra ``python -m repro run`` CLI arguments for this run
    extra_args: tuple = ()

    @property
    def config_hash(self) -> str:
        return self.config.config_hash()


@dataclass(frozen=True)
class CampaignSpec:
    """A fully expanded campaign: runs plus supervision policy."""

    name: str
    runs: tuple
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    #: extra run-command arguments shared by every run
    extra_args: tuple = ()
    #: default campaign directory (CLI ``--dir`` overrides)
    directory: str | None = None
    #: default ledger root (CLI ``--ledger`` overrides)
    ledger: str | None = None

    def __post_init__(self) -> None:
        if not self.runs:
            raise SpecError(f"campaign {self.name!r} expands to no runs")
        ids = [r.run_id for r in self.runs]
        if len(set(ids)) != len(ids):  # pragma: no cover - by construction
            raise SpecError(f"duplicate run ids in campaign: {ids}")

    @property
    def campaign_id(self) -> str:
        """Stable identity: name + every run's config hash + extras.

        Two spec files that expand to the same suite share an id, and a
        journal records the id it was opened with — so resuming with an
        *edited* spec fails loudly instead of silently re-keying runs.
        """
        payload = json.dumps(
            {
                "name": self.name,
                "runs": [
                    [r.run_id, r.config_hash, list(r.extra_args)]
                    for r in self.runs
                ],
                "extra_args": list(self.extra_args),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def get(self, run_id: str) -> RunSpec:
        for run in self.runs:
            if run.run_id == run_id:
                return run
        raise KeyError(f"campaign has no run {run_id!r}")

    def to_meta(self) -> dict:
        """The ``campaign.json`` sidecar: identity + run inventory."""
        return {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "runs": [
                {
                    "run": r.run_id,
                    "config_hash": r.config_hash,
                    "seed": r.config.seed,
                    "overrides": _jsonable(r.overrides),
                }
                for r in self.runs
            ],
        }


def _jsonable(obj):
    """Round-trip arbitrary override values through JSON-safe types."""
    try:
        json.dumps(obj)
        return obj
    except TypeError:
        return repr(obj)


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------
def _apply_override(config_dict: dict, key: str, value) -> None:
    """Set ``key`` (possibly dotted into cosmology) in a config dict."""
    if "." in key:
        head, rest = key.split(".", 1)
        if head != "cosmology" or "." in rest:
            raise SpecError(
                f"unsupported dotted override {key!r} (only "
                f"'cosmology.<field>' nests)"
            )
        cosmo = dict(config_dict.get("cosmology") or {})
        cosmo[rest] = value
        config_dict["cosmology"] = cosmo
    else:
        config_dict[key] = value


def _build_config(base: dict, overrides: dict, where: str):
    config_dict = json.loads(json.dumps(base))  # deep copy, JSON-safe
    for key, value in overrides.items():
        _apply_override(config_dict, key, value)
    try:
        return SimulationConfig.from_dict(config_dict)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}: invalid config ({exc})") from exc


def _check_run_args(args: tuple, where: str) -> None:
    """Raise :class:`SpecError` unless ``python -m repro run`` takes args."""
    from repro.__main__ import build_parser

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            build_parser().parse_args(["run", *args])
    except SystemExit:
        reason = err.getvalue().partition("error: ")[2].strip()
        raise SpecError(f"{where}: 'python -m repro run' rejects "
                        f"extra_args {list(args)}: {reason}") from None


def expand_spec(data: dict, name: str | None = None) -> CampaignSpec:
    """Expand a parsed spec document into a :class:`CampaignSpec`."""
    if not isinstance(data, dict):
        raise SpecError(f"spec must be a table, got {type(data).__name__}")
    campaign = dict(data.get("campaign") or {})
    base = dict(data.get("base") or {})
    grid = dict(data.get("grid") or {})
    runs_section = list(data.get("runs") or [])
    unknown = set(data) - {"campaign", "base", "grid", "runs"}
    if unknown:
        raise SpecError(f"unknown spec sections: {sorted(unknown)}")
    if not base:
        raise SpecError("spec has no [base] section")

    spec_name = campaign.pop("name", None) or name or "campaign"
    directory = campaign.pop("dir", None)
    ledger = campaign.pop("ledger", None)
    shared_extra = tuple(str(a) for a in campaign.pop("extra_args", []))
    policy_fields = {
        f: campaign.pop(f)
        for f in (
            "max_attempts", "timeout_s", "heartbeat_timeout_s",
            "grace_s", "poll_interval_s", "retry_base_delay",
            "retry_multiplier", "retry_max_delay", "checkpoint_every",
        )
        if f in campaign
    }
    if campaign:
        raise SpecError(
            f"unknown [campaign] keys: {sorted(campaign)}"
        )
    for key in ("timeout_s", "heartbeat_timeout_s"):
        # TOML has no null: 0 (or false) disables the timeout
        if key in policy_fields and not policy_fields[key]:
            policy_fields[key] = None
    policy = SupervisionPolicy(**policy_fields)

    # grid axes: every value must be a list; product in key order
    overrides_list: list[dict] = []
    if grid:
        axes = []
        for key, values in grid.items():
            if key == "extra_args":
                raise SpecError(
                    "extra_args cannot be a grid axis (set it in "
                    "[campaign] or per-[[runs]] entry)"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(
                    f"[grid] {key} must be a non-empty list, got "
                    f"{values!r}"
                )
            axes.append((key, list(values)))
        for combo in itertools.product(*(vals for _, vals in axes)):
            overrides_list.append(
                {key: value for (key, _), value in zip(axes, combo)}
            )
    for i, entry in enumerate(runs_section):
        if not isinstance(entry, dict):
            raise SpecError(f"[[runs]] entry {i} must be a table")
        overrides_list.append(dict(entry))
    if not overrides_list:
        overrides_list.append({})  # a bare [base] is a one-run campaign

    runs: list[RunSpec] = []
    for index, overrides in enumerate(overrides_list):
        extra = tuple(str(a) for a in overrides.pop("extra_args", []))
        if shared_extra or extra:
            _check_run_args(shared_extra + extra, f"run {index}")
        config = _build_config(base, overrides, f"run {index}")
        runs.append(
            RunSpec(
                run_id=f"r{index:03d}-{config.config_hash()[:6]}",
                index=index,
                config=config,
                overrides=overrides,
                extra_args=extra,
            )
        )
    return CampaignSpec(
        name=spec_name,
        runs=tuple(runs),
        policy=policy,
        extra_args=shared_extra,
        directory=directory,
        ledger=ledger,
    )


def load_spec(path: str | Path) -> CampaignSpec:
    """Parse and expand a spec file (``.toml`` or ``.json``)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"{path}: invalid JSON ({exc})") from exc
    else:
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - python < 3.11
            raise SpecError(
                f"{path}: TOML specs need Python >= 3.11 (tomllib); "
                "use a .json spec instead"
            ) from exc
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"{path}: invalid TOML ({exc})") from exc
    return expand_spec(data, name=path.stem)
