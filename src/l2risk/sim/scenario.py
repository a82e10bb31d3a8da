"""Scenario files for the rollup simulator.

A scenario bundles a rollup configuration, simulator timing parameters, a
workload (an explicit action list or a seeded random one), a list of fault
injections, and an optional upgrade announcement. Scenarios are plain JSON so
they can be versioned next to the analyses they support.

Validation is strict: unknown keys, unknown injection kinds, and ill-typed
fields all raise :class:`ScenarioError` rather than being silently dropped.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from l2risk.data import fixture_path
from l2risk.model import DAY, RollupConfig, _LabeledEnum


class ScenarioError(ValueError):
    """A scenario document is malformed or internally inconsistent."""


class InjectionKind(_LabeledEnum):
    """Faults the simulator can inject.

    The first ten mirror the observable incident classes used for incident
    reporting, so a simulated run can be lined up against the historical
    record. The last three are narrower sub-system faults that have no
    public-facing incident label of their own.
    """

    WITHDRAWAL_FAILURE = "withdrawal-failure"
    SEQUENCER_OUTAGE = "sequencer-outage"
    SEQUENCER_PERFORMANCE_DEGRADATION = "sequencer-performance-degradation"
    SEQUENCER_HALT = "sequencer-halt"
    BRIDGE_HALT = "bridge-halt"
    L2_DOWNTIME = "l2-downtime"
    EXPLOIT_USER_RISK = "exploit-user-risk"
    WITHDRAWAL_DELAYS = "withdrawal-delays"
    CENSORSHIP_FORCED_INCLUSION_FAILURE = "censorship-forced-inclusion-failure"
    BRIDGE_PAUSE_RISK = "bridge-pause-risk"
    DA_WITHHOLDING = "da-withholding"
    PROPOSER_OUTAGE = "proposer-outage"
    PROVER_OUTAGE = "prover-outage"


@dataclass(frozen=True)
class SimParams:
    """Timing constants of the simulated stack, all in whole seconds."""

    l1_block_interval: int = 12
    finalization_depth: int = 64
    prover_latency: int = 3_600
    batch_interval: int = 120
    proposal_delay: int = 60
    admission_latency: int = 1
    degradation_factor: int = 10
    horizon: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "l1_block_interval",
            "finalization_depth",
            "prover_latency",
            "batch_interval",
            "proposal_delay",
            "admission_latency",
        ):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be a positive integer")
        if self.degradation_factor < 1:
            raise ScenarioError("degradation_factor must be >= 1")
        if self.horizon is not None and self.horizon <= 0:
            raise ScenarioError("horizon must be positive when set")


@dataclass(frozen=True)
class Injection:
    """One fault window. Exploits are instantaneous and use amount instead
    of duration; every other kind needs a positive duration."""

    kind: InjectionKind
    at: int
    duration: int = 0
    targets: tuple[str, ...] = ()
    amount: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.at < 0:
            raise ScenarioError("injection start must be >= 0")
        if self.kind is InjectionKind.EXPLOIT_USER_RISK:
            if self.amount <= 0:
                raise ScenarioError("exploit injections need a positive amount")
            if self.duration:
                raise ScenarioError("exploit injections are instantaneous")
        else:
            if self.duration <= 0:
                raise ScenarioError(f"{self.kind.value} injections need a positive duration")
            if self.amount:
                raise ScenarioError("amount only applies to exploit injections")
        if self.targets and self.kind is not InjectionKind.CENSORSHIP_FORCED_INCLUSION_FAILURE:
            raise ScenarioError("targets only apply to censorship injections")

    @property
    def end(self) -> int:
        return self.at + self.duration


_ACTIONS = ("deposit", "withdraw", "transfer", "hatch-exit")


@dataclass(frozen=True)
class WorkloadAction:
    at: int
    action: str
    user: str
    amount: int = 0
    to: str | None = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ScenarioError(f"unknown action {self.action!r}")
        if self.at < 0:
            raise ScenarioError("action time must be >= 0")
        if not self.user:
            raise ScenarioError("action needs a user")
        if self.action == "transfer":
            if not self.to or self.to == self.user:
                raise ScenarioError("transfer needs a distinct recipient")
        elif self.to is not None:
            raise ScenarioError("'to' only applies to transfers")
        if self.action == "hatch-exit":
            # amount 0 means "exit the whole balance"
            if self.amount < 0:
                raise ScenarioError("hatch-exit amount must be >= 0")
        elif self.amount <= 0:
            raise ScenarioError(f"{self.action} needs a positive amount")


@dataclass(frozen=True)
class RandomWorkload:
    """Seeded workload generator. Each user's first action is a deposit so
    later withdrawals and transfers have something to move; overdrafts are
    still possible and must be rejected gracefully by the engine."""

    users: int = 5
    actions: int = 20
    horizon: int = DAY
    max_amount: int = 1_000

    def __post_init__(self) -> None:
        if min(self.users, self.actions, self.horizon, self.max_amount) <= 0:
            raise ScenarioError("random workload fields must be positive")

    def materialize(self, seed: int) -> tuple[WorkloadAction, ...]:
        rng = random.Random(seed)
        names = [f"user-{i}" for i in range(self.users)]
        times = sorted(rng.randrange(self.horizon) for _ in range(self.actions))
        seen: set[str] = set()
        out: list[WorkloadAction] = []
        for t in times:
            # randrange(n) draws exactly what choice() over n items draws
            i = rng.randrange(len(names))
            user = names[i]
            if user not in seen:
                seen.add(user)
                kind = "deposit"
            else:
                kind = rng.choice(("deposit", "withdraw", "withdraw", "transfer"))
            amount = rng.randint(1, self.max_amount)
            if kind == "transfer" and len(names) > 1:
                j = rng.randrange(len(names) - 1)  # an index into names without user
                to = names[j + (j >= i)]
                out.append(WorkloadAction(t, "transfer", user, amount, to))
            elif kind == "transfer":
                out.append(WorkloadAction(t, "withdraw", user, amount))
            else:
                out.append(WorkloadAction(t, kind, user, amount))
        return tuple(out)


@dataclass(frozen=True)
class Scenario:
    name: str
    config: RollupConfig
    params: SimParams = field(default_factory=SimParams)
    actions: tuple[WorkloadAction, ...] = ()
    random_workload: RandomWorkload | None = None
    injections: tuple[Injection, ...] = ()
    upgrade_at: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "injections", tuple(self.injections))
        if self.actions and self.random_workload is not None:
            raise ScenarioError("workload is either explicit or random, not both")
        if self.upgrade_at is not None and self.upgrade_at < 0:
            raise ScenarioError("upgrade announcement must be >= 0")

    def workload(self, seed: int) -> tuple[WorkloadAction, ...]:
        if self.random_workload is not None:
            return self.random_workload.materialize(seed)
        return self.actions


_TOP_KEYS = {"name", "description", "config", "sim", "workload", "injections", "upgrade"}
_SIM_KEYS = set(SimParams.__dataclass_fields__)
_RANDOM_KEYS = set(RandomWorkload.__dataclass_fields__)
_ACTION_KEYS = {"at", "action", "user", "amount", "to"}
_INJECTION_KEYS = {"kind", "at", "duration", "targets", "amount"}


def _require_keys(raw: dict, allowed: set, what: str) -> None:
    extra = set(raw) - allowed
    if extra:
        raise ScenarioError(f"unknown {what} keys: {sorted(extra)}")


def _int_field(raw: dict, key: str, what: str) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what}.{key} must be an integer")
    return value


def parse_scenario(raw: object, *, name: str = "scenario") -> Scenario:
    """Build a validated Scenario from a decoded JSON document."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "scenario")
    if "config" not in raw or not isinstance(raw["config"], dict):
        raise ScenarioError("scenario needs a 'config' object")
    try:
        config = RollupConfig.from_dict(raw["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"bad rollup config: {exc}") from exc

    sim_raw = raw.get("sim", {})
    if not isinstance(sim_raw, dict):
        raise ScenarioError("'sim' must be an object")
    _require_keys(sim_raw, _SIM_KEYS, "sim")
    for key, value in sim_raw.items():
        if key == "horizon" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"sim.{key} must be an integer")
    params = SimParams(**sim_raw)

    actions: tuple[WorkloadAction, ...] = ()
    random_workload = None
    workload_raw = raw.get("workload", {})
    if not isinstance(workload_raw, dict):
        raise ScenarioError("'workload' must be an object")
    _require_keys(workload_raw, {"actions", "random"}, "workload")
    if "actions" in workload_raw and "random" in workload_raw:
        raise ScenarioError("workload is either explicit or random, not both")
    if "actions" in workload_raw:
        if not isinstance(workload_raw["actions"], list):
            raise ScenarioError("workload.actions must be a list")
        parsed = []
        for i, item in enumerate(workload_raw["actions"]):
            if not isinstance(item, dict):
                raise ScenarioError(f"workload.actions[{i}] must be an object")
            _require_keys(item, _ACTION_KEYS, f"workload.actions[{i}]")
            what = f"workload.actions[{i}]"
            for key in ("at", "amount"):
                if key in item:
                    _int_field(item, key, what)
            try:
                parsed.append(WorkloadAction(**item))
            except TypeError as exc:
                raise ScenarioError(f"{what}: {exc}") from exc
        actions = tuple(parsed)
    elif "random" in workload_raw:
        if not isinstance(workload_raw["random"], dict):
            raise ScenarioError("workload.random must be an object")
        _require_keys(workload_raw["random"], _RANDOM_KEYS, "workload.random")
        for key in workload_raw["random"]:
            _int_field(workload_raw["random"], key, "workload.random")
        random_workload = RandomWorkload(**workload_raw["random"])

    injections = []
    for i, item in enumerate(raw.get("injections", [])):
        if not isinstance(item, dict):
            raise ScenarioError(f"injections[{i}] must be an object")
        _require_keys(item, _INJECTION_KEYS, f"injections[{i}]")
        try:
            kind = InjectionKind.parse(str(item.get("kind", "")))
        except ValueError as exc:
            raise ScenarioError(f"injections[{i}]: {exc}") from exc
        if "at" not in item:
            raise ScenarioError(f"injections[{i}] needs 'at'")
        injections.append(
            Injection(
                kind=kind,
                at=_int_field(item, "at", f"injections[{i}]"),
                duration=_int_field(item, "duration", f"injections[{i}]") if "duration" in item else 0,
                targets=tuple(item.get("targets", ())),
                amount=_int_field(item, "amount", f"injections[{i}]") if "amount" in item else 0,
            )
        )

    upgrade_at = None
    if "upgrade" in raw:
        if not isinstance(raw["upgrade"], dict):
            raise ScenarioError("'upgrade' must be an object")
        _require_keys(raw["upgrade"], {"announce_at"}, "upgrade")
        if "announce_at" not in raw["upgrade"]:
            raise ScenarioError("upgrade needs 'announce_at'")
        upgrade_at = _int_field(raw["upgrade"], "announce_at", "upgrade")

    return Scenario(
        name=str(raw.get("name", name)),
        config=config,
        params=params,
        actions=actions,
        random_workload=random_workload,
        injections=tuple(injections),
        upgrade_at=upgrade_at,
        description=str(raw.get("description", "")),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(raw, name=path.stem)


def load_bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package by file name."""
    if not name.endswith(".json"):
        name += ".json"
    try:
        path = fixture_path(f"scenarios/{name}")
    except FileNotFoundError as exc:
        raise ScenarioError(str(exc)) from exc
    return load_scenario(path)
