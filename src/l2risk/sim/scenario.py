"""Scenario files for the rollup simulator.

A scenario bundles a rollup configuration, simulator timing parameters, a
workload (an explicit action list or a seeded random one), a list of fault
injections, and an optional upgrade announcement. Scenarios are plain JSON so
they can be versioned next to the analyses they support.

Validation is strict: the JSON reader in :mod:`l2risk.model`, driven by the
dataclass field types, takes every value exactly as written. Unknown keys,
missing required keys, wrong JSON types and enum values other than the
canonical ones raise :class:`ScenarioError` naming the offending value's
dotted path, such as ``workload.actions[3].user``; omitted keys take defaults.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from l2risk.data import fixture_path
from l2risk.model import (
    DAY,
    IncidentClass,
    RollupConfig,
    _LabeledEnum,
    check_types,
    decode_file,
    load_json,
    read_json,
)


class ScenarioError(ValueError):
    """A scenario document is malformed or internally inconsistent."""


InjectionKind = _LabeledEnum(
    "InjectionKind",
    [(c.name, c.value) for c in IncidentClass]
    + [
        ("DA_WITHHOLDING", "da-withholding"),
        ("PROPOSER_OUTAGE", "proposer-outage"),
        ("PROVER_OUTAGE", "prover-outage"),
    ],
    module=__name__,
)
InjectionKind.__doc__ = """Faults the simulator can inject.

The first ten are the observable incident classes used for incident
reporting, so a simulated run can be lined up against the historical
record. The last three are narrower sub-system faults that have no
public-facing incident label of their own.
"""


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
        check_types(self, ScenarioError)
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
        if type(self.targets) is list:
            object.__setattr__(self, "targets", tuple(self.targets))
        check_types(self, ScenarioError)
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
        check_types(self, ScenarioError)
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
        check_types(self, ScenarioError)
        if min(self.users, self.actions, self.horizon, self.max_amount) <= 0:
            raise ScenarioError("random workload fields must be positive")

    def materialize(self, seed: int) -> tuple[WorkloadAction, ...]:
        """The seeded actions, validated, in time order."""
        return tuple(WorkloadAction(*d) for d in self.stream(seed))

    def stream(self, seed: int) -> Iterator[tuple[int, str, str, int, str | None]]:
        """The seeded actions as plain (at, action, user, amount, to) tuples,
        each drawn when taken: in time order, same-instant ones in draw order.

        Each uniform draw from range(n) is exactly what Python 3.11's
        Random.randrange(n), randint(1, n) - 1 and choice() over n items make
        of the same generator: n.bit_length() random bits, drawn again while
        they reach n. The bit lengths are worked out once per stream and the
        draws made inline, with no function call per number."""
        getrandbits = random.Random(seed).getrandbits
        kinds = ("deposit", "withdraw", "withdraw", "transfer")
        names = [f"user-{i}" for i in range(self.users)]
        # the size of each range drawn from, and the bits a draw takes
        horizon, users, n_kinds, max_amount = self.horizon, self.users, len(kinds), self.max_amount
        others = users - 1  # a recipient is an index into names without the sender
        k_horizon, k_users, k_kinds, k_amount, k_others = (
            n.bit_length() for n in (horizon, users, n_kinds, max_amount, others)
        )
        times = []
        for _ in range(self.actions):
            t = getrandbits(k_horizon)
            while t >= horizon:
                t = getrandbits(k_horizon)
            times.append(t)
        times.sort()
        seen: set[str] = set()
        for t in times:
            i = getrandbits(k_users)
            while i >= users:
                i = getrandbits(k_users)
            user = names[i]
            if user not in seen:
                seen.add(user)
                kind = "deposit"
            else:
                r = getrandbits(k_kinds)
                while r >= n_kinds:
                    r = getrandbits(k_kinds)
                kind = kinds[r]
            amount = getrandbits(k_amount)
            while amount >= max_amount:
                amount = getrandbits(k_amount)
            amount += 1
            if kind == "transfer" and others:
                j = getrandbits(k_others)
                while j >= others:
                    j = getrandbits(k_others)
                yield t, "transfer", user, amount, names[j + (j >= i)]
            elif kind == "transfer":
                yield t, "withdraw", user, amount, None
            else:
                yield t, kind, user, amount, None


@dataclass(frozen=True)
class Scenario:
    name: str
    config: RollupConfig
    params: SimParams = SimParams()  # frozen, so one instance serves every default
    actions: tuple[WorkloadAction, ...] = ()
    random_workload: RandomWorkload | None = None
    injections: tuple[Injection, ...] = ()
    upgrade_at: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        for name in ("actions", "injections"):
            if type(getattr(self, name)) is list:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        check_types(self, ScenarioError)
        if self.actions and self.random_workload is not None:
            raise ScenarioError("workload is either explicit or random, not both")
        if self.upgrade_at is not None and self.upgrade_at < 0:
            raise ScenarioError("upgrade announcement must be >= 0")


# The document's shape. These live only inside parse_scenario and are never
# compared or printed; leaving out frozen, eq and repr saves about 1 ms of
# every import of this module.
@dataclass(eq=False, repr=False)
class _Workload:
    actions: tuple[WorkloadAction, ...] = ()
    random: RandomWorkload | None = None


@dataclass(eq=False, repr=False)
class _Upgrade:
    announce_at: int


@dataclass(eq=False, repr=False)
class _Document:
    """The shape of a scenario file, as ``scenario.schema.json`` describes it."""

    name: str
    config: RollupConfig
    description: str = ""
    sim: SimParams = SimParams()
    workload: _Workload = field(default_factory=_Workload)
    injections: tuple[Injection, ...] = ()
    upgrade: _Upgrade | None = None


def parse_scenario(raw: object, *, name: str = "scenario") -> Scenario:
    """Build a validated Scenario from a decoded JSON document; a document
    without a ``name`` takes ``name``."""
    if type(raw) is dict:
        raw = {"name": name, **raw}
    doc = read_json(_Document, raw, "scenario", ScenarioError)
    if {"actions", "random"} <= raw.get("workload", {}).keys():
        raise ScenarioError("workload is either explicit or random, not both")
    return Scenario(
        name=doc.name,
        config=doc.config,
        params=doc.sim,
        actions=doc.workload.actions,
        random_workload=doc.workload.random,
        injections=doc.injections,
        upgrade_at=None if doc.upgrade is None else doc.upgrade.announce_at,
        description=doc.description,
    )


def read_scenario(path: str | Path) -> bytes:
    """A scenario file's bytes, read from the path as given; a file that
    cannot be read is a ScenarioError."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc


def load_scenario(path: str | Path, *, text: str | None = None) -> Scenario:
    """Read and validate a scenario JSON file. Pass ``text`` to parse
    content already read from ``path``."""
    path = Path(path)
    if text is None:
        text = decode_file(path, read_scenario(path), ScenarioError)
    return parse_scenario(load_json(path, text, ScenarioError), name=path.stem)


def load_bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package by file name."""
    if not name.endswith(".json"):
        name += ".json"
    try:
        path = fixture_path(f"scenarios/{name}")
    except FileNotFoundError as exc:
        raise ScenarioError(str(exc)) from exc
    return load_scenario(path)
