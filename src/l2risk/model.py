"""Shared domain model: project risk profiles, incident taxonomy, stakeholder
roles, overlap fields, rollup configuration, and harm metrics, plus the
label, percentage, text-table and strict JSON-artifact helpers the ingest
modules share."""

from __future__ import annotations

import datetime as dt
import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence


def normalize_label(text: str) -> str:
    """Lowercase and collapse internal whitespace. Used before any matching."""
    return " ".join(text.split()).lower()


def _slug(text: str) -> str:
    return normalize_label(text).replace(" ", "-").replace("_", "-")


def percentage(count: int, total: int) -> float:
    """Share of total as a percentage, rounded half-up to one decimal.
    Exact integer arithmetic: the share in tenths of a percent, 1000 *
    count / total, plus one half, floored (count is never negative)."""
    if total <= 0:
        raise ValueError("total must be positive")
    return (2000 * count + total) // (2 * total) / 10


def decode_text(data: bytes) -> str:
    """data as Path.read_text(encoding="utf-8") reads it: strict UTF-8 with
    universal newlines, so parse errors report the same lines and columns."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def aligned_table(headers: Sequence[str], rows: Sequence[Sequence[str]], left: int) -> str:
    """Text table: a header line, a dashed rule, then one line per row.
    Columns are two spaces apart; the first ``left`` are left-aligned and
    the rest right-aligned. Trailing spaces are trimmed except on the rule."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        cells = (c.ljust(w) if i < left else c.rjust(w) for i, (c, w) in enumerate(zip(row, widths)))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def json_count(value, where: str) -> int:
    """A count exactly as written in JSON: a non-negative integer, not a bool,
    float or string."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer")
    if value < 0:
        raise ValueError(f"{where} must not be negative")
    return value


def json_share(value, where: str) -> float | None:
    """A share exactly as written in JSON: a percentage from 0 to 100 (a
    number, not a bool) or null."""
    if value is None:
        return None
    if type(value) not in (int, float):
        raise ValueError(f"{where} must be a number or null")
    if not 0 <= value <= 100:
        raise ValueError(f"{where} must be between 0 and 100")
    return float(value)


def enum_table(raw: Mapping, key: str, members: type[enum.Enum], read) -> dict:
    """raw[key] read as one value per enum member, each by read(value, path).
    Keys are the members' canonical values; every member is required and no
    other key is allowed."""
    table = raw[key]
    if not isinstance(table, dict):
        raise ValueError(f"{key} must be an object")
    unknown = sorted(set(table) - {m.value for m in members})
    if unknown:
        raise ValueError(f"unknown {key} keys: {unknown}")
    missing = [m.value for m in members if m.value not in table]
    if missing:
        raise ValueError(f"{key} is missing {missing}")
    return {m: read(table[m.value], f"{key}.{m.value}") for m in members}


class _LabeledEnum(enum.Enum):
    """Enum whose members parse from loosely formatted labels.

    Members hash by identity, in C, which agrees with Enum's identity
    equality; Enum's own __hash__ is a Python function. Nothing the program
    writes may depend on the order of a set of members, since that order
    differs between interpreters under either hash."""

    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str):
        try:
            return cls._value2member_map_[_slug(text)]
        except KeyError:
            raise ValueError(f"{cls.__name__}: unrecognized label {text!r}") from None


class ProjectCategory(_LabeledEnum):
    ZK_ROLLUP = "zk-rollup"
    OPTIMISTIC_ROLLUP = "optimistic-rollup"
    OTHER = "other"


class RiskDimension(_LabeledEnum):
    """The five per-project risk dimensions tracked in a snapshot."""

    STATE_VALIDATION = "state-validation"
    EXIT_WINDOW = "exit-window"
    PROPOSER_FAILURE = "proposer-failure"
    SEQUENCER_FAILURE = "sequencer-failure"
    DATA_AVAILABILITY = "data-availability"


class Sentiment(_LabeledEnum):
    BAD = "bad"
    WARNING = "warning"
    NEUTRAL = "neutral"
    GOOD = "good"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RiskEntry:
    """One dimension's assessment for one project.

    dimension is None when the source row named a dimension we do not track;
    such entries are never flagged. value and description are stored
    normalized (lowercased, trimmed) so flagging is insensitive to source
    formatting.
    """

    dimension: RiskDimension | None
    value: str
    sentiment: Sentiment
    description: str
    flagged: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", normalize_label(self.value))
        object.__setattr__(self, "description", normalize_label(self.description))
        if self.dimension is None and self.flagged:
            raise ValueError("entries with unrecognized dimensions cannot be flagged")


@dataclass(frozen=True)
class ProjectRiskProfile:
    """A project and its per-dimension risk entries (at most one each)."""

    project_id: str
    name: str
    category: ProjectCategory
    risks: tuple[RiskEntry, ...] = ()

    def __post_init__(self) -> None:
        if not self.project_id:
            raise ValueError("project_id must be non-empty")
        seen: set[RiskDimension] = set()
        for entry in self.risks:
            if entry.dimension is None:
                raise ValueError("profiles only hold entries with recognized dimensions")
            if entry.dimension in seen:
                raise ValueError(
                    f"duplicate dimension {entry.dimension.value} in {self.project_id}"
                )
            seen.add(entry.dimension)

    def entry(self, dimension: RiskDimension) -> RiskEntry | None:
        for e in self.risks:
            if e.dimension is dimension:
                return e
        return None


class IncidentClass(_LabeledEnum):
    """Glossary of observable incident classes."""

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


class CompressedIncidentType(_LabeledEnum):
    """Coarse incident buckets used for distribution reporting."""

    SEQUENCER_DISRUPTION = "sequencer-disruption"
    BRIDGE_OR_WITHDRAWAL = "bridge-or-withdrawal"
    EXPLOIT_OR_SECURITY = "exploit-or-security"
    CENSORSHIP_OR_FORCED_INCLUSION = "censorship-or-forced-inclusion"


class SourceKind(_LabeledEnum):
    L2BEAT = "l2beat"
    EXTERNAL = "external"


@dataclass(frozen=True)
class IncidentRecord:
    """A single dated incident at a named project.

    detail keeps the source label verbatim, including any truncation quirks,
    so provenance survives classification.
    """

    project: str
    date_utc: dt.date
    description: str
    detail: str
    glossary_class: IncidentClass | None
    compressed: CompressedIncidentType | None
    source_url: str
    source_kind: SourceKind

    def __post_init__(self) -> None:
        if not self.project.strip():
            raise ValueError("incident project must be non-empty")
        if (self.compressed is None) != (self.glossary_class is None):
            raise ValueError("compressed type must accompany a glossary class")


class Stakeholder(_LabeledEnum):
    END_USER = "end-user"
    APP_DEVELOPER_AS_USER = "app-developer-as-user"
    INDEPENDENT_VALIDATOR_WATCHER = "independent-validator-watcher"
    ROLLUP_OPERATOR = "rollup-operator"
    SEQUENCER = "sequencer"
    GOVERNANCE_GROUP = "governance-group"
    RAAS_PROVIDER = "raas-provider"
    CORE_DEVELOPER = "core-developer"
    L1_DEVELOPER = "l1-developer"
    INDEPENDENT_PROVER = "independent-prover"


class RoleFlag(_LabeledEnum):
    """Ordinal strength of a stakeholder's claim to a role: yes > indirect >
    limited > no. Source cells like "indirect/no" parse to their stronger
    component."""

    YES = "yes"
    INDIRECT = "indirect"
    LIMITED = "limited"
    NO = "no"

    @property
    def rank(self) -> int:
        return {"yes": 3, "indirect": 2, "limited": 1, "no": 0}[self.value]

    @classmethod
    def parse(cls, text: str) -> "RoleFlag":
        head = normalize_label(text).split("/")[0].strip()
        return super().parse(head)


def binarize(flag: RoleFlag, threshold: RoleFlag = RoleFlag.YES) -> bool:
    """Collapse an ordinal role flag to a boolean at the given threshold."""
    return flag.rank >= threshold.rank


@dataclass(frozen=True)
class RoleAssignment:
    """One stakeholder's three role flags."""

    risk_exposed: RoleFlag
    beneficiary: RoleFlag
    decision_maker: RoleFlag

    def binarized(self, threshold: RoleFlag = RoleFlag.YES) -> tuple[bool, bool, bool]:
        return (
            binarize(self.risk_exposed, threshold),
            binarize(self.beneficiary, threshold),
            binarize(self.decision_maker, threshold),
        )


@dataclass(frozen=True)
class RoleMatrix:
    """Role assignments for all ten stakeholders; construction rejects
    anything partial."""

    rows: Mapping[Stakeholder, RoleAssignment]

    def __post_init__(self) -> None:
        missing = [s for s in Stakeholder if s not in self.rows]
        if missing:
            raise ValueError(f"role matrix missing stakeholders: {[m.value for m in missing]}")
        extra = [k for k in self.rows if not isinstance(k, Stakeholder)]
        if extra:
            raise ValueError(f"role matrix has non-stakeholder keys: {extra}")
        object.__setattr__(self, "rows", MappingProxyType(dict(self.rows)))

    def __getitem__(self, stakeholder: Stakeholder) -> RoleAssignment:
        return self.rows[stakeholder]


class EraField(enum.IntEnum):
    """The seven regions of the exposure / benefit / decision overlap diagram."""

    BENEFIT_ONLY = 1
    BENEFIT_AND_DECISION = 2
    DECISION_ONLY = 3
    EXPOSURE_AND_BENEFIT = 4
    FULL_OVERLAP = 5
    EXPOSURE_AND_DECISION = 6
    EXPOSURE_ONLY = 7


# Explicit (risk_exposed, beneficiary, decision_maker) -> field table. The
# all-false triple is deliberately absent: it falls outside the diagram.
FIELD_TABLE: Mapping[tuple[bool, bool, bool], EraField] = MappingProxyType(
    {
        (False, True, False): EraField.BENEFIT_ONLY,
        (False, True, True): EraField.BENEFIT_AND_DECISION,
        (False, False, True): EraField.DECISION_ONLY,
        (True, True, False): EraField.EXPOSURE_AND_BENEFIT,
        (True, True, True): EraField.FULL_OVERLAP,
        (True, False, True): EraField.EXPOSURE_AND_DECISION,
        (True, False, False): EraField.EXPOSURE_ONLY,
    }
)

FIELD_FLAGS: Mapping[EraField, tuple[bool, bool, bool]] = MappingProxyType(
    {f: flags for flags, f in FIELD_TABLE.items()}
)


class ProofSystem(_LabeledEnum):
    OPTIMISTIC = "optimistic"
    ZK = "zk"


class SequencerTopology(_LabeledEnum):
    CENTRALIZED = "centralized"
    SHARED = "shared"
    PERMISSIONLESS = "permissionless"


class DaMode(_LabeledEnum):
    ONCHAIN = "onchain"
    EXTERNAL = "external"


class UpgradePolicy(_LabeledEnum):
    INSTANT = "instant"
    TIMELOCKED = "timelocked"


DAY = 86_400
HOUR = 3_600


@dataclass(frozen=True)
class SequencerConfig:
    topology: SequencerTopology = SequencerTopology.CENTRALIZED
    # Time the operator needs to restore service after an unplanned stop.
    recovery_latency: int = 10 * 60


@dataclass(frozen=True)
class ProposerConfig:
    whitelist: bool = True
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("proposer count must be >= 1")


@dataclass(frozen=True)
class ForcedInclusionConfig:
    enabled: bool = False
    timeout: int = 24 * HOUR
    # Nominally present mechanisms can still be unusable in practice
    # (undocumented, untested, or priced out); model that separately.
    usable: bool = False

    def __post_init__(self) -> None:
        if self.usable and not self.enabled:
            raise ValueError("forced inclusion cannot be usable while disabled")
        if self.enabled and self.timeout <= 0:
            raise ValueError("forced inclusion timeout must be positive")


@dataclass(frozen=True)
class EscapeHatchConfig:
    enabled: bool = False
    non_disableable: bool = False


@dataclass(frozen=True)
class DaConfig:
    mode: DaMode = DaMode.ONCHAIN
    attestation_quorum: int = 0
    withholding_possible: bool = False

    def __post_init__(self) -> None:
        if self.mode is DaMode.ONCHAIN and self.withholding_possible:
            raise ValueError("onchain data cannot be withheld")


@dataclass(frozen=True)
class UpgradeConfig:
    policy: UpgradePolicy = UpgradePolicy.INSTANT
    window: int = 0

    def __post_init__(self) -> None:
        if self.policy is UpgradePolicy.TIMELOCKED and self.window <= 0:
            raise ValueError("timelocked upgrades need a positive exit window")


@dataclass(frozen=True)
class ProverSetConfig:
    count: int = 1
    permissionless: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("prover count must be >= 1")


@dataclass(frozen=True)
class RollupConfig:
    """Architecture switches for one rollup deployment."""

    proof_system: ProofSystem = ProofSystem.ZK
    sequencer: SequencerConfig = field(default_factory=SequencerConfig)
    proposer: ProposerConfig = field(default_factory=ProposerConfig)
    forced_inclusion: ForcedInclusionConfig = field(default_factory=ForcedInclusionConfig)
    escape_hatch: EscapeHatchConfig = field(default_factory=EscapeHatchConfig)
    da: DaConfig = field(default_factory=DaConfig)
    upgrade: UpgradeConfig = field(default_factory=UpgradeConfig)
    challenge_window: int = 0  # optimistic only
    prover_set: ProverSetConfig | None = None  # zk only
    state_validation_enforced: bool = True

    def __post_init__(self) -> None:
        if self.proof_system is ProofSystem.OPTIMISTIC and self.challenge_window <= 0:
            raise ValueError("optimistic rollups need a positive challenge window")
        if self.proof_system is ProofSystem.ZK and self.prover_set is None:
            object.__setattr__(self, "prover_set", ProverSetConfig())

    @classmethod
    def centralized_default(cls) -> "RollupConfig":
        """Reference deployment: one operator runs sequencing, proposing, and
        upgrades with no user fallbacks, while proving capacity includes an
        independent prover."""
        return cls(
            proof_system=ProofSystem.ZK,
            sequencer=SequencerConfig(topology=SequencerTopology.CENTRALIZED),
            proposer=ProposerConfig(whitelist=True, count=1),
            forced_inclusion=ForcedInclusionConfig(enabled=False),
            escape_hatch=EscapeHatchConfig(enabled=False),
            da=DaConfig(mode=DaMode.EXTERNAL, attestation_quorum=1, withholding_possible=True),
            upgrade=UpgradeConfig(policy=UpgradePolicy.INSTANT),
            prover_set=ProverSetConfig(count=2, permissionless=False),
            state_validation_enforced=True,
        )

    def has_independent_provers(self) -> bool:
        return (
            self.proof_system is ProofSystem.ZK
            and self.prover_set is not None
            and self.prover_set.count > 1
        )


@dataclass(frozen=True)
class HarmMetrics:
    """User-harm summary of one simulation run.

    exit_coverage_before_upgrade is None when no upgrade was triggered or no
    user held funds at announcement; that is distinct from a measured 0.0.
    """

    withdrawal_latency: Mapping[str, tuple[int, ...]]
    frozen_funds_duration: int
    censorship_window: int
    exit_coverage_before_upgrade: float | None
    funds_conserved: bool

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "withdrawal_latency",
            MappingProxyType({u: tuple(v) for u, v in dict(self.withdrawal_latency).items()}),
        )

    def to_dict(self) -> dict:
        return {
            "withdrawal_latency": {u: list(v) for u, v in sorted(self.withdrawal_latency.items())},
            "frozen_funds_duration": self.frozen_funds_duration,
            "censorship_window": self.censorship_window,
            "exit_coverage_before_upgrade": self.exit_coverage_before_upgrade,
            "funds_conserved": self.funds_conserved,
        }
