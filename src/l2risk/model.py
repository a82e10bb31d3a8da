"""Shared domain model: project risk profiles, incident taxonomy, stakeholder
roles, overlap fields, rollup configuration, and harm metrics, plus the
label, percentage and text-table helpers, the exact field type check, and
the JSON file loader and strict reader that scenarios, rulesets and artifacts share."""

from __future__ import annotations

import datetime as dt
import enum
import functools
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from types import MappingProxyType, UnionType
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints


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


def iso_date(text: str) -> dt.date:
    """The date written exactly as YYYY-MM-DD. Other spellings that
    date.fromisoformat takes, such as "20220101" or the week date
    "2022-W01-1", are a ValueError, as the JSON Schema date format has it."""
    date = dt.date.fromisoformat(text)
    if date.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date


def decode_text(data: bytes) -> str:
    """data as Path.read_text(encoding="utf-8") reads it: strict UTF-8 with
    universal newlines, so parse errors report the same lines and columns.
    Text without a carriage return is returned as decoded, uncopied."""
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def decode_file(path, data: bytes, error: type[ValueError] = ValueError) -> str:
    """decode_text(data) for ``data`` read from file ``path``; bytes that are
    not UTF-8 raise ``error`` naming it."""
    try:
        return decode_text(data)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc})") from exc


def load_json(path, text: str | None = None, error: type[ValueError] = ValueError):
    """The JSON in ``text``, else in file ``path``; text that is not UTF-8
    or not JSON raises ``error`` naming it."""
    if text is None:
        text = decode_file(path, Path(path).read_bytes(), error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


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


def check_tally(members, key: str, counts: Mapping, shares: Mapping, **scalars: int) -> None:
    """Raise ValueError unless ``counts`` (named ``key``) and ``shares`` hold one
    value per member, no count or ``scalars`` value is negative and each share is None or 0-100."""
    for name, table in ((key, counts), ("shares", shares)):
        missing = [m.value for m in members if m not in table]
        if missing:
            raise ValueError(f"{name} is missing {missing}")
    scalars.update({f"{key}.{m.value}": count for m, count in counts.items()})
    for name, count in scalars.items():
        if count < 0:
            raise ValueError(f"{name} must not be negative")
    for m, share in shares.items():
        if share is not None and not 0 <= share <= 100:
            raise ValueError(f"shares.{m.value} must be between 0 and 100")


def share_table(members, counts: Mapping, total: int) -> dict:
    """Each member's ``percentage`` of ``total``; all None (undefined) when it is 0."""
    return {m: percentage(counts[m], total) if total else None for m in members}


def check_shares(members, counts: Mapping, shares: Mapping, total: int) -> None:
    """Raise ValueError unless ``shares`` is ``share_table(members, counts, total)``;
    run after the checks on counts and totals."""
    for m, expected in share_table(members, counts, total).items():
        if shares[m] != expected:
            raise ValueError(
                f"shares.{m.value} must be {expected} for {counts[m]} of {total}, not {shares[m]}"
            )


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


class _Invalid(Exception):
    """A value the reader refused. ``message`` holds ``{}`` where the value's
    dotted path goes; each enclosing reader prepends its key or index on the
    way out, so the path is only built for a document that fails."""

    def __init__(self, message: str) -> None:
        self.message = message
        self.path = ""

    def at(self, segment: str) -> "_Invalid":
        self.path = segment + self.path
        return self


_JSON_TYPES = {int: "an integer", bool: "a boolean", str: "a string"}


@functools.cache
def _field_types(cls) -> tuple:
    """(name, exact types, exact item type or None, words) per field of
    dataclass ``cls``, each typed X, ``X | None`` or ``tuple[X, ...]``."""
    table = []
    for name, tp in get_type_hints(cls).items():
        x, *rest = get_args(tp) or (tp,)
        words = _JSON_TYPES.get(x) or ("an " if x.__name__[0] in "AEIOU" else "a ") + x.__name__
        if get_origin(tp) is tuple:
            table.append((name, (tuple,), x, words))
        else:
            table.append((name, (x, *rest), None, f"{words} or None" if rest else words))
    return tuple(table)


def check_types(obj, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless each field of dataclass ``obj`` holds exactly its declared
    type; a bool is not an int, which the trace would write with %d as 1."""
    for name, types, item, words in _field_types(type(obj)):
        value = getattr(obj, name)
        if type(value) not in types:
            raise error(f"{name} must be {'a tuple' if item else words}, not {value!r}")
        if item is not None:
            for i, v in enumerate(value):
                if type(v) is not item:
                    raise error(f"{name}[{i}] must be {words}, not {v!r}")


@functools.cache
def _reader(tp):
    """The function that reads one decoded JSON value as type ``tp`` or
    raises :class:`_Invalid`; built once per type."""
    origin, args = get_origin(tp), get_args(tp)
    if tp in _JSON_TYPES:
        what = f"{{}} must be {_JSON_TYPES[tp]}"

        def read(value):
            if type(value) is not tp:  # not isinstance: JSON true is not the integer 1
                raise _Invalid(what)
            return value

    elif tp == float | None:  # a share: 100 reads as 100.0, and true is not a number

        def read(value):
            if value is not None and type(value) not in (int, float):
                raise _Invalid("{} must be a number or null")
            return None if value is None else float(value)

    elif is_dataclass(tp) or origin is dict:
        if origin is dict:  # a table keyed by the enum members' values
            members = {m.value: m for m in args[0]}
            types = dict.fromkeys(members, args[1])
            required = ()

            def build(**items):
                return {members[key]: item for key, item in items.items()}

        else:
            hints = get_type_hints(tp)
            types = {f.name: hints[f.name] for f in fields(tp)}
            required = [f.name for f in fields(tp) if f.default is f.default_factory is MISSING]
            build = tp
        readers = {key: _reader(t) for key, t in types.items()}
        # a value that already has its key's exact scalar type is taken as is,
        # with no reader call: the reader would return it unchanged
        scalars = {key: t for key, t in types.items() if t in _JSON_TYPES}

        def read(value):
            if type(value) is not dict:
                raise _Invalid("{} must be an object")
            if not value.keys() <= readers.keys():
                raise _Invalid(f"unknown {{}} keys: {sorted(value.keys() - readers.keys())}")
            kwargs = {}
            for key, item in value.items():
                if type(item) is not scalars.get(key):
                    try:
                        item = readers[key](item)
                    except _Invalid as exc:
                        raise exc.at(f".{key}")
                kwargs[key] = item
            for key in required:
                if key not in kwargs:
                    raise _Invalid("{} is required").at(f".{key}")
            try:
                return build(**kwargs)
            except ValueError as exc:  # a __post_init__ check
                raise _Invalid(f"{{}}: {exc}") from exc

    elif isinstance(tp, type) and issubclass(tp, _LabeledEnum):
        members = {m.value: m for m in tp}
        what = f"{{}} must be one of {list(members)}"

        def read(value):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an unhashable list or object
                raise _Invalid(what) from None

    elif origin is tuple and args[1:] == (Ellipsis,):
        element = _reader(args[0])
        what = "{} must be a list of strings" if args[0] is str else "{} must be a list"

        def read(value):
            if type(value) is not list:
                raise _Invalid(what)
            out = []
            for i, item in enumerate(value):
                try:
                    out.append(element(item))
                except _Invalid as exc:
                    raise _Invalid(what) if args[0] is str else exc.at(f"[{i}]")
            return tuple(out)

    elif origin is UnionType and args[1:] == (type(None),):
        inner = _reader(args[0])

        def read(value):
            return None if value is None else inner(value)

    else:
        raise TypeError(f"no JSON reader for {tp!r}")
    return read


def read_json(tp, raw, what: str, error: type[ValueError] = ValueError):
    """The decoded JSON document ``raw`` read strictly as ``tp``; a refused value
    raises ``error`` naming its dotted path, or ``what`` for the whole document."""
    try:
        return _reader(tp)(raw)
    except _Invalid as exc:
        # the placeholder comes before any text taken from the document
        raise error(exc.message.replace("{}", exc.path.lstrip(".") or what, 1)) from exc


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


_Bucket = CompressedIncidentType

# The taxonomy, one row per glossary class: (class, label fragments, bucket).
# Labels classify first-match over the fragments in row order, so a specific
# fragment sits above the generic one it contains ("bridge halt" above
# "halt", "l2 downtime" above "downtime"). Rows stay a tuple scanned by
# identity: a dict keyed by members would fix their hashes at import.
INCIDENT_TAXONOMY: tuple[tuple[IncidentClass, tuple[str, ...], CompressedIncidentType], ...] = (
    (IncidentClass.CENSORSHIP_FORCED_INCLUSION_FAILURE, ("censor",), _Bucket.CENSORSHIP_OR_FORCED_INCLUSION),
    (IncidentClass.EXPLOIT_USER_RISK, ("exploit", "security"), _Bucket.EXPLOIT_OR_SECURITY),
    (IncidentClass.WITHDRAWAL_DELAYS, ("withdrawal delay",), _Bucket.BRIDGE_OR_WITHDRAWAL),
    (IncidentClass.WITHDRAWAL_FAILURE, ("withdrawal failure", "bridge issue"), _Bucket.BRIDGE_OR_WITHDRAWAL),
    (IncidentClass.BRIDGE_PAUSE_RISK, ("bridge pause",), _Bucket.BRIDGE_OR_WITHDRAWAL),
    (IncidentClass.BRIDGE_HALT, ("bridge halt",), _Bucket.BRIDGE_OR_WITHDRAWAL),
    (IncidentClass.SEQUENCER_PERFORMANCE_DEGRADATION, ("performance degradation",), _Bucket.SEQUENCER_DISRUPTION),
    (IncidentClass.L2_DOWNTIME, ("l2 downtime",), _Bucket.BRIDGE_OR_WITHDRAWAL),
    (IncidentClass.SEQUENCER_OUTAGE, ("outage", "downtime"), _Bucket.SEQUENCER_DISRUPTION),
    (IncidentClass.SEQUENCER_HALT, ("halt",), _Bucket.SEQUENCER_DISRUPTION),
)


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
    source_url: str
    source_kind: SourceKind

    def __post_init__(self) -> None:
        if not self.project.strip():
            raise ValueError("incident project must be non-empty")

    @property
    def compressed(self) -> CompressedIncidentType | None:
        """The glossary class's reporting bucket; None when unclassified."""
        for cls, _fragments, bucket in INCIDENT_TAXONOMY:
            if cls is self.glossary_class:
                return bucket
        return None


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

    def __post_init__(self) -> None:
        check_types(self)


@dataclass(frozen=True)
class ProposerConfig:
    whitelist: bool = True
    count: int = 1

    def __post_init__(self) -> None:
        check_types(self)
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
        check_types(self)
        if self.usable and not self.enabled:
            raise ValueError("forced inclusion cannot be usable while disabled")
        if self.enabled and self.timeout <= 0:
            raise ValueError("forced inclusion timeout must be positive")


@dataclass(frozen=True)
class EscapeHatchConfig:
    enabled: bool = False
    non_disableable: bool = False

    def __post_init__(self) -> None:
        check_types(self)


@dataclass(frozen=True)
class DaConfig:
    mode: DaMode = DaMode.ONCHAIN
    attestation_quorum: int = 0
    withholding_possible: bool = False

    def __post_init__(self) -> None:
        check_types(self)
        if self.mode is DaMode.ONCHAIN and self.withholding_possible:
            raise ValueError("onchain data cannot be withheld")


@dataclass(frozen=True)
class UpgradeConfig:
    policy: UpgradePolicy = UpgradePolicy.INSTANT
    window: int = 0

    def __post_init__(self) -> None:
        check_types(self)
        if self.policy is UpgradePolicy.TIMELOCKED and self.window <= 0:
            raise ValueError("timelocked upgrades need a positive exit window")


@dataclass(frozen=True)
class ProverSetConfig:
    count: int = 1
    permissionless: bool = False

    def __post_init__(self) -> None:
        check_types(self)
        if self.count < 1:
            raise ValueError("prover count must be >= 1")


@dataclass(frozen=True)
class RollupConfig:
    """Architecture switches for one rollup deployment."""

    # Each default is one shared instance: they are frozen, so no config can
    # change another's, and a load builds none of them afresh.
    proof_system: ProofSystem = ProofSystem.ZK
    sequencer: SequencerConfig = SequencerConfig()
    proposer: ProposerConfig = ProposerConfig()
    forced_inclusion: ForcedInclusionConfig = ForcedInclusionConfig()
    escape_hatch: EscapeHatchConfig = EscapeHatchConfig()
    da: DaConfig = DaConfig()
    upgrade: UpgradeConfig = UpgradeConfig()
    challenge_window: int = 0  # optimistic only
    prover_set: ProverSetConfig | None = None  # zk provers; optimistic challengers
    state_validation_enforced: bool = True

    def __post_init__(self) -> None:
        check_types(self)
        if self.proof_system is ProofSystem.OPTIMISTIC and self.challenge_window <= 0:
            raise ValueError("optimistic rollups need a positive challenge window")
        if self.proof_system is ProofSystem.ZK and self.prover_set is None:
            object.__setattr__(self, "prover_set", ProverSetConfig())

    @classmethod
    def centralized_default(cls) -> "RollupConfig":
        """Reference deployment: one operator runs sequencing, proposing, and
        upgrades with no user fallbacks, while proving capacity includes an
        independent prover. Only what differs from the field defaults is
        written."""
        return cls(
            da=DaConfig(mode=DaMode.EXTERNAL, attestation_quorum=1, withholding_possible=True),
            prover_set=ProverSetConfig(count=2),
        )

    def has_independent_provers(self) -> bool:
        return self.proof_system is ProofSystem.ZK and self.prover_set.count > 1


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
