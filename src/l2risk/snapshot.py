"""Risk-snapshot ingestion: explore unfamiliar JSON layouts, adapt known
layouts to one normalized shape, flag hazardous per-dimension entries with a
configurable ruleset, and aggregate flag prevalence across projects.

The normalized shape is a top-level "projects" array whose items carry id,
name, category, and a "risks" array of {name, value, sentiment, description}.
Adapters map other layouts onto it.

One extract flags each distinct risk row once and shares the resulting
entry among every project that carries that row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from .data import RULESET_JSON, fixture_path
from .model import (
    ProjectCategory,
    ProjectRiskProfile,
    RiskDimension,
    RiskEntry,
    Sentiment,
    _slug,
    aligned_table,
    check_shares,
    check_tally,
    load_json,
    normalize_label,
    read_json,
    share_table,
)


class SnapshotParseError(ValueError):
    """The snapshot file is not valid JSON."""


class SchemaMismatchError(ValueError):
    """No adapter recognizes the document layout; carries a schema report."""

    def __init__(self, message: str, report: "SchemaReport"):
        super().__init__(message)
        self.report = report


class DuplicateProjectError(ValueError):
    """Two source records resolve to the same project id."""


# ---------------------------------------------------------------------------
# Schema exploration


@dataclass(frozen=True)
class SchemaPath:
    path: str
    count: int
    samples: tuple[str, ...]


@dataclass(frozen=True)
class SchemaReport:
    """Leaf paths of a JSON tree in dot/[] notation, with occurrence counts
    and up to three truncated sample values each."""

    paths: tuple[SchemaPath, ...]

    def path_names(self) -> list[str]:
        return [p.path for p in self.paths]


_MAX_SAMPLES = 3
_SAMPLE_WIDTH = 80


def explore_schema(doc: Any) -> SchemaReport:
    """Enumerate every leaf path in a parsed JSON document.

    Object members extend the path with ".key", array elements with "[]",
    so {"a": {"b": 1}, "c": [2, 3]} yields paths "a.b" (count 1) and "c[]"
    (count 2). Paths come back sorted lexicographically.
    """
    counts: dict[str, int] = {}
    samples: dict[str, list[str]] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        else:
            counts[path] = counts.get(path, 0) + 1
            bucket = samples.setdefault(path, [])
            if len(bucket) < _MAX_SAMPLES:
                bucket.append(json.dumps(node, ensure_ascii=False)[:_SAMPLE_WIDTH])

    walk(doc, "")
    return SchemaReport(
        tuple(
            SchemaPath(path, counts[path], tuple(samples[path])) for path in sorted(counts)
        )
    )


def render_schema_text(report: SchemaReport) -> str:
    if not report.paths:
        return "(no scalar leaves found)"
    width = max(len(p.path) for p in report.paths)
    lines = []
    for p in report.paths:
        lines.append(f"{p.path.ljust(width)}  x{p.count}  {', '.join(p.samples)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Document loading and layout adapters

Adapter = Callable[[Any], "list[dict] | None"]


def _adapt_normalized(doc: Any) -> list[dict] | None:
    if isinstance(doc, dict) and isinstance(doc.get("projects"), list):
        return [p for p in doc["projects"] if isinstance(p, dict)]
    return None


def _adapt_keyed(doc: Any) -> list[dict] | None:
    """Layout with projects as an id-keyed object instead of an array."""
    if isinstance(doc, dict) and isinstance(doc.get("projects"), dict):
        out = []
        for key, raw in doc["projects"].items():
            if isinstance(raw, dict):
                out.append({"id": raw.get("id", key), **raw})
        return out
    return None


def _adapt_wrapped(doc: Any) -> list[dict] | None:
    """Layout with the project array nested under a "data" envelope."""
    if isinstance(doc, dict) and isinstance(doc.get("data"), dict):
        return _adapt_normalized(doc["data"]) or _adapt_keyed(doc["data"])
    return None


ADAPTERS: Mapping[str, Adapter] = MappingProxyType(
    {
        "normalized": _adapt_normalized,
        "keyed": _adapt_keyed,
        "wrapped": _adapt_wrapped,
    }
)


def load_snapshot(path: str | Path, *, text: str | None = None) -> Any:
    """Parse a snapshot JSON file. Pass ``text`` to parse content already
    read from ``path`` instead of reading it again."""
    return load_json(path, text, SnapshotParseError)


def _project_rows(doc: Any, adapter: str) -> list[dict]:
    if adapter != "auto":
        if adapter not in ADAPTERS:
            raise ValueError(f"unknown adapter {adapter!r}; known: {sorted(ADAPTERS)}")
        rows = ADAPTERS[adapter](doc)
        if rows is None:
            raise SchemaMismatchError(
                f"adapter {adapter!r} does not recognize this document", explore_schema(doc)
            )
        return rows
    for name in ADAPTERS:
        rows = ADAPTERS[name](doc)
        if rows is not None:
            return rows
    raise SchemaMismatchError("no adapter recognizes this document", explore_schema(doc))


# ---------------------------------------------------------------------------
# Flagging


@dataclass(frozen=True)
class FlagRuleset:
    """Per-dimension hazard conditions.

    A rule key flags an entry when it occurs as a substring of the entry's
    normalized value or description. With sentiment_fallback on, entries no
    key matched are still flagged when their source sentiment is "bad".
    """

    rules: Mapping[RiskDimension, tuple[str, ...]]
    sentiment_fallback: bool = True

    def __post_init__(self) -> None:
        normalized = {
            dim: tuple(normalize_label(k) for k in keys) for dim, keys in self.rules.items()
        }
        object.__setattr__(self, "rules", MappingProxyType(normalized))

    @classmethod
    def from_file(cls, path: str | Path, *, text: str | None = None) -> "FlagRuleset":
        """Read a ruleset file as ``ruleset.schema.json`` describes it;
        anything else is a ValueError. Pass ``text`` to parse content
        already read from ``path``."""
        doc = read_json(_RulesetFile, load_json(path, text), "ruleset")
        return cls(rules=doc.rules, sentiment_fallback=doc.sentiment_fallback)

    @classmethod
    def default(cls) -> "FlagRuleset":
        return cls.from_file(fixture_path(RULESET_JSON))

    def matches(self, dimension: RiskDimension, value: str, description: str) -> bool:
        value = normalize_label(value)
        description = normalize_label(description)
        return any(key in value or key in description for key in self.rules.get(dimension, ()))


@dataclass(eq=False, repr=False)
class _RulesetFile:
    rules: dict[RiskDimension, tuple[str, ...]]
    sentiment_fallback: bool = True
    version: int = 1


def _risk_fields(raw: Mapping[str, Any]) -> tuple[str, str, str, str]:
    """The (name, value, sentiment, description) strings that flag_entry reads."""
    return (
        str(raw.get("name", "")),
        str(raw.get("value", "")),
        str(raw.get("sentiment", "unknown")),
        str(raw.get("description", "")),
    )


def flag_entry(raw: Mapping[str, Any], ruleset: FlagRuleset) -> RiskEntry:
    """Build a RiskEntry from one raw risk record and decide its flag.

    Records naming a dimension outside the tracked five are preserved with
    dimension=None and flagged=False; they never join a profile, and
    extract_projects warns about them once per row. Flagging is a pure
    function of (dimension, value, sentiment, description) given the ruleset.
    """
    return _flag_fields(*_risk_fields(raw), ruleset)


def _flag_fields(
    name: str, value: str, sentiment_text: str, description: str, ruleset: FlagRuleset
) -> RiskEntry:
    """flag_entry on the strings _risk_fields has already read."""
    try:
        sentiment = Sentiment.parse(sentiment_text)
    except ValueError:
        sentiment = Sentiment.UNKNOWN
    try:
        dimension: RiskDimension | None = RiskDimension.parse(name)
    except ValueError:
        return RiskEntry(None, value, sentiment, description, flagged=False)

    flagged = ruleset.matches(dimension, value, description)
    if not flagged and ruleset.sentiment_fallback and sentiment is Sentiment.BAD:
        flagged = True
    return RiskEntry(dimension, value, sentiment, description, flagged=flagged)


# ---------------------------------------------------------------------------
# Extraction

CONFORMING_CATEGORIES = frozenset(ProjectCategory)


@dataclass(frozen=True)
class ExtractResult:
    profiles: tuple[ProjectRiskProfile, ...]
    warnings: tuple[str, ...]


def extract_projects(
    doc: Any,
    ruleset: FlagRuleset | None = None,
    categories: Iterable[ProjectCategory] | None = None,
    adapter: str = "auto",
) -> ExtractResult:
    """Turn a snapshot document into flagged project risk profiles.

    Projects without a category are skipped with a warning; categories
    outside the tracked three are excluded with a warning. Warnings are
    returned in ExtractResult.warnings, never logged. Duplicate project
    ids are a hard error. An explicit ``categories`` filter narrows the
    result further.
    """
    ruleset = ruleset or FlagRuleset.default()
    wanted = frozenset(categories) if categories is not None else CONFORMING_CATEGORIES
    warnings: list[str] = []
    profiles: list[ProjectRiskProfile] = []
    seen_ids: set[str] = set()
    flagged_rows: dict[tuple[str, str, str, str], RiskEntry] = {}
    parsed_labels: dict[str, ProjectCategory | None] = {}

    for raw in _project_rows(doc, adapter):
        name = str(raw.get("name") or raw.get("id") or "")
        project_id = str(raw.get("id") or _slug(name))
        raw_category = raw.get("category")
        if not raw_category:
            warnings.append(f"project {project_id or name or '?'}: no category; skipped")
            continue
        # keyed on the label, not the raw value, which may be an unhashable list
        label = str(raw_category)
        if label not in parsed_labels:
            try:
                parsed_labels[label] = ProjectCategory.parse(label)
            except ValueError:
                parsed_labels[label] = None
        category = parsed_labels[label]
        if category is None:
            warnings.append(
                f"project {project_id}: category {raw_category!r} outside the tracked set; excluded"
            )
            continue
        if category not in wanted:
            continue
        if not project_id:
            warnings.append("project with no id or name skipped")
            continue
        if project_id in seen_ids:
            raise DuplicateProjectError(f"duplicate project id {project_id!r}")
        seen_ids.add(project_id)

        entries: list[RiskEntry] = []
        dims_seen: set[RiskDimension] = set()
        risks = raw.get("risks")
        if risks is not None and type(risks) is not list:
            warnings.append(f"project {project_id}: non-list risks value dropped")
            risks = None
        for raw_risk in risks or ():
            if not isinstance(raw_risk, dict):
                warnings.append(f"project {project_id}: non-object risk entry dropped")
                continue
            key = _risk_fields(raw_risk)
            entry = flagged_rows.get(key)
            if entry is None:
                entry = flagged_rows[key] = _flag_fields(*key, ruleset)
            if entry.dimension is None:
                warnings.append(
                    f"project {project_id}: untracked risk name {raw_risk.get('name')!r} dropped"
                )
                continue
            if entry.dimension in dims_seen:
                warnings.append(
                    f"project {project_id}: duplicate {entry.dimension.value} entry; first kept"
                )
                continue
            dims_seen.add(entry.dimension)
            entries.append(entry)
        profiles.append(ProjectRiskProfile(project_id, name or project_id, category, tuple(entries)))

    return ExtractResult(tuple(profiles), tuple(warnings))


DIMENSION_LABELS: Mapping[RiskDimension, str] = MappingProxyType(
    {
        RiskDimension.STATE_VALIDATION: "State validation",
        RiskDimension.EXIT_WINDOW: "Exit window",
        RiskDimension.PROPOSER_FAILURE: "Proposer failure",
        RiskDimension.SEQUENCER_FAILURE: "Sequencer failure",
        RiskDimension.DATA_AVAILABILITY: "Data availability",
    }
)


# ---------------------------------------------------------------------------
# Prevalence

HAZARD_SUMMARIES: Mapping[RiskDimension, str] = MappingProxyType(
    {
        RiskDimension.STATE_VALIDATION: "Invalid state roots can be accepted; nothing enforces validation",
        RiskDimension.EXIT_WINDOW: "Contracts upgrade instantly, leaving users no window to exit first",
        RiskDimension.PROPOSER_FAILURE: "Root posting is whitelisted, so proposer failure freezes withdrawals",
        RiskDimension.SEQUENCER_FAILURE: "No inclusion path exists while the sequencer is down or censoring",
        RiskDimension.DATA_AVAILABILITY: "State reconstruction leans entirely on data kept off the L1",
    }
)


@dataclass(frozen=True)
class PrevalenceTable:
    """How many analyzed projects carry each flagged hazard.

    Shares are None (undefined) when no projects were analyzed, which is
    deliberately distinct from a measured 0.0.
    """

    total_projects: int
    flagged: Mapping[RiskDimension, int]
    shares: Mapping[RiskDimension, float | None]

    def __post_init__(self) -> None:
        check_tally(
            RiskDimension, "flagged", self.flagged, self.shares, total_projects=self.total_projects
        )
        for dim, count in self.flagged.items():
            if count > self.total_projects:
                raise ValueError(f"flag count out of range for {dim.value}")
        check_shares(RiskDimension, self.flagged, self.shares, self.total_projects)
        object.__setattr__(self, "flagged", MappingProxyType(dict(self.flagged)))
        object.__setattr__(self, "shares", MappingProxyType(dict(self.shares)))

    def to_dict(self, warnings: Iterable[str]) -> dict:
        """The artifact ``ingest-snapshot --format json`` writes and the report
        embeds, with the extraction's ``warnings``."""
        return {
            "total_projects": self.total_projects,
            "flagged": {d.value: self.flagged[d] for d in RiskDimension},
            "shares": {d.value: self.shares[d] for d in RiskDimension},
            "warnings": list(warnings),
        }

    @classmethod
    def from_dict(cls, raw: object) -> "PrevalenceTable":
        doc = read_json(_PrevalenceArtifact, raw, "prevalence")
        return cls(doc.total_projects, doc.flagged, doc.shares)


@dataclass(eq=False, repr=False)
class _PrevalenceArtifact:
    total_projects: int
    flagged: dict[RiskDimension, int]
    shares: dict[RiskDimension, float | None]
    warnings: tuple[str, ...] = ()


def aggregate_prevalence(profiles: Iterable[ProjectRiskProfile]) -> PrevalenceTable:
    """Count projects with a flagged entry per dimension, with half-up shares."""
    profiles = list(profiles)
    total = len(profiles)
    flagged = {d: 0 for d in RiskDimension}
    for p in profiles:
        for e in p.risks:
            if e.flagged:
                flagged[e.dimension] += 1
    shares = share_table(RiskDimension, flagged, total)
    return PrevalenceTable(total_projects=total, flagged=flagged, shares=shares)


def render_prevalence_text(table: PrevalenceTable) -> str:
    """Aligned-column text: Type | Potential risk | Projects | Share (%)."""
    rows = []
    for d in RiskDimension:
        share = table.shares[d]
        rows.append(
            (
                DIMENSION_LABELS[d],
                HAZARD_SUMMARIES[d],
                str(table.flagged[d]),
                "-" if share is None else f"{share:.1f}",
            )
        )
    rows.append(("Total projects analyzed", "", str(table.total_projects), ""))
    return aligned_table(("Type", "Potential risk", "Projects", "Share (%)"), rows, left=2)
