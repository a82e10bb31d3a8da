"""Incident table ingestion: parse and deduplicate dated incident rows,
classify their free-text labels against a fixed glossary, compress the
glossary into four reporting buckets, and tally the distribution."""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping
from urllib.parse import urlparse

from .model import (
    INCIDENT_TAXONOMY,
    CompressedIncidentType,
    IncidentClass,
    IncidentRecord,
    SourceKind,
    aligned_table,
    check_shares,
    check_tally,
    decode_file,
    iso_date,
    normalize_label,
    read_json,
    share_table,
)


class IncidentFormatError(ValueError):
    """Raised when the input table lacks the required header columns."""


REQUIRED_COLUMNS = ("name", "date", "link", "incident_type")

# Each class's bucket, a view of model.INCIDENT_TAXONOMY: the one place a
# class's label fragments and bucket are written.
COMPRESSION_MAP: Mapping[IncidentClass, CompressedIncidentType] = MappingProxyType(
    {cls: bucket for cls, _fragments, bucket in INCIDENT_TAXONOMY}
)

COMPRESSED_LABELS: Mapping[CompressedIncidentType, str] = MappingProxyType(
    {
        CompressedIncidentType.SEQUENCER_DISRUPTION: "Sequencer disruption (outage, halt, degraded performance)",
        CompressedIncidentType.BRIDGE_OR_WITHDRAWAL: "Bridge or withdrawal failure",
        CompressedIncidentType.EXPLOIT_OR_SECURITY: "Exploit or security incident putting users at risk",
        CompressedIncidentType.CENSORSHIP_OR_FORCED_INCLUSION: "Censorship or forced-inclusion failure",
    }
)


def classify_incident(detail: str) -> IncidentClass | None:
    """Map a free-text incident label to a glossary class.

    Matching is first-hit over the taxonomy's fragments in row order;
    labels nothing matches return None and are reported as unmapped.
    """
    text = normalize_label(detail)
    for cls, fragments, _bucket in INCIDENT_TAXONOMY:
        for fragment in fragments:
            if fragment in text:
                return cls
    return None


def compress(glossary_class: IncidentClass) -> CompressedIncidentType:
    """Fold a glossary class into its four-way reporting bucket."""
    return COMPRESSION_MAP[glossary_class]


@dataclass(frozen=True)
class RowIssue:
    """A rejected or suspicious input row, with its 1-based line number."""

    line: int
    reason: str
    raw: str = ""


@dataclass(frozen=True)
class IncidentParseResult:
    records: tuple[IncidentRecord, ...]
    issues: tuple[RowIssue, ...]
    duplicates_removed: int

    @property
    def warnings(self) -> list[str]:
        return [f"line {i.line}: {i.reason}" for i in self.issues]


def _source_kind(host: str) -> SourceKind:
    if host == "l2beat.com" or host.endswith(".l2beat.com"):
        return SourceKind.L2BEAT
    return SourceKind.EXTERNAL


def parse_incidents(source: str | Path, *, text: str | None = None) -> IncidentParseResult:
    """Parse a CSV/TSV incident table into classified records.

    The table needs a header with name, date, link, and incident_type
    columns (any order, case-insensitive) on its first non-blank line. Rows
    with empty project names or dates not written YYYY-MM-DD are rejected
    with their line numbers; exact repeats of (project, date,
    label, source host+path) are dropped as duplicates.
    One leading UTF-8 byte-order mark is ignored. Pass ``text`` to parse
    in-memory content instead of reading ``source``.
    """
    if text is None:
        text = decode_file(source, Path(source).read_bytes())
    text = text.removeprefix("\ufeff")  # the byte-order mark of a spreadsheet export
    issues: list[RowIssue] = []
    if not text.strip():
        return IncidentParseResult((), (RowIssue(0, "empty incident table"),), 0)

    # The header is the first row with a non-blank cell. Each row up to it
    # is read with the delimiter of its own first line, a tab if that line
    # holds one; the rows after it keep the header's.
    lines = io.StringIO(text)
    top = 0
    header: list[str] = []
    for line in lines:
        delimiter = "\t" if "\t" in line else ","
        reader = csv.reader(itertools.chain([line], lines), delimiter=delimiter)
        row = next(reader)
        if any(cell.strip() for cell in row):
            header = [normalize_label(h).replace(" ", "_") for h in row]
            break
        top += reader.line_num
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise IncidentFormatError(f"incident table header lacks columns: {missing}")
    col = {name: header.index(name) for name in header}
    # a row must reach every column read from it
    width = 1 + max(col[c] for c in (*REQUIRED_COLUMNS, "description") if c in col)

    records: list[IncidentRecord] = []
    seen: set[tuple] = set()
    duplicates = 0
    for line_no, row in enumerate(reader, start=top + 2):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) < width:
            issues.append(RowIssue(line_no, "too few fields", delimiter.join(row)))
            continue
        project = row[col["name"]].strip()
        if not project:
            issues.append(RowIssue(line_no, "empty project name", delimiter.join(row)))
            continue
        try:
            date = iso_date(row[col["date"]].strip())
        except ValueError:
            issues.append(
                RowIssue(line_no, f"unparseable date {row[col['date']]!r}", delimiter.join(row))
            )
            continue
        url = row[col["link"]].strip()
        try:
            parts = urlparse(url)
        except ValueError:  # such as an unclosed IPv6 bracket
            issues.append(
                RowIssue(line_no, f"unparseable link {row[col['link']]!r}", delimiter.join(row))
            )
            continue
        detail = row[col["incident_type"]].strip()
        host = parts.netloc.lower()
        # Re-reported incidents collapse, but distinct source pages for the
        # same project/day/label stay separate, so the key includes host+path.
        key = (project, date.isoformat(), normalize_label(detail), host + parts.path)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        glossary = classify_incident(detail)
        if glossary is None:
            issues.append(RowIssue(line_no, f"unmapped incident label {detail!r}"))
        description = row[col["description"]].strip() if "description" in col else ""
        records.append(
            IncidentRecord(
                project=project,
                date_utc=date,
                description=description,
                detail=detail,
                glossary_class=glossary,
                source_url=url,
                source_kind=_source_kind(host),
            )
        )
    return IncidentParseResult(tuple(records), tuple(issues), duplicates)


def distinct_projects(records: Iterable[IncidentRecord]) -> int:
    """Distinct project count under case-insensitive name normalization."""
    return len({normalize_label(r.project) for r in records})


@dataclass(frozen=True)
class IncidentDistribution:
    """Counts and shares of classified incidents per compressed bucket.

    Shares are None (undefined) when there are no classified records; counts
    always sum to total. Unmapped records are excluded from the tally and
    surfaced separately.
    """

    total: int
    counts: Mapping[CompressedIncidentType, int]
    shares: Mapping[CompressedIncidentType, float | None]
    unmapped: int
    distinct_project_count: int
    date_span: tuple[dt.date, dt.date] | None

    def __post_init__(self) -> None:
        check_tally(
            CompressedIncidentType,
            "counts",
            self.counts,
            self.shares,
            unmapped=self.unmapped,
            distinct_projects=self.distinct_project_count,
        )
        if sum(self.counts.values()) != self.total:
            raise ValueError("bucket counts must sum to total")
        if self.date_span is not None and self.date_span[0] > self.date_span[1]:
            raise ValueError("date_span must not end before it starts")
        check_shares(CompressedIncidentType, self.counts, self.shares, self.total)
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        object.__setattr__(self, "shares", MappingProxyType(dict(self.shares)))

    def to_dict(self, warnings: Iterable[str]) -> dict:
        """The artifact ``ingest-incidents --format json`` writes and the report
        embeds, with the parse's ``warnings``."""
        return {
            "total": self.total,
            "counts": {t.value: self.counts[t] for t in CompressedIncidentType},
            "shares": {t.value: self.shares[t] for t in CompressedIncidentType},
            "unmapped": self.unmapped,
            "distinct_projects": self.distinct_project_count,
            "date_span": [d.isoformat() for d in self.date_span] if self.date_span else None,
            "warnings": list(warnings),
        }

    @classmethod
    def from_dict(cls, raw: object) -> "IncidentDistribution":
        doc = read_json(_DistributionArtifact, raw, "distribution")
        if doc.date_span is not None and len(doc.date_span) != 2:
            raise ValueError("date_span must be null or a pair of dates")
        dates = []
        for i, text in enumerate(doc.date_span or ()):
            try:
                dates.append(iso_date(text))
            except ValueError as exc:
                raise ValueError(f"date_span[{i}]: {exc}") from None
        return cls(
            doc.total, doc.counts, doc.shares, doc.unmapped, doc.distinct_projects, tuple(dates) or None
        )


@dataclass(eq=False, repr=False)
class _DistributionArtifact:
    total: int
    counts: dict[CompressedIncidentType, int]
    shares: dict[CompressedIncidentType, float | None]
    unmapped: int
    distinct_projects: int
    date_span: tuple[str, ...] | None
    warnings: tuple[str, ...] = ()


def distribution(records: Iterable[IncidentRecord]) -> IncidentDistribution:
    """Tally classified records into the four compressed buckets."""
    records = list(records)
    classified = [r for r in records if r.glossary_class is not None]
    counts = {t: 0 for t in CompressedIncidentType}
    for r in classified:
        counts[COMPRESSION_MAP[r.glossary_class]] += 1
    total = len(classified)
    shares = share_table(CompressedIncidentType, counts, total)
    dates = sorted(r.date_utc for r in records)
    return IncidentDistribution(
        total=total,
        counts=counts,
        shares=shares,
        unmapped=len(records) - total,
        distinct_project_count=distinct_projects(records),
        date_span=(dates[0], dates[-1]) if dates else None,
    )


def render_distribution_text(dist: IncidentDistribution) -> str:
    """Aligned-column text table of the compressed incident distribution."""
    rows = []
    for t in CompressedIncidentType:
        share = dist.shares[t]
        rows.append((COMPRESSED_LABELS[t], str(dist.counts[t]), "-" if share is None else f"{share:.1f}"))
    rows.append(("Total", str(dist.total), "" if dist.total == 0 else "100.0"))
    text = aligned_table(("Incident type", "Count", "Share (%)"), rows, left=1)
    if dist.unmapped:
        text += f"\n(excluded: {dist.unmapped} record(s) with labels outside the glossary)"
    return text
