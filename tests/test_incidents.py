import csv
import datetime as dt
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2risk.data import INCIDENTS_CSV, fixture_path
from l2risk.incidents import (
    COMPRESSION_MAP,
    IncidentDistribution,
    IncidentFormatError,
    classify_incident,
    distribution,
    parse_incidents,
    render_distribution_text,
)
from l2risk.model import CompressedIncidentType, IncidentClass, IncidentRecord, SourceKind


def independent_tally(csv_path):
    """Oracle: recount the fixture with a literal label -> bucket map, sharing
    no logic with the classifier under test."""
    label_buckets = {
        "Sequencer performance degradation": "sequencer-disruption",
        "Sequencer outage (downtime)": "sequencer-disruption",
        "Sequencer outage (throughput stall)": "sequencer-disruption",
        "Sequencer outage (consensus bug)": "sequencer-disruption",
        "Sequencer halt": "sequencer-disruption",
        "Sequencer halt (batch poster failure)": "sequencer-disruption",
        "Sequencer halt (emergency response)": "sequencer-disruption",
        "Sequencer halt (liveness failure)": "sequencer-disruption",
        "Withdrawal failure / Bridge issue": "bridge-or-withdrawal",
        "Bridge halt & L2 downtime": "bridge-or-withdrawal",
        "Withdrawal delays": "bridge-or-withdrawal",
        "Exploit or security issue with user risk": "exploit-or-security",
        "Censorship or forced inclusion failure": "censorship-or-forced-inclusion",
        "Pending transactions reverted (censored": "censorship-or-forced-inclusion",
    }
    tally = {
        "sequencer-disruption": 0,
        "bridge-or-withdrawal": 0,
        "exploit-or-security": 0,
        "censorship-or-forced-inclusion": 0,
    }
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        tally[label_buckets[row["incident_type"]]] += 1
    return tally, len(rows)


@pytest.fixture(scope="module")
def fixture_result():
    return parse_incidents(fixture_path(INCIDENTS_CSV))


class TestFixtureParsing:
    def test_exactly_32_records_no_issues(self, fixture_result):
        assert len(fixture_result.records) == 32
        assert fixture_result.issues == ()
        assert fixture_result.duplicates_removed == 0

    def test_date_span(self, fixture_result):
        dates = [r.date_utc for r in fixture_result.records]
        assert min(dates) == dt.date(2022, 6, 29)
        assert max(dates) == dt.date(2025, 8, 9)
        assert all(dt.date(2022, 6, 1) <= d <= dt.date(2025, 8, 31) for d in dates)

    def test_same_day_same_label_rows_with_distinct_sources_are_both_kept(self, fixture_result):
        base_rows = [
            r
            for r in fixture_result.records
            if r.project == "Base" and r.date_utc == dt.date(2023, 9, 5)
        ]
        assert len(base_rows) == 2
        assert base_rows[0].detail == base_rows[1].detail
        assert base_rows[0].source_url != base_rows[1].source_url

    def test_truncated_label_is_preserved_verbatim(self, fixture_result):
        truncated = [r for r in fixture_result.records if r.detail.endswith("(censored")]
        assert len(truncated) == 1
        assert truncated[0].detail == "Pending transactions reverted (censored"
        assert truncated[0].glossary_class is IncidentClass.CENSORSHIP_FORCED_INCLUSION_FAILURE

    def test_source_kind_is_external_for_every_fixture_row(self, fixture_result):
        assert all(r.source_kind is SourceKind.EXTERNAL for r in fixture_result.records)

    def test_distinct_projects_after_case_normalization(self, fixture_result):
        dist = distribution(fixture_result.records)
        # "zkSync Era" and "ZKsync Era" are the same project.
        assert dist.distinct_project_count == 18


class TestFixtureDistribution:
    def test_counts_match_independent_tally(self, fixture_result):
        oracle_counts, oracle_total = independent_tally(fixture_path(INCIDENTS_CSV))
        dist = distribution(fixture_result.records)
        assert dist.total == oracle_total == 32
        for bucket, expected in oracle_counts.items():
            assert dist.counts[CompressedIncidentType(bucket)] == expected

    def test_frozen_expected_counts(self, fixture_result):
        dist = distribution(fixture_result.records)
        assert dist.counts[CompressedIncidentType.SEQUENCER_DISRUPTION] == 19
        assert dist.counts[CompressedIncidentType.BRIDGE_OR_WITHDRAWAL] == 6
        assert dist.counts[CompressedIncidentType.EXPLOIT_OR_SECURITY] == 4
        assert dist.counts[CompressedIncidentType.CENSORSHIP_OR_FORCED_INCLUSION] == 3
        assert dist.unmapped == 0

    def test_shares_sum_close_to_100_and_each_within_tolerance(self, fixture_result):
        dist = distribution(fixture_result.records)
        expected = {
            CompressedIncidentType.SEQUENCER_DISRUPTION: 59.4,
            CompressedIncidentType.BRIDGE_OR_WITHDRAWAL: 18.8,
            CompressedIncidentType.EXPLOIT_OR_SECURITY: 12.5,
            CompressedIncidentType.CENSORSHIP_OR_FORCED_INCLUSION: 9.3,
        }
        for bucket, share in expected.items():
            assert abs(dist.shares[bucket] - share) <= 0.1 + 1e-9
        assert abs(sum(dist.shares.values()) - 100.0) < 0.3


class TestClassify:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("Sequencer halt (batch poster failure)", IncidentClass.SEQUENCER_HALT),
            ("Sequencer outage (downtime)", IncidentClass.SEQUENCER_OUTAGE),
            ("Sequencer performance degradation", IncidentClass.SEQUENCER_PERFORMANCE_DEGRADATION),
            ("Withdrawal failure / Bridge issue", IncidentClass.WITHDRAWAL_FAILURE),
            ("Bridge halt & L2 downtime", IncidentClass.BRIDGE_HALT),
            ("Withdrawal delays", IncidentClass.WITHDRAWAL_DELAYS),
            ("Exploit or security issue with user risk", IncidentClass.EXPLOIT_USER_RISK),
            ("Pending transactions reverted (censored", IncidentClass.CENSORSHIP_FORCED_INCLUSION_FAILURE),
            ("Censorship or forced inclusion failure", IncidentClass.CENSORSHIP_FORCED_INCLUSION_FAILURE),
            ("Bridge paused as a precaution", IncidentClass.BRIDGE_PAUSE_RISK),
            ("L2 downtime across all RPCs", IncidentClass.L2_DOWNTIME),
        ],
    )
    def test_keyword_rules(self, label, expected):
        assert classify_incident(label) is expected

    def test_unmatched_label_is_unmapped(self):
        assert classify_incident("Token listing delayed") is None

    def test_classification_is_case_and_whitespace_insensitive(self):
        a = classify_incident("  SEQUENCER   Halt ")
        b = classify_incident("sequencer halt")
        assert a is b is IncidentClass.SEQUENCER_HALT


class TestCompression:
    def test_every_glossary_class_compresses(self):
        assert set(COMPRESSION_MAP) == set(IncidentClass)

    def test_sequencer_classes_fold_together(self):
        for cls in (
            IncidentClass.SEQUENCER_OUTAGE,
            IncidentClass.SEQUENCER_HALT,
            IncidentClass.SEQUENCER_PERFORMANCE_DEGRADATION,
        ):
            assert COMPRESSION_MAP[cls] is CompressedIncidentType.SEQUENCER_DISRUPTION

    def test_bridge_family_folds_together(self):
        for cls in (
            IncidentClass.WITHDRAWAL_FAILURE,
            IncidentClass.BRIDGE_HALT,
            IncidentClass.WITHDRAWAL_DELAYS,
            IncidentClass.BRIDGE_PAUSE_RISK,
            IncidentClass.L2_DOWNTIME,
        ):
            assert COMPRESSION_MAP[cls] is CompressedIncidentType.BRIDGE_OR_WITHDRAWAL


# The glossary as two literal tables, kept as the reference the taxonomy rows
# must reproduce: ordered first-match label fragments, and each class's bucket.
_REFERENCE_RULES = (
    ("censor", IncidentClass.CENSORSHIP_FORCED_INCLUSION_FAILURE),
    ("exploit", IncidentClass.EXPLOIT_USER_RISK),
    ("security", IncidentClass.EXPLOIT_USER_RISK),
    ("withdrawal delay", IncidentClass.WITHDRAWAL_DELAYS),
    ("withdrawal failure", IncidentClass.WITHDRAWAL_FAILURE),
    ("bridge issue", IncidentClass.WITHDRAWAL_FAILURE),
    ("bridge pause", IncidentClass.BRIDGE_PAUSE_RISK),
    ("bridge halt", IncidentClass.BRIDGE_HALT),
    ("performance degradation", IncidentClass.SEQUENCER_PERFORMANCE_DEGRADATION),
    ("l2 downtime", IncidentClass.L2_DOWNTIME),
    ("outage", IncidentClass.SEQUENCER_OUTAGE),
    ("downtime", IncidentClass.SEQUENCER_OUTAGE),
    ("halt", IncidentClass.SEQUENCER_HALT),
)
_SEQUENCER = CompressedIncidentType.SEQUENCER_DISRUPTION
_BRIDGE = CompressedIncidentType.BRIDGE_OR_WITHDRAWAL
_REFERENCE_BUCKETS = {
    IncidentClass.SEQUENCER_OUTAGE: _SEQUENCER,
    IncidentClass.SEQUENCER_HALT: _SEQUENCER,
    IncidentClass.SEQUENCER_PERFORMANCE_DEGRADATION: _SEQUENCER,
    IncidentClass.WITHDRAWAL_FAILURE: _BRIDGE,
    IncidentClass.BRIDGE_HALT: _BRIDGE,
    IncidentClass.WITHDRAWAL_DELAYS: _BRIDGE,
    IncidentClass.BRIDGE_PAUSE_RISK: _BRIDGE,
    IncidentClass.L2_DOWNTIME: _BRIDGE,
    IncidentClass.EXPLOIT_USER_RISK: CompressedIncidentType.EXPLOIT_OR_SECURITY,
    IncidentClass.CENSORSHIP_FORCED_INCLUSION_FAILURE: CompressedIncidentType.CENSORSHIP_OR_FORCED_INCLUSION,
}


def _reference_class(label):
    text = " ".join(label.split()).lower()
    return next((cls for fragment, cls in _REFERENCE_RULES if fragment in text), None)


def _random_labels(count, seed=0):
    """Labels from the fragments' words and a few others, in random case,
    spacing and order, with now and then a stray letter or two."""
    rng = random.Random(seed)
    words = sorted({w for fragment, _cls in _REFERENCE_RULES for w in fragment.split()})
    words += ["sequencer", "delays", "issue", "bridge", "l2", "or", "&", "/", "(", "x", "token"]
    labels = []
    for _ in range(count):
        picked = [rng.choice(words) for _ in range(rng.randint(1, 5))]
        picked = [w.upper() if rng.random() < 0.2 else w for w in picked]
        if rng.random() < 0.3:
            picked.insert(rng.randrange(len(picked) + 1), rng.choice("abcdefghijklmnopqrstuvwxyz") * 2)
        labels.append("".join(w + rng.choice(("", " ", "  ", "\t")) for w in picked))
    return labels


class TestTaxonomy:
    def test_classification_is_first_match_over_the_reference_rules(self):
        fragments = [fragment for fragment, _cls in _REFERENCE_RULES]
        labels = list(fragments)
        labels += [a + sep + b for a, b in itertools.permutations(fragments, 2) for sep in ("", " ", " / ")]
        with open(fixture_path(INCIDENTS_CSV), newline="", encoding="utf-8") as fh:
            labels += [row["incident_type"] for row in csv.DictReader(fh)]
        randoms = _random_labels(4000)
        # the random labels reach every class and the unmapped case
        assert {_reference_class(lb) for lb in randoms} == {*IncidentClass, None}
        mismatched = [lb for lb in labels + randoms if classify_incident(lb) is not _reference_class(lb)]
        assert not mismatched

    def test_buckets_match_the_reference(self):
        assert dict(COMPRESSION_MAP) == _REFERENCE_BUCKETS

    def test_a_parsed_record_reports_its_class_bucket(self):
        first_fragment = {}
        for fragment, cls in _REFERENCE_RULES:
            first_fragment.setdefault(cls, fragment)
        body = "".join(
            f"Chain,2024-01-01,https://example.com/{i},{first_fragment[cls]}\n"
            for i, cls in enumerate(IncidentClass)
        )
        records = parse_incidents("<mem>", text="name,date,link,incident_type\n" + body).records
        assert [r.glossary_class for r in records] == list(IncidentClass)
        for r in records:
            assert r.compressed is COMPRESSION_MAP[r.glossary_class]

    def test_a_record_takes_no_bucket_argument(self):
        with pytest.raises(TypeError):
            IncidentRecord(
                project="Chain",
                date_utc=dt.date(2024, 1, 1),
                description="",
                detail="Sequencer outage",
                glossary_class=IncidentClass.SEQUENCER_OUTAGE,
                compressed=CompressedIncidentType.EXPLOIT_OR_SECURITY,
                source_url="https://example.com/",
                source_kind=SourceKind.EXTERNAL,
            )


class TestParsingEdgeCases:
    HEADER = "name,date,link,incident_type\n"

    def test_duplicate_row_collapses_to_one_record(self):
        row = "Chain A,2024-01-01,https://example.com/a,Sequencer halt\n"
        result = parse_incidents("<mem>", text=self.HEADER + row + row)
        assert len(result.records) == 1
        assert result.duplicates_removed == 1

    def test_same_incident_from_different_sources_stays_distinct(self):
        rows = (
            "Chain A,2024-01-01,https://example.com/a,Sequencer halt\n"
            "Chain A,2024-01-01,https://example.com/b,Sequencer halt\n"
        )
        result = parse_incidents("<mem>", text=self.HEADER + rows)
        assert len(result.records) == 2

    def test_bad_date_rejected_with_line_number(self):
        text = self.HEADER + "Chain A,01/02/2024,https://example.com/a,Sequencer halt\n"
        result = parse_incidents("<mem>", text=text)
        assert result.records == ()
        assert result.issues[0].line == 2
        assert "date" in result.issues[0].reason

    @pytest.mark.parametrize("date", ["20240102", "2024-W01-2"])
    def test_date_other_than_yyyy_mm_dd_rejected(self, date):
        # date.fromisoformat reads both, the second as 2024-01-02
        text = self.HEADER + f"Chain A,{date},https://example.com/a,Sequencer halt\n"
        result = parse_incidents("<mem>", text=text)
        assert result.records == ()
        assert result.warnings == [f"line 2: unparseable date {date!r}"]

    @pytest.mark.parametrize("link", ["http://[::1/x", "https://[example.com]x/a"])
    def test_unparseable_link_rejected_with_line_number(self, link):
        # urlparse raises on these; the row goes, the rows around it stay
        rows = (
            f"Chain A,2024-01-01,{link},Sequencer halt\n"
            "Chain B,2024-01-02,https://example.com/b,Sequencer halt\n"
        )
        result = parse_incidents("<mem>", text=self.HEADER + rows)
        assert [r.project for r in result.records] == ["Chain B"]
        assert result.warnings == [f"line 2: unparseable link {link!r}"]

    def test_empty_project_rejected(self):
        text = self.HEADER + " ,2024-01-01,https://example.com/a,Sequencer halt\n"
        result = parse_incidents("<mem>", text=text)
        assert result.records == ()
        assert "project" in result.issues[0].reason

    def test_unmapped_label_kept_as_record_but_not_counted(self):
        text = self.HEADER + "Chain A,2024-01-01,https://example.com/a,Governance drama\n"
        result = parse_incidents("<mem>", text=text)
        assert len(result.records) == 1
        assert result.records[0].glossary_class is result.records[0].compressed is None
        dist = distribution(result.records)
        assert dist.total == 0
        assert dist.unmapped == 1
        assert all(v is None for v in dist.shares.values())

    def test_unmapped_records_are_noted_under_the_distribution_text(self):
        text = (
            self.HEADER
            + "Chain A,2024-01-01,https://example.com/a,Governance drama\n"
            + "Chain B,2024-01-02,https://example.com/b,Sequencer halt\n"
        )
        dist = distribution(parse_incidents("<mem>", text=text).records)
        assert render_distribution_text(dist).splitlines()[-1] == (
            "(excluded: 1 record(s) with labels outside the glossary)"
        )

    def test_tsv_is_accepted(self):
        text = "name\tdate\tlink\tincident_type\nChain A\t2024-01-01\thttps://example.com/a\tSequencer halt\n"
        result = parse_incidents("<mem>", text=text)
        assert len(result.records) == 1

    def test_l2beat_source_kind(self):
        text = self.HEADER + "Chain A,2024-01-01,https://l2beat.com/scaling/projects/chain-a,Sequencer halt\n"
        result = parse_incidents("<mem>", text=text)
        assert result.records[0].source_kind is SourceKind.L2BEAT

    @pytest.mark.parametrize("blank", ["\n", "\n \n", " , ,\n\n"])
    def test_header_is_the_first_non_blank_line(self, blank):
        rows = "Chain A,01/02/2024,https://example.com/a,Sequencer halt\n"
        result = parse_incidents("<mem>", text=blank + self.HEADER + rows)
        assert result.records == ()
        # line numbers count the blank lines above the header
        assert result.issues[0].line == 2 + blank.count("\n")

    @pytest.mark.parametrize("blank", [",,,\n", " , ,\n\n", "\t\t\n"])
    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_a_blank_line_of_delimiters_leaves_the_header_its_own(self, blank, delimiter):
        # the header line picks the delimiter, whatever the blank lines above hold
        rows = [
            ["name", "date", "link", "incident_type"],
            ["Chain A", "2024-01-01", "https://example.com/a", "Sequencer halt"],
            ["Chain B", "01/02/2024", "https://example.com/b", "Sequencer halt"],
        ]
        table = "".join(delimiter.join(row) + "\n" for row in rows)
        alone = parse_incidents("<mem>", text=table)
        below = parse_incidents("<mem>", text=blank + table)
        assert below.records == alone.records and len(alone.records) == 1
        shift = blank.count("\n")
        assert [(i.line - shift, i.reason, i.raw) for i in below.issues] == [
            (i.line, i.reason, i.raw) for i in alone.issues
        ]
        assert alone.warnings == ["line 3: unparseable date '01/02/2024'"]

    def test_a_byte_order_mark_reads_as_without_it(self, tmp_path, fixture_result):
        bundled = fixture_path(INCIDENTS_CSV).read_bytes()
        marked = tmp_path / "incidents.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + bundled)
        assert parse_incidents(marked) == fixture_result
        assert parse_incidents("<mem>", text="\ufeff" + bundled.decode("utf-8")) == fixture_result
        # the mark shifts no line number
        table = self.HEADER + "Chain A,01/02/2024,https://example.com/a,Sequencer halt\n"
        marked_result = parse_incidents("<mem>", text="\ufeff" + table)
        assert marked_result == parse_incidents("<mem>", text=table)
        assert marked_result.warnings == ["line 2: unparseable date '01/02/2024'"]

    def test_only_one_byte_order_mark_is_ignored(self):
        with pytest.raises(IncidentFormatError, match="lacks columns: \\['name'\\]"):
            parse_incidents("<mem>", text="\ufeff\ufeff" + self.HEADER)

    def test_missing_header_column_raises(self):
        with pytest.raises(IncidentFormatError):
            parse_incidents("<mem>", text="name,date,link\nA,2024-01-01,https://x.example\n")

    def test_empty_file_yields_empty_result_with_warning(self):
        result = parse_incidents("<mem>", text="")
        assert result.records == ()
        assert result.issues and "empty" in result.issues[0].reason

    def test_shares_must_be_the_counts_percentages(self):
        def artifact(counts, shares):
            total = sum(counts.values())
            return {"total": total, "counts": counts, "shares": shares, "unmapped": 0,
                    "distinct_projects": min(total, 1), "date_span": None}

        counts = {t.value: 0 for t in CompressedIncidentType}
        counts[CompressedIncidentType.SEQUENCER_DISRUPTION.value] = 1
        with pytest.raises(ValueError, match="must be 100.0 for 1 of 1, not None"):
            IncidentDistribution.from_dict(artifact(counts, dict.fromkeys(counts)))
        with pytest.raises(ValueError, match="must be None for 0 of 0, not 0.0"):
            IncidentDistribution.from_dict(artifact(dict.fromkeys(counts, 0), dict.fromkeys(counts, 0.0)))

    def test_empty_distribution_total_zero(self):
        dist = distribution(())
        assert dist.total == 0
        assert dist.date_span is None
        assert "Total" in render_distribution_text(dist)


@given(
    st.lists(
        st.sampled_from(
            [
                "Sequencer halt",
                "Sequencer outage (downtime)",
                "Withdrawal delays",
                "Exploit or security issue with user risk",
                "Censorship or forced inclusion failure",
                "A label nobody maps",
            ]
        ),
        max_size=40,
    )
)
def test_distribution_counts_always_sum_to_total(labels):
    header = "name,date,link,incident_type\n"
    body = "".join(
        f"Chain {i},2024-01-0{1 + i % 9},https://example.com/{i},{label}\n"
        for i, label in enumerate(labels)
    )
    result = parse_incidents("<mem>", text=header + body)
    dist = distribution(result.records)
    assert sum(dist.counts.values()) == dist.total
    assert dist.total + dist.unmapped == len(result.records)
    if dist.total:
        assert abs(sum(dist.shares.values()) - 100.0) < 0.5 * len(dist.counts)


def test_render_matches_expected_layout(fixture_result):
    text = render_distribution_text(distribution(fixture_result.records))
    lines = text.splitlines()
    assert lines[0].startswith("Incident type")
    assert lines[0].rstrip().endswith("Share (%)")
    assert any("Sequencer disruption" in ln and "19" in ln and "59.4" in ln for ln in lines)
    assert lines[-1].startswith("Total") and "32" in lines[-1]
