import csv
import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2risk.data import INCIDENTS_CSV, fixture_path
from l2risk.incidents import (
    COMPRESSION_MAP,
    IncidentDistribution,
    IncidentFormatError,
    classify_incident,
    compress,
    distribution,
    parse_incidents,
    render_distribution_text,
)
from l2risk.model import CompressedIncidentType, IncidentClass, SourceKind


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
            assert compress(cls) is CompressedIncidentType.SEQUENCER_DISRUPTION

    def test_bridge_family_folds_together(self):
        for cls in (
            IncidentClass.WITHDRAWAL_FAILURE,
            IncidentClass.BRIDGE_HALT,
            IncidentClass.WITHDRAWAL_DELAYS,
            IncidentClass.BRIDGE_PAUSE_RISK,
            IncidentClass.L2_DOWNTIME,
        ):
            assert compress(cls) is CompressedIncidentType.BRIDGE_OR_WITHDRAWAL


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

    def test_empty_project_rejected(self):
        text = self.HEADER + " ,2024-01-01,https://example.com/a,Sequencer halt\n"
        result = parse_incidents("<mem>", text=text)
        assert result.records == ()
        assert "project" in result.issues[0].reason

    def test_unmapped_label_kept_as_record_but_not_counted(self):
        text = self.HEADER + "Chain A,2024-01-01,https://example.com/a,Governance drama\n"
        result = parse_incidents("<mem>", text=text)
        assert len(result.records) == 1
        assert result.records[0].glossary_class is None
        dist = distribution(result.records)
        assert dist.total == 0
        assert dist.unmapped == 1
        assert all(v is None for v in dist.shares.values())

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

    def test_missing_header_column_raises(self):
        with pytest.raises(IncidentFormatError):
            parse_incidents("<mem>", text="name,date,link\nA,2024-01-01,https://x.example\n")

    def test_empty_file_yields_empty_result_with_warning(self):
        result = parse_incidents("<mem>", text="")
        assert result.records == ()
        assert result.issues and "empty" in result.issues[0].reason

    def test_shares_must_be_the_counts_percentages(self):
        counts = {t: 0 for t in CompressedIncidentType}
        counts[CompressedIncidentType.SEQUENCER_DISRUPTION] = 1
        with pytest.raises(ValueError, match="must be 100.0 for 1 of 1, not None"):
            IncidentDistribution(1, counts, dict.fromkeys(counts), 0, 1, None)
        with pytest.raises(ValueError, match="must be None for 0 of 0, not 0.0"):
            IncidentDistribution(0, dict.fromkeys(counts, 0), dict.fromkeys(counts, 0.0), 0, 0, None)

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
