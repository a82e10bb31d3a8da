import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l2risk.snapshot
from l2risk.data import SNAPSHOT_JSON, fixture_path
from l2risk.model import ProjectCategory, ProjectRiskProfile, RiskDimension, Sentiment, _slug
from l2risk.snapshot import (
    CONFORMING_CATEGORIES,
    DIMENSION_LABELS,
    DuplicateProjectError,
    FlagRuleset,
    SchemaMismatchError,
    aggregate_prevalence,
    explore_schema,
    extract_projects,
    flag_entry,
    load_snapshot,
    render_prevalence_text,
    render_schema_text,
)


def profiles_to_snapshot(profiles) -> dict:
    """Serialize profiles back to the normalized snapshot layout."""
    category_names = {
        ProjectCategory.ZK_ROLLUP: "ZK Rollup",
        ProjectCategory.OPTIMISTIC_ROLLUP: "Optimistic Rollup",
        ProjectCategory.OTHER: "Other",
    }
    return {
        "projects": [
            {
                "id": p.project_id,
                "name": p.name,
                "category": category_names[p.category],
                "risks": [
                    {
                        "name": DIMENSION_LABELS[e.dimension],
                        "value": e.value,
                        "sentiment": e.sentiment.value,
                        "description": e.description,
                    }
                    for e in p.risks
                ],
            }
            for p in profiles
        ]
    }


def recount_by_sentiment(doc):
    """Oracle: recount per-dimension flags straight from the raw JSON using
    the source sentiment, sharing nothing with the ruleset matcher."""
    conforming = [
        p
        for p in doc["projects"]
        if p.get("category") in ("Optimistic Rollup", "ZK Rollup", "Other")
    ]
    tally = {}
    for p in conforming:
        for r in p.get("risks", []):
            if r.get("sentiment") == "bad":
                key = " ".join(r["name"].split()).lower()
                tally[key] = tally.get(key, 0) + 1
    return tally, len(conforming)


@pytest.fixture(scope="module")
def fixture_doc():
    return load_snapshot(fixture_path(SNAPSHOT_JSON))


@pytest.fixture(scope="module")
def fixture_profiles(fixture_doc):
    return extract_projects(fixture_doc).profiles


class TestExploreSchema:
    def test_example_document(self):
        report = explore_schema({"a": {"b": 1}, "c": [2, 3]})
        assert [(p.path, p.count) for p in report.paths] == [("a.b", 1), ("c[]", 2)]

    def test_paths_sorted_lexicographically(self, fixture_doc):
        report = explore_schema(fixture_doc)
        names = report.path_names()
        assert names == sorted(names)
        assert "projects[].risks[].name" in names
        assert "projects[].category" in names

    def test_samples_capped_and_truncated(self):
        doc = {"xs": [{"v": "y" * 200} for _ in range(10)]}
        report = explore_schema(doc)
        (p,) = report.paths
        assert p.count == 10
        assert len(p.samples) == 3
        assert all(len(s) <= 80 for s in p.samples)

    def test_empty_document(self):
        assert explore_schema({}).paths == ()
        assert "no scalar leaves" in render_schema_text(explore_schema({}))


class TestFlagEntry:
    RULESET = FlagRuleset.default()

    def test_hazardous_exit_window_entry_is_flagged(self):
        entry = flag_entry(
            {
                "name": "Exit window",
                "value": "None",
                "sentiment": "bad",
                "description": (
                    "There is no window for users to exit in case of an unwanted "
                    "regular upgrade since contracts are instantly upgradable."
                ),
            },
            self.RULESET,
        )
        assert entry.dimension is RiskDimension.EXIT_WINDOW
        assert entry.flagged

    def test_timelocked_exit_window_entry_is_not_flagged(self):
        entry = flag_entry(
            {
                "name": "Exit window",
                "value": "30d",
                "sentiment": "good",
                "description": "Upgrades wait out a 30-day timelock during which users can exit.",
            },
            self.RULESET,
        )
        assert not entry.flagged

    def test_sentiment_fallback_flags_unmatched_bad_entries(self):
        entry = flag_entry(
            {
                "name": "Data availability",
                "value": "committee",
                "sentiment": "bad",
                "description": "a wording the rule keys do not cover",
            },
            self.RULESET,
        )
        assert entry.flagged

    def test_fallback_can_be_disabled(self):
        ruleset = FlagRuleset(rules=self.RULESET.rules, sentiment_fallback=False)
        entry = flag_entry(
            {"name": "Data availability", "value": "committee", "sentiment": "bad"},
            ruleset,
        )
        assert not entry.flagged

    def test_missing_sentiment_is_unknown_and_never_fallback_flagged(self):
        entry = flag_entry({"name": "Data availability", "value": "committee"}, self.RULESET)
        assert entry.sentiment is Sentiment.UNKNOWN
        assert not entry.flagged

    def test_unknown_dimension_preserved_unflagged(self):
        row = {"name": "State derivation", "value": "x", "sentiment": "bad"}
        entry = flag_entry(row, self.RULESET)
        assert entry.dimension is None
        assert not entry.flagged
        # extract_projects warns about such rows, naming the project
        result = extract_projects({"projects": [{"id": "a", "category": "Other", "risks": [row]}]})
        assert result.warnings == ("project a: untracked risk name 'State derivation' dropped",)

    @given(
        st.sampled_from(["Exit window", "EXIT WINDOW", " exit  window "]),
        st.sampled_from(["None", " NONE  ", "none"]),
        st.booleans(),
    )
    def test_normalization_never_changes_flagging(self, name, value, shout_description):
        desc = "there is no window for users to exit"
        raw = {
            "name": name,
            "value": value,
            "sentiment": "bad",
            "description": desc.upper() if shout_description else desc,
        }
        canonical = flag_entry(
            {"name": "Exit window", "value": "none", "sentiment": "bad", "description": desc},
            self.RULESET,
        )
        assert flag_entry(raw, self.RULESET) == canonical


class TestExtract:
    def test_129_conforming_projects(self, fixture_profiles):
        assert len(fixture_profiles) == 129
        assert all(len(p.risks) == 5 for p in fixture_profiles)

    def test_non_conforming_projects_warned(self, fixture_doc):
        result = extract_projects(fixture_doc)
        assert any("no category" in w for w in result.warnings)
        assert any("Validium" in w for w in result.warnings)
        assert any("untracked risk name" in w for w in result.warnings)

    def test_category_filter(self, fixture_doc):
        result = extract_projects(
            fixture_doc, categories={ProjectCategory.ZK_ROLLUP, ProjectCategory.OPTIMISTIC_ROLLUP}
        )
        assert 0 < len(result.profiles) < 129
        assert all(
            p.category in (ProjectCategory.ZK_ROLLUP, ProjectCategory.OPTIMISTIC_ROLLUP)
            for p in result.profiles
        )

    def test_duplicate_project_id_is_hard_error(self):
        doc = {
            "projects": [
                {"id": "a", "name": "A", "category": "Other", "risks": []},
                {"id": "a", "name": "A again", "category": "Other", "risks": []},
            ]
        }
        with pytest.raises(DuplicateProjectError):
            extract_projects(doc)

    @pytest.mark.parametrize("risks", [5, True, False, "none", {"name": "Exit window"}])
    def test_risks_other_than_a_list_or_null_warned_once(self, risks):
        doc = {
            "projects": [
                {"id": "a", "category": "Other", "risks": risks},
                {"id": "b", "category": "Other", "risks": None},
            ]
        }
        result = extract_projects(doc)
        assert result.warnings == ("project a: non-list risks value dropped",)
        assert [p.risks for p in result.profiles] == [(), ()]

    def test_extraction_is_idempotent(self, fixture_profiles):
        round_tripped = extract_projects(profiles_to_snapshot(fixture_profiles))
        assert round_tripped.profiles == fixture_profiles

    def test_untracked_row_warned_once_per_row(self, caplog):
        row = {"name": "State derivation", "value": "x", "sentiment": "bad"}
        doc = {
            "projects": [
                {"id": "a", "category": "Other", "risks": [row]},
                {"id": "b", "category": "Other", "risks": [dict(row)]},
            ]
        }
        with caplog.at_level("WARNING"):
            result = extract_projects(doc)
        assert result.warnings == (
            "project a: untracked risk name 'State derivation' dropped",
            "project b: untracked risk name 'State derivation' dropped",
        )
        # the library returns its warnings and logs none of them
        assert caplog.records == []

    def test_unrecognized_layout_raises_with_schema_report(self):
        with pytest.raises(SchemaMismatchError) as exc:
            extract_projects({"rows": [1, 2, 3]})
        assert "rows[]" in exc.value.report.path_names()


class TestAdapters:
    def test_keyed_layout_matches_normalized(self, fixture_doc):
        keyed = {
            "projects": {
                p["id"]: {k: v for k, v in p.items() if k != "id"}
                for p in fixture_doc["projects"]
                if "id" in p
            }
        }
        a = aggregate_prevalence(extract_projects(fixture_doc, adapter="normalized").profiles)
        b = aggregate_prevalence(extract_projects(keyed, adapter="keyed").profiles)
        assert a == b

    def test_wrapped_layout_matches_normalized(self, fixture_doc):
        wrapped = {"data": fixture_doc}
        a = aggregate_prevalence(extract_projects(fixture_doc).profiles)
        b = aggregate_prevalence(extract_projects(wrapped, adapter="wrapped").profiles)
        assert a == b

    def test_auto_adapter_resolves_all_three(self, fixture_doc):
        for doc in (
            fixture_doc,
            {"data": fixture_doc},
            {"projects": {p["id"]: p for p in fixture_doc["projects"] if "id" in p}},
        ):
            assert len(extract_projects(doc, adapter="auto").profiles) == 129

    def test_explicit_adapter_mismatch_raises(self, fixture_doc):
        with pytest.raises(SchemaMismatchError):
            extract_projects({"data": fixture_doc}, adapter="normalized")


class TestPrevalence:
    def test_counts_match_sentiment_recount_oracle(self, fixture_doc, fixture_profiles):
        oracle, oracle_total = recount_by_sentiment(fixture_doc)
        table = aggregate_prevalence(fixture_profiles)
        assert table.total_projects == oracle_total == 129
        assert table.flagged[RiskDimension.EXIT_WINDOW] == oracle["exit window"]
        assert table.flagged[RiskDimension.PROPOSER_FAILURE] == oracle["proposer failure"]
        assert table.flagged[RiskDimension.DATA_AVAILABILITY] == oracle["data availability"]
        assert table.flagged[RiskDimension.STATE_VALIDATION] == oracle["state validation"]
        assert table.flagged[RiskDimension.SEQUENCER_FAILURE] == oracle["sequencer failure"]

    def test_frozen_expected_counts_and_shares(self, fixture_profiles):
        table = aggregate_prevalence(fixture_profiles)
        expected = {
            RiskDimension.EXIT_WINDOW: (111, 86.0),
            RiskDimension.PROPOSER_FAILURE: (65, 50.4),
            RiskDimension.SEQUENCER_FAILURE: (17, 13.2),
            RiskDimension.DATA_AVAILABILITY: (35, 27.1),
            RiskDimension.STATE_VALIDATION: (32, 24.8),
        }
        for dim, (count, share) in expected.items():
            assert table.flagged[dim] == count
            assert table.shares[dim] == share

    def test_empty_input_gives_undefined_shares(self):
        table = aggregate_prevalence(())
        assert table.total_projects == 0
        assert all(v is None for v in table.shares.values())
        assert all(v == 0 for v in table.flagged.values())

    def test_render_layout(self, fixture_profiles):
        text = render_prevalence_text(aggregate_prevalence(fixture_profiles))
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["Type", "Potential"]
        assert any("Exit window" in ln and "111" in ln and "86.0" in ln for ln in lines)
        assert lines[-1].startswith("Total projects analyzed") and "129" in lines[-1]

    def test_ruleset_only_run_matches_fallback_run_on_fixture(self, fixture_doc):
        # The bundled fixture marks hazards via rule keys and sentiment
        # consistently, so disabling the fallback must not change counts.
        strict = FlagRuleset(rules=FlagRuleset.default().rules, sentiment_fallback=False)
        a = aggregate_prevalence(extract_projects(fixture_doc).profiles)
        b = aggregate_prevalence(extract_projects(fixture_doc, ruleset=strict).profiles)
        assert a == b

    def test_fallback_changes_counts_when_rules_do_not_cover_wording(self):
        doc = {
            "projects": [
                {
                    "id": "p0",
                    "name": "P0",
                    "category": "Other",
                    "risks": [
                        {
                            "name": "Data availability",
                            "value": "committee",
                            "sentiment": "bad",
                            "description": "bespoke wording outside the rule keys",
                        }
                    ],
                }
            ]
        }
        with_fallback = aggregate_prevalence(extract_projects(doc).profiles)
        strict = FlagRuleset(rules=FlagRuleset.default().rules, sentiment_fallback=False)
        without = aggregate_prevalence(extract_projects(doc, ruleset=strict).profiles)
        assert with_fallback.flagged[RiskDimension.DATA_AVAILABILITY] == 1
        assert without.flagged[RiskDimension.DATA_AVAILABILITY] == 0


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"sentiment_fallback": "false", "rules": {}}, "sentiment_fallback must be a boolean"),
        ({"sentiment_fallback": 0, "rules": {}}, "sentiment_fallback must be a boolean"),
        ({"rules": {"exit-window": "no window"}}, "rules.exit-window must be a list of strings"),
        ({"rules": {"exit-window": ["no window", 7]}}, "rules.exit-window must be a list"),
        ({"rules": []}, "rules must be an object"),
        ({"rulez": {"exit-window": ["no window"]}}, "unknown ruleset keys: ['rulez']"),
        ({"version": 1}, "rules is required"),
        ([], "ruleset must be an object"),
        ({"rules": {"exit-windows": ["x"]}}, "unknown rules keys: ['exit-windows']"),
        ({"version": "one", "rules": {}}, "version must be an integer"),
        (
            {"rules": {"exit-window": ["no window"], "Exit Window": ["instant"]}},
            "unknown rules keys: ['Exit Window']",
        ),
    ],
)
def test_ruleset_file_is_read_strictly(tmp_path, doc, message):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        FlagRuleset.from_file(path)


def test_custom_ruleset_file_round_trip(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        json.dumps(
            {
                "sentiment_fallback": False,
                "rules": {"exit-window": ["Instantly Upgradable"]},
            }
        )
    )
    ruleset = FlagRuleset.from_file(path)
    assert ruleset.sentiment_fallback is False
    assert ruleset.rules[RiskDimension.EXIT_WINDOW] == ("instantly upgradable",)
    entry = flag_entry(
        {"name": "Exit window", "value": "none", "description": "contracts are INSTANTLY UPGRADABLE"},
        ruleset,
    )
    assert entry.flagged


# -- flagging each distinct row once -------------------------------------------


def extract_per_row(doc, ruleset=None):
    """Oracle: the extract loop with flag_entry called on every risk row, as
    it was before rows were shared within a call."""
    ruleset = ruleset or FlagRuleset.default()
    warnings, profiles = [], []
    for raw in doc["projects"]:
        name = str(raw.get("name") or raw.get("id") or "")
        project_id = str(raw.get("id") or _slug(name))
        raw_category = raw.get("category")
        if not raw_category:
            warnings.append(f"project {project_id or name or '?'}: no category; skipped")
            continue
        try:
            category = ProjectCategory.parse(str(raw_category))
        except ValueError:
            warnings.append(
                f"project {project_id}: category {raw_category!r} outside the tracked set; excluded"
            )
            continue
        if category not in CONFORMING_CATEGORIES:
            continue
        entries, dims = [], set()
        for raw_risk in raw.get("risks", []) or []:
            if not isinstance(raw_risk, dict):
                warnings.append(f"project {project_id}: non-object risk entry dropped")
                continue
            entry = flag_entry(raw_risk, ruleset)
            if entry.dimension is None:
                warnings.append(
                    f"project {project_id}: untracked risk name {raw_risk.get('name')!r} dropped"
                )
            elif entry.dimension in dims:
                warnings.append(
                    f"project {project_id}: duplicate {entry.dimension.value} entry; first kept"
                )
            else:
                dims.add(entry.dimension)
                entries.append(entry)
        profiles.append(ProjectRiskProfile(project_id, name or project_id, category, tuple(entries)))
    return tuple(profiles), tuple(warnings)


_BASE_ROWS = [
    {"name": "Exit window", "value": "None", "sentiment": "bad",
     "description": "Contracts are instantly upgradable."},
    {"name": "Exit window", "value": "7d", "sentiment": "warning",
     "description": "A short delay before upgrades apply."},
    {"name": "Data availability", "value": "committee", "sentiment": "bad",
     "description": "a wording the rule keys do not cover"},
    {"name": "Proposer failure", "value": 1, "sentiment": "good"},
    {"name": "Sequencer failure", "value": "1", "sentiment": "bad"},
    {"name": "State validation", "value": "None", "sentiment": None, "description": ""},
    {"name": "State derivation", "value": "x", "sentiment": "bad"},
    {"value": "no name at all"},
]


@st.composite
def _risk_row(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["row", 3, None, ["Exit window"]]))
    row = dict(draw(st.sampled_from(_BASE_ROWS)))
    field = draw(st.sampled_from(["name", "value", "sentiment", "description", None]))
    if field is not None and field in row:
        text = row[field]
        row[field] = draw(
            st.sampled_from(
                [text, str(text), f" {text} ", str(text).upper(), str(text).lower(),
                 f"{text}  x", "1" if text == 1 else 1]
            )
        )
    return row


# Spellings of one label, out-of-set labels, and values that are not strings,
# some of which print as a label does; _ABSENT leaves the key out.
_ABSENT = object()
_CATEGORIES = [
    "Other", "ZK Rollup", "zk-rollup", " zk_rollup ", "optimistic_rollup", "Validium",
    7, "7", True, "True", ["ZK Rollup"], {"a": 1}, "", None, _ABSENT,
]


@st.composite
def _snapshot(draw):
    projects = []
    for i in range(draw(st.integers(0, 8))):
        project = {"id": f"p{i}", "name": f"P{i}", "risks": draw(st.lists(_risk_row(), max_size=8))}
        category = draw(st.sampled_from(_CATEGORIES))
        if category is not _ABSENT:
            project["category"] = category
        projects.append(project)
    return {"projects": projects}


def test_fixture_extract_matches_per_row_oracle(fixture_doc):
    result = extract_projects(fixture_doc)
    assert (result.profiles, result.warnings) == extract_per_row(fixture_doc)


@settings(max_examples=200, deadline=None)
@given(_snapshot())
def test_generated_extract_matches_per_row_oracle(doc):
    result = extract_projects(doc)
    assert (result.profiles, result.warnings) == extract_per_row(doc)


def test_fixture_extract_flags_each_distinct_row_once(fixture_doc, monkeypatch):
    calls = []
    real = l2risk.snapshot._flag_fields

    def counting(*fields):
        calls.append(fields)
        return real(*fields)

    monkeypatch.setattr(l2risk.snapshot, "_flag_fields", counting)
    extract_projects(fixture_doc)
    assert len(calls) == 22
    extract_projects(fixture_doc)
    assert len(calls) == 44  # nothing is kept between calls


def test_extract_parses_each_distinct_category_label_once(monkeypatch):
    calls = []
    real = ProjectCategory.parse

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(ProjectCategory, "parse", counting)
    categories = ["ZK Rollup", "Validium", ["ZK Rollup"], "ZK Rollup", "Validium", ["ZK Rollup"], 7, "7"]
    doc = {"projects": [{"id": f"p{i}", "category": c} for i, c in enumerate(categories)]}
    result = extract_projects(doc)
    assert calls == ["ZK Rollup", "Validium", "['ZK Rollup']", "7"]
    assert [p.project_id for p in result.profiles] == ["p0", "p3"]
    assert result.warnings == tuple(
        f"project p{i}: category {c!r} outside the tracked set; excluded"
        for i, c in enumerate(categories) if c != "ZK Rollup"
    )
