"""Cross-validation notes, report assembly, and reproducibility."""

import builtins
import copy
import enum
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from referencing import Registry
from referencing.jsonschema import DRAFT202012

from l2risk.data import RULESET_JSON, fixture_path, scenario_names
from l2risk.engine import (
    IMMEDIATE_MITIGATIONS,
    MITIGATION_LABELS,
    NARRATIVES,
    STRUCTURAL_MITIGATIONS,
    Principle,
    Severity,
)
from l2risk.incidents import IncidentDistribution, distribution, parse_incidents
from l2risk.model import CompressedIncidentType, RiskDimension, Stakeholder, share_table
from l2risk.report import (
    _NOTES,
    _pct,
    build_report,
    content_digest,
    cross_validate,
    render_report_text,
)
from l2risk.schemas import SCHEMA_NAMES, load_schema
from l2risk.snapshot import PrevalenceTable, aggregate_prevalence, extract_projects, load_snapshot

SNAPSHOT = fixture_path("snapshot-fixture.json")
INCIDENTS = fixture_path("incident-table.csv")


@pytest.fixture(scope="module")
def prevalence():
    return aggregate_prevalence(extract_projects(load_snapshot(SNAPSHOT)).profiles)


@pytest.fixture(scope="module")
def dist():
    return distribution(parse_incidents(INCIDENTS).records)


@pytest.fixture(scope="module")
def bundle():
    return build_report(snapshot_path=SNAPSHOT, incidents_path=INCIDENTS)


# -- cross-validation ----------------------------------------------------------


def test_all_four_notes_fire_on_fixtures(prevalence, dist):
    keys = [n.key for n in cross_validate(prevalence, dist)]
    assert keys == [
        "sequencer-liveness-gap",
        "proposer-withdrawal-linkage",
        "exit-window-latent",
        "unobservable-validation-da",
    ]


def test_latent_notes_survive_empty_incident_record(prevalence):
    keys = [n.key for n in cross_validate(prevalence, distribution([]))]
    assert keys == ["exit-window-latent", "unobservable-validation-da"]


def test_incident_notes_survive_empty_prevalence(dist):
    empty = aggregate_prevalence([])
    keys = [n.key for n in cross_validate(empty, dist)]
    assert keys == ["sequencer-liveness-gap", "proposer-withdrawal-linkage"]
    texts = {n.key: n.text for n in cross_validate(empty, dist)}
    # shares over zero projects are undefined, not zero
    assert "undefined" in texts["sequencer-liveness-gap"]


def test_note_texts_quote_fixture_percentages(prevalence, dist):
    texts = {n.key: n.text for n in cross_validate(prevalence, dist)}
    assert "59.4%" in texts["sequencer-liveness-gap"]
    assert "13.2%" in texts["sequencer-liveness-gap"]
    assert "50.4%" in texts["proposer-withdrawal-linkage"]
    assert "18.8%" in texts["proposer-withdrawal-linkage"]
    assert "86.0%" in texts["exit-window-latent"]
    assert "24.8%" in texts["unobservable-validation-da"]
    assert "27.1%" in texts["unobservable-validation-da"]


def test_note_to_dict_uses_slugs(prevalence, dist):
    note = cross_validate(prevalence, dist)[0]
    payload = note.to_dict()
    assert payload["dimensions"] == [RiskDimension.SEQUENCER_FAILURE.value]
    assert payload["incident_types"] == [CompressedIncidentType.SEQUENCER_DISRUPTION.value]
    json.dumps(payload)  # fully serializable


@st.composite
def _evidence(draw):
    """A prevalence table and an incident distribution drawn from counts and
    totals: undefined shares over a total of 0, else any mix of zero and
    positive shares (0.0, 0.1, 24.8, 100.0 of 1,000 projects)."""
    total = draw(st.sampled_from([0, 1000]))
    flagged = {d: draw(st.sampled_from([0, 1, 248, 1000])) if total else 0 for d in RiskDimension}
    prevalence = PrevalenceTable(total, flagged, share_table(RiskDimension, flagged, total))
    counts = {t: draw(st.sampled_from([0, 0, 1, 3])) for t in CompressedIncidentType}
    total = sum(counts.values())
    ishares = share_table(CompressedIncidentType, counts, total)
    return prevalence, IncidentDistribution(total, counts, ishares, 0, 0, None)


@settings(max_examples=300, deadline=None)
@given(_evidence())
def test_notes_fire_by_the_one_rule_and_quote_their_links(evidence):
    prevalence, dist = evidence
    expected = [
        key
        for key, dims, types, _ in _NOTES
        if (
            any(dist.counts[t] > 0 for t in types)
            if types
            else any(prevalence.shares[d] not in (None, 0.0) for d in dims)
        )
    ]
    notes = cross_validate(prevalence, dist)
    assert [n.key for n in notes] == expected  # in table order
    links = {key: (dims, types) for key, dims, types, _ in _NOTES}
    for note in notes:
        assert (note.dimensions, note.incident_types) == links[note.key]
        for d in note.dimensions:
            assert _pct(prevalence.shares[d]) in note.text
        for t in note.incident_types:
            assert _pct(dist.shares[t]) in note.text


@pytest.mark.parametrize(
    "sv, da, fires",
    [(None, None, False), (0.0, 0.0, False), (3.1, 0.0, True), (0.0, 2.5, True), (3.1, 2.5, True)],
)
def test_validation_da_note_fires_on_either_share(sv, da, fires):
    # the shares of 0 projects are undefined; the others are counts of 1,000
    total = 0 if sv is None else 1000
    flagged = {d: 0 for d in RiskDimension}
    if total:
        flagged[RiskDimension.STATE_VALIDATION] = round(sv * 10)
        flagged[RiskDimension.DATA_AVAILABILITY] = round(da * 10)
    prevalence = PrevalenceTable(total, flagged, share_table(RiskDimension, flagged, total))
    assert prevalence.shares[RiskDimension.STATE_VALIDATION] == sv
    assert prevalence.shares[RiskDimension.DATA_AVAILABILITY] == da
    texts = {n.key: n.text for n in cross_validate(prevalence, distribution([]))}
    assert ("unobservable-validation-da" in texts) is fires
    if fires:
        assert f"({_pct(sv)} of projects)" in texts["unobservable-validation-da"]
        assert f"dependence ({_pct(da)})" in texts["unobservable-validation-da"]


# -- report assembly -----------------------------------------------------------


def test_report_validates_against_schema(bundle):
    jsonschema.validate(bundle.report, load_schema("report"))


_DROP = object()


@pytest.mark.parametrize(
    "block, table, key, value",
    [
        ("prevalence", "flagged", "Exit Window", 3),
        ("prevalence", "shares", "exit-window", 250.0),
        ("incidents", "counts", "sequencer-disruption", _DROP),
    ],
)
def test_report_schema_takes_only_canonical_table_members(bundle, block, table, key, value):
    report = copy.deepcopy(bundle.report)
    if value is _DROP:
        del report[block][table][key]
    else:
        report[block][table][key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, load_schema("report"))


def test_report_schema_members_are_the_models():
    assert load_schema("prevalence")["$defs"]["dimension"]["enum"] == [d.value for d in RiskDimension]
    buckets = load_schema("distribution")["$defs"]["bucket"]["enum"]
    assert buckets == [t.value for t in CompressedIncidentType]


def test_report_schema_ids_are_the_tables():
    defs = load_schema("report")["$defs"]
    assert defs["note"]["enum"] == [key for key, *_ in _NOTES]
    assert defs["narrative"]["enum"] == list(NARRATIVES)
    assert defs["severity"]["enum"] == [s.value for s in Severity]
    assert defs["principle"]["enum"] == [p.value for p in Principle]
    assert defs["stakeholder"]["enum"] == [s.value for s in Stakeholder]
    assert defs["immediateMitigation"]["enum"] == list(IMMEDIATE_MITIGATIONS)
    assert defs["structuralMitigation"]["enum"] == list(STRUCTURAL_MITIGATIONS)
    assert list(MITIGATION_LABELS) == list(IMMEDIATE_MITIGATIONS + STRUCTURAL_MITIGATIONS)


def test_report_simulation_items_are_the_metrics_schema():
    report = load_schema("report")["properties"]
    assert report["simulations"]["items"] == {"$ref": "metrics.schema.json"}
    # the report adds one rule to each artifact: its warnings are required
    assert report["prevalence"] == {"$ref": "prevalence.schema.json", "required": ["warnings"]}
    assert report["incidents"] == {"$ref": "distribution.schema.json", "required": ["warnings"]}


# FormatChecker makes `format: date` a rule rather than an annotation
_REPORT_SCHEMA = jsonschema.Draft202012Validator(
    load_schema("report"), format_checker=jsonschema.FormatChecker()
)


@pytest.fixture(scope="module")
def full_report():
    """A report over every input kind: the fixtures, the default ruleset and
    all bundled scenarios."""
    return build_report(
        snapshot_path=SNAPSHOT,
        incidents_path=INCIDENTS,
        ruleset_path=fixture_path(RULESET_JSON),
        scenario_paths=[fixture_path(f"scenarios/{name}") for name in scenario_names()],
    ).report


def test_real_reports_satisfy_the_schema(full_report, tmp_path):
    _REPORT_SCHEMA.validate(full_report)
    empty = tmp_path / "empty.csv"
    empty.write_text("name,date,link,incident_type\n", encoding="utf-8")
    report = build_report(snapshot_path=SNAPSHOT, incidents_path=empty).report
    assert report["incidents"]["date_span"] is None
    _REPORT_SCHEMA.validate(report)


_MUTATIONS = [
    (("simulations", 0, "metrics"), {}),
    (("simulations", 0, "metrics", "peak_backlog"), 3),
    (("simulations", 0, "metrics", "frozen_funds_duration"), -5),
    (("simulations", 0, "metrics", "exit_coverage_before_upgrade"), 3.0),
    (("simulations", 0, "conservation_violations"), [1]),
    (("simulations", 0, "elapsed"), 1),
    (("prevalence", "source"), "x"),
    (("incidents", "source"), "x"),
    (("incidents", "date_span"), ["x", "y"]),
    (("cross_validation", 0, "key"), "made-up-note"),
    (("cross_validation", 0, "dimensions"), ["Exit Window"]),
    (("cross_validation", 0, "incident_types"), ["outage"]),
    (("findings", 0, "severity"), "catastrophic"),
    (("findings", 0, "principles"), ["kindness"]),
    (("findings", 0, "narrative_key"), "made-up-narrative"),
    (("findings", 0, "stakeholders"), ["user"]),
    (("prioritization", "immediate_operational"), ["reduce-external-da-reliance"]),
    (("prioritization", "structural_governance"), ["do-nothing"]),
    (("prioritization", "rationale", "do-nothing"), "because"),
]


def _mutated(report, path, value):
    report = copy.deepcopy(report)
    target = report
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return report


@pytest.mark.parametrize("path, value", _MUTATIONS)
def test_report_schema_refuses(full_report, path, value):
    with pytest.raises(jsonschema.ValidationError):
        _REPORT_SCHEMA.validate(_mutated(full_report, path, value))


def _refs(node):
    """Every $ref in a schema, at any depth."""
    if isinstance(node, dict):
        if "$ref" in node:
            yield node["$ref"]
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _refs(item)


def test_schema_files_resolve_by_name_as_the_bundle_does(full_report, tmp_path):
    files = {
        p.name: json.loads(p.read_text())
        for p in resources.files("l2risk.schemas").iterdir()
        if p.name.endswith(".schema.json")
    }
    assert sorted(files) == sorted(f"{name}.schema.json" for name in SCHEMA_NAMES)
    for name in SCHEMA_NAMES:
        bundle = load_schema(name)
        for ref in _refs(files[f"{name}.schema.json"]):
            sibling = ref.partition("#")[0]
            assert sibling == "" or sibling in bundle["$defs"] and sibling in files, ref

    registry = Registry().with_resources(
        (file_name, DRAFT202012.create_resource(schema)) for file_name, schema in files.items()
    )
    on_disk = jsonschema.Draft202012Validator(
        files["report.schema.json"], registry=registry, format_checker=jsonschema.FormatChecker()
    )
    empty = tmp_path / "empty.csv"
    empty.write_text("name,date,link,incident_type\n", encoding="utf-8")
    reports = [full_report, build_report(snapshot_path=SNAPSHOT, incidents_path=empty).report]
    for validator in (_REPORT_SCHEMA, on_disk):
        for report in reports:
            validator.validate(report)
        for path, value in _MUTATIONS:
            assert not validator.is_valid(_mutated(full_report, path, value)), path


def test_report_metadata_inputs_carry_real_digests(bundle):
    inputs = bundle.report["metadata"]["inputs"]
    for name, path in (("snapshot", SNAPSHOT), ("incidents", INCIDENTS)):
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert inputs[name]["sha256"] == expected
        assert inputs[name]["path"] == str(path)
    assert "ruleset" not in inputs  # none was passed
    assert "scenarios" not in inputs


def test_report_sections_present(bundle):
    report = bundle.report
    assert report["prevalence"]["total_projects"] == 129
    assert report["incidents"]["total"] == 32
    assert [n["key"] for n in report["cross_validation"]] == [
        "sequencer-liveness-gap",
        "proposer-withdrawal-linkage",
        "exit-window-latent",
        "unobservable-validation-da",
    ]
    assert report["prevalence"]["warnings"]  # fixture contains off-spec rows
    fields = [f["field"] for f in report["findings"]]
    assert fields == sorted(fields)
    assert {2, 4, 7} <= set(fields)


def test_report_simulations_included(tmp_path):
    scen = fixture_path("scenarios/zk-withdrawal-baseline.json")
    b = build_report(
        snapshot_path=SNAPSHOT, incidents_path=INCIDENTS, scenario_paths=[scen]
    )
    assert [s["scenario"] for s in b.report["simulations"]] == ["zk-withdrawal-baseline"]
    assert b.report["simulations"][0]["metrics"]["funds_conserved"] is True
    assert b.report["metadata"]["inputs"]["scenarios"][0]["path"] == str(scen)
    jsonschema.validate(b.report, load_schema("report"))


# -- reproducibility -----------------------------------------------------------


def test_digest_ignores_generation_timestamp():
    a = build_report(
        snapshot_path=SNAPSHOT, incidents_path=INCIDENTS, generated_at="2026-01-01T00:00:00+00:00"
    )
    b = build_report(
        snapshot_path=SNAPSHOT, incidents_path=INCIDENTS, generated_at="2026-06-30T12:34:56+00:00"
    )
    da = a.report["metadata"]["content_digest"]
    db = b.report["metadata"]["content_digest"]
    assert da == db
    assert a.report["metadata"]["generated_at"] != b.report["metadata"]["generated_at"]


def test_recorded_digest_matches_recomputation(bundle):
    assert bundle.report["metadata"]["content_digest"] == content_digest(bundle.report)


def _digest_via_json_round_trip(report):
    """Reference: the digest as first defined, on a JSON round-tripped copy."""
    trimmed = json.loads(json.dumps(report))
    meta = trimmed.get("metadata", {})
    meta.pop("generated_at", None)
    meta.pop("content_digest", None)
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _keys(node):
    if isinstance(node, dict):
        yield from node
        for value in node.values():
            yield from _keys(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _keys(value)


def test_digest_matches_json_round_trip_definition():
    scenarios = sorted(fixture_path("scenarios").glob("*.json"))
    built = build_report(snapshot_path=SNAPSHOT, incidents_path=INCIDENTS, scenario_paths=scenarios)
    read_back = json.loads(json.dumps(built.report))
    # the two definitions agree only while every key is already a string
    assert all(isinstance(k, str) for k in _keys(built.report))
    for report in (built.report, read_back):
        before = json.dumps(report, sort_keys=True)
        assert content_digest(report) == _digest_via_json_round_trip(report)
        assert json.dumps(report, sort_keys=True) == before  # the input is not modified
    assert content_digest(built.report) == built.report["metadata"]["content_digest"]


def test_digest_changes_when_inputs_change(bundle, tmp_path):
    # drop one incident row; the distribution, and therefore the digest, must move
    lines = INCIDENTS.read_text(encoding="utf-8").splitlines()
    trimmed = tmp_path / "incidents.csv"
    trimmed.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    other = build_report(snapshot_path=SNAPSHOT, incidents_path=trimmed)
    assert other.report["incidents"]["total"] == 31
    assert (
        other.report["metadata"]["content_digest"]
        != bundle.report["metadata"]["content_digest"]
    )


def test_digest_tracks_seed(bundle):
    other = build_report(snapshot_path=SNAPSHOT, incidents_path=INCIDENTS, seed=99)
    assert (
        other.report["metadata"]["content_digest"]
        != bundle.report["metadata"]["content_digest"]
    )


def test_strict_roles_flag_follows_environment(monkeypatch):
    monkeypatch.setenv("ERA_STRICT_ROLES", "1")
    strict = build_report(snapshot_path=SNAPSHOT, incidents_path=INCIDENTS)
    assert strict.report["metadata"]["strict_roles"] is True
    monkeypatch.delenv("ERA_STRICT_ROLES")
    lax = build_report(snapshot_path=SNAPSHOT, incidents_path=INCIDENTS)
    assert lax.report["metadata"]["strict_roles"] is False
    assert (
        strict.report["metadata"]["content_digest"]
        != lax.report["metadata"]["content_digest"]
    )


# The content digest of `l2risk report --format json` over the fixtures and
# every bundled scenario, run from the repository root with relative paths
# (the digest covers the paths). A change that moves it must say why.
FIXTURE_REPORT_DIGEST = "764e84aba9930da30c7aa764d0bbe654ef3bbc4bcd94879a46fd35f4e06fc7a7"

# Runs the CLI after giving labeled enum members a hash that sorts every set
# of them by their place in the class, ascending ("up") or descending
# ("down"; from -2, since CPython turns a hash of -1 into -2). l2risk.model
# builds no set or dict of members at import, so the hash is in place before
# any is built.
_ORDERED_MEMBERS = """
import sys
import l2risk.model

def place(member):
    return type(member)._member_names_.index(member._name_)

up = sys.argv.pop(1) == "up"
l2risk.model._LabeledEnum.__hash__ = place if up else lambda member: -2 - place(member)
from l2risk.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "hash_seed, member_order",
    [("0", None), ("1", None), (None, None), (None, "up"), (None, "down")],
)
def test_report_digest_is_independent_of_hash_order(hash_seed, member_order, tmp_path):
    # Identity hashes put members in a set in an order that can differ
    # between interpreters, and string hashes follow PYTHONHASHSEED; no
    # output may depend on either. A fresh interpreter rarely reorders a
    # small set of members, so two runs also force opposite orders.
    root = SNAPSHOT.parents[3]
    if not (root / "src" / "l2risk").is_dir():
        pytest.skip("needs a source checkout: the pinned digest covers src/ paths")
    argv = ["report"]
    for flag, path in (("--snapshot", SNAPSHOT), ("--incidents", INCIDENTS)):
        argv += [flag, str(path.relative_to(root))]
    for path in sorted(fixture_path("scenarios").glob("*.json")):
        argv += ["--scenario", str(path.relative_to(root))]
    out = tmp_path / "report.json"
    argv += ["--format", "json", "--out", str(out)]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONHASHSEED", "ERA_STRICT_ROLES")}
    env["PYTHONPATH"] = str(root / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    if member_order is None:
        command = [sys.executable, "-m", "l2risk.cli", *argv]
    else:
        command = [sys.executable, "-c", _ORDERED_MEMBERS, member_order, *argv]
    subprocess.run(command, cwd=root, env=env, capture_output=True, check=True)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["metadata"]["content_digest"] == FIXTURE_REPORT_DIGEST


# -- work guards ---------------------------------------------------------------


def _full_report():
    return build_report(
        snapshot_path=SNAPSHOT,
        incidents_path=INCIDENTS,
        ruleset_path=fixture_path(RULESET_JSON),
        scenario_paths=sorted(fixture_path("scenarios").glob("*.json")),
    )


def test_build_report_reads_each_input_once(monkeypatch):
    opened = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int):
            opened[Path(file).resolve()] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    bundle = _full_report()
    inputs = bundle.report["metadata"]["inputs"]
    paths = [inputs["snapshot"]["path"], inputs["incidents"]["path"], inputs["ruleset"]["path"]]
    paths += [s["path"] for s in inputs["scenarios"]]
    assert len(paths) == 12
    assert {p: opened[Path(p).resolve()] for p in paths} == {p: 1 for p in paths}


def test_build_report_never_calls_enum_hash(monkeypatch):
    calls = Counter()
    enum_hash = enum.Enum.__hash__

    def counting_hash(self):
        calls[type(self).__name__] += 1
        return enum_hash(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
    _full_report()
    assert calls == Counter()


# -- rendering -----------------------------------------------------------------


def test_render_contains_every_section(bundle):
    text = render_report_text(bundle)
    assert text.startswith("Rollup risk report")
    assert "Content digest: " + bundle.report["metadata"]["content_digest"] in text
    assert "Cross-validation" in text
    assert "Findings (reference deployment)" in text
    assert "[PROBLEM] field 2" in text
    assert "[PROBLEM] field 4" in text
    assert "[PROBLEM] field 7" in text
    assert "Prioritized mitigations" in text
    assert "Strengthen sequencer liveness protections and inclusion paths" in text
    assert "Timelock upgrades and guarantee exit windows backed by escape hatches" in text
    # no scenarios were passed, so no simulation section
    assert "Simulations" not in text


def test_render_lists_simulations_when_present():
    scen = fixture_path("scenarios/sequencer-outage-fi-1h.json")
    b = build_report(snapshot_path=SNAPSHOT, incidents_path=INCIDENTS, scenario_paths=[scen])
    text = render_report_text(b)
    assert "Simulations" in text
    assert "sequencer-outage-fi-1h: censorship 3600s, frozen 3600s, conserved True" in text
