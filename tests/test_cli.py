"""End-to-end command-line tests driving `main` in-process."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import l2risk.cli
from l2risk.cli import main
from l2risk.data import fixture_path, scenario_names
from l2risk.model import load_json
from l2risk.report import build_report, render_report_text
from l2risk.schemas import SCHEMA_NAMES, load_schema
from l2risk.sim import ScenarioError, SimResult, load_scenario, simulate
from l2risk.snapshot import FlagRuleset, SnapshotParseError, load_snapshot

SNAPSHOT = str(fixture_path("snapshot-fixture.json"))
INCIDENTS = str(fixture_path("incident-table.csv"))
BASELINE = str(fixture_path("scenarios/zk-withdrawal-baseline.json"))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "l2risk 0.1.0"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_import_leaves_decimal_unloaded():
    # percentages are integer arithmetic; decimal costs about 2 ms of every start
    src = Path(sys.modules["l2risk"].__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, l2risk.cli; print(sorted(m for m in sys.modules if 'decimal' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# Prints the modules that importing the CLI and the simulator loads. Taking
# the difference leaves out what site start-up imports (.pth files).
_NEW_MODULES = """
import sys
before = set(sys.modules)
import l2risk.cli, l2risk.sim
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_and_simulator_import_only_the_standard_library():
    # pyproject.toml declares no dependencies; an import outside the standard
    # library would break an install that trusts it
    src = Path(sys.modules["l2risk"].__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES], env=env, capture_output=True, text=True, check=True
    )
    loaded = out.stdout.split()
    assert "l2risk.sim.engine" in loaded
    packages = {name.partition(".")[0] for name in loaded}
    assert packages - sys.stdlib_module_names == {"l2risk"}


def test_simulate_and_report_run_clean_in_dev_mode(tmp_path):
    # -X dev shows what a normal run hides, such as a file left unclosed
    # (ResourceWarning) or a deprecation, and -W error makes each one fatal.
    src = Path(sys.modules["l2risk"].__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    scenario = str(fixture_path("scenarios/sequencer-outage-fi-1h.json"))
    commands = [
        ["simulate", "--scenario", scenario, "--out", str(tmp_path / "run")],
        ["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS, "--format", "json",
         "--out", str(tmp_path / "report.json")],
    ]
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "l2risk.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, (argv[0], done.stderr)
        assert "Warning" not in done.stderr and "Traceback" not in done.stderr, argv[0]
    assert (tmp_path / "run" / "trace.ndjson").stat().st_size > 0
    assert json.loads((tmp_path / "report.json").read_text())


# -- ingest-snapshot -----------------------------------------------------------


def test_ingest_snapshot_text(capsys):
    assert main(["ingest-snapshot", "--snapshot", SNAPSHOT]) == 0
    out = capsys.readouterr().out
    assert "Total projects analyzed" in out
    assert "129" in out
    assert "86.0" in out


def test_ingest_snapshot_json_validates(tmp_path):
    out = tmp_path / "prev.json"
    assert main(
        ["ingest-snapshot", "--snapshot", SNAPSHOT, "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("prevalence"))
    assert payload["total_projects"] == 129
    assert payload["flagged"] == {
        "state-validation": 32,
        "exit-window": 111,
        "proposer-failure": 65,
        "sequencer-failure": 17,
        "data-availability": 35,
    }
    assert payload["warnings"]  # fixture carries off-spec rows on purpose


@pytest.mark.parametrize("command", ["ingest-snapshot", "report"])
def test_snapshot_warnings_printed_to_stderr_once_each(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    argv = [command, "--snapshot", SNAPSHOT, "--format", "json", "--out", str(out)]
    if command == "report":
        argv += ["--incidents", INCIDENTS]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    if command == "report":
        payload = payload["prevalence"]
    assert payload["warnings"]
    assert capsys.readouterr().err.splitlines() == payload["warnings"]


def test_report_prints_incident_warnings_once_after_the_snapshot_warnings(tmp_path, capsys):
    table = tmp_path / "incidents.csv"
    table.write_text(Path(INCIDENTS).read_text(encoding="utf-8") + "Foochain,2024-01-01\n")
    assert main(["report", "--snapshot", SNAPSHOT, "--incidents", str(table)]) == 0
    printed = capsys.readouterr()
    report = build_report(snapshot_path=SNAPSHOT, incidents_path=table)
    assert report["incidents"]["warnings"] == ["line 34: too few fields"]
    assert printed.err.splitlines() == [
        *report["prevalence"]["warnings"],
        "line 34: too few fields",
    ]
    # stdout is the report alone; only its "Generated:" timestamp may differ
    out, expected = printed.out.splitlines(), render_report_text(report).splitlines()
    assert out[:1] + out[2:] == expected[:1] + expected[2:]


def test_ingest_snapshot_explicit_adapter(capsys):
    assert main(["ingest-snapshot", "--snapshot", SNAPSHOT, "--adapter", "normalized"]) == 0
    assert "129" in capsys.readouterr().out


def test_ingest_snapshot_wrong_adapter_exits_3(capsys):
    assert main(["ingest-snapshot", "--snapshot", SNAPSHOT, "--adapter", "keyed"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "keyed" in err


def test_ingest_snapshot_unrecognized_layout_exits_3(tmp_path, capsys):
    weird = tmp_path / "weird.json"
    weird.write_text('{"totally": {"different": ["shape"]}}')
    assert main(["ingest-snapshot", "--snapshot", str(weird)]) == 3
    err = capsys.readouterr().err
    assert "no adapter recognizes this document" in err
    assert "totally" in err  # the schema survey names the unexpected keys


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"projects": []}, "normalized"),
        ({"projects": {}}, "keyed"),
        ({"data": {"projects": []}}, "wrapped"),
        ({"data": {"projects": {}}}, "wrapped"),
    ],
)
@pytest.mark.parametrize("auto", [True, False])
def test_ingest_snapshot_empty_layout_reads_as_no_projects(tmp_path, capsys, doc, named, auto):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    adapter = "auto" if auto else named
    argv = ["ingest-snapshot", "--snapshot", str(path), "--adapter", adapter, "--format", "json"]
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert json.loads(printed.out)["total_projects"] == 0
    assert printed.err == ""


def test_ingest_snapshot_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["ingest-snapshot", "--snapshot", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["ingest-snapshot", "--snapshot", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


# -- ingest-incidents ----------------------------------------------------------


def test_ingest_incidents_text(capsys):
    assert main(["ingest-incidents", "--incidents", INCIDENTS]) == 0
    out = capsys.readouterr().out
    assert "Sequencer disruption" in out
    assert "59.4" in out


def test_ingest_incidents_json_validates(tmp_path):
    out = tmp_path / "dist.json"
    assert main(
        ["ingest-incidents", "--incidents", INCIDENTS, "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("distribution"))
    assert payload["total"] == 32
    assert payload["counts"] == {
        "sequencer-disruption": 19,
        "bridge-or-withdrawal": 6,
        "exploit-or-security": 4,
        "censorship-or-forced-inclusion": 3,
    }
    assert payload["warnings"] == []


def test_ingest_incidents_bad_row_warns_but_succeeds(tmp_path, capsys):
    csv = tmp_path / "inc.csv"
    csv.write_text(
        "name,date,link,incident_type\n"
        "Goodchain,2024-01-01,https://example.com/a,Sequencer outage\n"
        ",2024-01-02,https://example.com/b,Sequencer outage\n"
    )
    assert main(["ingest-incidents", "--incidents", str(csv), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "line 3" in captured.err
    assert "empty project name" in captured.err
    assert json.loads(captured.out)["total"] == 1


@pytest.mark.parametrize(
    "header, row",
    [
        # a description column past the four required ones
        ("name,date,link,incident_type,description", "{}, went down"),
        # required columns past index 3
        ("a,b,c,name,date,link,incident_type", "x,y,z,{}"),
    ],
)
@pytest.mark.parametrize("command", ["ingest-incidents", "report"])
def test_incident_row_short_of_a_read_column_has_too_few_fields(
    tmp_path, capsys, header, row, command
):
    full = row.format("Goodchain,2024-01-01,https://example.com/a,Sequencer outage")
    short = ",".join(full.split(",")[:4])  # enough for the old four-field check
    csv = tmp_path / "inc.csv"
    csv.write_text(f"{header}\n{full}\n{short}\n")
    snapshot = ["--snapshot", SNAPSHOT] if command == "report" else []
    assert main([command, "--incidents", str(csv), *snapshot, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "line 3: too few fields" in captured.err
    payload = json.loads(captured.out)
    assert (payload["incidents"] if command == "report" else payload)["total"] == 1


@pytest.mark.parametrize("command", ["ingest-incidents", "report"])
def test_incident_table_after_a_blank_line_reads_as_without_it(tmp_path, capsys, command):
    csv = tmp_path / "inc.csv"
    snapshot = ["--snapshot", SNAPSHOT] if command == "report" else []
    payloads = []
    for blank in ("", "\n"):
        csv.write_text(blank + Path(INCIDENTS).read_text(encoding="utf-8"), encoding="utf-8")
        assert main([command, "--incidents", str(csv), *snapshot, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payloads.append(payload["incidents"] if command == "report" else payload)
    assert payloads[0]["total"] > 0
    assert payloads[0] == payloads[1]


def test_ingest_incidents_reads_a_table_saved_with_a_byte_order_mark(tmp_path, capsys):
    marked = tmp_path / "inc.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(INCIDENTS).read_bytes())
    payloads = []
    for path in (INCIDENTS, str(marked)):
        assert main(["ingest-incidents", "--incidents", path, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payloads.append(json.loads(captured.out))
    assert payloads[0]["total"] == 32
    assert payloads[0] == payloads[1]


def test_a_json_input_with_a_byte_order_mark_is_still_refused(tmp_path, capsys):
    marked = tmp_path / "snap.json"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(SNAPSHOT).read_bytes())
    assert main(["ingest-snapshot", "--snapshot", str(marked)]) == 2
    assert "Unexpected UTF-8 BOM" in capsys.readouterr().err


def test_ingest_incidents_header_only_is_empty_distribution(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("name,date,link,incident_type\n")
    assert main(["ingest-incidents", "--incidents", str(csv), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("distribution"))
    assert payload["total"] == 0
    assert all(v is None for v in payload["shares"].values())


# -- cross-validate ------------------------------------------------------------


@pytest.fixture()
def artifacts(tmp_path):
    """prev.json and dist.json produced by the ingest commands themselves."""
    prev = tmp_path / "prev.json"
    dist = tmp_path / "dist.json"
    main(["ingest-snapshot", "--snapshot", SNAPSHOT, "--format", "json", "--out", str(prev)])
    main(["ingest-incidents", "--incidents", INCIDENTS, "--format", "json", "--out", str(dist)])
    return prev, dist


def test_cross_validate_consumes_ingest_outputs(artifacts, capsys):
    prev, dist = artifacts
    code = main(
        ["cross-validate", "--prevalence", str(prev), "--distribution", str(dist),
         "--format", "json"]
    )
    assert code == 0
    notes = json.loads(capsys.readouterr().out)
    assert [n["key"] for n in notes] == [
        "sequencer-liveness-gap",
        "proposer-withdrawal-linkage",
        "exit-window-latent",
        "unobservable-validation-da",
    ]


def test_cross_validate_text(artifacts, capsys):
    prev, dist = artifacts
    assert main(["cross-validate", "--prevalence", str(prev), "--distribution", str(dist)]) == 0
    out = capsys.readouterr().out
    assert "[sequencer-liveness-gap]" in out
    assert "[exit-window-latent]" in out


def test_cross_validate_rejects_malformed_artifact(tmp_path, artifacts, capsys):
    _, dist = artifacts
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"flagged": {}}')
    assert main(
        ["cross-validate", "--prevalence", str(mangled), "--distribution", str(dist)]
    ) == 2
    assert "error:" in capsys.readouterr().err


_DROP = object()


@pytest.mark.parametrize(
    "artifact, keys, value, message",
    [
        ("prev", ("shares", "exit-window"), _DROP, "shares is missing ['exit-window']"),
        ("prev", ("flagged", "exit-window"), "129", "flagged.exit-window must be an integer"),
        ("prev", ("flagged", "exit-window"), 129.9, "flagged.exit-window must be an integer"),
        ("prev", ("flagged", "exit-window"), True, "flagged.exit-window must be an integer"),
        ("prev", ("total_projects",), "129", "total_projects must be an integer"),
        ("prev", ("shares", "exit-window"), "86", "shares.exit-window must be a number or null"),
        ("prev", ("flagged", "Exit Window"), 3, "unknown flagged keys: ['Exit Window']"),
        ("dist", ("shares", "bridge-or-withdrawal"), _DROP, "shares is missing"),
        ("dist", ("counts", "exploit-or-security"), 3.0, "counts.exploit-or-security must be"),
        ("dist", ("shares", "sequencer-disruption"), "86", "shares.sequencer-disruption must be"),
        ("dist", ("shares", "sequencer-disruption"), False, "shares.sequencer-disruption must"),
        ("dist", ("counts",), [], "counts must be an object"),
        ("dist", ("unmapped",), _DROP, "unmapped is required"),
        ("dist", ("distinct_projects",), _DROP, "distinct_projects is required"),
        ("dist", ("date_span",), _DROP, "date_span is required"),
        ("dist", ("date_span",), [], "date_span must be null or a pair of dates"),
        ("dist", ("unmapped",), -1, "unmapped must not be negative"),
        ("dist", ("counts", "exploit-or-security"), -1, "counts.exploit-or-security must not"),
        ("prev", ("shares", "exit-window"), 250.0, "shares.exit-window must be between 0 and 100"),
        ("dist", ("shares", "sequencer-disruption"), 250.0, "shares.sequencer-disruption must be"),
        ("dist", ("shares", "sequencer-disruption"), -0.5, "shares.sequencer-disruption must be"),
        ("prev", ("bogus",), 1, "unknown prevalence keys: ['bogus']"),
        ("dist", ("bogus",), 1, "unknown distribution keys: ['bogus']"),
        ("prev", ("warnings",), 5, "warnings must be a list of strings"),
        ("dist", ("warnings",), 5, "warnings must be a list of strings"),
        ("dist", ("date_span",), ["20220629", "2025-08-31"], "not a YYYY-MM-DD date: '20220629'"),
        ("dist", ("date_span",), ["2025-08-31", "2022-06-29"], "date_span must not end before"),
    ],
)
def test_cross_validate_rejects_loose_artifacts(
    tmp_path, artifacts, capsys, artifact, keys, value, message
):
    prev, dist = artifacts
    path = prev if artifact == "prev" else dist
    doc = json.loads(path.read_text())
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(
        ["cross-validate", "--prevalence", str(prev), "--distribution", str(dist)]
    ) == 2
    assert message in capsys.readouterr().err


def test_cross_validate_accepts_the_schemas_edge_values(artifacts):
    prev, dist = artifacts
    doc = json.loads(prev.read_text())
    doc["flagged"].update({"exit-window": 129, "state-validation": 0})
    doc["shares"].update({"exit-window": 100, "state-validation": 0.0})
    prev.write_text(json.dumps(doc))
    doc = json.loads(dist.read_text())
    doc["counts"] = {bucket: 0 for bucket in doc["counts"]}
    doc["shares"] = {bucket: 0.0 for bucket in doc["shares"]}
    doc["counts"]["sequencer-disruption"] = 32
    doc["shares"]["sequencer-disruption"] = 100.0
    doc["date_span"] = None
    dist.write_text(json.dumps(doc))
    assert main(
        ["cross-validate", "--prevalence", str(prev), "--distribution", str(dist)]
    ) == 0


@pytest.mark.parametrize(
    "artifact, shares, message",
    [
        ("dist", None, "shares.sequencer-disruption must be 59.4 for 19 of 32, not None"),
        ("prev", 0.0, "shares.state-validation must be 24.8 for 32 of 129, not 0.0"),
    ],
)
def test_cross_validate_refuses_shares_that_are_not_the_counts(
    artifacts, capsys, artifact, shares, message
):
    prev, dist = artifacts
    path = prev if artifact == "prev" else dist
    doc = json.loads(path.read_text())
    doc["shares"] = dict.fromkeys(doc["shares"], shares)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(
        ["cross-validate", "--prevalence", str(prev), "--distribution", str(dist)]
    ) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "load, error",
    [
        (load_json, ValueError),
        (load_snapshot, SnapshotParseError),
        (FlagRuleset.from_file, ValueError),
        (load_scenario, ScenarioError),
    ],
)
@pytest.mark.parametrize("given_text", [False, True])
def test_each_loader_names_the_file_that_is_not_json(tmp_path, load, error, given_text):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads("{nope")
    with pytest.raises(error) as exc:
        load(bad, text="{nope") if given_text else load(bad)
    assert type(exc.value) is error
    assert str(exc.value) == f"{bad}: not valid JSON ({decode.value})"


@pytest.mark.parametrize("artifact", ["prev", "dist"])
def test_cross_validate_names_the_artifact_that_is_not_json(artifacts, capsys, artifact):
    prev, dist = artifacts
    path = prev if artifact == "prev" else dist
    path.write_text("{nope")
    assert main(
        ["cross-validate", "--prevalence", str(prev), "--distribution", str(dist)]
    ) == 2
    assert f"error: {path}: not valid JSON (" in capsys.readouterr().err


@pytest.mark.parametrize("index, value", [(0, "2025-13-01"), (1, "2025-02-30")])
def test_cross_validate_names_the_date_span_entry(artifacts, capsys, index, value):
    prev, dist = artifacts
    doc = json.loads(dist.read_text())
    doc["date_span"][index] = value
    dist.write_text(json.dumps(doc))
    assert main(
        ["cross-validate", "--prevalence", str(prev), "--distribution", str(dist)]
    ) == 2
    assert f"error: date_span[{index}]: " in capsys.readouterr().err


# -- simulate ------------------------------------------------------------------


def test_simulate_writes_trace_and_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", BASELINE, "--out", str(out)]) == 0
    summary_line = capsys.readouterr().out
    assert summary_line.startswith("zk-withdrawal-baseline:")
    metrics = json.loads((out / "metrics.json").read_text())
    jsonschema.validate(metrics, load_schema("metrics"))
    assert metrics["metrics"]["withdrawal_latency"] == {"alice": [4488]}
    trace = (out / "trace.ndjson").read_text().splitlines()
    assert len(trace) == metrics["event_count"]
    for line in trace:
        json.loads(line)


def test_simulate_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--scenario", BASELINE, "--seed", "5", "--out", str(a)])
    main(["simulate", "--scenario", BASELINE, "--seed", "5", "--out", str(b)])
    assert (a / "trace.ndjson").read_bytes() == (b / "trace.ndjson").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def _refuse_events_view(result):
    raise AssertionError(f"{result.scenario}: the events view was built")


def test_simulate_and_report_count_records_without_the_events_view(
    tmp_path, capsys, monkeypatch
):
    # the dict per event is for callers that ask; these paths count records
    monkeypatch.setattr(SimResult, "events", property(_refuse_events_view))
    results = []

    def recording(*args, **kwargs):
        results.append(simulate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(l2risk.cli, "simulate", recording)
    scenarios = [str(fixture_path(f"scenarios/{name}")) for name in scenario_names()]
    for k, path in enumerate(scenarios):
        out = tmp_path / str(k)
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        (result,) = results[k:]
        printed = capsys.readouterr().out
        assert printed.startswith(f"{result.scenario}: {len(result.records)} events,")
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["event_count"] == len(result.records)
    with pytest.raises(AssertionError, match="the events view was built"):
        results[0].events

    report = build_report(
        snapshot_path=SNAPSHOT, incidents_path=INCIDENTS, scenario_paths=scenarios
    )
    render_report_text(report)
    counts = [s["event_count"] for s in report["simulations"]]
    assert counts == [len(r.records) for r in results]


def test_simulate_invalid_scenario_exits_4(tmp_path, capsys):
    bad = tmp_path / "scen.json"
    bad.write_text('{"name": "x", "bogus": true}')
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 4
    assert "unknown scenario keys" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_simulate_unreadable_scenario_exits_4(tmp_path, capsys, name):
    path = tmp_path / name
    with pytest.raises(OSError) as unreadable:
        path.read_bytes()
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert f"cannot read scenario: {unreadable.value}" in capsys.readouterr().err


_REPORT =["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--scenario", "{bad}", "--out", "{tmp}/o"], 4),
        ([*_REPORT, *("--scenario", BASELINE, "--scenario", "{bad}", "--scenario", BASELINE)], 4),
        (["ingest-snapshot", "--snapshot", SNAPSHOT, "--ruleset", "{bad}"], 2),
        ([*_REPORT, "--ruleset", "{bad}"], 2),
    ],
)
def test_an_input_that_is_not_json_is_named(tmp_path, capsys, argv, code):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main([arg.format(bad=bad, tmp=tmp_path) for arg in argv]) == code
    assert f"error: {bad}: not valid JSON (" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ingest-snapshot", "--snapshot", "{bad}"], 2),
        (["ingest-snapshot", "--snapshot", SNAPSHOT, "--ruleset", "{bad}"], 2),
        (["ingest-incidents", "--incidents", "{bad}"], 2),
        (["cross-validate", "--prevalence", "{bad}", "--distribution", "{dist}"], 2),
        (["cross-validate", "--prevalence", "{prev}", "--distribution", "{bad}"], 2),
        (["simulate", "--scenario", "{bad}", "--out", "{tmp}/o"], 4),
        (["report", "--snapshot", "{bad}", "--incidents", INCIDENTS], 2),
        (["report", "--snapshot", SNAPSHOT, "--incidents", "{bad}"], 2),
        ([*_REPORT, "--ruleset", "{bad}"], 2),
        ([*_REPORT, "--scenario", BASELINE, "--scenario", "{bad}"], 4),
    ],
    ids=lambda v: f"{v[0]}{v[v.index('{bad}') - 1]}" if isinstance(v, list) else None,
)
def test_an_input_that_is_not_utf8_is_named(tmp_path, artifacts, capsys, argv, code):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    with pytest.raises(UnicodeDecodeError) as decode:
        bad.read_text(encoding="utf-8")
    prev, dist = artifacts
    capsys.readouterr()
    assert main([arg.format(bad=bad, tmp=tmp_path, prev=prev, dist=dist) for arg in argv]) == code
    assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 ({decode.value})\n"
    assert not (tmp_path / "o").exists()


_ACTIONS = [
    {"at": 0, "action": "deposit", "user": "alice", "amount": 500},
    {"at": 60, "action": "deposit", "user": "bob", "amount": 500},
    {"at": 600, "action": "withdraw", "user": "alice", "amount": 100},
]


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"config": {"proof_sytem": "optimistic"}}, "unknown config keys: ['proof_sytem']"),
        ({"config": {"escape_hatch": {"enabled": "false"}}}, "config.escape_hatch.enabled"),
        (
            {"config": {}, "injections": [
                {"kind": "censorship-forced-inclusion-failure", "at": 0, "duration": 60, "targets": "alice"}
            ]},
            "injections[0].targets",
        ),
        ({"name": 5, "config": {}}, "name must be a string"),
        (
            {"config": {}, "workload": {"actions": _ACTIONS + [
                {"at": 900, "action": "withdraw", "user": 7, "amount": 100}
            ]}},
            "workload.actions[3].user",
        ),
        ({"config": {"forced_inclusion": {"enabled": True, "timeout": 1.5}}}, "config.forced_inclusion.timeout"),
        ({"config": {"proposer": {"count": True}}}, "config.proposer.count"),
        ({"config": {"proof_system": "ZK"}}, "config.proof_system"),
    ],
)
def test_simulate_rejects_malformed_scenario_with_its_path(tmp_path, capsys, doc, path):
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 4
    assert path in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bundled_schemas_are_valid_draft_2020_12():
    for name in SCHEMA_NAMES:
        jsonschema.Draft202012Validator.check_schema(load_schema(name))


def test_bundled_scenarios_validate_against_schema():
    from l2risk.data import scenario_names

    schema = load_schema("scenario")
    for name in scenario_names():
        raw = json.loads(fixture_path(f"scenarios/{name}").read_text())
        jsonschema.validate(raw, schema)


# -- report --------------------------------------------------------------------


def test_report_json_validates(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS,
         "--scenario", BASELINE, "--format", "json", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_schema("report"))
    assert report["metadata"]["strict_roles"] is False
    assert [s["scenario"] for s in report["simulations"]] == ["zk-withdrawal-baseline"]


def test_report_text_sections(capsys):
    assert main(["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS]) == 0
    out = capsys.readouterr().out
    assert "Rollup risk report" in out
    assert "Prioritized mitigations" in out
    assert "Strengthen sequencer liveness protections" in out


def test_report_strict_roles_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ERA_STRICT_ROLES", "1")
    out = tmp_path / "report.json"
    main(["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS,
          "--format", "json", "--out", str(out)])
    assert json.loads(out.read_text())["metadata"]["strict_roles"] is True


def test_report_bad_strict_roles_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ERA_STRICT_ROLES", "maybe")
    assert main(["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS]) == 2
    assert "ERA_STRICT_ROLES" in capsys.readouterr().err


def test_report_repeatable_scenario_flag(tmp_path):
    out = tmp_path / "report.json"
    second = str(fixture_path("scenarios/escape-hatch-outage.json"))
    main(["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS,
          "--scenario", BASELINE, "--scenario", second,
          "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    assert [s["scenario"] for s in report["simulations"]] == [
        "zk-withdrawal-baseline",
        "escape-hatch-outage",
    ]
    assert len(report["metadata"]["inputs"]["scenarios"]) == 2


# -- help ----------------------------------------------------------------------

# Every --help text at 80 columns. Python 3.10 heads the flags "optional
# arguments:"; later versions "options:".
_HELP = {
    None: """\
usage: l2risk [-h] [--version]
              {ingest-snapshot,ingest-incidents,cross-validate,simulate,report}
              ...

Ethical-risk analysis toolkit for L2 rollups.

positional arguments:
  {ingest-snapshot,ingest-incidents,cross-validate,simulate,report}
    ingest-snapshot     derive the hazard prevalence table
    ingest-incidents    classify an incident table
    cross-validate      line prevalence up against the incident record
    simulate            run one scenario deterministically
    report              assemble the full reproducible report

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "ingest-snapshot": """\
usage: l2risk ingest-snapshot [-h] --snapshot SNAPSHOT [--ruleset RULESET]
                              [--adapter {auto,keyed,normalized,wrapped}]
                              [--format {text,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --snapshot SNAPSHOT   risk snapshot JSON
  --ruleset RULESET     flagging ruleset JSON (default: bundled rules)
  --adapter {auto,keyed,normalized,wrapped}
  --format {text,json}
  --out OUT             write output here instead of stdout
""",
    "ingest-incidents": """\
usage: l2risk ingest-incidents [-h] --incidents INCIDENTS
                               [--format {text,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --incidents INCIDENTS
                        incident CSV/TSV
  --format {text,json}
  --out OUT             write output here instead of stdout
""",
    "cross-validate": """\
usage: l2risk cross-validate [-h] --prevalence PREVALENCE --distribution
                             DISTRIBUTION [--format {text,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --prevalence PREVALENCE
                        ingest-snapshot JSON output
  --distribution DISTRIBUTION
                        ingest-incidents JSON output
  --format {text,json}
  --out OUT             write output here instead of stdout
""",
    "simulate": """\
usage: l2risk simulate [-h] --scenario SCENARIO [--seed SEED] [--out OUT]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO  scenario JSON
  --seed SEED          workload seed (default 0)
  --out OUT            directory for trace.ndjson and metrics.json
""",
    "report": """\
usage: l2risk report [-h] --snapshot SNAPSHOT --incidents INCIDENTS
                     [--ruleset RULESET] [--scenario SCENARIO]
                     [--adapter {auto,keyed,normalized,wrapped}] [--seed SEED]
                     [--format {text,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --snapshot SNAPSHOT
  --incidents INCIDENTS
  --ruleset RULESET
  --scenario SCENARIO   scenario JSON; repeatable
  --adapter {auto,keyed,normalized,wrapped}
  --seed SEED
  --format {text,json}
  --out OUT             write output here instead of stdout
""",
}


@pytest.mark.parametrize("command", list(_HELP))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.replace("\noptional arguments:\n", "\noptions:\n")
    assert out == _HELP[command]


_USAGE = """\
usage: l2risk [-h] [--version]
              {ingest-snapshot,ingest-incidents,cross-validate,simulate,report}
              ...
"""

_SNAPSHOT_USAGE = """\
usage: l2risk ingest-snapshot [-h] --snapshot SNAPSHOT [--ruleset RULESET]
                              [--adapter {auto,keyed,normalized,wrapped}]
                              [--format {text,json}] [--out OUT]
"""

_INCIDENTS_USAGE = """\
usage: l2risk ingest-incidents [-h] --incidents INCIDENTS
                               [--format {text,json}] [--out OUT]
"""

_CROSS_VALIDATE_USAGE = """\
usage: l2risk cross-validate [-h] --prevalence PREVALENCE --distribution
                             DISTRIBUTION [--format {text,json}] [--out OUT]
"""

_SIMULATE_USAGE = """\
usage: l2risk simulate [-h] --scenario SCENARIO [--seed SEED] [--out OUT]
"""

_REPORT_USAGE = """\
usage: l2risk report [-h] --snapshot SNAPSHOT --incidents INCIDENTS
                     [--ruleset RULESET] [--scenario SCENARIO]
                     [--adapter {auto,keyed,normalized,wrapped}] [--seed SEED]
                     [--format {text,json}] [--out OUT]
"""

# (exit code, stdout, stderr) of calls that argparse ends, at 80 columns, as
# CPython 3.11 words them; each key is split as a shell would, so '' is an
# empty argument. The parser gives only the subcommand argv names its flags,
# yet every usage line above lists all five subcommands. An empty --ruleset
# or --out is refused, not read as the flag left out or as the working
# directory.
_EARLY_EXITS = {
    "report --snapshot a --incidents b extra": (
        2, "", _USAGE + "l2risk: error: unrecognized arguments: extra\n",
    ),
    "bogus": (2, "", _USAGE + (
        "l2risk: error: argument command: invalid choice: 'bogus' (choose from "
        "'ingest-snapshot', 'ingest-incidents', 'cross-validate', 'simulate', 'report')\n"
    )),
    "report": (2, "", _REPORT_USAGE + (
        "l2risk report: error: the following arguments are required: --snapshot, --incidents\n"
    )),
    "simulate --scenario x --bogus": (
        2, "", _USAGE + "l2risk: error: unrecognized arguments: --bogus\n",
    ),
    "ingest-snapshot --snapshot a --ruleset ''": (2, "", _SNAPSHOT_USAGE + (
        "l2risk ingest-snapshot: error: argument --ruleset: empty path\n"
    )),
    "report --snapshot a --incidents b --ruleset ''": (2, "", _REPORT_USAGE + (
        "l2risk report: error: argument --ruleset: empty path\n"
    )),
    "ingest-snapshot --snapshot a --out ''": (2, "", _SNAPSHOT_USAGE + (
        "l2risk ingest-snapshot: error: argument --out: empty path\n"
    )),
    "ingest-incidents --incidents a --out ''": (2, "", _INCIDENTS_USAGE + (
        "l2risk ingest-incidents: error: argument --out: empty path\n"
    )),
    "cross-validate --prevalence a --distribution b --out ''": (2, "", _CROSS_VALIDATE_USAGE + (
        "l2risk cross-validate: error: argument --out: empty path\n"
    )),
    "report --snapshot a --incidents b --out ''": (2, "", _REPORT_USAGE + (
        "l2risk report: error: argument --out: empty path\n"
    )),
    "simulate --scenario a --out ''": (2, "", _SIMULATE_USAGE + (
        "l2risk simulate: error: argument --out: empty path\n"
    )),
    # an empty input path is refused too, not read as the working directory
    "ingest-snapshot --snapshot ''": (2, "", _SNAPSHOT_USAGE + (
        "l2risk ingest-snapshot: error: argument --snapshot: empty path\n"
    )),
    "ingest-incidents --incidents ''": (2, "", _INCIDENTS_USAGE + (
        "l2risk ingest-incidents: error: argument --incidents: empty path\n"
    )),
    "cross-validate --prevalence '' --distribution b": (2, "", _CROSS_VALIDATE_USAGE + (
        "l2risk cross-validate: error: argument --prevalence: empty path\n"
    )),
    "cross-validate --prevalence a --distribution ''": (2, "", _CROSS_VALIDATE_USAGE + (
        "l2risk cross-validate: error: argument --distribution: empty path\n"
    )),
    "simulate --scenario ''": (2, "", _SIMULATE_USAGE + (
        "l2risk simulate: error: argument --scenario: empty path\n"
    )),
    "report --snapshot '' --incidents b": (2, "", _REPORT_USAGE + (
        "l2risk report: error: argument --snapshot: empty path\n"
    )),
    "report --snapshot a --incidents ''": (2, "", _REPORT_USAGE + (
        "l2risk report: error: argument --incidents: empty path\n"
    )),
    "report --snapshot a --incidents b --scenario ''": (2, "", _REPORT_USAGE + (
        "l2risk report: error: argument --scenario: empty path\n"
    )),
    "--version": (0, "l2risk 0.1.0\n", ""),
    "-h report": (0, _HELP[None], ""),
}


@pytest.mark.parametrize("argv", list(_EARLY_EXITS))
def test_early_exit_output_is_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    out, err = capsys.readouterr()
    out = out.replace("\noptional arguments:\n", "\noptions:\n")
    assert (exc.value.code, out, err) == _EARLY_EXITS[argv]


def test_every_path_flag_refuses_an_empty_path():
    # each flag that names a file or directory: all but those with choices
    # and --seed, which is a number
    for name, (_help, _handler, flags) in l2risk.cli._COMMANDS.items():
        for flag, keywords in flags:
            if "choices" not in keywords and flag != "--seed":
                assert keywords.get("type") is l2risk.cli._path, (name, flag)


# -- README --------------------------------------------------------------------

_ROOT = Path(__file__).parents[1]


def _quick_start() -> list[tuple[str, str]]:
    """(command, stdout) for each ``$ l2risk`` line of README's Quick start."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```console\n", 1)[1].split("\n```", 1)[0]
    runs = []
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, _, output = chunk.partition("\n")
        runs.append((command, output.rstrip("\n") + "\n"))
    return runs


def test_quick_start_runs_the_three_pipeline_steps():
    commands = [command.split()[:2] for command, _ in _quick_start()]
    assert commands == [
        ["l2risk", "ingest-snapshot"], ["l2risk", "ingest-incidents"], ["l2risk", "simulate"],
    ]


@pytest.mark.parametrize(
    "command, expected", _quick_start(), ids=[c.split()[1] for c, _ in _quick_start()]
)
def test_quick_start_prints_what_readme_shows(tmp_path, monkeypatch, capsys, command, expected):
    monkeypatch.chdir(_ROOT)
    argv = [str(tmp_path / "run") if arg == "/tmp/run" else arg for arg in command.split()[1:]]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_python_api_prints_what_readme_shows(capsys):
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Python API", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.M)
    assert shown == ["3600", "('deposit_submitted', 0, 0, 'dep-1', 'alice', 1000)"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-len(shown):] == shown
