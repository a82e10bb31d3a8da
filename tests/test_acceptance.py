"""Acceptance gate: one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Every expected value here is a hand-written literal or
derived from first principles, never computed by the code under test, and
each criterion enforces its stated tolerance and runtime budget.
"""

import dataclasses
import datetime as dt
import json
import time

import pytest

from l2risk.data import fixture_path, scenario_names
from l2risk.engine import (
    OutsideDiagramError,
    assign_field,
    classify_roles,
    detect_problematic,
)
from l2risk.incidents import distribution, parse_incidents
from l2risk.model import (
    DAY,
    HOUR,
    CompressedIncidentType,
    EraField,
    ForcedInclusionConfig,
    RiskDimension,
    RoleAssignment,
    RoleFlag,
    RollupConfig,
    Stakeholder,
)
from l2risk.report import build_report
from l2risk.sim import (
    Injection,
    InjectionKind,
    RandomWorkload,
    Scenario,
    WorkloadAction,
    load_bundled_scenario,
    parse_scenario,
    simulate,
)
from l2risk.snapshot import aggregate_prevalence, extract_projects, load_snapshot

SNAPSHOT = fixture_path("snapshot-fixture.json")
INCIDENTS = fixture_path("incident-table.csv")

# Criterion 4 carries a collective runtime budget; each sub-test logs its
# wall time here and the final budget test sums them.
_C4_SECONDS: dict[str, float] = {}


def _timed(key):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _C4_SECONDS[key] = time.perf_counter() - self.t0
            return False

    return _Timer()


# -- criterion 1: incident distribution ------------------------------------------


def test_criterion_1_incident_distribution_reproduced():
    t0 = time.perf_counter()
    parsed = parse_incidents(INCIDENTS)
    dist = distribution(parsed.records)
    elapsed = time.perf_counter() - t0

    assert len(parsed.records) == 32
    assert dist.total == 32
    assert dist.counts == {
        CompressedIncidentType.SEQUENCER_DISRUPTION: 19,
        CompressedIncidentType.BRIDGE_OR_WITHDRAWAL: 6,
        CompressedIncidentType.EXPLOIT_OR_SECURITY: 4,
        CompressedIncidentType.CENSORSHIP_OR_FORCED_INCLUSION: 3,
    }
    # 3/32 sits right on a rounding boundary, hence the +-0.1pp tolerance
    expected_shares = {
        CompressedIncidentType.SEQUENCER_DISRUPTION: 59.4,
        CompressedIncidentType.BRIDGE_OR_WITHDRAWAL: 18.8,
        CompressedIncidentType.EXPLOIT_OR_SECURITY: 12.5,
        CompressedIncidentType.CENSORSHIP_OR_FORCED_INCLUSION: 9.3,
    }
    for bucket, expected in expected_shares.items():
        assert dist.shares[bucket] == pytest.approx(expected, abs=0.1), bucket.value
    assert dist.date_span == (dt.date(2022, 6, 29), dt.date(2025, 8, 9))
    assert elapsed < 1.0


# -- criterion 2: prevalence table -----------------------------------------------


def test_criterion_2_prevalence_table_reproduced():
    t0 = time.perf_counter()
    extract = extract_projects(load_snapshot(SNAPSHOT))
    table = aggregate_prevalence(extract.profiles)
    elapsed = time.perf_counter() - t0

    assert table.total_projects == 129
    assert table.flagged == {
        RiskDimension.EXIT_WINDOW: 111,
        RiskDimension.PROPOSER_FAILURE: 65,
        RiskDimension.SEQUENCER_FAILURE: 17,
        RiskDimension.DATA_AVAILABILITY: 35,
        RiskDimension.STATE_VALIDATION: 32,
    }
    assert table.shares == {
        RiskDimension.EXIT_WINDOW: 86.0,
        RiskDimension.PROPOSER_FAILURE: 50.4,
        RiskDimension.SEQUENCER_FAILURE: 13.2,
        RiskDimension.DATA_AVAILABILITY: 27.1,
        RiskDimension.STATE_VALIDATION: 24.8,
    }
    assert elapsed < 1.0


# -- criterion 3: role matrix and overlap fields ----------------------------------


def test_criterion_3_role_matrix_and_overlap_fields():
    Y, I, L, N = RoleFlag.YES, RoleFlag.INDIRECT, RoleFlag.LIMITED, RoleFlag.NO
    expected = {
        Stakeholder.END_USER: (Y, Y, N),
        Stakeholder.APP_DEVELOPER_AS_USER: (Y, Y, N),
        Stakeholder.INDEPENDENT_VALIDATOR_WATCHER: (Y, L, N),
        Stakeholder.ROLLUP_OPERATOR: (I, Y, Y),
        Stakeholder.SEQUENCER: (I, Y, Y),
        Stakeholder.GOVERNANCE_GROUP: (I, Y, Y),
        Stakeholder.RAAS_PROVIDER: (I, Y, Y),
        Stakeholder.CORE_DEVELOPER: (I, I, Y),
        Stakeholder.L1_DEVELOPER: (N, N, I),
        Stakeholder.INDEPENDENT_PROVER: (I, Y, N),
    }
    reference = RollupConfig.centralized_default()
    matrix = classify_roles(reference)
    for who, (r, b, d) in expected.items():
        row = matrix.rows[who]
        assert (row.risk_exposed, row.beneficiary, row.decision_maker) == (r, b, d), who.value

    anchors = {
        (False, True, False): EraField.BENEFIT_ONLY,
        (False, True, True): EraField.BENEFIT_AND_DECISION,
        (False, False, True): EraField.DECISION_ONLY,
        (True, True, False): EraField.EXPOSURE_AND_BENEFIT,
        (True, True, True): EraField.FULL_OVERLAP,
        (True, False, True): EraField.EXPOSURE_AND_DECISION,
        (True, False, False): EraField.EXPOSURE_ONLY,
    }
    for flags, field in anchors.items():
        assert assign_field(*flags) is field
    assert [int(f) for f in anchors.values()] == [1, 2, 3, 4, 5, 6, 7]
    with pytest.raises(OutsideDiagramError):
        assign_field(False, False, False)

    findings = detect_problematic(matrix, reference)
    problem_fields = {f.field for f in findings if not f.informational}
    assert EraField.BENEFIT_AND_DECISION in problem_fields  # field 2
    assert EraField.EXPOSURE_ONLY in problem_fields  # field 7


# -- criterion 4a: conservation over random workloads ------------------------------


def test_criterion_4a_conservation_over_1000_seeds():
    scenario = Scenario(
        name="acceptance-random",
        config=RollupConfig.centralized_default(),
        random_workload=RandomWorkload(),
    )
    with _timed("4a"):
        for seed in range(1000):
            result = simulate(scenario, seed=seed)
            assert result.violations == (), f"seed {seed}"
            assert result.metrics.funds_conserved, f"seed {seed}"


# -- criterion 4b: forced-inclusion latency bound ----------------------------------


def test_criterion_4b_forced_inclusion_bound():
    base = RollupConfig.centralized_default()
    with _timed("4b"):
        for outage in (HOUR, 12 * HOUR, 3 * DAY):
            for timeout in (HOUR, 24 * HOUR):
                config = dataclasses.replace(
                    base,
                    forced_inclusion=ForcedInclusionConfig(
                        enabled=True, timeout=timeout, usable=True
                    ),
                )
                scenario = Scenario(
                    name=f"fi-{outage}-{timeout}",
                    config=config,
                    actions=(
                        WorkloadAction(at=0, action="deposit", user="u", amount=1000),
                        WorkloadAction(at=700, action="withdraw", user="u", amount=500),
                    ),
                    injections=(
                        Injection(kind=InjectionKind.SEQUENCER_OUTAGE, at=600, duration=outage),
                    ),
                )
                result = simulate(scenario)
                window = result.metrics.censorship_window
                assert window > 0, (outage, timeout)
                assert window <= timeout + 12, (outage, timeout, window)


# -- criterion 4c: proposer outage freezes root posting ----------------------------


def test_criterion_4c_proposer_outage_blocks_proposals():
    scenario = load_bundled_scenario("proposer-freeze")
    outage = next(i for i in scenario.injections if i.kind is InjectionKind.PROPOSER_OUTAGE)
    with _timed("4c"):
        result = simulate(scenario)
    inside = [e for e in result.events if outage.at <= e["t"] < outage.end]
    assert all(e["event"] not in ("proposal", "root_finalized") for e in inside)
    assert any(e["event"] == "proposal_blocked" for e in inside)
    claims = [e for e in result.events if e["event"] == "withdrawal_claimed"]
    assert claims and all(e["t"] >= outage.end for e in claims)


# -- criterion 4d: upgrade exit coverage -------------------------------------------


def test_criterion_4d_upgrade_exit_coverage():
    expected = {
        "instant-upgrade": 0.0,
        "timelocked-upgrade-exit": 1.0,
        "timelocked-upgrade-blocked": 0.0,
    }
    with _timed("4d"):
        for name, coverage in expected.items():
            result = simulate(load_bundled_scenario(name))
            assert result.metrics.exit_coverage_before_upgrade == coverage, name


# -- criterion 4e: invalid-root adjudication ---------------------------------------


def test_criterion_4e_invalid_root_adjudication():
    raw = json.loads(fixture_path("scenarios/exploit-invalid-root.json").read_text())
    with _timed("4e"):
        # enforced + permissionless challengers: challenged, nothing drained
        challenged = simulate(parse_scenario(raw, name="base"))
        events = {e["event"] for e in challenged.events}
        assert "root_challenged" in events
        assert "invalid_root_finalized" not in events
        assert challenged.metrics.funds_conserved is True

        # validation not enforced: the root finalizes and the bridge drains
        unenforced_raw = json.loads(json.dumps(raw))
        unenforced_raw["config"]["state_validation_enforced"] = False
        drained = simulate(parse_scenario(unenforced_raw, name="unenforced"))
        events = {e["event"] for e in drained.events}
        assert "invalid_root_finalized" in events
        assert "exploit_drain" in events
        assert drained.metrics.funds_conserved is False

        # validity proofs enforced at landing: the root never enters
        zk_raw = json.loads(json.dumps(raw))
        zk_raw["config"]["proof_system"] = "zk"
        del zk_raw["config"]["challenge_window"]
        rejected = simulate(parse_scenario(zk_raw, name="zk"))
        events = {e["event"] for e in rejected.events}
        assert "root_rejected" in events
        assert "invalid_root_finalized" not in events
        assert rejected.metrics.funds_conserved is True


# -- criterion 4f: deterministic replay --------------------------------------------


def test_criterion_4f_bundled_scenarios_replay_identically():
    names = scenario_names()
    assert names, "bundled scenario set must not be empty"
    with _timed("4f"):
        for name in names:
            stem = name.removesuffix(".json")
            first = simulate(load_bundled_scenario(stem), seed=0)
            second = simulate(load_bundled_scenario(stem), seed=0)
            assert first.trace_lines() == second.trace_lines(), stem
            assert first.summary() == second.summary(), stem


def test_criterion_4_runtime_budget():
    assert set(_C4_SECONDS) == {"4a", "4b", "4c", "4d", "4e", "4f"}
    assert sum(_C4_SECONDS.values()) < 60.0, _C4_SECONDS


# -- criterion 5: report prioritization and reproducibility ------------------------


def test_criterion_5_report_prioritization_and_reproducibility():
    first = build_report(
        snapshot_path=SNAPSHOT,
        incidents_path=INCIDENTS,
        generated_at="2026-01-01T00:00:00+00:00",
    )
    priorities = first["prioritization"]
    assert "strengthen-sequencer-liveness" in priorities["immediate_operational"]
    structural = priorities["structural_governance"]
    assert "timelocked-upgrades-exit-windows" in structural  # exit-window hazard
    assert "mandatory-l1-state-validation" in structural  # state-validation hazard
    assert "reduce-external-da-reliance" in structural  # data-availability hazard

    second = build_report(
        snapshot_path=SNAPSHOT,
        incidents_path=INCIDENTS,
        generated_at="2026-12-31T23:59:59+00:00",
    )
    assert (
        first["metadata"]["content_digest"]
        == second["metadata"]["content_digest"]
    )
