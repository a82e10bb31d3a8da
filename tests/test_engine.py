import itertools

import pytest

from l2risk.data import INCIDENTS_CSV, SNAPSHOT_JSON, fixture_path
from l2risk.engine import (
    BASELINE_ROLES,
    Finding,
    NARRATIVES,
    OutsideDiagramError,
    Principle,
    assign_field,
    classify_roles,
    detect_problematic,
    field_of,
    populated_fields,
    prioritize,
    role_threshold,
)
from l2risk.incidents import IncidentDistribution, distribution, parse_incidents
from l2risk.model import (
    CompressedIncidentType,
    EraField,
    EscapeHatchConfig,
    ForcedInclusionConfig,
    ProverSetConfig,
    RiskDimension,
    RoleAssignment,
    RoleFlag,
    RollupConfig,
    SequencerConfig,
    SequencerTopology,
    Stakeholder,
    UpgradeConfig,
    UpgradePolicy,
)
from l2risk.snapshot import PrevalenceTable, aggregate_prevalence, extract_projects, load_snapshot

Y, I, L, N = RoleFlag.YES, RoleFlag.INDIRECT, RoleFlag.LIMITED, RoleFlag.NO

# The landscape baseline, cell by cell.
EXPECTED_BASELINE = {
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


def _cells(matrix):
    return {
        s: (a.risk_exposed, a.beneficiary, a.decision_maker) for s, a in matrix.rows.items()
    }


class TestClassifyRoles:
    def test_centralized_default_reproduces_every_baseline_cell(self):
        matrix = classify_roles(RollupConfig.centralized_default())
        assert _cells(matrix) == EXPECTED_BASELINE

    def test_permissionless_sequencer_demotes_decision_power(self):
        cfg = RollupConfig.centralized_default()
        cfg = RollupConfig(
            proof_system=cfg.proof_system,
            sequencer=SequencerConfig(topology=SequencerTopology.PERMISSIONLESS),
            proposer=cfg.proposer,
            forced_inclusion=cfg.forced_inclusion,
            escape_hatch=cfg.escape_hatch,
            da=cfg.da,
            upgrade=cfg.upgrade,
            prover_set=cfg.prover_set,
            state_validation_enforced=cfg.state_validation_enforced,
        )
        matrix = classify_roles(cfg)
        assert matrix[Stakeholder.SEQUENCER].decision_maker is I
        unchanged = {s: c for s, c in _cells(matrix).items() if s is not Stakeholder.SEQUENCER}
        assert unchanged == {
            s: c for s, c in EXPECTED_BASELINE.items() if s is not Stakeholder.SEQUENCER
        }

    def test_timelock_alone_adds_no_end_user_decision_exposure(self):
        base = RollupConfig.centralized_default()
        timelocked = RollupConfig(
            proof_system=base.proof_system,
            sequencer=base.sequencer,
            proposer=base.proposer,
            forced_inclusion=base.forced_inclusion,
            escape_hatch=EscapeHatchConfig(enabled=False),
            da=base.da,
            upgrade=UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=30 * 86400),
            prover_set=base.prover_set,
        )
        assert classify_roles(timelocked)[Stakeholder.END_USER].decision_maker is N

    def test_timelock_with_exit_path_gives_end_users_indirect_say(self):
        base = RollupConfig.centralized_default()
        cfg = RollupConfig(
            proof_system=base.proof_system,
            sequencer=base.sequencer,
            proposer=base.proposer,
            forced_inclusion=base.forced_inclusion,
            escape_hatch=EscapeHatchConfig(enabled=True, non_disableable=True),
            da=base.da,
            upgrade=UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=30 * 86400),
            prover_set=base.prover_set,
        )
        assert classify_roles(cfg)[Stakeholder.END_USER].decision_maker is I

    def test_prover_row_present_only_with_independent_provers(self):
        base = RollupConfig.centralized_default()
        centralized_everything = RollupConfig(
            proof_system=base.proof_system,
            sequencer=base.sequencer,
            proposer=base.proposer,
            forced_inclusion=base.forced_inclusion,
            escape_hatch=base.escape_hatch,
            da=base.da,
            upgrade=base.upgrade,
            prover_set=ProverSetConfig(count=1, permissionless=False),
        )
        permissionless_prover = RollupConfig(
            proof_system=base.proof_system,
            sequencer=base.sequencer,
            proposer=base.proposer,
            forced_inclusion=base.forced_inclusion,
            escape_hatch=base.escape_hatch,
            da=base.da,
            upgrade=base.upgrade,
            prover_set=ProverSetConfig(count=4, permissionless=True),
        )
        a = _cells(classify_roles(centralized_everything))
        b = _cells(classify_roles(permissionless_prover))
        assert a[Stakeholder.INDEPENDENT_PROVER] == (N, N, N)
        assert b[Stakeholder.INDEPENDENT_PROVER] == (I, Y, N)
        differing = [s for s in Stakeholder if a[s] != b[s]]
        assert differing == [Stakeholder.INDEPENDENT_PROVER]


class TestAssignField:
    def test_anchor_triples(self):
        assert assign_field(False, True, True) is EraField.BENEFIT_AND_DECISION
        assert assign_field(True, False, False) is EraField.EXPOSURE_ONLY
        assert assign_field(False, True, False) is EraField.BENEFIT_ONLY
        assert assign_field(True, True, False) is EraField.EXPOSURE_AND_BENEFIT

    def test_every_nonempty_triple_has_a_field(self):
        fields = {
            assign_field(*t) for t in itertools.product([False, True], repeat=3) if any(t)
        }
        assert fields == set(EraField)

    def test_all_false_is_outside_the_diagram(self):
        with pytest.raises(OutsideDiagramError):
            assign_field(False, False, False)

    def test_field_of_uses_default_threshold(self):
        assert field_of(RoleAssignment(I, Y, Y)) is EraField.BENEFIT_AND_DECISION
        assert field_of(RoleAssignment(Y, L, N)) is EraField.EXPOSURE_ONLY


class TestThresholdEnv:
    def test_default_is_yes(self, monkeypatch):
        monkeypatch.delenv("ERA_STRICT_ROLES", raising=False)
        assert role_threshold() is RoleFlag.YES

    def test_strict_is_indirect(self, monkeypatch):
        monkeypatch.setenv("ERA_STRICT_ROLES", "1")
        assert role_threshold() is RoleFlag.INDIRECT

    def test_invalid_value_rejected(self, monkeypatch):
        monkeypatch.setenv("ERA_STRICT_ROLES", "yes")
        with pytest.raises(ValueError):
            role_threshold()

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("ERA_STRICT_ROLES", "1")
        assert role_threshold(RoleFlag.YES) is RoleFlag.YES

    def test_strict_mode_dissolves_field_two(self, monkeypatch):
        monkeypatch.setenv("ERA_STRICT_ROLES", "1")
        groups = populated_fields(BASELINE_ROLES)
        assert EraField.BENEFIT_AND_DECISION not in groups
        assert Stakeholder.GOVERNANCE_GROUP in groups[EraField.FULL_OVERLAP]
        assert groups[EraField.EXPOSURE_ONLY] == frozenset(
            {Stakeholder.INDEPENDENT_VALIDATOR_WATCHER}
        )


class TestPopulatedFields:
    def test_default_matrix_grouping(self, monkeypatch):
        monkeypatch.delenv("ERA_STRICT_ROLES", raising=False)
        groups = populated_fields(classify_roles(RollupConfig.centralized_default()))
        assert groups[EraField.BENEFIT_ONLY] == frozenset({Stakeholder.INDEPENDENT_PROVER})
        assert groups[EraField.BENEFIT_AND_DECISION] == frozenset(
            {
                Stakeholder.ROLLUP_OPERATOR,
                Stakeholder.SEQUENCER,
                Stakeholder.GOVERNANCE_GROUP,
                Stakeholder.RAAS_PROVIDER,
            }
        )
        assert groups[EraField.DECISION_ONLY] == frozenset({Stakeholder.CORE_DEVELOPER})
        assert groups[EraField.EXPOSURE_AND_BENEFIT] == frozenset(
            {Stakeholder.END_USER, Stakeholder.APP_DEVELOPER_AS_USER}
        )
        assert groups[EraField.EXPOSURE_ONLY] == frozenset(
            {Stakeholder.INDEPENDENT_VALIDATOR_WATCHER}
        )
        # L1 developers binarize to all-false and sit outside the diagram.
        placed = frozenset().union(*groups.values())
        assert Stakeholder.L1_DEVELOPER not in placed


class TestDetectProblematic:
    @pytest.fixture()
    def default_findings(self, monkeypatch):
        monkeypatch.delenv("ERA_STRICT_ROLES", raising=False)
        cfg = RollupConfig.centralized_default()
        return detect_problematic(classify_roles(cfg), cfg)

    def test_emits_field_two_and_field_seven(self, default_findings):
        by_field = {f.field: f for f in default_findings}
        field2 = by_field[EraField.BENEFIT_AND_DECISION]
        assert not field2.informational
        assert {Stakeholder.GOVERNANCE_GROUP, Stakeholder.RAAS_PROVIDER} <= field2.stakeholders
        field7 = by_field[EraField.EXPOSURE_ONLY]
        assert not field7.informational
        assert field7.stakeholders == frozenset({Stakeholder.INDEPENDENT_VALIDATOR_WATCHER})

    def test_field_four_escalates_without_fallbacks(self, default_findings):
        field4 = next(f for f in default_findings if f.field is EraField.EXPOSURE_AND_BENEFIT)
        assert field4.narrative_key == "exposed-users-without-fallback"
        assert not field4.informational
        assert Principle.NON_MALEFICENCE in field4.principle_tags

    def test_field_four_stays_informational_with_fallbacks(self, monkeypatch):
        monkeypatch.delenv("ERA_STRICT_ROLES", raising=False)
        base = RollupConfig.centralized_default()
        cfg = RollupConfig(
            proof_system=base.proof_system,
            sequencer=base.sequencer,
            proposer=base.proposer,
            forced_inclusion=ForcedInclusionConfig(enabled=True, timeout=86400, usable=True),
            escape_hatch=EscapeHatchConfig(enabled=True, non_disableable=True),
            da=base.da,
            upgrade=base.upgrade,
            prover_set=base.prover_set,
        )
        findings = detect_problematic(classify_roles(cfg), cfg)
        field4 = next(f for f in findings if f.field is EraField.EXPOSURE_AND_BENEFIT)
        assert field4.narrative_key == "exposure-and-benefit-without-decision"
        assert field4.informational

    def test_fields_three_five_six_are_informational_only(self, monkeypatch):
        monkeypatch.delenv("ERA_STRICT_ROLES", raising=False)
        cfg = RollupConfig.centralized_default()
        for threshold in (RoleFlag.YES, RoleFlag.INDIRECT):
            for f in detect_problematic(classify_roles(cfg), cfg, threshold):
                if f.field in (EraField.DECISION_ONLY, EraField.FULL_OVERLAP, EraField.EXPOSURE_AND_DECISION):
                    assert f.informational

    def test_findings_sorted_by_field(self, default_findings):
        fields = [int(f.field) for f in default_findings]
        assert fields == sorted(fields)

    def test_finding_validation(self):
        with pytest.raises(ValueError, match="at least one stakeholder"):
            Finding("exposure-without-benefit-or-decision", frozenset())
        with pytest.raises(ValueError, match="unknown narrative key"):
            Finding("exposure-only", frozenset({Stakeholder.END_USER}))
        finding = Finding("exposed-users-without-fallback", frozenset({Stakeholder.END_USER}))
        n = NARRATIVES["exposed-users-without-fallback"]
        assert (finding.field, finding.severity, finding.principle_tags) == (
            n.field,
            n.severity,
            n.principles,
        )
        assert (finding.informational, finding.narrative) == (n.informational, n.text)

    def test_every_narrative_maps_to_its_field(self):
        assert {n.field for n in NARRATIVES.values()} == set(EraField)


@pytest.fixture(scope="module")
def paper_inputs():
    records = parse_incidents(fixture_path(INCIDENTS_CSV)).records
    profiles = extract_projects(load_snapshot(fixture_path(SNAPSHOT_JSON))).profiles
    return aggregate_prevalence(profiles), distribution(records)


@pytest.fixture(scope="module")
def default_findings_nostrict():
    cfg = RollupConfig.centralized_default()
    return detect_problematic(classify_roles(cfg), cfg, RoleFlag.YES)


class TestPrioritize:
    def test_fixture_inputs_fill_both_buckets(self, paper_inputs, default_findings_nostrict):
        prevalence, dist = paper_inputs
        result = prioritize(default_findings_nostrict, prevalence, dist)
        assert result.immediate_operational[0] == "strengthen-sequencer-liveness"
        assert result.immediate_operational == (
            "strengthen-sequencer-liveness",
            "open-proposer-and-proof-submission",
            "public-tested-fallbacks",
        )
        assert result.structural_governance == (
            "timelocked-upgrades-exit-windows",
            "mandatory-l1-state-validation",
            "reduce-external-da-reliance",
        )
        assert "59.4" in result.rationale["strengthen-sequencer-liveness"]
        assert "86.0" in result.rationale["timelocked-upgrades-exit-windows"]

    def test_zero_incidents_keep_structural_bucket(self, paper_inputs, default_findings_nostrict):
        prevalence, _ = paper_inputs
        empty = distribution(())
        result = prioritize(default_findings_nostrict, prevalence, empty)
        assert result.immediate_operational == ()
        assert result.structural_governance == (
            "timelocked-upgrades-exit-windows",
            "mandatory-l1-state-validation",
            "reduce-external-da-reliance",
        )

    def test_exploit_only_incidents_with_quiet_prevalence(self, default_findings_nostrict):
        quiet = PrevalenceTable(
            total_projects=10,
            flagged={d: 1 for d in RiskDimension},
            shares={d: 10.0 for d in RiskDimension},
        )
        text = "name,date,link,incident_type\n" + "".join(
            f"Chain {i},2024-02-0{i + 1},https://example.com/{i},Exploit or security issue with user risk\n"
            for i in range(3)
        )
        exploits = distribution(parse_incidents("<mem>", text=text).records)
        result = prioritize(default_findings_nostrict, quiet, exploits)
        assert result.immediate_operational == ("public-tested-fallbacks",)
        assert result.structural_governance == ("mandatory-l1-state-validation",)

    def test_finding_order_never_changes_output(self, paper_inputs, default_findings_nostrict):
        prevalence, dist = paper_inputs
        forward = prioritize(default_findings_nostrict, prevalence, dist)
        backward = prioritize(tuple(reversed(default_findings_nostrict)), prevalence, dist)
        assert forward == backward

    def test_buckets_are_disjoint_and_threshold_is_strict(self, paper_inputs):
        _, dist = paper_inputs
        shares = {
            RiskDimension.EXIT_WINDOW: 20.0,
            RiskDimension.STATE_VALIDATION: 20.1,
            RiskDimension.DATA_AVAILABILITY: 0.0,
            RiskDimension.PROPOSER_FAILURE: 90.0,
            RiskDimension.SEQUENCER_FAILURE: 90.0,
        }
        prevalence = PrevalenceTable(1000, {d: int(s * 10) for d, s in shares.items()}, shares)
        result = prioritize((), prevalence, dist)
        assert set(result.immediate_operational).isdisjoint(result.structural_governance)
        # exactly DEFAULT_PREVALENCE_THRESHOLD (20.0) is not above it
        assert result.structural_governance == ("mandatory-l1-state-validation",)
        assert result.rationale["mandatory-l1-state-validation"] == (
            "20.1% of analyzed projects carry the state-validation hazard"
        )

    def test_tied_top_buckets_each_pick_their_row(self):
        counts = {
            CompressedIncidentType.SEQUENCER_DISRUPTION: 1,
            CompressedIncidentType.BRIDGE_OR_WITHDRAWAL: 2,
            CompressedIncidentType.EXPLOIT_OR_SECURITY: 2,
            CompressedIncidentType.CENSORSHIP_OR_FORCED_INCLUSION: 0,
        }
        shares = {t: 100 * c / 5 for t, c in counts.items()}
        result = prioritize((), None, IncidentDistribution(5, counts, shares, 0, 0, None))
        assert result.immediate_operational == (
            "open-proposer-and-proof-submission",
            "public-tested-fallbacks",
        )
        assert result.structural_governance == ("mandatory-l1-state-validation",)
        # a mitigation both rows pick keeps the first driver's reason
        assert result.to_dict()["rationale"] == {
            "mandatory-l1-state-validation": "exploit-or-security leads the incident distribution at 40.0%",
            "open-proposer-and-proof-submission": "bridge-or-withdrawal leads the incident distribution at 40.0%",
            "public-tested-fallbacks": "bridge-or-withdrawal leads the incident distribution at 40.0%",
        }

    def test_no_inputs_no_output(self):
        result = prioritize((), None, None)
        assert result.immediate_operational == ()
        assert result.structural_governance == ()
