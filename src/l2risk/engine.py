"""Stakeholder analysis engine: who bears risk, who benefits, who decides.

Builds a per-deployment role matrix from a baseline landscape assessment,
places each stakeholder into one of seven overlap fields, raises findings for
the structurally problematic fields, and turns measured prevalence and
incident pressure into a two-bucket mitigation prioritization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .incidents import IncidentDistribution
from .model import (
    CompressedIncidentType,
    EraField,
    FIELD_TABLE,
    RiskDimension,
    RoleAssignment,
    RoleFlag,
    RoleMatrix,
    RollupConfig,
    SequencerTopology,
    Stakeholder,
    UpgradePolicy,
    _LabeledEnum,
)
from .snapshot import PrevalenceTable

STRICT_ROLES_ENV = "ERA_STRICT_ROLES"


class Severity(_LabeledEnum):
    STRUCTURAL = "structural"
    OPERATIONAL = "operational"


class Principle(_LabeledEnum):
    BENEFICENCE = "beneficence"
    NON_MALEFICENCE = "non-maleficence"
    INTEGRITY = "integrity"
    JUSTICE_FAIRNESS = "justice-fairness"
    ACCOUNTABILITY = "accountability"
    COMPETENCE = "competence"


def role_threshold(explicit: RoleFlag | None = None) -> RoleFlag:
    """Binarization threshold: explicit argument wins, else the
    ERA_STRICT_ROLES environment variable (1 widens exposure to indirect
    claims, 0 or unset keeps the default of counting only outright yes)."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(STRICT_ROLES_ENV, "0")
    if raw not in ("0", "1"):
        raise ValueError(f"{STRICT_ROLES_ENV} must be 0 or 1, got {raw!r}")
    return RoleFlag.INDIRECT if raw == "1" else RoleFlag.YES


_Y, _I, _L, _N = RoleFlag.YES, RoleFlag.INDIRECT, RoleFlag.LIMITED, RoleFlag.NO

# Landscape baseline: (risk_exposed, beneficiary, decision_maker) per
# stakeholder for a conventional centrally operated rollup.
BASELINE_ROLES = RoleMatrix(
    {
        Stakeholder.END_USER: RoleAssignment(_Y, _Y, _N),
        Stakeholder.APP_DEVELOPER_AS_USER: RoleAssignment(_Y, _Y, _N),
        Stakeholder.INDEPENDENT_VALIDATOR_WATCHER: RoleAssignment(_Y, _L, _N),
        Stakeholder.ROLLUP_OPERATOR: RoleAssignment(_I, _Y, _Y),
        Stakeholder.SEQUENCER: RoleAssignment(_I, _Y, _Y),
        Stakeholder.GOVERNANCE_GROUP: RoleAssignment(_I, _Y, _Y),
        Stakeholder.RAAS_PROVIDER: RoleAssignment(_I, _Y, _Y),
        Stakeholder.CORE_DEVELOPER: RoleAssignment(_I, _I, _Y),
        Stakeholder.L1_DEVELOPER: RoleAssignment(_N, _N, _I),
        Stakeholder.INDEPENDENT_PROVER: RoleAssignment(_I, _Y, _N),
    }
)

_ABSENT = RoleAssignment(_N, _N, _N)


def _hatch_is_exit_path(config: RollupConfig) -> bool:
    return config.escape_hatch.enabled and config.escape_hatch.non_disableable


def classify_roles(config: RollupConfig) -> RoleMatrix:
    """Adjust the baseline role matrix to one deployment's architecture.

    Three switches move cells: a permissionless sequencer set dilutes the
    sequencer's decision power to indirect; a timelocked upgrade policy gives
    end users indirect decision exposure only when an exit path exists (an
    escape hatch that is enabled and non-disableable); and the
    independent-prover row only exists when the proving set extends past the
    operator (zk with count > 1).
    """
    rows = dict(BASELINE_ROLES.rows)
    if config.sequencer.topology is SequencerTopology.PERMISSIONLESS:
        old = rows[Stakeholder.SEQUENCER]
        rows[Stakeholder.SEQUENCER] = RoleAssignment(old.risk_exposed, old.beneficiary, _I)
    if config.upgrade.policy is UpgradePolicy.TIMELOCKED and _hatch_is_exit_path(config):
        old = rows[Stakeholder.END_USER]
        rows[Stakeholder.END_USER] = RoleAssignment(old.risk_exposed, old.beneficiary, _I)
    if not config.has_independent_provers():
        rows[Stakeholder.INDEPENDENT_PROVER] = _ABSENT
    return RoleMatrix(rows)


class OutsideDiagramError(ValueError):
    """All three binarized roles are false; the stakeholder has no field."""


def assign_field(risk_exposed: bool, beneficiary: bool, decision_maker: bool) -> EraField:
    """Map binarized roles to one of the seven overlap fields."""
    flags = (risk_exposed, beneficiary, decision_maker)
    if not any(flags):
        raise OutsideDiagramError("all roles false: outside the overlap diagram")
    return FIELD_TABLE[flags]


def populated_fields(
    matrix: RoleMatrix, threshold: RoleFlag | None = None
) -> Mapping[EraField, frozenset[Stakeholder]]:
    """Group stakeholders by field, dropping rows outside the diagram."""
    thr = role_threshold(threshold)
    groups: dict[EraField, set[Stakeholder]] = {}
    for stakeholder, assignment in matrix.rows.items():
        flags = assignment.binarized(thr)
        if not any(flags):
            continue
        groups.setdefault(FIELD_TABLE[flags], set()).add(stakeholder)
    return {f: frozenset(groups[f]) for f in sorted(groups)}


@dataclass(frozen=True)
class _Narrative:
    field: EraField
    severity: Severity
    principles: frozenset[Principle]
    informational: bool
    text: str


NARRATIVES: Mapping[str, _Narrative] = MappingProxyType(
    {
        "benefit-without-exposure-or-decision": _Narrative(
            EraField.BENEFIT_ONLY,
            Severity.STRUCTURAL,
            frozenset({Principle.JUSTICE_FAIRNESS}),
            True,
            "These parties draw benefit from the system without carrying its risks "
            "or steering it; the asymmetry is a fairness question rather than an "
            "immediate hazard.",
        ),
        "benefit-and-decision-without-exposure": _Narrative(
            EraField.BENEFIT_AND_DECISION,
            Severity.STRUCTURAL,
            frozenset({Principle.JUSTICE_FAIRNESS, Principle.ACCOUNTABILITY}),
            False,
            "These parties collect the upside and steer the system while bearing "
            "little of the direct downside, which skews incentives and weakens "
            "accountability to the people actually at risk.",
        ),
        "decision-without-exposure-or-benefit": _Narrative(
            EraField.DECISION_ONLY,
            Severity.STRUCTURAL,
            frozenset({Principle.ACCOUNTABILITY, Principle.COMPETENCE}),
            True,
            "These parties shape the system without bearing its risks or drawing "
            "its benefits; what holds them to account is process and competence, "
            "not skin in the game.",
        ),
        "exposure-and-benefit-without-decision": _Narrative(
            EraField.EXPOSURE_AND_BENEFIT,
            Severity.OPERATIONAL,
            frozenset({Principle.JUSTICE_FAIRNESS}),
            True,
            "These parties accept risk in exchange for benefit but hold no "
            "decision power; their position rests on fallbacks working when "
            "operators fail.",
        ),
        "exposed-users-without-fallback": _Narrative(
            EraField.EXPOSURE_AND_BENEFIT,
            Severity.OPERATIONAL,
            frozenset({Principle.NON_MALEFICENCE, Principle.JUSTICE_FAIRNESS}),
            False,
            "These parties accept risk for benefit and hold no decision power, "
            "and this deployment gives them neither an escape hatch nor a usable "
            "forced-inclusion path; in practice their exposure is unilateral.",
        ),
        "full-overlap": _Narrative(
            EraField.FULL_OVERLAP,
            Severity.OPERATIONAL,
            frozenset({Principle.BENEFICENCE}),
            True,
            "These parties risk, benefit, and decide at once; incentives align, "
            "though concentrating all three in one place warrants scrutiny.",
        ),
        "exposure-and-decision-without-benefit": _Narrative(
            EraField.EXPOSURE_AND_DECISION,
            Severity.OPERATIONAL,
            frozenset({Principle.NON_MALEFICENCE, Principle.COMPETENCE}),
            True,
            "These parties carry risk and decision power without corresponding "
            "benefit, which strains sustained care and competence.",
        ),
        "exposure-without-benefit-or-decision": _Narrative(
            EraField.EXPOSURE_ONLY,
            Severity.OPERATIONAL,
            frozenset({Principle.NON_MALEFICENCE}),
            False,
            "These parties carry risk they can neither offset with benefit nor "
            "influence through decisions; harm lands on them without recourse.",
        ),
    }
)


@dataclass(frozen=True)
class Finding:
    """One populated overlap field and the stakeholders sitting in it; the
    field, severity, principles and text all come from its narrative."""

    narrative_key: str
    stakeholders: frozenset[Stakeholder]

    def __post_init__(self) -> None:
        if self.narrative_key not in NARRATIVES:
            raise ValueError(f"unknown narrative key {self.narrative_key!r}")
        if not self.stakeholders:
            raise ValueError("findings need at least one stakeholder")

    field = property(lambda self: NARRATIVES[self.narrative_key].field)
    severity = property(lambda self: NARRATIVES[self.narrative_key].severity)
    principle_tags = property(lambda self: NARRATIVES[self.narrative_key].principles)
    informational = property(lambda self: NARRATIVES[self.narrative_key].informational)
    narrative = property(lambda self: NARRATIVES[self.narrative_key].text)

    def to_dict(self) -> dict:
        return {
            "field": int(self.field),
            "stakeholders": sorted(s.value for s in self.stakeholders),
            "severity": self.severity.value,
            "principles": sorted(p.value for p in self.principle_tags),
            "narrative_key": self.narrative_key,
            "informational": self.informational,
            "narrative": self.narrative,
        }


_NO_FALLBACK = "exposed-users-without-fallback"


def detect_problematic(
    matrix: RoleMatrix, config: RollupConfig, threshold: RoleFlag | None = None
) -> tuple[Finding, ...]:
    """Emit one finding per populated field, in field order.

    Each field takes its one narrative, except that field 4 escalates from
    informational to problematic when the deployment offers neither an escape
    hatch the operator cannot switch off nor usable forced inclusion, since
    exposed users then have no practical exit of their own.
    """
    keys = {n.field: key for key, n in NARRATIVES.items() if key != _NO_FALLBACK}
    if not (_hatch_is_exit_path(config) or config.forced_inclusion.usable):
        keys[EraField.EXPOSURE_AND_BENEFIT] = _NO_FALLBACK
    return tuple(
        Finding(keys[field], members)
        for field, members in populated_fields(matrix, threshold).items()
    )


# ---------------------------------------------------------------------------
# Mitigation prioritization

_IMMEDIATE, _STRUCTURAL = "immediate", "structural"
_B, _D = CompressedIncidentType, RiskDimension

# One row per mitigation, in canonical order: (id, bucket, label, incident
# buckets whose lead argues for it, latent dimension whose prevalence argues
# for it or None). Rows rather than dicts keyed by enum members, so that no
# enum hash is fixed at import.
MITIGATIONS: tuple[tuple[str, str, str, tuple[_B, ...], _D | None], ...] = (
    ("strengthen-sequencer-liveness", _IMMEDIATE,
     "Strengthen sequencer liveness protections and inclusion paths",
     (_B.SEQUENCER_DISRUPTION, _B.CENSORSHIP_OR_FORCED_INCLUSION), None),
    ("open-proposer-and-proof-submission", _IMMEDIATE,
     "Open proposer and proof submission beyond a fixed whitelist",
     (_B.SEQUENCER_DISRUPTION, _B.BRIDGE_OR_WITHDRAWAL), None),
    ("public-tested-fallbacks", _IMMEDIATE,
     "Make emergency procedures and fallbacks public and regularly tested",
     tuple(_B), None),
    ("timelocked-upgrades-exit-windows", _STRUCTURAL,
     "Timelock upgrades and guarantee exit windows backed by escape hatches",
     (), _D.EXIT_WINDOW),
    ("mandatory-l1-state-validation", _STRUCTURAL,
     "Make L1 state validation mandatory with published proof specifications",
     (_B.EXPLOIT_OR_SECURITY,), _D.STATE_VALIDATION),
    ("reduce-external-da-reliance", _STRUCTURAL,
     "Reduce reliance on offchain data availability for state reconstruction",
     (), _D.DATA_AVAILABILITY),
)
IMMEDIATE_MITIGATIONS = tuple(m for m, bucket, *_ in MITIGATIONS if bucket == _IMMEDIATE)
STRUCTURAL_MITIGATIONS = tuple(m for m, bucket, *_ in MITIGATIONS if bucket == _STRUCTURAL)
MITIGATION_LABELS: Mapping[str, str] = MappingProxyType({m: label for m, _, label, *_ in MITIGATIONS})

DEFAULT_PREVALENCE_THRESHOLD = 20.0


@dataclass(frozen=True)
class Prioritization:
    """The picked mitigations' one-line rationales keyed by id, in the order
    picked; each bucket lists its picked ids in table order."""

    rationale: Mapping[str, str]

    immediate_operational = property(
        lambda self: tuple(m for m in IMMEDIATE_MITIGATIONS if m in self.rationale)
    )
    structural_governance = property(
        lambda self: tuple(m for m in STRUCTURAL_MITIGATIONS if m in self.rationale)
    )

    def to_dict(self) -> dict:
        return {
            "immediate_operational": list(self.immediate_operational),
            "structural_governance": list(self.structural_governance),
            "rationale": {k: self.rationale[k] for k in sorted(self.rationale)},
        }


def prioritize(
    findings: Iterable[Finding],
    prevalence: PrevalenceTable | None,
    dist: IncidentDistribution | None,
) -> Prioritization:
    """Sort mitigations into an immediate-operational bucket driven by where
    incidents concentrate and a structural-governance bucket driven by how
    widespread the latent hazards are.

    Every incident bucket tied for the most incidents picks each row of
    ``MITIGATIONS`` that lists it; a dominant exploit bucket thereby also
    argues for mandatory state validation. Each latent hazard above
    ``DEFAULT_PREVALENCE_THRESHOLD`` percent of projects picks its row's
    mitigation, even with zero realized incidents. Findings annotate the
    rationales but cannot change what is picked, so input order never matters.
    """
    rationale: dict[str, str] = {}  # every picked mitigation, in the order picked
    if dist is not None and dist.total > 0:
        top = max(dist.counts.values())
        for driver in CompressedIncidentType:
            if dist.counts[driver] == top:
                reason = f"{driver.value} leads the incident distribution at {dist.shares[driver]:.1f}%"
                for m, _, _, drivers, _ in MITIGATIONS:
                    if driver in drivers:
                        rationale.setdefault(m, reason)

    if prevalence is not None and prevalence.total_projects > 0:
        for m, _, _, _, dim in MITIGATIONS:
            share = None if dim is None else prevalence.shares[dim]
            if share is not None and share > DEFAULT_PREVALENCE_THRESHOLD:
                reason = f"{share:.1f}% of analyzed projects carry the {dim.value} hazard"
                rationale[m] = f"{rationale[m]}; {reason}" if m in rationale else reason

    problem_fields = sorted({int(f.field) for f in findings if not f.informational})
    if problem_fields:
        for m in rationale:
            rationale[m] += f" (deployment findings flag fields {problem_fields})"

    return Prioritization(MappingProxyType(rationale))
