"""Cross-validation notes and full analyst reports.

A report ties the three evidence streams together: structural hazard
prevalence from a snapshot, the historical incident distribution, and
simulated harm runs. The cross-validation notes connect the first two,
pointing out where structure and operational history agree, disagree, or
where structure carries hazards that leave no incident trail at all.

Reports are reproducible: metadata carries a sha256 digest of every input
file, taken from the same bytes that were parsed, and a content digest over
the whole document (minus the generation timestamp), so regenerating from
identical inputs yields an identical digest.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from l2risk import __version__
from l2risk.engine import (
    MITIGATION_LABELS,
    Finding,
    Prioritization,
    classify_roles,
    detect_problematic,
    prioritize,
    role_threshold,
)
from l2risk.incidents import (
    IncidentDistribution,
    distribution,
    parse_incidents,
    render_distribution_text,
)
from l2risk.model import (
    CompressedIncidentType,
    RiskDimension,
    RoleFlag,
    RollupConfig,
    decode_file,
)
from l2risk.sim import ScenarioError, SimResult, load_scenario, read_scenario, simulate
from l2risk.snapshot import (
    FlagRuleset,
    PrevalenceTable,
    aggregate_prevalence,
    extract_projects,
    load_snapshot,
    render_prevalence_text,
)


@dataclass(frozen=True)
class CrossNote:
    """One observation linking structural prevalence to incident history."""

    key: str
    text: str
    dimensions: tuple[RiskDimension, ...]
    incident_types: tuple[CompressedIncidentType, ...]

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "text": self.text,
            "dimensions": [d.value for d in self.dimensions],
            "incident_types": [t.value for t in self.incident_types],
        }


def _pct(value: float | None) -> str:
    return "undefined" if value is None else f"{value}%"


_D, _T = RiskDimension, CompressedIncidentType

# One row per note: key, linked dimensions, linked incident types, and a text
# that quotes exactly the shares of those links, each under its slug.
_NOTES = (
    (
        "sequencer-liveness-gap",
        (_D.SEQUENCER_FAILURE,),
        (_T.SEQUENCER_DISRUPTION,),
        "Sequencer disruptions account for {sequencer-disruption} of classified incidents, "
        "yet only {sequencer-failure} of projects are flagged for sequencer-failure risk. "
        "Listed liveness mechanisms are often nominal rather than usable, so structural "
        "listings and operational history must be read together.",
    ),
    (
        "proposer-withdrawal-linkage",
        (_D.PROPOSER_FAILURE,),
        (_T.BRIDGE_OR_WITHDRAWAL,),
        "{proposer-failure} of projects cannot progress withdrawals if their whitelisted "
        "proposers stall, and bridge or withdrawal incidents make up {bridge-or-withdrawal} "
        "of the record; the structural dependency has a visible operational footprint.",
    ),
    (
        "exit-window-latent",
        (_D.EXIT_WINDOW,),
        (),
        "{exit-window} of projects give users no window to exit before upgrades take effect. "
        "No incident class maps to this hazard: it stays latent until a contentious upgrade "
        "or shutdown forces exits, so its absence from the incident record is not evidence "
        "of safety.",
    ),
    (
        "unobservable-validation-da",
        (_D.STATE_VALIDATION, _D.DATA_AVAILABILITY),
        (),
        "Unenforced state validation ({state-validation} of projects) and offchain data "
        "dependence ({data-availability}) fail quietly: an accepted invalid root or withheld "
        "data produces no public outage until funds move. Incident feeds systematically "
        "under-report these hazards.",
    ),
)


def cross_validate(
    prevalence: PrevalenceTable, dist: IncidentDistribution
) -> tuple[CrossNote, ...]:
    """Line the prevalence table up against the incident distribution.

    Notes fire on the evidence that supports them, in table order: a note
    linked to incident types needs a recorded incident of one of them, while
    a latent-hazard note (no incident types) needs one of its linked shares
    above 0 and survives an empty incident record.
    """
    notes = []
    for key, dims, types, template in _NOTES:
        if types:
            fires = any(dist.counts[t] > 0 for t in types)
        else:
            fires = any((prevalence.shares[d] or 0) > 0 for d in dims)
        if fires:
            shares = {d.value: _pct(prevalence.shares[d]) for d in dims}
            shares.update((t.value, _pct(dist.shares[t])) for t in types)
            notes.append(CrossNote(key, template.format_map(shares), dims, types))
    return tuple(notes)


@dataclass(frozen=True)
class ReportBundle:
    """A fully assembled report plus the typed pieces it was built from."""

    report: dict
    prevalence: PrevalenceTable
    distribution: IncidentDistribution
    notes: tuple[CrossNote, ...]
    findings: tuple[Finding, ...]
    prioritization: Prioritization
    simulations: tuple[SimResult, ...]


def _input(path: str | Path, data: bytes, error: type[ValueError] = ValueError) -> tuple[dict, str]:
    """An input's metadata entry and its text, both from the one read; bytes
    that are not UTF-8 raise ``error`` naming the file."""
    meta = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return meta, decode_file(path, data, error)


def content_digest(report: dict) -> str:
    """Digest of the report content, ignoring generation time and itself."""
    trimmed = dict(report)
    if "metadata" in trimmed:
        meta = trimmed["metadata"] = dict(trimmed["metadata"])
        meta.pop("generated_at", None)
        meta.pop("content_digest", None)
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_report(
    *,
    snapshot_path: str | Path,
    incidents_path: str | Path,
    ruleset_path: str | Path | None = None,
    scenario_paths: Sequence[str | Path] = (),
    adapter: str = "auto",
    seed: int = 0,
    generated_at: str | None = None,
) -> ReportBundle:
    """Run the whole pipeline over the given inputs and assemble a report.
    Each input file is read once; its recorded sha256 covers the bytes
    that were parsed."""
    if type(seed) is not int:  # the report writes it as JSON, where true is not 1
        raise ValueError(f"seed must be an integer, not {seed!r}")
    snapshot_path = Path(snapshot_path)
    incidents_path = Path(incidents_path)

    ruleset = None
    if ruleset_path:
        ruleset_input, text = _input(ruleset_path, Path(ruleset_path).read_bytes())
        ruleset = FlagRuleset.from_file(ruleset_path, text=text)
    snapshot_input, text = _input(snapshot_path, snapshot_path.read_bytes())
    extract = extract_projects(
        load_snapshot(snapshot_path, text=text), ruleset=ruleset, adapter=adapter
    )
    prevalence = aggregate_prevalence(extract.profiles)

    incidents_input, text = _input(incidents_path, incidents_path.read_bytes())
    parsed = parse_incidents(incidents_path, text=text)
    dist = distribution(parsed.records)

    notes = cross_validate(prevalence, dist)

    cfg = RollupConfig.centralized_default()
    thr = role_threshold()
    findings = detect_problematic(classify_roles(cfg), cfg, thr)
    priorities = prioritize(findings, prevalence, dist)

    simulations = []
    scenario_inputs = []
    for sp in scenario_paths:
        scenario_input, text = _input(Path(sp), read_scenario(sp), ScenarioError)
        scenario_inputs.append(scenario_input)
        simulations.append(simulate(load_scenario(sp, text=text), seed=seed))

    inputs: dict = {"snapshot": snapshot_input, "incidents": incidents_input}
    if ruleset_path:
        inputs["ruleset"] = ruleset_input
    if scenario_paths:
        inputs["scenarios"] = scenario_inputs

    stamp = generated_at or dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds")

    report = {
        "metadata": {
            "tool_version": __version__,
            "generated_at": stamp,
            "strict_roles": thr is RoleFlag.INDIRECT,
            "seed": seed,
            "inputs": inputs,
        },
        "prevalence": prevalence.to_dict(extract.warnings),
        "incidents": dist.to_dict(parsed.warnings),
        "cross_validation": [n.to_dict() for n in notes],
        "findings": [f.to_dict() for f in findings],
        "prioritization": priorities.to_dict(),
        "simulations": [s.summary() for s in simulations],
    }
    report["metadata"]["content_digest"] = content_digest(report)
    return ReportBundle(
        report=report,
        prevalence=prevalence,
        distribution=dist,
        notes=notes,
        findings=findings,
        prioritization=priorities,
        simulations=tuple(simulations),
    )


def _bullets(items: Iterable[str], labels: Mapping[str, str]) -> list[str]:
    return [f"  - {labels.get(item, item)}" for item in items]


def render_report_text(bundle: ReportBundle) -> str:
    """Human-readable rendering of an assembled report."""
    meta = bundle.report["metadata"]
    lines = [
        f"Rollup risk report (tool {meta['tool_version']})",
        f"Generated: {meta['generated_at']}   strict roles: {meta['strict_roles']}",
        f"Content digest: {meta['content_digest']}",
        "",
        render_prevalence_text(bundle.prevalence),
        "",
        render_distribution_text(bundle.distribution),
        "",
        "Cross-validation",
    ]
    for note in bundle.notes:
        lines.append(f"  [{note.key}] {note.text}")
    lines.append("")
    lines.append("Findings (reference deployment)")
    for f in bundle.findings:
        marker = "note" if f.informational else "PROBLEM"
        who = ", ".join(sorted(s.value for s in f.stakeholders))
        lines.append(f"  [{marker}] field {int(f.field)} ({who}): {f.narrative}")
    lines.append("")
    lines.append("Prioritized mitigations")
    lines.append("  Immediate / operational:")
    lines.extend(
        _bullets(bundle.prioritization.immediate_operational, MITIGATION_LABELS)
        or ["  - none indicated by the incident record"]
    )
    lines.append("  Structural / governance:")
    lines.extend(
        _bullets(bundle.prioritization.structural_governance, MITIGATION_LABELS)
        or ["  - none indicated by the prevalence table"]
    )
    if bundle.simulations:
        lines.append("")
        lines.append("Simulations")
        for s in bundle.simulations:
            m = s.metrics
            lines.append(
                f"  {s.scenario}: censorship {m.censorship_window}s, frozen "
                f"{m.frozen_funds_duration}s, conserved {m.funds_conserved}, "
                f"exit coverage {m.exit_coverage_before_upgrade}"
            )
    return "\n".join(lines)
