"""Command-line interface.

Subcommands mirror the analysis pipeline:

  ingest-snapshot    risk snapshot JSON -> hazard prevalence table
  ingest-incidents   incident CSV/TSV -> classified incident distribution
  cross-validate     prevalence + distribution JSON -> linkage notes
  simulate           scenario JSON -> trace.ndjson + metrics.json
  report             all inputs -> one reproducible report

Exit codes: 0 success, 2 malformed input, 3 unrecognized snapshot layout
(a schema report goes to stderr), 4 invalid scenario. The ERA_STRICT_ROLES
environment variable ({0,1}) selects the role-binarization threshold used
for findings in the report subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from l2risk import __version__
from l2risk.incidents import (
    IncidentDistribution,
    distribution,
    parse_incidents,
    render_distribution_text,
)
from l2risk.model import load_json
from l2risk.report import build_report, cross_validate, render_report_text
from l2risk.sim import ScenarioError, load_scenario, simulate
from l2risk.snapshot import (
    ADAPTERS,
    FlagRuleset,
    PrevalenceTable,
    SchemaMismatchError,
    aggregate_prevalence,
    extract_projects,
    load_snapshot,
    render_prevalence_text,
    render_schema_text,
)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2)


def _write(text: str, out: str | None) -> None:
    if out:
        if not text.endswith("\n"):
            text += "\n"
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text)


def _print_warnings(warnings) -> None:
    for warning in warnings:
        print(warning, file=sys.stderr)


def _cmd_ingest_snapshot(args: argparse.Namespace) -> int:
    doc = load_snapshot(args.snapshot)
    ruleset = FlagRuleset.from_file(args.ruleset) if args.ruleset else None
    result = extract_projects(doc, ruleset=ruleset, adapter=args.adapter)
    _print_warnings(result.warnings)
    table = aggregate_prevalence(result.profiles)
    if args.format == "json":
        _write(_json_text(table.to_dict(result.warnings)), args.out)
    else:
        _write(render_prevalence_text(table), args.out)
    return 0


def _cmd_ingest_incidents(args: argparse.Namespace) -> int:
    parsed = parse_incidents(args.incidents)
    _print_warnings(parsed.warnings)
    dist = distribution(parsed.records)
    if args.format == "json":
        _write(_json_text(dist.to_dict(parsed.warnings)), args.out)
    else:
        _write(render_distribution_text(dist), args.out)
    return 0


def _cmd_cross_validate(args: argparse.Namespace) -> int:
    prevalence = PrevalenceTable.from_dict(load_json(args.prevalence))
    dist = IncidentDistribution.from_dict(load_json(args.distribution))
    notes = cross_validate(prevalence, dist)
    if args.format == "json":
        _write(_json_text([n.to_dict() for n in notes]), args.out)
    else:
        _write("\n".join(f"[{n.key}] {n.text}" for n in notes), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = simulate(scenario, seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result.write_trace(outdir / "trace.ndjson")
    (outdir / "metrics.json").write_text(_json_text(result.summary()) + "\n", encoding="utf-8")
    m = result.metrics
    print(
        f"{scenario.name}: {len(result.records)} events, censorship {m.censorship_window}s, "
        f"frozen {m.frozen_funds_duration}s, conserved {m.funds_conserved}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = build_report(
        snapshot_path=args.snapshot,
        incidents_path=args.incidents,
        ruleset_path=args.ruleset,
        scenario_paths=args.scenario or (),
        adapter=args.adapter,
        seed=args.seed,
    )
    _print_warnings(bundle.report["prevalence"]["warnings"])
    _print_warnings(bundle.report["incidents"]["warnings"])
    if args.format == "json":
        _write(_json_text(bundle.report), args.out)
    else:
        _write(render_report_text(bundle), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2risk",
        description="Ethical-risk analysis toolkit for L2 rollups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    adapters = ["auto", *sorted(ADAPTERS)]

    snap = sub.add_parser("ingest-snapshot", help="derive the hazard prevalence table")
    snap.add_argument("--snapshot", required=True, help="risk snapshot JSON")
    snap.add_argument("--ruleset", help="flagging ruleset JSON (default: bundled rules)")
    snap.add_argument("--adapter", choices=adapters, default="auto")
    snap.add_argument("--format", choices=["text", "json"], default="text")
    snap.add_argument("--out", help="write output here instead of stdout")
    snap.set_defaults(func=_cmd_ingest_snapshot)

    inc = sub.add_parser("ingest-incidents", help="classify an incident table")
    inc.add_argument("--incidents", required=True, help="incident CSV/TSV")
    inc.add_argument("--format", choices=["text", "json"], default="text")
    inc.add_argument("--out", help="write output here instead of stdout")
    inc.set_defaults(func=_cmd_ingest_incidents)

    xv = sub.add_parser(
        "cross-validate", help="line prevalence up against the incident record"
    )
    xv.add_argument("--prevalence", required=True, help="ingest-snapshot JSON output")
    xv.add_argument("--distribution", required=True, help="ingest-incidents JSON output")
    xv.add_argument("--format", choices=["text", "json"], default="text")
    xv.add_argument("--out", help="write output here instead of stdout")
    xv.set_defaults(func=_cmd_cross_validate)

    sim = sub.add_parser("simulate", help="run one scenario deterministically")
    sim.add_argument("--scenario", required=True, help="scenario JSON")
    sim.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    sim.add_argument("--out", default=".", help="directory for trace.ndjson and metrics.json")
    sim.set_defaults(func=_cmd_simulate)

    rep = sub.add_parser("report", help="assemble the full reproducible report")
    rep.add_argument("--snapshot", required=True)
    rep.add_argument("--incidents", required=True)
    rep.add_argument("--ruleset")
    rep.add_argument("--scenario", action="append", help="scenario JSON; repeatable")
    rep.add_argument("--adapter", choices=adapters, default="auto")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--format", choices=["text", "json"], default="text")
    rep.add_argument("--out", help="write output here instead of stdout")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(render_schema_text(exc.report), file=sys.stderr)
        return 3
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
