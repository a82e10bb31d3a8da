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


def _write(text: str, out: str | Path | None) -> None:
    """Write ``text`` to the file ``out``, ending in a newline, or print it."""
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    else:
        print(text)


def _output(args: argparse.Namespace, warnings, payload, render) -> int:
    """Print the warnings to stderr, then write the JSON payload or, under
    ``--format text`` only, ``render()`` to ``--out`` or stdout."""
    for warning in warnings:
        print(warning, file=sys.stderr)
    _write(json.dumps(payload, indent=2) if args.format == "json" else render(), args.out)
    return 0


def _cmd_ingest_snapshot(args: argparse.Namespace) -> int:
    doc = load_snapshot(args.snapshot)
    ruleset = FlagRuleset.from_file(args.ruleset) if args.ruleset else None
    result = extract_projects(doc, ruleset=ruleset, adapter=args.adapter)
    table = aggregate_prevalence(result.profiles)
    payload = table.to_dict(result.warnings)
    return _output(args, result.warnings, payload, lambda: render_prevalence_text(table))


def _cmd_ingest_incidents(args: argparse.Namespace) -> int:
    parsed = parse_incidents(args.incidents)
    dist = distribution(parsed.records)
    payload = dist.to_dict(parsed.warnings)
    return _output(args, parsed.warnings, payload, lambda: render_distribution_text(dist))


def _cmd_cross_validate(args: argparse.Namespace) -> int:
    prevalence = PrevalenceTable.from_dict(load_json(args.prevalence))
    dist = IncidentDistribution.from_dict(load_json(args.distribution))
    notes = cross_validate(prevalence, dist)
    return _output(args, (), [n.to_dict() for n in notes],
                   lambda: "\n".join(f"[{n.key}] {n.text}" for n in notes))


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = simulate(scenario, seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result.write_trace(outdir / "trace.ndjson")
    _write(json.dumps(result.summary(), indent=2), outdir / "metrics.json")
    m = result.metrics
    print(f"{scenario.name}: {len(result.records)} events, censorship {m.censorship_window}s, "
          f"frozen {m.frozen_funds_duration}s, conserved {m.funds_conserved}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    # build_report is looked up here at each call, so a wrapper set on
    # l2risk.cli.build_report is the one that runs
    bundle = build_report(
        snapshot_path=args.snapshot, incidents_path=args.incidents, ruleset_path=args.ruleset,
        scenario_paths=args.scenario or (), adapter=args.adapter, seed=args.seed,
    )
    report = bundle.report
    warnings = report["prevalence"]["warnings"] + report["incidents"]["warnings"]
    return _output(args, warnings, report, lambda: render_report_text(bundle))


# Flags that several subcommands share, as (flag, add_argument keywords).
_ADAPTER = ("--adapter", {"choices": ["auto", *sorted(ADAPTERS)], "default": "auto"})
_FORMAT = ("--format", {"choices": ["text", "json"], "default": "text"})
_OUT = ("--out", {"help": "write output here instead of stdout"})

# The one place a subcommand or a flag is declared: name -> (help, handler,
# flags), in the order --help lists them.
_COMMANDS = {
    "ingest-snapshot": ("derive the hazard prevalence table", _cmd_ingest_snapshot, (
        ("--snapshot", {"required": True, "help": "risk snapshot JSON"}),
        ("--ruleset", {"help": "flagging ruleset JSON (default: bundled rules)"}),
        _ADAPTER, _FORMAT, _OUT,
    )),
    "ingest-incidents": ("classify an incident table", _cmd_ingest_incidents, (
        ("--incidents", {"required": True, "help": "incident CSV/TSV"}),
        _FORMAT, _OUT,
    )),
    "cross-validate": ("line prevalence up against the incident record", _cmd_cross_validate, (
        ("--prevalence", {"required": True, "help": "ingest-snapshot JSON output"}),
        ("--distribution", {"required": True, "help": "ingest-incidents JSON output"}),
        _FORMAT, _OUT,
    )),
    "simulate": ("run one scenario deterministically", _cmd_simulate, (
        ("--scenario", {"required": True, "help": "scenario JSON"}),
        ("--seed", {"type": int, "default": 0, "help": "workload seed (default 0)"}),
        ("--out", {"default": ".", "help": "directory for trace.ndjson and metrics.json"}),
    )),
    "report": ("assemble the full reproducible report", _cmd_report, (
        ("--snapshot", {"required": True}),
        ("--incidents", {"required": True}),
        ("--ruleset", {}),
        ("--scenario", {"action": "append", "help": "scenario JSON; repeatable"}),
        _ADAPTER,
        ("--seed", {"type": int, "default": 0}),
        _FORMAT, _OUT,
    )),
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``. Every subcommand is registered, so usage
    errors list all five, but only the one ``argv`` names gets its flags,
    -h included: no top-level option takes a value, so that is its first
    token not starting with "-". Each add_argument costs a terminal-size
    lookup, and no other subcommand's parser is ever run."""
    chosen = next((token for token in argv if not token.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="l2risk", description="Ethical-risk analysis toolkit for L2 rollups."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, add_help=name == chosen)
        if name == chosen:
            for flag, keywords in flags:
                command.add_argument(flag, **keywords)
        command.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
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
