"""Walk the full evidence pipeline over the bundled fixtures.

Derives the structural hazard prevalence table from the snapshot fixture,
the compressed incident distribution from the incident table, and prints
the cross-validation notes that tie the two together. Run from the
repository root:

    python demos/reproduce_risk_tables.py
"""

import sys

from l2risk.data import fixture_path
from l2risk.incidents import distribution, parse_incidents, render_distribution_text
from l2risk.report import cross_validate
from l2risk.snapshot import (
    aggregate_prevalence,
    extract_projects,
    load_snapshot,
    render_prevalence_text,
)


def main() -> None:
    doc = load_snapshot(fixture_path("snapshot-fixture.json"))
    extract = extract_projects(doc)
    table = aggregate_prevalence(extract.profiles)
    print(render_prevalence_text(table))
    for warning in extract.warnings:
        print(warning, file=sys.stderr)
    if extract.warnings:
        print(f"\n({len(extract.warnings)} ingestion warning(s); printed to stderr)")

    print()
    parsed = parse_incidents(fixture_path("incident-table.csv"))
    dist = distribution(parsed.records)
    print(render_distribution_text(dist))

    print("\nCross-validation")
    for note in cross_validate(table, dist):
        print(f"  [{note.key}] {note.text}")


if __name__ == "__main__":
    main()
