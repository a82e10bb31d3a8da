"""The demos under demos/ run, and the fixture builder still builds the
committed fixture."""

import json
import runpy
from pathlib import Path

import pytest

from l2risk.data import fixture_path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_snapshot_builder_rebuilds_the_committed_fixture():
    # run_path without "__main__" defines build() and writes nothing
    build = runpy.run_path(str(DEMOS / "build_synthetic_snapshot.py"))["build"]
    expected = fixture_path("snapshot-fixture.json").read_bytes()
    assert (json.dumps(build(), indent=2) + "\n").encode("utf-8") == expected


@pytest.mark.parametrize(
    "demo",
    ["reproduce_risk_tables.py", "outage_forced_inclusion_sim.py", "upgrade_exit_window_sweep.py"],
)
def test_demo_runs_to_completion(demo, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out
