"""The requires-python floor, held: every source file parses as the oldest
supported Python, and other installed interpreters simulate and report
byte for byte as the running one does."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
SOURCES = sorted(
    path
    for part, pattern in (("src", "**/*.py"), ("tests", "**/*.py"), ("demos", "**/*.py"), ("perfbench", "*.py"))
    for path in (ROOT / part).glob(pattern)
)


def test_the_floor_is_the_declared_one():
    declared = re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    assert declared is not None
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_the_floor_refuses_newer_syntax():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


# Stdlib only, as an interpreter without the test dependencies runs it: the
# sha256 of each bundled scenario's trace, the content digest of the report
# over the fixtures and every bundled scenario, and whether a simulator run
# has a __dict__ (its attributes are all slots, so it must not).
_PROBE = """
import hashlib
from l2risk.data import INCIDENTS_CSV, SNAPSHOT_JSON, fixture_path, scenario_names
from l2risk.report import build_report
from l2risk.sim import load_scenario, simulate
from l2risk.sim.engine import _Run


def probe():
    scenarios = [fixture_path("scenarios/" + name) for name in scenario_names()]
    traces = {}
    for path in scenarios:
        lines = simulate(load_scenario(path)).trace_lines()
        traces[path.name] = hashlib.sha256("".join(l + "\\n" for l in lines).encode()).hexdigest()
    bundle = build_report(
        snapshot_path=fixture_path(SNAPSHOT_JSON),
        incidents_path=fixture_path(INCIDENTS_CSV),
        scenario_paths=scenarios,
    )
    run = _Run(load_scenario(scenarios[0]), 0)
    run.execute()
    return {
        "traces": traces,
        "digest": bundle.report["metadata"]["content_digest"],
        "run_has_dict": hasattr(run, "__dict__"),
    }
"""


def _installed_interpreters(pyenv_root: str) -> list[Path]:
    """Each pyenv-installed Python at or above the floor, other than this one."""
    running = Path(sys.executable).resolve()
    found = []
    for python in sorted(Path(pyenv_root).glob("versions/3.1*/bin/python")):
        minor = re.match(r"3\.(\d+)", python.parents[1].name)
        if minor and (3, int(minor[1])) >= FLOOR and python.resolve() != running:
            found.append(python)
    return found


_PYENV_ROOT = os.environ.get("PYENV_ROOT")
_INTERPRETERS = _installed_interpreters(_PYENV_ROOT) if _PYENV_ROOT else []
_NONE_FOUND = pytest.param(
    None,
    marks=pytest.mark.skip(
        reason=f"no other Python >= 3.10 in {_PYENV_ROOT}/versions"
        if _PYENV_ROOT
        else "PYENV_ROOT is unset"
    ),
)


@pytest.fixture(scope="module")
def probed_here() -> dict:
    namespace: dict = {}
    exec(_PROBE, namespace)
    return namespace["probe"]()


@pytest.mark.parametrize(
    "python",
    _INTERPRETERS or [_NONE_FOUND],
    ids=lambda python: python.parents[1].name if python else "none",
)
def test_other_interpreters_give_the_same_traces_and_digest(python, probed_here):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [str(python), "-c", _PROBE + "\nimport json\nprint(json.dumps(probe()))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    probed = json.loads(done.stdout)
    assert len(probed["traces"]) == 9
    assert probed["run_has_dict"] is False
    assert probed == probed_here
