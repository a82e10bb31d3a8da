"""The benchmark's tracer wraps l2risk functions by name (the REPORT_TARGETS
and SIM_TARGETS tables of perfbench/tracing.py). A function renamed or moved
in src/ would leave its span empty and its per-layer metric at zero; these
tests fail instead. They read the tables from the file's source and import
only l2risk."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TABLES = ("REPORT_TARGETS", "SIM_TARGETS")


def _tables() -> dict[str, list[tuple[str, str, str]]]:
    """Each table's (owner, attribute, span name) entries, the owner as the
    dotted name written in the file."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                tables[name] = [
                    (ast.unparse(owner), ast.literal_eval(attr), ast.literal_eval(span))
                    for owner, attr, span in (entry.elts for entry in node.value.elts)
                ]
    return tables


def _resolve(dotted: str):
    """The object a dotted name such as l2risk.sim.scenario.RandomWorkload
    names: its longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


_TABLES = _tables()
_TARGETS = [entry for name in TABLES for entry in _TABLES.get(name, ())]


def test_both_tables_are_read():
    assert set(_TABLES) == set(TABLES)
    assert all(_TABLES[name] for name in TABLES)


@pytest.mark.parametrize(
    "owner, attr, span", _TARGETS, ids=[f"{span}@{owner}" for owner, _a, span in _TARGETS]
)
def test_each_target_exists_and_is_callable(owner, attr, span):
    namespace = _resolve(owner)
    # the tracer saves and restores owner.__dict__[attr]: the name must be
    # the owner's own, not inherited
    assert attr in vars(namespace), f"{owner}.{attr} is gone; span {span} would read 0"
    assert callable(getattr(namespace, attr))
