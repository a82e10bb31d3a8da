"""The benchmark's tracer wraps l2risk functions by name (the REPORT_TARGETS
and SIM_TARGETS tables of perfbench/tracing.py), and its scripts import
l2risk modules and names. A function renamed or moved in src/ would leave
its span empty and its per-layer metric at zero, or fail every benchmark op
at import; these tests fail instead. They read the tables and the imports
from the files' source and import only l2risk."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
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


def _l2risk_imports() -> list[tuple[str, str, str | None]]:
    """Each (script, module, name) the benchmark's scripts import from
    l2risk: name None for ``import l2risk.X``."""
    found = []
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(script.name, a.name, None) for a in node.names if a.name.startswith("l2risk")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("l2risk"):
                found += [(script.name, node.module, a.name) for a in node.names]
    return found


_IMPORTS = _l2risk_imports()


def test_benchmark_imports_are_read():
    assert ("worker.py", "l2risk.report", "render_report_text") in _IMPORTS


@pytest.mark.parametrize(
    "script, module, name", _IMPORTS, ids=[f"{s}:{m}" + (f".{n}" if n else "") for s, m, n in _IMPORTS]
)
def test_each_benchmark_import_exists(script, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"{script} imports {name} from {module}, which has none"
