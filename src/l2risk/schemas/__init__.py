"""JSON Schemas (draft 2020-12) describing the tool's machine-readable
inputs and outputs: prevalence and distribution artifacts, flagging
rulesets, scenario files, per-run metrics, and the full report. The report
includes the artifact and metrics schemas by a ``$ref`` to their file
names; a reader of the files themselves resolves those refs by file name."""

import json
import re
from importlib import resources

SCHEMA_NAMES = ("prevalence", "distribution", "ruleset", "scenario", "metrics", "report")


def load_schema(name: str) -> dict:
    """Return the bundled schema as a dict; ``name`` omits the suffix. Each
    sibling named in a ``$ref`` is embedded under ``$defs`` as a draft 2020-12
    resource whose ``$id`` is its file name, so no registry is needed."""
    if name not in SCHEMA_NAMES:
        raise KeyError(f"no bundled schema named {name!r}")
    files = resources.files(__name__)
    text = files.joinpath(f"{name}.schema.json").read_text()
    schema = json.loads(text)
    for ref in sorted(set(re.findall(r'"\$ref": "(\w+\.schema\.json)', text))):
        sibling = json.loads(files.joinpath(ref).read_text())
        schema.setdefault("$defs", {})[ref] = {"$id": ref, **sibling}
    return schema
