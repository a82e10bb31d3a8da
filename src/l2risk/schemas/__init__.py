"""JSON Schemas (draft 2020-12) describing the tool's machine-readable
inputs and outputs: prevalence and distribution artifacts, flagging
rulesets, scenario files, per-run metrics, and the full report."""

import json
from importlib import resources

SCHEMA_NAMES = ("prevalence", "distribution", "ruleset", "scenario", "metrics", "report")


def load_schema(name: str) -> dict:
    """Return the bundled schema as a dict; ``name`` omits the suffix."""
    if name not in SCHEMA_NAMES:
        raise KeyError(f"no bundled schema named {name!r}")
    text = resources.files(__name__).joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)
