"""Write pins.json: the reference outputs the checks compare against.

Run once, from the repository root, on the commit whose outputs are the
reference (the pins in this directory come from the benchmark's baseline
commit). Never rerun it to make a failing check pass: a trace or digest
that moved is what the checks exist to catch. The ops are the worker's own,
in the worker's environment (ERA_STRICT_ROLES unset).

    python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("ERA_STRICT_ROLES", None)

import l2risk.cli  # noqa: E402

import inputs  # noqa: E402
from checks import PINS_FILE  # noqa: E402
from worker import keyed_inputs, simulate_op  # noqa: E402

SEED = 0


def main() -> int:
    os.chdir(HERE.parent)  # the report digest covers the relative input paths
    pins: dict = {"seed": SEED, "report_content_digest": None, "traces": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workdir = Path(tmp)
        out = workdir / "report.json"
        with redirect_stderr(io.StringIO()):
            if l2risk.cli.main(inputs.report_argv(inputs.bundled_scenarios(), str(out))) != 0:
                raise SystemExit("report failed")
        report = json.loads(out.read_text(encoding="utf-8"))
        pins["report_content_digest"] = report["metadata"]["content_digest"]

        ladder, sweep = keyed_inputs(inputs.write_inputs(workdir, SEED), SEED)
        trace = workdir / "trace.ndjson"
        for key, path, seed in [*ladder.values(), *sweep]:
            simulate_op(path, seed, trace)
            pins["traces"][key] = hashlib.sha256(trace.read_bytes()).hexdigest()
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins['traces'])} trace pins and the report digest to {PINS_FILE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
