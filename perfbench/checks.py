"""Output checks. A failed check marks its op as failed; it never aborts the run.

For the pinned seed, every trace and the report's content digest must match
the values in ``pins.json``, which were taken from the baseline commit. For
any seed, a repeat of the same input must give the same trace bytes, no
conservation violation may appear unless an exploit drained the bridge,
forced inclusion must land within its timeout plus one L1 block, and the
report digest must match (the report's inputs do not depend on the seed).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")

# Fault paths the sweep was chosen to exercise; a run where any of them
# never happens fails.
SWEEP_PATHS = {
    "tx_queued_forced": ("tx_queued_forced",),
    "forced_inclusion": ("forced_inclusion",),
    "tx_dropped": ("tx_dropped",),
    "proposal_blocked": ("proposal_blocked",),
    "claim_deferred": ("claim_deferred",),
    "hatch_exit_included": ("hatch_exit_included",),
    "root_challenged_or_finalized": ("root_challenged", "invalid_root_finalized"),
}


def content_digest(report: dict) -> str:
    """The report's digest as its format defines it: sha256 of the canonical
    JSON without the generation time and the digest itself. Recomputed here
    so the check does not rest on the program's own digest code."""
    skip = ("generated_at", "content_digest")
    meta = {k: v for k, v in report["metadata"].items() if k not in skip}
    canonical = json.dumps({**report, "metadata": meta}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Checker:
    def __init__(self, seed: int) -> None:
        pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
        self.report_digest: str = pins["report_content_digest"]
        self.trace_pins: dict[str, str] = pins["traces"] if seed == pins["seed"] else {}
        self._seen: dict[str, str] = {}

    def report(self, rc: int, out: Path) -> tuple[str | None, int]:
        """Check one report op; return (failure reason, simulated events)."""
        if rc != 0:
            return f"exit code {rc}", 0
        report = json.loads(out.read_text(encoding="utf-8"))
        events = sum(s["event_count"] for s in report["simulations"])
        if report["metadata"]["content_digest"] != self.report_digest:
            return "content digest differs from the pinned one", events
        if content_digest(report) != self.report_digest:
            return "report content does not match its digest", events
        return None, events

    def trace(self, key: str, scenario, result, out: Path) -> tuple[str | None, set[str]]:
        """Check one sim op's trace file; return (failure reason, event kinds).

        The file is read one line at a time and no event is kept, so the
        check adds little to the run's peak memory."""
        bound = scenario.config.forced_inclusion.timeout + scenario.params.l1_block_interval
        digest = hashlib.sha256()
        kinds: set[str] = set()
        lines = 0
        late = None
        with out.open("rb") as fh:
            for line in fh:
                digest.update(line)
                event = json.loads(line)
                kinds.add(event["event"])
                if late is None and event["event"] == "forced_inclusion" and event["delay"] > bound:
                    late = event["delay"]
                lines += 1
        digest = digest.hexdigest()
        expected = self.trace_pins.get(key) or self._seen.setdefault(key, digest)
        if digest != expected:
            return "trace differs from the pinned or first run of this input", kinds
        if lines != len(result.events):
            return "trace line count differs from the event count", kinds
        if result.violations and "exploit_drain" not in kinds:
            return "conservation violated without an exploit drain", kinds
        if late is not None:
            return f"forced inclusion after {late}s > bound {bound}s", kinds
        return None, kinds
