"""Spans recorded from outside the program.

The tracer wraps public functions of ``l2risk`` modules for the duration of
one traced op and restores the originals afterwards, so untraced ops run
the program's own code with nothing added. Each span holds a name, start,
end, parent span and op id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import l2risk.cli
import l2risk.report
import l2risk.sim.engine
import l2risk.sim.scenario

# (owner, attribute, span name). An owner is the namespace the caller looks
# the name up in: build_report finds load_snapshot in l2risk.report, so that
# is where the wrapper goes.
REPORT_TARGETS = (
    (l2risk.cli, "build_report", "report.build_report"),
    (l2risk.report, "load_snapshot", "snapshot.load"),
    (l2risk.report, "extract_projects", "snapshot.extract"),
    (l2risk.report, "aggregate_prevalence", "snapshot.aggregate"),
    (l2risk.report, "parse_incidents", "incidents.parse"),
    (l2risk.report, "distribution", "incidents.distribution"),
    (l2risk.report, "cross_validate", "report.cross_validate"),
    (l2risk.report, "classify_roles", "engine.classify_roles"),
    (l2risk.report, "detect_problematic", "engine.detect_problematic"),
    (l2risk.report, "prioritize", "engine.prioritize"),
    (l2risk.report, "load_scenario", "sim.scenario.load"),
    (l2risk.report, "simulate", "sim.engine.simulate"),
    (l2risk.report, "content_digest", "report.digest"),
    (l2risk.sim.scenario, "parse_scenario", "sim.scenario.parse"),
)
SIM_TARGETS = (
    (l2risk.sim.scenario, "load_scenario", "sim.scenario.load"),
    (l2risk.sim.scenario, "parse_scenario", "sim.scenario.parse"),
    (l2risk.sim.scenario.RandomWorkload, "materialize", "sim.scenario.materialize"),
    (l2risk.sim.engine, "simulate", "sim.engine.simulate"),
    (l2risk.sim.engine.SimResult, "write_trace", "sim.trace.write"),
)


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or None, op id or None]
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]
        self._op: int | None = None

    def call(self, name: str, fn, /, *args, **kwargs):
        span = [name, 0, 0, self._stack[-1], self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def op(self, op_id: int, targets):
        """Trace one op: wrap ``targets`` and tag every span with op_id."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        for owner, attr, name in targets:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_ns(self, paused) -> dict[int, dict[str, int]]:
        """Self time per op and span name: a span's duration minus the part
        of it its child spans cover, and minus ``paused(start, end)``, time
        the benchmark itself took out of the span."""
        ns = [end - start - paused(start, end) for _, start, end, _, _ in self.spans]
        child_ns = [0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_ns[parent] += ns[i]
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for i, (name, _, _, _, op_id) in enumerate(self.spans):
            if op_id is not None:
                out[op_id][name] += ns[i] - child_ns[i]
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
