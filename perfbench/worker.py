"""Run one workload in this interpreter and write its results as JSON.

Started by run.py in a fresh interpreter per workload, from the repository
root, with ``src`` on PYTHONPATH and stderr sent to a file. One client runs
ops back to back (a closed loop); there are no threads or extra processes.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import l2risk.cli
import l2risk.sim.engine
import l2risk.sim.scenario
from l2risk.incidents import parse_incidents
from l2risk.report import build_report, render_report_text
from l2risk.snapshot import extract_projects, load_snapshot

import inputs
from calibrate import Calibration
from checks import SWEEP_PATHS, Checker
from tracing import REPORT_TARGETS, SIM_TARGETS, Tracer

MS = 1e6  # ns per ms
US = 1e3  # ns per us

# What the generic metrics are called on each workload: (ops_per_s, op_ms).
ALIASES = {
    "report-fixtures": ("reports_per_s", "report_ms"),
    "sim-ladder": ("ladder_passes_per_s", "ladder_pass_ms"),
    "sim-sweep": ("sim_runs_per_s", "sim_run_ms"),
}


class Ops:
    """Outcomes of the ops of one family: times, events, failures."""

    def __init__(self) -> None:
        self.ns: list[int] = []
        self.spans: list[tuple[int, int]] = []  # perf_counter_ns at start and end
        self.events: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.paths: Counter = Counter()

    def add(self, ns: int, span: tuple[int, int], events: int, reason: str | None) -> None:
        self.ns.append(ns)
        self.spans.append(span)
        self.events.append(events)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1


def outcome(*families: Ops) -> dict:
    reasons = sum((f.reasons for f in families), Counter())
    return {
        "attempted": sum(f.attempted for f in families),
        "failed": sum(f.failed for f in families),
        "reasons": dict(reasons.most_common(5)),
    }


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max, n={n} is too few for a tail"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.2f}, 10 of n={n} beyond"


def per(total: float, count: int) -> float:
    """total / count, or 0 when failed ops left nothing to divide by."""
    return total / count if count else 0.0


def keyed_inputs(paths: dict, seed: int):
    """The sim ops' inputs as (key, scenario path, sim seed): the ladder by
    rung name, and the sweep pool in order. Keys name the pinned traces."""
    ladder = {name: (f"ladder/{name}", path, seed) for name, path in paths["ladder"].items()}
    sweep = [(f"sweep/{i:03d}", path, s) for i, (path, s) in enumerate(paths["sweep"])]
    return ladder, sweep


def simulate_op(path: Path, seed: int, out: Path):
    """load_scenario -> simulate -> write_trace, as `l2risk simulate` does it.
    Looked up on the modules at call time, so the tracer's wrappers apply."""
    scenario = l2risk.sim.scenario.load_scenario(path)
    result = l2risk.sim.engine.simulate(scenario, seed=seed)
    result.write_trace(out)
    return scenario, result


class Bench:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.checker = Checker(seed)
        self.ladder, self.sweep = keyed_inputs(inputs.write_inputs(workdir, seed), seed)
        self.report_scenarios = inputs.bundled_scenarios()
        self.report_out = workdir / "report.json"
        self.report_argv = inputs.report_argv(self.report_scenarios, str(self.report_out))
        self.trace_out = workdir / "trace.ndjson"
        self.cal = Calibration()
        self.tracer = Tracer()
        self.op_spans: dict[int, tuple[int, int]] = {}  # traced op id -> wall span
        # fault paths each input reached the first time it ran
        self.reached: dict[str, set[str]] = {}
        self._next_op = 0

    # -- ops ------------------------------------------------------------------

    def _timed(self, fn, *args):
        """Call fn; return (result, ns, (start, end)), where ns leaves out the
        time the calibration loop interrupted it for."""
        t0 = perf_counter_ns()
        result = fn(*args)
        t1 = perf_counter_ns()
        return result, t1 - t0 - self.cal.paused_between(t0, t1), (t0, t1)

    def _traced(self, targets):
        self._next_op += 1
        return self._next_op, self.tracer.op(self._next_op, targets)

    def report_op(self, ops: Ops, traced: bool = False) -> int | None:
        """One `l2risk report ... --format json --out ...` call, in process."""
        op_id = None
        self.report_out.unlink(missing_ok=True)  # a stale file must not pass the checks
        try:
            if traced:
                op_id, ctx = self._traced(REPORT_TARGETS)
                with ctx:
                    rc, ns, span = self._timed(
                        self.tracer.call, "cli.main", l2risk.cli.main, self.report_argv
                    )
            else:
                rc, ns, span = self._timed(l2risk.cli.main, self.report_argv)
        except Exception as exc:  # a crash is a failed op, not a failed run
            now = perf_counter_ns()
            ops.add(0, (now, now), 0, f"raised {type(exc).__name__}: {exc}")
            return op_id
        try:
            reason, events = self.checker.report(rc, self.report_out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason, events = f"unreadable report: {exc}", 0
        ops.add(ns, span, events, reason)
        if op_id is not None:
            self.op_spans[op_id] = span
        return op_id

    def sim_op(self, key: str, path: Path, seed: int, ops: Ops, traced: bool = False):
        """One simulate_op on one input, checked.

        Returns (op id or None, scenario, result); scenario and result are
        None when the op raised."""
        op_id = None
        self.trace_out.unlink(missing_ok=True)  # a stale file must not pass the checks
        args = (path, seed, self.trace_out)
        try:
            if traced:
                op_id, ctx = self._traced(SIM_TARGETS)
                with ctx:
                    (scenario, result), ns, span = self._timed(
                        self.tracer.call, "sim.op", simulate_op, *args
                    )
            else:
                (scenario, result), ns, span = self._timed(simulate_op, *args)
        except Exception as exc:  # a crash is a failed op, not a failed run
            now = perf_counter_ns()
            ops.add(0, (now, now), 0, f"raised {type(exc).__name__}: {exc}")
            return op_id, None, None
        try:
            reason, kinds = self.checker.trace(key, scenario, result, self.trace_out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason, kinds = f"unreadable trace: {exc}", set()
        ops.add(ns, span, len(result.events), reason)
        if op_id is not None:
            self.op_spans[op_id] = span
        reached = {name for name, events in SWEEP_PATHS.items() if kinds.intersection(events)}
        ops.paths.update(reached)
        self.reached.setdefault(key, reached)
        return op_id, scenario, result

    def sweep_input(self, k: int) -> tuple[str, Path, int]:
        return self.sweep[k % len(self.sweep)]

    def _calibrated(self, ops: Ops) -> list[float]:
        return [ns * self.cal.scale_at(*span) for ns, span in zip(ops.ns, ops.spans)]

    # -- untraced runs: end-to-end metrics -----------------------------------

    def run_report(self, seconds: float) -> tuple[Ops, list[str]]:
        ops = Ops()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            self.report_op(ops)
        return ops, []

    def run_sweep(self, seconds: float) -> tuple[Ops, list[str]]:
        ops = Ops()
        deadline = perf_counter() + seconds
        k = 0
        while perf_counter() < deadline:
            self.sim_op(*self.sweep_input(k), ops)
            k += 1
        shares = {name: ops.paths[name] / len(ops.ns) for name in SWEEP_PATHS}
        lines = ["fault-path shares of ops: " + json.dumps(shares)]
        missing = [name for name, share in shares.items() if share == 0]
        if missing:
            lines.append(f"FAIL: sweep never reached {missing}")
        return ops, lines

    def run_ladder(self, seconds: float) -> tuple[Ops, list[str]]:
        """Whole passes over the rungs, smallest first. Another pass starts
        while the run would end within ``seconds`` and half a pass, so the
        run ends as near ``seconds`` as whole passes allow (usually two)."""
        ops = Ops()
        start = perf_counter()
        last_pass = 0.0
        while not ops.ns or perf_counter() - start + last_pass / 2 <= seconds:
            t0 = perf_counter()
            for name, _, _ in inputs.RUNGS:
                self.sim_op(*self.ladder[name], ops)
            last_pass = perf_counter() - t0
        return ops, []

    def end_to_end(self, workload: str, seconds: float) -> dict:
        runner = {
            "report-fixtures": self.run_report,
            "sim-ladder": self.run_ladder,
            "sim-sweep": self.run_sweep,
        }[workload]
        with self.cal.running():
            ops, lines = runner(seconds)
        raw, events, cal = ops.ns, ops.events, self._calibrated(ops)
        if workload == "sim-ladder":
            # The end-to-end ops are whole passes; the checks count rung runs.
            k = len(inputs.RUNGS)
            lines.append(
                f"sim_run_s.top = {statistics.median(cal[k - 1::k]) / 1e9} s calibrated, "
                f"{statistics.median(raw[k - 1::k]) / 1e9} s raw, "
                f"median of n={len(raw[k - 1::k])} runs of {inputs.TOP_RUNG}"
            )
            raw, cal, events = (
                [sum(v[i : i + k]) for i in range(0, len(v), k)] for v in (raw, cal, events)
            )
            lines.append(f"ladder passes, calibrated ms: {[ns / MS for ns in cal]}")

        alias = ALIASES[workload]
        n = len(cal)
        figures = {}
        for kind, times in (("calibrated", cal), ("raw", raw)):
            busy_s = sum(times) / 1e9
            op_ms = [ns / MS for ns in times]
            figures[kind] = {
                "ops_per_s": per(n, busy_s),
                "op_ms.p50": statistics.median(op_ms),
                "op_ms.tail": tail(op_ms),
                "sim_events_per_s": per(sum(events), busy_s),
            }
        c = figures["calibrated"]
        metrics = {
            "ops_per_s": (c["ops_per_s"], "1/s", n, alias[0]),
            "op_ms.p50": (c["op_ms.p50"], "ms", n, f"{alias[1]}.p50"),
            "sim_events_per_s": (c["sim_events_per_s"], "1/s", n, "sim_events_per_s"),
        }
        r = figures["raw"]
        lines += [
            f"{alias[1]}.tail = {c['op_ms.tail'][0]} ms calibrated, {r['op_ms.tail'][0]} ms raw "
            f"({c['op_ms.tail'][1]}; printed, not gated: too noisy on a shared VM)",
            f"raw, uncalibrated: {alias[0]} = {r['ops_per_s']} 1/s, {alias[1]}.p50 = "
            f"{r['op_ms.p50']} ms, sim_events_per_s = {r['sim_events_per_s']} 1/s",
            f"calibration: reference loop median {statistics.median(self.cal.ns) / MS} ms "
            f"(n={len(self.cal.ns)}), run-wide scale {self.cal.scale()}",
        ]
        return {
            **outcome(ops),
            "metrics": metrics,
            "lines": lines,
            "coverage_ok": not any(line.startswith("FAIL") for line in lines),
        }

    # -- traced run: per-layer metrics ---------------------------------------

    def _pairs(self, op, seconds: float, min_traced: int) -> tuple[Ops, Ops, list[int]]:
        """Alternate untraced and traced ops, flipping which goes first."""
        plain, traced, ids = Ops(), Ops(), []
        deadline = perf_counter() + seconds
        k = 0
        while len(ids) < min_traced or perf_counter() < deadline:
            first_traced = k % 2 == 1
            for t in (first_traced, not first_traced):
                op_id = op(k, traced if t else plain, t)
                if t:
                    ids.append(op_id)
            k += 1
        return plain, traced, ids

    def per_layer(self, seconds: float) -> dict:
        """Trace every module, whatever the workload: report ops, one op per
        sweep input and one ladder pass, each op next to the same op untraced.
        Times are calibrated per op, as in the untraced runs."""
        with self.cal.running():
            phases = self._traced_phases(max(2.0, seconds / 10))
        return self._layer_metrics(*phases)

    def _traced_phases(self, slice_s: float):
        report = self._pairs(lambda k, ops, t: self.report_op(ops, t), slice_s, 10)
        renders = Ops()
        bundle = build_report(
            snapshot_path=inputs.SNAPSHOT,
            incidents_path=inputs.INCIDENTS,
            scenario_paths=self.report_scenarios,
        )
        for _ in report[2]:
            _, ns, span = self._timed(render_report_text, bundle)
            renders.add(ns, span, 0, None)

        actions: dict[int, int] = {}
        events: dict[int, int] = {}

        def sim(key, path, seed, ops, traced):
            op_id, scenario, result = self.sim_op(key, path, seed, ops, traced)
            if op_id is not None and result is not None:
                actions[op_id] = len(scenario.actions)
                events[op_id] = len(result.events)
            return op_id

        sweep = self._pairs(
            lambda k, ops, t: sim(*self.sweep_input(k), ops, t), slice_s, len(self.sweep)
        )
        plain, traced, rung_ids = Ops(), Ops(), {}
        for i, (name, _, _) in enumerate(inputs.RUNGS):
            for t in (False, True) if i % 2 == 0 else (True, False):
                op_id = sim(*self.ladder[name], traced if t else plain, t)
                if t:
                    rung_ids[name] = op_id
        ladder = (plain, traced, list(rung_ids.values()))
        return report, renders, sweep, ladder, rung_ids, actions, events

    def _layer_metrics(self, report, renders, sweep, ladder, rung_ids, actions, events) -> dict:
        scale = {i: self.cal.scale_at(*span) for i, span in self.op_spans.items()}
        self_ns = {
            i: {name: ns * scale[i] for name, ns in names.items()}
            for i, names in self.tracer.self_ns(self.cal.paused_between).items()
        }
        m: dict[str, tuple] = {}
        lines: list[str] = []

        def total_ns(ids, *names):
            return sum(self_ns.get(i, {}).get(n, 0) for i in ids for n in names)

        def ms(metric, ids, *names):
            m[metric] = (per(total_ns(ids, *names), len(ids)) / MS, "ms", len(ids))

        r_ids = report[2]
        ms("cli.main_self_ms", r_ids, "cli.main")
        ms("snapshot.load_ms", r_ids, "snapshot.load")
        ms("snapshot.extract_ms", r_ids, "snapshot.extract")
        ms("snapshot.aggregate_ms", r_ids, "snapshot.aggregate")
        ms("incidents.parse_ms", r_ids, "incidents.parse")
        ms("incidents.distribution_ms", r_ids, "incidents.distribution")
        ms("engine.roles_ms", r_ids, "engine.classify_roles", "engine.detect_problematic")
        ms("engine.prioritize_ms", r_ids, "engine.prioritize")
        ms("report.cross_validate_ms", r_ids, "report.cross_validate")
        ms("report.digest_ms", r_ids, "report.digest")
        ms(
            "report.simulations_ms",
            r_ids,
            "sim.scenario.load",
            "sim.scenario.parse",
            "sim.engine.simulate",
        )
        ms("report.assembly_self_ms", r_ids, "report.build_report")
        render_ms = per(sum(self._calibrated(renders)), len(renders.ns)) / MS
        m["report.render_text_ms"] = (render_ms, "ms", len(renders.ns))

        extract = extract_projects(load_snapshot(inputs.SNAPSHOT))
        entries = sum(len(p.risks) for p in extract.profiles)
        m["snapshot.extract_us_per_entry"] = (
            per(m["snapshot.extract_ms"][0] * 1e3, entries), "us", len(r_ids)
        )
        m["snapshot.entries"] = (entries, "count", 1)
        m["snapshot.warnings"] = (len(extract.warnings), "count", 1)
        m["incidents.rows"] = (len(parse_incidents(inputs.INCIDENTS).records), "count", 1)

        s_ids = sweep[2]
        s_events = sum(events.get(i, 0) for i in s_ids)
        ms("sim.scenario.load_ms", s_ids, "sim.scenario.load", "sim.scenario.parse")
        # over the scenarios with an explicit action list; a random workload
        # has none to parse
        explicit = [i for i in s_ids if actions.get(i)]
        m["sim.scenario.parse_us_per_action"] = (
            per(total_ns(explicit, "sim.scenario.parse") / US, sum(actions[i] for i in explicit)),
            "us",
            len(explicit),
        )
        sim_us = total_ns(s_ids, "sim.engine.simulate") / US
        m["sim.engine.us_per_event.sweep"] = (per(sim_us, s_events), "us", len(s_ids))
        write_us = total_ns(s_ids, "sim.trace.write") / US
        m["sim.trace.us_per_event"] = (per(write_us, s_events), "us", len(s_ids))

        for name, op_id in rung_ids.items():
            ms(f"sim.scenario.materialize_ms.{name}", [op_id], "sim.scenario.materialize")
            sim_us = total_ns([op_id], "sim.engine.simulate") / US
            m[f"sim.engine.us_per_event.{name}"] = (per(sim_us, events.get(op_id, 0)), "us", 1)
        top = m[f"sim.engine.us_per_event.{inputs.TOP_RUNG}"][0]
        base = m["sim.engine.us_per_event.r2k"][0]
        m["sim.engine.flatness"] = (per(top, base), "ratio", 1)
        lines.append(
            f"sim.engine.flatness = {per(top, base)}: {top} us/event at {inputs.TOP_RUNG} "
            f"/ {base} us/event at r2k (ROADMAP item 2 aims for within 2x; reported, not gated)"
        )
        m["sim.engine.events"] = (sum(events.get(i, 0) for i in ladder[2]), "count", 1)

        scenario = l2risk.sim.scenario.load_scenario(self.ladder["r2k"][1])
        tracemalloc.start()
        try:
            l2risk.sim.engine.simulate(scenario, seed=self.seed)
            m["sim.engine.peak_kb"] = (tracemalloc.get_traced_memory()[1] / 1024, "KiB", 1)
        finally:
            tracemalloc.stop()

        pool = [reached for key, reached in self.reached.items() if key.startswith("sweep/")]
        for name in SWEEP_PATHS:
            m[f"sim.sweep.paths.{name}"] = (sum(name in r for r in pool), "count", len(pool))

        # The root span's self time is what the layer spans leave out: the
        # rest of cli.main (argparse, JSON encoding, file writes) for the
        # report, the benchmark's own call for a sim op.
        families = (
            ("report-fixtures", report, "cli.main"),
            ("sim-sweep", sweep, "sim.op"),
            ("sim-ladder", ladder, "sim.op"),
        )
        for family, (plain, traced, ids), root in families:
            plain_ms = per(sum(self._calibrated(plain)), len(plain.ns)) / MS
            traced_ms = per(sum(self._calibrated(traced)), len(traced.ns)) / MS
            layers_ms = per(
                sum(ns for i in ids for name, ns in self_ns.get(i, {}).items() if name != root),
                len(ids),
            ) / MS
            root_ms = per(total_ns(ids, root), len(ids)) / MS
            lines.append(
                f"accounting {family}: untraced op {plain_ms} ms (n={len(plain.ns)}), "
                f"traced op {traced_ms} ms (n={len(traced.ns)}), "
                f"tracing overhead {traced_ms - plain_ms:+} ms; "
                f"layer self times (all but {root}) {layers_ms} ms "
                f"= {100 * per(layers_ms, plain_ms)}% of the untraced op, "
                f"leaving {plain_ms - layers_ms} ms untraced against "
                f"{root} self {root_ms} ms traced"
            )
        missing = [name for name in SWEEP_PATHS if m[f"sim.sweep.paths.{name}"][0] == 0]
        if missing:
            lines.append(f"FAIL: sweep never reached {missing}")
        return {
            **outcome(*report[:2], *sweep[:2], *ladder[:2]),
            "metrics": {k: (*v, k) for k, v in m.items()},
            "lines": lines,
            "coverage_ok": not missing,
        }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, result_path = argv
    bench = Bench(int(seed), Path(workdir))
    if trace == "1":
        result = bench.per_layer(float(seconds))
        bench.tracer.write(Path(workdir).parent / f"spans-{workload}.ndjson")
    else:
        result = bench.end_to_end(workload, float(seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
