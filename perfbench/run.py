"""Benchmark of the l2risk toolkit: one command for every workload.

Run from the repository root:

    python3 perfbench/run.py --workload report-fixtures --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads are ``report-fixtures``, ``sim-ladder`` and ``sim-sweep``
(see decisions.json for why each was chosen). ``--trace 0`` measures the
end-to-end metrics with nothing traced; ``--trace 1`` is the traced run,
which times every module of the program, whatever the workload, and prints
the per-layer metrics. Each workload runs in its own fresh interpreter with
its stderr sent to a file. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_NS, timed_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("report-fixtures", "sim-ladder", "sim-sweep")
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 170

# Time from launching an interpreter until `import l2risk.cli` completes,
# and the import alone; the child reports both on one line.
_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter_ns()\n"
    "import l2risk.cli\n"
    "t1 = time.perf_counter_ns()\n"
    "print(time.monotonic_ns(), t1 - t0)\n"
)


def child_env() -> dict:
    """The program's environment: the checkout's sources first on the path,
    the documented role switch unset, and hash randomisation left on so a
    trace that depends on hash order fails its check."""
    env = dict(os.environ)
    env.pop("ERA_STRICT_ROLES", None)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def probe_imports(env: dict, stderr) -> tuple[list[float], list[float]]:
    """Launch SETUP_RUNS fresh interpreters, after one that fills the
    bytecode cache; return (setup seconds, import milliseconds), each scaled
    by the reference loop timed just before that launch."""
    setup_s, import_ms = [], []
    for i in range(SETUP_RUNS + 1):
        scale = REF_NS / statistics.median(timed_reference()[1] for _ in range(3))
        start = time.monotonic_ns()
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
            text=True, check=True, timeout=60,
        ).stdout.split()
        if i:
            setup_s.append((int(out[0]) - start) / 1e9 * scale)
            import_ms.append(int(out[1]) / 1e6 * scale)
    return setup_s, import_ms


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """Run one workload's worker; return (metrics result, printed lines)."""
    env = child_env()
    rundir = WORK / f"{workload}-{os.getpid()}"
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    stderr_path = WORK / f"stderr-{workload}.log"
    try:
        with stderr_path.open("w", encoding="utf-8") as stderr:
            setup_s, import_ms = probe_imports(env, stderr)
            result_path = rundir / "result.json"
            subprocess.run(
                [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
                 str(trace), str(rundir), str(result_path)],
                cwd=ROOT, env=env, stdout=stderr, stderr=stderr,
                check=True, timeout=WORKER_TIMEOUT_S,
            )
            result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = result["metrics"]
    if trace:
        import_med = statistics.median(import_ms)
        metrics["cli.import_ms"] = (import_med, "ms", len(import_ms), "cli.import_ms")
    else:
        metrics["setup_s"] = (statistics.median(setup_s), "s", len(setup_s), "setup_s")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1, "peak_rss_mb")
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"== {workload} seed={seed} seconds={seconds} trace={trace}"]
    lines.append("env " + json.dumps(environment()))
    with stderr_path.open(encoding="utf-8") as fh:
        count = sum(1 for _ in fh)
    lines.append(f"program stderr: {count} lines in {stderr_path.relative_to(ROOT)}")
    for name in sorted(metrics):
        value, unit, n, label = metrics[name]
        shown = name if label == name else f"{label} [{name}]"
        lines.append(f"{shown} = {value} {unit} (n={n})")
    lines.append(f"error_rate = {failed / attempted} ({failed} of {attempted} ops failed)")
    for reason, count in result["reasons"].items():
        lines.append(f"failed x{count}: {reason}")
    lines.extend(result["lines"])
    summary = {
        "correct": failed == 0 and result["coverage_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }
    return summary, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "l2risk" / "cli.py").is_file():
        print(f"error: no l2risk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    if args.workload != "all":
        workloads = [args.workload]
    else:
        # one traced run covers every module
        workloads = WORKLOADS if not args.trace else WORKLOADS[:1]
    results = {}
    for workload in workloads:
        try:
            summary, lines = run_workload(workload, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            print(f"error: {workload} did not complete: {exc}; "
                  f"see {WORK.relative_to(ROOT)}/stderr-{workload}.log", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[workload] = summary

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
