"""Seeded inputs for the three workloads.

Every generator here is a pure function of its seed, so the same seed gives
byte-identical scenario files on every machine. The documents are written
by hand rather than through ``l2risk`` objects, so a change to the program
cannot quietly change what the benchmark feeds it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Relative to the repository root. The report's content digest covers these
# strings, so the report op always runs from the root with exactly these paths.
DATA_DIR = "src/l2risk/data"
SNAPSHOT = f"{DATA_DIR}/snapshot-fixture.json"
INCIDENTS = f"{DATA_DIR}/incident-table.csv"
SCENARIO_DIR = f"{DATA_DIR}/scenarios"

# RollupConfig.centralized_default().to_dict() as of the baseline commit.
CENTRALIZED_DEFAULT = {
    "proof_system": "zk",
    "sequencer": {"topology": "centralized", "recovery_latency": 600},
    "proposer": {"whitelist": True, "count": 1},
    "forced_inclusion": {"enabled": False, "timeout": 86400, "usable": False},
    "escape_hatch": {"enabled": False, "non_disableable": False},
    "da": {"mode": "external", "attestation_quorum": 1, "withholding_possible": True},
    "upgrade": {"policy": "instant", "window": 0},
    "state_validation_enforced": True,
    "prover_set": {"count": 2, "permissionless": False},
}

# (name, users, actions) of the sim-ladder. The (4k, 32k) rung takes about
# 26 s on its own, longer than one run can hold, so the ladder stops at 16k.
RUNGS = (("r20", 5, 20), ("r2k", 100, 2_000), ("r8k", 1_000, 8_000), ("r16k", 1_000, 16_000))
TOP_RUNG = RUNGS[-1][0]

INJECTION_KINDS = (
    "withdrawal-failure",
    "sequencer-outage",
    "sequencer-performance-degradation",
    "sequencer-halt",
    "bridge-halt",
    "l2-downtime",
    "exploit-user-risk",
    "withdrawal-delays",
    "censorship-forced-inclusion-failure",
    "bridge-pause-risk",
    "da-withholding",
    "proposer-outage",
    "prover-outage",
)

# The sim-sweep pool, after the simulator's callers in this repository. The
# acceptance sweep (tests/test_acceptance.py, criterion 4a) runs
# RandomWorkload() -- 5 users, 20 actions, no faults -- on the centralized
# default config over seeds 0-999; that shape takes the largest share.
ACCEPTANCE_RUNS = 48
# The demos' one-outage scenarios (also criterion 4b), with the forced
# inclusion timeouts they sweep and without forced inclusion.
DEMO_OUTAGES = (3_600, 12 * 3_600, 3 * 86_400)
DEMO_FI = (
    {"enabled": True, "timeout": 3_600, "usable": True},
    {"enabled": True, "timeout": 86_400, "usable": True},
    {"enabled": False, "timeout": 86_400, "usable": False},
)
# The upgrade demo's notice windows (0 is an instant upgrade).
DEMO_WINDOWS = (0, 1_800, 3_600, 2 * 3_600, 6 * 3_600, 86_400, 30 * 86_400)
# Generated fault-laden scenarios, FAULT_ROUNDS per injection kind: no
# caller reaches claim_deferred, and the bundled scenarios cover five of the
# thirteen kinds, so these keep every kind and fault path in the pool.
FAULT_ROUNDS = 2
_SPAN = 6 * 3_600  # user activity and fault windows fall in the first six hours


def bundled_scenarios() -> list[str]:
    """Relative paths of every bundled scenario, in a fixed order."""
    return [f"{SCENARIO_DIR}/{p.name}" for p in sorted(Path(SCENARIO_DIR).glob("*.json"))]


def report_argv(scenarios: list[str], out: str) -> list[str]:
    argv = ["report", "--snapshot", SNAPSHOT, "--incidents", INCIDENTS]
    for path in scenarios:
        argv += ["--scenario", path]
    return argv + ["--format", "json", "--out", out]


def ladder_doc(name: str, users: int, actions: int) -> dict:
    return {
        "name": name,
        "config": CENTRALIZED_DEFAULT,
        "workload": {"random": {"users": users, "actions": actions}},
    }


def _config(rng: random.Random) -> dict:
    proof = rng.choice(("zk", "optimistic"))
    cfg: dict = {"proof_system": proof, "proposer": {"whitelist": rng.random() < 0.75}}
    if proof == "optimistic":
        cfg["challenge_window"] = rng.choice((3_600, 6 * 3_600, 86_400))
    else:
        cfg["prover_set"] = {"count": rng.choice((1, 2)), "permissionless": rng.random() < 0.25}
    fi = rng.choice(("usable", "unusable", "off"))
    cfg["forced_inclusion"] = {
        "enabled": fi != "off",
        "usable": fi == "usable",
        "timeout": rng.choice((600, 1_800, 3_600)),
    }
    cfg["escape_hatch"] = {"enabled": rng.random() < 0.5}
    if rng.random() < 0.5:
        cfg["da"] = {"mode": "onchain"}
    else:
        cfg["da"] = {"mode": "external", "attestation_quorum": 1, "withholding_possible": True}
    cfg["state_validation_enforced"] = rng.random() < 0.75
    return cfg


def sweep_doc(rng: random.Random, index: int) -> dict:
    """One small fault-laden scenario: 2-12 users, 20-100 explicit actions
    with hatch exits, 1-4 fault windows, and a varied config.

    The counts of users, actions and faults come from ``index`` rather than
    the seed, so every seed's pool has the same mix of sizes and a seed
    changes what the scenarios do, not how big they are."""
    users = [f"u{i}" for i in range(2 + index * 5 % 11)]
    actions = [
        {"at": rng.randrange(600), "action": "deposit", "user": u, "amount": rng.randint(200, 2_000)}
        for u in users
    ]
    for _ in range(20 + index * 37 % 81 - len(users)):
        user = rng.choice(users)
        kind = rng.choices(("withdraw", "transfer", "deposit", "hatch-exit"), (35, 30, 15, 20))[0]
        item = {"at": rng.randrange(600, _SPAN), "action": kind, "user": user}
        if kind == "hatch-exit":
            item["amount"] = rng.choice((0, rng.randint(1, 300)))
        else:
            item["amount"] = rng.randint(1, 400)
        if kind == "transfer":
            item["to"] = rng.choice([u for u in users if u != user])
        actions.append(item)
    actions.sort(key=lambda a: a["at"])

    injections = []
    for k in range(1 + index % 4):
        kind = INJECTION_KINDS[index % len(INJECTION_KINDS)] if k == 0 else rng.choice(INJECTION_KINDS)
        item: dict = {"kind": kind, "at": rng.randrange(_SPAN)}
        if kind == "exploit-user-risk":
            item["amount"] = rng.randint(100, 2_000)
        else:
            item["duration"] = rng.choice((900, 3_600, 3 * 3_600))
        if kind == "censorship-forced-inclusion-failure" and rng.random() < 0.5:
            item["targets"] = rng.sample(users, rng.randint(1, len(users)))
        injections.append(item)

    cfg = _config(rng)
    doc: dict = {
        "name": f"sweep-{index:03d}",
        "config": cfg,
        "workload": {"actions": actions},
        "injections": injections,
    }
    if rng.random() < 0.4:
        policy = rng.choice(("instant", "timelocked"))
        window = rng.choice((3_600, 6 * 3_600)) if policy == "timelocked" else 0
        cfg["upgrade"] = {"policy": policy, "window": window}
        doc["upgrade"] = {"announce_at": rng.randrange(1_800, _SPAN)}
    return doc


def acceptance_doc() -> dict:
    return {
        "name": "acceptance-random",
        "config": CENTRALIZED_DEFAULT,
        "workload": {"random": {"users": 5, "actions": 20}},
    }


def demo_docs() -> list[dict]:
    """The outage and upgrade-window demos' scenarios, as they build them."""
    docs = []
    for outage in DEMO_OUTAGES:
        for fi in DEMO_FI:
            docs.append({
                "name": f"outage-{outage}s",
                "config": {**CENTRALIZED_DEFAULT, "forced_inclusion": fi},
                "workload": {"actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 1_000},
                    {"at": 700, "action": "withdraw", "user": "u", "amount": 500},
                ]},
                "injections": [{"kind": "sequencer-outage", "at": 600, "duration": outage}],
            })
    users = ("ana", "bo", "cy")
    for window in DEMO_WINDOWS:
        upgrade = {"policy": "timelocked", "window": window} if window else {
            "policy": "instant", "window": 0}
        actions = [
            {"at": i * 60, "action": "deposit", "user": u, "amount": 1_000}
            for i, u in enumerate(users)
        ] + [
            {"at": 7_200 + 120 + i * 60, "action": "withdraw", "user": u, "amount": 1_000}
            for i, u in enumerate(users)
        ]
        docs.append({
            "name": f"window-{window}s",
            "config": {**CENTRALIZED_DEFAULT, "upgrade": upgrade},
            "workload": {"actions": actions},
            "upgrade": {"announce_at": 7_200},
        })
    return docs


def invalid_root_variants() -> list[dict]:
    """The bundled invalid-root scenario with state validation off and as a
    zk rollup, as acceptance criterion 4e runs it."""
    raw = json.loads(Path(f"{SCENARIO_DIR}/exploit-invalid-root.json").read_text(encoding="utf-8"))
    unenforced = json.loads(json.dumps(raw))
    unenforced["config"]["state_validation_enforced"] = False
    zk = json.loads(json.dumps(raw))
    zk["config"]["proof_system"] = "zk"
    del zk["config"]["challenge_window"]
    return [unenforced, zk]


def write_inputs(workdir: Path, seed: int) -> dict:
    """Write the ladder and sweep scenario files for ``seed`` into workdir.

    Returns ``{"ladder": {rung: path}, "sweep": [(path, sim_seed), ...]}``.
    The sweep pool holds ACCEPTANCE_RUNS acceptance-sweep runs on seeds drawn
    from 0-999, the demos' scenarios, every bundled scenario and the two
    criterion-4e variants, and FAULT_ROUNDS generated fault-laden scenarios
    per injection kind, in an order shuffled by ``seed``. The sim seed of
    every explicit-action scenario is 0, the default of `l2risk simulate`.
    """
    ladder_dir = workdir / "ladder"
    sweep_dir = workdir / "sweep"
    ladder_dir.mkdir(parents=True, exist_ok=True)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    ladder = {}
    for name, users, actions in RUNGS:
        path = ladder_dir / f"{name}.json"
        path.write_text(json.dumps(ladder_doc(name, users, actions)), encoding="utf-8")
        ladder[name] = path
    rng = random.Random(seed)

    def write(name: str, doc: dict) -> Path:
        path = sweep_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    acceptance = write("acceptance", acceptance_doc())
    sweep = [(acceptance, s) for s in rng.sample(range(1_000), ACCEPTANCE_RUNS)]
    fixed = demo_docs() + invalid_root_variants()
    sweep += [(write(f"fixed-{i:02d}", doc), 0) for i, doc in enumerate(fixed)]
    sweep += [(Path(path), 0) for path in bundled_scenarios()]
    faults = FAULT_ROUNDS * len(INJECTION_KINDS)
    sweep += [(write(f"fault-{i:02d}", sweep_doc(rng, i)), 0) for i in range(faults)]
    rng.shuffle(sweep)
    return {"ladder": ladder, "sweep": sweep}
