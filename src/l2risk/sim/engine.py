"""Discrete-event engine for the rollup simulator.

The model, in brief:

- Time is integer seconds. Anything posted to L1 lands at the next block
  boundary at or after the posting instant (``next_l1_block``).
- Users submit transactions to the sequencer. Admitted transactions wait in
  the mempool and are committed in batches on a fixed grid. While the
  sequencer is unavailable (outage, halt, downtime, or targeted censorship)
  a submission either enters the forced-inclusion queue, when that mechanism
  is usable, or is dropped.
- A forced-queue entry is included at the earlier of two moments: the
  sequencer's next batch (the queue is drained first, immediately on
  recovery) or direct L1 inclusion once the forced-inclusion timeout
  elapses. The timeout path bounds inclusion delay by timeout plus one L1
  block regardless of how long the outage lasts.
- Every landed batch gets a state root: proposable after proposal_delay,
  plus proof generation time on validity-proof systems. Roots finalize after
  finalization_depth L1 blocks (validity proofs) or the challenge window
  (fraud proofs). Withdrawals pay out from the bridge once their root is
  final; escape-hatch exits settle directly against finalized L1 state.
- The bridge escrow must always equal the sum of L2 balances and in-flight
  amounts. _move, _hold and _release are the only writers of those two
  ledgers and keep their running total, so the identity is checked after
  every event in constant time; mismatches are recorded, not raised.
  Handlers still choose every amount and move the escrow themselves, so a
  debit without its credit, or a payout that leaves the escrow untouched,
  shows at that very event. A finalized invalid state root breaks the
  identity by design and flips funds_conserved. Each run ends by summing
  both ledgers afresh; a running total that disagrees is an engine bug and
  raises.
- Each windowed fault holds up one thing while active, per the
  _FAULT_EFFECTS table: sequencer access, censored users' access, admission
  speed, root proposals, validity proofs, claims, the whole bridge, or the
  offchain data hatch exits need. A fault the config routes around
  (_Run._neutralized) is noted as ineffective and never becomes active.
- Funds count as frozen while some exit in flight is stalled by an active
  fault. The stall test after each event returns at once when no fault is
  active; otherwise it looks up the root, claim and sequencer effects at
  most once each, not once per exit in flight.
- The engine's own events wait on a heap as (time, priority, sequence,
  kind, args). Workload actions never enter it: they come in time order as
  plain (at, action, user, amount, to) tuples, an explicit list's stably
  sorted by time, a random workload's drawn one at a time with no
  WorkloadAction built, and the next waits beside the heap as the entry its
  push would have made, numbered 1..n ahead of every pushed event. The loop
  takes whichever of the two sorts first, as one heap holding all would.
- The loop calls _on_<kind>(*args) from a per-run table of handlers,
  each bound on first use and looked up on the instance so a subclass's
  handler is the one that runs, then checks conservation under that kind's
  name and updates the frozen-funds clock. With no fault active the fault
  lookups (_ends, _censor_ends, _seq_accepting) return at once, and so does
  the frozen-funds update unless a frozen interval is still open.

An invalid state root injected by an attacker finalizes only when state
validation is not enforced, or on a fraud-proof system whose whitelisted
challengers are all offline for the entire challenge window.

Runs are deterministic: with the same scenario and seed the event trace is
byte-identical.

Each event is recorded as one tuple, (kind, t, i, *values), its values in
the order _Run.TRACE_FIELDS, next to _emit, lists the fields of its kind; a
neutralized fault's start holds one value more, its ineffective note.
SimResult keeps these records. Its events view, one {"t", "i", "event",
**fields} dict per record, is built only when a caller reads it; the trace,
the summary and the CLI never do.

Trace lines are what json.dumps(event, sort_keys=True, separators=(",", ":"))
writes of that dict, formatted straight from the record: at import each kind
(and a neutralized fault's start) gets a % format with its keys sorted and
its name written in, and a getter of the record's slots in key order.
_JSON_FIELDS writes scenario names (user, to), the upgrade's holders and its
share as JSON text; ids, reason texts and other tokens the engine chose go
between quotes unescaped; every other field is an int. A record with no
format raises KeyError. No JSON encoder is involved, so the bytes do not
depend on CPython's _json accelerator.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path

from l2risk.model import DaMode, HarmMetrics, ProofSystem, UpgradePolicy
from l2risk.sim.scenario import Injection, InjectionKind, Scenario


def next_l1_block(t: int, interval: int = 12) -> int:
    """Timestamp of the first L1 block at or after t."""
    return -(-t // interval) * interval


# What each windowed fault holds up while it is active. "bridge" is
# deposits, claims and hatch exits; "data" is the offchain data hatch exits
# need; "censorship" applies to the fault's targets only (everyone if none).
_FAULT_EFFECTS = {
    InjectionKind.SEQUENCER_OUTAGE: "sequencer",
    InjectionKind.SEQUENCER_HALT: "sequencer",
    InjectionKind.L2_DOWNTIME: "sequencer",
    InjectionKind.CENSORSHIP_FORCED_INCLUSION_FAILURE: "censorship",
    InjectionKind.SEQUENCER_PERFORMANCE_DEGRADATION: "admission",
    InjectionKind.WITHDRAWAL_DELAYS: "proposals",
    InjectionKind.PROPOSER_OUTAGE: "proposals",
    InjectionKind.PROVER_OUTAGE: "proofs",
    InjectionKind.WITHDRAWAL_FAILURE: "claims",
    InjectionKind.BRIDGE_PAUSE_RISK: "bridge",
    InjectionKind.BRIDGE_HALT: "bridge",
    InjectionKind.DA_WITHHOLDING: "data",
}
_HATCH_BLOCKED = {"bridge": "bridge unavailable", "data": "data unavailable"}

# Same-instant ordering: fault windows close before anything else runs, L1
# landings precede sequencer work, user actions come late, and upgrade
# bookkeeping runs last so it sees the settled state of that second.
_P_END, _P_START, _P_L1, _P_ADMIT, _P_BATCH, _P_ACTION, _P_UPGRADE = range(7)
# What the loop holds once the workload is spent: above every event's key.
_NO_ACTION = (math.inf,)

# How a line format writes the fields of _Run.TRACE_FIELDS: as JSON text by
# the writer here (scenario names escaped, the upgrade's holders and share),
# as an engine-made token between quotes (such as actions checked against
# _ACTIONS), or else as an int with %d.
_JSON_FIELDS = {
    "user": encode_basestring_ascii,
    "to": encode_basestring_ascii,
    "holders": lambda names: "[" + ",".join(map(encode_basestring_ascii, names)) + "]",
    "exit_coverage": lambda share: "null" if share is None else float.__repr__(share),
}
_TOKEN_FIELDS = frozenset({"id", "reason", "action", "type", "kind", "ineffective"})


def _line_format(event: str, fields: tuple[str, ...]) -> tuple[str, itemgetter, tuple]:
    """The % format of one event kind's trace line, keys sorted and the event
    name written in; the getter of its other values, in key order, from the
    slots of a record (kind, t, i, *fields); and the positions of the values
    written as JSON text, each with its writer."""
    slots = {"t": 1, "i": 2, **{key: 3 + j for j, key in enumerate(fields)}}
    keys = sorted(slots)
    parts = []
    for key in sorted((*keys, "event")):
        if key == "event":
            parts.append(f'"event":"{event}"')
        elif key in _JSON_FIELDS:
            parts.append(f'"{key}":%s')
        elif key in _TOKEN_FIELDS:
            parts.append(f'"{key}":"%s"')
        else:
            parts.append(f'"{key}":%d')
    written = tuple((j, _JSON_FIELDS[key]) for j, key in enumerate(keys) if key in _JSON_FIELDS)
    return "{" + ",".join(parts) + "}", itemgetter(*(slots[key] for key in keys)), written


@dataclass(frozen=True)
class SimResult:
    scenario: str
    seed: int
    metrics: HarmMetrics
    # one (kind, t, i, *values) tuple per event, values in TRACE_FIELDS order
    records: tuple[tuple, ...]
    violations: tuple[dict, ...]

    @cached_property
    def events(self) -> tuple[dict, ...]:
        """Each record as a {"t", "i", "event", **fields} dict, built on first use."""
        names = _FIELD_NAMES
        events = []
        for kind, t, i, *values in self.records:
            event = {"t": t, "i": i, "event": kind}
            event.update(zip(names[kind], values))
            events.append(event)
        return tuple(events)

    def trace_lines(self) -> list[str]:
        """One compact JSON object per event, stable across runs."""
        formats = _LINE_FORMATS
        lines: list[str] = []
        append = lines.append
        for record in self.records:
            fmt, get, written = formats[record[0]][len(record)]
            values = get(record)
            if written:
                values = list(values)
                for j, write in written:
                    values[j] = write(values[j])
                values = tuple(values)
            append(fmt % values)
        return lines

    def write_trace(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.trace_lines()) + "\n", encoding="utf-8")

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "event_count": len(self.records),
            "metrics": self.metrics.to_dict(),
            "conservation_violations": list(self.violations),
        }


class _Run:
    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.sc = scenario
        self.cfg = scenario.config
        self.p = scenario.params
        self.seed = seed
        self.now = 0
        self._heap: list = []
        self._pushes = 0
        self.records: list[tuple] = []
        self.violations: list[dict] = []

        self.bridge_pool = 0
        self.l2: dict[str, int] = defaultdict(int)
        # pid -> (user, amount): money that left one ledger but not yet
        # arrived on the other (pending credits, withdrawals, hatch exits)
        self.inflight: dict[str, tuple[str, int]] = {}
        # sum of l2 and inflight amounts, kept by their only writers
        self.accounted = 0
        self.mempool: list[dict] = []
        # tx id -> tx, in queueing order
        self.forced: dict[str, dict] = {}
        self._batch_grid: set[int] = set()
        self._txid = 0

        self.active: dict[int, Injection] = {}
        # what a state root waits on before it can be proposed
        zk = self.cfg.proof_system is ProofSystem.ZK
        self._root_effects = ("proposals", "proofs") if zk else ("proposals",)
        self.exploit_drained = False
        self.latencies: dict[str, list[int]] = defaultdict(list)
        self.censorship_window = 0
        # exits in flight, tracked for the frozen-funds metric
        self.pending: dict[str, dict] = {}
        self._frozen_accum = 0
        self._frozen_since: int | None = None

        self.exit_denominator: set[str] | None = None
        self.exit_coverage: float | None = None

    # -- plumbing -----------------------------------------------------------

    def _push(self, t: int, prio: int, kind: str, *args) -> None:
        """Schedule _on_<kind>(*args) at t; kind also names the event in
        violation records."""
        self._pushes += 1
        heapq.heappush(self._heap, (t, prio, self._pushes, kind, args))

    # The payload of every event _emit records, in record order after its
    # kind, t and i: the one list of what a trace line holds. _line_format
    # writes each field as _JSON_FIELDS and _TOKEN_FIELDS say.
    TRACE_FIELDS = {
        "action_rejected": ("action", "user", "reason"),
        "deposit_submitted": ("id", "user", "amount"),
        "deposit_landed": ("id", "user", "amount"),
        "tx_submitted": ("id", "type", "user", "amount"),
        "tx_admitted": ("id",),
        "tx_queued_forced": ("id", "deadline"),
        "tx_dropped": ("id", "reason"),
        "hatch_exit_submitted": ("id", "user"),
        "tx_failed": ("id", "user", "reason"),
        "hatch_exit_included": ("id", "user", "amount"),
        "batch_created": ("size", "lands_at"),
        "batch_landed": ("size",),
        "forced_inclusion": ("id", "delay"),
        "credit_applied": ("id", "user", "amount"),
        "transfer_applied": ("id", "user", "to", "amount"),
        "withdrawal_included": ("id", "user", "amount"),
        "proposal_blocked": ("batch_time", "retry_at"),
        "proposal": ("batch_time", "withdrawals"),
        "root_finalized": ("batch_time", "withdrawals"),
        "claim_deferred": ("id", "retry_at"),
        "withdrawal_claimed": ("id", "user", "amount", "latency"),
        # plus "ineffective", a fixed text, when the config neutralizes it
        "injection_start": ("kind", "until"),
        "injection_end": ("kind",),
        "exploit_attempted": ("amount",),
        "invalid_root_landed": ("amount",),
        "root_rejected": ("reason",),
        "root_challenged": ("amount",),
        "invalid_root_finalized": ("amount",),
        "exploit_drain": ("drained", "bridge_left"),
        "upgrade_announced": ("activation", "holders"),
        "upgrade_activated": ("exit_coverage",),
    }

    def _emit(self, kind: str, *values) -> None:
        """Record one event as (kind, t, i, *values), values in TRACE_FIELDS order."""
        records = self.records
        records.append((kind, self.now, len(records)) + values)

    def _new_id(self, prefix: str) -> str:
        self._txid += 1
        return f"{prefix}-{self._txid}"

    def execute(self) -> None:
        sc = self.sc
        if sc.random_workload is not None:
            actions = sc.random_workload.stream(self.seed)
            self._pushes = sc.random_workload.actions
        else:
            # stable: same-instant actions keep their list order
            fields = attrgetter("at", "action", "user", "amount", "to")
            actions = map(fields, sorted(sc.actions, key=attrgetter("at")))
            self._pushes = len(sc.actions)
        for idx, inj in enumerate(sc.injections):
            if inj.kind is InjectionKind.EXPLOIT_USER_RISK:
                self._push(inj.at, _P_START, "exploit", idx)
            else:
                self._push(inj.at, _P_START, "injection_start", idx)
                self._push(inj.end, _P_END, "injection_end", idx)
        if sc.upgrade_at is not None:
            self._push(sc.upgrade_at, _P_UPGRADE, "upgrade_announce")

        # The next action waits beside the heap as the entry its push would
        # have made, numbered 1..n in time order; the loop takes whichever
        # of it and the heap's top has the lower (t, priority, number).
        queued = ((d[0], _P_ACTION, k, "action", d[1:]) for k, d in enumerate(actions, 1))
        following = next(queued, _NO_ACTION)
        heap = self._heap
        pop = heapq.heappop
        check_conservation = self._check_conservation
        update_frozen = self._update_frozen
        handlers: dict = {}
        horizon = self.p.horizon
        if horizon is None:
            horizon = math.inf
        while True:
            if heap and heap[0] < following:
                t, _prio, _n, kind, args = pop(heap)
            elif following is not _NO_ACTION:
                t, _prio, _n, kind, args = following
                following = next(queued, _NO_ACTION)
            else:
                break
            if t > horizon:
                break
            self.now = t
            try:
                handler = handlers[kind]
            except KeyError:
                # looked up on the instance, so a subclass's handler runs
                handler = handlers[kind] = getattr(self, "_on_" + kind)
            handler(*args)
            check_conservation(kind)
            update_frozen()
        if self._frozen_since is not None:
            self._frozen_accum += self.now - self._frozen_since
            self._frozen_since = None
        resummed = sum(self.l2.values()) + sum(a for _u, a in self.inflight.values())
        if resummed != self.accounted:
            raise RuntimeError(
                f"ledger total {self.accounted} != {resummed} summed afresh in {self.sc.name}"
            )

    def result(self) -> SimResult:
        metrics = HarmMetrics(
            withdrawal_latency={u: tuple(v) for u, v in self.latencies.items()},
            frozen_funds_duration=self._frozen_accum,
            censorship_window=self.censorship_window,
            exit_coverage_before_upgrade=self.exit_coverage,
            funds_conserved=not self.exploit_drained and not self.violations,
        )
        return SimResult(
            scenario=self.sc.name,
            seed=self.seed,
            metrics=metrics,
            records=tuple(self.records),
            violations=tuple(self.violations),
        )

    # -- fault-window predicates --------------------------------------------

    def _ends(self, *effects: str) -> list[int]:
        """End times of the active faults that hold up any of these effects."""
        if not self.active:
            return []
        return [inj.end for inj in self.active.values() if _FAULT_EFFECTS[inj.kind] in effects]

    def _censor_ends(self, user: str) -> list[int]:
        if not self.active:
            return []
        return [
            inj.end
            for inj in self.active.values()
            if _FAULT_EFFECTS[inj.kind] == "censorship" and (not inj.targets or user in inj.targets)
        ]

    def _seq_accepting(self, user: str) -> bool:
        if not self.active:
            return True
        return not self._ends("sequencer") and not self._censor_ends(user)

    def _hatch_blocked(self) -> str | None:
        """Why a hatch exit is refused: the first blocking fault in start order."""
        for inj in self.active.values():
            reason = _HATCH_BLOCKED.get(_FAULT_EFFECTS[inj.kind])
            if reason is not None:
                return reason
        return None

    def _denial_end(self, user: str) -> int:
        """When the user could next reach the sequencer, given active faults."""
        return max(self.now, *self._ends("sequencer"), *self._censor_ends(user))

    # -- metric bookkeeping --------------------------------------------------

    def _exit_stalled(self) -> bool:
        """Whether an active fault holds up some exit in flight: a queued
        withdrawal the sequencer will not take, a withdrawal waiting on a
        root no one may propose or prove, or a claim the bridge refuses.

        With no fault active nothing can stall, so the answer is immediate.
        Otherwise one pass collects the stages present, and the root, claim
        and sequencer effects are each looked up at most once, however many
        exits are in flight; only censorship is checked per queued user."""
        if not self.active:
            return False
        pending = self.pending.values()
        stages = {p["stage"] for p in pending}
        if "awaiting_root" in stages and self._ends(*self._root_effects):
            return True
        if "claimable" in stages and self._ends("claims", "bridge"):
            return True
        return "queued" in stages and (
            bool(self._ends("sequencer"))
            or any(self._censor_ends(p["user"]) for p in pending if p["stage"] == "queued")
        )

    def _update_frozen(self) -> None:
        if not self.active and self._frozen_since is None:
            return  # nothing can stall and no frozen interval is open
        stalled = self._exit_stalled()
        if stalled and self._frozen_since is None:
            self._frozen_since = self.now
        elif not stalled and self._frozen_since is not None:
            self._frozen_accum += self.now - self._frozen_since
            self._frozen_since = None

    def _check_conservation(self, event_kind: str) -> None:
        if self.exploit_drained or self.bridge_pool == self.accounted:
            return
        self.violations.append(
            {
                "t": self.now,
                "event": event_kind,
                "bridge": self.bridge_pool,
                "accounted": self.accounted,
            }
        )

    # -- the ledgers' only writers ---------------------------------------------

    def _move(self, user: str, delta: int) -> None:
        """Change a user's L2 balance by delta."""
        self.l2[user] += delta
        self.accounted += delta

    def _hold(self, pid: str, user: str, amount: int) -> None:
        """Put an amount in flight: it has left one ledger, not reached the other."""
        self.inflight[pid] = (user, amount)
        self.accounted += amount

    def _release(self, pid: str) -> tuple[str, int]:
        """Take an amount out of flight; returns (user, amount)."""
        user, amount = self.inflight.pop(pid)
        self.accounted -= amount
        return user, amount

    # -- user actions ---------------------------------------------------------

    def _on_action(self, action: str, user: str, amount: int, to: str | None) -> None:
        if action == "deposit":
            self._do_deposit(user, amount)
        elif action == "hatch-exit":
            self._do_hatch(user, amount)
        else:
            self._do_submit(action, user, amount, to)

    def _do_deposit(self, user: str, amount: int) -> None:
        if self._ends("bridge"):
            self._emit("action_rejected", "deposit", user, "bridge unavailable")
            return
        pid = self._new_id("dep")
        self._emit("deposit_submitted", pid, user, amount)
        land = next_l1_block(self.now, self.p.l1_block_interval)
        self._push(land, _P_L1, "deposit_landed", pid, user, amount)

    def _on_deposit_landed(self, pid: str, user: str, amount: int) -> None:
        self.bridge_pool += amount
        self._hold(pid, user, amount)
        self._emit("deposit_landed", pid, user, amount)
        credit = {
            "id": pid,
            "type": "credit",
            "user": user,
            "amount": amount,
            "submitted": self.now,
            "denied": False,
        }
        self._enqueue_l2(credit)

    def _do_submit(self, action: str, user: str, amount: int, to: str | None) -> None:
        txid = self._new_id("wd" if action == "withdraw" else "tr")
        tx = {
            "id": txid,
            "type": action,
            "user": user,
            "amount": amount,
            "to": to,
            "submitted": self.now,
            "denied": False,
        }
        self._emit("tx_submitted", txid, action, user, amount)
        if action == "withdraw":
            self.pending[txid] = {"user": user, "submitted": self.now, "stage": "queued"}
        if self._seq_accepting(user):
            factor = self.p.degradation_factor if self._ends("admission") else 1
            admit = self.now + self.p.admission_latency * factor
            self._push(admit, _P_ADMIT, "tx_admitted", tx)
        else:
            tx["denied"] = True
            self._deny(tx)

    def _on_tx_admitted(self, tx: dict) -> None:
        if not self._seq_accepting(tx["user"]):
            # the sequencer went away between submission and admission
            tx["denied"] = True
            self._deny(tx)
            return
        self._emit("tx_admitted", tx["id"])
        self.mempool.append(tx)
        self._grid_batch(self.now)

    def _deny(self, tx: dict) -> None:
        if self.cfg.forced_inclusion.usable:
            deadline = self._queue_forced(tx)
            self._emit("tx_queued_forced", tx["id"], deadline)
        else:
            self._emit("tx_dropped", tx["id"], "sequencer unavailable")
            self.pending.pop(tx["id"], None)
            blocked_for = self._denial_end(tx["user"]) - tx["submitted"]
            self.censorship_window = max(self.censorship_window, blocked_for)

    def _do_hatch(self, user: str, amount: int) -> None:
        if not self.cfg.escape_hatch.enabled:
            self._emit("action_rejected", "hatch-exit", user, "escape hatch disabled")
            return
        reason = self._hatch_blocked()
        if reason is not None:
            self._emit("action_rejected", "hatch-exit", user, reason)
            return
        hid = self._new_id("hx")
        self._emit("hatch_exit_submitted", hid, user)
        land = next_l1_block(self.now, self.p.l1_block_interval)
        self._push(land, _P_L1, "hatch_included", hid, user, amount, self.now)

    def _on_hatch_included(self, hid: str, user: str, requested: int, submitted: int) -> None:
        balance = self.l2[user]
        amount = balance if requested == 0 else min(requested, balance)
        if amount <= 0:
            self._emit("tx_failed", hid, user, "nothing to exit")
            return
        self._move(user, -amount)
        self._hold(hid, user, amount)
        self.pending[hid] = {"user": user, "submitted": submitted, "stage": "hatch_wait"}
        self._emit("hatch_exit_included", hid, user, amount)
        done = self.now + self.p.finalization_depth * self.p.l1_block_interval
        self._push(done, _P_L1, "claim", hid)

    # -- sequencing and batches ------------------------------------------------

    def _enqueue_l2(self, tx: dict) -> None:
        """Route a system transaction (deposit credit) toward L2 inclusion."""
        if self._seq_accepting(tx["user"]):
            self.mempool.append(tx)
            self._grid_batch(self.now)
        elif self.cfg.forced_inclusion.usable:
            self._queue_forced(tx)
        else:
            # parked until the sequencer recovers; drained by the recovery batch
            self.mempool.append(tx)

    def _queue_forced(self, tx: dict) -> int:
        """Put a transaction on the forced queue; returns its L1 deadline."""
        tx["entry"] = self.now
        self.forced[tx["id"]] = tx
        deadline = next_l1_block(
            self.now + self.cfg.forced_inclusion.timeout, self.p.l1_block_interval
        )
        self._push(deadline, _P_L1, "forced_deadline", tx["id"])
        return deadline

    def _grid_batch(self, t: int) -> None:
        bi = self.p.batch_interval
        bt = -(-t // bi) * bi
        if bt not in self._batch_grid:
            self._batch_grid.add(bt)
            self._push(bt, _P_BATCH, "batch_tick")

    def _on_batch_tick(self) -> None:
        if self._ends("sequencer"):
            return
        self._make_batch()

    _on_recovery_batch = _on_batch_tick

    def _make_batch(self) -> None:
        taken, kept = [], {}
        for txid, tx in self.forced.items():
            if self._censor_ends(tx["user"]):
                kept[txid] = tx
            else:
                taken.append(tx)
        txs = taken + self.mempool
        self.forced = kept
        self.mempool = []
        if not txs:
            return
        land = next_l1_block(self.now, self.p.l1_block_interval)
        self._emit("batch_created", len(txs), land)
        self._push(land, _P_L1, "batch_landed", txs)

    def _on_batch_landed(self, txs: list[dict]) -> None:
        self._emit("batch_landed", len(txs))
        wids = []
        for tx in txs:
            wid = self._apply_tx(tx)
            if wid is not None:
                wids.append(wid)
        self._schedule_proposal(self.now, wids)

    def _on_forced_deadline(self, txid: str) -> None:
        tx = self.forced.pop(txid, None)
        if tx is None:
            return  # already included by a batch
        self._emit("forced_inclusion", txid, self.now - tx["entry"])
        wid = self._apply_tx(tx)
        self._schedule_proposal(self.now, [wid] if wid is not None else [])

    def _apply_tx(self, tx: dict) -> str | None:
        """Apply one included transaction; returns the id of a successfully
        included withdrawal, else None."""
        if tx["denied"]:
            self.censorship_window = max(self.censorship_window, self.now - tx["submitted"])
        user, amount = tx["user"], tx["amount"]
        if tx["type"] == "credit":
            self._release(tx["id"])
            self._move(user, amount)
            self._emit("credit_applied", tx["id"], user, amount)
            return None
        if tx["type"] == "transfer":
            if self.l2[user] < amount:
                self._emit("tx_failed", tx["id"], user, "insufficient funds")
                return None
            self._move(user, -amount)
            self._move(tx["to"], amount)
            self._emit("transfer_applied", tx["id"], user, tx["to"], amount)
            return None
        if self.l2[user] < amount:
            self._emit("tx_failed", tx["id"], user, "insufficient funds")
            self.pending.pop(tx["id"], None)
            return None
        self._move(user, -amount)
        self._hold(tx["id"], user, amount)
        self.pending[tx["id"]]["stage"] = "awaiting_root"
        self._emit("withdrawal_included", tx["id"], user, amount)
        return tx["id"]

    # -- state roots and claims -------------------------------------------------

    def _schedule_proposal(self, batch_time: int, wids: list[str]) -> None:
        ready = batch_time + self.p.proposal_delay
        if self.cfg.proof_system is ProofSystem.ZK:
            ready = max(ready, batch_time + self.p.prover_latency)
        at = next_l1_block(ready, self.p.l1_block_interval)
        self._push(at, _P_L1, "proposal_attempt", batch_time, wids)

    def _on_proposal_attempt(self, batch_time: int, wids: list[str]) -> None:
        blocked_until = self._ends(*self._root_effects)
        if blocked_until:
            retry = next_l1_block(max(blocked_until), self.p.l1_block_interval)
            self._emit("proposal_blocked", batch_time, retry)
            self._push(retry, _P_L1, "proposal_attempt", batch_time, wids)
            return
        self._emit("proposal", batch_time, len(wids))
        if self.cfg.proof_system is ProofSystem.ZK:
            final = self.now + self.p.finalization_depth * self.p.l1_block_interval
        else:
            final = self.now + self.cfg.challenge_window
        self._push(final, _P_L1, "root_finalized", batch_time, wids)

    def _on_root_finalized(self, batch_time: int, wids: list[str]) -> None:
        self._emit("root_finalized", batch_time, len(wids))
        for wid in wids:
            if wid in self.pending:
                self.pending[wid]["stage"] = "claimable"
                self._push(self.now, _P_L1, "claim", wid)

    def _on_claim(self, wid: str) -> None:
        if wid not in self.pending:
            return
        ends = self._ends("claims", "bridge")
        if ends:
            self.pending[wid]["stage"] = "claimable"
            retry = max(ends)
            self._emit("claim_deferred", wid, retry)
            self._push(retry, _P_L1, "claim", wid)
            return
        user, amount = self._release(wid)
        self.bridge_pool -= amount
        p = self.pending.pop(wid)
        latency = self.now - p["submitted"]
        self.latencies[user].append(latency)
        self._emit("withdrawal_claimed", wid, user, amount, latency)

    # -- fault windows, exploits, upgrades ----------------------------------------

    def _neutralized(self, kind: InjectionKind) -> str | None:
        """Why this config makes a fault of this kind hold up nothing, or None."""
        cfg = self.cfg
        if kind is InjectionKind.DA_WITHHOLDING and cfg.da.mode is DaMode.ONCHAIN:
            return "onchain data cannot be withheld"
        if kind is InjectionKind.PROPOSER_OUTAGE and not cfg.proposer.whitelist:
            return "permissionless proposers route around a stalled operator"
        provers = cfg.prover_set
        if kind is InjectionKind.PROVER_OUTAGE and provers is not None and provers.permissionless:
            return "permissionless provers route around a stalled operator"
        return None

    def _on_injection_start(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        reason = self._neutralized(inj.kind)
        if reason is None:
            self.active[idx] = inj
            self._emit("injection_start", inj.kind.value, inj.end)
        else:
            self._emit("injection_start", inj.kind.value, inj.end, reason)

    def _on_injection_end(self, idx: int) -> None:
        self.active.pop(idx, None)  # a neutralized fault never became active
        kind = self.sc.injections[idx].kind
        self._emit("injection_end", kind.value)
        if _FAULT_EFFECTS[kind] in ("sequencer", "censorship"):
            if (self.mempool or self.forced) and not self._ends("sequencer"):
                self._push(self.now, _P_BATCH, "recovery_batch")

    def _on_exploit(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        self._emit("exploit_attempted", inj.amount)
        land = next_l1_block(self.now, self.p.l1_block_interval)
        self._push(land, _P_L1, "invalid_root_landed", idx)

    def _on_invalid_root_landed(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        self._emit("invalid_root_landed", inj.amount)
        optimistic = self.cfg.proof_system is ProofSystem.OPTIMISTIC
        if self.cfg.state_validation_enforced and not optimistic:
            self._emit("root_rejected", "validity proof required")
            return
        if self.cfg.state_validation_enforced:
            deadline = self.now + self.cfg.challenge_window
            challenge_at = self._first_challenge_opportunity(self.now, deadline)
            if challenge_at is not None:
                self._push(challenge_at, _P_L1, "root_challenged", idx)
                return
            self._push(deadline, _P_L1, "invalid_root_finalized", idx)
            return
        # no enforced validation: nothing stands between the root and finality
        if optimistic:
            final = self.now + self.cfg.challenge_window
        else:
            final = self.now + self.p.finalization_depth * self.p.l1_block_interval
        self._push(final, _P_L1, "invalid_root_finalized", idx)

    def _first_challenge_opportunity(self, landed: int, deadline: int) -> int | None:
        """Earliest aligned instant in (landed, deadline) at which someone can
        submit a fraud proof, or None if whitelisted challengers are offline
        for the whole window."""
        interval = self.p.l1_block_interval
        candidate = landed + interval
        windows = sorted(
            (inj.at, inj.end)
            for inj in self.sc.injections
            if _FAULT_EFFECTS.get(inj.kind) == "proofs" and self._neutralized(inj.kind) is None
        )
        while True:
            moved = candidate
            for start, end in windows:
                if start <= moved < end:
                    moved = end
            moved = next_l1_block(moved, interval)
            if moved == candidate:
                return candidate if candidate < deadline else None
            candidate = moved

    def _on_root_challenged(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        self._emit("root_challenged", inj.amount)

    def _on_invalid_root_finalized(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        drained = min(inj.amount, self.bridge_pool)
        self.bridge_pool -= drained
        self.exploit_drained = True
        self._emit("invalid_root_finalized", inj.amount)
        self._emit("exploit_drain", drained, self.bridge_pool)

    def _holders(self) -> set[str]:
        """Users with funds on L2 or in flight."""
        holders = {u for u, b in self.l2.items() if b > 0}
        holders |= {u for u, a in self.inflight.values() if a > 0}
        return holders

    def _on_upgrade_announce(self) -> None:
        self.exit_denominator = self._holders()
        if self.cfg.upgrade.policy is UpgradePolicy.TIMELOCKED:
            activation = self.now + self.cfg.upgrade.window
        else:
            activation = self.now
        holders = sorted(self.exit_denominator)
        self._emit("upgrade_announced", activation, holders)
        self._push(activation, _P_UPGRADE, "upgrade_activated")

    def _on_upgrade_activated(self) -> None:
        if self.exit_denominator:
            exited = self.exit_denominator - self._holders()
            self.exit_coverage = len(exited) / len(self.exit_denominator)
        else:
            self.exit_coverage = None
        self._emit("upgrade_activated", self.exit_coverage)


# By kind, then by record length: a neutralized fault's start holds one
# value more, its ineffective note.
_LINE_FORMATS = {
    event: {len(fields) + 3: _line_format(event, fields)}
    for event, fields in _Run.TRACE_FIELDS.items()
}
_noted = (*_Run.TRACE_FIELDS["injection_start"], "ineffective")
_LINE_FORMATS["injection_start"][len(_noted) + 3] = _line_format("injection_start", _noted)
# The events view's keys: zip stops at the record's end, so a start that was
# not neutralized gets no ineffective key.
_FIELD_NAMES = {**_Run.TRACE_FIELDS, "injection_start": _noted}


def simulate(scenario: Scenario, seed: int = 0) -> SimResult:
    """Run a scenario to quiescence and summarize the harm it caused."""
    run = _Run(scenario, seed)
    run.execute()
    return run.result()
