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
  or on validity-proof systems after prover_latency if that is longer.
  Roots finalize after finalization_depth L1 blocks (validity proofs) or the
  challenge window (fraud proofs), and so does an unenforced invalid root.
  _Run reads the proof system once and keeps the finality delay.
  Withdrawals pay out from the bridge once their root is final; escape-hatch
  exits settle directly against finalized L1 state.
- A withdrawal's exit entry in _Run.pending is its own transaction, its
  stage (queued, awaiting_root, claimable) written on it; a hatch exit has
  no transaction and gets an entry of its own. An exit stays pending until
  it is claimed, fails or is dropped. A denial is recorded once, in
  _Run.denied, while the denied transaction waits for forced inclusion; a
  dropped one is never applied and counts its denial as it drops.
- The bridge escrow must always equal the sum of L2 balances and in-flight
  amounts. _move, _hold and _release are the only writers of those two
  ledgers and keep their running total, so the identity is tested after
  every event in constant time, by comparing two ints; mismatches are
  recorded, not raised.
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
  fault. The run keeps the stall answer until an event changes what it
  reads: the active faults, the exits in pending, or an exit's stage. Only
  then is it worked out again, which returns at once when no fault is
  active and otherwise looks up the root, claim and sequencer effects at
  most once each, not once per exit in flight.
- The engine's own events wait on a heap as (time, priority, sequence,
  kind, args). Workload actions never enter it: they come in time order as
  plain (at, action, user, amount, to) tuples, an explicit list's stably
  sorted by time, a random workload's drawn one at a time with no
  WorkloadAction built, and the next waits beside the heap as the entry its
  push would have made, numbered 1..n ahead of every pushed event. The loop
  takes whichever of the two sorts first, as one heap holding all would.
- The loop calls _on_<kind>(*args) from a per-run table of handlers,
  each bound by _bind on first use and looked up on the instance so a
  subclass's handler is the one that runs. It records a violation under
  that kind's name only when the escrow and the running total differ, and
  updates the frozen-funds clock only while a fault is active or a frozen
  interval is open. With no fault active the handlers make no fault lookup
  (_ends, _censor_ends, _seq_accepting) at all: each guards its lookups
  with self.active.
- A run sim.horizon cuts ends at the horizon. Its open frozen interval and
  its denied transactions still unapplied count up to it, and a dropped
  transaction counts its denial up to the horizon at most.

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
writes of that dict, written straight from the record by one compiled
writer per kind (and one for a neutralized fault's start): an f-string with
its keys sorted and its name written in, reading each value from its slot.
Ids, reason texts and other tokens the engine chose go between quotes
unescaped; _JSON_FIELDS writes the upgrade's holders and its share as JSON
text; every other field is an int. A scenario name (user, to) is plain when
JSON writes it as itself between quotes. The first trace a result writes
decides once whether all its names are: a random workload's user-<n> are by
construction, an explicit list's distinct names are each checked. If so,
the names go between quotes like tokens, and a line is one writer lookup
and one call; a run with any other name has _JSON_FIELDS escape every name
it writes. Each of the two writer tables is compiled when a trace first
needs it, not at import. A record with no writer raises KeyError.
write_trace writes the lines _TRACE_CHUNK at a time. No JSON encoder is
involved, so the bytes do not depend on CPython's _json accelerator.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property
from heapq import heappop, heappush
from itertools import count
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from l2risk.model import DaMode, HarmMetrics, ProofSystem, UpgradePolicy
from l2risk.sim.scenario import Injection, InjectionKind, RandomWorkload, Scenario, WorkloadAction


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

# How a line writer writes the fields of _Run.TRACE_FIELDS: as JSON text by
# the writer here (scenario names escaped, unless every name in the run is
# plain; the upgrade's holders and share), as an engine-made token between
# quotes (such as actions checked against _ACTIONS), or else as an int.
_JSON_FIELDS = {
    "user": encode_basestring_ascii,
    "to": encode_basestring_ascii,
    "holders": lambda names: "[" + ",".join(map(encode_basestring_ascii, names)) + "]",
    "exit_coverage": lambda share: "null" if share is None else float.__repr__(share),
}
_TOKEN_FIELDS = frozenset({"id", "reason", "action", "type", "kind", "ineffective"})
# The scenario names: tokens too in a run whose every name is plain.
_NAME_FIELDS = frozenset({"user", "to"})
# The trace lines write_trace joins and writes at a time, so it never holds
# the whole trace as one string and its encoded copy.
_TRACE_CHUNK = 4096


def _line_format(
    event: str, fields: tuple[str, ...], plain_names: bool
) -> Callable[[tuple], str]:
    """The writer of one event kind's trace line: an f-string compiled from
    the record's slots (kind, t, i, *fields), its keys sorted and the event
    name written in, that reads each value straight from its slot and passes
    the fields of _JSON_FIELDS through their writers. With plain_names the
    names go between quotes as tokens. Only the engine's own key and event
    names reach the source, and its expressions hold no quote or backslash,
    so it compiles on every Python the project supports."""
    tokens = _TOKEN_FIELDS | _NAME_FIELDS if plain_names else _TOKEN_FIELDS
    slots = {"t": 1, "i": 2, **{key: 3 + j for j, key in enumerate(fields)}}
    parts = []
    for key in sorted((*slots, "event")):
        assert key.isascii() and key.isidentifier() and key.islower(), key
        if key == "event":
            assert event.isascii() and event.isidentifier() and event.islower(), event
            parts.append(f'"event":"{event}"')
        elif key in tokens:
            parts.append(f'"{key}":"{{r[{slots[key]}]}}"')
        elif key in _JSON_FIELDS:
            parts.append(f'"{key}":{{_{key}(r[{slots[key]}])}}')
        else:
            parts.append(f'"{key}":{{r[{slots[key]}]}}')
    writers = {"_" + key: write for key, write in _JSON_FIELDS.items()}
    return eval("lambda r: f'{{" + ",".join(parts) + "}}'", writers)


@dataclass(frozen=True)
class SimResult:
    scenario: str
    seed: int
    metrics: HarmMetrics
    # one (kind, t, i, *values) tuple per event, values in TRACE_FIELDS order
    records: tuple[tuple, ...]
    violations: tuple[dict, ...]
    # what the user and to names came from, read only to write the trace
    workload: RandomWorkload | tuple[WorkloadAction, ...] = field(compare=False, repr=False)

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

    @cached_property
    def _plain_names(self) -> bool:
        """Whether JSON writes every user and to name the run can write as
        itself between quotes: a random workload's user-<n> names are by
        construction; an explicit list's distinct names are each checked once."""
        if isinstance(self.workload, RandomWorkload):
            return True
        names = {a.user for a in self.workload}
        names.update(a.to for a in self.workload if a.to is not None)
        return all(encode_basestring_ascii(name) == f'"{name}"' for name in names)

    def trace_lines(self) -> list[str]:
        """One compact JSON object per event, stable across runs."""
        return self._lines(self.records)

    def _lines(self, records: tuple[tuple, ...]) -> list[str]:
        writers = _line_formats(self._plain_names)
        return [writers[r[0]][len(r)](r) for r in records]

    def write_trace(self, path: str | Path) -> None:
        """Write the trace lines, each ending in a newline, _TRACE_CHUNK at a
        time; no events write no bytes."""
        records = self.records
        with open(path, "w", encoding="utf-8") as out:
            for start in range(0, len(records), _TRACE_CHUNK):
                out.write("\n".join(self._lines(records[start : start + _TRACE_CHUNK])))
                out.write("\n")

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "event_count": len(self.records),
            "metrics": self.metrics.to_dict(),
            "conservation_violations": list(self.violations),
        }


class _Run:
    # Slots keep every self.<name> read of the event loop fast however many
    # attributes a run holds; CPython 3.11-3.13 keep at most 29 inline in a
    # __dict__.
    __slots__ = (
        "sc", "cfg", "p", "horizon", "seed", "now", "_heap", "_numbers", "records",
        "violations", "bridge_pool", "l2", "inflight", "accounted", "mempool", "forced",
        "_batch_grid", "_txid", "active", "_zk", "_root_effects", "_final_delay",
        "exploit_drained", "latencies", "censorship_window", "denied", "pending",
        "_stalled", "_frozen_accum", "_frozen_since", "exit_coverage",
    )

    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.sc = scenario
        self.cfg = scenario.config
        self.p = scenario.params
        self.horizon = math.inf if self.p.horizon is None else self.p.horizon
        self.seed = seed
        self.now = 0
        self._heap: list = []
        # numbers pushed events in push order, after any workload actions
        self._numbers = count(1)
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
        # a state root's rules: what holds up its proposal, and how long
        # after proposal it finalizes
        self._zk = zk = self.cfg.proof_system is ProofSystem.ZK
        self._root_effects = ("proposals", "proofs") if zk else ("proposals",)
        final_blocks = self.p.finalization_depth * self.p.l1_block_interval
        self._final_delay = final_blocks if zk else self.cfg.challenge_window
        self.exploit_drained = False
        self.latencies: dict[str, list[int]] = defaultdict(list)
        self.censorship_window = 0
        # tx id -> submission time of each denied transaction not yet applied
        self.denied: dict[str, int] = {}
        # exits in flight, tracked for the frozen-funds metric: a withdrawal's
        # transaction or a hatch exit's entry, each with user, submitted, stage
        self.pending: dict[str, dict] = {}
        # _exit_stalled's answer, or None once an event may have changed it:
        # set to None wherever active changes, an exit enters or leaves
        # pending, or an exit's stage is written; a hatch exit's entry and a
        # paid claim's exit leave the answer as it was
        self._stalled: bool | None = None
        self._frozen_accum = 0
        self._frozen_since: int | None = None

        self.exit_coverage: float | None = None

    # -- plumbing -----------------------------------------------------------

    def _push(self, t: int, prio: int, kind: str, *args) -> None:
        """Schedule _on_<kind>(*args) at t; kind also names the event in
        violation records."""
        heappush(self._heap, (t, prio, next(self._numbers), kind, args))

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
            self._numbers = count(sc.random_workload.actions + 1)
        else:
            # stable: same-instant actions keep their list order
            fields = attrgetter("at", "action", "user", "amount", "to")
            actions = map(fields, sorted(sc.actions, key=attrgetter("at")))
            self._numbers = count(len(sc.actions) + 1)
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
        pop = heappop
        check_conservation = self._check_conservation
        update_frozen = self._update_frozen
        bind = self._bind
        handlers: dict = {}
        horizon = self.horizon
        while True:
            if heap and heap[0] < following:
                t, _prio, _n, kind, args = pop(heap)
            elif following is not _NO_ACTION:
                t, _prio, _n, kind, args = following
                following = next(queued, _NO_ACTION)
            else:
                break
            if t > horizon:
                self._cut()
                break
            self.now = t
            try:
                handler = handlers[kind]
            except KeyError:
                handler = handlers[kind] = bind(kind)
            handler(*args)
            if self.bridge_pool != self.accounted:
                check_conservation(kind)
            if self.active or self._frozen_since is not None:
                update_frozen()
        if self._frozen_since is not None:
            self._frozen_accum += self.now - self._frozen_since
            self._frozen_since = None
        resummed = sum(self.l2.values()) + sum(a for _u, a in self.inflight.values())
        if resummed != self.accounted:
            raise RuntimeError(
                f"ledger total {self.accounted} != {resummed} summed afresh in {self.sc.name}"
            )

    def _bind(self, kind: str) -> Callable:
        """The handler of one event kind, bound once per run; looked up on
        the instance, so a subclass's handler runs."""
        return getattr(self, "_on_" + kind)

    def _cut(self) -> None:
        """End a run the horizon cuts at the horizon, not at its last event: a
        denied transaction still unapplied has waited until then."""
        self.now = self.horizon
        for submitted in self.denied.values():
            self.censorship_window = max(self.censorship_window, self.horizon - submitted)

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
            workload=self.sc.random_workload or self.sc.actions,
        )

    # -- fault-window predicates --------------------------------------------

    def _ends(self, *effects: str) -> list[int]:
        """End times of the active faults that hold up any of these effects."""
        return [inj.end for inj in self.active.values() if _FAULT_EFFECTS[inj.kind] in effects]

    def _censor_ends(self, user: str) -> list[int]:
        return [
            inj.end
            for inj in self.active.values()
            if _FAULT_EFFECTS[inj.kind] == "censorship" and (not inj.targets or user in inj.targets)
        ]

    def _seq_accepting(self, user: str) -> bool:
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
        """Open or close the frozen interval by the kept stall answer,
        working it out afresh only after an event cleared it."""
        stalled = self._stalled
        if stalled is None:
            stalled = self._stalled = self._exit_stalled()
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
        if self.active and self._ends("bridge"):
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
        }
        self._emit("tx_submitted", txid, action, user, amount)
        if action == "withdraw":
            tx["stage"] = "queued"
            self.pending[txid] = tx
            self._stalled = None
        if self.active and not self._seq_accepting(user):
            self._deny(tx)
        else:
            factor = self.p.degradation_factor if self.active and self._ends("admission") else 1
            admit = self.now + self.p.admission_latency * factor
            self._push(admit, _P_ADMIT, "tx_admitted", tx)

    def _on_tx_admitted(self, tx: dict) -> None:
        if self.active and not self._seq_accepting(tx["user"]):
            # the sequencer went away between submission and admission
            self._deny(tx)
            return
        self._emit("tx_admitted", tx["id"])
        self.mempool.append(tx)
        self._grid_batch(self.now)

    def _deny(self, tx: dict) -> None:
        if self.cfg.forced_inclusion.usable:
            deadline = self._queue_forced(tx)
            self.denied[tx["id"]] = tx["submitted"]
            self._emit("tx_queued_forced", tx["id"], deadline)
        else:
            self._emit("tx_dropped", tx["id"], "sequencer unavailable")
            self.pending.pop(tx["id"], None)
            self._stalled = None
            # counted up to the horizon, if one cuts the run first
            blocked_for = min(self._denial_end(tx["user"]), self.horizon) - tx["submitted"]
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
        # waiting on finality stalls nothing, so the stall answer stands
        self.pending[hid] = {"user": user, "submitted": submitted, "stage": "hatch_wait"}
        self._emit("hatch_exit_included", hid, user, amount)
        done = self.now + self.p.finalization_depth * self.p.l1_block_interval
        self._push(done, _P_L1, "claim", hid)

    # -- sequencing and batches ------------------------------------------------

    def _enqueue_l2(self, tx: dict) -> None:
        """Route a system transaction (deposit credit) toward L2 inclusion."""
        if not self.active or self._seq_accepting(tx["user"]):
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
        if self.active and self._ends("sequencer"):
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
        txid, kind, user, amount = tx["id"], tx["type"], tx["user"], tx["amount"]
        denied = self.denied
        if denied and txid in denied:
            del denied[txid]
            self.censorship_window = max(self.censorship_window, self.now - tx["submitted"])
        if kind == "credit":
            self._release(txid)
            self._move(user, amount)
            self._emit("credit_applied", txid, user, amount)
            return None
        if self.l2[user] < amount:
            self._emit("tx_failed", txid, user, "insufficient funds")
            self.pending.pop(txid, None)  # a transfer was never pending
            self._stalled = None
            return None
        self._move(user, -amount)
        if kind == "transfer":
            self._move(tx["to"], amount)
            self._emit("transfer_applied", txid, user, tx["to"], amount)
            return None
        self._hold(txid, user, amount)
        tx["stage"] = "awaiting_root"
        self._stalled = None
        self._emit("withdrawal_included", txid, user, amount)
        return txid

    # -- state roots and claims -------------------------------------------------

    def _schedule_proposal(self, batch_time: int, wids: list[str]) -> None:
        ready = batch_time + self.p.proposal_delay
        if self._zk:
            ready = max(ready, batch_time + self.p.prover_latency)
        at = next_l1_block(ready, self.p.l1_block_interval)
        self._push(at, _P_L1, "proposal_attempt", batch_time, wids)

    def _on_proposal_attempt(self, batch_time: int, wids: list[str]) -> None:
        blocked_until = self._ends(*self._root_effects) if self.active else None
        if blocked_until:
            retry = next_l1_block(max(blocked_until), self.p.l1_block_interval)
            self._emit("proposal_blocked", batch_time, retry)
            self._push(retry, _P_L1, "proposal_attempt", batch_time, wids)
            return
        self._emit("proposal", batch_time, len(wids))
        self._push(self.now + self._final_delay, _P_L1, "root_finalized", batch_time, wids)

    def _on_root_finalized(self, batch_time: int, wids: list[str]) -> None:
        self._emit("root_finalized", batch_time, len(wids))
        for wid in wids:
            self.pending[wid]["stage"] = "claimable"
            self._push(self.now, _P_L1, "claim", wid)
        self._stalled = None

    def _on_claim(self, wid: str) -> None:
        ends = self._ends("claims", "bridge") if self.active else None
        if ends:
            self.pending[wid]["stage"] = "claimable"
            self._stalled = None
            retry = max(ends)
            self._emit("claim_deferred", wid, retry)
            self._push(retry, _P_L1, "claim", wid)
            return
        user, amount = self._release(wid)
        self.bridge_pool -= amount
        # no claims or bridge fault holds it, so its leaving stalls nothing
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
            self._stalled = None
            self._emit("injection_start", inj.kind.value, inj.end)
        else:
            self._emit("injection_start", inj.kind.value, inj.end, reason)

    def _on_injection_end(self, idx: int) -> None:
        self.active.pop(idx, None)  # a neutralized fault never became active
        self._stalled = None
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
        final = self.now + self._final_delay
        if self.cfg.state_validation_enforced:
            if self._zk:
                self._emit("root_rejected", "validity proof required")
                return
            challenge_at = self._first_challenge_opportunity(self.now, final)
            if challenge_at is not None:
                self._push(challenge_at, _P_L1, "root_challenged", idx)
                return
        # unenforced, or no challenger came: nothing stops the root finalizing
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
        holders = self._holders()
        if self.cfg.upgrade.policy is UpgradePolicy.TIMELOCKED:
            activation = self.now + self.cfg.upgrade.window
        else:
            activation = self.now
        self._emit("upgrade_announced", activation, sorted(holders))
        self._push(activation, _P_UPGRADE, "upgrade_activated", holders)

    def _on_upgrade_activated(self, holders: set[str]) -> None:
        """Exit coverage: the share of the announced holders gone by activation."""
        if holders:
            exited = holders - self._holders()
            self.exit_coverage = len(exited) / len(holders)
        else:
            self.exit_coverage = None
        self._emit("upgrade_activated", self.exit_coverage)


# The events view's keys, and the line writers' fields: zip stops at the
# record's end, so a start that was not neutralized gets no ineffective key.
_FIELD_NAMES = {
    **_Run.TRACE_FIELDS,
    "injection_start": (*_Run.TRACE_FIELDS["injection_start"], "ineffective"),
}


@cache
def _line_formats(plain_names: bool) -> dict[str, dict[int, Callable[[tuple], str]]]:
    """Each kind's line writers by record length: a neutralized fault's start
    holds one value more, its ineffective note. Two tables, each compiled on
    first use and kept: names written as JSON text, for any run, and as
    tokens (plain_names), for a run whose every name is plain."""
    writers = {
        event: {len(fields) + 3: _line_format(event, fields, plain_names)}
        for event, fields in _Run.TRACE_FIELDS.items()
    }
    noted = _FIELD_NAMES["injection_start"]
    writers["injection_start"][len(noted) + 3] = _line_format("injection_start", noted, plain_names)
    return writers


def simulate(scenario: Scenario, seed: int = 0) -> SimResult:
    """Run a scenario to quiescence and summarize the harm it caused."""
    if type(seed) is not int:  # the metrics write it as JSON, where true is not 1
        raise ValueError(f"seed must be an integer, not {seed!r}")
    run = _Run(scenario, seed)
    run.execute()
    return run.result()
