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
  recovery batch a sequencer or censorship fault's end pushes (the only batch
  that reads the queue, as only such an end lets a user back in) or direct
  L1 inclusion after the forced-inclusion timeout, which bounds inclusion
  delay by timeout plus one L1 block however long the outage lasts. A
  deposit credit for a user shut out joins the queue too, with no deadline
  when forced inclusion is unusable.
- Every landed batch gets a state root: proposable after proposal_delay,
  or on validity-proof systems after prover_latency if that is longer.
  Roots finalize after finalization_depth L1 blocks (validity proofs) or the
  challenge window (fraud proofs), and so does an unenforced invalid root.
  _Run reads the proof system once and keeps the finality delay.
  Withdrawals pay out from the bridge once their root is final; escape-hatch
  exits settle directly against finalized L1 state.
- _Run.pending keeps a table for each stage of an exit in flight (queued,
  admitted, awaiting_root, claimable) that some fault window of the run
  holds (_holding), mapping its id to a withdrawal's transaction or a hatch
  exit's entry, which carries since, when it entered its table. No part of
  a stay in a stage no window holds is frozen, so that stage has no entries,
  and a fault-free run writes no table. An exit moves from stage to stage
  (_restage), called only out of or into a stage some window holds, so a
  fault-free run makes no call, and rides its own proposal, root and claim
  events; one in a batch on its way to L1 is in no table, nor is one whose
  claim is due, and an exit enters claimable only at its claim's first
  deferral.
- Each denial is counted once, as it happens (_deny): a forced-queued
  transaction until it is included, a dropped one until _let_in_at, the
  first instant no window shuts its user out, the user's overlapping
  windows, the ones not yet begun too, run on as one. That instant also
  tells whether a recovery batch or the deadline includes a forced entry.
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
  offchain data hatch exits need. _Run resolves each window once, as the
  run starts; one the config routes around (_neutralized) is only noted.
- Funds count as frozen while some exit sits in a stage an active fault
  holds (_holding): queued while its user is shut out, admitted while the
  sequencer is down (it waits in the mempool, so a censorship does not hold
  it), awaiting a root no one may propose or prove, or claimable while
  claims or the bridge are held. Each stay is clipped to those windows
  once, as it ends; frozen_funds_duration is the length of the union of
  the held parts.
- The engine's own events wait on a heap as (time, priority, sequence,
  kind, args). Workload actions never enter it: they come in time order as
  plain (at, action, user, amount, to) tuples, an explicit list's stably
  sorted by time, a random workload's drawn one at a time with no
  WorkloadAction built, and the next waits beside the heap as the entry its
  push would have made, numbered 1..n. Pushed events are numbered on their
  own, from 1 in push order: none has an action's priority, so time and
  priority settle which of the two sorts first, and the loop takes it, as
  one heap holding all would.
- The loop calls _on_<kind>(*args) from a per-run table of handlers,
  each bound by _bind on first use and looked up on the instance so a
  subclass's handler is the one that runs. It records a violation under
  that kind's name only when the escrow and the running total differ.
  With no fault active the handlers make no fault lookup (_ends,
  _access_ends) at all: each guards its lookups with self.active.
- A run sim.horizon cuts ends at the horizon: its open stays count up to
  it, and no denial counts past it.
- simulate executes a run with the cyclic garbage collector paused and
  restores the collector's previous state after, also when a handler
  raises. A run makes no reference cycles, so each of its objects goes when
  its last reference does: the pause frees nothing later than the collector
  would have, and spares its passes over records that cannot be garbage.

An invalid state root injected by an attacker finalizes only when state
validation is not enforced, or on a fraud-proof system whose whitelisted
challengers are all offline for the entire challenge window.

Runs are deterministic: with the same scenario and seed the event trace is
byte-identical.

Each event is recorded as one tuple, (kind, t, i, *values), its values in
the order _Run.TRACE_FIELDS lists the fields of its kind; a neutralized
fault's start holds one value more, its ineffective note. Each handler
appends its own (kind, t, i, *values) to _Run.records, i being the number of
records before it.
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

import gc
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
from l2risk.sim.scenario import InjectionKind, RandomWorkload, Scenario, WorkloadAction


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
_ACCESS = ("sequencer", "censorship")  # the effects that shut a user out

# Same-instant ordering: fault windows close before anything else runs, L1
# landings precede sequencer work, a recovery batch precedes the grid tick
# (so the entries it frees share a batch with the mempool), user actions come
# late, and upgrade bookkeeping runs last to see the settled second.
_P_END, _P_START, _P_L1, _P_ADMIT, _P_RECOVER, _P_BATCH, _P_ACTION, _P_UPGRADE = range(8)
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


def _first_clear(windows: list[tuple], t: int, grid: int) -> int:
    """The first instant at or after t on this grid that no window holds; the
    windows, (start, end, ...) holding [start, end), come sorted by start."""
    t = next_l1_block(t, grid)
    for start, end, *_ in windows:
        if start <= t < end:
            t = next_l1_block(end, grid)
    return t


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
        "_batch_grid", "_txid", "_windows", "active", "_zk", "_root_effects", "_final_delay",
        "exploit_drained", "latencies", "censorship_window", "pending", "_holding", "_held",
        "exit_coverage",
    )

    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.sc = scenario
        self.cfg = scenario.config
        self.p = scenario.params
        self.horizon = math.inf if self.p.horizon is None else self.p.horizon
        self.seed = seed
        self.now = 0
        self._heap: list = []
        # numbers pushed events in push order; an action's number never meets
        # one, as no event is pushed at _P_ACTION
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
        # the last batch slot scheduled: slots move forward only, as now does
        self._batch_grid: int | None = None
        self._txid = 0

        # injection index -> (start, end, effect, users shut out or None for
        # all), in start order; a fault the config routes around has its note
        self._windows: dict[int, tuple | str] = {
            idx: self._neutralized(inj.kind)
            or (inj.at, inj.end, _FAULT_EFFECTS[inj.kind], frozenset(inj.targets) or None)
            for idx, inj in sorted(enumerate(scenario.injections), key=lambda pair: pair[1].at)
            if inj.kind in _FAULT_EFFECTS
        }
        self.active: dict[int, tuple] = {}
        # a state root's rules: what holds up its proposal, and how long
        # after proposal it finalizes
        self._zk = zk = self.cfg.proof_system is ProofSystem.ZK
        self._root_effects = ("proposals", "proofs") if zk else ("proposals",)
        final_blocks = self.p.finalization_depth * self.p.l1_block_interval
        self._final_delay = final_blocks if zk else self.cfg.challenge_window
        self.exploit_drained = False
        self.latencies: dict[str, list[int]] = defaultdict(list)
        self.censorship_window = 0
        # exits in flight, tracked for the frozen-funds metric: stage -> id ->
        # a withdrawal's transaction or a deferred claim's exit, each with
        # since, when it entered that table; only a held stage's has entries
        self.pending: dict[str, dict] = {
            "queued": {}, "admitted": {}, "awaiting_root": {}, "claimable": {}
        }
        # stage -> (start, end, users held or None for all) of each window
        # that holds an exit in that stage while active
        holds = {"queued": _ACCESS, "admitted": ("sequencer",), "claimable": ("claims", "bridge")}
        holds["awaiting_root"] = self._root_effects
        windows = [w for w in self._windows.values() if type(w) is tuple]
        self._holding = {
            stage: [(s, e, users) for s, e, effect, users in windows if effect in effects]
            for stage, effects in holds.items()
        }
        # (start, end) of each part of an ended stay that a window held
        self._held: list[tuple[int, int]] = []

        self.exit_coverage: float | None = None

    # -- plumbing -----------------------------------------------------------

    def _push(self, t: int, prio: int, kind: str, *args) -> None:
        """Schedule _on_<kind>(*args) at t; kind also names the event in
        violation records."""
        heappush(self._heap, (t, prio, next(self._numbers), kind, args))

    # The payload of every event, in record order after its kind, t and i,
    # as each handler appends its own (kind, t, i, *values): the one list of
    # what a trace line holds. _line_format writes each field as _JSON_FIELDS
    # and _TOKEN_FIELDS say.
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

    def _new_id(self, prefix: str) -> str:
        self._txid += 1
        return f"{prefix}-{self._txid}"

    def execute(self) -> None:
        sc = self.sc
        if sc.random_workload is not None:
            actions = sc.random_workload.stream(self.seed)
        else:
            # stable: same-instant actions keep their list order
            fields = attrgetter("at", "action", "user", "amount", "to")
            actions = map(fields, sorted(sc.actions, key=attrgetter("at")))
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
        # of it and the heap's top has the lower (t, priority), which no
        # number settles: no event is pushed at _P_ACTION.
        queued = ((d[0], _P_ACTION, k, "action", d[1:]) for k, d in enumerate(actions, 1))
        following = next(queued, _NO_ACTION)
        heap = self._heap
        pop = heappop
        check_conservation = self._check_conservation
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
                self.now = horizon
                break
            self.now = t
            try:
                handler = handlers[kind]
            except KeyError:
                handler = handlers[kind] = bind(kind)
            handler(*args)
            if self.bridge_pool != self.accounted:
                check_conservation(kind)
        resummed = sum(self.l2.values()) + sum(a for _u, a in self.inflight.values())
        if resummed != self.accounted:
            raise RuntimeError(
                f"ledger total {self.accounted} != {resummed} summed afresh in {self.sc.name}"
            )

    def _bind(self, kind: str) -> Callable:
        """The handler of one event kind, bound once per run; looked up on
        the instance, so a subclass's handler runs."""
        return getattr(self, "_on_" + kind)

    def result(self) -> SimResult:
        metrics = HarmMetrics(
            withdrawal_latency=self.latencies,
            frozen_funds_duration=self._frozen(),
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
        return [end for _start, end, effect, _users in self.active.values() if effect in effects]

    def _access_ends(self, user: str) -> list[int]:
        """End times of the active faults that shut this user out of the sequencer."""
        return [
            end
            for _start, end, effect, users in self.active.values()
            if effect in _ACCESS and (users is None or user in users)
        ]

    def _hatch_blocked(self) -> str | None:
        """Why a hatch exit is refused: the first blocking fault in start order."""
        for window in self.active.values():
            reason = _HATCH_BLOCKED.get(window[2])
            if reason is not None:
                return reason
        return None

    # -- metric bookkeeping --------------------------------------------------

    def _restage(self, stage: str, exit_: dict, to: str | None = None) -> None:
        """Move an exit out of a stage and into the to stage, if any, from
        now. Only a held stage has a table: out of one, the exit is taken
        from it and the held parts of its stay there are kept; into one, it
        is entered."""
        holding = self._holding
        if holding[stage]:
            self._keep_held(stage, self.pending[stage].pop(exit_["id"]), self._held)
        if to is not None and holding[to]:
            exit_["since"] = self.now
            self.pending[to][exit_["id"]] = exit_

    def _keep_held(self, stage: str, exit_: dict, held: list) -> None:
        """Append to held each part of the exit's stay in a stage, from its
        since to now, that a window holding that stage covers."""
        since, now, user = exit_["since"], self.now, exit_["user"]
        for start, end, users in self._holding[stage]:
            if users is None or user in users:
                lo, hi = max(start, since), min(end, now)
                if lo < hi:
                    held.append((lo, hi))

    def _frozen(self) -> int:
        """frozen_funds_duration: the length of the union of the held parts,
        a stay still open counting up to now."""
        held = self._held[:]
        for stage, table in self.pending.items():
            for exit_ in table.values():
                self._keep_held(stage, exit_, held)
        frozen = reach = 0
        for start, end in sorted(held):
            if end > reach:
                frozen += end - max(start, reach)
                reach = end
        return frozen

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
        records = self.records
        if self.active and self._ends("bridge"):
            reason = "bridge unavailable"
            records.append(("action_rejected", self.now, len(records), "deposit", user, reason))
            return
        pid = self._new_id("dep")
        records.append(("deposit_submitted", self.now, len(records), pid, user, amount))
        land = next_l1_block(self.now, self.p.l1_block_interval)
        self._push(land, _P_L1, "deposit_landed", pid, user, amount)

    def _on_deposit_landed(self, pid: str, user: str, amount: int) -> None:
        self.bridge_pool += amount
        self._hold(pid, user, amount)
        records = self.records
        records.append(("deposit_landed", self.now, len(records), pid, user, amount))
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
        records = self.records
        records.append(("tx_submitted", self.now, len(records), txid, action, user, amount))
        if action == "withdraw" and self._holding["queued"]:
            tx["since"] = self.now
            self.pending["queued"][txid] = tx
        if self.active and self._access_ends(user):
            self._deny(tx)
        else:
            factor = self.p.degradation_factor if self.active and self._ends("admission") else 1
            admit = self.now + self.p.admission_latency * factor
            self._push(admit, _P_ADMIT, "tx_admitted", tx)

    def _on_tx_admitted(self, tx: dict) -> None:
        if self.active and self._access_ends(tx["user"]):
            # the sequencer went away between submission and admission
            self._deny(tx)
            return
        records = self.records
        records.append(("tx_admitted", self.now, len(records), tx["id"]))
        holding = self._holding
        if tx["type"] == "withdraw" and (holding["queued"] or holding["admitted"]):
            self._restage("queued", tx, "admitted")
        self.mempool.append(tx)
        self._grid_batch(self.now)

    def _deny(self, tx: dict) -> None:
        """Queue or drop a transaction whose user is shut out, and count its
        denial at once, up to the horizon if one cuts the run first."""
        records = self.records
        if self.cfg.forced_inclusion.usable:
            deadline, included = self._queue_forced(tx)
            records.append(("tx_queued_forced", self.now, len(records), tx["id"], deadline))
        else:
            reason = "sequencer unavailable"
            records.append(("tx_dropped", self.now, len(records), tx["id"], reason))
            if tx["type"] == "withdraw":
                self._restage("queued", tx)
            included = self._let_in_at(tx["user"])
        blocked_for = min(included, self.horizon) - tx["submitted"]
        self.censorship_window = max(self.censorship_window, blocked_for)

    def _let_in_at(self, user: str) -> int:
        """The first instant from now that no window shuts this user out: the
        user's overlapping windows, the ones not yet begun too, run on as one.
        Those that shut users out are the ones holding the queued stage, in
        start order."""
        chain = [w for w in self._holding["queued"] if w[2] is None or user in w[2]]
        return _first_clear(chain, self.now, 1)

    def _do_hatch(self, user: str, amount: int) -> None:
        records = self.records
        enabled = self.cfg.escape_hatch.enabled
        reason = self._hatch_blocked() if enabled else "escape hatch disabled"
        if reason is not None:
            records.append(("action_rejected", self.now, len(records), "hatch-exit", user, reason))
            return
        hid = self._new_id("hx")
        records.append(("hatch_exit_submitted", self.now, len(records), hid, user))
        land = next_l1_block(self.now, self.p.l1_block_interval)
        self._push(land, _P_L1, "hatch_included", hid, user, amount, self.now)

    def _on_hatch_included(self, hid: str, user: str, requested: int, submitted: int) -> None:
        balance = self.l2[user]
        amount = balance if requested == 0 else min(requested, balance)
        records = self.records
        if amount <= 0:
            records.append(("tx_failed", self.now, len(records), hid, user, "nothing to exit"))
            return
        self._move(user, -amount)
        self._hold(hid, user, amount)
        records.append(("hatch_exit_included", self.now, len(records), hid, user, amount))
        # waiting on finality stalls nothing, so the exit enters no table yet
        done = self.now + self.p.finalization_depth * self.p.l1_block_interval
        self._push(done, _P_L1, "claim", {"id": hid, "user": user, "submitted": submitted})

    # -- sequencing and batches ------------------------------------------------

    def _enqueue_l2(self, tx: dict) -> None:
        """Route a system transaction (deposit credit) toward L2 inclusion."""
        if not self.active or not self._access_ends(tx["user"]):
            self.mempool.append(tx)
            self._grid_batch(self.now)
        elif self.cfg.forced_inclusion.usable:
            self._queue_forced(tx)
        else:
            # no deadline: it waits for the recovery batch that lets its user in
            self.forced[tx["id"]] = tx

    def _queue_forced(self, tx: dict) -> tuple[int, int]:
        """Put a transaction on the forced queue; returns its L1 deadline and
        when it is included: by the recovery batch of the instant its user is
        let back in, if before the deadline, else at the deadline, which runs
        before the recovery batch of its instant."""
        tx["entry"] = self.now
        self.forced[tx["id"]] = tx
        interval = self.p.l1_block_interval
        deadline = next_l1_block(self.now + self.cfg.forced_inclusion.timeout, interval)
        let_in = self._let_in_at(tx["user"])
        if let_in < deadline:
            return deadline, next_l1_block(let_in, interval)
        self._push(deadline, _P_L1, "forced_deadline", tx["id"])
        return deadline, deadline

    def _grid_batch(self, t: int) -> None:
        bi = self.p.batch_interval
        bt = -(-t // bi) * bi
        if bt != self._batch_grid:
            self._batch_grid = bt
            self._push(bt, _P_BATCH, "batch_tick")

    def _on_batch_tick(self) -> None:
        if self.active and self._ends("sequencer"):
            return
        self._make_batch(self.mempool)

    def _on_recovery_batch(self) -> None:
        """Batch the forced entries of users let back in, then the mempool."""
        if self.active and self._ends("sequencer"):
            return
        kept = {i: tx for i, tx in self.forced.items() if self._access_ends(tx["user"])}
        freed = [tx for i, tx in self.forced.items() if i not in kept]
        self.forced = kept
        for tx in freed:
            if tx["type"] == "withdraw":
                self._restage("queued", tx)
        self._make_batch(freed + self.mempool)

    def _make_batch(self, txs: list[dict]) -> None:
        if not txs:
            return
        self.mempool = []
        for exit_ in [*self.pending["admitted"].values()]:  # in the mempool, so in this batch
            self._restage("admitted", exit_)
        land = next_l1_block(self.now, self.p.l1_block_interval)
        records = self.records
        records.append(("batch_created", self.now, len(records), len(txs), land))
        self._push(land, _P_L1, "batch_landed", txs)

    def _on_batch_landed(self, txs: list[dict]) -> None:
        records = self.records
        records.append(("batch_landed", self.now, len(records), len(txs)))
        withdrawals = [tx for tx in txs if self._apply_tx(tx)]
        self._schedule_proposal(self.now, withdrawals)

    def _on_forced_deadline(self, txid: str) -> None:
        tx = self.forced.pop(txid)
        if tx["type"] == "withdraw":
            self._restage("queued", tx)
        records = self.records
        records.append(("forced_inclusion", self.now, len(records), txid, self.now - tx["entry"]))
        withdrawals = [tx] if self._apply_tx(tx) else []
        self._schedule_proposal(self.now, withdrawals)

    def _apply_tx(self, tx: dict) -> bool:
        """Apply one included transaction; returns whether it included a
        withdrawal, which awaits its root from now."""
        txid, kind, user, amount = tx["id"], tx["type"], tx["user"], tx["amount"]
        records = self.records
        if kind == "credit":
            self._release(txid)
            self._move(user, amount)
            records.append(("credit_applied", self.now, len(records), txid, user, amount))
            return False
        if self.l2[user] < amount:
            records.append(("tx_failed", self.now, len(records), txid, user, "insufficient funds"))
            return False
        self._move(user, -amount)
        if kind == "transfer":
            to = tx["to"]
            self._move(to, amount)
            records.append(("transfer_applied", self.now, len(records), txid, user, to, amount))
            return False
        self._hold(txid, user, amount)
        if self._holding["awaiting_root"]:
            tx["since"] = self.now
            self.pending["awaiting_root"][txid] = tx
        records.append(("withdrawal_included", self.now, len(records), txid, user, amount))
        return True

    # -- state roots and claims -------------------------------------------------

    def _schedule_proposal(self, batch_time: int, withdrawals: list[dict]) -> None:
        ready = batch_time + self.p.proposal_delay
        if self._zk:
            ready = max(ready, batch_time + self.p.prover_latency)
        at = next_l1_block(ready, self.p.l1_block_interval)
        self._push(at, _P_L1, "proposal_attempt", batch_time, withdrawals)

    def _on_proposal_attempt(self, batch_time: int, withdrawals: list[dict]) -> None:
        records = self.records
        blocked_until = self._ends(*self._root_effects) if self.active else None
        if blocked_until:
            retry = next_l1_block(max(blocked_until), self.p.l1_block_interval)
            records.append(("proposal_blocked", self.now, len(records), batch_time, retry))
            self._push(retry, _P_L1, "proposal_attempt", batch_time, withdrawals)
            return
        records.append(("proposal", self.now, len(records), batch_time, len(withdrawals)))
        self._push(self.now + self._final_delay, _P_L1, "root_finalized", batch_time, withdrawals)

    def _on_root_finalized(self, batch_time: int, withdrawals: list[dict]) -> None:
        records = self.records
        records.append(("root_finalized", self.now, len(records), batch_time, len(withdrawals)))
        held = self._holding["awaiting_root"]
        for tx in withdrawals:
            if held:
                self._restage("awaiting_root", tx)
            self._push(self.now, _P_L1, "claim", tx)

    def _on_claim(self, exit_: dict) -> None:
        """Pay out an exit, or defer it, claimable from its first deferral,
        while claims or the bridge are held."""
        xid = exit_["id"]
        records = self.records
        claimable = self.pending["claimable"]
        ends = self._ends("claims", "bridge") if self.active else None
        if ends:
            if xid not in claimable:
                exit_["since"] = self.now
                claimable[xid] = exit_
            retry = max(ends)
            records.append(("claim_deferred", self.now, len(records), xid, retry))
            self._push(retry, _P_L1, "claim", exit_)
            return
        user, amount = self._release(xid)
        self.bridge_pool -= amount
        if xid in claimable:
            self._restage("claimable", exit_)
        latency = self.now - exit_["submitted"]
        self.latencies[user].append(latency)
        records.append(("withdrawal_claimed", self.now, len(records), xid, user, amount, latency))

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
        window = self._windows[idx]
        records = self.records
        record = ("injection_start", self.now, len(records), inj.kind.value, inj.end)
        if type(window) is tuple:
            self.active[idx] = window
            records.append(record)
        else:
            records.append((*record, window))

    def _on_injection_end(self, idx: int) -> None:
        window = self.active.pop(idx, None)  # a neutralized fault never became active
        kind = self.sc.injections[idx].kind.value
        records = self.records
        records.append(("injection_end", self.now, len(records), kind))
        if window and window[2] in _ACCESS and (self.mempool or self.forced):
            if not self._ends("sequencer"):
                self._push(self.now, _P_RECOVER, "recovery_batch")

    def _on_exploit(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        records = self.records
        records.append(("exploit_attempted", self.now, len(records), inj.amount))
        land = next_l1_block(self.now, self.p.l1_block_interval)
        self._push(land, _P_L1, "invalid_root_landed", idx)

    def _on_invalid_root_landed(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        records = self.records
        records.append(("invalid_root_landed", self.now, len(records), inj.amount))
        final = self.now + self._final_delay
        if self.cfg.state_validation_enforced:
            if self._zk:
                records.append(("root_rejected", self.now, len(records), "validity proof required"))
                return
            # the first L1 block after landing that no prover outage holds
            proofs = [w for w in self._windows.values() if type(w) is tuple and w[2] == "proofs"]
            challenge_at = _first_clear(proofs, self.now + 1, self.p.l1_block_interval)
            if challenge_at < final:
                self._push(challenge_at, _P_L1, "root_challenged", idx)
                return
        # unenforced, or no challenger came: nothing stops the root finalizing
        self._push(final, _P_L1, "invalid_root_finalized", idx)

    def _on_root_challenged(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        records = self.records
        records.append(("root_challenged", self.now, len(records), inj.amount))

    def _on_invalid_root_finalized(self, idx: int) -> None:
        inj = self.sc.injections[idx]
        drained = min(inj.amount, self.bridge_pool)
        self.bridge_pool -= drained
        self.exploit_drained = True
        records = self.records
        records.append(("invalid_root_finalized", self.now, len(records), inj.amount))
        records.append(("exploit_drain", self.now, len(records), drained, self.bridge_pool))

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
        records = self.records
        records.append(("upgrade_announced", self.now, len(records), activation, sorted(holders)))
        self._push(activation, _P_UPGRADE, "upgrade_activated", holders)

    def _on_upgrade_activated(self, holders: set[str]) -> None:
        """Exit coverage: the share of the announced holders gone by activation."""
        if holders:
            exited = holders - self._holders()
            self.exit_coverage = len(exited) / len(holders)
        else:
            self.exit_coverage = None
        records = self.records
        records.append(("upgrade_activated", self.now, len(records), self.exit_coverage))


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
    collecting = gc.isenabled()
    gc.disable()  # a run makes no reference cycles, so the collector finds nothing
    try:
        run.execute()
    finally:
        if collecting:
            gc.enable()
    return run.result()
