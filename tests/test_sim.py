import copy
import dataclasses
import gc
import hashlib
import heapq
import itertools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
from collections import defaultdict
from functools import reduce
from pathlib import Path
from types import ModuleType

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l2risk.data import fixture_path, scenario_names
from l2risk.model import (
    DAY,
    HOUR,
    DaConfig,
    DaMode,
    EscapeHatchConfig,
    ForcedInclusionConfig,
    IncidentClass,
    ProofSystem,
    ProposerConfig,
    ProverSetConfig,
    RollupConfig,
    SequencerConfig,
    UpgradeConfig,
    UpgradePolicy,
)
from l2risk.schemas import load_schema
from l2risk.sim import (
    Injection,
    InjectionKind,
    RandomWorkload,
    Scenario,
    ScenarioError,
    SimParams,
    WorkloadAction,
    load_bundled_scenario,
    load_scenario,
    next_l1_block,
    parse_scenario,
    simulate,
)
from l2risk.sim import engine as sim_engine
from l2risk.sim.engine import (
    _FAULT_EFFECTS,
    _P_ACTION,
    _P_BATCH,
    _P_END,
    _P_L1,
    _P_START,
    _P_UPGRADE,
    SimResult,
    _first_clear,
    _Run,
)

ZK_ONCHAIN = {"proof_system": "zk", "da": {"mode": "onchain"}}


def _scenario(**overrides) -> dict:
    raw = {"config": dict(ZK_ONCHAIN)}
    raw.update(overrides)
    return raw


def _events(result, name):
    return [e for e in result.events if e["event"] == name]


def _workload(scenario: Scenario, seed: int) -> tuple[WorkloadAction, ...]:
    """The scenario's actions as validated WorkloadActions: its random
    workload materialized on seed, else its explicit list."""
    if scenario.random_workload is not None:
        return scenario.random_workload.materialize(seed)
    return scenario.actions


class TestScenarioParsing:
    def test_minimal_document(self):
        sc = parse_scenario(_scenario(), name="bare")
        assert sc.name == "bare"
        assert sc.params == SimParams()
        assert _workload(sc, seed=0) == ()

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            parse_scenario(_scenario(extra=1))

    def test_config_required(self):
        with pytest.raises(ScenarioError, match="config"):
            parse_scenario({"workload": {}})

    def test_unknown_injection_kind(self):
        with pytest.raises(ScenarioError):
            parse_scenario(_scenario(injections=[{"kind": "meteor-strike", "at": 0, "duration": 5}]))

    def test_exploit_needs_amount_not_duration(self):
        with pytest.raises(ScenarioError, match="amount"):
            Injection(InjectionKind.EXPLOIT_USER_RISK, at=0)
        with pytest.raises(ScenarioError, match="instantaneous"):
            Injection(InjectionKind.EXPLOIT_USER_RISK, at=0, duration=9, amount=5)

    def test_windowed_injection_needs_duration(self):
        with pytest.raises(ScenarioError, match="duration"):
            Injection(InjectionKind.SEQUENCER_OUTAGE, at=0)

    @pytest.mark.parametrize("kind", ["sequencer-outage", IncidentClass.SEQUENCER_OUTAGE, None, 3])
    def test_injection_kind_must_be_an_injection_kind(self, kind):
        message = f"kind must be an InjectionKind, not {kind!r}"
        with pytest.raises(ScenarioError, match="^" + re.escape(message)):
            Injection(kind=kind, at=0, duration=10)

    def test_targets_only_for_censorship(self):
        with pytest.raises(ScenarioError, match="targets"):
            Injection(InjectionKind.SEQUENCER_OUTAGE, at=0, duration=5, targets=("u",))

    def test_workload_exclusive(self):
        with pytest.raises(ScenarioError, match="either explicit or random"):
            parse_scenario(
                _scenario(workload={"actions": [], "random": {"users": 1}})
            )

    def test_action_validation(self):
        with pytest.raises(ScenarioError, match="unknown action"):
            WorkloadAction(0, "steal", "u", 5)
        with pytest.raises(ScenarioError, match="distinct recipient"):
            WorkloadAction(0, "transfer", "u", 5, to="u")
        with pytest.raises(ScenarioError, match="positive amount"):
            WorkloadAction(0, "deposit", "u", 0)
        # hatch-exit amount 0 means "everything"
        WorkloadAction(0, "hatch-exit", "u", 0)

    def test_sim_overrides_and_bad_values(self):
        sc = parse_scenario(_scenario(sim={"prover_latency": 60, "horizon": 1000}))
        assert sc.params.prover_latency == 60
        assert sc.params.horizon == 1000
        with pytest.raises(ScenarioError, match="unknown sim keys"):
            parse_scenario(_scenario(sim={"warp_speed": 1}))
        with pytest.raises(ScenarioError, match="must be an integer"):
            parse_scenario(_scenario(sim={"prover_latency": "fast"}))

    @pytest.mark.parametrize("value", [True, False, 0.5, 100.0])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: WorkloadAction(v, "deposit", "u", 5),
            lambda v: WorkloadAction(0, "deposit", "u", v),
            lambda v: WorkloadAction(0, "hatch-exit", "u", v),
            lambda v: Injection(InjectionKind.SEQUENCER_OUTAGE, at=v, duration=5),
            lambda v: Injection(InjectionKind.SEQUENCER_OUTAGE, at=0, duration=v),
            lambda v: Injection(InjectionKind.EXPLOIT_USER_RISK, at=0, amount=v),
            lambda v: SimParams(prover_latency=v),
            lambda v: SimParams(degradation_factor=v),
            lambda v: SimParams(horizon=v),
            lambda v: RandomWorkload(users=v),
            lambda v: RandomWorkload(actions=v),
            lambda v: RandomWorkload(horizon=v),
            lambda v: RandomWorkload(max_amount=v),
            lambda v: Scenario("s", RollupConfig(), upgrade_at=v),
        ],
    )
    def test_python_built_inputs_take_only_exact_ints(self, build, value):
        # the trace writes int fields with %d, which would turn True into 1
        # and 0.5 into 0 where json.dumps writes true and 0.5
        with pytest.raises(ScenarioError, match="must be an integer"):
            build(value)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: WorkloadAction(0, "deposit", 7, 5), "user must be a string, not 7"),
            (lambda: WorkloadAction(0, "withdraw", b"u", 5), "user must be a string, not b'u'"),
            (lambda: WorkloadAction(0, "hatch-exit", None), "user must be a string, not None"),
            (lambda: WorkloadAction(0, "transfer", "u", 5, 7), "to must be a string or None, not 7"),
            (lambda: WorkloadAction(0, "transfer", "u", 5, ["v"]), r"to must be .* not \['v'\]"),
            (lambda: WorkloadAction(0, "deposit", "u", 5, 0), "to must be a string or None, not 0"),
        ],
    )
    def test_python_built_actions_take_only_string_names(self, build, message):
        # the trace writes user and to as JSON strings, which a number is not
        with pytest.raises(ScenarioError, match=message):
            build()

    def test_upgrade_needs_announce_at(self):
        with pytest.raises(ScenarioError, match="announce_at"):
            parse_scenario(_scenario(upgrade={}))

    def test_load_scenario_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(p)

    def test_load_bundled_unknown_name(self):
        with pytest.raises(ScenarioError):
            load_bundled_scenario("no-such-scenario")

    def test_injection_kinds_cover_every_incident_class(self):
        kinds = {k.value for k in InjectionKind}
        assert {c.value for c in IncidentClass} <= kinds
        assert {"da-withholding", "proposer-outage", "prover-outage"} <= kinds


_CENSORSHIP = InjectionKind.CENSORSHIP_FORCED_INCLUSION_FAILURE

# Each class the type rule covers, with the fewest arguments that build it,
# and the error its __post_init__ raises.
_TYPED = [
    (SequencerConfig, {}, ValueError),
    (ProposerConfig, {}, ValueError),
    (ForcedInclusionConfig, {}, ValueError),
    (EscapeHatchConfig, {}, ValueError),
    (DaConfig, {}, ValueError),
    (UpgradeConfig, {}, ValueError),
    (ProverSetConfig, {}, ValueError),
    (RollupConfig, {}, ValueError),
    (SimParams, {}, ScenarioError),
    (Injection, {"kind": _CENSORSHIP, "at": 0, "duration": 5}, ScenarioError),
    (WorkloadAction, {"at": 0, "action": "deposit", "user": "u", "amount": 5}, ScenarioError),
    (RandomWorkload, {}, ScenarioError),
    (Scenario, {"name": "s", "config": RollupConfig()}, ScenarioError),
]


class TestExactFieldTypes:
    @pytest.mark.parametrize(
        "cls, kwargs, error, name",
        [
            pytest.param(cls, kwargs, error, f.name, id=f"{cls.__name__}.{f.name}")
            for cls, kwargs, error in _TYPED
            for f in dataclasses.fields(cls)
        ],
    )
    def test_every_field_refuses_an_object(self, cls, kwargs, error, name):
        with pytest.raises(error, match=f"^{name} must be .*, not <object object at ") as exc:
            cls(**{**kwargs, name: object()})
        assert type(exc.value) is error

    @pytest.mark.parametrize(
        "build, error, message",
        [
            # counted as whitelisted
            (
                lambda: ProposerConfig(whitelist="no"),
                ValueError,
                "whitelist must be a boolean, not 'no'",
            ),
            # built with no prover set, then simulated as neither zk nor optimistic
            (
                lambda: RollupConfig(proof_system="zk"),
                ValueError,
                "proof_system must be a ProofSystem, not 'zk'",
            ),
            (
                lambda: EscapeHatchConfig(non_disableable=1),
                ValueError,
                "non_disableable must be a boolean, not 1",
            ),
            (
                lambda: RollupConfig(sequencer={"topology": "shared"}),
                ValueError,
                "sequencer must be a SequencerConfig, not {'topology': 'shared'}",
            ),
            (
                lambda: RollupConfig(prover_set=ProverSetConfig),
                ValueError,
                "prover_set must be a ProverSetConfig or None, not <class ",
            ),
            (
                lambda: Scenario("s", RollupConfig(), actions=({"at": 0},)),
                ScenarioError,
                "actions[0] must be a WorkloadAction, not {'at': 0}",
            ),
            (
                lambda: Scenario("s", RollupConfig(), injections="none"),
                ScenarioError,
                "injections must be a tuple, not 'none'",
            ),
            (
                lambda: Injection(_CENSORSHIP, 0, 5, targets=("u", 7)),
                ScenarioError,
                "targets[1] must be a string, not 7",
            ),
            (
                lambda: Scenario(5, RollupConfig()),
                ScenarioError,
                "name must be a string, not 5",
            ),
            (
                lambda: SimParams(horizon=3.0),
                ScenarioError,
                "horizon must be an integer or None, not 3.0",
            ),
            (
                lambda: WorkloadAction(0, 7, "u", 5),
                ScenarioError,
                "action must be a string, not 7",
            ),
        ],
    )
    def test_holes_are_refused_at_construction(self, build, error, message):
        with pytest.raises(error, match="^" + re.escape(message)) as exc:
            build()
        assert type(exc.value) is error

    def test_lists_become_tuples(self):
        action = WorkloadAction(0, "deposit", "u", 5)
        outage = Injection(_CENSORSHIP, 0, 5, targets=["u"])
        sc = Scenario("s", RollupConfig(), actions=[action], injections=[outage])
        assert sc.actions == (action,) and sc.injections == (outage,)
        assert outage.targets == ("u",)

    @pytest.mark.parametrize("seed", [True, 0.5])
    def test_simulate_refuses_a_seed_that_is_not_an_int(self, seed):
        message = f"seed must be an integer, not {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(Scenario("s", RollupConfig()), seed=seed)


_SCHEMA = jsonschema.Draft202012Validator(load_schema("scenario"))
_INT = st.integers(min_value=-2, max_value=200_000)
_POS = st.integers(min_value=1, max_value=200_000)
_USER = st.sampled_from(["u", "v", "w"])


def _some(**fields):
    """Objects holding any subset of ``fields``."""
    return st.fixed_dictionaries({}, optional=fields)


# Well-typed documents. Many break a cross-field rule (an optimistic rollup
# without a challenge window, forced inclusion usable while disabled, an
# outage without a duration); the schema and the reader must both reject
# those. A transfer to its own sender is the one rule only the reader checks.
_DOCUMENTS = st.fixed_dictionaries(
    {
        "config": _some(
            proof_system=st.sampled_from([p.value for p in ProofSystem]),
            sequencer=_some(
                topology=st.sampled_from(["centralized", "shared", "permissionless"]),
                recovery_latency=_INT,
            ),
            proposer=_some(whitelist=st.booleans(), count=_POS),
            forced_inclusion=_some(enabled=st.booleans(), timeout=_INT, usable=st.booleans()),
            escape_hatch=_some(enabled=st.booleans(), non_disableable=st.booleans()),
            da=_some(
                mode=st.sampled_from(["onchain", "external"]),
                attestation_quorum=_INT,
                withholding_possible=st.booleans(),
            ),
            upgrade=_some(policy=st.sampled_from(["instant", "timelocked"]), window=_INT),
            challenge_window=_INT,
            prover_set=st.none() | _some(count=_POS, permissionless=st.booleans()),
            state_validation_enforced=st.booleans(),
        )
    },
    optional={
        "name": st.text(max_size=5),
        "description": st.text(max_size=5),
        "sim": _some(
            **{k: _POS for k in SimParams.__dataclass_fields__ if k != "horizon"},
            horizon=st.none() | _POS,
        ),
        "workload": st.one_of(
            _some(
                actions=st.lists(
                    st.fixed_dictionaries(
                        {
                            "at": _POS,
                            "action": st.sampled_from(["deposit", "withdraw", "transfer", "hatch-exit"]),
                            "user": _USER,
                        },
                        optional={"amount": _INT, "to": st.none() | _USER},
                    ),
                    max_size=3,
                )
            ),
            _some(random=st.none() | _some(users=_POS, actions=_POS, horizon=_POS, max_amount=_POS)),
        ),
        "injections": st.lists(
            st.fixed_dictionaries(
                {"kind": st.sampled_from([k.value for k in InjectionKind]), "at": _INT},
                optional={"duration": _INT, "amount": _INT, "targets": st.lists(_USER, max_size=2)},
            ),
            max_size=2,
        ),
        "upgrade": st.none() | st.fixed_dictionaries({"announce_at": _INT}),
    },
)


def _paths(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield path + (key,)
            yield from _paths(value, path + (key,))


def _misses(value) -> list:
    """Near misses for one JSON value: the wrong JSON type, null, another
    case of an enum value, 0 for a positive timing."""
    if isinstance(value, bool):
        return ["false" if value else "true", int(value), None]
    if isinstance(value, int):
        return [True, False, value + 0.5, float(value), 0, str(value), None]
    if isinstance(value, str):
        return [value.upper(), value.title(), 7, None]
    if isinstance(value, list):
        return ["alice", {}, None]
    if isinstance(value, dict):
        return [None, [], {**value, "extra": 1}]
    return [0, "null", {}]


@st.composite
def _near_misses(draw):
    doc = copy.deepcopy(draw(_DOCUMENTS))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = reduce(operator.getitem, path[:-1], doc)
    key = path[-1]
    if isinstance(key, str) and draw(st.booleans()):
        i = draw(st.integers(0, len(key) - 1))
        parent[key[:i] + key[i + 1 :]] = parent.pop(key)  # a misspelled key
    else:
        parent[key] = draw(st.sampled_from(_misses(parent[key])))
    return doc


_ACTIONS = ["deposit", "withdraw", "transfer", "hatch-exit"]
_NAME = st.sampled_from(["", "u", "v"])


def _parses(doc) -> bool:
    try:
        parse_scenario(doc)
    except ScenarioError:
        return False
    return True


class TestStrictReader:
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENTS | _near_misses() | st.sampled_from([[], "x", None, 3]))
    def test_accepted_documents_satisfy_the_schema(self, doc):
        # Any exception but ScenarioError fails the test, so every document
        # the schema rejects must be rejected as a ScenarioError.
        try:
            parse_scenario(doc)
        except ScenarioError:
            return
        assert _SCHEMA.is_valid(doc), list(_SCHEMA.iter_errors(doc))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"config": {"proof_sytem": "optimistic"}}, "unknown config keys: ['proof_sytem']"),
            ({"config": {"escape_hatch": {"enabled": "false"}}}, "config.escape_hatch.enabled must be a boolean"),
            ({"config": {"proof_system": "ZK"}}, "config.proof_system must be one of ['optimistic', 'zk']"),
            ({"config": {"prover_set": {"count": 2.0}}}, "config.prover_set.count must be an integer"),
            ({"config": {}, "sim": {"horizon": True}}, "sim.horizon must be an integer"),
            ({"config": {}, "injections": {}}, "injections must be a list"),
            ({"config": {}, "upgrade": {}}, "upgrade.announce_at is required"),
            ({"config": {}, "workload": {"random": {"users": 0}}}, "workload.random: random workload fields must be positive"),
            ({"config": {"proof_system": "optimistic"}}, "config: optimistic rollups need a positive challenge window"),
            ({"config": {"forced_inclusion": {"usable": True}}}, "config.forced_inclusion: forced inclusion cannot be usable while disabled"),
            ([], "scenario must be an object"),
        ],
    )
    def test_errors_name_the_dotted_path(self, doc, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "action, accepted",
        [
            # a user is named
            ({"action": "deposit", "user": "", "amount": 1}, False),
            ({"action": "deposit", "user": "u", "amount": 1}, True),
            # a transfer names a recipient
            ({"action": "transfer", "user": "u", "amount": 1}, False),
            ({"action": "transfer", "user": "u", "amount": 1, "to": None}, False),
            ({"action": "transfer", "user": "u", "amount": 1, "to": ""}, False),
            ({"action": "transfer", "user": "u", "amount": 1, "to": "v"}, True),
            # no other action does
            ({"action": "withdraw", "user": "u", "amount": 1, "to": "v"}, False),
            ({"action": "hatch-exit", "user": "u", "to": ""}, False),
            ({"action": "withdraw", "user": "u", "amount": 1, "to": None}, True),
            ({"action": "hatch-exit", "user": "u", "to": None}, True),
            # every action but a hatch exit moves a positive amount
            ({"action": "deposit", "user": "u"}, False),
            ({"action": "withdraw", "user": "u", "amount": 0}, False),
            ({"action": "transfer", "user": "u", "amount": 0, "to": "v"}, False),
            ({"action": "withdraw", "user": "u", "amount": 1}, True),
            ({"action": "hatch-exit", "user": "u"}, True),
            ({"action": "hatch-exit", "user": "u", "amount": 0}, True),
        ],
    )
    def test_schema_and_reader_agree_on_each_action_rule(self, action, accepted):
        doc = _scenario(workload={"actions": [{"at": 0, **action}]})
        assert _SCHEMA.is_valid(doc) is accepted
        assert _parses(doc) is accepted

    @settings(max_examples=300, deadline=None)
    @given(
        st.fixed_dictionaries(
            {"at": _POS, "action": st.sampled_from(_ACTIONS), "user": _NAME},
            optional={"amount": _INT, "to": st.none() | _NAME},
        )
    )
    def test_schema_and_reader_accept_the_same_actions(self, action):
        doc = _scenario(workload={"actions": [action]})
        if action["action"] == "transfer" and action.get("to") == action["user"] != "":
            # a transfer to oneself is refused by the reader alone: the schema
            # takes it exactly when the reader takes it sent to someone else
            assert not _parses(doc)
            sent_on = _scenario(workload={"actions": [{**action, "to": "w"}]})
            assert _SCHEMA.is_valid(doc) is _parses(sent_on)
        else:
            assert _SCHEMA.is_valid(doc) is _parses(doc)

    @pytest.mark.parametrize(
        "doc, accepted",
        [
            # a scenario has a config
            ({}, False),
            ({"config": {}}, True),
            # an optimistic rollup has a challenge window of at least 1
            ({"config": {"proof_system": "optimistic"}}, False),
            ({"config": {"proof_system": "optimistic", "challenge_window": 0}}, False),
            ({"config": {"proof_system": "optimistic", "challenge_window": 1}}, True),
            ({"config": {"proof_system": "zk", "challenge_window": 0}}, True),
            # forced inclusion is usable only when enabled, and then times out after >= 1 s
            ({"config": {"forced_inclusion": {"usable": True}}}, False),
            ({"config": {"forced_inclusion": {"usable": True, "enabled": False}}}, False),
            ({"config": {"forced_inclusion": {"usable": True, "enabled": True}}}, True),
            ({"config": {"forced_inclusion": {"usable": False}}}, True),
            ({"config": {"forced_inclusion": {"enabled": True, "timeout": 0}}}, False),
            ({"config": {"forced_inclusion": {"enabled": True, "timeout": 1}}}, True),
            ({"config": {"forced_inclusion": {"enabled": False, "timeout": 0}}}, True),
            # onchain data, the default mode, cannot be withheld
            ({"config": {"da": {"withholding_possible": True}}}, False),
            ({"config": {"da": {"mode": "onchain", "withholding_possible": True}}}, False),
            ({"config": {"da": {"mode": "external", "withholding_possible": True}}}, True),
            ({"config": {"da": {"withholding_possible": False}}}, True),
            # a timelocked upgrade has an exit window of at least 1
            ({"config": {"upgrade": {"policy": "timelocked"}}}, False),
            ({"config": {"upgrade": {"policy": "timelocked", "window": 0}}}, False),
            ({"config": {"upgrade": {"policy": "timelocked", "window": 1}}}, True),
            ({"config": {"upgrade": {"policy": "instant", "window": 0}}}, True),
        ],
    )
    def test_schema_and_reader_agree_on_each_config_rule(self, doc, accepted):
        assert _SCHEMA.is_valid(doc) is accepted
        assert _parses(doc) is accepted

    @pytest.mark.parametrize(
        "injection, accepted",
        [
            # an exploit is instantaneous and takes a positive amount
            ({"kind": "exploit-user-risk", "amount": 5}, True),
            ({"kind": "exploit-user-risk", "amount": 5, "duration": 0}, True),
            ({"kind": "exploit-user-risk", "amount": 5, "duration": 1}, False),
            ({"kind": "exploit-user-risk"}, False),
            ({"kind": "exploit-user-risk", "amount": 0}, False),
            # every other kind is a window of at least 1 s, without an amount
            ({"kind": "sequencer-outage"}, False),
            ({"kind": "sequencer-outage", "duration": 0}, False),
            ({"kind": "sequencer-outage", "duration": 1}, True),
            ({"kind": "sequencer-outage", "duration": 1, "amount": 0}, True),
            ({"kind": "sequencer-outage", "duration": 1, "amount": 1}, False),
            # only censorship names targets
            ({"kind": "censorship-forced-inclusion-failure", "duration": 1, "targets": ["u"]}, True),
            ({"kind": "sequencer-outage", "duration": 1, "targets": ["u"]}, False),
            ({"kind": "sequencer-outage", "duration": 1, "targets": []}, True),
        ],
    )
    def test_schema_and_reader_agree_on_each_injection_rule(self, injection, accepted):
        doc = _scenario(injections=[{"at": 0, **injection}])
        assert _SCHEMA.is_valid(doc) is accepted
        assert _parses(doc) is accepted

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS)
    def test_schema_and_reader_accept_the_same_documents(self, doc):
        # a transfer to its sender is refused by the reader alone, so the
        # schema is asked about the same document sent to someone else
        actions = doc.get("workload", {}).get("actions", [])
        if any(a["action"] == "transfer" and a.get("to") == a["user"] for a in actions):
            assert not _parses(doc)
            doc = copy.deepcopy(doc)
            for a in doc["workload"]["actions"]:
                if a["action"] == "transfer" and a.get("to") == a["user"]:
                    a["to"] = "x"
        assert _SCHEMA.is_valid(doc) is _parses(doc)

    def test_omitted_config_keys_take_the_field_defaults(self):
        assert parse_scenario({"config": {}}).config == RollupConfig()
        assert RollupConfig() != RollupConfig.centralized_default()

    def test_omitted_sim_and_sub_configs_parse_as_each_default_written_out(self):
        written = {
            "config": {
                "proof_system": "zk",
                "sequencer": {"topology": "centralized", "recovery_latency": 600},
                "proposer": {"whitelist": True, "count": 1},
                "forced_inclusion": {"enabled": False, "timeout": DAY, "usable": False},
                "escape_hatch": {"enabled": False, "non_disableable": False},
                "da": {"mode": "onchain", "attestation_quorum": 0, "withholding_possible": False},
                "upgrade": {"policy": "instant", "window": 0},
            },
            "sim": {
                "l1_block_interval": 12,
                "finalization_depth": 64,
                "prover_latency": 3_600,
                "batch_interval": 120,
                "proposal_delay": 60,
                "admission_latency": 1,
                "degradation_factor": 10,
                "horizon": None,
            },
        }
        omitted = parse_scenario({"config": {"proof_system": "zk"}})
        assert omitted == parse_scenario(written)

    def test_null_means_absent_only_where_the_field_is_optional(self):
        sc = parse_scenario(
            {
                "config": {"prover_set": None},
                "sim": {"horizon": None},
                "workload": {"random": None},
                "upgrade": None,
            }
        )
        assert sc.config.prover_set == ProverSetConfig()
        assert sc.params.horizon is None and sc.random_workload is None and sc.upgrade_at is None
        with pytest.raises(ScenarioError, match="config.da must be an object"):
            parse_scenario({"config": {"da": None}})


def _materialize_reference(wl: RandomWorkload, seed: int) -> tuple[WorkloadAction, ...]:
    """RandomWorkload.materialize as written with randrange, randint and
    choice: the draws the getrandbits version must reproduce."""
    rng = random.Random(seed)
    names = [f"user-{i}" for i in range(wl.users)]
    times = sorted(rng.randrange(wl.horizon) for _ in range(wl.actions))
    seen: set[str] = set()
    out: list[WorkloadAction] = []
    for t in times:
        i = rng.randrange(len(names))
        user = names[i]
        if user not in seen:
            seen.add(user)
            kind = "deposit"
        else:
            kind = rng.choice(("deposit", "withdraw", "withdraw", "transfer"))
        amount = rng.randint(1, wl.max_amount)
        if kind == "transfer" and len(names) > 1:
            j = rng.randrange(len(names) - 1)
            to = names[j + (j >= i)]
            out.append(WorkloadAction(t, "transfer", user, amount, to))
        elif kind == "transfer":
            out.append(WorkloadAction(t, "withdraw", user, amount))
        else:
            out.append(WorkloadAction(t, kind, user, amount))
    return tuple(out)


# Sizes at the edges of bit_length rejection sampling: 1, powers of two and
# their neighbours, where a draw needs one more bit than the size below it.
_EDGE_SIZES = st.sampled_from(
    sorted(
        {n for k in (0, 1, 2, 3, 8, 16, 31, 32, 33, 53, 64) for n in (2**k - 1, 2**k, 2**k + 1)}
        - {0}
    )
)


class TestRandomWorkload:
    @settings(max_examples=300, deadline=None)
    @given(
        users=st.integers(1, 40) | _EDGE_SIZES.filter(lambda n: n <= 1025),
        actions=st.integers(1, 80),
        horizon=st.integers(1, DAY) | _EDGE_SIZES,
        max_amount=st.integers(1, 2_000) | _EDGE_SIZES,
        seed=st.integers(0, 2**64),
    )
    # one user (a transfer falls back to a withdrawal), and sizes of 1
    @example(users=1, actions=30, horizon=1, max_amount=1, seed=0)
    @example(users=2, actions=60, horizon=2**16, max_amount=2**32, seed=1)
    def test_draws_match_randrange_randint_and_choice(
        self, users, actions, horizon, max_amount, seed
    ):
        wl = RandomWorkload(users=users, actions=actions, horizon=horizon, max_amount=max_amount)
        assert wl.materialize(seed) == _materialize_reference(wl, seed)
        _check_trusted(wl, seed)

    @pytest.mark.parametrize("users, actions", [(1_000, 16_000), (5, 20), (1, 30)])
    def test_draws_match_the_reference_at_the_benchmark_sizes(self, users, actions):
        wl = RandomWorkload(users=users, actions=actions)
        for seed in range(5):
            assert wl.materialize(seed) == _materialize_reference(wl, seed)

    def test_same_seed_same_actions(self):
        wl = RandomWorkload(users=4, actions=15, horizon=3600)
        assert wl.materialize(7) == wl.materialize(7)
        assert wl.materialize(7) != wl.materialize(8)

    def test_first_action_per_user_is_a_deposit(self):
        wl = RandomWorkload(users=5, actions=40, horizon=86400)
        for seed in range(10):
            first_seen = {}
            for a in wl.materialize(seed):
                first_seen.setdefault(a.user, a.action)
            assert set(first_seen.values()) == {"deposit"}

    def test_bounds(self):
        wl = RandomWorkload(users=3, actions=30, horizon=500, max_amount=9)
        for a in wl.materialize(3):
            assert 0 <= a.at < 500
            assert 1 <= a.amount <= 9


def _check_trusted(wl: RandomWorkload, seed: int) -> tuple[tuple, ...]:
    """The stream's plain tuples, each checked to build a WorkloadAction
    holding exactly its values, and all in time order."""
    drawn = tuple(wl.stream(seed))
    for d in drawn:
        assert type(d) is tuple and dataclasses.astuple(WorkloadAction(*d)) == d
    assert [d[0] for d in drawn] == sorted(d[0] for d in drawn)
    return drawn


class TestTrustedStream:
    """simulate takes a random workload's draws as plain tuples and never
    validates them; each must be what WorkloadAction would accept. The
    hypothesis-drawn workloads of TestRandomWorkload are checked too."""

    def test_random_seeds(self):
        wl = _acceptance_random().random_workload
        for seed in RANDOM_SEEDS:
            _check_trusted(wl, seed)

    def test_one_user_turns_transfers_into_withdrawals(self):
        drawn = _check_trusted(RandomWorkload(users=1, actions=200), 0)
        assert {d[1] for d in drawn} == {"deposit", "withdraw"}
        assert all(d[4] is None for d in drawn)

    def test_simulate_builds_no_workload_action(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a WorkloadAction was built")

        monkeypatch.setattr(WorkloadAction, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="was built"):
            WorkloadAction(0, "deposit", "u", 1)
        outage = Injection(InjectionKind.SEQUENCER_OUTAGE, at=HOUR, duration=HOUR)
        faulted = dataclasses.replace(_acceptance_random(), injections=(outage,))
        for scenario in (_acceptance_random(), _random(100, 2_000), faulted):
            for seed in range(3):
                assert simulate(scenario, seed).records


class TestL1Alignment:
    def test_next_l1_block(self):
        assert next_l1_block(0) == 0
        assert next_l1_block(1) == 12
        assert next_l1_block(12) == 12
        assert next_l1_block(13) == 24

    @given(st.integers(min_value=0, max_value=10**9))
    def test_alignment_bounds(self, t):
        b = next_l1_block(t)
        assert t <= b < t + 12
        assert b % 12 == 0


# Metrics pinned from the event arithmetic of each bundled scenario. The
# baseline withdrawal, for example: submit 600, admit 601, batch 720, proof
# ready at 720 + 3600, root final 768 s later, claim at 5088.
BUNDLED_EXPECTATIONS = {
    "zk-withdrawal-baseline": {"lat": {"alice": (4488,)}, "frozen": 0, "cens": 0, "cov": None},
    "sequencer-outage-fi-24h": {"lat": {"alice": (18768,)}, "frozen": 14400, "cens": 14400, "cov": None},
    "sequencer-outage-fi-1h": {"lat": {"alice": (7968,)}, "frozen": 3600, "cens": 3600, "cov": None},
    "instant-upgrade": {"lat": {}, "frozen": 0, "cens": 0, "cov": 0.0},
    "timelocked-upgrade-exit": {
        "lat": {"ana": (4488,), "bo": (4428,), "cy": (4488,)},
        "frozen": 0,
        "cens": 0,
        "cov": 1.0,
    },
    "timelocked-upgrade-blocked": {"lat": {}, "frozen": 0, "cens": 601200, "cov": 0.0},
    "proposer-freeze": {"lat": {"alice": (173328,)}, "frozen": 172440, "cens": 0, "cov": None},
    "exploit-invalid-root": {"lat": {}, "frozen": 0, "cens": 0, "cov": None},
    "escape-hatch-outage": {"lat": {"alice": (768,)}, "frozen": 0, "cens": 0, "cov": None},
}


class TestBundledScenarios:
    def test_every_bundled_scenario_has_expectations(self):
        assert sorted(BUNDLED_EXPECTATIONS) == sorted(
            n.removesuffix(".json") for n in scenario_names()
        )

    @pytest.mark.parametrize("name", sorted(BUNDLED_EXPECTATIONS))
    def test_metrics(self, name):
        result = simulate(load_bundled_scenario(name), seed=0)
        expected = BUNDLED_EXPECTATIONS[name]
        m = result.metrics
        assert dict(m.withdrawal_latency) == expected["lat"]
        assert m.frozen_funds_duration == expected["frozen"]
        assert m.censorship_window == expected["cens"]
        assert m.exit_coverage_before_upgrade == expected["cov"]
        assert m.funds_conserved
        assert result.violations == ()

    @pytest.mark.parametrize("name", sorted(BUNDLED_EXPECTATIONS))
    def test_trace_is_byte_identical_across_runs(self, name):
        sc = load_bundled_scenario(name)
        first = simulate(sc, seed=0).trace_lines()
        second = simulate(sc, seed=0).trace_lines()
        assert first == second
        for line in first:
            json.loads(line)  # every line must be standalone JSON


class TestForcedInclusion:
    @pytest.mark.parametrize("outage", [3600, 43200, 259200])
    @pytest.mark.parametrize("timeout", [3600, 86400])
    def test_inclusion_delay_bounded_by_timeout(self, outage, timeout):
        raw = _scenario(
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 3607, "action": "withdraw", "user": "u", "amount": 100},
                ]
            },
            injections=[{"kind": "sequencer-outage", "at": 3600, "duration": outage}],
        )
        raw["config"]["forced_inclusion"] = {"enabled": True, "timeout": timeout, "usable": True}
        result = simulate(parse_scenario(raw), seed=0)
        queued = _events(result, "tx_queued_forced")[0]
        included = _events(result, "withdrawal_included")[0]
        assert included["t"] - queued["t"] <= timeout + 12

    @settings(max_examples=40, deadline=None)
    @given(
        outage=st.integers(min_value=60, max_value=4 * 86400),
        timeout=st.integers(min_value=60, max_value=2 * 86400),
        submit_offset=st.integers(min_value=0, max_value=600),
    )
    def test_inclusion_bound_property(self, outage, timeout, submit_offset):
        raw = _scenario(
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 3600 + submit_offset, "action": "withdraw", "user": "u", "amount": 100},
                ]
            },
            injections=[{"kind": "sequencer-outage", "at": 3600, "duration": outage}],
        )
        raw["config"]["forced_inclusion"] = {"enabled": True, "timeout": timeout, "usable": True}
        result = simulate(parse_scenario(raw), seed=0)
        queued = _events(result, "tx_queued_forced")
        if not queued:
            return  # submission landed after recovery
        included = _events(result, "withdrawal_included")[0]
        assert included["t"] - queued[0]["t"] <= timeout + 12

    def test_dropped_without_forced_inclusion(self):
        raw = _scenario(
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 4000, "action": "withdraw", "user": "u", "amount": 100},
                ]
            },
            injections=[{"kind": "sequencer-outage", "at": 3600, "duration": 7200}],
        )
        result = simulate(parse_scenario(raw), seed=0)
        assert _events(result, "tx_dropped")
        assert not _events(result, "withdrawal_included")
        # user could not reach the chain until the outage lifted
        assert result.metrics.censorship_window == 3600 + 7200 - 4000


class TestProposerFreeze:
    def test_no_roots_land_during_the_freeze(self):
        result = simulate(load_bundled_scenario("proposer-freeze"), seed=0)
        freeze_end = 172800
        for name in ("proposal", "root_finalized"):
            during = [e for e in _events(result, name) if e["t"] < freeze_end]
            assert during == []
        assert _events(result, "proposal_blocked")
        claimed = _events(result, "withdrawal_claimed")[0]
        assert claimed["t"] > freeze_end

    def test_permissionless_proposers_shrug_it_off(self):
        raw = json.loads(fixture_path("scenarios/proposer-freeze.json").read_text())
        raw["config"]["proposer"] = {"whitelist": False, "count": 4}
        result = simulate(parse_scenario(raw, name="open-proposers"), seed=0)
        assert not _events(result, "proposal_blocked")
        start = _events(result, "injection_start")[0]
        assert "ineffective" in start


class TestExploitAdjudication:
    def _variant(self, **config_overrides):
        raw = json.loads(fixture_path("scenarios/exploit-invalid-root.json").read_text())
        raw["config"].update(config_overrides)
        return raw

    def test_permissionless_challengers_reject_the_root(self):
        result = simulate(load_bundled_scenario("exploit-invalid-root"), seed=0)
        assert _events(result, "root_challenged")
        assert not _events(result, "invalid_root_finalized")
        assert result.metrics.funds_conserved

    def test_unenforced_validation_loses_funds(self):
        raw = self._variant(state_validation_enforced=False)
        result = simulate(parse_scenario(raw, name="v"), seed=0)
        assert _events(result, "invalid_root_finalized")
        drain = _events(result, "exploit_drain")[0]
        assert drain["drained"] == 4000
        assert not result.metrics.funds_conserved
        # the broken bridge identity is expected here, not a bug report
        assert result.violations == ()

    def test_whitelisted_challengers_offline_for_whole_window(self):
        raw = self._variant(prover_set={"count": 1, "permissionless": False})
        raw["injections"].append({"kind": "prover-outage", "at": 7200, "duration": 86424})
        result = simulate(parse_scenario(raw, name="v"), seed=0)
        assert _events(result, "invalid_root_finalized")
        assert not result.metrics.funds_conserved

    def test_permissionless_challengers_outlast_a_prover_outage(self):
        raw = self._variant(prover_set={"count": 1, "permissionless": True})
        raw["injections"].append({"kind": "prover-outage", "at": 7200, "duration": 86424})
        result = simulate(parse_scenario(raw, name="v"), seed=0)
        assert "ineffective" in _events(result, "injection_start")[-1]
        assert _events(result, "root_challenged")[0]["t"] == 7212
        assert result.metrics.funds_conserved

    def test_whitelisted_challengers_return_mid_window(self):
        raw = self._variant(prover_set={"count": 1, "permissionless": False})
        raw["injections"].append({"kind": "prover-outage", "at": 7200, "duration": 3600})
        result = simulate(parse_scenario(raw, name="v"), seed=0)
        challenged = _events(result, "root_challenged")[0]
        assert challenged["t"] == 10800  # first aligned block after the outage lifts
        assert result.metrics.funds_conserved

    def test_enforced_zk_rejects_at_landing(self):
        raw = self._variant()
        raw["config"] = dict(ZK_ONCHAIN)
        result = simulate(parse_scenario(raw, name="v"), seed=0)
        rejected = _events(result, "root_rejected")[0]
        assert rejected["reason"] == "validity proof required"
        assert result.metrics.funds_conserved


def _challenge_by_fixed_point(windows, landed: int, deadline: int, interval: int) -> int | None:
    """The challenge search the engine replaced, kept as its reference: from
    the first L1 block after landing, move past every window that holds the
    candidate and align up, until a pass moves nothing; that instant if it
    comes before the deadline, else None."""
    candidate = landed + interval
    windows = sorted(windows)
    while True:
        moved = candidate
        for start, end in windows:
            if start <= moved < end:
                moved = end
        moved = next_l1_block(moved, interval)
        if moved == candidate:
            return candidate if candidate < deadline else None
        candidate = moved


@st.composite
def _challenge_search(draw) -> tuple[int, int, int, list[tuple[int, int]]]:
    """An L1 block interval, a landing on its grid, a later deadline, and
    0–5 windows, given unsorted, each starting near the landing or near an
    earlier window's start or end: so they overlap, nest or touch, with
    ends on and off the grid."""
    interval = draw(st.sampled_from((1, 12, 60)))
    landed = interval * draw(st.integers(0, 50))
    lengths = st.one_of(st.integers(1, 3 * interval), st.integers(1, 20).map(interval.__mul__))
    windows = []
    for _ in range(draw(st.integers(0, 5))):
        anchor = draw(st.sampled_from([landed, *(edge for w in windows for edge in w)]))
        start = max(0, anchor + draw(st.integers(-2 * interval, 2 * interval)))
        length = draw(lengths)
        windows.append((start, start + length))
    deadline = landed + draw(st.integers(1, 60 * interval))
    return interval, landed, deadline, windows


class TestChallengeSearch:
    @settings(max_examples=500, deadline=None)
    @given(_challenge_search())
    def test_one_pass_equals_the_fixed_point(self, search):
        interval, landed, deadline, windows = search
        clear = _first_clear(sorted(windows, key=lambda w: w[0]), landed + 1, interval)
        expected = _challenge_by_fixed_point(windows, landed, deadline, interval)
        assert (clear if clear < deadline else None) == expected

    @settings(max_examples=150, deadline=None)
    @given(_challenge_search(), st.data())
    def test_the_engine_challenges_where_the_fixed_point_does(self, search, data):
        # Each window is a prover outage, which holds whitelisted challengers
        # offline unless provers are permissionless, or a proposer outage or
        # sequencer halt, which never holds a challenge; a proposer outage is
        # neutralized when proposers are open.
        interval, landed, deadline, windows = search
        kinds = st.sampled_from(
            (InjectionKind.PROVER_OUTAGE,) * 2
            + (InjectionKind.PROPOSER_OUTAGE, InjectionKind.SEQUENCER_HALT)
        )
        injections = [Injection(data.draw(kinds), at, end - at) for at, end in windows]
        permissionless = data.draw(st.booleans())
        config = RollupConfig(
            proof_system=ProofSystem.OPTIMISTIC,
            challenge_window=deadline - landed,
            prover_set=ProverSetConfig(permissionless=permissionless),
            proposer=ProposerConfig(whitelist=data.draw(st.booleans())),
            state_validation_enforced=True,
        )
        exploit = Injection(InjectionKind.EXPLOIT_USER_RISK, at=landed, amount=10)
        sc = Scenario(
            "challenge",
            config,
            injections=(*injections, exploit),
            params=SimParams(l1_block_interval=interval),
        )
        outages = [(j.at, j.end) for j in injections if j.kind is InjectionKind.PROVER_OUTAGE]
        proofs = [] if permissionless else outages
        expected = _challenge_by_fixed_point(proofs, landed, deadline, interval)
        result = simulate(sc, seed=0)
        challenged = [e["t"] for e in _events(result, "root_challenged")]
        finalized = [e["t"] for e in _events(result, "invalid_root_finalized")]
        if expected is None:
            assert (challenged, finalized) == ([], [deadline])
        else:
            assert (challenged, finalized) == ([expected], [])


class TestConservation:
    def test_random_workloads_never_leak(self):
        cfg = RollupConfig(proof_system=ProofSystem.ZK, da=DaConfig(mode=DaMode.ONCHAIN))
        sc = Scenario(
            name="rand",
            config=cfg,
            random_workload=RandomWorkload(users=6, actions=25, horizon=86400),
        )
        for seed in range(50):
            result = simulate(sc, seed=seed)
            assert result.violations == ()
            assert result.metrics.funds_conserved

    def test_random_workloads_with_faults_never_leak(self):
        cfg = RollupConfig(
            proof_system=ProofSystem.ZK,
            forced_inclusion=ForcedInclusionConfig(enabled=True, timeout=3600, usable=True),
            da=DaConfig(mode=DaMode.ONCHAIN),
        )
        injections = (
            Injection(InjectionKind.SEQUENCER_OUTAGE, at=3600, duration=7200),
            Injection(InjectionKind.BRIDGE_PAUSE_RISK, at=20000, duration=5000),
            Injection(InjectionKind.PROPOSER_OUTAGE, at=40000, duration=10000),
            Injection(InjectionKind.SEQUENCER_PERFORMANCE_DEGRADATION, at=60000, duration=5000),
        )
        sc = Scenario(
            name="rand-faults",
            config=cfg,
            injections=injections,
            random_workload=RandomWorkload(users=6, actions=25, horizon=86400),
        )
        for seed in range(50):
            result = simulate(sc, seed=seed)
            assert result.violations == ()

    def test_overdraft_is_rejected_not_leaked(self):
        raw = _scenario(
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 100},
                    {"at": 300, "action": "withdraw", "user": "u", "amount": 5000},
                ]
            }
        )
        result = simulate(parse_scenario(raw), seed=0)
        failed = _events(result, "tx_failed")[0]
        assert failed["reason"] == "insufficient funds"
        assert result.metrics.withdrawal_latency == {}
        assert result.violations == ()


def _targeted_censorship() -> Scenario:
    """Censorship of one user while another withdraws alongside; the target's
    withdrawal waits in the forced queue until the timeout."""
    raw = _scenario(
        workload={
            "actions": [
                {"at": 0, "action": "deposit", "user": "mallory-target", "amount": 500},
                {"at": 0, "action": "deposit", "user": "carol", "amount": 500},
                {"at": 1200, "action": "withdraw", "user": "mallory-target", "amount": 100},
                {"at": 1200, "action": "withdraw", "user": "carol", "amount": 100},
            ]
        },
        injections=[
            {
                "kind": "censorship-forced-inclusion-failure",
                "at": 1000,
                "duration": 4000,
                "targets": ["mallory-target"],
            }
        ],
    )
    raw["config"]["forced_inclusion"] = {"enabled": True, "timeout": 600, "usable": True}
    return parse_scenario(raw)


class TestFaultWindows:
    def test_targeted_censorship_holds_only_the_target(self):
        result = simulate(_targeted_censorship(), seed=0)
        included = {e["user"]: e["t"] for e in _events(result, "withdrawal_included")}
        assert included["carol"] == 1320  # normal grid batch
        assert included["mallory-target"] == 1800  # forced inclusion at timeout
        forced = _events(result, "forced_inclusion")[0]
        assert forced["delay"] <= 600 + 12

    def test_degradation_multiplies_admission_latency(self):
        raw = _scenario(
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 500, "action": "withdraw", "user": "u", "amount": 100},
                ]
            },
            injections=[
                {"kind": "sequencer-performance-degradation", "at": 400, "duration": 1000}
            ],
        )
        result = simulate(parse_scenario(raw), seed=0)
        admitted = _events(result, "tx_admitted")[0]
        assert admitted["t"] == 510  # 1s baseline x factor 10

    def test_bridge_pause_defers_claims_until_it_lifts(self):
        raw = _scenario(
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 120, "action": "withdraw", "user": "u", "amount": 100},
                ]
            },
            # covers the claim instant (batch 240 + proof 3600 + finality 768)
            injections=[{"kind": "bridge-pause-risk", "at": 4000, "duration": 2000}],
        )
        result = simulate(parse_scenario(raw), seed=0)
        deferred = _events(result, "claim_deferred")[0]
        claimed = _events(result, "withdrawal_claimed")[0]
        assert deferred["retry_at"] == 6000
        assert claimed["t"] == 6000
        assert result.metrics.frozen_funds_duration > 0

    def test_deposit_rejected_while_bridge_paused(self):
        raw = _scenario(
            workload={"actions": [{"at": 100, "action": "deposit", "user": "u", "amount": 9}]},
            injections=[{"kind": "bridge-halt", "at": 0, "duration": 600}],
        )
        result = simulate(parse_scenario(raw), seed=0)
        rejected = _events(result, "action_rejected")[0]
        assert rejected["reason"] == "bridge unavailable"


class TestEscapeHatch:
    def test_disabled_hatch_rejects(self):
        raw = _scenario(
            workload={"actions": [{"at": 0, "action": "hatch-exit", "user": "u", "amount": 0}]}
        )
        result = simulate(parse_scenario(raw), seed=0)
        assert _events(result, "action_rejected")[0]["reason"] == "escape hatch disabled"

    def test_withheld_data_blocks_the_hatch(self):
        raw = {
            "config": {
                "proof_system": "zk",
                "escape_hatch": {"enabled": True},
                "da": {"mode": "external", "attestation_quorum": 1, "withholding_possible": True},
            },
            "workload": {
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 1000, "action": "hatch-exit", "user": "u", "amount": 0},
                ]
            },
            "injections": [{"kind": "da-withholding", "at": 500, "duration": 5000}],
        }
        result = simulate(parse_scenario(raw, name="withheld"), seed=0)
        assert _events(result, "action_rejected")[0]["reason"] == "data unavailable"

    @pytest.mark.parametrize(
        "first, reason",
        [("bridge-halt", "bridge unavailable"), ("da-withholding", "data unavailable")],
    )
    def test_the_earliest_blocking_fault_names_the_refusal(self, first, reason):
        second = "da-withholding" if first == "bridge-halt" else "bridge-halt"
        raw = {
            "config": {
                "proof_system": "zk",
                "escape_hatch": {"enabled": True},
                "da": {"mode": "external"},
            },
            "workload": {"actions": [{"at": 1000, "action": "hatch-exit", "user": "u", "amount": 0}]},
            # listed out of start order: start order decides
            "injections": [
                {"kind": second, "at": 200, "duration": 5000},
                {"kind": first, "at": 100, "duration": 5000},
            ],
        }
        result = simulate(parse_scenario(raw, name="both"), seed=0)
        assert _events(result, "action_rejected")[0]["reason"] == reason

    def test_withholding_is_inert_for_onchain_data(self):
        raw = _scenario(
            injections=[{"kind": "da-withholding", "at": 0, "duration": 100}],
        )
        raw["config"]["escape_hatch"] = {"enabled": True}
        raw["workload"] = {
            "actions": [
                {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                {"at": 50, "action": "hatch-exit", "user": "u", "amount": 0},
            ]
        }
        result = simulate(parse_scenario(raw), seed=0)
        assert "ineffective" in _events(result, "injection_start")[0]
        assert _events(result, "hatch_exit_included")


class TestUpgrades:
    def test_no_holders_means_undefined_coverage(self):
        raw = _scenario(upgrade={"announce_at": 0})
        result = simulate(parse_scenario(raw), seed=0)
        assert result.metrics.exit_coverage_before_upgrade is None

    def test_horizon_truncates_the_run(self):
        raw = _scenario(
            sim={"horizon": 1000},
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 200, "action": "withdraw", "user": "u", "amount": 100},
                ]
            },
        )
        result = simulate(parse_scenario(raw), seed=0)
        assert max(e["t"] for e in result.events) <= 1000
        assert not _events(result, "withdrawal_claimed")

    @staticmethod
    def _outage_withdrawal(horizon: int | None, usable: bool = True) -> Scenario:
        """A withdrawal at 1,000 s, denied by a sequencer outage from 500 s to
        200,500 s, with or without usable forced inclusion (24 h timeout)."""
        raw = _scenario(
            injections=[{"kind": "sequencer-outage", "at": 500, "duration": 200_000}],
            workload={
                "actions": [
                    {"at": 0, "action": "deposit", "user": "u", "amount": 500},
                    {"at": 1000, "action": "withdraw", "user": "u", "amount": 100},
                ]
            },
        )
        raw["config"]["forced_inclusion"] = {"enabled": usable, "usable": usable, "timeout": DAY}
        if horizon is not None:
            raw["sim"] = {"horizon": horizon}
        return parse_scenario(raw)

    @pytest.mark.parametrize(
        "horizon, frozen", [(5000, 4000), (50_000, 49_000), (80_000, 79_000), (None, 86_408)]
    )
    def test_frozen_funds_run_to_the_horizon_that_cuts_the_run(self, horizon, frozen):
        # the withdrawal waits out the outage in the forced queue; a cut run
        # counts its open stay up to the horizon, not to its last event
        scenario = self._outage_withdrawal(horizon)
        assert simulate(scenario, seed=0).metrics.frozen_funds_duration == frozen

    @pytest.mark.parametrize("usable, uncut", [(True, 86_408), (False, 199_500)])
    @pytest.mark.parametrize("horizon", [5000, 50_000, 80_000, None])
    def test_censorship_window_runs_to_the_horizon_that_cuts_the_run(self, usable, uncut, horizon):
        # the withdrawal waits in the forced queue, or is dropped until the
        # outage ends; a cut run counts either up to the horizon, not 0 and
        # not past it
        scenario = self._outage_withdrawal(horizon, usable)
        window = uncut if horizon is None else horizon - 1000
        assert simulate(scenario, seed=0).metrics.censorship_window == window
        reference = _AllOnHeapRun(scenario, 0)
        reference.execute()
        assert reference.result().metrics.censorship_window == window

# -- trace freeze, stall-state equivalence and scaling -------------------------

_FAULT_KINDS = tuple(k for k in InjectionKind if k is not InjectionKind.EXPLOIT_USER_RISK)


def _fault_laden(seed: int) -> Scenario:
    """Six users, 46 explicit actions with hatch exits, and four overlapping
    fault windows on a config drawn from the seed: together the seeds reach
    targeted censorship, proposer and prover outages, deferred claims,
    forced inclusion, dropped transactions and hatch exits."""
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(6)]
    actions = [
        WorkloadAction(rng.randrange(600), "deposit", u, rng.randint(500, 2_000)) for u in users
    ]
    for _ in range(40):
        user = rng.choice(users)
        kind = rng.choice(("withdraw", "withdraw", "transfer", "deposit", "hatch-exit"))
        at = rng.randrange(600, 6 * HOUR)
        if kind == "transfer":
            to = rng.choice([u for u in users if u != user])
            actions.append(WorkloadAction(at, kind, user, rng.randint(1, 400), to))
        elif kind == "hatch-exit":
            actions.append(WorkloadAction(at, kind, user, rng.choice((0, 100))))
        else:
            actions.append(WorkloadAction(at, kind, user, rng.randint(1, 400)))
    injections = []
    for _ in range(4):
        kind = rng.choice(_FAULT_KINDS)
        targets = ()
        if kind is InjectionKind.CENSORSHIP_FORCED_INCLUSION_FAILURE and rng.random() < 0.7:
            targets = tuple(rng.sample(users, 2))
        duration = rng.choice((900, HOUR, 4 * HOUR))
        injections.append(Injection(kind, rng.randrange(6 * HOUR), duration, targets))
    zk = seed % 2 == 0
    fi = rng.random() < 0.5
    config = RollupConfig(
        proof_system=ProofSystem.ZK if zk else ProofSystem.OPTIMISTIC,
        challenge_window=0 if zk else 2 * HOUR,
        prover_set=ProverSetConfig(permissionless=rng.random() < 0.2) if zk else None,
        proposer=ProposerConfig(whitelist=rng.random() < 0.8),
        forced_inclusion=ForcedInclusionConfig(enabled=fi, usable=fi, timeout=1_800),
        escape_hatch=EscapeHatchConfig(enabled=True),
        da=DaConfig(mode=DaMode.EXTERNAL) if rng.random() < 0.5 else DaConfig(),
    )
    return Scenario(f"faults-{seed}", config, actions=actions, injections=tuple(injections))


FAULT_SEEDS = range(12)
RANDOM_SEEDS = range(50)


def _acceptance_random() -> Scenario:
    return Scenario(
        name="acceptance-random",
        config=RollupConfig.centralized_default(),
        random_workload=RandomWorkload(),
    )


def _digest(result) -> str:
    blob = "\n".join(result.trace_lines()) + "\n" + json.dumps(result.summary(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of each run's trace plus its summary. A change to any of them is a
# change in simulated behaviour; a speed-up must leave them all as they are.
FROZEN_BUNDLED = {
    "escape-hatch-outage": "09eae9b88343d88cd1b253c574d12e2bf954b46681f83c2b3a9bf2982acc9ae6",
    "exploit-invalid-root": "bb400a242a80ce367f175ed22faf1160112b1be86ce3e6eecac2f844e704404e",
    "instant-upgrade": "eced597646ccefab00c56d7421d36d4a84a25c61ff8445c6d2e95a9d3b20c44b",
    "proposer-freeze": "016a5b825f9cda4405fd97b1512ed9e65cdc54d0f1d98a0584084557fabd84c0",
    "sequencer-outage-fi-1h": "4b3fc369f900ef157afc987b01374ea659914d365c9c906456c3eaa18e679862",
    "sequencer-outage-fi-24h": "927413b35d692cb8cec8e0a2a720a823f9bb7d8d082dd86c784b22757ade51e1",
    "timelocked-upgrade-blocked": "14d5bf0bb202bf520f861726707e6c1f2472002bbae69b4c6db43bbbc99e495c",
    "timelocked-upgrade-exit": "734c43d6088e1f5c2a38fb97121798e76669cf73458c6ff77d4b4d909989cb73",
    "zk-withdrawal-baseline": "3a8bb92c1236693ef4d020b249835bbc2ba0c32a321225995778484f0101d894",
}
FROZEN_FAULT_LADEN = {
    0: "92cb21138606f81c81417fbb8ae639a7cd0d50d00ce4f7a07858d8646bc6e5af",
    1: "0bba6216b77423e3833c212bb54681bd49dd34cd49809f3be648ce8b8283c275",
    2: "884ab39a08d908d8852524257920fbe14d74da74d20260acf370f32a03781544",
    3: "655bd7e39a7cf2068412521c946fb541bca09ec46928f1ac7efa70cf589a904b",
    4: "2f7cec3d9ecd10e724aac4eba549429b903b29d25f60a13d35c4d848edbf35f9",
    5: "38d17ec168c351be97f410c46d1f9073e01bcbb292e60a920829377aff93f03d",
    6: "29d2ebc4c4ade693bcfa15ae20ce1ef0c2f5c72903e76fe7396ebf312492fb5d",
    7: "0b925d0204663f9bfee7b78d42cf7a8dc8f4e7c43bdaecf6f3a271c1387f454e",
    8: "803885141a08d53aa85e30513a4f841663d2f865f46a4691843e121c6f5bbe7c",
    9: "c8f5d7e338db41918e48d9e016f7d7688b7b62b9d607dd6842841f59d5050486",
    10: "2609115e0bdbd156b1a1510d7a12ec6ab4042fdc8cc1d6a8478c95606191163d",
    11: "b0e9564e1d5a065758fc6f1c80e97e9c3b4307266322a499c98fba5f471ee3f0",
}
# sha256 over the 50 per-seed digests of RandomWorkload() on the centralized
# default config, joined by newlines in seed order.
FROZEN_RANDOM_SEEDS = "443e975c25f34cbfe29cca6ebf9a206e54c3c7796cd7a03f8b8273d48c3e1dd9"
# _random(users, actions) at the benchmark ladder's 2k and 16k rungs, seed 0.
FROZEN_LADDER = {
    (100, 2_000): "f892051d28cbf8ecd71ba53a425c841dd7858c5c31f63fa3f529908231138383",
    (1_000, 16_000): "a7b3117124880c5363b397120b729038929852455ac886631303c6418dd96c6a",
}


class TestTraceFreeze:
    @pytest.mark.parametrize("name", sorted(BUNDLED_EXPECTATIONS))
    def test_bundled(self, name):
        assert _digest(simulate(load_bundled_scenario(name), seed=0)) == FROZEN_BUNDLED[name]

    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_fault_laden(self, seed):
        assert _digest(simulate(_fault_laden(seed), seed=0)) == FROZEN_FAULT_LADEN[seed]

    def test_random_seeds(self):
        sc = _acceptance_random()
        digests = "\n".join(_digest(simulate(sc, seed=s)) for s in RANDOM_SEEDS)
        assert hashlib.sha256(digests.encode()).hexdigest() == FROZEN_RANDOM_SEEDS

    @pytest.mark.parametrize("users, actions", sorted(FROZEN_LADDER))
    def test_ladder_sizes(self, users, actions):
        digest = _digest(simulate(_random(users, actions), seed=0))
        assert digest == FROZEN_LADDER[users, actions]

    def test_fault_laden_reach_every_stall_path(self):
        seen = set()
        targeted = False
        for seed in FAULT_SEEDS:
            sc = _fault_laden(seed)
            seen |= {e["event"] for e in simulate(sc, seed=0).events}
            targeted |= any(inj.targets for inj in sc.injections)
        assert targeted
        assert {
            "claim_deferred",
            "hatch_exit_included",
            "proposal_blocked",
            "tx_queued_forced",
            "forced_inclusion",
            "tx_dropped",
        } <= seen


def _compact(event: dict) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


# Text a JSON string must escape or \u-escape: quotes, backslashes, control
# characters (DEL too, just past "~"), non-ASCII (a line separator, a
# supplementary-plane character) and what would close one object and open
# the next.
_ODD_TEXT = ('"', "\\", "},{", "\n", "\x00", "\x7f", "é", "名前", "\u2028", "\U0001f600")
# Text JSON writes as itself: the ends of the printable ASCII range, and
# marks that other formats escape.
_PLAIN_TEXT = (" ", "~", "/", "'")


@st.composite
def _odd_user_scenarios(draw, faults: bool = False) -> Scenario:
    """Explicit workloads whose user names hold text JSON must escape, with an
    upgrade so the names also land in the holders list and a share in
    exit_coverage. With ``faults``, one to three fault windows (censorship
    aimed at some of the names) on a config drawn with or without usable
    forced inclusion, so the names also go through rejected, failed, queued
    and dropped transactions."""
    name = st.builds(operator.add, st.sampled_from(_ODD_TEXT), st.text(max_size=3))
    users = draw(st.lists(name, min_size=2, max_size=4, unique=True))
    actions = [WorkloadAction(draw(st.integers(0, 600)), "deposit", u, 1_000) for u in users]
    # the first user only deposits, so someone still holds funds when the
    # upgrade is announced even if every other user has exited by then
    for _ in range(draw(st.integers(0, 8))):
        user = draw(st.sampled_from(users[1:]))
        at = draw(st.integers(0, 3 * HOUR))
        kind = draw(st.sampled_from(["withdraw", "transfer", "hatch-exit"]))
        others = [u for u in users if u != user]
        if kind == "transfer" and others:
            to = draw(st.sampled_from(others))
            actions.append(WorkloadAction(at, kind, user, draw(st.integers(1, 600)), to))
        elif kind == "hatch-exit":
            actions.append(WorkloadAction(at, kind, user, draw(st.integers(0, 600))))
        else:
            actions.append(WorkloadAction(at, "withdraw", user, draw(st.integers(1, 1_200))))
    window = draw(st.sampled_from((HOUR, 3 * HOUR)))
    config = RollupConfig(
        escape_hatch=EscapeHatchConfig(enabled=True),
        upgrade=UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=window),
    )
    injections = []
    if faults:
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(_FAULT_KINDS))
            targets = ()
            if kind is InjectionKind.CENSORSHIP_FORCED_INCLUSION_FAILURE:
                targets = tuple(draw(st.lists(st.sampled_from(users), max_size=2, unique=True)))
            at = draw(st.integers(0, 3 * HOUR))
            injections.append(Injection(kind, at, draw(st.sampled_from((900, HOUR))), targets))
        fi = draw(st.booleans())
        config = dataclasses.replace(
            config,
            forced_inclusion=ForcedInclusionConfig(enabled=fi, usable=fi, timeout=1_800),
            da=draw(st.sampled_from((DaConfig(), DaConfig(mode=DaMode.EXTERNAL)))),
        )
    # announced once every deposit has landed, so there are holders to count
    announce = draw(st.integers(600, 2 * HOUR))
    return Scenario(
        "odd-users", config, actions=actions, injections=injections, upgrade_at=announce
    )


def _odd_users_on_fault_paths(fi: bool, texts: tuple[str, ...] = _ODD_TEXT) -> Scenario:
    """Users named after nine or more texts (by default, text JSON must
    escape), each sent down one fault path: dropped (or, with forced inclusion,
    queued) during an outage and under censorship aimed at them, deposits and
    hatch exits refused by a bridge halt and by withheld data, a hatch exit
    with nothing left to exit, and an overdraft."""
    u = [f"{text}-{i}" for i, text in enumerate(texts)]
    actions = [WorkloadAction(0, "deposit", name, 1_000) for name in u]
    actions += [
        WorkloadAction(HOUR + 100, "withdraw", u[0], 100),
        WorkloadAction(3 * HOUR + 100, "deposit", u[1], 100),
        WorkloadAction(3 * HOUR + 200, "hatch-exit", u[2], 0),
        WorkloadAction(5 * HOUR + 100, "hatch-exit", u[3], 0),
        WorkloadAction(7 * HOUR, "hatch-exit", u[4], 0),
        WorkloadAction(7 * HOUR + 600, "hatch-exit", u[4], 0),
        WorkloadAction(7 * HOUR, "withdraw", u[5], 5_000),
        WorkloadAction(9 * HOUR + 100, "transfer", u[6], 100, u[7]),
        WorkloadAction(9 * HOUR + 200, "transfer", u[7], 100, u[8]),
    ]
    injections = (
        Injection(InjectionKind.SEQUENCER_OUTAGE, HOUR, HOUR),
        Injection(InjectionKind.BRIDGE_HALT, 3 * HOUR, HOUR),
        Injection(InjectionKind.DA_WITHHOLDING, 5 * HOUR, HOUR),
        Injection(InjectionKind.CENSORSHIP_FORCED_INCLUSION_FAILURE, 9 * HOUR, HOUR, (u[6],)),
    )
    config = RollupConfig(
        forced_inclusion=ForcedInclusionConfig(enabled=fi, usable=fi, timeout=1_800),
        escape_hatch=EscapeHatchConfig(enabled=True),
        da=DaConfig(mode=DaMode.EXTERNAL),
    )
    return Scenario("odd-users-faults", config, actions=actions, injections=injections)


def _beyond_64_bits() -> list[Scenario]:
    """Deposits, withdrawals, transfers, hatch exits and an exploit whose
    amounts exceed 2**63, on configs that reject, challenge and finalize the
    exploit's invalid root."""
    big = 2**64 + 1
    actions = [WorkloadAction(0, "deposit", u, 3 * big) for u in ("a", "b")]
    actions += [
        WorkloadAction(600, "withdraw", "a", big),
        WorkloadAction(600, "transfer", "b", big + 2**63, "a"),
        WorkloadAction(900, "hatch-exit", "b", big),
        WorkloadAction(900, "withdraw", "b", 10 * big),
    ]
    exploit = Injection(InjectionKind.EXPLOIT_USER_RISK, at=1_200, amount=2**70)
    hatch = EscapeHatchConfig(enabled=True)
    configs = (
        RollupConfig(escape_hatch=hatch),
        RollupConfig(
            proof_system=ProofSystem.OPTIMISTIC, challenge_window=2 * HOUR, escape_hatch=hatch
        ),
        RollupConfig(escape_hatch=hatch, state_validation_enforced=False),
    )
    return [Scenario("big", c, actions=actions, injections=(exploit,)) for c in configs]


def _upgrade_edge_cases() -> list[Scenario]:
    """An upgrade announced before anyone holds funds (no holders, a share of
    null), and one announced to three holders with names JSON must escape,
    one of whom exits in time (a share of 1/3), next to a prover outage that
    permissionless provers neutralize."""
    empty = Scenario(
        "upgrade-no-holders",
        RollupConfig(upgrade=UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=HOUR)),
        actions=[WorkloadAction(600, "deposit", "late", 100)],
        upgrade_at=0,
    )
    users = ['"-0', "\\-1", "名前-6"]
    actions = [WorkloadAction(0, "deposit", u, 1_000) for u in users]
    actions.append(WorkloadAction(600, "withdraw", users[0], 1_000))
    third = Scenario(
        "upgrade-third-exits",
        RollupConfig(
            prover_set=ProverSetConfig(permissionless=True),
            upgrade=UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=2 * HOUR),
        ),
        actions=actions,
        injections=(Injection(InjectionKind.PROVER_OUTAGE, 600, HOUR),),
        upgrade_at=700,
    )
    return [empty, third]


def _invalid_root_variants() -> list[Scenario]:
    """Criterion 4e's two variants of exploit-invalid-root: with state
    validation off the root finalizes and drains the bridge; on a validity
    proof system it is rejected as it lands."""
    raw = json.loads(fixture_path("scenarios/exploit-invalid-root.json").read_text())
    unenforced = copy.deepcopy(raw)
    unenforced["config"]["state_validation_enforced"] = False
    zk = copy.deepcopy(raw)
    zk["config"]["proof_system"] = "zk"
    del zk["config"]["challenge_window"]
    return [parse_scenario(unenforced, name="unenforced"), parse_scenario(zk, name="zk")]


class TestTraceLines:
    """trace_lines() writes each event exactly as json.dumps with sorted keys
    and compact separators does, with no JSON encoder."""

    def _check(self, result) -> set[str]:
        assert result.trace_lines() == [_compact(e) for e in result.events]
        # Each event holds what the field table lists for its kind (a
        # neutralized fault's start adds its note), and each kind and key
        # count has a writer in both tables: a kind a handler appends
        # without one fails.
        for e in result.events:
            note = {"ineffective"} if e["event"] == "injection_start" else set()
            assert e.keys() - note == {"t", "i", "event", *_Run.TRACE_FIELDS[e["event"]]}
            for plain_names in (False, True):
                assert callable(sim_engine._line_formats(plain_names)[e["event"]][len(e)])
        return {e["event"] for e in result.events}

    def test_every_kind_and_the_neutralized_start_have_a_writer_in_both_tables(self):
        lengths = {kind: {len(fields) + 3} for kind, fields in _Run.TRACE_FIELDS.items()}
        lengths["injection_start"].add(len(_Run.TRACE_FIELDS["injection_start"]) + 4)
        for plain_names in (False, True):
            writers = sim_engine._line_formats(plain_names)
            assert {kind: set(by_length) for kind, by_length in writers.items()} == lengths
            assert all(callable(w) for by_length in writers.values() for w in by_length.values())

    def test_a_record_of_a_length_with_no_writer_raises_key_error(self):
        result = simulate(load_bundled_scenario("sequencer-outage-fi-1h"), seed=0)
        (start,) = (r for r in result.records if r[0] == "injection_start")
        for record in (start[:-1], start + ("note", "more")):
            for plain_names in (False, True):
                broken = dataclasses.replace(result, records=(record,))
                broken.__dict__["_plain_names"] = plain_names
                with pytest.raises(KeyError):
                    broken.trace_lines()

    def test_bundled_and_fault_laden_runs(self):
        for name in sorted(FROZEN_BUNDLED):
            self._check(simulate(load_bundled_scenario(name), seed=0))
        for seed in sorted(FROZEN_FAULT_LADEN):
            self._check(simulate(_fault_laden(seed), seed=0))

    def test_records_hold_their_kinds_fields_and_read_back_as_the_events(self):
        runs = [simulate(load_bundled_scenario(name), seed=0) for name in sorted(FROZEN_BUNDLED)]
        runs += [simulate(_fault_laden(seed), seed=0) for seed in sorted(FROZEN_FAULT_LADEN)]
        runs += [simulate(_acceptance_random(), seed=seed) for seed in RANDOM_SEEDS[:8]]
        runs += [simulate(scenario, seed=0) for scenario in _invalid_root_variants()]
        notes = 0
        kinds = set()
        for result in runs:
            # (kind, t, i, *values): one value per field, and a neutralized
            # fault's start one more, its ineffective note
            for i, record in enumerate(result.records):
                extra = len(record) - 3 - len(_Run.TRACE_FIELDS[record[0]])
                assert extra == 0 or (record[0] == "injection_start" and extra == 1), record
                assert record[2] == i
                notes += extra
                kinds.add(record[0])
            assert [json.loads(line) for line in result.trace_lines()] == list(result.events)
        assert notes > 0
        # each handler builds its own record, so every kind's shape is checked
        assert kinds == set(_Run.TRACE_FIELDS)

    @settings(max_examples=60, deadline=None)
    @given(_odd_user_scenarios())
    def test_user_names_that_need_escaping(self, scenario):
        result = simulate(scenario, seed=0)
        assert any(isinstance(e.get("exit_coverage"), float) for e in result.events)
        self._check(result)

    @settings(max_examples=60, deadline=None)
    @given(_odd_user_scenarios(faults=True))
    def test_user_names_that_need_escaping_under_faults(self, scenario):
        self._check(simulate(scenario, seed=0))

    def test_user_names_that_need_escaping_on_every_fault_path(self):
        paths = {
            ("action_rejected", "bridge unavailable"),
            ("action_rejected", "data unavailable"),
            ("tx_failed", "nothing to exit"),
            ("tx_failed", "insufficient funds"),
        }
        for fi, denied in ((False, "tx_dropped"), (True, "tx_queued_forced")):
            result = simulate(_odd_users_on_fault_paths(fi), seed=0)
            self._check(result)
            # every user has an odd name, so each of these lines escapes one
            assert paths <= {(e["event"], e.get("reason")) for e in result.events if "user" in e}
            kinds = {e["event"] for e in result.events}
            assert {"hatch_exit_submitted", "transfer_applied", denied} <= kinds

    def test_plain_names_on_every_fault_path(self):
        for fi in (False, True):
            result = simulate(_odd_users_on_fault_paths(fi, _PLAIN_TEXT * 3), seed=0)
            assert result._plain_names
            self._check(result)

    def test_one_name_that_needs_escaping_among_plain_ones(self):
        # The one odd name is a transfer's recipient, as well as a user in
        # the fault-path runs; in the last run it is only ever a recipient.
        texts = (*_PLAIN_TEXT * 2, "\x7f", *_PLAIN_TEXT)
        scenarios = [_odd_users_on_fault_paths(fi, texts) for fi in (False, True)]
        actions = [
            WorkloadAction(0, "deposit", "a", 100),
            WorkloadAction(600, "transfer", "a", 50, '"'),
        ]
        scenarios.append(Scenario("odd-recipient", RollupConfig(), actions=actions))
        for scenario in scenarios:
            result = simulate(scenario, seed=0)
            # the whole run takes the escaping path, plain names and all
            assert not result._plain_names
            assert "transfer_applied" in self._check(result)

    def test_amounts_beyond_64_bits(self):
        for scenario in _beyond_64_bits():
            result = simulate(scenario, seed=0)
            assert any(e.get("amount", 0) > 2**63 for e in result.events)
            self._check(result)

    def test_upgrade_edge_cases(self):
        empty, third = (simulate(scenario, seed=0) for scenario in _upgrade_edge_cases())
        for result in (empty, third):
            self._check(result)
        assert [e["holders"] for e in _events(empty, "upgrade_announced")] == [[]]
        assert [e["exit_coverage"] for e in _events(empty, "upgrade_activated")] == [None]
        (announced,) = _events(third, "upgrade_announced")
        assert announced["holders"] == sorted(['"-0', "\\-1", "名前-6"])
        assert [e["exit_coverage"] for e in _events(third, "upgrade_activated")] == [1 / 3]
        (start,) = _events(third, "injection_start")
        assert start["kind"] == "prover-outage" and "permissionless" in start["ineffective"]

    def test_the_checked_runs_write_every_event_kind(self):
        runs = [simulate(load_bundled_scenario(name), seed=0) for name in sorted(FROZEN_BUNDLED)]
        runs += [simulate(_fault_laden(seed), seed=0) for seed in sorted(FROZEN_FAULT_LADEN)]
        runs += [simulate(_odd_users_on_fault_paths(fi), seed=0) for fi in (False, True)]
        runs += [simulate(scenario, seed=0) for scenario in _beyond_64_bits()]
        runs += [simulate(scenario, seed=0) for scenario in _upgrade_edge_cases()]
        kinds = set().union(*map(self._check, runs))
        assert kinds == _Run.TRACE_FIELDS.keys()

    def test_write_trace_writes_one_line_per_event(self, tmp_path):
        users = [f"{text}-{i}" for i, text in enumerate(_ODD_TEXT)]
        deposits = [WorkloadAction(0, "deposit", u, 100) for u in users]
        withdrawals = [WorkloadAction(600, "withdraw", u, 50) for u in users]
        odd = Scenario("odd-users", RollupConfig(), actions=deposits + withdrawals)
        # a run with no events writes an empty file, not a blank line
        for result in simulate(odd), simulate(Scenario(name="empty", config=RollupConfig())):
            path = tmp_path / f"{result.scenario}.ndjson"
            result.write_trace(path)
            data = path.read_bytes()
            assert data == "".join(line + "\n" for line in result.trace_lines()).encode("ascii")
            assert data.count(b"\n") == len(result.events)
        assert data == b""

    def test_write_trace_across_chunk_boundaries(self, tmp_path):
        # write_trace writes _TRACE_CHUNK lines at a time; each record count
        # around a chunk's edge writes what the joined lines say, for a run
        # whose names are plain and for one that escapes them
        chunk = sim_engine._TRACE_CHUNK
        odd = [WorkloadAction(600 * (i % 4), "deposit", f'"{i}', 100) for i in range(40)]
        runs = simulate(_random(100, 2_000)), simulate(Scenario("odd", RollupConfig(), actions=odd))
        path = tmp_path / "trace.ndjson"
        for run in runs:
            for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
                records = tuple(itertools.islice(itertools.cycle(run.records), n))
                result = dataclasses.replace(run, records=records)
                result.write_trace(path)
                data = path.read_bytes()
                assert data == "".join(line + "\n" for line in result.trace_lines()).encode()
                assert data.count(b"\n") == n

    def test_no_encoder_whatever_the_event_count(self, monkeypatch):
        real = json.encoder.c_make_encoder
        built = []

        def counting(*args):
            built.append(args)
            return real(*args)

        # JSONEncoder.encode builds its encoder through json.encoder's name,
        # so an encoder is counted whichever way it is built.
        monkeypatch.setattr(json.encoder, "c_make_encoder", counting)
        for users, actions in ((5, 20), (100, 2_000)):
            result = simulate(_random(users, actions), seed=0)
            built.clear()
            lines = result.trace_lines()
            assert len(lines) == len(result.events) > actions
            assert built == [], (actions, len(built))

    def test_no_name_writer_for_a_random_workload(self, monkeypatch):
        written = []

        def counting(write):
            def counted(value):
                written.append(value)
                return write(value)

            return counted

        # Each line writer of both tables looks up the JSON text writers it
        # calls, names and all, in its own namespace when it runs; each of
        # those counts its calls.
        for plain_names in (False, True):
            for by_length in sim_engine._line_formats(plain_names).values():
                for line in by_length.values():
                    for key in sim_engine._JSON_FIELDS:
                        write = line.__globals__["_" + key]
                        monkeypatch.setitem(line.__globals__, "_" + key, counting(write))
        odd = Scenario("odd", RollupConfig(), actions=[WorkloadAction(0, "deposit", '"', 1)])
        simulate(odd).trace_lines()
        assert written  # the counting reaches a run that escapes its names
        for users, actions in ((5, 20), (100, 2_000)):
            result = simulate(_random(users, actions), seed=0)
            written.clear()
            lines = result.trace_lines()
            assert len(lines) == len(result.records) > actions
            assert written == [], (actions, len(written))

    def test_importing_the_cli_builds_no_writer_table(self):
        src = Path(sim_engine.__file__).parents[2]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import l2risk.cli\n"
            "from l2risk.sim import engine, load_bundled_scenario, simulate\n"
            "print(engine._line_formats.cache_info().currsize)\n"
            "simulate(load_bundled_scenario('zk-withdrawal-baseline')).trace_lines()\n"
            "print(engine._line_formats.cache_info().currsize)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        # none at import; the one table a run with plain names reads, once it writes
        assert out.stdout.split() == ["0", "1"]

    def test_the_same_lines_without_the_c_json_module(self):
        # With _json blocked, json.encoder falls back to its pure-Python
        # functions; json.dumps there is the reference the lines must match.
        src = Path(sim_engine.__file__).parents[2]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(Path(__file__).parent)))}
        out = subprocess.run(
            [sys.executable, "-c", _WITHOUT_C_JSON], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["None", "5"]


# Runs the three bundled upgrade scenarios and the upgrade edge cases with
# CPython's _json module blocked; prints json.encoder.c_make_encoder (None
# once blocked) and the number of runs whose lines match json.dumps.
_WITHOUT_C_JSON = """
import sys
for name in [m for m in sys.modules if m == "json" or m.startswith("json.")]:
    del sys.modules[name]  # imported at start-up, say by a .pth file
sys.modules["_json"] = None
import json
from l2risk.sim import load_bundled_scenario, simulate
from test_sim import _upgrade_edge_cases
print(json.encoder.c_make_encoder)
names = ("instant-upgrade", "timelocked-upgrade-blocked", "timelocked-upgrade-exit")
runs = [simulate(load_bundled_scenario(n), seed=0) for n in names]
runs += [simulate(s, seed=0) for s in _upgrade_edge_cases()]
dumps = lambda e: json.dumps(e, sort_keys=True, separators=(",", ":"))
print(sum(r.trace_lines() == [dumps(e) for e in r.events] for r in runs))
"""


class _ExitsFromRecords:
    """The exits in flight, built from the records emitted so far and never
    from the engine's tables, as ROADMAP item 10's replay reads the trace:
    tx_submitted (withdraw) queues an exit, tx_admitted moves it to
    admitted, and tx_dropped takes it out; batch_created takes out the
    admitted exits, which ride that batch, and the forced-queued ones whose
    user access_ends lets in, which the batch frees; forced_inclusion takes
    its exit out; withdrawal_included puts it in awaiting_root, its t the
    batch time; root_finalized takes out its withdrawals count of exits
    with that batch time, oldest inclusion first; claim_deferred makes any
    exit claimable and withdrawal_claimed takes it out. Each replay reads
    the records of one event, so access_ends reads the faults active at it."""

    def __init__(self):
        self.read = 0
        self.queued = {}  # id -> user
        self.forced = set()  # the queued ids on the forced queue
        self.admitted = set()
        self.awaiting_root = {}  # id -> batch time, in inclusion order
        self.claimable = set()

    def replay(self, records, access_ends):
        for kind, t, _i, *values in records[self.read :]:
            if kind == "tx_submitted" and values[1] == "withdraw":
                self.queued[values[0]] = values[2]
            elif kind == "tx_admitted" and values[0] in self.queued:
                del self.queued[values[0]]
                self.admitted.add(values[0])
            elif kind == "tx_queued_forced" and values[0] in self.queued:
                self.forced.add(values[0])
            elif kind in ("tx_dropped", "forced_inclusion"):
                self.queued.pop(values[0], None)
                self.forced.discard(values[0])
            elif kind == "batch_created":
                self.admitted.clear()
                for xid in [x for x in self.forced if not access_ends(self.queued[x])]:
                    del self.queued[xid]
                    self.forced.remove(xid)
            elif kind == "withdrawal_included":
                assert values[0] not in self.queued and values[0] not in self.admitted
                self.awaiting_root[values[0]] = t
            elif kind == "root_finalized":
                batch_time, withdrawals = values
                final = [x for x, bt in self.awaiting_root.items() if bt == batch_time]
                assert len(final) >= withdrawals, (t, kind, values)
                for xid in final[:withdrawals]:
                    del self.awaiting_root[xid]
            elif kind == "claim_deferred":
                self.claimable.add(values[0])
            elif kind == "withdrawal_claimed":
                self.claimable.discard(values[0])
        self.read = len(records)

    def tables(self) -> dict[str, set[str]]:
        """The ids in each of the engine's stage tables, as replayed."""
        return {
            "queued": set(self.queued),
            "admitted": self.admitted,
            "awaiting_root": set(self.awaiting_root),
            "claimable": self.claimable,
        }


def _scan_stalled(run: _Run, exits: _ExitsFromRecords) -> bool:
    """The stall test as a plain scan of every exit the records show in
    flight, evaluating the engine's fault predicates per exit: the reference
    the engine's answer must match after every event. An admitted exit waits
    only on a sequencer fault, one not yet admitted on its user's access,
    and one in a batch already created on nothing."""
    zk = run.cfg.proof_system is ProofSystem.ZK
    if any(run._access_ends(user) for user in exits.queued.values()):
        return True
    if any(run._ends("sequencer") for _xid in exits.admitted):
        return True
    if any(run._ends("proposals") or (zk and run._ends("proofs")) for _xid in exits.awaiting_root):
        return True
    return any(run._ends("claims", "bridge") for _xid in exits.claimable)


class _AfterEachEvent:
    """Mixed in ahead of a _Run class: calls _after_event(kind) after every
    event's handler, whichever bookkeeping the loop skips for that event."""

    def _bind(self, kind):
        handler = super()._bind(kind)

        def then(*args):
            handler(*args)
            self._after_event(kind)

        return then


class _StallOracle(_AfterEachEvent):
    """Mixed in ahead of a _Run class: after every event, holds each of the
    engine's stage tables to the exits the records show in flight in that
    stage if some window holds it, and to none if none does, and runs a
    reference clock that adds the time since the last event whenever a full
    scan of those exits found one stalled after it. The engine's frozen
    funds must equal that clock when the result is read. So an exit left in
    or put in the wrong table fails at that event, and a held part the
    engine keeps wrongly fails at the run's end."""

    stalled = targeted_stalls = 0

    def __init__(self, scenario, seed):
        super().__init__(scenario, seed)
        self.exits = _ExitsFromRecords()
        self.clock = self.last = 0
        self.was_stalled = False

    def _after_event(self, kind):
        self.exits.replay(self.records, self._access_ends)
        tables = {stage: set(table) for stage, table in self.pending.items()}
        held = {s: ids if self._holding[s] else set() for s, ids in self.exits.tables().items()}
        assert tables == held, (self.now, self.records[-1:])
        self.clock += self.now - self.last if self.was_stalled else 0
        self.last = self.now
        stalled = self.was_stalled = _scan_stalled(self, self.exits)
        self.stalled += stalled
        injections = self.sc.injections
        self.targeted_stalls += stalled and all(injections[idx].targets for idx in self.active)

    def _frozen(self):
        frozen = super()._frozen()
        clock = self.clock + (self.now - self.last if self.was_stalled else 0)
        assert frozen == clock, (self.sc.name, frozen, clock)
        return frozen


class _CheckedRun(_StallOracle, _Run):
    """The engine's own run under the stall oracle."""


def _day_long_fault(kind: InjectionKind, users: int, actions: int) -> Scenario:
    return Scenario(
        name=f"{kind.value}-{actions}",
        config=RollupConfig.centralized_default(),
        random_workload=RandomWorkload(users=users, actions=actions),
        injections=(Injection(kind, at=0, duration=DAY),),
    )


def _stall_edge_cases() -> list[Scenario]:
    """Runs where an exit changes stall status with no fault starting or
    ending: a withdrawal dropped at admission, as an outage began between its
    submission and admission, and a hatch exit whose claim comes due, and is
    deferred, in a claims fault that began while it awaited finality; then
    that hatch exit deferred twice, across two back-to-back claims faults;
    a withdrawal admitted just before a censorship of its user began,
    which the next batch includes all the same; and an admitted, then a
    forced-queued, withdrawal riding a recovery batch that lands during the
    next sequencer halt."""
    dropped = Scenario(
        name="dropped-at-admission",
        config=RollupConfig(),
        actions=(WorkloadAction(100, "withdraw", "u", 5),),
        injections=(Injection(InjectionKind.SEQUENCER_OUTAGE, at=101, duration=HOUR),),
    )
    deferred = Scenario(
        name="hatch-claim-deferred",
        config=RollupConfig(escape_hatch=EscapeHatchConfig(enabled=True)),
        actions=(WorkloadAction(0, "deposit", "u", 50), WorkloadAction(1_000, "hatch-exit", "u")),
        injections=(Injection(InjectionKind.WITHDRAWAL_FAILURE, at=1_500, duration=HOUR),),
    )
    twice = dataclasses.replace(
        deferred,
        name="hatch-claim-deferred-twice",
        injections=(
            *deferred.injections,
            Injection(InjectionKind.WITHDRAWAL_FAILURE, at=1_500 + HOUR, duration=HOUR),
        ),
    )
    return [dropped, deferred, twice, _admitted_then_censored(), *_riding_a_batch()]


def _admitted_then_censored() -> Scenario:
    """u withdraws at 125 and is admitted at 126; a censorship of u starts
    at 130 and holds for an hour."""
    return Scenario(
        "admitted-then-censored",
        RollupConfig(),
        actions=(WorkloadAction(0, "deposit", "u", 50), WorkloadAction(125, "withdraw", "u", 5)),
        injections=(Injection(_CENSORSHIP, 130, HOUR, ("u",)),),
    )


def _riding_a_batch() -> tuple[Scenario, Scenario]:
    """u deposits 50 at 0; the sequencer halts 105-1,000 and 1,003-2,000.
    In the first run u withdraws at 100 and is admitted at 101; in the
    second a censorship of u holds 105-1,000 in place of the first halt,
    and u's withdrawal at 110 waits in the forced queue (12 h timeout).
    Either way the recovery batch of 1,000 carries it and lands at 1,008."""
    halt = InjectionKind.SEQUENCER_HALT
    admitted = Scenario(
        "admitted-riding-a-batch",
        RollupConfig(),
        actions=(WorkloadAction(0, "deposit", "u", 50), WorkloadAction(100, "withdraw", "u", 5)),
        injections=(Injection(halt, 105, 1_000 - 105), Injection(halt, 1_003, 2_000 - 1_003)),
    )
    forced = _usable_forced_inclusion(
        dataclasses.replace(
            admitted,
            name="forced-riding-a-batch",
            actions=(admitted.actions[0], WorkloadAction(110, "withdraw", "u", 5)),
            injections=(Injection(_CENSORSHIP, 105, 1_000 - 105, ("u",)), admitted.injections[1]),
        )
    )
    return admitted, forced


def _stall_oracle_runs() -> list[tuple[Scenario, int]]:
    """The (scenario, seed) runs the stall oracle watches."""
    runs = [(load_bundled_scenario(n), 0) for n in sorted(BUNDLED_EXPECTATIONS)]
    runs += [(_fault_laden(seed), 0) for seed in range(40)]
    # cut while exits are held, so their stays are still open
    runs += [(_with_horizon(_fault_laden(seed), 3 * HOUR), 0) for seed in range(10)]
    runs += [(_acceptance_random(), seed) for seed in range(5)]
    runs.append((_day_long_fault(InjectionKind.PROPOSER_OUTAGE, 20, 200), 0))
    runs.append((_targeted_censorship(), 0))
    runs += [(scenario, 0) for scenario in _stall_edge_cases()]
    return runs


def _engine_copy(method: str | None = None, k: int = 0) -> ModuleType:
    """A copy of the engine module built from its source; with method, the
    k-th line that is a call of self.<method>(...) is made a pass."""
    name = f"{sim_engine.__name__}_copy"
    lines = Path(sim_engine.__file__).read_text().splitlines(keepends=True)
    if method is not None:
        calls = [i for i, line in enumerate(lines) if line.lstrip().startswith(f"self.{method}(")]
        line = lines[calls[k]]
        lines[calls[k]] = line[: len(line) - len(line.lstrip())] + "pass\n"
    module = ModuleType(name)
    sys.modules[name] = module  # dataclass reads the module of SimResult
    try:
        exec(compile("".join(lines), name, "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


# Where _Run restages an exit: _on_tx_admitted, _deny's drop, the forced
# entries _on_recovery_batch frees, the admitted ones _make_batch takes,
# _on_forced_deadline, _on_root_finalized and the payment of a deferred
# claim. An exit enters its first table, and awaiting_root or claimable,
# from no table, so those entries are plain writes.
RESTAGES = 7


class TestStallBookkeeping:
    def _check(self, scenario, seed=0) -> _CheckedRun:
        run = _CheckedRun(scenario, seed)
        run.execute()
        assert run.result() == simulate(scenario, seed)
        return run

    def test_frozen_funds_match_a_clock_run_on_a_full_scan_after_every_event(self):
        runs = [self._check(scenario, seed) for scenario, seed in _stall_oracle_runs()]
        assert sum(r.stalled for r in runs) > 0
        assert sum(r.targeted_stalls for r in runs) > 0

    def test_every_restage_is_needed(self):
        # Each copy of the engine that lacks one restage must fail the
        # oracle or the table check on some run, and the unchanged copy
        # fail none; the copies run in this process.
        source = Path(sim_engine.__file__).read_text()
        assert source.count("self._restage(") == RESTAGES
        runs = _stall_oracle_runs()

        def oracle_fails(engine: ModuleType) -> bool:
            checked = type("Checked", (_StallOracle, engine._Run), {})
            for scenario, seed in runs:
                try:
                    run = checked(scenario, seed)
                    run.execute()
                    run.result()
                except AssertionError:
                    return True
            return False

        assert not oracle_fails(_engine_copy())
        sites = range(RESTAGES)
        survivors = [k for k in sites if not oracle_fails(_engine_copy("_restage", k))]
        assert survivors == []

    def test_a_hatch_claim_deferred_twice_is_frozen_while_either_window_holds(self):
        # The hatch exit is included at 1,008 and its claim comes due 64 L1
        # blocks later, at 1,776, in the first claims fault (1,500-5,100):
        # frozen from 1,776. At 5,100 the first fault ends before the second
        # starts, so the interval closes and opens again, and the claim is
        # deferred once more, to 8,700, when it pays: 3,324 + 3,600 s frozen.
        (twice,) = [s for s in _stall_edge_cases() if s.name == "hatch-claim-deferred-twice"]
        result = self._check(twice).result()
        deferred = [(e["t"], e["retry_at"]) for e in _events(result, "claim_deferred")]
        assert deferred == [(1_776, 5_100), (5_100, 8_700)]
        claimed = _events(result, "withdrawal_claimed")
        assert [(e["t"], e["latency"]) for e in claimed] == [(8_700, 7_700)]
        assert result.metrics.frozen_funds_duration == (5_100 - 1_776) + (8_700 - 5_100) == 6_924

    def test_an_exit_riding_a_created_batch_is_held_by_nothing(self):
        # Frozen while the withdrawal waits for the sequencer (105-1,000) or
        # its user's access (110-1,000); the batch made at 1,000 lands at
        # 1,008 whatever starts at 1,003, so 1,003-1,008 is not frozen.
        admitted, forced = _riding_a_batch()
        for scenario, frozen in ((admitted, 895), (forced, 890)):
            result = self._check(scenario).result()
            created = [(e["t"], e["size"], e["lands_at"]) for e in _events(result, "batch_created")]
            assert created[-1] == (1_000, 1, 1_008), scenario.name
            assert [e["t"] for e in _events(result, "withdrawal_included")] == [1_008]
            assert result.metrics.frozen_funds_duration == frozen, scenario.name

    def test_no_exit_awaiting_a_root_or_a_claim_is_read(self):
        class ScanCountingRun(_Run):
            def __init__(self, scenario, seed):
                super().__init__(scenario, seed)
                self.pending["awaiting_root"] = _ScannedFlights()
                self.pending["claimable"] = _ScannedFlights()

        # A proposer outage holds every exit awaiting a root, a withdrawal
        # failure every claimable one; each exit's stay is kept as it ends,
        # so no event walks those tables, whatever the size. Reading the
        # result walks each once, for the stays still open.
        for kind in (InjectionKind.PROPOSER_OUTAGE, InjectionKind.WITHDRAWAL_FAILURE):
            for users, actions in ((20, 200), (200, 2_000)):
                scenario = _day_long_fault(kind, users, actions)
                run = ScanCountingRun(scenario, 0)
                run.execute()
                tables = [run.pending[stage] for stage in ("awaiting_root", "claimable")]
                assert [table.scans for table in tables] == [0, 0], scenario.name
                result = run.result()
                assert all(table.scans <= 1 for table in tables), scenario.name
                assert result.metrics.frozen_funds_duration > 0, scenario.name
                assert result.events == simulate(scenario, 0).events

    def test_restages_and_held_parts_do_not_grow_with_the_workload(self):
        class CountingRun(_TableWritingRun):
            """Bounds the held parts each restage keeps by the windows
            holding that stage."""

            def _restage(self, stage, exit_, to=None):
                kept = len(self._held)
                super()._restage(stage, exit_, to)
                assert len(self._held) - kept <= len(self._holding[stage]), (stage, exit_["id"])

        # Each fault holds a different stage: a censorship the queued exits,
        # a sequencer outage the queued and admitted ones, a proposer outage
        # those awaiting a root, a withdrawal failure the claimable ones; a
        # slow sequencer holds none. Whatever the size, an exit leaves each
        # stage it enters at most once, and each leaving keeps at most one
        # part per window holding that stage. A stage no window holds gets
        # no entries, and an exit leaving it keeps nothing. A run restages
        # an exit only if some window of the run holds a stage: the slow
        # sequencer's runs restage nothing.
        kinds = [_CENSORSHIP, InjectionKind.SEQUENCER_OUTAGE, InjectionKind.PROPOSER_OUTAGE]
        kinds += [InjectionKind.WITHDRAWAL_FAILURE, InjectionKind.SEQUENCER_PERFORMANCE_DEGRADATION]
        held = 0
        for kind in kinds:
            for users, actions in ((20, 200), (200, 2_000)):
                scenario = _day_long_fault(kind, users, actions)
                run = CountingRun(scenario, 0)
                run.execute()
                for stage, table in run.pending.items():
                    if run._holding[stage]:
                        assert run.restages[stage] <= table.entries, (kind, actions, stage)
                    else:
                        assert table.entries == 0, (kind, actions, stage)
                restaged = sum(run.restages.values()) > 0
                assert restaged == any(run._holding.values()), (kind, actions)
                held += len(run._held)
                assert run.result() == simulate(scenario, 0)
        assert held > 0

    def test_only_a_stage_some_window_holds_has_a_table(self):
        # With no window holding a stage, an exit's stay there is frozen for
        # none of it: that stage's table stays empty, and nothing is clipped
        # to windows, and no exit is restaged: the fault-free run makes no
        # _restage call. A day-long proposer outage holds only the exits
        # awaiting a root; a targeted censorship only the queued ones.
        fault_free = _random(100, 2_000)
        outage = _day_long_fault(InjectionKind.PROPOSER_OUTAGE, 20, 200)
        for scenario, written in (
            (fault_free, set()),
            (outage, {"awaiting_root"}),
            (_targeted_censorship(), {"queued"}),
        ):
            run = _TableWritingRun(scenario, 0)
            run.execute()
            assert run.result() == simulate(scenario, 0)
            entered = {stage for stage, table in run.pending.items() if table.entries}
            assert entered == written, scenario.name
            assert {s for s, windows in run._holding.items() if windows} == written, scenario.name
            assert bool(run.kept) == bool(written), scenario.name
            assert (sum(run.restages.values()) > 0) == bool(written), scenario.name

    def test_restaging_an_exit_missing_from_a_held_stage_raises(self):
        run = _Run(_targeted_censorship(), 0)
        stranger = {"id": "wd-0", "user": "carol", "since": 0}
        run._restage("admitted", stranger)  # no window holds it: nothing to take out
        with pytest.raises(KeyError):
            run._restage("queued", stranger)

    def test_no_fault_lookup_while_no_fault_is_active(self):
        class LookupCountingRun(_Run):
            lookups = 0

            def _ends(self, *effects):
                self.lookups += 1
                return super()._ends(*effects)

            def _access_ends(self, user):
                self.lookups += 1
                return super()._access_ends(user)

        def lookups(scenario, seed=0) -> int:
            run = LookupCountingRun(scenario, seed)
            run.execute()
            assert run.result() == simulate(scenario, seed)
            return run.lookups

        baseline = load_bundled_scenario("zk-withdrawal-baseline")
        fault_free = [(_acceptance_random(), seed) for seed in range(5)]
        fault_free += [(_random(100, 2_000), 0), (baseline, 0)]
        assert all(not sc.injections for sc, _seed in fault_free)
        assert [lookups(sc, seed) for sc, seed in fault_free] == [0] * len(fault_free)
        assert lookups(_day_long_fault(InjectionKind.SEQUENCER_OUTAGE, 20, 200)) > 0
        assert lookups(_day_long_fault(InjectionKind.BRIDGE_HALT, 20, 200)) > 0

    @pytest.mark.parametrize(
        "name", ["instant-upgrade", "exploit-invalid-root", "sequencer-outage-fi-24h"]
    )
    def test_a_run_keeps_its_attributes_inline(self, name):
        # Every attribute the loop reads is a slot, never a __dict__ entry:
        # CPython 3.11-3.13 keep at most 29 inline in a __dict__, and past
        # that every read slows (sim-ladder ops_per_s fell 3.7% at 32).
        # A subclass's instance has a __dict__, where whatever __init__ sets
        # that is not a slot would land.
        scenario = load_bundled_scenario(name)
        open_run = type("OpenRun", (_Run,), {})(scenario, 0)
        assert vars(open_run) == {}
        assert all(hasattr(open_run, slot) for slot in _Run.__slots__)
        run = _Run(scenario, 0)
        run.execute()
        assert not hasattr(run, "__dict__")


class _Entries(dict):
    """Counts the exits put in one stage's table."""

    entries = 0

    def __setitem__(self, key, value):
        self.entries += 1
        super().__setitem__(key, value)


class _TableWritingRun(_Run):
    """Counts the exits entered in each stage's table, the restages out of
    each stage and the stays clipped to the windows holding their stage."""

    kept = 0

    def __init__(self, scenario, seed):
        super().__init__(scenario, seed)
        self.pending = {stage: _Entries() for stage in self.pending}
        self.restages = dict.fromkeys(self.pending, 0)

    def _restage(self, stage, exit_, to=None):
        self.restages[stage] += 1
        super()._restage(stage, exit_, to)

    def _keep_held(self, stage, exit_, held):
        self.kept += 1
        super()._keep_held(stage, exit_, held)


class _TickRecordingRun(_Run):
    """Records the slot of each batch_tick it schedules."""

    def __init__(self, scenario, seed):
        super().__init__(scenario, seed)
        self.ticks = []

    def _push(self, t, prio, kind, *args):
        if kind == "batch_tick":
            self.ticks.append(t)
        super()._push(t, prio, kind, *args)


class TestBatchGrid:
    def test_each_slot_is_scheduled_once(self):
        # An empty batch writes no event, so a second tick at one slot
        # would change no trace; only the pushes show it.
        runs = [(_random(100, 2_000), 0)]
        runs += [(_fault_laden(seed), 0) for seed in range(40)]
        runs += [(load_bundled_scenario(n), 0) for n in sorted(BUNDLED_EXPECTATIONS)]
        for scenario, seed in runs:
            run = _TickRecordingRun(scenario, seed)
            run.execute()
            assert run.result() == simulate(scenario, seed)
            assert run.ticks, scenario.name
            assert run.ticks == sorted(set(run.ticks)), scenario.name


# -- the forced queue, read only where access comes back -------------------------


class _RescanningRun(_Run):
    """The batching the engine replaced: every batch, on the grid or on
    recovery, partitions the whole forced queue against the censorship
    faults, and a recovery batch runs at the grid tick's priority. The
    reference the engine's batches must match."""

    def _push(self, t, prio, kind, *args):
        super()._push(t, _P_BATCH if kind == "recovery_batch" else prio, kind, *args)

    def _on_batch_tick(self):
        if self.active and self._ends("sequencer"):
            return
        active = [self.sc.injections[idx] for idx in self.active]
        censorships = [i for i in active if _FAULT_EFFECTS[i.kind] == "censorship"]
        kept = {
            xid: tx
            for xid, tx in self.forced.items()
            if any(not i.targets or tx["user"] in i.targets for i in censorships)
        }
        freed = [tx for xid, tx in self.forced.items() if xid not in kept]
        self.forced = kept
        for tx in freed:
            if tx["type"] == "withdraw":
                self._restage("queued", tx)
        self._make_batch(freed + self.mempool)

    _on_recovery_batch = _on_batch_tick


_ACCESS_KINDS = tuple(k for k in _FAULT_KINDS if _FAULT_EFFECTS[k] in ("sequencer", "censorship"))
# Instants and lengths that often fall on the 120 s batch or 12 s L1 grid.
_GRID_SPANS = st.one_of(
    st.integers(1, 60).map(lambda k: 120 * k),
    st.integers(1, 600).map(lambda k: 12 * k),
    st.integers(1, 2 * HOUR),
)


@st.composite
def _access_faulted(draw) -> Scenario:
    """2–3 users who each deposit once, 1–3 sequencer or censorship windows
    whose starts and lengths often fall on the grids, and 1–12 actions, many
    in the two minutes before a window ends: so that a window's end,
    another's start and a batch tick of a waiting mempool share a second."""
    users = [f"u{i}" for i in range(draw(st.integers(2, 3)))]
    injections = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.one_of(st.just(_CENSORSHIP), st.sampled_from(_ACCESS_KINDS)))
        targets = ()
        if kind is _CENSORSHIP:
            targets = tuple(draw(st.lists(st.sampled_from(users), unique=True, max_size=2)))
        at = draw(st.one_of(st.just(0), _GRID_SPANS))
        injections.append(Injection(kind, at, draw(_GRID_SPANS), targets))
    ends = [j.end for j in injections]
    before_an_end = st.sampled_from(ends).flatmap(lambda end: st.integers(max(0, end - 119), end))
    actions = [
        WorkloadAction(draw(st.integers(0, 600)), "deposit", u, draw(st.integers(100, 1_000)))
        for u in users
    ]
    for _ in range(draw(st.integers(1, 12))):
        at = draw(st.one_of(st.integers(0, 2 * HOUR), before_an_end))
        user = draw(st.sampled_from(users))
        kind = draw(st.sampled_from(("withdraw", "transfer", "deposit")))
        to = draw(st.sampled_from([u for u in users if u != user])) if kind == "transfer" else None
        actions.append(WorkloadAction(at, kind, user, draw(st.integers(1, 400)), to))
    fi = draw(st.booleans())
    timeout = draw(st.sampled_from((600, 1_800, 12 * HOUR)))
    config = RollupConfig(
        forced_inclusion=ForcedInclusionConfig(enabled=fi, usable=fi, timeout=timeout)
    )
    return Scenario("access", config, actions=tuple(actions), injections=tuple(injections))


def _recovery_beside_a_tick() -> Scenario:
    """A censorship of a ends at 720, a batch-grid second, while a's
    withdrawal waits in the forced queue and b's, admitted at 651, waits in
    the mempool for the tick at 720: one batch must take both together."""
    return Scenario(
        "recovery-beside-a-tick",
        RollupConfig(
            forced_inclusion=ForcedInclusionConfig(enabled=True, usable=True, timeout=12 * HOUR)
        ),
        actions=(
            WorkloadAction(0, "deposit", "a", 100),
            WorkloadAction(0, "deposit", "b", 100),
            WorkloadAction(300, "withdraw", "a", 10),
            WorkloadAction(650, "withdraw", "b", 10),
        ),
        injections=(Injection(_CENSORSHIP, 120, 600, ("a",)),),
    )


def _day_long_censorship(users: int, actions: int) -> Scenario:
    """A day-long censorship of the even-numbered users of a random
    workload, with usable forced inclusion (24 h timeout)."""
    targets = tuple(f"user-{i}" for i in range(0, users, 2))
    return Scenario(
        name=f"censorship-{actions}",
        config=dataclasses.replace(
            RollupConfig.centralized_default(),
            forced_inclusion=ForcedInclusionConfig(enabled=True, usable=True, timeout=DAY),
        ),
        random_workload=RandomWorkload(users=users, actions=actions),
        injections=(Injection(_CENSORSHIP, at=0, duration=DAY, targets=targets),),
    )


class TestForcedQueue:
    def _check(self, scenario, seed=0) -> SimResult:
        reference = _RescanningRun(scenario, seed)
        reference.execute()
        result = simulate(scenario, seed)
        assert reference.result() == result
        return result

    def test_batches_match_a_rescan_of_the_forced_queue_at_every_batch(self):
        results = [self._check(_targeted_censorship())]
        results += [self._check(_usable_forced_inclusion(_fault_laden(s))) for s in range(40)]
        forced = [r for r in results if any(rec[0] == "tx_queued_forced" for rec in r.records)]
        assert len(forced) >= 10

    @settings(max_examples=300, deadline=None)
    @given(_access_faulted())
    @example(_recovery_beside_a_tick())
    def test_batches_match_a_rescan_when_windows_and_ticks_share_a_second(self, sc):
        self._check(sc)

    def test_no_grid_tick_reads_a_forced_entry(self):
        class AccessCountingRun(_Run):
            """Counts the access lookups made inside each batch handler."""

            lookups = None

            def __init__(self, scenario, seed):
                super().__init__(scenario, seed)
                self.tick_lookups = 0
                # (lookups, forced entries queued) per recovery batch
                self.recoveries = []

            def _access_ends(self, user):
                if self.lookups is not None:
                    self.lookups += 1
                return super()._access_ends(user)

            def _on_batch_tick(self):
                self.lookups = 0
                super()._on_batch_tick()
                self.tick_lookups += self.lookups
                self.lookups = None

            def _on_recovery_batch(self):
                queued, self.lookups = len(self.forced), 0
                super()._on_recovery_batch()
                self.recoveries.append((self.lookups, queued))
                self.lookups = None

        # Entries join the forced queue only while their user is shut out,
        # and only a sequencer or censorship end lets a user back in; so a
        # grid tick batches the mempool alone, however long the queue.
        for users, actions in ((20, 200), (200, 2_000)):
            scenario = _day_long_censorship(users, actions)
            run = AccessCountingRun(scenario, 0)
            run.execute()
            assert run.tick_lookups == 0, scenario.name
            assert run.recoveries, scenario.name
            assert all(lookups <= queued for lookups, queued in run.recoveries), scenario.name
            assert sum(queued for _lookups, queued in run.recoveries) > 0, scenario.name
            assert run.result().events == simulate(scenario, 0).events

    def test_a_censored_users_credit_waits_for_the_batch_that_lets_them_in(self):
        # A censorship of u 100-3,700, forced inclusion unusable: u's deposit
        # lands at 204, and its credit waits for the recovery batch of
        # 3,700, which lands at 3,708. v's transfer to u at 300 makes a grid
        # batch at 360 that must not carry u's credit with it.
        deposit = WorkloadAction(200, "deposit", "u", 50)
        transfer = WorkloadAction(300, "transfer", "v", 5, "u")
        for actions in ((deposit,), (deposit, transfer)):
            scenario = Scenario(
                "credit-while-censored",
                RollupConfig(),
                actions=actions,
                injections=(Injection(_CENSORSHIP, 100, 3_600, ("u",)),),
            )
            result = simulate(scenario, 0)
            credited = [(e["t"], e["id"]) for e in _events(result, "credit_applied")]
            assert credited == [(3_708, "dep-1")], actions
        assert [e["t"] for e in _events(result, "batch_created")] == [360, 3_700]


# -- each denial counted when it happens -----------------------------------------


class _DeniedAtApplyRun(_Run):
    """The denial count the engine replaced: each forced-queued transaction
    is recorded in a table and counted when it is applied, or when the
    horizon cuts the run, and every forced entry gets a deadline event,
    which finds nothing to include if a recovery batch took the entry
    first. A drop counts as it happens, as in the engine. The reference
    the engine's count at denial must match."""

    def __init__(self, scenario, seed):
        super().__init__(scenario, seed)
        self.denied = {}  # tx id -> submission time, until applied
        self.deadlines = 0  # forced_deadline events run

    def _queue_forced(self, tx):
        tx["entry"] = self.now
        self.forced[tx["id"]] = tx
        timeout = self.cfg.forced_inclusion.timeout
        deadline = next_l1_block(self.now + timeout, self.p.l1_block_interval)
        self._push(deadline, _P_L1, "forced_deadline", tx["id"])
        return deadline, None

    def _deny(self, tx):
        if not self.cfg.forced_inclusion.usable:
            super()._deny(tx)
            return
        deadline, _included = self._queue_forced(tx)
        self.denied[tx["id"]] = tx["submitted"]
        records = self.records
        records.append(("tx_queued_forced", self.now, len(records), tx["id"], deadline))

    def _on_forced_deadline(self, txid):
        self.deadlines += 1
        if txid in self.forced:
            super()._on_forced_deadline(txid)

    def _apply_tx(self, tx):
        submitted = self.denied.pop(tx["id"], None)
        if submitted is not None:
            self.censorship_window = max(self.censorship_window, self.now - submitted)
        return super()._apply_tx(tx)

    def execute(self):
        super().execute()
        # still unapplied, so the horizon cut the run
        for submitted in self.denied.values():
            self.censorship_window = max(self.censorship_window, self.horizon - submitted)


class _DeadlineCountingRun(_Run):
    deadlines = 0

    def _on_forced_deadline(self, txid):
        self.deadlines += 1
        super()._on_forced_deadline(txid)


def _with_horizon(sc: Scenario, horizon: int | None) -> Scenario:
    return dataclasses.replace(sc, params=dataclasses.replace(sc.params, horizon=horizon))


def _deadline_tie() -> Scenario:
    """A censorship of u holds 100-816; u deposits 50 at 0 and withdraws 5
    at 205, with a 600 s forced-inclusion timeout: the deadline, the L1
    block at or after 805, is 816, the instant u is let back in."""
    return Scenario(
        "deadline-at-let-in",
        RollupConfig(
            forced_inclusion=ForcedInclusionConfig(enabled=True, usable=True, timeout=600)
        ),
        actions=(WorkloadAction(0, "deposit", "u", 50), WorkloadAction(205, "withdraw", "u", 5)),
        injections=(Injection(_CENSORSHIP, 100, 816 - 100, ("u",)),),
    )


def _censorship_from_trace(scenario: Scenario, lines: list[str]) -> int:
    """censorship_window replayed from trace lines alone, plus the scenario's
    censorship targets and horizon, which the trace does not carry. A
    forced-queued transaction counts from its tx_submitted until the first
    line that applies or fails the same id, or until the horizon; a dropped
    one until the first instant clear of its user's access windows, each
    from an injection_start line's until, one marked ineffective skipped.
    Censorship starts are written in start order, list order within a
    second, so they pair with the scenario's censorships sorted so."""
    horizon = math.inf if scenario.params.horizon is None else scenario.params.horizon
    censorships = [j for j in scenario.injections if j.kind is _CENSORSHIP]
    targets = iter(j.targets for j in sorted(censorships, key=lambda j: j.at))
    windows = []  # (start, end, users shut out, () for everyone), in start order
    submitted, users, dropped = {}, {}, {}
    ends = {}  # tx id -> when its denial ends
    for event in map(json.loads, lines):
        kind, t = event["event"], event["t"]
        if kind == "injection_start":
            shut_out = next(targets) if event["kind"] == _CENSORSHIP.value else ()
            if InjectionKind(event["kind"]) in _ACCESS_KINDS and "ineffective" not in event:
                windows.append((t, event["until"], shut_out))
        elif kind == "tx_submitted":
            submitted[event["id"]], users[event["id"]] = t, event["user"]
        elif kind == "tx_queued_forced":
            ends[event["id"]] = horizon
        elif kind == "tx_dropped":
            dropped[event["id"]] = t
        elif kind in ("withdrawal_included", "transfer_applied", "tx_failed"):
            if event["id"] in ends:
                ends[event["id"]] = min(ends[event["id"]], t)
    for txid, until in dropped.items():
        for start, end, shut_out in windows:
            if start <= until < end and (not shut_out or users[txid] in shut_out):
                until = end
        ends[txid] = min(until, horizon)
    assert math.inf not in ends.values()
    return max((end - submitted[txid] for txid, end in ends.items()), default=0)


def _frozen_from_trace(scenario: Scenario, lines: list[str]) -> int:
    """frozen_funds_duration replayed from trace lines alone, plus the
    scenario's censorship targets, proof system and horizon, which the trace
    does not carry. Each injection_start line not marked ineffective opens a
    window up to its until, a censorship's targets found by its kind, t and
    until. A withdrawal is queued from tx_submitted, admitted from
    tx_admitted, and leaves the queue at tx_dropped or forced_inclusion, or
    at a batch_created once admitted, or forced-queued with its user shut
    out by no window at that t; it awaits a root from withdrawal_included to
    root_finalized, which takes its withdrawals count of exits with that
    batch time, oldest first; any exit is claimable from its first
    claim_deferred to withdrawal_claimed. A stay still open runs to the
    horizon. The result is the length of the union of each stay clipped to
    the windows holding its stage."""
    horizon = math.inf if scenario.params.horizon is None else scenario.params.horizon
    targets = defaultdict(list)  # (start, end) -> each censorship's targets, in list order
    for j in scenario.injections:
        if j.kind is _CENSORSHIP:
            targets[j.at, j.end].append(j.targets)
    zk = scenario.config.proof_system is ProofSystem.ZK
    holds = {
        "queued": ("sequencer", "censorship"),
        "admitted": ("sequencer",),
        "awaiting_root": ("proposals", "proofs") if zk else ("proposals",),
        "claimable": ("claims", "bridge"),
    }
    events = [json.loads(line) for line in lines]
    windows = []  # (start, end, effect, users held, () for everyone)
    for event in events:
        if event["event"] == "injection_start" and "ineffective" not in event:
            kind, t, end = InjectionKind(event["kind"]), event["t"], event["until"]
            users = targets[t, end].pop(0) if kind is _CENSORSHIP else ()
            windows.append((t, end, _FAULT_EFFECTS[kind], users))

    def shut_out(user, t):
        return any(
            start <= t < end and effect in holds["queued"] and (not users or user in users)
            for start, end, effect, users in windows
        )

    stays = {stage: {} for stage in holds}  # stage -> id -> (since, user)
    held = []

    def leave(stage, xid, t):
        since, user = stays[stage].pop(xid)
        for start, end, effect, users in windows:
            if effect in holds[stage] and (not users or user in users):
                if max(start, since) < min(end, t):
                    held.append((max(start, since), min(end, t)))

    owners, forced = {}, set()  # exit id -> its user; the forced-queued ids
    for event in events:
        kind, t, xid = event["event"], event["t"], event.get("id")
        queued = xid in stays["queued"]
        if kind == "tx_submitted" and event["type"] == "withdraw":
            owners[xid] = event["user"]
            stays["queued"][xid] = (t, event["user"])
        elif kind == "tx_admitted" and queued:
            leave("queued", xid, t)
            stays["admitted"][xid] = (t, owners[xid])
        elif kind == "tx_queued_forced" and queued:
            forced.add(xid)
        elif kind in ("tx_dropped", "forced_inclusion") and queued:
            leave("queued", xid, t)
            forced.discard(xid)
        elif kind == "batch_created":
            for x in [*stays["admitted"]]:
                leave("admitted", x, t)
            for x in [x for x in forced if not shut_out(owners[x], t)]:
                leave("queued", x, t)
                forced.remove(x)
        elif kind == "withdrawal_included":
            stays["awaiting_root"][xid] = (t, event["user"])
        elif kind == "root_finalized":
            final = [x for x, (bt, _u) in stays["awaiting_root"].items() if bt == event["batch_time"]]
            for x in final[: event["withdrawals"]]:
                leave("awaiting_root", x, t)
        elif kind == "hatch_exit_included":
            owners[xid] = event["user"]
        elif kind == "claim_deferred" and xid not in stays["claimable"]:
            stays["claimable"][xid] = (t, owners[xid])
        elif kind == "withdrawal_claimed" and xid in stays["claimable"]:
            leave("claimable", xid, t)
    for stage, table in stays.items():
        for x in [*table]:
            leave(stage, x, horizon)
    frozen = reach = 0
    for start, end in sorted(held):
        if end > reach:
            frozen += end - max(start, reach)
            reach = end
    return frozen


class TestDenials:
    @staticmethod
    def _check(scenario, seed=0) -> SimResult:
        reference = _DeniedAtApplyRun(scenario, seed)
        reference.execute()
        result = simulate(scenario, seed)
        assert reference.result() == result
        assert _censorship_from_trace(scenario, result.trace_lines()) == (
            result.metrics.censorship_window
        )
        return result

    @settings(max_examples=300, deadline=None)
    @given(_access_faulted(), st.none() | st.integers(1, 3 * HOUR))
    @example(_deadline_tie(), None)
    @example(_recovery_beside_a_tick(), 700)
    def test_counted_at_denial_as_when_applied_or_cut(self, sc, horizon):
        self._check(_with_horizon(sc, horizon))

    def test_a_deadline_at_the_let_in_instant_includes_its_entry(self):
        # The deadline runs before that instant's recovery batch, which
        # finds the forced queue empty.
        result = self._check(_deadline_tie())
        assert [(e["t"], e["delay"]) for e in _events(result, "forced_inclusion")] == [(816, 611)]
        assert [e["t"] for e in _events(result, "withdrawal_included")] == [816]
        assert result.metrics.censorship_window == 816 - 205 == 611

    def test_each_deadline_event_includes_its_entry(self):
        runs = [_targeted_censorship()]
        runs += [_usable_forced_inclusion(_fault_laden(seed)) for seed in _LAW_SEEDS]
        pushed = included = 0
        for scenario in runs:
            run = _DeadlineCountingRun(scenario, 0)
            run.execute()
            reference = _DeniedAtApplyRun(scenario, 0)
            reference.execute()
            result = run.result()
            assert result == reference.result()
            forced = len(_events(result, "forced_inclusion"))
            assert run.deadlines == forced, scenario.name
            pushed += reference.deadlines
            included += forced
        # the count at apply pushed a deadline for every entry
        assert pushed > included > 0

    def test_bundled_fault_laden_and_random_runs_replay_their_censorship(self):
        runs = [(load_bundled_scenario(n), 0) for n in sorted(BUNDLED_EXPECTATIONS)]
        for seed in _LAW_SEEDS:
            sc = _fault_laden(seed)
            fi = sc.config.forced_inclusion
            flipped = dataclasses.replace(fi, enabled=not fi.usable, usable=not fi.usable)
            runs += [(sc, 0), (_reconfigured(sc, forced_inclusion=flipped), 0)]
        runs += [(_acceptance_random(), seed) for seed in RANDOM_SEEDS]
        windows = [self._check(sc, seed).metrics.censorship_window for sc, seed in runs]
        assert sum(w > 0 for w in windows) >= 20


def _resum(run: _Run) -> int:
    """Every L2 balance and in-flight amount, summed afresh."""
    return sum(run.l2.values()) + sum(amount for _user, amount in run.inflight.values())


class _LedgerOracleRun(_AfterEachEvent, _Run):
    """Holds the ledgers' running total to a full re-sum after every event."""

    checks = 0

    def _after_event(self, kind):
        assert self.accounted == _resum(self), (self.now, kind, self.records[-1:])
        self.checks += 1


class _FullResumRun(_AfterEachEvent, _Run):
    """The conservation check as a full re-sum of both ledgers after every
    event, in place of the engine's: the reference the running-total check
    must agree with."""

    def _check_conservation(self, event_kind):
        pass

    def _after_event(self, kind):
        if self.exploit_drained:
            return
        accounted = _resum(self)
        if self.bridge_pool != accounted:
            self.violations.append(
                {"t": self.now, "event": kind, "bridge": self.bridge_pool,
                 "accounted": accounted}
            )


class _Mutant:
    """A handler bug, mixed in ahead of a _Run class; notes when it first bites."""

    mutated_at = None

    def _mutated(self):
        if self.mutated_at is None:
            self.mutated_at = self.now


class _TransferSkipsCredit(_Mutant):
    """A transfer that debits the sender and credits no one."""

    def _apply_tx(self, tx):
        included = super()._apply_tx(tx)
        if not included and self.records[-1][0] == "transfer_applied":
            self._move(tx["to"], -tx["amount"])
            self._mutated()
        return included


class _ClaimKeepsPool(_Mutant):
    """A claim that pays out without drawing on the bridge escrow."""

    def _on_claim(self, exit_):
        pool = self.bridge_pool
        super()._on_claim(exit_)
        if self.bridge_pool != pool:
            self.bridge_pool = pool
            self._mutated()


class _WithdrawalSkipsDebit(_Mutant):
    """A withdrawal included without debiting the user's L2 balance."""

    def _apply_tx(self, tx):
        included = super()._apply_tx(tx)
        if included:
            self._move(tx["user"], tx["amount"])
            self._mutated()
        return included


class _ScanCounting:
    """Counts the full iterations made over a map."""

    scans = 0

    def _scanned(self):
        self.scans += 1

    def __iter__(self):
        self._scanned()
        return super().__iter__()

    def keys(self):
        self._scanned()
        return super().keys()

    def values(self):
        self._scanned()
        return super().values()

    def items(self):
        self._scanned()
        return super().items()


class _ScannedBalances(_ScanCounting, defaultdict):
    pass


class _ScannedFlights(_ScanCounting, dict):
    pass


def _random(users: int, actions: int) -> Scenario:
    return Scenario(
        name=f"random-{actions}",
        config=RollupConfig.centralized_default(),
        random_workload=RandomWorkload(users=users, actions=actions),
    )


class TestLedger:
    def _oracle(self, scenario, seed=0) -> _LedgerOracleRun:
        run = _LedgerOracleRun(scenario, seed)
        run.execute()
        assert run.result().events == simulate(scenario, seed).events
        return run

    def test_running_total_matches_a_full_resum_after_every_event(self):
        runs = [self._oracle(load_bundled_scenario(n)) for n in sorted(FROZEN_BUNDLED)]
        runs += [self._oracle(_fault_laden(seed)) for seed in sorted(FROZEN_FAULT_LADEN)]
        runs += [self._oracle(_acceptance_random(), seed) for seed in range(5)]
        runs.append(self._oracle(_random(100, 2_000)))
        assert all(r.checks > 0 for r in runs)

    def test_a_mis_summing_ledger_fails_the_oracle_and_the_end_of_run_resum(self):
        class LosesHolds(_Run):
            def _hold(self, pid, user, amount):
                self.inflight[pid] = (user, amount)

        with pytest.raises(RuntimeError, match="ledger total"):
            LosesHolds(_acceptance_random(), 0).execute()
        oracle = type("OracleLosesHolds", (LosesHolds, _LedgerOracleRun), {})
        with pytest.raises(AssertionError):
            oracle(_acceptance_random(), 0).execute()

    @pytest.mark.parametrize(
        "mutant", [_TransferSkipsCredit, _ClaimKeepsPool, _WithdrawalSkipsDebit]
    )
    def test_a_handler_bug_shows_at_the_same_event_as_a_full_resum(self, mutant):
        fast = type("Fast", (mutant, _Run), {})
        full = type("Full", (mutant, _FullResumRun), {})
        runs = [(_acceptance_random(), seed) for seed in range(10)]
        runs += [(_fault_laden(seed), 0) for seed in FAULT_SEEDS]
        caught = 0
        for scenario, seed in runs:
            a, b = fast(scenario, seed), full(scenario, seed)
            a.execute()
            b.execute()
            assert a.records == b.records
            assert a.violations == b.violations
            if a.mutated_at is None:
                assert a.violations == []
            else:
                assert a.violations[0]["t"] == a.mutated_at
                caught += 1
        assert caught >= 10

    def test_ledger_scans_per_run_do_not_grow_with_the_workload(self):
        class ScanCountingRun(_Run):
            def __init__(self, scenario, seed):
                super().__init__(scenario, seed)
                self.l2 = _ScannedBalances(int)
                self.inflight = _ScannedFlights()

        # Whatever the size, the maps are walked only by the one re-sum at
        # the end of the run, never by the per-event check.
        for users, actions in ((20, 200), (200, 2_000)):
            for scenario in (
                _random(users, actions),
                _day_long_fault(InjectionKind.WITHDRAWAL_FAILURE, users, actions),
            ):
                run = ScanCountingRun(scenario, 0)
                run.execute()
                assert (run.l2.scans, run.inflight.scans) == (1, 1), scenario.name
                assert run.result().events == simulate(scenario, 0).events


class _RecoveryMintsOne(_Mutant, _Run):
    """A recovery batch that adds a unit to the escrow from nowhere."""

    def _on_recovery_batch(self):
        super()._on_recovery_batch()
        self.bridge_pool += 1
        self._mutated()


class _ClaimMintsOne(_Mutant, _Run):
    """A claim that adds a unit to the escrow from nowhere."""

    def _on_claim(self, exit_):
        super()._on_claim(exit_)
        self.bridge_pool += 1
        self._mutated()


class _BatchMintsOne(_Mutant, _Run):
    """Every batch, on the grid or on recovery, adds a unit to the escrow."""

    def _make_batch(self, txs):
        super()._make_batch(txs)
        self.bridge_pool += 1
        self._mutated()


class TestDispatch:
    """A violation record names the kind its event was scheduled as, and a
    subclass's handler is the one that runs."""

    @pytest.mark.parametrize(
        "broken, kind", [(_RecoveryMintsOne, "recovery_batch"), (_ClaimMintsOne, "claim")]
    )
    def test_a_violation_names_the_kind_whose_handler_broke_conservation(self, broken, kind):
        run = broken(load_bundled_scenario("sequencer-outage-fi-24h"), 0)
        run.execute()
        assert run.mutated_at is not None
        first = run.violations[0]
        assert (first["t"], first["event"]) == (run.mutated_at, kind)
        assert first["bridge"] == first["accounted"] + 1

    def test_a_shared_handler_is_named_by_the_kind_it_ran_as(self):
        # batch_tick and recovery_batch share _make_batch; the violation at
        # each mint must still name its own kind.
        run = _BatchMintsOne(load_bundled_scenario("sequencer-outage-fi-24h"), 0)
        run.execute()
        minted, gap = [], 0
        for v in run.violations:
            if v["bridge"] - v["accounted"] > gap:
                minted.append((v["t"], v["event"]))
            gap = v["bridge"] - v["accounted"]
        assert minted == [(0, "batch_tick"), (18_000, "recovery_batch")]


# -- the collector paused per run ------------------------------------------------


class TestCollectorPause:
    @pytest.mark.parametrize("collecting", [True, False])
    def test_simulate_leaves_the_collector_as_it_found_it(self, collecting, monkeypatch):
        def boom(run):
            assert not gc.isenabled()  # paused while the run executes
            raise RuntimeError("handler failed")

        was = gc.isenabled()
        try:
            gc.enable() if collecting else gc.disable()
            simulate(_random(5, 20), seed=0)
            assert gc.isenabled() is collecting
            monkeypatch.setattr(_Run, "_on_batch_tick", boom)
            with pytest.raises(RuntimeError, match="handler failed"):
                simulate(_random(5, 20), seed=0)
            assert gc.isenabled() is collecting
        finally:
            gc.enable() if was else gc.disable()

    def test_a_run_leaves_nothing_for_the_collector(self):
        # The pause frees nothing later than the collector would have: each
        # run's objects go by reference counting, none in a cycle.
        scenarios = [load_bundled_scenario(n) for n in sorted(BUNDLED_EXPECTATIONS)]
        scenarios += [_fault_laden(seed) for seed in range(40)]
        scenarios.append(_random(100, 2_000))
        gc.collect()
        for scenario in scenarios:
            simulate(scenario, seed=0)
            assert gc.collect() == 0, scenario.name


# -- the workload beside the heap ------------------------------------------------


class _AllOnHeapRun(_Run):
    """The event loop with every workload action pushed onto the heap before
    the first event: the reference the streamed workload must match."""

    def execute(self):
        for a in _workload(self.sc, self.seed):
            self._push(a.at, _P_ACTION, "action", a.action, a.user, a.amount, a.to)
        for idx, inj in enumerate(self.sc.injections):
            if inj.kind is InjectionKind.EXPLOIT_USER_RISK:
                self._push(inj.at, _P_START, "exploit", idx)
            else:
                self._push(inj.at, _P_START, "injection_start", idx)
                self._push(inj.end, _P_END, "injection_end", idx)
        if self.sc.upgrade_at is not None:
            self._push(self.sc.upgrade_at, _P_UPGRADE, "upgrade_announce")

        horizon = self.p.horizon
        while self._heap:
            t, _prio, _n, kind, args = heapq.heappop(self._heap)
            if horizon is not None and t > horizon:
                self.now = horizon
                break
            self.now = t
            getattr(self, "_on_" + kind)(*args)
            self._check_conservation(kind)
        if _resum(self) != self.accounted:
            raise RuntimeError(f"ledger total {self.accounted} != {_resum(self)}")


class _ActionsOffHeapRun(_AfterEachEvent, _Run):
    """Asserts after every event that no action waits on the heap."""

    def _after_event(self, kind):
        assert all(entry[3] != "action" for entry in self._heap), (self.now, self.records[-1:])


def _check_streamed(scenario: Scenario, seed: int = 0) -> SimResult:
    """simulate's result, held to the all-on-heap reference's, with the heap
    watched for actions after every event."""
    result = simulate(scenario, seed)
    reference = _AllOnHeapRun(scenario, seed)
    reference.execute()
    assert reference.result() == result
    watched = _ActionsOffHeapRun(scenario, seed)
    watched.execute()
    assert watched.result() == result
    return result


_USERS = ("u", "v", "w")


@st.composite
def _unsorted_workloads(draw) -> Scenario:
    """Explicit workloads in any list order, often several at one instant,
    some at the horizon and one second past it, with a fault window or two
    and an upgrade announcement that may land on an action's instant."""
    horizon = draw(st.sampled_from((None, 600, HOUR, 2 * HOUR)))
    edge = horizon or HOUR
    at = st.sampled_from((0, 12, 120, edge - 1, edge, edge + 1)) | st.integers(0, edge + 1)
    actions = []
    for _ in range(draw(st.integers(1, 24))):
        user = draw(st.sampled_from(_USERS))
        kind = draw(st.sampled_from(_ACTIONS))
        if kind == "transfer":
            to = draw(st.sampled_from([u for u in _USERS if u != user]))
            actions.append(WorkloadAction(draw(at), kind, user, draw(st.integers(1, 600)), to))
        else:
            low = 0 if kind == "hatch-exit" else 1
            actions.append(WorkloadAction(draw(at), kind, user, draw(st.integers(low, 600))))
    injections = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(_FAULT_KINDS))
        injections.append(Injection(kind, draw(at), draw(st.sampled_from((12, 600, HOUR)))))
    fi = draw(st.booleans())
    config = RollupConfig(
        forced_inclusion=ForcedInclusionConfig(enabled=fi, usable=fi, timeout=600),
        escape_hatch=EscapeHatchConfig(enabled=True),
        upgrade=UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=600),
    )
    return Scenario(
        "unsorted",
        config,
        params=SimParams(horizon=horizon),
        actions=actions,
        injections=injections,
        upgrade_at=draw(st.none() | at),
    )


class TestWorkloadBesideTheHeap:
    """The loop takes actions from a time-ordered stream beside the heap; it
    must run the same events in the same order as pushing them all."""

    def test_bundled_and_fault_laden_runs(self):
        for name in sorted(FROZEN_BUNDLED):
            _check_streamed(load_bundled_scenario(name))
        for seed in range(40):
            _check_streamed(_fault_laden(seed))

    def test_random_seeds(self):
        sc = _acceptance_random()
        for seed in RANDOM_SEEDS:
            _check_streamed(sc, seed)

    @settings(max_examples=150, deadline=None)
    @given(_unsorted_workloads())
    def test_unsorted_explicit_workloads(self, scenario):
        _check_streamed(scenario)

    def test_same_instant_actions_keep_their_list_order(self):
        actions = [
            WorkloadAction(120, "deposit", "w", 30),
            WorkloadAction(0, "deposit", "v", 20),
            WorkloadAction(120, "deposit", "u", 10),
            WorkloadAction(0, "deposit", "u", 40),
        ]
        result = _check_streamed(Scenario("ties", RollupConfig(), actions=actions))
        submitted = [(e["t"], e["user"]) for e in _events(result, "deposit_submitted")]
        assert submitted == [(0, "v"), (0, "u"), (120, "w"), (120, "u")]

    def test_the_horizon_takes_an_action_at_it_and_none_past_it(self):
        actions = [
            WorkloadAction(601, "deposit", "v", 20),
            WorkloadAction(600, "deposit", "u", 10),
        ]
        scenario = Scenario(
            "edge", RollupConfig(), params=SimParams(horizon=600), actions=actions
        )
        result = _check_streamed(scenario)
        assert [e["user"] for e in _events(result, "deposit_submitted")] == ["u"]
        assert max(e["t"] for e in result.events) == 600

    @pytest.mark.parametrize("horizon", [1, 600, HOUR, DAY // 2])
    def test_a_horizon_that_cuts_a_random_workload_short(self, horizon):
        scenario = Scenario(
            "cut",
            RollupConfig.centralized_default(),
            params=SimParams(horizon=horizon),
            random_workload=RandomWorkload(users=8, actions=200),
        )
        result = _check_streamed(scenario)
        assert sum(a.at <= horizon for a in _workload(scenario, 0)) < 200
        assert all(e["t"] <= horizon for e in result.events)

    def test_the_stream_is_the_materialized_workload_in_time_order(self):
        for users, actions in ((1, 1), (5, 20), (100, 2_000)):
            wl = RandomWorkload(users=users, actions=actions)
            for seed in range(3):
                drawn = _check_trusted(wl, seed)
                assert drawn == tuple(map(dataclasses.astuple, wl.materialize(seed)))


# Each fault kind a config can neutralize, with the config change that does it.
_NEUTRALIZING = (
    (InjectionKind.DA_WITHHOLDING, {"da": DaConfig(mode=DaMode.ONCHAIN)}),
    (InjectionKind.PROPOSER_OUTAGE, {"proposer": ProposerConfig(whitelist=False)}),
    (InjectionKind.PROVER_OUTAGE, {"prover_set": ProverSetConfig(permissionless=True)}),
)


def _without(events, *drop):
    """The events with "i" removed, and the first event matching each of the
    (t, event, kind) triples in drop left out."""
    drop = list(drop)
    kept = []
    for e in events:
        key = (e["t"], e["event"], e.get("kind"))
        if key in drop:
            drop.remove(key)
            continue
        kept.append({k: v for k, v in e.items() if k != "i"})
    assert not drop, drop
    return kept


def _readme_fault_table() -> dict[str, str]:
    """The kinds the README's fault table lists, each mapped to its row's
    "neutralized by" cell; a kind listed twice fails."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    head = "| kind | holds up while active | neutralized by |"
    rows = text.split(head, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    table = {}
    for row in rows:
        _, kinds, _holds, switch, _ = row.split("|")
        for kind in re.findall(r"`([a-z0-9-]+)`", kinds):
            assert kind not in table, kind
            table[kind] = switch.strip()
    return table


class TestFaultEffects:
    def test_every_windowed_kind_has_an_effect(self):
        assert set(_FAULT_EFFECTS) == set(InjectionKind) - {InjectionKind.EXPLOIT_USER_RISK}

    def test_the_readme_fault_table_lists_each_kind_and_its_neutralizing_switch(self):
        # Every switch that can route around a fault turned on: the kinds
        # _neutralized notes are the ones the README names a switch for.
        table = _readme_fault_table()
        windowed = {kind.value for kind in _FAULT_EFFECTS}
        assert set(table) == windowed | {InjectionKind.EXPLOIT_USER_RISK.value}
        config = RollupConfig(
            da=DaConfig(mode=DaMode.ONCHAIN),
            proposer=ProposerConfig(whitelist=False),
            prover_set=ProverSetConfig(permissionless=True),
        )
        run = _Run(Scenario("switches", config, actions=()), 0)
        neutralized = {kind.value for kind in _FAULT_EFFECTS if run._neutralized(kind)}
        assert {kind for kind, switch in table.items() if switch} == neutralized
        assert len(neutralized) == 3

    def test_each_fault_window_is_resolved_once_per_run(self):
        class ResolvingRun(_Run):
            resolved = 0

            def _neutralized(self, kind):
                self.resolved += 1
                return super()._neutralized(kind)

        # An invalid root on the optimistic seeds searches for a challenge
        # across the prover outages, and resolves none again.
        exploit = Injection(InjectionKind.EXPLOIT_USER_RISK, at=HOUR, amount=10)
        for seed in range(40):
            base = _fault_laden(seed)
            sc = dataclasses.replace(base, injections=(*base.injections, exploit))
            run = ResolvingRun(sc, 0)
            run.execute()
            assert run.resolved == len(base.injections), seed
            assert run.result() == simulate(sc, 0)

    def test_a_neutralized_fault_changes_nothing(self):
        pairs = 0
        for seed in range(40):
            base = _fault_laden(seed)
            rng = random.Random(seed)
            for kind, change in _NEUTRALIZING:
                if "prover_set" in change and base.config.proof_system is not ProofSystem.ZK:
                    continue
                sc = dataclasses.replace(base, config=dataclasses.replace(base.config, **change))
                fault = Injection(kind, at=rng.randrange(6 * HOUR), duration=4 * HOUR)
                faulted = dataclasses.replace(sc, injections=sc.injections + (fault,))
                clean, hit = simulate(sc, seed=0), simulate(faulted, seed=0)
                start = (fault.at, "injection_start", kind.value)
                end = (fault.end, "injection_end", kind.value)
                assert "ineffective" in next(
                    e for e in hit.events if (e["t"], e["event"], e.get("kind")) == start
                )
                assert _without(hit.events, start, end) == _without(clean.events)
                assert hit.metrics == clean.metrics
                assert hit.violations == clean.violations
                pairs += 1
        assert pairs == 100


# -- monotonicity laws of the simulated harms ----------------------------------
# Each mitigation may move a harm one way only. Laws that hold are properties
# over generated and fault-laden scenarios; a law that a known simulator
# defect breaks is a strict xfail naming its ROADMAP item, so the fix that
# mends it must remove the marker.

_LAW_SEEDS = range(40)


@st.composite
def _small_faulted(draw) -> Scenario:
    """2–4 users who each deposit once, then 1–8 actions and 1–3 fault
    windows of any windowed kind, on zk or optimistic with onchain or
    external DA."""
    users = [f"u{i}" for i in range(draw(st.integers(2, 4)))]
    actions = [
        WorkloadAction(draw(st.integers(0, 600)), "deposit", u, draw(st.integers(100, 1_000)))
        for u in users
    ]
    for _ in range(draw(st.integers(1, 8))):
        user = draw(st.sampled_from(users))
        kind = draw(st.sampled_from(("withdraw", "withdraw", "transfer", "deposit", "hatch-exit")))
        at = draw(st.integers(0, 6 * HOUR))
        to = draw(st.sampled_from([u for u in users if u != user])) if kind == "transfer" else None
        amount = draw(st.integers(0 if kind == "hatch-exit" else 1, 400))
        actions.append(WorkloadAction(at, kind, user, amount, to))
    injections = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_FAULT_KINDS))
        targets = ()
        if kind is _CENSORSHIP:
            targets = tuple(draw(st.lists(st.sampled_from(users), unique=True, max_size=2)))
        at, duration = draw(st.integers(0, 6 * HOUR)), draw(st.integers(1, DAY))
        injections.append(Injection(kind, at, duration, targets))
    zk, fi = draw(st.booleans()), draw(st.booleans())
    config = RollupConfig(
        proof_system=ProofSystem.ZK if zk else ProofSystem.OPTIMISTIC,
        challenge_window=0 if zk else 2 * HOUR,
        proposer=ProposerConfig(whitelist=draw(st.booleans())),
        forced_inclusion=ForcedInclusionConfig(
            enabled=fi, usable=fi, timeout=draw(st.sampled_from((1_800, 12 * HOUR)))
        ),
        escape_hatch=EscapeHatchConfig(enabled=draw(st.booleans())),
        da=DaConfig(mode=draw(st.sampled_from((DaMode.ONCHAIN, DaMode.EXTERNAL)))),
    )
    return Scenario("law", config, actions=tuple(actions), injections=tuple(injections))


def _reconfigured(sc: Scenario, **change) -> Scenario:
    return dataclasses.replace(sc, config=dataclasses.replace(sc.config, **change))


def _lengthened(sc: Scenario, index: int, extra: int) -> Scenario:
    injections = list(sc.injections)
    window = injections[index]
    injections[index] = dataclasses.replace(window, duration=window.duration + extra)
    return dataclasses.replace(sc, injections=tuple(injections))


def _harms(sc: Scenario):
    return simulate(sc, seed=0).metrics


def _check_open_proposers(sc: Scenario) -> None:
    """Law (c): opening proposer submission never raises frozen funds."""
    opened = _reconfigured(sc, proposer=ProposerConfig(whitelist=False))
    assert _harms(opened).frozen_funds_duration <= _harms(sc).frozen_funds_duration


def _check_longer_window(sc: Scenario, index: int, extra: int) -> None:
    """Law (d): lengthening one fault window never lowers censorship."""
    longer = _lengthened(sc, index, extra)
    assert _harms(longer).censorship_window >= _harms(sc).censorship_window


def _check_every_window_doubled(sc: Scenario) -> None:
    doubled = dataclasses.replace(
        sc, injections=tuple(dataclasses.replace(j, duration=2 * j.duration) for j in sc.injections)
    )
    assert _harms(doubled).censorship_window >= _harms(sc).censorship_window


def _check_forced_inclusion_censorship(sc: Scenario) -> None:
    """Law (a), with one L1 block of slack: usable forced inclusion never
    raises censorship by more. A queued transaction counts until it is
    included, at the next L1 block after recovery at the latest, while a
    dropped one counts until no window, overlapping ones chained, shuts its
    user out."""
    fi = sc.config.forced_inclusion
    unusable = _reconfigured(sc, forced_inclusion=dataclasses.replace(fi, usable=False))
    usable = _reconfigured(sc, forced_inclusion=dataclasses.replace(fi, enabled=True, usable=True))
    slack = sc.params.l1_block_interval
    assert _harms(usable).censorship_window <= _harms(unusable).censorship_window + slack


# Forced-inclusion timeouts, shortest first, for law (g).
_TIMEOUTS = (60, 600, 30 * 60, HOUR, 12 * HOUR, 2 * DAY)


def _check_shorter_timeout(sc: Scenario) -> None:
    """Law (g): with usable forced inclusion, a shorter timeout never raises
    censorship. A queued transaction counts until the earlier of its
    deadline and the recovery batch that follows its user's let-back-in."""
    configs = [ForcedInclusionConfig(enabled=True, usable=True, timeout=t) for t in _TIMEOUTS]
    windows = [_harms(_reconfigured(sc, forced_inclusion=fi)).censorship_window for fi in configs]
    assert windows == sorted(windows)


def _usable_forced_inclusion(sc: Scenario) -> Scenario:
    return _reconfigured(
        sc, forced_inclusion=ForcedInclusionConfig(enabled=True, usable=True, timeout=12 * HOUR)
    )


class TestFrozenReplay:
    @staticmethod
    def _check(scenario, seed=0) -> int:
        result = simulate(scenario, seed)
        frozen = result.metrics.frozen_funds_duration
        assert _frozen_from_trace(scenario, result.trace_lines()) == frozen, scenario.name
        return frozen

    def test_bundled_fault_laden_and_random_runs_replay_their_frozen_funds(self):
        runs = [(load_bundled_scenario(n), 0) for n in sorted(BUNDLED_EXPECTATIONS)]
        for seed in _LAW_SEEDS:
            sc = _fault_laden(seed)
            fi = sc.config.forced_inclusion
            flipped = dataclasses.replace(fi, enabled=not fi.usable, usable=not fi.usable)
            for variant in (sc, _reconfigured(sc, forced_inclusion=flipped)):
                runs += [(variant, 0), (_with_horizon(variant, 3 * HOUR), 0)]
        runs += [(_acceptance_random(), seed) for seed in RANDOM_SEEDS]
        frozen = [self._check(sc, seed) for sc, seed in runs]
        assert sum(f > 0 for f in frozen) >= 100

    @settings(max_examples=300, deadline=None)
    @given(_small_faulted(), st.none() | st.integers(1, 3 * HOUR))
    def test_small_faulted_runs_replay_their_frozen_funds(self, sc, horizon):
        self._check(_with_horizon(sc, horizon))


class TestMonotonicityLaws:
    @settings(max_examples=150, deadline=None)
    @given(_small_faulted())
    def test_opening_proposers_never_raises_frozen_funds(self, sc):
        _check_open_proposers(sc)

    @pytest.mark.parametrize("seed", _LAW_SEEDS)
    def test_opening_proposers_never_raises_frozen_funds_under_many_faults(self, seed):
        _check_open_proposers(_fault_laden(seed))

    @settings(max_examples=150, deadline=None)
    @given(_small_faulted(), st.data())
    def test_a_longer_fault_window_never_lowers_censorship(self, sc, data):
        index = data.draw(st.integers(0, len(sc.injections) - 1))
        _check_longer_window(sc, index, data.draw(st.integers(1, DAY)))

    @settings(max_examples=100, deadline=None)
    @given(_small_faulted())
    def test_doubling_every_fault_window_never_lowers_censorship(self, sc):
        _check_every_window_doubled(sc)

    @pytest.mark.parametrize("seed", _LAW_SEEDS)
    def test_a_longer_fault_window_never_lowers_censorship_under_many_faults(self, seed):
        sc = _fault_laden(seed)
        for index in range(len(sc.injections)):
            _check_longer_window(sc, index, HOUR)
        _check_every_window_doubled(sc)

    @settings(max_examples=150, deadline=None)
    @given(_small_faulted())
    def test_usable_forced_inclusion_raises_censorship_by_at_most_one_block(self, sc):
        _check_forced_inclusion_censorship(sc)

    @settings(max_examples=150, deadline=None)
    @given(_access_faulted())
    def test_a_shorter_forced_inclusion_timeout_never_raises_censorship(self, sc):
        _check_shorter_timeout(sc)

    @pytest.mark.parametrize("seed", _LAW_SEEDS)
    def test_a_shorter_forced_inclusion_timeout_never_raises_censorship_under_many_faults(
        self, seed
    ):
        _check_shorter_timeout(_fault_laden(seed))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11: a deposit landing on a spent batch slot")
    def test_every_landed_deposit_is_credited(self):
        """Law (e). Two deposits at t=120: dep-1 is batched and credited at
        120, while dep-2 lands at 120, after that instant's batch tick, and
        is never credited."""
        sc = Scenario(
            "two-deposits",
            RollupConfig(),
            actions=(
                WorkloadAction(120, "deposit", "a", 10),
                WorkloadAction(120, "deposit", "b", 10),
            ),
        )
        result = simulate(sc, seed=0)
        landed = [e["id"] for e in _events(result, "deposit_landed")]
        assert [e["id"] for e in _events(result, "credit_applied")] == landed

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13: a dropped exit counts as no harm")
    def test_usable_forced_inclusion_never_raises_frozen_funds(self):
        """Law (b). On the reference deployment a 1-day sequencer outage
        drops the withdrawal at 3,600, which reads as frozen 0; with usable
        forced inclusion (12 h timeout) the withdrawal is queued and reads
        frozen 43,200."""
        sc = Scenario(
            "dropped-exit",
            RollupConfig.centralized_default(),
            actions=(
                WorkloadAction(0, "deposit", "u", 100),
                WorkloadAction(3_600, "withdraw", "u", 50),
            ),
            injections=(Injection(InjectionKind.SEQUENCER_OUTAGE, 1_800, DAY),),
        )
        fi = _usable_forced_inclusion(sc)
        assert _harms(fi).frozen_funds_duration <= _harms(sc).frozen_funds_duration

    def test_usable_forced_inclusion_never_raises_censorship_over_overlapping_windows(self):
        """Law (a). Sequencer halts at 19,087–76,672 and 53,567–122,769 and
        a withdrawal at 48,392: the dropped withdrawal's denial counts until
        the sequencer is back, at 122,769 (74,377 s), not only to the end of
        the window active at the drop (28,280 s); with usable forced
        inclusion it reads 43,204 s."""
        halt = InjectionKind.SEQUENCER_HALT
        sc = Scenario(
            "overlapping-halts",
            RollupConfig(),
            actions=(WorkloadAction(48_392, "withdraw", "u", 50),),
            injections=(
                Injection(halt, 19_087, 76_672 - 19_087),
                Injection(halt, 53_567, 122_769 - 53_567),
            ),
        )
        assert _harms(sc).censorship_window == 122_769 - 48_392
        fi = _usable_forced_inclusion(sc)
        assert _harms(fi).censorship_window <= _harms(sc).censorship_window

    def test_a_fault_that_delays_no_exit_freezes_nothing(self):
        """The next batch includes the withdrawal admitted before its user's
        censorship, at 240, and it is claimed with latency 4,483, as without
        the fault: nothing is frozen, as the sequencer already admitted it."""
        censored = _admitted_then_censored()
        clean = dataclasses.replace(censored, injections=())
        assert _harms(clean).frozen_funds_duration == 0
        for sc in (censored, _usable_forced_inclusion(censored)):
            result = simulate(sc, seed=0)
            assert [e["t"] for e in _events(result, "withdrawal_included")] == [240]
            assert result.metrics.withdrawal_latency == _harms(clean).withdrawal_latency
            assert result.metrics.frozen_funds_duration == 0
