import copy
import dataclasses
import hashlib
import heapq
import itertools
import json
import operator
import os
import random
import re
import subprocess
import sys
from collections import defaultdict
from functools import reduce
from pathlib import Path

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
    _P_END,
    _P_START,
    _P_UPGRADE,
    SimResult,
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
        # closes its frozen interval at the horizon, not at its last event
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
    8: "192231433e4f2f5911dc7eb80d8c8fb917672f3019bd282c1e2acae7a9c0b088",
    9: "c8f5d7e338db41918e48d9e016f7d7688b7b62b9d607dd6842841f59d5050486",
    10: "81562d6918104ad649883f29bf6c9f4faba3f7b0b9d6daee0d4762a4ee332c39",
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


class TestTraceLines:
    """trace_lines() writes each event exactly as json.dumps with sorted keys
    and compact separators does, with no JSON encoder."""

    def _check(self, result) -> set[str]:
        assert result.trace_lines() == [_compact(e) for e in result.events]
        # Each event holds what the field table lists for its kind (a
        # neutralized fault's start adds its note), and each kind and key
        # count has a writer in both tables: a kind added to _emit without
        # one fails.
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
        notes = 0
        for result in runs:
            # (kind, t, i, *values): one value per field, and a neutralized
            # fault's start one more, its ineffective note
            for i, record in enumerate(result.records):
                extra = len(record) - 3 - len(_Run.TRACE_FIELDS[record[0]])
                assert extra == 0 or (record[0] == "injection_start" and extra == 1), record
                assert record[2] == i
                notes += extra
            assert [json.loads(line) for line in result.trace_lines()] == list(result.events)
        assert notes > 0

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


def _scan_stalled(run: _Run) -> bool:
    """The stall test as a plain scan of every exit in flight, evaluating the
    fault predicates per exit: the reference the engine's answer must match
    after every event."""
    zk = run.cfg.proof_system is ProofSystem.ZK
    for p in run.pending.values():
        stage = p["stage"]
        if stage == "queued" and not run._seq_accepting(p["user"]):
            return True
        if stage == "awaiting_root" and (run._ends("proposals") or (zk and run._ends("proofs"))):
            return True
        if stage == "claimable" and run._ends("claims", "bridge"):
            return True
    return False


class _AfterEachEvent(_Run):
    """Calls _after_event(kind) after every event's handler, whichever
    bookkeeping the loop skips for that event."""

    def _bind(self, kind):
        handler = super()._bind(kind)

        def then(*args):
            handler(*args)
            self._after_event(kind)

        return then


class _CheckedRun(_AfterEachEvent):
    """Updates the frozen-funds clock after every event, not only while the
    loop would, and holds the stall answer the clock kept to a full scan."""

    def __init__(self, scenario, seed):
        super().__init__(scenario, seed)
        self.stalled = 0
        self.targeted_stalls = 0

    def _after_event(self, kind):
        self._update_frozen()
        stalled = self._stalled
        assert stalled == _scan_stalled(self), (self.now, self.records[-1:])
        self.stalled += stalled
        self.targeted_stalls += stalled and all(inj.targets for inj in self.active.values())


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
    deferred, in a claims fault that began while it awaited finality."""
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
    return [dropped, deferred]


class TestStallBookkeeping:
    def _check(self, scenario, seed=0) -> _CheckedRun:
        run = _CheckedRun(scenario, seed)
        run.execute()
        assert run.result() == simulate(scenario, seed)
        return run

    def test_stall_answer_matches_a_full_scan_after_every_event(self):
        runs = [self._check(load_bundled_scenario(n)) for n in sorted(BUNDLED_EXPECTATIONS)]
        runs += [self._check(_fault_laden(seed)) for seed in range(40)]
        runs += [self._check(_acceptance_random(), seed) for seed in range(5)]
        runs.append(self._check(_day_long_fault(InjectionKind.PROPOSER_OUTAGE, 20, 200)))
        runs.append(self._check(_targeted_censorship()))
        runs += [self._check(scenario) for scenario in _stall_edge_cases()]
        assert sum(r.stalled for r in runs) > 0
        assert sum(r.targeted_stalls for r in runs) > 0

    def test_predicate_calls_per_event_do_not_grow_with_the_workload(self):
        class CountingRun(_Run):
            """Counts the fault-effect lookups made by the stall test."""

            calls = tests = 0
            inside = False

            def _exit_stalled(self):
                self.tests += 1
                self.inside = True
                try:
                    return super()._exit_stalled()
                finally:
                    self.inside = False

            def _ends(self, *effects):
                self.calls += self.inside
                return super()._ends(*effects)

        # A proposer outage stalls the exits waiting on a root; a slow
        # sequencer stalls none of the exits in flight. Either way the root,
        # claim and sequencer effects are each looked up at most once per
        # stall test.
        for kind in (
            InjectionKind.PROPOSER_OUTAGE,
            InjectionKind.SEQUENCER_PERFORMANCE_DEGRADATION,
        ):
            for users, actions in ((20, 200), (200, 2_000)):
                run = CountingRun(_day_long_fault(kind, users, actions), 0)
                run.execute()
                assert run.calls <= 3 * run.tests, (kind, actions, run.calls, run.tests)

    def test_no_fault_lookup_while_no_fault_is_active(self):
        class LookupCountingRun(_Run):
            lookups = 0

            def _ends(self, *effects):
                self.lookups += 1
                return super()._ends(*effects)

            def _censor_ends(self, user):
                self.lookups += 1
                return super()._censor_ends(user)

            def _seq_accepting(self, user):
                self.lookups += 1
                return super()._seq_accepting(user)

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


def _resum(run: _Run) -> int:
    """Every L2 balance and in-flight amount, summed afresh."""
    return sum(run.l2.values()) + sum(amount for _user, amount in run.inflight.values())


class _LedgerOracleRun(_AfterEachEvent):
    """Holds the ledgers' running total to a full re-sum after every event."""

    checks = 0

    def _after_event(self, kind):
        assert self.accounted == _resum(self), (self.now, kind, self.records[-1:])
        self.checks += 1


class _FullResumRun(_AfterEachEvent):
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
        wid = super()._apply_tx(tx)
        if tx["type"] == "transfer" and self.records[-1][0] == "transfer_applied":
            self._move(tx["to"], -tx["amount"])
            self._mutated()
        return wid


class _ClaimKeepsPool(_Mutant):
    """A claim that pays out without drawing on the bridge escrow."""

    def _on_claim(self, wid):
        pool = self.bridge_pool
        super()._on_claim(wid)
        if self.bridge_pool != pool:
            self.bridge_pool = pool
            self._mutated()


class _WithdrawalSkipsDebit(_Mutant):
    """A withdrawal included without debiting the user's L2 balance."""

    def _apply_tx(self, tx):
        wid = super()._apply_tx(tx)
        if wid is not None:
            self._move(tx["user"], tx["amount"])
            self._mutated()
        return wid


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

    def _on_claim(self, wid):
        super()._on_claim(wid)
        self.bridge_pool += 1
        self._mutated()


class _BatchMintsOne(_Mutant, _Run):
    """Every batch, on the grid or on recovery, adds a unit to the escrow."""

    def _make_batch(self):
        super()._make_batch()
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
        # batch_tick and recovery_batch run the same code; the violation at
        # each mint must still name its own kind.
        run = _BatchMintsOne(load_bundled_scenario("sequencer-outage-fi-24h"), 0)
        run.execute()
        minted, gap = [], 0
        for v in run.violations:
            if v["bridge"] - v["accounted"] > gap:
                minted.append((v["t"], v["event"]))
            gap = v["bridge"] - v["accounted"]
        assert minted == [(0, "batch_tick"), (18_000, "recovery_batch")]


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
                self._cut()
                break
            self.now = t
            getattr(self, "_on_" + kind)(*args)
            self._check_conservation(kind)
            self._update_frozen()
        if self._frozen_since is not None:
            self._frozen_accum += self.now - self._frozen_since
            self._frozen_since = None
        if _resum(self) != self.accounted:
            raise RuntimeError(f"ledger total {self.accounted} != {_resum(self)}")


class _ActionsOffHeapRun(_AfterEachEvent):
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


class TestFaultEffects:
    def test_every_windowed_kind_has_an_effect(self):
        assert set(_FAULT_EFFECTS) == set(InjectionKind) - {InjectionKind.EXPLOIT_USER_RISK}

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


def _usable_forced_inclusion(sc: Scenario) -> Scenario:
    return _reconfigured(
        sc, forced_inclusion=ForcedInclusionConfig(enabled=True, usable=True, timeout=12 * HOUR)
    )


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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 17: overlapping sequencer windows")
    def test_usable_forced_inclusion_never_raises_censorship_over_overlapping_windows(self):
        """Law (a). Sequencer halts at 19,087–76,672 and 53,567–122,769 and
        a withdrawal at 48,392: the dropped withdrawal's denial counts only
        to the end of the window active at the drop (28,280 s), though the
        sequencer is unavailable until 122,769 (74,377 s); with usable forced
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
        fi = _usable_forced_inclusion(sc)
        assert _harms(fi).censorship_window <= _harms(sc).censorship_window
