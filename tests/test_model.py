import enum
import itertools
import tempfile
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l2risk.engine  # noqa: F401  (defines _LabeledEnum subclasses)
import l2risk.sim.scenario  # noqa: F401  (defines _LabeledEnum subclasses)
from l2risk.model import (
    DaConfig,
    DaMode,
    EraField,
    FIELD_TABLE,
    ForcedInclusionConfig,
    HarmMetrics,
    IncidentClass,
    CompressedIncidentType,
    ProjectCategory,
    ProjectRiskProfile,
    ProofSystem,
    ProposerConfig,
    ProverSetConfig,
    RiskDimension,
    RiskEntry,
    RoleAssignment,
    RoleFlag,
    RoleMatrix,
    RollupConfig,
    SequencerConfig,
    Sentiment,
    SourceKind,
    Stakeholder,
    UpgradeConfig,
    UpgradePolicy,
    _LabeledEnum,
    _slug,
    binarize,
    decode_text,
    normalize_label,
    percentage,
)

ALL_ENUMS = [
    ProjectCategory,
    RiskDimension,
    Sentiment,
    IncidentClass,
    CompressedIncidentType,
    SourceKind,
    Stakeholder,
    RoleFlag,
    ProofSystem,
    DaMode,
    UpgradePolicy,
]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


LABELED_ENUMS = sorted(_all_subclasses(_LabeledEnum), key=lambda c: c.__name__)


def _scan_parse(enum_cls, text):
    """Reference: the member scan parse used before it became a value lookup."""
    if enum_cls is RoleFlag:
        text = normalize_label(text).split("/")[0].strip()
    key = _slug(text)
    for member in enum_cls:
        if member.value == key:
            return member
    raise ValueError(f"{enum_cls.__name__}: unrecognized label {text!r}")


@st.composite
def _loosely_written(draw, value):
    """A member value in random case, with '-'/'_'/' ' swapped, extra
    whitespace around words, and sometimes a character too many or too few."""
    out = []
    for ch in value:
        if ch == "-":
            ch = draw(st.sampled_from(["-", "_", " ", "  ", "\t", " - "]))
        elif draw(st.booleans()):
            ch = ch.upper()
        out.append(ch)
    pad = st.sampled_from(["", " ", "  ", "\t", "\n "])
    text = draw(pad) + "".join(out) + draw(pad)
    edit = draw(st.sampled_from(["none", "none", "append", "drop"]))
    if edit == "append":
        text += draw(st.sampled_from(["x", "-", "_", "/no", "s"]))
    elif edit == "drop":
        text = text[:-1]
    return text


class TestEnums:
    def test_parse_print_round_trip(self):
        for enum_cls in ALL_ENUMS:
            for member in enum_cls:
                assert enum_cls.parse(member.value) is member

    def test_parse_is_tolerant_of_case_and_whitespace(self):
        assert RiskDimension.parse(" Sequencer Failure ") is RiskDimension.SEQUENCER_FAILURE
        assert ProjectCategory.parse("ZK Rollup") is ProjectCategory.ZK_ROLLUP
        assert ProjectCategory.parse("Optimistic Rollup") is ProjectCategory.OPTIMISTIC_ROLLUP

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match=r"^RiskDimension: unrecognized label 'state derivation'$"):
            RiskDimension.parse("state derivation")

    @settings(max_examples=300)
    @given(st.data())
    def test_parse_agrees_with_member_scan(self, data):
        enum_cls = data.draw(st.sampled_from(LABELED_ENUMS))
        text = data.draw(
            st.one_of(
                st.sampled_from([m.value for m in enum_cls]).flatmap(_loosely_written),
                st.text(max_size=30),
            )
        )
        try:
            expected = _scan_parse(enum_cls, text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                enum_cls.parse(text)
            assert str(got.value) == str(exc)
        else:
            assert enum_cls.parse(text) is expected

    def test_parse_is_one_lookup_not_an_enum_call(self, monkeypatch):
        calls = []
        call = enum.EnumType.__call__

        def counted(cls, *args, **kwargs):
            calls.append(cls)
            return call(cls, *args, **kwargs)

        monkeypatch.setattr(enum.EnumType, "__call__", counted)
        for enum_cls in LABELED_ENUMS:
            for member in enum_cls:
                assert enum_cls.parse(member.value.upper()) is member
        assert calls == []

    def test_members_hash_by_identity(self):
        for enum_cls in LABELED_ENUMS:
            assert enum_cls.__hash__ is object.__hash__
            for member in enum_cls:
                assert hash(member) == object.__hash__(member)
                assert {member: 1}[enum_cls.parse(member.value)] == 1

    def test_member_counts(self):
        assert len(RiskDimension) == 5
        assert len(IncidentClass) == 10
        assert len(CompressedIncidentType) == 4
        assert len(Stakeholder) == 10

    def test_role_flag_parses_slash_cells_to_stronger_component(self):
        assert RoleFlag.parse("indirect/no") is RoleFlag.INDIRECT
        assert RoleFlag.parse("limited/no") is RoleFlag.LIMITED
        assert RoleFlag.parse("yes") is RoleFlag.YES


class TestBinarize:
    def test_default_threshold_only_accepts_yes(self):
        assert binarize(RoleFlag.YES, RoleFlag.YES) is True
        assert binarize(RoleFlag.NO, RoleFlag.YES) is False
        assert binarize(RoleFlag.INDIRECT, RoleFlag.YES) is False
        assert binarize(RoleFlag.LIMITED, RoleFlag.YES) is False

    def test_indirect_threshold_excludes_limited(self):
        assert binarize(RoleFlag.INDIRECT, RoleFlag.INDIRECT) is True
        assert binarize(RoleFlag.LIMITED, RoleFlag.INDIRECT) is False

    def test_ordinal_scale(self):
        ranks = [RoleFlag.NO.rank, RoleFlag.LIMITED.rank, RoleFlag.INDIRECT.rank, RoleFlag.YES.rank]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == 4


# FIELD_TABLE inverted: the (risk_exposed, beneficiary, decision_maker) triple
# of each field
FIELD_FLAGS = {f: flags for flags, f in FIELD_TABLE.items()}


class TestFieldTable:
    def test_bijection_covers_exactly_the_seven_nonempty_triples(self):
        triples = [t for t in itertools.product([False, True], repeat=3) if any(t)]
        assert sorted(FIELD_TABLE) == sorted(triples)
        assert sorted(FIELD_TABLE.values()) == sorted(EraField)
        assert (False, False, False) not in FIELD_TABLE

    def test_inverse_agrees(self):
        assert set(FIELD_FLAGS) == set(EraField)
        for flags, field in FIELD_TABLE.items():
            assert FIELD_FLAGS[field] == flags

    def test_anchor_fields(self):
        assert FIELD_TABLE[(False, True, True)] is EraField.BENEFIT_AND_DECISION
        assert FIELD_TABLE[(True, False, False)] is EraField.EXPOSURE_ONLY
        assert FIELD_TABLE[(False, True, False)] is EraField.BENEFIT_ONLY
        assert FIELD_TABLE[(True, True, False)] is EraField.EXPOSURE_AND_BENEFIT


class TestRiskEntry:
    def test_value_and_description_are_normalized(self):
        e = RiskEntry(
            dimension=RiskDimension.EXIT_WINDOW,
            value="  None ",
            sentiment=Sentiment.BAD,
            description="  Instantly   UPGRADABLE  ",
        )
        assert e.value == "none"
        assert e.description == "instantly upgradable"

    @given(st.text(max_size=60))
    def test_normalization_is_idempotent(self, raw):
        once = normalize_label(raw)
        assert normalize_label(once) == once

    def test_unknown_dimension_entries_cannot_be_flagged(self):
        with pytest.raises(ValueError):
            RiskEntry(None, "x", Sentiment.BAD, "y", flagged=True)


class TestProjectRiskProfile:
    def _entry(self, dim):
        return RiskEntry(dim, "v", Sentiment.NEUTRAL, "d")

    def test_rejects_duplicate_dimensions(self):
        with pytest.raises(ValueError):
            ProjectRiskProfile(
                "p1",
                "P1",
                ProjectCategory.OTHER,
                (self._entry(RiskDimension.EXIT_WINDOW), self._entry(RiskDimension.EXIT_WINDOW)),
            )

    def test_rejects_unrecognized_dimension_entries(self):
        with pytest.raises(ValueError):
            ProjectRiskProfile(
                "p1", "P1", ProjectCategory.OTHER, (RiskEntry(None, "v", Sentiment.UNKNOWN, "d"),)
            )

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            ProjectRiskProfile("", "P1", ProjectCategory.OTHER, ())

    def test_entry_lookup(self):
        p = ProjectRiskProfile(
            "p1", "P1", ProjectCategory.ZK_ROLLUP, (self._entry(RiskDimension.EXIT_WINDOW),)
        )
        assert p.entry(RiskDimension.EXIT_WINDOW) is p.risks[0]
        assert p.entry(RiskDimension.DATA_AVAILABILITY) is None


class TestRoleMatrix:
    def test_rejects_missing_stakeholder(self):
        rows = {
            s: RoleAssignment(RoleFlag.NO, RoleFlag.NO, RoleFlag.YES)
            for s in Stakeholder
            if s is not Stakeholder.SEQUENCER
        }
        with pytest.raises(ValueError):
            RoleMatrix(rows)

    def test_total_matrix_accepted_and_immutable(self):
        rows = {s: RoleAssignment(RoleFlag.YES, RoleFlag.YES, RoleFlag.NO) for s in Stakeholder}
        m = RoleMatrix(rows)
        assert m[Stakeholder.END_USER].risk_exposed is RoleFlag.YES
        with pytest.raises(TypeError):
            m.rows[Stakeholder.END_USER] = RoleAssignment(RoleFlag.NO, RoleFlag.NO, RoleFlag.NO)


class TestRollupConfigValidation:
    def test_optimistic_requires_challenge_window(self):
        with pytest.raises(ValueError):
            RollupConfig(proof_system=ProofSystem.OPTIMISTIC, challenge_window=0)

    def test_forced_inclusion_usable_implies_enabled(self):
        with pytest.raises(ValueError):
            ForcedInclusionConfig(enabled=False, usable=True)

    def test_timelocked_upgrade_needs_positive_window(self):
        with pytest.raises(ValueError):
            UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=0)

    def test_onchain_da_cannot_be_withheld(self):
        with pytest.raises(ValueError):
            DaConfig(mode=DaMode.ONCHAIN, withholding_possible=True)

    def test_default_config_has_independent_provers(self):
        assert RollupConfig.centralized_default().has_independent_provers()

    @pytest.mark.parametrize("value", [True, 0.5, 100.0])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: RollupConfig(proof_system=ProofSystem.OPTIMISTIC, challenge_window=v),
            lambda v: ForcedInclusionConfig(enabled=True, timeout=v),
            lambda v: UpgradeConfig(policy=UpgradePolicy.TIMELOCKED, window=v),
            lambda v: ProverSetConfig(count=v),
            lambda v: ProposerConfig(count=v),
            lambda v: SequencerConfig(recovery_latency=v),
            lambda v: DaConfig(attestation_quorum=v),
        ],
        ids=[
            "challenge_window",
            "timeout",
            "window",
            "prover_count",
            "proposer_count",
            "recovery_latency",
            "attestation_quorum",
        ],
    )
    def test_int_fields_take_only_exact_ints(self, build, value):
        # the simulator's trace writes these through %d, which would turn
        # True into 1 and 0.5 into 0 where json.dumps writes true and 0.5
        with pytest.raises(ValueError, match="must be an integer"):
            build(value)

    def test_fractional_forced_inclusion_timeout_is_refused(self):
        # once accepted, a withdrawal denied during an outage was traced with
        # "deadline":2508 where json.dumps writes 2508.0
        with pytest.raises(ValueError, match=r"timeout must be an integer, not 1800\.5"):
            ForcedInclusionConfig(enabled=True, usable=True, timeout=1800.5)


def _decimal_percentage(count: int, total: int) -> float:
    """Reference: percentage as first written, in Decimal arithmetic. Exact
    for totals up to 10**18: a share that is not a tie lies at least
    1/(20 * total) from one, far beyond Decimal's 28 significant digits."""
    raw = Decimal(count) * 100 / Decimal(total)
    return float(raw.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


class TestPercentage:
    def test_matches_decimal_reference_for_every_small_pair(self):
        # _decimal_percentage with its constants hoisted: about 2 M pairs
        tenth, hundred = Decimal("0.1"), Decimal(100)
        for total in range(1, 2001):
            denominator = Decimal(total)
            expected = [
                float((Decimal(c) * hundred / denominator).quantize(tenth, ROUND_HALF_UP))
                for c in range(total + 1)
            ]
            assert [percentage(c, total) for c in range(total + 1)] == expected, total

    @settings(max_examples=500)
    @given(
        st.integers(min_value=1, max_value=10**18).flatmap(
            lambda total: st.tuples(st.integers(min_value=0, max_value=total), st.just(total))
        )
        # exact ties (2k+1)/20 of a percent, and one count either side of them
        | st.tuples(st.integers(0, 999), st.integers(1, 5 * 10**14), st.sampled_from([-1, 0, 1])).map(
            lambda t: ((2 * t[0] + 1) * t[1] + t[2], 2000 * t[1])
        )
    )
    def test_matches_decimal_reference_for_large_pairs(self, pair):
        assert percentage(*pair) == _decimal_percentage(*pair)

    def test_rounds_ties_up(self):
        assert percentage(6, 32) == 18.8  # 18.75 is an exact tie
        assert percentage(1, 16) == 6.3  # 6.25 is an exact tie
        assert percentage(1, 8) == 12.5

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            percentage(1, 0)

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
    def test_within_rounding_distance_of_exact_share(self, count, total):
        assert abs(percentage(count, total) - 100 * count / total) <= 0.05 + 1e-9


_CHUNKS = [b"a", b"{", b"\r", b"\n", b"\r\n", b"\xc3\xa9", b"\xef\xbb\xbf", b"\xff", b"\xc3"]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(_CHUNKS), max_size=12).map(b"".join))
def test_decode_text_reads_bytes_as_read_text_reads_the_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            expected = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            with pytest.raises(UnicodeDecodeError) as got:
                decode_text(data)
            assert str(got.value) == str(exc)
        else:
            assert decode_text(data) == expected


def test_harm_metrics_serialization_is_sorted_and_plain():
    m = HarmMetrics(
        withdrawal_latency={"u2": (5,), "u1": (3, 4)},
        frozen_funds_duration=7,
        censorship_window=0,
        exit_coverage_before_upgrade=None,
        funds_conserved=True,
    )
    d = m.to_dict()
    assert list(d["withdrawal_latency"]) == ["u1", "u2"]
    assert d["withdrawal_latency"]["u1"] == [3, 4]
    assert d["exit_coverage_before_upgrade"] is None
