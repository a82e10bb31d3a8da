"""The strict JSON reader against the bundled schemas for the documents
cross-validate and --ruleset read: what one accepts the other accepts,
except for the rules the reader alone enforces."""

import copy
import json
import operator
import re
from functools import reduce

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l2risk.data import RULESET_JSON, fixture_path
from l2risk.incidents import IncidentDistribution
from l2risk.model import CompressedIncidentType, RiskDimension, percentage
from l2risk.schemas import load_schema
from l2risk.snapshot import FlagRuleset, PrevalenceTable


def _validator(name):
    # FormatChecker makes `format: date` a rule rather than an annotation
    return jsonschema.Draft202012Validator(load_schema(name), format_checker=jsonschema.FormatChecker())


_PREVALENCE_SCHEMA = _validator("prevalence")
_DISTRIBUTION_SCHEMA = _validator("distribution")
_RULESET_SCHEMA = _validator("ruleset")

_DIMENSIONS = [d.value for d in RiskDimension]
_BUCKETS = [b.value for b in CompressedIncidentType]
_COUNT = st.integers(0, 12)
_SHARE = st.none() | st.floats(0, 100) | st.integers(0, 100)
_STRINGS = st.lists(st.text(max_size=3), max_size=2)


def _table(members, values, loose):
    """Objects keyed by every one of ``members``; when ``loose``, also by
    some of them, or by all and a spelling of the first that is not
    canonical."""
    full = st.fixed_dictionaries({m: values for m in members})
    if not loose:
        return full
    spelling = st.sampled_from([members[0].title(), members[0].replace("-", "_")])
    return st.one_of(
        full,
        st.tuples(full, spelling, values).map(lambda t: {**t[0], t[1]: t[2]}),
        st.fixed_dictionaries({}, optional={m: values for m in members}),
    )


def _shares(counts, total):
    """The shares the reader requires: each count's percentage of the
    total, or all null over a total of 0."""
    return {key: percentage(count, total) if total > 0 else None for key, count in counts.items()}


def _share_table(draw, members, counts, total, loose):
    """The computed shares, or in a third of the loose documents any table."""
    if loose and draw(st.integers(0, 2)) == 0:
        return draw(_table(members, _SHARE, loose))
    return _shares(counts, total)


# Valid documents, which _near_misses breaks in one place, and loose ones:
# tables with missing or extra keys, and the rules only the reader enforces
# broken often (a flag count above total_projects, counts that do not add
# up to the total, shares that are not the counts' percentages, a date span
# that ends before it starts).
@st.composite
def _prevalences(draw, loose):
    total = draw(st.integers(-1, 20) if loose else st.integers(12, 20))
    flagged = draw(_table(_DIMENSIONS, _COUNT, loose))
    doc = {
        "total_projects": total,
        "flagged": flagged,
        "shares": _share_table(draw, _DIMENSIONS, flagged, total, loose),
    }
    if draw(st.booleans()):
        doc["warnings"] = draw(_STRINGS)
    return doc


@st.composite
def _distributions(draw, loose):
    counts = draw(_table(_BUCKETS, _COUNT, loose))
    span = draw(st.none() | st.lists(st.dates(), min_size=2, max_size=2))
    total = sum(counts.values())
    doc = {
        "total": total + (draw(st.sampled_from([0, 1, -1])) if loose else 0),
        "counts": counts,
        "shares": _share_table(draw, _BUCKETS, counts, total, loose),
        "unmapped": draw(_COUNT),
        "distinct_projects": draw(_COUNT),
        "date_span": span and [str(d) for d in (span if loose else sorted(span))],
    }
    if draw(st.booleans()):
        doc["warnings"] = draw(_STRINGS)
    return doc


_RULESETS = st.fixed_dictionaries(
    {},
    optional={
        "rules": st.dictionaries(st.sampled_from(_DIMENSIONS + ["Exit Window", "exit-windows"]), _STRINGS),
        "sentiment_fallback": st.booleans(),
        "version": st.integers(0, 3),
    },
)


def _paths(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield path + (key,)
            yield from _paths(value, path + (key,))


def _misses(value) -> list:
    """Near misses for one JSON value: out of range, another JSON type, a
    date spelled other than YYYY-MM-DD."""
    if isinstance(value, bool):
        return [None, 1, "true"]
    if isinstance(value, (int, float)):
        # 1.5, not 1.0: JSON Schema counts 1.0 as an integer where the reader does not
        return [-1, 100.5, 1.5, True, None, "1"]
    if isinstance(value, str):
        return ["20220629", "2022-W26-3", "2022-02-30", 7, None]
    if isinstance(value, list):
        return [None, {}, "x", ["x", 7]]
    return [None, [], "x"]


@st.composite
def _near_misses(draw, documents):
    """A document with one value replaced by a near miss, one key dropped,
    or an unknown key added at the top."""
    doc = copy.deepcopy(draw(documents))
    paths = list(_paths(doc))
    if not paths or draw(st.integers(0, 4)) == 0:
        doc["bogus"] = 1
        return doc
    path = draw(st.sampled_from(paths))
    parent = reduce(operator.getitem, path[:-1], doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(_misses(parent[path[-1]])))
    return doc


def _reads(read, doc) -> bool:
    try:
        read(doc)
    except ValueError:
        return False
    return True


def _read_ruleset(doc):
    return FlagRuleset.from_file("ruleset.json", text=json.dumps(doc))


class TestSchemaAndReaderAgree:
    # Any exception but ValueError fails these tests: a document is either
    # read or refused with exit 2.

    @settings(max_examples=300, deadline=None)
    @given(_prevalences(loose=True) | _near_misses(_prevalences(loose=False)))
    def test_prevalence(self, doc):
        expected = (
            _PREVALENCE_SCHEMA.is_valid(doc)
            and all(count <= doc["total_projects"] for count in doc["flagged"].values())
            and doc["shares"] == _shares(doc["flagged"], doc["total_projects"])
        )
        assert _reads(PrevalenceTable.from_dict, doc) is expected

    @settings(max_examples=300, deadline=None)
    @given(_distributions(loose=True) | _near_misses(_distributions(loose=False)))
    def test_distribution(self, doc):
        expected = (
            _DISTRIBUTION_SCHEMA.is_valid(doc)
            and sum(doc["counts"].values()) == doc["total"]
            and (doc["date_span"] is None or doc["date_span"][0] <= doc["date_span"][1])
            and doc["shares"] == _shares(doc["counts"], doc["total"])
        )
        assert _reads(IncidentDistribution.from_dict, doc) is expected

    @settings(max_examples=200, deadline=None)
    @given(_RULESETS | _near_misses(_RULESETS))
    def test_ruleset(self, doc):
        assert _reads(_read_ruleset, doc) is _RULESET_SCHEMA.is_valid(doc)

    @pytest.mark.parametrize(
        "schema, read, doc",
        [
            # a dimension cannot be flagged in more projects than were analyzed
            (
                _PREVALENCE_SCHEMA,
                PrevalenceTable.from_dict,
                {
                    "total_projects": 1,
                    "flagged": {d: 2 if d == "exit-window" else 0 for d in _DIMENSIONS},
                    "shares": {d: None for d in _DIMENSIONS},
                },
            ),
            # the bucket counts add up to the total
            (
                _DISTRIBUTION_SCHEMA,
                IncidentDistribution.from_dict,
                {
                    "total": 3,
                    "counts": {b: 1 for b in _BUCKETS},
                    "shares": {b: 25.0 for b in _BUCKETS},
                    "unmapped": 0,
                    "distinct_projects": 1,
                    "date_span": None,
                },
            ),
            # the date span does not end before it starts
            (
                _DISTRIBUTION_SCHEMA,
                IncidentDistribution.from_dict,
                {
                    "total": 0,
                    "counts": {b: 0 for b in _BUCKETS},
                    "shares": {b: None for b in _BUCKETS},
                    "unmapped": 0,
                    "distinct_projects": 0,
                    "date_span": ["2025-08-31", "2022-06-29"],
                },
            ),
            # each share is its count's percentage of the total: not 0.0 for
            # 111 of 129 projects, and not null for 19 of 19 incidents
            (
                _PREVALENCE_SCHEMA,
                PrevalenceTable.from_dict,
                {
                    "total_projects": 129,
                    "flagged": {d: 111 for d in _DIMENSIONS},
                    "shares": {d: 0.0 for d in _DIMENSIONS},
                },
            ),
            (
                _DISTRIBUTION_SCHEMA,
                IncidentDistribution.from_dict,
                {
                    "total": 19,
                    "counts": {b: 19 if b == "sequencer-disruption" else 0 for b in _BUCKETS},
                    "shares": {b: None for b in _BUCKETS},
                    "unmapped": 0,
                    "distinct_projects": 1,
                    "date_span": None,
                },
            ),
        ],
    )
    def test_rules_only_the_reader_enforces(self, schema, read, doc):
        assert schema.is_valid(doc)
        assert not _reads(read, doc)

    def test_bundled_ruleset_satisfies_the_schema(self):
        raw = json.loads(fixture_path(RULESET_JSON).read_text())
        _RULESET_SCHEMA.validate(raw)
        assert _reads(_read_ruleset, raw)


# Tables built from drawn counts, totals of 0 included, and the artifacts
# they write: each artifact, as written and as read back from JSON text,
# reads as the table that wrote it.
@st.composite
def _prevalence_tables(draw):
    total = draw(st.integers(0, 20))
    return PrevalenceTable(total, {d: draw(st.integers(0, total)) for d in RiskDimension})


@st.composite
def _distribution_tables(draw):
    counts = {b: draw(st.integers(0, 3)) for b in CompressedIncidentType}
    span = draw(st.none() | st.lists(st.dates(), min_size=2, max_size=2).map(lambda d: tuple(sorted(d))))
    return IncidentDistribution(counts, draw(_COUNT), draw(_COUNT), span)


class TestArtifactsReadBack:
    @settings(max_examples=200, deadline=None)
    @given(_prevalence_tables(), _STRINGS)
    @example(PrevalenceTable(0, dict.fromkeys(RiskDimension, 0)), [])
    def test_prevalence(self, table, warnings):
        written = table.to_dict(warnings)
        assert PrevalenceTable.from_dict(written) == table
        assert PrevalenceTable.from_dict(json.loads(json.dumps(written))) == table

    @settings(max_examples=200, deadline=None)
    @given(_distribution_tables(), _STRINGS)
    @example(IncidentDistribution(dict.fromkeys(CompressedIncidentType, 0), 0, 0, None), [])
    def test_distribution(self, dist, warnings):
        written = dist.to_dict(warnings)
        assert IncidentDistribution.from_dict(written) == dist
        assert IncidentDistribution.from_dict(json.loads(json.dumps(written))) == dist


# A table built in Python takes no key outside its members, foreign enum
# member or string, whatever its count; the JSON readers refuse an unknown
# key first, as before, under the document's own name for the table.
_FOREIGN = [
    (PrevalenceTable, RiskDimension, "flagged", CompressedIncidentType.EXPLOIT_OR_SECURITY),
    (PrevalenceTable, RiskDimension, "flagged", "exit-window"),
    (IncidentDistribution, CompressedIncidentType, "counts", RiskDimension.EXIT_WINDOW),
    (IncidentDistribution, CompressedIncidentType, "counts", "exploit-or-security"),
]


def _build(cls, counts):
    return cls(3, counts) if cls is PrevalenceTable else cls(counts, 0, 0, None)


@pytest.mark.parametrize(
    "cls, members, key, foreign",
    _FOREIGN,
    ids=[f"{c.__name__}-{type(f).__name__}" for c, _m, _k, f in _FOREIGN],
)
def test_tables_refuse_keys_outside_their_members(cls, members, key, foreign):
    counts = {**dict.fromkeys(members, 1), foreign: 1}
    message = f"{key} has keys that are not {members.__name__} members: [{foreign!r}]"
    with pytest.raises(ValueError) as exc:
        _build(cls, counts)
    assert str(exc.value) == message
    written = _build(cls, dict.fromkeys(members, 1)).to_dict(())
    written[key]["Exit Window"] = 1
    with pytest.raises(ValueError, match=re.escape(f"unknown {key} keys: ['Exit Window']")):
        cls.from_dict(written)
