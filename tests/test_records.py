"""records' fast paths against the code they replaced: from_dict, loads_line and
write_jsonl's encoder.

A fast path must give the reference's value, or raise the reference's
exception with the same message, on every input.
"""

import json
from dataclasses import is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchcot import records
from batchcot.harness import EvalAggregate
from batchcot.parsing import ChainOrigin, CompletionRecord, ReasoningChain, SamplingParams
from batchcot.preference import PreferenceSample
from batchcot.prompts import BATCH, VANILLA, PromptEnvelope
from batchcot.records import from_dict, loads_line, read_jsonl, to_dict, write_jsonl


def reference_from_dict(cls, d):
    """from_dict as one loop over the fields, checking each in turn."""
    if not isinstance(d, dict):
        raise TypeError(f"{type(d).__name__} is not a JSON object")
    kwargs = {}
    for name, required, convert, accepts in records._schema(cls)[0]:
        if not required and name not in d:
            continue
        value = d[name]
        # exact types, so a JSON true or false is not taken for a number
        if type(value) not in accepts:
            raise TypeError(f"{name} is {type(value).__name__}, not "
                            + " or ".join(t.__name__ for t in accepts))
        if convert is tuple:
            value = tuple(value)
        elif convert is not None:
            value = reference_from_dict(convert, value)
        kwargs[name] = value
    return cls(**kwargs)


def outcome(f, *args):
    """("value", what f returns), or (exception type, message)."""
    try:
        value = f(*args)
    except Exception as exc:  # the comparison is the point: any exception
        return type(exc), str(exc)
    # to_dict too: ReasoningChain leaves token_count out of ==
    return "value", value, to_dict(value) if is_dataclass(value) else None


RECORDS = (
    ReasoningChain("q1", "1. caf\u00e9 \\boxed{2}\n", ChainOrigin(BATCH, 2, 1), "2",
                   "correct", 3),
    ReasoningChain("q2", "the answer", ChainOrigin(VANILLA), None, None, 2),
    CompletionRecord(PromptEnvelope("Q1?\nQ2?", BATCH, 2, ("q1", "q2")), "1. \\boxed{2}",
                     5, 9, SamplingParams(0.6, 1024, 7), "mock"),
    PreferenceSample("What is 1+1?", "2 \\boxed{2}", "B", {"question_id": "q1"}),
    EvalAggregate("AIME 2024", 0.25, 1234.5, 30, 148, 2),
)

# every JSON type, so each field sees values of its own and of other types
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=4)


def as_json(record) -> dict:
    """A record's dict as read back from a file: tuples are lists."""
    return json.loads(json.dumps(to_dict(record)))


@st.composite
def mutated_record_dicts(draw):
    """(cls, d): a record's dict with keys, its own or nested ones, dropped or retyped."""
    record = draw(st.sampled_from(RECORDS))
    d = as_json(record)
    for _ in range(draw(st.integers(0, 3))):
        target = d
        nested = [k for k, v in d.items() if type(v) is dict]
        if nested and draw(st.booleans()):
            target = d[draw(st.sampled_from(nested))]
            if type(target) is not dict or not target:
                continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    if draw(st.integers(0, 20)) == 0:
        d = draw(JSON_VALUES)  # not a dict at all
    return type(record), d


class TestFromDict:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_round_trip(self, record):
        d = as_json(record)
        assert outcome(from_dict, type(record), d) == outcome(reference_from_dict,
                                                              type(record), d)
        assert to_dict(from_dict(type(record), d)) == to_dict(record)

    @settings(max_examples=400, deadline=None)
    @given(mutated_record_dicts())
    def test_same_outcome_as_the_reference(self, case):
        cls, d = case
        assert outcome(from_dict, cls, d) == outcome(reference_from_dict, cls, d)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_every_missing_key_and_wrong_type(self, record):
        cls = type(record)
        plan = records._schema(cls)[0]
        for name, required, _, _ in plan:
            d = as_json(record)
            del d[name]
            got = outcome(from_dict, cls, d)
            assert got == outcome(reference_from_dict, cls, d)
            if required:
                assert got == (KeyError, repr(name))
            d[name] = True  # a JSON true is no field's type
            got = outcome(from_dict, cls, d)
            assert got == outcome(reference_from_dict, cls, d)
            assert got[0] is TypeError and got[1].startswith(f"{name} is bool, not ")

    def test_messages(self):
        chain = as_json(RECORDS[0])
        cases = (
            ({**chain, "token_count": 1.0}, TypeError,
             "token_count is float, not int or NoneType"),
            ({**chain, "origin": {"kind": "batch", "size": False}}, TypeError,
             "size is bool, not int"),
            ({k: v for k, v in chain.items() if k != "text"}, KeyError, "'text'"),
            # the first error in field order, though a later field is missing
            ({k: v for k, v in chain.items() if k != "origin"} | {"question_id": 7},
             TypeError, "question_id is int, not str"),
            ({**chain, "origin": {"kind": "nested", "size": 1, "position": 1}}, ValueError,
             "unknown chain origin kind: 'nested'"),
        )
        for d, kind, message in cases:
            assert outcome(from_dict, ReasoningChain, d) == (kind, message)
            assert outcome(reference_from_dict, ReasoningChain, d) == (kind, message)

    def test_missing_default_factory_key_takes_the_factory_value(self):
        d = as_json(RECORDS[2])
        del d["sampling"]
        assert from_dict(CompletionRecord, d).sampling == SamplingParams()


# lines a JSONL file can hold: JSON documents and any text, each between
# whitespace that json.loads skips, whitespace it does not, and extra data
LINES = st.tuples(
    st.sampled_from(["", " ", "\t", "\u2003", "\ufeff", "\x1c"]),
    JSON_VALUES.map(json.dumps) | st.text(max_size=8),
    st.sampled_from(["", "\n", " \n", "\r\n", "\t", "\u2003\n", "\x85", "x\n", ",{}\n",
                     "]\n"]),
).map("".join)


class TestLoadsLine:
    @settings(max_examples=400, deadline=None)
    @given(LINES)
    def test_same_outcome_as_json_loads(self, line):
        # repr, so that a NaN compares equal to itself
        assert repr(outcome(loads_line, line)) == repr(outcome(json.loads, line))

    def test_record_lines(self):
        line = json.dumps(to_dict(RECORDS[2]), sort_keys=True)
        for text in (line, line + "\n"):
            assert loads_line(text) == json.loads(text)


# rows as write_jsonl gets them: nested dicts with every JSON type, and
# the tuples, non-ASCII text and non-finite floats a record can hold
ROWS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12).map(lambda value: {"row": value})


class TestWriteJsonl:
    @settings(max_examples=300, deadline=None)
    @given(ROWS)
    def test_line_is_json_dumps_sort_keys(self, row):
        assert records._encode(row) == json.dumps(row, sort_keys=True)

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
    def test_file_bytes(self, tmp_path, monkeypatch, c_encoder):
        if not c_encoder:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(records, "_encode", records._row_encoder())
        rows = [to_dict(r) for r in RECORDS] + [{"z": float("nan"), "a": [1.5, -0.0]}]
        write_jsonl(tmp_path / "rows.jsonl", rows)
        assert (tmp_path / "rows.jsonl").read_bytes() == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")

    def test_unserializable_value_fails_and_later_rows_still_encode(self):
        with pytest.raises(TypeError):
            records._encode({"a": {"b": object()}})
        assert records._encode({"a": {"b": 1}}) == '{"a": {"b": 1}}'


class TestReadJsonl:
    def test_blank_lines_of_any_whitespace_are_skipped(self, tmp_path):
        path = tmp_path / "chains.jsonl"
        write_jsonl(path, [to_dict(r) for r in RECORDS[:2]])
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n \t\n" + lines[0] + "\n\u2003\x1c\n\n" + lines[1],
                        encoding="utf-8")
        assert [to_dict(c) for c in read_jsonl(path, ReasoningChain)] == \
            [to_dict(r) for r in RECORDS[:2]]

    def test_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "chains.jsonl"
        path.write_text("\n" + json.dumps({**as_json(RECORDS[0]), "verdict": 1}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_jsonl(path, ReasoningChain)
        assert str(info.value) == (f"{path}: line 2: TypeError: "
                                   "verdict is int, not str or NoneType")
