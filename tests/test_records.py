"""records' fast paths against the code they replaced: from_dict and
write_jsonl's encoder; and a line of a JSONL file, read by read_jsonl or
load_questions, against json.loads of that line.

A fast path must give the reference's value, or raise the reference's
exception with the same message, on every input.
"""

import json
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchcot import records
from batchcot.client import ExperimentRow
from batchcot.harness import EvalAggregate
from batchcot.parsing import (
    WHITESPACE,
    ChainOrigin,
    CompletionRecord,
    ReasoningChain,
    SamplingParams,
)
from batchcot.preference import OPTIONS, PreferenceSample, Provenance
from batchcot.prompts import BATCH, VANILLA, PromptEnvelope, Question, load_questions
from batchcot.records import from_dict, read_jsonl, to_dict, write_jsonl


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
    PreferenceSample("What is 1+1?", "2 \\boxed{2}", "B", Provenance(BATCH, 2, 1, "q1")),
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


# rows as write_jsonl gets them: nested dicts with every JSON type, and
# the tuples, non-ASCII text and non-finite floats a record can hold
ROWS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12).map(lambda value: {"row": value})


def reference_chain_row(chain) -> dict:
    """A chain's row as write_chains built it before rows were compiled: its
    fields plus its token scheme; verdict once graded."""
    d = to_dict(chain)
    if chain.verdict is None:
        del d["verdict"]
    d["token_scheme"] = WHITESPACE
    return d


def reference_row(record) -> dict:
    """The row a record's line holds: to_dict's, and a sample's options too."""
    if type(record) is ReasoningChain:
        return reference_chain_row(record)
    if type(record) is PreferenceSample:
        return {**to_dict(record), "options": OPTIONS}
    return to_dict(record)


# text with non-ASCII and control characters and lone surrogates
TEXT = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ["", "\ud800", "a\udfffb", "\x00\x1f\x7f\n\t", "caf\u00e9 \U0001d70b", '"\\{}'])
# what a float field may hold: a float (NaN and +-inf too), an int or a bool
NUMBERS = st.floats() | st.integers() | st.booleans()
COUNTS = st.integers(0, 10 ** 20)
ENVELOPES = (st.builds(PromptEnvelope, TEXT, st.just(VANILLA), st.just(1), st.tuples(TEXT))
             | st.integers(2, 4).flatmap(lambda k: st.builds(
                 PromptEnvelope, TEXT, st.just(BATCH), st.just(k),
                 st.lists(TEXT, min_size=k, max_size=k).map(tuple))))
ORIGINS = (st.builds(ChainOrigin, st.just(VANILLA), st.integers(1, 3), st.integers(1, 3))
           | st.integers(1, 4).flatmap(lambda k: st.builds(
               ChainOrigin, st.just(BATCH), st.just(k), st.integers(1, k))))
RECORD_VALUES = st.one_of(
    st.builds(CompletionRecord, ENVELOPES, TEXT, COUNTS, st.none() | COUNTS,
              st.builds(SamplingParams, NUMBERS, st.integers(), st.none() | st.integers()),
              TEXT),
    st.builds(ReasoningChain, TEXT, TEXT, ORIGINS, st.none() | TEXT, st.none() | TEXT,
              st.none() | COUNTS),
    st.builds(PreferenceSample, TEXT, TEXT, st.sampled_from(["A", "B", "C"]),
              st.builds(Provenance, TEXT | JSON_VALUES, st.integers() | JSON_VALUES,
                        st.integers() | JSON_VALUES, TEXT | JSON_VALUES)),
    st.builds(ExperimentRow, *[st.integers()] * 4, *[st.none() | NUMBERS] * 3,
              st.integers(), st.integers()),
)


@st.composite
def record_values(draw):
    """A record, some of whose plain fields may hold a value of any JSON type
    (an empty tuple too), as a record built by hand could."""
    record = draw(RECORD_VALUES)
    for f in fields(record):
        if not is_dataclass(getattr(record, f.name)) and draw(st.integers(0, 4)) == 0:
            object.__setattr__(record, f.name, draw(st.just(()) | JSON_VALUES | TEXT))
    return record


class TestWriteJsonl:
    @settings(max_examples=300, deadline=None)
    @given(ROWS)
    def test_line_is_json_dumps_sort_keys(self, row):
        assert records._encode(row) == json.dumps(row, sort_keys=True)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(record_values(), max_size=3))
    def test_record_line_is_json_dumps_of_its_row(self, tmp_path_factory, rows):
        # write_chains, write_completions, write_samples and the experiment
        # rows write records with no dict built
        path = tmp_path_factory.getbasetemp() / "records.jsonl"
        write_jsonl(path, rows)
        assert path.read_bytes() == "".join(
            json.dumps(reference_row(r), sort_keys=True) + "\n" for r in rows).encode("utf-8")

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
    def test_file_bytes(self, tmp_path, monkeypatch, c_encoder):
        if not c_encoder:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(records, "_encode", records._row_encoder())
        rows = [to_dict(r) for r in RECORDS] + [{"z": float("nan"), "a": [1.5, -0.0]}]
        write_jsonl(tmp_path / "rows.jsonl", rows)
        assert (tmp_path / "rows.jsonl").read_bytes() == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")

    def test_sample_and_graded_chain_rows_need_no_generic_encoder(self, tmp_path,
                                                                  monkeypatch):
        # every field of a sample row and a graded chain row is a str, an int
        # or a record, so their compiled encoders never call _encode
        def refuse(row):
            raise AssertionError(f"_encode called on {row!r}")

        rows = [RECORDS[3], RECORDS[0]]
        assert rows[1].verdict is not None
        records._encoder.cache_clear()
        monkeypatch.setattr(records, "_encode", refuse)
        try:
            for row in rows:
                write_jsonl(tmp_path / "row.jsonl", [row])
                assert (tmp_path / "row.jsonl").read_text(encoding="utf-8") == \
                    json.dumps(reference_row(row), sort_keys=True) + "\n"
        finally:
            # the encoders compiled here hold refuse
            records._encoder.cache_clear()

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

    @pytest.mark.parametrize("read, cls, row", [
        (lambda path: read_jsonl(path, ReasoningChain), ReasoningChain, as_json(RECORDS[0])),
        (load_questions, Question, {"id": "q1", "text": "What is 1+1?", "gold_answer": "2"}),
    ], ids=["read_jsonl", "load_questions"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_line_reads_as_json_loads_reads_it(self, tmp_path_factory, read, cls, row,
                                                 data):
        line = data.draw(line_of(json.dumps(row)))
        path = tmp_path_factory.getbasetemp() / "line.jsonl"
        path.write_text(line, encoding="utf-8", newline="")
        got = outcome(read, path)
        if not line.strip():  # no line, or a blank one
            assert got == ("value", [], None)
            return
        # text mode reads "\r\n" as "\n"
        want = outcome(lambda: from_dict(cls, json.loads(line.replace("\r\n", "\n"))))
        if want[0] == "value":
            assert got[:2] == ("value", [want[1]])
        else:
            assert got == (ValueError, f"{path}: line 1: {want[0].__name__}: {want[1]}")


def line_of(row: str):
    """One line of a JSONL file: the row, a JSON value or any text, each
    between whitespace that json.loads skips, whitespace it does not, and
    extra data; no "\\n" or "\\r" before its end, so the file holds one line."""
    return st.tuples(
        st.sampled_from(["", " ", "\t", "\u2003", "\ufeff", "\x1c"]),
        st.just(row) | JSON_VALUES.map(json.dumps)
        | st.text(max_size=8).filter(lambda s: "\n" not in s and "\r" not in s),
        st.sampled_from(["", "\n", " \n", "\r\n", "\t", "\u2003\n", "\x85", "x\n",
                         ",{}\n", "]\n"]),
    ).map("".join)
