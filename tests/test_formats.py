"""Exact bytes of every record file the pipeline stages hand to each other.

Each golden line is what the writer must produce for a fixed record; each
round trip is what the reader must give back. A change to a serializer that
moves one byte of a completion, chain, preference sample, experiment row or
aggregate file fails here. Every reader names an entry that is not a JSON
object in one form.
"""

import json

import pytest

import pipeline_fixtures as pf
from batchcot.cli import main
from batchcot.harness import EvalAggregate, read_aggregates, write_aggregates
from batchcot.parsing import (
    ChainOrigin,
    CompletionRecord,
    ReasoningChain,
    SamplingParams,
    read_chains,
    read_completions,
    write_chains,
    write_completions,
)
from batchcot.preference import PreferenceSample, write_samples
from batchcot.prompts import BATCH, VANILLA, PromptEnvelope, load_questions
from batchcot.records import read_jsonl, write_jsonl

COMPLETION = CompletionRecord(
    PromptEnvelope("Q1?\nQ2?", BATCH, 2, ("q1", "q2")),
    "1. caf\u00e9 \\boxed{2}\n2. \\boxed{\\frac{1}{2}}",
    5, None, SamplingParams(0.6, 1024, 7), "mock",
)
COMPLETION_LINE = (
    r'{"counted_tokens": 5, "endpoint": "mock", "envelope": {"batch_size": 2, '
    r'"mode": "batch", "question_ids": ["q1", "q2"], "text": "Q1?\nQ2?"}, '
    r'"raw_text": "1. caf\u00e9 \\boxed{2}\n2. \\boxed{\\frac{1}{2}}", '
    r'"reported_tokens": null, "sampling": {"max_tokens": 1024, "seed": 7, '
    r'"temperature": 0.6}}'
)

CHAIN = ReasoningChain("q1", "1. caf\u00e9 \\boxed{2}\n", ChainOrigin(BATCH, 2, 1), "2")
CHAIN_LINE = (
    r'{"origin": {"kind": "batch", "position": 1, "size": 2}, '
    r'"predicted_answer": "2", "question_id": "q1", '
    r'"text": "1. caf\u00e9 \\boxed{2}\n", "token_count": 3, '
    r'"token_scheme": "whitespace"}'
)
GRADED_CHAIN = ReasoningChain("q2", "the answer", ChainOrigin(VANILLA), None, "unparseable")
GRADED_CHAIN_LINE = (
    r'{"origin": {"kind": "vanilla", "position": 1, "size": 1}, '
    r'"predicted_answer": null, "question_id": "q2", "text": "the answer", '
    r'"token_count": 2, "token_scheme": "whitespace", "verdict": "unparseable"}'
)

SAMPLE = PreferenceSample(
    "What is 1+1?", "2 \\boxed{2}", "B",
    {"origin_kind": "batch", "batch_size": 2, "position": 1, "question_id": "q1"},
)
SAMPLE_LINE = (
    r'{"cot": "2 \\boxed{2}", "gold_label": "B", "options": ['
    r'"The reasoning process is correct, but I think there is a simpler and '
    r'quicker way to approach it.", "The reasoning process is correct, and I '
    r'believe the thinking is thorough and concise.", "The reasoning process '
    r'is wrong."], "provenance": {"batch_size": 2, "origin_kind": "batch", '
    r'"position": 1, "question_id": "q1"}, "question": "What is 1+1?"}'
)

AGGREGATE = EvalAggregate("AIME 2024", 0.25, 1234.5, 30, 148, 2)
AGGREGATE_FILE = """[
  {
    "accuracy": 0.25,
    "benchmark": "AIME 2024",
    "exclusions": 2,
    "mean_tokens": 1234.5,
    "n_questions": 30,
    "n_samples": 148
  }
]
"""

# batch-experiment rows over the first 5 questions of the scripted corpus:
# vanilla, then Batch-2 with a leftover group of one.
EXPERIMENT_K1_LINE = (
    '{"accuracy": 0.8, "batch_size": 1, "mean_tokens_per_question": 124.0, '
    '"mean_tokens_split": 124.0, "n_failures": 0, "n_graded": 5, "n_groups": 5, '
    '"n_questions": 5, "n_unsplittable": 0}'
)
EXPERIMENT_K2_LINE = (
    '{"accuracy": 0.75, "batch_size": 2, "mean_tokens_per_question": 59.0, '
    '"mean_tokens_split": 55.0, "n_failures": 0, "n_graded": 4, "n_groups": 2, '
    '"n_questions": 5, "n_unsplittable": 0}'
)


def lines(path):
    return path.read_text(encoding="utf-8").split("\n")


class TestGoldenLines:
    def test_completion(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        write_completions(path, [COMPLETION])
        assert lines(path) == [COMPLETION_LINE, ""]

    def test_chain_without_verdict(self, tmp_path):
        path = tmp_path / "chains.jsonl"
        write_chains(path, [CHAIN])
        assert lines(path) == [CHAIN_LINE, ""]

    def test_chain_with_verdict(self, tmp_path):
        path = tmp_path / "chains.jsonl"
        write_chains(path, [CHAIN, GRADED_CHAIN])
        assert lines(path) == [CHAIN_LINE, GRADED_CHAIN_LINE, ""]

    def test_preference_sample(self, tmp_path):
        path = tmp_path / "prefs.jsonl"
        write_samples(path, [SAMPLE])
        assert lines(path) == [SAMPLE_LINE, ""]

    def test_aggregate_file(self, tmp_path):
        path = tmp_path / "aggregate.json"
        write_aggregates(path, [AGGREGATE])
        assert path.read_text(encoding="utf-8") == AGGREGATE_FILE

    def test_experiment_rows(self, tmp_path):
        questions = pf.make_corpus(5)
        corpus = tmp_path / "questions.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": q.id, "text": q.text, "gold_answer": q.gold_answer}) + "\n"
            for q in questions))
        mock = tmp_path / "mock"
        pf.write_script_dir(pf.build_script(questions, (1, 2), seed=0, group="sequential"),
                            mock)
        out = tmp_path / "exp"
        assert main(["batch-experiment", "--questions", str(corpus),
                     "--out-dir", str(out), "--batch-size", "1", "--batch-size", "2",
                     "--group", "sequential", "--mock", str(mock)]) == 0
        assert lines(out / "experiment.jsonl") == [
            EXPERIMENT_K1_LINE, EXPERIMENT_K2_LINE, ""]


class TestWriteJsonl:
    def test_bytes_are_json_dumps_with_sorted_keys(self, tmp_path):
        rows = [
            {"text": "caf\u00e9 \u6570\u5b66 \U0001d70b \\boxed{\u00bd}", "id": "q\u00e9"},
            {"z": {"b": {"d": 1, "c": [1, 2.5]}, "a": None}, "a": (1, "two", None)},
            {"none": None, "flag": True, "float": 1e-300, "neg": -0.0, "big": 10 ** 30},
            {},
            {"list": [{"y": 2, "x": 1}, ("t", ("u",))], "line": "a\nb\t\"c\"\u2028"},
        ]
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, rows)
        assert path.read_bytes() == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")


class TestRoundTrip:
    def test_completion(self, tmp_path):
        path = tmp_path / "completions.jsonl"
        write_completions(path, [COMPLETION])
        assert read_completions(path) == [COMPLETION]

    def test_chains(self, tmp_path):
        path = tmp_path / "chains.jsonl"
        write_chains(path, [CHAIN, GRADED_CHAIN])
        assert read_chains(path) == [CHAIN, GRADED_CHAIN]

    def test_preference_sample(self, tmp_path):
        path = tmp_path / "prefs.jsonl"
        write_samples(path, [SAMPLE])
        assert read_jsonl(path, PreferenceSample) == [SAMPLE]

    def test_aggregate(self, tmp_path):
        path = tmp_path / "aggregate.json"
        write_aggregates(path, [AGGREGATE])
        assert read_aggregates(path) == [AGGREGATE]

    def test_aggregate_without_exclusions_loads(self, tmp_path):
        path = tmp_path / "aggregate.json"
        row = json.loads(AGGREGATE_FILE)[0]
        del row["exclusions"]
        path.write_text(json.dumps([row]))
        assert read_aggregates(path)[0].exclusions == 0


# an entry that is JSON but no object: every reader names it the same way
NOT_OBJECTS = {"5": "int", '"s"': "str", "[1]": "list"}


class TestEntryThatIsNotAnObject:
    @pytest.mark.parametrize("entry", NOT_OBJECTS)
    @pytest.mark.parametrize("reader", [read_completions, read_chains, load_questions])
    def test_jsonl_line(self, tmp_path, reader, entry):
        path = tmp_path / "rows.jsonl"
        path.write_text("\n" + entry + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == (f"{path}: line 2: TypeError: "
                                   f"{NOT_OBJECTS[entry]} is not a JSON object")

    @pytest.mark.parametrize("entry", NOT_OBJECTS)
    def test_aggregate_entry(self, tmp_path, capsys, entry):
        path = tmp_path / "aggregate.json"
        path.write_text(f"[{AGGREGATE_FILE.strip()[1:-1]}, {entry}]", encoding="utf-8")
        assert main(["report", "--aggregates", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path}: entry 2: TypeError: "
                                           f"{NOT_OBJECTS[entry]} is not a JSON object\n")

    @pytest.mark.parametrize("document, kind", [("5", "int"), ('{"a": 1}', "dict")])
    def test_aggregate_file_that_is_no_list(self, tmp_path, capsys, document, kind):
        path = tmp_path / "aggregate.json"
        path.write_text(document, encoding="utf-8")
        assert main(["report", "--aggregates", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path}: TypeError: "
                                           f"{kind} is not a JSON list\n")


def test_chain_built_without_a_count_is_counted():
    assert (CHAIN.token_count, GRADED_CHAIN.token_count) == (3, 2)
