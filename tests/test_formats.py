"""Exact bytes of every record file the pipeline stages hand to each other.

Each golden line is what the writer must produce for a fixed record; each
round trip is what the reader must give back. A change to a serializer that
moves one byte of a completion, chain, preference sample, experiment row or
aggregate file fails here.
"""

import json

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
from batchcot.prompts import BATCH, VANILLA, PromptEnvelope
from batchcot.records import read_jsonl

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
    '{"accuracy": 0.8, "batch_size": 2, "mean_tokens_per_question": 72.0, '
    '"mean_tokens_split": 68.8, "n_failures": 0, "n_graded": 5, "n_groups": 3, '
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
