import csv
import json
import threading

import pytest

from batchcot.client import EndpointConfig, MockBackend, RawCompletion, TransportError
from batchcot.harness import (
    BENCHMARKS,
    BenchmarkSpec,
    EvalAggregate,
    aggregates_to_csv,
    evaluate,
    overall_mean,
    overall_weighted,
    read_aggregates,
    registry_spec,
    render_report,
    token_delta_percent,
    write_aggregates,
)
from batchcot.prompts import Question, build_single_prompt
from batchcot.records import from_dict, to_dict
from batchcot.verify import CHOICE_LETTER


def write_corpus(path, questions):
    with open(path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps({"id": q.id, "text": q.text,
                                 "gold_answer": q.gold_answer}) + "\n")


cfg = EndpointConfig


class TestRegistry:
    def test_known_entries(self):
        assert set(BENCHMARKS) == {
            "gsm8k", "math500", "aime2024", "aime2025", "amc2023", "gpqa_diamond"
        }
        assert BENCHMARKS["aime2024"].samples_per_question == 5
        assert BENCHMARKS["aime2025"].samples_per_question == 5
        assert BENCHMARKS["gpqa_diamond"].answer_kind == CHOICE_LETTER

    def test_registry_spec_override(self):
        spec = registry_spec("gsm8k", "corpus.jsonl", samples_per_question=3)
        assert spec.name == "GSM8K"
        assert spec.corpus_path == "corpus.jsonl"
        assert spec.samples_per_question == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            registry_spec("nope", "corpus.jsonl")

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(name="x", samples_per_question=0)
        with pytest.raises(ValueError):
            BenchmarkSpec(name="x", answer_kind="freeform")


class _PerPromptBackend:
    """Returns a scripted sequence of responses per distinct prompt."""

    name = "sequenced"

    def __init__(self, sequences):
        self.sequences = dict(sequences)
        self.counts = {}
        self.lock = threading.Lock()

    def send(self, prompt_text, cfg):
        with self.lock:
            i = self.counts.get(prompt_text, 0)
            self.counts[prompt_text] = i + 1
        text, tokens = self.sequences[prompt_text][i]
        return RawCompletion(text, tokens, [{"attempt": 1, "status": 200}])


class TestEvaluate:
    def make_questions(self, n):
        return [Question(id=f"q{i}", text=f"compute {i}", gold_answer=str(i))
                for i in range(n)]

    def test_all_correct_fixed_tokens(self, tmp_path):
        questions = self.make_questions(5)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, questions)
        script = MockBackend()
        for q in questions:
            env = build_single_prompt(q)
            script.add(env.text, f"so \\boxed{{{q.gold_answer}}}", tokens=100)
        spec = BenchmarkSpec(name="Toy", corpus_path=str(corpus))
        records, agg = evaluate(spec, cfg(), script)
        assert agg.accuracy == 1.0
        assert agg.mean_tokens == 100.0
        assert agg.n_questions == 5
        assert agg.n_samples == 5
        assert agg.exclusions == 0
        assert len(records) == 5

    def test_repeat_sampling_partial_accuracy(self, tmp_path):
        # 2 questions x 5 samples; 7 of the 10 samples are correct
        questions = self.make_questions(2)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, questions)
        sequences = {}
        plans = {"q0": [True, True, True, True, False],
                 "q1": [True, False, True, False, True]}
        for q in questions:
            env = build_single_prompt(q)
            answers = [q.gold_answer if ok else str(int(q.gold_answer) + 1)
                       for ok in plans[q.id]]
            sequences[env.text] = [(f"\\boxed{{{a}}}", 50) for a in answers]
        spec = BenchmarkSpec(name="Toy", corpus_path=str(corpus),
                             samples_per_question=5)
        _, agg = evaluate(spec, cfg(max_concurrent=1), _PerPromptBackend(sequences))
        assert agg.accuracy == pytest.approx(0.7)
        assert agg.n_samples == 10

    def test_empty_corpus_no_requests(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")

        class ExplodingBackend:
            name = "exploding"

            def send(self, prompt_text, c):
                raise AssertionError("no request should be issued")

        spec = BenchmarkSpec(name="Toy", corpus_path=str(corpus))
        with pytest.raises(ValueError, match="empty"):
            evaluate(spec, cfg(), ExplodingBackend())

    def test_transport_failures_become_exclusions(self, tmp_path):
        questions = self.make_questions(4)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, questions)

        class HalfFailingBackend:
            name = "half"

            def send(self, prompt_text, c):
                if "compute 0" in prompt_text or "compute 2" in prompt_text:
                    raise TransportError("down", [])
                return RawCompletion("\\boxed{1}", 10, [])

        spec = BenchmarkSpec(name="Toy", corpus_path=str(corpus))
        records, agg = evaluate(spec, cfg(), HalfFailingBackend())
        assert agg.exclusions == 2
        assert agg.n_samples == 2
        assert len(records) == 2

    def test_aggregation_linearity_over_partition(self, tmp_path):
        # evaluating two halves separately and pooling by sample weight must
        # match evaluating the whole corpus at once
        questions = self.make_questions(8)
        backend = MockBackend()
        for i, q in enumerate(questions):
            env = build_single_prompt(q)
            answer = q.gold_answer if i % 3 else str(int(q.gold_answer) + 7)
            backend.add(env.text, f"\\boxed{{{answer}}}", tokens=10 * (i + 1))

        def run(qs, name):
            corpus = tmp_path / f"{name}.jsonl"
            write_corpus(corpus, qs)
            return evaluate(BenchmarkSpec(name=name, corpus_path=str(corpus)),
                            cfg(), backend)[1]

        whole = run(questions, "whole")
        halves = [run(questions[:4], "lo"), run(questions[4:], "hi")]
        acc_w, tok_w = overall_weighted(halves)
        assert acc_w == pytest.approx(whole.accuracy)
        assert tok_w == pytest.approx(whole.mean_tokens)

    @pytest.mark.parametrize("answer", ["\\boxed{B}", "maybe 42"])
    def test_bad_letter_gold_fails_at_load(self, tmp_path, answer):
        # a bad gold is named by its line before any request is sent, whether
        # or not the answers parse as letters
        corpus = tmp_path / "gpqa.jsonl"
        write_corpus(corpus, [Question(id=f"g{i}", text=f"pick {i}",
                                       gold_answer="not-a-letter" if i == 1 else "A")
                              for i in range(6)])

        class CountingBackend:
            name = "counting"
            requests = 0

            def send(self, prompt_text, c):
                CountingBackend.requests += 1
                return RawCompletion(answer, 5, [])

        spec = registry_spec("gpqa_diamond", str(corpus))
        with pytest.raises(ValueError) as info:
            evaluate(spec, cfg(), CountingBackend())
        assert str(info.value) == (f"{corpus}: line 2: gold answer 'not-a-letter' "
                                   "is not a choice letter")
        assert CountingBackend.requests == 0

    def test_choice_letter_eval(self, tmp_path):
        questions = [Question(id="g1", text="pick one", gold_answer="C")]
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, questions)
        script = MockBackend()
        script.add(build_single_prompt(questions[0]).text,
                   "I choose \\boxed{C}", tokens=7)
        spec = BenchmarkSpec(name="Choices", corpus_path=str(corpus),
                             answer_kind=CHOICE_LETTER)
        _, agg = evaluate(spec, cfg(), script)
        assert agg.accuracy == 1.0


def agg(name, accuracy, tokens, n_questions=10, n_samples=10, exclusions=0):
    return EvalAggregate(benchmark=name, accuracy=accuracy, mean_tokens=tokens,
                         n_questions=n_questions, n_samples=n_samples,
                         exclusions=exclusions)


class TestOverallAndReport:
    def test_overall_mean(self):
        rows = [agg("X", 0.5, 100.0), agg("Y", 0.7, 300.0)]
        assert overall_mean(rows) == (pytest.approx(0.6), pytest.approx(200.0))

    def test_overall_weighted(self):
        rows = [agg("X", 0.5, 100.0, n_samples=10),
                agg("Y", 1.0, 400.0, n_samples=30)]
        acc, tok = overall_weighted(rows)
        assert acc == pytest.approx(0.875)
        assert tok == pytest.approx(325.0)

    def test_overall_skips_benchmark_without_samples(self):
        rows = [agg("X", 0.5, 100.0, n_samples=10), agg("Y", 1.0, 400.0, n_samples=30)]
        empty = EvalAggregate("Z", None, None, n_questions=4, n_samples=0, exclusions=4)
        assert overall_mean(rows + [empty]) == overall_mean(rows)
        assert overall_weighted(rows + [empty]) == overall_weighted(rows)
        assert overall_mean([empty]) == overall_weighted([empty]) == (None, None)
        assert "Overall skips" not in render_report(rows)
        lines = render_report(rows + [empty]).splitlines()
        assert lines[3].split() == ["Z", "-", "-"]
        assert lines[-1] == "Overall skips (no samples): Z"

    def test_report_baseline_without_samples_is_no_data(self):
        rows = [agg("X", 0.5, 100.0)]
        empty = [EvalAggregate("X", None, None, n_questions=4, n_samples=0)]
        for method, baseline in ((rows, empty), (empty, rows), (empty, empty)):
            last = render_report(method, baseline=baseline).splitlines()[-1]
            assert last == "Delta vs baseline (overall mean): no data"

    def test_token_delta_percent(self):
        assert token_delta_percent(100.0, 80.0) == pytest.approx(-20.0)
        assert token_delta_percent(9661.68, 6362.89) == pytest.approx(-34.14, abs=0.01)

    def test_token_delta_percent_zero_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            token_delta_percent(0, 80.0)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="no benchmark aggregates"):
            render_report([])

    def test_report_row_formatting(self):
        report = render_report([agg("GSM8K", 0.8467, 1928.96)])
        assert "GSM8K                84.67%      1928.96" in report
        assert "Overall (mean)" in report
        assert "Overall (weighted)" in report

    def test_report_baseline_delta(self):
        baseline = [agg("X", 0.50, 200.0)]
        method = [agg("X", 0.55, 150.0)]
        report = render_report(method, baseline=baseline)
        assert "Acc +5.00 pts, Tokens -25.00%" in report

    def test_report_identity_baseline(self):
        rows = [agg("X", 0.5, 100.0)]
        report = render_report(rows, baseline=rows)
        last = report.splitlines()[-1]
        assert "0.00 pts" in last
        assert "0.00%" in last

    def test_report_deterministic_bytes(self):
        rows = [agg("X", 0.5, 100.0), agg("Y", 0.25, 50.0)]
        assert render_report(rows) == render_report(rows)

    def test_csv(self):
        text = aggregates_to_csv([agg("X", 0.5, 100.0),
                                  EvalAggregate("Y", None, None, 4, 0, 4),
                                  agg('A, "B"', 0.25, 8.0)])
        lines = text.splitlines()
        assert lines[0].startswith("benchmark,accuracy")
        assert lines[1].startswith("X,0.5,100.0,")
        assert lines[2] == "Y,,,4,0,4"
        # a name with a comma or a quote is one quoted cell
        assert lines[3] == '"A, ""B""",0.25,8.0,10,10,0'
        assert [len(row) for row in csv.reader(lines)] == [6] * 4


class TestAggregateIo:
    def test_dict_roundtrip(self):
        a = agg("X", 0.321, 123.45, n_questions=7, n_samples=35, exclusions=2)
        assert from_dict(EvalAggregate, to_dict(a)) == a

    def test_file_roundtrip(self, tmp_path):
        rows = [agg("X", 0.5, 100.0), agg("Y", 0.9, 42.0),
                EvalAggregate("Z", None, None, n_questions=4, n_samples=0, exclusions=4)]
        path = tmp_path / "aggregates.json"
        write_aggregates(path, rows)
        assert json.loads(path.read_text())[2]["accuracy"] is None
        assert read_aggregates(path) == rows

    def test_zero_mean_without_samples_fails_at_load(self, tmp_path):
        # an aggregate.json written before a mean over nothing became null
        path = tmp_path / "aggregates.json"
        path.write_text(json.dumps([
            to_dict(agg("X", 0.5, 100.0)),
            {"benchmark": "Y", "accuracy": 0.0, "mean_tokens": 0.0,
             "n_questions": 4, "n_samples": 0, "exclusions": 4}]))
        with pytest.raises(ValueError, match="entry 2: .*None exactly when n_samples is 0"):
            read_aggregates(path)

    def test_invalid_aggregate(self):
        with pytest.raises(ValueError):
            agg("X", 1.5, 10.0)
        with pytest.raises(ValueError):
            agg("X", 0.5, -1.0)
        for accuracy, tokens, n_samples in ((0.0, 0.0, 0), (None, 1.0, 0), (0.5, None, 3),
                                            (None, None, 3)):
            with pytest.raises(ValueError, match="None exactly when n_samples is 0"):
                agg("X", accuracy, tokens, n_samples=n_samples)
