import itertools
import json
from dataclasses import fields

import pytest

from batchcot import verify
from batchcot.parsing import ChainOrigin, ReasoningChain
from batchcot.preference import (
    LABELS,
    OPTION_A,
    OPTION_B,
    OPTION_C,
    OPTIONS,
    PAIRED,
    PreferenceSample,
    Provenance,
    build_dataset,
    label_sample,
    write_samples,
)
from batchcot.prompts import BATCH, VANILLA, Question
from batchcot.records import from_dict, read_jsonl, to_dict


def render_judge_prompt(sample: PreferenceSample) -> str:
    """Canonical single-prompt rendering of a sample for a judge model."""
    return (
        f"{sample.question}\n\n"
        f"{sample.cot}\n\n"
        "Evaluate the reasoning above and choose exactly one option:\n"
        f"A. {OPTION_A}\n"
        f"B. {OPTION_B}\n"
        f"C. {OPTION_C}\n\n"
        "Answer with a single letter: A, B, or C."
    )


PROVENANCE = Provenance(VANILLA, 1, 1, "q0")


def chain(qid, kind, predicted, position=1, size=2, verdict=None):
    return ReasoningChain(
        question_id=qid, text=f"reasoning for {qid} ({kind})",
        origin=ChainOrigin(kind=kind, size=1 if kind == VANILLA else size,
                           position=position),
        predicted_answer=predicted, verdict=verdict,
    )


class TestLabelTruthTable:
    def test_vanilla_correct_is_a(self):
        assert label_sample(VANILLA, verify.CORRECT) == "A"

    def test_batch_correct_is_b(self):
        assert label_sample(BATCH, verify.CORRECT) == "B"

    def test_non_correct_is_c(self):
        for kind in (VANILLA, BATCH):
            for verdict in (verify.INCORRECT, verify.UNPARSEABLE):
                assert label_sample(kind, verdict) == "C"

    def test_total_over_domain(self):
        verdicts = (verify.CORRECT, verify.INCORRECT, verify.UNPARSEABLE)
        table = {
            (kind, verdict): label_sample(kind, verdict)
            for kind, verdict in itertools.product((VANILLA, BATCH), verdicts)
        }
        assert len(table) == 6
        assert set(table.values()) == {"A", "B", "C"}
        assert table[(VANILLA, verify.CORRECT)] == "A"
        assert table[(BATCH, verify.CORRECT)] == "B"


class TestOptions:
    def test_exact_sentences(self):
        assert OPTION_A == ("The reasoning process is correct, but I think "
                            "there is a simpler and quicker way to approach it.")
        assert OPTION_B == ("The reasoning process is correct, and I believe "
                            "the thinking is thorough and concise.")
        assert OPTION_C == "The reasoning process is wrong."

    def test_options_are_no_init_field(self):
        assert "options" not in {f.name for f in fields(PreferenceSample)}
        with pytest.raises(TypeError):
            PreferenceSample(question="q", cot="c", gold_label="A", provenance=PROVENANCE,
                             options=(OPTION_A, OPTION_B, "Wrong."))

    def test_serialized_options_immutable(self, tmp_path):
        samples = [PreferenceSample(question=f"q{i}", cot=f"c{i}", gold_label=label,
                                    provenance=PROVENANCE)
                   for i, label in enumerate(LABELS)]
        path = tmp_path / "prefs.jsonl"
        write_samples(path, samples)
        assert [json.loads(row)["options"] for row in path.read_text().splitlines()] == \
            [list(OPTIONS)] * len(samples)


class TestBuildDataset:
    questions = [Question(id=f"q{i}", text=f"question {i}", gold_answer=str(i))
                 for i in range(10)]

    def test_one_sample_per_chain(self):
        qs = self.questions[:1]
        samples, manifest = build_dataset(
            [chain("q0", VANILLA, "0"), chain("q0", BATCH, "0")], qs
        )
        assert sorted(s.gold_label for s in samples) == ["A", "B"]
        assert manifest["label_counts"] == {"A": 1, "B": 1, "C": 0}

    def test_empty(self):
        samples, manifest = build_dataset([], self.questions)
        assert samples == []
        assert manifest["label_counts"] == {"A": 0, "B": 0, "C": 0}

    def test_all_batch_wrong(self):
        # labeling truth table enumerated over fixture verdicts:
        # vanilla chains may be A or C; wrong batch chains are all C
        vanilla = [chain(f"q{i}", VANILLA, str(i) if i % 2 else str(i + 1))
                   for i in range(10)]
        batch = [chain(f"q{i}", BATCH, str(i + 1)) for i in range(10)]
        expected_a = sum(1 for i in range(10) if i % 2)
        samples, manifest = build_dataset(vanilla + batch, self.questions)
        assert len(samples) == 20
        assert manifest["label_counts"]["A"] == expected_a
        assert manifest["label_counts"]["B"] == 0
        assert manifest["label_counts"]["C"] == 20 - expected_a

    def test_unresolved_id_rejected(self):
        with pytest.raises(ValueError, match="ghost"):
            build_dataset([chain("ghost", VANILLA, "1")], self.questions)

    def test_deterministic_given_seed(self):
        vanilla = [chain(f"q{i}", VANILLA, str(i)) for i in range(10)]
        a, _ = build_dataset(vanilla, self.questions, seed=3)
        b, _ = build_dataset(vanilla, self.questions, seed=3)
        assert a == b
        c, _ = build_dataset(vanilla, self.questions, seed=4)
        assert [s.provenance for s in a] != [s.provenance for s in c]

    def test_precomputed_verdict_respected(self):
        # a chain already graded keeps its verdict even if gold would differ
        pre = chain("q1", VANILLA, "999", verdict=verify.CORRECT)
        samples, _ = build_dataset([pre], self.questions)
        assert samples[0].gold_label == "A"

    def test_grades_only_chains_without_a_verdict(self, monkeypatch):
        graded = []
        real = verify.grade
        monkeypatch.setattr(verify, "grade",
                            lambda c, q, kind: graded.append(c.question_id) or real(c, q, kind))
        pre = chain("q1", VANILLA, "999", verdict=verify.INCORRECT)
        fresh = chain("q2", BATCH, "2")
        samples, _ = build_dataset([pre, fresh], self.questions)
        assert graded == ["q2"]
        assert (pre.verdict, fresh.verdict) == (verify.INCORRECT, verify.CORRECT)
        assert sorted(s.gold_label for s in samples) == ["B", "C"]

    def test_unresolved_id_of_a_graded_chain_rejected(self):
        with pytest.raises(ValueError, match="unknown question ids: \\['ghost'\\]"):
            build_dataset([chain("q0", VANILLA, "0"),
                           chain("ghost", VANILLA, "1", verdict=verify.CORRECT)],
                          self.questions)

    def test_paired_mode(self):
        vanilla = [chain(f"q{i}", VANILLA, str(i)) for i in range(4)]
        batch = [chain(f"q{i}", BATCH, str(i)) for i in range(2)] + \
                [chain("q0", BATCH, str(0), position=2)]
        samples, manifest = build_dataset(vanilla + batch, self.questions, mode=PAIRED)
        # only q0 and q1 have both kinds; one chain of each kind
        assert manifest["n_samples"] == 4
        ids = sorted(s.provenance.question_id for s in samples)
        assert ids == ["q0", "q0", "q1", "q1"]

    def test_manifest_fields(self):
        _, manifest = build_dataset([chain("q0", VANILLA, "0")], self.questions, seed=11)
        assert manifest["seed"] == 11
        assert manifest["n_questions"] == 1
        assert manifest["template_version"]


class TestJudgePromptAndIo:
    def test_judge_prompt_contains_everything(self):
        sample = PreferenceSample(question="What is 1+1?",
                                  cot="I think 2.", gold_label="B",
                                  provenance=PROVENANCE)
        prompt = render_judge_prompt(sample)
        assert "What is 1+1?" in prompt
        assert "I think 2." in prompt
        for option in OPTIONS:
            assert option in prompt

    def test_jsonl_roundtrip(self, tmp_path):
        samples = [
            PreferenceSample(question=f"q{i}", cot=f"c{i}",
                             gold_label=LABELS[i % 3],
                             provenance=Provenance(BATCH, 2, 1 + i % 2, f"q{i}"))
            for i in range(5)
        ]
        path = tmp_path / "prefs.jsonl"
        write_samples(path, samples)
        assert read_jsonl(path, PreferenceSample) == samples

    def test_dict_roundtrip(self):
        sample = PreferenceSample(question="q", cot="c",
                                  gold_label="C", provenance=PROVENANCE)
        assert from_dict(PreferenceSample, to_dict(sample)) == sample
