import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchcot import verify
from batchcot.verify import CHOICE_LETTER, NUMERIC
from batchcot.prompts import (
    BATCH,
    VANILLA,
    Question,
    build_batch_prompt,
    build_single_prompt,
    load_questions,
    shuffle_and_group,
)


def q(i, text=None, gold="1"):
    return Question(id=f"q{i}", text=text or f"question {i}", gold_answer=gold)


class TestQuestion:
    def test_number_is_kept_as_its_str(self):
        question = Question(id=2, text="t", gold_answer=1.5)
        assert (question.id, question.gold_answer) == ("2", "1.5")


class TestSinglePrompt:
    def test_ends_with_boxed_instruction(self):
        env = build_single_prompt(q(0, "What is 2+3?"))
        assert env.text.endswith("within \\boxed{}.")
        assert env.mode == VANILLA

    def test_text_is_question_plus_instruction(self):
        env = build_single_prompt(q(0, "What is 2+3?"))
        assert env.text == (
            "What is 2+3?\n\n"
            "Please reason step by step, and put your final answer within \\boxed{}."
        )

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            build_single_prompt(Question(id="x", text="", gold_answer="1"))

    def test_question_ids_identity(self):
        env = build_single_prompt(q(7))
        assert env.question_ids == ("q7",)


class TestBatchPrompt:
    def test_literals_present(self):
        env = build_batch_prompt([q(0), q(1)])
        assert "Please answer the following math problems in order" in env.text
        assert "[Solution Process]" in env.text
        assert "[Final Answer]" in env.text

    def test_boxed_slots_match_count(self):
        env = build_batch_prompt([q(0), q(1), q(2)])
        assert env.text.count("\\boxed{Answer") == 3
        for i in (1, 2, 3):
            assert f"{i}. \\boxed{{Answer{i}}}" in env.text

    def test_order_preserved(self):
        qa, qb = q(0, "alpha body"), q(1, "beta body")
        env = build_batch_prompt([qa, qb])
        assert env.text.index("1. alpha body") < env.text.index("2. beta body")

    def test_single_question_rejected(self):
        with pytest.raises(ValueError):
            build_batch_prompt([q(0)])

    def test_empty_question_rejected(self):
        # the Question refuses empty text itself, so no batch is built around it
        with pytest.raises(ValueError, match="empty question text"):
            build_batch_prompt([q(0), Question(id="x", text="", gold_answer="1")])

    def test_mode_and_ids(self):
        env = build_batch_prompt([q(0), q(1)])
        assert env.mode == BATCH
        assert env.batch_size == 2
        assert env.question_ids == ("q0", "q1")

    def test_deterministic(self):
        qs = [q(i) for i in range(5)]
        assert build_batch_prompt(qs).text == build_batch_prompt(qs).text

    @given(st.integers(min_value=2, max_value=12))
    def test_numbered_positions_monotone(self, n):
        qs = [q(i, f"body of item {i} xyzzy{i}") for i in range(n)]
        env = build_batch_prompt(qs)
        positions = [env.text.index(f"{i + 1}. body of item {i}") for i in range(n)]
        assert positions == sorted(positions)


class TestLoadQuestions:
    def write(self, path, rows):
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self.write(path, [
            {"id": "a", "text": "t1", "gold_answer": "42", "source": "s"},
            {"id": "b", "text": "t2", "gold_answer": "1/2"},
        ])
        qs = load_questions(path)
        assert [x.id for x in qs] == ["a", "b"]
        assert qs[0].source == "s"

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self.write(path, [
            {"id": "a", "text": "t", "gold_answer": "1"},
            {"id": "a", "text": "t", "gold_answer": "2"},
        ])
        with pytest.raises(ValueError, match="duplicate"):
            load_questions(path)

    def test_non_numeric_gold_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": "a", "text": "t", "gold_answer": "half"}])
        with pytest.raises(ValueError, match="not numeric"):
            load_questions(path)

    def test_non_letter_gold_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": "a", "text": "t", "gold_answer": "B"},
                          {"id": "b", "text": "t", "gold_answer": "42"}])
        with pytest.raises(ValueError) as info:
            load_questions(path, answer_kind=CHOICE_LETTER)
        assert str(info.value) == f"{path}: line 2: gold answer '42' is not a choice letter"

    def test_non_numeric_allowed_when_disabled(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": "a", "text": "t", "gold_answer": "B"}])
        assert len(load_questions(path, answer_kind=CHOICE_LETTER)) == 1

    def test_bad_json_line_diagnostic(self, tmp_path):
        path = tmp_path / "q.jsonl"
        # the string holds every required key, so only its type is wrong
        for line, message in (("not json", "JSONDecodeError: Expecting value"),
                              ("5", "TypeError: int is not a JSON object"),
                              ('"id text gold_answer"', "TypeError: str is not a JSON object")):
            path.write_text('{"id": "a", "text": "t", "gold_answer": "1"}\n' + line + "\n")
            with pytest.raises(ValueError, match=f"line 2: {message}"):
                load_questions(path)

    @pytest.mark.parametrize("text, kind", [(["x", "y"], "list"), (7, "int"),
                                            ({"t": "x"}, "dict"), (True, "bool")])
    def test_text_that_is_not_a_string_rejected(self, tmp_path, text, kind):
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": "a", "text": "t", "gold_answer": "1"},
                          {"id": 2, "text": text, "gold_answer": 3}])
        with pytest.raises(ValueError) as info:
            load_questions(path)
        assert str(info.value) == f"{path}: line 2: TypeError: text is {kind}, not str"

    @pytest.mark.parametrize("source, kind", [(["x", 1], "list"), (7, "int"),
                                              ({"s": "x"}, "dict"), (None, "NoneType")])
    def test_source_that_is_not_a_string_rejected(self, tmp_path, source, kind):
        # a list would load as a Question that cannot be hashed
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": "a", "text": "t", "gold_answer": "1", "source": "s"},
                          {"id": "b", "text": "t", "gold_answer": "1", "source": source}])
        with pytest.raises(ValueError) as info:
            load_questions(path)
        assert str(info.value) == f"{path}: line 2: TypeError: source is {kind}, not str"

    def test_id_and_gold_answer_are_coerced_to_str(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": 2, "text": "t", "gold_answer": 3}])
        question, = load_questions(path)
        assert (question.id, question.gold_answer) == ("2", "3")

    @pytest.mark.parametrize("field, value, kind", [
        ("id", None, "NoneType"), ("id", True, "bool"),
        ("gold_answer", None, "NoneType"), ("gold_answer", [1], "list")])
    def test_id_and_gold_answer_that_are_no_string_or_number_rejected(
            self, tmp_path, field, value, kind):
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": "a", "text": "t", "gold_answer": "1", field: value}])
        with pytest.raises(ValueError) as info:
            load_questions(path)
        assert str(info.value) == (f"{path}: line 1: TypeError: "
                                   f"{field} is {kind}, not str or int or float")

    def test_empty_text_names_its_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": "a", "text": "t", "gold_answer": "1"},
                          {"id": "b", "text": "", "gold_answer": "1"}])
        with pytest.raises(ValueError) as info:
            load_questions(path)
        assert str(info.value) == f"{path}: line 2: ValueError: empty question text"

    @pytest.mark.parametrize("numeric", [True, False])
    def test_gold_normalized_once_per_question_per_load(self, tmp_path, monkeypatch,
                                                        numeric):
        calls = []
        real = verify.normalize_numeric
        monkeypatch.setattr(verify, "normalize_numeric",
                            lambda s: calls.append(s) or real(s))
        golds = (["1/2", "0.50", "\\frac{3}{4}", "1,000", "7"] if numeric
                 else ["A", "b", "(C)", "\\boxed{D}"])
        path = tmp_path / "q.jsonl"
        self.write(path, [{"id": f"q{i}", "text": "t", "gold_answer": g}
                          for i, g in enumerate(golds)])
        for n in (1, 2):
            questions = load_questions(path, answer_kind=NUMERIC if numeric
                                       else CHOICE_LETTER)
            if not numeric:
                # a letter corpus has no numbers to normalize
                assert calls == []
                continue
            # what the gold_number property computes for a Question built directly
            assert [q.gold_number for q in questions] == list(map(real, golds))
            assert calls == golds * n


class TestGrouping:
    def test_sequential_chunks(self):
        qs = [q(i) for i in range(7)]
        groups = shuffle_and_group(qs, 3, group="sequential")
        assert [len(g) for g in groups] == [3, 3]
        assert groups[0][0].id == "q0"

    def test_random_is_seed_deterministic(self):
        qs = [q(i) for i in range(10)]
        a = shuffle_and_group(qs, 2, seed=5)
        b = shuffle_and_group(qs, 2, seed=5)
        assert [[x.id for x in g] for g in a] == [[x.id for x in g] for g in b]

    def test_random_covers_corpus(self):
        # all but the n % k questions left over, each once
        qs = [q(i) for i in range(11)]
        groups = shuffle_and_group(qs, 4, seed=1)
        assert [len(g) for g in groups] == [4, 4]
        ids = [x.id for g in groups for x in g]
        assert len(set(ids)) == 8 and set(ids) <= {x.id for x in qs}

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            shuffle_and_group([q(0)], 0)
