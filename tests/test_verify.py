import inspect
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchcot import verify
from batchcot.parsing import ChainOrigin, ReasoningChain
from batchcot.prompts import VANILLA, Question, load_questions
from batchcot.verify import (
    CORRECT,
    DECIMAL,
    INCORRECT,
    INTEGER,
    RATIONAL,
    UNPARSEABLE,
    CanonicalNumber,
    answers_equal,
    grade,
    normalize_numeric,
    render,
)


def norm(s):
    c = normalize_numeric(s)
    assert c is not None, f"expected {s!r} to parse"
    return c


class TestNormalize:
    def test_frac(self):
        c = norm("\\frac{1}{2}")
        assert c.kind == RATIONAL and c.value == Fraction(1, 2)

    def test_thousands_commas(self):
        c = norm("1,234")
        assert c.kind == INTEGER and c.value == 1234

    def test_non_numeric(self):
        assert normalize_numeric("half") is None

    def test_decimal(self):
        c = norm("0.50")
        assert c.kind == DECIMAL and c.value == Fraction(1, 2) and c.scale == 2

    def test_slash(self):
        assert norm("3/4").value == Fraction(3, 4)

    def test_negative_frac(self):
        assert norm("-\\frac{3}{4}").value == Fraction(-3, 4)

    def test_dollar_percent_period(self):
        assert norm("$42.").value == 42
        assert norm("15%").value == 15

    def test_boxed_wrapper(self):
        assert norm("\\boxed{7}").value == 7
        assert norm("\\boxed{\\frac{1}{2}}").value == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["\\boxed {7}", "\\boxed{7}{8}", "\\boxed{{7}",
                                      "\\boxed{7}}", "\\boxed{7"])
    def test_boxed_wrapper_must_span_the_whole_string(self, text):
        assert normalize_numeric(text) is None

    def test_leading_plus(self):
        assert norm("+5").value == 5

    def test_negative_decimal(self):
        assert norm("-0.25").value == Fraction(-1, 4)

    def test_scientific_rejected(self):
        assert normalize_numeric("1e5") is None
        assert normalize_numeric("2.5E3") is None

    def test_zero_denominator_rejected(self):
        assert normalize_numeric("1/0") is None
        assert normalize_numeric("\\frac{1}{0}") is None

    def test_rational_lowest_terms_positive_denominator(self):
        c = norm("14/-4")
        assert c.value.denominator == 2 and c.value.numerator == -7

    def test_idempotent_on_rendering(self):
        for s in ("\\frac{6}{8}", "1,234", "0.500", "-17", "2/4"):
            c = norm(s)
            again = norm(render(c))
            assert answers_equal(c, again)


class TestAnswersEqual:
    def test_decimal_vs_rational(self):
        assert answers_equal(norm("0.5"), norm("\\frac{1}{2}"))

    def test_integer_vs_unreduced_rational(self):
        assert answers_equal(norm("7"), norm("14/2"))

    def test_exactness(self):
        assert not answers_equal(norm("0.3333"), norm("\\frac{1}{3}"))

    def test_no_float_in_equality_path(self):
        # grading must stay exact: no float conversion anywhere in the path
        for fn in (answers_equal, normalize_numeric, grade, render):
            source = inspect.getsource(fn)
            assert "float(" not in source
            assert "math." not in source

    def test_canonical_number_validation(self):
        with pytest.raises(ValueError):
            CanonicalNumber(kind="complex", value=Fraction(1))
        with pytest.raises(ValueError):
            CanonicalNumber(kind=DECIMAL, value=Fraction(1), scale=-1)


rationals = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6), max_denominator=1000
)


@st.composite
def canonical_numbers(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return CanonicalNumber(kind=INTEGER, value=Fraction(draw(st.integers(-10 ** 9, 10 ** 9))))
    if choice == 1:
        return CanonicalNumber(kind=RATIONAL, value=draw(rationals))
    scale = draw(st.integers(0, 6))
    unscaled = draw(st.integers(-10 ** 9, 10 ** 9))
    return CanonicalNumber(kind=DECIMAL, value=Fraction(unscaled, 10 ** scale), scale=scale)


class TestEquivalenceRelation:
    @given(canonical_numbers())
    def test_reflexive(self, a):
        assert answers_equal(a, a)

    @given(canonical_numbers(), canonical_numbers())
    def test_symmetric(self, a, b):
        assert answers_equal(a, b) == answers_equal(b, a)

    @given(canonical_numbers(), canonical_numbers(), canonical_numbers())
    def test_transitive(self, a, b, c):
        if answers_equal(a, b) and answers_equal(b, c):
            assert answers_equal(a, c)

    @given(canonical_numbers())
    def test_render_roundtrip(self, a):
        back = normalize_numeric(render(a))
        assert back is not None and answers_equal(a, back)


def make_chain(predicted, qid="q1"):
    return ReasoningChain(question_id=qid, text="...",
                          origin=ChainOrigin(kind=VANILLA),
                          predicted_answer=predicted)


class TestGrade:
    Q = Question(id="q1", text="t", gold_answer="42")

    def test_correct(self):
        assert grade(make_chain("42"), self.Q) == CORRECT

    def test_incorrect(self):
        assert grade(make_chain("41"), self.Q) == INCORRECT

    def test_missing_prediction_unparseable(self):
        assert grade(make_chain(None), self.Q) == UNPARSEABLE

    def test_unnormalizable_prediction_unparseable(self):
        assert grade(make_chain("six times seven"), self.Q) == UNPARSEABLE

    def test_mismatched_id_rejected(self):
        with pytest.raises(ValueError):
            grade(make_chain("42", qid="other"), self.Q)

    def test_equivalent_forms_correct(self):
        q = Question(id="q1", text="t", gold_answer="0.5")
        assert grade(make_chain("\\frac{1}{2}"), q) == CORRECT
        assert grade(make_chain("2/4"), q) == CORRECT

    def test_non_numeric_gold_rejected(self):
        q = Question(id="q1", text="t", gold_answer="forty-two")
        with pytest.raises(ValueError, match="not numeric"):
            grade(make_chain("42"), q)

    def test_gold_normalized_once_per_question(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "normalize_numeric",
                            lambda s, real=normalize_numeric: calls.append(s) or real(s))
        corpus = tmp_path / "questions.jsonl"
        corpus.write_text(json.dumps({"id": "q1", "text": "t", "gold_answer": "1/2"}))
        q, = load_questions(corpus)  # validating the gold normalizes it
        verdicts = [grade(make_chain(p), q) for p in ("0.5", "2/4", "3")]
        assert verdicts == [CORRECT, CORRECT, INCORRECT]
        assert calls == ["1/2", "0.5", "2/4", "3"]
