import inspect
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchcot import verify
from batchcot.parsing import ChainOrigin, ReasoningChain
from batchcot.prompts import VANILLA, Question, load_questions
from batchcot.verify import (
    CHOICE_LETTER,
    CORRECT,
    INCORRECT,
    NUMERIC,
    UNPARSEABLE,
    grade,
    grade_chains,
    normalize_letter,
    normalize_numeric,
)


class TestNormalize:
    def test_frac(self):
        assert normalize_numeric("\\frac{1}{2}") == Fraction(1, 2)

    @pytest.mark.parametrize("text, value", [
        ("1,234", 1234), ("-12,345,678", -12345678), ("1,000.5", Fraction(2001, 2)),
        ("$1,234$", 1234), ("+999,999", 999999), ("1,234/5", Fraction(1234, 5)),
        ("\\frac{1,000}{3}", Fraction(1000, 3)),
    ])
    def test_thousands_commas(self, text, value):
        assert normalize_numeric(text) == value

    @pytest.mark.parametrize("text", ["0,5", "1,2", "1,23", "1,234,5678", "1234,567",
                                      "12,34,567", "1.234,567", "1,0000", "$0,5$"])
    def test_any_other_comma_is_unparseable(self, text):
        assert normalize_numeric(text) is None
        assert grade(make_chain(text), Question(id="q1", text="t", gold_answer="5")) \
            == UNPARSEABLE

    def test_non_numeric(self):
        assert normalize_numeric("half") is None

    def test_decimal(self):
        assert normalize_numeric("0.50") == Fraction(1, 2)

    def test_slash(self):
        assert normalize_numeric("3/4") == Fraction(3, 4)

    def test_negative_frac(self):
        assert normalize_numeric("-\\frac{3}{4}") == Fraction(-3, 4)

    def test_dollar_percent_period(self):
        assert normalize_numeric("$42.") == 42
        assert normalize_numeric("15%") == 15

    def test_boxed_wrapper(self):
        assert normalize_numeric("\\boxed{7}") == 7
        assert normalize_numeric("\\boxed{\\frac{1}{2}}") == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["\\boxed {7}", "\\boxed{7}{8}", "\\boxed{{7}",
                                      "\\boxed{7}}", "\\boxed{7"])
    def test_boxed_wrapper_must_span_the_whole_string(self, text):
        assert normalize_numeric(text) is None

    def test_leading_plus(self):
        assert normalize_numeric("+5") == 5

    def test_negative_decimal(self):
        assert normalize_numeric("-0.25") == Fraction(-1, 4)

    def test_scientific_rejected(self):
        assert normalize_numeric("1e5") is None
        assert normalize_numeric("2.5E3") is None

    def test_zero_denominator_rejected(self):
        assert normalize_numeric("1/0") is None
        assert normalize_numeric("\\frac{1}{0}") is None

    def test_rational_lowest_terms_positive_denominator(self):
        c = normalize_numeric("14/-4")
        assert type(c) is Fraction and (c.numerator, c.denominator) == (-7, 2)

    @given(st.text("0123456789", min_size=1, max_size=60)
           | st.sampled_from(["0", "7", "007", "0000", "9" * 4300]))
    def test_ascii_digits_read_as_the_full_rule_reads_them(self, digits):
        # leading zeros and long runs read as an integer, with or without spaces
        got = normalize_numeric(digits)
        assert type(got) is Fraction and got == normalize_numeric(f" {digits} ")

    @pytest.mark.parametrize("text", ["1" * 4301, " " + "1" * 5000, "-" + "1" * 5000,
                                      "1," + "1" * 5000, "0." + "1" * 5000,
                                      "1" * 5000 + "/2", "1/" + "1" * 5000,
                                      "\\frac{1}{" + "1" * 5000 + "}",
                                      "\\boxed{" + "1" * 5000 + "}"],
                             ids=["integer", "spaced", "negative", "grouped", "decimal",
                                  "numerator", "denominator", "frac", "boxed"])
    def test_more_digits_than_int_converts_is_none(self, text):
        # int() converts at most 4300 digits; the limit is not raised
        assert normalize_numeric(text) is None
        assert normalize_numeric("1" * 4300) == int("1" * 4300)

    def test_idempotent_on_rendering(self):
        # a Fraction's own str is a surface form normalize_numeric reads back
        for s in ("\\frac{6}{8}", "1,234", "0.500", "-17", "2/4"):
            c = normalize_numeric(s)
            assert normalize_numeric(str(c)) == c


class TestAnswersEqual:
    def test_decimal_vs_rational(self):
        assert normalize_numeric("0.5") == normalize_numeric("\\frac{1}{2}")

    def test_integer_vs_unreduced_rational(self):
        assert normalize_numeric("7") == normalize_numeric("14/2")

    def test_exactness(self):
        assert normalize_numeric("0.3333") != normalize_numeric("\\frac{1}{3}")

    def test_no_float_in_equality_path(self):
        # grading must stay exact: no float conversion anywhere in the path
        for fn in (normalize_numeric, grade):
            source = inspect.getsource(fn)
            assert "float(" not in source
            assert "math." not in source


@st.composite
def exact_values(draw):
    """An integer, a terminating decimal or a rational, as a Fraction."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return Fraction(draw(st.integers(-10 ** 9, 10 ** 9)))
    if choice == 1:
        return Fraction(draw(st.integers(-10 ** 9, 10 ** 9)), 10 ** draw(st.integers(0, 6)))
    return draw(st.fractions(min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6),
                             max_denominator=1000))


def surface_forms(v, trailing_zeros):
    """Every way the suite writes `v`: n/d, \\frac, -\\frac, a comma-grouped
    integer, and a terminating decimal padded with `trailing_zeros` zeros."""
    n, d = v.numerator, v.denominator
    forms = [f"{n}/{d}", f"\\frac{{{n}}}{{{d}}}", f"-\\frac{{{-n}}}{{{d}}}"]
    if d == 1:
        forms.append(f"{n:,}")
    scale = next((k for k in range(12) if 10 ** k % d == 0), None)
    if scale is not None:
        scale += trailing_zeros
        digits = str(abs(n) * 10 ** scale // d).rjust(scale + 1, "0")
        forms.append(f"{'-' if n < 0 else ''}{digits[:-scale]}.{digits[-scale:]}")
    return forms


WRAPPERS = (lambda s: s, lambda s: f"\\boxed{{{s}}}", lambda s: f"${s}$", lambda s: f"{s}%")


class TestSurfaceForms:
    @given(exact_values(), st.integers(1, 3), st.sampled_from(WRAPPERS))
    def test_every_surface_form_normalizes_to_its_value(self, v, trailing_zeros, wrap):
        for form in surface_forms(v, trailing_zeros):
            got = normalize_numeric(wrap(form))
            assert type(got) is Fraction and got == v, wrap(form)


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

    def test_answer_of_more_digits_than_int_converts_unparseable(self):
        assert grade(make_chain("1" * 5000), self.Q) == UNPARSEABLE

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


def grade_letter(predicted, gold):
    return grade(make_chain(predicted), Question(id="q1", text="t", gold_answer=gold),
                 CHOICE_LETTER)


class TestChoiceLetterGrading:
    def test_plain_letter(self):
        assert grade_letter("B", "b") == CORRECT

    def test_boxed_and_decorated(self):
        assert grade_letter("\\boxed{(C)}", "C") == CORRECT
        assert grade_letter("(a).", "A") == CORRECT

    def test_wrong_letter(self):
        assert grade_letter("A", "D") == INCORRECT

    def test_unparseable(self):
        assert grade_letter("maybe 42", "A") == UNPARSEABLE
        assert grade_letter(None, "A") == UNPARSEABLE
        for not_one_letter in ("AB", "1", "\\boxed{AB}", "(1)"):
            assert grade_letter(not_one_letter, "A") == UNPARSEABLE

    def test_bad_gold_rejected(self):
        with pytest.raises(ValueError, match="'not-a-letter' is not a choice letter"):
            grade_letter("A", "not-a-letter")

    def test_mismatched_id_rejected(self):
        q = Question(id="q1", text="t", gold_answer="A")
        with pytest.raises(ValueError, match="does not match"):
            grade(make_chain("A", qid="other"), q, CHOICE_LETTER)


# questions q0..q3 with numeric and letter golds; a chain may name the unknown q9
GOLDS = {NUMERIC: ("42", "1/2", "0.75", "-3"), CHOICE_LETTER: ("A", "b", "(C)", "D")}
# every gold string is a prediction too: an equal string grades correct
PREDICTIONS = st.one_of(st.none(), st.sampled_from(
    ["42", "0.5", "3/4", "-3", "7", "A", "B", "\\boxed{c}", "(d).", "x", ""]
    + [g for golds in GOLDS.values() for g in golds]))


class TestGradeChains:
    @given(kind=st.sampled_from([NUMERIC, CHOICE_LETTER]),
           picks=st.lists(st.tuples(st.sampled_from(["q0", "q1", "q2", "q3", "q9"]),
                                    PREDICTIONS,
                                    st.sampled_from([None, CORRECT, INCORRECT]))))
    def test_verdicts_follow_the_rule_of_the_kind(self, kind, picks):
        questions = [Question(id=f"q{i}", text="t", gold_answer=g)
                     for i, g in enumerate(GOLDS[kind])]
        chains = [ReasoningChain(question_id=qid, text="...",
                                 origin=ChainOrigin(kind=VANILLA),
                                 predicted_answer=predicted, verdict=verdict)
                  for qid, predicted, verdict in picks]
        before = [c.verdict for c in chains]
        if any(c.question_id == "q9" for c in chains):
            with pytest.raises(ValueError, match="unknown question ids: \\['q9'\\]"):
                grade_chains(chains, questions, kind)
            assert [c.verdict for c in chains] == before
            return
        counts = grade_chains(chains, questions, kind)
        # the oracle: both sides normalize by the rule of the kind, then ==
        normalize = normalize_numeric if kind == NUMERIC else normalize_letter
        golds = {q.id: normalize(q.gold_answer) for q in questions}
        for c in chains:
            predicted = normalize(c.predicted_answer)
            assert c.verdict == (UNPARSEABLE if predicted is None else
                                 CORRECT if predicted == golds[c.question_id] else
                                 INCORRECT)
        assert counts == Counter(c.verdict for c in chains)

    @pytest.mark.parametrize("predicted", [None, "maybe 42", "B"])
    def test_bad_letter_gold_raises_whatever_the_prediction(self, predicted):
        # a gold that is no letter is a corpus fault, as a non-numeric gold
        # is, even when the prediction is unparseable
        q = Question(id="q1", text="t", gold_answer="not-a-letter")
        with pytest.raises(ValueError, match="'not-a-letter' is not a choice letter"):
            grade_chains([make_chain(predicted)], [q], CHOICE_LETTER)

    @pytest.mark.parametrize("kind, gold", [(NUMERIC, "forty-two"), (NUMERIC, "1" * 5000),
                                            (CHOICE_LETTER, "not-a-letter")],
                             ids=["numeric", "long-numeric", "letter"])
    def test_bad_gold_raises_before_an_equal_prediction(self, kind, gold):
        q = Question(id="q1", text="t", gold_answer=gold)
        with pytest.raises(ValueError, match="gold answer .* is not "):
            grade_chains([make_chain(gold)], [q], kind)

    def test_unknown_answer_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown answer kind"):
            grade_chains([], [], "freeform")
