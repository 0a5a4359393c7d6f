"""Answer verification: both answer rules, and `grade_chains`, the grade stage.

A numeric answer is compared with exact integer/rational arithmetic only, so
verdicts are platform-deterministic; a choice-letter answer (GPQA-Diamond) is
one letter, compared case-blind. Every command's verdicts come from grade_chains.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from batchcot.parsing import ReasoningChain, _boxed_content_at, extract_boxed
from batchcot.prompts import Question

NUMERIC = "numeric"
CHOICE_LETTER = "choice-letter"
ANSWER_KINDS = (NUMERIC, CHOICE_LETTER)

INTEGER = "integer"
RATIONAL = "rational"
DECIMAL = "decimal"

CORRECT = "correct"
INCORRECT = "incorrect"
UNPARSEABLE = "unparseable"

_INT_RE = re.compile(r"^[+-]?\d+$")
_DEC_RE = re.compile(r"^([+-]?)(\d*)\.(\d+)$")
_SLASH_RE = re.compile(r"^([+-]?\d+)\s*/\s*([+-]?\d+)$")
_FRAC_RE = re.compile(r"^([+-]?)\\[dt]?frac\{([+-]?\d+)\}\{([+-]?\d+)\}$")
_THOUSANDS_RE = re.compile(r"(?<=\d),(?=\d)")


@dataclass(frozen=True)
class CanonicalNumber:
    kind: str  # INTEGER, RATIONAL or DECIMAL
    value: Fraction
    scale: int = 0  # digits after the point; meaningful for DECIMAL only

    def __post_init__(self):
        if self.kind not in (INTEGER, RATIONAL, DECIMAL):
            raise ValueError(f"unknown number kind: {self.kind!r}")
        if self.scale < 0:
            raise ValueError("decimal scale must be >= 0")


def _strip_boxed(s: str) -> str:
    """Remove one enclosing \\boxed{...} wrapper if it spans the whole string."""
    if s.startswith("\\boxed{"):
        parsed = _boxed_content_at(s, 0)
        if parsed is not None and parsed[1] == len(s):
            return parsed[0]
    return s


def normalize_numeric(s: str) -> Optional[CanonicalNumber]:
    """Parse a string into a canonical exact number, or None on failure."""
    if s is None:
        return None
    s = s.strip()
    s = _strip_boxed(s).strip()
    s = s.strip("$").strip()
    while s.endswith("%"):
        s = s[:-1].strip()
    while s.endswith("."):
        s = s[:-1].strip()
    s = _THOUSANDS_RE.sub("", s)

    if _INT_RE.match(s):
        return CanonicalNumber(kind=INTEGER, value=Fraction(int(s)))

    m = _DEC_RE.match(s)
    if m:
        sign, whole, frac = m.groups()
        scale = len(frac)
        unscaled = int((whole or "0") + frac)
        if sign == "-":
            unscaled = -unscaled
        return CanonicalNumber(
            kind=DECIMAL, value=Fraction(unscaled, 10 ** scale), scale=scale
        )

    m = _SLASH_RE.match(s)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            return None
        return CanonicalNumber(kind=RATIONAL, value=Fraction(num, den))

    m = _FRAC_RE.match(s)
    if m:
        sign, num, den = m.groups()
        num, den = int(num), int(den)
        if den == 0:
            return None
        value = Fraction(num, den)
        if sign == "-":
            value = -value
        return CanonicalNumber(kind=RATIONAL, value=value)

    return None


def render(c: CanonicalNumber) -> str:
    """Canonical text rendering; normalize_numeric(render(c)) reproduces c's value."""
    if c.kind == INTEGER:
        return str(c.value.numerator)
    if c.kind == RATIONAL:
        return f"{c.value.numerator}/{c.value.denominator}"
    sign = "-" if c.value < 0 else ""
    unscaled = abs(c.value.numerator) * (10 ** c.scale) // c.value.denominator
    digits = str(unscaled).rjust(c.scale + 1, "0")
    if c.scale == 0:
        return sign + digits
    return f"{sign}{digits[:-c.scale]}.{digits[-c.scale:]}"


def answers_equal(a: CanonicalNumber, b: CanonicalNumber) -> bool:
    """Exact equality under integer/rational/decimal unification."""
    return a.value == b.value


def grade(chain: ReasoningChain, q: Question) -> str:
    """Correctness verdict for a chain's predicted answer against the gold."""
    if chain.question_id != q.id:
        raise ValueError(
            f"chain question id {chain.question_id!r} does not match {q.id!r}"
        )
    gold = q.gold_number
    if gold is None:
        raise ValueError(f"gold answer {q.gold_answer!r} is not numeric")
    if chain.predicted_answer is None:
        return UNPARSEABLE
    predicted = normalize_numeric(chain.predicted_answer)
    if predicted is None:
        return UNPARSEABLE
    return CORRECT if answers_equal(predicted, gold) else INCORRECT


def normalize_letter(s) -> Optional[str]:
    """The one upper-case choice letter `s` names, boxed or decorated, or None."""
    if s is None:
        return None
    s = s.strip()
    boxes = extract_boxed(s)
    if boxes:
        s = boxes[-1].strip()
    s = s.strip("()[].: ").upper()
    return s if len(s) == 1 and s.isalpha() else None


def grade_choice_letter(predicted, gold) -> str:
    p = normalize_letter(predicted)
    if p is None:
        return UNPARSEABLE
    g = normalize_letter(gold)
    if g is None:
        raise ValueError(f"gold choice letter {gold!r} is not a single letter")
    return CORRECT if p == g else INCORRECT


def question_map(chains, questions) -> dict:
    """Questions by id, checked to hold the question of every chain."""
    qmap = {q.id: q for q in questions}
    unknown = sorted({c.question_id for c in chains if c.question_id not in qmap})
    if unknown:
        raise ValueError(f"chains reference unknown question ids: {unknown}")
    return qmap


def grade_chains(chains, questions, answer_kind: str = NUMERIC) -> Counter:
    """Set each chain's verdict by the rule of `answer_kind`, once every chain's
    question is known; the verdict counts."""
    if answer_kind not in ANSWER_KINDS:
        raise ValueError(f"unknown answer kind: {answer_kind!r}")
    qmap = question_map(chains, questions)
    for chain in chains:
        q = qmap[chain.question_id]
        chain.verdict = (grade(chain, q) if answer_kind == NUMERIC else
                         grade_choice_letter(chain.predicted_answer, q.gold_answer))
    return Counter(chain.verdict for chain in chains)
