"""Answer verification: one verdict rule, `grade`, and `grade_chains`, the grade stage.

An answer normalizes to a plain value: a numeric answer to its exact
`Fraction` (no float anywhere, so verdicts are platform-deterministic), a
choice-letter answer (GPQA-Diamond) to its upper-case letter. `grade` compares
the two values with `==` for both kinds, and every command's verdicts come from
grade_chains.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import Optional

from batchcot.parsing import ReasoningChain, _boxed_content_at, extract_boxed
from batchcot.prompts import Question

NUMERIC = "numeric"
CHOICE_LETTER = "choice-letter"
ANSWER_KINDS = (NUMERIC, CHOICE_LETTER)

CORRECT = "correct"
INCORRECT = "incorrect"
UNPARSEABLE = "unparseable"

_INT_RE = re.compile(r"^[+-]?\d+$")
_DEC_RE = re.compile(r"^([+-]?)(\d*)\.(\d+)$")
_SLASH_RE = re.compile(r"^([+-]?\d+)\s*/\s*([+-]?\d+)$")
_FRAC_RE = re.compile(r"^([+-]?)\\[dt]?frac\{([+-]?\d+)\}\{([+-]?\d+)\}$")
# a digit run whose commas each open a whole thousands group, 1,234 or
# 12,345,678; any other comma stays, and no number form takes it
_THOUSANDS_RE = re.compile(r"(?<![\d,.])\d{1,3}(?:,\d{3})+(?![\d,])")


def _strip_boxed(s: str) -> str:
    """Remove one enclosing \\boxed{...} wrapper if it spans the whole string."""
    if s.startswith("\\boxed{"):
        parsed = _boxed_content_at(s, 0)
        if parsed is not None and parsed[1] == len(s):
            return parsed[0]
    return s


def normalize_numeric(s: str) -> Optional[Fraction]:
    """The exact number `s` names, or None on failure.

    A number of more digits than int() converts (sys.get_int_max_str_digits(),
    4300 by default) is a failure too: the limit guards every conversion of
    the process against quadratic time, so it is not raised here.
    """
    if s is None:
        return None
    try:
        s = s.strip()
        s = _strip_boxed(s).strip()
        s = s.strip("$").strip()
        while s.endswith("%"):
            s = s[:-1].strip()
        while s.endswith("."):
            s = s[:-1].strip()
        s = _THOUSANDS_RE.sub(lambda m: m.group().replace(",", ""), s)

        if _INT_RE.match(s):
            return Fraction(int(s))

        m = _DEC_RE.match(s)
        if m:
            sign, whole, frac = m.groups()
            unscaled = int((whole or "0") + frac)
            if sign == "-":
                unscaled = -unscaled
            return Fraction(unscaled, 10 ** len(frac))

        m = _SLASH_RE.match(s)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                return None
            return Fraction(num, den)

        m = _FRAC_RE.match(s)
        if m:
            sign, num, den = m.groups()
            num, den = int(num), int(den)
            if den == 0:
                return None
            value = Fraction(num, den)
            if sign == "-":
                value = -value
            return value

        return None
    except ValueError:  # int() refused the digits
        return None


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


def grade(chain: ReasoningChain, q: Question, answer_kind: str = NUMERIC) -> str:
    """Correctness verdict for a chain's predicted answer against the gold:
    both normalize by the rule of `answer_kind`, and are compared with ==."""
    if chain.question_id != q.id:
        raise ValueError(
            f"chain question id {chain.question_id!r} does not match {q.id!r}"
        )
    if answer_kind == NUMERIC:
        normalize, gold, what = normalize_numeric, q.gold_number, "numeric"
    else:
        normalize, what = normalize_letter, "a choice letter"
        gold = normalize_letter(q.gold_answer)
    if gold is None:
        raise ValueError(f"gold answer {q.gold_answer!r} is not {what}")
    predicted = normalize(chain.predicted_answer)
    if predicted is None:
        return UNPARSEABLE
    return CORRECT if predicted == gold else INCORRECT


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
        chain.verdict = grade(chain, qmap[chain.question_id], answer_kind)
    return Counter(chain.verdict for chain in chains)
