"""Prompt construction for single-question and batched math inference."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from batchcot.records import from_dict, loads_line, named_error

VANILLA = "vanilla"
BATCH = "batch"

SINGLE_INSTRUCTION = (
    "Please reason step by step, and put your final answer within \\boxed{}."
)
BATCH_HEADER = (
    "Please answer the following math problems in order and "
    "summarize all answers at the end:"
)
SOLUTION_MARKER = "[Solution Process]"
FINAL_ANSWER_MARKER = "[Final Answer]"


@dataclass(frozen=True)
class Question:
    # a number (JSON's, too) is kept as its str()
    id: Union[str, float]
    text: str
    gold_answer: Union[str, float]
    source: str = ""

    def __post_init__(self):
        for name in ("id", "gold_answer"):
            if type(getattr(self, name)) is not str:
                object.__setattr__(self, name, str(getattr(self, name)))
        if not self.text:
            raise ValueError("empty question text")

    @cached_property
    def gold_number(self):
        """verify.normalize_numeric of the gold answer, computed once per Question.

        load_questions computes it as it validates a numeric gold answer.
        """
        # imported here: verify imports prompts
        from batchcot.verify import normalize_numeric

        return normalize_numeric(self.gold_answer)


@dataclass(frozen=True)
class PromptEnvelope:
    text: str
    mode: str  # VANILLA or BATCH
    batch_size: int
    question_ids: tuple

    def __post_init__(self):
        if self.mode == VANILLA:
            if self.batch_size != 1 or len(self.question_ids) != 1:
                raise ValueError("vanilla envelope must carry exactly one question")
        elif self.mode == BATCH:
            if self.batch_size < 2:
                raise ValueError("batch envelope requires batch_size >= 2")
            if len(self.question_ids) != self.batch_size:
                raise ValueError(
                    "batch envelope must carry exactly batch_size question ids"
                )
        else:
            raise ValueError(f"unknown prompt mode: {self.mode!r}")


def build_single_prompt(q: Question) -> PromptEnvelope:
    """Question text followed by the step-by-step boxed-answer instruction."""
    text = f"{q.text}\n\n{SINGLE_INSTRUCTION}"
    return PromptEnvelope(
        text=text, mode=VANILLA, batch_size=1, question_ids=(q.id,)
    )


def build_batch_prompt(questions) -> PromptEnvelope:
    """Batched prompt with the ordered-answers header and one boxed slot per question."""
    questions = list(questions)
    if len(questions) < 2:
        raise ValueError(
            "batch prompt needs at least 2 questions; use build_single_prompt for 1"
        )
    slots = "\n".join(
        f"{i}. \\boxed{{Answer{i}}}" for i in range(1, len(questions) + 1)
    )
    numbered = "\n".join(f"{i}. {q.text}" for i, q in enumerate(questions, 1))
    text = (
        f"{BATCH_HEADER}\n"
        "Your response should be in the following format:\n"
        "\n"
        f"{SOLUTION_MARKER}\n"
        "Provide a detailed solution for each problem...\n"
        "\n"
        f"{FINAL_ANSWER_MARKER}\n"
        f"{slots}\n"
        "\n"
        "Below is the list of questions:\n"
        f"{numbered}"
    )
    return PromptEnvelope(
        text=text,
        mode=BATCH,
        batch_size=len(questions),
        question_ids=tuple(q.id for q in questions),
    )


def build_prompt(questions) -> PromptEnvelope:
    """Dispatch on group size: one question goes vanilla, two or more batched."""
    questions = list(questions)
    if len(questions) == 1:
        return build_single_prompt(questions[0])
    return build_batch_prompt(questions)


def load_questions(path, answer_kind: str = "numeric") -> list:
    """Read a Question corpus from JSONL, as records.read_jsonl reads records.

    Blank lines are skipped and an id may occur once. Each gold answer is
    checked by the rule of `answer_kind`, verify.NUMERIC or CHOICE_LETTER; a
    numeric gold is normalized once, into its gold_number.
    """
    # imported here: verify imports prompts
    from batchcot.verify import NUMERIC, normalize_letter

    questions, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            where = f"{path}: line {lineno}"
            try:
                q = from_dict(Question, loads_line(line))
            except (TypeError, KeyError, ValueError) as exc:
                raise named_error(where, exc) from exc
            if q.id in seen:
                raise ValueError(f"{where}: duplicate question id {q.id!r}")
            seen.add(q.id)
            if answer_kind == NUMERIC and q.gold_number is None:
                raise ValueError(f"{where}: gold answer {q.gold_answer!r} is not numeric")
            if answer_kind != NUMERIC and normalize_letter(q.gold_answer) is None:
                raise ValueError(f"{where}: gold answer "
                                 f"{q.gold_answer!r} is not a choice letter")
            questions.append(q)
    return questions


def shuffle_and_group(questions, k: int, seed: int = 0, group: str = "random"):
    """The full groups of k questions of a corpus.

    The len(questions) % k questions left over (the last ones, after any
    shuffle) form no group, so a batch-k run does not send them.
    """
    if k < 1:
        raise ValueError("group size must be >= 1")
    if group not in ("random", "sequential"):
        raise ValueError(f"unknown grouping mode: {group!r}")
    qs = list(questions)
    if group == "random":
        random.Random(seed).shuffle(qs)
    return [qs[i:i + k] for i in range(0, len(qs) - k + 1, k)]
