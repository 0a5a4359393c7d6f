"""Prompt construction for single-question and batched math inference."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

from batchcot.records import loads_line

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
    id: str
    text: str
    gold_answer: str
    source: str = ""

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
    if not q.text:
        raise ValueError("question text must be nonempty")
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
    """Read a Question corpus from JSONL, validating each question's fields.

    Each gold answer is checked by the rule of `answer_kind`, verify.NUMERIC or
    CHOICE_LETTER; a numeric gold is normalized once, into its gold_number.
    """
    # imported here: verify imports prompts
    from batchcot.verify import NUMERIC, normalize_letter

    questions = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = loads_line(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: not a JSON object")
            missing = [k for k in ("id", "text", "gold_answer") if k not in obj]
            if missing:
                raise ValueError(
                    f"{path}: line {lineno}: missing keys {missing}"
                )
            qid = str(obj["id"])
            if qid in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate question id {qid!r}")
            seen.add(qid)
            text = obj["text"]
            if type(text) is not str:
                raise ValueError(
                    f"{path}: line {lineno}: text is {type(text).__name__}, not str"
                )
            if not text:
                raise ValueError(f"{path}: line {lineno}: empty question text")
            source = obj.get("source", "")
            if type(source) is not str:
                raise ValueError(
                    f"{path}: line {lineno}: source is {type(source).__name__}, not str"
                )
            q = Question(id=qid, text=text, gold_answer=str(obj["gold_answer"]),
                         source=source)
            if answer_kind == NUMERIC and q.gold_number is None:
                raise ValueError(f"{path}: line {lineno}: gold answer "
                                 f"{q.gold_answer!r} is not numeric")
            if answer_kind != NUMERIC and normalize_letter(q.gold_answer) is None:
                raise ValueError(f"{path}: line {lineno}: gold answer "
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
