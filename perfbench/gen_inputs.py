"""Seeded inputs for the benchmark workloads, with their ground truth.

The mock-pipeline inputs are a question corpus and a fingerprint-named mock
directory (the layout ``MockScript.from_dir`` reads) holding one vanilla
response per question and one batch response per group at each batch size.
Every question segment carries two unique nonces, one where its span begins
and one where it ends, so a checker can tell which question owns any chain
of text. A fixed number of batch responses per batch size is hostile:

- ``steps``: problem 1's solution holds numbered steps "1." and "2.";
- ``no_block``: the ``[Final Answer]`` block is missing;
- ``few_boxes``: one segment has no boxed answer and the block skips it;
- ``few_boxes_no_block``: one segment has no boxed answer and there is no block;
- ``missing_heading``: one problem heading is missing (the response cannot be
  split).

Hostile counts depend only on the corpus size, never on the seed, so the
number of wrong chains a given program produces is the same for every seed.

The http-eval inputs are a corpus of short single-question problems and a
JSON map from prompt fingerprint to response text, which the loopback
server serves.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from fractions import Fraction

CORRECT = "correct"
INCORRECT = "incorrect"
UNPARSEABLE = "unparseable"

CLEAN = "clean"
STEPS = "steps"
NO_BLOCK = "no_block"
FEW_BOXES = "few_boxes"
FEW_BOXES_NO_BLOCK = "few_boxes_no_block"
MISSING_HEADING = "missing_heading"
HOSTILE_KINDS = (STEPS, NO_BLOCK, FEW_BOXES, FEW_BOXES_NO_BLOCK, MISSING_HEADING)

PIPELINE_BATCH_SIZES = (1, 4, 8)
PIPELINE_QUESTIONS = 200
EVAL_QUESTIONS = 30
EVAL_REPEATS = 5  # the aime2024 registry entry samples each question 5 times

NONCE_RE = re.compile(r"ZQ[0-9a-f]{10}[BE]")

_WORDS = (
    "consider the value of each term and note that the sum grows with every "
    "step we take so the bound holds for all cases where the integer is odd "
    "then we factor the expression and compare both sides carefully before "
    "checking that the remainder is small enough to ignore here because "
    "symmetry gives an equal split across the two halves of the range"
).split()

_HEADINGS = ("Problem {n}:", "### Question {n})", "{n}.", "**Problem {n}.**")
_SOLUTION_MARKERS = ("[Solution Process]", "**[Solution Process]**")
_FINAL_MARKERS = ("[Final Answer]", "**[Final Answer]**")
_ENTRY_FORMS = ("{n}. \\boxed{{{a}}}", "{n}) $\\boxed{{{a}}}$")


def fingerprint(prompt_text: str) -> str:
    """Same key as the mock engine: sha256 of the prompt text, 32 hex chars."""
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()[:32]


def count_words(text: str) -> int:
    return len(text.split())


# --- questions and designed answers ------------------------------------------

def _gold(i: int):
    """Pairwise-distinct gold values: integers, eighths and quarter decimals."""
    kind = i % 5
    if kind < 3:
        value = Fraction(10000 + i)
        return value, str(value.numerator)
    if kind == 3:
        value = Fraction(2 * i + 1, 8)
        return value, f"{value.numerator}/{value.denominator}"
    value = Fraction(4 * i + 1, 4)
    return value, f"{i}.25"


def _render(value: Fraction, rng: random.Random) -> str:
    """An equivalent spelling of value, chosen to exercise the verifier."""
    if value.denominator == 1:
        n = value.numerator
        return rng.choice((str(n), f"{n}.0", f"{n:,}"))
    decimal = value.numerator / value.denominator
    return rng.choice((
        f"{value.numerator}/{value.denominator}",
        f"\\frac{{{value.numerator}}}{{{value.denominator}}}",
        repr(decimal),
    ))


def _designed_answer(value: Fraction, verdict: str, rng: random.Random) -> str:
    if verdict == CORRECT:
        return _render(value, rng)
    if verdict == INCORRECT:
        return _render(value + 1, rng)
    return "\\text{undetermined}"


def _verdict_pool(n: int, rng: random.Random) -> list:
    """Exactly 75% correct, 15% incorrect, 10% unparseable, in seeded order."""
    n_incorrect = n * 15 // 100
    n_unparseable = n // 10
    pool = ([INCORRECT] * n_incorrect + [UNPARSEABLE] * n_unparseable
            + [CORRECT] * (n - n_incorrect - n_unparseable))
    rng.shuffle(pool)
    return pool


def make_questions(n: int, prefix: str, rng: random.Random) -> list:
    out = []
    for i in range(n):
        _, gold = _gold(i)
        topic = " ".join(rng.choice(_WORDS) for _ in range(4))
        out.append({"id": f"{prefix}{i:04d}",
                    "text": f"Find the quantity described by {topic} (case {i}).",
                    "gold_answer": gold, "source": "perfbench"})
    return out


# --- response text -------------------------------------------------------------

class _Writer:
    """Seeded source of nonces and prose for one corpus."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen = set()
        # whole sentences drawn from a seeded pool keep generation cheap
        self.sentences = [
            " ".join(rng.choice(_WORDS) for _ in range(rng.randint(9, 15))).capitalize() + "."
            for _ in range(256)
        ]

    def nonce(self) -> str:
        while True:
            stem = "ZQ%010x" % self.rng.getrandbits(40)
            if stem not in self.seen:
                self.seen.add(stem)
                return stem

    def filler(self, n_bytes: int) -> str:
        """Prose lines that never start with a digit, so no line reads as a heading."""
        lines = []
        size = 0
        for line in self.rng.choices(self.sentences, k=n_bytes // 40 + 1):
            if size >= n_bytes:
                break
            lines.append(line)
            size += len(line) + 1
        return "\n".join(lines)


def _segment(writer, heading, stem, answer, steps=False):
    parts = []
    if heading is not None:
        parts.append(heading)
    parts.append(f"Reference {stem}B.")
    parts.append(writer.filler(650))
    if steps:
        parts.append("1. Write the two cases side by side and expand both.")
        parts.append("2. Subtract the second case from the first one.")
    parts.append(writer.filler(650))
    if answer is not None:
        parts.append(f"So the answer is $\\boxed{{{answer}}}$.")
    else:
        parts.append("This one is left without a final value.")
    parts.append(f"Checked {stem}E.")
    return "\n".join(parts)


def vanilla_response(writer, stem, answer) -> str:
    return "\n".join([
        f"Reference {stem}B.",
        writer.filler(1400),
        f"Therefore the final answer is \\boxed{{{answer}}}.",
        f"Checked {stem}E.",
    ])


def batch_response(writer, k, stems, answers, kind):
    """Batch-k response text; answers[p] is None where no box is written."""
    rng = writer.rng
    heading = rng.choice(_HEADINGS)
    skip_heading = rng.randint(2, k) if kind == MISSING_HEADING else None
    blocks = [rng.choice(_SOLUTION_MARKERS)]
    for pos in range(1, k + 1):
        blocks.append(_segment(
            writer,
            None if pos == skip_heading else heading.format(n=pos),
            stems[pos - 1], answers[pos - 1],
            steps=(kind == STEPS and pos == 1),
        ))
    if kind not in (NO_BLOCK, FEW_BOXES_NO_BLOCK):
        blocks.append(rng.choice(_FINAL_MARKERS))
        form = rng.choice(_ENTRY_FORMS)
        blocks.extend(form.format(n=pos, a=a)
                      for pos, a in enumerate(answers, 1) if a is not None)
    return "\n".join(blocks) + "\n"


# --- corpora on disk -----------------------------------------------------------

def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _as_questions(rows):
    from batchcot.prompts import Question
    return [Question(id=r["id"], text=r["text"], gold_answer=r["gold_answer"],
                     source=r["source"]) for r in rows]


def make_pipeline_inputs(out_dir, seed: int, n_questions: int = PIPELINE_QUESTIONS,
                         batch_sizes=PIPELINE_BATCH_SIZES) -> dict:
    """Write questions.jsonl, mock/ and truth.json under out_dir; return the truth.

    Groups and prompts are built with the program's own ``shuffle_and_group``
    and ``build_prompt`` (random grouping, seeded like the CLI), because the
    mock directory is keyed by the exact prompt text the CLI will send.
    """
    from batchcot.prompts import build_prompt, shuffle_and_group

    if n_questions % max(batch_sizes):
        raise ValueError("corpus size must be a multiple of every batch size")
    rng = random.Random(seed)
    writer = _Writer(rng)
    rows = make_questions(n_questions, "q", rng)
    questions = _as_questions(rows)
    gold = {r["id"]: _gold(i)[0] for i, r in enumerate(rows)}
    mock_dir = os.path.join(out_dir, "mock")
    os.makedirs(mock_dir, exist_ok=True)
    _write_jsonl(os.path.join(out_dir, "questions.jsonl"), rows)

    records = []
    for k in batch_sizes:
        groups = shuffle_and_group(questions, k, seed=seed, group="random")
        verdicts = iter(_verdict_pool(n_questions, rng))
        hostile = {}
        if k > 1:
            per_kind = max(1, len(groups) // 25)
            picks = rng.sample(range(len(groups)), per_kind * len(HOSTILE_KINDS))
            for j, g in enumerate(picks):
                hostile[g] = HOSTILE_KINDS[j % len(HOSTILE_KINDS)]
        for g, group in enumerate(groups):
            kind = hostile.get(g, CLEAN)
            designed = [next(verdicts) for _ in group]
            if kind != CLEAN:
                # every answer right, so only the hostile feature can go wrong
                designed = [CORRECT] * k
                if kind in (FEW_BOXES, FEW_BOXES_NO_BLOCK):
                    designed[k - 3] = UNPARSEABLE
            answers = [_designed_answer(gold[q.id], v, rng)
                       for q, v in zip(group, designed)]
            boxed = list(answers)
            if kind in (FEW_BOXES, FEW_BOXES_NO_BLOCK):
                boxed[k - 3] = None
                answers[k - 3] = None
            stems = [writer.nonce() for _ in group]
            if k == 1:
                text = vanilla_response(writer, stems[0], boxed[0])
            else:
                text = batch_response(writer, k, stems, boxed, kind)
            prompt = build_prompt(group).text
            fp = fingerprint(prompt)
            with open(os.path.join(mock_dir, fp + ".txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
            records.append({
                "k": k, "fingerprint": fp, "kind": kind,
                "question_ids": [q.id for q in group],
                "stems": stems, "answers": answers, "verdicts": designed,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "words": count_words(text), "splittable": kind != MISSING_HEADING,
            })
    truth = {"seed": seed, "n_questions": n_questions,
             "batch_sizes": list(batch_sizes), "records": records}
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return truth


def make_eval_inputs(out_dir, seed: int, n_questions: int = EVAL_QUESTIONS) -> dict:
    """Write corpus.jsonl, responses.json and truth.json; return the truth."""
    from batchcot.prompts import build_single_prompt

    rng = random.Random(seed)
    writer = _Writer(rng)
    rows = make_questions(n_questions, "a", rng)
    verdicts = _verdict_pool(n_questions, rng)
    responses = {}
    truth_rows = []
    for i, (row, question) in enumerate(zip(rows, _as_questions(rows))):
        answer = _designed_answer(_gold(i)[0], verdicts[i], rng)
        stem = writer.nonce()
        text = (f"Reference {stem}B. {writer.filler(160)}\n"
                f"The answer is \\boxed{{{answer}}}.")
        fp = fingerprint(build_single_prompt(question).text)
        responses[fp] = text
        truth_rows.append({"id": row["id"], "answer": answer,
                           "verdict": verdicts[i], "words": count_words(text)})
    _write_jsonl(os.path.join(out_dir, "corpus.jsonl"), rows)
    with open(os.path.join(out_dir, "responses.json"), "w", encoding="utf-8") as fh:
        json.dump(responses, fh, sort_keys=True)
    truth = {"seed": seed, "repeats": EVAL_REPEATS, "questions": truth_rows}
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return truth
