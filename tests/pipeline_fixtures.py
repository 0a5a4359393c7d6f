"""Scripted corpus and mock responses shared by pipeline-level tests.

The 60-question corpus has designed correctness per mode, so expected label
distributions and per-mode token means are computable in closed form.
"""

import os

from batchcot.client import MockBackend
from batchcot.prompts import Question, build_prompt, shuffle_and_group

N_QUESTIONS = 60

# per-mode designed wrongness (by question index)
WRONG = {
    1: {i for i in range(N_QUESTIONS) if i % 6 == 0},   # vanilla: 10 wrong
    2: {i for i in range(N_QUESTIONS) if i % 4 == 0},   # batch-2: 15 wrong
    3: {i for i in range(N_QUESTIONS) if i % 3 == 0},   # batch-3: 20 wrong
    4: {i for i in range(N_QUESTIONS) if i % 2 == 0},   # batch-4: 30 wrong
}

# filler words per question; decreasing in batch size by construction
FILLER_WORDS = {1: 120, 2: 50, 3: 30, 4: 20}


def make_corpus(n=N_QUESTIONS):
    return [
        Question(id=f"q{i:03d}", text=f"What is {i} + {2 * i + 1}?",
                 gold_answer=str(3 * i + 1), source="scripted")
        for i in range(n)
    ]


def _index(q):
    return int(q.id[1:])


def _answer(q, batch_size):
    gold = int(q.gold_answer)
    return str(gold + 1) if _index(q) in WRONG[batch_size] else str(gold)


def _filler(words):
    return " ".join(f"think{j}" for j in range(words))


def vanilla_response(q):
    return (
        f"{_filler(FILLER_WORDS[1])}\n"
        f"The answer is \\boxed{{{_answer(q, 1)}}}."
    )


def batch_response(group, batch_size):
    lines = ["[Solution Process]"]
    for pos, q in enumerate(group, 1):
        lines.append(f"{pos}. {_filler(FILLER_WORDS[batch_size])} "
                     f"so we obtain {_answer(q, batch_size)}.")
    lines.append("[Final Answer]")
    for pos, q in enumerate(group, 1):
        lines.append(f"{pos}. \\boxed{{{_answer(q, batch_size)}}}")
    return "\n".join(lines)


def build_script(questions, batch_sizes=(1, 2, 3), seed=0, group="sequential"):
    """MockBackend covering every prompt the pipeline will issue."""
    script = MockBackend()
    for k in batch_sizes:
        for grp in shuffle_and_group(questions, k, seed=seed, group=group):
            envelope = build_prompt(grp)
            if len(grp) == 1:
                script.add(envelope.text, vanilla_response(grp[0]))
            else:
                script.add(envelope.text, batch_response(grp, k))
    return script


def write_script_dir(script, path):
    """Write a MockBackend as the fingerprint-named files MockBackend.from_dir reads."""
    os.makedirs(path, exist_ok=True)
    for fp, response in script.responses.items():
        with open(os.path.join(path, fp + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(response.text)
        if response.completion_tokens is not None:
            with open(os.path.join(path, fp + ".tokens"), "w", encoding="utf-8") as fh:
                fh.write(str(response.completion_tokens))


def expected_label_counts(n=N_QUESTIONS, batch_sizes=(1, 2, 3)):
    """Truth-table prediction of the preference-label distribution."""
    counts = {"A": 0, "B": 0, "C": 0}
    for k in batch_sizes:
        for i in range(n):
            wrong = i in WRONG[k]
            if wrong:
                counts["C"] += 1
            elif k == 1:
                counts["A"] += 1
            else:
                counts["B"] += 1
    return counts
