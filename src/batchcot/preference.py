"""Construction of the A/B/C multiple-choice preference dataset."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from batchcot import verify
from batchcot.prompts import BATCH, VANILLA
from batchcot.records import to_dict, write_jsonl

LABEL_A = "A"
LABEL_B = "B"
LABEL_C = "C"
LABELS = (LABEL_A, LABEL_B, LABEL_C)

OPTION_A = (
    "The reasoning process is correct, but I think there is a simpler "
    "and quicker way to approach it."
)
OPTION_B = (
    "The reasoning process is correct, and I believe the thinking is "
    "thorough and concise."
)
OPTION_C = "The reasoning process is wrong."
OPTIONS = (OPTION_A, OPTION_B, OPTION_C)

JUDGE_TEMPLATE_VERSION = "judge-prompt-v1"

PER_CHAIN = "per_chain"
PAIRED = "paired"


@dataclass(frozen=True)
class PreferenceSample:
    question: str
    cot: str
    gold_label: str
    provenance: dict
    options: tuple = field(default=OPTIONS)

    def __post_init__(self):
        if self.options != OPTIONS:
            raise ValueError("option strings must match the canonical sentences")
        if self.gold_label not in LABELS:
            raise ValueError(f"gold label must be one of {LABELS}")


def label_sample(origin_kind: str, verdict: str) -> str:
    """A for correct vanilla chains, B for correct batch chains, C otherwise."""
    if verdict == verify.CORRECT:
        return LABEL_A if origin_kind == VANILLA else LABEL_B
    return LABEL_C


def build_dataset(chains, questions, seed: int = 0, mode: str = PER_CHAIN):
    """One labeled sample per graded chain, shuffled with a recorded seed.

    Returns (samples, manifest). In PAIRED mode only questions with at least
    one vanilla and one batch chain contribute, one chain of each kind. A
    contributing chain without a verdict is graded here, and keeps it.
    """
    if mode not in (PER_CHAIN, PAIRED):
        raise ValueError(f"unknown dataset mode: {mode!r}")
    chains = list(chains)
    qmap = verify.question_map(chains, questions)

    chains.sort(key=lambda c: (c.question_id, c.origin.kind, c.origin.position))
    if mode == PAIRED:
        first = {}
        for c in chains:
            first.setdefault((c.question_id, c.origin.kind), c)
        chains = [
            c for (qid, kind), c in sorted(first.items())
            if (qid, VANILLA) in first and (qid, BATCH) in first
        ]
        chains.sort(key=lambda c: (c.question_id, c.origin.kind, c.origin.position))

    verify.grade_chains([c for c in chains if c.verdict is None], qmap.values())
    samples = []
    for chain in chains:
        q = qmap[chain.question_id]
        samples.append(
            PreferenceSample(
                question=q.text,
                cot=chain.text,
                gold_label=label_sample(chain.origin.kind, chain.verdict),
                provenance={
                    "origin_kind": chain.origin.kind,
                    "batch_size": chain.origin.size,
                    "position": chain.origin.position,
                    "question_id": chain.question_id,
                },
            )
        )
    random.Random(seed).shuffle(samples)

    counts = Counter(s.gold_label for s in samples)
    manifest = {
        "seed": seed,
        "mode": mode,
        "n_samples": len(samples),
        "n_questions": len({s.provenance["question_id"] for s in samples}),
        "label_counts": {label: counts.get(label, 0) for label in LABELS},
        "template_version": JUDGE_TEMPLATE_VERSION,
    }
    return samples, manifest


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


def write_samples(path, samples):
    write_jsonl(path, map(to_dict, samples))
