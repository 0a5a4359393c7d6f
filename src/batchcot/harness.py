"""Per-benchmark accuracy and token-usage evaluation with repeat sampling."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, replace
from typing import Optional

from batchcot import verify
from batchcot.parsing import split_completions
from batchcot.prompts import load_questions
from batchcot.records import from_dict, mean, naming, show, to_dict, write_json
from batchcot.verify import ANSWER_KINDS, CHOICE_LETTER, NUMERIC


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    corpus_path: str = ""
    samples_per_question: int = 1
    answer_kind: str = NUMERIC

    def __post_init__(self):
        if self.samples_per_question < 1:
            raise ValueError("samples_per_question must be >= 1")
        if self.answer_kind not in ANSWER_KINDS:
            raise ValueError(f"unknown answer kind: {self.answer_kind!r}")


# Registry of benchmark metadata; corpora themselves are user-supplied JSONL.
BENCHMARKS = {
    "gsm8k": BenchmarkSpec(name="GSM8K"),
    "math500": BenchmarkSpec(name="MATH-500"),
    "aime2024": BenchmarkSpec(name="AIME 2024", samples_per_question=5),
    "aime2025": BenchmarkSpec(name="AIME 2025", samples_per_question=5),
    "amc2023": BenchmarkSpec(name="AMC 2023"),
    "gpqa_diamond": BenchmarkSpec(name="GPQA-Diamond", answer_kind=CHOICE_LETTER),
}


def registry_spec(key: str, corpus_path: str,
                  samples_per_question: int = None) -> BenchmarkSpec:
    if key not in BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {key!r}; known: {sorted(BENCHMARKS)}"
        )
    base = BENCHMARKS[key]
    return replace(
        base, corpus_path=corpus_path,
        samples_per_question=(base.samples_per_question if samples_per_question is None
                              else samples_per_question),
    )


@dataclass(frozen=True)
class EvalAggregate:
    benchmark: str
    accuracy: Optional[float]  # None: no sample
    mean_tokens: Optional[float]  # None: no sample
    n_questions: int
    n_samples: int
    exclusions: int = 0

    def __post_init__(self):
        empty = self.n_samples == 0
        if (self.accuracy is None) != empty or (self.mean_tokens is None) != empty:
            raise ValueError("accuracy and mean_tokens must be None exactly when "
                             "n_samples is 0")
        if not empty and not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if not empty and self.mean_tokens < 0:
            raise ValueError("mean_tokens must be >= 0")


def load_corpus(spec: BenchmarkSpec) -> list:
    """The spec's questions, their golds checked; an empty corpus is an error."""
    questions = load_questions(spec.corpus_path, spec.answer_kind)
    if not questions:
        raise ValueError(f"{spec.corpus_path}: corpus is empty")
    return questions


def evaluate(spec: BenchmarkSpec, questions: list, completions, failures):
    """(records, EvalAggregate) of an eval run over the spec's corpus, as
    load_corpus gives it, from its completions and failed requests.

    It sends nothing: the completions are one per repeat sample, each
    question's in a row.
    """
    chains, _ = split_completions(completions)
    n_correct = verify.grade_chains(chains, questions, spec.answer_kind)[verify.CORRECT]
    records = [{"question_id": c.question_id, "predicted_answer": c.predicted_answer,
                "verdict": c.verdict, "tokens": completion.effective_tokens}
               for c, completion in zip(chains, completions)]

    n_samples = len(records)
    aggregate = EvalAggregate(
        benchmark=spec.name,
        accuracy=mean(n_correct, n_samples),
        mean_tokens=mean(sum(r["tokens"] for r in records), n_samples),
        n_questions=len(questions),
        n_samples=n_samples,
        exclusions=len(failures),
    )
    return records, aggregate


def overall_mean(aggregates):
    """Plain mean over the benchmarks with samples: (accuracy, mean_tokens)."""
    if not aggregates:
        raise ValueError("no benchmark aggregates to average")
    measured = [a for a in aggregates if a.n_samples]
    return (
        mean(sum(a.accuracy for a in measured), len(measured)),
        mean(sum(a.mean_tokens for a in measured), len(measured)),
    )


def overall_weighted(aggregates):
    """Sample-weighted mean over benchmarks: (accuracy, mean_tokens)."""
    measured = [a for a in aggregates if a.n_samples]
    total = sum(a.n_samples for a in measured)
    return (
        mean(sum(a.accuracy * a.n_samples for a in measured), total),
        mean(sum(a.mean_tokens * a.n_samples for a in measured), total),
    )


def token_delta_percent(baseline_tokens: float, method_tokens: float) -> float:
    if baseline_tokens == 0:
        raise ValueError("baseline mean tokens is 0; a percent change is undefined")
    return (method_tokens - baseline_tokens) / baseline_tokens * 100.0


def render_report(aggregates, baseline=None) -> str:
    """Plain-text table: Acc (percent, 2 decimals) and Tokens (2 decimals)."""
    aggregates = list(aggregates)
    acc_m, tok_m = overall_mean(aggregates)
    rows = [(a.benchmark, a.accuracy, a.mean_tokens) for a in aggregates]
    rows += [("Overall (mean)", acc_m, tok_m),
             ("Overall (weighted)", *overall_weighted(aggregates))]
    lines = [f"{'Benchmark':<18} {'Acc':>8} {'Tokens':>12}"]
    lines += [f"{name:<18} {show(acc, '.2%'):>8} {show(tok):>12}" for name, acc, tok in rows]
    skipped = [a.benchmark for a in aggregates if not a.n_samples]
    if skipped:
        lines.append("Overall skips (no samples): " + ", ".join(skipped))
    if baseline is not None:
        base_acc, base_tok = overall_mean(list(baseline))
        delta = "no data"
        if acc_m is not None and base_acc is not None:
            delta = (f"Acc {(acc_m - base_acc) * 100.0:+.2f} pts, "
                     f"Tokens {token_delta_percent(base_tok, tok_m):+.2f}%")
        lines.append(f"Delta vs baseline (overall mean): {delta}")
    return "\n".join(lines)


def aggregates_to_csv(aggregates) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in fields(EvalAggregate))
    writer.writerows(vars(a).values() for a in aggregates)  # None: an empty cell
    return out.getvalue()


def read_aggregates(path) -> list:
    with open(path, encoding="utf-8") as fh, naming(path):
        entries = json.load(fh)
        if type(entries) is not list:
            raise TypeError(f"{type(entries).__name__} is not a JSON list")
    aggregates = []
    for n, d in enumerate(entries, 1):
        with naming(f"{path}: entry {n}"):
            aggregates.append(from_dict(EvalAggregate, d))
    return aggregates


def write_aggregates(path, aggregates):
    write_json(path, [to_dict(a) for a in aggregates])
