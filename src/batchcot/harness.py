"""Per-benchmark accuracy and token-usage evaluation with repeat sampling."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from batchcot import verify
from batchcot.client import EndpointConfig, complete_many
from batchcot.parsing import split_completions
from batchcot.prompts import build_single_prompt, load_questions
from batchcot.records import from_dict, naming, to_dict
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
    accuracy: float
    mean_tokens: float
    n_questions: int
    n_samples: int
    exclusions: int = 0

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if self.mean_tokens < 0:
            raise ValueError("mean_tokens must be >= 0")


def evaluate(spec: BenchmarkSpec, cfg: EndpointConfig, backend):
    """Repeat-sampled single-question evaluation: (records, EvalAggregate)."""
    questions = load_questions(spec.corpus_path, spec.answer_kind)
    if not questions:
        raise ValueError(f"{spec.corpus_path}: corpus is empty")

    envelopes = [build_single_prompt(q) for q in questions
                 for _ in range(spec.samples_per_question)]
    completions = [r for r in complete_many(envelopes, cfg, backend)
                   if not isinstance(r, Exception)]
    chains, _ = split_completions(completions)
    n_correct = verify.grade_chains(chains, questions, spec.answer_kind)[verify.CORRECT]
    records = [{"question_id": c.question_id, "predicted_answer": c.predicted_answer,
                "verdict": c.verdict, "tokens": completion.effective_tokens}
               for c, completion in zip(chains, completions)]

    n_samples = len(records)
    aggregate = EvalAggregate(
        benchmark=spec.name,
        accuracy=n_correct / n_samples if n_samples else 0.0,
        mean_tokens=sum(r["tokens"] for r in records) / n_samples if n_samples else 0.0,
        n_questions=len(questions),
        n_samples=n_samples,
        exclusions=len(envelopes) - n_samples,
    )
    return records, aggregate


def overall_mean(aggregates):
    """Plain mean over benchmarks: (accuracy, mean_tokens)."""
    n = len(aggregates)
    if n == 0:
        raise ValueError("no benchmark aggregates to average")
    return (
        sum(a.accuracy for a in aggregates) / n,
        sum(a.mean_tokens for a in aggregates) / n,
    )


def overall_weighted(aggregates):
    """Sample-weighted mean over benchmarks: (accuracy, mean_tokens)."""
    total = sum(a.n_samples for a in aggregates)
    if total == 0:
        return 0.0, 0.0
    return (
        sum(a.accuracy * a.n_samples for a in aggregates) / total,
        sum(a.mean_tokens * a.n_samples for a in aggregates) / total,
    )


def token_delta_percent(baseline_tokens: float, method_tokens: float) -> float:
    if baseline_tokens == 0:
        raise ValueError("baseline mean tokens is 0; a percent change is undefined")
    return (method_tokens - baseline_tokens) / baseline_tokens * 100.0


def render_report(aggregates, baseline=None) -> str:
    """Plain-text table: Acc (percent, 2 decimals) and Tokens (2 decimals)."""
    aggregates = list(aggregates)
    lines = [f"{'Benchmark':<18} {'Acc':>8} {'Tokens':>12}"]
    for a in aggregates:
        lines.append(f"{a.benchmark:<18} {a.accuracy * 100:>7.2f}% {a.mean_tokens:>12.2f}")
    acc_m, tok_m = overall_mean(aggregates)
    acc_w, tok_w = overall_weighted(aggregates)
    lines.append(f"{'Overall (mean)':<18} {acc_m * 100:>7.2f}% {tok_m:>12.2f}")
    lines.append(f"{'Overall (weighted)':<18} {acc_w * 100:>7.2f}% {tok_w:>12.2f}")
    if baseline is not None:
        base_acc, base_tok = overall_mean(list(baseline))
        acc_delta = (acc_m - base_acc) * 100.0
        tok_delta = token_delta_percent(base_tok, tok_m)
        lines.append(
            f"Delta vs baseline (overall mean): "
            f"Acc {acc_delta:+.2f} pts, Tokens {tok_delta:+.2f}%"
        )
    return "\n".join(lines)


def aggregates_to_csv(aggregates) -> str:
    lines = [",".join(f.name for f in fields(EvalAggregate))]
    lines += [",".join(map(str, vars(a).values())) for a in aggregates]
    return "\n".join(lines) + "\n"


def read_aggregates(path) -> list:
    with open(path, encoding="utf-8") as fh, naming(path):
        entries = json.load(fh)
    aggregates = []
    for n, d in enumerate(entries, 1):
        with naming(f"{path}: entry {n}"):
            aggregates.append(from_dict(EvalAggregate, d))
    return aggregates


def write_aggregates(path, aggregates):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([to_dict(a) for a in aggregates], fh, indent=2, sort_keys=True)
        fh.write("\n")
