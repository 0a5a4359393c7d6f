"""Top-level acceptance suite.

Each test covers one release criterion end to end and prints a single
ACCEPTANCE line on success. Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import random
import time
from fractions import Fraction

import inspect

import numpy as np
import pytest

import pipeline_fixtures as pf
from batchcot import verify
from batchcot.cli import main
from batchcot.grpo import (
    GrpoConfig,
    advantage_checks,
    gradient_check,
    kl_checks,
    make_toy_dataset,
    train_toy,
)
from batchcot.harness import EvalAggregate, render_report, token_delta_percent
from batchcot.parsing import (
    CompletionRecord,
    UnsplittableError,
    count_tokens,
    extract_boxed,
    split_batch_chains,
)
from batchcot.preference import PreferenceSample, label_sample
from batchcot.prompts import (
    BATCH,
    VANILLA,
    PromptEnvelope,
    Question,
    build_batch_prompt,
    build_single_prompt,
)
from batchcot.records import read_jsonl


def report(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_01_gradient_check():
    start = time.monotonic()
    err, ok = gradient_check(seed=0)
    elapsed = time.monotonic() - start
    assert ok
    assert err < 1e-6
    assert elapsed < 10.0
    report(1, f"analytic vs finite-difference gradient, max relative error "
              f"{err:.2e} over 100 configs x 2 objective modes in {elapsed:.1f}s")


def test_criterion_02_advantage_properties():
    ok, detail = advantage_checks()
    assert ok, detail
    report(2, "mean-only advantages sum to 0 exactly and carry the "
              "correct-action sign on every binary reward vector of length <= 6")


def test_criterion_03_kl_properties():
    ok, detail = kl_checks(seed=0)
    assert ok, detail
    report(3, "KL((1/2,1/4,1/4) || uniform) = log 3 - 3/2 log 2, KL(p,p)=0 and "
              "KL(p,q)>=0 on 1000 generated pairs, and the KL-term gradient "
              "vanishes at the reference policy within 1e-10")


def test_criterion_04_toy_training():
    dataset = make_toy_dataset(1000, seed=0)
    cfg = GrpoConfig(group_size=16, steps=500)
    start = time.monotonic()
    _, curve_a = train_toy(dataset, cfg, seed=0)
    _, curve_b = train_toy(dataset, cfg, seed=0)
    elapsed = time.monotonic() - start
    assert curve_a == curve_b
    final = curve_a[-1].mean_gold_prob
    assert final > 0.9
    assert elapsed < 60.0
    report(4, f"separable toy fixture (1000 samples, G=16, 500 steps) reaches "
              f"mean gold probability {final:.4f} with bit-identical curves "
              f"in {elapsed:.1f}s")


def test_criterion_05_label_truth_table():
    assert label_sample(VANILLA, verify.CORRECT) == "A"
    assert label_sample(BATCH, verify.CORRECT) == "B"
    for kind in (VANILLA, BATCH):
        for verdict in (verify.INCORRECT, verify.UNPARSEABLE):
            assert label_sample(kind, verdict) == "C"
    report(5, "labeling truth table holds over the full 2x3 "
              "(origin, verdict) domain")


def _random_balanced(rng, depth=0):
    atoms = "abc 01+-/=^_"
    parts = ["".join(rng.choice(atoms) for _ in range(rng.randint(0, 5)))]
    if depth < 3:
        for _ in range(rng.randint(0, 2)):
            parts.append("{" + _random_balanced(rng, depth + 1) + "}")
            parts.append("".join(rng.choice(atoms) for _ in range(rng.randint(0, 4))))
    return "".join(parts)


def test_criterion_06_parser_suite():
    rng = random.Random(20260823)
    for _ in range(10000):
        payload = _random_balanced(rng)
        text = "lead text \\boxed{" + payload + "} trailing"
        assert extract_boxed(text) == [payload]

    questions = pf.make_corpus(4)
    raw = pf.batch_response(questions, 3)
    env = PromptEnvelope(text="p", mode=BATCH, batch_size=4,
                         question_ids=tuple(q.id for q in questions))
    record = CompletionRecord(envelope=env, raw_text=raw,
                              counted_tokens=count_tokens(raw))
    chains = split_batch_chains(record)
    assert len(chains) == 4
    sol_end = raw.index("[Solution Process]") + len("[Solution Process]")
    region = raw[sol_end:raw.index("[Final Answer]")]
    assert "".join(c.text for c in chains) == region

    broken = ("[Solution Process]\n1. a single heading only\n"
              "[Final Answer]\n1. \\boxed{1}\n2. \\boxed{2}\n3. \\boxed{3}\n")
    env3 = PromptEnvelope(text="p", mode=BATCH, batch_size=3,
                          question_ids=("a", "b", "c"))
    with pytest.raises(UnsplittableError):
        split_batch_chains(CompletionRecord(envelope=env3, raw_text=broken,
                                            counted_tokens=count_tokens(broken)))
    report(6, "10000 balanced-brace payloads round-trip through extract_boxed; "
              "batch splits reconstruct the solution region exactly; missing "
              "headings raise UnsplittableError")


def test_criterion_07_verifier_suite():
    half = verify.normalize_numeric("\\frac{1}{2}")
    assert half == verify.normalize_numeric("0.5")
    assert half == verify.normalize_numeric("2/4")
    assert verify.normalize_numeric("0.5") == verify.normalize_numeric("2/4")

    rng = random.Random(715)
    for _ in range(10000):
        n = rng.randint(-10 ** 6, 10 ** 6)
        d = rng.randint(1, 1000)
        m = rng.randint(2, 9)
        a = verify.normalize_numeric(f"{n}/{d}")
        b = verify.normalize_numeric(f"\\frac{{{n}}}{{{d}}}")
        c = verify.normalize_numeric(f"{n * m}/{d * m}")
        assert a is not None and b is not None and c is not None
        # reflexivity, symmetry and agreement across surface forms
        assert a == a
        assert a == b and b == a
        assert b == c and a == c
        assert a == Fraction(n, d)
        shifted = verify.normalize_numeric(f"{n + d}/{d}")
        assert not a == shifted

    for fn in (verify.normalize_numeric, verify.grade):
        source = inspect.getsource(fn)
        assert "float(" not in source
        assert "math." not in source
    report(7, "equivalence relation over 10000 generated rationals, "
              "1/2 == 0.5 == 2/4, and the equality path is exact arithmetic "
              "only (source audit)")


def test_criterion_08_end_to_end_mock_pipeline(tmp_path):
    questions = pf.make_corpus()
    corpus = tmp_path / "questions.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps({"id": q.id, "text": q.text,
                                 "gold_answer": q.gold_answer}) + "\n")
    mock_dir = tmp_path / "mock"
    pf.write_script_dir(pf.build_script(questions, (1, 2, 3), seed=0,
                                        group="sequential"), mock_dir)

    gen_dir = tmp_path / "gen"
    assert main(["gen", "--questions", str(corpus), "--out-dir", str(gen_dir),
                 "--batch-size", "1", "--batch-size", "2", "--batch-size", "3",
                 "--group", "sequential", "--seed", "0",
                 "--mock", str(mock_dir)]) == 0
    label_inputs = []
    for k in (1, 2, 3):
        chains = tmp_path / f"chains_k{k}.jsonl"
        graded = tmp_path / f"graded_k{k}.jsonl"
        assert main(["split", "--in", str(gen_dir / f"completions_k{k}.jsonl"),
                     "--out", str(chains)]) == 0
        assert main(["grade", "--in", str(chains), "--questions", str(corpus),
                     "--out", str(graded)]) == 0
        label_inputs += ["--in", str(graded)]
    prefs = tmp_path / "prefs.jsonl"
    assert main(["label", "--questions", str(corpus), "--out", str(prefs),
                 "--seed", "0"] + label_inputs) == 0

    counts = {"A": 0, "B": 0, "C": 0}
    for sample in read_jsonl(prefs, PreferenceSample):
        counts[sample.gold_label] += 1
    expected = pf.expected_label_counts()
    assert counts == expected

    exp_dir = tmp_path / "exp"
    assert main(["batch-experiment", "--questions", str(corpus),
                 "--out-dir", str(exp_dir), "--batch-size", "1",
                 "--batch-size", "2", "--batch-size", "3",
                 "--group", "sequential", "--seed", "0",
                 "--mock", str(mock_dir)]) == 0
    rows = [json.loads(line)
            for line in (exp_dir / "experiment.jsonl").read_text().splitlines()]
    tokens = [r["mean_tokens_per_question"] for r in rows]
    assert tokens[0] > tokens[1] > tokens[2]
    report(8, f"mock pipeline gen->split->grade->label yields exactly "
              f"{expected} over 60 questions; mean tokens/question decrease "
              f"monotonically in batch size ({tokens[0]:.1f} > {tokens[1]:.1f} "
              f"> {tokens[2]:.1f})")


def test_criterion_09_report_fidelity():
    fixture = [
        ("GSM8K", 0.8467, 1928.96),
        ("MATH-500", 0.8333, 5536.14),
        ("AIME 2024", 0.2867, 14394.61),
        ("AIME 2025", 0.3084, 14731.59),
        ("AMC 2023", 0.7250, 8830.10),
        ("GPQA-Diamond", 0.2367, 15323.30),
    ]
    aggregates = [
        EvalAggregate(benchmark=name, accuracy=acc, mean_tokens=tok,
                      n_questions=100, n_samples=100, exclusions=0)
        for name, acc, tok in fixture
    ]
    text = render_report(aggregates)
    for name, acc, tok in fixture:
        row = next(line for line in text.splitlines() if line.startswith(name))
        assert f"{acc * 100:.2f}%" in row
        assert f"{tok:.2f}" in row
    assert "84.67%" in text and "1928.96" in text
    overall = next(line for line in text.splitlines()
                   if line.startswith("Overall (mean)"))
    assert "53.95%" in overall
    assert "10124.12" in overall

    delta = token_delta_percent(9661.68, 6362.89)
    assert delta == pytest.approx(-34.14, abs=0.01)
    report(9, f"report rows reproduce the reference aggregates to 2 decimals "
              f"(overall 53.95% / 10124.12) and the overall token delta is "
              f"{delta:.2f}%")


def test_criterion_10_prompt_fidelity():
    questions = [Question(id="a", text="What is 1+1?", gold_answer="2"),
                 Question(id="b", text="What is 2+2?", gold_answer="4")]
    batch = build_batch_prompt(questions).text
    assert "Please answer the following math problems in order" in batch
    assert "[Solution Process]" in batch
    assert "[Final Answer]" in batch
    single = build_single_prompt(questions[0]).text
    assert single.endswith("within \\boxed{}.")
    report(10, "batch prompt carries the required header and section markers "
               "byte-exactly; single prompt ends with the boxed-answer "
               "instruction")
