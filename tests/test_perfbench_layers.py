"""The benchmark's traced run wraps batchcot functions by name.

``perfbench/layers.py`` patches each wrapped function as a module attribute.
A refactor that renames or drops one of them must fail here, not only when a
traced benchmark run crashes; so must one that moves a stage off the wrapped
functions, which would zero that stage's per-layer metrics.
"""

import json
import os
import sys

import pytest

import pipeline_fixtures as pf

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import tracing
    yield layers, tracing
    for name in ("layers", "tracing"):
        sys.modules.pop(name, None)


def snapshot():
    """Every callable attribute of every module and class the traced run patches."""
    from batchcot import cli, client, grpo, harness, parsing, preference, prompts, verify

    owners = (cli, client, client.MockBackend, client.HttpBackend, grpo, harness,
              parsing, preference, prompts, verify)
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items() if callable(value)}


def test_install_wraps_every_layer_and_unpatch_restores_it(perfbench_modules):
    layers, tracing = perfbench_modules
    from batchcot import client, grpo, harness, parsing, preference

    before = snapshot()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        wrapped = {key for key, value in snapshot().items() if value is not before[key]}
    finally:
        tracer.unpatch()
    assert {(parsing, "write_chains"), (parsing, "read_completions"),
            (preference, "write_samples"), (harness, "write_aggregates"),
            (client, "run_batch_experiment"), (client.HttpBackend, "send"),
            (grpo, "grpo_loss")} <= wrapped
    assert snapshot() == before


def test_traced_split_and_experiment_record_their_layers(perfbench_modules, tmp_path):
    layers, tracing = perfbench_modules
    from batchcot import cli

    questions = pf.make_corpus(12)
    corpus = tmp_path / "questions.jsonl"
    corpus.write_text("".join(json.dumps({"id": q.id, "text": q.text,
                                          "gold_answer": q.gold_answer}) + "\n"
                              for q in questions))
    mock = tmp_path / "mock"
    pf.write_script_dir(pf.build_script(questions, (1, 2), group="sequential"), mock)
    common = ["--questions", str(corpus), "--batch-size", "1", "--batch-size", "2",
              "--group", "sequential", "--mock", str(mock)]
    assert cli.main(["gen", "--out-dir", str(tmp_path / "gen")] + common) == 0

    before = snapshot()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        for k in (1, 2):
            assert cli.main(["split", "--in", str(tmp_path / "gen" / f"completions_k{k}.jsonl"),
                             "--out", str(tmp_path / f"chains_k{k}.jsonl")]) == 0
        assert cli.main(["batch-experiment", "--out-dir", str(tmp_path / "exp")]
                        + common) == 0
    finally:
        tracer.unpatch()
    assert snapshot() == before
    assert {"parsing.split_batch_chains", "parsing.vanilla_chain",
            "client.run_batch_experiment", "verify.grade"} <= {s.name for s in tracer.spans}
    assert layers.span_metrics(tracer.spans, tracer.counts)["parsing.split_s"] > 0


def test_traced_grpo_commands_count_each_loss_evaluation(perfbench_modules, tmp_path):
    # grpo-check's gradient check makes 2 grpo_loss calls, one stacked for the
    # analytic gradients and one for the finite-difference losses; training
    # makes 1 per step
    layers, tracing = perfbench_modules
    from batchcot import cli

    steps = 7
    before = snapshot()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        assert cli.main(["grpo-check", "--seed", "8"]) == 0
        assert cli.main(["grpo-train-toy", "--samples", "20", "--steps", str(steps),
                         "--seed", "1", "--out-dir", str(tmp_path / "toy")]) == 0
    finally:
        tracer.unpatch()
    assert snapshot() == before
    assert tracer.counts["grpo.loss_evals"] == 2 + steps
    assert layers.span_metrics(tracer.spans, tracer.counts)["grpo.loss_evals"] == 2 + steps
