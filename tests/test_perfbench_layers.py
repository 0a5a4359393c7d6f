"""The benchmark's traced run wraps batchcot functions by name.

``perfbench/layers.py`` patches each wrapped function as a module attribute.
A refactor that renames or drops one of them must fail here, not only when a
traced benchmark run crashes.
"""

import os
import sys

import pytest

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


def test_install_wraps_every_layer_and_unpatch_restores_it(perfbench_modules):
    layers, tracing = perfbench_modules
    from batchcot import cli, client, grpo, harness, parsing, preference, prompts, verify

    owners = (cli, client, client.MockBackend, client.HttpBackend, grpo, harness,
              parsing, preference, prompts, verify)

    def snapshot():
        return {(owner, name): value for owner in owners
                for name, value in vars(owner).items() if callable(value)}

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
