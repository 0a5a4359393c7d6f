"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a source checkout. They check that one seed gives
identical inputs, that the checker catches a planted mis-attribution, that
span self time is computed as documented, and that the machine-speed probe
stays out of the loopback server's counters and rescales as documented.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
import gen_inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SMALL = 40  # questions: every hostile kind still appears at batch sizes 4 and 8


def _tmp():
    os.makedirs(run.OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix="test-", dir=run.OUT)


def test_same_seed_gives_identical_inputs():
    a, b, c = _tmp(), _tmp(), _tmp()
    try:
        for path, seed in ((a, 7), (b, 7), (c, 8)):
            gen_inputs.make_pipeline_inputs(path, seed, n_questions=SMALL)
            gen_inputs.make_eval_inputs(path, seed)
        assert checker.output_digests(a) == checker.output_digests(b)
        assert checker.output_digests(a) != checker.output_digests(c)
    finally:
        for path in (a, b, c):
            shutil.rmtree(path)


def _swap_texts(path, i, j):
    rows = checker.read_jsonl(path)
    rows[i]["text"], rows[j]["text"] = rows[j]["text"], rows[i]["text"]
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def test_checker_catches_planted_misattribution():
    work = _tmp()
    try:
        truth = gen_inputs.make_pipeline_inputs(work, 3, n_questions=SMALL)
        pipeline = run.MockPipeline(work, 3, truth)
        pipeline.one_pass()
        before = pipeline.check()
        assert before.hard == []
        # the known mis-split: numbered steps in problem 1 move chain 2's start
        steps = sum(rec["kind"] == gen_inputs.STEPS for rec in truth["records"])
        assert before.notes["misattributed_chains"] == 2 * steps > 0

        files = checker.pipeline_files(pipeline.run_dir, truth["batch_sizes"])
        clean = next(rec for rec in truth["records"]
                     if rec["k"] == 4 and rec["kind"] == gen_inputs.CLEAN)
        graded = checker.read_jsonl(files["graded"][4])
        i, j = (n for n, g in enumerate(graded)
                if g["question_id"] in clean["question_ids"][:2])
        _swap_texts(files["chains"][4], i, j)
        _swap_texts(files["graded"][4], i, j)
        after = pipeline.check()
        assert after.notes["misattributed_chains"] == before.notes["misattributed_chains"] + 2
        assert after.failed == before.failed + 2
        assert any("clean response" in message for message in after.hard)
    finally:
        shutil.rmtree(work)


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span(1, "harness.evaluate", None, None)
    parent.start, parent.end = 0.0, 10.0
    children = []
    for n, (start, end) in enumerate(((1.0, 3.0), (2.0, 5.0), (8.0, 12.0)), 2):
        child = tracing.Span(n, "client.complete", 1, n)
        child.start, child.end = start, end
        children.append(child)
    own = tracing.self_times([parent] + children)
    assert own[1] == 10.0 - 4.0 - 2.0
    assert own[2] == 2.0


def test_tracer_records_nesting_and_restores_functions():
    import batchcot.prompts as prompts

    original = prompts.build_prompt
    tracer = tracing.Tracer()
    tracer.patch(prompts, "build_prompt",
                 tracer.wrap("prompts.build_prompt", original), "batchcot")
    tracer.patch(prompts, "build_batch_prompt",
                 tracer.wrap("prompts.build_batch_prompt", prompts.build_batch_prompt),
                 "batchcot")
    questions = [prompts.Question(id=f"q{i}", text=f"What is {i}?", gold_answer=str(i))
                 for i in range(2)]
    prompts.build_prompt(questions)
    tracer.unpatch()
    assert prompts.build_prompt is original
    outer, = [s for s in tracer.spans if s.name == "prompts.build_prompt"]
    inner, = [s for s in tracer.spans if s.name == "prompts.build_batch_prompt"]
    assert inner.parent == outer.id and outer.start <= inner.start <= inner.end <= outer.end


def test_speed_probe_round_trips_stay_out_of_the_server_counters():
    work = _tmp()
    try:
        gen_inputs.make_eval_inputs(work, 1)
        server = run.LoopbackServer(os.path.join(work, "responses.json"))
        try:
            probe_s = speed.time_probe(speed.make_probe("http-eval", server.probe_address))
        finally:
            stats = server.stop()
        assert probe_s > 0
        assert stats["connections"] == stats["requests"] == stats["unknown_prompts"] == 0
    finally:
        shutil.rmtree(work)


def test_rescale_divides_by_the_mean_probe_time():
    ref = speed.REFERENCE_S
    assert speed.rescale(1.0, ref, ref) == 1.0
    assert abs(speed.rescale(1.0, 2 * ref, 2 * ref) - 0.5) < 1e-12
    assert abs(speed.rescale(3.0, ref, 2 * ref) - 2.0) < 1e-12
