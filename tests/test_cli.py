import argparse
import ast
import contextlib
import csv
import inspect
import io
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import batchcot
import pipeline_fixtures as pf
from http_fixtures import mock_http_server, open_sockets_to
from batchcot import __version__, cli, client, harness, parsing, verify
from batchcot.client import (
    EndpointConfig,
    MockBackend,
    fingerprint,
    run_batch_experiment,
)
from batchcot.cli import build_parser, main, resolve_endpoint_config
from batchcot.preference import PreferenceSample
from batchcot.prompts import build_prompt, load_questions, shuffle_and_group
from batchcot.records import read_jsonl, to_dict


def write_corpus(path, questions):
    with open(path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps({"id": q.id, "text": q.text,
                                 "gold_answer": q.gold_answer,
                                 "source": q.source}) + "\n")


def count_mock_sends(monkeypatch) -> list:
    """The prompt of every MockBackend.send call from here on, in order."""
    sent = []
    send = MockBackend.send

    def counted(backend, prompt_text, cfg):
        sent.append(prompt_text)
        return send(backend, prompt_text, cfg)

    monkeypatch.setattr(MockBackend, "send", counted)
    return sent


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus, mock-response dir, and a completed gen run shared by tests."""
    root = tmp_path_factory.mktemp("cliws")
    questions = pf.make_corpus()
    corpus = root / "questions.jsonl"
    write_corpus(corpus, questions)
    mock_dir = root / "mock"
    pf.write_script_dir(pf.build_script(questions, (1, 2, 3), seed=0, group="sequential"),
                        mock_dir)
    gen_dir = root / "gen"
    argv = ["gen", "--questions", str(corpus), "--out-dir", str(gen_dir),
            "--batch-size", "1", "--batch-size", "2", "--batch-size", "3",
            "--group", "sequential", "--seed", "0", "--mock", str(mock_dir)]
    assert main(argv) == 0
    return {"root": root, "corpus": corpus, "mock": mock_dir, "gen": gen_dir}


class TestGen:
    def test_outputs_exist(self, workspace):
        for k in (1, 2, 3):
            path = workspace["gen"] / f"completions_k{k}.jsonl"
            assert path.exists()
            lines = path.read_text().splitlines()
            expected = pf.N_QUESTIONS // k
            assert len(lines) == expected
        assert (workspace["gen"] / "manifest.json").exists()

    def test_manifest_replay_is_byte_identical(self, workspace):
        manifest = json.loads((workspace["gen"] / "manifest.json").read_text())
        before = {
            k: (workspace["gen"] / f"completions_k{k}.jsonl").read_bytes()
            for k in (1, 2, 3)
        }
        assert main(manifest["argv"]) == 0
        for k in (1, 2, 3):
            after = (workspace["gen"] / f"completions_k{k}.jsonl").read_bytes()
            assert after == before[k]

    def test_leftover_questions_not_sent(self, tmp_path, capsys):
        # 9 questions at k=4: two batches, and the ninth question goes nowhere,
        # not into a one-question vanilla prompt
        corpus, mock, out = tmp_path / "questions.jsonl", tmp_path / "mock", tmp_path / "gen"
        questions = pf.make_corpus(9)
        write_corpus(corpus, questions)
        pf.write_script_dir(pf.build_script(questions, (4,), group="random"), mock)
        assert main(["gen", "--questions", str(corpus), "--out-dir", str(out),
                     "--batch-size", "4", "--mock", str(mock)]) == 0
        rows = [json.loads(line)
                for line in (out / "completions_k4.jsonl").read_text().splitlines()]
        assert [row["envelope"]["mode"] for row in rows] == ["batch", "batch"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exclusions"] == {"request_failures": 0, "ungrouped": 1}

    def test_manifest_contents(self, workspace):
        manifest = json.loads((workspace["gen"] / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 0
        assert manifest["batch_sizes"] == [1, 2, 3]
        assert str(workspace["corpus"]) in manifest["inputs"]
        assert manifest["tool_version"]
        assert manifest["exclusions"] == {"request_failures": 0, "ungrouped": 0}

    def test_manifest_counts_request_failures(self, workspace, tmp_path, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            closed_port = sock.getsockname()[1]
        out = tmp_path / "gen"
        assert main(["gen", "--questions", str(workspace["corpus"]),
                     "--out-dir", str(out), "--batch-size", "1", "--batch-size", "3",
                     "--base-url", f"http://127.0.0.1:{closed_port}/v1",
                     "--max-retries", "0"]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        n_envelopes = pf.N_QUESTIONS + pf.N_QUESTIONS // 3
        assert manifest["exclusions"] == {"request_failures": n_envelopes, "ungrouped": 0}


ENDPOINT_CONFIG = {"base_url": "", "max_concurrent": 4, "max_retries": 3,
                   "max_tokens": 32768, "model": "mock", "temperature": 0.6,
                   "timeout": 120.0}

# argv, manifest path and every manifest value but started/finished, with
# paths relative to the run directory
MANIFEST_RUNS = {
    "gen": (
        ["gen", "--questions", "questions.jsonl", "--out-dir", "gen",
         "--batch-size", "1", "--batch-size", "2", "--seed", "4", "--mock", "mock"],
        "gen/manifest.json",
        {"batch_sizes": [1, 2], "config": ENDPOINT_CONFIG,
         "exclusions": {"request_failures": 0, "ungrouped": 0}, "group": "random",
         "inputs": ["questions.jsonl"],
         "outputs": ["gen/completions_k1.jsonl", "gen/completions_k2.jsonl"], "seed": 4},
    ),
    "split": (
        ["split", "--in", "gen/completions_k2.jsonl", "--out", "chains.jsonl"],
        "chains.jsonl.manifest.json",
        {"config": {}, "exclusions": {"unsplittable": 0},
         "inputs": ["gen/completions_k2.jsonl"], "outputs": ["chains.jsonl"], "seed": None},
    ),
    "grade": (
        ["grade", "--in", "chains.jsonl", "--questions", "questions.jsonl",
         "--out", "graded.jsonl"],
        "graded.jsonl.manifest.json",
        {"config": {}, "exclusions": {}, "inputs": ["chains.jsonl", "questions.jsonl"],
         "outputs": ["graded.jsonl"], "seed": None,
         "verdict_counts": {"correct": 45, "incorrect": 15}},
    ),
    "label": (
        ["label", "--in", "graded.jsonl", "--questions", "questions.jsonl",
         "--out", "prefs.jsonl", "--seed", "2"],
        "prefs.jsonl.manifest.json",
        {"config": {}, "exclusions": {}, "inputs": ["graded.jsonl", "questions.jsonl"],
         "outputs": ["prefs.jsonl"], "seed": 2,
         "dataset": {"label_counts": {"A": 0, "B": 45, "C": 15}, "mode": "per_chain",
                     "n_questions": 60, "n_samples": 60, "seed": 2,
                     "template_version": "judge-prompt-v1"}},
    ),
    "grpo-train-toy": (
        ["grpo-train-toy", "--samples", "20", "--steps", "5", "--seed", "1",
         "--out-dir", "toy"],
        "toy/manifest.json",
        {"config": {"advantage_mode": "mean_std", "beta": 0.01, "group_size": 16,
                    "learning_rate": 0.5, "objective_mode": "sampled", "samples": 20,
                    "steps": 5},
         "exclusions": {}, "inputs": [], "outputs": ["toy/curve.csv", "toy/policy.txt"],
         "seed": 1},
    ),
    "eval": (
        ["eval", "--benchmark", "gsm8k", "--corpus", "questions.jsonl",
         "--out-dir", "eval", "--seed", "7", "--mock", "mock"],
        "eval/manifest.json",
        {"config": ENDPOINT_CONFIG, "exclusions": {"request_failures": 0},
         "inputs": ["questions.jsonl"],
         "outputs": ["eval/results.jsonl", "eval/aggregate.json", "eval/report.txt"],
         "seed": 7},
    ),
    "batch-experiment": (
        ["batch-experiment", "--questions", "questions.jsonl", "--out-dir", "exp",
         "--batch-size", "1", "--batch-size", "2", "--seed", "4", "--mock", "mock"],
        "exp/manifest.json",
        {"batch_sizes": [1, 2], "config": ENDPOINT_CONFIG,
         "exclusions": {"request_failures": 0, "ungrouped": 0, "unsplittable": 0},
         "group": "random",
         "inputs": ["questions.jsonl"],
         "outputs": ["exp/experiment.jsonl", "exp/experiment.txt"], "seed": 4},
    ),
}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """Every manifest-writing command run in order in one directory: {command: manifest}."""
    root = tmp_path_factory.mktemp("manifests")
    questions = pf.make_corpus()
    write_corpus(root / "questions.jsonl", questions)
    pf.write_script_dir(pf.build_script(questions, (1, 2), seed=4, group="random"),
                        root / "mock")
    written = {}
    with contextlib.chdir(root):
        for command, (argv, path, _) in MANIFEST_RUNS.items():
            assert main(argv) == 0
            written[command] = json.loads(Path(path).read_text())
    return written


class TestManifests:
    @pytest.mark.parametrize("command", MANIFEST_RUNS)
    def test_manifest_is_pinned(self, manifests, command):
        argv, _, expected = MANIFEST_RUNS[command]
        manifest = dict(manifests[command])
        assert set(manifest) == {"argv", "command", "started", "finished",
                                 "tool_version"} | set(expected)
        assert manifest.pop("started") <= manifest.pop("finished")
        assert manifest == {"argv": argv, "command": command,
                            "tool_version": __version__, **expected}

    def test_manifest_bytes_are_those_json_dump_writes(self, tmp_path):
        args = argparse.Namespace(command="split", out=str(tmp_path / "c.jsonl"))
        cli.write_run_manifest(args, ["split", "--in", "caf\u00e9"], "T0",
                               {"exclusions": {"unsplittable": 2}, "outputs": []})
        text = (tmp_path / "c.jsonl.manifest.json").read_text(encoding="utf-8")
        reference = io.StringIO()
        json.dump(json.loads(text), reference, indent=2, sort_keys=True)
        assert text == reference.getvalue() + "\n"


@pytest.fixture(scope="module")
def labeled(workspace):
    """Runs split, grade, and label over the gen outputs once per module."""
    root = workspace["root"]
    graded_paths = []
    for k in (1, 2, 3):
        chains = root / f"chains_k{k}.jsonl"
        graded = root / f"graded_k{k}.jsonl"
        assert main(["split",
                     "--in", str(workspace["gen"] / f"completions_k{k}.jsonl"),
                     "--out", str(chains)]) == 0
        assert main(["grade", "--in", str(chains),
                     "--questions", str(workspace["corpus"]),
                     "--out", str(graded)]) == 0
        graded_paths.append(graded)
    prefs = root / "prefs.jsonl"
    argv = ["label", "--questions", str(workspace["corpus"]),
            "--out", str(prefs), "--seed", "0"]
    for path in graded_paths:
        argv += ["--in", str(path)]
    assert main(argv) == 0
    return prefs


class TestPipeline:
    def test_label_distribution_matches_design(self, labeled):
        samples = read_jsonl(labeled, PreferenceSample)
        counts = {"A": 0, "B": 0, "C": 0}
        for sample in samples:
            counts[sample.gold_label] += 1
        assert counts == pf.expected_label_counts()

    def test_label_manifest(self, labeled):
        with open(str(labeled) + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["dataset"]["label_counts"] == pf.expected_label_counts()

    def test_grade_carries_split_token_counts(self, labeled, workspace, tmp_path,
                                              monkeypatch):
        counted = []
        count = parsing.count_tokens
        monkeypatch.setattr(parsing, "count_tokens",
                            lambda text: counted.append(text) or count(text))
        root = workspace["root"]
        out = tmp_path / "graded.jsonl"
        assert main(["grade", "--in", str(root / "chains_k2.jsonl"),
                     "--questions", str(workspace["corpus"]), "--out", str(out)]) == 0
        assert counted == []
        assert out.read_bytes() == (root / "graded_k2.jsonl").read_bytes()

    def test_grade_rejects_unknown_ids(self, workspace, tmp_path):
        stray = tmp_path / "tiny.jsonl"
        write_corpus(stray, pf.make_corpus(1))
        chains = workspace["root"] / "chains_k1.jsonl"
        assert main(["grade", "--in", str(chains), "--questions", str(stray),
                     "--out", str(tmp_path / "out.jsonl")]) == 1


class TestBatchExperiment:
    def test_tokens_decrease_with_batch_size(self, workspace, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["batch-experiment", "--questions", str(workspace["corpus"]),
                     "--out-dir", str(out), "--batch-size", "1",
                     "--batch-size", "2", "--batch-size", "3",
                     "--group", "sequential", "--seed", "0",
                     "--mock", str(workspace["mock"])]) == 0
        rows = [json.loads(line)
                for line in (out / "experiment.jsonl").read_text().splitlines()]
        tokens = [r["mean_tokens_per_question"] for r in rows]
        assert tokens[0] > tokens[1] > tokens[2]
        assert (out / "experiment.txt").exists()
        assert "Vanilla" in capsys.readouterr().out

    def test_ungrouped_summed_over_batch_sizes(self, tmp_path, capsys):
        corpus, mock, out = tmp_path / "questions.jsonl", tmp_path / "mock", tmp_path / "exp"
        questions = pf.make_corpus(9)
        write_corpus(corpus, questions)
        pf.write_script_dir(pf.build_script(questions, (2, 4), group="random"), mock)
        assert main(["batch-experiment", "--questions", str(corpus), "--out-dir", str(out),
                     "--batch-size", "2", "--batch-size", "4", "--mock", str(mock)]) == 0
        rows = [json.loads(line)
                for line in (out / "experiment.jsonl").read_text().splitlines()]
        assert [(r["n_groups"], r["n_graded"]) for r in rows] == [(4, 8), (2, 8)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exclusions"]["ungrouped"] == 1 + 1


    def test_row_with_nothing_graded_is_no_data(self, tmp_path, capsys):
        # 3 questions at k=4 make no group: the row has no accuracy and no
        # tokens to report, which must not read as a measured 0.00%
        corpus, mock, out = tmp_path / "questions.jsonl", tmp_path / "mock", tmp_path / "exp"
        write_corpus(corpus, pf.make_corpus(3))
        mock.mkdir()
        assert main(["batch-experiment", "--questions", str(corpus), "--out-dir", str(out),
                     "--batch-size", "4", "--mock", str(mock)]) == 0
        printed = capsys.readouterr().out
        assert "0.00" not in printed
        assert printed.splitlines()[1].split() == ["Batch-4", "-", "-", "-", "0", "0", "0"]
        assert (out / "experiment.txt").read_text() == printed
        [row] = [json.loads(line)
                 for line in (out / "experiment.jsonl").read_text().splitlines()]
        assert row["n_graded"] == 0
        assert (row["accuracy"], row["mean_tokens_per_question"],
                row["mean_tokens_split"]) == (None, None, None)


# bad input to gen and batch-experiment: (flags, what the error names)
BAD_BATCH_RUNS = {
    "size-0": (["--batch-size", "1", "--batch-size", "0"], "--batch-size 0 "),
    "size-twice": (["--batch-size", "2", "--batch-size", "2"], "--batch-size 2 "),
    "out-dir-taken": (["--batch-size", "1", "--batch-size", "2"], "File exists"),
}


class TestBadInputSendsNothing:
    """A command that sends requests checks its input first: on bad input it
    exits 1 with no request sent, counted at client.complete, which every
    request goes through, and no output file written."""

    @pytest.mark.parametrize("command, case", [
        (command, case) for command in ("gen", "batch-experiment") for case in BAD_BATCH_RUNS
    ] + [("eval", "out-dir-taken")])
    def test_exits_1_before_any_request(self, workspace, tmp_path, monkeypatch, capsys,
                                        command, case):
        sent = []
        complete = client.complete
        monkeypatch.setattr(client, "complete",
                            lambda *args: sent.append(args) or complete(*args))
        out = tmp_path / "out"
        if case == "out-dir-taken":
            out.write_text("a file where the out-dir should go")
        flags, named = BAD_BATCH_RUNS[case]
        if command == "eval":
            flags = ["--benchmark", "gsm8k", "--corpus", str(workspace["corpus"])]
        else:
            flags = flags + ["--questions", str(workspace["corpus"])]
        assert main([command, "--out-dir", str(out), "--mock", str(workspace["mock"])]
                    + flags) == 1
        assert sent == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        # no out-dir made: only the file that blocks one is there
        assert [p.name for p in tmp_path.iterdir()] == (
            ["out"] if case == "out-dir-taken" else [])

    @pytest.mark.parametrize("flags", [["--timeout", "nan"], [],
                                       ["--mock", "no-such-mock-dir"]],
                             ids=["timeout-nan", "no-endpoint", "missing-mock"])
    @pytest.mark.parametrize("command", ["gen", "batch-experiment", "eval"])
    def test_corpus_fault_is_named_before_an_endpoint_fault(
            self, tmp_path, monkeypatch, capsys, command, flags):
        # the corpus is loaded before the endpoint settings are checked and
        # before the backend is built, so of two faults it is the one named
        monkeypatch.delenv("BATCHCOT_API_KEY", raising=False)
        corpus, out = tmp_path / "missing.jsonl", tmp_path / "out"
        corpus_flags = (["--benchmark", "gsm8k", "--corpus", str(corpus)] if command == "eval"
                        else ["--questions", str(corpus), "--batch-size", "1"])
        assert main([command, "--out-dir", str(out)] + corpus_flags + flags) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{corpus}'\n"
        assert list(tmp_path.iterdir()) == []


def run_split_grade_and_experiment(tmp_path, questions, script, k):
    """gen, split and grade one batch size, then batch-experiment on the same script.

    Returns (experiment row, graded chains, split manifest's unsplittable count).
    """
    corpus = tmp_path / "questions.jsonl"
    write_corpus(corpus, questions)
    mock = tmp_path / "mock"
    pf.write_script_dir(script, mock)
    common = ["--questions", str(corpus), "--batch-size", str(k),
              "--group", "sequential", "--mock", str(mock)]
    chains, graded = tmp_path / "chains.jsonl", tmp_path / "graded.jsonl"
    assert main(["gen", "--out-dir", str(tmp_path / "gen")] + common) == 0
    assert main(["split", "--in", str(tmp_path / "gen" / f"completions_k{k}.jsonl"),
                 "--out", str(chains)]) == 0
    assert main(["grade", "--in", str(chains), "--questions", str(corpus),
                 "--out", str(graded)]) == 0
    assert main(["batch-experiment", "--out-dir", str(tmp_path / "exp")] + common) == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "exp" / "experiment.jsonl").read_text().splitlines()]
    manifest = json.loads((tmp_path / "chains.jsonl.manifest.json").read_text())
    return (row, [json.loads(line) for line in graded.read_text().splitlines()],
            manifest["exclusions"]["unsplittable"])


def batch_text(segments, block):
    """A batch response: numbered segments, then numbered block entries."""
    return "\n".join(["[Solution Process]"]
                     + [f"{pos}. {seg}" for pos, seg in enumerate(segments, 1)]
                     + ["[Final Answer]"]
                     + [f"{pos}. \\boxed{{{ans}}}" for pos, ans in block])


class TestExperimentAgreesWithSplitGrade:
    """batch-experiment grades the chains split and grade write, on one script."""

    def test_row_is_a_function_of_gens_completions(self, tmp_path):
        # each row is run_batch_experiment over the completions gen writes
        # for the same flags; one batch-2 response lacks its second heading,
        # so that row also grades a response from its block
        questions = pf.make_corpus(7)
        script = pf.build_script(questions, (1, 2, 3), seed=3, group="random")
        first = shuffle_and_group(questions, 2, seed=3)[0]
        script.add(build_prompt(first).text,
                   pf.batch_response(first, 2).replace("\n2. ", "\n", 1))
        corpus, mock = tmp_path / "questions.jsonl", tmp_path / "mock"
        write_corpus(corpus, questions)
        pf.write_script_dir(script, mock)
        common = ["--questions", str(corpus), "--batch-size", "2", "--batch-size", "1",
                  "--batch-size", "3", "--seed", "3", "--mock", str(mock)]
        assert main(["gen", "--out-dir", str(tmp_path / "gen")] + common) == 0
        assert main(["batch-experiment", "--out-dir", str(tmp_path / "exp")] + common) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "exp" / "experiment.jsonl").read_text().splitlines()]
        assert [(r["batch_size"], r["n_unsplittable"]) for r in rows] == [
            (2, 1), (1, 0), (3, 0)]
        corpus_questions = load_questions(str(corpus))
        assert rows == [to_dict(run_batch_experiment(
            corpus_questions, k,
            parsing.read_completions(tmp_path / "gen" / f"completions_k{k}.jsonl"), []))
            for k in (2, 1, 3)]

    def test_block_skipping_a_boxed_position(self, tmp_path):
        questions = pf.make_corpus(3)
        golds = [q.gold_answer for q in questions]
        text = batch_text([f"work, so \\boxed{{{g}}}" for g in golds],
                          [(1, golds[0]), (3, golds[2])])
        script = MockBackend()
        script.add(build_prompt(questions).text, text)
        row, graded, _ = run_split_grade_and_experiment(tmp_path, questions, script, 3)
        assert [g["verdict"] for g in graded] == ["correct"] * 3
        assert (row["n_graded"], row["accuracy"]) == (3, 1.0)

    def test_vanilla_row_counts_split_tokens_like_split(self, tmp_path):
        questions = pf.make_corpus(2)
        script = MockBackend()
        for q in questions:
            script.add(build_prompt([q]).text, f"a b c \\boxed{{{q.gold_answer}}}",
                       tokens=999)
        row, graded, _ = run_split_grade_and_experiment(tmp_path, questions, script, 1)
        assert row["mean_tokens_per_question"] == 999
        assert row["mean_tokens_split"] == sum(g["token_count"] for g in graded) / 2 == 4

    def test_unsplittable_response_graded_from_its_block(self, tmp_path):
        questions = pf.make_corpus(4)
        golds = [q.gold_answer for q in questions]
        script = MockBackend()
        # no numbered headings: unsplittable; its block has one right answer
        script.add(build_prompt(questions[:2]).text,
                   f"I solved both.\n[Final Answer]\n1. \\boxed{{{golds[0]}}}\n"
                   f"2. \\boxed{{0}}")
        # splittable, but its block leaves out position 2, boxed in its segment
        script.add(build_prompt(questions[2:]).text,
                   batch_text([f"so \\boxed{{{g}}}" for g in golds[2:]], [(1, golds[2])]))
        row, graded, unsplittable = run_split_grade_and_experiment(
            tmp_path, questions, script, 2)
        assert row["n_unsplittable"] == unsplittable == 1
        assert [g["question_id"] for g in graded] == ["q002", "q003"]
        assert [g["verdict"] for g in graded] == ["correct"] * 2
        assert (row["n_graded"], row["accuracy"]) == (4, 3 / 4)
        assert row["mean_tokens_split"] == sum(g["token_count"] for g in graded) / 2

    def test_unsplittable_response_without_block_is_unparseable(self, tmp_path):
        questions = pf.make_corpus(2)
        golds = [q.gold_answer for q in questions]
        script = MockBackend()
        # no numbered headings and no block: its k boxes are the right
        # answers in order, but no box is taken by its position
        script.add(build_prompt(questions).text,
                   f"I solved both: \\boxed{{{golds[0]}}} and \\boxed{{{golds[1]}}}.")
        row, graded, unsplittable = run_split_grade_and_experiment(
            tmp_path, questions, script, 2)
        assert row["n_unsplittable"] == unsplittable == 1
        assert graded == []
        assert (row["n_graded"], row["accuracy"]) == (2, 0.0)
        (record,) = parsing.read_completions(tmp_path / "gen" / "completions_k2.jsonl")
        assert [verify.grade(c, q) for c, q in zip(client._block_chains(record), questions)] \
            == [verify.UNPARSEABLE] * 2


class TestGrpoCommands:
    def test_grpo_check_passes(self, capsys):
        assert main(["grpo-check", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed, error", [("0", "6.40e-11"), ("8", "8.66e-11")])
    def test_grpo_check_prints_max_relative_error(self, capsys, seed, error):
        assert main(["grpo-check", "--seed", seed]) == 0
        assert (f"PASS gradient_finite_difference: max relative error {error} "
                "over 100 configs x 2 modes in ") in capsys.readouterr().out

    def test_grpo_train_toy(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert main(["grpo-train-toy", "--samples", "100", "--steps", "50",
                     "--seed", "0", "--out-dir", str(out)]) == 0
        assert (out / "curve.csv").exists()
        assert (out / "policy.txt").exists()
        assert "final mean gold-label probability" in capsys.readouterr().out

    def test_grpo_train_toy_beta_changes_output(self, tmp_path):
        curves = []
        for beta in ("0", "1.0"):
            out = tmp_path / f"beta{beta}"
            assert main(["grpo-train-toy", "--samples", "100", "--steps", "50",
                         "--beta", beta, "--seed", "0", "--out-dir", str(out)]) == 0
            curves.append((out / "curve.csv").read_bytes())
        assert curves[0] != curves[1]

    @pytest.mark.parametrize("flag, value, setting", [("--steps", "-3", "steps"),
                                                      ("--beta", "nan", "beta"),
                                                      ("--lr", "inf", "learning_rate"),
                                                      ("--lr", "0", "learning_rate")])
    def test_grpo_train_toy_with_setting_out_of_range_is_error(self, tmp_path, capsys,
                                                                flag, value, setting):
        out = tmp_path / "toy"
        assert main(["grpo-train-toy", "--samples", "50", flag, value,
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {setting} must be")
        assert not out.exists()

    def test_cli_import_loads_neither_numpy_nor_requests(self, tmp_path):
        script = (
            "import sys\n"
            "import batchcot.cli as cli\n"
            "assert not {'numpy', 'requests'} & set(sys.modules), 'loaded at import'\n"
            "assert cli.main(['grpo-check', '--seed', '8']) == 0\n"
            "assert cli.main(['grpo-train-toy', '--samples', '20', '--steps', '3',\n"
            "                 '--out-dir', sys.argv[1]]) == 0\n"
            "assert 'numpy' in sys.modules and 'requests' not in sys.modules\n"
        )
        src = str(Path(batchcot.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "toy")],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "toy" / "policy.txt").exists()

    def test_module_entry_point_runs_grpo_check(self):
        # python -m batchcot.cli, through its __main__ guard and entrypoint
        src = str(Path(batchcot.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "batchcot.cli", "grpo-check",
                                 "--seed", "8"], env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS gradient_finite_difference", "PASS advantage_properties",
            "PASS kl_properties"]
        assert "max relative error 8.66e-11" in lines[0]

    def test_module_entry_point_writes_a_row_per_step(self, tmp_path):
        # the curve is computed after training in blocks of steps, and 203 is
        # no multiple of the block: every step still has its row, and the
        # last one is the value the command prints
        src = str(Path(batchcot.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for steps in (200, 203):
            out = tmp_path / f"toy{steps}"
            result = subprocess.run(
                [sys.executable, "-m", "batchcot.cli", "grpo-train-toy", "--samples", "200",
                 "--steps", str(steps), "--seed", "3", "--out-dir", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            rows = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
            assert len(rows) == steps + 1
            last = float(rows[-1].split(",")[2])
            assert (f"final mean gold-label probability = {last:.4f}"
                    in result.stdout), (last, result.stdout)

    def test_cli_import_loads_no_http_client_email_or_ssl(self):
        # the client speaks HTTP itself, imports ssl for an https URL only,
        # and runs its requests on plain threads, without concurrent.futures
        script = ("import sys, batchcot.cli\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m in ('http.client', 'ssl', '_ssl', 'email',\n"
                  "                      'concurrent', 'concurrent.futures')\n"
                  "             or m.startswith(('email.', 'concurrent.'))))\n")
        src = str(Path(batchcot.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


class TestEvalAndReport:
    def test_eval_with_mock(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--benchmark", "gsm8k",
                     "--corpus", str(workspace["corpus"]),
                     "--out-dir", str(out),
                     "--mock", str(workspace["mock"])]) == 0
        agg = json.loads((out / "aggregate.json").read_text())[0]
        assert agg["benchmark"] == "GSM8K"
        assert agg["accuracy"] == pytest.approx(
            (pf.N_QUESTIONS - len(pf.WRONG[1])) / pf.N_QUESTIONS)
        assert (out / "report.txt").exists()
        assert (out / "results.jsonl").exists()

    def test_report_with_baseline(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        main(["eval", "--benchmark", "gsm8k",
              "--corpus", str(workspace["corpus"]),
              "--out-dir", str(out), "--mock", str(workspace["mock"])])
        capsys.readouterr()
        csv_path = tmp_path / "agg.csv"
        assert main(["report", "--aggregates", str(out / "aggregate.json"),
                     "--baseline", str(out / "aggregate.json"),
                     "--csv", str(csv_path)]) == 0
        printed = capsys.readouterr().out
        assert "Delta vs baseline" in printed
        assert "0.00%" in printed
        assert csv_path.exists()


    @pytest.mark.parametrize("name, corpus, message", [
        ("gsm8k", None, "No such file or directory"),
        ("gsm8k", '{"id": "a", "text": "t", "gold_answer": "1"}\n5\n',
         "line 2: TypeError: int is not a JSON object"),
        ("gsm8k", "", "corpus is empty"),
        ("gpqa_diamond", '{"id": "g1", "text": "pick one", "gold_answer": "not-a-letter"}\n',
         "line 1: gold answer 'not-a-letter' is not a choice letter"),
    ], ids=["missing", "bad-line", "empty", "bad-choice-letter"])
    def test_eval_on_corpus_that_fails_to_load_makes_no_out_dir(
            self, workspace, tmp_path, capsys, monkeypatch, name, corpus, message):
        # the corpus is checked before the out-dir is made and before any
        # request is sent
        sent = count_mock_sends(monkeypatch)
        path = tmp_path / "corpus.jsonl"
        if corpus is not None:
            path.write_text(corpus)
        out = tmp_path / "eval"
        assert main(["eval", "--benchmark", name, "--corpus", str(path),
                     "--out-dir", str(out), "--mock", str(workspace["mock"])]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert sent == []

    @pytest.mark.parametrize("name, corpus, answers, accuracy", [
        # a boxed, decorated, lower-case letter matches its gold letter;
        # another letter does not
        ("gpqa_diamond", [{"id": "g1", "text": "pick one", "gold_answer": "B"},
                          {"id": "g2", "text": "pick another", "gold_answer": "A"}],
         ["\\boxed{(b)}", "\\boxed{C}"], "50.00%"),
        # a JSON number as id or gold is kept as its str()
        ("math500", [{"id": 1, "text": "What is 1 + 0?", "gold_answer": 1}],
         ["\\boxed{1}"], "100.00%"),
    ], ids=["choice-letter", "numeric-id-and-gold"])
    def test_eval_reports_accuracy(self, tmp_path, capsys, name, corpus, answers,
                                   accuracy):
        path, mock, out = tmp_path / "corpus.jsonl", tmp_path / "mock", tmp_path / "eval"
        path.write_text("".join(json.dumps(entry) + "\n" for entry in corpus))
        spec = harness.registry_spec(name, str(path))
        script = MockBackend()
        for q, answer in zip(harness.load_corpus(spec), answers):
            script.add(build_prompt([q]).text, answer)
        pf.write_script_dir(script, mock)
        assert main(["eval", "--benchmark", name, "--corpus", str(path),
                     "--out-dir", str(out), "--mock", str(mock)]) == 0
        assert (out / "report.txt").read_text().splitlines()[1].split()[:2] == [
            spec.name, accuracy]
        assert [json.loads(line)["question_id"] for line in
                (out / "results.jsonl").read_text().splitlines()] == [
            str(entry["id"]) for entry in corpus]

    @pytest.mark.parametrize("answers, mean_tokens", [
        (["\\boxed{7}", "\\boxed{8}"], 1.0), (["", ""], 0.0),
    ], ids=["every-answer-wrong", "every-response-empty"])
    def test_eval_with_nothing_right_writes_zeros_that_report_reads(
            self, tmp_path, capsys, answers, mean_tokens):
        path, mock, out = tmp_path / "corpus.jsonl", tmp_path / "mock", tmp_path / "eval"
        path.write_text("".join(json.dumps({"id": f"q{i}", "text": f"What is {i} + 1?",
                                            "gold_answer": i + 1}) + "\n"
                                for i in range(2)))
        spec = harness.registry_spec("math500", str(path))
        script = MockBackend()
        for q, answer in zip(harness.load_corpus(spec), answers):
            script.add(build_prompt([q]).text, answer)
        pf.write_script_dir(script, mock)
        assert main(["eval", "--benchmark", "math500", "--corpus", str(path),
                     "--out-dir", str(out), "--mock", str(mock)]) == 0
        agg, = json.loads((out / "aggregate.json").read_text())
        assert (agg["accuracy"], agg["mean_tokens"], agg["n_samples"]) == (
            0.0, mean_tokens, 2)
        capsys.readouterr()
        assert main(["report", "--aggregates", str(out / "aggregate.json")]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == [spec.name, "0.00%"]

    def test_eval_requests_are_counted_through_mock_send(self, workspace, tmp_path,
                                                          monkeypatch):
        # count_mock_sends sees every request of an eval that runs
        sent = count_mock_sends(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", "--benchmark", "gsm8k", "--corpus", str(workspace["corpus"]),
                         "--out-dir", str(tmp_path / "eval"),
                         "--mock", str(workspace["mock"])]) == 0
        assert len(sent) == pf.N_QUESTIONS

    def test_eval_with_zero_samples_per_question_is_error(self, workspace, tmp_path,
                                                          capsys):
        assert main(["eval", "--benchmark", "aime2024",
                     "--corpus", str(workspace["corpus"]), "--samples-per-question", "0",
                     "--out-dir", str(tmp_path / "eval"),
                     "--mock", str(workspace["mock"])]) == 1
        assert "samples_per_question must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, setting", [("--timeout", "-1", "timeout"),
                                                      ("--timeout", "0", "timeout"),
                                                      ("--timeout", "nan", "timeout"),
                                                      ("--timeout", "inf", "timeout"),
                                                      ("--temperature", "nan", "temperature"),
                                                      ("--temperature", "inf", "temperature"),
                                                      ("--max-tokens", "0", "max_tokens")])
    def test_eval_with_setting_out_of_range_is_error(self, workspace, tmp_path, capsys,
                                                     monkeypatch, flag, value, setting):
        monkeypatch.delenv("BATCHCOT_API_KEY", raising=False)
        assert main(["eval", "--benchmark", "gsm8k", "--corpus", str(workspace["corpus"]),
                     "--out-dir", str(tmp_path / "eval"),
                     "--base-url", "http://127.0.0.1:9/v1", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {setting} must be")
        assert "BATCHCOT_API_KEY" not in err

    def test_report_on_empty_aggregates_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]\n")
        assert main(["report", "--aggregates", str(empty)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


# the fields that hold a mean in what the commands write
MEAN_KEYS = {"accuracy", "mean_tokens", "mean_tokens_per_question", "mean_tokens_split"}
# what each command prints for a mean over nothing, whitespace collapsed
NO_DATA_PRINTS = {
    "gen": ["mean tokens/question = -"],
    "split": ["unsplittable = 0 (-)"],
    "eval": ["GSM8K - -", "Overall (mean) - -", "Overall (weighted) - -",
             "Overall skips (no samples): GSM8K"],
    "batch-experiment": ["- - -"],
}
NO_DATA_PRINTS["report"] = NO_DATA_PRINTS["report-csv"] = NO_DATA_PRINTS["eval"]
NO_DATA_PRINTS["report-baseline"] = NO_DATA_PRINTS["eval"] + [
    "Delta vs baseline (overall mean): no data"]
# the manifest's request_failures: 3 questions at batch sizes 1 and 3 are 4
# requests, and eval sends one per question
REFUSED = {"gen": 4, "batch-experiment": 4, "eval": 3}


def written_means(value):
    """Every value under a MEAN_KEYS key in a decoded JSON document."""
    if isinstance(value, list):
        return [m for item in value for m in written_means(item)]
    if isinstance(value, dict):
        return [m for key, item in value.items()
                for m in ([item] if key in MEAN_KEYS else written_means(item))]
    return []


class TestMeansOverNothing:
    """Every command that reports a mean, run with nothing to average.

    Three ways: every request refused, by an empty mock dir or by a closed
    port; or a 3-question corpus at batch size 4, which makes no group. eval
    has no batch size, so it, and report on eval's aggregate.json, run the
    first two ways only.
    """

    @pytest.mark.parametrize("command, way", [
        (command, way)
        for command in ("gen", "split", "eval", "batch-experiment", "report",
                        "report-baseline", "report-csv")
        for way in ("empty-mock", "closed-port", "batch-4")
        if not (way == "batch-4" and command.startswith(("eval", "report")))])
    def test_no_mean_is_a_number(self, tmp_path, capsys, command, way):
        corpus, mock, out = tmp_path / "questions.jsonl", tmp_path / "mock", tmp_path / "out"
        write_corpus(corpus, pf.make_corpus(3))
        mock.mkdir()
        endpoint = ["--mock", str(mock)]
        if way == "closed-port":
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                port = sock.getsockname()[1]
            endpoint = ["--base-url", f"http://127.0.0.1:{port}/v1", "--max-retries", "0"]
        sizes = ["--batch-size", "4"] if way == "batch-4" else [
            "--batch-size", "1", "--batch-size", "3"]
        batch_run = ["--questions", str(corpus), "--out-dir", str(out)] + sizes + endpoint
        if command in ("gen", "split"):
            assert main(["gen"] + batch_run) == 0
        elif command == "batch-experiment":
            assert main([command] + batch_run) == 0
        else:
            assert main(["eval", "--benchmark", "gsm8k", "--corpus", str(corpus),
                         "--out-dir", str(out)] + endpoint) == 0
        if command == "split":
            capsys.readouterr()
            for completions in sorted(out.glob("completions_k*.jsonl")):
                assert main(["split", "--in", str(completions),
                             "--out", str(tmp_path / (completions.stem + ".chains"))]) == 0
        elif command.startswith("report"):
            capsys.readouterr()
            aggregates = str(out / "aggregate.json")
            extra = {"report": [], "report-baseline": ["--baseline", aggregates],
                     "report-csv": ["--csv", str(tmp_path / "agg.csv")]}[command]
            assert main(["report", "--aggregates", aggregates] + extra) == 0
        if command in REFUSED and way != "batch-4":
            exclusions = json.loads((out / "manifest.json").read_text())["exclusions"]
            assert exclusions["request_failures"] == REFUSED[command]
        printed = " ".join(capsys.readouterr().out.split())
        assert "0.00" not in printed and "0.0%" not in printed
        for line in NO_DATA_PRINTS[command]:
            assert line in printed
        means = []
        for path in tmp_path.rglob("*.json*"):
            text = path.read_text()
            docs = ([json.loads(line) for line in text.splitlines()]
                    if path.suffix == ".jsonl" else [json.loads(text)])
            means += written_means(docs)
        assert all(m is None for m in means)
        if command in ("eval", "batch-experiment"):
            assert means
        if command == "report-csv":
            [row] = csv.DictReader(io.StringIO((tmp_path / "agg.csv").read_text()))
            assert (row["accuracy"], row["mean_tokens"], row["n_samples"]) == ("", "", "0")


class TestKeepAliveEndpoint:
    """gen, eval and batch-experiment over an HTTP/1.1 keep-alive endpoint.

    The server drops the vanilla request of the first question and the
    batch-3 request of the first three, so each command has a request that
    raises; no command leaves a socket open, whether it succeeds or fails.
    """

    @pytest.fixture
    def endpoint(self, workspace):
        questions = pf.make_corpus()
        dropped = {fingerprint(build_prompt(group).text)
                   for group in (questions[:1], questions[:3])}
        script = pf.build_script(questions, (1, 3), seed=0, group="sequential")
        with mock_http_server(script, keep_alive=True, drop=dropped) as url:
            yield url

    @staticmethod
    def run(argv, url):
        code = main(argv + ["--base-url", url, "--max-retries", "0",
                            "--max-concurrent", "2"])
        assert open_sockets_to(url) == []
        return code

    def test_gen(self, workspace, endpoint, tmp_path, capsys):
        assert self.run(["gen", "--questions", str(workspace["corpus"]),
                         "--out-dir", str(tmp_path), "--batch-size", "1",
                         "--batch-size", "3", "--group", "sequential"], endpoint) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exclusions"] == {"request_failures": 2, "ungrouped": 0}

    def test_eval(self, workspace, endpoint, tmp_path, capsys):
        assert self.run(["eval", "--benchmark", "gsm8k", "--corpus",
                         str(workspace["corpus"]), "--out-dir", str(tmp_path)],
                        endpoint) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exclusions"] == {"request_failures": 1}

    def test_batch_experiment(self, workspace, endpoint, tmp_path, capsys):
        assert self.run(["batch-experiment", "--questions", str(workspace["corpus"]),
                         "--out-dir", str(tmp_path), "--batch-size", "1",
                         "--batch-size", "3", "--group", "sequential"], endpoint) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exclusions"] == {"request_failures": 2, "ungrouped": 0,
                                          "unsplittable": 0}

    @pytest.mark.parametrize("command", ["eval", "batch-experiment"])
    def test_command_failing_after_its_requests(self, workspace, endpoint, tmp_path,
                                                capsys, command):
        # the out-dir is made before any request, so the command fails on
        # its first output file, which a directory blocks
        out = tmp_path / "out"
        first = "results.jsonl" if command == "eval" else "experiment.jsonl"
        (out / first).mkdir(parents=True)
        corpus_flag = "--corpus" if command == "eval" else "--questions"
        extra = (["--benchmark", "gsm8k"] if command == "eval"
                 else ["--batch-size", "3", "--group", "sequential"])
        assert self.run([command, corpus_flag, str(workspace["corpus"]),
                         "--out-dir", str(out)] + extra, endpoint) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestEvalRepeatsOverHttp:
    """eval of 5 samples per question over loopback HTTP, on more worker
    threads (4) than the benchmark's workload runs (2 at most), with each
    request's body recorded."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """(corpus ids, results ids, manifest, request bodies) of one run."""
        root = tmp_path_factory.mktemp("repeats")
        questions = pf.make_corpus(6)
        write_corpus(root / "corpus.jsonl", questions)
        bodies = []
        with mock_http_server(pf.build_script(questions, (1,)), bodies=bodies) as url:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["eval", "--benchmark", "aime2024",
                             "--corpus", str(root / "corpus.jsonl"),
                             "--samples-per-question", "5", "--seed", "3",
                             "--out-dir", str(root / "eval"), "--base-url", url,
                             "--max-concurrent", "4"]) == 0
        results = (root / "eval" / "results.jsonl").read_text().splitlines()
        return ([q.id for q in questions], [json.loads(r)["question_id"] for r in results],
                json.loads((root / "eval" / "manifest.json").read_text()), bodies)

    def test_results_keep_corpus_order(self, run):
        corpus, ids, manifest, bodies = run
        assert manifest["exclusions"] == {"request_failures": 0}
        assert len(bodies) == 30
        assert ids == [qid for qid in corpus for _ in range(5)]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP direction 11: a question's repeats are identical requests, "
        "each with the run's --seed 3"))
    def test_repeats_of_a_question_carry_distinct_seeds(self, run):
        seeds = {}
        for body in run[3]:
            seeds.setdefault(body["messages"][0]["content"], []).append(body.get("seed"))
        assert sorted(map(len, seeds.values())) == [5] * 6
        assert all(len(set(s)) == 5 for s in seeds.values())


class TestConfigResolution:
    def test_defaults(self):
        args = build_parser().parse_args(["eval", "--benchmark", "gsm8k",
                                          "--corpus", "c.jsonl", "--out-dir", "out"])
        cfg = resolve_endpoint_config(args)
        assert cfg == EndpointConfig()

    def test_gen_with_config_flag_is_unrecognised(self, workspace, tmp_path, capsys):
        assert main(["gen", "--questions", str(workspace["corpus"]),
                     "--out-dir", str(tmp_path / "x"), "--batch-size", "1",
                     "--mock", str(workspace["mock"]), "--config", "x"]) == 1
        assert "unrecognized arguments: --config x" in capsys.readouterr().err

    def test_only_the_api_key_is_read_from_the_environment(self):
        # argv is a run's whole input: no other setting may come from the shell
        src = Path(batchcot.__file__).parent
        reads = [(path.name, line.strip())
                 for path in sorted(src.glob("*.py"))
                 for line in path.read_text(encoding="utf-8").splitlines()
                 if re.search(r"environ|getenv", line)]
        assert reads == [("client.py", "api_key = os.environ.get(API_KEY_ENV)")]

    def test_every_verdict_comes_from_verify(self):
        # one grade stage: verify.grade_chains is the only caller of the
        # numeric rule, and the unknown-id check is written once
        src = Path(batchcot.__file__).parent
        texts = {path.name: path.read_text(encoding="utf-8")
                 for path in sorted(src.glob("*.py"))}
        assert [name for name, text in texts.items()
                if re.search(r"\bgrade\(", text)] == ["verify.py"]
        assert [(name, text.count("chains reference unknown question ids"))
                for name, text in texts.items()
                if "chains reference unknown question ids" in text] == [("verify.py", 1)]

    def test_only_the_batch_loop_groups_the_corpus(self):
        # gen and batch-experiment send from one loop, the one caller of
        # shuffle_and_group
        src = Path(batchcot.__file__).parent
        calls = {path.name: len(re.findall(r"(?<!def )\bshuffle_and_group\(",
                                           path.read_text(encoding="utf-8")))
                 for path in sorted(src.glob("*.py"))}
        assert {name: n for name, n in calls.items() if n} == {"cli.py": 1}

    def test_only_the_client_starts_worker_threads(self):
        # complete_many sends requests on client.on_workers; the grpo
        # commands are numeric work in the calling thread
        src = Path(batchcot.__file__).parent
        calls = {path.name: len(re.findall(r"(?<!def )\bon_workers\(",
                                           path.read_text(encoding="utf-8")))
                 for path in sorted(src.glob("*.py"))}
        assert {name: n for name, n in calls.items() if n} == {"client.py": 1}
        imported = set()
        for node in ast.walk(ast.parse((src / "grpo.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert not imported & {"threading", "batchcot.client"}

    def test_one_loop_sends_requests(self):
        # gen, batch-experiment and eval send from cli._send_runs; harness
        # only summarizes the completions it is given
        src = Path(batchcot.__file__).parent
        calls, harness_imports = {}, set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and "complete_many" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    calls[path.name] = calls.get(path.name, 0) + 1
                elif path.name == "harness.py" and isinstance(node, ast.ImportFrom):
                    harness_imports.add(node.module)
                elif path.name == "harness.py" and isinstance(node, ast.Import):
                    harness_imports.update(alias.name for alias in node.names)
        assert calls == {"cli.py": 1}
        assert harness_imports and "batchcot.client" not in harness_imports

    @pytest.mark.parametrize("command, loop", [("cmd_gen", "_send_batch_runs"),
                                               ("cmd_batch_experiment", "_send_batch_runs"),
                                               ("cmd_eval", "_send_runs")])
    def test_command_leaves_endpoint_backend_and_out_dir_to_the_loop(self, command, loop):
        # the send loop resolves the endpoint config, builds the backend and
        # makes --out-dir; a command that sends requests does none of them
        tree = ast.parse(inspect.getsource(getattr(cli, command)))
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert loop in called
        assert not called & {"resolve_endpoint_config", "_make_backend", "makedirs"}


def parse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr) of parser.parse_args(argv); code None on success."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        args, code = None, exc.code
    else:
        code = None
    out = capsys.readouterr()
    return code, out.out, out.err, args and vars(args)


class TestParser:
    """Only the invoked subcommand gets its arguments, and nobody can tell."""

    VALID = {
        "gen": ["--questions", "q", "--out-dir", "o", "--batch-size", "1",
                "--batch-size", "4", "--mock", "m", "--max-concurrent", "2"],
        "split": ["--in", "c", "--out", "o"],
        "grade": ["--in", "c", "--questions", "q", "--out", "o"],
        "label": ["--in", "a", "--in", "b", "--questions", "q", "--out", "o",
                  "--paired"],
        "grpo-check": ["--seed", "8"],
        "grpo-train-toy": ["--steps", "5", "--lr", "0.1", "--out-dir", "o"],
        "eval": ["--benchmark", "aime2024", "--corpus", "c", "--out-dir", "o",
                 "--base-url", "http://localhost:1/v1", "--timeout", "3"],
        "report": ["--aggregates", "a", "--csv", "c"],
        "batch-experiment": ["--questions", "q", "--out-dir", "o",
                             "--batch-size", "2", "--group", "sequential"],
    }

    def test_every_command_has_a_valid_argv(self):
        assert sorted(self.VALID) == sorted(name for name, _, _, _ in cli.COMMANDS)

    @pytest.mark.parametrize("argv", (
        [[name, "--help"] for name in VALID]
        + [[name] + rest for name, rest in VALID.items()]
        + [["--help"], ["--version"], [], ["bogus"], ["bogus", "--in", "x"],
           ["split", "--in", "x", "--out", "y", "--bogus"], ["gen", "--bogus"],
           ["split", "--in", "x"], ["eval", "--benchmark", "b"],
           ["label", "--questions", "q", "--out", "o"],
           ["grpo-train-toy", "--objective-mode", "nope", "--out-dir", "o"],
           ["report", "--aggregates"]]
    ), ids=" ".join)
    def test_same_outcome_as_the_parser_with_every_argument(self, argv, capsys):
        invoked_only = parse_outcome(build_parser(argv), argv, capsys)
        every = parse_outcome(build_parser(), argv, capsys)
        assert invoked_only == every
        assert invoked_only[0] in (None, 0, 2)

    def test_invoked_only_build_has_no_other_command(self):
        def arguments(parser):
            sub, = (a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
            return {name: len(p._actions) for name, p in sub.choices.items()}

        invoked_only = arguments(build_parser(["split", "--in", "x"]))
        every = arguments(build_parser())
        assert list(invoked_only) == ["split"]
        assert invoked_only["split"] == every["split"] > 1
        assert len(every) == len(cli.COMMANDS)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_diverging_training_is_named_error(self, tmp_path, capsys, recwarn):
        # paper_literal's loss is unbounded below; this run first gives a NaN
        # loss at step 723, after log(0) as pi underflows, which warns nothing
        assert main(["grpo-train-toy", "--objective-mode", "paper_literal",
                     "--samples", "1000", "--steps", "1000", "--seed", "5",
                     "--out-dir", str(tmp_path / "toy")]) == 1
        assert capsys.readouterr().err == (
            "error: training diverged at step 723: loss is nan "
            "(objective paper_literal)\n")
        assert [str(w.message) for w in recwarn] == []

    def test_distribution_not_finite_is_named_error(self, tmp_path, capsys,
                                                     monkeypatch):
        # all-inf weights give a nan distribution at the first draw
        import numpy as np
        from batchcot import grpo

        monkeypatch.setattr(grpo, "initial_policy", lambda feature_dim: grpo.PolicyState(
            theta=np.full((feature_dim, 3), np.inf)))
        assert main(["grpo-train-toy", "--samples", "20", "--steps", "5",
                     "--out-dir", str(tmp_path / "toy")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot draw from the distribution [nan nan nan]: ")

    def test_missing_backend_is_validation_error(self, workspace, tmp_path):
        assert main(["gen", "--questions", str(workspace["corpus"]),
                     "--out-dir", str(tmp_path / "x"), "--batch-size", "1"]) == 1

    def test_missing_corpus_file(self, workspace, tmp_path):
        assert main(["gen", "--questions", str(tmp_path / "nope.jsonl"),
                     "--out-dir", str(tmp_path / "x"), "--batch-size", "1",
                     "--mock", str(workspace["mock"])]) == 1

    def test_split_on_completion_without_raw_text(self, workspace, tmp_path, capsys):
        row = json.loads((workspace["gen"] / "completions_k2.jsonl").read_text()
                         .splitlines()[0])
        del row["raw_text"]
        bad = tmp_path / "completions.jsonl"
        bad.write_text(json.dumps(row) + "\n")
        assert main(["split", "--in", str(bad), "--out", str(tmp_path / "c.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, error", [("envelope", "x", "TypeError"),
                                                   ("counted_tokens", "many", "TypeError"),
                                                   ("reported_tokens", -3, "ValueError"),
                                                   ("raw_text", 5, "TypeError")])
    def test_split_on_wrongly_typed_completion(self, workspace, tmp_path, capsys,
                                               key, value, error):
        row = json.loads((workspace["gen"] / "completions_k2.jsonl").read_text()
                         .splitlines()[0])
        row[key] = value
        bad = tmp_path / "completions.jsonl"
        bad.write_text(json.dumps(row) + "\n")
        assert main(["split", "--in", str(bad), "--out", str(tmp_path / "c.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: {error}")

    @pytest.mark.parametrize("key, value", [("predicted_answer", 42), ("question_id", ["a"]),
                                            ("token_count", True)])
    def test_grade_on_wrongly_typed_chain(self, workspace, tmp_path, capsys, key, value):
        chain = {"question_id": "q000", "text": "t", "predicted_answer": "1",
                 "origin": {"kind": "vanilla", "size": 1, "position": 1}, key: value}
        bad = tmp_path / "chains.jsonl"
        bad.write_text(json.dumps(chain) + "\n")
        assert main(["grade", "--in", str(bad), "--questions", str(workspace["corpus"]),
                     "--out", str(tmp_path / "graded.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: TypeError: {key}")

    @pytest.mark.parametrize("key", ["size", "position"])
    def test_grade_on_boolean_origin_number(self, workspace, tmp_path, capsys, key):
        origin = {"kind": "batch", "size": 2, "position": 1, key: True}
        bad = tmp_path / "chains.jsonl"
        bad.write_text(json.dumps({"question_id": "q000", "text": "t", "origin": origin})
                       + "\n")
        assert main(["grade", "--in", str(bad), "--questions", str(workspace["corpus"]),
                     "--out", str(tmp_path / "graded.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: line 1: TypeError: {key} is bool, not int")

    def test_grade_on_negative_token_count(self, workspace, tmp_path, capsys):
        chain = {"question_id": "q000", "text": "t", "token_count": -1,
                 "origin": {"kind": "vanilla", "size": 1, "position": 1}}
        bad = tmp_path / "chains.jsonl"
        bad.write_text("\n" + json.dumps(chain) + "\n")
        assert main(["grade", "--in", str(bad), "--questions", str(workspace["corpus"]),
                     "--out", str(tmp_path / "graded.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: line 2: ValueError: token_count must be >= 0")

    @pytest.mark.parametrize("answer", ["1" * 5000, "-" + "1" * 5000, "0." + "1" * 5000,
                                        "1/" + "1" * 5000, "\\frac{1}{" + "1" * 5000 + "}"],
                             ids=["integer", "negative", "decimal", "slash", "frac"])
    def test_answer_of_more_digits_than_int_converts_is_unparseable(self, workspace,
                                                                    tmp_path, answer):
        # int() refuses more than 4300 digits; the answer is graded, the run goes on
        chain = {"question_id": "q000", "text": "t", "predicted_answer": answer,
                 "origin": {"kind": "vanilla", "size": 1, "position": 1}}
        chains = tmp_path / "chains.jsonl"
        chains.write_text(json.dumps(chain) + "\n")
        graded = tmp_path / "graded.jsonl"
        assert main(["grade", "--in", str(chains), "--questions", str(workspace["corpus"]),
                     "--out", str(graded)]) == 0
        assert read_jsonl(graded, parsing.ReasoningChain)[0].verdict == verify.UNPARSEABLE
        # label grades a chain that has no verdict
        prefs = tmp_path / "prefs.jsonl"
        assert main(["label", "--in", str(chains), "--questions", str(workspace["corpus"]),
                     "--out", str(prefs)]) == 0
        assert read_jsonl(prefs, PreferenceSample)[0].gold_label == "C"

    def test_number_of_more_digits_than_int_converts_is_no_position(self, tmp_path):
        # int() refuses more than 4300 digits; a heading or answer entry of
        # that many is never a position 1..k, so split and batch-experiment go on
        corpus, mock = tmp_path / "questions.jsonl", tmp_path / "mock"
        questions = pf.make_corpus(4)
        write_corpus(corpus, questions)
        long = "1" * 5000
        script = MockBackend()
        for grp in shuffle_and_group(questions, 2, group="sequential"):
            text = pf.batch_response(grp, 2)
            text = text.replace("[Solution Process]\n", f"[Solution Process]\n{long}. x\n")
            text = text.replace("[Final Answer]\n", f"[Final Answer]\n{long}. \\boxed{{0}}\n")
            script.add(build_prompt(grp).text, text)
        pf.write_script_dir(script, mock)
        common = ["--questions", str(corpus), "--batch-size", "2",
                  "--group", "sequential", "--mock", str(mock)]
        assert main(["gen", "--out-dir", str(tmp_path / "gen")] + common) == 0
        chains = tmp_path / "chains.jsonl"
        assert main(["split", "--in", str(tmp_path / "gen" / "completions_k2.jsonl"),
                     "--out", str(chains)]) == 0
        assert ([c.predicted_answer for c in parsing.read_chains(chains)]
                == [pf._answer(q, 2) for q in questions])
        exp = tmp_path / "exp"
        assert main(["batch-experiment", "--out-dir", str(exp)] + common) == 0
        [row] = [json.loads(line)
                 for line in (exp / "experiment.jsonl").read_text().splitlines()]
        assert (row["n_graded"], row["n_unsplittable"]) == (4, 0)

    def test_label_on_chain_of_unknown_kind(self, workspace, tmp_path, capsys):
        bad = tmp_path / "chains.jsonl"
        bad.write_text(json.dumps({"question_id": "q000", "text": "t",
                                   "origin": {"kind": "judge", "size": 1, "position": 1}})
                       + "\n")
        assert main(["label", "--in", str(bad), "--questions", str(workspace["corpus"]),
                     "--out", str(tmp_path / "prefs.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 1: ValueError") and "'judge'" in err

    def test_label_on_chain_file_given_twice(self, workspace, tmp_path, capsys):
        chains, twin = tmp_path / "chains.jsonl", tmp_path / "twin.jsonl"
        assert main(["split", "--in", str(workspace["gen"] / "completions_k2.jsonl"),
                     "--out", str(chains)]) == 0
        twin.write_text(chains.read_text())
        label = ["label", "--questions", str(workspace["corpus"]),
                 "--out", str(tmp_path / "prefs.jsonl")]
        again = f"{tmp_path}/./chains.jsonl"  # the same file by another path
        capsys.readouterr()
        assert main(label + ["--in", str(chains), "--in", again]) == 1
        assert capsys.readouterr().err == f"error: --in {again} is given more than once\n"
        assert not (tmp_path / "prefs.jsonl").exists()
        # two files whose chains share question ids, as two seeds' runs do
        assert main(label + ["--in", str(chains), "--in", str(twin)]) == 0

    def test_split_on_line_that_is_not_json(self, tmp_path, capsys):
        bad = tmp_path / "completions.jsonl"
        bad.write_text("not json\n")
        assert main(["split", "--in", str(bad), "--out", str(tmp_path / "c.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: JSONDecodeError")

    def test_report_on_wrongly_typed_aggregate(self, tmp_path, capsys):
        bad = tmp_path / "aggregate.json"
        bad.write_text(json.dumps([{"benchmark": "b", "accuracy": "high", "mean_tokens": 1.0,
                                   "n_questions": 1, "n_samples": 1}]))
        assert main(["report", "--aggregates", str(bad)]) == 1
        assert f"error: {bad}: entry 1: TypeError" in capsys.readouterr().err

    def test_report_on_aggregates_that_are_not_json(self, tmp_path, capsys):
        bad = tmp_path / "aggregate.json"
        bad.write_text("not json\n")
        assert main(["report", "--aggregates", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: JSONDecodeError")

    @pytest.mark.parametrize("count", ["many", "-5"])
    def test_gen_on_tokens_sidecar_that_is_not_an_integer(self, workspace, tmp_path,
                                                          capsys, count):
        script = MockBackend()
        script.add("any prompt", "\\boxed{1}", tokens=3)
        pf.write_script_dir(script, tmp_path / "mock")
        sidecar, = (tmp_path / "mock").glob("*.tokens")
        sidecar.write_text(count + "\n")
        assert main(["gen", "--questions", str(workspace["corpus"]),
                     "--out-dir", str(tmp_path / "x"), "--batch-size", "1",
                     "--mock", str(tmp_path / "mock")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {sidecar}: ValueError")

    def test_gen_on_response_file_that_is_not_utf8(self, workspace, tmp_path, capsys):
        script = MockBackend()
        script.add("any prompt", "\\boxed{1}")
        pf.write_script_dir(script, tmp_path / "mock")
        response, = (tmp_path / "mock").glob("*.txt")
        response.write_bytes(b"\\boxed{1} \xff")
        assert main(["gen", "--questions", str(workspace["corpus"]),
                     "--out-dir", str(tmp_path / "x"), "--batch-size", "1",
                     "--mock", str(tmp_path / "mock")]) == 1
        assert capsys.readouterr().err == (
            f"error: {response}: UnicodeDecodeError: 'utf-8' codec can't decode "
            "byte 0xff in position 10: invalid start byte\n")
