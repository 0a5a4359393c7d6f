"""Output checks run on every benchmark run.

Each check returns a ``Report``. ``hard`` holds the failures that make the
run incorrect (the benchmark then exits nonzero); ``failed`` counts the
operations that went wrong without aborting the run: failed requests,
failed checks and chains the program attributed or graded wrongly on the
hostile responses. ``attempted`` counts the operations checked.

A chain is right when its text holds both nonces of its own question's
segment and no other nonce, and its answer and verdict are the designed
ones. Wrong chains from clean responses are hard failures; from hostile
responses they are counted.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

from gen_inputs import CLEAN, CORRECT, NONCE_RE, fingerprint


class Report:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.hard = []
        self.notes = {}

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def require(self, ok: bool, message: str):
        if not ok and len(self.hard) < 20:
            self.hard.append(message)


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(run_dir) -> dict:
    """sha256 of every output file except manifests, which hold timestamps."""
    digests = {}
    for dirpath, _, filenames in os.walk(run_dir):
        for name in filenames:
            if name.endswith("manifest.json"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, run_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def pipeline_files(run_dir, batch_sizes) -> dict:
    return {
        "gen_dir": os.path.join(run_dir, "gen"),
        "completions": {k: os.path.join(run_dir, "gen", f"completions_k{k}.jsonl")
                        for k in batch_sizes},
        "chains": {k: os.path.join(run_dir, f"chains_k{k}.jsonl") for k in batch_sizes},
        "graded": {k: os.path.join(run_dir, f"graded_k{k}.jsonl") for k in batch_sizes},
        "prefs": os.path.join(run_dir, "prefs.jsonl"),
        "exp_dir": os.path.join(run_dir, "exp"),
        "experiment": os.path.join(run_dir, "exp", "experiment.jsonl"),
    }


def _label(kind: str, verdict: str) -> str:
    if verdict != CORRECT:
        return "C"
    return "A" if kind == "vanilla" else "B"


def check_pipeline(run_dir, truth, questions_path) -> Report:
    """gen -> split -> grade -> label -> batch-experiment against the truth."""
    r = Report()
    ks = truth["batch_sizes"]
    files = pipeline_files(run_dir, ks)
    texts = {q["id"]: q["text"] for q in read_jsonl(questions_path)}
    by_fp = {rec["fingerprint"]: rec for rec in truth["records"]}
    slots = {(qid, rec["k"]): (rec, pos) for rec in truth["records"]
             for pos, qid in enumerate(rec["question_ids"])}
    misattributed = misgraded = deviations = 0
    chains_expected = chains_right = 0
    unsplittable = {}
    designed_labels = Counter()
    all_graded = []

    for k in ks:
        recs = [rec for rec in truth["records"] if rec["k"] == k]
        completions = read_jsonl(files["completions"][k])
        r.attempted += len(recs)
        r.require(len(completions) == len(recs),
                  f"gen k={k}: {len(completions)} completions for {len(recs)} prompts")
        seen = set()
        for c in completions:
            rec = by_fp.get(fingerprint(c["envelope"]["text"]))
            r.require(rec is not None and rec["k"] == k, f"gen k={k}: unexpected prompt")
            if rec is None:
                continue
            seen.add(rec["fingerprint"])
            r.require(sha256_text(c["raw_text"]) == rec["sha256"],
                      f"gen k={k}: response text differs from the mock")
            r.require(c["envelope"]["question_ids"] == rec["question_ids"],
                      f"gen k={k}: envelope question ids differ")
        r.require(len(seen) == len(recs), f"gen k={k}: prompts missing or repeated")

        chains = read_jsonl(files["chains"][k])
        graded = read_jsonl(files["graded"][k])
        r.require(len(chains) == len(graded), f"grade k={k}: chain count changed")
        for chain, g in zip(chains, graded):
            r.require({key: v for key, v in g.items() if key != "verdict"} == chain,
                      f"grade k={k}: grading changed a chain")
        all_graded.extend(graded)

        present = set()
        for g in graded:
            key = (g["question_id"], k)
            rec, pos = slots.get(key, (None, None))
            r.require(rec is not None, f"split k={k}: chain for unknown slot {key}")
            if rec is None:
                continue
            r.require(g["origin"]["position"] == pos + 1 and g["origin"]["size"] == k,
                      f"split k={k}: chain origin differs for {key}")
            present.add(key)
            stem = rec["stems"][pos]
            attributed = set(NONCE_RE.findall(g["text"])) == {stem + "B", stem + "E"}
            answered = (g["predicted_answer"] == rec["answers"][pos]
                        and g.get("verdict") == rec["verdicts"][pos])
            if not attributed:
                misattributed += 1
            elif not answered:
                misgraded += 1
            else:
                chains_right += 1
            r.require((attributed and answered) or rec["kind"] != CLEAN,
                      f"k={k}: chain of clean response {rec['fingerprint']} "
                      f"position {pos + 1} is wrong")
            designed_labels[_label(g["origin"]["kind"], rec["verdicts"][pos])] += 1

        excluded = 0
        for rec in recs:
            got = sum((qid, k) in present for qid in rec["question_ids"])
            r.require(got in (0, k), f"split k={k}: response split into {got} of {k} chains")
            r.require(got == k or rec["kind"] != CLEAN,
                      f"split k={k}: clean response {rec['fingerprint']} was excluded")
            excluded += got == 0
            if rec["splittable"]:
                chains_expected += k
        with open(files["chains"][k] + ".manifest.json", encoding="utf-8") as fh:
            reported = json.load(fh)["exclusions"]["unsplittable"]
        r.require(reported == excluded,
                  f"split k={k}: manifest reports {reported} unsplittable, {excluded} excluded")
        unsplittable[k] = excluded
    r.attempted += chains_expected

    # label: one sample per graded chain, labelled by the A/B/C rule
    prefs = read_jsonl(files["prefs"])
    index = {(g["question_id"], g["origin"]["kind"], g["origin"]["size"],
              g["origin"]["position"]): g for g in all_graded}
    r.require(len(prefs) == len(all_graded),
              f"label: {len(prefs)} samples for {len(all_graded)} chains")
    for p in prefs:
        prov = p["provenance"]
        g = index.get((prov["question_id"], prov["origin_kind"], prov["batch_size"],
                       prov["position"]))
        r.require(g is not None, "label: sample without a graded chain")
        if g is None:
            continue
        r.require(p["cot"] == g["text"] and p["question"] == texts[g["question_id"]],
                  "label: sample text differs from its chain")
        r.require(p["gold_label"] == _label(g["origin"]["kind"], g["verdict"]),
                  "label: label differs from the A/B/C rule")
    labels = dict(sorted(Counter(p["gold_label"] for p in prefs).items()))

    # batch-experiment: one row per batch size against the designed truth table
    rows = {row["batch_size"]: row for row in read_jsonl(files["experiment"])}
    for k in ks:
        recs = [rec for rec in truth["records"] if rec["k"] == k]
        row = rows.get(k)
        r.require(row is not None, f"batch-experiment: no row for k={k}")
        if row is None:
            continue
        n = sum(len(rec["question_ids"]) for rec in recs)
        r.attempted += len(recs) + n
        r.require(row["n_groups"] == len(recs) and row["n_questions"] == n
                  and row["n_graded"] == n and row["n_failures"] == 0,
                  f"batch-experiment k={k}: counts differ from the design")
        r.require(row["n_unsplittable"] == unsplittable[k],
                  f"batch-experiment k={k}: unsplittable differs from split")
        words = sum(rec["words"] for rec in recs)
        r.require(abs(row["mean_tokens_per_question"] - words / n) <= 1e-9 * words / n,
                  f"batch-experiment k={k}: tokens per question differ from the design")
        split_tokens = [g["token_count"] for g in all_graded
                        if g["origin"]["size"] == k]
        if split_tokens:
            mean = sum(split_tokens) / len(split_tokens)
            r.require(row["mean_tokens_split"] is not None
                      and abs(row["mean_tokens_split"] - mean) <= 1e-9 * mean,
                      f"batch-experiment k={k}: split tokens differ from split")
        designed = sum(v == CORRECT for rec in recs for v in rec["verdicts"])
        graded_correct = round(row["accuracy"] * row["n_graded"])
        deviation = abs(graded_correct - designed)
        hostile = sum(len(rec["question_ids"]) for rec in recs if rec["kind"] != CLEAN)
        r.require(deviation <= hostile,
                  f"batch-experiment k={k}: accuracy off by more than the hostile share")
        deviations += deviation

    r.failed += misattributed + misgraded + deviations
    r.notes.update({
        "misattributed_chains": misattributed,
        "misgraded_chains": misgraded,
        "experiment_grade_deviations": deviations,
        "wrong_chains": misattributed + misgraded,
        "chains_expected": chains_expected,
        "chains_right": chains_right,
        "unsplittable": sum(unsplittable.values()),
        "label_counts": labels,
        "designed_label_counts": dict(sorted(designed_labels.items())),
    })
    return r


def check_eval(run_dir, truth) -> Report:
    """eval results and aggregate against the designed answers and verdicts."""
    r = Report()
    questions = truth["questions"]
    repeats = truth["repeats"]
    results = read_jsonl(os.path.join(run_dir, "results.jsonl"))
    with open(os.path.join(run_dir, "aggregate.json"), encoding="utf-8") as fh:
        aggregate = json.load(fh)[0]
    n = len(questions) * repeats
    r.attempted += n
    exclusions = aggregate["exclusions"]
    r.failed += exclusions
    r.require(aggregate["n_questions"] == len(questions)
              and aggregate["n_samples"] == n - exclusions,
              "eval: question or sample count differs from the design")
    if exclusions == 0:
        expected = [q for q in questions for _ in range(repeats)]
        r.require(len(results) == n, f"eval: {len(results)} results for {n} samples")
        for row, q in zip(results, expected):
            r.require(row["question_id"] == q["id"]
                      and row["predicted_answer"] == q["answer"]
                      and row["verdict"] == q["verdict"]
                      and row["tokens"] == q["words"],
                      f"eval: result for {q['id']} differs from the design")
        correct = sum(q["verdict"] == CORRECT for q in questions) * repeats
        r.require(abs(aggregate["accuracy"] - correct / n) <= 1e-12,
                  "eval: accuracy differs from the design")
    r.notes["exclusions"] = exclusions
    return r


def check_grpo(check_stdout: str, curve_path, steps: int) -> Report:
    """grpo-check prints three PASS lines; grpo-train-toy writes its full curve."""
    r = Report()
    lines = [line for line in check_stdout.splitlines() if line.strip()]
    failures = sum(not line.startswith("PASS ") for line in lines)
    r.attempted += len(lines) + 1
    r.failed += failures
    r.require(len(lines) == 3 and failures == 0, "grpo-check: not all checks PASS")
    with open(curve_path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    r.require(len(rows) == steps + 1, f"grpo-train-toy: {len(rows) - 1} curve rows")
    final = float(rows[-1].split(",")[2])
    r.require(1 / 3 < final <= 1.0, f"grpo-train-toy: final gold probability {final}")
    r.notes["final_gold_prob"] = final
    return r
