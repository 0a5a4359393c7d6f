"""Subcommand front end wiring the pipeline stages into reproducible runs."""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import closing

from batchcot import __version__, harness, preference, verify
from batchcot.client import (
    EndpointConfig,
    HttpBackend,
    MockBackend,
    complete_many,
    render_experiment_table,
    run_batch_experiment,
    tokens_per_question,
)
from batchcot.grpo_modes import ADVANTAGE_MODES, OBJECTIVE_MODES, GrpoConfig
from batchcot.parsing import (
    read_chains,
    read_completions,
    split_completions,
    write_chains,
    write_completions,
)
from batchcot.prompts import build_prompt, load_questions, shuffle_and_group
from batchcot.records import mean, show, to_dict, write_json, write_jsonl

# The EndpointConfig fields a flag sets; each flag takes its field's type and
# default from EndpointConfig().
_ENDPOINT_KEYS = ("base_url", "model", "temperature", "max_tokens", "timeout",
                  "max_retries", "max_concurrent")
_ENDPOINT_DEFAULTS = EndpointConfig()
_TIMESTAMP = "%Y-%m-%dT%H:%M:%S%z"


def resolve_endpoint_config(args) -> EndpointConfig:
    return EndpointConfig(**{key: getattr(args, key) for key in _ENDPOINT_KEYS},
                          seed=args.seed)


def _make_backend(args, cfg: EndpointConfig):
    """The command's backend; the command closes it on every exit path."""
    if getattr(args, "mock", None):
        return MockBackend.from_dir(args.mock)
    if not cfg.base_url:
        raise ValueError("no endpoint configured: pass --mock DIR or --base-url URL")
    return HttpBackend(cfg.base_url, cfg.model)


def write_run_manifest(args, argv, started, fields):
    """Write a run's manifest: what `args` gives, overridden by the command's `fields`.

    Written to <out_dir>/manifest.json, or <out>.manifest.json for a command
    without --out-dir.
    """
    out_dir = getattr(args, "out_dir", None)
    path = (os.path.join(out_dir, "manifest.json") if out_dir
            else args.out + ".manifest.json")
    write_json(path, {
        "command": args.command,
        "argv": list(argv),
        "config": {},
        "seed": getattr(args, "seed", None),
        "exclusions": {},
        **fields,
        "tool_version": __version__,
        "started": started,
        "finished": time.strftime(_TIMESTAMP),
    })


def _config_snapshot(cfg: EndpointConfig) -> dict:
    return {key: getattr(cfg, key) for key in _ENDPOINT_KEYS}


def _add_endpoint_flags(p):
    p.add_argument("--mock", help="directory of fingerprint-named mock responses")
    for key in _ENDPOINT_KEYS:
        default = getattr(_ENDPOINT_DEFAULTS, key)
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                       default=default)


def _add_batch_run_args(p):
    """The arguments gen and batch-experiment share."""
    p.add_argument("--questions", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--batch-size", action="append", type=int, required=True)
    p.add_argument("--group", choices=["random", "sequential"], default="random")
    p.add_argument("--seed", type=int, default=0)
    _add_endpoint_flags(p)


def _send_batch_runs(args, take):
    """Send every batch run of gen or batch-experiment, one --batch-size at a time.

    Each size must be at least 1 and given once, which is checked before
    --out-dir is made or any request is sent. Once a size's requests are
    done, take(questions, k, records, failures) gets its completions and
    failed requests. Returns the manifest fields both commands write.
    """
    for i, k in enumerate(args.batch_size):
        if k < 1 or k in args.batch_size[:i]:
            problem = "must be at least 1" if k < 1 else "is given more than once"
            raise ValueError(f"--batch-size {k} {problem}")
    cfg = resolve_endpoint_config(args)
    request_failures = 0
    with closing(_make_backend(args, cfg)) as backend:
        questions = load_questions(args.questions)
        os.makedirs(args.out_dir, exist_ok=True)
        for k in args.batch_size:
            groups = shuffle_and_group(questions, k, seed=args.seed, group=args.group)
            records, failures = complete_many([build_prompt(g) for g in groups], cfg,
                                              backend)
            request_failures += len(failures)
            take(questions, k, records, failures)
    return {"config": _config_snapshot(cfg), "inputs": [args.questions],
            "exclusions": {"request_failures": request_failures,
                           "ungrouped": sum(len(questions) % k for k in args.batch_size)},
            "group": args.group, "batch_sizes": args.batch_size}


# --- subcommands ----------------------------------------------------------------
# A command returns its own manifest fields, which main writes, or an exit code
# when it writes no manifest.

def cmd_gen(args):
    outputs = []

    def write(questions, k, records, failures):
        out_path = os.path.join(args.out_dir, f"completions_k{k}.jsonl")
        write_completions(out_path, records)
        outputs.append(out_path)
        mode = "vanilla" if k == 1 else f"batch-{k}"
        print(f"{mode}: {len(records)} completions, "
              f"mean tokens/question = {show(tokens_per_question(records))}, "
              f"failures = {len(failures)}")

    return {**_send_batch_runs(args, write), "outputs": outputs}


def cmd_split(args):
    records = read_completions(args.infile)
    chains, unsplit_records = split_completions(records)
    unsplittable = len(unsplit_records)
    write_chains(args.out, chains)
    rate = show(mean(unsplittable, len(records)), ".1%")
    print(f"{len(chains)} chains from {len(records)} completions; "
          f"unsplittable = {unsplittable} ({rate})")
    return {"inputs": [args.infile], "outputs": [args.out],
            "exclusions": {"unsplittable": unsplittable}}


def cmd_grade(args):
    questions = load_questions(args.questions)
    chains = read_chains(args.infile)
    counts = verify.grade_chains(chains, questions)
    write_chains(args.out, chains)
    print(f"graded {len(chains)} chains: " +
          ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return {"inputs": [args.infile, args.questions], "outputs": [args.out],
            "verdict_counts": counts}


def cmd_label(args):
    real = [os.path.realpath(path) for path in args.infile]
    for i, path in enumerate(args.infile):
        if real[i] in real[:i]:
            raise ValueError(f"--in {path} is given more than once")
    questions = load_questions(args.questions)
    chains = [c for path in args.infile for c in read_chains(path)]
    mode = preference.PAIRED if args.paired else preference.PER_CHAIN
    samples, manifest = preference.build_dataset(chains, questions, seed=args.seed,
                                                 mode=mode)
    preference.write_samples(args.out, samples)
    print(f"{manifest['n_samples']} samples; label counts: "
          + ", ".join(f"{k}={v}" for k, v in manifest["label_counts"].items()))
    return {"inputs": args.infile + [args.questions], "outputs": [args.out],
            "dataset": manifest}


def cmd_grpo_check(args):
    from batchcot import grpo  # numpy loads only for the grpo-* commands

    results = grpo.run_verification_suite(seed=args.seed)
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    return 0 if all(result.passed for result in results) else 1


def cmd_grpo_train_toy(args):
    from batchcot import grpo

    cfg = GrpoConfig(
        beta=args.beta, group_size=args.group_size, learning_rate=args.lr,
        steps=args.steps, advantage_mode=args.advantage_mode,
        objective_mode=args.objective_mode,
    )
    dataset = grpo.make_toy_dataset(n=args.samples, seed=args.seed)
    policy, curve = grpo.train_toy(dataset, cfg, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    curve_path = os.path.join(args.out_dir, "curve.csv")
    policy_path = os.path.join(args.out_dir, "policy.txt")
    grpo.write_curve_csv(curve_path, curve)
    grpo.save_policy(policy_path, policy, args.seed, cfg)
    final = curve[-1].mean_gold_prob if curve else 1 / 3
    print(f"trained {cfg.steps} steps; final mean gold-label probability = {final:.4f}")
    return {"config": {**to_dict(cfg), "samples": args.samples},
            "inputs": [], "outputs": [curve_path, policy_path]}


def cmd_eval(args):
    cfg = resolve_endpoint_config(args)
    with closing(_make_backend(args, cfg)) as backend:
        spec = harness.registry_spec(
            args.benchmark, args.corpus, samples_per_question=args.samples_per_question
        )
        os.makedirs(args.out_dir, exist_ok=True)
        records, aggregate = harness.evaluate(spec, cfg, backend)
    results_path = os.path.join(args.out_dir, "results.jsonl")
    write_jsonl(results_path, records)
    agg_path = os.path.join(args.out_dir, "aggregate.json")
    harness.write_aggregates(agg_path, [aggregate])
    report = harness.render_report([aggregate])
    report_path = os.path.join(args.out_dir, "report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print(report)
    return {"config": _config_snapshot(cfg), "inputs": [args.corpus],
            "outputs": [results_path, agg_path, report_path],
            "exclusions": {"request_failures": aggregate.exclusions}}


def cmd_report(args):
    aggregates = harness.read_aggregates(args.aggregates)
    baseline = harness.read_aggregates(args.baseline) if args.baseline else None
    report = harness.render_report(aggregates, baseline=baseline)
    print(report)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(harness.aggregates_to_csv(aggregates))
    return 0


def cmd_batch_experiment(args):
    rows = []
    fields = _send_batch_runs(args, lambda *run: rows.append(run_batch_experiment(*run)))
    rows_path = os.path.join(args.out_dir, "experiment.jsonl")
    write_jsonl(rows_path, map(to_dict, rows))
    table = render_experiment_table(rows)
    table_path = os.path.join(args.out_dir, "experiment.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    fields["exclusions"]["unsplittable"] = sum(r.n_unsplittable for r in rows)
    return {**fields, "outputs": [rows_path, table_path]}


def _add_split_args(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)


def _add_grade_args(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)


def _add_label_args(p):
    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paired", action="store_true",
                   help="one vanilla + one batch chain per question")


def _add_grpo_check_args(p):
    p.add_argument("--seed", type=int, default=0)


def _add_grpo_train_toy_args(p):
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--steps", type=int, default=GrpoConfig.steps)
    p.add_argument("--group-size", type=int, default=GrpoConfig.group_size)
    p.add_argument("--beta", type=float, default=GrpoConfig.beta)
    p.add_argument("--lr", type=float, default=GrpoConfig.learning_rate)
    p.add_argument("--advantage-mode", choices=ADVANTAGE_MODES,
                   default=GrpoConfig.advantage_mode)
    p.add_argument("--objective-mode", choices=OBJECTIVE_MODES,
                   default=GrpoConfig.objective_mode)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)


def _add_eval_args(p):
    p.add_argument("--benchmark", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--samples-per-question", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_endpoint_flags(p)


def _add_report_args(p):
    p.add_argument("--aggregates", required=True)
    p.add_argument("--baseline")
    p.add_argument("--csv")


# (name, help, add-arguments function, command function), in --help order
COMMANDS = (
    ("gen", "generate vanilla and batch completions", _add_batch_run_args, cmd_gen),
    ("split", "split completions into reasoning chains", _add_split_args, cmd_split),
    ("grade", "attach correctness verdicts to chains", _add_grade_args, cmd_grade),
    ("label", "build the A/B/C preference dataset", _add_label_args, cmd_label),
    ("grpo-check", "run gradient/KL/advantage verification", _add_grpo_check_args,
     cmd_grpo_check),
    ("grpo-train-toy", "train the toy label policy", _add_grpo_train_toy_args,
     cmd_grpo_train_toy),
    ("eval", "evaluate a benchmark corpus", _add_eval_args, cmd_eval),
    ("report", "render an accuracy/token report", _add_report_args, cmd_report),
    ("batch-experiment", "vanilla vs batch-k token/accuracy comparison",
     _add_batch_run_args, cmd_batch_experiment),
)


# the metavar the full parser's usage line derives from its choices
_COMMANDS_METAVAR = "{" + ",".join(name for name, _, _, _ in COMMANDS) + "}"


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The batchcot parser.

    Given the argv it will parse, when argv[0] names a subcommand only that
    subcommand's parser is built, which is all that parse can reach; otherwise
    every subcommand's is. Either way the usage, --help and error output are
    the same.
    """
    parser = argparse.ArgumentParser(
        prog="batchcot",
        description="Batch-inference reasoning-efficiency pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    invoked = [command for command in COMMANDS if argv and command[0] == argv[0]]
    if invoked:
        # Set only here: an error about the command argument names the
        # metavar, not "command", and with argv[0] a command there is none.
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar=_COMMANDS_METAVAR)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_args, func in invoked or COMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.strftime(_TIMESTAMP)
    try:
        fields = args.func(args)
        if not isinstance(fields, dict):
            return fields
        write_run_manifest(args, argv, started, fields)
        return 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
