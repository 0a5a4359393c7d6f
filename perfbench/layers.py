"""Which batchcot functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/batchcot``. Each entry of ``PER_LAYER`` names
a metric, its unit, its direction and the end-to-end metric (and workload)
it is expected to move.
"""

from __future__ import annotations

import statistics

from tracing import Tracer, self_times

STAGES = ("gen", "split", "grade", "label", "batch-experiment", "eval",
          "grpo-check", "grpo-train-toy")

_E2E_PIPE = "items_per_s on mock-pipeline"
_E2E_HTTP = "items_per_s on http-eval"
_E2E_CHECK = "command_s on grpo"
_E2E_TRAIN = "items_per_s on grpo"
_E2E_GRPO = f"{_E2E_CHECK}; {_E2E_TRAIN}"
_STAGE_MOVES = {"eval": _E2E_HTTP, "grpo-check": _E2E_CHECK, "grpo-train-toy": _E2E_TRAIN}

# (name, unit, better, moves)
PER_LAYER = (
    [(f"cli.stage_s.{s}", "s", "lower", _STAGE_MOVES.get(s, _E2E_PIPE)) for s in STAGES]
    + [
        ("cli.self_s", "s", "lower", f"{_E2E_PIPE}; {_E2E_HTTP}"),
        ("prompts.build_s", "s", "lower", f"{_E2E_PIPE} (predicted small)"),
        ("prompts.envelopes", "count", "higher", "none; a work count"),
        ("prompts.load_questions_s", "s", "lower", _E2E_PIPE),
        ("client.complete_many_s", "s", "lower", f"{_E2E_HTTP}; no change on mock-pipeline"),
        ("client.requests", "count", "higher", "none; a work count"),
        ("client.failed", "count", "lower", f"error rate on {_E2E_HTTP}"),
        ("client.retries", "count", "lower", _E2E_HTTP),
        ("client.request_ms_p50", "ms", "lower", _E2E_HTTP),
        ("client.request_ms_p99", "ms", "lower", _E2E_HTTP),
        ("client.request_ms_samples", "count", "higher", "sample count of the two above"),
        ("client.cpu_ms_per_request", "ms", "lower", _E2E_HTTP),
        ("client.connections_opened", "count", "lower", _E2E_HTTP),
        ("server.busy_s", "s", "lower", "none; the server's own cost"),
        ("parsing.split_s", "s", "lower", _E2E_PIPE),
        ("parsing.split_records_per_s", "1/s", "higher", _E2E_PIPE),
        ("parsing.split_mb_per_s", "MB/s", "higher", _E2E_PIPE),
        ("parsing.unsplittable", "count", "lower", "none; excluded responses"),
        ("parsing.chains_out", "count", "higher", "none; a work count"),
        ("parsing.wrong_chains", "count", "lower", "error rate on mock-pipeline"),
        ("parsing.split_yield", "frac", "higher", "error rate on mock-pipeline"),
        ("parsing.read_completions_s", "s", "lower", _E2E_PIPE),
        ("parsing.write_completions_s", "s", "lower", _E2E_PIPE),
        ("parsing.write_chains_s", "s", "lower", _E2E_PIPE),
        ("parsing.read_chains_s", "s", "lower", _E2E_PIPE),
        ("verify.grade_s", "s", "lower", f"{_E2E_PIPE} (little effect on http-eval)"),
        ("verify.grades", "count", "higher", "none; a work count"),
        ("verify.unparseable", "count", "lower", "none; designed share"),
        ("preference.build_dataset_s", "s", "lower", _E2E_PIPE),
        ("preference.write_samples_s", "s", "lower", _E2E_PIPE),
        ("preference.samples", "count", "higher", "none; a work count"),
        ("harness.evaluate_self_s", "s", "lower", _E2E_HTTP),
        ("harness.samples", "count", "higher", "none; a work count"),
        ("harness.exclusions", "count", "lower", f"error rate on {_E2E_HTTP}"),
        ("grpo.gradient_check_s", "s", "lower", _E2E_CHECK),
        ("grpo.advantage_checks_s", "s", "lower", _E2E_CHECK),
        ("grpo.kl_checks_s", "s", "lower", _E2E_CHECK),
        ("grpo.loss_evals", "count", "lower", _E2E_GRPO),
        ("grpo.train_step_us", "us", "lower", _E2E_TRAIN),
        ("setup.import_s", "s", "lower", "setup_s"),
        ("setup.inputs_s", "s", "lower", "setup_s"),
        ("setup.server_start_s", "s", "lower", "setup_s"),
        ("check.error_rate", "frac", "lower", "error rate, every workload"),
        ("trace.overhead_frac", "frac", "lower", "none; cost of tracing"),
    ]
)
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def _cli_stage(args, kwargs):
    return "cli.stage." + args[0][0]


def _record_bytes(span, args, outcome):
    span.extra["bytes"] = len(args[0].raw_text.encode("utf-8"))
    span.extra["chains"] = len(outcome) if isinstance(outcome, list) else 0


def _vanilla(span, args, outcome):
    span.extra["bytes"] = len(args[0].raw_text.encode("utf-8"))
    span.extra["chains"] = 0 if isinstance(outcome, BaseException) else 1


def _attempts(span, args, outcome):
    attempts = getattr(outcome, "attempts", None)
    span.extra["attempts"] = len(attempts) if attempts else 1


def _verdict(span, args, outcome):
    span.extra["verdict"] = outcome if isinstance(outcome, str) else None


def _dataset(span, args, outcome):
    span.extra["samples"] = 0 if isinstance(outcome, BaseException) else len(outcome[0])


def _evaluation(span, args, outcome):
    if not isinstance(outcome, BaseException):
        span.extra["samples"] = outcome[1].n_samples
        span.extra["exclusions"] = outcome[1].exclusions


def _steps(span, args, outcome):
    span.extra["steps"] = args[1].steps


def install(tracer: Tracer):
    """Wrap the public functions of every batchcot layer with spans."""
    from batchcot import cli, client, grpo, harness, parsing, preference, prompts, verify

    plan = [
        (cli, "main", _cli_stage, {}),
        (prompts, "build_prompt", "prompts.build_prompt", {}),
        (prompts, "build_single_prompt", "prompts.build_single_prompt", {}),
        (prompts, "build_batch_prompt", "prompts.build_batch_prompt", {}),
        (prompts, "load_questions", "prompts.load_questions", {}),
        (prompts, "shuffle_and_group", "prompts.shuffle_and_group", {}),
        (client, "complete_many", "client.complete_many", {"fanout": True}),
        (client, "complete", "client.complete", {"request": True, "cpu": True}),
        (client.MockBackend, "send", "client.mock_send", {"hook": _attempts}),
        (client.HttpBackend, "send", "client.http_send", {"hook": _attempts}),
        (client, "run_batch_experiment", "client.run_batch_experiment", {}),
        (parsing, "split_batch_chains", "parsing.split_batch_chains",
         {"hook": _record_bytes}),
        (parsing, "vanilla_chain", "parsing.vanilla_chain", {"hook": _vanilla}),
        (parsing, "parse_final_answers", "parsing.parse_final_answers", {}),
        (parsing, "read_completions", "parsing.read_completions", {}),
        (parsing, "write_completions", "parsing.write_completions", {}),
        (parsing, "read_chains", "parsing.read_chains", {}),
        (parsing, "write_chains", "parsing.write_chains", {}),
        (verify, "grade", "verify.grade", {"hook": _verdict}),
        (preference, "build_dataset", "preference.build_dataset", {"hook": _dataset}),
        (preference, "write_samples", "preference.write_samples", {}),
        (harness, "evaluate", "harness.evaluate", {"hook": _evaluation}),
        (harness, "write_aggregates", "harness.write_aggregates", {}),
        (harness, "render_report", "harness.render_report", {}),
        (grpo, "run_verification_suite", "grpo.run_verification_suite", {}),
        (grpo, "gradient_check", "grpo.gradient_check", {}),
        (grpo, "advantage_checks", "grpo.advantage_checks", {}),
        (grpo, "kl_checks", "grpo.kl_checks", {}),
        (grpo, "make_toy_dataset", "grpo.make_toy_dataset", {}),
        (grpo, "train_toy", "grpo.train_toy", {"hook": _steps}),
    ]
    for owner, attr, name, options in plan:
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), **options),
                     "batchcot")
    tracer.patch(grpo, "grpo_loss", tracer.counted("grpo.loss_evals", grpo.grpo_loss),
                 "batchcot")


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[index]


def span_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass (spans and call counts)."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    names = {span.id: span.name for span in spans}
    own = self_times(spans)

    def total(*span_names):
        return sum(s.duration for n in span_names for s in by_name.get(n, ()))

    def outermost(*span_names):
        """Spans of these names not nested in another of them."""
        return [s for n in span_names for s in by_name.get(n, ())
                if names.get(s.parent) not in span_names]

    m = {f"cli.stage_s.{stage}": total(f"cli.stage.{stage}") for stage in STAGES}
    m["cli.self_s"] = sum(own[s.id] for s in spans if s.name.startswith("cli.stage."))

    builds = outermost("prompts.build_prompt", "prompts.build_single_prompt",
                       "prompts.build_batch_prompt")
    m["prompts.build_s"] = sum(s.duration for s in builds)
    m["prompts.envelopes"] = len(builds)
    m["prompts.load_questions_s"] = total("prompts.load_questions")

    requests = by_name.get("client.complete", [])
    latencies = [s.duration * 1000 for s in requests]
    sends = by_name.get("client.mock_send", []) + by_name.get("client.http_send", [])
    m["client.complete_many_s"] = total("client.complete_many")
    m["client.requests"] = len(requests)
    m["client.failed"] = sum(1 for s in requests if s.error)
    m["client.retries"] = sum(s.extra["attempts"] - 1 for s in sends)
    m["client.request_ms_p50"] = _percentile(latencies, 50) if latencies else 0.0
    m["client.request_ms_p99"] = _percentile(latencies, 99) if latencies else 0.0
    m["client.request_ms_samples"] = len(latencies)
    m["client.cpu_ms_per_request"] = (
        sum(s.extra["cpu_s"] for s in requests) * 1000 / len(requests)
        if requests else 0.0)

    splits = outermost("parsing.split_batch_chains", "parsing.vanilla_chain")
    split_s = sum(s.duration for s in splits)
    m["parsing.split_s"] = split_s
    m["parsing.split_records_per_s"] = len(splits) / split_s if split_s else 0.0
    m["parsing.split_mb_per_s"] = (
        sum(s.extra["bytes"] for s in splits) / 1e6 / split_s if split_s else 0.0)
    m["parsing.unsplittable"] = sum(
        1 for s in by_name.get("parsing.split_batch_chains", ())
        if s.error == "UnsplittableError")
    m["parsing.chains_out"] = sum(s.extra["chains"] for s in splits)
    m["parsing.read_completions_s"] = total("parsing.read_completions")
    m["parsing.write_completions_s"] = total("parsing.write_completions")
    m["parsing.write_chains_s"] = total("parsing.write_chains")
    m["parsing.read_chains_s"] = total("parsing.read_chains")

    grades = by_name.get("verify.grade", [])
    m["verify.grade_s"] = total("verify.grade")
    m["verify.grades"] = len(grades)
    m["verify.unparseable"] = sum(1 for s in grades if s.extra["verdict"] == "unparseable")

    m["preference.build_dataset_s"] = total("preference.build_dataset")
    m["preference.write_samples_s"] = total("preference.write_samples")
    m["preference.samples"] = sum(s.extra.get("samples", 0)
                                  for s in by_name.get("preference.build_dataset", ()))

    evaluations = by_name.get("harness.evaluate", [])
    m["harness.evaluate_self_s"] = sum(own[s.id] for s in evaluations)
    m["harness.samples"] = sum(s.extra.get("samples", 0) for s in evaluations)
    m["harness.exclusions"] = sum(s.extra.get("exclusions", 0) for s in evaluations)

    trains = by_name.get("grpo.train_toy", [])
    steps = sum(s.extra["steps"] for s in trains)
    m["grpo.gradient_check_s"] = total("grpo.gradient_check")
    m["grpo.advantage_checks_s"] = total("grpo.advantage_checks")
    m["grpo.kl_checks_s"] = total("grpo.kl_checks")
    m["grpo.loss_evals"] = counts.get("grpo.loss_evals", 0)
    m["grpo.train_step_us"] = (sum(s.duration for s in trains) * 1e6 / steps
                               if steps else 0.0)
    return m


def median_metrics(per_pass) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
