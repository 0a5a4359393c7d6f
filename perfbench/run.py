"""batchcot benchmark: one workload per run, end to end through ``batchcot.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see BENCHMARK.json and perfbench/README.md):

- ``mock-pipeline``: gen (mock engine) -> split x3 -> grade x3 -> label ->
  batch-experiment at batch sizes 1, 4 and 8 over a generated corpus;
- ``http-eval``: ``eval --benchmark aime2024`` against a loopback server
  running in a child process;
- ``grpo``: ``grpo-check``, then ``grpo-train-toy``.

Each run repeats the workload's commands until ``--seconds`` have passed,
checks every output, and reports whole-run figures (see ``summarize``),
rescaled to a reference machine speed by a fixed probe timed around every
pass (see speed.py). Between passes it times the
set-up (a fresh interpreter importing batchcot, generating the inputs and,
for http-eval, starting the server) in several child processes. With ``--trace 1``
every other pass is traced and the run reports per-layer metrics instead,
with the tracing overhead. Human-readable lines come first; the last line
of standard output is one JSON object. The exit code is nonzero when an
output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checker
import gen_inputs
import layers
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("mock-pipeline", "http-eval", "grpo")
SETUP_PROBES = 7
# closed loop: one process, each worker waits for its reply; never more
# workers (threads or connections) than cores
MAX_CONCURRENT = max(1, min(2, len(os.sched_getaffinity(0))))
TRAIN_SAMPLES = 1000
CHECK_SEED = 8  # 1121 resamples in gradient_check
TRAIN_STEPS = 2000

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "command_s": "s",
    "peak_rss_mb": "MB",
}
# what items_per_s and command_s mean on each workload
WORKLOAD_NAMES = {
    "mock-pipeline": ("questions_per_s", "pipeline_s"),
    "http-eval": ("requests_per_s", "eval_s"),
    "grpo": ("train_steps_per_s", "grpo_check_s"),
}


class BenchError(Exception):
    """The program failed a command or the benchmark could not run it."""


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- inputs and the loopback server -------------------------------------------

class LoopbackServer:
    """The stdlib server of loopback_server.py in a child process."""

    def __init__(self, responses_path):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "loopback_server.py"), responses_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise BenchError("loopback server did not start")
        port, probe_port = (int(word) for word in line.split()[1:])
        self.url = f"http://127.0.0.1:{port}/v1"
        self.probe_address = ("127.0.0.1", probe_port)

    def stop(self) -> dict:
        """Shut the server down, wait for it, and return its counters."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("loopback server did not stop")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def make_inputs(workload, work, seed):
    if workload == "mock-pipeline":
        return gen_inputs.make_pipeline_inputs(work, seed)
    if workload == "http-eval":
        return gen_inputs.make_eval_inputs(work, seed)
    return {}


def setup_probe(args) -> int:
    """Child side of the set-up timing: import, make inputs, start the server."""
    t0 = time.monotonic()
    import batchcot.cli  # noqa: F401  (the import being timed)
    t1 = time.monotonic()
    work = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        make_inputs(args.workload, work, args.seed)
        t2 = time.monotonic()
        server = None
        if args.workload == "http-eval":
            server = LoopbackServer(os.path.join(work, "responses.json"))
        t3 = time.monotonic()
        print(json.dumps({"ready": t3, "import_s": t1 - t0, "inputs_s": t2 - t1,
                          "server_start_s": t3 - t2}), flush=True)
        if server is not None:
            server.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def probe_setup(args) -> dict:
    """Set-up phases of one fresh interpreter; setup_s is spawn to ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    # the monotonic clock is system-wide, so the child's "ready" reading
    # compares with this one
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["setup_s"] = info.pop("ready") - start
    return info


# --- workloads -------------------------------------------------------------------

def run_cli(argv) -> str:
    """One batchcot command as a user types it; returns its standard output."""
    from batchcot import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise BenchError(f"batchcot {' '.join(argv[:1])} exited with {code}")
    return buf.getvalue()


class MockPipeline:
    def __init__(self, work, seed, truth):
        self.truth = truth
        self.questions = os.path.join(work, "questions.jsonl")
        self.run_dir = os.path.join(work, "run")
        ks = truth["batch_sizes"]
        f = checker.pipeline_files(self.run_dir, ks)
        sizes = [a for k in ks for a in ("--batch-size", str(k))]
        common = ["--seed", str(seed), "--mock", os.path.join(work, "mock"),
                  "--max-concurrent", str(MAX_CONCURRENT)]
        self.argvs = (
            [["gen", "--questions", self.questions, "--out-dir", f["gen_dir"]] + sizes + common]
            + [["split", "--in", f["completions"][k], "--out", f["chains"][k]] for k in ks]
            + [["grade", "--in", f["chains"][k], "--questions", self.questions,
                "--out", f["graded"][k]] for k in ks]
            + [["label", "--questions", self.questions, "--out", f["prefs"],
                "--seed", str(seed)] + [a for k in ks for a in ("--in", f["graded"][k])]]
            + [["batch-experiment", "--questions", self.questions,
                "--out-dir", f["exp_dir"]] + sizes + common]
        )
        self.items = truth["n_questions"] * len(ks)

    def one_pass(self) -> dict:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        start = time.perf_counter()
        for argv in self.argvs:
            run_cli(argv)
        elapsed = time.perf_counter() - start
        return {"command_s": elapsed, "items": self.items, "items_s": elapsed}

    def check(self):
        return checker.check_pipeline(self.run_dir, self.truth, self.questions)


class HttpEval:
    def __init__(self, work, seed, truth, url):
        self.truth = truth
        self.run_dir = os.path.join(work, "run")
        self.argv = ["eval", "--benchmark", "aime2024",
                     "--corpus", os.path.join(work, "corpus.jsonl"),
                     "--out-dir", self.run_dir, "--base-url", url,
                     "--max-concurrent", str(MAX_CONCURRENT), "--seed", str(seed)]
        self.items = len(truth["questions"]) * truth["repeats"]

    def one_pass(self) -> dict:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        start = time.perf_counter()
        run_cli(self.argv)
        elapsed = time.perf_counter() - start
        return {"command_s": elapsed, "items": self.items, "items_s": elapsed}

    def check(self):
        return checker.check_eval(self.run_dir, self.truth)


class Grpo:
    def __init__(self, work, seed):
        self.run_dir = os.path.join(work, "run")
        # grpo-check's work depends on its seed through the mixed-group
        # resampling in gradient_check: 600 to 12k resamples over seeds 1-20
        # (median 1036) and 64k for the default seed 0. A fixed seed near the
        # median keeps passes comparable across runs;
        # --seed drives grpo-train-toy's dataset and sampling.
        self.check_argv = ["grpo-check", "--seed", str(CHECK_SEED)]
        self.train_argv = ["grpo-train-toy", "--samples", str(TRAIN_SAMPLES),
                           "--steps", str(TRAIN_STEPS), "--seed", str(seed),
                           "--out-dir", self.run_dir]
        self.check_stdout = ""

    def one_pass(self) -> dict:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        start = time.perf_counter()
        self.check_stdout = run_cli(self.check_argv)
        check_s = time.perf_counter() - start
        start = time.perf_counter()
        run_cli(self.train_argv)
        train_s = time.perf_counter() - start
        return {"command_s": check_s, "items": TRAIN_STEPS, "items_s": train_s}

    def check(self):
        return checker.check_grpo(self.check_stdout,
                                  os.path.join(self.run_dir, "curve.csv"), TRAIN_STEPS)


# --- the run ---------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import requests

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "requests": requests.__version__,
            "nproc": len(os.sched_getaffinity(0)), "max_concurrent": MAX_CONCURRENT}


def run_passes(workload, args, tracer, probe):
    """Repeat the workload until `args.seconds` have passed; check every pass.

    The first pass is checked in full against the truth; every later pass
    must reproduce its output files byte for byte. With tracing, odd passes
    are traced; at least two passes of each kind run. The set-up probes run
    between passes, spread evenly over the run, so that they see the same
    drift in machine speed as the passes do. The machine-speed probe is timed
    right before and right after every pass (see speed.py).
    """
    passes = []
    setup = []
    report = digests = None
    probe_s = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(probe_setup(args))
            probe_s = None
            continue
        traced = bool(args.trace) and len(passes) % 2 == 1
        if probe_s is None:
            probe_s = speed.time_probe(probe)
        if traced:
            tracer.reset()
            layers.install(tracer)
        try:
            result = workload.one_pass()
        finally:
            tracer.unpatch()
        result["probe_s"] = [probe_s, speed.time_probe(probe)]
        probe_s = result["probe_s"][1]
        result["traced"] = traced
        if traced:
            result["layers"] = layers.span_metrics(tracer.spans, tracer.counts)
        passes.append(result)
        if report is None:
            try:
                report = workload.check()
            except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                report = checker.Report()
                report.require(False, f"outputs not readable as expected: {exc!r}")
            digests = checker.output_digests(workload.run_dir)
        elif checker.output_digests(workload.run_dir) != digests:
            report.require(False, f"pass {len(passes)}: outputs differ from pass 1")
        # pass 1 warms up and is not timed
        minimum = 5 if args.trace else 4
        if (time.perf_counter() - start >= args.seconds and len(passes) >= minimum
                and len(setup) == SETUP_PROBES):
            return passes, setup, report, digests


def run(args, work) -> dict:
    truth = make_inputs(args.workload, work, args.seed)
    server = None
    server_stats = {}
    tracer = tracing.Tracer()
    try:
        if args.workload == "mock-pipeline":
            workload = MockPipeline(work, args.seed, truth)
        elif args.workload == "http-eval":
            server = LoopbackServer(os.path.join(work, "responses.json"))
            workload = HttpEval(work, args.seed, truth, server.url)
        else:
            workload = Grpo(work, args.seed)
        probe = speed.make_probe(args.workload, server and server.probe_address)
        passes, setup, report, digests = run_passes(workload, args, tracer, probe)
    finally:
        if server is not None:
            server_stats = server.stop()
    if server_stats.get("unknown_prompts"):
        report.require(False, f"server saw {server_stats['unknown_prompts']} unknown prompts")
    return {"setup": setup, "passes": passes, "report": report, "digests": digests,
            "server": server_stats, "tracer": tracer,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def timed_passes(res, traced):
    """Passes after the warm-up pass, with their timings at reference speed.

    Each pass's command_s and items_s are rescaled by the machine-speed probe
    timed around it (see speed.py); the raw ones stay as raw_command_s and
    raw_items_s.
    """
    out = []
    for p in res["passes"][1:]:
        if p["traced"] != traced:
            continue
        q = dict(p, raw_command_s=p["command_s"], raw_items_s=p["items_s"])
        for key in ("command_s", "items_s"):
            q[key] = speed.rescale(p[key], *p["probe_s"])
        out.append(q)
    return out


def raw_setup_s(res) -> float:
    return statistics.median(s["setup_s"] for s in res["setup"])


def run_probe_s(res) -> float:
    """Median of every probe timing of the run, which setup_s is rescaled by.

    Not the probes next to each set-up sample: one sample's cost (process
    start, imports) varies by itself much more than it follows the probe,
    while between runs both follow the machine's slow drift.
    """
    return statistics.median(t for p in res["passes"] for t in p["probe_s"])


def summarize(args, res) -> dict:
    """Metrics of the run: end-to-end ones untraced, per-layer ones traced.

    items_per_s is all items over all their timed seconds and command_s the
    mean pass, both at reference speed, not medians: whole-run figures follow
    the share of time spent in each of the machine's fast and slow phases,
    where a run's median pass lands in one mode or the other.
    """
    untraced = timed_passes(res, False)
    report = res["report"]
    n_passes = len(res["passes"])
    if not args.trace:
        return {
            "setup_s": speed.rescale_setup(raw_setup_s(res), run_probe_s(res)),
            "items_per_s": (sum(p["items"] for p in untraced)
                            / sum(p["items_s"] for p in untraced)),
            "command_s": statistics.fmean(p["command_s"] for p in untraced),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    traced = timed_passes(res, True)
    m = layers.median_metrics([p["layers"] for p in traced])
    server = res["server"]
    m["client.connections_opened"] = server.get("connections", 0) / n_passes
    m["server.busy_s"] = server.get("busy_s", 0.0) / n_passes
    notes = report.notes
    m["parsing.wrong_chains"] = notes.get("wrong_chains", 0)
    m["parsing.split_yield"] = (notes["chains_right"] / notes["chains_expected"]
                                if notes.get("chains_expected") else 0.0)
    for phase in ("import_s", "inputs_s", "server_start_s"):
        m[f"setup.{phase}"] = statistics.median(s[phase] for s in res["setup"])
    m["check.error_rate"] = report.error_rate
    m["trace.overhead_frac"] = tracing.overhead_frac(
        [p["command_s"] for p in traced], [p["command_s"] for p in untraced])
    return {name: m[name] for name, _, _, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "batchcot", "__init__.py")):
        print(f"perfbench: no batchcot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        res = run(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = summarize(args, res)
    report = res["report"]
    untraced = timed_passes(res, False)
    units = dict(END_TO_END, **layers.UNITS)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}, seed {args.seed}, {len(res['passes'])} passes "
          f"({len(untraced)} untraced and timed), tracing {'on' if args.trace else 'off'}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if not args.trace:
        rate_name, command_name = WORKLOAD_NAMES[args.workload]
        rates = [p["items"] / p["items_s"] for p in untraced]
        raw_rate = (sum(p["items"] for p in untraced)
                    / sum(p["raw_items_s"] for p in untraced))
        raw_command = statistics.fmean(p["raw_command_s"] for p in untraced)
        print(f"{rate_name} = {metrics['items_per_s']:.6g} 1/s at reference speed "
              f"(over {len(rates)} timed passes; per pass min {min(rates):.6g}, median "
              f"{statistics.median(rates):.6g}, max {max(rates):.6g}); "
              f"raw {raw_rate:.6g} 1/s")
        print(f"{command_name} = {metrics['command_s']:.6g} s at reference speed; "
              f"raw {raw_command:.6g} s")
        probes = [sum(p["probe_s"]) / 2 for p in untraced]
        print(f"speed probe = median {statistics.median(probes):.6g} s, min "
              f"{min(probes):.6g}, max {max(probes):.6g} "
              f"(reference {speed.REFERENCE_S} s)")
        print(f"raw set-up = {raw_setup_s(res):.6g} s (median of {len(res['setup'])} "
              f"samples; setup_s below is at reference speed)")
    moves = {name: m for name, _, _, m in layers.PER_LAYER}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}"
              + (f"  (moves: {moves[name]})" if name in moves else ""))
    print(f"error_rate = {report.error_rate:.6g} ({report.failed} of {report.attempted} "
          f"operations; {json.dumps(report.notes, sort_keys=True)})")
    for message in report.hard:
        print(f"CHECK FAILED: {message}")
    if args.trace:
        res["tracer"].write(os.path.join(OUT, f"trace-{tag}.jsonl"))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, "metrics": metrics, "passes": [
                       {k: v for k, v in p.items() if k != "layers"} for p in res["passes"]],
                   "setup": res["setup"], "server": res["server"],
                   "check": {"attempted": report.attempted, "failed": report.failed,
                             "hard": report.hard, "notes": report.notes},
                   "output_sha256": res["digests"]}, fh, indent=1, sort_keys=True)
    correct = not report.hard
    # counts of one pass (every later pass reproduces its outputs byte for
    # byte), so they do not grow with the number of passes a run fits in
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
