"""Machine-speed probes: fixed work timed beside every pass of a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, as neighbours load it. A run's raw
figures follow that drift, so two runs of the same code can differ by more
than any useful bound. Each workload therefore has a probe: a fixed piece
of the same kind of work the workload's commands do, built from the standard
library, requests and numpy only, never from ``batchcot``, so a change to
the program cannot change it. The run times the probe right before and right
after every pass and rescales the pass to the probe's reference time::

    pass_s at reference speed = pass_s * REFERENCE_S / probe_s

where ``probe_s`` is the mean of the two probe timings. ``REFERENCE_S`` only
sets the scale of the rescaled figures; the probes take 20 to 30 ms when the
machine the benchmark was defined on (2 vCPU Xeon, shared host) runs fast.
The probes are fixed with the benchmark: changing one, or REFERENCE_S,
changes every rescaled figure.

- ``mock-pipeline``: JSON round trips, heading and box regexes and word
  splits over batch responses made by ``gen_inputs`` with a fixed seed;
- ``http-eval``: chat-completion round trips with ``requests.post``, one
  fresh connection each, to a second port of the loopback server, whose
  handler is the same as the one serving the program. A stdlib
  ``http.client`` probe followed the workload less well: under load it
  slowed by 5.6x where the workload slowed by 2.7x (log-log slope 0.52
  against 0.74 for this one);
- ``grpo``: softmax, log-probability and dot products on the small vectors
  and matrices the GRPO toy works with, one numpy call at a time.
"""

from __future__ import annotations

import json
import math
import random
import re
import time

import requests

import gen_inputs
import loopback_server

PROBE_REPEATS = 4
REFERENCE_S = 0.020

_HEADING_RE = re.compile(r"(?m)^(?:#+\s*|\*\*)?(?:Problem|Question)?\s*(\d+)[.):]")
_BOXED_RE = re.compile(r"\\boxed\{([^{}]*)\}")


def _mock_pipeline_probe():
    rng = random.Random(0)
    writer = gen_inputs._Writer(rng)
    texts = []
    k = 8
    for i in range(12):
        stems = [writer.nonce() for _ in range(k)]
        answers = [str(i * k + j) for j in range(k)]
        texts.append(gen_inputs.batch_response(writer, k, stems, answers, gen_inputs.CLEAN))

    def probe():
        n = 0
        for i, text in enumerate(texts):
            row = json.loads(json.dumps({"id": i, "text": text}, sort_keys=True))
            body = row["text"]
            n += len(_HEADING_RE.findall(body)) + len(_BOXED_RE.findall(body))
            n += len(body.split())
        return n

    return probe


def _http_probe(host, port):
    url = f"http://{host}:{port}/v1/chat/completions"
    payload = {"model": "probe",
               "messages": [{"role": "user", "content": loopback_server.PROBE_PROMPT}]}

    def probe():
        n = 0
        for _ in range(2):
            resp = requests.post(url, json=payload, timeout=30)
            resp.raise_for_status()
            n += len(resp.json()["choices"][0]["message"]["content"])
        return n

    return probe


def _grpo_probe():
    import numpy as np

    rng = np.random.default_rng(0)
    theta = rng.normal(size=(3, 6))
    features = rng.normal(size=(320, 6))
    adv = np.array([1.0, -0.5, -0.5])

    def probe():
        total = 0.0
        for x in features:
            logits = theta @ x
            exp = np.exp(logits - logits.max())
            p = exp / exp.sum()
            total += float(np.dot(adv, np.log(p)))
            total += float(np.outer(p, x).sum())
        return total

    return probe


def make_probe(workload, probe_address=None):
    """The workload's probe, called once to warm up; http-eval needs the
    server's probe (host, port)."""
    if workload == "mock-pipeline":
        probe = _mock_pipeline_probe()
    elif workload == "http-eval":
        probe = _http_probe(*probe_address)
    else:
        probe = _grpo_probe()
    probe()
    return probe


def time_probe(probe) -> float:
    """Seconds for PROBE_REPEATS calls of the probe."""
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        probe()
    return time.perf_counter() - start


def rescale(seconds, probe_before, probe_after) -> float:
    """`seconds` measured between two probe timings, at reference speed."""
    return seconds * REFERENCE_S * 2 / (probe_before + probe_after)


def rescale_setup(seconds, probe_s) -> float:
    """Set-up `seconds` at reference speed, given the run's median probe time.

    Set-up (process start, imports, input generation) follows the probe
    about half as much as the passes do: over 36 runs of 30 s, the log-log
    slope of the median set-up time against the median probe time was 0.3
    to 0.5 per workload, and 0.7 to 0.8 for pass time. Rescaling set-up by
    the full probe ratio would turn a faster machine into a slower set-up,
    so it is rescaled by the square root of the ratio.
    """
    return seconds * math.sqrt(REFERENCE_S / probe_s)
