"""OpenAI-compatible completion client, deterministic mock engine, and the
batch-compression experiment protocol."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional
from urllib.parse import urlsplit

from batchcot import verify
from batchcot.parsing import (
    ChainOrigin,
    CompletionRecord,
    ReasoningChain,
    SamplingParams,
    count_tokens,
    parse_final_answers,
    split_completions,
)
from batchcot.prompts import BATCH, PromptEnvelope, build_prompt, shuffle_and_group
from batchcot.records import naming

# Environment variable whose value HttpBackend sends as a bearer token.
API_KEY_ENV = "BATCHCOT_API_KEY"
# Seconds before the first retry; each further retry waits twice as long.
BACKOFF_BASE_S = 0.5


class TransportError(Exception):
    """All retry attempts exhausted; carries the per-attempt log."""

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts


class RequestError(Exception):
    """Non-retryable failure: HTTP 4xx other than 429, or a malformed 200 body."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str = ""
    model: str = "mock"
    timeout: float = 120.0
    max_retries: int = 3
    max_concurrent: int = 4
    temperature: float = 0.6
    max_tokens: int = 32768
    seed: Optional[int] = None

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def sampling(self) -> SamplingParams:
        return SamplingParams(
            temperature=self.temperature, max_tokens=self.max_tokens, seed=self.seed
        )


class RawCompletion(NamedTuple):
    text: str
    completion_tokens: Optional[int]
    attempts: list


def fingerprint(prompt_text: str) -> str:
    """Stable hash of a prompt's exact text."""
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()[:32]


class MockResponse(NamedTuple):
    text: str
    tokens: Optional[int] = None


_UNMATCHED = MockResponse("\\boxed{0}")


class MockBackend:
    """In-process scripted engine keyed by prompt fingerprint; no network involved.

    Unmatched prompts get `\\boxed{0}`; the same fingerprint always yields the
    same response.
    """

    name = "mock"

    def __init__(self, responses=None):
        self.responses = dict(responses or {})

    def add(self, prompt_text: str, text: str, tokens: Optional[int] = None):
        self.responses[fingerprint(prompt_text)] = MockResponse(text, tokens)

    def lookup(self, prompt_text: str) -> MockResponse:
        return self.responses.get(fingerprint(prompt_text), _UNMATCHED)

    @classmethod
    def from_dir(cls, path) -> "MockBackend":
        """Load fingerprint-named .txt response files (optional .tokens sidecar)."""
        responses = {}
        for name in sorted(os.listdir(path)):
            if not name.endswith(".txt"):
                continue
            fp = name[:-len(".txt")]
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                text = fh.read()
            tokens = None
            sidecar = os.path.join(path, fp + ".tokens")
            if os.path.exists(sidecar):
                with open(sidecar, encoding="utf-8") as fh, naming(sidecar):
                    tokens = int(fh.read().strip())
                    if tokens < 0:
                        raise ValueError(f"token count {tokens} is negative")
            responses[fp] = MockResponse(text, tokens)
        return cls(responses=responses)

    def send(self, prompt_text: str, cfg: EndpointConfig) -> RawCompletion:
        response = self.lookup(prompt_text)
        return RawCompletion(response.text, response.tokens,
                             [{"attempt": 1, "status": 200}])


def _chat_completion_body(body: bytes):
    """(content, completion_tokens) of an HTTP 200 chat-completion response body.

    Raises RequestError(status=200) when the body is not JSON, lacks a
    string message content, or reports completion_tokens that is not a
    non-negative int, so one malformed reply fails one request only.
    """
    try:
        data = json.loads(body)
        text = data["choices"][0]["message"]["content"]
        tokens = (data.get("usage") or {}).get("completion_tokens")
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise RequestError(f"malformed completion body: {type(exc).__name__}: {exc}",
                           status=200) from exc
    if not isinstance(text, str):
        problem = f"content is {type(text).__name__}, not str"
    elif tokens is not None and (type(tokens) is not int or tokens < 0):
        problem = f"completion_tokens is {tokens!r}, not a non-negative int"
    else:
        return text, tokens
    raise RequestError(f"malformed completion body: {problem}", status=200)


class HttpBackend:
    """OpenAI-compatible chat-completions transport with retry and backoff.

    Each attempt opens one fresh connection and closes it: reusing one
    against a server that writes headers and body in separate sends stalls
    every request on Nagle's algorithm and delayed ACK.
    """

    def __init__(self, base_url: str, model: str):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.name = f"{self.base_url}#{model}"
        self.url = self.base_url + "/chat/completions"
        url = urlsplit(self.url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base URL {base_url!r} is not an http(s) URL")
        self._connection_class = (http.client.HTTPSConnection if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._host, self._port, self._path = url.hostname, url.port, url.path

    def send(self, prompt_text: str, cfg: EndpointConfig) -> RawCompletion:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt_text}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }
        if cfg.seed is not None:
            payload["seed"] = cfg.seed
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = []
        total = cfg.max_retries + 1
        for attempt in range(1, total + 1):
            conn = self._connection_class(self._host, self._port, timeout=cfg.timeout)
            try:
                conn.request("POST", self._path, body, headers)
                # a response the server will close owns the socket, not conn
                with conn.getresponse() as resp:
                    status = resp.status
                    data = resp.read() if status == 200 else None
            except (OSError, http.client.HTTPException) as exc:
                attempts.append({"attempt": attempt, "error": type(exc).__name__})
            except ValueError:  # http.client's message would print the key
                raise ValueError(f"{API_KEY_ENV} is not a valid HTTP header value") from None
            else:
                attempts.append({"attempt": attempt, "status": status})
                if status == 200:
                    text, tokens = _chat_completion_body(data)
                    return RawCompletion(text, tokens, attempts)
                if status != 429 and status < 500:
                    raise RequestError(f"request rejected with HTTP {status}",
                                       status=status)
            finally:
                conn.close()
            if attempt < total:
                time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
        raise TransportError(f"exhausted {total} attempts against {self.url}", attempts)


def complete(envelope: PromptEnvelope, cfg: EndpointConfig,
             backend) -> CompletionRecord:
    """One chat completion for a prompt envelope."""
    raw = backend.send(envelope.text, cfg)
    return CompletionRecord(
        envelope=envelope,
        raw_text=raw.text,
        counted_tokens=count_tokens(raw.text),
        reported_tokens=raw.completion_tokens,
        sampling=cfg.sampling(),
        endpoint=backend.name,
    )


def complete_many(envelopes, cfg: EndpointConfig, backend) -> list:
    """Concurrent completions, merged in input order.

    Failures are returned in place as exception objects, never raised here.
    """
    def one(envelope):
        try:
            return complete(envelope, cfg, backend)
        except (TransportError, RequestError) as exc:
            return exc

    with ThreadPoolExecutor(max_workers=cfg.max_concurrent) as pool:
        return list(pool.map(one, envelopes))


def complete_groups(questions, k: int, cfg: EndpointConfig, backend,
                    seed: int = 0, group: str = "random"):
    """Completions of every batch-k group of the corpus, in group order.

    Returns (records, n_failures): failed requests are counted, not kept.
    """
    groups = shuffle_and_group(questions, k, seed=seed, group=group)
    results = complete_many([build_prompt(g) for g in groups], cfg, backend)
    records = [r for r in results if not isinstance(r, Exception)]
    return records, len(results) - len(records)


def tokens_per_question(records) -> float:
    """Mean effective tokens per question, each response's split evenly."""
    per_q = [r.effective_tokens / r.envelope.batch_size for r in records
             for _ in range(r.envelope.batch_size)]
    return sum(per_q) / len(per_q) if per_q else 0.0


# --- batch-compression experiment ---------------------------------------------

@dataclass
class ExperimentRow:
    batch_size: int
    n_groups: int
    n_questions: int
    n_graded: int
    accuracy: float
    mean_tokens_per_question: float
    mean_tokens_split: Optional[float]
    n_failures: int
    n_unsplittable: int


def _block_chains(record: CompletionRecord) -> list:
    """Textless chains of an unsplittable batch response, answered by its block."""
    answers = dict(parse_final_answers(record).entries)
    k = record.envelope.batch_size
    return [ReasoningChain(question_id=qid, text="",
                           origin=ChainOrigin(kind=BATCH, size=k, position=pos),
                           predicted_answer=answers.get(pos))
            for pos, qid in enumerate(record.envelope.question_ids, 1)]


def run_batch_experiment(questions, batch_sizes, cfg: EndpointConfig, backend,
                         seed: int = 0, group: str = "random") -> list:
    """Vanilla vs Batch-k token/accuracy rows over a question corpus.

    Each row grades the chains that `split` would write; only responses that
    cannot be split are graded from their final-answer block.
    """
    questions = list(questions)
    if not questions:
        raise ValueError("experiment needs a nonempty corpus")
    if any(k < 1 for k in batch_sizes):
        raise ValueError("batch sizes must all be >= 1")
    qmap = {q.id: q for q in questions}
    rows = []
    for k in batch_sizes:
        records, n_failures = complete_groups(questions, k, cfg, backend, seed, group)
        chains, unsplittable = split_completions(records)
        graded = chains + [c for r in unsplittable for c in _block_chains(r)]
        n_correct = sum(verify.grade(c, qmap[c.question_id]) == verify.CORRECT
                        for c in graded)
        split_tokens = [count_tokens(c.text) for c in chains]
        rows.append(ExperimentRow(
            batch_size=k,
            n_groups=len(records) + n_failures,
            n_questions=len(questions),
            n_graded=len(graded),
            accuracy=n_correct / len(graded) if graded else 0.0,
            mean_tokens_per_question=tokens_per_question(records),
            mean_tokens_split=(
                sum(split_tokens) / len(split_tokens) if split_tokens else None
            ),
            n_failures=n_failures,
            n_unsplittable=len(unsplittable),
        ))
    return rows


def render_experiment_table(rows) -> str:
    lines = [
        f"{'Mode':<10} {'Acc':>8} {'Tokens/Q':>12} {'Tokens/Q(split)':>16} "
        f"{'Graded':>8} {'Fail':>6} {'Unsplit':>8}"
    ]
    for row in rows:
        mode = "Vanilla" if row.batch_size == 1 else f"Batch-{row.batch_size}"
        split = f"{row.mean_tokens_split:.2f}" if row.mean_tokens_split is not None else "-"
        lines.append(
            f"{mode:<10} {row.accuracy * 100:>7.2f}% "
            f"{row.mean_tokens_per_question:>12.2f} {split:>16} "
            f"{row.n_graded:>8} {row.n_failures:>6} {row.n_unsplittable:>8}"
        )
    return "\n".join(lines)
