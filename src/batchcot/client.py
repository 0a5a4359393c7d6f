"""OpenAI-compatible completion client, deterministic mock engine, and the
batch-compression experiment protocol."""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence
from urllib.parse import urlsplit

from batchcot import parsing, verify
from batchcot.http1 import Connection, ProtocolError
from batchcot.parsing import (
    ChainOrigin,
    CompletionRecord,
    ReasoningChain,
    SamplingParams,
    parse_final_answers,
    split_completions,
)
from batchcot.prompts import BATCH, PromptEnvelope
from batchcot.records import mean, named_error, naming, show

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
    temperature: float = SamplingParams.temperature
    max_tokens: int = SamplingParams.max_tokens
    seed: Optional[int] = SamplingParams.seed

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError("timeout must be finite and > 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be finite and >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @cached_property
    def sampling(self) -> SamplingParams:
        """Built on first use and kept: the records of this config share it."""
        return SamplingParams(
            temperature=self.temperature, max_tokens=self.max_tokens, seed=self.seed
        )


class RawCompletion(NamedTuple):
    """A backend's answer to one prompt, with its per-attempt log."""

    text: str
    completion_tokens: Optional[int]
    attempts: Sequence[dict]


def fingerprint(prompt_text: str) -> str:
    """Stable hash of a prompt's exact text."""
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()[:32]


# The attempt log of every mock response: one successful attempt.
_MOCK_ATTEMPTS = ({"attempt": 1, "status": 200},)


class MockBackend:
    """In-process scripted engine keyed by prompt fingerprint; no network involved.

    The same fingerprint always yields the same stored RawCompletion object;
    a prompt with no stored response is a RequestError, as a refused request is.
    """

    name = "mock"

    def __init__(self, responses=None):
        self.responses = dict(responses or {})

    def add(self, prompt_text: str, text: str, tokens: Optional[int] = None):
        self.responses[fingerprint(prompt_text)] = RawCompletion(text, tokens,
                                                                 _MOCK_ATTEMPTS)

    def lookup(self, prompt_text: str) -> RawCompletion:
        fp = fingerprint(prompt_text)
        if fp not in self.responses:
            raise RequestError(f"no mock response for prompt {fp}")
        return self.responses[fp]

    @classmethod
    def from_dir(cls, path) -> "MockBackend":
        """Load fingerprint-named .txt response files (optional .tokens sidecar).

        A response is its file's text as text mode reads it: decoded as UTF-8,
        with universal newlines. A file that is not UTF-8 fails as a
        ValueError naming it.
        """
        responses = {}
        names = sorted(os.listdir(path))
        listed = set(names)
        for name in names:
            if not name.endswith(".txt"):
                continue
            fp = name[:-len(".txt")]
            file = os.path.join(path, name)
            # one unbuffered read, without text mode's wrapper and decoder
            with open(file, "rb", buffering=0) as fh:
                data = fh.read()
            # as `with naming(file)` would, without a context manager per file
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise named_error(file, exc) from exc
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            tokens = None
            if fp + ".tokens" in listed:
                sidecar = os.path.join(path, fp + ".tokens")
                with open(sidecar, encoding="utf-8") as fh, naming(sidecar):
                    tokens = int(fh.read().strip())
                    if tokens < 0:
                        raise ValueError(f"token count {tokens} is negative")
            responses[fp] = RawCompletion(text, tokens, _MOCK_ATTEMPTS)
        return cls(responses=responses)

    def send(self, prompt_text: str, cfg: EndpointConfig) -> RawCompletion:
        return self.lookup(prompt_text)

    def close(self):
        """Nothing to release: the engine holds no connections."""


def _chat_completion_body(body: bytes):
    """(content, completion_tokens) of an HTTP 200 chat-completion response body.

    Raises RequestError(status=200) when the body is not JSON, lacks a
    string message content, or reports completion_tokens that is not a
    non-negative int, so one malformed reply fails one request only. The
    bytes go to json.loads, which detects their UTF-8, -16 or -32 encoding.
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

    The backend speaks HTTP/1.1 itself, over `socket`, and over `ssl` for an
    https base URL, verified against the system trust store. A request is
    one send: the header block built when the backend is, its
    Content-Length, then the JSON body: the prompt's JSON string spliced
    between a head and a tail built once per config, the same bytes as
    json.dumps of the whole payload. Each connection keeps one receive
    buffer for every response it carries. A 200's body is read by its
    Content-Length, by chunked coding, or to EOF when the response gives
    neither; 1xx interim responses are skipped.

    Requests reuse keep-alive connections: `send` takes an idle one, or opens
    a new one when none is idle. A connection goes back to the idle list
    only after an HTTP/1.1 200 response without `Connection: close`, whose
    body was framed by length or chunks and read in full, with no bytes
    left over in its buffer. An error or any other response (a non-200's
    body unread) closes the connection instead, and so does the server
    closing an idle one, which `poll` sees on any descriptor. A connection
    opens only when none is idle, so no more are ever open than the most
    requests in flight at once: with `complete_many`, no more than its
    min(max_concurrent, number of requests) worker threads. `close()`
    closes the idle connections; call it once the sends are done, or use
    the backend as a context manager.

    Once a response's headers are in, `send` sets TCP_QUICKACK on the
    socket. That acknowledges the headers at once, so a server that writes
    its headers and its body in separate sends does not hold the body back
    (Nagle's algorithm) until the delayed ACK, about 40 ms later, on every
    request of a reused connection. TCP_QUICKACK is Linux-only: elsewhere
    such a server can stall a reused connection unless it sets TCP_NODELAY.
    The API key is read once, when the backend is built.
    """

    def __init__(self, base_url: str, model: str):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.name = f"{self.base_url}#{model}"
        self.url = self.base_url + "/chat/completions"
        url = urlsplit(self.url)
        # a name that IDNA cannot encode fails as UnicodeError, a ValueError
        host = url.hostname and url.hostname.encode("idna").decode("ascii")
        if (url.scheme not in ("http", "https") or not host
                or not _header_text(host) or not _header_text(url.path)):
            raise ValueError(f"base URL {base_url!r} is not an http(s) URL")
        default_port = 443 if url.scheme == "https" else 80
        self._address = (host, url.port or default_port)
        authority = f"[{host}]" if ":" in host else host
        if url.port not in (None, default_port):
            authority += f":{url.port}"
        lines = [f"POST {url.path} HTTP/1.1", f"Host: {authority}",
                 "Accept-Encoding: identity", "Content-Type: application/json"]
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            # checked here, so the error names the variable, never the key
            if not (api_key.isascii() and api_key.isprintable()):
                raise ValueError(f"{API_KEY_ENV} is not a valid HTTP header value")
            lines.append(f"Authorization: Bearer {api_key}")
        lines.append("Content-Length: ")
        self._head = "\r\n".join(lines).encode("ascii")
        self._tls = None
        if url.scheme == "https":
            import ssl  # only an https backend pays for the import

            self._tls = ssl.create_default_context()
        self._idle = []
        self._idle_lock = threading.Lock()
        self._template = (None, b"", b"")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """Close the idle connections; a later send opens new ones."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connection(self, timeout: float) -> Connection:
        """The most recently used idle connection still open, or a new one."""
        while True:
            with self._idle_lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                break
            if not conn.readable():
                conn.sock.settimeout(timeout)
                return conn
            conn.close()
        return Connection.open(self._address, timeout, self._tls)

    def _body_template(self, cfg: EndpointConfig):
        """(head, tail) of the JSON body of every request under `cfg`.

        head + json.dumps(prompt_text).encode() + tail is, byte for byte,
        json.dumps of the request's payload. The template is dumped with an
        empty prompt; the prompt is the payload's last string value, and
        no key after it is empty, so the last "" in the dump is the prompt.
        """
        template = self._template
        if template[0] is not cfg:  # one config per run: built once
            payload = {
                "model": self.model,
                "messages": [{"role": "user", "content": ""}],
                "temperature": cfg.temperature,
                "max_tokens": cfg.max_tokens,
            }
            if cfg.seed is not None:
                payload["seed"] = cfg.seed
            head, _, tail = json.dumps(payload).encode("ascii").rpartition(b'""')
            template = self._template = (cfg, head, tail)
        return template[1:]

    def send(self, prompt_text: str, cfg: EndpointConfig) -> RawCompletion:
        head, tail = self._body_template(cfg)
        body = head + json.dumps(prompt_text).encode("ascii") + tail
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)

        attempts = []
        total = cfg.max_retries + 1
        for attempt in range(1, total + 1):
            conn = None
            reusable = False
            try:
                conn = self._connection(cfg.timeout)
                conn.sock.sendall(request)
                status, data, reusable = conn.response()
            except (OSError, ProtocolError) as exc:
                attempts.append({"attempt": attempt, "error": type(exc).__name__})
            else:
                attempts.append({"attempt": attempt, "status": status})
                if status == 200:
                    text, tokens = _chat_completion_body(data)
                    return RawCompletion(text, tokens, attempts)
                if status != 429 and status < 500:
                    raise RequestError(f"request rejected with HTTP {status}",
                                       status=status)
            finally:
                if reusable:
                    with self._idle_lock:
                        self._idle.append(conn)
                elif conn is not None:
                    conn.close()
            if attempt < total:
                time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
        raise TransportError(f"exhausted {total} attempts against {self.url}", attempts)


def _header_text(text: str) -> bool:
    """Whether `text` can stand in a request line or header as it is."""
    return text.isascii() and text.isprintable() and " " not in text


def complete(envelope: PromptEnvelope, cfg: EndpointConfig, backend) -> CompletionRecord:
    """One chat completion for a prompt envelope."""
    raw = backend.send(envelope.text, cfg)
    return CompletionRecord(
        envelope=envelope,
        raw_text=raw.text,
        counted_tokens=parsing.count_tokens(raw.text),
        reported_tokens=raw.completion_tokens,
        sampling=cfg.sampling,
        endpoint=backend.name,
    )


def on_workers(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], on min(workers, len(items)) threads."""
    results = [None] * len(items)
    lock = threading.Lock()
    taken = 0  # indexes handed out so far, each to one worker
    stopped = []  # the exceptions that stopped the run, in the order raised

    def work():
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i == len(items) or stopped:
                    return
                taken += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                stopped.append(exc)
                return

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(items)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException as exc:
        stopped.append(exc)
        # a thread that is not alive has ended, or has yet to take an index
        # and now takes none
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if stopped:
        raise stopped[0]
    return results


def complete_many(envelopes, cfg: EndpointConfig, backend):
    """(records, failures) of every envelope, each list in input order.

    A request that fails gives its TransportError or RequestError to
    `failures`; none is raised here. A MockBackend does no I/O, so it
    answers in the calling thread, where a worker thread would only add a
    hand-off per request. Any other backend's requests run on
    min(cfg.max_concurrent, len(envelopes)) worker threads, so no more are
    in flight at once and no thread is started for nothing: each worker
    takes the next envelope's index from one shared counter and writes its
    result into that index's slot, and the caller joins the workers once.
    Any other exception in a worker, or an interrupt of the caller, starts
    no further request and is raised here once the requests in flight have
    ended.
    """
    def one(envelope):
        try:
            return complete(envelope, cfg, backend)
        except (TransportError, RequestError) as exc:
            return exc

    if isinstance(backend, MockBackend):
        results = [one(envelope) for envelope in envelopes]
    else:
        results = on_workers(one, list(envelopes), cfg.max_concurrent)
    records, failures = [], []
    for result in results:
        (failures if isinstance(result, Exception) else records).append(result)
    return records, failures


def tokens_per_question(records) -> Optional[float]:
    """Mean effective tokens per question, each response's split evenly."""
    per_q = [r.effective_tokens / r.envelope.batch_size for r in records
             for _ in range(r.envelope.batch_size)]
    return mean(sum(per_q), len(per_q))


# --- batch-compression experiment ---------------------------------------------

@dataclass
class ExperimentRow:
    batch_size: int
    n_groups: int
    n_questions: int
    n_graded: int
    accuracy: Optional[float]  # None: no chain graded
    mean_tokens_per_question: Optional[float]  # None: no response
    mean_tokens_split: Optional[float]  # None: no chain split
    n_failures: int
    n_unsplittable: int


def _block_chains(record: CompletionRecord) -> list:
    """Textless chains of an unsplittable batch response, answered by its block."""
    answers = parse_final_answers(record)
    k = record.envelope.batch_size
    return [ReasoningChain(question_id=qid, text="",
                           origin=ChainOrigin(kind=BATCH, size=k, position=pos),
                           predicted_answer=answers.get(pos))
            for pos, qid in enumerate(record.envelope.question_ids, 1)]


def run_batch_experiment(questions, k: int, records, failures) -> ExperimentRow:
    """The row of batch size k over a question corpus, from the batch-k run's
    completions (`records`) and failed requests (`failures`).

    It sends nothing: `records` are the completions `gen` writes to
    completions_k<k>.jsonl. The row grades the chains that `split` would
    write; only responses that cannot be split are graded from their
    final-answer block.
    """
    chains, unsplittable = split_completions(records)
    graded = chains + [c for r in unsplittable for c in _block_chains(r)]
    n_correct = verify.grade_chains(graded, questions)[verify.CORRECT]
    split_tokens = [c.token_count for c in chains]
    return ExperimentRow(
        batch_size=k,
        n_groups=len(records) + len(failures),
        n_questions=len(questions),
        n_graded=len(graded),
        accuracy=mean(n_correct, len(graded)),
        mean_tokens_per_question=tokens_per_question(records),
        mean_tokens_split=mean(sum(split_tokens), len(split_tokens)),
        n_failures=len(failures),
        n_unsplittable=len(unsplittable),
    )


def render_experiment_table(rows) -> str:
    lines = [
        f"{'Mode':<10} {'Acc':>8} {'Tokens/Q':>12} {'Tokens/Q(split)':>16} "
        f"{'Graded':>8} {'Fail':>6} {'Unsplit':>8}"
    ]
    for row in rows:
        mode = "Vanilla" if row.batch_size == 1 else f"Batch-{row.batch_size}"
        lines.append(
            f"{mode:<10} {show(row.accuracy, '.2%'):>8} "
            f"{show(row.mean_tokens_per_question):>12} {show(row.mean_tokens_split):>16} "
            f"{row.n_graded:>8} {row.n_failures:>6} {row.n_unsplittable:>8}"
        )
    return "\n".join(lines)
