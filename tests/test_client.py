import fcntl
import gc
import json
import random
import resource
import select
import shutil
import signal
import socket
import ssl
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from types import SimpleNamespace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import pipeline_fixtures as pf
from http_fixtures import mock_http_server, open_sockets_to
from batchcot import client
from batchcot.client import (
    EndpointConfig,
    HttpBackend,
    MockBackend,
    RawCompletion,
    RequestError,
    TransportError,
    complete,
    complete_many,
    fingerprint,
    render_experiment_table,
)
from batchcot.cli import main
from batchcot.http1 import Connection
from batchcot.harness import BenchmarkSpec, evaluate
from batchcot.parsing import SamplingParams
from batchcot.prompts import Question, build_prompt, build_single_prompt, shuffle_and_group


cfg = EndpointConfig


class TestEndpointConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            EndpointConfig(max_concurrent=0)
        with pytest.raises(ValueError):
            EndpointConfig(timeout=0)
        with pytest.raises(ValueError):
            EndpointConfig(max_tokens=0)
        with pytest.raises(ValueError):
            EndpointConfig(temperature=-1)

    def test_defaults_match_eval_protocol(self):
        c = EndpointConfig()
        assert c.temperature == 0.6
        assert c.max_tokens == 32768
        assert c.sampling == SamplingParams()


class TestMockEngine:
    def test_scripted_determinism(self):
        backend = MockBackend()
        env = build_single_prompt(Question(id="a", text="2+2?", gold_answer="4"))
        backend.add(env.text, "it is \\boxed{4}", tokens=11)
        rec1 = complete(env, cfg(), backend)
        rec2 = complete(env, cfg(), backend)
        assert rec1.raw_text == rec2.raw_text == "it is \\boxed{4}"
        assert rec1.reported_tokens == 11
        assert rec1.effective_tokens == 11

    def test_unmatched_prompt_is_a_request_failure(self):
        # nothing is made up for a prompt with no stored response: it fails
        # as a refused request does, and complete_many counts it as one failure
        backend = MockBackend()
        known, unknown = (build_single_prompt(Question(id=i, text=text, gold_answer="1"))
                          for i, text in (("a", "scripted"), ("b", "anything")))
        backend.add(known.text, "\\boxed{1}")
        with pytest.raises(RequestError, match=fingerprint(unknown.text)):
            complete(unknown, cfg(), backend)
        records, failures = complete_many([unknown, known], cfg(), backend)
        assert [r.envelope for r in records] == [known]
        assert len(failures) == 1 and isinstance(failures[0], RequestError)
        assert fingerprint(unknown.text) in str(failures[0])

    def test_dir_roundtrip(self, tmp_path):
        script = MockBackend()
        script.add("prompt one", "resp one", tokens=5)
        script.add("prompt two", "resp two")
        pf.write_script_dir(script, tmp_path / "m")
        loaded = MockBackend.from_dir(tmp_path / "m")
        assert loaded.lookup("prompt one")[:2] == ("resp one", 5)
        assert loaded.lookup("prompt two")[:2] == ("resp two", None)

    def test_send_returns_the_stored_completion(self):
        backend = MockBackend()
        backend.add("prompt", "stored \\boxed{1}", tokens=3)
        first = backend.send("prompt", cfg())
        assert first is backend.send("prompt", cfg()) is backend.lookup("prompt")
        assert first == ("stored \\boxed{1}", 3, ({"attempt": 1, "status": 200},))

    def test_dir_read_is_text_mode_read(self, tmp_path):
        # UTF-8 with a BOM, non-ASCII text, every newline convention and
        # line separators that universal newlines leave alone
        bodies = ["caf\u00e9 \\boxed{1}\r\nnext\rlast\n", "\ufeffbom\r\r\n\n\r",
                  "x\r\n\u2028y\x85z", "", "no newline"]
        (tmp_path / "m").mkdir()
        for i, body in enumerate(bodies):
            (tmp_path / "m" / f"fp{i}.txt").write_bytes(body.encode("utf-8"))
        loaded = MockBackend.from_dir(tmp_path / "m")
        for i in range(len(bodies)):
            with open(tmp_path / "m" / f"fp{i}.txt", encoding="utf-8") as fh:
                assert loaded.responses[f"fp{i}"].text == fh.read()

    def test_fingerprint_stability(self):
        assert fingerprint("abc") == fingerprint("abc")
        assert fingerprint("abc") != fingerprint("abd")

    def test_records_of_one_call_share_one_sampling(self):
        backend = MockBackend()
        envs = [build_single_prompt(Question(id=str(i), text="x", gold_answer="1"))
                for i in range(3)]
        for env in envs:
            backend.add(env.text, "\\boxed{1}")
        c = cfg(seed=5)
        records, failures = complete_many(envs, c, backend)
        assert len(records) == 3 and failures == []
        assert all(r.sampling is c.sampling for r in records)
        assert c.sampling == SamplingParams(temperature=0.6, max_tokens=32768, seed=5)

    def test_record_provenance(self):
        backend = MockBackend()
        env = build_single_prompt(Question(id="a", text="x", gold_answer="1"))
        backend.add(env.text, "\\boxed{1}")
        rec = complete(env, cfg(temperature=0.3, seed=99), backend)
        assert rec.sampling.temperature == 0.3
        assert rec.sampling.seed == 99
        assert rec.endpoint == "mock"


class _FlakyHandler(BaseHTTPRequestHandler):
    """Returns `status` for the first N requests, then a valid completion."""

    failures_left = 2
    status = 429

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(self.status)
            self.end_headers()
            return
        payload = json.dumps({
            "choices": [{"message": {"content": "ok \\boxed{1}"}}],
            "usage": {"completion_tokens": 3},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.failures_left = 2
    _FlakyHandler.status = 429
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    server.shutdown()
    thread.join()
    server.server_close()


class TestHttpTransport:
    def test_retry_then_success(self, flaky_server):
        env = build_single_prompt(Question(id="a", text="x", gold_answer="1"))
        with HttpBackend(flaky_server, "m") as backend:
            raw = backend.send(env.text, cfg(max_retries=3))
        assert raw.text == "ok \\boxed{1}"
        assert raw.completion_tokens == 3
        assert len(raw.attempts) == 3
        assert [a.get("status") for a in raw.attempts] == [429, 429, 200]

    def test_exhausted_retries(self, flaky_server):
        _FlakyHandler.failures_left = 10
        with HttpBackend(flaky_server, "m") as backend, \
                pytest.raises(TransportError) as exc:
            backend.send("p", cfg(max_retries=1))
        assert len(exc.value.attempts) == 2

    def test_backoff_doubles_between_retries(self, flaky_server, monkeypatch):
        monkeypatch.undo()  # restore the BACKOFF_BASE_S that conftest zeroes
        delays = []
        monkeypatch.setattr(client, "time", SimpleNamespace(sleep=delays.append))
        _FlakyHandler.failures_left = 10
        _FlakyHandler.status = 503
        with HttpBackend(flaky_server, "m") as backend, \
                pytest.raises(TransportError) as exc:
            backend.send("p", cfg(max_retries=3))
        # three delays tell doubling (0.5, 1, 2) from linear growth (0.5, 1, 1.5)
        assert delays == [0.5, 1.0, 2.0]
        assert [a["status"] for a in exc.value.attempts] == [503] * 4

    def test_unreachable_host(self):
        env = build_single_prompt(Question(id="a", text="x", gold_answer="1"))
        with HttpBackend("http://127.0.0.1:1/v1", "m") as backend, \
                pytest.raises(TransportError):
            complete(env, cfg(max_retries=1, timeout=0.5), backend)

    def test_non_retryable_4xx(self, flaky_server):
        class Handler404(_FlakyHandler):
            def do_POST(self):
                self.send_response(404)
                self.end_headers()

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler404)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            with HttpBackend(f"http://127.0.0.1:{server.server_address[1]}/v1",
                             "m") as backend, pytest.raises(RequestError):
                backend.send("p", cfg())
        finally:
            server.shutdown()
            thread.join()
            server.server_close()

    def test_loopback_mock_server(self):
        script = MockBackend()
        script.add("hello prompt", "loopback \\boxed{9}", tokens=42)
        with mock_http_server(script) as base_url:
            with HttpBackend(base_url, "mock-model") as backend:
                raw = backend.send("hello prompt", cfg())
            assert raw.text == "loopback \\boxed{9}"
            assert raw.completion_tokens == 42


_VALID_BODY = json.dumps({"choices": [{"message": {"content": "ok \\boxed{1}"}}]}).encode()
_NON_INTEGER_USAGE_BODY = (
    b'{"choices": [{"message": {"content": "x"}}], "usage": {"completion_tokens": "many"}}')
_MALFORMED_BODIES = [
    b"not json",
    b"[]",
    b"{}",
    b'{"choices": []}',
    b'{"choices": [{}]}',
    b'{"choices": [{"message": {}}]}',
    b'{"choices": [{"message": {"content": null}}]}',
    b'{"choices": [{"message": {"content": 7}}]}',
    _NON_INTEGER_USAGE_BODY,
    b'{"choices": [{"message": {"content": "x"}}], "usage": {"completion_tokens": -1}}',
    b'{"choices": [{"message": {"content": "x"}}], "usage": {"completion_tokens": 2.5}}',
    b'{"choices": [{"message": {"content": "x"}}], "usage": {"completion_tokens": true}}',
]


class _MalformedHandler(BaseHTTPRequestHandler):
    """HTTP 200 with `body`, or a valid completion when the prompt says SERVE-VALID."""

    body = b"{}"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
        payload = _VALID_BODY if "SERVE-VALID" in prompt else self.body
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextmanager
def _serve(handler, server_class=ThreadingHTTPServer):
    """Serve `handler` on a loopback port; yields the server's root URL."""
    server = server_class(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert not thread.is_alive()


@contextmanager
def _serve_malformed(body, base=_MalformedHandler):
    with _serve(type("Handler", (base,), {"body": body})) as root:
        with HttpBackend(root + "/v1", "m") as backend:
            yield backend


class TestMalformedBody:
    @pytest.mark.parametrize("body", _MALFORMED_BODIES)
    def test_send_raises_request_error(self, body):
        with _serve_malformed(body) as backend:
            with pytest.raises(RequestError) as exc:
                backend.send("p", cfg(max_retries=2))
        assert exc.value.status == 200

    def test_complete_many_returns_error_apart(self):
        envelopes = [build_single_prompt(Question(id=qid, text=text, gold_answer="1"))
                     for qid, text in (("a", "SERVE-VALID"), ("b", "x"), ("c", "SERVE-VALID"))]
        with _serve_malformed(b'{"choices": []}') as backend:
            records, failures = complete_many(envelopes, cfg(max_concurrent=2), backend)
        assert [r.envelope.question_ids for r in records] == [("a",), ("c",)]
        assert [r.raw_text for r in records] == ["ok \\boxed{1}"] * 2
        failure, = failures
        assert isinstance(failure, RequestError) and failure.status == 200

    def test_eval_counts_malformed_body_as_exclusion(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "a", "text": "SERVE-VALID 1?", "gold_answer": "1"}) + "\n"
            + json.dumps({"id": "b", "text": "other?", "gold_answer": "1"}) + "\n")
        spec = BenchmarkSpec(name="Toy", corpus_path=str(corpus), samples_per_question=2)
        with _serve_malformed(b"not json") as backend:
            records, agg = evaluate(spec, cfg(), backend)
        assert agg.exclusions == 2
        assert agg.n_samples == 2
        assert agg.accuracy == 1.0
        assert [r["question_id"] for r in records] == ["a", "a"]

    def test_cli_eval_counts_non_integer_usage_as_exclusion(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "a", "text": "SERVE-VALID 1?", "gold_answer": "1"}) + "\n"
            + json.dumps({"id": "b", "text": "other?", "gold_answer": "1"}) + "\n")
        out = tmp_path / "eval"
        with _serve_malformed(_NON_INTEGER_USAGE_BODY) as backend:
            code = main(["eval", "--benchmark", "gsm8k", "--corpus", str(corpus),
                         "--out-dir", str(out), "--base-url", backend.base_url,
                         "--max-retries", "0"])
        capsys.readouterr()
        assert code == 0
        aggregate, = json.loads((out / "aggregate.json").read_text())
        assert aggregate["exclusions"] == 1
        assert aggregate["n_samples"] == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exclusions"] == {"request_failures": 1}


class TestApiKey:
    @staticmethod
    def recorder(seen):
        """A handler that appends each request's Authorization header to `seen`."""
        class Recorder(_MalformedHandler):
            def do_POST(self):
                seen.append(self.headers.get("Authorization"))
                super().do_POST()

        return Recorder

    @pytest.mark.parametrize("key, header", [("sk-test", "Bearer sk-test"), (None, None)])
    def test_authorization_header_from_env(self, monkeypatch, key, header):
        if key is None:
            monkeypatch.delenv("BATCHCOT_API_KEY", raising=False)
        else:
            monkeypatch.setenv("BATCHCOT_API_KEY", key)
        seen = []
        with _serve_malformed(b"{}", base=self.recorder(seen)) as backend:
            assert backend.send("SERVE-VALID", cfg()).text == "ok \\boxed{1}"
        assert seen == [header]

    def test_key_is_read_when_the_backend_is_built(self, monkeypatch):
        monkeypatch.setenv("BATCHCOT_API_KEY", "sk-first")
        seen = []
        with _serve_malformed(b"{}", base=self.recorder(seen)) as backend:
            monkeypatch.setenv("BATCHCOT_API_KEY", "sk-second")
            backend.send("SERVE-VALID", cfg())
        assert seen == ["Bearer sk-first"]

    @pytest.mark.parametrize("key", ["sk-secret\nx", "sk-secret\u2019"])
    def test_key_that_is_not_a_header_value_is_not_printed(self, monkeypatch, key):
        monkeypatch.setenv("BATCHCOT_API_KEY", key)
        with pytest.raises(ValueError) as exc:
            HttpBackend("http://127.0.0.1:9/v1", "m").send("p", cfg(max_retries=0))
        assert "BATCHCOT_API_KEY" in str(exc.value) and "secret" not in str(exc.value)


class _DroppingHandler(_MalformedHandler):
    """Closes the connection unanswered while `drops` is positive, then serves."""

    drops = 0

    def do_POST(self):
        if type(self).drops > 0:
            type(self).drops -= 1
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self.close_connection = True
            return
        super().do_POST()


def _dropping(drops):
    return type("Dropping", (_DroppingHandler,), {"drops": drops})


class TestStdlibTransport:
    def test_dropped_connection_is_a_logged_retry(self):
        with _serve_malformed(b"{}", base=_dropping(1)) as backend:
            raw = backend.send("SERVE-VALID", cfg(max_retries=1))
        assert raw.text == "ok \\boxed{1}"
        assert raw.attempts == [{"attempt": 1, "error": "RemoteDisconnected"},
                                {"attempt": 2, "status": 200}]

    def test_dropped_connections_exhaust_attempts(self):
        with _serve_malformed(b"{}", base=_dropping(10)) as backend:
            with pytest.raises(TransportError) as exc:
                backend.send("SERVE-VALID", cfg(max_retries=2))
        assert exc.value.attempts == [{"attempt": n, "error": "RemoteDisconnected"}
                                      for n in (1, 2, 3)]

    def test_silent_server_times_out_each_attempt(self):
        # the kernel completes the handshake for the backlog; nothing ever replies
        with socket.create_server(("127.0.0.1", 0)) as listener:
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1"
            start = time.perf_counter()
            with HttpBackend(url, "m") as backend, pytest.raises(TransportError) as exc:
                backend.send("p", cfg(max_retries=1, timeout=0.2))
            elapsed = time.perf_counter() - start
        assert exc.value.attempts == [{"attempt": n, "error": "TimeoutError"}
                                      for n in (1, 2)]
        assert 0.4 <= elapsed < 2.0

    def test_base_url_path_prefix_and_trailing_slash(self):
        paths = []

        class Recorder(_MalformedHandler):
            def do_POST(self):
                paths.append(self.path)
                super().do_POST()

        with _serve(Recorder) as root:
            with HttpBackend(root + "/api/v1/", "m") as backend:
                assert backend.send("SERVE-VALID", cfg()).text == "ok \\boxed{1}"
        assert paths == ["/api/v1/chat/completions"]

    @pytest.mark.parametrize("base_url", ["127.0.0.1:8000/v1", "ftp://127.0.0.1/v1",
                                          "http:///v1"])
    def test_base_url_that_is_not_http_is_rejected(self, base_url):
        with pytest.raises(ValueError):
            HttpBackend(base_url, "m")

    def test_send_leaves_no_open_socket(self):
        # each raised error stays referenced, as a caller's would, and an
        # HTTP/1.1 server keeps a connection open for another request, so
        # only the backend's own closing releases a socket
        keep_alive = type("KeepAlive", (_dropping(1),), {"protocol_version": "HTTP/1.1"})
        gc.collect()  # earlier tests' garbage warns outside the block below
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with _serve(keep_alive) as root:
                with HttpBackend(root + "/v1", "m") as backend:
                    backend.send("SERVE-VALID", cfg(max_retries=1))  # a drop, then a 200
                    with pytest.raises(RequestError) as malformed:
                        backend.send("p", cfg())  # a malformed 200
                    assert len(open_sockets_to(root)) == 1  # kept for the next send
                assert open_sockets_to(root) == []
            with _serve(type("Busy", (_FlakyHandler,), {"failures_left": 10})) as root:
                with HttpBackend(root, "m") as backend, \
                        pytest.raises(TransportError) as busy:  # 429s, bodies unread
                    backend.send("p", cfg(max_retries=1))
                assert open_sockets_to(root) == []
            with socket.create_server(("127.0.0.1", 0)) as listener:
                url = f"http://127.0.0.1:{listener.getsockname()[1]}"
                with HttpBackend(url, "m") as backend, \
                        pytest.raises(TransportError) as silent:
                    backend.send("p", cfg(max_retries=0, timeout=0.05))
                assert open_sockets_to(url) == []
            del malformed, busy, silent
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_complete_many_opens_at_most_max_concurrent_connections(self):
        # more workers than cores, switching threads often, share the idle list
        script, envelopes = MockBackend(), []
        for i in range(96):
            envelopes.append(build_single_prompt(
                Question(id=f"q{i}", text=f"body {i}", gold_answer="1")))
            script.add(envelopes[-1].text, f"answer \\boxed{{{i}}}")
        accepted = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock_http_server(script, keep_alive=True,
                                  accepted=accepted) as base_url:
                with HttpBackend(base_url, "m") as backend:
                    records, failures = complete_many(envelopes, cfg(max_concurrent=8),
                                                      backend)
                    assert 1 <= len(open_sockets_to(base_url)) <= 8
                assert open_sockets_to(base_url) == []
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert [r.raw_text for r in records] == [f"answer \\boxed{{{i}}}"
                                                 for i in range(96)]
        assert 1 <= len(accepted) <= 8

    def test_idle_connection_the_server_closed_is_not_reused(self, monkeypatch):
        closed = threading.Event()

        class CloseWhenIdle(_MalformedHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                super().do_POST()  # no "Connection: close": the client keeps it
                self.close_connection = True
                self.request.shutdown(socket.SHUT_WR)
                closed.set()

        sleeps = []
        monkeypatch.setattr(client, "time", SimpleNamespace(sleep=sleeps.append))
        with _serve(CloseWhenIdle) as root, HttpBackend(root + "/v1", "m") as backend:
            assert backend.send("SERVE-VALID", cfg()).attempts == [
                {"attempt": 1, "status": 200}]
            assert closed.wait(5)
            raw = backend.send("SERVE-VALID", cfg())
        assert raw.attempts == [{"attempt": 1, "status": 200}]
        assert sleeps == []

    def test_drop_on_a_reused_connection_is_a_logged_retry(self):
        class DropSecond(_MalformedHandler):
            protocol_version = "HTTP/1.1"
            served = 0

            def do_POST(self):
                type(self).served += 1
                if type(self).served == 2:  # on the first request's connection
                    self.rfile.read(int(self.headers.get("Content-Length", 0)))
                    self.close_connection = True
                    return
                super().do_POST()

        with _serve(DropSecond) as root, HttpBackend(root + "/v1", "m") as backend:
            backend.send("SERVE-VALID", cfg())
            raw = backend.send("SERVE-VALID", cfg(max_retries=1))
        assert raw.attempts == [{"attempt": 1, "error": "RemoteDisconnected"},
                                {"attempt": 2, "status": 200}]

    def test_retry_after_503_on_a_keep_alive_server(self):
        class Unavailable(_MalformedHandler):
            protocol_version = "HTTP/1.1"
            failures_left = 1

            def do_POST(self):
                if type(self).failures_left > 0:
                    type(self).failures_left -= 1
                    self.rfile.read(int(self.headers.get("Content-Length", 0)))
                    self.send_response(503)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                super().do_POST()

        with _serve(Unavailable) as root:
            with HttpBackend(root + "/v1", "m") as backend:
                raw = backend.send("SERVE-VALID", cfg(max_retries=1))
            assert open_sockets_to(root) == []
        assert raw.attempts == [{"attempt": 1, "status": 503},
                                {"attempt": 2, "status": 200}]

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                        reason="TCP_QUICKACK is Linux-only")
    def test_reused_connection_does_not_wait_on_delayed_ack(self):
        # the server writes headers and body in separate sends without
        # TCP_NODELAY; waiting on the client's delayed ACK every time, the
        # 40 requests take about 1.8 s
        script = MockBackend()
        script.add("p", "answer \\boxed{1}")
        accepted = []
        with mock_http_server(script, keep_alive=True, accepted=accepted) as base_url:
            with HttpBackend(base_url, "m") as backend:
                start = time.perf_counter()
                for _ in range(40):
                    backend.send("p", cfg())
                elapsed = time.perf_counter() - start
        assert len(accepted) == 1
        assert elapsed < 0.8


def _ok(body=_VALID_BODY, head=b"HTTP/1.1 200 OK\r\n"):
    return head + b"Content-Length: %d\r\n\r\n%s" % (len(body), body)


_CHUNKED = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"a;name=value\r\n" + _VALID_BODY[:10] + b"\r\n"
            + b"%x ; last-but-one\r\n" % (len(_VALID_BODY) - 10) + _VALID_BODY[10:] + b"\r\n"
            b"0\r\nX-Checksum: none\r\n\r\n")


class _RawHandler(BaseHTTPRequestHandler):
    """Answers request n, counted from 1, with `reply(n)`: (parts, close).

    Each byte string in parts goes out in its own send, and the server
    closes the connection after them when close is true. `accepted` counts
    the connections the server accepts.
    """

    protocol_version = "HTTP/1.1"
    served = accepted = 0

    def setup(self):
        super().setup()
        type(self).accepted += 1

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).served += 1
        parts, self.close_connection = self.reply(type(self).served)
        try:
            for part in parts:
                self.wfile.write(part)
        except OSError:  # the client closed a connection it got no use of
            self.close_connection = True

    def log_message(self, *args):
        pass


def _raw(reply):
    return type("Raw", (_RawHandler,), {"reply": staticmethod(reply)})


class TestFraming:
    @pytest.mark.parametrize("parts, close, connections", [
        ([_CHUNKED], False, 1),
        ([bytes([b]) for b in _ok()], False, 1),
        ([b"HTTP/1.1 100 Continue\r\n\r\n", _ok()], False, 1),
        # the server would serve a next request; the client must not send it
        ([_ok(head=b"HTTP/1.1 200 OK\r\nConnection: close\r\n")], False, 2),
        ([_ok(head=b"HTTP/1.0 200 OK\r\n")], False, 2),
        ([_ok() + b"HTTP/1.1 200 OK\r\n"], False, 2),
        ([b"HTTP/1.0 200 OK\r\n\r\n" + _VALID_BODY], True, 2),
    ], ids=["chunked", "byte-per-send", "100-continue", "connection-close",
            "http-1.0", "bytes-after-body", "http-1.0-to-eof"])
    def test_framing(self, parts, close, connections):
        handler = _raw(lambda n: (parts, close))
        with _serve(handler) as root, HttpBackend(root + "/v1", "m") as backend:
            for _ in range(2):
                raw = backend.send("p", cfg(max_retries=0))
                assert raw.text == "ok \\boxed{1}"
                assert raw.attempts == [{"attempt": 1, "status": 200}]
        assert handler.accepted == connections

    @pytest.mark.parametrize("bad, close, error", [
        ([b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (len(_VALID_BODY) + 10),
          _VALID_BODY], True, "IncompleteRead"),
        ([b"ICY 200 OK\r\n\r\n" + _VALID_BODY], True, "BadStatusLine"),
        # the server keeps sending and keeps the connection open: only a
        # bounded read fails at once, where waiting for the end times out
        ([b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (1 << 20)], False, "LineTooLong"),
        ([b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 1000], False, "TooManyHeaders"),
    ], ids=["short-body", "not-http", "long-line", "many-headers"])
    def test_broken_response_is_a_logged_retry(self, bad, close, error):
        handler = _raw(lambda n: (bad, close) if n == 1 else ([_ok()], False))
        start = time.perf_counter()
        with _serve(handler) as root, HttpBackend(root + "/v1", "m") as backend:
            raw = backend.send("p", cfg(max_retries=1, timeout=5))
        assert time.perf_counter() - start < 2.5
        assert raw.text == "ok \\boxed{1}"
        assert raw.attempts == [{"attempt": 1, "error": error},
                                {"attempt": 2, "status": 200}]
        assert handler.accepted == 2

    def test_request_head(self):
        seen = []

        class Recorder(_MalformedHandler):
            def do_POST(self):
                seen.append((self.request_version, self.path, dict(self.headers)))
                super().do_POST()

        with _serve(Recorder) as root, HttpBackend(root + "/v1", "m") as backend:
            backend.send("SERVE-VALID", cfg(seed=3))
        (version, path, headers), = seen
        assert (version, path) == ("HTTP/1.1", "/v1/chat/completions")
        length = len(json.dumps({
            "model": "m", "messages": [{"role": "user", "content": "SERVE-VALID"}],
            "temperature": 0.6, "max_tokens": 32768, "seed": 3}))
        assert headers == {"Host": root[len("http://"):], "Accept-Encoding": "identity",
                           "Content-Type": "application/json",
                           "Content-Length": str(length)}

    @pytest.mark.parametrize("model", ["m", 'deep"seek-r1-é中'])
    def test_request_body_is_json_dumps_of_the_payload(self, model):
        bodies = []

        class Recorder(_RawHandler):
            def do_POST(self):
                bodies.append(self.rfile.read(int(self.headers["Content-Length"])))
                self.wfile.write(_ok())

        prompts = ["plain", 'say "hi"', "back\\slash", "line\nbreak", "tab\there",
                   "nul\x00byte", "café ∑ \U0001d400", "", '""']
        configs = [cfg(seed=seed, temperature=temperature)
                   for seed in (None, 7) for temperature in (0, 0.6)]
        expected = []
        with _serve(Recorder) as root, HttpBackend(root + "/v1", model) as backend:
            # each config in turn, then back to the first
            for c in configs + configs[:1]:
                for prompt in prompts:
                    backend.send(prompt, c)
                    payload = {"model": model,
                               "messages": [{"role": "user", "content": prompt}],
                               "temperature": c.temperature, "max_tokens": c.max_tokens}
                    if c.seed is not None:
                        payload["seed"] = c.seed
                    expected.append(json.dumps(payload).encode("utf-8"))
        assert bodies == expected

    @pytest.mark.parametrize("base_url", ["http://h/a b", "http://h/café",
                                          "http://a b/v1", "http://a..b/v1"])
    def test_base_url_that_is_no_request_target_is_rejected(self, base_url):
        with pytest.raises(ValueError):
            HttpBackend(base_url, "m")


_HIGH_FD = 1500
_SOFT_NOFILE = resource.getrlimit(resource.RLIMIT_NOFILE)[0]


def _move_idle_connection_to_a_high_fd(backend) -> int:
    """Put the backend's one idle connection on a descriptor >= _HIGH_FD."""
    conn, = backend._idle
    fd = fcntl.fcntl(conn.sock.fileno(), fcntl.F_DUPFD_CLOEXEC, _HIGH_FD)
    conn.close()
    backend._idle[:] = [Connection(socket.socket(fileno=fd))]
    return fd


@pytest.mark.skipif(_SOFT_NOFILE != resource.RLIM_INFINITY and _SOFT_NOFILE <= _HIGH_FD,
                    reason=f"the soft limit on open files is not above {_HIGH_FD}")
class TestHighDescriptor:
    # select() takes only descriptors below 1024; a process with many open
    # files hands the client higher ones
    def test_idle_connection_is_reused(self):
        handler = _raw(lambda n: ([_ok()], False))
        with _serve(handler) as root, HttpBackend(root + "/v1", "m") as backend:
            backend.send("p", cfg())
            fd = _move_idle_connection_to_a_high_fd(backend)
            raw = backend.send("p", cfg(max_retries=0))
            assert [conn.sock.fileno() for conn in backend._idle] == [fd]
        assert raw.attempts == [{"attempt": 1, "status": 200}]
        assert handler.accepted == 1

    def test_idle_connection_the_server_closed_is_not_reused(self):
        handler = _raw(lambda n: ([_ok()], n == 1))
        with _serve(handler) as root, HttpBackend(root + "/v1", "m") as backend:
            backend.send("p", cfg())
            fd = _move_idle_connection_to_a_high_fd(backend)
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            assert poller.poll(5000)  # the server's close has arrived
            raw = backend.send("p", cfg(max_retries=0))
        assert raw.attempts == [{"attempt": 1, "status": 200}]
        assert handler.accepted == 2


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """(cert, key) paths of self-signed certificates for 127.0.0.1 and for
    example.invalid, written by the openssl command."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command is not installed")
    made = {}
    for name, san in (("loopback", "IP:127.0.0.1"), ("other", "DNS:example.invalid")):
        cert, key = (tmp_path_factory.mktemp(name) / f for f in ("cert.pem", "key.pem"))
        subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
                        "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
                        "-subj", f"/CN={name}", "-addext", f"subjectAltName={san}",
                        "-keyout", str(key), "-out", str(cert)],
                       check=True, capture_output=True, timeout=60)
        made[name] = (cert, key)
    return made


@contextmanager
def _serve_tls(cert, key, handler):
    """`_serve` over TLS with the certificate `cert`; yields the https root URL."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)

    class TlsServer(ThreadingHTTPServer):
        def server_bind(self):
            super().server_bind()
            self.socket = context.wrap_socket(self.socket, server_side=True)

    with _serve(handler, server_class=TlsServer) as root:
        yield root.replace("http://", "https://")


class TestHttps:
    @staticmethod
    def trust(monkeypatch, cert):
        real = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda: real(cafile=str(cert)))

    def test_untrusted_certificate_is_refused(self, certificates):
        with _serve_tls(*certificates["loopback"], _raw(lambda n: ([_ok()], False))) as root:
            with HttpBackend(root + "/v1", "m") as backend, \
                    pytest.raises(TransportError) as exc:
                backend.send("p", cfg(max_retries=1))
        assert exc.value.attempts == [{"attempt": n, "error": "SSLCertVerificationError"}
                                      for n in (1, 2)]

    def test_trusted_certificate_one_connection(self, certificates, monkeypatch):
        self.trust(monkeypatch, certificates["loopback"][0])
        handler = _raw(lambda n: ([_ok()], False))
        with _serve_tls(*certificates["loopback"], handler) as root:
            with HttpBackend(root + "/v1", "m") as backend:
                for _ in range(5):
                    assert backend.send("p", cfg(max_retries=0)).attempts == [
                        {"attempt": 1, "status": 200}]
        assert handler.served == 5
        assert handler.accepted == 1

    def test_hostname_mismatch_is_refused(self, certificates, monkeypatch):
        self.trust(monkeypatch, certificates["other"][0])
        with _serve_tls(*certificates["other"], _raw(lambda n: ([_ok()], False))) as root:
            with HttpBackend(root + "/v1", "m") as backend, \
                    pytest.raises(TransportError) as exc:
                backend.send("p", cfg(max_retries=0))
        assert exc.value.attempts == [{"attempt": 1, "error": "SSLCertVerificationError"}]


class _ProbeBackend:
    """Counts concurrent in-flight sends."""

    name = "probe"

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def send(self, prompt_text, cfg):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.02)
        with self.lock:
            self.in_flight -= 1
        return RawCompletion("\\boxed{0}", 1, [])


class _RecordingBackend:
    """Answers each prompt with itself after `reply(prompt)`, which may sleep
    or raise; logs ("start", prompt, thread) and ("end", prompt) around each
    send."""

    name = "recording"

    def __init__(self, reply=lambda prompt: None):
        self.reply = reply
        self.lock = threading.Lock()
        self.log = []

    def note(self, *event):
        with self.lock:
            self.log.append(event)

    def send(self, prompt_text, cfg):
        self.note("start", prompt_text, threading.get_ident())
        try:
            self.reply(prompt_text)
        finally:
            self.note("end", prompt_text)
        return RawCompletion(prompt_text, 1, [])

    def starts(self):
        return [event[1:] for event in self.log if event[0] == "start"]


def _envelopes(n):
    return [build_single_prompt(Question(id=f"q{i}", text=f"t{i}", gold_answer="1"))
            for i in range(n)]


class TestFanOut:
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_each_envelope_sent_once_on_at_most_n_workers(self, n):
        backend = _RecordingBackend(lambda prompt: time.sleep(0.005))
        envs = _envelopes(n)
        records, failures = complete_many(envs, cfg(max_concurrent=4), backend)
        assert failures == []
        assert [r.raw_text for r in records] == [env.text for env in envs]
        prompts = [prompt for prompt, _ in backend.starts()]
        assert sorted(prompts) == sorted(env.text for env in envs)
        threads = {thread for _, thread in backend.starts()}
        assert 1 <= len(threads) <= min(4, n)
        assert threading.get_ident() not in threads

    def test_each_envelope_sent_once_under_frequent_thread_switches(self):
        # more workers than cores share the counter of taken indexes
        envs = _envelopes(300)
        backend = _RecordingBackend()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records, failures = complete_many(envs, cfg(max_concurrent=8), backend)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(prompt for prompt, _ in backend.starts()) == sorted(
            env.text for env in envs)
        assert [r.raw_text for r in records] == [env.text for env in envs]
        assert failures == []

    def test_no_envelopes_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread)))
        backend = _RecordingBackend()
        assert complete_many([], cfg(max_concurrent=4), backend) == ([], [])
        assert started == [] and backend.log == []

    def test_other_exception_starts_no_further_send(self):
        envs = _envelopes(12)
        fourth_started, raised = threading.Event(), threading.Event()

        def reply(prompt):
            if prompt == envs[2].text:
                # raised while the other worker sends the fourth prompt
                assert fourth_started.wait(5)
                backend.note("raise", prompt)
                raised.set()
                raise ValueError("no answer for the third prompt")
            if prompt == envs[3].text:
                fourth_started.set()
                assert raised.wait(5)
                time.sleep(0.05)  # the ValueError reaches its worker meanwhile

        backend = _RecordingBackend(reply)
        with pytest.raises(ValueError, match="no answer for the third prompt"):
            complete_many(envs, cfg(max_concurrent=2), backend)
        raised_at = backend.log.index(("raise", envs[2].text))
        assert [event for event in backend.log[raised_at:] if event[0] == "start"] == []
        # the send in flight when the third prompt raised was the last to start
        assert sorted(prompt for prompt, _ in backend.starts()) == sorted(
            env.text for env in envs[:4])

    @pytest.mark.skipif(threading.current_thread() is not threading.main_thread()
                        or signal.getsignal(signal.SIGINT) is not signal.default_int_handler,
                        reason="SIGINT does not raise KeyboardInterrupt in this thread")
    def test_interrupt_starts_no_further_send(self):
        caller = threading.get_ident()
        envs = _envelopes(12)

        def reply(prompt):
            if prompt == envs[0].text:
                signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.05)

        backend = _RecordingBackend(reply)
        with pytest.raises(KeyboardInterrupt):
            complete_many(envs, cfg(max_concurrent=2), backend)
        # only the sends already in flight were made, and they have ended
        log = list(backend.log)
        assert 1 <= len(backend.starts()) <= 2
        assert sorted(e[1] for e in log if e[0] == "end") == sorted(
            prompt for prompt, _ in backend.starts())
        time.sleep(0.1)
        assert backend.log == log

    def test_results_in_input_order_under_random_delays(self):
        rng = random.Random(5)
        envs = _envelopes(40)
        number = {env.text: i for i, env in enumerate(envs)}
        delays = [rng.uniform(0, 0.01) for _ in envs]

        def reply(prompt):
            i = number[prompt]
            time.sleep(delays[i])
            if i % 7 == 3:
                raise RequestError(prompt, status=400)
            if i % 11 == 5:
                raise TransportError(prompt, attempts=[])

        records, failures = complete_many(envs, cfg(max_concurrent=4),
                                          _RecordingBackend(reply))
        failing = [i for i in range(40) if i % 7 == 3 or i % 11 == 5]
        assert [r.raw_text for r in records] == [envs[i].text for i in range(40)
                                                 if i not in failing]
        assert [str(f) for f in failures] == [envs[i].text for i in failing]
        assert [type(f) for f in failures] == [
            RequestError if i % 7 == 3 else TransportError for i in failing]


class TestConcurrency:
    def test_bounded_in_flight(self):
        probe = _ProbeBackend()
        envs = [build_single_prompt(Question(id=f"q{i}", text=f"t{i}", gold_answer="1"))
                for i in range(20)]
        records, failures = complete_many(envs, cfg(max_concurrent=3), probe)
        assert len(records) == 20 and failures == []
        # a backend that waits on I/O still gets concurrent requests
        assert 1 < probe.max_in_flight <= 3

    def test_mock_answers_in_the_calling_thread(self):
        class ThreadRecordingMock(MockBackend):
            def __init__(self):
                super().__init__()
                self.threads = []

            def send(self, prompt_text, cfg):
                self.threads.append(threading.get_ident())
                return super().send(prompt_text, cfg)

        script = ThreadRecordingMock()
        envs = []
        for i in range(10):
            env = build_single_prompt(
                Question(id=f"q{i}", text=f"body {i}", gold_answer="1"))
            script.add(env.text, f"answer {i} \\boxed{{{i}}}")
            envs.append(env)
        records, _ = complete_many(envs, cfg(max_concurrent=4), script)
        assert script.threads == [threading.get_ident()] * 10
        assert [r.raw_text.split()[1] for r in records] == [str(i) for i in range(10)]

    def test_results_in_input_order(self):
        script = MockBackend()
        envs = []
        for i in range(10):
            env = build_single_prompt(
                Question(id=f"q{i}", text=f"body {i}", gold_answer="1"))
            script.add(env.text, f"answer {i} \\boxed{{{i}}}")
            envs.append(env)
        records, failures = complete_many(envs, cfg(max_concurrent=4), script)
        assert failures == []
        assert [r.raw_text.split()[1] for r in records] == [str(i) for i in range(10)]

    def test_failures_handed_back_apart_in_input_order(self, monkeypatch):
        monkeypatch.setattr(client, "BACKOFF_BASE_S", 0)

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
                status = 400 if "REJECT" in prompt else 503 if "BUSY" in prompt else 200
                payload = json.dumps({"choices": [{"message": {
                    "content": prompt.split()[0] + " \\boxed{1}"}}]}).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        texts = ["q0", "q1 REJECT", "q2", "q3", "q4 BUSY", "q5"]
        envs = [build_single_prompt(Question(id=t.split()[0], text=t, gold_answer="1"))
                for t in texts]
        c = cfg(max_concurrent=3, max_retries=2)
        with _serve(Handler) as root, HttpBackend(root + "/v1", "m") as backend:
            records, failures = complete_many(envs, c, backend)
        assert [r.raw_text for r in records] == [
            f"{qid} \\boxed{{1}}" for qid in ("q0", "q2", "q3", "q5")]
        rejected, exhausted = failures
        assert isinstance(rejected, RequestError) and rejected.status == 400
        assert isinstance(exhausted, TransportError)
        assert exhausted.attempts == [{"attempt": n, "status": 503}
                                      for n in range(1, c.max_retries + 2)]


class TestBatchExperiment:
    def make_backend(self, questions, batch_sizes, seed=0):
        return pf.build_script(questions, batch_sizes, seed=seed, group="random")

    def test_single_size_arity(self):
        questions = pf.make_corpus(4)
        backend = self.make_backend(questions, (1,))
        rows = pf.experiment_rows(questions, [1], cfg(), backend, seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert row.n_groups == 4
        assert row.n_questions == 4

    def test_scripted_batch2_shorter(self):
        questions = pf.make_corpus(12)
        backend = self.make_backend(questions, (1, 2))
        rows = pf.experiment_rows(questions, [1, 2], cfg(), backend, seed=0)
        vanilla, batch2 = rows
        assert vanilla.mean_tokens_per_question > batch2.mean_tokens_per_question

    def test_report_arithmetic_against_oracle(self):
        # spreadsheet-style recomputation of the per-k means from the raw script
        questions = pf.make_corpus(10)
        backend = self.make_backend(questions, (2,))
        rows = pf.experiment_rows(questions, [2], cfg(), backend, seed=0)
        row = rows[0]

        groups = shuffle_and_group(questions, 2, seed=0, group="random")
        expected_tokens = []
        expected_correct = 0
        for grp in groups:
            text = backend.lookup(build_prompt(grp).text).text
            total = len(text.split())
            expected_tokens.extend([total / len(grp)] * len(grp))
            for q in grp:
                if int(q.id[1:]) not in pf.WRONG[2]:
                    expected_correct += 1
        assert row.mean_tokens_per_question == pytest.approx(
            sum(expected_tokens) / len(expected_tokens))
        assert row.accuracy == pytest.approx(expected_correct / 10)

    def test_accuracy_matches_design(self):
        questions = pf.make_corpus(60)
        backend = self.make_backend(questions, (3,))
        rows = pf.experiment_rows(questions, [3], cfg(), backend, seed=0)
        assert rows[0].accuracy == pytest.approx(
            (60 - len(pf.WRONG[3])) / 60)

    def test_leftover_questions_not_sent(self):
        questions = pf.make_corpus(5)
        backend = pf.build_script(questions, (2,), seed=1, group="random")
        rows = pf.experiment_rows(questions, [2], cfg(), backend, seed=1)
        row = rows[0]
        assert row.n_groups == 2
        assert row.n_graded == 4
        assert row.n_questions == 5

    def test_failures_counted_not_dropped(self):
        class FailingBackend:
            name = "failing"

            def send(self, prompt_text, c):
                raise TransportError("down", [])

        questions = pf.make_corpus(4)
        rows = pf.experiment_rows(questions, [2], cfg(), FailingBackend(), seed=0)
        row = rows[0]
        assert row.n_failures == 2
        assert row.n_graded == 0
        # nothing to average over: no data, not a measured zero
        assert (row.accuracy, row.mean_tokens_per_question, row.mean_tokens_split) == (
            None, None, None)
        assert render_experiment_table(rows).splitlines()[1].split() == [
            "Batch-2", "-", "-", "-", "0", "2", "0"]

    def test_render_table(self):
        questions = pf.make_corpus(6)
        backend = self.make_backend(questions, (1, 2))
        rows = pf.experiment_rows(questions, [1, 2], cfg(), backend, seed=0)
        table = render_experiment_table(rows)
        assert "Vanilla" in table
        assert "Batch-2" in table
