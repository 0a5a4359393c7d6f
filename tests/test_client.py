import gc
import json
import socket
import threading
import time
import warnings
from contextlib import contextmanager
from types import SimpleNamespace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import pytest

import pipeline_fixtures as pf
from http_fixtures import mock_http_server
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
    run_batch_experiment,
)
from batchcot.cli import main
from batchcot.harness import BenchmarkSpec, evaluate
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

    def test_default_generator_for_unmatched(self):
        backend = MockBackend()
        env = build_single_prompt(Question(id="a", text="anything", gold_answer="1"))
        rec = complete(env, cfg(), backend)
        assert rec.raw_text == "\\boxed{0}"
        assert rec.reported_tokens is None
        assert rec.counted_tokens == 1

    def test_dir_roundtrip(self, tmp_path):
        script = MockBackend()
        script.add("prompt one", "resp one", tokens=5)
        script.add("prompt two", "resp two")
        pf.write_script_dir(script, tmp_path / "m")
        loaded = MockBackend.from_dir(tmp_path / "m")
        assert loaded.lookup("prompt one") == ("resp one", 5)
        assert loaded.lookup("prompt two") == ("resp two", None)

    def test_fingerprint_stability(self):
        assert fingerprint("abc") == fingerprint("abc")
        assert fingerprint("abc") != fingerprint("abd")

    def test_record_provenance(self):
        backend = MockBackend()
        env = build_single_prompt(Question(id="a", text="x", gold_answer="1"))
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
        backend = HttpBackend(flaky_server, "m")
        env = build_single_prompt(Question(id="a", text="x", gold_answer="1"))
        raw = backend.send(env.text, cfg(max_retries=3))
        assert raw.text == "ok \\boxed{1}"
        assert raw.completion_tokens == 3
        assert len(raw.attempts) == 3
        assert [a.get("status") for a in raw.attempts] == [429, 429, 200]

    def test_exhausted_retries(self, flaky_server):
        _FlakyHandler.failures_left = 10
        backend = HttpBackend(flaky_server, "m")
        with pytest.raises(TransportError) as exc:
            backend.send("p", cfg(max_retries=1))
        assert len(exc.value.attempts) == 2

    def test_backoff_doubles_between_retries(self, flaky_server, monkeypatch):
        monkeypatch.undo()  # restore the BACKOFF_BASE_S that conftest zeroes
        delays = []
        monkeypatch.setattr(client, "time", SimpleNamespace(sleep=delays.append))
        _FlakyHandler.failures_left = 10
        _FlakyHandler.status = 503
        with pytest.raises(TransportError) as exc:
            HttpBackend(flaky_server, "m").send("p", cfg(max_retries=3))
        # three delays tell doubling (0.5, 1, 2) from linear growth (0.5, 1, 1.5)
        assert delays == [0.5, 1.0, 2.0]
        assert [a["status"] for a in exc.value.attempts] == [503] * 4

    def test_unreachable_host(self):
        backend = HttpBackend("http://127.0.0.1:1/v1", "m")
        env = build_single_prompt(Question(id="a", text="x", gold_answer="1"))
        with pytest.raises(TransportError):
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
            backend = HttpBackend(
                f"http://127.0.0.1:{server.server_address[1]}/v1", "m")
            with pytest.raises(RequestError):
                backend.send("p", cfg())
        finally:
            server.shutdown()
            thread.join()
            server.server_close()

    def test_loopback_mock_server(self):
        script = MockBackend()
        script.add("hello prompt", "loopback \\boxed{9}", tokens=42)
        with mock_http_server(script) as base_url:
            backend = HttpBackend(base_url, "mock-model")
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
def _serve(handler):
    """Serve `handler` on a loopback port; yields the server's root URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
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
        yield HttpBackend(root + "/v1", "m")


class TestMalformedBody:
    @pytest.mark.parametrize("body", _MALFORMED_BODIES)
    def test_send_raises_request_error(self, body):
        with _serve_malformed(body) as backend:
            with pytest.raises(RequestError) as exc:
                backend.send("p", cfg(max_retries=2))
        assert exc.value.status == 200

    def test_complete_many_returns_error_in_place(self):
        envelopes = [build_single_prompt(Question(id=qid, text=text, gold_answer="1"))
                     for qid, text in (("a", "SERVE-VALID"), ("b", "x"), ("c", "SERVE-VALID"))]
        with _serve_malformed(b'{"choices": []}') as backend:
            results = complete_many(envelopes, cfg(max_concurrent=2), backend)
        assert [r.raw_text for r in (results[0], results[2])] == ["ok \\boxed{1}"] * 2
        assert isinstance(results[1], RequestError)

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
        assert manifest["exclusions"] == {"endpoint_failures": 1}


class TestApiKey:
    @pytest.mark.parametrize("key, header", [("sk-test", "Bearer sk-test"), (None, None)])
    def test_authorization_header_from_env(self, monkeypatch, key, header):
        if key is None:
            monkeypatch.delenv("BATCHCOT_API_KEY", raising=False)
        else:
            monkeypatch.setenv("BATCHCOT_API_KEY", key)
        seen = []

        class Recorder(_MalformedHandler):
            def do_POST(self):
                seen.append(self.headers.get("Authorization"))
                super().do_POST()

        with _serve_malformed(b"{}", base=Recorder) as backend:
            assert backend.send("SERVE-VALID", cfg()).text == "ok \\boxed{1}"
        assert seen == [header]

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
            backend = HttpBackend(f"http://127.0.0.1:{listener.getsockname()[1]}/v1", "m")
            start = time.perf_counter()
            with pytest.raises(TransportError) as exc:
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
            backend = HttpBackend(root + "/api/v1/", "m")
            assert backend.send("SERVE-VALID", cfg()).text == "ok \\boxed{1}"
        assert paths == ["/api/v1/chat/completions"]

    @pytest.mark.parametrize("base_url", ["127.0.0.1:8000/v1", "ftp://127.0.0.1/v1",
                                          "http:///v1"])
    def test_base_url_that_is_not_http_is_rejected(self, base_url):
        with pytest.raises(ValueError):
            HttpBackend(base_url, "m")

    def test_send_leaves_no_open_socket(self):
        # each raised error stays referenced, as a caller's would, and an
        # HTTP/1.1 server keeps a connection open for another request, so only
        # send's own closing releases a socket
        keep_alive = type("KeepAlive", (_dropping(1),), {"protocol_version": "HTTP/1.1"})
        gc.collect()  # earlier tests' garbage warns outside the block below
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with _serve_malformed(b"{}", base=keep_alive) as backend:
                backend.send("SERVE-VALID", cfg(max_retries=1))  # a drop, then a 200
                with pytest.raises(RequestError) as malformed:
                    backend.send("p", cfg())  # a malformed 200
                assert _open_sockets_to(backend.url) == []
            with _serve(type("Busy", (_FlakyHandler,), {"failures_left": 10})) as root:
                with pytest.raises(TransportError) as busy:  # 429s, bodies unread
                    HttpBackend(root, "m").send("p", cfg(max_retries=1))
                assert _open_sockets_to(root) == []
            with socket.create_server(("127.0.0.1", 0)) as listener:
                url = f"http://127.0.0.1:{listener.getsockname()[1]}"
                with pytest.raises(TransportError) as silent:
                    HttpBackend(url, "m").send("p", cfg(max_retries=0, timeout=0.05))
                assert _open_sockets_to(url) == []
            del malformed, busy, silent
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def _open_sockets_to(url):
    """This process's open sockets connected to the port of `url`."""
    port = urlsplit(url).port
    found = []
    for obj in gc.get_objects():
        if isinstance(obj, socket.socket) and obj.fileno() != -1:
            try:
                if obj.getpeername()[1] == port:
                    found.append(obj)
            except OSError:
                pass
    return found


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


class TestConcurrency:
    def test_bounded_in_flight(self):
        probe = _ProbeBackend()
        envs = [build_single_prompt(Question(id=f"q{i}", text=f"t{i}", gold_answer="1"))
                for i in range(20)]
        results = complete_many(envs, cfg(max_concurrent=3), probe)
        assert len(results) == 20
        assert probe.max_in_flight <= 3

    def test_results_in_input_order(self):
        script = MockBackend()
        envs = []
        for i in range(10):
            env = build_single_prompt(
                Question(id=f"q{i}", text=f"body {i}", gold_answer="1"))
            script.add(env.text, f"answer {i} \\boxed{{{i}}}")
            envs.append(env)
        results = complete_many(envs, cfg(max_concurrent=4), script)
        assert [r.raw_text.split()[1] for r in results] == [str(i) for i in range(10)]


class TestBatchExperiment:
    def make_backend(self, questions, batch_sizes, seed=0):
        return pf.build_script(questions, batch_sizes, seed=seed, group="random")

    def test_single_size_arity(self):
        questions = pf.make_corpus(4)
        backend = self.make_backend(questions, (1,))
        rows = run_batch_experiment(questions, [1], cfg(), backend, seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert row.n_groups == 4
        assert row.n_questions == 4

    def test_scripted_batch2_shorter(self):
        questions = pf.make_corpus(12)
        backend = self.make_backend(questions, (1, 2))
        rows = run_batch_experiment(questions, [1, 2], cfg(), backend, seed=0)
        vanilla, batch2 = rows
        assert vanilla.mean_tokens_per_question > batch2.mean_tokens_per_question

    def test_report_arithmetic_against_oracle(self):
        # spreadsheet-style recomputation of the per-k means from the raw script
        questions = pf.make_corpus(10)
        backend = self.make_backend(questions, (2,))
        rows = run_batch_experiment(questions, [2], cfg(), backend, seed=0)
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
        rows = run_batch_experiment(questions, [3], cfg(), backend, seed=0)
        assert rows[0].accuracy == pytest.approx(
            (60 - len(pf.WRONG[3])) / 60)

    def test_leftover_group_kept(self):
        questions = pf.make_corpus(5)
        backend = pf.build_script(questions, (2,), seed=1, group="random")
        rows = run_batch_experiment(questions, [2], cfg(), backend, seed=1)
        row = rows[0]
        assert row.n_groups == 3
        assert row.n_questions == 5

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            run_batch_experiment(pf.make_corpus(4), [0], cfg(),
                                 MockBackend())

    def test_failures_counted_not_dropped(self):
        class FailingBackend:
            name = "failing"

            def send(self, prompt_text, c):
                raise TransportError("down", [])

        questions = pf.make_corpus(4)
        rows = run_batch_experiment(questions, [2], cfg(), FailingBackend(), seed=0)
        row = rows[0]
        assert row.n_failures == 2
        assert row.n_graded == 0

    def test_render_table(self):
        questions = pf.make_corpus(6)
        backend = self.make_backend(questions, (1, 2))
        rows = run_batch_experiment(questions, [1, 2], cfg(), backend, seed=0)
        table = render_experiment_table(rows)
        assert "Vanilla" in table
        assert "Batch-2" in table
