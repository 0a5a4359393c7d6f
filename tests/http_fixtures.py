"""Loopback HTTP server for transport-path integration tests."""

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from batchcot.client import MockBackend
from batchcot.parsing import count_tokens


@contextmanager
def mock_http_server(script: MockBackend, host: str = "127.0.0.1", port: int = 0):
    """Serve a MockBackend over an OpenAI-compatible loopback endpoint."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            if not self.path.endswith("/chat/completions"):
                self.send_error(404)
                return
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            prompt_text = body["messages"][0]["content"]
            response = script.lookup(prompt_text)
            tokens = (response.tokens if response.tokens is not None
                      else count_tokens(response.text))
            payload = json.dumps({
                "choices": [{"message": {"role": "assistant",
                                         "content": response.text}}],
                "usage": {"completion_tokens": tokens},
            }).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
