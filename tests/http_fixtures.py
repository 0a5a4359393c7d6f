"""Loopback HTTP server for transport-path integration tests."""

import gc
import json
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from batchcot.client import MockBackend, fingerprint
from batchcot.parsing import count_tokens


@contextmanager
def mock_http_server(script: MockBackend, host: str = "127.0.0.1", port: int = 0,
                     keep_alive: bool = False, accepted: list = None,
                     drop=frozenset(), bodies: list = None):
    """Serve a MockBackend over an OpenAI-compatible loopback endpoint.

    With keep_alive the server speaks HTTP/1.1 and keeps each connection open
    for further requests. Either way it writes a response's headers and its
    body in separate sends, as perfbench's loopback server does. A request
    whose prompt fingerprint is in `drop` gets no answer: the server closes
    its connection. Each connection the server accepts appends its client
    address to `accepted`, and each request its decoded JSON body to
    `bodies`, if given.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

        def setup(self):
            super().setup()
            if accepted is not None:
                accepted.append(self.client_address)

        def do_POST(self):
            if not self.path.endswith("/chat/completions"):
                self.send_error(404)
                return
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            if bodies is not None:
                bodies.append(body)
            prompt_text = body["messages"][0]["content"]
            if fingerprint(prompt_text) in drop:
                self.close_connection = True
                return
            response = script.lookup(prompt_text)
            tokens = (response.completion_tokens if response.completion_tokens is not None
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


def open_sockets_to(url):
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
