"""OpenAI-compatible loopback chat-completions server, run as a child process.

    python3 perfbench/loopback_server.py RESPONSES_JSON

RESPONSES_JSON maps prompt fingerprints (sha256 of the prompt text, first 32
hex characters) to response texts. The server speaks HTTP/1.1 with
keep-alive, so a client that reuses connections opens fewer of them. It
prints ``READY <port> <probe_port>`` once it listens on 127.0.0.1 and shuts
down when its standard input closes; it then prints one JSON line with the
connections it accepted, the requests it answered and the time its handlers
were busy. The second port answers only PROBE_PROMPT, the machine-speed
probe's prompt (see speed.py), with the same handler code and counters of
its own, so the probe's round trips stay out of the figures above. Standard
library only, so the client's cost stays apart from the server's.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PROBE_PROMPT = "Probe prompt: what is 2 + 2?"
PROBE_TEXT = "We add two and two. Therefore the final answer is \\boxed{4}."


def fingerprint(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:32]


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.unknown_prompts = 0
        self.busy_s = 0.0


def make_handler(responses: dict, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            with stats.lock:
                stats.connections += 1

        def do_POST(self):
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            prompt = body["messages"][0]["content"]
            text = responses.get(fingerprint(prompt))
            if text is None:
                status = 400
                payload = json.dumps({"error": "unknown prompt"}).encode("utf-8")
            else:
                status = 200
                payload = json.dumps({
                    "object": "chat.completion",
                    "choices": [{"index": 0, "finish_reason": "stop",
                                 "message": {"role": "assistant", "content": text}}],
                    "usage": {"completion_tokens": len(text.split())},
                }).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            elapsed = time.perf_counter() - start
            with stats.lock:
                stats.requests += 1
                stats.unknown_prompts += text is None
                stats.busy_s += elapsed

        def log_message(self, *args):
            pass

    return Handler


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        responses = json.load(fh)
    stats = Stats()
    servers = [
        ThreadingHTTPServer(("127.0.0.1", 0), make_handler(responses, stats)),
        ThreadingHTTPServer(("127.0.0.1", 0), make_handler(
            {fingerprint(PROBE_PROMPT): PROBE_TEXT}, Stats())),
    ]
    threads = []
    for server in servers:
        server.daemon_threads = True
        # a short poll interval keeps shutdown, which waits for it, quick
        threads.append(threading.Thread(target=server.serve_forever,
                                        kwargs={"poll_interval": 0.05}))
        threads[-1].start()
    print("READY " + " ".join(str(s.server_address[1]) for s in servers), flush=True)
    try:
        sys.stdin.read()
    finally:
        for server, thread in zip(servers, threads):
            server.shutdown()
            thread.join()
            server.server_close()
    print(json.dumps({"connections": stats.connections, "requests": stats.requests,
                      "unknown_prompts": stats.unknown_prompts,
                      "busy_s": stats.busy_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
