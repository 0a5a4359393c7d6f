"""HTTP/1.1 responses read off a socket, for the chat-completions client.

A `Connection` is a socket and one receive buffer, kept across the
responses of a keep-alive connection. Its reads are bounded: a response
that breaks the framing raises a `ProtocolError` or `RemoteDisconnected`,
and never makes it wait for bytes that the framing does not promise.
"""

from __future__ import annotations

import select
import socket

# Linux only; None elsewhere (see client.HttpBackend)
_TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

# Bounds on one status, header, chunk-size or trailer line and on the lines
# of one header or trailer section, as http.client sets them
_MAX_LINE = 65536
_MAX_HEADERS = 100
# bytes asked of the socket per receive
_RECV_SIZE = 65536
_HEX_DIGITS = b"0123456789abcdefABCDEF"


class ProtocolError(Exception):
    """A response that breaks HTTP/1.1 framing; the attempt is logged and retried."""


class BadStatusLine(ProtocolError):
    """A status line that is not HTTP/1.0 or HTTP/1.1 and a status code."""


class LineTooLong(ProtocolError):
    """A status, header, chunk-size or trailer line over _MAX_LINE bytes."""


class TooManyHeaders(ProtocolError):
    """A header or trailer section of more than _MAX_HEADERS lines."""


class IncompleteRead(ProtocolError):
    """A response the server closed the connection inside, or a chunk framed wrongly."""


class RemoteDisconnected(ConnectionResetError):
    """The server closed the connection before a status line."""


class Connection:
    """A socket to the server and its one receive buffer, kept across responses.

    Every read takes from the buffer first: what one receive brought in past
    the end of a line or body stays there for the next read.
    """

    __slots__ = ("sock", "buf", "_poller")

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()
        # poll takes any descriptor, where select takes only those below
        # FD_SETSIZE (1024); select is left for systems without poll
        self._poller = None
        if hasattr(select, "poll"):
            self._poller = select.poll()
            self._poller.register(sock, select.POLLIN)

    @classmethod
    def open(cls, address, timeout: float, tls) -> "Connection":
        """A connection to (host, port), over TLS when `tls` is an SSLContext.

        The certificate must name the host.
        """
        sock = socket.create_connection(address, timeout)
        if tls is not None:
            try:
                sock = tls.wrap_socket(sock, server_hostname=address[0])
            except BaseException:
                sock.close()
                raise
        return cls(sock)

    def close(self):
        self.sock.close()

    def readable(self) -> bool:
        """Whether a read would not wait: on an idle connection, the server
        has closed it (or sent what no request asked for)."""
        if self._poller is None:
            return bool(select.select([self.sock], [], [], 0)[0])
        return bool(self._poller.poll(0))

    def _fill(self) -> bool:
        """Append one receive to the buffer; False once the server has closed."""
        data = self.sock.recv(_RECV_SIZE)
        self.buf += data
        return bool(data)

    def _line(self) -> bytes:
        """The next line, without its CRLF (or bare LF)."""
        buf = self.buf
        end = buf.find(b"\n")
        while end < 0:
            if len(buf) > _MAX_LINE:
                raise LineTooLong(f"line over {_MAX_LINE} bytes")
            start = len(buf)
            if not self._fill():
                raise IncompleteRead("connection closed inside a line")
            end = buf.find(b"\n", start)
        if end > _MAX_LINE:
            raise LineTooLong(f"line over {_MAX_LINE} bytes")
        line = bytes(buf[:end])
        del buf[:end + 1]
        return line[:-1] if line.endswith(b"\r") else line

    def _fields(self) -> dict:
        """Lines up to a blank one, as lower-cased field names to values.

        A repeated field's values are joined with ", ", as HTTP lists are.
        """
        fields = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._line()
            if not line:
                return fields
            name, colon, value = line.partition(b":")
            if colon:
                name, value = name.lower(), value.strip()
                fields[name] = fields[name] + b", " + value if name in fields else value
        raise TooManyHeaders(f"more than {_MAX_HEADERS} header lines")

    def _exact(self, n: int) -> bytes:
        buf = self.buf
        while len(buf) < n:
            if not self._fill():
                raise IncompleteRead(f"connection closed after {len(buf)} of {n} bytes")
        data = bytes(buf[:n])
        del buf[:n]
        return data

    def _chunked(self) -> bytes:
        parts = []
        while True:
            size = self._line().partition(b";")[0].strip()  # extensions ignored
            if not size or size.strip(_HEX_DIGITS):
                raise IncompleteRead(f"chunk size {size[:20]!r} is not hexadecimal")
            n = int(size, 16)
            if n == 0:
                break
            parts.append(self._exact(n))
            if self._line():
                raise IncompleteRead("chunk data longer than its size")
        self._fields()  # the trailer section, unused
        return b"".join(parts)

    def _to_eof(self) -> bytes:
        while self._fill():
            pass
        data = bytes(self.buf)
        self.buf.clear()
        return data

    def response(self):
        """(status, body, reusable) of the response to the request just sent.

        1xx interim responses are skipped. Only a 200's body is read: by
        Content-Length, by chunked coding, or to EOF when neither frames it.
        reusable says another request may follow on this connection.
        """
        status = 100
        while status < 200:
            if not self.buf and not self._fill():
                raise RemoteDisconnected("remote end closed connection without response")
            line = self._line()
            version, _, rest = line.partition(b" ")
            code = rest[:3]
            if (version not in (b"HTTP/1.1", b"HTTP/1.0") or not code.isdigit()
                    or rest[3:4] not in (b"", b" ") or code < b"100"):
                raise BadStatusLine(f"status line {line[:80]!r}")
            status = int(code)
            headers = self._fields()
        # between the headers and the body, while their ACK is pending; set
        # once the request is sent, it races the reply
        if _TCP_QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, _TCP_QUICKACK, 1)
        if status != 200:
            return status, None, False
        coding = headers.get(b"transfer-encoding")
        length = headers.get(b"content-length")
        if coding is not None and coding.rpartition(b",")[2].strip().lower() == b"chunked":
            body = self._chunked()
        elif coding is None and length is not None:
            if not length.isdigit():
                raise ProtocolError(f"Content-Length {length[:20]!r} is not a length")
            body = self._exact(int(length))
        else:
            return status, self._to_eof(), False
        tokens = headers.get(b"connection", b"").lower().split(b",")
        reusable = (version == b"HTTP/1.1" and not self.buf
                    and b"close" not in (t.strip() for t in tokens))
        return status, body, reusable
