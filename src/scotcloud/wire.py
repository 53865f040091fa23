"""HTTP for scotcloud: the server shell and the client transport.

This is the only module of the package that imports `http`, `email` or
`ssl`. The in-process core (`service`), the simulator (`sim`) and the
layout engine start without them; `cli` imports this module only in
`serve`, the five client subcommands and `simulate --url`, which tell
apart the errors a request can raise by `REQUEST_ERRORS` and `NOT_SENT`.

The server half is a thin shell over `service.AnnotationService`: it
parses a request head, hands the path and query to `handle_url`, and
writes the answer. The client half, `HttpTransport`, has the `get`
method that `sim.Simulator` and `sim.fetch_body` send requests through.
"""

from __future__ import annotations

import http.client
import logging
import re
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .service import AnnotationService

log = logging.getLogger(__name__)

IDLE_TIMEOUT_S = 30  # a kept-alive connection idle this long is closed, freeing its thread
REQUEST_TIMEOUT_S = 60  # HttpTransport gives up on a connect, or on a read of the answer, after this long


# -- server ----------------------------------------------------------------------


# As http.client reads a request head: the longest header line, and the most
# lines in a head, the blank line that ends it included.
MAX_HEADER_LINE = 65536
MAX_HEADER_LINES = 100

# A header line as RFC 9112 §5 writes it: a name of token characters, a colon
# right after it, and a value without CR or LF. Any other line (whitespace
# before the colon, an obs-fold, no colon at all) is answered 400.
_PLAIN_FIELD = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)\r?\n")
# An HTTP version as http.server accepts it since Python 3.11: two numbers
# of 1 to 10 digits. (str.isdigit() there also passes '\xb2', which int()
# then refuses.)
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")

_RESPONSE = (
    b"HTTP/1.1 %d %s\r\nServer: %s\r\nDate: %s\r\n"
    b"Content-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\n%s\r\n%s"
)


class _DateHeader:
    """The value of the Date header, formatted at most once a second."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._second = -1
        self._value = b""

    def value(self) -> bytes:
        now = int(time.time())
        with self._lock:
            if now != self._second:
                self._second, self._value = now, formatdate(now, usegmt=True).encode("ascii")
            return self._value


class _Handler(BaseHTTPRequestHandler):
    """GET-only shell over HTTP/1.1: a client keeps one connection for many requests.

    Requests are parsed without the email package: `parse_request` reads
    the header lines itself and looks up only `Connection`,
    `Content-Length`, `Transfer-Encoding` and `Expect`. The limits and
    error replies are http.server's (Python 3.11): 414 for a request line
    over 65536 bytes, 431 for a longer header line or more than 100 lines
    in a head, 400 for a bad request line, 505 for HTTP/2 and later, 501
    for any method but GET. A head with any line that is not a plain
    `name: value` line is answered 400 and closed; it is read to its blank
    line first, so a 431 is answered as before. A refused version gets a
    status line, where http.server answers with a bare HTML body that an
    HTTP/1.1 client cannot read; only a two-word HTTP/0.9 request line is
    answered bare.

    Status line, headers and body of each answer of the service are
    formatted as one `bytes` and go out in one unbuffered write, one
    `sendall`; the Date value is refreshed once a second. The replies of
    http.server's own `send_error` go out as it sends them: head first,
    then body. TCP_NODELAY is still required, not a tuning knob: a
    response longer than one segment would otherwise have its last
    segment held back by Nagle's algorithm until the client's delayed
    ACK, about 40 ms a response. Each connection holds a thread, so one
    left idle is closed after IDLE_TIMEOUT_S; clients reconnect on their
    next request.
    """

    service: AnnotationService
    date: _DateHeader
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def parse_request(self) -> bool:
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            # Set first, so that a refused version's error goes out with a status line.
            version = self.request_version = words[-1]
            match = _VERSION.fullmatch(version)
            if match is None:
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad request version (%r)" % version)
                return False
            number = int(match[1]), int(match[2])
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, "Invalid HTTP version (%s)" % version[5:])
                return False
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad HTTP/0.9 request type (%r)" % command)
                return False
        if path.startswith("//"):  # a client would read //host/path as another host
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        lines = []
        while True:
            line = self.rfile.readline(MAX_HEADER_LINE + 1)
            if len(line) > MAX_HEADER_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_HEADER_LINE} bytes when reading header line",
                )
                return False
            if len(lines) == MAX_HEADER_LINES:  # this line, even a blank one, is one too many
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {MAX_HEADER_LINES} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            lines.append(line)
        fields: dict[str, str] = {}
        for line in lines:
            match = _PLAIN_FIELD.fullmatch(line)
            if match is None:
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            fields.setdefault(match[1].decode("ascii").lower(), match[2].decode("iso-8859-1"))
        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        # The protocol has no request bodies; one left unread would be
        # parsed as the next request, so such a connection is not reused.
        has_body = fields.get("content-length", "0").strip() != "0" or "transfer-encoding" in fields
        if has_body:
            self.close_connection = True
        if fields.get("expect", "").lower() == "100-continue" and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        response = self.service.handle_url(self.path)
        if log.isEnabledFor(logging.DEBUG):
            self.log_request(response.status)
        body = response.encode()
        if self.request_version == "HTTP/0.9":  # a bare body, as http.server answers HTTP/0.9
            self.wfile.write(body)
            return
        self.wfile.write(
            _RESPONSE
            % (
                response.status,
                self.responses[response.status][0].encode("latin-1"),
                self.version_string().encode("latin-1"),
                self.date.value(),
                len(body),
                b"Connection: close\r\n" if self.close_connection else b"",
                body,
            )
        )

    def log_message(self, fmt: str, *args) -> None:
        log.debug("http: " + fmt, *args)


def make_http_server(service: AnnotationService, host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """A threading server over `service`; unbuffered, it sends each answer in one `sendall`, whatever the page cap."""
    handler = type("Handler", (_Handler,), {"service": service, "date": _DateHeader()})
    return ThreadingHTTPServer((host, service.config.port), handler)


def serve(service: AnnotationService, host: str = "127.0.0.1") -> None:
    """Run the blocking server loop; reports the bound port on stderr first.

    Every mutation is already in the log when it is acknowledged, so
    nothing is written on the way out; the log descriptor is closed.
    """
    server = make_http_server(service, host)
    print(f"serving on {host}:{server.server_address[1]}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()


# -- client ----------------------------------------------------------------------


class Unreachable(ConnectionError):
    """No connection to the server could be made, so the request never went out."""


class HttpTransport:
    """Wire transport to a live server, one HTTP/1.1 connection per request.

    Each request goes out on a connection of its own, which is closed once
    the answer is read, and it is never sent twice: `/tag` and `/attach`
    are not idempotent. A connection that cannot be made raises
    Unreachable. Any later error means the answer is lost, and the server
    may or may not have applied the request; it raises as OSError or
    http.client.HTTPException. A connect or a read that waits longer than
    REQUEST_TIMEOUT_S raises TimeoutError, as Unreachable for the connect.
    An https URL pays one TLS handshake per request. InvalidURL is raised
    for a URL that is not http[s]://host[:port][/prefix].
    """

    def __init__(self, base_url: str):
        split = urlsplit(base_url)
        if split.scheme not in ("http", "https") or not split.netloc:
            raise http.client.InvalidURL(f"not an http URL: {base_url!r}")
        self._connection = http.client.HTTPSConnection if split.scheme == "https" else http.client.HTTPConnection
        self._netloc = split.netloc
        self._prefix = split.path.rstrip("/")

    def get(self, path_query: str) -> tuple[int, bytes]:
        conn = self._connection(self._netloc, timeout=REQUEST_TIMEOUT_S)
        try:
            try:
                conn.connect()
            except OSError as exc:
                raise Unreachable(f"{self._netloc}: {exc}") from exc
            conn.request("GET", self._prefix + path_query)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


# What a request through HttpTransport can raise. NOT_SENT means it never
# went out; any other of these means its answer is lost, and the server may
# or may not have applied it.
REQUEST_ERRORS = (OSError, http.client.HTTPException)
NOT_SENT = (Unreachable, http.client.InvalidURL)
