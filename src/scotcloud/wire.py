"""HTTP for scotcloud: the server and the client transport.

This is the only module of the package that speaks HTTP. The in-process
core (`service`), the simulator (`sim`) and the layout engine start
without it; `cli` imports this module only in `serve`, the five client
subcommands and `simulate --url`, which tell apart the errors a request
can raise by `REQUEST_ERRORS` and `NOT_SENT`.

The server half serves an `AnnotationService` from one thread: one
`selectors` loop over non-blocking sockets reads each request head as
its bytes arrive, hands the path and query to `handle_url` and writes
the answer. There is no thread per connection; a connection idle for
IDLE_TIMEOUT_S is closed. It loads none of `http.server`, `http.client`,
`socketserver`, `email` or `ssl`. The client half, `HttpTransport`, has
the `get` method that `sim.Simulator` and `sim.fetch_body` send requests
through; the first transport made loads `http.client`.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import re
import selectors
import socket
import sys
import threading
import time
from http import HTTPStatus
from typing import Optional
from urllib.parse import urlsplit

from .service import AnnotationService

log = logging.getLogger(__name__)

IDLE_TIMEOUT_S = 30  # a connection that neither sends nor takes a byte for this long is closed
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
# A head that the rules read as a kept-alive GET with nothing more to say: an
# HTTP/1.1 request line whose path does not start with //, then plain header
# lines that end in CRLF, none of them one of the four looked up. Within the
# limits such a head is answered at once, without its lines being read one by one.
_PLAIN_HEAD = re.compile(rb"GET (/(?!/)[!-~]*) HTTP/1\.1\r\n((?:[!-9;-~]+:[^\r\n]*\r\n){0,99})\r\n")
_LOOKED_UP = re.compile(rb"(?im)^(?:connection|content-length|transfer-encoding|expect):")

# What http.server sends: its Server value, the reason phrases of this
# Python's HTTPStatus, and send_error's head and page (HTML5 since 3.11).
_SERVER = b"BaseHTTP/0.6 Python/" + sys.version.split()[0].encode("ascii")
_PHRASES = {status.value: status.phrase.encode("latin-1") for status in HTTPStatus}
_RESPONSE = (
    b"HTTP/1.1 %d %s\r\nServer: %s\r\nDate: %s\r\n"
    b"Content-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\n%s\r\n%s"
)
_ERROR_HEAD = (
    b"HTTP/1.1 %d %s\r\nServer: %s\r\nDate: %s\r\nConnection: close\r\n"
    b"Content-Type: text/html;charset=utf-8\r\nContent-Length: %d\r\n\r\n"
)
_ERROR_PAGE = (
    '<!DOCTYPE HTML>\n<html lang="en">\n    <head>\n        <meta charset="utf-8">\n'
    if sys.version_info >= (3, 11)
    else '<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01//EN"\n        "http://www.w3.org/TR/html4/strict.dtd">\n'
    '<html>\n    <head>\n        <meta http-equiv="Content-Type" content="text/html;charset=utf-8">\n'
) + (
    "        <title>Error response</title>\n    </head>\n    <body>\n        <h1>Error response</h1>\n"
    "        <p>Error code: %(code)d</p>\n        <p>Message: %(message)s.</p>\n"
    "        <p>Error code explanation: %(code)s - %(explain)s.</p>\n    </body>\n</html>\n"
)
_HTML_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # html.escape(quote=False)
_DAYS = (b"Mon", b"Tue", b"Wed", b"Thu", b"Fri", b"Sat", b"Sun")
_MONTHS = (b"Jan", b"Feb", b"Mar", b"Apr", b"May", b"Jun", b"Jul", b"Aug", b"Sep", b"Oct", b"Nov", b"Dec")


def _http_date(seconds: int) -> bytes:
    """`seconds` as email.utils.formatdate(seconds, usegmt=True) writes it: English names whatever the locale."""
    t = time.gmtime(seconds)
    date = (_DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year, t.tm_hour, t.tm_min, t.tm_sec)
    return b"%s, %02d %s %04d %02d:%02d:%02d GMT" % date


class _DateHeader:
    """The value of the Date header, formatted at most once a second."""

    def __init__(self) -> None:
        self._second, self._value = -1, b""

    def value(self) -> bytes:
        now = int(time.time())
        if now != self._second:
            self._second, self._value = now, _http_date(now)
        return self._value


class _Connection:
    """One client connection: the head it is sending, and the bytes of answers its socket has not taken yet.

    A head is read a line at a time as its bytes arrive, as http.server's
    `rfile.readline(65537)` reads it, so the limits hold before a line or
    a head is whole: 414 for a request line over 65536 bytes, 431 for a
    longer header line or more than 100 lines in a head. The rest are
    http.server's (Python 3.11) too: 400 for a bad request line, 505 for
    HTTP/2 and later, 501 for any method but GET. Only `Connection`,
    `Content-Length`, `Transfer-Encoding` and `Expect` are looked up. A
    head with any line that is not a plain `name: value` line is answered
    400 and closed; it is read to its blank line first, so a 431 is
    answered as before. A refused version gets a status line, where
    http.server answers with a bare HTML body that an HTTP/1.1 client
    cannot read; only a two-word HTTP/0.9 request line is answered bare.

    Pipelined heads are answered in order. Each answer is one `bytes` and
    goes out in one `send`; what the socket does not take waits for
    EVENT_WRITE, and no further head is read until it has gone.
    """

    __slots__ = ("server", "sock", "last", "inbox", "scanned", "eof", "outbox", "closing", "lines",
                 "command", "path", "version", "close_connection")

    def __init__(self, server: HttpServer, sock: socket.socket, now: float) -> None:
        self.server, self.sock, self.last = server, sock, now
        self.inbox, self.outbox = bytearray(), memoryview(b"")  # bytes not yet read as a head, and not yet sent
        self.scanned = 0  # the inbox's first bytes, which hold no line end
        self.eof = self.closing = False  # the client has shut its side; close once the outbox is sent
        self.lines: Optional[list[bytearray]] = None  # the header lines read so far, once a request line is

    def ready(self, mask: int) -> None:
        """Take what the socket is ready for: send what waits, or read, then answer each head that has ended."""
        if mask & selectors.EVENT_WRITE:
            self.outbox = self.outbox[self.sock.send(self.outbox) :]
            if self.outbox:
                return
            self.server.selector.modify(self.sock, selectors.EVENT_READ, self)
        else:
            data = self.sock.recv(65536)
            self.inbox += data
            self.eof = not data
        inbox, pos = self.inbox, 0
        while not (self.outbox or self.closing):
            if self.lines is None and not self.scanned:
                head = _PLAIN_HEAD.match(inbox, pos, pos + MAX_HEADER_LINE)
                if head and not _LOOKED_UP.search(head[2]):
                    pos, self.path, self.version, self.close_connection = head.end(), head[1].decode(), "HTTP/1.1", False
                    self.answer()
                    continue
            end = inbox.find(b"\n", max(pos, self.scanned), pos + MAX_HEADER_LINE + 1) + 1
            if not end:  # no line end yet: a line over the limit, or the last bytes before EOF, are a line too
                if len(inbox) - pos <= MAX_HEADER_LINE and not self.eof:
                    self.scanned = len(inbox) - pos
                    break
                end = min(len(inbox), pos + MAX_HEADER_LINE + 1)
            line, pos, self.scanned = inbox[pos:end], end, 0
            if self.lines is None:
                if self.request_line(line):
                    self.lines = []
                else:
                    self.closing = True
            elif len(line) > MAX_HEADER_LINE:
                explain = f"got more than {MAX_HEADER_LINE} bytes when reading header line"
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long", explain)
            elif len(self.lines) == MAX_HEADER_LINES:  # this line, even a blank one, is one too many
                explain = f"got more than {MAX_HEADER_LINES} headers"
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers", explain)
            elif line in (b"\r\n", b"\n", b""):
                lines, self.lines = self.lines, None
                self.end_head(lines)
            else:
                self.lines.append(line)
        del inbox[:pos]

    def request_line(self, raw: bytearray) -> bool:
        """Check a request line as http.server does; False once it is refused, or if it is blank."""
        if len(raw) > MAX_HEADER_LINE:
            self.version = self.command = ""
            self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            return False
        self.command = None  # set in case of error on the first line
        self.version = "HTTP/0.9"
        self.close_connection = True
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            # Set first, so that a refused version's error goes out with a status line.
            version = self.version = words[-1]
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
        return True

    def end_head(self, lines: list[bytearray]) -> None:
        """Read the header lines, then answer the request."""
        fields: dict[str, str] = {}
        for line in lines:
            match = _PLAIN_FIELD.fullmatch(line)
            if match is None:
                return self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
            fields.setdefault(match[1].decode("ascii").lower(), match[2].decode("iso-8859-1"))
        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        # The protocol has no request bodies; one left unread would be
        # parsed as the next request, so such a connection is not reused.
        if fields.get("content-length", "0").strip() != "0" or "transfer-encoding" in fields:
            self.close_connection = True
        if fields.get("expect", "").lower() == "100-continue" and self.version >= "HTTP/1.1":
            self.send(b"HTTP/1.1 100 Continue\r\n\r\n")
        if self.command != "GET":
            return self.send_error(HTTPStatus.NOT_IMPLEMENTED, "Unsupported method (%r)" % self.command)
        self.answer()

    def answer(self) -> None:
        """Send the service's answer to the GET of `path`."""
        response = self.server.service.handle_url(self.path)
        body = response.encode()
        if self.version == "HTTP/0.9":  # a bare body, as http.server answers HTTP/0.9
            self.send(body)
        else:
            close = b"Connection: close\r\n" if self.close_connection else b""
            status, date = response.status, self.server.date.value()
            self.send(_RESPONSE % (status, _PHRASES[status], _SERVER, date, len(body), close, body))
        self.closing = self.close_connection

    def send_error(self, status: HTTPStatus, message: Optional[str] = None, explain: Optional[str] = None) -> None:
        """Answer as http.server's send_error does, and close: no head for HTTP/0.9, no page for HEAD."""
        message, explain = message or status.phrase, explain or status.description
        fill = {"code": status, "message": message.translate(_HTML_ESCAPE), "explain": explain.translate(_HTML_ESCAPE)}
        page = (_ERROR_PAGE % fill).encode("utf-8", "replace")
        head = b""
        if self.version != "HTTP/0.9":
            head = _ERROR_HEAD % (status, message.encode("latin-1"), _SERVER, self.server.date.value(), len(page))
        self.send(head if self.command == "HEAD" else head + page)
        self.closing = True

    def send(self, data: bytes) -> None:
        """Send `data` after what waits already; what the socket does not take waits for EVENT_WRITE."""
        if self.outbox:
            data, self.outbox = bytes(self.outbox) + data, memoryview(b"")
        try:
            sent = self.sock.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            self.outbox = memoryview(data)[sent:]
            self.server.selector.modify(self.sock, selectors.EVENT_WRITE, self)

    def close(self) -> None:
        self.server.selector.unregister(self.sock)
        with contextlib.suppress(OSError):  # the client is gone already
            self.sock.shutdown(socket.SHUT_WR)
        self.sock.close()


class HttpServer:
    """Serves an AnnotationService over HTTP/1.1 from the thread that runs serve_forever.

    One selectors loop watches the listening socket and every connection,
    all non-blocking. A connection that neither sends nor takes a byte for
    IDLE_TIMEOUT_S is closed, judged by its last event's time; a client
    reconnects on its next request. TCP_NODELAY is still required, not a
    tuning knob: a response longer than one segment would otherwise have
    its last segment held back by Nagle's algorithm until the client's
    delayed ACK, about 40 ms a response. `serve_forever`, `shutdown` and
    `server_close` behave as socketserver's do.
    """

    def __init__(self, service: AnnotationService, host: str) -> None:
        self.service, self.date = service, _DateHeader()
        self.socket = socket.socket()
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)  # a restart reuses its port at once
            self.socket.bind((host, service.config.port))
            self.socket.listen()
        except BaseException:
            self.socket.close()
            raise
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._wake = os.pipe()  # shutdown writes a byte to end the loop's wait
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.socket, selectors.EVENT_READ)
        self.selector.register(self._wake[0], selectors.EVENT_READ)
        self._stop, self._stopped = False, threading.Event()

    def serve_forever(self) -> None:
        """Serve until `shutdown` is called from another thread."""
        self._stopped.clear()
        try:
            now, idle_at = time.monotonic(), math.inf  # when the connection idle longest times out, at the earliest
            while not self._stop:
                events = self.selector.select(None if idle_at == math.inf else max(0.0, idle_at - now))
                now = time.monotonic()
                for key, mask in events:
                    if key.fileobj is self.socket:
                        self._accept(now)
                        idle_at = min(idle_at, now + IDLE_TIMEOUT_S)
                    elif key.data is None:
                        os.read(self._wake[0], 64)
                    else:
                        self._ready(key.data, mask, now)
                if now >= idle_at:
                    idle_at = self._close_idle(now)
        finally:
            self._stop = False
            self._stopped.set()

    def _connections(self) -> list[_Connection]:
        return [key.data for key in self.selector.get_map().values() if key.data is not None]

    def _accept(self, now: float) -> None:
        try:
            sock, _ = self.socket.accept()
        except OSError:  # the client left first, or no descriptor is free
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.selector.register(sock, selectors.EVENT_READ, _Connection(self, sock, now))

    def _ready(self, conn: _Connection, mask: int, now: float) -> None:
        conn.last = now
        try:
            conn.ready(mask)
        except Exception as exc:  # a reset, or a fault in one request: that connection closes, the server serves on
            if not isinstance(exc, OSError):
                log.exception("http: error while serving a request")
            conn.closing, conn.outbox = True, memoryview(b"")
        if conn.closing and not conn.outbox:
            conn.close()

    def _close_idle(self, now: float) -> float:
        """Close each connection idle for IDLE_TIMEOUT_S; when the next may time out."""
        idle_at = math.inf
        for conn in self._connections():
            if now - conn.last >= IDLE_TIMEOUT_S:
                conn.close()
            else:
                idle_at = min(idle_at, conn.last + IDLE_TIMEOUT_S)
        return idle_at

    def shutdown(self) -> None:
        """Make serve_forever return, and wait until it has."""
        self._stop = True
        os.write(self._wake[1], b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        """Close every connection and the listening socket."""
        for conn in self._connections():
            conn.close()
        self.selector.close()
        self.socket.close()
        for fd in self._wake:
            os.close(fd)


def make_http_server(service: AnnotationService, host: str = "127.0.0.1") -> HttpServer:
    """A server over `service`, bound to `host` and the service's port, not yet serving."""
    return HttpServer(service, host)


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
        import http.client  # here, so that serving loads no client code

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


def __getattr__(name: str) -> tuple[type[BaseException], ...]:
    """REQUEST_ERRORS and NOT_SENT, which load http.client when first read.

    They are what a request through HttpTransport can raise. NOT_SENT
    means it never went out; any other of REQUEST_ERRORS means its answer
    is lost, and the server may or may not have applied it.
    """
    if name not in ("REQUEST_ERRORS", "NOT_SENT"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import http.client

    globals().update(REQUEST_ERRORS=(OSError, http.client.HTTPException), NOT_SENT=(Unreachable, http.client.InvalidURL))
    return globals()[name]
