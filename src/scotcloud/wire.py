"""HTTP for scotcloud: the server and the client transport.

This is the only module of the package that speaks HTTP. The in-process
core (`service`), the simulator (`sim`) and the layout engine start
without it; `cli` imports this module only in `serve`, the five client
subcommands and `simulate --url`.

The server half serves an `AnnotationService` from one thread: one
`selectors` loop over non-blocking sockets buffers each request head to
its blank line, matches it whole, hands the target of a GET to
`handle_url` and writes the answer. Every answer is a page: a GET gets
the service's, and a refused head gets one page that holds an error
token (`badrequest`, `toolarge`, `badmethod` or `badversion`) and closes
its connection. There is no thread per connection; a connection idle for
IDLE_TIMEOUT_S is closed, and one the server closes lingers for at most
LINGER_S. It loads none of `http.server`, `http.client`,
`socketserver`, `email` or `ssl`. The client half, `HttpTransport`, has
the `get` method that `sim.Simulator` and `sim.fetch_body` send requests
through; the first transport made loads `http.client`. A request through
it fails in one of two ways: `Unreachable`, it never went out, or
`AnswerLost`, its answer is lost and the server may have applied it.
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
from urllib.parse import urlsplit

from .service import AnnotationService, Page

log = logging.getLogger(__name__)

IDLE_TIMEOUT_S = 30  # a connection that neither sends nor takes a byte for this long is closed
LINGER_S = 2  # after the server's last answer and its FIN, input is read and dropped for at most this long
REQUEST_TIMEOUT_S = 60  # HttpTransport gives up on a connect, or on a read of the answer, after this long


# -- server ----------------------------------------------------------------------


# The most bytes in a request head, its blank line included, and the most
# lines after its request line, the blank line again included.
MAX_HEAD = 65536
MAX_HEADER_LINES = 100

# The end of a head: a line end, then a blank line.
_HEAD_END = re.compile(rb"\n\r?\n")
# The blank lines a client may send before a request line.
_BLANK_LINES = re.compile(rb"(?:\r?\n)*")
# A whole head: a request line of three runs of visible ASCII, one space
# apart, the last an HTTP version; then header lines as RFC 9112 §5 writes
# them, a name of visible ASCII but the colon, the colon right after it and
# a value without CR or LF, at most MAX_HEADER_LINES - 1 of them; then the
# blank line. Every line ends in CRLF or LF.
_HEAD = re.compile(
    rb"([!-~]+) ([!-~]+) HTTP/([0-9]+\.[0-9]+)\r?\n((?:[!-9;-~]+:[^\r\n]*\r?\n){0,%d})\r?\n" % (MAX_HEADER_LINES - 1)
)
# The header fields that decide whether a connection stays open, in lowered header lines.
_KEEP_FIELDS = re.compile(rb"(?m)^(connection|content-length|transfer-encoding):[ \t]*([^\r\n]*)")
# The page of each refusal.
_REFUSALS = {
    status: Page(1, 1, token).encode()
    for status, token in ((400, b"badrequest"), (414, b"toolarge"), (431, b"toolarge"),
                          (501, b"badmethod"), (505, b"badversion"))
}

# The Server value http.server sends, and the reason phrases of this Python's HTTPStatus.
_SERVER = b"BaseHTTP/0.6 Python/" + sys.version.split()[0].encode("ascii")
_PHRASES = {status.value: status.phrase.encode("latin-1") for status in HTTPStatus}
_RESPONSE = (
    b"HTTP/1.1 %d %s\r\nServer: %s\r\nDate: %s\r\n"
    b"Content-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\n%s\r\n%s"
)
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
    """One client connection: the heads it has sent, and the bytes of answers its socket has not taken yet.

    A head is buffered until its blank line, then matched whole. Blank
    lines before its request line are skipped, as RFC 9112 §2.2 asks, but
    count toward MAX_HEAD; blank lines and then EOF get no answer. A GET
    whose version is HTTP/1.0 or HTTP/1.1 and whose header lines are all
    plain `name: value` lines gets the service's page. Any other head is
    refused with a page of its own and `Connection: close`:

    - no blank line within MAX_HEAD bytes: 414 `toolarge` if those bytes
      hold no line end, else 431 `toolarge`;
    - more than MAX_HEADER_LINES lines after the request line: 431 `toolarge`;
    - an HTTP version other than 1.0 and 1.1: 505 `badversion`;
    - a method other than GET: 501 `badmethod`;
    - any other head (an HTTP/0.9 request line, a folded or colon-less
      header line, a CR inside a line, extra words): 400 `badrequest`.

    A head cut short by EOF is closed without an answer. Of the header
    fields only the first `Connection`, `Content-Length` and
    `Transfer-Encoding` are read: HTTP/1.0 closes unless it asks for
    keep-alive, HTTP/1.1 stays open unless it asks to close, and a
    request that carries a body closes. A path that starts with `//` is
    read with one `/`, as http.server reads it.

    Pipelined heads are answered in order. Each answer is one `bytes` and
    goes out in one `send`; what the socket does not take waits for
    EVENT_WRITE, and no further head is read until it has gone.

    When the server closes a connection whose client has not shut its
    side, after a refusal or an answer that closes, it shuts its own
    side, then reads and drops what the client still sends until EOF or
    LINGER_S have passed (`lingering`). Closing with input unread would
    send an RST, which can make the client's kernel drop the last answer
    before it is read.
    """

    __slots__ = ("server", "sock", "deadline", "inbox", "searched", "eof", "outbox", "closing", "lingering")

    def __init__(self, server: HttpServer, sock: socket.socket, now: float) -> None:
        self.server, self.sock, self.deadline = server, sock, now + IDLE_TIMEOUT_S  # when the server closes it
        self.inbox, self.outbox = bytearray(), memoryview(b"")  # bytes not yet read as a head, and not yet sent
        self.searched = 0  # how many of the inbox's first bytes no end of a head starts in
        self.eof = False  # the client has shut its side, or the connection failed: close once the outbox is sent
        self.closing = False  # read no further head; once the outbox is sent, close or linger
        self.lingering = False  # the last answer and the server's FIN are out; input is dropped

    def ready(self, mask: int) -> None:
        """Take what the socket is ready for: send what waits, or read, then answer each head that has ended."""
        if mask & selectors.EVENT_WRITE:
            self.outbox = self.outbox[self.sock.send(self.outbox) :]
            if self.outbox:
                return
            self.server.selector.modify(self.sock, selectors.EVENT_READ, self)
        else:
            data = self.sock.recv(65536)
            self.eof = not data
            if self.lingering:
                return
            self.inbox += data
        inbox, pos = self.inbox, 0
        while not (self.outbox or self.closing):
            start = _BLANK_LINES.match(inbox, pos).end()
            end = _HEAD_END.search(inbox, max(start, pos + self.searched), pos + MAX_HEAD)
            if end:
                self.answer(inbox, start, end.end())
                pos, self.searched = end.end(), 0
            elif len(inbox) - pos >= MAX_HEAD:
                self.refuse(414 if inbox.find(b"\n", pos, pos + MAX_HEAD) < 0 else 431)
            else:  # a later end may start in the last two bytes; a head cut short by EOF gets no answer
                self.searched, self.closing = max(0, len(inbox) - pos - 2), self.eof
                break
        del inbox[:pos]

    def answer(self, inbox: bytearray, start: int, end: int) -> None:
        """Answer the head in inbox[start:end]: a GET with the service's page, any other with a refusal."""
        head = _HEAD.fullmatch(inbox, start, end)
        if head is None:  # the line limit is checked before the grammar, as the byte limit is
            return self.refuse(431 if inbox.count(b"\n", start, end) > 1 + MAX_HEADER_LINES else 400)
        if head[3] not in (b"1.0", b"1.1"):
            return self.refuse(505)
        if head[1] != b"GET":
            return self.refuse(501)
        fields = dict(reversed(_KEEP_FIELDS.findall(head[4].lower())))  # the first of each name counts
        connection = fields.get(b"connection")
        close = connection != b"keep-alive" if head[3] == b"1.0" else connection == b"close"
        # The protocol has no request bodies; one left unread would be
        # read as the next head, so such a connection is not reused.
        if fields.get(b"content-length", b"0").decode("latin-1").strip() != "0" or b"transfer-encoding" in fields:
            close = True
        path = head[2].decode("ascii")
        if path.startswith("//"):  # a client would read //host/path as another host
            path = "/" + path.lstrip("/")
        response = self.server.service.handle_url(path)
        self.respond(response.status, response.encode(), close)

    def refuse(self, status: int) -> None:
        """Answer a refused head with `status` and its page, and close."""
        self.respond(status, _REFUSALS[status], True)

    def respond(self, status: int, body: bytes, close: bool) -> None:
        """Send one answer; what the socket does not take waits for EVENT_WRITE."""
        connection = b"Connection: close\r\n" if close else b""
        data = _RESPONSE % (status, _PHRASES[status], _SERVER, self.server.date.value(), len(body), connection, body)
        try:
            sent = self.sock.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            self.outbox = memoryview(data)[sent:]
            self.server.selector.modify(self.sock, selectors.EVENT_WRITE, self)
        self.closing = close

    def linger(self, now: float) -> None:
        """Shut the server's side after its last answer, and drop what the client sends until EOF or LINGER_S."""
        self.sock.shutdown(socket.SHUT_WR)
        self.lingering, self.deadline = True, now + LINGER_S

    def close(self) -> None:
        self.server.selector.unregister(self.sock)
        with contextlib.suppress(OSError):  # the client is gone already
            self.sock.shutdown(socket.SHUT_WR)
        self.sock.close()


class HttpServer:
    """Serves an AnnotationService over HTTP/1.1 from the thread that runs serve_forever.

    It is bound to `host` and the service's port once made. Every answer
    is a page: a GET gets the service's, and any other head, or one over
    the limits, gets a refusal's page and `Connection: close`, as
    `_Connection` sets out. There is no HTTP/0.9 and no `100 Continue`.
    One selectors loop watches the listening socket and every connection,
    all non-blocking. A connection that neither sends nor takes a byte for
    IDLE_TIMEOUT_S is closed, judged by its last event's time; a client
    reconnects on its next request. A connection the server closes while
    its client's side is open lingers for at most LINGER_S, so that its
    last answer is not lost to an RST. TCP_NODELAY is still required, not a
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
                        idle_at = min(idle_at, key.data.deadline)  # a lingering connection's is sooner
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
        if not conn.lingering:
            conn.deadline = now + IDLE_TIMEOUT_S
        try:
            conn.ready(mask)
            if conn.closing and not conn.outbox and not (conn.eof or conn.lingering):
                conn.linger(now)
        except Exception as exc:  # a reset, or a fault in one request: that connection closes, the server serves on
            if not isinstance(exc, OSError):
                log.exception("http: error while serving a request")
            conn.eof, conn.outbox = True, memoryview(b"")
        if conn.eof and not conn.outbox:
            conn.close()

    def _close_idle(self, now: float) -> float:
        """Close each connection past its deadline, idle or done lingering; when the next may reach its own."""
        idle_at = math.inf
        for conn in self._connections():
            if now >= conn.deadline:
                conn.close()
            else:
                idle_at = min(idle_at, conn.deadline)
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


def serve(service: AnnotationService, host: str = "127.0.0.1") -> None:
    """Run the blocking server loop; reports the bound port on stderr first.

    Every mutation is already in the log when it is acknowledged, so
    nothing is written on the way out; the log descriptor is closed.
    """
    server = HttpServer(service, host)
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
    """The request never went out: no connection could be made, or http.client refused the URL."""


class AnswerLost(ConnectionError):
    """The request may have gone out, and its answer is lost: the server may or may not have applied it.

    The message is the `repr` of the error that lost it, which is also the `__cause__`.
    """


class HttpTransport:
    """Wire transport to a live server, one HTTP/1.1 connection per request.

    Each request goes out on a connection of its own, which is closed once
    the answer is read, and it is never sent twice: `/tag` and `/attach`
    are not idempotent. `get` raises one of two errors. Unreachable means
    the request never went out: the connection could not be made, or
    http.client refused the host or the target (InvalidURL) before
    sending a byte. AnswerLost means any later error, a reset, an answer
    cut short or one that is not HTTP. A connect or a read that waits
    longer than REQUEST_TIMEOUT_S fails the same way: the connect as
    Unreachable, the read as AnswerLost. The constructor raises
    http.client.InvalidURL for a URL that is not http://host[:port][/prefix].
    """

    def __init__(self, base_url: str):
        import http.client  # here, so that serving loads no client code

        split = urlsplit(base_url)
        if split.scheme != "http" or not split.netloc:
            raise http.client.InvalidURL(f"not an http URL: {base_url!r}")
        self._netloc = split.netloc
        self._prefix = split.path.rstrip("/")

    def get(self, path_query: str) -> tuple[int, bytes]:
        import http.client as client  # loaded by the constructor already

        try:
            conn = client.HTTPConnection(self._netloc, timeout=REQUEST_TIMEOUT_S)
        except client.InvalidURL as exc:  # a host or port it refuses
            raise Unreachable(f"{self._netloc!r}: {exc}") from exc
        with contextlib.closing(conn):
            try:
                conn.connect()
            except OSError as exc:
                raise Unreachable(f"{self._netloc!r}: {exc}") from exc
            try:
                conn.request("GET", self._prefix + path_query)
                response = conn.getresponse()
                return response.status, response.read()
            except (client.InvalidURL, UnicodeEncodeError) as exc:  # a target it refuses, before sending a byte
                raise Unreachable(f"{self._netloc!r}: {exc}") from exc
            except (OSError, client.HTTPException) as exc:
                raise AnswerLost(repr(exc)) from exc
