"""The HTTP shell's request heads and answers, against http.server's.

`wire.HttpServer` buffers each request head to its blank line and matches
it whole, without http.server or the email package, and formats each
answer in one piece. A head is well-formed when its request line is
`GET <target> HTTP/1.0` or `HTTP/1.1`, one space between the words and
the target visible ASCII; when every header line is a plain `name: value`
line; when each line ends in CRLF or LF; and when it keeps within 65536
bytes and 100 lines after its request line. Blank lines before the
request line are skipped, but count toward the 65536 bytes. `_refusal`
below says so, written with splits, apart from the shell's own regex.

The reference for a well-formed head is the shell as http.server builds
it, on a `ThreadingHTTPServer`: `BaseHTTPRequestHandler.parse_request`,
which parses headers through `email.feedparser`, and
`send_response`/`send_header`. Both servers get the same raw bytes, whole,
one byte at a time or pipelined, and must send back the same bytes, Date
values aside, and agree on whether the connection stays open; the one
intended difference is http.server's interim `100 Continue`, which the
shell does not send. http.server closes a connection at a blank line
before a request line, so it is given each head without those. Any other
head is refused with its status, a page that holds its error token, and
`Connection: close`.
"""

import contextlib
import email.parser
import http.client
import re
import socket
import threading
import time
from email.utils import formatdate
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from scotcloud import wire
from scotcloud.service import AnnotationService, Page, ServiceConfig
from scotcloud.wire import HttpServer

from conftest import TAGGER


class _StdlibShell:
    """http.server's parse and response head, with the shell's GET logic on top."""

    parse_request = BaseHTTPRequestHandler.parse_request

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.headers.get("Content-Length", "0").strip() != "0" or "Transfer-Encoding" in self.headers:
            self.close_connection = True
        response = self.service.handle_url(self.path)
        raw = response.encode()
        self.send_response(response.status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(raw)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)


@contextlib.contextmanager
def _running(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


# Sent after every head: it is answered only on a connection that stayed open.
PROBE = b"GET /cloud?resource=probe HTTP/1.1\r\n\r\n"
_DATE = re.compile(rb"\r\nDate: [^\r\n]*")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"  # http.server's interim answer to Expect: 100-continue
_SERVER_VALUE = f"{BaseHTTPRequestHandler.server_version} {BaseHTTPRequestHandler.sys_version}".encode("ascii")


def _seeded() -> AnnotationService:
    service = AnnotationService(ServiceConfig(port=0))
    assert service.handle_url(f"/tag?resource=shoe&tag=red&tagger={TAGGER}").ok
    return service


class _Reference(_StdlibShell, BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass


@pytest.fixture(scope="module")
def servers():
    """A server with the shell and one with the reference: their ports, the objects whose
    `service` each answers from, and the answer to PROBE."""
    lean = HttpServer(_seeded(), "127.0.0.1")
    reference = ThreadingHTTPServer(("127.0.0.1", 0), type("Reference", (_Reference,), {"service": _seeded()}))
    with _running(lean) as lean_port, _running(reference) as reference_port:
        yield SimpleNamespace(
            lean=lean_port,
            reference=reference_port,
            handlers=(lean, reference.RequestHandlerClass),
            probe_answer=exchange(reference_port, b""),
        )


def _reset(servers) -> None:
    for handler in servers.handlers:  # the same store on both sides, whatever earlier heads did
        handler.service = _seeded()


def exchange(port: int, head: bytes, then: bytes = PROBE) -> bytes:
    """Send `head`, then `then`; all the server sends until it closes, its Date values masked."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(head + then)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server refused the head and closed before its end
            pass
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:  # a server that closes with input unread resets; what came first stays
            pass
    return _DATE.sub(b"\r\nDate: -", received)


_LONG = 65536  # the most bytes in a head, its blank line included
_VISIBLE = frozenset(range(0x21, 0x7F))
_NAME = _VISIBLE - {ord(":")}


def _plain(line: bytes) -> bool:
    """Whether `line`, without its line end, is a `name: value` line: a name of visible ASCII, then a colon, then no CR."""
    name, colon, value = line.partition(b":")
    return bool(colon and name) and set(name) <= _NAME and b"\r" not in value


def _unpadded(head: bytes) -> bytes:
    """`head` from its request line on, without the blank lines before it."""
    lines = head.split(b"\n")
    return b"\n".join(lines[next(i for i, line in enumerate(lines) if line not in (b"", b"\r")) :])


def _refusal(head: bytes) -> Optional[tuple[int, bytes]]:
    """The status and error token the shell refuses `head` with, or None for a well-formed GET.

    `head` runs from the blank lines before its request line to its first
    blank line after that."""
    if len(head) > _LONG:
        return (414 if b"\n" not in head[:_LONG] else 431), b"toolarge"
    lines = [line.removesuffix(b"\r") for line in _unpadded(head).split(b"\n")[:-1]]  # the last is the blank line
    if len(lines) - 1 > 100:
        return 431, b"toolarge"
    words = lines[0].split(b" ")
    numbers = words[-1].removeprefix(b"HTTP/").split(b".")
    if not (
        len(words) == 3
        and all(word and set(word) <= _VISIBLE for word in words)
        and words[-1].startswith(b"HTTP/")
        and len(numbers) == 2
        and all(number.isdigit() for number in numbers)
        and all(_plain(line) for line in lines[1:-1])
    ):
        return 400, b"badrequest"
    if words[-1] not in (b"HTTP/1.0", b"HTTP/1.1"):
        return 505, b"badversion"
    if words[0] != b"GET":
        return 501, b"badmethod"
    return None


def _heads(sent: bytes) -> list[bytes]:
    """The heads in `sent`, each from the blank lines before its request line to the blank line that
    ends it; bytes after the last such blank line are left out."""
    heads, lines, requested = [], [], False
    for line in sent.split(b"\n")[:-1]:
        lines.append(line + b"\n")
        if line not in (b"", b"\r"):
            requested = True
        elif requested:
            heads.append(b"".join(lines))
            lines, requested = [], False
    return heads


def _refused(status: int, token: bytes) -> bytes:
    """The shell's answer to a head it refuses, its Date masked."""
    page = Page(1, 1, token).encode()
    return (
        b"HTTP/1.1 %d %s\r\nServer: %s\r\nDate: -\r\nContent-Type: text/plain; charset=utf-8\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    ) % (status, BaseHTTPRequestHandler.responses[status][0].encode("latin-1"), _SERVER_VALUE, len(page), page)


def assert_answered_as_expected(servers, sent: bytes) -> tuple[bytes, bool]:
    """Send `sent`, then PROBE, to the shell: its well-formed heads must be answered as http.server answers
    them, up to the first refused one, which gets its refusal. The shell's answer, and whether it kept the connection."""
    _reset(servers)
    lean = exchange(servers.lean, sent)
    heads = _heads(sent + PROBE)
    refused = next((i for i, head in enumerate(heads) if _refusal(head)), None)
    if refused is None:
        expected = exchange(servers.reference, b"".join(map(_unpadded, heads)), then=b"")
    else:
        expected = exchange(servers.reference, b"".join(map(_unpadded, heads[:refused])), then=b"")
        if b"\r\nConnection: close\r\n" not in expected:  # no answer before it closed the connection
            expected += _refused(*_refusal(heads[refused]))
    expected = expected.replace(_CONTINUE, b"")
    assert lean == expected, (sent, lean, expected)
    kept = lean.endswith(servers.probe_answer)
    return (lean[: -len(servers.probe_answer)] if kept else lean), kept


_METHODS = ["GET", "GET", "GET", "POST", "HEAD", "get", "G\xe9T"]
_PATHS = [
    "/cloud?resource=shoe",
    "//cloud?resource=shoe",
    "///map?root=shoe",
    f"/tag?resource=shoe&tag=red&tagger={TAGGER}",
    "/export?page=3",
    "/nowhere",
    "/cloud?resource=a%20b",
    "/caf\xe9",
]
_VERSIONS = ["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/01.01", "HTTP/2.0", "HTTP/3", "HTTP/1",
             "HTTP/1.1.1", "HTTX/1.1", "http/1.1", "HTTP/", "HTTP/+1.1", "HTTP/1.00000000001"]
_SEPARATORS = [" ", " ", "  ", "\t", "\xa0", "\x85"]
# Field names, each with values that the shell reads differently, or that it must not.
_FIELDS = {
    "Connection": ["close", "keep-alive", "Keep-Alive", "close ", "\tclose", "x", ""],
    "Content-Length": ["0", " 0 ", "00", "5", ""],
    "Transfer-Encoding": ["chunked", ""],
    "Expect": ["100-continue", "100-Continue", "100-continue ", "x"],
    "Host": ["127.0.0.1", "\xe9"],
}
_ODD_LINES = [" folded", "\tclose", "NoColon", ":no-name", "From x", "From: x", "Bad Name: close",
              "A: b\rConnection: close", "Connection: keep-alive\r", "X\xe9: y", "\rConnection: close"]


@st.composite
def request_lines(draw) -> str:
    words = [draw(st.sampled_from(_METHODS)), draw(st.sampled_from(_PATHS)), draw(st.sampled_from(_VERSIONS))]
    words = words[: draw(st.sampled_from([3, 3, 3, 2, 1]))] + draw(st.lists(st.just("x"), max_size=1))
    return draw(st.sampled_from(_SEPARATORS)).join(words)


@st.composite
def heads(draw) -> bytes:
    # Mostly a request line that is accepted, so that the header lines decide the answer.
    accepted = st.builds("GET {} HTTP/1.{}".format, st.sampled_from(_PATHS), st.sampled_from("1110"))
    request_line = draw(st.one_of(accepted, accepted, request_lines()))
    plain = st.sampled_from(sorted(_FIELDS)).flatmap(
        lambda name: st.builds(
            "{}{}{}".format,
            st.sampled_from([name, name.lower(), name.upper()]),
            st.sampled_from([": ", ":", ":\t", ":  "]),
            st.sampled_from(_FIELDS[name]),
        )
    )
    lines = draw(st.lists(st.one_of(plain, plain, plain, st.sampled_from(_ODD_LINES)), max_size=5))
    end = draw(st.sampled_from(["\r\n", "\r\n", "\n"]))
    blank = draw(st.sampled_from(["", "", "", "", "\r\n", "\n", "\r\n\n"]))  # skipped before the request line
    return (blank + "".join(line + end for line in [request_line, *lines, ""])).encode("iso-8859-1")


@settings(max_examples=300, deadline=None)
@given(heads())
def test_drawn_heads_are_answered_as_http_server_answers_them_or_refused(servers, head):
    assert_answered_as_expected(servers, head)


def _head(request_line: str, *lines: str) -> bytes:
    return "".join(f"{line}\r\n" for line in [request_line, *lines, ""]).encode("iso-8859-1")


def _padded(size: int) -> bytes:
    """A GET of /export whose head, one long header line in it, is `size` bytes."""
    short = _head("GET /export HTTP/1.1", "X: ")
    return _head("GET /export HTTP/1.1", "X: " + "a" * (size - len(short)))


# (id, raw head, the status of the shell's answer, the error token of a refusal, whether the connection closes).
# A status of None is a head cut short by EOF: nothing after the heads before it is answered.
TABLE = [
    ("head-over-the-limit-without-a-line-end", b"GET /" + b"a" * (_LONG - 4), 414, b"toolarge", True),
    ("head-over-the-limit", _padded(_LONG + 1), 431, b"toolarge", True),
    ("head-at-the-limit", _padded(_LONG), 200, None, False),
    ("101-head-lines", _head("GET /export HTTP/1.1", *["Host: x"] * 100), 431, b"toolarge", True),
    ("100-head-lines", _head("GET /export HTTP/1.1", *["Host: x"] * 99), 200, None, False),
    ("fold-in-101-head-lines", _head("GET /export HTTP/1.1", " y", *["Host: x"] * 99), 431, b"toolarge", True),
    ("http-2", _head("GET /export HTTP/2.0"), 505, b"badversion", True),
    ("http-1.9", _head("GET /export HTTP/1.9"), 505, b"badversion", True),
    ("http-0.9-token", _head("GET /export HTTP/0.9"), 505, b"badversion", True),
    ("leading-zeros", _head("GET /export HTTP/01.01"), 505, b"badversion", True),
    ("eleven-digits", _head("GET /export HTTP/1.00000000001"), 505, b"badversion", True),
    ("post-http-2", _head("POST /export HTTP/2.0"), 505, b"badversion", True),
    ("post", _head("POST /export HTTP/1.1"), 501, b"badmethod", True),
    ("head", _head("HEAD /export HTTP/1.1"), 501, b"badmethod", True),
    ("lowercase-get", _head("get /export HTTP/1.0"), 501, b"badmethod", True),
    ("bad-version", _head("GET /export HTTX/1.1"), 400, b"badrequest", True),
    ("version-with-three-parts", _head("GET /export HTTP/1.1.1"), 400, b"badrequest", True),
    ("version-with-a-sign", _head("GET /export HTTP/+1.1"), 400, b"badrequest", True),
    ("version-with-an-underscore", _head("GET /export HTTP/1_1.1"), 400, b"badrequest", True),
    ("version-with-a-superscript", _head("GET /export HTTP/\xb2.1"), 400, b"badrequest", True),
    ("bad-syntax", _head("GET /export x HTTP/1.1"), 400, b"badrequest", True),
    ("two-spaces", _head("GET  /export HTTP/1.1"), 400, b"badrequest", True),
    ("latin-1-target", _head("GET /caf\xe9 HTTP/1.1"), 400, b"badrequest", True),
    ("http-0.9", _head("GET /tag"), 400, b"badrequest", True),
    ("http-0.9-post", _head("POST /export"), 400, b"badrequest", True),
    ("http-0.9-fold", _head("GET /tag", "Host: x", " y"), 400, b"badrequest", True),
    ("http-2-with-fold", _head("GET /export HTTP/2.0", "Host: x", " y"), 400, b"badrequest", True),
    ("folded-line", _head("GET /export HTTP/1.1", "Host: x", " y"), 400, b"badrequest", True),
    ("line-without-colon", _head("GET /export HTTP/1.1", "Host"), 400, b"badrequest", True),
    ("space-before-colon", _head("GET /export HTTP/1.1", "Host : x"), 400, b"badrequest", True),
    ("fold-hides-close", _head("GET /export HTTP/1.1", "Connection: close", " x"), 400, b"badrequest", True),
    ("cr-splits-a-line", _head("GET /export HTTP/1.1", "A: b\rExpect: 100-continue"), 400, b"badrequest", True),
    ("blank-line-before-the-request-line", b"\r\n" + _head("GET /export HTTP/1.1"), 200, None, False),
    ("blank-lines-before-the-request-line", b"\n\r\n\n" + _head("GET /export HTTP/1.1"), 200, None, False),
    ("blank-line-and-head-at-the-limit", b"\r\n" + _padded(_LONG - 2), 200, None, False),
    ("blank-line-and-head-over-the-limit", b"\r\n" + _padded(_LONG - 1), 431, b"toolarge", True),
    ("blank-lines-over-the-limit", b"\r\n" * (_LONG // 2) + _head("GET /export HTTP/1.1"), 431, b"toolarge", True),
    ("cr-before-the-request-line", b"\r" + _head("GET /export HTTP/1.1"), 400, b"badrequest", True),
    ("double-slash", _head("GET //cloud?resource=shoe HTTP/1.1"), 200, None, False),
    ("triple-slash", _head("GET ///cloud?resource=shoe HTTP/1.1"), 200, None, False),
    ("lf-only", b"GET /export HTTP/1.1\nHost: x\n\n", 200, None, False),
    ("connection-close", _head("GET /export HTTP/1.1", "Connection: Close"), 200, None, True),
    ("connection-close-padded", _head("GET /export HTTP/1.1", "Connection: close "), 200, None, False),
    ("second-connection-field", _head("GET /export HTTP/1.1", "Connection: x", "Connection: close"), 200, None, False),
    ("http-1.0", _head("GET /export HTTP/1.0"), 200, None, True),
    ("http-1.0-keep-alive", _head("GET /export HTTP/1.0", "connection: KEEP-ALIVE"), 200, None, False),
    ("expect-100", _head("GET /export HTTP/1.1", "Expect: 100-Continue"), 200, None, False),
    ("expect-100-http-1.0", _head("GET /export HTTP/1.0", "Expect: 100-continue"), 200, None, True),
    ("content-length", _head("GET /export HTTP/1.1", "Content-Length:  0 "), 200, None, False),
    ("body", _head("GET /export HTTP/1.1", "content-length: 5"), 200, None, True),
    ("chunked-body", _head("GET /export HTTP/1.1", "Transfer-Encoding: chunked"), 200, None, True),
    ("cut-request-line", b"GET /tag", None, None, True),
    ("cut-after-the-request-line", b"GET /export HTTP/1.1\r\n", None, None, True),
    ("cut-header-line", b"GET /export HTTP/1.1\r\nHost: x", None, None, True),
    ("cut-second-head", b"GET /export HTTP/1.1\r\n\r\nGET /tag", None, None, True),
    ("empty-request-line", b"\r\n", None, None, True),
]


@pytest.mark.parametrize("head, status, token, closes", [case[1:] for case in TABLE], ids=[case[0] for case in TABLE])
def test_each_head_in_the_table_gets_its_status_token_and_close(servers, head, status, token, closes):
    if status is None:  # the heads before the cut are answered, and nothing more
        _reset(servers)
        whole = exchange(servers.lean, head, then=b"")
        assert whole == exchange(servers.lean, b"".join(_heads(head)), then=b"")
        assert exchange_in_pieces(servers.lean, head, then=b"") == whole
        return
    answer, kept = assert_answered_as_expected(servers, head)
    assert answer.startswith(b"HTTP/1.1 %d " % status)
    assert _CONTINUE not in answer
    if token:
        assert answer.endswith(b"\r\nConnection: close\r\n\r\n" + Page(1, 1, token).encode())
    assert kept != closes


_REFUSED = [case for case in TABLE if case[3]]


@pytest.mark.parametrize("head, status, token", [case[1:4] for case in _REFUSED], ids=[case[0] for case in _REFUSED])
def test_http_client_reads_every_refusal(servers, head, status, token):
    with socket.create_connection(("127.0.0.1", servers.lean), timeout=10) as sock:
        with contextlib.suppress(OSError):  # the server refused the head and closed before its end
            sock.sendall(head + PROBE)
        response = http.client.HTTPResponse(sock, method="GET")
        try:
            response.begin()
            assert (response.status, response.getheader("Connection")) == (status, "close")
            assert response.read() == Page(1, 1, token).encode()
        finally:
            response.close()


def _read_response(sock: socket.socket, buffered: bytes) -> tuple[bytes, bytes, bytes]:
    """(head, body, bytes past the body) of the next response on `sock`."""
    while b"\r\n\r\n" not in buffered:
        chunk = sock.recv(65536)
        assert chunk, "the server closed the connection"
        buffered += chunk
    head, _, rest = buffered.partition(b"\r\n\r\n")
    length = int(re.search(rb"\r\nContent-Length: (\d+)", head)[1])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "the server closed the connection"
        rest += chunk
    return head, rest[:length], rest[length:]


def test_kept_alive_tags_and_clouds_never_run_the_email_parser(servers, monkeypatch):
    parsed = []
    real = email.parser.Parser.parsestr

    def spy(self, *args, **kwargs):
        parsed.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(email.parser.Parser, "parsestr", spy)
    with socket.create_connection(("127.0.0.1", servers.lean), timeout=10) as sock:
        buffered = b""
        for i in range(200):
            path = f"/tag?resource=spied&tag=t&tagger={TAGGER}" if i % 2 else "/cloud?resource=spied"
            sock.sendall(b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept-Encoding: identity\r\n\r\n" % path.encode())
            head, _, buffered = _read_response(sock, buffered)
            assert head.startswith(b"HTTP/1.1 200 OK\r\n"), head
            assert b"Connection: close" not in head
    assert parsed == []
    exchange(servers.reference, _head("GET /export HTTP/1.1"))  # the spy sees http.server's parse
    assert parsed


def test_date_is_formatted_once_a_second(monkeypatch):
    clock = [1_000_000.25]
    formatted = []
    monkeypatch.setattr(wire, "time", SimpleNamespace(time=lambda: clock[0], gmtime=time.gmtime))
    real = wire._http_date
    monkeypatch.setattr(wire, "_http_date", lambda seconds: formatted.append(seconds) or real(seconds))
    date = wire._DateHeader()
    first = date.value()
    assert first == formatdate(clock[0], usegmt=True).encode("ascii")  # what http.server would send
    clock[0] = 1_000_000.99
    assert date.value() == first
    clock[0] = 1_000_001.0
    assert date.value() == formatdate(clock[0], usegmt=True).encode("ascii") != first
    assert len(formatted) == 2


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**33))
def test_the_date_is_formatted_as_email_utils_formats_it(seconds):
    assert wire._http_date(seconds) == formatdate(seconds, usegmt=True).encode("ascii")


def test_the_server_value_is_http_servers():
    assert wire._SERVER == _SERVER_VALUE


def exchange_in_pieces(port: int, head: bytes, size: int = 1, then: bytes = PROBE) -> bytes:
    """As `exchange`, but `head` goes out `size` bytes per send, and `then` after it."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for start in range(0, len(head), size):
                sock.sendall(head[start : start + size])
            sock.sendall(then)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server refused the head and closed before its end
            pass
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass
    return _DATE.sub(b"\r\nDate: -", received)


_TABLE = {case[0]: case[1] for case in TABLE}
# Limit cases, and heads whose answer each part of the request line and head decides.
_IN_PIECES = ["head-over-the-limit-without-a-line-end", "head-over-the-limit", "101-head-lines", "100-head-lines",
              "bad-version", "http-2", "post", "http-0.9", "expect-100", "body", "folded-line", "empty-request-line",
              "connection-close", "lf-only", "blank-line-before-the-request-line",
              "blank-lines-before-the-request-line"]
# Pairs of heads sent in one send: both well-formed, or one of them refused.
_PIPELINED = [("double-slash", "http-1.0-keep-alive"), ("expect-100", "post"), ("http-2", "connection-close"),
              ("content-length", "101-head-lines"), ("lf-only", "http-1.0"), ("second-connection-field", "folded-line"),
              ("lf-only", "blank-line-before-the-request-line"), ("blank-line-before-the-request-line", "post")]


@pytest.mark.parametrize("name", _IN_PIECES)
def test_a_head_sent_a_byte_at_a_time_is_answered_as_when_sent_whole(servers, name):
    assert_answered_as_expected(servers, _TABLE[name])
    _reset(servers)
    whole = exchange(servers.lean, _TABLE[name])
    _reset(servers)
    assert exchange_in_pieces(servers.lean, _TABLE[name]) == whole


@settings(max_examples=40, deadline=None)
@given(heads())
def test_drawn_heads_sent_a_byte_at_a_time_are_answered_as_when_sent_whole(servers, head):
    assert_answered_as_expected(servers, head)
    _reset(servers)
    whole = exchange(servers.lean, head)
    _reset(servers)
    assert exchange_in_pieces(servers.lean, head) == whole


@pytest.mark.parametrize("first, second", _PIPELINED, ids=["+".join(pair) for pair in _PIPELINED])
def test_two_heads_in_one_send_are_answered_in_order(servers, first, second):
    head = _TABLE[first] + _TABLE[second]
    assert_answered_as_expected(servers, head)
    _reset(servers)
    whole = exchange(servers.lean, head)
    _reset(servers)
    assert exchange_in_pieces(servers.lean, head) == whole


@pytest.mark.parametrize("name", ["head-over-the-limit-without-a-line-end", "head-over-the-limit"])
def test_a_client_that_sends_past_a_refusal_reads_it_whole_then_eof(servers, name):
    head = _TABLE[name]
    status = next(case[2] for case in TABLE if case[0] == name)
    assert len(head) == _LONG + 1  # refused at its 65,536th byte
    with socket.create_connection(("127.0.0.1", servers.lean), timeout=10) as sock:
        sock.sendall(head[:_LONG])
        received = sock.recv(65536)  # the refusal has begun: the server reads no further head
        sock.sendall(head[_LONG:])  # had the server closed, this byte would draw an RST
        sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            received += chunk
    assert _DATE.sub(b"\r\nDate: -", received) == _refused(status, b"toolarge")


def test_a_connection_lingers_for_linger_s_at_most(servers, monkeypatch):
    monkeypatch.setattr(wire, "LINGER_S", 0.3)
    with socket.create_connection(("127.0.0.1", servers.lean), timeout=10) as sock:
        sock.sendall(_TABLE["post"])
        start = time.perf_counter()
        received = b""
        while chunk := sock.recv(65536):  # the refusal, then the server's FIN at once
            received += chunk
        assert _DATE.sub(b"\r\nDate: -", received) == _refused(501, b"badmethod")
        sock.sendall(PROBE)  # read and dropped: no answer comes
        with pytest.raises(OSError):  # once the server has closed, a byte draws an RST, and the next send fails
            while time.perf_counter() - start < 5:
                sock.sendall(b"x")
                time.sleep(0.02)
        assert 0.3 <= time.perf_counter() - start < 2
