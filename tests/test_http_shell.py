"""The HTTP shell's own request parse and response head, against http.server's.

The server of `wire.make_http_server` reads request heads as their bytes
arrive, without http.server or the email package, and formats each
response in one piece. The reference here is the shell as http.server
builds it, on a `ThreadingHTTPServer`: `BaseHTTPRequestHandler.parse_request`,
which parses headers through `email.feedparser`, and
`send_response`/`send_header`. Both servers get the same raw bytes, whole
or one byte at a time, and must send back the same bytes, Date value
aside, and agree on whether the connection stays open, with two intended
differences:

- a head with a line that is not a plain `name: value` line is answered
  400 and closed (RFC 9112 §5.1 and §5.2), unless a 414, 431 or
  request-line error comes first;
- a refused version token on a request line of three or more words is
  answered with a status line and send_error's headers before the
  standard library's own HTML body, which http.server sends bare.
"""

import contextlib
import email.parser
import html
import http.client
import re
import socket
import threading
import time
from email.utils import formatdate
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from scotcloud import wire
from scotcloud.service import AnnotationService, ServiceConfig
from scotcloud.wire import make_http_server

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
    lean = make_http_server(_seeded())
    reference = ThreadingHTTPServer(("127.0.0.1", 0), type("Reference", (_Reference,), {"service": _seeded()}))
    with _running(lean) as lean_port, _running(reference) as reference_port:
        yield SimpleNamespace(
            lean=lean_port,
            reference=reference_port,
            handlers=(lean, reference.RequestHandlerClass),
            probe_answer=exchange(reference_port, b""),
        )


def exchange(port: int, head: bytes) -> bytes:
    """Send `head`, then PROBE; all the server sends until it closes, its Date values masked."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head + PROBE)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:  # a server that closes with input unread resets; what came first stays
            pass
    return _DATE.sub(b"\r\nDate: -", received)


_PLAIN = re.compile(rb"[!-9;-~]+:[^\r\n]*\r?\n")
# A first answer that send_error wrote, with or without its head: its code and its message.
_ERROR = re.compile(
    rb"(?:HTTP/1.1 [^\r\n]*\r\n(?:[^\r\n]+\r\n)*\r\n)?<!DOCTYPE.*?<p>Error code: (\d+)</p>\s*<p>Message: ([^<]*)\.</p>", re.S
)
# The errors http.server answers before what the header lines say counts: 414, 431 and a bad request line.
_PARSE_ERRORS = {b"400", b"414", b"431"}
_REFUSED_VERSION = (b"Bad request version ", b"Invalid HTTP version ")


def _header_lines(head: bytes) -> list[bytes]:
    lines = []
    for line in head.split(b"\n")[1:]:  # after the request line, up to the blank one
        if line in (b"", b"\r"):
            break
        lines.append(line + b"\n")
    return lines


def _error_head(code: int, message: str, length: int) -> bytes:
    """The head send_error writes before an error body of `length` bytes, its Date masked."""
    server = f"{BaseHTTPRequestHandler.server_version} {BaseHTTPRequestHandler.sys_version}"
    return (
        f"HTTP/1.1 {code} {message}\r\nServer: {server}\r\nDate: -\r\nConnection: close\r\n"
        f"Content-Type: {BaseHTTPRequestHandler.error_content_type}\r\nContent-Length: {length}\r\n\r\n"
    ).encode("latin-1")


_BAD_HEADER_LINE = (
    BaseHTTPRequestHandler.error_message_format
    % {"code": 400, "message": "Bad header line", "explain": BaseHTTPRequestHandler.responses[400][1]}
).encode("utf-8")


def assert_same_as_stdlib(servers, head: bytes) -> tuple[bytes, bool]:
    """Compare both servers on `head`; the shell's answer, and whether it kept the connection."""
    for handler in servers.handlers:  # the same store on both sides, whatever earlier heads did
        handler.service = _seeded()
    answer = servers.probe_answer
    lean, reference = exchange(servers.lean, head), exchange(servers.reference, head)
    error = _ERROR.match(reference)
    if error and error[2].startswith(_REFUSED_VERSION):
        # http.server sends a refused version's error bare; the shell puts a status line before the same body.
        message = html.unescape(error[2].decode("utf-8"))
        assert lean == _error_head(int(error[1]), message, len(reference)) + reference, (head, lean, reference)
    elif not all(_PLAIN.fullmatch(line) for line in _header_lines(head)) and not (error and error[1] in _PARSE_ERRORS):
        # A head with a line that is not a plain `name: value` line is answered 400 and closed,
        # with a status line unless the request line is HTTP/0.9's, and no body for HEAD.
        status = _error_head(400, "Bad header line", len(_BAD_HEADER_LINE)) if reference.startswith(b"HTTP/") else b""
        body = b"" if head.decode("iso-8859-1").split()[:1] == ["HEAD"] else _BAD_HEADER_LINE
        assert lean == status + body, (head, lean, reference)
    else:
        assert lean == reference, (head, lean, reference)
    lean_kept = lean.endswith(answer)
    return (lean[: -len(answer)] if lean_kept else lean), lean_kept


_METHODS = ["GET", "GET", "GET", "POST", "HEAD", "get", "G\xe9T"]
_PATHS = [
    "/cloud?resource=shoe",
    "//cloud?resource=shoe",
    "///map?root=shoe",
    f"/tag?resource=shoe&tag=red&tagger={TAGGER}",
    "/export?page=3",
    "/nowhere",
    "/cloud?resource=a%20b",
]
# Tokens that http.server reads alike in Python 3.10 and 3.11+; those it does not are fixed cases below.
_VERSIONS = ["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/01.01", "HTTP/2.0", "HTTP/3", "HTTP/1",
             "HTTP/1.1.1", "HTTX/1.1", "http/1.1", "HTTP/"]
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
    return "".join(line + end for line in [request_line, *lines, ""]).encode("iso-8859-1")


@settings(max_examples=300, deadline=None)
@given(heads())
def test_drawn_heads_are_answered_as_http_server_answers_them(servers, head):
    assert_same_as_stdlib(servers, head)


def _head(request_line: str, *lines: str) -> bytes:
    return "".join(f"{line}\r\n" for line in [request_line, *lines, ""]).encode("iso-8859-1")


_LONG = 65536  # http.server's limit on the request line and on each header line, in bytes

# (id, raw head, a piece of the shell's answer, whether it keeps the connection)
FIXED = [
    ("request-line-too-long", b"GET /" + b"a" * (_LONG - 4), b"HTTP/1.1 414 ", False),
    ("header-line-too-long", _head("GET /export HTTP/1.1")[:-2] + b"X: " + b"a" * (_LONG - 2),
     b"HTTP/1.1 431 Line too long\r\n", False),
    ("header-line-at-the-limit", _head("GET /export HTTP/1.1", "X: " + "a" * (_LONG - 5)), b"HTTP/1.1 200 ", True),
    ("101-head-lines", _head("GET /export HTTP/1.1", *["Host: x"] * 100), b"HTTP/1.1 431 Too many headers\r\n", False),
    ("100-head-lines", _head("GET /export HTTP/1.1", *["Host: x"] * 99), b"HTTP/1.1 200 ", True),
    # A refused version gets a status line; only a two-word HTTP/0.9 request line is answered bare.
    ("bad-version", _head("GET /export HTTX/1.1"), b"HTTP/1.1 400 Bad request version ('HTTX/1.1')\r\n", False),
    ("version-with-three-parts", _head("GET /export HTTP/1.1.1"),
     b"HTTP/1.1 400 Bad request version ('HTTP/1.1.1')\r\n", False),
    ("bad-syntax", _head("GET /export x HTTP/1.1"), b"<p>Message: Bad request syntax ('GET /export x", False),
    ("http-0.9-post", _head("POST /export"), b"<p>Message: Bad HTTP/0.9 request type ('POST').", False),
    ("http-2", _head("GET /export HTTP/2.0"), b"HTTP/1.1 505 Invalid HTTP version (2.0)\r\n", False),
    ("http-2-with-fold", _head("GET /export HTTP/2.0", "Host: x", " y"), b"HTTP/1.1 505 ", False),
    ("http-1.9", _head("GET /export HTTP/1.9"), b"HTTP/1.1 200 ", True),
    ("post", _head("POST /export HTTP/1.1"), b"HTTP/1.1 501 Unsupported method ('POST')", False),
    ("double-slash", _head("GET //cloud?resource=shoe HTTP/1.1"), b"HTTP/1.1 200 ", True),
    ("triple-slash", _head("GET ///cloud?resource=shoe HTTP/1.1"), b"HTTP/1.1 200 ", True),
    ("connection-close", _head("GET /export HTTP/1.1", "Connection: Close"), b"HTTP/1.1 200 ", False),
    ("connection-close-padded", _head("GET /export HTTP/1.1", "Connection: close "), b"HTTP/1.1 200 ", True),
    ("second-connection-field", _head("GET /export HTTP/1.1", "Connection: x", "Connection: close"),
     b"HTTP/1.1 200 ", True),
    ("http-1.0", _head("GET /export HTTP/1.0"), b"HTTP/1.1 200 ", False),
    ("http-1.0-keep-alive", _head("GET /export HTTP/1.0", "connection: KEEP-ALIVE"), b"HTTP/1.1 200 ", True),
    ("http-0.9", _head("GET /tag"), b"page 1/1 7\nmissing", False),
    ("http-0.9-keep-alive", _head("GET /tag", "Connection: keep-alive"), b"page 1/1 7\nmissing", True),
    ("expect-100", _head("GET /export HTTP/1.1", "Expect: 100-Continue"), b"HTTP/1.1 100 Continue\r\n\r\n", True),
    ("expect-100-http-1.0", _head("GET /export HTTP/1.0", "Expect: 100-continue"), b"HTTP/1.1 200 ", False),
    ("content-length", _head("GET /export HTTP/1.1", "Content-Length:  0 "), b"HTTP/1.1 200 ", True),
    ("body", _head("GET /export HTTP/1.1", "content-length: 5"), b"HTTP/1.1 200 ", False),
    ("chunked-body", _head("GET /export HTTP/1.1", "Transfer-Encoding: chunked"), b"HTTP/1.1 200 ", False),
    ("folded-line", _head("GET /export HTTP/1.1", "Host: x", " y"), b"HTTP/1.1 400 Bad header line\r\n", False),
    ("line-without-colon", _head("GET /export HTTP/1.1", "Host"), b"HTTP/1.1 400 ", False),
    ("space-before-colon", _head("GET /export HTTP/1.1", "Host : x"), b"HTTP/1.1 400 ", False),
    ("fold-hides-close", _head("GET /export HTTP/1.1", "Connection: close", " x"), b"HTTP/1.1 400 ", False),
    ("fold-keeps-expect", _head("GET /export HTTP/1.1", "Host: x", " y", "Expect: 100-continue"),
     b"HTTP/1.1 400 ", False),
    ("fold-spoils-expect", _head("GET /export HTTP/1.1", "Expect: 100-continue", "\ty"), b"HTTP/1.1 400 ", False),
    ("no-colon-ends-fields", _head("GET /export HTTP/1.1", "Host", "Expect: 100-continue"), b"HTTP/1.1 400 ", False),
    ("cr-splits-a-line", _head("GET /export HTTP/1.1", "A: b\rExpect: 100-continue"), b"HTTP/1.1 400 ", False),
    ("fold-in-101-head-lines", _head("GET /export HTTP/1.1", " y", *["Host: x"] * 99),
     b"HTTP/1.1 431 Too many headers\r\n", False),
    ("http-0.9-fold", _head("GET /tag", "Host: x", " y"), b"<p>Message: Bad header line.</p>", False),
    ("empty-request-line", b"\r\n", b"", False),
]


@pytest.mark.parametrize("head, piece, kept", [case[1:] for case in FIXED], ids=[case[0] for case in FIXED])
def test_limits_and_errors_are_answered_as_http_server_answers_them(servers, head, piece, kept):
    lean, lean_kept = assert_same_as_stdlib(servers, head)
    assert piece in lean
    assert lean_kept == kept


@pytest.mark.parametrize("version", ["HTTP/+1.1", "HTTP/1_1.1", "HTTP/1.00000000001", "HTTP/\xb2.1"])
def test_version_tokens_are_checked_as_python_3_11_checks_them(servers, version):
    # Python 3.10's http.server accepts the first three; 3.11 added the
    # digit and length checks, so the answer is stated here, not compared.
    lean = exchange(servers.lean, _head(f"GET /export {version}"))
    message = "Bad request version (%r)" % version
    assert lean.startswith(b"HTTP/1.1 400 %s\r\n" % message.encode("latin-1"))
    assert b"<p>Message: %s.</p>" % message.encode("utf-8") in lean
    assert not lean.endswith(servers.probe_answer)


@pytest.mark.parametrize("version, status", [("HTTP/2.0", 505), ("HTTX/1.1", 400)])
def test_http_client_reads_the_status_of_a_refused_version(servers, version, status):
    connection = http.client.HTTPConnection("127.0.0.1", servers.lean, timeout=10)
    connection._http_vsn_str = version  # the version token http.client writes on its request line
    try:
        connection.request("GET", "/export")
        response = connection.getresponse()  # raised BadStatusLine on a bare HTML body
        assert (response.status, response.getheader("Connection")) == (status, "close")
        assert b"<!DOCTYPE HTML" in response.read()
    finally:
        connection.close()


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


def test_the_error_page_is_http_servers():
    assert wire._ERROR_PAGE == BaseHTTPRequestHandler.error_message_format
    assert wire._SERVER.decode("ascii") == f"{BaseHTTPRequestHandler.server_version} {BaseHTTPRequestHandler.sys_version}"


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


_FIXED = {case[0]: case[1] for case in FIXED}
# Limit cases, and heads whose answer each part of the request line and head decides.
_IN_PIECES = ["request-line-too-long", "header-line-too-long", "101-head-lines", "100-head-lines", "bad-version",
              "http-2", "post", "http-0.9", "http-0.9-keep-alive", "expect-100", "body", "folded-line",
              "empty-request-line", "connection-close"]
# Pairs of heads that both servers answer alike, sent in one send.
_PIPELINED = [("double-slash", "http-1.0-keep-alive"), ("expect-100", "post"), ("http-1.9", "connection-close"),
              ("content-length", "101-head-lines"), ("http-0.9-keep-alive", "http-1.0")]


def _reset(servers) -> None:
    for handler in servers.handlers:  # the same store on both sides, whatever earlier heads did
        handler.service = _seeded()


@pytest.mark.parametrize("name", _IN_PIECES)
def test_a_head_sent_a_byte_at_a_time_is_answered_as_when_sent_whole(servers, name):
    assert_same_as_stdlib(servers, _FIXED[name])
    _reset(servers)
    whole = exchange(servers.lean, _FIXED[name])
    _reset(servers)
    assert exchange_in_pieces(servers.lean, _FIXED[name]) == whole


@settings(max_examples=40, deadline=None)
@given(heads())
def test_drawn_heads_sent_a_byte_at_a_time_are_answered_as_when_sent_whole(servers, head):
    assert_same_as_stdlib(servers, head)
    _reset(servers)
    whole = exchange(servers.lean, head)
    _reset(servers)
    assert exchange_in_pieces(servers.lean, head) == whole


@pytest.mark.parametrize("first, second", _PIPELINED, ids=["+".join(pair) for pair in _PIPELINED])
def test_two_heads_in_one_send_are_answered_in_order_as_http_server_answers_them(servers, first, second):
    head = _FIXED[first] + _FIXED[second]
    assert_same_as_stdlib(servers, head)
    _reset(servers)
    whole = exchange(servers.lean, head)
    _reset(servers)
    assert exchange_in_pieces(servers.lean, head) == whole


# Heads that the client cuts short by shutting its side, and the start and
# end of the answer: what has arrived is read as lines, the end of input
# ending the last line and the head. A last line without its LF is not a
# plain `name: value` line. The answer is the same however the bytes arrive.
_CUT = [
    (b"GET /tag", b"page 1/1 7\nmissing", b"page 1/1 7\nmissing"),
    (b"GET /export HTTP/1.1\r\n", b"HTTP/1.1 200 OK\r\n", b"</rdf:RDF>\n"),
    (b"GET /export HTTP/1.1\r\nHost: x", b"HTTP/1.1 400 Bad header line\r\n", b"</html>\n"),
    (b"GET /export HTTP/1.1\r\n\r\nGET /tag", b"HTTP/1.1 200 OK\r\n", b"</rdf:RDF>\npage 1/1 7\nmissing"),
]


@pytest.mark.parametrize("head, start, end", _CUT)
def test_a_head_cut_short_is_answered_as_far_as_it_goes(servers, head, start, end):
    whole = exchange_in_pieces(servers.lean, head, size=len(head), then=b"")
    assert whole.startswith(start) and whole.endswith(end)
    assert exchange_in_pieces(servers.lean, head, then=b"") == whole
