"""The GET protocol as its clients speak it, pinned.

Each client subcommand of `scotcloud` and each chat command of the
simulator must send the query written here, parameter for parameter and
in this order, and the client subcommands must keep the `--help` text of
the parser below, which spells each of them out by hand.
"""

import contextlib
import io
import uuid
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scotcloud import cli, sim, wire
from scotcloud.service import OPERATIONS, AnnotationService, paginate, request_from_url

from conftest import TAGGER

CLI_TAGGER = "cc81a37b-213a-5946-8376-1cbd190a0d03"
CLIENT_SUBCOMMANDS = ("tag", "cloud", "map", "attach", "export")


class _Recording:
    """Stands in for HttpTransport: records each query and answers it with one page."""

    sent: list[str] = []

    def __init__(self, base_url):
        pass

    def get(self, path_query):
        self.sent.append(path_query)
        answer = b"ok word 1" if path_query.startswith("/tag?") else b"body"
        return 200, paginate(answer, 2048)[0].encode()


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(_Recording, "sent", [])
    monkeypatch.setattr(wire, "HttpTransport", _Recording)
    return _Recording.sent


def test_the_client_defaults_are_pinned():
    assert str(cli.CLI_TAGGER) == CLI_TAGGER
    assert cli.DEFAULT_URL == "http://127.0.0.1:8765"


@pytest.mark.parametrize(
    "argv, query",
    [
        (["tag", "--resource", "mouse", "--tag", "laser"], f"/tag?resource=mouse&tag=laser&tagger={CLI_TAGGER}"),
        (
            ["tag", "--tagger", str(TAGGER), "--tag", "Café noir", "--resource", "my mouse"],
            f"/tag?resource=my+mouse&tag=Caf%C3%A9+noir&tagger={TAGGER}",
        ),
        (["cloud", "--resource", "mouse"], "/cloud?resource=mouse"),
        (["cloud", "--resource", "a/b&c=d"], "/cloud?resource=a%2Fb%26c%3Dd"),
        (["map", "--root", "shoe"], "/map?root=shoe&depth=1"),
        (["map", "--depth", "02", "--root", "Schuh ü"], "/map?root=Schuh+%C3%BC&depth=2"),
        (["map", "--root", "shoe", "--depth", "-3"], "/map?root=shoe&depth=-3"),
        (["attach", "--parent", "shoe", "--child", "rubber"], f"/attach?parent=shoe&child=rubber&tagger={CLI_TAGGER}"),
        (
            ["attach", "--child", "rubber sole", "--parent", "shoe", "--tagger", "x"],
            "/attach?parent=shoe&child=rubber+sole&tagger=x",
        ),
        (["export"], "/export"),
    ],
)
def test_each_client_subcommand_sends_its_query(capsys, recording, argv, query):
    assert cli.main([*argv, "--url", "http://127.0.0.1:9"]) == 0
    assert recording == [query]


def test_a_mutation_prints_its_answer_without_ok_and_a_document_goes_to_stdout(capsys, recording):
    for argv, out in [(["tag", "--resource", "m", "--tag", "word"], "word 1\n"), (["export"], "body")]:
        assert cli.main([*argv, "--url", "http://127.0.0.1:9"]) == 0
        assert capsys.readouterr().out == out


def _reference_parser() -> cli._Parser:
    """The parser of the client subcommands as first written: one block each, the rest by name only."""
    parser = cli._Parser(prog="scotcloud", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("serve", help="run the annotation server")

    p = sub.add_parser("tag", help="attach a tag to a resource")
    p.add_argument("--resource", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--tagger", default=CLI_TAGGER)
    p.add_argument("--url", default=None)

    p = sub.add_parser("cloud", help="fetch a resource's tag cloud as RDF/XML")
    p.add_argument("--resource", required=True)
    p.add_argument("--url", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("map", help="fetch a topic map as tree text")
    p.add_argument("--root", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--url", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("attach", help="bind a child concept under a parent")
    p.add_argument("--parent", required=True)
    p.add_argument("--child", required=True)
    p.add_argument("--tagger", default=CLI_TAGGER)
    p.add_argument("--url", default=None)

    p = sub.add_parser("export", help="download the full store as one RDF/XML document")
    p.add_argument("--url", default=None)
    p.add_argument("--out", default=None)

    sub.add_parser("import", help="rebuild a store directory from an exported document")
    sub.add_parser("simulate", help="replay a bot script through the client simulator")
    sub.add_parser("layout", help="emit a scene description for a cloud or topic map")
    return parser


def _help(parser: cli._Parser, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in CLIENT_SUBCOMMANDS)])
def test_help_text_is_the_hand_written_one(argv):
    text = _help(cli.build_parser(), argv)
    assert text.startswith("usage: scotcloud")
    assert text == _help(_reference_parser(), argv)


SENDER = uuid.UUID("00000000-0000-4000-8000-00000000beef")


@pytest.mark.parametrize(
    "chat, query",
    [
        ("tag mouse laser", f"/tag?resource=mouse&tag=laser&tagger={SENDER}"),
        ("tag  Maus  Läser", f"/tag?resource=Maus&tag=L%C3%A4ser&tagger={SENDER}"),
        ("cloud mouse", "/cloud?resource=mouse"),
        ("cloud a/b&c=d", "/cloud?resource=a%2Fb%26c%3Dd"),
        ("map shoe", "/map?root=shoe&depth=1"),
        ("map shoe 3", "/map?root=shoe&depth=3"),
        ("map schuh 007", "/map?root=schuh&depth=007"),
        ("attach shoe rubber", f"/attach?parent=shoe&child=rubber&tagger={SENDER}"),
    ],
)
def test_each_chat_command_sends_its_query(chat, query):
    simulator = sim.Simulator(AnnotationService())
    trace = simulator.post_chat(0, SENDER, chat)
    kind = chat.split()[0]
    assert trace[1:3] == [f"0 request -1 {kind} {query}", f"0 issue u1 {query}"]


_NAMES = ("resource", "tag", "tagger", "root", "depth", "parent", "child")
_VALUES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_NAMES), _VALUES), max_size=4), st.integers(0, 3))
def test_build_query_quotes_as_urlencode_does(params, page):
    query = urlencode(params + [("page", str(page))] if page else params)
    assert sim.build_query("op", params, page) == (f"/op?{query}" if query else "/op")


@pytest.mark.parametrize("operation", OPERATIONS)
@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUES, min_size=3, max_size=3), st.integers(0, 10**6))
def test_the_server_reads_back_what_the_client_sends(operation, values, page):
    params = list(zip(OPERATIONS[operation], values))
    read, read_params, read_page = request_from_url(sim.build_query(operation, params, page))
    assert (read, list(read_params.items()), read_page) == (operation, params, page)
