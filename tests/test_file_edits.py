"""No byte of a file the program reads ends in a traceback.

Each of four real files, as the program writes or documents them, gets one
to four byte edits drawn by Hypothesis, and goes through its readers in
process. A reader may take the edited file or refuse it, but only with its
own documented errors:

- an export, through `rdfxml.parse` and `store_from_graph`: `RdfParseError`
  or `CloudShapeError`;
- an `events.log`, through `restore_store`: `StoreLoadError`;
- a bot script, through `parse_script` and `Simulator.run`:
  `ScriptFormatError`. Bytes that are not UTF-8 are refused before the
  parser, as `scotcloud simulate` refuses them;
- a config file, through `load_config`: `ValueError`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scotcloud import model, rdfxml, sim
from scotcloud.service import AnnotationService, ServiceConfig, StoreLoadError, load_config, restore_store

from conftest import TAGGER, fetch_full, seed_mouse

OTHER = "11111111-2222-4333-8444-555566667777"

SCRIPT = f"""# two avatars: tags, a tree, and the reads of both
@0 0 {TAGGER} tag mouse laser
@10 0 {TAGGER} tag mouse Optical
@20 0 {OTHER} attach shoe rubber
@30 0 {OTHER} attach rubber sole
@40 0 {TAGGER} cloud mouse
@50 0 {OTHER} map shoe 2
@60 -3 {OTHER} hello, anyone there?
@70 0 {TAGGER} help
@70 0 {OTHER} tag shoe rubber
""".encode()

CONFIG = b"""# scotcloud serve --config
port=8765
store=/var/lib/scotcloud
base_uri=http://yourdns.com
page_cap=2048
rate_limit_max=25
rate_limit_window_ms=20000
"""

HEAD = 64
# Bytes that carry the formats' structure, drawn as often as all the others.
_BYTES = st.one_of(st.sampled_from(b"\n\r\t <>/=\"'&;#@:%?.-0129"), st.integers(0, 255))


@st.composite
def edited(draw, data: bytes) -> bytes:
    """`data` after one to four edits, each of which replaces, inserts or deletes a byte at a drawn offset.

    Half the offsets fall in the first HEAD bytes, which hold what a reader
    decides most by: an XML declaration, a file's first line.
    """
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.one_of(st.integers(0, min(HEAD, len(out))), st.integers(0, len(out))))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert":
            out.insert(at, draw(_BYTES))
        elif at < len(out):
            if edit == "delete":
                del out[at]
            else:
                out[at] = draw(_BYTES)
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, bytes]:
    """The real files: a served store's export and log, a bot script and a config file."""
    live = tmp_path_factory.mktemp("live")
    service = AnnotationService(ServiceConfig(store_path=str(live)), now_ms=lambda: 1_700_000_000_000)
    seed_mouse(service)
    for target in (
        "/tag?resource=caf%C3%A9&tag=c%2B%2B%20100%25",
        "/tag?resource=http://example.org/a%E2%80%A8b&tag=optical",
        "/attach?parent=shoe&child=rubber",
        "/attach?parent=rubber&child=sole",
        "/attach?parent=footwear&child=shoe",
    ):
        assert service.handle_url(f"{target}&tagger={TAGGER}").ok
    service.close()
    export = fetch_full(service, "export", {})
    return {"export": export, "log": (live / "events.log").read_bytes(), "script": SCRIPT, "config": CONFIG}


def _read_export(data: bytes, scratch) -> None:
    try:
        model.store_from_graph(rdfxml.parse(data), model.VocabConfig())
    except (rdfxml.RdfParseError, model.CloudShapeError):
        pass


def _read_log(data: bytes, scratch) -> None:
    (scratch / "events.log").write_bytes(data)
    try:
        restore_store(str(scratch))
    except StoreLoadError:
        pass


def _read_script(data: bytes, scratch) -> None:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    try:
        script = sim.parse_script(text)
    except sim.ScriptFormatError:
        return
    sim.Simulator(AnnotationService(), units=2).run(script)


def _read_config(data: bytes, scratch) -> None:
    (scratch / "serve.conf").write_bytes(data)
    try:
        load_config(str(scratch / "serve.conf"))
    except ValueError:
        pass


READERS = {"export": _read_export, "log": _read_log, "script": _read_script, "config": _read_config}


def test_each_file_reads_as_it_was_written(files, tmp_path):
    store = model.store_from_graph(rdfxml.parse(files["export"]), model.VocabConfig())
    assert store.maps["footwear"].parent == {"shoe": "footwear", "rubber": "shoe", "sole": "rubber"}
    (tmp_path / "events.log").write_bytes(files["log"])
    assert len(restore_store(str(tmp_path)).events) == 10
    trace = sim.Simulator(AnnotationService(), units=2).run(sim.parse_script(files["script"].decode()))
    assert trace.count(" complete ") == 7 and " complete map 200 " in trace
    (tmp_path / "serve.conf").write_bytes(files["config"])
    assert load_config(str(tmp_path / "serve.conf")).rate_limit_max == 25


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_edited_file_is_read_or_refused_with_its_readers_own_errors(files, tmp_path, name, data):
    READERS[name](data.draw(edited(files[name]), label=name), tmp_path)
