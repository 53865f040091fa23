"""What the server and the simulator load, and the record types that replaced dataclasses.

Each load check runs in a fresh interpreter started with `-S`, so that
nothing a site hook imports is counted, and with the package under test
first on its path.
"""

import copy
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

import scotcloud
from scotcloud.layout import LayoutParams, PrimSpec, Vec3
from scotcloud.model import AnnotationEvent, VocabConfig
from scotcloud.rdfxml import RDF_TYPE, XSD_FLOAT, Iri, Literal, Triple
from scotcloud.service import Page

from conftest import TAGGER

PACKAGE_ROOT = Path(scotcloud.__file__).resolve().parent.parent
# Modules that neither serving nor simulating uses: what dataclasses loads, the XML parser, and
# logging, which the diagnostics on stderr do without.
UNUSED = ("dataclasses", "inspect", "xml.etree.ElementTree", "logging")

_LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
{action}
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""

SIMULATE = """
from scotcloud import sim
script = sim.parse_script("@0 0 11111111-2222-4333-8444-555566667777 tag mouse laser\\n"
                          "@40 0 11111111-2222-4333-8444-555566667777 cloud mouse\\n")
trace = sim.Simulator(sim.AnnotationService(), units=2).run(script)
assert " complete cloud 200 " in trace, trace
"""

SERVE = """
import socket, threading
from scotcloud.service import AnnotationService, ServiceConfig
from scotcloud.wire import HttpServer
server = HttpServer(AnnotationService(ServiceConfig(port=0)), "127.0.0.1")
threading.Thread(target=server.serve_forever, daemon=True).start()
with socket.create_connection(server.server_address) as sock:
    sock.sendall(b"GET /cloud?resource=mouse HTTP/1.1\\r\\n\\r\\n")
    assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
"""

PARSE = """
from scotcloud import model, rdfxml
before = "xml.etree.ElementTree" in sys.modules
document = rdfxml.serialize(model.cloud_to_rdf(model.TagCloud(model.VocabConfig().mint("mouse"), {"laser": 3}),
                                               model.VocabConfig()))
assert model.rdf_to_cloud(rdfxml.parse(document), model.VocabConfig()).frequencies == {"laser": 3}
assert not before
"""


def loaded_after(action: str, names) -> set[str]:
    """Those of `names` in sys.modules once `action` has run in a fresh interpreter."""
    code = _LOADED.format(action=action)
    done = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE_ROOT), *names],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestWhatEachEntryLoads:
    def test_a_simulated_run_loads_no_dataclasses_inspect_or_element_tree(self):
        assert loaded_after(SIMULATE, UNUSED) == set()

    def test_a_server_that_has_answered_a_get_loads_none_of_them(self):
        assert loaded_after(SERVE, UNUSED) == set()

    def test_element_tree_loads_on_the_first_parse(self):
        assert loaded_after(PARSE, UNUSED) == {"xml.etree.ElementTree"}


MOUSE = Iri("http://yourdns.com/rdfs/mouse.rdf")
# A factory of each frozen record type: two calls give two equal instances.
FROZEN = {
    "Literal": lambda: Literal("3.0", Iri(XSD_FLOAT)),
    "Triple": lambda: Triple(MOUSE, RDF_TYPE, VocabConfig.tag_cloud_class),
    "AnnotationEvent": lambda: AnnotationEvent(5, TAGGER, MOUSE, "laser"),
    "Page": lambda: Page(2, 3, b"abc"),
    "Vec3": lambda: Vec3(1.0, -2.5, 0.0),
    "PrimSpec": lambda: PrimSpec(uuid.UUID(int=7), Vec3(1.0, 0.0, 0.0), 0.3, "laser (3)", 60000),
    "LayoutParams": lambda: LayoutParams(),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_a_frozen_record_refuses_assignment_and_hashes_as_an_equal_one(name):
    record, twin = FROZEN[name](), FROZEN[name]()
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    assert copy.deepcopy(record) == record
    for field in type(record).__slots__:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin
