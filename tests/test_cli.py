import argparse
import contextlib
import errno
import hashlib
import io
import ipaddress
import os
import random
import socket
import subprocess
import sys
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scotcloud import sim, wire
from scotcloud.cli import build_parser, main
from scotcloud.model import AnnotationEvent, AnnotationStore, VocabConfig, store_to_graph
from scotcloud.rdfxml import serialize
from scotcloud.service import OPERATIONS, PARAM_DEFAULTS, AnnotationService, ServiceConfig, restore_store

from conftest import TAGGER, chain_document, fetch_full, seed_mouse, store_state

VOCAB = VocabConfig()


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tag", "--resource", "mouse")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0

    def test_layout_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(capsys, "layout", "--resource", "a", "--root", "b")
        assert code == 1
        code, _, _ = run(capsys, "layout")
        assert code == 1

    def test_the_parser_loads_neither_the_simulator_nor_the_layout_engine(self):
        from scotcloud import cli as cli_mod

        probe = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(cli_mod.__file__).parents[1])!r})\n"
            "import scotcloud.cli\n"
            "scotcloud.cli.build_parser()\n"
            "print(sorted(m for m in ('scotcloud.sim', 'scotcloud.layout', 'scotcloud.service') if m in sys.modules))\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert done.stdout == "['scotcloud.service']\n"

    def test_the_in_process_paths_load_no_http_code(self, tmp_path):
        from scotcloud import cli as cli_mod

        (tmp_path / "bots.txt").write_text(SCRIPT, "utf-8")
        svc = AnnotationService()
        seed_mouse(svc)
        (tmp_path / "export.rdf").write_bytes(fetch_full(svc, "export", {}))
        probe = (
            "import contextlib, io, sys\n"
            f"sys.path.insert(0, {str(Path(cli_mod.__file__).parents[1])!r})\n"
            "http = ('http', 'http.client', 'http.server', 'socketserver', 'email', 'ssl')\n"
            "def loaded(step):\n"
            "    print(step, sorted(m for m in http if m in sys.modules))\n"
            "import scotcloud.service\n"
            "loaded('service')\n"
            "import scotcloud.sim\n"
            "loaded('sim')\n"
            "from scotcloud import cli\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = cli.main(argv.split())\n"
            "    loaded(f'{argv.split()[0]} {code}')\n"
        )
        argvs = [
            f"simulate --script {tmp_path / 'bots.txt'}",
            "layout --resource x",
            f"import --in {tmp_path / 'export.rdf'} --store {tmp_path / 'store'}",
        ]
        done = subprocess.run([sys.executable, "-c", probe, *argvs], capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == ["service []", "sim []", "simulate 0 []", "layout 0 []", "import 0 []"]

    def test_a_serving_server_loads_no_http_library_code(self):
        from scotcloud import cli as cli_mod

        probe = (
            "import socket, sys, threading\n"
            f"sys.path.insert(0, {str(Path(cli_mod.__file__).parents[1])!r})\n"
            "from scotcloud.service import AnnotationService, ServiceConfig\n"
            "from scotcloud.wire import HttpServer\n"
            "server = HttpServer(AnnotationService(ServiceConfig(port=0)), '127.0.0.1')\n"
            "threading.Thread(target=server.serve_forever, daemon=True).start()\n"
            "with socket.create_connection(server.server_address) as sock:\n"
            "    sock.sendall(b'GET /cloud?resource=x HTTP/1.1\\r\\n\\r\\n')\n"
            "    print(sock.recv(65536).split(b'\\r\\n')[0].decode())\n"
            "print(sorted(m for m in ('http.client', 'http.server', 'socketserver', 'email', 'ssl') if m in sys.modules))\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60)
        assert done.stdout.splitlines() == ["HTTP/1.1 200 OK", "[]"]

    def test_the_tagger_literals_are_their_uuid5_names(self):
        from scotcloud import cli as cli_mod, model

        assert cli_mod.CLI_TAGGER == uuid.uuid5(uuid.NAMESPACE_URL, "scotcloud:cli")
        assert model.IMPORT_TAGGER == uuid.uuid5(uuid.NAMESPACE_URL, "scotcloud:import")

    def test_a_serving_server_loads_no_hashlib(self):
        from scotcloud import cli as cli_mod

        # -S: no site hooks, whose own imports are not the server's
        probe = (
            "import socket, sys, threading\n"
            f"sys.path.insert(0, {str(Path(cli_mod.__file__).parents[1])!r})\n"
            "import scotcloud.cli\n"
            "from scotcloud.service import AnnotationService, ServiceConfig\n"
            "from scotcloud.wire import HttpServer\n"
            "server = HttpServer(AnnotationService(ServiceConfig(port=0)), '127.0.0.1')\n"
            "threading.Thread(target=server.serve_forever, daemon=True).start()\n"
            "with socket.create_connection(server.server_address) as sock:\n"
            "    sock.sendall(b'GET /tag?resource=x&tag=y&tagger=00000000-0000-4000-8000-000000000000 HTTP/1.1\\r\\n\\r\\n')\n"
            "    print(sock.recv(65536).split(b'\\r\\n')[0].decode())\n"
            "print('hashlib' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True, timeout=60)
        assert done.stdout.splitlines() == ["HTTP/1.1 200 OK", "False"]


class TestWireCommands:
    def test_tag_prints_label_and_count(self, capsys, live_server):
        url, svc = live_server
        seed_mouse(svc)
        code, out, _ = run(capsys, "tag", "--resource", "mouse", "--tag", "laser", "--url", url)
        assert code == 0
        assert out == "laser 4\n"

    def test_cloud_of_unknown_resource_is_valid_empty_rdf(self, capsys, live_server):
        url, _ = live_server
        code, out, _ = run(capsys, "cloud", "--resource", "nothing-here", "--url", url)
        assert code == 0
        from scotcloud.rdfxml import parse

        assert len(parse(out)) == 1

    def test_cloud_reassembles_multipage_documents(self, capsys, live_server):
        url, svc = live_server
        for i in range(120):
            svc.handle_url(f"/tag?resource=big&tag=tag{i:03d}&tagger={TAGGER}")
        code, out, _ = run(capsys, "cloud", "--resource", "big", "--url", url)
        assert code == 0
        from scotcloud.rdfxml import parse

        assert len(parse(out)) == 1 + 3 * 120

    def test_attach_and_map(self, capsys, live_server):
        url, _ = live_server
        code, out, _ = run(capsys, "attach", "--parent", "shoe", "--child", "rubber", "--url", url)
        assert code == 0 and out == "ok\n"
        code, out, _ = run(capsys, "map", "--root", "shoe", "--depth", "2", "--url", url)
        assert code == 0
        assert out == "shoe (0)\n  rubber (0)\n"

    def test_attach_cycle_is_data_error(self, capsys, live_server):
        url, _ = live_server
        run(capsys, "attach", "--parent", "a", "--child", "b", "--url", url)
        code, _, err = run(capsys, "attach", "--parent", "b", "--child", "a", "--url", url)
        assert code == 3
        assert "cycle" in err

    def test_unknown_map_root_is_data_error(self, capsys, live_server):
        url, _ = live_server
        code, _, err = run(capsys, "map", "--root", "ghost", "--url", url)
        assert code == 3

    def test_unnormalizable_tag_is_data_error(self, capsys, live_server):
        url, _ = live_server
        code, _, err = run(capsys, "tag", "--resource", "m", "--tag", "   ", "--url", url)
        assert code == 3
        assert "badtag" in err

    def test_tagger_that_is_not_a_uuid_is_data_error(self, capsys, live_server):
        url, svc = live_server
        code, out, err = run(capsys, "tag", "--resource", "m", "--tag", "t", "--tagger", "not-a-uuid", "--url", url)
        assert (code, out, err) == (3, "", "server said 400: badtagger\n")
        assert svc.store.version == 0

    def test_empty_resource_is_data_error(self, capsys, live_server):
        url, _ = live_server
        code, out, err = run(capsys, "cloud", "--resource", "", "--url", url)
        assert (code, out, err) == (3, "", "server said 400: missing\n")

    def test_tag_whose_answer_would_need_two_pages_is_data_error(self, capsys, live_server):
        url, svc = live_server
        code, out, err = run(capsys, "tag", "--resource", "pen", "--tag", "y" * 2100, "--url", url)
        assert (code, out) == (3, "")
        assert "badtag" in err
        assert svc.store.version == 0

    def test_unreachable_server_is_protocol_error(self, capsys):
        code, _, err = run(capsys, "tag", "--resource", "m", "--tag", "t", "--url", "http://127.0.0.1:9")
        assert code == 2
        assert "cannot reach" in err

    # A host the IDNA codec refuses, an unclosed IPv6 literal, another scheme, no scheme, ports out of range,
    # and what http.client refuses to send: a control character, a space or DEL anywhere, a path not ASCII
    BAD_URLS = ["http://a..b:9", "http://[::1", "ftp://127.0.0.1:1", "127.0.0.1:1", "http://127.0.0.1:port",
                "http://127.0.0.1:0", "http://127.0.0.1:65536", "http://caf\udce9:9", "http://:9",
                "http://127.0.0.1\x00", "http://127.0.0.1 :9", "http://127.0.0.1:9/a b", "http://127.0.0.1\x01:9",
                "http://127.0.0.1:9/\x7f", "http://127.0.0.1:9/caf\xe9"]

    @pytest.mark.parametrize("url", BAD_URLS)
    @pytest.mark.parametrize(
        "argv", [["cloud", "--resource", "x"], ["simulate", "--script", "bots.txt"]], ids=["cloud", "simulate"]
    )
    def test_a_url_that_is_not_http_host_port_is_a_usage_error(self, capsys, url, argv):
        code, out, err = run(capsys, *argv, "--url", url)
        assert (code, out) == (1, "")
        assert err.endswith(f"argument --url: {url!r}, from --url or else SCOTCLOUD_URL, is not an http://host:port URL"
                            " with a port from 1 to 65535\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("url", BAD_URLS[:4])
    def test_a_bad_url_from_the_environment_is_a_usage_error(self, capsys, monkeypatch, url):
        monkeypatch.setenv("SCOTCLOUD_URL", url)
        code, out, err = run(capsys, "tag", "--resource", "m", "--tag", "t")
        assert (code, out) == (1, "")
        assert f"argument --url: {url!r}, from --url or else SCOTCLOUD_URL, is not" in err

    def test_a_bad_url_in_the_environment_leaves_an_explicit_url_alone(self, capsys, monkeypatch, live_server):
        url, _ = live_server
        monkeypatch.setenv("SCOTCLOUD_URL", "http://[::1")
        assert run(capsys, "tag", "--resource", "m", "--tag", "t", "--url", url) == (0, "t 1\n", "")

    def test_a_lost_answer_says_the_request_may_have_been_applied(self, capsys):
        from test_service import _AppliesButNeverAnswers, http_server

        svc = AnnotationService(ServiceConfig(port=0))
        with http_server(svc, _AppliesButNeverAnswers) as (url, _):
            code, out, err = run(capsys, "tag", "--resource", "m", "--tag", "t", "--url", url)
        assert (code, out) == (2, "")
        assert "cannot reach" not in err and "may have applied the request" in err
        assert svc.store.cloud_of(VOCAB.resource_iri("m")).frequencies == {"t": 1}

    def test_non_page_body_is_protocol_error(self, capsys, monkeypatch):
        monkeypatch.setattr(wire.HttpTransport, "get", lambda self, path_query: (502, b"<html>"))
        code, _, err = run(capsys, "cloud", "--resource", "m", "--url", "http://127.0.0.1:9")
        assert code == 2
        assert "not a page" in err

    def test_unwritable_out_file_is_data_error(self, capsys, live_server, tmp_path):
        url, _ = live_server
        code, _, err = run(capsys, "export", "--url", url, "--out", str(tmp_path / "missing" / "x.rdf"))
        assert code == 3
        assert err.startswith("out: ")

    def test_env_var_supplies_url(self, capsys, live_server, monkeypatch):
        url, _ = live_server
        monkeypatch.setenv("SCOTCLOUD_URL", url)
        code, out, _ = run(capsys, "tag", "--resource", "envy", "--tag", "set")
        assert code == 0
        assert out == "set 1\n"


# what `import` writes for `TestExportImport.seeded_store`, and its re-export
LOG_SHA256 = "9c1addf6fcded2bd61ec5128421fb9174f66f241c517945e6f3e5598add44c19"
EXPORT_SHA256 = "635c209989a39759c58de1bbdd5a7defa8013ddda4b3348e4640ba758f97a7d9"


RDFS = "http://yourdns.com/rdfs/"
CLOUD_TYPE = '<rdf:type rdf:resource="http://scot-project.org/scot/ns#TagCloud"/>'
TAG_TYPE = '<rdf:type rdf:resource="http://scot-project.org/scot/ns#Tag"/>'
ONCE = '<scot:ownAFrequency rdf:datatype="http://www.w3.org/2001/XMLSchema#float">1.0</scot:ownAFrequency>'
EX_TRIPLES = '<ex:colour>red</ex:colour><ex:seenIn rdf:resource="http://example.org/places/1"/>'


def has_tag(iri: str) -> str:
    return f'<sioc:has_tag rdf:resource="{iri}"/>'


def description(about: str, *properties: str) -> str:
    return f'<rdf:Description rdf:about="{about}">{"".join(properties)}</rdf:Description>'


def document(*descriptions: str) -> bytes:
    head = (
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:scot="http://scot-project.org/scot/ns#"'
        ' xmlns:sioc="http://rdfs.org/sioc/ns#" xmlns:foaf="http://xmlns.com/foaf/0.1/" xmlns:ex="http://example.org/ns#">'
    )
    return f"{head}{''.join(descriptions)}</rdf:RDF>\n".encode("utf-8")


# Clouds a and b share the unscoped tag laser.rdf, as no export writes it.
SHARED_TAG_CLOUDS = [description(RDFS + name, CLOUD_TYPE, has_tag(RDFS + "laser.rdf")) for name in ("a.rdf", "b.rdf")]


class TestExportImport:
    def test_roundtrip_preserves_clouds_and_maps(self, capsys, live_server, tmp_path):
        url, svc = live_server
        seed_mouse(svc)
        run(capsys, "attach", "--parent", "shoe", "--child", "rubber", "--url", url)
        run(capsys, "attach", "--parent", "rubber", "--child", "sole", "--url", url)

        out_file = tmp_path / "export.rdf"
        code, _, _ = run(capsys, "export", "--url", url, "--out", str(out_file))
        assert code == 0

        store_dir = tmp_path / "fresh"
        code, _, _ = run(capsys, "import", "--in", str(out_file), "--store", str(store_dir))
        assert code == 0

        fresh = AnnotationService(ServiceConfig(store_path=str(store_dir)))
        assert store_state(fresh.store) == store_state(svc.store)

        direct = svc.handle_url("/cloud?resource=mouse").page.payload
        reloaded = fresh.handle_url("/cloud?resource=mouse").page.payload
        assert direct == reloaded

    @staticmethod
    def seeded_store() -> AnnotationStore:
        """Multi-label clouds, some on full IRIs, a resource named like a concept, and a three-tree forest."""
        rng = random.Random(21)
        labels = ["laser", "optical mouse", "zo\u00eb", "a/b", "100%", "c++", "shoe", "wheel", "usb"]
        resources = ["mouse", "shoe", "keyboard", "caf\u00e9", "http://example.org/things/7", "http://example.org/x.rdf"]
        pairs = [
            (resource, label)
            for resource in resources
            for label in rng.sample(labels, rng.randint(2, 6))
            for _ in range(rng.randint(1, 4))
        ]
        rng.shuffle(pairs)
        store = AnnotationStore()
        for i, (resource, label) in enumerate(pairs):
            store.record(AnnotationEvent(i, uuid.UUID(int=rng.getrandbits(128)), VOCAB.resource_iri(resource), label))
        # parents before children, except that "gear" later goes above the root "shoe"
        for parent, child in [
            ("shoe", "rubber"), ("shoe", "lace"), ("rubber", "sole"), ("rubber", "heel"), ("lace", "aglet"),
            ("mouse", "wheel"), ("mouse", "laser"), ("laser", "red"), ("gear", "shoe"),
            ("usb", "c++"), ("usb", "100%"),
        ]:
            store.attach(parent, child)
        return store

    def test_import_writes_the_pinned_log_and_re_exports_the_same_bytes(self, capsys, tmp_path):
        document = serialize(store_to_graph(self.seeded_store(), VOCAB)).encode("utf-8")
        export = tmp_path / "export.rdf"
        export.write_bytes(document)
        code, _, _ = run(capsys, "import", "--in", str(export), "--store", str(tmp_path / "s"))
        assert code == 0
        log = (tmp_path / "s" / "events.log").read_bytes()
        again = serialize(store_to_graph(restore_store(str(tmp_path / "s")), VOCAB)).encode("utf-8")
        assert again == document
        assert hashlib.sha256(log).hexdigest() == LOG_SHA256
        assert hashlib.sha256(again).hexdigest() == EXPORT_SHA256

    def test_import_of_custom_namespace_export_is_data_error(self, capsys, tmp_path):
        # Moving the scot namespace puts the cloud triples outside the SCOT mapping.
        svc = AnnotationService()
        svc.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}")
        svc.handle_url(f"/attach?parent=shoe&child=rubber&tagger={TAGGER}")
        document = fetch_full(svc, "export", {})
        export = tmp_path / "export.rdf"
        export.write_bytes(document.replace(b"http://scot-project.org/scot/ns#", b"http://example.org/myscot#"))
        code, _, err = run(capsys, "import", "--in", str(export), "--store", str(tmp_path / "s"))
        assert code == 3
        assert "holds 5 triples, but only 1" in err
        assert not (tmp_path / "s").exists()

    def refused(self, capsys, tmp_path, data: bytes) -> str:
        """Import `data`; assert exit 3 and that no store directory was made; return stderr."""
        (tmp_path / "in.rdf").write_bytes(data)
        code, _, err = run(capsys, "import", "--in", str(tmp_path / "in.rdf"), "--store", str(tmp_path / "s"))
        assert code == 3
        assert not (tmp_path / "s").exists()
        return err

    def imported(self, capsys, tmp_path, data: bytes) -> AnnotationStore:
        (tmp_path / "in.rdf").write_bytes(data)
        code, _, _ = run(capsys, "import", "--in", str(tmp_path / "in.rdf"), "--store", str(tmp_path / "s"))
        assert code == 0
        return restore_store(str(tmp_path / "s"))

    def test_import_of_a_shared_tag_with_extra_triples_is_data_error(self, capsys, tmp_path):
        # The two ex: triples on the shared tag would be lost; two scoped tags rebuild 8 triples too.
        data = document(*SHARED_TAG_CLOUDS, description(RDFS + "laser.rdf", TAG_TYPE, ONCE, EX_TRIPLES))
        err = self.refused(capsys, tmp_path, data)
        assert "holds 8 triples, but only 6 of them describe SCOT clouds or topic maps" in err

    def test_import_of_a_cloud_with_a_second_type_is_data_error(self, capsys, tmp_path):
        # The tag has no rdf:type, so a rebuilt graph, which adds one, would hide the lost foaf type.
        cloud = description(RDFS + "a.rdf", CLOUD_TYPE, '<rdf:type rdf:resource="http://xmlns.com/foaf/0.1/Document"/>', has_tag(RDFS + "laser.rdf"))
        err = self.refused(capsys, tmp_path, document(cloud, description(RDFS + "laser.rdf", ONCE)))
        assert "holds 4 triples, but only 3 of" in err

    def test_import_of_two_tag_iris_with_one_label_in_a_cloud_is_data_error(self, capsys, tmp_path):
        tags = [RDFS + "laser.rdf", RDFS + "mouse/laser.rdf"]
        data = document(description(RDFS + "mouse.rdf", CLOUD_TYPE, *map(has_tag, tags)), *(description(t, TAG_TYPE, ONCE) for t in tags))
        err = self.refused(capsys, tmp_path, data)
        assert "holds 7 triples, but only 6 of" in err

    def test_import_of_a_shared_tag_gives_each_cloud_its_count(self, capsys, tmp_path):
        store = self.imported(capsys, tmp_path, document(*SHARED_TAG_CLOUDS, description(RDFS + "laser.rdf", TAG_TYPE, ONCE)))
        assert store_state(store) == ({RDFS + "a.rdf": {"laser": 1}, RDFS + "b.rdf": {"laser": 1}}, {})

    def test_import_of_a_cloud_document_with_unscoped_tags(self, capsys, tmp_path):
        svc = AnnotationService()
        seed_mouse(svc)
        store = self.imported(capsys, tmp_path, fetch_full(svc, "cloud", {"resource": "mouse"}))
        assert store_state(store) == store_state(svc.store)

    def test_import_of_a_nesting_deeper_than_the_recursion_limit_is_no_traceback(self, tmp_path):
        from scotcloud import cli as cli_mod

        (tmp_path / "deep.rdf").write_text(chain_document(sys.getrecursionlimit() + 200, nested=True), "utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "scotcloud.cli", "import", "--in", str(tmp_path / "deep.rdf"), "--store", str(tmp_path / "s")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])},
        )
        assert done.returncode == 3  # it parses, and holds no SCOT triple
        assert "Traceback" not in done.stderr
        assert "but only 0 of them" in done.stderr
        assert not (tmp_path / "s").exists()

    def test_import_of_garbage_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.rdf"
        bad.write_text("<not-rdf", "utf-8")
        code, _, err = run(capsys, "import", "--in", str(bad), "--store", str(tmp_path / "s"))
        assert code == 3

    def test_import_of_a_file_that_is_not_utf8_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.rdf"
        bad.write_bytes('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">caf\xe9</rdf:RDF>'.encode("latin-1"))
        code, _, err = run(capsys, "import", "--in", str(bad), "--store", str(tmp_path / "s"))
        assert code == 3
        assert err.startswith("import: malformed XML: ") and "line 1, column 68" in err
        assert err.count("line 1, column") == 1
        assert not (tmp_path / "s").exists()

    def test_import_of_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "import", "--in", str(tmp_path / "nope.rdf"), "--store", str(tmp_path / "s"))
        assert code == 3


class TestSnapshotRdfDirectory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "0"],
            ["layout", "--resource", "mouse"],
            ["simulate", "--script", "{script}"],
            ["import", "--in", "{export}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_store_directory_holding_snapshot_rdf_exits_3_and_names_it(self, capsys, monkeypatch, tmp_path, argv):
        # older versions kept topic maps in snapshot.rdf next to a tag-only log
        monkeypatch.setattr(wire.HttpServer, "serve_forever", lambda server, *args, **kwargs: None)  # no hang
        svc = AnnotationService()
        seed_mouse(svc)
        svc.handle_url(f"/attach?parent=shoe&child=rubber&tagger={TAGGER}")
        (tmp_path / "export.rdf").write_bytes(fetch_full(svc, "export", {}))
        (tmp_path / "bots.txt").write_text(SCRIPT, "utf-8")
        old = tmp_path / "old"
        old.mkdir()
        (old / "snapshot.rdf").write_bytes(fetch_full(svc, "export", {}))
        (old / "events.log").write_text(f"1\t{TAGGER}\thttp://yourdns.com/rdfs/mouse.rdf\tlaser\n", "utf-8")
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        argv = [arg.format(script=tmp_path / "bots.txt", export=tmp_path / "export.rdf") for arg in argv]
        code, out, err = run(capsys, *argv, "--store", str(old))
        assert (code, out) == (3, "")
        assert f"{old / 'snapshot.rdf'}: " in err
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before


SCRIPT = """\
@0 0 {a} tag mouse laser
@0 0 {a} tag mouse laser
@40 0 {a} tag mouse optical
@40 0 {a} help
@90 0 {a} attach shoe rubber
@200 0 {a} cloud mouse
@220 0 {a} map shoe 1
""".format(a="11111111-2222-4333-8444-555566667777")


class TestSimulate:
    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        script = tmp_path / "bots.txt"
        script.write_text(SCRIPT, "utf-8")
        code, first, _ = run(capsys, "simulate", "--script", str(script), "--seed", "7", "--units", "2")
        assert code == 0
        code, second, _ = run(capsys, "simulate", "--script", str(script), "--seed", "7", "--units", "2")
        assert first == second
        assert "complete tag" in first

    def test_the_seed_replays_jittered_latency(self, capsys, tmp_path):
        script = tmp_path / "bots.txt"
        script.write_text(SCRIPT, "utf-8")
        outs = [run(capsys, "simulate", "--script", str(script), "--seed", seed, "--jitter", "40") for seed in ("3", "3", "4")]
        assert [code for code, _, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] != outs[2][1]

    def test_window_mode_is_no_longer_an_option(self, capsys, tmp_path):
        script = tmp_path / "bots.txt"
        script.write_text(SCRIPT, "utf-8")
        code, out, err = run(capsys, "simulate", "--script", str(script), "--window-mode", "sliding")
        assert (code, out) == (1, "")
        assert "--window-mode" in err

    def test_missing_script_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--script", str(tmp_path / "none.txt"))
        assert code == 3

    def test_a_script_that_is_not_utf8_is_data_error(self, capsys, tmp_path):
        script = tmp_path / "bots.txt"
        script.write_bytes(f"@0 0 {TAGGER} tag caf\xe9 laser\n".encode("latin-1"))
        code, out, err = run(capsys, "simulate", "--script", str(script))
        assert (code, out) == (3, "")
        assert err.startswith("script: 'utf-8' codec can't decode byte 0xe9")

    def test_bad_script_is_data_error(self, capsys, tmp_path):
        script = tmp_path / "bots.txt"
        script.write_text("@10 0 x help\n", "utf-8")
        code, _, _ = run(capsys, "simulate", "--script", str(script))
        assert code == 3

    def test_empty_command_is_data_error(self, capsys, tmp_path):
        script = tmp_path / "bots.txt"
        script.write_text(f"@0 0 {TAGGER} help\n@5 0 {TAGGER} \n", "utf-8")
        code, out, err = run(capsys, "simulate", "--script", str(script))
        assert (code, out) == (3, "")
        assert "script: line 2: empty command" in err

    @pytest.mark.parametrize("flags", [["--units", "0"], ["--base-latency", "-1"], ["--jitter", "-5"]])
    def test_bad_numbers_are_usage_errors_not_tracebacks(self, capsys, tmp_path, flags):
        script = tmp_path / "bots.txt"
        script.write_text(SCRIPT, "utf-8")
        code, out, err = run(capsys, "simulate", "--script", str(script), *flags)
        assert (code, out) == (1, "")
        assert err.startswith("simulate: ")

    def test_superscript_map_depth_gets_usage_not_a_traceback(self, capsys, tmp_path):
        script = tmp_path / "bots.txt"
        script.write_text(f"@0 0 {TAGGER} map shoe \u00b2\n", "utf-8")
        code, out, _ = run(capsys, "simulate", "--script", str(script))
        assert code == 0
        assert " usage " in out and " issue " not in out

    def test_a_torn_cloud_walk_is_protocol_error(self, capsys, tmp_path):
        lines = [f"@0 0 {TAGGER} tag big word{i}" for i in range(60)]
        lines.append(f"@1000 0 {TAGGER} cloud big")
        lines += [f"@1010 0 {TAGGER} tag big more{i}" for i in range(40)]
        script = tmp_path / "bots.txt"
        script.write_text("\n".join(lines) + "\n", "utf-8")
        code, out, err = run(capsys, "simulate", "--script", str(script), "--units", "8")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "the document changed during the page walk (inconsistent totals: " in err

    def test_wire_mode_against_live_server(self, capsys, live_server, tmp_path):
        url, svc = live_server
        script = tmp_path / "bots.txt"
        script.write_text(SCRIPT, "utf-8")
        code, out, _ = run(capsys, "simulate", "--script", str(script), "--url", url)
        assert code == 0
        assert svc.store.cloud_of(VOCAB.resource_iri("mouse")).frequencies["laser"] == 2


class TestTornWalk:
    """A batch of tags lands between the first and second page fetch."""

    @pytest.mark.parametrize("argv", [["cloud", "--resource", "big"], ["export"]])
    def test_torn_walk_is_protocol_error(self, capsys, monkeypatch, argv):
        svc = AnnotationService()
        for i in range(60):
            svc.handle_url(f"/tag?resource=big&tag=w{i}&tagger={TAGGER}")
        fetches = []

        class TornTransport(sim.InProcessTransport):
            def __init__(self, base_url):
                super().__init__(svc)

            def get(self, path_query):
                fetches.append(path_query)
                if len(fetches) == 2:
                    for i in range(60, 400):
                        svc.handle_url(f"/tag?resource=big&tag=w{i}&tagger={TAGGER}")
                return super().get(path_query)

            def close(self):
                pass

        monkeypatch.setattr(wire, "HttpTransport", TornTransport)
        code, out, err = run(capsys, *argv)
        assert len(fetches) >= 2
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "the document changed during the page walk" in err


class TestLayoutCommand:
    def seeded_store(self, tmp_path) -> str:
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path / "store")))
        seed_mouse(service)
        service.handle_url(f"/attach?parent=shoe&child=rubber&tagger={TAGGER}")
        service.handle_url(f"/attach?parent=rubber&child=sole&tagger={TAGGER}")
        return str(tmp_path / "store")

    def test_cloud_layout_prints_scene(self, capsys, tmp_path):
        store = self.seeded_store(tmp_path)
        code, out, _ = run(capsys, "layout", "--store", store, "--resource", "mouse")
        assert code == 0
        assert out.startswith("scene-v1 flat\n")
        assert "laser (3)" in out

    def test_map_layout_json(self, capsys, tmp_path):
        store = self.seeded_store(tmp_path)
        code, out, _ = run(capsys, "layout", "--store", store, "--root", "shoe", "--format", "json")
        assert code == 0
        assert out.startswith("scene-v1 json\n")
        import json

        payload = json.loads(out.split("\n", 1)[1])
        assert len(payload["prims"]) == 3

    def test_map_layout_below_the_top_takes_the_whole_subtree(self, capsys, tmp_path):
        store = self.seeded_store(tmp_path)
        code, out, _ = run(capsys, "layout", "--store", store, "--root", "rubber")
        assert code == 0
        assert out.count("\nprim\t") == 2  # rubber and sole

    def test_unknown_root_is_data_error(self, capsys, tmp_path):
        store = self.seeded_store(tmp_path)
        code, _, _ = run(capsys, "layout", "--store", store, "--root", "ghost")
        assert code == 3

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_depth_below_one_is_data_error(self, capsys, tmp_path, depth):
        store = self.seeded_store(tmp_path)
        code, out, err = run(capsys, "layout", "--store", store, "--root", "shoe", "--depth", depth)
        assert code == 3
        assert out == ""
        assert err == "layout: depth must be at least 1\n"

    def test_layout_without_store_is_empty_scene(self, capsys):
        code, out, _ = run(capsys, "layout", "--resource", "mouse")
        assert code == 0
        assert out.count("\nprim\t") == 1


class TestServeConfig:
    def test_serve_loads_config_file(self, capsys, tmp_path, monkeypatch):
        # build the server object without entering the blocking loop
        config_file = tmp_path / "svc.conf"
        config_file.write_text("port=0\npage_cap=1024\n", "utf-8")

        captured = {}

        def fake_serve(service, host):
            captured["service"] = service
            captured["host"] = host

        monkeypatch.setattr(wire, "serve", fake_serve)
        code = main(["serve", "--config", str(config_file), "--store", str(tmp_path / "s")])
        assert code == 0
        assert captured["service"].config.page_cap == 1024
        assert captured["service"].config.store_path == str(tmp_path / "s")

    def test_serve_reports_the_bound_port(self, capsys, monkeypatch):
        bound = {}

        def stop_at_once(server, *args, **kwargs):
            bound["port"] = server.server_address[1]

        monkeypatch.delenv("SCOTCLOUD_PORT", raising=False)
        monkeypatch.setattr(wire.HttpServer, "serve_forever", stop_at_once)
        code, _, err = run(capsys, "serve", "--port", "0")
        assert code == 0
        assert bound["port"] != 0
        assert err == f"serving on 127.0.0.1:{bound['port']}\n"

    def test_taken_port_is_protocol_error_not_unreachable(self, capsys, monkeypatch):
        monkeypatch.delenv("SCOTCLOUD_PORT", raising=False)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            code, _, err = run(capsys, "serve", "--port", str(taken.getsockname()[1]))
        assert code == 2
        assert err.startswith("serve: ") and "cannot reach" not in err

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_out_of_range_port_is_protocol_error(self, capsys, monkeypatch, source):
        if source == "flag":
            monkeypatch.delenv("SCOTCLOUD_PORT", raising=False)
            code, _, err = run(capsys, "serve", "--port", "70000")
        else:
            monkeypatch.setenv("SCOTCLOUD_PORT", "70000")
            code, _, err = run(capsys, "serve")
        assert code == 2
        assert err.startswith("serve: ") and "65535" in err

    def test_base_uri_that_is_not_an_iri_is_data_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(wire, "serve", lambda service, host: pytest.fail("served"))
        config_file = tmp_path / "svc.conf"
        config_file.write_text("port=0\nbase_uri=yourdns.com\n", "utf-8")
        code, _, err = run(capsys, "serve", "--config", str(config_file))
        assert code == 3
        assert err.startswith("config: base_uri is not an IRI: ") and "'yourdns.com'" in err

    @pytest.mark.parametrize("line", ["rate_limit_max=0", "rate_limit_window_ms=-1000"])
    def test_rate_limit_that_would_break_the_limiter_is_data_error(self, capsys, tmp_path, monkeypatch, line):
        monkeypatch.setattr(wire, "serve", lambda service, host: pytest.fail("served"))
        config_file = tmp_path / "svc.conf"
        config_file.write_text(f"port=0\n{line}\n", "utf-8")
        code, _, err = run(capsys, "serve", "--config", str(config_file))
        assert code == 3
        key, _, value = line.partition("=")
        assert err == f"config: {key} must be at least 1, not {value}\n"

    def test_value_that_does_not_parse_is_data_error_with_its_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(wire, "serve", lambda service, host: pytest.fail("served"))
        config_file = tmp_path / "svc.conf"
        config_file.write_text("port=abc\n", "utf-8")
        code, _, err = run(capsys, "serve", "--config", str(config_file))
        assert code == 3
        assert err == f"config: {config_file}:1: bad value for port: 'abc'\n"

    def test_non_numeric_port_variable_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SCOTCLOUD_PORT", "abc")
        monkeypatch.setattr(wire, "serve", lambda service, host: pytest.fail("served"))
        code, _, err = run(capsys, "serve")
        assert code == 1
        assert "SCOTCLOUD_PORT" in err and "abc" in err

    @pytest.mark.parametrize("key", ["scot_ns", "has_tag_iri"])
    def test_vocabulary_keys_are_refused(self, capsys, tmp_path, monkeypatch, key):
        monkeypatch.setattr(wire, "serve", lambda service, host: pytest.fail("served"))
        config_file = tmp_path / "svc.conf"
        config_file.write_text(f"port=0\n{key}=http://example.org/myscot#\n", "utf-8")
        code, _, err = run(capsys, "serve", "--config", str(config_file))
        assert code == 3
        assert "svc.conf:2: bad config line" in err

    def test_bad_config_is_data_error(self, capsys, tmp_path):
        config_file = tmp_path / "svc.conf"
        config_file.write_text("wat\n", "utf-8")
        code, _, err = run(capsys, "serve", "--config", str(config_file))
        assert code == 3


class _FullStdout:
    """A stdout on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


class TestFullStdout:
    """A failed write of the output is a local data error, not a lost server answer."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--script", "{script}"],
            ["layout", "--resource", "mouse"],
            ["cloud", "--resource", "mouse", "--url", "{url}"],
            ["export", "--url", "{url}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_stdout_that_cannot_be_written_exits_3_with_out(self, capsys, monkeypatch, live_server, tmp_path, argv):
        url, svc = live_server
        seed_mouse(svc)
        (tmp_path / "bots.txt").write_text(SCRIPT, "utf-8")
        monkeypatch.setattr(sys, "stdout", _FullStdout())
        code = main([arg.format(script=tmp_path / "bots.txt", url=url) for arg in argv])
        err = capsys.readouterr().err
        assert (code, err) == (3, f"out: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


class _AnswersNotUtf8:
    def do_GET(self):
        raw = b"page 1/1 2\n\xff\xfe"
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


# A valid value for each string flag of the client subcommands.
_FLAG_VALUES = {"resource": "mouse", "tag": "laser", "tagger": str(TAGGER), "root": "shoe", "parent": "shoe", "child": "rubber"}


def _argv_with_not_utf8(operation: str, flag: str) -> list[str]:
    """The argv of `operation` with each string flag valid but `flag`, which holds a lone surrogate."""
    argv = [operation]
    for name in OPERATIONS[operation]:
        if name in _FLAG_VALUES:
            argv += [f"--{name}", "caf\udce9" if name == flag else _FLAG_VALUES[name]]
    return argv


class TestFlagsThatAreNotUtf8:
    """Bytes on the command line that are not UTF-8 reach `sys.argv` as lone surrogates."""

    @pytest.mark.parametrize(
        "operation, flag", [(operation, flag) for operation, names in OPERATIONS.items() for flag in names if flag in _FLAG_VALUES]
    )
    def test_a_client_flag_is_refused_before_anything_is_sent(self, capsys, monkeypatch, operation, flag):
        from test_service import shell_server

        argv = _argv_with_not_utf8(operation, flag)
        svc = AnnotationService(ServiceConfig(port=0))
        with shell_server(svc, monkeypatch) as (url, _, accepted):
            code, out, err = run(capsys, *argv, "--url", url)
            assert (code, out, err) == (3, "", f"{operation}: --{flag} is not UTF-8 text\n")
            assert accepted == [] and svc.store.version == 0
            assert run(capsys, "cloud", "--resource", "mouse", "--url", url)[0] == 0
            assert len(accepted) == 1  # the spy sees what a sent request does

    def test_every_string_flag_of_the_client_is_covered(self):
        names = {name for names in OPERATIONS.values() for name in names}
        assert names - set(_FLAG_VALUES) == set(PARAM_DEFAULTS)

    def test_layout_resource_is_refused(self, capsys):
        assert run(capsys, "layout", "--resource", "caf\udce9") == (3, "", "layout: --resource is not UTF-8 text\n")


class TestClientFailures:
    @pytest.mark.parametrize("argv", [["cloud", "--resource", "m"], ["tag", "--resource", "m", "--tag", "t"]])
    def test_an_answer_that_is_not_utf8_is_a_protocol_error_naming_the_server(self, capsys, argv):
        from test_service import http_server

        with http_server(AnnotationService(ServiceConfig(port=0)), _AnswersNotUtf8) as (url, _):
            code, out, err = run(capsys, *argv, "--url", url)
        assert (code, out) == (2, "")
        assert err.startswith(f"the server at {url} sent an answer that is not UTF-8 (")

    @pytest.fixture
    def listener(self, monkeypatch):
        """A listening socket that never accepts, with the client's timeout cut to 0.2 s."""
        monkeypatch.setattr(wire, "REQUEST_TIMEOUT_S", 0.2)
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(0)
            yield server

    def test_a_server_that_never_answers_times_out_as_a_lost_answer(self, capsys, listener):
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        code, out, err = run(capsys, "tag", "--resource", "m", "--tag", "t", "--url", url)
        assert (code, out) == (2, "")
        assert f"the server at {url} may have applied the request, but its answer was lost" in err

    def test_a_connect_that_times_out_cannot_reach_the_server(self, capsys, listener):
        # A full accept queue drops further connection requests, so a connect waits until it times out.
        port = listener.getsockname()[1]
        fillers = []
        try:
            for _ in range(16):
                filler = socket.socket()
                fillers.append(filler)
                filler.settimeout(0.2)
                try:
                    filler.connect(("127.0.0.1", port))
                except TimeoutError:
                    break
            else:
                pytest.fail("the accept queue never filled")
            url = f"http://127.0.0.1:{port}"
            code, out, err = run(capsys, "tag", "--resource", "m", "--tag", "t", "--url", url)
        finally:
            for filler in fillers:
                filler.close()
        assert (code, out, err) == (2, "", f"cannot reach server at {url}\n")


# Pieces of drawn flag values: lone surrogates (what sys.argv holds for bytes
# that are not UTF-8), brackets, dots, colons, percent signs, NUL, and text.
_PIECES = ["\udc80", "\udcff", "[", "]", "..", ":", "%", "\x00", "a", "\xe9", "/", " ", "-", "0", "7", "x y"]
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)
_NUMBERS = st.one_of(
    st.integers(-3, 300).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["65536", str(10**40), "1e3", "\xb2", ""]),
)
_URLS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["http://", "http://", "https://", "ftp://", ""]),
    st.one_of(st.sampled_from(["127.0.0.1", "[::1]", "localhost", "a..b", "[::1", ""]), _TEXT),
    st.one_of(st.sampled_from(["", ":9", ":0", ":65536", ":%s" % 10**30]), _TEXT),
    st.one_of(st.sampled_from(["", "/", "/api"]), _TEXT),
)
# The files and directories a path flag names, all under one directory, besides drawn names there.
_FILES = {
    "bots.txt": f"@0 0 {TAGGER} tag mouse laser\n@40 0 {TAGGER} cloud mouse\n@90 0 {TAGGER} map mouse 2\n".encode(),
    "latin1.txt": b"@0 0 11111111-2222-4333-8444-555566667777 tag caf\xe9 laser\n",
    "garbage.rdf": b"<rdf:RDF",
    "svc.conf": b"port=0\npage_cap=1024\n",
    "bad.conf": b"port=abc\n",
    "legacy/snapshot.rdf": b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>\n',
}
_PATH_FLAGS = {"store", "config", "infile", "script", "out"}


def _loopback(host) -> bool:
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def _idna_refuses(host: str) -> bool:
    try:
        host.encode("idna")
    except UnicodeError:
        return True
    return False


def _value(action: argparse.Action, root: Path) -> st.SearchStrategy:
    """Values for one flag: its own kind of value, or any drawn text."""
    if action.dest in _PATH_FLAGS:
        names = st.sampled_from(sorted(_FILES) + ["export.rdf", "store", "legacy", "new"])
        names = st.one_of(names, names, names, _TEXT)
        return names.map(lambda name: str(root / name.replace("/", "_") if name not in _FILES else root / name))
    if action.dest == "url":
        return _URLS
    if action.type is int:
        return _NUMBERS
    if action.choices:
        return st.one_of(st.sampled_from(sorted(action.choices)), _TEXT)
    named = st.sampled_from(["mouse", "laser", "shoe", str(TAGGER), "127.0.0.1"])
    return st.one_of(named, named, _TEXT)


@st.composite
def command_lines(draw, root: Path) -> list[str]:
    """A subcommand, then a drawn choice of its flags, the required ones mostly among them, each `--flag=value`."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in commands[name]._actions:
        if action.option_strings and action.dest != "help":
            for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2] if action.required else [0, 1]))):
                argv.append(f"{action.option_strings[0]}={draw(_value(action, root))}")
    return argv + draw(st.sampled_from([[]] * 7 + [["--"], ["x"], ["--url"]]))


@pytest.fixture(scope="class")
def command_root(tmp_path_factory):
    """A directory that holds the files of _FILES, a store and an export."""
    root = tmp_path_factory.mktemp("argv")
    for name, data in _FILES.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_bytes(data)
    service = AnnotationService(ServiceConfig(store_path=str(root / "store")))
    for query in (f"/tag?resource=mouse&tag=laser&tagger={TAGGER}", f"/attach?parent=mouse&child=laser&tagger={TAGGER}"):
        assert service.handle_url(query).ok
    service.close()
    (root / "export.rdf").write_text(serialize(store_to_graph(service.store, VOCAB)), "utf-8")
    return root


def _exit_code_without_a_traceback(monkeypatch, argv: list[str]) -> int:
    """`main(argv)`'s exit code, asserted to be 0 to 3 with no traceback on stderr.

    Only loopback literals resolve, so no argv reaches DNS or leaves the host.
    A host that the IDNA codec refuses still reaches the real getaddrinfo, and
    a non-ASCII one the real bind, which refuse it before any lookup (bind
    passes an ASCII host to the resolver as it is). Serving returns at once."""
    real_getaddrinfo, real_bind = socket.getaddrinfo, socket.socket.bind

    def getaddrinfo(host, *args, **kwargs):
        if not (_loopback(host) or _idna_refuses(host)):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return real_getaddrinfo(host, *args, **kwargs)

    def bind(sock, address):
        if not (_loopback(address[0]) or (not address[0].isascii() and _idna_refuses(address[0]))):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return real_bind(sock, address)

    with monkeypatch.context() as patch:
        patch.delenv("SCOTCLOUD_URL", raising=False)
        patch.delenv("SCOTCLOUD_PORT", raising=False)
        patch.setattr(socket, "getaddrinfo", getaddrinfo)
        patch.setattr(socket.socket, "bind", bind)
        patch.setattr(wire.HttpServer, "serve_forever", lambda server: None)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert 0 <= code <= 3, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return code


class TestNoTraceback:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--host=\udc80", "--port=0"],  # a host byte that is not UTF-8 failed in bind
            ["serve", "--host=..\u00e9"],  # a non-ASCII host that IDNA refuses failed in bind
            ["import", "--in={root}/\x00", "--store={root}/new"],  # NUL in a path failed in open
            ["attach", "--parent=mouse", "--child=mouse", "--url=http://[::1]\udc80"],  # past the ] failed in getaddrinfo
            ["attach", "--parent=mouse", "--child=mouse", "--url=http://[::1]a..b"],
            ["simulate", "--script={root}/bots.txt", f"--units={10**20}"],  # built one unit per count
            ["cloud", "--resource=mouse", "--url=--"],  # argparse gave the URL as []
        ],
    )
    def test_command_lines_that_failed_exit_0_to_3_without_a_traceback(self, monkeypatch, command_root, argv):
        _exit_code_without_a_traceback(monkeypatch, [arg.format(root=command_root) for arg in argv])

    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_command_line_exits_0_to_3_without_a_traceback(self, monkeypatch, command_root, data):
        _exit_code_without_a_traceback(monkeypatch, data.draw(command_lines(command_root)))
