import random
import threading

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from scotcloud.model import AnnotationStore, VocabConfig
from scotcloud.rdfxml import Iri, parse, serialize
from scotcloud import model
from scotcloud.service import (
    AnnotationService,
    ApiRequest,
    Page,
    PageError,
    ServiceConfig,
    StoreLoadError,
    decode_page,
    load_config,
    paginate,
    parse_event_line,
    render_tree,
    request_from_url,
    restore_store,
    snapshot_store,
)

from conftest import TAGGER, fetch_full, seed_mouse, store_state

VOCAB = VocabConfig()


class TestPaging:
    def test_small_body_is_single_page(self):
        pages = paginate(b"hello", 2048)
        assert [(p.index, p.total, p.payload) for p in pages] == [(1, 1, b"hello")]

    def test_empty_body_is_one_empty_page(self):
        pages = paginate(b"", 2048)
        assert pages[0].encode() == b"page 1/1 0\n"

    def test_5000_byte_body_makes_three_pages(self):
        body = bytes(random.Random(0).randrange(256) for _ in range(5000))
        pages = paginate(body, 2048)
        # chunk oracle: cap 2048 minus the 32-byte header reserve
        assert len(pages) == -(-5000 // (2048 - 32)) == 3
        assert b"".join(p.payload for p in pages) == body

    def test_every_page_respects_cap_header_included(self):
        rng = random.Random(1)
        for _ in range(50):
            body = bytes(rng.randrange(256) for _ in range(rng.randint(0, 10000)))
            for page in paginate(body, 2048):
                assert len(page.encode()) <= 2048

    @settings(max_examples=60)
    @given(st.binary(max_size=8192), st.integers(min_value=64, max_value=4096))
    def test_paginate_concat_identity(self, body, cap):
        pages = paginate(body, cap)
        assert b"".join(p.payload for p in pages) == body
        assert all(len(p.encode()) <= cap for p in pages)

    def test_decode_inverts_encode(self):
        page = Page(2, 3, b"abc\ndef")
        assert decode_page(page.encode()) == page

    def test_decode_rejects_bad_headers(self):
        for raw in [b"", b"nope", b"page 1/1 4\nabc", b"page x/1 0\n"]:
            with pytest.raises(PageError):
                decode_page(raw)

    def test_page_index_invariant(self):
        with pytest.raises(ValueError):
            Page(0, 1, b"")
        with pytest.raises(ValueError):
            Page(4, 3, b"")


class TestRequestParsing:
    def test_query_parameters_are_decoded(self):
        request = request_from_url("/tag?resource=mouse&tag=two+words&tagger=abc")
        assert request.operation == "tag"
        assert request.params == {"resource": "mouse", "tag": "two words", "tagger": "abc"}
        assert request.page == 0

    def test_page_parameter_is_split_out(self):
        request = request_from_url("/cloud?resource=mouse&page=3")
        assert request.page == 3
        assert "page" not in request.params

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            request_from_url("/nonsense?x=1")


class TestTagEndpoint:
    def test_third_laser_reports_three(self, service):
        for expected in (b"ok laser 1", b"ok laser 2", b"ok laser 3"):
            response = service.handle(
                ApiRequest("tag", {"resource": "mouse", "tag": "laser", "tagger": str(TAGGER)})
            )
            assert response.status == 200
            assert response.page.payload == expected

    def test_fresh_resource_reports_one(self, service):
        response = service.handle(
            ApiRequest("tag", {"resource": "pen", "tag": "ink", "tagger": str(TAGGER)})
        )
        assert response.page.payload == b"ok ink 1"

    def test_missing_tagger_is_400_missing(self, service):
        response = service.handle(ApiRequest("tag", {"resource": "pen", "tag": "ink"}))
        assert response.status == 400
        assert response.page.payload == b"missing"
        assert service.store.events == []

    def test_unnormalizable_tag_is_400_and_atomic(self, service):
        response = service.handle(
            ApiRequest("tag", {"resource": "pen", "tag": "   ", "tagger": str(TAGGER)})
        )
        assert response.status == 400
        assert response.page.payload == b"badtag"
        assert service.store.events == []

    def test_bad_tagger_token(self, service):
        response = service.handle(
            ApiRequest("tag", {"resource": "pen", "tag": "ink", "tagger": "not-a-uuid"})
        )
        assert response.status == 400
        assert response.page.payload == b"badtagger"


class TestCloudEndpoint:
    def test_small_cloud_is_one_page_containing_document(self, service):
        service.handle(ApiRequest("tag", {"resource": "pen", "tag": "ink", "tagger": str(TAGGER)}))
        response = service.handle(ApiRequest("cloud", {"resource": "pen"}))
        assert response.status == 200
        assert response.page.total == 1
        # cloud typing + (tag link, tag typing, frequency) for the single tag
        assert len(parse(response.page.payload.decode())) == 4

    def test_mouse_cloud_reports_laser_three(self, service):
        seed_mouse(service)
        first = service.handle(ApiRequest("cloud", {"resource": "mouse"}))
        assert first.status == 200
        assert "scot:ownAFrequency" in first.page.payload.decode()
        document = fetch_full(service, "cloud", {"resource": "mouse"}).decode()
        assert ">3.0</scot:ownAFrequency>" in document

    def test_large_cloud_pages_reassemble_to_direct_serialization(self, service):
        for i in range(120):
            service.handle(
                ApiRequest("tag", {"resource": "big", "tag": f"tag{i:03d}", "tagger": str(TAGGER)})
            )
        direct = serialize(
            model.cloud_to_rdf(service.store.cloud_of(VOCAB.resource_iri("big")), VOCAB)
        ).encode()
        assert len(direct) > 5000
        first = service.handle(ApiRequest("cloud", {"resource": "big"})).page
        collected = {1: first.payload}
        for i in range(1, first.total):
            page = service.handle(ApiRequest("cloud", {"resource": "big"}, page=i)).page
            collected[page.index] = page.payload
        # chunk/reassemble oracle: ordered concatenation equals the document
        assert b"".join(collected[i] for i in sorted(collected)) == direct
        assert first.total == -(-len(direct) // (2048 - 32))

    def test_unknown_resource_is_valid_empty_cloud(self, service):
        response = service.handle(ApiRequest("cloud", {"resource": "ghost"}))
        assert response.status == 200
        graph = parse(response.page.payload.decode())
        assert len(graph) == 1

    def test_page_out_of_range_is_400_badpage(self, service):
        seed_mouse(service)
        response = service.handle(ApiRequest("cloud", {"resource": "mouse"}, page=9))
        assert response.status == 400
        assert response.page.payload == b"badpage"

    def test_missing_resource_is_400(self, service):
        response = service.handle(ApiRequest("cloud", {}))
        assert response.status == 400
        assert response.page.payload == b"missing"


def parse_tree_text(text: str) -> dict[str, str]:
    """Independent parse-back oracle for the indented tree format."""
    parent: dict[str, str] = {}
    stack: list[str] = []
    for line in text.splitlines():
        depth = (len(line) - len(line.lstrip(" "))) // 2
        label = line.strip().rsplit(" (", 1)[0]
        stack = stack[:depth]
        if stack:
            parent[label] = stack[-1]
        stack.append(label)
    return parent


class TestMapEndpoint:
    def seed_shoe(self, service):
        for pair in [("shoe", "rubber"), ("rubber", "sole"), ("rubber", "heel")]:
            response = service.handle(
                ApiRequest("attach", {"parent": pair[0], "child": pair[1], "tagger": str(TAGGER)})
            )
            assert response.status == 200

    def test_two_level_map_text(self, service):
        self.seed_shoe(service)
        response = service.handle(ApiRequest("map", {"root": "shoe", "depth": "2"}))
        assert response.status == 200
        text = response.page.payload.decode()
        lines = text.splitlines()
        assert lines[0] == "shoe (0)"
        assert lines[1] == "  rubber (0)"
        assert set(lines[2:]) == {"    heel (0)", "    sole (0)"}

    def test_depth_one_on_leaf_is_single_line(self, service):
        self.seed_shoe(service)
        response = service.handle(ApiRequest("map", {"root": "sole", "depth": "1"}))
        assert response.page.payload.decode() == "sole (0)\n"

    def test_tree_text_parses_back_to_parent_map(self, service):
        self.seed_shoe(service)
        service.handle(ApiRequest("attach", {"parent": "sole", "child": "grip", "tagger": str(TAGGER)}))
        response = service.handle(ApiRequest("map", {"root": "shoe", "depth": "5"}))
        parent = parse_tree_text(response.page.payload.decode())
        assert parent == service.store.maps["shoe"].parent

    def test_frequencies_come_from_root_resource_cloud(self, service):
        self.seed_shoe(service)
        for _ in range(2):
            service.handle(
                ApiRequest("tag", {"resource": "shoe", "tag": "rubber", "tagger": str(TAGGER)})
            )
        response = service.handle(ApiRequest("map", {"root": "shoe", "depth": "1"}))
        assert response.page.payload.decode() == "shoe (0)\n  rubber (2)\n"

    def test_siblings_are_in_rank_order(self, service):
        self.seed_shoe(service)
        for _ in range(3):
            service.handle(ApiRequest("tag", {"resource": "shoe", "tag": "heel", "tagger": str(TAGGER)}))
        response = service.handle(ApiRequest("map", {"root": "shoe", "depth": "2"}))
        lines = response.page.payload.decode().splitlines()
        assert lines[2:] == ["    heel (3)", "    sole (0)"]

    def test_unknown_root_is_404(self, service):
        response = service.handle(ApiRequest("map", {"root": "nowhere"}))
        assert response.status == 404
        assert response.page.payload == b"unknown"

    def test_bad_depth_is_400(self, service):
        self.seed_shoe(service)
        for depth in ["0", "-3", "x"]:
            response = service.handle(ApiRequest("map", {"root": "shoe", "depth": depth}))
            assert response.status == 400
            assert response.page.payload == b"baddepth"


class TestAttachEndpoint:
    def test_attach_returns_ok(self, service):
        response = service.handle(
            ApiRequest("attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        )
        assert response.status == 200
        assert response.page.payload == b"ok"

    def test_cycle_is_conflict_with_body_cycle(self, service):
        service.handle(ApiRequest("attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)}))
        response = service.handle(
            ApiRequest("attach", {"parent": "rubber", "child": "shoe", "tagger": str(TAGGER)})
        )
        assert response.status == 409
        assert response.page.payload == b"cycle"

    def test_already_parented_child_is_conflict(self, service):
        service.handle(ApiRequest("attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)}))
        response = service.handle(
            ApiRequest("attach", {"parent": "boot", "child": "rubber", "tagger": str(TAGGER)})
        )
        assert response.status == 409
        assert response.page.payload == b"parented"

    def test_failed_attach_leaves_maps_unchanged(self, service):
        service.handle(ApiRequest("attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)}))
        before = store_state(service.store)
        service.handle(ApiRequest("attach", {"parent": "rubber", "child": "shoe", "tagger": str(TAGGER)}))
        assert store_state(service.store) == before


class TestExportEndpoint:
    def test_export_contains_clouds_and_edges(self, service):
        seed_mouse(service)
        service.handle(ApiRequest("attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)}))
        document = fetch_full(service, "export", {}).decode()
        assert "TagCloud" in document
        assert "skos:broader" in document
        graph = parse(document)
        rebuilt = model.store_from_graph(graph, VOCAB)
        assert store_state(rebuilt)[0] == store_state(service.store)[0]
        assert store_state(rebuilt)[1] == store_state(service.store)[1]


class TestPersistence:
    def random_store(self, seed=0) -> AnnotationStore:
        rng = random.Random(seed)
        store = AnnotationStore()
        for _ in range(200):
            store.record(
                model.AnnotationEvent(
                    rng.randint(0, 10_000),
                    TAGGER,
                    VOCAB.mint(f"res{rng.randint(0, 9)}"),
                    f"tag{rng.randint(0, 30)}",
                )
            )
        store.attach("shoe", "rubber")
        store.attach("rubber", "sole")
        return store

    def test_snapshot_restore_roundtrip(self, tmp_path):
        store = self.random_store()
        snapshot_store(store, str(tmp_path / "snap"))
        back = restore_store(str(tmp_path / "snap"))
        assert store_state(back) == store_state(store)
        assert len(back.events) == len(store.events)

    def test_snapshot_restore_keeps_every_map_shape(self, tmp_path):
        # random attaches grow trees downward, sideways and upward; the
        # written edge order has to replay without a refusal
        rng = random.Random(3)
        store = AnnotationStore()
        for _ in range(400):
            try:
                store.attach(f"n{rng.randrange(60)}", f"n{rng.randrange(60)}")
            except model.AttachError:
                pass
        snapshot_store(store, str(tmp_path / "snap"))
        assert store_state(restore_store(str(tmp_path / "snap"))) == store_state(store)

    def test_restore_missing_directory_errors(self, tmp_path):
        with pytest.raises(StoreLoadError):
            restore_store(str(tmp_path / "nothing"))

    def test_restore_corrupt_log_errors(self, tmp_path):
        target = tmp_path / "snap"
        target.mkdir()
        (target / "events.log").write_text("not a log line\n", "utf-8")
        with pytest.raises(StoreLoadError):
            restore_store(str(target))

    def test_restore_corrupt_snapshot_errors(self, tmp_path):
        target = tmp_path / "snap"
        target.mkdir()
        (target / "snapshot.rdf").write_text("<broken", "utf-8")
        with pytest.raises(StoreLoadError):
            restore_store(str(target))

    def test_snapshot_of_empty_store(self, tmp_path):
        snapshot_store(AnnotationStore(), str(tmp_path / "snap"))
        assert [p.name for p in (tmp_path / "snap").iterdir()] == ["events.log"]
        assert (tmp_path / "snap" / "events.log").read_text("utf-8") == ""
        assert store_state(restore_store(str(tmp_path / "snap"))) == ({}, {})

    def test_event_log_line_roundtrip(self):
        event = model.AnnotationEvent(1234, TAGGER, VOCAB.mint("mouse"), "two words")
        from scotcloud.service import format_event_line

        line = format_event_line(event)
        assert line == f"1234\t{TAGGER}\thttp://yourdns.com/rdfs/mouse.rdf\ttwo words\n"
        assert parse_event_line(line) == event

    def test_service_write_through_persistence(self, tmp_path):
        config = ServiceConfig(store_path=str(tmp_path / "live"))
        service = AnnotationService(config)
        seed_mouse(service)
        service.handle(ApiRequest("attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)}))
        born_again = AnnotationService(ServiceConfig(store_path=str(tmp_path / "live")))
        assert store_state(born_again.store) == store_state(service.store)

    def test_attach_appends_one_log_line_and_rewrites_nothing(self, tmp_path):
        live = tmp_path / "live"
        service = AnnotationService(ServiceConfig(store_path=str(live)))
        seed_mouse(service)
        before = (live / "events.log").read_bytes()
        response = service.handle_url(f"/attach?parent=Shoe&child=%20rubber%20&tagger={TAGGER}")
        assert response.status == 200
        assert (live / "events.log").read_bytes() == before + b"attach\tshoe\trubber\n"
        assert [p.name for p in live.iterdir()] == ["events.log"]

    def test_refused_attach_line_errors(self, tmp_path):
        target = tmp_path / "snap"
        target.mkdir()
        (target / "events.log").write_text("attach\tshoe\trubber\nattach\tboot\trubber\n", "utf-8")
        with pytest.raises(StoreLoadError, match="already has a parent"):
            restore_store(str(target))

    def test_line_separator_characters_in_iri_survive_restart(self, tmp_path):
        config = ServiceConfig(store_path=str(tmp_path / "live"))
        service = AnnotationService(config)
        for resource in ("a%E2%80%A8b", "c%C2%85d"):
            response = service.handle_url(
                f"/tag?resource=http://example.org/{resource}&tag=laser&tagger={TAGGER}"
            )
            assert response.status == 200
        reborn = AnnotationService(config)
        assert reborn.store.cloud_of(Iri("http://example.org/a\u2028b")).frequencies == {"laser": 1}
        assert store_state(reborn.store) == store_state(service.store)

    def test_log_cut_at_every_byte_restores_a_prefix(self, tmp_path, caplog):
        mutations = [
            "/tag?resource=mouse&tag=laser",
            "/attach?parent=shoe&child=rubber",
            "/tag?resource=mouse&tag=Caf%C3%A9",
            "/attach?parent=boot&child=shoe",
            "/tag?resource=http://example.org/x%E2%80%A8y&tag=optical",
            "/attach?parent=rubber&child=sole",
        ]
        live = tmp_path / "live"
        service = AnnotationService(ServiceConfig(store_path=str(live)))
        states = [store_state(service.store)]
        for mutation in mutations:
            assert service.handle_url(f"{mutation}&tagger={TAGGER}").status == 200
            states.append(store_state(service.store))
        data = (live / "events.log").read_bytes()
        assert data.count(b"\n") == len(mutations)

        target = tmp_path / "cut"
        target.mkdir()
        for cut in range(len(data) + 1):
            (target / "events.log").write_bytes(data[:cut])
            done = data[:cut].count(b"\n")
            caplog.clear()
            restored = AnnotationService(ServiceConfig(store_path=str(target)))
            assert store_state(restored.store) == states[done], cut
            torn = cut > 0 and data[cut - 1 : cut] != b"\n"
            assert any("unterminated" in r.getMessage() for r in caplog.records) == torn
            # the torn tail is gone from disk, so the next write is a line of its own
            assert restored.handle_url(f"/tag?resource=after&tag=next&tagger={TAGGER}").status == 200
            clouds, maps = store_state(restore_store(str(target)))
            assert clouds.pop(VOCAB.resource_iri("after")) == {"next": 1}
            assert (clouds, maps) == states[done], cut

    def legacy_directory(self, path, store: AnnotationStore) -> None:
        """Write a directory the way earlier versions did: RDF snapshot plus a tag-only log."""
        from scotcloud.service import format_event_line

        path.mkdir()
        (path / "snapshot.rdf").write_text(serialize(model.store_to_graph(store, VOCAB)), "utf-8")
        (path / "events.log").write_text("".join(map(format_event_line, store.events)), "utf-8")

    def test_legacy_directory_restores_and_takes_new_attaches(self, tmp_path):
        store = self.random_store()
        self.legacy_directory(tmp_path / "old", store)
        assert store_state(restore_store(str(tmp_path / "old"))) == store_state(store)

        config = ServiceConfig(store_path=str(tmp_path / "old"))
        service = AnnotationService(config)
        assert store_state(service.store) == store_state(store)
        response = service.handle(ApiRequest("attach", {"parent": "sole", "child": "tread", "tagger": str(TAGGER)}))
        assert response.status == 200
        store.attach("sole", "tread")
        assert store_state(AnnotationService(config).store) == store_state(store)

    def test_snapshot_store_replaces_a_legacy_directory(self, tmp_path):
        store = self.random_store()
        self.legacy_directory(tmp_path / "old", store)
        snapshot_store(restore_store(str(tmp_path / "old")), str(tmp_path / "old"))
        assert [p.name for p in (tmp_path / "old").iterdir()] == ["events.log"]
        assert store_state(restore_store(str(tmp_path / "old"))) == store_state(store)


class TestHttpWire:
    def test_tag_cloud_map_attach_over_http(self, live_server):
        url, svc = live_server
        r = requests.get(f"{url}/tag", params={"resource": "mouse", "tag": "laser", "tagger": str(TAGGER)})
        assert r.status_code == 200
        assert r.content == b"page 1/1 10\nok laser 1"

        r = requests.get(f"{url}/attach", params={"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        assert r.status_code == 200

        r = requests.get(f"{url}/cloud", params={"resource": "mouse"})
        page = decode_page(r.content)
        assert b"laser" in page.payload

        r = requests.get(f"{url}/map", params={"root": "shoe", "depth": 1})
        assert decode_page(r.content).payload == b"shoe (0)\n  rubber (0)\n"

        r = requests.get(f"{url}/export")
        assert decode_page(r.content).total == 1

    def test_error_statuses_over_http(self, live_server):
        url, _ = live_server
        assert requests.get(f"{url}/tag").status_code == 400
        assert requests.get(f"{url}/map", params={"root": "ghost"}).status_code == 404
        assert requests.get(f"{url}/bogus").status_code == 404
        assert requests.get(f"{url}/cloud", params={"resource": "x", "page": 7}).status_code == 400

    def test_concurrent_tagging_is_serialized(self, live_server):
        url, svc = live_server

        def worker():
            for _ in range(25):
                requests.get(
                    f"{url}/tag", params={"resource": "shared", "tag": "t", "tagger": str(TAGGER)}
                )

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cloud = svc.store.cloud_of(VOCAB.resource_iri("shared"))
        assert cloud.frequencies["t"] == 100


class TestRateLimiter:
    def test_disabled_by_default(self, service):
        for _ in range(200):
            assert service.handle(ApiRequest("export", {})).status == 200

    def test_optional_limiter_throttles(self):
        clock = {"now": 0}
        config = ServiceConfig(rate_limit_max=5, rate_limit_window_ms=1000)
        service = AnnotationService(config, now_ms=lambda: clock["now"])
        statuses = [service.handle(ApiRequest("export", {})).status for _ in range(7)]
        assert statuses == [200] * 5 + [429] * 2
        clock["now"] = 1001
        assert service.handle(ApiRequest("export", {})).status == 200


class TestConfigFile:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "svc.conf"
        path.write_text("# comment\nport=9000\nstore=/tmp/x\npage_cap=512\n", "utf-8")
        config = load_config(str(path))
        assert config.port == 9000
        assert config.store_path == "/tmp/x"
        assert config.page_cap == 512

    def test_bad_line_is_rejected(self, tmp_path):
        path = tmp_path / "svc.conf"
        path.write_text("nonsense\n", "utf-8")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_page_cap_floor(self):
        with pytest.raises(ValueError):
            ServiceConfig(page_cap=32)


class TestRenderTree:
    def test_single_node(self):
        from scotcloud.model import TopicMap

        assert render_tree(TopicMap("only"), {}) == "only (0)\n"
