import contextlib
import copy
import errno
import hashlib
import http.client
import io
import os
import random
import shutil
import socket
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlencode, urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scotcloud.model import AnnotationStore, VocabConfig
from scotcloud.rdfxml import Iri, parse, serialize
from scotcloud.sim import build_query
from scotcloud import cli, model, rdfxml
from scotcloud import service as service_module
from scotcloud.service import (
    OPERATIONS,
    AnnotationService,
    Page,
    PageError,
    PageNumberError,
    ServiceConfig,
    StoreLoadError,
    decode_page,
    format_event_line,
    load_config,
    paginate,
    parse_digits,
    render_tree,
    request_from_url,
    restore_store,
    snapshot_store,
)

from conftest import TAGGER, ask, cyclic_garbage, fetch_full, random_forest, seed_mouse, store_state
from scotcloud import wire
from scotcloud.wire import HttpServer, HttpTransport

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
        for raw in [b"", b"nope", b"page 1/1 4\nabc", b"page x/1 0\n", b"page 0/0 0\n", b"page 3/2 0\n",
                    b"page 1_0/10 3\nabc", b"page +1/1 3\nabc", b"page 1/1 +3\nabc", b"page 1/ 1 3\nabc",
                    b"page \xd9\xa1/1 3\nabc", b"page " + b"1" * 5000 + b"/1 3\nabc"]:
            with pytest.raises(PageError):
                decode_page(raw)
        assert decode_page(b"page 01/1 3\nabc") == Page(1, 1, b"abc")  # still ASCII digits

    def test_page_index_invariant(self):
        with pytest.raises(ValueError):
            Page(0, 1, b"")
        with pytest.raises(ValueError):
            Page(4, 3, b"")


class TestRequestParsing:
    def test_query_parameters_are_decoded(self):
        operation, params, page = request_from_url("/tag?resource=mouse&tag=two+words&tagger=abc")
        assert operation == "tag"
        assert params == {"resource": "mouse", "tag": "two words", "tagger": "abc"}
        assert page == 0

    def test_page_parameter_is_split_out(self):
        _, params, page = request_from_url("/cloud?resource=mouse&page=3")
        assert page == 3
        assert "page" not in params

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            request_from_url("/nonsense?x=1")

    @pytest.mark.parametrize("page", ["+0", "%200", "%D9%A0", "1_0", "-1", "x", ""])
    def test_page_that_is_not_ascii_digits_is_400_badpage(self, page):
        response = AnnotationService().handle_url(f"/cloud?resource=mouse&page={page}")
        assert (response.status, response.page.payload) == (400, b"badpage")

    @pytest.mark.parametrize("target", ["//cloud?resource=mouse", "http://[h/cloud?resource=mouse", "/cloud/x"])
    def test_a_target_that_names_no_operation_is_404_unknown(self, target):
        response = AnnotationService().handle_url(target)
        assert (response.status, response.page.payload) == (404, b"unknown")


def _reference_request_from_url(path_query: str) -> tuple[str, dict[str, str], int]:
    """`request_from_url` as it was written over `urlsplit` and `parse_qsl`: the oracle of the one-pass reader."""
    split = urlsplit(path_query)
    operation = split.path.strip("/")
    if operation not in OPERATIONS:
        raise ValueError(f"unknown operation {operation!r}")
    params = dict(parse_qsl(split.query, keep_blank_values=True))
    page_raw = params.pop("page", "0")
    page = parse_digits(page_raw)
    if page is None:
        raise ValueError(f"bad page number {page_raw!r}")
    return operation, params, page


def _read(reader, target: str):
    """What `reader` makes of `target`: the request, its names in order, or the error's text."""
    try:
        operation, params, page = reader(target)
    except ValueError as exc:
        return "error", str(exc)
    return operation, list(params.items()), page


# The characters the two readers could split, strip or decode differently, as pieces of a target.
_TARGET_PIECES = [
    *"/?&=+%#:;[]", "\t", "\r", "\n", "\0", " ", "é", "\udce9", "%2B", "%C3", "%ZZ", "%20", "//", "http://h",
    "page", "0", "7", "resource", "tag", "cloud",
]
_PIECES = st.one_of(st.sampled_from(_TARGET_PIECES), st.text(max_size=3))
_TEXT = st.lists(_PIECES, max_size=4).map("".join)
# `name=value` fields whose names often repeat, or any run of pieces.
_QUERIES = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(["a", "a+b", "a b", "%61", "page", "", "é"]) | _TEXT, st.sampled_from(["=", ""]), _TEXT)
        .map("".join),
        max_size=5,
    ).map("&".join),
    st.lists(_PIECES, max_size=16).map("".join),
)
# A prefix, a path, mostly a `?`, then a query; any piece may hold any character.
_TARGETS = st.tuples(
    st.sampled_from(["", "/", "//", "http://h", "http://h/", "/cloud", "/tag", "cloud"]),
    st.lists(_PIECES, max_size=3).map("".join),
    st.sampled_from(["?", "?", "?", ""]),
    _QUERIES,
).map("".join)


class TestOnePassReader:
    """`request_from_url` reads every target as `urlsplit` and `parse_qsl` read it."""

    @settings(max_examples=2000, deadline=None)
    @given(_TARGETS)
    def test_it_reads_any_target_as_the_stdlib_does(self, target):
        assert _read(request_from_url, target) == _read(_reference_request_from_url, target)

    @pytest.mark.parametrize(
        "target, expected",
        [
            ("/cloud?resource=a&resource=b", ("cloud", [("resource", "b")], 0)),
            ("/cloud?resource&page=2", ("cloud", [("resource", "")], 2)),
            ("/cloud?&&resource=a&&", ("cloud", [("resource", "a")], 0)),
            ("/cloud?resource=%", ("cloud", [("resource", "%")], 0)),
            ("/cloud?resource=%ZZ", ("cloud", [("resource", "%ZZ")], 0)),
            ("/cloud?resource=%C3", ("cloud", [("resource", "\ufffd")], 0)),
            ("/cloud?resource=a+b%2Bc&x+y=1", ("cloud", [("resource", "a b+c"), ("x y", "1")], 0)),
            ("/cloud?a=b=c", ("cloud", [("a", "b=c")], 0)),
            ("/cloud?resource=a#frag&page=3", ("cloud", [("resource", "a")], 0)),
            ("/clo\tud?resource=a\tb", ("cloud", [("resource", "ab")], 0)),
            ("//cloud?resource=a", ("error", "unknown operation ''")),
            ("http://h/cloud?resource=a&page=1", ("cloud", [("resource", "a")], 1)),
            ("tag?resource=m&tag=t&tagger=x", ("tag", [("resource", "m"), ("tag", "t"), ("tagger", "x")], 0)),
            ("/cloud?page=%2B1", ("error", "bad page number '+1'")),
            ("/nonsense?x=1", ("error", "unknown operation 'nonsense'")),
        ],
    )
    def test_fixed_targets(self, target, expected):
        assert _read(request_from_url, target) == expected
        assert _read(_reference_request_from_url, target) == expected

    def test_only_a_bad_page_raises_page_number_error(self):
        with pytest.raises(PageNumberError):
            request_from_url("/cloud?resource=a&page=x")
        with pytest.raises(ValueError) as raised:
            request_from_url("http://[h/cloud")
        assert not isinstance(raised.value, PageNumberError)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80), st.integers(0, 3000))
    def test_a_one_page_answer_is_the_page_paginate_makes(self, text, cap):
        service = AnnotationService()
        service.config.page_cap = cap
        try:
            expected = paginate(text.encode("utf-8"), cap)
        except ValueError:
            expected = None  # a cap below the least
        if expected is None or len(expected) > 1:
            with pytest.raises(ValueError):
                service._answer(400, text)
        else:
            assert service._answer(400, text).encode() == expected[0].encode()


class TestTagEndpoint:
    def test_third_laser_reports_three(self, service):
        for expected in (b"ok laser 1", b"ok laser 2", b"ok laser 3"):
            response = ask(service, "tag", {"resource": "mouse", "tag": "laser", "tagger": str(TAGGER)})
            assert response.status == 200
            assert response.page.payload == expected

    def test_fresh_resource_reports_one(self, service):
        response = ask(service, "tag", {"resource": "pen", "tag": "ink", "tagger": str(TAGGER)})
        assert response.page.payload == b"ok ink 1"

    def test_missing_tagger_is_400_missing(self, service):
        response = ask(service, "tag", {"resource": "pen", "tag": "ink"})
        assert response.status == 400
        assert response.page.payload == b"missing"
        assert service.store.events == []

    def test_unnormalizable_tag_is_400_and_atomic(self, service):
        response = ask(service, "tag", {"resource": "pen", "tag": "   ", "tagger": str(TAGGER)})
        assert response.status == 400
        assert response.page.payload == b"badtag"
        assert service.store.events == []

    def test_bad_tagger_token(self, service):
        response = ask(service, "tag", {"resource": "pen", "tag": "ink", "tagger": "not-a-uuid"})
        assert response.status == 400
        assert response.page.payload == b"badtagger"


class TestCloudEndpoint:
    def test_small_cloud_is_one_page_containing_document(self, service):
        ask(service, "tag", {"resource": "pen", "tag": "ink", "tagger": str(TAGGER)})
        response = ask(service, "cloud", {"resource": "pen"})
        assert response.status == 200
        assert response.page.total == 1
        # cloud typing + (tag link, tag typing, frequency) for the single tag
        assert len(parse(response.page.payload.decode())) == 4

    def test_mouse_cloud_reports_laser_three(self, service):
        seed_mouse(service)
        first = ask(service, "cloud", {"resource": "mouse"})
        assert first.status == 200
        assert "scot:ownAFrequency" in first.page.payload.decode()
        document = fetch_full(service, "cloud", {"resource": "mouse"}).decode()
        assert ">3.0</scot:ownAFrequency>" in document

    def test_large_cloud_pages_reassemble_to_direct_serialization(self, service):
        for i in range(120):
            ask(service, "tag", {"resource": "big", "tag": f"tag{i:03d}", "tagger": str(TAGGER)})
        direct = serialize(
            model.cloud_to_rdf(service.store.cloud_of(VOCAB.resource_iri("big")), VOCAB)
        ).encode()
        assert len(direct) > 5000
        first = ask(service, "cloud", {"resource": "big"}).page
        collected = {1: first.payload}
        for i in range(1, first.total):
            page = ask(service, "cloud", {"resource": "big"}, i).page
            collected[page.index] = page.payload
        # chunk/reassemble oracle: ordered concatenation equals the document
        assert b"".join(collected[i] for i in sorted(collected)) == direct
        assert first.total == -(-len(direct) // (2048 - 32))

    def test_unknown_resource_is_valid_empty_cloud(self, service):
        response = ask(service, "cloud", {"resource": "ghost"})
        assert response.status == 200
        graph = parse(response.page.payload.decode())
        assert len(graph) == 1

    def test_page_out_of_range_is_400_badpage(self, service):
        seed_mouse(service)
        response = ask(service, "cloud", {"resource": "mouse"}, 9)
        assert response.status == 400
        assert response.page.payload == b"badpage"

    def test_missing_resource_is_400(self, service):
        response = ask(service, "cloud", {})
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
            response = ask(service, "attach", {"parent": pair[0], "child": pair[1], "tagger": str(TAGGER)})
            assert response.status == 200

    def test_two_level_map_text(self, service):
        self.seed_shoe(service)
        response = ask(service, "map", {"root": "shoe", "depth": "2"})
        assert response.status == 200
        text = response.page.payload.decode()
        lines = text.splitlines()
        assert lines[0] == "shoe (0)"
        assert lines[1] == "  rubber (0)"
        assert set(lines[2:]) == {"    heel (0)", "    sole (0)"}

    def test_depth_one_on_leaf_is_single_line(self, service):
        self.seed_shoe(service)
        response = ask(service, "map", {"root": "sole", "depth": "1"})
        assert response.page.payload.decode() == "sole (0)\n"

    def test_tree_text_parses_back_to_parent_map(self, service):
        self.seed_shoe(service)
        ask(service, "attach", {"parent": "sole", "child": "grip", "tagger": str(TAGGER)})
        response = ask(service, "map", {"root": "shoe", "depth": "5"})
        parent = parse_tree_text(response.page.payload.decode())
        assert parent == service.store.maps["shoe"].parent

    def test_frequencies_come_from_root_resource_cloud(self, service):
        self.seed_shoe(service)
        for _ in range(2):
            ask(service, "tag", {"resource": "shoe", "tag": "rubber", "tagger": str(TAGGER)})
        response = ask(service, "map", {"root": "shoe", "depth": "1"})
        assert response.page.payload.decode() == "shoe (0)\n  rubber (2)\n"

    def test_siblings_are_in_rank_order(self, service):
        self.seed_shoe(service)
        for _ in range(3):
            ask(service, "tag", {"resource": "shoe", "tag": "heel", "tagger": str(TAGGER)})
        response = ask(service, "map", {"root": "shoe", "depth": "2"})
        lines = response.page.payload.decode().splitlines()
        assert lines[2:] == ["    heel (3)", "    sole (0)"]

    def test_unknown_root_is_404(self, service):
        response = ask(service, "map", {"root": "nowhere"})
        assert response.status == 404
        assert response.page.payload == b"unknown"

    def test_root_whose_name_is_taken_as_an_iri_but_is_not_one_is_400_badtag(self, service):
        # A name with "://" names its resource itself, as in /cloud and /tag.
        assert service.handle_url("/map?root=a://b%20c").page.payload == b"unknown"
        assert service.handle_url(f"/attach?parent=a://b%20c&child=x&tagger={TAGGER}").ok
        response = service.handle_url("/map?root=a://b%20c")
        assert (response.status, response.page.payload) == (400, b"badtag")
        assert service.handle_url("/cloud?resource=a://b%20c").page.payload == b"badtag"
        assert service.handle_url("/map?root=x").page.payload == b"x (0)\n"

    def test_bad_depth_is_400(self, service):
        self.seed_shoe(service)
        for depth in ["0", "-3", "x", "1_0", "+1", " 1", "\u0661", "", "9" * 5000]:
            response = ask(service, "map", {"root": "shoe", "depth": depth})
            assert response.status == 400
            assert response.page.payload == b"baddepth"

    def test_huge_depth_answers_the_whole_tree_at_once(self):
        store = random_forest(random.Random(49), 49)
        service = AnnotationService(store=store)
        for root, tree in store.maps.items():
            whole = fetch_full(service, "map", {"root": root, "depth": str(max(1, tree.depth()))})
            started = time.perf_counter()
            huge = fetch_full(service, "map", {"root": root, "depth": str(10**12)})
            assert time.perf_counter() - started < 0.5
            assert huge == whole

    def test_attach_keeps_the_index_and_a_map_reads_no_whole_tree(self, service, monkeypatch):
        for k in range(1, 400):
            assert service.handle_url(f"/attach?parent=n{(k - 1) // 4}&child=n{k}&tagger={TAGGER}").ok
        assert service.handle_url("/map?root=n0&depth=1").ok  # the first read builds the index
        tree = service.store.maps["n0"]
        index = tree._children
        children = model.TopicMap.children

        def not_of_the_store(self):
            assert self is not tree, "children() over a whole tree of the store"
            return children(self)

        monkeypatch.setattr(model.TopicMap, "children", not_of_the_store)
        for k in range(400, 420):
            assert service.handle_url(f"/attach?parent=n{k % 7}&child=n{k}&tagger={TAGGER}").ok
            for root in ("n0", f"n{k % 7}"):
                assert fetch_full(service, "map", {"root": root, "depth": "2"}) == render_tree(
                    service.store.subtree(root, 2), {}
                ).encode()
        assert tree._children is index  # updated in place, never built again
        assert index["n3"] == ["n13", "n14", "n15", "n16", "n402", "n409", "n416"]

    def test_a_shallow_map_asked_after_an_attach_reads_only_the_levels_it_shows_and_one_more(self, service):
        # n0 has four children, each of them four, and so on: 2,000 nodes on six levels
        for k in range(1, 2000):
            assert service.handle_url(f"/attach?parent=n{(k - 1) // 4}&child=n{k}&tagger={TAGGER}").ok
        tree = service.store.maps["n0"]
        levels = {"n0": 0}
        for k in range(1, 2000):  # a parent's number is below its child's
            levels[f"n{k}"] = levels[tree.parent[f"n{k}"]] + 1
        for depth in (1, 2, 3):
            assert service.handle_url(f"/attach?parent=n1999&child=x{depth}&tagger={TAGGER}").ok
            levels[f"x{depth}"] = levels["n1999"] + 1
            tree._children = index = _ReadLog(tree._index())
            body = fetch_full(service, "map", {"root": "n0", "depth": str(depth)})
            # a node's children are the level below it: those of level `depth` are one more than the map shows
            assert max(levels[label] for label in index.read) <= depth
            assert body == render_tree(service.store.subtree("n0", depth), {}).encode()

    def test_a_chain_deeper_than_the_recursion_limit_answers_200(self, service):
        for i in range(1500):
            response = service.handle_url(f"/attach?parent=n{i}&child=n{i + 1}&tagger={TAGGER}")
            assert response.status == 200
        first = service.handle_url("/map?root=n0&depth=2000")
        assert first.status == 200
        chunks = [first.page.payload]
        for i in range(1, first.page.total):
            response = service.handle_url(f"/map?root=n0&depth=2000&page={i}")
            assert response.status == 200
            chunks.append(response.page.payload)
        assert b"".join(chunks).decode() == "".join(f"{'  ' * i}n{i} (0)\n" for i in range(1501))


class _ReadLog(dict):
    """A children index that notes each node whose children are read."""

    def __init__(self, index: dict) -> None:
        super().__init__(index)
        self.read: set[str] = set()

    def get(self, label, default=None):
        self.read.add(label)
        return super().get(label, default)


def _calls(monkeypatch, owner, name: str) -> list[tuple]:
    """The arguments of each call to `owner.name` from now on, which still does its work."""
    calls: list[tuple] = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestAttachEndpoint:
    def test_an_attach_normalizes_and_checks_each_label_once(self, service, monkeypatch):
        normalized = _calls(monkeypatch, model, "normalize_tag")
        checks = _calls(monkeypatch, AnnotationStore, "check_attach")
        assert service.handle_url(f"/attach?parent=Shoe&child=%20rubber&tagger={TAGGER}").ok
        assert normalized == [("Shoe",), (" rubber",)]
        assert [args[1:] for args in checks] == [("shoe", "rubber")]
        assert service.store.maps["shoe"].parent == {"rubber": "shoe"}

    def test_attach_returns_ok(self, service):
        response = ask(service, "attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        assert response.status == 200
        assert response.page.payload == b"ok"

    def test_cycle_is_conflict_with_body_cycle(self, service):
        ask(service, "attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        response = ask(service, "attach", {"parent": "rubber", "child": "shoe", "tagger": str(TAGGER)})
        assert response.status == 409
        assert response.page.payload == b"cycle"

    def test_already_parented_child_is_conflict(self, service):
        ask(service, "attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        response = ask(service, "attach", {"parent": "boot", "child": "rubber", "tagger": str(TAGGER)})
        assert response.status == 409
        assert response.page.payload == b"parented"

    def test_failed_attach_leaves_maps_unchanged(self, service):
        ask(service, "attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        before = store_state(service.store)
        ask(service, "attach", {"parent": "rubber", "child": "shoe", "tagger": str(TAGGER)})
        assert store_state(service.store) == before


class TestRefusedMutation:
    """A mutation refused for its page or for the length of its answer changes nothing."""

    @pytest.mark.parametrize(
        "query, token",
        [
            ("/tag?resource=pen&tag=nib&page=1", b"badpage"),
            ("/attach?parent=pen&child=nib&page=3", b"badpage"),
            ("/tag?resource=pen&tag=nib&page=" + "1" * 5000, b"badpage"),  # more digits than int() converts
            ("/tag?resource=pen&tag=" + "y" * 2100, b"badtag"),  # "ok <label> 1" needs two pages
        ],
        ids=["tag-page", "attach-page", "tag-page-past-int", "long-tag"],
    )
    def test_refused_mutation_touches_neither_memory_nor_disk(self, tmp_path, query, token):
        log_file = tmp_path / "store" / "events.log"
        service = AnnotationService(ServiceConfig(store_path=str(log_file.parent)))
        assert service.handle_url(f"/tag?resource=pen&tag=ink&tagger={TAGGER}").ok
        before = store_state(service.store), service.store.version, log_file.read_bytes()
        response = service.handle_url(f"{query}&tagger={TAGGER}")
        assert (response.status, response.page) == (400, Page(1, 1, token))
        assert (store_state(service.store), service.store.version, log_file.read_bytes()) == before
        service.close()

    def test_page_0_of_a_mutation_is_its_answer(self, service):
        assert service.handle_url(f"/tag?resource=pen&tag=ink&tagger={TAGGER}&page=0").page.payload == b"ok ink 1"
        assert service.handle_url(f"/attach?parent=pen&child=ink&tagger={TAGGER}&page=0").page.payload == b"ok"

    def test_refusals_of_a_mutation_keep_their_order(self, service):
        # badpage comes after every check the parameters already had
        for query, answer in [
            ("/tag?resource=pen&tag=ink&page=1", (400, b"missing")),
            ("/tag?resource=pen&tag=ink&tagger=x&page=1", (400, b"badtagger")),
            (f"/tag?resource=pen&tag=%20&tagger={TAGGER}&page=1", (400, b"badtag")),
            (f"/attach?parent=pen&child=pen&tagger={TAGGER}&page=1", (409, b"cycle")),
        ]:
            response = service.handle_url(query)
            assert (response.status, response.page.payload) == answer, query
        assert service.store.version == 0

    def test_the_longest_tag_answer_that_fits_in_a_page_is_taken(self):
        cap = 64
        service = AnnotationService(ServiceConfig(page_cap=cap))
        label = "y" * (cap - service_module.PAGE_HEADER_RESERVE - len("ok  9"))
        for count in range(1, 10):
            response = service.handle_url(f"/tag?resource=pen&tag={label}&tagger={TAGGER}")
            assert response.page.payload == f"ok {label} {count}".encode()
        assert len(response.page.payload) == cap - service_module.PAGE_HEADER_RESERVE  # a full page
        response = service.handle_url(f"/tag?resource=pen&tag={label}&tagger={TAGGER}")  # count 10: one digit more
        assert (response.status, response.page.payload) == (400, b"badtag")
        assert service.store.version == 9


class TestExportEndpoint:
    def test_export_contains_clouds_and_edges(self, service):
        seed_mouse(service)
        ask(service, "attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        document = fetch_full(service, "export", {}).decode()
        assert "TagCloud" in document
        assert "skos:broader" in document
        graph = parse(document)
        rebuilt = model.store_from_graph(graph, VOCAB)
        assert store_state(rebuilt)[0] == store_state(service.store)[0]
        assert store_state(rebuilt)[1] == store_state(service.store)[1]


class TestPinnedBodies:
    """SHA-256 of whole paged bodies, recorded from the former RDF mapping
    (namespaces from the config, every read a scan of the whole graph)."""

    EXPORT_SHA256 = "20cbc9b6e3c0853d49729ca8c655aa6234a891e9fa6ad9f8715dc989e921a6a0"
    CLOUD_240_SHA256 = "26c11424d72f6c457bbc20b7a41e7f51e7a064eb9a961263e4a8eec958562360"

    def test_export_of_a_random_store_is_byte_identical(self):
        rng = random.Random(2026)
        store = random_forest(rng, 80)
        words = ["laser", "two words", "a/b", "perc%ent", "\u00fcml\u00e4ut"]
        for t in range(1500):
            label = f"{rng.choice(words)} {rng.randrange(40)}"
            store.record(model.AnnotationEvent(t, TAGGER, VOCAB.mint(f"res {rng.randrange(15)}"), label))
        body = fetch_full(AnnotationService(store=store), "export", {})
        assert hashlib.sha256(body).hexdigest() == self.EXPORT_SHA256

    def test_cloud_of_240_tags_is_byte_identical(self):
        rng = random.Random(240)
        store = AnnotationStore()
        for i in range(240):
            for _ in range(rng.randint(1, 6)):
                store.record(model.AnnotationEvent(i, TAGGER, VOCAB.mint("big"), f"w{i:03d}"))
        body = fetch_full(AnnotationService(store=store), "cloud", {"resource": "big"})
        assert hashlib.sha256(body).hexdigest() == self.CLOUD_240_SHA256


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

    def test_a_log_of_trees_grown_upward_restores_in_linear_time(self, tmp_path):
        # each line puts a new root above the last one, so work per line that grows with the tree is quadratic
        target = tmp_path / "snap"
        target.mkdir()
        (target / "events.log").write_text("".join(f"attach\tn{i + 1}\tn{i}\n" for i in range(8000)), "utf-8")
        started = time.perf_counter()
        store = restore_store(str(target))
        assert time.perf_counter() - started < 1.0
        assert list(store.maps) == ["n8000"]
        assert list(store.maps["n8000"].parent.items()) == [(f"n{i}", f"n{i + 1}") for i in range(8000)]
        assert store.tree_of("n0") is store.maps["n8000"]

    # 50,000 children of one root, attached out of sorted order, and a chain of 50,000 grown at its leaf:
    # work per line that grows with a sibling list or with the depth would take minutes.
    @pytest.mark.parametrize(
        "parent_of,depth", [(lambda i: "n0", 1), (lambda i: f"n{i - 1}", 49_999)], ids=["star", "chain"]
    )
    def test_a_log_of_50000_attaches_restores_and_maps_in_linear_time(self, tmp_path, parent_of, depth):
        target = tmp_path / "snap"
        target.mkdir()
        order = random.Random(50).sample(range(1, 50_000), 49_999) if depth == 1 else range(1, 50_000)
        (target / "events.log").write_text("".join(f"attach\t{parent_of(i)}\tn{i}\n" for i in order), "utf-8")
        started = time.perf_counter()
        service = AnnotationService(store=restore_store(str(target)))
        assert service.store.height("n0") == depth
        whole = fetch_full(service, "map", {"root": "n0", "depth": "1"})
        assert service.handle_url(f"/attach?parent=n1&child=new&tagger={TAGGER}").ok
        again = fetch_full(service, "map", {"root": "n1", "depth": "2"})
        assert time.perf_counter() - started < 5.0
        kids = sorted(f"n{i}" for i in range(1, 50_000)) if depth == 1 else ["n1"]
        assert whole.decode() == "n0 (0)\n" + "".join(f"  {kid} (0)\n" for kid in kids)
        assert again == (b"n1 (0)\n  new (0)\n" if depth == 1 else b"n1 (0)\n  n2 (0)\n    n3 (0)\n  new (0)\n")

    def test_an_attach_line_normalizes_and_checks_each_label_once(self, tmp_path, monkeypatch):
        (tmp_path / "events.log").write_text("attach\tshoe\trubber\n", "utf-8")
        normalized = _calls(monkeypatch, model, "normalize_tag")
        checks = _calls(monkeypatch, AnnotationStore, "check_attach")
        store = restore_store(str(tmp_path))
        assert normalized == [("shoe",), ("rubber",)]
        assert [args[1:] for args in checks] == [("shoe", "rubber")]
        assert store.maps["shoe"].parent == {"rubber": "shoe"}

    def test_restore_missing_directory_errors(self, tmp_path):
        with pytest.raises(StoreLoadError):
            restore_store(str(tmp_path / "nothing"))

    def test_restore_refuses_a_directory_of_other_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a store", "utf-8")
        with pytest.raises(StoreLoadError, match="holds neither"):
            restore_store(str(tmp_path))

    @pytest.mark.parametrize("leftovers", [[], ["events.log.tmp"]], ids=["empty", "unfinished-snapshot"])
    def test_a_directory_a_crash_left_empty_restarts_as_an_empty_store(self, tmp_path, leftovers):
        for name in leftovers:
            (tmp_path / name).write_text(f"1\t{TAGGER}\thttp://yourdns.com/rdfs/m", "utf-8")  # cut short
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path)))
        assert store_state(service.store) == ({}, {})
        assert service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}").ok
        service.close()
        assert store_state(restore_store(str(tmp_path))) == store_state(service.store)
        assert service.store.cloud_of(VOCAB.resource_iri("mouse")).frequencies == {"laser": 1}

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

    def test_interrupted_snapshot_leaves_the_old_log(self, tmp_path, monkeypatch):
        target = tmp_path / "snap"
        snapshot_store(self.random_store(0), str(target))
        before = (target / "events.log").read_bytes()
        written = 0

        def failing_line(event):
            nonlocal written
            written += 1
            if written == 50:
                raise OSError(28, "No space left on device")
            return service_module.format_event_line.__wrapped__(event)

        failing_line.__wrapped__ = service_module.format_event_line
        monkeypatch.setattr(service_module, "format_event_line", failing_line)
        with pytest.raises(OSError):
            snapshot_store(self.random_store(1), str(target))
        assert written == 50
        assert (target / "events.log").read_bytes() == before
        assert [p.name for p in target.iterdir()] == ["events.log"]

    def test_event_log_line_roundtrip(self, tmp_path):
        event = model.AnnotationEvent(1234, TAGGER, VOCAB.mint("mouse"), "two words")
        line = format_event_line(event)
        assert line == f"1234\t{TAGGER}\thttp://yourdns.com/rdfs/mouse.rdf\ttwo words\n"
        (tmp_path / "events.log").write_text(line, "utf-8")
        assert restore_store(str(tmp_path)).events == [event]

    def test_a_blank_line_between_two_event_lines_is_skipped(self, tmp_path):
        events = [model.AnnotationEvent(t, TAGGER, VOCAB.mint("mouse"), "laser") for t in (1, 2)]
        (tmp_path / "events.log").write_text("\n".join(map(format_event_line, events)), "utf-8")
        assert restore_store(str(tmp_path)).events == events

    def test_service_write_through_persistence(self, tmp_path):
        config = ServiceConfig(store_path=str(tmp_path / "live"))
        service = AnnotationService(config)
        seed_mouse(service)
        ask(service, "attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        born_again = AnnotationService(ServiceConfig(store_path=str(tmp_path / "live")))
        assert store_state(born_again.store) == store_state(service.store)

    def test_a_service_without_a_store_formats_no_log_line(self, monkeypatch):
        for name in ("format_event_line", "format_attach_line"):
            monkeypatch.setattr(service_module, name, lambda *args: pytest.fail("formatted a log line"))
        service = AnnotationService()
        seed_mouse(service)
        assert service.handle_url(f"/attach?parent=shoe&child=rubber&tagger={TAGGER}").status == 200
        assert service.store.maps["shoe"].parent == {"rubber": "shoe"}

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

    @pytest.mark.parametrize(
        "line, label",
        [(f"1\t{TAGGER}\thttp://yourdns.com/rdfs/m\tSole", "Sole"), ("attach\tShoe  \t SOLE", "Shoe  "),
         ("attach\tshoe\t SOLE", " SOLE")],
    )
    def test_line_with_a_label_that_is_not_normalized_errors(self, tmp_path, line, label):
        (tmp_path / "events.log").write_text(f"attach\tboot\tshoe\n{line}\n", "utf-8")
        with pytest.raises(StoreLoadError) as caught:
            restore_store(str(tmp_path))
        assert str(caught.value) == f"{tmp_path / 'events.log'}:2: label is not normalized: {label!r}"

    @pytest.mark.parametrize("line", ["attach\tshoe", "attach\tshoe\trubber\tsole"], ids=["2-fields", "4-fields"])
    def test_an_attach_line_without_3_fields_errors(self, tmp_path, line):
        (tmp_path / "events.log").write_text(f"{line}\n", "utf-8")
        with pytest.raises(StoreLoadError) as caught:
            restore_store(str(tmp_path))
        assert str(caught.value) == f"{tmp_path / 'events.log'}:1: attach line does not have 3 fields: {line!r}"

    def test_restore_holds_less_than_the_log_at_its_peak(self, tmp_path):
        # one event 20,000 times: the store is a few MB, the log over 9 MB
        line = format_event_line(model.AnnotationEvent(1, TAGGER, Iri("http://example.org/" + "r" * 400), "laser"))
        log_file = tmp_path / "events.log"
        log_file.write_text(line * 20_000, "utf-8")
        size = log_file.stat().st_size
        assert size >= 9_000_000
        tracemalloc.start()
        try:
            store = restore_store(str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(store.events) == 20_000
        assert peak < size, f"restoring a {size}-byte log peaked at {peak} bytes"

    def test_a_log_refused_before_its_torn_tail_gives_no_warning_of_it(self, tmp_path, capsys):
        (tmp_path / "events.log").write_text("not a log line\n1234", "utf-8")
        with pytest.raises(StoreLoadError, match="events.log:1: "):
            restore_store(str(tmp_path))
        assert "unterminated" not in capsys.readouterr().err

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

    def test_log_cut_at_every_byte_restores_a_prefix(self, tmp_path, capsys):
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
            capsys.readouterr()
            restored = AnnotationService(ServiceConfig(store_path=str(target)))
            assert store_state(restored.store) == states[done], cut
            torn = cut > 0 and data[cut - 1 : cut] != b"\n"
            assert ("unterminated" in capsys.readouterr().err) == torn
            # the torn tail is gone from disk, so the next write is a line of its own
            assert restored.handle_url(f"/tag?resource=after&tag=next&tagger={TAGGER}").status == 200
            clouds, maps = store_state(restore_store(str(target)))
            assert clouds.pop(VOCAB.resource_iri("after")) == {"next": 1}
            assert (clouds, maps) == states[done], cut

    @pytest.mark.parametrize("with_log", [True, False], ids=["with-log", "snapshot-only"])
    def test_a_directory_holding_snapshot_rdf_is_refused_by_name(self, tmp_path, with_log):
        # older versions kept topic maps in snapshot.rdf next to a tag-only log
        store = self.random_store()
        old = tmp_path / "old"
        old.mkdir()
        (old / "snapshot.rdf").write_text(serialize(model.store_to_graph(store, VOCAB)), "utf-8")
        if with_log:
            (old / "events.log").write_text("".join(map(format_event_line, store.events)), "utf-8")
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        for action in (
            lambda: restore_store(str(old)),
            lambda: AnnotationService(ServiceConfig(store_path=str(old))),
            lambda: snapshot_store(store, str(old)),
        ):
            with pytest.raises(StoreLoadError) as caught:
                action()
            assert str(caught.value).startswith(f"{old / 'snapshot.rdf'}: ")
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before


def http_get(url: str, path: str, params: dict | None = None) -> tuple[int, bytes]:
    """One GET on a connection of its own: (status, body)."""
    conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=10)
    try:
        conn.request("GET", f"{path}?{urlencode(params)}" if params else path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestHttpWire:
    def test_tag_cloud_map_attach_over_http(self, live_server):
        url, svc = live_server
        status, body = http_get(url, "/tag", {"resource": "mouse", "tag": "laser", "tagger": str(TAGGER)})
        assert status == 200
        assert body == b"page 1/1 10\nok laser 1"

        status, _ = http_get(url, "/attach", {"parent": "shoe", "child": "rubber", "tagger": str(TAGGER)})
        assert status == 200

        _, body = http_get(url, "/cloud", {"resource": "mouse"})
        page = decode_page(body)
        assert b"laser" in page.payload

        _, body = http_get(url, "/map", {"root": "shoe", "depth": 1})
        assert decode_page(body).payload == b"shoe (0)\n  rubber (0)\n"

        _, body = http_get(url, "/export")
        assert decode_page(body).total == 1

    def test_error_statuses_over_http(self, live_server):
        url, _ = live_server
        assert http_get(url, "/tag")[0] == 400
        assert http_get(url, "/map", {"root": "ghost"})[0] == 404
        assert http_get(url, "/bogus")[0] == 404
        assert http_get(url, "/cloud", {"resource": "x", "page": 7})[0] == 400

    def test_concurrent_tagging_is_serialized(self, live_server):
        url, svc = live_server

        def worker():
            conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=10)
            for _ in range(25):
                conn.request("GET", "/tag?" + urlencode({"resource": "shared", "tag": "t", "tagger": str(TAGGER)}))
                conn.getresponse().read()
            conn.close()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cloud = svc.store.cloud_of(VOCAB.resource_iri("shared"))
        assert cloud.frequencies["t"] == 100


class _StdlibShell(BaseHTTPRequestHandler):
    """A GET shell on http.server, which the fault mixins below bend; it serves tests of HttpTransport.

    `ThreadingHTTPServer` runs each connection on a thread of its own, and
    calls into one service must not overlap, so every call holds `lock`.
    """

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()

    def handle_url(self):
        with self.lock:
            return self.service.handle_url(self.path)

    def do_GET(self):  # noqa: N802 (http.server API)
        response = self.handle_url()
        raw = response.encode()
        self.send_response(response.status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, fmt, *args):
        pass


@contextlib.contextmanager
def http_server(service: AnnotationService, handler_mixin: type):
    """A live stdlib server whose handler has `handler_mixin` in front; yields (url, server).

    `server.connections` counts the connections the server accepted.
    """
    handler = type("Handler", (handler_mixin, _StdlibShell), {"service": service})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.connections = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", server
    finally:
        server.shutdown()
        server.server_close()


@contextlib.contextmanager
def shell_server(service: AnnotationService, monkeypatch):
    """The HttpServer over `service`, serving on a thread; yields (url, server, accepted).

    `accepted` lists the connections the server accepted, as a spy on
    `socket.accept` sees them.
    """
    server = HttpServer(service, "127.0.0.1")
    accepted = []
    real = socket.socket.accept

    def accept(sock):
        pair = real(sock)
        if sock is server.socket:
            accepted.append(pair[0])
        return pair

    monkeypatch.setattr(socket.socket, "accept", accept)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", server, accepted
    finally:
        server.shutdown()
        server.server_close()


class _Counting:
    def setup(self):
        super().setup()
        self.server.connections += 1


class _ClosesAfterEachResponse(_Counting):
    """Closes the connection after answering without saying so, as an idle timeout would."""

    def do_GET(self):
        super().do_GET()
        self.close_connection = True


class _AppliesButNeverAnswers(_Counting):
    def do_GET(self):
        self.handle_url()
        self.close_connection = True


class _CutsTheSecondResponse(_Counting):
    answered = 0

    def do_GET(self):
        if _CutsTheSecondResponse.answered == 0:
            _CutsTheSecondResponse.answered += 1
            super().do_GET()
            return
        raw = self.handle_url().encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw) + 100))
        self.end_headers()
        self.wfile.write(raw)
        self.close_connection = True


class _AppliesTheSecondButNeverAnswers(_Counting):
    """Answers every request but the second, which it applies and then closes on, as a server that dies would."""

    def do_GET(self):
        self.server.requests = getattr(self.server, "requests", 0) + 1
        if self.server.requests != 2:
            super().do_GET()
            return
        self.handle_url()
        self.close_connection = True


def _tag_query(tag: str = "t") -> str:
    return "/tag?" + urlencode({"resource": "kept", "tag": tag, "tagger": str(TAGGER)})


def _tag_page(count: int) -> bytes:
    return Page(1, 1, b"ok t %d" % count).encode()


def _kept_count(service: AnnotationService, tag: str = "t") -> int:
    return service.store.cloud_of(VOCAB.resource_iri("kept")).frequencies.get(tag, 0)


class TestUnbufferedWrites:
    def test_a_page_cap_larger_than_memory_serves_over_http(self, monkeypatch):
        service = AnnotationService(ServiceConfig(port=0, page_cap=10**12))
        seed_mouse(service)
        with shell_server(service, monkeypatch) as (url, _, accepted):
            status, body = http_get(url, "/cloud", {"resource": "mouse"})
            assert (status, body) == (200, service.handle_url("/cloud?resource=mouse").encode())
            assert http_get(url, "/tag", {"resource": "mouse", "tag": "laser", "tagger": str(TAGGER)}) == (
                200,
                b"page 1/1 10\nok laser 4",
            )
        assert len(accepted) == 2


class TestKeepAlive:
    def test_200_tags_share_one_socket_without_nagle_stalls(self, live_server):
        # With Nagle on, each response body waits ~40 ms for a delayed ACK: >= 8 s.
        url, svc = live_server
        conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=10)
        first_socket = None
        start = time.perf_counter()
        for i in range(1, 201):
            conn.request("GET", _tag_query())
            response = conn.getresponse()
            assert (response.status, response.read()) == (200, _tag_page(i))
            assert conn.sock is not None  # http.client drops a socket the server will close
            first_socket = first_socket or conn.sock
            assert conn.sock is first_socket
        elapsed = time.perf_counter() - start
        conn.close()
        assert elapsed < 2.0

    def test_malformed_request_line_gets_400_and_a_close(self, live_server):
        url, _ = live_server
        with socket.create_connection(("127.0.0.1", urlsplit(url).port), timeout=5) as sock:
            sock.sendall(b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % _tag_query().encode())
            first = b""
            while not first.endswith(_tag_page(1)):  # headers and body may come apart
                first += sock.recv(65536)
            assert first.startswith(b"HTTP/1.1 200 ")
            sock.sendall(b"GET /tag with spaces HTTP/1.1\r\nHost: x\r\n\r\n")
            rest = b""
            while chunk := sock.recv(65536):  # a hang fails with socket.timeout
                rest += chunk
        assert rest.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in rest

    def test_request_with_a_body_is_answered_and_not_kept(self, live_server):
        url, svc = live_server
        conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=5)
        conn.request("GET", _tag_query(), body=b"GET /export HTTP/1.1\r\n\r\n")
        response = conn.getresponse()
        assert (response.status, response.read()) == (200, _tag_page(1))
        assert response.will_close
        conn.close()
        assert _kept_count(svc) == 1

    def test_transport_reconnects_once_after_the_server_closed(self):
        svc = AnnotationService(ServiceConfig(port=0))
        with http_server(svc, _ClosesAfterEachResponse) as (url, server):
            transport = HttpTransport(url)
            for i in range(1, 4):
                assert transport.get(_tag_query()) == (200, _tag_page(i))
        assert server.connections == 3
        assert _kept_count(svc) == 3

    def test_tag_without_an_answer_on_a_fresh_connection_is_not_retried(self):
        svc = AnnotationService(ServiceConfig(port=0))
        with http_server(svc, _AppliesButNeverAnswers) as (url, server):
            with pytest.raises(wire.AnswerLost) as lost:
                HttpTransport(url).get(_tag_query())
        assert type(lost.value.__cause__) is http.client.RemoteDisconnected
        assert str(lost.value) == repr(lost.value.__cause__)
        assert server.connections == 1
        assert _kept_count(svc) == 1

    def test_tag_with_a_cut_response_is_not_retried(self):
        svc = AnnotationService(ServiceConfig(port=0))
        with http_server(svc, _CutsTheSecondResponse) as (url, server):
            transport = HttpTransport(url)
            assert transport.get(_tag_query()) == (200, _tag_page(1))
            with pytest.raises(wire.AnswerLost) as lost:
                transport.get(_tag_query())
        assert type(lost.value.__cause__) is http.client.IncompleteRead
        assert str(lost.value) == repr(lost.value.__cause__)
        assert server.connections == 2
        assert _kept_count(svc) == 2

    def test_tag_whose_answer_is_lost_is_not_sent_again(self):
        svc = AnnotationService(ServiceConfig(port=0))
        with http_server(svc, _AppliesTheSecondButNeverAnswers) as (url, server):
            transport = HttpTransport(url)
            assert transport.get(_tag_query()) == (200, _tag_page(1))
            with pytest.raises(wire.AnswerLost) as lost:
                transport.get(_tag_query())
        assert type(lost.value.__cause__) is http.client.RemoteDisconnected
        assert str(lost.value) == repr(lost.value.__cause__)
        assert server.connections == 2
        assert _kept_count(svc) == 2

    def test_transport_keeps_a_base_path_prefix(self, live_server):
        url, _ = live_server
        transport = HttpTransport(url + "/")
        assert transport.get("/cloud?resource=x")[0] == 200
        transport = HttpTransport(url + "/api/")  # sent as /api/cloud, which is no operation
        assert transport.get("/cloud?resource=x") == (404, Page(1, 1, b"unknown").encode())
        for url in ("ftp://127.0.0.1:1", "https://127.0.0.1:1"):
            with pytest.raises(http.client.InvalidURL):
                HttpTransport(url)

    @pytest.mark.parametrize("suffix, cause", [
        ("\x00", http.client.InvalidURL),  # a host http.client refuses, before any connect
        ("/a b", http.client.InvalidURL),  # a target it refuses, after the connect and before sending a byte
        ("/caf\xe9", UnicodeEncodeError),
    ])
    def test_a_url_http_client_refuses_never_goes_out(self, live_server, suffix, cause):
        url, svc = live_server
        with pytest.raises(wire.Unreachable) as unreachable:
            HttpTransport(url + suffix).get(_tag_query())
        assert type(unreachable.value.__cause__) is cause
        assert svc.store.version == 0

    def test_a_closed_port_is_unreachable(self):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{closed.getsockname()[1]}"
            with pytest.raises(wire.Unreachable) as unreachable:
                HttpTransport(url).get(_tag_query())
        assert isinstance(unreachable.value.__cause__, ConnectionRefusedError)


def _read_until_closed(sock: socket.socket) -> bytes:
    received = b""
    while chunk := sock.recv(1 << 20):
        received += chunk
    return received


class TestOneLoop:
    """One thread serves every connection, so no connection may hold it."""

    def test_stalled_peers_do_not_stall_the_loop(self, monkeypatch):
        service = AnnotationService(ServiceConfig(port=0, page_cap=10**12))
        resource = VOCAB.resource_iri("big")
        for i in range(30_000):
            service.store.record(model.AnnotationEvent(0, TAGGER, resource, f"tag{i}"))
        big = service.handle_url("/cloud?resource=big").encode()  # about 10 MB, built before the clock starts
        assert len(big) > 8_000_000
        request = b"GET /cloud?resource=big HTTP/1.1\r\nConnection: close\r\n\r\n"
        with shell_server(service, monkeypatch) as (url, _, _accepted):
            address = ("127.0.0.1", urlsplit(url).port)
            with contextlib.ExitStack() as stack:
                half = stack.enter_context(socket.create_connection(address, timeout=10))
                half.sendall(request[:30])  # half a head, and no more
                unread = stack.enter_context(socket.socket())
                unread.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                unread.settimeout(10)
                unread.connect(address)
                unread.sendall(request)
                first = unread.recv(1)  # the server is sending; most of the answer waits in it
                gone = stack.enter_context(socket.create_connection(address, timeout=10))
                gone.sendall(request)
                gone.recv(1)
                gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                gone.close()  # a reset in the middle of its answer
                start = time.perf_counter()
                assert HttpTransport(url).get(_tag_query()) == (200, _tag_page(1))
                assert time.perf_counter() - start < 1.0
                answer = first + _read_until_closed(unread)
                assert answer.endswith(b"\r\n\r\n" + big)
                assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
                assert HttpTransport(url).get(_tag_query()) == (200, _tag_page(2))

    def test_an_idle_connection_is_closed(self, monkeypatch, live_server):
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_S", 0.2)
        url, _ = live_server
        address = ("127.0.0.1", urlsplit(url).port)
        with socket.create_connection(address, timeout=5) as silent, socket.create_connection(address, timeout=5) as kept:
            start = time.perf_counter()
            kept.sendall(b"GET %s HTTP/1.1\r\n\r\n" % _tag_query().encode())
            answer = _read_until_closed(kept)  # a wait past the 5 s timeout fails
            assert answer.startswith(b"HTTP/1.1 200 OK\r\n") and answer.endswith(b"\r\n\r\n" + _tag_page(1))
            assert b"Connection: close" not in answer
            assert _read_until_closed(silent) == b""
            assert 0.2 <= time.perf_counter() - start < 2

    def test_open_connections_start_no_threads(self, live_server):
        url, _ = live_server
        address = ("127.0.0.1", urlsplit(url).port)
        threads = threading.active_count()
        with contextlib.ExitStack() as stack:
            socks = [stack.enter_context(socket.create_connection(address, timeout=5)) for _ in range(20)]
            for sock in socks:
                sock.sendall(b"GET /cloud?resource=x HTTP/1.1\r\n\r\n")
            for sock in socks:
                head, _, _ = sock.recv(65536).partition(b"\r\n")
                assert head == b"HTTP/1.1 200 OK"
            assert threading.active_count() == threads


class TestTransportReuse:
    def test_transport_sends_nothing_on_a_connection_the_server_closed(self, monkeypatch):
        sent = []
        request = http.client.HTTPConnection.request
        monkeypatch.setattr(
            http.client.HTTPConnection, "request", lambda conn, *args: sent.append(args) or request(conn, *args)
        )
        svc = AnnotationService(ServiceConfig(port=0))
        with http_server(svc, _ClosesAfterEachResponse) as (url, server):
            transport = HttpTransport(url)
            for i in range(1, 4):
                assert transport.get(_tag_query()) == (200, _tag_page(i))
        assert len(sent) == 3  # without the check each reuse fails and is sent again: 5
        assert server.connections == 3
        assert _kept_count(svc) == 3


class TestRateLimiter:
    def test_disabled_by_default(self, service):
        for _ in range(200):
            assert ask(service, "export", {}).status == 200

    def test_optional_limiter_throttles(self):
        clock = {"now": 0}
        config = ServiceConfig(rate_limit_max=5, rate_limit_window_ms=1000)
        service = AnnotationService(config, now_ms=lambda: clock["now"])
        statuses = [ask(service, "export", {}).status for _ in range(7)]
        assert statuses == [200] * 5 + [429] * 2
        clock["now"] = 1001
        assert ask(service, "export", {}).status == 200


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

    @pytest.mark.parametrize("base_uri", ["yourdns.com", "", "http://your dns.com"])
    def test_base_uri_that_is_not_an_iri_is_refused(self, base_uri):
        with pytest.raises(ValueError, match="^base_uri is not an IRI: "):
            ServiceConfig(base_uri=base_uri)

    @pytest.mark.parametrize(
        "field, value",
        [("rate_limit_max", 0), ("rate_limit_max", -3), ("rate_limit_window_ms", 0),
         ("rate_limit_window_ms", -1000)],
    )
    def test_rate_limit_that_would_break_the_limiter_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, not {value}$"):
            ServiceConfig(**{field: value})

    def test_smallest_rate_limit_is_accepted(self):
        config = ServiceConfig(rate_limit_max=1, rate_limit_window_ms=1)
        assert (config.rate_limit_max, config.rate_limit_window_ms) == (1, 1)

    @pytest.mark.parametrize("line", ["port=abc", "page_cap=", "rate_limit_max=2.5"])
    def test_value_that_does_not_parse_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "svc.conf"
        path.write_text(f"# comment\n{line}\n", "utf-8")
        key, _, value = line.partition("=")
        with pytest.raises(ValueError) as caught:
            load_config(str(path))
        assert str(caught.value) == f"{path}:2: bad value for {key}: {value!r}"

    def test_default_config_is_unchanged(self, tmp_path):
        path = tmp_path / "svc.conf"
        path.write_text("# nothing set\n", "utf-8")
        expected = ServiceConfig(8765, None, "http://yourdns.com", 2048, None, 20000)
        assert ServiceConfig() == load_config(str(path)) == expected
        assert ServiceConfig().vocab().mint("shoe") == "http://yourdns.com/rdfs/shoe.rdf"


class TestRenderTree:
    def test_single_node(self):
        from scotcloud.model import TopicMap

        assert render_tree(TopicMap("only"), {}) == "only (0)\n"

    def test_matches_former_implementation_on_random_forests(self):
        def render_by_rescan(tree, frequencies):
            lines = []

            def walk(label, level):
                lines.append(f"{'  ' * level}{label} ({frequencies.get(label, 0)})")
                for child in sorted(tree.children_of(label), key=lambda c: (-frequencies.get(c, 0), c)):
                    walk(child, level + 1)

            walk(tree.root, 0)
            return "\n".join(lines) + "\n"

        rng = random.Random(8)
        for _ in range(40):
            store = random_forest(rng, rng.randint(2, 80))
            for tree in store.maps.values():
                frequencies = {n: rng.randrange(4) for n in tree.nodes}
                assert render_tree(tree, frequencies) == render_by_rescan(tree, frequencies)


def encoded_error(token: bytes, cap: int) -> bytes:
    return paginate(token, cap)[0].encode()


def fresh_body(store: AnnotationStore, operation: str, params: dict) -> bytes:
    """The `/cloud` or `/export` document built from scratch from the store."""
    if operation == "cloud":
        return serialize(model.cloud_to_rdf(store.cloud_of(VOCAB.resource_iri(params["resource"])), VOCAB)).encode()
    return serialize(model.store_to_graph(store, VOCAB)).encode()


def fresh_read(store: AnnotationStore, operation: str, params: dict, page: int, cap: int) -> tuple[int, bytes]:
    """Reference read: status and wire bytes built from scratch from the store."""
    try:
        if operation == "map":
            if int(params["depth"]) < 1:
                return 400, encoded_error(b"baddepth", cap)
            tree = store.subtree(params["root"], int(params["depth"]))
            body = render_tree(tree, store.cloud_of(VOCAB.resource_iri(tree.root)).frequencies).encode()
        else:
            body = fresh_body(store, operation, params)
    except model.TagError:
        return 400, encoded_error(b"badtag", cap)
    except model.UnknownConceptError:
        return 404, encoded_error(b"unknown", cap)
    pages = paginate(body, cap)
    if not 0 <= page < len(pages):
        return 400, encoded_error(b"badpage", cap)
    return 200, pages[page].encode()


# Resource names double as concept labels, so a /tag can land on the
# resource whose cloud a /map of the same root reads its counts from.
# Labels that IRIs percent-encode, and a full-IRI resource that sorts among
# the minted subjects and scopes its tags under the same stem as `c1`.
FULL_IRI_C1 = "http://yourdns.com/rdfs/c1"
NAMES = ["c0", "c1", "c2", "mouse", FULL_IRI_C1]
LABELS = ["c0", "c1", "c2", "c3", "laser", "a b", "50%", "a/b", "x&y", "<3", "café"]
PAGES = st.integers(min_value=-1, max_value=24)
REQUESTS = st.one_of(
    st.tuples(st.just("tag"), st.fixed_dictionaries(
        {"resource": st.sampled_from(NAMES), "tag": st.sampled_from(LABELS)}), st.just(0)),
    st.tuples(st.just("attach"), st.fixed_dictionaries(
        {"parent": st.sampled_from(LABELS), "child": st.sampled_from(LABELS)}), st.just(0)),
    st.tuples(st.just("cloud"), st.fixed_dictionaries(
        {"resource": st.sampled_from(NAMES + [" "])}), PAGES),
    st.tuples(st.just("map"), st.fixed_dictionaries(
        {"root": st.sampled_from(LABELS + [" "]), "depth": st.sampled_from(["0", "1", "2", "3"])}), PAGES),
    st.tuples(st.just("export"), st.just({}), PAGES),
)
# A two-level map on c0, a cloud walk and a map walk with a /tag between
# their pages, and a /tag on the resource named after the map's root.
WALK_WITH_TAGS = [
    ("attach", {"parent": "c0", "child": "c1"}, 0),
    ("attach", {"parent": "c1", "child": "c2"}, 0),
    ("tag", {"resource": "c0", "tag": "c1"}, 0),
    ("cloud", {"resource": "c0"}, 0),
    ("cloud", {"resource": "c0"}, 1),
    ("tag", {"resource": "c0", "tag": "laser"}, 0),
    ("cloud", {"resource": "c0"}, 2),
    ("map", {"root": "c0", "depth": "2"}, 0),
    ("tag", {"resource": "c0", "tag": "c2"}, 0),
    ("map", {"root": "c0", "depth": "2"}, 0),
    ("map", {"root": "c0", "depth": "2"}, 1),
    ("export", {}, 3),
]

# Every subject that two roles share: a resource named like one of its tags
# (c0) and like a concept (c1), a full-IRI resource among the minted subjects
# whose scoped tags are those of c1, with another count, and labels that
# IRIs percent-encode.
SHARED_SUBJECTS = [
    ("tag", {"resource": "c0", "tag": "c0"}, 0),
    ("tag", {"resource": "c1", "tag": "a b"}, 0),
    ("tag", {"resource": FULL_IRI_C1, "tag": "a b"}, 0),
    ("tag", {"resource": FULL_IRI_C1, "tag": "a b"}, 0),
    ("tag", {"resource": FULL_IRI_C1, "tag": "café"}, 0),
    ("attach", {"parent": "c0", "child": "c1"}, 0),
    ("attach", {"parent": "x&y", "child": "<3"}, 0),
    ("cloud", {"resource": "c0"}, 0),
    ("cloud", {"resource": FULL_IRI_C1}, 0),
    ("export", {}, 0),
    ("tag", {"resource": "c1", "tag": "a b"}, 0),
    ("tag", {"resource": "c0", "tag": "c0"}, 0),
    ("cloud", {"resource": "c0"}, 0),
    ("export", {}, 1),
    ("tag", {"resource": "c1", "tag": "50%"}, 0),
    ("export", {}, 2),
]

# Three resources, one named like the root of a map; attaches among three
# concepts, some of them refused; reads of any page of every document and
# one past its end. A map here is one or two pages long. Attaches and map
# reads are drawn twice as often as other steps, so that one map is more
# often read again after a write it depends on.
GATE_RESOURCES = ["c0", "mouse", "shoe"]
GATE_CONCEPTS = ["c0", "c1", "c2"]
GATE_PAGES = st.integers(min_value=0, max_value=30)
GATE_ATTACHES = st.tuples(st.just("attach"), st.fixed_dictionaries({
    "parent": st.sampled_from(GATE_CONCEPTS), "child": st.sampled_from(GATE_CONCEPTS),
    "tagger": st.just(str(TAGGER))}), st.just(0))
GATE_MAP_READS = st.tuples(st.just("map"), st.fixed_dictionaries({
    "root": st.sampled_from(GATE_CONCEPTS[:2]), "depth": st.sampled_from(["1", "9"])}), st.integers(0, 2))
GATE_STEPS = st.one_of(
    st.tuples(st.just("tag"), st.fixed_dictionaries({
        "resource": st.sampled_from(GATE_RESOURCES), "tag": st.sampled_from(GATE_CONCEPTS),
        "tagger": st.just(str(TAGGER))}), st.just(0)),
    GATE_ATTACHES,
    GATE_ATTACHES,
    st.tuples(st.just("cloud"), st.fixed_dictionaries({"resource": st.sampled_from(GATE_RESOURCES)}), GATE_PAGES),
    GATE_MAP_READS,
    GATE_MAP_READS,
    st.tuples(st.just("export"), st.just({}), GATE_PAGES),
)
_TAG = {"tagger": str(TAGGER)}
# Each read repeats one that is cached, after a write to one thing its document depends on.
GATE_DEPENDENCIES = [
    ("attach", {"parent": "c0", "child": "c1", **_TAG}, 0),
    ("tag", {"resource": "c0", "tag": "c1", **_TAG}, 0),
    ("map", {"root": "c0", "depth": "9"}, 0),
    ("cloud", {"resource": "c0"}, 19),  # the page with the count of c1
    ("export", {}, 20),
    ("tag", {"resource": "c0", "tag": "c1", **_TAG}, 0),  # the root's cloud
    ("map", {"root": "c0", "depth": "9"}, 0),
    ("cloud", {"resource": "c0"}, 19),  # the page with the count of c1
    ("export", {}, 20),
    ("attach", {"parent": "c0", "child": "c2", **_TAG}, 0),  # the trees, at the same height
    ("map", {"root": "c0", "depth": "9"}, 0),
    ("attach", {"parent": "c1", "child": "mouse", **_TAG}, 0),  # the trees, one level deeper
    ("map", {"root": "c0", "depth": "9"}, 0),
    ("attach", {"parent": "laser", "child": "c0", **_TAG}, 0),  # a new root above
    ("map", {"root": "c0", "depth": "9"}, 0),
    ("tag", {"resource": "shoe", "tag": "laser", **_TAG}, 0),  # nothing these read but the export
    ("export", {}, 20),
]


class TestBodyCache:
    CAP = 64

    @settings(max_examples=200, deadline=None)
    @given(st.lists(GATE_STEPS, min_size=20, max_size=60))
    @example(GATE_DEPENDENCIES)
    def test_every_answer_equals_an_uncached_service_on_a_copy_of_the_store(self, steps):
        service = AnnotationService(ServiceConfig(page_cap=self.CAP))
        for operation, params, page in steps:
            target = build_query(operation, list(params.items()), page)
            uncached = AnnotationService(ServiceConfig(page_cap=self.CAP), store=copy.deepcopy(service.store))
            expected = uncached.handle_url(target)
            response = service.handle_url(target)
            assert (response.status, response.encode()) == (expected.status, expected.encode()), target

    @settings(max_examples=80, deadline=None)
    @given(st.lists(REQUESTS, max_size=30))
    @example(WALK_WITH_TAGS)
    @example(SHARED_SUBJECTS)
    def test_cached_service_matches_fresh_builds(self, requests_):
        service = AnnotationService(ServiceConfig(page_cap=self.CAP))
        reference = AnnotationStore()
        for operation, params, page in requests_:
            if operation == "tag":
                count = reference.record(
                    model.AnnotationEvent(0, TAGGER, VOCAB.resource_iri(params["resource"]), params["tag"])
                )
                expected = (200, paginate(f"ok {params['tag']} {count}".encode(), self.CAP)[0].encode())
                params = dict(params, tagger=str(TAGGER))
            elif operation == "attach":
                try:
                    reference.attach(params["parent"], params["child"])
                    expected = (200, paginate(b"ok", self.CAP)[0].encode())
                except model.AttachError as exc:
                    expected = (409, encoded_error(exc.reason.encode(), self.CAP))
                params = dict(params, tagger=str(TAGGER))
            elif page < 0:  # no page number: the target names it as it is, and it is refused before the operation
                expected = (400, encoded_error(b"badpage", self.CAP))
                params, page = dict(params, page=str(page)), 0
            else:
                expected = fresh_read(service.store, operation, params, page, self.CAP)
            response = ask(service, operation, params, page)
            assert (response.status, response.encode()) == expected, (operation, params, page)
            assert store_state(service.store) == store_state(reference)

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count document builds and record every body handed to `paginate`."""
        counted = {"builds": 0, "paginated": []}
        real_paginate = paginate

        def counting(build):
            def build_(*args, **kwargs):
                counted["builds"] += 1
                return build(*args, **kwargs)

            return build_

        def paginate_(body, cap):
            counted["paginated"].append(body)
            return real_paginate(body, cap)

        for name in ("_cloud_body", "_export_body"):
            monkeypatch.setattr(AnnotationService, name, counting(getattr(AnnotationService, name)))
        monkeypatch.setattr(service_module, "render_tree", counting(service_module.render_tree))
        monkeypatch.setattr(service_module, "paginate", paginate_)
        return counted

    @pytest.fixture
    def described(self, monkeypatch):
        """The subject of every description written, in the order they are written."""
        subjects = []
        real_describe = rdfxml.Writer.describe

        def describe_(writer, subject, properties):
            subjects.append(subject)
            return real_describe(writer, subject, properties)

        monkeypatch.setattr(rdfxml.Writer, "describe", describe_)
        return subjects

    @pytest.mark.parametrize("label, renders", [("t1", ["tag"]), ("fresh", ["tag", "cloud"])])
    @pytest.mark.parametrize("operation", ["export", "cloud"])
    def test_a_tag_rerenders_only_the_descriptions_it_changed(self, service, described, operation, label, renders):
        for i in range(50):
            for j in range(3):
                assert service.handle_url(f"/tag?resource=r{i:02d}&tag=t{j}&tagger={TAGGER}").ok
        for k in range(1, 85):  # a 4-ary concept tree three levels deep
            assert service.handle_url(f"/attach?parent=n{(k - 1) // 4:02d}&child=n{k:02d}&tagger={TAGGER}").ok
        params = {"resource": "r07"} if operation == "cloud" else {}
        fetch_full(service, operation, params)
        assert len(described) == (4 if operation == "cloud" else 50 * 4 + 84)
        described.clear()
        assert service.handle_url(f"/tag?resource=r07&tag={label}&tagger={TAGGER}").ok
        assert described == []  # a write renders nothing
        document = fetch_full(service, operation, params)
        cloud = VOCAB.resource_iri("r07")
        tag = VOCAB.mint(label) if operation == "cloud" else VOCAB.scoped_tag_iri(cloud, label)
        assert described == [{"tag": tag, "cloud": cloud}[role] for role in renders]
        assert document == fresh_body(service.store, operation, params)

    def test_the_description_cache_holds_one_entry_per_subject_and_form(self, service):
        for _ in range(5):
            assert service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}").ok
            for operation, params in (("cloud", {"resource": "mouse"}), ("export", {})):
                fetch_full(service, operation, params)
        assert len(service._descriptions) == 4  # the cloud and its tag, in each form
        for name in ("nothing", "nowhere"):  # a cloud that does not exist keeps nothing
            assert ask(service, "cloud", {"resource": name}).ok
        assert len(service._descriptions) == 4

    def seed_walks(self, service):
        for i in range(240):
            assert service.handle_url(f"/tag?resource=big&tag=tag{i:03d}&tagger={TAGGER}").ok
        # a 4-ary concept tree four levels deep (341 nodes)
        for k in range(1, 341):
            assert service.handle_url(f"/attach?parent=concept{(k - 1) // 4:04d}&child=concept{k:04d}&tagger={TAGGER}").ok

    WALKS = [("cloud", {"resource": "big"}), ("map", {"root": "concept0000", "depth": "4"}), ("export", {})]

    @pytest.mark.parametrize("operation, params", WALKS)
    def test_page_walk_builds_body_once(self, service, builds, operation, params):
        self.seed_walks(service)
        builds["builds"], builds["paginated"] = 0, []
        document = fetch_full(service, operation, params)
        assert len(document) > 2 * 2048  # a walk of several pages
        assert builds["builds"] == 1
        assert builds["paginated"] == [document]

    def tag_mid_walk(self, service, builds, operation, params, resource) -> int:
        """Walk half the pages, tag `resource`, walk the rest; returns the builds the rest took."""
        self.seed_walks(service)
        first = ask(service, operation, params).page
        half = first.total // 2
        for i in range(1, half):
            assert ask(service, operation, params, i).ok
        builds["builds"], builds["paginated"] = 0, []
        tag = service.handle_url(f"/tag?resource={resource}&tag=concept0001&tagger={TAGGER}")
        assert tag.page.payload == b"ok concept0001 1"
        after = [ask(service, operation, params, i).page for i in range(half, first.total)]
        assert len(builds["paginated"]) == builds["builds"]  # each rebuild, once; the tag's "ok" is no document
        # the later pages come from the document as it is after the tag
        fresh = [fresh_read(service.store, operation, params, i, 2048) for i in range(half, first.total)]
        assert [(200, page.encode()) for page in after] == fresh
        return builds["builds"]

    @pytest.mark.parametrize("operation, params", WALKS)
    def test_tag_mid_walk_rebuilds_once(self, service, builds, operation, params):
        # The map of concept0000 counts its concepts in the cloud of concept0000,
        # and the export holds every cloud; the cloud of big does not change.
        rebuilds = self.tag_mid_walk(service, builds, operation, params, "concept0000")
        assert rebuilds == (0 if operation == "cloud" else 1)

    def test_tag_on_the_walked_cloud_mid_walk_rebuilds_once(self, service, builds):
        assert self.tag_mid_walk(service, builds, "cloud", {"resource": "big"}, "big") == 1

    def test_cache_holds_at_most_the_cap(self, service, builds):
        cap = service_module.BODY_CACHE_ENTRIES
        names = [f"r{i}" for i in range(cap + 5)]
        for name in names:
            assert ask(service, "cloud", {"resource": name}).ok
        assert len(service._bodies) == cap
        assert builds["builds"] == len(names)
        ask(service, "cloud", {"resource": names[-1]})
        assert builds["builds"] == len(names)  # the newest body is still held
        ask(service, "cloud", {"resource": names[0]})
        assert builds["builds"] == len(names) + 1  # the oldest went first
        assert len(service._bodies) == cap

    def test_a_build_lets_go_of_the_bodies_a_write_made_stale(self, service):
        seed_mouse(service)
        for operation, params in (("export", {}), ("cloud", {"resource": "mouse"})):
            assert ask(service, operation, params).ok
        assert service.handle_url(f"/tag?resource=shoe&tag=rubber&tagger={TAGGER}").ok
        assert len(service._bodies) == 2  # nothing is built by a write
        assert ask(service, "cloud", {"resource": "shoe"}).ok
        assert set(service._bodies) == {("cloud", VOCAB.resource_iri(name)) for name in ("mouse", "shoe")}

    def test_map_depths_past_the_tree_share_one_body(self, service, builds):
        TestMapEndpoint().seed_shoe(service)  # shoe - rubber - {sole, heel}: two levels
        tree = service.store.subtree("shoe", 10**6)
        freqs = service.store.cloud_of(VOCAB.resource_iri("shoe")).frequencies
        unclamped = {
            d: paginate(render_tree(service.store.subtree("shoe", d), freqs).encode(), 2048)[0].encode()
            for d in range(2, 80)
        }
        assert len(set(unclamped.values())) == 1 and tree.depth() == 2
        builds["builds"] = 0
        for d in range(2, 80):
            response = service.handle_url(f"/map?root=shoe&depth={d}")
            assert (response.status, response.encode()) == (200, unclamped[d]), d
        assert builds["builds"] == 1
        assert len(service._bodies) == 1
        # below the top, a node's own height bounds the key: rubber has one level
        for d in (1, 2, 7):
            assert service.handle_url(f"/map?root=rubber&depth={d}").page.payload.count(b"\n") == 3
        assert builds["builds"] == 2
        response = service.handle_url("/map?root=ghost&depth=5")
        assert (response.status, response.page.payload) == (404, b"unknown")


# Requests as they come off the wire: names with spaces, `%` and `://`,
# some in a tree and some not; labels long enough that `ok <label> <count>`
# needs more than one page; good and bad taggers; any `page` and `depth`.
WIRE_NAMES = st.one_of(
    st.sampled_from(["mouse", "shoe", "a://b c", "http://example.org/r", "50%", "%zz", " ", ""]),
    st.text(st.sampled_from(" %:/ab"), max_size=8),
    st.integers(1, 2200).map(lambda n: "y" * n),
)
WIRE_NUMBERS = st.sampled_from(["0", "1", "2", "9", "01", "-1", "+1", "x", "", "\u00b2", "9" * 30])
WIRE_REQUESTS = st.tuples(
    st.sampled_from(["tag", "attach", "cloud", "map", "export", "bogus"]),
    st.fixed_dictionaries(
        {
            "resource": WIRE_NAMES,
            "tag": WIRE_NAMES,
            "parent": WIRE_NAMES,
            "child": WIRE_NAMES,
            "root": WIRE_NAMES,
            "tagger": st.sampled_from([str(TAGGER), str(TAGGER).upper(), "not-a-uuid", ""]),
        },
        optional={"page": WIRE_NUMBERS, "depth": WIRE_NUMBERS},
    ),
)
_WIRE_TAG = {"tagger": str(TAGGER)}
MAP_OF_A_NAME_THAT_IS_NOT_AN_IRI = [
    ("attach", {"parent": "a://b c", "child": "x", **_WIRE_TAG}),
    ("map", {"root": "a://b c"}),
]
TAG_WITH_A_PAGE = [("tag", {"resource": "mouse", "tag": "laser", "page": "1", **_WIRE_TAG})]
TAG_WITH_A_LONG_LABEL = [("tag", {"resource": "pen", "tag": "y" * 2100, **_WIRE_TAG})]


class TestWireInput:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(WIRE_REQUESTS, min_size=1, max_size=20), st.sampled_from([64, 2048]))
    @example(MAP_OF_A_NAME_THAT_IS_NOT_AN_IRI, 2048)
    @example(TAG_WITH_A_PAGE, 2048)
    @example(TAG_WITH_A_LONG_LABEL, 2048)
    def test_any_request_gets_capped_pages_and_a_refusal_changes_nothing(self, requests_, cap):
        with tempfile.TemporaryDirectory() as directory:
            log_file = Path(directory) / "store" / "events.log"
            service = AnnotationService(ServiceConfig(store_path=str(log_file.parent), page_cap=cap))

            def state():
                logged = log_file.read_bytes() if log_file.exists() else b""
                return store_state(service.store), service.store.version, logged

            try:
                for operation, params in requests_:
                    before = state()
                    response = service.handle_url(f"/{operation}?{urlencode(params)}")
                    assert len(response.encode()) <= cap
                    if not (response.ok and operation in ("cloud", "map", "export")):
                        assert response.page.total == 1, (operation, params)
                    if not response.ok:
                        assert state() == before, (operation, params)
            finally:
                service.close()


class TestStorageFailure:
    READS = ["/cloud?resource=shoe", "/cloud?resource=mouse", "/map?root=shoe&depth=2", "/export"]

    @pytest.mark.parametrize(
        "mutation",
        [
            "/tag?resource=shoe&tag=rubber",
            "/tag?resource=pen&tag=ink",
            "/attach?parent=rubber&child=sole",
            "/attach?parent=boot&child=shoe",
        ],
    )
    def test_failed_append_is_500_storage_and_changes_nothing(self, tmp_path, mutation):
        live = tmp_path / "live"
        service = AnnotationService(ServiceConfig(store_path=str(live)))
        seed_mouse(service)
        assert service.handle_url(f"/attach?parent=shoe&child=rubber&tagger={TAGGER}").ok
        assert service.handle_url(f"/tag?resource=shoe&tag=rubber&tagger={TAGGER}").ok
        before = [service.handle_url(url).encode() for url in self.READS]
        state, version = store_state(service.store), service.store.version
        (live / "events.log").unlink()
        (live / "events.log").mkdir()

        response = service.handle_url(f"{mutation}&tagger={TAGGER}")
        assert (response.status, response.page.payload) == (500, b"storage")
        assert (store_state(service.store), service.store.version) == (state, version)
        assert [service.handle_url(url).encode() for url in self.READS] == before
        uncached = AnnotationService(store=service.store)
        assert [uncached.handle_url(url).encode() for url in self.READS] == before

    def test_a_failed_append_prints_one_line_and_answers_storage(self, tmp_path, monkeypatch, capsys):
        live = tmp_path / "live"
        service = AnnotationService(ServiceConfig(store_path=str(live)))
        assert service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}").ok
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", _no_space)
            response = service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}")
        assert (response.status, response.page.payload) == (500, b"storage")
        assert capsys.readouterr().err == f"{live / 'events.log'}: append failed: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("stderr", ["closed", "none"])
    def test_a_diagnostic_that_stderr_cannot_take_is_dropped_without_raising(self, tmp_path, monkeypatch, stderr):
        closed = io.StringIO()
        closed.close()
        monkeypatch.setattr(sys, "stderr", closed if stderr == "closed" else None)
        assert service_module.diagnostic("lost") is False
        # a torn tail, then a failed append: each has a line to write, and neither raises
        event = model.AnnotationEvent(1, TAGGER, VOCAB.mint("m"), "a")
        (tmp_path / "events.log").write_bytes(format_event_line(event).encode() + b"12")
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path)))
        assert service.store.clouds[VOCAB.mint("m")].frequencies == {"a": 1}
        monkeypatch.setattr(os, "write", _no_space)
        assert service.handle_url(f"/tag?resource=m&tag=a&tagger={TAGGER}").page.payload == b"storage"


def _no_space(fd, data):
    raise OSError(errno.ENOSPC, "No space left on device")


class _Crash(BaseException):
    """The process died at a disk call; an `except OSError` does not catch it."""


class _Disk:
    """Stands in for the os calls that change a store directory.

    It counts each call to one of CALLS and acts at call number `at`:
    "fail" raises OSError there, "fail-on" there and at every later call
    (a disk gone bad), "fail-then-stop" fails there and crashes at the
    next call. "stop" crashes there. A crash raises _Crash, and every
    later call raises it too and does nothing, cleanup handlers included.
    With `short`, each write writes about half of what it is given.
    The sync of a store directory is an `fsync` too, so each one is a
    call to fault like any other. `renamed` says whether a `replace` went
    through: a failure reported after it still leaves the renamed file.
    """

    CALLS = ("write", "fsync", "replace", "unlink", "ftruncate", "truncate")

    def __init__(self, action: str = "", at: int = 0, short: bool = False):
        self.action, self.at, self.short = action, at, short
        self.calls = 0
        self.written = 0
        self.stopped = False
        self.renamed = False

    def wrap(self, name: str, real):
        def call(*args, **kwargs):
            if self.stopped:
                raise _Crash
            self.calls += 1
            fault = ""
            if self.calls == self.at:
                fault = self.action
            elif self.calls > self.at > 0:
                fault = {"fail-on": "fail", "fail-then-stop": "stop"}.get(self.action, "")
            if fault == "stop":
                self.stopped = True
                raise _Crash
            if fault:
                raise OSError(errno.ENOSPC, "No space left on device")
            if name == "write":
                fd, data = args
                done = real(fd, data[: max(1, len(data) // 2)] if self.short else data)
                self.written += done
                return done
            result = real(*args, **kwargs)
            self.renamed = self.renamed or name == "replace"
            return result

        return call

    @contextlib.contextmanager
    def armed(self):
        with pytest.MonkeyPatch.context() as patch:
            for name in self.CALLS:
                patch.setattr(os, name, self.wrap(name, getattr(os, name)))
            yield self


def _small_store(seed: int) -> AnnotationStore:
    """A store whose log is a few kB, so that halving every write still makes few calls."""
    rng = random.Random(seed)
    store = AnnotationStore()
    for _ in range(20):
        resource, label = VOCAB.mint(f"res{rng.randrange(5)}"), f"tag{rng.randrange(9)}"
        store.record(model.AnnotationEvent(rng.randrange(10_000), TAGGER, resource, label))
    store.attach("shoe", "rubber")
    store.attach("rubber", "sole")
    return store


def _restart(directory: Path):
    """What a fresh start makes of a store directory: its store's state, or the refusal."""
    try:
        return store_state(restore_store(str(directory)))
    except StoreLoadError as exc:
        return f"refused: {exc}"


class TestCrashPoints:
    """Fail or crash at every call that changes a store directory, then restart.

    A restart must give the store from before the operation or from after
    it (before, if the operation reported a failure before its rename;
    after, if it reported success, or a failure at the directory sync that
    follows the rename), and the next append must be a line of its own.
    """

    STORES = [_small_store(seed) for seed in (0, 1)]

    def request(self, url: str, torn_tail: bytes = b""):
        """A mutation on a service whose log is open, or, after `torn_tail`, on a service that starts then."""

        def prepare(directory: Path):
            snapshot_store(self.STORES[0], str(directory))
            live = []

            def start():
                live.append(AnnotationService(ServiceConfig(store_path=str(directory))))

            if torn_tail:  # as a crash in the middle of an append leaves it
                with open(directory / "events.log", "ab") as log_file:
                    log_file.write(torn_tail)
            else:
                start()
                assert live[0].handle_url(f"/tag?resource=mouse&tag=warm&tagger={TAGGER}").ok  # opens the log

            def op():
                if not live:
                    start()
                response = live[0].handle_url(f"{url}&tagger={TAGGER}")
                assert response.ok or (response.status, response.page.payload) == (500, b"storage")
                return response.ok

            return op, live

        return prepare

    def snapshot(self, directory: Path):
        snapshot_store(self.STORES[0], str(directory))

        def op():
            try:
                snapshot_store(self.STORES[1], str(directory))
            except OSError:
                return False
            return True

        return op, []

    def import_(self, legacy: bool):
        def prepare(directory: Path):
            document = directory.parent / "export.rdf"
            document.write_text(serialize(model.store_to_graph(self.STORES[1], VOCAB)), "utf-8")
            snapshot_store(self.STORES[0], str(directory))
            if legacy:  # as older versions wrote it: topic maps in snapshot.rdf
                (directory / "snapshot.rdf").write_text(serialize(model.store_to_graph(self.STORES[0], VOCAB)))
                (directory / "events.log").write_text("".join(map(format_event_line, self.STORES[0].events)))
            return lambda: cli.main(["import", "--in", str(document), "--store", str(directory)]) == 0, []

        return prepare

    def takes_a_tag(self, directory: Path, state, service=None) -> None:
        service = service or AnnotationService(ServiceConfig(store_path=str(directory)))
        assert service.handle_url(f"/tag?resource=after&tag=next&tagger={TAGGER}").ok
        service.close()
        restored = _restart(directory)
        assert not isinstance(restored, str), restored
        clouds, maps = restored
        assert clouds.pop(VOCAB.resource_iri("after")) == {"next": 1}
        assert (clouds, maps) == state

    def run(self, tmp_path: Path, prepare, disk: _Disk):
        """Prepare a directory and run the operation on `disk`: (directory, state before, reported outcome, service).

        The outcome is None after a crash, and the service is the one still running, if any.
        """
        directory = tmp_path / f"run{len(list(tmp_path.iterdir()))}" / "store"
        directory.parent.mkdir()
        op, live = prepare(directory)
        before = _restart(directory)
        reported = None
        with disk.armed():
            try:
                reported = op()
            except _Crash:
                for service in live:
                    service.close()  # what the crash frees; the next start is a fresh service
                live = []
        return directory, before, reported, live[0] if live else None

    @pytest.mark.parametrize(
        "name",
        ["tag", "attach", "tag-on-a-torn-log", "snapshot", "import", "import-over-snapshot.rdf"],
    )
    @pytest.mark.parametrize("short", [False, True], ids=["whole-writes", "short-writes"])
    def test_restart_after_a_fault_at_every_call(self, tmp_path, name, short):
        prepare = {
            "tag": self.request("/tag?resource=mouse&tag=optical"),
            "attach": self.request("/attach?parent=rubber&child=heel"),
            "tag-on-a-torn-log": self.request("/tag?resource=mouse&tag=optical", torn_tail=b"7\tpart of a li"),
            "snapshot": self.snapshot,
            "import": self.import_(legacy=False),
            "import-over-snapshot.rdf": self.import_(legacy=True),
        }[name]
        clean = _Disk(short=short)
        directory, before, reported, service = self.run(tmp_path, prepare, clean)
        after = _restart(directory)
        assert reported is not None
        if name in ("snapshot", "import"):  # every byte of the new log went through os.write
            assert clean.written == (directory / "events.log").stat().st_size
        if isinstance(after, str):  # a refused directory is refused before anything is written
            assert (reported, after, clean.calls) == (False, before, 0)
        else:
            assert reported and after != before
            self.takes_a_tag(directory, after, service)
        for at in range(1, clean.calls + 1):
            for action in ("fail", "fail-on", "fail-then-stop", "stop"):
                disk = _Disk(action, at, short)
                directory, _, reported, service = self.run(tmp_path, prepare, disk)
                restarted = _restart(directory)
                where = (action, at)
                assert restarted in (before, after), where
                if reported is not None:
                    assert restarted == (after if reported or disk.renamed else before), where
                if not isinstance(restarted, str):  # a refused directory takes no tag
                    self.takes_a_tag(directory, restarted, service)


class TestDirectorySync:
    """A file renamed into a store directory, or created there, is followed by a sync of the directory.

    Without it a power cut can undo the rename of an import, or drop the
    entry of a new `events.log` whose lines were answered `ok`.
    """

    def spy(self, monkeypatch, directory: Path) -> list:
        """From now on, record each os.replace and os.write, and each os.fsync as the file or the directory."""
        calls, real = [], {name: getattr(os, name) for name in ("replace", "write", "fsync")}

        def spied(name):
            def call(*args):
                if name != "fsync":
                    calls.append(name)
                else:
                    calls.append("sync directory" if os.path.samestat(os.fstat(args[0]), os.stat(directory)) else "sync file")
                return real[name](*args)

            return call

        for name in real:
            monkeypatch.setattr(os, name, spied(name))
        return calls

    def test_snapshot_syncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        snapshot_store(TestCrashPoints.STORES[0], str(tmp_path))
        calls = self.spy(monkeypatch, tmp_path)
        snapshot_store(TestCrashPoints.STORES[1], str(tmp_path))
        assert calls[-3:] == ["sync file", "replace", "sync directory"]

    def test_the_first_append_to_a_new_log_syncs_the_directory_before_it_writes(self, tmp_path, monkeypatch):
        directory = tmp_path / "store"
        directory.mkdir()
        service = AnnotationService(ServiceConfig(store_path=str(directory)))
        calls = self.spy(monkeypatch, directory)
        assert service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}").ok
        assert service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}").ok
        service.close()
        assert calls == ["sync directory", "write", "write"]


class TestTornAppend:
    LINES = {
        "tag": format_event_line(model.AnnotationEvent(1234, TAGGER, VOCAB.mint("mouse"), "optical")),
        "attach": "attach\trubber\theel\n",
    }
    URLS = {"tag": "/tag?resource=mouse&tag=optical", "attach": "/attach?parent=rubber&child=heel"}

    @pytest.mark.parametrize("mutation", ["tag", "attach"])
    def test_a_write_that_fails_after_part_of_its_line_leaves_no_part_behind(self, tmp_path, mutation):
        line = self.LINES[mutation].encode("utf-8")
        for split in range(len(line)):
            live = tmp_path / f"split{split}"
            service = AnnotationService(ServiceConfig(store_path=str(live)), now_ms=lambda: 1234)
            seed_mouse(service)
            assert service.handle_url(f"/attach?parent=shoe&child=rubber&tagger={TAGGER}").ok
            state, logged = store_state(service.store), (live / "events.log").read_bytes()
            real_write, writes = os.write, []

            def write_part_then_fail(fd, data):
                writes.append(bytes(data))
                if len(writes) == 1:
                    return real_write(fd, data[:split])
                raise OSError(errno.ENOSPC, "No space left on device")

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "write", write_part_then_fail)
                response = service.handle_url(f"{self.URLS[mutation]}&tagger={TAGGER}")
            assert writes[0] == line
            assert (response.status, response.page.payload) == (500, b"storage")
            assert store_state(service.store) == state
            assert (live / "events.log").read_bytes() == logged  # cut at once
            response = service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}")
            assert (response.status, response.page.payload) == (200, b"ok laser 4"), split
            assert (live / "events.log").read_bytes() == logged + format_event_line(service.store.events[-1]).encode()
            assert store_state(restore_store(str(live))) == store_state(service.store)
            service.close()


class TestLogTail:
    def spy(self, monkeypatch, name: str) -> list:
        """Record the size of every os.`name` call's data from now on."""
        sizes, real = [], getattr(os, name)

        def call(fd, data_or_size, *args):
            result = real(fd, data_or_size, *args)
            sizes.append(len(result) if name == "pread" else result)
            return result

        monkeypatch.setattr(os, name, call)
        return sizes

    @pytest.mark.parametrize("reads", [0, 1 / 4096, 1, 3.5], ids=["whole", "one-byte", "one-read", "3.5-reads"])
    def test_opening_the_log_reads_back_only_to_its_last_lf(self, tmp_path, monkeypatch, reads):
        torn = int(reads * service_module.TAIL_READ)  # the length of the partial last line
        lines = "".join(f"{i}\t{TAGGER}\thttp://yourdns.com/rdfs/m.rdf\tt{i}\n" for i in range(2000)).encode()
        (tmp_path / "events.log").write_bytes(lines + b"9" * torn)
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path)), now_ms=lambda: 7)
        read = self.spy(monkeypatch, "pread")
        assert service.handle_url(f"/tag?resource=m&tag=next&tagger={TAGGER}").ok
        service.close()
        appended = f"7\t{TAGGER}\thttp://yourdns.com/rdfs/m.rdf\tnext\n".encode()
        assert (tmp_path / "events.log").read_bytes() == lines + appended
        assert sum(read) <= torn + service_module.TAIL_READ < len(lines)

    def test_snapshot_store_writes_bounded_chunks_of_its_lines(self, tmp_path, monkeypatch):
        store = TestPersistence().random_store(0)
        while len(store.events) < 3000:  # about 4 chunks
            store.record(store.events[len(store.events) % 200])
        expected = "".join(map(format_event_line, store.events)) + "attach\tshoe\trubber\nattach\trubber\tsole\n"
        written = self.spy(monkeypatch, "write")
        snapshot_store(store, str(tmp_path))
        assert (tmp_path / "events.log").read_bytes() == expected.encode("utf-8")
        assert len(written) > 2 and max(written) < service_module.WRITE_CHUNK + 200


def _log_opens(monkeypatch) -> list:
    """Record every os.open of an events.log from now on."""
    opened = []
    real_open = service_module.os.open

    def open_(path, *args, **kwargs):
        if str(path).endswith(service_module.EVENTS_FILE):
            opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(service_module.os, "open", open_)
    return opened


class TestOpenLog:
    def tag(self, service, tag="laser"):
        response = service.handle_url(f"/tag?resource=mouse&tag={tag}&tagger={TAGGER}")
        assert response.ok, response
        return response

    def test_200_tags_open_the_log_once(self, tmp_path, monkeypatch):
        opened = _log_opens(monkeypatch)
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path / "live")))
        for _ in range(200):
            self.tag(service)
        assert len(opened) == 1
        assert (tmp_path / "live" / "events.log").read_bytes().count(b"\n") == 200
        service.close()

    def test_a_log_renamed_over_the_open_one_takes_the_next_line(self, tmp_path):
        live = tmp_path / "live"
        service = AnnotationService(ServiceConfig(store_path=str(live)))
        seed_mouse(service)
        assert service.handle_url(f"/attach?parent=shoe&child=rubber&tagger={TAGGER}").ok
        snapshot_store(service.store, str(live))  # a new inode at the same path
        rewritten = (live / "events.log").read_bytes()
        self.tag(service, "optical")
        assert (live / "events.log").read_bytes() == rewritten + format_event_line(service.store.events[-1]).encode()
        restarted = AnnotationService(ServiceConfig(store_path=str(live)))
        assert store_state(restarted.store) == store_state(service.store)
        assert restarted.store.cloud_of(VOCAB.resource_iri("mouse")).frequencies["optical"] == 2
        service.close()

    def test_a_removed_log_is_created_again(self, tmp_path):
        live = tmp_path / "live"
        service = AnnotationService(ServiceConfig(store_path=str(live)))
        self.tag(service)
        (live / "events.log").unlink()
        self.tag(service)
        assert (live / "events.log").read_bytes() == format_event_line(service.store.events[-1]).encode()
        shutil.rmtree(live)
        self.tag(service)
        assert (live / "events.log").read_bytes() == format_event_line(service.store.events[-1]).encode()
        service.close()

    def test_a_failed_append_closes_the_descriptor(self, tmp_path):
        live = tmp_path / "live"
        service = AnnotationService(ServiceConfig(store_path=str(live)))
        self.tag(service)
        fd = service._log_fd
        (live / "events.log").unlink()
        (live / "events.log").mkdir()
        assert service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}").status == 500
        assert service._log_fd is None
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_close_releases_the_descriptor(self, tmp_path):
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path / "live")))
        service.close()  # nothing open yet
        self.tag(service)
        fd = service._log_fd
        os.fstat(fd)
        service.close()
        assert service._log_fd is None
        with pytest.raises(OSError):
            os.fstat(fd)
        self.tag(service, "optical")  # a later append opens the log again
        assert restore_store(str(tmp_path / "live")).cloud_of(VOCAB.resource_iri("mouse")).frequencies == {
            "laser": 1,
            "optical": 1,
        }
        service.close()

    def test_serve_closes_the_log_on_exit(self, tmp_path, monkeypatch):
        service = AnnotationService(ServiceConfig(port=0, store_path=str(tmp_path / "live")))
        self.tag(service)
        fd = service._log_fd

        def interrupted(server, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(wire.HttpServer, "serve_forever", interrupted)
        wire.serve(service)
        assert service._log_fd is None
        with pytest.raises(OSError):
            os.fstat(fd)


class TestOneSendPerResponse:
    def test_each_kept_alive_response_is_one_send_and_arrives_whole(self, tmp_path, monkeypatch):
        opened = _log_opens(monkeypatch)
        service = AnnotationService(ServiceConfig(port=0, store_path=str(tmp_path / "live")))
        with shell_server(service, monkeypatch) as (url, server, accepted):
            port = server.server_address[1]
            sends = []

            def spy(real):
                def send(sock, data, *args):
                    if sock.getsockname()[1] == port:  # server side of a connection
                        sends.append(bytes(data))
                    return real(sock, data, *args)

                return send

            monkeypatch.setattr(socket.socket, "send", spy(socket.socket.send))
            monkeypatch.setattr(socket.socket, "sendall", spy(socket.socket.sendall))
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                for i in range(1, 201):
                    sock.sendall(b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % _tag_query().encode())
                    response = sock.recv(65536)
                    head, _, body = response.partition(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200 ")
                    assert head.endswith(b"\r\nContent-Length: %d" % len(_tag_page(i)))
                    assert body == _tag_page(i), i
                    assert len(sends) == i and sends[-1] == response
        service.close()
        assert len(accepted) == 1
        assert len(sends) == 200
        assert len(opened) == 1
        assert _kept_count(service) == 200


# Taggers that parse, one in another spelling that uuid.UUID takes, and some that do not;
# the last is longer than MEMO_KEY_CHARS, so no memo keeps it.
MEMO_TAGGERS = [str(TAGGER), str(TAGGER).upper(), "{%s}" % TAGGER, TAGGER.hex, "urn:uuid:%s" % TAGGER,
                "12345678-1234-5678-1234-56781234567", "not-a-uuid", " ", "-" * 300 + TAGGER.hex]
# Resource names in several spellings of one label, IRIs, and names that no IRI is minted from
# (blank) or that Iri refuses (a space or `<` after the scheme), and one longer than MEMO_KEY_CHARS.
MEMO_NAMES = ["mouse", "Mouse", " mouse ", "MOUSE\t", "red  shoe", "Red Shoe", "c++ 100%", "café",
              "http://example.org/r", "http://example.org/R", "http://example.org/a b", "http://x/<",
              "://", " ", "\t", "long " * 60]


def _targets(operation: str, names: tuple[str, ...], *values) -> st.SearchStrategy:
    """Request targets of `operation` whose parameters `names` take the drawn `values`."""
    return st.builds(lambda *drawn: f"/{operation}?" + urlencode(dict(zip(names, drawn))), *values)


NAMES_DRAWN, TAGGERS_DRAWN = st.sampled_from(MEMO_NAMES), st.sampled_from(MEMO_TAGGERS)
MEMO_REQUESTS = st.one_of(
    _targets("tag", ("resource", "tag", "tagger"), NAMES_DRAWN, st.sampled_from(["laser", "Laser"]), TAGGERS_DRAWN),
    _targets("cloud", ("resource", "page"), NAMES_DRAWN, st.sampled_from(["0", "1", "2"])),
    _targets("map", ("root", "depth"), NAMES_DRAWN, st.sampled_from(["1", "3"])),
    # /attach grows the topic maps that /map reads.
    _targets("attach", ("parent", "child", "tagger"), NAMES_DRAWN, NAMES_DRAWN, TAGGERS_DRAWN),
)


def _answer_with_cold_memos(service: AnnotationService, target: str) -> tuple[int, bytes]:
    """`service`'s answer to `target`, given with its resource memo, the tagger memo and the query-piece memo all empty."""
    warm_tagger, warm_pieces = service_module._tagger, service_module._query_piece
    service_module._tagger = service_module._short_memo(uuid.UUID)
    service_module._query_piece = service_module._short_memo(service_module._read_piece)
    service._resource_iri.cache_clear()
    try:
        response = service.handle_url(target)
    finally:
        service_module._tagger, service_module._query_piece = warm_tagger, warm_pieces
    return response.status, response.encode()


class TestParseMemos:
    """A tagger or resource name parsed once answers as one parsed afresh."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(MEMO_REQUESTS, min_size=1, max_size=40))
    def test_a_warm_service_answers_as_one_whose_memos_start_cold_for_each_request(self, targets):
        warm = AnnotationService(ServiceConfig(page_cap=256), now_ms=lambda: 0)
        cold = AnnotationService(ServiceConfig(page_cap=256), now_ms=lambda: 0)
        for target in targets:
            response = warm.handle_url(target)
            assert (response.status, response.encode()) == _answer_with_cold_memos(cold, target), target
        assert store_state(warm.store) == store_state(cold.store)

    @pytest.mark.parametrize("target, token", [
        ("/tag?resource=mouse&tag=laser&tagger=not-a-uuid", b"badtagger"),
        ("/attach?parent=a&child=b&tagger=not-a-uuid", b"badtagger"),
        (f"/tag?resource=http://x/%3C&tag=laser&tagger={TAGGER}", b"badtag"),
        ("/cloud?resource=http://example.org/a%20b", b"badtag"),
    ])
    def test_a_refused_string_is_refused_again_on_every_repeat(self, target, token):
        service = AnnotationService()
        answers = {service.handle_url(target).encode() for _ in range(3)}
        assert answers == {Page(1, 1, token).encode()}
        assert service.store.events == []

    def test_each_memo_holds_at_most_its_bound(self):
        service = AnnotationService()
        for i in range(5000):
            tagger = uuid.UUID(int=i)
            assert service.handle_url(f"/tag?resource=r{i}&tag=t&tagger={tagger}").ok
            assert service.handle_url(f"/cloud?resource=R{i}").ok
        assert service._resource_iri.cache_info().currsize == service_module.MEMO_ENTRIES
        assert service_module._tagger.cache_info().currsize == service_module.MEMO_ENTRIES
        assert service_module._query_piece.cache_info().currsize == service_module.MEMO_ENTRIES
        assert len(service.store.clouds) == 5000

    def test_no_memo_keeps_a_string_longer_than_its_key_bound(self):
        service = AnnotationService()
        service_module._query_piece.cache_clear()
        service_module._tagger.cache_clear()
        pad = "x" * service_module.MEMO_KEY_CHARS
        for i in range(50):
            tagger = "-" * service_module.MEMO_KEY_CHARS + uuid.UUID(int=i).hex  # uuid.UUID drops the hyphens
            assert service.handle_url(f"/tag?resource={pad}{i}&tag={pad}{i}&tagger={tagger}").ok
            assert service.handle_url(f"/cloud?resource={pad}{i}").ok
        assert service._resource_iri.cache_info().currsize == 0
        assert service_module._tagger.cache_info().currsize == 0
        assert service_module._query_piece.cache_info().currsize == 0
        assert len(service.store.clouds) == 50
        assert {event.tagger for event in service.store.events} == {uuid.UUID(int=i) for i in range(50)}


class TestNoCyclicGarbage:
    """Restores and in-process requests leave nothing that waits for the cyclic garbage collector."""

    def mixed_batch(self, service: AnnotationService) -> None:
        statuses = set()
        for i in range(40):
            for query in (
                f"/tag?resource=big&tag=word{i}&tagger={TAGGER}",
                f"/tag?resource=mouse&tag=laser&tagger={TAGGER}",
                f"/attach?parent=word{i}&child=word{i + 1}&tagger={TAGGER}",
                f"/attach?parent=word{i + 1}&child=word0&tagger={TAGGER}",  # a cycle
                "/cloud?resource=big",
                "/cloud?resource=big&page=1",
                "/map?root=word0&depth=3",
                "/map?root=ghost",
                "/export",
                "/export?page=1",
                f"/tag?resource=a%20b&tag=x&tagger={TAGGER}",
                "/nowhere",
            ):
                statuses.add(service.handle_url(query).status)
        assert statuses == {200, 400, 404, 409}

    def test_restore_store(self, tmp_path):
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path / "live")))
        self.mixed_batch(service)
        service.close()
        assert cyclic_garbage(lambda: restore_store(str(tmp_path / "live"))) == []

    def test_a_mixed_batch_of_requests(self):
        service = AnnotationService()
        assert cyclic_garbage(lambda: self.mixed_batch(service)) == []

    def test_a_mixed_batch_of_requests_that_write_through(self, tmp_path):
        service = AnnotationService(ServiceConfig(store_path=str(tmp_path / "live")))
        try:
            assert cyclic_garbage(lambda: self.mixed_batch(service)) == []
        finally:
            service.close()
