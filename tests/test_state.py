"""A model-based test of the service over restarts, snapshots and torn logs.

`StoreMachine` drives one `AnnotationService` over a store directory only
through `handle_url`, and holds a model of what it should answer, written
apart from `model.py`: a Counter of tags per resource, a child -> parent
dict, and the `parented`, `cycle` and `merge` refusals. Every read
reassembles its document and checks it against the model: a cloud parses
back to the model's counts, a map is the model's tree rendered here in
`(-count, label)` rank order, and an export imports to the model. A page
past the end is `badpage`. A restart, plain, after `snapshot_store` or
after part of a line is appended to the log, changes no answer. Neither
does a `/tag` or `/attach` whose append fails part way through its line:
it answers `500 storage`, and the model does not change. After each
accepted attach, every concept of the tree it changed is read as a map
at every depth down to one past its height. Attaches of a whole chain,
its edges in a drawn order, grow trees at a leaf, put new roots above
them and build them four or more levels deep. An export,
imported into a fresh directory as `scotcloud import` does it, gives a
service there with the same answers.

After every step, each body the service holds whose stamp is current is
the document as built afresh: a cloud and the export as `serialize`
writes them from the store, a map as the model's tree. A write between
the pages of a walk therefore never leaves a stale body to be served.
A cloud or export body also parses to the triples that `scot_reference`
spells out for the model's counts and parents, apart from `model.py`.
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
from collections import Counter, defaultdict
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from scotcloud import model, rdfxml
from scotcloud.model import AnnotationEvent, VocabConfig
from scotcloud.service import EVENTS_FILE, AnnotationService, ServiceConfig, format_attach_line, format_event_line
from scotcloud.service import snapshot_store

import scot_reference
from conftest import TAGGER, ask

VOCAB = VocabConfig()
CAP = 256  # small pages, so that every document but the shortest is walked in several
# Resources named like concepts, so that a /tag can change the counts of a map rooted there.
RESOURCES = ["c0", "c1", "mouse"]
LABELS = ["c0", "c1", "c2", "c3", "c4", "laser"]
DEPTHS = [1, 2, 9]


def walk(service: AnnotationService, operation: str, params: dict) -> tuple[int, list[bytes]]:
    """The status and the wire bytes of every page of a document, or of its one error page."""
    first = ask(service, operation, params)
    if first.status != 200:
        return first.status, [first.encode()]
    pages = [first.page] + [ask(service, operation, params, i).page for i in range(1, first.page.total)]
    assert [(page.index, page.total) for page in pages] == [(i, first.page.total) for i in range(1, len(pages) + 1)]
    return 200, [page.encode() for page in pages]


def body(pages: list[bytes]) -> bytes:
    return b"".join(raw.partition(b"\n")[2] for raw in pages)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.path = tempfile.mkdtemp(prefix="scotcloud-state-")
        self.service = self.open()
        self.counts: dict[str, Counter] = defaultdict(Counter)  # resource -> label -> count
        self.parent: dict[str, str] = {}  # child -> parent

    def open(self) -> AnnotationService:
        return AnnotationService(ServiceConfig(store_path=self.path, page_cap=CAP))

    def teardown(self) -> None:
        self.service.close()
        shutil.rmtree(self.path, ignore_errors=True)

    # -- the model -------------------------------------------------------------

    def known(self, label: str) -> bool:
        return label in self.parent or label in self.parent.values()

    def root(self, label: str) -> str:
        while label in self.parent:
            label = self.parent[label]
        return label

    def height(self, label: str) -> int:
        """Levels below `label` in the model's tree."""
        below = [child for child, parent in self.parent.items() if parent == label]
        return 1 + max(map(self.height, below), default=-1)

    def refusal(self, parent: str, child: str):
        """The token an attach of `child` under `parent` is refused with, or None."""
        if parent == child:
            return "cycle"
        if not self.known(child):
            return None
        if child in self.parent:
            return "parented"
        if self.known(parent):
            return "cycle" if self.root(parent) == child else "merge"
        return None

    def tree_text(self, root: str, depth: int) -> bytes:
        counts = self.counts[root]  # a map counts its concepts in the cloud of the resource named after its root
        children = defaultdict(list)
        for child, parent in self.parent.items():
            children[parent].append(child)
        lines, stack = [], [(root, 0)]
        while stack:
            label, level = stack.pop()
            lines.append(f"{'  ' * level}{label} ({counts[label]})")
            if level < depth:
                ranked = sorted(children[label], key=lambda child: (-counts[child], child))
                stack.extend((child, level + 1) for child in reversed(ranked))
        return ("\n".join(lines) + "\n").encode()

    # -- checks ----------------------------------------------------------------

    def check_cloud(self, resource: str) -> list[bytes]:
        status, pages = walk(self.service, "cloud", {"resource": resource})
        assert status == 200
        cloud = model.rdf_to_cloud(rdfxml.parse(body(pages)), VOCAB)
        assert cloud.resource == VOCAB.resource_iri(resource)
        assert cloud.frequencies == +self.counts[resource]
        return pages

    def check_map(self, root: str, depth: int) -> list[bytes]:
        status, pages = walk(self.service, "map", {"root": root, "depth": str(depth)})
        if not self.known(root):
            assert (status, pages) == (404, [b"page 1/1 7\nunknown"])
        else:
            assert status == 200
            assert body(pages) == self.tree_text(root, depth)
        return pages

    def check_export(self) -> list[bytes]:
        status, pages = walk(self.service, "export", {})
        assert status == 200
        store = model.store_from_graph(rdfxml.parse(body(pages)), VOCAB)
        clouds = {resource: dict(cloud.frequencies) for resource, cloud in store.clouds.items()}
        assert clouds == {VOCAB.resource_iri(name): dict(counts) for name, counts in self.counts.items() if counts}
        assert {child: parent for tree in store.maps.values() for child, parent in tree.parent.items()} == self.parent
        return pages

    def answers(self) -> dict:
        """Every page of every document there is to read, each checked against the model."""
        answers = {("cloud", resource): self.check_cloud(resource) for resource in RESOURCES}
        answers.update({("map", root, depth): self.check_map(root, depth) for root in LABELS for depth in DEPTHS})
        answers["export"] = self.check_export()
        return answers

    def restart(self) -> None:
        """Close the service and open a new one on its directory: no answer may change."""
        before = self.answers()
        self.service.close()
        self.service = self.open()
        assert self.answers() == before

    # -- invariants ------------------------------------------------------------

    @invariant()
    def no_stale_body(self) -> None:
        """Every cached body whose stamp is current equals a fresh build of its document and holds the reference triples."""
        service = self.service
        for key, (stamp, pages) in service._bodies.items():
            if stamp != service._stamp(key):
                continue
            body = b"".join(page.payload for page in pages)
            if key[0] == "cloud":
                fresh = rdfxml.serialize(model.cloud_to_rdf(service.store.cloud_of(key[1]), VOCAB)).encode()
                name = {scot_reference.minted(name): name for name in RESOURCES}[key[1]]
                expected = scot_reference.cloud_triples(key[1], self.counts[name], scoped=False)
            elif key[0] == "map":
                fresh = self.tree_text(key[1], key[2])
            else:
                fresh = rdfxml.serialize(model.store_to_graph(service.store, VOCAB)).encode()
                clouds = {scot_reference.minted(name): counts for name, counts in self.counts.items()}
                expected = scot_reference.store_triples(clouds, self.parent)
            if key[0] != "map":
                assert set(rdfxml.parse(body)) == expected, key
            assert body == fresh, key

    # -- rules -----------------------------------------------------------------

    @rule(resource=st.sampled_from(RESOURCES), label=st.sampled_from(LABELS))
    def tag(self, resource: str, label: str) -> None:
        response = ask(self.service, "tag", {"resource": resource, "tag": label, "tagger": str(TAGGER)})
        self.counts[resource][label] += 1
        assert (response.status, response.page.payload) == (200, f"ok {label} {self.counts[resource][label]}".encode())

    @rule(parent=st.sampled_from(LABELS), child=st.sampled_from(LABELS))
    def attach(self, parent: str, child: str) -> None:
        self.attach_and_read(parent, child)

    @rule(
        chain=st.permutations(LABELS),
        start=st.integers(0, len(LABELS) - 2),
        upward=st.lists(st.booleans(), min_size=len(LABELS) - 2, max_size=len(LABELS) - 2),
    )
    def attach_chain(self, chain: list[str], start: int, upward: list[bool]) -> None:
        """Attach `chain` as a path, from the edge at `start` outward: up puts a new root above it, down a new leaf."""
        top = bottom = start  # the edges from chain[top] down to chain[bottom + 1] are asked for
        self.attach_and_read(chain[start], chain[start + 1])
        for up in upward:
            if top and (up or bottom == len(chain) - 2):
                top -= 1
                self.attach_and_read(chain[top], chain[top + 1])
            else:
                bottom += 1
                self.attach_and_read(chain[bottom], chain[bottom + 1])

    def attach_and_read(self, parent: str, child: str) -> None:
        """One `/attach`; once it is accepted, read every concept of the tree it changed at every depth."""
        response = ask(self.service, "attach", {"parent": parent, "child": child, "tagger": str(TAGGER)})
        refused = self.refusal(parent, child)
        if refused is not None:
            assert (response.status, response.page.payload) == (409, refused.encode())
            return
        self.parent[child] = parent
        assert (response.status, response.page.payload) == (200, b"ok")
        root = self.root(child)
        for label in [label for label in LABELS if self.known(label) and self.root(label) == root]:
            for depth in range(1, self.height(label) + 2):
                self.check_map(label, depth)

    @rule(
        document=st.one_of(
            st.tuples(st.just("cloud"), st.sampled_from(RESOURCES)),
            st.tuples(st.just("map"), st.sampled_from(LABELS), st.sampled_from(DEPTHS)),
            st.just(("export",)),
        ),
        page=st.integers(0, 40),
    )
    def read(self, document: tuple, page: int) -> None:
        """Walk a document, check it, then ask for one page of it again, perhaps past its end."""
        if document[0] == "cloud":
            pages, params = self.check_cloud(document[1]), {"resource": document[1]}
        elif document[0] == "map":
            pages, params = self.check_map(*document[1:]), {"root": document[1], "depth": str(document[2])}
        else:
            pages, params = self.check_export(), {}
        response = ask(self.service, document[0], params, page)
        if document[0] == "map" and not self.known(document[1]):
            assert response.encode() == pages[0]  # unknown, whatever the page
        else:
            assert response.encode() == (pages[page] if page < len(pages) else b"page 1/1 7\nbadpage")

    @rule()
    def plain_restart(self) -> None:
        self.restart()

    @rule()
    def snapshot_then_restart(self) -> None:
        snapshot_store(self.service.store, self.path)
        self.restart()

    @rule()
    def export_then_import(self) -> None:
        """Import every page of `/export` into a fresh directory: a service opened there answers as this one does.

        `answers` checks each of its clouds and maps against the model. An
        export keeps neither taggers nor times, so neither is compared. The
        imported service only reads, so it never opens its log.
        """
        status, pages = walk(self.service, "export", {})
        assert status == 200
        before = self.answers()
        imported = tempfile.mkdtemp(prefix="scotcloud-import-")
        service = self.service
        try:
            snapshot_store(model.store_from_graph(rdfxml.parse(body(pages)), VOCAB), imported)
            self.service = AnnotationService(ServiceConfig(store_path=imported, page_cap=CAP))
            assert self.answers() == before
        finally:
            self.service = service
            shutil.rmtree(imported, ignore_errors=True)

    @rule(
        line=st.one_of(
            st.builds(lambda r, label: format_event_line(AnnotationEvent(1, TAGGER, VOCAB.resource_iri(r), label)),
                      st.sampled_from(RESOURCES), st.sampled_from(LABELS)),
            st.builds(format_attach_line, st.sampled_from(LABELS), st.sampled_from(LABELS)),
        ),
        cut=st.floats(0, 1, exclude_max=True),
    )
    def torn_tail_then_restart(self, line: str, cut: float) -> None:
        """A crash mid-append: part of a line, without its LF, at the end of the log."""
        data = line.encode()
        fd = os.open(os.path.join(self.path, EVENTS_FILE), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            os.write(fd, data[: max(1, int(cut * (len(data) - 1)))])
        finally:
            os.close(fd)
        self.restart()

    @rule(
        mutation=st.one_of(
            st.tuples(st.just("tag"), st.sampled_from(RESOURCES), st.sampled_from(LABELS)),
            st.tuples(st.just("attach"), st.sampled_from(LABELS), st.sampled_from(LABELS)),
        ),
        cut=st.floats(0, 1, exclude_max=True),
    )
    def failed_append_then_restart(self, mutation: tuple, cut: float) -> None:
        """An append whose `os.write` takes part of its line, then fails as a full disk does: nothing changes."""
        write, calls = os.write, []

        def failing_write(fd: int, data: bytes) -> int:
            calls.append(fd)
            if len(calls) == 1 and int(cut * len(data)):
                return write(fd, data[: int(cut * len(data))])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        operation, first, second = mutation
        if operation == "tag":
            params, refused = {"resource": first, "tag": second}, None
        else:
            params, refused = {"parent": first, "child": second}, self.refusal(first, second)
        with mock.patch.object(os, "write", failing_write):
            response = ask(self.service, operation, {**params, "tagger": str(TAGGER)})
        if refused is None:
            assert (response.status, response.page.payload) == (500, b"storage")
        else:
            assert (response.status, response.page.payload) == (409, refused.encode())
        self.restart()


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
