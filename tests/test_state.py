"""A model-based test of the service over restarts, snapshots and torn logs.

`StoreMachine` drives one `AnnotationService` over a store directory only
through `handle_url`, and holds a model of what it should answer, written
apart from `model.py`: a Counter of tags per resource, a child -> parent
dict, and the `parented`, `cycle` and `merge` refusals. Every read
reassembles its document and checks it against the model: a cloud parses
back to the model's counts, a map is the model's tree rendered here in
`(-count, label)` rank order, and an export imports to the model. A page
past the end is `badpage`. A restart, plain, after `snapshot_store` or
after part of a line is appended to the log, changes no answer.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import Counter, defaultdict

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from scotcloud import model, rdfxml
from scotcloud.model import AnnotationEvent, VocabConfig
from scotcloud.service import EVENTS_FILE, AnnotationService, ServiceConfig, format_attach_line, format_event_line
from scotcloud.service import snapshot_store

from conftest import TAGGER, ask

VOCAB = VocabConfig()
CAP = 256  # small pages, so that every document but the shortest is walked in several
# Resources named like concepts, so that a /tag can change the counts of a map rooted there.
RESOURCES = ["c0", "c1", "mouse"]
LABELS = ["c0", "c1", "c2", "laser"]
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

    # -- rules -----------------------------------------------------------------

    @rule(resource=st.sampled_from(RESOURCES), label=st.sampled_from(LABELS))
    def tag(self, resource: str, label: str) -> None:
        response = ask(self.service, "tag", {"resource": resource, "tag": label, "tagger": str(TAGGER)})
        self.counts[resource][label] += 1
        assert (response.status, response.page.payload) == (200, f"ok {label} {self.counts[resource][label]}".encode())

    @rule(parent=st.sampled_from(LABELS), child=st.sampled_from(LABELS))
    def attach(self, parent: str, child: str) -> None:
        response = ask(self.service, "attach", {"parent": parent, "child": child, "tagger": str(TAGGER)})
        refused = self.refusal(parent, child)
        if refused is None:
            self.parent[child] = parent
            assert (response.status, response.page.payload) == (200, b"ok")
        else:
            assert (response.status, response.page.payload) == (409, refused.encode())

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


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
