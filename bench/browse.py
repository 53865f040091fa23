"""browse: three users interleave paged reads and tags over one connection.

Set-up writes a store of STORE_EVENTS Zipf tag events plus a TREE_NODES-node
4-ary concept tree with the program's own `snapshot_store`, then starts the
server on it. Three users take turns, one request at a time, round-robin.
Each action is a view (walk every /cloud page, reassemble, parse, convert,
lay out and render the scene), a map view (walk every /map page of a root
among the top MAP_ROOTS nodes at depth 3 or 4) or a tag. Tags therefore land
in the middle of other users' walks: a walk whose body no longer matches any
state the cloud passed through is a torn walk, a known defect of the seed
(paging re-serializes the live document for every page), and counts as a
failed view rather than as a wrong answer.
"""

from __future__ import annotations

import random
import statistics
import time
import uuid
from collections import defaultdict
from pathlib import Path
from urllib.parse import urlencode

import harness
from common import Pass, kind_lines
from harness import CheckFailed, Client, ServerProcess
from scotcloud import layout, model, rdfxml, service

STORE_EVENTS = 5000
TREE_NODES = 2000
MAP_ROOTS = 60
USERS = 3
# User actions per replay per second of --seconds, sized so that the seed
# program spends about --seconds on all replays of a run.
ACTIONS_PER_SECOND = 2.4
LATENCY_KINDS = ("view",)
DECK = ("view",) * 11 + ("map",) * 5 + ("tag",) * 4  # 55% / 25% / 20%
LAYOUT = layout.LayoutParams()
VOCAB = model.VocabConfig()


def _concept(k: int) -> str:
    return f"c{k}"


def _tree_children() -> dict[str, list[str]]:
    children: dict[str, list[str]] = defaultdict(list)
    for k in range(1, TREE_NODES):
        children[_concept((k - 1) // 4)].append(_concept(k))
    return children


def build_store(seed: int, directory: Path, events: int = STORE_EVENTS, nodes: int = TREE_NODES) -> dict[str, dict[str, int]]:
    """Write a store of Zipf events and a 4-ary concept tree with the program's own writer.

    Resource sizes follow the Zipf law exactly and each cloud has the
    profile of `harness.cloud_profile`, so every seed gets clouds of the
    same sizes and the cost of a view does not swing with the seed; the
    seed sets the labels, taggers and event order. Returns the expected
    counts by resource name and label.
    """
    rng = random.Random(f"{seed}:browse:store")
    people = [uuid.UUID(p) for p in harness.taggers(rng)]
    pairs = []
    counts: dict[str, dict[str, int]] = {}
    for k, size in enumerate(harness.apportion(events, harness.RESOURCE_ZIPF.weights)):
        resource = harness.resource_name(k)
        counts[resource] = harness.cloud_profile(size, rng)
        pairs.extend((resource, label) for label, n in counts[resource].items() for _ in range(n))
    rng.shuffle(pairs)
    store = model.AnnotationStore()
    for i, (resource, label) in enumerate(pairs):
        store.record(model.AnnotationEvent(i, rng.choice(people), VOCAB.resource_iri(resource), label))
    for k in range(1, nodes):
        store.attach(_concept((k - 1) // 4), _concept(k))
    service.snapshot_store(store, str(directory))
    return counts


def _start(seed: int, work: Path, name: str, trace: bool, result: Pass):
    """Write the store and launch a server on it; sets the pass's set-up time."""
    start = time.perf_counter()
    store = work / f"{name}-store"
    counts = build_store(seed, store)
    port = harness.free_port()
    server = ServerProcess(work, store, port, trace, name)
    client = Client(port)
    children = _tree_children()
    launched, status, body = server.wait_ready(client, "/map?root=c0&depth=1")
    result.setup_s = time.perf_counter() - start
    result.counters["server_start_ns"] = round(launched * 1e9)
    result.attempted += 1
    expected = harness.tree_text(children, _concept(0), 1).encode()
    if (status, body) != (200, b"page 1/1 %d\n" % len(expected) + expected):
        result.fail("wrong-answer", f"/map?root=c0&depth=1 after start: {status} {body[:80]!r}")
    return server, client, counts, children


class _Browse:
    """Shared state of one browse pass: expected counts and the walks in flight."""

    def __init__(self, counts, children):
        self.counts = counts
        self.children = children
        self.watchers: dict[str, list[list[dict[str, int]]]] = defaultdict(list)
        self.maps: dict[tuple[str, int], bytes] = {}

    def walk(self, path: str):
        """Generator: yields each page query, receives (status, raw); returns (pages, totals agree)."""
        status, raw = yield path
        index, total, payload = harness.decode_page(raw)
        if status != 200 or index != 1:
            raise CheckFailed(f"{path}: status {status}, page {index}/{total}")
        payloads = [payload]
        for i in range(1, total):
            query = f"{path}&page={i}"
            status, raw = yield query
            got_index, got_total, payload = harness.decode_page(raw)
            if status != 200 or got_index != i + 1:
                raise CheckFailed(f"{query}: status {status}, page {got_index}/{got_total}")
            if got_total != total:
                return payloads, False
            payloads.append(payload)
        return payloads, True

    def view(self, resource: str):
        states = [dict(self.counts[resource])]
        self.watchers[resource].append(states)
        try:
            payloads, agree = yield from self.walk("/cloud?" + urlencode([("resource", resource)]))
        finally:
            self.watchers[resource].remove(states)
        torn = len(states) > 1  # a tag on this resource landed during the walk
        if not agree:
            if not torn:
                raise CheckFailed(f"/cloud?resource={resource}: page totals changed with no write")
            return "torn-walk"
        try:
            cloud = model.rdf_to_cloud(rdfxml.parse(b"".join(payloads)), VOCAB)
        except (rdfxml.RdfParseError, model.CloudShapeError) as exc:
            if not torn:
                raise CheckFailed(f"/cloud?resource={resource}: {exc}") from None
            return "torn-walk"
        if cloud.frequencies not in states:
            if not torn:
                raise CheckFailed(f"/cloud?resource={resource}: frequencies differ from the store")
            return "torn-walk"
        try:
            scene = layout.layout_cloud(cloud, LAYOUT, 0)
        except layout.LayoutError as exc:
            raise CheckFailed(f"scene of {resource}: {exc}") from None
        text = layout.render_scene_flat(scene)
        if len(scene.prims) != 1 + len(cloud.frequencies) or text.count("\nprim\t") != len(scene.prims):
            raise CheckFailed(f"scene of {resource} has {len(scene.prims)} prims for {len(cloud.frequencies)} tags")
        return None

    def map_view(self, root: str, depth: int):
        expected = self.maps.get((root, depth))
        if expected is None:
            expected = self.maps[(root, depth)] = harness.tree_text(self.children, root, depth).encode()
        path = "/map?" + urlencode([("root", root), ("depth", depth)])
        payloads, agree = yield from self.walk(path)
        if not agree or b"".join(payloads) != expected:
            raise CheckFailed(f"{path}: tree text differs from the expected tree")
        return None

    def tag(self, resource: str, label: str, tagger: str):
        path = "/tag?" + urlencode([("resource", resource), ("tag", label), ("tagger", tagger)])
        status, raw = yield path
        cloud = self.counts[resource]
        cloud[label] = cloud.get(label, 0) + 1
        for states in self.watchers[resource]:
            states.append(dict(cloud))
        payload = f"ok {label} {cloud[label]}".encode()
        if (status, raw) != (200, b"page 1/1 %d\n" % len(payload) + payload):
            raise CheckFailed(f"{path}: got {status} {raw[:80]!r}, want {payload!r}")
        return None


def _actions(seed: int, state: _Browse, decks: int):
    """Seeded stream of `decks` decks of (kind, generator), in the order users start them.

    Kinds are dealt from shuffled decks of DECK and viewed resources from
    one shuffled deck in exact Zipf proportion over all `decks` decks'
    views, so every seed gets the same mix of actions and of viewed cloud
    sizes; the seed sets their order and the rest.
    """
    rng = random.Random(f"{seed}:browse:actions")
    people = harness.taggers(rng, 5)
    views = harness.RESOURCE_ZIPF.deck(decks * DECK.count("view"))
    rng.shuffle(views)
    while True:
        deck = list(DECK)
        rng.shuffle(deck)
        for kind in deck:
            if kind == "view":
                yield kind, state.view(harness.resource_name(views.pop()))
            elif kind == "map":
                yield kind, state.map_view(_concept(rng.randrange(MAP_ROOTS)), rng.choice((3, 4)))
            else:
                resource, label = harness.draw_tag(rng)
                yield kind, state.tag(resource, label, rng.choice(people))


def run_pass(seed: int, seconds: int, work: Path, trace: bool, tracer, label: str) -> Pass:
    result = Pass()
    server, client, counts, children = _start(seed, work, label, trace, result)
    state = _Browse(counts, children)
    decks = max(1, round(seconds * ACTIONS_PER_SECOND / len(DECK)))
    quota = decks * len(DECK)
    stream = _actions(seed, state, decks)
    # Per user: [kind, generator, start time, action id, reply to send], or None when done.
    users: list = [None] * USERS

    def begin(ident: int):
        if ident > quota:
            return None
        kind, gen = next(stream)
        return [kind, gen, None, ident, None]

    for u in range(USERS):
        users[u] = begin(u + 1)
    started = USERS
    result.start_clock()
    while any(users):
        for u, action in enumerate(users):
            if action is None:
                continue
            kind, gen, began, ident, reply = action
            if tracer is not None:
                tracer.request = ident
            if began is None:  # timed from the action's first request
                action[2] = began = time.perf_counter()
            try:
                query = next(gen) if reply is None else gen.send(reply)
            except StopIteration as stop:
                ok = stop.value is None
                if not ok:
                    result.fail(stop.value)
            except CheckFailed as exc:
                ok = False
                result.fail("wrong-answer", str(exc))
            else:
                status, raw, _ = client.get(query)
                action[4] = (status, raw)
                continue
            result.add(kind, time.perf_counter() - began, ops_ok=int(ok))
            result.attempted += 1
            started += 1
            users[u] = begin(started)
    result.stop_clock()
    if trace:
        result.dumps.append(server.dump())
    server.kill()
    result.counters.update(requests=client.requests, connects=client.connects,
                           mutations=sum(1 for unit in result.units if unit.kind == "tag"))
    result.client_seconds = client.seconds
    return result


def peak_rss_mb() -> float:
    return harness.children_peak_rss_mb()


def report(passes: list[Pass]) -> list:
    lines = kind_lines(passes, "view", (50, 90), "first page request to rendered scene")
    lines += kind_lines(passes, "map", (50, 90), "every /map page")
    lines += kind_lines(passes, "tag", (50,), "/tag in the middle of walks")
    starts = [p.counters["server_start_ns"] / 1e9 for p in passes]
    lines.append(("server_start_s", statistics.median(starts), "s",
                  f"launch to first correct response on a {STORE_EVENTS}-event store"))
    return lines
