"""annotate: writes into a fresh store over HTTP, then SIGKILL restarts on what was written.

Write phase: one closed-loop client sends /tag (Zipf resources and labels)
with every ATTACH_EVERY-th request an /attach that grows a concept forest.
Every response is checked against the benchmark's own counts. Restart
phase: the server is killed with SIGKILL and started again on its
directory RESTARTS times; after each start every acknowledged write is
read back (/cloud of every tagged resource, /map of every forest root).
Timed units: each request, and each restart from launch to the first
correct response. Reported latency covers the /tag and /attach requests.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from urllib.parse import urlencode

import harness
from common import Pass, kind_lines, samples
from harness import CheckFailed, Client, ServerProcess

# Write requests per replay per second of --seconds, sized so that the seed
# program spends about --seconds on all replays of a run.
WRITES_PER_SECOND = 60
ATTACH_EVERY = 50
RESTARTS = 1
LATENCY_KINDS = ("tag", "attach")
NEW_TREE_SHARE = 0.2
EMPTY_PROBE = ("/map?root=probe&depth=1", 404, b"page 1/1 7\nunknown")


def _page(payload: bytes) -> bytes:
    return b"page 1/1 %d\n" % len(payload) + payload


def _start(work: Path, name: str, trace: bool, result: Pass) -> tuple[ServerProcess, Client, Path, int]:
    """Launch a server on a fresh directory; sets the pass's set-up time."""
    store = work / f"{name}-store"
    port = harness.free_port()
    start = time.perf_counter()
    server = ServerProcess(work, store, port, trace, name)
    client = Client(port)
    _seconds, status, body = server.wait_ready(client, EMPTY_PROBE[0])
    result.setup_s = time.perf_counter() - start
    result.attempted += 1
    if (status, body) != EMPTY_PROBE[1:]:
        result.fail("wrong-answer", f"{EMPTY_PROBE[0]} on an empty store: {status} {body[:80]!r}")
    return server, client, store, port


class _Forest:
    """The concept forest the benchmark expects the server to hold."""

    def __init__(self) -> None:
        self.children: dict[str, list[str]] = defaultdict(list)
        self.nodes: list[str] = []
        self.roots: list[str] = []

    def _new(self) -> str:
        label = f"k{len(self.nodes)}"
        self.nodes.append(label)
        return label

    def next_edge(self, rng: random.Random) -> tuple[str, str]:
        if not self.nodes or rng.random() < NEW_TREE_SHARE:
            parent = self._new()
            self.roots.append(parent)
        else:
            parent = rng.choice(self.nodes)
        child = self._new()
        self.children[parent].append(child)
        return parent, child

    def height(self, label: str) -> int:
        return 1 + max((self.height(c) for c in self.children.get(label, ())), default=-1)


def _walk(client: Client, path: str, result: Pass) -> bytes:
    """Fetch every page of one response in order, each page a timed unit; checks framing and totals."""
    parts = []
    total = 1
    index = 0
    while index < total:
        query = path if index == 0 else f"{path}&page={index}"
        status, raw, elapsed = client.get(query)
        result.attempted += 1
        try:
            got_index, got_total, payload = harness.decode_page(raw)
        except CheckFailed:
            result.add("read", elapsed, ops_ok=0)
            raise
        ok = status == 200 and got_index == index + 1 and (index == 0 or got_total == total)
        result.add("read", elapsed, ops_ok=int(ok))
        if not ok:
            raise CheckFailed(f"{query}: status {status}, page {got_index}/{got_total}")
        total = got_total
        parts.append(payload)
        index += 1
    return b"".join(parts)


def _read_back(client: Client, counts: Counter, forest: _Forest, result: Pass) -> None:
    by_resource: dict[str, dict[str, int]] = defaultdict(dict)
    for (resource, label), n in counts.items():
        by_resource[resource][label] = n
    for resource in sorted(by_resource):
        path = "/cloud?" + urlencode([("resource", resource)])
        try:
            got = harness.cloud_frequencies(_walk(client, path, result))
            if got != by_resource[resource]:
                raise CheckFailed(f"{path} after restart does not hold every acknowledged tag")
        except CheckFailed as exc:
            result.fail("readback", str(exc))
    for root in forest.roots:
        depth = max(1, forest.height(root))
        path = "/map?" + urlencode([("root", root), ("depth", depth)])
        try:
            if _walk(client, path, result) != harness.tree_text(forest.children, root, depth).encode():
                raise CheckFailed(f"{path} after restart does not hold every acknowledged attach")
        except CheckFailed as exc:
            result.fail("readback", str(exc))


def run_pass(seed: int, seconds: int, work: Path, trace: bool, tracer, label: str) -> Pass:
    result = Pass()
    server, client, store, port = _start(work, label, trace, result)

    rng = random.Random(f"{seed}:annotate")
    people = harness.taggers(rng)
    counts: Counter = Counter()
    forest = _Forest()
    writes = max(5 * ATTACH_EVERY, round(seconds * WRITES_PER_SECOND))
    result.start_clock()
    for i in range(writes):
        if i % ATTACH_EVERY == ATTACH_EVERY - 1:
            parent, child = forest.next_edge(rng)
            path = "/attach?" + urlencode([("parent", parent), ("child", child), ("tagger", rng.choice(people))])
            kind, expect = "attach", b"ok"
        else:
            resource, tag = harness.draw_tag(rng)
            counts[(resource, tag)] += 1
            path = "/tag?" + urlencode([("resource", resource), ("tag", tag), ("tagger", rng.choice(people))])
            kind, expect = "tag", f"ok {tag} {counts[(resource, tag)]}".encode()
        status, raw, elapsed = client.get(path)
        result.attempted += 1
        ok = (status, raw) == (200, _page(expect))
        result.add(kind, elapsed, ops_ok=int(ok))
        if not ok:
            result.fail("wrong-answer", f"{path}: got {status} {raw[:80]!r}, want {expect!r}")

    probe_root = forest.roots[0]
    probe = f"/map?root={probe_root}&depth=1"
    probe_body = _page(harness.tree_text(forest.children, probe_root, 1).encode())
    for k in range(RESTARTS):
        if trace:
            result.dumps.append(server.dump())
        server.kill()
        server = ServerProcess(work, store, port, trace, f"{label}-restart{k}")
        client.reopen()
        seconds, status, body = server.wait_ready(client, probe)
        result.add("restart", seconds, ops_ok=0)
        result.attempted += 1
        if (status, body) != (200, probe_body):
            result.fail("readback", f"{probe} after restart: {status} {body[:80]!r}")
        _read_back(client, counts, forest, result)
    result.stop_clock()
    if trace:
        result.dumps.append(server.dump())
    server.kill()
    result.counters.update(requests=client.requests, connects=client.connects, mutations=writes,
                           events=sum(counts.values()), pairs=len(counts))
    result.client_seconds = client.seconds
    return result


def peak_rss_mb() -> float:
    return harness.children_peak_rss_mb()


def report(passes: list[Pass]) -> list:
    lines = kind_lines(passes, "tag", (50, 99), "/tag requests")
    lines += kind_lines(passes, "attach", (50, 90), "/attach requests")
    restarts = samples(passes, "restart")
    lines.append(("restart_s", statistics.median(restarts), "s",
                  f"n={len(restarts)} SIGKILL restarts, launch to first correct response"))
    counters = passes[0].counters
    lines.append(("events_written", counters["events"], "count", f"{counters['pairs']} (resource, tag) pairs per replay"))
    return lines
