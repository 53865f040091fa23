"""Shared pieces of the benchmark: seeded inputs, the HTTP client and the server child.

Everything here is the benchmark's own code. The load generator talks to
the server through the stdlib `http.client`, never through the program's
transports, so the client stays fixed while the program changes.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import math
import os
import re
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
import uuid
import xml.etree.ElementTree as ET
from pathlib import Path
from urllib.parse import unquote

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PAGE_CAP = 2048
RESOURCES = 50
LABELS = 240
# Zipf exponent of resource and label popularity. The workload spec says
# only "Zipf-distributed"; 1.1 is an assumption with no measured source.
# bench/README.md shows how the store shape moves for 1.0 to 1.2.
ZIPF_S = 1.1
SERVER_READY_TIMEOUT_S = 150.0
DUMP_TIMEOUT_S = 120.0

_PAGE_HEADER = re.compile(rb"page (\d+)/(\d+) (\d+)")
_SCOT_FREQ = "{http://scot-project.org/scot/ns#}ownAFrequency"
_RDF_ABOUT = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}about"
_RDF_DESC = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}Description"


class CheckFailed(Exception):
    """The program returned an output the benchmark cannot explain."""


# -- seeded inputs ---------------------------------------------------------------


class Zipf:
    """Ranks 0..n-1 with P(k) proportional to 1 / (k+1)**ZIPF_S."""

    def __init__(self, n: int):
        self.weights = [1.0 / (k ** ZIPF_S) for k in range(1, n + 1)]
        self.cdf = list(itertools.accumulate(self.weights))

    def draw(self, rng) -> int:
        return min(bisect.bisect_left(self.cdf, rng.random() * self.cdf[-1]), len(self.cdf) - 1)

    def deck(self, size: int) -> list[int]:
        """`size` ranks in exact Zipf proportion, for callers to shuffle and deal."""
        return [k for k, n in enumerate(apportion(size, self.weights)) for _ in range(n)]


def apportion(total: int, weights: list[float]) -> list[int]:
    """Split `total` into whole parts proportional to `weights` (largest remainder)."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    parts = [int(x) for x in exact]
    by_remainder = sorted(range(len(parts)), key=lambda i: parts[i] - exact[i])
    for i in by_remainder[: total - sum(parts)]:
        parts[i] += 1
    return parts


RESOURCE_ZIPF = Zipf(RESOURCES)
LABEL_ZIPF = Zipf(LABELS)


def resource_name(k: int) -> str:
    return f"res{k}"


def tag_label(k: int) -> str:
    return f"tag{k}"


def cloud_profile(events: int, rng) -> dict[str, int]:
    """Label counts of one resource's `events` tags, shaped like Zipf draws but fixed.

    The cloud holds as many distinct labels as `events` Zipf draws would
    be expected to reach, each at least once, and the rest of the counts
    follow the Zipf weights. Only which label holds which rank comes from
    `rng`, so every seed gets a cloud of the same size and profile.
    """
    total = sum(LABEL_ZIPF.weights)
    q = [w / total for w in LABEL_ZIPF.weights]
    distinct = min(events, round(sum(1.0 - (1.0 - p) ** events for p in q)))
    extra = apportion(events - distinct, LABEL_ZIPF.weights[:distinct]) if distinct else []
    labels = [tag_label(j) for j in range(LABELS)]
    rng.shuffle(labels)
    return {labels[j]: 1 + extra[j] for j in range(distinct)}


def taggers(rng, n: int = 20) -> list[str]:
    return [str(uuid.UUID(int=rng.getrandbits(128), version=4)) for _ in range(n)]


def draw_tag(rng) -> tuple[str, str]:
    return resource_name(RESOURCE_ZIPF.draw(rng)), tag_label(LABEL_ZIPF.draw(rng))


# -- statistics --------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by the inclusive method; median for q=50."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def exponent(small: tuple[float, float], large: tuple[float, float]) -> float:
    """Growth exponent b in time ~ size**b from two (size, seconds) points."""
    return math.log(large[1] / small[1]) / math.log(large[0] / small[0])


# -- response checks ------------------------------------------------------------------


def decode_page(raw: bytes) -> tuple[int, int, bytes]:
    """(index, total, payload) of one page; the framing itself is checked."""
    if len(raw) > PAGE_CAP:
        raise CheckFailed(f"page of {len(raw)} bytes exceeds the {PAGE_CAP}-byte cap")
    head, sep, payload = raw.partition(b"\n")
    match = _PAGE_HEADER.fullmatch(head)
    if not sep or match is None:
        raise CheckFailed(f"bad page header {head[:40]!r}")
    index, total, length = (int(g) for g in match.groups())
    if length != len(payload) or not 1 <= index <= total:
        raise CheckFailed(f"page header {head!r} does not match its payload")
    return index, total, payload


def cloud_frequencies(document: bytes) -> dict[str, int]:
    """Tag label -> count of a single-cloud RDF/XML document, read independently of the program."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise CheckFailed(f"cloud document does not parse: {exc}") from None
    freqs = {}
    for desc in root.iter(_RDF_DESC):
        freq = desc.find(_SCOT_FREQ)
        if freq is not None:
            about = desc.get(_RDF_ABOUT, "")
            label = unquote(about.rsplit("/", 1)[-1].removesuffix(".rdf"))
            freqs[label] = int(float(freq.text or "0"))
    return freqs


def tree_text(children: dict[str, list[str]], root: str, depth: int) -> str:
    """Expected /map body for concepts that are never tagged: every count is 0."""
    lines = []

    def walk(label: str, level: int) -> None:
        lines.append(f"{'  ' * level}{label} (0)")
        if level < depth:
            for child in sorted(children.get(label, ())):
                walk(child, level + 1)

    walk(root, 0)
    return "\n".join(lines) + "\n"


# -- HTTP client ---------------------------------------------------------------------------


class _CountingConnection(http.client.HTTPConnection):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connects = 0

    def connect(self) -> None:
        super().connect()
        self.connects += 1


class Client:
    """One persistent stdlib connection, reopened whenever the server closes it.

    `get` returns (status, raw body, seconds). `requests` and `seconds`
    count every request that got a response.
    """

    def __init__(self, port: int):
        self._conn = _CountingConnection("127.0.0.1", port, timeout=120)
        self.requests = 0
        self.seconds = 0.0

    @property
    def connects(self) -> int:
        return self._conn.connects

    def reopen(self) -> None:
        """Drop the connection, e.g. to a server that was killed; the next request reconnects."""
        self._conn.close()

    def get(self, path: str) -> tuple[int, bytes, float]:
        for attempt in range(2):
            reused = self._conn.sock is not None
            start = time.perf_counter()
            try:
                self._conn.request("GET", path)
                response = self._conn.getresponse()
                body = response.read()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                self._conn.close()
                # Only a kept-alive connection the server dropped while idle is retried.
                if reused and attempt == 0:
                    continue
                raise
            except OSError:
                self._conn.close()
                raise
            elapsed = time.perf_counter() - start
            self.requests += 1
            self.seconds += elapsed
            return response.status, body, elapsed
        raise AssertionError("unreachable")


# -- the server child -------------------------------------------------------------------------


def free_port() -> int:
    # `scotcloud serve --port 0` reports 0, not the bound port, so the benchmark picks one.
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """`scotcloud serve` in a child process, started through the benchmark's launcher."""

    live: set["ServerProcess"] = set()  # every server not yet killed, so a failing run can stop them

    def __init__(self, work: Path, store: Path, port: int, trace: bool, name: str):
        self.dump_path = work / f"{name}.dump.json"
        self.log_path = work / f"{name}.log"
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), "--port", str(port),
               "--store", str(store), "--dump", str(self.dump_path)]
        if trace:
            cmd.append("--trace")
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=self._log, cwd=ROOT)
        ServerProcess.live.add(self)

    def wait_ready(self, client: Client, path: str) -> tuple[float, int, bytes]:
        """Poll `path` until the server answers: (seconds from launch, status, body)."""
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {self.log_tail()}")
            try:
                status, body, _ = client.get(path)
            except (ConnectionRefusedError, ConnectionResetError, http.client.RemoteDisconnected):
                if time.perf_counter() - self.started > SERVER_READY_TIMEOUT_S:
                    raise RuntimeError(f"server not ready after {SERVER_READY_TIMEOUT_S} s: {self.log_tail()}") from None
                time.sleep(0.002)
                continue
            return time.perf_counter() - self.started, status, body

    def dump(self) -> dict:
        """Ask the launcher for its counters and spans (SIGUSR1) and read them."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + DUMP_TIMEOUT_S
        while not self.dump_path.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server wrote no dump: {self.log_tail()}")
            time.sleep(0.01)
        data = json.loads(self.dump_path.read_text("utf-8"))
        self.dump_path.unlink()
        return data

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()
        ServerProcess.live.discard(self)

    @classmethod
    def kill_all(cls) -> None:
        for server in list(cls.live):
            server.kill()

    def log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text("utf-8", "replace")[-2000:]


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child reaped so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
