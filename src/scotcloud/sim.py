"""Deterministic simulator of the in-world client stack.

The in-world client has three kinds of script: a listener that hears
chat commands on a public channel, a communication center that owns the
request queue, and a pool of communication units that talk to the server.
The listener and the center are stages here (`post_chat` and
`center_assign`); only the units are modelled as scripts. Each unit may
issue at most 25 requests in any sliding 20-second window, so the center
defers work until some unit has headroom and fans multi-page responses
back together.

The memory model is coarse. A unit is charged a flat REQUEST_COST of
512 B per request in flight and nothing for the pages it holds, against
a MEMORY_BUDGET of 64 KiB with a MEMORY_WARN at 25 KiB. While answers
come within the 20 s window a unit has at most 25 requests, 12.8 KB, in
flight, so `memory-warn` and `memory-exceeded` appear only when a
response takes longer than that.

Everything runs on a simulated millisecond clock: given the same seed and
command schedule, two runs produce byte-identical event traces. The
server can be the in-process service (deterministic) or a live one over
HTTP through `wire.HttpTransport` (wire mode, no determinism guarantee).
This module imports no HTTP code: the simulator runs over any transport
with a `get` method.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import random
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Protocol, Union
from urllib.parse import quote_plus

from .service import (
    MEMO_ENTRIES,
    OPERATIONS,
    PARAM_DEFAULTS,
    AnnotationService,
    Page,
    PageError,
    ReassemblyError,
    decode_page,
    parse_digits,
)

WINDOW_MS = 20000
WINDOW_MAX = 25
MEMORY_BUDGET = 65536
MEMORY_WARN = 25600
REQUEST_COST = 512
# The most communication units one simulator builds: a pool as large as the
# 255 prims of one linked object. A unit is built before it is used, so a
# larger count would only fill memory with idle units.
MAX_UNITS = 255
PUBLIC_CHANNEL = 0
CENTER_CHANNEL = -1

# The query parameters that a chat command's arguments give, in order; the speaker is the `tagger`.
_ARG_PARAMS = {kind: tuple(name for name in names if name != "tagger") for kind, names in OPERATIONS.items()}

USAGE = "commands: tag <resource> <tag> | cloud <resource> | map <root> [depth] | attach <parent> <child> | help"


class SimError(Exception):
    """The simulation was driven outside its contract."""


class ScriptFormatError(ValueError):
    """A bot script line does not match the replay format."""


@dataclass
class ScriptUnit:
    """A communication unit: its memory use and the issue times still in its rate window."""

    label: str
    memory_used: int = 0
    frozen: bool = False
    issued: deque[int] = field(default_factory=deque)


def reassemble(pages: list[Page]) -> bytes:
    """Concatenate payloads of pages 1..n; total and indices must agree."""
    if not pages:
        raise ReassemblyError("no pages")
    total = pages[0].total
    by_index: dict[int, Page] = {}
    for page in pages:
        if page.total != total:
            raise ReassemblyError(f"inconsistent totals: {page.total} vs {total}")
        if page.index in by_index:
            raise ReassemblyError(f"duplicate page {page.index}")
        by_index[page.index] = page
    for i in range(1, total + 1):
        if i not in by_index:
            raise ReassemblyError(f"missing page {i}")
    return b"".join(by_index[i].payload for i in range(1, total + 1))


# -- client transports --------------------------------------------------------


class InProcessTransport:
    """Function-call transport straight into an AnnotationService."""

    def __init__(self, service: AnnotationService):
        self.service = service

    def get(self, path_query: str) -> tuple[int, bytes]:
        response = self.service.handle_url(path_query)
        return response.status, response.encode()


class Transport(Protocol):
    """What the simulator sends requests through: `InProcessTransport`, or `wire.HttpTransport` for a live server."""

    def get(self, path_query: str) -> tuple[int, bytes]: ...


def fetch_body(transport: Transport, path: str, params: list[tuple[str, str]]) -> tuple[int, bytes]:
    """Plain page-walking fetch (no rate limiting): reassembled full body."""
    status, raw = transport.get(build_query(path, params, 0))
    first = decode_page(raw)
    if status != 200 or first.total == 1:
        return status, first.payload
    pages = [first]
    for i in range(1, first.total):
        status_i, raw_i = transport.get(build_query(path, params, i))
        if status_i != 200:
            return status_i, decode_page(raw_i).payload
        pages.append(decode_page(raw_i))
    return 200, reassemble(pages)


# A command's values repeat across commands and pages: each distinct one is quoted once.
_quote_plus = functools.lru_cache(maxsize=MEMO_ENTRIES)(quote_plus)


def build_query(path: str, params: list[tuple[str, str]], page: int = 0) -> str:
    """The query `urlencode` gives; the names are the protocol's plain words, so only the values are quoted."""
    items = [f"{name}={_quote_plus(value)}" for name, value in params]
    if page > 0:
        items.append(f"page={page}")
    return f"/{path}?{'&'.join(items)}" if items else f"/{path}"


# -- chat command grammar ------------------------------------------------------


def parse_command(text: str) -> Optional[tuple[str, list[str]]]:
    """Split a chat line into (kind, args); None when it isn't a command."""
    tokens = text.split()
    if not tokens:
        return None
    kind, args = tokens[0], tokens[1:]
    if kind == "tag" and len(args) == 2:
        return kind, args
    if kind == "cloud" and len(args) == 1:
        return kind, args
    if kind == "map" and len(args) in (1, 2):
        if len(args) == 2 and not parse_digits(args[1]):  # a depth the server takes: 1 or more
            return None
        return kind, args
    if kind == "attach" and len(args) == 2:
        return kind, args
    if kind == "help" and not args:
        return kind, args
    return None


@dataclass
class ScriptLine:
    time_ms: int
    channel: int
    sender: uuid.UUID
    text: str


def _ascii_int(raw: str) -> int:
    """`raw` as a number if it is `-?[0-9]+`; int() also takes `+`, `_`, spaces and other scripts' digits."""
    if not (raw.isascii() and raw.lstrip("-").isdigit()):  # int() refuses the `--5` that this lets by
        raise ValueError(f"invalid literal for int() with base 10: {raw!r}")
    return int(raw)


def parse_script(text: str) -> list[ScriptLine]:
    """Replay format: `@<time_ms> <channel> <sender-uuid> <command text>` per line.

    The time is ASCII digits, the channel ASCII digits with an optional `-`.
    A script has few senders and many lines: each sender is parsed once.
    """
    lines: list[ScriptLine] = []
    senders: dict[str, uuid.UUID] = {}
    last_time = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = raw.split(" ", 3)
        if len(parts) != 4 or not parts[0].startswith("@"):
            raise ScriptFormatError(f"line {lineno}: expected '@time channel sender command'")
        try:
            time_ms = _ascii_int(parts[0][1:])
            channel = _ascii_int(parts[1])
            sender = senders.get(parts[2])
            if sender is None:
                sender = senders[parts[2]] = uuid.UUID(parts[2])
        except ValueError as exc:
            raise ScriptFormatError(f"line {lineno}: {exc}") from None
        if parts[0].startswith("@-"):
            raise ScriptFormatError(f"line {lineno}: time must not be negative")
        if time_ms < last_time:
            raise ScriptFormatError(f"line {lineno}: lines must be sorted by time")
        if not parts[3]:
            raise ScriptFormatError(f"line {lineno}: empty command")
        last_time = time_ms
        lines.append(ScriptLine(time_ms, channel, sender, parts[3]))
    return lines


# -- the simulator --------------------------------------------------------------


@dataclass
class _Command:
    kind: str
    params: list[tuple[str, str]]
    pages: dict[int, Page] = field(default_factory=dict)
    requested: int = 1  # pages 1..requested have been asked for
    total: Optional[int] = None
    failed: bool = False


@dataclass
class _Pending:
    command: _Command
    query: str


def _sha8(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


class _Clock:
    """The simulated time in ms; calling it reads the time, as `AnnotationService.now_ms` does."""

    __slots__ = ("ms",)

    def __init__(self) -> None:
        self.ms = 0

    def __call__(self) -> int:
        return self.ms


class Simulator:
    """Replays chat commands through the listener, the center and the units.

    A simulator owns its units, its event heap, its deferred queue and its
    trace, and it holds its transport. A command lives only as long as a
    request or page of it is queued or in flight. An in-process
    service is lent only the simulated clock, as its `now_ms`: the service
    keeps no reference to the simulator, so a finished simulator, with
    its trace and pages, is freed as soon as its last reference goes, and
    the service stays usable after it.

    Each issued request is answered `base_latency_ms` plus a uniform
    draw from 0..`jitter_ms` later; `seed` seeds that one draw per
    issue, so it is the simulator's only source of randomness. Each unit
    is held to the platform's sliding rate window: at most `WINDOW_MAX`
    issues in any `WINDOW_MS`.

    Each sender's UUID is turned into text once per simulator, in
    `_names`, which the `chat` line and the `tagger` parameter share; it
    holds one entry per distinct sender heard. `build_query` quotes each
    distinct value once, through a memo shared by every simulator that
    keeps the last MEMO_ENTRIES values.
    """

    def __init__(
        self,
        target: Union[AnnotationService, Transport],
        units: int = 1,
        seed: int = 0,
        base_latency_ms: int = 50,
        jitter_ms: int = 0,
    ):
        if not 1 <= units <= MAX_UNITS:
            raise SimError(f"the communication units must number 1 to {MAX_UNITS}, not {units}")
        if base_latency_ms < 0 or jitter_ms < 0:
            raise ValueError("latency parameters must be non-negative")
        if isinstance(target, AnnotationService):
            target = InProcessTransport(target)
        self.transport = target
        self._clock = _Clock()  # moves only forward, only in `advance`
        if isinstance(self.transport, InProcessTransport):
            self.transport.service.now_ms = self._clock

        self.base_latency_ms = base_latency_ms
        self.jitter_ms = jitter_ms
        self._rng = random.Random(seed)
        self.units = [ScriptUnit(f"u{i + 1}") for i in range(units)]

        self._rr = 0
        self._heap: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self._queue: deque[_Pending] = deque()
        self._retry_times: set[int] = set()
        self._names: dict[uuid.UUID, str] = {}  # sender -> its text
        self.trace: list[str] = []

    @property
    def now(self) -> int:
        """The simulated time in ms."""
        return self._clock.ms

    # -- units -----------------------------------------------------------------

    def memory_account(self, unit: ScriptUnit, delta: int) -> None:
        """Adjust a unit's memory; crossing thresholds emits events, exceeding freezes."""
        before = unit.memory_used
        unit.memory_used = max(0, before + delta)
        if before < MEMORY_WARN <= unit.memory_used:
            self._emit(f"memory-warn {unit.label} {unit.memory_used}")
        if unit.memory_used > MEMORY_BUDGET and not unit.frozen:
            unit.frozen = True
            self._emit(f"memory-exceeded {unit.label} {unit.memory_used}")

    # -- rate window -------------------------------------------------------------

    def _headroom(self, unit: ScriptUnit) -> bool:
        """Forget the stamps that have left the window, then count the rest."""
        start = self._clock.ms - WINDOW_MS
        issued = unit.issued
        while issued and issued[0] < start:
            issued.popleft()
        return len(issued) < WINDOW_MAX

    def _next_free_time(self, unit: ScriptUnit) -> int:
        if self._headroom(unit):
            return self.now
        # Stamps are appended in clock order, so `issued` is sorted: the
        # (count-max+1)-th oldest stamp must age out before a slot opens.
        return unit.issued[len(unit.issued) - WINDOW_MAX] + WINDOW_MS + 1

    # -- event plumbing -----------------------------------------------------------

    def _emit(self, detail: str) -> str:
        line = f"{self._clock.ms} {detail}"
        self.trace.append(line)
        return line

    def _push(self, time_ms: int, kind: str, payload: object = None) -> None:
        heapq.heappush(self._heap, (time_ms, self._seq, kind, payload))
        self._seq += 1

    # -- chat front end --------------------------------------------------------------

    def post_chat(self, channel: int, sender: uuid.UUID, text: str) -> list[str]:
        """The listener: deliver one chat line at the current instant; returns new trace lines."""
        if not text:
            raise ValueError("channel message text must be non-empty")
        mark = len(self.trace)
        name = self._names.get(sender)
        if name is None:
            name = self._names[sender] = str(sender)
        self._emit(f"chat {channel} {name} {text}")
        if channel == PUBLIC_CHANNEL:
            parsed = parse_command(text)
            if parsed is None or parsed[0] == "help":
                self._emit(f"usage {channel} {USAGE}")
            else:
                kind, args = parsed
                self._accept(kind, args, name)
        return self.trace[mark:]

    def _accept(self, kind: str, args: list[str], tagger: str) -> None:
        given = dict(zip(_ARG_PARAMS[kind], args))
        params = [
            (name, given.get(name) or (tagger if name == "tagger" else PARAM_DEFAULTS[name]))
            for name in OPERATIONS[kind]
        ]
        command = _Command(kind, params)
        pending = _Pending(command, build_query(kind, params))
        # listener hands the parsed command to the center on the private channel
        self._emit(f"request {CENTER_CHANNEL} {kind} {pending.query}")
        self.center_assign(pending)

    # -- center and units ---------------------------------------------------------------

    def center_assign(self, pending: _Pending) -> Optional[ScriptUnit]:
        """The center: hand the request to a unit with window headroom, or defer it."""
        unit = self._try_assign(pending)
        if unit is None:
            self._emit(f"defer {pending.query}")
            self._queue.append(pending)
            self._schedule_retry()
        return unit

    def _try_assign(self, pending: _Pending) -> Optional[ScriptUnit]:
        n = len(self.units)
        for k in range(n):
            unit = self.units[(self._rr + k) % n]
            if not unit.frozen and self._headroom(unit):
                self._rr = (self._rr + k + 1) % n
                self.unit_issue(unit, pending)
                return unit
        return None

    def unit_issue(self, unit: ScriptUnit, pending: _Pending) -> None:
        if unit.frozen:
            raise SimError(f"{unit.label} is frozen")
        if not self._headroom(unit):
            raise SimError(f"{unit.label} has no window headroom")
        unit.issued.append(self.now)
        self.memory_account(unit, REQUEST_COST)
        self._emit(f"issue {unit.label} {pending.query}")
        status, raw = self.transport.get(pending.query)
        latency = self.base_latency_ms + self._rng.randint(0, self.jitter_ms)
        self._push(self.now + latency, "response", (unit, pending, status, raw))

    def _schedule_retry(self) -> None:
        candidates = [self._next_free_time(u) for u in self.units if not u.frozen]
        if not candidates:  # every unit is frozen: the queued commands can never run
            self._emit(f"stall {len(self._queue)}")
            return
        t = min(candidates)
        if t not in self._retry_times:
            self._retry_times.add(t)
            self._push(t, "retry")

    def _on_retry(self) -> None:
        while self._queue:
            unit = self._try_assign(self._queue[0])
            if unit is None:
                break
            self._queue.popleft()
        if self._queue:
            self._schedule_retry()

    def _on_response(self, unit: ScriptUnit, pending: _Pending, status: int, raw: bytes) -> None:
        self.memory_account(unit, -REQUEST_COST)
        self._emit(f"response {unit.label} {status} {len(raw)} {_sha8(raw)}")
        command = pending.command
        if command.failed:
            return  # a sibling page already failed the command
        try:
            page = decode_page(raw)
        except PageError:  # e.g. an HTML error page from a proxy, in wire mode
            command.failed = True
            self._emit(f"complete {command.kind} {status} badpage")
            return
        if status != 200:
            command.failed = True
            self._emit(f"complete {command.kind} {status} {page.payload.decode('utf-8', 'replace')}")
            return
        command.pages[page.index] = page
        command.total = page.total
        if len(command.pages) == command.total:
            body = reassemble(list(command.pages.values()))
            self._emit(f"complete {command.kind} {status} {len(body)} {_sha8(body)}")
            return
        for index in range(command.requested + 1, command.total + 1):
            command.requested = index
            self.center_assign(_Pending(command, build_query(command.kind, command.params, index - 1)))

    # -- the loop ------------------------------------------------------------------------

    def advance(self, ms: int) -> list[str]:
        """Move the clock forward, firing every event due on the way."""
        if ms < 0:
            raise SimError("cannot advance by a negative amount")
        target = self.now + ms
        mark = len(self.trace)
        while self._heap and self._heap[0][0] <= target:
            time_ms, _, kind, payload = heapq.heappop(self._heap)
            if time_ms < self.now:
                raise SimError(f"clock cannot move backwards ({time_ms} < {self.now})")
            self._clock.ms = time_ms
            if kind == "chat":
                line: ScriptLine = payload  # type: ignore[assignment]
                self.post_chat(line.channel, line.sender, line.text)
            elif kind == "retry":
                self._retry_times.discard(time_ms)
                self._on_retry()
            elif kind == "response":
                self._on_response(*payload)  # type: ignore[misc]
        self._clock.ms = target
        return self.trace[mark:]

    def run(self, script: list[ScriptLine]) -> str:
        """Replay a bot script to quiescence; returns the full trace text."""
        for line in script:
            self._push(line.time_ms, "chat", line)
        while self._heap:
            self.advance(self._heap[0][0] - self.now)
        return "".join(line + "\n" for line in self.trace)
