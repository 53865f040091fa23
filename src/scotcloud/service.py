"""GET-shaped annotation service with byte-capped response paging.

Every endpoint takes its parameters as URL query parameters, mutations
included: the consuming clients are scripts on a platform that only gets
friendly treatment for GET. Every response body is split into pages of at
most `page_cap` bytes (header line included); clients fetch page by page
and reassemble. Error bodies are single machine-parseable tokens.

A request is its URL: `AnnotationService.handle_url` is the one way a
request reaches an operation, in-process as over HTTP. It answers
`unknown` or `badpage` for a target that does not parse, then
`throttled`, then `missing`, before the operation's own checks.

A request target in origin form (one `/`, then no `#`, tab, CR or LF) is
split at its first `?` in one pass; any other is read by `urlsplit`. The
query is `&`-separated `name=value` pairs read as `parse_qsl` reads them
with blank values kept: `+` is a space, `%XX` decodes as UTF-8 with
invalid bytes replaced, and a repeated name keeps its last value
(`request_from_url`).

This module is the in-process core and the store directory; it imports
no HTTP code. The HTTP server shell over it, and the client transport,
are in `wire`.

Persistence is a directory holding one append-only `events.log`, the
only source of truth for clouds and topic maps alike. It has two kinds of
LF-terminated, tab-separated line: an annotation event
(`timestamp_ms tagger resource tag`) and an accepted attach
(`attach parent child`). Every accepted mutation appends one line, and a
restart replays them in order. A directory that holds the `snapshot.rdf`
of older versions is refused by name: restore and `snapshot_store` raise
StoreLoadError before they read or write anything.

Every byte this module writes to a store directory goes through
`_write_all`, one loop over `os.write` that continues a short write;
the other calls that change the directory are `os.fsync`, `os.replace`,
`os.unlink` and `os.ftruncate`. A crash at any of them leaves a directory
that restores to the store before the operation or after it:

- an append leaves at most part of its line, which restore drops;
- `snapshot_store` leaves the old log until its rename, the new one after;
- opening the log for appending cuts any partial last line first.

A failed append answers `storage` and cuts what it wrote of its line at
once; if that cut fails too, the next opening of the log makes it. So
no line is ever written after a partial one.

A service keeps `events.log` open for appending between writes, so a write
costs one `write` call. Before each append it compares the path's inode
with the open descriptor's and reopens through the path when they differ,
so a log renamed over it (`snapshot_store`, `scotcloud import`) or
removed is followed, not written past.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import os
import re
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union
from urllib.parse import unquote, urlsplit

from . import model, rdfxml
from .model import AnnotationEvent, AnnotationStore, TopicMap, VocabConfig
from .rdfxml import Iri

log = logging.getLogger(__name__)

PAGE_HEADER_RESERVE = 32
_PAGE_HEADER = re.compile(rb"page ([0-9]+)/([0-9]+) ([0-9]+)")
MIN_PAGE_CAP = 64  # smallest page a response may be split into, header line included
PAGE_CAP_TOO_SMALL = f"page cap must be at least {MIN_PAGE_CAP} bytes"
BODY_CACHE_ENTRIES = 64  # paged bodies kept per service; the oldest goes first
MEMO_ENTRIES = 1024  # the most distinct strings one memo of parsed or quoted values keeps
SNAPSHOT_FILE = "snapshot.rdf"  # older versions kept topic maps here; a directory holding it is refused
EVENTS_FILE = "events.log"
EVENTS_TMP = EVENTS_FILE + ".tmp"  # snapshot_store writes here, then renames over EVENTS_FILE
WRITE_CHUNK = 1 << 16  # snapshot_store passes os.write about this many bytes at a time
TAIL_READ = 4096  # _cut_torn_tail reads the log backwards this many bytes at a time
ATTACH_MARK = "attach"
# The writers of the two RDF/XML documents: a `/cloud` binds the SCOT namespaces, an `/export` also skos.
_CLOUD_WRITER = rdfxml.Writer({"rdf": rdfxml.RDF_NS, **model.BINDINGS})
_EXPORT_WRITER = rdfxml.Writer({"rdf": rdfxml.RDF_NS, **model.BINDINGS, "skos": model.SKOS_NS})
_END = rdfxml.END.encode("utf-8")

# The query parameters of each operation, in the order clients send them.
# Each is required and must not be empty, but for those in PARAM_DEFAULTS.
OPERATIONS: dict[str, tuple[str, ...]] = {
    "tag": ("resource", "tag", "tagger"),
    "cloud": ("resource",),
    "map": ("root", "depth"),
    "attach": ("parent", "child", "tagger"),
    "export": (),
}
PARAM_DEFAULTS = {"depth": "1"}
MUTATIONS = frozenset({"tag", "attach"})
# The names each operation must be given, not empty: its parameters without a default.
_REQUIRED = {op: tuple(name for name in names if name not in PARAM_DEFAULTS) for op, names in OPERATIONS.items()}


class PageError(ValueError):
    """Raw bytes do not decode as a page."""


class ReassemblyError(ValueError):
    """A page set cannot be stitched back into a body."""


class PageNumberError(ValueError):
    """A request's `page` parameter is not a page number."""


class StoreLoadError(Exception):
    """A store directory or document cannot be restored."""


@dataclass(frozen=True)
class Page:
    """One chunk of a response body. Indices are 1-based on the wire."""

    index: int
    total: int
    payload: bytes

    def __post_init__(self) -> None:
        if not (1 <= self.index <= self.total):
            raise ValueError(f"page index {self.index} outside 1..{self.total}")

    def encode(self) -> bytes:
        return b"page %d/%d %d\n" % (self.index, self.total, len(self.payload)) + self.payload


def paginate(body: bytes, cap: int) -> list[Page]:
    """Split a body so that header + payload never exceeds `cap` bytes."""
    if cap < MIN_PAGE_CAP:
        raise ValueError(PAGE_CAP_TOO_SMALL)
    chunk = cap - PAGE_HEADER_RESERVE
    total = max(1, -(-len(body) // chunk))
    return [
        Page(i + 1, total, body[i * chunk : (i + 1) * chunk])
        for i in range(total)
    ]


def decode_page(raw: bytes) -> Page:
    head, sep, payload = raw.partition(b"\n")
    if not sep:
        raise PageError("missing page header line")
    match = _PAGE_HEADER.fullmatch(head)
    if match is None:
        raise PageError(f"bad page header: {head!r}")
    try:
        index, total, length = map(int, match.groups())
    except ValueError:  # more digits than int() converts
        raise PageError(f"bad page header: {head!r}") from None
    if length != len(payload):
        raise PageError(f"payload is {len(payload)} bytes, header says {length}")
    if not 1 <= index <= total:
        raise PageError(f"bad page header: {head!r}")
    return Page(index, total, payload)


def parse_digits(raw: str) -> Optional[int]:
    """`raw` as a number if it is `[0-9]+`, else None (int() also takes signs, `_`, spaces, other digits)."""
    if not (raw.isascii() and raw.isdigit()):
        return None
    try:
        return int(raw)
    except ValueError:  # more digits than int() converts
        return None


@dataclass
class ApiResponse:
    status: int
    page: Page

    @property
    def ok(self) -> bool:
        return self.status == 200

    def encode(self) -> bytes:
        return self.page.encode()


@dataclass
class ServiceConfig:
    port: int = 8765
    store_path: Optional[str] = None
    base_uri: str = VocabConfig.base_uri
    page_cap: int = 2048
    rate_limit_max: Optional[int] = None
    rate_limit_window_ms: int = 20000

    def __post_init__(self) -> None:
        if self.page_cap < MIN_PAGE_CAP:
            raise ValueError(PAGE_CAP_TOO_SMALL)
        try:
            Iri(self.base_uri)  # every minted resource and tag IRI starts with it
        except rdfxml.ValidationError as exc:
            raise ValueError(f"base_uri is not an IRI: {exc}") from None
        # 0 would throttle every request; a window under 1 ms would never hold one.
        if self.rate_limit_max is not None and self.rate_limit_max < 1:
            raise ValueError(f"rate_limit_max must be at least 1, not {self.rate_limit_max}")
        if self.rate_limit_window_ms < 1:
            raise ValueError(f"rate_limit_window_ms must be at least 1, not {self.rate_limit_window_ms}")

    def vocab(self) -> VocabConfig:
        return VocabConfig(self.base_uri)


_CONFIG_KEYS = {
    "port": int,
    "store": str,
    "base_uri": str,
    "page_cap": int,
    "rate_limit_max": int,
    "rate_limit_window_ms": int,
}


def load_config(path: str) -> ServiceConfig:
    """Read a key=value config file; '#' starts a comment line."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: bad config line {line!r}")
        value = value.strip()
        try:
            values["store_path" if key == "store" else key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return ServiceConfig(**values)  # type: ignore[arg-type]


def request_from_url(path_query: str) -> tuple[str, dict[str, str], int]:
    """Parse "/op?key=value&..." into its operation, its other parameters and its 0-based page.

    Raises ValueError for an operation not in OPERATIONS, and
    PageNumberError for a `page` that is not a number.

    An origin-form target, one `/` then no `#`, tab, CR or LF, is split at
    its first `?`; any other goes through `urlsplit`, which strips those
    characters and reads a scheme, a host and a fragment. The query is read
    as `dict(parse_qsl(query, keep_blank_values=True))` reads it: empty
    pieces are skipped, each piece splits at its first `=`, `+` is a space
    and `%XX` escapes decode as UTF-8 with invalid bytes replaced, and a
    repeated name keeps its last value.
    """
    path, _, query = path_query.partition("?")
    if path_query[:1] != "/" or path_query[1:2] == "/" or (
        "#" in path_query or "\t" in path_query or "\r" in path_query or "\n" in path_query
    ):
        path, query = urlsplit(path_query)[2:4]
    operation = path.strip("/")
    if operation not in OPERATIONS:
        raise ValueError(f"unknown operation {operation!r}")
    params: dict[str, str] = {}
    for piece in filter(None, query.split("&")):
        name, _, value = piece.partition("=")
        params[unquote(name.replace("+", " "), errors="replace")] = unquote(value.replace("+", " "), errors="replace")
    page_raw = params.pop("page", "0")
    page = parse_digits(page_raw)
    if page is None:
        raise PageNumberError(f"bad page number {page_raw!r}")
    return operation, params, page


def _now_wall_ms() -> int:
    return int(time.time() * 1000)


# A UUID is immutable, so every service shares one memo of parsed taggers.
# A string that is not a UUID raises again on every call: lru_cache keeps no exception.
_tagger = functools.lru_cache(maxsize=MEMO_ENTRIES)(uuid.UUID)


class AnnotationService:
    """In-process core of the server; the HTTP layer, `wire`, is a thin shell.

    `handle_url` is its one entry: every request, from `wire`, from
    `sim.InProcessTransport` or from a test, is a request target, checked
    for `unknown` and `badpage`, `throttled` and `missing` in that order
    before its `_op_<operation>` gets its parameters and page.

    Requests are serialized under one lock. A mutation is appended to the
    on-disk log before it changes the store, so a failed write answers
    `storage` and leaves both as they were; any other failed request
    touches neither. That includes a `/tag` or `/attach` that asks for a
    page other than 0, and a `/tag` whose `ok` answer would not fit in one
    page: they are refused before anything is written. Every answer but a
    `/cloud`, `/map` or `/export` document is one page (`_answer`).

    The paged bodies of `/cloud`, `/map` and `/export` are built once and
    their pages served from a cache of at most BODY_CACHE_ENTRIES bodies,
    the oldest build going first. A page comes from one build of its
    document until something that document depends on changes: each body
    is stamped with the store stamps of just what it was built from
    (`_stamp`); one whose stamp has moved is built again, and the next
    build lets go of it. So a `/tag` on one resource leaves every other
    resource's `/cloud` cached, and every page is still the document of
    the store as it is when the page is asked for. `store` is bound once,
    here, so a stamp need not name it.

    A request's strings are parsed once per distinct value: the tagger of
    `/tag` and `/attach` through `_tagger`, shared by every service, and
    the resource name of `/tag`, `/cloud` and `/map` through
    `_resource_iri`, this service's memo of `vocab.resource_iri`. Each
    keeps the last MEMO_ENTRIES values it parsed, and only those that
    parsed: a tagger or a name that is refused is parsed, and refused,
    again on every request.

    The RDF/XML bodies are joined from `_descriptions`, a cache of the
    text of each `rdf:Description` the service has written, which lives
    as long as the service. An entry is keyed by its subject and document
    form: `(scoped, resource)` for a cloud, `(scoped, resource, label)`
    for one of its tags, where `scoped` is False for the minted tag IRIs
    of `/cloud` and True for the scoped ones of `/export`, and the label
    for a concept of `/export`. It holds the inputs its text was written
    from: a tag's count, a cloud's number of labels (which names its
    label set, as labels are only ever added), a concept's parent. A build
    writes again only the roles whose inputs moved, each replacing its
    entry, so the cache holds one entry per subject and form, whatever
    the counts. Nothing is rendered by a write.

    With a store directory, the first append opens `events.log` with
    O_APPEND, cuts any partial last line a crash left, and keeps the
    descriptor open; each line is one unbuffered `os.write`, so it is in
    the kernel before memory changes. The path's inode is checked before
    each append, and a log that was replaced or removed is opened again
    through the path. A failed append cuts what it wrote of its line and
    closes the descriptor. `close` releases it.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        store: Optional[AnnotationStore] = None,
        now_ms: Optional[Callable[[], int]] = None,
    ):
        self.config = config or ServiceConfig()
        self.vocab = self.config.vocab()
        self._resource_iri = functools.lru_cache(maxsize=MEMO_ENTRIES)(self.vocab.resource_iri)
        if self.config.store_path and Path(self.config.store_path).exists():
            store = restore_store(self.config.store_path)
        self.store = store if store is not None else AnnotationStore()
        self.now_ms = now_ms or _now_wall_ms
        self._lock = threading.Lock()
        self._recent: deque[int] = deque()
        self._bodies: dict[tuple, tuple[tuple, list[Page]]] = {}  # key -> (stamp, pages)
        self._descriptions: dict[Union[str, tuple], tuple] = {}  # key -> (inputs, subject, text, key)
        self._log_fd: Optional[int] = None
        self._log_id = (0, 0)  # (st_dev, st_ino) of the file _log_fd is open on

    # -- dispatch ----------------------------------------------------------

    def handle_url(self, path_query: str) -> ApiResponse:
        """The answer to the request target `path_query`, checked in this order.

        `unknown` for an operation not in OPERATIONS and `badpage` for a
        `page` that is not a number, as `request_from_url` reads them;
        `throttled` over the rate limit; `missing` when a required
        parameter is absent or empty; otherwise the operation's own answer.
        """
        try:
            operation, params, page = request_from_url(path_query)
        except PageNumberError:
            return self._answer(400, "badpage")
        except ValueError:
            return self._answer(404, "unknown")
        if self.config.rate_limit_max is not None and self._throttled():
            return self._answer(429, "throttled")
        if not all(map(params.get, _REQUIRED[operation])):
            return self._answer(400, "missing")
        return getattr(self, f"_op_{operation}")(params, page)

    def _throttled(self) -> bool:
        now = self.now_ms()
        window = self.config.rate_limit_window_ms
        with self._lock:
            while self._recent and self._recent[0] <= now - window:
                self._recent.popleft()
            if len(self._recent) >= self.config.rate_limit_max:
                return True
            self._recent.append(now)
            return False

    # -- responses ---------------------------------------------------------

    def _page_of(self, pages: list[Page], page_index: int) -> ApiResponse:
        if not (0 <= page_index < len(pages)):
            return self._answer(400, "badpage")
        return ApiResponse(200, pages[page_index])

    def _stamp(self, key: tuple) -> tuple:
        """The store stamps of just what the body cached under `key` is built from.

        A `("cloud", resource)` body reads that one cloud. A
        `("map", root, depth, resource)` body reads the trees and the
        cloud of `resource`, the one named after its root, so a `/tag`
        there changes its counts. An `("export",)` body reads everything.
        """
        store = self.store
        if key[0] == "cloud":
            return (store.cloud_version(key[1]),)
        if key[0] == "map":
            return (store.trees_version, store.cloud_version(key[3]))
        return (store.version,)

    def _cached_pages(self, key: tuple, build: Callable[[], bytes]) -> list[Page]:
        """Pages of the body `build` returns for `key` at the current store state.

        The caller holds `_lock`. A held body whose stamp has moved is
        built again, as the newest entry. Each build first lets go of
        every body whose stamp has moved, since no read can be served from
        it; an export can be megabytes. An exception from `build` caches
        nothing.
        """
        stamp = self._stamp(key)
        held = self._bodies.get(key)
        if held is not None and held[0] == stamp:
            return held[1]
        pages = paginate(build(), self.config.page_cap)
        for stale in [k for k, (built_from, _) in self._bodies.items() if built_from != self._stamp(k)]:
            del self._bodies[stale]
        if len(self._bodies) >= BODY_CACHE_ENTRIES:
            del self._bodies[next(iter(self._bodies))]
        self._bodies[key] = (stamp, pages)
        return pages

    def _answer(self, status: int, text: str) -> ApiResponse:
        """The one page of an answer that is not a document: an error token, or a mutation's `ok`.

        It is the page `paginate` gives, built without it, and refused as
        `paginate` refuses it: under a cap below MIN_PAGE_CAP, or longer than a page.
        """
        payload = text.encode("utf-8")
        if self.config.page_cap < MIN_PAGE_CAP or len(payload) > self.config.page_cap - PAGE_HEADER_RESERVE:
            raise ValueError(f"page cap {self.config.page_cap} holds no one-page answer of {len(payload)} bytes")
        return ApiResponse(status, Page(1, 1, payload))

    # -- operations ---------------------------------------------------------

    def _op_tag(self, params: dict[str, str], page: int) -> ApiResponse:
        try:
            tagger = _tagger(params["tagger"])
        except ValueError:
            return self._answer(400, "badtagger")
        try:
            label = model.normalize_tag(params["tag"])
            resource = self._resource_iri(params["resource"])
        except (model.TagError, rdfxml.ValidationError):
            return self._answer(400, "badtag")
        if page != 0:
            return self._answer(400, "badpage")
        with self._lock:
            cloud = self.store.clouds.get(resource)
            answer = f"ok {label} {(cloud.frequencies.get(label, 0) if cloud else 0) + 1}"
            if len(answer.encode("utf-8")) > self.config.page_cap - PAGE_HEADER_RESERVE:
                return self._answer(400, "badtag")  # the answer would not fit in one page
            event = AnnotationEvent(self.now_ms(), tagger, resource, label)
            if self.config.store_path and not self._append_log_line(format_event_line(event)):
                return self._answer(500, "storage")
            self.store.record(event)
        return self._answer(200, answer)

    def _op_cloud(self, params: dict[str, str], page: int) -> ApiResponse:
        try:
            resource = self._resource_iri(params["resource"])
        except (model.TagError, rdfxml.ValidationError):
            return self._answer(400, "badtag")
        with self._lock:
            pages = self._cached_pages(("cloud", resource), lambda: self._cloud_body(resource))
        return self._page_of(pages, page)

    def _cloud_body(self, resource: Iri) -> bytes:
        cloud = self.store.cloud_of(resource)
        return self._document(_CLOUD_WRITER, self._cloud_roles(cloud, False))

    def _op_map(self, params: dict[str, str], page: int) -> ApiResponse:
        depth = parse_digits(params.get("depth", PARAM_DEFAULTS["depth"]))
        if depth is None or depth < 1:
            return self._answer(400, "baddepth")
        try:
            root = model.normalize_tag(params["root"])
        except model.TagError:
            return self._answer(400, "badtag")
        with self._lock:
            try:
                # Every depth from the root's height on gives the same body: one key for them all.
                depth = min(depth, self.store.height(root))
            except model.UnknownConceptError:
                return self._answer(404, "unknown")
            try:
                resource = self._resource_iri(root)  # its cloud gives the counts
            except rdfxml.ValidationError:
                return self._answer(400, "badtag")
            key = ("map", root, depth, resource)
            pages = self._cached_pages(key, lambda: self._map_body(root, depth, resource))
        return self._page_of(pages, page)

    def _map_body(self, root: str, depth: int, resource: Iri) -> bytes:
        freqs = self.store.cloud_of(resource).frequencies
        return render_tree(self.store.subtree(root, depth), freqs).encode("utf-8")

    def _op_attach(self, params: dict[str, str], page: int) -> ApiResponse:
        try:
            _tagger(params["tagger"])
        except ValueError:
            return self._answer(400, "badtagger")
        with self._lock:
            try:
                parent, child = model.normalize_tag(params["parent"]), model.normalize_tag(params["child"])
                self.store.check_attach(parent, child)
            except model.TagError:
                return self._answer(400, "badtag")
            except model.AttachError as exc:
                return self._answer(409, exc.reason)
            if page != 0:
                return self._answer(400, "badpage")
            if self.config.store_path and not self._append_log_line(format_attach_line(parent, child)):
                return self._answer(500, "storage")
            self.store.attach(parent, child)
        return self._answer(200, "ok")

    def _op_export(self, params: dict[str, str], page: int) -> ApiResponse:
        with self._lock:
            pages = self._cached_pages(("export",), self._export_body)
        return self._page_of(pages, page)

    def _export_body(self) -> bytes:
        clouds = [self._cloud_roles(cloud, True) for cloud in self.store.clouds.values()]
        concepts = [tree.parent.items() for tree in self.store.maps.values()]  # a concept's role is (label, parent)
        return self._document(_EXPORT_WRITER, itertools.chain(*clouds, *concepts))

    # -- rendered descriptions -----------------------------------------------

    @staticmethod
    def _cloud_roles(cloud: model.TagCloud, scoped: bool) -> list[tuple[tuple, int]]:
        """The (key, inputs) of the descriptions of one cloud: one per tag, then its own, which names their subjects."""
        roles = [((scoped, cloud.resource, label), count) for label, count in cloud.frequencies.items()]
        roles.append(((scoped, cloud.resource), len(cloud.frequencies)))
        return roles

    def _subject(self, key: Union[str, tuple]) -> Iri:
        """The subject of the description cached under `key`."""
        if isinstance(key, str):  # a concept
            return self.vocab.mint(key)
        if len(key) == 2:  # a cloud
            return key[1]
        return self.vocab.tag_iri(key[1], key[2], key[0])

    def _properties(self, key: Union[str, tuple], inputs: Union[str, int]) -> dict[Iri, object]:
        """The properties of the description cached under `key`, as `inputs` give them."""
        if isinstance(key, str):  # a concept, below its parent
            return {model.SKOS_BROADER: self.vocab.mint(inputs)}
        if len(key) == 3:  # a tag and its count
            frequency = model.frequency_literal(inputs)
            return {rdfxml.RDF_TYPE: VocabConfig.tag_class, VocabConfig.frequency_property: frequency}
        properties: dict[Iri, object] = {rdfxml.RDF_TYPE: VocabConfig.tag_cloud_class}
        if inputs:  # a cloud, whose tags were rendered just before it
            labels = self.store.clouds[key[1]].frequencies
            properties[VocabConfig.has_tag] = {self._descriptions[(*key, label)][1] for label in labels}
        return properties

    def _document(self, writer: rdfxml.Writer, roles: Iterable[tuple]) -> bytes:
        """The document of `roles`, each description taken from `_descriptions` or rendered into it.

        A role whose cached inputs differ from its own is rendered again and
        replaces its entry. The description of an empty cloud is not kept,
        so no `/cloud` of a name that has no cloud grows the cache. A subject
        that two roles share is written once, from the union of their
        properties, and is not kept either. The caller holds `_lock`.
        """
        cache = self._descriptions
        texts: dict[Iri, tuple] = {}  # subject -> (inputs, subject, text, key)
        shared: dict[Iri, list[tuple]] = {}
        for key, inputs in roles:
            held = cache.get(key)
            if held is None or held[0] != inputs:
                subject = self._subject(key) if held is None else held[1]
                held = (inputs, subject, writer.describe(subject, self._properties(key, inputs)).encode("utf-8"), key)
                if inputs:
                    cache[key] = held
            subject = held[1]
            if subject in texts:
                shared.setdefault(subject, [texts[subject]]).append(held)
            texts[subject] = held
        for subject, helds in shared.items():
            union: dict[Iri, set] = {}
            for inputs, _, _, key in helds:
                for predicate, objects in self._properties(key, inputs).items():
                    union.setdefault(predicate, set()).update(objects if type(objects) is set else (objects,))
            texts[subject] = (None, subject, writer.describe(subject, union).encode("utf-8"), None)
        return b"".join([writer.head.encode("utf-8"), *(texts[subject][2] for subject in sorted(texts)), _END])

    # -- persistence ---------------------------------------------------------

    def _append_log_line(self, line: str) -> bool:
        """Append one line to the store directory's log; False if the write failed.

        Only a service with a store directory has a log, so only it formats
        a line to call this with. A failed append cuts what it may have
        written of its line; if that fails too, the next opening of the log
        cuts it. The caller holds `_lock`.
        """
        path = os.path.join(self.config.store_path, EVENTS_FILE)
        try:
            _write_all(self._log_descriptor(path), line.encode("utf-8"))
        except OSError as exc:
            log.error("%s: append failed: %s", path, exc)
            if self._log_fd is not None:
                with contextlib.suppress(OSError):
                    _cut_torn_tail(self._log_fd)
            self._close_log()
            return False
        return True

    def _log_descriptor(self, path: str) -> int:
        """The open descriptor of the file now at `path`, opening it if need be.

        Opening cuts any partial last line, which a crash or a failed
        append whose cut also failed leaves behind.
        """
        if self._log_fd is not None:
            try:
                st = os.stat(path)
                if (st.st_dev, st.st_ino) == self._log_id:
                    return self._log_fd
            except FileNotFoundError:
                pass
            self._close_log()
        os.makedirs(self.config.store_path, exist_ok=True)
        # Held before fstat, so that the caller's failure path closes it too.
        self._log_fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        st = os.fstat(self._log_fd)
        self._log_id = (st.st_dev, st.st_ino)
        _cut_torn_tail(self._log_fd)
        return self._log_fd

    def _close_log(self) -> None:
        fd, self._log_fd = self._log_fd, None
        if fd is not None:
            os.close(fd)

    def close(self) -> None:
        """Close the log descriptor, if one is open; a later append opens it again."""
        with self._lock:
            self._close_log()


def render_tree(tree: TopicMap, frequencies: dict[str, int]) -> str:
    """Line-per-concept tree text: two spaces per level, rank order among siblings."""
    lines: list[str] = []
    children = tree.children()
    stack = [(tree.root, 0)]  # an explicit stack: a tree may be deeper than the recursion limit
    while stack:
        label, level = stack.pop()
        lines.append(f"{'  ' * level}{label} ({frequencies.get(label, 0)})")
        siblings = model.rank_order(children.get(label, ()), frequencies)
        stack.extend((child, level + 1) for child in reversed(siblings))
    return "\n".join(lines) + "\n"


# -- store directories ---------------------------------------------------------


def format_event_line(event: AnnotationEvent) -> str:
    return f"{event.timestamp_ms}\t{event.tagger}\t{event.resource}\t{event.tag}\n"


def format_attach_line(parent: str, child: str) -> str:
    """Log line of an accepted attach; both labels already normalized."""
    return f"{ATTACH_MARK}\t{parent}\t{child}\n"


def parse_event_line(line: str) -> AnnotationEvent:
    return _read_event_line(line, {}, {})


def _read_event_line(line: str, taggers: dict[str, uuid.UUID], resources: dict[str, Iri]) -> AnnotationEvent:
    """`parse_event_line`, with each raw tagger and resource parsed at its first sight in the two dicts."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 4:
        raise ValueError(f"event line does not have 4 fields: {line!r}")
    timestamp = int(parts[0])
    tagger = taggers.get(parts[1])
    if tagger is None:
        tagger = taggers[parts[1]] = uuid.UUID(parts[1])
    resource = resources.get(parts[2])
    if resource is None:
        resource = resources[parts[2]] = Iri(parts[2])
    return AnnotationEvent(timestamp, tagger, resource, parts[3])


def _replay_line(store: AnnotationStore, line: str, taggers: dict[str, uuid.UUID], resources: dict[str, Iri]) -> None:
    # Event lines start with an integer timestamp, so the mark cannot collide.
    if not line.startswith(ATTACH_MARK + "\t"):
        store.record(_read_event_line(line, taggers, resources))
        return
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"attach line does not have 3 fields: {line!r}")
    store.attach(model._check_label(parts[1]), model._check_label(parts[2]))


def _write_all(fd: int, data: bytes) -> None:
    """Write all of `data` at `fd`, continuing after a short write: the one writer of store bytes."""
    while data:
        data = data[os.write(fd, data) :]


def _refuse_legacy(path: str) -> None:
    legacy = os.path.join(path, SNAPSHOT_FILE)
    if os.path.lexists(legacy):
        raise StoreLoadError(f"{legacy}: a store directory of an older version, which this version does not read")


def snapshot_store(store: AnnotationStore, path: str) -> None:
    """Write the store under `path` as a fresh `events.log`, atomically.

    The log is written to `events.log.tmp` in chunks of about
    WRITE_CHUNK bytes, synced and renamed over the old one. A crash or a
    failed call before the rename leaves the old log as it was, and
    perhaps the temporary file, which restore ignores; one after it
    leaves the new log. A directory that holds `snapshot.rdf` is refused
    with StoreLoadError before anything is written.

    Every event comes first, then each topic map's edges in insertion
    order, which is a valid replay order: `attach` only ever appends to a
    tree's `parent` dict, even when a tree grows upward: it keeps its dict
    and gets the new root's edge last.
    """
    _refuse_legacy(path)
    os.makedirs(path, exist_ok=True)
    tmp = os.path.join(path, EVENTS_TMP)
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            chunk = bytearray()
            for line in _store_lines(store):
                chunk += line.encode("utf-8")
                if len(chunk) >= WRITE_CHUNK:
                    _write_all(fd, chunk)
                    chunk.clear()
            _write_all(fd, chunk)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, os.path.join(path, EVENTS_FILE))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _store_lines(store: AnnotationStore):
    for event in store.events:
        yield format_event_line(event)
    for tree in store.maps.values():
        for child, parent in tree.parent.items():
            yield format_attach_line(parent, child)


def restore_store(path: str) -> AnnotationStore:
    """Rebuild a store by replaying a store directory's log.

    Event lines go through `AnnotationStore.record` and attach lines
    through `AnnotationStore.attach`; either is refused if a label in it
    is not normalized. An unterminated last line is what a crash
    mid-append leaves behind; it is dropped with a warning. A directory
    that is empty, or holds only the temporary file of a `snapshot_store`
    that never finished, is an empty store: a crash can leave either
    before the first line is written. A directory that holds the
    `snapshot.rdf` of older versions is refused by name. Raises
    StoreLoadError and leaves nothing half-built.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise StoreLoadError(f"no store directory at {path}")
    _refuse_legacy(path)
    log_file = directory / EVENTS_FILE
    store = AnnotationStore()
    if not log_file.exists():
        if any(entry.name != EVENTS_TMP for entry in directory.iterdir()):
            raise StoreLoadError(f"{path} holds neither {EVENTS_FILE} nor only an unfinished {EVENTS_TMP}")
        return store
    # Split on LF only: IRIs may hold U+2028 or U+0085, which
    # str.splitlines() would also treat as line ends.
    *lines, torn = log_file.read_bytes().split(b"\n")
    if torn:
        log.warning("%s: dropping unterminated last line %r", log_file, torn)
    # A store has few taggers and resources and many lines: each is parsed once.
    taggers: dict[str, uuid.UUID] = {}
    resources: dict[str, Iri] = {}
    for lineno, raw in enumerate(lines, 1):
        if not raw:
            continue
        try:
            _replay_line(store, raw.decode("utf-8"), taggers, resources)
        except (ValueError, model.AttachError) as exc:
            raise StoreLoadError(f"{log_file}:{lineno}: {exc}") from None
    return store


def _cut_torn_tail(fd: int) -> None:
    """Truncate the log open at `fd` after its last LF, so the next append starts a line of its own.

    The log is read backwards from its end, TAIL_READ bytes at a time,
    until an LF turns up: a log whose last line is whole costs one read.
    """
    end = pos = os.fstat(fd).st_size
    keep = 0
    while pos > 0:
        start = max(0, pos - TAIL_READ)
        lf = os.pread(fd, pos - start, start).rfind(b"\n")
        if lf >= 0:
            keep = start + lf + 1
            break
        pos = start
    if keep < end:
        os.ftruncate(fd, keep)
