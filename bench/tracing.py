"""Span tracing installed around the program's public functions from outside.

Nothing in the program knows about it: `install` replaces module functions
and methods with wrappers and returns a function that puts them back. A
span is the tuple (id, parent, name, start_ns, end_ns, request, amount),
kept in memory until the run ends. `amount` is a byte or item count taken
from the call where one is meaningful, else 0. Spans nest per thread; the
server's `handle_url` opens a new request id that nested spans inherit,
and client-side spans carry whatever id the caller set in `request`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Optional


def _store_size(args, store) -> tuple[int, int]:
    return len(store.events), sum(len(c.frequencies) for c in store.clouds.values())


# (module, class or None, attribute, span name, amount from (args, result), opens a request)
POINTS: list[tuple[str, Optional[str], str, str, Optional[Callable], bool]] = [
    ("scotcloud.rdfxml", None, "serialize", "rdfxml.serialize", lambda a, r: len(r.encode("utf-8")), False),
    ("scotcloud.rdfxml", None, "parse", "rdfxml.parse", lambda a, r: len(a[0]), False),
    ("scotcloud.model", "AnnotationStore", "record", "model.record", None, False),
    ("scotcloud.model", None, "cloud_to_rdf", "model.cloud_to_rdf", None, False),
    ("scotcloud.model", None, "store_to_graph", "model.store_to_graph", None, False),
    ("scotcloud.model", None, "store_from_graph", "model.store_from_graph", _store_size, False),
    ("scotcloud.model", "TopicMap", "children_of", "model.children_of", None, False),
    ("scotcloud.model", "AnnotationStore", "subtree", "model.subtree", None, False),
    ("scotcloud.model", None, "rdf_to_cloud", "model.rdf_to_cloud", None, False),
    ("scotcloud.service", "AnnotationService", "handle_url", "service.handle_url",
     lambda a, r: len(r.page.payload), True),
    ("scotcloud.service", None, "paginate", "service.paginate", lambda a, r: len(a[0]), False),
    ("scotcloud.service", None, "render_tree", "service.render_tree", None, False),
    ("scotcloud.service", None, "restore_store", "service.restore_store", None, False),
    ("scotcloud.sim", "Simulator", "run", "sim.run", None, False),
    ("scotcloud.sim", "InProcessTransport", "get", "sim.transport_get", None, False),
    ("scotcloud.sim", None, "reassemble", "sim.reassemble", lambda a, r: len(r), False),
    ("scotcloud.layout", None, "layout_cloud", "layout.layout_cloud", lambda a, r: len(r.prims), False),
    ("scotcloud.layout", None, "render_scene_flat", "layout.render_scene_flat", None, False),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, original: Callable, name: str, amount: Optional[Callable], opens_request: bool) -> Callable:
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent, request = stack[-1] if stack else (0, self.request)
            if opens_request:
                request = next(self._requests)
            stack.append((span_id, request))
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                size = amount(args, result) if amount is not None and result is not None else 0
                spans.append((span_id, parent, name, start, end, request, size))

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every point in POINTS; the returned function unwraps them."""
        undo = []
        for module_name, class_name, attr, name, amount, opens_request in POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, amount, opens_request))
            undo.append((owner, attr, original))

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall


class Stat:
    """Per-name totals over a set of spans."""

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.amount: list[int] = [0, 0]

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.amount = [a + b for a, b in zip(self.amount, other.amount)]


def aggregate(spans) -> dict[str, Stat]:
    """Calls, total and self time per span name.

    Self time is a span's duration minus the time its child spans cover;
    children of one span run one after another on its thread, so their
    durations add up without overlap.
    """
    covered: dict[int, int] = defaultdict(int)
    for span_id, parent, _name, start, end, _request, _amount in spans:
        if parent:
            covered[parent] += end - start
    stats: dict[str, Stat] = defaultdict(Stat)
    for span_id, _parent, name, start, end, _request, amount in spans:
        stat = stats[name]
        stat.calls += 1
        stat.total_ns += end - start
        stat.self_ns += end - start - covered.get(span_id, 0)
        if isinstance(amount, (list, tuple)):
            stat.amount = [stat.amount[0] + amount[0], stat.amount[1] + amount[1]]
        else:
            stat.amount[0] += amount
    return stats


def merge(*parts: dict[str, Stat]) -> dict[str, Stat]:
    merged: dict[str, Stat] = defaultdict(Stat)
    for part in parts:
        for name, stat in part.items():
            merged[name].add(stat)
    return merged
