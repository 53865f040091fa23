import gc
import random
import threading
import uuid

import pytest

from scotcloud.model import AnnotationStore, AttachError, VocabConfig
from scotcloud.service import AnnotationService, ServiceConfig
from scotcloud.sim import build_query
from scotcloud.wire import HttpServer

TAGGER = uuid.UUID("12345678-1234-5678-1234-567812345678")

MOUSE_TAGS = ["scroll", "optical", "informatics", "components", "peripheral"]


def seed_mouse(service: AnnotationService) -> None:
    """One tag each of the five words, laser three times."""
    for tag in MOUSE_TAGS:
        response = service.handle_url(f"/tag?resource=mouse&tag={tag}&tagger={TAGGER}")
        assert response.status == 200
    for _ in range(3):
        response = service.handle_url(f"/tag?resource=mouse&tag=laser&tagger={TAGGER}")
        assert response.status == 200


def ask(service: AnnotationService, operation: str, params: dict, page: int = 0):
    """The service's answer to `operation` with `params` and `page`, sent as a client sends it: one target."""
    return service.handle_url(build_query(operation, list(params.items()), page))


def fetch_full(service: AnnotationService, operation: str, params: dict) -> bytes:
    """Walk every page of an in-process response and concatenate payloads."""
    first = ask(service, operation, params).page
    chunks = [first.payload]
    for i in range(1, first.total):
        chunks.append(ask(service, operation, params, i).page.payload)
    return b"".join(chunks)


def crowd_burst_text(seed: int, commands: int = 500, burst: int = 150) -> str:
    """A bot script shaped like one `simulate` benchmark episode, built here.

    Twenty avatars send `commands` commands, `burst` at a time 50 ms
    apart with 30 s of quiet between bursts: about 95% `tag` and 5%
    `cloud`, on 50 resources and 240 labels drawn with Zipf weights
    (exponent 1.1). A burst is larger than four units' rate windows, so
    the defer and retry paths run.
    """
    rng = random.Random(seed)
    avatars = [uuid.UUID(int=rng.getrandbits(128), version=4) for _ in range(20)]
    resources = [f"res{k}" for k in range(50)]
    labels = [f"tag{k}" for k in range(240)]
    resource_weights = [1 / k**1.1 for k in range(1, len(resources) + 1)]
    label_weights = [1 / k**1.1 for k in range(1, len(labels) + 1)]
    lines = []
    t = 0
    for i in range(commands):
        if i and i % burst == 0:
            t += 30000
        resource = rng.choices(resources, resource_weights)[0]
        label = rng.choices(labels, label_weights)[0]
        command = f"cloud {resource}" if rng.random() < 0.05 else f"tag {resource} {label}"
        lines.append(f"@{t} 0 {rng.choice(avatars)} {command}\n")
        t += 50
    return "".join(lines)


def store_state(store):
    """Comparable view of a store: cloud counts plus topic-map edges."""
    clouds = {str(r): dict(c.frequencies) for r, c in store.clouds.items()}
    maps = {root: dict(tree.parent) for root, tree in store.maps.items()}
    return clouds, maps


def chain_document(links: int, nested: bool) -> str:
    """Resources n0 .. n<links> in a row, each `ex:next` the one after it.

    Nested, each description sits inside the property of the one before
    it, `links` levels deep; flat, every description is a child of
    rdf:RDF. Both forms hold the same `links` triples.
    """
    head = '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:ex="http://example.org/ns#">'
    if nested:
        body = "".join(f'<rdf:Description rdf:about="http://example.org/n{i}"><ex:next>' for i in range(links))
        body += f'<rdf:Description rdf:about="http://example.org/n{links}"/>' + "</ex:next></rdf:Description>" * links
    else:
        body = "".join(
            f'<rdf:Description rdf:about="http://example.org/n{i}"><ex:next rdf:resource="http://example.org/n{i + 1}"/></rdf:Description>'
            for i in range(links)
        )
    return f"{head}{body}</rdf:RDF>\n"


def cyclic_garbage(action) -> list[str]:
    """Type names of what `action()` leaves that only the cyclic collector can free.

    The collector is off while `action` runs, so nothing is freed early.
    """
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        action()
        gc.collect()
        return sorted(type(thing).__name__ for thing in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def random_forest(rng: random.Random, size: int) -> AnnotationStore:
    """Topic maps from attaches in shuffled order, so trees also grow upward and some attaches are refused."""
    edges = [(f"n{rng.randrange(i)}", f"n{i}") for i in range(1, size)]
    edges += [(f"n{rng.randrange(size)}", f"n{rng.randrange(size)}") for _ in range(size // 10)]
    rng.shuffle(edges)
    store = AnnotationStore()
    for parent, child in edges:
        try:
            store.attach(parent, child)
        except AttachError:
            pass
    return store


@pytest.fixture
def vocab():
    return VocabConfig()


@pytest.fixture
def service():
    return AnnotationService()


@pytest.fixture
def live_server():
    svc = AnnotationService(ServiceConfig(port=0))
    server = HttpServer(svc, "127.0.0.1")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    yield url, svc
    server.shutdown()
    server.server_close()
