"""Tag clouds, topic trees, and their mapping onto SCOT RDF graphs.

A cloud is a per-resource map from normalized tag label to absolute
frequency (how many times anyone attached that tag). Topic maps organize
concept labels as trees: folksonomy labels, taxonomy shape. Both views
fold out of a single append-only annotation event log.
"""

from __future__ import annotations

import re
import uuid
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import quote, unquote

from .rdfxml import RDF_TYPE, XSD_FLOAT, Iri, Literal, RdfGraph, Triple

SCOT_NS_DEFAULT = "http://scot-project.org/scot/ns#"
SIOC_HAS_TAG_DEFAULT = "http://rdfs.org/sioc/ns#has_tag"
SKOS_NS = "http://www.w3.org/2004/02/skos/core#"
SKOS_BROADER = Iri(SKOS_NS + "broader")


class TagError(ValueError):
    """A raw tag cannot be normalized into a usable label."""


class AttachError(Exception):
    """Concept attachment refused; `reason` is a one-word token."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class UnknownConceptError(LookupError):
    """The named concept is not in any topic map."""


class CloudShapeError(ValueError):
    """An RDF graph does not encode a well-formed tag cloud."""


def normalize_tag(raw: str) -> str:
    """Trim, lowercase, and collapse internal whitespace runs to single spaces."""
    label = " ".join(raw.split()).lower()
    if not label:
        raise TagError(f"tag is empty after normalization: {raw!r}")
    return label


def _check_label(label: str) -> str:
    if normalize_tag(label) != label:
        raise TagError(f"label is not normalized: {label!r}")
    return label


@dataclass(frozen=True)
class AnnotationEvent:
    """One user attaching one tag to one resource."""

    timestamp_ms: int
    tagger: uuid.UUID
    resource: Iri
    tag: str

    def __post_init__(self) -> None:
        if self.timestamp_ms < 0:
            raise ValueError("event timestamp must be non-negative")
        if not isinstance(self.tagger, uuid.UUID):
            object.__setattr__(self, "tagger", uuid.UUID(str(self.tagger)))
        if not isinstance(self.resource, Iri):
            object.__setattr__(self, "resource", Iri(self.resource))
        _check_label(self.tag)


@dataclass
class TagCloud:
    resource: Iri
    frequencies: dict[str, int] = field(default_factory=dict)

    def ranked(self) -> list[tuple[str, int]]:
        """Labels by descending count, ties broken lexicographically."""
        return sorted(self.frequencies.items(), key=lambda kv: (-kv[1], kv[0]))

    def total(self) -> int:
        return sum(self.frequencies.values())


@dataclass
class TopicMap:
    """Rooted concept tree. `parent` maps each non-root node to its parent."""

    root: str
    parent: dict[str, str] = field(default_factory=dict)

    @property
    def nodes(self) -> set[str]:
        names = set(self.parent) | set(self.parent.values())
        names.add(self.root)
        return names

    def children_of(self, label: str) -> list[str]:
        return sorted(c for c, p in self.parent.items() if p == label)

    def depth(self) -> int:
        best = 0
        for node in self.parent:
            steps = 0
            cursor = node
            while cursor != self.root:
                cursor = self.parent[cursor]
                steps += 1
            best = max(best, steps)
        return best


@dataclass
class VocabConfig:
    """IRIs and minting rules for the emitted RDF vocabulary."""

    base_uri: str = "http://yourdns.com"
    scot_ns: str = SCOT_NS_DEFAULT
    has_tag_iri: str = SIOC_HAS_TAG_DEFAULT

    @property
    def tag_cloud_class(self) -> Iri:
        return Iri(self.scot_ns + "TagCloud")

    @property
    def tag_class(self) -> Iri:
        return Iri(self.scot_ns + "Tag")

    @property
    def frequency_property(self) -> Iri:
        return Iri(self.scot_ns + "ownAFrequency")

    @property
    def has_tag(self) -> Iri:
        return Iri(self.has_tag_iri)

    def mint(self, name: str) -> Iri:
        return Iri(f"{self.base_uri}/rdfs/{quote(name, safe='')}.rdf")

    @staticmethod
    def scoped_tag_iri(resource: Iri, label: str) -> Iri:
        # Multi-cloud documents nest tag IRIs under their resource so that
        # the same label in two clouds stays two subjects.
        stem = resource[: -len(".rdf")] if resource.endswith(".rdf") else str(resource)
        return Iri(f"{stem}/{quote(label, safe='')}.rdf")

    def resource_iri(self, name_or_iri: str) -> Iri:
        if "://" in name_or_iri:
            return Iri(name_or_iri)
        return self.mint(normalize_tag(name_or_iri))

    def bindings(self) -> dict[str, str]:
        sioc_ns = _namespace_of(self.has_tag_iri)
        return {"scot": self.scot_ns, "sioc": sioc_ns}


def _namespace_of(iri: str) -> str:
    cut = max(iri.rfind("#"), iri.rfind("/"))
    return iri[: cut + 1]


def label_from_iri(iri: str) -> str:
    """Inverse of minting: decode the last path segment, dropping ".rdf"."""
    tail = iri.rsplit("/", 1)[-1]
    if tail.endswith(".rdf"):
        tail = tail[: -len(".rdf")]
    return unquote(tail)


_MINTED_RE = re.compile(r"/rdfs/[^/]+\.rdf$")


def display_name(iri: str) -> str:
    """Human label for a resource IRI; falls back to the full IRI."""
    if _MINTED_RE.search(iri):
        return label_from_iri(iri)
    return iri


class AnnotationStore:
    """Event log plus the derived clouds and topic maps.

    Clouds are exactly the fold of `events` through `record`; topic maps
    are the fold of the accepted `attach` calls. A store is rebuilt by
    replaying both, in their original order, through those two methods.
    """

    def __init__(self) -> None:
        self.events: list[AnnotationEvent] = []
        self.clouds: dict[Iri, TagCloud] = {}
        self.maps: dict[str, TopicMap] = {}
        self._root_of: dict[str, str] = {}

    # -- annotations ------------------------------------------------------

    def record(self, event: AnnotationEvent) -> int:
        """Append the event; returns the tag's new absolute frequency."""
        cloud = self.clouds.get(event.resource)
        if cloud is None:
            cloud = TagCloud(event.resource)
            self.clouds[event.resource] = cloud
        self.events.append(event)
        cloud.frequencies[event.tag] = cloud.frequencies.get(event.tag, 0) + 1
        return cloud.frequencies[event.tag]

    def cloud_of(self, resource: Iri) -> TagCloud:
        cloud = self.clouds.get(Iri(resource))
        if cloud is None:
            return TagCloud(Iri(resource))
        return cloud

    # -- topic maps -------------------------------------------------------

    def tree_of(self, label: str) -> Optional[TopicMap]:
        root = self._root_of.get(label)
        return self.maps[root] if root is not None else None

    def attach(self, parent_raw: str, child_raw: str) -> None:
        """Bind child under parent, keeping every map a tree.

        Refused (reason token in the exception) when the child already has
        a parent ("parented"), when the edge would close a cycle ("cycle"),
        or when it would merge two existing trees ("merge").
        """
        parent = normalize_tag(parent_raw)
        child = normalize_tag(child_raw)
        if parent == child:
            raise AttachError("cycle", f"cannot attach {child!r} to itself")

        child_root = self._root_of.get(child)
        parent_root = self._root_of.get(parent)

        if child_root is not None:
            if child_root != child:
                raise AttachError("parented", f"{child!r} already has a parent")
            if parent_root == child:
                raise AttachError("cycle", f"{parent!r} is a descendant of {child!r}")
            if parent_root is not None:
                raise AttachError("merge", f"{parent!r} and {child!r} live in different trees")
            # New parent above an existing root: the tree grows upward.
            old = self.maps.pop(child)
            tree = TopicMap(parent, dict(old.parent))
            tree.parent[child] = parent
            self.maps[parent] = tree
            for node in tree.nodes:
                self._root_of[node] = parent
            return

        if parent_root is not None:
            self.maps[parent_root].parent[child] = parent
            self._root_of[child] = parent_root
        else:
            self.maps[parent] = TopicMap(parent, {child: parent})
            self._root_of[parent] = parent
            self._root_of[child] = parent

    def subtree(self, root_raw: str, depth: int) -> TopicMap:
        """Tree below `root` truncated `depth` levels down (root is level 0)."""
        root = normalize_tag(root_raw)
        tree = self.tree_of(root)
        if tree is None:
            raise UnknownConceptError(root)
        if depth < 1:
            raise ValueError("depth must be at least 1")
        result = TopicMap(root)
        frontier = [root]
        for _ in range(depth):
            next_frontier = []
            for node in frontier:
                for child in tree.children_of(node):
                    result.parent[child] = node
                    next_frontier.append(child)
            frontier = next_frontier
        return result


# -- RDF mapping -----------------------------------------------------------


def cloud_to_rdf(cloud: TagCloud, config: VocabConfig) -> RdfGraph:
    """Describe the cloud the way the SCOT vocabulary expects."""
    graph = RdfGraph(config.bindings())
    _add_cloud_triples(graph, cloud, config, scoped=False)
    return graph


def _add_cloud_triples(graph: RdfGraph, cloud: TagCloud, config: VocabConfig, scoped: bool) -> None:
    graph.add(Triple(cloud.resource, RDF_TYPE, config.tag_cloud_class))
    for label, count in cloud.frequencies.items():
        if scoped:
            tag_iri = config.scoped_tag_iri(cloud.resource, label)
        else:
            tag_iri = config.mint(label)
        graph.add(Triple(cloud.resource, config.has_tag, tag_iri))
        graph.add(Triple(tag_iri, RDF_TYPE, config.tag_class))
        graph.add(
            Triple(tag_iri, config.frequency_property, Literal(f"{count}.0", Iri(XSD_FLOAT)))
        )


def _frequency_of(graph: RdfGraph, tag_iri: Iri, config: VocabConfig) -> int:
    hits = graph.matching(subject=tag_iri, predicate=config.frequency_property)
    if not hits:
        raise CloudShapeError(f"tag {tag_iri} has no frequency")
    obj = hits[0].object
    if not isinstance(obj, Literal):
        raise CloudShapeError(f"frequency of {tag_iri} is not a literal")
    try:
        value = float(obj.lexical)
    except ValueError:
        raise CloudShapeError(f"frequency of {tag_iri} is not numeric: {obj.lexical!r}") from None
    if not value.is_integer() or value < 1:
        raise CloudShapeError(f"frequency of {tag_iri} is not a positive integer: {obj.lexical}")
    return int(value)


def _cloud_from_subject(graph: RdfGraph, subject: Iri, config: VocabConfig) -> TagCloud:
    cloud = TagCloud(subject)
    for triple in graph.matching(subject=subject, predicate=config.has_tag):
        tag_iri = triple.object
        if not isinstance(tag_iri, Iri):
            raise CloudShapeError(f"tag reference of {subject} is a literal")
        try:
            label = _check_label(label_from_iri(tag_iri))
        except TagError as exc:
            raise CloudShapeError(str(exc)) from None
        cloud.frequencies[label] = _frequency_of(graph, tag_iri, config)
    return cloud


def rdf_to_cloud(graph: RdfGraph, config: VocabConfig) -> TagCloud:
    """Inverse of :func:`cloud_to_rdf`; the graph must hold exactly one cloud."""
    subjects = [t.subject for t in graph.matching(predicate=RDF_TYPE, object=config.tag_cloud_class)]
    if len(subjects) != 1:
        raise CloudShapeError(f"expected exactly one tag cloud subject, found {len(subjects)}")
    return _cloud_from_subject(graph, subjects[0], config)


def store_to_graph(store: AnnotationStore, config: VocabConfig) -> RdfGraph:
    """Every cloud plus the topic-map edges, as one graph."""
    graph = RdfGraph(config.bindings())
    graph.bind("skos", SKOS_NS)
    for resource in sorted(store.clouds):
        _add_cloud_triples(graph, store.clouds[resource], config, scoped=True)
    for tree in store.maps.values():
        for child, parent in tree.parent.items():
            graph.add(Triple(config.mint(child), SKOS_BROADER, config.mint(parent)))
    return graph


def store_from_graph(
    graph: RdfGraph, config: VocabConfig, tagger: Optional[uuid.UUID] = None
) -> AnnotationStore:
    """Rebuild a store from an exported graph.

    Counts are replayed as synthetic annotation events at timestamp 0 so
    the log-fold invariant still holds; original taggers and times are not
    part of the export.
    """
    if tagger is None:
        tagger = uuid.uuid5(uuid.NAMESPACE_URL, "scotcloud:import")
    store = AnnotationStore()
    for triple in graph.matching(predicate=RDF_TYPE, object=config.tag_cloud_class):
        cloud = _cloud_from_subject(graph, triple.subject, config)
        for label, count in sorted(cloud.frequencies.items()):
            for _ in range(count):
                store.record(AnnotationEvent(0, tagger, triple.subject, label))
    attach_broader_edges(store, graph)
    return store


def attach_broader_edges(store: AnnotationStore, graph: RdfGraph) -> None:
    """Attach the graph's `skos:broader` edges to the store's topic maps."""
    edges = []
    for triple in graph.matching(predicate=SKOS_BROADER):
        if not isinstance(triple.object, Iri):
            raise CloudShapeError("broader edge points at a literal")
        try:
            child = _check_label(label_from_iri(triple.subject))
            parent = _check_label(label_from_iri(triple.object))
        except TagError as exc:
            raise CloudShapeError(str(exc)) from None
        edges.append((parent, child))
    _replay_edges(store, edges)


def _replay_edges(store: AnnotationStore, edges: list[tuple[str, str]]) -> None:
    # Attach in topological waves so parents exist before their children.
    pending = list(edges)
    while pending:
        children = {c for _, c in pending}
        wave = [(p, c) for p, c in pending if p not in children]
        if not wave:
            raise CloudShapeError("topic-map edges contain a cycle")
        for parent, child in sorted(wave):
            try:
                store.attach(parent, child)
            except AttachError as exc:
                raise CloudShapeError(f"topic-map edges are not a forest: {exc}") from None
        pending = [e for e in pending if e not in wave]
