"""Tag clouds, topic trees, and the SCOT mapping that describes them in RDF.

A cloud is a per-resource map from normalized tag label to absolute
frequency (how many times anyone attached that tag). Topic maps organize
concept labels as trees: folksonomy labels, taxonomy shape. Both views
fold out of a single append-only annotation event log.

This module states the SCOT mapping once, one `rdf:Description` at a
time. From a role's inputs, `VocabConfig.describe_cloud`, `describe_tag`
and `describe_concept` give the subject and the properties of its
description: a cloud is a `scot:TagCloud` with a `sioc:has_tag` to each
of its tags, a tag a `scot:Tag` whose `scot:ownAFrequency` is its count
as an `xsd:float` `<count>.0`, and a concept has a `skos:broader` to its
parent. `CLOUD_BINDINGS` and `EXPORT_BINDINGS` name the namespaces of
the one-cloud and the whole-store documents. `cloud_to_rdf` and
`store_to_graph` add those descriptions to an `RdfGraph`; the service's
description cache renders them through `rdfxml.Writer`, a description at
a time. The readers go the other way one description at a time: a
cloud's names its tags, and each tag's gives its count.
"""

from __future__ import annotations

import re
import uuid
from collections import Counter, defaultdict
from collections.abc import Iterable
from typing import Optional
from urllib.parse import quote, unquote

from .rdfxml import RDF_NS, RDF_TYPE, XSD_FLOAT, Iri, Literal, RdfGraph, objects
from .record import FrozenRecord, Record, set_field

SCOT_NS = "http://scot-project.org/scot/ns#"
SIOC_NS = "http://rdfs.org/sioc/ns#"
SKOS_NS = "http://www.w3.org/2004/02/skos/core#"
SKOS_BROADER = Iri(SKOS_NS + "broader")
CLOUD_BINDINGS = {"rdf": RDF_NS, "scot": SCOT_NS, "sioc": SIOC_NS}  # the namespaces of a one-cloud document
EXPORT_BINDINGS = {**CLOUD_BINDINGS, "skos": SKOS_NS}  # a whole-store document also binds skos
DEFAULT_BASE_URI = "http://yourdns.com"
_FLOAT = Iri(XSD_FLOAT)
# The tagger of every event that `store_from_graph` replays: an export keeps no taggers.
# It is uuid5(NAMESPACE_URL, "scotcloud:import"), written out: computing it would load hashlib.
IMPORT_TAGGER = uuid.UUID("9853dba8-e0ee-5b39-86e4-00067ae5d7b2")


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


def rank_order(labels: Iterable[str], frequencies: dict[str, int]) -> list[str]:
    """`labels` by descending count in `frequencies` (0 if absent), ties broken lexicographically."""
    return sorted(labels, key=lambda label: (-frequencies.get(label, 0), label))


class AnnotationEvent(FrozenRecord):
    """One user attaching one tag to one resource."""

    __slots__ = ("timestamp_ms", "tagger", "resource", "tag")

    def __init__(self, timestamp_ms: int, tagger: uuid.UUID, resource: Iri, tag: str) -> None:
        if timestamp_ms < 0:
            raise ValueError("event timestamp must be non-negative")
        _check_label(tag)
        set_field(self, "timestamp_ms", timestamp_ms)
        set_field(self, "tagger", tagger)
        set_field(self, "resource", resource)
        set_field(self, "tag", tag)


class TagCloud(Record):
    __slots__ = ("resource", "frequencies")

    def __init__(self, resource: Iri, frequencies: Optional[dict[str, int]] = None) -> None:
        self.resource = resource
        self.frequencies = {} if frequencies is None else frequencies

    def ranked(self) -> list[tuple[str, int]]:
        """Labels with their counts in `rank_order`."""
        return [(label, self.frequencies[label]) for label in rank_order(self.frequencies, self.frequencies)]


class _ChildIndex:
    """The slots of a `TopicMap` that are not its fields, so `==`, repr and copies leave them out."""

    __slots__ = ("_children", "_unsorted")


class TopicMap(Record, _ChildIndex):
    """Rooted concept tree. `parent` maps each non-root node to its parent.

    The map also keeps a children index: the children of each node, by
    node. The first read builds it in one pass over `parent`; after that,
    an edge goes in only through `add_edge`, which updates both in O(1).
    A list of siblings is sorted when it is read after it changed, so a
    node with many children costs one sort per read, not one per edge.
    """

    __slots__ = ("root", "parent")

    def __init__(self, root: str, parent: Optional[dict[str, str]] = None) -> None:
        self.root = root
        self.parent = {} if parent is None else parent
        self._children: Optional[dict[str, list[str]]] = None
        self._unsorted: set[str] = set()

    def __reduce__(self) -> tuple:
        # A copy is built from the fields alone, and builds its own index.
        return self.__class__, (self.root, self.parent)

    def add_edge(self, child: str, parent: str) -> None:
        """Put `child`, which is not in the map yet, under `parent`."""
        self.parent[child] = parent
        if self._children is None:
            return
        kids = self._children.get(parent)
        if kids is None:
            self._children[parent] = [child]
        else:
            kids.append(child)
            self._unsorted.add(parent)

    def _index(self) -> dict[str, list[str]]:
        if self._children is None:
            self._children = {}
            for child, parent in self.parent.items():
                self._children.setdefault(parent, []).append(child)
            self._unsorted = set(self._children)
        return self._children

    def _kids(self, label: str) -> list[str]:
        """The index's own sorted list of the children of `label`, not a copy; empty if it has none."""
        kids = self._index().get(label, [])
        if label in self._unsorted:
            kids.sort()
            self._unsorted.discard(label)
        return kids

    @property
    def nodes(self) -> set[str]:
        names = set(self.parent) | set(self.parent.values())
        names.add(self.root)
        return names

    def children_of(self, label: str) -> list[str]:
        """Sorted children of one node: a lookup in the index."""
        return list(self._kids(label))

    def children(self) -> dict[str, list[str]]:
        """The index itself, every list sorted: children by node, for nodes that have any. Do not change it."""
        children = self._index()
        for label in self._unsorted:
            children[label].sort()
        self._unsorted.clear()
        return children

    def depth(self, label: Optional[str] = None, limit: Optional[int] = None) -> int:
        """Edges on the longest path down from `label`, the root by default, or `limit` if that is fewer.

        One breadth-first pass over the subtree, which stops once it is
        `limit` levels down: it reads the children of no node deeper than `limit - 1`.
        """
        children = self._index()
        levels, frontier = 0, [self.root if label is None else label]
        while levels != limit:
            frontier = [kid for node in frontier for kid in children.get(node, ())]
            if not frontier:
                break
            levels += 1
        return levels


class VocabConfig(Record):
    """The SCOT vocabulary every document uses, the deployment's base URI for minting, and the mapping.

    Each `describe_*` method gives the (subject, properties) of one role's
    `rdf:Description`, a predicate mapping to an object or a set of them, as
    `RdfGraph.add_description` and `rdfxml.Writer.describe` take them. A
    role's last argument is its inputs; `scoped` picks the tag IRIs of a
    whole-store document over those of a one-cloud document.
    """

    __slots__ = ("base_uri",)

    def __init__(self, base_uri: str = DEFAULT_BASE_URI) -> None:
        self.base_uri = base_uri

    tag_cloud_class = Iri(SCOT_NS + "TagCloud")
    tag_class = Iri(SCOT_NS + "Tag")
    frequency_property = Iri(SCOT_NS + "ownAFrequency")
    has_tag = Iri(SIOC_NS + "has_tag")

    def mint(self, name: str) -> Iri:
        return Iri(f"{self.base_uri}/rdfs/{quote(name, safe='')}.rdf")

    @staticmethod
    def scoped_tag_iri(resource: Iri, label: str) -> Iri:
        # Multi-cloud documents nest tag IRIs under their resource so that
        # the same label in two clouds stays two subjects.
        return Iri(f"{resource.removesuffix('.rdf')}/{quote(label, safe='')}.rdf")

    def resource_iri(self, name_or_iri: str) -> Iri:
        if "://" in name_or_iri:
            return Iri(name_or_iri)
        return self.mint(normalize_tag(name_or_iri))

    def describe_cloud(self, scoped: bool, resource: Iri, tags: tuple[Iri, ...]) -> tuple[Iri, dict]:
        """The cloud of `resource`, whose tags have the IRIs `tags`: a `scot:TagCloud` that has each of them.

        The description is the same in both documents; the tags' IRIs carry the form `scoped` names.
        """
        return resource, {RDF_TYPE: self.tag_cloud_class, self.has_tag: set(tags)}

    def describe_tag(self, scoped: bool, resource: Iri, label: str, count: int) -> tuple[Iri, dict]:
        """The tag `label` of the cloud of `resource`: a `scot:Tag` whose frequency is `count` as an `xsd:float`.

        Its IRI is minted from the label in a one-cloud document and scoped
        under the resource in a whole-store one.
        """
        tag = self.scoped_tag_iri(resource, label) if scoped else self.mint(label)
        return tag, {RDF_TYPE: self.tag_class, self.frequency_property: Literal(_frequency_lexical(count), _FLOAT)}

    def describe_concept(self, label: str, parent: str) -> tuple[Iri, dict]:
        """The concept `label` of a topic map, below `parent`: a `skos:broader` to the parent's IRI."""
        return self.mint(label), {SKOS_BROADER: self.mint(parent)}


def _frequency_lexical(count: int) -> str:
    """The lexical form of a tag's frequency: `<count>.0`."""
    return f"{count}.0"


def label_from_iri(iri: str) -> str:
    """Inverse of minting: decode the last path segment, dropping ".rdf"."""
    return unquote(iri.rsplit("/", 1)[-1].removesuffix(".rdf"))


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
    `version` goes up on every `record` and every accepted `attach`, so
    anything derived from the store can tell whether it is still current.
    Two finer stamps move in step with it: `cloud_version(r)` is the
    `version` at which the cloud of `r` last changed (0 if it never has),
    and `trees_version` is the `version` of the last accepted `attach`. So
    something built from one cloud, or from the trees alone, is still
    current as long as its own stamp has not moved.

    `_tree_of` files each tree object under every label it holds, and a
    new parent above a root re-roots that object in place. Each tree keeps
    a children index, the sorted children of each of its nodes, which the
    first read of the tree builds (see `TopicMap`). `link`, which `attach`
    calls once `check_attach` has passed, is the one writer of the trees:
    it adds each edge to `parent` and to the index in O(1), so an attach
    costs the same whatever the size of its tree. A caller that has
    normalized and checked the labels itself calls `link` directly.
    `subtree` walks the index from its root and reads only the nodes it
    returns. `height(label, limit)` is one breadth-first pass over the
    subtree of `label` alone, at most `limit` levels deep, and what it
    found is kept until the next accepted `attach`.
    """

    def __init__(self) -> None:
        self.events: list[AnnotationEvent] = []
        self.clouds: dict[Iri, TagCloud] = {}
        self.maps: dict[str, TopicMap] = {}
        self._tree_of: dict[str, TopicMap] = {}
        self._heights: dict[str, tuple[int, bool]] = {}
        self.version = 0
        self.trees_version = 0
        self._cloud_versions: dict[Iri, int] = {}

    # -- annotations ------------------------------------------------------

    def record(self, event: AnnotationEvent) -> int:
        """Append the event; returns the tag's new absolute frequency."""
        cloud = self.clouds.get(event.resource)
        if cloud is None:
            cloud = TagCloud(event.resource)
            self.clouds[event.resource] = cloud
        self.events.append(event)
        cloud.frequencies[event.tag] = cloud.frequencies.get(event.tag, 0) + 1
        self.version += 1
        self._cloud_versions[event.resource] = self.version
        return cloud.frequencies[event.tag]

    def cloud_version(self, resource: Iri) -> int:
        """The `version` at which the cloud of `resource` last changed; 0 if it never has."""
        return self._cloud_versions.get(resource, 0)

    def cloud_of(self, resource: Iri) -> TagCloud:
        """The resource's cloud, empty if it has none; a plain str is validated as an IRI first."""
        if not isinstance(resource, Iri):
            resource = Iri(resource)
        cloud = self.clouds.get(resource)
        return TagCloud(resource) if cloud is None else cloud

    # -- topic maps -------------------------------------------------------

    def tree_of(self, label: str) -> Optional[TopicMap]:
        return self._tree_of.get(label)

    def check_attach(self, parent: str, child: str) -> None:
        """Raise AttachError if `attach(parent, child)` would be refused; changes nothing.

        Both labels must already be normalized. The reason tokens are
        "parented" when the child already has a parent, "cycle" when the
        edge would close a cycle and "merge" when it would join two
        existing trees.
        """
        if parent == child:
            raise AttachError("cycle", f"cannot attach {child!r} to itself")
        tree = self._tree_of.get(child)
        if tree is None:
            return
        if tree.root != child:
            raise AttachError("parented", f"{child!r} already has a parent")
        parent_tree = self._tree_of.get(parent)
        if parent_tree is tree:
            raise AttachError("cycle", f"{parent!r} is a descendant of {child!r}")
        if parent_tree is not None:
            raise AttachError("merge", f"{parent!r} and {child!r} live in different trees")

    def attach(self, parent_raw: str, child_raw: str) -> None:
        """Bind child under parent, keeping every map a tree.

        Refused, with nothing changed, as `check_attach` says. A parent in no
        tree becomes the root of the child's tree, which moves to the end of `maps`.
        """
        parent = normalize_tag(parent_raw)
        child = normalize_tag(child_raw)
        self.check_attach(parent, child)
        self.link(parent, child)

    def link(self, parent: str, child: str) -> None:
        """`attach` of two normalized labels that `check_attach` has just passed; it checks nothing again."""
        tree = self._tree_of.get(parent)
        if tree is None:
            tree = self.maps.pop(child) if child in self.maps else TopicMap(parent)
            tree.root = parent
            self.maps[parent] = self._tree_of[parent] = tree
        tree.add_edge(child, parent)
        self._tree_of[child] = tree
        self._heights.clear()
        self.version += 1
        self.trees_version = self.version

    def height(self, label: str, limit: Optional[int] = None) -> int:
        """Levels below the normalized `label` in its tree, at least 1 and at most `limit`; `label` may be any node.

        With a `limit`, the walk stops `limit` levels down, so a shallow
        question about a deep tree reads only the levels it asks about. What
        a walk found is kept until the next accepted `attach`. Raises
        UnknownConceptError for a label in no tree.
        """
        known = self._heights.get(label)  # (levels found, whether the walk ran out of nodes)
        if known is None or not (known[1] or (limit is not None and known[0] >= limit)):
            tree = self._tree_of.get(label)
            if tree is None:
                raise UnknownConceptError(label)
            levels = tree.depth(label, limit)
            known = self._heights[label] = (levels, limit is None or levels < limit)
        height = max(1, known[0])
        return height if limit is None else min(height, limit)

    def subtree(self, root_raw: str, depth: int) -> TopicMap:
        """Tree below `root` truncated `depth` levels down (root is level 0)."""
        root = normalize_tag(root_raw)
        tree = self.tree_of(root)
        if tree is None:
            raise UnknownConceptError(root)
        if depth < 1:
            raise ValueError("depth must be at least 1")
        result = TopicMap(root)
        frontier, levels = [root], 0
        while frontier and levels < depth:
            next_frontier = []
            for node in frontier:
                for child in tree._kids(node):
                    result.add_edge(child, node)
                    next_frontier.append(child)
            frontier, levels = next_frontier, levels + 1
        return result


# -- the mapping over whole clouds and stores ------------------------------------


def _add_cloud(graph: RdfGraph, cloud: TagCloud, config: VocabConfig, scoped: bool) -> None:
    tags = [config.describe_tag(scoped, cloud.resource, label, count) for label, count in cloud.frequencies.items()]
    for description in tags:
        graph.add_description(*description)
    graph.add_description(*config.describe_cloud(scoped, cloud.resource, tuple(tag for tag, _ in tags)))


def cloud_to_rdf(cloud: TagCloud, config: VocabConfig) -> RdfGraph:
    """The one-cloud document's graph: the cloud's description and its tags'."""
    graph = RdfGraph(CLOUD_BINDINGS)
    _add_cloud(graph, cloud, config, scoped=False)
    return graph


def store_to_graph(store: AnnotationStore, config: VocabConfig) -> RdfGraph:
    """The whole-store document's graph: every cloud with its tags, and every concept below a parent."""
    graph = RdfGraph(EXPORT_BINDINGS)
    for cloud in store.clouds.values():
        _add_cloud(graph, cloud, config, scoped=True)
    for tree in store.maps.values():
        for child, parent in tree.parent.items():
            graph.add_description(*config.describe_concept(child, parent))
    return graph


# The largest frequency import takes: a float holds every integer up to 2^53, and skips some above it.
MAX_FREQUENCY = 2**53
# An xsd:float decimal numeral that is not negative, in ASCII digits: `float` and
# `Decimal` also read digit groups split by `_`, and digits of other scripts.
_DECIMAL = re.compile(r"\+?[0-9]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?")


def _frequency_of(tag_iri: Iri, description: dict) -> int:
    """The count the description of the tag `tag_iri` gives: an integer from 1 to MAX_FREQUENCY, or CloudShapeError.

    `float` reads the lexical form; a form other than the `<count>.0`
    that `describe_tag` writes must also denote exactly the integer
    read (`_denotes`), so that no count changes on its way in.
    """
    hits = objects(description, VocabConfig.frequency_property)
    if not hits:
        raise CloudShapeError(f"tag {tag_iri} has no frequency")
    obj = hits[0]
    if not isinstance(obj, Literal):
        raise CloudShapeError(f"frequency of {tag_iri} is not a literal")
    lexical = obj.lexical
    try:
        value = float(lexical)
    except ValueError:
        raise CloudShapeError(f"frequency of {tag_iri} is not numeric: {lexical!r}") from None
    if not value.is_integer() or value < 1:
        raise CloudShapeError(f"frequency of {tag_iri} is not a positive integer: {lexical}")
    if value > MAX_FREQUENCY:
        raise CloudShapeError(f"frequency of {tag_iri} is above 2^53, past which a float skips counts: {lexical}")
    count = int(value)
    if lexical != _frequency_lexical(count) and not _denotes(lexical, count):
        raise CloudShapeError(f"frequency of {tag_iri} does not denote exactly the integer {count}: {lexical}")
    return count


def _denotes(lexical: str, count: int) -> bool:
    """Whether `lexical`, which `float` reads as `count`, is an xsd:float decimal numeral of exactly that value."""
    from decimal import Decimal  # only an import with an unusual numeral needs it

    numeral = _DECIMAL.fullmatch(lexical.strip())
    return numeral is not None and Decimal(numeral[0]) == count


def _cloud_from_subject(graph: RdfGraph, subject: Iri) -> TagCloud:
    """The cloud described at `subject`: its description names its tags, and each tag's description gives a count."""
    cloud = TagCloud(subject)
    for tag_iri in objects(graph.description(subject), VocabConfig.has_tag):
        if not isinstance(tag_iri, Iri):
            raise CloudShapeError(f"tag reference of {subject} is a literal")
        label = _label_of(tag_iri)
        cloud.frequencies[label] = _frequency_of(tag_iri, graph.description(tag_iri))
    return cloud


def _label_of(iri: Iri) -> str:
    """The label an IRI was minted or scoped from, or CloudShapeError if it is not normalized."""
    try:
        return _check_label(label_from_iri(iri))
    except TagError as exc:
        raise CloudShapeError(str(exc)) from None


def rdf_to_cloud(graph: RdfGraph, config: VocabConfig) -> TagCloud:
    """Inverse of :func:`cloud_to_rdf`; the graph must hold exactly one cloud."""
    subjects = graph.subjects(RDF_TYPE, VocabConfig.tag_cloud_class)
    if len(subjects) != 1:
        raise CloudShapeError(f"expected exactly one tag cloud subject, found {len(subjects)}")
    return _cloud_from_subject(graph, subjects[0])


def store_from_graph(graph: RdfGraph, config: VocabConfig) -> AnnotationStore:
    """Rebuild a store from an exported graph, or raise CloudShapeError.

    Counts are replayed as synthetic annotation events at timestamp 0, by
    `IMPORT_TAGGER`, so the log-fold invariant still holds; original
    taggers and times are not part of the export. The graph's
    `skos:broader` edges are then attached to the store's topic maps.

    Every triple must become a cloud count, a tag's type or frequency,
    or a topic-map edge: a cloud's `rdf:type scot:TagCloud`, a
    `sioc:has_tag` whose label the cloud keeps, a tag's frequency or
    `rdf:type scot:Tag`, or a `skos:broader`. The fold counts the
    distinct triples it used, after all its other checks, and refuses a
    graph that holds more. So a second type on a cloud, or an extra
    property on a tag that two clouds share, is an error, and so are two
    tag IRIs of one cloud that decode to one label.
    """
    store = AnnotationStore()
    kept = 0  # distinct triples of the graph that the store represents
    tags: set[Iri] = set()
    for subject in graph.subjects(RDF_TYPE, VocabConfig.tag_cloud_class):
        cloud = _cloud_from_subject(graph, subject)
        kept += 1 + len(cloud.frequencies)
        tags.update(objects(graph.description(subject), VocabConfig.has_tag))
        for label, count in sorted(cloud.frequencies.items()):
            for _ in range(count):
                store.record(AnnotationEvent(0, IMPORT_TAGGER, subject, label))
    edges = []
    for subject in graph.subjects(SKOS_BROADER):
        for obj in objects(graph.description(subject), SKOS_BROADER):
            if not isinstance(obj, Iri):
                raise CloudShapeError("broader edge points at a literal")
            child = _label_of(subject)
            edges.append((_label_of(obj), child))
    _replay_edges(store, edges)
    # An IRI can be a cloud, a tag and a concept at once, but each role counts other triples.
    kept += len(edges) + sum(1 + (VocabConfig.tag_class in objects(graph.description(tag), RDF_TYPE)) for tag in tags)
    if kept < len(graph):
        raise CloudShapeError(
            f"the document holds {len(graph)} triples, but only {kept} of them describe SCOT clouds or topic maps"
        )
    return store


def _replay_edges(store: AnnotationStore, edges: list[tuple[str, str]]) -> None:
    # Attach in topological waves so parents exist before their children:
    # an edge joins the wave after the one holding the last edge into its
    # parent, and each wave is attached in sorted order.
    waiting = Counter(child for _, child in edges)
    below: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for edge in edges:
        below[edge[0]].append(edge)
    wave = [edge for edge in edges if not waiting[edge[0]]]
    attached = 0
    while wave:
        next_wave = []
        for parent, child in sorted(wave):
            try:
                store.check_attach(parent, child)  # both labels are checked already
                store.link(parent, child)
            except AttachError as exc:
                raise CloudShapeError(f"topic-map edges are not a forest: {exc}") from None
            waiting[child] -= 1
            if not waiting[child]:
                next_wave.extend(below[child])
        attached += len(wave)
        wave = next_wave
    if attached < len(edges):
        raise CloudShapeError("topic-map edges contain a cycle")
