"""Minimal RDF graph with a deterministic RDF/XML codec.

Covers exactly the subset SCOT tag-cloud documents need: rdf:Description
blocks keyed by rdf:about, property elements holding either an
rdf:resource reference or a (optionally datatyped) text literal. No blank
nodes, no containers, no reification, no xml:lang. Because every node is
IRI-identified, graph equality is plain triple-set equality.

A graph holds its triples the way the document writes them: grouped by
subject, then by predicate, then as the objects of that pair. `parse`
and the model's writers add terms straight into that shape, so no
`Triple` object is made per statement; iterating a graph builds its
`Triple`s on demand, in serialization order.

Serialization is normative and byte-stable: UTF-8, LF line endings,
2-space indentation, one xmlns line per binding (sorted by prefix),
subjects sorted lexicographically, rdf:type properties first within a
subject, remaining properties sorted, and the objects of one property
in `_object_key` order: IRIs before literals, each sorted by its text.
One `Writer` writes all of it, a description at a time: `serialize`
joins its descriptions in subject order, and the service's cache of
rendered descriptions holds texts that the same `Writer.describe` wrote.
This module knows no vocabulary: `scotcloud.model` states the SCOT
mapping once, as the (subject, properties) of each description, which
`Writer.describe` renders and `RdfGraph.add_description` adds to a
graph. `RdfGraph.description` and `objects` read a graph back the same
way, one description at a time.

`parse` reads through `xml.etree.ElementTree`, which it imports on its
first call: writing needs no XML library, so the server and the
simulator, which never parse, start without loading one.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from .record import FrozenRecord, set_field

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
XSD_FLOAT = XSD_NS + "float"

_RDF_TYPE = RDF_NS + "type"
_NCNAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")

# Characters RFC 3987 keeps out of IRIs (controls, space, DEL and these
# punctuation marks); also keeps attribute escaping trivial.
_IRI_BAD_CHAR = re.compile(r'[\x00-\x20\x7f<>"{}|\\^`]')
# C0 controls other than tab, LF and CR, which XML 1.0 cannot carry.
_LITERAL_BAD_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")


class ValidationError(ValueError):
    """A term or binding violates its construction rules."""


class NamespaceConflict(ValidationError):
    """A prefix is already bound to a different namespace."""


class SerializationError(Exception):
    """The graph cannot be written (e.g. a predicate has no QName)."""


class RdfParseError(Exception):
    """Input is not a readable RDF/XML document."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class Iri(str):
    """Absolute IRI. Validated at construction, compares as a string."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not isinstance(value, str) or not value:
            raise ValidationError("IRI must be a non-empty string")
        if "://" not in value:
            raise ValidationError(f"IRI has no scheme separator: {value!r}")
        bad = _IRI_BAD_CHAR.search(value)
        if bad:
            raise ValidationError(f"IRI contains forbidden character {bad.group()!r}: {value!r}")
        return super().__new__(cls, value)


class Literal(FrozenRecord):
    """Text value with an optional datatype IRI."""

    __slots__ = ("lexical", "datatype")

    def __init__(self, lexical: str, datatype: Optional[Iri] = None) -> None:
        if not isinstance(lexical, str):
            raise ValidationError("literal lexical form must be a string")
        bad = _LITERAL_BAD_CHAR.search(lexical)
        if bad:
            raise ValidationError(f"literal contains control character {bad.group()!r}")
        if datatype is not None and not isinstance(datatype, Iri):
            datatype = Iri(datatype)
        if datatype == XSD_FLOAT:
            try:
                value = float(lexical)
            except ValueError:
                raise ValidationError(f"float literal does not parse: {lexical!r}") from None
            if not math.isfinite(value):
                raise ValidationError(f"float literal is not finite: {lexical!r}")
        set_field(self, "lexical", lexical)
        set_field(self, "datatype", datatype)


Term = Union[Iri, Literal]
RDF_TYPE = Iri(_RDF_TYPE)


class Triple(FrozenRecord):
    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Iri, predicate: Iri, object: Term) -> None:  # noqa: A002 (the RDF name)
        if not isinstance(subject, Iri):
            subject = Iri(subject)
        if not isinstance(predicate, Iri):
            predicate = Iri(predicate)
        if not isinstance(object, (Iri, Literal)):
            if isinstance(object, str):
                object = Iri(object)
            else:
                raise ValidationError("triple object must be an Iri or a Literal")
        set_field(self, "subject", subject)
        set_field(self, "predicate", predicate)
        set_field(self, "object", object)


def _object_key(obj: Term) -> tuple[int, str, str]:
    """Where an object sorts among the objects of one subject and predicate."""
    if isinstance(obj, Literal):
        return (1, obj.lexical, obj.datatype or "")
    return (0, obj, "")


class RdfGraph:
    """Set of triples plus the namespace bindings used to write them.

    The "rdf" prefix is always bound. Equality and iteration are over the
    triple set; bindings are serialization metadata.

    Triples are held as descriptions: subject -> predicate -> objects.
    The objects of one pair are the bare term while there is one of them
    and a set from the second on, so each triple has one written form
    and `==` is a comparison of those dicts. `add`, `in` and `objects`
    cost a few dict lookups; `len` is a counter. Iteration sorts the
    subjects, each subject's predicates and each predicate's objects,
    and builds one `Triple` per statement; the library's own readers and
    `serialize` walk the descriptions instead.
    """

    def __init__(self, bindings: Optional[dict[str, str]] = None):
        self._descriptions: dict[Iri, dict[Iri, Union[Term, set[Term]]]] = {}
        self._len = 0
        self._bindings: dict[str, Iri] = {"rdf": Iri(RDF_NS)}
        if bindings:
            for prefix, namespace in bindings.items():
                self.bind(prefix, namespace)

    def add(self, triple: Triple) -> None:
        if not isinstance(triple, Triple):
            raise ValidationError("expected a Triple")
        self.add_terms(triple.subject, triple.predicate, triple.object)

    def add_terms(self, subject: Iri, predicate: Iri, obj: Term) -> None:
        """Add the triple (subject, predicate, obj) without making a `Triple`.

        The terms must already be `Iri`s and a `Literal`, as their
        constructors check them; nothing is checked again here.
        """
        properties = self._descriptions.get(subject)
        if properties is None:
            self._descriptions[subject] = {predicate: obj}
        else:
            held = properties.get(predicate)
            if held is None:
                properties[predicate] = obj
            elif type(held) is set:
                if obj in held:
                    return
                held.add(obj)
            elif held == obj:
                return
            else:
                properties[predicate] = {held, obj}
        self._len += 1

    def bind(self, prefix: str, namespace: str) -> None:
        if not _NCNAME_RE.match(prefix):
            raise ValidationError(f"prefix is not an NCName: {prefix!r}")
        namespace = Iri(namespace)
        bound = self._bindings.get(prefix)
        if bound is not None and bound != namespace:
            raise NamespaceConflict(f"prefix {prefix!r} already bound to {bound}")
        self._bindings[prefix] = namespace

    @property
    def bindings(self) -> dict[str, Iri]:
        return dict(self._bindings)

    def add_description(self, subject: Iri, properties: dict[Iri, Union[Term, set[Term]]]) -> None:
        """Add the triples of one description, whose predicates map to an object or a set, as `Writer.describe` takes it."""
        for predicate, held in properties.items():
            for obj in held if type(held) is set else (held,):
                self.add_terms(subject, predicate, obj)

    def description(self, subject: Iri) -> dict[Iri, Union[Term, set[Term]]]:
        """The properties of `subject`, as `add_description` takes them; empty if it has none. Do not change it."""
        return self._descriptions.get(subject, {})

    def subjects(self, predicate: Iri, obj: Optional[Term] = None) -> list[Iri]:
        """Sorted subjects that have `predicate`, or, given `obj`, that have it with that object."""
        found = []
        for subject, properties in self._descriptions.items():
            held = properties.get(predicate)
            if held is not None and (obj is None or _holds(held, obj)):
                found.append(subject)
        found.sort()
        return found

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Triple]:
        for subject in sorted(self._descriptions):
            properties = self._descriptions[subject]
            for predicate in _predicate_order(properties):
                for obj in _object_order(properties[predicate]):
                    yield Triple(subject, predicate, obj)

    def __contains__(self, triple: Triple) -> bool:
        return isinstance(triple, Triple) and triple.object in objects(self.description(triple.subject), triple.predicate)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdfGraph):
            return NotImplemented
        return self._descriptions == other._descriptions

    def __hash__(self):  # mutable container
        raise TypeError("RdfGraph is not hashable")

    def __repr__(self) -> str:
        return f"<RdfGraph {self._len} triples, {len(self._bindings)} bindings>"


def objects(properties: dict[Iri, Union[Term, set[Term]]], predicate: Iri) -> Sequence[Term]:
    """The objects of `predicate` in one description, in serialization order; empty if there are none."""
    held = properties.get(predicate)
    return () if held is None else _object_order(held)


def _predicate_order(properties: dict[Iri, object]) -> list[Iri]:
    """One subject's predicates as they are written: rdf:type first, then sorted."""
    predicates = sorted(properties)
    if len(predicates) > 1 and RDF_TYPE in properties:
        predicates.remove(RDF_TYPE)
        predicates.insert(0, RDF_TYPE)
    return predicates


def _object_order(held: Union[Term, set[Term]]) -> Sequence[Term]:
    """The objects of one subject and predicate as they are written."""
    if type(held) is not set:
        return (held,)
    try:
        return sorted(held)  # IRIs alone sort as plain strings, which is `_object_key` order
    except TypeError:  # a Literal has no order of its own
        return sorted(held, key=_object_key)


def _holds(held: Union[Term, set[Term]], obj: Term) -> bool:
    return obj in held if type(held) is set else held == obj


def _escape_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def _escape_text(value: str) -> str:
    # \r, \n, \t become character references so property values stay on one line.
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return value.replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#9;")


def _qname(iri: Iri, bindings: dict[str, Iri]) -> Optional[str]:
    # Longest namespace wins; alphabetical prefix breaks ties.
    best: Optional[tuple[int, str, str]] = None
    for prefix, namespace in bindings.items():
        if iri.startswith(namespace):
            local = iri[len(namespace):]
            if _NCNAME_RE.match(local):
                candidate = (-len(namespace), prefix, local)
                if best is None or candidate < best:
                    best = candidate
    if best is None:
        return None
    return f"{best[1]}:{best[2]}"


class Writer:
    """RDF/XML text under one set of namespace bindings, one description at a time.

    `head` opens a document and END closes it; `describe` writes the one
    `rdf:Description` of a subject. Both `serialize` and the service's
    cache of rendered descriptions write through it, so the format is
    written in one place.
    """

    def __init__(self, bindings: dict[str, str]):
        self._bindings = bindings
        self._qnames: dict[Iri, str] = {}  # each distinct predicate is looked up once
        lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<rdf:RDF"]
        lines += [f'  xmlns:{prefix}="{_escape_attr(bindings[prefix])}"' for prefix in sorted(bindings)]
        self.head = "\n".join(lines) + ">\n"

    def describe(self, subject: Iri, properties: dict[Iri, Union[Term, set[Term]]]) -> str:
        """The lines of the description of `subject`, each ended by LF; a predicate maps to an object or a set."""
        lines = [f'  <rdf:Description rdf:about="{_escape_attr(subject)}">']
        for predicate in _predicate_order(properties):
            qname = self._qnames.get(predicate)
            if qname is None:
                qname = _qname(predicate, self._bindings)
                if qname is None:
                    raise SerializationError(f"predicate has no namespace binding: {predicate}")
                self._qnames[predicate] = qname
            for obj in _object_order(properties[predicate]):
                if isinstance(obj, Literal):
                    text = _escape_text(obj.lexical)
                    if obj.datatype is not None:
                        lines.append(
                            f'    <{qname} rdf:datatype="{_escape_attr(obj.datatype)}">{text}</{qname}>'
                        )
                    else:
                        lines.append(f"    <{qname}>{text}</{qname}>")
                else:
                    lines.append(f'    <{qname} rdf:resource="{_escape_attr(obj)}"/>')
        lines.append("  </rdf:Description>\n")
        return "\n".join(lines)


END = "</rdf:RDF>\n"


def serialize(graph: RdfGraph) -> str:
    """Write the graph as an RDF/XML document (UTF-8 text, LF endings)."""
    writer, descriptions = Writer(graph.bindings), graph._descriptions
    texts = [writer.describe(subject, descriptions[subject]) for subject in sorted(descriptions)]
    return "".join([writer.head, *texts, END])


_ABOUT = f"{{{RDF_NS}}}about"
_RESOURCE = f"{{{RDF_NS}}}resource"
_DATATYPE = f"{{{RDF_NS}}}datatype"


def _wrap_validation(exc: ValidationError) -> RdfParseError:
    return RdfParseError(f"document encodes an invalid term: {exc}")


class _Terms:
    """One document's terms, each distinct raw string validated at its first occurrence.

    Only successes are kept, and a miss runs every check of the term's
    constructor, so a bad document raises the same error, at the same
    string, as a read that keeps nothing.
    """

    def __init__(self) -> None:
        self._iris: dict[str, Iri] = {}
        self._tags: dict[str, tuple[str, str]] = {}
        self._literals: dict[tuple[str, Optional[str]], Literal] = {}

    def iri(self, raw: str) -> Iri:
        iri = self._iris.get(raw)
        if iri is None:
            try:
                iri = self._iris[raw] = Iri(raw)
            except ValidationError as exc:
                raise _wrap_validation(exc) from None
        return iri

    def split(self, tag: str) -> tuple[str, str]:
        """(namespace, local) of an ElementTree tag, which spells them "{namespace}local"."""
        split = self._tags.get(tag)
        if split is None:
            if not tag.startswith("{"):
                raise RdfParseError(f"element {tag!r} has no namespace")
            namespace, _, local = tag[1:].partition("}")
            split = self._tags[tag] = (namespace, local)
        return split

    def literal(self, text: str, datatype: Optional[str]) -> Literal:
        key = (text, datatype)
        literal = self._literals.get(key)
        if literal is None:
            typed = self.iri(datatype) if datatype else None
            try:
                literal = self._literals[key] = Literal(text, typed)
            except ValidationError as exc:
                raise _wrap_validation(exc) from None
        return literal


def parse(text: Union[str, bytes]) -> RdfGraph:
    """Read an RDF/XML document back into a graph.

    Understands everything :func:`serialize` emits, plus the typed-node
    shorthand for rdf:type and descriptions nested inside a property
    element. Raises :class:`RdfParseError` with line/column for malformed
    XML (unbound prefixes included, courtesy of expat), and for an XML
    declaration that names an encoding expat cannot read. Each distinct IRI,
    element tag and literal is validated once per document, at its first
    occurrence, so a cloud's repeated predicates, classes and datatypes
    cost one check each.
    """
    import xml.etree.ElementTree as ET  # here, so that serving and simulating, which never parse, start without it

    data = text.encode("utf-8") if isinstance(text, str) else text
    # The parser's target builds the element tree and keeps every (prefix, uri) declaration, in document order.
    builder, ns_pairs = ET.TreeBuilder(), []
    target = SimpleNamespace(start=builder.start, end=builder.end, data=builder.data, close=builder.close,
                             start_ns=lambda prefix, uri: ns_pairs.append((prefix, uri)))
    parser = ET.XMLParser(target=target)
    try:
        parser.feed(data)
        root = parser.close()
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        reason = str(exc).removesuffix(f": line {line}, column {column}")  # RdfParseError states the position
        raise RdfParseError(f"malformed XML: {reason}", line, column) from None
    except (LookupError, ValueError) as exc:  # expat cannot decode with the codec the XML declaration names
        declared = re.match(rb"""(?:\xef\xbb\xbf)?<\?xml[^>]*?\sencoding\s*=\s*["']([^"']*)""", data)
        name = declared[1].decode("ascii", "replace") if declared else "?"
        raise RdfParseError(f"cannot read the encoding the XML declaration names, {name!r}: {exc}") from None

    terms = _Terms()
    namespace, local = terms.split(root.tag)
    if namespace != RDF_NS or local != "RDF":
        raise RdfParseError(f"document root is not rdf:RDF: {root.tag!r}")

    graph = RdfGraph()
    for prefix, uri in ns_pairs:
        if not prefix:
            continue  # default namespaces are not used by this subset
        try:
            if prefix not in graph._bindings:
                graph.bind(prefix, uri)
        except ValidationError:
            continue
    for node in root:
        _read_description(node, graph, terms)
    return graph


def _read_node(elem: ET.Element, graph: RdfGraph, terms: _Terms) -> Iri:
    """The subject of a node element, after adding its typed-node triple if it has one."""
    namespace, local = terms.split(elem.tag)
    about = elem.get(_ABOUT)
    if about is None:
        raise RdfParseError("node element has no rdf:about (blank nodes are not supported)")
    subject = terms.iri(about)

    if not (namespace == RDF_NS and local == "Description"):
        # Typed node element: the tag itself is the rdf:type.
        graph.add_terms(subject, RDF_TYPE, terms.iri(namespace + local))
    return subject


def _read_description(elem: ET.Element, graph: RdfGraph, terms: _Terms) -> None:
    """Add the triples of one top-level node and of the nodes nested in it, in document order.

    A nested node is read before the properties after it, so errors come
    in document order. The walk keeps the (subject, property iterator)
    of each enclosing node on a stack rather than recursing, so a
    document may nest deeper than Python's recursion limit.
    """
    subject, props = _read_node(elem, graph, terms), iter(elem)
    stack: list[tuple[Iri, Iterator[ET.Element]]] = []
    while True:
        for prop in props:
            p_ns, p_local = terms.split(prop.tag)
            predicate = terms.iri(p_ns + p_local)

            resource = prop.get(_RESOURCE)
            if resource is not None:
                obj: Term = terms.iri(resource)
            elif len(prop):
                if len(prop) > 1:
                    raise RdfParseError(f"property {p_local!r} holds more than one nested node")
                obj = _read_node(prop[0], graph, terms)
                graph.add_terms(subject, predicate, obj)
                stack.append((subject, props))
                subject, props = obj, iter(prop[0])
                break
            else:
                obj = terms.literal(prop.text or "", prop.get(_DATATYPE))
            graph.add_terms(subject, predicate, obj)
        else:
            if not stack:
                return
            subject, props = stack.pop()
