"""Minimal RDF graph with a deterministic RDF/XML codec.

Covers exactly the subset SCOT tag-cloud documents need: rdf:Description
blocks keyed by rdf:about, property elements holding either an
rdf:resource reference or a (optionally datatyped) text literal. No blank
nodes, no containers, no reification, no xml:lang. Because every node is
IRI-identified, graph equality is plain triple-set equality.

Serialization is normative and byte-stable: UTF-8, LF line endings,
2-space indentation, one xmlns line per binding (sorted by prefix),
subjects sorted lexicographically, rdf:type properties first within a
subject, remaining properties sorted.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterator, Optional, Union

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


@dataclass(frozen=True)
class Literal:
    """Text value with an optional datatype IRI."""

    lexical: str
    datatype: Optional[Iri] = None

    def __post_init__(self) -> None:
        if not isinstance(self.lexical, str):
            raise ValidationError("literal lexical form must be a string")
        bad = _LITERAL_BAD_CHAR.search(self.lexical)
        if bad:
            raise ValidationError(f"literal contains control character {bad.group()!r}")
        if self.datatype is not None and not isinstance(self.datatype, Iri):
            object.__setattr__(self, "datatype", Iri(self.datatype))
        if self.datatype == XSD_FLOAT:
            try:
                value = float(self.lexical)
            except ValueError:
                raise ValidationError(f"float literal does not parse: {self.lexical!r}") from None
            if not math.isfinite(value):
                raise ValidationError(f"float literal is not finite: {self.lexical!r}")


Term = Union[Iri, Literal]


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.subject, Iri):
            object.__setattr__(self, "subject", Iri(self.subject))
        if not isinstance(self.predicate, Iri):
            object.__setattr__(self, "predicate", Iri(self.predicate))
        if not isinstance(self.object, (Iri, Literal)):
            if isinstance(self.object, str):
                object.__setattr__(self, "object", Iri(self.object))
            else:
                raise ValidationError("triple object must be an Iri or a Literal")


def _sort_key(t: Triple):
    if isinstance(t.object, Literal):
        obj_key = (1, t.object.lexical, t.object.datatype or "")
    else:
        obj_key = (0, str(t.object), "")
    type_rank = 0 if t.predicate == _RDF_TYPE else 1
    return (str(t.subject), type_rank, str(t.predicate)) + obj_key


class RdfGraph:
    """Set of triples plus the namespace bindings used to write them.

    The "rdf" prefix is always bound. Equality and iteration are over the
    triple set; bindings are serialization metadata.
    """

    def __init__(self, bindings: Optional[dict[str, str]] = None):
        self._triples: set[Triple] = set()
        self._bindings: dict[str, Iri] = {"rdf": Iri(RDF_NS)}
        if bindings:
            for prefix, namespace in bindings.items():
                self.bind(prefix, namespace)

    def add(self, triple: Triple) -> None:
        if not isinstance(triple, Triple):
            raise ValidationError("expected a Triple")
        self._triples.add(triple)

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

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=_sort_key))

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdfGraph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self):  # mutable container
        raise TypeError("RdfGraph is not hashable")

    def __repr__(self) -> str:
        return f"<RdfGraph {len(self._triples)} triples, {len(self._bindings)} bindings>"


RDF_TYPE = Iri(_RDF_TYPE)


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


def serialize(graph: RdfGraph) -> str:
    """Write the graph as an RDF/XML document (UTF-8 text, LF endings)."""
    bindings = graph.bindings
    qnames: dict[Iri, str] = {}  # each distinct predicate is looked up once
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<rdf:RDF"]
    prefixes = sorted(bindings)
    for i, prefix in enumerate(prefixes):
        tail = ">" if i == len(prefixes) - 1 else ""
        lines.append(f'  xmlns:{prefix}="{_escape_attr(bindings[prefix])}"{tail}')

    current_subject: Optional[Iri] = None
    for triple in graph:
        if triple.subject != current_subject:
            if current_subject is not None:
                lines.append("  </rdf:Description>")
            current_subject = triple.subject
            lines.append(f'  <rdf:Description rdf:about="{_escape_attr(current_subject)}">')
        qname = qnames.get(triple.predicate)
        if qname is None:
            qname = _qname(triple.predicate, bindings)
            if qname is None:
                raise SerializationError(f"predicate has no namespace binding: {triple.predicate}")
            qnames[triple.predicate] = qname
        obj = triple.object
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
    if current_subject is not None:
        lines.append("  </rdf:Description>")
    lines.append("</rdf:RDF>")
    return "\n".join(lines) + "\n"


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


class _NamespaceRecorder(ET.TreeBuilder):
    """Builds the element tree and keeps every (prefix, uri) declaration, in document order."""

    def __init__(self) -> None:
        super().__init__()
        self.ns_pairs: list[tuple[str, str]] = []

    def start_ns(self, prefix: str, uri: str) -> None:
        self.ns_pairs.append((prefix, uri))


def parse(text: Union[str, bytes]) -> RdfGraph:
    """Read an RDF/XML document back into a graph.

    Understands everything :func:`serialize` emits, plus the typed-node
    shorthand for rdf:type and descriptions nested inside a property
    element. Raises :class:`RdfParseError` with line/column for malformed
    XML (unbound prefixes included, courtesy of expat). Each distinct IRI,
    element tag and literal is validated once per document, at its first
    occurrence, so a cloud's repeated predicates, classes and datatypes
    cost one check each.
    """
    data = text.encode("utf-8") if isinstance(text, str) else text
    builder = _NamespaceRecorder()
    parser = ET.XMLParser(target=builder)
    try:
        parser.feed(data)
        root = parser.close()
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise RdfParseError(f"malformed XML: {exc.msg if hasattr(exc, 'msg') else exc}", line, column) from None

    terms = _Terms()
    namespace, local = terms.split(root.tag)
    if namespace != RDF_NS or local != "RDF":
        raise RdfParseError(f"document root is not rdf:RDF: {root.tag!r}")

    graph = RdfGraph()
    for prefix, uri in builder.ns_pairs:
        if not prefix:
            continue  # default namespaces are not used by this subset
        try:
            if prefix not in graph.bindings:
                graph.bind(prefix, uri)
        except ValidationError:
            continue
    for node in root:
        _read_description(node, graph, terms)
    return graph


def _read_description(elem: ET.Element, graph: RdfGraph, terms: _Terms) -> Iri:
    namespace, local = terms.split(elem.tag)
    about = elem.get(_ABOUT)
    if about is None:
        raise RdfParseError("node element has no rdf:about (blank nodes are not supported)")
    subject = terms.iri(about)

    if not (namespace == RDF_NS and local == "Description"):
        # Typed node element: the tag itself is the rdf:type.
        graph.add(Triple(subject, RDF_TYPE, terms.iri(namespace + local)))

    for prop in elem:
        p_ns, p_local = terms.split(prop.tag)
        predicate = terms.iri(p_ns + p_local)

        resource = prop.get(_RESOURCE)
        nested = list(prop)
        if resource is not None:
            obj: Term = terms.iri(resource)
        elif nested:
            if len(nested) > 1:
                raise RdfParseError(f"property {p_local!r} holds more than one nested node")
            obj = _read_description(nested[0], graph, terms)
        else:
            obj = terms.literal(prop.text or "", prop.get(_DATATYPE))
        graph.add(Triple(subject, predicate, obj))
    return subject
