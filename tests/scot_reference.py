"""The SCOT mapping spelled out triple by triple, from the vocabulary alone.

This is a second statement of what `scotcloud.model` maps a store to,
written without it, for the tests to compare with:

- a cloud of the resource R is `R rdf:type scot:TagCloud`, and
  `R sioc:has_tag T` for each of its tags T;
- a tag T with count n is `T rdf:type scot:Tag` and
  `T scot:ownAFrequency "n.0"^^xsd:float`;
- a concept C below the parent P is `C skos:broader P`.

A name is minted as `<base>/rdfs/<name, percent-quoted>.rdf`. In a
one-cloud document a tag's IRI is minted from its label; in the
whole-store document it is scoped under its resource, as
`<R less its .rdf>/<label, percent-quoted>.rdf`.
"""

from urllib.parse import quote

from scotcloud.rdfxml import Iri, Literal, Triple

BASE = "http://yourdns.com"
RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
TAG_CLOUD = Iri("http://scot-project.org/scot/ns#TagCloud")
TAG = Iri("http://scot-project.org/scot/ns#Tag")
OWN_A_FREQUENCY = Iri("http://scot-project.org/scot/ns#ownAFrequency")
HAS_TAG = Iri("http://rdfs.org/sioc/ns#has_tag")
BROADER = Iri("http://www.w3.org/2004/02/skos/core#broader")
XSD_FLOAT = Iri("http://www.w3.org/2001/XMLSchema#float")


def minted(name: str) -> Iri:
    return Iri(f"{BASE}/rdfs/{quote(name, safe='')}.rdf")


def cloud_triples(resource: Iri, counts: dict[str, int], scoped: bool) -> set[Triple]:
    """The triples of one cloud and its tags; `scoped` for the tag IRIs of the whole-store document."""
    triples = {Triple(resource, RDF_TYPE, TAG_CLOUD)}
    for label, count in counts.items():
        tag = Iri(f"{resource.removesuffix('.rdf')}/{quote(label, safe='')}.rdf") if scoped else minted(label)
        triples.add(Triple(resource, HAS_TAG, tag))
        triples.add(Triple(tag, RDF_TYPE, TAG))
        triples.add(Triple(tag, OWN_A_FREQUENCY, Literal(f"{count}.0", XSD_FLOAT)))
    return triples


def store_triples(clouds: dict[Iri, dict[str, int]], parent: dict[str, str]) -> set[Triple]:
    """The triples of the whole-store document: every cloud that has a tag, and every concept below a parent."""
    triples = {Triple(minted(child), BROADER, minted(up)) for child, up in parent.items()}
    for resource, counts in clouds.items():
        if counts:
            triples |= cloud_triples(resource, counts, scoped=True)
    return triples
