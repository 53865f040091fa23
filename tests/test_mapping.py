"""The SCOT mapping of `model` and of the served documents against `scot_reference`.

`scot_reference` spells out each cloud's, tag's and concept's triples from
the vocabulary, apart from `model`, so these tests do not compare the
mapping with itself. For Hypothesis-drawn stores, `cloud_to_rdf`,
`store_to_graph` and the parsed `/cloud` and `/export` bodies each hold
exactly the reference's triples. Every name may be a resource, a tag's
label and a concept at once, and most of them are quoted in an IRI.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scotcloud import model
from scotcloud.model import AnnotationEvent, AnnotationStore, VocabConfig
from scotcloud.rdfxml import parse
from scotcloud.service import AnnotationService, ServiceConfig

from conftest import TAGGER, fetch_full
from scot_reference import cloud_triples, minted, store_triples

VOCAB = VocabConfig()
# Normalized names, each of which IRIs quote but "shoe" and "laser"; "x&y" and "<3" are escaped in XML too.
NAMES = ["shoe", "two words", "50%", "café", "a/b", "x&y", "<3", "laser"]


@st.composite
def stores(draw) -> tuple[AnnotationStore, dict[str, Counter], dict[str, str]]:
    """A store, with the counts by resource name and the concepts' parents it was built from.

    The concepts form a forest in which each name is below one drawn
    before it, or a root. The first name drawn is a concept with a child,
    and has a cloud: a subject of two roles in the export.
    """
    order = draw(st.permutations(NAMES))
    ups = [None, 0] + [draw(st.one_of(st.none(), st.integers(0, i - 1))) for i in range(2, len(order))]
    events = [(order[0], draw(st.sampled_from(NAMES)))]
    events += draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=25))
    store, counts, parent = AnnotationStore(), {name: Counter() for name in NAMES}, {}
    for t, (resource, label) in enumerate(events):
        store.record(AnnotationEvent(t, TAGGER, VOCAB.resource_iri(resource), label))
        counts[resource][label] += 1
    for child, up in zip(order, ups):
        if up is not None:
            store.attach(order[up], child)
            parent[child] = order[up]
    return store, counts, parent


def expected_export(counts: dict[str, Counter], parent: dict[str, str]):
    return store_triples({minted(name): dict(tags) for name, tags in counts.items()}, parent)


class TestMappingAgainstTheReference:
    @settings(max_examples=150, deadline=None)
    @given(stores())
    def test_graphs_hold_the_reference_triples(self, drawn):
        store, counts, parent = drawn
        for name in NAMES:
            resource = minted(name)
            graph = model.cloud_to_rdf(store.cloud_of(resource), VOCAB)
            assert set(graph) == cloud_triples(resource, counts[name], scoped=False), name
        assert set(model.store_to_graph(store, VOCAB)) == expected_export(counts, parent)

    @settings(max_examples=100, deadline=None)
    @given(stores(), st.sampled_from([64, 300, 2048]))
    def test_served_documents_parse_to_the_reference_triples(self, drawn, cap):
        store, counts, parent = drawn
        service = AnnotationService(ServiceConfig(page_cap=cap), store=store)
        for _ in range(2):  # built, then served again from the description cache after one more tag
            for name in NAMES:
                body = fetch_full(service, "cloud", {"resource": name})
                assert set(parse(body)) == cloud_triples(minted(name), counts[name], scoped=False), name
            assert set(parse(fetch_full(service, "export", {}))) == expected_export(counts, parent)
            assert service.handle_url(f"/tag?resource=shoe&tag=shoe&tagger={TAGGER}").ok
            counts["shoe"]["shoe"] += 1

    @pytest.mark.parametrize("name", NAMES)
    def test_one_name_as_a_cloud_its_own_tag_and_a_concept(self, name):
        child = NAMES[NAMES.index(name) - 1]
        store = AnnotationStore()
        store.record(AnnotationEvent(0, TAGGER, minted(name), name))
        store.attach(name, child)
        service = AnnotationService(store=store)
        body = fetch_full(service, "cloud", {"resource": name})
        assert set(parse(body)) == cloud_triples(minted(name), {name: 1}, scoped=False)
        assert set(parse(fetch_full(service, "export", {}))) == expected_export({name: {name: 1}}, {child: name})
