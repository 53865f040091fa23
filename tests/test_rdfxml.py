import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scotcloud.rdfxml import (
    RDF_NS,
    RDF_TYPE,
    XSD_FLOAT,
    Iri,
    Literal,
    NamespaceConflict,
    RdfGraph,
    RdfParseError,
    SerializationError,
    Triple,
    ValidationError,
    parse,
    serialize,
)

EX = "http://example.org/ns#"
SCOT = "http://scot-project.org/scot/ns#"
MOUSE = Iri("http://yourdns.com/rdfs/mouse.rdf")
LASER = Iri("http://yourdns.com/rdfs/laser.rdf")


def random_triple(rng: random.Random) -> Triple:
    subject = Iri(f"http://example.org/r/{rng.randint(0, 30)}")
    if rng.random() < 0.2:
        predicate = RDF_TYPE
    else:
        predicate = Iri(f"{EX}p{rng.randint(0, 9)}")
    roll = rng.random()
    if roll < 0.45:
        obj = Iri(f"http://example.org/o/{rng.randint(0, 50)}?q={rng.randint(0, 9)}&x=%20y")
    elif roll < 0.75:
        obj = Literal(random_text(rng))
    elif roll < 0.9:
        obj = Literal(f"{rng.randint(0, 100)}.{rng.randint(0, 9)}", Iri(XSD_FLOAT))
    else:
        obj = Literal(random_text(rng), Iri(f"{EX}dt{rng.randint(0, 3)}"))
    return Triple(subject, predicate, obj)


def random_text(rng: random.Random) -> str:
    alphabet = "abcXYZ0123 <>&\"'\t\n\r()=éλ𝄞"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))


def random_graph(rng: random.Random, max_triples: int = 100) -> RdfGraph:
    graph = RdfGraph({"ex": EX})
    for _ in range(rng.randint(0, max_triples)):
        graph.add(random_triple(rng))
    return graph


class TestTerms:
    def test_iri_requires_scheme(self):
        with pytest.raises(ValidationError):
            Iri("not-an-iri")

    def test_iri_rejects_whitespace_and_empties(self):
        for bad in ["", "http://a b", "http://a\tb", 'http://a"b']:
            with pytest.raises(ValidationError):
                Iri(bad)

    def test_float_literal_must_be_finite_number(self):
        Literal("3.0", Iri(XSD_FLOAT))
        with pytest.raises(ValidationError):
            Literal("three", Iri(XSD_FLOAT))
        with pytest.raises(ValidationError):
            Literal("inf", Iri(XSD_FLOAT))

    def test_literal_rejects_control_characters(self):
        with pytest.raises(ValidationError):
            Literal("a\x00b")

    @staticmethod
    def loop_iri_check(value):
        """The former per-character IRI check, kept as the reference."""
        for ch in value:
            if ch <= " " or ch == "\x7f" or ch in '<>"{}|\\^`':
                raise ValidationError(f"IRI contains forbidden character {ch!r}: {value!r}")

    @staticmethod
    def loop_literal_check(lexical):
        """The former per-character literal check, kept as the reference."""
        for ch in lexical:
            if ord(ch) < 32 and ch not in "\t\n\r":
                raise ValidationError(f"literal contains control character {ch!r}")

    @staticmethod
    def outcome(check, value):
        try:
            check(value)
        except ValidationError as exc:
            return type(exc), str(exc)
        return None

    def test_character_checks_match_the_former_loops(self):
        rng = random.Random(3)
        code_points = list(range(0x3000)) + rng.sample(range(0x3000, 0x110000), 4000)
        for cp in code_points:
            ch = chr(cp)
            # a later bad character shows that the leftmost one is reported
            for tail in ("", "y", "y<\x01"):
                iri = f"http://a/{ch}{tail}"
                assert self.outcome(Iri, iri) == self.outcome(self.loop_iri_check, iri), hex(cp)
                lexical = f"a{ch}{tail}"
                got = self.outcome(Literal, lexical)
                assert got == self.outcome(self.loop_literal_check, lexical), hex(cp)


class TestGraph:
    def test_add_same_triple_twice_keeps_size_one(self):
        graph = RdfGraph()
        triple = Triple(MOUSE, RDF_TYPE, Iri(SCOT + "TagCloud"))
        graph.add(triple)
        graph.add(triple)
        assert len(graph) == 1

    def test_add_typing_triple_is_contained(self):
        graph = RdfGraph()
        triple = Triple(MOUSE, RDF_TYPE, Iri(SCOT + "TagCloud"))
        graph.add(triple)
        assert triple in graph

    def test_fifty_distinct_triples_match_scan_oracle(self):
        rng = random.Random(42)
        triples = []
        while len(triples) < 50:
            candidate = random_triple(rng)
            if candidate not in triples:  # naive membership scan
                triples.append(candidate)
        graph = RdfGraph()
        oracle: list[Triple] = []
        for t in triples:
            graph.add(t)
            found = False  # membership-scan oracle insert
            for existing in oracle:
                if existing == t:
                    found = True
            if not found:
                oracle.append(t)
        assert len(graph) == 50 == len(oracle)
        assert set(graph) == set(oracle)

    def test_duplicates_collapse_like_scan_oracle(self):
        rng = random.Random(7)
        graph = RdfGraph()
        oracle: list[Triple] = []
        for _ in range(300):
            t = random_triple(rng)
            graph.add(t)
            if not any(existing == t for existing in oracle):
                oracle.append(t)
        assert len(graph) == len(oracle)
        assert set(graph) == set(oracle)

    def test_malformed_subject_rejected(self):
        with pytest.raises(ValidationError):
            Triple("garbage", RDF_TYPE, MOUSE)


class TestBindings:
    def test_bound_prefix_appears_in_preamble(self):
        graph = RdfGraph()
        graph.bind("scot", SCOT)
        assert f'xmlns:scot="{SCOT}"' in serialize(graph)

    def test_rebinding_same_pair_is_noop(self):
        graph = RdfGraph()
        graph.bind("scot", SCOT)
        graph.bind("scot", SCOT)
        assert graph.bindings["scot"] == SCOT

    def test_conflicting_rebind_raises(self):
        graph = RdfGraph()
        graph.bind("scot", SCOT)
        with pytest.raises(NamespaceConflict):
            graph.bind("scot", "http://elsewhere.example/ns#")

    def test_prefix_must_be_ncname(self):
        graph = RdfGraph()
        with pytest.raises(ValidationError):
            graph.bind("not a prefix", EX)


GOLDEN_EMPTY = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    "<rdf:RDF\n"
    f'  xmlns:rdf="{RDF_NS}">\n'
    "</rdf:RDF>\n"
)

GOLDEN_LASER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    "<rdf:RDF\n"
    f'  xmlns:rdf="{RDF_NS}"\n'
    f'  xmlns:scot="{SCOT}">\n'
    f'  <rdf:Description rdf:about="{LASER}">\n'
    f'    <rdf:type rdf:resource="{SCOT}Tag"/>\n'
    f'    <scot:ownAFrequency rdf:datatype="{XSD_FLOAT}">3.0</scot:ownAFrequency>\n'
    "  </rdf:Description>\n"
    "</rdf:RDF>\n"
)


class TestSerialize:
    def test_empty_graph_is_preamble_only(self):
        assert serialize(RdfGraph()) == GOLDEN_EMPTY

    def test_laser_description_is_bit_exact(self):
        graph = RdfGraph({"scot": SCOT})
        graph.add(Triple(LASER, RDF_TYPE, Iri(SCOT + "Tag")))
        graph.add(Triple(LASER, Iri(SCOT + "ownAFrequency"), Literal("3.0", Iri(XSD_FLOAT))))
        assert serialize(graph) == GOLDEN_LASER

    def test_output_is_lf_only_and_utf8(self):
        rng = random.Random(3)
        text = serialize(random_graph(rng))
        assert "\r" not in text
        text.encode("utf-8")

    def test_uncompactable_predicate_raises(self):
        graph = RdfGraph()
        graph.add(Triple(MOUSE, Iri("http://unbound.example/ns#p"), MOUSE))
        with pytest.raises(SerializationError):
            serialize(graph)

    def test_insertion_order_does_not_change_bytes(self):
        rng = random.Random(11)
        triples = [random_triple(rng) for _ in range(60)]
        first = RdfGraph({"ex": EX})
        second = RdfGraph({"ex": EX})
        for t in triples:
            first.add(t)
        for t in reversed(triples):
            second.add(t)
        assert serialize(first) == serialize(second)

    def test_serialize_is_pure(self):
        rng = random.Random(12)
        graph = random_graph(rng)
        assert serialize(graph) == serialize(graph)


FIG_LASER_BLOCK = f"""<?xml version="1.0" encoding="UTF-8"?>
<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns:scot="{SCOT}">
<rdf:Description rdf:about="http://yourdns.com/rdfs/laser.rdf">
<rdf:type rdf:resource="{SCOT}Tag"/>
<scot:ownAFrequency rdf:datatype="{XSD_FLOAT}">3.0</scot:ownAFrequency>
</rdf:Description>
</rdf:RDF>
"""


class TestParse:
    def test_laser_block_yields_typing_and_frequency_triples(self):
        graph = parse(FIG_LASER_BLOCK)
        assert len(graph) == 2
        assert Triple(LASER, RDF_TYPE, Iri(SCOT + "Tag")) in graph
        assert Triple(LASER, Iri(SCOT + "ownAFrequency"), Literal("3.0", Iri(XSD_FLOAT))) in graph

    def test_preamble_only_document_is_empty_graph(self):
        graph = parse(GOLDEN_EMPTY)
        assert len(graph) == 0

    def test_malformed_xml_reports_line_and_column(self):
        with pytest.raises(RdfParseError) as info:
            parse('<?xml version="1.0"?>\n<rdf:RDF xmlns:rdf="x://y">\n  <broken\n')
        assert info.value.line is not None
        assert info.value.column is not None

    def test_unknown_prefix_is_a_parse_error(self):
        with pytest.raises(RdfParseError):
            parse(f'<rdf:RDF xmlns:rdf="{RDF_NS}"><scot:Tag rdf:about="http://a/b"/></rdf:RDF>')

    def test_typed_node_shorthand(self):
        doc = (
            f'<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns:scot="{SCOT}">'
            f'<scot:Tag rdf:about="{LASER}"/>'
            "</rdf:RDF>"
        )
        graph = parse(doc)
        assert set(graph) == {Triple(LASER, RDF_TYPE, Iri(SCOT + "Tag"))}

    def test_nested_description(self):
        doc = (
            f'<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns:ex="{EX}">'
            f'<rdf:Description rdf:about="http://a/x">'
            f'<ex:link><rdf:Description rdf:about="http://a/y">'
            f"<ex:name>why</ex:name>"
            f"</rdf:Description></ex:link>"
            f"</rdf:Description></rdf:RDF>"
        )
        graph = parse(doc)
        assert Triple(Iri("http://a/x"), Iri(EX + "link"), Iri("http://a/y")) in graph
        assert Triple(Iri("http://a/y"), Iri(EX + "name"), Literal("why")) in graph

    def test_node_without_about_is_rejected(self):
        doc = f'<rdf:RDF xmlns:rdf="{RDF_NS}"><rdf:Description/></rdf:RDF>'
        with pytest.raises(RdfParseError):
            parse(doc)

    def test_root_must_be_rdf_rdf(self):
        with pytest.raises(RdfParseError):
            parse(f'<rdf:Description xmlns:rdf="{RDF_NS}" rdf:about="http://a/b"/>')

    def test_non_xml_garbage(self):
        with pytest.raises(RdfParseError):
            parse("this is not xml")


class TestRoundtrip:
    def test_roundtrip_many_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(300):
            graph = random_graph(rng)
            back = parse(serialize(graph))
            assert set(back) == set(graph)

    @given(
        st.text(
            alphabet=st.characters(
                min_codepoint=32, max_codepoint=0x2FF, include_characters="\t\n\r<>&\"'"
            ),
            max_size=48,
        )
    )
    def test_literal_text_roundtrips(self, text):
        graph = RdfGraph({"ex": EX})
        graph.add(Triple(Iri("http://a/s"), Iri(EX + "p"), Literal(text)))
        assert set(parse(serialize(graph))) == set(graph)

    def test_parse_then_serialize_is_stable(self):
        rng = random.Random(5)
        graph = random_graph(rng)
        text = serialize(graph)
        assert serialize(parse(text)) == text
