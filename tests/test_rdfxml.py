import random
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
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
from scotcloud.rdfxml import _Terms, _escape_attr, _escape_text, _qname

from conftest import chain_document, cyclic_garbage

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

    # An encoding Python does not know, and a multi-byte one that expat cannot drive.
    @pytest.mark.parametrize("encoding", ["UTF-9", "shift_jis"])
    def test_an_unreadable_declared_encoding_is_a_parse_error(self, encoding):
        with pytest.raises(RdfParseError, match=f"XML declaration names, '{encoding}': "):
            parse(f'<?xml version="1.0" encoding="{encoding}"?>\n<rdf:RDF xmlns:rdf="{RDF_NS}"/>'.encode())

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

    def test_a_nesting_deeper_than_the_recursion_limit_parses_like_its_flat_form(self):
        links = sys.getrecursionlimit() + 200
        graph = parse(chain_document(links, nested=True))
        assert graph == parse(chain_document(links, nested=False))
        assert len(graph) == links

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

    def test_declared_prefixes_become_bindings_and_the_first_declaration_wins(self):
        doc = (
            f'<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns="http://default/" xmlns:ex="{EX}">'
            f'<rdf:Description rdf:about="http://a/x" xmlns:ex="http://later/" xmlns:scot="{SCOT}">'
            f"<ex:name>why</ex:name>"
            f"</rdf:Description></rdf:RDF>"
        )
        graph = parse(doc)
        assert graph.bindings == {"rdf": RDF_NS, "ex": EX, "scot": SCOT}
        assert set(graph) == {Triple(Iri("http://a/x"), Iri("http://later/name"), Literal("why"))}

    def test_a_prefix_whose_namespace_is_not_an_iri_stays_unbound(self):
        graph = parse(f'<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns:p="urn:no-slashes" xmlns:ex="{EX}"/>')
        assert graph.bindings == {"rdf": RDF_NS, "ex": EX}

    def test_each_declaration_is_bound_without_copying_every_binding(self, monkeypatch):
        # `RdfGraph.bindings` returns a copy of the whole dict: read once per
        # declaration, n declarations would cost O(n^2) time.
        reads = []
        bindings = RdfGraph.bindings
        monkeypatch.setattr(RdfGraph, "bindings", property(lambda graph: reads.append(1) or bindings.fget(graph)))
        n = 1000
        doc = "".join(
            [f'<rdf:RDF xmlns:rdf="{RDF_NS}">']
            + [f'<rdf:Description rdf:about="http://a/{i}" xmlns:p{i}="{EX}{i}#"/>' for i in range(n)]
            + ["</rdf:RDF>"]
        )
        graph = parse(doc)
        assert len(reads) <= 1
        assert bindings.fget(graph) == {"rdf": RDF_NS, **{f"p{i}": f"{EX}{i}#" for i in range(n)}}

    def test_an_error_far_into_a_large_document_gives_its_own_line_and_column(self):
        graph = RdfGraph({"ex": EX})
        for i in range(600):
            graph.add(Triple(Iri(f"http://example.org/r/{i}"), Iri(EX + "name"), Literal(f"resource number {i}")))
        lines = serialize(graph).splitlines()
        assert sum(len(line) + 1 for line in lines[:-40]) > 64 * 1024
        lines[-40] = "    <ex:name>x</ex:nam>"
        with pytest.raises(RdfParseError) as info:
            parse("\n".join(lines) + "\n")
        assert (info.value.line, info.value.column) == (len(lines) - 39, 16)

    def test_empty_document_is_a_parse_error_at_its_start(self):
        with pytest.raises(RdfParseError) as info:
            parse(b"")
        assert (info.value.line, info.value.column) == (1, 0)

    def test_an_xml_error_states_its_position_once(self):
        with pytest.raises(RdfParseError) as info:
            parse(f'<?xml version="1.0"?>\n<rdf:RDF xmlns:rdf="{RDF_NS}">caf\xe9</rdf:RDF>\n'.encode("latin-1"))
        assert (info.value.line, info.value.column) == (2, 68)
        assert str(info.value) == "malformed XML: not well-formed (invalid token) (line 2, column 68)"

    @pytest.mark.parametrize(
        "doc,message",
        [
            (b"<a></b>", "mismatched tag (line 1, column 5)"),
            (b"<a>", "no element found (line 1, column 3)"),
            (b"<a/><b/>", "junk after document element (line 1, column 4)"),
        ],
    )
    def test_every_expat_error_states_its_position_once(self, doc, message):
        with pytest.raises(RdfParseError) as info:
            parse(doc)
        assert str(info.value) == f"malformed XML: {message}"


# -- reference reader: the former recursive walk of nested descriptions -------------

_REF_ABOUT = f"{{{RDF_NS}}}about"
_REF_RESOURCE = f"{{{RDF_NS}}}resource"
_REF_DATATYPE = f"{{{RDF_NS}}}datatype"


def ref_read_description(elem, graph, terms):
    namespace, local = terms.split(elem.tag)
    about = elem.get(_REF_ABOUT)
    if about is None:
        raise RdfParseError("node element has no rdf:about (blank nodes are not supported)")
    subject = terms.iri(about)
    if not (namespace == RDF_NS and local == "Description"):
        graph.add(Triple(subject, RDF_TYPE, terms.iri(namespace + local)))
    for prop in elem:
        p_ns, p_local = terms.split(prop.tag)
        predicate = terms.iri(p_ns + p_local)
        resource = prop.get(_REF_RESOURCE)
        if resource is not None:
            obj = terms.iri(resource)
        elif len(prop):
            if len(prop) > 1:
                raise RdfParseError(f"property {p_local!r} holds more than one nested node")
            obj = ref_read_description(prop[0], graph, terms)
        else:
            obj = terms.literal(prop.text or "", prop.get(_REF_DATATYPE))
        graph.add(Triple(subject, predicate, obj))
    return subject


def ref_parse(text):
    graph, terms = RdfGraph(), _Terms()
    for node in ET.fromstring(text):
        ref_read_description(node, graph, terms)
    return graph


def random_node(rng: random.Random, depth: int) -> str:
    """A node element with up to three properties; now and then one of the flaws a reader must report."""
    tag = rng.choice(["rdf:Description"] * 6 + ["ex:Thing", "scot:Tag"] + ["Plain"] * (rng.random() < 0.1))
    about = "" if rng.random() < 0.04 else f' rdf:about="http://a/{rng.randint(0, 5)}"'
    props = []
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(["ex:p", "ex:q", "rdf:type"])
        roll = rng.random()
        if depth < 5 and roll < 0.35:
            inner = random_node(rng, depth + 1)
            if rng.random() < 0.03:
                inner += random_node(rng, depth + 1)
            props.append(f"<{name}>{inner}</{name}>")
        elif roll < 0.65:
            target = "no-scheme" if rng.random() < 0.03 else f"http://a/{rng.randint(0, 5)}"
            props.append(f'<{name} rdf:resource="{target}"/>')
        else:
            text = rng.choice(["1.0", "2.5", "why"] + ["inf"] * (rng.random() < 0.1))
            props.append(f'<{name} rdf:datatype="{XSD_FLOAT}">{text}</{name}>' if rng.random() < 0.5 else f"<{name}>{text}</{name}>")
    return f"<{tag}{about}>{''.join(props)}</{tag}>"


def read_outcome(read, text):
    try:
        graph = read(text)
    except RdfParseError as exc:
        return "error", str(exc)
    return "graph", len(graph), set(graph)


class TestNestedWalk:
    """The stack walk of nested descriptions against the former recursive one."""

    def test_random_nested_documents_read_as_the_recursive_walk_reads_them(self):
        rng = random.Random(31)
        outcomes = set()
        for _ in range(400):
            nodes = "".join(random_node(rng, 0) for _ in range(rng.randint(1, 4)))
            text = f'<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns:ex="{EX}" xmlns:scot="{SCOT}">{nodes}</rdf:RDF>'
            expected = read_outcome(ref_parse, text)
            assert read_outcome(parse, text) == expected, text
            outcomes.add(expected[0] if expected[0] == "graph" else expected[1].split(":")[0])
        assert len(outcomes) >= 5, outcomes


class TestNoCyclicGarbage:
    """A parse leaves nothing that waits for the cyclic garbage collector."""

    def test_parse_of_a_document(self):
        text = serialize(random_graph(random.Random(8)))
        assert cyclic_garbage(lambda: parse(text)) == []

    def test_parse_that_fails(self):
        def malformed():
            with pytest.raises(RdfParseError):
                parse('<?xml version="1.0"?>\n<rdf:RDF xmlns:rdf="x://y">\n  <broken\n')

        assert cyclic_garbage(malformed) == []


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


# -- the graph against a plain set of triples ----------------------------------


def set_sort_key(t: Triple):
    """The whole-graph sort key of the set-of-triples graph this one replaced."""
    if isinstance(t.object, Literal):
        obj_key = (1, t.object.lexical, t.object.datatype or "")
    else:
        obj_key = (0, str(t.object), "")
    type_rank = 0 if t.predicate == RDF_TYPE else 1
    return (str(t.subject), type_rank, str(t.predicate)) + obj_key


def set_serialize(triples: set[Triple], bindings: dict[str, Iri]) -> str:
    """The writer of the set-of-triples graph: sort every triple, then one line each."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<rdf:RDF"]
    prefixes = sorted(bindings)
    for i, prefix in enumerate(prefixes):
        tail = ">" if i == len(prefixes) - 1 else ""
        lines.append(f'  xmlns:{prefix}="{_escape_attr(bindings[prefix])}"{tail}')
    current_subject = None
    for triple in sorted(triples, key=set_sort_key):
        if triple.subject != current_subject:
            if current_subject is not None:
                lines.append("  </rdf:Description>")
            current_subject = triple.subject
            lines.append(f'  <rdf:Description rdf:about="{_escape_attr(current_subject)}">')
        qname = _qname(triple.predicate, bindings)
        obj = triple.object
        if isinstance(obj, Literal):
            text = _escape_text(obj.lexical)
            if obj.datatype is not None:
                lines.append(f'    <{qname} rdf:datatype="{_escape_attr(obj.datatype)}">{text}</{qname}>')
            else:
                lines.append(f"    <{qname}>{text}</{qname}>")
        else:
            lines.append(f'    <{qname} rdf:resource="{_escape_attr(obj)}"/>')
    if current_subject is not None:
        lines.append("  </rdf:Description>")
    lines.append("</rdf:RDF>")
    return "\n".join(lines) + "\n"


LATE = "http://zz.example/ns#"  # a namespace whose predicates sort after rdf:type
TEXTS = ["http://a/o", "http://a/s0", "b", "a b"]  # each is both an IRI and a literal's text
triples = st.builds(
    Triple,
    st.sampled_from([Iri("http://a/s0"), Iri("http://a/s1"), Iri("http://a/o")]),
    st.sampled_from([RDF_TYPE, Iri(EX + "p"), Iri(EX + "q"), Iri(LATE + "z")]),
    st.one_of(
        st.sampled_from([Iri(t) for t in TEXTS if "://" in t]),
        st.builds(Literal, st.sampled_from(TEXTS), st.sampled_from([None, Iri(EX + "dt"), Iri(LATE + "dt")])),
    ),
)


class TestGraphAgainstTripleSet:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(triples, max_size=40), st.lists(triples, max_size=10))
    def test_adds_read_back_as_a_set_of_triples_does(self, adds, probes):
        graph = RdfGraph({"ex": EX, "zz": LATE})
        oracle: set[Triple] = set()
        for triple in adds:
            graph.add(triple)
            oracle.add(triple)
        assert len(graph) == len(oracle)
        assert all((t in graph) == (t in oracle) for t in adds + probes)
        assert list(graph) == sorted(oracle, key=set_sort_key)
        assert serialize(graph) == set_serialize(oracle, graph.bindings)

        # the same set, added once each and in another order, is an equal graph
        once = RdfGraph()
        for triple in sorted(oracle, key=set_sort_key, reverse=True):
            once.add(triple)
        assert once == graph
        for missing in oracle:
            fewer = RdfGraph()
            for triple in oracle - {missing}:
                fewer.add(triple)
            assert fewer != graph
