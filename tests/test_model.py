import copy
import itertools
import random
import re
import time
import uuid
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scotcloud.model import (
    AnnotationEvent,
    AnnotationStore,
    AttachError,
    CloudShapeError,
    TagCloud,
    TagError,
    TopicMap,
    UnknownConceptError,
    SKOS_BROADER,
    VocabConfig,
    _check_label,
    _replay_edges,
    cloud_to_rdf,
    label_from_iri,
    normalize_tag,
    rdf_to_cloud,
    store_from_graph,
    store_to_graph,
)
from scotcloud.rdfxml import RDF_TYPE, XSD_FLOAT, Iri, Literal, RdfGraph, Triple, ValidationError, parse, serialize

from conftest import TAGGER, random_forest, store_state

VOCAB = VocabConfig()
MOUSE = VOCAB.mint("mouse")


def event(resource: str, tag: str, t: int = 0) -> AnnotationEvent:
    return AnnotationEvent(t, TAGGER, VOCAB.mint(resource), tag)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Laser ", "laser"),
            ("optical", "optical"),
            ("A  B\tC", "a b c"),
            ("MiXeD", "mixed"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_tag(raw) == expected

    def test_whitespace_only_is_rejected(self):
        with pytest.raises(TagError):
            normalize_tag("   ")

    @given(st.text(max_size=30))
    def test_idempotent(self, raw):
        try:
            once = normalize_tag(raw)
        except TagError:
            return
        assert normalize_tag(once) == once

    def test_result_has_no_tabs_or_newlines(self):
        assert normalize_tag("a\tb\nc") == "a b c"


class TestRecord:
    def test_three_lasers_give_frequency_three(self):
        store = AnnotationStore()
        for _ in range(3):
            count = store.record(event("mouse", "laser"))
        assert count == 3
        assert store.cloud_of(MOUSE).frequencies == {"laser": 3}

    def test_first_event_on_fresh_resource_is_one(self):
        store = AnnotationStore()
        assert store.record(event("keyboard", "wireless")) == 1

    def test_invalid_tag_leaves_store_unchanged(self):
        store = AnnotationStore()
        with pytest.raises(TagError):
            store.record(event("mouse", "  "))
        assert store.events == []
        assert store.clouds == {}

    def test_random_events_match_brute_force_counter(self):
        rng = random.Random(99)
        store = AnnotationStore()
        log = []
        for _ in range(2000):
            resource = f"r{rng.randint(0, 40)}"
            tag = f"t{rng.randint(0, 60)}"
            store.record(event(resource, tag))
            log.append((str(VOCAB.mint(resource)), tag))
        oracle = Counter(log)  # independent replay of the event log
        for (resource, tag), expected in oracle.items():
            assert store.cloud_of(Iri(resource)).frequencies[tag] == expected
        assert sum(sum(c.frequencies.values()) for c in store.clouds.values()) == len(log)


class TestCloudOf:
    def test_unknown_resource_is_empty(self):
        store = AnnotationStore()
        cloud = store.cloud_of(VOCAB.mint("ghost"))
        assert cloud.frequencies == {}

    def test_a_plain_string_is_validated_and_an_iri_is_taken_as_given(self):
        store = AnnotationStore()
        store.record(event("mouse", "laser"))
        assert store.cloud_of(str(MOUSE)) is store.cloud_of(MOUSE)
        ghost = store.cloud_of("http://example.org/ghost")
        assert type(ghost.resource) is Iri and ghost.frequencies == {}
        with pytest.raises(ValidationError):
            store.cloud_of("http://example.org/a b")

    def test_mouse_history_has_six_tags(self):
        store = AnnotationStore()
        for tag in ["scroll", "optical", "informatics", "components", "peripheral"]:
            store.record(event("mouse", tag))
        for _ in range(3):
            store.record(event("mouse", "laser"))
        assert len(store.cloud_of(MOUSE).frequencies) == 6

    def test_counts_sum_to_event_count_for_resource(self):
        rng = random.Random(5)
        store = AnnotationStore()
        for _ in range(500):
            store.record(event(f"r{rng.randint(0, 5)}", f"t{rng.randint(0, 9)}"))
        for resource, cloud in store.clouds.items():
            filtered = [e for e in store.events if e.resource == resource]  # log-filter oracle
            assert sum(cloud.frequencies.values()) == len(filtered)


class TestRank:
    def test_example_order(self):
        cloud = TagCloud(MOUSE, {"laser": 3, "optical": 1, "scroll": 1})
        assert cloud.ranked() == [("laser", 3), ("optical", 1), ("scroll", 1)]

    def test_empty_cloud(self):
        assert TagCloud(MOUSE).ranked() == []

    def test_all_equal_counts_is_lexicographic(self):
        cloud = TagCloud(MOUSE, {"c": 2, "a": 2, "b": 2})
        assert [label for label, _ in cloud.ranked()] == ["a", "b", "c"]

    def test_rank_is_permutation_and_matches_sort_oracle(self):
        rng = random.Random(1)
        freqs = {f"t{i}": rng.randint(1, 9) for i in range(40)}
        cloud = TagCloud(MOUSE, freqs)
        ranked = cloud.ranked()
        assert sorted(label for label, _ in ranked) == sorted(freqs)
        oracle = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))
        assert ranked == oracle


def random_cloud(rng: random.Random) -> TagCloud:
    labels = {normalize_tag(f"tag {rng.randint(0, 999)}") for _ in range(rng.randint(0, 25))}
    return TagCloud(VOCAB.mint(f"res{rng.randint(0, 99)}"), {l: rng.randint(1, 50) for l in labels})


class TestRdfMapping:
    def test_mouse_cloud_serialization_contains_laser_three(self):
        cloud = TagCloud(MOUSE, {"laser": 3})
        text = serialize(cloud_to_rdf(cloud, VOCAB))
        assert 'rdf:about="http://yourdns.com/rdfs/laser.rdf"' in text
        assert ">3.0</scot:ownAFrequency>" in text

    def test_empty_cloud_is_just_the_typing_triple(self):
        graph = cloud_to_rdf(TagCloud(MOUSE), VOCAB)
        assert len(graph) == 1
        assert Triple(MOUSE, RDF_TYPE, VOCAB.tag_cloud_class) in graph

    def test_fig_document_reads_back_laser_three(self):
        cloud = TagCloud(MOUSE, {"laser": 3, "scroll": 1})
        text = serialize(cloud_to_rdf(cloud, VOCAB))
        back = rdf_to_cloud(parse(text), VOCAB)
        assert back.frequencies["laser"] == 3

    def test_roundtrip_random_clouds(self):
        rng = random.Random(77)
        for _ in range(100):
            cloud = random_cloud(rng)
            back = rdf_to_cloud(cloud_to_rdf(cloud, VOCAB), VOCAB)
            assert back.resource == cloud.resource
            assert back.frequencies == cloud.frequencies

    def test_two_cloud_subjects_is_an_error(self):
        graph = cloud_to_rdf(TagCloud(MOUSE, {"a": 1}), VOCAB)
        for triple in cloud_to_rdf(TagCloud(VOCAB.mint("other"), {"b": 2}), VOCAB):
            graph.add(triple)
        with pytest.raises(CloudShapeError):
            rdf_to_cloud(graph, VOCAB)

    def test_zero_cloud_subjects_is_an_error(self):
        from scotcloud.rdfxml import RdfGraph

        with pytest.raises(CloudShapeError):
            rdf_to_cloud(RdfGraph(), VOCAB)

    def test_non_integral_frequency_is_an_error(self):
        cloud = TagCloud(MOUSE, {"laser": 3})
        text = serialize(cloud_to_rdf(cloud, VOCAB)).replace(">3.0<", ">2.5<")
        with pytest.raises(CloudShapeError):
            rdf_to_cloud(parse(text), VOCAB)

    # float() reads each of these as an integer that the numeral does not write, or as one above 2^53.
    @pytest.mark.parametrize("lexical", ["9007199254740992.5", "3.00000000000000000001", "0.99999999999999999999",
                                         "1_0", "٣", "1e16", "9007199254740993"])
    def test_a_frequency_that_is_not_exactly_a_count_up_to_2_53_is_an_error(self, lexical):
        cloud = TagCloud(MOUSE, {"laser": 3})
        text = serialize(cloud_to_rdf(cloud, VOCAB)).replace(">3.0<", f">{lexical}<")
        with pytest.raises(CloudShapeError, match=f"^frequency of {re.escape(VOCAB.mint('laser'))} .*: {lexical}$"):
            rdf_to_cloud(parse(text), VOCAB)

    def test_the_largest_count_reads_back(self):
        cloud = TagCloud(MOUSE, {"laser": 2**53})
        assert rdf_to_cloud(parse(serialize(cloud_to_rdf(cloud, VOCAB))), VOCAB) == cloud

    def test_label_minting_roundtrips_spaces_and_slashes(self):
        for label in ["laser", "two words", "a/b", "perc%ent"]:
            assert label_from_iri(VOCAB.mint(label)) == label


def forest_edges(store: AnnotationStore) -> list[tuple[str, str]]:
    return [(child, parent) for tree in store.maps.values() for child, parent in tree.parent.items()]


def is_forest(edges: list[tuple[str, str]]) -> bool:
    # union-find oracle: a cycle exists iff an edge joins two already-joined nodes
    root: dict[str, str] = {}

    def find(x: str) -> str:
        root.setdefault(x, x)
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    children_seen = set()
    for child, parent in edges:
        if child in children_seen:
            return False  # two parents
        children_seen.add(child)
        a, b = find(child), find(parent)
        if a == b:
            return False  # cycle
        root[a] = b
    return True


class TestAttach:
    def test_attach_builds_two_level_tree(self):
        store = AnnotationStore()
        store.attach("shoe", "rubber")
        tree = store.tree_of("rubber")
        assert tree is not None
        assert tree.root == "shoe"
        assert tree.parent == {"rubber": "shoe"}

    def test_reverse_attach_is_a_cycle(self):
        store = AnnotationStore()
        store.attach("shoe", "rubber")
        with pytest.raises(AttachError) as info:
            store.attach("rubber", "shoe")
        assert info.value.reason == "cycle"

    def test_self_attach_is_a_cycle(self):
        store = AnnotationStore()
        with pytest.raises(AttachError):
            store.attach("loop", "loop")

    def test_child_with_parent_is_rejected(self):
        store = AnnotationStore()
        store.attach("shoe", "rubber")
        with pytest.raises(AttachError) as info:
            store.attach("boot", "rubber")
        assert info.value.reason == "parented"

    def test_merging_two_trees_is_rejected(self):
        store = AnnotationStore()
        store.attach("shoe", "rubber")
        store.attach("hat", "felt")
        with pytest.raises(AttachError) as info:
            store.attach("rubber", "hat")
        assert info.value.reason == "merge"

    def test_new_parent_above_existing_root_grows_tree(self):
        store = AnnotationStore()
        store.attach("shoe", "rubber")
        store.attach("clothing", "shoe")
        tree = store.tree_of("rubber")
        assert tree.root == "clothing"
        assert tree.parent == {"shoe": "clothing", "rubber": "shoe"}

    def test_random_attach_sequences_stay_a_forest(self):
        rng = random.Random(123)
        store = AnnotationStore()
        labels = [f"c{i}" for i in range(40)]
        for _ in range(400):
            parent, child = rng.choice(labels), rng.choice(labels)
            try:
                store.attach(parent, child)
            except AttachError:
                pass
            assert is_forest(forest_edges(store))

    def test_check_attach_refuses_as_attach_does_and_changes_nothing(self):
        rng = random.Random(321)
        store = AnnotationStore()
        labels = [f"c{i}" for i in range(30)]
        for _ in range(400):
            parent, child = rng.choice(labels), rng.choice(labels)
            before = ({r: dict(t.parent) for r, t in store.maps.items()}, store.version)
            try:
                store.check_attach(parent, child)
            except AttachError as exc:
                checked = exc.reason
            else:
                checked = None
            assert ({r: dict(t.parent) for r, t in store.maps.items()}, store.version) == before
            try:
                store.attach(parent, child)
            except AttachError as exc:
                assert exc.reason == checked
                assert store.version == before[1]
            else:
                assert checked is None
                assert store.version == before[1] + 1

    def test_version_counts_records_and_accepted_attaches(self):
        store = AnnotationStore()
        assert store.version == 0
        store.record(event("mouse", "laser"))
        store.record(event("mouse", "laser"))
        store.attach("shoe", "rubber")
        store.attach("clothing", "shoe")
        with pytest.raises(AttachError):
            store.attach("rubber", "clothing")
        assert store.version == 4


class _RootOfStore:
    """Reference: the topic-map half of the store when `attach` copied a tree to grow it upward."""

    def __init__(self) -> None:
        self.maps: dict[str, TopicMap] = {}
        self._root_of: dict[str, str] = {}
        self.version = 0

    def tree_of(self, label: str):
        root = self._root_of.get(label)
        return self.maps[root] if root is not None else None

    def check_attach(self, parent: str, child: str) -> None:
        if parent == child:
            raise AttachError("cycle", f"cannot attach {child!r} to itself")
        child_root = self._root_of.get(child)
        if child_root is None:
            return
        parent_root = self._root_of.get(parent)
        if child_root != child:
            raise AttachError("parented", f"{child!r} already has a parent")
        if parent_root == child:
            raise AttachError("cycle", f"{parent!r} is a descendant of {child!r}")
        if parent_root is not None:
            raise AttachError("merge", f"{parent!r} and {child!r} live in different trees")

    def attach(self, parent_raw: str, child_raw: str) -> None:
        parent = normalize_tag(parent_raw)
        child = normalize_tag(child_raw)
        self.check_attach(parent, child)
        parent_root = self._root_of.get(parent)
        if child in self.maps:
            old = self.maps.pop(child)
            tree = TopicMap(parent, dict(old.parent))
            tree.parent[child] = parent
            self.maps[parent] = tree
            for node in tree.nodes:
                self._root_of[node] = parent
        elif parent_root is not None:
            self.maps[parent_root].parent[child] = parent
            self._root_of[child] = parent_root
        else:
            self.maps[parent] = TopicMap(parent, {child: parent})
            self._root_of[parent] = parent
            self._root_of[child] = parent
        self.version += 1


def _attach_outcome(store, method: str, parent: str, child: str):
    try:
        getattr(store, method)(parent, child)
    except (AttachError, TagError) as exc:
        return type(exc), getattr(exc, "reason", None), str(exc)
    return None


def _topic_state(store, labels: list[str]):
    roots = [None if store.tree_of(label) is None else store.tree_of(label).root for label in labels]
    return [(root, list(t.parent.items())) for root, t in store.maps.items()], roots, store.version


class TestReRootInPlace:
    LABELS = [f"n{i}" for i in range(30)]

    def random_operation(self, rng: random.Random, store: AnnotationStore) -> tuple[str, str]:
        placed = [label for label in self.LABELS if store.tree_of(label) is not None]
        free = [label for label in self.LABELS if store.tree_of(label) is None] or self.LABELS
        roll = rng.random()
        if roll < 0.3 and placed:  # down or sideways: a new child below any node
            return rng.choice(placed), rng.choice(free)
        if roll < 0.5 and store.maps:  # upward: a new parent above a root
            return rng.choice(free), rng.choice(list(store.maps))
        if roll < 0.55:
            label = rng.choice(self.LABELS)
            return label, label
        if roll < 0.58:
            return "  ", rng.choice(self.LABELS)
        parent, child = rng.choice(self.LABELS), rng.choice(self.LABELS)
        return (f" {parent.upper()}", child) if roll < 0.62 else (parent, child)

    def test_matches_the_copying_attach_on_random_sequences(self):
        rng = random.Random(2024)
        seen = Counter()
        for _ in range(1000):
            store, reference = AnnotationStore(), _RootOfStore()
            for _ in range(rng.randint(1, 50)):
                parent, child = self.random_operation(rng, store)
                upward = child in store.maps
                # check_attach takes normalized labels only
                methods = ["check_attach", "attach"] if parent in self.LABELS else ["attach"]
                for method in methods:
                    outcome = _attach_outcome(store, method, parent, child)
                    assert outcome == _attach_outcome(reference, method, parent, child)
                    assert _topic_state(store, self.LABELS) == _topic_state(reference, self.LABELS)
                if outcome is None:
                    seen["upward" if upward else "accepted"] += 1
                else:
                    seen[outcome[1] or "badtag"] += 1
                for label in self.LABELS:
                    tree = store.tree_of(label)
                    assert tree is None or store.maps[tree.root] is tree
        assert min(seen[key] for key in ("upward", "accepted", "cycle", "parented", "merge", "badtag")) > 100


def _replay_edges_by_rescan(store: AnnotationStore, edges: list[tuple[str, str]]) -> None:
    """Reference: the original wave order, found by rescanning every pending edge per wave."""
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


def _replay_outcome(replay, edges):
    store = AnnotationStore()
    try:
        replay(store, edges)
        error = None
    except CloudShapeError as exc:
        error = str(exc)
    return error, [(root, list(tree.parent.items())) for root, tree in store.maps.items()]


class TestReplayEdges:
    def random_edges(self, rng: random.Random) -> list[tuple[str, str]]:
        labels = [f"n{i}" for i in range(rng.randint(1, 60))]
        rng.shuffle(labels)
        edges = []
        for k in range(1, len(labels)):
            if rng.random() < 0.85:  # else labels[k] roots a tree of its own
                edges.append((labels[rng.randrange(k)], labels[k]))
        flaw = rng.randrange(5)
        if edges and flaw == 1:
            edges.append(rng.choice(edges))  # duplicate edge
        elif edges and flaw == 2:
            edges.append((rng.choice(labels), rng.choice(edges)[1]))  # second parent
        elif edges and flaw == 3:
            parent, child = rng.choice(edges)
            edges.append((child, parent))  # two-edge cycle
        elif flaw == 4:
            node = rng.choice(labels)
            edges.append((node, node))
        rng.shuffle(edges)
        return edges

    def test_wave_order_matches_rescan_reference(self):
        rng = random.Random(2024)
        errors = 0
        for _ in range(400):
            edges = self.random_edges(rng)
            expected = _replay_outcome(_replay_edges_by_rescan, edges)
            assert _replay_outcome(_replay_edges, edges) == expected, edges
            errors += expected[0] is not None
        assert 0 < errors < 400  # both clean and flawed inputs were drawn


def bfs_to_depth(parent: dict[str, str], root: str, depth: int) -> set[str]:
    children: dict[str, list[str]] = {}
    for child, p in parent.items():
        children.setdefault(p, []).append(child)
    seen = {root}
    level = [root]
    for _ in range(depth):
        level = [c for node in level for c in children.get(node, [])]
        seen.update(level)
    return seen


class TestSubtree:
    def build(self) -> AnnotationStore:
        store = AnnotationStore()
        store.attach("shoe", "rubber")
        for child in ["sole", "heel", "toe"]:
            store.attach("rubber", child)
        store.attach("sole", "grip")
        return store

    def test_depth_two_from_shoe(self):
        store = self.build()
        tree = store.subtree("shoe", 2)
        assert tree.nodes == {"shoe", "rubber", "sole", "heel", "toe"}

    def test_depth_one_is_root_plus_children(self):
        store = self.build()
        tree = store.subtree("rubber", 1)
        assert tree.nodes == {"rubber", "sole", "heel", "toe"}

    def test_depth_one_on_leaf_is_single_node(self):
        store = self.build()
        tree = store.subtree("grip", 1)
        assert tree.nodes == {"grip"}

    def test_unknown_root_raises(self):
        store = self.build()
        with pytest.raises(UnknownConceptError):
            store.subtree("nowhere", 1)

    def test_random_subtrees_match_bfs_oracle(self):
        rng = random.Random(31)
        store = AnnotationStore()
        for i in range(1, 60):
            try:
                store.attach(f"n{rng.randint(0, i - 1) if i > 1 else 0}", f"n{i}")
            except AttachError:
                pass
        tree = store.tree_of("n0")
        assert tree is not None
        for _ in range(30):
            node = rng.choice(sorted(tree.nodes))
            depth = rng.randint(1, 4)
            got = store.subtree(node, depth)
            assert got.nodes == bfs_to_depth(tree.parent, node, depth)


def _subtree_by_rescan(store: AnnotationStore, root: str, depth: int) -> TopicMap:
    """The former `AnnotationStore.subtree`: one `children_of` scan per node."""
    tree = store.tree_of(root)
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


def _depth_by_walking_up(tree: TopicMap) -> int:
    """The former `TopicMap.depth`: a walk to the root from every node."""
    best = 0
    for node in tree.parent:
        steps = 0
        cursor = node
        while cursor != tree.root:
            cursor = tree.parent[cursor]
            steps += 1
        best = max(best, steps)
    return best


class TestChildrenIndex:
    def test_depth_matches_former_implementation_on_random_forests(self):
        rng = random.Random(8)
        for _ in range(40):
            store = random_forest(rng, rng.randint(2, 120))
            for tree in store.maps.values():
                assert tree.depth() == _depth_by_walking_up(tree)
                node = rng.choice(sorted(tree.nodes))
                part = store.subtree(node, rng.randint(1, 4))
                assert part.depth() == _depth_by_walking_up(part)
        chain = TopicMap("n0", {f"n{i}": f"n{i - 1}" for i in range(1, 60)})
        assert chain.depth() == _depth_by_walking_up(chain) == 59
        assert TopicMap("alone").depth() == 0

    def test_children_matches_children_of_on_random_forests(self):
        rng = random.Random(5)
        for _ in range(40):
            store = random_forest(rng, rng.randint(2, 80))
            for tree in store.maps.values():
                expected = {n: tree.children_of(n) for n in tree.nodes if tree.children_of(n)}
                assert tree.children() == expected

    def test_subtree_matches_former_implementation_on_random_forests(self):
        rng = random.Random(6)
        for _ in range(40):
            store = random_forest(rng, rng.randint(2, 80))
            for tree in store.maps.values():
                for node in rng.sample(sorted(tree.nodes), min(5, len(tree.nodes))):
                    depth = rng.randint(1, 5)
                    got = store.subtree(node, depth)
                    want = _subtree_by_rescan(store, node, depth)
                    assert got == want
                    assert list(got.parent.items()) == list(want.parent.items())

    def test_height_after_every_attach_matches_a_fresh_depth(self):
        rng = random.Random(10)
        for _ in range(20):
            size = rng.randint(2, 40)
            edges = [(f"n{rng.randrange(i)}", f"n{i}") for i in range(1, size)]
            edges += [(f"n{rng.randrange(size)}", f"n{rng.randrange(size)}") for _ in range(size // 10)]
            rng.shuffle(edges)
            store = AnnotationStore()
            for parent, child in edges:
                try:
                    store.attach(parent, child)
                except AttachError:
                    pass
                for tree in store.maps.values():
                    for label in tree.nodes:  # heights are kept: a stale one would show here
                        assert store.height(label) == max(1, TopicMap(label, tree.parent).depth())
            with pytest.raises(UnknownConceptError):
                store.height(f"n{size}")

    def test_a_height_with_a_limit_matches_a_fresh_depth_whatever_was_asked_before(self):
        rng = random.Random(11)
        for _ in range(20):
            store = random_forest(rng, rng.randint(2, 40))
            for _ in range(3):  # a label's height is kept until an attach, then worked out again
                for tree in list(store.maps.values()):
                    for label in sorted(tree.nodes):
                        full = max(1, TopicMap(label, tree.parent).depth())
                        for limit in rng.sample([None, 1, 2, 3, 5, 8], 6):
                            want = full if limit is None else min(full, limit)
                            assert store.height(label, limit) == want, (label, limit)
                root = next(iter(store.maps.values())).root
                store.attach(f"above{store.version}", root)  # a new root: every height in its tree moves

    def test_the_index_follows_every_attach_with_reads_between(self):
        rng = random.Random(12)
        for _ in range(20):
            size = rng.randint(2, 60)
            edges = [(f"n{rng.randrange(i)}", f"n{i}") for i in range(1, size)]
            edges += [(f"n{rng.randrange(size)}", f"n{rng.randrange(size)}") for _ in range(size // 5)]
            rng.shuffle(edges)
            store = AnnotationStore()
            for parent, child in edges:
                try:
                    store.attach(parent, child)
                except AttachError:
                    continue
                tree = store.tree_of(child)
                if rng.random() < 0.5:  # leave some changes unread until a later attach
                    assert tree.children() == TopicMap(tree.root, dict(tree.parent)).children()
                    assert tree.children_of(parent) == sorted(c for c, p in tree.parent.items() if p == parent)

    def test_a_star_of_children_added_out_of_order_reads_sorted(self):
        store = AnnotationStore()
        labels = [f"k{i}" for i in random.Random(13).sample(range(500), 500)]
        for i, label in enumerate(labels):
            store.attach("hub", label)
            if i % 100 == 0:
                assert store.maps["hub"].children_of("hub") == sorted(labels[: i + 1])
        assert store.subtree("hub", 1).children() == {"hub": sorted(labels)}

    def test_equality_repr_and_copies_leave_the_index_out(self):
        store = AnnotationStore()
        for parent, child in [("shoe", "rubber"), ("shoe", "lace"), ("rubber", "sole")]:
            store.attach(parent, child)
        tree = store.maps["shoe"]
        assert tree.children_of("shoe") == ["lace", "rubber"]  # the index is built and sorted
        fresh = TopicMap("shoe", {"rubber": "shoe", "lace": "shoe", "sole": "rubber"})
        assert tree == fresh
        assert repr(tree) == repr(fresh) == (
            "TopicMap(root='shoe', parent={'rubber': 'shoe', 'lace': 'shoe', 'sole': 'rubber'})"
        )
        for clone in (copy.copy(tree), copy.deepcopy(tree)):
            assert clone == tree
            assert clone.children() == {"shoe": ["lace", "rubber"], "rubber": ["sole"]}
        clone = copy.deepcopy(tree)
        clone.add_edge("heel", "rubber")
        assert clone.children_of("rubber") == ["heel", "sole"]
        assert tree.children_of("rubber") == ["sole"] and tree == fresh

    def test_depth_below_a_label_reads_only_its_subtree(self):
        tree = TopicMap("a", {"b": "a", "c": "b", "d": "c", "e": "a"})
        assert [tree.depth(label) for label in "abcde"] == [3, 2, 1, 0, 0]
        assert tree.depth() == tree.depth("a")
        assert TopicMap("alone").depth("alone") == 0
        assert [tree.depth("a", limit) for limit in (0, 1, 2, 3, 4)] == [0, 1, 2, 3, 3]

    def test_subtree_scans_the_edges_once(self, monkeypatch):
        store = random_forest(random.Random(7), 200)
        monkeypatch.setattr(TopicMap, "children_of", lambda self, label: pytest.fail("per-node scan"))
        for root in store.maps:
            store.subtree(root, 10)


class TestStoreGraph:
    def test_store_roundtrips_through_graph(self):
        rng = random.Random(55)
        store = AnnotationStore()
        for _ in range(300):
            store.record(event(f"r{rng.randint(0, 8)}", f"t{rng.randint(0, 15)}"))
        store.attach("shoe", "rubber")
        store.attach("rubber", "sole")
        store.attach("hat", "felt")

        graph = store_to_graph(store, VOCAB)
        back = store_from_graph(parse(serialize(graph)), VOCAB)

        assert {str(r): c.frequencies for r, c in back.clouds.items()} == {
            str(r): c.frequencies for r, c in store.clouds.items()
        }
        assert {root: t.parent for root, t in back.maps.items()} == {
            root: t.parent for root, t in store.maps.items()
        }

    def test_rebuilt_store_keeps_log_fold_invariant(self):
        store = AnnotationStore()
        for _ in range(3):
            store.record(event("mouse", "laser"))
        back = store_from_graph(store_to_graph(store, VOCAB), VOCAB)
        assert len(back.events) == 3
        assert back.cloud_of(MOUSE).frequencies == {"laser": 3}

    def test_every_replayed_event_is_by_the_import_tagger(self):
        store = AnnotationStore()
        store.record(event("mouse", "laser"))
        store.record(event("shoe", "rubber"))
        back = store_from_graph(store_to_graph(store, VOCAB), VOCAB)
        assert {e.tagger for e in back.events} == {uuid.uuid5(uuid.NAMESPACE_URL, "scotcloud:import")}
        assert {e.timestamp_ms for e in back.events} == {0}


# -- reference readers: the former mapping, one whole-graph scan per lookup ------


def ref_matching(graph, subject=None, predicate=None, object=None):
    """The former `RdfGraph.matching`: every agreeing triple, in serialization order."""
    return [
        t
        for t in graph
        if (subject is None or t.subject == subject)
        and (predicate is None or t.predicate == predicate)
        and (object is None or t.object == object)
    ]


def ref_frequency_of(graph, tag_iri):
    hits = ref_matching(graph, subject=tag_iri, predicate=VOCAB.frequency_property)
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


def ref_cloud_from_subject(graph, subject):
    cloud = TagCloud(subject)
    for triple in ref_matching(graph, subject=subject, predicate=VOCAB.has_tag):
        tag_iri = triple.object
        if not isinstance(tag_iri, Iri):
            raise CloudShapeError(f"tag reference of {subject} is a literal")
        try:
            label = _check_label(label_from_iri(tag_iri))
        except TagError as exc:
            raise CloudShapeError(str(exc)) from None
        cloud.frequencies[label] = ref_frequency_of(graph, tag_iri)
    return cloud


def ref_rdf_to_cloud(graph):
    subjects = [t.subject for t in ref_matching(graph, predicate=RDF_TYPE, object=VOCAB.tag_cloud_class)]
    if len(subjects) != 1:
        raise CloudShapeError(f"expected exactly one tag cloud subject, found {len(subjects)}")
    return ref_cloud_from_subject(graph, subjects[0])


def ref_store_from_graph(graph):
    """The former mapping, plus the coverage rule: it collects the triples the store represents as a set."""
    tagger = uuid.uuid5(uuid.NAMESPACE_URL, "scotcloud:import")
    store = AnnotationStore()
    used = set()
    for triple in ref_matching(graph, predicate=RDF_TYPE, object=VOCAB.tag_cloud_class):
        cloud = ref_cloud_from_subject(graph, triple.subject)
        for label, count in sorted(cloud.frequencies.items()):
            for _ in range(count):
                store.record(AnnotationEvent(0, tagger, triple.subject, label))
        used.add(triple)
        kept = {}
        for ref in ref_matching(graph, subject=triple.subject, predicate=VOCAB.has_tag):
            kept[label_from_iri(ref.object)] = ref  # the last reference of a label wins, as its frequency does
            used.add(ref_matching(graph, subject=ref.object, predicate=VOCAB.frequency_property)[0])
            used.update(ref_matching(graph, subject=ref.object, predicate=RDF_TYPE, object=VOCAB.tag_class))
        used.update(kept.values())
    edges = []
    for triple in ref_matching(graph, predicate=SKOS_BROADER):
        if not isinstance(triple.object, Iri):
            raise CloudShapeError("broader edge points at a literal")
        try:
            child = _check_label(label_from_iri(triple.subject))
            parent = _check_label(label_from_iri(triple.object))
        except TagError as exc:
            raise CloudShapeError(str(exc)) from None
        edges.append((parent, child))
    _replay_edges(store, edges)
    used.update(ref_matching(graph, predicate=SKOS_BROADER))
    if len(used) < len(graph):
        raise CloudShapeError(
            f"the document holds {len(graph)} triples, but only {len(used)} of them describe SCOT clouds or topic maps"
        )
    return store


def read_outcome(read, graph):
    """What a reader makes of a graph, with every order it fixes."""
    try:
        result = read(graph)
    except CloudShapeError as exc:
        return "error", str(exc)
    if isinstance(result, TagCloud):
        return "cloud", result.resource, list(result.frequencies.items())
    events = [(e.timestamp_ms, e.tagger, e.resource, e.tag) for e in result.events]
    return "store", events, [(root, list(tree.parent.items())) for root, tree in result.maps.items()]


LABELS = st.text(alphabet="ab /%\u00fc", min_size=1, max_size=5).map(lambda s: " ".join(s.split())).filter(bool)
CLOUDS = st.builds(
    lambda name, freqs: TagCloud(VOCAB.mint(name), freqs),
    st.sampled_from(["mouse", "shoe", "res 1"]),
    st.dictionaries(LABELS, st.integers(1, 20), max_size=8),
)
NODES = st.sampled_from([f"n{i}" for i in range(6)])


@st.composite
def stores(draw) -> AnnotationStore:
    store = AnnotationStore()
    for cloud in draw(st.lists(CLOUDS, max_size=4)):
        for label, count in cloud.frequencies.items():
            for _ in range(min(count, 3)):
                store.record(AnnotationEvent(0, TAGGER, cloud.resource, label))
    for parent, child in draw(st.lists(st.tuples(NODES, NODES), max_size=8)):
        try:
            store.attach(parent, child)
        except AttachError:
            pass
    return store


def _pick(items, k):
    return items[k % len(items)]


def _cloud_subjects(triples):
    return [t.subject for t in triples if t.predicate == RDF_TYPE and t.object == VOCAB.tag_cloud_class] or [MOUSE]


def _tag_subjects(triples):
    return [t.subject for t in triples if t.predicate == FREQ] or [VOCAB.mint("laser")]


def _without(triples, predicate, k):
    hits = [t for t in triples if t.predicate == predicate]
    return [t for t in triples if not hits or t != _pick(hits, k)]


def _bad_frequency(triples, k):
    hits = [t for t in triples if t.predicate == FREQ]
    if not hits:
        return triples
    old = _pick(hits, k)
    return [t for t in triples if t != old] + [Triple(old.subject, FREQ, _pick(BAD_FREQUENCIES, k))]


FREQ = VOCAB.frequency_property
FLOAT = Iri(XSD_FLOAT)
BAD_FREQUENCIES = [
    Literal("7.0", FLOAT),
    Literal("0.0", FLOAT),
    Literal("-2.0", FLOAT),
    Literal("2.5", FLOAT),
    Literal("abc"),
    Literal("inf"),
    Iri("http://example.org/seven"),
]
EX_NOTE = Iri("http://example.org/ns#note")
FOAF_DOCUMENT = Iri("http://xmlns.com/foaf/0.1/Document")
# Each flaw maps (triples, k) to new triples; k picks the target and the variant.
FLAWS = {
    "literal reference": lambda ts, k: ts + [Triple(_pick(_cloud_subjects(ts), k), VOCAB.has_tag, _pick([Literal("x"), Literal("1.0")], k))],
    "dangling reference": lambda ts, k: ts + [Triple(_pick(_cloud_subjects(ts), k), VOCAB.has_tag, VOCAB.mint(f"ghost{k % 2}"))],
    "unnormalized reference": lambda ts, k: ts + [Triple(_pick(_cloud_subjects(ts), k), VOCAB.has_tag, Iri("http://yourdns.com/rdfs/Upper.rdf"))],
    "missing frequency": lambda ts, k: _without(ts, FREQ, k),
    "bad frequency": _bad_frequency,
    "second frequency": lambda ts, k: ts + [Triple(_pick(_tag_subjects(ts), k), FREQ, _pick(BAD_FREQUENCIES, k))],
    "second cloud": lambda ts, k: ts + [Triple(VOCAB.mint(f"other{k % 3}"), RDF_TYPE, VOCAB.tag_cloud_class)],
    "no cloud": lambda ts, k: [t for t in ts if t.object != VOCAB.tag_cloud_class],
    "literal broader": lambda ts, k: ts + [Triple(VOCAB.mint(f"n{k % 6}"), SKOS_BROADER, Literal("n0"))],
    "unnormalized broader": lambda ts, k: ts + [Triple(Iri("http://yourdns.com/rdfs/A%20%20B.rdf"), SKOS_BROADER, VOCAB.mint("n0"))],
    "extra broader": lambda ts, k: ts + [Triple(VOCAB.mint(f"n{k % 6}"), SKOS_BROADER, VOCAB.mint(f"n{k // 6 % 6}"))],
    "dropped broader": lambda ts, k: _without(ts, SKOS_BROADER, k),
    "extra type": lambda ts, k: ts + [Triple(_pick(_cloud_subjects(ts), k), RDF_TYPE, _pick([FOAF_DOCUMENT, VOCAB.tag_class], k))],
    "extra property": lambda ts, k: ts + [Triple(_pick(_tag_subjects(ts), k), EX_NOTE, _pick([Literal("x"), VOCAB.mint("laser")], k))],
}


def flawed(graph: RdfGraph, flaws) -> RdfGraph:
    triples = list(graph)
    for name, k in flaws:
        triples = FLAWS[name](triples, k)
    out = RdfGraph()
    for triple in triples:
        out.add(triple)
    return out


FLAW_LISTS = st.lists(st.tuples(st.sampled_from(sorted(FLAWS)), st.integers(0, 10**6)), max_size=3)


class TestOnePassReaders:
    """The one-pass readers against the former scan-per-lookup readers."""

    @settings(max_examples=150, deadline=None)
    @given(CLOUDS, FLAW_LISTS)
    def test_rdf_to_cloud_matches_reference(self, cloud, flaws):
        graph = flawed(cloud_to_rdf(cloud, VOCAB), flaws)
        expected = read_outcome(ref_rdf_to_cloud, graph)
        assert read_outcome(lambda g: rdf_to_cloud(g, VOCAB), graph) == expected
        if not flaws:
            assert expected[:2] == ("cloud", cloud.resource)
            assert dict(expected[2]) == cloud.frequencies

    @settings(max_examples=150, deadline=None)
    @given(stores(), FLAW_LISTS)
    def test_store_from_graph_matches_reference(self, store, flaws):
        graph = flawed(store_to_graph(store, VOCAB), flaws)
        expected = read_outcome(ref_store_from_graph, graph)
        assert read_outcome(lambda g: store_from_graph(g, VOCAB), graph) == expected
        if not flaws:
            assert store_state(store_from_graph(graph, VOCAB)) == store_state(store)

    def test_every_pair_of_flaws_is_reported_as_the_reference_reports_it(self):
        cloud = TagCloud(MOUSE, {"laser": 3, "two words": 1})
        store = AnnotationStore()
        for label in ("laser", "laser", "optical"):
            store.record(AnnotationEvent(0, TAGGER, MOUSE, label))
        store.attach("n0", "n1")
        errors = set()
        for first, second in itertools.product(FLAWS, repeat=2):
            for k in range(4):
                for source in (cloud_to_rdf(cloud, VOCAB), store_to_graph(store, VOCAB)):
                    graph = flawed(source, [(first, k), (second, 3 * k + 1)])
                    for read, ref in ((rdf_to_cloud, ref_rdf_to_cloud), (store_from_graph, ref_store_from_graph)):
                        expected = read_outcome(ref, graph)
                        assert read_outcome(lambda g: read(g, VOCAB), graph) == expected, (first, second, k)
                        if expected[0] == "error":
                            errors.add(re.sub(r"http\S+", "<iri>", expected[1]))
        assert len(errors) >= 12, errors


class TestImportTime:
    def test_20k_event_export_rebuilds_in_under_2_s(self):
        rng = random.Random(20_000)
        store = AnnotationStore()
        for _ in range(20_000):
            label = f"tag{int(rng.paretovariate(0.4)) % 1000}"
            store.record(AnnotationEvent(0, TAGGER, VOCAB.mint(f"res{rng.randrange(100)}"), label))
        for k in range(1, 2000):
            store.attach(f"c{(k - 1) // 4}", f"c{k}")
        graph = parse(serialize(store_to_graph(store, VOCAB)))
        started = time.perf_counter()
        back = store_from_graph(graph, VOCAB)
        elapsed = time.perf_counter() - started
        assert store_state(back) == store_state(store)
        assert elapsed < 2.0
