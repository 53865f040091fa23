import json
import math
import random
import uuid

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scotcloud.layout import (
    CannotFit,
    LayoutParams,
    SceneDescription,
    TooManyPrims,
    Vec3,
    expire,
    layout_cloud,
    layout_map,
    render_scene_flat,
    render_scene_json,
)
from scotcloud.layout import _PRIM_NS, _prim_id
from scotcloud.model import AnnotationStore, AttachError, TagCloud, TopicMap, VocabConfig

VOCAB = VocabConfig()
MOUSE = VOCAB.mint("mouse")
PARAMS = LayoutParams()

MOUSE_CLOUD = TagCloud(
    MOUSE,
    {"scroll": 1, "optical": 1, "informatics": 1, "components": 1, "peripheral": 1, "laser": 3},
)


def radius(prim) -> float:
    return math.hypot(prim.position.x, prim.position.y, prim.position.z)


def label_only(prim) -> str:
    return prim.label.rsplit(" (", 1)[0]


def pairwise_min_distance(prims) -> float:
    best = math.inf
    for i in range(len(prims)):
        for j in range(i + 1, len(prims)):
            best = min(best, prims[i].position.distance(prims[j].position))
    return best


@given(key=st.text(), index=st.integers(min_value=0), label=st.text())
@example(key="map:chaussure", index=3, label="\u00e9t\u00e9 \u65e5\u672c \U0001f600")
def test_prim_ids_are_the_uuid5_of_key_index_and_label(key, index, label):
    assert _prim_id(key, label, index) == uuid.uuid5(_PRIM_NS, f"{key}|{index}|{label}")


class TestVec3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(0.0, math.nan, 0.0)
        with pytest.raises(ValueError):
            Vec3(math.inf, 0.0, 0.0)

    def test_distance(self):
        assert Vec3(0, 3, 0).distance(Vec3(4, 0, 0)) == 5.0


class TestCloudLayout:
    def test_mouse_cloud_has_seven_prims_within_radius(self):
        scene = layout_cloud(MOUSE_CLOUD, PARAMS, now=0)
        assert len(scene.prims) == 7
        assert all(radius(p) <= 10.0 for p in scene.prims)
        laser = [p for p in scene.prims if p.label == "laser (3)"]
        assert len(laser) == 1

    def test_rank_order_starts_at_angle_zero(self):
        scene = layout_cloud(MOUSE_CLOUD, PARAMS, now=0)
        first_tag = scene.prims[1]
        assert first_tag.label == "laser (3)"  # highest count leads the ring
        assert first_tag.position.y == pytest.approx(0.0, abs=1e-9)
        assert first_tag.position.x > 0

    def test_empty_cloud_is_center_only(self):
        scene = layout_cloud(TagCloud(MOUSE), PARAMS, now=0)
        assert len(scene.prims) == 1
        assert scene.prims[0].position == Vec3(0.0, 0.0, 0.0)
        assert scene.prims[0].label == "mouse"

    def test_three_hundred_tags_is_too_many_prims(self):
        cloud = TagCloud(MOUSE, {f"t{i}": 1 for i in range(300)})
        with pytest.raises(TooManyPrims):
            layout_cloud(cloud, PARAMS, now=0)

    def test_254_tags_fit_the_budget(self):
        cloud = TagCloud(MOUSE, {f"t{i:03d}": 1 for i in range(254)})
        scene = layout_cloud(cloud, PARAMS, now=0)
        assert len(scene.prims) == 255
        assert all(radius(p) <= 10.0 for p in scene.prims)

    def test_unsatisfiable_spacing_raises_cannot_fit(self):
        tight = LayoutParams(max_radius=1.0, min_spacing=0.9)
        cloud = TagCloud(MOUSE, {f"t{i}": 1 for i in range(30)})
        with pytest.raises(CannotFit):
            layout_cloud(cloud, tight, now=0)

    def test_all_prims_keep_min_spacing(self):
        rng = random.Random(8)
        for _ in range(30):
            cloud = TagCloud(MOUSE, {f"t{i}": rng.randint(1, 40) for i in range(rng.randint(1, 120))})
            scene = layout_cloud(cloud, PARAMS, now=0)
            assert pairwise_min_distance(scene.prims) >= PARAMS.min_spacing

    def test_monotone_scale_in_count(self):
        cloud = TagCloud(MOUSE, {"a": 1, "b": 5, "c": 25})
        scene = layout_cloud(cloud, PARAMS, now=0)
        scales = {label_only(p): p.scale for p in scene.prims[1:]}
        assert scales["c"] > scales["b"] > scales["a"]

    def test_expiry_is_now_plus_ttl(self):
        scene = layout_cloud(MOUSE_CLOUD, PARAMS, now=1000)
        assert all(p.expires_at == 61000 for p in scene.prims)

    def test_deterministic_scene(self):
        a = layout_cloud(MOUSE_CLOUD, PARAMS, now=0)
        b = layout_cloud(MOUSE_CLOUD, PARAMS, now=0)
        assert a == b


def build_tree(edges: list[tuple[str, str]]) -> TopicMap:
    store = AnnotationStore()
    for parent, child in edges:
        store.attach(parent, child)
    roots = list(store.maps)
    assert len(roots) == 1
    return store.maps[roots[0]]


def random_tree(rng: random.Random, max_depth=3, max_fanout=8) -> TopicMap:
    store = AnnotationStore()
    store.attach("root", "n0")
    nodes = [("root", 0), ("n0", 1)]
    counter = 1
    for _ in range(rng.randint(0, 40)):
        parent, depth = rng.choice(nodes)
        if depth >= max_depth:
            continue
        existing = len(store.maps["root"].children_of(parent))
        if existing >= max_fanout:
            continue
        child = f"n{counter}"
        counter += 1
        try:
            store.attach(parent, child)
        except AttachError:
            continue
        nodes.append((child, depth + 1))
    return store.maps["root"]


def levels_of(tree: TopicMap) -> dict[str, int]:
    depth = {tree.root: 0}
    frontier = [tree.root]
    while frontier:
        node = frontier.pop()
        for child in tree.children_of(node):
            depth[child] = depth[node] + 1
            frontier.append(child)
    return depth


class TestMapLayout:
    def shoe_tree(self) -> TopicMap:
        return build_tree(
            [("shoe", "rubber"), ("rubber", "sole"), ("rubber", "heel"), ("rubber", "lace")]
        )

    def test_two_level_shoe_map_radii(self):
        tree = self.shoe_tree()
        scene = layout_map(tree, TagCloud(VOCAB.mint("shoe")), PARAMS, now=0)
        assert len(scene.prims) == 5
        by_label = {label_only(p): p for p in scene.prims}
        assert radius(by_label["shoe"]) == 0.0
        assert radius(by_label["rubber"]) == pytest.approx(5.0, abs=1e-9)
        for leaf in ("sole", "heel", "lace"):
            assert radius(by_label[leaf]) == pytest.approx(10.0, abs=1e-9)

    def test_single_node_tree_is_one_prim_at_origin(self):
        scene = layout_map(TopicMap("alone"), TagCloud(MOUSE), PARAMS, now=0)
        assert len(scene.prims) == 1
        assert scene.prims[0].position == Vec3(0.0, 0.0, 0.0)

    def test_labels_carry_frequencies_from_cloud(self):
        tree = self.shoe_tree()
        cloud = TagCloud(VOCAB.mint("shoe"), {"rubber": 4})
        scene = layout_map(tree, cloud, PARAMS, now=0)
        labels = {p.label for p in scene.prims}
        assert "rubber (4)" in labels
        assert "shoe (0)" in labels

    def test_siblings_ordered_by_rank(self):
        tree = self.shoe_tree()
        cloud = TagCloud(VOCAB.mint("shoe"), {"heel": 9, "sole": 2})
        scene = layout_map(tree, cloud, PARAMS, now=0)
        leaf_labels = [label_only(p) for p in scene.prims if radius(p) > 7.0]
        assert leaf_labels == ["heel", "sole", "lace"]

    def test_random_trees_keep_same_level_spacing(self):
        rng = random.Random(5150)
        checked = 0
        for _ in range(60):
            tree = random_tree(rng)
            try:
                scene = layout_map(tree, TagCloud(MOUSE), PARAMS, now=0)
            except (TooManyPrims, CannotFit):
                continue
            checked += 1
            assert all(radius(p) <= PARAMS.max_radius for p in scene.prims)
            depth = levels_of(tree)
            by_level: dict[int, list] = {}
            for prim in scene.prims:
                by_level.setdefault(depth[label_only(prim)], []).append(prim)
            for prims in by_level.values():  # brute-force pairwise check
                if len(prims) > 1:
                    assert pairwise_min_distance(prims) >= PARAMS.min_spacing
        assert checked > 30

    def test_over_255_nodes_raises(self):
        store = AnnotationStore()
        for i in range(260):
            store.attach("root", f"c{i}")
        with pytest.raises(TooManyPrims):
            layout_map(store.maps["root"], TagCloud(MOUSE), PARAMS, now=0)

    def test_crowded_siblings_raise_cannot_fit(self):
        store = AnnotationStore()
        for i in range(200):
            store.attach("root", f"c{i:03d}")
        # 200 children on one ring of radius 10: capacity is π/asin(0.025) ≈ 125
        with pytest.raises(CannotFit):
            layout_map(store.maps["root"], TagCloud(MOUSE), PARAMS, now=0)

    def test_too_many_layers_raise_cannot_fit(self):
        edges = [(f"n{i}", f"n{i + 1}") for i in range(25)]
        tree = build_tree(edges)
        with pytest.raises(CannotFit):
            layout_map(tree, TagCloud(MOUSE), LayoutParams(max_radius=10.0, min_spacing=0.5), now=0)

    def test_deterministic_scene(self):
        tree = self.shoe_tree()
        cloud = TagCloud(VOCAB.mint("shoe"), {"rubber": 2})
        assert layout_map(tree, cloud, PARAMS, now=3) == layout_map(tree, cloud, PARAMS, now=3)


class TestExpire:
    def scene(self, now=0) -> SceneDescription:
        return layout_cloud(MOUSE_CLOUD, PARAMS, now=now)

    def test_scene_is_gone_at_exactly_one_minute(self):
        scene = self.scene(now=0)
        assert expire(scene, 60000).prims == []

    def test_scene_is_intact_at_59999(self):
        scene = self.scene(now=0)
        assert expire(scene, 59999).prims == scene.prims

    def test_mixed_expiries_filter_exactly(self):
        rng = random.Random(2)
        early = self.scene(now=0).prims
        late = self.scene(now=5000).prims
        mixed = SceneDescription(Vec3(0, 0, 0), early + late)
        cutoff = 62000
        pruned = expire(mixed, cutoff)
        oracle = [p for p in early + late if p.expires_at > cutoff]  # filter oracle
        assert pruned.prims == oracle
        assert pruned.prims == late

    def test_expire_is_idempotent(self):
        scene = self.scene(now=0)
        once = expire(scene, 60000)
        assert expire(once, 60000) == once

    def test_expire_keeps_origin(self):
        scene = self.scene(now=0)
        assert expire(scene, 10 ** 9).origin == scene.origin


class TestSceneFormats:
    def test_flat_format_header_and_fields(self):
        scene = layout_cloud(TagCloud(MOUSE, {"laser": 3}), PARAMS, now=0)
        text = render_scene_flat(scene)
        lines = text.splitlines()
        assert lines[0] == "scene-v1 flat"
        assert lines[1].startswith("origin\t0\t0\t0")
        records = [l.split("\t") for l in lines[2:]]
        assert all(r[0] == "prim" and len(r) == 8 for r in records)
        assert records[1][7] == "laser (3)"

    def test_json_format_parses_back(self):
        scene = layout_cloud(TagCloud(MOUSE, {"laser": 3}), PARAMS, now=7)
        text = render_scene_json(scene)
        header, _, body = text.partition("\n")
        assert header == "scene-v1 json"
        payload = json.loads(body)
        assert payload["origin"] == [0.0, 0.0, 0.0]
        assert len(payload["prims"]) == 2
        assert payload["prims"][1]["label"] == "laser (3)"
        assert payload["prims"][1]["expires_at"] == 60007

    def test_formats_are_deterministic(self):
        scene = layout_cloud(MOUSE_CLOUD, PARAMS, now=0)
        assert render_scene_flat(scene) == render_scene_flat(scene)
        assert render_scene_json(scene) == render_scene_json(scene)


class TestParams:
    def test_spacing_must_be_inside_radius(self):
        with pytest.raises(ValueError):
            LayoutParams(max_radius=1.0, min_spacing=1.0)
        with pytest.raises(ValueError):
            LayoutParams(min_spacing=0.0)

    def test_scale_and_ttl_validation(self):
        with pytest.raises(ValueError):
            LayoutParams(base_scale=0.0)
        with pytest.raises(ValueError):
            LayoutParams(ttl_ms=-1)
