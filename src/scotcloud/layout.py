"""3D scene layout for tag clouds and topic maps.

Scenes are flat prim lists for an external renderer: position relative to
an origin prim, a scale that grows logarithmically with tag frequency,
a display label, and an absolute expiry instant (scenes self-destruct
after a configurable lifetime, one minute by default).

The platform being modeled refuses to place objects more than ~10 m from
the script that creates them and caps complex objects at 255 prims, so
layouts either satisfy both limits exactly or raise: TooManyPrims when
the prim budget is blown, CannotFit when labels cannot keep the minimum
spacing inside the allowed radius.
"""

from __future__ import annotations

import hashlib
import json
import math
import uuid
from typing import Optional

from .model import TagCloud, TopicMap, display_name, rank_order
from .record import FrozenRecord, Record, set_field

MAX_PRIMS = 255

_PRIM_NS = uuid.uuid5(uuid.NAMESPACE_URL, "scotcloud:prim")
# `uuid.uuid5(_PRIM_NS, name)` hashes the namespace, then the name: each id copies a hash that has read the first.
_PRIM_SHA1 = hashlib.sha1(_PRIM_NS.bytes, usedforsecurity=False)
# The variant (10) and version (0101) bits of a version-5 UUID, and the mask that clears the bits they take.
_V5_BITS = 0x8000 << 48 | 0x5000 << 64
_V5_MASK = ~(0xC000 << 48 | 0xF000 << 64)

# Plan with a hair of slack so IEEE rounding can never push a spacing
# check that was satisfied by construction below the exact threshold.
_SPACING_MARGIN = 1e-9


class LayoutError(Exception):
    pass


class TooManyPrims(LayoutError):
    pass


class CannotFit(LayoutError):
    pass


class Vec3(FrozenRecord):
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        for component in (x, y, z):
            if not math.isfinite(component):
                raise ValueError("vector components must be finite")
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "z", z)

    def distance(self, other: "Vec3") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


ORIGIN = Vec3(0.0, 0.0, 0.0)


class PrimSpec(FrozenRecord):
    __slots__ = ("id", "position", "scale", "label", "expires_at")

    def __init__(
        self, id: uuid.UUID, position: Vec3, scale: float, label: str, expires_at: int  # noqa: A002 (a field)
    ) -> None:
        if scale <= 0:
            raise ValueError("prim scale must be positive")
        set_field(self, "id", id)
        set_field(self, "position", position)  # relative to the scene origin
        set_field(self, "scale", scale)
        set_field(self, "label", label)
        set_field(self, "expires_at", expires_at)


class SceneDescription(Record):
    __slots__ = ("origin", "prims")

    def __init__(self, origin: Vec3, prims: Optional[list[PrimSpec]] = None) -> None:
        self.origin = origin
        self.prims = [] if prims is None else prims


class LayoutParams(FrozenRecord):
    __slots__ = ("max_radius", "min_spacing", "base_scale", "ttl_ms")

    def __init__(
        self, max_radius: float = 10.0, min_spacing: float = 0.5, base_scale: float = 0.3, ttl_ms: int = 60000
    ) -> None:
        if not (0 < min_spacing < max_radius):
            raise ValueError("need 0 < min_spacing < max_radius")
        if base_scale <= 0 or ttl_ms < 0:
            raise ValueError("base_scale must be positive and ttl_ms non-negative")
        set_field(self, "max_radius", max_radius)
        set_field(self, "min_spacing", min_spacing)
        set_field(self, "base_scale", base_scale)
        set_field(self, "ttl_ms", ttl_ms)


def _prim_id(scene_key: str, label: str, index: int) -> uuid.UUID:
    """`uuid.uuid5(_PRIM_NS, f"{scene_key}|{index}|{label}")`, without hashing the namespace again."""
    sha1 = _PRIM_SHA1.copy()
    sha1.update(f"{scene_key}|{index}|{label}".encode("utf-8"))
    return uuid.UUID(int=int.from_bytes(sha1.digest()[:16], "big") & _V5_MASK | _V5_BITS)


def _tag_scale(params: LayoutParams, count: int) -> float:
    return params.base_scale * (1.0 + math.log2(1.0 + count))


def _clamped(radius: float, angle: float, max_radius: float) -> Vec3:
    x = radius * math.cos(angle)
    y = radius * math.sin(angle)
    h = math.hypot(x, y)
    while h > max_radius:
        shrink = max_radius / h * (1.0 - 1e-15)
        x *= shrink
        y *= shrink
        h = math.hypot(x, y)
    return Vec3(x, y, 0.0)


def _ring_capacity(radius: float, spacing: float) -> int:
    """How many tags `spacing` apart fit on a ring; `_plan_rings` passes no radius under `spacing`."""
    return int(math.pi / math.asin(spacing / (2.0 * radius)))


def layout_cloud(cloud: TagCloud, params: LayoutParams, now: int) -> SceneDescription:
    """Center prim for the resource, tags on concentric rings in rank order.

    The first ranked tag sits at angle 0 and placement proceeds
    counterclockwise; a ring is added (evenly dividing the radius) only
    when the previous rings cannot hold every tag at min spacing.
    """
    ranked = cloud.ranked()
    if 1 + len(ranked) > MAX_PRIMS:
        raise TooManyPrims(f"{1 + len(ranked)} prims exceed the {MAX_PRIMS} budget")

    expiry = now + params.ttl_ms
    key = str(cloud.resource)
    scene = SceneDescription(ORIGIN)
    scene.prims.append(
        PrimSpec(_prim_id(key, "center", 0), ORIGIN, params.base_scale, display_name(cloud.resource), expiry)
    )
    if not ranked:
        return scene

    spacing = params.min_spacing * (1.0 + _SPACING_MARGIN)
    ring_plan = _plan_rings(len(ranked), params.max_radius, spacing)
    if ring_plan is None:
        raise CannotFit(f"{len(ranked)} tags cannot keep {params.min_spacing} m spacing within {params.max_radius} m")

    cursor = 0
    for index, (radius, count) in enumerate(ring_plan, 1):
        for slot in range(count):
            label, frequency = ranked[cursor]
            angle = 2.0 * math.pi * slot / count
            scene.prims.append(
                PrimSpec(
                    _prim_id(key, label, cursor + 1),
                    _clamped(radius, angle, params.max_radius),
                    _tag_scale(params, frequency),
                    f"{label} ({frequency})",
                    expiry,
                )
            )
            cursor += 1
    return scene


def _plan_rings(n: int, max_radius: float, spacing: float) -> Optional[list[tuple[float, int]]]:
    """Radii and occupancy per ring, inner rings first; None when nothing fits."""
    max_rings = int(max_radius / spacing)
    for rings in range(1, max_rings + 1):
        radii = [max_radius * k / rings for k in range(1, rings + 1)]
        capacities = [_ring_capacity(r, spacing) for r in radii]
        if sum(capacities) < n:
            continue
        plan: list[tuple[float, int]] = []
        remaining = n
        for k, (radius, capacity) in enumerate(zip(radii, capacities)):
            share = -(-remaining // (rings - k))  # balance across remaining rings
            take = min(capacity, share, remaining)
            # Greedily top up from capacity if later rings cannot absorb the rest.
            tail_capacity = sum(capacities[k + 1 :])
            take = max(take, remaining - tail_capacity)
            if take > 0:
                plan.append((radius, take))
            remaining -= take
        if remaining == 0:
            return plan
    return None


def layout_map(tree: TopicMap, cloud: TagCloud, params: LayoutParams, now: int) -> SceneDescription:
    """Radial layered tree: depth-d nodes at radius d * (max_radius / depth).

    Children split their parent's angular sector evenly and sit at the
    centers of their slices, ranked siblings first. A final sweep verifies
    every same-level pair keeps min spacing; anything closer is CannotFit
    rather than a silently overlapping scene.
    """
    nodes = tree.nodes
    if len(nodes) > MAX_PRIMS:
        raise TooManyPrims(f"{len(nodes)} prims exceed the {MAX_PRIMS} budget")

    expiry = now + params.ttl_ms
    freqs = cloud.frequencies
    key = f"map:{tree.root}"
    scene = SceneDescription(ORIGIN)

    def prim(label: str, index: int, position: Vec3) -> PrimSpec:
        count = freqs.get(label, 0)
        return PrimSpec(
            _prim_id(key, label, index),
            position,
            _tag_scale(params, count),
            f"{label} ({count})",
            expiry,
        )

    depth = tree.depth()
    scene.prims.append(prim(tree.root, 0, ORIGIN))
    if depth == 0:
        return scene

    step = params.max_radius / depth
    spacing = params.min_spacing * (1.0 + _SPACING_MARGIN)
    if step < spacing:
        raise CannotFit(f"{depth} layers cannot keep {params.min_spacing} m ring separation")

    levels: dict[int, list[Vec3]] = {}
    index = 1
    children_by_label = tree.children()

    def place(label: str, level: int, sector_start: float, sector_width: float) -> None:
        nonlocal index
        children = rank_order(children_by_label.get(label, ()), freqs)
        if not children:
            return
        radius = (level + 1) * step
        slice_width = sector_width / len(children)
        if len(children) > 1:
            chord = 2.0 * radius * math.sin(min(slice_width, math.pi) / 2.0)
            if chord < spacing:
                raise CannotFit(
                    f"{len(children)} children of {label!r} cannot keep "
                    f"{params.min_spacing} m spacing at radius {radius:g}"
                )
        for i, child in enumerate(children):
            angle = sector_start + (i + 0.5) * slice_width
            position = _clamped(radius, angle, params.max_radius)
            levels.setdefault(level + 1, []).append(position)
            scene.prims.append(prim(child, index, position))
            index += 1
            place(child, level + 1, sector_start + i * slice_width, slice_width)

    place(tree.root, 0, 0.0, 2.0 * math.pi)

    for level_positions in levels.values():
        for i in range(len(level_positions)):
            for j in range(i + 1, len(level_positions)):
                if level_positions[i].distance(level_positions[j]) < params.min_spacing:
                    raise CannotFit(
                        f"same-level prims closer than {params.min_spacing} m"
                    )
    return scene


def expire(scene: SceneDescription, now: int) -> SceneDescription:
    """Drop every prim whose expiry instant has been reached."""
    keep = [p for p in scene.prims if p.expires_at > now]
    return SceneDescription(scene.origin, keep)


# -- export formats ---------------------------------------------------------


def render_scene_flat(scene: SceneDescription) -> str:
    """Tab-separated records, one prim per line."""
    lines = ["scene-v1 flat"]
    o = scene.origin
    lines.append(f"origin\t{o.x:g}\t{o.y:g}\t{o.z:g}")
    for p in scene.prims:
        lines.append(
            f"prim\t{p.id}\t{p.position.x:g}\t{p.position.y:g}\t{p.position.z:g}"
            f"\t{p.scale:g}\t{p.expires_at}\t{p.label}"
        )
    return "\n".join(lines) + "\n"


def render_scene_json(scene: SceneDescription) -> str:
    """Machine-readable tree of records."""
    payload = {
        "origin": [scene.origin.x, scene.origin.y, scene.origin.z],
        "prims": [
            {
                "id": str(p.id),
                "position": [p.position.x, p.position.y, p.position.z],
                "scale": p.scale,
                "expires_at": p.expires_at,
                "label": p.label,
            }
            for p in scene.prims
        ],
    }
    return "scene-v1 json\n" + json.dumps(payload, indent=2, sort_keys=True) + "\n"
