"""Synthetic indoor scenes with exact ground truth.

A generated scene is a row of rooms (shared walls, doorway gaps) furnished
with axis-aligned box objects from a small template library. Template
pairs carry spatial relations, and the scene's relations are exactly the
tags the generator writes for those pairs. A camera trajectory orbits each
room's center. Depth maps are rendered by ray/box intersection, so the
full geometry pipeline runs on honest depth, and the per-pixel hit map
yields exact detection masks, bounding boxes and visibility.

Each box is ray-cast only over its screen window: the pixel block its
part in front of the camera projects into, widened by a small margin. A
ray hits a box only at a camera depth above 1e-6, and every such point
lies in the box clipped at a nearer plane, whose projection the window
bounds; so no pixel outside a box's window can hit it. Inside the window
the slab kernel runs unchanged, in the same box order, so depth and hit
maps are byte-identical to testing every box against every ray.

Everything is a pure function of (rooms, objects_per_room, seed, render
options): regenerating with the same parameters reproduces the scene
bit-for-bit, which is what the scripted backend and the record/replay
tests rely on.

World frame is z-up, meters. Camera looks along +z of its own frame
(x right, y down).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import Episode, Keyframe
from .geometry import CameraIntrinsics, DepthMap, Pose
from .graph import edge_discovery_due

WALL_THICKNESS = 0.1
WALL_HEIGHT = 2.5
ROOM_W = 4.0
ROOM_D = 4.0
DOORWAY_W = 1.0
CAMERA_HEIGHT = 1.4
LOOK_HEIGHT = 0.7
ORBIT_RADIUS = 1.7
OBJECT_RING_RADIUS = 1.2
VIEWS_PER_ROOM = 6
MIN_VISIBLE_PIXELS = 10

ROOM_LABEL_POOL = ("kitchen", "bedroom", "living room", "office")

COLOR_POOL = ("red", "blue", "green", "yellow", "white", "black",
              "purple", "orange", "brown", "gray", "pink", "teal")

# (class, size (x, y, z), [(child class, child size, relation)])
PARENT_TEMPLATES = (
    ("table", (1.0, 0.7, 0.72), (("cup", (0.12, 0.12, 0.14), "on_top_of"),)),
    ("crate", (0.6, 0.6, 0.35), (("bottle", (0.14, 0.14, 0.6), "contained_in"),)),
    ("sofa", (1.4, 0.8, 0.75), (("cushion", (0.45, 0.2, 0.4), "subpart_of"),)),
    ("desk", (1.1, 0.6, 0.74), (("monitor", (0.5, 0.12, 0.35), "on_top_of"),)),
    ("bin", (0.4, 0.4, 0.5), (("umbrella", (0.1, 0.1, 0.9), "contained_in"),)),
    ("wardrobe", (1.0, 0.55, 1.8), (("mirror", (0.5, 0.04, 0.9), "attached_to"),)),
)

STANDALONE_TEMPLATES = (
    ("chair", (0.45, 0.45, 0.9)),
    ("plant", (0.35, 0.35, 0.8)),
    ("lamp", (0.3, 0.3, 1.5)),
    ("stool", (0.4, 0.4, 0.45)),
    ("box", (0.5, 0.4, 0.4)),
)


class GenerationError(ValueError):
    pass


def _read_json(path: str | Path):
    """The JSON document in ``path``; a missing or unreadable file and one
    that is not JSON raise GenerationError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise GenerationError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise GenerationError(f"{path}: not JSON: {exc}") from None


# the largest image side and focal length, in pixels, a truth file may ask
# for: a larger image would fill memory, and a huge focal length overflows
MAX_IMAGE_SIDE_PX = 1024
MAX_FOCAL_PX = 10_000
_PARAM_BOUNDS = dict(width=MAX_IMAGE_SIDE_PX, height=MAX_IMAGE_SIDE_PX, focal=MAX_FOCAL_PX)


def _param(params: dict, name: str) -> int | float:
    """``params[name]`` when it is a JSON integer (a positive one for the
    image size) or, for ``focal``, a positive finite number, within its
    ``_PARAM_BOUNDS``; a bool is neither. Otherwise GenerationError naming it."""
    value = params[name]
    if name == "focal":  # NaN and an integer beyond float range fail too
        ok = type(value) in (int, float) and 0 < value <= sys.float_info.max
        noun = "a positive finite number"
    elif name in ("width", "height"):
        ok, noun = type(value) is int and value > 0, "a positive integer"
    else:
        ok, noun = type(value) is int, "an integer"
    if not ok:
        raise GenerationError(f"params.{name} must be {noun}, got {json.dumps(value)}")
    if value > _PARAM_BOUNDS.get(name, value):
        raise GenerationError(f"params.{name} must be at most {_PARAM_BOUNDS[name]}, "
                              f"got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class Box:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def center(self) -> np.ndarray:
        return (np.array(self.lo) + np.array(self.hi)) / 2.0

    def contains_point(self, p) -> bool:
        return all(self.lo[i] <= p[i] <= self.hi[i] for i in range(3))


@dataclass
class SceneObject:
    index: int
    class_name: str
    color: str
    box: Box
    room_index: int

    @property
    def caption(self) -> str:
        return f"{self.color} {self.class_name}"


@dataclass(frozen=True)
class TrueRelation:
    subject_index: int
    object_index: int
    relation: str


@dataclass
class RoomSpec:
    index: int
    label: str
    x0: float
    y0: float
    x1: float
    y1: float

    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)


@dataclass(frozen=True)
class GtDetection:
    object_index: int
    caption: str
    bbox: tuple[int, int, int, int]
    mask_runs: tuple[tuple[int, int, int], ...]


@dataclass
class SceneParams:
    rooms: int
    objects_per_room: int
    seed: int
    width: int = 96
    height: int = 72
    focal: float = 60.0
    views_per_room: int = VIEWS_PER_ROOM


def look_at_pose(position, target) -> Pose:
    """World-from-camera pose looking from position toward target (z-up)."""
    pos = np.asarray(position, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - pos
    norm = np.linalg.norm(fwd)
    if norm < 1e-9:
        raise GenerationError("look_at target coincides with position")
    fwd = fwd / norm
    up = np.array([0.0, 0.0, 1.0])
    right = np.array([fwd[1], -fwd[0], 0.0])
    rn = np.linalg.norm(right)
    if rn < 1e-9:  # looking straight up/down
        right = np.array([1.0, 0.0, 0.0])
    else:
        right = right / rn
    down = np.cross(fwd, right)
    rot = np.column_stack([right, down, fwd])
    return Pose(rot, pos)


# A hit needs camera depth tmin > 1e-6, so clipping at a nearer plane keeps
# every point a ray can hit; the margin absorbs the kernel's rounding.
NEAR_PLANE = 1e-7
WINDOW_MARGIN_PX = 2

# corner k of a box takes hi on axis a where bit a of k is set
_CORNER_BITS = ((np.arange(8)[:, None] >> np.arange(3)) & 1) == 1
# the 12 edges join corners that differ in one bit
_EDGE_FROM, _EDGE_TO = np.array([(i, i | 1 << a) for i in range(8) for a in range(3)
                                 if not i >> a & 1]).T


def box_corners(boxes: list[Box]) -> np.ndarray:
    """The (len(boxes), 8, 3) world corners of axis-aligned boxes."""
    lo = np.array([b.lo for b in boxes], dtype=np.float64).reshape(-1, 1, 3)
    hi = np.array([b.hi for b in boxes], dtype=np.float64).reshape(-1, 1, 3)
    return np.where(_CORNER_BITS, hi, lo)


def projected_extent(corners: np.ndarray, pose: Pose,
                     intr: CameraIntrinsics) -> np.ndarray:
    """Per box, the (u_min, v_min, u_max, v_max) pixel bounds of its part
    in front of the near plane: the corners in front and the points where
    its edges cross the plane. A box with no such part reads (inf, inf,
    -inf, -inf)."""
    cam = (corners - pose.translation) @ pose.rotation
    z = cam[..., 2]
    front = z > NEAR_PLANE
    z_from, z_to = z[:, _EDGE_FROM], z[:, _EDGE_TO]
    cross = front[:, _EDGE_FROM] != front[:, _EDGE_TO]
    s = (NEAR_PLANE - z_from) / np.where(cross, z_to - z_from, 1.0)
    on_plane = cam[:, _EDGE_FROM] + s[..., None] * (cam[:, _EDGE_TO] - cam[:, _EDGE_FROM])
    xy = np.concatenate([cam[..., :2] / np.where(front, z, 1.0)[..., None],
                         on_plane[..., :2] / NEAR_PLANE], axis=1)
    valid = np.concatenate([front, cross], axis=1)[..., None]
    uv = xy * (intr.fx, intr.fy) + (intr.cx, intr.cy)
    return np.concatenate([np.where(valid, uv, np.inf).min(axis=1),
                           np.where(valid, uv, -np.inf).max(axis=1)], axis=1)


def screen_windows(corners: np.ndarray, pose: Pose,
                   intr: CameraIntrinsics) -> list[tuple[slice, slice] | None]:
    """Per box, the (rows, columns) block of the image outside which no ray
    of ``SyntheticScene.render`` can hit it: its projected extent widened
    by ``WINDOW_MARGIN_PX`` and clipped to the image. None where the box
    has no part in front of the camera or its block lies off the image."""
    ext = projected_extent(corners, pose, intr)
    lo = np.floor(ext[:, :2] - WINDOW_MARGIN_PX)
    hi = np.ceil(ext[:, 2:] + WINDOW_MARGIN_PX)
    size = np.array([intr.width, intr.height])
    inside = ((lo < size) & (hi >= 0)).all(axis=1)
    lo = np.clip(lo, 0, size - 1).astype(np.int64)
    hi = np.clip(hi, 0, size - 1).astype(np.int64) + 1
    return [(slice(v0, v1), slice(u0, u1)) if ok else None
            for ok, (u0, v0), (u1, v1) in zip(inside.tolist(), lo.tolist(), hi.tolist())]


class SyntheticScene:
    """Scene truth plus lazy depth rendering."""

    def __init__(self, params: SceneParams, rooms: list[RoomSpec],
                 objects: list[SceneObject], relations: list[TrueRelation],
                 structure_boxes: list[Box], poses: list[Pose]):
        self.params = params
        self.rooms = rooms
        self.objects = objects
        self.relations = relations
        self.structure_boxes = structure_boxes
        self.poses = poses
        self.intrinsics = CameraIntrinsics(
            fx=params.focal, fy=params.focal,
            cx=(params.width - 1) / 2.0, cy=(params.height - 1) / 2.0,
            width=params.width, height=params.height)
        self._corners = box_corners(self._all_boxes()[0])
        self._render_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._gt_cache: dict[int, tuple[GtDetection, ...]] = {}

    @property
    def scene_id(self) -> str:
        p = self.params
        return f"synth-{p.rooms}x{p.objects_per_room}-seed{p.seed}"

    @property
    def frame_count(self) -> int:
        return len(self.poses)

    def room_label_of(self, obj: SceneObject) -> str:
        return self.rooms[obj.room_index].label

    # -- rendering --------------------------------------------------------

    def _all_boxes(self) -> tuple[list[Box], list[int]]:
        boxes = list(self.structure_boxes) + [o.box for o in self.objects]
        ids = [-1] * len(self.structure_boxes) + [o.index for o in self.objects]
        return boxes, ids

    def render(self, frame_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(depth, hit map) for one frame. Depth is the camera-frame z of
        the nearest box hit (0 where no box is hit); the hit map carries
        the object index, -1 for structure, -2 for nothing.

        Each box is slab-tested only against the rays of its
        ``screen_windows`` block, which holds every pixel it can hit, and
        boxes that no ray can reach are skipped. Each tested pixel sees
        the same operands and operations as a test of the full image, so
        the bytes do not depend on the windows."""
        if frame_id in self._render_cache:
            return self._render_cache[frame_id]
        if not 0 <= frame_id < len(self.poses):
            raise GenerationError(f"unknown frame id {frame_id}")
        intr = self.intrinsics
        shape = (intr.height, intr.width)
        pose = self.poses[frame_id]
        us, vs = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
        d_cam = np.stack([(us.ravel() - intr.cx) / intr.fx,
                          (vs.ravel() - intr.cy) / intr.fy,
                          np.ones(us.size)], axis=1)
        d_world = d_cam @ pose.rotation.T
        origin = pose.translation
        best_s = np.full(shape, np.inf)
        best_id = np.full(shape, -2, dtype=np.int64)
        safe_d = np.where(np.abs(d_world) < 1e-12, 1e-12, d_world)
        # Slabs one axis at a time over per-axis ray arrays: a per-row
        # max/min over (n, 3) costs a reduce call per box that dwarfs the
        # arithmetic. Same divisions, and max/min are exact, so the bytes
        # match the row-wise form (only a zero's sign may differ, and a
        # zero never passes tmin > 1e-6). Keep the division: a reciprocal
        # multiply rounds differently.
        full = [np.ascontiguousarray(safe_d[:, k]).reshape(shape) for k in range(3)]
        boxes, ids = self._all_boxes()
        windows = screen_windows(self._corners, pose, intr)
        for box, bid, win in zip(boxes, ids, windows):
            if win is None:
                continue
            cols = [c[win] for c in full]
            win_s, win_id = best_s[win], best_id[win]
            a = (box.lo[0] - origin[0]) / cols[0]
            b = (box.hi[0] - origin[0]) / cols[0]
            tmin, tmax = np.minimum(a, b), np.maximum(a, b)
            for k in (1, 2):
                a = (box.lo[k] - origin[k]) / cols[k]
                b = (box.hi[k] - origin[k]) / cols[k]
                np.maximum(tmin, np.minimum(a, b), out=tmin)
                np.minimum(tmax, np.maximum(a, b), out=tmax)
            hit = (tmin <= tmax) & (tmax > 0) & (tmin > 1e-6) & (tmin < win_s)
            win_s[hit] = tmin[hit]
            win_id[hit] = bid
        depth, idmap = np.where(np.isfinite(best_s), best_s, 0.0), best_id
        # cached and handed to every caller, so a write would corrupt later
        # gt_detections and episode() results
        depth.flags.writeable = False
        idmap.flags.writeable = False
        self._render_cache[frame_id] = (depth, idmap)
        return depth, idmap

    def gt_detections(self, frame_id: int) -> tuple[GtDetection, ...]:
        """Exact visible-object detections for one frame, occlusion-aware."""
        if frame_id in self._gt_cache:
            return self._gt_cache[frame_id]
        _, idmap = self.render(frame_id)
        # one stable sort groups each object's pixels in row-major order
        flat = idmap.ravel()
        order = np.argsort(flat, kind="stable")
        keys = flat[order]
        indices = [obj.index for obj in self.objects]
        firsts = np.searchsorted(keys, indices, side="left").tolist()
        lasts = np.searchsorted(keys, indices, side="right").tolist()
        out = []
        for obj, first, last in zip(self.objects, firsts, lasts):
            if last - first < MIN_VISIBLE_PIXELS:
                continue
            rows, cols = np.divmod(order[first:last], idmap.shape[1])
            bbox = (int(cols.min()), int(rows.min()), int(cols.max()), int(rows.max()))
            # a run starts at the first pixel and wherever the row changes
            # or the column skips
            starts = np.flatnonzero((np.diff(rows) != 0) | (np.diff(cols) != 1)) + 1
            starts = np.concatenate(([0], starts))
            ends = np.append(starts[1:], rows.size) - 1
            runs = zip(rows[starts].tolist(), cols[starts].tolist(),
                       cols[ends].tolist())
            out.append(GtDetection(object_index=obj.index, caption=obj.caption,
                                   bbox=bbox, mask_runs=tuple(runs)))
        result = tuple(out)
        self._gt_cache[frame_id] = result
        return result

    def visible_objects(self, frame_id: int) -> list[int]:
        return [d.object_index for d in self.gt_detections(frame_id)]

    def episode(self) -> Episode:
        frames = []
        for fid, pose in enumerate(self.poses):
            depth, _ = self.render(fid)
            frames.append(Keyframe(
                id=fid, intrinsics=self.intrinsics, pose=pose,
                depth=DepthMap(depth), image_locator=f"synthetic://{self.scene_id}/{fid}",
                timestamp=float(fid)))
        return Episode(self.scene_id, frames, stride=1)

    # -- persistence --------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "format": "scenemem-synthetic-truth",
            "params": asdict(self.params),
            "summary": {
                "scene_id": self.scene_id,
                "rooms": [{"index": r.index, "label": r.label} for r in self.rooms],
                "objects": [{"index": o.index, "caption": o.caption,
                             "room": self.rooms[o.room_index].label}
                            for o in self.objects],
                "relations": [{"subject": r.subject_index, "object": r.object_index,
                               "relation": r.relation} for r in self.relations],
            },
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_doc(), indent=2, sort_keys=True),
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SyntheticScene":
        """Regenerate the scene a truth file names. A missing file, one that
        is not JSON and one that holds no valid truth raise GenerationError
        naming the path; a refused param is named too."""
        doc = _read_json(path)
        if not isinstance(doc, dict) or doc.get("format") != "scenemem-synthetic-truth" \
                or not isinstance(doc.get("params"), dict):
            raise GenerationError(f"{path}: not a synthetic scene truth file")
        try:
            return generate_scene(**{f.name: _param(doc["params"], f.name)
                                     for f in fields(SceneParams) if f.name in doc["params"]})
        except (GenerationError, TypeError) as exc:  # params it cannot place
            raise GenerationError(f"{path}: {exc}") from None


def _room_walls(room: RoomSpec, doorway_left: bool, doorway_right: bool) -> list[Box]:
    t = WALL_THICKNESS
    h = WALL_HEIGHT
    x0, y0, x1, y1 = room.x0, room.y0, room.x1, room.y1
    yc = (y0 + y1) / 2.0
    walls = [
        Box((x0 - t, y0 - t, 0.0), (x1 + t, y0, h)),      # south
        Box((x0 - t, y1, 0.0), (x1 + t, y1 + t, h)),      # north
    ]
    for side_x0, side_x1, has_door in ((x0 - t, x0, doorway_left),
                                       (x1, x1 + t, doorway_right)):
        if has_door:
            walls.append(Box((side_x0, y0, 0.0), (side_x1, yc - DOORWAY_W / 2, h)))
            walls.append(Box((side_x0, yc + DOORWAY_W / 2, 0.0), (side_x1, y1, h)))
        else:
            walls.append(Box((side_x0, y0, 0.0), (side_x1, y1, h)))
    return walls


def _place_child(parent_box: Box, child_size, relation: str,
                 room_center: tuple[float, float]) -> Box:
    cw, cd, ch = child_size
    px, py = parent_box.center()[0], parent_box.center()[1]
    if relation == "on_top_of" or relation == "subpart_of":
        z0 = parent_box.hi[2]
        return Box((px - cw / 2, py - cd / 2, z0), (px + cw / 2, py + cd / 2, z0 + ch))
    if relation == "contained_in":
        z0 = parent_box.lo[2]
        return Box((px - cw / 2, py - cd / 2, z0), (px + cw / 2, py + cd / 2, z0 + ch))
    # attached_to: flush on the vertical face oriented toward the room center
    dx = room_center[0] - px
    dy = room_center[1] - py
    zc = (parent_box.lo[2] + parent_box.hi[2]) / 2.0
    if abs(dx) >= abs(dy):
        face_x = parent_box.hi[0] if dx > 0 else parent_box.lo[0]
        x0 = face_x if dx > 0 else face_x - cd
        return Box((x0, py - cw / 2, zc - ch / 2), (x0 + cd, py + cw / 2, zc + ch / 2))
    face_y = parent_box.hi[1] if dy > 0 else parent_box.lo[1]
    y0 = face_y if dy > 0 else face_y - cd
    return Box((px - cw / 2, y0, zc - ch / 2), (px + cw / 2, y0 + cd, zc + ch / 2))


def generate_scene(rooms: int, objects_per_room: int, seed: int, *,
                   width: int = 96, height: int = 72, focal: float = 60.0,
                   views_per_room: int = VIEWS_PER_ROOM) -> SyntheticScene:
    """Build a deterministic synthetic scene.

    Rooms sit in a row with doorways between neighbors; each holds
    ``objects_per_room`` objects placed on a ring around its center
    (template pairs first, so every room with capacity >= 2 contributes
    relations). Raises GenerationError for specs that cannot be placed or
    leave an object invisible from the whole trajectory.
    """
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    if rooms < 1:
        raise GenerationError("need at least one room")
    if objects_per_room < 1:
        raise GenerationError("need at least one object per room")
    max_slots = 6
    if objects_per_room > max_slots:
        raise GenerationError(
            f"objects overflow room: {objects_per_room} > {max_slots} ring slots")
    params = SceneParams(rooms=rooms, objects_per_room=objects_per_room, seed=seed,
                         width=width, height=height, focal=focal,
                         views_per_room=views_per_room)
    rng = np.random.Generator(np.random.PCG64(seed))
    t = WALL_THICKNESS

    room_specs: list[RoomSpec] = []
    for i in range(rooms):
        x0 = t + i * (ROOM_W + t)
        room_specs.append(RoomSpec(index=i, label=ROOM_LABEL_POOL[i % len(ROOM_LABEL_POOL)],
                                   x0=x0, y0=t, x1=x0 + ROOM_W, y1=t + ROOM_D))

    structure: list[Box] = []
    total_x = t + rooms * (ROOM_W + t)
    total_y = 2 * t + ROOM_D
    structure.append(Box((-0.5, -0.5, -0.1), (total_x + 0.5, total_y + 0.5, 0.0)))
    for i, room in enumerate(room_specs):
        structure.extend(_room_walls(room, doorway_left=i > 0,
                                     doorway_right=i < rooms - 1))

    objects: list[SceneObject] = []
    relations: list[TrueRelation] = []  # the template tags, by ascending subject
    used_captions: set[str] = set()

    def pick_color(cls_name: str) -> str:
        start = int(rng.integers(0, len(COLOR_POOL)))
        for off in range(len(COLOR_POOL)):
            color = COLOR_POOL[(start + off) % len(COLOR_POOL)]
            if f"{color} {cls_name}" not in used_captions:
                used_captions.add(f"{color} {cls_name}")
                return color
        raise GenerationError(f"ran out of distinct colors for class {cls_name}")

    parent_order = list(PARENT_TEMPLATES)
    standalone_order = list(STANDALONE_TEMPLATES)
    parent_cursor = 0
    standalone_cursor = 0

    for room in room_specs:
        cx, cy = room.center()
        slots = [(cx + OBJECT_RING_RADIUS * math.cos(math.radians(a)),
                  cy + OBJECT_RING_RADIUS * math.sin(math.radians(a)))
                 for a in range(0, 360, 360 // max_slots)]
        slot_i = 0
        placed = 0
        while placed < objects_per_room:
            remaining = objects_per_room - placed
            if remaining >= 2:
                cls_name, size, children = parent_order[parent_cursor % len(parent_order)]
                parent_cursor += 1
                sx, sy = slots[slot_i]
                slot_i += 1
                w, d, h = size
                pbox = Box((sx - w / 2, sy - d / 2, 0.0), (sx + w / 2, sy + d / 2, h))
                parent = SceneObject(index=len(objects), class_name=cls_name,
                                     color=pick_color(cls_name), box=pbox,
                                     room_index=room.index)
                objects.append(parent)
                placed += 1
                child_cls, child_size, relation = children[0]
                cbox = _place_child(pbox, child_size, relation, (cx, cy))
                child = SceneObject(index=len(objects), class_name=child_cls,
                                    color=pick_color(child_cls), box=cbox,
                                    room_index=room.index)
                objects.append(child)
                relations.append(TrueRelation(child.index, parent.index, relation))
                placed += 1
            else:
                cls_name, size = standalone_order[standalone_cursor % len(standalone_order)]
                standalone_cursor += 1
                sx, sy = slots[slot_i]
                slot_i += 1
                w, d, h = size
                box = Box((sx - w / 2, sy - d / 2, 0.0), (sx + w / 2, sy + d / 2, h))
                objects.append(SceneObject(index=len(objects), class_name=cls_name,
                                           color=pick_color(cls_name), box=box,
                                           room_index=room.index))
                placed += 1

    poses: list[Pose] = []
    for room in room_specs:
        cx, cy = room.center()
        for k in range(views_per_room):
            angle = math.radians(30.0 + k * (360.0 / views_per_room))
            pos = (cx + ORBIT_RADIUS * math.cos(angle),
                   cy + ORBIT_RADIUS * math.sin(angle),
                   CAMERA_HEIGHT)
            poses.append(look_at_pose(pos, (cx, cy, LOOK_HEIGHT)))

    scene = SyntheticScene(params, room_specs, objects, relations, structure, poses)

    for pose in scene.poses:
        pos = pose.translation
        for obj in objects:
            if obj.box.contains_point(pos):
                raise GenerationError(
                    f"camera at {pos.tolist()} lands inside object '{obj.caption}'")

    _check_visibility(scene)
    return scene


def _check_visibility(scene: SyntheticScene) -> None:
    """Every object must be visible somewhere, and every related pair
    co-visible on a frame where the build asks for edges
    (``edge_discovery_due``)."""
    seen: set[int] = set()
    covisible_on_discovery: set[tuple[int, int]] = set()
    for fid in range(scene.frame_count):
        visible = set(scene.visible_objects(fid))
        seen |= visible
        if edge_discovery_due(fid):
            for rel in scene.relations:
                if rel.subject_index in visible and rel.object_index in visible:
                    covisible_on_discovery.add((rel.subject_index, rel.object_index))
    missing = [o.caption for o in scene.objects if o.index not in seen]
    if missing:
        raise GenerationError(f"objects never visible: {missing}")
    for rel in scene.relations:
        if (rel.subject_index, rel.object_index) not in covisible_on_discovery:
            a = scene.objects[rel.subject_index].caption
            b = scene.objects[rel.object_index].caption
            raise GenerationError(
                f"relation pair never co-visible on a discovery frame: {a} / {b}")


# ---------------------------------------------------------------------------
# Question generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Question:
    question: str
    answer: str
    category: str


# Each question kind's template, the one statement of the question grammar:
# generate_questions formats it and the RuleReasoner parses by it. A relation
# question's kind is its relation label; ``{target}`` is the caption or class
# the question names.
QUESTION_TEMPLATES = {
    "on_top_of": "what is on top of the {target}?",
    "contained_in": "what is inside the {target}?",
    "subpart_of": "what is part of the {target}?",
    "attached_to": "what is attached to the {target}?",
    "room": "which room is the {target} in?",
    "color": "what color is the {target}?",
    "count": "how many objects are in the scene?",
}


def generate_questions(scene: SyntheticScene) -> list[Question]:
    """Deterministic question set with exact answers from scene truth."""
    questions: list[Question] = []
    for rel in scene.relations:
        subject = scene.objects[rel.subject_index]
        parent = scene.objects[rel.object_index]
        questions.append(Question(
            question=QUESTION_TEMPLATES[rel.relation].format(target=parent.caption),
            answer=subject.caption, category="spatial"))
    for obj in scene.objects[::2]:
        questions.append(Question(
            question=QUESTION_TEMPLATES["room"].format(target=obj.caption),
            answer=scene.room_label_of(obj), category="localization"))
    class_counts: dict[str, int] = {}
    for obj in scene.objects:
        class_counts[obj.class_name] = class_counts.get(obj.class_name, 0) + 1
    for cls_name, count in sorted(class_counts.items()):
        if count == 1:
            obj = next(o for o in scene.objects if o.class_name == cls_name)
            questions.append(Question(
                question=QUESTION_TEMPLATES["color"].format(target=cls_name),
                answer=obj.color, category="attribute"))
            break
    questions.append(Question(
        question=QUESTION_TEMPLATES["count"],
        answer=str(len(scene.objects)), category="counting"))
    return questions


def save_questions(questions: list[Question], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps([asdict(q) for q in questions], indent=2, sort_keys=True),
        encoding="utf-8")


def load_questions(path: str | Path) -> list[Question]:
    """The questions ``path`` holds: a JSON list of objects with string
    ``question``, ``answer`` and ``category`` fields. Anything else raises
    GenerationError naming the path."""
    docs = _read_json(path)
    names = [f.name for f in fields(Question)]
    if not isinstance(docs, list) or not all(
            isinstance(d, dict) and all(isinstance(d.get(n), str) for n in names)
            for d in docs):
        raise GenerationError(f"{path}: not a list of objects with string "
                              "question, answer and category fields")
    return [Question(*(d[n] for n in names)) for d in docs]
