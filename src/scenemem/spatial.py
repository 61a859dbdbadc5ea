"""The floor-plan stage and the per-frame navigation log.

Floors come from height-histogram modes, each floor's free/wall occupancy
grid from the structure cloud, rooms from a watershed over the wall
distance transform, each room's label from the class scores of the views
taken inside it, and every keyframe gets a navigation entry with its
room's label, the field-of-view tag its detect reply carried and an
egocentric motion label derived from pose deltas; the nodes a keyframe
shows are the tracks that list it in their ``visible_frames``.

One 8-neighbor view helper serves the unseen-cell fill and the seed
picking; one 4-connected labelling serves the speckle pruning and the
watershed's isolated pockets. The distance transform is exact: two array
passes over integer squared cell distances (columns, then rows), so every
distance is the true Euclidean one in float64. The watershed's tie order
is part of its contract: cells leave the queue by decreasing wall distance
and, at equal distance, in the order they were queued.

The floor plan is one value, a RoomModel: the floors, each floor's grid
and room index, and the room labels. ``RoomModel.locate`` is the one lookup
from a world point to its floor and room, for cameras and tracks alike.

The room/floor pipeline is deliberately coarse: the memory only needs
stable labels for indexing, not metrically exact floor plans. World frame
is z-up; each threshold is a module constant below, next to its reader.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryInputError, PointCloud, Pose

MOTION_LABELS = ("stationary", "forward", "backward", "turn_left",
                 "turn_right", "ascend", "descend")

# floors (detect_floors)
HEIGHT_BIN_M = 0.1
FLOOR_SEPARATION_M = 1.5
# occupancy grids (occupancy_grids)
GRID_CELL_M = 0.1
WALL_HEIGHT_M = 1.5
FILL_UNKNOWN_ITERATIONS = 3
MIN_ROOM_AREA_M2 = 1.0
# room lookup (RoomModel.locate)
ROOM_SNAP_M = 0.5
# watershed seeds (segment_rooms)
ROOM_PEAK_SEPARATION_M = 1.0
ROOM_SEED_MIN_DIST_M = 0.45
# motion labels (motion_label)
YAW_THRESHOLD_DEG = 10.0
FORWARD_THRESHOLD_M = 0.1
VERTICAL_THRESHOLD_M = 0.3

_BIG = 1e18


@dataclass(frozen=True)
class FloorModel:
    """Ascending, non-overlapping height intervals covering all cameras."""

    floors: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        prev_hi = None
        for _, lo, hi in self.floors:
            if lo > hi:
                raise GeometryInputError("floor interval inverted")
            if prev_hi is not None and lo < prev_hi:
                raise GeometryInputError("floor intervals overlap")
            prev_hi = hi

    def floor_of(self, height: float) -> str:
        """Total assignment: heights outside all intervals clamp to the
        nearest floor."""
        return self.floors[int(self.indices_of(height))][0]

    def indices_of(self, heights: np.ndarray) -> np.ndarray:
        """The index into ``floors`` of each height. A height on a
        boundary belongs to the floor above it (searchsorted "right")."""
        if not self.floors:
            raise GeometryInputError("empty floor model")
        boundaries = np.array([f[2] for f in self.floors[:-1]], dtype=np.float64)
        return np.searchsorted(boundaries, heights, side="right")


@dataclass
class OccupancyGrid:
    """2-D free/wall grid for one floor. ``free[r, c]`` is True for free
    space; world (x, y) maps to cell (r, c) via origin and cell size."""

    free: np.ndarray
    origin: tuple[float, float]
    cell_size: float

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        c = int(math.floor((x - self.origin[0]) / self.cell_size))
        r = int(math.floor((y - self.origin[1]) / self.cell_size))
        return r, c

    def in_bounds(self, r: int, c: int) -> bool:
        return 0 <= r < self.free.shape[0] and 0 <= c < self.free.shape[1]


@dataclass
class RoomModel:
    """The floor plan: the floors, and the rooms of every floor.
    ``grids[floor_id]`` is the floor's occupancy grid and
    ``rooms[floor_id][r, c]`` the room index (>= 0) of a free cell, -1 for
    walls/unassigned. Room ids are '<floor_id>/<index>'; ``labels`` maps a
    room id to its label."""

    floors: FloorModel
    grids: dict[str, OccupancyGrid]
    rooms: dict[str, np.ndarray]
    labels: dict[str, str] = field(default_factory=dict)

    def locate(self, x: float, y: float, z: float) -> tuple[str, str | None]:
        """The floor of height ``z`` and the room of (x, y) on it. A point
        on an unassigned cell (unseen ground, inside furniture, against a
        wall) snaps to the nearest assigned cell within ``ROOM_SNAP_M``
        (ties to the lower row, then column). Cameras and tracks are both
        placed through this one rule."""
        floor_id = self.floors.floor_of(z)
        grid = self.grids.get(floor_id)
        if grid is None:
            return floor_id, None
        rooms = self.rooms[floor_id]
        r0, c0 = grid.cell_of(x, y)
        if grid.in_bounds(r0, c0) and rooms[r0, c0] >= 0:
            return floor_id, f"{floor_id}/{int(rooms[r0, c0])}"
        reach = int(math.ceil(ROOM_SNAP_M / grid.cell_size))
        d, r, c = min(((math.hypot(r - r0, c - c0), r, c)
                       for r in range(r0 - reach, r0 + reach + 1)
                       for c in range(c0 - reach, c0 + reach + 1)
                       if grid.in_bounds(r, c) and rooms[r, c] >= 0),
                      default=(math.inf, r0, c0))
        if d * grid.cell_size > ROOM_SNAP_M:  # the nearest assigned cell is too far
            return floor_id, None
        return floor_id, f"{floor_id}/{int(rooms[r, c])}"

    def label_of(self, room_id: str | None) -> str:
        return self.labels.get(room_id, "unknown")

    def room_ids(self) -> list[str]:
        return [f"{floor_id}/{idx}" for floor_id in sorted(self.rooms)
                for idx in np.unique(self.rooms[floor_id]).tolist() if idx >= 0]


@dataclass(frozen=True, eq=False)
class NavLogEntry:
    frame_id: int
    room_label: str
    fov_tag: str
    motion_label: str

    def __post_init__(self):
        if self.motion_label not in MOTION_LABELS:
            raise GeometryInputError(f"unknown motion label '{self.motion_label}'")


def detect_floors(camera_heights: list[float]) -> FloorModel:
    """Find floors as height-histogram modes.

    Bins of HEIGHT_BIN_M are scanned for local maxima; maxima closer than
    FLOOR_SEPARATION_M to an already accepted (taller) mode are suppressed.
    Floor boundaries sit midway between adjacent modes; the first and last
    floors extend to the extreme observed heights.
    """
    heights = np.asarray(list(camera_heights), dtype=np.float64)
    if heights.size == 0:
        raise GeometryInputError("camera_heights must be nonempty")
    lo = float(heights.min())
    hi = float(heights.max())
    nbins = max(1, int(math.floor((hi - lo) / HEIGHT_BIN_M)) + 1)
    idx = np.minimum(((heights - lo) / HEIGHT_BIN_M).astype(np.int64), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    centers = lo + (np.arange(nbins) + 0.5) * HEIGHT_BIN_M
    order = sorted(range(nbins), key=lambda b: (-counts[b], b))
    modes: list[float] = []
    for b in order:
        if counts[b] == 0:
            break
        center = float(centers[b])
        if all(abs(center - m) >= FLOOR_SEPARATION_M for m in modes):
            modes.append(center)
    modes.sort()
    if len(modes) <= 1:
        return FloorModel((("floor0", lo, hi),))
    bounds = [(modes[i] + modes[i + 1]) / 2.0 for i in range(len(modes) - 1)]
    floors = []
    for i in range(len(modes)):
        f_lo = lo if i == 0 else bounds[i - 1]
        f_hi = hi if i == len(modes) - 1 else bounds[i]
        floors.append((f"floor{i}", f_lo, f_hi))
    return FloorModel(tuple(floors))


def _neighbors(grid: np.ndarray, fill) -> list[np.ndarray]:
    """The eight neighbor views of ``grid``: each holds, at every cell, the
    value of one of its 8-neighbors, and ``fill`` beyond the border."""
    h, w = grid.shape
    padded = np.pad(grid, 1, constant_values=fill)
    return [padded[1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
            for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


def _components(mask: np.ndarray) -> np.ndarray:
    """4-connected components of ``mask``: each cell's component index, -1
    outside the mask. The flood runs on flat indices into a byte string
    padded with one empty cell on every side."""
    h, w = mask.shape
    wp = w + 2
    open_p = bytearray(np.pad(mask, 1, constant_values=False).tobytes())
    labels = [-1] * len(open_p)
    steps = (-wp, wp, -1, 1)
    count = 0
    start = open_p.find(1)
    while start >= 0:
        open_p[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            labels[i] = count
            for step in steps:
                j = i + step
                if open_p[j]:
                    open_p[j] = 0
                    stack.append(j)
        count += 1
        start = open_p.find(1, start + 1)
    return np.array(labels, dtype=np.int64).reshape(h + 2, wp)[1:-1, 1:-1]


def _drop_small_components(free: np.ndarray, min_cells: int) -> np.ndarray:
    """Mark free components smaller than min_cells as walls (observation
    speckle, not rooms)."""
    ids = _components(free)[free]
    out = free.copy()
    out[free] = np.bincount(ids)[ids] >= min_cells
    return out


def occupancy_grids(cloud: PointCloud, floors: FloorModel) -> dict[str, OccupancyGrid]:
    """Free/wall grid per floor, in cells of GRID_CELL_M.

    A seen cell is a wall when its points span at least WALL_HEIGHT_M
    vertically, free otherwise. Unseen cells are filled from free neighbors
    for a few iterations (depth coverage has holes behind furniture), the
    rest counts as wall; under-sized free specks are dropped.
    """
    grids: dict[str, OccupancyGrid] = {}
    if cloud.is_empty:
        return grids
    cell = GRID_CELL_M
    pts = cloud.points
    floor_of = floors.indices_of(pts[:, 2])
    for fi, (floor_id, _, _) in enumerate(floors.floors):
        sub = pts[floor_of == fi]
        if sub.shape[0] == 0:
            continue
        x0 = float(np.floor(sub[:, 0].min() / cell)) * cell - cell
        y0 = float(np.floor(sub[:, 1].min() / cell)) * cell - cell
        nx = int(np.ceil((sub[:, 0].max() - x0) / cell)) + 2
        ny = int(np.ceil((sub[:, 1].max() - y0) / cell)) + 2
        zmin = np.full((ny, nx), np.inf)
        zmax = np.full((ny, nx), -np.inf)
        cols = ((sub[:, 0] - x0) / cell).astype(np.int64)
        rows = ((sub[:, 1] - y0) / cell).astype(np.int64)
        np.minimum.at(zmin, (rows, cols), sub[:, 2])
        np.maximum.at(zmax, (rows, cols), sub[:, 2])
        seen = np.isfinite(zmin)
        wall = seen & ((zmax - zmin) >= WALL_HEIGHT_M)
        free = seen & ~wall
        unseen = ~seen
        for _ in range(FILL_UNKNOWN_ITERATIONS):
            grow = unseen & (sum(_neighbors(free, False)) >= 4)
            if not grow.any():
                break
            free = free | grow
            unseen = unseen & ~grow
        min_cells = max(1, int(round(MIN_ROOM_AREA_M2 / (cell * cell))))
        free = _drop_small_components(free, min_cells)
        grids[floor_id] = OccupancyGrid(free=free, origin=(x0, y0), cell_size=cell)
    return grids


def distance_transform(free: np.ndarray, cell_size: float) -> np.ndarray:
    """Exact Euclidean distance (meters) from each cell to the nearest
    wall cell. Walls get 0. Grids with no walls get a uniform large value.

    Two array passes over squared cell distances. The column pass takes the
    nearest wall above and below each cell from running maxima/minima of
    wall row indices; a column without walls gets ``_BIG``. The row pass
    lowers each cell to ``f[c +- k] + k*k`` for growing offsets k and stops
    once k*k reaches the largest value left, since no farther column can
    then win. Every square is an integer below 2**53, held exactly in
    float64, so the result equals a brute-force nearest-wall search bit for
    bit.
    """
    free = np.asarray(free, dtype=bool)
    wall = ~free
    if not np.any(wall):
        return np.full(free.shape, _BIG, dtype=np.float64)
    h, w = free.shape
    rows = np.arange(h, dtype=np.int64)[:, None]
    above = np.maximum.accumulate(np.where(wall, rows, -2 * h), axis=0)
    below = np.minimum.accumulate(np.where(wall, rows, 3 * h)[::-1], axis=0)[::-1]
    near = np.minimum(rows - above, below - rows).astype(np.float64)
    f = np.where(wall.any(axis=0), near * near, _BIG)
    g = f.copy()
    k = 1
    while k < w and k * k < g.max():
        np.minimum(g[:, k:], f[:, :-k] + k * k, out=g[:, k:])
        np.minimum(g[:, :-k], f[:, k:] + k * k, out=g[:, :-k])
        k += 1
    return np.sqrt(g) * cell_size


def _pick_seeds(dist: np.ndarray, free: np.ndarray, cell_size: float,
                separation: float, min_dist: float) -> list[tuple[int, int]]:
    """Local maxima of the wall-distance field, greedily thinned to the
    required separation. Maxima shallower than ``min_dist`` never seed a
    room (unless nothing deeper exists). A free cell is a maximum when no
    free 8-neighbor is strictly deeper; candidates go deepest first, then
    by row, then by column."""
    is_max = free.copy()
    for nb_free, nb_dist in zip(_neighbors(free, False), _neighbors(dist, -np.inf)):
        is_max &= ~(nb_free & (nb_dist > dist))
    rows, cols = np.nonzero(is_max)
    depth = dist[rows, cols]
    order = np.lexsort((cols, rows, -depth))
    seeds: list[tuple[int, int]] = []
    for d, r, c in zip(depth[order].tolist(), rows[order].tolist(),
                       cols[order].tolist()):
        if seeds and d < min_dist:
            break  # only shallow maxima remain
        ok = True
        for sr, sc in seeds:
            if math.hypot(r - sr, c - sc) * cell_size < separation:
                ok = False
                break
        if ok:
            seeds.append((r, c))
    return seeds


def segment_rooms(floors: FloorModel, occupancy: dict[str, OccupancyGrid],
                  peak_separation_m: float = ROOM_PEAK_SEPARATION_M,
                  seed_min_dist_m: float = ROOM_SEED_MIN_DIST_M) -> RoomModel:
    """The floor plan of ``floors``: each floor's free space partitioned
    into rooms.

    Distance transform from walls, seeds at its local maxima (suppressed
    below ``peak_separation_m`` apart, and below ``seed_min_dist_m`` deep
    unless nothing deeper exists), then priority-flood watershed: cells are
    labeled in order of decreasing wall distance, ties in the order they
    were queued, each taking the label of the already-labeled neighbor that
    reached it first. Free pockets no seed reaches get their own room so
    the partition is total, numbered by their deepest cell (distance, then
    row, then column). Labels are left unset (see :func:`label_rooms`).

    The flood runs on flat indices into byte strings, arrays and lists
    padded with one wall cell on every side, so a neighbor never needs a
    bounds check.
    """
    rooms: dict[str, np.ndarray] = {}
    for floor_id in sorted(occupancy):
        occ = occupancy[floor_id]
        free = np.asarray(occ.free, dtype=bool)
        if not np.any(free):
            rooms[floor_id] = np.full(free.shape, -1, dtype=np.int64)
            continue
        dist = distance_transform(free, occ.cell_size)
        seeds = _pick_seeds(dist, free, occ.cell_size, peak_separation_m,
                            seed_min_dist_m)
        h, w = free.shape
        wp = w + 2
        open_p = np.pad(free, 1, constant_values=False).tobytes()
        neg_dist = array("d", (-np.pad(dist, 1)).tobytes())
        labels = [-1] * ((h + 2) * wp)
        steps = (-wp, wp, -1, 1)
        heap: list[tuple[float, int, int, int]] = []
        for label, (r, c) in enumerate(seeds):
            i = (r + 1) * wp + c + 1
            labels[i] = label
            heapq.heappush(heap, (neg_dist[i], label, i, label))
        counter = len(seeds)
        while heap:
            _, _, i, label = heapq.heappop(heap)
            for step in steps:
                j = i + step
                if open_p[j] and labels[j] < 0:
                    labels[j] = label
                    heapq.heappush(heap, (neg_dist[j], counter, j, label))
                    counter += 1
        room_ids = np.array(labels, dtype=np.int64).reshape(h + 2, wp)[1:-1, 1:-1]
        pockets = free & (room_ids < 0)
        if np.any(pockets):
            rows, cols = np.nonzero(pockets)
            component = _components(pockets)[rows, cols]
            order = np.lexsort((cols, rows, -dist[rows, cols]))
            deepest = np.unique(component[order], return_index=True)[1]
            # a pocket's number is the rank of its deepest cell in that order
            room_ids[rows, cols] = len(seeds) + np.argsort(np.argsort(deepest))[component]
        rooms[floor_id] = np.ascontiguousarray(room_ids)
    return RoomModel(floors, dict(occupancy), rooms)


def label_rooms(model: RoomModel,
                votes: Iterable[tuple[str | None, Sequence[float] | None]],
                class_list: list[str]) -> RoomModel:
    """Label each room from the views taken inside it, with no request.

    ``votes`` holds one (room id, scores) pair per view: the room the
    camera stands in (None when it stands in none) and the view's score
    per class of ``class_list`` (None when the view has none). Each room
    sums its views' rows, counting only rows of one score per class, and
    takes the argmax class, ties broken by class order. A room whose
    total has no positive score, a room no view stands in included, is
    labeled "unknown".
    """
    if not class_list:
        raise GeometryInputError("class_list must be nonempty")
    totals = dict.fromkeys(model.room_ids(), (0.0,) * len(class_list))
    for room_id, scores in votes:
        if room_id in totals and scores is not None and len(scores) == len(class_list):
            totals[room_id] = tuple(map(sum, zip(totals[room_id], scores)))
    for room_id, total in totals.items():
        best = max(range(len(class_list)), key=lambda i: (total[i], -i))
        model.labels[room_id] = class_list[best] if total[best] > 0 else "unknown"
    return model


def _heading(pose: Pose) -> float | None:
    fwd = pose.rotation[:, 2]
    if math.hypot(fwd[0], fwd[1]) < 1e-9:
        return None  # looking straight up/down: yaw undefined
    return math.atan2(fwd[1], fwd[0])


def motion_label(prev: Pose, curr: Pose) -> str:
    """Egocentric motion between consecutive poses.

    Precedence: yaw beyond the threshold wins (positive yaw = left turn),
    then forward/backward translation along prev's optical axis, then
    vertical world displacement, else stationary.
    """
    h_prev = _heading(prev)
    h_curr = _heading(curr)
    if h_prev is not None and h_curr is not None:
        dyaw = math.atan2(math.sin(h_curr - h_prev), math.cos(h_curr - h_prev))
        if abs(dyaw) > math.radians(YAW_THRESHOLD_DEG):
            return "turn_left" if dyaw > 0 else "turn_right"
    t_rel = prev.rotation.T @ (curr.translation - prev.translation)
    if abs(t_rel[2]) > FORWARD_THRESHOLD_M:
        return "forward" if t_rel[2] > 0 else "backward"
    dz = curr.translation[2] - prev.translation[2]
    if abs(dz) > VERTICAL_THRESHOLD_M:
        return "ascend" if dz > 0 else "descend"
    return "stationary"


def build_nav_entry(frame, prev, room_label: str, fov_tag: str) -> NavLogEntry:
    """Assemble one navigation-log entry (no node ids) for a keyframe.

    ``frame``/``prev`` are keyframes (prev None for the first frame).
    ``room_label`` is the label of the room the camera stands in and
    ``fov_tag`` the frame's field-of-view tag (the build passes the one its
    detect reply carried, or "unavailable").
    """
    motion = "stationary" if prev is None else motion_label(prev.pose, frame.pose)
    return NavLogEntry(frame_id=frame.id, room_label=room_label, fov_tag=fov_tag,
                       motion_label=motion)
