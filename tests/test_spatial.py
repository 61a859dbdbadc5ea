"""Floor detection, room segmentation, motion labels and nav entries.

The watershed is checked against hand-built grids with known room
structure; the distance transform against an exhaustive reference, bit for
bit (and scipy when available). tests/test_floorplan.py checks every
floor-plan kernel against the per-cell code it replaced."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemem import (NavLogEntry, build_nav_entry, detect_floors, label_rooms,
                      motion_label, segment_rooms)
from scenemem.backend import Backend, TransportError
from scenemem.dataset import Keyframe
from scenemem.geometry import CameraIntrinsics, DepthMap, GeometryInputError
from scenemem.spatial import FloorModel, OccupancyGrid, RoomModel, distance_transform

from conftest import make_pose, rng


def brute_distance(free: np.ndarray, cell: float) -> np.ndarray:
    """Exhaustive nearest-wall distance, meters."""
    walls = np.argwhere(~free)
    out = np.zeros(free.shape)
    for r in range(free.shape[0]):
        for c in range(free.shape[1]):
            if walls.size == 0:
                out[r, c] = 1e18
            else:
                d2 = ((walls - np.array([r, c])) ** 2).sum(axis=1)
                out[r, c] = np.sqrt(d2.min()) * cell
    return out


def brute_histogram_modes(heights, bin_size, separation):
    """Greedy mode picking over an explicit histogram."""
    heights = np.asarray(heights, float)
    lo, hi = heights.min(), heights.max()
    nbins = max(1, int(np.floor((hi - lo) / bin_size)) + 1)
    idx = np.minimum(((heights - lo) / bin_size).astype(int), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    centers = lo + (np.arange(nbins) + 0.5) * bin_size
    modes = []
    for b in sorted(range(nbins), key=lambda b: (-counts[b], b)):
        if counts[b] == 0:
            break
        if all(abs(centers[b] - m) >= separation for m in modes):
            modes.append(float(centers[b]))
    return sorted(modes)


def room_grid(w_cells: int, h_cells: int) -> np.ndarray:
    """All-free interior with a one-cell wall border."""
    free = np.zeros((h_cells + 2, w_cells + 2), dtype=bool)
    free[1:-1, 1:-1] = True
    return free


class TestDetectFloors:
    def test_single_mode_single_floor(self):
        g = rng(1)
        heights = g.normal(1.4, 0.02, 100)
        model = detect_floors(list(heights), 0.1)
        assert len(model.floors) == 1
        assert model.floor_of(1.4) == "floor0"

    def test_two_floors_boundary_near_midpoint(self):
        g = rng(2)
        heights = list(g.normal(1.4, 0.02, 100)) + list(g.normal(4.3, 0.02, 100))
        model = detect_floors(heights, 0.1)
        assert len(model.floors) == 2
        modes = brute_histogram_modes(heights, 0.1, 1.5)
        expected_boundary = (modes[0] + modes[1]) / 2
        assert expected_boundary == pytest.approx(2.85, abs=0.1)
        assert model.floors[0][2] == pytest.approx(expected_boundary, abs=1e-9)
        assert model.floor_of(1.4) == "floor0"
        assert model.floor_of(4.3) == "floor1"

    def test_modes_below_separation_collapse(self):
        heights = [1.0] * 50 + [1.5] * 50
        model = detect_floors(heights, 0.1)
        assert len(model.floors) == 1

    def test_empty_heights_rejected(self):
        with pytest.raises(GeometryInputError):
            detect_floors([], 0.1)

    def test_assignment_total_and_clamping(self):
        g = rng(3)
        heights = list(g.normal(1.0, 0.02, 50)) + list(g.normal(4.0, 0.02, 50))
        model = detect_floors(heights, 0.1)
        for h in (-10.0, 0.0, 2.49, 2.51, 100.0):
            assert model.floor_of(h) in {"floor0", "floor1"}
        assert model.floor_of(-10.0) == "floor0"
        assert model.floor_of(100.0) == "floor1"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=20)
    def test_mode_count_matches_reference(self, seed, k):
        g = rng(seed)
        levels = [3.0 * i for i in range(k)]
        heights = np.concatenate([g.normal(lv + 1.4, 0.05, 60) for lv in levels])
        model = detect_floors(list(heights), 0.1)
        assert len(model.floors) == len(brute_histogram_modes(heights, 0.1, 1.5))


class TestDistanceTransform:
    def test_matches_brute_force(self):
        g = rng(4)
        for _ in range(5):
            free = g.random((15, 20)) > 0.3
            mine = distance_transform(free, 0.1)
            np.testing.assert_array_equal(mine, brute_distance(free, 0.1))

    def test_matches_scipy(self):
        scipy_ndimage = pytest.importorskip("scipy.ndimage")
        g = rng(5)
        free = g.random((30, 40)) > 0.25
        mine = distance_transform(free, 1.0)
        theirs = scipy_ndimage.distance_transform_edt(free)
        np.testing.assert_allclose(mine, theirs, atol=1e-9)

    def test_no_walls_large_everywhere(self):
        out = distance_transform(np.ones((4, 4), dtype=bool), 0.1)
        assert (out > 1e6).all()

    def test_wall_free_rows_and_columns(self):
        # walls only in two corners: most columns have no wall at all, so
        # the row pass must carry distances across the whole width
        free = np.ones((18, 25), dtype=bool)
        free[0, 0] = False
        free[17, 24] = False
        mine = distance_transform(free, 0.5)
        np.testing.assert_array_equal(mine, brute_distance(free, 0.5))


class TestSegmentRooms:
    def test_two_squares_with_doorway(self):
        # two 3x3 m rooms (0.1 m cells) joined by a 0.6 m doorway
        free = np.zeros((32, 63), dtype=bool)
        free[1:31, 1:31] = True      # left room
        free[1:31, 32:62] = True     # right room
        free[13:19, 31] = True       # doorway gap in the shared wall
        occ = OccupancyGrid(free=free, origin=(0.0, 0.0), cell_size=0.1)
        model = segment_rooms({"floor0": occ})
        assert len(model.room_ids()) == 2
        left = model.room_of("floor0", 1.0, 1.5)
        right = model.room_of("floor0", 4.5, 1.5)
        assert left is not None and right is not None and left != right
        # flood-fill oracle: rooms = free components once the doorway closes
        blocked = free.copy()
        blocked[:, 31] = False
        for room_cells in _components(blocked):
            labels = {int(model.rooms["floor0"][r, c]) for r, c in room_cells}
            assert len(labels) == 1

    def test_single_open_square_one_room(self):
        occ = OccupancyGrid(free=room_grid(30, 30), origin=(0, 0), cell_size=0.1)
        model = segment_rooms({"floor0": occ})
        assert len(model.room_ids()) == 1

    def test_all_wall_grid_zero_rooms(self):
        occ = OccupancyGrid(free=np.zeros((10, 10), dtype=bool),
                            origin=(0, 0), cell_size=0.1)
        model = segment_rooms({"floor0": occ})
        assert model.room_ids() == []
        assert model.room_of("floor0", 0.5, 0.5) is None

    def test_partition_total_and_disjoint(self):
        g = rng(6)
        free = room_grid(40, 25)
        free[10:15, 12:30] = False  # an internal wall chunk
        occ = OccupancyGrid(free=free, origin=(0, 0), cell_size=0.1)
        model = segment_rooms({"floor0": occ})
        ids = model.rooms["floor0"]
        assert ((ids >= 0) == free).all()  # every free cell in exactly one room

    def test_nearest_lookup_snaps_to_free(self):
        occ = OccupancyGrid(free=room_grid(10, 10), origin=(0, 0), cell_size=0.1)
        model = segment_rooms({"floor0": occ})
        assert model.room_of("floor0", 0.0, 0.0) is None  # border wall
        assert model.room_of_nearest("floor0", 0.05, 0.05, 0.5) is not None


def _components(free: np.ndarray) -> list[list[tuple[int, int]]]:
    seen = np.zeros_like(free, dtype=bool)
    out = []
    for r0, c0 in np.argwhere(free):
        if seen[r0, c0]:
            continue
        comp = [(int(r0), int(c0))]
        seen[r0, c0] = True
        stack = [(int(r0), int(c0))]
        while stack:
            r, c = stack.pop()
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < free.shape[0] and 0 <= cc < free.shape[1] \
                        and free[rr, cc] and not seen[rr, cc]:
                    seen[rr, cc] = True
                    comp.append((rr, cc))
                    stack.append((rr, cc))
        out.append(comp)
    return out


class _ScoreStub(Backend):
    def __init__(self, winner: str | None = None, fail=False):
        super().__init__()
        self.winner = winner
        self.fail_mode = fail

    def raw_call(self, request):
        if self.fail_mode:
            raise TransportError("down")
        classes = request.payload["classes"]
        if self.winner is None:
            return {"scores": [0.0] * len(classes)}
        return {"scores": [1.0 if c == self.winner else 0.0 for c in classes]}


def _one_room_model() -> RoomModel:
    occ = OccupancyGrid(free=room_grid(10, 10), origin=(0, 0), cell_size=0.1)
    return segment_rooms({"floor0": occ})


class TestLabelRooms:
    def test_scripted_scoring_assigns_argmax(self):
        model = _one_room_model()
        room_id = model.room_ids()[0]
        backend = _ScoreStub(winner="kitchen")
        out = label_rooms(model, {room_id: ["stove", "refrigerator"]}, backend,
                          ["bedroom", "kitchen", "office"])
        assert out.label_of(room_id) == "kitchen"

    def test_empty_room_unknown(self):
        model = _one_room_model()
        room_id = model.room_ids()[0]
        out = label_rooms(model, {}, backend=_ScoreStub("kitchen"),
                          class_list=["kitchen"])
        assert out.label_of(room_id) == "unknown"

    def test_backend_failure_unknown(self):
        model = _one_room_model()
        room_id = model.room_ids()[0]
        out = label_rooms(model, {room_id: ["stove"]}, _ScoreStub(fail=True),
                          ["kitchen"])
        assert out.label_of(room_id) == "unknown"

    def test_tie_broken_by_class_order(self):
        model = _one_room_model()
        room_id = model.room_ids()[0]
        out = label_rooms(model, {room_id: ["stove"]}, _ScoreStub(winner=None),
                          ["office", "kitchen"])
        assert out.label_of(room_id) == "office"


class TestMotionLabel:
    def test_identical_poses_stationary(self):
        p = make_pose(yaw_deg=30, position=(1, 2, 1.4))
        assert motion_label(p, p) == "stationary"

    def test_forward_along_optical_axis(self):
        a = make_pose(yaw_deg=0, position=(0, 0, 1.4))
        b = make_pose(yaw_deg=0, position=(0.5, 0, 1.4))
        assert motion_label(a, b) == "forward"
        assert motion_label(b, a) == "backward"

    def test_rotation_takes_precedence(self):
        a = make_pose(yaw_deg=0, position=(0, 0, 1.4))
        b = make_pose(yaw_deg=45, position=(0.05, 0, 1.4))
        assert motion_label(a, b) == "turn_left"
        assert motion_label(b, a) == "turn_right"

    def test_positive_yaw_is_left(self):
        a = make_pose(yaw_deg=0)
        b = make_pose(yaw_deg=20)
        assert motion_label(a, b) == "turn_left"

    def test_ascend_descend(self):
        a = make_pose(yaw_deg=0, position=(0, 0, 1.0))
        b = make_pose(yaw_deg=0, position=(0, 0, 1.5))
        assert motion_label(a, b) == "ascend"
        assert motion_label(b, a) == "descend"

    def test_small_motion_stationary(self):
        a = make_pose(yaw_deg=0, position=(0, 0, 1.4))
        b = make_pose(yaw_deg=5, position=(0.05, 0.02, 1.45))
        assert motion_label(a, b) == "stationary"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_invariant_under_gravity_preserving_rigid_transform(self, seed):
        """Egocentricity: rotating the world about vertical and translating
        it must not change the label (ascend/descend keys on world
        vertical, so tilting transforms are out of scope)."""
        g = rng(seed)
        a = make_pose(float(g.uniform(-180, 180)), g.uniform(-3, 3, 3))
        b = make_pose(float(g.uniform(-180, 180)), g.uniform(-3, 3, 3))
        label = motion_label(a, b)
        theta = float(g.uniform(-np.pi, np.pi))
        q = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0],
                      [0, 0, 1]])
        shift = g.uniform(-5, 5, 3)
        from scenemem import Pose
        a2 = Pose(q @ a.rotation, q @ a.translation + shift)
        b2 = Pose(q @ b.rotation, q @ b.translation + shift)
        assert motion_label(a2, b2) == label


class _FovStub(Backend):
    def __init__(self, fail=False):
        super().__init__()
        self.fail_mode = fail

    def raw_call(self, request):
        if self.fail_mode:
            raise TransportError("no fov")
        return {"tag": f"view {request.frame_id}"}


def _keyframe(fid: int, pose) -> Keyframe:
    intr = CameraIntrinsics(fx=10, fy=10, cx=4, cy=4, width=8, height=8)
    return Keyframe(id=fid, intrinsics=intr, pose=pose,
                    depth=DepthMap(np.ones((8, 8))), image_locator="x://f")


class TestBuildNavEntry:
    def test_first_frame_stationary(self):
        frame = _keyframe(0, make_pose(0, (0.5, 0.5, 1.4)))
        entry = build_nav_entry(frame, None, None, None, {3, 1}, _FovStub())
        assert entry.motion_label == "stationary"
        assert entry.visible_node_ids == (1, 3)
        assert entry.fov_tag == "view 0"

    def test_room_lookup_from_camera_position(self):
        model = _one_room_model()
        room_id = model.room_ids()[0]
        model.labels[room_id] = "kitchen"
        floors = FloorModel((("floor0", 0.0, 3.0),))
        frame = _keyframe(2, make_pose(0, (0.5, 0.5, 1.4)))
        entry = build_nav_entry(frame, None, model, floors, set(), _FovStub())
        assert entry.room_label == "kitchen"

    def test_fov_failure_tag_unavailable(self):
        frame = _keyframe(1, make_pose(0, (0.5, 0.5, 1.4)))
        entry = build_nav_entry(frame, None, None, None, set(), _FovStub(fail=True))
        assert entry.fov_tag == "unavailable"

    def test_motion_label_enum_guard(self):
        with pytest.raises(GeometryInputError):
            NavLogEntry(frame_id=0, room_label="x", fov_tag="y",
                        motion_label="moonwalk", visible_node_ids=())
