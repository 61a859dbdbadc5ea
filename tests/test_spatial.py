"""Floor detection, room segmentation, motion labels and nav entries.

The watershed is checked against hand-built grids with known room
structure; the distance transform against an exhaustive reference, bit for
bit (and scipy when available). tests/test_floorplan.py checks every
floor-plan kernel against the per-cell code it replaced."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemem import (NavLogEntry, build_nav_entry, detect_floors, label_rooms,
                      motion_label, segment_rooms)
from scenemem.dataset import Keyframe
from scenemem.geometry import CameraIntrinsics, DepthMap, GeometryInputError
from scenemem.spatial import (ROOM_SNAP_M, FloorModel, OccupancyGrid, RoomModel,
                              distance_transform)

from conftest import brute_distance, make_pose, rng


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


ONE_FLOOR = FloorModel((("floor0", 0.0, 3.0),))


def reference_room_of_nearest(model: RoomModel, floor_id: str, x: float, y: float,
                              max_radius_m: float) -> str | None:
    """The two room lookups ``RoomModel.locate`` replaced, given the floor:
    the room of the point's own cell, else the nearest assigned cell within
    ``max_radius_m`` by (distance, row, column)."""
    occ = model.grids.get(floor_id)
    if occ is None:
        return None
    rooms = model.rooms[floor_id]
    r0, c0 = occ.cell_of(x, y)
    if occ.in_bounds(r0, c0) and rooms[r0, c0] >= 0:
        return f"{floor_id}/{int(rooms[r0, c0])}"
    max_cells = int(math.ceil(max_radius_m / occ.cell_size))
    best = None
    for dr in range(-max_cells, max_cells + 1):
        for dc in range(-max_cells, max_cells + 1):
            r, c = r0 + dr, c0 + dc
            if not occ.in_bounds(r, c):
                continue
            idx = int(rooms[r, c])
            if idx < 0:
                continue
            d = math.hypot(dr, dc)
            if d * occ.cell_size > max_radius_m:
                continue
            key = (d, r, c, idx)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return f"{floor_id}/{best[3]}"


def room_grid(w_cells: int, h_cells: int) -> np.ndarray:
    """All-free interior with a one-cell wall border."""
    free = np.zeros((h_cells + 2, w_cells + 2), dtype=bool)
    free[1:-1, 1:-1] = True
    return free


class TestDetectFloors:
    def test_single_mode_single_floor(self):
        g = rng(1)
        heights = g.normal(1.4, 0.02, 100)
        model = detect_floors(list(heights))
        assert len(model.floors) == 1
        assert model.floor_of(1.4) == "floor0"

    def test_two_floors_boundary_near_midpoint(self):
        g = rng(2)
        heights = list(g.normal(1.4, 0.02, 100)) + list(g.normal(4.3, 0.02, 100))
        model = detect_floors(heights)
        assert len(model.floors) == 2
        modes = brute_histogram_modes(heights, 0.1, 1.5)
        expected_boundary = (modes[0] + modes[1]) / 2
        assert expected_boundary == pytest.approx(2.85, abs=0.1)
        assert model.floors[0][2] == pytest.approx(expected_boundary, abs=1e-9)
        assert model.floor_of(1.4) == "floor0"
        assert model.floor_of(4.3) == "floor1"

    def test_modes_below_separation_collapse(self):
        heights = [1.0] * 50 + [1.5] * 50
        model = detect_floors(heights)
        assert len(model.floors) == 1

    def test_empty_heights_rejected(self):
        with pytest.raises(GeometryInputError):
            detect_floors([])

    def test_assignment_total_and_clamping(self):
        g = rng(3)
        heights = list(g.normal(1.0, 0.02, 50)) + list(g.normal(4.0, 0.02, 50))
        model = detect_floors(heights)
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
        model = detect_floors(list(heights))
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
        model = segment_rooms(ONE_FLOOR, {"floor0": occ})
        assert len(model.room_ids()) == 2
        _, left = model.locate(1.0, 1.5, 1.4)
        _, right = model.locate(4.5, 1.5, 1.4)
        assert left is not None and right is not None and left != right
        # flood-fill oracle: rooms = free components once the doorway closes
        blocked = free.copy()
        blocked[:, 31] = False
        for room_cells in _components(blocked):
            labels = {int(model.rooms["floor0"][r, c]) for r, c in room_cells}
            assert len(labels) == 1

    def test_single_open_square_one_room(self):
        occ = OccupancyGrid(free=room_grid(30, 30), origin=(0, 0), cell_size=0.1)
        model = segment_rooms(ONE_FLOOR, {"floor0": occ})
        assert len(model.room_ids()) == 1

    def test_all_wall_grid_zero_rooms(self):
        occ = OccupancyGrid(free=np.zeros((10, 10), dtype=bool),
                            origin=(0, 0), cell_size=0.1)
        model = segment_rooms(ONE_FLOOR, {"floor0": occ})
        assert model.room_ids() == []
        assert model.locate(0.5, 0.5, 1.4) == ("floor0", None)

    def test_partition_total_and_disjoint(self):
        g = rng(6)
        free = room_grid(40, 25)
        free[10:15, 12:30] = False  # an internal wall chunk
        occ = OccupancyGrid(free=free, origin=(0, 0), cell_size=0.1)
        model = segment_rooms(ONE_FLOOR, {"floor0": occ})
        ids = model.rooms["floor0"]
        assert ((ids >= 0) == free).all()  # every free cell in exactly one room

    def test_nearest_lookup_snaps_to_free(self):
        occ = OccupancyGrid(free=room_grid(10, 10), origin=(0, 0), cell_size=0.1)
        model = segment_rooms(ONE_FLOOR, {"floor0": occ})
        for x, y in ((0.05, 0.05), (-0.3, 0.5), (1.15, 1.15), (-0.6, 0.5)):
            assert model.locate(x, y, 1.4) == \
                ("floor0", reference_room_of_nearest(model, "floor0", x, y, ROOM_SNAP_M))
        assert model.locate(0.05, 0.05, 1.4)[1] is not None  # border wall
        assert model.locate(-0.6, 0.5, 1.4) == ("floor0", None)  # too far out


class TestLocate:
    """``locate`` against the reference lookups at ``ROOM_SNAP_M``, on
    random room grids over two floors (a third floor has no grid): every
    cell of each grid and a margin around it, at several sub-cell offsets,
    including points exactly on a cell edge and exactly on the floor
    boundary."""

    FLOORS = FloorModel((("floor0", 0.0, 2.5), ("floor1", 2.5, 5.0),
                         ("floor2", 5.0, 7.5)))

    def _random_model(self, seed: int) -> RoomModel:
        g = rng(seed)
        grids, rooms = {}, {}
        for floor_id, shape, origin, cell in (("floor0", (9, 12), (-0.35, 0.2), 0.1),
                                              ("floor1", (7, 6), (1.0, -0.6), 0.2)):
            ids = g.integers(0, 4, size=shape)
            ids[g.random(shape) < 0.6] = -1  # mostly unassigned: snapping matters
            grids[floor_id] = OccupancyGrid(free=ids >= 0, origin=origin, cell_size=cell)
            rooms[floor_id] = ids
        return RoomModel(self.FLOORS, grids, rooms)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_reference(self, seed):
        model = self._random_model(seed)
        below = float(np.nextafter(2.5, -np.inf))
        for z, floor_id in ((below, "floor0"), (2.5, "floor1"), (-1.0, "floor0"),
                            (6.0, "floor2")):
            grid = model.grids.get(floor_id, model.grids["floor1"])
            h, w = grid.free.shape
            checked = 0
            for r in range(-4, h + 4):
                for c in range(-4, w + 4):
                    for fr, fc in ((0.0, 0.0), (0.25, 0.5), (0.5, 0.999), (0.75, 0.1)):
                        x = grid.origin[0] + (c + fc) * grid.cell_size
                        y = grid.origin[1] + (r + fr) * grid.cell_size
                        expected = reference_room_of_nearest(model, floor_id,
                                                             x, y, ROOM_SNAP_M)
                        assert model.locate(x, y, z) == (floor_id, expected), (z, x, y)
                        checked += expected is not None
            assert checked or floor_id == "floor2"

    def test_exact_lookup_is_the_cell_itself(self):
        model = self._random_model(9)
        ids = model.rooms["floor0"]
        for r, c in np.argwhere(ids >= 0):
            x = -0.35 + (c + 0.5) * 0.1
            y = 0.2 + (r + 0.5) * 0.1
            assert model.locate(x, y, 1.0) == ("floor0", f"floor0/{ids[r, c]}")


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


def _rooms_model(n: int) -> RoomModel:
    """``n`` one-cell rooms side by side; ids floor0/0 .. floor0/<n-1>."""
    return RoomModel(ONE_FLOOR, {}, {"floor0": np.arange(n).reshape(1, n)})


CLASSES = ["bedroom", "kitchen", "office"]


class TestLabelRooms:
    """Each room sums the class scores of the views taken in it; the
    labelling sends nothing (it takes no backend)."""

    def test_each_room_takes_the_argmax_of_its_summed_votes(self):
        model = _rooms_model(12)
        out = label_rooms(model, [
            ("floor0/10", (0.0, 0.2, 0.9)), ("floor0/2", (0.1, 0.8, 0.0)),
            ("floor0/10", (0.0, 0.7, 0.0)), ("floor0/0", (0.6, 0.0, 0.1)),
            ("floor0/10", (0.0, 0.3, 0.2))], CLASSES)
        assert out is model
        # every room is labelled, in room_ids() order (10 after 9)
        assert list(model.labels) == model.room_ids()
        assert model.labels == {**dict.fromkeys(model.room_ids(), "unknown"),
                                "floor0/0": "bedroom", "floor0/2": "kitchen",
                                "floor0/10": "kitchen"}

    def test_tie_goes_to_the_earlier_class(self):
        model = _rooms_model(1)
        label_rooms(model, [("floor0/0", (0.0, 1.0, 0.5)),
                            ("floor0/0", (0.0, 0.0, 0.5))], CLASSES)
        assert model.label_of("floor0/0") == "kitchen"
        label_rooms(model, [("floor0/0", (0.0, 1.0, 0.5)),
                            ("floor0/0", (1.0, 0.0, 0.5))], CLASSES)
        assert model.label_of("floor0/0") == "bedroom"

    @pytest.mark.parametrize("rows", [[(0.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)] * 3,
                                      [(-1.0, -0.5, -2.0)], [(1.0, 0.0, 0.0),
                                                             (-1.0, 0.0, 0.0)]],
                             ids=["zero", "zeros", "negative", "cancelled"])
    def test_room_without_a_positive_total_is_unknown(self, rows):
        model = _rooms_model(1)
        label_rooms(model, [("floor0/0", row) for row in rows], CLASSES)
        assert model.labels == {"floor0/0": "unknown"}

    @pytest.mark.parametrize("row", [(1.0, 0.0), (0.0, 0.0, 0.0, 1.0), ()],
                             ids=["short", "long", "empty"])
    def test_row_of_another_length_is_ignored(self, row):
        model = _rooms_model(2)
        label_rooms(model, [("floor0/0", (0.0, 0.0, 0.4)), ("floor0/0", row),
                            ("floor0/1", row)], CLASSES)
        assert model.labels == {"floor0/0": "office", "floor0/1": "unknown"}

    def test_room_with_no_keyframe_is_unknown(self):
        """A room no view stands in, and a view standing in no room or
        carrying no scores, give no label."""
        model = _rooms_model(3)
        label_rooms(model, [("floor0/1", (0.0, 1.0, 0.0)), (None, (1.0, 0.0, 0.0)),
                            ("floor0/2", None), ("floor1/0", (1.0, 0.0, 0.0))],
                    CLASSES)
        assert model.labels == {"floor0/0": "unknown", "floor0/1": "kitchen",
                                "floor0/2": "unknown"}

    def test_empty_class_list_refused(self):
        with pytest.raises(GeometryInputError, match="class_list"):
            label_rooms(_rooms_model(1), [], [])


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


def _keyframe(fid: int, pose) -> Keyframe:
    intr = CameraIntrinsics(fx=10, fy=10, cx=4, cy=4, width=8, height=8)
    return Keyframe(id=fid, intrinsics=intr, pose=pose,
                    depth=DepthMap(np.ones((8, 8))), image_locator="x://f")


class TestBuildNavEntry:
    def test_first_frame_stationary(self):
        frame = _keyframe(0, make_pose(0, (0.5, 0.5, 1.4)))
        entry = build_nav_entry(frame, None, "unknown", "view 0")
        assert entry.motion_label == "stationary"
        assert entry.room_label == "unknown"
        assert entry.fov_tag == "view 0"

    def test_motion_from_the_previous_keyframe(self):
        prev = _keyframe(1, make_pose(0, (0.5, 0.5, 1.4)))
        frame = _keyframe(2, make_pose(0, (1.0, 0.5, 1.4)))
        entry = build_nav_entry(frame, prev, "kitchen", "view 2")
        assert (entry.frame_id, entry.room_label, entry.motion_label) \
            == (2, "kitchen", "forward")

    def test_motion_label_enum_guard(self):
        with pytest.raises(GeometryInputError):
            NavLogEntry(frame_id=0, room_label="x", fov_tag="y",
                        motion_label="moonwalk")
