"""The floor-plan kernels against the per-cell code they replaced.

``reference_*`` below are the former implementations of the wall distance
transform (a lower-envelope transform per row and column), the seed
picking, the heap watershed and the speckle pruning. The array and
flat-index kernels must reproduce them bit for bit, on random grids, on
degenerate grids and on the occupancy grids of real builds."""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from scenemem import generate_scene, pipeline, spatial
from scenemem.geometry import PointCloud
from scenemem.spatial import (FloorModel, OccupancyGrid, _pick_seeds, detect_floors,
                              distance_transform, segment_rooms)

from conftest import brute_distance, rng

_BIG = 1e18
_NEIGH8 = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                if (dr, dc) != (0, 0))
_NEIGH4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
# (peak separation, seed minimum depth) of the engine's watershed, and a
# tighter pair
_SEEDING = (spatial.ROOM_PEAK_SEPARATION_M, spatial.ROOM_SEED_MIN_DIST_M)
_TIGHT_SEEDING = (0.5, 0.2)


def reference_edt_1d(f: np.ndarray) -> np.ndarray:
    """Squared-distance transform of one row (lower-envelope parabolas)."""
    n = f.size
    d = np.empty(n, dtype=np.float64)
    v = np.zeros(n, dtype=np.int64)
    z = np.full(n + 1, 0.0)
    z[0] = -_BIG
    z[1] = _BIG
    k = 0
    for q in range(1, n):
        s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        while s <= z[k]:
            k -= 1
            s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        k += 1
        v[k] = q
        z[k] = s
        z[k + 1] = _BIG
    k = 0
    for q in range(n):
        while z[k + 1] < q:
            k += 1
        d[q] = (q - v[k]) ** 2 + f[v[k]]
    return d


def reference_distance_transform(free: np.ndarray, cell_size: float) -> np.ndarray:
    free = np.asarray(free, dtype=bool)
    if not np.any(~free):
        return np.full(free.shape, _BIG, dtype=np.float64)
    g = np.where(free, _BIG, 0.0)
    g = np.apply_along_axis(reference_edt_1d, 0, g)
    g = np.apply_along_axis(reference_edt_1d, 1, g)
    return np.sqrt(g) * cell_size


def reference_pick_seeds(dist, free, cell_size, separation, min_dist):
    rows, cols = np.nonzero(free)
    candidates = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        d = dist[r, c]
        is_max = True
        for dr, dc in _NEIGH8:
            rr, cc = r + dr, c + dc
            if 0 <= rr < dist.shape[0] and 0 <= cc < dist.shape[1]:
                if free[rr, cc] and dist[rr, cc] > d:
                    is_max = False
                    break
        if is_max:
            candidates.append((-d, r, c))
    candidates.sort()
    seeds = []
    for neg_d, r, c in candidates:
        if seeds and -neg_d < min_dist:
            break
        ok = True
        for sr, sc in seeds:
            if math.hypot(r - sr, c - sc) * cell_size < separation:
                ok = False
                break
        if ok:
            seeds.append((r, c))
    return seeds


def reference_watershed(free: np.ndarray, cell_size: float,
                        seeding: tuple[float, float]) -> tuple[np.ndarray, int]:
    """Room ids of one floor, and the number of isolated pockets seeded."""
    free = np.asarray(free, dtype=bool)
    room_ids = np.full(free.shape, -1, dtype=np.int64)
    if not np.any(free):
        return room_ids, 0
    dist = reference_distance_transform(free, cell_size)
    seeds = reference_pick_seeds(dist, free, cell_size, *seeding)
    counter = 0
    heap = []
    for label, (r, c) in enumerate(seeds):
        room_ids[r, c] = label
        heapq.heappush(heap, (-dist[r, c], counter, r, c, label))
        counter += 1
    next_label = len(seeds)
    while True:
        while heap:
            _, _, r, c, label = heapq.heappop(heap)
            for dr, dc in _NEIGH4:
                rr, cc = r + dr, c + dc
                if (0 <= rr < free.shape[0] and 0 <= cc < free.shape[1]
                        and free[rr, cc] and room_ids[rr, cc] < 0):
                    room_ids[rr, cc] = label
                    heapq.heappush(heap, (-dist[rr, cc], counter, rr, cc, label))
                    counter += 1
        unlabeled = free & (room_ids < 0)
        if not np.any(unlabeled):
            break
        rows, cols = np.nonzero(unlabeled)
        best = max(range(rows.size),
                   key=lambda i: (dist[rows[i], cols[i]], -rows[i], -cols[i]))
        r, c = int(rows[best]), int(cols[best])
        room_ids[r, c] = next_label
        heapq.heappush(heap, (-dist[r, c], counter, r, c, next_label))
        counter += 1
        next_label += 1
    return room_ids, next_label - len(seeds)


def reference_drop_small_components(free: np.ndarray, min_cells: int) -> np.ndarray:
    out = free.copy()
    visited = np.zeros_like(free, dtype=bool)
    h, w = free.shape
    for r0 in range(h):
        for c0 in range(w):
            if not free[r0, c0] or visited[r0, c0]:
                continue
            stack = [(r0, c0)]
            visited[r0, c0] = True
            component = []
            while stack:
                r, c = stack.pop()
                component.append((r, c))
                for dr, dc in _NEIGH4:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and free[rr, cc] \
                            and not visited[rr, cc]:
                        visited[rr, cc] = True
                        stack.append((rr, cc))
            if len(component) < min_cells:
                for r, c in component:
                    out[r, c] = False
    return out


def _random_grids(seed: int, count: int):
    """Random free/wall grids, 1-40 cells a side, at varied wall densities,
    some of them as blocks of rooms so the watershed has basins to find."""
    g = rng(seed)
    for i in range(count):
        h, w = (int(x) for x in g.integers(1, 41, 2))
        if i % 3 == 2:
            cells = g.random((h // 4 + 1, w // 4 + 1)) < 0.7
            free = np.kron(cells, np.ones((4, 4), dtype=bool))[:h, :w]
            free &= g.random((h, w)) > 0.05
        else:
            free = g.random((h, w)) < g.uniform(0.0, 1.0)
        yield free


def _degenerate_grids():
    """All wall, all free, one wall, walls only in corners, 1 x n and n x 1."""
    grids = []
    for h, w in ((1, 1), (1, 7), (7, 1), (5, 6), (40, 40)):
        grids.append(np.zeros((h, w), dtype=bool))
        grids.append(np.ones((h, w), dtype=bool))
        one = np.ones((h, w), dtype=bool)
        one[h // 2, w // 3] = False
        grids.append(one)
        corners = np.ones((h, w), dtype=bool)
        corners[0, 0] = corners[-1, -1] = False
        grids.append(corners)
        corner = np.ones((h, w), dtype=bool)
        corner[0, -1] = False
        grids.append(corner)
    g = rng(91)
    for n in (2, 3, 17, 40):
        for p in (0.1, 0.5, 0.9):
            grids.append(g.random((1, n)) < p)
            grids.append(g.random((n, 1)) < p)
    return grids


def _test_grids():
    return list(_random_grids(90, 300)) + _degenerate_grids()


def _assert_floor_plan_matches(free: np.ndarray, cell_size: float,
                               seeding: tuple[float, float] = _SEEDING) -> int:
    """Every kernel equals its reference on one grid; returns the number of
    isolated pockets the watershed had to seed."""
    dist = distance_transform(free, cell_size)
    expected_dist = reference_distance_transform(free, cell_size)
    assert np.array_equal(dist, expected_dist)
    if np.any(free):
        assert _pick_seeds(dist, free, cell_size, *seeding) == reference_pick_seeds(
            expected_dist, free, cell_size, *seeding)
    occ = OccupancyGrid(free=free, origin=(0.0, 0.0), cell_size=cell_size)
    room_ids = segment_rooms(FloorModel((("floor0", 0.0, 3.0),)), {"floor0": occ},
                             *seeding).rooms["floor0"]
    expected_ids, pockets = reference_watershed(free, cell_size, seeding)
    assert room_ids.dtype == expected_ids.dtype
    assert np.array_equal(room_ids, expected_ids)
    return pockets


class TestKernelsMatchReference:
    def test_distance_transform_on_random_and_degenerate_grids(self):
        for i, free in enumerate(_test_grids()):
            cell = (0.1, 0.05, 1.0, 0.3)[i % 4]
            mine = distance_transform(free, cell)
            assert mine.dtype == np.float64
            assert np.array_equal(mine, reference_distance_transform(free, cell))
            assert np.array_equal(mine, brute_distance(free, cell))

    def test_floor_plan_on_random_and_degenerate_grids(self):
        pockets = 0
        for i, free in enumerate(_test_grids()):
            pockets += _assert_floor_plan_matches(free, (0.1, 0.25)[i % 3 == 0],
                                                  (_SEEDING, _TIGHT_SEEDING)[i % 2])
        assert pockets > 0  # the isolated-pocket fallback ran

    def test_drop_small_components_on_random_and_degenerate_grids(self):
        for i, free in enumerate(_test_grids()):
            for min_cells in (1, 2, 5, 100):
                mine = spatial._drop_small_components(free, min_cells)
                expected = reference_drop_small_components(free, min_cells)
                assert mine.dtype == expected.dtype
                assert np.array_equal(mine, expected)


@pytest.fixture(scope="module")
def built_occupancy(small_scene):
    """The occupancy grids of a 2x3 and an 8x3 build, with every input the
    speckle pruning saw on the way."""
    out = []
    for scene in (small_scene, generate_scene(8, 3, seed=1000)):
        episode = scene.episode()
        floors = detect_floors([float(f.pose.translation[2]) for f in episode.frames])
        pruned = []
        real = spatial._drop_small_components

        def spy(free, min_cells):
            pruned.append((free.copy(), min_cells))
            return real(free, min_cells)

        spatial._drop_small_components = spy
        try:
            grids = spatial.occupancy_grids(pipeline._structure_cloud(episode), floors)
        finally:
            spatial._drop_small_components = real
        out.append((grids, pruned))
    return out


class TestBuiltGridsMatchReference:
    def test_floor_plan(self, built_occupancy):
        for grids, _ in built_occupancy:
            assert grids
            for occ in grids.values():
                assert occ.free.sum() > 100
                _assert_floor_plan_matches(occ.free, occ.cell_size)

    def test_drop_small_components(self, built_occupancy):
        for grids, pruned in built_occupancy:
            assert len(pruned) == len(grids)
            for (free, min_cells), occ in zip(pruned, grids.values()):
                expected = reference_drop_small_components(free, min_cells)
                assert np.array_equal(occ.free, expected)
                assert not np.array_equal(free, expected)  # some speckle dropped


class TestFloorAssignment:
    def test_indices_match_per_point_floor_of(self):
        g = rng(93)
        for k in (1, 2, 3):
            floors = detect_floors([3.0 * i + 1.4 for i in range(k) for _ in range(5)])
            assert len(floors.floors) == k
            bounds = [f[2] for f in floors.floors]
            z = np.concatenate([g.uniform(-2.0, 3.0 * k + 1.0, 2000), bounds,
                                np.nextafter(bounds, -np.inf),
                                np.nextafter(bounds, np.inf), [-np.inf, np.inf]])
            ids = [f[0] for f in floors.floors]
            expected = [ids.index(floors.floor_of(h)) for h in z]
            assert floors.indices_of(z).tolist() == expected

    def test_two_floor_grids_match_per_point_floor_of(self):
        g = rng(92)
        floors = FloorModel((("floor0", 0.0, 2.5), ("floor1", 2.5, 6.0)))
        z = np.concatenate([g.uniform(-1.0, 7.0, 3000),
                            [2.5, 2.5, np.nextafter(2.5, 0), np.nextafter(2.5, 9)]])
        pts = np.column_stack([g.uniform(0.0, 4.0, z.size),
                               g.uniform(0.0, 3.0, z.size), z])
        grids = spatial.occupancy_grids(PointCloud(pts), floors)
        per_point = np.array([floors.floor_of(float(h)) for h in z])
        assert set(grids) == {"floor0", "floor1"}
        for floor_id, lo, hi in floors.floors:
            sub = pts[per_point == floor_id]
            alone = spatial.occupancy_grids(
                PointCloud(sub), FloorModel(((floor_id, lo, hi),)))[floor_id]
            assert grids[floor_id].origin == alone.origin
            assert np.array_equal(grids[floor_id].free, alone.free)
        assert (per_point == "floor1").sum() > 0 and (per_point == "floor0").sum() > 0
        assert floors.floor_of(2.5) == "floor1"  # bisect_right: a boundary goes up
