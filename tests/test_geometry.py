"""Geometry oracles: every derived expectation is computed by an
independent brute-force reference in this file, never by the code under
test."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemem import (CameraIntrinsics, DepthMap, PixelMask, PointCloud, Pose,
                      backproject, geometric_overlap, largest_cluster,
                      voxel_downsample)
from scenemem.geometry import GeometryInputError, project

from conftest import make_pose, rng


# -- brute-force references -------------------------------------------------

def brute_overlap(det: np.ndarray, trk: np.ndarray, delta: float) -> float:
    """O(n*m) overlap fraction, the reference the grid path must equal."""
    if det.shape[0] == 0:
        return 0.0
    if trk.shape[0] == 0:
        return 0.0
    diff = det[:, None, :] - trk[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    return float((d2.min(axis=1) <= delta * delta).mean())


def brute_dbscan(pts: np.ndarray, eps: float, min_points: int) -> list[set[int]]:
    """Reference DBSCAN: cores by exhaustive neighborhood counts, clusters
    as connected core components, borders joining their lexicographically
    smallest core neighbor."""
    n = pts.shape[0]
    if n == 0:
        return []
    diff = pts[:, None, :] - pts[None, :, :]
    within = (diff * diff).sum(axis=2) <= eps * eps
    core = within.sum(axis=1) >= min_points
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    labels = {}
    cluster_id = 0
    for i in range(n):
        if not core[i] or i in labels:
            continue
        stack = [i]
        labels[i] = cluster_id
        while stack:
            j = stack.pop()
            for q in np.flatnonzero(within[j] & core):
                if q not in labels:
                    labels[q] = cluster_id
                    stack.append(int(q))
        cluster_id += 1
    for i in range(n):
        if core[i] or not within[i][core].any():
            continue
        core_nbrs = np.flatnonzero(within[i] & core)
        owner = core_nbrs[np.argmin(rank[core_nbrs])]
        labels[i] = labels[int(owner)]
    clusters: dict[int, set[int]] = {}
    for i, lab in labels.items():
        clusters.setdefault(lab, set()).add(i)
    return list(clusters.values())


def brute_voxel_census(pts: np.ndarray, voxel: float) -> set[tuple[int, int, int]]:
    return {tuple(c) for c in np.floor(pts / voxel).astype(np.int64)}


def _points_set(cloud: PointCloud) -> set[tuple[float, float, float]]:
    return {tuple(p) for p in cloud.points}


# -- backproject --------------------------------------------------------------

class TestBackproject:
    def _intr(self):
        return CameraIntrinsics(fx=100.0, fy=120.0, cx=32.0, cy=24.0,
                                width=64, height=48)

    def test_principal_point_depth_one(self):
        intr = self._intr()
        depth = DepthMap(np.full((48, 64), 1.0))
        mask = PixelMask(64, 48, [(32, 24)])
        cloud = backproject(depth, mask, intr, Pose.identity())
        np.testing.assert_allclose(cloud.points, [[0.0, 0.0, 1.0]])

    def test_one_focal_length_off_center(self):
        # pixel (cx + fx, cy) at depth 2 -> x = (fx)*2/fx = 2
        intr = CameraIntrinsics(fx=20.0, fy=20.0, cx=10.0, cy=10.0,
                                width=32, height=32)
        depth = DepthMap(np.full((32, 32), 2.0))
        mask = PixelMask(32, 32, [(30, 10)])
        cloud = backproject(depth, mask, intr, Pose.identity())
        np.testing.assert_allclose(cloud.points, [[2.0, 0.0, 2.0]])

    def test_all_masked_pixels_invalid_depth(self):
        intr = self._intr()
        depth = DepthMap(np.zeros((48, 64)))
        mask = PixelMask.from_bbox((0, 0, 10, 10), 64, 48)
        cloud = backproject(depth, mask, intr, Pose.identity())
        assert cloud.is_empty

    def test_zero_depth_pixels_skipped(self):
        intr = self._intr()
        values = np.full((48, 64), 3.0)
        values[24, 32] = 0.0
        depth = DepthMap(values)
        mask = PixelMask(64, 48, [(32, 24), (33, 24)])
        cloud = backproject(depth, mask, intr, Pose.identity())
        assert len(cloud) == 1

    def test_nonfinite_depth_skipped(self):
        intr = self._intr()
        values = np.full((48, 64), 3.0)
        values[24, 32] = np.nan
        values[24, 33] = np.inf
        depth = DepthMap(values)
        mask = PixelMask(64, 48, [(32, 24), (33, 24), (34, 24)])
        assert len(backproject(depth, mask, intr, Pose.identity())) == 1

    def test_dimension_mismatch_rejected(self):
        intr = self._intr()
        depth = DepthMap(np.ones((10, 10)))
        mask = PixelMask(64, 48, [(0, 0)])
        with pytest.raises(GeometryInputError):
            backproject(depth, mask, intr, Pose.identity())

    def test_mask_dimension_mismatch_rejected(self):
        intr = self._intr()
        depth = DepthMap(np.ones((48, 64)))
        mask = PixelMask(10, 10, [(0, 0)])
        with pytest.raises(GeometryInputError):
            backproject(depth, mask, intr, Pose.identity())

    def test_pose_transform_applied(self):
        intr = self._intr()
        depth = DepthMap(np.full((48, 64), 2.0))
        mask = PixelMask(64, 48, [(32, 24)])
        pose = make_pose(yaw_deg=90.0, position=(1.0, 2.0, 3.0))
        cloud = backproject(depth, mask, intr, pose)
        # camera point (0, 0, 2): forward is world +y at yaw 90
        np.testing.assert_allclose(cloud.points, [[1.0, 4.0, 3.0]], atol=1e-12)

    def test_roundtrip_exact_pose(self):
        """Project the returned points back: pixels within 1e-6; depths are
        bit-exact for a pose whose rotation is an exact axis permutation
        and whose translation is zero (float addition with a translation
        necessarily rounds)."""
        intr = self._intr()
        g = rng(3)
        values = g.uniform(0.5, 5.0, size=(48, 64))
        depth = DepthMap(values)
        pixels = [(int(u), int(v)) for u, v in
                  zip(g.integers(0, 64, 200), g.integers(0, 48, 200))]
        mask = PixelMask(64, 48, pixels)
        # camera optical axis along world +y, exactly representable
        rot = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T
        pose = Pose(rot.T, np.zeros(3))
        cloud = backproject(depth, mask, intr, pose)
        u, v, z = project(cloud, intr, pose)
        expected = mask.pixels  # sorted (v, u)
        np.testing.assert_allclose(u, expected[:, 0], atol=1e-6)
        np.testing.assert_allclose(v, expected[:, 1], atol=1e-6)
        assert np.array_equal(z, values[expected[:, 1], expected[:, 0]])

    def test_roundtrip_random_poses(self):
        intr = CameraIntrinsics(fx=80.0, fy=80.0, cx=47.5, cy=35.5,
                                width=96, height=72)
        g = rng(11)
        for _ in range(5):
            yaw = float(g.uniform(-180, 180))
            pitch = float(g.uniform(-45, 45))
            pos = g.uniform(-5, 5, 3)
            pose = make_pose(yaw_deg=yaw, position=pos, pitch_deg=pitch)
            values = g.uniform(0.3, 8.0, size=(72, 96))
            depth = DepthMap(values)
            pix = np.column_stack([g.integers(0, 96, 500), g.integers(0, 72, 500)])
            mask = PixelMask(96, 72, pix)
            cloud = backproject(depth, mask, intr, pose)
            u, v, z = project(cloud, intr, pose)
            expected = mask.pixels
            np.testing.assert_allclose(u, expected[:, 0], atol=1e-6)
            np.testing.assert_allclose(v, expected[:, 1], atol=1e-6)
            np.testing.assert_allclose(
                z, values[expected[:, 1], expected[:, 0]], atol=1e-9)


# -- voxel_downsample --------------------------------------------------------

class TestVoxelDownsample:
    def test_shared_cell_centroid(self):
        cloud = PointCloud([(0.001, 0, 0), (0.015, 0, 0)])
        out = voxel_downsample(cloud, 0.02)
        np.testing.assert_allclose(out.points, [[0.008, 0.0, 0.0]])

    def test_distinct_cells_unchanged(self):
        cloud = PointCloud([(0.01, 0, 0), (0.03, 0, 0)])
        out = voxel_downsample(cloud, 0.02)
        assert _points_set(out) == {(0.01, 0.0, 0.0), (0.03, 0.0, 0.0)}

    def test_census_matches_brute_force(self):
        g = rng(5)
        pts = g.uniform(0, 1, size=(10_000, 3))
        out = voxel_downsample(PointCloud(pts), 0.02)
        assert len(out) == len(brute_voxel_census(pts, 0.02))

    def test_output_order_lexicographic_by_cell(self):
        g = rng(6)
        pts = g.uniform(-2, 2, size=(500, 3))
        out = voxel_downsample(PointCloud(pts), 0.05)
        cells = np.floor(out.points / 0.05).astype(np.int64)
        keys = [tuple(c) for c in cells]
        assert keys == sorted(keys)

    def test_input_order_invariance(self):
        g = rng(7)
        pts = g.uniform(-1, 1, size=(300, 3))
        a = voxel_downsample(PointCloud(pts), 0.1)
        b = voxel_downsample(PointCloud(pts[::-1]), 0.1)
        assert np.array_equal(a.points, b.points)

    def test_every_input_point_covered(self):
        g = rng(8)
        pts = g.uniform(-1, 1, size=(200, 3))
        out = voxel_downsample(PointCloud(pts), 0.07)
        in_cells = brute_voxel_census(pts, 0.07)
        out_cells = brute_voxel_census(out.points, 0.07)
        assert in_cells == out_cells  # centroid stays inside its cell

    def test_idempotent(self):
        g = rng(9)
        pts = g.uniform(-3, 3, size=(1000, 3))
        once = voxel_downsample(PointCloud(pts), 0.02)
        twice = voxel_downsample(once, 0.02)
        assert np.array_equal(once.points, twice.points)

    def test_centroids_bit_equal_brute_mean(self):
        # Each cell's mean, summed in input order starting from 0.0, in
        # lexicographic cell order: the exact floats, not just close ones.
        g = rng(10)
        pts = np.vstack([g.uniform(-1, 1, size=(3000, 3)),
                         g.normal(0.3, 0.01, size=(500, 3))])
        cells = np.floor(pts / 0.05).astype(np.int64)
        members: dict[tuple, list[int]] = {}
        for i, c in enumerate(map(tuple, cells)):
            members.setdefault(c, []).append(i)
        expected = []
        for c in sorted(members):
            total = np.zeros(3)
            for i in members[c]:
                total = total + pts[i]
            expected.append(total / len(members[c]))
        out = voxel_downsample(PointCloud(pts), 0.05)
        assert np.array_equal(out.points, np.array(expected))

    def test_empty_cloud(self):
        assert voxel_downsample(PointCloud.empty(), 0.02).is_empty

    def test_invalid_voxel(self):
        with pytest.raises(GeometryInputError):
            voxel_downsample(PointCloud([(0, 0, 0)]), 0.0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.05, 0.13]))
    @settings(max_examples=25)
    def test_property_census_and_idempotence(self, seed, voxel):
        pts = rng(seed).uniform(-1, 1, size=(120, 3))
        out = voxel_downsample(PointCloud(pts), voxel)
        assert len(out) == len(brute_voxel_census(pts, voxel))
        again = voxel_downsample(out, voxel)
        assert np.array_equal(out.points, again.points)


# -- largest_cluster ----------------------------------------------------------

def _blob(center, n, spread, seed):
    return rng(seed).normal(loc=center, scale=spread, size=(n, 3))


def _assert_cluster_matches_brute(pts: np.ndarray, eps: float, min_points: int):
    """largest_cluster equals the brute-force reference's largest cluster
    (size first, then smallest lexicographic rank), rows in rank order."""
    mine = largest_cluster(PointCloud(pts), eps=eps, min_points=min_points)
    clusters = brute_dbscan(pts, eps, min_points)
    if not clusters:
        assert mine.is_empty
        return mine
    rank = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    order = np.empty(len(pts), dtype=int)
    order[rank] = np.arange(len(pts))
    best = min(clusters, key=lambda c: (-len(c), min(order[i] for i in c)))
    assert mine.points.tolist() == pts[sorted(best, key=lambda i: order[i])].tolist()
    return mine


def _box_surface(lo, hi, step):
    """Points on the faces of an axis-aligned box, spaced ``step`` apart."""
    axes = [np.arange(a, b + step / 2, step) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    on_face = np.isclose(grid, lo).any(axis=1) | np.isclose(grid, hi).any(axis=1)
    return grid[on_face]


class TestLargestCluster:
    def test_two_blobs_keeps_larger(self):
        big = _blob((0, 0, 0), 50, 0.1, 1)
        small = _blob((5, 5, 5), 10, 0.1, 2)
        pts = np.vstack([big, small])
        out = largest_cluster(PointCloud(pts), eps=0.5, min_points=5)
        assert len(out) == 50
        assert _points_set(out) == {tuple(p) for p in big}

    def test_all_noise_returns_empty(self):
        pts = np.array([(0, 0, 0), (10, 0, 0), (0, 10, 0)], dtype=float)
        out = largest_cluster(PointCloud(pts), eps=0.5, min_points=5)
        assert out.is_empty

    def test_single_blob_returned_as_set(self):
        blob = _blob((1, 1, 1), 40, 0.05, 3)
        out = largest_cluster(PointCloud(blob), eps=0.5, min_points=5)
        assert _points_set(out) == {tuple(p) for p in blob}

    def test_matches_brute_force_reference(self):
        for seed in range(20):
            g = rng(100 + seed)
            n_blobs = int(g.integers(1, 4))
            parts = [_blob(g.uniform(-4, 4, 3), int(g.integers(3, 40)),
                           float(g.uniform(0.03, 0.25)), 200 + seed * 7 + b)
                     for b, n in enumerate(range(n_blobs))]
            parts.append(g.uniform(-6, 6, size=(int(g.integers(0, 8)), 3)))
            pts = np.vstack(parts)
            _assert_cluster_matches_brute(pts, 0.5, 5)

    def test_subset_of_input_and_maximal(self):
        g = rng(42)
        pts = g.uniform(-1.5, 1.5, size=(400, 3))
        out = largest_cluster(PointCloud(pts), eps=0.3, min_points=4)
        in_set = {tuple(p) for p in pts}
        assert _points_set(out) <= in_set
        sizes = [len(c) for c in brute_dbscan(pts, 0.3, 4)]
        assert not sizes or len(out) >= max(sizes)

    def test_input_order_invariance(self):
        pts = np.vstack([_blob((0, 0, 0), 30, 0.1, 4), _blob((3, 0, 0), 30, 0.1, 5)])
        a = largest_cluster(PointCloud(pts), eps=0.5, min_points=5)
        b = largest_cluster(PointCloud(pts[::-1]), eps=0.5, min_points=5)
        assert np.array_equal(a.points, b.points)

    def test_size_tie_prefers_lexicographically_smallest(self):
        left = _blob((-3, 0, 0), 20, 0.05, 6)
        right = _blob((3, 0, 0), 20, 0.05, 7)
        out = largest_cluster(PointCloud(np.vstack([right, left])),
                              eps=0.5, min_points=5)
        assert _points_set(out) == {tuple(p) for p in left}

    def test_empty_cloud(self):
        assert largest_cluster(PointCloud.empty(), 0.5, 5).is_empty

    def test_parameter_validation(self):
        with pytest.raises(GeometryInputError):
            largest_cluster(PointCloud([(0, 0, 0)]), 0.0, 5)
        with pytest.raises(GeometryInputError):
            largest_cluster(PointCloud([(0, 0, 0)]), 0.5, 0)
        with pytest.raises(GeometryInputError):  # eps*eps underflows
            largest_cluster(PointCloud([(0, 0, 0)]), 1e-200, 5)
        with pytest.raises(GeometryInputError):  # eps*eps overflows
            largest_cluster(PointCloud([(0, 0, 0)]), 1e200, 5)

    def test_pair_at_exactly_eps_is_neighbor(self):
        # 0.5 * 0.5 == 0.25 exactly: a chain of points eps apart is one cluster
        pts = np.array([(x, 0.0, 0.0) for x in (0.0, 0.5, 1.0, 1.5, 2.0)])
        out = _assert_cluster_matches_brute(pts, 0.5, 3)
        assert len(out) == 5
        _assert_cluster_matches_brute(pts, np.nextafter(0.5, 0.0), 2)

    def test_points_on_cell_diagonals_and_faces(self):
        # Points spaced the grid's own cell size along diagonals and faces,
        # and a hair to either side of it: every pair sits on or near a cell
        # boundary, where a grid that trusted cells too far would err.
        eps = 0.5
        for side in (eps / np.sqrt(3.0), eps / np.sqrt(2.0), eps):
            for hair in (-1e-12, 0.0, 1e-12):
                step = side * (1.0 + hair)
                ks = np.arange(-3, 4)
                diagonal = np.outer(ks, np.ones(3)) * step
                face = np.stack(np.meshgrid(ks, ks, [0], indexing="ij"),
                                axis=-1).reshape(-1, 3) * step
                for pts in (diagonal, face, np.vstack([diagonal, face + 0.1])):
                    for min_points in (2, 3, 5):
                        _assert_cluster_matches_brute(pts, eps, min_points)
        # Opposite corners of a cube of side ~eps/sqrt(3), a few ulps either
        # way: for some radii the pair fails the test by one rounding step.
        for eps in np.linspace(0.01, 2.0, 300):
            d = eps / np.sqrt(3.0)
            for _ in range(3):
                d = np.nextafter(d, 0.0)
            for _ in range(7):
                _assert_cluster_matches_brute(np.array([(0.0, 0.0, 0.0), (d, d, d)]),
                                              eps, 2)
                d = np.nextafter(d, 1.0)

    def test_negative_coordinates(self):
        for seed in range(10):
            g = rng(500 + seed)
            pts = np.vstack([_blob(g.uniform(-9, -5, 3), 30, 0.15, 600 + seed),
                             _blob(g.uniform(-9, -5, 3), 25, 0.15, 700 + seed),
                             g.uniform(-10, 0, size=(10, 3))])
            _assert_cluster_matches_brute(pts, 0.5, 5)

    def test_engine_regime_voxelized_surfaces(self):
        # 0.02 m voxelized box surfaces at the engine's eps 0.5 / min_points 5:
        # two nearby objects (joined when their gap is within eps) plus
        # stray points.
        g = rng(21)
        for gap in (0.3, 0.5, 0.7):
            first = _box_surface((0.0, 0.0, 0.0), (0.3, 0.2, 0.2), 0.02)
            second = _box_surface((0.3 + gap, 0.0, 0.0), (0.5 + gap, 0.3, 0.1), 0.02)
            stray = g.uniform(-1.0, 2.0, size=(12, 3))
            cloud = voxel_downsample(PointCloud(np.vstack([first, second, stray])),
                                     0.02)
            _assert_cluster_matches_brute(cloud.points, 0.5, 5)

    def test_border_point_within_eps_of_two_clusters(self):
        # Two equal clusters 0.8 apart, and one non-core point within eps of
        # a core point of each: it joins the cluster of its smallest-rank
        # core neighbor, which then wins the size comparison.
        left = np.array([(0.0, 0.0, 0.0), (0.05, 0, 0), (0.1, 0, 0), (0.0, 0.05, 0),
                         (0.05, 0.05, 0)])
        right = left + (0.8, 0.0, 0.0)
        bridge = np.array([(0.45, 0.0, 0.0)])
        pts = np.vstack([right, bridge, left])
        out = _assert_cluster_matches_brute(pts, 0.36, 5)
        assert _points_set(out) == {tuple(p) for p in np.vstack([left, bridge])}

    def test_dense_cells_joined_through_one_pair(self):
        # Two crowded cells whose only pair within eps involves the last
        # point of the first: joining them must look past the pairs that
        # fail.
        g = rng(22)
        first = g.uniform((-0.05, 0.0, 0.0), (0.0, 0.05, 0.05), size=(149, 3))
        second = g.uniform((0.6, 0.0, 0.0), (0.65, 0.05, 0.05), size=(150, 3))
        second[0] = (0.6, 0.0, 0.0)
        pts = np.vstack([first, [(0.1, 0.0, 0.0)], second])
        out = _assert_cluster_matches_brute(pts, 0.5, 5)
        assert len(out) == 300

    def test_far_apart_coordinates(self):
        # Coordinates far beyond any int64 cell index of an eps-sized grid.
        dup = np.tile([(1e150, -2e150, 3e150)], (6, 1))
        pts = np.vstack([dup, _blob((0, 0, 0), 5, 0.05, 8), [(-1e150, 0.0, 0.0)]])
        out = _assert_cluster_matches_brute(pts, 0.5, 5)
        assert len(out) == 6
        # two far-apart triples are noise, never one cell of six
        triples = np.vstack([np.repeat([(1e150, 0.0, 0.0), (2e150, 0.0, 0.0)], 3, axis=0),
                             [(-1e150, 0.0, 0.0)]])
        assert _assert_cluster_matches_brute(triples, 0.5, 5).is_empty


# -- geometric_overlap ---------------------------------------------------------

class TestGeometricOverlap:
    def test_stated_example(self):
        det = PointCloud([(0, 0, 0), (1, 0, 0), (0, 0, 0.04), (2, 2, 2)])
        trk = PointCloud([(0, 0, 0), (1, 0, 0.03)])
        assert geometric_overlap(det, trk, 0.05) == 0.75

    def test_self_overlap_is_one(self):
        g = rng(12)
        pts = g.uniform(-1, 1, size=(50, 3))
        cloud = PointCloud(pts)
        assert geometric_overlap(cloud, cloud, 0.05) == 1.0

    def test_empty_detection_is_zero(self):
        assert geometric_overlap(PointCloud.empty(),
                                 PointCloud([(0, 0, 0)]), 0.05) == 0.0

    def test_empty_track_is_zero(self):
        assert geometric_overlap(PointCloud([(0, 0, 0)]),
                                 PointCloud.empty(), 0.05) == 0.0

    def test_grid_equals_brute_force(self):
        for seed in range(20):
            g = rng(300 + seed)
            det = g.uniform(0, 1, size=(int(g.integers(1, 200)), 3))
            trk = det + g.normal(0, 0.04, size=det.shape) \
                if seed % 2 else g.uniform(0, 1, size=(int(g.integers(1, 200)), 3))
            mine = geometric_overlap(PointCloud(det), PointCloud(trk), 0.05)
            assert mine == brute_overlap(det, trk, 0.05)

    def test_subset_overlap_is_one(self):
        g = rng(13)
        trk = g.uniform(-1, 1, size=(80, 3))
        det = trk[::3]
        assert geometric_overlap(PointCloud(det), PointCloud(trk), 0.01) == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_monotone_in_radius(self, seed):
        g = rng(seed)
        det = g.uniform(0, 0.5, size=(40, 3))
        trk = g.uniform(0, 0.5, size=(40, 3))
        a = geometric_overlap(PointCloud(det), PointCloud(trk), 0.02)
        b = geometric_overlap(PointCloud(det), PointCloud(trk), 0.05)
        c = geometric_overlap(PointCloud(det), PointCloud(trk), 0.2)
        assert a <= b <= c

    def test_radius_validation(self):
        with pytest.raises(GeometryInputError):
            geometric_overlap(PointCloud([(0, 0, 0)]), PointCloud([(0, 0, 0)]), 0.0)
        with pytest.raises(GeometryInputError):
            geometric_overlap(PointCloud([(0, 0, 0)]), PointCloud([(0, 0, 0)]), 1e-200)

    def test_point_at_exactly_delta(self):
        # 0.05 * 0.05 is evaluated the same way on both sides of the test
        det = PointCloud([(0.0, 0.0, 0.0)])
        for trk in ([(0.05, 0.0, 0.0)], [(0.0, -0.05, 0.0)], [(0.0, 0.0, 0.05)]):
            assert geometric_overlap(det, PointCloud(trk), 0.05) == 1.0
        # pairs exactly delta_g apart straddling many cell boundaries
        g = rng(14)
        for delta in (0.05, 0.1, 0.3):
            base = np.round(g.uniform(-2, 2, size=(200, 3)) / delta) * delta
            shift = np.eye(3)[g.integers(0, 3, 200)] * delta
            for det, trk in ((base, base + shift), (base + shift, base)):
                assert geometric_overlap(PointCloud(det), PointCloud(trk), delta) \
                    == brute_overlap(det, trk, delta)

    def test_negative_coordinates(self):
        for seed in range(10):
            g = rng(400 + seed)
            det = g.uniform(-3, -1, size=(int(g.integers(1, 150)), 3))
            trk = det[: len(det) // 2] + g.normal(0, 0.03, size=(len(det) // 2, 3))
            trk = np.vstack([trk, g.uniform(-3, -1, size=(20, 3))])
            assert geometric_overlap(PointCloud(det), PointCloud(trk), 0.05) \
                == brute_overlap(det, trk, 0.05)

    def test_detection_with_no_candidate_cells(self):
        g = rng(15)
        det = g.uniform(0, 1, size=(40, 3))
        for trk in (det + 10.0, det - 0.2, np.array([[1e150, 0.0, 0.0]])):
            mine = geometric_overlap(PointCloud(det), PointCloud(trk), 0.05)
            assert mine == brute_overlap(det, trk, 0.05) == 0.0


# -- type invariants ----------------------------------------------------------

class TestTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(GeometryInputError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
        with pytest.raises(GeometryInputError):
            CameraIntrinsics(fx=1, fy=1, cx=10, cy=0, width=10, height=10)

    def test_pose_orthonormality_enforced(self):
        with pytest.raises(GeometryInputError):
            Pose(np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(GeometryInputError):
            Pose(reflection, np.zeros(3))

    def test_pointcloud_rejects_nonfinite(self):
        with pytest.raises(GeometryInputError):
            PointCloud([(0, 0, np.nan)])

    def test_depthmap_rejects_negative(self):
        with pytest.raises(GeometryInputError):
            DepthMap(np.full((4, 4), -1.0))

    def test_mask_bounds_checked(self):
        with pytest.raises(GeometryInputError):
            PixelMask(8, 8, [(8, 0)])

    def test_mask_from_runs_matches_per_pixel_expansion(self):
        g = rng(16)
        for _ in range(20):
            runs = []
            for _ in range(int(g.integers(0, 30))):
                v = int(g.integers(0, 24))
                u0 = int(g.integers(0, 32))
                runs.append((v, u0, int(g.integers(u0, 32))))
            runs += runs[: len(runs) // 3]                  # duplicate runs
            runs += [(v, max(0, u0 - 2), u1) for v, u0, u1 in runs[:3]]  # overlaps
            pixels = [(u, v) for v, u0, u1 in runs for u in range(u0, u1 + 1)]
            mine = PixelMask.from_runs(runs, 32, 24)
            assert mine.pixels.tolist() == PixelMask(32, 24, pixels).pixels.tolist()
        assert len(PixelMask.from_runs([], 8, 8)) == 0
        assert len(PixelMask.from_runs([(1, 5, 4)], 8, 8)) == 0  # end before start

    def test_mask_dedupes_and_sorts(self):
        mask = PixelMask(8, 8, [(3, 2), (1, 1), (3, 2), (0, 2)])
        assert mask.pixels.tolist() == [[1, 1], [0, 2], [3, 2]]
