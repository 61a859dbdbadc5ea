"""Depth-to-point-cloud geometry: back-projection, voxel downsampling,
density clustering and the point-overlap signal used by track association.

All functions here are pure and deterministic: given the same inputs they
produce the same outputs, including point ordering, so that downstream
serialization is byte-stable. Points are float64 world-frame coordinates
in meters. The camera model is the standard pinhole with x right, y down,
z forward; the world frame is z-up.

Clustering and overlap search a uniform grid instead of testing all pairs,
and return exactly what the all-pairs computation returns. Two points are
within a radius r when ``dx*dx + dy*dy + dz*dz <= r*r`` in float64, and the
grids are sized so that the test never needs to be trusted beyond what
rounding allows: clustering cells are a hair narrower than r/sqrt(3), so
two points sharing a cell always pass, and overlap cells are a hair wider
than r, so a passing pair is never more than one cell apart. Every other
decision evaluates the test itself on the pair. Cell indices are anchored
per run of nearby coordinates on each axis (see ``_cell_coords``), which
keeps them and their rounding error small whatever the magnitude of the
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-6


class GeometryInputError(ValueError):
    """Raised when an input violates an operation's contract."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise GeometryInputError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryInputError("principal point outside image")
        if self.width <= 0 or self.height <= 0:
            raise GeometryInputError("image dimensions must be positive")


class Pose:
    """World-from-camera rigid transform.

    ``rotation`` is a 3x3 orthonormal matrix with determinant +1 (checked
    within 1e-6), ``translation`` the camera center in world meters.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        r = np.array(rotation, dtype=np.float64).reshape(3, 3)
        t = np.array(translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise GeometryInputError("pose must be finite")
        if np.max(np.abs(r @ r.T - np.eye(3))) > ORTHONORMAL_TOL:
            raise GeometryInputError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise GeometryInputError("rotation determinant must be +1")
        r.flags.writeable = False
        t.flags.writeable = False
        self.rotation = r
        self.translation = t

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Camera-frame points (n, 3) to world frame."""
        return points @ self.rotation.T + self.translation

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        """World-frame points (n, 3) to camera frame."""
        return (points - self.translation) @ self.rotation

    def __repr__(self):
        return f"Pose(t={self.translation.tolist()})"


class PointCloud:
    """Immutable collection of world-frame points, shape (n, 3), meters.

    The centroid and the extent are each computed once, on first use, and
    cached as read-only arrays; the points are read-only too, so the caches
    never go stale. :func:`voxel_union` caches the cloud's voxel cell keys
    the same way.
    """

    __slots__ = ("points", "_centroid", "_extent", "_voxel_keys")

    def __init__(self, points=None):
        if points is None:
            arr = np.empty((0, 3), dtype=np.float64)
        else:
            arr = np.array(points, dtype=np.float64)
            if arr.size == 0:
                arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise GeometryInputError("points must have shape (n, 3)")
        if not np.all(np.isfinite(arr)):
            raise GeometryInputError("points must be finite")
        arr.flags.writeable = False
        self.points = arr
        self._centroid = None
        self._extent = None
        self._voxel_keys = None

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls()

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0

    def __len__(self) -> int:
        return self.points.shape[0]

    def centroid(self) -> np.ndarray:
        if self.is_empty:
            raise GeometryInputError("centroid of empty cloud")
        if self._centroid is None:
            self._centroid = self.points.mean(axis=0)
            self._centroid.flags.writeable = False
        return self._centroid

    def extent(self) -> np.ndarray:
        """Axis-aligned extent (max - min) per axis."""
        if self.is_empty:
            raise GeometryInputError("extent of empty cloud")
        if self._extent is None:
            self._extent = self.points.max(axis=0) - self.points.min(axis=0)
            self._extent.flags.writeable = False
        return self._extent

    def union(self, other: "PointCloud") -> "PointCloud":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return PointCloud(np.vstack([self.points, other.points]))

    def __repr__(self):
        return f"PointCloud(n={len(self)})"


class DepthMap:
    """Per-pixel depth in meters, indexed ``values[v, u]``. 0 = invalid."""

    __slots__ = ("values", "width", "height")

    def __init__(self, values, width: int | None = None, height: int | None = None):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2:
            raise GeometryInputError("depth map must be 2-D")
        h, w = arr.shape
        if width is not None and width != w:
            raise GeometryInputError("depth width does not match array")
        if height is not None and height != h:
            raise GeometryInputError("depth height does not match array")
        finite = arr[np.isfinite(arr)]
        if finite.size and finite.min() < 0:
            raise GeometryInputError("depth values must be >= 0")
        arr.flags.writeable = False
        self.values = arr
        self.width = w
        self.height = h


class PixelMask:
    """Set of foreground pixels, stored as (u, v) pairs sorted by (v, u)."""

    __slots__ = ("width", "height", "pixels")

    def __init__(self, width: int, height: int, pixels):
        arr = np.array(list(pixels) if not isinstance(pixels, np.ndarray) else pixels,
                       dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GeometryInputError("mask pixels must be (u, v) pairs")
        if arr.size:
            if arr.min() < 0 or arr[:, 0].max() >= width or arr[:, 1].max() >= height:
                raise GeometryInputError("mask pixel outside image bounds")
            # u < width, so sorting the keys v * width + u sorts by (v, u);
            # pixels that already arrive strictly increasing need no sort
            keys = arr[:, 1] * width + arr[:, 0]
            if np.any(keys[1:] <= keys[:-1]):
                v, u = np.divmod(np.unique(keys), width)
                arr = np.column_stack([u, v])
        arr.flags.writeable = False
        self.width = width
        self.height = height
        self.pixels = arr

    @classmethod
    def from_bbox(cls, bbox, width: int, height: int) -> "PixelMask":
        """All pixels inside an inclusive (u_min, v_min, u_max, v_max) box."""
        u0, v0, u1, v1 = bbox
        us, vs = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
        return cls(width, height, np.column_stack([us.ravel(), vs.ravel()]))

    @classmethod
    def from_runs(cls, runs, width: int, height: int) -> "PixelMask":
        """Build from row runs [(v, u_start, u_end)] with inclusive ends.
        A run whose end precedes its start is empty."""
        runs = np.array(runs, dtype=np.int64).reshape(-1, 3)
        lengths = np.maximum(runs[:, 2] - runs[:, 1] + 1, 0)
        before = np.cumsum(lengths) - lengths
        u = np.repeat(runs[:, 1] - before, lengths) + np.arange(lengths.sum())
        return cls(width, height, np.column_stack([u, np.repeat(runs[:, 0], lengths)]))

    def __len__(self) -> int:
        return self.pixels.shape[0]


def backproject(depth: DepthMap, mask: PixelMask, intr: CameraIntrinsics,
                pose: Pose) -> PointCloud:
    """Lift masked depth pixels into a world-frame point cloud.

    Produces one point per masked pixel with a valid (> 0, finite) depth:
    the camera-frame point ((u-cx)*z/fx, (v-cy)*z/fy, z) transformed by
    ``pose``. Pixels with depth 0 or non-finite depth are skipped. Output
    order follows the mask's (v, u) pixel order.
    """
    if (depth.width, depth.height) != (intr.width, intr.height):
        raise GeometryInputError(
            f"depth {depth.width}x{depth.height} does not match intrinsics "
            f"{intr.width}x{intr.height}")
    if (mask.width, mask.height) != (intr.width, intr.height):
        raise GeometryInputError("mask dimensions do not match intrinsics")
    if len(mask) == 0:
        return PointCloud.empty()
    u = mask.pixels[:, 0]
    v = mask.pixels[:, 1]
    z = depth.values[v, u]
    valid = np.isfinite(z) & (z > 0)
    if not np.any(valid):
        return PointCloud.empty()
    u = u[valid].astype(np.float64)
    v = v[valid].astype(np.float64)
    z = z[valid]
    cam = np.column_stack([(u - intr.cx) * z / intr.fx,
                           (v - intr.cy) * z / intr.fy,
                           z])
    return PointCloud(pose.transform(cam))


PROJECT_MIN_DEPTH_M = 1e-9


def project(cloud: PointCloud, intr: CameraIntrinsics,
            pose: Pose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world points into the image; inverse of :func:`backproject`.

    Returns (u, v, z) arrays for points in front of the camera (depth above
    ``PROJECT_MIN_DEPTH_M``); points behind the camera are dropped.
    Coordinates are continuous (not rounded).
    """
    if cloud.is_empty:
        z = np.empty(0)
        return z, z.copy(), z.copy()
    cam = pose.inverse_transform(cloud.points)
    keep = cam[:, 2] > PROJECT_MIN_DEPTH_M
    cam = cam[keep]
    u = cam[:, 0] / cam[:, 2] * intr.fx + intr.cx
    v = cam[:, 1] / cam[:, 2] * intr.fy + intr.cy
    return u, v, cam[:, 2]


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Collapse each occupied voxel cell to the centroid of its members.

    Cells are ``floor(p / voxel)`` per axis; output points are ordered by
    ascending lexicographic cell index, whatever the input order. Each
    cell's members are summed in input order, so the centroid of a cell is
    the same float whatever else the cloud holds, though reordering its
    members can move its last bits.
    """
    if voxel <= 0:
        raise GeometryInputError("voxel size must be positive")
    if cloud.is_empty:
        return PointCloud.empty()
    pts = cloud.points
    cells = np.floor(pts / voxel)
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    new_cell = np.empty(len(order), dtype=bool)
    new_cell[0] = True
    np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1, out=new_cell[1:])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new_cell) - 1
    n_cells = int(inverse.max()) + 1
    sums = np.stack([np.bincount(inverse, weights=pts[:, axis], minlength=n_cells)
                     for axis in range(3)], axis=1)
    counts = np.bincount(inverse, minlength=n_cells)
    return PointCloud(sums / counts[:, None])


# A voxel cell packs into one int64 key, 21 bits per axis with x highest, so
# keys sort as voxel_downsample sorts cells. Each cell index must lie in
# [-2**20, 2**20): about 21 km either way at the 2 cm track voxel.
_KEY_BITS = 21
_KEY_BIAS = 2 ** (_KEY_BITS - 1)


def _cell_keys(points: np.ndarray, voxel: float) -> np.ndarray | None:
    """The packed key of each point's cell ``floor(p / voxel)``, or None
    when a cell index lies outside the packing range."""
    cells = np.floor(points / voxel)
    if cells.size and not (cells.min() >= -_KEY_BIAS and cells.max() < _KEY_BIAS):
        return None
    c = (cells + _KEY_BIAS).astype(np.int64)
    return (c[:, 0] << 2 * _KEY_BITS) | (c[:, 1] << _KEY_BITS) | c[:, 2]


def _has_negative_zero(points: np.ndarray) -> bool:
    return bool(np.signbit(points[points == 0]).any())


def _downsampled_keys(cloud: PointCloud, voxel: float) -> np.ndarray | None:
    """The cloud's cell keys when ``voxel_downsample(cloud, voxel)`` gives
    back its points byte for byte, else None. That holds when the keys
    strictly increase, so that each cell holds one point, in cell order,
    and no coordinate is -0.0, which a cell's sum turns into 0.0. Cached on
    the cloud for the last voxel size asked."""
    if cloud._voxel_keys is None or cloud._voxel_keys[0] != voxel:
        keys = _cell_keys(cloud.points, voxel)
        if keys is not None and (np.any(keys[1:] <= keys[:-1])
                                 or _has_negative_zero(cloud.points)):
            keys = None
        cloud._voxel_keys = (voxel, keys)
    return cloud._voxel_keys[1]


def voxel_union(base: PointCloud, extra: PointCloud, voxel: float) -> PointCloud:
    """``voxel_downsample(base.union(extra), voxel)``, byte for byte, without
    sorting base's cells again when base is already downsampled.

    When ``voxel_downsample`` gives base back unchanged (see
    ``_downsampled_keys``), as a merged track's cloud nearly always is, only
    extra's cells are keyed and sorted. They are found in base's sorted keys
    by binary search. Each cell that extra touches sums base's point first,
    then extra's points in input order, as ``voxel_downsample`` sums them;
    the cells base lacks are inserted in order, and base's other points are
    kept as they are. The result's keys are cached for the next union.
    Otherwise, or when a cell index of extra lies outside the packing
    range, the union is downsampled whole.
    """
    if voxel <= 0:
        raise GeometryInputError("voxel size must be positive")
    keys = None if base.is_empty else _downsampled_keys(base, voxel)
    new = None if keys is None else _cell_keys(extra.points, voxel)
    if new is None:
        return voxel_downsample(base.union(extra), voxel)
    cells, inverse = np.unique(new, return_inverse=True)
    at = np.searchsorted(keys, cells)
    found = keys[np.minimum(at, keys.size - 1)] == cells
    fresh = ~found
    row = at + np.cumsum(fresh) - fresh  # each touched cell's row in the result
    members = np.concatenate([np.flatnonzero(found), inverse])
    pts = np.concatenate([base.points[at[found]], extra.points])
    # one bincount sums all three axes: x, y and z of cell c go to 3c..3c+2
    sums = np.bincount((members[:, None] * 3 + np.arange(3)).ravel(), weights=pts.ravel(),
                       minlength=3 * cells.size).reshape(-1, 3)
    centroids = sums / np.bincount(members, minlength=cells.size)[:, None]
    kept = np.ones(keys.size + np.count_nonzero(fresh), dtype=bool)
    kept[row[fresh]] = False
    points = np.empty((kept.size, 3))
    points[kept] = base.points
    points[row] = centroids
    out = PointCloud(points)
    moved = _cell_keys(centroids, voxel)
    if moved is not None and not _has_negative_zero(centroids):
        out_keys = np.empty(kept.size, dtype=np.int64)
        out_keys[kept] = keys
        out_keys[row] = moved
        out._voxel_keys = (voxel, out_keys if np.all(out_keys[1:] > out_keys[:-1]) else None)
    return out


# Clustering cells are a hair narrower than eps/sqrt(3), so two points in one
# cell pass the eps test despite rounding; overlap cells are a hair wider than
# delta_g, so a pair that passes the delta_g test is at most one cell apart.
# The hair (2**-18) dwarfs the rounding error of a cell index, which stays
# below 2**-20 of a cell for clouds of fewer than 2**30 points.
_CLUSTER_CELL = (1.0 - 2.0 ** -18) / np.sqrt(3.0)
_OVERLAP_CELL = 1.0 + 2.0 ** -18


def _offsets(reach: int) -> np.ndarray:
    """All integer offsets in [-reach, reach]^3 as xyz rows, nearest first
    (column 0 is the zero offset)."""
    r = np.arange(-reach, reach + 1)
    offsets = np.stack(np.meshgrid(r, r, r, indexing="ij")).reshape(3, -1)
    return offsets[:, np.argsort((offsets * offsets).sum(axis=0), kind="stable")]


_CLUSTER_OFFSETS = _offsets(2)
_OVERLAP_OFFSETS = _offsets(1)


def _check_radius(radius: float, name: str) -> float:
    """Validate a distance threshold and return its square. The square must
    be a normal float: the grids below are exact only then."""
    if not radius > 0:
        raise GeometryInputError(f"{name} must be positive")
    radius_sq = radius * radius
    if not np.finfo(np.float64).tiny <= radius_sq < np.inf:
        raise GeometryInputError(f"{name} squared must be a normal float")
    return radius_sq


def _sq_dist(a: np.ndarray, b: np.ndarray, i=..., j=...) -> np.ndarray:
    """``dx*dx + dy*dy + dz*dz``, summed in that order, between the points
    ``a[:, i]`` and ``b[:, j]`` (x, y and z are the rows of a and b). It
    gathers one axis at a time, so no (3, k) array is allocated."""
    total = a[0][i] - b[0][j]
    total *= total
    for axis in (1, 2):
        d = a[axis][i] - b[axis][j]
        d *= d
        total += d
    return total


def _any_close(a: np.ndarray, b: np.ndarray, radius_sq: float) -> bool:
    """Whether any point of a is within the radius of any point of b (x, y
    and z are the rows of a and b). Tests blocks of at most 2**13 pairs and
    stops at the first block with a hit."""
    rows = max(1, 2 ** 13 // b.shape[1])
    return any((_sq_dist(a[:, s:s + rows, None], b[:, None, :]) <= radius_sq).any()
               for s in range(0, a.shape[1], rows))


def _cell_coords(xyz: np.ndarray, side: float, radius_sq: float,
                 reach: int, segment: np.ndarray | None = None) -> np.ndarray:
    """Integer grid cells, shape (3, n), of the points whose coordinates are
    the rows of ``xyz``.

    Each axis is cut wherever two consecutive sorted coordinates are so far
    apart that no pair across the cut can pass ``d*d <= radius_sq``. Each
    piece gets its own grid of the given side, anchored at the piece's
    smallest coordinate, and pieces sit more than ``reach`` cells apart.
    Anchoring bounds a cell index by the piece's extent in cells (under 2n)
    instead of the coordinates' magnitude, which keeps both the index and
    its rounding error small for any finite cloud. Cells start at
    ``reach``, so every cell within ``reach`` of an occupied one has
    coordinates >= 0.

    ``segment``, each point's segment number, splits the points into
    clouds that must not meet: each axis is then sorted by (segment,
    coordinate) and also cut wherever the segment changes. No piece holds
    two segments, so the cells of different segments sit more than
    ``reach`` apart on every axis, and each segment's cells are those it
    gets alone, shifted by a whole number of cells per axis.
    """
    n = xyz.shape[1]
    order = np.argsort(xyz, axis=1)
    if segment is not None:
        order = np.take_along_axis(order, np.argsort(segment[order], axis=1, kind="stable"),
                                   axis=1)
    xs = np.take_along_axis(xyz, order, axis=1)
    gap = np.diff(xs, axis=1)
    cut = np.zeros(xs.shape, dtype=bool)
    cut[:, 1:] = gap * gap > radius_sq
    if segment is not None:
        owner = segment[order]
        cut[:, 1:] |= owner[:, 1:] != owner[:, :-1]
    first = np.maximum.accumulate(np.where(cut, np.arange(n), 0), axis=1)
    local = np.floor((xs - np.take_along_axis(xs, first, axis=1)) / side)
    step = np.zeros(xs.shape)
    step[:, 0] = reach
    step[:, 1:] = np.where(cut[:, 1:], local[:, :-1] + (reach + 1), 0.0)
    cells = np.empty(xyz.shape, dtype=np.int64)
    np.put_along_axis(cells, order, (local + np.cumsum(step, axis=1)).astype(np.int64),
                      axis=1)
    return cells


class _CellIndex:
    """Points grouped by occupied grid cell, with lookup by cell coordinates.

    ``order`` lists the points cell by cell: cell k holds
    ``order[starts[k]:starts[k] + counts[k]]`` and sits at ``cells[:, k]``.
    Every coordinate stored or looked up must lie in ``[0, bound)`` per
    axis. A cell's key is the rank of its (x, y) column among the occupied
    columns times the z bound, plus z: with coordinates of at most about
    5n from :func:`_cell_coords`, no key or intermediate product overflows
    int64.
    """

    def __init__(self, cells: np.ndarray, bound: np.ndarray):
        self._bound = bound
        self._columns, column = np.unique(cells[0] * bound[1] + cells[1],
                                          return_inverse=True)
        key = column * bound[2] + cells[2]
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        is_start = np.empty(key.size, dtype=bool)
        is_start[0] = True
        np.not_equal(key[1:], key[:-1], out=is_start[1:])
        self.starts = np.flatnonzero(is_start)
        self.counts = np.diff(np.append(self.starts, key.size))
        self._keys = key[self.starts]
        self.cells = cells[:, self.order[self.starts]]

    def find(self, cells: np.ndarray) -> np.ndarray:
        """Index of the occupied cell at each column of ``cells`` (shape
        (3, k)), or -1 where that cell is empty."""
        col = cells[0] * self._bound[1] + cells[1]
        rank = np.minimum(np.searchsorted(self._columns, col), self._columns.size - 1)
        key = rank * self._bound[2] + cells[2]
        at = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
        return np.where((self._columns[rank] == col) & (self._keys[at] == key), at, -1)

    def pairs(self, rows: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs (rows[r], p) for every point p, given as a position
        in ``order``, of every cell listed in ``cells[r]`` (-1 = none)."""
        r, k = np.nonzero(cells >= 0)
        cell = cells[r, k]
        size = self.counts[cell]
        before = np.cumsum(size) - size
        return (np.repeat(rows[r], size),
                np.repeat(self.starts[cell] - before, size) + np.arange(size.sum()))


def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, in the graph
    of nodes 0..n-1 with an edge between a[i] and b[i]. Each round lowers
    both ends of every edge to the smaller of their labels, then every
    label to its own label's label, until nothing moves. A label is always
    a node of the same component, no larger than the node itself."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        lowered = label.copy()
        np.minimum.at(lowered, a, low)
        np.minimum.at(lowered, b, low)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return label
        label = lowered


def largest_cluster(cloud: PointCloud, eps: float, min_points: int,
                    sizes: list[int] | None = None) -> PointCloud | list[PointCloud]:
    """Return the members of the most populous DBSCAN cluster.

    Standard DBSCAN over Euclidean distance: core points have at least
    ``min_points`` neighbors within eps (themselves included); clusters are
    the connected components of core points under the eps relation, plus
    border points. The result is input-order independent: a border point in
    reach of several clusters joins its lexicographically smallest core
    neighbor's cluster, and size ties between clusters favor the one whose
    lexicographically smallest member is smallest. Returns the empty cloud
    when no cluster forms; output points are sorted lexicographically.

    Two points are neighbors when ``dx*dx + dy*dy + dz*dz <= eps*eps`` in
    float64. The search is the exact grid algorithm of Gan and Tao ("DBSCAN
    Revisited", SIGMOD 2015). Cells are a hair narrower than eps/sqrt(3),
    so two points in one cell always pass the test, and neighbors are at
    most two cells apart per axis. A cell with at least ``min_points``
    points is therefore core outright; every other point counts its
    neighbors over the 5x5x5 block of cells around it. The core points of
    one cell are mutual neighbors, so clusters are unions of core cells:
    two nearby core cells are joined when any pair of their core points
    passes the test. Each core cell's representative is its first core
    point. One vectorized pass tests the representatives of every pair of
    nearby core cells, and the pairs that pass are joined by min-label
    propagation (``_min_labels``). A pair whose representatives fail may
    still hold a passing pair of core points, so each pair that then still
    lies in two components falls back to testing all its core points, with
    a union-find over the components; a pair whose roots already match by
    then is not tested. The clusters are the same whatever the order of the
    unions, and only the partition reaches the result. Each border point
    joins the cluster of its smallest-rank core neighbor. Every decision
    the same-cell argument does not settle evaluates the test on the pair
    itself, so the result equals the all-pairs computation exactly for
    clouds of fewer than 2**30 points.

    With ``sizes``, the cloud is several clouds of those lengths laid end
    to end, and the result is the list of their largest clusters, each
    byte-equal to ``largest_cluster`` of that cloud alone. One pass serves
    them all: ``_cell_coords`` keeps the clouds' cells more than two cells
    apart, so no cell, neighbor test or join spans two clouds, ranks sort
    by cloud first, and one grouped pass picks each cloud's best cluster.
    """
    _check_radius(eps, "eps")
    if min_points < 1:
        raise GeometryInputError("min_points must be >= 1")
    if sizes is None:
        return PointCloud(cloud.points[_cluster_members(cloud.points, None, eps,
                                                        min_points)])
    sizes = np.array(sizes, dtype=np.int64).reshape(-1)
    if np.any(sizes < 0) or sizes.sum() != len(cloud):
        raise GeometryInputError("sizes must be >= 0 and sum to the cloud's length")
    # a small type, so that sorting stably by segment is a radix sort
    segment = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size)), sizes)
    members = _cluster_members(cloud.points, segment, eps, min_points)
    bounds = np.searchsorted(segment[members], np.arange(sizes.size + 1))
    kept = cloud.points[members]
    return [PointCloud(kept[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _cluster_members(points: np.ndarray, segment: np.ndarray | None, eps: float,
                     min_points: int) -> np.ndarray:
    """Indices of the points of each segment's largest DBSCAN cluster (see
    ``largest_cluster``), segment by segment, each in lexicographic order.
    ``segment`` is each point's segment number, nondecreasing; None is one
    segment."""
    eps_sq = eps * eps
    n = points.shape[0]
    none = np.empty(0, dtype=np.int64)
    if n == 0:
        return none
    cells = _cell_coords(points.T, eps * _CLUSTER_CELL, eps_sq, 2, segment)
    grid = _CellIndex(cells, cells.max(axis=1) + 3)
    # From here on points are numbered by their position in grid.order, and
    # ranked by segment, then lexicographically.
    xyz = np.ascontiguousarray(points[grid.order].T)
    by_rank = np.lexsort(xyz[::-1])
    if segment is not None:
        by_rank = by_rank[np.argsort(segment[grid.order][by_rank], kind="stable")]
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    counts = grid.counts
    n_cells = counts.size
    cell = np.repeat(np.arange(n_cells), counts)
    near = grid.find((grid.cells[:, :, None] + _CLUSTER_OFFSETS[:, None, :])
                     .reshape(3, -1)).reshape(n_cells, -1)

    core = (counts >= min_points)[cell]
    sparse = np.flatnonzero(~core)
    i, j = grid.pairs(sparse, near[cell[sparse]])
    close = _sq_dist(xyz, xyz, i, j) <= eps_sq
    i, j = i[close], j[close]
    core[sparse] = np.bincount(i, minlength=n)[sparse] >= min_points
    if not core.any():
        return none

    core_cell = np.logical_or.reduceat(core, grid.starts)
    k, a = np.nonzero(near.T > np.arange(n_cells))
    b = near[a, k]
    keep = core_cell[a] & core_cell[b]
    a, b = a[keep], b[keep]
    # each core cell's representative is its first core point
    core_at = np.flatnonzero(core)
    first = core_at[np.diff(cell[core_at], prepend=-1) != 0]
    rep = np.zeros(n_cells, dtype=np.int64)
    rep[cell[first]] = first
    joined = _sq_dist(xyz, xyz, rep[a], rep[b]) <= eps_sq
    label = _min_labels(n_cells, a[joined], b[joined])
    open_pair = label[a] != label[b]
    parent = label.tolist()

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def core_points(c: int) -> np.ndarray:
        members = slice(grid.starts[c], grid.starts[c] + counts[c])
        return xyz[:, members][:, core[members]]

    for x, y in zip(a[open_pair].tolist(), b[open_pair].tolist()):
        rx, ry = root(x), root(y)
        if rx != ry and _any_close(core_points(x), core_points(y), eps_sq):
            parent[max(rx, ry)] = min(rx, ry)

    label = np.where(core, np.array([root(c) for c in range(n_cells)])[cell], -1)
    border = ~core[i] & core[j]
    owner_rank = np.full(n, n)
    np.minimum.at(owner_rank, i[border], rank[j[border]])
    owned = owner_rank < n
    label[owned] = label[by_rank[owner_rank[owned]]]

    ranked_label = label[by_rank]
    clustered = np.flatnonzero(ranked_label >= 0)
    labels, first, sizes = np.unique(ranked_label[clustered], return_index=True,
                                     return_counts=True)
    first_rank = clustered[first]
    # the point of rank r is the r-th of the input in segment order, so a
    # cluster's segment is that of its first rank
    owner = (np.zeros_like(first_rank) if segment is None
             else segment[first_rank].astype(np.int64))
    pick = np.lexsort((first_rank, -sizes, owner))
    best = np.zeros(n_cells, dtype=bool)
    best[labels[pick[np.diff(owner[pick], prepend=-1) != 0]]] = True
    return grid.order[by_rank[clustered[best[ranked_label[clustered]]]]]


def geometric_overlap(detection_cloud: PointCloud, track_cloud: PointCloud,
                      delta_g: float) -> float:
    """Fraction of detection points within ``delta_g`` of the track cloud.

    0.0 when the detection cloud is empty (degenerate detections never
    overlap). A point is within ``delta_g`` when
    ``dx*dx + dy*dy + dz*dz <= delta_g*delta_g`` in float64 for some track
    point. The track points are grouped by grid cells a hair wider than
    ``delta_g``, so every track point that passes lies in one of the 27
    cells around the detection point's cell. One vectorized pass tests
    every detection point against its own cell; a second tests the points
    still without a hit against the other 26 cells. Every candidate pair
    evaluates the same test, so the result equals the brute-force all-pairs
    computation exactly.
    """
    thr = _check_radius(delta_g, "delta_g")
    n = len(detection_cloud)
    if n == 0 or track_cloud.is_empty:
        return 0.0
    xyz = np.hstack([detection_cloud.points.T, track_cloud.points.T])
    cells = _cell_coords(xyz, delta_g * _OVERLAP_CELL, thr, 1)
    grid = _CellIndex(cells[:, n:], cells.max(axis=1) + 2)
    track = xyz[:, n + grid.order]
    hit = np.zeros(n, dtype=bool)
    for offsets in (_OVERLAP_OFFSETS[:, :1], _OVERLAP_OFFSETS[:, 1:]):
        rows = np.flatnonzero(~hit)
        near = grid.find((cells[:, rows, None] + offsets[:, None, :])
                         .reshape(3, -1)).reshape(rows.size, offsets.shape[1])
        i, j = grid.pairs(rows, near)
        hit[i[_sq_dist(xyz, track, i, j) <= thr]] = True
    return np.count_nonzero(hit) / n
