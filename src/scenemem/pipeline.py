"""Initial memory construction from an episode of posed RGB-D keyframes.

Per keyframe: ask the backend detector for (bbox, caption) objects, lift
each through mask -> back-projection -> voxel downsample -> densest
cluster, then merge into or create tracks through the same integration
function that applies patches (apis._associate_detections).
Every third processed frame the backend predicts pairwise relations among
the frame's visible nodes. Caption histories consolidate once they reach
the configured length. After the frame sweep: floors from the camera
height histogram, rooms by watershed over an occupancy grid accumulated
from subsampled depth, room labels via backend scoring, one navigation-log
entry per keyframe, and the evenly spaced initial frame memory.

Per-frame detector failures skip that frame's detections (the navigation
log still covers it); more than half the frames failing aborts the build.
"""

from __future__ import annotations

import logging

import numpy as np

from .apis import ApiExecutor, _associate_detections
from .backend import Backend, BackendError, BackendRequest
from .config import EngineConfig
from .dataset import Episode
from .geometry import PixelMask, PointCloud, backproject, voxel_downsample
from .graph import RelationEdge, consolidate_captions, edge_discovery_due
from .memory import SceneMemory, init_frame_memory
from .spatial import (OccupancyGrid, build_nav_entry, detect_floors, label_rooms,
                      segment_rooms)

logger = logging.getLogger(__name__)


class BuildError(RuntimeError):
    pass


def _structure_cloud(episode: Episode, cfg: EngineConfig) -> PointCloud:
    """Coarse cloud of everything seen, for floor-plan occupancy."""
    stride = max(1, cfg.structure_pixel_stride)
    masks: dict[tuple[int, int], PixelMask] = {}  # one strided mask per frame size
    clouds = []
    for frame in episode.frames:
        w, h = frame.intrinsics.width, frame.intrinsics.height
        mask = masks.get((w, h))
        if mask is None:
            us, vs = np.meshgrid(np.arange(0, w, stride), np.arange(0, h, stride))
            mask = masks[w, h] = PixelMask(w, h, np.column_stack([us.ravel(), vs.ravel()]))
        cloud = backproject(frame.depth, mask, frame.intrinsics, frame.pose)
        if not cloud.is_empty:
            clouds.append(cloud.points)
    if not clouds:
        return PointCloud.empty()
    merged = PointCloud(np.vstack(clouds))
    return voxel_downsample(merged, cfg.structure_voxel_m)


def _neighbor_count(mask: np.ndarray) -> np.ndarray:
    """Number of True 8-neighbors per cell."""
    padded = np.pad(mask.astype(np.int64), 1)
    total = np.zeros_like(padded)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            total += np.roll(np.roll(padded, dr, axis=0), dc, axis=1)
    return total[1:-1, 1:-1]


def _drop_small_components(free: np.ndarray, min_cells: int) -> np.ndarray:
    """Mark free components smaller than min_cells as walls (observation
    speckle, not rooms). The 4-connected flood fill runs on flat indices
    into a byte string padded with one wall cell on every side."""
    wp = free.shape[1] + 2
    free_p = np.pad(free, 1, constant_values=False)
    open_p = bytearray(free_p.tobytes())
    steps = (-wp, wp, -1, 1)
    dropped: list[int] = []
    start = open_p.find(1)
    while start >= 0:
        open_p[start] = 0
        stack = [start]
        component = []  # only kept while it is small enough to drop
        while stack:
            i = stack.pop()
            if len(component) < min_cells:
                component.append(i)
            for step in steps:
                j = i + step
                if open_p[j]:
                    open_p[j] = 0
                    stack.append(j)
        if len(component) < min_cells:
            dropped.extend(component)
        start = open_p.find(1, start + 1)
    free_p.flat[dropped] = False
    return free_p[1:-1, 1:-1].copy()


def _occupancy_grids(cloud: PointCloud, floors, cfg: EngineConfig) \
        -> dict[str, OccupancyGrid]:
    """Free/wall grid per floor.

    A seen cell is a wall when its points span at least wall_height_m
    vertically, free otherwise. Unseen cells are filled from free neighbors
    for a few iterations (depth coverage has holes behind furniture), the
    rest counts as wall; under-sized free specks are dropped.
    """
    grids: dict[str, OccupancyGrid] = {}
    if cloud.is_empty:
        return grids
    cell = cfg.spatial.grid_cell_m
    pts = cloud.points
    floor_ids = [f[0] for f in floors.floors]
    floor_of = floors.indices_of(pts[:, 2])
    for fi, floor_id in enumerate(floor_ids):
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
        wall = seen & ((zmax - zmin) >= cfg.spatial.wall_height_m)
        free = seen & ~wall
        unseen = ~seen
        for _ in range(cfg.spatial.fill_unknown_iterations):
            grow = unseen & (_neighbor_count(free) >= 4)
            if not grow.any():
                break
            free = free | grow
            unseen = unseen & ~grow
        min_cells = max(1, int(round(cfg.spatial.min_room_area_m2 / (cell * cell))))
        free = _drop_small_components(free, min_cells)
        grids[floor_id] = OccupancyGrid(free=free, origin=(x0, y0), cell_size=cell)
    return grids


def build_ssm(episode: Episode, backend: Backend,
              config: EngineConfig | None = None) -> SceneMemory:
    """Run the full initial-construction pipeline over an episode."""
    cfg = config or EngineConfig()
    if len(episode) == 0:
        raise BuildError("episode has no frames")

    ssm = SceneMemory.empty(episode.scene_id, episode.stride, episode.frame_ids,
                            episode.frame_locators())
    executor = ApiExecutor(episode, backend, cfg)
    visible_by_frame: dict[int, list[int]] = {}
    failed_frames = 0

    for index, frame in enumerate(episode.frames):
        try:
            response = backend.call(BackendRequest(kind="detect", frame_id=frame.id,
                                                   frame_size=frame.size))
        except BackendError as exc:
            failed_frames += 1
            logger.warning("detect failed on frame %d, skipping: %s", frame.id, exc)
            visible_by_frame[frame.id] = []
            if failed_frames > cfg.frame_failure_abort_fraction * len(episode):
                raise BuildError(
                    f"{failed_frames} of {len(episode)} frames failed") from exc
            continue

        detections = [executor.detection_from_wire(wire, frame)
                      for wire in response.objects]
        frame_nodes, _ = _associate_detections(ssm, detections, cfg)
        det_bbox_by_node = {nid: det.bbox for nid, det in zip(frame_nodes, detections)}
        visible_by_frame[frame.id] = frame_nodes

        if frame_nodes and edge_discovery_due(index, cfg.edge_discovery_period):
            visible_payload = [{"node_id": nid, "bbox": list(det_bbox_by_node[nid]),
                                "caption": ssm.graph.tracks[nid].caption}
                               for nid in sorted(set(frame_nodes))]
            try:
                rel_response = backend.call(BackendRequest(
                    kind="relations", frame_id=frame.id,
                    payload={"visible": visible_payload}))
            except BackendError as exc:
                logger.warning("edge discovery failed on frame %d: %s", frame.id, exc)
            else:
                edges = [RelationEdge(subject_id=r.subject_id, object_id=r.object_id,
                                      relation=r.relation,
                                      justification=r.justification,
                                      source_frame=frame.id)
                         for r in rel_response.relations]
                report = ssm.graph.add_edges(edges)
                for edge, reason in report.rejected:
                    if reason != "duplicate edge":
                        logger.warning("rejected edge %s: %s", edge.key(), reason)

        for nid in set(frame_nodes):
            track = ssm.graph.tracks[nid]
            if len(track.caption_history) >= cfg.caption_consolidation_threshold:
                ssm.graph.replace_track(consolidate_captions(
                    track, backend, cfg.caption_consolidation_threshold))

    heights = [float(f.pose.translation[2]) for f in episode.frames]
    floors = detect_floors(heights, cfg.spatial.height_bin_m,
                           cfg.spatial.floor_separation_m)
    structure = _structure_cloud(episode, cfg)
    rooms = segment_rooms(_occupancy_grids(structure, floors, cfg), cfg.spatial)
    ssm.floors, ssm.rooms = floors, rooms

    members: dict[str, list[str]] = {}
    for tid in sorted(ssm.graph.tracks):
        track = ssm.graph.tracks[tid]
        ssm.place_track(track)
        if track.room_id is not None:
            members.setdefault(track.room_id, []).append(track.caption)
    rooms = label_rooms(rooms, members, backend, list(cfg.spatial.room_classes))
    ssm.rooms = rooms
    for track in ssm.graph.tracks.values():
        if track.room_id is not None:
            track.room_label = rooms.label_of(track.room_id)

    prev = None
    for frame in episode.frames:
        ssm.nav_log.append(build_nav_entry(
            frame, prev, rooms, floors, visible_by_frame.get(frame.id, []),
            backend, cfg.spatial))
        prev = frame

    ssm.frame_memory = init_frame_memory(episode.frame_ids, cfg.initial_frames)
    ssm.validate()
    return ssm
