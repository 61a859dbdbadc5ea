"""Initial memory construction from an episode of posed RGB-D keyframes.

Per keyframe: ask the backend detector for (bbox, caption) objects, lift
each through mask -> back-projection -> voxel downsample -> densest
cluster, then merge into or create tracks through the same integration
function that applies patches (apis._associate_detections).
Every third processed frame the backend predicts pairwise relations among
the frame's visible nodes. Caption histories consolidate once they reach
the configured length. After the frame sweep: the structure cloud (strided
depth of every frame), which ``spatial`` turns into floors, occupancy grids
and watershed rooms, room labels via backend scoring, one navigation-log
entry per keyframe, and the evenly spaced initial frame memory.

Per-frame detector failures skip that frame's detections (the navigation
log still covers it); more than half the frames failing aborts the build.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from .apis import ApiExecutor, _associate_detections
from .backend import Backend, BackendError, BackendRequest
from .config import EngineConfig
from .dataset import Episode
from .geometry import PixelMask, PointCloud, backproject, voxel_downsample
from .graph import RelationEdge, consolidate_captions, edge_discovery_due
from .memory import SceneMemory, init_frame_memory
from .spatial import (build_nav_entry, detect_floors, label_rooms, occupancy_grids,
                      segment_rooms)

logger = logging.getLogger(__name__)


class BuildError(RuntimeError):
    pass


def _structure_cloud(episode: Episode, cfg: EngineConfig) -> PointCloud:
    """Coarse cloud of everything seen, for floor-plan occupancy."""
    stride = cfg.structure_pixel_stride
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
            response = backend.call(BackendRequest(
                kind="detect", frame_id=frame.id, frame_size=frame.size,
                embedding_dim=cfg.embedding_dim))
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
    rooms = segment_rooms(occupancy_grids(structure, floors, cfg.spatial), cfg.spatial)
    ssm.floors, ssm.rooms = floors, rooms

    members: dict[str, list[str]] = {}
    for tid in sorted(ssm.graph.tracks):
        track = ssm.place_track(ssm.graph.tracks[tid])
        ssm.graph.replace_track(track)
        if track.room_id is not None:
            members.setdefault(track.room_id, []).append(track.caption)
    label_rooms(rooms, members, backend, list(cfg.spatial.room_classes))
    for track in list(ssm.graph.tracks.values()):
        if track.room_id is not None:
            ssm.graph.replace_track(replace(track, room_label=rooms.label_of(track.room_id)))

    prev = None
    for frame in episode.frames:
        ssm.nav_log.append(build_nav_entry(
            frame, prev, rooms, floors, visible_by_frame.get(frame.id, []),
            backend, cfg.spatial))
        prev = frame

    ssm.frame_memory = init_frame_memory(episode.frame_ids, cfg.initial_frames)
    ssm.validate()
    return ssm
