"""Initial memory construction from an episode of posed RGB-D keyframes.

One detect request lists every keyframe, and its reply holds one item per
keyframe, in order; the build is the only sender of ``detect``, and it
asks no query. The sweep walks the items in frame order: each item's
(bbox, caption) objects are lifted through mask -> back-projection ->
voxel downsample -> densest cluster (apis.detection_from_wire), then
merged into or used to create tracks through the same integration
function that applies patches (apis._associate_detections). An item also
carries the frame's field-of-view tag, kept for its navigation-log entry
(an item without one, or a failed item, gives the tag "unavailable"), and
the class scores of the room its camera stands in, kept as the frame's
room vote.
Every third frame's entry in the request also asks for pairwise relations
among that frame's detections: each row of its item names two detections,
which become an edge between the nodes they landed on; an edge the graph
already holds is dropped. The two nodes always differ: validation refuses
a row that names one detection twice, and association lands a frame's
detections on distinct tracks. An item without relations adds no edges.
Caption histories consolidate once they reach five captions; a
history of one repeated caption needs no request. Consolidation is the
only request of the frame sweep that reads the growing graph.

After the frame sweep: the structure cloud (strided depth of every frame),
which ``spatial`` turns into floors, occupancy grids and watershed rooms;
each keyframe's camera located once in a room, which takes the frame's
room vote and names its navigation-log entry; room labels from the summed
votes of each room's views (spatial.label_rooms, no request); each track
placed once, with its room's label; one navigation-log entry per keyframe
(its nodes are the tracks that list it); and the evenly spaced initial
frame memory. A clean build is thus one round trip, the detect request,
unless a caption history needs consolidating.

A malformed or error item skips that frame's detections and its vote (the
navigation log still covers it); a failed detect request fails every
frame. More than half the frames failing aborts the build before the
sweep.
"""

from __future__ import annotations

import logging
from collections import deque

import numpy as np

from .apis import _associate_detections, detection_from_wire
from .backend import Backend, BackendError, BackendRequest, DetectResponse
from .config import EngineConfig
from .dataset import Episode
from .geometry import PixelMask, PointCloud, backproject, voxel_downsample
from .graph import RelationEdge, consolidate_captions, edge_discovery_due
from .memory import SceneMemory, init_frame_memory
from .spatial import (build_nav_entry, detect_floors, label_rooms, occupancy_grids,
                      segment_rooms)

logger = logging.getLogger(__name__)

# the structure cloud: each frame's depth at every third pixel along both
# axes, downsampled to 5 cm voxels
STRUCTURE_PIXEL_STRIDE = 3
STRUCTURE_VOXEL_M = 0.05
# the build stops when more than this share of frames fails
FRAME_FAILURE_ABORT_FRACTION = 0.5


class BuildError(RuntimeError):
    pass


def _structure_cloud(episode: Episode) -> PointCloud:
    """Coarse cloud of everything seen, for floor-plan occupancy."""
    masks: dict[tuple[int, int], PixelMask] = {}  # one strided mask per frame size
    clouds = []
    for frame in episode.frames:
        w, h = frame.intrinsics.width, frame.intrinsics.height
        mask = masks.get((w, h))
        if mask is None:
            us, vs = np.meshgrid(np.arange(0, w, STRUCTURE_PIXEL_STRIDE),
                                 np.arange(0, h, STRUCTURE_PIXEL_STRIDE))
            mask = masks[w, h] = PixelMask(w, h, np.column_stack([us.ravel(), vs.ravel()]))
        cloud = backproject(frame.depth, mask, frame.intrinsics, frame.pose)
        if not cloud.is_empty:
            clouds.append(cloud.points)
    if not clouds:
        return PointCloud.empty()
    merged = PointCloud(np.vstack(clouds))
    return voxel_downsample(merged, STRUCTURE_VOXEL_M)


def _detect_replies(episode: Episode, backend: Backend, cfg: EngineConfig,
                    edges_due: list[bool]) -> deque[DetectResponse]:
    """One detect reply item per keyframe, in frame order, from one request
    listing them all; the sweep pops each, so it is dropped once its frame
    is walked. A failed request gives every frame its error; each failed
    frame is logged."""
    try:
        replies = backend.call(BackendRequest(
            kind="detect",
            payload={"frames": [[f.id, due]
                                for f, due in zip(episode.frames, edges_due)],
                     "classes": list(cfg.room_classes)},
            frame_sizes=tuple(f.size for f in episode.frames),
            embedding_dim=cfg.embedding_dim))
    except BackendError as exc:
        logger.warning("detect request failed on all %d frames: %s", len(episode), exc)
        return deque([DetectResponse(error=exc)] * len(episode))
    for frame, reply in zip(episode.frames, replies):
        if reply.error is not None:
            logger.warning("detect failed on frame %d, skipping: %s", frame.id,
                           reply.error)
    return deque(replies)


def build_ssm(episode: Episode, backend: Backend,
              config: EngineConfig | None = None) -> SceneMemory:
    """Run the full initial-construction pipeline over an episode."""
    cfg = config or EngineConfig()
    if len(episode) == 0:
        raise BuildError("episode has no frames")

    edges_due = [edge_discovery_due(i) for i in range(len(episode))]
    replies = _detect_replies(episode, backend, cfg, edges_due)
    errors = [r.error for r in replies if r.error is not None]
    if len(errors) > FRAME_FAILURE_ABORT_FRACTION * len(episode):
        raise BuildError(f"{len(errors)} of {len(episode)} frames failed") from errors[0]

    ssm = SceneMemory.empty(episode.scene_id, episode.stride, episode.frame_ids,
                            episode.frame_locators())
    fov_tags = [reply.fov_tag for reply in replies]  # None when failed or untagged
    room_scores = [reply.room_scores for reply in replies]  # None when failed

    for frame, due in zip(episode.frames, edges_due):
        reply = replies.popleft()
        if reply.error is not None:
            continue
        detections = [detection_from_wire(wire, frame, cfg) for wire in reply.objects]
        frame_nodes, _ = _associate_detections(ssm, detections)

        if due:
            ssm.graph.add_edges([
                RelationEdge(subject_id=frame_nodes[r.subject_id],
                             object_id=frame_nodes[r.object_id], relation=r.relation,
                             justification=r.justification, source_frame=frame.id)
                for r in reply.relations])

        for nid in set(frame_nodes):
            ssm.graph.replace_track(consolidate_captions(ssm.graph.tracks[nid], backend))

    heights = [float(f.pose.translation[2]) for f in episode.frames]
    floors = detect_floors(heights)
    ssm.rooms = segment_rooms(floors, occupancy_grids(_structure_cloud(episode), floors))

    # each camera's room takes its frame's vote and names its log entry; then
    # each track is placed once, with its room's label
    camera_rooms = [ssm.rooms.locate(*map(float, f.pose.translation))[1]
                    for f in episode.frames]
    label_rooms(ssm.rooms, zip(camera_rooms, room_scores), list(cfg.room_classes))
    for tid in sorted(ssm.graph.tracks):
        ssm.graph.replace_track(ssm.place_track(ssm.graph.tracks[tid]))

    for prev, frame, room_id, fov in zip([None, *episode.frames], episode.frames,
                                         camera_rooms, fov_tags):
        ssm.nav_log.append(build_nav_entry(frame, prev, ssm.rooms.label_of(room_id),
                                           "unavailable" if fov is None else fov))

    ssm.frame_memory = init_frame_memory(episode.frame_ids, cfg.initial_frames)
    ssm.validate()
    return ssm
