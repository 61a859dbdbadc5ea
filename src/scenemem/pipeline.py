"""Initial memory construction from an episode of posed RGB-D keyframes.

One detect request lists every keyframe, and its reply holds one item per
keyframe, in order; the build is the only sender of ``detect``, and it
asks no query. The build extends the empty memory, first with what reads
no detection: ``floor_plan`` turns the structure cloud (strided depth of
every frame) into floors, occupancy grids and watershed rooms, and locates
each keyframe's camera once in a room (``attach_floor_plan`` reruns it for
a loaded memory); each room is labelled from the summed class scores of
the items whose camera stands in it (spatial.label_rooms, no request); and
each keyframe gets its navigation-log entry, with its item's field-of-view
tag ("unavailable" for an item without one, or a failed item).
The sweep then lifts every item's (bbox, caption) objects, in frame
order, through mask -> back-projection -> voxel downsample -> densest
cluster (apis.lift_detections, which clusters the clouds in batches); the
lift reads no graph. It then walks the items in frame order: each item's
detections are merged into or used to create tracks by the function that
applies patches (apis._associate_detections), which places each track a
detection lands on.
Every third frame's entry in the request also asks for pairwise relations
among that frame's detections: each row of its item names two detections,
which become an edge between the nodes they landed on; an edge the graph
already holds is dropped. The two nodes always differ: validation refuses
a row that names one detection twice, and association lands a frame's
detections on distinct tracks. An item without relations adds no edges.
Caption histories consolidate once they reach five captions; a
history of one repeated caption needs no request. Consolidation is the
only request of the frame sweep that reads the growing graph. The evenly
spaced initial frame memory comes last, so a clean build is one round
trip, the detect request, unless a caption history needs consolidating.

A malformed or error item skips that frame's detections and its vote (the
navigation log still covers it); a failed detect request fails every
frame. More than half the frames failing aborts the build before the
sweep.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import replace

import numpy as np

from .apis import _associate_detections, lift_detections
from .backend import Backend, BackendError, BackendRequest, DetectResponse
from .config import EngineConfig
from .dataset import Episode
from .geometry import PixelMask, PointCloud, backproject, voxel_downsample
from .graph import RelationEdge, consolidate_captions, edge_discovery_due
from .memory import SceneMemory, SerializationError, init_frame_memory
from .spatial import (RoomModel, build_nav_entry, detect_floors, label_rooms,
                      occupancy_grids, segment_rooms)

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


def floor_plan(episode: Episode) -> tuple[RoomModel, list[str | None]]:
    """The episode's unlabelled floor plan, and each keyframe camera's room."""
    floors = detect_floors([float(f.pose.translation[2]) for f in episode.frames])
    plan = segment_rooms(floors, occupancy_grids(_structure_cloud(episode), floors))
    return plan, [plan.locate(*map(float, f.pose.translation))[1] for f in episode.frames]


def attach_floor_plan(ssm: SceneMemory, episode: Episode) -> None:
    """Set a loaded memory's floor plan, recomputed from the episode it was
    built from, each camera's room labelled as its navigation-log row reads.
    Raises SerializationError at the first broken rule of
    ``SceneMemory.validate`` or row that contradicts the plan, such as a
    track whose cloud the plan locates elsewhere than the memory places it."""
    ssm.validate()
    if tuple(episode.frame_ids) != ssm.frame_ids:
        raise SerializationError("the episode's keyframes are not the memory's",
                                 "$.navigation_log.rows")
    locators = episode.frame_locators()
    if stray := [fid for fid, loc in ssm.frame_locators.items() if locators[fid] != loc]:
        raise SerializationError(f"frame {stray[0]} is {locators[stray[0]]}, but the memory "
                                 f"was built from {ssm.frame_locators[stray[0]]}",
                                 "$.episode.frame_locators")
    plan, camera_rooms = floor_plan(episode)
    planned = replace(ssm, rooms=plan)
    tracks = [ssm.graph.tracks[tid] for tid in sorted(ssm.graph.tracks)]
    for i, t in enumerate(tracks):
        placed = planned.place_track(t)
        if (placed.floor_id, placed.room_id) != (t.floor_id, t.room_id):
            raise SerializationError(f"the floor plan places the track in {placed.floor_id} "
                                     f"room {placed.room_id}",
                                     f"$.scene_graph.tracks.rows[{i}]")
    for i, (room, entry) in enumerate(zip(camera_rooms, ssm.nav_log)):
        label = plan.labels.setdefault(room, entry.room_label) if room else "unknown"
        if label != entry.room_label:
            raise SerializationError(f"camera room {room} reads {label!r}",
                                     f"$.navigation_log.rows[{i}].room_label")
    rooms = set(plan.room_ids())
    for i, t in enumerate(tracks):
        if t.room_id is not None and (t.room_id not in rooms
                                      or plan.label_of(t.room_id) != t.room_label):
            raise SerializationError(f"the floor plan has no room {t.room_id} labelled "
                                     f"{t.room_label!r}", f"$.scene_graph.tracks.rows[{i}]")
    ssm.rooms = plan


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
    ssm.rooms, camera_rooms = floor_plan(episode)
    label_rooms(ssm.rooms, zip(camera_rooms, (r.room_scores for r in replies)),
                list(cfg.room_classes))
    for prev, frame, room_id, reply in zip([None, *episode.frames], episode.frames,
                                           camera_rooms, replies):
        ssm.nav_log.append(build_nav_entry(frame, prev, ssm.rooms.label_of(room_id),
                                           "unavailable" if reply.fov_tag is None
                                           else reply.fov_tag))

    lifted = lift_detections([(frame, () if reply.error is not None else reply.objects)
                              for frame, reply in zip(episode.frames, replies)], cfg)
    for frame, due, detections in zip(episode.frames, edges_due, lifted):
        reply = replies.popleft()
        if reply.error is not None:
            continue
        frame_nodes, _ = _associate_detections(ssm, detections)

        if due:
            ssm.graph.add_edges([
                RelationEdge(subject_id=frame_nodes[r.subject_id],
                             object_id=frame_nodes[r.object_id], relation=r.relation,
                             justification=r.justification, source_frame=frame.id)
                for r in reply.relations])

        for nid in set(frame_nodes):
            ssm.graph.replace_track(consolidate_captions(ssm.graph.tracks[nid], backend))

    ssm.frame_memory = init_frame_memory(episode.frame_ids, cfg.initial_frames)
    ssm.validate()
    return ssm
