"""The language-callable memory-edit APIs and patch integration.

Each API call names a frame and a natural-language query; ApiExecutor.execute
looks the frame up, sends at most one ``analyze`` request and folds the
answer into a Patch: new detections (already lifted through the geometry
pipeline by detection_from_wire, one at a time), scratchpad notes and
evidence pointers.

* find_objects: ``analyze`` with no targets and ``discover`` true; every
  object found joins the patch, and it notes no node.
* analyze_objects: ``analyze`` (``discover`` false) over the listed nodes
  visible in the frame, noting only those targets; when none of its known
  nodes is visible, the same request as find_objects. Unknown node ids are
  skipped and reported.
* analyze_frame: ``analyze`` (``discover`` true) over every visible node;
  it may note any node and add newly found objects.
* retrieve_frame: no request; the empty patch only appends the frame to the
  frame memory (the image-only API mode).

``detect`` is the build's request alone (pipeline.build_ssm), which lifts
every detection of its reply at once (lift_detections), clustering the
clouds in batches before any is associated.

Nothing touches the memory until apply_patch integrates the whole patch
atomically; a failure anywhere mid-application leaves the memory exactly as
it was.

Notes inside a patch may target an existing node or a detection within the
same patch ("pending"); pending notes attach to whichever track the
detection lands in (merge target or newly created node).

Detections become tracks in one place, _associate_detections: apply_patch
and construction (pipeline.build_ssm, once per keyframe) both merge or
create, and place, through it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

# API_KINDS, ApiCall and ApiError live with the wire protocol, which parses
# reason actions into ApiCall; they stay importable from here.
from .backend import (API_ACTION_KINDS as API_KINDS, ApiCall, ApiError, Backend,
                      BackendError, BackendRequest, WireObject)
from .config import EngineConfig
from .dataset import DatasetError, Episode, Keyframe
from .geometry import (PixelMask, PointCloud, backproject, largest_cluster, project,
                       voxel_downsample)
from .graph import (VOXEL_SIZE_M, CloudSummary, Detection, Embedding, RelationEdge,
                    Track, associate, caption_embedding, hash_embedding,
                    merge_detection)
from .memory import SceneMemory, append_frame

logger = logging.getLogger(__name__)

# a detection's cloud: the DBSCAN radius and core size of its densest
# cluster (its voxel size is graph.VOXEL_SIZE_M, that of track clouds)
CLUSTER_EPS_M = 0.5
CLUSTER_MIN_POINTS = 5
# lift_detections clusters consecutive clouds together up to this many
# points: one call per cloud spends most of its time on per-call overhead,
# while one call over a whole build holds every cloud's grid arrays at once
CLUSTER_BATCH_POINTS = 2 ** 13


@dataclass(frozen=True)
class PatchNote:
    target_kind: str  # "node" | "pending"
    target: int       # node id, or index into the patch's detections
    text: str

    def __post_init__(self):
        if self.target_kind not in ("node", "pending"):
            raise ApiError(f"bad note target kind '{self.target_kind}'")


@dataclass
class Patch:
    provenance: ApiCall
    new_detections: list[Detection] = field(default_factory=list)
    new_edges: list[RelationEdge] = field(default_factory=list)
    notes: list[PatchNote] = field(default_factory=list)
    evidence: list[tuple[int, tuple[int, int, int, int]]] = field(default_factory=list)
    skipped_nodes: list[int] = field(default_factory=list)
    failure: str | None = None

    @property
    def is_empty(self) -> bool:
        return not (self.new_detections or self.new_edges or self.notes)

    def to_doc(self) -> dict:
        """Loggable form; render with memory.canonical_json for stable
        record/replay artifacts (clouds appear as summaries)."""
        dets = []
        for d in self.new_detections:
            summary = CloudSummary.of(d.cloud)
            dets.append({"frame_id": d.frame_id, "bbox": list(d.bbox),
                         "caption": d.caption,
                         "cloud": None if summary is None else summary.to_doc()})
        return {
            "provenance": self.provenance.to_doc(),
            "new_detections": dets,
            "new_edges": [{"subject_id": e.subject_id, "object_id": e.object_id,
                           "relation": e.relation,
                           "justification": e.justification,
                           "source_frame": e.source_frame}
                          for e in self.new_edges],
            "notes": [{"target_kind": n.target_kind, "target": n.target,
                       "text": n.text} for n in self.notes],
            "evidence": [[fid, list(bbox)] for fid, bbox in self.evidence],
            "skipped_nodes": list(self.skipped_nodes),
            "failure": self.failure,
        }

    def validate(self, live_nodes: set[int]) -> None:
        for note in self.notes:
            if note.target_kind == "pending":
                if not 0 <= note.target < len(self.new_detections):
                    raise ApiError(f"pending note index {note.target} out of range")
            elif note.target not in live_nodes:
                raise ApiError(f"note targets unknown node {note.target}")
        if not self.is_empty and not self.evidence:
            raise ApiError("nonempty patch must carry evidence pointers")


@dataclass
class PatchReport:
    call: ApiCall
    created: list[int] = field(default_factory=list)
    merged: list[tuple[int, int]] = field(default_factory=list)  # (det idx, track id)
    edges_accepted: int = 0
    edges_rejected: list[str] = field(default_factory=list)
    notes_added: int = 0
    frame_appended: bool = False
    failure: str | None = None

    def to_doc(self) -> dict:
        return {"api": self.call.kind, "frame_id": self.call.frame_id,
                "query": self.call.query, "created": list(self.created),
                "merged": [list(m) for m in self.merged],
                "edges_accepted": self.edges_accepted,
                "edges_rejected": list(self.edges_rejected),
                "notes_added": self.notes_added,
                "frame_appended": self.frame_appended,
                "failure": self.failure}


def _mask_for(wire: WireObject, frame: Keyframe) -> PixelMask:
    w, h = frame.intrinsics.width, frame.intrinsics.height
    if wire.mask_runs is not None:
        return PixelMask.from_runs(wire.mask_runs, w, h)
    return PixelMask.from_bbox(wire.bbox, w, h)


def _embedding(values, kind: str, caption: str, dim: int) -> Embedding:
    if values is not None:
        return Embedding(values, kind)
    if kind == "language":
        return caption_embedding(caption, dim)
    return hash_embedding("visual-fallback:" + caption, "visual", dim)


def _downsampled(wire: WireObject, frame: Keyframe) -> PointCloud:
    """The object's masked depth, back-projected and voxel downsampled."""
    cloud = backproject(frame.depth, _mask_for(wire, frame), frame.intrinsics,
                        frame.pose)
    return cloud if cloud.is_empty else voxel_downsample(cloud, VOXEL_SIZE_M)


def _detection(wire: WireObject, frame: Keyframe, cloud: PointCloud,
               cfg: EngineConfig) -> Detection:
    dim = cfg.embedding_dim
    return Detection(frame_id=frame.id, bbox=wire.bbox, caption=wire.caption,
                     cloud=cloud,
                     visual=_embedding(wire.visual_embedding, "visual", wire.caption,
                                       dim),
                     language=_embedding(wire.language_embedding, "language",
                                         wire.caption, dim))


def detection_from_wire(wire: WireObject, frame: Keyframe,
                        cfg: EngineConfig) -> Detection:
    """Back-project the masked depth, downsample, keep the densest
    cluster, attach embeddings. A patch lifts its objects one by one here;
    the build lifts them all at once (lift_detections)."""
    cloud = _downsampled(wire, frame)
    if not cloud.is_empty:
        cloud = largest_cluster(cloud, CLUSTER_EPS_M, CLUSTER_MIN_POINTS)
    return _detection(wire, frame, cloud, cfg)


def lift_detections(frames: list[tuple[Keyframe, list[WireObject]]],
                    cfg: EngineConfig) -> list[list[Detection]]:
    """``detection_from_wire`` of every object of every frame, in order,
    byte for byte. The downsampled clouds are clustered in batches of
    consecutive clouds holding at most CLUSTER_BATCH_POINTS points (a
    larger cloud alone), one segmented ``largest_cluster`` call each."""
    clouds = [_downsampled(wire, frame) for frame, objects in frames for wire in objects]
    kept: list[PointCloud] = []
    start = 0
    while start < len(clouds):
        end, total = start + 1, len(clouds[start])
        while end < len(clouds) and total + len(clouds[end]) <= CLUSTER_BATCH_POINTS:
            total += len(clouds[end])
            end += 1
        batch = clouds[start:end]
        kept += largest_cluster(PointCloud(np.vstack([c.points for c in batch])),
                                CLUSTER_EPS_M, CLUSTER_MIN_POINTS,
                                sizes=[len(c) for c in batch])
        start = end
    lifted = iter(kept)
    return [[_detection(wire, frame, next(lifted), cfg) for wire in objects]
            for frame, objects in frames]


class ApiExecutor:
    """Executes API calls against one episode. Holds the frame source, the
    backend and the engine configuration; produces patches but never
    mutates a memory itself."""

    def __init__(self, episode: Episode, backend: Backend, config: EngineConfig):
        self.episode = episode
        self.backend = backend
        self.config = config

    def _projected_bbox(self, track: Track, frame: Keyframe) -> tuple[int, int, int, int] | None:
        if track.cloud is None or track.cloud.is_empty:
            return None
        u, v, _ = project(track.cloud, frame.intrinsics, frame.pose)
        if u.size == 0:
            return None
        w, h = frame.intrinsics.width, frame.intrinsics.height
        inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
        if not inside.any():
            return None
        u, v = u[inside], v[inside]
        return (int(u.min()), int(v.min()),
                min(int(u.max()), w - 1), min(int(v.max()), h - 1))

    def _visible_targets(self, ssm: SceneMemory, frame: Keyframe, ids,
                         full_box: tuple[int, int, int, int]) -> list[dict]:
        """(node_id, bbox, caption) docs for the listed tracks visible in
        the frame; a track whose cloud projects nowhere inside gets the
        full-frame box."""
        targets = []
        for nid in ids:
            track = ssm.graph.tracks[nid]
            if frame.id in track.visible_frames:
                bbox = self._projected_bbox(track, frame) or full_box
                targets.append({"node_id": nid, "bbox": list(bbox),
                                "caption": track.caption})
        return targets

    # -- the APIs -----------------------------------------------------------

    def execute(self, call: ApiCall, ssm: SceneMemory) -> Patch:
        """Turn one API call into at most one analyze request and a patch
        (the mapping is in the module docstring). An unknown frame or a
        failed request gives a failure patch."""
        try:
            frame = self.episode.frame(call.frame_id)
        except DatasetError as exc:
            return Patch(provenance=call, failure=str(exc))
        patch = Patch(provenance=call)
        if call.kind == "retrieve_frame":
            return patch
        note_any = call.kind == "analyze_frame"
        ids = sorted(ssm.graph.tracks) if note_any else []
        if call.kind == "analyze_objects":
            for nid in call.node_ids:
                (ids if nid in ssm.graph.tracks else patch.skipped_nodes).append(nid)
            if patch.skipped_nodes:
                logger.warning("analyze_objects: skipping unknown node ids %s",
                               list(patch.skipped_nodes))
        full_box = (0, 0, frame.intrinsics.width - 1, frame.intrinsics.height - 1)
        targets = self._visible_targets(ssm, frame, ids, full_box)
        discover = note_any or not targets
        try:
            response = self.backend.call(BackendRequest(
                kind="analyze", frame_id=call.frame_id, query=call.query,
                payload={"targets": targets, "discover": discover},
                frame_sizes=(frame.size,), embedding_dim=self.config.embedding_dim))
        except BackendError as exc:
            logger.warning("%s backend failure: %s", call.kind, exc)
            patch.failure = str(exc)
            return patch
        for wire in response.new_objects if discover else ():
            if wire.note:  # it attaches to wherever the detection lands
                patch.notes.append(PatchNote("pending", len(patch.new_detections),
                                             wire.note))
            patch.new_detections.append(detection_from_wire(wire, frame, self.config))
            patch.evidence.append((frame.id, wire.bbox))
        boxes = {t["node_id"]: tuple(t["bbox"]) for t in targets}
        for nid, text in response.notes:
            if nid in (ssm.graph.tracks if note_any else boxes):
                patch.notes.append(PatchNote("node", nid, text))
                patch.evidence.append((call.frame_id, boxes.get(nid, full_box)))
            else:
                patch.skipped_nodes.append(nid)
        return patch


# ---------------------------------------------------------------------------
# Patch integration
# ---------------------------------------------------------------------------

def _associate_detections(work: SceneMemory,
                          detections: list[Detection]) -> tuple[list[int], list[int]]:
    """Merge each detection into its associated track or create a track for
    it, and place that track. Returns the landing track id per detection
    and the ids of the created tracks. Construction and patches both
    integrate detections here."""
    tracks = [work.graph.tracks[tid] for tid in sorted(work.graph.tracks)]
    matching = associate(detections, tracks)
    landing: list[int] = []
    created: list[int] = []
    for di, det in enumerate(detections):
        target = matching[di]
        if target is None:
            target = work.graph.new_track_id()
            work.graph.insert_track(work.place_track(Track(
                id=target, cloud=det.cloud, visual=det.visual,
                language=det.language, caption=det.caption,
                caption_history=(det.caption,), visible_frames=(det.frame_id,))))
            created.append(target)
        else:
            work.graph.replace_track(work.place_track(
                merge_detection(work.graph.tracks[target], det)))
        landing.append(target)
    return landing, created


def _insert_edges(work: SceneMemory, patch: Patch, report: PatchReport) -> None:
    edge_report = work.graph.add_edges(patch.new_edges)
    report.edges_accepted = len(edge_report.accepted)
    report.edges_rejected = [reason for _, reason in edge_report.rejected]


def _append_notes(work: SceneMemory, patch: Patch, landing: list[int],
                  report: PatchReport) -> None:
    for note in patch.notes:
        node_id = landing[note.target] if note.target_kind == "pending" else note.target
        work.add_note(node_id, note.text, patch.provenance.kind,
                      patch.provenance.query, patch.provenance.frame_id)
        report.notes_added += 1


def _append_frame_memory(work: SceneMemory, patch: Patch,
                         report: PatchReport) -> None:
    before = len(work.frame_memory)
    work.frame_memory = append_frame(work.frame_memory, patch.provenance.frame_id)
    report.frame_appended = len(work.frame_memory) > before


def apply_patch(ssm: SceneMemory, patch: Patch) -> tuple[SceneMemory, PatchReport]:
    """Integrate a patch atomically.

    In order: (1) detections associate against current tracks (merge at
    >= graph.MIN_VOTES votes, else a new track), and each track a detection
    lands on lists the detection's frame in its ``visible_frames`` and is
    placed by the floor plan, (2) edges validated and inserted, (3) notes
    resolved and appended, (4) the patched frame enters frame memory. Either every
    effect lands or — on any internal failure — the input memory is
    returned untouched with the failure recorded in the report.
    """
    report = PatchReport(call=patch.provenance)
    if patch.failure is not None:
        report.failure = patch.failure
        return ssm, report
    if patch.provenance.frame_id not in ssm.frame_ids:
        report.failure = f"frame {patch.provenance.frame_id} not in episode"
        return ssm, report
    work = ssm.copy()
    try:
        patch.validate(set(work.graph.tracks))
        landing, report.created = _associate_detections(work, patch.new_detections)
        report.merged = [(di, tid) for di, tid in enumerate(landing)
                         if tid not in report.created]
        _insert_edges(work, patch, report)
        _append_notes(work, patch, landing, report)
        _append_frame_memory(work, patch, report)
        work.validate()
    except Exception as exc:  # atomicity: discard the working copy entirely
        logger.warning("apply_patch failed, memory unchanged: %s", exc)
        return ssm, PatchReport(call=patch.provenance, failure=str(exc))
    return work, report
