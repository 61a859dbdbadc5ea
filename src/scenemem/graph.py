"""Object tracks and relation edges.

A track is a fused object hypothesis: a point cloud, pooled visual and
caption embeddings, a caption history, optional room/floor assignment and
the list of keyframes it was seen in. New detections join existing tracks
through a three-indicator vote (visual similarity, caption similarity,
point overlap). The overlap is computed only for contested pairs, the
only ones whose match it can change (``associate`` says why); merges pool
embeddings with an exponential moving average and downsample the unioned
cloud. A track's cloud is already downsampled after its first merge, so
later merges sort only the detection's cells into the track's sorted
ones (``merge_detection`` says when a merge falls back to downsampling
the whole union). The vote's thresholds, the merge's weight and voxel
size, the consolidation length and the relation period are module
constants below, each next to its reader.

Tracks and edges are immutable values: a merge, a consolidation or a room
assignment replaces a track, never edits it. The graph's containers are
single-writer (callers must not mutate one graph from more than one thread
at a time); ``copy()`` copies only the containers and shares every record,
so a copy and its original never see each other's later edits.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

# RELATION_LABELS lives with the wire protocol, which validates relation
# responses against it; it stays importable from here.
from .backend import RELATION_LABELS, BackendError, BackendRequest
from .geometry import PointCloud, geometric_overlap, voxel_union

logger = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-6

# the association vote (associate): a detection casts one vote per strict
# indicator, and MIN_VOTES of them merge it into a track
VISUAL_SIM_THRESHOLD = 0.7
CAPTION_SIM_THRESHOLD = 0.8
OVERLAP_THRESHOLD = 0.4
OVERLAP_RADIUS_M = 0.05
MIN_VOTES = 2
# merges (merge_detection): EMA weight of the new embedding, and the voxel
# size of detection and track clouds
EMA_WEIGHT = 0.5
VOXEL_SIZE_M = 0.02
# history length that consolidates (consolidate_captions), and the keyframe
# period of relation discovery (edge_discovery_due)
CAPTION_CONSOLIDATION_THRESHOLD = 5
EDGE_DISCOVERY_PERIOD = 3


class GraphError(ValueError):
    pass


class Embedding:
    """Fixed-dimension unit vector; ``kind`` is 'visual' or 'language'."""

    __slots__ = ("vector", "kind")

    def __init__(self, vector, kind: str):
        if kind not in ("visual", "language"):
            raise GraphError(f"unknown embedding kind '{kind}'")
        v = np.array(vector, dtype=np.float64).reshape(-1)
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise GraphError("embedding vector must be finite and nonempty")
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise GraphError("embedding vector must be nonzero")
        v = v / norm
        v.flags.writeable = False
        self.vector = v
        self.kind = kind

    @classmethod
    def from_unit(cls, vector, kind: str) -> "Embedding":
        """Rebuild an embedding from a stored unit vector, bit for bit.
        Dividing a normalized vector by its own computed norm can move its
        last bits, so the vector is checked against UNIT_NORM_TOL instead."""
        emb = cls(vector, kind)
        v = np.array(vector, dtype=np.float64).reshape(-1)
        if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_NORM_TOL:
            raise GraphError("stored embedding vector must have unit norm")
        v.flags.writeable = False
        emb.vector = v
        return emb

    @property
    def dim(self) -> int:
        return self.vector.size

    def __repr__(self):
        return f"Embedding(kind={self.kind}, dim={self.dim})"


def cosine(a: Embedding, b: Embedding) -> float:
    if a.dim != b.dim:
        raise GraphError(f"embedding dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.dot(a.vector, b.vector))


def hash_embedding(key: str, kind: str, dim: int) -> Embedding:
    """Deterministic pseudo-embedding derived from a text key.

    Identical keys map to identical unit vectors; distinct keys map to
    near-orthogonal ones with overwhelming probability at dim 64. Used as
    the fallback when a backend supplies no embedding, and by the scripted
    backend for caption embeddings.
    """
    seed = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")
    gen = np.random.Generator(np.random.PCG64(seed))
    return Embedding(gen.standard_normal(dim), kind)


def caption_embedding(caption: str, dim: int) -> Embedding:
    return hash_embedding("caption:" + caption.strip().lower(), "language", dim)


@dataclass(frozen=True)
class Detection:
    """One detector output, already lifted through the geometry pipeline."""

    frame_id: int
    bbox: tuple[int, int, int, int]  # (u_min, v_min, u_max, v_max), inclusive
    caption: str
    cloud: PointCloud
    visual: Embedding
    language: Embedding

    def __post_init__(self):
        u0, v0, u1, v1 = self.bbox
        if u0 > u1 or v0 > v1:
            raise GraphError(f"bbox not well-ordered: {self.bbox}")


@dataclass(frozen=True)
class CloudSummary:
    """Compact stand-in for a point cloud: centroid, extent, point count."""

    centroid: tuple[float, float, float]
    extent: tuple[float, float, float]
    count: int

    @classmethod
    def of(cls, cloud: PointCloud) -> "CloudSummary | None":
        if cloud.is_empty:
            return None
        return cls(tuple(cloud.centroid().tolist()), tuple(cloud.extent().tolist()),
                   len(cloud))

    def to_doc(self) -> dict:
        """The serialized ``cloud`` object of tracks and patch detections."""
        return {"centroid": [float(x) for x in self.centroid],
                "extent": [float(x) for x in self.extent],
                "points": self.count}


@dataclass(frozen=True, eq=False)
class Track:
    """A scene-graph node. ``cloud`` may be None for geometry-light tracks
    reconstructed from serialized form, in which case ``summary`` holds the
    persisted cloud summary. ``room_id`` is the structural room key,
    ``room_label`` its semantic name (set once room labeling has run)."""

    id: int
    cloud: PointCloud | None
    visual: Embedding | None
    language: Embedding | None
    caption: str
    caption_history: tuple[str, ...]
    room_id: str | None = None
    floor_id: str | None = None
    room_label: str | None = None
    visible_frames: tuple[int, ...] = ()
    summary: CloudSummary | None = None

    def __post_init__(self):
        object.__setattr__(self, "caption_history", tuple(self.caption_history))
        object.__setattr__(self, "visible_frames", tuple(self.visible_frames))
        if not self.visible_frames:
            raise GraphError("track must be visible in at least one frame")
        if len(set(self.visible_frames)) != len(self.visible_frames):
            raise GraphError("visible_frames must not contain duplicates")

    def cloud_summary(self) -> CloudSummary | None:
        if self.cloud is not None:
            return CloudSummary.of(self.cloud)
        return self.summary


@dataclass(frozen=True)
class RelationEdge:
    subject_id: int
    object_id: int
    relation: str
    justification: str
    source_frame: int

    def __post_init__(self):
        if self.relation not in RELATION_LABELS:
            raise GraphError(f"unknown relation label '{self.relation}'")
        if self.subject_id == self.object_id:
            raise GraphError("edge endpoints must differ")

    def key(self) -> tuple[int, int, str]:
        return (self.subject_id, self.object_id, self.relation)


def _embedding_votes(d: Detection, t: Track) -> int:
    """Visual and caption votes for a detection/track pair, each by strict
    inequality against its threshold. A track without embeddings
    (geometry-light) contributes none."""
    votes = 0
    if t.visual is not None and cosine(d.visual, t.visual) > VISUAL_SIM_THRESHOLD:
        votes += 1
    if t.language is not None and cosine(d.language, t.language) > CAPTION_SIM_THRESHOLD:
        votes += 1
    return votes


def _overlap(d: Detection, t: Track) -> float:
    """Overlap fraction of the detection cloud against the track cloud; 0
    for a geometry-light track or an empty detection cloud."""
    if t.cloud is None or d.cloud.is_empty:
        return 0.0
    return geometric_overlap(d.cloud, t.cloud, OVERLAP_RADIUS_M)


def vote_score(d: Detection, t: Track) -> int:
    """Number of accepted indicators in {0..3} for matching d to t."""
    return _embedding_votes(d, t) + int(_overlap(d, t) > OVERLAP_THRESHOLD)


def associate(detections: list[Detection],
              tracks: list[Track]) -> dict[int, int | None]:
    """One-to-one greedy matching of a frame's detections to tracks.

    Candidate pairs with at least MIN_VOTES votes are taken greedily in
    descending (votes, overlap) order, breaking ties by lower track id and
    then detection order. Each track absorbs at most one detection per
    frame. Unmatched detections map to None (start a new track).

    The overlap is computed only where it can change the match. A pair
    whose embedding votes fall short of MIN_VOTES - 1 cannot become a
    candidate. Of the others, a pair whose detection and track appear in
    no other such pair is uncontested: with MIN_VOTES embedding votes it is
    a candidate whatever the overlap reads, and no other candidate can
    claim its detection or its track, so the greedy takes it without one.
    """
    # the geometric indicator adds at most one vote
    pairs = [(di, t, votes) for di, det in enumerate(detections) for t in tracks
             if (votes := _embedding_votes(det, t)) + 1 >= MIN_VOTES]
    det_pairs = Counter(di for di, _, _ in pairs)
    track_pairs = Counter(t.id for _, t, _ in pairs)
    out: dict[int, int | None] = {di: None for di in range(len(detections))}
    candidates: list[tuple[int, float, int, int]] = []
    for di, t, emb_votes in pairs:
        if emb_votes >= MIN_VOTES and det_pairs[di] == track_pairs[t.id] == 1:
            out[di] = t.id
            continue
        overlap = _overlap(detections[di], t)
        votes = emb_votes + int(overlap > OVERLAP_THRESHOLD)
        if votes >= MIN_VOTES:
            candidates.append((votes, overlap, t.id, di))
    candidates.sort(key=lambda c: (-c[0], -c[1], c[2], c[3]))
    used_tracks: set[int] = set()
    used_dets: set[int] = set()
    for votes, overlap, tid, di in candidates:
        if tid in used_tracks or di in used_dets:
            continue
        out[di] = tid
        used_tracks.add(tid)
        used_dets.add(di)
    return out


def merge_detection(t: Track, d: Detection) -> Track:
    """Fold a matched detection into its track.

    Embeddings are pooled as normalize(alpha * d + (1 - alpha) * t) with
    alpha = EMA_WEIGHT; the cloud becomes ``voxel_downsample`` of the union
    of both clouds, so the per-track cloud stays bounded; the detection
    caption and frame id are appended (frame ids keep ordered-set
    semantics).

    ``geometry.voxel_union`` computes that cloud byte for byte. When the
    track's cloud is one that ``voxel_downsample`` gives back unchanged,
    its cells already strictly increase, so only the detection's points
    are keyed and sorted: each cell they touch sums the track's point
    first, then theirs in input order, and the new cells are inserted in
    order. It downsamples the whole union instead for a track without a
    cloud; for a cloud whose cells do not strictly increase, as in a
    track's first merge (``largest_cluster`` returns the detection's cloud
    in coordinate order, not cell order), or that holds a -0.0; and for a
    detection point whose cell index lies outside the packed key's range.
    """
    a = EMA_WEIGHT

    def pool(new: Embedding, old: Embedding | None) -> Embedding:
        if old is None:
            return new
        if new.dim != old.dim:
            raise GraphError("embedding dimension mismatch in merge")
        return Embedding(a * new.vector + (1.0 - a) * old.vector, new.kind)

    cloud = voxel_union(PointCloud.empty() if t.cloud is None else t.cloud, d.cloud,
                        VOXEL_SIZE_M)
    visible = t.visible_frames
    if d.frame_id not in visible:
        visible += (d.frame_id,)
    return replace(
        t,
        cloud=cloud,
        visual=pool(d.visual, t.visual),
        language=pool(d.language, t.language),
        caption_history=t.caption_history + (d.caption,),
        visible_frames=visible,
        summary=None,
    )


@dataclass
class EdgeReport:
    accepted: list[RelationEdge] = field(default_factory=list)
    rejected: list[tuple[RelationEdge, str]] = field(default_factory=list)


class SceneGraph:
    """Tracks plus relation edges, with referential integrity enforced."""

    def __init__(self):
        self.tracks: dict[int, Track] = {}
        self.edges: list[RelationEdge] = []

    def new_track_id(self) -> int:
        """One above the largest track id: the id the next inserted track takes."""
        return max(self.tracks, default=-1) + 1

    def insert_track(self, track: Track) -> None:
        if track.id in self.tracks:
            raise GraphError(f"duplicate track id {track.id}")
        self.tracks[track.id] = track

    def replace_track(self, track: Track) -> None:
        if track.id not in self.tracks:
            raise GraphError(f"unknown track id {track.id}")
        self.tracks[track.id] = track

    def add_edges(self, edges: list[RelationEdge]) -> EdgeReport:
        """Insert edges, rejecting unknown endpoints and duplicate
        (subject, object, relation) triples. Rejections are reported, not
        raised."""
        report = EdgeReport()
        existing = {e.key() for e in self.edges}
        for edge in edges:
            if edge.subject_id not in self.tracks:
                report.rejected.append((edge, f"unknown subject id {edge.subject_id}"))
                continue
            if edge.object_id not in self.tracks:
                report.rejected.append((edge, f"unknown object id {edge.object_id}"))
                continue
            if edge.key() in existing:
                report.rejected.append((edge, "duplicate edge"))
                continue
            existing.add(edge.key())
            self.edges.append(edge)
            report.accepted.append(edge)
        return report

    def copy(self) -> "SceneGraph":
        g = SceneGraph()
        g.tracks = dict(self.tracks)
        g.edges = list(self.edges)
        return g

    def __len__(self) -> int:
        return len(self.tracks)


def edge_discovery_due(frame_index: int) -> bool:
    """True on processed-frame ordinals 0, EDGE_DISCOVERY_PERIOD, twice
    that, ..."""
    if frame_index < 0:
        raise GraphError("frame_index must be >= 0")
    return frame_index % EDGE_DISCOVERY_PERIOD == 0


def consolidate_captions(t: Track, backend) -> Track:
    """Compress an accumulated caption history into a single sentence.

    Below CAPTION_CONSOLIDATION_THRESHOLD entries this is a no-op. A
    history of one repeated caption compresses to that caption without a
    request. Otherwise the backend's consolidate call supplies the
    sentence. Either way the sentence becomes the track caption and the
    sole history entry. On backend failure the track is returned unchanged
    and the failure logged.
    """
    if len(t.caption_history) < CAPTION_CONSOLIDATION_THRESHOLD:
        return t
    if len(set(t.caption_history)) == 1:
        caption = t.caption_history[0]
        return replace(t, caption=caption, caption_history=(caption,))
    request = BackendRequest(kind="consolidate",
                             payload={"captions": list(t.caption_history)})
    try:
        response = backend.call(request)
    except BackendError as exc:
        logger.warning("caption consolidation failed for track %d: %s", t.id, exc)
        return t
    return replace(t, caption=response.sentence, caption_history=(response.sentence,))
