"""Object tracks and relation edges.

A track is a fused object hypothesis: a point cloud, pooled visual and
caption embeddings, a caption history, optional room/floor assignment and
the list of keyframes it was seen in. New detections join existing tracks
through a three-indicator vote (visual similarity, caption similarity,
point overlap); merges pool embeddings with an exponential moving average
and re-downsample the unioned cloud.

Tracks and edges are immutable values: a merge, a consolidation or a room
assignment replaces a track, never edits it. The graph's containers are
single-writer (callers must not mutate one graph from more than one thread
at a time); ``copy()`` copies only the containers and shares every record,
so a copy and its original never see each other's later edits.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace

import numpy as np

# RELATION_LABELS lives with the wire protocol, which validates relation
# responses against it; it stays importable from here.
from .backend import RELATION_LABELS, BackendError, BackendRequest
from .config import AssociationConfig
from .geometry import PointCloud, geometric_overlap, voxel_downsample

logger = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-6


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


def hash_embedding(key: str, kind: str, dim: int = 64) -> Embedding:
    """Deterministic pseudo-embedding derived from a text key.

    Identical keys map to identical unit vectors; distinct keys map to
    near-orthogonal ones with overwhelming probability at dim 64. Used as
    the fallback when a backend supplies no embedding, and by the scripted
    backend for caption embeddings.
    """
    seed = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")
    gen = np.random.Generator(np.random.PCG64(seed))
    return Embedding(gen.standard_normal(dim), kind)


def caption_embedding(caption: str, dim: int = 64) -> Embedding:
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


def _embedding_votes(d: Detection, t: Track, cfg: AssociationConfig) -> int:
    """Visual and caption votes for a detection/track pair, each by strict
    inequality against its threshold. A track without embeddings
    (geometry-light) contributes none."""
    votes = 0
    if t.visual is not None and cosine(d.visual, t.visual) > cfg.visual_sim_threshold:
        votes += 1
    if t.language is not None and cosine(d.language, t.language) > cfg.caption_sim_threshold:
        votes += 1
    return votes


def _overlap(d: Detection, t: Track, cfg: AssociationConfig) -> float:
    """Overlap fraction of the detection cloud against the track cloud; 0
    for a geometry-light track or an empty detection cloud."""
    if t.cloud is None or d.cloud.is_empty:
        return 0.0
    return geometric_overlap(d.cloud, t.cloud, cfg.overlap_radius_m)


def vote_score(d: Detection, t: Track, cfg: AssociationConfig) -> int:
    """Number of accepted indicators in {0..3} for matching d to t."""
    return _embedding_votes(d, t, cfg) + int(_overlap(d, t, cfg) > cfg.overlap_threshold)


def associate(detections: list[Detection], tracks: list[Track],
              cfg: AssociationConfig) -> dict[int, int | None]:
    """One-to-one greedy matching of a frame's detections to tracks.

    Candidate pairs with at least ``min_votes`` votes are taken greedily in
    descending (votes, overlap) order, breaking ties by lower track id and
    then detection order. Each track absorbs at most one detection per
    frame. Unmatched detections map to None (start a new track).
    """
    candidates: list[tuple[int, float, int, int]] = []
    for di, det in enumerate(detections):
        for t in tracks:
            # the geometric indicator adds at most one vote: pairs whose
            # embedding votes already fall short skip the overlap entirely
            emb_votes = _embedding_votes(det, t, cfg)
            if emb_votes + 1 < cfg.min_votes:
                continue
            overlap = _overlap(det, t, cfg)
            votes = emb_votes + int(overlap > cfg.overlap_threshold)
            if votes >= cfg.min_votes:
                candidates.append((votes, overlap, t.id, di))
    candidates.sort(key=lambda c: (-c[0], -c[1], c[2], c[3]))
    out: dict[int, int | None] = {di: None for di in range(len(detections))}
    used_tracks: set[int] = set()
    used_dets: set[int] = set()
    for votes, overlap, tid, di in candidates:
        if tid in used_tracks or di in used_dets:
            continue
        out[di] = tid
        used_tracks.add(tid)
        used_dets.add(di)
    return out


def merge_detection(t: Track, d: Detection, cfg: AssociationConfig,
                    voxel_size: float = 0.02) -> Track:
    """Fold a matched detection into its track.

    Embeddings are pooled as normalize(alpha * d + (1 - alpha) * t) with
    alpha = ``ema_weight``; clouds are unioned and re-downsampled so the
    per-track cloud stays bounded; the detection caption and frame id are
    appended (frame ids keep ordered-set semantics).
    """
    a = cfg.ema_weight

    def pool(new: Embedding, old: Embedding | None) -> Embedding:
        if old is None:
            return new
        if new.dim != old.dim:
            raise GraphError("embedding dimension mismatch in merge")
        return Embedding(a * new.vector + (1.0 - a) * old.vector, new.kind)

    cloud = d.cloud if t.cloud is None else t.cloud.union(d.cloud)
    if not cloud.is_empty:
        cloud = voxel_downsample(cloud, voxel_size)
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
        self._next_id = 0

    def new_track_id(self) -> int:
        tid = self._next_id
        self._next_id += 1
        return tid

    def insert_track(self, track: Track) -> None:
        if track.id in self.tracks:
            raise GraphError(f"duplicate track id {track.id}")
        self.tracks[track.id] = track
        self._next_id = max(self._next_id, track.id + 1)

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
        g._next_id = self._next_id
        return g

    def __len__(self) -> int:
        return len(self.tracks)


def edge_discovery_due(frame_index: int, period: int = 3) -> bool:
    """True on processed-frame ordinals 0, period, 2*period, ..."""
    if frame_index < 0:
        raise GraphError("frame_index must be >= 0")
    return frame_index % period == 0


def consolidate_captions(t: Track, backend, threshold: int = 5) -> Track:
    """Compress an accumulated caption history into a single sentence.

    Below ``threshold`` entries this is a no-op. The backend's consolidate
    call supplies the sentence, which becomes the track caption and the
    sole history entry. On backend failure the track is returned unchanged
    and the failure logged.
    """
    if len(t.caption_history) < threshold:
        return t
    request = BackendRequest(kind="consolidate",
                             payload={"captions": list(t.caption_history)})
    try:
        response = backend.call(request)
    except BackendError as exc:
        logger.warning("caption consolidation failed for track %d: %s", t.id, exc)
        return t
    return replace(t, caption=response.sentence, caption_history=(response.sentence,))
