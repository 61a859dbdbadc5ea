"""The scene memory: the four linked structures handed to the reasoner.

A SceneMemory bundles the scene graph, the per-node scratchpad, the frame
memory and the navigation log, plus episode metadata. It serializes to a
canonical JSON form, layout version 2 (``docs/memory_format.md``): object
keys sorted, floats rendered with exactly 4 decimal places, point clouds
summarized as (centroid, axis-aligned extent, point count). Each record
list (tracks, relation edges, navigation log) is a table, one ``columns``
header plus one ``rows`` array per record, in a fixed column order, so key
names are written once per list rather than once per record. The
scratchpad stays grouped by node, because evidence cites per-node note
indices. Equal memories produce byte-identical text, which is what
golden-file tests and the record/replay harness rely on. The same text is
the reasoner's prompt and the persisted ``ssm.json``.

The memory's records (tracks, navigation-log entries, notes, the frame
memory) are immutable values: an edit replaces a record, never changes it.
So ``SceneMemory.copy`` copies only the containers and shares every record,
and the reasoning loop, which re-serializes the memory on every step,
renders each track and navigation-log row once per record: ``serialize``
caches the row text in a module-level weak map keyed by the record itself.
A cached row lives exactly as long as some memory holds its record, and can
never go stale because the record cannot change.

Frame memory is not part of the JSON body; it is returned alongside as an
ordered list of (frame id, image locator) references, mirroring how frames
are supplied to the reasoner as interleaved images. For persistence the
frame memory and every keyframe's locator ride inside the "episode"
object so a round trip restores them.

Embeddings never appear in the JSON (prompts need text, not vectors); they
live in a side-car binary file, as do raw point clouds. See save_dir /
load_dir.
"""

from __future__ import annotations

import json
import os
import struct
import weakref
from dataclasses import dataclass, replace
from functools import partial
# the string encoder json.dumps(s, ensure_ascii=False) calls, without the
# JSONEncoder it builds per call
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .backend import int_array, need, number_array
from .geometry import PointCloud
from .graph import (CloudSummary, Embedding, GraphError, RelationEdge, SceneGraph,
                    Track)
from .spatial import MOTION_LABELS, FloorModel, NavLogEntry, RoomModel

SOURCE_APIS = ("find_objects", "analyze_objects", "analyze_frame")

FORMAT_VERSION = 2
# the fixed column order of each table in the serialized form
TRACK_COLUMNS = ("id", "caption", "caption_history", "room_id", "room_label",
                 "floor_id", "visible_frames", "centroid", "extent", "points")
EDGE_COLUMNS = ("subject_id", "relation", "object_id", "justification",
                "source_frame")
NAV_COLUMNS = ("frame_id", "room_label", "fov_tag", "motion_label",
               "visible_node_ids")


class MemoryError_(ValueError):
    """Input-contract violation against the memory structures."""


class SerializationError(ValueError):
    """Memory invariants do not hold; refuse to serialize."""


class ParseError(ValueError):
    """Serialized text violates the schema; ``path`` names the offender."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Note:
    text: str
    source_api: str
    query: str
    evidence_frame: int

    def __post_init__(self):
        if self.source_api not in SOURCE_APIS:
            raise MemoryError_(f"unknown source api '{self.source_api}'")


@dataclass(frozen=True)
class FrameMemory:
    """Ordered, duplicate-free set of keyframe ids available to the
    reasoner. Starts as the evenly spaced initial selection and only ever
    grows (no eviction)."""

    frames: tuple[int, ...]
    initial_count: int
    episode_ids: frozenset[int]

    def __post_init__(self):
        if len(set(self.frames)) != len(self.frames):
            raise MemoryError_("frame memory contains duplicates")
        unknown = [f for f in self.frames if f not in self.episode_ids]
        if unknown:
            raise MemoryError_(f"frame {unknown[0]} not part of the episode")

    def __contains__(self, frame_id: int) -> bool:
        return frame_id in self.frames

    def __len__(self) -> int:
        return len(self.frames)


def init_frame_memory(episode_frame_ids: list[int], n_img: int) -> FrameMemory:
    """Select ``n_img`` evenly spaced keyframes.

    Index i of n maps to round(i * (N - 1) / (n - 1)); a single requested
    frame takes the middle one; duplicates collapse when the episode is
    shorter than the request. Rounding is half-up for platform stability.
    """
    ids = list(episode_frame_ids)
    if not ids:
        raise MemoryError_("episode has no frames")
    if n_img < 1:
        raise MemoryError_("n_img must be >= 1")
    n = len(ids)
    if n_img == 1:
        picks = [int((n - 1) / 2 + 0.5)]
    else:
        picks = [int(i * (n - 1) / (n_img - 1) + 0.5) for i in range(n_img)]
    chosen: list[int] = []
    for p in picks:
        fid = ids[min(p, n - 1)]
        if fid not in chosen:
            chosen.append(fid)
    return FrameMemory(tuple(chosen), n_img, frozenset(ids))


def append_frame(fm: FrameMemory, frame_id: int) -> FrameMemory:
    """Grow the frame memory by one id (no-op when already present)."""
    if frame_id not in fm.episode_ids:
        raise MemoryError_(f"frame {frame_id} not part of the episode")
    if frame_id in fm.frames:
        return fm
    return FrameMemory(fm.frames + (frame_id,), fm.initial_count, fm.episode_ids)


@dataclass
class SceneMemory:
    """Single-writer memory of one scene episode.

    The containers (track dict, edge list, scratchpad dict, nav log list)
    are edited by replacing their immutable records; ``copy`` shares every
    record with the original. The scratchpad maps each node id to its notes.
    ``frame_locators`` is never edited after construction, so copies share
    it too. ``floors``/``rooms`` are construction-time models kept for
    patch-time room lookup; they are transient (not serialized).
    """

    graph: SceneGraph
    scratchpad: dict[int, tuple[Note, ...]]
    frame_memory: FrameMemory
    nav_log: list[NavLogEntry]
    scene_id: str
    stride: int
    frame_ids: tuple[int, ...]
    frame_locators: dict[int, str]
    floors: FloorModel | None = None
    rooms: RoomModel | None = None

    @classmethod
    def empty(cls, scene_id: str, stride: int, frame_ids: list[int],
              frame_locators: dict[int, str] | None = None) -> "SceneMemory":
        locators = dict(frame_locators or {})
        for fid in frame_ids:
            locators.setdefault(fid, f"frame://{scene_id}/{fid}")
        fm = FrameMemory((), 0, frozenset(frame_ids))
        return cls(graph=SceneGraph(), scratchpad={}, frame_memory=fm,
                   nav_log=[], scene_id=scene_id, stride=stride,
                   frame_ids=tuple(frame_ids), frame_locators=locators)

    # -- mutation helpers (keep graph and scratchpad in lockstep) --

    def create_track(self, track: Track) -> Track:
        """Insert a track and its scratchpad entry atomically."""
        self.graph.insert_track(track)
        self.scratchpad[track.id] = ()
        return track

    def add_note(self, node_id: int, text: str, source_api: str, query: str,
                 evidence_frame: int) -> None:
        """Append one provenance-carrying note; notes are append-only."""
        if node_id not in self.scratchpad:
            raise MemoryError_(f"unknown node id {node_id}")
        self.scratchpad[node_id] += (Note(text=text, source_api=source_api,
                                          query=query, evidence_frame=evidence_frame),)

    def place_track(self, track: Track) -> Track:
        """The track with its floor, room and room label set from its cloud
        centroid; the track itself until the floor and room models are set,
        and for tracks without cloud points."""
        if self.floors is None or self.rooms is None \
                or track.cloud is None or track.cloud.is_empty:
            return track
        cx, cy, cz = track.cloud.centroid()
        floor_id = self.floors.floor_of(float(cz))
        room_id = self.rooms.room_of(floor_id, float(cx), float(cy))
        label = track.room_label if room_id is None else self.rooms.label_of(room_id)
        return replace(track, floor_id=floor_id, room_id=room_id, room_label=label)

    def note_count(self) -> int:
        return sum(len(notes) for notes in self.scratchpad.values())

    def validate(self) -> None:
        """Raise SerializationError when a cross-structure invariant is
        broken."""
        if set(self.scratchpad) != set(self.graph.tracks):
            raise SerializationError("scratchpad node set differs from graph node set")
        live = set(self.graph.tracks)
        for e in self.graph.edges:
            if e.subject_id not in live or e.object_id not in live:
                raise SerializationError(f"edge references dead track: {e.key()}")
        episode = set(self.frame_ids)
        for f in self.frame_memory.frames:
            if f not in episode:
                raise SerializationError(f"frame memory id {f} outside episode")
        for f in self.frame_locators:
            if f not in episode:
                raise SerializationError(f"locator for frame {f} outside episode")
        if tuple(e.frame_id for e in self.nav_log) != self.frame_ids:
            raise SerializationError("navigation log does not cover the episode keyframes")
        for entry in self.nav_log:
            for nid in entry.visible_node_ids:
                if nid not in live:
                    raise SerializationError(
                        f"nav entry {entry.frame_id} cites dead node {nid}")

    def copy(self) -> "SceneMemory":
        """New containers over the same records (see the class docstring)."""
        return replace(self, graph=self.graph.copy(), scratchpad=dict(self.scratchpad),
                       nav_log=list(self.nav_log))


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

class _Fragment:
    """Canonical JSON text that ``_canon`` splices in as it is."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise SerializationError(f"non-finite float {x!r}")
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _canon(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise SerializationError("object keys must be strings")
            if i:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, _Fragment):
        out.append(obj.text)
    else:
        raise SerializationError(f"unserializable value of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _canon(obj, out)
    return "".join(out)


def _track_row(t: Track) -> list:
    summary = t.cloud_summary()
    cloud = summary.to_doc() if summary is not None else {}
    return [t.id, t.caption, t.caption_history, t.room_id, t.room_label, t.floor_id,
            t.visible_frames, cloud.get("centroid"), cloud.get("extent"),
            cloud.get("points")]


def _nav_row(e: NavLogEntry) -> list:
    return [e.frame_id, e.room_label, e.fov_tag, e.motion_label,
            sorted(e.visible_node_ids)]


# rendered row per immutable record; an entry dies with its record. Two
# threads serializing one record at once at worst render it twice, alike.
_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _row(record, render) -> _Fragment:
    frag = _ROWS.get(record)
    if frag is None:
        frag = _ROWS[record] = _Fragment(canonical_json(render(record)))
    return frag


_HEADERS = {columns: _Fragment(canonical_json(list(columns)))
            for columns in (TRACK_COLUMNS, EDGE_COLUMNS, NAV_COLUMNS)}


def _table(columns: tuple[str, ...], rows: list) -> dict:
    return {"columns": _HEADERS[columns], "rows": rows}


def table_records(table: dict) -> list[dict]:
    """The rows of a serialized table as records keyed by column name."""
    columns = table["columns"]
    return [dict(zip(columns, row)) for row in table["rows"]]


def _locators_doc(ssm: SceneMemory) -> dict:
    """Each keyframe's locator as a common prefix plus a suffix aligned with
    ``frame_ids``; null for a frame without one."""
    locators = [ssm.frame_locators.get(fid) for fid in ssm.frame_ids]
    prefix = os.path.commonprefix([loc for loc in locators if loc is not None])
    return {"prefix": prefix,
            "suffixes": [None if loc is None else loc[len(prefix):] for loc in locators]}


def serialize(ssm: SceneMemory) -> tuple[str, list[tuple[int, str]]]:
    """Render the memory to canonical JSON plus frame references.

    Returns (text, refs): the JSON document with top-level keys version /
    episode / scene_graph / scratchpad / navigation_log, and the frame
    references as (frame id, image locator) pairs in frame-memory order.
    Refuses to serialize when cross-structure invariants fail. Each track
    and navigation-log row is rendered once per record (see the module
    docstring).
    """
    ssm.validate()
    tracks = [_row(ssm.graph.tracks[tid], _track_row) for tid in sorted(ssm.graph.tracks)]
    edges = sorted(ssm.graph.edges,
                   key=lambda e: (e.subject_id, e.object_id, e.relation, e.source_frame))
    edge_rows = [[e.subject_id, e.relation, e.object_id, e.justification,
                  e.source_frame] for e in edges]
    pad = [{"node_id": nid,
            "notes": [{"text": n.text, "source_api": n.source_api,
                       "query": n.query, "evidence_frame": n.evidence_frame}
                      for n in ssm.scratchpad[nid]]}
           for nid in sorted(ssm.scratchpad)]
    nav = [_row(e, _nav_row) for e in ssm.nav_log]
    doc = {
        "version": FORMAT_VERSION,
        "episode": {
            "scene_id": ssm.scene_id,
            "stride": ssm.stride,
            "frame_ids": ssm.frame_ids,
            "frame_locators": _locators_doc(ssm),
            "frame_memory": {"frames": ssm.frame_memory.frames,
                             "initial_count": ssm.frame_memory.initial_count},
        },
        "scene_graph": {"tracks": _table(TRACK_COLUMNS, tracks),
                        "edges": _table(EDGE_COLUMNS, edge_rows)},
        "scratchpad": pad,
        "navigation_log": _table(NAV_COLUMNS, nav),
    }
    refs = [(fid, ssm.frame_locators.get(fid, f"frame://{ssm.scene_id}/{fid}"))
            for fid in ssm.frame_memory.frames]
    return canonical_json(doc) + "\n", refs


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_expect = partial(need, error=ParseError)


def _opt_str(doc, key, path):
    value = doc.get(key)
    if value is not None and not isinstance(value, str):
        raise ParseError(f"{path}.{key}", "expected string or null")
    return value


def _ints(doc, key, path):
    return int_array(_expect(doc, key, list, path), f"{path}.{key}", ParseError)


def _float_triple(doc, key, path):
    return number_array(_expect(doc, key, list, path), f"{path}.{key}", ParseError,
                        size=3, message="expected three numbers")


def _table_records(doc, key, columns, path) -> list[dict]:
    """Check table ``doc[key]`` against its canonical columns and return
    its rows as records."""
    table = _expect(doc, key, dict, path)
    path = f"{path}.{key}"
    if _expect(table, "columns", list, path) != list(columns):
        raise ParseError(f"{path}.columns", f"expected {list(columns)}")
    for i, row in enumerate(_expect(table, "rows", list, path)):
        if not isinstance(row, list) or len(row) != len(columns):
            raise ParseError(f"{path}.rows[{i}]",
                             f"expected a list of {len(columns)} values")
    return table_records(table)


def deserialize(text: str) -> SceneMemory:
    """Rebuild a geometry-light memory from canonical JSON (version 2).

    All structures are restored except raw point clouds and embeddings:
    tracks carry only their persisted cloud summaries. Invariants are
    re-validated; violations raise ParseError naming the offending path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("$", "expected a top-level object")
    version = _expect(doc, "version", int, "$")
    if version != FORMAT_VERSION:
        raise ParseError("$.version", f"unsupported layout version {version}, "
                                      f"expected {FORMAT_VERSION}")

    ep = _expect(doc, "episode", dict, "$")
    scene_id = _expect(ep, "scene_id", str, "$.episode")
    stride = _expect(ep, "stride", int, "$.episode")
    frame_ids = _ints(ep, "frame_ids", "$.episode")
    loc_doc = _expect(ep, "frame_locators", dict, "$.episode")
    prefix = _expect(loc_doc, "prefix", str, "$.episode.frame_locators")
    suffixes = _expect(loc_doc, "suffixes", list, "$.episode.frame_locators")
    if len(suffixes) != len(frame_ids):
        raise ParseError("$.episode.frame_locators.suffixes",
                         f"{len(suffixes)} entries for {len(frame_ids)} frame_ids")
    locators: dict[int, str] = {}
    for i, (fid, suffix) in enumerate(zip(frame_ids, suffixes)):
        if suffix is None:
            continue
        if not isinstance(suffix, str):
            raise ParseError(f"$.episode.frame_locators.suffixes[{i}]",
                             "expected string or null")
        locators[fid] = prefix + suffix
    fm_doc = _expect(ep, "frame_memory", dict, "$.episode")
    fm_frames = _ints(fm_doc, "frames", "$.episode.frame_memory")
    fm_initial = _expect(fm_doc, "initial_count", int, "$.episode.frame_memory")
    episode_set = set(frame_ids)
    for i, fid in enumerate(fm_frames):
        if fid not in episode_set:
            raise ParseError(f"$.episode.frame_memory.frames[{i}]",
                             f"frame {fid} not in episode")
    try:
        frame_memory = FrameMemory(fm_frames, fm_initial, frozenset(frame_ids))
    except MemoryError_ as exc:
        raise ParseError("$.episode.frame_memory", str(exc)) from None

    graph = SceneGraph()
    sg = _expect(doc, "scene_graph", dict, "$")
    tracks = _table_records(sg, "tracks", TRACK_COLUMNS, "$.scene_graph")
    for i, td in enumerate(tracks):
        path = f"$.scene_graph.tracks.rows[{i}]"
        tid = _expect(td, "id", int, path)
        caption = _expect(td, "caption", str, path)
        history = _expect(td, "caption_history", list, path)
        if any(not isinstance(c, str) for c in history):
            raise ParseError(f"{path}.caption_history", "expected strings")
        visible = _ints(td, "visible_frames", path)
        for j, fid in enumerate(visible):
            if fid not in episode_set:
                raise ParseError(f"{path}.visible_frames[{j}]",
                                 f"frame {fid} not in episode")
        summary = None
        if any(td[k] is not None for k in ("centroid", "extent", "points")):
            summary = CloudSummary(centroid=_float_triple(td, "centroid", path),
                                   extent=_float_triple(td, "extent", path),
                                   count=_expect(td, "points", int, path))
        try:
            track = Track(id=tid, cloud=None, visual=None, language=None,
                          caption=caption, caption_history=tuple(history),
                          room_id=_opt_str(td, "room_id", path),
                          floor_id=_opt_str(td, "floor_id", path),
                          room_label=_opt_str(td, "room_label", path),
                          visible_frames=visible, summary=summary)
            graph.insert_track(track)
        except GraphError as exc:
            raise ParseError(path, str(exc)) from None

    for i, ed in enumerate(_table_records(sg, "edges", EDGE_COLUMNS, "$.scene_graph")):
        path = f"$.scene_graph.edges.rows[{i}]"
        sid = _expect(ed, "subject_id", int, path)
        oid = _expect(ed, "object_id", int, path)
        rel = _expect(ed, "relation", str, path)
        just = _expect(ed, "justification", str, path)
        src = _expect(ed, "source_frame", int, path)
        if sid not in graph.tracks:
            raise ParseError(f"{path}.subject_id", f"unknown track {sid}")
        if oid not in graph.tracks:
            raise ParseError(f"{path}.object_id", f"unknown track {oid}")
        try:
            edge = RelationEdge(sid, oid, rel, just, src)
        except GraphError as exc:
            raise ParseError(path, str(exc)) from None
        graph.edges.append(edge)

    scratchpad: dict[int, tuple[Note, ...]] = {}
    for i, pd in enumerate(_expect(doc, "scratchpad", list, "$")):
        path = f"$.scratchpad[{i}]"
        nid = _expect(pd, "node_id", int, path)
        if nid not in graph.tracks:
            raise ParseError(f"{path}.node_id", f"unknown track {nid}")
        if nid in scratchpad:
            raise ParseError(f"{path}.node_id", f"duplicate entry for node {nid}")
        notes = []
        for j, nd in enumerate(_expect(pd, "notes", list, path)):
            npath = f"{path}.notes[{j}]"
            try:
                notes.append(Note(text=_expect(nd, "text", str, npath),
                                  source_api=_expect(nd, "source_api", str, npath),
                                  query=_expect(nd, "query", str, npath),
                                  evidence_frame=_expect(nd, "evidence_frame", int, npath)))
            except MemoryError_ as exc:
                raise ParseError(npath, str(exc)) from None
        scratchpad[nid] = tuple(notes)
    if set(scratchpad) != set(graph.tracks):
        raise ParseError("$.scratchpad", "node set differs from scene_graph.tracks")

    nav_log: list[NavLogEntry] = []
    for i, nd in enumerate(_table_records(doc, "navigation_log", NAV_COLUMNS, "$")):
        path = f"$.navigation_log.rows[{i}]"
        motion = _expect(nd, "motion_label", str, path)
        if motion not in MOTION_LABELS:
            raise ParseError(f"{path}.motion_label", f"unknown label '{motion}'")
        visible = _ints(nd, "visible_node_ids", path)
        for j, nid in enumerate(visible):
            if nid not in graph.tracks:
                raise ParseError(f"{path}.visible_node_ids[{j}]", f"unknown track {nid}")
        nav_log.append(NavLogEntry(
            frame_id=_expect(nd, "frame_id", int, path),
            room_label=_expect(nd, "room_label", str, path),
            fov_tag=_expect(nd, "fov_tag", str, path),
            motion_label=motion,
            visible_node_ids=visible))
    if tuple(e.frame_id for e in nav_log) != frame_ids:
        raise ParseError("$.navigation_log", "entries do not cover episode frame_ids")

    return SceneMemory(graph=graph, scratchpad=scratchpad, frame_memory=frame_memory,
                       nav_log=nav_log, scene_id=scene_id, stride=stride,
                       frame_ids=frame_ids, frame_locators=locators)


# ---------------------------------------------------------------------------
# Persistence: directory layout ssm.json + clouds.bin + embeddings.bin
# ---------------------------------------------------------------------------

_CLOUD_MAGIC = b"SMCLOUD2"
_EMBED_MAGIC = b"SMEMBED2"
_KIND_CODES = {"visual": 0, "language": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def _pack_clouds(ssm: SceneMemory) -> bytes:
    parts = [_CLOUD_MAGIC]
    with_clouds = [(tid, t.cloud) for tid, t in sorted(ssm.graph.tracks.items())
                   if t.cloud is not None]
    parts.append(struct.pack("<I", len(with_clouds)))
    for tid, cloud in with_clouds:
        pts = np.ascontiguousarray(cloud.points, dtype="<f8")
        parts.append(struct.pack("<II", tid, len(cloud)))
        parts.append(pts.tobytes())
    return b"".join(parts)


def _unpack(blob: bytes, name: str, magic: bytes, read_record) -> dict:
    """The records of side-car file ``name``: its magic, a record count,
    then ``read_record(blob, offset) -> (key, value, next offset)`` per
    record, ending exactly at the last byte. A truncated file, trailing
    bytes or a record the engine refuses raise ParseError naming the file."""
    if blob[:8] != magic:
        raise ParseError(name, "bad magic")
    out = {}
    try:
        (count,) = struct.unpack_from("<I", blob, 8)
        offset = 12
        for _ in range(count):
            key, value, offset = read_record(blob, offset)
            out[key] = value
    except (struct.error, ValueError) as exc:
        raise ParseError(name, str(exc)) from None
    if offset != len(blob):
        raise ParseError(name, f"{len(blob) - offset} trailing bytes")
    return out


def _read_cloud(blob: bytes, offset: int) -> tuple[int, PointCloud, int]:
    tid, npts = struct.unpack_from("<II", blob, offset)
    offset += 8
    arr = np.frombuffer(blob, dtype="<f8", count=npts * 3, offset=offset)
    return tid, PointCloud(arr.reshape(npts, 3)), offset + npts * 3 * 8


def _pack_embeddings(ssm: SceneMemory) -> bytes:
    records = []
    for tid, t in sorted(ssm.graph.tracks.items()):
        for kind in ("visual", "language"):
            emb = getattr(t, kind)
            if emb is not None:
                records.append((tid, kind, emb))
    parts = [_EMBED_MAGIC, struct.pack("<I", len(records))]
    for tid, kind, emb in records:
        vec = np.ascontiguousarray(emb.vector, dtype="<f8")
        parts.append(struct.pack("<IBI", tid, _KIND_CODES[kind], vec.size))
        parts.append(vec.tobytes())
    return b"".join(parts)


def _read_embedding(blob: bytes, offset: int) -> tuple[tuple[int, str], Embedding, int]:
    tid, code, dim = struct.unpack_from("<IBI", blob, offset)
    offset += 9
    vec = np.frombuffer(blob, dtype="<f8", count=dim, offset=offset)
    if code not in _KIND_NAMES:
        raise ValueError(f"unknown kind code {code}")
    kind = _KIND_NAMES[code]
    return (tid, kind), Embedding.from_unit(vec, kind), offset + dim * 8


def save_dir(ssm: SceneMemory, path: str | Path) -> None:
    """Persist to a directory: ssm.json (canonical form), clouds.bin
    (float64 LE point triples per track), embeddings.bin (float64 LE
    vectors keyed by track id and kind). Clouds and embeddings are stored
    bit-exact, so a reloaded memory re-voxelizes, merges and scores the
    same as the in-process one. Floors and rooms are not persisted."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    text, _ = serialize(ssm)
    (path / "ssm.json").write_text(text, encoding="utf-8")
    (path / "clouds.bin").write_bytes(_pack_clouds(ssm))
    (path / "embeddings.bin").write_bytes(_pack_embeddings(ssm))


def load_dir(path: str | Path) -> SceneMemory:
    """Load a persisted memory, restoring clouds and embeddings."""
    path = Path(path)
    ssm = deserialize((path / "ssm.json").read_text(encoding="utf-8"))
    clouds_file = path / "clouds.bin"
    if clouds_file.exists():
        clouds = _unpack(clouds_file.read_bytes(), "clouds.bin", _CLOUD_MAGIC,
                         _read_cloud)
        for tid, cloud in clouds.items():
            if tid in ssm.graph.tracks:
                t = ssm.graph.tracks[tid]
                ssm.graph.tracks[tid] = replace(t, cloud=cloud, summary=None)
    embed_file = path / "embeddings.bin"
    if embed_file.exists():
        embeds = _unpack(embed_file.read_bytes(), "embeddings.bin", _EMBED_MAGIC,
                         _read_embedding)
        for (tid, kind), emb in embeds.items():
            if tid in ssm.graph.tracks:
                t = ssm.graph.tracks[tid]
                ssm.graph.tracks[tid] = replace(t, **{kind: emb})
    return ssm
