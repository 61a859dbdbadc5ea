"""The scene memory: the four linked structures handed to the reasoner.

A SceneMemory bundles the scene graph, the per-node scratchpad, the frame
memory and the navigation log, plus episode metadata. It serializes to a
canonical JSON form, layout version 4 (``docs/memory_format.md``): object
keys sorted, floats rendered with exactly 4 decimal places, point clouds
summarized as (centroid, axis-aligned extent, point count). Each record
list (tracks, relation edges, navigation log) is a table: one ``columns``
header, then one ``rows`` array per record in that column order. The
scratchpad stays grouped by node, because evidence cites per-node note
indices, and lists only the nodes that have notes. Each fact is written
once: the keyframes, in order, are the navigation log's ``frame_id``
column, what each shows is the tracks' ``visible_frames``, and a track's
``caption_history`` writes each run of its caption as the run's length.
Equal memories produce byte-identical text, which is what golden-file tests
and the record/replay harness rely on. The same text is the reasoner's
prompt and the persisted ``ssm.json``.

The memory's records (tracks, navigation-log entries, notes, the frame
memory) are immutable values: an edit replaces a record, never changes it.
So ``SceneMemory.copy`` copies only the containers and shares every record,
and the reasoning loop, which re-serializes the memory on every step,
renders each track and nav-log row once per record: ``serialize`` caches
the row text in a weak map keyed by the record itself. A cached row lives
exactly as long as some memory holds its record, and can never go stale
because the record cannot change.

``serialize`` also returns the frame memory as (frame id, image locator)
references, in the order frames are handed to the reasoner as images; the
"episode" object holds the frame memory and every keyframe's locator.

Embeddings never appear in the JSON (prompts need text, not vectors); they
live in the side-car file tracks.bin, as do raw point clouds. See save_dir /
load_dir.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import weakref
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
# the string encoder json.dumps(s, ensure_ascii=False) calls, without the
# JSONEncoder it builds per call
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .backend import int_array, need, number_array
from .geometry import GeometryInputError, PointCloud
from .graph import (CloudSummary, Embedding, GraphError, RelationEdge, SceneGraph,
                    Track)
from .spatial import NavLogEntry, RoomModel

SOURCE_APIS = ("find_objects", "analyze_objects", "analyze_frame")

FORMAT_VERSION = 4
# the fixed column order of each table in the serialized form
TRACK_COLUMNS = ("id", "caption", "caption_history", "room_id", "room_label",
                 "floor_id", "visible_frames", "centroid", "extent", "points")
EDGE_COLUMNS = ("subject_id", "relation", "object_id", "justification",
                "source_frame")
NAV_COLUMNS = ("frame_id", "room_label", "fov_tag", "motion_label")
# the most captions a track's history may hold (validate, deserialize): a
# bound on what a run length expands into. The engine stays far below it:
# the build consolidates a history at 5 captions, and a patch adds one per
# detection it merges into the track.
MAX_CAPTION_HISTORY = 10_000
# tracks.bin stores each track id as a uint32
MAX_TRACK_ID = 2**32 - 1


class MemoryError_(ValueError):
    """Input-contract violation against the memory structures."""


class SerializationError(ValueError):
    """Memory invariants do not hold. A broken rule of ``SceneMemory.validate``
    or ``pipeline.attach_floor_plan`` names its ``path``; ``reason`` omits it."""

    def __init__(self, reason: str, path: str | None = None):
        super().__init__(reason if path is None else f"{path}: {reason}")
        self.reason, self.path = reason, path


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
    reasoner. Starts as the evenly spaced initial selection, its first
    ``initial_count`` frames, and only ever grows (no eviction). That its
    frames belong to the episode is checked by ``SceneMemory.validate``."""

    frames: tuple[int, ...]
    initial_count: int

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(set(self.frames)) != len(self.frames):
            raise MemoryError_("frame memory contains duplicates")
        if not 0 <= self.initial_count <= len(self.frames):
            raise MemoryError_(f"initial_count {self.initial_count} is not "
                               f"between 0 and the {len(self.frames)} frames")

    def __contains__(self, frame_id: int) -> bool:
        return frame_id in self.frames

    def __len__(self) -> int:
        return len(self.frames)


def init_frame_memory(episode_frame_ids: list[int], n_img: int) -> FrameMemory:
    """Select ``n_img`` evenly spaced keyframes.

    Index i of n maps to round(i * (N - 1) / (n - 1)); a single requested
    frame takes the middle one; duplicates collapse when the episode is
    shorter than the request, and ``initial_count`` counts the distinct
    frames chosen. Rounding is half-up for platform stability.
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
    return FrameMemory(tuple(chosen), len(chosen))


def append_frame(fm: FrameMemory, frame_id: int) -> FrameMemory:
    """Grow the frame memory by one id (no-op when already present)."""
    if frame_id in fm.frames:
        return fm
    return FrameMemory(fm.frames + (frame_id,), fm.initial_count)


def _stray(values, allowed: set) -> int | None:
    """The index of the first of ``values`` outside ``allowed``, or None."""
    if allowed.issuperset(values):
        return None
    return next(i for i, v in enumerate(values) if v not in allowed)


@dataclass
class SceneMemory:
    """Single-writer memory of one scene episode.

    The containers (track dict, edge list, scratchpad dict, nav log list)
    are edited by replacing their immutable records; ``copy`` shares every
    record with the original. The scratchpad maps each node id that has
    notes to its notes; a node without notes has no entry.
    ``frame_locators`` is never edited after construction, so copies share
    it too, as they share ``rooms``, the floor plan that places every track
    a detection lands on (see ``place_track`` and
    ``pipeline.attach_floor_plan``).
    """

    graph: SceneGraph
    scratchpad: dict[int, tuple[Note, ...]]
    frame_memory: FrameMemory
    nav_log: list[NavLogEntry]
    scene_id: str
    stride: int
    frame_ids: tuple[int, ...]
    frame_locators: dict[int, str]
    rooms: RoomModel | None = None

    @classmethod
    def empty(cls, scene_id: str, stride: int, frame_ids: list[int],
              frame_locators: dict[int, str] | None = None) -> "SceneMemory":
        locators = dict(frame_locators or {})
        for fid in frame_ids:
            locators.setdefault(fid, f"frame://{scene_id}/{fid}")
        return cls(graph=SceneGraph(), scratchpad={}, frame_memory=FrameMemory((), 0),
                   nav_log=[], scene_id=scene_id, stride=stride,
                   frame_ids=tuple(frame_ids), frame_locators=locators)

    def add_note(self, node_id: int, text: str, source_api: str, query: str,
                 evidence_frame: int) -> None:
        """Append one provenance-carrying note to a live track; notes are
        append-only, and a node's entry starts with its first note."""
        if node_id not in self.graph.tracks:
            raise MemoryError_(f"unknown node id {node_id}")
        self.scratchpad[node_id] = self.scratchpad.get(node_id, ()) + (
            Note(text=text, source_api=source_api, query=query,
                 evidence_frame=evidence_frame),)

    def place_track(self, track: Track) -> Track:
        """The track with its floor, room and room label set from its cloud
        centroid by ``RoomModel.locate``, the lookup that places cameras (no
        label in no room); the track itself until the floor plan is set, and
        for tracks without cloud points. Builds and patches alike place every
        track a detection lands on through it."""
        if self.rooms is None or track.cloud is None or track.cloud.is_empty:
            return track
        cx, cy, cz = track.cloud.centroid()
        floor_id, room_id = self.rooms.locate(float(cx), float(cy), float(cz))
        label = None if room_id is None else self.rooms.label_of(room_id)
        return replace(track, floor_id=floor_id, room_id=room_id, room_label=label)

    def note_count(self) -> int:
        return sum(len(notes) for notes in self.scratchpad.values())

    def validate(self) -> None:
        """Raise SerializationError at the ``path``, in the serialized
        document, of the first broken rule across records. This is the rule
        book of built, patched and loaded memories alike (listed in
        ``docs/memory_format.md``): ``serialize`` and ``deserialize`` both run
        it. Rows count in stored order, for a parsed memory document order."""
        if self.stride < 1:
            raise SerializationError(f"stride {self.stride} is below 1", "$.episode.stride")
        keyframes = self.frame_ids
        if tuple(e.frame_id for e in self.nav_log) != keyframes:
            raise SerializationError("navigation log does not cover the episode keyframes",
                                     "$.navigation_log.rows")
        episode = set(keyframes)
        if len(episode) != len(keyframes):
            i = next(i for i, fid in enumerate(keyframes) if fid in keyframes[:i])
            raise SerializationError("episode repeats a keyframe",
                                     f"$.navigation_log.rows[{i}].frame_id")
        if not episode.issuperset(self.frame_locators):
            raise SerializationError("a locator names a frame outside the episode",
                                     "$.episode.frame_locators")
        frames = self.frame_memory.frames
        if (j := _stray(frames, episode)) is not None:
            raise SerializationError(f"frame memory id {frames[j]} outside episode",
                                     f"$.episode.frame_memory.frames[{j}]")
        room_labels: dict[str, str | None] = {}
        for i, t in enumerate(self.graph.tracks.values()):
            path = f"$.scene_graph.tracks.rows[{i}]"
            if not 0 <= t.id <= MAX_TRACK_ID:
                raise SerializationError(f"track id {t.id} is outside 0..{MAX_TRACK_ID}",
                                         f"{path}.id")
            if len(t.caption_history) > MAX_CAPTION_HISTORY:
                raise SerializationError(f"{len(t.caption_history)} captions, more than "
                                         f"{MAX_CAPTION_HISTORY}", f"{path}.caption_history")
            if (j := _stray(t.visible_frames, episode)) is not None:
                raise SerializationError(f"frame {t.visible_frames[j]} not in episode",
                                         f"{path}.visible_frames[{j}]")
            if t.room_id is not None and t.room_id.rpartition("/")[0] != t.floor_id:
                raise SerializationError(f"room {t.room_id} is not on floor {t.floor_id}",
                                         f"{path}.floor_id")
            if t.room_id is None and t.room_label is not None:
                raise SerializationError(f"label {t.room_label!r} without a room",
                                         f"{path}.room_label")
            if t.room_id is not None \
                    and room_labels.setdefault(t.room_id, t.room_label) != t.room_label:
                raise SerializationError(f"room {t.room_id} has another label",
                                         f"{path}.room_label")
        live = set(self.graph.tracks)
        keys: set[tuple[int, int, str]] = set()
        for i, e in enumerate(self.graph.edges):
            for column in ("subject_id", "object_id"):
                if getattr(e, column) not in live:
                    raise SerializationError(f"unknown track {getattr(e, column)}",
                                             f"$.scene_graph.edges.rows[{i}].{column}")
            if (key := e.key()) in keys:
                raise SerializationError(f"repeats edge {key}", f"$.scene_graph.edges.rows[{i}]")
            keys.add(key)
        for i, (nid, notes) in enumerate(self.scratchpad.items()):
            if nid not in live:
                raise SerializationError(f"scratchpad entry {nid} names no track",
                                         f"$.scratchpad[{i}].node_id")
            if not notes:
                raise SerializationError(f"scratchpad entry {nid} holds no note",
                                         f"$.scratchpad[{i}].notes")

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


def _runs(history: tuple[str, ...], caption: str) -> list:
    """``history`` as written: each run of ``caption`` as its length."""
    cells: list = []
    for phrasing, run in groupby(history):
        n = len(tuple(run))
        cells += [n] if phrasing == caption else [phrasing] * n
    return cells


def _track_row(t: Track) -> list:
    summary = t.cloud_summary()
    cloud = summary.to_doc() if summary is not None else {}
    return [t.id, t.caption, _runs(t.caption_history, t.caption)] + [
        getattr(t, c) for c in TRACK_COLUMNS[3:7]] + [cloud.get(c) for c in TRACK_COLUMNS[7:]]


def _nav_row(e: NavLogEntry) -> list:
    return [getattr(e, c) for c in NAV_COLUMNS]


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
    the navigation-log rows; null for a frame without one."""
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
    and nav-log row is rendered once per record (see the module docstring).
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
    doc = {
        "version": FORMAT_VERSION,
        "episode": {
            "scene_id": ssm.scene_id,
            "stride": ssm.stride,
            "frame_locators": _locators_doc(ssm),
            "frame_memory": {"frames": ssm.frame_memory.frames,
                             "initial_count": ssm.frame_memory.initial_count},
        },
        "scene_graph": {"tracks": _table(TRACK_COLUMNS, tracks),
                        "edges": _table(EDGE_COLUMNS, edge_rows)},
        "scratchpad": pad,
        "navigation_log": _table(NAV_COLUMNS, [_row(e, _nav_row) for e in ssm.nav_log]),
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
                        size=3, message="expected three finite numbers")


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
    """Rebuild a geometry-light memory from canonical JSON (version 4).

    All structures are restored except raw point clouds and embeddings:
    tracks carry only their persisted cloud summaries. The episode's
    keyframes are the navigation-log rows' frame ids, and a history's run
    lengths expand into captions. Only the JSON shapes, and that a history
    has its one canonical form, are checked here; each record checks itself
    as it is built; the rules across records are ``SceneMemory.validate``'s.
    Every violation raises ParseError naming the offending path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from None
    version = _expect(doc, "version", int, "$")  # a non-object: "expected an object"
    if version != FORMAT_VERSION:
        raise ParseError("$.version", f"unsupported layout version {version}, "
                                      f"expected {FORMAT_VERSION}")

    ep = _expect(doc, "episode", dict, "$")
    scene_id = _expect(ep, "scene_id", str, "$.episode")
    stride = _expect(ep, "stride", int, "$.episode")
    nav_log: list[NavLogEntry] = []
    for i, nd in enumerate(_table_records(doc, "navigation_log", NAV_COLUMNS, "$")):
        path = f"$.navigation_log.rows[{i}]"
        try:
            nav_log.append(NavLogEntry(*(_expect(nd, column, kind, path) for column, kind
                                         in zip(NAV_COLUMNS, (int, str, str, str)))))
        except GeometryInputError as exc:  # the one field NavLogEntry checks
            raise ParseError(f"{path}.motion_label", str(exc)) from None
    frame_ids = tuple(e.frame_id for e in nav_log)
    loc_doc = _expect(ep, "frame_locators", dict, "$.episode")
    prefix = _expect(loc_doc, "prefix", str, "$.episode.frame_locators")
    suffixes = _expect(loc_doc, "suffixes", list, "$.episode.frame_locators")
    if len(suffixes) != len(frame_ids):
        raise ParseError("$.episode.frame_locators.suffixes",
                         f"{len(suffixes)} entries for {len(frame_ids)} keyframes")
    for i, suffix in enumerate(suffixes):
        if suffix is not None and not isinstance(suffix, str):
            raise ParseError(f"$.episode.frame_locators.suffixes[{i}]",
                             "expected string or null")
    locators = {fid: prefix + suffix for fid, suffix in zip(frame_ids, suffixes)
                if suffix is not None}
    fm_path = "$.episode.frame_memory"
    fm_doc = _expect(ep, "frame_memory", dict, "$.episode")
    try:
        frame_memory = FrameMemory(_ints(fm_doc, "frames", fm_path),
                                   _expect(fm_doc, "initial_count", int, fm_path))
    except MemoryError_ as exc:
        raise ParseError(fm_path, str(exc)) from None

    graph = SceneGraph()
    sg = _expect(doc, "scene_graph", dict, "$")
    for i, td in enumerate(_table_records(sg, "tracks", TRACK_COLUMNS, "$.scene_graph")):
        path = f"$.scene_graph.tracks.rows[{i}]"
        caption, history, previous = _expect(td, "caption", str, path), [], None
        for j, cell in enumerate(_expect(td, "caption_history", list, path)):
            run = type(cell) is int and cell >= 1 and type(previous) is not int  # no bool
            if not run and (not isinstance(cell, str) or cell == caption):
                raise ParseError(f"{path}.caption_history[{j}]", "expected a phrasing other "
                                 "than the caption, or a run length >= 1 after no other")
            if len(history) + (cell if run else 1) > MAX_CAPTION_HISTORY:
                raise ParseError(f"{path}.caption_history[{j}]",
                                 f"a history of more than {MAX_CAPTION_HISTORY} captions")
            history += [caption] * cell if run else [cell]
            previous = cell
        summary = None
        if any(td[k] is not None for k in ("centroid", "extent", "points")):
            summary = CloudSummary(centroid=_float_triple(td, "centroid", path),
                                   extent=_float_triple(td, "extent", path),
                                   count=_expect(td, "points", int, path))
        try:
            graph.insert_track(Track(
                id=_expect(td, "id", int, path), cloud=None, visual=None, language=None,
                caption=caption, caption_history=history,
                **{k: _opt_str(td, k, path) for k in ("room_id", "floor_id", "room_label")},
                visible_frames=_ints(td, "visible_frames", path), summary=summary))
        except GraphError as exc:
            raise ParseError(path, str(exc)) from None
    for i, ed in enumerate(_table_records(sg, "edges", EDGE_COLUMNS, "$.scene_graph")):
        path = f"$.scene_graph.edges.rows[{i}]"
        try:
            graph.edges.append(RelationEdge(_expect(ed, "subject_id", int, path),
                                            _expect(ed, "object_id", int, path),
                                            _expect(ed, "relation", str, path),
                                            _expect(ed, "justification", str, path),
                                            _expect(ed, "source_frame", int, path)))
        except GraphError as exc:
            raise ParseError(path, str(exc)) from None

    scratchpad: dict[int, tuple[Note, ...]] = {}
    for i, pd in enumerate(_expect(doc, "scratchpad", list, "$")):
        path = f"$.scratchpad[{i}]"
        nid = _expect(pd, "node_id", int, path)
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

    ssm = SceneMemory(graph=graph, scratchpad=scratchpad, frame_memory=frame_memory,
                      nav_log=nav_log, scene_id=scene_id, stride=stride,
                      frame_ids=frame_ids, frame_locators=locators)
    try:
        ssm.validate()
    except SerializationError as exc:
        raise ParseError(exc.path, exc.reason) from None
    return ssm


# ---------------------------------------------------------------------------
# Persistence: directory layout ssm.json + tracks.bin
# ---------------------------------------------------------------------------

_TRACKS_MAGIC = b"SMTRACK1"
_HEADER = struct.Struct("<8s32sI")  # magic, sha256 of the ssm.json bytes, record count
_TRACK = struct.Struct("<IIII")  # id, point count, visual and language dimensions
_NO_CLOUD = 0xFFFFFFFF  # the point count of a track without a cloud


def _pack_tracks(ssm: SceneMemory, digest: bytes) -> bytes:
    tracks = sorted(ssm.graph.tracks.items())
    parts = [_HEADER.pack(_TRACKS_MAGIC, digest, len(tracks))]
    for tid, t in tracks:
        points, visual, language = (
            np.ascontiguousarray(getattr(x, attr, ()), dtype="<f8")
            for x, attr in ((t.cloud, "points"), (t.visual, "vector"),
                            (t.language, "vector")))
        npts = _NO_CLOUD if t.cloud is None else len(points)
        parts += [_TRACK.pack(tid, npts, visual.size, language.size),
                  points.tobytes(), visual.tobytes(), language.tobytes()]
    return b"".join(parts)


def _read_track(blob: bytes, offset: int) -> tuple[tuple, int]:
    tid, npts, vdim, ldim = _TRACK.unpack_from(blob, offset)
    offset += _TRACK.size
    arrays = []
    for count in (0 if npts == _NO_CLOUD else npts * 3, vdim, ldim):
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset))
        offset += count * 8
    points, visual, language = arrays
    cloud = None if npts == _NO_CLOUD else PointCloud(points.reshape(npts, 3))
    return (tid, cloud, Embedding.from_unit(visual, "visual") if vdim else None,
            Embedding.from_unit(language, "language") if ldim else None), offset


def _unpack(path: Path, digest: bytes) -> list:
    """The track records of side-car file ``path``: a header of
    ``_TRACKS_MAGIC``, the sha256 ``digest`` of the ssm.json bytes and a
    record count, then one ``_read_track`` record each, ending at the last
    byte. A missing file, another magic or digest, truncation, trailing
    bytes or a record the engine refuses raise ParseError naming the file."""
    name = str(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise ParseError(name, "missing; save_dir writes it next to ssm.json") from None
    if blob[:8] != _TRACKS_MAGIC:
        raise ParseError(name, "bad magic")
    if len(blob) < _HEADER.size:
        raise ParseError(name, f"truncated header: {len(blob)} bytes")
    _, stored, count = _HEADER.unpack_from(blob)
    if stored != digest:
        raise ParseError(name, "written for another ssm.json")
    records, offset = [], _HEADER.size
    for i in range(count):
        try:
            record, offset = _read_track(blob, offset)
        except (struct.error, ValueError) as exc:
            raise ParseError(name, f"record {i}: {exc}") from None
        records.append(record)
    if offset != len(blob):
        raise ParseError(name, f"{len(blob) - offset} trailing bytes")
    return records


def save_dir(ssm: SceneMemory, path: str | Path) -> None:
    """Persist to a directory: ssm.json (canonical form) and tracks.bin,
    whose header carries the sha256 of those ssm.json bytes and which holds
    one record per track, in id order, with its point cloud and embeddings
    as float64 LE. They are stored bit-exact, so a reloaded memory
    re-voxelizes, merges and scores the same as the in-process one."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    text = serialize(ssm)[0].encode("utf-8")
    (path / "ssm.json").write_bytes(text)
    (path / "tracks.bin").write_bytes(_pack_tracks(ssm, hashlib.sha256(text).digest()))


def load_dir(path: str | Path) -> SceneMemory:
    """Load a persisted memory, restoring clouds and embeddings. Both files
    are required: without its clouds and embeddings a memory would not
    merge detections as the saved one does. tracks.bin must be written for
    these exact ssm.json bytes, checked before they are decoded, and hold
    one record per track, in id order. A refused file is named with its
    directory."""
    path = Path(path)
    side_car = path / "tracks.bin"
    try:
        text = (path / "ssm.json").read_bytes()
    except FileNotFoundError:
        raise ParseError(str(path / "ssm.json"), "missing") from None
    records = _unpack(side_car, hashlib.sha256(text).digest())
    ssm = deserialize(text.decode("utf-8"))
    tracks = ssm.graph.tracks
    if len(records) != len(tracks):
        raise ParseError(str(side_car), f"{len(records)} records for {len(tracks)} tracks")
    for tid, (rid, cloud, visual, language) in zip(sorted(tracks), records):
        if rid != tid:
            raise ParseError(str(side_car),
                             f"record for track {rid} where {tid} was expected")
        tracks[tid] = replace(tracks[tid], cloud=cloud, visual=visual, language=language,
                              summary=tracks[tid].summary if cloud is None else None)
    return ssm
