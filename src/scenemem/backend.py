"""Wire protocol for all model-dependent work.

Every call that would touch a neural model (detection, relation
prediction, caption consolidation, frame analysis, field-of-view tagging,
room-label scoring, reasoning) goes through a BackendRequest and comes
back as a validated, typed response. No unvalidated model output crosses
into the engine: validate_response enforces the kind-specific schema,
rejects unknown relation labels, and clamps bounding boxes that overflow
the frame by at most 2 px (larger overflows are rejected). The bounds come
from the request itself: a detect or analyze request carries the size of
each frame it asks about (``BackendRequest.frame_sizes``) and the length
of the engine's embeddings (``BackendRequest.embedding_dim``), so every
transport checks pixels and vectors against the same bounds. A reason
reply parses straight into what the loop acts on: the ApiCall it executes,
whose rules thus live in one place, or the ReasonAnswer it checks.

Transport errors are retried once; schema errors never are (they are
systematic, a retry wastes budget).

Each kind has at most one sender. ``detect`` is the build's: one request, no
query, lists every keyframe in ``payload["frames"]`` as ``[frame_id,
relations]`` pairs, and its reply holds one item per listed frame, in the
same order. An item is that frame's detections with, optionally, its
field-of-view tag (``fov_tag``), its room scores (``room_scores``: one
score per class the request lists in ``payload["classes"]``, for the room
the camera stands in) and, when the pair asks for them, relation rows that
name the item's detections by index; or it is ``{"error": "..."}``. A
malformed item or an error item fails its own frame only: validation
returns a ``DetectResponse`` holding the error. A reply with the wrong
number of items fails the whole request. A frame without a tag gets the
tag "unavailable", one without relations adds no edges and one without
room scores casts no room vote; none sends another request, so a clean
build is one round trip. ``analyze`` is the loop's: every API but
retrieve_frame sends one; with no targets and ``discover`` true it is
find_objects (or analyze_objects when none of its nodes is visible). The
``fov``, ``relations`` and ``room_label`` kinds remain in the protocol,
but the engine no longer sends them.

Detect/analyze items may carry an exact pixel mask (row runs) and
visual/language embedding vectors. Mask extraction and embedding models
sit behind this protocol; when a backend omits them the engine falls back
to a bbox-rectangle mask and deterministic caption-hash embeddings.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

logger = logging.getLogger(__name__)

REQUEST_KINDS = ("detect", "relations", "consolidate", "analyze", "fov",
                 "room_label", "reason")

RELATION_LABELS = ("on_top_of", "subpart_of", "contained_in", "attached_to")

API_ACTION_KINDS = ("find_objects", "analyze_objects", "analyze_frame",
                    "retrieve_frame")

BBOX_CLAMP_PX = 2


class BackendError(Exception):
    """Base class for typed backend failures."""


class TransportError(BackendError):
    """The request never produced a parseable response (timeout, refused
    connection, malformed body). Retried once."""


class SchemaError(BackendError):
    """The response parsed but violates the kind schema. Never retried."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ApiError(ValueError):
    """An API call or patch breaks the action contract."""


@dataclass(frozen=True)
class BackendRequest:
    kind: str
    frame_id: int | None = None
    query: str | None = None
    payload: dict = field(default_factory=dict)
    # (width, height) of each frame the response's pixels refer to: an
    # analyze request's frame, or every frame a detect request lists, in
    # order (None leaves a frame's pixels unchecked); and the length the
    # embedding vectors must have. Validation reads both; they are never
    # sent and not part of the digest.
    frame_sizes: tuple[tuple[int, int] | None, ...] = field(default=(), compare=False)
    embedding_dim: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind '{self.kind}'")
        if self.kind == "detect" and not self.frame_sizes:  # pixels go unchecked
            object.__setattr__(self, "frame_sizes", (None,) * len(self.payload["frames"]))

    def to_doc(self) -> dict:
        return {"kind": self.kind, "frame_id": self.frame_id,
                "query": self.query, "payload": self.payload}

    def digest(self) -> str:
        text = json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- typed responses --------------------------------------------------------

@dataclass(frozen=True)
class WireObject:
    bbox: tuple[int, int, int, int]
    caption: str
    note: str | None = None
    mask_runs: tuple[tuple[int, int, int], ...] | None = None
    visual_embedding: tuple[float, ...] | None = None
    language_embedding: tuple[float, ...] | None = None


@dataclass(frozen=True)
class WireRelation:
    subject_id: int
    object_id: int
    relation: str
    justification: str


@dataclass(frozen=True)
class DetectResponse:
    """One listed frame's item of a detect reply."""

    objects: tuple[WireObject, ...] = ()
    fov_tag: str | None = None  # the frame's field-of-view tag, when sent
    # one score per requested class for the room holding the camera, when sent
    room_scores: tuple[float, ...] | None = None
    # relations among the detections: subject_id and object_id are indices
    # into ``objects``
    relations: tuple[WireRelation, ...] = ()
    # why the frame has no detections: its item was malformed or an error
    # item, or the whole request failed
    error: BackendError | None = None


@dataclass(frozen=True)
class RelationsResponse:
    relations: tuple[WireRelation, ...]


@dataclass(frozen=True)
class ConsolidateResponse:
    sentence: str


@dataclass(frozen=True)
class AnalyzeResponse:
    new_objects: tuple[WireObject, ...]
    notes: tuple[tuple[int, str], ...]  # (node_id, note text)


@dataclass(frozen=True)
class FovResponse:
    tag: str


@dataclass(frozen=True)
class RoomLabelResponse:
    scores: tuple[tuple[float, ...], ...]  # one row per room, one score per class


@dataclass(frozen=True)
class ApiCall:
    """One memory-edit API action: what a reason response asks for and
    what ApiExecutor executes."""

    kind: str
    frame_id: int
    query: str
    node_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in API_ACTION_KINDS:
            raise ApiError(f"unknown api kind '{self.kind}'")
        if self.kind != "retrieve_frame" and not self.query.strip():
            raise ApiError("query must be nonempty")
        if (self.node_ids is not None) != (self.kind == "analyze_objects"):
            raise ApiError("node_ids must be given exactly for analyze_objects")
        if self.kind == "analyze_objects" and not self.node_ids:
            raise ApiError("analyze_objects requires at least one node id")

    def to_doc(self) -> dict:
        doc = {"api": self.kind, "frame_id": self.frame_id, "query": self.query}
        if self.node_ids is not None:
            doc["node_ids"] = list(self.node_ids)
        return doc


@dataclass(frozen=True)
class ReasonAnswer:
    text: str
    evidence_frames: tuple[int, ...]
    evidence_notes: tuple[tuple[int, int], ...]  # (node_id, note index)


# -- validation -------------------------------------------------------------

def need(doc, key, typ, path, error=SchemaError):
    """``doc[key]`` when ``doc`` is an object holding a ``typ`` there (an
    int is never a bool); otherwise ``error`` at the path of the fault.
    Backend responses raise SchemaError, the memory parser ParseError."""
    if not isinstance(doc, dict):
        raise error(path, "expected an object")
    if key not in doc:
        raise error(f"{path}.{key}", "missing")
    value = doc[key]
    if typ is int and isinstance(value, bool):
        raise error(f"{path}.{key}", "expected an integer")
    if not isinstance(value, typ):
        raise error(f"{path}.{key}", f"expected {typ.__name__}")
    return value


def _array(raw, types, noun, path, error, size, message):
    """``raw`` when it is an array (of ``size`` items, if given) of
    ``types`` items; a bool never is one. With a ``message`` every
    fault is reported at ``path``; without one a bad item is named by its
    index."""
    if not isinstance(raw, (list, tuple)) or (size is not None and len(raw) != size):
        raise error(path, message or "expected an array")
    for i, x in enumerate(raw):
        if isinstance(x, bool) or not isinstance(x, types):
            if message:
                raise error(path, message)
            raise error(f"{path}[{i}]", f"expected {noun}")
    return raw


def int_array(raw, path, error=SchemaError, size=None, message=None) -> tuple[int, ...]:
    """``raw`` as a tuple of integers; faults as for ``_array``."""
    return tuple(_array(raw, int, "an integer", path, error, size, message))


def number_array(raw, path, error=SchemaError, size=None,
                 message=None) -> tuple[float, ...]:
    """``raw`` as a tuple of finite floats; faults as for ``_array``, and
    an array holding NaN, an infinity or an integer beyond float range is
    refused at ``path``."""
    items = _array(raw, (int, float), "a number", path, error, size, message)
    try:
        if all(map(math.isfinite, items)):
            return tuple(map(float, items))
    except OverflowError:  # an integer beyond float range
        pass
    raise error(path, message or "expected finite numbers")


def _clamped_bbox(raw, frame_size, path) -> tuple[int, int, int, int]:
    u0, v0, u1, v1 = int_array(raw, path, size=4, message="expected four integers")
    if frame_size is not None:
        w, h = frame_size
        for name, val, limit in (("u_min", u0, w), ("v_min", v0, h),
                                 ("u_max", u1, w), ("v_max", v1, h)):
            if val < -BBOX_CLAMP_PX or val > limit - 1 + BBOX_CLAMP_PX:
                raise SchemaError(path, f"{name}={val} overflows frame by more "
                                        f"than {BBOX_CLAMP_PX} px")
        u0 = min(max(u0, 0), w - 1)
        u1 = min(max(u1, 0), w - 1)
        v0 = min(max(v0, 0), h - 1)
        v1 = min(max(v1, 0), h - 1)
    if u0 > u1 or v0 > v1:
        raise SchemaError(path, "bbox not well-ordered")
    return (u0, v0, u1, v1)


def _embedding(doc, key, dim, path) -> tuple[float, ...] | None:
    """An optional embedding vector of ``dim`` entries (any length when
    ``dim`` is None). Its norm must be finite and nonzero, or ``Embedding``
    could not normalize it."""
    raw = doc.get(key)
    if raw is None:
        return None
    vector = number_array(raw, f"{path}.{key}")
    if dim is not None and len(vector) != dim:
        raise SchemaError(f"{path}.{key}", f"expected {dim} entries, got {len(vector)}")
    if not 0.0 < sum(x * x for x in vector) < math.inf:  # the squared norm
        raise SchemaError(f"{path}.{key}", "expected a finite nonzero vector")
    return vector


def _wire_object(doc, frame_size, dim, path) -> WireObject:
    bbox = _clamped_bbox(need(doc, "bbox", list, path), frame_size, f"{path}.bbox")
    caption = need(doc, "caption", str, path)
    if not caption.strip():
        raise SchemaError(f"{path}.caption", "must be nonempty")
    note = doc.get("note")
    if note is not None and not isinstance(note, str):
        raise SchemaError(f"{path}.note", "expected string or null")
    runs = None
    if doc.get("mask_runs") is not None:
        runs = []
        for i, run in enumerate(need(doc, "mask_runs", list, path)):
            run_path = f"{path}.mask_runs[{i}]"
            v, us, ue = int_array(run, run_path, size=3,
                                  message="expected [v, u_start, u_end]")
            if us > ue:
                raise SchemaError(run_path, "run not well-ordered")
            if frame_size is not None:
                w, h = frame_size
                if not (0 <= v < h and 0 <= us and ue < w):
                    raise SchemaError(run_path, "run outside frame")
            runs.append((v, us, ue))
        runs = tuple(runs)
    return WireObject(bbox=bbox, caption=caption, note=note, mask_runs=runs,
                      visual_embedding=_embedding(doc, "visual_embedding", dim, path),
                      language_embedding=_embedding(doc, "language_embedding", dim,
                                                    path))


def _relation_rows(raw, base: str = "$",
                   count: int | None = None) -> tuple[WireRelation, ...]:
    """The rows of ``raw["relations"]``, where ``raw`` sits at ``base``.
    Both ends of a row must differ; with a ``count`` they are indices, each
    below it (a detect item's rows name its detections)."""
    rels = []
    for i, r in enumerate(need(raw, "relations", list, base)):
        path = f"{base}.relations[{i}]"
        label = need(r, "relation", str, path)
        if label not in RELATION_LABELS:
            raise SchemaError(f"{path}.relation", f"unknown label '{label}'")
        ends = []
        for key in ("subject_id", "object_id"):
            end = need(r, key, int, path)
            if count is not None and not 0 <= end < count:
                raise SchemaError(f"{path}.{key}",
                                  f"{end} is not a detection index below {count}")
            ends.append(end)
        if ends[0] == ends[1]:
            raise SchemaError(path, "subject_id and object_id must differ")
        rels.append(WireRelation(subject_id=ends[0], object_id=ends[1], relation=label,
                                 justification=need(r, "justification", str, path)))
    return tuple(rels)


def _detect_response(doc, frame_size, dim, path) -> DetectResponse:
    """One listed frame's item of a detect reply. A malformed item, or an
    error item (``{"error": "..."}``), gives a response holding only that
    frame's error, at the item's path."""
    try:
        if isinstance(doc, dict) and "error" in doc:
            return DetectResponse(error=BackendError(
                f"{path}.error: {need(doc, 'error', str, path)}"))
        items = need(doc, "detections", list, path)
        fov_tag = need(doc, "fov_tag", str, path) if "fov_tag" in doc else None
        room_scores = (number_array(doc["room_scores"], f"{path}.room_scores")
                       if "room_scores" in doc else None)
        objects = tuple(_wire_object(d, frame_size, dim, f"{path}.detections[{i}]")
                        for i, d in enumerate(items))
        relations = _relation_rows(doc, path, len(objects)) if "relations" in doc else ()
    except SchemaError as exc:
        return DetectResponse(error=exc)
    return DetectResponse(objects, fov_tag, room_scores, relations)


def validate_response(kind: str, raw,
                      frame_sizes: tuple[tuple[int, int] | None, ...] = (),
                      embedding_dim: int | None = None):
    """Strictly validate a raw JSON response for ``kind``.

    Pixels are checked against ``frame_sizes`` (an analyze response against
    its one entry, each detect item against its frame's) and embedding
    lengths against ``embedding_dim``, each when given. Returns the kind's
    typed response; for detect, one DetectResponse per entry of
    ``frame_sizes``, where a malformed item fails only its own; for reason,
    the ApiCall or the ReasonAnswer the reply holds. Raises
    SchemaError with a path-precise diagnostic on any other violation.
    """
    if kind not in REQUEST_KINDS:
        raise SchemaError("$", f"unknown request kind '{kind}'")
    if not isinstance(raw, dict):
        raise SchemaError("$", "response must be a JSON object")

    if kind == "detect":
        items = need(raw, "frames", list, "$")
        if len(items) != len(frame_sizes):
            raise SchemaError("$.frames", f"expected {len(frame_sizes)} items, one per "
                                          f"listed frame, got {len(items)}")
        return tuple(_detect_response(doc, size, embedding_dim, f"$.frames[{i}]")
                     for i, (doc, size) in enumerate(zip(items, frame_sizes)))

    if kind == "relations":
        return RelationsResponse(_relation_rows(raw))

    if kind == "consolidate":
        sentence = need(raw, "sentence", str, "$")
        if not sentence.strip():
            raise SchemaError("$.sentence", "must be nonempty")
        return ConsolidateResponse(sentence)

    if kind == "analyze":
        new_items = need(raw, "new_objects", list, "$")
        frame_size = frame_sizes[0] if frame_sizes else None
        objs = tuple(_wire_object(d, frame_size, embedding_dim, f"$.new_objects[{i}]")
                     for i, d in enumerate(new_items))
        notes = []
        for i, n in enumerate(need(raw, "notes", list, "$")):
            path = f"$.notes[{i}]"
            notes.append((need(n, "node_id", int, path),
                          need(n, "note", str, path)))
        return AnalyzeResponse(objs, tuple(notes))

    if kind == "fov":
        return FovResponse(tag=need(raw, "tag", str, "$"))

    if kind == "room_label":
        return RoomLabelResponse(tuple(
            number_array(row, f"$.scores[{i}]")
            for i, row in enumerate(need(raw, "scores", list, "$"))))

    # kind == "reason"
    has_action = "action" in raw and raw["action"] is not None
    has_answer = "final_answer" in raw and raw["final_answer"] is not None
    if has_action == has_answer:
        raise SchemaError("$", "need exactly one of action / final_answer")
    if has_action:
        act = raw["action"]
        api = need(act, "api", str, "$.action")
        frame_id = need(act, "frame_id", int, "$.action")
        query = need(act, "query", str, "$.action")
        node_ids = act.get("node_ids")
        if node_ids is not None:
            node_ids = int_array(node_ids, "$.action.node_ids",
                                 message="expected integers")
        try:
            call = ApiCall(api, frame_id, query, node_ids)
        except ApiError as exc:
            raise SchemaError("$.action", str(exc)) from None
        return call
    ans_text = need(raw, "final_answer", str, "$")
    frames = int_array(need(raw, "evidence_frames", list, "$"), "$.evidence_frames",
                       message="expected integers")
    notes = tuple(int_array(n, f"$.evidence_notes[{i}]", size=2,
                            message="expected [node_id, note_index]")
                  for i, n in enumerate(need(raw, "evidence_notes", list, "$")))
    return ReasonAnswer(text=ans_text, evidence_frames=frames, evidence_notes=notes)


# -- transports -------------------------------------------------------------

class Backend:
    """Synchronous request/response transport with per-kind round-trip counters.

    Subclasses implement raw_call returning the raw JSON document.
    ``call`` retries once on TransportError and validates before returning,
    against the bounds the request carries; callers therefore never see
    unvalidated content, whatever the transport.
    """

    def __init__(self):
        self.call_counts: dict[str, int] = {k: 0 for k in REQUEST_KINDS}

    def raw_call(self, request: BackendRequest) -> dict:
        raise NotImplementedError

    def frame_size(self, frame_id: int | None) -> tuple[int, int] | None:
        """Always None. Validation takes frame bounds from
        ``BackendRequest.frame_sizes``; this stays so that wrappers which
        forward it keep working."""
        return None

    def call(self, request: BackendRequest):
        self.call_counts[request.kind] += 1
        try:
            raw = self.raw_call(request)
        except TransportError as exc:
            logger.warning("transport failure (%s), retrying once: %s",
                           request.kind, exc)
            self.call_counts[request.kind] += 1
            raw = self.raw_call(request)
        return validate_response(request.kind, raw, request.frame_sizes,
                                 request.embedding_dim)


def check_backend_url(url: str) -> str:
    """``url`` when it parses as ``http(s)://host[:port][/path]``; otherwise
    ValueError naming it. A query or fragment is refused too: the request
    kind is appended to the URL as a path segment."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # a port that is not a number in 0-65535 raises here
    except ValueError as exc:
        raise ValueError(f"backend URL '{url}': {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname \
            or parts.query or parts.fragment:
        raise ValueError(f"backend URL '{url}': expected http(s)://host[:port][/path]")
    return url


class HttpBackend(Backend):
    """JSON-over-HTTP adapter: POST /<kind> with the request document.
    Responses are checked against the frame bounds the request carries.
    ``timeout`` bounds each round trip, so a build's one detect request,
    which covers every keyframe, must finish within it. A base URL that
    ``check_backend_url`` refuses raises ValueError."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        super().__init__()
        self.base_url = check_backend_url(base_url).rstrip("/")
        self.timeout = timeout

    def raw_call(self, request: BackendRequest) -> dict:
        body = json.dumps(request.to_doc()).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base_url}/{request.kind}", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = resp.read()
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"unparseable response body: {exc}") from exc


class RecordingBackend(Backend):
    """Wraps another backend, appending (request digest, raw response)
    records to a JSON-lines log for later replay."""

    def __init__(self, inner: Backend, log_path: str | Path):
        super().__init__()
        self.inner = inner
        self.log_path = Path(log_path)
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self.log_path.write_text("", encoding="utf-8")

    def raw_call(self, request: BackendRequest) -> dict:
        raw = self.inner.raw_call(request)
        record = {"digest": request.digest(), "kind": request.kind, "response": raw}
        with self.log_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return raw


class ReplayBackend(Backend):
    """Replays a recorded log in order, verifying request digests match.
    Replayed responses are checked against the frame bounds the request
    carries, exactly as when they were recorded. A request the log does not
    hold next (another digest, or the log is used up) raises a plain
    BackendError: the log will not change, so it is not retried."""

    def __init__(self, log_path: str | Path):
        super().__init__()
        self.records = [json.loads(line) for line
                        in Path(log_path).read_text(encoding="utf-8").splitlines()
                        if line.strip()]
        self.cursor = 0

    def raw_call(self, request: BackendRequest) -> dict:
        if self.cursor >= len(self.records):
            raise BackendError("replay log exhausted")
        record = self.records[self.cursor]
        if record["digest"] != request.digest():
            raise BackendError(
                f"replay mismatch at record {self.cursor}: expected {record['kind']} "
                f"request {record['digest'][:12]}, got {request.kind} request "
                f"{request.digest()[:12]}")
        self.cursor += 1
        return record["response"]
