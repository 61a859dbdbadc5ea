"""Deterministic scripted backend: protocol answers from scene truth.

The scripted backend stands in for every neural model. It answers detect /
relations / consolidate / analyze / fov / room_label requests from a
synthetic scene's exact ground truth (optionally degraded by a seeded miss
probability and bbox jitter) and delegates reason requests to a pluggable
policy:

* ScriptReasoner replays pre-programmed steps per question — used to pin
  down loop behavior (budgets, evidence handling, engineered call counts).
* RuleReasoner answers the synthetic question types by reading the
  serialized memory, issuing analyze/find calls until the needed fact and
  a citable note exist.

Identical request sequences always produce identical responses; replaying
a recorded log through RecordingBackend/ReplayBackend is byte-stable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backend import Backend, BackendRequest, TransportError
from .graph import caption_embedding, hash_embedding
from .memory import table_records
from .synth import GtDetection, SyntheticScene


def load_fixtures(path: str | Path) -> dict[str, dict]:
    """Load a request-digest -> response fixtures file. The JSON-lines
    format matches RecordingBackend logs, so any recorded session can be
    replayed as fixture overrides."""
    fixtures: dict[str, dict] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        fixtures[record["digest"]] = record["response"]
    return fixtures


GENERIC_QUERY_TOKENS = {
    "all", "everything", "object", "objects", "item", "items", "scene",
    "anything", "visible", "describe", "look", "around", "what", "which",
    "is", "are", "the", "a", "an", "in", "on", "this", "that", "frame",
    "room", "there", "find", "for", "of", "to", "and", "color", "me",
    "show", "tell", "how", "many", "where", "it",
}


def _tokens(text: str) -> list[str]:
    return re.findall(r"[a-z]+", text.lower())


def _iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = min(ax1, bx1) - max(ax0, bx0) + 1
    ih = min(ay1, by1) - max(ay0, by0) + 1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax1 - ax0 + 1) * (ay1 - ay0 + 1)
    area_b = (bx1 - bx0 + 1) * (by1 - by0 + 1)
    return inter / (area_a + area_b - inter)


class ScriptedBackend(Backend):
    """Ground-truth-driven backend over one synthetic scene.

    miss_prob drops each would-be detection independently; bbox_jitter
    perturbs box edges by up to +/- that many pixels (and withholds exact
    masks, forcing the engine onto its bbox fallback). Both default to 0 =
    perfect oracle. All randomness comes from one seeded generator, so a
    fixed request sequence is fully reproducible.
    """

    def __init__(self, scene: SyntheticScene, reasoner=None, *,
                 miss_prob: float = 0.0, bbox_jitter: int = 0, seed: int = 0,
                 embedding_dim: int = 64, fixtures=None):
        super().__init__()
        self.scene = scene
        self.reasoner = reasoner
        self.miss_prob = miss_prob
        self.bbox_jitter = bbox_jitter
        self.embedding_dim = embedding_dim
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._fail_plan: dict[str, list[str]] = {}
        self.fixtures = load_fixtures(fixtures) if isinstance(fixtures, (str, Path)) \
            else dict(fixtures or {})

    # -- test hooks --------------------------------------------------------

    def fail(self, kind: str, times: int = 1, mode: str = "transport") -> None:
        """Make the next ``times`` raw calls of ``kind`` fail. Mode
        "transport" raises (retried once by callers); "schema" returns a
        malformed body (never retried)."""
        self._fail_plan.setdefault(kind, []).extend([mode] * times)

    # -- helpers ------------------------------------------------------------

    def _object_room(self, obj_index: int) -> str:
        return self.scene.room_label_of(self.scene.objects[obj_index])

    def _query_filter(self, query: str | None,
                      dets: tuple[GtDetection, ...]) -> list[GtDetection]:
        if not query:
            return list(dets)
        specific = [t for t in _tokens(query) if t not in GENERIC_QUERY_TOKENS]
        if not specific:
            return list(dets)
        keep = []
        for det in dets:
            obj = self.scene.objects[det.object_index]
            if obj.class_name in specific or obj.color in specific:
                keep.append(det)
        return keep

    def _wire_detection(self, det: GtDetection, note: str | None) -> dict:
        obj = self.scene.objects[det.object_index]
        bbox = list(det.bbox)
        mask_runs: list[list[int]] | None = [list(r) for r in det.mask_runs]
        if self.bbox_jitter > 0:
            j = self.bbox_jitter
            w = self.scene.intrinsics.width
            h = self.scene.intrinsics.height
            jittered = [int(b + self.rng.integers(-j, j + 1)) for b in bbox]
            jittered[0] = min(max(jittered[0], 0), w - 1)
            jittered[2] = min(max(jittered[2], 0), w - 1)
            jittered[1] = min(max(jittered[1], 0), h - 1)
            jittered[3] = min(max(jittered[3], 0), h - 1)
            bbox = [min(jittered[0], jittered[2]), min(jittered[1], jittered[3]),
                    max(jittered[0], jittered[2]), max(jittered[1], jittered[3])]
            mask_runs = None
        doc = {
            "bbox": bbox,
            "caption": obj.caption,
            "visual_embedding": hash_embedding(
                f"vis:{self.scene.scene_id}:{obj.index}", "visual",
                self.embedding_dim).vector.tolist(),
            "language_embedding": caption_embedding(
                obj.caption, self.embedding_dim).vector.tolist(),
        }
        if mask_runs is not None:
            doc["mask_runs"] = mask_runs
        if note is not None:
            doc["note"] = note
        return doc

    def _drop_missed(self, dets: list[GtDetection]) -> list[GtDetection]:
        if self.miss_prob <= 0:
            return dets
        return [d for d in dets if float(self.rng.random()) >= self.miss_prob]

    def _note_for(self, obj_index: int, query: str | None) -> str:
        obj = self.scene.objects[obj_index]
        prefix = f"re '{query}': " if query else ""
        return (f"{prefix}the {obj.caption} is {obj.color}; "
                f"located in the {self._object_room(obj_index)}")

    def _match_targets(self, frame_id: int, targets: list[dict]) -> dict[int, int]:
        """target node_id -> object index, by bbox IoU against exact truth."""
        truth = self.scene.gt_detections(frame_id)
        out: dict[int, int] = {}
        for target in targets:
            bbox = tuple(target["bbox"])
            best_iou, best_obj = 0.0, None
            for det in truth:
                iou = _iou(bbox, det.bbox)
                if iou > best_iou or (iou == best_iou and best_obj is not None
                                      and det.caption == target.get("caption")):
                    best_iou, best_obj = iou, det.object_index
            if best_obj is not None and best_iou >= 0.2:
                out[int(target["node_id"])] = best_obj
        return out

    # -- protocol ------------------------------------------------------------

    def raw_call(self, request: BackendRequest) -> dict:
        plan = self._fail_plan.get(request.kind)
        if plan:
            mode = plan.pop(0)
            if mode == "transport":
                raise TransportError(f"scripted {request.kind} failure")
            return {"scripted": "malformed"}
        if self.fixtures:
            fixture = self.fixtures.get(request.digest())
            if fixture is not None:
                return fixture
        handler = getattr(self, f"_handle_{request.kind}")
        return handler(request)

    def _handle_detect(self, request: BackendRequest) -> dict:
        dets = self.scene.gt_detections(request.frame_id)
        dets = self._query_filter(request.query, dets)
        dets = self._drop_missed(dets)
        out = []
        for det in dets:
            note = self._note_for(det.object_index, request.query) \
                if request.query else None
            out.append(self._wire_detection(det, note))
        return {"detections": out}

    def _handle_relations(self, request: BackendRequest) -> dict:
        targets = request.payload.get("visible", [])
        node_of_obj = {obj: nid for nid, obj
                       in self._match_targets(request.frame_id, targets).items()}
        rels = []
        for rel in self.scene.relations:
            s = node_of_obj.get(rel.subject_index)
            o = node_of_obj.get(rel.object_index)
            if s is None or o is None or s == o:
                continue
            subj = self.scene.objects[rel.subject_index]
            obj = self.scene.objects[rel.object_index]
            rels.append({"subject_id": s, "object_id": o, "relation": rel.relation,
                         "justification": f"the {subj.caption} is "
                                          f"{rel.relation.replace('_', ' ')} "
                                          f"the {obj.caption}"})
        return {"relations": rels}

    def _handle_consolidate(self, request: BackendRequest) -> dict:
        captions = request.payload.get("captions", [])
        if not captions:
            return {"sentence": "nothing observed"}
        counts: dict[str, int] = {}
        for c in captions:
            counts[c] = counts.get(c, 0) + 1
        best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        return {"sentence": best}

    def _handle_analyze(self, request: BackendRequest) -> dict:
        targets = request.payload.get("targets", [])
        discover = bool(request.payload.get("discover", False))
        matched = self._match_targets(request.frame_id, targets)
        notes = [{"node_id": nid, "note": self._note_for(obj_idx, request.query)}
                 for nid, obj_idx in sorted(matched.items())]
        new_objects = []
        if discover:
            claimed = set(matched.values())
            candidates = [d for d in self.scene.gt_detections(request.frame_id)
                          if d.object_index not in claimed]
            candidates = self._query_filter(request.query, tuple(candidates))
            for det in self._drop_missed(candidates):
                new_objects.append(self._wire_detection(
                    det, self._note_for(det.object_index, request.query)))
        return {"new_objects": new_objects, "notes": notes}

    def _handle_fov(self, request: BackendRequest) -> dict:
        pose = self.scene.poses[request.frame_id]
        x, y = float(pose.translation[0]), float(pose.translation[1])
        room = "somewhere"
        for spec in self.scene.rooms:
            if spec.x0 <= x <= spec.x1 and spec.y0 <= y <= spec.y1:
                room = spec.label
                break
        captions = sorted(self.scene.objects[i].caption
                          for i in self.scene.visible_objects(request.frame_id))
        return {"tag": f"view of {room}: {', '.join(captions) if captions else 'empty'}"}

    def _handle_room_label(self, request: BackendRequest) -> dict:
        captions = set(request.payload.get("captions", []))
        classes = request.payload.get("classes", [])
        best_room, best_hits = None, 0
        for spec in self.scene.rooms:
            members = {o.caption for o in self.scene.objects
                       if o.room_index == spec.index}
            hits = len(captions & members)
            if hits > best_hits:
                best_room, best_hits = spec, hits
        if best_room is None:
            return {"scores": [0.0] * len(classes)}
        return {"scores": [1.0 if cls == best_room.label else 0.0
                           for cls in classes]}

    def _handle_reason(self, request: BackendRequest) -> dict:
        if self.reasoner is None:
            raise TransportError("no reasoner policy configured")
        return self.reasoner.decide(request.payload)


# ---------------------------------------------------------------------------
# Reason policies
# ---------------------------------------------------------------------------

def _auto_evidence(payload: dict) -> tuple[list[int], list[list[int]]]:
    """First frame-memory frame + first existing scratchpad note, if any."""
    memory = json.loads(payload["memory_json"])
    frames = memory["episode"]["frame_memory"]["frames"][:1]
    notes: list[list[int]] = []
    for entry in memory["scratchpad"]:
        if entry["notes"]:
            notes = [[entry["node_id"], 0]]
            break
    return frames, notes


class ScriptReasoner:
    """Replays fixed step lists, keyed by question text.

    Each step is a raw reason-response document; a step may instead set
    ``{"final_answer": ..., "evidence": "auto"}`` to cite the first
    available frame and note at answer time. When a script runs out (e.g.
    the loop reprompts), its last step repeats.
    """

    def __init__(self, scripts: dict[str, list[dict]] | None = None,
                 default: list[dict] | None = None):
        self.scripts = scripts or {}
        self.default = default or [{"final_answer": "unknown", "evidence": "auto"}]
        self._cursor: dict[str, int] = {}

    def decide(self, payload: dict) -> dict:
        question = payload["question"]
        steps = self.scripts.get(question, self.default)
        i = self._cursor.get(question, 0)
        self._cursor[question] = i + 1
        step = dict(steps[min(i, len(steps) - 1)])
        if step.get("evidence") == "auto":
            frames, notes = _auto_evidence(payload)
            step.pop("evidence")
            step["evidence_frames"] = frames
            step["evidence_notes"] = notes
        return step


_QUESTION_PATTERNS = (
    ("on top of", re.compile(r"^what is on top of the (?P<target>.+)\?$")),
    ("inside", re.compile(r"^what is inside the (?P<target>.+)\?$")),
    ("part of", re.compile(r"^what is part of the (?P<target>.+)\?$")),
    ("attached to", re.compile(r"^what is attached to the (?P<target>.+)\?$")),
    ("room", re.compile(r"^which room is the (?P<target>.+) in\?$")),
    ("color", re.compile(r"^what color is the (?P<target>.+)\?$")),
    ("count", re.compile(r"^how many objects are in the scene\?$")),
)

_PHRASE_TO_RELATION = {
    "on top of": "on_top_of",
    "inside": "contained_in",
    "part of": "subpart_of",
    "attached to": "attached_to",
}


@dataclass
class _QueryState:
    tried: list[int] = field(default_factory=list)


def _read_memory(payload: dict) -> dict:
    """The request's memory document with each table read into records."""
    memory = json.loads(payload["memory_json"])
    graph = memory["scene_graph"]
    graph["tracks"] = table_records(graph["tracks"])
    graph["edges"] = table_records(graph["edges"])
    memory["navigation_log"] = table_records(memory["navigation_log"])
    return memory


class RuleReasoner:
    """Deterministic policy for the synthetic question templates.

    Reads the serialized memory each round; answers once the needed fact is
    derivable AND a citable scratchpad note exists on a relevant node,
    otherwise requests an allowed API call on the most promising untried
    frame. Forced answers (budget exhausted) are best-effort. The frames
    tried so far are kept per question and start afresh with each episode
    (the first request: no history, no violations), so asking a question
    again replays the same episode.
    """

    def __init__(self):
        self._state: dict[str, _QueryState] = {}

    # -- memory digestion ---------------------------------------------------

    @staticmethod
    def _parse(question: str) -> tuple[str, str | None]:
        for kind, pattern in _QUESTION_PATTERNS:
            m = pattern.match(question.strip().lower())
            if m:
                target = m.groupdict().get("target")
                return kind, target
        return "unknown", None

    @staticmethod
    def _derive(kind: str, target: str | None, memory: dict) \
            -> tuple[str | None, list[int]]:
        """(answer text or None, candidate focus node ids)."""
        tracks = memory["scene_graph"]["tracks"]
        by_caption = {t["caption"]: t for t in tracks}
        by_id = {t["id"]: t for t in tracks}
        if kind == "count":
            return str(len(tracks)), [t["id"] for t in tracks]
        if target is None:
            return None, []
        if kind == "room":
            track = by_caption.get(target)
            if track is None:
                return None, []
            label = track.get("room_label")
            if label and label != "unknown":
                return label, [track["id"]]
            # fall back to the room the camera was in when the node was seen
            for entry in memory["navigation_log"]:
                if track["id"] in entry["visible_node_ids"] \
                        and entry["room_label"] != "unknown":
                    return entry["room_label"], [track["id"]]
            return None, [track["id"]]
        if kind == "color":
            for caption, track in sorted(by_caption.items()):
                if caption.endswith(" " + target) or caption == target:
                    return caption.split(" ")[0], [track["id"]]
            return None, []
        relation = _PHRASE_TO_RELATION.get(kind)
        if relation is None:
            return None, []
        parent = by_caption.get(target)
        if parent is None:
            return None, []
        for edge in memory["scene_graph"]["edges"]:
            if edge["object_id"] == parent["id"] and edge["relation"] == relation:
                subject = by_id.get(edge["subject_id"])
                if subject is not None:
                    return subject["caption"], [subject["id"], parent["id"]]
        return None, [parent["id"]]

    @staticmethod
    def _note_citation(memory: dict, focus_ids: list[int]) \
            -> tuple[int, int] | None:
        notes_by_id = {e["node_id"]: e["notes"] for e in memory["scratchpad"]}
        for nid in focus_ids:
            notes = notes_by_id.get(nid, [])
            if notes:
                return nid, len(notes) - 1
        return None

    @staticmethod
    def _frame_citation(memory: dict, focus_ids: list[int]) -> int | None:
        fm = memory["episode"]["frame_memory"]["frames"]
        if not fm:
            return None
        tracks = {t["id"]: t for t in memory["scene_graph"]["tracks"]}
        for nid in focus_ids:
            track = tracks.get(nid)
            if track is None:
                continue
            for fid in track["visible_frames"]:
                if fid in fm:
                    return fid
        return fm[0]

    def _next_frame(self, state: _QueryState, memory: dict,
                    focus_ids: list[int], target: str | None) -> int:
        episode_frames = memory["episode"]["frame_ids"]
        tracks = {t["id"]: t for t in memory["scene_graph"]["tracks"]}
        preferred: list[int] = []
        for nid in focus_ids:
            track = tracks.get(nid)
            if track is not None:
                preferred.extend(track["visible_frames"])
        for fid in preferred + episode_frames:
            if fid not in state.tried:
                state.tried.append(fid)
                return fid
        state.tried.clear()  # everything tried: sweep again
        first = preferred + episode_frames
        state.tried.append(first[0])
        return first[0]

    def decide(self, payload: dict) -> dict:
        memory = _read_memory(payload)
        question = payload["question"]
        allowed = payload.get("allowed_apis", ["analyze_frame"])
        if not payload.get("history") and not payload.get("violations"):
            self._state[question] = _QueryState()
        state = self._state.setdefault(question, _QueryState())
        kind, target = self._parse(question)
        answer_text, focus_ids = self._derive(kind, target, memory)
        citation = self._note_citation(memory, focus_ids)

        if answer_text is not None and citation is not None:
            frame = self._frame_citation(memory, [citation[0]])
            return {"final_answer": answer_text,
                    "evidence_frames": [frame] if frame is not None else [],
                    "evidence_notes": [list(citation)]}

        if payload.get("must_answer"):
            frames, notes = _auto_evidence(payload)
            if citation is not None:
                notes = [list(citation)]
            return {"final_answer": answer_text or "unknown",
                    "evidence_frames": frames, "evidence_notes": notes}

        frame = self._next_frame(state, memory, focus_ids, target)
        query = f"look for the {target}" if target else "describe all objects"
        if "analyze_frame" in allowed:
            return {"action": {"api": "analyze_frame", "frame_id": frame,
                               "query": query}}
        if "analyze_objects" in allowed and focus_ids:
            return {"action": {"api": "analyze_objects", "frame_id": frame,
                               "query": query, "node_ids": list(focus_ids)}}
        if "find_objects" in allowed:
            return {"action": {"api": "find_objects", "frame_id": frame,
                               "query": query}}
        return {"action": {"api": "retrieve_frame", "frame_id": frame,
                           "query": ""}}
