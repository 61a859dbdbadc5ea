"""Deterministic scripted backend: protocol answers from scene truth.

The scripted backend stands in for every neural model. It answers detect /
relations / consolidate / analyze / fov / room_label requests from a
synthetic scene's exact ground truth (optionally degraded by a seeded miss
probability) and delegates reason requests to a pluggable policy:

* ScriptReasoner replays pre-programmed steps per question — used to pin
  down loop behavior (budgets, evidence handling, engineered call counts).
* RuleReasoner answers the synthetic question types by reading the
  serialized memory, issuing analyze/find calls until the needed fact and
  a citable note exist.

The build's detect request is answered item by item, in the order its
frames are listed, so one request listing every keyframe draws exactly
what one request per keyframe drew; each item scores the request's room
classes for the scene room holding the camera, which draws nothing. An
analyze request asked to discover draws the misses among the frame's
untargeted objects that match its query, and notes each object it
returns.

Identical request sequences always produce identical responses. Recorded
replies are replayed through RecordingBackend/ReplayBackend, which is
byte-stable; a test that needs other replies (ones that omit optional
fields, a malformed one) subclasses ScriptedBackend and overrides a
``_handle_<kind>`` method, or ``_detect_item`` for one detect item.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .backend import REQUEST_KINDS, Backend, BackendRequest, TransportError
from .config import EngineConfig
from .graph import caption_embedding, hash_embedding
from .memory import table_records
from .synth import QUESTION_TEMPLATES, GtDetection, RoomSpec, SyntheticScene


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


def check_noise(miss_prob: float, seed: int) -> None:
    """Refuse a miss probability outside [0, 1] (NaN included) or a
    negative seed with a ValueError naming the parameter."""
    if not 0.0 <= miss_prob <= 1.0:
        raise ValueError(f"miss_prob must be in [0, 1], got {miss_prob}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


class ScriptedBackend(Backend):
    """Ground-truth-driven backend over one synthetic scene.

    miss_prob drops each would-be detection independently; it defaults to
    0 = perfect oracle. All randomness comes from one seeded generator, so a
    fixed request sequence is fully reproducible. A miss_prob outside
    [0, 1] (NaN included) or a negative seed raises ValueError. Embedding
    vectors take the length the request asks for (``embedding_dim``), or
    EngineConfig's default when it asks for none.
    """

    def __init__(self, scene: SyntheticScene, reasoner=None, *,
                 miss_prob: float = 0.0, seed: int = 0):
        check_noise(miss_prob, seed)
        super().__init__()
        self.scene = scene
        self.reasoner = reasoner
        self.miss_prob = miss_prob
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.classes: list[str] = []  # the room classes the last detect listed
        self._fail_plan: dict[str, list[str]] = {}

    # -- test hooks --------------------------------------------------------

    def fail(self, kind: str, times: int = 1, mode: str = "transport") -> None:
        """Make the next ``times`` raw calls of ``kind`` fail. Mode
        "transport" raises (retried once by callers); "schema" returns a
        malformed body (never retried). Mode "item", for detect only,
        answers the next ``times`` listed frames with an error item, which
        fails those frames alone. Any other kind or mode raises ValueError."""
        if kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind '{kind}'")
        if mode not in ("transport", "schema", "item"):
            raise ValueError(f"unknown failure mode '{mode}'")
        if mode == "item" and kind != "detect":
            raise ValueError("only detect replies have items")
        self._fail_plan.setdefault(kind, []).extend([mode] * times)

    # -- helpers ------------------------------------------------------------

    def _object_room(self, obj_index: int) -> str:
        return self.scene.room_label_of(self.scene.objects[obj_index])

    def _query_filter(self, query: str | None,
                      dets: tuple[GtDetection, ...]) -> list[GtDetection]:
        """The detections whose class or color the query names; all of them
        when it names neither."""
        specific = set(_tokens(query or "")) - GENERIC_QUERY_TOKENS
        objects = self.scene.objects
        return [det for det in dets if not specific
                or {objects[det.object_index].class_name,
                    objects[det.object_index].color} & specific]

    def _wire_detection(self, det: GtDetection, note: str | None) -> dict:
        obj = self.scene.objects[det.object_index]
        doc = {
            "bbox": list(det.bbox),
            "caption": obj.caption,
            "visual_embedding": hash_embedding(
                f"vis:{self.scene.scene_id}:{obj.index}", "visual",
                self.embedding_dim).vector.tolist(),
            "language_embedding": caption_embedding(
                obj.caption, self.embedding_dim).vector.tolist(),
            "mask_runs": [list(r) for r in det.mask_runs],
        }
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

    def _camera_room(self, frame_id: int) -> RoomSpec | None:
        """The scene room holding the frame's camera (the first, on a
        shared wall), or None."""
        pose = self.scene.poses[frame_id]
        x, y = float(pose.translation[0]), float(pose.translation[1])
        return next((spec for spec in self.scene.rooms
                     if spec.x0 <= x <= spec.x1 and spec.y0 <= y <= spec.y1), None)

    def _fov_tag(self, frame_id: int) -> str:
        """The frame's field-of-view tag: the room holding the camera and
        the captions in view. Deterministic; it draws nothing."""
        room = self._camera_room(frame_id)
        captions = sorted(self.scene.objects[i].caption
                          for i in self.scene.visible_objects(frame_id))
        return (f"view of {room.label if room else 'somewhere'}: "
                f"{', '.join(captions) if captions else 'empty'}")

    def _room_scores(self, captions: set[str], classes: list[str]) -> list[float]:
        """One room's scores: 1 for the label of the scene room sharing the
        most captions with it (the first on a tie), 0 elsewhere."""
        best_room, best_hits = None, 0
        for spec in self.scene.rooms:
            members = {o.caption for o in self.scene.objects
                       if o.room_index == spec.index}
            hits = len(captions & members)
            if hits > best_hits:
                best_room, best_hits = spec, hits
        if best_room is None:
            return [0.0] * len(classes)
        return [1.0 if cls == best_room.label else 0.0 for cls in classes]

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
        self.embedding_dim = request.embedding_dim or EngineConfig.embedding_dim
        plan = self._fail_plan.get(request.kind)
        if plan and plan[0] != "item":
            mode = plan.pop(0)
            if mode == "transport":
                raise TransportError(f"scripted {request.kind} failure")
            return {"scripted": "malformed"}
        handler = getattr(self, f"_handle_{request.kind}")
        return handler(request)

    def _handle_detect(self, request: BackendRequest) -> dict:
        self.classes = request.payload.get("classes", [])
        plan = self._fail_plan.get("detect", [])
        items = []
        for frame_id, relations in request.payload["frames"]:
            if plan and plan[0] == "item":
                plan.pop(0)
                items.append({"error": f"scripted detect failure on frame {frame_id}"})
            else:
                items.append(self._detect_item(frame_id, relations))
        return {"frames": items}

    def _detect_item(self, frame_id: int, relations: bool) -> dict:
        """One listed frame's detections, after the miss draws, its fov tag
        and its room scores over the request's classes (1 for the class of
        the room holding the camera, 0 elsewhere); with ``relations``, the
        true relations among the detections. Only the detections draw."""
        dets = self._drop_missed(list(self.scene.gt_detections(frame_id)))
        room = self._camera_room(frame_id)
        doc = {"detections": [self._wire_detection(det, None) for det in dets],
               "fov_tag": self._fov_tag(frame_id),
               "room_scores": [float(room is not None and cls == room.label)
                               for cls in self.classes]}
        if relations:
            doc["relations"] = self._relation_rows(
                {det.object_index: i for i, det in enumerate(dets)})
        return doc

    def _relation_rows(self, id_of_obj: dict[int, int]) -> list[dict]:
        """The scene's true relations between the objects in ``id_of_obj``,
        each end named by the id it maps that object to."""
        rels = []
        for rel in self.scene.relations:
            s = id_of_obj.get(rel.subject_index)
            o = id_of_obj.get(rel.object_index)
            if s is None or o is None or s == o:
                continue
            subj = self.scene.objects[rel.subject_index]
            obj = self.scene.objects[rel.object_index]
            rels.append({"subject_id": s, "object_id": o, "relation": rel.relation,
                         "justification": f"the {subj.caption} is "
                                          f"{rel.relation.replace('_', ' ')} "
                                          f"the {obj.caption}"})
        return rels

    def _handle_relations(self, request: BackendRequest) -> dict:
        targets = request.payload.get("visible", [])
        return {"relations": self._relation_rows(
            {obj: nid for nid, obj
             in self._match_targets(request.frame_id, targets).items()})}

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
        return {"tag": self._fov_tag(request.frame_id)}

    def _handle_room_label(self, request: BackendRequest) -> dict:
        classes = request.payload.get("classes", [])
        return {"scores": [self._room_scores(set(captions), classes)
                           for captions in request.payload.get("rooms", [])]}

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
    pad = memory["scratchpad"]  # only nodes with notes have an entry
    return frames, [[pad[0]["node_id"], 0]] if pad else []


class ScriptReasoner:
    """Replays fixed step lists, keyed by question text.

    Each step is a raw reason-response document; a step may instead set
    ``{"final_answer": ..., "evidence": "auto"}`` to cite the first
    available frame and note at answer time. When a script runs out (e.g.
    the loop reprompts), its last step repeats. A question's script
    restarts at the first request of each episode, one that carries an
    empty ``history`` and no violations, so a question asked again replays
    its script from the first step. A request without a ``history`` field
    says nothing about episodes and just takes the next step.
    """

    def __init__(self, scripts: dict[str, list[dict]] | None = None,
                 default: list[dict] | None = None):
        self.scripts = scripts or {}
        self.default = default or [{"final_answer": "unknown", "evidence": "auto"}]
        self._cursor: dict[str, int] = {}

    def decide(self, payload: dict) -> dict:
        question = payload["question"]
        steps = self.scripts.get(question, self.default)
        if payload.get("history") == [] and not payload.get("violations"):
            self._cursor[question] = 0
        i = self._cursor.get(question, 0)
        self._cursor[question] = i + 1
        step = dict(steps[min(i, len(steps) - 1)])
        if step.get("evidence") == "auto":
            frames, notes = _auto_evidence(payload)
            step.pop("evidence")
            step["evidence_frames"] = frames
            step["evidence_notes"] = notes
        return step


# one pattern per question kind, compiled from the templates that
# generate_questions formats
_QUESTION_PATTERNS = tuple(
    (kind, re.compile(re.escape(template).replace(r"\{target\}", "(?P<target>.+)")))
    for kind, template in QUESTION_TEMPLATES.items())


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
    frame. Forced answers (budget exhausted) are best-effort.

    The policy keeps no state: the frames tried so far are read back from
    the request's ``history``. Every action it returns is allowed and not a
    forced answer, so the loop executes it and records it there. A frame
    that was already tried marks a restart of the sweep.
    """

    # -- memory digestion ---------------------------------------------------

    @staticmethod
    def _parse(question: str) -> tuple[str, str | None]:
        text = question.strip().lower()
        for kind, pattern in _QUESTION_PATTERNS:
            m = pattern.fullmatch(text)
            if m:
                return kind, m.groupdict().get("target")
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
        parent = by_caption.get(target)  # a relation question: kind is its label
        if parent is None:
            return None, []
        for edge in memory["scene_graph"]["edges"]:
            if edge["object_id"] == parent["id"] and edge["relation"] == kind:
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
    def _seen_frames(memory: dict, focus_ids: list[int]) -> list[int]:
        """The frames each focus node was seen in, node by node."""
        tracks = {t["id"]: t for t in memory["scene_graph"]["tracks"]}
        return [fid for nid in focus_ids if nid in tracks
                for fid in tracks[nid]["visible_frames"]]

    @staticmethod
    def _frame_citation(memory: dict, focus_ids: list[int]) -> int | None:
        fm = memory["episode"]["frame_memory"]["frames"]
        if not fm:
            return None
        seen = RuleReasoner._seen_frames(memory, focus_ids)
        return next((fid for fid in seen if fid in fm), fm[0])

    @staticmethod
    def _tried(history: list[dict]) -> list[int]:
        """The frames of the current sweep, in the order they were tried."""
        tried: list[int] = []
        for step in history:
            fid = step["call"]["frame_id"]
            tried = [fid] if fid in tried else tried + [fid]
        return tried

    @staticmethod
    def _next_frame(tried: list[int], memory: dict, focus_ids: list[int]) -> int:
        candidates = RuleReasoner._seen_frames(memory, focus_ids) + [
            e["frame_id"] for e in memory["navigation_log"]]
        # everything tried: sweep again from the first candidate
        return next((fid for fid in candidates if fid not in tried), candidates[0])

    def decide(self, payload: dict) -> dict:
        memory = _read_memory(payload)
        question = payload["question"]
        allowed = payload.get("allowed_apis", ["analyze_frame"])
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

        frame = self._next_frame(self._tried(payload.get("history", [])), memory,
                                 focus_ids)
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
