"""Wire-protocol validation, retry policy, scripted-backend determinism
and record/replay stability."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from scenemem import (ApiCall, Backend, BackendError, BackendRequest, EngineConfig,
                      RecordingBackend, ReplayBackend, RuleReasoner, SceneMemory,
                      SchemaError, ScriptedBackend, Track, TransportError, build_ssm,
                      init_frame_memory, serialize, validate_response)
from scenemem.backend import ReasonAnswer
from scenemem.scripted import ScriptReasoner, _iou, _read_memory
from scenemem.spatial import NavLogEntry

from conftest import BorderOverflowBackend


def _validate(kind, raw, frame_size=None, embedding_dim=None):
    """``validate_response`` for a reply about one frame of ``frame_size``.
    A detect reply lists that frame once: ``raw`` is its item, and the
    item's error is raised."""
    if kind != "detect":
        return validate_response(kind, raw, (frame_size,), embedding_dim)
    (out,) = validate_response("detect", {"frames": [raw]}, (frame_size,), embedding_dim)
    if out.error is not None:
        raise out.error
    return out


def _detect(frame_id, relations=False) -> BackendRequest:
    """A detect request listing one frame."""
    return BackendRequest(kind="detect", payload={"frames": [[frame_id, relations]]})


def _find(frame_id, query) -> BackendRequest:
    """The analyze request find_objects sends: no targets, discovering."""
    return BackendRequest(kind="analyze", frame_id=frame_id, query=query,
                          payload={"targets": [], "discover": True})


class TestValidateResponse:
    def test_unknown_relation_label_rejected(self):
        raw = {"relations": [{"subject_id": 0, "object_id": 1,
                              "relation": "next_to", "justification": ""}]}
        with pytest.raises(SchemaError) as err:
            validate_response("relations", raw)
        assert "$.relations[0].relation" in str(err.value)
        assert "next_to" in str(err.value)

    def test_self_relation_rejected(self):
        """An edge needs two endpoints; the engine's RelationEdge would
        raise mid-build on this one."""
        raw = {"relations": [{"subject_id": 0, "object_id": 1,
                              "relation": "on_top_of", "justification": ""},
                             {"subject_id": 2, "object_id": 2,
                              "relation": "on_top_of", "justification": ""}]}
        with pytest.raises(SchemaError) as err:
            validate_response("relations", raw)
        assert err.value.path == "$.relations[1]"

    def test_bbox_one_px_overflow_clamped(self):
        raw = {"detections": [{"bbox": [0, 0, 64, 47], "caption": "mug"}]}
        out = _validate("detect", raw, (64, 48))
        assert out.objects[0].bbox == (0, 0, 63, 47)

    def test_bbox_negative_two_px_clamped(self):
        raw = {"detections": [{"bbox": [-2, -1, 10, 10], "caption": "mug"}]}
        out = _validate("detect", raw, (64, 48))
        assert out.objects[0].bbox == (0, 0, 10, 10)

    def test_bbox_fifty_px_overflow_rejected(self):
        raw = {"detections": [{"bbox": [0, 0, 113, 47], "caption": "mug"}]}
        with pytest.raises(SchemaError) as err:
            _validate("detect", raw, (64, 48))
        assert "$.frames[0].detections[0].bbox" in str(err.value)

    def test_bbox_three_px_overflow_rejected(self):
        raw = {"detections": [{"bbox": [0, 0, 66, 40], "caption": "m"}]}
        with pytest.raises(SchemaError):
            _validate("detect", raw, (64, 48))

    def test_inverted_bbox_rejected(self):
        raw = {"detections": [{"bbox": [10, 0, 5, 40], "caption": "m"}]}
        with pytest.raises(SchemaError):
            _validate("detect", raw, (64, 48))

    def test_empty_caption_rejected(self):
        raw = {"detections": [{"bbox": [0, 0, 5, 5], "caption": "  "}]}
        with pytest.raises(SchemaError) as err:
            _validate("detect", raw, (64, 48))
        assert "caption" in str(err.value)

    def test_mask_run_outside_frame_rejected(self):
        raw = {"detections": [{"bbox": [0, 0, 5, 5], "caption": "m",
                               "mask_runs": [[50, 0, 5]]}]}
        with pytest.raises(SchemaError):
            _validate("detect", raw, (64, 48))

    def test_consolidate_sentence(self):
        assert validate_response("consolidate", {"sentence": "a mug"}).sentence == "a mug"
        with pytest.raises(SchemaError):
            validate_response("consolidate", {"sentence": ""})

    def test_malformed_top_level_rejected(self):
        with pytest.raises(SchemaError):
            validate_response("detect", ["not", "an", "object"])
        with pytest.raises(SchemaError):
            validate_response("detect", {"wrong_key": []})

    def test_detect_items_follow_their_frames(self):
        """One item per listed frame, in order, each checked against its
        own frame's size."""
        wide = {"detections": [{"bbox": [0, 0, 100, 47], "caption": "sofa"}]}
        out = validate_response("detect", {"frames": [{"detections": []}, wide]},
                                ((64, 48), (128, 96)))
        assert [len(item.objects) for item in out] == [0, 1]
        assert out[1].objects[0].bbox == (0, 0, 100, 47)
        assert all(item.error is None for item in out)
        (narrow,) = validate_response("detect", {"frames": [wide]}, ((64, 48),))
        assert narrow.objects == ()
        assert narrow.error.path == "$.frames[0].detections[0].bbox"

    def test_malformed_or_error_item_fails_its_frame_only(self):
        good = {"detections": [{"bbox": [0, 0, 3, 3], "caption": "mug"}]}
        raw = {"frames": [good, {"detections": [{"bbox": [0, 0, 3, 3]}]},
                          {"error": "model overloaded"}, 7, {"error": 3}, good]}
        out = validate_response("detect", raw, ((64, 48),) * 6)
        assert out[0] == out[5] and out[0].objects[0].caption == "mug"
        assert isinstance(out[1].error, SchemaError)
        assert out[1].error.path == "$.frames[1].detections[0].caption"
        assert str(out[2].error) == "$.frames[2].error: model overloaded"
        assert not isinstance(out[2].error, SchemaError)
        assert out[3].error.path == "$.frames[3]"
        assert out[4].error.path == "$.frames[4].error"
        assert all(item.objects == () for item in out[1:5])

    @pytest.mark.parametrize("items", [0, 1, 3])
    def test_wrong_item_count_fails_the_whole_reply(self, items):
        raw = {"frames": [{"detections": []}] * items}
        with pytest.raises(SchemaError) as err:
            validate_response("detect", raw, (None, None))
        assert err.value.path == "$.frames"
        assert f"expected 2 items, one per listed frame, got {items}" in str(err.value)

    def test_analyze_shape(self):
        raw = {"new_objects": [{"bbox": [0, 0, 3, 3], "caption": "c", "note": "n"}],
               "notes": [{"node_id": 4, "note": "hello"}]}
        out = _validate("analyze", raw, (64, 48))
        assert out.new_objects[0].note == "n"
        assert out.notes == ((4, "hello"),)

    def test_reason_requires_exactly_one_of_action_answer(self):
        with pytest.raises(SchemaError):
            validate_response("reason", {})
        with pytest.raises(SchemaError):
            validate_response("reason", {
                "action": {"api": "analyze_frame", "frame_id": 0, "query": "q"},
                "final_answer": "x", "evidence_frames": [], "evidence_notes": []})

    def test_reason_action_parsed(self):
        out = validate_response("reason", {
            "action": {"api": "analyze_objects", "frame_id": 3, "query": "q",
                       "node_ids": [1, 2]}})
        assert isinstance(out, ApiCall)
        assert out.node_ids == (1, 2)

    def test_reason_node_ids_only_for_analyze_objects(self):
        with pytest.raises(SchemaError):
            validate_response("reason", {
                "action": {"api": "analyze_frame", "frame_id": 0, "query": "q",
                           "node_ids": [1]}})
        with pytest.raises(SchemaError):
            validate_response("reason", {
                "action": {"api": "analyze_objects", "frame_id": 0, "query": "q"}})

    def test_reason_answer_parsed(self):
        out = validate_response("reason", {
            "final_answer": "blue", "evidence_frames": [3],
            "evidence_notes": [[0, 1]]})
        assert isinstance(out, ReasonAnswer)
        assert out.evidence_notes == ((0, 1),)

    def test_unknown_api_rejected(self):
        with pytest.raises(SchemaError):
            validate_response("reason", {
                "action": {"api": "teleport", "frame_id": 0, "query": "q"}})

    def test_room_label_scores(self):
        out = validate_response("room_label", {"scores": [[0.1, 0.9], [1, 0]]})
        assert out.scores == ((0.1, 0.9), (1.0, 0.0))
        assert validate_response("room_label", {"scores": []}).scores == ()
        with pytest.raises(SchemaError):
            validate_response("room_label", {"scores": [["high"]]})

    @pytest.mark.parametrize("text", [
        '{"scores": [[NaN, 1.0], [Infinity, 0.0]]}',
        '{"scores": [[0.5, -Infinity]]}',
        '{"scores": [[1e400, 0.0]]}',
        '{"scores": [[1%s, 0.0]]}' % ("0" * 400)],
        ids=["nan-and-inf", "minus-inf", "1e400", "int-beyond-float"])
    def test_room_label_non_finite_score_rejected(self, text):
        """A NaN score would win label_rooms' argmax over a real 1.0; the
        reply is refused at the row that holds it."""
        with pytest.raises(SchemaError) as err:
            validate_response("room_label", json.loads(text))
        assert err.value.path == "$.scores[0]"

    def test_detect_fov_tag(self):
        raw = {"detections": []}
        assert _validate("detect", raw).fov_tag is None
        out = _validate("detect", {**raw, "fov_tag": "view of hall: empty"})
        assert out.fov_tag == "view of hall: empty"

    def test_detect_room_scores(self):
        raw = {"detections": []}
        assert _validate("detect", raw).room_scores is None
        out = _validate("detect", {**raw, "room_scores": [0, 0.5, 1]})
        assert out.room_scores == (0.0, 0.5, 1.0)
        assert all(type(x) is float for x in out.room_scores)
        assert _validate("detect", {**raw, "room_scores": []}).room_scores == ()

    @pytest.mark.parametrize("scores", ['["high"]', "[0.5, true]", "0.5", "null",
                                        "[NaN]", "[1, Infinity]", "[1e999]"])
    def test_malformed_room_scores_fail_their_frame_only(self, scores):
        """A bad score row fails its own frame, with its detections, at the
        row's path (or the bad entry's); the other frames keep theirs."""
        good = {"detections": [{"bbox": [0, 0, 3, 3], "caption": "mug"}],
                "room_scores": [1.0, 0.0]}
        bad = {**good, "room_scores": json.loads(scores)}
        out = validate_response("detect", {"frames": [good, bad, good]}, (None,) * 3)
        assert out[0] == out[2] and out[0].room_scores == (1.0, 0.0)
        assert out[1].error.path.startswith("$.frames[1].room_scores")
        assert (out[1].objects, out[1].room_scores) == ((), None)

    def test_detect_relations_name_detections(self):
        """A detect item's relation rows name its detections by index, so
        each index must be below the number of detections."""
        raw = {"detections": [self._WIRE, self._WIRE]}
        assert _validate("detect", raw).relations == ()
        row = {"subject_id": 1, "object_id": 0, "relation": "on_top_of",
               "justification": "j"}
        out = _validate("detect", {**raw, "relations": [row]})
        assert [(r.subject_id, r.object_id, r.relation) for r in out.relations] \
            == [(1, 0, "on_top_of")]
        assert _validate("detect", {**raw, "relations": []}).relations == ()
        # the relations reply's rows name nodes, which have no such bound
        far = {**row, "subject_id": 7}
        assert validate_response("relations", {"relations": [far]}).relations
        with pytest.raises(SchemaError) as err:
            _validate("detect", {**raw, "relations": [row, far]})
        assert err.value.path == "$.frames[0].relations[1].subject_id"

    def test_embedding_must_be_numbers(self):
        raw = {"detections": [{"bbox": [0, 0, 3, 3], "caption": "c",
                               "visual_embedding": [0.1, "x"]}]}
        with pytest.raises(SchemaError):
            _validate("detect", raw, (64, 48))

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [], [float("nan")],
                                        [1.0, float("inf")], [1e200, 1e200]])
    @pytest.mark.parametrize("kind,items,key", [
        ("detect", "detections", "visual_embedding"),
        ("detect", "detections", "language_embedding"),
        ("analyze", "new_objects", "visual_embedding")])
    def test_unnormalizable_embedding_rejected(self, kind, items, key, vector):
        """A vector with a zero or non-finite norm would make the engine's
        Embedding raise mid-build; validation rejects it instead."""
        raw = {items: [{"bbox": [0, 0, 3, 3], "caption": "c", key: vector}]}
        if kind == "analyze":
            raw["notes"] = []
        with pytest.raises(SchemaError) as err:
            _validate(kind, raw, (64, 48))
        base = "$.frames[0]" if kind == "detect" else "$"
        assert err.value.path == f"{base}.{items}[0].{key}"

    @pytest.mark.parametrize("kind,items,key", [
        ("detect", "detections", "visual_embedding"),
        ("detect", "detections", "language_embedding"),
        ("analyze", "new_objects", "visual_embedding")])
    def test_embedding_of_wrong_length_rejected(self, kind, items, key):
        raw = {items: [{"bbox": [0, 0, 3, 3], "caption": "c", key: [1.0, 0.0, 0.0]}]}
        if kind == "analyze":
            raw["notes"] = []
        assert _validate(kind, raw, (64, 48), embedding_dim=3)
        with pytest.raises(SchemaError) as err:
            _validate(kind, raw, (64, 48), embedding_dim=64)
        base = "$.frames[0]" if kind == "detect" else "$"
        assert err.value.path == f"{base}.{items}[0].{key}"

    _WIRE = {"bbox": [0, 0, 3, 3], "caption": "c"}
    _ROW = {"subject_id": 0, "object_id": 1, "relation": "on_top_of",
            "justification": ""}

    @pytest.mark.parametrize("kind,raw,path", [
        ("detect", {"detections": [{**_WIRE, "bbox": [0, 0, "3", 3]}]},
         "$.frames[0].detections[0].bbox"),
        ("detect", {"detections": [{**_WIRE, "bbox": [0, 0, 3]}]},
         "$.frames[0].detections[0].bbox"),
        ("detect", {"detections": [{**_WIRE, "bbox": [0, False, 3, 3]}]},
         "$.frames[0].detections[0].bbox"),
        ("detect", {"detections": [{**_WIRE, "bbox": "0 0 3 3"}]},
         "$.frames[0].detections[0].bbox"),
        ("detect", {"detections": [{**_WIRE, "mask_runs": 5}]},
         "$.frames[0].detections[0].mask_runs"),
        ("detect", {"detections": [{**_WIRE, "mask_runs": [[0, 1]]}]},
         "$.frames[0].detections[0].mask_runs[0]"),
        ("detect", {"detections": [{**_WIRE, "mask_runs": [[0, 0, 1], [1, True, 2]]}]},
         "$.frames[0].detections[0].mask_runs[1]"),
        ("detect", {"detections": [_WIRE, {**_WIRE, "visual_embedding": [0.1, "x"]}]},
         "$.frames[0].detections[1].visual_embedding[1]"),
        ("detect", {"detections": [{**_WIRE, "visual_embedding": [True]}]},
         "$.frames[0].detections[0].visual_embedding[0]"),
        ("detect", {"detections": [{**_WIRE, "language_embedding": "abc"}]},
         "$.frames[0].detections[0].language_embedding"),
        ("analyze", {"new_objects": [{**_WIRE, "language_embedding": [None]}],
                     "notes": []}, "$.new_objects[0].language_embedding[0]"),
        ("room_label", {"scores": [["high"]]}, "$.scores[0][0]"),
        ("room_label", {"scores": [[0.1, True]]}, "$.scores[0][1]"),
        ("room_label", {"scores": 0.1}, "$.scores"),
        ("reason", {"action": {"api": "analyze_objects", "frame_id": 0, "query": "q",
                               "node_ids": "1"}}, "$.action.node_ids"),
        ("reason", {"action": {"api": "analyze_objects", "frame_id": 0, "query": "q",
                               "node_ids": [1, "2"]}}, "$.action.node_ids"),
        ("reason", {"action": {"api": "analyze_objects", "frame_id": 0, "query": "q",
                               "node_ids": [True]}}, "$.action.node_ids"),
        ("reason", {"final_answer": "a", "evidence_frames": [0, "1"],
                    "evidence_notes": []}, "$.evidence_frames"),
        ("reason", {"final_answer": "a", "evidence_frames": 0,
                    "evidence_notes": []}, "$.evidence_frames"),
        ("reason", {"final_answer": "a", "evidence_frames": [0],
                    "evidence_notes": [[0, 1], [0]]}, "$.evidence_notes[1]"),
        ("reason", {"final_answer": "a", "evidence_frames": [0],
                    "evidence_notes": [[0, 1.5]]}, "$.evidence_notes[0]"),
        ("room_label", {"scores": [[0.1, 0.2], [0.1, True]]}, "$.scores[1][1]"),
        ("room_label", {"scores": [0.1]}, "$.scores[0]"),
        ("detect", {"detections": [], "fov_tag": 3}, "$.frames[0].fov_tag"),
        ("detect", {"detections": [], "fov_tag": None}, "$.frames[0].fov_tag"),
        ("detect", {"detections": [], "fov_tag": ["view"]}, "$.frames[0].fov_tag"),
        ("detect", {"detections": [], "relations": None}, "$.frames[0].relations"),
        ("detect", {"detections": [_WIRE], "relations": [_ROW]},
         "$.frames[0].relations[0].object_id"),
        ("detect", {"detections": [_WIRE] * 2, "relations": [{**_ROW, "object_id": -1}]},
         "$.frames[0].relations[0].object_id"),
        ("detect", {"detections": [_WIRE] * 2, "relations": [{**_ROW, "object_id": 0}]},
         "$.frames[0].relations[0]"),
        ("detect", {"detections": [_WIRE] * 2, "relations": [{**_ROW, "relation": "x"}]},
         "$.frames[0].relations[0].relation"),
        ("detect", {"detections": [_WIRE] * 2, "relations": [{**_ROW, "subject_id": "0"}]},
         "$.frames[0].relations[0].subject_id"),
    ])
    def test_array_faults_name_their_path(self, kind, raw, path):
        with pytest.raises(SchemaError) as err:
            _validate(kind, raw, (64, 48))
        assert err.value.path == path


class _FlakyBackend(Backend):
    """Fails transport n times, then succeeds; or returns garbage."""

    def __init__(self, transport_failures=0, garbage=False):
        super().__init__()
        self.transport_failures = transport_failures
        self.garbage = garbage
        self.raw_calls = 0

    def raw_call(self, request):
        self.raw_calls += 1
        if self.raw_calls <= self.transport_failures:
            raise TransportError("flaky")
        if self.garbage:
            return {"nonsense": 1}
        return {"sentence": "ok"}


class TestRetryPolicy:
    def test_single_transport_failure_retried(self):
        backend = _FlakyBackend(transport_failures=1)
        out = backend.call(BackendRequest(kind="consolidate",
                                          payload={"captions": ["a"]}))
        assert out.sentence == "ok"
        assert backend.raw_calls == 2

    def test_two_transport_failures_raise(self):
        backend = _FlakyBackend(transport_failures=2)
        with pytest.raises(TransportError):
            backend.call(BackendRequest(kind="consolidate"))
        assert backend.raw_calls == 2  # exactly one retry

    def test_schema_failure_never_retried(self):
        backend = _FlakyBackend(garbage=True)
        with pytest.raises(SchemaError):
            backend.call(BackendRequest(kind="consolidate"))
        assert backend.raw_calls == 1

    def test_call_counts_count_each_round_trip(self, small_scene):
        backend = ScriptedBackend(small_scene)
        backend.fail("fov")
        backend.call(BackendRequest(kind="fov", frame_id=0))
        assert backend.call_counts["fov"] == 2  # the failure and its retry

    def test_call_counts_tracked(self):
        backend = _FlakyBackend()
        backend.call(BackendRequest(kind="consolidate"))
        backend.call(BackendRequest(kind="consolidate"))
        assert backend.call_counts["consolidate"] == 2
        assert backend.call_counts["detect"] == 0


def _true_pairs(scene, frame_id) -> set[tuple[str, str, str]]:
    """(subject caption, object caption, relation) of every true relation
    whose two objects the frame shows."""
    shown = {d.object_index for d in scene.gt_detections(frame_id)}
    return {(scene.objects[r.subject_index].caption,
             scene.objects[r.object_index].caption, r.relation)
            for r in scene.relations
            if r.subject_index in shown and r.object_index in shown}


class TestScriptedBackend:
    def test_detect_returns_ground_truth(self, small_scene):
        backend = ScriptedBackend(small_scene)
        (out,) = backend.call(_detect(0))
        truth = small_scene.gt_detections(0)
        assert len(out.objects) == len(truth)
        assert {o.caption for o in out.objects} \
            == {small_scene.objects[d.object_index].caption for d in truth}

    def test_detect_scores_the_camera_room(self, small_scene):
        """Each detect item scores the request's classes for the scene room
        holding the camera: 1 for its label, 0 elsewhere; a request listing
        no classes gets an empty row."""
        backend = ScriptedBackend(small_scene)
        classes = sorted({spec.label for spec in small_scene.rooms}) + ["attic"]
        frames = small_scene.episode().frame_ids
        out = backend.call(BackendRequest(kind="detect", payload={
            "frames": [[f, False] for f in frames], "classes": classes}))
        for fid, item in zip(frames, out):
            room = backend._camera_room(fid)
            assert room is not None
            assert item.room_scores == tuple(float(c == room.label) for c in classes)
            assert item.fov_tag.startswith(f"view of {room.label}: ")
        assert {backend._camera_room(f).index for f in frames} \
            == {spec.index for spec in small_scene.rooms}
        (bare,) = backend.call(_detect(0))
        assert bare.room_scores == ()

    def test_query_filters_to_relevant_objects(self, small_scene):
        backend = ScriptedBackend(small_scene)
        target = small_scene.objects[0]
        fid = next(f for f in range(small_scene.frame_count)
                   if target.index in small_scene.visible_objects(f))
        out = backend.call(_find(fid, f"find the {target.caption}"))
        assert any(o.caption == target.caption for o in out.new_objects)

    def test_unmatched_specific_query_empty(self, small_scene):
        backend = ScriptedBackend(small_scene)
        out = backend.call(_find(0, "mug"))
        assert out.new_objects == ()

    def test_detect_relations_among_returned_detections(self, small_scene):
        """Asked for relations, a detect item names the true relations
        among the detections it returns, after the miss draws, and draws
        nothing more."""
        fid = next(f for f in range(small_scene.frame_count)
                   if _true_pairs(small_scene, f))
        plain, asked = _detect(fid), _detect(fid, relations=True)

        def item(backend, request):
            (doc,) = backend.raw_call(request)["frames"]
            return doc

        assert "relations" not in item(ScriptedBackend(small_scene), plain)
        full = item(ScriptedBackend(small_scene), asked)
        captions = [d["caption"] for d in full["detections"]]
        assert {(captions[r["subject_id"]], captions[r["object_id"]], r["relation"])
                for r in full["relations"]} == _true_pairs(small_scene, fid)
        for seed in range(20):
            missing = ScriptedBackend(small_scene, miss_prob=0.5, seed=seed)
            reply = item(missing, asked)
            again = ScriptedBackend(small_scene, miss_prob=0.5, seed=seed)
            assert item(again, plain)["detections"] == reply["detections"]
            assert item(missing, plain) == item(again, plain)  # the same draws
            captions = [d["caption"] for d in reply["detections"]]
            assert {(captions[r["subject_id"]], captions[r["object_id"]],
                     r["relation"]) for r in reply["relations"]} \
                == {(s, o, rel) for s, o, rel in _true_pairs(small_scene, fid)
                    if s in captions and o in captions}

    def test_relations_empty_for_no_visible_pairs(self, small_scene):
        backend = ScriptedBackend(small_scene)
        out = backend.call(BackendRequest(kind="relations", frame_id=0,
                                          payload={"visible": []}))
        assert out.relations == ()

    def test_identical_request_sequences_identical_responses(self, small_scene):
        req_seq = [_detect(f % small_scene.frame_count) if f % 2
                   else _find(f % small_scene.frame_count, "all objects")
                   for f in range(8)]
        a = ScriptedBackend(small_scene, miss_prob=0.3, seed=5)
        b = ScriptedBackend(small_scene, miss_prob=0.3, seed=5)
        for req in req_seq:
            assert a.raw_call(req) == b.raw_call(req)

    def test_replies_do_not_depend_on_call_order(self, small_scene):
        """A miss draw is keyed on what is asked: detect items for every
        frame and discovering analyze requests over two queries, sent in
        list order to one backend and shuffled to another with the same
        seed, get the same reply each."""
        frames = range(small_scene.frame_count)
        requests = [_detect(f) for f in frames] + [
            _find(f, query) for query in ("all objects", "find the table")
            for f in frames]
        shuffled = list(range(len(requests)))
        random.Random(0).shuffle(shuffled)
        ordered = ScriptedBackend(small_scene, miss_prob=0.5, seed=7)
        replies = [ordered.raw_call(request) for request in requests]
        other = ScriptedBackend(small_scene, miss_prob=0.5, seed=7)
        for i in shuffled:
            assert other.raw_call(requests[i]) == replies[i]
        clean = ScriptedBackend(small_scene)
        assert sum(clean.raw_call(r) != reply
                   for r, reply in zip(requests, replies)) > len(requests) // 2

    def test_miss_probability_one_misses_everything(self, small_scene):
        backend = ScriptedBackend(small_scene, miss_prob=1.0, seed=7)
        for f in range(small_scene.frame_count):
            assert backend.call(_detect(f))[0].objects == ()
            assert backend.call(_find(f, "all objects")).new_objects == ()

    def test_miss_probability_binomial(self, small_scene):
        """Mean detections over many trials matches n*p within a generous
        binomial interval."""
        fid = 0
        n_objects = len(small_scene.gt_detections(fid))
        assert n_objects >= 2
        backend = ScriptedBackend(small_scene, miss_prob=0.5, seed=9)
        trials = 500
        total = sum(len(backend.raw_call(_detect(fid))["frames"][0]["detections"])
                    for _ in range(trials))
        mean = total / trials
        expect = n_objects * 0.5
        # 99% CI half-width for the mean of binomial(n_objects, 0.5)
        half = 2.58 * np.sqrt(n_objects * 0.25 / trials)
        assert abs(mean - expect) <= half

    def test_unknown_frame_errors(self, small_scene):
        backend = ScriptedBackend(small_scene)
        with pytest.raises(Exception):
            backend.call(_detect(999))

    def test_fail_hook_transport_then_recovers(self, small_scene):
        backend = ScriptedBackend(small_scene)
        backend.fail("detect", times=2)
        with pytest.raises(TransportError):
            backend.call(_detect(0))
        (out,) = backend.call(_detect(0))
        assert out.objects

    def test_fail_hook_schema_mode(self, small_scene):
        backend = ScriptedBackend(small_scene)
        backend.fail("detect", times=1, mode="schema")
        with pytest.raises(SchemaError):
            backend.call(_detect(0))

    def test_fail_hook_item_mode(self, small_scene):
        """Mode "item" answers the next listed frames with error items, in
        list order, and the other frames as usual."""
        backend = ScriptedBackend(small_scene)
        backend.fail("detect", times=2, mode="item")
        request = BackendRequest(kind="detect",
                                 payload={"frames": [[0, False], [1, False], [2, False]]})
        out = backend.call(request)
        assert [str(item.error) for item in out[:2]] == [
            f"$.frames[{i}].error: scripted detect failure on frame {i}" for i in (0, 1)]
        (clean,) = ScriptedBackend(small_scene).call(_detect(2))
        assert out[2] == clean
        assert backend.call(request)[0].error is None  # the plan is used up
        with pytest.raises(ValueError):
            backend.fail("analyze", mode="item")

    @pytest.mark.parametrize("kind,mode,named", [
        ("analyse", "transport", "unknown request kind 'analyse'"),
        ("detect", "transprot", "unknown failure mode 'transprot'"),
        ("", "schema", "unknown request kind ''")])
    def test_fail_hook_refuses_unknown_kind_or_mode(self, small_scene, kind, mode, named):
        """A misspelt kind would never fire and a misspelt mode would answer
        with a malformed body, so both are refused, and no call fails."""
        backend = ScriptedBackend(small_scene)
        with pytest.raises(ValueError, match=f"^{named}$"):
            backend.fail(kind, mode=mode)
        assert backend.call(_detect(0))[0].error is None


class TestRecordReplay:
    def test_replay_reproduces_responses_byte_identically(self, small_scene, tmp_path):
        log = tmp_path / "log.jsonl"
        inner = ScriptedBackend(small_scene, miss_prob=0.2, seed=4)
        recorder = RecordingBackend(inner, log)
        requests = [_detect(f) for f in range(small_scene.frame_count)]
        recorded = [recorder.raw_call(r) for r in requests]
        replayer = ReplayBackend(log)
        replayed = [replayer.raw_call(r) for r in requests]
        assert json.dumps(recorded, sort_keys=True) \
            == json.dumps(replayed, sort_keys=True)

    def test_replay_mismatch_detected(self, small_scene, tmp_path):
        """A mismatch is not a transport fault: the log will not change, so
        the call is not retried."""
        log = tmp_path / "log.jsonl"
        recorder = RecordingBackend(ScriptedBackend(small_scene), log)
        recorder.raw_call(_detect(0))
        replayer = ReplayBackend(log)
        with pytest.raises(BackendError, match="replay mismatch") as err:
            replayer.call(_detect(1))
        assert not isinstance(err.value, TransportError)
        assert replayer.call_counts["detect"] == 1

    def test_replayed_build_clamps_like_the_recorded_one(self, small_scene, tmp_path):
        """Bounds travel on the request, so a replayed detect response is
        clamped against the same frame as when it was recorded."""
        log = tmp_path / "build.jsonl"
        episode = small_scene.episode()
        recorded = serialize(build_ssm(
            episode, RecordingBackend(BorderOverflowBackend(small_scene), log),
            EngineConfig()))[0]
        w, h = small_scene.intrinsics.width, small_scene.intrinsics.height
        boxes = [d["bbox"] for line in log.read_text().splitlines()
                 for item in json.loads(line)["response"].get("frames", [])
                 for d in item["detections"]]
        assert any(u0 < 0 or v0 < 0 or u1 > w - 1 or v1 > h - 1
                   for u0, v0, u1, v1 in boxes)
        replayed = serialize(build_ssm(episode, ReplayBackend(log),
                                       EngineConfig()))[0]
        assert replayed == recorded

    def test_replay_exhaustion_detected(self, small_scene, tmp_path):
        log = tmp_path / "log.jsonl"
        RecordingBackend(ScriptedBackend(small_scene), log)
        replayer = ReplayBackend(log)
        with pytest.raises(BackendError, match="replay log exhausted") as err:
            replayer.call(_detect(0))
        assert not isinstance(err.value, TransportError)
        assert replayer.call_counts["detect"] == 1


class TestScriptReasoner:
    def test_steps_replay_in_order(self):
        reasoner = ScriptReasoner(scripts={"q": [
            {"action": {"api": "analyze_frame", "frame_id": 0, "query": "look"}},
            {"final_answer": "done", "evidence_frames": [0],
             "evidence_notes": [[0, 0]]},
        ]})
        payload = {"question": "q", "memory_json": "{}"}
        first = reasoner.decide(payload)
        second = reasoner.decide(payload)
        third = reasoner.decide(payload)  # script exhausted: repeats last
        assert "action" in first
        assert second["final_answer"] == "done"
        assert third == second

    def test_auto_evidence_resolution(self):
        memory = {"episode": {"frame_memory": {"frames": [7, 9]}},
                  "scratchpad": [{"node_id": 5, "notes": [{"text": "x"}]},
                                 {"node_id": 6, "notes": [{"text": "y"}]}]}
        reasoner = ScriptReasoner(scripts={"q": [
            {"final_answer": "a", "evidence": "auto"}]})
        out = reasoner.decide({"question": "q",
                               "memory_json": json.dumps(memory)})
        assert out["evidence_frames"] == [7]
        assert out["evidence_notes"] == [[5, 0]]


class TestRuleReasoner:
    def test_room_falls_back_to_the_first_labelled_nav_row(self):
        """A track without a room label takes the label of the first
        navigation-log row, in episode order, that shows it and is not
        "unknown"; a track only seen from unknown rooms has no answer, and
        a track's own label wins."""
        ssm = SceneMemory.empty("s", 1, [0, 5, 10, 15])
        for tid, caption, label, frames in ((0, "red mug", None, (5, 10, 15)),
                                            (1, "blue vase", None, (5,)),
                                            (2, "black chair", None, (15, 10)),
                                            (3, "green lamp", "bedroom", (5,))):
            room = None if label is None else "floor0/0"  # a label needs a room
            ssm.graph.insert_track(Track(id=tid, cloud=None, visual=None, language=None,
                                         caption=caption, caption_history=(caption,),
                                         room_id=room, floor_id=room and "floor0",
                                         room_label=label, visible_frames=frames))
        ssm.nav_log = [NavLogEntry(fid, label, f"view {fid}", "stationary") for fid, label
                       in ((0, "kitchen"), (5, "unknown"), (10, "office"), (15, "hall"))]
        ssm.frame_memory = init_frame_memory(list(ssm.frame_ids), 2)
        memory = _read_memory({"memory_json": serialize(ssm)[0]})
        derive = RuleReasoner._derive
        assert derive("room", "red mug", memory) == ("office", [0])
        assert derive("room", "blue vase", memory) == (None, [1])
        assert derive("room", "black chair", memory) == ("office", [2])
        assert derive("room", "green lamp", memory) == ("bedroom", [3])


def test_iou_basics():
    assert _iou((0, 0, 9, 9), (0, 0, 9, 9)) == 1.0
    assert _iou((0, 0, 4, 4), (10, 10, 12, 12)) == 0.0
    assert 0.0 < _iou((0, 0, 9, 9), (5, 0, 14, 9)) < 1.0


def test_request_kind_validated():
    with pytest.raises(ValueError):
        BackendRequest(kind="telepathy")


def test_frame_size_stays_off_the_wire():
    payload = {"frames": [[3, False], [4, True]]}
    plain = BackendRequest(kind="detect", query="q", payload=payload)
    sized = BackendRequest(kind="detect", query="q", payload=payload,
                           frame_sizes=((64, 48), (64, 48)))
    assert plain.frame_sizes == (None, None)
    assert sized.to_doc() == plain.to_doc()
    assert sized.digest() == plain.digest()
    assert sized == plain
