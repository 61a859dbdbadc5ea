"""The shipped JSON schema files must accept what the engine actually
produces (and reject structural corruption), so the docs cannot drift."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from scenemem import (ApiCall, ApiExecutor, EngineConfig, build_ssm,  # noqa: E402
                      serialize)
from scenemem.backend import BackendRequest  # noqa: E402
from scenemem.scripted import ScriptedBackend  # noqa: E402

from test_memory import golden_one_track, random_ssm  # noqa: E402

DOCS = Path(__file__).parent.parent / "docs"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def memory_schema():
    return json.loads((DOCS / "scene_memory.schema.json").read_text())


@pytest.fixture(scope="module")
def protocol_schema():
    return json.loads((DOCS / "backend_protocol.schema.json").read_text())


class TestMemorySchema:
    def test_golden_memory_validates(self, memory_schema):
        doc = json.loads(serialize(golden_one_track())[0])
        jsonschema.validate(doc, memory_schema)

    @pytest.mark.parametrize("name", ["empty_ssm.json", "one_track_ssm.json"])
    def test_golden_files_validate(self, memory_schema, name):
        jsonschema.validate(json.loads((GOLDEN / name).read_text()), memory_schema)

    def test_random_memories_validate(self, memory_schema):
        for seed in range(10):
            doc = json.loads(serialize(random_ssm(seed))[0])
            jsonschema.validate(doc, memory_schema)

    def test_built_memory_validates(self, memory_schema, small_build):
        _, _, _, ssm = small_build
        jsonschema.validate(json.loads(serialize(ssm)[0]), memory_schema)

    def test_schema_rejects_bad_relation(self, memory_schema):
        doc = json.loads(serialize(golden_one_track())[0])
        doc["scene_graph"]["edges"]["rows"] = [[0, "next_to", 0, "", 0]]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["scene_graph"]["tracks"]["rows"][0].pop(),
        lambda doc: doc["scene_graph"]["tracks"]["rows"][0].append(None),
        lambda doc: doc["navigation_log"]["rows"][1].pop(),
        lambda doc: doc["scene_graph"]["edges"]["rows"].append([0, "on_top_of", 0, ""]),
    ])
    def test_schema_rejects_ragged_row(self, memory_schema, edit):
        doc = json.loads(serialize(golden_one_track())[0])
        edit(doc)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)

    @pytest.mark.parametrize("cell", [0, -1, True, 1.5, None])
    def test_schema_rejects_bad_history_cell(self, memory_schema, cell):
        """A caption_history cell is a string or a run length of at least 1."""
        doc = json.loads(serialize(golden_one_track())[0])
        doc["scene_graph"]["tracks"]["rows"][0][2] = ["chipped mug", cell]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)

    def test_schema_rejects_other_columns_and_versions(self, memory_schema):
        doc = json.loads(serialize(golden_one_track())[0])
        doc["navigation_log"]["columns"].reverse()
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)
        for version in (None, 1, 2, 3):
            doc = json.loads(serialize(golden_one_track())[0])
            doc["version"] = version
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(doc, memory_schema)

    def test_schema_rejects_empty_notes(self, memory_schema):
        doc = json.loads(serialize(golden_one_track())[0])
        doc["scratchpad"][0]["notes"] = []
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)

    def test_schema_rejects_missing_section(self, memory_schema):
        doc = json.loads(serialize(golden_one_track())[0])
        del doc["scratchpad"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)


def _response_schema(protocol_schema: dict, kind: str) -> dict:
    # re-root the shared definitions so "#/definitions/..." refs resolve, and
    # keep the draft the file declares
    return {"$schema": protocol_schema["$schema"],
            "definitions": protocol_schema["definitions"],
            **protocol_schema["responses"][kind]}


def _request_schema(protocol_schema: dict) -> dict:
    return {"$schema": protocol_schema["$schema"], **protocol_schema["request"]}


class TestProtocolSchema:
    def test_scripted_responses_validate(self, protocol_schema, small_scene):
        """Every response kind the scripted backend emits fits its schema."""
        backend = ScriptedBackend(small_scene)
        targets = [{"node_id": 0, "bbox": [0, 0, 10, 10], "caption": "x"}]
        requests = {
            "detect": BackendRequest(kind="detect",
                                     payload={"frames": [[0, False]],
                                              "classes": ["kitchen", "hall"]}),
            "relations": BackendRequest(kind="relations", frame_id=0,
                                        payload={"visible": targets}),
            "consolidate": BackendRequest(kind="consolidate",
                                          payload={"captions": ["a", "a"]}),
            "analyze": BackendRequest(kind="analyze", frame_id=0, query="q",
                                      payload={"targets": targets,
                                               "discover": True}),
            "fov": BackendRequest(kind="fov", frame_id=0),
            "room_label": BackendRequest(kind="room_label",
                                         payload={"rooms": [["a"], ["b", "c"]],
                                                  "classes": ["kitchen", "hall"]}),
        }
        for kind, request in requests.items():
            raw = backend.raw_call(request)
            jsonschema.validate(raw, _response_schema(protocol_schema, kind))
            jsonschema.validate(request.to_doc(), _request_schema(protocol_schema))
        # the build's detect item carries the frame's fov tag
        assert backend.raw_call(requests["detect"])["frames"][0]["fov_tag"] \
            == backend.raw_call(requests["fov"])["tag"]
        # and one score per listed room class
        assert len(backend.raw_call(requests["detect"])["frames"][0]["room_scores"]) == 2
        assert len(backend.raw_call(requests["room_label"])["scores"]) == 2

    def test_due_frame_detect_validates(self, protocol_schema, small_scene):
        """A build's detect request asks for relations on its edge-discovery
        frames, and the rows of those frames' items fit the schema."""
        backend = ScriptedBackend(small_scene)
        request = BackendRequest(kind="detect",
                                 payload={"frames": [[0, True], [1, False]]})
        reply = backend.raw_call(request)
        due, plain = reply["frames"]
        assert due["relations"] and due["detections"] and "relations" not in plain
        jsonschema.validate(request.to_doc(), _request_schema(protocol_schema))
        schema = _response_schema(protocol_schema, "detect")
        jsonschema.validate(reply, schema)
        for bad in ({**due["relations"][0], "relation": "near"},
                    {k: v for k, v in due["relations"][0].items()
                     if k != "justification"}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({"frames": [{**due, "relations": [bad]}, plain]},
                                    schema)
        for payload in ({"frames": [[0, "yes"]]}, {"frames": [[0]]}, {"frames": []},
                        {"relations": True}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**request.to_doc(), "payload": payload},
                                    _request_schema(protocol_schema))

    def test_find_objects_sends_a_targetless_analyze(self, protocol_schema,
                                                      small_build):
        """find_objects sends an analyze with empty targets that asks to
        discover, and it fits the schema with its reply; a detect, the
        build's request, asks no query."""
        scene, episode, _, ssm = small_build
        sent = []

        class Log(ScriptedBackend):
            def raw_call(self, request):
                sent.append(request)
                return super().raw_call(request)

        ApiExecutor(episode, Log(scene), EngineConfig()).execute(
            ApiCall("find_objects", 0, "describe all objects"), ssm)
        (request,) = sent
        assert (request.kind, request.payload) == ("analyze",
                                                   {"targets": [], "discover": True})
        jsonschema.validate(request.to_doc(), _request_schema(protocol_schema))
        jsonschema.validate(ScriptedBackend(scene).raw_call(request),
                            _response_schema(protocol_schema, "analyze"))
        detect = BackendRequest(kind="detect", payload={"frames": [[0, False]]})
        jsonschema.validate(detect.to_doc(), _request_schema(protocol_schema))
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**detect.to_doc(), "query": "find the mug"},
                                _request_schema(protocol_schema))

    def test_detect_fov_tag_must_be_a_string(self, protocol_schema):
        schema = _response_schema(protocol_schema, "detect")
        jsonschema.validate({"frames": [{"detections": [], "fov_tag": "view"}]}, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"frames": [{"detections": [], "fov_tag": 3}]}, schema)

    def test_detect_room_scores_are_numbers(self, protocol_schema):
        """An item's room_scores is an array of numbers, and the request
        lists the classes they score as strings."""
        schema = _response_schema(protocol_schema, "detect")
        jsonschema.validate({"frames": [{"detections": [], "room_scores": [0, 0.5]}]},
                            schema)
        for bad in (0.5, [["0.5"]], ["high"], [True], None):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({"frames": [{"detections": [], "room_scores": bad}]},
                                    schema)
        request = BackendRequest(kind="detect", payload={"frames": [[0, False]],
                                                         "classes": ["kitchen"]})
        jsonschema.validate(request.to_doc(), _request_schema(protocol_schema))
        for classes in ([], [3], "kitchen"):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**request.to_doc(), "payload": {
                    "frames": [[0, False]], "classes": classes}},
                    _request_schema(protocol_schema))

    def test_build_detect_request_validates(self, protocol_schema, small_scene):
        """The detect request a build sends, classes included, and its
        reply fit the schema."""
        sent = []

        class Log(ScriptedBackend):
            def raw_call(self, request):
                sent.append(request)
                return super().raw_call(request)

        build_ssm(small_scene.episode(), Log(small_scene), EngineConfig())
        (request,) = sent
        assert request.payload["classes"] == list(EngineConfig().room_classes)
        jsonschema.validate(request.to_doc(), _request_schema(protocol_schema))
        reply = ScriptedBackend(small_scene).raw_call(request)
        jsonschema.validate(reply, _response_schema(protocol_schema, "detect"))
        assert all(len(item["room_scores"]) == len(request.payload["classes"])
                   for item in reply["frames"])

    def test_detect_error_items_validate(self, protocol_schema, small_scene):
        """An error item fits the schema; an item that is neither detections
        nor an error does not."""
        backend = ScriptedBackend(small_scene)
        backend.fail("detect", mode="item")
        reply = backend.raw_call(BackendRequest(
            kind="detect", payload={"frames": [[0, False], [1, False]]}))
        schema = _response_schema(protocol_schema, "detect")
        jsonschema.validate(reply, schema)
        assert reply["frames"][0] == {"error": "scripted detect failure on frame 0"}
        for bad in ({}, {"error": 3}, []):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({"frames": [bad]}, schema)

    def test_room_label_scores_are_nested(self, protocol_schema):
        schema = _response_schema(protocol_schema, "room_label")
        jsonschema.validate({"scores": [[0.0, 1.0], [1.0, 0.0]]}, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"scores": [0.0, 1.0]}, schema)

    def test_reason_schema_accepts_both_forms(self, protocol_schema):
        action = {"action": {"api": "analyze_frame", "frame_id": 0,
                             "query": "look"}}
        final = {"final_answer": "x", "evidence_frames": [0],
                 "evidence_notes": [[0, 0]]}
        jsonschema.validate(action, _response_schema(protocol_schema, "reason"))
        jsonschema.validate(final, _response_schema(protocol_schema, "reason"))
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"neither": True},
                                _response_schema(protocol_schema, "reason"))
