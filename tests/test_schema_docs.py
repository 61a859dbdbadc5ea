"""The shipped JSON schema files must accept what the engine actually
produces (and reject structural corruption), so the docs cannot drift."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from scenemem import serialize  # noqa: E402
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

    def test_schema_rejects_other_columns_and_versions(self, memory_schema):
        doc = json.loads(serialize(golden_one_track())[0])
        doc["navigation_log"]["columns"].reverse()
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)
        for version in (None, 1):
            doc = json.loads(serialize(golden_one_track())[0])
            doc["version"] = version
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(doc, memory_schema)

    def test_schema_rejects_missing_section(self, memory_schema):
        doc = json.loads(serialize(golden_one_track())[0])
        del doc["scratchpad"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, memory_schema)


def _response_schema(protocol_schema: dict, kind: str) -> dict:
    # re-root the shared definitions so "#/definitions/..." refs resolve
    return {"definitions": protocol_schema["definitions"],
            **protocol_schema["responses"][kind]}


class TestProtocolSchema:
    def test_scripted_responses_validate(self, protocol_schema, small_scene):
        """Every response kind the scripted backend emits fits its schema."""
        backend = ScriptedBackend(small_scene)
        targets = [{"node_id": 0, "bbox": [0, 0, 10, 10], "caption": "x"}]
        requests = {
            "detect": BackendRequest(kind="detect", frame_id=0),
            "relations": BackendRequest(kind="relations", frame_id=0,
                                        payload={"visible": targets}),
            "consolidate": BackendRequest(kind="consolidate",
                                          payload={"captions": ["a", "a"]}),
            "analyze": BackendRequest(kind="analyze", frame_id=0, query="q",
                                      payload={"targets": targets,
                                               "discover": True}),
            "fov": BackendRequest(kind="fov", frame_id=0),
            "room_label": BackendRequest(kind="room_label",
                                         payload={"captions": ["a"],
                                                  "classes": ["kitchen"]}),
        }
        for kind, request in requests.items():
            raw = backend.raw_call(request)
            jsonschema.validate(raw, _response_schema(protocol_schema, kind))
            jsonschema.validate(request.to_doc(), protocol_schema["request"])

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
