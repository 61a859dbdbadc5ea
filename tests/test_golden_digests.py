"""Golden output digests: the engine's end-to-end outputs, pinned byte for byte.

Five configurations run on the 2x3 seed-7 scene, each with one fresh
``ScriptedBackend`` + ``RuleReasoner`` shared by the build and the batch.
Per configuration the sha256 of the canonical built memory, of each
answer's canonical ``to_doc()`` and of each answer's final memory must equal
``golden/output_digests.json``. A change that alters outputs on purpose
rewrites the file (``PYTHONPATH=src python tests/test_golden_digests.py``)
and says why in CHANGES.md; never compare with a tolerance. One more test
checks that the history each answer's last reason prompt carries is the
transcript these digests pin.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from scenemem import (EngineConfig, EpisodeQuery, RuleReasoner, ScriptedBackend,
                      answer, build_ssm, generate_questions, generate_scene,
                      run_episode_batch, serialize)
from scenemem.loop import write_transcript
from scenemem.memory import canonical_json

GOLDEN = Path(__file__).parent / "golden" / "output_digests.json"

# name -> (miss_prob, EngineConfig overrides)
CONFIGS = {
    "frame-miss0": (0.0, {"api_mode": "frame"}),
    "frame-miss0.6": (0.6, {"api_mode": "frame"}),
    "node-miss0.6": (0.6, {"api_mode": "node"}),
    "image-miss0": (0.0, {"api_mode": "image"}),
    "static-miss0.6": (0.6, {"api_mode": "frame", "max_api_calls": 0}),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(scene, miss_prob: float, overrides: dict) -> dict:
    cfg = EngineConfig(**overrides)
    episode = scene.episode()
    backend = ScriptedBackend(scene, RuleReasoner(), miss_prob=miss_prob)
    ssm = build_ssm(episode, backend, cfg)
    queries = [EpisodeQuery(q.question, cfg.max_api_calls, scene.scene_id)
               for q in generate_questions(scene)]
    batch = run_episode_batch(queries, ssm.copy, episode, backend, cfg)
    assert not batch.failures
    return {"memory": _sha(serialize(ssm)[0]),
            "answers": [_sha(canonical_json(a.to_doc())) for a in batch.answers],
            "final_memories": [_sha(serialize(a.final_memory)[0])
                               for a in batch.answers]}


def all_digests() -> dict:
    scene = generate_scene(2, 3, seed=7)
    return {name: output_digests(scene, p, o) for name, (p, o) in CONFIGS.items()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(small_scene, name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    miss_prob, overrides = CONFIGS[name]
    got = output_digests(small_scene, miss_prob, overrides)
    assert got == expected, (
        f"{name}: outputs differ from {GOLDEN.name} (numpy {np.__version__})")



class _PromptKeeper(ScriptedBackend):
    """The scripted oracle, keeping the payload of each reason request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reason_payloads: list[dict] = []

    def raw_call(self, request):
        if request.kind == "reason":
            self.reason_payloads.append(request.payload)
        return super().raw_call(request)


def test_prompt_history_is_the_pinned_transcript(small_scene, tmp_path):
    """The history the reasoner reads last is the transcript that the
    golden answer digests pin, and the transcript file's step lines are
    the same step documents."""
    miss_prob, overrides = CONFIGS["frame-miss0.6"]
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))["frame-miss0.6"]
    cfg = EngineConfig(**overrides)
    episode = small_scene.episode()
    backend = _PromptKeeper(small_scene, RuleReasoner(), miss_prob=miss_prob)
    ssm = build_ssm(episode, backend, cfg)
    questions = generate_questions(small_scene)
    assert len(questions) == len(expected["answers"])
    steps_seen = 0
    for q, digest in zip(questions, expected["answers"]):
        out = answer(EpisodeQuery(q.question, cfg.max_api_calls, small_scene.scene_id),
                     ssm.copy(), episode, backend, cfg)
        doc = out.to_doc()
        assert _sha(canonical_json(doc)) == digest
        assert backend.reason_payloads[-1]["history"] == doc["transcript"]
        path = tmp_path / "transcript.jsonl"
        write_transcript(out, path)
        steps = [json.loads(line) for line in path.read_text().splitlines()[:-1]]
        assert steps == doc["transcript"]
        steps_seen += len(steps)
    assert steps_seen  # the loop executed calls, so the histories are not all empty


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_digests(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
