"""Initial construction over synthetic episodes, graph metrics, evaluation
and whole-pipeline determinism (including record/replay)."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scenemem
from scenemem import (EngineConfig, RecordingBackend, ReplayBackend,
                      RuleReasoner, ScriptedBackend, build_ssm, evaluate,
                      generate_questions, generate_scene, recall_sweep,
                      serialize)
from scenemem.dataset import Episode
from scenemem.metrics import (graph_precision_recall, match_tracks,
                              normalize_answer, track_recall)
from scenemem.pipeline import BuildError


class TestBuildSsm:
    def test_perfect_backend_reconstructs_scene(self, small_build):
        scene, _, _, ssm = small_build
        assert graph_precision_recall(ssm, scene) == (1.0, 1.0, 1.0, 1.0)

    def test_all_structures_populated(self, small_build):
        scene, episode, _, ssm = small_build
        assert len(ssm.nav_log) == len(episode)
        assert [e.frame_id for e in ssm.nav_log] == episode.frame_ids
        assert len(ssm.frame_memory) == min(5, len(episode))
        assert ssm.frame_memory.initial_count == 5
        assert set(ssm.scratchpad) == set(ssm.graph.tracks)
        assert all(not notes for notes in ssm.scratchpad.values())
        assert ssm.floors is not None and ssm.rooms is not None

    def test_tracks_have_rooms_and_floors(self, small_build):
        scene, _, _, ssm = small_build
        truth = {o.caption: scene.room_label_of(o) for o in scene.objects}
        for track in ssm.graph.tracks.values():
            assert track.floor_id == "floor0"
            assert track.room_id is not None
            assert track.room_label == truth[track.caption]

    def test_empty_episode_errors(self, small_build):
        _, _, backend, _ = small_build
        with pytest.raises(BuildError):
            build_ssm(Episode("empty", []), backend, EngineConfig())

    def test_determinism_byte_identical(self):
        scene = generate_scene(2, 2, seed=31)
        texts = []
        for _ in range(2):
            backend = ScriptedBackend(scene, seed=5)
            ssm = build_ssm(scene.episode(), backend, EngineConfig())
            texts.append(serialize(ssm)[0])
        assert texts[0] == texts[1]

    def test_single_frame_failure_skips_frame(self):
        scene = generate_scene(2, 2, seed=32)
        backend = ScriptedBackend(scene)
        backend.fail("detect", times=2)  # one failure incl. the retry
        ssm = build_ssm(scene.episode(), backend, EngineConfig())
        assert ssm.nav_log[0].visible_node_ids == ()
        assert len(ssm.nav_log) == scene.frame_count
        # later frames still recover all objects
        assert track_recall(ssm, scene) == 1.0

    def test_unnormalizable_embedding_skips_frame(self, small_scene):
        """A detect answer whose embedding is all zeros fails validation,
        so its frame is skipped like any failed detect; the build used to
        abort inside Embedding."""
        class ZeroEmbedding(ScriptedBackend):
            def _handle_detect(self, request):
                doc = super()._handle_detect(request)
                if request.frame_id == 3:
                    for det in doc["detections"]:
                        det["visual_embedding"] = [0.0] * len(det["visual_embedding"])
                return doc

        assert small_scene.visible_objects(3)
        ssm = build_ssm(small_scene.episode(), ZeroEmbedding(small_scene),
                        EngineConfig())
        assert next(e for e in ssm.nav_log if e.frame_id == 3).visible_node_ids == ()
        assert all(3 not in t.visible_frames for t in ssm.graph.tracks.values())

    def test_embedding_of_wrong_length_skips_frame(self, small_scene):
        """A detect answer whose embedding is shorter than the engine's
        fails validation, so its frame is skipped; the build used to abort
        comparing it with the tracks' 64-entry vectors."""
        class ShortEmbedding(ScriptedBackend):
            def _handle_detect(self, request):
                doc = super()._handle_detect(request)
                if request.frame_id == 3:
                    for det in doc["detections"]:
                        det["visual_embedding"] = [1.0, 0.0, 0.0]
                return doc

        assert small_scene.visible_objects(3)
        ssm = build_ssm(small_scene.episode(), ShortEmbedding(small_scene),
                        EngineConfig())
        assert next(e for e in ssm.nav_log if e.frame_id == 3).visible_node_ids == ()
        assert all(3 not in t.visible_frames for t in ssm.graph.tracks.values())

    def test_self_relation_skips_edge_discovery(self, small_scene, caplog):
        """A relation from a node to itself fails validation, so that
        frame's edge discovery is skipped; the build used to abort inside
        RelationEdge."""
        class SelfRelation(ScriptedBackend):
            def _handle_relations(self, request):
                doc = super()._handle_relations(request)
                nid = request.payload["visible"][0]["node_id"]
                doc["relations"].append({"subject_id": nid, "object_id": nid,
                                         "relation": "on_top_of",
                                         "justification": "itself"})
                return doc

        with caplog.at_level("WARNING", logger="scenemem.pipeline"):
            ssm = build_ssm(small_scene.episode(), SelfRelation(small_scene),
                            EngineConfig())
        assert "edge discovery failed" in caplog.text
        assert ssm.graph.edges == []
        assert track_recall(ssm, small_scene) == 1.0

    def test_majority_frame_failures_abort(self):
        scene = generate_scene(2, 2, seed=33)
        backend = ScriptedBackend(scene)
        backend.fail("detect", times=2 * scene.frame_count)
        with pytest.raises(BuildError):
            build_ssm(scene.episode(), backend, EngineConfig())

    def test_caption_histories_consolidated(self):
        """An object seen in >= 5 frames triggers consolidation, collapsing
        its history."""
        scene = generate_scene(1, 2, seed=34)
        backend = ScriptedBackend(scene)
        cfg = EngineConfig()
        ssm = build_ssm(scene.episode(), backend, cfg)
        assert backend.call_counts["consolidate"] >= 1
        for track in ssm.graph.tracks.values():
            assert len(track.caption_history) < cfg.caption_consolidation_threshold

    def test_edge_discovery_every_third_frame(self):
        scene = generate_scene(2, 2, seed=35)

        class Recorder(ScriptedBackend):
            relation_frames = []

            def _handle_relations(self, request):
                self.relation_frames.append(request.frame_id)
                return super()._handle_relations(request)

        backend = Recorder(scene)
        build_ssm(scene.episode(), backend, EngineConfig())
        expected = [f for i, f in enumerate(scene.episode().frame_ids) if i % 3 == 0]
        assert backend.relation_frames == expected

    def test_record_replay_reproduces_build(self, tmp_path):
        scene = generate_scene(2, 2, seed=36)
        log = tmp_path / "build.jsonl"
        recorder = RecordingBackend(ScriptedBackend(scene, seed=3), log)
        first = serialize(build_ssm(scene.episode(), recorder, EngineConfig()))[0]
        replayer = ReplayBackend(log)
        second = serialize(build_ssm(scene.episode(), replayer, EngineConfig()))[0]
        assert first == second

    def test_strided_dataset_build(self, tmp_path):
        """Full disk round trip: synth -> manifest + PNGs -> load -> build."""
        import json

        from scenemem import load_dataset
        from scenemem.depthio import write_depth_png

        scene = generate_scene(2, 2, seed=37)
        episode = scene.episode()
        depth_dir = tmp_path / "depth"
        depth_dir.mkdir()
        lines = []
        for frame in episode.frames:
            name = f"depth/{frame.id:04d}.png"
            write_depth_png(tmp_path / name, frame.depth.values)
            lines.append(json.dumps({
                "id": frame.id, "image": frame.image_locator, "depth": name,
                "pose": {"rotation": frame.pose.rotation.reshape(-1).tolist(),
                         "translation": frame.pose.translation.tolist()},
                "intrinsics": {"fx": frame.intrinsics.fx, "fy": frame.intrinsics.fy,
                               "cx": frame.intrinsics.cx, "cy": frame.intrinsics.cy,
                               "width": frame.intrinsics.width,
                               "height": frame.intrinsics.height}}))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        loaded = load_dataset(manifest, k=1, scene_id=scene.scene_id)
        ssm = build_ssm(loaded, ScriptedBackend(scene), EngineConfig())
        # millimeter depth quantization must not cost any tracks
        assert track_recall(ssm, scene) == 1.0


class TestMetrics:
    def test_normalize_answer(self):
        assert normalize_answer("  The Red Mug! ") == "red mug"
        assert normalize_answer("a cup") == "cup"
        assert normalize_answer("6") == "6"

    def test_match_tracks_one_to_one(self, small_build):
        scene, _, _, ssm = small_build
        matched = match_tracks(ssm, scene)
        assert len(matched) == len(scene.objects)
        assert len(set(matched.values())) == len(matched)

    def test_spurious_track_lowers_precision(self, small_build):
        from scenemem import PointCloud, Track

        scene, _, _, ssm = small_build
        work = ssm.copy()
        ghost = Track(id=work.graph.new_track_id(),
                      cloud=PointCloud([(50.0, 50.0, 0.5)]), visual=None,
                      language=None, caption="ghost object",
                      caption_history=("ghost object",),
                      visible_frames=(work.frame_ids[0],))
        work.create_track(ghost)
        p, r, _, _ = graph_precision_recall(work, scene)
        assert r == 1.0
        assert p == len(scene.objects) / (len(scene.objects) + 1)

    def test_missing_track_lowers_recall(self, small_build):
        scene, _, _, ssm = small_build
        work = ssm.copy()
        victim = sorted(work.graph.tracks)[0]
        del work.graph.tracks[victim]
        del work.scratchpad[victim]
        work.graph.edges = [e for e in work.graph.edges
                            if victim not in (e.subject_id, e.object_id)]
        _, r, _, _ = graph_precision_recall(work, scene)
        assert r == (len(scene.objects) - 1) / len(scene.objects)

    def test_evaluate_perfect_backend(self, small_scene):
        backend = ScriptedBackend(small_scene, reasoner=RuleReasoner())
        report = evaluate(small_scene, generate_questions(small_scene), backend)
        assert report.track_recall == 1.0
        assert report.edge_recall == 1.0
        assert report.track_precision == 1.0
        assert report.edge_precision == 1.0
        assert report.answer_accuracy == 1.0
        assert report.failures == []
        doc = report.to_doc()
        assert set(doc["per_category"]) \
            == {"spatial", "localization", "attribute", "counting"}

    def test_backend_without_embeddings_falls_back(self, small_scene):
        """With no embedding on any wire object, the engine embeds captions
        itself: construction still finds one track per object and every
        answer stays right."""
        class NoEmbeddings(ScriptedBackend):
            def _wire_detection(self, det, note):
                doc = super()._wire_detection(det, note)
                del doc["visual_embedding"], doc["language_embedding"]
                return doc

        backend = NoEmbeddings(small_scene, reasoner=RuleReasoner())
        report = evaluate(small_scene, generate_questions(small_scene), backend)
        assert report.track_recall == 1.0
        assert report.track_precision == 1.0  # with full recall: one track each
        assert report.answer_accuracy == 1.0

    def test_node_mode_evaluation(self, small_scene):
        """The node-level API mode (find_objects / analyze_objects) also
        answers the synthetic questions."""
        backend = ScriptedBackend(small_scene, reasoner=RuleReasoner())
        cfg = EngineConfig()
        cfg.api_mode = "node"
        report = evaluate(small_scene, generate_questions(small_scene), backend, cfg)
        assert report.answer_accuracy == 1.0
        assert all(a.compliant for a in report.answers)

    def test_zero_budget_point_mass_histogram(self, small_scene):
        backend = ScriptedBackend(small_scene, reasoner=RuleReasoner())
        cfg = EngineConfig()
        cfg.max_api_calls = 0
        report = evaluate(small_scene, generate_questions(small_scene), backend, cfg)
        assert set(report.calls_histogram) == {0}
        assert report.calls_mean == 0.0

    def test_noisy_detector_strictly_worse_paired_run(self):
        """Paired runs on one scene: the lossy detector must cost
        construction recall and force extra API calls (seeds chosen so the
        misses actually hit; a sparse single-room trajectory keeps every
        object down to three detection chances)."""
        scene = generate_scene(1, 2, seed=5, views_per_room=3)
        questions = generate_questions(scene)
        clean = evaluate(scene, questions,
                         ScriptedBackend(scene, reasoner=RuleReasoner(), seed=10))
        noisy = evaluate(scene, questions,
                         ScriptedBackend(scene, reasoner=RuleReasoner(), seed=10,
                                         miss_prob=0.5))
        assert clean.track_recall == 1.0
        assert noisy.track_recall < clean.track_recall
        assert noisy.calls_mean > clean.calls_mean

    def test_full_report_deterministic(self):
        """(scene, config, scripted backend seed) fully determine the
        metrics report."""
        import json

        scene = generate_scene(2, 2, seed=41)
        questions = generate_questions(scene)
        docs = []
        for _ in range(2):
            backend = ScriptedBackend(scene, reasoner=RuleReasoner(), seed=6)
            report = evaluate(scene, questions, backend, EngineConfig())
            docs.append(json.dumps(report.to_doc(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_recall_sweep_converges(self):
        scene = generate_scene(2, 2, seed=39, views_per_room=3)
        backend = ScriptedBackend(scene, miss_prob=0.5, seed=7)
        episode = scene.episode()
        ssm = build_ssm(episode, backend, EngineConfig())
        calls, final = recall_sweep(scene, ssm, episode, backend, EngineConfig())
        assert track_recall(final, scene) == 1.0
        if track_recall(ssm, scene) < 1.0:
            assert calls > 0


_NUMPY_ONLY_RUN = """
import sys
from scenemem import (RuleReasoner, ScriptedBackend, evaluate, generate_questions,
                      generate_scene)
scene = generate_scene(2, 3, seed=7)
report = evaluate(scene, generate_questions(scene),
                  ScriptedBackend(scene, reasoner=RuleReasoner()))
assert report.answers and not report.failures, report.failures
optional = ("scipy", "PIL", "jsonschema", "hypothesis")
print(sorted(m for m in sys.modules if m.split(".")[0] in optional))
"""


def test_runtime_imports_only_numpy():
    """Building and answering a scene needs numpy and the standard library
    only; the test extras (scipy, pillow, jsonschema, hypothesis) stay
    unimported."""
    src = str(Path(scenemem.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_RUN], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_no_function_level_imports():
    """Every engine module imports at its top, so an import cycle or a
    missing dependency shows at import time, not when a function runs."""
    package = Path(scenemem.__file__).resolve().parent
    hidden = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hidden += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert hidden == []
