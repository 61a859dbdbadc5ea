"""Initial construction over synthetic episodes, graph metrics, evaluation
and whole-pipeline determinism (including record/replay)."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import pytest

import scenemem
from scenemem import (EngineConfig, RecordingBackend, ReplayBackend,
                      RuleReasoner, ScriptedBackend, build_ssm, edge_discovery_due,
                      evaluate, generate_questions, generate_scene, recall_sweep,
                      serialize)
from scenemem.backend import REQUEST_KINDS
from scenemem.dataset import Episode
from scenemem.metrics import (graph_precision_recall, match_tracks,
                              normalize_answer, track_recall)
from scenemem.pipeline import BuildError

from test_golden_digests import CONFIGS as GOLDEN_CONFIGS, GOLDEN
from test_graph import reference_associate


def _shown(ssm, frame_id: int) -> tuple[int, ...]:
    """The ids of the tracks whose visible_frames list ``frame_id``."""
    return tuple(sorted(tid for tid, t in ssm.graph.tracks.items()
                        if frame_id in t.visible_frames))


class TestBuildSsm:
    def test_perfect_backend_reconstructs_scene(self, small_build):
        scene, _, _, ssm = small_build
        assert graph_precision_recall(ssm, scene) == (1.0, 1.0, 1.0, 1.0)

    def test_embedding_length_follows_the_config(self, small_scene, small_episode):
        """The scripted backend sends vectors of the length each request
        asks for, so a build at another embedding size is as perfect."""
        ssm = build_ssm(small_episode, ScriptedBackend(small_scene),
                        EngineConfig(embedding_dim=32))
        assert graph_precision_recall(ssm, small_scene) == (1.0, 1.0, 1.0, 1.0)
        assert {t.visual.dim for t in ssm.graph.tracks.values()} == {32}

    def test_all_structures_populated(self, small_build):
        scene, episode, _, ssm = small_build
        assert len(ssm.nav_log) == len(episode)
        assert [e.frame_id for e in ssm.nav_log] == episode.frame_ids
        assert len(ssm.frame_memory) == min(5, len(episode))
        assert ssm.frame_memory.initial_count == 5
        assert ssm.scratchpad == {}  # no notes yet, so no entries
        assert ssm.rooms is not None and ssm.rooms.floors.floors

    def test_tracks_have_rooms_and_floors(self, small_build):
        scene, _, _, ssm = small_build
        truth = {o.caption: scene.room_label_of(o) for o in scene.objects}
        for track in ssm.graph.tracks.values():
            assert track.floor_id == "floor0"
            assert track.room_id is not None
            assert track.room_label == truth[track.caption]

    @pytest.mark.parametrize("seed", [0, 1000])
    def test_track_against_a_wall_takes_its_room(self, seed):
        """Tracks are located by the rule that locates cameras, so the
        wardrobe, whose centroid falls on a wall cell, takes the room it
        stands in like every other track."""
        scene = generate_scene(8, 3, seed)
        ssm = build_ssm(scene.episode(), ScriptedBackend(scene), EngineConfig())
        matched = match_tracks(ssm, scene)
        assert len(matched) == len(scene.objects)
        for tid, index in matched.items():
            obj = scene.objects[index]
            assert ssm.graph.tracks[tid].room_label == scene.room_label_of(obj), \
                obj.caption

    def test_contested_build_matches_reference_association(
            self, small_scene, small_episode, monkeypatch):
        """With one caption embedding for every detection, every detection
        casts a caption vote for every track, so every pair is contested and
        computes its overlap; the build equals one whose association is the
        exhaustive reference matcher."""
        class SharedCaption(ScriptedBackend):
            def _wire_detection(self, det, note):
                doc = super()._wire_detection(det, note)
                doc["language_embedding"] = [1.0] + [0.0] * (self.embedding_dim - 1)
                return doc

        def build():
            return serialize(build_ssm(small_episode, SharedCaption(small_scene),
                                       EngineConfig()))[0]

        fast = build()
        monkeypatch.setattr(scenemem.apis, "associate", reference_associate)
        assert build() == fast

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
        backend.fail("detect", mode="item")  # the first frame's item
        ssm = build_ssm(scene.episode(), backend, EngineConfig())
        assert _shown(ssm, ssm.nav_log[0].frame_id) == ()
        assert len(ssm.nav_log) == scene.frame_count
        # later frames still recover all objects
        assert track_recall(ssm, scene) == 1.0

    def test_unnormalizable_embedding_skips_frame(self, small_scene):
        """A detect answer whose embedding is all zeros fails validation,
        so its frame is skipped like any failed detect; the build used to
        abort inside Embedding."""
        class ZeroEmbedding(ScriptedBackend):
            def _detect_item(self, frame_id, relations):
                doc = super()._detect_item(frame_id, relations)
                if frame_id == 3:
                    for det in doc["detections"]:
                        det["visual_embedding"] = [0.0] * len(det["visual_embedding"])
                return doc

        assert small_scene.visible_objects(3)
        ssm = build_ssm(small_scene.episode(), ZeroEmbedding(small_scene),
                        EngineConfig())
        assert _shown(ssm, 3) == ()
        assert all(3 not in t.visible_frames for t in ssm.graph.tracks.values())

    def test_embedding_of_wrong_length_skips_frame(self, small_scene):
        """A detect answer whose embedding is shorter than the engine's
        fails validation, so its frame is skipped; the build used to abort
        comparing it with the tracks' 64-entry vectors."""
        class ShortEmbedding(ScriptedBackend):
            def _detect_item(self, frame_id, relations):
                doc = super()._detect_item(frame_id, relations)
                if frame_id == 3:
                    for det in doc["detections"]:
                        det["visual_embedding"] = [1.0, 0.0, 0.0]
                return doc

        assert small_scene.visible_objects(3)
        ssm = build_ssm(small_scene.episode(), ShortEmbedding(small_scene),
                        EngineConfig())
        assert _shown(ssm, 3) == ()
        assert all(3 not in t.visible_frames for t in ssm.graph.tracks.values())

    def test_self_relation_skips_edge_discovery(self, small_scene, caplog):
        """A relation from a detection to itself fails validation, so the
        detect item carrying it fails like any malformed item: that frame,
        and its edge discovery, is skipped. The build used to abort inside
        RelationEdge."""
        class SelfRelation(ScriptedBackend):
            def _detect_item(self, frame_id, relations):
                doc = super()._detect_item(frame_id, relations)
                if "relations" in doc and doc["detections"]:
                    doc["relations"].append({"subject_id": 0, "object_id": 0,
                                             "relation": "on_top_of",
                                             "justification": "itself"})
                return doc

        episode = small_scene.episode()
        due = [f for i, f in enumerate(episode.frame_ids)
               if edge_discovery_due(i) and small_scene.gt_detections(f)]
        with caplog.at_level("WARNING", logger="scenemem.pipeline"):
            ssm = build_ssm(episode, SelfRelation(small_scene), EngineConfig())
        failed = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("detect failed")]
        assert len(failed) == len(due) < len(episode) / 2
        assert all(re.search(rf"frame {f}, .*\$\.frames\[{episode.frame_ids.index(f)}\]"
                             r"\.relations\[\d+\]: subject_id and object_id must differ",
                             m) for f, m in zip(due, failed))
        assert [e.frame_id for e in ssm.nav_log if not _shown(ssm, e.frame_id)] == due
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
        its history. Captions that vary across frames are merged by a
        consolidate request."""
        class VaryingCaptions(ScriptedBackend):
            items = 0

            def _detect_item(self, frame_id, relations):
                doc = super()._detect_item(frame_id, relations)
                self.items += 1
                if self.items % 2:  # every other frame
                    for det in doc["detections"]:
                        det["caption"] = "the " + det["caption"]
                return doc

        scene = generate_scene(1, 2, seed=34)
        backend = VaryingCaptions(scene)
        ssm = build_ssm(scene.episode(), backend, EngineConfig())
        assert backend.call_counts["consolidate"] >= 1
        for track in ssm.graph.tracks.values():
            assert len(track.caption_history) < 5  # consolidate_captions' threshold

    def test_edge_discovery_every_third_frame(self):
        """The detect request asks for relations on every third frame, and
        those frames' items carry them, so no relations request is sent."""
        scene = generate_scene(2, 2, seed=35)

        class Recorder(ScriptedBackend):
            relation_frames = []

            def _detect_item(self, frame_id, relations):
                if relations:
                    self.relation_frames.append(frame_id)
                return super()._detect_item(frame_id, relations)

        backend = Recorder(scene)
        ssm = build_ssm(scene.episode(), backend, EngineConfig())
        expected = [f for i, f in enumerate(scene.episode().frame_ids) if i % 3 == 0]
        assert backend.relation_frames == expected
        assert backend.call_counts["relations"] == 0
        assert ssm.graph.edges
        assert {e.source_frame for e in ssm.graph.edges} <= set(expected)

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
        from scenemem import load_dataset
        from scenemem.dataset import save_dataset

        scene = generate_scene(2, 2, seed=37)
        manifest = save_dataset(scene.episode(), tmp_path)
        loaded = load_dataset(manifest, k=1, scene_id=scene.scene_id)
        backend = ScriptedBackend(scene)
        ssm = build_ssm(loaded, backend, EngineConfig())
        # millimeter depth quantization must not cost any tracks
        assert track_recall(ssm, scene) == 1.0
        # a loaded episode builds in one round trip, like a synthetic one
        assert backend.call_counts == {**NO_CALLS, "detect": 1}


def _build(scene, backend):
    return build_ssm(scene.episode(), backend, EngineConfig())


class BareDetectServer(ScriptedBackend):
    """A backend whose detect items carry neither a field-of-view tag,
    relations nor room scores, all of which the protocol leaves optional."""

    def _detect_item(self, frame_id, relations):
        doc = super()._detect_item(frame_id, relations)
        doc.pop("fov_tag", None)
        doc.pop("relations", None)
        doc.pop("room_scores", None)
        return doc


# every request kind at zero calls
NO_CALLS = dict.fromkeys(REQUEST_KINDS, 0)


def _room_frames(scene, backend, room):
    """The episode's frames whose camera stands in scene room ``room``."""
    return [f for f in scene.episode().frame_ids if backend._camera_room(f) is room]


class TestBuildRoundTrips:
    """One detect request lists every keyframe; the fov tag, the room
    scores and the due frames' relations ride on its items, and a history
    of one repeated caption consolidates without a request. A clean build
    is that one round trip: it sends no fov, relations or room_label
    request."""

    def test_clean_build_is_one_detect_round_trip(self, small_scene):
        backend = ScriptedBackend(small_scene)
        ssm = _build(small_scene, backend)
        assert len(ssm.nav_log) == 12
        assert backend.call_counts == {**NO_CALLS, "detect": 1}
        assert ssm.graph.edges
        assert "unavailable" not in {e.fov_tag for e in ssm.nav_log}
        assert "unknown" not in {e.room_label for e in ssm.nav_log}

    def test_failed_detect_tags_its_frame_unavailable(self, small_scene):
        clean = _build(small_scene, ScriptedBackend(small_scene))
        backend = ScriptedBackend(small_scene)
        backend.fail("detect", mode="item")  # the first frame's item
        ssm = _build(small_scene, backend)
        assert backend.call_counts["fov"] == 0
        # the failed detect empties the frame's visible nodes and its tag,
        # nothing else
        assert astuple(ssm.nav_log[0]) == astuple(replace(
            clean.nav_log[0], fov_tag="unavailable"))
        assert _shown(ssm, ssm.nav_log[0].frame_id) == ()
        assert [astuple(e) + (_shown(ssm, e.frame_id),) for e in ssm.nav_log[1:]] \
            == [astuple(e) + (_shown(clean, e.frame_id),) for e in clean.nav_log[1:]]

    def test_bare_detect_replies_send_no_other_request(self, small_scene):
        """Detect items without a tag, relations or room scores: each frame
        is tagged "unavailable", the graph has no edges, every room is
        "unknown", and nothing else is asked."""
        backend = BareDetectServer(small_scene)
        ssm = _build(small_scene, backend)
        assert backend.call_counts == {**NO_CALLS, "detect": 1}
        assert {e.fov_tag for e in ssm.nav_log} == {"unavailable"}
        assert not ssm.graph.edges
        assert set(ssm.rooms.labels.values()) == {"unknown"}
        assert {e.room_label for e in ssm.nav_log} == {"unknown"}
        assert {t.room_label for t in ssm.graph.tracks.values()} == {"unknown"}
        clean = _build(small_scene, ScriptedBackend(small_scene))
        assert sorted(ssm.graph.tracks) == sorted(clean.graph.tracks)

    def test_malformed_item_fails_its_frame_only(self, small_scene, caplog):
        """A malformed item skips its frame alone, and the warning names the
        item's path; the other frames build as in a clean run."""
        episode = small_scene.episode()
        bad = episode.frame_ids[4]
        assert small_scene.gt_detections(bad)

        class BadBox(ScriptedBackend):
            def _detect_item(self, frame_id, relations):
                doc = super()._detect_item(frame_id, relations)
                if frame_id == bad:
                    doc["detections"][0]["bbox"] = [0, 0, 10_000, 10]
                return doc

        clean = _build(small_scene, ScriptedBackend(small_scene))
        with caplog.at_level("WARNING", logger="scenemem.pipeline"):
            ssm = _build(small_scene, BadBox(small_scene))
        assert [r.getMessage() for r in caplog.records] == [
            f"detect failed on frame {bad}, skipping: $.frames[4].detections[0].bbox: "
            "u_max=10000 overflows frame by more than 2 px"]
        row = next(e for e in ssm.nav_log if e.frame_id == bad)
        assert _shown(ssm, bad) == () and row.fov_tag == "unavailable"
        assert [astuple(e) + (_shown(ssm, e.frame_id),) for e in ssm.nav_log
                if e.frame_id != bad] \
            == [astuple(e) + (_shown(clean, e.frame_id),) for e in clean.nav_log
                if e.frame_id != bad]
        assert track_recall(ssm, small_scene) == 1.0

    def test_wrong_item_count_fails_every_frame(self, small_scene):
        class ShortReply(ScriptedBackend):
            def _handle_detect(self, request):
                doc = super()._handle_detect(request)
                return {"frames": doc["frames"][:-1]}

        with pytest.raises(BuildError, match="^12 of 12 frames failed$") as err:
            _build(small_scene, ShortReply(small_scene))
        assert "expected 12 items, one per listed frame, got 11" in str(err.value.__cause__)

    def test_persistent_transport_failure_fails_every_frame(self, small_scene):
        backend = ScriptedBackend(small_scene)
        backend.fail("detect", times=2)  # the request and its one retry
        with pytest.raises(BuildError, match="^12 of 12 frames failed$"):
            _build(small_scene, backend)
        assert backend.call_counts["detect"] == 2
        assert backend.call_counts["room_label"] == 0

    @pytest.mark.parametrize("name", ["frame-miss0", "frame-miss0.6"])
    def test_retried_transport_failure_builds_the_golden_memory(self, small_scene, name):
        miss_prob, overrides = GOLDEN_CONFIGS[name]
        backend = ScriptedBackend(small_scene, miss_prob=miss_prob)
        backend.fail("detect")  # one failure, then the retry succeeds
        ssm = build_ssm(small_scene.episode(), backend, EngineConfig(**overrides))
        assert backend.call_counts["detect"] == 2
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]["memory"]
        assert hashlib.sha256(serialize(ssm)[0].encode()).hexdigest() == expected

    def test_room_without_detections_keeps_its_label(self, small_scene):
        """Room labels come from the views taken in a room, not from the
        objects found there: a room whose every detection is dropped still
        names the navigation-log rows of the frames taken in it."""
        room = small_scene.rooms[0]
        dropped = {o.caption for o in small_scene.objects if o.room_index == room.index}
        assert not dropped & {o.caption for o in small_scene.objects
                              if o.room_index != room.index}

        class BlindToOneRoom(ScriptedBackend):
            def _detect_item(self, frame_id, relations):
                doc = super()._detect_item(frame_id, relations)
                doc["detections"] = [d for d in doc["detections"]
                                     if d["caption"] not in dropped]
                doc.pop("relations", None)  # its rows index the full list
                return doc

        backend = BlindToOneRoom(small_scene)
        ssm = _build(small_scene, backend)
        assert not dropped & {t.caption for t in ssm.graph.tracks.values()}
        frames = _room_frames(small_scene, backend, room)
        assert frames
        assert {e.room_label for e in ssm.nav_log if e.frame_id in frames} \
            == {room.label}

    @pytest.mark.parametrize("failure", ["error item", "malformed scores"])
    def test_failed_item_casts_no_vote(self, small_scene, failure):
        """The frames of one room answered with an error item, or with room
        scores that are not numbers, cast no vote: that room is "unknown"
        in the navigation log and on its tracks, and the others keep their
        labels."""
        room = small_scene.rooms[0]

        class FailOneRoom(ScriptedBackend):
            def _detect_item(self, frame_id, relations):
                doc = super()._detect_item(frame_id, relations)
                if self._camera_room(frame_id) is not room:
                    return doc
                if failure == "error item":
                    return {"error": "no answer"}
                return {**doc, "room_scores": ["high"] * len(doc["room_scores"])}

        backend = FailOneRoom(small_scene)
        ssm = _build(small_scene, backend)
        clean = _build(small_scene, ScriptedBackend(small_scene))
        frames = _room_frames(small_scene, backend, room)
        assert 0 < len(frames) <= len(ssm.nav_log) // 2
        for row, clean_row in zip(ssm.nav_log, clean.nav_log):
            assert row.room_label == ("unknown" if row.frame_id in frames
                                      else clean_row.room_label)
        labels = {t.caption: t.room_label for t in ssm.graph.tracks.values()}
        for obj in small_scene.objects:
            if obj.caption in labels:
                assert labels[obj.caption] == ("unknown" if obj.room_index == room.index
                                               else small_scene.room_label_of(obj))


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
        work.graph.insert_track(ghost)
        p, r, _, _ = graph_precision_recall(work, scene)
        assert r == 1.0
        assert p == len(scene.objects) / (len(scene.objects) + 1)

    def test_missing_track_lowers_recall(self, small_build):
        scene, _, _, ssm = small_build
        work = ssm.copy()
        victim = sorted(work.graph.tracks)[0]
        del work.graph.tracks[victim]
        work.scratchpad.pop(victim, None)
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
