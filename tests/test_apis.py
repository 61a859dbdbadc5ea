"""The patch-producing APIs and atomic patch integration."""

from __future__ import annotations

import json

import pytest

from scenemem import (ApiCall, ApiExecutor, EngineConfig, EpisodeQuery, RelationEdge,
                      RuleReasoner, SceneMemory, ScriptedBackend, apply_patch,
                      build_ssm, generate_questions, init_frame_memory,
                      run_episode_batch, serialize)
from scenemem.apis import ApiError, Patch, PatchNote
from scenemem.backend import BackendError, BackendRequest
from scenemem.dataset import DatasetError
from scenemem.memory import canonical_json
from scenemem.spatial import NavLogEntry

import scenemem.apis as apis_module

from conftest import assert_scratchpad_invariant


@pytest.fixture()
def workbench(small_build):
    scene, episode, backend, ssm = small_build
    executor = ApiExecutor(episode, backend, EngineConfig())
    return scene, episode, backend, executor, ssm


def _frame_showing(scene, obj_index: int) -> int:
    return next(f for f in range(scene.frame_count)
                if obj_index in scene.visible_objects(f))


class TestApiCallContract:
    def test_kind_validated(self):
        with pytest.raises(ApiError):
            ApiCall(kind="levitate", frame_id=0, query="q")

    def test_query_required(self):
        with pytest.raises(ApiError):
            ApiCall(kind="find_objects", frame_id=0, query="  ")

    def test_node_ids_exactly_for_analyze_objects(self):
        with pytest.raises(ApiError):
            ApiCall(kind="find_objects", frame_id=0, query="q", node_ids=(1,))
        with pytest.raises(ApiError):
            ApiCall(kind="analyze_objects", frame_id=0, query="q")
        ApiCall(kind="analyze_objects", frame_id=0, query="q", node_ids=(1,))


class TestFindObjects:
    def test_query_hit_produces_detection_with_note(self, workbench):
        scene, _, _, executor, ssm = workbench
        target = scene.objects[1]
        fid = _frame_showing(scene, target.index)
        call = ApiCall("find_objects", fid, f"find the {target.caption}")
        patch = executor.execute(call, ssm)
        assert any(d.caption == target.caption for d in patch.new_detections)
        assert patch.evidence
        assert any(n.target_kind == "pending" for n in patch.notes)

    def test_unmatched_query_empty_patch(self, workbench):
        _, _, _, executor, ssm = workbench
        call = ApiCall("find_objects", 0, "find the grand piano")
        patch = executor.execute(call, ssm)
        assert patch.is_empty
        assert patch.failure is None

    def test_backend_failure_failed_patch(self, workbench):
        scene, episode, _, _, ssm = workbench
        backend = ScriptedBackend(scene)
        backend.fail("analyze", times=2)
        executor = ApiExecutor(episode, backend, EngineConfig())
        patch = executor.execute(ApiCall("find_objects", 0, "anything"), ssm)
        assert patch.failure is not None
        assert patch.is_empty

    def test_embedding_of_wrong_length_failed_patch(self, workbench):
        scene, episode, _, _, ssm = workbench

        class ShortEmbedding(ScriptedBackend):
            def _wire_detection(self, det, note):
                return {**super()._wire_detection(det, note),
                        "visual_embedding": [1.0, 0.0, 0.0]}

        executor = ApiExecutor(episode, ShortEmbedding(scene), EngineConfig())
        patch = executor.execute(ApiCall("find_objects", 0, "anything"), ssm)
        assert "$.new_objects[0].visual_embedding" in patch.failure
        assert patch.is_empty

    def test_redetection_merges_instead_of_creating(self, workbench):
        scene, _, _, executor, ssm = workbench
        target = scene.objects[0]
        fid = _frame_showing(scene, target.index)
        call = ApiCall("find_objects", fid, f"find the {target.caption}")
        patch = executor.execute(call, ssm)
        before = len(ssm.graph.tracks)
        updated, report = apply_patch(ssm.copy(), patch)
        assert len(updated.graph.tracks) == before
        assert report.created == []
        assert report.merged

    def test_unknown_frame_failed_patch(self, workbench):
        _, _, _, executor, ssm = workbench
        patch = executor.execute(ApiCall("find_objects", 777, "x"), ssm)
        assert patch.failure is not None


class TestAnalyzeObjects:
    def test_notes_for_visible_subset(self, workbench):
        scene, _, _, executor, ssm = workbench
        fid = 0
        visible_captions = {scene.objects[i].caption
                            for i in scene.visible_objects(fid)}
        visible_ids = [tid for tid, t in ssm.graph.tracks.items()
                       if t.caption in visible_captions]
        hidden_ids = [tid for tid in ssm.graph.tracks if tid not in visible_ids]
        chosen = visible_ids[:2] + hidden_ids[:1]
        call = ApiCall("analyze_objects", fid, "what color is it?",
                       node_ids=tuple(chosen))
        patch = executor.execute(call, ssm)
        noted = {n.target for n in patch.notes if n.target_kind == "node"}
        assert noted == set(visible_ids[:2])
        assert not patch.new_detections

    def test_unknown_node_ids_skipped_and_reported(self, workbench):
        scene, _, _, executor, ssm = workbench
        fid = 0
        visible_captions = {scene.objects[i].caption
                            for i in scene.visible_objects(fid)}
        vid = next(tid for tid, t in ssm.graph.tracks.items()
                   if t.caption in visible_captions)
        call = ApiCall("analyze_objects", fid, "inspect",
                       node_ids=(vid, 424242))
        patch = executor.execute(call, ssm)
        assert 424242 in patch.skipped_nodes
        assert {n.target for n in patch.notes} == {vid}

    def test_zero_visible_falls_back_to_find_objects(self, workbench):
        """With none of the listed nodes visible, the patch must equal the
        find_objects patch for the same (frame, query)."""
        scene, episode, _, _, ssm = workbench
        fid = 0
        visible_captions = {scene.objects[i].caption
                            for i in scene.visible_objects(fid)}
        hidden = [tid for tid, t in ssm.graph.tracks.items()
                  if t.caption not in visible_captions]
        assert hidden, "fixture scene needs an object hidden in frame 0"
        query = "describe all objects"
        backend_a = ScriptedBackend(scene)
        backend_b = ScriptedBackend(scene)
        cfg = EngineConfig()
        patch_a = ApiExecutor(episode, backend_a, cfg).execute(
            ApiCall("analyze_objects", fid, query, node_ids=tuple(hidden[:1])), ssm)
        patch_b = ApiExecutor(episode, backend_b, cfg).execute(
            ApiCall("find_objects", fid, query), ssm)
        assert [d.caption for d in patch_a.new_detections] \
            == [d.caption for d in patch_b.new_detections]
        assert patch_a.evidence == patch_b.evidence
        assert [(n.target_kind, n.target, n.text) for n in patch_a.notes] \
            == [(n.target_kind, n.target, n.text) for n in patch_b.notes]

    def test_note_lands_in_scratchpad_with_evidence(self, workbench):
        scene, _, _, executor, ssm = workbench
        fid = 0
        visible_captions = {scene.objects[i].caption
                            for i in scene.visible_objects(fid)}
        vid = next(tid for tid, t in ssm.graph.tracks.items()
                   if t.caption in visible_captions)
        call = ApiCall("analyze_objects", fid, "is it red?", node_ids=(vid,))
        patch = executor.execute(call, ssm)
        updated, report = apply_patch(ssm.copy(), patch)
        notes = updated.scratchpad[vid]
        assert report.notes_added >= 1
        assert notes[-1].evidence_frame == fid
        assert notes[-1].source_api == "analyze_objects"
        assert notes[-1].query == "is it red?"


class TestAnalyzeFrame:
    def test_discovers_unknown_and_annotates_known(self, workbench):
        """Remove one track, then analyze a frame showing it: the patch must
        re-discover it and note the still-known visible nodes."""
        scene, episode, backend, executor, ssm = workbench
        work = ssm.copy()
        target_caption = scene.objects[0].caption
        fid = _frame_showing(scene, 0)
        drop = next(tid for tid, t in work.graph.tracks.items()
                    if t.caption == target_caption)
        del work.graph.tracks[drop]
        work.scratchpad.pop(drop, None)
        work.graph.edges = [e for e in work.graph.edges
                            if drop not in (e.subject_id, e.object_id)]
        patch = executor.execute(
            ApiCall("analyze_frame", fid, "describe all objects"), work)
        assert any(d.caption == target_caption for d in patch.new_detections)
        assert any(n.target_kind == "node" for n in patch.notes)

    def test_all_known_notes_only(self, workbench):
        scene, _, _, executor, ssm = workbench
        patch = executor.execute(
            ApiCall("analyze_frame", 0, "describe all objects"), ssm)
        assert patch.new_detections == []
        assert patch.notes

    def test_nothing_relevant_empty_patch(self, workbench):
        """No known nodes visible and a query matching nothing on screen:
        the patch comes back empty (and not failed)."""
        from scenemem import SceneMemory, init_frame_memory
        from scenemem.spatial import NavLogEntry

        scene, _, _, executor, _ = workbench
        bare = SceneMemory.empty(scene.scene_id, 1, scene.episode().frame_ids)
        bare.nav_log = [NavLogEntry(f, "unknown", "t", "stationary")
                        for f in bare.frame_ids]
        bare.frame_memory = init_frame_memory(bare.frame_ids, 2)
        patch = executor.execute(
            ApiCall("analyze_frame", 0, "find the zeppelin"), bare)
        assert patch.is_empty
        assert patch.failure is None


class TestApplyPatch:
    def test_empty_patch_only_appends_frame(self, workbench):
        _, _, _, _, ssm = workbench
        fid = next(f for f in ssm.frame_ids if f not in ssm.frame_memory)
        patch = Patch(provenance=ApiCall("analyze_frame", fid, "look"))
        before = serialize(ssm)[0]
        updated, report = apply_patch(ssm, patch)
        assert serialize(ssm)[0] == before
        assert report.frame_appended
        assert updated.frame_memory.frames == ssm.frame_memory.frames + (fid,)
        base = serialize(ssm)[0]
        after = serialize(updated)[0]
        assert base != after  # only the frame memory differs
        assert after.replace(f",{fid}]", "]", 1) == base

    def test_frame_appended_at_most_once(self, workbench):
        _, _, _, executor, ssm = workbench
        fid = ssm.frame_ids[1]
        patch = Patch(provenance=ApiCall("retrieve_frame", fid, ""))
        once, _ = apply_patch(ssm.copy(), patch)
        twice, report = apply_patch(once, patch)
        assert twice.frame_memory.frames == once.frame_memory.frames
        assert report.frame_appended is False

    def test_double_application_idempotent(self, workbench):
        """Second application of the same analyze_frame patch merges every
        detection, drops duplicate edges and only appends notes."""
        scene, _, _, executor, ssm = workbench
        fid = 0
        patch = executor.execute(
            ApiCall("analyze_frame", fid, "describe all objects"), ssm)
        # add an edge to exercise duplicate dropping
        vis = sorted(tid for tid, t in ssm.graph.tracks.items() if fid in t.visible_frames)
        if len(vis) >= 2:
            patch.new_edges.append(RelationEdge(vis[0], vis[1], "attached_to",
                                                "synthetic test edge", fid))
        first, rep1 = apply_patch(ssm.copy(), patch)
        second, rep2 = apply_patch(first, patch)
        assert rep2.created == []
        assert len(second.graph.tracks) == len(first.graph.tracks)
        assert len(second.graph.edges) == len(first.graph.edges)
        if len(vis) >= 2:
            assert "duplicate edge" in rep2.edges_rejected
        assert second.note_count() == first.note_count() + rep2.notes_added

    def test_track_count_grows_by_new_associations(self, workbench):
        scene, _, _, executor, ssm = workbench
        work = ssm.copy()
        caption = scene.objects[2].caption
        fid = _frame_showing(scene, 2)
        drop = next(t for t, tr in work.graph.tracks.items() if tr.caption == caption)
        del work.graph.tracks[drop]
        work.scratchpad.pop(drop, None)
        work.graph.edges = [e for e in work.graph.edges
                            if drop not in (e.subject_id, e.object_id)]
        patch = executor.execute(
            ApiCall("analyze_frame", fid, "describe all objects"), work)
        before = len(work.graph.tracks)
        updated, report = apply_patch(work, patch)
        assert len(updated.graph.tracks) == before + len(report.created)
        assert len(report.created) == 1

    def test_scratchpad_lists_only_live_nodes_with_notes(self, workbench):
        scene, _, _, executor, ssm = workbench
        current = ssm.copy()
        for fid in list(current.frame_ids)[:4]:
            patch = executor.execute(
                ApiCall("analyze_frame", fid, "describe all objects"), current)
            current, _ = apply_patch(current, patch)
            assert_scratchpad_invariant(current)
        assert current.scratchpad

    def test_nav_log_gains_landed_ids(self, workbench):
        scene, _, _, executor, ssm = workbench
        work = ssm.copy()
        caption = scene.objects[0].caption
        fid = _frame_showing(scene, 0)
        drop = next(t for t, tr in work.graph.tracks.items() if tr.caption == caption)
        del work.graph.tracks[drop]
        work.scratchpad.pop(drop, None)
        work.graph.edges = [e for e in work.graph.edges
                            if drop not in (e.subject_id, e.object_id)]
        patch = executor.execute(
            ApiCall("analyze_frame", fid, "describe all objects"), work)
        updated, report = apply_patch(work, patch)
        tracks = json.loads(serialize(updated)[0])["scene_graph"]["tracks"]
        frames = tracks["columns"].index("visible_frames")
        shown = {row[0] for row in tracks["rows"] if fid in row[frames]}
        for new_id in report.created:
            assert new_id in shown

    def test_created_track_is_placed_in_its_room(self, workbench):
        """A track re-discovered by a patch lands on the floor and in the
        room (with its label) that construction gave the dropped track."""
        scene, _, _, executor, ssm = workbench
        work = ssm.copy()
        obj = scene.objects[0]
        fid = _frame_showing(scene, 0)
        drop = next(t for t, tr in work.graph.tracks.items()
                    if tr.caption == obj.caption)
        dropped = work.graph.tracks.pop(drop)
        work.scratchpad.pop(drop, None)
        work.graph.edges = [e for e in work.graph.edges
                            if drop not in (e.subject_id, e.object_id)]
        patch = executor.execute(
            ApiCall("analyze_frame", fid, "describe all objects"), work)
        updated, report = apply_patch(work, patch)
        assert len(report.created) == 1
        created = updated.graph.tracks[report.created[0]]
        assert created.caption == obj.caption
        assert (created.floor_id, created.room_id) == (dropped.floor_id, dropped.room_id)
        assert created.room_label == scene.room_label_of(obj)

    def test_provenance_frame_outside_episode_rejected(self, workbench):
        """apply_patch keeps frames outside the episode out of the frame
        memory (append_frame itself does not know the episode)."""
        _, _, _, _, ssm = workbench
        patch = Patch(provenance=ApiCall("analyze_frame", 987, "x"))
        before = serialize(ssm)[0]
        updated, report = apply_patch(ssm, patch)
        assert updated is ssm
        assert report.failure == "frame 987 not in episode"
        assert 987 not in updated.frame_memory
        assert serialize(ssm)[0] == before

    def test_failed_patch_is_a_no_op(self, workbench):
        _, _, _, _, ssm = workbench
        patch = Patch(provenance=ApiCall("analyze_frame", 0, "x"),
                      failure="backend down")
        updated, report = apply_patch(ssm, patch)
        assert updated is ssm
        assert report.failure == "backend down"

    @pytest.mark.parametrize("stage", ["_associate_detections", "_insert_edges",
                                       "_append_notes", "_append_frame_memory"])
    def test_mid_apply_failure_leaves_memory_byte_identical(
            self, workbench, monkeypatch, stage):
        scene, _, _, executor, ssm = workbench
        fid = 0
        patch = executor.execute(
            ApiCall("analyze_frame", fid, "describe all objects"), ssm)
        before = serialize(ssm)[0]

        def boom(*args, **kwargs):
            raise RuntimeError(f"injected failure in {stage}")

        monkeypatch.setattr(apis_module, stage, boom)
        updated, report = apply_patch(ssm, patch)
        assert updated is ssm
        assert serialize(ssm)[0] == before
        assert "injected failure" in report.failure

    def test_analyze_frame_sweep_reaches_truth_fixed_point(self, workbench):
        """From a bare memory, sweeping analyze_frame over all frames
        converges the track set to exactly the ground-truth objects; a
        second sweep is note-only."""
        from scenemem import SceneMemory, init_frame_memory
        from scenemem.metrics import graph_precision_recall
        from scenemem.spatial import NavLogEntry

        scene, episode, _, executor, _ = workbench
        current = SceneMemory.empty(scene.scene_id, 1, episode.frame_ids)
        current.nav_log = [NavLogEntry(f, "unknown", "t", "stationary")
                           for f in current.frame_ids]
        current.frame_memory = init_frame_memory(current.frame_ids, 2)
        for fid in episode.frame_ids:
            patch = executor.execute(
                ApiCall("analyze_frame", fid, "describe all objects"), current)
            current, _ = apply_patch(current, patch)
        p, r, _, _ = graph_precision_recall(current, scene)
        assert (p, r) == (1.0, 1.0)
        track_count = len(current.graph.tracks)
        notes_before = current.note_count()
        for fid in episode.frame_ids:
            patch = executor.execute(
                ApiCall("analyze_frame", fid, "describe all objects"), current)
            current, report = apply_patch(current, patch)
            assert report.created == []
        assert len(current.graph.tracks) == track_count
        assert current.note_count() > notes_before

    def test_random_patches_apply_or_noop(self, workbench):
        """Fuzz: arbitrary note/edge/evidence combinations either integrate
        cleanly (memory still validates) or fail atomically (memory
        untouched, byte for byte)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        scene, _, _, executor, ssm = workbench
        live = sorted(ssm.graph.tracks)
        baseline = serialize(ssm)[0]
        labels = ("on_top_of", "subpart_of", "contained_in", "attached_to")

        @settings(max_examples=40, deadline=None)
        @given(st.data())
        def run(data):
            frame = data.draw(st.sampled_from(ssm.frame_ids + (777,)))
            patch = Patch(provenance=ApiCall("analyze_frame", frame, "fuzz"))
            for _ in range(data.draw(st.integers(0, 3))):
                kind = data.draw(st.sampled_from(["node", "pending"]))
                target = data.draw(st.sampled_from(live + [999]))
                patch.notes.append(PatchNote(kind, target, "fuzz note"))
            for _ in range(data.draw(st.integers(0, 3))):
                a = data.draw(st.sampled_from(live + [999]))
                b = data.draw(st.sampled_from(live + [998]))
                if a != b:
                    patch.new_edges.append(RelationEdge(
                        a, b, data.draw(st.sampled_from(labels)), "fuzz", frame))
            if not patch.is_empty and data.draw(st.booleans()):
                patch.evidence.append((frame, (0, 0, 5, 5)))
            updated, report = apply_patch(ssm, patch)
            if report.failure is not None:
                assert updated is ssm
            else:
                updated.validate()
            assert_scratchpad_invariant(updated)
            assert serialize(ssm)[0] == baseline

        run()

    def test_patch_logs_as_canonical_json(self, workbench):
        from scenemem.memory import canonical_json

        scene, _, _, executor, ssm = workbench
        patch = executor.execute(
            ApiCall("analyze_frame", 0, "describe all objects"), ssm)
        text = canonical_json(patch.to_doc())
        doc = json.loads(text)
        assert doc["provenance"]["api"] == "analyze_frame"
        assert canonical_json(patch.to_doc()) == text  # deterministic

    def test_pending_note_out_of_range_fails_cleanly(self, workbench):
        _, _, _, _, ssm = workbench
        patch = Patch(provenance=ApiCall("analyze_frame", 0, "x"),
                      notes=[PatchNote("pending", 5, "ghost note")],
                      evidence=[(0, (0, 0, 1, 1))])
        updated, report = apply_patch(ssm, patch)
        assert updated is ssm
        assert "pending note index" in report.failure


# ---------------------------------------------------------------------------
# Oracle: the per-API methods ApiExecutor.execute replaced, kept verbatim
# apart from taking the executor as an argument, and from find_objects (and
# so the analyze_objects fallback) sending an analyze with no targets that
# asks to discover, where it once sent a one-frame detect. Node mode has no
# benchmark workload, so this equivalence is its contract.
# ---------------------------------------------------------------------------

def reference_visible_targets(executor, ssm, frame, only=None) -> list[dict]:
    targets = []
    ids = only if only is not None else sorted(ssm.graph.tracks)
    for nid in ids:
        track = ssm.graph.tracks.get(nid)
        if track is None or frame.id not in track.visible_frames:
            continue
        bbox = executor._projected_bbox(track, frame)
        if bbox is None:
            bbox = (0, 0, frame.intrinsics.width - 1, frame.intrinsics.height - 1)
        targets.append({"node_id": nid, "bbox": list(bbox),
                        "caption": track.caption})
    return targets


def reference_execute(executor, call, ssm) -> Patch:
    try:
        executor.episode.frame(call.frame_id)
    except DatasetError as exc:
        return Patch(provenance=call, failure=str(exc))
    if call.kind == "find_objects":
        return reference_find_objects(executor, call, ssm)
    if call.kind == "analyze_objects":
        return reference_analyze_objects(executor, call, ssm)
    if call.kind == "analyze_frame":
        return reference_analyze_frame(executor, call, ssm)
    return Patch(provenance=call)


def reference_find_objects(executor, call, ssm) -> Patch:
    frame = executor.episode.frame(call.frame_id)
    request = BackendRequest(kind="analyze", frame_id=call.frame_id,
                             query=call.query,
                             payload={"targets": [], "discover": True},
                             frame_sizes=(frame.size,))
    try:
        response = executor.backend.call(request)
    except BackendError as exc:
        return Patch(provenance=call, failure=str(exc))
    patch = Patch(provenance=call)
    reference_absorb_analysis(executor, patch, response, frame, call,
                              allowed_nodes=set(), bboxes={}, allow_new=True)
    return patch


def reference_analyze_objects(executor, call, ssm) -> Patch:
    frame = executor.episode.frame(call.frame_id)
    known, skipped = [], []
    for nid in call.node_ids or ():
        if nid in ssm.graph.tracks:
            known.append(nid)
        else:
            skipped.append(nid)
    targets = reference_visible_targets(executor, ssm, frame, tuple(known))
    if not targets:
        fallback = reference_find_objects(
            executor, ApiCall("find_objects", call.frame_id, call.query), ssm)
        fallback.provenance = call
        fallback.skipped_nodes = skipped + fallback.skipped_nodes
        return fallback
    request = BackendRequest(kind="analyze", frame_id=call.frame_id,
                             query=call.query,
                             payload={"targets": targets, "discover": False},
                             frame_sizes=(frame.size,))
    try:
        response = executor.backend.call(request)
    except BackendError as exc:
        return Patch(provenance=call, failure=str(exc), skipped_nodes=skipped)
    patch = Patch(provenance=call, skipped_nodes=skipped)
    bbox_by_id = {t["node_id"]: tuple(t["bbox"]) for t in targets}
    reference_absorb_analysis(executor, patch, response, frame, call,
                              allowed_nodes=set(bbox_by_id), bboxes=bbox_by_id,
                              allow_new=False)
    return patch


def reference_analyze_frame(executor, call, ssm) -> Patch:
    frame = executor.episode.frame(call.frame_id)
    targets = reference_visible_targets(executor, ssm, frame)
    request = BackendRequest(kind="analyze", frame_id=call.frame_id,
                             query=call.query,
                             payload={"targets": targets, "discover": True},
                             frame_sizes=(frame.size,))
    try:
        response = executor.backend.call(request)
    except BackendError as exc:
        return Patch(provenance=call, failure=str(exc))
    patch = Patch(provenance=call)
    bbox_by_id = {t["node_id"]: tuple(t["bbox"]) for t in targets}
    reference_absorb_analysis(executor, patch, response, frame, call,
                              allowed_nodes=set(ssm.graph.tracks), bboxes=bbox_by_id,
                              allow_new=True)
    return patch


def reference_absorb_analysis(executor, patch, response, frame, call, allowed_nodes,
                              bboxes, allow_new) -> None:
    if allow_new:
        for wire in response.new_objects:
            idx = len(patch.new_detections)
            patch.new_detections.append(
                apis_module.detection_from_wire(wire, frame, executor.config))
            patch.evidence.append((frame.id, wire.bbox))
            if wire.note:
                patch.notes.append(PatchNote("pending", idx, wire.note))
    for nid, text in response.notes:
        if nid not in allowed_nodes:
            patch.skipped_nodes.append(nid)
            continue
        patch.notes.append(PatchNote("node", nid, text))
        bbox = bboxes.get(nid, (0, 0, frame.intrinsics.width - 1,
                                frame.intrinsics.height - 1))
        patch.evidence.append((call.frame_id, bbox))


class _DigestLog(ScriptedBackend):
    """The scripted oracle, logging the digest of every round trip
    (retries included). With ``stray`` each analyze answer also notes node
    ids 0-9 and an unknown one, whether they were targets or not, and
    reports new objects even when not asked to discover."""

    def __init__(self, scene, stray=False):
        super().__init__(scene)
        self.stray = stray
        self.digests: list[str] = []

    def raw_call(self, request):
        self.digests.append(request.digest())
        return super().raw_call(request)

    def _handle_analyze(self, request):
        doc = super()._handle_analyze(request)
        if self.stray:
            doc["notes"] += [{"node_id": nid, "note": f"stray note {nid}"}
                             for nid in [*range(10), 424242]]
            doc["new_objects"] += self._detect_item(request.frame_id,
                                                    False)["detections"]
        return doc


_ORACLE_TARGETS = ("visible", "hidden", "mixed", "duplicates", "bare", "unknown-frame")
_ORACLE_BACKENDS = {"clean": None, "stray": None,
                    "transport-then-retry": ("transport", 1),
                    "transport-twice": ("transport", 2), "schema": ("schema", 1),
                    "error-item": ("item", 1)}


class TestExecuteMatchesReference:
    """execute sends the requests, and builds the patches, the three
    per-API methods did: for every API kind, targets visible or not, known
    ids mixed with unknown and duplicate ones, a memory without tracks, an
    unknown frame, answers naming nodes that were no target or objects
    nobody asked to discover, and each backend failure mode."""

    @staticmethod
    def _case(scene, ssm, kind, targets):
        fid = 0
        visible = sorted(tid for tid, t in ssm.graph.tracks.items()
                         if fid in t.visible_frames)
        hidden = sorted(set(ssm.graph.tracks) - set(visible))
        assert visible and hidden, "fixture scene needs visible and hidden tracks"
        memory = ssm
        if targets == "visible":
            ids = visible[:2]
        elif targets == "hidden":
            ids = hidden[:2]
        elif targets == "mixed":
            ids = [visible[0], 424242, hidden[0], 999]
        elif targets == "duplicates":
            ids = [visible[0], visible[0], 424242, 424242, visible[-1]]
        else:
            ids = [visible[0]]
        if targets == "bare":
            memory = SceneMemory.empty(scene.scene_id, 1, scene.episode().frame_ids)
            memory.nav_log = [NavLogEntry(f, "unknown", "t", "stationary")
                              for f in memory.frame_ids]
            memory.frame_memory = init_frame_memory(memory.frame_ids, 2)
        if targets == "unknown-frame":
            fid = 777
        query = "" if kind == "retrieve_frame" else "describe all objects"
        call = ApiCall(kind, fid, query, tuple(ids) if kind == "analyze_objects" else None)
        return memory, call

    @pytest.mark.parametrize("backend_case", list(_ORACLE_BACKENDS))
    @pytest.mark.parametrize("targets", _ORACLE_TARGETS)
    @pytest.mark.parametrize("kind", apis_module.API_KINDS)
    def test_same_requests_and_patch(self, workbench, kind, targets, backend_case):
        scene, episode, _, _, ssm = workbench
        memory, call = self._case(scene, ssm, kind, targets)
        runs = []
        for run in (reference_execute, ApiExecutor.execute):
            backend = _DigestLog(scene, stray=backend_case == "stray")
            if _ORACLE_BACKENDS[backend_case] is not None:
                mode, times = _ORACLE_BACKENDS[backend_case]
                kinds = ("detect",) if mode == "item" else ("detect", "analyze")
                for request_kind in kinds:
                    backend.fail(request_kind, times, mode)
            patch = run(ApiExecutor(episode, backend, EngineConfig()), call, memory)
            runs.append((canonical_json(patch.to_doc()), backend.digests,
                         backend.call_counts))
        assert runs[1] == runs[0]
        # detect is the build's request: the error-item case plants an item
        # failure on a detect that never comes
        assert runs[1][2]["detect"] == 0
        if kind != "retrieve_frame" and targets != "unknown-frame":
            assert runs[0][1], "the case must reach the backend"


def test_node_mode_sends_the_builds_detect_only(small_scene):
    """A node-mode run with a lossy detector: the build sends the one
    detect, and every loop call sends one analyze; find_objects and the
    analyze_objects fallback both send it with no targets, asking to
    discover. Seed 10 is a run whose build misses an object outright, so
    the reasoner also calls find_objects (seeds 0-9 never do)."""
    class AnalyzeLog(ScriptedBackend):
        def __init__(self, scene):
            super().__init__(scene, RuleReasoner(), miss_prob=0.6, seed=10)
            self.payloads: list[dict] = []

        def _handle_analyze(self, request):
            self.payloads.append(request.payload)
            return super()._handle_analyze(request)

    cfg = EngineConfig(api_mode="node")
    episode = small_scene.episode()
    backend = AnalyzeLog(small_scene)
    ssm = build_ssm(episode, backend, cfg)
    queries = [EpisodeQuery(q.question, cfg.max_api_calls, small_scene.scene_id)
               for q in generate_questions(small_scene)]
    batch = run_episode_batch(queries, ssm.copy, episode, backend, cfg)
    assert not batch.failures
    assert backend.call_counts["detect"] == 1
    calls = [r.call.kind for a in batch.answers for r in a.transcript]
    assert len(backend.payloads) == len(calls)
    searched = {kind for kind, payload in zip(calls, backend.payloads)
                if payload == {"targets": [], "discover": True}}
    assert searched == {"find_objects", "analyze_objects"}
