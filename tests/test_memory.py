"""Frame memory, scratchpad, canonical serialization and persistence.

The canonical form is pinned by hand-written golden files; round trips are
checked byte-for-byte."""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import struct
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemem import (ApiCall, ApiExecutor, Embedding, EngineConfig, EpisodeQuery,
                      FrameMemory, Note, PointCloud, RelationEdge, RuleReasoner,
                      SceneMemory, ScriptedBackend, Track, append_frame, apply_patch,
                      build_ssm, deserialize, generate_scene, init_frame_memory,
                      load_dir, run_episode_batch, save_dir, serialize)
import scenemem.memory as memory_module
from scenemem.graph import CloudSummary
from scenemem.memory import MemoryError_, ParseError, SerializationError
from scenemem.spatial import NavLogEntry
from scenemem.synth import generate_questions

from conftest import rng

GOLDEN = Path(__file__).parent / "golden"


# -- frame memory -------------------------------------------------------------

class TestInitFrameMemory:
    def test_25_frames_pick_5(self):
        fm = init_frame_memory(list(range(25)), 5)
        assert fm.frames == (0, 6, 12, 18, 24)
        assert fm.initial_count == 5

    def test_single_frame_collapse(self):
        fm = init_frame_memory([42], 5)
        assert fm.frames == (42,)

    def test_100_frames_pick_4(self):
        fm = init_frame_memory(list(range(100)), 4)
        assert fm.frames == (0, 33, 66, 99)

    def test_n_img_one_takes_middle(self):
        assert init_frame_memory(list(range(11)), 1).frames == (5,)

    def test_non_contiguous_ids(self):
        fm = init_frame_memory([10, 20, 30, 40, 50], 3)
        assert fm.frames == (10, 30, 50)

    def test_empty_episode_rejected(self):
        with pytest.raises(MemoryError_):
            init_frame_memory([], 3)

    @given(st.integers(1, 60), st.integers(1, 12))
    @settings(max_examples=40)
    def test_selection_properties(self, n, n_img):
        ids = list(range(0, 3 * n, 3))
        fm = init_frame_memory(ids, n_img)
        assert len(fm.frames) == len(set(fm.frames))
        assert len(fm.frames) <= min(n, n_img)
        assert set(fm.frames) <= set(ids)
        if n_img > 1:
            assert fm.frames[0] == ids[0]
            assert fm.frames[-1] == ids[-1]


class TestAppendFrame:
    def _fm(self):
        return init_frame_memory(list(range(10)), 3)

    def test_append_new(self):
        fm = self._fm()
        out = append_frame(fm, 1)
        assert len(out) == len(fm) + 1
        assert out.frames[-1] == 1

    def test_append_existing_unchanged(self):
        fm = self._fm()
        assert append_frame(fm, fm.frames[0]) is fm

    def test_unknown_frame_rejected(self):
        with pytest.raises(MemoryError_):
            append_frame(self._fm(), 99)

    def test_no_eviction_over_many_appends(self):
        fm = init_frame_memory(list(range(60)), 3)
        initial = len(fm)
        added = 0
        for fid in range(60):
            if fid not in fm:
                fm = append_frame(fm, fid)
                added += 1
        assert len(fm) == initial + added == 60

    def test_monotone_growth(self):
        fm = init_frame_memory(list(range(20)), 4)
        sizes = [len(fm)]
        for fid in (3, 7, 3, 11, 7):
            fm = append_frame(fm, fid)
            sizes.append(len(fm))
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))


# -- scene memory fixtures -----------------------------------------------------

def golden_one_track() -> SceneMemory:
    ssm = SceneMemory.empty("golden-scene", 5, [0, 5])
    track = Track(id=0, cloud=None, visual=None, language=None,
                  caption="red mug", caption_history=("red mug",),
                  room_id="floor0/0", floor_id="floor0", room_label="kitchen",
                  visible_frames=(0, 5),
                  summary=CloudSummary(centroid=(0.25, -1.5, 0.75),
                                       extent=(0.1, 0.2, 0.3), count=12))
    ssm.create_track(track)
    ssm.add_note(0, "handle chipped on the left side", "analyze_objects",
                 "inspect the mug", 5)
    ssm.nav_log = [
        NavLogEntry(0, "kitchen", "view of kitchen: red mug", "stationary", (0,)),
        NavLogEntry(5, "kitchen", "closer view of the red mug", "forward", (0,)),
    ]
    ssm.frame_memory = init_frame_memory([0, 5], 2)
    return ssm


def random_ssm(seed: int) -> SceneMemory:
    """Randomized but invariant-respecting memory for round-trip tests."""
    g = rng(seed)
    n_frames = int(g.integers(1, 9))
    frame_ids = sorted(set(int(x) for x in g.integers(0, 60, n_frames)))
    ssm = SceneMemory.empty(f"scene-{seed}", int(g.integers(1, 21)), frame_ids)
    n_tracks = int(g.integers(0, 7))
    for tid in range(n_tracks):
        visible = tuple(sorted(set(int(f) for f in g.choice(
            frame_ids, size=int(g.integers(1, len(frame_ids) + 1)), replace=False))))
        cloud = None
        summary = None
        if g.random() < 0.7:
            cloud = PointCloud(g.uniform(-5, 5, size=(int(g.integers(1, 40)), 3)))
        elif g.random() < 0.5:
            summary = CloudSummary(tuple(float(x) for x in g.uniform(-5, 5, 3)),
                                   tuple(float(x) for x in g.uniform(0, 2, 3)),
                                   int(g.integers(1, 100)))
        track = Track(id=tid, cloud=cloud,
                      visual=Embedding(g.standard_normal(8), "visual")
                      if g.random() < 0.5 else None,
                      language=None, caption=f"object {tid}",
                      caption_history=(f"object {tid}", "seen again")[:int(g.integers(1, 3))],
                      room_id=f"floor0/{int(g.integers(0, 3))}" if g.random() < 0.5 else None,
                      floor_id="floor0" if g.random() < 0.8 else None,
                      room_label=str(g.choice(["kitchen", "office"]))
                      if g.random() < 0.5 else None,
                      visible_frames=visible, summary=summary)
        ssm.create_track(track)
        for _ in range(int(g.integers(0, 3))):
            ssm.add_note(tid, f"note {int(g.integers(0, 1000))}", "analyze_frame",
                         "query text", int(g.choice(frame_ids)))
    labels = ("on_top_of", "subpart_of", "contained_in", "attached_to")
    if n_tracks >= 2:
        for _ in range(int(g.integers(0, 5))):
            a, b = g.choice(n_tracks, size=2, replace=False)
            edge = RelationEdge(int(a), int(b), labels[int(g.integers(0, 4))],
                                f"justification {int(g.integers(0, 50))}",
                                int(g.choice(frame_ids)))
            ssm.graph.add_edges([edge])
    for i, fid in enumerate(frame_ids):
        visible = tuple(tid for tid in range(n_tracks)
                        if fid in ssm.graph.tracks[tid].visible_frames)
        ssm.nav_log.append(NavLogEntry(
            fid, str(g.choice(["kitchen", "office", "unknown"])),
            f"view {i}", str(g.choice(["stationary", "forward", "turn_left"])),
            visible))
    ssm.frame_memory = init_frame_memory(frame_ids, int(g.integers(1, 6)))
    if g.random() < 0.3:
        del ssm.frame_locators[frame_ids[-1]]  # renders as a null suffix
    return ssm


def _reference_dumps(doc) -> str:
    """``json.dumps`` in the canonical form: sorted keys, no spaces, raw
    non-ASCII. json.dumps has no float format, so each float travels as a
    placeholder string and is written with exactly 4 decimals afterwards."""
    floats: list[float] = []

    def swap(x):
        if isinstance(x, float):
            floats.append(x)
            return f"\0float{len(floats) - 1}"
        if isinstance(x, dict):
            return {k: swap(v) for k, v in x.items()}
        if isinstance(x, list):
            return [swap(v) for v in x]
        return x

    def fixed4(match) -> str:
        s = f"{floats[int(match.group(1))]:.4f}"
        return "0.0000" if s == "-0.0000" else s

    text = json.dumps(swap(doc), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    text, n = re.subn(r'"\\u0000float(\d+)"', fixed4, text)
    assert n == len(floats)
    return text


def reference_serialize(ssm: SceneMemory) -> str:
    """The documented version-2 layout rendered in full, with no memo: the
    whole document built as one dict, then ``json.dumps``."""
    ssm.validate()
    rows = []
    for tid in sorted(ssm.graph.tracks):
        t = ssm.graph.tracks[tid]
        centroid = extent = points = None
        if t.cloud is not None and len(t.cloud.points):
            pts = t.cloud.points
            centroid = [float(x) for x in pts.mean(axis=0)]
            extent = [float(x) for x in pts.max(axis=0) - pts.min(axis=0)]
            points = len(pts)
        elif t.cloud is None and t.summary is not None:
            centroid = [float(x) for x in t.summary.centroid]
            extent = [float(x) for x in t.summary.extent]
            points = t.summary.count
        rows.append([t.id, t.caption, list(t.caption_history), t.room_id,
                     t.room_label, t.floor_id, list(t.visible_frames),
                     centroid, extent, points])
    edges = sorted(ssm.graph.edges,
                   key=lambda e: (e.subject_id, e.object_id, e.relation, e.source_frame))
    locs = [ssm.frame_locators.get(fid) for fid in ssm.frame_ids]
    present = [loc for loc in locs if loc is not None]
    prefix = ""
    if present:
        # the longest common prefix of a set is that of its least and
        # greatest members
        lo, hi = min(present), max(present)
        prefix = lo[:next((i for i, (a, b) in enumerate(zip(lo, hi)) if a != b),
                          len(lo))]
    doc = {
        "version": 2,
        "episode": {
            "scene_id": ssm.scene_id,
            "stride": ssm.stride,
            "frame_ids": list(ssm.frame_ids),
            "frame_locators": {"prefix": prefix,
                               "suffixes": [None if loc is None else loc[len(prefix):]
                                            for loc in locs]},
            "frame_memory": {"frames": list(ssm.frame_memory.frames),
                             "initial_count": ssm.frame_memory.initial_count},
        },
        "scene_graph": {
            "tracks": {"columns": ["id", "caption", "caption_history", "room_id",
                                   "room_label", "floor_id", "visible_frames",
                                   "centroid", "extent", "points"],
                       "rows": rows},
            "edges": {"columns": ["subject_id", "relation", "object_id",
                                  "justification", "source_frame"],
                      "rows": [[e.subject_id, e.relation, e.object_id,
                                e.justification, e.source_frame] for e in edges]}},
        "scratchpad": [{"node_id": nid,
                        "notes": [{"text": n.text, "source_api": n.source_api,
                                   "query": n.query, "evidence_frame": n.evidence_frame}
                                  for n in ssm.scratchpad[nid]]}
                       for nid in sorted(ssm.scratchpad)],
        "navigation_log": {
            "columns": ["frame_id", "room_label", "fov_tag", "motion_label",
                        "visible_node_ids"],
            "rows": [[e.frame_id, e.room_label, e.fov_tag, e.motion_label,
                      sorted(e.visible_node_ids)] for e in ssm.nav_log]},
    }
    return _reference_dumps(doc) + "\n"


def assert_serializes_like_reference(ssm: SceneMemory) -> None:
    """Cold and warm row cache, and a copy sharing every record, all render
    the reference bytes."""
    expected = reference_serialize(ssm)
    assert serialize(ssm)[0] == expected
    assert serialize(ssm)[0] == expected
    assert serialize(ssm.copy())[0] == expected


@pytest.fixture(scope="module")
def large_builds():
    """miss_prob -> (scene, episode, backend, memory) of an 8-room x
    3-object scene, built once per detector miss probability."""
    scene = generate_scene(8, 3, seed=1000)
    episode = scene.episode()
    built = {}

    def get(miss_prob: float):
        if miss_prob not in built:
            backend = ScriptedBackend(scene, reasoner=RuleReasoner(), miss_prob=miss_prob)
            built[miss_prob] = (scene, episode, backend,
                                build_ssm(episode, backend, EngineConfig()))
        return built[miss_prob]
    return get


# -- scratchpad ------------------------------------------------------------------

class TestScratchpad:
    def test_first_note(self):
        ssm = golden_one_track()
        assert len(ssm.scratchpad[0]) == 1

    def test_unknown_node_rejected(self):
        ssm = golden_one_track()
        with pytest.raises(MemoryError_):
            ssm.add_note(7, "x", "analyze_frame", "q", 0)

    def test_identical_texts_both_kept(self):
        ssm = golden_one_track()
        ssm.add_note(0, "same text", "find_objects", "q", 0)
        ssm.add_note(0, "same text", "find_objects", "q", 5)
        texts = [n.text for n in ssm.scratchpad[0]]
        assert texts.count("same text") == 2

    def test_track_creation_creates_entry_atomically(self):
        ssm = SceneMemory.empty("s", 1, [0])
        track = Track(id=0, cloud=PointCloud([(0, 0, 0)]), visual=None,
                      language=None, caption="c", caption_history=("c",),
                      visible_frames=(0,))
        ssm.create_track(track)
        assert set(ssm.scratchpad) == set(ssm.graph.tracks)

    def test_note_source_api_validated(self):
        with pytest.raises(MemoryError_):
            Note("x", "bogus_api", "q", 0)


# -- serialization ----------------------------------------------------------------

class TestSerialize:
    def test_empty_matches_golden(self):
        ssm = SceneMemory.empty("empty-scene", 1, [])
        text, refs = serialize(ssm)
        assert text == (GOLDEN / "empty_ssm.json").read_text()
        assert refs == []

    def test_one_track_matches_golden(self):
        text, refs = serialize(golden_one_track())
        assert text == (GOLDEN / "one_track_ssm.json").read_text()
        assert refs == [(0, "frame://golden-scene/0"), (5, "frame://golden-scene/5")]

    def test_serialize_twice_byte_identical(self):
        ssm = random_ssm(1)
        assert serialize(ssm)[0] == serialize(ssm)[0]

    def test_frame_refs_follow_frame_memory_order(self):
        ssm = golden_one_track()
        ssm.frame_memory = append_frame(
            init_frame_memory([0, 5], 1), 0)
        refs = serialize(ssm)[1]
        assert tuple(fid for fid, _ in refs) == ssm.frame_memory.frames

    def test_refuses_scratchpad_mismatch(self):
        ssm = golden_one_track()
        del ssm.scratchpad[0]
        with pytest.raises(SerializationError):
            serialize(ssm)

    def test_refuses_dead_edge(self):
        ssm = random_ssm(3)
        ssm.graph.edges.append(RelationEdge(998, 999, "on_top_of", "", 0))
        with pytest.raises(SerializationError):
            serialize(ssm)

    def test_refuses_nav_gap(self):
        ssm = golden_one_track()
        ssm.nav_log = ssm.nav_log[:1]
        with pytest.raises(SerializationError):
            serialize(ssm)

    def test_copy_serializes_identically(self):
        ssm = random_ssm(4)
        assert serialize(ssm.copy())[0] == serialize(ssm)[0]

    def test_negative_zero_normalized(self):
        from scenemem.memory import canonical_json

        assert canonical_json(-0.0) == "0.0000"
        assert canonical_json(-1e-9) == "0.0000"
        assert canonical_json([1.0, -2.56789]) == "[1.0000,-2.5679]"

    def test_nonfinite_float_refused(self):
        from scenemem.memory import canonical_json

        with pytest.raises(SerializationError):
            canonical_json(float("nan"))
        with pytest.raises(SerializationError):
            canonical_json({"x": float("inf")})


class TestSerializeMatchesReference:
    """``serialize`` splices cached rows; its text must equal a full render
    by the reference renderer above, whatever the cache holds."""

    def test_random_memories(self):
        for seed in range(12):
            assert_serializes_like_reference(random_ssm(seed))

    def test_golden_files(self):
        empty = SceneMemory.empty("empty-scene", 1, [])
        assert reference_serialize(empty) == (GOLDEN / "empty_ssm.json").read_text()
        assert_serializes_like_reference(empty)
        one = golden_one_track()
        assert reference_serialize(one) == (GOLDEN / "one_track_ssm.json").read_text()
        assert_serializes_like_reference(one)

    @pytest.mark.parametrize("miss_prob", [0.0, 0.4])
    def test_built_memory_and_every_batch_final_memory(self, large_builds, miss_prob):
        scene, episode, backend, ssm = large_builds(miss_prob)
        assert_serializes_like_reference(ssm)
        cfg = EngineConfig()
        queries = [EpisodeQuery(q.question, cfg.max_api_calls, scene.scene_id)
                   for q in generate_questions(scene)]
        batch = run_episode_batch(queries, ssm.copy, episode, backend, cfg)
        assert batch.answers and not batch.failures
        assert any(a.final_memory is not ssm for a in batch.answers)
        base = json.loads(serialize(ssm)[0])
        edited = 0
        for a in batch.answers:
            text = serialize(a.final_memory)[0]
            assert text == reference_serialize(a.final_memory)
            doc = json.loads(text)
            edited += any(doc[k] != base[k] for k in ("scene_graph", "navigation_log"))
        # with a missing detector, patches replace tracks and nav entries
        # whose rows the cache already holds
        assert edited > 0 or miss_prob == 0.0
        assert serialize(ssm)[0] == reference_serialize(ssm)

    def test_in_place_edits_are_never_served_stale(self, large_builds):
        """Records are replaced, never edited in place: each replacement of
        a track or nav entry renders the reference bytes at once."""
        _, _, _, built = large_builds(0.0)
        ssm = built.copy()
        serialize(ssm)
        by_room: dict[str, Track] = {}
        for t in ssm.graph.tracks.values():
            by_room.setdefault(t.room_id, t)
        moved, target = list(by_room.values())[:2]
        assert moved.room_id != target.room_id
        # move a track into another room, as build_ssm places tracks
        moved = ssm.place_track(replace(moved, cloud=target.cloud))
        assert moved.room_id == target.room_id
        ssm.graph.replace_track(moved)
        assert_serializes_like_reference(ssm)
        # one field at a time, each by a replacement
        frame = next(f for f in ssm.frame_ids if f not in moved.visible_frames)
        for field_name, value in (
                ("room_label", "garage"), ("room_id", "floor0/99"),
                ("floor_id", "floor9"), ("caption", "a \"quoted\" caption"),
                ("caption_history", moved.caption_history + ("another caption",)),
                ("visible_frames", moved.visible_frames + (frame,))):
            moved = replace(moved, **{field_name: value})
            ssm.graph.replace_track(moved)
            assert_serializes_like_reference(ssm)
        for field_name, value in (("room_label", "hall"), ("fov_tag", "new view"),
                                  ("motion_label", "turn_left"),
                                  ("visible_node_ids", (moved.id,))):
            ssm.nav_log[0] = replace(ssm.nav_log[0], **{field_name: value})
            assert_serializes_like_reference(ssm)
        # a locator changed, then dropped, in a new locator map
        first = ssm.frame_ids[0]
        ssm.frame_locators = {**ssm.frame_locators, first: "file:///elsewhere.png"}
        assert_serializes_like_reference(ssm)
        ssm.frame_locators = {f: loc for f, loc in ssm.frame_locators.items()
                              if f != first}
        assert_serializes_like_reference(ssm)
        # and back: the original memory still renders its own bytes
        assert serialize(built)[0] == reference_serialize(built)

    _chars = st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028",
                         "\ud800", "\udfff", "\udbff", "é", "漢", "😀"]))
    _texts = st.text(alphabet=_chars, max_size=12)

    @given(captions=st.lists(_texts, min_size=1, max_size=3), note=_texts,
           fov=_texts, edit=_texts)
    @settings(max_examples=60)
    def test_arbitrary_strings(self, captions, note, fov, edit):
        ssm = SceneMemory.empty("s\"\\", 1, [0, 1])
        ssm.create_track(Track(id=0, cloud=PointCloud([(0.5, -1.0, 2.0)]),
                               visual=None, language=None, caption=captions[0],
                               caption_history=tuple(captions), room_label=fov or None,
                               visible_frames=(0,)))
        ssm.add_note(0, note, "analyze_frame", fov, 1)
        ssm.nav_log = [NavLogEntry(0, note, fov, "stationary", (0,)),
                       NavLogEntry(1, fov, note, "forward", ())]
        ssm.frame_memory = init_frame_memory([0, 1], 2)
        assert_serializes_like_reference(ssm)
        ssm.graph.replace_track(replace(ssm.graph.tracks[0], caption=edit))
        ssm.nav_log[1] = replace(ssm.nav_log[1], fov_tag=edit)
        assert_serializes_like_reference(ssm)


class TestRoundTrip:
    def test_deserialize_recovers_golden(self):
        ssm = deserialize((GOLDEN / "one_track_ssm.json").read_text())
        assert ssm.scene_id == "golden-scene"
        assert ssm.graph.tracks[0].caption == "red mug"
        assert ssm.graph.tracks[0].summary.count == 12
        assert ssm.graph.tracks[0].cloud is None
        assert ssm.frame_memory.frames == (0, 5)
        assert ssm.scratchpad[0][0].evidence_frame == 5

    def test_serialize_deserialize_serialize_byte_identical(self):
        for seed in range(20):
            ssm = random_ssm(seed)
            once = serialize(ssm)[0]
            again = serialize(deserialize(once))[0]
            assert once == again, f"seed {seed}"

    def test_missing_node_edge_names_path(self):
        text = (GOLDEN / "one_track_ssm.json").read_text()
        bad = text.replace('"source_frame"],"rows":[]',
                           '"source_frame"],"rows":[[0,"on_top_of",3,"",0]]')
        assert bad != text
        with pytest.raises(ParseError) as err:
            deserialize(bad)
        assert "$.scene_graph.edges.rows[0].object_id" in str(err.value)

    def test_bad_motion_label_names_path(self):
        text = (GOLDEN / "one_track_ssm.json").read_text()
        with pytest.raises(ParseError) as err:
            deserialize(text.replace('"stationary"', '"sliding"'))
        assert "navigation_log.rows[0].motion_label" in str(err.value)

    def test_frame_memory_outside_episode_rejected(self):
        text = (GOLDEN / "one_track_ssm.json").read_text()
        with pytest.raises(ParseError) as err:
            deserialize(text.replace('"frames":[0,5]', '"frames":[0,7]'))
        assert "frame_memory" in str(err.value)

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            deserialize("not json at all")

    def test_scratchpad_node_set_must_match(self):
        text = (GOLDEN / "one_track_ssm.json").read_text()
        with pytest.raises(ParseError) as err:
            deserialize(text.replace('"scratchpad":[{"node_id":0,', '"scratchpad":[{"node_id":1,'))
        assert "scratchpad" in str(err.value)


# the one-track golden memory in the layout before version 2, as every
# earlier ssm.json was written
V1_ONE_TRACK = (
    '{"episode":{"frame_count":2,"frame_ids":[0,5],"frame_locators":{"0":'
    '"frame://golden-scene/0","5":"frame://golden-scene/5"},"frame_memory":'
    '{"frames":[0,5],"initial_count":2},"scene_id":"golden-scene","stride":5},'
    '"navigation_log":[{"fov_tag":"view of kitchen: red mug","frame_id":0,'
    '"motion_label":"stationary","room_label":"kitchen","visible_node_ids":[0]},'
    '{"fov_tag":"closer view of the red mug","frame_id":5,"motion_label":'
    '"forward","room_label":"kitchen","visible_node_ids":[0]}],"scene_graph":'
    '{"edges":[],"tracks":[{"caption":"red mug","caption_history":["red mug"],'
    '"cloud":{"centroid":[0.2500,-1.5000,0.7500],"extent":[0.1000,0.2000,0.3000],'
    '"points":12},"floor_id":"floor0","id":0,"room_id":"floor0/0","room_label":'
    '"kitchen","visible_frames":[0,5]}]},"scratchpad":[{"node_id":0,"notes":'
    '[{"evidence_frame":5,"query":"inspect the mug","source_api":'
    '"analyze_objects","text":"handle chipped on the left side"}]}]}\n')


class TestStrictParse:
    """Every departure from the version-2 layout raises a ParseError whose
    path names the offending part."""

    @staticmethod
    def _golden() -> dict:
        return json.loads((GOLDEN / "one_track_ssm.json").read_text())

    @staticmethod
    def _path_of(doc) -> str:
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        return err.value.path

    def test_v1_document_rejected(self):
        with pytest.raises(ParseError) as err:
            deserialize(V1_ONE_TRACK)
        assert err.value.path == "$.version"
        assert "missing" in str(err.value)

    @pytest.mark.parametrize("version", [1, 3, "2", 2.0, True, None])
    def test_other_versions_rejected(self, version):
        doc = self._golden()
        doc["version"] = version
        assert self._path_of(doc) == "$.version"

    @pytest.mark.parametrize("table,path", [
        (("scene_graph", "tracks"), "$.scene_graph.tracks.columns"),
        (("scene_graph", "edges"), "$.scene_graph.edges.columns"),
        (("navigation_log",), "$.navigation_log.columns")])
    def test_columns_must_be_canonical(self, table, path):
        def target(doc):
            for key in table:
                doc = doc[key]
            return doc
        swapped = self._golden()
        cols = target(swapped)["columns"]
        cols[0], cols[1] = cols[1], cols[0]
        assert self._path_of(swapped) == path
        short = self._golden()
        target(short)["columns"].pop()
        assert self._path_of(short) == path
        extra = self._golden()
        target(extra)["columns"].append("note")
        assert self._path_of(extra) == path

    def test_ragged_rows_rejected(self):
        doc = self._golden()
        doc["scene_graph"]["tracks"]["rows"][0].pop()
        assert self._path_of(doc) == "$.scene_graph.tracks.rows[0]"
        doc = self._golden()
        doc["navigation_log"]["rows"][1].append(None)
        assert self._path_of(doc) == "$.navigation_log.rows[1]"
        doc = self._golden()
        doc["scene_graph"]["edges"]["rows"] = [[0, "on_top_of", 0, ""]]
        assert self._path_of(doc) == "$.scene_graph.edges.rows[0]"
        doc = self._golden()
        doc["navigation_log"]["rows"][0] = {"frame_id": 0}
        assert self._path_of(doc) == "$.navigation_log.rows[0]"

    def test_suffixes_must_align_with_frame_ids(self):
        doc = self._golden()
        doc["episode"]["frame_locators"]["suffixes"].pop()
        assert self._path_of(doc) == "$.episode.frame_locators.suffixes"
        doc = self._golden()
        doc["episode"]["frame_locators"]["suffixes"].append("9")
        assert self._path_of(doc) == "$.episode.frame_locators.suffixes"
        doc = self._golden()
        doc["episode"]["frame_locators"]["suffixes"][1] = 5
        assert self._path_of(doc) == "$.episode.frame_locators.suffixes[1]"

    @pytest.mark.parametrize("where,value,path", [
        (("episode", "frame_ids", 1), "5", "$.episode.frame_ids[1]"),
        (("episode", "frame_ids"), 0, "$.episode.frame_ids"),
        (("episode", "frame_memory", "frames", 0), True,
         "$.episode.frame_memory.frames[0]"),
        (("scene_graph", "tracks", "rows", 0, 6, 1), 5.0,
         "$.scene_graph.tracks.rows[0].visible_frames[1]"),
        (("scene_graph", "tracks", "rows", 0, 7), [0.25, -1.5],
         "$.scene_graph.tracks.rows[0].centroid"),
        (("scene_graph", "tracks", "rows", 0, 8, 2), "0.3",
         "$.scene_graph.tracks.rows[0].extent"),
        (("scene_graph", "tracks", "rows", 0, 8, 0), False,
         "$.scene_graph.tracks.rows[0].extent"),
        (("navigation_log", "rows", 1, 4, 0), None,
         "$.navigation_log.rows[1].visible_node_ids[0]")])
    def test_array_faults_name_their_path(self, where, value, path):
        doc = self._golden()
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        assert self._path_of(doc) == path

    def test_partial_cloud_rejected(self):
        doc = self._golden()
        doc["scene_graph"]["tracks"]["rows"][0][7] = None  # centroid only
        assert self._path_of(doc) == "$.scene_graph.tracks.rows[0].centroid"

    def test_null_locator_round_trips(self):
        ssm = golden_one_track()
        del ssm.frame_locators[5]
        text = serialize(ssm)[0]
        assert '"prefix":"frame://golden-scene/0","suffixes":["",null]' in text
        loaded = deserialize(text)
        assert loaded.frame_locators == {0: "frame://golden-scene/0"}
        assert serialize(loaded)[0] == text == reference_serialize(ssm)

    def test_locator_outside_episode_refused(self):
        ssm = golden_one_track()
        ssm.frame_locators[7] = "frame://golden-scene/7"
        with pytest.raises(SerializationError):
            serialize(ssm)


class TestPersistence:
    def test_directory_round_trip(self, tmp_path):
        # clouds and embeddings restored bit for bit; several seeds, so some
        # stored unit vectors have a computed norm other than exactly 1
        for seed in range(12):
            ssm = random_ssm(seed)
            save_dir(ssm, tmp_path / f"mem{seed}")
            loaded = load_dir(tmp_path / f"mem{seed}")
            assert serialize(loaded)[0] == serialize(ssm)[0], f"seed {seed}"
            for tid, track in ssm.graph.tracks.items():
                restored = loaded.graph.tracks[tid]
                if track.cloud is not None:
                    assert restored.cloud.points.tobytes() == track.cloud.points.tobytes()
                if track.visual is not None:
                    assert (restored.visual.vector.tobytes()
                            == track.visual.vector.tobytes())

    def test_reloaded_memory_patches_like_the_original(self, tmp_path):
        """The same analyze_frame patch, applied on each frame to a built
        memory and to its save_dir/load_dir copy, yields byte-identical
        memories: merges re-voxelize reloaded clouds exactly as in-process
        ones."""
        scene = generate_scene(3, 2, seed=0)
        episode = scene.episode()
        cfg = EngineConfig()
        ssm = build_ssm(episode, ScriptedBackend(scene, reasoner=RuleReasoner(),
                                                 miss_prob=0.6), cfg)
        save_dir(ssm, tmp_path / "mem")
        loaded = load_dir(tmp_path / "mem")
        executor = ApiExecutor(episode, ScriptedBackend(scene, reasoner=RuleReasoner()),
                               cfg)
        for fid in episode.frame_ids:
            call = ApiCall("analyze_frame", fid, "describe all objects")
            here, _ = apply_patch(ssm, executor.execute(call, ssm), cfg)
            there, _ = apply_patch(loaded, executor.execute(call, loaded), cfg)
            assert serialize(there)[0] == serialize(here)[0], f"frame {fid}"

    def test_older_binary_format_rejected(self, tmp_path):
        """An older magic, a truncated file, trailing bytes and a stored
        vector that is not unit length each raise ParseError naming the
        side-car file."""
        for seed in (7, 2):  # seed 2: every track has a cloud and a vector
            mem = tmp_path / f"mem{seed}"
            save_dir(random_ssm(seed), mem)
            for name in ("clouds.bin", "embeddings.bin"):
                path = mem / name
                original = path.read_bytes()
                path.write_bytes(original[:7] + b"1" + original[8:])
                with pytest.raises(ParseError, match="bad magic"):
                    load_dir(mem)
                for corrupt in {original[:10], original[:17], original[:-1],
                                original + b"\0"} - {original}:
                    path.write_bytes(corrupt)
                    with pytest.raises(ParseError) as err:
                        load_dir(mem)
                    assert err.value.path == name, len(corrupt)
                path.write_bytes(original)
        path = tmp_path / "mem2" / "embeddings.bin"
        original = path.read_bytes()
        _, _, dim = struct.unpack_from("<IBI", original, 12)
        doubled = np.frombuffer(original, "<f8", dim, 21) * 2
        path.write_bytes(original[:21] + doubled.tobytes() + original[21 + 8 * dim:])
        with pytest.raises(ParseError) as err:
            load_dir(tmp_path / "mem2")
        assert err.value.path == "embeddings.bin"
        assert "unit norm" in str(err.value)

    def test_float32_exact_coordinates_round_trip_bytes(self, tmp_path):
        """Coordinates on the float32 lattice survive save/load with a
        byte-identical canonical form."""
        ssm = SceneMemory.empty("exact", 1, [0])
        pts = (np.array([[1, 2, 3], [5, 6, 7], [-8, 0, 4]], dtype=np.float64)
               / 64.0)
        track = Track(id=0, cloud=PointCloud(pts),
                      visual=Embedding([1.0, 0.0], "visual"),
                      language=Embedding([0.0, 1.0], "language"),
                      caption="c", caption_history=("c",), visible_frames=(0,))
        ssm.create_track(track)
        ssm.nav_log = [NavLogEntry(0, "unknown", "t", "stationary", (0,))]
        ssm.frame_memory = init_frame_memory([0], 1)
        save_dir(ssm, tmp_path / "mem")
        loaded = load_dir(tmp_path / "mem")
        assert serialize(loaded)[0] == serialize(ssm)[0]
        assert np.array_equal(loaded.graph.tracks[0].cloud.points, pts)

    def test_ssm_json_is_canonical_text(self, tmp_path):
        ssm = golden_one_track()
        save_dir(ssm, tmp_path / "mem")
        assert (tmp_path / "mem" / "ssm.json").read_text() == serialize(ssm)[0]

    def test_embeddings_keyed_by_kind(self, tmp_path):
        ssm = SceneMemory.empty("e", 1, [0])
        track = Track(id=0, cloud=PointCloud([(0, 0, 0)]),
                      visual=Embedding([1.0, 2.0], "visual"),
                      language=Embedding([2.0, 1.0], "language"),
                      caption="c", caption_history=("c",), visible_frames=(0,))
        ssm.create_track(track)
        ssm.nav_log = [NavLogEntry(0, "unknown", "t", "stationary", (0,))]
        ssm.frame_memory = init_frame_memory([0], 1)
        save_dir(ssm, tmp_path / "m")
        loaded = load_dir(tmp_path / "m")
        assert loaded.graph.tracks[0].visual.kind == "visual"
        assert loaded.graph.tracks[0].language.kind == "language"
        assert not np.allclose(loaded.graph.tracks[0].visual.vector,
                               loaded.graph.tracks[0].language.vector)


class TestCopyIsolation:
    def test_mutating_copy_leaves_original(self):
        ssm = golden_one_track()
        before = serialize(ssm)[0]
        clone = ssm.copy()
        clone.add_note(0, "new", "analyze_frame", "q", 0)
        clone.frame_memory = append_frame(clone.frame_memory, 5)
        track = clone.graph.tracks[0]
        clone.graph.replace_track(replace(track, caption_history=track.caption_history
                                          + ("extra",)))
        assert serialize(ssm)[0] == before


class TestImmutableRecords:
    """Records are values: edits replace them, copies share them, and the
    serializer's row cache lives exactly as long as they do."""

    @pytest.mark.parametrize("record", [
        golden_one_track().graph.tracks[0],
        golden_one_track().nav_log[0],
        golden_one_track().frame_memory,
    ], ids=["Track", "NavLogEntry", "FrameMemory"])
    def test_every_field_is_frozen(self, record):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))

    def test_copy_shares_every_record(self, small_build):
        ssm = small_build[3]
        clone = ssm.copy()
        assert clone.graph.tracks is not ssm.graph.tracks
        assert clone.nav_log is not ssm.nav_log
        assert clone.scratchpad is not ssm.scratchpad
        assert ssm.graph.tracks and ssm.nav_log
        assert all(clone.graph.tracks[tid] is t for tid, t in ssm.graph.tracks.items())
        assert all(a is b for a, b in zip(clone.nav_log, ssm.nav_log, strict=True))

    def test_row_cache_dies_with_the_lineage(self, small_scene, small_episode):
        """Once every memory built, copied and patched from one build is
        dropped, the row cache holds none of their records."""
        cfg = EngineConfig()
        backend = ScriptedBackend(small_scene, reasoner=RuleReasoner(), miss_prob=0.6)
        ssm = build_ssm(small_episode, backend, cfg)
        queries = [EpisodeQuery(q.question, cfg.max_api_calls, small_scene.scene_id)
                   for q in generate_questions(small_scene)]
        batch = run_episode_batch(queries, ssm.copy, small_episode, backend, cfg)
        memories = [ssm] + [a.final_memory for a in batch.answers]
        records = {id(r): r for m in memories
                   for r in [*m.graph.tracks.values(), *m.nav_log]}
        assert len(records) > len(ssm.graph.tracks) + len(ssm.nav_log)  # patches landed
        for m in memories:
            serialize(m)
        assert all(r in memory_module._ROWS for r in records.values())
        refs = [weakref.ref(r) for r in records.values()]
        cached = len(memory_module._ROWS)
        del ssm, batch, memories, records, m
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(memory_module._ROWS) <= cached - len(refs)
