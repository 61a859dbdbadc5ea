"""Frame memory, scratchpad, canonical serialization and persistence.

The canonical form is pinned by hand-written golden files; round trips are
checked byte-for-byte."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import re
import shutil
import struct
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenemem import (ApiCall, ApiExecutor, Embedding, EngineConfig, EpisodeQuery,
                      FrameMemory, Note, PointCloud, RelationEdge, RuleReasoner,
                      SceneMemory, ScriptedBackend, Track, append_frame, apply_patch,
                      attach_floor_plan, build_ssm, deserialize, generate_scene,
                      init_frame_memory, load_dir, run_episode_batch, save_dir, serialize)
import scenemem.memory as memory_module
from scenemem.apis import Patch, PatchNote
from scenemem.graph import CloudSummary, Detection
from scenemem.memory import (MAX_CAPTION_HISTORY, MemoryError_, ParseError,
                             SerializationError)
from scenemem.spatial import NavLogEntry
from scenemem.synth import generate_questions

from conftest import assert_scratchpad_invariant, rng

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
        assert fm.initial_count == len(fm.frames)
        if n_img > 1:
            assert fm.frames[0] == ids[0]
            assert fm.frames[-1] == ids[-1]


    def test_initial_count_counts_distinct_frames(self):
        """Five frames asked of a three-frame episode: the initial selection
        is the three chosen, so a later append stays outside it."""
        fm = init_frame_memory([0, 5, 10], 5)
        assert (fm.frames, fm.initial_count) == ((0, 5, 10), 3)
        grown = append_frame(fm, 7)
        assert grown.frames[:grown.initial_count] == (0, 5, 10)

    @pytest.mark.parametrize("frames,count", [((0, 5), 9), ((0, 5), 3), ((), 1),
                                              ((0,), -1)])
    def test_initial_count_outside_the_frames_refused(self, frames, count):
        with pytest.raises(MemoryError_, match="initial_count"):
            FrameMemory(frames, count)


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
    ssm.graph.insert_track(track)
    ssm.add_note(0, "handle chipped on the left side", "analyze_objects",
                 "inspect the mug", 5)
    ssm.nav_log = [
        NavLogEntry(0, "kitchen", "view of kitchen: red mug", "stationary"),
        NavLogEntry(5, "kitchen", "closer view of the red mug", "forward"),
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
    room_labels: dict[str, str | None] = {}
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
        if track.room_id is not None:  # a room lies on floor0 and keeps its first label
            track = replace(track, floor_id="floor0", room_label=room_labels.setdefault(
                track.room_id, track.room_label))
        else:  # a track in no room has no label
            track = replace(track, room_label=None)
        ssm.graph.insert_track(track)
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
        ssm.nav_log.append(NavLogEntry(
            fid, str(g.choice(["kitchen", "office", "unknown"])),
            f"view {i}", str(g.choice(["stationary", "forward", "turn_left"]))))
    ssm.frame_memory = init_frame_memory(frame_ids, int(g.integers(1, 6)))
    if g.random() < 0.3:
        del ssm.frame_locators[frame_ids[-1]]  # renders as a null suffix
    return ssm


def two_track_memory() -> SceneMemory:
    """The one-track golden memory plus a second track under the first, and
    the edge between them."""
    ssm = golden_one_track()
    ssm.graph.insert_track(Track(id=1, cloud=None, visual=None, language=None,
                                 caption="saucer", caption_history=("saucer",),
                                 visible_frames=(5,)))
    ssm.graph.add_edges([RelationEdge(0, 1, "on_top_of", "mug rests on it", 5)])
    return ssm


def _detection(frame_id: int, seed: int) -> Detection:
    """A detection from ``frame_id`` with a small cloud and 8-dimensional
    embeddings, the dimension of random_ssm's visual embeddings."""
    g = rng(seed)
    return Detection(frame_id=frame_id, bbox=(0, 0, 4, 4), caption=f"thing {seed}",
                     cloud=PointCloud(g.uniform(-5, 5, size=(int(g.integers(0, 12)), 3))),
                     visual=Embedding(g.standard_normal(8), "visual"),
                     language=Embedding(g.standard_normal(8), "language"))


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
    """The documented version-4 layout rendered in full, with no memo: the
    whole document built as one dict, then ``json.dumps``. The keyframes
    are the navigation-log rows, a caption history writes each run of the
    caption as its length, and only nodes with notes get a scratchpad
    entry."""
    ssm.validate()
    rows = []
    for tid in sorted(ssm.graph.tracks):
        t = ssm.graph.tracks[tid]
        history: list = []
        i = 0
        while i < len(t.caption_history):
            j = i
            while j < len(t.caption_history) and t.caption_history[j] == t.caption:
                j += 1
            if j > i:  # a run of the caption, i..j-1
                history.append(j - i)
                i = j
            else:
                history.append(t.caption_history[i])
                i += 1
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
        rows.append([t.id, t.caption, history, t.room_id,
                     t.room_label, t.floor_id, list(t.visible_frames),
                     centroid, extent, points])
    edges = sorted(ssm.graph.edges,
                   key=lambda e: (e.subject_id, e.object_id, e.relation, e.source_frame))
    locs = [ssm.frame_locators.get(e.frame_id) for e in ssm.nav_log]
    present = [loc for loc in locs if loc is not None]
    prefix = ""
    if present:
        # the longest common prefix of a set is that of its least and
        # greatest members
        lo, hi = min(present), max(present)
        prefix = lo[:next((i for i, (a, b) in enumerate(zip(lo, hi)) if a != b),
                          len(lo))]
    doc = {
        "version": 4,
        "episode": {
            "scene_id": ssm.scene_id,
            "stride": ssm.stride,
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
                       for nid in sorted(ssm.graph.tracks) if ssm.scratchpad.get(nid)],
        "navigation_log": {
            "columns": ["frame_id", "room_label", "fov_tag", "motion_label"],
            "rows": [[e.frame_id, e.room_label, e.fov_tag, e.motion_label]
                     for e in ssm.nav_log]},
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

    def test_entry_starts_with_the_first_note(self):
        ssm = SceneMemory.empty("s", 1, [0])
        ssm.nav_log = [NavLogEntry(0, "unknown", "t", "stationary")]
        ssm.graph.insert_track(Track(id=0, cloud=PointCloud([(0, 0, 0)]), visual=None,
                                     language=None, caption="c", caption_history=("c",),
                                     visible_frames=(0,)))
        assert ssm.scratchpad == {}
        assert '"scratchpad":[]' in serialize(ssm)[0]
        ssm.add_note(0, "first", "analyze_frame", "q", 0)
        assert [n.text for n in ssm.scratchpad[0]] == ["first"]
        assert_scratchpad_invariant(ssm)

    def test_random_memories_keep_the_invariant(self):
        for seed in range(12):
            ssm = random_ssm(seed)
            assert_scratchpad_invariant(ssm)
            assert_scratchpad_invariant(deserialize(serialize(ssm)[0]))

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

    def test_refuses_dead_or_empty_scratchpad_entry(self):
        ssm = golden_one_track()
        ssm.scratchpad[7] = ssm.scratchpad[0]
        with pytest.raises(SerializationError, match="scratchpad entry 7"):
            serialize(ssm)
        ssm = golden_one_track()
        ssm.scratchpad[0] = ()
        with pytest.raises(SerializationError, match="scratchpad entry 0"):
            serialize(ssm)

    def test_refuses_frame_memory_outside_episode(self):
        ssm = golden_one_track()
        ssm.frame_memory = append_frame(ssm.frame_memory, 99)
        with pytest.raises(SerializationError, match="frame memory id 99"):
            ssm.validate()

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
        # one field at a time, each by a replacement; a room stays on its
        # track's floor and keeps one label, and a track in no room has none
        frame = next(f for f in ssm.frame_ids if f not in moved.visible_frames)
        assert moved.floor_id == "floor0"
        for field_name, value in (
                ("room_id", "floor0/99"), ("room_label", "garage"), ("room_label", None),
                ("room_id", None),
                ("floor_id", "floor9"), ("room_id", "floor9/99"),
                ("caption", "a \"quoted\" caption"),
                ("caption_history", moved.caption_history + ("another caption",)),
                ("visible_frames", moved.visible_frames + (frame,))):
            moved = replace(moved, **{field_name: value})
            ssm.graph.replace_track(moved)
            assert_serializes_like_reference(ssm)
        for field_name, value in (("room_label", "hall"), ("fov_tag", "new view"),
                                  ("motion_label", "turn_left")):
            ssm.nav_log[0] = replace(ssm.nav_log[0], **{field_name: value})
            assert_serializes_like_reference(ssm)
        # a new track that lists the first keyframe, while that row's
        # record stays the same
        first = ssm.frame_ids[0]
        ssm.graph.insert_track(replace(moved, id=ssm.graph.new_track_id(),
                                       visible_frames=(first,)))
        assert_serializes_like_reference(ssm)
        # a locator changed, then dropped, in a new locator map
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
        ssm.graph.insert_track(Track(id=0, cloud=PointCloud([(0.5, -1.0, 2.0)]),
                                     visual=None, language=None, caption=captions[0],
                                     caption_history=tuple(captions),
                                     room_id="floor0/0", floor_id="floor0",
                                     room_label=fov or None, visible_frames=(0,)))
        ssm.add_note(0, note, "analyze_frame", fov, 1)
        ssm.nav_log = [NavLogEntry(0, note, fov, "stationary"),
                       NavLogEntry(1, fov, note, "forward")]
        ssm.frame_memory = init_frame_memory([0, 1], 2)
        assert_serializes_like_reference(ssm)
        ssm.graph.replace_track(replace(ssm.graph.tracks[0], caption=edit))
        ssm.nav_log[1] = replace(ssm.nav_log[1], fov_tag=edit)
        assert_serializes_like_reference(ssm)


class TestCaptionHistoryRuns:
    """A track's ``caption_history`` writes each run of entries equal to the
    caption as the run's length and any other phrasing as itself. The runs
    expand back, so a reloaded history keeps the length that the caption
    consolidation threshold reads."""

    @staticmethod
    def _one_track(caption: str, history) -> SceneMemory:
        ssm = golden_one_track()
        ssm.graph.replace_track(replace(ssm.graph.tracks[0], caption=caption,
                                        caption_history=tuple(history)))
        return ssm

    @pytest.mark.parametrize("caption,history,cells", [
        ("green table", ("green table",) * 4, [4]),
        ("mug", ("mug", "mug", "red mug"), [2, "red mug"]),
        ("mug", ("red mug", "mug", "a mug", "mug", "mug"), ["red mug", 1, "a mug", 2]),
        ("mug", ("red mug", "red mug"), ["red mug", "red mug"]),
        ("mug", (), [])])
    def test_written_cells(self, caption, history, cells):
        doc = json.loads(serialize(self._one_track(caption, history))[0])
        assert doc["scene_graph"]["tracks"]["rows"][0][2] == cells

    _phrasings = st.one_of(st.sampled_from(["mug", "red mug", "a mug", ""]),
                           st.text(max_size=3))

    @given(caption=_phrasings, history=st.lists(_phrasings, max_size=9))
    @example(caption="red mug", history=["mug", "a mug", "mug"])  # caption nowhere
    @example(caption="mug", history=[])
    @example(caption="mug", history=["mug", "mug", "red mug", "mug", "a mug", "a mug"])
    @settings(max_examples=150)
    def test_every_history_round_trips(self, caption, history):
        """Any history, of mixed phrasings, of none, or without its caption,
        is written in the one canonical form and loads back to itself."""
        ssm = self._one_track(caption, history)
        text = serialize(ssm)[0]
        assert text == reference_serialize(ssm)
        cells = json.loads(text)["scene_graph"]["tracks"]["rows"][0][2]
        for previous, cell in zip([None] + cells, cells):
            assert (isinstance(cell, str) and cell != caption) or (
                type(cell) is int and cell >= 1 and type(previous) is not int)
        loaded = deserialize(text)
        assert loaded.graph.tracks[0].caption_history == tuple(history)
        assert serialize(loaded)[0] == text

    @pytest.mark.parametrize("cells,j", [
        ([True], 0), (["chipped mug", False], 1),
        ([0], 0), ([2, "chipped mug", -1], 2),
        ([1, 1], 1), (["chipped mug", 2, 3], 2),
        (["red mug"], 0), ([1, "chipped mug", "red mug"], 2),
    ], ids=["bool", "bool-after-phrasing", "zero", "negative", "two-runs",
            "two-runs-after-phrasing", "the-caption", "the-caption-after-a-run"])
    def test_non_canonical_entry_refused(self, cells, j):
        """A bool, a run length below 1, two run lengths in a row and a
        phrasing equal to the caption ("red mug") each have another
        canonical form, so none of them loads."""
        doc = json.loads((GOLDEN / "one_track_ssm.json").read_text())
        doc["scene_graph"]["tracks"]["rows"][0][2] = cells
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == f"$.scene_graph.tracks.rows[0].caption_history[{j}]"

    @pytest.mark.parametrize("cells,j", [
        ([10_000_000], 0), ([999_999_999_999], 0),
        ([MAX_CAPTION_HISTORY + 1], 0), (["chipped mug", MAX_CAPTION_HISTORY], 1),
        ([MAX_CAPTION_HISTORY - 1, "chipped mug", 1], 2),
    ], ids=["ten-million", "twelve-digits", "one-past", "run-past", "phrasing-past"])
    def test_history_past_the_bound_refused(self, cells, j):
        """The first cell that takes a history past MAX_CAPTION_HISTORY is
        refused before its run expands: a 12-digit run would otherwise ask
        for terabytes."""
        doc = json.loads((GOLDEN / "one_track_ssm.json").read_text())
        doc["scene_graph"]["tracks"]["rows"][0][2] = cells
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == f"$.scene_graph.tracks.rows[0].caption_history[{j}]"
        assert str(MAX_CAPTION_HISTORY) in str(err.value)

    def test_history_at_the_bound_round_trips_and_one_more_is_refused(self):
        """serialize refuses what deserialize would: a history one caption
        past the bound does not render."""
        ssm = self._one_track("mug", ("mug",) * (MAX_CAPTION_HISTORY - 1) + ("red mug",))
        text = serialize(ssm)[0]
        assert json.loads(text)["scene_graph"]["tracks"]["rows"][0][2] == [
            MAX_CAPTION_HISTORY - 1, "red mug"]
        assert serialize(deserialize(text))[0] == text
        ssm = self._one_track("mug", ("mug",) * (MAX_CAPTION_HISTORY + 1))
        with pytest.raises(SerializationError) as err:
            serialize(ssm)
        assert err.value.path == "$.scene_graph.tracks.rows[0].caption_history"


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

    def test_scratchpad_node_must_be_a_track(self):
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
    """Every departure from the version-4 layout raises a ParseError whose
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

    def test_v2_document_rejected(self):
        """A version-2 document, which still wrote episode.frame_ids, gets
        the version error and not a field error."""
        doc = self._golden()
        doc["version"] = 2
        doc["episode"]["frame_ids"] = [0, 5]
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == "$.version"
        assert "unsupported layout version 2, expected 4" in str(err.value)

    def test_v3_document_rejected(self):
        """A version-3 document, which still wrote each caption history in
        full and the navigation log's visible_node_ids, gets the version
        error and not a field error."""
        doc = self._golden()
        doc["version"] = 3
        doc["scene_graph"]["tracks"]["rows"][0][2] = ["red mug"]
        doc["navigation_log"]["columns"].append("visible_node_ids")
        for row in doc["navigation_log"]["rows"]:
            row.append([0])
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == "$.version"
        assert "unsupported layout version 3, expected 4" in str(err.value)

    @pytest.mark.parametrize("version", [1, 2, 3, "4", 4.0, True, None])
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

    @pytest.mark.parametrize("count", [3, -1])
    def test_initial_count_outside_the_frames_rejected(self, count):
        doc = self._golden()
        doc["episode"]["frame_memory"]["initial_count"] = count
        assert self._path_of(doc) == "$.episode.frame_memory"

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

    def test_suffixes_must_align_with_navigation_rows(self):
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
        (("navigation_log", "rows", 1, 0), "5", "$.navigation_log.rows[1].frame_id"),
        (("navigation_log", "rows", 0, 0), None, "$.navigation_log.rows[0].frame_id"),
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
        (("scene_graph", "tracks", "rows", 0, 2, 0), None,
         "$.scene_graph.tracks.rows[0].caption_history[0]")])
    def test_array_faults_name_their_path(self, where, value, path):
        doc = self._golden()
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        assert self._path_of(doc) == path

    def test_repeated_keyframe_rejected(self):
        """Two rows of one frame would re-serialize with other locators, so
        neither deserialize nor serialize accepts them."""
        doc = self._golden()
        doc["navigation_log"]["rows"][1][0] = 0
        assert self._path_of(doc) == "$.navigation_log.rows[1].frame_id"
        ssm = SceneMemory.empty("s", 1, [0, 0])
        ssm.nav_log = [NavLogEntry(0, "unknown", "t", "stationary")] * 2
        with pytest.raises(SerializationError, match="repeats a keyframe"):
            serialize(ssm)

    def test_empty_notes_rejected(self):
        """A node without notes has no entry, so each memory has one text."""
        doc = self._golden()
        doc["scratchpad"][0]["notes"] = []
        assert self._path_of(doc) == "$.scratchpad[0].notes"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "int-beyond-float"])
    def test_non_finite_centroid_rejected(self, value):
        """serialize refuses a non-finite float, so deserialize must too:
        a memory that loads also saves."""
        doc = self._golden()
        doc["scene_graph"]["tracks"]["rows"][0][7][1] = value
        assert self._path_of(doc) == "$.scene_graph.tracks.rows[0].centroid"

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

    def test_repeated_edge_row_rejected(self):
        """SceneGraph.add_edges never stores a triple twice, so a document
        that writes one twice does not load."""
        doc = json.loads(serialize(two_track_memory())[0])
        rows = doc["scene_graph"]["edges"]["rows"]
        rows.insert(1, list(rows[0]))
        assert self._path_of(doc) == "$.scene_graph.edges.rows[1]"
        rows[1][3] = "another justification"  # the triple alone counts
        assert self._path_of(doc) == "$.scene_graph.edges.rows[1]"

    def test_stride_below_one_rejected(self):
        doc = self._golden()
        doc["episode"]["stride"] = 0
        assert self._path_of(doc) == "$.episode.stride"
        ssm = golden_one_track()
        ssm.stride = 0
        with pytest.raises(SerializationError) as err:
            serialize(ssm)
        assert err.value.path == "$.episode.stride"

    def test_visible_frame_outside_episode_rejected(self):
        doc = self._golden()
        doc["scene_graph"]["tracks"]["rows"][0][6] = [0, 999]
        assert self._path_of(doc) == "$.scene_graph.tracks.rows[0].visible_frames[1]"


class TestOneRuleBook:
    """``SceneMemory.validate`` is the one check of the rules across
    records, for built, patched and loaded memories: it names each broken
    rule by its path in the serialized document, the path ``deserialize``
    reports for the same fault."""

    @pytest.mark.parametrize("break_rule,path", [
        (lambda m: m.scratchpad.update({7: m.scratchpad[0]}), "$.scratchpad[1].node_id"),
        (lambda m: m.scratchpad.update({0: ()}), "$.scratchpad[0].notes"),
        (lambda m: m.graph.edges.append(RelationEdge(0, 9, "on_top_of", "", 0)),
         "$.scene_graph.edges.rows[1].object_id"),
        (lambda m: m.graph.edges.append(RelationEdge(0, 1, "on_top_of", "again", 5)),
         "$.scene_graph.edges.rows[1]"),
        (lambda m: setattr(m, "frame_memory", append_frame(m.frame_memory, 9)),
         "$.episode.frame_memory.frames[2]"),
        (lambda m: m.graph.replace_track(replace(m.graph.tracks[0], floor_id="floor7")),
         "$.scene_graph.tracks.rows[0].floor_id"),
        (lambda m: m.graph.replace_track(replace(m.graph.tracks[1], room_id="floor0/0",
                                                 floor_id="floor0", room_label="bedroom")),
         "$.scene_graph.tracks.rows[1].room_label")])
    def test_validate_names_the_document_path(self, break_rule, path):
        ssm = two_track_memory()
        break_rule(ssm)
        with pytest.raises(SerializationError) as err:
            ssm.validate()
        assert err.value.path == path
        assert str(err.value) == f"{path}: {err.value.reason}"

    @pytest.mark.parametrize("edit,path", [
        (lambda d: d["scene_graph"]["tracks"]["rows"][0].__setitem__(5, "floor7"),
         "$.scene_graph.tracks.rows[0].floor_id"),
        (lambda d: d["scene_graph"]["tracks"]["rows"][1].__setitem__(
            slice(3, 6), ["floor0/0", "bedroom", "floor0"]),
         "$.scene_graph.tracks.rows[1].room_label"),
    ], ids=["floor-not-the-rooms", "second-room-label"])
    def test_contradicting_document_refused(self, edit, path):
        """A room lies on its track's floor and has one label. A document
        that says otherwise does not load."""
        doc = json.loads(serialize(two_track_memory())[0])
        edit(doc)
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == path

    @pytest.mark.parametrize("tid", [-1, 2**32])
    def test_track_id_that_tracks_bin_cannot_hold_refused(self, tid, tmp_path):
        """tracks.bin stores each track id as a uint32. Any other id is
        refused by deserialize, and by save_dir before it writes a file."""
        doc = json.loads((GOLDEN / "one_track_ssm.json").read_text())
        doc["scene_graph"]["tracks"]["rows"][0][0] = tid
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(doc))
        assert err.value.path == "$.scene_graph.tracks.rows[0].id"
        ssm = golden_one_track()
        ssm.graph.tracks = {tid: replace(ssm.graph.tracks[0], id=tid)}
        ssm.scratchpad = {}
        with pytest.raises(SerializationError) as err:
            save_dir(ssm, tmp_path / "m")
        assert err.value.path == "$.scene_graph.tracks.rows[0].id"
        assert not any((tmp_path / "m").iterdir())

    def test_largest_track_id_round_trips(self, tmp_path):
        ssm = golden_one_track()
        tid = 2**32 - 1
        ssm.graph.tracks = {tid: replace(ssm.graph.tracks[0], id=tid)}
        ssm.scratchpad = {}
        save_dir(ssm, tmp_path / "m")
        assert serialize(load_dir(tmp_path / "m"))[0] == serialize(ssm)[0]

    def test_patch_detection_outside_the_episode_refused(self):
        """A detection from a frame outside the episode would give its
        track a visible frame that load_dir refuses; apply_patch refuses
        the whole patch instead, leaving the memory as it was."""
        ssm = random_ssm(5)
        before = serialize(ssm)[0]
        fid = ssm.frame_ids[0]
        patch = Patch(provenance=ApiCall("analyze_frame", fid, "look"),
                      new_detections=[_detection(fid, 0), _detection(999, 1)],
                      evidence=[(fid, (0, 0, 4, 4))])
        updated, report = apply_patch(ssm, patch)
        assert updated is ssm
        assert "frame 999 not in episode" in report.failure
        assert "visible_frames" in report.failure
        assert serialize(ssm)[0] == before

    @given(st.integers(0, 40), st.data())
    @settings(max_examples=60)
    def test_patched_random_memories_round_trip(self, seed, data):
        """A random memory that takes random patches either refuses a patch
        and stays byte-identical, or loads back from its text and renders
        the same bytes again."""
        ssm = random_ssm(seed)
        live = sorted(ssm.graph.tracks)
        frames = list(ssm.frame_ids)
        labels = ("on_top_of", "subpart_of", "contained_in", "attached_to")
        for _ in range(data.draw(st.integers(1, 3))):
            fid = data.draw(st.sampled_from(frames))
            patch = Patch(provenance=ApiCall("analyze_frame", fid, "fuzz"))
            for _ in range(data.draw(st.integers(0, 2))):
                patch.new_detections.append(_detection(
                    data.draw(st.sampled_from(frames + [999])), data.draw(st.integers(0, 9))))
            for _ in range(data.draw(st.integers(0, 2))):
                a, b = (data.draw(st.sampled_from(live + [99])) for _ in range(2))
                if a != b:
                    patch.new_edges.append(RelationEdge(
                        a, b, data.draw(st.sampled_from(labels)), "fuzz", fid))
            for _ in range(data.draw(st.integers(0, 2))):
                if data.draw(st.booleans()):  # up to one index past the detections
                    target = PatchNote("pending", data.draw(
                        st.integers(0, len(patch.new_detections))), "fuzz note")
                else:
                    target = PatchNote("node", data.draw(st.sampled_from(live + [99])),
                                       "fuzz note")
                patch.notes.append(target)
            if not patch.is_empty:
                patch.evidence.append((fid, (0, 0, 4, 4)))
            before = serialize(ssm)[0]
            updated, report = apply_patch(ssm, patch)
            if report.failure is not None:
                assert updated is ssm
                assert serialize(ssm)[0] == before
                continue
            text = serialize(updated)[0]
            assert serialize(deserialize(text))[0] == text
            ssm = updated
            live = sorted(ssm.graph.tracks)

    @pytest.fixture(scope="class")
    def thinned_build(self, small_build, tmp_path_factory):
        """The built 2x3 memory without every other track, as if the build
        had missed those objects, its save_dir/load_dir copy with the floor
        plan recomputed from the episode, the episode's frame ids and an
        executor that finds them again."""
        scene, episode, backend, built = small_build
        ssm = built.copy()
        for tid in sorted(ssm.graph.tracks)[::2]:
            del ssm.graph.tracks[tid]
            ssm.scratchpad.pop(tid, None)
        ssm.graph.edges = [e for e in ssm.graph.edges
                           if {e.subject_id, e.object_id} <= set(ssm.graph.tracks)]
        path = tmp_path_factory.mktemp("thinned") / "mem"
        save_dir(ssm, path)
        loaded = load_dir(path)
        attach_floor_plan(loaded, episode)
        return ssm, loaded, list(episode.frame_ids), ApiExecutor(
            episode, backend, EngineConfig())

    def test_thinned_build_patches_create_and_merge(self, thinned_build):
        """The property below exercises both ways a detection lands."""
        ssm, _, frame_ids, executor = thinned_build
        created = merged = 0
        for fid in frame_ids:
            ssm, report = apply_patch(ssm, executor.execute(
                ApiCall("analyze_frame", fid, "describe all objects"), ssm))
            created += len(report.created)
            merged += len(report.merged)
        assert created and merged

    @pytest.fixture(scope="class")
    def reloaded_build(self, small_scene, small_episode, tmp_path_factory):
        """The 2x3 memory built with a detector that misses objects
        (miss_prob 0.6), its save_dir/load_dir copy, the episode's frame ids
        and an executor whose detector misses nothing, so its patches merge
        detections into the tracks and lengthen their caption histories."""
        built = build_ssm(small_episode, ScriptedBackend(
            small_scene, reasoner=RuleReasoner(), miss_prob=0.6), EngineConfig())
        path = tmp_path_factory.mktemp("reloaded") / "mem"
        save_dir(built, path)
        return built, load_dir(path), list(small_episode.frame_ids), ApiExecutor(
            small_episode, ScriptedBackend(small_scene, reasoner=RuleReasoner()),
            EngineConfig())

    @staticmethod
    def _patch_both(memories: list, fid: int, executor) -> list[str]:
        """Apply one analyze_frame call on ``fid`` to each memory in place;
        their texts after it."""
        call = ApiCall("analyze_frame", fid, "describe all objects")
        for i, ssm in enumerate(memories):
            memories[i], report = apply_patch(ssm, executor.execute(call, ssm))
            assert report.failure is None
        return [serialize(ssm)[0] for ssm in memories]

    def test_reloaded_build_patches_merge(self, reloaded_build):
        """The property below merges detections into tracks: a sweep over
        every frame gives some track a history longer than one entry."""
        built, loaded, frame_ids, executor = reloaded_build
        memories = [built, loaded]
        for fid in frame_ids:
            self._patch_both(memories, fid, executor)
        for ssm in memories:
            assert max(len(t.caption_history) for t in ssm.graph.tracks.values()) > 1

    @classmethod
    def _assert_patched_alike(cls, memories: list, fids, executor) -> None:
        """After each analyze_frame patch on ``fids``, both memories
        serialize byte-identically, and the text loads back to the same
        bytes."""
        assert serialize(memories[1])[0] == serialize(memories[0])[0]
        for fid in fids:
            texts = cls._patch_both(memories, fid, executor)
            assert texts[1] == texts[0], f"frame {fid}"
            assert serialize(deserialize(texts[0]))[0] == texts[0]

    @given(st.data())
    @settings(max_examples=15)
    def test_patched_memories_and_their_reloads_agree(self, reloaded_build, data):
        """The built memory and its reload take patches alike: a caption
        history written as runs keeps its length, so both memories merge
        alike."""
        built, loaded, frame_ids, executor = reloaded_build
        self._assert_patched_alike([built, loaded], data.draw(
            st.lists(st.sampled_from(frame_ids), min_size=1, max_size=5)), executor)

    @given(st.data())
    @settings(max_examples=15)
    def test_thinned_memories_and_their_reloads_agree(self, thinned_build, data):
        """With patches that create tracks: the reload, its floor plan
        recomputed from the episode, places each new track on the floor, in
        the room and with the label that the built memory gives it."""
        ssm, loaded, frame_ids, executor = thinned_build
        self._assert_patched_alike([ssm, loaded], data.draw(
            st.lists(st.sampled_from(frame_ids), min_size=1, max_size=5)), executor)

    def test_a_sweep_over_every_frame_creates_tracks_alike(self, thinned_build):
        """Every frame in order: the reload creates the same tracks as the
        built memory, each placed in a room."""
        ssm, loaded, frame_ids, executor = thinned_build
        memories = [ssm, loaded]
        self._assert_patched_alike(memories, frame_ids, executor)
        created = [t for tid, t in memories[1].graph.tracks.items()
                   if tid not in ssm.graph.tracks]
        assert created and all(t.room_id is not None for t in created)

    def test_patch_past_the_history_bound_refused(self, reloaded_build):
        """A patch that would take a caption history past
        MAX_CAPTION_HISTORY is refused whole, so apply_patch never makes a
        memory that load_dir refuses."""
        built, _, frame_ids, executor = reloaded_build
        full = built.copy()
        for t in list(full.graph.tracks.values()):
            full.graph.replace_track(replace(
                t, caption_history=(t.caption,) * MAX_CAPTION_HISTORY))
        before = serialize(full)[0]
        for fid in frame_ids:
            updated, report = apply_patch(full, executor.execute(
                ApiCall("analyze_frame", fid, "describe all objects"), full))
            if report.failure is not None:
                break
        assert updated is full
        assert "caption_history" in report.failure
        assert serialize(full)[0] == before


def side_car_records(blob: bytes) -> list[bytes]:
    """The records of a tracks.bin file, each as its raw bytes."""
    records, offset = [], 44
    while offset < len(blob):
        _, npts, vdim, ldim = struct.unpack_from("<IIII", blob, offset)
        floats = (0 if npts == 0xFFFFFFFF else 3 * npts) + vdim + ldim
        records.append(blob[offset:offset + 16 + 8 * floats])
        offset += 16 + 8 * floats
    return records


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
            here, _ = apply_patch(ssm, executor.execute(call, ssm))
            there, _ = apply_patch(loaded, executor.execute(call, loaded))
            assert serialize(there)[0] == serialize(here)[0], f"frame {fid}"

    def test_older_binary_format_rejected(self, tmp_path):
        """Another magic, truncation at several offsets, one trailing byte
        and a stored vector that is not unit length each raise ParseError
        naming the side-car file."""
        for seed in (7, 2):  # seed 2: every track has a cloud and a vector
            mem = tmp_path / f"mem{seed}"
            save_dir(random_ssm(seed), mem)
            path = mem / "tracks.bin"
            original = path.read_bytes()
            for magic in (b"SMCLOUD2", b"SMEMBED2"):
                path.write_bytes(magic + original[8:])
                with pytest.raises(ParseError, match="bad magic") as err:
                    load_dir(mem)
                assert err.value.path == str(path)
            cuts = {0, 4, 20, 43, 44, 50, 61, len(original) // 2, len(original) - 1}
            for corrupt in [original[:n] for n in sorted(cuts) if n < len(original)] + [
                    original + b"\0"]:
                path.write_bytes(corrupt)
                with pytest.raises(ParseError) as err:
                    load_dir(mem)
                assert err.value.path == str(path), len(corrupt)
            path.write_bytes(original)
        path = tmp_path / "mem2" / "tracks.bin"
        original = path.read_bytes()
        _, npts, dim, _ = struct.unpack_from("<IIII", original, 44)
        at = 44 + 16 + 24 * npts  # the first track's visual vector
        doubled = np.frombuffer(original, "<f8", dim, at) * 2
        path.write_bytes(original[:at] + doubled.tobytes() + original[at + 8 * dim:])
        with pytest.raises(ParseError) as err:
            load_dir(tmp_path / "mem2")
        assert err.value.path == str(path)
        assert "unit norm" in str(err.value)

    @pytest.mark.parametrize("missing", [("tracks.bin",), ("ssm.json",),
                                         ("ssm.json", "tracks.bin")])
    def test_missing_side_car_refused(self, tmp_path, missing):
        """save_dir always writes both files; without the side-car a
        reloaded memory would merge nothing, so load_dir refuses a directory
        missing either, naming the file."""
        save_dir(random_ssm(2), tmp_path / "m")
        for name in missing:
            (tmp_path / "m" / name).unlink()
        with pytest.raises(ParseError) as err:
            load_dir(tmp_path / "m")
        assert err.value.path == str(tmp_path / "m" / missing[0])
        assert "missing" in str(err.value)

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        """The 2x3 seed-7 and 3x2 seed-0 memories, built and saved."""
        root = tmp_path_factory.mktemp("built")
        for rooms, objects, seed in ((2, 3, 7), (3, 2, 0)):
            scene = generate_scene(rooms, objects, seed=seed)
            ssm = build_ssm(scene.episode(),
                            ScriptedBackend(scene, reasoner=RuleReasoner()),
                            EngineConfig())
            save_dir(ssm, root / f"{rooms}x{objects}")
        return root

    def test_foreign_side_car_refused(self, built, tmp_path):
        """A tracks.bin copied from another memory is refused, although
        the two memories share track ids."""
        mem = tmp_path / "mem"
        shutil.copytree(built / "2x3", mem)
        shutil.copy(built / "3x2" / "tracks.bin", mem / "tracks.bin")
        assert set(load_dir(built / "2x3").graph.tracks) & set(
            load_dir(built / "3x2").graph.tracks)
        with pytest.raises(ParseError, match="written for another ssm.json") as err:
            load_dir(mem)
        assert err.value.path == str(mem / "tracks.bin")

    def test_edited_ssm_json_refused(self, built, tmp_path):
        """One byte changed anywhere in ssm.json, even one that breaks its
        JSON, is refused by the side-car check before the text is parsed."""
        mem = tmp_path / "mem"
        shutil.copytree(built / "2x3", mem)
        original = (mem / "ssm.json").read_bytes()
        for at in (0, 1, len(original) // 3, len(original) // 2, len(original) - 1):
            edited = original[:at] + bytes([original[at] ^ 1]) + original[at + 1:]
            (mem / "ssm.json").write_bytes(edited)
            with pytest.raises(ParseError, match="written for another ssm.json") as err:
                load_dir(mem)
            assert err.value.path == str(mem / "tracks.bin"), at

    @pytest.mark.parametrize("damage,message", [
        ("swapped", "record for track 1 where 0 was expected"),
        ("one short", "records for 6 tracks"),
        ("one short, count kept", "record 5: "),
    ])
    def test_records_must_match_tracks(self, built, tmp_path, damage, message):
        """A side-car with the right digest must still hold one record per
        track, in track id order."""
        mem = tmp_path / "mem"
        shutil.copytree(built / "2x3", mem)
        text = (mem / "ssm.json").read_bytes()
        records = side_car_records((mem / "tracks.bin").read_bytes())
        assert len(records) == 6
        count = len(records)
        if damage == "swapped":
            records[0], records[1] = records[1], records[0]
        else:
            records.pop()
            count -= damage == "one short"
        (mem / "tracks.bin").write_bytes(
            b"SMTRACK1" + hashlib.sha256(text).digest() + struct.pack("<I", count)
            + b"".join(records))
        with pytest.raises(ParseError) as err:
            load_dir(mem)
        assert err.value.path == str(mem / "tracks.bin")
        assert re.search(message, str(err.value))

    def test_empty_cloud_stays_distinct_from_no_cloud(self, tmp_path):
        ssm = SceneMemory.empty("empty", 1, [0])
        for tid, cloud in ((0, PointCloud()), (1, None)):
            ssm.graph.insert_track(Track(id=tid, cloud=cloud, visual=None,
                                         language=None, caption="c",
                                         caption_history=("c",), visible_frames=(0,)))
        ssm.nav_log = [NavLogEntry(0, "unknown", "t", "stationary")]
        ssm.frame_memory = init_frame_memory([0], 1)
        save_dir(ssm, tmp_path / "m")
        loaded = load_dir(tmp_path / "m")
        assert len(loaded.graph.tracks[0].cloud) == 0
        assert loaded.graph.tracks[1].cloud is None
        assert serialize(loaded)[0] == serialize(ssm)[0]

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
        ssm.graph.insert_track(track)
        ssm.nav_log = [NavLogEntry(0, "unknown", "t", "stationary")]
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
        ssm.graph.insert_track(track)
        ssm.nav_log = [NavLogEntry(0, "unknown", "t", "stationary")]
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

    def test_sequence_fields_do_not_follow_the_callers_lists(self):
        """Lists passed to a record are copied into tuples, so changing the
        lists afterwards changes neither the record nor its cached row."""
        history, visible, frames = ["red mug"], [0, 5], [0]
        ssm = golden_one_track()
        track = replace(ssm.graph.tracks[0], caption_history=history,
                        visible_frames=visible)
        ssm.graph.replace_track(track)
        ssm.frame_memory = FrameMemory(frames, 1)
        expected = serialize(ssm)[0]
        history.append("blue mug")
        visible.append(9)
        frames.append(5)
        assert (track.caption_history, track.visible_frames) == (("red mug",), (0, 5))
        assert ssm.frame_memory.frames == (0,)
        assert reference_serialize(ssm) == expected
        assert_serializes_like_reference(ssm)

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
