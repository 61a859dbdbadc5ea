"""Track association, merging and edge bookkeeping, checked against
reference implementations defined here (exhaustive candidate matcher,
scalar EMA recurrence, rule-based edge filter)."""

from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemem import (Detection, Embedding, PointCloud, RelationEdge, SceneGraph,
                      Track, associate, consolidate_captions, edge_discovery_due,
                      geometry, graph, merge_detection, vote_score)
from scenemem.backend import Backend, TransportError
from scenemem.graph import GraphError, caption_embedding, cosine, hash_embedding

from conftest import rng
from test_geometry import brute_overlap


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def make_detection(frame_id=0, caption="thing", cloud=None, visual=None,
                   language=None, bbox=(0, 0, 4, 4)):
    return Detection(
        frame_id=frame_id, bbox=bbox, caption=caption,
        cloud=cloud if cloud is not None else PointCloud([(0, 0, 0)]),
        visual=visual if visual is not None else Embedding([1, 0, 0, 0], "visual"),
        language=language if language is not None else Embedding([0, 1, 0, 0], "language"))


def make_track(tid=0, caption="thing", cloud=None, visual=None, language=None,
               frames=(0,)):
    return Track(
        id=tid,
        cloud=cloud if cloud is not None else PointCloud([(0, 0, 0)]),
        visual=visual if visual is not None else Embedding([1, 0, 0, 0], "visual"),
        language=language if language is not None else Embedding([0, 1, 0, 0], "language"),
        caption=caption, caption_history=(caption,), visible_frames=tuple(frames))


def embedding_pair(cos_target: float, dim: int, kind: str, seed: int):
    """Two unit vectors with the exact requested cosine."""
    g = rng(seed)
    a = unit(g.standard_normal(dim))
    b = g.standard_normal(dim)
    b = unit(b - np.dot(b, a) * a)
    mixed = cos_target * a + np.sqrt(max(0.0, 1 - cos_target ** 2)) * b
    return Embedding(a, kind), Embedding(mixed, kind)


def test_from_unit_keeps_stored_bits_and_rejects_non_unit():
    g = rng(3)
    renormalized_differs = 0
    for _ in range(50):
        e = Embedding(g.standard_normal(8), "visual")
        assert Embedding.from_unit(e.vector, "visual").vector.tobytes() \
            == e.vector.tobytes()
        renormalized_differs += (Embedding(e.vector, "visual").vector.tobytes()
                                 != e.vector.tobytes())
    assert renormalized_differs > 0  # why from_unit does not renormalize
    with pytest.raises(GraphError):
        Embedding.from_unit([2.0, 0.0], "visual")
    with pytest.raises(GraphError):
        Embedding.from_unit([1.0, 0.0], "spectral")


# -- vote_score ---------------------------------------------------------------

class TestVoteScore:
    def test_visual_and_geometric_votes_only(self):
        # visual cosine 0.8 (vote), language 0.75 (no vote), overlap 0.5 (vote)
        va, vb = embedding_pair(0.8, 16, "visual", 1)
        la, lb = embedding_pair(0.75, 16, "language", 2)
        det_cloud = PointCloud([(0, 0, 0), (5, 5, 5)])   # one point near, one far
        trk_cloud = PointCloud([(0.01, 0, 0)])
        d = make_detection(cloud=det_cloud, visual=va, language=la)
        t = make_track(cloud=trk_cloud, visual=vb, language=lb)
        from scenemem import geometric_overlap
        assert geometric_overlap(det_cloud, trk_cloud, graph.OVERLAP_RADIUS_M) == 0.5
        assert vote_score(d, t) == 2

    def test_identical_detection_scores_three(self):
        cloud = PointCloud([(0, 0, 0), (1, 1, 1)])
        v = Embedding([1, 2, 3], "visual")
        lang = Embedding([3, 2, 1], "language")
        d = make_detection(cloud=cloud, visual=v, language=lang)
        t = make_track(cloud=cloud, visual=v, language=lang)
        assert vote_score(d, t) == 3

    def test_strict_inequality_at_boundary(self, monkeypatch):
        # cosine equals the threshold bit-for-bit: dot((1,0), v) = v[0],
        # no arithmetic, so the strict ">" is exercised at true equality
        va = Embedding([1.0, 0.0], "visual")
        vb = Embedding([1.0, 1.0], "visual")
        boundary = float(vb.vector[0])
        assert cosine(va, vb) == boundary
        monkeypatch.setattr(graph, "VISUAL_SIM_THRESHOLD", boundary)
        d = make_detection(visual=va, cloud=PointCloud.empty())
        t = make_track(visual=vb, cloud=PointCloud.empty())
        # language identical (+1); visual exactly at threshold: no vote
        assert vote_score(d, t) == 1
        monkeypatch.setattr(graph, "VISUAL_SIM_THRESHOLD", np.nextafter(boundary, 0.0))
        assert vote_score(d, t) == 2

    def test_dimension_mismatch_raises(self):
        d = make_detection(visual=Embedding([1, 0], "visual"))
        t = make_track(visual=Embedding([1, 0, 0], "visual"))
        with pytest.raises(GraphError):
            vote_score(d, t)

    def test_embedding_indicators_symmetric(self):
        va, vb = embedding_pair(0.9, 8, "visual", 4)
        la, lb = embedding_pair(0.5, 8, "language", 5)
        cloud = PointCloud.empty()
        fwd = vote_score(make_detection(visual=va, language=la, cloud=cloud),
                         make_track(visual=vb, language=lb, cloud=cloud))
        rev = vote_score(make_detection(visual=vb, language=lb, cloud=cloud),
                         make_track(visual=va, language=la, cloud=cloud))
        assert fwd == rev

    def test_empty_detection_cloud_no_geometric_vote(self):
        v = Embedding([1, 1, 0], "visual")
        lang = Embedding([0, 1, 1], "language")
        d = make_detection(cloud=PointCloud.empty(), visual=v, language=lang)
        t = make_track(cloud=PointCloud([(0, 0, 0)]), visual=v, language=lang)
        assert vote_score(d, t) == 2


# -- associate ----------------------------------------------------------------

def reference_vote(d: Detection, t: Track) -> tuple[int, float]:
    """Direct indicator evaluation with brute-force overlap, at the
    thresholds graph holds when it is called."""
    votes = 0
    if float(np.dot(d.visual.vector, t.visual.vector)) > graph.VISUAL_SIM_THRESHOLD:
        votes += 1
    if float(np.dot(d.language.vector, t.language.vector)) > graph.CAPTION_SIM_THRESHOLD:
        votes += 1
    overlap = brute_overlap(d.cloud.points, t.cloud.points, graph.OVERLAP_RADIUS_M)
    if overlap > graph.OVERLAP_THRESHOLD:
        votes += 1
    return votes, overlap


def reference_associate(dets, tracks) -> dict[int, int | None]:
    """Exhaustive candidate enumeration with the documented ordering rule."""
    cands = []
    for di, d in enumerate(dets):
        for t in tracks:
            votes, overlap = reference_vote(d, t)
            if votes >= graph.MIN_VOTES:
                cands.append((-votes, -overlap, t.id, di))
    cands.sort()
    out: dict[int, int | None] = {di: None for di in range(len(dets))}
    used_t, used_d = set(), set()
    for nv, no, tid, di in cands:
        if tid in used_t or di in used_d:
            continue
        out[di] = tid
        used_t.add(tid)
        used_d.add(di)
    return out


def random_instance(seed: int, n_det: int, n_trk: int):
    """Random detections/tracks with correlated pairs so every vote level
    occurs."""
    g = rng(seed)
    dim = 8
    tracks = []
    for ti in range(n_trk):
        base = g.uniform(-1, 1, 3) * 3
        tracks.append(make_track(
            tid=ti, caption=f"track{ti}",
            cloud=PointCloud(base + g.uniform(0, 0.3, size=(int(g.integers(1, 30)), 3))),
            visual=Embedding(g.standard_normal(dim), "visual"),
            language=Embedding(g.standard_normal(dim), "language")))
    dets = []
    for di in range(n_det):
        if n_trk and g.random() < 0.6:  # correlated with a random track
            t = tracks[int(g.integers(0, n_trk))]
            mix = float(g.uniform(0.3, 1.0))
            visual = Embedding(mix * t.visual.vector
                               + (1 - mix) * g.standard_normal(dim), "visual")
            language = Embedding(mix * t.language.vector
                                 + (1 - mix) * g.standard_normal(dim), "language")
            cloud = PointCloud(t.cloud.points + g.normal(0, 0.05, t.cloud.points.shape))
        else:
            visual = Embedding(g.standard_normal(dim), "visual")
            language = Embedding(g.standard_normal(dim), "language")
            cloud = PointCloud(g.uniform(-3, 3, 3)
                               + g.uniform(0, 0.3, size=(int(g.integers(1, 30)), 3)))
        dets.append(make_detection(frame_id=9, caption=f"det{di}", cloud=cloud,
                                   visual=visual, language=language))
    return dets, tracks


def contested_instance(seed: int, n_det: int, n_trk: int):
    """Random detections/tracks whose tracks share embeddings drawn from a
    few prototypes, so that one detection votes for several tracks, several
    detections vote for one track, and one-vote pairs are left for the
    overlap to decide."""
    g = rng(seed)
    dim = 8
    n_proto = int(g.integers(1, 5))
    visuals = [g.standard_normal(dim) for _ in range(n_proto)]
    languages = [g.standard_normal(dim) for _ in range(n_proto)]
    bases = g.uniform(-2, 2, size=(int(g.integers(1, 4)), 3))
    tracks = [make_track(
        tid=ti, caption=f"track{ti}",
        cloud=PointCloud(bases[int(g.integers(0, len(bases)))]
                         + g.uniform(0, 0.3, size=(int(g.integers(1, 30)), 3))),
        visual=Embedding(visuals[int(g.integers(0, n_proto))], "visual"),
        language=Embedding(languages[int(g.integers(0, n_proto))], "language"))
        for ti in range(n_trk)]

    def near(v):  # cosine well above either threshold
        return v + g.normal(0, 0.05, dim)

    dets = []
    for di in range(n_det):
        t = tracks[int(g.integers(0, n_trk))] if n_trk else None
        copy_visual, copy_language, copy_cloud = g.random(3) < 0.7
        visual = near(t.visual.vector) if t and copy_visual else g.standard_normal(dim)
        language = (near(t.language.vector) if t and copy_language
                    else g.standard_normal(dim))
        if t and copy_cloud:
            points = t.cloud.points + g.normal(0, 0.03, t.cloud.points.shape)
        else:
            points = g.uniform(-2, 2, 3) + g.uniform(0, 0.3, size=(int(g.integers(1, 30)), 3))
        dets.append(make_detection(frame_id=9, caption=f"det{di}", cloud=PointCloud(points),
                                   visual=Embedding(visual, "visual"),
                                   language=Embedding(language, "language")))
    return dets, tracks


def embedding_votes(d: Detection, t: Track) -> int:
    votes, overlap = reference_vote(d, t)
    return votes - int(overlap > graph.OVERLAP_THRESHOLD)


class TestAssociate:
    def test_single_candidate_matches(self):
        cloud = PointCloud([(0, 0, 0)])
        v = Embedding([1, 0], "visual")
        lang = Embedding([0, 1], "language")
        d = make_detection(cloud=cloud, visual=v, language=lang)
        t = make_track(tid=4, cloud=cloud, visual=v, language=lang)
        assert associate([d], [t]) == {0: 4}

    def test_no_tracks_all_new(self):
        d = make_detection()
        assert associate([d], []) == {0: None}

    def test_one_to_one_within_frame(self):
        cloud = PointCloud([(0, 0, 0)])
        v = Embedding([1, 0], "visual")
        lang = Embedding([0, 1], "language")
        dets = [make_detection(cloud=cloud, visual=v, language=lang)
                for _ in range(3)]
        t = make_track(tid=0, cloud=cloud, visual=v, language=lang)
        result = associate(dets, [t])
        matched = [di for di, tid in result.items() if tid == 0]
        assert len(matched) == 1
        assert sorted(result) == [0, 1, 2]

    def test_matches_reference_on_random_instances(self):
        for seed in range(200):
            g = rng(7000 + seed)
            dets, tracks = random_instance(seed, int(g.integers(0, 7)),
                                           int(g.integers(0, 7)))
            assert associate(dets, tracks) == \
                reference_associate(dets, tracks), f"seed {seed}"

    def test_contested_instances_match_reference(self, monkeypatch):
        """Both paths occur and agree with the exhaustive matcher: pairs
        whose overlap is skipped, and contested pairs whose overlap is
        computed, including one-vote pairs that the overlap decides."""
        real = graph.geometric_overlap
        calls = []
        monkeypatch.setattr(graph, "geometric_overlap",
                            lambda *a: calls.append(1) or real(*a))
        skipped = computed = shared_track = shared_det = overlap_decided = 0
        for seed in range(300):
            g = rng(9000 + seed)
            dets, tracks = contested_instance(seed, int(g.integers(1, 6)),
                                              int(g.integers(1, 6)))
            calls.clear()
            expected = reference_associate(dets, tracks)
            assert associate(dets, tracks) == expected, f"seed {seed}"
            votes = {(di, t.id): embedding_votes(d, t)
                     for di, d in enumerate(dets) for t in tracks}
            live = [pair for pair, v in votes.items() if v + 1 >= graph.MIN_VOTES]
            skipped += len(live) - len(calls)
            computed += len(calls)
            shared_det += len(live) > len({di for di, _ in live})
            shared_track += len(live) > len({tid for _, tid in live})
            overlap_decided += any(tid is not None and votes[di, tid] == 1
                                   for di, tid in expected.items())
        assert min(skipped, computed, shared_det, shared_track, overlap_decided) > 0

    def test_uncontested_two_vote_pair_skips_overlap(self, monkeypatch):
        def no_overlap(*_):
            raise AssertionError("overlap computed for an uncontested pair")

        monkeypatch.setattr(graph, "geometric_overlap", no_overlap)
        v = Embedding([1, 0, 0], "visual")
        lang = Embedding([0, 1, 0], "language")
        t = make_track(tid=3, cloud=PointCloud([(9, 9, 9)]), visual=v, language=lang)
        other = make_track(tid=5, visual=Embedding([0, 0, 1], "visual"),
                           language=Embedding([1, 0, 0], "language"))
        d = make_detection(cloud=PointCloud([(0, 0, 0)]), visual=v, language=lang)
        assert associate([d], [t, other]) == {0: 3}

    def test_vote_min_one_accepts_single_indicator(self, monkeypatch):
        v1, v2 = embedding_pair(0.9, 8, "visual", 11)
        la, lb = embedding_pair(0.0, 8, "language", 12)
        d = make_detection(cloud=PointCloud.empty(), visual=v1, language=la)
        t = make_track(cloud=PointCloud.empty(), visual=v2, language=lb)
        assert associate([d], [t]) == {0: None}  # MIN_VOTES is 2
        monkeypatch.setattr(graph, "MIN_VOTES", 1)
        assert associate([d], [t]) == {0: 0}


# -- merge_detection ------------------------------------------------------------

class TestMergeDetection:
    def test_ema_fixed_point(self):
        v = Embedding([1, 2, 2], "visual")
        lang = Embedding([2, 1, 2], "language")
        t = make_track(cloud=PointCloud([(0, 0, 0)]), visual=v, language=lang)
        d = make_detection(frame_id=3, cloud=PointCloud([(0, 0, 0)]),
                           visual=v, language=lang)
        merged = merge_detection(t, d)
        np.testing.assert_allclose(merged.visual.vector, v.vector, atol=1e-12)
        np.testing.assert_allclose(merged.language.vector, lang.vector, atol=1e-12)

    def test_orthogonal_midpoint(self):
        assert graph.EMA_WEIGHT == 0.5
        e1 = Embedding([1, 0, 0, 0], "visual")
        e2 = Embedding([0, 1, 0, 0], "visual")
        t = make_track(visual=e2)
        d = make_detection(frame_id=1, visual=e1)
        merged = merge_detection(t, d)
        np.testing.assert_allclose(
            merged.visual.vector, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-12)

    def test_sequence_matches_scalar_recurrence(self):
        """Fold five merges; compare to the same EMA recurrence computed
        standalone (normalize(a*new + (1-a)*old) at every step)."""
        assert graph.EMA_WEIGHT == 0.5
        g = rng(21)
        dim = 12
        track = make_track(visual=Embedding(g.standard_normal(dim), "visual"),
                           language=Embedding(g.standard_normal(dim), "language"))
        expected_v = track.visual.vector.copy()
        expected_l = track.language.vector.copy()
        for step in range(5):
            dv = unit(g.standard_normal(dim))
            dl = unit(g.standard_normal(dim))
            d = make_detection(frame_id=step + 1, caption=f"c{step}",
                               visual=Embedding(dv, "visual"),
                               language=Embedding(dl, "language"))
            track = merge_detection(track, d)
            expected_v = unit(0.5 * dv + 0.5 * expected_v)
            expected_l = unit(0.5 * dl + 0.5 * expected_l)
        np.testing.assert_allclose(track.visual.vector, expected_v, atol=1e-12)
        np.testing.assert_allclose(track.language.vector, expected_l, atol=1e-12)

    def test_clouds_unioned_and_downsampled(self):
        assert graph.VOXEL_SIZE_M == 0.02
        t = make_track(cloud=PointCloud([(0.001, 0, 0)]))
        d = make_detection(frame_id=1, cloud=PointCloud([(0.015, 0, 0), (1, 0, 0)]))
        merged = merge_detection(t, d)
        assert len(merged.cloud) == 2  # two occupied cells
        np.testing.assert_allclose(merged.cloud.points[0], [0.008, 0, 0])

    def test_clouds_fold_as_downsampled_unions(self, monkeypatch):
        """Each merge's cloud is ``voxel_downsample`` of the track's cloud
        unioned with the detection's, byte for byte, over a chain of
        merges whose clouds share cells, sit on cell boundaries and
        sometimes repeat a point. Both the path that keys only the detection
        and the one that downsamples the union whole run."""
        whole = []
        real = geometry.voxel_downsample
        monkeypatch.setattr(geometry, "voxel_downsample",
                            lambda cloud, voxel: whole.append(1) or real(cloud, voxel))
        v = graph.VOXEL_SIZE_M
        merges = 0
        for seed in range(12):
            g = rng(600 + seed)
            track = replace(make_track(), cloud=None)
            for step in range(8):
                pts = np.vstack([g.integers(-5, 5, size=(20, 3)) * v,
                                 g.uniform(-0.1, 0.1, size=(20, 3))])
                d = make_detection(frame_id=step, cloud=PointCloud(np.repeat(
                    pts, g.integers(1, 3, size=len(pts)), axis=0)))
                expected = real(d.cloud if track.cloud is None else
                                track.cloud.union(d.cloud), v)
                track = merge_detection(track, d)
                merges += 1
                assert track.cloud.points.tobytes() == expected.points.tobytes()
        assert 0 < len(whole) < merges

    def test_caption_and_frames_appended(self):
        t = make_track(caption="mug", frames=(0,))
        d = make_detection(frame_id=4, caption="red mug")
        merged = merge_detection(t, d)
        assert merged.caption_history == ("mug", "red mug")
        assert merged.visible_frames == (0, 4)
        assert merged.id == t.id
        assert merged.caption == "mug"  # consolidation owns caption changes

    def test_repeat_frame_keeps_ordered_set_semantics(self):
        t = make_track(frames=(0, 4))
        d = make_detection(frame_id=4)
        assert merge_detection(t, d).visible_frames == (0, 4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_merge_preserves_unit_norm_and_grows_frames(self, seed):
        g = rng(seed)
        ema_weight = float(g.uniform(0.1, 1.0))
        t = make_track(visual=Embedding(g.standard_normal(6), "visual"),
                       language=Embedding(g.standard_normal(6), "language"),
                       frames=(0,))
        d = make_detection(frame_id=1,
                           visual=Embedding(g.standard_normal(6), "visual"),
                           language=Embedding(g.standard_normal(6), "language"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "EMA_WEIGHT", ema_weight)
            merged = merge_detection(t, d)
        assert abs(np.linalg.norm(merged.visual.vector) - 1) < 1e-6
        assert abs(np.linalg.norm(merged.language.vector) - 1) < 1e-6
        assert len(merged.visible_frames) == len(t.visible_frames) + 1


# -- edges ---------------------------------------------------------------------

def _graph_with_tracks(n: int) -> SceneGraph:
    g = SceneGraph()
    for i in range(n):
        g.insert_track(make_track(tid=i, caption=f"t{i}"))
    return g


class TestEdges:
    def test_unknown_subject_rejected(self):
        g = _graph_with_tracks(2)
        edge = RelationEdge(9, 1, "on_top_of", "", 0)
        report = g.add_edges([edge])
        assert report.accepted == []
        assert report.rejected[0][1] == "unknown subject id 9"
        assert g.edges == []

    def test_duplicate_accepted_once(self):
        g = _graph_with_tracks(2)
        edge = RelationEdge(0, 1, "on_top_of", "sits on it", 3)
        first = g.add_edges([edge])
        second = g.add_edges([edge])
        assert len(first.accepted) == 1
        assert second.accepted == []
        assert len(g.edges) == 1

    def test_duplicate_within_one_batch_dropped(self):
        g = _graph_with_tracks(2)
        e = RelationEdge(0, 1, "contained_in", "", 0)
        report = g.add_edges([e, e])
        assert len(report.accepted) == 1

    def test_mixed_batch_matches_rule_filter(self):
        g = _graph_with_tracks(3)
        g.add_edges([RelationEdge(0, 1, "on_top_of", "", 0)])
        batch = [
            RelationEdge(0, 1, "on_top_of", "dup", 5),       # duplicate triple
            RelationEdge(0, 1, "attached_to", "", 5),        # new relation, ok
            RelationEdge(0, 9, "on_top_of", "", 5),          # unknown object
            RelationEdge(7, 1, "on_top_of", "", 5),          # unknown subject
            RelationEdge(2, 0, "contained_in", "", 5),       # ok
            RelationEdge(1, 0, "on_top_of", "", 5),          # ok (reversed)
        ]
        report = g.add_edges(batch)
        live = {0, 1, 2}
        existing = {(0, 1, "on_top_of")}
        expected = []
        for e in batch:
            if e.subject_id in live and e.object_id in live \
                    and e.key() not in existing:
                expected.append(e)
                existing.add(e.key())
        assert report.accepted == expected

    def test_label_enum_closed(self):
        with pytest.raises(GraphError):
            RelationEdge(0, 1, "next_to", "", 0)

    def test_self_edge_rejected(self):
        with pytest.raises(GraphError):
            RelationEdge(3, 3, "on_top_of", "", 0)

    def test_referential_integrity_after_operations(self):
        g = _graph_with_tracks(4)
        g.add_edges([RelationEdge(0, 1, "on_top_of", "", 0),
                     RelationEdge(2, 3, "attached_to", "", 1),
                     RelationEdge(1, 9, "on_top_of", "", 2)])
        live = set(g.tracks)
        assert all(e.subject_id in live and e.object_id in live for e in g.edges)


class TestEdgeDiscoveryDue:
    @pytest.mark.parametrize("index,expected", [
        (0, True), (1, False), (2, False), (3, True), (6, True), (7, False)])
    def test_default_period(self, index, expected):
        assert edge_discovery_due(index) is expected

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            edge_discovery_due(-1)


# -- caption consolidation -------------------------------------------------------

class _ConsolidateStub(Backend):
    def __init__(self, sentence="a red ceramic mug", fail=False):
        super().__init__()
        self.sentence = sentence
        self.fail_mode = fail
        self.requests = []

    def raw_call(self, request):
        self.requests.append(request)
        if self.fail_mode:
            raise TransportError("timeout")
        return {"sentence": self.sentence}


class TestConsolidateCaptions:
    def test_below_threshold_no_call(self):
        backend = _ConsolidateStub()
        t = make_track(caption="mug")
        out = consolidate_captions(t, backend)
        assert out.caption == "mug"
        assert backend.requests == []

    def test_five_entry_history_consolidates(self):
        backend = _ConsolidateStub("a red ceramic mug")
        t = replace(make_track(caption="mug"), caption_history=(
            "mug", "red mug", "mug", "ceramic mug", "red mug"))
        out = consolidate_captions(t, backend)
        assert out.caption == "a red ceramic mug"
        assert out.caption_history == ("a red ceramic mug",)
        assert backend.requests[0].payload == {
            "captions": ["mug", "red mug", "mug", "ceramic mug", "red mug"]}

    def test_backend_timeout_leaves_track_unchanged(self):
        backend = _ConsolidateStub(fail=True)
        t = replace(make_track(caption="mug"), caption_history=("mug", "red mug") * 3)
        out = consolidate_captions(t, backend)
        assert out is t
        # transport errors are retried once before giving up
        assert len(backend.requests) == 2

    def test_uniform_history_sends_no_request(self):
        """Five copies of one caption consolidate to it locally: the same
        track the backend's reply would give."""
        backend = _ConsolidateStub("mug")
        t = replace(make_track(caption="a mug"), caption_history=("mug",) * 5)
        out = consolidate_captions(t, backend)
        assert backend.requests == []
        assert (out.caption, out.caption_history) == ("mug", ("mug",))
        assert (out.id, out.cloud, out.visible_frames) \
            == (t.id, t.cloud, t.visible_frames)

    def test_two_caption_history_sends_one_request(self):
        backend = _ConsolidateStub("mug")
        t = replace(make_track(caption="mug"),
                    caption_history=("mug",) * 4 + ("red mug",))
        out = consolidate_captions(t, backend)
        assert len(backend.requests) == 1
        assert backend.requests[0].payload == {"captions": list(t.caption_history)}
        assert (out.caption, out.caption_history) == ("mug", ("mug",))


# -- synthetic K-object scene property -------------------------------------------

class TestTrackCountProperty:
    def test_distinct_objects_yield_exactly_k_tracks(self):
        """Objects with embedding cosine < 0.5 and > 1 m separation,
        re-observed over many frames, never merge and never split."""
        g = rng(99)
        k = 6
        frames = 12
        dim = 24
        visuals = [hash_embedding(f"obj{i}", "visual", dim) for i in range(k)]
        languages = [hash_embedding(f"cap{i}", "language", dim) for i in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                assert abs(cosine(visuals[a], visuals[b])) < 0.5
                assert abs(cosine(languages[a], languages[b])) < 0.5
        centers = [np.array([2.5 * i, 0.0, 0.0]) for i in range(k)]
        scene_graph = SceneGraph()
        for f in range(frames):
            dets = []
            for i in g.permutation(k):
                pts = centers[i] + g.uniform(0, 0.2, size=(20, 3))
                dets.append(make_detection(
                    frame_id=f, caption=f"cap{i}", cloud=PointCloud(pts),
                    visual=visuals[i], language=languages[i]))
            tracks = [scene_graph.tracks[t] for t in sorted(scene_graph.tracks)]
            for di, tid in sorted(associate(dets, tracks).items()):
                if tid is None:
                    scene_graph.insert_track(Track(
                        id=scene_graph.new_track_id(), cloud=dets[di].cloud,
                        visual=dets[di].visual, language=dets[di].language,
                        caption=dets[di].caption,
                        caption_history=(dets[di].caption,),
                        visible_frames=(f,)))
                else:
                    scene_graph.replace_track(
                        merge_detection(scene_graph.tracks[tid], dets[di]))
        assert len(scene_graph) == k


class TestEmbeddingLength:
    def test_dim_has_no_default(self):
        """The length is EngineConfig.embedding_dim, which every caller
        passes; the hash embeddings keep no second default."""
        for fn in (hash_embedding, caption_embedding):
            assert inspect.signature(fn).parameters["dim"].default \
                is inspect.Parameter.empty, fn.__name__
