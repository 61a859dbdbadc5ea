"""Synthetic scene generation: determinism, analytic raycast oracle,
screen windows, mask encoding, template relations, visibility guarantees
and question generation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from scenemem import (PixelMask, RuleReasoner, backproject, generate_questions,
                      generate_scene)
from scenemem.synth import (MIN_VISIBLE_PIXELS, PARENT_TEMPLATES, Box, GenerationError,
                            GtDetection, RoomSpec, SceneObject, SceneParams,
                            SyntheticScene, box_corners, load_questions, look_at_pose,
                            projected_extent, save_questions, screen_windows)

from conftest import rng


def ray_box_intersect(origin, direction, box: Box) -> float | None:
    """Scalar slab-method oracle; returns entry parameter or None."""
    t0, t1 = -np.inf, np.inf
    for axis in range(3):
        o, d = origin[axis], direction[axis]
        lo, hi = box.lo[axis], box.hi[axis]
        if abs(d) < 1e-12:
            if not lo <= o <= hi:
                return None
            continue
        a, b = (lo - o) / d, (hi - o) / d
        if a > b:
            a, b = b, a
        t0, t1 = max(t0, a), min(t1, b)
    if t0 > t1 or t1 <= 0 or t0 <= 1e-6:
        return None
    return t0


def reference_render(scene: SyntheticScene, frame_id: int):
    """Row-major slab oracle: the (n, 3) form of ``SyntheticScene.render``,
    reducing each ray's three slab entries and exits with max/min over
    rows. ``render`` must reproduce its depth and hit map byte for byte."""
    intr = scene.intrinsics
    pose = scene.poses[frame_id]
    us, vs = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
    d_cam = np.stack([(us.ravel() - intr.cx) / intr.fx,
                      (vs.ravel() - intr.cy) / intr.fy,
                      np.ones(us.size)], axis=1)
    d_world = d_cam @ pose.rotation.T
    origin = pose.translation
    n = d_world.shape[0]
    best_s = np.full(n, np.inf)
    best_id = np.full(n, -2, dtype=np.int64)
    safe_d = np.where(np.abs(d_world) < 1e-12, 1e-12, d_world)
    boxes, ids = scene._all_boxes()
    for box, bid in zip(boxes, ids):
        lo = (np.asarray(box.lo) - origin) / safe_d
        hi = (np.asarray(box.hi) - origin) / safe_d
        tmin = np.minimum(lo, hi).max(axis=1)
        tmax = np.maximum(lo, hi).min(axis=1)
        hit = (tmin <= tmax) & (tmax > 0) & (tmin > 1e-6) & (tmin < best_s)
        best_s[hit] = tmin[hit]
        best_id[hit] = bid
    depth = np.where(np.isfinite(best_s), best_s, 0.0)
    return (depth.reshape(intr.height, intr.width),
            best_id.reshape(intr.height, intr.width))


def reference_gt_detections(scene: SyntheticScene, frame_id: int):
    """Per-object scan oracle for ``SyntheticScene.gt_detections``: each
    object's pixels by ``np.nonzero`` of the hit map, which is row-major."""
    _, idmap = reference_render(scene, frame_id)
    out = []
    for obj in scene.objects:
        rows, cols = np.nonzero(idmap == obj.index)
        if rows.size < MIN_VISIBLE_PIXELS:
            continue
        bbox = (int(cols.min()), int(rows.min()), int(cols.max()), int(rows.max()))
        starts = np.flatnonzero((np.diff(rows) != 0) | (np.diff(cols) != 1)) + 1
        starts = np.concatenate(([0], starts))
        ends = np.append(starts[1:], rows.size) - 1
        runs = zip(rows[starts].tolist(), cols[starts].tolist(), cols[ends].tolist())
        out.append(GtDetection(object_index=obj.index, caption=obj.caption,
                               bbox=bbox, mask_runs=tuple(runs)))
    return tuple(out)


@pytest.fixture(scope="module")
def eight_rooms():
    return generate_scene(8, 3, seed=1000)


def window_case_scene() -> SyntheticScene:
    """A hand-built scene whose frames hold every screen-window case: the
    floor straddles the camera plane, one box stands wholly behind the
    camera, one in front but far off to the side, one whose projection
    starts just past the right image edge, inside the window margin, and
    one in plain view."""
    params = SceneParams(rooms=1, objects_per_room=4, seed=0, width=97,
                         height=73, focal=50.0, views_per_room=2)
    room = RoomSpec(index=0, label="kitchen", x0=-5.0, y0=-5.0, x1=5.0, y1=5.0)
    objects = [
        SceneObject(0, "box", "red", Box((-3.0, -0.5, 0.0), (-2.0, 0.5, 1.0)), 0),
        SceneObject(1, "lamp", "blue", Box((3.0, -10.0, 0.0), (4.0, -9.0, 1.0)), 0),
        # camera x / depth is 3.136 / 3.2 = 0.98 at its nearest column, so
        # its projection starts at u = cx + 0.98 fx = 97, one past the edge
        SceneObject(2, "chair", "green", Box((3.0, -3.5, 0.5), (3.2, -3.136, 1.5)), 0),
        SceneObject(3, "plant", "teal", Box((2.0, -0.5, 0.0), (2.5, 0.5, 0.8)), 0),
    ]
    structure = [Box((-5.0, -5.0, -0.1), (5.0, 5.0, 0.0))]
    poses = [look_at_pose((0.0, 0.0, 1.0), (5.0, 0.0, 1.0)),
             look_at_pose((0.0, 0.0, 1.0), (5.0, 1.0, 0.2))]
    return SyntheticScene(params, [room], objects, [], structure, poses)


def window_cases(scene: SyntheticScene, frame_id: int) -> set[str]:
    """The screen-window cases that occur on one frame of ``scene``."""
    intr = scene.intrinsics
    pose = scene.poses[frame_id]
    corners = box_corners(scene._all_boxes()[0])
    depth = ((corners - pose.translation) @ pose.rotation)[..., 2]
    extent = projected_extent(corners, pose, intr)
    cases = set()
    for z, (u0, v0, u1, v1), win in zip(depth, extent, screen_windows(corners, pose, intr)):
        on_image = u1 >= 0 and v1 >= 0 and u0 <= intr.width - 1 and v0 <= intr.height - 1
        if z.max() < 0:
            assert win is None
            cases.add("behind")
        elif z.min() < 0:
            assert win is not None
            cases.add("straddling")
        elif win is None:
            assert not on_image
            cases.add("off-screen")
        elif not on_image:
            cases.add("margin")
    return cases


def axis_aligned_scene() -> SyntheticScene:
    """A hand-built scene on an odd-sized frame whose cameras look along
    world axes. The principal row and column then carry ray components
    that are exactly 0 and take the 1e-12 substitution, and several box
    faces sit exactly at a camera coordinate, so slab entries of 0 meet
    divisors of both signs."""
    params = SceneParams(rooms=1, objects_per_room=3, seed=0, width=97,
                         height=73, focal=50.0, views_per_room=3)
    room = RoomSpec(index=0, label="kitchen", x0=0.0, y0=0.0, x1=4.0, y1=4.0)
    objects = [
        SceneObject(0, "box", "red", Box((2.5, 1.0, 0.0), (3.0, 2.0, 1.0)), 0),
        SceneObject(1, "lamp", "blue", Box((3.0, 2.0, 1.0), (3.5, 3.0, 2.0)), 0),
        SceneObject(2, "chair", "green", Box((1.0, 3.0, 0.0), (2.0, 3.5, 1.0)), 0),
    ]
    structure = [Box((-0.5, -0.5, -0.1), (4.5, 4.5, 0.0)),
                 Box((4.0, -0.5, 0.0), (4.1, 4.5, 2.5))]
    poses = [look_at_pose((1.0, 2.0, 1.0), (3.0, 2.0, 1.0)),
             look_at_pose((2.0, 1.0, 1.0), (2.0, 4.0, 1.0)),
             look_at_pose((0.5, 0.5, 1.0), (3.5, 0.5, 1.0))]
    return SyntheticScene(params, [room], objects, [], structure, poses)


class TestDeterminism:
    def test_same_seed_identical_scene(self):
        a = generate_scene(2, 3, seed=42)
        b = generate_scene(2, 3, seed=42)
        assert [o.caption for o in a.objects] == [o.caption for o in b.objects]
        assert [(r.subject_index, r.relation, r.object_index) for r in a.relations] \
            == [(r.subject_index, r.relation, r.object_index) for r in b.relations]
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(pa.translation, pb.translation)
        da, _ = a.render(0)
        db, _ = b.render(0)
        assert np.array_equal(da, db)

    def test_different_seeds_differ(self):
        a = generate_scene(2, 3, seed=1)
        b = generate_scene(2, 3, seed=2)
        assert [o.caption for o in a.objects] != [o.caption for o in b.objects]

    def test_truth_file_round_trip(self, tmp_path):
        scene = generate_scene(3, 2, seed=9)
        scene.save(tmp_path / "truth.json")
        loaded = SyntheticScene.load(tmp_path / "truth.json")
        assert loaded.scene_id == scene.scene_id
        assert [o.caption for o in loaded.objects] == [o.caption for o in scene.objects]
        assert np.array_equal(loaded.render(2)[0], scene.render(2)[0])

    def test_truth_file_format_guard(self, tmp_path):
        (tmp_path / "bogus.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(GenerationError):
            SyntheticScene.load(tmp_path / "bogus.json")


class TestRaycast:
    def test_depth_matches_analytic_intersection(self, small_scene):
        scene = small_scene
        depth, idmap = scene.render(0)
        pose = scene.poses[0]
        intr = scene.intrinsics
        boxes = list(scene.structure_boxes) + [o.box for o in scene.objects]
        g = rng(17)
        for _ in range(120):
            u = int(g.integers(0, intr.width))
            v = int(g.integers(0, intr.height))
            d_cam = np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
            d_world = pose.rotation @ d_cam
            hits = [ray_box_intersect(pose.translation, d_world, box)
                    for box in boxes]
            hits = [h for h in hits if h is not None]
            if not hits:
                assert depth[v, u] == 0.0
            else:
                assert depth[v, u] == pytest.approx(min(hits), abs=1e-9)

    def test_idmap_matches_nearest_box(self, small_scene):
        scene = small_scene
        _, idmap = scene.render(3)
        pose = scene.poses[3]
        intr = scene.intrinsics
        boxes, ids = scene._all_boxes()
        g = rng(18)
        for _ in range(60):
            u = int(g.integers(0, intr.width))
            v = int(g.integers(0, intr.height))
            d_cam = np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
            d_world = pose.rotation @ d_cam
            best, best_id = np.inf, -2
            for box, bid in zip(boxes, ids):
                h = ray_box_intersect(pose.translation, d_world, box)
                if h is not None and h < best:
                    best, best_id = h, bid
            assert idmap[v, u] == best_id

    def test_masked_pixels_backproject_onto_boxes(self, small_scene):
        """Back-projected detection masks must land on the generating box
        surface within one voxel for at least 99% of pixels."""
        scene = small_scene
        episode = scene.episode()
        total = on_surface = 0
        for fid in range(scene.frame_count):
            frame = episode.frame(fid)
            for det in scene.gt_detections(fid):
                box = scene.objects[det.object_index].box
                mask = PixelMask.from_runs(det.mask_runs, frame.intrinsics.width,
                                           frame.intrinsics.height)
                cloud = backproject(frame.depth, mask, frame.intrinsics, frame.pose)
                lo = np.asarray(box.lo) - 0.02
                hi = np.asarray(box.hi) + 0.02
                inside = ((cloud.points >= lo) & (cloud.points <= hi)).all(axis=1)
                total += len(cloud)
                on_surface += int(inside.sum())
        assert total > 0
        assert on_surface / total >= 0.99

    def assert_matches_reference(self, scene, frame_ids):
        for fid in frame_ids:
            depth, idmap = scene.render(fid)
            ref_depth, ref_idmap = reference_render(scene, fid)
            assert depth.tobytes() == ref_depth.tobytes(), fid
            assert idmap.tobytes() == ref_idmap.tobytes(), fid

    def test_render_bytes_match_reference_on_every_frame(self, small_scene):
        self.assert_matches_reference(small_scene, range(small_scene.frame_count))

    def test_render_bytes_match_reference_on_eight_rooms(self, eight_rooms):
        self.assert_matches_reference(eight_rooms, range(eight_rooms.frame_count))

    def test_render_bytes_match_reference_on_axis_aligned_rays(self):
        scene = axis_aligned_scene()
        for fid in range(scene.frame_count):
            _, idmap = scene.render(fid)
            assert (idmap >= 0).any() and (idmap == -1).any()
        # the principal row and column carry exact zero ray components
        cx, cy = scene.intrinsics.cx, scene.intrinsics.cy
        assert cx == int(cx) and cy == int(cy)
        self.assert_matches_reference(scene, range(scene.frame_count))

    def test_render_bytes_match_reference_in_every_window_case(self):
        scene = window_case_scene()
        cases = set()
        for fid in range(scene.frame_count):
            cases |= window_cases(scene, fid)
            _, idmap = scene.render(fid)
            assert (idmap >= 0).any() and (idmap == -1).any()
        assert cases == {"behind", "straddling", "off-screen", "margin"}
        self.assert_matches_reference(scene, range(scene.frame_count))

    def test_window_holds_every_pixel_its_box_hits(self):
        """Each random box, ray-cast alone by the full-image oracle, hits
        only pixels inside its screen window."""
        g = rng(31)
        params = SceneParams(rooms=1, objects_per_room=1, seed=0, width=48,
                             height=36, focal=30.0, views_per_room=1)
        room = RoomSpec(index=0, label="kitchen", x0=-4.0, y0=-4.0, x1=4.0, y1=4.0)
        hit_boxes = straddling_hits = 0
        for _ in range(300):
            pose = look_at_pose(g.uniform(-2, 2, 3), g.uniform(-2, 2, 3))
            # within a metre of the camera, so many boxes straddle its plane
            center = pose.translation + g.uniform(-1, 1, 3)
            half = g.uniform(0.05, 1.0, 3)
            box = Box(tuple((center - half).tolist()), tuple((center + half).tolist()))
            scene = SyntheticScene(params, [room], [SceneObject(0, "box", "red", box, 0)],
                                   [], [], [pose])
            _, idmap = reference_render(scene, 0)
            rows, cols = np.nonzero(idmap == 0)
            (win,) = screen_windows(box_corners([box]), pose, scene.intrinsics)
            if rows.size == 0:
                continue
            assert win is not None
            assert (win[0].start <= rows).all() and (rows < win[0].stop).all()
            assert (win[1].start <= cols).all() and (cols < win[1].stop).all()
            hit_boxes += 1
            depth = ((box_corners([box]) - pose.translation) @ pose.rotation)[..., 2]
            straddling_hits += int(depth.min() < 0)
        assert hit_boxes >= 100 and straddling_hits >= 20

    def test_gt_detections_match_reference_scan(self, small_scene, eight_rooms):
        for scene in (small_scene, eight_rooms, axis_aligned_scene()):
            for fid in range(scene.frame_count):
                dets = scene.gt_detections(fid)
                assert dets == reference_gt_detections(scene, fid), fid
                for det in dets:
                    assert all(type(x) is int for x in det.bbox)
                    assert all(type(x) is int for run in det.mask_runs for x in run)

    def test_cached_render_is_read_only(self, small_scene):
        depth, idmap = small_scene.render(1)
        with pytest.raises(ValueError):
            depth[0, 0] = 1.0
        with pytest.raises(ValueError):
            idmap[0, 0] = 0
        again_depth, again_idmap = small_scene.render(1)
        assert again_depth is depth and again_idmap is idmap

    def test_invalid_depth_outside_scene(self, small_scene):
        # some rays above the horizon escape without hitting any box
        depth, idmap = small_scene.render(0)
        assert (idmap == -2).sum() == (depth == 0.0).sum()


class TestRelations:
    def test_cup_on_table_template(self):
        scene = generate_scene(1, 2, seed=0)
        rels = [(scene.objects[r.subject_index].class_name, r.relation,
                 scene.objects[r.object_index].class_name)
                for r in scene.relations]
        assert ("cup", "on_top_of", "table") in rels

    def test_relations_are_the_template_pairs(self):
        """Every relation joins a template child to the parent placed just
        before it, with the template's label, and every parent has one."""
        scene = generate_scene(6, 3, seed=4)
        children = {parent: (child, relation)
                    for parent, _, ((child, _, relation),) in PARENT_TEMPLATES}
        expected = [(o.index + 1, children[o.class_name][1], o.index)
                    for o in scene.objects if o.class_name in children]
        assert [(r.subject_index, r.relation, r.object_index)
                for r in scene.relations] == expected
        for r in scene.relations:
            parent = scene.objects[r.object_index].class_name
            assert scene.objects[r.subject_index].class_name == children[parent][0]


class TestGeneratorGuarantees:
    def test_every_object_visible_somewhere(self, small_scene):
        seen = set()
        for fid in range(small_scene.frame_count):
            seen.update(small_scene.visible_objects(fid))
        assert seen == {o.index for o in small_scene.objects}

    def test_related_pairs_covisible_on_discovery_frames(self, small_scene):
        ok = set()
        for fid in range(0, small_scene.frame_count, 3):
            visible = set(small_scene.visible_objects(fid))
            for rel in small_scene.relations:
                if rel.subject_index in visible and rel.object_index in visible:
                    ok.add((rel.subject_index, rel.object_index))
        assert ok == {(r.subject_index, r.object_index)
                      for r in small_scene.relations}

    def test_captions_unique(self, small_scene):
        captions = [o.caption for o in small_scene.objects]
        assert len(captions) == len(set(captions))

    def test_overflow_spec_rejected(self):
        with pytest.raises(GenerationError):
            generate_scene(1, 7, seed=0)

    def test_acceptance_scale_scenes_generate(self):
        for seed in range(20):
            rooms = 2 + seed % 3
            opr = 2 + (seed % 2 if rooms < 4 else 0)
            scene = generate_scene(rooms, opr, seed=seed)
            assert 4 <= len(scene.objects) <= 10

    def test_gt_masks_consistent_with_bbox(self, small_scene):
        for det in small_scene.gt_detections(0):
            u0, v0, u1, v1 = det.bbox
            for v, us, ue in det.mask_runs:
                assert v0 <= v <= v1
                assert u0 <= us <= ue <= u1


class TestQuestions:
    def test_answers_from_truth(self, small_scene):
        questions = generate_questions(small_scene)
        by_cat = {}
        for q in questions:
            by_cat.setdefault(q.category, []).append(q)
        assert set(by_cat) == {"spatial", "localization", "attribute", "counting"}
        count_q = by_cat["counting"][0]
        assert count_q.answer == str(len(small_scene.objects))
        for q in by_cat["spatial"]:
            assert any(o.caption == q.answer for o in small_scene.objects)

    def test_questions_parse_back_to_what_they_were_written_from(self):
        """Six rooms of two objects use every parent template, so every
        question kind is asked; each question parses back through the rule
        reasoner to its kind and target."""
        scene = generate_scene(6, 2, seed=0)
        parents = {scene.objects[r.object_index].class_name for r in scene.relations}
        assert parents == {name for name, _, _ in PARENT_TEMPLATES}
        questions = generate_questions(scene)
        written = ([(r.relation, scene.objects[r.object_index].caption)
                    for r in scene.relations]
                   + [("room", o.caption) for o in scene.objects[::2]])
        parsed = [RuleReasoner._parse(q.question) for q in questions]
        assert parsed[:len(written)] == written
        (color_kind, cls_name), count = parsed[len(written):]
        assert color_kind == "color" and count == ("count", None)
        holders = [o for o in scene.objects if o.class_name == cls_name]
        assert [o.color for o in holders] == [questions[-2].answer]

    def test_question_file_round_trip(self, small_scene, tmp_path):
        questions = generate_questions(small_scene)
        save_questions(questions, tmp_path / "q.json")
        assert load_questions(tmp_path / "q.json") == questions
