"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Tolerances are pinned here and nowhere else:
  1. oracle reconstruction  — exact 1.0 precision/recall, < 60 s for 20 scenes
  2. association equivalence — exact match on 1000 instances (<= 6x6)
  3. geometry oracles       — exact overlap equality; census + idempotence;
                              back-projection round trip < 1e-6
  4. patch semantics        — zero new tracks on re-apply; byte-identical
                              memory after 100/100 injected failures
  5. loop budget + evidence — calls_used <= m for m in {0,1,2,5,20}; zero
                              API-execution calls at m=0; 100% adversarial
                              evidence rejection
  6. call distribution      — mean 2.0 and p95 5 exactly on {0,1,1,2,2,2,3,5}
  7. serialization          — 50 random memories byte-stable; golden files
  8. degradation            — recall non-increasing, sweep calls
                              non-decreasing over miss in {0, 0.2, 0.4}
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import scenemem.apis as apis_module
import scenemem.graph as graph_module
from scenemem import (ApiCall, ApiExecutor, CameraIntrinsics, DepthMap,
                      EngineConfig, EpisodeQuery, PixelMask, PointCloud,
                      RelationEdge, SceneMemory, ScriptedBackend, answer,
                      apply_patch, associate, backproject, build_ssm,
                      deserialize, generate_scene, geometric_overlap,
                      run_episode_batch, serialize, validate_evidence,
                      vote_score, voxel_downsample)
from scenemem.backend import REQUEST_KINDS
from scenemem.geometry import project
from scenemem.metrics import graph_precision_recall, recall_sweep, track_recall
from scenemem.scripted import RuleReasoner, ScriptReasoner

from conftest import make_pose, rng
from test_geometry import brute_overlap, brute_voxel_census
from test_graph import random_instance, reference_associate, reference_vote
from test_memory import random_ssm

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _scene_params(seed: int) -> tuple[int, int]:
    rooms = 2 + seed % 3
    objects_per_room = 2 + (seed % 2 if rooms < 4 else 0)
    return rooms, objects_per_room


def test_criterion_1_oracle_reconstruction():
    with criterion(1, "oracle reconstruction"):
        start = time.perf_counter()
        for seed in range(20):
            rooms, opr = _scene_params(seed)
            scene = generate_scene(rooms, opr, seed=seed)
            assert 4 <= len(scene.objects) <= 10
            backend = ScriptedBackend(scene)
            ssm = build_ssm(scene.episode(), backend, EngineConfig())
            assert graph_precision_recall(ssm, scene) == (1.0, 1.0, 1.0, 1.0), \
                f"scene seed {seed} not perfectly reconstructed"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"20-scene reconstruction took {elapsed:.1f}s"


def test_criterion_2_association_equivalence():
    with criterion(2, "association equivalence"):
        assert (graph_module.VISUAL_SIM_THRESHOLD, graph_module.CAPTION_SIM_THRESHOLD,
                graph_module.OVERLAP_THRESHOLD) == (0.7, 0.8, 0.4)
        for instance in range(1000):
            g = rng(50_000 + instance)
            dets, tracks = random_instance(instance, int(g.integers(0, 7)),
                                           int(g.integers(0, 7)))
            assert associate(dets, tracks) \
                == reference_associate(dets, tracks), f"instance {instance}"
            for d in dets:
                for t in tracks:
                    assert vote_score(d, t) == reference_vote(d, t)[0]


def test_criterion_3_geometry_oracles():
    with criterion(3, "geometry oracles"):
        # overlap: grid path equals brute force exactly, 100 pairs <= 500 pts
        for seed in range(100):
            g = rng(60_000 + seed)
            det = g.uniform(-1, 1, size=(int(g.integers(1, 501)), 3))
            if seed % 2:
                trk = det[: max(1, det.shape[0] // 2)] \
                    + g.normal(0, 0.04, size=(max(1, det.shape[0] // 2), 3))
            else:
                trk = g.uniform(-1, 1, size=(int(g.integers(1, 501)), 3))
            assert geometric_overlap(PointCloud(det), PointCloud(trk), 0.05) \
                == brute_overlap(det, trk, 0.05), f"pair {seed}"

        # voxel downsample: occupied-cell census + idempotence, 100 clouds
        for seed in range(100):
            g = rng(70_000 + seed)
            pts = g.uniform(-2, 2, size=(int(g.integers(1, 2000)), 3))
            out = voxel_downsample(PointCloud(pts), 0.02)
            assert len(out) == len(brute_voxel_census(pts, 0.02)), f"cloud {seed}"
            again = voxel_downsample(out, 0.02)
            assert np.array_equal(out.points, again.points), f"cloud {seed}"

        # back-projection round trip < 1e-6 across 10,000 random pixels
        intr = CameraIntrinsics(fx=80.0, fy=90.0, cx=47.5, cy=35.5,
                                width=96, height=72)
        g = rng(80_000)
        total = 0
        worst = 0.0
        while total < 10_000:
            pose = make_pose(float(g.uniform(-180, 180)), g.uniform(-5, 5, 3),
                             float(g.uniform(-45, 45)))
            values = g.uniform(0.3, 9.0, size=(72, 96))
            depth = DepthMap(values)
            pix = np.column_stack([g.integers(0, 96, 1000),
                                   g.integers(0, 72, 1000)])
            mask = PixelMask(96, 72, pix)
            cloud = backproject(depth, mask, intr, pose)
            u, v, z = project(cloud, intr, pose)
            expected = mask.pixels
            err_u = np.abs(u - expected[:, 0]).max()
            err_v = np.abs(v - expected[:, 1]).max()
            err_z = np.abs(z - values[expected[:, 1], expected[:, 0]]).max()
            worst = max(worst, err_u, err_v, err_z)
            total += len(cloud)
        assert worst < 1e-6, f"round-trip error {worst}"


def test_criterion_4_patch_semantics(monkeypatch):
    with criterion(4, "patch semantics"):
        cfg = EngineConfig()
        stages = ["_associate_detections", "_insert_edges", "_append_notes",
                  "_append_frame_memory"]
        scenarios = []  # (ssm, executor, frame id)
        for seed in range(5):
            scene = generate_scene(2, 2, seed=400 + seed)
            backend = ScriptedBackend(scene, reasoner=RuleReasoner())
            episode = scene.episode()
            ssm = build_ssm(episode, backend, cfg)
            executor = ApiExecutor(episode, backend, cfg)
            for fid in episode.frame_ids[:10]:
                scenarios.append((ssm, executor, fid))
        assert len(scenarios) == 50

        # double application: second pass creates nothing, duplicates drop
        for i, (ssm, executor, fid) in enumerate(scenarios):
            patch = executor.execute(
                ApiCall("analyze_frame", fid, "describe all objects"), ssm)
            visible = sorted(tid for tid, t in ssm.graph.tracks.items()
                             if fid in t.visible_frames)
            if len(visible) >= 2:
                patch.new_edges.append(RelationEdge(
                    visible[0], visible[1], "attached_to", "scenario edge", fid))
            first, rep1 = apply_patch(ssm.copy(), patch)
            second, rep2 = apply_patch(first, patch)
            assert rep2.failure is None, f"scenario {i}: {rep2.failure}"
            assert rep2.created == [], f"scenario {i} created tracks on re-apply"
            assert len(second.graph.tracks) == len(first.graph.tracks)
            assert len(second.graph.edges) == len(first.graph.edges)
            if len(visible) >= 2:
                assert "duplicate edge" in rep2.edges_rejected, f"scenario {i}"

        # fault injection: 100 trials, memory byte-identical afterwards
        for trial in range(100):
            ssm, executor, fid = scenarios[trial % len(scenarios)]
            stage = stages[trial % len(stages)]
            patch = executor.execute(
                ApiCall("analyze_frame", fid, "describe all objects"), ssm)
            before = serialize(ssm)[0]

            def boom(*args, **kwargs):
                raise RuntimeError("injected")

            with monkeypatch.context() as mp:
                mp.setattr(apis_module, stage, boom)
                updated, report = apply_patch(ssm, patch)
            assert updated is ssm
            assert report.failure is not None, f"trial {trial} did not fail"
            assert serialize(ssm)[0] == before, f"trial {trial} mutated memory"


def test_criterion_5_loop_budget_and_evidence(small_build):
    with criterion(5, "loop budget and evidence"):
        scene, episode, _, ssm = small_build
        cfg = EngineConfig()

        explore = [{"action": {"api": "analyze_frame",
                               "frame_id": f % scene.frame_count,
                               "query": "look around"}} for f in range(60)]
        final = {"final_answer": "done", "evidence": "auto"}

        for m in (0, 1, 2, 5, 20):
            backend = ScriptedBackend(
                scene, reasoner=ScriptReasoner(default=explore + [final]))
            before = dict(backend.call_counts)
            cfg.max_api_calls = m
            out = answer(EpisodeQuery("explore", m, scene.scene_id), ssm,
                         episode, backend, cfg)
            assert out.calls_used <= m, f"m={m}: used {out.calls_used}"
            assert len(out.transcript) == out.calls_used
            if m == 0:
                for kind in set(REQUEST_KINDS) - {"reason"}:
                    assert backend.call_counts[kind] == before[kind], \
                        f"m=0 issued {kind} calls"

        # adversarial evidence fixtures: every fabrication must be caught
        adversarial = {
            "phantom frame": {"final_answer": "x", "evidence_frames": [424242],
                              "evidence_notes": [[0, 0]]},
            "phantom note index": {"final_answer": "x",
                                   "evidence_frames": [ssm.frame_memory.frames[0]],
                                   "evidence_notes": [[0, 99]]},
            "phantom node": {"final_answer": "x",
                             "evidence_frames": [ssm.frame_memory.frames[0]],
                             "evidence_notes": [[31337, 0]]},
            "no evidence at all": {"final_answer": "x", "evidence_frames": [],
                                   "evidence_notes": []},
            "frame outside memory": {"final_answer": "x",
                                     "evidence_frames": [
                                         next(f for f in ssm.frame_ids
                                              if f not in ssm.frame_memory)],
                                     "evidence_notes": [[0, 0]]},
        }
        cfg.max_api_calls = 5
        for name, bad in adversarial.items():
            backend = ScriptedBackend(
                scene, reasoner=ScriptReasoner(default=[bad, bad]))
            out = answer(EpisodeQuery(name, 5, scene.scene_id), ssm, episode,
                         backend, cfg)
            assert not out.compliant, f"fixture '{name}' not rejected"
            assert out.violations, f"fixture '{name}' produced no violations"
            direct = validate_evidence(bad["evidence_frames"],
                                       [tuple(n) for n in bad["evidence_notes"]],
                                       ssm)
            assert direct, f"fixture '{name}' passes direct validation"


def test_criterion_6_call_distribution(small_build):
    with criterion(6, "call distribution metric"):
        scene, episode, _, ssm = small_build
        target_counts = [0, 1, 1, 2, 2, 2, 3, 5]
        scripts = {}
        for i, count in enumerate(target_counts):
            steps = [{"action": {"api": "analyze_frame",
                                 "frame_id": f % scene.frame_count,
                                 "query": "look"}} for f in range(count)]
            scripts[f"q{i}"] = steps + [{"final_answer": f"a{i}",
                                         "evidence": "auto"}]
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(scripts=scripts))
        queries = [EpisodeQuery(f"q{i}", 20, scene.scene_id)
                   for i in range(len(target_counts))]
        result = run_episode_batch(queries, ssm.copy, episode, backend,
                                   EngineConfig())
        assert [a.calls_used for a in result.answers] == target_counts
        assert result.mean_calls == 2.0
        assert result.p95_calls == 5
        assert result.histogram == {0: 1, 1: 2, 2: 3, 3: 1, 5: 1}


def test_criterion_7_serialization():
    with criterion(7, "serialization stability"):
        for seed in range(50):
            ssm = random_ssm(10_000 + seed)
            once = serialize(ssm)[0]
            twice = serialize(deserialize(once))[0]
            assert once == twice, f"memory seed {seed} not byte-stable"

        empty = SceneMemory.empty("empty-scene", 1, [])
        assert serialize(empty)[0] == (GOLDEN / "empty_ssm.json").read_text()

        golden_text = (GOLDEN / "one_track_ssm.json").read_text()
        assert serialize(deserialize(golden_text))[0] == golden_text


def test_criterion_8_degradation_monotonicity():
    with criterion(8, "degradation monotonicity"):
        cfg = EngineConfig()
        mean_recall = {}
        mean_calls = {}
        for miss in (0.0, 0.2, 0.4):
            recalls = []
            sweep_calls = []
            for seed in range(10):
                scene = generate_scene(2, 2, seed=seed, views_per_room=3)
                episode = scene.episode()
                backend = ScriptedBackend(scene, miss_prob=miss, seed=300 + seed)
                ssm = build_ssm(episode, backend, cfg)
                recalls.append(track_recall(ssm, scene))
                calls, final = recall_sweep(scene, ssm, episode, backend, cfg)
                assert track_recall(final, scene) == 1.0
                sweep_calls.append(calls)
            mean_recall[miss] = sum(recalls) / len(recalls)
            mean_calls[miss] = sum(sweep_calls) / len(sweep_calls)
        assert mean_recall[0.0] >= mean_recall[0.2] >= mean_recall[0.4], \
            f"recall not monotone: {mean_recall}"
        assert mean_recall[0.0] == 1.0
        assert mean_calls[0.0] <= mean_calls[0.2] <= mean_calls[0.4], \
            f"sweep calls not monotone: {mean_calls}"
        assert mean_recall[0.4] < mean_recall[0.0], \
            "degradation sweep produced no recall signal"
        assert mean_calls[0.4] > mean_calls[0.0], \
            "degradation sweep produced no repair-cost signal"
