from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from scenemem import (EngineConfig, RuleReasoner, ScriptedBackend, build_ssm,
                      generate_scene)

settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def brute_distance(free: np.ndarray, cell_size: float) -> np.ndarray:
    """Exhaustive nearest-wall distance, meters: every cell against every
    wall cell; 1e18 everywhere on a grid without walls."""
    walls = np.argwhere(~free)
    if walls.size == 0:
        return np.full(free.shape, 1e18)
    cells = np.argwhere(np.ones(free.shape, dtype=bool))
    d2 = ((cells[:, None, :] - walls[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return (np.sqrt(d2.astype(np.float64)) * cell_size).reshape(free.shape)


def assert_scratchpad_invariant(ssm) -> None:
    """The scratchpad lists only live tracks, each with at least one note."""
    assert set(ssm.scratchpad) <= set(ssm.graph.tracks)
    assert all(ssm.scratchpad.values())


def make_pose(yaw_deg: float = 0.0, position=(0.0, 0.0, 0.0), pitch_deg: float = 0.0):
    """Camera pose: +z optical axis at the given world yaw (0 = +x), x right,
    y down, optionally pitched (positive pitch looks down)."""
    from scenemem import Pose

    yaw = np.radians(yaw_deg)
    pitch = np.radians(pitch_deg)
    fwd = np.array([np.cos(yaw) * np.cos(pitch),
                    np.sin(yaw) * np.cos(pitch),
                    -np.sin(pitch)])
    right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
    down = np.cross(fwd, right)
    return Pose(np.column_stack([right, down, fwd]), np.asarray(position, float))


class BorderOverflowBackend(ScriptedBackend):
    """The scripted oracle, but every detected box is one pixel wider on
    each side and carries no exact mask. Boxes on the frame border thus
    overflow it by 1 px, which the protocol allows and clamps."""

    def _wire_detection(self, det, note):
        doc = super()._wire_detection(det, note)
        u0, v0, u1, v1 = doc.pop("bbox")
        doc["bbox"] = [u0 - 1, v0 - 1, u1 + 1, v1 + 1]
        doc.pop("mask_runs", None)
        return doc


@pytest.fixture(scope="session")
def small_scene():
    return generate_scene(2, 3, seed=7)


@pytest.fixture(scope="session")
def small_episode(small_scene):
    return small_scene.episode()


@pytest.fixture(scope="session")
def small_build(small_scene, small_episode):
    """(scene, episode, backend, constructed memory) built once per session.
    Tests must operate on ssm.copy(), never mutate the shared instance."""
    backend = ScriptedBackend(small_scene, reasoner=RuleReasoner())
    ssm = build_ssm(small_episode, backend, EngineConfig())
    return small_scene, small_episode, backend, ssm
