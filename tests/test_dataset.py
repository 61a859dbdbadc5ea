"""Manifest ingestion: stride subsampling, locator validation, pose checks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from scenemem import load_dataset
from scenemem.dataset import DatasetError
from scenemem.depthio import write_depth_png


def write_manifest(tmp_path, n_frames=10, *, bad_depth_at=None, bad_pose_at=None,
                   image_scheme="synthetic://scene/{fid}"):
    depth_dir = tmp_path / "depth"
    depth_dir.mkdir(exist_ok=True)
    lines = []
    for fid in range(n_frames):
        depth_name = f"depth/{fid:04d}.png"
        if bad_depth_at != fid:
            write_depth_png(tmp_path / depth_name,
                            np.full((12, 16), 1.0 + fid * 0.1))
        rotation = [1, 0, 0, 0, 1, 0, 0, 0, 1]
        if bad_pose_at == fid:
            rotation = [2, 0, 0, 0, 2, 0, 0, 0, 2]
        lines.append(json.dumps({
            "id": fid,
            "image": image_scheme.format(fid=fid),
            "depth": depth_name,
            "pose": {"rotation": rotation, "translation": [0.0, 0.0, 1.4]},
            "intrinsics": {"fx": 10.0, "fy": 10.0, "cx": 8.0, "cy": 6.0,
                           "width": 16, "height": 12},
            "timestamp": float(fid),
        }))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestLoadDataset:
    def test_stride_five_keeps_every_fifth(self, tmp_path):
        manifest = write_manifest(tmp_path, 100)
        episode = load_dataset(manifest, k=5)
        assert len(episode) == 20
        assert episode.frame_ids == list(range(0, 100, 5))
        assert episode.stride == 5

    def test_stride_one_keeps_all(self, tmp_path):
        manifest = write_manifest(tmp_path, 10)
        assert len(load_dataset(manifest, k=1)) == 10

    def test_bad_depth_locator_names_frame(self, tmp_path):
        manifest = write_manifest(tmp_path, 6, bad_depth_at=3)
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert "frame 3" in str(err.value)

    def test_truncated_depth_names_frame(self, tmp_path):
        manifest = write_manifest(tmp_path, 4)
        depth = tmp_path / "depth" / "0002.png"
        blob = depth.read_bytes()
        depth.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DatasetError, match="^frame 2: .*truncated"):
            load_dataset(manifest, k=1)

    def test_malformed_pose_names_frame(self, tmp_path):
        manifest = write_manifest(tmp_path, 6, bad_pose_at=2)
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert "frame 2" in str(err.value)

    def test_depth_loaded_in_meters(self, tmp_path):
        manifest = write_manifest(tmp_path, 2)
        episode = load_dataset(manifest, k=1)
        assert episode.frame(1).depth.values[0, 0] == pytest.approx(1.1, abs=5e-4)

    def test_placeholder_image_locators_pass(self, tmp_path):
        manifest = write_manifest(tmp_path, 3)
        episode = load_dataset(manifest, k=1)
        assert episode.frame(0).image_locator.startswith("synthetic://")

    def test_missing_image_file_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, 3, image_scheme="rgb/{fid}.png")
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert "image locator" in str(err.value)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        with pytest.raises(DatasetError):
            load_dataset(manifest, k=1)

    def test_unknown_frame_lookup(self, tmp_path):
        manifest = write_manifest(tmp_path, 3)
        episode = load_dataset(manifest, k=1)
        with pytest.raises(DatasetError):
            episode.frame(99)

    def test_invalid_stride(self, tmp_path):
        manifest = write_manifest(tmp_path, 3)
        with pytest.raises(DatasetError):
            load_dataset(manifest, k=0)

    def test_non_monotonic_ids_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, 3)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([lines[1], lines[0], lines[2]]) + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert "increasing" in str(err.value)
