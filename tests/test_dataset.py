"""Manifest ingestion and writing: stride subsampling, locator validation,
field checks, and the save/load round trip."""

from __future__ import annotations

import json

import numpy as np
import pytest

from scenemem import generate_scene, load_dataset
from scenemem.dataset import DatasetError, save_dataset
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

    def test_default_stride_is_five(self, tmp_path):
        manifest = write_manifest(tmp_path, 12)
        episode = load_dataset(manifest)
        assert episode.frame_ids == [0, 5, 10]
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

    def test_manifest_not_utf8_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert str(err.value) == (f"manifest {manifest}: not UTF-8 text "
                                  "(byte 0: invalid start byte)")

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


def _set_field(manifest, dotted: str, value) -> None:
    """Set ``dotted`` (keys and list indices joined by dots) in the first
    record of ``manifest``."""
    lines = manifest.read_text().splitlines()
    record = json.loads(lines[0])
    *parents, last = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    manifest.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")


class TestRecordFields:
    """Each field is checked, not coerced: a refusal names the frame (the
    manifest line, for the id) and the field."""

    @pytest.mark.parametrize("value", [0.9, "2", True, 2.0])
    def test_id_must_be_an_integer(self, tmp_path, value):
        manifest = write_manifest(tmp_path, 3)
        _set_field(manifest, "id", value)
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert str(err.value) == f"manifest line 1: id must be an integer, got {value!r}"

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [16.7, "16", True, 16.0])
    def test_image_size_must_be_an_integer(self, tmp_path, field, value):
        manifest = write_manifest(tmp_path, 3)
        _set_field(manifest, f"intrinsics.{field}", value)
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert str(err.value) == (f"frame 0: intrinsics.{field} must be an integer, "
                                  f"got {value!r}")

    @pytest.mark.parametrize("field,name", [
        ("intrinsics.fx", "intrinsics.fx"), ("intrinsics.fy", "intrinsics.fy"),
        ("intrinsics.cx", "intrinsics.cx"), ("intrinsics.cy", "intrinsics.cy"),
        ("pose.rotation.4", "pose.rotation[4]"),
        ("pose.translation.2", "pose.translation[2]"),
        ("timestamp", "timestamp")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       "1.0", None, False, 10**400],
                             ids=["nan", "inf", "-inf", "string", "null", "bool",
                                  "int-beyond-float"])
    def test_numbers_must_be_finite(self, tmp_path, field, name, value):
        manifest = write_manifest(tmp_path, 3)
        _set_field(manifest, field, value)
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert str(err.value) == f"frame 0: {name} must be a finite number, got {value!r}"

    @pytest.mark.parametrize("field,value", [
        ("pose.rotation", "100010001"), ("pose.rotation", [1, 0, 0]),
        ("pose.translation", {"x": 0, "y": 0, "z": 1})])
    def test_pose_entries_must_be_a_list(self, tmp_path, field, value):
        manifest = write_manifest(tmp_path, 3)
        _set_field(manifest, field, value)
        with pytest.raises(DatasetError, match=f"^frame 0: {field} must be a list of"):
            load_dataset(manifest, k=1)

    @pytest.mark.parametrize("field", ["image", "depth"])
    @pytest.mark.parametrize("value", [["synthetic://x"], None, 7, {"path": "x"}],
                             ids=["list", "null", "number", "object"])
    def test_locators_must_be_strings(self, tmp_path, field, value):
        """A locator is taken as written, never coerced: a list used to load
        as the locator "['synthetic://x']" and a null as the path None."""
        manifest = write_manifest(tmp_path, 3)
        _set_field(manifest, field, value)
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert str(err.value) == f"frame 0: {field} must be a string, got {value!r}"

    @pytest.mark.parametrize("field", ["image", "depth"])
    @pytest.mark.parametrize("value", ["", "depth"], ids=["empty", "directory"])
    def test_locators_must_name_files(self, tmp_path, field, value):
        """An empty locator resolves to the manifest's own directory, and
        neither it nor a directory's name is a file."""
        manifest = write_manifest(tmp_path, 3)
        _set_field(manifest, field, value)
        with pytest.raises(DatasetError) as err:
            load_dataset(manifest, k=1)
        assert str(err.value) == f"frame 0: {field} locator '{value}' does not resolve"

    def test_timestamp_may_be_omitted(self, tmp_path):
        manifest = write_manifest(tmp_path, 3)
        lines = manifest.read_text().splitlines()
        record = json.loads(lines[0])
        del record["timestamp"]
        manifest.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        assert load_dataset(manifest, k=1).frame(0).timestamp == 0.0


class TestSaveDataset:
    def test_round_trip_reproduces_synthetic_episode(self, tmp_path):
        episode = generate_scene(2, 2, seed=5).episode()
        manifest = save_dataset(episode, tmp_path / "out")
        assert manifest == tmp_path / "out" / "manifest.jsonl"
        loaded = load_dataset(manifest, k=1)
        assert loaded.frame_ids == episode.frame_ids
        for saved, back in zip(episode.frames, loaded.frames):
            assert back.pose.rotation.tobytes() == saved.pose.rotation.tobytes()
            assert back.pose.translation.tobytes() == saved.pose.translation.tobytes()
            assert back.intrinsics == saved.intrinsics
            assert back.image_locator == saved.image_locator
            assert back.timestamp == saved.timestamp
            assert back.depth.values.tobytes() == saved.depth.values.tobytes()
