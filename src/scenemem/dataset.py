"""Episode ingestion: posed RGB-D keyframes from a JSON-lines manifest.

A manifest holds one frame record per line:

    {"id": 0, "image": "rgb/000.png", "depth": "depth/000.png",
     "pose": {"rotation": [... 9 floats row-major ...],
              "translation": [x, y, z]},
     "intrinsics": {"fx":..., "fy":..., "cx":..., "cy":...,
                    "width":..., "height":...},
     "timestamp": 0.0}

Paths are resolved relative to the manifest. Depth locators must resolve
at load time; image locators may be placeholders (any value containing
"://" is passed through unchecked, since synthetic episodes carry no RGB).
The stride parameter keeps every k-th record, matching the episodic
protocol of sampling a pre-recorded scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .depthio import DepthIOError, read_depth_png
from .geometry import CameraIntrinsics, DepthMap, GeometryInputError, Pose


class DatasetError(ValueError):
    pass


@dataclass
class Keyframe:
    id: int
    intrinsics: CameraIntrinsics
    pose: Pose
    depth: DepthMap
    image_locator: str
    timestamp: float = 0.0

    @property
    def size(self) -> tuple[int, int]:
        """(width, height) in pixels."""
        return (self.intrinsics.width, self.intrinsics.height)


class Episode:
    """Ordered keyframes for one scene, with id lookup."""

    def __init__(self, scene_id: str, frames: list[Keyframe], stride: int = 1):
        if len({f.id for f in frames}) != len(frames):
            raise DatasetError("duplicate frame ids")
        self.scene_id = scene_id
        self.frames = list(frames)
        self.stride = stride
        self._by_id = {f.id: f for f in frames}

    @property
    def frame_ids(self) -> list[int]:
        return [f.id for f in self.frames]

    def frame(self, frame_id: int) -> Keyframe:
        try:
            return self._by_id[frame_id]
        except KeyError:
            raise DatasetError(f"unknown frame id {frame_id}") from None

    def frame_locators(self) -> dict[int, str]:
        return {f.id: f.image_locator for f in self.frames}

    def __len__(self) -> int:
        return len(self.frames)


def _parse_record(rec: dict, base: Path, line_no: int) -> Keyframe:
    where = f"manifest line {line_no}"
    try:
        fid = int(rec["id"])
        where = f"frame {fid}"
        intr_doc = rec["intrinsics"]
        intr = CameraIntrinsics(fx=float(intr_doc["fx"]), fy=float(intr_doc["fy"]),
                                cx=float(intr_doc["cx"]), cy=float(intr_doc["cy"]),
                                width=int(intr_doc["width"]),
                                height=int(intr_doc["height"]))
        pose_doc = rec["pose"]
        rotation = [float(x) for x in pose_doc["rotation"]]
        if len(rotation) != 9:
            raise DatasetError("pose rotation must have 9 entries")
        pose = Pose([rotation[0:3], rotation[3:6], rotation[6:9]],
                    [float(x) for x in pose_doc["translation"]])
        image = str(rec["image"])
        depth_loc = str(rec["depth"])
        timestamp = float(rec.get("timestamp", 0.0))
    except (KeyError, TypeError, ValueError, GeometryInputError) as exc:
        raise DatasetError(f"{where}: malformed record: {exc}") from None

    if "://" not in image and not (base / image).exists():
        raise DatasetError(f"frame {fid}: image locator '{image}' does not resolve")
    depth_path = base / depth_loc
    if not depth_path.exists():
        raise DatasetError(f"frame {fid}: depth locator '{depth_loc}' does not resolve")
    try:
        depth_m = read_depth_png(depth_path)
    except DepthIOError as exc:
        raise DatasetError(f"frame {fid}: {exc}") from None
    try:
        depth = DepthMap(depth_m, width=intr.width, height=intr.height)
    except GeometryInputError as exc:
        raise DatasetError(f"frame {fid}: depth does not match intrinsics: {exc}") from None
    return Keyframe(id=fid, intrinsics=intr, pose=pose, depth=depth,
                    image_locator=image, timestamp=timestamp)


def load_dataset(path: str | Path, k: int = 1, scene_id: str | None = None) -> Episode:
    """Load a manifest, keeping every k-th frame record.

    Frame ids must be strictly increasing; any malformed record or
    unresolvable locator raises DatasetError naming the frame.
    """
    if k < 1:
        raise DatasetError("stride k must be >= 1")
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"manifest {path} does not exist")
    base = path.parent
    records = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append((line_no, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise DatasetError(f"manifest line {line_no}: invalid JSON: {exc}") from None
    if not records:
        raise DatasetError(f"manifest {path} has no frames")
    kept = records[::k]
    frames = [_parse_record(rec, base, line_no) for line_no, rec in kept]
    ids = [f.id for f in frames]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise DatasetError("frame ids must be strictly increasing")
    return Episode(scene_id or path.stem, frames, stride=k)
