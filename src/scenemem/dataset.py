"""Episode ingestion: posed RGB-D keyframes in a JSON-lines manifest,
read by ``load_dataset`` and written by ``save_dataset``.

A manifest holds one frame record per line:

    {"id": 0, "image": "rgb/000.png", "depth": "depth/000.png",
     "pose": {"rotation": [... 9 floats row-major ...],
              "translation": [x, y, z]},
     "intrinsics": {"fx":..., "fy":..., "cx":..., "cy":...,
                    "width":..., "height":...},
     "timestamp": 0.0}

``id``, ``width`` and ``height`` are integers and ``image`` and ``depth``
strings; every other number is finite, and the timestamp is optional.
Paths are resolved relative to the manifest. Depth locators (millimeter
PNGs) must resolve at load time; image locators may be placeholders (any
value containing "://" is passed through unchecked, since synthetic
episodes carry no RGB). The stride k
keeps every k-th record, matching the episodic protocol of sampling a
pre-recorded scan; ``STRIDE`` is its one default.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .depthio import DepthIOError, read_depth_png, write_depth_png
from .geometry import CameraIntrinsics, DepthMap, GeometryInputError, Pose


STRIDE = 5  # k: keep every 5th manifest record unless told otherwise


class DatasetError(ValueError):
    pass


def check_stride(k: int) -> None:
    if k < 1:
        raise DatasetError(f"stride must be >= 1, got {k}")


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


def _number(value, name: str, where: str, integer: bool = False):
    """``value`` when it is a JSON integer (``integer``) or else a finite
    number; a bool is neither. Raise DatasetError naming ``name``."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) \
            or not (integer or abs(value) <= sys.float_info.max):  # NaN fails too
        noun = "an integer" if integer else "a finite number"
        raise DatasetError(f"{where}: {name} must be {noun}, got {value!r}")
    return value if integer else float(value)


def _string(value, name: str, where: str) -> str:
    """``value`` when it is a JSON string; else DatasetError naming ``name``."""
    if not isinstance(value, str):
        raise DatasetError(f"{where}: {name} must be a string, got {value!r}")
    return value


def _numbers(value, size: int, name: str, where: str) -> list[float]:
    if not isinstance(value, list) or len(value) != size:
        raise DatasetError(f"{where}: {name} must be a list of {size} numbers")
    return [_number(x, f"{name}[{i}]", where) for i, x in enumerate(value)]


def _parse_record(rec: dict, base: Path, line_no: int) -> Keyframe:
    where = f"manifest line {line_no}"
    try:
        fid = _number(rec["id"], "id", where, integer=True)
        where = f"frame {fid}"
        intr = CameraIntrinsics(*(
            _number(rec["intrinsics"][key], f"intrinsics.{key}", where,
                    integer=key in ("width", "height"))
            for key in ("fx", "fy", "cx", "cy", "width", "height")))
        rotation = _numbers(rec["pose"]["rotation"], 9, "pose.rotation", where)
        pose = Pose([rotation[0:3], rotation[3:6], rotation[6:9]],
                    _numbers(rec["pose"]["translation"], 3, "pose.translation", where))
        image = _string(rec["image"], "image", where)
        depth_loc = _string(rec["depth"], "depth", where)
        timestamp = _number(rec.get("timestamp", 0.0), "timestamp", where)
    except (KeyError, TypeError, GeometryInputError) as exc:
        raise DatasetError(f"{where}: malformed record: {exc}") from None

    # an empty or directory-naming locator resolves to a directory, not a file
    if "://" not in image and not (base / image).is_file():
        raise DatasetError(f"frame {fid}: image locator '{image}' does not resolve")
    depth_path = base / depth_loc
    if not depth_path.is_file():
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


def load_dataset(path: str | Path, k: int = STRIDE,
                 scene_id: str | None = None) -> Episode:
    """Load a manifest, keeping every k-th frame record.

    Frame ids must be strictly increasing; any malformed record or
    unresolvable locator raises DatasetError naming the frame, and a
    manifest that is missing or not UTF-8 text one naming the manifest.
    """
    check_stride(k)
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"manifest {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"manifest {path}: not UTF-8 text "
                           f"(byte {exc.start}: {exc.reason})") from None
    base = path.parent
    records = []
    for line_no, line in enumerate(text.splitlines(), 1):
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


def save_dataset(episode: Episode, out: str | Path) -> Path:
    """Write ``episode`` as ``out/manifest.jsonl``, with each frame's depth
    as a millimeter PNG under ``out/depth/``; return the manifest path, from
    which ``load_dataset(k=1)`` reads a synthetic episode back exactly."""
    out = Path(out)
    (out / "depth").mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.jsonl"
    with manifest.open("w", encoding="utf-8") as fh:
        for frame in episode.frames:
            depth_name = f"depth/{frame.id:04d}.png"
            write_depth_png(out / depth_name, frame.depth.values)
            fh.write(json.dumps({
                "id": frame.id, "image": frame.image_locator, "depth": depth_name,
                "pose": {"rotation": frame.pose.rotation.reshape(-1).tolist(),
                         "translation": frame.pose.translation.tolist()},
                "intrinsics": dataclasses.asdict(frame.intrinsics),
                "timestamp": frame.timestamp}) + "\n")
    return manifest
