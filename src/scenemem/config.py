"""Engine configuration: association thresholds, geometry and spatial
parameters, plus the plain ``key = value`` config-file format the CLI
accepts. Every tunable the engine consults lives here."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_ROOM_CLASSES = (
    "kitchen", "bathroom", "bedroom", "living room",
    "hallway", "office", "dining room", "unknown",
)

_RULES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0,
          ">= 1": lambda v: v >= 1, "in [0, 1]": lambda v: 0 <= v <= 1}


def _check(cfg, rule: str, *names: str) -> None:
    """Raise ValueError for the first named field that is not a finite
    number obeying ``rule`` (a key of _RULES)."""
    for name in names:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and _RULES[rule](value)):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass
class AssociationConfig:
    """Thresholds for the three-way detection-to-track vote.

    A detection casts one vote per indicator: visual cosine above
    ``visual_sim_threshold``, caption cosine above ``caption_sim_threshold``
    and point overlap fraction above ``overlap_threshold`` (all strict).
    ``min_votes`` accepted votes merge the detection into the track.
    """

    visual_sim_threshold: float = 0.7
    caption_sim_threshold: float = 0.8
    overlap_threshold: float = 0.4
    overlap_radius_m: float = 0.05
    min_votes: int = 2
    ema_weight: float = 0.5

    def __post_init__(self):
        _check(self, "in [0, 1]", "visual_sim_threshold", "caption_sim_threshold",
               "overlap_threshold", "ema_weight")
        _check(self, "positive", "ema_weight", "overlap_radius_m")
        if self.min_votes not in (1, 2, 3):
            raise ValueError("min_votes must be 1, 2 or 3")


@dataclass
class GeometryConfig:
    voxel_size_m: float = 0.02
    cluster_eps_m: float = 0.5
    cluster_min_points: int = 5

    def __post_init__(self):
        _check(self, "positive", "voxel_size_m", "cluster_eps_m")
        _check(self, ">= 1", "cluster_min_points")


@dataclass
class SpatialConfig:
    height_bin_m: float = 0.1
    floor_separation_m: float = 1.5
    room_peak_separation_m: float = 1.0
    room_seed_min_dist_m: float = 0.45
    min_room_area_m2: float = 1.0
    fill_unknown_iterations: int = 3
    grid_cell_m: float = 0.1
    wall_height_m: float = 1.5
    yaw_threshold_deg: float = 10.0
    forward_threshold_m: float = 0.1
    vertical_threshold_m: float = 0.3
    room_classes: tuple[str, ...] = DEFAULT_ROOM_CLASSES

    def __post_init__(self):
        _check(self, "positive", "height_bin_m", "grid_cell_m")
        _check(self, "non-negative", "floor_separation_m", "room_peak_separation_m",
               "room_seed_min_dist_m", "min_room_area_m2", "fill_unknown_iterations",
               "wall_height_m", "yaw_threshold_deg", "forward_threshold_m",
               "vertical_threshold_m")
        if not self.room_classes:
            raise ValueError("room_classes must name at least one class")


@dataclass
class EngineConfig:
    """Top-level knob collection passed through the construction pipeline,
    the patch APIs and the reasoning loop."""

    association: AssociationConfig = field(default_factory=AssociationConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    spatial: SpatialConfig = field(default_factory=SpatialConfig)
    caption_consolidation_threshold: int = 5
    edge_discovery_period: int = 3
    initial_frames: int = 5          # n_img
    max_api_calls: int = 20          # m
    frame_stride: int = 5            # k
    api_mode: str = "frame"          # frame | node | image
    embedding_dim: int = 64
    structure_pixel_stride: int = 3
    structure_voxel_m: float = 0.05
    frame_failure_abort_fraction: float = 0.5

    def __post_init__(self):
        if self.api_mode not in ("frame", "node", "image"):
            raise ValueError("api_mode must be frame, node or image")
        _check(self, ">= 1", "caption_consolidation_threshold", "edge_discovery_period",
               "initial_frames", "frame_stride", "embedding_dim",
               "structure_pixel_stride")
        _check(self, "non-negative", "max_api_calls")
        _check(self, "positive", "structure_voxel_m")
        _check(self, "in [0, 1]", "frame_failure_abort_fraction")


_SECTIONS = {
    "association": AssociationConfig,
    "geometry": GeometryConfig,
    "spatial": SpatialConfig,
}


def _coerce(value: str, typ):
    if typ is float:
        return float(value)
    if typ is int:
        return int(value)
    if typ is str:
        return value
    if typ is tuple:  # room_classes: comma separated
        return tuple(part.strip() for part in value.split(",") if part.strip())
    raise ValueError("names a section; set one of its fields as section.field")


def load_config(path: str | Path) -> EngineConfig:
    """Parse a plain ``key = value`` config file.

    Blank lines and ``#`` comments are ignored. Keys are either top-level
    EngineConfig fields or ``section.field`` for the association, geometry
    and spatial sub-configs. Unknown keys, a section named without a
    field, unparsable values and values their section's validator refuses
    raise ValueError naming ``path:line``; a file that is not UTF-8 text
    raises ValueError naming the path.
    """
    cfg = EngineConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") \
            from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." in key:
            section, fname = key.split(".", 1)
            if section not in _SECTIONS:
                raise ValueError(f"{path}:{lineno}: unknown section '{section}'")
            target = getattr(cfg, section)
        else:
            section, fname, target = None, key, cfg
        fields = {f.name: f for f in dataclasses.fields(target)}
        if fname not in fields:
            raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            setattr(target, fname, _coerce(value, type(getattr(target, fname))))
            target.__post_init__()
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return cfg


def dump_config(cfg: EngineConfig) -> str:
    """Render a config back to the key-value format (round-trips load_config)."""
    lines: list[str] = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            for sub in dataclasses.fields(value):
                v = getattr(value, sub.name)
                if isinstance(v, tuple):
                    v = ", ".join(v)
                lines.append(f"{f.name}.{sub.name} = {v}")
        else:
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
