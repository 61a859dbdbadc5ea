"""Engine configuration: the values a caller sets, and the plain
``key = value`` config-file format the CLI accepts.

EngineConfig holds the paper's settings that the engine reads (initial
image count n_img, call budget m, API mode) and the two that depend on the
model behind the backend (embedding size, room classes). The keyframe
stride k is the manifest loader's (``dataset.load_dataset``). Every other
threshold is a named constant next to its one reader.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

# api_mode -> the loop APIs the reasoner may call in that mode
API_MODES = {
    "frame": ("analyze_frame",),
    "node": ("find_objects", "analyze_objects"),
    "image": ("retrieve_frame",),
}


@dataclass
class EngineConfig:
    """The settings passed through the construction pipeline, the patch
    APIs and the reasoning loop."""

    initial_frames: int = 5          # n_img
    max_api_calls: int = 20          # m
    api_mode: str = "frame"          # a key of API_MODES
    embedding_dim: int = 64
    room_classes: tuple[str, ...] = ("kitchen", "bathroom", "bedroom", "living room",
                                     "hallway", "office", "dining room", "unknown")

    def __post_init__(self):
        if self.api_mode not in API_MODES:
            *rest, last = API_MODES
            raise ValueError(f"api_mode must be {', '.join(rest)} or {last}")
        for name, low in (("initial_frames", 1), ("embedding_dim", 1),
                          ("max_api_calls", 0)):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= low):
                rule = f">= {low}" if low else "non-negative"
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        if not self.room_classes:
            raise ValueError("room_classes must name at least one class")


def _coerce(value: str, typ):
    if typ is tuple:  # room_classes: comma separated
        return tuple(part.strip() for part in value.split(",") if part.strip())
    return typ(value)


def load_config(path: str | Path) -> EngineConfig:
    """Parse a plain ``key = value`` config file.

    Blank lines and ``#`` comments are ignored; each key is an EngineConfig
    field. Unknown keys, unparsable values and values EngineConfig refuses
    raise ValueError naming ``path:line``; a file that is not UTF-8 text
    raises ValueError naming the path.
    """
    cfg = EngineConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") \
            from None
    fields = {f.name for f in dataclasses.fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            setattr(cfg, key, _coerce(value, type(getattr(cfg, key))))
            cfg.__post_init__()
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return cfg

