"""Depth-map and debug-image file formats.

Depth maps travel as 16-bit grayscale PNG with millimeter values (0 =
invalid) and are converted to meters at load time. The codec below is
self-contained (stdlib zlib only): writing always uses filter type 0,
reading understands all five standard filters, so externally produced
16-bit PNGs load too. PNG stores 16-bit samples in network byte order.

Occupancy grids are dumped as binary PGM for eyeballing: 0 = wall,
255 = free.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


class DepthIOError(ValueError):
    pass


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF))


def write_gray16_png(path: str | Path, image: np.ndarray) -> None:
    """Write a uint16 array (h, w) as a 16-bit grayscale PNG."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise DepthIOError("image must be 2-D")
    if arr.dtype != np.uint16:
        if np.any(arr < 0) or np.any(arr > 0xFFFF):
            raise DepthIOError("values out of uint16 range")
        arr = arr.astype(np.uint16)
    h, w = arr.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)
    big = arr.astype(">u2").tobytes()
    stride = w * 2
    raw = b"".join(b"\x00" + big[r * stride:(r + 1) * stride] for r in range(h))
    payload = (_PNG_SIG + _chunk(b"IHDR", ihdr)
               + _chunk(b"IDAT", zlib.compress(raw, 6)) + _chunk(b"IEND", b""))
    Path(path).write_bytes(payload)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, h: int, w: int, bpp: int) -> bytearray:
    stride = w * bpp
    out = bytearray(h * stride)
    pos = 0
    for r in range(h):
        ftype = raw[pos]
        pos += 1
        line = raw[pos:pos + stride]
        pos += stride
        base = r * stride
        prev_base = base - stride
        if ftype == 0:
            out[base:base + stride] = line
        elif ftype == 1:  # sub
            for i in range(stride):
                left = out[base + i - bpp] if i >= bpp else 0
                out[base + i] = (line[i] + left) & 0xFF
        elif ftype == 2:  # up
            for i in range(stride):
                up = out[prev_base + i] if r > 0 else 0
                out[base + i] = (line[i] + up) & 0xFF
        elif ftype == 3:  # average
            for i in range(stride):
                left = out[base + i - bpp] if i >= bpp else 0
                up = out[prev_base + i] if r > 0 else 0
                out[base + i] = (line[i] + (left + up) // 2) & 0xFF
        elif ftype == 4:  # paeth
            for i in range(stride):
                left = out[base + i - bpp] if i >= bpp else 0
                up = out[prev_base + i] if r > 0 else 0
                ul = out[prev_base + i - bpp] if (r > 0 and i >= bpp) else 0
                out[base + i] = (line[i] + _paeth(left, up, ul)) & 0xFF
        else:
            raise DepthIOError(f"unknown PNG filter type {ftype}")
    return out


def read_gray16_png(path: str | Path) -> np.ndarray:
    """Read a 16-bit grayscale PNG into a uint16 array (h, w)."""
    blob = Path(path).read_bytes()
    if blob[:8] != _PNG_SIG:
        raise DepthIOError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    idat = bytearray()
    while True:  # until IEND; every chunk, its length and CRC included, must fit
        length, kind = int.from_bytes(blob[pos:pos + 4], "big"), blob[pos + 4:pos + 8]
        if pos + 12 + length > len(blob):
            raise DepthIOError(f"{path}: truncated at byte {len(blob)}")
        data = blob[pos + 8:pos + 8 + length]
        pos += 12 + length
        if kind == b"IHDR":
            if length != 13:
                raise DepthIOError(f"{path}: IHDR of {length} bytes, expected 13")
            width, height, depth, color, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", data)
            if depth != 16 or color != 0:
                raise DepthIOError(f"{path}: expected 16-bit grayscale, got "
                                   f"bit depth {depth} color type {color}")
            if interlace != 0:
                raise DepthIOError(f"{path}: interlaced PNG not supported")
        elif kind == b"IDAT":
            idat.extend(data)
        elif kind == b"IEND":
            break
    if width is None:
        raise DepthIOError(f"{path}: missing IHDR")
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise DepthIOError(f"{path}: corrupt image data: {exc}") from None
    expected = height * (width * 2 + 1)
    if len(raw) != expected:
        raise DepthIOError(f"{path}: decompressed size {len(raw)} != {expected}")
    flat = _unfilter(raw, height, width, 2)
    return np.frombuffer(bytes(flat), dtype=">u2").reshape(height, width).astype(np.uint16)


def millimeters(depth_m: np.ndarray) -> np.ndarray:
    """Meter depth as a sensor's uint16 millimeters, rounded half to even:
    non-finite and non-positive depths become 0 (invalid), and values
    saturate at 65.535 m."""
    arr = np.asarray(depth_m, dtype=np.float64)
    mm = np.where(np.isfinite(arr) & (arr > 0), np.round(arr * 1000.0), 0.0)
    return np.clip(mm, 0, 0xFFFF).astype(np.uint16)


def meters(mm: np.ndarray) -> np.ndarray:
    """A millimeter depth map as float64 meters."""
    return np.asarray(mm).astype(np.float64) / 1000.0


def write_depth_png(path: str | Path, depth_m: np.ndarray) -> None:
    """Store a meter-valued depth map as a ``millimeters`` uint16 PNG."""
    write_gray16_png(path, millimeters(depth_m))


def read_depth_png(path: str | Path) -> np.ndarray:
    """Load a millimeter PNG as a meter-valued float64 depth map."""
    return meters(read_gray16_png(path))


def write_pgm(path: str | Path, free: np.ndarray) -> None:
    """Dump an occupancy grid as binary PGM: 0 = wall, 255 = free."""
    grid = np.asarray(free, dtype=bool)
    h, w = grid.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    body = np.where(grid, 255, 0).astype(np.uint8).tobytes()
    Path(path).write_bytes(header + body)
