"""16-bit depth PNG codec and PGM dumps. The PNG path is cross-checked
against Pillow as an independent implementation when available."""

from __future__ import annotations

import numpy as np
import pytest

import struct
import zlib

from scenemem.depthio import (DepthIOError, meters, millimeters, read_depth_png,
                              read_gray16_png, write_depth_png, write_gray16_png,
                              write_pgm)

from conftest import rng


def _filtered_png(img: np.ndarray, filters: list[int]) -> bytes:
    """Encode a uint16 image as a 16-bit grayscale PNG whose row r uses
    filter type filters[r], computed forward from the PNG specification."""
    h, w = img.shape
    rows = img.astype(">u2").view(np.uint8).reshape(h, 2 * w).astype(np.int64)
    pad = np.zeros(2, np.int64)  # bpp = 2: the left neighbour is 2 bytes back
    raw = bytearray()
    for r, ftype in enumerate(filters):
        cur = rows[r]
        up = rows[r - 1] if r else np.zeros_like(cur)
        left = np.concatenate([pad, cur[:-2]])
        upleft = np.concatenate([pad, up[:-2]])
        if ftype == 0:
            pred = np.zeros_like(cur)
        elif ftype == 1:
            pred = left
        elif ftype == 2:
            pred = up
        elif ftype == 3:
            pred = (left + up) // 2
        else:
            p = left + up - upleft
            pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
            pred = np.where((pa <= pb) & (pa <= pc), left,
                            np.where(pb <= pc, up, upleft))
        raw.append(ftype)
        raw += ((cur - pred) % 256).astype(np.uint8).tobytes()

    def chunk(kind: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + kind + data
                + struct.pack(">I", zlib.crc32(kind + data)))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b""))


class TestGray16Codec:
    def test_round_trip_random(self, tmp_path):
        g = rng(1)
        img = g.integers(0, 65536, size=(37, 53)).astype(np.uint16)
        path = tmp_path / "img.png"
        write_gray16_png(path, img)
        assert np.array_equal(read_gray16_png(path), img)

    def test_round_trip_extremes(self, tmp_path):
        img = np.array([[0, 65535], [32768, 1]], dtype=np.uint16)
        path = tmp_path / "e.png"
        write_gray16_png(path, img)
        assert np.array_equal(read_gray16_png(path), img)

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DepthIOError):
            write_gray16_png(tmp_path / "x.png", np.array([[70000]]))

    def test_rejects_non_png(self, tmp_path):
        path = tmp_path / "notpng.png"
        path.write_bytes(b"hello world")
        with pytest.raises(DepthIOError):
            read_gray16_png(path)

    @pytest.mark.parametrize("cut", [lambda n: 20, lambda n: 30, lambda n: n // 2,
                                     lambda n: n - 12],
                             ids=["20 bytes", "30 bytes", "half", "without IEND"])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "t.png"
        write_gray16_png(path, rng(2).integers(0, 65536, size=(12, 16)).astype(np.uint16))
        blob = path.read_bytes()
        path.write_bytes(blob[:cut(len(blob))])
        with pytest.raises(DepthIOError, match="truncated"):
            read_gray16_png(path)

    def test_corrupt_image_data_rejected(self, tmp_path):
        """An IDAT chunk of the declared length whose zlib stream is broken."""
        path = tmp_path / "c.png"
        write_gray16_png(path, np.ones((4, 4), np.uint16))
        blob = path.read_bytes()
        idat = blob.index(b"IDAT") + 4
        path.write_bytes(blob[:idat] + b"\xff\xff" + blob[idat + 2:])
        with pytest.raises(DepthIOError, match="corrupt image data"):
            read_gray16_png(path)

    @pytest.mark.parametrize("high", [65536, 4])
    @pytest.mark.parametrize("first", range(5))
    def test_reads_every_filter_type(self, tmp_path, first, high):
        """Rows cycle through filters 0-4, starting at ``first``, so each
        filter meets both the first row and a row with a row above it;
        small values make Paeth ties common."""
        img = rng(10 + first).integers(0, high, size=(11, 9)).astype(np.uint16)
        path = tmp_path / "filtered.png"
        path.write_bytes(_filtered_png(img, [(first + r) % 5 for r in range(11)]))
        assert np.array_equal(read_gray16_png(path), img)

    def test_pillow_reads_our_files(self, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        g = rng(2)
        img = g.integers(0, 65536, size=(24, 31)).astype(np.uint16)
        path = tmp_path / "ours.png"
        write_gray16_png(path, img)
        theirs = np.asarray(Image.open(path))
        assert np.array_equal(theirs.astype(np.uint16), img)

    def test_we_read_pillow_files(self, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        g = rng(3)
        img = g.integers(0, 65536, size=(18, 22)).astype(np.uint16)
        path = tmp_path / "theirs.png"
        Image.fromarray(img).save(path)
        assert np.array_equal(read_gray16_png(path), img)


class TestDepthConversion:
    def test_millimeter_quantization(self, tmp_path):
        depth = np.array([[0.0, 1.0], [2.5005, 0.0004]])
        path = tmp_path / "d.png"
        write_depth_png(path, depth)
        loaded = read_depth_png(path)
        assert loaded[0, 0] == 0.0
        assert loaded[0, 1] == 1.0
        assert loaded[1, 0] == pytest.approx(2.5005, abs=5.1e-4)
        assert loaded[1, 1] == 0.0  # rounds to 0 mm: invalid

    def test_invalid_values_become_zero(self, tmp_path):
        depth = np.array([[np.nan, np.inf], [-1.0, 70.0]])
        path = tmp_path / "d.png"
        write_depth_png(path, depth)
        loaded = read_depth_png(path)
        assert loaded[0, 0] == 0.0
        assert loaded[0, 1] == 0.0
        assert loaded[1, 0] == 0.0
        assert loaded[1, 1] == 65.535  # saturates at uint16 mm

    def test_round_trip_error_below_half_mm(self, tmp_path):
        g = rng(4)
        depth = g.uniform(0.1, 10.0, size=(20, 20))
        path = tmp_path / "d.png"
        write_depth_png(path, depth)
        assert np.abs(read_depth_png(path) - depth).max() <= 0.0005 + 1e-12

    def test_quantiser_is_the_png_round_trip(self, tmp_path):
        """meters(millimeters(d)) is what a depth PNG gives back, bit for
        bit, on invalid values, half-millimetre ties (which round to even)
        and both sides of the uint16 ceiling."""
        depth = np.array([[np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0],
                          [0.0005, 0.0015, 0.0025, 1.0005, 2.5005, 65.5355],
                          [65.535, 70.0, 1e-9, 0.0004, 3.25, 12.3456]])
        path = tmp_path / "d.png"
        write_depth_png(path, depth)
        quantised = meters(millimeters(depth))
        assert millimeters(depth).dtype == np.uint16 and quantised.dtype == np.float64
        assert np.array_equal(quantised, read_depth_png(path))
        assert millimeters(depth).tolist() == [[0, 0, 0, 0, 0, 0],
                                               [0, 2, 2, 1000, 2500, 65535],
                                               [65535, 65535, 0, 0, 3250, 12346]]


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        free = np.array([[True, False], [False, True]])
        path = tmp_path / "occ.pgm"
        write_pgm(path, free)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert blob[-4:] == bytes([255, 0, 0, 255])
