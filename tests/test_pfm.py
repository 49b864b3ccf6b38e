"""PFM read/write: bit-exact round trips and strict header handling."""

import struct
import tracemalloc

import numpy as np
import pytest

from sglight.pfm import PfmError, read_pfm, write_pfm


def random_image(rng, shape):
    """Random finite float32 data spanning many orders of magnitude."""
    mag = rng.uniform(-40.0, 30.0, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return (sign * 10.0 ** mag).astype(np.float32)


class TestRoundTrip:
    def test_color_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(20):
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            img = random_image(rng, (h, w, 3))
            path = tmp_path / f"c{i}.pfm"
            write_pfm(path, img)
            back = read_pfm(path)
            assert back.dtype == np.float32
            assert np.array_equal(
                back.view(np.uint32), img.view(np.uint32)
            )

    def test_grayscale_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        img = random_image(rng, (5, 3))
        path = tmp_path / "g.pfm"
        write_pfm(path, img)
        back = read_pfm(path)
        assert back.shape == (5, 3)
        assert np.array_equal(back.view(np.uint32), img.view(np.uint32))

    def test_denormals_and_infinities(self, tmp_path):
        """Denormals, signed zeros and infinities survive untouched."""
        tiny = np.float32(1e-45)
        vals = np.array(
            [
                [tiny, -tiny, np.float32(0.0)],
                [-np.float32(0.0), np.inf, -np.inf],
            ],
            dtype=np.float32,
        )
        path = tmp_path / "d.pfm"
        write_pfm(path, vals)
        back = read_pfm(path)
        assert np.array_equal(back.view(np.uint32), vals.view(np.uint32))

    def test_row_order_payload(self, tmp_path):
        """Rows are stored bottom to top; header is fixed text."""
        img = np.zeros((2, 1, 3), dtype=np.float32)
        img[0, 0] = [1.0, 2.0, 3.0]  # top row
        img[1, 0] = [4.0, 5.0, 6.0]  # bottom row
        path = tmp_path / "o.pfm"
        write_pfm(path, img)
        raw = path.read_bytes()
        header = b"PF\n1 2\n-1.0\n"
        assert raw[: len(header)] == header
        payload = struct.unpack("<6f", raw[len(header):])
        assert payload == (4.0, 5.0, 6.0, 1.0, 2.0, 3.0)

    def test_single_pixel_bytes(self, tmp_path):
        img = np.full((1, 1, 3), 0.5, dtype=np.float32)
        path = tmp_path / "p.pfm"
        write_pfm(path, img)
        assert path.read_bytes() == b"PF\n1 1\n-1.0\n" + struct.pack(
            "<3f", 0.5, 0.5, 0.5
        )

    def test_write_holds_one_payload_copy(self, tmp_path):
        """The flipped rows go to the file from one float32 copy: writing
        a float32 512x512x3 image peaks below 1.5x its payload."""
        img = np.ones((512, 512, 3), dtype=np.float32)
        write_pfm(tmp_path / "warm.pfm", img[:1, :1])
        tracemalloc.start()
        try:
            write_pfm(tmp_path / "big.pfm", img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * img.nbytes, peak
        assert np.array_equal(read_pfm(tmp_path / "big.pfm"), img)

    def test_read_holds_one_payload_copy(self, tmp_path):
        """The payload is read in place from the file's bytes and copied
        once into the flipped array: reading a float32 512x512x3 image
        peaks below 2.5x its payload (the file's bytes are one, the
        returned image one, the NaN check a quarter)."""
        img = np.ones((512, 512, 3), dtype=np.float32)
        write_pfm(tmp_path / "warm.pfm", img[:1, :1])
        read_pfm(tmp_path / "warm.pfm")
        write_pfm(tmp_path / "big.pfm", img)
        tracemalloc.start()
        try:
            back = read_pfm(tmp_path / "big.pfm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * img.nbytes, peak
        assert np.array_equal(back, img)


class TestScaleHandling:
    def test_big_endian_read(self, tmp_path):
        """Positive scale means big-endian payload."""
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n2 1\n1.0\n" + struct.pack(">2f", 1.5, -2.5))
        back = read_pfm(path)
        np.testing.assert_array_equal(back, [[1.5, -2.5]])

    @pytest.mark.parametrize("shape", [(1, 5, 3), (4, 3, 3), (3, 2)])
    def test_big_endian_bytes_unchanged(self, tmp_path, shape):
        """A big-endian payload reads to the bits of the little-endian
        file of the same image, denormals, signed zeros and infinities
        included, as a writeable native float32 array even for one row."""
        img = random_image(np.random.default_rng(9), shape)
        img.reshape(-1)[:4] = [1e-45, -0.0, np.inf, -np.inf]
        write_pfm(tmp_path / "le.pfm", img)
        magic = b"PF" if img.ndim == 3 else b"Pf"
        h, w = shape[:2]
        path = tmp_path / "be.pfm"
        path.write_bytes(magic + f"\n{w} {h}\n1.0\n".encode("ascii")
                         + img[::-1].astype(">f4").tobytes())
        back = read_pfm(path)
        assert back.dtype == np.float32 and back.flags.writeable
        assert np.array_equal(back.view(np.uint32), read_pfm(tmp_path / "le.pfm").view(np.uint32))
        assert np.array_equal(back.view(np.uint32), img.view(np.uint32))

    def test_scale_magnitude_ignored(self, tmp_path):
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n1 1\n-123.5\n" + struct.pack("<f", 2.0))
        np.testing.assert_array_equal(read_pfm(path), [[2.0]])

    def test_zero_scale_rejected(self, tmp_path):
        path = tmp_path / "z.pfm"
        path.write_bytes(b"Pf\n1 1\n0.0\n" + struct.pack("<f", 2.0))
        with pytest.raises(PfmError):
            read_pfm(path)


class TestMalformed:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pfm"
        path.write_bytes(b"P6\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(PfmError) as exc:
            read_pfm(path)
        assert exc.value.offset == 0

    def test_bad_dims(self, tmp_path):
        path = tmp_path / "m.pfm"
        path.write_bytes(b"PF\n0 1\n-1.0\n")
        with pytest.raises(PfmError):
            read_pfm(path)
        path.write_bytes(b"PF\n1 x\n-1.0\n")
        with pytest.raises(PfmError):
            read_pfm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pfm"
        full = b"PF\n1 1\n-1.0\n" + struct.pack("<3f", 1.0, 2.0, 3.0)
        path.write_bytes(full[:-4])
        with pytest.raises(PfmError) as exc:
            read_pfm(path)
        assert exc.value.offset == len(full) - 4

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(
            b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 1.0) + b"extra"
        )
        with pytest.raises(PfmError):
            read_pfm(path)

    def test_nan_rejected_with_offset(self, tmp_path):
        path = tmp_path / "n.pfm"
        header = b"Pf\n2 1\n-1.0\n"
        path.write_bytes(header + struct.pack("<2f", 1.0, np.nan))
        with pytest.raises(PfmError) as exc:
            read_pfm(path)
        assert exc.value.offset == len(header) + 4

    def test_nan_write_rejected(self, tmp_path):
        img = np.array([[np.nan]], dtype=np.float32)
        with pytest.raises(ValueError):
            write_pfm(tmp_path / "n.pfm", img)

    def test_wrong_channel_count(self, tmp_path):
        img = np.zeros((2, 2, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            write_pfm(tmp_path / "w.pfm", img)
