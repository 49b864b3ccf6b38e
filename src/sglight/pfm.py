"""PFM image I/O.

Layout: three newline-terminated ASCII header lines, then raw float32
pixels. The magic is "PF" for 3-channel images and "Pf" for grayscale.
The second line is "<width> <height>" and the third a scale factor whose
sign selects endianness (negative is little endian; the magnitude is not
applied to pixel values). Pixel rows are stored bottom to top.

Round trips are bit exact for any finite or infinite float32 payload,
denormals included. NaN payloads are rejected. Parse failures raise
PfmError carrying the byte offset of the offending input.
"""

from __future__ import annotations

import numpy as np


class PfmError(ValueError):
    """Malformed PFM input. offset is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _read_line(buf: bytes, pos: int, what: str):
    end = buf.find(b"\n", pos)
    if end < 0:
        raise PfmError(f"unterminated {what} line", len(buf))
    return buf[pos:end], end + 1


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into float32, shape (H, W, 3) for PF or (H, W) for Pf.

    Row 0 of the returned array is the top image row.
    """
    with open(path, "rb") as fh:
        buf = fh.read()

    magic, pos = _read_line(buf, 0, "magic")
    if magic == b"PF":
        channels = 3
    elif magic == b"Pf":
        channels = 1
    else:
        raise PfmError(f"bad magic {magic!r}", 0)

    dims_at = pos
    dims, pos = _read_line(buf, pos, "dimensions")
    parts = dims.split()
    if len(parts) != 2:
        raise PfmError("dimensions line must hold width and height", dims_at)
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError:
        raise PfmError("dimensions must be integers", dims_at) from None
    if width < 1 or height < 1:
        raise PfmError("dimensions must be positive", dims_at)

    scale_at = pos
    scale_line, pos = _read_line(buf, pos, "scale")
    try:
        scale = float(scale_line)
    except ValueError:
        raise PfmError("scale line must be a float", scale_at) from None
    if scale == 0.0 or not np.isfinite(scale):
        raise PfmError("scale must be finite and nonzero", scale_at)

    count = width * height * channels
    expected = count * 4
    size = len(buf) - pos
    if size < expected:
        raise PfmError(f"truncated payload, expected {expected} bytes got {size}", len(buf))
    if size > expected:
        raise PfmError("trailing bytes after payload", pos + expected)

    dtype = "<f4" if scale < 0 else ">f4"
    flat = np.frombuffer(buf, dtype=dtype, count=count, offset=pos)
    nan = np.isnan(flat)
    if np.any(nan):
        raise PfmError("NaN pixel", pos + int(np.argmax(nan)) * 4)

    shape = (height, width, 3) if channels == 3 else (height, width)
    # one copy: bottom-to-top storage -> top-first, little-endian, writeable
    return np.array(flat.reshape(shape)[::-1], dtype="<f4")


def write_pfm(path, data) -> None:
    """Write float32 data as PFM, (H, W, 3) -> PF, (H, W) -> Pf.

    Always little endian (scale line "-1.0"). NaN values are rejected so
    that everything written is readable back bit exactly.
    """
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"PF"
    elif arr.ndim == 2:
        magic = b"Pf"
    else:
        raise ValueError(f"expected (H, W, 3) or (H, W) data, got {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("image must have positive dimensions")
    if np.any(np.isnan(arr)):
        raise ValueError("NaN pixels cannot be written")

    height, width = arr.shape[0], arr.shape[1]
    header = magic + b"\n" + f"{width} {height}\n-1.0\n".encode("ascii")
    payload = np.ascontiguousarray(arr[::-1], dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
