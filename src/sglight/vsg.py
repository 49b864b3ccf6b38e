"""Volumetric spherical Gaussians: a voxel grid of 8-channel records
(alpha, RGB intensity, 3-vector axis, sharpness) ray-marched with alpha
compositing in two operation orders.

"before": evaluate each sample's lobe at the query direction, then blend
the radiances with the compositing weights.

"after": blend the raw lobe parameters with the same weights first, then
evaluate a single lobe at the aggregate. The aggregated axis is the plain
weighted sum and is deliberately not renormalized.

Compositing weights are w_n = alpha_n * prod_{m<n} (1 - alpha_m); the
weights plus the residual transmittance prod_n (1 - alpha_n) sum to 1.
Both orders evaluate lobes at -l for a ray marched along l.
Records stay channel-major from the grid to the composite, (8, R, n_r) for
R rays; one kernel per order composites a batch and one ray alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .sg import _as_unit, _dot, _frozen, lobe_values, sg_radiance

VSG_MAGIC = "VSG1"
CHANNEL_ORDER = "alpha intensity axis sharpness"
# points interpolated at once; the (8, points) float64 corner buffer is 256 kB
CHUNK_POINTS = 1 << 12
# ray samples per bench_orders chunk (a 1 MiB record buffer); a chunk holds >= 1 ray
BENCH_SAMPLES = 1 << 14
# timed repeats per bench_orders chunk; each order reports their median
BENCH_RUNS = 5


@dataclass(frozen=True)
class VsgVolume:
    """Voxel grid (X, Y, Z, 8) over an axis-aligned bounding box.

    Channels, in storage order: alpha, intensity RGB, axis xyz, sharpness.
    alpha lies in [0, 1] and sharpness is >= 0.
    lattice: the (8, X*Y*Z) grid that data views, and the bbox_min, cell,
    clamp-bound columns, strides and corner offsets of _interp_records.
    """

    data: np.ndarray
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    lattice: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data)
        # the one stored copy, channel-major (8, X, Y, Z), made and checked straight from the input
        grid = _frozen(np.moveaxis(data, -1, 0) if data.ndim else data, "volume data")
        if grid.ndim != 4 or grid.shape[0] != 8 or 0 in grid.shape[1:]:
            raise ValueError("volume data must be (X, Y, Z, 8) with X, Y, Z >= 1")
        if np.any(grid[0] < 0.0) or np.any(grid[0] > 1.0):
            raise ValueError("alpha channel must lie in [0, 1]")
        if np.any(grid[7] < 0.0):
            raise ValueError("sharpness channel must be >= 0")
        lo = _frozen(self.bbox_min, "bbox_min", shape=(3,))
        hi = _frozen(self.bbox_max, "bbox_max", shape=(3,))
        if np.any(hi <= lo):
            raise ValueError("bbox_max must exceed bbox_min on every axis")
        object.__setattr__(self, "data", np.moveaxis(grid, 0, 3))
        object.__setattr__(self, "bbox_min", lo)
        object.__setattr__(self, "bbox_max", hi)
        dims = np.array(grid.shape[1:], dtype=np.float64)
        stride = np.array([dims[1] * dims[2], dims[2], 1.0])
        offsets = [int(_dot(np.array(c), stride * (dims > 1))) for c in np.ndindex(2, 2, 2)]
        object.__setattr__(self, "lattice", (
            grid.reshape(8, -1), lo[:, None], ((hi - lo) / dims)[:, None], (dims - 1.0)[:, None],
            np.maximum(dims - 2.0, 0.0)[:, None], stride, offsets))

    @property
    def dims(self) -> tuple:
        return self.data.shape[:3]

    @classmethod
    def from_fields(cls, alpha, intensity, axis, sharpness, bbox_min, bbox_max):
        """Assemble the 8-channel grid from separate field arrays."""
        alpha = np.asarray(alpha, dtype=np.float64)
        data = np.concatenate(
            [
                alpha[..., None],
                np.asarray(intensity, dtype=np.float64),
                np.asarray(axis, dtype=np.float64),
                np.asarray(sharpness, dtype=np.float64)[..., None],
            ],
            axis=-1,
        )
        return cls(data, bbox_min, bbox_max)


@dataclass(frozen=True)
class RaySampleSet:
    """Records interpolated along one ray, ordered near to far.

    records is channel-major, one row per channel in CHANNEL_ORDER (alpha,
    intensity RGB, renormalized axis xyz, sharpness), as _march fills it.
    Empty sets (zero samples) mean the ray missed the box.
    """

    t: np.ndarray  # distances along the ray, shape (n,)
    records: np.ndarray  # (8, n)

    def __len__(self) -> int:
        return self.t.shape[0]


def ray_box_intersect(bbox_min, bbox_max, origins, dirs):
    """Slab test. Returns (t_near, t_far, hit) for rays origin + t*dir.

    t_near is clamped to 0 so origins inside the box march forward only.
    Vectorized over leading axes of origins/dirs.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (bbox_min - origins) * inv
        t1 = (bbox_max - origins) * inv
    near = np.minimum(t0, t1)
    far = np.maximum(t0, t1)
    # axis-parallel rays: inside the slab -> infinite interval, outside ->
    # empty interval; patch after the sort so the empty case survives
    parallel = dirs == 0.0
    if np.any(parallel):
        inside = (origins >= bbox_min) & (origins <= bbox_max)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
    lo = near.max(axis=-1)
    hi = far.min(axis=-1)
    t_near = np.maximum(lo, 0.0)
    hit = hi > t_near  # t_near is >= 0 or NaN, so a hit also has hi > 0
    return t_near, hi, hit


def _interp_records(vol: VsgVolume, points, out, corner) -> None:
    """Fill out (8, N) with the 8 channels interpolated at points (3, N).

    Trilinear over voxel centers (edge clamped). The axis rows are
    renormalized; a vanishing interpolated axis falls back to +z. Works
    through CHUNK_POINTS points at a time, channel-major throughout: (3, n)
    coordinate rows (96 kB each at n = CHUNK_POINTS) per chunk, and the
    caller's flat corner buffer of at least 8 * min(CHUNK_POINTS, N) floats
    (256 KiB), into which each corner is gathered from vol.lattice's
    (8, X*Y*Z) grid with mode="clip" (indices are in range by construction;
    the default mode buffers out), weighted and added to the chunk's zeroed
    columns of out. The scratch allocated here stays under 1 MB whatever N is.
    """
    grid, bbox_min, cell, g_max, i_max, stride, offsets = vol.lattice
    for lo in range(0, points.shape[1], CHUNK_POINTS):
        acc = out[:, lo:lo + CHUNK_POINTS]
        c = corner[:acc.size].reshape(8, -1)
        # continuous voxel-center coordinates, clamped to [0, dims - 1]
        g = np.subtract(points[:, lo:lo + CHUNK_POINTS], bbox_min) / cell - 0.5
        np.maximum(g, 0.0, out=g)
        np.minimum(g, g_max, out=g)
        i0 = np.floor(g)
        np.minimum(i0, i_max, out=i0)
        base = (stride @ i0).astype(np.int64)
        f = np.subtract(g, i0, out=g)
        f1 = np.subtract(1.0, f, out=i0)
        acc[:] = 0.0
        for dx in (0, 1):
            wx = f1[0] if dx == 0 else f[0]
            for dy in (0, 1):
                wxy = wx * (f1[1] if dy == 0 else f[1])
                for dz in (0, 1):
                    w = wxy * (f1[2] if dz == 0 else f[2])
                    grid.take(base + offsets[4 * dx + 2 * dy + dz], axis=1, out=c, mode="clip")
                    c *= w
                    acc += c
        norm = np.sqrt(np.add.reduce(acc[4:7] * acc[4:7]))
        ok = norm > 1e-12
        np.divide(acc[4:7], norm, out=acc[4:7], where=ok)
        if not ok.all():
            acc[4:7, ~ok] = ((0.0,), (0.0,), (1.0,))


def _workspace(shape) -> tuple:
    """_march's scratch for records of shape (8, *shape), shape (R, n_r) or
    one ray's (n_r,): distances of that shape (8 bytes a sample), points
    (3, *shape) (24 bytes a sample) and _interp_records' flat corner buffer
    of 8 * min(CHUNK_POINTS, samples) floats (256 KiB from CHUNK_POINTS
    samples on); 768 KiB in all at BENCH_SAMPLES samples."""
    t = np.empty(shape)
    return t, np.empty((3, *shape)), np.empty(8 * min(CHUNK_POINTS, t.size))


def _march(vol: VsgVolume, origins, dirs, t_near, t_far, workspace, rec):
    """Records at the midpoints of n_r equal segments of [t_near, t_far] along each ray.

    The one sampler behind sample_ray and bench_orders: rays (R, 3), or one
    ray (3,), and their box overlap (callers drop misses) fill the caller's
    channel-major records rec, (8, R, n_r). Distances t (R, n_r) and points
    (3, R, n_r) are computed in place into the caller's _workspace
    (32 bytes a sample), which also holds _interp_records' corner buffer;
    only that kernel's per-chunk coordinate rows are allocated here.
    Returns t and rec.
    """
    t, points, corner = workspace
    n_r = t.shape[-1]
    np.multiply(np.arange(0.5, n_r), (t_far - t_near)[..., None], out=t)
    t /= n_r
    t += t_near[..., None]
    np.multiply(t, dirs.T[..., None], out=points)
    points += origins.T[..., None]
    _interp_records(vol, points.reshape(3, -1), rec.reshape(8, -1), corner)
    return t, rec


def sample_ray(vol: VsgVolume, origin, direction, n_r: int = 128) -> RaySampleSet:
    """March one ray and trilinearly interpolate n_r records across the box overlap.

    Samples sit at the midpoints of n_r equal segments of [t_near, t_far].
    A ray that misses the box yields an empty set.
    """
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if origin.shape != (3,) or direction.shape != (3,):
        raise ValueError("origin and direction must be 3-vectors")
    direction = _as_unit(direction)
    t_near, t_far, hit = ray_box_intersect(vol.bbox_min, vol.bbox_max, origin, direction)
    t, rec = (_march(vol, origin, direction, t_near, t_far, _workspace((n_r,)), np.empty((8, n_r)))
              if hit else (np.zeros(0), np.zeros((8, 0))))
    return RaySampleSet(t, rec)


def compositing_weights(alpha: np.ndarray) -> np.ndarray:
    """w_n = alpha_n * prod_{m<n}(1 - alpha_m) along the last axis.

    Each ray's product runs left to right from 1, whatever alpha's strides."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    # 1 - alpha_m in one contiguous pass, one element on, lands at w[..., m + 1]
    # (a row's last value at the next row's first, which the 1 overwrites)
    buf = np.empty(alpha.size + 1)
    np.subtract(1.0, alpha, out=buf[1:].reshape(alpha.shape))
    w = buf[:-1].reshape(alpha.shape)
    w[..., :1] = 1.0
    np.multiply.accumulate(w, axis=-1, out=w)
    return np.multiply(w, alpha, out=w)


def _composite_before(alpha, intensity, axis, sharpness, l):
    """Blend of per-sample lobe evaluations at -l, for rays l (R, 3).

    Channel-major field rows: alpha and sharpness (R, n_r), intensity and
    axis (3, R, n_r)."""
    w = compositing_weights(alpha)
    w *= lobe_values(axis.T, sharpness.T, -l).T
    return np.einsum("c...n,...n->...c", intensity, w)


def _composite_after(alpha, intensity, axis, sharpness, l):
    """Single lobe evaluation at the weight-blended parameters; fields as in
    _composite_before."""
    w = compositing_weights(alpha)
    agg_axis = np.einsum("c...n,...n->...c", axis, w)  # not renormalized
    agg_int = np.einsum("c...n,...n->...c", intensity, w)
    return sg_radiance(agg_int, np.einsum("...n,...n->...", sharpness, w), agg_axis, -l)


def composite_rays(records, dirs, order: str) -> np.ndarray:
    """RGB (R, 3) of rays dirs (R, 3) from their channel-major records
    (8, R, n_r), laid out as _march fills them, in order "before" or "after".

    Each row has the bits of its ray alone: composite_sg_before / _after are
    the R = 1 case. Nothing is copied: each channel's (R, n_r) rows need
    only be contiguous along the samples, as the first R rows of a larger
    (8, chunk, n_r) buffer are (the sums over samples follow the strides).
    """
    kernel = {"before": _composite_before, "after": _composite_after}.get(order)
    if kernel is None:
        raise ValueError(f"order must be 'before' or 'after', got {order!r}")
    records = np.asarray(records, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if records.ndim != 3 or records.shape[0] != 8 or records.shape[2] < 1 \
            or dirs.shape != (records.shape[1], 3):
        raise ValueError(f"records must be (8, R, n_r) with n_r >= 1 and dirs (R, 3), "
                         f"got {records.shape} and {dirs.shape}")
    return kernel(records[0], records[1:4], records[4:7], records[7], dirs)


def composite_sg_before(samples: RaySampleSet, l) -> np.ndarray:
    """Per-sample lobe evaluation, then alpha blend. Returns RGB."""
    return composite_rays(np.ascontiguousarray(samples.records)[:, None], np.reshape(l, (1, 3)),
                          "before")[0]


def composite_sg_after(samples: RaySampleSet, l) -> np.ndarray:
    """Alpha blend the parameters, then one lobe evaluation. Returns RGB."""
    return composite_rays(np.ascontiguousarray(samples.records)[:, None], np.reshape(l, (1, 3)),
                          "after")[0]


def _random_rays(vol: VsgVolume, count: int, rng) -> tuple:
    """Rays with origins uniform in [bbox_min, bbox_max) and random unit directions.

    Every origin is in the box, so every overlap is [0, t_far] with t_far >= 0
    and each sample lies in the box: a ray that starts on a min face and
    leaves through it has t_far = 0 and all its samples at its origin.
    """
    span = vol.bbox_max - vol.bbox_min
    origins = vol.bbox_min + rng.random((count, 3)) * span
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return origins, dirs


def bench_orders(vol: VsgVolume, rays: int = 100000, n_r: int = 128, seed: int = 0) -> dict:
    """Time both compositing orders on identical sampled records.

    Rays are drawn, sampled and composited max(1, BENCH_SAMPLES // n_r)
    at a time in one record buffer and one _workspace per call, allocated
    once and reused by every chunk: at n_r = 128, 1 MiB of records plus
    768 KiB of scratch (distances, points and the corner buffer), and at
    most that however many rays are timed, or one ray's n_r * 64 bytes of
    records and n_r * 32 bytes of distances and points (plus the corner
    buffer) when n_r exceeds BENCH_SAMPLES. Each chunk is
    sampled and composited as sample_ray's one ray is. Sampling is
    excluded from the timings; each run composites the same per-chunk
    records in both orders. Returns the exact lobe-evaluation counts
    (rays * n_r for "before", rays for "after") and the median over
    BENCH_RUNS runs of the summed per-chunk wall times.
    """
    if rays < 1 or n_r < 1:
        raise ValueError("rays and n_r must be >= 1")
    rng = np.random.default_rng(seed)
    t_before = np.zeros(BENCH_RUNS)
    t_after = np.zeros(BENCH_RUNS)
    chunk = min(max(1, BENCH_SAMPLES // n_r), rays)
    buf = np.empty(8 * chunk * n_r)
    t, points, corner = _workspace((chunk, n_r))
    done = 0
    while done < rays:
        n = min(chunk, rays - done)
        origins, dirs = _random_rays(vol, n, rng)
        t_near, t_far, _ = ray_box_intersect(vol.bbox_min, vol.bbox_max, origins, dirs)
        _, rec = _march(vol, origins, dirs, t_near, t_far, (t[:n], points[:, :n], corner),
                        buf[:8 * n * n_r].reshape(8, n, n_r))
        fields = rec[0], rec[1:4], rec[4:7], rec[7]
        for r in range(BENCH_RUNS):
            t0 = time.perf_counter()
            _composite_before(*fields, dirs)
            t1 = time.perf_counter()
            _composite_after(*fields, dirs)
            t2 = time.perf_counter()
            t_before[r] += t1 - t0
            t_after[r] += t2 - t1
        done += n
    return {
        "rays": rays,
        "n_r": n_r,
        "g_evals_before": rays * n_r,
        "g_evals_after": rays,
        "seconds_before": float(np.median(t_before)),
        "seconds_after": float(np.median(t_after)),
    }


def save_vsg(path, vol: VsgVolume) -> None:
    """Serialize: four ASCII header lines, then little-endian float32.

    Header: "VSG1", "X Y Z", "xmin ymin zmin xmax ymax zmax" (.17g, exact),
    channel order line. Payload is C order over (X, Y, Z, 8), 4 bytes per
    value; data beyond float32 raises ValueError and writes nothing.
    """
    x, y, z = vol.dims
    lo = vol.bbox_min
    hi = vol.bbox_max
    header = (
        f"{VSG_MAGIC}\n{x} {y} {z}\n"
        f"{lo[0]:.17g} {lo[1]:.17g} {lo[2]:.17g} "
        f"{hi[0]:.17g} {hi[1]:.17g} {hi[2]:.17g}\n"
        f"{CHANNEL_ORDER}\n"
    ).encode("ascii")
    with np.errstate(over="ignore"):  # refused below
        payload = np.ascontiguousarray(vol.data, dtype="<f4")
    if not np.isfinite(payload).all():
        raise ValueError("volume data overflows the float32 range of VSG")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_vsg(path) -> VsgVolume:
    """Inverse of save_vsg."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0
    lines = []
    for _ in range(4):
        end = buf.find(b"\n", pos)
        if end < 0:
            raise ValueError("truncated volume header")
        lines.append(buf[pos:end].decode("ascii", errors="replace"))
        pos = end + 1
    if lines[0] != VSG_MAGIC:
        raise ValueError(f"bad volume magic {lines[0]!r}")
    try:
        dims = tuple(int(v) for v in lines[1].split())
        bbox = [float(v) for v in lines[2].split()]
    except ValueError:
        raise ValueError("malformed volume header") from None
    if len(dims) != 3 or len(bbox) != 6:
        raise ValueError("malformed volume header")
    if min(dims) < 1:
        raise ValueError(f"volume dimensions must be >= 1, got {lines[1]!r}")
    if lines[3] != CHANNEL_ORDER:
        raise ValueError(f"unexpected channel order {lines[3]!r}")
    count = dims[0] * dims[1] * dims[2] * 8
    size = len(buf) - pos
    if size != count * 4:
        raise ValueError(f"volume payload must be {count * 4} bytes, got {size}")
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=pos)
    return VsgVolume(data.reshape(dims + (8,)), bbox[:3], bbox[3:])
