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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .sg import _as_unit, _frozen, lobe_values, sg_radiance

VSG_MAGIC = "VSG1"
CHANNEL_ORDER = "alpha intensity axis sharpness"
# points interpolated at once; a (points, 8) float64 temporary is 256 kB
CHUNK_POINTS = 1 << 12
# ray samples per bench_orders chunk (1 MiB of records); a chunk holds >= 1 ray
BENCH_SAMPLES = 1 << 14


@dataclass(frozen=True)
class VsgVolume:
    """Voxel grid (X, Y, Z, 8) over an axis-aligned bounding box.

    Channels, in storage order: alpha, intensity RGB, axis xyz, sharpness.
    alpha lies in [0, 1] and sharpness is >= 0.
    lattice: the flat view, cell, clamp bounds, strides and corner offsets of _interp_records.
    """

    data: np.ndarray
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    lattice: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = _frozen(self.data, "volume data")
        if data.ndim != 4 or data.shape[3] != 8 or 0 in data.shape[:3]:
            raise ValueError("volume data must be (X, Y, Z, 8) with X, Y, Z >= 1")
        if np.any(data[..., 0] < 0.0) or np.any(data[..., 0] > 1.0):
            raise ValueError("alpha channel must lie in [0, 1]")
        if np.any(data[..., 7] < 0.0):
            raise ValueError("sharpness channel must be >= 0")
        lo = _frozen(self.bbox_min, "bbox_min", shape=(3,))
        hi = _frozen(self.bbox_max, "bbox_max", shape=(3,))
        if np.any(hi <= lo):
            raise ValueError("bbox_max must exceed bbox_min on every axis")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "bbox_min", lo)
        object.__setattr__(self, "bbox_max", hi)
        dims = np.array(data.shape[:3], dtype=np.float64)
        stride = np.array([data.shape[1] * data.shape[2], data.shape[2], 1])
        offsets = [int(np.dot(c, np.where(dims > 1, stride, 0))) for c in np.ndindex(2, 2, 2)]
        object.__setattr__(self, "lattice", (
            data.reshape(-1, 8), (hi - lo) / dims, dims - 1.0,
            (dims - 2).astype(np.int64).clip(min=0), stride, offsets))

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

    Empty sets (zero samples) mean the ray missed the box.
    """

    origin: np.ndarray
    direction: np.ndarray
    t: np.ndarray  # distances along the ray, shape (n,)
    alpha: np.ndarray  # (n,)
    intensity: np.ndarray  # (n, 3)
    axis: np.ndarray  # (n, 3), renormalized
    sharpness: np.ndarray  # (n,)

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
    hit = (hi > t_near) & (hi > 0.0)
    return t_near, hi, hit


def _interp_records(vol: VsgVolume, points, out, nearest: bool = False) -> None:
    """Fill out (N, 8) with the 8 channels interpolated at points (N, 3).

    Trilinear over voxel centers (edge clamped), or nearest-neighbor when
    nearest=True. The axis columns are renormalized in place; a vanishing
    interpolated axis falls back to +z. Works through CHUNK_POINTS points
    at a time from vol.lattice, gathering with mode="clip" (indices are in
    range by construction; the default mode buffers out), so its
    temporaries stay near 1 MB whatever N is.
    """
    flat, cell, g_max, i_max, stride, offsets = vol.lattice
    size = min(CHUNK_POINTS, points.shape[0])
    corner = np.empty((size, 8))
    weight = np.empty(size)
    for lo in range(0, points.shape[0], CHUNK_POINTS):
        rec = out[lo:lo + CHUNK_POINTS]
        # continuous voxel-center coordinates, clamped to [0, dims - 1]
        g = (points[lo:lo + CHUNK_POINTS] - vol.bbox_min) / cell - 0.5
        np.maximum(g, 0.0, out=g)
        np.minimum(g, g_max, out=g)
        if nearest:
            flat.take(np.rint(g).astype(np.int64) @ stride, axis=0, out=rec, mode="clip")
        else:
            i0 = np.minimum(np.floor(g).astype(np.int64), i_max)
            f = g - i0
            f1 = 1.0 - f
            base = i0 @ stride
            c = corner[:len(rec)]
            w = weight[:len(rec)]
            rec[:] = 0.0
            for dx in (0, 1):
                wx = f1[:, 0] if dx == 0 else f[:, 0]
                for dy in (0, 1):
                    wxy = wx * (f1[:, 1] if dy == 0 else f[:, 1])
                    for dz in (0, 1):
                        np.multiply(wxy, f1[:, 2] if dz == 0 else f[:, 2], out=w)
                        k = base + offsets[4 * dx + 2 * dy + dz]
                        flat.take(k, axis=0, out=c, mode="clip")
                        c *= w[:, None]
                        rec += c
        axis = rec[:, 4:7]
        norm = np.sqrt(np.add.reduce(axis * axis, -1, keepdims=True))
        ok = norm > 1e-12
        np.divide(axis, norm, out=axis, where=ok)
        if not ok.all():
            axis[~ok[:, 0]] = (0.0, 0.0, 1.0)


def _fields(rec):
    """(alpha, intensity, axis, sharpness) views of (..., 8) records."""
    return rec[..., 0], rec[..., 1:4], rec[..., 4:7], rec[..., 7]


def _march(vol: VsgVolume, origins, dirs, t_near, t_far, n_r: int, nearest: bool = False):
    """Records at the midpoints of n_r equal segments of [t_near, t_far] along each ray.

    The one sampler behind sample_ray and bench_orders: rays (..., 3) of any
    leading shape and their box overlap (callers drop misses) give distances
    (..., n_r) and records (..., n_r, 8).
    """
    t = t_near[..., None] + (np.arange(n_r) + 0.5) * (t_far - t_near)[..., None] / n_r
    points = origins[..., None, :] + t[..., None] * dirs[..., None, :]
    rec = np.empty(t.shape + (8,))
    _interp_records(vol, points.reshape(-1, 3), rec.reshape(-1, 8), nearest)
    return t, rec


def sample_ray(
    vol: VsgVolume, origin, direction, n_r: int = 128, nearest: bool = False
) -> RaySampleSet:
    """March one ray and interpolate n_r records across the box overlap.

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
    if not hit:
        return RaySampleSet(origin, direction, np.zeros(0), *_fields(np.zeros((0, 8))))
    t, rec = _march(vol, origin, direction, t_near, t_far, n_r, nearest)
    return RaySampleSet(origin, direction, t, *_fields(rec))


def compositing_weights(alpha: np.ndarray) -> np.ndarray:
    """w_n = alpha_n * prod_{m<n}(1 - alpha_m) along the last axis."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    w = np.ones(alpha.shape)
    np.cumprod(1.0 - alpha[..., :-1], axis=-1, out=w[..., 1:])
    return np.multiply(w, alpha, out=w)


def _composite_before(alpha, intensity, axis, sharpness, l):
    """Blend of per-sample lobe evaluations at -l. Batched over rays."""
    w = compositing_weights(alpha)
    g = lobe_values(axis, sharpness, -np.asarray(l, dtype=np.float64)[..., None, :])
    return np.einsum("...n,...n,...nc->...c", w, g, intensity)


def _composite_after(alpha, intensity, axis, sharpness, l):
    """Single lobe evaluation at the weight-blended parameters."""
    w = compositing_weights(alpha)
    agg_int = np.einsum("...n,...nc->...c", w, intensity)
    agg_sharp = np.einsum("...n,...n->...", w, sharpness)
    agg_axis = np.einsum("...n,...nc->...c", w, axis)  # not renormalized
    return sg_radiance(agg_int, agg_sharp, agg_axis, -np.asarray(l, dtype=np.float64))


def _nonempty_fields(samples: RaySampleSet):
    if len(samples) == 0:
        raise ValueError("cannot composite an empty sample set")
    return samples.alpha, samples.intensity, samples.axis, samples.sharpness


def composite_sg_before(samples: RaySampleSet, l) -> np.ndarray:
    """Per-sample lobe evaluation, then alpha blend. Returns RGB."""
    return _composite_before(*_nonempty_fields(samples), l)


def composite_sg_after(samples: RaySampleSet, l) -> np.ndarray:
    """Alpha blend the parameters, then one lobe evaluation. Returns RGB."""
    return _composite_after(*_nonempty_fields(samples), l)


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


def bench_orders(
    vol: VsgVolume, rays: int = 100000, n_r: int = 128, runs: int = 5, seed: int = 0
) -> dict:
    """Time both compositing orders on identical sampled records.

    Rays are drawn, sampled and composited max(1, BENCH_SAMPLES // n_r)
    at a time, so the records held at once are at most BENCH_SAMPLES * 64
    bytes (1 MiB, reached at n_r = 128) however many rays are timed, or
    one ray's n_r * 64 bytes when n_r exceeds BENCH_SAMPLES. _march samples
    each chunk's rays as it samples sample_ray's one ray. Sampling is
    excluded from the timings; each run composites the same per-chunk
    records in both orders. Returns the exact lobe-evaluation counts
    (rays * n_r for "before", rays for "after") and the median over runs
    of the summed per-chunk wall times.
    """
    if runs < 1 or rays < 1 or n_r < 1:
        raise ValueError("runs, rays and n_r must be >= 1")
    rng = np.random.default_rng(seed)
    t_before = np.zeros(runs)
    t_after = np.zeros(runs)
    done = 0
    while done < rays:
        n = min(max(1, BENCH_SAMPLES // n_r), rays - done)
        origins, dirs = _random_rays(vol, n, rng)
        t_near, t_far, _ = ray_box_intersect(vol.bbox_min, vol.bbox_max, origins, dirs)
        _, rec = _march(vol, origins, dirs, t_near, t_far, n_r)
        alpha, intensity, axis, sharpness = _fields(rec)
        for r in range(runs):
            t0 = time.perf_counter()
            _composite_before(alpha, intensity, axis, sharpness, dirs)
            t1 = time.perf_counter()
            _composite_after(alpha, intensity, axis, sharpness, dirs)
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

    Header: "VSG1", "X Y Z", "xmin ymin zmin xmax ymax zmax", channel
    order line. Payload is C order over (X, Y, Z, 8), 4 bytes per value.
    """
    x, y, z = vol.dims
    lo = vol.bbox_min
    hi = vol.bbox_max
    header = (
        f"{VSG_MAGIC}\n{x} {y} {z}\n"
        f"{lo[0]:.9g} {lo[1]:.9g} {lo[2]:.9g} "
        f"{hi[0]:.9g} {hi[1]:.9g} {hi[2]:.9g}\n"
        f"{CHANNEL_ORDER}\n"
    ).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(vol.data, dtype="<f4").tobytes())


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
    payload = buf[pos:]
    if len(payload) != count * 4:
        raise ValueError(
            f"volume payload must be {count * 4} bytes, got {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f4", count=count).astype(np.float64)
    return VsgVolume(data.reshape(dims + (8,)), bbox[:3], bbox[3:])
