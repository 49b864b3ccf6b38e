"""Pinhole cameras, cross-view consistency, and surface splatting.

Depth convention used throughout the package: a depth value is the
Euclidean ray distance from the camera center to the surface point, not
the planar camera-frame z. project() returns that distance and
unproject() scales the unit pixel ray by it, so the two are exact
inverses. Behind-camera validity still follows the camera-frame z sign.

Cross-view consistency for a target pixel: unproject it, project the
point into every view k, and compare the view's stored depth at the
projected pixel (bilinear) against the point's distance to that
camera, e_k = |d_k - z_k|; the target reads its own depth at the pixel
center. Out-of-frame or behind-camera projections get e_k = +inf.
Weights are w = max(-ln e, 0) (capped at WEIGHT_CAP, then L1
normalized, uniform fallback when all raw weights vanish) and the binary
mask keeps views with e_k < c_th = MASK_THRESHOLD, always keeping the
target itself. c_th, the depth-confidence cut of estimate_depth_scale and
the fixed_sigma splat width are module constants, not parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .brdf import GBuffer

WEIGHT_CAP = 50.0
MASK_THRESHOLD = 0.05  # meters
CONFIDENCE_THRESHOLD = 0.9  # estimate_depth_scale keeps confidence above this
SPLAT_SIGMA = 0.15  # meters, the fixed_sigma splat's depth-gap deviation
BAND_PX = 1 << 14  # consistency_maps' target pixels per band of whole rows (at least one row)


@dataclass(frozen=True)
class CameraView:
    """Pinhole camera with a world-to-camera rigid pose.

    rotation (3, 3) must be orthonormal with determinant 1 (tolerance
    1e-6); p_cam = rotation @ p_world + translation. Optional per-view
    image (H, W, 3), depth (H, W, ray distance), confidence (H, W), with
    (H, W) = (height, width). pixel_rays builds every pixel's view ray, and
    the intrinsics must keep each ray's squared length finite.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    width: int
    height: int
    image: Optional[np.ndarray] = None
    depth: Optional[np.ndarray] = None
    confidence: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        rot = np.array(self.rotation, dtype=np.float64)
        trans = np.array(self.translation, dtype=np.float64)
        if rot.shape != (3, 3) or trans.shape != (3,):
            raise ValueError("pose must be a (3, 3) rotation and 3-vector")
        params = np.r_[self.fx, self.fy, self.cx, self.cy, rot.ravel(), trans]
        if not np.all(np.isfinite(params)):
            raise ValueError("intrinsics and pose must be finite")
        # an entry above 1 + 1e-6 already breaks orthonormality, and
        # checking it first keeps rot @ rot.T from overflowing
        if np.max(np.abs(rot)) > 1.0 + 1e-6 or np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-6:
            raise ValueError("rotation must be orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-6:
            raise ValueError("rotation must have determinant 1")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be positive")
        with np.errstate(over="ignore"):  # the corner rays are the longest
            x = (np.array([0.5, self.width - 0.5]) - self.cx) / self.fx
            y = (np.array([0.5, self.height - 0.5]) - self.cy) / self.fy
            if not np.all(np.isfinite(x[:, None] ** 2 + y**2 + 1.0)):
                raise ValueError("intrinsics overflow the pixel rays")
        rot.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)
        for name in ("image", "depth", "confidence"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=np.float64)
                shape = (self.height, self.width) + ((3,) if name == "image" else ())
                if arr.shape != shape:
                    raise ValueError(f"camera {name} map is {arr.shape}, not {shape}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"camera {name} map must be finite")
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def center(self) -> np.ndarray:
        """World-space camera center -R^T t."""
        return -self.rotation.T @ self.translation

    def pixel_rays(self, rows=slice(None)) -> np.ndarray:
        """Unit world directions through the centers of a band of pixel rows, (rows, W, 3).

        Each ray is normalized by its own (1, 3) @ (3, 1) and rotated by its own
        (3, 3) @ (3, 1) product: the bits of R^T (r / np.linalg.norm(r)) for one
        ray, which a norm over an axis or one (N, 3) @ (3, 3) gemm would not keep.
        """
        ii = np.arange(self.height)[rows]
        r = np.empty((ii.size, self.width, 3))
        r[..., 0] = (np.arange(self.width) + 0.5 - self.cx) / self.fx
        r[..., 1] = ((ii + 0.5 - self.cy) / self.fy)[:, None]
        r[..., 2] = 1.0
        r /= np.sqrt(r[..., None, :] @ r[..., :, None])[..., 0]
        return (self.rotation.T @ r[..., None])[..., 0]

    def project(self, points):
        """World points (..., 3) -> (u, v, dist, valid).

        u, v are continuous pixel coordinates; dist is the Euclidean
        distance to the camera center; valid is False behind the camera.
        A point too far for float64 gets inf or nan values and no warning;
        reprojection gives it no vote.
        """
        p = np.asarray(points, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            # one (1, 3) @ (3, 3) per point: a batched gemm would round differently
            p_cam = (p[..., None, :] @ self.rotation.T)[..., 0, :] + self.translation
            z = p_cam[..., 2]
            valid = z > 0.0
            safe_z = np.where(valid, z, 1.0)
            u = self.fx * p_cam[..., 0] / safe_z + self.cx
            v = self.fy * p_cam[..., 1] / safe_z + self.cy
            dist = np.linalg.norm(p_cam, axis=-1)
        return u, v, dist, valid

    def unproject(self, u, v, dist):
        """Pixel coordinates and ray distance -> world points (..., 3)."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        dist = np.asarray(dist, dtype=np.float64)
        if not np.all(dist > 0.0):
            raise ValueError("distance must be > 0")
        ray = np.stack(
            [(u - self.cx) / self.fx, (v - self.cy) / self.fy, np.ones_like(u)],
            axis=-1,
        )
        ray /= np.linalg.norm(ray, axis=-1, keepdims=True)
        p_cam = ray * dist[..., None]
        with np.errstate(over="ignore"):  # a pose far beyond float64 gives inf points
            return ((p_cam - self.translation)[..., None, :] @ self.rotation)[..., 0, :]


@dataclass(frozen=True)
class MultiViewSet:
    """K >= 2 views, one of which is the reconstruction target."""

    views: tuple
    target: int = 0

    def __post_init__(self):
        views = tuple(self.views)
        if len(views) < 2:
            raise ValueError("a view set needs at least two cameras")
        for view in views:
            if not isinstance(view, CameraView):
                raise TypeError("views must be CameraView instances")
        if not (0 <= self.target < len(views)):
            raise ValueError("target index out of range")
        object.__setattr__(self, "views", views)

    def __len__(self) -> int:
        return len(self.views)


@dataclass(frozen=True)
class VisibleSurfaceVolume:
    """Voxel grid of surface-likelihood weighted appearance features."""

    features: np.ndarray  # (X, Y, Z, C), already weighted by rho
    rho: np.ndarray  # (X, Y, Z) in [0, 1]


def bilinear_lookup(img: np.ndarray, u, v):
    """Sample img at continuous pixel coords; (value, inside).

    Pixel (i, j) is centered at (j + 0.5, i + 0.5). Points whose bilinear
    support leaves the image (center coordinates outside [0, size-1])
    report inside=False and value 0.
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[:2]
    x = np.asarray(u, dtype=np.float64) - 0.5
    y = np.asarray(v, dtype=np.float64) - 0.5
    inside = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xs = np.where(inside, x, 0.0)  # NaN coordinates must not become indices
    ys = np.where(inside, y, 0.0)
    x0 = np.minimum(np.floor(xs).astype(np.int64), w - 2 if w > 1 else 0)
    y0 = np.minimum(np.floor(ys).astype(np.int64), h - 2 if h > 1 else 0)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    if img.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    val = (
        img[y0, x0] * (1 - fx) * (1 - fy)
        + img[y0, x1] * fx * (1 - fy)
        + img[y1, x0] * (1 - fx) * fy
        + img[y1, x1] * fx * fy
    )
    keep = inside[..., None] if img.ndim == 3 else inside
    return np.where(keep, val, 0.0), inside


def depth_projection_errors(mvs: MultiViewSet, pixels) -> np.ndarray:
    """Consistency errors e_k = |d_k - z_k| for target pixels, (..., K).

    pixels (..., 2) holds (row, col) pairs; every view needs a depth map,
    and the target's must be positive at all of them. The point cloud is
    projected into each view once; entry k covers view k (the target's
    own, looked up at the pixel center, is ~0). Out-of-frame or
    behind-camera projections give +inf.
    """
    for k, view in enumerate(mvs.views):
        if view.depth is None:
            raise ValueError(f"view {k} has no depth map")
    tview = mvs.views[mvs.target]
    pixels = np.asarray(pixels).astype(np.int64)
    row, col = pixels[..., 0], pixels[..., 1]
    d_t = tview.depth[row, col]
    if np.any(d_t <= 0.0):
        raise ValueError("target pixel has no valid depth")
    centers = (col + 0.5, row + 0.5)
    points = tview.unproject(*centers, d_t)
    errors = np.full(d_t.shape + (len(mvs),), np.inf)
    for k, view in enumerate(mvs.views):
        u, v, dist, valid = view.project(points)
        if k == mvs.target:  # the round trip can leave a border pixel's support
            u, v = centers
        d_k, inside = bilinear_lookup(view.depth, u, v)
        errors[..., k] = np.where(valid & inside, np.abs(d_k - dist), np.inf)
    return errors


def consistency_maps(mvs: MultiViewSet):
    """(bands, planes, codes) of the target view, computed a band of rows at a time.

    bands are slices of max(1, BAND_PX // W) whole rows, planes (2, H, K, W)
    float32 holds the errors and weights, and codes (H, W, ceil(K / 8)) uint8
    the mask's view entries, as np.packbits(..., axis=-1, bitorder="little").
    """
    h, w = mvs.views[mvs.target].height, mvs.views[mvs.target].width
    step = max(1, BAND_PX // w)
    bands = [slice(start, min(start + step, h)) for start in range(0, h, step)]
    planes = np.empty((2, h, len(mvs), w), dtype=np.float32)
    codes = np.empty((h, w, (len(mvs) + 7) // 8), dtype=np.uint8)
    for band in bands:
        e = depth_projection_errors(mvs, np.mgrid[band, :w].transpose(1, 2, 0))
        planes[0, band] = e.transpose(0, 2, 1)
        planes[1, band] = multiview_weight(e).transpose(0, 2, 1)
        # the leading target entry is always 1, so only the K view entries are packed
        codes[band] = np.packbits(multiview_mask(e)[..., 1:], axis=-1, bitorder="little")
    return bands, planes, codes


def depth_projection_error(mvs: MultiViewSet, target_pixel) -> np.ndarray:
    """Consistency errors (K,) for one target pixel (row, col)."""
    return depth_projection_errors(mvs, (target_pixel[0], target_pixel[1]))


def _errors(errors) -> np.ndarray:
    e = np.asarray(errors, dtype=np.float64)
    if np.any(np.isnan(e)) or np.any(e < 0.0):
        raise ValueError("errors must be >= 0")
    return e


def multiview_weight(errors) -> np.ndarray:
    """w = max(-ln e, 0), capped, L1 normalized; uniform when all zero.

    Each row of errors (..., K) is normalized on its own; K must be >= 1.
    """
    e = _errors(errors)
    if e.ndim == 0 or e.shape[-1] == 0:
        raise ValueError("errors must be (..., K) with K >= 1 views")
    with np.errstate(divide="ignore"):
        raw = -np.log(e)
    # -log(0) = inf clips to the cap; an out-of-frame -log(inf) = -inf to no vote
    raw = np.clip(raw, 0.0, WEIGHT_CAP)
    total = raw.sum(axis=-1, keepdims=True)
    uniform = total == 0.0
    return np.where(uniform, 1.0 / e.shape[-1], raw / np.where(uniform, 1.0, total))


def multiview_mask(errors) -> np.ndarray:
    """Binary mask (..., K+1): leading 1 for the target, then e_k < MASK_THRESHOLD.

    The comparison is strict, so e_k exactly at the threshold is dropped.
    """
    e = _errors(errors)
    return np.concatenate([np.ones_like(e[..., :1]), e < MASK_THRESHOLD], axis=-1).astype(np.int64)


def estimate_depth_scale(pred, ref, confidence) -> float:
    """Scalar tau minimizing sum (tau * pred - ref)^2 over confident pixels.

    Pixels qualify when confidence > CONFIDENCE_THRESHOLD (strict). Raises
    when no pixel qualifies or the qualifying prediction energy is zero.
    """
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    conf = np.asarray(confidence, dtype=np.float64)
    if pred.shape != ref.shape or pred.shape != conf.shape:
        raise ValueError("pred, ref, confidence must share a shape")
    from .metrics import lsq_scale
    return lsq_scale(pred, ref, conf > CONFIDENCE_THRESHOLD)


def voxel_centers(dims, bbox_min, bbox_max) -> np.ndarray:
    """World-space voxel centers, shape dims + (3,)."""
    dims = tuple(int(d) for d in dims)
    lo = np.asarray(bbox_min, dtype=np.float64)
    hi = np.asarray(bbox_max, dtype=np.float64)
    cell = (hi - lo) / np.array(dims)
    axes = [lo[a] + (np.arange(dims[a]) + 0.5) * cell[a] for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1)


def splat_visible_surface(
    g: GBuffer,
    cam: CameraView,
    dims,
    bbox_min,
    bbox_max,
    variant: str = "fixed_sigma",
    extras: Optional[np.ndarray] = None,
) -> VisibleSurfaceVolume:
    """Lift the view's appearance onto a voxel grid weighted by rho.

    Each voxel center projects to (u, v) with ray distance d; with D the
    looked-up depth and C the confidence, the surface likelihood is

        variant "confidence":  rho = exp(-C * (d - D)^2)
        variant "fixed_sigma": rho = exp(-(d - D)^2 / (2 * SPLAT_SIGMA^2))

    The feature is rho * [image RGB, normal, albedo, roughness] (10
    channels), with optional extra image channels appended. Voxels that
    project out of frame or behind the camera get zero features.
    """
    if variant not in ("confidence", "fixed_sigma"):
        raise ValueError(f"unknown variant {variant!r}")
    if cam.image is None:
        raise ValueError("camera view needs an image to splat")
    if variant == "confidence" and g.confidence is None:
        raise ValueError("confidence variant needs gbuffer confidence")
    # one lookup samples every plane: depth, the confidence variant's C, then the features
    head = [g.depth[..., None]] + ([g.confidence[..., None]] if variant == "confidence" else [])
    stack = head + [cam.image, g.normal, g.albedo, g.roughness[..., None]]
    if extras is not None:
        extras = np.asarray(extras, dtype=np.float64)
        if extras.shape[:2] != g.shape:
            raise ValueError("extras must match the gbuffer size")
        stack.append(extras)
    u, v, dist, valid = cam.project(voxel_centers(dims, bbox_min, bbox_max))
    values, inside = bilinear_lookup(np.concatenate(stack, axis=-1), u, v)
    ok = valid & inside
    gap = np.where(ok, dist - values[..., 0], 0.0)
    if variant == "confidence":
        rho = np.exp(-values[..., 1] * gap * gap)
    else:
        rho = np.exp(-gap * gap / (2.0 * SPLAT_SIGMA * SPLAT_SIGMA))
    rho = np.where(ok, rho, 0.0)
    features = rho[..., None] * np.where(ok[..., None], values[..., len(head) :], 0.0)
    return VisibleSurfaceVolume(features, rho)
