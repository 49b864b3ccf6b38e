"""Spherical Gaussian lobes, mixtures, and sphere integrals.

A lobe evaluated in direction l is

    G(l) = intensity * exp(sharpness * (dot(l, axis) - 1))

with a unit axis, nonnegative scalar sharpness, and a nonnegative RGB
intensity. An environment is a sum of S lobes, optionally attenuated by
per-pixel visibility factors in [0, 1]. All radiance is linear HDR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._arrays import UNIT_TOL, _as_unit, _dot, _frozen


def normalize(v: np.ndarray) -> np.ndarray:
    """Return the 3-vectors v scaled to unit length along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected 3-vector(s), got shape {v.shape}")
    with np.errstate(over="ignore"):
        n = np.sqrt(_dot(v, v))[..., None]
    if np.any(n == 0.0):
        raise ValueError("cannot normalize a zero vector")
    if not np.isfinite(n).all():  # a NaN norm fails this test too
        raise ValueError("cannot normalize a vector of infinite length or with NaN entries")
    return v / n


def spherical_to_unit(theta, phi) -> np.ndarray:
    """Convert polar angle theta in [0, pi] and azimuth phi to a unit vector.

    Convention: (sin t cos p, sin t sin p, cos t), so theta = 0 is +z.
    Accepts scalars or broadcastable arrays; vectors stack on the last axis.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def unit_to_spherical(v) -> tuple:
    """Inverse of spherical_to_unit. Returns (theta, phi) with phi in [0, 2*pi)."""
    v = _as_unit(v)
    theta = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * np.pi)
    return theta, phi


@dataclass(frozen=True)
class SphericalGaussian:
    """One SG lobe: unit axis, scalar sharpness >= 0, RGB intensity >= 0."""

    axis: np.ndarray
    sharpness: float
    intensity: np.ndarray

    def __post_init__(self):
        axis = _frozen(self.axis, "axis", shape=(3,))
        # a component above 1 + UNIT_TOL fails anyway and could overflow the squares
        if np.any(np.abs(axis) > 1.0 + UNIT_TOL) or abs(np.sqrt(_dot(axis, axis)) - 1.0) > UNIT_TOL:
            raise ValueError("axis must be unit length")
        sharp = float(_frozen(self.sharpness, "sharpness", lo=0.0, shape=()))
        inten = _frozen(self.intensity, "intensity", lo=0.0, shape=(3,))
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "sharpness", sharp)
        object.__setattr__(self, "intensity", inten)


@dataclass(frozen=True)
class SgEnvironment:
    """A mixture of S >= 1 lobes with optional per-pixel visibility.

    visibility, when present, has shape (..., S) and is clamped to [0, 1]
    at construction. The leading axes index pixels; eval_mixture selects a
    pixel's factors with a plain numpy index.

    packed is the read-only (S, 7) lobe array built at construction, one
    row per lobe with columns ax ay az sharpness ir ig ib.
    """

    lobes: tuple
    visibility: Optional[np.ndarray] = None
    packed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lobes = tuple(self.lobes)
        if len(lobes) < 1:
            raise ValueError("environment needs at least one lobe")
        for lobe in lobes:
            if not isinstance(lobe, SphericalGaussian):
                raise TypeError("lobes must be SphericalGaussian instances")
        object.__setattr__(self, "lobes", lobes)
        packed = _frozen([[*g.axis, g.sharpness, *g.intensity] for g in lobes], "lobes")
        object.__setattr__(self, "packed", packed)
        if self.visibility is not None:
            vis = _frozen(self.visibility, "visibility")
            if vis.shape[-1:] != (len(lobes),):
                raise ValueError("visibility last axis must match lobe count")
            vis = np.clip(vis, 0.0, 1.0)
            vis.flags.writeable = False
            object.__setattr__(self, "visibility", vis)

    @property
    def num_lobes(self) -> int:
        return len(self.lobes)


def lobe_values(axis, sharpness, dirs) -> np.ndarray:
    """The unit-intensity lobe exp(sharpness * (dot(dirs, axis) - 1)).

    The one lobe kernel under mixtures, fitting and volume compositing.
    No validation: the axis need not be unit length (aggregated
    compositing). axis (..., 3), sharpness (...) and dirs (..., 3)
    broadcast over their leading axes, so dirs[..., None, :] against
    (S, 3) axes gives every lobe at every direction, (..., S); sharpness
    broadcasts into that shape. The dot product is _dot(dirs, axis).
    """
    g = _dot(np.asarray(dirs, dtype=np.float64), np.asarray(axis, dtype=np.float64))
    g -= 1.0
    g *= sharpness
    return np.exp(g, out=g) if g.ndim else np.exp(g)


def sg_radiance(intensity, sharpness, axis, dirs) -> np.ndarray:
    """Raw RGB lobe value, intensity * lobe_values(...), shape (..., 3)."""
    return np.asarray(intensity, dtype=np.float64) * lobe_values(axis, sharpness, dirs)[..., None]


def eval_sg(lobe: SphericalGaussian, direction) -> np.ndarray:
    """Evaluate one lobe at a unit 3-vector direction."""
    return sg_radiance(lobe.intensity, lobe.sharpness, lobe.axis, _as_unit(direction))


def _pixel_visibility(env: SgEnvironment, pixel=None):
    """The (S,) visibility row pixel selects (see eval_mixture), or None."""
    if env.visibility is None:
        if pixel is not None:
            raise ValueError("environment has no per-pixel visibility")
        return None
    if pixel is None:
        raise ValueError("pixel index required with per-pixel visibility")
    mu = np.asarray(env.visibility[pixel], dtype=np.float64)
    if mu.shape != (env.num_lobes,):
        raise ValueError("pixel index must select one visibility row")
    return mu


def eval_mixture(env: SgEnvironment, direction, pixel=None) -> np.ndarray:
    """Evaluate the mixture, applying pixel visibility when present.

    pixel indexes the leading axes of env.visibility (int or tuple); it is
    required when the environment carries visibility and must be omitted
    otherwise. Absent visibility means every factor is 1.
    """
    return mixture_radiance(env, _as_unit(direction), _pixel_visibility(env, pixel))


def mixture_radiance(env: SgEnvironment, dirs, mu=None) -> np.ndarray:
    """Vectorized mixture evaluation over dirs (..., 3) -> (..., 3).

    mu, when given, holds per-lobe visibility factors of shape (S,) or
    broadcastable against the leading axes as (..., S).
    """
    lobes = env.packed
    e = lobe_values(lobes[:, :3], lobes[:, 3], np.asarray(dirs, dtype=np.float64)[..., None, :])
    if mu is not None:
        e = e * mu
    return e @ lobes[:, 4:7]


def integrate_sg_sphere(lobe: SphericalGaussian) -> np.ndarray:
    """Closed-form integral of the lobe over the full sphere, per channel.

    integral = intensity * 2*pi * (1 - exp(-2*sharpness)) / sharpness,
    with the sharpness -> 0 limit 4*pi * intensity.
    """
    lam = lobe.sharpness
    if lam == 0.0:
        energy = 4.0 * np.pi
    else:
        # -expm1(-2*lam) = 1 - exp(-2*lam), stable for small lam
        energy = 2.0 * np.pi * (-np.expm1(-2.0 * lam)) / lam
    return lobe.intensity * energy


def _equal_area_grid(resolution, lo):
    """Equal-solid-angle grid over cos(theta) in [lo, 1]: the sphere at -1, hemisphere at 0.

    resolution (n_lat, n_lon) places M = n_lat * n_lon cell midpoints, uniform
    in u = cos(theta) and in phi: node (i, j) is (st_i cos phi_j, st_i sin phi_j,
    u_i), and each cell subtends 2*pi * (1 - lo) / M. Returns the factors (st, u,
    cos phi, sin phi), the nodes as directions (M, 3), latitude-major, and weights (M,).
    """
    n_lat, n_lon = resolution
    if n_lat < 1 or n_lon < 1:
        raise ValueError("resolution must be positive")
    u = (np.arange(n_lat) + 0.5) / n_lat * (1.0 - lo) + lo
    phi = (np.arange(n_lon) + 0.5) / n_lon * 2.0 * np.pi
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    x, y = np.outer(st, cos_phi).ravel(), np.outer(st, sin_phi).ravel()
    dirs = np.stack([x, y, np.repeat(u, n_lon)], axis=-1)
    w = np.full(n_lat * n_lon, (1.0 - lo) * 2.0 * np.pi / (n_lat * n_lon))
    return (st, u, cos_phi, sin_phi), dirs, w


def sphere_grid(n_lat: int = 64, n_lon: int = 128):
    """Equal-solid-angle quadrature grid over the full sphere (see _equal_area_grid).

    Every cell subtends exactly 4*pi / (n_lat * n_lon). Returns
    (directions (N, 3), weights (N,)) with weights summing to 4*pi.
    """
    return _equal_area_grid((n_lat, n_lon), -1.0)[1:]
