"""Equirectangular environment maps and the HDR transfer curve.

Maps are (rows, cols, 3) grids over polar angle theta uniform in [0, pi]
(row 0 nearest +z) and azimuth phi uniform in [0, 2*pi). Values are taken
at cell centers. decode_env rasterizes an SG mixture onto such a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sg import SgEnvironment, _frozen, _pixel_visibility, mixture_radiance, spherical_to_unit


@dataclass(frozen=True)
class HdrImage:
    """Linear-radiance image, (H, W, 3), finite and nonnegative."""

    data: np.ndarray

    def __post_init__(self):
        data = _frozen(self.data, "HdrImage data", lo=0.0)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValueError(f"HdrImage data must be (H, W, 3), got {data.shape}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class EnvironmentMap:
    """Equirectangular radiance grid, at least 2 rows and 4 columns."""

    data: np.ndarray

    def __post_init__(self):
        data = _frozen(self.data, "environment map", lo=0.0)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValueError(f"environment map must be (rows, cols, 3), got {data.shape}")
        if data.shape[0] < 2 or data.shape[1] < 4:
            raise ValueError("environment map needs >= 2 rows and >= 4 cols")
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def grid_directions(rows: int, cols: int) -> np.ndarray:
    """Cell-center unit directions, shape (rows, cols, 3)."""
    theta = (np.arange(rows) + 0.5) * np.pi / rows
    phi = (np.arange(cols) + 0.5) * 2.0 * np.pi / cols
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return spherical_to_unit(tt, pp)


def solid_angle_weights(rows: int, cols: int) -> np.ndarray:
    """Exact per-cell solid angles, shape (rows, cols), summing to 4*pi."""
    edges = np.arange(rows + 1) * np.pi / rows
    band = np.cos(edges[:-1]) - np.cos(edges[1:])  # per-row polar extent
    return np.repeat((band * 2.0 * np.pi / cols)[:, None], cols, axis=1)


def decode_env(
    env: SgEnvironment, rows: int = 16, cols: int = 32, pixel=None
) -> EnvironmentMap:
    """Rasterize the mixture at cell centers onto a rows x cols grid.

    pixel selects the visibility row when the environment is per-pixel,
    exactly as in eval_mixture.
    """
    mu = _pixel_visibility(env, pixel)
    return EnvironmentMap(mixture_radiance(env, grid_directions(rows, cols), mu))


def hdr_forward(x) -> np.ndarray:
    """Range compression ln(1 + x) for linear radiance x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0.0):
        raise ValueError("hdr_forward domain is x >= 0")
    return np.log1p(x)


def hdr_inverse(y) -> np.ndarray:
    """Inverse of hdr_forward: exp(y) - 1 for y >= 0."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(y >= 0.0):
        raise ValueError("hdr_inverse domain is y >= 0")
    return np.expm1(y)

