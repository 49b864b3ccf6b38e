"""Array helpers every sglight module shares: the unit-vector check, frozen
constructor inputs and _dot, the one three-term dot product, which sums every
vector length. Imports only numpy, so multiview and aggregation load no SG code."""

from __future__ import annotations

import numpy as np

# tolerance for "unit vector" checks on stored axes and query directions
UNIT_TOL = 1e-6


def _as_unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != 3:
        raise ValueError(f"expected 3-vector(s), got shape {v.shape}")
    # .all(), not np.all: vsg-trace checks every ray; |v_i| > 1 + UNIT_TOL fails before squaring
    if not ((np.abs(v) <= 1.0 + UNIT_TOL).all()
            and (np.abs(np.sqrt(_dot(v, v)) - 1.0) <= UNIT_TOL).all()):
        raise ValueError("direction is not unit length")
    return v


def _frozen(value, name, lo=None, hi=None, shape=None) -> np.ndarray:
    """A read-only C-ordered float64 copy of value, of the given shape, finite, in [lo, hi].

    The one helper constructors check and freeze their array inputs with;
    writing to the caller's array afterwards cannot reach the copy.
    """
    a = np.array(value, dtype=np.float64, order="C")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if (lo is not None and np.any(a < lo)) or (hi is not None and np.any(a > hi)):
        bound = f"be >= {lo:g}" if hi is None else f"lie in [{lo:g}, {hi:g}]"
        raise ValueError(f"{name} must {bound}")
    a.flags.writeable = False
    return a


def _dot(a, b) -> np.ndarray:
    """a . b over the last axis of two arrays as (a0*b0 + a2*b2) + a1*b1 at any strides, so
    one vector and a batch round alike: sglight's one three-term dot, and no host BLAS."""
    # one named array updated in place: chunk-sized temporaries are too small for numpy to elide
    g = a[..., 0] * b[..., 0]
    g += a[..., 2] * b[..., 2]
    g += a[..., 1] * b[..., 1]
    return g
