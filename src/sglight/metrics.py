"""Masked image comparison metrics g1 through g6.

All reductions are means over unmasked entries. The binary mask has one
entry per pixel and broadcasts over channels. The scale-invariant
variants divide out a scalar fitted to the prediction: g3 reuses the
closed-form linear least-squares scale, g5 uses the scale optimal in the
log domain (seeded at the linear one), so adding the scale step can
never increase either metric.
"""

from __future__ import annotations

import numpy as np

# slack accepted when clamping dot products into arccos domain
DOT_TOL = 1e-7


def _mask_for(values: np.ndarray, mask) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.shape != values.shape[: mask.ndim]:
        raise ValueError("mask must match the leading image shape")
    m = mask != 0
    if not np.any(m):
        raise ValueError("mask excludes every pixel")
    return m


def _pair(pred, ref, mask):
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("prediction and reference must share a shape")
    return a, b, _mask_for(a, mask)


def lsq_scale(pred, ref, mask) -> float:
    """Scalar tau minimizing ||(tau * pred - ref) * mask||^2.

    tau scales the prediction. Raises when the mask is empty or the
    masked prediction energy is zero.
    """
    a, b, m = _pair(pred, ref, mask)
    denom = float(np.sum((a * a)[m]))
    if denom == 0.0:
        raise ValueError("masked prediction energy is zero")
    return float(np.sum((a * b)[m]) / denom)


def g1_angular(pred, ref, mask) -> float:
    """Mean angle arccos(pred . ref) over unmasked pixels, unit inputs."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(ref, dtype=np.float64)
    if a.shape != b.shape or a.shape[-1] != 3:
        raise ValueError("inputs must be matching (..., 3) vector fields")
    mask = np.asarray(mask)
    if mask.shape != a.shape[:-1]:
        raise ValueError("mask must have one entry per pixel")
    m = mask != 0
    if not np.any(m):
        raise ValueError("mask excludes every pixel")
    dots = np.sum(a * b, axis=-1)[m]
    if np.any(np.abs(dots) > 1.0 + DOT_TOL):
        raise ValueError("dot products exceed unit range beyond tolerance")
    return float(np.mean(np.arccos(np.clip(dots, -1.0, 1.0))))


def g2_mse(pred, ref, mask) -> float:
    """Masked mean squared error."""
    a, b, m = _pair(pred, ref, mask)
    return float(np.mean(((a - b) ** 2)[m]))


def g3_scaled_mse(pred, ref, mask) -> float:
    """g2 after the linear least-squares scale is applied to pred."""
    tau = lsq_scale(pred, ref, mask)
    return g2_mse(np.asarray(pred, dtype=np.float64) * tau, ref, mask)


def g4_log_mse(pred, ref, mask) -> float:
    """Masked MSE in the log domain, log(x + 1)."""
    a, b, m = _pair(pred, ref, mask)
    if np.any(a[m] < 0.0) or np.any(b[m] < 0.0):
        raise ValueError("log-domain metrics need nonnegative inputs")
    return float(np.mean(((np.log1p(a) - np.log1p(b)) ** 2)[m]))


def _log_mse_at(log_tau: float, a, b, m) -> float:
    return float(np.mean(((np.log1p(np.exp(log_tau) * a) - np.log1p(b)) ** 2)[m]))


def g5_scaled_log_mse(pred, ref, mask) -> float:
    """g4 after fitting a scalar scale on pred, optimal in the log domain.

    The 1-D search starts from the linear lsq_scale solution; the linear
    scale and tau = 1 are also evaluated and the best kept, so the result
    never exceeds g4.
    """
    from scipy.optimize import minimize_scalar  # scipy costs ~0.5 s to import
    a, b, m = _pair(pred, ref, mask)
    if np.any(a[m] < 0.0) or np.any(b[m] < 0.0):
        raise ValueError("log-domain metrics need nonnegative inputs")
    denom = float(np.sum((a * a)[m]))
    if denom == 0.0:
        raise ValueError("masked prediction energy is zero")
    tau_lin = float(np.sum((a * b)[m]) / denom)
    candidates = [0.0]
    if tau_lin > 0.0:
        candidates.append(np.log(tau_lin))
    lo = min(candidates) - 5.0
    hi = max(candidates) + 5.0
    res = minimize_scalar(
        _log_mse_at,
        bounds=(lo, hi),
        args=(a, b, m),
        method="bounded",
        options={"xatol": 1e-12},
    )
    best = min(_log_mse_at(c, a, b, m) for c in candidates)
    return float(min(best, res.fun))


def g6_entropy(albedo) -> float:
    """Mean of -A log A for entries in (0, 1]."""
    a = np.asarray(albedo, dtype=np.float64)
    if np.any(a <= 0.0) or np.any(a > 1.0):
        raise ValueError("entropy domain is (0, 1]")
    return float(np.mean(-a * np.log(a)))


METRICS = {
    "g1": g1_angular,
    "g2": g2_mse,
    "g3": g3_scaled_mse,
    "g4": g4_log_mse,
    "g5": g5_scaled_log_mse,
    "g6": g6_entropy,
}
