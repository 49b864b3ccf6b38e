"""Masked image comparison metrics g1 through g6.

All reductions are means over unmasked entries. The binary mask has one
entry per pixel and broadcasts over channels. The scale-invariant
variants divide out a scalar fitted to the prediction: g3 reuses the
closed-form linear least-squares scale, g5 uses the scale optimal in the
log domain (seeded at the linear one), so adding the scale step can
never increase either metric. g5 searches log tau with Brent's bounded
minimizer (golden section with parabolic steps), ported into this module.
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


def _log_pair(pred, ref, mask):
    a, b, m = _pair(pred, ref, mask)
    if not (np.all(a[m] >= 0.0) and np.all(b[m] >= 0.0)):
        raise ValueError("log-domain metrics need nonnegative inputs")
    return a, b, m


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
    a, b, m = _pair(pred, ref, mask)
    if a.shape[-1] != 3:
        raise ValueError("inputs must be matching (..., 3) vector fields")
    if m.ndim != a.ndim - 1:
        raise ValueError("mask must have one entry per pixel")
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
    a, b, m = _log_pair(pred, ref, mask)
    return float(np.mean(((np.log1p(a) - np.log1p(b)) ** 2)[m]))


def _log_mse_at(log_tau: float, a_masked, log_b_masked) -> float:
    return float(np.mean((np.log1p(np.exp(log_tau) * a_masked) - log_b_masked) ** 2))


def _fminbound(func, lo: float, hi: float, xatol: float):
    """Minimize func on [lo, hi] by Brent's bounded method; (x, func(x)).

    Brent 1973, "Algorithms for Minimization without Derivatives", ch. 5,
    with the arithmetic of scipy's minimize_scalar(method="bounded") step
    for step and its cap of 500 evaluations, so both return the same bits.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    nfc = fulc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fnfc = ffulc = fx = func(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        # "not >" rather than "<=", so NaN bounds end the search as in scipy
        if num >= 500 or not np.abs(xf - xm) > tol2 - 0.5 * (b - a):
            return xf, fx
        parabolic = False
        if np.abs(e) > tol1:  # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            parabolic = np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
        if parabolic:
            rat = (p + 0.0) / q
            x = xf + rat
            if (x - a) < tol2 or (b - x) < tol2:  # too close to a bound
                rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        else:  # golden-section step into the larger part
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def g5_scaled_log_mse(pred, ref, mask) -> float:
    """g4 after fitting a scalar scale on pred, optimal in the log domain.

    The 1-D search starts from the linear lsq_scale solution when the masked
    prediction energy is positive; it and tau = 1 are also evaluated and the
    best kept, so the result never exceeds g4 (a zero prediction scores g4).
    """
    a, b, m = _log_pair(pred, ref, mask)
    am, log_b = a[m], np.log1p(b[m])
    candidates = [0.0]
    if np.sum(am * am) > 0.0 and (tau_lin := lsq_scale(a, b, m)) > 0.0:
        candidates.append(np.log(tau_lin))
    lo, hi = min(candidates) - 5.0, max(candidates) + 5.0
    _, fun = _fminbound(lambda t: _log_mse_at(t, am, log_b), lo, hi, xatol=1e-12)
    best = min(_log_mse_at(c, am, log_b) for c in candidates)
    return float(min(best, fun))


def g6_entropy(albedo) -> float:
    """Mean of -A log A for entries in (0, 1]."""
    a = np.asarray(albedo, dtype=np.float64)
    if not (np.all(a > 0.0) and np.all(a <= 1.0)):
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
