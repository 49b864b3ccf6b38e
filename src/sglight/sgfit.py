"""Nonlinear least-squares fitting of SG mixtures to environment maps.

The objective is the solid-angle-weighted mean squared error in the
log domain (log(x + 1)) over the map's cell centers. Parameters per
lobe: log intensity (RGB), log sharpness, and the axis polar angles, so
positivity is built into the parameterization. Optimization is damped
Gauss-Newton (Levenberg-Marquardt) with a multiplicative damping
schedule; steps are only accepted when they lower the objective, so the
recorded loss trace is monotone. A singular damped solve is a rejected
trial like any other; an iteration that accepts no step with damping up
to the one bound DAMPING_MAX = 1e14 ends the fit. Initialization
greedily extracts peaks from the residual map (sharpness 10, intensity
at the peak value). The lobe count and the iteration cap are fit_sg's
only settings.

Per-pixel visibility factors for fixed lobes reduce to a box-constrained
linear least-squares problem per pixel, solved exactly in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import _as_unit, _dot, _frozen
from .envmap import EnvironmentMap, grid_directions, solid_angle_weights
from .sg import (
    SgEnvironment,
    SphericalGaussian,
    lobe_values,
    mixture_radiance,
    normalize,
    sg_radiance,
    spherical_to_unit,
    unit_to_spherical,
)

# floor applied to initial intensities before taking logs
LOG_FLOOR = 1e-8
# converged means: an accepted step dropped the objective by less than
# TOLERANCE (relative), or no step damped up to DAMPING_MAX could improve it
TOLERANCE = 1e-12
# the LM damping factor starts at DAMPING_INIT and multiplies by
# DAMPING_GROWTH after a rejected step, by DAMPING_SHRINK after an accepted one
DAMPING_INIT = 1e-3
DAMPING_GROWTH = 4.0
DAMPING_SHRINK = 0.25
DAMPING_MAX = 1e14
# a trial whose log intensity or log sharpness reaches this would overflow exp
LOG_MAX = float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class FitResult:
    environment: SgEnvironment
    final_loss: float
    iterations: int
    converged: bool
    loss_trace: tuple  # objective after each accepted step, monotone


def _axis_partials(theta, phi):
    """Partials of the axis spherical_to_unit(theta, phi) by theta and phi."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    d_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
    return d_theta, d_phi


def sg_gradients(lobe: SphericalGaussian, direction) -> dict:
    """Analytic partials of the lobe value G(l) per RGB channel.

    Returns a dict with:
      "intensity": scalar dG_c/d intensity_c = exp(s * (l.axis - 1)),
                   identical for every channel and independent of the
                   intensity itself (cross-channel partials are zero);
      "sharpness": (3,) dG/d sharpness = intensity * (l.axis - 1) * exp(...);
      "theta", "phi": (3,) partials through the axis angles.
    """
    l = _as_unit(direction)
    if l.shape != (3,):
        raise ValueError(f"direction must be one 3-vector, got shape {l.shape}")
    d_theta, d_phi = _axis_partials(*unit_to_spherical(lobe.axis))
    e = float(lobe_values(lobe.axis, lobe.sharpness, l))
    d_axis = lobe.sharpness * lobe.intensity * e  # common factor of axis partials
    return {
        "intensity": e,
        "sharpness": lobe.intensity * (float(_dot(l, lobe.axis)) - 1.0) * e,
        "theta": d_axis * float(_dot(l, d_theta)),
        "phi": d_axis * float(_dot(l, d_phi)),
    }


def _env_from_params(p: np.ndarray) -> SgEnvironment:
    lobes = []
    for row in p:
        axis = normalize(spherical_to_unit(row[4], row[5]))
        lobes.append(SphericalGaussian(axis, float(np.exp(row[3])), np.exp(row[0:3])))
    return SgEnvironment(tuple(lobes))


def _residuals(pred, log_target, sqrt_w):
    """Weighted log-domain residual vector (N*3,); objective is sum(r^2)."""
    return ((np.log1p(pred) - log_target) * sqrt_w[:, None]).reshape(-1)


def _objective_parts(p, dirs, log_target, sqrt_w, block):
    """Residual vector (N*3,) and prediction (N, 3) for parameters p (S, 6).

    log_target is log1p of the target (N, 3). The lobe values (N, S) under
    pred go into block[..., 0] of a _workspace, for _normal_equations.
    """
    values = lobe_values(spherical_to_unit(p[:, 4], p[:, 5]), np.exp(p[:, 3]), dirs[:, None, :])
    block[..., 0] = values
    pred = values @ np.exp(p[:, 0:3])
    return _residuals(pred, log_target, sqrt_w), pred


def _workspace(n, s):
    """One fit's buffers for _normal_equations: block, J_c, each channel's columns."""
    cols = [(6 * np.arange(s)[:, None] + (c, 3, 4, 5)).reshape(-1) for c in range(3)]
    return np.empty((n, s, 4)), np.empty((n, s * 4)), cols


def _normal_equations(p, dirs, pred, sqrt_w, r, work):
    """Gauss-Newton products (J^T J, J^T r), never forming J (N*3, S*6).

    Channel c's rows of J are one shared (N, S, 4) block of lobe values and
    exponent partials, scaled per row by the channel's chain-rule factor and
    per lobe by its intensity c, at columns (s, c), (s, 3), (s, 4), (s, 5).
    work is a _workspace whose block[..., 0] holds the lobe values that
    _objective_parts wrote for pred; the rest of it is overwritten.
    """
    block, jac_c, cols = work
    n, s = block.shape[:2]
    sharp = np.exp(p[:, 3])
    d_theta, d_phi = _axis_partials(p[:, 4], p[:, 5])
    # d/d log sharpness, theta, phi: the lobe value times the exponent's
    # partial, each slope in turn in J_c's first N*S entries
    slope = jac_c.reshape(-1)[: n * s].reshape(n, s)
    for k, v in enumerate((spherical_to_unit(p[:, 4], p[:, 5]), d_theta, d_phi), start=1):
        np.matmul(dirs, v.T, out=slope)
        slope -= k == 1  # the sharpness partial has l . axis - 1; x - 0 is x
        np.multiply(block[..., 0], np.multiply(slope, sharp, out=slope), out=block[..., k])
    block = block.reshape(n, s * 4)
    chain = sqrt_w[:, None] / (1.0 + pred)  # (N, 3), through log1p
    h, g = np.zeros((s * 6, s * 6)), np.zeros(s * 6)
    # one J_c for all channels and iterations: a fresh one per channel took the
    # build on a 64x128 map with S = 8 from 3.2 to 5 ms, mostly in page faults
    for c in range(3):
        np.multiply(block, chain[:, c, None], out=jac_c)
        scale = np.repeat(np.exp(p[:, c]), 4)
        h[np.ix_(cols[c], cols[c])] += (jac_c.T @ jac_c) * np.outer(scale, scale)
        g[cols[c]] += (jac_c.T @ r[c::3]) * scale
    return h, g


def _greedy_init(target: np.ndarray, dirs_grid: np.ndarray, num_lobes: int) -> np.ndarray:
    """Peak extraction: brightest residual cell seeds each lobe."""
    residual = target.copy()
    rows = []
    for _ in range(num_lobes):
        lum = residual.mean(axis=-1)
        idx = np.unravel_index(np.argmax(lum), lum.shape)
        axis = dirs_grid[idx]
        intensity = np.maximum(residual[idx], LOG_FLOOR)
        sharp = 10.0
        theta, phi = unit_to_spherical(axis)
        rows.append(
            np.concatenate([np.log(intensity), [np.log(sharp), theta, phi]])
        )
        residual = residual - sg_radiance(intensity, sharp, axis, dirs_grid)
    return np.stack(rows)


def _grid(rows: int, cols: int):
    """Flat cell directions (N, 3) and objective weights sqrt_w (N,)."""
    weights = solid_angle_weights(rows, cols)
    sqrt_w = np.sqrt(weights / (3.0 * weights.sum())).reshape(-1)
    return grid_directions(rows, cols).reshape(-1, 3), sqrt_w


def fit_sg(target: EnvironmentMap, *, num_lobes: int = 3, max_iterations: int = 200) -> FitResult:
    """Fit num_lobes lobes to the map in at most max_iterations damped Gauss-Newton steps.

    Deterministic. The returned trace holds the objective after every
    accepted step (the initial objective first) and never increases.
    A fit may have no more parameters than residuals (6 S <= 3 N for a map
    of N cells); memory is O(N S + S^2).
    """
    if num_lobes < 1:
        raise ValueError("num_lobes must be >= 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    cells = target.rows * target.cols
    if 6 * num_lobes > 3 * cells:  # more parameters than residuals
        raise ValueError(f"num_lobes must be <= {cells // 2} for a "
                         f"{target.rows}x{target.cols} map (6 parameters per lobe, "
                         f"3 residuals per cell), got {num_lobes}")
    dirs, sqrt_w = _grid(target.rows, target.cols)
    log_tgt = np.log1p(target.data.reshape(-1, 3))

    p = _greedy_init(target.data, dirs.reshape(target.data.shape), num_lobes)
    work = _workspace(dirs.shape[0], num_lobes)
    r, pred = _objective_parts(p, dirs, log_tgt, sqrt_w, work[0])
    # the sum of squares is numpy's own, not BLAS ddot, whose threads split
    # the sum and change its last bits with OPENBLAS_NUM_THREADS
    loss = float(np.add.reduce(r * r))
    trace = [loss]
    damping = DAMPING_INIT
    converged = False

    for _ in range(max_iterations):
        h, g = _normal_equations(p, dirs, pred, sqrt_w, r, work)
        diag = np.diag(h).copy()
        diag[diag <= 0.0] = 1e-12
        while damping <= DAMPING_MAX:  # damping escalation within one iteration
            damped = h.copy()  # the trial's one (6S, 6S) matrix besides h
            damped.flat[::len(damped) + 1] += damping * diag
            loss_try = np.inf  # rejected like a non-finite loss if singular or exp would overflow
            try:
                p_try = p + np.linalg.solve(damped, -g).reshape(p.shape)
            except np.linalg.LinAlgError:
                p_try = None
            if p_try is not None and p_try[:, :4].max() < LOG_MAX:
                # each trial leaves its lobe values in work; the accepted one is the last
                r_try, pred_try = _objective_parts(p_try, dirs, log_tgt, sqrt_w, work[0])
                loss_try = float(np.add.reduce(r_try * r_try))
            if np.isfinite(loss_try) and loss_try < loss:
                break
            damping *= DAMPING_GROWTH
        else:  # damping escalation exhausted: stationary point reached
            converged = True
            break
        rel_drop = (loss - loss_try) / max(loss, 1e-300)
        p, r, pred = p_try, r_try, pred_try
        loss = loss_try
        damping = max(damping * DAMPING_SHRINK, 1e-12)
        trace.append(loss)
        if rel_drop < TOLERANCE or loss == 0.0:
            converged = True
            break

    return FitResult(
        environment=_env_from_params(p),
        final_loss=loss,
        iterations=len(trace) - 1,
        converged=converged,
        loss_trace=tuple(trace),
    )


def fit_objective(env: SgEnvironment, target: EnvironmentMap) -> float:
    """The exact objective fit_sg minimizes, for external comparisons."""
    dirs, sqrt_w = _grid(target.rows, target.cols)
    r = _residuals(mixture_radiance(env, dirs), np.log1p(target.data.reshape(-1, 3)), sqrt_w)
    return float(np.add.reduce(r * r))


def _box_lsq(gram, rhs):
    """Row-wise argmin x.Gx/2 - c.x over [0, 1]^S for each row c of rhs (P, S).

    Bounded-variable least squares (Stark & Parker 1995), every row in lock
    step from all variables bound at 0: solve the free subsystem; step back to
    the first bound met outside the box, else free the most inward-pulled one.
    """
    p, s = rhs.shape
    x, free = np.zeros((p, s)), np.zeros((p, s), dtype=bool)
    for _ in range(10 * (s + 1)):
        a = np.where(free[:, :, None] & free[:, None, :], gram, np.eye(s))  # bound: identity
        b = np.where(free, rhs - np.where(free, 0.0, x) @ gram, x)
        z = np.where(free, np.linalg.solve(a, b[..., None])[..., 0], x)
        out = (z < 0.0) | (z > 1.0)
        stepped = out.any(axis=1, keepdims=True)
        reach = np.divide(np.where(z < 0.0, x, 1.0 - x), abs(z - x), np.ones((p, s)), where=out)
        step = reach.min(axis=1, keepdims=True)
        hit = out & (reach <= step)  # the first bound met binds its variable
        x = np.where(hit, z > 1.0, np.where(stepped, np.clip(x + step * (z - x), 0.0, 1.0), z))
        free &= ~hit
        # pull ahead of the gradient's rounding: a duplicate or dark lobe never frees
        tol = 1e-12 * (np.abs(rhs) + np.abs(x) @ np.abs(gram))
        pull = np.where(x > 0.0, 1.0, -1.0) * (x @ gram - rhs)
        pull[free | stepped | (pull <= tol)] = 0.0
        if not (stepped.any() or pull.any()):
            return x
        free[np.arange(p), pull.argmax(axis=1)] |= pull.max(axis=1) > 0.0
    raise ValueError("bounded least squares did not converge")


def fit_visibility(env: SgEnvironment, targets: np.ndarray) -> np.ndarray:
    """Per-pixel visibility factors for fixed lobes, each in [0, 1].

    targets has shape (..., rows, cols, 3): per-pixel environment maps.
    Solves min || sum_s mu_s * decode_s - target || per pixel with bounds
    0 <= mu <= 1 (solid-angle weighted, matching fit_sg's objective
    weighting in the linear domain), all pixels at once. Returns (..., S).
    """
    targets = _frozen(targets, "targets")
    if targets.ndim < 3 or targets.shape[-1] != 3:
        raise ValueError("targets must be (..., rows, cols, 3)")
    rows, cols = targets.shape[-3], targets.shape[-2]
    dirs = grid_directions(rows, cols).reshape(-1, 3)
    sqrt_w = np.sqrt(solid_angle_weights(rows, cols)).reshape(-1)
    lobes = env.packed
    # column s holds lobe s's weighted RGB values, rows ordered (cell, channel)
    e = lobe_values(lobes[:, :3], lobes[:, 3], dirs[:, None, :])
    basis = (e[:, None, :] * lobes[:, 4:7].T * sqrt_w[:, None, None]).reshape(-1, len(lobes))
    flat = (targets * sqrt_w.reshape(rows, cols, 1)).reshape(-1, basis.shape[0])
    return _box_lsq(basis.T @ basis, flat @ basis).reshape(targets.shape[:-3] + basis.shape[1:])
