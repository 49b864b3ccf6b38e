"""Lobe fitting: gradient oracle, recovery, trace discipline, visibility."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, lsq_linear

from sglight import sgfit
from sglight.envmap import EnvironmentMap, decode_env, grid_directions, solid_angle_weights
from sglight.sg import (
    SgEnvironment,
    SphericalGaussian,
    lobe_values,
    normalize,
    spherical_to_unit,
    unit_to_spherical,
)
from sglight.sgfit import (
    FitResult,
    _box_lsq,
    _grid,
    _normal_equations,
    _objective_parts,
    _workspace,
    fit_objective,
    fit_sg,
    fit_visibility,
    sg_gradients,
)


def lobe_value(intensity, sharpness, theta, phi, l):
    axis = np.array([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])
    return intensity * np.exp(sharpness * (l @ axis - 1.0))


def fd_gradients(lobe, l, h=1e-5):
    """Central-difference oracle for sg_gradients."""
    theta, phi = unit_to_spherical(lobe.axis)
    eta = lobe.intensity
    lam = lobe.sharpness
    d_eta = (
        lobe_value(eta[0] + h, lam, theta, phi, l)
        - lobe_value(eta[0] - h, lam, theta, phi, l)
    ) / (2 * h)
    d_lam = (
        lobe_value(eta, lam + h, theta, phi, l)
        - lobe_value(eta, lam - h, theta, phi, l)
    ) / (2 * h)
    d_theta = (
        lobe_value(eta, lam, theta + h, phi, l)
        - lobe_value(eta, lam, theta - h, phi, l)
    ) / (2 * h)
    d_phi = (
        lobe_value(eta, lam, theta, phi + h, l)
        - lobe_value(eta, lam, theta, phi - h, l)
    ) / (2 * h)
    return d_eta, d_lam, d_theta, d_phi


def match_lobes(fitted: SgEnvironment, reference: SgEnvironment):
    """Hungarian pairing of lobes by axis angle; list of (fit, ref) pairs."""
    cost = np.arccos(np.clip(fitted.packed[:, :3] @ reference.packed[:, :3].T, -1.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def rel_err(a, b, floor=1e-8):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), floor))


class TestGradients:
    def test_against_finite_differences(self):
        """Analytic partials match the central-difference oracle."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            axis = normalize(rng.normal(size=3))
            lobe = SphericalGaussian(
                axis, rng.uniform(0.1, 40.0), rng.uniform(0.05, 3.0, size=3)
            )
            l = normalize(rng.normal(size=3))
            g = sg_gradients(lobe, l)
            d_eta, d_lam, d_theta, d_phi = fd_gradients(lobe, l)
            worst = max(
                worst,
                rel_err(g["intensity"], d_eta),
                rel_err(g["sharpness"], d_lam),
                rel_err(g["theta"], d_theta),
                rel_err(g["phi"], d_phi),
            )
        assert worst <= 1e-4

    def test_intensity_partial_independent_of_intensity(self):
        axis = normalize([0.3, -0.5, 0.8])
        l = normalize([0.1, 0.9, 0.2])
        dim = SphericalGaussian(axis, 4.0, [0.1, 0.1, 0.1])
        bright = SphericalGaussian(axis, 4.0, [9.0, 9.0, 9.0])
        assert sg_gradients(dim, l)["intensity"] == sg_gradients(
            bright, l
        )["intensity"]

    def test_peak_axis_partials_vanish(self):
        """At l = axis the value is maximal over the axis angles."""
        axis = normalize([0.3, 0.4, 0.9])
        lobe = SphericalGaussian(axis, 6.0, [1.0, 1.0, 1.0])
        g = sg_gradients(lobe, axis)
        np.testing.assert_allclose(g["theta"], 0.0, atol=1e-12)
        np.testing.assert_allclose(g["phi"], 0.0, atol=1e-12)

    def test_within_a_few_eps_of_the_blas_dots(self):
        """1000 random lobes and directions against the partials with their
        dot products summed in a second fixed order, (l0*x0 + l1*x1) + l2*x2,
        where sglight once took BLAS `@`. Both dots lie within
        gamma_3 * sum_i |l_i x_i| of the exact one (see test_sg's TestDot),
        so each field moves by at most 4 eps of its scale
        |factor| * (sum_i |l_i x_i| + 1) (measured: 1.5 eps); the intensity
        partial, which lobe_values gives, is unchanged. The second order is
        written here, not taken from BLAS, whose kernel may sum in _dot's own
        order, so the premise that the two sums round differently holds on
        any CPU."""
        def dot(a, b):
            return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]

        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(8)
        moved = 0
        for _ in range(1000):
            lobe = SphericalGaussian(normalize(rng.normal(size=3)), rng.uniform(0.0, 60.0),
                                     rng.uniform(0.0, 3.0, size=3))
            l = normalize(rng.normal(size=3))
            got = sg_gradients(lobe, l)
            d_theta, d_phi = sgfit._axis_partials(*unit_to_spherical(lobe.axis))
            e = float(lobe_values(lobe.axis, lobe.sharpness, l))
            d_axis = lobe.sharpness * lobe.intensity * e
            other = {"sharpness": lobe.intensity * (dot(l, lobe.axis) - 1.0) * e,
                     "theta": d_axis * dot(l, d_theta), "phi": d_axis * dot(l, d_phi)}
            assert got["intensity"] == e
            for key, factor, x in (("sharpness", lobe.intensity * e, lobe.axis),
                                   ("theta", d_axis, d_theta), ("phi", d_axis, d_phi)):
                scale = np.abs(factor) * (np.sum(np.abs(l * x)) + 1.0)
                assert np.all(np.abs(got[key] - other[key]) <= 4 * eps * scale), key
                moved += int(np.any(got[key] != other[key]))
        assert moved > 0  # the two sums do round differently

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (1, 1, 3)])
    def test_batched_direction_rejected(self, shape):
        """The partials are for one direction; a batch of unit directions
        is a ValueError that names its shape."""
        lobe = SphericalGaussian(normalize([0.3, 0.4, 0.9]), 6.0, [1.0, 1.0, 1.0])
        dirs = np.broadcast_to(normalize([0.0, 0.6, 0.8]), shape)
        with pytest.raises(ValueError, match=re.escape(f"one 3-vector, got shape {shape}")):
            sg_gradients(lobe, dirs)


def random_params(rng, s):
    """A parameter matrix (s, 6) away from any degenerate configuration."""
    return np.column_stack([
        np.log(rng.uniform(0.2, 3.0, size=(s, 3))),
        np.log(rng.uniform(1.0, 30.0, size=s)),
        rng.uniform(0.2, 2.9, size=s),
        rng.uniform(0.0, 2.0 * np.pi, size=s),
    ])


def dense_jacobian(p, dirs, pred, sqrt_w):
    """The residual Jacobian (N*3, S*6), column by column, for reference."""
    n, s = dirs.shape[0], p.shape[0]
    jac = np.zeros((n, 3, s, 6))
    for j in range(s):
        intensity, sharp = np.exp(p[j, 0:3]), np.exp(p[j, 3])
        theta, phi = p[j, 4], p[j, 5]
        axis = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.cos(theta)])
        d_theta = np.array([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi),
                            -np.sin(theta)])
        d_phi = np.array([-np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), 0.0])
        value = np.exp(sharp * (dirs @ axis - 1.0))[:, None] * intensity  # (N, 3)
        for c in range(3):
            jac[:, c, j, c] = value[:, c]
        for k, slope in enumerate((dirs @ axis - 1.0, dirs @ d_theta, dirs @ d_phi), 3):
            jac[:, :, j, k] = value * (sharp * slope)[:, None]
    jac *= (sqrt_w[:, None] / (1.0 + pred))[:, :, None, None]
    return jac.reshape(n * 3, s * 6)


def ten_lobe_map(rows):
    """A fixed 10-lobe environment map, rows x 2 rows."""
    rng = np.random.default_rng(10)
    lobes = tuple(
        SphericalGaussian(normalize(rng.normal(size=3)), rng.uniform(5.0, 60.0),
                          rng.uniform(0.2, 3.0, size=3))
        for _ in range(10)
    )
    return decode_env(SgEnvironment(lobes), rows=rows, cols=2 * rows)


def objective(p, dirs, target, sqrt_w):
    """Residuals and prediction, with the lobe values in a fresh workspace."""
    work = _workspace(dirs.shape[0], p.shape[0])
    return (*_objective_parts(p, dirs, np.log1p(target), sqrt_w, work[0]), work)


def fresh_normal_equations(p, dirs, pred, sqrt_w, r):
    """The normal equations built from scratch, evaluating the lobes and
    allocating every array on the call, as fit_sg did before it reused the
    objective's lobe values and one workspace per fit."""
    n, s = dirs.shape[0], p.shape[0]
    sharp = np.exp(p[:, 3])
    axis = spherical_to_unit(p[:, 4], p[:, 5])
    st, ct, sp, cp = np.sin(p[:, 4]), np.cos(p[:, 4]), np.sin(p[:, 5]), np.cos(p[:, 5])
    d_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    d_phi = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
    block = np.empty((n, s, 4))
    block[..., 0] = lobe_values(axis, sharp, dirs[:, None, :])
    slopes = (dirs @ axis.T - 1.0, dirs @ d_theta.T, dirs @ d_phi.T)
    for k, slope in enumerate(slopes, start=1):
        np.multiply(block[..., 0], sharp * slope, out=block[..., k])
    block = block.reshape(n, s * 4)
    chain = sqrt_w[:, None] / (1.0 + pred)
    h, g = np.zeros((s * 6, s * 6)), np.zeros(s * 6)
    for c in range(3):
        jac_c = block * chain[:, c, None]
        scale = np.repeat(np.exp(p[:, c]), 4)
        cols = (6 * np.arange(s)[:, None] + (c, 3, 4, 5)).reshape(-1)
        h[np.ix_(cols, cols)] += (jac_c.T @ jac_c) * np.outer(scale, scale)
        g[cols] += (jac_c.T @ r[c::3]) * scale
    return h, g


class TestJacobian:
    def test_against_finite_differences(self):
        """The fit's normal equations match those of central differences."""
        rng = np.random.default_rng(8)
        p = random_params(rng, 3)
        dirs, sqrt_w = _grid(8, 16)
        target = rng.uniform(0.0, 2.0, size=dirs.shape)
        r, pred, work = objective(p, dirs, target, sqrt_w)
        h_mat, g = _normal_equations(p, dirs, pred, sqrt_w, r, work)
        assert h_mat.shape == (p.size, p.size) and g.shape == (p.size,)
        h = 1e-6
        fd = np.zeros((r.size, p.size))
        for k in range(p.size):
            step = np.zeros_like(p)
            step.flat[k] = h
            plus, _, _ = objective(p + step, dirs, target, sqrt_w)
            minus, _, _ = objective(p - step, dirs, target, sqrt_w)
            fd[:, k] = (plus - minus) / (2 * h)
        assert np.max(np.abs(h_mat - fd.T @ fd)) <= 1e-8 * np.max(np.abs(h_mat))
        assert np.max(np.abs(g - fd.T @ r)) <= 1e-8 * np.max(np.abs(g))

    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_equals_dense_products(self, s):
        """By-channel H and g equal J^T J and J^T r of the dense Jacobian."""
        rng = np.random.default_rng(20 + s)
        p = random_params(rng, s)
        dirs, sqrt_w = _grid(12, 24)
        target = rng.uniform(0.0, 2.0, size=dirs.shape)
        r, pred, work = objective(p, dirs, target, sqrt_w)
        jac = dense_jacobian(p, dirs, pred, sqrt_w)
        h_mat, g = _normal_equations(p, dirs, pred, sqrt_w, r, work)
        h_ref, g_ref = jac.T @ jac, jac.T @ r
        assert np.max(np.abs(h_mat - h_ref)) <= 1e-14 * np.max(np.abs(h_ref))
        assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))

    def test_fit_trajectory_kept(self):
        """A 4-lobe fit of a fixed 10-lobe map keeps the iteration count and
        the loss it had with the dense Jacobian."""
        res = fit_sg(ten_lobe_map(16), num_lobes=4)
        assert res.converged and res.iterations == 24
        np.testing.assert_allclose(res.final_loss, 0.028862063916864203, rtol=1e-12)

    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_reused_values_and_workspace_equal_fresh_build(self, s):
        """Built from the lobe values the objective left in a workspace that
        held other iterates' data, H and g equal a fresh build bit for bit,
        and the objective equals its inline formula."""
        rng = np.random.default_rng(40 + s)
        dirs, sqrt_w = _grid(12, 24)
        target = rng.uniform(0.0, 2.0, size=dirs.shape)
        log_t = np.log1p(target)
        work = _workspace(dirs.shape[0], s)
        p_old, p_rejected, p = (random_params(rng, s) for _ in range(3))
        r_old, pred_old = _objective_parts(p_old, dirs, log_t, sqrt_w, work[0])
        _normal_equations(p_old, dirs, pred_old, sqrt_w, r_old, work)
        _objective_parts(p_rejected, dirs, log_t, sqrt_w, work[0])
        r, pred = _objective_parts(p, dirs, log_t, sqrt_w, work[0])
        axis = spherical_to_unit(p[:, 4], p[:, 5])
        pred_ref = lobe_values(axis, np.exp(p[:, 3]), dirs[:, None, :]) @ np.exp(p[:, 0:3])
        r_ref = ((np.log1p(pred_ref) - np.log1p(target)) * sqrt_w[:, None]).reshape(-1)
        assert np.array_equal(pred, pred_ref) and np.array_equal(r, r_ref)
        h_mat, g = _normal_equations(p, dirs, pred, sqrt_w, r, work)
        h_ref, g_ref = fresh_normal_equations(p, dirs, pred, sqrt_w, r)
        assert np.array_equal(h_mat, h_ref) and np.array_equal(g, g_ref)

    def test_fit_with_rejected_steps_builds_fresh_systems(self, monkeypatch):
        """In a fit that rejects steps, every system equals a fresh build:
        the workspace always holds the accepted iterate's lobe values."""
        rng = np.random.default_rng(0)
        lobes = tuple(
            SphericalGaussian(normalize(rng.normal(size=3)), rng.uniform(5.0, 60.0),
                              rng.uniform(0.2, 3.0, size=3))
            for _ in range(6)
        )
        data = decode_env(SgEnvironment(lobes), rows=8, cols=16).data
        target = EnvironmentMap(data * np.exp(rng.normal(0.0, 0.3, size=data.shape)))
        calls = {"objective": 0, "systems": 0}

        def objective_parts(*args):
            calls["objective"] += 1
            return _objective_parts(*args)

        def normal_equations(p, dirs, pred, sqrt_w, r, work):
            calls["systems"] += 1
            h_mat, g = _normal_equations(p, dirs, pred, sqrt_w, r, work)
            h_ref, g_ref = fresh_normal_equations(p, dirs, pred, sqrt_w, r)
            assert np.array_equal(h_mat, h_ref) and np.array_equal(g, g_ref)
            return h_mat, g

        monkeypatch.setattr(sgfit, "_objective_parts", objective_parts)
        monkeypatch.setattr(sgfit, "_normal_equations", normal_equations)
        res = fit_sg(target, num_lobes=4, max_iterations=40)
        assert calls["systems"] == res.iterations == 40
        assert calls["objective"] - 1 - res.iterations == 24  # rejected trials


class TestFitMemory:
    @pytest.mark.parametrize("rows, before", [(64, 6_730_849), (128, 26_587_958)])
    def test_peak_no_higher_than_per_iteration_build(self, rows, before):
        """Holding the workspace for the whole fit raises its tracemalloc
        peak no higher than building every array on each iteration did
        (before: that build's peak on this fit, in bytes)."""
        target = ten_lobe_map(rows)
        tracemalloc.start()
        try:
            fit_sg(target, num_lobes=8, max_iterations=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= before


class TestObjective:
    def test_zero_channel_scores_exactly_zero(self):
        """A mixture scored on its own decoding is exactly 0, zero channels too."""
        env = SgEnvironment((
            SphericalGaussian(normalize([0.2, -0.4, 0.9]), 7.0, [1.5, 0.0, 0.4]),
            SphericalGaussian(normalize([-0.8, 0.1, 0.3]), 3.0, [0.2, 0.0, 2.0]),
        ))
        assert fit_objective(env, decode_env(env, 16, 32)) == 0.0


def five_lobe_map():
    """A 22x44 float32 map of five random lobes, which seven lobes overfit."""
    rng = np.random.default_rng(1)
    lobes = tuple(
        SphericalGaussian(normalize(rng.normal(size=3)), rng.uniform(1.0, 80.0),
                          rng.uniform(0.0, 3.0, size=3))
        for _ in range(5)
    )
    return decode_env(SgEnvironment(lobes), rows=22, cols=44).data.astype(np.float32)


class TestFitRecovery:
    def test_single_lobe(self):
        """Fitting a rendered single lobe recovers its parameters."""
        true = SphericalGaussian(
            normalize([0.4, -0.2, 0.89]), 14.0, [1.3, 0.7, 0.5]
        )
        target = decode_env(SgEnvironment((true,)), rows=16, cols=32)
        res = fit_sg(target, num_lobes=1)
        fit = res.environment.lobes[0]
        angle = np.degrees(
            np.arccos(np.clip(fit.axis @ true.axis, -1.0, 1.0))
        )
        assert angle <= 1.0
        assert np.max(np.abs(np.log(fit.intensity) - np.log(true.intensity))) <= 1e-2
        assert abs(np.log(fit.sharpness) - np.log(true.sharpness)) <= 1e-2
        assert res.iterations <= 200
        assert res.converged

    def test_trace_monotone(self):
        true = SphericalGaussian(normalize([0.1, 0.8, 0.5]), 8.0,
                                 [2.0, 1.0, 0.4])
        target = decode_env(SgEnvironment((true,)), rows=16, cols=32)
        res = fit_sg(target, num_lobes=1)
        trace = np.array(res.loss_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert trace[0] > trace[-1]
        np.testing.assert_allclose(trace[-1], res.final_loss, rtol=1e-12)

    def test_final_loss_matches_objective(self):
        true = SphericalGaussian(normalize([0.5, 0.5, 0.7]), 5.0,
                                 [1.0, 1.0, 1.0])
        target = decode_env(SgEnvironment((true,)), rows=8, cols=16)
        res = fit_sg(target, num_lobes=1)
        np.testing.assert_allclose(
            fit_objective(res.environment, target), res.final_loss,
            rtol=1e-10,
        )

    def test_deterministic(self):
        true = SphericalGaussian(normalize([0.2, 0.3, 0.9]), 11.0,
                                 [0.8, 1.2, 0.6])
        target = decode_env(SgEnvironment((true,)), rows=8, cols=16)
        a = fit_sg(target, num_lobes=1)
        b = fit_sg(target, num_lobes=1)
        assert a.loss_trace == b.loss_trace
        np.testing.assert_array_equal(
            a.environment.lobes[0].axis, b.environment.lobes[0].axis
        )

    def test_singular_solve_retries_with_grown_damping(self, monkeypatch):
        """A LinAlgError from the damped solve grows the damping by
        DAMPING_GROWTH and retries: one raised on the first solve gives the
        fit that starts from DAMPING_INIT * 4, bit for bit."""
        target = decode_env(SgEnvironment((SphericalGaussian(
            normalize([0.3, -0.1, 0.9]), 9.0, [1.1, 0.6, 0.9]),)), rows=8, cols=16)
        solve = np.linalg.solve
        raised = []

        def solve_once_singular(a, b):
            if not raised:
                raised.append(True)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_once_singular)
        retried = fit_sg(target, num_lobes=2, max_iterations=20)
        monkeypatch.undo()
        assert raised
        monkeypatch.setattr(sgfit, "DAMPING_INIT", 4e-3)
        grown = fit_sg(target, num_lobes=2, max_iterations=20)
        assert retried.loss_trace == grown.loss_trace and retried.iterations == grown.iterations
        assert retried.final_loss == grown.final_loss and retried.converged == grown.converged
        for a, b in zip(retried.environment.lobes, grown.environment.lobes, strict=True):
            assert np.array_equal(a.axis, b.axis) and a.sharpness == b.sharpness
            assert np.array_equal(a.intensity, b.intensity)

    def test_singular_solves_alone_stop_at_the_damping_bound(self, monkeypatch):
        """When every damped solve is singular, each is a rejected trial: the
        damping grows from DAMPING_INIT = 1e-3 by DAMPING_GROWTH = 4 until it
        passes DAMPING_MAX = 1e14 (1e-3 * 4^28 = 7.2e13, so 29 solves), and
        the fit returns its initial lobes as a stationary point."""
        target = decode_env(SgEnvironment((SphericalGaussian(
            normalize([0.3, -0.1, 0.9]), 9.0, [1.1, 0.6, 0.9]),)), rows=8, cols=16)
        solves = []

        def singular(a, b):
            solves.append(b)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        res = fit_sg(target, num_lobes=2, max_iterations=20)
        monkeypatch.undo()
        assert len(solves) == 29
        assert res.converged and res.iterations == 0
        assert res.loss_trace == (res.final_loss,)
        assert res.final_loss == fit_sg(target, num_lobes=2, max_iterations=1).loss_trace[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fit_sg(EnvironmentMap(np.ones((4, 8, 3))), num_lobes=0)

    def test_surplus_lobes_stay_finite_without_warning(self):
        """Seven lobes on a five-lobe map: LM trials that drive a surplus
        lobe's log sharpness toward exp's overflow are rejected like a
        non-finite loss, so the fit ends at finite lobes and converges."""
        target = EnvironmentMap(five_lobe_map())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_sg(target, num_lobes=7, max_iterations=30)
        packed = res.environment.packed
        assert np.all(np.isfinite(packed)) and np.all(np.log(packed[:, 3]) < sgfit.LOG_MAX)
        assert res.converged and np.isfinite(res.final_loss)
        assert np.all(np.diff(res.loss_trace) <= 0.0)


class TestMatching:
    def test_recovers_permutation(self):
        rng = np.random.default_rng(42)
        axes = [normalize(v) for v in rng.normal(size=(3, 3))]
        lobes = tuple(
            SphericalGaussian(a, 10.0, [1.0, 1.0, 1.0]) for a in axes
        )
        ref = SgEnvironment(lobes)
        shuffled = SgEnvironment((lobes[2], lobes[0], lobes[1]))
        pairs = match_lobes(shuffled, ref)
        assert sorted(pairs) == [(0, 2), (1, 0), (2, 1)]


class TestVisibility:
    def test_recovers_attenuation(self):
        """Per-pixel factors used to synthesize maps are recovered."""
        la = SphericalGaussian(normalize([0.0, 0.3, 1.0]), 12.0,
                               [1.0, 0.8, 0.6])
        lb = SphericalGaussian(normalize([0.9, -0.2, -0.1]), 9.0,
                               [0.5, 0.7, 1.1])
        env = SgEnvironment((la, lb))
        rows, cols = 8, 16
        dirs = grid_directions(rows, cols)
        mus = np.array([[0.3, 0.9], [1.0, 0.0], [0.55, 0.25]])
        targets = np.zeros((3, rows, cols, 3))
        for i, mu in enumerate(mus):
            for m, lobe in zip(mu, env.lobes):
                targets[i] += m * lobe.intensity * np.exp(
                    lobe.sharpness * (dirs @ lobe.axis - 1.0)
                )[..., None]
        out = fit_visibility(env, targets)
        np.testing.assert_allclose(out, mus, atol=1e-6)

    def test_clips_to_unit_interval(self):
        """A target brighter than the full mixture still yields mu <= 1."""
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 6.0, [1.0, 1.0, 1.0])
        env = SgEnvironment((lobe,))
        bright = 5.0 * decode_env(env, rows=8, cols=16).data
        out = fit_visibility(env, bright[None])
        assert out.shape == (1, 1)
        assert 0.0 <= out[0, 0] <= 1.0
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-9)


def visibility_problem(lobes, pixels, seed, rows=8, cols=16):
    """Noisy per-pixel targets of lobes, with factors drawn past both bounds,
    and the weighted basis (3N, S) and targets (pixels, 3N) of each pixel's
    least-squares problem, built from decode_env."""
    rng = np.random.default_rng(seed)
    decoded = np.stack([decode_env(SgEnvironment((lobe,)), rows, cols).data for lobe in lobes])
    mu = rng.uniform(-0.3, 1.3, size=(pixels, len(lobes)))
    targets = np.einsum("ps,sijc->pijc", mu, decoded)
    targets += rng.normal(scale=0.05, size=targets.shape)
    sqrt_w = np.sqrt(solid_angle_weights(rows, cols))[..., None]
    basis = (decoded * sqrt_w).reshape(len(lobes), -1).T
    return targets, basis, (targets * sqrt_w).reshape(pixels, -1)


def random_lobes(rng, s, spread):
    """s lobes with axes within spread of one random axis (per component)."""
    base = normalize(rng.normal(size=3))
    return [SphericalGaussian(normalize(base + spread * rng.uniform(-1.0, 1.0, size=3)),
                              rng.uniform(1.0, 40.0), rng.uniform(0.1, 3.0, size=3))
            for _ in range(s)]


class TestVisibilityOracle:
    """fit_visibility against scipy's lsq_linear, pixel by pixel."""

    def check(self, lobes, seed, pixels=8):
        targets, basis, rhs = visibility_problem(lobes, pixels, seed)
        got = fit_visibility(SgEnvironment(tuple(lobes)), targets)
        assert got.shape == (pixels, len(lobes))
        assert np.all((got >= 0.0) & (got <= 1.0))
        for x, b in zip(got, rhs):
            # KKT: zero gradient inside the box, pointing outward at a bound
            grad = basis.T @ (basis @ x - b)
            tol = 1e-12 * np.max(np.abs(basis.T @ b))
            assert np.all(np.abs(grad[(x > 0.0) & (x < 1.0)]) <= tol)
            assert np.all(grad[x == 0.0] >= -tol) and np.all(grad[x == 1.0] <= tol)
            ref = lsq_linear(basis, b, bounds=(0.0, 1.0), tol=1e-14).x
            objective = np.sum((basis @ x - b) ** 2)
            assert objective <= np.sum((basis @ ref - b) ** 2) * (1.0 + 1e-12)

    @pytest.mark.parametrize("s", range(1, 11))
    @pytest.mark.parametrize("spread", [2.0, 0.02], ids=["random", "near-collinear"])
    def test_kkt_and_objective(self, s, spread):
        self.check(random_lobes(np.random.default_rng(100 + s), s, spread), seed=s)

    @pytest.mark.parametrize("spread", [2.0, 0.02], ids=["random", "near-collinear"])
    def test_duplicate_and_dark_lobes(self, spread):
        """A repeated lobe and zero-intensity lobes leave singular Gram
        matrices; the solve still meets the oracle."""
        lobes = random_lobes(np.random.default_rng(7), 4, spread)
        dark = SphericalGaussian(lobes[1].axis, lobes[1].sharpness, [0.0, 0.0, 0.0])
        self.check([lobes[0], dark, lobes[0], *lobes[2:], dark], seed=3)

    def test_pass_cap_raises(self):
        """A problem the active set cannot settle, here a negative Gram
        matrix that frees and binds its variable forever, hits the cap."""
        with pytest.raises(ValueError, match="did not converge"):
            _box_lsq(np.array([[-1.0]]), np.array([[1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_targets(self, bad):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 6.0, [1.0, 1.0, 1.0])
        targets = np.ones((2, 8, 16, 3))
        targets[1, 3, 4, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_visibility(SgEnvironment((lobe,)), targets)
