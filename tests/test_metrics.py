"""Comparison metrics: hand cases, scale invariance, and orderings."""

import numpy as np
import pytest

from sglight.metrics import (
    METRICS,
    _fminbound,
    _log_mse_at,
    g1_angular,
    g2_mse,
    g3_scaled_mse,
    g4_log_mse,
    g5_scaled_log_mse,
    g6_entropy,
    lsq_scale,
)


def random_pair(rng, shape=(6, 6, 3)):
    pred = rng.uniform(0.0, 3.0, size=shape)
    ref = rng.uniform(0.0, 3.0, size=shape)
    mask = (rng.uniform(size=shape[:2]) < 0.8).astype(np.int64)
    mask.flat[0] = 1  # never empty
    return pred, ref, mask


class TestScale:
    def test_recovers_linear_scale(self):
        rng = np.random.default_rng(42)
        ref = rng.uniform(0.5, 2.0, size=(4, 4, 3))
        mask = np.ones((4, 4), dtype=np.int64)
        np.testing.assert_allclose(
            lsq_scale(ref / 3.0, ref, mask), 3.0, rtol=1e-12
        )

    def test_mask_excludes_pixels(self):
        """A wild value in a masked pixel cannot move the scale."""
        pred = np.ones((2, 2, 3))
        ref = 2.0 * np.ones((2, 2, 3))
        pred[0, 0] = 1e9
        mask = np.array([[0, 1], [1, 1]])
        np.testing.assert_allclose(lsq_scale(pred, ref, mask), 2.0)

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            lsq_scale(np.ones((2, 2, 3)), np.ones((2, 2, 3)),
                      np.zeros((2, 2)))

    def test_zero_energy_raises(self):
        with pytest.raises(ValueError):
            lsq_scale(np.zeros((2, 2, 3)), np.ones((2, 2, 3)),
                      np.ones((2, 2)))


class TestAngular:
    def test_identical_fields_zero(self):
        rng = np.random.default_rng(42)
        n = rng.normal(size=(4, 4, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        # self dot products land within an ulp of 1, arccos magnifies that
        assert g1_angular(n, n, np.ones((4, 4))) < 1e-7

    def test_hand_angle(self):
        a = np.zeros((1, 2, 3))
        b = np.zeros((1, 2, 3))
        a[0, :, 2] = 1.0  # +z
        b[0, 0] = [0.0, 0.0, 1.0]
        b[0, 1] = [1.0, 0.0, 0.0]  # 90 degrees off
        val = g1_angular(a, b, np.ones((1, 2)))
        np.testing.assert_allclose(val, np.pi / 4.0, rtol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=(3, 3, 3))
            a /= np.linalg.norm(a, axis=-1, keepdims=True)
            b = rng.normal(size=(3, 3, 3))
            b /= np.linalg.norm(b, axis=-1, keepdims=True)
            val = g1_angular(a, b, np.ones((3, 3)))
            assert 0.0 <= val <= np.pi

    def test_out_of_range_dot_rejected(self):
        a = np.full((1, 1, 3), 2.0)
        with pytest.raises(ValueError):
            g1_angular(a, a, np.ones((1, 1)))


class TestMse:
    def test_hand_case(self):
        pred = np.array([[[1.0, 2.0, 3.0]]])
        ref = np.array([[[0.0, 0.0, 0.0]]])
        np.testing.assert_allclose(
            g2_mse(pred, ref, np.ones((1, 1))), (1.0 + 4.0 + 9.0) / 3.0
        )

    def test_mask_broadcasts_over_channels(self):
        pred = np.zeros((2, 1, 3))
        ref = np.zeros((2, 1, 3))
        pred[1, 0] = 100.0
        mask = np.array([[1], [0]])
        assert g2_mse(pred, ref, mask) == 0.0


class TestScaledMse:
    def test_scaled_copy_is_zero(self):
        """g3(c * B, B) = 0: the fitted scale undoes c exactly."""
        rng = np.random.default_rng(42)
        ref = rng.uniform(0.1, 2.0, size=(5, 5, 3))
        mask = np.ones((5, 5), dtype=np.int64)
        for c in (0.1, 1.0, 7.0):
            val = g3_scaled_mse(c * ref, ref, mask)
            assert val < 1e-20

    def test_never_exceeds_g2(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pred, ref, mask = random_pair(rng)
            assert g3_scaled_mse(pred, ref, mask) <= g2_mse(
                pred, ref, mask
            ) + 1e-15


class TestLogMse:
    def test_log_domain_hand_case(self):
        pred = np.full((1, 1, 3), np.e - 1.0)
        ref = np.zeros((1, 1, 3))
        np.testing.assert_allclose(
            g4_log_mse(pred, ref, np.ones((1, 1))), 1.0, rtol=1e-12
        )

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            g4_log_mse(-np.ones((1, 1, 3)), np.ones((1, 1, 3)),
                       np.ones((1, 1)))

    def test_g5_of_scaled_copy_is_tiny(self):
        rng = np.random.default_rng(42)
        ref = rng.uniform(0.1, 2.0, size=(5, 5, 3))
        mask = np.ones((5, 5), dtype=np.int64)
        for c in (0.1, 1.0, 7.0):
            assert g5_scaled_log_mse(c * ref, ref, mask) < 1e-15

    def test_g5_never_exceeds_g4(self):
        """tau = 1 is always a candidate, so fitting cannot hurt."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            pred, ref, mask = random_pair(rng)
            g4 = g4_log_mse(pred, ref, mask)
            g5 = g5_scaled_log_mse(pred, ref, mask)
            assert g5 <= g4 + 1e-15

    def test_g5_beats_linear_scale_in_log_domain(self):
        """The log-domain search can only improve on plugging the linear
        scale into g4."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            pred, ref, mask = random_pair(rng)
            from sglight.metrics import lsq_scale as ls

            tau = ls(pred, ref, mask)
            if tau <= 0.0:
                continue
            at_linear = g4_log_mse(pred * tau, ref, mask)
            assert g5_scaled_log_mse(pred, ref, mask) <= at_linear + 1e-15

    @pytest.mark.parametrize("mask", [None, "pixels", "entries"])
    def test_g5_of_zero_prediction_is_g4(self, mask):
        """Every scale leaves a zero prediction zero, so g5 is g4 exactly;
        g3, which needs the linear scale, still raises."""
        rng = np.random.default_rng(5)
        ref = rng.uniform(0.0, 3.0, size=(6, 7, 3))
        pred = np.zeros_like(ref)
        m = {None: np.ones((6, 7)), "pixels": rng.uniform(size=(6, 7)) < 0.5,
             "entries": rng.uniform(size=(6, 7, 3)) < 0.5}[mask]
        m.flat[0] = True
        assert g5_scaled_log_mse(pred, ref, m) == g4_log_mse(pred, ref, m)
        with pytest.raises(ValueError, match="energy is zero"):
            g3_scaled_mse(pred, ref, m)

    def test_g5_zero_only_under_the_mask(self):
        """A prediction that is zero only where the mask keeps scores g4 too."""
        ref = np.full((2, 2, 3), 0.5)
        pred = np.zeros((2, 2, 3))
        pred[1, 1] = 9.0
        mask = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert g5_scaled_log_mse(pred, ref, mask) == g4_log_mse(pred, ref, mask)


class TestBoundedMinimizer:
    """_fminbound against the scipy routine it reproduces."""

    def test_masked_objective_equals_inline_formula(self):
        """The search's objective on the masked prediction and log1p(ref),
        taken once, equals the formula over the whole images, masked after,
        bit for bit."""
        for seed in range(60):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(1, 40))
            ref = rng.uniform(0.0, 3.0, size=(n, n + 1, 3))
            pred = ref * rng.uniform(0.1, 5.0) * np.exp(rng.normal(0.0, 0.5, size=ref.shape))
            shape = (n, n + 1) if seed % 2 else ref.shape
            m = rng.uniform(size=shape) < rng.uniform(0.05, 1.0)
            m.flat[0] = True
            a, log_b = pred[m], np.log1p(ref[m])
            for t in rng.uniform(-6.0, 6.0, size=5):
                inline = np.mean(((np.log1p(np.exp(t) * pred) - np.log1p(ref)) ** 2)[m])
                assert _log_mse_at(t, a, log_b) == float(inline), seed

    def test_g5_equals_search_over_inline_formula(self):
        """g5 returns the float the same search over the inline formula does."""
        for seed in range(40):
            rng = np.random.default_rng(400 + seed)
            pred, ref, mask = random_pair(rng, (int(rng.integers(1, 20)), 9, 3))
            m = mask != 0

            def inline(t):
                return float(np.mean(((np.log1p(np.exp(t) * pred) - np.log1p(ref)) ** 2)[m]))

            candidates = [0.0]
            if lsq_scale(pred, ref, mask) > 0.0:
                candidates.append(np.log(lsq_scale(pred, ref, mask)))
            lo, hi = min(candidates) - 5.0, max(candidates) + 5.0
            _, fun = _fminbound(inline, lo, hi, 1e-12)
            expected = float(min(min(inline(c) for c in candidates), fun))
            assert g5_scaled_log_mse(pred, ref, mask) == expected, seed

    def test_equals_scipy_bounded_bit_for_bit(self):
        from scipy.optimize import minimize_scalar

        for seed in range(120):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            ref = rng.uniform(0.0, 3.0, size=(n, n, 3))
            noise = np.exp(rng.normal(0.0, rng.uniform(0.01, 1.0), size=ref.shape))
            pred = ref * rng.uniform(0.1, 5.0) * noise
            mask = rng.uniform(size=(n, n)) < 0.7
            mask.flat[0] = True
            m = np.broadcast_to(mask[..., None], pred.shape)
            mid = rng.uniform(-3.0, 3.0)
            lo, hi = mid - rng.uniform(0.1, 6.0), mid + rng.uniform(0.1, 6.0)
            a, log_b = pred[m], np.log1p(ref[m])
            x, fun = _fminbound(lambda t: _log_mse_at(t, a, log_b), lo, hi, 1e-12)
            res = minimize_scalar(_log_mse_at, bounds=(lo, hi), args=(a, log_b),
                                  method="bounded", options={"xatol": 1e-12})
            assert x == res.x and fun == res.fun, seed

    def test_stops_at_500_evaluations(self):
        """A negative tolerance never converges; the cap ends the search."""
        calls = []

        def f(t):
            calls.append(t)
            return (t - 0.3) ** 2

        x, fun = _fminbound(f, -2.0, 3.0, -1.0)
        assert len(calls) == 500
        assert fun == f(x) and abs(x - 0.3) < 1e-12


class TestEntropy:
    def test_uniform_half(self):
        a = np.full((3, 3, 3), 0.5)
        np.testing.assert_allclose(
            g6_entropy(a), -0.5 * np.log(0.5), rtol=1e-12
        )

    def test_ones_zero_entropy(self):
        assert g6_entropy(np.ones((2, 2, 3))) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            g6_entropy(np.zeros((1, 1, 3)))
        with pytest.raises(ValueError):
            g6_entropy(np.full((1, 1, 3), 1.5))


class TestRegistry:
    def test_all_six_registered(self):
        assert sorted(METRICS) == ["g1", "g2", "g3", "g4", "g5", "g6"]
