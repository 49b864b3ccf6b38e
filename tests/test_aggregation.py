"""Attention over view tokens: masking, weighting, stacking, encodings."""

import numpy as np
import pytest

from sglight.aggregation import (
    AttentionParams,
    TokenSequence,
    build_tokens,
    masked_attention,
    mean_variance_aggregate,
    positional_encode,
    stack_attention,
    weighted_attention,
)


def random_setup(rng, k=4, d=6):
    seq = TokenSequence(rng.normal(size=d), rng.normal(size=(k, d)))
    params = AttentionParams(
        rng.normal(size=(d, d)), rng.normal(size=(d, d)),
        rng.normal(size=(d, d)),
    )
    return seq, params


class TestBuildTokens:
    def test_add_mode_sums_features(self):
        f_spec = np.arange(12.0).reshape(2, 6)
        rgb = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        ctx = np.array([1.0, 2.0, 3.0])
        seq = build_tokens(f_spec, rgb, ctx, np.zeros(6))
        expected0 = f_spec[0] + np.concatenate([rgb[0], ctx])
        np.testing.assert_allclose(seq.tokens[0], expected0)
        assert seq.count == 2 and seq.width == 6

    def test_add_mode_width_check(self):
        with pytest.raises(ValueError):
            build_tokens(np.zeros((2, 5)), np.zeros((2, 3)), np.zeros(3),
                         np.zeros(5))


class TestMaskedAttention:
    def test_bitwise_invariance(self):
        """Replacing a masked token with garbage changes nothing, not even
        the last bit."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            seq, params = random_setup(rng)
            mask = np.array([1, 1, 0, 1, 0])
            base = masked_attention(seq, params, mask)
            garbled = np.array(seq.tokens)
            garbled[1] = rng.normal(size=6) * 1e6
            garbled[3] = -rng.normal(size=6) * 1e6
            out = masked_attention(
                TokenSequence(seq.target, garbled), params, mask
            )
            assert np.array_equal(base, out)

    def test_all_views_masked_attends_target_only(self):
        """Only the target row left: output is exactly its value row."""
        rng = np.random.default_rng(7)
        seq, params = random_setup(rng)
        out = masked_attention(seq, params, np.array([1, 0, 0, 0, 0]))
        np.testing.assert_allclose(out, params.wv @ seq.target, rtol=1e-12)

    def test_target_mask_entry_enforced(self):
        rng = np.random.default_rng(7)
        seq, params = random_setup(rng)
        with pytest.raises(ValueError):
            masked_attention(seq, params, np.array([0, 1, 1, 1, 1]))

    def test_mask_length_enforced(self):
        rng = np.random.default_rng(7)
        seq, params = random_setup(rng)
        with pytest.raises(ValueError):
            masked_attention(seq, params, np.array([1, 1, 1]))


class TestWeightedAttention:
    def test_convex_combination(self):
        """Coefficients are nonnegative and sum to 1; the output lies in
        the convex hull of the view value rows."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            seq, params = random_setup(rng)
            w = rng.uniform(0.0, 2.0, size=4)
            w[rng.integers(0, 4)] = 0.0
            out, coeff = weighted_attention(seq, params, w,
                                            return_coefficients=True)
            assert np.all(coeff >= 0.0)
            np.testing.assert_allclose(coeff.sum(), 1.0, rtol=1e-12)
            values = seq.tokens @ params.wv.T
            np.testing.assert_allclose(out, coeff @ values, rtol=1e-12)

    def test_zero_weight_view_excluded(self):
        rng = np.random.default_rng(3)
        seq, params = random_setup(rng)
        w = np.array([1.0, 0.0, 1.0, 1.0])
        _, coeff = weighted_attention(seq, params, w,
                                      return_coefficients=True)
        assert coeff[1] == 0.0

    def test_all_zero_weights_fallback(self):
        rng = np.random.default_rng(3)
        seq, params = random_setup(rng)
        out, coeff = weighted_attention(seq, params, np.zeros(4),
                                        return_coefficients=True)
        np.testing.assert_allclose(out, params.wv @ seq.target, rtol=1e-12)
        np.testing.assert_array_equal(coeff, 0.0)

    def test_single_hot_weight_selects_view(self):
        rng = np.random.default_rng(11)
        seq, params = random_setup(rng)
        w = np.array([0.0, 0.0, 5.0, 0.0])
        out = weighted_attention(seq, params, w)
        np.testing.assert_allclose(out, params.wv @ seq.tokens[2],
                                   rtol=1e-12)

    def test_negative_weights_rejected(self):
        rng = np.random.default_rng(11)
        seq, params = random_setup(rng)
        with pytest.raises(ValueError):
            weighted_attention(seq, params, np.array([1.0, -0.1, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weights_rejected(self, bad):
        """An infinite weight would give NaN coefficients after inf / inf."""
        rng = np.random.default_rng(11)
        seq, params = random_setup(rng)
        with pytest.raises(ValueError, match="weights must be finite"):
            weighted_attention(seq, params, np.array([bad, 1.0, 0.0, 0.0]))


class TestStack:
    def test_two_layers_feed_forward(self):
        """The second layer queries with the first layer's output."""
        rng = np.random.default_rng(42)
        seq, p1 = random_setup(rng)
        _, p2 = random_setup(rng)
        mask = np.array([1, 1, 1, 0, 1])
        manual1 = masked_attention(seq, p1, mask)
        manual2 = masked_attention(TokenSequence(manual1, seq.tokens), p2,
                                   mask)
        out = stack_attention(seq, [p1, p2], mask=mask)
        np.testing.assert_allclose(out, manual2, rtol=1e-12)

    def test_weighted_layers_feed_forward(self):
        """With weights, each layer is weighted_attention on the previous
        layer's output, bit for bit."""
        rng = np.random.default_rng(43)
        seq, p1 = random_setup(rng)
        _, p2 = random_setup(rng)
        w = np.array([0.5, 0.0, 2.0, 1.0])
        manual1 = weighted_attention(seq, p1, w)
        manual2 = weighted_attention(TokenSequence(manual1, seq.tokens), p2, w)
        assert np.array_equal(stack_attention(seq, [p1, p2], weights=w), manual2)

    def test_exactly_one_flavor(self):
        rng = np.random.default_rng(42)
        seq, params = random_setup(rng)
        with pytest.raises(ValueError):
            stack_attention(seq, [params])
        with pytest.raises(ValueError):
            stack_attention(seq, [params], mask=np.ones(5, dtype=int),
                            weights=np.ones(4))


class TestMeanVariance:
    def test_hand_case(self):
        values = np.array([[0.0, 2.0], [2.0, 4.0]])
        out = mean_variance_aggregate(values, [0.5, 0.5])
        np.testing.assert_allclose(out, [1.0, 3.0, 1.0, 1.0])

    def test_point_mass_zero_variance(self):
        values = np.array([[1.0, 2.0], [9.0, 9.0]])
        out = mean_variance_aggregate(values, [1.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 2.0, 0.0, 0.0])

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            mean_variance_aggregate(np.ones((2, 2)), [0.5, 0.6])

    def test_nan_weight_rejected(self):
        """abs(nan - 1) > 1e-8 is False, so the sum check alone lets NaN through."""
        with pytest.raises(ValueError, match="weights must be finite"):
            mean_variance_aggregate(np.ones((2, 2)), [np.nan, 1.0])


class TestPositionalEncode:
    def test_zero_input_pattern(self):
        out = positional_encode(0.0, 3)
        np.testing.assert_array_equal(out, [0, 1, 0, 1, 0, 1])

    def test_component_major_layout(self):
        """Both components of a 2-vector contribute adjacent sin/cos
        pairs, first component first."""
        out = positional_encode([0.5, 0.0], 1)
        np.testing.assert_allclose(
            out, [np.sin(0.5 * np.pi), np.cos(0.5 * np.pi), 0.0, 1.0],
            atol=1e-15,
        )

    def test_frequency_doubling(self):
        x = 0.37
        out = positional_encode(x, 4)
        for i in range(4):
            np.testing.assert_allclose(out[2 * i],
                                       np.sin((2.0 ** i) * np.pi * x))
            np.testing.assert_allclose(out[2 * i + 1],
                                       np.cos((2.0 ** i) * np.pi * x))

    def test_length(self):
        assert positional_encode(np.zeros(5), 4).shape == (40,)

    def test_rejects_bad_freqs(self):
        with pytest.raises(ValueError):
            positional_encode(0.0, 0)
