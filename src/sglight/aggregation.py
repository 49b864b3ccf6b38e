"""Non-learned attention mechanics over per-view feature tokens.

Tokens are built as x_k = f_spec_k + concat(image RGB, context), which
requires the specular feature width to equal 3 + context width. A
target embedding row is prepended and queries the sequence through
injected projection matrices (single head). Two flavors:

masked attention: scores of masked entries are treated as -inf (the
implementation drops them outright, so masked tokens cannot leak even at
the bit level), softmax over the rest, output is the target row's
attention result.

weighted attention: softmax over the K view scores only, multiplied by
external nonnegative weights and renormalized L1 into a convex
combination of the view values; if every product vanishes the target
token's own value row is returned.

Scores are scaled dot products, q . k / sqrt(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._arrays import _frozen


@dataclass(frozen=True)
class TokenSequence:
    """Target embedding (d,) plus K view tokens (K, d)."""

    target: np.ndarray
    tokens: np.ndarray

    def __post_init__(self):
        target = _frozen(self.target, "target")
        tokens = _frozen(self.tokens, "tokens")
        if target.ndim != 1:
            raise ValueError("target must be a vector")
        if tokens.ndim != 2 or tokens.shape[1] != target.shape[0]:
            raise ValueError("tokens must be (K, d) matching the target")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "tokens", tokens)

    @property
    def width(self) -> int:
        return self.target.shape[0]

    @property
    def count(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class AttentionParams:
    """Injected (d, d) query/key/value projections, single head."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray

    def __post_init__(self):
        for name in ("wq", "wk", "wv"):
            m = _frozen(getattr(self, name), name)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square")
            object.__setattr__(self, name, m)
        if not (self.wq.shape == self.wk.shape == self.wv.shape):
            raise ValueError("projections must share one width")

    @property
    def width(self) -> int:
        return self.wq.shape[0]


def build_tokens(
    f_spec: np.ndarray,
    image_rgb: np.ndarray,
    f_context: np.ndarray,
    target_embedding: np.ndarray,
) -> TokenSequence:
    """Tokens x_k = f_spec_k + concat(rgb_k, context), one per view.

    The specular width must equal 3 + len(context). A zero f_spec makes
    the token the bare concatenation.
    """
    f_spec = np.asarray(f_spec, dtype=np.float64)
    image_rgb = np.asarray(image_rgb, dtype=np.float64)
    f_context = np.asarray(f_context, dtype=np.float64)
    if f_spec.ndim != 2:
        raise ValueError("f_spec must be (K, d_s)")
    if image_rgb.shape != (f_spec.shape[0], 3):
        raise ValueError("image_rgb must be (K, 3)")
    if f_context.ndim != 1:
        raise ValueError("f_context must be a vector")
    if f_spec.shape[1] != 3 + f_context.shape[0]:
        raise ValueError("f_spec width must equal 3 + context width")
    shared = np.concatenate(
        [image_rgb, np.repeat(f_context[None, :], f_spec.shape[0], axis=0)], axis=1
    )
    return TokenSequence(target_embedding, f_spec + shared)


def _attention_probs(seq: TokenSequence, params: AttentionParams, rows: np.ndarray):
    """Softmax over rows of their scaled dot-product scores against the target."""
    if params.width != seq.width:
        raise ValueError("projection width must match token width")
    s = (rows @ params.wk.T) @ (params.wq @ seq.target) / np.sqrt(params.width)
    p = np.exp(s - s.max())
    return p / p.sum()


def masked_attention(seq: TokenSequence, params: AttentionParams, mask) -> np.ndarray:
    """Target-row attention over [target; tokens] with binary masking.

    mask has K+1 entries; the leading (target) entry must be 1. Masked
    entries are excluded before the softmax, which equals scoring them
    at -inf but is also bitwise immune to their contents.
    """
    mask = np.asarray(mask)
    if mask.shape != (seq.count + 1,):
        raise ValueError("mask must have K+1 entries")
    if mask[0] != 1:
        raise ValueError("the target entry of the mask must be 1")
    rows = np.concatenate([seq.target[None, :], seq.tokens], axis=0)[np.flatnonzero(mask != 0)]
    return _attention_probs(seq, params, rows) @ (rows @ params.wv.T)


def weighted_attention(
    seq: TokenSequence,
    params: AttentionParams,
    weights,
    return_coefficients: bool = False,
):
    """Convex combination of view values steered by external weights.

    Softmax probabilities of the K view scores are multiplied by the
    finite nonnegative weights and L1 renormalized. All products zero (for
    example an all-zero weight vector) falls back to the target token's
    own value row, with coefficients reported as zeros.
    """
    w = _frozen(weights, "weights", lo=0.0, shape=(seq.count,))
    c = _attention_probs(seq, params, seq.tokens) * w
    total = c.sum()
    if total == 0.0:
        out = params.wv @ seq.target
        coeff = np.zeros(seq.count)
    else:
        coeff = c / total
        out = coeff @ (seq.tokens @ params.wv.T)
    if return_coefficients:
        return out, coeff
    return out


def stack_attention(
    seq: TokenSequence,
    layers: Sequence[AttentionParams],
    mask=None,
    weights=None,
) -> np.ndarray:
    """Run stacked layers (default depth is two in callers), feeding each
    layer's target output in as the next query. Exactly one of mask or
    weights selects the flavor; tokens stay fixed across layers.
    """
    if (mask is None) == (weights is None):
        raise ValueError("pass exactly one of mask or weights")
    target = seq.target
    current = seq
    for params in layers:
        if mask is not None:
            target = masked_attention(current, params, mask)
        else:
            target = weighted_attention(current, params, weights)
        current = TokenSequence(target, seq.tokens)
    return target


def mean_variance_aggregate(values: np.ndarray, weights) -> np.ndarray:
    """Weighted mean and variance, concatenated to a 2d vector.

    weights (K,) must be finite, >= 0 and already normalized (sum 1
    within 1e-8). The variance is the weighted second central moment,
    elementwise.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be (K, d)")
    w = _frozen(weights, "weights", lo=0.0, shape=values.shape[:1])
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must sum to 1")
    mean = w @ values
    var = w @ (values - mean) ** 2
    return np.concatenate([mean, var])


def positional_encode(x, num_freqs: int) -> np.ndarray:
    """Frequency features [sin(2^i pi x), cos(2^i pi x)] for i < num_freqs.

    Applied per component; a (d,) input yields length 2 * num_freqs * d,
    component-major, sin/cos interleaved per frequency. x = 0 maps to
    (0, 1, 0, 1, ...).
    """
    if num_freqs < 1:
        raise ValueError("num_freqs must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.ndim != 1:
        raise ValueError("positional_encode expects a scalar or a vector")
    freqs = (2.0 ** np.arange(num_freqs)) * np.pi
    angles = x[:, None] * freqs[None, :]
    pairs = np.stack([np.sin(angles), np.cos(angles)], axis=-1)
    return pairs.reshape(-1)
