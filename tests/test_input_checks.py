"""One case per input check that no other test reaches: each call must fail
with its check's own exception and message."""

import re

import numpy as np
import pytest

from sglight.aggregation import (
    AttentionParams,
    TokenSequence,
    build_tokens,
    masked_attention,
    mean_variance_aggregate,
    positional_encode,
)
from sglight.brdf import GBuffer, render_diffuse
from sglight.envmap import HdrImage
from sglight.metrics import g1_angular
from sglight.multiview import (
    CameraView,
    MultiViewSet,
    estimate_depth_scale,
    splat_visible_surface,
)
from sglight.pfm import write_pfm
from sglight.sg import SgEnvironment, SphericalGaussian, eval_mixture, sphere_grid
from sglight.sgfit import fit_visibility
from sglight.vsg import VsgVolume, bench_orders, sample_ray

UP = np.array([0.0, 0.0, 1.0])


def _env(visibility=None):
    return SgEnvironment((SphericalGaussian(UP, 2.0, [1.0, 1.0, 1.0]),), visibility)


def _gbuffer():
    normal = np.zeros((2, 3, 3))
    normal[..., 2] = 1.0
    return GBuffer(albedo=np.full((2, 3, 3), 0.5), roughness=np.full((2, 3), 0.4),
                   normal=normal, depth=np.full((2, 3), 2.0))


def _camera(**fields):
    args = dict(fx=4.0, fy=4.0, cx=1.5, cy=1.0, rotation=np.eye(3),
                translation=np.zeros(3), width=3, height=2)
    return CameraView(**{**args, **fields})


def _splat(variant="fixed_sigma", extras=None, cam=None):
    cam = _camera(image=np.full((2, 3, 3), 0.2)) if cam is None else cam
    return splat_visible_surface(_gbuffer(), cam, (2, 2, 2), -np.ones(3), np.ones(3),
                                 variant=variant, extras=extras)


def _volume(data=None):
    if data is None:
        data = np.zeros((2, 2, 2, 8))
        data[..., 6] = 1.0
    return VsgVolume(data, -np.ones(3), np.ones(3))


# id -> (call taking a scratch directory, exception type, exact message)
CASES = {
    "aggregation-target-vector": (
        lambda d: TokenSequence(np.ones((2, 3)), np.ones((2, 3))),
        ValueError, "target must be a vector"),
    "aggregation-tokens-shape": (
        lambda d: TokenSequence(np.ones(3), np.ones((2, 4))),
        ValueError, "tokens must be (K, d) matching the target"),
    "aggregation-square-projection": (
        lambda d: AttentionParams(np.ones((2, 3)), np.eye(3), np.eye(3)),
        ValueError, "wq must be square"),
    "aggregation-projection-widths": (
        lambda d: AttentionParams(np.eye(2), np.eye(3), np.eye(3)),
        ValueError, "projections must share one width"),
    "aggregation-f-spec-shape": (
        lambda d: build_tokens(np.ones(4), np.ones((1, 3)), np.ones(1), np.ones(4)),
        ValueError, "f_spec must be (K, d_s)"),
    "aggregation-image-rgb-shape": (
        lambda d: build_tokens(np.ones((2, 4)), np.ones((3, 3)), np.ones(1), np.ones(4)),
        ValueError, "image_rgb must be (K, 3)"),
    "aggregation-f-context-vector": (
        lambda d: build_tokens(np.ones((2, 4)), np.ones((2, 3)), np.ones((1, 1)), np.ones(4)),
        ValueError, "f_context must be a vector"),
    "aggregation-attention-width": (
        lambda d: masked_attention(TokenSequence(np.ones(3), np.ones((2, 3))),
                                   AttentionParams(np.eye(2), np.eye(2), np.eye(2)), [1, 1, 1]),
        ValueError, "projection width must match token width"),
    "aggregation-values-shape": (
        lambda d: mean_variance_aggregate(np.ones(3), np.full(3, 1.0 / 3.0)),
        ValueError, "values must be (K, d)"),
    "aggregation-positional-rank": (
        lambda d: positional_encode(np.ones((2, 2)), 2),
        ValueError, "positional_encode expects a scalar or a vector"),
    "brdf-visibility-shape": (
        lambda d: render_diffuse(_gbuffer(), _env(np.ones((3, 2, 1))), (2, 4)),
        ValueError, "visibility leading shape must match the image"),
    "envmap-hdr-shape": (
        lambda d: HdrImage(np.ones((2, 3))),
        ValueError, "HdrImage data must be (H, W, 3), got (2, 3)"),
    "metrics-mask-per-pixel": (
        lambda d: g1_angular(np.tile(UP, (2, 2, 1)), np.tile(UP, (2, 2, 1)), np.ones((2, 2, 3))),
        ValueError, "mask must have one entry per pixel"),
    "multiview-pose-shape": (
        lambda d: _camera(rotation=np.eye(2)),
        ValueError, "pose must be a (3, 3) rotation and 3-vector"),
    "multiview-view-type": (
        lambda d: MultiViewSet((_camera(), "camera")),
        TypeError, "views must be CameraView instances"),
    "multiview-depth-scale-shapes": (
        lambda d: estimate_depth_scale(np.ones(3), np.ones(4), np.ones(3)),
        ValueError, "pred, ref, confidence must share a shape"),
    "multiview-splat-variant": (
        lambda d: _splat(variant="gaussian"),
        ValueError, "unknown variant 'gaussian'"),
    "multiview-splat-image": (
        lambda d: _splat(cam=_camera()),
        ValueError, "camera view needs an image to splat"),
    "multiview-splat-extras": (
        lambda d: _splat(extras=np.ones((3, 2, 1))),
        ValueError, "extras must match the gbuffer size"),
    "pfm-empty-image": (
        lambda d: write_pfm(d / "empty.pfm", np.zeros((0, 3), dtype=np.float32)),
        ValueError, "image must have positive dimensions"),
    "sg-lobe-type": (
        lambda d: SgEnvironment(("lobe",)),
        TypeError, "lobes must be SphericalGaussian instances"),
    "sg-visibility-row": (
        lambda d: eval_mixture(_env(np.ones((2, 3, 1))), UP, pixel=0),
        ValueError, "pixel index must select one visibility row"),
    "sg-grid-resolution": (
        lambda d: sphere_grid(0, 8),
        ValueError, "resolution must be positive"),
    "sgfit-targets-shape": (
        lambda d: fit_visibility(_env(), np.ones((4, 8))),
        ValueError, "targets must be (..., rows, cols, 3)"),
    "vsg-volume-channels": (
        lambda d: _volume(np.zeros((2, 2, 2, 7))),
        ValueError, "volume data must be (X, Y, Z, 8) with X, Y, Z >= 1"),
    "vsg-sample-count": (
        lambda d: sample_ray(_volume(), -2.0 * UP, UP, n_r=0),
        ValueError, "n_r must be >= 1"),
    "vsg-ray-shape": (
        lambda d: sample_ray(_volume(), np.zeros(2), UP),
        ValueError, "origin and direction must be 3-vectors"),
    "vsg-bench-rays": (
        lambda d: bench_orders(_volume(), rays=0, n_r=4),
        ValueError, "rays and n_r must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_rejects_with_its_message(case, tmp_path):
    call, exc, message = CASES[case]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call(tmp_path)
