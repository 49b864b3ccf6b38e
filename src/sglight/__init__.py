"""Spherical-Gaussian lighting toolkit.

Analytic building blocks for SG environment lighting: lobe mixtures and
sphere integrals, equirectangular decoding, volumetric SG compositing in
two operation orders, microfacet shading, multi-view consistency
weighting, attention-style feature aggregation, nonlinear least-squares
fitting, and masked comparison metrics, plus a file-based CLI.
"""

__version__ = "0.1.0"

from .sg import (
    SgEnvironment,
    SphericalGaussian,
    eval_mixture,
    eval_sg,
    integrate_sg_sphere,
    sphere_grid,
)
from .envmap import (
    EnvironmentMap,
    HdrImage,
    decode_env,
    hdr_forward,
    hdr_inverse,
)
from .pfm import PfmError, read_pfm, write_pfm
from .vsg import (
    RaySampleSet,
    VsgVolume,
    bench_orders,
    composite_sg_after,
    composite_sg_before,
    load_vsg,
    sample_ray,
    save_vsg,
)
from .brdf import (
    GBuffer,
    SpecEncoding,
    half_vector,
    reflect,
    render_diffuse,
    render_specular,
    shading,
    spec_encode,
)
from .multiview import (
    CameraView,
    MultiViewSet,
    VisibleSurfaceVolume,
    depth_projection_error,
    depth_projection_errors,
    estimate_depth_scale,
    multiview_mask,
    multiview_weight,
    splat_visible_surface,
)
from .aggregation import (
    AttentionParams,
    TokenSequence,
    build_tokens,
    masked_attention,
    mean_variance_aggregate,
    positional_encode,
    weighted_attention,
)
from .sgfit import FitConfig, FitResult, fit_sg, fit_visibility, sg_gradients
from .metrics import (
    g1_angular,
    g2_mse,
    g3_scaled_mse,
    g4_log_mse,
    g5_scaled_log_mse,
    g6_entropy,
    lsq_scale,
)
