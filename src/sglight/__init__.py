"""Spherical-Gaussian lighting toolkit.

Analytic building blocks for SG environment lighting: lobe mixtures and
sphere integrals, equirectangular decoding, volumetric SG compositing in
two operation orders, microfacet shading, multi-view consistency
weighting, attention-style feature aggregation, nonlinear least-squares
fitting, and masked comparison metrics, plus a file-based CLI.

The names below load on first use: `import sglight` imports no
submodule, and `sglight.X` imports only the module that defines X.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # defining module -> the names it exports here
    "sg": "SgEnvironment SphericalGaussian eval_mixture eval_sg integrate_sg_sphere "
          "sphere_grid",
    "envmap": "EnvironmentMap HdrImage decode_env hdr_forward hdr_inverse",
    "pfm": "PfmError read_pfm write_pfm",
    "vsg": "RaySampleSet VsgVolume bench_orders composite_sg_after composite_sg_before "
           "load_vsg sample_ray save_vsg",
    "brdf": "GBuffer SpecEncoding half_vector reflect render_diffuse render_specular "
            "shading spec_encode",
    "multiview": "CameraView MultiViewSet VisibleSurfaceVolume depth_projection_error "
                 "depth_projection_errors estimate_depth_scale multiview_mask "
                 "multiview_weight splat_visible_surface",
    "aggregation": "AttentionParams TokenSequence build_tokens masked_attention "
                   "mean_variance_aggregate positional_encode weighted_attention",
    "sgfit": "FitResult fit_sg fit_visibility sg_gradients",
    "metrics": "g1_angular g2_mse g3_scaled_mse g4_log_mse g5_scaled_log_mse g6_entropy "
               "lsq_scale",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Not cached in the package globals: every access reads the defining
    # module, so a name rebound there (a patch, a tracer) is seen here.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
