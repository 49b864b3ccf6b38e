"""Monte Carlo oracles for the quadrature renderers in sglight.brdf.

GGX importance sampling of the specular integral (Walter et al. 2007,
"Microfacet models for refraction through rough surfaces") and
cosine-weighted sampling of the diffuse one. Each pixel draws from its own
SeedSequence((seed, pixel index)) stream, so an image does not depend on
evaluation order. Only the tests use them, as independent references.
"""

from __future__ import annotations

import numpy as np

from sglight.brdf import (
    GBuffer,
    _view_dirs,
    _visibility_rows,
    onb,
    schlick_fresnel,
    smith_g2,
)
from sglight.envmap import HdrImage
from sglight.sg import SgEnvironment, mixture_radiance


def _ggx_sample_half(u1, u2, alpha):
    """Map uniform squares to GGX-distributed half vectors (local frame)."""
    ct = np.sqrt((1.0 - u1) / (1.0 + (alpha * alpha - 1.0) * u1))
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    phi = 2.0 * np.pi * u2
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def mc_render_specular(
    g: GBuffer,
    env: SgEnvironment,
    cam,
    n_samples: int = 100000,
    seed: int = 0,
) -> HdrImage:
    """Monte Carlo specular oracle with GGX importance sampling.

    Half vectors are drawn from D(h) (n.h); the estimator per sample is
    L(l) * G2 * F * (v.h) / ((n.v)(n.h)). Streams are seeded per pixel
    from (seed, pixel index) so results do not depend on evaluation order
    or thread count.
    """
    if np.any(g.roughness <= 0.0):
        raise ValueError("roughness must be > 0 (delta lobes unsupported)")
    h, w = g.shape
    views = _view_dirs(g, cam)
    mu_all = _visibility_rows(env, g.shape)
    img = np.zeros((h, w, 3))
    for p in range(h * w):
        i, j = divmod(p, w)
        n = g.normal[i, j]
        v = views[i, j]
        cos_v = float(np.dot(n, v))
        if cos_v <= 0.0:
            continue
        alpha = float(g.roughness[i, j]) ** 2
        rng = np.random.default_rng(np.random.SeedSequence((seed, p)))
        u = rng.random((n_samples, 2))
        h_local = _ggx_sample_half(u[:, 0], u[:, 1], alpha)
        t, b = onb(n)
        hw = h_local[:, 0:1] * t + h_local[:, 1:2] * b + h_local[:, 2:3] * n
        vh = hw @ v
        l = 2.0 * vh[:, None] * hw - v
        cos_l = l @ n
        cos_h = h_local[:, 2]
        valid = (cos_l > 0.0) & (vh > 0.0)
        weight = np.zeros(n_samples)
        weight[valid] = (
            smith_g2(cos_v, cos_l[valid], alpha)
            * schlick_fresnel(vh[valid])
            * vh[valid]
            / (cos_v * cos_h[valid])
        )
        mu = mu_all[p] if mu_all is not None else None
        radiance = np.zeros((n_samples, 3))
        radiance[valid] = mixture_radiance(env, l[valid], mu)
        img[i, j] = (radiance * weight[:, None]).mean(axis=0)
    return HdrImage(img)


def mc_render_diffuse(
    g: GBuffer, env: SgEnvironment, n_samples: int = 100000, seed: int = 0
) -> HdrImage:
    """Monte Carlo diffuse oracle with cosine-weighted sampling.

    I_d = (A / pi) * int L cos = A * E[L] under the cosine pdf.
    """
    h, w = g.shape
    mu_all = _visibility_rows(env, g.shape)
    img = np.zeros((h, w, 3))
    for p in range(h * w):
        i, j = divmod(p, w)
        n = g.normal[i, j]
        rng = np.random.default_rng(np.random.SeedSequence((seed, p)))
        u = rng.random((n_samples, 2))
        r = np.sqrt(u[:, 0])
        phi = 2.0 * np.pi * u[:, 1]
        local = np.stack(
            [r * np.cos(phi), r * np.sin(phi), np.sqrt(1.0 - u[:, 0])], axis=-1
        )
        t, b = onb(n)
        l = local[:, 0:1] * t + local[:, 1:2] * b + local[:, 2:3] * n
        mu = mu_all[p] if mu_all is not None else None
        img[i, j] = g.albedo[i, j] * mixture_radiance(env, l, mu).mean(axis=0)
    return HdrImage(img)
